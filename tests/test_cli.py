import argparse
import json
import os

import pytest

from chainext import brst as brst_mod
from chainext import bv as bv_mod
from chainext import cli
from chainext import complexes
from chainext.cli import main
from chainext.complexes import HomotopyData
from chainext.exactla import Basis, RatMatrix
from chainext.formats import dump_extend, load_extend
from chainext.lie import Cochain


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_reports.json")
EXPECTED = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "expected.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_golden(capsys, *argv):
    """run(), then require the exit code and the full report recorded in
    golden/cli_reports.json under the space-joined argv."""
    code, out = run(capsys, *argv)
    with open(GOLDEN) as fh:
        want = json.load(fh)[" ".join(argv)]
    assert (code, out) == (want["code"], want["stdout"])
    return code, out


def test_lie_abelian2(capsys):
    code, out = run_golden(capsys, "lie", "--input", "lie_abelian2")
    assert code == 0
    assert "H2 dim: 2" in out.splitlines()


def test_lie_sl2(capsys):
    code, out = run_golden(capsys, "lie", "--input", "lie_sl2")
    assert code == 0
    assert "H2 dim: 0" in out.splitlines()


def test_lie_obstructed_deformation(capsys):
    code, out = run_golden(capsys, "lie", "--input", "lie_abelian3",
                           "--alpha1", "cochain_obstructed_alpha1")
    assert code == 0
    lines = out.splitlines()
    assert "obstruction [a1,a1]: nonzero" in lines
    assert "order 2: obstructed" in lines


@pytest.mark.parametrize("argv,code", [
    # H2 rep 5 has two terms: pins the order in which cochains are printed
    ("lie --input lie_heisenberg", 0),
    ("lie --input lie_so3", 0),
    # alpha1 fails its own order-1 equation: DeformationPreconditionError
    ("lie --input lie_heisenberg --alpha1 cochain_obstructed_alpha1 "
     "--order 4", 1),
    # a cocycle whose deformation extends at every order
    ("lie --input lie_heisenberg --alpha1 cochain_heisenberg_a121 "
     "--order 2", 0),
    ("lie --input lie_heisenberg --alpha1 cochain_heisenberg_a121 "
     "--order 6", 0),
    ("shlie --input lie_sl2 --cross-check", 0),
    ("shlie --input lie_aff1 --cross-check", 0),
])
def test_lie_cochain_reports(argv, code, capsys):
    assert run_golden(capsys, *argv.split())[0] == code


def test_format_cochain_orders_tuples_then_components():
    ch = Cochain(3, 2, {(1, 2): [0, 5, 0], (0, 1): [1, 0, "-2/3"]})
    assert cli.format_cochain(ch) == \
        "a 1 2 1: 1; a 1 2 3: -2/3; a 2 3 2: 5"
    assert cli.format_cochain(Cochain(3, 2)) == "0"


def test_lie_non_cocycle_direction(tmp_path, capsys):
    bad = tmp_path / "bad_cochain.txt"
    bad.write_text("kind: cochain\ndim: 3\narity: 2\na 1 3 1: 1\n")
    code, out = run(capsys, "lie", "--input", "lie_heisenberg",
                    "--alpha1", str(bad))
    assert code == 1
    assert "error" in out


@pytest.mark.parametrize("order", ["0", "1"])
def test_lie_below_order_two_extends_nothing(order, tmp_path, monkeypatch,
                                             capsys):
    """Below --order 2 no order is reported, so alpha1's own order-1
    equation is not checked and a non-cocycle alpha1 passes."""
    from chainext import lie as lie_mod
    bad = tmp_path / "bad_cochain.txt"
    bad.write_text("kind: cochain\ndim: 3\narity: 2\na 1 3 1: 1\n")
    calls = counting(monkeypatch, lie_mod, "extend_deformation", cli)
    code, out = run(capsys, "lie", "--input", "lie_heisenberg",
                    "--alpha1", str(bad), "--order", order)
    assert code == 0
    assert out.splitlines()[-1] == "obstruction [a1,a1]: zero"
    assert calls == []


def test_lie_jacobi_failure(tmp_path, capsys):
    f = tmp_path / "notlie.txt"
    f.write_text("kind: lie\ndim: 3\nc 1 2 2: 1\nc 1 3 3: 1\n"
                 "c 2 3 1: 1\nc 2 3 2: 5\n")
    code, out = run(capsys, "lie", "--input", str(f))
    assert code == 1
    assert "jacobi: failed" in out


def test_shlie_default_zero_alpha1(capsys):
    code, out = run_golden(capsys, "shlie", "--input", "lie_so3")
    assert code == 0
    assert "variants agree: True" in out


def test_sl3_reports(capsys):
    """sl(3) is simple, so H^2 = 0 (Whitehead), and with alpha1 = 0 the
    relations hold in both variants."""
    code, out = run_golden(capsys, "lie", "--input", "lie_sl3")
    assert code == 0 and "H2 dim: 0" in out.splitlines()
    code, out = run_golden(capsys, "shlie", "--input", "lie_sl3")
    assert code == 0
    assert {"variant t2 relations: ok", "variant full relations: ok"} <= \
        set(out.splitlines())


def test_shlie_obstructed_with_cross_check(capsys):
    code, out = run_golden(capsys, "shlie", "--input", "lie_abelian3",
                           "--alpha1", "cochain_obstructed_alpha1",
                           "--cross-check")
    assert code == 0
    lines = out.splitlines()
    assert "variant t2 relations: ok" in lines
    assert "variant full l3 is obstruction: True" in lines
    assert "variant t2 engine cross-check: True" in lines


def test_shlie_rejects_non_cocycle(capsys):
    code, out = run_golden(capsys, "shlie", "--input", "lie_so3",
                           "--alpha1", "cochain_obstructed_alpha1")
    assert code == 1
    assert "build: error" in out


@pytest.mark.parametrize("command", ["lie", "shlie"])
@pytest.mark.parametrize("text", [
    "kind: cochain\ndim: 3\narity: 1\na 1 1: 1\n",
    "kind: cochain\ndim: 3\narity: 3\na 1 2 3 1: 1\n",
    "kind: cochain\ndim: 2\narity: 2\na 1 2 1: 1\n",
], ids=["arity-1", "arity-3", "dim-2"])
def test_alpha1_that_is_not_a_2_cochain_on_the_space_exit_code(
        command, text, tmp_path, capsys):
    """lie and shlie read --alpha1 alike: a cochain of another arity or on
    another space is an input error, not a failed build."""
    f = tmp_path / "alpha1.txt"
    f.write_text(text)
    code, out = run(capsys, command, "--input", "lie_so3", "--alpha1", str(f))
    assert (code, out) == (2, "error: alpha1 must be a 2-cochain on the same "
                              "space\n")


def test_lie_reads_alpha1_before_any_check(tmp_path, capsys):
    """A malformed --alpha1 file is an input error even when the algebra
    fails Jacobi, which would otherwise end the run first."""
    notlie = tmp_path / "notlie.txt"
    notlie.write_text("kind: lie\ndim: 3\nc 1 2 2: 1\nc 1 3 3: 1\n"
                      "c 2 3 1: 1\nc 2 3 2: 5\n")
    bad = tmp_path / "bad_cochain.txt"
    bad.write_text("kind: cochain\ndim: 3\narity: 2\na 1 2 1: q\n")
    code, out = run(capsys, "lie", "--input", str(notlie), "--alpha1",
                    str(bad))
    assert (code, out) == (2, "error: line 4: bad rational 'q'\n")


def test_brst_toy(capsys):
    code, out = run_golden(capsys, "brst", "--input", "brst_toy", "--cap", "3")
    assert code == 0
    lines = out.splitlines()
    assert "l3(G2): -1*eta1eta2P1" in lines
    assert "(delta+l2+l3)^2 on basis: ok" in lines


def test_brst_so3_table(capsys):
    code, out = run_golden(capsys, "brst", "--input", "brst_so3", "--cap", "3")
    assert code == 0
    lines = out.splitlines()
    assert "l2(P1): -1*eta2P3 + 1*eta3P2" in lines
    assert "l2(P2): 1*eta1P3 + -1*eta3P1" in lines
    assert "l2(P3): -1*eta1P2 + 1*eta2P1" in lines
    assert "l3 vanishes: True" in lines


def test_brst_not_first_class(tmp_path, capsys):
    f = tmp_path / "central.txt"
    f.write_text("kind: brst\nm: 0\nn: 2\np G1 G2: 1\n")
    code, out = run(capsys, "brst", "--input", str(f), "--cap", "2")
    assert code == 1
    assert "first-class closure: error" in out


@pytest.mark.parametrize("line,message", [
    ("p x1 eta1: 1", "poisson table only covers even generators"),
    ("s 1 2 1: eta1", "structure functions must be polynomials in (x, G)"),
    ("p G1 G1: 1", "bracket of a generator with itself must vanish"),
], ids=["odd-bracket", "odd-structure", "self-bracket"])
def test_brst_malformed_table_exit_code(line, message, tmp_path, capsys):
    f = tmp_path / "malformed.txt"
    f.write_text("kind: brst\nm: 1\nn: 2\n%s\n" % line)
    code, out = run(capsys, "brst", "--input", str(f), "--cap", "2")
    assert (code, out) == (2, "error: line 4: %s\n" % message)


def test_bv_two_pair(capsys):
    code, out = run_golden(capsys, "bv", "--input", "bv_two_pair", "--cap",
                           "4", "--cross-check")
    assert code == 0
    lines = out.splitlines()
    assert "S1 (searched): C phi_st" in lines
    assert "obstruction R: 0" in lines
    assert "engine cross-check: True" in lines


def test_bv_two_ghost(capsys):
    code, out = run_golden(capsys, "bv", "--input", "bv_two_ghost",
                           "--cap", "3")
    assert code == 0
    assert "obstruction R: -2 phi1 C1 C2 phi1_st + 2 phi2 C1 C2 phi2_st" \
        in out.splitlines()


def test_bv_order_one_master_failure(tmp_path, capsys):
    f = tmp_path / "badbv.txt"
    f.write_text("kind: bv\nfield phi: even 0\nfield C: odd 1\ntrunc: 2\n"
                 "S0: phi_st C\nS1: phi\n")
    code, out = run(capsys, "bv", "--input", str(f), "--cap", "2")
    assert code == 1
    assert "setup: error" in out


def test_bv_cubic_s0_with_cross_check_is_input_error(tmp_path, capsys,
                                                     monkeypatch):
    """S0 = phi^3 is a valid model, but no finite basis closes under
    (S0, .): without --cross-check the checks pass, and with it the run is
    an input error that names the flag and the degree of S0, raised once
    the file is loaded, before the Theorem-8 sweep."""
    f = tmp_path / "cubic.txt"
    f.write_text("kind: bv\nfield phi: even 0\nS0: phi phi phi\n")
    code, out = run(capsys, "bv", "--input", str(f))
    assert code == 0 and "extension checks: ok" in out.splitlines()
    calls = counting(monkeypatch, bv_mod, "verify_theorem8")
    code, out = run(capsys, "bv", "--input", str(f), "--cross-check")
    assert code == 2
    assert out == "error: --cross-check: S_0 has degree 3, above 2: no " \
        "finite basis closes under (S_0, .)\n"
    assert calls == []


def test_bv_auto_term_without_cocycle(tmp_path, capsys):
    """No even ghost-0 monomial of degree >= 2 exists, so `S1: auto` finds
    no term."""
    f = tmp_path / "noauto.txt"
    f.write_text("kind: bv\nfield C: odd 1\nS0: 0\nS1: auto\n")
    code, out = run(capsys, "bv", "--input", str(f))
    assert code == 1
    assert out.splitlines()[-1] == \
        "setup: error: no nontrivial cocycle found for S1"


def test_extend_shipped(capsys):
    for name in ("extend_split", "extend_medium"):
        code, out = run_golden(capsys, "extend", "--input", name)
        assert code == 0
        assert "homology match: True" in out.splitlines()


def test_extend_corrupt_d_f(tmp_path, capsys):
    models = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                          "models", "extend_split.txt")
    with open(models) as fh:
        hd, l2_0, d_f = load_extend(fh.read())
    wrong = RatMatrix([[7] * d_f.ncols for _ in range(d_f.nrows)])
    f = tmp_path / "corrupt.txt"
    f.write_text(dump_extend(hd, l2_0, wrong))
    code, out = run(capsys, "extend", "--input", str(f))
    assert code == 1
    assert "conditions: failed" in out


def test_extend_without_d_f(tmp_path, capsys):
    """Without d_f there is no base homology to match: the report is
    extend_split's golden report up to the total homology, and exit 0."""
    models = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                          "models", "extend_split.txt")
    with open(models) as fh:
        hd, l2_0, d_f = load_extend(fh.read())
    f = tmp_path / "no_d_f.txt"
    f.write_text(dump_extend(hd, l2_0, None))
    code, out = run(capsys, "extend", "--input", str(f))
    with open(GOLDEN) as fh:
        golden = json.load(fh)["extend --input extend_split"]["stdout"]
    assert code == 0
    assert out == golden[:golden.index("homology dim (base)")]


def test_extend_corrupt_eta(tmp_path, capsys):
    models = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                          "models", "extend_split.txt")
    with open(models) as fh:
        hd, l2_0, d_f = load_extend(fh.read())
    bumped = RatMatrix([[hd.eta.entry(i, j) + (7 if i == j == 0 else 0)
                         for j in range(hd.eta.ncols)]
                        for i in range(hd.eta.nrows)])
    broken = HomotopyData(hd.space, hd.l1, hd.f_dim, bumped, hd.lam, hd.s)
    f = tmp_path / "corrupt_eta.txt"
    f.write_text(dump_extend(broken, l2_0, d_f))
    code, out = run(capsys, "extend", "--input", str(f))
    assert code == 1
    assert "homotopy identities: failed at" in out


def test_extend_empty_dims_exit_code(tmp_path, capsys):
    """A complex with no degrees, or with every degree of dimension 0, is
    refused at its dims line, not run as an empty complex whose every check
    reads ok."""
    for dims, message in (("", "dims must list at least one dimension"),
                          (" 0", "dims must not all be zero"),
                          (" 0 0", "dims must not all be zero")):
        f = tmp_path / "no_degrees.txt"
        f.write_text("kind: extend\ndims:%s\nf_dim: 0\nmatrix eta: 0 0\n"
                     "matrix lam: 0 0\nmatrix l2_0: 0 0\n" % dims)
        code, out = run(capsys, "extend", "--input", str(f))
        assert (code, out) == (2, "error: line 2: %s\n" % message)


def test_input_is_directory(tmp_path, capsys):
    code, out = run(capsys, "lie", "--input", str(tmp_path))
    assert code == 2
    assert "no such input" in out


def test_fuzz(capsys):
    code, out = run_golden(capsys, "fuzz", "--seed", "1")
    assert code == 0
    assert "passed: 100/100" in out.splitlines()


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("kind: lie\ndim: 2\nc 2 1 1: 1\n")
    code, out = run(capsys, "lie", "--input", str(f))
    assert code == 2
    assert "line 3" in out


@pytest.mark.parametrize("value", ["0.5", "1e3"])
def test_lie_coefficient_that_is_not_p_over_q_exit_code(value, tmp_path,
                                                        capsys):
    f = tmp_path / "decimal.txt"
    f.write_text("kind: lie\ndim: 2\nc 1 2 1: %s\n" % value)
    code, out = run(capsys, "lie", "--input", str(f))
    assert code == 2
    assert "line 3: bad rational %r" % value in out


def test_brst_negative_n_exit_code(tmp_path, capsys):
    f = tmp_path / "negative_n.txt"
    f.write_text("kind: brst\nm: 0\nn: -1\n")
    code, out = run(capsys, "brst", "--input", str(f), "--cap", "2")
    assert code == 2
    assert "line 3" in out


@pytest.mark.parametrize("header", ["matrix l1 one: 1 1", "matrix: 1 1"])
def test_extend_bad_block_name_exit_code(header, tmp_path, capsys):
    f = tmp_path / "bad_block.txt"
    f.write_text("kind: extend\ndims: 1 1\nf_dim: 0\n%s\n0\n" % header)
    code, out = run(capsys, "extend", "--input", str(f))
    assert code == 2
    assert "line 4" in out


def test_extend_block_shape_disagrees_with_dims(tmp_path, capsys):
    f = tmp_path / "bad_shape.txt"
    f.write_text("kind: extend\ndims: 1 1\nf_dim: 0\n"
                 "matrix l1 1: 2 1\n0\n0\n")
    code, out = run(capsys, "extend", "--input", str(f))
    assert code == 2
    assert "line 4: matrix 'l1 1' has shape 2x1, expected 1x1" in out


def reshaped_extend_split(name, nrows, ncols):
    """extend_split with block `name` replaced by a zero block of the given
    shape; returns (text, line number of the new block's header)."""
    models = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                          "models", "extend_split.txt")
    with open(models) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, ln in enumerate(lines)
                 if ln.startswith("matrix %s:" % name))
    old_rows = int(lines[start].split()[-2])
    block = ["matrix %s: %d %d" % (name, nrows, ncols)]
    block += [" ".join(["0"] * ncols)] * (nrows if ncols else 0)
    lines[start:start + 1 + old_rows] = block
    return "\n".join(lines) + "\n", start + 1


# extend_split has dims 2 3 4 2 and f_dim 1
@pytest.mark.parametrize("name,nrows,ncols", [
    ("l1 2", 3, 3), ("s 0", 2, 2), ("eta", 1, 3), ("lam", 1, 1),
    ("l2_0", 1, 1), ("d_f", 2, 2)])
def test_extend_block_shape_exit_code(name, nrows, ncols, tmp_path, capsys):
    text, header = reshaped_extend_split(name, nrows, ncols)
    f = tmp_path / "reshaped.txt"
    f.write_text(text)
    code, out = run(capsys, "extend", "--input", str(f))
    assert code == 2
    assert "line %d: matrix %r has shape %dx%d" % (header, name, nrows,
                                                   ncols) in out


# l1 k maps X_k -> X_{k-1} and s k maps X_k -> X_{k+1}: both ends must be
# among the degrees 0..3 of extend_split, even for an empty block
@pytest.mark.parametrize("name", ["l1 0", "l1 4", "l1 7", "s -1", "s 3",
                                  "s 9"])
def test_extend_out_of_range_empty_block_exit_code(name, tmp_path, capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                           "models", "extend_split.txt")) as fh:
        lines = fh.read().splitlines()
    f = tmp_path / "out_of_range.txt"
    f.write_text("\n".join(lines + ["matrix %s: 0 0" % name]) + "\n")
    code, out = run(capsys, "extend", "--input", str(f))
    assert code == 2
    assert "line %d: matrix %r lies outside the complex" % (len(lines) + 1,
                                                           name) in out


@pytest.mark.parametrize("trunc", ["0", "1"])
def test_shlie_small_trunc_is_usage_error(trunc, capsys):
    code, out = run(capsys, "shlie", "--input", "lie_so3", "--trunc", trunc)
    assert code == 2
    assert "--trunc must be at least 3" in out


@pytest.mark.parametrize("command,model,flag", [
    ("brst", "brst_toy", "--cap"), ("shlie", "lie_so3", "--trunc"),
    ("lie", "lie_so3", "--order")], ids=["--cap", "--trunc", "--order"])
def test_negative_flag_is_usage_error(command, model, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", model, flag, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s" % flag in captured.err


@pytest.mark.parametrize("argv,flag", [
    ("brst --input brst_toy --cross-check", "--cross-check"),
    ("extend --input extend_split --order 1", "--order"),
    ("fuzz --input x", "--input"),
    ("lie --input lie_sl2 --seed 2", "--seed")])
def test_unread_flag_is_usage_error(argv, flag, capsys):
    """A command rejects each flag it does not read, naming it."""
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: %s" % flag in captured.err


@pytest.mark.parametrize("argv", [
    "bv --input bv_two_pair --trunc 7", "bv --input bv_two_pair --trunc 2",
    "bv --input bv_two_pair --cap 9", "bv --input bv_two_ghost --cap 7"])
def test_bv_flag_the_file_overrides_is_input_error(argv, capsys):
    """bv refuses a --trunc when its file sets trunc, and a --cap above the
    file's cap, naming the flag, instead of ignoring it."""
    code, out = run(capsys, *argv.split())
    assert code == 2
    assert out.startswith("error: %s %s" % tuple(argv.split()[-2:]))


def test_bv_flags_the_file_leaves_open(tmp_path, capsys):
    """--trunc applies when the file sets none (default 4), and a --cap up to
    the file's cap applies; the default cap is the file's cap when below 6."""
    f = tmp_path / "notrunc.txt"
    f.write_text("kind: bv\ncap: 3\nfield phi: even 0\nfield C: odd 1\n"
                 "S0: phi_st C\nS1: C phi_st\n")
    for flags, trunc in (([], 4), (["--trunc", "3"], 3)):
        code, out = run(capsys, "bv", "--input", str(f), *flags)
        assert code == 0 and "trunc: %d" % trunc in out.splitlines()
    assert run(capsys, "bv", "--input", str(f), "--cap", "3") == \
        run(capsys, "bv", "--input", str(f))
    assert run(capsys, "bv", "--input", "bv_two_pair", "--cap", "6") == \
        run(capsys, "bv", "--input", "bv_two_pair")


def test_each_command_takes_only_the_flags_it_reads():
    """Settable values per command, --format counted."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: sum(a.dest != "help" for a in p._actions)
            for name, p in sub.choices.items()} == \
        {"lie": 4, "shlie": 5, "brst": 3, "bv": 5, "extend": 2, "fuzz": 2}


def test_main_builds_its_parser_once(monkeypatch, capsys):
    """main builds the parser on its first call and reuses it: two jobs of
    different commands, one build."""
    builds = []

    def counted():
        builds.append(1)
        return build()
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "lie", "--input", "lie_so3")[0] == 0
        assert run(capsys, "bv", "--input", "bv_two_pair")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_readme_command_lines_parse():
    """Every `chainext ...` line of README's Command line block parses."""
    with open(os.path.join(os.path.dirname(__file__), "..",
                           "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln.split("#", 1)[0].split()[1:] for ln in block.splitlines()
             if ln.startswith("chainext ")]
    assert {argv[0] for argv in lines} == set(cli.COMMANDS)
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv)


@pytest.mark.parametrize("command,text,line", [
    ("brst", "kind: brst\nm: 0\nn: 1\n: 1\n", 4),
    ("cochain", "kind: cochain\ndim: 3\narity: 5\n", 3),
    ("lie", "kind: lie\ndim: -1\n", 2),
    ("bv", "kind: bv\ncap: -1\n", 2),
    ("bv", "kind: bv\ntrunc: -1\n", 2),
], ids=["brst-empty-key", "cochain-arity", "lie-dim", "bv-cap", "bv-trunc"])
def test_malformed_count_exit_code(command, text, line, tmp_path, capsys):
    f = tmp_path / "malformed.txt"
    f.write_text(text)
    if command == "cochain":
        argv = ["lie", "--input", "lie_so3", "--alpha1", str(f)]
    else:
        argv = [command, "--input", str(f)]
    code, out = run(capsys, *argv)
    assert code == 2
    assert "line %d" % line in out


@pytest.mark.parametrize("command,text,line", [
    ("bv", "kind: bv\nfield phi: even 0\nfield C: odd 1\nS0: phi_st C\n"
           "S1: phi_st C\nS01: 0\n", 6),
    ("bv", "kind: bv\nfield phi: even 0\nfield phi_st: odd 1\nS0: 0\n", 3),
    ("lie", "kind: lie\ndim: 3\nc 1 2 3: 1\ndim: 2\n", 4),
    ("brst", "kind: brst\nm: 0\nn: 2\ns 1 2 1: 0\ns 1 2 1: G1\n", 5),
], ids=["bv-S01", "bv-antifield-name", "lie-dim", "brst-zero-structure"])
def test_repeated_key_exit_code(command, text, line, tmp_path, capsys):
    f = tmp_path / "repeated.txt"
    f.write_text(text)
    code, out = run(capsys, command, "--input", str(f))
    assert code == 2
    assert "line %d: duplicate" % line in out


def test_unexpected_exception_exit_code(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "lie", boom)
    code, out = run(capsys, "lie", "--input", "lie_so3")
    assert code == 3
    assert out == "error: RuntimeError: boom\n"


def counting(monkeypatch, module, name, *more):
    """Replace module.name (and each further module.name binding) by a
    wrapper that counts its calls; returns the count list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    for mod in (module,) + more:
        monkeypatch.setattr(mod, name, wrapper, raising=False)
    return calls


def test_brst_verifies_resolution_once(monkeypatch, capsys):
    calls = counting(monkeypatch, brst_mod, "verify_brst_resolution")
    code, out = run(capsys, "brst", "--input", "brst_toy", "--cap", "3")
    assert code == 0
    assert "resolution identities: ok" in out.splitlines()
    assert len(calls) == 1


def test_extend_checks_conditions_once(monkeypatch, capsys):
    calls = counting(monkeypatch, complexes, "check_l2_conditions", cli)
    code, out = run(capsys, "extend", "--input", "extend_split")
    assert code == 0
    assert "conditions: ok" in out.splitlines()
    assert len(calls) == 1


def test_bv_computes_obstruction_once(monkeypatch, capsys):
    calls = counting(monkeypatch, bv_mod, "obstruction_R")
    code, out = run_golden(capsys, "bv", "--input", "bv_two_ghost",
                           "--cap", "3")
    assert code == 0
    assert len(calls) == 1


def validation_counts(monkeypatch):
    """Counters of jacobi_check and ce_differential over the cli, shlie and
    lie bindings."""
    from chainext import lie as lie_mod
    from chainext import shlie as shlie_mod
    return [counting(monkeypatch, lie_mod, name, shlie_mod, cli)
            for name in ("jacobi_check", "ce_differential")]


def test_shlie_validates_the_algebra_once(monkeypatch, capsys):
    counts = validation_counts(monkeypatch)
    code, out = run_golden(capsys, "shlie", "--input", "lie_so3")
    assert code == 0
    assert [len(c) for c in counts] == [1, 1]


@pytest.mark.parametrize("order,two_for_a1a1", [
    (2, 42), (4, 47), (6, 56), (8, 69)])
def test_lie_extends_the_chain_in_one_call(order, two_for_a1a1, monkeypatch,
                                           capsys):
    """h2 builds d1 and d2, extend_deformation builds d2 once more; each
    product alpha_i . alpha_j is composed once, N(N-1)/2 of them up to
    order N, on top of the 40 compositions of h2, [a1,a1] and the order-1
    check.  two_for_a1a1 is the count when [a1,a1] took two compositions;
    it takes one, since [a1,a1] = 2 a1.a1."""
    from chainext import lie as lie_mod
    matrices = counting(monkeypatch, lie_mod, "differential_matrix")
    composed = counting(monkeypatch, lie_mod, "nr_compose", cli)
    calls = counting(monkeypatch, lie_mod, "extend_deformation", cli)
    code, out = run(capsys, "lie", "--input", "lie_heisenberg", "--alpha1",
                    "cochain_heisenberg_a121", "--order", str(order))
    assert code == 0
    assert "order %d: extended" % order in out.splitlines()
    assert len(matrices) == 3
    assert len(composed) <= two_for_a1a1 - 1
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("lie", "--input", "lie_sl2"),
    ("lie", "--input", "lie_heisenberg"),
    ("lie", "--input", "lie_abelian3", "--alpha1",
     "cochain_obstructed_alpha1"),
])
def test_lie_decides_jacobi_once(argv, monkeypatch, capsys):
    """h2 decides Jacobi; cmd_lie does not decide it a second time."""
    from chainext import lie as lie_mod
    calls = counting(monkeypatch, lie_mod, "jacobi_check", cli)
    code, out = run_golden(capsys, *argv)
    assert code == 0
    assert "jacobi: ok" in out.splitlines()
    assert len(calls) == 1


def test_lie_jacobi_failure_decided_once(tmp_path, monkeypatch, capsys):
    from chainext import lie as lie_mod
    calls = counting(monkeypatch, lie_mod, "jacobi_check", cli)
    f = tmp_path / "notlie.txt"
    f.write_text("kind: lie\ndim: 3\nc 1 2 2: 1\nc 1 3 3: 1\n"
                 "c 2 3 1: 1\nc 2 3 2: 5\n")
    code, out = run(capsys, "lie", "--input", str(f))
    assert (code, out) == (1, "command: lie\ndim: 3\njacobi: failed\n")
    assert len(calls) == 1


def test_brst_failed_resolution_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(brst_mod, "verify_brst_resolution",
                        lambda sys_, cap: {"ok": False,
                                           "first_failure": ("stub", ())})
    code, out = run(capsys, "brst", "--input", "brst_toy", "--cap", "3")
    assert code == 1
    assert "build: error: resolution data fails verification" in out


STUB = ("stub", (0, 1))


def failing_in_t2(real, failed):
    """real, with its report updated by `failed` in the t2 variant."""
    def verifier(S):
        rep = real(S)
        return dict(rep, **failed) if S.variant == "t2" else rep
    return verifier


# (golden argv, module, name, replacement of module.name given the original,
#  {report key: its value when that check fails}, key the report stops at)
FAILED_CHECKS = [
    ("shlie --input lie_so3", cli, "verify_shlie",
     lambda real: failing_in_t2(real, {"ok": False, "first_failure": STUB}),
     {"variant t2 relations": "failed at %s" % (STUB,)}, None),
    ("shlie --input lie_so3", cli, "l3_is_obstruction",
     lambda real: lambda S: False,
     {"variant full l3 is obstruction": "False",
      "variant t2 l3 is obstruction": "False"}, None),
    ("shlie --input lie_sl2 --cross-check", cli, "crosscheck_with_engine",
     lambda real: failing_in_t2(real, {"ok": False}),
     {"variant t2 engine cross-check": "False"}, None),
    ("shlie --input lie_so3", cli, "variants_agree",
     lambda real: lambda s_full, s_t2: False,
     {"variants agree": "False"}, None),
    ("brst --input brst_toy --cap 3", brst_mod, "check_nilpotent_on_basis",
     lambda real: lambda ext, cap: "x1",
     {"(delta+l2+l3)^2 on basis": "failed at x1"}, None),
    ("bv --input bv_two_ghost --cap 3", bv_mod, "verify_theorem8",
     lambda real: lambda maps, maxdeg: dict(real(maps, maxdeg), ok=False,
                                            first_failure=STUB),
     {"extension checks": "failed at %s" % (STUB,)}, None),
    ("bv --input bv_two_pair --cap 4 --cross-check", bv_mod,
     "engine_matrices_match", lambda real: lambda maps, cap: False,
     {"engine cross-check": "False"}, None),
    # the homology of an l that is not nilpotent is not reported
    ("extend --input extend_split", cli, "verify_nilpotent",
     lambda real: lambda ext: dict(real(ext), ok=False),
     {"nilpotent": "failed"}, "nilpotent"),
    # a dimension is never negative, so -1 matches no total
    ("extend --input extend_split", cli, "homology_dim_of_differential",
     lambda real: lambda d: -1,
     {"homology dim (base)": "-1", "homology match": "False"}, None),
]


@pytest.mark.parametrize("argv,module,name,replace,changed,last",
                         FAILED_CHECKS,
                         ids=["%s:%s" % (c[0].split()[0], c[2])
                              for c in FAILED_CHECKS])
def test_failed_check_exit_code(argv, module, name, replace, changed, last,
                                monkeypatch, capsys):
    """Exit 1 on each failed check of a command: with the check's verifier
    made to fail, the report is the passing golden report with the failed
    lines changed, and it ends at `last` when that is given."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)[argv]
    assert golden["code"] == 0
    want = []
    for line in golden["stdout"].splitlines():
        key, _, value = line.partition(": ")
        want.append("%s: %s" % (key, changed.get(key, value)))
        if key == last:
            break
    assert want != golden["stdout"].splitlines()
    monkeypatch.setattr(module, name, replace(getattr(module, name)))
    code, out = run(capsys, *argv.split())
    assert code == 1
    assert out.splitlines() == want


def test_no_input_flag_exit_code(capsys):
    code, out = run(capsys, "lie")
    assert (code, out) == (2, "error: no input file given\n")


def test_extend_unknown_matrix_exit_code(tmp_path, capsys):
    f = tmp_path / "foo.txt"
    f.write_text("kind: extend\ndims: 1\nf_dim: 1\nmatrix foo: 1 1\n0\n")
    code, out = run(capsys, "extend", "--input", str(f))
    assert (code, out) == (2, "error: line 4: unknown matrix 'foo'\n")


def test_extend_without_f_dim_exit_code(tmp_path, capsys):
    f = tmp_path / "no_f_dim.txt"
    f.write_text("kind: extend\ndims: 1\n")
    code, out = run(capsys, "extend", "--input", str(f))
    assert (code, out) == (2, "error: line 1: missing dims or f_dim\n")


def test_shlie_jacobi_failure(tmp_path, capsys):
    """shlie on test_lie_jacobi_failure's bracket: build_shlie refuses it."""
    f = tmp_path / "notlie.txt"
    f.write_text("kind: lie\ndim: 3\nc 1 2 2: 1\nc 1 3 3: 1\n"
                 "c 2 3 1: 1\nc 2 3 2: 5\n")
    code, out = run(capsys, "shlie", "--input", str(f))
    assert (code, out) == (1, "command: shlie\ntrunc: 4\nbuild: error: the "
                              "bracket fails the Jacobi identity\n")


def test_missing_input_exit_code(capsys):
    code, out = run(capsys, "lie", "--input", "no_such_model_anywhere")
    assert code == 2
    assert "no such input" in out


def test_wrong_kind_exit_code(capsys):
    code, out = run_golden(capsys, "lie", "--input", "brst_so3")
    assert code == 2


def test_byte_determinism(capsys):
    runs = [run_golden(capsys, "shlie", "--input", "lie_heisenberg",
                       "--format", "structured") for _ in range(2)]
    assert runs[0] == runs[1]
    report = json.loads(runs[0][1])
    assert report["variants agree"] is True
    assert list(report) == sorted(report)


def test_bundled_name_with_extension(capsys):
    code1, out1 = run_golden(capsys, "lie", "--input", "lie_aff1")
    code2, out2 = run_golden(capsys, "lie", "--input", "lie_aff1.txt")
    assert (code1, out1) == (code2, out2)
    assert "H2 dim: 0" in out1.splitlines()


def test_shlie_cross_check_validates_the_algebra_once(monkeypatch, capsys):
    """Both variants and their engine cross-checks share one validation."""
    counts = validation_counts(monkeypatch)
    code, out = run_golden(capsys, "shlie", "--input", "lie_abelian3",
                           "--alpha1", "cochain_obstructed_alpha1",
                           "--cross-check")
    assert code == 0
    assert [len(c) for c in counts] == [1, 1]


SHLIE_JOBS = [("shlie", "--input", "lie_so3"),
              ("shlie", "--input", "lie_abelian3", "--alpha1",
               "cochain_obstructed_alpha1")]


@pytest.mark.parametrize("argv", SHLIE_JOBS)
def test_shlie_composes_alpha1_once_per_job(argv, monkeypatch, capsys):
    """Five compositions: jacobi_check one, ce_differential's [alpha0,alpha1]
    two, l3's alpha1.alpha1 one for both variants, and one fresh one in
    l3_is_obstruction, whose verdict serves both variants."""
    from chainext import lie as lie_mod
    from chainext import shlie as shlie_mod
    composed = counting(monkeypatch, lie_mod, "nr_compose", shlie_mod)
    code, out = run(capsys, *argv)
    assert code == 0
    assert len(composed) == 5


@pytest.mark.parametrize("argv", SHLIE_JOBS)
def test_shlie_builds_its_operators_once(argv, monkeypatch, capsys):
    """Each variant builds its l2 and l3 operators once, not once per
    l2_00/l2_10/l3_000 call."""
    from chainext import shlie as shlie_mod
    built = counting(monkeypatch, shlie_mod, "TLinear")
    code, out = run(capsys, *argv)
    assert code == 0
    assert len(built) == 4


def test_brst_builds_the_basis_once(monkeypatch, capsys):
    calls = counting(monkeypatch, brst_mod, "monomial_basis")
    code, out = run_golden(capsys, "brst", "--input", "brst_toy", "--cap", "3")
    assert code == 0
    assert "(delta+l2+l3)^2 on basis: ok" in out.splitlines()
    assert len(calls) == 1


def test_shlie_zero_dimensional_algebra_is_vacuous(tmp_path, capsys):
    f = tmp_path / "zero.txt"
    f.write_text("kind: lie\ndim: 0\n")
    code, out = run(capsys, "shlie", "--input", str(f))
    assert code == 0
    lines = out.splitlines()
    assert "variant t2 relations: vacuous" in lines
    assert "variant full relations: vacuous" in lines
    assert not any(line.endswith("relations: ok") for line in lines)


@pytest.mark.parametrize("argv,most", [
    ("bv --input bv_two_ghost --cross-check", 3),
    ("shlie --input lie_so3 --cross-check", 6),
    ("brst --input brst_so3 --cap 5", 6)])
def test_cross_checks_build_each_basis_once(argv, most, monkeypatch, capsys):
    """bv builds X_0, X_1 and F once per job; shlie builds them once per
    variant (the parent commit built 5 and 14).  brst builds one named basis
    per antighost group, the empty basis past the top group and eta's
    constraint-free basis once per job (the parent commit built 32), and
    prints the report that perfbench/expected.json records."""
    built = []
    original = Basis.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)
    monkeypatch.setattr(Basis, "__init__", init)
    code, out = run(capsys, *argv.split())
    if argv.startswith("brst"):
        with open(EXPECTED) as fh:
            want = json.load(fh)["jobs"][argv]
        assert (code, out) == (want["exit"], want["stdout"])
    else:
        assert code == 0 and "cross-check: True" in out
    assert len(built) <= most
