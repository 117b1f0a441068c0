import os

import pytest

from chainext import formats
from chainext.brst import (ConstraintSystem, constraint_algebra,
                           export_to_complexes)
from chainext.bv import DeformationProblem, obstruction_R
from chainext.complexes import verify_homotopy
from chainext.exactla import RatMatrix, rat
from chainext.formats import (
    FormatError, _data_lines, dump_extend, format_poly, load_brst, load_bv,
    load_cochain, load_extend, load_lie, parse_poly, read_kind,
)
from chainext.lie import Cochain, LieAlgebra, jacobi_check
from chainext.shlie import build_shlie
from chainext.shlie import to_homotopy_data as shlie_homotopy_data
from chainext.superalg import SuperPoly, mul

from bundled import brst_system
from references import cochain_value

MODELS = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                      "models")
PERFBENCH_INPUTS = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                "inputs")


def read_model(name):
    with open(os.path.join(MODELS, name)) as fh:
        return fh.read()


def test_read_kind():
    assert read_kind("# c\n\nkind: lie\ndim: 1\n") == "lie"
    with pytest.raises(FormatError):
        read_kind("# nothing\n")
    with pytest.raises(FormatError):
        read_kind("dim: 3\n")


def test_load_lie_so3_matches_fixture():
    alg = load_lie(read_model("lie_so3.txt"))
    want = LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0],
                          (0, 2): [0, -1, 0]})
    assert alg.alpha0 == want.alpha0
    assert jacobi_check(alg)


def test_load_lie_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        load_lie("kind: lie\ndim: 2\nc 2 1 1: 1\n")
    assert e.value.line == 3
    with pytest.raises(FormatError):
        load_lie("kind: lie\ndim: 2\nc 1 2 1: 1\nc 1 2 1: 2\n")  # duplicate
    with pytest.raises(FormatError):
        load_lie("kind: lie\ndim: 2\nc 1 2 1: nonsense\n")
    with pytest.raises(FormatError):
        load_lie("kind: lie\nc 1 2 1: 1\ndim: 2\n")  # entries before dim
    with pytest.raises(FormatError):
        load_lie("kind: lie\ndim: 2\nwhatever: 3\n")
    with pytest.raises(FormatError):
        load_lie("kind: lie\n")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(MODELS) if n.startswith("lie_")))
def test_lie_file_is_the_2_cochain_file_of_its_bracket(name):
    """A lie file respelt as a cochain file (kind cochain, arity 2, letter a)
    loads to the bracket of the lie file."""
    text = read_model(name)
    respelt = "\n".join(
        "kind: cochain\narity: 2" if line.startswith("kind:")
        else "a" + line[1:] if line.startswith("c ") else line
        for line in text.splitlines())
    alpha0 = load_lie(text).alpha0
    ch = load_cochain(respelt)
    assert (ch.dim, ch.arity, ch.entries) == \
        (alpha0.dim, 2, alpha0.entries)


@pytest.mark.parametrize("loader, text, line", [
    (load_lie, "# a comment\nkind: brst\nm: 0\nn: 1\n", 2),
    (load_cochain, "kind: lie\ndim: 1\n", 1),
    (load_brst, "\n\nkind: bv\n", 3),
    (load_bv, "kind: extend\n", 1),
    (load_extend, "kind: cochain\n", 1),
], ids=["lie", "cochain", "brst", "bv", "extend"])
def test_each_loader_checks_the_kind_line(loader, text, line):
    with pytest.raises(FormatError, match="line %d: expected a '" % line):
        loader(text)
    with pytest.raises(FormatError, match="line 1: first line must be"):
        loader("dim: 1\n" + text)
    with pytest.raises(FormatError, match="line 1: empty file"):
        loader("# nothing\n")


def test_load_cochain():
    ch = load_cochain(read_model("cochain_obstructed_alpha1.txt"))
    assert ch.dim == 3 and ch.arity == 2
    assert cochain_value(ch, (0, 1)) == [0, 0, 1]
    assert cochain_value(ch, (0, 2)) == [1, 0, 0]
    with pytest.raises(FormatError):
        load_cochain("kind: cochain\ndim: 2\narity: 2\na 2 1 1: 1\n")
    with pytest.raises(FormatError):
        load_cochain("kind: cochain\ndim: 2\narity: 2\na 1 1: 1\n")


def test_poly_literals():
    alg = brst_system("brst_toy").alg
    for text in ("0", "x1", "1/2 x1 x1", "x1 G1 + 3", "- eta1 eta2 + P1",
                 "-2/3 x1 - G2"):
        p = parse_poly(1, text, alg)
        assert parse_poly(1, format_poly(p), alg) == p
    assert parse_poly(1, "0", alg).is_zero()
    with pytest.raises(FormatError):
        parse_poly(1, "x1 1/2", alg)  # coefficient not first
    with pytest.raises(FormatError):
        parse_poly(1, "bogus", alg)
    with pytest.raises(FormatError):
        parse_poly(1, "x1 +", alg)


def shipped_brst_literals():
    """{file: (m, n, poisson table, structure)} of brst_so3 and brst_toy,
    written out: so3 closes as angular momenta with constant structure
    constants; toy has [G1,G2] = x1 G1 and [x1,G2] = 1."""
    so3 = constraint_algebra(0, 3)
    G1, G2, G3 = (SuperPoly.gen(so3, g) for g in ("G1", "G2", "G3"))
    zero, one = SuperPoly.zero(so3), SuperPoly.const(so3, 1)
    toy = constraint_algebra(1, 2)
    x1, toy_G1 = SuperPoly.gen(toy, "x1"), SuperPoly.gen(toy, "G1")
    return {
        "brst_so3.txt": (0, 3, {("G1", "G2"): G3, ("G2", "G3"): G1,
                                ("G1", "G3"): G2.scale(-1)},
                         {(0, 1): [zero, zero, one],
                          (1, 2): [one, zero, zero],
                          (0, 2): [zero, one.scale(-1), zero]}),
        "brst_toy.txt": (1, 2, {("G1", "G2"): mul(x1, toy_G1),
                                ("x1", "G2"): SuperPoly.const(toy, 1)},
                         {(0, 1): [x1, SuperPoly.zero(toy)]}),
    }


def test_load_brst_matches_shipped_systems():
    for name, want in shipped_brst_literals().items():
        assert load_brst(read_model(name)) == want
        ConstraintSystem(*want)   # first class
    m, n, table, structure = load_brst(read_model("brst_abelian.txt"))
    assert (m, n) == (0, 2) and not table and not structure


def test_brst_examples_build_one_constraint_system(monkeypatch):
    """load_brst takes its generator algebra from constraint_algebra, not
    from a throwaway ConstraintSystem, so a bundled system builds one."""
    built = []
    real = ConstraintSystem.__init__

    def counted(self, *args):
        built.append(args[:2])
        real(self, *args)
    monkeypatch.setattr(ConstraintSystem, "__init__", counted)
    assert brst_system("brst_so3").alg == constraint_algebra(0, 3)
    assert brst_system("brst_toy").alg == constraint_algebra(1, 2)
    load_brst(read_model("brst_so3.txt"))
    assert built == [(0, 3), (1, 2)]


def test_load_brst_errors():
    with pytest.raises(FormatError):
        load_brst("kind: brst\nm: 0\nn: 2\np G1 G2: 1\np G2 G1: 1\n")
    with pytest.raises(FormatError):
        load_brst("kind: brst\nm: 0\nn: 2\ns 2 1 1: 1\n")
    with pytest.raises(FormatError):
        load_brst("kind: brst\nn: 2\n")
    with pytest.raises(FormatError):
        load_brst("kind: brst\nm: 0\nn: 2\np G1 G9: 1\n")
    # an entry needs the algebra of m and n, so they come first, as dim
    # does in a lie file
    for text, line in (("kind: brst\np G1 G2: 0\nm: 0\nn: 2\n", 2),
                       ("kind: brst\nm: 0\ns 1 2 1: 0\nn: 2\n", 3)):
        with pytest.raises(FormatError,
                           match="^line %d: m and n must come first$" % line):
            load_brst(text)
    # what ConstraintSystem would refuse is refused at its line
    for line, message in (("p x1 eta1: 1", "poisson table only covers even"),
                          ("p P1 G1: 0", "poisson table only covers even"),
                          ("s 1 2 1: x1 P2", "structure functions must be "
                                             "polynomials in"),
                          ("p G1 G1: 1", "bracket of a generator with itself"),
                          ("p x1 x1: G2", "bracket of a generator with itself")):
        with pytest.raises(FormatError, match="line 5: " + message):
            load_brst("kind: brst\nm: 1\nn: 2\n\n%s\n" % line)
    m, n, table, _ = load_brst("kind: brst\nm: 1\nn: 2\np G1 G1: 0\n")
    assert table[("G1", "G1")].is_zero()
    ConstraintSystem(m, n, table, {})


def test_load_bv():
    model, S, trunc = load_bv(read_model("bv_two_pair.txt"))
    assert trunc == 2 and S[1] == "auto"
    assert model.pairs == [("phi", "phi_st"), ("C", "C_st")]
    model2, S2, _ = load_bv(read_model("bv_two_ghost.txt"))
    gen = model2.gen
    s0 = mul(gen("phi1_st"), gen("C1")) + mul(gen("phi2_st"), gen("C2"))
    s1 = mul(mul(gen("phi1_st"), gen("C2")), gen("phi2")) + \
        mul(mul(gen("phi2_st"), gen("C1")), gen("phi1"))
    assert S2 == [s0, s1]
    q = DeformationProblem(model2, S2, trunc=2)
    # R_2 = (S_1, S_1) = -2 phi1 C1 C2 phi1* + 2 phi2 C1 C2 phi2*
    r2 = mul(mul(mul(gen("phi1"), gen("C1")), gen("C2")),
             gen("phi1_st")).scale(-2) + \
        mul(mul(mul(gen("phi2"), gen("C1")), gen("C2")),
            gen("phi2_st")).scale(2)
    assert obstruction_R(q, 2) == r2 and not r2.is_zero()
    with pytest.raises(FormatError):
        load_bv("kind: bv\nfield phi: even 0\nS0: auto\n")
    with pytest.raises(FormatError):
        load_bv("kind: bv\nfield phi: even zero\nS0: phi\n")
    with pytest.raises(FormatError):
        load_bv("kind: bv\nfield phi: even 0\nS0: phi\nS2: phi\n")
    with pytest.raises(FormatError):
        load_bv("kind: bv\nS0: 0\n")


def test_extend_round_trip():
    for name in ("extend_split.txt", "extend_medium.txt"):
        text = read_model(name)
        hd, l2_0, d_f = load_extend(text)
        assert verify_homotopy(hd)["ok"]
        again = dump_extend(hd, l2_0, d_f)
        hd2, l2b, dfb = load_extend(again)
        assert dump_extend(hd2, l2b, dfb) == again


@pytest.mark.parametrize("model, cap, frozen", [
    ("brst_toy", 4, "extend_brst_toy_cap4.txt"),
    ("brst_abelian", 3, "extend_brst_abelian2_cap3.txt"),
])
def test_frozen_bench_inputs_are_the_bundled_brst_exports(model, cap, frozen):
    """The engine files in perfbench/inputs/ are dump_extend of the bundled
    system's export at its cap, with d_f = eta l2_0 lam, byte for byte."""
    hd, l2_0, _ = export_to_complexes(brst_system(model), cap)
    with open(os.path.join(PERFBENCH_INPUTS, frozen)) as fh:
        assert fh.read() == dump_extend(hd, l2_0, hd.eta @ l2_0 @ hd.lam)


def test_extend_round_trip_shlie_exports():
    # so3 at N = 4: the full variant has f_dim 0, so lam is 15 x 0 and eta
    # is 0 x 15; the t2 variant keeps F = A + A t (f_dim 6)
    alg = load_lie(read_model("lie_so3.txt"))
    for variant, f_dim in (("full", 0), ("t2", 6)):
        S = build_shlie(alg, Cochain.zero(3, 2), N=4,
                        variant=variant)
        hd, _, _ = shlie_homotopy_data(S)
        assert hd.f_dim == f_dim
        n0 = hd.space.dim(0)
        l2_0 = RatMatrix([[(i + 2 * j) % 3 for j in range(n0)]
                          for i in range(n0)])
        d_f = RatMatrix.zeros(f_dim, f_dim)
        text = dump_extend(hd, l2_0, d_f)
        hd2, l2b, dfb = load_extend(text)
        assert hd2.space == hd.space and hd2.f_dim == f_dim
        assert (hd2.eta, hd2.lam, l2b, dfb) == (hd.eta, hd.lam, l2_0, d_f)
        assert hd2.l1.block(1) == hd.l1.block(1)
        assert hd2.s.block(0) == hd.s.block(0)
        assert dump_extend(hd2, l2b, dfb) == text


def test_extend_zero_column_block_has_no_row_lines():
    text = dump_extend(*load_extend(
        "kind: extend\ndims: 2\nf_dim: 0\nmatrix eta: 0 2\n"
        "matrix lam: 2 0\nmatrix l2_0: 2 2\n0 0\n0 0\n"))
    assert "matrix lam: 2 0\nmatrix l2_0: 2 2\n" in text
    hd, l2_0, _ = load_extend(text)
    assert hd.lam.shape == (2, 0) and hd.eta.shape == (0, 2)


def test_extend_errors():
    with pytest.raises(FormatError):
        load_extend("kind: extend\ndims: 2 1\nf_dim: 1\n"
                    "matrix l1 1: 2 1\n1\n")  # truncated rows
    with pytest.raises(FormatError):
        load_extend("kind: extend\ndims: 2 1\nf_dim: 1\n"
                    "matrix l1 1: 1 2\n1\n")  # wrong entry count
    with pytest.raises(FormatError):
        load_extend("kind: extend\ndims: 2 1\nf_dim: 1\n"
                    "matrix eta: 1 2\n1 0\nmatrix eta: 1 2\n1 0\n")
    with pytest.raises(FormatError):
        load_extend("kind: extend\ndims: 2 1\nf_dim: 1\n")  # missing blocks
    for bad in ("dims: 2 -1\nf_dim: 1\n", "dims: 2 1\nf_dim: -1\n",
                "dims: 2 1\nf_dim: 1\nmatrix l1 1: -2 1\n"):
        with pytest.raises(FormatError, match="nonnegative"):
            load_extend("kind: extend\n" + bad)


def test_rationals_round_trip_in_dump():
    mat = RatMatrix([[rat("1/3"), rat("-7/2")]])
    header = "kind: extend\ndims: 2 1\nf_dim: 1\n"
    body = ("matrix l1 1: 2 1\n0\n0\nmatrix eta: 1 2\n1/3 -7/2\n"
            "matrix lam: 2 1\n3\n0\nmatrix s 0: 1 2\n0 0\n"
            "matrix l2_0: 2 2\n0 0\n0 0\n")
    hd, l2_0, d_f = load_extend(header + body)
    assert hd.eta == mat
    assert d_f is None


FROZEN = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs")


def blocks_by_rat(text):
    """Every matrix block of an extend file, each cell parsed by rat()."""
    lines = _data_lines(text)
    out = {}
    pos = 1
    while pos < len(lines):
        key, value = lines[pos][1].split(":", 1)
        pos += 1
        if key.startswith("matrix"):
            nrows, ncols = (int(x) for x in value.split())
            n = nrows if ncols else 0
            rows = [[rat(c) for c in line.split()]
                    for _, line in lines[pos:pos + n]]
            out[key.split(None, 1)[1]] = RatMatrix(rows if ncols
                                                   else [[]] * nrows,
                                                   ncols=ncols)
            pos += n
    return out


def loaded_blocks(text):
    hd, l2_0, d_f = load_extend(text)
    out = {"eta": hd.eta, "lam": hd.lam, "l2_0": l2_0}
    top = hd.space.top
    out.update(("l1 %d" % k, hd.l1.block(k)) for k in range(1, top + 1))
    out.update(("s %d" % k, hd.s.block(k)) for k in range(top))
    if d_f is not None:
        out["d_f"] = d_f
    return out


ZERO_CELLS = ("kind: extend\ndims: 2 1\nf_dim: 1\n"
              "matrix l1 1: 2 1\n-0\n0/1\nmatrix eta: 1 2\n1/2 0\n"
              "matrix lam: 2 1\n00\n-3\nmatrix s 0: 1 2\n0 -2/4\n"
              "matrix l2_0: 2 2\n0 0\n0 0\n")


@pytest.mark.parametrize("path", [
    os.path.join(FROZEN, "extend_brst_toy_cap4.txt"),
    os.path.join(FROZEN, "extend_brst_abelian2_cap3.txt"),
    os.path.join(MODELS, "extend_medium.txt"),
    os.path.join(MODELS, "extend_split.txt"),
    None,
], ids=["frozen-toy", "frozen-abelian2", "medium", "split", "zero-cells"])
def test_zero_cells_load_as_the_rat_reference(path, monkeypatch):
    """A cell that is exactly "0" skips _rat; every other cell ("-0", "0/1",
    "00", ...) takes it, and the matrices equal a rat()-everywhere parse."""
    if path is None:
        text = ZERO_CELLS
    else:
        with open(path) as fh:
            text = fh.read()
    want = blocks_by_rat(text)
    parsed = []
    real = formats._rat
    monkeypatch.setattr(formats, "_rat",
                        lambda ln, c: parsed.append(c) or real(ln, c))
    assert loaded_blocks(text) == want
    cells = [c for _, line in _data_lines(text) if ":" not in line
             for c in line.split()]
    assert parsed == [c for c in cells if c != "0"]


@pytest.mark.parametrize("cell", ["0x", "x0", "0/0", "--0", "0 0", "0.5",
                                  "1e3"])
def test_malformed_zero_like_cells_are_format_errors(cell):
    text = ZERO_CELLS.replace("00\n", cell + "\n")
    with pytest.raises(FormatError,
                       match="line 10: (bad rational|expected 1 entries)"):
        load_extend(text)


LOADERS = {"lie": load_lie, "cochain": load_cochain, "brst": load_brst,
           "bv": load_bv, "extend": load_extend}


def mutants(text):
    """Each data line replaced by ':' or 'x'; on a 'key: value' line also the
    value replaced by -1, q or 1/0, and the key emptied."""
    raw = text.splitlines()
    for lineno, line in _data_lines(text):
        subs = [":", "x"]
        if ":" in line:
            key, value = line.split(":", 1)
            subs += ["%s: %s" % (key, v) for v in ("-1", "q", "1/0")]
            subs.append(":" + value)
        for sub in subs:
            yield lineno, "\n".join(raw[:lineno - 1] + [sub] + raw[lineno:])


def test_mutated_bundled_models_raise_only_format_errors():
    cases = 0
    for name in sorted(os.listdir(MODELS)):
        text = read_model(name)
        loader = LOADERS[read_kind(text)]
        for lineno, mutant in mutants(text):
            cases += 1
            try:
                read_kind(mutant)
                loader(mutant)
            except FormatError:
                pass
            except Exception as e:
                pytest.fail("%s, line %d mutated: %s: %s"
                            % (name, lineno, type(e).__name__, e))
    # lie_sl3 adds 24 'key: value' lines (kind, dim, 22 brackets), six
    # mutants each
    assert cases == 678 + 24 * 6


def test_repeated_bundled_model_lines_raise_format_errors():
    """Each data line repeated right after itself is rejected: a 'key: value'
    line at the repeat, a matrix row where the block ends."""
    for name in sorted(os.listdir(MODELS)):
        text = read_model(name)
        loader = LOADERS[read_kind(text)]
        raw = text.splitlines()
        for lineno, line in _data_lines(text):
            twice = "\n".join(raw[:lineno] + [line] + raw[lineno:])
            with pytest.raises(FormatError) as e:
                loader(twice)
            if ":" in line:
                assert e.value.line == lineno + 1, (name, line)
