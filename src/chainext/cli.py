"""Command-line entry point: deterministic reports over the bundled or
user-supplied model files.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
parse error, 3 an unexpected exception.  Identical configuration yields
byte-identical output; the structured format is JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random

from . import brst as brst_mod
from . import bv as bv_mod
from . import formats
from .complexes import (ExtensionPreconditionError, chain_extend,
                        homology_dim_of_differential, total_homology_dims,
                        verify_homotopy, verify_nilpotent)
from .instances import random_split_instance
from .lie import (Cochain, DeformationPreconditionError, JacobiError,
                  extend_deformation, h2, nr_compose)
from .shlie import (build_shlie, crosscheck_with_engine, l3_is_obstruction,
                    variants_agree, verify_shlie)

MODELS_DIR = os.path.join(os.path.dirname(__file__), "models")

PASS, MATH_FAIL, INPUT_ERROR, UNEXPECTED = 0, 1, 2, 3


def resolve_input(name):
    """A literal path, or the name of a bundled model file."""
    if name is None:
        raise formats.FormatError(0, "no input file given")
    if os.path.isfile(name):
        return name
    for candidate in (os.path.join(MODELS_DIR, name),
                      os.path.join(MODELS_DIR, name + ".txt")):
        if os.path.isfile(candidate):
            return candidate
    raise formats.FormatError(0, "no such input: %s" % name)


def read_input(name):
    with open(resolve_input(name)) as fh:
        return fh.read()


def _alpha1(config, alg):
    """The --alpha1 2-cochain on alg's space; zero when it is not given."""
    if config.alpha1 is None:
        return Cochain.zero(alg.dim, 2)
    a1 = formats.load_cochain(read_input(config.alpha1))
    if a1.dim != alg.dim or a1.arity != 2:
        raise formats.FormatError(0, "alpha1 must be a 2-cochain on the "
                                     "same space")
    return a1


def format_cochain(ch: Cochain) -> str:
    bits = []
    for idx in sorted(ch.entries):
        for k, c in sorted(ch.entries[idx].items()):
            bits.append("a %s %d: %s"
                        % (" ".join(str(i + 1) for i in idx), k + 1, c))
    return "; ".join(bits) if bits else "0"


# -- commands ---------------------------------------------------------------------


def cmd_lie(config):
    alg = formats.load_lie(read_input(config.input))
    a1 = _alpha1(config, alg)
    report = {"command": "lie", "dim": alg.dim}
    try:
        dim_h2, reps = h2(alg)
    except JacobiError:
        report["jacobi"] = "failed"
        return report, MATH_FAIL
    report["jacobi"] = "ok"
    report["H2 dim"] = dim_h2
    for i, rep in enumerate(reps, start=1):
        report["H2 rep %d" % i] = format_cochain(rep)
    if config.alpha1 is not None:
        # [a1,a1] = 2 a1.a1, so one composition decides it
        report["obstruction [a1,a1]"] = \
            "zero" if nr_compose(a1, a1).is_zero() else "nonzero"
        if config.order >= 2:   # below order 2 alpha1 goes unchecked
            try:
                extended = extend_deformation(alg, [a1], config.order)
            except DeformationPreconditionError as e:
                report["order 2"] = "error: %s" % e
                return report, MATH_FAIL
            # orders 2..top-1 extended; top, when asked for, is obstructed
            top = len(extended) + 2
            for order in range(2, min(top, config.order) + 1):
                report["order %d" % order] = \
                    "extended" if order < top else "obstructed"
    return report, PASS


def cmd_shlie(config):
    if config.trunc < 3:
        # a usage error, not a failed check: l3's t^2 terms need t^3 room
        raise formats.FormatError(0, "--trunc must be at least 3 for shlie, "
                                     "got %d" % config.trunc)
    alg = formats.load_lie(read_input(config.input))
    a1 = _alpha1(config, alg)
    report = {"command": "shlie", "trunc": config.trunc}
    code = PASS
    try:
        t2 = build_shlie(alg, a1, N=config.trunc, variant="t2")
        built = {"t2": t2, "full": t2.as_variant("full")}
    except ValueError as e:
        report["build"] = "error: %s" % e
        return report, MATH_FAIL
    # l3_000 does not read the variant, so one verdict serves both
    obstruction = l3_is_obstruction(t2)
    for v, S in sorted(built.items()):
        rep = verify_shlie(S)
        if not rep["ok"]:
            verdict = "failed at %s" % (rep["first_failure"],)
        else:
            verdict = "ok" if rep["tuples"] else "vacuous"
        report["variant %s relations" % v] = verdict
        report["variant %s l3 is obstruction" % v] = obstruction
        if not rep["ok"] or not obstruction:
            code = MATH_FAIL
        if config.cross_check:
            cc = crosscheck_with_engine(S)
            report["variant %s engine cross-check" % v] = cc["ok"]
            if not cc["ok"]:
                code = MATH_FAIL
    agree = variants_agree(built["full"], built["t2"])
    report["variants agree"] = agree
    if not agree:
        code = MATH_FAIL
    return report, code


def cmd_brst(config):
    m, n, table, structure = formats.load_brst(read_input(config.input))
    report = {"command": "brst", "m": m, "n": n, "cap": config.cap}
    try:
        system = brst_mod.ConstraintSystem(m, n, table, structure)
    except ValueError as e:
        report["first-class closure"] = "error: %s" % e
        return report, MATH_FAIL
    code = PASS
    try:
        ext = brst_mod.build_brst(system, degree_cap=config.cap)
    except ValueError as e:
        report["build"] = "error: %s" % e
        return report, MATH_FAIL
    # build_brst verifies the resolution identities before it returns
    report["resolution identities"] = "ok"
    for a in range(1, n + 1):
        report["l2(P%d)" % a] = repr(ext.l2(system.gen("P%d" % a)))
    l3_vals = {a: ext.l3(system.gen("G%d" % a)) for a in range(1, n + 1)}
    report["l3 vanishes"] = all(v.is_zero() for v in l3_vals.values())
    for a, v in sorted(l3_vals.items()):
        if not v.is_zero():
            report["l3(G%d)" % a] = repr(v)
    offender = brst_mod.check_nilpotent_on_basis(ext, config.cap)
    report["(delta+l2+l3)^2 on basis"] = \
        "ok" if offender is None else "failed at %s" % (offender,)
    if offender is not None:
        code = MATH_FAIL
    return report, code


def cmd_bv(config):
    model, S_terms, file_trunc = formats.load_bv(read_input(config.input))
    if config.cross_check:
        try:
            bv_mod.check_s0_degree(S_terms[0])
        except bv_mod.S0DegreeError as e:
            raise formats.FormatError(0, "--cross-check: %s" % e)
    # a given --trunc or --cap (None when not given) is checked against the
    # file, not overridden or clamped
    trunc, cap = config.trunc, config.cap
    if file_trunc is not None:
        if trunc is not None:
            raise formats.FormatError(0, "--trunc %d given, but the file "
                                      "sets trunc: %d" % (trunc, file_trunc))
        trunc = file_trunc
    elif trunc is None:
        trunc = FLAGS["--trunc"]["default"]
    if cap is None:
        cap = min(FLAGS["--cap"]["default"], model.cap)
    elif cap > model.cap:
        raise formats.FormatError(0, "--cap %d exceeds the file's cap: %d"
                                  % (cap, model.cap))
    report = {"command": "bv", "order": len(S_terms) - 1, "trunc": trunc}
    code = PASS
    try:
        S = []
        for i, term in enumerate(S_terms):
            if term == "auto":
                term = bv_mod.auto_term(model, S[0], i)
                report["S%d (searched)" % i] = formats.format_poly(term)
            S.append(term)
        problem = bv_mod.DeformationProblem(model, S, trunc=trunc)
        maps = bv_mod.theorem8_maps(problem)
    except ValueError as e:
        report["setup"] = "error: %s" % e
        return report, MATH_FAIL
    rep = bv_mod.verify_theorem8(maps, maxdeg=cap)
    report["obstruction R"] = formats.format_poly(rep["obstruction_R"])
    report["extension checks"] = "ok" if rep["ok"] else \
        "failed at %s" % (rep["first_failure"],)
    if not rep["ok"]:
        code = MATH_FAIL
    if config.cross_check:
        match = bv_mod.engine_matrices_match(maps, min(cap, 3))
        report["engine cross-check"] = match
        if not match:
            code = MATH_FAIL
    return report, code


def cmd_extend(config):
    hd, l2_0, d_f = formats.load_extend(read_input(config.input))
    report = {"command": "extend", "dims": list(hd.space.dims),
              "f_dim": hd.f_dim}
    hrep = verify_homotopy(hd)
    if hrep["ok"]:
        report["homotopy identities"] = "ok"
    else:
        bad = next(k for k, v in hrep.items() if k != "ok" and not v)
        report["homotopy identities"] = "failed at %s" % bad
        return report, MATH_FAIL
    try:
        ext = chain_extend(hd, l2_0, d_f=d_f)
    except ExtensionPreconditionError:
        report["conditions"] = "failed"
        return report, MATH_FAIL
    report["conditions"] = "ok"
    if not verify_nilpotent(ext)["ok"]:
        # the homology of an l with l^2 != 0 means nothing
        report["nilpotent"] = "failed"
        return report, MATH_FAIL
    report["nilpotent"] = "ok"
    total_h = total_homology_dims(ext)
    report["homology dim (total)"] = total_h
    if d_f is None:
        return report, PASS
    base_h = homology_dim_of_differential(d_f)
    report["homology dim (base)"] = base_h
    report["homology match"] = total_h == base_h
    return report, PASS if total_h == base_h else MATH_FAIL


def cmd_fuzz(config):
    rng = random.Random(config.seed)
    count = 100
    passed = 0
    for _ in range(count):
        hd, l2_0, d_f = random_split_instance(rng)
        ext = chain_extend(hd, l2_0, d_f=d_f)
        if verify_nilpotent(ext)["ok"]:
            passed += 1
    report = {"command": "fuzz", "seed": config.seed, "instances": count,
              "passed": "%d/%d" % (passed, count)}
    return report, PASS if passed == count else MATH_FAIL


COMMANDS = {"lie": cmd_lie, "shlie": cmd_shlie, "brst": cmd_brst,
            "bv": cmd_bv, "extend": cmd_extend, "fuzz": cmd_fuzz}


def render(report, fmt) -> str:
    if fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=2, default=str)
    return "\n".join("%s: %s" % (k, v) for k, v in report.items())


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


# each flag's argparse options, defined once
FLAGS = {
    "--input": dict(help="input file path or bundled model name"),
    "--trunc": dict(type=nonnegative_int, default=4),
    "--cap": dict(type=nonnegative_int, default=6),
    "--order": dict(type=nonnegative_int, default=3),
    "--alpha1": dict(),
    "--cross-check": dict(action="store_true"),
    "--seed": dict(type=int, default=1),
    "--format": dict(dest="fmt", default="text",
                     choices=("text", "structured")),
}

# the flags each command reads, besides --format
COMMAND_FLAGS = {
    "lie": ("--input", "--order", "--alpha1"),
    "shlie": ("--input", "--trunc", "--alpha1", "--cross-check"),
    "brst": ("--input", "--cap"),
    "bv": ("--input", "--trunc", "--cap", "--cross-check"),
    "extend": ("--input",),
    "fuzz": ("--seed",),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chainext",
        description="exact chain-extension checks on small models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        p = sub.add_parser(name)
        for flag in COMMAND_FLAGS[name] + ("--format",):
            p.add_argument(flag, **FLAGS[flag])
        if name == "bv":    # cmd_bv tells a given flag from the default
            p.set_defaults(trunc=None, cap=None)
    return parser


@functools.cache
def _parser():
    """The one parser of the process, built on the first main call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = COMMANDS[args.command](args)
    except (formats.FormatError, OSError) as e:
        print(render({"error": str(e)}, args.fmt))
        return INPUT_ERROR
    except Exception as e:
        print(render({"error": "%s: %s" % (type(e).__name__, e)}, args.fmt))
        return UNEXPECTED
    print(render(report, args.fmt))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
