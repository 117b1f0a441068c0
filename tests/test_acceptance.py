"""Acceptance gate: every criterion as one test, exact arithmetic throughout,
with its stated wall-clock bound.  Each test records a CRITERION k: PASS/FAIL
line (rendered in the terminal summary)."""

import os
import random
import time
from fractions import Fraction

from chainext import brst as brst_mod
from chainext import bv as bv_mod
from chainext.complexes import (chain_extend, check_l2_conditions,
                                homology_dim_of_differential,
                                total_homology_dims, verify_nilpotent)
from chainext.formats import load_cochain, load_extend, load_lie
from chainext.instances import random_split_instance
from chainext.lie import h2, nr_compose
from chainext.series import Series
from chainext.shlie import build_shlie, crosscheck_with_engine, \
    master_relation, verify_shlie
from chainext.superalg import SuperPoly

from bundled import brst_system, bv_problem
from references import (apply_S, cochain_value, dense_coeffs, homotopy_s,
                        l3_plain, lambda_tilde, longitudinal_d, nbar, sigma)

MODELS = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                      "models")


def read_model(name):
    with open(os.path.join(MODELS, name)) as fh:
        return fh.read()


def test_criterion_1_engine_soundness(criterion):
    t0 = time.monotonic()
    rng = random.Random(1)
    ok = True
    for _ in range(100):
        hd, l2_0, d_f = random_split_instance(rng, max_dim=6, top=3)
        ok = ok and check_l2_conditions(hd, l2_0, d_f)["ok"]
        ext = chain_extend(hd, l2_0, d_f=d_f)
        ok = ok and verify_nilpotent(ext)["ok"]
        top = len(ext.space.dims) - 1
        ok = ok and all(ext.l2.block(k).is_zero() for k in range(2, top + 1))
        ok = ok and all(ext.l3.block(k).is_zero() for k in range(1, top + 1))
    elapsed = time.monotonic() - t0
    assert criterion(1, ok and elapsed < 30.0), (ok, elapsed)


def test_criterion_2_homology_vs_rank_oracle(criterion):
    t0 = time.monotonic()
    ok = True
    for name in ("extend_split.txt", "extend_medium.txt"):
        hd, l2_0, d_f = load_extend(read_model(name))
        ext = chain_extend(hd, l2_0, d_f=d_f)
        ok = ok and total_homology_dims(ext) == \
            homology_dim_of_differential(d_f)
    elapsed = time.monotonic() - t0
    assert criterion(2, ok and elapsed < 5.0), (ok, elapsed)


def test_criterion_3_obstruction_pipeline(criterion):
    t0 = time.monotonic()
    alg = load_lie(read_model("lie_abelian3.txt"))
    a1 = load_cochain(read_model("cochain_obstructed_alpha1.txt"))
    comp = nr_compose(a1, a1)
    bracket_val = [c + c for c in cochain_value(comp, (0, 1, 2))]
    oracle_ok = bracket_val == [0, 0, -2]

    def build():
        return build_shlie(alg, a1, N=4, variant="t2")

    S = build()
    e = [Series.basis(3, 4, 0, i) for i in range(3)]
    w = S.l3_000(e[0], e[1], e[2])
    w_dense = dense_coeffs(w)
    # The arity-3 relation on X_0^3 reads l1 l3 + Jac(l2) = 0, and l1 only
    # removes the star, so l3(e1,e2,e3) is minus the t^2 coefficient of the
    # Jacobiator of l2_00.  That Jacobiator is computed here from l2_00 alone,
    # independently of the composition l3 is built from.  By hand:
    # a1(a1(e1,e2),e3) + a1(a1(e2,e3),e1) + a1(a1(e3,e1),e2) = 0 + 0 - e3.
    jac = S.l2_00(S.l2_00(e[0], e[1]), e[2]) \
        .add(S.l2_00(S.l2_00(e[1], e[2]), e[0])) \
        .add(S.l2_00(S.l2_00(e[2], e[0]), e[1]))
    jacobi_ok = w_dense[2] == [-c for c in dense_coeffs(jac)[2]]
    literal_ok = w_dense[2] == [0, 0, Fraction(1)] and \
        all(w_dense[k] == [0, 0, 0] for k in (0, 1, 3, 4))
    # the normalization l3 = -t^2 (a1 . a1) = -(t^2/2) [a1, a1]
    normal_ok = w_dense[2] == [Fraction(-1, 2) * c for c in bracket_val]
    relations_ok = verify_shlie(S)["ok"]
    # Scaling l3 by 2 (the doubled value 2 t^2 e3*) or by 1/2 must break the
    # arity-3 relation on the degree-0 triple, leaving (scale - 1) l1 l3.
    rejects_ok = True
    triple = [(0, x) for x in e]
    for scale in (2, Fraction(1, 2)):
        bad = build()
        bad.comp11 = bad.comp11.scale(scale)
        rep = verify_shlie(bad)
        rejects_ok = rejects_ok and not rep["relation_64"] and \
            rep["first_failure"] == ("relation_64", (0, 0, 0)) and \
            master_relation(bad, triple, 3) == S.l1(w).scale(scale - 1)
    elapsed = time.monotonic() - t0
    ok = oracle_ok and jacobi_ok and literal_ok and normal_ok and \
        relations_ok and rejects_ok and elapsed < 5.0
    assert criterion(3, ok), (oracle_ok, jacobi_ok, literal_ok, normal_ok,
                              relations_ok, rejects_ok, elapsed, w_dense[2])


def test_criterion_4_shlie_engine_coincidence(criterion):
    t0 = time.monotonic()
    ok = True
    cases = []
    for name in ("lie_abelian2.txt", "lie_abelian3.txt", "lie_so3.txt",
                 "lie_sl2.txt", "lie_heisenberg.txt", "lie_aff1.txt"):
        alg = load_lie(read_model(name))
        from chainext.lie import Cochain
        cases.append((alg, Cochain.zero(alg.dim, 2)))
    cases.append((load_lie(read_model("lie_abelian3.txt")),
                  load_cochain(read_model("cochain_obstructed_alpha1.txt"))))
    for alg, a1 in cases:
        for variant in ("t2", "full"):
            S = build_shlie(alg, a1, N=4, variant=variant)
            rep = crosscheck_with_engine(S)
            ok = ok and rep["ok"]
    elapsed = time.monotonic() - t0
    assert criterion(4, ok and elapsed < 10.0), (ok, elapsed)


def test_criterion_5_brst_closed_forms(criterion):
    t0 = time.monotonic()
    so3 = brst_system("brst_so3")
    ext = brst_mod.build_brst(so3, degree_cap=4)
    ok = True
    for a in range(3):
        got = ext.l2(so3.gen("P%d" % (a + 1)))
        want = SuperPoly.zero(so3.alg)
        for b in range(3):
            for d in range(3):
                coeff = so3.structure_fn(d, a, b)
                if coeff.is_zero():
                    continue
                term = brst_mod.mul(coeff, brst_mod.mul(
                    so3.gen("eta%d" % (b + 1)), so3.gen("P%d" % (d + 1))))
                want = want + term.scale(-1)
        ok = ok and got == want
    for name in so3.xs + so3.gs + so3.etas + so3.ps:
        ok = ok and ext.l3(so3.gen(name)).is_zero()
    toy = brst_system("brst_toy")
    ext_t = brst_mod.build_brst(toy, degree_cap=4)
    l3_g2 = ext_t.l3(toy.gen("G2"))
    ok = ok and not l3_g2.is_zero()
    recomputed = homotopy_s(
        toy, longitudinal_d(toy, longitudinal_d(toy, toy.gen("G2"))))
    ok = ok and l3_g2 == recomputed
    ok = ok and brst_mod.check_nilpotent_on_basis(ext, 4) is None
    ok = ok and brst_mod.check_nilpotent_on_basis(ext_t, 4) is None
    elapsed = time.monotonic() - t0
    assert criterion(5, ok and elapsed < 60.0), (ok, elapsed)


def test_criterion_6_homotopy_identities(criterion):
    t0 = time.monotonic()
    ok = True
    for system, cap in ((brst_system("brst_so3"), 3),
                        (brst_system("brst_toy"), 3)):
        groups = brst_mod.monomial_basis(system, cap)
        for group in groups:
            for mono in group:
                f = SuperPoly(system.alg, {mono: 1})
                lhs = brst_mod.koszul_tate(system, sigma(system, f)) \
                    + sigma(system, brst_mod.koszul_tate(system, f))
                ok = ok and lhs == nbar(system, f)
        # the constraint ideal sits in antighost degree zero
        for mono in groups[0]:
            if system.has_constraint_factor(mono):
                f = SuperPoly(system.alg, {mono: 1})
                ok = ok and lambda_tilde(system, f).is_zero()
        ok = ok and brst_mod.verify_brst_resolution(system, cap=cap)["ok"]
    elapsed = time.monotonic() - t0
    assert criterion(6, ok and elapsed < 10.0), (ok, elapsed)


def test_criterion_7_theorem8_two_pair(criterion):
    t0 = time.monotonic()
    problem = bv_problem("bv_two_pair")
    model = problem.model
    ok = repr(problem.S[1]) == "1*Cphi_st"
    maps = bv_mod.theorem8_maps(problem)
    ok = ok and bv_mod.verify_theorem8(maps, maxdeg=4)["ok"]
    rng = random.Random(5)
    monos = model.monomials(4)
    for _ in range(10):
        coeffs = [SuperPoly.zero(model.alg) for _ in range(problem.trunc + 1)]
        for _ in range(3):
            coeffs[rng.randrange(problem.trunc + 1)] += \
                model.poly(monos[rng.randrange(len(monos))]).scale(
                    rng.randint(-2, 2))
        x = Series(model, problem.trunc, coeffs)
        sq = apply_S(maps, apply_S(
            maps, (x, Series(model, problem.trunc))))
        ok = ok and sq[0].is_zero() and sq[1].is_zero()
    R = bv_mod.obstruction_R(problem, 2)
    for mono in monos:
        got = dense_coeffs(l3_plain(maps, Series.basis(
            model, problem.trunc, 0, mono)))[2]
        want = model.bracket(R, model.poly(mono)).scale(Fraction(-1, 2))
        ok = ok and got == want
    rich = bv_mod.theorem8_maps(bv_problem("bv_two_ghost"))
    ok = ok and bv_mod.verify_theorem8(rich, maxdeg=3)["ok"]
    elapsed = time.monotonic() - t0
    assert criterion(7, ok and elapsed < 10.0), (ok, elapsed)


def test_criterion_8_cohomology_regressions(criterion):
    t0 = time.monotonic()
    sl2 = load_lie(read_model("lie_sl2.txt"))
    ab2 = load_lie(read_model("lie_abelian2.txt"))
    h3 = load_lie(read_model("lie_heisenberg.txt"))
    ok = h2(sl2)[0] == 0 and h2(ab2)[0] == 2
    first = h2(h3)[0]
    ok = ok and first == 5 and h2(h3)[0] == first
    elapsed = time.monotonic() - t0
    assert criterion(8, ok and elapsed < 5.0), (ok, elapsed)
