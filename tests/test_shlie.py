from fractions import Fraction

import pytest

from chainext.complexes import verify_homotopy
from chainext.lie import Cochain, LieAlgebra, alpha0_cochain, ce_differential
from chainext.shlie import (
    ShLieStructure, TruncSeries, build_shlie,
    crosscheck_with_engine, l3_is_obstruction, master_relation,
    to_homotopy_data, variants_agree, verify_shlie,
)


def so3():
    return LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]})


def sl2():
    return LieAlgebra(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})


def heisenberg():
    return LieAlgebra(3, {(0, 1): [0, 0, 1]})


def abelian3():
    return LieAlgebra(3, {})


def obstructed_alpha1():
    return Cochain(3, 2, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})


def coboundary(alg):
    phi = Cochain(alg.dim, 1, {(0,): [0, 1, 0]})
    beta = ce_differential(alg, phi)
    assert not beta.is_zero()
    return beta


def fixtures():
    return [
        (abelian3(), obstructed_alpha1()),
        (so3(), coboundary(so3())),
        (sl2(), coboundary(sl2())),
        (heisenberg(), Cochain(3, 2, {(0, 1): [1, 0, 0]})),
        (so3(), Cochain(3, 2, {})),
    ]


def build(alg, a1, N=4, variant="t2"):
    return build_shlie(alg, alpha0_cochain(alg), a1, N=N, variant=variant)


def test_trunc_series_basics():
    x = TruncSeries.basis(2, 3, 1, 0)
    assert x.coeffs[1] == [Fraction(1), Fraction(0)]
    y = x.tshift(2)
    assert y.coeffs[3] == [Fraction(1), Fraction(0)] and y.coeffs[1] == [0, 0]
    assert x.tshift(3).is_zero()  # truncated away
    z = x.add(x.scale(Fraction(1, 2)))
    assert z.coeffs[1][0] == Fraction(3, 2)
    assert x.flat(1) == [Fraction(1), 0, 0, 0, 0, 0]
    assert TruncSeries(2, 3) == TruncSeries(2, 3)


def test_build_validations():
    alg = abelian3()
    a0 = alpha0_cochain(alg)
    a1 = obstructed_alpha1()
    with pytest.raises(ValueError):
        build_shlie(alg, a0, a1, variant="weird")
    with pytest.raises(ValueError):
        build_shlie(alg, a0, a1).as_variant("weird")
    assert build_shlie(alg, a0, a1).as_variant("full").kmin == 0
    with pytest.raises(ValueError):
        build_shlie(alg, a0, a1, N=2)
    with pytest.raises(ValueError):
        build_shlie(alg, obstructed_alpha1(), a1)  # wrong alpha0
    h = heisenberg()
    bad = Cochain(3, 2, {(0, 2): [1, 0, 0]})
    assert not ce_differential(h, bad).is_zero()
    with pytest.raises(ValueError):
        build_shlie(h, alpha0_cochain(h), bad)


def test_structure_map_values():
    S = build(abelian3(), obstructed_alpha1())
    e = [TruncSeries.basis(3, 4, 0, i) for i in range(3)]
    v = S.l2_00(e[0], e[1])
    assert v.coeffs[0] == [0, 0, 0] and v.coeffs[1] == [0, 0, Fraction(1)]
    # the composition (a1.a1)(e1,e2,e3) = -e3, so l3 = -t^2(...)  = +t^2 e3
    w = S.l3_000(e[0], e[1], e[2])
    assert w.coeffs[2] == [0, 0, Fraction(1)]
    assert all(w.coeffs[k] == [0, 0, 0] for k in (0, 1, 3, 4))
    # mixed map is the t-scaled starred copy
    xi = TruncSeries.basis(3, 4, 2, 0)
    m = S.l2_10(xi, e[1])
    assert m.coeffs[3] == [0, 0, Fraction(1)]
    # l1 is star removal
    assert S.l1(xi) == TruncSeries.basis(3, 4, 2, 0)


def test_t2_variant_grading_enforced():
    S = build(abelian3(), obstructed_alpha1(), variant="t2")
    low = TruncSeries.basis(3, 4, 1, 0)
    with pytest.raises(ValueError):
        S.l1(low)
    with pytest.raises(ValueError):
        S.l2_10(low, TruncSeries.basis(3, 4, 0, 1))


def test_relations_all_fixtures_t2():
    for alg, a1 in fixtures():
        S = build(alg, a1, variant="t2")
        rep = verify_shlie(S)
        assert rep["ok"], rep


def test_relations_full_variant():
    for alg, a1 in [fixtures()[0], fixtures()[2]]:
        S = build(alg, a1, variant="full")
        rep = verify_shlie(S)
        assert rep["ok"], rep


def test_corrupt_l3_sign_detected():
    S = build(abelian3(), obstructed_alpha1())
    S.comp11 = S.comp11.scale(-1)
    rep = verify_shlie(S)
    assert not rep["relation_64"] and not rep["ok"]
    assert rep["first_failure"] is not None
    assert not l3_is_obstruction(S)


def test_corrupt_mixed_l2_detected():
    class Bad(ShLieStructure):
        def l2_10(self, xi, b):
            return super().l2_10(xi, b).scale(-1)

    alg = so3()
    S = Bad(alg, alpha0_cochain(alg), coboundary(alg), 4, "t2")
    rep = verify_shlie(S)
    assert not rep["relation_63"] and not rep["ok"]


def test_l3_is_obstruction_and_zero_case():
    for alg, a1 in fixtures():
        assert l3_is_obstruction(build(alg, a1))
    S = build(so3(), Cochain(3, 2, {}))
    e = [TruncSeries.basis(3, 4, 0, i) for i in range(3)]
    assert S.l3_000(e[0], e[1], e[2]).is_zero()


def test_t_linearity():
    """l_i(t^k x, ...) = t^k l_i(x, ...) on generators for k + 2 <= N."""
    for S in (build(abelian3(), obstructed_alpha1()),
              build(so3(), coboundary(so3()))):
        assert_t_linear(S)


def assert_t_linear(S):
    dim, N = S.alg.dim, S.N
    gens = [TruncSeries.basis(dim, N, 0, i) for i in range(dim)]
    for k in range(N - 1):
        for i in range(dim):
            xi0 = TruncSeries.basis(dim, N, S.kmin, i)
            assert S.l1(xi0.tshift(k)) == S.l1(xi0).tshift(k)
            a0 = gens[i]
            for b in gens:
                assert S.l2_00(a0.tshift(k), b) == S.l2_00(a0, b).tshift(k)
                assert S.l2_00(b, a0.tshift(k)) == S.l2_00(b, a0).tshift(k)
                assert S.l2_10(xi0.tshift(k), b) == \
                    S.l2_10(xi0, b).tshift(k)
                for c in gens:
                    assert S.l3_000(a0.tshift(k), b, c) == \
                        S.l3_000(a0, b, c).tshift(k)


def test_variants_agree():
    alg, a1 = abelian3(), obstructed_alpha1()
    s_full = build(alg, a1, variant="full")
    s_t2 = build(alg, a1, variant="t2")
    assert variants_agree(s_full, s_t2)


def test_export_homotopy_data():
    S = build(abelian3(), obstructed_alpha1(), variant="t2")
    hd = to_homotopy_data(S)
    assert hd.f_dim == 6  # A + A t survives in degree 0
    assert verify_homotopy(hd)["ok"]
    Sf = build(abelian3(), obstructed_alpha1(), variant="full")
    hf = to_homotopy_data(Sf)
    assert hf.f_dim == 0
    assert verify_homotopy(hf)["ok"]


def test_crosscheck_with_engine_all_fixtures():
    for alg, a1 in fixtures():
        for variant in ("t2", "full"):
            S = build(alg, a1, variant=variant)
            rep = crosscheck_with_engine(S)
            assert rep["ok"], (variant, rep)
            if variant == "full":
                assert rep["curried_chain_extend"] is True
            elif alpha0_cochain(alg).is_zero():
                assert rep["curried_chain_extend"] is True
            else:
                assert rep["curried_chain_extend"] is None


def test_master_relation_structural_none():
    S = build(abelian3(), obstructed_alpha1())
    ones = [(1, TruncSeries.basis(3, 4, 2, i)) for i in range(3)]
    # three degree-1 inputs at n=3 target degree 3: structurally outside
    assert master_relation(S, ones, 3) is None


def test_verify_deterministic():
    a = verify_shlie(build(so3(), coboundary(so3())))
    b = verify_shlie(build(so3(), coboundary(so3())))
    assert a == b


def test_relation_66_fails_when_l3_takes_a_degree_one_argument(monkeypatch):
    S = build(so3(), coboundary(so3()))
    g_l3 = ShLieStructure.g_l3

    def accepting(self, x, y, z):
        # a zero value in X_2, where g_l3 should return None
        if x[0] or y[0] or z[0]:
            return (2, TruncSeries(self.alg.dim, self.N))
        return g_l3(self, x, y, z)

    monkeypatch.setattr(ShLieStructure, "g_l3", accepting)
    rep = verify_shlie(S)
    assert rep["relation_63"] and rep["relation_64"] and rep["relation_65"]
    assert rep["relation_66"] is False and not rep["ok"]
    assert rep["first_failure"] == ("relation_66", (0, 0, 1))


def test_verify_counts_the_tuples_it_checks():
    rep = verify_shlie(build(so3(), coboundary(so3())))
    # tuples of the 3 + 3 generators whose target degree sum(degs) + n - 3
    # is 0 or 1: n = 2 needs degree sum 1 or 2 (18 + 9), n = 3 sum 0 or 1
    # (27 + 81), n = 4 sum 0 (81); five degree-0 inputs target degree 2
    assert rep["tuples"] == 27 + 108 + 81
    empty = LieAlgebra(0, {})
    rep = verify_shlie(build(empty, Cochain(0, 2, {})))
    assert rep["ok"] and rep["tuples"] == 0


@pytest.mark.parametrize("variant", ["t2", "full"])
def test_crosscheck_detects_a_doubled_l3(variant):
    """The engine side rebuilds l3 from the curried l2 and s only, so
    doubling the closed-form l3 breaks l3_matches and leaves the mixed l2
    alone."""
    S = build(abelian3(), obstructed_alpha1(), variant=variant)
    assert crosscheck_with_engine(S)["ok"]
    S.comp11 = S.comp11.scale(2)
    rep = crosscheck_with_engine(S)
    assert rep["mixed_l2_matches"] is True
    assert rep["l3_matches"] is False and rep["ok"] is False
