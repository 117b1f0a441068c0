import random
from collections import Counter
from itertools import combinations

import pytest

from chainext import superalg
from chainext.bv import (
    BVModel, DeformationProblem, Theorem8Maps, engine_matrices_match,
    find_s0_cocycle, obstruction_R, theorem8_maps, to_homotopy_data,
    verify_theorem8,
)
from chainext.complexes import compare_with_engine, verify_homotopy
from chainext.exactla import RatMatrix, rat
from chainext.series import Series, TLinear
from chainext.superalg import GenSpec, SuperPoly, antibracket, mul

from bundled import bv_problem, model_id
from references import apply_S, dense_coeffs, l3_plain


def test_model_structure():
    m = bv_problem("bv_two_pair").model
    assert m.pairs == [("phi", "phi_st"), ("C", "C_st")]
    st = m.gen("C_st")
    assert st.parity() == 0 and st.ghost() == -2
    assert m.gen("phi_st").parity() == 1 and m.gen("phi_st").ghost() == -1
    # empty monomial plus the four generators
    assert len(m.monomials(1)) == 5
    assert m.bracket(m.gen("phi"), m.gen("phi_st")) == SuperPoly.const(m.alg, 1)
    with pytest.raises(ValueError):
        BVModel([GenSpec("x", "even", ghost=0, kind="x")], cap=6)


def test_master_check():
    """DeformationProblem checks the master equation (S0, S0) = 0 of an S0
    alone, and that S0 is even with ghost number 0."""
    m = bv_problem("bv_two_pair").model
    s0 = mul(m.gen("phi_st"), m.gen("C"))
    assert DeformationProblem(m, [s0]).S == [s0]
    g = bv_problem("bv_two_ghost").model
    s1 = mul(mul(g.gen("phi1_st"), g.gen("C2")), g.gen("phi2")) + \
        mul(mul(g.gen("phi2_st"), g.gen("C1")), g.gen("phi1"))
    with pytest.raises(ValueError, match="^order-0 master equation fails$"):
        DeformationProblem(g, [s1])
    with pytest.raises(ValueError, match="^S_0 must be even with ghost "
                                         "number 0$"):
        DeformationProblem(m, [m.gen("phi_st")])  # odd, ghost -1
    # mixed-parity candidate: phi_st*C plus C_st*C*phi
    bad = s0 + mul(mul(m.gen("C_st"), m.gen("C")), m.gen("phi"))
    with pytest.raises(ValueError, match="^polynomial is not "
                                         "parity-homogeneous$"):
        DeformationProblem(m, [bad])


def test_s0_differential_values_and_square():
    """(S0, .) on the generators, and (S0, (S0, a)) = 1/2 ((S0, S0), a),
    which vanishes for a solution of the master equation and not for the
    two-ghost S_1."""
    m = bv_problem("bv_two_pair").model
    s0 = mul(m.gen("phi_st"), m.gen("C"))
    assert m.bracket(s0, m.gen("phi")) == m.gen("C")
    assert m.bracket(s0, m.gen("C")).is_zero()
    assert m.bracket(s0, m.gen("C_st")) == m.gen("phi_st")
    assert m.bracket(s0, m.gen("phi_st")).is_zero()
    g = bv_problem("bv_two_ghost").model
    not_master = mul(mul(g.gen("phi1_st"), g.gen("C2")), g.gen("phi2")) + \
        mul(mul(g.gen("phi2_st"), g.gen("C1")), g.gen("phi1"))
    squares_to_zero = []
    for model, s in ((m, s0), (g, not_master)):
        half = model.bracket(s, s).scale(rat("1/2"))
        zero = True
        for mono in model.monomials(3):
            a = model.poly(mono)
            twice = model.bracket(s, model.bracket(s, a))
            assert twice == model.bracket(half, a)
            zero = zero and twice.is_zero()
        squares_to_zero.append(zero)
    assert squares_to_zero == [True, False]


def test_deformation_problem_validation():
    p = bv_problem("bv_two_pair")
    assert p.n == 1 and p.trunc == 2
    m = p.model
    with pytest.raises(ValueError):
        DeformationProblem(m, [p.S[0], m.gen("phi_st")])  # odd S_1
    with pytest.raises(ValueError):
        DeformationProblem(m, [p.S[0], m.gen("phi")])  # breaks order 1
    with pytest.raises(ValueError):
        DeformationProblem(m, [])


def test_find_s0_cocycle():
    m = bv_problem("bv_two_pair").model
    s0 = mul(m.gen("phi_st"), m.gen("C"))
    cocycles = find_s0_cocycle(m, s0, 2)
    assert cocycles
    for f in cocycles:
        assert m.bracket(s0, f).is_zero()
        assert f.parity() == 0 and f.ghost() == 0
    reps = {repr(f) for f in cocycles}
    assert "1*Cphi_st" in reps


def test_obstruction_R():
    p = bv_problem("bv_two_pair")
    assert obstruction_R(p, 2).is_zero()
    q = bv_problem("bv_two_ghost")
    g = q.model
    want = mul(mul(mul(g.gen("phi1"), g.gen("C1")), g.gen("C2")),
               g.gen("phi1_st")).scale(-2) + \
        mul(mul(mul(g.gen("phi2"), g.gen("C1")), g.gen("C2")),
            g.gen("phi2_st")).scale(2)
    assert obstruction_R(q, 2) == want
    assert obstruction_R(q, 7).is_zero()


def test_obstruction_that_is_not_a_cocycle_is_refused():
    """(S_0, R_2) = 2 ((S_0, S_1), S_1) for R_2 = (S_1, S_1) (the graded
    Jacobi identity with (S_0, S_0) = 0), so R_2 is a cocycle when the
    order-1 master equation holds.  Over an S_1 that breaks it, found here
    as the first sum of two even ghost-0 monomials with (S_0, R_2) != 0,
    obstruction_R refuses the data."""
    q = bv_problem("bv_two_ghost")
    g, S0 = q.model, q.S[0]
    even = [g.poly(m) for m in g.monomials(3)
            if g.poly(m).parity() == 0 and g.poly(m).ghost() == 0]
    S1 = next(a + b for a, b in combinations(even, 2)
              if not g.bracket(S0, g.bracket(a + b, a + b)).is_zero())
    problem = object.__new__(DeformationProblem)
    problem.model, problem.S, problem.n, problem.trunc = g, [S0, S1], 1, 2
    with pytest.raises(ValueError, match="^obstruction is not a cocycle: "
                                         "inconsistent data$"):
        obstruction_R(problem, 2)


def test_maps_closed_form_order_one():
    q = bv_problem("bv_two_ghost", trunc=3)
    maps = theorem8_maps(q)
    g = q.model
    s0, s1 = q.S
    r11 = g.bracket(s1, s1)
    for name in ("phi1", "C2", "phi2_st", "C1_st"):
        a = g.gen(name)
        mono = next(iter(a.terms))
        img = maps.l2_plain_op.apply(Series.basis(g, 3, 0, mono))
        assert dense_coeffs(img)[0] == g.bracket(s0, a)
        assert dense_coeffs(img)[1] == g.bracket(s1, a)
        assert dense_coeffs(img)[2].is_zero()
        assert dense_coeffs(img)[3].is_zero()
        l3 = l3_plain(maps, Series.basis(g, 3, 0, mono))
        assert dense_coeffs(l3)[0].is_zero() and dense_coeffs(l3)[1].is_zero()
        assert dense_coeffs(l3)[2] == g.bracket(r11, a).scale(rat("-1/2"))
        assert dense_coeffs(l3)[3].is_zero()
        star = maps.l2_star_op.apply(Series.basis(g, 3, 2, mono))
        assert dense_coeffs(star)[2] == g.bracket(s0, a).scale(-1)
        assert dense_coeffs(star)[3] == g.bracket(s1, a).scale(-1)
        back = maps.l1_op.apply(Series.basis(g, 3, 2, mono))
        assert dense_coeffs(back)[2] == a and dense_coeffs(back)[3].is_zero()


def test_bracket_tables_give_the_plain_brackets():
    """Every map fed from a precomputed table equals the bracket computed
    from scratch, on every monomial of degree <= 2 at every t-power."""
    q = bv_problem("bv_two_ghost", trunc=3)
    maps = theorem8_maps(q)
    g, n, T = q.model, q.n, q.trunc

    def plain(f, a):
        return antibracket(f, a, g.pairs)
    for mono in g.monomials(2):
        a = g.poly(mono)
        for k in range(T + 1):
            img = maps.l2_plain_op.apply(Series.basis(g, T, k, mono))
            for i in range(T + 1 - k):
                want = plain(q.S[i], a) if i <= n else SuperPoly.zero(g.alg)
                assert dense_coeffs(img)[k + i] == want
            l3 = l3_plain(maps, Series.basis(g, T, k, mono))
            for m, rm in maps.pair_brackets.items():
                if k + m <= T:
                    assert dense_coeffs(l3)[k + m] == \
                        plain(rm, a).scale(rat("-1/2"))
            if k >= n + 1:
                star = maps.l2_star_op.apply(
                    Series.basis(g, T, k, mono))
                for i in range(min(n, T - k) + 1):
                    assert dense_coeffs(star)[k + i] == \
                        plain(q.S[i], a).scale(-1)


@pytest.mark.parametrize("name", ["bv_two_ghost", "bv_two_pair"])
def test_compiled_brackets_match_antibracket_up_to_cap(name):
    """Every precompiled (S_i, .) and (R_m, .) of the maps equals the plain
    antibracket on every monomial up to the models' cap 6.  A wrong global
    sign would pass verify_theorem8 (S -> -S is again a solution), so it is
    checked here, against superalg.antibracket."""
    maps = theorem8_maps(bv_problem(name))
    model = maps.model
    fixed = list(zip(maps.problem.S, maps.ad_S)) + \
        [(maps.pair_brackets[m], ad) for m, ad in maps.ad_R.items()]
    assert model.cap == 6 and len(fixed) == 3
    for mono in model.monomials(model.cap):
        g = model.poly(mono)
        for F, ad in fixed:
            assert SuperPoly(model.alg, ad({mono: 1})) == \
                antibracket(F, g, model.pairs), (F, mono)


def test_truncation_too_small():
    m = bv_problem("bv_two_pair").model
    s0 = mul(m.gen("phi_st"), m.gen("C"))
    p = DeformationProblem(m, [s0, mul(m.gen("phi_st"), m.gen("C"))], trunc=1)
    with pytest.raises(ValueError):
        theorem8_maps(p)


def test_verify_reports_ok():
    rep = verify_theorem8(theorem8_maps(bv_problem("bv_two_pair")), maxdeg=4)
    assert rep["ok"] and rep["first_failure"] is None
    rep = verify_theorem8(theorem8_maps(bv_problem("bv_two_ghost")), maxdeg=3)
    assert rep["ok"]


def test_vanishing_obstruction_kills_l3():
    p = bv_problem("bv_two_pair")
    maps = theorem8_maps(p)
    m = p.model
    for mono in m.monomials(3):
        assert l3_plain(maps, Series.basis(m, p.trunc, 0, mono)).is_zero()


def test_corrupt_star_sign_detected():
    bad = Theorem8Maps(bv_problem("bv_two_ghost"))
    bad.l2_star_op = bad.l2_star_op.scale(-1)
    rep = verify_theorem8(bad, maxdeg=2)
    assert not rep["s_squared"]
    assert rep["first_failure"] is not None
    assert not rep["ok"]


def test_plain_l2_keeping_the_ghost_number_fails_ghost_shift():
    """A plain l2 equal to t^T times the identity keeps every ghost number,
    where (S_i, .) raises it by 1.  On bv_two_pair, whose l3 is zero, its
    square is t^(2T) and leaves the truncation, and the constant monomial
    1, the first one, has (S_i, 1) = 0: so S^2 vanishes on 1 in both
    degrees and the first failure is ghost_shift at 1.  A plain l2 whose
    image mixes two ghost numbers is refused."""
    maps = theorem8_maps(bv_problem("bv_two_pair"))
    assert verify_theorem8(maps, maxdeg=2)["ghost_shift"]
    first = maps.model.monomials(2)[0]
    assert first == ()
    maps.l2_plain_op = TLinear({maps.T: [(1, ())]})
    rep = verify_theorem8(maps, maxdeg=2)
    assert rep["ghost_shift"] is False and rep["ok"] is False
    assert rep["first_failure"] == ("ghost_shift", first)
    gh = maps.model.alg.ghosts
    mixed = {(): 1, (gh.index(1),): 1}
    maps.l2_plain_op = TLinear({0: [(1, (lambda d: mixed,))]})
    with pytest.raises(ValueError, match="^polynomial is not "
                                         "ghost-homogeneous$"):
        verify_theorem8(maps, maxdeg=2)


def test_squares_on_random_composites():
    rng = random.Random(11)
    q = bv_problem("bv_two_ghost")
    maps = theorem8_maps(q)
    g = q.model
    monos = g.monomials(4)
    for _ in range(12):
        coeffs = [SuperPoly.zero(g.alg) for _ in range(q.trunc + 1)]
        for _ in range(3):
            coeffs[rng.randrange(q.trunc + 1)] += \
                g.poly(monos[rng.randrange(len(monos))]).scale(
                    rng.randint(-3, 3))
        x = Series(g, q.trunc, coeffs)
        sq = apply_S(maps, apply_S(maps, (x, Series(g, q.trunc))))
        assert sq[0].is_zero() and sq[1].is_zero()


def test_homotopy_export():
    maps = theorem8_maps(bv_problem("bv_two_pair"))
    hd, l2_0, (b0, b1) = to_homotopy_data(maps, 4)
    assert verify_homotopy(hd)["ok"]
    assert hd.f_dim == sum(1 for (_, k) in b0.labels if k <= 1)
    # h = -(star) vanishes below the ideal t^(n+1) R[[t]]
    for (_, k), col in zip(b0.labels, hd.s.block(0).columns()):
        assert (k > maps.n) == bool(col)


def test_engine_matrices_match():
    assert engine_matrices_match(theorem8_maps(bv_problem("bv_two_pair")), 4)
    assert engine_matrices_match(theorem8_maps(bv_problem("bv_two_ghost")), 3)


def test_theorem8_sweep_derives_each_monomial_once(monkeypatch):
    """The Theorem-8 sweep of bv_two_ghost and then its engine cross-check
    derive each monomial at most once per compiled bracket: the chains of
    two brackets and TLinear.matrix read the images the brackets keep.
    Each derivation is told apart by its values dict, kept alive here so
    that no id is reused.  The sweep derives basis monomials only with the
    maps' own brackets: the summand (R, .) reads the kept (R_2, .), and
    any other derivation is one of obstruction_R's brackets of S_i with
    S_j and with R, or a partial derivative of R, on their terms."""
    maps = theorem8_maps(bv_problem("bv_two_ghost"))
    derive, derived, seen = superalg._derive, Counter(), []

    def counted(terms, vals, *rest):
        seen.append(vals)
        derived.update((id(vals), m) for m in terms)
        return derive(terms, vals, *rest)
    monkeypatch.setattr(superalg, "_derive", counted)
    rep = verify_theorem8(maps, maxdeg=3)
    assert rep["ok"]
    kept = {id(ad.values) for ad in maps.ad_S + list(maps.ad_R.values())}
    others = {m for v, m in derived if v not in kept}
    assert others <= {m for f in maps.problem.S + [rep["obstruction_R"]]
                      for m in f.terms}
    assert engine_matrices_match(maps, 3)
    assert derived and max(derived.values()) == 1


def test_compare_with_engine_names_a_changed_bv_entry():
    """One entry of the Theorem-8 l3 of bv_two_ghost changed from -1 to 1,
    from phi1 at t^0 to phi1 C1 C2 at t^2: the witness names the map, the
    degree, both (monomial, t-power) labels and both values."""
    maps = theorem8_maps(bv_problem("bv_two_ghost"))
    hd, l2_0, (b0, b1) = to_homotopy_data(maps, 3)
    index = maps.model.alg.index
    row = b1.index[(tuple(index[g] for g in ("phi1", "C1", "C2")), 2)]
    col = b0.index[((index["phi1"],), 0)]
    l3 = maps.l3_op.matrix(b0, b1, maps.T)
    assert l3.entry(row, col) == -1
    closed = {("l2", 1): maps.l2_star_op.matrix(b1, b1, maps.T),
              ("l3", 0): l3 + RatMatrix.from_blocks(
                  *l3.shape, [(row, col, RatMatrix([[2]]))])}
    assert compare_with_engine(hd, l2_0, (b0, b1), closed) == {
        "nilpotent": True, "ok": False,
        "first_mismatch": ("l3", 0, "1*phi1C1C2 t^2", "1*phi1 t^0", -1, 1)}


# -- the shift-by-shift sweep against the per-(monomial, t-power) sweep ----------

def reference_verify_theorem8(maps, maxdeg):
    """The sweep as it was before the t-linear layer: S applied twice to every
    basis series a t^k and a* t^k through the maps' public methods."""
    model, n, T = maps.model, maps.n, maps.T
    report = {"s_squared": True, "l3_obstruction_summand": True,
              "ghost_shift": True, "ideal_preserved": True,
              "first_failure": None}

    def fail(key, what):
        report[key] = False
        if report["first_failure"] is None:
            report["first_failure"] = (key, what)

    R = obstruction_R(maps.problem, n + 1)
    for mono in model.monomials(maxdeg):
        a = model.poly(mono)
        for k in range(T + 1):
            x = Series.basis(model, T, k, mono)
            sq = apply_S(maps, apply_S(maps, (x, Series(model, T))))
            if not (sq[0].is_zero() and sq[1].is_zero()):
                fail("s_squared", ("degree0", mono, k))
            if k >= n + 1:
                xi = Series.basis(model, T, k, mono)
                sq = apply_S(maps, apply_S(maps, (Series(model, T), xi)))
                if not (sq[0].is_zero() and sq[1].is_zero()):
                    fail("s_squared", ("degree1", mono, k))
                img = maps.l2_star_op.apply(xi)
                if any(not c.is_zero() for c in dense_coeffs(img)[:n + 1]):
                    fail("ideal_preserved", (mono, k))
        got = dense_coeffs(l3_plain(maps, Series.basis(model, T, 0,
                                                        mono)))[n + 1]
        if got != antibracket(R, a, model.pairs).scale(rat("-1/2")):
            fail("l3_obstruction_summand", mono)
        gh = a.ghost()
        plain = maps.l2_plain_op.apply(Series.basis(model, T, 0, mono))
        for c in dense_coeffs(plain):
            if not c.is_zero() and c.ghost() != gh + 1:
                fail("ghost_shift", mono)
    report["ok"] = all(report[k] for k in
                       ("s_squared", "l3_obstruction_summand", "ghost_shift",
                        "ideal_preserved"))
    report["obstruction_R"] = R
    return report


def scale_values(ad, c):
    """Scale the generator values of a compiled (F, .) in place, so every
    stored operator that holds it applies (c F, .).  `row` keeps each
    monomial's image, so the mutation must come before the first row is
    read, or the kept images would still apply F."""
    assert not ad.table, "(F, .) was applied before its values were scaled"
    ad.values = {k: [(m, odd, c * v) for m, odd, v in vs]
                 for k, vs in ad.values.items()}


def scale_R(maps, m, c):
    maps.pair_brackets[m] = maps.pair_brackets[m].scale(c)
    scale_values(maps.ad_R[m], c)


def scale_S_table(maps, i, c):
    scale_values(maps.ad_S[i], c)


def negate_star_shift(maps, s):
    """Negate only the shift-s block of the stored star l2."""
    terms = dict(maps.l2_star_op.terms)
    terms[s] = [(-c, chain) for c, chain in terms[s]]
    maps.l2_star_op = type(maps.l2_star_op)(terms)


def set_l3_scalar(maps, c):
    """Give every term of the stored l3 the scalar c in place of -1/2; the
    obstruction summand that verify_theorem8 compares l3 with keeps its
    -1/2, so the two are scaled from different denominators."""
    maps.l3_op = type(maps.l3_op)({
        s: [(c, chain) for _c, chain in pairs]
        for s, pairs in maps.l3_op.terms.items()})


MUTATIONS = {
    "none": lambda maps: None,
    "R_2 x2": lambda maps: scale_R(maps, 2, 2),
    "R_2 negated": lambda maps: scale_R(maps, 2, -1),
    "R_2 table only x2": lambda maps: scale_values(maps.ad_R[2], 2),
    "S_1 table halved": lambda maps: scale_S_table(maps, 1, rat("1/2")),
    "S_0 table negated": lambda maps: scale_S_table(maps, 0, -1),
    "star shift 1 negated": lambda maps: negate_star_shift(maps, 1),
    "l3 scalar -1": lambda maps: set_l3_scalar(maps, -1),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("problem, maxdeg", [
    (("bv_two_ghost",), 3), (("bv_two_pair",), 4), (("bv_two_ghost", 3), 2)],
    ids=model_id)
def test_shift_sweep_matches_reference(problem, maxdeg, mutation):
    maps = theorem8_maps(bv_problem(*problem))
    MUTATIONS[mutation](maps)
    rep = verify_theorem8(maps, maxdeg=maxdeg)
    assert rep.pop("cases") > 0
    assert rep == reference_verify_theorem8(maps, maxdeg)
    if mutation == "none":
        assert rep["ok"]


def test_mutations_are_detected():
    """The mutations of the two-ghost maps break a check, so the equality
    above compares failing reports as well as passing ones.  Two pass mod
    t^3: negating S_0 alone leaves a valid deformation ((-S_0, -S_0) = 0 and
    (-S_0, S_1) = 0), and the star's shift-1 block only reaches t^3 (next
    test).  An l3 scalar of -1 fails the comparison with the -1/2 of the
    obstruction summand, although the sweep scales both to integers, and so
    does an l3 whose (R_2, .) alone is doubled: the summand's (R, .) is not
    the same map, so it keeps its own images."""
    passing = {"none", "S_0 table negated", "star shift 1 negated"}
    for name, mutate in MUTATIONS.items():
        maps = theorem8_maps(bv_problem("bv_two_ghost"))
        mutate(maps)
        rep = verify_theorem8(maps, maxdeg=2)
        assert rep["ok"] == (name in passing), name
        if name in ("l3 scalar -1", "R_2 table only x2"):
            assert rep["l3_obstruction_summand"] is False


def test_corruption_confined_to_one_shift_detected():
    """The shift-1 block of the star l2 acts on a* t^k with k >= n + 1 = 2,
    so it lands at t^3: invisible mod t^3, a failure of S^2 mod t^4."""
    maps = theorem8_maps(bv_problem("bv_two_ghost", trunc=3))
    negate_star_shift(maps, 1)
    rep = verify_theorem8(maps, maxdeg=2)
    assert not rep["s_squared"] and not rep["ok"]
    assert rep["l3_obstruction_summand"] and rep["ghost_shift"]
    assert rep["first_failure"][0] == "s_squared"
    assert rep["first_failure"][1][0] == "degree1"
    rep.pop("cases")
    assert rep == reference_verify_theorem8(maps, 2)


@pytest.mark.parametrize("problem, maxdeg", [
    (("bv_two_ghost",), 3), (("bv_two_pair",), 4), (("bv_two_pair", 5), 2)],
    ids=model_id)
def test_sweep_covers_every_basis_case(problem, maxdeg):
    maps = theorem8_maps(bv_problem(*problem))
    monos = maps.model.monomials(maxdeg)
    rep = verify_theorem8(maps, maxdeg=maxdeg)
    T, n = maps.T, maps.n
    assert rep["cases"] == len(monos) * (T + 1) + len(monos) * max(0, T - n)


def test_negative_star_shift_breaks_the_ideal():
    """A star l2 term at shift -1 moves a* t^(n+1) to t^n, out of the ideal
    t^(n+1) R[[t]].  TLinear refuses negative shifts, so the term is put
    into the stored terms of built maps."""
    maps = theorem8_maps(bv_problem("bv_two_ghost"))
    assert verify_theorem8(maps, maxdeg=2)["ideal_preserved"]
    maps.l2_star_op.terms[-1] = maps.l2_star_op.terms[0]
    rep = verify_theorem8(maps, maxdeg=2)
    assert rep["ideal_preserved"] is False and rep["ok"] is False
    assert rep["first_failure"] == ("ideal_preserved", -1)
    assert rep["s_squared"] is None and rep["cases"] == 0
