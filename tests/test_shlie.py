import os
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainext import shlie as shlie_mod
from chainext.complexes import compare_with_engine, verify_homotopy
from chainext.exactla import RatMatrix
from chainext.formats import load_lie
from chainext.lie import Cochain, LieAlgebra, ce_differential, nr_compose
from chainext.series import Series
from chainext.shlie import (
    _graded_unshuffle_sign, ShLieStructure, build_shlie,
    crosscheck_with_engine, l3_is_obstruction, master_relation,
    to_homotopy_data, variants_agree, verify_shlie,
)

from references import cochain_value, dense_coeffs, tshift

MODELS = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                      "models")


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


class NegatedMixedL2(ShLieStructure):
    def l2_10(self, xi, b):
        return super().l2_10(xi, b).scale(-1)


def build(alg, a1, N=4, variant="t2"):
    return build_shlie(alg, a1, N=N, variant=variant)


def test_trunc_series_basics():
    x = Series.basis(2, 3, 1, 0)
    assert dense_coeffs(x)[1] == [Fraction(1), Fraction(0)]
    y = tshift(x, 2)
    assert dense_coeffs(y)[3] == [Fraction(1), Fraction(0)]
    assert dense_coeffs(y)[1] == [0, 0]
    assert tshift(x, 3).is_zero()  # truncated away
    z = x.add(x.scale(Fraction(1, 2)))
    assert dense_coeffs(z)[1][0] == Fraction(3, 2)
    assert x.flat(1) == {0: Fraction(1)}
    assert tshift(x, 1).flat(1) == {2: Fraction(1)}
    assert Series(2, 3) == Series(2, 3)


def test_build_validations():
    alg = abelian3()
    a1 = obstructed_alpha1()
    with pytest.raises(ValueError):
        build_shlie(alg, a1, variant="weird")
    with pytest.raises(ValueError):
        build_shlie(alg, a1).as_variant("weird")
    assert build_shlie(alg, a1).as_variant("full").kmin == 0
    with pytest.raises(ValueError):
        build_shlie(alg, a1, N=2)
    h = heisenberg()
    bad = Cochain(3, 2, {(0, 2): [1, 0, 0]})
    assert not ce_differential(h, bad).is_zero()
    with pytest.raises(ValueError):
        build_shlie(h, bad)


def test_direct_construction_refuses_an_unknown_variant():
    """ShLieStructure checks its variant itself: an object built without
    build_shlie cannot report "t3" and behave as "full" (kmin 0)."""
    alg, a1 = abelian3(), obstructed_alpha1()
    with pytest.raises(ValueError, match="variant must be 't2' or 'full'"):
        ShLieStructure(alg, a1, 4, "t3")
    assert ShLieStructure(alg, a1, 4, "full").kmin == 0
    assert ShLieStructure(alg, a1, 4, "t2").kmin == 2


def test_structure_map_values():
    S = build(abelian3(), obstructed_alpha1())
    e = [Series.basis(3, 4, 0, i) for i in range(3)]
    v = S.l2_00(e[0], e[1])
    assert dense_coeffs(v)[0] == [0, 0, 0]
    assert dense_coeffs(v)[1] == [0, 0, Fraction(1)]
    # the composition (a1.a1)(e1,e2,e3) = -e3, so l3 = -t^2(...)  = +t^2 e3
    w = S.l3_000(e[0], e[1], e[2])
    assert dense_coeffs(w)[2] == [0, 0, Fraction(1)]
    assert all(dense_coeffs(w)[k] == [0, 0, 0] for k in (0, 1, 3, 4))
    # mixed map is the t-scaled starred copy
    xi = Series.basis(3, 4, 2, 0)
    m = S.l2_10(xi, e[1])
    assert dense_coeffs(m)[3] == [0, 0, Fraction(1)]
    # l1 is star removal
    assert S.l1(xi) == Series.basis(3, 4, 2, 0)


def test_t2_variant_grading_enforced():
    S = build(abelian3(), obstructed_alpha1(), variant="t2")
    low = Series.basis(3, 4, 1, 0)
    with pytest.raises(ValueError):
        S.l1(low)
    with pytest.raises(ValueError):
        S.l2_10(low, Series.basis(3, 4, 0, 1))


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
    alg = so3()
    S = NegatedMixedL2(alg, coboundary(alg), 4, "t2")
    rep = verify_shlie(S)
    assert not rep["relation_63"] and not rep["ok"]


def test_l3_is_obstruction_and_zero_case():
    for alg, a1 in fixtures():
        assert l3_is_obstruction(build(alg, a1))
    S = build(so3(), Cochain(3, 2, {}))
    e = [Series.basis(3, 4, 0, i) for i in range(3)]
    assert S.l3_000(e[0], e[1], e[2]).is_zero()


def test_t_linearity():
    """l_i(t^k x, ...) = t^k l_i(x, ...) on generators for k + 2 <= N."""
    for S in (build(abelian3(), obstructed_alpha1()),
              build(so3(), coboundary(so3()))):
        assert_t_linear(S)


def assert_t_linear(S):
    dim, N = S.alg.dim, S.N
    gens = [Series.basis(dim, N, 0, i) for i in range(dim)]
    for k in range(N - 1):
        for i in range(dim):
            xi0 = Series.basis(dim, N, S.kmin, i)
            assert S.l1(tshift(xi0, k)) == tshift(S.l1(xi0), k)
            a0 = gens[i]
            for b in gens:
                assert S.l2_00(tshift(a0, k), b) == tshift(S.l2_00(a0, b), k)
                assert S.l2_00(b, tshift(a0, k)) == tshift(S.l2_00(b, a0), k)
                assert S.l2_10(tshift(xi0, k), b) == \
                    tshift(S.l2_10(xi0, b), k)
                for c in gens:
                    assert S.l3_000(tshift(a0, k), b, c) == \
                        tshift(S.l3_000(a0, b, c), k)


def test_variants_agree():
    alg, a1 = abelian3(), obstructed_alpha1()
    s_full = build(alg, a1, variant="full")
    s_t2 = build(alg, a1, variant="t2")
    assert variants_agree(s_full, s_t2)


def spied_mutant(S, mutated):
    """(copy of S, calls): l1, l2_10 and l3_000 append their names to
    calls, and the map named `mutated` adds t^3 e_1 to every value."""
    calls = []
    extra = Series.basis(S.alg.dim, S.N, 3, 0)

    def spy(name):
        real = getattr(ShLieStructure, name)

        def method(self, *args):
            calls.append(name)
            out = real(self, *args)
            return out.add(extra) if name == mutated else out
        return method
    cls = type("Spied", (ShLieStructure,),
               {name: spy(name) for name in ("l1", "l2_10", "l3_000")})
    return cls(S.alg, S.alpha1, S.N, S.variant, S.comp11), calls


@pytest.mark.parametrize("mutated", ["l1", "l2_10", "l3_000"])
def test_variants_agree_fails_at_a_changed_map(mutated):
    """variants_agree compares l1 on t^2 e_1*, then l2_10 on (t^2 e_1*, e_1),
    then l3_000 on (e_1, e_1, e_1), and so on.  A t2 map that adds t^3 e_1
    to every value differs at its first comparison, so the verdict is
    False and the calls end with that map's first one."""
    alg, a1 = abelian3(), obstructed_alpha1()
    s_full = build(alg, a1, variant="full")
    spied, _ = spied_mutant(build(alg, a1), None)
    assert variants_agree(s_full, spied)
    order = ["l1", "l2_10", "l3_000"]
    mutant, calls = spied_mutant(build(alg, a1), mutated)
    assert variants_agree(s_full, mutant) is False
    assert calls == order[:order.index(mutated) + 1]


def test_export_homotopy_data():
    S = build(abelian3(), obstructed_alpha1(), variant="t2")
    hd, _, _ = to_homotopy_data(S)
    assert hd.f_dim == 6  # A + A t survives in degree 0
    assert verify_homotopy(hd)["ok"]
    Sf = build(abelian3(), obstructed_alpha1(), variant="full")
    hf, _, _ = to_homotopy_data(Sf)
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
            elif alg.alpha0.is_zero():
                assert rep["curried_chain_extend"] is True
            else:
                assert rep["curried_chain_extend"] is None


def test_crosscheck_compares_each_curried_operator_on_x1_once(monkeypatch):
    """The engine's l2 on X_1 is the product s l2(., e_b) l1 that
    mixed_l2_matches compares with l2(., e_b), so compare_with_engine gets
    no closed block: a run makes one X_1 comparison per curried operator."""
    S = build(so3(), Cochain.zero(3, 2), variant="full")
    _, _, (_, x1) = to_homotopy_data(S)
    square = (len(x1), len(x1))
    seen = []
    real = RatMatrix.__eq__

    def counting(self, other):
        if isinstance(other, RatMatrix) and self.shape == other.shape == \
                square:
            seen.append(1)
        return real(self, other)
    monkeypatch.setattr(RatMatrix, "__eq__", counting)
    rep = crosscheck_with_engine(S)
    assert rep["ok"] and rep["curried_chain_extend"] is True
    assert len(seen) == S.alg.dim


def test_compare_with_engine_names_a_changed_shlie_entry():
    """In the full variant of so3, the curried l2(., e2) sends e1* to e3*,
    so the engine's l2 on X_1 has -1 from e1 to e3; the closed form
    -l2(., e2) with that entry changed to 1 is named in the witness, with
    the map, the degree, both labels and both values."""
    S = build(so3(), Cochain.zero(3, 2), variant="full")
    hd, _, (x0, x1) = to_homotopy_data(S)
    curried = S.l2_op({1: 1})
    closed = -curried.matrix(x1, x1, S.N)
    row, col = x1.index[(2, 0)], x1.index[(0, 0)]
    assert closed.entry(row, col) == -1
    closed += RatMatrix.from_blocks(*closed.shape,
                                    [(row, col, RatMatrix([[2]]))])
    rep = compare_with_engine(hd, curried.matrix(x0, x0, S.N), (x0, x1),
                              {("l2", 1): closed})
    assert rep == {"nilpotent": True, "ok": False,
                   "first_mismatch": ("l2", 1, "e3 t^0", "e1 t^0", -1, 1)}


def test_master_relation_structural_none():
    S = build(abelian3(), obstructed_alpha1())
    ones = [(1, Series.basis(3, 4, 2, i)) for i in range(3)]
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
            return (2, Series(self.alg.dim, self.N))
        return g_l3(self, x, y, z)

    monkeypatch.setattr(ShLieStructure, "g_l3", accepting)
    rep = verify_shlie(S)
    assert rep["relation_63"] and rep["relation_64"] and rep["relation_65"]
    assert rep["relation_66"] is False and not rep["ok"]
    assert rep["first_failure"] == ("relation_66", (0, 0, 1))


def class_count(d):
    """Sorted generator tuples (degree 0 first, no degree-0 generator twice)
    whose target degree sum(degs) + n - 3 is 0 or 1, for d = dim A.
    n = 2, degree sum 1 or 2: one degree-0 and one degree-1 generator (d^2),
    or two degree-1 generators, repeats allowed (d(d+1)/2).  n = 3, sum 0 or
    1: three distinct degree-0 generators (C(d,3)), or two distinct degree-0
    ones and one degree-1 (C(d,2) d).  n = 4, sum 0: four distinct degree-0
    generators (C(d,4)); sum 1 targets degree 2."""
    return d * d + d * (d + 1) // 2 + comb(d, 3) + d * comb(d, 2) + comb(d, 4)


def test_verify_counts_the_tuples_it_checks():
    assert class_count(3) == 25
    rep = verify_shlie(build(so3(), coboundary(so3())))
    assert rep["tuples"] == class_count(3)
    for name, d in (("lie_aff1", 2), ("lie_sl3", 8)):
        rep = verify_shlie(build(model(name), Cochain.zero(d, 2)))
        assert rep["ok"] and rep["tuples"] == class_count(d), name
    empty = LieAlgebra(0, {})
    rep = verify_shlie(build(empty, Cochain(0, 2, {})))
    assert rep["ok"] and rep["tuples"] == 0


def test_verify_calls_master_relation_only_on_counted_tuples(monkeypatch):
    """A tuple whose target degree leaves {0, 1} is filtered before
    master_relation, so each call is one counted tuple and none returns
    None (test_master_relation_structural_none keeps the None that
    master_relation gives a direct caller on such a tuple)."""
    results = []
    real = shlie_mod.master_relation

    def counted(S, elems, n):
        results.append(real(S, elems, n))
        return results[-1]
    monkeypatch.setattr(shlie_mod, "master_relation", counted)
    for alg, d in ((so3(), 3), (model("lie_sl3"), 8)):
        del results[:]
        rep = verify_shlie(build(alg, Cochain.zero(d, 2)))
        assert rep["ok"] and len(results) == rep["tuples"] == class_count(d)
        assert all(r is not None for r in results)


# -- the full product sweep as the reference ---------------------------------

def product_sweep(S):
    """The relation check over every ordered generator tuple, with no
    symmetry assumed: the sweep verify_shlie reduces."""
    gens = [(deg, Series.basis(S.alg.dim, S.N, k, i))
            for deg, k in ((0, 0), (1, S.kmin)) for i in range(S.alg.dim)]
    report = {"first_failure": None}
    for name, n in (("relation_63", 2), ("relation_64", 3),
                    ("relation_65", 4)):
        report[name] = True
        for tup in product(gens, repeat=n):
            r = master_relation(S, list(tup), n)
            if r is not None and not r.is_zero():
                report[name] = False
                if report["first_failure"] is None:
                    report["first_failure"] = (name,
                                               tuple(t[0] for t in tup))
                break
    bad = next((tup for tup in product(gens, repeat=3)
                if any(t[0] for t in tup) and S.g_l3(*tup) is not None), None)
    report["relation_66"] = bad is None
    if bad is not None and report["first_failure"] is None:
        report["first_failure"] = ("relation_66", tuple(t[0] for t in bad))
    report["ok"] = all(report[k] for k in RELATIONS)
    return report


RELATIONS = ("relation_63", "relation_64", "relation_65", "relation_66")
LIE_MODELS = ("lie_abelian2", "lie_abelian3", "lie_aff1", "lie_heisenberg",
              "lie_sl2", "lie_so3", "lie_sl3")


def assert_matches_product_sweep(S):
    """Same verdict and first failing relation as the full sweep; when l2
    and l3 are graded antisymmetric, the same verdict on every relation."""
    rep, ref = verify_shlie(S), product_sweep(S)
    assert rep["ok"] == ref["ok"], (rep, ref)
    if rep["graded_antisymmetry"]:
        assert all(rep[k] == ref[k] for k in RELATIONS), (rep, ref)
        assert (rep["first_failure"] or [None])[0] == \
            (ref["first_failure"] or [None])[0], (rep, ref)
    return rep


def model(name):
    return load_lie(read_model(name + ".txt"))


def read_model(name):
    with open(os.path.join(MODELS, name)) as fh:
        return fh.read()


def phi_coboundary(alg, seed):
    """d phi for a 1-cochain phi with small integer entries."""
    rng = random.Random(seed)
    phi = Cochain(alg.dim, 1, {(i,): [rng.randint(-2, 2)
                                      for _ in range(alg.dim)]
                               for i in range(alg.dim)})
    return ce_differential(alg, phi)


@pytest.mark.parametrize("name", LIE_MODELS)
@pytest.mark.parametrize("variant", ["t2", "full"])
def test_reduced_sweep_matches_product_sweep_on_models(name, variant):
    alg = model(name)
    cases = [Cochain.zero(alg.dim, 2)]
    if alg.dim <= 3:
        cases.append(phi_coboundary(alg, 7))
    for a1 in cases:
        rep = assert_matches_product_sweep(build(alg, a1, variant=variant))
        assert rep["ok"] and rep["graded_antisymmetry"], rep


class SymmetricL2(ShLieStructure):
    """l2_00 plus the symmetric t-bilinear map (a, b) -> a_0 b_0 e_1, where
    x_0 is the e_1 component."""
    def l2_00(self, a, b):
        out = super().l2_00(a, b)
        sym = [{} for _ in range(self.N + 1)]
        for k, ta in enumerate(a.terms):
            for m, tb in enumerate(b.terms[:self.N + 1 - k]):
                c = ta.get(0, 0) * tb.get(0, 0)
                if c:
                    sym[k + m] = {0: c}
        return out.add(Series.of_terms(self.alg.dim, self.N, sym))


def mutants(alg, a1, variant):
    """(label, structure) for the four mutants of one build."""
    def scaled_l3(c):
        S = build(alg, a1, variant=variant)
        S.comp11 = S.comp11.scale(c)
        return S
    return [("doubled l3", scaled_l3(2)), ("zeroed l3", scaled_l3(0)),
            ("negated mixed l2", NegatedMixedL2(alg, a1, 4, variant)),
            ("symmetric l2", SymmetricL2(alg, a1, 4, variant))]


@pytest.mark.parametrize("variant", ["t2", "full"])
def test_reduced_sweep_matches_product_sweep_on_mutants(variant):
    rejected = set()
    for alg, a1 in fixtures():
        obstructed = not nr_compose(a1, a1).is_zero()
        for label, S in mutants(alg, a1, variant):
            rep = assert_matches_product_sweep(S)
            if label == "symmetric l2":
                assert not rep["ok"] and not rep["graded_antisymmetry"]
                assert rep["first_failure"] == ("graded_antisymmetry", (0, 0))
            elif label == "negated mixed l2":
                assert not rep["relation_63"] and not rep["ok"]
            else:
                assert rep["graded_antisymmetry"]
                assert rep["ok"] == (not obstructed), (label, rep)
                if obstructed:
                    assert rep["first_failure"] == ("relation_64", (0, 0, 0))
            if not rep["ok"]:
                rejected.add(label)
    assert rejected == {"doubled l3", "zeroed l3", "negated mixed l2",
                        "symmetric l2"}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("lie_aff1", "lie_heisenberg", "lie_sl2", "lie_so3")),
       st.integers(0, 10 ** 6), st.sampled_from(("t2", "full")))
def test_reduced_sweep_matches_product_sweep_on_coboundaries(name, seed,
                                                            variant):
    """alpha1 = d phi for a random 1-cochain phi: a cocycle, so the
    relations hold, and both sweeps say so."""
    alg = model(name)
    rep = assert_matches_product_sweep(
        build(alg, phi_coboundary(alg, seed), variant=variant))
    assert rep["ok"], rep


def test_koszul_swap_is_the_sign_of_one_transposition():
    """The swap sign verify_shlie checks antisymmetry with, the sign
    master_relation gives the transposition of two inputs, is minus the
    Koszul sign (-1)^(|x||y|)."""
    assert [_graded_unshuffle_sign((1, 0), (dx, dy))
            for dx, dy in product((0, 1), repeat=2)] == [-1, -1, -1, 1]


def test_sl3_model_is_the_matrix_commutator():
    """lie_sl3's structure constants against [X, Y] = XY - YX of the 3x3
    matrices of its basis, in coordinates read off the matrix: the
    off-diagonal entries give the E_ij components, and a traceless diagonal
    diag(a, b, c) = a h1 + (a + b) h2 = a h1 - c h2."""
    def unit(i, j):
        return [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]

    def lin(x, y, s=1):
        return [[x[r][c] + s * y[r][c] for c in range(3)] for r in range(3)]

    def mul(x, y):
        return [[sum(x[r][k] * y[k][c] for k in range(3)) for c in range(3)]
                for r in range(3)]
    off = [(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)]
    basis = [lin(unit(0, 0), unit(1, 1), -1), lin(unit(1, 1), unit(2, 2), -1)]
    basis += [unit(i, j) for i, j in off]

    def coords(m):
        assert sum(m[i][i] for i in range(3)) == 0
        return [m[0][0], -m[2][2]] + [m[i][j] for i, j in off]
    alg = model("lie_sl3")
    assert alg.dim == 8
    nonzero = 0
    for i, j in combinations(range(8), 2):
        x, y = basis[i], basis[j]
        want = coords(lin(mul(x, y), mul(y, x), -1))
        assert cochain_value(alg.alpha0, (i, j)) == want, (i, j)
        nonzero += any(want)
    assert nonzero == 21


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
