import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainext import brst as brst_mod
from chainext import superalg
from chainext.brst import (
    BRSTExtension, ConstraintSystem, build_brst, check_nilpotent_on_basis,
    degree_jump, export_to_complexes, in_constraint_ideal, koszul_tate,
    monomial_basis, verify_brst_resolution,
)
from chainext.complexes import (check_l2_conditions, compare_with_engine,
                                verify_homotopy, verify_nilpotent)
from chainext.exactla import (Basis, RatMatrix, add_into, image, lowest,
                              operator_matrix as basis_matrix, solve)
from chainext.superalg import (SuperPoly, extend_right_derivation, mul,
                               poisson, right_deriv)

import references
from bundled import brst_system, model_id
from references import (antighost, columns_matrix, eta_project, homotopy_s,
                        lambda_tilde, longitudinal_d, nbar, psi, sigma)


def operator_matrix(ext, op_name, groups, k_from, shift):
    """Matrix of the extension's operator l1, l2 or l3 from basis group
    k_from to k_from + shift; a target group outside the groups is the zero
    space."""
    op = getattr(ext, op_name)
    k_to = k_from + shift
    dst = groups[k_to] if 0 <= k_to < len(groups) else []
    return superpoly_matrix(ext.sys, lambda _, f: op(f), groups[k_from], dst)


def superpoly_matrix(sys_, op, src, dst):
    """Matrix of the SuperPoly operator f -> op(sys_, f) from the monomial
    list src to dst: the reference for the compiled blocks."""
    return basis_matrix(
        lambda m: image(op(sys_, SuperPoly(sys_.alg, {m: 1})).terms),
        Basis(src), Basis(dst, lambda m: SuperPoly(sys_.alg, {m: 1})))


def test_koszul_tate_values():
    s3 = brst_system("brst_so3")
    P1, P2, G1, G2 = (s3.gen(n) for n in ("P1", "P2", "G1", "G2"))
    assert koszul_tate(s3, P1) == -G1
    got = koszul_tate(s3, mul(P1, P2))
    assert got == mul(G1, P2) - mul(P1, G2)
    assert koszul_tate(s3, koszul_tate(s3, mul(P1, P2))).is_zero()
    toy = brst_system("brst_toy")
    x = toy.gen("x1")
    f = mul(mul(mul(x, x), x), toy.gen("eta1"))
    assert koszul_tate(toy, f).is_zero()


def test_longitudinal_so3():
    s3 = brst_system("brst_so3")
    G2, G3 = s3.gen("G2"), s3.gen("G3")
    e1, e2, e3 = (s3.gen("eta%d" % i) for i in (1, 2, 3))
    assert longitudinal_d(s3, s3.gen("G1")) == mul(G3, e2) - mul(G2, e3)
    assert longitudinal_d(s3, e1) == -mul(e2, e3)
    for name in s3.gs + s3.etas + s3.ps:
        assert longitudinal_d(s3, longitudinal_d(s3, s3.gen(name))).is_zero()


def test_longitudinal_toy_d_squared():
    toy = brst_system("brst_toy")
    G1, G2 = toy.gen("G1"), toy.gen("G2")
    e1, e2 = toy.gen("eta1"), toy.gen("eta2")
    dd = longitudinal_d(toy, longitudinal_d(toy, G2))
    assert dd == -mul(mul(G1, e1), e2)
    # agreement with the index-summed formula -1/2 [f, C^c_ab] G_c eta^b eta^a
    f = G2
    want = SuperPoly.zero(toy.alg)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                cab = toy.structure_fn(c, a, b)
                term = mul(poisson(f, cab, toy.table), toy.gen(toy.gs[c]))
                term = mul(mul(term, toy.gen(toy.etas[b])),
                           toy.gen(toy.etas[a]))
                want = want + term.scale(Fraction(-1, 2))
    assert dd == want
    # d^2 lands in the constraint ideal on every antighost-0 basis monomial
    for mono in monomial_basis(toy, 3)[0]:
        f = SuperPoly(toy.alg, {mono: 1})
        assert in_constraint_ideal(
            toy, longitudinal_d(toy, longitudinal_d(toy, f)).terms)


def test_homotopy_pieces():
    s3 = brst_system("brst_so3")
    P1, G1, G2 = s3.gen("P1"), s3.gen("G1"), s3.gen("G2")
    pg = mul(P1, G2)
    assert psi(s3, pg) == pg.scale(Fraction(-1, 2))
    assert homotopy_s(s3, G1) == P1
    assert homotopy_s(s3, mul(G1, s3.gen("eta2"))) == \
        mul(s3.gen("eta2"), s3.gen("P1"))
    assert homotopy_s(s3, mul(s3.gen("eta1"), s3.gen("eta2"))).is_zero()
    lhs = koszul_tate(s3, sigma(s3, pg)) + sigma(s3, koszul_tate(s3, pg))
    assert lhs == pg.scale(2) == nbar(s3, pg)


def test_lambda_tilde_projection():
    s3 = brst_system("brst_so3")
    g1e2 = mul(s3.gen("G1"), s3.gen("eta2"))
    assert lambda_tilde(s3, g1e2).is_zero()
    toy = brst_system("brst_toy")
    x2 = mul(toy.gen("x1"), toy.gen("x1"))
    assert lambda_tilde(toy, x2) == x2
    assert eta_project(toy, x2 + mul(x2, toy.gen("G1"))) == x2


def test_verify_resolution():
    assert verify_brst_resolution(brst_system("brst_so3"), cap=3)["ok"]
    assert verify_brst_resolution(brst_system("brst_toy"), cap=3)["ok"]
    assert verify_brst_resolution(brst_system("brst_abelian"), cap=3)["ok"]


def test_constraint_system_rejects_non_first_class():
    proto = ConstraintSystem(1, 2, {}, {})
    table = {("G1", "G2"): SuperPoly.const(proto.alg, 1)}
    with pytest.raises(ValueError):
        ConstraintSystem(1, 2, table, {})
    bad_structure = {(0, 1): [proto.gen("eta1"), SuperPoly.zero(proto.alg)]}
    with pytest.raises(ValueError):
        ConstraintSystem(1, 2, {}, bad_structure)


STRUCTURE_KEYS = ("structure functions must be keyed by a<b with one entry "
                  "per constraint")


@pytest.mark.parametrize("structure", [
    lambda z: {(1, 0): [z, z]},
    lambda z: {(0, 2): [z, z]},
    lambda z: {(0, 1): [z]},
], ids=["a > b", "b out of range", "one entry short"])
def test_constraint_system_structure_key_guard(structure):
    zero = SuperPoly.zero(ConstraintSystem(1, 2, {}, {}).alg)
    with pytest.raises(ValueError) as err:
        ConstraintSystem(1, 2, {}, structure(zero))
    assert err.value.args == (STRUCTURE_KEYS,)


def test_in_constraint_ideal():
    toy = brst_system("brst_toy")
    x, G1 = toy.gen("x1"), toy.gen("G1")
    assert in_constraint_ideal(toy, mul(x, G1).terms)
    assert in_constraint_ideal(toy, SuperPoly.zero(toy.alg).terms)
    assert not in_constraint_ideal(toy, (mul(x, x) + G1).terms)


def ideal_member_by_solve(sys_, f):
    """Reference: solve for f in the span of its own monomials that carry a
    G factor."""
    monos = sorted(f.terms)
    if not monos:
        return True
    cols = [[Fraction(int(i == j)) for i in range(len(monos))]
            for j, m in enumerate(monos) if sys_.has_constraint_factor(m)]
    if not cols:
        return False
    mat = columns_matrix(cols, len(monos))
    return solve(mat, columns_matrix([[f.terms[m] for m in monos]],
                                     len(monos))) is not None


def test_in_constraint_ideal_matches_solve_reference():
    checked = members = 0
    for sys_ in (brst_system("brst_toy"), brst_system("brst_so3")):
        for mono in monomial_basis(sys_, 3)[0]:
            df = longitudinal_d(sys_, SuperPoly(sys_.alg, {mono: 1}))
            for f in (df, longitudinal_d(sys_, df)):
                want = ideal_member_by_solve(sys_, f)
                assert in_constraint_ideal(sys_, f.terms) == want, (mono, f)
                checked += 1
                members += want
    toy = brst_system("brst_toy")
    x, G1 = toy.gen("x1"), toy.gen("G1")
    f = mul(x, x) + G1
    assert not ideal_member_by_solve(toy, f)
    assert not in_constraint_ideal(toy, f.terms)
    assert 0 < members < checked


def test_build_so3_closed_forms():
    s3 = brst_system("brst_so3")
    ext = build_brst(s3, degree_cap=3)
    # l2(P_a) = -sum_bd C^d_ab eta^b P_d for constant structure constants
    for a in range(3):
        want = SuperPoly.zero(s3.alg)
        for b in range(3):
            for d in range(3):
                coeff = s3.structure_fn(d, a, b)
                want = want - mul(mul(coeff, s3.gen(s3.etas[b])),
                                  s3.gen(s3.ps[d]))
        assert ext.l2(s3.gen(s3.ps[a])) == want
    assert ext.l2(s3.gen("P1")) == \
        mul(s3.gen("P3"), s3.gen("eta2")) - mul(s3.gen("P2"), s3.gen("eta3"))
    groups = monomial_basis(s3, 2)
    for k in range(len(groups)):
        assert operator_matrix(ext, "l3", groups, k, 1).is_zero()


def test_build_toy_l3_nonzero_matches_definition():
    toy = brst_system("brst_toy")
    ext = build_brst(toy, degree_cap=4)
    G2 = toy.gen("G2")
    e1e2P1 = mul(mul(toy.gen("eta1"), toy.gen("eta2")), toy.gen("P1"))
    assert ext.l3(G2) == -e1e2P1
    # the defining recursion, recomputed without the extension object
    for f in (G2, mul(toy.gen("x1"), G2), mul(G2, toy.gen("eta1"))):
        want = homotopy_s(toy, longitudinal_d(toy, longitudinal_d(toy, f)))
        assert ext.l3(f) == want
    for name in toy.ps + toy.etas:
        assert ext.l3(toy.gen(name)).is_zero()


def test_build_abelian_trivial():
    ab = brst_system("brst_abelian")
    ext = build_brst(ab, degree_cap=3)
    groups = monomial_basis(ab, 3)
    for k in range(len(groups)):
        assert operator_matrix(ext, "l3", groups, k, 1).is_zero()
    for mono in groups[0] + groups[1]:
        f = SuperPoly(ab.alg, {mono: 1})
        assert ext.l2(f) == longitudinal_d(ab, f)
        assert ext.total(f) == koszul_tate(ab, f) + longitudinal_d(ab, f)


def test_nilpotent_on_basis():
    for model, cap in (("brst_toy", 4), ("brst_so3", 3)):
        ext = BRSTExtension(brst_system(model))
        assert check_nilpotent_on_basis(ext, cap) is None


@pytest.mark.parametrize("model", ["brst_so3", "brst_toy", "brst_abelian"],
                         ids=model_id)
def test_d_values_are_the_poisson_brackets_with_the_constraints(model):
    """ConstraintSystem reads d x and d G off the validated table; here each
    is built by poisson on the model's table: d y = sum_b [y, G_b] eta^b."""
    sys_ = brst_system(model)
    for name in sys_.xs + sys_.gs:
        want = SuperPoly.zero(sys_.alg)
        for g, e in zip(sys_.gs, sys_.etas):
            want = want + mul(poisson(sys_.gen(name), sys_.gen(g),
                                      sys_.table), sys_.gen(e))
        assert sys_.d_vals[name] == want, name


@pytest.mark.parametrize("model,cap", [("brst_so3", 3), ("brst_so3", 4),
                                       ("brst_so3", 5), ("brst_toy", 4),
                                       ("brst_toy", 6), ("brst_abelian", 3)])
def test_nilpotent_report_holds_every_key(model, cap, monkeypatch):
    """The whole verify_nilpotent report inside check_nilpotent_on_basis:
    l2 is nonzero only on antighost 0 and 1 and l3 only on antighost 0, so
    both vanishing keys hold along with l^2 = 0."""
    reports = []

    def recording(ext_):
        reports.append(verify_nilpotent(ext_))
        return reports[-1]

    monkeypatch.setattr(brst_mod, "verify_nilpotent", recording)
    assert check_nilpotent_on_basis(
        BRSTExtension(brst_system(model)), cap) is None
    (rep,) = reports
    assert rep["ok"] and rep["first_failure"] is None
    assert rep["l2_vanishes_above_degree_1"]
    assert rep["l3_vanishes_above_degree_0"]


def test_basis_counts_and_jump():
    s3 = brst_system("brst_so3")
    assert degree_jump(s3) == 0
    assert sum(len(g) for g in monomial_basis(s3, 3)) == 504
    toy = brst_system("brst_toy")
    assert degree_jump(toy) == 1
    assert sum(len(g) for g in monomial_basis(toy, 4)) == 192


def test_export_matches_engine_entrywise():
    for sys_, cap in ((brst_system("brst_so3"), 3),
                      (brst_system("brst_toy"), 4),
                      (brst_system("brst_abelian"), 3)):
        hd, l2_0, bases = export_to_complexes(sys_, cap)
        groups = [b.labels for b in bases]
        free = [m for m in groups[0] if not sys_.has_constraint_factor(m)]
        assert hd.eta == superpoly_matrix(sys_, eta_project, groups[0], free)
        assert hd.lam == superpoly_matrix(sys_, lambda _, f: f, free,
                                          groups[0])
        assert verify_homotopy(hd)["ok"]
        assert check_l2_conditions(hd, l2_0, hd.eta @ l2_0 @ hd.lam)["ok"]
        assert compare_with_engine(hd, l2_0, bases, closed_blocks(
            build_brst(sys_, degree_cap=cap), groups)) == \
            {"nilpotent": True, "first_mismatch": None, "ok": True}


def closed_blocks(ext, groups):
    """The l2 and l3 blocks of a BRSTExtension on every basis group, as
    SuperPoly images: the closed forms the engine is compared with."""
    return {(name, k): operator_matrix(ext, name, groups, k, shift)
            for k in range(len(groups)) for name, shift in (("l2", 0),
                                                            ("l3", 1))}


def test_compare_with_engine_names_a_changed_brst_entry():
    """One entry of build_brst's l3 on antighost 0 of brst_toy changed from
    -1 to 1: the witness names the map, the degree, both monomials and both
    values."""
    sys_ = brst_system("brst_toy")
    hd, l2_0, bases = export_to_complexes(sys_, 4)
    groups = [b.labels for b in bases]
    closed = closed_blocks(build_brst(sys_, degree_cap=4), groups)
    row, col = (groups[k].index(tuple(sys_.alg.index[g] for g in names))
                for k, names in ((1, ("x1", "eta1", "eta2", "P1")),
                                 (0, ("x1", "G2"))))
    l3 = closed[("l3", 0)]
    assert l3.entry(row, col) == -1
    closed[("l3", 0)] = l3 + RatMatrix.from_blocks(
        *l3.shape, [(row, col, RatMatrix([[2]]))])
    assert compare_with_engine(hd, l2_0, bases, closed) == {
        "nilpotent": True, "ok": False,
        "first_mismatch": ("l3", 0, "1*x1eta1eta2P1", "1*x1G2", -1, 1)}


def test_operator_matrix_escape_is_loud():
    toy = brst_system("brst_toy")
    ext = BRSTExtension(toy)
    groups = monomial_basis(toy, 3)
    fake = [list(groups[0]), [m for m in groups[1]
                              if toy.xgp_degree(m) < 2], list(groups[2])]
    with pytest.raises(ValueError):
        operator_matrix(ext, "l2", fake, 1, 0)


# -- property tests over the capped bases ------------------------------------

SYSTEMS = {"so3": brst_system("brst_so3"), "toy": brst_system("brst_toy")}
BASES = {name: [m for g in monomial_basis(sys_, 3) for m in g]
         for name, sys_ in SYSTEMS.items()}
_examples = settings(max_examples=40, deadline=None)


@st.composite
def combos(draw, name, max_terms=5):
    """A random rational combination of basis monomials of one system."""
    terms = draw(st.lists(st.tuples(
        st.sampled_from(BASES[name]),
        st.fractions(min_value=-3, max_value=3, max_denominator=3)),
        max_size=max_terms))
    return SuperPoly(SYSTEMS[name].alg, dict(terms))


def sigma_reference(sys_, F):
    """The Koszul homotopy as a sum over constraints,
    -sum_a (d^R F / d G_a) P_a."""
    out = SuperPoly.zero(sys_.alg)
    for g, p in zip(sys_.gs, sys_.ps):
        out = out - mul(right_deriv(F, g), sys_.gen(p))
    return out


def homotopy_reference(sys_, F):
    """s = sigma . psi one monomial at a time: sigma(-c m / k) on each term
    c m of combined (P, G)-degree k > 0."""
    out = SuperPoly.zero(sys_.alg)
    for m, c in F.terms.items():
        k = sys_.pg_degree(m)
        if k:
            out = out + sigma_reference(sys_, SuperPoly(sys_.alg, {m: -c / k}))
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@_examples
@given(data=st.data())
def test_sigma_matches_the_constraint_sum(name, data):
    sys_ = SYSTEMS[name]
    F = data.draw(combos(name))
    assert sigma(sys_, F) == sigma_reference(sys_, F)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@_examples
@given(data=st.data())
def test_homotopy_is_sigma_after_psi(name, data):
    sys_ = SYSTEMS[name]
    F = data.draw(combos(name))
    assert homotopy_s(sys_, F) == sigma(sys_, psi(sys_, F)) == \
        homotopy_reference(sys_, F)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@_examples
@given(data=st.data())
def test_extension_operators_are_linear(name, data):
    sys_ = SYSTEMS[name]
    f = data.draw(combos(name))
    # g cancels a drawn subset of f's terms and adds terms of its own
    keep = data.draw(st.lists(st.booleans(), min_size=len(f.terms),
                              max_size=len(f.terms)))
    cancel = SuperPoly(sys_.alg, {m: -c for (m, c), k in
                                  zip(sorted(f.terms.items()), keep) if k})
    g = cancel + data.draw(combos(name, max_terms=3))
    a = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
    ext = BRSTExtension(sys_)
    for op in (ext.l2, ext.l3, ext.total):
        assert op(f + g) == op(f) + op(g)
        assert op(f.scale(a)) == op(f).scale(a)


def double_block_s(monkeypatch):
    """s doubled in the blocks: the s block is the sigma block times psi's
    diagonal, so psi's diagonal is doubled."""
    real = brst_mod._psi_diagonal
    monkeypatch.setattr(brst_mod, "_psi_diagonal",
                        lambda sys_, group: real(sys_, group).scale(2))


@pytest.mark.parametrize("model, cap, first", [
    ("brst_so3", 3, ("lambda_tilde_kills_ideal", (0,))),          # G1
    ("brst_toy", 3, ("lambda_tilde_kills_ideal", (0, 0, 1, 3, 4))),
], ids=model_id)
def test_doubled_homotopy_fails_both_degree0_keys(model, cap, first,
                                                  monkeypatch):
    """With s doubled, lambda~ f = f + 2 delta s f = -f on a monomial with a
    G factor: the ideal test and the degree-0 homotopy identity both fail,
    and the first failure is the one recorded before the two tests were
    merged into one comparison."""
    double_block_s(monkeypatch)
    rep = verify_brst_resolution(brst_system(model), cap=cap)
    assert rep["lambda_tilde_kills_ideal"] is False
    assert rep["homotopy_identity"] is False
    assert rep["delta_squared"] and rep["nbar_identity"] and not rep["ok"]
    assert rep["first_failure"] == first


# -- the block route against the per-monomial sweeps -------------------------

def verify_per_monomial(sys_, cap):
    """verify_brst_resolution as a sweep of SuperPoly operators over every
    basis monomial, the route the block products replaced.  Operators are
    looked up on their modules, so a monkeypatched koszul_tate or homotopy_s
    reaches it."""
    B, R = brst_mod, references
    keys = ("delta_squared", "nbar_identity", "lambda_tilde_kills_ideal",
            "homotopy_identity")
    report = dict.fromkeys(keys, True)
    report["first_failure"] = None

    def fail(key, mono):
        report[key] = False
        if report["first_failure"] is None:
            report["first_failure"] = (key, mono)

    for k, group in enumerate(B.monomial_basis(sys_, cap)):
        for mono in group:
            f = SuperPoly(sys_.alg, {mono: 1})
            df = B.koszul_tate(sys_, f)
            dsf = B.koszul_tate(sys_, R.homotopy_s(sys_, f))
            if not B.koszul_tate(sys_, df).is_zero():
                fail("delta_squared", mono)
            if B.koszul_tate(sys_, R.sigma(sys_, f)) + R.sigma(sys_, df) != \
                    R.nbar(sys_, f):
                fail("nbar_identity", mono)
            if k == 0:
                if R.eta_project(sys_, f) != f + dsf:
                    if sys_.has_constraint_factor(mono):
                        fail("lambda_tilde_kills_ideal", mono)
                    fail("homotopy_identity", mono)
            elif dsf + R.homotopy_s(sys_, df) != f.scale(-1):
                fail("homotopy_identity", mono)
    report["ok"] = all(report[k] for k in keys)
    return report


def nilpotent_per_monomial(ext, cap):
    """check_nilpotent_on_basis as total(total(f)) on every basis monomial."""
    for group in brst_mod.monomial_basis(ext.sys, cap):
        for mono in group:
            f = SuperPoly(ext.sys.alg, {mono: 1})
            if not ext.total(ext.total(f)).is_zero():
                return mono
    return None


def double_s(monkeypatch, systems):
    """s doubled on every route: psi's diagonal for the blocks, homotopy_s
    for the sweeps and BRSTExtension._s for the integer l2/l3 recursion."""
    double_block_s(monkeypatch)
    real = references.homotopy_s
    monkeypatch.setattr(references, "homotopy_s",
                        lambda sys_, f: real(sys_, f).scale(2))
    real_s = BRSTExtension._s

    def doubled(self, terms, den):
        img, d = real_s(self, terms, den)
        return lowest({m: 2 * c for m, c in img.items()}, d)
    monkeypatch.setattr(BRSTExtension, "_s", doubled)


def patch_rule(monkeypatch, cache, change):
    """BRSTExtension._rule with the image that it stores in cache
    ("_l2_cache" or "_l3_cache") for mono replaced by change(self, mono,
    image), before any other rule reads it."""
    real = BRSTExtension._rule

    def rule(self, mono):
        real(self, mono)
        images = getattr(self, cache)
        images[mono] = change(self, mono, images[mono])
    monkeypatch.setattr(BRSTExtension, "_rule", rule)


def negate_l3(monkeypatch, systems):
    """The integer l3 rule negated on every monomial."""
    patch_rule(monkeypatch, "_l3_cache", lambda self, mono, img: (
        {m: -c for m, c in img[0].items()}, img[1]))


def scale_delta_on_p1(monkeypatch, systems):
    """delta P1 = -2 G1 instead of -G1, on every system: koszul_tate for the
    blocks and the sweeps, and the compiled delta of the integer recursion."""
    def doubled(sys_, f):
        values = dict(sys_.delta_vals, P1=sys_.delta_vals["P1"].scale(2))
        return extend_right_derivation(f, values, parity=1)
    monkeypatch.setattr(brst_mod, "koszul_tate", doubled)
    real_apply = brst_mod._apply

    def apply(sys_, name, terms, den=1):
        if name != "delta":
            return real_apply(sys_, name, terms, den)
        f = SuperPoly(sys_.alg, {m: Fraction(c, den) for m, c in terms.items()})
        return image(doubled(sys_, f).terms)
    monkeypatch.setattr(brst_mod, "_apply", apply)


MUTATIONS = {"none": lambda mp, systems: None, "double_s": double_s,
             "negate_l3": negate_l3, "scale_delta_P1": scale_delta_on_p1}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("model, cap", [("brst_so3", 3), ("brst_so3", 4),
                                        ("brst_toy", 3), ("brst_toy", 4)],
                         ids=model_id)
def test_block_route_matches_per_monomial_sweeps(model, cap, mutation,
                                                 monkeypatch):
    ref_sys, sys_ = brst_system(model), brst_system(model)
    MUTATIONS[mutation](monkeypatch, (ref_sys, sys_))
    want = verify_per_monomial(ref_sys, cap)
    assert verify_brst_resolution(sys_, cap) == want
    offender = nilpotent_per_monomial(BRSTExtension(ref_sys), cap)
    assert check_nilpotent_on_basis(BRSTExtension(sys_), cap) == offender
    # each mutation breaks what it should, so the comparison is not vacuous
    assert want["ok"] == (mutation in ("none", "negate_l3"))
    l3_zero = model == "brst_so3"
    assert (offender is None) == (mutation == "none"
                                  or (mutation == "negate_l3" and l3_zero))


# -- the integer kernel against the Fraction reference -----------------------

class FractionExtension:
    """l2 and l3 as the per-monomial rules on SuperPoly, each image summed
    in Fractions: the route the integer kernel of BRSTExtension replaced."""

    def __init__(self, sys_):
        self.sys = sys_
        self._l2_cache = {}
        self._l3_cache = {}

    def _linear(self, cache, rule, f):
        out = {}
        for m, c in f.terms.items():
            img = cache.get(m)
            if img is None:
                img = cache[m] = rule(SuperPoly(self.sys.alg, {m: 1}))
            add_into(out, img.terms, c)
        return SuperPoly(self.sys.alg, out)

    def _l2_rule(self, f):
        if antighost(f) == 0:
            return longitudinal_d(self.sys, f)
        return homotopy_s(self.sys, self.l2(koszul_tate(self.sys, f)))

    def _l3_rule(self, f):
        g = self.l2(self.l2(f))
        if antighost(f):
            g = g + self.l3(koszul_tate(self.sys, f))
        return homotopy_s(self.sys, g)

    def l2(self, f):
        return self._linear(self._l2_cache, self._l2_rule, f)

    def l3(self, f):
        return self._linear(self._l3_cache, self._l3_rule, f)


def beyond_the_basis(sys_, basis):
    """A monomial whose (P, G)-degree is one above every monomial of basis:
    G1^top P1 eta1 times each coordinate once."""
    top = max(sys_.pg_degree(m) for m in basis)
    idx = sys_.alg.index
    return tuple(sorted([idx["G1"]] * top + [idx["P1"], idx["eta1"]]
                        + [idx[x] for x in sys_.xs]))


@pytest.mark.parametrize("model, cap", [("brst_so3", 4), ("brst_toy", 5),
                                        ("brst_abelian", 3)], ids=model_id)
def test_integer_kernel_matches_fraction_reference(model, cap):
    sys_ = brst_system(model)
    basis = [m for g in monomial_basis(sys_, cap) for m in g]
    far = beyond_the_basis(sys_, basis)
    assert sys_.pg_degree(far) > max(sys_.pg_degree(m) for m in basis)
    ext, ref = BRSTExtension(sys_), FractionExtension(sys_)
    nonzero = 0
    for mono in basis + [far]:
        f = SuperPoly(sys_.alg, {mono: 1})
        for op, want in ((ext.l2, ref.l2(f)), (ext.l3, ref.l3(f))):
            got = op(f)
            assert got == want, mono
            assert all(type(c) is Fraction for c in got.terms.values())
            nonzero += not got.is_zero()
    # brst_abelian has l2 = d = 0 and l3 = 0 on every monomial
    assert bool(nonzero) == bool(sys_.structure)
    # the kernel keeps every image as {monomial: int} over a denominator, in
    # lowest terms
    for cache in (ext._l2_cache, ext._l3_cache):
        for terms, den in cache.values():
            assert type(den) is int and den > 0
            assert all(type(c) is int and c for c in terms.values())
            assert gcd(den, *terms.values()) == 1
    # a combination with rational coefficients goes the same way
    g = SuperPoly(sys_.alg, {basis[-1]: Fraction(2, 3), far: Fraction(-5, 7)})
    assert ext.l2(g) == ref.l2(g) and ext.l3(g) == ref.l3(g)


def test_integer_kernel_keeps_exact_denominators():
    """psi's -1/k puts denominators into the images: on toy, l2 of
    x1 G1 eta1 P2 has denominator 2 and l3 of G1 G2 G2 denominator 3, the
    lcm of their coefficients' denominators; both agree with the Fraction
    reference."""
    toy = brst_system("brst_toy")
    ext, ref = BRSTExtension(toy), FractionExtension(toy)
    for op, names, den in (("l2", ("x1", "G1", "eta1", "P2"), 2),
                           ("l3", ("G1", "G2", "G2"), 3)):
        f = SuperPoly(toy.alg, {tuple(sorted(toy.alg.index[x]
                                             for x in names)): 1})
        got = getattr(ext, op)(f)
        assert got == getattr(ref, op)(f)
        assert lcm(*(c.denominator for c in got.terms.values())) == den


BLOCK_OPERATORS = {"delta": (koszul_tate, -1), "sigma": (sigma, 1),
                   "s": (homotopy_s, 1), "d": (longitudinal_d, 0)}


def refuse(*args, **kwargs):
    raise AssertionError("the block route went through SuperPoly")


@pytest.mark.parametrize("model, cap", [("brst_so3", 4), ("brst_toy", 5),
                                        ("brst_abelian", 3)], ids=model_id)
def test_compiled_blocks_match_the_superpoly_route(model, cap, monkeypatch):
    """Every delta/sigma/s/d block equals the matrix of the SuperPoly
    operator on the same groups.  The blocks are built with SuperPoly and
    extend_right_derivation refused in brst, the compiled derivations are
    applied once per column of the delta, sigma and d blocks, and the s
    blocks, built first, apply none of their own: each is the sigma block
    times psi's diagonal."""
    sys_ = brst_system(model)
    bases = brst_mod._group_bases(sys_, cap)
    groups = [b.labels for b in bases[:-1]]
    applied = []
    real_apply = brst_mod._apply

    def counting(sys_, name, terms, den=1):
        applied.append(name)
        return real_apply(sys_, name, terms, den)

    with monkeypatch.context() as mp:
        mp.setattr(brst_mod, "SuperPoly", refuse)
        mp.setattr(brst_mod, "extend_right_derivation", refuse)
        mp.setattr(brst_mod, "_apply", counting)
        blocks = {(name, k): brst_mod._block(sys_, cap, name, k)
                  for name in ("s", "delta", "sigma", "d")
                  for k in range(len(groups))}
    size = sum(map(len, groups))
    assert sorted(applied) == sorted(["d"] * size + ["delta"] * size
                                     + ["sigma"] * size)
    ref = brst_system(model)
    for (name, k), blk in blocks.items():
        op, shift = BLOCK_OPERATORS[name]
        dst = bases[k + shift].labels
        assert blk == superpoly_matrix(ref, op, groups[k], dst), (name, k)
    nonzero = {name for (name, k), blk in blocks.items() if not blk.is_zero()}
    assert nonzero == ({"delta", "sigma", "s", "d"} if sys_.structure
                       else {"delta", "sigma", "s"})


def test_build_and_sweep_derive_each_monomial_at_most_twice(monkeypatch):
    """build_brst and then check_nilpotent_on_basis on brst_so3 at cap 5
    derive each monomial at most twice through delta and through d: once
    for its block column and once in BRSTExtension's rule, which takes l2
    and l3 from one delta image (on antighost 0, one d image).  sigma,
    which s applies to whole images, keeps its count.  Each derivation is
    told apart by its values dict, which the system keeps alive."""
    sys_ = brst_system("brst_so3")
    sizes = [len(g) for g in monomial_basis(sys_, 5)]
    assert sizes == [448, 840, 480, 80]
    names = {id(der.values): name for name, der in sys_.compiled.items()}
    derived = {name: Counter() for name in sys_.compiled}
    derive = superalg._derive

    def counted(terms, vals, *rest):
        if id(vals) in names:
            derived[names[id(vals)]].update(terms.keys())
        return derive(terms, vals, *rest)
    monkeypatch.setattr(superalg, "_derive", counted)
    assert check_nilpotent_on_basis(build_brst(sys_, 5), 5) is None
    totals = {name: sum(c.values()) for name, c in derived.items()}
    assert totals == {"delta": sum(sizes) + sum(sizes[1:]),
                      "d": 2 * sizes[0], "sigma": 3963}
    assert (totals["delta"], totals["d"]) == (3248, 896)
    assert max(derived["delta"].values()) == 2
    assert max(derived["d"].values()) == 2


def test_checked_system_cannot_change_under_its_blocks():
    """The blocks cached on a system are built from its generator values,
    so after a first check neither a value nor an attribute can change."""
    s = brst_system("brst_so3")
    assert verify_brst_resolution(s, 3)["ok"]
    with pytest.raises(TypeError):
        s.delta_vals["P1"] = s.delta_vals["P1"].scale(2)
    for vals in (s.sigma_vals, s.d_vals):
        name = next(iter(vals))
        with pytest.raises(TypeError):
            vals[name] = vals[name].scale(2)
    with pytest.raises(TypeError):
        s.compiled["d"] = s.compiled["delta"]
    for attr in ("delta_vals", "compiled", "table", "_bases"):
        with pytest.raises(AttributeError):
            setattr(s, attr, {})
    assert verify_brst_resolution(s, 3)["ok"]


@pytest.mark.parametrize("model, cap, k, mono", [
    ("brst_so3", 3, 0, (0,)),                  # G1 = -delta P1
    ("brst_toy", 4, 1, (1, 6)),                # G1 P2, a term of delta(P1 P2)
], ids=model_id)
def test_removed_basis_monomial_raises_naming_it(model, cap, k, mono,
                                                 monkeypatch):
    groups = [list(g) for g in monomial_basis(brst_system(model), cap)]
    groups[k].remove(mono)
    monkeypatch.setattr(brst_mod, "monomial_basis",
                        lambda sys_, cap_: groups)
    sys_ = brst_system(model)
    name = str(SuperPoly(sys_.alg, {mono: 1}))
    match = "^operator output escapes the basis at %s$" % re.escape(name)
    with pytest.raises(ValueError, match=match):
        verify_brst_resolution(sys_, cap)
    with pytest.raises(ValueError, match=match):
        check_nilpotent_on_basis(BRSTExtension(brst_system(model)), cap)
    # the per-monomial sweeps pass the cut basis silently
    assert verify_per_monomial(brst_system(model), cap)["ok"]
    assert nilpotent_per_monomial(BRSTExtension(brst_system(model)),
                                  cap) is None


def test_l2_image_leaving_its_group_raises_naming_it(monkeypatch):
    """d keeps the antighost degree, so l2 maps each group into itself.  An
    l2 rule that adds G1 P1, a monomial of the capped basis one group up, to
    l2(G1) is refused by the group-0 block, which names G1 P1."""
    sys_ = brst_system("brst_so3")
    g1, p1 = (sys_.alg.index[name] for name in ("G1", "P1"))
    assert (g1, p1) in monomial_basis(sys_, 3)[1]
    patch_rule(monkeypatch, "_l2_cache", lambda self, mono, img: (
        {**img[0], (g1, p1): img[1]}, img[1]) if mono == (g1,) else img)
    with pytest.raises(ValueError, match="^operator output escapes the "
                       "basis at 1\\*G1P1$"):
        check_nilpotent_on_basis(BRSTExtension(sys_), 3)


# -- build_brst's refusals ----------------------------------------------------

def d0_with_entry(src, dst):
    """The d block on antighost 0 with one extra entry 1, from the monomial
    src to the monomial dst (each a tuple of generator names)."""
    def patch(monkeypatch):
        real = brst_mod._block

        def block(sys_, cap, name, k):
            blk = real(sys_, cap, name, k)
            if (name, k) != ("d", 0):
                return blk
            group = brst_mod._group_bases(sys_, cap)[0].labels
            i, j = (group.index(tuple(sys_.alg.index[g] for g in mono))
                    for mono in (dst, src))
            return blk + RatMatrix.from_blocks(
                *blk.shape, [(i, j, RatMatrix([[1]]))])
        monkeypatch.setattr(brst_mod, "_block", block)
    return patch


def l3_on_generator(gen):
    """The l3 rule returning the generator gen itself on gen."""
    def patch(monkeypatch):
        patch_rule(monkeypatch, "_l3_cache", lambda self, mono, img: (
            {mono: 1}, 1) if mono == (self.sys.alg.index[gen],) else img)
    return patch


def l2_doubled_on_generator(gen):
    """The l2 rule doubled on the generator gen alone."""
    def patch(monkeypatch):
        patch_rule(monkeypatch, "_l2_cache", lambda self, mono, img: (
            {m: 2 * c for m, c in img[0].items()}, img[1])
            if mono == (self.sys.alg.index[gen],) else img)
    return patch


@pytest.mark.parametrize("mutant, message", [
    # d G1 gains eta1, which has no G factor
    (d0_with_entry(("G1",), ("eta1",)),
     "d does not preserve the constraint ideal at 1*G1"),
    # d 1 = eta1 leaves every G column alone, but d d 1 = d eta1 =
    # -eta2 eta3 has no G factor
    (d0_with_entry((), ("eta1",)), "d^2 escapes the constraint ideal at 1*1"),
    # P1, P2, P3 and eta1 pass; the first failing generator is named
    (l3_on_generator("eta2"), "l3 must vanish on eta2"),
    # l2 doubled on G2 alone stays consistent, since l2(P2) is defined from
    # l2(G2); doubled on P2 alone, delta l2 P2 = 2 d G2 no longer cancels
    # l2 delta P2 = -d G2
    (l2_doubled_on_generator("P2"),
     "total operator fails to square to zero on P2"),
], ids=["d_ideal", "d_squared_ideal", "l3_vanishes", "total_squared"])
def test_build_brst_refusals_name_the_offender(mutant, message, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build_brst(brst_system("brst_so3"), degree_cap=3)
    # each mutant fails only the check it targets: the resolution holds
    assert verify_brst_resolution(brst_system("brst_so3"), 3)["ok"]
