"""The superalgebra kernels against the Fraction-only kernels they replaced,
copied here as they stood (renamed with an old_ prefix): a two-pointer
merge with its seam check, extend_right_derivation with two merges per
value term, one scan of the polynomial per generator for every derivative,
and antibracket with lazily computed left derivatives.  A Derivation call
is checked against a one-pass _derive over the whole argument written
apart from it (references.one_pass_call).

Coefficients are drawn as small and large ints, integral Fractions and
non-integral Fractions; monomials repeat even factors, share odd factors
between the two sides and may be empty.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainext.brst import monomial_basis
from chainext.exactla import exact
from chainext.series import TLinear
from chainext.superalg import (
    Derivation, FixedAntibracket, GenSpec, SuperAlgebra, SuperPoly, _derive,
    _merge_monomials, antibracket, extend_right_derivation, left_deriv, mul,
    right_deriv,
)

from bundled import brst_system, bv_problem
from references import chain_images, one_pass_call


# -- the kernels, as they stood ------------------------------------------------

def old_merge_monomials(m1, m2, parities):
    """Merge two normal-ordered monomials; return (monomial, sign) or (None, 0)
    when an odd generator repeats."""
    out = []
    sign = 1
    i = j = 0
    odd_left = sum(parities[g] for g in m1)  # odd factors of m1 not yet emitted
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a <= b:
            odd_left -= parities[a]
            out.append(a)
            i += 1
            if a == b and parities[a]:
                return None, 0
        else:
            if parities[b] and odd_left % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    # an odd repeat can also appear at the seam just emitted
    for k in range(len(out) - 1):
        if out[k] == out[k + 1] and parities[out[k]]:
            return None, 0
    return tuple(out), sign


def old_mul_into(out, f_terms, g_terms, parities, negate=False):
    """Add f g (or -f g when negate) into the monomial dict out."""
    for m1, c1 in f_terms.items():
        if negate:
            c1 = -c1
        for m2, c2 in g_terms.items():
            m, sign = old_merge_monomials(m1, m2, parities)
            if m is None:
                continue
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            prev = out.get(m)
            out[m] = c if prev is None else prev + c


def old_mul(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    if f.alg != g.alg:
        raise ValueError("generator-set mismatch")
    out = {}
    old_mul_into(out, f.terms, g.terms, [gen.parity for gen in f.alg.gens])
    return SuperPoly(f.alg, out)


def old_right_deriv(f: SuperPoly, gname) -> SuperPoly:
    """Graded derivation from the right with respect to one generator."""
    alg = f.alg
    if gname not in alg.index:
        raise KeyError("unknown generator %r" % (gname,))
    gi = alg.index[gname]
    gp = alg.gens[gi].parity
    out = {}
    for m, c in f.terms.items():
        for j, idx in enumerate(m):
            if idx != gi:
                continue
            suffix_parity = sum(alg.gens[k].parity for k in m[j + 1:]) % 2
            d = -c if (gp and suffix_parity) else c
            mm = m[:j] + m[j + 1:]
            prev = out.get(mm)
            out[mm] = d if prev is None else prev + d
    return SuperPoly(alg, out)


def old_left_deriv(f: SuperPoly, gname) -> SuperPoly:
    alg = f.alg
    if gname not in alg.index:
        raise KeyError("unknown generator %r" % (gname,))
    gi = alg.index[gname]
    gp = alg.gens[gi].parity
    out = {}
    for m, c in f.terms.items():
        for j, idx in enumerate(m):
            if idx != gi:
                continue
            prefix_parity = sum(alg.gens[k].parity for k in m[:j]) % 2
            d = -c if (gp and prefix_parity) else c
            mm = m[:j] + m[j + 1:]
            prev = out.get(mm)
            out[mm] = d if prev is None else prev + d
    return SuperPoly(alg, out)


def old_extend_right_derivation(f: SuperPoly, values, parity) -> SuperPoly:
    alg = f.alg
    parities = [gen.parity for gen in alg.gens]
    vals = {}
    for name, v in values.items():
        if name not in alg.index:
            raise KeyError("unknown generator %r" % (name,))
        if not v.is_zero():
            vals[alg.index[name]] = v.terms
    out = {}
    for m, c in f.terms.items():
        for j, idx in enumerate(m):
            if idx not in vals:
                continue
            prefix, suffix = m[:j], m[j + 1:]
            odd_suffix = sum(parities[k] for k in suffix) % 2
            c_j = -c if (parity and odd_suffix) else c
            # prefix . value . suffix, with the Koszul sign of each merge
            for vm, vc in vals[idx].items():
                left, s1 = old_merge_monomials(prefix, vm, parities)
                if left is None:
                    continue
                mono, s2 = old_merge_monomials(left, suffix, parities)
                if mono is None:
                    continue
                d = c_j * vc if s1 == s2 else -(c_j * vc)
                prev = out.get(mono)
                out[mono] = d if prev is None else prev + d
    return SuperPoly(alg, out)


def old_right_derivs(f: SuperPoly, pairs):
    return [(old_right_deriv(f, field), old_right_deriv(f, anti))
            for field, anti in pairs]


def old_left_derivs(g: SuperPoly, pairs):
    return [(old_left_deriv(g, field), old_left_deriv(g, anti))
            for field, anti in pairs]


def old_antibracket(f: SuperPoly, g: SuperPoly, pairs, f_derivs=None,
                    g_derivs=None) -> SuperPoly:
    alg = f.alg
    if alg != g.alg:
        raise ValueError("generator-set mismatch")
    for field, anti in pairs:
        for w in (field, anti):
            if w not in alg.index:
                raise KeyError("unknown generator %r" % (w,))
    if f_derivs is None:
        f_derivs = old_right_derivs(f, pairs)
    if g_derivs is None:
        g_derivs = [(None, None)] * len(pairs)
    parities = [gen.parity for gen in alg.gens]
    out = {}
    for (field, anti), (df_field, df_anti), (dg_field, dg_anti) in zip(
            pairs, f_derivs, g_derivs, strict=True):
        if df_field.terms:
            if dg_anti is None:
                dg_anti = old_left_deriv(g, anti)
            old_mul_into(out, df_field.terms, dg_anti.terms, parities)
        if df_anti.terms:
            if dg_field is None:
                dg_field = old_left_deriv(g, field)
            old_mul_into(out, df_anti.terms, dg_field.terms, parities,
                         negate=True)
    return SuperPoly(alg, out)


# -- drawn inputs ----------------------------------------------------------------

def mixed_alg():
    """Even and odd generators interleaved, so sorting moves odd factors past
    even ones as well as past each other; the pairs join generators of
    every parity combination."""
    gens = [GenSpec("a", "even"), GenSpec("b", "odd"), GenSpec("c", "even"),
            GenSpec("d", "odd"), GenSpec("e", "odd"), GenSpec("f", "even")]
    return SuperAlgebra(gens), [("a", "b"), ("d", "c"), ("e", "f"),
                                ("b", "d")]


def bv_alg():
    model = bv_problem("bv_two_ghost").model
    return model.alg, model.pairs


ALGEBRAS = {"mixed": mixed_alg(), "bv_two_ghost": bv_alg()}

_settings = settings(max_examples=150, deadline=None)

# small and large ints, integral and non-integral Fractions
_coeffs = st.one_of(
    st.integers(-16, 16),
    st.integers(17, 10 ** 12).flatmap(lambda n: st.sampled_from([n, -n])),
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
        lambda q: q.denominator != 1),
)


def parities_of(alg):
    return [gen.parity for gen in alg.gens]


@st.composite
def monomials(draw, alg, max_size=4):
    """A normal-ordered monomial: even factors may repeat, odd ones not."""
    idx = sorted(draw(st.lists(st.integers(0, len(alg.gens) - 1),
                               max_size=max_size)))
    out = []
    for i in idx:
        if not (alg.gens[i].parity and out and out[-1] == i):
            out.append(i)
    return tuple(out)


@st.composite
def polys(draw, alg, max_terms=4):
    return SuperPoly(alg, dict(draw(st.lists(
        st.tuples(monomials(alg), _coeffs), max_size=max_terms))))


@st.composite
def drawn(draw, count, values=False):
    """(alg, pairs, polynomials[, generator values]) over one algebra."""
    alg, pairs = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    out = [alg, pairs] + [draw(polys(alg)) for _ in range(count)]
    if values:
        out.append(draw(st.dictionaries(
            st.sampled_from([g.name for g in alg.gens]),
            polys(alg, max_terms=3), max_size=4)))
    return out


def stored_as_fractions(*ps):
    return all(type(c) is Fraction for p in ps for c in p.terms.values())


# -- the comparisons -------------------------------------------------------------

MIXED, _ = ALGEBRAS["mixed"]


def odd(m, parities):
    return [g for g in m if parities[g]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)).flatmap(
    lambda k: st.tuples(st.just(ALGEBRAS[k][0]),
                        monomials(ALGEBRAS[k][0], 6),
                        monomials(ALGEBRAS[k][0], 6))))
@example((MIXED, (), ()))
@example((MIXED, (0, 0, 2), (0, 2, 5)))       # repeated even factors
@example((MIXED, (1, 3), (3, 4)))             # an odd repeat
@example((MIXED, (3, 4), (1,)))               # two transpositions
@example((MIXED, (4,), (0, 1, 3)))            # odd past odd and even
def test_merge_monomials_matches_old(case):
    alg, m1, m2 = case
    par = parities_of(alg)
    assert _merge_monomials(m1, odd(m1, par), m2, odd(m2, par)) == \
        old_merge_monomials(m1, m2, par)


@_settings
@given(drawn(2))
def test_mul_matches_old(case):
    alg, pairs, f, g = case
    got = mul(f, g)
    assert got.terms == old_mul(f, g).terms
    assert stored_as_fractions(got)


@_settings
@given(drawn(1))
def test_derivatives_match_old(case):
    alg, pairs, f = case
    for gen in alg.gens:
        r, l = right_deriv(f, gen.name), left_deriv(f, gen.name)
        assert r.terms == old_right_deriv(f, gen.name).terms
        assert l.terms == old_left_deriv(f, gen.name).terms
        assert stored_as_fractions(r, l)


@_settings
@given(drawn(1, values=True), st.integers(0, 1))
@example([MIXED, None, SuperPoly(MIXED, {(1, 2, 3, 4): 3}),
          {"c": SuperPoly(MIXED, {(1, 4): Fraction(1, 2), (): 20}),
           "d": SuperPoly(MIXED, {(0, 1): -1, (0, 0): 18})}], 1)
@example([MIXED, None, SuperPoly(MIXED, {(1, 2, 2): 1, (0, 3): 5}),
          {"c": SuperPoly(MIXED, {(0,): Fraction(3, 2)}),
           "a": SuperPoly(MIXED, {(4,): Fraction(-1, 3)})}], 0)
def test_extend_right_derivation_matches_old(case, parity):
    alg, pairs, f, values = case
    got = extend_right_derivation(f, values, parity)
    assert got.terms == old_extend_right_derivation(f, values, parity).terms
    assert stored_as_fractions(got)


@_settings
@given(st.dictionaries(monomials(MIXED, 6),
                       st.fractions(min_value=-5, max_value=5,
                                    max_denominator=7),
                       max_size=5).map(lambda t: SuperPoly(MIXED, t)))
@example(SuperPoly(MIXED, {(0, 0, 1, 2, 2, 2, 3): Fraction(3, 2),
                           (1, 3, 4): Fraction(-2, 5),
                           (0, 0, 0, 4, 5, 5): Fraction(7)}))
def test_partial_derivative_is_the_derivation_one_on_its_generator(f):
    """d/du is the derivation of u's parity that is 1 on u and 0 on every
    other generator, from the right (extend_right_derivation) and from the
    left (a left Derivation called on f's terms), for every generator u of
    the mixed algebra.  The example repeats the even a, c and f up to three
    times next to odd factors on both sides."""
    one = SuperPoly.const(MIXED, 1)
    for gen in MIXED.gens:
        u, p = gen.name, gen.parity
        assert right_deriv(f, u) == extend_right_derivation(f, {u: one}, p)
        left = Derivation(MIXED, {u: {(): 1}}, p, left=True)
        assert left_deriv(f, u) == SuperPoly(MIXED, left(f.terms))


@pytest.mark.parametrize("name", ["brst_abelian", "brst_so3", "brst_toy"])
def test_antighost_degree_counts_the_antighost_factors(name):
    """ConstraintSystem.antighost_degree reads the GenSpec antighost field
    (alg.antighosts); on every monomial of the bundled basis at cap 4 it is
    the number of factors of kind P, and the index of its basis group."""
    system = brst_system(name)
    groups = monomial_basis(system, 4)
    assert groups[1], "no monomial with an antighost factor"
    for p, group in enumerate(groups):
        for mono in group:
            n_p = sum(system.alg.gens[i].kind == "P" for i in mono)
            assert system.antighost_degree(mono) == n_p == p


def field_antifield_pairs(alg, pairs):
    """The pairs of opposite parity.  (f, .) is a left derivation of parity
    parity(f) + 1 only over such pairs, each generator in one of them: on
    the mixed algebra this drops ("b", "d"), and on the BV algebra it keeps
    every pair."""
    return [(u, v) for u, v in pairs
            if alg.gens[alg.index[u]].parity != alg.gens[alg.index[v]].parity]


@_settings
@given(drawn(2))
def test_antibracket_matches_old(case):
    alg, pairs, f, g = case
    pairs = field_antifield_pairs(alg, pairs)
    got = antibracket(f, g, pairs)
    assert got.terms == old_antibracket(f, g, pairs).terms
    assert stored_as_fractions(got)


@_settings
@given(drawn(2))
@example([MIXED, ALGEBRAS["mixed"][1],
          SuperPoly(MIXED, {(0, 3): 2, (3, 5): -1, (2, 3, 4): 3}),
          SuperPoly(MIXED, {(1, 2, 2, 2, 3): 5, (0, 2, 2, 2, 4): -1})])
@example([MIXED, ALGEBRAS["mixed"][1],
          SuperPoly(MIXED, {(0, 3): Fraction(1, 2), (3, 5): Fraction(-3, 4),
                            (0, 1): Fraction(2, 3)}),
          SuperPoly(MIXED, {(1, 2, 2, 3): 2, (0, 4): Fraction(1, 3),
                            (0, 0, 5): 4})])
def test_fixed_antibracket_matches_antibracket(case):
    """The left-derivation pass of superalg._derive, through
    FixedAntibracket, against old_antibracket's two derivative tables, for
    the even and the odd part of a drawn f.  In the first example c is even
    and cubed next to odd factors of g, and f has a d, so (f, c) = dRf/dd is
    not zero: the run of three c's is taken once, with coefficient 3.  In
    the second the generator values have denominators 2, 3 and 4, so the
    stored values are ints over a denominator above 1 and a call divides by
    it."""
    alg, pairs, f, g = case
    pairs = field_antifield_pairs(alg, pairs)
    for p in (0, 1):
        part = SuperPoly(alg, {m: c for m, c in f.terms.items()
                               if f.monomial_parity(m) == p})
        assert FixedAntibracket(part, pairs)(g.terms) == \
            old_antibracket(part, g, pairs).terms


def test_fixed_antibracket_rejects_a_pairing_that_is_not_field_antifield():
    """The full pair list of the mixed algebra has the odd-odd pair b-d, and
    b occurs in a-b as well; a pair list that repeats an even generator in
    two pairs of opposite parities is rejected too."""
    alg, pairs = ALGEBRAS["mixed"]
    f = SuperPoly(alg, {(0, 1): 1})
    assert FixedAntibracket(f, field_antifield_pairs(alg, pairs)).values
    with pytest.raises(ValueError, match="pair b-d has equal parities"):
        FixedAntibracket(f, pairs)
    with pytest.raises(ValueError, match="pair a-e repeats a generator"):
        FixedAntibracket(f, [("a", "b"), ("a", "e")])


def test_antibracket_rejects_a_pairing_that_is_not_field_antifield():
    """antibracket is FixedAntibracket per parity part of f, so it refuses
    the same pairings: on the BV algebra of bv_two_ghost, the even pair
    phi1-phi2 and a generator in two pairs."""
    alg, pairs = ALGEBRAS["bv_two_ghost"]
    phi1, phi2, c1 = (SuperPoly.gen(alg, name)
                      for name in ("phi1", "phi2", "C1"))
    f, g = mul(phi1, phi1), mul(phi2, c1)
    assert antibracket(f, g, pairs).is_zero()
    with pytest.raises(ValueError, match="pair phi1-phi2 has equal parities"):
        antibracket(f, g, [("phi1", "phi2")])
    with pytest.raises(ValueError,
                       match="pair phi1-phi2_st repeats a generator"):
        antibracket(f, g, [("phi1", "phi1_st"), ("phi1", "phi2_st")])


def cancelling(d, terms):
    """terms with the coefficient of one monomial changed so that the first
    term its image shares with an earlier monomial's image cancels, when
    two images share a term."""
    images = [(m, one_pass_call(d, {m: 1})) for m in terms]
    for i, (m1, r1) in enumerate(images):
        for m2, r2 in images[i + 1:]:
            for k in sorted(set(r1) & set(r2)):
                return {**terms, m2: -terms[m1] * Fraction(r1[k]) / r2[k]}
    return terms


@_settings
@given(drawn(2, values=True), st.integers(0, 1), st.booleans(),
       st.sampled_from([1, 2, 6]))
@example([MIXED, None, SuperPoly(MIXED, {(0, 0): 1, (2, 2): -1}),
          SuperPoly(MIXED), {"a": SuperPoly(MIXED, {(2,): Fraction(1, 3)}),
                             "c": SuperPoly(MIXED, {(0,): Fraction(1, 3)})}],
         0, False, 1)
def test_call_matches_one_pass(case, parity, left, q):
    """A Derivation call gives the one-pass _derive of the whole argument,
    with an int wherever that gives one: right and left derivations of both parities, generator
    values over denominators above 1 (each value divided by q as well), and
    arguments with int and Fraction coefficients (g's integral ones as
    ints).  A generator y not in the drawn values gets 3 times the value of
    the first one x, so that x and y, added to f, have images that share
    terms, and `cancelling` makes one of them cancel; x and y also come
    first with coefficient 0.  In the example D a = c/3 and D c = a/3, so
    D(a a - c c) = 0."""
    alg, pairs, f, g, values = case
    values = {name: {m: Fraction(c) / q for m, c in v.terms.items()}
              for name, v in values.items()}
    twins = {}
    if values:
        x = min(values)
        y = min(gen.name for gen in alg.gens if gen.name not in values)
        values[y] = {m: 3 * c for m, c in values[x].items()}
        twins = {(alg.index[x],): 1, (alg.index[y],): Fraction(1, 2)}
    d = Derivation(alg, values, parity, left)
    ints = {m: exact(c) for m, c in g.terms.items()}
    zeros = {m: 0 for m in twins}
    for terms in (f.terms, {**zeros, **ints, **f.terms},
                  cancelling(d, {**f.terms, **twins})):
        want = one_pass_call(d, terms)
        got = d(terms)
        assert got == want
        assert all(type(got[m]) is int for m, c in want.items()
                   if type(c) is int)


@_settings
@given(drawn(2, values=True), st.integers(0, 1), st.booleans(),
       st.sampled_from([1, 2, 6]))
def test_columns_read_the_kept_rows_in_place(case, parity, left, q):
    """TLinear.columns over Derivations (values over q, so den > 1 when
    q > 1) and a plain callable equals the reference images assembled label
    by label, and reading the kept rows in place leaves every row as
    _derive gives it: row(m) is den times the call's image of m, zeros
    kept."""
    alg, _pairs, f, g, values = case
    values = {name: {m: Fraction(c) / q for m, c in v.terms.items()}
              for name, v in values.items()}
    d = Derivation(alg, values, parity, left)
    e = Derivation(alg, {name: {m: 2 * c for m, c in v.items()}
                         for name, v in values.items()}, 1 - parity, left)

    def neg(terms):
        return {m: -c for m, c in terms.items()}
    A = TLinear({0: [(1, (d,)), (Fraction(1, 3), (e, d))],
                 1: [(2, (d, neg, e)), (-1, ())], 2: [(1, (neg, d))]})
    labels = sorted(set(f.terms) | set(g.terms))
    cols = A.columns(labels, 2)
    want = {}
    for a in labels:
        for s, img in chain_images(A, ({a: 1},), 2).items():
            for b, v in img.items():
                want.setdefault(s, {})[a, b] = v
    assert cols == want
    for m in d.table:
        row = _derive({m: 1}, d.values, d.parity, d.parities, d.left)
        assert d.row(m) == row
        assert {k: Fraction(c, d.den) for k, c in row.items() if c} == \
            one_pass_call(d, {m: 1})


def test_same_map_compares_gradings_side_den_and_values():
    """Two brackets built from one polynomial are the same map; scaling the
    values, changing the parity, the side or the den, or the parities of
    the algebra make them differ."""
    alg, pairs = ALGEBRAS["bv_two_ghost"]
    phi1, phi2 = (SuperPoly.gen(alg, name) for name in ("phi1", "phi2"))
    f = mul(phi1, phi1) + mul(phi1, phi2).scale(3)
    ad = FixedAntibracket(f, pairs)
    assert ad.same_map(ad) and ad.same_map(FixedAntibracket(f, pairs))
    assert not ad.same_map(FixedAntibracket(f.scale(2), pairs))
    assert not ad.same_map(lambda terms: ad(terms))
    values = {alg.gens[i].name: {m: Fraction(c, ad.den) for m, _o, c in vs}
              for i, vs in ad.values.items()}
    assert Derivation(alg, values, ad.parity, True).same_map(ad)
    assert not Derivation(alg, values, ad.parity, False).same_map(ad)
    assert not Derivation(alg, values, 1 - ad.parity, True).same_map(ad)
    halves = {name: {m: c / 2 for m, c in v.items()}
              for name, v in values.items()}
    half = Derivation(alg, halves, ad.parity, True)
    assert half.den != ad.den and not half.same_map(ad)
    last = alg.gens[-1]
    flipped = SuperAlgebra(alg.gens[:-1] + [GenSpec(
        last.name, 1 - last.parity, last.ghost, last.antighost, last.kind)])
    assert not Derivation(flipped, values, ad.parity, True).same_map(ad)
