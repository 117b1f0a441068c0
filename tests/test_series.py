"""The t-linear series layer: Series against the old dense vector series, and
apply/compose/shift/matrix of TLinear against their definitions."""

import importlib
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainext
from chainext.exactla import Basis, rat
from chainext.lie import LieAlgebra, ce_differential, Cochain
from chainext.series import Series, TLinear
from chainext.shlie import build_shlie

from references import cochain_eval, dense_coeffs, tshift

_settings = settings(max_examples=60, deadline=None)


# -- the dense vector series the layer replaced, kept as the reference --------

def vec_zeros(n):
    return [Fraction(0)] * n


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [rat(c) * a for a in u]


def vec_is_zero(u):
    return all(a == 0 for a in u)


class DenseSeries:
    """Vector-valued polynomial in t modulo t^{N+1}: coeffs[k] is the t^k
    vector (the old shlie.TruncSeries)."""

    def __init__(self, dim, N, coeffs=None):
        self.dim, self.N = dim, N
        if coeffs is None:
            coeffs = [vec_zeros(dim) for _ in range(N + 1)]
        self.coeffs = [[rat(x) for x in c] for c in coeffs]

    def add(self, other):
        return DenseSeries(self.dim, self.N, [vec_add(a, b) for a, b in
                                              zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        return DenseSeries(self.dim, self.N,
                           [vec_scale(c, a) for a in self.coeffs])

    def tshift(self, k):
        out = DenseSeries(self.dim, self.N)
        for m in range(self.N + 1 - k):
            out.coeffs[m + k] = list(self.coeffs[m])
        return out

    def is_zero(self):
        return all(vec_is_zero(c) for c in self.coeffs)

    def flat(self, kmin=0):
        return [x for c in self.coeffs[kmin:] for x in c]


def dense_conv(ch, *xs):
    """sum over t-powers of ch(x_k1, ..., x_kr) t^(k1+...+kr), truncated."""
    N = xs[0].N
    out = DenseSeries(xs[0].dim, N)

    def rec(i, ks, vecs):
        if sum(ks) > N:
            return
        if i == len(xs):
            k = sum(ks)
            out.coeffs[k] = vec_add(out.coeffs[k], cochain_eval(ch, *vecs))
            return
        for k, v in enumerate(xs[i].coeffs):
            if not vec_is_zero(v):
                rec(i + 1, ks + [k], vecs + [v])
    rec(0, [], [])
    return out


small = st.integers(-3, 3).map(Fraction) | \
    st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def dense_series(draw, dim, N):
    return [[draw(small) if draw(st.booleans()) else Fraction(0)
             for _ in range(dim)] for _ in range(N + 1)]


@_settings
@given(st.data())
def test_series_matches_dense_reference(data):
    dim = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(0, 4))
    a, b = (data.draw(dense_series(dim, N)) for _ in range(2))
    c = data.draw(small)
    k = data.draw(st.integers(0, N + 1))
    new_a, new_b = Series(dim, N, a), Series(dim, N, b)
    old_a, old_b = DenseSeries(dim, N, a), DenseSeries(dim, N, b)
    assert dense_coeffs(new_a) == old_a.coeffs
    assert dense_coeffs(new_a.add(new_b)) == old_a.add(old_b).coeffs
    assert dense_coeffs(new_a.scale(c)) == old_a.scale(c).coeffs
    assert dense_coeffs(tshift(new_a, k)) == old_a.tshift(k).coeffs
    assert new_a.flat(min(k, N)) == {
        i: x for i, x in enumerate(old_a.flat(min(k, N))) if x}
    assert new_a.is_zero() == old_a.is_zero()
    assert (new_a == new_b) == (old_a.coeffs == old_b.coeffs)
    assert all(type(x) is Fraction for c in dense_coeffs(new_a) for x in c)


def so3():
    return LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0],
                          (0, 2): [0, -1, 0]})


def structures():
    ab = LieAlgebra(3, {})
    obstructed = Cochain(3, 2, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    cob = ce_differential(so3(), Cochain(3, 1, {(0,): [0, 1, 0]}))
    return [build_shlie(ab, obstructed, N=4),
            build_shlie(so3(), cob, N=4, variant="full")]


@_settings
@given(st.data())
def test_structure_maps_match_dense_convolutions(data):
    S = data.draw(st.sampled_from(structures()))
    dim, N = S.alg.dim, S.N
    a, b, c = (data.draw(dense_series(dim, N)) for _ in range(3))
    A, B, C = (DenseSeries(dim, N, v) for v in (a, b, c))
    want_l2 = dense_conv(S.alg.alpha0, A, B).add(
        dense_conv(S.alpha1, A, B).tshift(1))
    want_l3 = dense_conv(S.comp11, A, B, C).tshift(2).scale(-1)
    new = [Series(dim, N, v) for v in (a, b, c)]
    assert dense_coeffs(S.l2_00(new[0], new[1])) == want_l2.coeffs
    assert dense_coeffs(S.l3_000(*new)) == want_l3.coeffs


@pytest.mark.parametrize("call,message", [
    (lambda: Series(2, 3).add(Series(2, 4)), "truncation mismatch"),
], ids=["truncation mismatch"])
def test_series_input_guards(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert err.value.args == (message,)


def test_series_construction_checks():
    with pytest.raises(ValueError):
        Series(2, 1, [[1, 0]])              # one coefficient short
    with pytest.raises(ValueError):
        Series(2, 1, [[1, 0], [1]])         # wrong vector length
    with pytest.raises(ValueError):
        Series.basis(2, 2, 3, 0)
    with pytest.raises(ValueError):
        Series.basis(2, 2, 0, 2)
    with pytest.raises(ValueError):
        TLinear({-1: [(1, ())]})
    assert dense_coeffs(Series.basis(2, 2, 1, 1)) == [[0, 0], [0, 1], [0, 0]]


# -- TLinear: apply, compose, shifts and matrices ----------------------------

DIM = 3


def matrix_op(rows):
    """The coefficient operator of an integer matrix on sparse vectors."""
    def op(v):
        out = {}
        for i, row in enumerate(rows):
            x = sum(row[j] * c for j, c in v.items())
            if x:
                out[i] = x
        return out
    return op


BASES = [matrix_op(r) for r in (
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    [[1, 0, 2], [0, -1, 0], [3, 0, 0]],
    [[0, 0, 0], [1, 1, 0], [0, 2, -1]],
)]


@st.composite
def tlinears(draw):
    terms = {}
    for s in draw(st.lists(st.integers(0, 3), max_size=3, unique=True)):
        terms[s] = [(draw(small), tuple(draw(st.lists(
            st.sampled_from(BASES), max_size=2))))
            for _ in range(draw(st.integers(1, 2)))]
    return TLinear(terms)


@st.composite
def vector_series(draw, T):
    return Series(DIM, T, draw(dense_series(DIM, T)))


def reference_apply(A, x):
    """sum_{k, s} t^(k+s) A_s(x_k) with every chain applied from scratch."""
    out = [[Fraction(0)] * DIM for _ in range(x.T + 1)]
    for k, c in enumerate(x.terms):
        for s, pairs in A.terms.items():
            if k + s > x.T:
                continue
            for scalar, chain in pairs:
                v = dict(c)
                for f in reversed(chain):
                    v = f(v)
                for i, y in v.items():
                    out[k + s][i] += scalar * y
    return Series(DIM, x.T, out)


@_settings
@given(st.data())
def test_apply_matches_definition(data):
    T = data.draw(st.integers(0, 4))
    A, x = data.draw(tlinears()), data.draw(vector_series(T))
    assert A.apply(x) == reference_apply(A, x)


@_settings
@given(st.data())
def test_compose_is_apply_after_apply(data):
    T = data.draw(st.integers(0, 4))
    A, B = data.draw(tlinears()), data.draw(tlinears())
    x = data.draw(vector_series(T))
    assert A.compose(B).apply(x) == A.apply(B.apply(x))
    assert (A + B).apply(x) == A.apply(x).add(B.apply(x))
    c = data.draw(small)
    assert A.scale(c).apply(x) == A.apply(x).scale(c)


@_settings
@given(st.data())
def test_shift_commutes_with_apply(data):
    """A(t^k x) = t^k A(x) mod t^(T+1)."""
    T = data.draw(st.integers(0, 4))
    A, x = data.draw(tlinears()), data.draw(vector_series(T))
    k = data.draw(st.integers(0, T + 1))
    assert A.apply(tshift(x, k)) == tshift(A.apply(x), k)
    AA = A.compose(A)
    assert AA.apply(tshift(x, k)) == tshift(AA.apply(x), k)


@_settings
@given(st.data())
def test_matrix_columns_are_applied_basis_series(data):
    T = data.draw(st.integers(0, 3))
    A = data.draw(tlinears())
    labels = [(i, k) for k in range(T + 1) for i in range(DIM)]
    mat = A.matrix(Basis(labels), Basis(labels), T)
    for col, (i, k) in enumerate(labels):
        image = A.apply(Series.basis(DIM, T, k, i))
        assert mat.col(col) == {row: image.terms[kk][ii]
                                for row, (ii, kk) in enumerate(labels)
                                if image.terms[kk].get(ii)}


def test_composite_images_on_one_argument():
    """compose(A, A) on one coefficient is (A o A)_s = sum_{i+j=s} A_j A_i,
    here with A_0 = f, A_1 = 2 g and A_2 = -f: f f at shifts 0 and 4,
    2 (f g + g f) at 1 and -2 (f g + g f) at 3, and 4 g g - 2 f f at 2."""
    f, g = BASES[1], BASES[2]
    A = TLinear({0: [(1, (f,))], 1: [(2, (g,))], 2: [(-1, (f,))]})
    assert A.compose(A).images(({0: Fraction(1), 2: Fraction(1)},), 4) == {
        0: {0: 9, 2: 9}, 1: {0: -4, 1: 4, 2: -6}, 2: {0: -18, 1: 4, 2: -6},
        3: {0: 4, 1: -4, 2: 6}, 4: {0: 9, 2: 9}}


def test_integral_scalars_stay_ints():
    """Integral scalars are stored as ints, also after compose and scale, so
    an int entry scaled by one stays an int; a non-integral one stays a
    Fraction."""
    def neg(v):
        return {k: -x for k, x in v.items()}
    A = TLinear({0: [(Fraction(-1), (neg,))], 1: [(Fraction(1, 2), (neg,))]})
    for op in (A, A.compose(A), A.scale(Fraction(2)), A + A):
        for pairs in op.terms.values():
            for c, _chain in pairs:
                assert type(c) is int or c.denominator != 1
    images = A.compose(A).images(({0: 3},), 2)
    assert images == {0: {0: 3}, 1: {0: Fraction(-3)}, 2: {0: Fraction(3, 4)}}
    assert type(images[0][0]) is int


def test_canonical_form_merges_equal_chains():
    """Within a shift equal chains merge and their scalars add up, a zero
    sum drops out, and equality ignores the order of the chains."""
    f, g = BASES[0], BASES[1]
    A = TLinear({0: [(1, (f,)), (2, (g,)), (Fraction(1, 2), (f,))],
                 1: [(1, (g,)), (-1, (g,))]})
    assert A.terms == {0: [(Fraction(3, 2), (f,)), (2, (g,))]}
    assert A == TLinear({0: [(2, (g,)), (Fraction(3, 2), (f,))]})
    assert A != TLinear({0: [(2, (g,)), (1, (f,))]})
    assert A != TLinear({1: [(Fraction(3, 2), (f,)), (2, (g,))]})
    assert A.denominator() == 2 and TLinear({}).denominator() == 1
    assert A.scale(2).terms == {0: [(3, (f,)), (4, (g,))]}
    # bv's l2 l1 + l1 l2*: the star's -1 cancels every chain
    one = TLinear({0: [(1, ())]})
    l2 = TLinear({0: [(1, (f,))], 1: [(1, (g,))]})
    assert (l2.compose(one) + one.compose(l2.scale(-1))).terms == {}


def test_one_series_class():
    """Every chainext module that binds the series class binds it under the
    one name Series."""
    for info in pkgutil.iter_modules(chainext.__path__):
        module = importlib.import_module("chainext." + info.name)
        assert {name for name, value in vars(module).items()
                if value is Series} <= {"Series"}, info.name
