import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainext.exactla import (
    Basis, RatMatrix, combine, exact, image, lowest, operator_matrix,
    rat, rref, rank, kernel_basis, solve,
)

from references import (column_block, columns_matrix, dense_column,
                        dense_kernel_basis)


def vector(*xs):
    """The column matrix of the given entries."""
    return columns_matrix([xs], len(xs))


def test_rat_parsing():
    """A string is an exact number only as an integer or p/q: a decimal
    point, an exponent or surrounding space raises ValueError, in rat,
    exact and the RatMatrix constructor alike."""
    assert rat("2/3") == Fraction(2, 3)
    assert rat(-4) == Fraction(-4)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        rat(0.5)
    assert (rat("-4"), rat("0/1")) == (-4, 0)
    assert (exact("2/3"), exact("-4"), exact("0/1")) == (Fraction(2, 3), -4, 0)
    assert RatMatrix([["2/3", "-4", "0/1"]]) == \
        RatMatrix([[Fraction(2, 3), -4, 0]])
    for bad in ("0.5", "1e3", " 2 ", "1/-2", "1 / 2", "", "1_000"):
        with pytest.raises(ValueError):
            rat(bad)
        with pytest.raises(ValueError):
            exact(bad)
    with pytest.raises(ValueError):
        RatMatrix([["0.5", "1e-1"]])


def test_rref_rank_one():
    m = RatMatrix([[1, 2], [2, 4]])
    reduced, pivots, rk = rref(m)
    assert reduced == RatMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert rk == 1


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = RatMatrix([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        r1, p1, k1 = rref(m)
        r2, p2, k2 = rref(r1)
        assert r1 == r2 and p1 == p2 and k1 == k2


def test_kernel_of_sum_functional():
    m = RatMatrix([[1, 1]])
    basis = kernel_basis(m)
    assert basis.shape == (2, 1)
    a, b = basis.entry(0, 0), basis.entry(1, 0)
    assert a == -b and a != 0


def test_kernel_rank_nullity_random():
    """The sparse kernel is the dense reference's, column for column, on
    dense, sparse and empty shapes, some with a zero row or column."""
    rng = random.Random(20260815)
    for _ in range(80):
        nr = rng.randint(0, 6)
        nc = rng.randint(0, 6)
        kind = rng.choice(["dense", "dense", "sparse", "zero row",
                           "zero column"])
        fill = 0.4 if kind == "sparse" else 1
        rows = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
                 if rng.random() < fill else 0
                 for _ in range(nc)] for _ in range(nr)]
        if kind == "zero row" and nr:
            rows[rng.randrange(nr)] = [0] * nc
        if kind == "zero column" and nc:
            j = rng.randrange(nc)
            for r in rows:
                r[j] = 0
        m = RatMatrix(rows, ncols=nc)
        basis = kernel_basis(m)
        want = dense_kernel_basis(m)
        assert basis.ncols == len(want) == nc - rank(m)
        assert basis.nrows == nc
        for j, v in enumerate(want):
            assert basis.col(j) == {i: x for i, x in enumerate(v) if x}
        assert (m @ basis).is_zero()


def test_solve_inconsistent():
    m = RatMatrix([[1], [2]])
    assert solve(m, vector(1, 3)) is None
    assert solve(m, vector(1, 2)) == RatMatrix([[1]])


def test_solve_dimension_mismatch():
    m = RatMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        solve(m, vector(1, 2, 3))


def test_solve_exact_random():
    rng = random.Random(99)
    for _ in range(30):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = RatMatrix([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        x = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
             for _ in range(nc)]
        b = m @ vector(*x)
        y = solve(m, b)
        assert y is not None and y.shape == (nc, 1)
        assert m @ y == b


def test_matmul_and_identity():
    a = RatMatrix([[1, 2], [3, 4]])
    i2 = RatMatrix.identity(2)
    assert a @ i2 == a
    assert i2 @ a == a
    b = RatMatrix([["1/2", 0], [0, "1/3"]])
    assert a @ b == RatMatrix([["1/2", "2/3"], ["3/2", "4/3"]])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6)
                | st.integers(min_value=-4, max_value=4), max_size=8))
def test_diagonal_matches_the_dense_matrix(entries):
    d = RatMatrix.diagonal(entries)
    n = len(entries)
    assert d == RatMatrix([[entries[i] if i == j else 0 for j in range(n)]
                           for i in range(n)], ncols=n)
    assert d.shape == (n, n)
    a = RatMatrix([[j - i for j in range(n)] for i in range(3)], ncols=n)
    assert a @ d == RatMatrix([[(j - i) * entries[j] for j in range(n)]
                               for i in range(3)], ncols=n)


def test_empty_shapes():
    z = RatMatrix.zeros(0, 3)
    assert z.shape == (0, 3)
    assert rank(z) == 0
    assert kernel_basis(z) == RatMatrix.identity(3)
    w = RatMatrix.zeros(3, 0)
    assert (w @ z).shape == (3, 3)
    assert (w @ z).is_zero()


def test_immutability():
    a = RatMatrix([[1]])
    with pytest.raises(AttributeError):
        a.nrows = 5


def test_entry_checks_the_row_and_the_column():
    m = RatMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    for i, j in ((-1, 0), (2, 0), (0, -1), (0, 2)):
        with pytest.raises(IndexError):
            m.entry(i, j)


def test_operator_matrix_column_order():
    src = Basis(["a", "b", "c"])
    dst = Basis(["y", "x"])
    table = {"a": ({"x": 1}, 1), "b": ({"y": 1, "x": -6}, 2), "c": ({}, 1)}
    m = operator_matrix(lambda b: table[b], src, dst)
    assert m == RatMatrix([[0, Fraction(1, 2), 0], [1, -3, 0]])


def test_operator_matrix_escape_names_label():
    src = Basis([1, 2])
    dst = Basis([1], name=lambda b: "<label %d>" % b)
    with pytest.raises(ValueError, match="<label 2>"):
        operator_matrix(lambda b: ({b: 1}, 1), src, dst)


def test_operator_matrix_empty_target():
    src = Basis(["a", "b", "c"])
    m = operator_matrix(lambda b: ({}, 1), src, Basis([]))
    assert m.shape == (0, 3)
    with pytest.raises(ValueError, match="'b'"):
        operator_matrix(lambda b: image({b: int(b == "b")}), src, Basis([]))


def coords(dst, img):
    """The dense coordinate vector of an exact image on the Basis dst."""
    terms, den = img
    v = [Fraction(0)] * len(dst)
    for label, c in terms.items():
        i = dst.index.get(label)
        if i is None:
            raise ValueError("operator output escapes the basis at %s"
                             % (dst.name(label),))
        v[i] = Fraction(c, den)
    return v


def operator_matrix_dense_reference(op, src, dst):
    """The dense build: one coordinate vector per column, then the matrix
    of those columns."""
    return columns_matrix([coords(dst, op(b)) for b in src.labels], len(dst))


LABELS = ["a", "b", "c", "d", "e"]
_coefficients = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def labelled_operators(draw):
    """(table, src, dst): src and dst are (possibly empty) label lists and
    table maps each src label to its {dst label: coefficient} values, some
    of them zero; the operator is image(table[label])."""
    src = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=5))
    dst = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=5))
    table = {b: draw(st.dictionaries(st.sampled_from(dst), _coefficients,
                                     max_size=4)) if dst else {}
             for b in src}
    return table, src, dst


@settings(max_examples=100, deadline=None)
@given(labelled_operators())
def test_sparse_operator_matrix_matches_dense_build(case):
    table, src, dst = case
    src, dst = Basis(src), Basis(dst)
    got = operator_matrix(lambda b: image(table[b]), src, dst)
    assert got == operator_matrix_dense_reference(lambda b: image(table[b]),
                                                  src, dst)
    assert got.shape == (len(dst), len(src))


@settings(max_examples=40, deadline=None)
@given(labelled_operators(), st.data())
def test_sparse_operator_matrix_escape_message_unchanged(case, data):
    table, src, dst = case
    if not src:
        return
    outside = [x for x in LABELS if x not in dst] + ["off"]
    b = data.draw(st.sampled_from(src))
    table[b] = {**table[b], data.draw(st.sampled_from(outside)):
                data.draw(_coefficients.filter(bool))}
    src = Basis(src)
    dst = Basis(dst, name=lambda x: "<%s>" % x)
    with pytest.raises(ValueError) as want:
        operator_matrix_dense_reference(lambda x: image(table[x]), src, dst)
    with pytest.raises(ValueError) as got:
        operator_matrix(lambda x: image(table[x]), src, dst)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("operator output escapes the basis at <")


# -- property tests: block solve and the sparse rref -------------------------

def dense_rref(m):
    """Reference elimination: scale and subtract whole rows, zeros included."""
    rows = [list(r) for r in m.rows]
    pivots, r = [], 0
    for c in range(m.ncols):
        if r == m.nrows:
            break
        pivot_row = next((i for i in range(r, m.nrows) if rows[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return RatMatrix(rows, ncols=m.ncols), tuple(pivots), len(pivots)


_entries = {
    "sparse": st.one_of(st.just(0), st.just(0), st.just(0),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=4)),
    "dense": st.fractions(min_value=-5, max_value=5, max_denominator=6),
}


@st.composite
def matrices(draw, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(0, 6)) if ncols is None else ncols
    entry = _entries[draw(st.sampled_from(sorted(_entries)))]
    return RatMatrix([[draw(entry) for _ in range(ncols)]
                      for _ in range(nrows)], ncols=ncols)


@st.composite
def systems(draw):
    """(m, b): b has m's row count and 0..3 columns, sometimes in the
    column space of m."""
    m = draw(matrices())
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        b = m @ draw(matrices(nrows=m.ncols, ncols=k))
    else:
        b = draw(matrices(nrows=m.nrows, ncols=k))
    return m, b


_examples = settings(max_examples=100, deadline=None)


@_examples
@given(matrices())
def test_rref_matches_dense_reference(m):
    reduced, pivots, rk = rref(m)
    want = dense_rref(m)
    assert (reduced, pivots, rk) == want
    assert all(isinstance(x, Fraction) for row in reduced.rows for x in row)


@_examples
@given(systems())
def test_block_solve_matches_column_solves(system):
    m, b = system
    x = solve(m, b)
    per_column = [solve(m, column_block(b, j)) for j in range(b.ncols)]
    if any(v is None for v in per_column):
        assert x is None
    else:
        assert x is not None and x.shape == (m.ncols, b.ncols)
        assert x == columns_matrix(map(dense_column, per_column), m.ncols)
        assert m @ x == b


@_examples
@given(systems())
def test_block_solve_none_iff_rank_grows(system):
    m, b = system
    assert (solve(m, b) is None) == (rank(m.hstack(b)) > rank(m))


@_examples
@given(systems(), st.integers(min_value=0, max_value=4))
def test_solve_reads_a_block_sequence_side_by_side(system, cut):
    """solve(m, [b1, b2]) is solve(m, [b1 | b2]), with [m | b1 | b2] built
    by one from_blocks and no hstack."""
    m, b = system
    cut = min(cut, b.ncols)
    cols = [[r[j] for r in b.rows] for j in range(b.ncols)]
    b1 = columns_matrix(cols[:cut], b.nrows)
    b2 = columns_matrix(cols[cut:], b.nrows)
    calls = {"from_blocks": 0, "hstack": 0}
    real_from_blocks, real_hstack = RatMatrix.from_blocks, RatMatrix.hstack

    def from_blocks(nrows, ncols, placed):
        calls["from_blocks"] += 1
        return real_from_blocks(nrows, ncols, placed)

    def hstack(self, other):
        calls["hstack"] += 1
        return real_hstack(self, other)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RatMatrix, "from_blocks", staticmethod(from_blocks))
        mp.setattr(RatMatrix, "hstack", hstack)
        got = [solve(m, blocks) for blocks in ([b1, b2], (b1, b2))]
    assert calls == {"from_blocks": 2, "hstack": 0}
    assert got[0] == got[1] == solve(m, b)
    with pytest.raises(ValueError):
        solve(m, [b1, RatMatrix.zeros(m.nrows + 1, 1)])


def test_block_solve_empty_shapes():
    # no rows: every right-hand side is consistent, free variables are zero
    assert solve(RatMatrix.zeros(0, 3), RatMatrix.zeros(0, 2)) == \
        RatMatrix.zeros(3, 2)
    assert solve(RatMatrix.zeros(0, 3), vector()) == RatMatrix.zeros(3, 1)
    # no columns: only zero right-hand sides are in the column space
    assert solve(RatMatrix.zeros(2, 0), RatMatrix.zeros(2, 3)) == \
        RatMatrix.zeros(0, 3)
    assert solve(RatMatrix.zeros(2, 0), RatMatrix([[0], [1]])) is None
    assert solve(RatMatrix.zeros(2, 0), vector(0, 0)) == RatMatrix.zeros(0, 1)
    # no right-hand sides: an empty answer of the right shape, also for an
    # empty sequence of blocks
    m = RatMatrix([[1, 2], [3, 4], [5, 6]])
    assert solve(m, RatMatrix.zeros(3, 0)) == RatMatrix.zeros(2, 0)
    assert solve(m, []) == solve(m, ()) == RatMatrix.zeros(2, 0)
    assert solve(RatMatrix.zeros(0, 3), []) == RatMatrix.zeros(3, 0)
    with pytest.raises(ValueError):
        solve(m, RatMatrix.zeros(2, 1))
    with pytest.raises(ValueError):
        solve(m, vector(1, 2))


# -- property tests: sparse integer storage against dense Fraction lists -----

def d_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def d_matmul(a, b, ncols):
    return [[sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0))
             for j in range(ncols)] for row in a]


def d_hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


# zero-heavy, mostly non-integer entries
_sparse_entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                          st.just(Fraction(0)),
                          st.fractions(min_value=-4, max_value=4,
                                       max_denominator=9))


@st.composite
def dense(draw, nrows, ncols):
    return [[draw(_sparse_entry) for _ in range(ncols)] for _ in range(nrows)]


def as_input(draw, x):
    """x as the constructor may receive it: an int, a Fraction or 'p/q'."""
    kind = draw(st.sampled_from(("fraction", "string", "int")))
    if kind == "string":
        return str(x)
    if kind == "int" and x.denominator == 1:
        return int(x)
    return x


@st.composite
def operands(draw):
    """((n, m, p), a, b, c, v, k): a and b are n x m, c is m x p, v has m
    entries, as dense Fraction lists; k is a scalar."""
    n, m, p = (draw(st.integers(0, 5)) for _ in range(3))
    return ((n, m, p), draw(dense(n, m)), draw(dense(n, m)),
            draw(dense(m, p)), [draw(_sparse_entry) for _ in range(m)],
            draw(st.fractions(min_value=-3, max_value=3, max_denominator=5)))


def build(draw, rows, ncols):
    return RatMatrix([[as_input(draw, x) for x in row] for row in rows],
                     ncols=ncols)


def check_against(m, want, ncols):
    """m holds exactly the dense Fraction rows `want`, in canonical form."""
    assert m.shape == (len(want), ncols)
    assert m.rows == tuple(tuple(r) for r in want)
    assert all(type(x) is Fraction for row in m.rows for x in row)
    for j in range(ncols):
        assert m.col(j) == {i: r[j] for i, r in enumerate(want) if r[j]}
        assert list(m.col(j)) == sorted(m.col(j))
        assert all(type(x) is Fraction for x in m.col(j).values())
    assert m.column_rows() == [[i for i, r in enumerate(want) if r[j]]
                               for j in range(ncols)]
    for i in range(len(want)):
        for j in range(ncols):
            assert m.entry(i, j) == want[i][j] and \
                type(m.entry(i, j)) is Fraction
    assert m.is_zero() == all(x == 0 for r in want for x in r)
    # lowest terms: den is the lcm of the entry denominators, 1 when zero
    assert m.den == lcm(*(x.denominator for r in want for x in r))
    assert m == RatMatrix(want, ncols=ncols)


@_examples
@given(st.data(), operands())
def test_sparse_storage_matches_dense_reference(data, ops):
    (n, m, p), a_rows, b_rows, c_rows, v, k = ops
    a = build(data.draw, a_rows, m)
    b = build(data.draw, b_rows, m)
    c = build(data.draw, c_rows, p)
    check_against(a, a_rows, m)
    check_against(c, c_rows, p)
    check_against(a + b, d_add(a_rows, b_rows), m)
    check_against(a - b, d_add(a_rows, b_rows, -1), m)
    check_against(-a, [[-x for x in r] for r in a_rows], m)
    check_against(a.scale(k), [[k * x for x in r] for r in a_rows], m)
    check_against(a @ c, d_matmul(a_rows, c_rows, p), p)
    check_against(a.hstack(b), d_hstack(a_rows, b_rows), 2 * m)
    got = a.mat_vec(v)
    assert got == [sum((x * y for x, y in zip(r, v)), Fraction(0))
                   for r in a_rows]
    assert all(type(x) is Fraction for x in got)
    assert (a == b) == (a_rows == b_rows)


@_examples
@given(st.data(), operands())
def test_equal_matrices_built_by_different_routes(data, ops):
    (n, m, p), a_rows, b_rows, c_rows, v, k = ops
    a = build(data.draw, a_rows, m)
    b = build(data.draw, b_rows, m)
    assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a
    assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)).den == a.den
    assert RatMatrix(a.rows, ncols=m) == a
    assert (a + b) - b == a
    assert a + a == a.scale(2)
    assert a - a == RatMatrix.zeros(n, m)
    assert (a - a).den == 1
    assert a @ RatMatrix.identity(m) == a
    assert a.scale(k) == RatMatrix([[k * x for x in r] for r in a_rows], ncols=m)
    assert a.hstack(b) == RatMatrix.from_blocks(n, 2 * m,
                                                [(0, m, b), (0, 0, a)])


def test_integer_matrix_scaled_back_has_denominator_one():
    a = RatMatrix([[1, 0, 2], [0, 0, 0], [-3, 4, 0]])
    b = a.scale(Fraction(2, 3))
    assert b.den == 3
    assert b.scale(Fraction(3, 2)) == a and b.scale(Fraction(3, 2)).den == 1
    half = RatMatrix([["1/2", "1/2"]])
    assert (half + half).den == 1 and half + half == RatMatrix([[1, 1]])


# (call, error type, message) for each input guard of RatMatrix
MATRIX_GUARDS = [
    (lambda: RatMatrix([[1, 2], [3]]), ValueError,
     "ragged rows in matrix input"),
    (lambda: RatMatrix([[1, 2]], ncols=3), ValueError,
     "ncols=3 disagrees with row width 2"),
    (lambda: RatMatrix([[1, 2]]).col(2), IndexError, "column 2 out of range"),
    (lambda: RatMatrix([[1, 2]]).col(-1), IndexError,
     "column -1 out of range"),
    (lambda: RatMatrix([[1, 2]]) @ RatMatrix([[1, 2]]), ValueError,
     "shape mismatch in product: (1, 2) @ (1, 2)"),
    (lambda: RatMatrix([[1, 2]]).mat_vec([1]), ValueError,
     "vector length 1 does not match 2 columns"),
    (lambda: RatMatrix([[1]]).hstack(RatMatrix([[1], [2]])), ValueError,
     "row count mismatch in hstack"),
    (lambda: RatMatrix([[1]]) + RatMatrix([[1, 2]]), ValueError,
     "shape mismatch: (1, 1) vs (1, 2)"),
    (lambda: RatMatrix([[1]]) - RatMatrix.zeros(2, 1), ValueError,
     "shape mismatch: (1, 1) vs (2, 1)"),
]


@pytest.mark.parametrize("call,error,message", MATRIX_GUARDS,
                         ids=[message for _, _, message in MATRIX_GUARDS])
def test_matrix_input_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert err.value.args == (message,)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        RatMatrix([[0.5]])
    with pytest.raises(TypeError):
        RatMatrix([[1, 0.0]])
    with pytest.raises(TypeError):
        RatMatrix.diagonal([1, 0.5])
    with pytest.raises(TypeError):
        RatMatrix([[1]]).scale(0.5)


def test_from_blocks_rejects_a_block_outside():
    with pytest.raises(ValueError):
        RatMatrix.from_blocks(2, 2, [(1, 0, RatMatrix([[1], [2]]))])


# -- exact images and the scalar coercion ---------------------------------------

_scalars = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-6, max_value=6, max_denominator=12))
_vectors = st.dictionaries(st.sampled_from(LABELS), _scalars, max_size=5)


def is_lowest(img):
    terms, den = img
    return (type(den) is int and den > 0 and gcd(den, *terms.values()) == 1
            and all(type(c) is int and c for c in terms.values()))


@_examples
@given(_vectors)
def test_image_is_in_lowest_terms_and_reads_back(values):
    img = image(values)
    assert is_lowest(img) and lowest(*img) == img
    terms, den = img
    assert {k: Fraction(c, den) for k, c in terms.items()} == \
        {k: x for k, x in values.items() if x}


@_examples
@given(st.lists(st.tuples(st.integers(-3, 3), _vectors), max_size=4),
       st.integers(1, 6))
def test_combine_is_the_fraction_sum(scaled, den):
    want = {}
    for c, values in scaled:
        for k, x in values.items():
            want[k] = want.get(k, 0) + c * Fraction(x) / den
    img = combine([(c, image(values)) for c, values in scaled], den)
    assert is_lowest(img)
    terms, den = img
    assert {k: Fraction(c, den) for k, c in terms.items()} == \
        {k: x for k, x in want.items() if x}


@_examples
@given(st.fractions(min_value=-20, max_value=20, max_denominator=12),
       st.integers(1, 3))
def test_exact_is_an_int_exactly_when_integral(x, k):
    kind = int if x.denominator == 1 else Fraction
    for given_as in (x, "%d/%d" % (k * x.numerator, k * x.denominator)):
        got = exact(given_as)
        assert got == x and type(got) is kind
    if kind is int:
        assert type(exact(int(x))) is int
    with pytest.raises(TypeError):
        exact(float(x))
