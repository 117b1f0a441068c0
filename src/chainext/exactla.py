"""Exact linear algebra over the rationals.

Dense matrices with Fraction entries.  Everything here is exact: no floats,
no tolerances.  Matrices are immutable; all functions return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Rat:
    """Coerce an int, a 'p/q' string or a Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


class RatMatrix:
    """Immutable dense matrix over Q, stored row-major.

    Zero-row and zero-column shapes are allowed (graded pieces may be
    empty); pass ncols explicitly when there are no rows to infer it from.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(rat(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("ragged rows in matrix input")
            if ncols is not None and ncols != width:
                raise ValueError("ncols=%d disagrees with row width %d" % (ncols, width))
            ncols = width
        else:
            ncols = 0 if ncols is None else int(ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[_ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols, nrows=None):
        """Build a matrix whose columns are the given vectors."""
        cols = [list(c) for c in cols]
        if cols:
            nrows = len(cols[0])
            for c in cols:
                if len(c) != nrows:
                    raise ValueError("ragged columns")
            return cls([[cols[j][i] for j in range(len(cols))] for i in range(nrows)],
                       ncols=len(cols))
        return cls.zeros(0 if nrows is None else nrows, 0)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.nrows, self.ncols)

    def entry(self, i, j) -> Rat:
        return self.rows[i][j]

    def col(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return RatMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other):
        self._same_shape(other)
        return RatMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)], ncols=self.ncols)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return RatMatrix([[c * x for x in row] for row in self.rows], ncols=self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product: %s @ %s" % (self.shape, other.shape))
        out = [[_ZERO] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            row_i = self.rows[i]
            out_i = out[i]
            for k in range(self.ncols):
                a = row_i[k]
                if a == 0:
                    continue
                row_k = other.rows[k]
                for j in range(other.ncols):
                    b = row_k[j]
                    if b != 0:
                        out_i[j] += a * b
        return RatMatrix(out, ncols=other.ncols)

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("vector length %d does not match %d columns" % (len(v), self.ncols))
        out = [_ZERO] * self.nrows
        for i in range(self.nrows):
            acc = _ZERO
            row = self.rows[i]
            for k in range(self.ncols):
                a = row[k]
                if a != 0 and v[k] != 0:
                    acc += a * rat(v[k])
            out[i] = acc
        return out

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return RatMatrix([list(ra) + list(rb) for ra, rb in zip(self.rows, other.rows)],
                         ncols=self.ncols + other.ncols)

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))


# -- operators on labelled bases ----------------------------------------------

class Basis:
    """Ordered labels with their index.

    `name` turns a label into text for the one error this class raises: a
    nonzero coefficient on a label outside the basis.
    """

    __slots__ = ("labels", "index", "name")

    def __init__(self, labels, name=repr):
        self.labels = list(labels)
        self.index = {b: i for i, b in enumerate(self.labels)}
        self.name = name

    def __len__(self):
        return len(self.labels)

    def coords(self, pairs):
        """Coordinate vector of (label, coefficient) pairs; zero coefficients
        may carry any label."""
        v = [_ZERO] * len(self.labels)
        for label, c in pairs:
            i = self.index.get(label)
            if i is not None:
                v[i] = c
            elif c != 0:
                raise ValueError("operator output escapes the basis at %s"
                                 % (self.name(label),))
        return v


def operator_matrix(op, src: Basis, dst: Basis) -> RatMatrix:
    """Column j holds the dst coordinates of op(src.labels[j]), where op
    returns (label, coefficient) pairs."""
    return RatMatrix.from_columns([dst.coords(op(b)) for b in src.labels],
                                  nrows=len(dst))


# -- vector helpers ---------------------------------------------------------

def vec(xs):
    return [rat(x) for x in xs]

def vec_zeros(n):
    return [_ZERO] * n

def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]

def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def vec_scale(c, u):
    c = rat(c)
    return [c * a for a in u]

def vec_is_zero(u):
    return all(a == 0 for a in u)


# -- elimination ------------------------------------------------------------

def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns (reduced, pivot_columns, rank).  Deterministic: pivots are chosen
    left to right, first nonzero entry from the top.  Only the nonzero
    entries of each pivot row are scaled and subtracted, so sparse input
    costs in proportion to its nonzeros.
    """
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        inv = _ONE / prow[c]
        nonzeros = [(j, x * inv) for j, x in enumerate(prow) if x != 0]
        for j, x in nonzeros:
            prow[j] = x
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i != r and f != 0:
                for j, y in nonzeros:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return RatMatrix(rows, ncols=ncols), tuple(pivots), len(pivots)


def rank(m: RatMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: RatMatrix):
    """Basis of the null space, as a list of column vectors.

    len(result) == ncols - rank(m); the basis is the standard one read off
    the reduced echelon form (free variable set to 1, pivots back-solved).
    """
    reduced, pivots, rk = rref(m)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    for f in free:
        v = vec_zeros(m.ncols)
        v[f] = _ONE
        for r_idx, p in enumerate(pivots):
            v[p] = -reduced.rows[r_idx][f]
        basis.append(v)
    return basis


def solve(m: RatMatrix, b):
    """One exact solution x of m x = b, or None when b is not in the column space.

    b is a vector (the answer is a vector) or a RatMatrix of right-hand
    sides (the answer is a RatMatrix X with m X = b, and None when any column
    of b lies outside the column space).  Either way one rref of [m | b]
    decides it.  Free variables are set to zero, so the answer is
    deterministic.  Raises ValueError when b does not have m.nrows rows.
    """
    block = isinstance(b, RatMatrix)
    if not block:
        b = RatMatrix.from_columns([vec(b)], nrows=len(b))
    if b.nrows != m.nrows:
        raise ValueError("right-hand side length %d does not match %d rows" % (b.nrows, m.nrows))
    reduced, pivots, rk = rref(m.hstack(b))
    if pivots and pivots[-1] >= m.ncols:
        return None
    x = [[_ZERO] * b.ncols for _ in range(m.ncols)]
    for r_idx, p in enumerate(pivots):
        x[p] = reduced.rows[r_idx][m.ncols:]
    x = RatMatrix(x, ncols=b.ncols)
    return x if block else x.col(0)


def quotient_dims(sub: RatMatrix, ambient_dim: int) -> int:
    """dim(ambient / span(columns of sub)); columns live in the ambient space."""
    if sub.nrows != ambient_dim:
        raise ValueError("subspace vectors have length %d, ambient dimension is %d"
                         % (sub.nrows, ambient_dim))
    rk = rank(sub)
    return ambient_dim - rk
