"""Exact linear algebra over the rationals.

A matrix is stored sparse, on exact integers: each row is a {column: nonzero
int} dict, and one positive integer `den`, in lowest terms (1 for the zero
matrix), is the common denominator of every entry.  Arithmetic touches only
the stored nonzeros and runs on Python ints; every value handed out (an
entry, a row, a sparse {row: value} column) is a Fraction.  Kernels and
solutions are handed out as matrices, built from the integer rows with no
dense vector in between.  Everything here is exact: no floats, no
tolerances.  Matrices are immutable; all functions return fresh objects.

The package's exact-number rule lives here alone: a string is a number
only in the grammar `RATIONAL` (an integer or p/q), `exact` gives a scalar
as the kernels compute with it (an int when integral, else a Fraction), and
an exact image (terms, den), a {key: nonzero int} dict over a positive den
in lowest terms, is the matrix storage rule for one vector (`image`,
`lowest`, `combine`).  `operator_matrix` turns an operator that returns exact images
into a matrix on labelled bases, the one way to do so.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


# the one grammar of an exact number in a string: a signed integer or p/q,
# with no space, decimal point or exponent
RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def rat(x) -> Fraction:
    """Coerce an int, a Fraction or a RATIONAL string to an exact rational;
    any other string raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if RATIONAL.fullmatch(x) is None:
            raise ValueError("not a 'p/q' rational: %r" % (x,))
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def exact(x):
    """An int, a Fraction or a RATIONAL string as an int when it is
    integral and as a Fraction otherwise."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        x = rat(x)
    return x.numerator if x.denominator == 1 else x


# -- exact images: a {key: nonzero int} dict over a positive denominator -------

def image(values):
    """{key: int or Fraction} as an exact image (terms, den): den is the lcm
    of the denominators and terms the nonzero values times den.  Each value
    is in lowest terms, so the image is too."""
    den = 1
    for x in values.values():
        if den % x.denominator:
            den = lcm(den, x.denominator)
    return ({k: x.numerator * (den // x.denominator)
             for k, x in values.items() if x}, den)


def lowest(terms, den):
    """(terms, den) with zero terms dropped and den and the numerators
    divided by their gcd, so equal images have equal storage."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    g = gcd(den, *terms.values())
    if g != 1:
        terms = {k: c // g for k, c in terms.items()}
        den //= g
    return terms, den


def combine(scaled, den=1):
    """The sum of c * terms / d over the list scaled of (int c, (terms, d)),
    all divided by den, over one common denominator: the lcm of the d, as
    RatMatrix adds its matrices.  Every (terms, d) is in lowest terms."""
    if len(scaled) == 1 and scaled[0][0] == 1 and den == 1:
        return scaled[0][1]
    common = 1
    for _, (_, d) in scaled:
        if common % d:
            common = lcm(common, d)
    out = {}
    get = out.get
    for c, (terms, d) in scaled:
        if d != common:
            c *= common // d
        for k, v in terms.items():
            out[k] = get(k, 0) + c * v
    return lowest(out, common * den)


def _rows(terms, nrows):
    """The {column: int} rows of image terms keyed by (row, column)."""
    rows = [{} for _ in range(nrows)]
    for (i, j), v in terms.items():
        rows[i][j] = v
    return rows


class RatMatrix:
    """Immutable sparse matrix over Q: entry (i, j) is _nums[i].get(j, 0) / den.

    The form is canonical: no stored zero, den > 0, and the gcd of den and
    every numerator is 1, so equal matrices have equal storage.  Zero-row and
    zero-column shapes are allowed (graded pieces may be empty); pass ncols
    explicitly when there are no rows to infer it from.
    """

    __slots__ = ("_nums", "den", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """rows: dense rows of ints, Fractions or 'p/q' strings."""
        rows = [[exact(x) for x in row] for row in rows]
        width = len(rows[0]) if rows else None
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows in matrix input")
        if width is not None:
            if ncols is not None and ncols != width:
                raise ValueError("ncols=%d disagrees with row width %d" % (ncols, width))
            ncols = width
        else:
            ncols = 0 if ncols is None else int(ncols)
        terms, den = image({(i, j): x for i, row in enumerate(rows)
                            for j, x in enumerate(row)})
        self._fill(_rows(terms, len(rows)), den, ncols)

    def _fill(self, nums, den, ncols):
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nrows", len(nums))
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def _of(cls, nums, den, ncols):
        """The matrix nums / den for {col: nonzero int} rows and den > 0,
        brought to lowest terms.  The row dicts are taken over, not copied."""
        if den != 1:
            g = den
            for r in nums:
                if r:
                    g = gcd(g, *r.values())
                    if g == 1:
                        break
            if g != 1:
                nums = [{j: v // g for j, v in r.items()} for r in nums]
                den //= g
        m = object.__new__(cls)
        m._fill(nums, den, ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._of([{} for _ in range(nrows)], 1, ncols)

    @classmethod
    def identity(cls, n):
        return cls._of([{i: 1} for i in range(n)], 1, n)

    @classmethod
    def diagonal(cls, entries):
        """The square matrix with the given ints or Fractions on its
        diagonal."""
        entries = [exact(x) for x in entries]
        terms, den = image({(i, i): x for i, x in enumerate(entries)})
        return cls._of(_rows(terms, len(entries)), den, len(entries))

    @classmethod
    def from_blocks(cls, nrows, ncols, placed):
        """An nrows x ncols matrix holding each block of `placed`, a list of
        (row offset, column offset, RatMatrix), at its offsets; zero elsewhere.
        Blocks must not overlap."""
        den = 1
        for _, _, blk in placed:
            den = lcm(den, blk.den)
        nums = [{} for _ in range(nrows)]
        for ro, co, blk in placed:
            if ro < 0 or co < 0 or ro + blk.nrows > nrows or co + blk.ncols > ncols:
                raise ValueError("block %s at (%d, %d) leaves the %d x %d matrix"
                                 % (blk.shape, ro, co, nrows, ncols))
            f = den // blk.den
            for i, r in enumerate(blk._nums):
                nums[ro + i].update((co + j, v * f) for j, v in r.items())
        return cls._of(nums, den, ncols)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """The entries as a dense tuple of Fraction tuples."""
        d, n = self.den, self.ncols
        out = []
        for r in self._nums:
            row = [_ZERO] * n
            for j, v in r.items():
                row[j] = Fraction(v, d)
            out.append(tuple(row))
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.ncols == other.ncols
                and self.den == other.den and self._nums == other._nums)

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.nrows, self.ncols)

    def entry(self, i, j) -> Fraction:
        if not 0 <= i < self.nrows:
            raise IndexError("row %d out of range" % (i,))
        if not 0 <= j < self.ncols:
            raise IndexError("column %d out of range" % (j,))
        v = self._nums[i].get(j)
        return Fraction(v, self.den) if v else _ZERO

    def col(self, j):
        """Column j as a sparse {row: nonzero Fraction} dict, rows
        ascending."""
        if not 0 <= j < self.ncols:
            raise IndexError("column %d out of range" % (j,))
        d = self.den
        return {i: Fraction(r[j], d) for i, r in enumerate(self._nums)
                if j in r}

    def is_zero(self) -> bool:
        return not any(self._nums)

    def column_rows(self):
        """The rows of each column's nonzero entries, ascending, in column
        order; no entry is built."""
        cols = [[] for _ in range(self.ncols)]
        for i, r in enumerate(self._nums):
            for j in r:
                cols[j].append(i)
        return cols

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other."""
        self._same_shape(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = []
        for ra, rb in zip(self._nums, other._nums):
            row = {j: v * fa for j, v in ra.items()}
            for j, v in rb.items():
                s = row.get(j, 0) + v * fb
                if s:
                    row[j] = s
                else:
                    del row[j]
            out.append(row)
        return RatMatrix._of(out, den, self.ncols)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        p = c.numerator
        return RatMatrix._of([{j: v * p for j, v in r.items()} if p else {}
                              for r in self._nums], self.den * c.denominator,
                             self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product: %s @ %s" % (self.shape, other.shape))
        b_rows = other._nums
        out = []
        for ra in self._nums:
            acc = {}
            for k, a in ra.items():
                for j, b in b_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            out.append(acc)
        return RatMatrix._of(out, self.den * other.den, other.ncols)

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("vector length %d does not match %d columns" % (len(v), self.ncols))
        d = self.den
        out = []
        for r in self._nums:
            acc = 0
            for k, a in r.items():
                x = v[k]
                if x:
                    acc += a * rat(x)
            out.append(Fraction(acc) / d)
        return out

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return RatMatrix.from_blocks(self.nrows, self.ncols + other.ncols,
                                     [(0, 0, self), (0, self.ncols, other)])

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))


# -- operators on labelled bases ----------------------------------------------

class Basis:
    """Ordered labels with their index.

    `name` turns a label into text for the one error a basis raises: an
    operator output on a label outside it.
    """

    __slots__ = ("labels", "index", "name")

    def __init__(self, labels, name=repr):
        self.labels = list(labels)
        self.index = {b: i for i, b in enumerate(self.labels)}
        self.name = name

    def __len__(self):
        return len(self.labels)

    def escape(self, label):
        """The error for an operator output on a label outside the basis."""
        return ValueError("operator output escapes the basis at %s"
                          % (self.name(label),))


def operator_matrix(op, src: Basis, dst: Basis) -> RatMatrix:
    """Column j holds the dst coordinates of op(src.labels[j]), an exact
    image (terms, den) keyed by dst labels.  The columns are brought to one
    denominator, the lcm of theirs, and their integer terms are written
    straight into the sparse rows, with no dense column in between."""
    images = [op(b) for b in src.labels]
    den = lcm(*(d for _, d in images))
    index = dst.index
    nums = [{} for _ in range(len(dst))]
    for j, (terms, d) in enumerate(images):
        f = den // d
        for label, c in terms.items():
            i = index.get(label)
            if i is None:
                raise dst.escape(label)
            nums[i][j] = c * f
    return RatMatrix._of(nums, den, len(src))


# -- sparse vectors -----------------------------------------------------------

def add_into(acc, terms, c=1):
    """acc += c * terms on sparse vectors {label: nonzero value}, dropping
    zeros."""
    if c != 1:
        terms = {m: c * v for m, v in terms.items()}
    for m, v in terms.items():
        prev = acc.get(m)
        if prev is None:
            acc[m] = v
        elif prev + v:
            acc[m] = prev + v
        else:
            del acc[m]


# -- elimination ------------------------------------------------------------

def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns (reduced, pivot_columns, rank).  Deterministic: pivots are chosen
    left to right, first nonzero entry from the top.  The elimination runs on
    the integer numerators: each pivot row is made primitive with a positive
    pivot, and a row r with entry f in the pivot column becomes
    (p/g) r - (f/g) (pivot row), g = gcd(p, f), divided by its content.
    Only stored nonzeros are touched.  The pivot rows are divided by their
    pivots once, at the end, so the result is the unique reduced form.
    """
    rows = [dict(r) for r in m._nums]
    nrows = m.nrows
    pivots = []
    r = 0
    for c in range(m.ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        g = gcd(*prow.values())
        if prow[c] < 0:
            g = -g
        if g != 1:
            for j in prow:
                prow[j] //= g
        p = prow[c]
        pitems = list(prow.items())
        for i in range(nrows):
            row = rows[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in pitems:
                s = row.get(j, 0) - b * y
                if s:
                    row[j] = s
                else:
                    del row[j]
            if a != 1 and row:
                g = gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        pivots.append(c)
        r += 1
    den = lcm(*(rows[i][c] for i, c in enumerate(pivots)))
    for i, c in enumerate(pivots):
        f = den // rows[i][c]
        if f != 1:
            rows[i] = {j: v * f for j, v in rows[i].items()}
    return RatMatrix._of(rows, den, m.ncols), tuple(pivots), len(pivots)


def rank(m: RatMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Basis of the null space, as the columns of an ncols x (ncols - rank)
    matrix K with m @ K = 0.

    Column i is the standard vector of the i-th free column of the reduced
    echelon form: that free variable is 1 and the pivots are back-solved.
    K is written straight from the integer rows of the reduced form over
    its den, whose pivot entries are all den.
    """
    reduced, pivots, _ = rref(m)
    free = sorted(set(range(m.ncols)).difference(pivots))
    index = {j: i for i, j in enumerate(free)}
    nums = [{index[j]: reduced.den} if j in index else {}
            for j in range(m.ncols)]
    for r, p in zip(reduced._nums, pivots):
        nums[p] = {index[j]: -v for j, v in r.items() if j != p}
    return RatMatrix._of(nums, reduced.den, len(free))


def solve(m: RatMatrix, b):
    """One exact solution X of m X = b, or None when a column of b is not in
    the column space of m.

    b is a RatMatrix of right-hand sides, or a list or tuple of RatMatrix
    blocks read side by side as one right-hand side [b1 | b2 | ...]; an
    empty sequence is no right-hand side, with an m.ncols x 0 answer.  One
    rref of [m | b], assembled by one from_blocks, decides it.  Free
    variables are set to zero, so the answer is deterministic.  Raises
    ValueError when a block does not have m.nrows rows.
    """
    blocks = [b] if isinstance(b, RatMatrix) else b
    n = col = m.ncols
    placed = [(0, 0, m)]
    for blk in blocks:
        if blk.nrows != m.nrows:
            raise ValueError("right-hand side length %d does not match %d rows" % (blk.nrows, m.nrows))
        placed.append((0, col, blk))
        col += blk.ncols
    reduced, pivots, rk = rref(RatMatrix.from_blocks(m.nrows, col, placed))
    if pivots and pivots[-1] >= n:
        return None
    x = [{} for _ in range(n)]
    for r_idx, p in enumerate(pivots):
        x[p] = {j - n: v for j, v in reduced._nums[r_idx].items() if j >= n}
    return RatMatrix._of(x, reduced.den, col - n)
