"""Graded complexes, contracting homotopies, and three-term chain extensions.

The central construction: given a resolution (X_*, l1) of F with a contracting
homotopy (eta, lam, s) satisfying

    eta . lam = 1        and        lam . eta - 1 = l1 s + s l1   (all degrees),

and a degree-zero operator l2_0 on X_0 such that

    (i)   eta . l2_0 . lam equals the differential supplied on F (when given),
    (ii)  l2_0 maps B = l1(X_1) into itself,
    (iii) l2_0 . l2_0 maps X_0 into B,

`chain_extend` produces maps l2 (degree 0) and l3 (degree +1) with

    (l1 + l2 + l3)^2 = 0,    l2 = 0 in degrees > 1,    l3 = 0 in degrees > 0.

Everything is exact over Q and bit-for-bit deterministic.
`compare_with_engine` compares l2 and l3 with the closed forms of brst, bv
and shlie, on their exports (HomotopyData, l2_0, one Basis per degree).
"""

from __future__ import annotations

from .exactla import Basis, RatMatrix, image, operator_matrix, rank, solve


class ExtensionPreconditionError(ValueError):
    """l2_0 fails one of the extension conditions (i)-(iii)."""


class GradedSpace:
    """Finite graded vector space over Q, degrees 0..top, given by dimensions."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise ValueError("negative dimension")
        self.dims = dims

    @property
    def top(self):
        return len(self.dims) - 1

    def dim(self, k):
        if 0 <= k < len(self.dims):
            return self.dims[k]
        return 0

    @property
    def total_dim(self):
        return sum(self.dims)

    def offset(self, k):
        """Start of degree k in the concatenated basis ordering."""
        return sum(self.dims[:k])

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __repr__(self):
        return "GradedSpace(dims=%r)" % (self.dims,)


class GradedMap:
    """Degree-homogeneous linear map X_k -> X_{k+shift}, one block per degree.

    Blocks are indexed by source degree; a missing block is zero.  Blocks whose
    source or target component is zero-dimensional may be omitted entirely.
    """

    __slots__ = ("space", "shift", "blocks")

    def __init__(self, space, shift, blocks=None):
        self.space = space
        self.shift = int(shift)
        clean = {}
        for k, m in (blocks or {}).items():
            k = int(k)
            want = (space.dim(k + self.shift), space.dim(k))
            if m.shape != want:
                raise ValueError("block %d has shape %s, expected %s" % (k, m.shape, want))
            clean[k] = m
        self.blocks = clean

    def block(self, k) -> RatMatrix:
        if k in self.blocks:
            return self.blocks[k]
        return RatMatrix.zeros(self.space.dim(k + self.shift), self.space.dim(k))

    def placed_blocks(self):
        """(row offset, column offset, block) of every block, for the
        concatenated basis of all degrees."""
        sp = self.space
        return [(sp.offset(k + self.shift), sp.offset(k), blk)
                for k, blk in self.blocks.items()
                if 0 <= k <= sp.top and 0 <= k + self.shift <= sp.top]


class HomotopyData:
    """A resolution of F with its contracting homotopy.

    l1: degree -1 map on `space`; eta: X_0 -> F; lam: F -> X_0;
    s: degree +1 map.  `verify_homotopy` checks the defining identities.
    """

    __slots__ = ("space", "l1", "f_dim", "eta", "lam", "s")

    def __init__(self, space, l1, f_dim, eta, lam, s):
        if l1.shift != -1:
            raise ValueError("l1 must have degree -1")
        if s.shift != +1:
            raise ValueError("s must have degree +1")
        f_dim = int(f_dim)
        if eta.shape != (f_dim, space.dim(0)):
            raise ValueError("eta has shape %s, expected %s" % (eta.shape, (f_dim, space.dim(0))))
        if lam.shape != (space.dim(0), f_dim):
            raise ValueError("lam has shape %s, expected %s" % (lam.shape, (space.dim(0), f_dim)))
        self.space = space
        self.l1 = l1
        self.f_dim = f_dim
        self.eta = eta
        self.lam = lam
        self.s = s


def projection_pair(x0: Basis, f: Basis):
    """(eta, lam) for F spanned by a subset f of X_0's labels: eta projects
    X_0 onto F, dropping every other label, and lam includes F in X_0."""
    eta = operator_matrix(
        lambda b: image({b: 1} if b in f.index else {}), x0, f)
    lam = operator_matrix(lambda b: image({b: 1}), f, x0)
    return eta, lam


class ChainExtension:
    """The output of chain_extend: l1, l2, l3 with nilpotent sum."""

    __slots__ = ("space", "l1", "l2", "l3", "_total")

    def __init__(self, space, l1, l2, l3):
        if l1.shift != -1 or l2.shift != 0 or l3.shift != +1:
            raise ValueError("degree shifts must be (-1, 0, +1)")
        self.space = space
        self.l1 = l1
        self.l2 = l2
        self.l3 = l3
        self._total = None

    def total_matrix(self) -> RatMatrix:
        """l = l1 + l2 + l3 as one matrix on the concatenated basis of all
        degrees, assembled from the blocks of the three maps on first use and
        kept.  The three shifts differ, so no two blocks overlap."""
        if self._total is None:
            n = self.space.total_dim
            self._total = RatMatrix.from_blocks(
                n, n, self.l1.placed_blocks() + self.l2.placed_blocks()
                + self.l3.placed_blocks())
        return self._total


def homotopy_residuals(hd: HomotopyData) -> dict:
    """{key: residual matrix} of the resolution identities, each zero
    exactly when its identity holds, column j on basis vector j: l1.l1 = 0
    (l1_l1_zero@2..top), eta.lam = 1 on F (eta_lam_identity) and lam.eta - 1
    = l1 s + s l1 (homotopy@0..top; degrees > 0 read -1 = l1 s + s l1)."""
    sp = hd.space
    res = {}
    for k in range(2, sp.top + 1):
        res["l1_l1_zero@%d" % k] = hd.l1.block(k - 1) @ hd.l1.block(k)
    res["eta_lam_identity"] = hd.eta @ hd.lam - RatMatrix.identity(hd.f_dim)
    # degree 0: lam.eta - 1 = l1 s   (s l1 vanishes: l1 is zero on X_0)
    res["homotopy@0"] = (hd.lam @ hd.eta - RatMatrix.identity(sp.dim(0))
                         - hd.l1.block(1) @ hd.s.block(0))
    for k in range(1, sp.top + 1):
        res["homotopy@%d" % k] = (hd.l1.block(k + 1) @ hd.s.block(k)
                                  + hd.s.block(k - 1) @ hd.l1.block(k)
                                  + RatMatrix.identity(sp.dim(k)))
    return res


def verify_homotopy(hd: HomotopyData) -> dict:
    """Degree-wise report on the resolution identities: each key of
    homotopy_residuals, true when its residual is zero, and ok."""
    checks = {key: r.is_zero() for key, r in homotopy_residuals(hd).items()}
    checks["ok"] = all(checks.values())
    return checks


def _product(a, b):
    """a @ b, or None when it is zero; a None (missing) or zero factor is not multiplied."""
    if a is None or b is None or a.is_zero() or b.is_zero():
        return None
    m = a @ b
    return None if m.is_zero() else m


def check_l2_conditions(hd: HomotopyData, l2_0: RatMatrix, d_f: RatMatrix | None = None,
                        l2_sq: RatMatrix | None = None) -> dict:
    """Check the three extension conditions on a degree-zero operator.

    B is always computed as the image of l1 on X_1 (never user-supplied).
    Condition (i) is checked only when a differential on F is passed in.
    l2_sq, when given, is l2_0 @ l2_0, computed by the caller.
    """
    n0 = hd.space.dim(0)
    if l2_0.shape != (n0, n0):
        raise ValueError("l2_0 has shape %s, expected %s" % (l2_0.shape, (n0, n0)))
    b_mat = hd.l1.block(1)
    report = {}
    if d_f is None:
        report["condition_i"] = None
    else:
        if d_f.shape != (hd.f_dim, hd.f_dim):
            raise ValueError("d_f has shape %s, expected %s"
                             % (d_f.shape, (hd.f_dim, hd.f_dim)))
        induced = _product(_product(hd.eta, l2_0), hd.lam)
        report["condition_i"] = d_f.is_zero() if induced is None else induced == d_f
    # a zero block lies in every column space and needs no solve; B is
    # reduced once for both blocks, since a pivot in [l2_0 B | l2_0^2] puts
    # some column outside span(B), and only then is each block solved alone
    image = _product(l2_0, b_mat)
    if l2_sq is None:
        l2_sq = l2_0 @ l2_0
    both = image is not None and not l2_sq.is_zero() and \
        solve(b_mat, (image, l2_sq)) is not None
    report["condition_ii"] = both or image is None or \
        solve(b_mat, image) is not None
    report["condition_iii"] = both or l2_sq.is_zero() or \
        solve(b_mat, l2_sq) is not None
    report["ok"] = all(v for key, v in report.items() if key != "ok" and v is not None)
    return report


def chain_extend(hd: HomotopyData, l2_0: RatMatrix, d_f: RatMatrix | None = None) -> ChainExtension:
    """Extend (l1, l2_0) to a nilpotent l1 + l2 + l3.

    In positive degrees l2 = s . l2 . l1 and l3 = s . (l2 l2 + l3 l1);
    in degree zero l3 = s . l2 l2.  Raises ExtensionPreconditionError
    naming the first failing precondition.  Output is deterministic.
    """
    n0 = hd.space.dim(0)
    # one square serves condition (iii) and l3 in degree zero
    sq0 = l2_0 @ l2_0 if l2_0.shape == (n0, n0) else None
    report = check_l2_conditions(hd, l2_0, d_f, sq0)
    for name in ("condition_i", "condition_ii", "condition_iii"):
        if report[name] is False:
            raise ExtensionPreconditionError(
                "extension precondition failed: %s" % name)
    sp = hd.space
    l1, s = hd.l1.blocks, hd.s.blocks
    l2 = {0: l2_0}
    for k in range(1, sp.top + 1):
        blk = _product(_product(s.get(k - 1), l2.get(k - 1)), l1.get(k))
        if blk is not None:
            l2[k] = blk
    l3 = {}
    for k in range(sp.top):
        sq = sq0 if k == 0 else _product(l2.get(k), l2.get(k))
        tail = _product(l3.get(k - 1), l1.get(k))
        inner = tail if sq is None else sq if tail is None else sq + tail
        blk = _product(s.get(k), inner)
        if blk is not None:
            l3[k] = blk
    return ChainExtension(sp, hd.l1, GradedMap(sp, 0, l2), GradedMap(sp, +1, l3))


# the report key that a nonzero entry of l^2 in shift class t breaks
_KEY_OF_SHIFT = {-2: "total_square_zero", -1: "l1l2_plus_l2l1_zero",
                 0: "l2l2_plus_l1l3_plus_l3l1_zero", 1: "l2l3_plus_l3l2_zero",
                 2: "l3l3_zero"}


def verify_nilpotent(ext: ChainExtension) -> dict:
    """Check the four graded relations, the structural vanishings and l^2 = 0,
    all read from one square of the total matrix of l = l1 + l2 + l3.

    l1, l2, l3 shift the degree by -1, 0, +1 and li lj by the sum, so the
    entries of l^2 from degree k to degree k + t sum the products of class t
    only (a term li[k+t, m] lj[m, k] is nonzero only if the shifts add to t):

        t = -2: l1 l1            t = 0: l2 l2 + l1 l3 + l3 l1    t = 2: l3 l3
        t = -1: l1 l2 + l2 l1    t = 1: l2 l3 + l3 l2

    A relation holds iff l^2 has no nonzero entry whose row degree minus
    column degree is its t; l1 l1 counts for total_square_zero only.
    first_failure is None when l^2 = 0, else (key, (degree, index within the
    degree)) of the first nonzero column of l^2, with the key that its first
    nonzero entry breaks; ok ignores it.
    """
    sp = ext.space
    total = ext.total_matrix()
    square = total @ total
    shifts, first = set(), None
    if not square.is_zero():
        deg = [k for k, d in enumerate(sp.dims) for _ in range(d)]
        for j, col in enumerate(square.columns()):
            shifts.update(deg[i] - deg[j] for i in col)
            if col and first is None:
                k = deg[j]
                first = (_KEY_OF_SHIFT[deg[min(col)] - k], (k, j - sp.offset(k)))
    checks = {key: t not in shifts for t, key in _KEY_OF_SHIFT.items() if t != -2}
    for key, gm, low in (("l2_vanishes_above_degree_1", ext.l2, 2),
                         ("l3_vanishes_above_degree_0", ext.l3, 1)):
        checks[key] = all(m.is_zero() for k, m in gm.blocks.items() if k >= low)
    checks["total_square_zero"] = not shifts
    checks["ok"] = all(v for key, v in checks.items() if key != "ok")
    checks["first_failure"] = first
    return checks


def compare_with_engine(hd: HomotopyData, l2_0: RatMatrix, bases,
                        closed) -> dict:
    """Run chain_extend on (hd, l2_0) and compare its blocks entry by entry
    with closed, {("l2" | "l3", k): the instance's closed-form block}.

    bases holds one exactla.Basis per degree.  first_mismatch is None when
    every block agrees, else (map, k, row label, column label, engine value,
    closed-form value) of the first differing entry (blocks in closed's
    order, then columns, then rows), the labels named by their Basis.  hd is
    not verified again: each caller verifies it once.
    """
    ext = chain_extend(hd, l2_0)
    first = None
    for (name, k), want in closed.items():
        got = getattr(ext, name).block(k)
        if got != want:
            j, col = next((j, col) for j, col in
                          enumerate((got - want).columns()) if col)
            i = min(col)
            src, dst = bases[k], bases[k + (name == "l3")]
            first = (name, k, dst.name(dst.labels[i]),
                     src.name(src.labels[j]), got.entry(i, j),
                     want.entry(i, j))
            break
    nilpotent = verify_nilpotent(ext)["ok"]
    return {"nilpotent": nilpotent, "first_mismatch": first,
            "ok": nilpotent and first is None}


def total_homology_dims(ext: ChainExtension) -> int:
    """dim ker(l) - rank(l) for the total operator l = l1 + l2 + l3."""
    rk = rank(ext.total_matrix())
    return ext.space.total_dim - 2 * rk


def homology_dim_of_differential(d: RatMatrix) -> int:
    """dim ker d - rank d for a square matrix with d^2 = 0 (asserted)."""
    if d.nrows != d.ncols:
        raise ValueError("differential must be square")
    if not (d @ d).is_zero():
        raise ValueError("matrix does not square to zero")
    rk = rank(d)
    return d.ncols - 2 * rk
