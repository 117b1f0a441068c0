"""sh-Lie structures on two-term graded spaces of truncated t-series.

Given a Lie algebra (A, alpha0) and a 2-cocycle alpha1, the graded space

    X_1 (+) X_0  =  A[1][[t]] t^2 (+) A[[t]]        (variant "t2")
    X_1 (+) X_0  =  A[1][[t]]     (+) A[[t]]        (variant "full")

carries maps l1 (degree -1), l2 (degree 0), l3 (degree +1) with all higher
maps zero:

    l1(a* t^k) = a t^k
    l2(a, b)   = alpha0(a,b) + alpha1(a,b) t       on X_0 x X_0
    l2(a*, b)  = alpha0(a,b)* + alpha1(a,b)* t     on X_1 x X_0 (t-scaled)
    l3(a,b,c)  = -t^2 (alpha1 . alpha1)(a,b,c)*    on X_0^3

where alpha1 . alpha1 is the three-term composition, equal to half the
bracket [alpha1, alpha1].  `verify_shlie` re-proves the generalized Jacobi
relations exhaustively on basis tuples; `crosscheck_with_engine` rebuilds the
same maps through the generic chain-extension machinery.

Series are truncated modulo t^{N+1}; N >= 3 keeps every identity exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .complexes import (
    GradedMap, GradedSpace, HomotopyData, chain_extend, verify_homotopy,
    verify_nilpotent,
)
from .exactla import (Basis, RatMatrix, operator_matrix, rat, vec_add,
                      vec_is_zero, vec_scale, vec_zeros)
from .lie import Cochain, LieAlgebra, alpha0_cochain, ce_differential, jacobi_check, nr_compose


class TruncSeries:
    """Vector-valued polynomial in t modulo t^{N+1}: coeffs[k] is the t^k vector."""

    __slots__ = ("dim", "N", "coeffs")

    def __init__(self, dim, N, coeffs=None):
        self.dim = int(dim)
        self.N = int(N)
        if coeffs is None:
            coeffs = [vec_zeros(dim) for _ in range(N + 1)]
        else:
            coeffs = [[rat(x) for x in c] for c in coeffs]
            if len(coeffs) != N + 1 or any(len(c) != dim for c in coeffs):
                raise ValueError("need N+1 coefficient vectors of length dim")
        self.coeffs = coeffs

    @classmethod
    def basis(cls, dim, N, k, i):
        ts = cls(dim, N)
        ts.coeffs[k][i] = Fraction(1)
        return ts

    def add(self, other):
        return TruncSeries(self.dim, self.N,
                           [vec_add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        return TruncSeries(self.dim, self.N, [vec_scale(c, a) for a in self.coeffs])

    def tshift(self, k):
        """Multiply by t^k, truncating modulo t^{N+1}."""
        out = TruncSeries(self.dim, self.N)
        for m in range(self.N + 1 - k):
            out.coeffs[m + k] = list(self.coeffs[m])
        return out

    def is_zero(self):
        return all(vec_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.dim == other.dim
                and self.N == other.N and self.coeffs == other.coeffs)

    def flat(self, kmin=0):
        """Concatenated coordinates for t-powers kmin..N (basis index k*dim + i)."""
        out = []
        for k in range(kmin, self.N + 1):
            out.extend(self.coeffs[k])
        return out


def _conv2(x: TruncSeries, y: TruncSeries, ch: Cochain) -> TruncSeries:
    out = TruncSeries(x.dim, x.N)
    for k in range(x.N + 1):
        if vec_is_zero(x.coeffs[k]):
            continue
        for m in range(x.N + 1 - k):
            if vec_is_zero(y.coeffs[m]):
                continue
            v = ch.eval(x.coeffs[k], y.coeffs[m])
            out.coeffs[k + m] = vec_add(out.coeffs[k + m], v)
    return out


def _conv3(x, y, z, ch: Cochain) -> TruncSeries:
    out = TruncSeries(x.dim, x.N)
    for k in range(x.N + 1):
        if vec_is_zero(x.coeffs[k]):
            continue
        for m in range(x.N + 1 - k):
            if vec_is_zero(y.coeffs[m]):
                continue
            for p in range(x.N + 1 - k - m):
                if vec_is_zero(z.coeffs[p]):
                    continue
                v = ch.eval(x.coeffs[k], y.coeffs[m], z.coeffs[p])
                out.coeffs[k + m + p] = vec_add(out.coeffs[k + m + p], v)
    return out


class ShLieStructure:
    """The structure maps, with X-degrees tracked explicitly.

    Elements of X_0 and X_1 are both TruncSeries; the maps' signatures say
    which degree each argument carries.  In the "t2" variant X_1 elements
    must vanish below t^2.
    """

    __slots__ = ("alg", "alpha0", "alpha1", "N", "variant", "comp11")

    def __init__(self, alg, alpha0, alpha1, N, variant):
        self.alg = alg
        self.alpha0 = alpha0
        self.alpha1 = alpha1
        self.N = int(N)
        self.variant = variant
        self.comp11 = nr_compose(alpha1, alpha1)

    def as_variant(self, variant: str) -> "ShLieStructure":
        """The same maps on the graded space of `variant`.  build_shlie's
        hypotheses do not depend on the variant, so one validation serves
        both."""
        if variant not in ("t2", "full"):
            raise ValueError("variant must be 't2' or 'full'")
        return ShLieStructure(self.alg, self.alpha0, self.alpha1, self.N, variant)

    @property
    def kmin(self):
        return 2 if self.variant == "t2" else 0

    def _check_x1(self, xi: TruncSeries):
        for k in range(self.kmin):
            if not vec_is_zero(xi.coeffs[k]):
                raise ValueError("X_1 element has a t^%d coefficient below t^%d"
                                 % (k, self.kmin))

    def l1(self, xi: TruncSeries) -> TruncSeries:
        """X_1 -> X_0, star removal (the identity on coefficients)."""
        self._check_x1(xi)
        return TruncSeries(xi.dim, xi.N, xi.coeffs)

    def l2_00(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        """X_0 x X_0 -> X_0: alpha0 + alpha1 t, extended bilinearly over t."""
        return _conv2(a, b, self.alpha0).add(_conv2(a, b, self.alpha1).tshift(1))

    def l2_10(self, xi: TruncSeries, b: TruncSeries) -> TruncSeries:
        """X_1 x X_0 -> X_1: alpha0(a,b)* + alpha1(a,b)* t, t-scaled."""
        self._check_x1(xi)
        return _conv2(xi, b, self.alpha0).add(_conv2(xi, b, self.alpha1).tshift(1))

    def l3_000(self, a, b, c) -> TruncSeries:
        """X_0^3 -> X_1: -t^2 (alpha1 . alpha1)(a,b,c), starred."""
        return _conv3(a, b, c, self.comp11).tshift(2).scale(-1)

    # -- degree-dispatching wrappers used by the relation checker ------------

    def g_l1(self, x):
        deg, ts = x
        if deg != 1:
            return None
        return (0, self.l1(ts))

    def g_l2(self, x, y):
        (dx, tx), (dy, ty) = x, y
        if dx + dy == 0:
            return (0, self.l2_00(tx, ty))
        if dx + dy == 1:
            if dx == 1:
                return (1, self.l2_10(tx, ty))
            return (1, self.l2_10(ty, tx).scale(-1))
        return None  # lands in X_2 = 0

    def g_l3(self, x, y, z):
        if x[0] or y[0] or z[0]:
            return None
        return (1, self.l3_000(x[1], y[1], z[1]))


def build_shlie(alg: LieAlgebra, alpha0: Cochain, alpha1: Cochain,
                N: int = 4, variant: str = "t2") -> ShLieStructure:
    """Construct the structure after validating its hypotheses."""
    if variant not in ("t2", "full"):
        raise ValueError("variant must be 't2' or 'full'")
    if int(N) < 3:
        raise ValueError("truncation order must be at least 3 (t^2 terms in l3 "
                         "would otherwise hide relation failures)")
    if alpha0 != alpha0_cochain(alg):
        raise ValueError("alpha0 must be the bracket of the algebra")
    if not jacobi_check(alg):
        raise ValueError("the bracket fails the Jacobi identity")
    if not ce_differential(alg, alpha1).is_zero():
        raise ValueError("alpha1 is not a cocycle")
    return ShLieStructure(alg, alpha0, alpha1, int(N), variant)


# -- generalized Jacobi relations --------------------------------------------

def _graded_unshuffle_sign(perm, degs):
    """Permutation sign times the parity sign for the graded inputs."""
    sign = 1
    lst = list(perm)
    for a in range(len(lst)):
        for b in range(a + 1, len(lst)):
            if lst[a] > lst[b]:
                sign = -sign
                if degs[lst[a]] % 2 and degs[lst[b]] % 2:
                    sign = -sign
    return sign


def master_relation(S: ShLieStructure, elems, n) -> TruncSeries | None:
    """Sum over i+j = n+1 of +-(unshuffled) l_j(l_i(...), ...) on n inputs.

    Returns the resulting series (None when the target degree is outside the
    graded space, i.e. the relation is structural).  A zero result means the
    relation holds on this tuple.
    """
    assert len(elems) == n
    degs = [e[0] for e in elems]
    target = sum(degs) + n - 3
    if target not in (0, 1):
        return None
    total = TruncSeries(S.alg.dim, S.N)
    maps = {1: lambda xs: S.g_l1(*xs), 2: lambda xs: S.g_l2(*xs), 3: lambda xs: S.g_l3(*xs)}
    for i in range(1, min(3, n) + 1):
        j = n + 1 - i
        if j > 3 or j < 1:
            continue
        pref = (-1) ** (i * (j - 1))
        for first in combinations(range(n), i):
            rest = [p for p in range(n) if p not in first]
            perm = list(first) + rest
            chi = _graded_unshuffle_sign(perm, degs)
            inner = maps[i]([elems[p] for p in first])
            if inner is None or inner[1].is_zero():
                continue
            outer_args = [inner] + [elems[p] for p in rest]
            if j > len(maps) or j != len(outer_args):
                continue
            outer = maps[j](outer_args)
            if outer is None:
                continue
            total = total.add(outer[1].scale(pref * chi))
    return total


def _generators(S: ShLieStructure):
    """t-constant basis generators of A (degree 0) and A[1] (degree 1)."""
    dim, N = S.alg.dim, S.N
    gens = []
    for i in range(dim):
        gens.append((0, TruncSeries.basis(dim, N, 0, i)))
    for i in range(dim):
        gens.append((1, TruncSeries.basis(dim, N, S.kmin, i)))
    return gens


def verify_shlie(S: ShLieStructure) -> dict:
    """Exhaustive check of the generalized Jacobi relations on basis tuples."""
    gens = _generators(S)
    zeros = [g for g in gens if g[0] == 0]
    report = {"first_failure": None}

    def sweep(name, n, pool):
        ok = True
        for tup in product(pool, repeat=n):
            r = master_relation(S, list(tup), n)
            if r is not None and not r.is_zero():
                ok = False
                if report["first_failure"] is None:
                    report["first_failure"] = (name, tuple(t[0] for t in tup))
                break
        report[name] = ok

    sweep("relation_63", 2, gens)
    sweep("relation_64", 3, gens)
    sweep("relation_65", 4, gens)
    # the n = 5 relation only involves l3 . l3, which needs a degree-1 element
    # inside a map defined on X_0^3: structurally zero.
    structural = all(S.g_l3(x, y, z) is None
                     for x in gens for y in gens for z in gens
                     if x[0] + y[0] + z[0] > 0)
    sweep("relation_66", 5, zeros)
    report["relation_66_structural"] = structural
    report["ok"] = all(report[k] for k in
                       ("relation_63", "relation_64", "relation_65",
                        "relation_66", "relation_66_structural"))
    return report


def check_t_linearity(S: ShLieStructure) -> bool:
    """l_i(t^k x, ...) = t^k l_i(x, ...) for all generators and k+2 <= N."""
    dim, N = S.alg.dim, S.N
    for k in range(0, N - 1):
        for i in range(dim):
            xi0 = TruncSeries.basis(dim, N, S.kmin, i)
            xik = xi0.tshift(k)
            if S.l1(xik) != S.l1(xi0).tshift(k):
                return False
            a0 = TruncSeries.basis(dim, N, 0, i)
            ak = a0.tshift(k)
            for j in range(dim):
                b = TruncSeries.basis(dim, N, 0, j)
                if S.l2_00(ak, b) != S.l2_00(a0, b).tshift(k):
                    return False
                if S.l2_00(b, ak) != S.l2_00(b, a0).tshift(k):
                    return False
                if S.l2_10(xik, b) != S.l2_10(xi0, b).tshift(k):
                    return False
                for m in range(dim):
                    c = TruncSeries.basis(dim, N, 0, m)
                    if S.l3_000(ak, b, c) != S.l3_000(a0, b, c).tshift(k):
                        return False
    return True


def l3_is_obstruction(S: ShLieStructure) -> bool:
    """True iff l3 equals the first-obstruction cochain [alpha1,alpha1] scaled
    by -t^2/2 (equivalently -t^2 times the composition alpha1 . alpha1),
    recomputed from scratch; true-with-zero iff the obstruction vanishes."""
    fresh = nr_compose(S.alpha1, S.alpha1)
    dim, N = S.alg.dim, S.N
    for i, j, k in combinations(range(dim), 3):
        a = TruncSeries.basis(dim, N, 0, i)
        b = TruncSeries.basis(dim, N, 0, j)
        c = TruncSeries.basis(dim, N, 0, k)
        got = S.l3_000(a, b, c)
        want = TruncSeries(dim, N)
        want.coeffs[2] = vec_scale(-1, fresh.value((i, j, k)))
        if got != want:
            return False
    return True


def variants_agree(s_full: ShLieStructure, s_t2: ShLieStructure) -> bool:
    """Restricting the full variant to t^2 A[1][[t]] reproduces the t2 maps."""
    dim, N = s_full.alg.dim, s_full.N
    for i in range(dim):
        xi_full = TruncSeries.basis(dim, N, 2, i)
        if s_full.l1(xi_full) != s_t2.l1(xi_full):
            return False
        for j in range(dim):
            b = TruncSeries.basis(dim, N, 0, j)
            if s_full.l2_10(xi_full, b) != s_t2.l2_10(xi_full, b):
                return False
            for k in range(dim):
                c = TruncSeries.basis(dim, N, 0, k)
                if s_full.l3_000(b, c, TruncSeries.basis(dim, N, 0, i)) != \
                        s_t2.l3_000(b, c, TruncSeries.basis(dim, N, 0, i)):
                    return False
    return True


# -- export to the generic engine ---------------------------------------------

def to_homotopy_data(S: ShLieStructure) -> HomotopyData:
    """The two-term resolution with s = -(star) on the image of l1.

    X_0 has basis (k, i) -> k*dim + i for k = 0..N; X_1 likewise starting at
    kmin.  In the t2 variant F = A (+) A t; in the full variant F = 0.
    """
    x0, x1 = _basis(S, 0), _basis(S, S.kmin)
    f = Basis([b for b in x0.labels if b[0] < S.kmin])
    sp = GradedSpace([len(x0), len(x1)])
    l1 = GradedMap(sp, -1, {1: operator_matrix(lambda b: [(b, 1)], x1, x0)})
    s = GradedMap(sp, +1, {0: operator_matrix(
        lambda b: [(b, -1)] if b[0] >= S.kmin else [], x0, x1)})
    eta = operator_matrix(lambda b: [(b, 1)] if b[0] < S.kmin else [], x0, f)
    lam = operator_matrix(lambda b: [(b, 1)], f, x0)
    return HomotopyData(sp, l1, len(f), eta, lam, s)


def _basis(S: ShLieStructure, kmin) -> Basis:
    """Labels (k, i) of t^k e_i for k = kmin..N, in `flat(kmin)` order."""
    return Basis([(k, i) for k in range(kmin, S.N + 1)
                  for i in range(S.alg.dim)])


def _series_matrix(S: ShLieStructure, op, src: Basis, dst: Basis):
    """Matrix of op on the series t^k e_i of the labels (k, i) of src."""
    def column(label):
        out = op(TruncSeries.basis(S.alg.dim, S.N, *label))
        return [((k, i), c) for k, v in enumerate(out.coeffs)
                for i, c in enumerate(v)]
    return operator_matrix(column, src, dst)


def curried_l2_matrix(S: ShLieStructure, b_index: int) -> RatMatrix:
    """Matrix of x -> l2(x, e_b) on the X_0 basis."""
    b = TruncSeries.basis(S.alg.dim, S.N, 0, b_index)
    x0 = _basis(S, 0)
    return _series_matrix(S, lambda x: S.l2_00(x, b), x0, x0)


def crosscheck_with_engine(S: ShLieStructure) -> dict:
    """Rebuild the structure maps through the generic engine and compare.

    The homotopy identities of the export are verified; the mixed l2 is
    reconstructed from x = -s(l1 x) on X_1; l3 is reconstructed as s applied
    to the l2-Jacobiator.  Whenever the curried operators satisfy the
    extension conditions (always in the full variant; in the t2 variant when
    the bracket vanishes), chain_extend is also run literally and its blocks
    compared.
    """
    dim, N, kmin = S.alg.dim, S.N, S.kmin
    hd = to_homotopy_data(S)
    report = {"homotopy_ok": verify_homotopy(hd)["ok"]}
    l1m = hd.l1.block(1)
    sm = hd.s.block(0)
    mmats = [curried_l2_matrix(S, b) for b in range(dim)]

    x1 = _basis(S, kmin)
    mixed = []
    for b in range(dim):
        eb = TruncSeries.basis(dim, N, 0, b)
        mixed.append(_series_matrix(S, lambda xi: S.l2_10(xi, eb), x1, x1))
    report["mixed_l2_matches"] = all(
        (sm @ mmats[b] @ l1m).scale(-1) == mixed[b] for b in range(dim))

    ok_l3 = True
    for a in range(dim):
        va = TruncSeries.basis(dim, N, 0, a).flat()
        for b in range(dim):
            vb = TruncSeries.basis(dim, N, 0, b).flat()
            for c in range(dim):
                jac = mmats[c].mat_vec(mmats[b].mat_vec(va))
                jac = [x - y for x, y in
                       zip(jac, mmats[b].mat_vec(mmats[c].mat_vec(va)))]
                jac = vec_add(jac, mmats[a].mat_vec(mmats[c].mat_vec(vb)))
                got = sm.mat_vec(jac)
                want = S.l3_000(TruncSeries.basis(dim, N, 0, a),
                                TruncSeries.basis(dim, N, 0, b),
                                TruncSeries.basis(dim, N, 0, c)).flat(kmin)
                if got != want:
                    ok_l3 = False
    report["l3_matches"] = ok_l3

    curried_ok = True
    ran_any = False
    abelian = S.alpha0.is_zero()
    if S.variant == "full" or abelian:
        for b in range(dim):
            ext = chain_extend(hd, mmats[b], d_f=hd.eta @ mmats[b] @ hd.lam)
            ran_any = True
            if not verify_nilpotent(ext)["ok"]:
                curried_ok = False
            if ext.l2.block(1) != mixed[b].scale(-1):
                curried_ok = False
    report["curried_chain_extend"] = curried_ok if ran_any else None
    report["ok"] = all(v for k, v in report.items() if k != "ok" and v is not None)
    return report
