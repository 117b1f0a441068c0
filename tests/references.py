"""Reference operators that only the tests use.

Each one computes on its own route, independent of the code it checks: the
brst operators act on SuperPoly through extend_right_derivation and the
system's generator values, not through the compiled blocks (delta is
brst.koszul_tate, looked up on the module, so a patched one reaches them);
a derivation's one-pass call runs superalg._derive over the whole argument,
with no per-monomial table; the series, cochain and graded-map helpers work
on the stored coefficients directly; the dense linear algebra builds
matrices from dense Fraction columns and reads the kernel off the reduced
form one entry at a time.  The tests import them from here, as
they import the bundled models from bundled.
"""

from fractions import Fraction

from chainext import brst
from chainext.exactla import RatMatrix, exact, rref
from chainext.series import Series
from chainext.superalg import SuperPoly, _derive, extend_right_derivation


# -- brst: the SuperPoly operators of the resolution ---------------------------

def longitudinal_d(sys, f):
    """The odd right derivation d x_i = [x_i,G_b] eta^b, d G_a = [G_a,G_b]
    eta^b, d eta^a = 1/2 C^a_cb eta^b eta^c, d P_a = 0."""
    return extend_right_derivation(f, sys.d_vals, parity=1)


def sigma(sys, F):
    """The odd right derivation with sigma G_a = -P_a and zero otherwise:
    sigma(F) = -sum_a (d^R F / d G_a) P_a."""
    return extend_right_derivation(F, sys.sigma_vals, parity=1)


def nbar(sys, F):
    """Multiply each monomial by its combined (P, G)-degree."""
    return SuperPoly(sys.alg, {m: c * sys.pg_degree(m)
                               for m, c in F.terms.items()})


def psi(sys, F):
    """Monomial-wise -1/k on combined (P, G)-degree k; zero on k = 0."""
    out = {}
    for m, c in F.terms.items():
        k = sys.pg_degree(m)
        if k:
            out[m] = -c / k
    return SuperPoly(sys.alg, out)


def homotopy_s(sys, F):
    """s = sigma . psi: monomial-wise sum_a (d^R F / d G_a) P_a / k."""
    return sigma(sys, psi(sys, F))


def lambda_tilde(sys, f):
    """lambda~(f) = f + delta(s(f)) on antighost degree 0."""
    return f + brst.koszul_tate(sys, homotopy_s(sys, f))


def eta_project(sys, f):
    """Projection of an antighost-0 element onto its constraint-free part."""
    return SuperPoly(sys.alg, {m: c for m, c in f.terms.items()
                               if not sys.has_constraint_factor(m)})


# -- superalg: a derivation in one pass -----------------------------------------

def one_pass_call(d, terms):
    """superalg.Derivation d applied to terms as a call did before it kept
    a table: one _derive pass over the whole dict, the nonzero terms of
    D(terms) with an integral value as an int."""
    out = _derive(terms, d.values, d.parity, d.parities, d.left)
    if d.den == 1:
        return {m: c for m, c in out.items() if c}
    return {m: exact(Fraction(c, d.den)) for m, c in out.items() if c}


# -- bv: S = l1 + l2 + l3 on series --------------------------------------------

def l3_plain(maps, x):
    """l3 of the Theorem-8 maps on a degree-0 series."""
    return maps.l3_op.apply(x)


def apply_S(maps, pair):
    """One application of S = l1+l2+l3 to (degree-0, degree-1) data."""
    x0, x1 = pair
    out0 = maps.l2_plain_op.apply(x0).add(maps.l1_op.apply(x1))
    out1 = l3_plain(maps, x0).add(maps.l2_star_op.apply(x1))
    return (out0, out1)


# -- series, cochains and graded maps -------------------------------------------

def tshift(x, k):
    """The series x times t^k, truncated modulo t^(T+1)."""
    terms = [{} for _ in range(min(k, x.T + 1))] + \
        x.terms[:max(x.T + 1 - k, 0)]
    return Series.of_terms(x.space, x.T, terms)


def cochain_eval(ch, *vectors):
    """The cochain on dense vectors, as a dense vector."""
    out = ch.apply(*({i: x for i, x in enumerate(v) if x} for v in vectors))
    return [out.get(k, Fraction(0)) for k in range(ch.dim)]


def cochain_value(ch, idx):
    """The cochain on a basis tuple in any order, with the alternating
    sign, as a dense vector."""
    return cochain_eval(ch, *([int(i == k) for k in range(ch.dim)]
                              for i in idx))


def dense_coeffs(x):
    """The dense view of a series, one coefficient per t-power 0..T: a
    list of Fractions over a dimension, a SuperPoly over a bv.BVModel."""
    if isinstance(x.space, int):
        return [[c.get(i, Fraction(0)) for i in range(x.space)]
                for c in x.terms]
    return [SuperPoly(x.space.alg, c) for c in x.terms]


def antighost(f):
    """The antighost degree of an antighost-homogeneous SuperPoly (0 for
    the zero poly)."""
    gs = {sum(f.alg.gens[i].antighost for i in m) for m in f.terms}
    if len(gs) > 1:
        raise ValueError("polynomial is not antighost-homogeneous")
    return gs.pop() if gs else 0


def total_matrix(gm):
    """A GradedMap as one matrix on the concatenated basis of all degrees."""
    n = gm.space.total_dim
    return RatMatrix.from_blocks(n, n, gm.placed_blocks())


# -- exactla: dense columns and the dense kernel ---------------------------------

def columns_matrix(cols, nrows):
    """The nrows x len(cols) matrix whose columns are the dense vectors
    cols."""
    cols = [list(c) for c in cols]
    if any(len(c) != nrows for c in cols):
        raise ValueError("ragged columns")
    return RatMatrix([list(r) for r in zip(*cols)] if cols else
                     [[] for _ in range(nrows)], ncols=len(cols))


def column_block(m, j):
    """Column j of m as an m.nrows x 1 matrix."""
    return columns_matrix([[r[j] for r in m.rows]], m.nrows)


def dense_column(x):
    """The only column of an n x 1 matrix as a dense Fraction list."""
    return [r[0] for r in x.rows]


def dense_kernel_basis(m):
    """Basis of the null space of m as dense Fraction vectors: per free
    column of the reduced echelon form, that variable set to 1 and the
    pivots back-solved, one entry of the reduced form at a time."""
    reduced, pivots, _ = rref(m)
    basis = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            v[p] = -reduced.entry(r_idx, f)
        basis.append(v)
    return basis
