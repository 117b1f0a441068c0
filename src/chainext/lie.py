"""Lie algebras over Q: cochains, cohomology in low degrees, deformations.

Conventions.  2- and 3-cochains are alternating multilinear maps with values
in the algebra, stored on strictly increasing index tuples.  The composition
of 2-cochains is the three-term sum

    (a.b)(x1,x2,x3) = a(b(x1,x2),x3) - a(b(x1,x3),x2) + a(b(x2,x3),x1)

and [a,b] = a.b + b.a.  The differential on 2-cochains is d(b) = [alpha0, b];
on 1-cochains the adjoint-coefficient formula is used.  A deformation
alpha_t = alpha0 + alpha1 t + alpha2 t^2 + ... satisfies the order-n equation
sum_{i+j=n} alpha_i alpha_j = 0; the obstruction to extending from order n-1
is rho_n = -sum_{i+j=n, i,j>=1} alpha_i alpha_j.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .exactla import (
    RatMatrix, add_into, kernel_basis, rank, rat, rref, solve,
    vec_add, vec_is_zero, vec_scale, vec_sub, vec_zeros,
)


class LieAlgebra:
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    __slots__ = ("dim", "c")

    def __init__(self, dim, brackets=None):
        """brackets: {(i, j): vector} for i < j, zero-based; omitted pairs are 0."""
        dim = int(dim)
        c = [[vec_zeros(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in (brackets or {}).items():
            if not 0 <= i < j < dim:
                raise ValueError("bracket indices must satisfy 0 <= i < j < dim")
            v = [rat(x) for x in v]
            if len(v) != dim:
                raise ValueError("bracket value has wrong length")
            c[i][j] = v
            c[j][i] = vec_scale(-1, v)
        self.dim = dim
        self.c = c

    def bracket_basis(self, i, j):
        return list(self.c[i][j])

    def bracket(self, u, v):
        out = vec_zeros(self.dim)
        for i in range(self.dim):
            if u[i] == 0:
                continue
            for j in range(self.dim):
                if v[j] == 0 or i == j:
                    continue
                out = vec_add(out, vec_scale(u[i] * v[j], self.c[i][j]))
        return out


class Cochain:
    """Alternating p-linear map A^p -> A, p in {1, 2, 3}.

    entries: {increasing index tuple: value vector}; evaluation on arbitrary
    tuples sorts the indices and applies the sign of the permutation
    (repeated indices give zero).
    """

    __slots__ = ("dim", "arity", "entries")

    def __init__(self, dim, arity, entries=None):
        if arity not in (1, 2, 3):
            raise ValueError("arity must be 1, 2 or 3")
        self.dim = int(dim)
        self.arity = int(arity)
        clean = {}
        for idx, v in (entries or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != arity or any(not 0 <= i < dim for i in idx):
                raise ValueError("bad index tuple %r" % (idx,))
            if list(idx) != sorted(idx) or len(set(idx)) != arity:
                raise ValueError("entries must use strictly increasing tuples")
            v = [rat(x) for x in v]
            if len(v) != dim:
                raise ValueError("value has wrong length")
            if not vec_is_zero(v):
                clean[idx] = v
        self.entries = clean

    def value(self, idx):
        """Value on a basis tuple in any order, with the alternating sign."""
        return self._dense(self._apply([{i: 1} for i in idx]))

    def eval(self, *vectors):
        return self._dense(self.apply(
            *({i: x for i, x in enumerate(v) if x} for v in vectors)))

    def apply(self, *vs):
        """The cochain on sparse vectors {index: Fraction}, as one."""
        if len(vs) != self.arity:
            raise ValueError("expected %d arguments" % self.arity)
        return self._apply(vs)

    def _apply(self, vs):
        out = {}
        for picks in product(*(v.items() for v in vs)):
            idx = [i for i, _ in picks]
            value = self.entries.get(tuple(sorted(idx)))
            if value is None or len(set(idx)) < len(idx):
                continue
            c = 1
            for a, (i, x) in enumerate(picks):
                c *= -x if sum(j < i for j in idx[a + 1:]) % 2 else x
            add_into(out, {k: x for k, x in enumerate(value) if x}, c)
        return out

    def _dense(self, v):
        return [v.get(k, Fraction(0)) for k in range(self.dim)]

    def add(self, other):
        self._compatible(other)
        keys = set(self.entries) | set(other.entries)
        return Cochain(self.dim, self.arity,
                       {k: vec_add(self.value(k), other.value(k)) for k in keys})

    def scale(self, c):
        c = rat(c)
        return Cochain(self.dim, self.arity,
                       {k: vec_scale(c, v) for k, v in self.entries.items()})

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.dim == other.dim
                and self.arity == other.arity and self.entries == other.entries)

    def _compatible(self, other):
        if self.dim != other.dim or self.arity != other.arity:
            raise ValueError("cochain dimension/arity mismatch")

    @classmethod
    def zero(cls, dim, arity):
        return cls(dim, arity)


def alpha0_cochain(alg: LieAlgebra) -> Cochain:
    """The bracket of the algebra as a 2-cochain."""
    entries = {}
    for i, j in combinations(range(alg.dim), 2):
        v = alg.bracket_basis(i, j)
        if not vec_is_zero(v):
            entries[(i, j)] = v
    return Cochain(alg.dim, 2, entries)


def jacobi_check(alg: LieAlgebra, a0: Cochain | None = None) -> bool:
    """True iff the Jacobiator vanishes on all basis triples i < j < k; a0,
    when given, is alpha0_cochain(alg)."""
    if a0 is None:
        a0 = alpha0_cochain(alg)
    return nr_compose(a0, a0).is_zero()


def nr_compose(ai: Cochain, aj: Cochain) -> Cochain:
    """Three-term composition of 2-cochains; the result is an alternating 3-cochain."""
    if ai.arity != 2 or aj.arity != 2:
        raise ValueError("nr_compose needs two 2-cochains")
    if ai.dim != aj.dim:
        raise ValueError("cochain dimension mismatch")
    dim = ai.dim
    basis = [[Fraction(1) if t == s else Fraction(0) for s in range(dim)] for t in range(dim)]
    entries = {}
    for i, j, k in combinations(range(dim), 3):
        v = ai.eval(aj.value((i, j)), basis[k])
        v = vec_sub(v, ai.eval(aj.value((i, k)), basis[j]))
        v = vec_add(v, ai.eval(aj.value((j, k)), basis[i]))
        if not vec_is_zero(v):
            entries[(i, j, k)] = v
    return Cochain(dim, 3, entries)


def bracket2(ai: Cochain, aj: Cochain) -> Cochain:
    """[ai, aj] = ai.aj + aj.ai; symmetric in its two arguments."""
    return nr_compose(ai, aj).add(nr_compose(aj, ai))


def ce_differential(alg: LieAlgebra, beta: Cochain,
                    a0: Cochain | None = None) -> Cochain:
    """Differential of a 1- or 2-cochain.

    On 2-cochains d(beta) = [alpha0, beta], with alpha0 = a0 when given (it
    must be alpha0_cochain(alg)).  On 1-cochains
    (d phi)(x, y) = [x, phi(y)] - [y, phi(x)] - phi([x, y]).
    """
    if beta.arity == 2:
        return bracket2(alpha0_cochain(alg) if a0 is None else a0, beta)
    if beta.arity != 1:
        raise ValueError("differential only implemented for arities 1 and 2")
    dim = alg.dim
    basis = [[Fraction(1) if t == s else Fraction(0) for s in range(dim)] for t in range(dim)]
    entries = {}
    for i, j in combinations(range(dim), 2):
        v = alg.bracket(basis[i], beta.value((j,)))
        v = vec_sub(v, alg.bracket(basis[j], beta.value((i,))))
        v = vec_sub(v, beta.eval(alg.bracket_basis(i, j)))
        if not vec_is_zero(v):
            entries[(i, j)] = v
    return Cochain(dim, 2, entries)


# -- coordinates for cochain spaces ------------------------------------------

def cochain_index_tuples(dim, arity):
    return list(combinations(range(dim), arity))


def cochain_to_vector(ch: Cochain):
    """Flat coordinates: index tuples in lexicographic order, value components inner."""
    out = []
    for idx in cochain_index_tuples(ch.dim, ch.arity):
        out.extend(ch.value(idx))
    return out


def vector_to_cochain(dim, arity, v):
    tuples = cochain_index_tuples(dim, arity)
    entries = {}
    for t_i, idx in enumerate(tuples):
        chunk = v[t_i * dim:(t_i + 1) * dim]
        if not vec_is_zero(chunk):
            entries[idx] = chunk
    return Cochain(dim, arity, entries)


def differential_matrix(alg: LieAlgebra, arity) -> RatMatrix:
    """Matrix of the differential from arity-p cochains to arity-(p+1) cochains."""
    dim = alg.dim
    src = cochain_index_tuples(dim, arity)
    cols = []
    for t_i, idx in enumerate(src):
        for comp in range(dim):
            basis_ch = Cochain(dim, arity, {idx: [Fraction(1) if s == comp else Fraction(0)
                                                  for s in range(dim)]})
            cols.append(cochain_to_vector(ce_differential(alg, basis_ch)))
    nrows = len(cochain_index_tuples(dim, arity + 1)) * dim
    return RatMatrix.from_columns(cols, nrows=nrows)


def h2(alg: LieAlgebra):
    """(dim H^2, representative cocycles spanning a complement of the coboundaries).

    Representatives are chosen deterministically: kernel basis vectors of the
    degree-2 differential whose columns extend the coboundary span.
    """
    if not jacobi_check(alg):
        raise ValueError("structure constants do not satisfy the Jacobi identity")
    d2 = differential_matrix(alg, 2)
    d1 = differential_matrix(alg, 1)
    cocycles = kernel_basis(d2)
    b_rank = rank(d1)
    dim_h2 = len(cocycles) - b_rank
    reps = []
    if cocycles:
        stacked = d1.hstack(RatMatrix.from_columns(cocycles, nrows=d1.nrows))
        _, pivots, _ = rref(stacked)
        for p in pivots:
            if p >= d1.ncols:
                reps.append(vector_to_cochain(alg.dim, 2, cocycles[p - d1.ncols]))
    assert len(reps) == dim_h2
    return dim_h2, reps


def obstruction(alphas, n) -> Cochain:
    """rho_n = -sum_{i+j=n, i,j>=1} alpha_i alpha_j for alphas = [alpha_1..alpha_{n-1}]."""
    if len(alphas) < n - 1:
        raise ValueError("need alpha_1..alpha_%d" % (n - 1))
    dim = alphas[0].dim
    out = Cochain.zero(dim, 3)
    for i in range(1, n):
        j = n - i
        if j < 1:
            continue
        out = out.add(nr_compose(alphas[i - 1], alphas[j - 1]))
    return out.scale(-1)


class DeformationPreconditionError(ValueError):
    """The supplied lower-order terms fail their own deformation equations."""


def extend_deformation(alg: LieAlgebra, alphas):
    """Next deformation term alpha_n (n = len(alphas)+1), or None when obstructed.

    Solves d(alpha_n) = rho_n exactly.  Raises DeformationPreconditionError when
    the input alphas themselves violate the order-(n-1) deformation equations;
    that failure mode is distinct from a genuine (nonzero-class) obstruction.
    """
    a0 = alpha0_cochain(alg)
    chain = [a0] + list(alphas)
    n = len(alphas) + 1
    for m in range(1, n):
        acc = Cochain.zero(alg.dim, 3)
        for i in range(0, m + 1):
            acc = acc.add(nr_compose(chain[i], chain[m - i]))
        if not acc.is_zero():
            raise DeformationPreconditionError(
                "deformation equation fails at order %d" % m)
    rho = obstruction(alphas, n)
    d2 = differential_matrix(alg, 2)
    x = solve(d2, cochain_to_vector(rho))
    if x is None:
        return None
    return vector_to_cochain(alg.dim, 2, x)
