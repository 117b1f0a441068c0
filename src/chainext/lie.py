"""Lie algebras over Q: cochains, cohomology in low degrees, deformations.

Conventions.  2- and 3-cochains are alternating multilinear maps with values
in the algebra, stored on strictly increasing index tuples.  The composition
of 2-cochains is the three-term sum

    (a.b)(x1,x2,x3) = a(b(x1,x2),x3) - a(b(x1,x3),x2) + a(b(x2,x3),x1)

and [a,b] = a.b + b.a.  The differential on 2-cochains is d(b) = [alpha0, b];
on 1-cochains the adjoint-coefficient formula is used.  A deformation
alpha_t = alpha0 + alpha1 t + alpha2 t^2 + ... satisfies the order-n equation
P_n = sum_{i+j=n} alpha_i alpha_j = 0 (a series.pair_sum).  Over
alpha_0..alpha_{n-1} that sum has i, j >= 1: it is -rho_n, the obstruction
to extending from order n-1, and alpha_n solves d(alpha_n) = rho_n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .exactla import (Basis, RatMatrix, add_into, image, kernel_basis,
                      operator_matrix, rat, rref, solve)
from .series import pair_sum

_ONE = Fraction(1)


class LieAlgebra:
    """[e_i, e_j] = sum_k c_ijk e_k, stored once as the 2-cochain `alpha0`."""

    __slots__ = ("dim", "alpha0")

    def __init__(self, dim, brackets=None):
        """brackets: {(i, j): vector} for i < j, zero-based; omitted pairs are 0."""
        self.dim = int(dim)
        self.alpha0 = Cochain(self.dim, 2, brackets)


class Cochain:
    """Alternating p-linear map A^p -> A, p in {1, 2, 3}.

    entries: {increasing index tuple: {component: nonzero Fraction}}, with
    no empty value; evaluation on arbitrary tuples sorts the indices and
    applies the sign of the permutation (repeated indices give zero).
    """

    __slots__ = ("dim", "arity", "entries")

    def __init__(self, dim, arity, entries=None):
        """entries: {increasing index tuple: dense value vector}."""
        if arity not in (1, 2, 3):
            raise ValueError("arity must be 1, 2 or 3")
        sparse = {}
        for idx, v in (entries or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != arity or any(not 0 <= i < dim for i in idx):
                raise ValueError("bad index tuple %r" % (idx,))
            if list(idx) != sorted(idx) or len(set(idx)) != arity:
                raise ValueError("entries must use strictly increasing tuples")
            if len(v) != dim:
                raise ValueError("value has wrong length")
            v = {k: x for k, x in enumerate(map(rat, v)) if x}
            if v:
                sparse[idx] = v
        self.dim, self.arity, self.entries = int(dim), int(arity), sparse

    @classmethod
    def _of(cls, dim, arity, entries):
        """The cochain with sparse values {idx: {component: nonzero}}; empty
        values are dropped, the rest taken over."""
        out = cls.__new__(cls)
        out.dim, out.arity = dim, arity
        out.entries = {idx: v for idx, v in entries.items() if v}
        return out

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
            add_into(out, value, c)
        return out

    def add(self, other):
        self._compatible(other)
        entries = {idx: dict(v) for idx, v in self.entries.items()}
        for idx, v in other.entries.items():
            add_into(entries.setdefault(idx, {}), v)
        return Cochain._of(self.dim, self.arity, entries)

    __add__ = add

    def scale(self, c):
        c = rat(c)
        entries = {}
        for idx, v in self.entries.items() if c else ():
            add_into(entries.setdefault(idx, {}), v, c)
        return Cochain._of(self.dim, self.arity, entries)

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


def jacobi_check(alg: LieAlgebra) -> bool:
    """True iff the Jacobiator vanishes on all basis triples i < j < k."""
    return nr_compose(alg.alpha0, alg.alpha0).is_zero()


def nr_compose(ai: Cochain, aj: Cochain) -> Cochain:
    """Three-term composition of 2-cochains; the result is an alternating 3-cochain."""
    if ai.arity != 2 or aj.arity != 2:
        raise ValueError("nr_compose needs two 2-cochains")
    if ai.dim != aj.dim:
        raise ValueError("cochain dimension mismatch")
    entries = {}
    for i, j, k in combinations(range(ai.dim), 3):
        acc = entries[(i, j, k)] = {}
        for pair, last, c in (((i, j), k, 1), ((i, k), j, -1), ((j, k), i, 1)):
            inner = aj.entries.get(pair)
            if inner:
                add_into(acc, ai.apply(inner, {last: _ONE}), c)
    return Cochain._of(ai.dim, 3, entries)


def bracket2(ai: Cochain, aj: Cochain) -> Cochain:
    """[ai, aj] = ai.aj + aj.ai; symmetric in its two arguments."""
    return nr_compose(ai, aj).add(nr_compose(aj, ai))


def ce_differential(alg: LieAlgebra, beta: Cochain) -> Cochain:
    """Differential of a 1- or 2-cochain.

    On 2-cochains d(beta) = [alpha0, beta].  On 1-cochains
    (d phi)(x, y) = [x, phi(y)] - [y, phi(x)] - phi([x, y]).
    """
    a0 = alg.alpha0
    if beta.arity == 2:
        return bracket2(a0, beta)
    if beta.arity != 1:
        raise ValueError("differential only implemented for arities 1 and 2")
    entries = {}
    for i, j in combinations(range(alg.dim), 2):
        acc = entries[(i, j)] = {}
        for x, y, c in ((i, j, 1), (j, i, -1)):
            phi_y = beta.entries.get((y,))
            if phi_y:
                add_into(acc, a0.apply({x: _ONE}, phi_y), c)
        if (i, j) in a0.entries:
            add_into(acc, beta.apply(a0.entries[(i, j)]), -1)
    return Cochain._of(alg.dim, 2, entries)


# -- coordinates for cochain spaces ------------------------------------------

def cochain_basis(dim, arity) -> Basis:
    """Labels (index tuple, component) of the arity-p cochains: tuples in
    lexicographic order, components inner."""
    return Basis([(idx, k) for idx in combinations(range(dim), arity)
                  for k in range(dim)])


def _labelled(ch: Cochain):
    """The cochain as an exact image on the labels of its cochain_basis."""
    return image({(idx, k): x for idx, v in ch.entries.items()
                  for k, x in v.items()})


def _cochain(basis: Basis, dim, arity, coords) -> Cochain:
    """The cochain with the sparse coordinates {basis index: nonzero value}
    on basis, a column of a RatMatrix."""
    entries = {}
    for i, x in coords.items():
        idx, k = basis.labels[i]
        entries.setdefault(idx, {})[k] = x
    return Cochain._of(dim, arity, entries)


def differential_matrix(alg: LieAlgebra, arity) -> RatMatrix:
    """Matrix of the differential from arity-p cochains to arity-(p+1) cochains."""
    dim = alg.dim
    return operator_matrix(
        lambda b: _labelled(ce_differential(
            alg, Cochain._of(dim, arity, {b[0]: {b[1]: _ONE}}))),
        cochain_basis(dim, arity), cochain_basis(dim, arity + 1))


class JacobiError(ValueError):
    """The structure constants do not satisfy the Jacobi identity."""


def h2(alg: LieAlgebra):
    """(dim H^2, representative cocycles spanning a complement of the coboundaries).

    Representatives are chosen deterministically: the columns of the kernel
    basis K of the degree-2 differential that extend the coboundary span,
    read off one rref of [d1 | K].  Raises JacobiError when alg is not a
    Lie algebra.
    """
    if not jacobi_check(alg):
        raise JacobiError("structure constants do not satisfy the Jacobi identity")
    d2 = differential_matrix(alg, 2)
    d1 = differential_matrix(alg, 1)
    cocycles = kernel_basis(d2)
    # the pivots left of d1's columns are rank(d1); the rest pick the reps
    _, pivots, _ = rref(d1.hstack(cocycles))
    dim_h2 = cocycles.ncols - sum(p < d1.ncols for p in pivots)
    basis, cols = cochain_basis(alg.dim, 2), cocycles.columns()
    reps = [_cochain(basis, alg.dim, 2, cols[p - d1.ncols])
            for p in pivots if p >= d1.ncols]
    # equal counts hold only if every coboundary is a cocycle
    assert len(reps) == dim_h2
    return dim_h2, reps


def obstruction(alphas, n) -> Cochain:
    """rho_n = -sum_{i+j=n, i,j>=1} alpha_i alpha_j for alphas = [alpha_1..alpha_{n-1}]."""
    if len(alphas) < n - 1:
        raise ValueError("need alpha_1..alpha_%d" % (n - 1))
    return pair_sum(lambda i, j: nr_compose(alphas[i - 1], alphas[j - 1]),
                    n, 1, n - 1, Cochain.zero(alphas[0].dim, 3)).scale(-1)


class DeformationPreconditionError(ValueError):
    """The supplied lower-order terms fail their own deformation equations."""


def extend_deformation(alg: LieAlgebra, alphas, order):
    """[alpha_n, ..., alpha_order] (n = len(alphas)+1), each solving
    d(alpha_m) = rho_m exactly, cut before the first order whose rho_m is not
    a coboundary.  Each product alpha_i . alpha_j is composed once.

    Raises DeformationPreconditionError when the input alphas themselves
    violate the equations of orders 1..len(alphas); that failure mode is
    distinct from a genuine (nonzero-class) obstruction.
    """
    chain, k = [alg.alpha0] + list(alphas), len(alphas)
    for m in range(1, k + 1):
        if not pair_sum(lambda i, j: nr_compose(chain[i], chain[j]), m, 0, k,
                        Cochain.zero(alg.dim, 3)).is_zero():
            raise DeformationPreconditionError(
                "deformation equation fails at order %d" % m)
    d2 = differential_matrix(alg, 2)
    basis2, basis3 = cochain_basis(alg.dim, 2), cochain_basis(alg.dim, 3)
    for m in range(len(chain), order + 1):
        rho = _labelled(obstruction(chain[1:], m))
        x = solve(d2, operator_matrix(lambda _: rho, Basis([m]), basis3))
        if x is None:
            break
        chain.append(_cochain(basis2, alg.dim, 2, x.columns()[0]))
    return chain[k + 1:]
