"""Antifield-pair deformations: master equation, obstructions, and the
three-map extension S = l1 + l2 + l3 on truncated t-series.

The model is a finite list of fields with auto-generated antifields (ghost
-gh-1, opposite parity) and the antibracket of those pairs.  Given
deformation terms S_0..S_n (even, ghost 0) satisfying the order-n master
equation, the maps

    l1(a* t^k) = a t^k                      (k >= n+1)
    l2(a t^k)  = sum_i (S_i, a) t^(i+k)
    l2(a* t^k) = -sum_i (S_i, a)* t^(i+k)
    l3(a t^k)  = -1/2 sum_{n+1 <= i+j <= 2n} ((S_i, S_j), a)* t^(i+j+k)

square to zero; the t^(n+1) coefficient of l3 carries the obstruction
R_{n+1} = sum_{i+j=n+1, i,j>=1} (S_i, S_j).  The master equations and
every R_m are series.pair_sum of the antibracket over S_0..S_n (for
m >= n+1 the bounds alone force i, j >= 1).  Starred series are stored by
their unstarred coefficients (the star is the identity bijection on the
monomial spanning set, tracked by which graded slot the element sits in).
The generic engine re-derives l2 and l3 from `to_homotopy_data`'s export,
and `engine_matrices_match` compares them with these maps through
`complexes.compare_with_engine`.  The example models are the bundled model
files bv_two_pair and bv_two_ghost (src/chainext/models), read by
formats.load_bv.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .complexes import compare_with_engine, verify_homotopy
from .exactla import Basis, kernel_basis, operator_matrix
from .series import TLinear, pair_sum, star_resolution
from .superalg import (FixedAntibracket, SuperAlgebra, SuperPoly, antibracket,
                       antifield_of, monomials)


class BVModel:
    """Field/antifield pairs over one supercommutative algebra."""

    __slots__ = ("alg", "pairs", "cap")

    def __init__(self, fields, cap):
        for f in fields:
            if f.kind != "field":
                raise ValueError("BVModel takes kind='field' generators")
        antis = [antifield_of(f) for f in fields]
        self.alg = SuperAlgebra(list(fields) + antis)
        self.pairs = [(f.name, a.name) for f, a in zip(fields, antis)]
        self.cap = int(cap)

    def gen(self, name):
        return SuperPoly.gen(self.alg, name)

    def bracket(self, f, g):
        return antibracket(f, g, self.pairs)

    def ad(self, f):
        """(f, .) precompiled, for a fixed f bracketed with many arguments:
        a map of monomial dicts."""
        return FixedAntibracket(f, self.pairs)

    def monomials(self, maxdeg):
        """All normal-ordered monomials of total degree <= maxdeg, sorted."""
        return sorted(monomials(self.alg, lambda odd: maxdeg - len(odd)))

    def poly(self, mono):
        return SuperPoly(self.alg, {mono: 1})


class DeformationProblem:
    """S_0..S_n with the order-n master equation checked at construction."""

    __slots__ = ("model", "S", "n", "trunc")

    def __init__(self, model, S, trunc=None):
        self.model = model
        self.S = list(S)
        self.n = len(self.S) - 1
        if self.n < 0:
            raise ValueError("need at least S_0")
        for i, s in enumerate(self.S):
            if not s.is_zero() and (s.parity() != 0 or s.ghost() != 0):
                raise ValueError("S_%d must be even with ghost number 0" % i)
        for m in range(self.n + 1):
            if not pair_sum(lambda i, j: model.bracket(self.S[i], self.S[j]),
                            m, 0, self.n, SuperPoly.zero(model.alg)).is_zero():
                raise ValueError("order-%d master equation fails" % m)
        self.trunc = 2 * self.n if trunc is None else int(trunc)


def obstruction_R(problem: DeformationProblem, order: int) -> SuperPoly:
    """sum_{i+j=order, i,j>=1} (S_i, S_j); checked to be a cocycle of
    (S_0, .)."""
    model, S = problem.model, problem.S
    out = pair_sum(lambda i, j: model.bracket(S[i], S[j]), order, 1,
                   problem.n, SuperPoly.zero(model.alg))
    if not model.bracket(S[0], out).is_zero():
        raise ValueError("obstruction is not a cocycle: inconsistent data")
    return out


class Theorem8Maps:
    """The three maps of the extension, stored as t-linear operators.

    l1_op (X_1 -> X_0), l2_plain_op (X_0 -> X_0), l2_star_op (X_1 -> X_1)
    and l3_op (X_0 -> X_1) are sums over shifts of scalar multiples of the
    coefficient operators ad_S[i] = (S_i, .) and ad_R[m] = (R_m, .), each
    precompiled once from its values on the generators."""

    __slots__ = ("problem", "pair_brackets", "ad_S", "ad_R",
                 "l1_op", "l2_plain_op", "l2_star_op", "l3_op")

    def __init__(self, problem):
        self.problem = problem
        model, S, n = problem.model, problem.S, problem.n
        self.pair_brackets = {m: pair_sum(
            lambda i, j: model.bracket(S[i], S[j]), m, 0, n,
            SuperPoly.zero(model.alg)) for m in range(n + 1, 2 * n + 1)}
        self.ad_S = [model.ad(s) for s in S]
        self.ad_R = {m: model.ad(r) for m, r in self.pair_brackets.items()}
        self.l1_op = TLinear({0: [(1, ())]})
        self.l2_plain_op = TLinear({i: [(1, (ad,))] for i, ad in
                                    enumerate(self.ad_S)})
        self.l2_star_op = TLinear({i: [(-1, (ad,))] for i, ad in
                                   enumerate(self.ad_S)})
        self.l3_op = TLinear({m: [(Fraction(-1, 2), (ad,))]
                              for m, ad in self.ad_R.items()})

    @property
    def model(self):
        return self.problem.model

    @property
    def n(self):
        return self.problem.n

    @property
    def T(self):
        return self.problem.trunc


def theorem8_maps(problem: DeformationProblem) -> Theorem8Maps:
    if problem.trunc < 2 * problem.n:
        raise ValueError("truncation %d cuts the t^%d terms of l3; need at "
                         "least %d" % (problem.trunc, 2 * problem.n,
                                       2 * problem.n))
    return Theorem8Maps(problem)


def verify_theorem8(maps: Theorem8Maps, maxdeg: int) -> dict:
    """S^2 on every basis element of both degrees up to caps, the obstruction
    summand in l3, ghost bookkeeping, and ideal preservation.  The report
    also carries the obstruction R = obstruction_R(problem, n + 1) it
    compares against, under "obstruction_R", and under "cases" the number
    of (degree, monomial, t-power) basis elements whose S^2 it decided.

    The stored operators are t-linear, so S^2(a t^k) = t^k S^2(a) mod
    t^(T+1): the square is evaluated once per monomial a, shift by shift as
    B_s = sum_{i+j=s} A_j A_i, and a t^k passes exactly when B_s(a) = 0 for
    every s <= T - k.  Each monomial serves both degrees (the star is the
    identity on monomials), and each distinct block B is evaluated once
    (TLinear is canonical: for a valid star l2 the block from degree 1 to 0
    is empty, and the one from 1 to 1 equals the one from 0 to 0).  Each
    bracket keeps the image of every monomial it derives, so the chains
    here and in the engine cross-check derive each monomial once.  The
    blocks, l3 and the summand are scaled by L, the lcm of their scalars'
    denominators, so the sweep runs on ints; one common nonzero factor
    changes no zero test and no equality.

    The star l2 sends a* t^k to sum_s t^(k+s) A_s(a)*, so it preserves the
    ideal t^(n+1) R[[t]] exactly when none of its stored shifts s is
    negative; the first failure then names the lowest shift.  S is not
    t-linear in that case, and s_squared is left undecided (None)."""
    model, n, T = maps.model, maps.n, maps.T
    monos = model.monomials(maxdeg)
    report = {"s_squared": True, "l3_obstruction_summand": True,
              "ghost_shift": True, "ideal_preserved": True,
              "first_failure": None}

    def fail(key, what):
        report[key] = False
        if report["first_failure"] is None:
            report["first_failure"] = (key, what)

    shift = min(maps.l2_star_op.terms, default=0)
    if shift < 0:
        fail("ideal_preserved", shift)
        report["s_squared"] = None
    R = obstruction_R(maps.problem, n + 1)
    l3 = maps.l3_op
    summand = TLinear({n + 1: [(Fraction(-1, 2), (model.ad(R),))]})
    # S = l1 + l2 + l3 by (target degree, source degree)
    blocks = {(0, 0): maps.l2_plain_op, (1, 0): l3,
              (0, 1): maps.l1_op, (1, 1): maps.l2_star_op}
    square = {(e, d): blocks[(e, 0)].compose(blocks[(0, d)]) +
              blocks[(e, 1)].compose(blocks[(1, d)])
              for e in (0, 1) for d in (0, 1)} if shift >= 0 else {}
    L = lcm(l3.denominator(), summand.denominator(),
            *(b.denominator() for b in square.values()))
    l3, summand = l3.scale(L), summand.scale(L)
    # the distinct nonzero blocks, and which of them leave degree d
    distinct, leaving = [], (set(), set())
    for (_e, d), b in square.items():
        if b.terms:
            b = b.scale(L)
            if b not in distinct:
                distinct.append(b)
            leaving[d].add(distinct.index(b))
    ghosts = model.alg.ghosts
    cases = 0
    for mono in monos:
        args = ({mono: 1},)
        if square:
            # the lowest shift at which S^2 of a t^0 (degree 0) or a* t^0
            # (degree 1) is nonzero
            lows = [min(b.images(args, T), default=T + 1)
                    for b in distinct]
            low = [min((lows[i] for i in leaving[d]), default=T + 1)
                   for d in (0, 1)]
            # S^2 fails on a t^k (k >= n + 1 in degree 1) exactly when
            # low[d] <= T - k, so the first failure is at k = 0 or n + 1
            if low[0] <= T:
                fail("s_squared", ("degree0", mono, 0))
            elif low[1] <= T - n - 1:
                fail("s_squared", ("degree1", mono, n + 1))
            cases += T + 1 + max(0, T - n)
        if l3.images(args, n + 1).get(n + 1) != \
                summand.images(args, n + 1).get(n + 1):
            fail("l3_obstruction_summand", mono)
        gh = sum(ghosts[i] for i in mono)
        for img in maps.l2_plain_op.images(args, T).values():
            gs = {sum(ghosts[i] for i in m) for m in img}
            if len(gs) > 1:
                raise ValueError("polynomial is not ghost-homogeneous")
            if gs != {gh + 1}:
                fail("ghost_shift", mono)
    report["ok"] = all(report[k] for k in
                       ("s_squared", "l3_obstruction_summand", "ghost_shift",
                        "ideal_preserved"))
    report["obstruction_R"] = R
    report["cases"] = cases
    return report


def find_s0_cocycle(model: BVModel, S0: SuperPoly, maxdeg: int):
    """Even ghost-0 monomial combinations killed by (S0, .), via an exact
    kernel computation; returns one SuperPoly cocycle per column of the
    kernel basis."""
    parities, ghosts = model.alg.parities, model.alg.ghosts
    monos = [m for m in model.monomials(maxdeg)
             if not sum(parities[i] for i in m) % 2
             and not sum(ghosts[i] for i in m)]
    s0_deg = max((len(m) for m in S0.terms), default=0)
    all_monos = model.monomials(maxdeg + max(s0_deg - 2, 0))
    ad = model.ad(S0)
    kernel = kernel_basis(operator_matrix(lambda m: ad.image({m: 1}),
                                          Basis(monos),
                                          Basis(all_monos, model.poly)))
    return [SuperPoly(model.alg, {monos[i]: x
                                  for i, x in kernel.col(j).items()})
            for j in range(kernel.ncols)]


def auto_term(model: BVModel, S0: SuperPoly, i: int) -> SuperPoly:
    """The term `S<i>: auto` stands for: the first quadratic cocycle of
    (S0, .) with a monomial of degree >= 2."""
    term = next((f for f in find_s0_cocycle(model, S0, 2)
                 if any(len(m) >= 2 for m in f.terms)), None)
    if term is None:
        raise ValueError("no nontrivial cocycle found for S%d" % i)
    return term


# -- generic-engine bridge -------------------------------------------------------

class S0DegreeError(ValueError):
    """S_0 has degree above 2, so no finite basis closes under (S_0, .)."""


def check_s0_degree(S0: SuperPoly):
    """Raise S0DegreeError when S_0 has degree above 2."""
    deg = max((len(m) for m in S0.terms), default=0)
    if deg > 2:
        raise S0DegreeError("S_0 has degree %d, above 2: no finite basis "
                            "closes under (S_0, .)" % deg)


def to_homotopy_data(maps: Theorem8Maps, cap: int):
    """The two-term graded space over basis monomials x t-powers, with
    h = -(star) as the contracting homotopy; returns (HomotopyData, l2_0
    matrix, (X_0, X_1)), the two Basis objects over (monomial, t-power)
    labels.

    The basis is weighted so that every bracket application stays inside:
    weight = degree + jump * (T - t-power) <= cap, where jump bounds the
    degree increase of (S_i, .) for i >= 1; (S_0, .) must not increase
    degree.  So every label has degree <= cap, the bound of the monomials.
    """
    model, n, T = maps.model, maps.n, maps.T
    check_s0_degree(maps.problem.S[0])
    jump = max([0] + [len(m) - 2 for s in maps.problem.S[1:]
                      for m in s.terms])
    labels = [(m, k) for m in model.monomials(cap)
              for k in range(T + 1) if len(m) + jump * (T - k) <= cap]
    hd, bases = star_resolution(
        labels, n + 1, lambda b: "%s t^%d" % (model.poly(b[0]), b[1]))
    return hd, maps.l2_plain_op.matrix(bases[0], bases[0], T), bases


def engine_matrices_match(maps: Theorem8Maps, cap: int) -> bool:
    """Run the generic extension on the exported data and compare its l2, l3
    blocks with the Theorem-8 maps entrywise."""
    hd, l2_0, (b0, b1) = to_homotopy_data(maps, cap)
    return verify_homotopy(hd)["ok"] and compare_with_engine(
        hd, l2_0, (b0, b1),
        {("l2", 1): maps.l2_star_op.matrix(b1, b1, maps.T),
         ("l3", 0): maps.l3_op.matrix(b0, b1, maps.T)})["ok"]
