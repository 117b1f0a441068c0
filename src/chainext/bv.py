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
R_{n+1} = sum_{i+j=n+1, i,j>=1} (S_i, S_j).  Starred series are stored by
their unstarred coefficients (the star is the identity bijection on the
monomial spanning set, tracked by which graded slot the element sits in).
Everything is re-derivable through the generic engine; see
`to_homotopy_data`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement

from .complexes import GradedMap, GradedSpace, HomotopyData
from .exactla import Basis, kernel_basis, operator_matrix
from .superalg import (
    GenSpec, SuperAlgebra, SuperPoly, antibracket, antifield_of, mul,
    right_derivs,
)


class BVModel:
    """Field/antifield pairs over one supercommutative algebra."""

    __slots__ = ("alg", "pairs", "cap")

    def __init__(self, fields, cap=8):
        for f in fields:
            if f.kind != "field":
                raise ValueError("BVModel takes kind='field' generators")
        antis = [antifield_of(f) for f in fields]
        self.alg = SuperAlgebra(list(fields) + antis)
        self.pairs = [(f.name, a.name) for f, a in zip(fields, antis)]
        self.cap = int(cap)

    def gen(self, name):
        return SuperPoly.gen(self.alg, name)

    def bracket(self, f, g, f_derivs=None):
        """(f, g); pass f_derivs = self.right_derivs(f) when f is fixed."""
        return antibracket(f, g, self.pairs, f_derivs)

    def right_derivs(self, f):
        """The left factors of (f, .) for every pair: bracket's f_derivs."""
        return right_derivs(f, self.pairs)

    def monomials(self, maxdeg):
        """All normal-ordered monomials of total degree <= maxdeg, sorted."""
        evens = [i for i, g in enumerate(self.alg.gens) if g.parity == 0]
        odds = [i for i, g in enumerate(self.alg.gens) if g.parity == 1]
        out = []
        for on in range(len(odds) + 1):
            for oset in combinations(odds, on):
                for ed in range(maxdeg - on + 1):
                    for emono in combinations_with_replacement(evens, ed):
                        out.append(tuple(sorted(emono + oset)))
        out.sort()
        return out

    def poly(self, mono):
        return SuperPoly(self.alg, {mono: 1})


def master_check(model: BVModel, S0: SuperPoly) -> bool:
    """True iff (S0, S0) = 0; S0 must be even with ghost number 0."""
    try:
        p, gh = S0.parity(), S0.ghost()
    except ValueError as e:
        raise ValueError("master equation candidate must be parity- and "
                         "ghost-homogeneous: %s" % (e,))
    if p != 0 or gh != 0:
        raise ValueError("master equation candidate must be even with ghost "
                         "number 0 (got parity %d, ghost %d)" % (p, gh))
    return model.bracket(S0, S0).is_zero()


def s0_differential(model: BVModel, S0: SuperPoly, a: SuperPoly) -> SuperPoly:
    """(S0, a), after checking the master equation and the square identity
    (S0,(S0,a)) = 1/2 ((S0,S0),a)."""
    if not master_check(model, S0):
        raise ValueError("(S0,S0) != 0: not a solution of the master equation")
    out = model.bracket(S0, a)
    half = model.bracket(model.bracket(S0, S0), a).scale(Fraction(1, 2))
    if model.bracket(S0, out) != half:
        raise ValueError("square identity violated: inconsistent bracket data")
    return out


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
            acc = SuperPoly.zero(model.alg)
            for i in range(m + 1):
                acc = acc + model.bracket(self.S[i], self.S[m - i])
            if not acc.is_zero():
                raise ValueError("order-%d master equation fails" % m)
        self.trunc = 2 * self.n if trunc is None else int(trunc)


def obstruction_R(problem: DeformationProblem, order: int) -> SuperPoly:
    """sum_{i+j=order, i,j>=1} (S_i, S_j); checked to be a cocycle of
    (S_0, .)."""
    model, S, n = problem.model, problem.S, problem.n
    out = SuperPoly.zero(model.alg)
    for i in range(1, min(order, n + 1)):
        j = order - i
        if 1 <= j <= n:
            out = out + model.bracket(S[i], S[j])
    if not model.bracket(S[0], out).is_zero():
        raise ValueError("obstruction is not a cocycle: inconsistent data")
    return out


class TSeries:
    """Element of R[[t]] truncated mod t^(T+1): list of SuperPoly coeffs."""

    __slots__ = ("model", "T", "coeffs")

    def __init__(self, model, T, coeffs=None):
        self.model = model
        self.T = int(T)
        if coeffs is None:
            coeffs = [SuperPoly.zero(model.alg) for _ in range(self.T + 1)]
        if len(coeffs) != self.T + 1:
            raise ValueError("need T+1 coefficients")
        self.coeffs = list(coeffs)

    @classmethod
    def basis(cls, model, T, k, mono):
        out = cls(model, T)
        out.coeffs[k] = model.poly(mono)
        return out

    def add(self, other):
        return type(self)(self.model, self.T,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        return type(self)(self.model, self.T,
                          [a.scale(c) for a in self.coeffs])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (type(self) is type(other) and self.T == other.T
                and self.coeffs == other.coeffs)


class StarSeries(TSeries):
    """Element of R[1][[t]] t^(n+1), stored by unstarred coefficients; the
    star bijection is the identity on the monomial spanning set."""

    __slots__ = ("kmin_val",)

    def __init__(self, model, T, coeffs=None, kmin=0):
        super().__init__(model, T, coeffs)
        self.kmin_val = int(kmin)
        for k in range(self.kmin_val):
            if not self.coeffs[k].is_zero():
                raise ValueError("starred series has a t^%d coefficient below "
                                 "t^%d" % (k, self.kmin_val))

    @classmethod
    def basis(cls, model, T, k, mono, kmin=0):
        coeffs = [SuperPoly.zero(model.alg) for _ in range(T + 1)]
        coeffs[k] = model.poly(mono)
        return cls(model, T, coeffs, kmin=kmin)

    def add(self, other):
        return StarSeries(self.model, self.T,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)],
                          kmin=min(self.kmin_val, other.kmin_val))

    def scale(self, c):
        return StarSeries(self.model, self.T,
                          [a.scale(c) for a in self.coeffs],
                          kmin=self.kmin_val)


class Theorem8Maps:
    """The three maps of the extension, t-linear on truncated series."""

    __slots__ = ("problem", "pair_brackets", "S_derivs", "pair_derivs")

    def __init__(self, problem):
        self.problem = problem
        model, S, n = problem.model, problem.S, problem.n
        # left factors of the fixed bracket arguments S_i and R_m, one table
        # each: O(pairs x terms), independent of the basis
        self.S_derivs = [model.right_derivs(s) for s in S]
        self.pair_brackets = {}
        self.pair_derivs = {}
        for m in range(n + 1, 2 * n + 1):
            acc = SuperPoly.zero(model.alg)
            for i in range(max(1, m - n), min(n, m - 1) + 1):
                acc = acc + model.bracket(S[i], S[m - i], self.S_derivs[i])
            self.pair_brackets[m] = acc
            self.pair_derivs[m] = model.right_derivs(acc)

    @property
    def model(self):
        return self.problem.model

    @property
    def n(self):
        return self.problem.n

    @property
    def T(self):
        return self.problem.trunc

    def l1(self, xi: StarSeries) -> TSeries:
        return TSeries(self.model, self.T, xi.coeffs)

    def l2_plain(self, x: TSeries) -> TSeries:
        out = TSeries(self.model, self.T)
        for k in range(self.T + 1):
            if x.coeffs[k].is_zero():
                continue
            for i in range(min(self.n, self.T - k) + 1):
                out.coeffs[k + i] = out.coeffs[k + i] + self.model.bracket(
                    self.problem.S[i], x.coeffs[k], self.S_derivs[i])
        return out

    def l2_star(self, xi: StarSeries) -> StarSeries:
        out = StarSeries(self.model, self.T, kmin=xi.kmin_val)
        for k in range(self.T + 1):
            if xi.coeffs[k].is_zero():
                continue
            for i in range(min(self.n, self.T - k) + 1):
                out.coeffs[k + i] = out.coeffs[k + i] - self.model.bracket(
                    self.problem.S[i], xi.coeffs[k], self.S_derivs[i])
        return out

    def l3_plain(self, x: TSeries) -> StarSeries:
        out = StarSeries(self.model, self.T, kmin=0)
        for k in range(self.T + 1):
            if x.coeffs[k].is_zero():
                continue
            for m, rm in self.pair_brackets.items():
                if k + m > self.T:
                    continue
                out.coeffs[k + m] = out.coeffs[k + m] + self.model.bracket(
                    rm, x.coeffs[k], self.pair_derivs[m]).scale(Fraction(-1, 2))
        return out

    def apply_S(self, pair):
        """One application of S = l1+l2+l3 to (degree-0, degree-1) data."""
        x0, x1 = pair
        out0 = self.l2_plain(x0).add(self.l1(x1))
        out1 = self.l3_plain(x0).add(self.l2_star(x1))
        return (out0, out1)


def theorem8_maps(problem: DeformationProblem) -> Theorem8Maps:
    if problem.trunc < 2 * problem.n:
        raise ValueError("truncation %d cuts the t^%d terms of l3; need at "
                         "least %d" % (problem.trunc, 2 * problem.n,
                                       2 * problem.n))
    return Theorem8Maps(problem)


def verify_theorem8(maps: Theorem8Maps, maxdeg=None) -> dict:
    """S^2 on every basis element of both degrees up to caps, the obstruction
    summand in l3, ghost bookkeeping, and ideal preservation.  The report
    also carries the obstruction R = obstruction_R(problem, n + 1) it
    compares against, under "obstruction_R"."""
    model, n, T = maps.model, maps.n, maps.T
    if maxdeg is None:
        maxdeg = model.cap
    monos = model.monomials(maxdeg)
    report = {"s_squared": True, "l3_obstruction_summand": True,
              "ghost_shift": True, "ideal_preserved": True,
              "first_failure": None}

    def fail(key, what):
        report[key] = False
        if report["first_failure"] is None:
            report["first_failure"] = (key, what)

    R = obstruction_R(maps.problem, n + 1)
    R_derivs = model.right_derivs(R)
    for mono in monos:
        a = model.poly(mono)
        for k in range(T + 1):
            x = TSeries.basis(model, T, k, mono)
            sq = maps.apply_S(maps.apply_S((x, StarSeries(model, T,
                                                          kmin=n + 1))))
            if not (sq[0].is_zero() and sq[1].is_zero()):
                fail("s_squared", ("degree0", mono, k))
            if k >= n + 1:
                xi = StarSeries.basis(model, T, k, mono, kmin=n + 1)
                zero0 = TSeries(model, T)
                sq = maps.apply_S(maps.apply_S((zero0, xi)))
                if not (sq[0].is_zero() and sq[1].is_zero()):
                    fail("s_squared", ("degree1", mono, k))
                img = maps.l2_star(xi)
                if any(not img.coeffs[m].is_zero() for m in range(n + 1)):
                    fail("ideal_preserved", (mono, k))
        got = maps.l3_plain(TSeries.basis(model, T, 0, mono)).coeffs[n + 1]
        want = model.bracket(R, a, R_derivs).scale(Fraction(-1, 2))
        if got != want:
            fail("l3_obstruction_summand", mono)
        img = maps.l2_plain(TSeries.basis(model, T, 0, mono))
        gh = a.ghost()
        for c in img.coeffs:
            if not c.is_zero() and c.ghost() != gh + 1:
                fail("ghost_shift", mono)
    report["ok"] = all(report[k] for k in
                       ("s_squared", "l3_obstruction_summand", "ghost_shift",
                        "ideal_preserved"))
    report["obstruction_R"] = R
    return report


def homotopy_h(maps: Theorem8Maps, x: TSeries) -> StarSeries:
    """h = -(star) on the ideal t^(n+1) R[[t]], zero below."""
    out = StarSeries(maps.model, maps.T, kmin=maps.n + 1)
    for k in range(maps.n + 1, maps.T + 1):
        out.coeffs[k] = x.coeffs[k].scale(-1)
    return out


def find_s0_cocycle(model: BVModel, S0: SuperPoly, maxdeg: int):
    """Even ghost-0 monomial combinations killed by (S0, .), via an exact
    kernel computation; returns a list of SuperPoly cocycles."""
    monos = [m for m in model.monomials(maxdeg)
             if model.poly(m).parity() == 0 and model.poly(m).ghost() == 0]
    s0_deg = max((len(m) for m in S0.terms), default=0)
    all_monos = model.monomials(maxdeg + max(s0_deg - 2, 0))
    s0_derivs = model.right_derivs(S0)
    mat = operator_matrix(
        lambda m: model.bracket(S0, model.poly(m), s0_derivs).terms.items(),
        Basis(monos), Basis(all_monos, model.poly))
    return [SuperPoly(model.alg, dict(zip(monos, vec)))
            for vec in kernel_basis(mat)]


# -- generic-engine bridge -------------------------------------------------------

def to_homotopy_data(maps: Theorem8Maps, cap: int):
    """The two-term graded space over basis monomials x t-powers, with
    h = -(star) as the contracting homotopy; returns (HomotopyData, l2_0
    matrix, basis) where basis[k] lists (monomial, t-power) pairs.

    The basis is weighted so that every bracket application stays inside:
    weight = degree + jump * (T - t-power), where jump bounds the degree
    increase of (S_i, .) for i >= 1; (S_0, .) must not increase degree.
    """
    model, n, T = maps.model, maps.n, maps.T
    jump = 0
    for i, s in enumerate(maps.problem.S):
        ds = max((len(m) for m in s.terms), default=0) - 2
        if i == 0 and ds > 0:
            raise ValueError("degree of S_0 exceeds 2: no finite basis closes "
                             "under (S_0, .)")
        if i >= 1:
            jump = max(jump, ds)
    monos = model.monomials(cap + jump * T)

    def weight(mono, k):
        return len(mono) + jump * (T - k)

    basis0 = [(m, k) for m in monos for k in range(T + 1)
              if weight(m, k) <= cap]
    basis1 = [(m, k) for m in monos for k in range(n + 1, T + 1)
              if weight(m, k) <= cap]
    basis0.sort()
    basis1.sort()
    b0, free = Basis(basis0), Basis([b for b in basis0 if b[1] <= n])
    star = partial(StarSeries.basis, kmin=n + 1)
    sp = GradedSpace([len(basis0), len(basis1)])
    hd = HomotopyData(
        sp,
        GradedMap(sp, -1, {1: _matrix(maps, maps.l1, star, basis1, basis0)}),
        len(free),
        operator_matrix(lambda b: [(b, 1)] if b[1] <= n else [], b0, free),
        operator_matrix(lambda b: [(b, 1)], free, b0),
        GradedMap(sp, +1, {0: _matrix(maps, lambda x: homotopy_h(maps, x),
                                      TSeries.basis, basis0, basis1)}),
    )
    l2_0 = _matrix(maps, maps.l2_plain, TSeries.basis, basis0, basis0)
    return hd, l2_0, (basis0, basis1)


def engine_matrices_match(maps: Theorem8Maps, cap: int) -> bool:
    """Run the generic extension on the exported data and compare its l2, l3
    blocks with the Theorem-8 maps entrywise."""
    from .complexes import chain_extend, verify_homotopy
    hd, l2_0, (basis0, basis1) = to_homotopy_data(maps, cap)
    if not verify_homotopy(hd)["ok"]:
        return False
    ext = chain_extend(hd, l2_0, d_f=hd.eta @ l2_0 @ hd.lam)
    star = partial(StarSeries.basis, kmin=maps.n + 1)
    want_l2_1 = _matrix(maps, maps.l2_star, star, basis1, basis1)
    want_l3 = _matrix(maps, maps.l3_plain, TSeries.basis, basis0, basis1)
    return ext.l2.block(1) == want_l2_1 and ext.l3.block(0) == want_l3


def _matrix(maps, op, element, src, dst):
    """Matrix of a series operator between lists of (monomial, t-power)
    labels: element(model, T, k, m) is the input series of the label (m, k),
    and the output's t^k coefficient of m lands at the label (m, k)."""
    def column(label):
        out = op(element(maps.model, maps.T, label[1], label[0]))
        return [((m, k), c) for k, coeff in enumerate(out.coeffs)
                for m, c in coeff.terms.items()]
    return operator_matrix(column, Basis(src), Basis(
        dst, lambda b: "%s t^%d" % (maps.model.poly(b[0]), b[1])))


# -- shipped models ---------------------------------------------------------------

def two_pair_model(cap=6) -> BVModel:
    """One even ghost-0 field and one odd ghost-1 field with antifields."""
    return BVModel([GenSpec("phi", "even", ghost=0, kind="field"),
                    GenSpec("C", "odd", ghost=1, kind="field")], cap=cap)


def two_pair_problem(trunc=2) -> DeformationProblem:
    model = two_pair_model()
    s0 = mul(model.gen("phi_st"), model.gen("C"))
    cocycles = find_s0_cocycle(model, s0, 2)
    s1 = next(f for f in cocycles
              if any(len(m) >= 2 for m in f.terms))
    return DeformationProblem(model, [s0, s1], trunc=trunc)


def two_ghost_model(cap=6) -> BVModel:
    return BVModel([
        GenSpec("phi1", "even", ghost=0, kind="field"),
        GenSpec("phi2", "even", ghost=0, kind="field"),
        GenSpec("C1", "odd", ghost=1, kind="field"),
        GenSpec("C2", "odd", ghost=1, kind="field"),
    ], cap=cap)


def two_ghost_problem(trunc=2) -> DeformationProblem:
    """A deformation whose first obstruction R_2 = (S_1,S_1) is nonzero."""
    model = two_ghost_model()
    s0 = mul(model.gen("phi1_st"), model.gen("C1")) + \
        mul(model.gen("phi2_st"), model.gen("C2"))
    s1 = mul(mul(model.gen("phi1_st"), model.gen("C2")), model.gen("phi2")) + \
        mul(mul(model.gen("phi2_st"), model.gen("C1")), model.gen("phi1"))
    return DeformationProblem(model, [s0, s1], trunc=trunc)
