"""Hamiltonian-style chain extension for first-class constraint systems.

The polynomial model: even coordinates x_i, even constraints G_a with a
Poisson table closing as [G_a,G_b] = sum_c C^c_ab G_c, odd ghosts eta^a
(ghost +1) and odd antighosts P_a (antighost degree 1).  The module builds

    l1 = delta  (delta P_a = -G_a, a right derivation),
    l2 extending the longitudinal differential d f = [f, G_b] eta^b,
    l3 from the homotopy recursion,

with (l1+l2+l3)^2 = 0 exact.  delta, d and the Koszul homotopy sigma
(sigma G_a = -P_a, so sigma(F) = -sum_a (dF/dG_a) P_a) are odd right
derivations, each fixed by its values on the generators.  The contracting
homotopy is s = sigma . psi, with psi the monomial rescaling -1/k on combined
(P,G)-degree k, and lambda~ = 1 + delta s kills every monomial containing a G.
l2 and l3 are per-monomial rules extended linearly: one rule computes both
images of a monomial from one delta image (on antighost 0, one d image).

Each ConstraintSystem holds delta, sigma and d once as superalg.Derivations,
in integer kernel form, and both the operator blocks and BRSTExtension's
l2/l3 recursion apply them through `Derivation.image`; every image is an
exact image of exactla, a {monomial: int} dict over one denominator.  On a
SuperPoly, koszul_tate (BRSTExtension.l1) applies delta's generator values
through extend_right_derivation; the SuperPoly versions of the other
operators (sigma, psi, s, d, Nbar, lambda~, eta) are the tests' reference
for the blocks and live in tests/references.py.  l2 and l3 are still
computed on two independent routes: per monomial by BRSTExtension, and by
the engine's matrix recursion on the exported blocks.

Operators are materialized on the finite monomial basis of weighted degree
<= cap, where the weight adds the maximal degree jump of d per missing
ghost; superalg.monomials enumerates exactly this basis, which is closed
under every operator, and this is checked loudly.
Each antighost group is one named Basis, built once per system and cap
(outside 0..n the empty basis), and every block, sweep and export reads it.
The matrices of delta, sigma, s and d are built once per system and cap,
one block per antighost group: a column of delta, sigma or d is the compiled
image of one monomial, written by exactla.operator_matrix, which raises
when an output leaves the capped basis, and the s block is the sigma block
times psi's diagonal.  export_to_complexes hands these blocks to the
engine, with the group bases, and the engine's verifiers decide
the resolution and l^2 = 0: verify_brst_resolution reads the export's
complexes.homotopy_residuals and adds only the Nbar identity, and
check_nilpotent_on_basis writes the images of l2 and l3 per group and runs
complexes.verify_nilpotent.

The example systems are the bundled model files brst_so3, brst_toy and
brst_abelian (src/chainext/models), read by formats.load_brst.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from types import MappingProxyType

from .complexes import (ChainExtension, GradedMap, GradedSpace, HomotopyData,
                        homotopy_residuals, projection_pair, verify_nilpotent)
from .exactla import (Basis, RatMatrix, add_into, combine, image,
                      operator_matrix)
from .superalg import (
    Derivation, GenSpec, SuperAlgebra, SuperPoly, extend_right_derivation,
    monomials, mul, validate_poisson_table,
)


def _sum(alg, polys, c=1):
    """c times the sum of polys, accumulated in one dict."""
    out = {}
    for p in polys:
        add_into(out, p.terms, c)
    return SuperPoly(alg, out)


def constraint_algebra(m: int, n: int) -> SuperAlgebra:
    """The free superalgebra of m coordinates x_i and n constraints G_a
    (even), ghosts eta^a (odd, ghost 1) and antighosts P_a (odd, antighost
    1), in this order."""
    def names(stem, k):
        return ["%s%d" % (stem, i + 1) for i in range(k)]
    return SuperAlgebra(
        [GenSpec(x, "even", kind="x") for x in names("x", m)]
        + [GenSpec(g, "even", kind="G") for g in names("G", n)]
        + [GenSpec(e, "odd", ghost=1, kind="eta") for e in names("eta", n)]
        + [GenSpec(p, "odd", ghost=-1, antighost=1, kind="P")
           for p in names("P", n)])


class ConstraintSystem:
    """m even coordinates, n even first-class constraints, ghosts, antighosts.

    poisson_table maps generator-name pairs (among x_i, G_a) to SuperPoly
    values; structure maps (a, b) with a < b (0-based) to the length-n list
    of structure functions C^c_ab, polynomials in (x, G).  The first-class
    check and d_vals read each bracket of two generators off the table that
    superalg.validate_poisson_table returns.  delta_vals, sigma_vals and
    d_vals map generators to their values under delta, sigma and d,
    read-only; compiled holds the same three derivations as
    superalg.Derivations, for the operator blocks and BRSTExtension.
    _bases keeps, per cap, one named Basis per antighost group and the
    operator blocks built on them; no attribute is rebound after __init__.
    """

    __slots__ = ("m", "n", "alg", "table", "structure", "xs", "gs", "etas",
                 "ps", "delta_vals", "sigma_vals", "d_vals", "pg",
                 "compiled", "_bases")

    def __init__(self, m, n, poisson_table, structure):
        self.m = int(m)
        self.n = int(n)
        self.alg = constraint_algebra(self.m, self.n)
        self.xs, self.gs, self.etas, self.ps = (
            [g.name for g in self.alg.gens if g.kind == kind]
            for kind in ("x", "G", "eta", "P"))
        self.table = dict(poisson_table)
        full = validate_poisson_table(self.alg, self.table)
        zero = SuperPoly.zero(self.alg)
        self.structure = {}
        onames = set(self.etas) | set(self.ps)
        for (a, b), cs in structure.items():
            if not (0 <= a < b < self.n) or len(cs) != self.n:
                raise ValueError("structure functions must be keyed by a<b "
                                 "with one entry per constraint")
            for f in cs:
                for mono in f.terms:
                    if any(self.alg.gens[i].name in onames for i in mono):
                        raise ValueError("structure functions must be "
                                         "polynomials in (x, G)")
            self.structure[(a, b)] = list(cs)
        for a, b in combinations(range(self.n), 2):
            want = _sum(self.alg, (mul(self.structure_fn(c, a, b),
                                       self.gen(g))
                                   for c, g in enumerate(self.gs)))
            if full.get((self.gs[a], self.gs[b]), zero) != want:
                raise ValueError(
                    "constraints are not first class: [%s,%s] does not "
                    "close on the given structure functions"
                    % (self.gs[a], self.gs[b]))
        self.delta_vals = MappingProxyType(
            {p: self.gen(g).scale(-1) for p, g in zip(self.ps, self.gs)})
        self.sigma_vals = MappingProxyType(
            {g: self.gen(p).scale(-1) for g, p in zip(self.gs, self.ps)})
        # d x_i = [x_i,G_b] eta^b, d G_a = [G_a,G_b] eta^b,
        # d eta^a = 1/2 C^a_cb eta^b eta^c, d P_a = 0
        d_vals = {
            name: _sum(self.alg, (mul(full[(name, g)], self.gen(e))
                                  for g, e in zip(self.gs, self.etas)
                                  if (name, g) in full))
            for name in self.xs + self.gs}
        for a, ea in enumerate(self.etas):
            d_vals[ea] = _sum(
                self.alg, (mul(mul(self.structure_fn(a, c, b), self.gen(eb)),
                               self.gen(ec))
                           for c, ec in enumerate(self.etas)
                           for b, eb in enumerate(self.etas)), Fraction(1, 2))
        self.d_vals = MappingProxyType(d_vals)
        # 1 on the generators that count in the (P, G)-degree
        self.pg = tuple(int(g.kind in ("G", "P")) for g in self.alg.gens)
        self.compiled = MappingProxyType({
            name: Derivation(self.alg, {g: v.terms for g, v in vals.items()},
                             1)
            for name, vals in (("delta", self.delta_vals),
                               ("sigma", self.sigma_vals),
                               ("d", self.d_vals))})
        self._bases = {}   # bound last: __setattr__ refuses from here on

    def __setattr__(self, name, value):
        if hasattr(self, "_bases"):
            raise AttributeError("ConstraintSystem is immutable")
        object.__setattr__(self, name, value)

    def gen(self, name):
        return SuperPoly.gen(self.alg, name)

    def structure_fn(self, c, a, b):
        """C^c_ab with antisymmetry in (a, b), zero when absent."""
        cs = self.structure.get((min(a, b), max(a, b)))
        if cs is None or a == b:
            return SuperPoly.zero(self.alg)
        return cs[c] if a < b else cs[c].scale(-1)

    # -- gradings -------------------------------------------------------------

    def pg_degree(self, mono):
        pg = self.pg
        return sum(pg[i] for i in mono)

    def xgp_degree(self, mono):
        return sum(1 for i in mono if self.alg.gens[i].kind in ("x", "G", "P"))

    def antighost_degree(self, mono):
        antighosts = self.alg.antighosts
        return sum(antighosts[i] for i in mono)

    def has_constraint_factor(self, mono):
        return any(self.alg.gens[i].kind == "G" for i in mono)


def _apply(sys, name, terms, den=1):
    """The compiled odd right derivation delta, sigma or d on terms / den,
    as an exact image."""
    return sys.compiled[name].image(terms, den)


# -- delta on SuperPoly ---------------------------------------------------------

def koszul_tate(sys: ConstraintSystem, f: SuperPoly) -> SuperPoly:
    """The odd right derivation with delta P_a = -G_a and zero otherwise."""
    return extend_right_derivation(f, sys.delta_vals, parity=1)


# -- monomial bases ------------------------------------------------------------

def degree_jump(sys: ConstraintSystem) -> int:
    """Maximal increase of xGP-degree under d on a generator."""
    return max([0] + [sys.xgp_degree(mono) - (name not in sys.etas)
                      for name, value in sys.d_vals.items()
                      for mono in value.terms])


def monomial_basis(sys: ConstraintSystem, cap: int):
    """All normal-ordered monomials of weight <= cap, grouped by antighost
    degree; each group sorted deterministically.  With p antighosts and e
    ghosts the weight is <= cap exactly when at most cap - p - jump (n - e)
    factors are even."""
    jump = degree_jump(sys)

    def even_degree(odd):
        p = sys.antighost_degree(odd)
        return cap - p - jump * (sys.n - len(odd) + p)

    groups = [[] for _ in range(sys.n + 1)]
    for mono in monomials(sys.alg, even_degree):
        groups[sys.antighost_degree(mono)].append(mono)
    for g in groups:
        g.sort()
    return groups


def _group_bases(sys: ConstraintSystem, cap: int):
    """One named Basis per antighost group of monomial_basis(sys, cap), built
    once per system and cap, and then the empty basis: entry n + 1, read as
    the group below 0 (index -1) and the group above n.  Each monomial is
    named by its SuperPoly text."""
    bases = sys._bases.get(cap)
    if bases is None:
        alg = sys.alg   # not sys, which keeps the bases: no reference cycle

        def name(m):
            return str(SuperPoly(alg, {m: 1}))
        bases = sys._bases[cap] = [Basis(g, name) for g in
                                   monomial_basis(sys, cap) + [[]]]
    return bases


# -- operator blocks on the capped basis ---------------------------------------

def _block(sys: ConstraintSystem, cap: int, name: str, k: int) -> RatMatrix:
    """The matrix of delta (group k to k-1), sigma or s (k to k+1) or d (k to
    k), built once per system and cap and kept next to the groups.  Column j
    of delta, sigma and d is the compiled derivation's image of the j-th
    monomial; s = sigma . psi is the sigma block times psi's diagonal.  A
    group outside 0..n is the empty basis, so an output that leaves the
    capped basis raises, naming the escaping monomial."""
    key = (cap, name, k)
    blk = sys._bases.get(key)
    if blk is None:
        bases = _group_bases(sys, cap)
        if name == "s":
            blk = _block(sys, cap, "sigma", k) @ _psi_diagonal(
                sys, bases[k].labels)
        else:
            blk = operator_matrix(
                lambda m: _apply(sys, name, {m: 1}), bases[k],
                bases[k + {"delta": -1, "sigma": 1, "d": 0}[name]])
        sys._bases[key] = blk
    return blk


def _psi_diagonal(sys: ConstraintSystem, group) -> RatMatrix:
    """psi on group as a diagonal matrix: -1/k on (P, G)-degree k, 0 on
    k = 0."""
    return RatMatrix.diagonal([Fraction(-1, k) if k else 0
                               for k in map(sys.pg_degree, group)])


def _bad_columns(mat: RatMatrix):
    """Indices of the nonzero columns of a residual."""
    return {j for j, col in enumerate(mat.column_rows()) if col}


# -- verification of the resolution data ---------------------------------------

RESOLUTION_KEYS = ("delta_squared", "nbar_identity",
                   "lambda_tilde_kills_ideal", "homotopy_identity")


def verify_brst_resolution(sys: ConstraintSystem, cap: int = 4) -> dict:
    """delta^2 = 0, delta sigma + sigma delta = Nbar, lambda~ kills the
    constraint ideal, and the homotopy identity.  delta^2 and the homotopy
    identity are the export's complexes.homotopy_residuals; eta is 0 on a
    monomial with a G factor, so there the degree-0 residual is lambda~ f.
    Nbar is a product of the operator blocks.  The first failure is the
    first nonzero residual column in (group, monomial, key) order.  The
    export also builds the d block on antighost 0, so an output of d that
    leaves the capped basis raises here, naming the escaping monomial."""
    residuals = homotopy_residuals(export_to_complexes(sys, cap)[0])
    report = dict.fromkeys(RESOLUTION_KEYS, True)
    report["first_failure"] = None

    def blk(name, k):
        return _block(sys, cap, name, k)

    for k, basis in enumerate(_group_bases(sys, cap)[:-1]):
        group = basis.labels
        nbar_res = (blk("delta", k + 1) @ blk("sigma", k)
                    + blk("sigma", k - 1) @ blk("delta", k)
                    - RatMatrix.diagonal(map(sys.pg_degree, group)))
        square = residuals.get("l1_l1_zero@%d" % k)   # from degree 2 on
        homotopy = _bad_columns(residuals["homotopy@%d" % k])
        bad = {"delta_squared":
               set() if square is None else _bad_columns(square),
               "nbar_identity": _bad_columns(nbar_res),
               "lambda_tilde_kills_ideal": {
                   j for j in homotopy
                   if k == 0 and sys.has_constraint_factor(group[j])},
               "homotopy_identity": homotopy}
        for j in sorted(set().union(*bad.values())):
            for key in RESOLUTION_KEYS:
                if j in bad[key]:
                    report[key] = False
                    if report["first_failure"] is None:
                        report["first_failure"] = (key, group[j])
    report["ok"] = all(report[k] for k in RESOLUTION_KEYS)
    return report


def in_constraint_ideal(sys: ConstraintSystem, monos) -> bool:
    """Membership in the ideal generated by the constraints of a
    combination with nonzero coefficients on the monomials monos (for a
    SuperPoly f, f.terms, which holds no zero terms).  The G_a are free
    generators, so it is a member exactly when each monomial has a G
    factor."""
    return all(map(sys.has_constraint_factor, monos))


# -- the chain extension --------------------------------------------------------

class BRSTExtension:
    """l1 = delta, l2, l3 as linear operators on SuperPoly.

    l2 and l3 come from one per-monomial rule, which derives m once:

        l2(m) = d(m),  l3(m) = s l2 l2(m)                    on antighost 0,
        l2(m) = s l2 delta(m),  l3(m) = s (l2 l2(m) + l3 delta(m))   above,

    with s = sigma . psi, extended linearly.  They run on exact integers:
    delta, sigma and d are the system's compiled derivations, and each
    image of a basis monomial is kept as an exact image of exactla, a
    {monomial: int} dict over a positive denominator in lowest terms.  A linear combination of images is taken
    over the lcm of their denominators (`exactla.combine`), and psi's -1/k
    over the lcm of the k (`_s`), so every image is exact on any monomial,
    inside the capped basis or not.  l1 is koszul_tate on SuperPoly.
    """

    __slots__ = ("sys", "_l2_cache", "_l3_cache")

    def __init__(self, sys):
        self.sys = sys
        self._l2_cache = {}
        self._l3_cache = {}

    def _linear(self, cache, terms, den=1):
        """The linear extension of l2 (cache is _l2_cache) or l3 (_l3_cache)
        on terms / den, an exact image; _rule fills both caches for a
        monomial the first time either image is needed."""
        scaled = []
        for m, c in terms.items():
            img = cache.get(m)
            if img is None:
                self._rule(m)
                img = cache[m]
            if img[0]:
                scaled.append((c, img))
        return combine(scaled, den)

    def _s(self, terms, den):
        """s = sigma . psi on terms / den: psi's -1/k on (P, G)-degree k is
        taken over the lcm of the k present; a term with k = 0 is dropped."""
        pg_degree = self.sys.pg_degree
        ks = {m: pg_degree(m) for m in terms}
        scale = lcm(*(k for k in ks.values() if k))
        return _apply(self.sys, "sigma",
                      {m: -c * (scale // ks[m])
                       for m, c in terms.items() if ks[m]}, den * scale)

    def _rule(self, mono):
        """l2(mono) and l3(mono) into the two caches, from one delta(mono)
        image, or on antighost 0 one d(mono) image.  Each image it reads has
        a ghost number one above mono's, so the recursion ends."""
        sys, l2s, l3s = self.sys, self._l2_cache, self._l3_cache
        if sys.antighost_degree(mono):
            dm = _apply(sys, "delta", {mono: 1})
            l2 = self._s(*self._linear(l2s, *dm))
            l3_dm = [(1, self._linear(l3s, *dm))]
        else:
            l2, l3_dm = _apply(sys, "d", {mono: 1}), []
        l2s[mono] = l2
        l3s[mono] = self._s(*combine([(1, self._linear(l2s, *l2))] + l3_dm))

    def _poly(self, img):
        return SuperPoly(self.sys.alg, {m: Fraction(c, img[1])
                                        for m, c in img[0].items()})

    def l1(self, f: SuperPoly) -> SuperPoly:
        return koszul_tate(self.sys, f)

    def l2(self, f: SuperPoly) -> SuperPoly:
        return self._poly(self._linear(self._l2_cache, *image(f.terms)))

    def l3(self, f: SuperPoly) -> SuperPoly:
        return self._poly(self._linear(self._l3_cache, *image(f.terms)))

    def total(self, f: SuperPoly) -> SuperPoly:
        return _sum(self.sys.alg, (self.l1(f), self.l2(f), self.l3(f)))


def build_brst(sys: ConstraintSystem, degree_cap: int = 4) -> BRSTExtension:
    """Verify the resolution and the two ideal conditions, then return the
    extension; generator-level identities are checked before returning."""
    rep = verify_brst_resolution(sys, cap=degree_cap)
    if not rep["ok"]:
        raise ValueError("resolution data fails verification: %r"
                         % (rep["first_failure"],))
    group = _group_bases(sys, degree_cap)[0].labels
    d0 = _block(sys, degree_cap, "d", 0)
    # the rows of a column are the monomials of that image
    for mono, df, ddf in zip(group, d0.column_rows(),
                             (d0 @ d0).column_rows()):
        if sys.has_constraint_factor(mono) and \
                not in_constraint_ideal(sys, (group[i] for i in df)):
            raise ValueError("d does not preserve the constraint ideal at %s"
                             % (SuperPoly(sys.alg, {mono: 1}),))
        if not in_constraint_ideal(sys, (group[i] for i in ddf)):
            raise ValueError("d^2 escapes the constraint ideal at %s"
                             % (SuperPoly(sys.alg, {mono: 1}),))
    ext = BRSTExtension(sys)
    for name in sys.ps + sys.etas:
        if not ext.l3(sys.gen(name)).is_zero():
            raise ValueError("l3 must vanish on %s" % (name,))
    for name in sys.xs + sys.gs + sys.etas + sys.ps:
        f = sys.gen(name)
        if not ext.total(ext.total(f)).is_zero():
            raise ValueError("total operator fails to square to zero on %s"
                             % (name,))
    return ext


def check_nilpotent_on_basis(ext: BRSTExtension, cap: int):
    """(l1+l2+l3)^2 on every basis monomial, by complexes.verify_nilpotent
    on the chain extension of the delta blocks and the per-monomial images
    of l2 (group k to k) and l3 (group k to k + 1).  Returns the first
    monomial whose column of the square is nonzero, or None; raises when an
    image leaves its target group, naming it.  Only first_failure is read;
    l2 is nonzero only on antighost 0 and 1 and l3 only on antighost 0, so
    on a valid system the two vanishing keys, and ok, hold as well."""
    sys = ext.sys
    # the empty basis past the top group is the target of its l3
    bases = _group_bases(sys, cap)
    sp = GradedSpace([len(b) for b in bases[:-1]])
    l1 = GradedMap(sp, -1, {k: _block(sys, cap, "delta", k)
                            for k in range(1, sys.n + 1)})
    maps = [GradedMap(sp, shift, {
        k: operator_matrix(lambda m: ext._linear(cache, {m: 1}), bases[k],
                           bases[k + shift])
        for k in range(sys.n + 1)})
        for cache, shift in ((ext._l2_cache, 0), (ext._l3_cache, 1))]
    rep = verify_nilpotent(ChainExtension(sp, l1, *maps))
    if rep["first_failure"] is None:
        return None
    k, j = rep["first_failure"][1]
    return bases[k].labels[j]


# -- export to the generic engine ------------------------------------------------

def export_to_complexes(sys: ConstraintSystem, degree_cap: int):
    """Matrices of delta, s, eta, lambda on the capped monomial basis plus the
    l2_0 block (d on antighost 0), as engine data.

    Returns (HomotopyData, l2_0 matrix, bases), one named Basis per antighost
    group.  Raises when an operator output escapes the basis, naming the
    escaping monomial.
    """
    bases = _group_bases(sys, degree_cap)[:-1]
    sp = GradedSpace(list(map(len, bases)))
    l1_blocks = {k: _block(sys, degree_cap, "delta", k)
                 for k in range(1, sys.n + 1)}
    s_blocks = {k: _block(sys, degree_cap, "s", k) for k in range(0, sys.n)}
    # eta projects onto the constraint-free monomials, lambda includes them
    free = Basis([m for m in bases[0].labels
                  if not sys.has_constraint_factor(m)], bases[0].name)
    eta, lam = projection_pair(bases[0], free)
    hd = HomotopyData(sp, GradedMap(sp, -1, l1_blocks), len(free), eta, lam,
                      GradedMap(sp, +1, s_blocks))
    return hd, _block(sys, degree_cap, "d", 0), bases

