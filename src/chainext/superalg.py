"""Supercommutative polynomial algebra over Q with graded generators.

Generators carry parity, ghost number, antighost degree and a kind tag.
Polynomials are stored as maps from normal-ordered monomials (tuples of
generator indices, ascending; odd indices never repeat) to rational
coefficients, always `Fraction`s.  Reordering into normal form costs the
Koszul sign, one minus sign per transposition of two odd factors.  The
kernels (products, and the one Leibniz kernel of every derivation and
partial derivative) compute with each coefficient as `exactla.exact` gives
it, an integral one as an int, and `SuperPoly` turns the results back into
`Fraction`s, one `rat` per stored coefficient.

`monomials` enumerates the finite monomial bases of `brst` and `bv`.
Provides graded right/left derivations, an even Poisson bracket extended as a
biderivation from a generator table, and the antibracket of field/antifield
pairs.  A derivation fixed by its generator values is one type, `Derivation`,
and `FixedAntibracket`, the derivation (f, .) for a fixed f, is one of them;
`antibracket` applies it once per parity part of f, so the antibracket has
one kernel and takes only a field/antifield pairing.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .exactla import add_into, exact, image, lowest, rat

KINDS = ("x", "G", "eta", "P", "field", "antifield")


class GenSpec:
    """One generator: name, parity (0 even / 1 odd), ghost, antighost, kind."""

    __slots__ = ("name", "parity", "ghost", "antighost", "kind")

    def __init__(self, name, parity, ghost=0, antighost=0, kind="x"):
        if parity in ("even", "odd"):
            parity = 0 if parity == "even" else 1
        if parity not in (0, 1):
            raise ValueError("parity must be even/odd")
        if kind not in KINDS:
            raise ValueError("unknown generator kind %r" % (kind,))
        if antighost < 0:
            raise ValueError("antighost degree must be nonnegative")
        if kind == "eta" and ghost != 1:
            raise ValueError("ghost generators carry ghost number +1")
        if kind == "P" and antighost != 1:
            raise ValueError("antighost generators carry antighost degree 1")
        self.name = name
        self.parity = parity
        self.ghost = int(ghost)
        self.antighost = int(antighost)
        self.kind = kind

    def __repr__(self):
        return "GenSpec(%r, %s)" % (self.name, "odd" if self.parity else "even")


def antifield_of(g: GenSpec) -> GenSpec:
    """The conjugate antifield: opposite parity, ghost -(gh)-1."""
    return GenSpec(g.name + "_st", 1 - g.parity,
                   ghost=-g.ghost - 1, antighost=0, kind="antifield")


class SuperAlgebra:
    """A fixed ordered list of generators; the universe for SuperPoly.  Their
    grading is stored once, in tuples indexed like gens that the kernels and
    degree functions read: `parities`, `ghosts` and `antighosts`."""

    __slots__ = ("gens", "index", "parities", "ghosts", "antighosts")

    def __init__(self, gens):
        self.gens = list(gens)
        self.index = {}
        for i, g in enumerate(self.gens):
            if g.name in self.index:
                raise ValueError("duplicate generator name %r" % (g.name,))
            self.index[g.name] = i
        self.parities = tuple(g.parity for g in self.gens)
        self.ghosts = tuple(g.ghost for g in self.gens)
        self.antighosts = tuple(g.antighost for g in self.gens)

    def __eq__(self, other):
        """Same generator names in the same order, with the same gradings."""
        return self is other or (
            isinstance(other, SuperAlgebra)
            and [g.name for g in self.gens] == [g.name for g in other.gens]
            and (self.parities, self.ghosts, self.antighosts)
            == (other.parities, other.ghosts, other.antighosts))


def monomials(alg: SuperAlgebra, even_degree):
    """Each normal-ordered monomial of alg, in enumeration order, with at
    most even_degree(odd) even factors, odd being its odd factors."""
    evens = [i for i, p in enumerate(alg.parities) if not p]
    odds = [i for i, p in enumerate(alg.parities) if p]
    for k in range(len(odds) + 1):
        for odd in combinations(odds, k):
            for d in range(even_degree(odd) + 1):
                for even in combinations_with_replacement(evens, d):
                    yield tuple(sorted(even + odd))


def _kernel_terms(terms, parities):
    """[(monomial, its odd factors, coefficient)] for the kernels' loops."""
    return [(m, [g for g in m if parities[g]], exact(c))
            for m, c in terms.items()]


def _merge_monomials(m1, odd1, m2, odd2):
    """m1 m2 in normal order: (monomial, Koszul sign), or (None, 0) when an
    odd generator repeats.  odd1 and odd2 list the odd factors of m1 and m2;
    each pair a > b with a from odd1 and b from odd2 is one transposition."""
    sign = 1
    if odd1 and odd2:
        for b in odd2:
            for a in odd1:
                if a > b:
                    sign = -sign
                elif a == b:
                    return None, 0
    return tuple(sorted(m1 + m2)), sign


class SuperPoly:
    """Polynomial in the generators of a SuperAlgebra, exact coefficients."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=None):
        self.alg = alg
        out = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = rat(c)
                if not c:
                    continue
                m = tuple(m)
                if m in out:
                    c += out[m]
                    if not c:
                        del out[m]
                        continue
                out[m] = c
        self.terms = out

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def const(cls, alg, c):
        return cls(alg, {(): rat(c)})

    @classmethod
    def gen(cls, alg, name):
        if name not in alg.index:
            raise KeyError("unknown generator %r" % (name,))
        return cls(alg, {(alg.index[name],): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SuperPoly) and self.alg == other.alg
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        add_into(out, other.terms)
        return SuperPoly(self.alg, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return SuperPoly(self.alg, {m: c * v for m, v in self.terms.items()})

    def monomial_parity(self, m):
        parities = self.alg.parities
        return sum(parities[i] for i in m) % 2

    def parity(self):
        """Parity of a parity-homogeneous polynomial (0 for the zero poly)."""
        ps = {self.monomial_parity(m) for m in self.terms}
        if len(ps) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return ps.pop() if ps else 0

    def ghost(self):
        ghosts = self.alg.ghosts
        gs = {sum(ghosts[i] for i in m) for m in self.terms}
        if len(gs) > 1:
            raise ValueError("polynomial is not ghost-homogeneous")
        return gs.pop() if gs else 0

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "".join(self.alg.gens[i].name for i in m) or "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)


def mul(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    """f g; the kernel sums ints where the coefficients are integral."""
    if f.alg != g.alg:
        raise ValueError("generator-set mismatch")
    parities = f.alg.parities
    g_list = _kernel_terms(g.terms, parities)
    out = {}
    for m1, c1 in f.terms.items():
        odd1 = [k for k in m1 if parities[k]]
        c1 = exact(c1)
        for m2, odd2, c2 in g_list:
            m, sign = _merge_monomials(m1, odd1, m2, odd2)
            if m is None:
                continue
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return SuperPoly(f.alg, out)


def _derive(terms, vals, parity, parities, left=False):
    """D(terms), zeros kept, for the right (with left, the left) derivation
    D of the given parity whose generator values vals holds in kernel form,
    {index: [(monomial, odd factors, coefficient)]}.  On a product D(g1...gk)
    = sum_j +- g1...D(gj)...gk: a right derivation passes the factors after
    gj and a left one those before it, so on each term the two differ by
    (-1)^(parity * parity of the other factors).  The e copies of an even
    factor give e equal terms, as in D(x^e) = e x^(e-1) D(x), so a run is
    taken once, with coefficient e c.  The Koszul sign of rest.v counts,
    for each odd factor b of v, the odd factors of rest above b (bisected)."""
    out = {}
    for m, c in terms.items():
        c = exact(c)
        odd_m = [k for k in m if parities[k]]
        odd_after = len(odd_m)
        prev_idx = None
        for j, idx in enumerate(m):
            if idx == prev_idx:
                continue                    # a later copy of an even factor
            prev_idx = idx
            odd_idx = parities[idx]
            odd_after -= odd_idx            # odd factors of the suffix m[j+1:]
            vs = vals.get(idx)
            if vs is None:
                continue
            rest = m[:j] + m[j + 1:]
            # an odd generator occurs once, an even one m.count(idx) times
            odd_rest = [k for k in odd_m if k != idx] if odd_idx else odd_m
            cj = c if odd_idx else c * m.count(idx)
            n_rest = len(odd_rest)
            if left and parity and n_rest % 2:
                cj = -cj
            for vm, odd_v, vc in vs:
                # rest.vm in normal order; prefix.vm.suffix differs from it
                # by moving vm past the suffix, and D itself passes the suffix
                flip = odd_after % 2 and (parity + len(odd_v)) % 2
                for b in odd_v:
                    i = bisect_left(odd_rest, b)
                    if i < n_rest and odd_rest[i] == b:
                        break               # an odd factor repeats
                    flip ^= (n_rest - i) & 1
                else:
                    mono = tuple(sorted(rest + vm))
                    d = -(cj * vc) if flip else cj * vc
                    prev = out.get(mono)
                    out[mono] = d if prev is None else prev + d
    return out


def _partial(f: SuperPoly, gname, left=False):
    """The terms of the right (with left, the left) derivative of f by the
    generator gname, the derivation of its parity that is 1 on it and 0 on
    the others; each term comes from one term of f, so none is zero."""
    alg = f.alg
    if gname not in alg.index:
        raise KeyError("unknown generator %r" % (gname,))
    i = alg.index[gname]
    return _derive(f.terms, {i: [((), [], 1)]}, alg.parities[i],
                   alg.parities, left)


def right_deriv(f: SuperPoly, gname) -> SuperPoly:
    """Graded derivative of f from the right by one generator."""
    return SuperPoly(f.alg, _partial(f, gname))


def left_deriv(f: SuperPoly, gname) -> SuperPoly:
    """Graded derivative of f from the left by one generator."""
    return SuperPoly(f.alg, _partial(f, gname, left=True))


class Derivation:
    """The graded derivation D of parity `parity` fixed by its generator
    values {name: {monomial: value}} (a missing name maps to zero): a right
    derivation, or a left one with left=True.  The values are stored once,
    as one exact image of exactla split by generator into kernel form:
    `values` is {index: [(monomial, odd factors, int)]} over the denominator
    `den`.  `image` gives D(terms / den) as an exact image, and a call the
    nonzero terms of D(terms), an integral value as an int, in a fresh dict.

    A call sums c * D(m) over the terms c m; each D(m) (times den) is kept
    in `table` from its first use on, so bv's Theorem-8 sweep derives each
    monomial once, and the values must not change after the first call.
    `image` keeps nothing: brst applies delta and d to each monomial at
    most twice, once for its block column and once in BRSTExtension's
    rule."""

    __slots__ = ("parities", "parity", "left", "values", "den", "table")

    def __init__(self, alg, values, parity, left=False):
        self.parities = alg.parities
        self.parity, self.left = parity, left
        for name in values:
            if name not in alg.index:
                raise KeyError("unknown generator %r" % (name,))
        terms, self.den = image({(alg.index[name], m): c
                                 for name, v in values.items()
                                 for m, c in v.items()})
        by_gen = {}
        for (i, m), c in terms.items():
            by_gen.setdefault(i, {})[m] = c
        self.values = {i: _kernel_terms(t, self.parities)
                       for i, t in by_gen.items()}
        self.table = {}

    def image(self, terms, den=1):
        """D(terms / den) as an exact image (terms, den) in lowest terms."""
        return lowest(_derive(terms, self.values, self.parity, self.parities,
                              self.left), den * self.den)

    def __call__(self, terms):
        table, out = self.table, {}
        for m, c in terms.items():
            row = table.get(m)
            if row is None:
                row = table[m] = _derive({m: 1}, self.values, self.parity,
                                         self.parities, self.left)
            c = exact(c)
            if out:
                add_into(out, row, c)
            else:                           # a copy: the row stays as kept
                out = dict(row) if c == 1 else {k: c * v
                                                for k, v in row.items()}
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
        return out if self.den == 1 else {
            m: exact(Fraction(c, self.den)) for m, c in out.items()}


def extend_right_derivation(f: SuperPoly, values, parity) -> SuperPoly:
    """Apply the right derivation defined by generator values to f.

    values maps generator names to SuperPoly (missing names map to zero);
    parity is the derivation's own parity (0 or 1).  On a product the
    operator acts as D(g1...gk) = sum_j +- g1...D(gj)...gk with the sign
    (-1)^(parity * parity(g_{j+1}...gk)).
    """
    d = Derivation(f.alg, {name: v.terms for name, v in values.items()},
                   parity)
    return SuperPoly(f.alg, d(f.terms))


def _canonical_table(alg, table):
    """Expand a generator-pair bracket table to both orderings, validating
    antisymmetry; all bracketed generators must be even (phase variables)."""
    full = {}
    for (u, v), val in table.items():
        for w in (u, v):
            if w not in alg.index:
                raise KeyError("unknown generator %r" % (w,))
            if alg.parities[alg.index[w]]:
                raise ValueError("poisson table only covers even generators")
        if u == v:
            if not val.is_zero():
                raise ValueError("bracket of a generator with itself must vanish")
            continue
        full[(u, v)] = val
        rev = val.scale(-1)
        if (v, u) in table and table[(v, u)] != rev:
            raise ValueError("antisymmetry violated for (%s,%s)" % (v, u))
        full[(v, u)] = rev
    return full


def poisson(f: SuperPoly, g: SuperPoly, table) -> SuperPoly:
    """Biderivation extension of an even generator bracket table.

    Generators absent from the table (ghosts, antighosts) are inert.
    """
    alg = f.alg
    if alg != g.alg:
        raise ValueError("generator-set mismatch")
    full = _canonical_table(alg, table)
    out = SuperPoly.zero(alg)
    for (u, v), val in full.items():
        df = right_deriv(f, u)
        if df.is_zero():
            continue
        dg = right_deriv(g, v)
        if dg.is_zero():
            continue
        out = out + mul(mul(df, dg), val)
    return out


def validate_poisson_table(alg, table) -> dict:
    """The table with both orderings of each pair and no diagonal; raise
    unless it is antisymmetric and satisfies Jacobi on all generator
    triples.

    Once the table is antisymmetric, so is the bracket of any two
    polynomials in the (even) bracketed generators, and the Jacobiator
    J(a,b,c) = [a,[b,c]] + [b,[c,a]] + [c,[a,b]] is then totally
    antisymmetric: it is cyclic by construction and changes sign when two
    arguments swap.  Over Q it vanishes when a name repeats, and every
    ordering of three distinct names fails with the sorted one.  So the
    triples of distinct names in sorted order decide Jacobi, and the first
    of them to fail is the first failing ordered triple.  Each inner
    bracket of two generators is read off the table."""
    full = _canonical_table(alg, table)
    names = sorted({u for (u, _v) in full})
    gens = {u: SuperPoly.gen(alg, u) for u in names}
    for a, b, c in combinations(names, 3):
        s = SuperPoly.zero(alg)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            if (y, z) in full:
                s = s + poisson(gens[x], full[(y, z)], table)
        if not s.is_zero():
            raise ValueError("poisson table fails Jacobi on (%s,%s,%s)"
                             % (a, b, c))
    return full


def antibracket(f: SuperPoly, g: SuperPoly, pairs) -> SuperPoly:
    """(f,g) = sum over pairs of dRf/dphi dLg/dphi* - dRf/dphi* dLg/dphi:
    FixedAntibracket of each parity part of f, applied to g.  The pairs
    must be a field/antifield pairing; others raise ValueError."""
    if f.alg != g.alg:
        raise ValueError("generator-set mismatch")
    parts = ({}, {})
    for m, c in f.terms.items():
        parts[f.monomial_parity(m)][m] = c
    out = {}
    for part in parts:
        add_into(out, FixedAntibracket(SuperPoly(f.alg, part), pairs)(g.terms))
    return SuperPoly(f.alg, out)


class FixedAntibracket(Derivation):
    """g -> (f, g) for one fixed parity-homogeneous f, on monomial dicts.

    (f, .) is a left derivation of parity parity(f) + 1, so its values on the
    generators determine it: (f, phi*) = dRf/dphi and (f, phi) = -dRf/dphi*,
    each a partial derivative of f (`_partial`).  That holds only for a
    field/antifield pairing: each pair of opposite parities and each
    generator in one pair; other pairs raise ValueError."""

    __slots__ = ()

    def __init__(self, f: SuperPoly, pairs):
        alg, parities = f.alg, f.alg.parities
        names = [name for pair in pairs for name in pair]
        for i, (u, v) in enumerate(pairs):
            if parities[alg.index[u]] == parities[alg.index[v]]:
                raise ValueError("pair %s-%s has equal parities" % (u, v))
            if {u, v} & set(names[:2 * i]):
                raise ValueError("pair %s-%s repeats a generator" % (u, v))
        parity = 1 - f.parity()
        values = {}
        for field, anti in pairs:
            d_field = _partial(f, field)
            if d_field:
                values[anti] = d_field
            d_anti = _partial(f, anti)
            if d_anti:
                values[field] = {m: -c for m, c in d_anti.items()}
        super().__init__(alg, values, parity, left=True)
