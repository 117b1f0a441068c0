"""Supercommutative polynomial algebra over Q with graded generators.

Generators carry parity, ghost number, antighost degree and a kind tag.
Polynomials are stored as maps from normal-ordered monomials (tuples of
generator indices, ascending; odd indices never repeat) to rational
coefficients.  Reordering into normal form costs the Koszul sign, one minus
sign per transposition of two odd factors.

Provides graded right/left derivations, an even Poisson bracket extended as a
biderivation from a generator table, and the antibracket of field/antifield
pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import rat

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


def antifield_of(g: GenSpec, name=None) -> GenSpec:
    """The conjugate antifield: opposite parity, ghost -(gh)-1."""
    return GenSpec(name or (g.name + "_st"), 1 - g.parity,
                   ghost=-g.ghost - 1, antighost=0, kind="antifield")


class SuperAlgebra:
    """A fixed ordered list of generators; the universe for SuperPoly."""

    __slots__ = ("gens", "index")

    def __init__(self, gens):
        self.gens = list(gens)
        self.index = {}
        for i, g in enumerate(self.gens):
            if g.name in self.index:
                raise ValueError("duplicate generator name %r" % (g.name,))
            self.index[g.name] = i

    def parity(self, i):
        return self.gens[i].parity

    def __eq__(self, other):
        return self is other or (isinstance(other, SuperAlgebra)
                                 and [g.name for g in self.gens] ==
                                 [g.name for g in other.gens])


def _merge_monomials(m1, m2, parities):
    """Merge two normal-ordered monomials; return (monomial, sign) or (None, 0)
    when an odd generator repeats."""
    out = []
    sign = 1
    i = j = 0
    odd_left = sum(parities[g] for g in m1)  # odd factors of m1 not yet emitted
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a <= b:
            odd_left -= parities[a]
            out.append(a)
            i += 1
            if a == b and parities[a]:
                return None, 0
        else:
            if parities[b] and odd_left % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    # an odd repeat can also appear at the seam just emitted
    for k in range(len(out) - 1):
        if out[k] == out[k + 1] and parities[out[k]]:
            return None, 0
    return tuple(out), sign


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
        for m, c in other.terms.items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
        return SuperPoly(self.alg, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return SuperPoly(self.alg, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        return mul(self, other)

    def monomial_parity(self, m):
        return sum(self.alg.gens[i].parity for i in m) % 2

    def parity(self):
        """Parity of a parity-homogeneous polynomial (0 for the zero poly)."""
        ps = {self.monomial_parity(m) for m in self.terms}
        if len(ps) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return ps.pop() if ps else 0

    def ghost(self):
        gs = {sum(self.alg.gens[i].ghost for i in m) for m in self.terms}
        if len(gs) > 1:
            raise ValueError("polynomial is not ghost-homogeneous")
        return gs.pop() if gs else 0

    def antighost(self):
        gs = {sum(self.alg.gens[i].antighost for i in m) for m in self.terms}
        if len(gs) > 1:
            raise ValueError("polynomial is not antighost-homogeneous")
        return gs.pop() if gs else 0

    def split_terms(self):
        """One single-monomial SuperPoly per stored term."""
        return [SuperPoly(self.alg, {m: c}) for m, c in sorted(self.terms.items())]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "".join(self.alg.gens[i].name for i in m) or "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)


def _mul_into(out, f_terms, g_terms, parities, negate=False):
    """Add f g (or -f g when negate) into the monomial dict out."""
    for m1, c1 in f_terms.items():
        if negate:
            c1 = -c1
        for m2, c2 in g_terms.items():
            m, sign = _merge_monomials(m1, m2, parities)
            if m is None:
                continue
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            prev = out.get(m)
            out[m] = c if prev is None else prev + c


def mul(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    if f.alg != g.alg:
        raise ValueError("generator-set mismatch")
    out = {}
    _mul_into(out, f.terms, g.terms, [gen.parity for gen in f.alg.gens])
    return SuperPoly(f.alg, out)


def right_deriv(f: SuperPoly, gname) -> SuperPoly:
    """Graded derivation from the right with respect to one generator."""
    alg = f.alg
    if gname not in alg.index:
        raise KeyError("unknown generator %r" % (gname,))
    gi = alg.index[gname]
    gp = alg.gens[gi].parity
    out = {}
    for m, c in f.terms.items():
        for j, idx in enumerate(m):
            if idx != gi:
                continue
            suffix_parity = sum(alg.gens[k].parity for k in m[j + 1:]) % 2
            d = -c if (gp and suffix_parity) else c
            mm = m[:j] + m[j + 1:]
            prev = out.get(mm)
            out[mm] = d if prev is None else prev + d
    return SuperPoly(alg, out)


def left_deriv(f: SuperPoly, gname) -> SuperPoly:
    alg = f.alg
    if gname not in alg.index:
        raise KeyError("unknown generator %r" % (gname,))
    gi = alg.index[gname]
    gp = alg.gens[gi].parity
    out = {}
    for m, c in f.terms.items():
        for j, idx in enumerate(m):
            if idx != gi:
                continue
            prefix_parity = sum(alg.gens[k].parity for k in m[:j]) % 2
            d = -c if (gp and prefix_parity) else c
            mm = m[:j] + m[j + 1:]
            prev = out.get(mm)
            out[mm] = d if prev is None else prev + d
    return SuperPoly(alg, out)


def extend_right_derivation(f: SuperPoly, values, parity) -> SuperPoly:
    """Apply the right derivation defined by generator values to f.

    values maps generator names to SuperPoly (missing names map to zero);
    parity is the derivation's own parity (0 or 1).  On a product the
    operator acts as D(g1...gk) = sum_j +- g1...D(gj)...gk with the sign
    (-1)^(parity * parity(g_{j+1}...gk)).
    """
    alg = f.alg
    parities = [gen.parity for gen in alg.gens]
    vals = {}
    for name, v in values.items():
        if name not in alg.index:
            raise KeyError("unknown generator %r" % (name,))
        if not v.is_zero():
            vals[alg.index[name]] = v.terms
    out = {}
    for m, c in f.terms.items():
        for j, idx in enumerate(m):
            if idx not in vals:
                continue
            prefix, suffix = m[:j], m[j + 1:]
            odd_suffix = sum(parities[k] for k in suffix) % 2
            c_j = -c if (parity and odd_suffix) else c
            # prefix . value . suffix, with the Koszul sign of each merge
            for vm, vc in vals[idx].items():
                left, s1 = _merge_monomials(prefix, vm, parities)
                if left is None:
                    continue
                mono, s2 = _merge_monomials(left, suffix, parities)
                if mono is None:
                    continue
                d = c_j * vc if s1 == s2 else -(c_j * vc)
                prev = out.get(mono)
                out[mono] = d if prev is None else prev + d
    return SuperPoly(alg, out)


def _canonical_table(alg, table):
    """Expand a generator-pair bracket table to both orderings, validating
    antisymmetry; all bracketed generators must be even (phase variables)."""
    full = {}
    for (u, v), val in table.items():
        for w in (u, v):
            if w not in alg.index:
                raise KeyError("unknown generator %r" % (w,))
            if alg.gens[alg.index[w]].parity:
                raise ValueError("poisson table only covers even generators")
        if u == v:
            if not val.is_zero():
                raise ValueError("bracket of a generator with itself must vanish")
            continue
        if (u, v) in full and full[(u, v)] != val:
            raise ValueError("antisymmetry violated for (%s,%s)" % (u, v))
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


def validate_poisson_table(alg, table) -> None:
    """Raise unless the table is antisymmetric and satisfies Jacobi on all
    generator triples."""
    full = _canonical_table(alg, table)
    names = sorted({u for (u, _v) in full})
    gens = {u: SuperPoly.gen(alg, u) for u in names}
    for a in names:
        for b in names:
            for c in names:
                s = poisson(gens[a], poisson(gens[b], gens[c], table), table)
                s = s + poisson(gens[b], poisson(gens[c], gens[a], table), table)
                s = s + poisson(gens[c], poisson(gens[a], gens[b], table), table)
                if not s.is_zero():
                    raise ValueError("poisson table fails Jacobi on (%s,%s,%s)"
                                     % (a, b, c))


def right_derivs(f: SuperPoly, pairs):
    """[(dRf/dphi, dRf/dphi*) for each (phi, phi*) in pairs]: the left
    factors of every antibracket (f, .)."""
    return [(right_deriv(f, field), right_deriv(f, anti))
            for field, anti in pairs]


def left_derivs(g: SuperPoly, pairs):
    """[(dLg/dphi, dLg/dphi*) for each (phi, phi*) in pairs]: the right
    factors of every antibracket (., g)."""
    return [(left_deriv(g, field), left_deriv(g, anti))
            for field, anti in pairs]


def antibracket(f: SuperPoly, g: SuperPoly, pairs, f_derivs=None,
                g_derivs=None) -> SuperPoly:
    """(f,g) = sum over pairs of dRf/dphi dLg/dphi* - dRf/dphi* dLg/dphi.

    f_derivs, when given, is right_derivs(f, pairs), and g_derivs is
    left_derivs(g, pairs); a caller that brackets one fixed f with many g,
    or many f with one g, computes the table once.
    """
    alg = f.alg
    if alg != g.alg:
        raise ValueError("generator-set mismatch")
    for field, anti in pairs:
        for w in (field, anti):
            if w not in alg.index:
                raise KeyError("unknown generator %r" % (w,))
    if f_derivs is None:
        f_derivs = right_derivs(f, pairs)
    if g_derivs is None:
        g_derivs = [(None, None)] * len(pairs)
    parities = [gen.parity for gen in alg.gens]
    out = {}
    for (field, anti), (df_field, df_anti), (dg_field, dg_anti) in zip(
            pairs, f_derivs, g_derivs, strict=True):
        if df_field.terms:
            if dg_anti is None:
                dg_anti = left_deriv(g, anti)
            _mul_into(out, df_field.terms, dg_anti.terms, parities)
        if df_anti.terms:
            if dg_field is None:
                dg_field = left_deriv(g, field)
            _mul_into(out, df_anti.terms, dg_field.terms, parities,
                      negate=True)
    return SuperPoly(alg, out)
