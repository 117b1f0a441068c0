"""Truncated t-series and t-linear operators, shared by `bv` and `shlie`.

A `Series` is sum_k c_k t^k mod t^(T+1), each c_k a sparse {label: int or
Fraction} dict.  Its coefficient space is a dimension d (labels 0..d-1) or
a bv.BVModel (labels its monomials); shlie grades X_1 (`ShLieStructure.kmin`).

A `TLinear` is sum_s t^s A_s with shifts s >= 0, so A(x t^k) = t^k A(x) mod
t^(T+1).  Each A_s is a sum of scalar * chain, a chain (f1, ..., fr) being
the composite f1 o ... o fr of coefficient operators that the caller
supplies (the empty chain is the identity).  An operator takes sparse
coefficients and returns a sparse coefficient.  Operators of several
arguments (shlie's cochains) form chains of length one.  Equal chains of
a shift are merged, so equal operators compare equal.  A chain is
evaluated afresh on each application; an operator that is dear to apply
keeps its own images (superalg.Derivation one per monomial).  Scalars are
kept as `exactla.exact` gives them, an integral one as an int, so scaling
an int entry by one stays in ints.  `pair_sum` is the t^m coefficient of
b(c_t, c_t): the deformation equations of `lie` and `bv`, and
`star_resolution` is the engine export of both t-series instances: it
builds their homotopy data and both named (label, t-power) bases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .complexes import GradedMap, GradedSpace, HomotopyData, projection_pair
from .exactla import Basis, add_into, exact, image, operator_matrix, rat


class Series:
    """sum_k c_k t^k mod t^(T+1) with sparse coefficients c_k."""

    __slots__ = ("space", "T", "terms")

    def __init__(self, space, T, coeffs=None):
        """coeffs: T+1 dense coefficients (vectors of length `space`, or
        objects with a `terms` dict); None gives the zero series."""
        if coeffs is None:
            terms = [{} for _ in range(int(T) + 1)]
        elif isinstance(space, int):
            if any(len(c) != space for c in coeffs):
                raise ValueError("coefficient vectors must have length %d"
                                 % space)
            terms = [{i: x for i, x in enumerate(map(rat, c)) if x}
                     for c in coeffs]
        else:
            terms = [dict(c.terms) for c in coeffs]
        if len(terms) != int(T) + 1:
            raise ValueError("need T+1 coefficients")
        self.space, self.T, self.terms = space, int(T), terms

    @classmethod
    def of_terms(cls, space, T, terms):
        """A series over sparse coefficients that nobody changes later."""
        out = cls.__new__(cls)
        out.space, out.T, out.terms = space, T, terms
        return out

    @classmethod
    def basis(cls, space, T, k, label):
        """The series label t^k."""
        if not 0 <= k <= T:
            raise ValueError("t-power %d outside 0..%d" % (k, T))
        if isinstance(space, int) and not 0 <= label < space:
            raise ValueError("basis index %r outside 0..%d" % (label, space - 1))
        terms = [{} for _ in range(T + 1)]
        terms[k] = {label: Fraction(1)}
        return cls.of_terms(space, T, terms)

    def add(self, other):
        if other.T != self.T:
            raise ValueError("truncation mismatch")
        terms = [dict(a) for a in self.terms]
        for acc, b in zip(terms, other.terms):
            add_into(acc, b)
        return Series.of_terms(self.space, self.T, terms)

    def scale(self, c):
        c = rat(c)
        return Series.of_terms(self.space, self.T, [
            {m: c * v for m, v in t.items()} if c else {}
            for t in self.terms])

    def is_zero(self):
        return not any(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.space == other.space
                and self.T == other.T and self.terms == other.terms)

    __hash__ = None

    def flat(self, kmin=0):
        """The nonzero coordinates of a vector series for t-powers kmin..T,
        as a sparse {(k - kmin) * dim + i: value} dict."""
        return {k * self.space + i: x
                for k, t in enumerate(self.terms[kmin:]) for i, x in t.items()
                if x}


def pair_sum(b, m, lo, hi, zero):
    """zero + sum of b(i, m - i) over lo <= i, m - i <= hi: the t^m
    coefficient of b(c_t, c_t) for a series c_t = sum_{lo <= k <= hi} c_k t^k
    and a bilinear b given on coefficient indices."""
    return sum((b(i, m - i) for i in range(max(lo, m - hi),
                                           min(hi, m - lo) + 1)), zero)


def star_resolution(labels, kmin, name):
    """The two-term resolution over the (label, t-power) labels of X_0, X_1
    the starred copies of its labels at t^kmin and up: l1 unstars,
    s = -(star) at t^kmin and up, and F is spanned by the t-powers below
    kmin.  Returns (HomotopyData, (X_0, X_1)), each label named by name."""
    x0 = Basis(labels, name)
    x1 = Basis([b for b in labels if b[1] >= kmin], name)
    f = Basis([b for b in labels if b[1] < kmin])
    sp = GradedSpace([len(x0), len(x1)])
    l1 = GradedMap(sp, -1, {1: operator_matrix(lambda b: image({b: 1}),
                                               x1, x0)})
    s = GradedMap(sp, +1, {0: operator_matrix(
        lambda b: image({b: -1} if b[1] >= kmin else {}), x0, x1)})
    eta, lam = projection_pair(x0, f)
    return HomotopyData(sp, l1, len(f), eta, lam, s), (x0, x1)


def _chain_image(chain, args):
    """The chain's image of args, innermost operator first."""
    out = chain[-1](*args) if chain else args[0]
    for f in reversed(chain[:-1]):
        out = f(out) if out else {}
    return out


class TLinear:
    """sum_s t^s A_s; terms maps each shift s >= 0 to the [(scalar, chain)]
    pairs whose sum is A_s, in canonical form: in a shift each chain occurs
    once, with the sum of its scalars, and no scalar is zero and no shift
    empty.  Equality compares that form, whatever the order of the chains."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        if any(s < 0 for s in terms):
            raise ValueError("a t-linear operator has shifts >= 0")
        self.terms = {}
        for s, pairs in terms.items():
            sums = {}
            for c, ch in pairs:
                ch = tuple(ch)
                sums[ch] = sums.get(ch, 0) + rat(c)
            kept = [(exact(c), ch) for ch, c in sums.items() if c]
            if kept:
                self.terms[s] = kept

    def __eq__(self, other):
        def form(op):
            return {s: {ch: c for c, ch in ps} for s, ps in op.terms.items()}
        return isinstance(other, TLinear) and form(self) == form(other)

    __hash__ = None

    def denominator(self):
        """The lcm of the scalars' denominators: scale by it, and every
        scalar is an int."""
        return image({(s, ch): c for s, pairs in self.terms.items()
                      for c, ch in pairs})[1]

    def scale(self, c):
        return TLinear({s: [(c * a, ch) for a, ch in pairs]
                        for s, pairs in self.terms.items()})

    def __add__(self, other):
        return TLinear({s: self.terms.get(s, []) + other.terms.get(s, [])
                        for s in set(self.terms) | set(other.terms)})

    def compose(self, inner):
        """self o inner: (A o B)_s = sum_{i+j=s} A_j B_i."""
        terms = {}
        for j, outer in self.terms.items():
            for i, pairs in inner.terms.items():
                terms.setdefault(i + j, []).extend(
                    (a * b, ch_a + ch_b) for a, ch_a in outer
                    for b, ch_b in pairs)
        return TLinear(terms)

    def images(self, args, limit):
        """{s: A_s(*args)} for the shifts s <= limit with a nonzero image;
        an identity chain's image is args[0] itself, so the dicts are not
        to be changed."""
        out = {}
        for s, pairs in self.terms.items():
            if s > limit:
                continue
            if len(pairs) == 1 and pairs[0][0] == 1:
                acc = _chain_image(pairs[0][1], args)
            else:
                acc = {}
                for c, chain in pairs:
                    add_into(acc, _chain_image(chain, args), c)
            if acc:
                out[s] = acc
        return out

    def apply(self, *xs):
        """sum of t^(k1+...+kr+s) A_s(c_k1, ..., c_kr) over the nonzero
        coefficients of the arguments, truncated at the first one's T."""
        T = xs[0].T
        out = [{} for _ in range(T + 1)]
        for ks in product(*([k for k, t in enumerate(x.terms) if t]
                            for x in xs)):
            if sum(ks) <= T:
                args = tuple(x.terms[k] for x, k in zip(xs, ks))
                for s, img in self.images(args, T - sum(ks)).items():
                    add_into(out[sum(ks) + s], img)
        return Series.of_terms(xs[0].space, T, out)

    def matrix(self, src, dst, T):
        """Matrix from the Basis src to dst, both labelled (m, k) for the
        series m t^k: each A_s is evaluated once per coefficient label m and
        its image placed at every t-power k + s <= T."""
        cache = {}

        def column(label):
            m, k = label
            if m not in cache:
                cache[m] = self.images(({m: 1},), T)
            return image({(mm, k + s): c for s, img in cache[m].items()
                          if k + s <= T for mm, c in img.items()})
        return operator_matrix(column, src, dst)
