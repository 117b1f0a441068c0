"""Line-oriented input files shared by all commands.

One family of human-readable formats: `#` starts a comment, blank lines are
skipped, every data line is `key ...: value`, rationals are always written
`p/q` (or a plain integer).  The first data line of a file must be
`kind: <lie|cochain|brst|bv|extend>`.  All indices in files are 1-based.
Parse failures raise FormatError carrying the offending line number.
"""

from __future__ import annotations

import re

from .brst import constraint_algebra
from .bv import BVModel
from .complexes import GradedMap, GradedSpace, HomotopyData
from .exactla import RATIONAL, RatMatrix, rat
from .lie import Cochain, LieAlgebra
from .superalg import GenSpec, SuperPoly, mul


class FormatError(ValueError):
    def __init__(self, line, message):
        self.line = line
        if line > 0:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


def _data_lines(text):
    """(line_number, content) pairs with comments and blanks removed."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _split_kv(lineno, line):
    if ":" not in line:
        raise FormatError(lineno, "expected 'key: value'")
    key, value = line.split(":", 1)
    return key.strip(), value.strip()


def _rat(lineno, text):
    """An integer or p/q as a rational; 0.5, 1e3 or 1/0 is a format error."""
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(lineno, "bad rational %r" % (text,))


def _int(lineno, text):
    try:
        return int(text)
    except ValueError:
        raise FormatError(lineno, "bad integer %r" % (text,))


def _once(seen, lineno, key, what=None):
    """Record key in seen; a key already there is repeated at lineno."""
    if key in seen:
        raise FormatError(lineno, "duplicate %s" % (what or key))
    seen.add(key)


def _count(lineno, text):
    n = _int(lineno, text)
    if n < 0:
        raise FormatError(lineno, "expected a nonnegative integer, got %d" % n)
    return n


def read_kind(text):
    lines = _data_lines(text)
    if not lines:
        raise FormatError(1, "empty file")
    lineno, first = lines[0]
    key, value = _split_kv(lineno, first)
    if key != "kind":
        raise FormatError(lineno, "first line must be 'kind: ...'")
    return value


def parse_poly(lineno, text, alg) -> SuperPoly:
    """Polynomial literal: terms joined by +/-, each an optional rational
    followed by generator names, e.g. '1/2 x1 G1 - eta1 eta2 + 3'."""
    names = {g.name for g in alg.gens}
    if text == "0":
        return SuperPoly.zero(alg)
    out = SuperPoly.zero(alg)
    sign, coeff, factors, started, dangling = 1, None, [], False, False

    def flush(ln):
        nonlocal sign, coeff, factors, started, out
        if not started:
            raise FormatError(ln, "empty term in polynomial")
        term = SuperPoly.const(alg, (coeff if coeff is not None else 1) * sign)
        for name in factors:
            term = mul(term, SuperPoly.gen(alg, name))
        out = out + term
        sign, coeff, factors, started = 1, None, [], False

    for tok in text.split():
        if tok in ("+", "-"):
            if started:
                flush(lineno)
            if tok == "-":
                sign = -sign
            dangling = True
            continue
        if RATIONAL.fullmatch(tok):
            if coeff is not None or factors:
                raise FormatError(lineno,
                                  "coefficient must come first in a term")
            coeff = _rat(lineno, tok)
            started = True
        elif tok in names:
            factors.append(tok)
            started = True
        else:
            raise FormatError(lineno, "unknown generator %r" % (tok,))
        dangling = False
    if started:
        flush(lineno)
    elif dangling:
        raise FormatError(lineno, "dangling sign in polynomial")
    return out


def format_poly(p: SuperPoly) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for m, c in sorted(p.terms.items()):
        names = " ".join(p.alg.gens[i].name for i in m)
        body = ("%s %s" % (c, names)).strip() if c != 1 or not names \
            else names
        bits.append(body)
    return " + ".join(bits)


# -- lie ------------------------------------------------------------------------


def load_lie(text) -> LieAlgebra:
    lines = _data_lines(text)
    dim, entries, seen = None, {}, set()
    for lineno, line in lines[1:]:
        key, value = _split_kv(lineno, line)
        if key == "dim":
            _once(seen, lineno, key)
            dim = _count(lineno, value)
        elif key.startswith("c "):
            if dim is None:
                raise FormatError(lineno, "dim must come before entries")
            parts = key.split()
            if len(parts) != 4:
                raise FormatError(lineno, "expected 'c i j k: p/q'")
            i, j, k = (_int(lineno, p) for p in parts[1:])
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise FormatError(lineno, "indices out of range (need "
                                          "1 <= i < j <= dim)")
            _once(seen, lineno, (i, j, k), "entry c %d %d %d" % (i, j, k))
            v = entries.setdefault((i - 1, j - 1), [rat(0)] * dim)
            v[k - 1] = _rat(lineno, value)
        else:
            raise FormatError(lineno, "unknown key %r" % (key,))
    if dim is None:
        raise FormatError(lines[0][0], "missing dim")
    return LieAlgebra(dim, entries)


def load_cochain(text) -> Cochain:
    lines = _data_lines(text)
    dim = arity = None
    entries, seen = {}, set()
    for lineno, line in lines[1:]:
        key, value = _split_kv(lineno, line)
        if key in ("dim", "arity"):
            _once(seen, lineno, key)
        if key == "dim":
            dim = _count(lineno, value)
        elif key == "arity":
            arity = _count(lineno, value)
            if not 1 <= arity <= 3:
                raise FormatError(lineno, "arity must be 1, 2 or 3, got %d"
                                  % arity)
        elif key.startswith("a "):
            if dim is None or arity is None:
                raise FormatError(lineno, "dim and arity must come first")
            parts = key.split()
            if len(parts) != arity + 2:
                raise FormatError(lineno, "expected 'a %s k: p/q'"
                                  % " ".join("i%d" % d for d in range(1, arity + 1)))
            idx = tuple(_int(lineno, p) for p in parts[1:-1])
            k = _int(lineno, parts[-1])
            if list(idx) != sorted(set(idx)) or not all(
                    1 <= t <= dim for t in idx) or not 1 <= k <= dim:
                raise FormatError(lineno, "indices must be strictly increasing "
                                          "and within 1..dim")
            _once(seen, lineno, (idx, k), "entry")
            v = entries.setdefault(tuple(t - 1 for t in idx), [rat(0)] * dim)
            v[k - 1] = _rat(lineno, value)
        else:
            raise FormatError(lineno, "unknown key %r" % (key,))
    if dim is None or arity is None:
        raise FormatError(lines[0][0], "missing dim or arity")
    return Cochain(dim, arity, entries)


# -- brst -----------------------------------------------------------------------


def load_brst(text):
    """(m, n, poisson_table, structure) ready for ConstraintSystem."""
    lines = _data_lines(text)
    m = n = None
    raw, seen = [], set()
    for lineno, line in lines[1:]:
        key, value = _split_kv(lineno, line)
        if key in ("m", "n"):
            _once(seen, lineno, key)
        if key == "m":
            m = _count(lineno, value)
        elif key == "n":
            n = _count(lineno, value)
        else:
            raw.append((lineno, key, value))
    if m is None or n is None:
        raise FormatError(lines[0][0], "missing m or n")
    alg = constraint_algebra(m, n)
    table, structure = {}, {}
    for lineno, key, value in raw:
        parts = key.split()
        if len(parts) == 3 and parts[0] == "p":
            for name in parts[1:]:
                if name not in alg.index:
                    raise FormatError(lineno, "unknown generator %r" % (name,))
            pair = (parts[1], parts[2])
            _once(seen, lineno, frozenset(pair),
                   "bracket for %s, %s" % pair)
            table[pair] = parse_poly(lineno, value, alg)
        elif len(parts) == 4 and parts[0] == "s":
            a, b, c = (_int(lineno, p) for p in parts[1:])
            if not (1 <= a < b <= n and 1 <= c <= n):
                raise FormatError(lineno, "need 1 <= a < b <= n, 1 <= c <= n")
            _once(seen, lineno, (a, b, c), "structure function")
            vals = structure.setdefault(
                (a - 1, b - 1), [SuperPoly.zero(alg) for _ in range(n)])
            vals[c - 1] = parse_poly(lineno, value, alg)
        else:
            raise FormatError(lineno, "unknown key %r" % (key,))
    return m, n, table, structure


# -- bv -------------------------------------------------------------------------


def load_bv(text):
    """(model, S_terms, trunc) where S_terms entries are SuperPoly or 'auto'."""
    lines = _data_lines(text)
    fields, s_raw, seen = [], {}, set()
    trunc, cap = None, 6
    for lineno, line in lines[1:]:
        key, value = _split_kv(lineno, line)
        if key in ("cap", "trunc"):
            _once(seen, lineno, key)
        if key == "cap":
            cap = _count(lineno, value)
        elif key == "trunc":
            trunc = _count(lineno, value)
        elif key.startswith("field "):
            name = key.split(None, 1)[1]
            bits = value.split()
            if len(bits) != 2 or bits[0] not in ("even", "odd"):
                raise FormatError(lineno, "expected 'field NAME: even|odd GH'")
            # the field and its antifield NAME_st are both generators
            for gen in (name, name + "_st"):
                _once(seen, lineno, ("gen", gen), "generator name %r" % gen)
            fields.append((lineno, GenSpec(name, bits[0],
                                           ghost=_int(lineno, bits[1]),
                                           kind="field")))
        elif re.fullmatch(r"S\d+", key):
            i = int(key[1:])
            _once(seen, lineno, i, "S%d" % i)
            s_raw[i] = (lineno, value)
        else:
            raise FormatError(lineno, "unknown key %r" % (key,))
    if not fields:
        raise FormatError(lines[0][0], "no fields declared")
    if sorted(s_raw) != list(range(len(s_raw))) or 0 not in s_raw:
        raise FormatError(lines[0][0], "need consecutive S0, S1, ... entries")
    model = BVModel([f for _, f in fields], cap=cap)
    S_terms = []
    for i in range(len(s_raw)):
        lineno, value = s_raw[i]
        if value == "auto":
            if i == 0:
                raise FormatError(lineno, "S0 cannot be 'auto'")
            S_terms.append("auto")
        else:
            S_terms.append(parse_poly(lineno, value, model.alg))
    return model, S_terms, trunc


# -- extend ---------------------------------------------------------------------


def _degree(lineno, name, text, lo, hi):
    """The source degree of an l1/s block; both ends of the map must lie in
    the complex, so it must be in lo..hi."""
    k = _int(lineno, text)
    if not lo <= k <= hi:
        raise FormatError(lineno, "matrix %r lies outside the complex "
                                  "(degree must be in %d..%d)" % (name, lo, hi))
    return k


def load_extend(text):
    """(HomotopyData, l2_0, d_f) from a matrix-block file."""
    lines = _data_lines(text)
    dims = f_dim = None
    blocks, seen = {}, set()
    pos = 1
    while pos < len(lines):
        lineno, line = lines[pos]
        key, value = _split_kv(lineno, line)
        if key in ("dims", "f_dim"):
            _once(seen, lineno, key)
        if key == "dims":
            dims = [_count(lineno, b) for b in value.split()]
            pos += 1
        elif key == "f_dim":
            f_dim = _count(lineno, value)
            pos += 1
        elif key.startswith("matrix"):
            parts = key.split()
            shape = value.split()
            if len(shape) != 2 or len(parts) < 2:
                raise FormatError(lineno, "expected 'matrix NAME [k]: rows cols'")
            nrows, ncols = _count(lineno, shape[0]), _count(lineno, shape[1])
            name = " ".join(parts[1:])
            if name in blocks:
                raise FormatError(lineno, "duplicate matrix %r" % (name,))
            # a block with no columns has no row lines
            nlines = nrows if ncols else 0
            rows = [] if ncols else [[]] * nrows
            for r in range(nlines):
                if pos + 1 + r >= len(lines):
                    raise FormatError(lineno, "matrix %r is truncated" % (name,))
                rlineno, rline = lines[pos + 1 + r]
                cells = rline.split()
                if len(cells) != ncols:
                    raise FormatError(rlineno, "expected %d entries" % ncols)
                # most cells of an exported block are "0"; they skip Fraction
                rows.append([0 if c == "0" else _rat(rlineno, c)
                             for c in cells])
            blocks[name] = (lineno, RatMatrix(rows, ncols=ncols))
            pos += 1 + nlines
        else:
            raise FormatError(lineno, "unknown key %r" % (key,))
    if dims is None or f_dim is None:
        raise FormatError(lines[0][0], "missing dims or f_dim")
    sp = GradedSpace(dims)
    n0 = sp.dim(0)
    l1_blocks, s_blocks = {}, {}
    eta = lam = l2_0 = d_f = None
    for name, (lineno, mat) in blocks.items():
        parts = name.split()
        if parts[0] == "l1" and len(parts) == 2:
            k = _degree(lineno, name, parts[1], 1, sp.top)
            want, l1_blocks[k] = (sp.dim(k - 1), sp.dim(k)), mat
        elif parts[0] == "s" and len(parts) == 2:
            k = _degree(lineno, name, parts[1], 0, sp.top - 1)
            want, s_blocks[k] = (sp.dim(k + 1), sp.dim(k)), mat
        elif name == "eta":
            want, eta = (f_dim, n0), mat
        elif name == "lam":
            want, lam = (n0, f_dim), mat
        elif name == "l2_0":
            want, l2_0 = (n0, n0), mat
        elif name == "d_f":
            want, d_f = (f_dim, f_dim), mat
        else:
            raise FormatError(lineno, "unknown matrix %r" % (name,))
        if mat.shape != want:
            raise FormatError(lineno, "matrix %r has shape %dx%d, expected %dx%d"
                              % ((name,) + mat.shape + want))
    if eta is None or lam is None or l2_0 is None:
        raise FormatError(lines[0][0], "missing eta, lam or l2_0")
    hd = HomotopyData(sp, GradedMap(sp, -1, l1_blocks), f_dim, eta, lam,
                      GradedMap(sp, +1, s_blocks))
    return hd, l2_0, d_f


def dump_extend(hd: HomotopyData, l2_0: RatMatrix,
                d_f: RatMatrix | None) -> str:
    """Canonical text for an extend file (inverse of load_extend)."""
    sp = hd.space
    out = ["kind: extend",
           "dims: " + " ".join(str(d) for d in sp.dims),
           "f_dim: %d" % hd.f_dim]

    def block(name, mat):
        out.append("matrix %s: %d %d" % (name, mat.nrows, mat.ncols))
        if mat.ncols:
            for row in mat.rows:
                out.append(" ".join(str(c) for c in row))

    for k in range(1, len(sp.dims)):
        block("l1 %d" % k, hd.l1.block(k))
    block("eta", hd.eta)
    block("lam", hd.lam)
    for k in range(len(sp.dims) - 1):
        block("s %d" % k, hd.s.block(k))
    block("l2_0", l2_0)
    if d_f is not None:
        block("d_f", d_f)
    return "\n".join(out) + "\n"
