"""Line-oriented input files shared by all commands.

One family of human-readable formats: `#` starts a comment, blank lines are
skipped, every data line is `key ...: value`, rationals are always written
`p/q` (or a plain integer).  The first data line of a file must be
`kind: <lie|cochain|brst|bv|extend>`.  All indices in files are 1-based.
Parse failures raise FormatError carrying the offending line number.

Every loader reads its file through one loop, `_read`: it checks the kind
line, reads each header key (a count, the arity, the `dims` list) at most
once, and hands every other line in file order to the loader's entry
handler, which may take the lines that follow (an extend matrix's rows).  A
lie file is the 2-cochain file of its bracket: `c i j k` for `a i j k`, with
no arity line, so `load_lie` and `load_cochain` share one entry handler.
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


def _kind_line(lines):
    """(line number, value) of the `kind:` line that must come first in the
    iterator lines of (line number, content) pairs."""
    first = next(lines, None)
    if first is None:
        raise FormatError(1, "empty file")
    key, value = _split_kv(*first)
    if key != "kind":
        raise FormatError(first[0], "first line must be 'kind: ...'")
    return first[0], value


def read_kind(text):
    """The kind that text's first data line declares."""
    return _kind_line(iter(_data_lines(text)))[1]


def _read(text, kind, counts, entry):
    """The one loop of every loader: (line number of the kind line, header).

    The first data line must be `kind: <kind>`.  Each key of counts is a
    header key: it may appear once, and counts[key](lineno, value) reads its
    value into header.  Every other data line goes, in file order, to
    entry(lineno, key, value, header, lines), with the header read so far;
    lines is the loop's own iterator, so a handler may take the lines that
    follow its own (the rows of an extend matrix)."""
    lines = iter(_data_lines(text))
    first, found = _kind_line(lines)
    if found != kind:
        raise FormatError(first, "expected a %r file, got %r" % (kind, found))
    header = {}
    for lineno, line in lines:
        key, value = _split_kv(lineno, line)
        if key not in counts:
            entry(lineno, key, value, header, lines)
        elif key in header:
            raise FormatError(lineno, "duplicate %s" % key)
        else:
            header[key] = counts[key](lineno, value)
    return first, header


def parse_poly(lineno, text, alg) -> SuperPoly:
    """Polynomial literal: terms joined by +/-, each an optional rational
    followed by generator names, e.g. '1/2 x1 G1 - eta1 eta2 + 3'."""
    out = SuperPoly.zero(alg)
    sign, coeff, factors, started, dangling = 1, None, [], False, False

    def flush():
        nonlocal sign, coeff, factors, started, out
        term = SuperPoly.const(alg, (coeff if coeff is not None else 1) * sign)
        for name in factors:
            term = mul(term, SuperPoly.gen(alg, name))
        out = out + term
        sign, coeff, factors, started = 1, None, [], False

    for tok in text.split():
        if tok in ("+", "-"):
            if started:
                flush()
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
        elif tok in alg.index:
            factors.append(tok)
            started = True
        else:
            raise FormatError(lineno, "unknown generator %r" % (tok,))
        dangling = False
    if started:
        flush()
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


# -- lie and cochain ------------------------------------------------------------


def _arity(lineno, text):
    arity = _count(lineno, text)
    if not 1 <= arity <= 3:
        raise FormatError(lineno, "arity must be 1, 2 or 3, got %d" % arity)
    return arity


def _cochain(text, kind, letter, counts):
    """(dim, arity, entries) of a cochain file.  A lie file is the 2-cochain
    file of its bracket, with letter c and no arity line."""
    entries, seen = {}, set()

    def entry(lineno, key, value, header, lines):
        if not key.startswith(letter + " "):
            raise FormatError(lineno, "unknown key %r" % (key,))
        if len(header) < len(counts):
            raise FormatError(lineno, "%s must come first"
                              % " and ".join(counts))
        dim, arity = header["dim"], header.get("arity", 2)
        parts = key.split()
        if len(parts) != arity + 2:
            raise FormatError(lineno, "expected '%s %s k: p/q'" % (
                letter, " ".join("i%d" % d for d in range(1, arity + 1))))
        idx = tuple(_int(lineno, p) for p in parts[1:])
        if list(idx[:-1]) != sorted(set(idx[:-1])) or not all(
                1 <= t <= dim for t in idx):
            raise FormatError(lineno, "indices must be strictly increasing "
                                      "and within 1..dim")
        _once(seen, lineno, idx,
              "entry %s %s" % (letter, " ".join(map(str, idx))))
        v = entries.setdefault(tuple(t - 1 for t in idx[:-1]), [rat(0)] * dim)
        v[idx[-1] - 1] = _rat(lineno, value)

    first, header = _read(text, kind, counts, entry)
    if len(header) < len(counts):
        raise FormatError(first, "missing " + " or ".join(counts))
    return header["dim"], header.get("arity", 2), entries


def load_lie(text) -> LieAlgebra:
    dim, _, entries = _cochain(text, "lie", "c", {"dim": _count})
    return LieAlgebra(dim, entries)


def load_cochain(text) -> Cochain:
    return Cochain(*_cochain(text, "cochain", "a",
                             {"dim": _count, "arity": _arity}))


# -- brst -----------------------------------------------------------------------


def load_brst(text):
    """(m, n, poisson_table, structure) ready for ConstraintSystem.  The m
    and n lines come before every entry, so each entry is read at its own
    line.  A bracket that involves a ghost or antighost, a nonzero bracket
    of a generator with itself and a structure function with an odd factor
    are rejected at their lines, with ConstraintSystem's texts."""
    table, structure, seen, alg = {}, {}, set(), None

    def entry(lineno, key, value, header, lines):
        nonlocal alg
        parts = key.split()
        if parts[:1] + [len(parts)] not in (["p", 3], ["s", 4]):
            raise FormatError(lineno, "unknown key %r" % (key,))
        if len(header) < 2:
            raise FormatError(lineno, "m and n must come first")
        n = header["n"]
        if alg is None:
            alg = constraint_algebra(header["m"], n)
        if parts[0] == "p":
            for name in parts[1:]:
                if name not in alg.index:
                    raise FormatError(lineno, "unknown generator %r" % (name,))
                if alg.parities[alg.index[name]]:
                    raise FormatError(lineno, "poisson table only covers "
                                              "even generators")
            pair = (parts[1], parts[2])
            _once(seen, lineno, frozenset(pair),
                  "bracket for %s, %s" % pair)
            table[pair] = parse_poly(lineno, value, alg)
            if pair[0] == pair[1] and not table[pair].is_zero():
                raise FormatError(lineno, "bracket of a generator with "
                                          "itself must vanish")
        else:
            a, b, c = (_int(lineno, p) for p in parts[1:])
            if not (1 <= a < b <= n and 1 <= c <= n):
                raise FormatError(lineno, "need 1 <= a < b <= n, 1 <= c <= n")
            _once(seen, lineno, (a, b, c), "structure function")
            vals = structure.setdefault(
                (a - 1, b - 1), [SuperPoly.zero(alg) for _ in range(n)])
            vals[c - 1] = parse_poly(lineno, value, alg)
            if any(alg.parities[i] for mono in vals[c - 1].terms
                   for i in mono):
                raise FormatError(lineno, "structure functions must be "
                                          "polynomials in (x, G)")

    first, header = _read(text, "brst", {"m": _count, "n": _count}, entry)
    if len(header) < 2:
        raise FormatError(first, "missing m or n")
    return header["m"], header["n"], table, structure


# -- bv -------------------------------------------------------------------------


def load_bv(text):
    """(model, S_terms, trunc) where S_terms entries are SuperPoly or 'auto'."""
    fields, s_raw, seen = [], {}, set()

    def entry(lineno, key, value, header, lines):
        if key.startswith("field "):
            name = key.split(None, 1)[1]
            bits = value.split()
            if len(bits) != 2 or bits[0] not in ("even", "odd"):
                raise FormatError(lineno, "expected 'field NAME: even|odd GH'")
            # the field and its antifield NAME_st are both generators
            for gen in (name, name + "_st"):
                _once(seen, lineno, ("gen", gen), "generator name %r" % gen)
            fields.append(GenSpec(name, bits[0], ghost=_int(lineno, bits[1]),
                                  kind="field"))
        elif re.fullmatch(r"S\d+", key):
            i = int(key[1:])
            _once(seen, lineno, i, "S%d" % i)
            if i == 0 and value == "auto":
                raise FormatError(lineno, "S0 cannot be 'auto'")
            s_raw[i] = (lineno, value)
        else:
            raise FormatError(lineno, "unknown key %r" % (key,))

    first, header = _read(text, "bv", {"cap": _count, "trunc": _count}, entry)
    if not fields:
        raise FormatError(first, "no fields declared")
    if sorted(s_raw) != list(range(len(s_raw))) or 0 not in s_raw:
        raise FormatError(first, "need consecutive S0, S1, ... entries")
    model = BVModel(fields, cap=header.get("cap", 6))
    S_terms = [v if v == "auto" else parse_poly(lineno, v, model.alg)
               for _, (lineno, v) in sorted(s_raw.items())]
    return model, S_terms, header.get("trunc")


# -- extend ---------------------------------------------------------------------


def _dims(lineno, text):
    """The dimension of each degree of an extend complex: at least one, and
    not all zero, since an empty complex would pass every check."""
    dims = [_count(lineno, b) for b in text.split()]
    if not dims:
        raise FormatError(lineno, "dims must list at least one dimension")
    if not any(dims):
        raise FormatError(lineno, "dims must not all be zero")
    return dims


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
    blocks = {}

    def entry(lineno, key, value, header, lines):
        parts = key.split()
        shape = value.split()
        if parts[:1] != ["matrix"]:
            raise FormatError(lineno, "unknown key %r" % (key,))
        if len(shape) != 2 or len(parts) < 2:
            raise FormatError(lineno, "expected 'matrix NAME [k]: rows cols'")
        nrows, ncols = _count(lineno, shape[0]), _count(lineno, shape[1])
        name = " ".join(parts[1:])
        if name in blocks:
            raise FormatError(lineno, "duplicate matrix %r" % (name,))
        # a block with no columns has no row lines
        rows = [] if ncols else [[]] * nrows
        for _ in range(nrows if ncols else 0):
            row = next(lines, None)
            if row is None:
                raise FormatError(lineno, "matrix %r is truncated" % (name,))
            rlineno, cells = row[0], row[1].split()
            if len(cells) != ncols:
                raise FormatError(rlineno, "expected %d entries" % ncols)
            # most cells of an exported block are "0"; they skip Fraction
            rows.append([0 if c == "0" else _rat(rlineno, c) for c in cells])
        blocks[name] = (lineno, RatMatrix(rows, ncols=ncols))

    first, header = _read(text, "extend", {"dims": _dims, "f_dim": _count},
                          entry)
    if len(header) < 2:
        raise FormatError(first, "missing dims or f_dim")
    sp, f_dim = GradedSpace(header["dims"]), header["f_dim"]
    n0 = sp.dim(0)
    shapes = {"eta": (f_dim, n0), "lam": (n0, f_dim), "l2_0": (n0, n0),
              "d_f": (f_dim, f_dim)}
    l1_blocks, s_blocks = {}, {}
    for name, (lineno, mat) in blocks.items():
        parts = name.split()
        if parts[0] == "l1" and len(parts) == 2:
            k = _degree(lineno, name, parts[1], 1, sp.top)
            want, l1_blocks[k] = (sp.dim(k - 1), sp.dim(k)), mat
        elif parts[0] == "s" and len(parts) == 2:
            k = _degree(lineno, name, parts[1], 0, sp.top - 1)
            want, s_blocks[k] = (sp.dim(k + 1), sp.dim(k)), mat
        elif name in shapes:
            want = shapes[name]
        else:
            raise FormatError(lineno, "unknown matrix %r" % (name,))
        if mat.shape != want:
            raise FormatError(lineno, "matrix %r has shape %dx%d, expected %dx%d"
                              % ((name,) + mat.shape + want))
    eta, lam, l2_0, d_f = (blocks.get(name, (0, None))[1] for name in shapes)
    if eta is None or lam is None or l2_0 is None:
        raise FormatError(first, "missing eta, lam or l2_0")
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
