"""Randomized-but-exact test instances for the chain-extension engine.

Instances are built in a split basis where the homotopy identities hold by
construction, then moved to a random basis by unimodular changes of basis,
so the matrices look generic while staying exact over Q.  Each change of
basis P is a list of elementary integer operations; P @ M and M @ P^-1 are
those operations applied straight to the sparse integer rows of M, with no
matrix P formed and no product taken.  The degree-zero operator is built so
that the three extension conditions hold, with its induced differential on F
returned alongside.
"""

from __future__ import annotations

import random

from .exactla import RatMatrix
from .complexes import GradedSpace, GradedMap, HomotopyData


def _elementary_ops(rng: random.Random, n: int, steps: int):
    ops = []
    for _ in range(steps):
        kind = rng.choice(("add", "add", "add", "swap", "neg"))
        if n < 2 and kind != "neg":
            kind = "neg"
        if kind == "add":
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            ops.append(("add", i, j, c))
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            ops.append(("swap", i, j, 0))
        else:
            i = rng.randrange(n)
            ops.append(("neg", i, 0, 0))
    return ops


def _basis_change(rng: random.Random, n: int):
    """The elementary operations of one random unimodular n x n matrix P:
    P is their product, the first one applied first (none when n == 0)."""
    return _elementary_ops(rng, n, steps=max(2, 2 * n)) if n else []


def _row_ops(rows, ops):
    """P @ M, in place on M's {col: int} rows: each operation of P, in
    order, as a row operation (add (i, j, c): row j += c * row i)."""
    for kind, i, j, c in ops:
        if kind == "add":
            dst = rows[j]
            for col, v in rows[i].items():
                x = dst.get(col, 0) + c * v
                if x:
                    dst[col] = x
                else:
                    del dst[col]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = {col: -v for col, v in rows[i].items()}
    return rows


def _inverse_col_ops(rows, ops):
    """M @ P^-1, in place on M's {col: int} rows: the inverse of each
    operation of P, in order, as a column operation (add (i, j, c):
    col i -= c * col j)."""
    for kind, i, j, c in ops:
        if kind == "add":
            for r in rows:
                v = r.get(j)
                if v:
                    x = r.get(i, 0) - c * v
                    if x:
                        r[i] = x
                    else:
                        del r[i]
        elif kind == "swap":
            for r in rows:
                a, b = r.pop(i, 0), r.pop(j, 0)
                if a:
                    r[j] = a
                if b:
                    r[i] = b
        else:
            for r in rows:
                if i in r:
                    r[i] = -r[i]
    return rows


def _conjugated(rows, left, right, ncols):
    """P_left @ M @ P_right^-1 for M given by its {col: int} rows."""
    return RatMatrix._of(_inverse_col_ops(_row_ops(rows, left), right), 1, ncols)


def _nilpotent_square_zero(rng: random.Random, f: int):
    """The {col: int} rows of an f x f matrix D with D @ D = 0 (image inside
    a killed coordinate block)."""
    p = rng.randint(0, f // 2)
    q = rng.randint(p and 1 or 0, f - p)
    rows = [{} for _ in range(f)]
    for j in range(p):
        for i in range(f - q, f):
            v = rng.randint(-2, 2)
            if v:
                rows[i][j] = v
    return rows


def random_split_instance(rng: random.Random, max_dim: int = 6, top: int = 3):
    """One engine instance: (HomotopyData, l2_0, d_f), conditions (i)-(iii) true.

    Degrees run 0..top and every dimension is at most max_dim: with F of
    dimension f and l1 of rank r_k on X_k, dim X_0 = f + r_1 and
    dim X_k = r_k + r_{k+1}, where r_{top+1} = 0.  Raises ValueError when
    max_dim < 1 or top < 0.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1, got %r" % (max_dim,))
    if top < 0:
        raise ValueError("top must be >= 0, got %r" % (top,))
    f = rng.randint(1, max(1, max_dim - 2))
    rk = []                     # rk[k - 1] = r_k, the rank of l1 on X_k
    prev = max_dim - f
    for k in range(top):
        r = rng.randint(0, max(0, prev))
        rk.append(r)
        prev = max_dim - r
    rk.append(0)
    sp = GradedSpace([f + rk[0]] + [rk[k - 1] + rk[k] for k in range(1, top + 1)])
    n0 = sp.dim(0)

    # split basis: in degree k >= 1 the first r_k coordinates map
    # isomorphically onto the tail of X_{k-1}, which starts at m_offset(k-1)
    def m_offset(k):
        return f if k == 0 else rk[k - 1]

    d_rows = _nilpotent_square_zero(rng, f)
    l2_rows = [dict(r) for r in d_rows]
    for i in range(rk[0]):
        row = {}
        for j in range(n0):
            v = rng.randint(-2, 2)
            if v:
                row[j] = v
        l2_rows.append(row)

    # the random changes of basis, drawn per degree, then the one on F
    p = [_basis_change(rng, sp.dim(k)) for k in range(top + 1)]
    q = _basis_change(rng, f)

    l1_blocks = {}
    for k in range(1, top + 1):
        rows = [{} for _ in range(sp.dim(k - 1))]
        for i in range(rk[k - 1]):
            rows[m_offset(k - 1) + i][i] = 1
        l1_blocks[k] = _conjugated(rows, p[k - 1], p[k], sp.dim(k))
    s_blocks = {}
    for k in range(top):
        rows = [{} for _ in range(sp.dim(k + 1))]
        for i in range(rk[k]):
            rows[i][m_offset(k) + i] = -1
        s_blocks[k] = _conjugated(rows, p[k + 1], p[k], sp.dim(k))
    eta = _conjugated([{i: 1} for i in range(f)], q, p[0], n0)
    lam = _conjugated([{i: 1} for i in range(f)] + [{} for _ in range(n0 - f)],
                      p[0], q, f)
    hd = HomotopyData(sp, GradedMap(sp, -1, l1_blocks), f, eta, lam,
                      GradedMap(sp, +1, s_blocks))
    l2_0 = _conjugated(l2_rows, p[0], p[0], n0)
    d_f = _conjugated(d_rows, q, q, f)
    return hd, l2_0, d_f
