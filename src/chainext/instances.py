"""Randomized-but-exact test instances for the chain-extension engine.

Instances are built in a split basis where the homotopy identities hold by
construction, then conjugated by random unimodular changes of basis so the
matrices look generic while staying exact over Q.  The degree-zero operator
is built so that the three extension conditions hold, with its induced
differential on F returned alongside.
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


def _apply_op(rows, op, invert=False):
    kind, i, j, c = op
    if kind == "add":
        cc = -c if invert else c
        rows[j] = [a + cc * b for a, b in zip(rows[j], rows[i])]
    elif kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i] = [-a for a in rows[i]]


def random_unimodular(rng: random.Random, n: int):
    """A pair (P, P_inverse) of integer matrices with det = +-1."""
    if n == 0:
        z = RatMatrix.zeros(0, 0)
        return z, z
    ops = _elementary_ops(rng, n, steps=max(2, 2 * n))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for op in ops:
        _apply_op(rows, op)
    p = RatMatrix(rows)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for op in reversed(ops):
        _apply_op(rows, op, invert=True)
    p_inv = RatMatrix(rows)
    return p, p_inv


def _nilpotent_square_zero(rng: random.Random, f: int):
    """The integer rows of an f x f matrix D with D @ D = 0 (image inside a
    killed coordinate block)."""
    if f == 0:
        return []
    p = rng.randint(0, f // 2)
    q = rng.randint(p and 1 or 0, f - p)
    rows = [[0] * f for _ in range(f)]
    for j in range(p):
        for i in range(f - q, f):
            rows[i][j] = rng.randint(-2, 2)
    return rows


def random_split_instance(rng: random.Random, max_dim: int = 6, top: int = 3):
    """One engine instance: (HomotopyData, l2_0, d_f), conditions (i)-(iii) true.

    Dimensions per degree are at most max_dim; degrees run 0..top.
    """
    f = rng.randint(1, max(1, max_dim - 2))
    ranks = []
    prev = max_dim - f
    for k in range(top):
        r = rng.randint(0, max(0, prev))
        ranks.append(r)
        prev = max_dim - r
    r1, r2, r3 = (ranks + [0, 0, 0])[:3]
    dims = [f + r1, r1 + r2, r2 + r3, r3][: top + 1]
    sp = GradedSpace(dims)
    rk = [r1, r2, r3, 0]

    # split-basis data: in degree k >= 1 the first rk[k-1+...]... coordinates
    # map isomorphically down, the tail coordinates are the incoming image.
    def m_offset(k):
        return f if k == 0 else rk[k - 1]

    l1_blocks = {}
    for k in range(1, sp.top + 1):
        rows = [[0] * sp.dim(k) for _ in range(sp.dim(k - 1))]
        for i in range(rk[k - 1]):
            rows[m_offset(k - 1) + i][i] = 1
        l1_blocks[k] = RatMatrix(rows, ncols=sp.dim(k))
    s_blocks = {}
    for k in range(0, sp.top):
        rows = [[0] * sp.dim(k) for _ in range(sp.dim(k + 1))]
        for i in range(rk[k]):
            rows[i][m_offset(k) + i] = -1
        s_blocks[k] = RatMatrix(rows, ncols=sp.dim(k))
    eta0 = RatMatrix([[int(i == j) for j in range(sp.dim(0))] for i in range(f)],
                     ncols=sp.dim(0))
    lam0 = RatMatrix([[int(i == j) for j in range(f)] for i in range(sp.dim(0))],
                     ncols=f)

    d_rows = _nilpotent_square_zero(rng, f)
    d_split = RatMatrix(d_rows, ncols=f)
    n0 = sp.dim(0)
    l2_rows = [[0] * n0 for _ in range(n0)]
    for i in range(f):
        l2_rows[i][:f] = d_rows[i]
    for i in range(r1):
        for j in range(n0):
            l2_rows[f + i][j] = rng.randint(-2, 2)
    l2_split = RatMatrix(l2_rows, ncols=n0)

    # conjugate everything by random unimodular changes of basis
    p, p_inv = {}, {}
    for k in range(sp.top + 1):
        p[k], p_inv[k] = random_unimodular(rng, sp.dim(k))
    q, q_inv = random_unimodular(rng, f)

    l1 = GradedMap(sp, -1, {k: p[k - 1] @ l1_blocks[k] @ p_inv[k]
                            for k in range(1, sp.top + 1)})
    s = GradedMap(sp, +1, {k: p[k + 1] @ s_blocks[k] @ p_inv[k]
                           for k in range(0, sp.top)})
    eta = q @ eta0 @ p_inv[0]
    lam = p[0] @ lam0 @ q_inv
    hd = HomotopyData(sp, l1, f, eta, lam, s)
    l2_0 = p[0] @ l2_split @ p_inv[0]
    d_f = q @ d_split @ q_inv
    return hd, l2_0, d_f
