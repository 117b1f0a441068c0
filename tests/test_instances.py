"""The sparse-row instance generator against the Fraction-row generator it
replaced, kept here as the reference: same random draws, same matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chainext import instances
from chainext.complexes import (GradedMap, GradedSpace, HomotopyData,
                                chain_extend, check_l2_conditions,
                                verify_homotopy, verify_nilpotent)
from chainext.exactla import RatMatrix


def fraction_apply_op(rows, op, invert=False):
    kind, i, j, c = op
    if kind == "add":
        cc = -c if invert else c
        rows[j] = [a + Fraction(cc) * b for a, b in zip(rows[j], rows[i])]
    elif kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i] = [-a for a in rows[i]]


def fraction_unimodular_pair(rng, n):
    if n == 0:
        z = RatMatrix.zeros(0, 0)
        return z, z
    ops = instances._elementary_ops(rng, n, steps=max(2, 2 * n))
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for op in ops:
        fraction_apply_op(rows, op)
    p = RatMatrix(rows)
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for op in reversed(ops):
        fraction_apply_op(rows, op, invert=True)
    p_inv = RatMatrix(rows)
    return p, p_inv


def fraction_nilpotent_square_zero(rng, f):
    if f == 0:
        return RatMatrix.zeros(0, 0)
    p = rng.randint(0, f // 2)
    q = rng.randint(p and 1 or 0, f - p)
    rows = [[Fraction(0)] * f for _ in range(f)]
    for j in range(p):
        for i in range(f - q, f):
            rows[i][j] = Fraction(rng.randint(-2, 2))
    return RatMatrix(rows)


def fraction_split_instance(rng, max_dim=6, top=3):
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

    def m_offset(k):
        return f if k == 0 else rk[k - 1]

    l1_blocks = {}
    for k in range(1, sp.top + 1):
        rows = [[Fraction(0)] * sp.dim(k) for _ in range(sp.dim(k - 1))]
        for i in range(rk[k - 1]):
            rows[m_offset(k - 1) + i][i] = Fraction(1)
        l1_blocks[k] = RatMatrix(rows, ncols=sp.dim(k))
    s_blocks = {}
    for k in range(0, sp.top):
        rows = [[Fraction(0)] * sp.dim(k) for _ in range(sp.dim(k + 1))]
        for i in range(rk[k]):
            rows[i][m_offset(k) + i] = Fraction(-1)
        s_blocks[k] = RatMatrix(rows, ncols=sp.dim(k))
    eta0 = RatMatrix([[Fraction(1) if i == j else Fraction(0)
                       for j in range(sp.dim(0))] for i in range(f)], ncols=sp.dim(0))
    lam0 = RatMatrix([[Fraction(1) if i == j else Fraction(0)
                       for j in range(f)] for i in range(sp.dim(0))], ncols=f)

    d_split = fraction_nilpotent_square_zero(rng, f)
    n0 = sp.dim(0)
    l2_rows = [[Fraction(0)] * n0 for _ in range(n0)]
    for i in range(f):
        for j in range(f):
            l2_rows[i][j] = d_split.rows[i][j]
    for i in range(r1):
        for j in range(n0):
            l2_rows[f + i][j] = Fraction(rng.randint(-2, 2))
    l2_split = RatMatrix(l2_rows, ncols=n0)

    p, p_inv = {}, {}
    for k in range(sp.top + 1):
        p[k], p_inv[k] = fraction_unimodular_pair(rng, sp.dim(k))
    q, q_inv = fraction_unimodular_pair(rng, f)

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


def assert_same_instance(seed, **kwargs):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    (hd, l2_0, d_f) = instances.random_split_instance(got_rng, **kwargs)
    (want, want_l2_0, want_d_f) = fraction_split_instance(want_rng, **kwargs)
    assert hd.space == want.space and hd.f_dim == want.f_dim
    assert hd.l1.blocks == want.l1.blocks
    assert hd.s.blocks == want.s.blocks
    assert (hd.eta, hd.lam, l2_0, d_f) == \
        (want.eta, want.lam, want_l2_0, want_d_f)
    assert got_rng.getstate() == want_rng.getstate()


def test_split_instances_unchanged():
    for draw in range(200):
        assert_same_instance(draw)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12), st.integers(0, 3))
def test_split_instances_unchanged_at_every_size(seed, max_dim, top):
    assert_same_instance(seed, max_dim=max_dim, top=top)


@pytest.mark.parametrize("top", [4, 5])
def test_split_instances_honour_top(top):
    for seed in range(40):
        max_dim = 1 + seed % 8
        hd, l2_0, d_f = instances.random_split_instance(
            random.Random(seed), max_dim=max_dim, top=top)
        assert len(hd.space.dims) == top + 1, seed
        assert max(hd.space.dims) <= max_dim, seed
        assert verify_homotopy(hd)["ok"], seed
        assert check_l2_conditions(hd, l2_0, d_f)["ok"], seed
        assert verify_nilpotent(chain_extend(hd, l2_0, d_f))["ok"], seed


@pytest.mark.parametrize("kwargs, name", [
    (dict(max_dim=0), "max_dim"), (dict(max_dim=-3), "max_dim"),
    (dict(top=-1), "top")])
def test_split_instance_rejects_bad_sizes(kwargs, name):
    with pytest.raises(ValueError, match=name):
        instances.random_split_instance(random.Random(0), **kwargs)


def test_split_instances_take_no_matrix_products(monkeypatch):
    """The changes of basis act on sparse rows: no RatMatrix is built from
    dense rows and no product is taken."""
    counts = {"__matmul__": 0, "__init__": 0}
    for name in counts:
        original = getattr(RatMatrix, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(RatMatrix, name, counted)
    rng = random.Random(7)
    for _ in range(50):
        instances.random_split_instance(rng)
    assert counts == {"__matmul__": 0, "__init__": 0}
    RatMatrix([[1]]) @ RatMatrix([[1]])
    assert counts == {"__matmul__": 1, "__init__": 2}
