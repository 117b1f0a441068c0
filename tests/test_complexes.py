import random

import pytest

from chainext import complexes
from chainext.exactla import RatMatrix, rank, solve
from chainext.complexes import (
    ExtensionPreconditionError, GradedSpace, GradedMap, HomotopyData,
    chain_extend, check_l2_conditions,
    homology_dim_of_differential, total_homology_dims, verify_homotopy,
    verify_nilpotent,
)
from chainext.instances import random_split_instance, random_unimodular


def tiny_instance():
    """Hand-built split instance: F = Q, X = (Q^2, Q, 0), everything explicit.

    X_0 = F + image(l1), l1(x1) = second coordinate, s reverses it with a sign.
    """
    sp = GradedSpace([2, 1, 0])
    l1 = GradedMap(sp, -1, {1: RatMatrix([[0], [1]])})
    s = GradedMap(sp, +1, {0: RatMatrix([[0, -1]])})
    eta = RatMatrix([[1, 0]])
    lam = RatMatrix([[1], [0]])
    return HomotopyData(sp, l1, 1, eta, lam, s)


def test_verify_homotopy_tiny():
    rep = verify_homotopy(tiny_instance())
    assert rep["ok"], rep


def test_verify_homotopy_detects_broken_sign():
    sp = GradedSpace([2, 1, 0])
    l1 = GradedMap(sp, -1, {1: RatMatrix([[0], [1]])})
    s = GradedMap(sp, +1, {0: RatMatrix([[0, 1]])})  # wrong sign
    hd = HomotopyData(sp, l1, 1, RatMatrix([[1, 0]]), RatMatrix([[1], [0]]), s)
    rep = verify_homotopy(hd)
    assert not rep["ok"]
    assert not rep["homotopy@0"]


def test_chain_extend_tiny_known_answer():
    hd = tiny_instance()
    # l2_0 maps the F-part to the image part: conditions (ii) and (iii) hold,
    # and the induced differential on F is zero.
    l2_0 = RatMatrix([[0, 0], [1, 0]])
    rep = check_l2_conditions(hd, l2_0, d_f=RatMatrix([[0]]))
    assert rep["ok"], rep
    ext = chain_extend(hd, l2_0, d_f=RatMatrix([[0]]))
    # l2 on X_1: s . l2_0 . l1 ; here l2_0(l1(x)) sits in the image, s flips it.
    assert ext.l2.block(1) == RatMatrix([[0]])
    assert ext.l3.block(0).is_zero()
    assert verify_nilpotent(ext)["ok"]
    # Homology: total dim 3, l has rank 1 -> dim H = 1 = dim H(F, 0)
    assert total_homology_dims(ext) == 1
    assert homology_dim_of_differential(RatMatrix([[0]])) == 1


def test_chain_extend_rejects_bad_l2():
    hd = tiny_instance()
    # maps the image part out of itself -> condition (ii) fails
    l2_0 = RatMatrix([[0, 1], [0, 0]])
    rep = check_l2_conditions(hd, l2_0)
    assert rep["condition_ii"] is False
    with pytest.raises(ExtensionPreconditionError, match="condition_ii"):
        chain_extend(hd, l2_0)


def test_chain_extend_condition_i_mismatch():
    hd = tiny_instance()
    l2_0 = RatMatrix([[0, 0], [1, 0]])
    with pytest.raises(ExtensionPreconditionError, match="condition_i"):
        chain_extend(hd, l2_0, d_f=RatMatrix([[1]]))


def test_random_unimodular_inverse():
    rng = random.Random(5)
    for n in (1, 2, 4, 6):
        p, p_inv = random_unimodular(rng, n)
        assert p @ p_inv == RatMatrix.identity(n)


def test_random_instances_pass_everything():
    rng = random.Random(12345)
    for _ in range(25):
        hd, l2_0, d_f = random_split_instance(rng)
        assert verify_homotopy(hd)["ok"]
        rep = check_l2_conditions(hd, l2_0, d_f)
        assert rep["ok"], rep
        ext = chain_extend(hd, l2_0, d_f)
        assert verify_nilpotent(ext)["ok"]


def test_theorem_dim_match_on_random_instances():
    rng = random.Random(777)
    for _ in range(10):
        hd, l2_0, d_f = random_split_instance(rng)
        ext = chain_extend(hd, l2_0, d_f)
        assert total_homology_dims(ext) == homology_dim_of_differential(d_f)


def test_deterministic_bit_for_bit():
    hd, l2_0, d_f = random_split_instance(random.Random(31))
    e1 = chain_extend(hd, l2_0, d_f)
    e2 = chain_extend(hd, l2_0, d_f)
    for k in range(hd.space.top + 1):
        assert e1.l2.block(k) == e2.l2.block(k)
        assert e1.l3.block(k) == e2.l3.block(k)


def test_graded_map_total_matrix():
    sp = GradedSpace([1, 1])
    gm = GradedMap(sp, -1, {1: RatMatrix([[5]])})
    t = gm.total_matrix()
    assert t == RatMatrix([[0, 5], [0, 0]])
    assert rank(t) == 1


# -- conditions (ii) and (iii) against their per-column definition ------------

def per_column_conditions(hd, l2_0):
    """The definition, one column at a time: every column of l2_0 B and of
    l2_0^2 is in the column space of B = l1(X_1)."""
    b_mat = hd.l1.block(1)
    ok_ii = all(solve(b_mat, l2_0.mat_vec(b_mat.col(j))) is not None
                for j in range(b_mat.ncols))
    sq = l2_0 @ l2_0
    ok_iii = all(solve(b_mat, sq.col(j)) is not None for j in range(sq.ncols))
    return ok_ii, ok_iii


def leaves_image(hd):
    """lam E s_0, with one entry of E chosen so that some vector of B goes to
    a nonzero vector of lam(F), which meets B only in 0; None when B = 0."""
    sb = hd.s.block(0) @ hd.l1.block(1)
    j = next((i for i in range(sb.nrows) if any(sb.rows[i])), None)
    if j is None:
        return None
    e = RatMatrix([[int(i == 0 and c == j) for c in range(sb.nrows)]
                   for i in range(hd.f_dim)], ncols=sb.nrows)
    return hd.lam @ e @ hd.s.block(0)


def test_block_conditions_match_per_column_definition():
    seen = {"ii_fails": 0, "iii_only_fails": 0}
    for seed in range(60):
        rng = random.Random(seed)
        hd, l2_0, d_f = random_split_instance(rng)
        cases = [(l2_0, (True, True))]
        bump = leaves_image(hd)
        if bump is not None:
            cases.append((l2_0 + bump, (False, None)))
        # eta l2_0 lam becomes c times the identity (c nonzero), so the square
        # moves lam(F) off B; B still maps into itself because eta kills B
        c = rng.choice((-2, -1, 1, 3))
        shift = hd.lam @ (RatMatrix.identity(hd.f_dim).scale(c) - d_f) @ hd.eta
        cases.append((l2_0 + shift, (True, False)))
        for l2, (want_ii, want_iii) in cases:
            ref_ii, ref_iii = per_column_conditions(hd, l2)
            rep = check_l2_conditions(hd, l2)
            assert (rep["condition_ii"], rep["condition_iii"]) == \
                (ref_ii, ref_iii), seed
            assert rep["ok"] == (ref_ii and ref_iii)
            assert ref_ii == want_ii
            if want_iii is not None:
                assert ref_iii == want_iii
            seen["ii_fails"] += not ref_ii
            seen["iii_only_fails"] += ref_ii and not ref_iii
    assert seen["ii_fails"] >= 40 and seen["iii_only_fails"] == 60


def test_check_l2_conditions_is_two_block_solves(monkeypatch):
    hd, l2_0, d_f = random_split_instance(random.Random(3))
    solves, mat_vecs = [], []
    real_solve, real_mat_vec = complexes.solve, RatMatrix.mat_vec

    def counted_solve(m, b):
        solves.append(b.shape)
        return real_solve(m, b)

    def counted_mat_vec(self, v):
        mat_vecs.append(1)
        return real_mat_vec(self, v)
    monkeypatch.setattr(complexes, "solve", counted_solve)
    monkeypatch.setattr(RatMatrix, "mat_vec", counted_mat_vec)
    assert check_l2_conditions(hd, l2_0, d_f)["ok"]
    n0, n1 = hd.space.dim(0), hd.space.dim(1)
    assert solves == [(n0, n1), (n0, n0)]
    assert mat_vecs == []


def test_chain_extend_squares_l2_0_once(monkeypatch):
    squares = []
    real_matmul = RatMatrix.__matmul__

    def counted_matmul(a, b):
        if a is b:
            squares.append(a)
        return real_matmul(a, b)
    monkeypatch.setattr(RatMatrix, "__matmul__", counted_matmul)
    for seed in range(4):
        hd, l2_0, d_f = random_split_instance(random.Random(seed))
        del squares[:]
        ext = chain_extend(hd, l2_0, d_f=d_f)
        assert sum(1 for m in squares if m is l2_0) == 1, seed
        assert verify_nilpotent(ext)["ok"]


# -- the sparse engine against its dense definitions -------------------------

def dense_compose(a, b):
    """The old compose: every degree's product, missing blocks as zeros."""
    out = {}
    for k in range(len(a.space.dims)):
        m = a.block(k + b.shift) @ b.block(k)
        if not m.is_zero():
            out[k] = m
    return out


def dense_add(a, b):
    out = {}
    for k in set(a.blocks) | set(b.blocks):
        m = a.block(k) + b.block(k)
        if not m.is_zero():
            out[k] = m
    return out


def dense_total(gm):
    """The old total matrix: a dense n x n list filled block by block."""
    sp = gm.space
    n = sp.total_dim
    rows = [[0] * n for _ in range(n)]
    for k in range(len(sp.dims)):
        tgt = k + gm.shift
        if not 0 <= tgt < len(sp.dims):
            continue
        blk = gm.block(k)
        ro, co = sp.offset(tgt), sp.offset(k)
        for i in range(blk.nrows):
            for j in range(blk.ncols):
                rows[ro + i][co + j] = blk.rows[i][j]
    return RatMatrix(rows, ncols=n)


def test_sparse_engine_matches_dense_definitions():
    for seed in range(50):
        hd, l2_0, d_f = random_split_instance(random.Random(seed))
        ext = chain_extend(hd, l2_0, d_f)
        maps = [hd.l1, hd.s, ext.l2, ext.l3]
        for a in maps:
            assert a.total_matrix() == dense_total(a), seed
            for b in maps:
                assert a.compose(b).blocks == dense_compose(a, b), seed
                if a.shift == b.shift:
                    assert a.add(b).blocks == dense_add(a, b), seed


def perturbed_l3(ext):
    """ext with one unit entry added to l3 on X_0 -> X_1, placed where l1 is
    nonzero on X_1, so that l1 l3 changes; None when l1 vanishes on X_1."""
    b = ext.l1.block(1)
    i = next((j for j in range(b.ncols) if any(b.col(j))), None)
    if i is None:
        return None
    n0 = ext.space.dim(0)
    e = RatMatrix([[int(r == i and c == 0) for c in range(n0)]
                   for r in range(ext.space.dim(1))], ncols=n0)
    l3 = GradedMap(ext.space, +1, {0: ext.l3.block(0) + e})
    return complexes.ChainExtension(ext.space, ext.l1, ext.l2, l3)


def test_total_square_is_a_live_check(monkeypatch):
    perturbed = []
    for seed in range(30):
        hd, l2_0, d_f = random_split_instance(random.Random(seed))
        bad = perturbed_l3(chain_extend(hd, l2_0, d_f))
        if bad is not None:
            perturbed.append(bad)
    assert len(perturbed) >= 20
    for bad in perturbed:
        rep = verify_nilpotent(bad)
        assert rep["total_square_zero"] is False
        assert rep["l2l2_plus_l1l3_plus_l3l1_zero"] is False
        assert rep["ok"] is False
    # the total square is the product of the assembled matrix, not a sum of
    # compose results: with compose blinded it still sees the perturbation
    monkeypatch.setattr(GradedMap, "compose", lambda self, other: GradedMap(
        self.space, self.shift + other.shift))
    for bad in perturbed:
        rep = verify_nilpotent(bad)
        assert rep["l2l2_plus_l1l3_plus_l3l1_zero"] is True
        assert rep["total_square_zero"] is False
