import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chainext import bv, complexes, shlie
from chainext.brst import ConstraintSystem, export_to_complexes
from chainext.exactla import Basis, RatMatrix, rank, solve
from chainext.complexes import (
    ExtensionPreconditionError, GradedSpace, GradedMap, HomotopyData,
    chain_extend, check_l2_conditions,
    homology_dim_of_differential, total_homology_dims, verify_homotopy,
    verify_nilpotent,
)
from chainext.formats import load_brst, load_extend, load_lie
from chainext.instances import random_split_instance
from chainext.lie import Cochain

from bundled import bv_problem
from references import column_block, total_matrix

MODELS = os.path.join(os.path.dirname(__file__), "..", "src", "chainext",
                      "models")


def read_model(name):
    with open(os.path.join(MODELS, name)) as fh:
        return fh.read()


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


# (call on tiny_instance(), message) for each input guard of the engine; its
# space has dims 2, 1, 0 and F = Q
ENGINE_GUARDS = [
    (lambda hd: GradedSpace([1, -1]), "negative dimension"),
    (lambda hd: GradedMap(hd.space, -1, {1: RatMatrix.zeros(1, 1)}),
     "block 1 has shape (1, 1), expected (2, 1)"),
    (lambda hd: HomotopyData(hd.space, hd.s, 1, hd.eta, hd.lam, hd.s),
     "l1 must have degree -1"),
    (lambda hd: HomotopyData(hd.space, hd.l1, 1, hd.eta, hd.lam, hd.l1),
     "s must have degree +1"),
    (lambda hd: HomotopyData(hd.space, hd.l1, 1, hd.lam, hd.lam, hd.s),
     "eta has shape (2, 1), expected (1, 2)"),
    (lambda hd: HomotopyData(hd.space, hd.l1, 1, hd.eta, hd.eta, hd.s),
     "lam has shape (1, 2), expected (2, 1)"),
    (lambda hd: complexes.ChainExtension(hd.space, hd.l1,
                                         GradedMap(hd.space, 0), hd.l1),
     "degree shifts must be (-1, 0, +1)"),
    (lambda hd: check_l2_conditions(hd, RatMatrix.zeros(1, 1)),
     "l2_0 has shape (1, 1), expected (2, 2)"),
    (lambda hd: check_l2_conditions(hd, RatMatrix.zeros(2, 2),
                                    RatMatrix.zeros(2, 2)),
     "d_f has shape (2, 2), expected (1, 1)"),
    (lambda hd: homology_dim_of_differential(hd.eta),
     "differential must be square"),
    (lambda hd: homology_dim_of_differential(RatMatrix([[1]])),
     "matrix does not square to zero"),
]


@pytest.mark.parametrize("call,message", ENGINE_GUARDS,
                         ids=[message for _, message in ENGINE_GUARDS])
def test_engine_input_guards(call, message):
    with pytest.raises(ValueError) as err:
        call(tiny_instance())
    assert str(err.value) == message


def test_verify_homotopy_detects_broken_sign():
    sp = GradedSpace([2, 1, 0])
    l1 = GradedMap(sp, -1, {1: RatMatrix([[0], [1]])})
    s = GradedMap(sp, +1, {0: RatMatrix([[0, 1]])})  # wrong sign
    hd = HomotopyData(sp, l1, 1, RatMatrix([[1, 0]]), RatMatrix([[1], [0]]), s)
    rep = verify_homotopy(hd)
    assert not rep["ok"]
    assert not rep["homotopy@0"]


# -- the resolution identities as residuals ------------------------------------

def equality_report(hd):
    """verify_homotopy as an equality of the two sides of each identity, as
    it was written before homotopy_residuals."""
    sp = hd.space
    checks = {}
    for k in range(2, sp.top + 1):
        checks["l1_l1_zero@%d" % k] = \
            (hd.l1.block(k - 1) @ hd.l1.block(k)).is_zero()
    checks["eta_lam_identity"] = \
        hd.eta @ hd.lam == RatMatrix.identity(hd.f_dim)
    checks["homotopy@0"] = hd.lam @ hd.eta - RatMatrix.identity(sp.dim(0)) \
        == hd.l1.block(1) @ hd.s.block(0)
    for k in range(1, sp.top + 1):
        checks["homotopy@%d" % k] = \
            hd.l1.block(k + 1) @ hd.s.block(k) \
            + hd.s.block(k - 1) @ hd.l1.block(k) \
            == RatMatrix.identity(sp.dim(k)).scale(-1)
    return checks


def broken_copies(hd):
    """hd, then copies with eta doubled, with one s block doubled, and with
    a 1 added to the first entry of one l1 block."""
    sp, l1, s = hd.space, hd.l1.blocks, hd.s.blocks
    yield hd
    yield HomotopyData(sp, hd.l1, hd.f_dim, hd.eta.scale(2), hd.lam, hd.s)
    for k, blk in s.items():
        yield HomotopyData(sp, hd.l1, hd.f_dim, hd.eta, hd.lam,
                           GradedMap(sp, 1, {**s, k: blk.scale(2)}))
    for k, blk in l1.items():
        if blk.nrows and blk.ncols:
            bumped = blk + RatMatrix.from_blocks(*blk.shape,
                                                 [(0, 0, RatMatrix([[1]]))])
            yield HomotopyData(sp, GradedMap(sp, -1, {**l1, k: bumped}),
                               hd.f_dim, hd.eta, hd.lam, hd.s)


def test_homotopy_residuals_are_zero_exactly_when_the_identities_hold():
    """homotopy_residuals keeps verify_homotopy's keys in their order, each
    residual is zero exactly when the two sides of its identity are equal,
    and verify_homotopy reads them; on random_split_instance draws, broken
    copies of them and the broken-sign case."""
    sp = GradedSpace([2, 1, 0])
    broken_sign = HomotopyData(
        sp, GradedMap(sp, -1, {1: RatMatrix([[0], [1]])}), 1,
        RatMatrix([[1, 0]]), RatMatrix([[1], [0]]),
        GradedMap(sp, +1, {0: RatMatrix([[0, 1]])}))
    rng = random.Random(28)
    cases = [broken_sign] + [hd for _ in range(30)
                             for hd in broken_copies(
                                 random_split_instance(rng)[0])]
    failed = set()
    for hd in cases:
        top = hd.space.top
        residuals = complexes.homotopy_residuals(hd)
        assert list(residuals) == \
            ["l1_l1_zero@%d" % k for k in range(2, top + 1)] \
            + ["eta_lam_identity"] + ["homotopy@%d" % k
                                      for k in range(top + 1)]
        want = equality_report(hd)
        assert {key: r.is_zero() for key, r in residuals.items()} == want
        assert verify_homotopy(hd) == dict(want, ok=all(want.values()))
        failed.update(key.split("@")[0] for key, v in want.items() if not v)
    assert failed == {"l1_l1_zero", "eta_lam_identity", "homotopy"}


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
    t = total_matrix(gm)
    assert t == RatMatrix([[0, 5], [0, 0]])
    assert rank(t) == 1


# -- conditions (ii) and (iii) against their per-column definition ------------

def per_column_conditions(hd, l2_0):
    """The definition, one column at a time: every column of l2_0 B and of
    l2_0^2 is in the column space of B = l1(X_1)."""
    b_mat = hd.l1.block(1)
    ok_ii = all(solve(b_mat, l2_0 @ column_block(b_mat, j)) is not None
                for j in range(b_mat.ncols))
    sq = l2_0 @ l2_0
    ok_iii = all(solve(b_mat, column_block(sq, j)) is not None
                 for j in range(sq.ncols))
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


def counting_solves(monkeypatch):
    """The shapes of the right-hand sides complexes.solve is called with; a
    sequence of blocks counts as the blocks side by side."""
    solves = []
    real_solve = complexes.solve

    def counted_solve(m, b):
        blocks = b if isinstance(b, (list, tuple)) else [b]
        solves.append((m.nrows, sum(blk.ncols for blk in blocks)))
        return real_solve(m, b)
    monkeypatch.setattr(complexes, "solve", counted_solve)
    return solves


def test_check_l2_conditions_is_two_block_solves(monkeypatch):
    """Conditions (ii) and (iii) are decided by one solve whose right-hand
    side is the two blocks [l2_0 B | l2_0^2] side by side."""
    hd, l2_0, d_f = random_split_instance(random.Random(3))
    solves = counting_solves(monkeypatch)
    mat_vecs = []
    real_mat_vec = RatMatrix.mat_vec

    def counted_mat_vec(self, v):
        mat_vecs.append(1)
        return real_mat_vec(self, v)
    monkeypatch.setattr(RatMatrix, "mat_vec", counted_mat_vec)
    hstacks = []
    real_hstack = RatMatrix.hstack

    def counted_hstack(self, other):
        hstacks.append(1)
        return real_hstack(self, other)
    monkeypatch.setattr(RatMatrix, "hstack", counted_hstack)
    assert check_l2_conditions(hd, l2_0, d_f)["ok"]
    n0, n1 = hd.space.dim(0), hd.space.dim(1)
    assert solves == [(n0, n1 + n0)]
    assert mat_vecs == []
    # the two blocks go to solve as a sequence, not hstacked first
    assert hstacks == []


def test_failed_joint_solve_names_the_failing_condition(monkeypatch):
    """When the joint solve fails, each block is solved alone, so the report
    still says which of (ii) and (iii) failed.  X_1 = <u1, u2>, X_0 =
    <b1, b2, f>, l1 u_i = b_i, so B = <b1, b2>, F = <f> and s = -l1^-1 on B.
    Each l2_0 below has l2_0 B and l2_0^2 both nonzero."""
    sp = GradedSpace([3, 2])
    l1 = GradedMap(sp, -1, {1: RatMatrix([[1, 0], [0, 1], [0, 0]])})
    s = GradedMap(sp, +1, {0: RatMatrix([[-1, 0, 0], [0, -1, 0]])})
    hd = HomotopyData(sp, l1, 1, RatMatrix([[0, 0, 1]]),
                      RatMatrix([[0], [0], [1]]), s)
    assert verify_homotopy(hd)["ok"]
    solves = counting_solves(monkeypatch)
    cases = [
        # b1 -> f, f -> b2: l2_0 b1 leaves B, l2_0^2 b1 = b2 stays in it
        ([[0, 0, 0], [0, 0, 1], [1, 0, 0]], (False, True)),
        # b1 -> b1, f -> f: B is kept, but l2_0^2 f = f is not in B
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], (True, False)),
        # b1 -> f, f -> f: both fail
        ([[0, 0, 0], [0, 0, 0], [1, 0, 1]], (False, False)),
    ]
    for rows, want in cases:
        l2 = RatMatrix(rows)
        del solves[:]
        rep = check_l2_conditions(hd, l2)
        assert (rep["condition_ii"], rep["condition_iii"]) == want
        assert per_column_conditions(hd, l2) == want and not rep["ok"]
        assert solves == [(3, 5), (3, 2), (3, 3)]


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


# each relation key of verify_nilpotent as the pairs (i, j) of its li lj
RELATIONS = {"l1l2_plus_l2l1_zero": ((1, 2), (2, 1)),
             "l2l2_plus_l1l3_plus_l3l1_zero": ((2, 2), (1, 3), (3, 1)),
             "l2l3_plus_l3l2_zero": ((2, 3), (3, 2)),
             "l3l3_zero": ((3, 3),)}


def dense_relation(sp, pairs):
    """The nonzero blocks of the sum of a . b over the pairs, every degree's
    product formed with dense_compose and summed with dense_add."""
    acc = None
    for a, b in pairs:
        m = GradedMap(sp, a.shift + b.shift, dense_compose(a, b))
        acc = m if acc is None else GradedMap(sp, m.shift, dense_add(acc, m))
    return acc.blocks


def dense_report(ext):
    """verify_nilpotent's report from the definitions: each relation summed
    from its own dense products, l^2 as the square of the sum of the dense
    total matrices, and the witness read off that square entry by entry."""
    sp = ext.space
    maps = {1: ext.l1, 2: ext.l2, 3: ext.l3}
    rep = {key: not dense_relation(sp, [(maps[i], maps[j]) for i, j in pairs])
           for key, pairs in RELATIONS.items()}
    rep["l2_vanishes_above_degree_1"] = all(
        ext.l2.block(k).is_zero() for k in range(2, sp.top + 1))
    rep["l3_vanishes_above_degree_0"] = all(
        ext.l3.block(k).is_zero() for k in range(1, sp.top + 1))
    total = dense_total(ext.l1) + dense_total(ext.l2) + dense_total(ext.l3)
    square = total @ total
    rep["total_square_zero"] = square.is_zero()
    rep["ok"] = all(rep.values())
    rep["first_failure"] = None
    deg = [k for k in range(len(sp.dims)) for _ in range(sp.dims[k])]
    for j in range(square.ncols):
        rows = [i for i in range(square.nrows) if square.entry(i, j)]
        if rows:
            # li shifts by i - 2, so li lj lands in shift class i + j - 4
            t = deg[rows[0]] - deg[j]
            key = next((key for key, pairs in RELATIONS.items()
                        if sum(pairs[0]) - 4 == t), "total_square_zero")
            rep["first_failure"] = (key, (deg[j], j - sp.offset(deg[j])))
            break
    return rep


def test_sparse_engine_matches_dense_definitions():
    for seed in range(50):
        hd, l2_0, d_f = random_split_instance(random.Random(seed))
        ext = chain_extend(hd, l2_0, d_f)
        for a in [hd.l1, hd.s, ext.l2, ext.l3]:
            assert total_matrix(a) == dense_total(a), seed
        assert verify_nilpotent(ext) == dense_report(ext), seed


def perturbed_l3(ext):
    """ext with one unit entry added to l3 on X_0 -> X_1, placed where l1 is
    nonzero on X_1, so that l1 l3 changes; None when l1 vanishes on X_1."""
    b = ext.l1.block(1)
    i = next((j for j, col in enumerate(b.columns()) if col), None)
    if i is None:
        return None
    n0 = ext.space.dim(0)
    e = RatMatrix([[int(r == i and c == 0) for c in range(n0)]
                   for r in range(ext.space.dim(1))], ncols=n0)
    l3 = GradedMap(ext.space, +1, {0: ext.l3.block(0) + e})
    return complexes.ChainExtension(ext.space, ext.l1, ext.l2, l3)


def test_total_square_is_a_live_check():
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


def with_unit_entry(ext, which, k, r, c):
    """ext with 1 added at (r, c) of block k of its l1, l2 or l3."""
    gm = getattr(ext, which)
    sp = ext.space
    rows, cols = sp.dim(k + gm.shift), sp.dim(k)
    unit = RatMatrix([[int(i == r and j == c) for j in range(cols)]
                      for i in range(rows)], ncols=cols)
    blocks = dict(gm.blocks)
    blocks[k] = gm.block(k) + unit
    maps = {"l1": ext.l1, "l2": ext.l2, "l3": ext.l3}
    maps[which] = GradedMap(sp, gm.shift, blocks)
    return complexes.ChainExtension(sp, maps["l1"], maps["l2"], maps["l3"])


def unit_positions(ext, which):
    """Every (degree, row, column) of a block of l1, l2 or l3."""
    gm, sp = getattr(ext, which), ext.space
    return [(k, r, c) for k in range(sp.top + 1)
            for r in range(sp.dim(k + gm.shift)) for c in range(sp.dim(k))
            if 0 <= k + gm.shift <= sp.top]


def bundled_extension(name):
    hd, l2_0, d_f = load_extend(read_model(name))
    return chain_extend(hd, l2_0, d_f)


@settings(max_examples=200, deadline=None)
@given(source=st.one_of(
    st.tuples(st.integers(0, 10 ** 6), st.integers(0, 5)),
    st.sampled_from(("extend_medium.txt", "extend_split.txt"))),
    which=st.sampled_from(("l2", "l3")), pick=st.integers(0, 10 ** 6))
def test_unit_entry_reports_match_dense_definitions(source, which, pick):
    if isinstance(source, str):
        ext = bundled_extension(source)
    else:
        seed, top = source
        ext = chain_extend(*random_split_instance(random.Random(seed), top=top))
    places = unit_positions(ext, which)
    if not places:
        return
    bad = with_unit_entry(ext, which, *places[pick % len(places)])
    assert verify_nilpotent(bad) == dense_report(bad)


def test_unit_entries_break_every_key():
    """Over all unit entries of a few extensions, every key of the report
    turns False somewhere, and the witness names every relation key."""
    failed, named = set(), set()
    exts = [bundled_extension("extend_split.txt")] + [
        chain_extend(*random_split_instance(random.Random(seed), top=4))
        for seed in range(6)]
    for ext in exts:
        for which in ("l1", "l2", "l3"):
            for place in unit_positions(ext, which)[::3]:
                bad = with_unit_entry(ext, which, *place)
                rep = verify_nilpotent(bad)
                assert rep == dense_report(bad)
                failed |= {key for key, v in rep.items() if v is False}
                if rep["first_failure"] is not None:
                    named.add(rep["first_failure"][0])
    keys = set(RELATIONS) | {"l2_vanishes_above_degree_1",
                             "l3_vanishes_above_degree_0",
                             "total_square_zero", "ok"}
    assert failed == keys
    assert named == set(RELATIONS) | {"total_square_zero"}


# -- the work: one square per check, no product with a zero block --------------

def count_products(monkeypatch):
    """Record (left, right) of every RatMatrix product from now on."""
    products = []
    real_matmul = RatMatrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return real_matmul(a, b)
    monkeypatch.setattr(RatMatrix, "__matmul__", counted)
    return products


def test_verify_nilpotent_is_one_product(monkeypatch):
    exts = []
    for seed in range(24):
        ext = chain_extend(*random_split_instance(random.Random(seed),
                                                  top=seed % 6))
        exts.append(ext)
        bad = perturbed_l3(ext)
        if bad is not None:
            exts.append(bad)
    products = count_products(monkeypatch)
    verdicts = set()
    for ext in exts:
        del products[:]
        verdicts.add(verify_nilpotent(ext)["ok"])
        n = ext.space.total_dim
        assert [(a.shape, b.shape) for a, b in products] == [((n, n), (n, n))]
    assert verdicts == {True, False}


def test_chain_extend_multiplies_no_zero_block(monkeypatch):
    products = count_products(monkeypatch)
    made = 0
    for top in (3, 5):
        for seed in range(50):
            hd, l2_0, d_f = random_split_instance(random.Random(seed), top=top)
            del products[:]
            chain_extend(hd, l2_0, d_f)
            made += len(products)
            # the one square of l2_0, which condition (iii) and l3 in degree
            # 0 share, is made even when l2_0 is zero
            zero = [(a.shape, b.shape) for a, b in products
                    if (a.is_zero() or b.is_zero())
                    and not (a is l2_0 and b is l2_0)]
            assert zero == [], (top, seed)
    assert made > 500              # the counter sees the products


def old_chain_extend_blocks(hd, l2_0):
    """The recursion as it was before it skipped zero blocks: every missing
    block a zero matrix, every product formed."""
    sp = hd.space
    sq0 = l2_0 @ l2_0
    l2_blocks = {0: l2_0}
    for k in range(1, sp.top + 1):
        prev = l2_blocks.get(k - 1, RatMatrix.zeros(sp.dim(k - 1), sp.dim(k - 1)))
        blk = hd.s.block(k - 1) @ prev @ hd.l1.block(k)
        if not blk.is_zero():
            l2_blocks[k] = blk
    l3_blocks = {}
    blk0 = hd.s.block(0) @ sq0
    if not blk0.is_zero():
        l3_blocks[0] = blk0
    for k in range(1, sp.top):
        l2_k = l2_blocks.get(k, RatMatrix.zeros(sp.dim(k), sp.dim(k)))
        inner = l2_k @ l2_k
        prev3 = l3_blocks.get(k - 1, RatMatrix.zeros(sp.dim(k), sp.dim(k - 1)))
        inner = inner + (prev3 @ hd.l1.block(k))
        blk = hd.s.block(k) @ inner
        if not blk.is_zero():
            l3_blocks[k] = blk
    return l2_blocks, l3_blocks


def shlie_engine_inputs(monkeypatch):
    """The (hd, l2_0) pairs that the lie_so3 engine cross-check extends, in
    both variants, recorded on their way into chain_extend."""
    seen = []

    def recording(hd, l2_0, d_f=None):
        seen.append((hd, l2_0))
        return chain_extend(hd, l2_0, d_f)
    monkeypatch.setattr(complexes, "chain_extend", recording)
    alg = load_lie(read_model("lie_so3.txt"))
    t2 = shlie.build_shlie(alg, Cochain.zero(alg.dim, 2), N=4,
                           variant="t2")
    for S in (t2, t2.as_variant("full")):
        shlie.crosscheck_with_engine(S)
    monkeypatch.undo()
    return seen


def test_chain_extend_matches_the_old_recursion(monkeypatch):
    inputs = []
    for top in (3, 5):
        for seed in range(50):
            hd, l2_0, _ = random_split_instance(random.Random(seed), top=top)
            inputs.append((hd, l2_0))
    sys_ = ConstraintSystem(*load_brst(read_model("brst_toy.txt")))
    hd, l2_0, _ = export_to_complexes(sys_, 4)
    inputs.append((hd, l2_0))
    exports = shlie_engine_inputs(monkeypatch)
    assert len(exports) == 3        # the three curried l2 of the full variant
    inputs += exports
    for hd, l2_0 in inputs:
        ext = chain_extend(hd, l2_0)
        want2, want3 = old_chain_extend_blocks(hd, l2_0)
        assert ext.l2.blocks == want2 and ext.l3.blocks == want3
        assert list(ext.l2.blocks) == list(want2)
        assert list(ext.l3.blocks) == list(want3)


# -- degrees of dimension zero ------------------------------------------------

def split_instance(f, ranks, rng):
    """A hand-built split instance in its split basis: F of dimension f, l1
    of rank r_k on X_k, dim X_0 = f + r_1, dim X_k = r_k + r_(k+1).  l1 maps
    the first r_k coordinates of X_k onto the last r_k of X_(k-1), s maps them
    back with a minus sign, and l2_0 = [[D, 0], [R]] with D^2 = 0, so that
    conditions (i)-(iii) hold with d_f = D."""
    rk = list(ranks) + [0]
    dims = [f + rk[0]] + [rk[k - 1] + rk[k] for k in range(1, len(rk))]
    sp = GradedSpace(dims)
    tail = [f] + rk[:-1]          # X_(k-1)'s image coordinates start here
    l1, s = {}, {}
    for k in range(1, sp.top + 1):
        r = rk[k - 1]
        l1[k] = RatMatrix([[int(i == tail[k - 1] + j) for j in range(dims[k])]
                           for i in range(dims[k - 1])], ncols=dims[k])
        s[k - 1] = RatMatrix([[-int(j == tail[k - 1] + i and i < r)
                               for j in range(dims[k - 1])]
                              for i in range(dims[k])], ncols=dims[k - 1])
    d = [[0] * f for _ in range(f)]
    if f >= 2:
        d[f - 1][0] = rng.choice((-2, -1, 1, 3))
    n0 = dims[0]
    rows = [row + [0] * (n0 - f) for row in d]
    rows += [[rng.randint(-2, 2) for _ in range(n0)] for _ in range(rk[0])]
    eta = RatMatrix([[int(i == j) for j in range(n0)] for i in range(f)], ncols=n0)
    lam = RatMatrix([[int(i == j) for j in range(f)] for i in range(n0)], ncols=f)
    hd = HomotopyData(sp, GradedMap(sp, -1, l1), f, eta, lam, GradedMap(sp, +1, s))
    return hd, RatMatrix(rows, ncols=n0), RatMatrix(d, ncols=f)


def dense_rank(m):
    """Rank by Gaussian elimination on dense Fraction rows."""
    rows = [list(r) for r in m.rows]
    rk = 0
    for c in range(m.ncols):
        p = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rk], rows[p] = rows[p], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = Fraction(rows[i][c]) / rows[rk][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


@settings(max_examples=120, deadline=None)
@given(f=st.integers(0, 3), ranks=st.lists(st.integers(0, 2), max_size=4),
       seed=st.integers(0, 10 ** 6))
@example(f=2, ranks=[0, 0], seed=0)          # dims (2, 0, 0)
@example(f=3, ranks=[0, 0], seed=1)          # dims (3, 0, 0)
@example(f=0, ranks=[1, 0, 0], seed=0)       # dims (1, 1, 0, 0)
@example(f=1, ranks=[1, 1, 0], seed=0)       # dims (2, 2, 1, 0): empty top
@example(f=2, ranks=[0, 1, 0], seed=2)       # dims (2, 1, 1, 0)
@example(f=0, ranks=[0], seed=0)             # dims (0, 0)
def test_zero_dimensional_degrees_match_dense_references(f, ranks, seed):
    rng = random.Random(seed)
    hd, l2_0, d_f = split_instance(f, ranks, rng)
    assert verify_homotopy(hd)["ok"]
    assert check_l2_conditions(hd, l2_0, d_f)["ok"]
    ext = chain_extend(hd, l2_0, d_f)
    want2, want3 = old_chain_extend_blocks(hd, l2_0)
    assert ext.l2.blocks == want2 and ext.l3.blocks == want3
    rep = verify_nilpotent(ext)
    assert rep == dense_report(ext) and rep["ok"] and rep["first_failure"] is None
    total = dense_total(ext.l1) + dense_total(ext.l2) + dense_total(ext.l3)
    assert total_homology_dims(ext) == hd.space.total_dim - 2 * dense_rank(total)
    assert total_homology_dims(ext) == homology_dim_of_differential(d_f)
    for which in ("l1", "l2", "l3"):
        places = unit_positions(ext, which)
        if places:
            bad = with_unit_entry(ext, which, *rng.choice(places))
            assert verify_nilpotent(bad) == dense_report(bad)


def test_total_rank_matches_sympy_over_qq():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(1)          # the instances of `fuzz --seed 1`
    for _ in range(20):
        ext = chain_extend(*random_split_instance(rng))
        t = ext.total_matrix()
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                           for row in t.rows], t.shape, QQ)
        assert rank(t) == dm.rank()
        assert total_homology_dims(ext) == t.ncols - 2 * dm.rank()


# -- the one export shape -------------------------------------------------------

def test_every_instance_export_has_one_basis_per_degree():
    """brst, bv and shlie export (hd, l2_0, bases): one Basis per degree of
    hd's space, sized as that degree, and l2_0 on X_0, or None for shlie,
    whose l2 is bilinear."""
    alg = load_lie(read_model("lie_so3.txt"))
    t2 = shlie.build_shlie(alg, Cochain.zero(3, 2), N=4)
    exports = {
        "brst": export_to_complexes(
            ConstraintSystem(*load_brst(read_model("brst_toy.txt"))), 4),
        "bv": bv.to_homotopy_data(
            bv.theorem8_maps(bv_problem("bv_two_ghost")), 3),
        "shlie t2": shlie.to_homotopy_data(t2),
        "shlie full": shlie.to_homotopy_data(t2.as_variant("full"))}
    for name, (hd, l2_0, bases) in exports.items():
        dims = hd.space.dims
        assert len(bases) == len(dims), name
        for k, basis in enumerate(bases):
            assert isinstance(basis, Basis) and len(basis) == dims[k], name
        if name.startswith("shlie"):
            assert l2_0 is None
        else:
            assert l2_0.shape == (dims[0], dims[0]), name
