"""superalg.monomials against the nested-loop enumerators that brst and bv
each had before it: the same bases, in the same order, on every bundled
model."""

from itertools import combinations, combinations_with_replacement

import pytest

from chainext import brst
from chainext.bv import theorem8_maps, to_homotopy_data
from chainext.superalg import monomials

from bundled import brst_system, bv_problem

BRST_MODELS = ["brst_so3", "brst_toy", "brst_abelian"]
BV_MODELS = ["bv_two_ghost", "bv_two_pair"]


def reference_monomial_basis(sys, cap):
    """brst's basis as it was built: every monomial up to xGP-degree
    cap + jump * n, kept when its weight is at most cap."""
    jump = brst.degree_jump(sys)
    evens = [sys.alg.index[x] for x in sys.xs] + \
            [sys.alg.index[g] for g in sys.gs]
    etas = [sys.alg.index[e] for e in sys.etas]
    ps = [sys.alg.index[p] for p in sys.ps]
    groups = [[] for _ in range(sys.n + 1)]
    for pn in range(sys.n + 1):
        for pset in combinations(ps, pn):
            for en in range(sys.n + 1):
                for eset in combinations(etas, en):
                    for ed in range(cap + jump * sys.n - pn + 1):
                        for emono in combinations_with_replacement(evens, ed):
                            mono = tuple(sorted(emono + eset + pset))
                            weight = sys.xgp_degree(mono) + \
                                jump * (sys.n - en)
                            if weight <= cap:
                                groups[pn].append(mono)
    for g in groups:
        g.sort()
    return groups


def reference_bv_monomials(model, maxdeg):
    """BVModel.monomials as it was built, by its own loops."""
    evens = [i for i, g in enumerate(model.alg.gens) if g.parity == 0]
    odds = [i for i, g in enumerate(model.alg.gens) if g.parity == 1]
    out = []
    for on in range(len(odds) + 1):
        for oset in combinations(odds, on):
            for ed in range(maxdeg - on + 1):
                for emono in combinations_with_replacement(evens, ed):
                    out.append(tuple(sorted(emono + oset)))
    out.sort()
    return out


@pytest.mark.parametrize("name", BRST_MODELS)
def test_monomial_basis_matches_the_weight_filter(name):
    sys = brst_system(name)
    for cap in range(7):
        assert brst.monomial_basis(sys, cap) == \
            reference_monomial_basis(sys, cap), cap


@pytest.mark.parametrize("name", BV_MODELS)
def test_bv_monomials_match_the_nested_loops(name):
    model = bv_problem(name).model
    for maxdeg in range(7):
        assert model.monomials(maxdeg) == \
            reference_bv_monomials(model, maxdeg), maxdeg


@pytest.mark.parametrize("name", BV_MODELS)
def test_bv_export_labels_match_the_old_bound(name):
    """to_homotopy_data enumerates to cap; its labels are those the old
    enumeration to cap + jump * T kept."""
    for trunc in (2, 3, 4):
        maps = theorem8_maps(bv_problem(name, trunc=trunc))
        jump = max([0] + [len(m) - 2 for s in maps.problem.S[1:]
                          for m in s.terms])
        for cap in (1, 2, 3, 4):
            want = sorted(
                (m, k) for m in reference_bv_monomials(maps.model,
                                                       cap + jump * trunc)
                for k in range(trunc + 1) if len(m) + jump * (trunc - k) <= cap)
            _, _, (x0, _) = to_homotopy_data(maps, cap)
            assert x0.labels == want, (trunc, cap)


def test_monomials_are_normal_ordered_and_distinct():
    """Each yielded monomial is sorted, repeats no odd generator, and has
    at most even_degree(its odd factors) even factors; none repeats."""
    alg = bv_problem("bv_two_ghost").model.alg
    odd = {i for i, g in enumerate(alg.gens) if g.parity}
    got = list(monomials(alg, lambda o: 3 - 2 * len(o)))
    assert len(got) == len(set(got))
    for m in got:
        o = tuple(i for i in m if i in odd)
        assert list(m) == sorted(m) and len(set(o)) == len(o)
        assert len(m) - len(o) <= 3 - 2 * len(o)
