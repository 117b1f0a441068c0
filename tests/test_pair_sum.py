"""series.pair_sum against the five loops it replaced, copied here as they
stood: lie.obstruction, the precondition loop of lie.extend_deformation,
the master-equation loop of bv.DeformationProblem, bv.obstruction_R and
bv.Theorem8Maps.pair_brackets."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from chainext.bv import DeformationProblem, Theorem8Maps, obstruction_R
from chainext.lie import Cochain, nr_compose, obstruction
from chainext.series import pair_sum
from chainext.superalg import SuperPoly

from bundled import bv_problem

_settings = settings(max_examples=40, deadline=None)
_VALUES = st.sampled_from([0, 0, 1, -1, 2, Fraction(-1, 2)])


# -- the loops, as they stood --------------------------------------------------

def loop_lie_obstruction(alphas, n) -> Cochain:
    """rho_n = -sum_{i+j=n, i,j>=1} alpha_i alpha_j for alphas = [alpha_1..alpha_{n-1}]."""
    if len(alphas) < n - 1:
        raise ValueError("need alpha_1..alpha_%d" % (n - 1))
    dim = alphas[0].dim
    out = Cochain.zero(dim, 3)
    for i in range(1, n):
        j = n - i
        if j < 1:
            continue
        out = out.add(nr_compose(alphas[i - 1], alphas[j - 1]))
    return out.scale(-1)


def loop_lie_precondition(dim, chain, n):
    """The order-m sums extend_deformation tested for zero, m = 1..n-1."""
    sums = []
    for m in range(1, n):
        acc = Cochain.zero(dim, 3)
        for i in range(0, m + 1):
            acc = acc.add(nr_compose(chain[i], chain[m - i]))
        sums.append(acc)
    return sums


def loop_master_sums(model, S, n):
    """The order-m sums DeformationProblem tested for zero, m = 0..n."""
    sums = []
    for m in range(n + 1):
        acc = SuperPoly.zero(model.alg)
        for i in range(m + 1):
            acc = acc + model.bracket(S[i], S[m - i])
        sums.append(acc)
    return sums


def loop_obstruction_R(model, S, n, order):
    out = SuperPoly.zero(model.alg)
    for i in range(1, min(order, n + 1)):
        j = order - i
        if 1 <= j <= n:
            out = out + model.bracket(S[i], S[j])
    if not model.bracket(S[0], out).is_zero():
        raise ValueError("obstruction is not a cocycle: inconsistent data")
    return out


def loop_pair_brackets(model, S, n):
    pair_brackets = {}
    for m in range(n + 1, 2 * n + 1):
        acc = SuperPoly.zero(model.alg)
        for i in range(max(1, m - n), min(n, m - 1) + 1):
            acc = acc + model.bracket(S[i], S[m - i])
        pair_brackets[m] = acc
    return pair_brackets


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


# -- lie: chains of 2-cochains ---------------------------------------------------

@st.composite
def cochain_chains(draw):
    """c_0..c_n (n = 1..3) random 2-cochains on a space of dim 0-4."""
    dim = draw(st.integers(0, 4))
    vec = st.lists(_VALUES, min_size=dim, max_size=dim)
    return [Cochain(dim, 2, {idx: draw(vec)
                             for idx in combinations(range(dim), 2)})
            for _ in range(draw(st.integers(2, 4)))]


@_settings
@given(cochain_chains())
def test_lie_pair_sums_match_the_loops(chain):
    dim, n = chain[0].dim, len(chain) - 1
    zero = Cochain.zero(dim, 3)

    def compose(i, j):
        return nr_compose(chain[i], chain[j])
    # orders 1..n over the whole chain, as the precondition reads them
    assert loop_lie_precondition(dim, chain, n + 1) == \
        [pair_sum(compose, m, 0, n, zero) for m in range(1, n + 1)]
    for m in range(2, n + 2):
        want = loop_lie_obstruction(chain[1:], m)
        assert obstruction(chain[1:], m) == want
        # over c_0..c_{m-1} the order-m sum is -rho_m
        assert pair_sum(compose, m, 0, m - 1, zero).scale(-1) == want


# -- bv: chains of even ghost-0 polynomials ---------------------------------------

TWO_GHOST = bv_problem("bv_two_ghost")
MODEL = TWO_GHOST.model
EVEN_GHOST0 = [m for m in MODEL.monomials(3)
               if MODEL.poly(m).parity() == 0 and MODEL.poly(m).ghost() == 0]
KNOWN = TWO_GHOST.S


@st.composite
def poly_chains(draw):
    """S_0..S_n (n = 0..3): random even ghost-0 combinations of monomials of
    degree <= 3, each S_i also possibly the two-ghost problem's S_i, so that
    some chains pass the low master equations."""
    S = []
    for i in range(draw(st.integers(1, 4))):
        if i < len(KNOWN) and draw(st.booleans()):
            S.append(KNOWN[i])
            continue
        terms = draw(st.dictionaries(st.sampled_from(EVEN_GHOST0), _VALUES,
                                     max_size=3))
        S.append(SuperPoly(MODEL.alg, terms))
    return S


def unchecked_problem(S):
    """A DeformationProblem over S whose master equations are not tested."""
    problem = object.__new__(DeformationProblem)
    problem.model, problem.S, problem.n = MODEL, S, len(S) - 1
    problem.trunc = 2 * problem.n
    return problem


@_settings
@given(poly_chains())
def test_bv_pair_sums_match_the_loops(S):
    n, zero = len(S) - 1, SuperPoly.zero(MODEL.alg)

    def bracket(i, j):
        return MODEL.bracket(S[i], S[j])
    sums = loop_master_sums(MODEL, S, n)
    assert sums == [pair_sum(bracket, m, 0, n, zero) for m in range(n + 1)]
    failing = next((m for m, acc in enumerate(sums) if not acc.is_zero()),
                   None)
    got = outcome(DeformationProblem, MODEL, S)
    if failing is None:
        assert isinstance(got, DeformationProblem)
    else:
        assert got == (ValueError, "order-%d master equation fails" % failing)
    problem = unchecked_problem(S)
    for order in range(2 * n + 2):
        assert outcome(obstruction_R, problem, order) == \
            outcome(loop_obstruction_R, MODEL, S, n, order)
    maps = Theorem8Maps(problem)
    assert maps.pair_brackets == \
        loop_pair_brackets(MODEL, S, n)
    assert maps.pair_brackets == {m: pair_sum(bracket, m, 0, n, zero)
                                  for m in range(n + 1, 2 * n + 1)}
