import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaindyn import (
    GeneratorSet,
    InvalidParameterError,
    NotCoprimeError,
    ResourceLimitError,
    frobenius_bound,
    gcd_set,
    realizable_length_bound,
    representable,
)
from oracles import frobenius_bruteforce, representable_bruteforce


def test_gcd_examples():
    assert gcd_set(GeneratorSet.of([6])) == 6
    assert gcd_set(GeneratorSet.of([4, 6])) == 2
    assert gcd_set(GeneratorSet.of([3, 5])) == 1


def test_generators_normalized():
    g = GeneratorSet.of([5, 3, 5, 3])
    assert g.generators == (3, 5)


def test_generators_validated():
    with pytest.raises(InvalidParameterError):
        GeneratorSet.of([])
    with pytest.raises(InvalidParameterError):
        GeneratorSet.of([0, 3])
    for not_int in ([2.5, 3], [3.0, 5], [True, 3]):
        with pytest.raises(InvalidParameterError):
            GeneratorSet.of(not_int)
    with pytest.raises(ResourceLimitError):
        GeneratorSet.of([10_001])


def test_representable_examples():
    g35 = GeneratorSet.of([3, 5])
    assert representable(0, g35)
    assert not representable(7, g35)
    assert representable(8, g35)
    # no table over 0..s: a huge s is answered from min(g) residues
    assert representable(10**18, g35)
    assert not representable(10**18 + 1, GeneratorSet.of([2, 4]))


@given(gens=st.sets(st.integers(min_value=1, max_value=24), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_representable_matches_exhaustive_dp(gens):
    # gcd > 1 and singletons included; the oracles search coefficients
    g = GeneratorSet.of(gens)
    for s in range(200):
        assert representable(s, g) == representable_bruteforce(s, gens)
    if gcd_set(g) == 1:
        assert frobenius_bound(g) == frobenius_bruteforce(gens)
    else:
        with pytest.raises(NotCoprimeError):
            frobenius_bound(g)


def test_frobenius_examples():
    assert frobenius_bound(GeneratorSet.of([1])) == 0
    assert frobenius_bound(GeneratorSet.of([3, 5])) == 8
    assert frobenius_bound(GeneratorSet.of([2, 3])) == 2


def test_frobenius_requires_coprime():
    with pytest.raises(NotCoprimeError):
        frobenius_bound(GeneratorSet.of([4, 6]))


def test_two_generator_closed_form():
    # N = a*b - a - b + 1 for coprime a, b >= 2
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if math.gcd(a, b) != 1:
                continue
            assert frobenius_bound(GeneratorSet.of([a, b])) == a * b - a - b + 1
    # the largest pair under the generator cap, near 10^8
    assert frobenius_bound(GeneratorSet.of([9999, 10000])) == 9999 * 10000 - 9999 - 10000 + 1


@given(
    gens=st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    extra=st.integers(min_value=1, max_value=40),
    s=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=120, deadline=None)
def test_monotone_under_generator_addition(gens, extra, s):
    g = GeneratorSet.of(gens)
    bigger = GeneratorSet.of(set(gens) | {extra})
    if representable(s, g):
        assert representable(s, bigger)


@given(gens=st.sets(st.integers(min_value=2, max_value=25), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_window_above_bound_and_boundary(gens):
    g = GeneratorSet.of(gens)
    if gcd_set(g) != 1:
        return
    bound = frobenius_bound(g)
    for s in range(bound, bound + 1000):
        assert representable(s, g)
    if bound > 0:
        assert not representable(bound - 1, g)


def test_realizable_length_bound_examples():
    assert realizable_length_bound(GeneratorSet.of([1]), 1) == 1
    assert realizable_length_bound(GeneratorSet.of([3, 5]), 4) == 12
    assert realizable_length_bound(GeneratorSet.of([2, 3]), 2) == 4


def test_realizable_length_bound_dp_verification():
    # figure-eight graph with loops of lengths 3 and 5 at vertex 0: the
    # bound M + N certifies every length from the generator vertex (loop
    # of length >= N there, then a chain of length <= M), which is what
    # the DP confirms on row 0
    from chaindyn import chain_diameter, graph_from_edges
    from oracles import loop_lengths_bruteforce, walk_length_dp

    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 0)]
    g = graph_from_edges(7, edges)
    assert loop_lengths_bruteforce(g, 0, 5)[:2] == [3, 5]
    diameter = chain_diameter(g)
    bound = realizable_length_bound(GeneratorSet.of([3, 5]), diameter)
    assert bound == frobenius_bound(GeneratorSet.of([3, 5])) + diameter
    dp = walk_length_dp(g, bound + 8)
    full = (1 << 7) - 1
    for ell in range(bound, bound + 8):
        assert dp[ell - 1][0] == full
    # below the per-source bound some length from 0 is indeed missing
    missing = [ell for ell in range(1, bound) if dp[ell - 1][0] != full]
    assert missing, "bound should not be vacuous on this graph"


def test_realizable_length_bound_validates():
    with pytest.raises(InvalidParameterError):
        realizable_length_bound(GeneratorSet.of([2, 3]), 0)
    for not_int in (1.5, True):
        with pytest.raises(InvalidParameterError):
            realizable_length_bound(GeneratorSet.of([3, 5]), not_int)
    with pytest.raises(NotCoprimeError):
        realizable_length_bound(GeneratorSet.of([4, 6]), 3)
