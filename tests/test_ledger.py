"""Exact component-moment bookkeeping against hand values and a brute-force oracle."""

import math

import pytest
from conftest import brute_force_moments
from hypothesis import given, strategies as st

from percolab import (
    DisjointSetForest,
    MomentLedger,
    SizeDistribution,
    add_edge,
    delta_k,
    ledger_init,
    snapshot_distribution,
)


# ---------------------------------------------------------------------------
# merge increments

def test_delta_k_two_singletons():
    # merging 1+1 adds 2^k - 2 to the k-th power sum
    assert delta_k(1, 1, 2) == 2
    assert delta_k(1, 1, 3) == 6
    assert delta_k(1, 1, 4) == 14


def test_delta_k_general_pair():
    # (a+b)^k - a^k - b^k for a=2, b=3, expanded by hand
    assert delta_k(2, 3, 2) == 12
    assert delta_k(2, 3, 3) == 90
    assert delta_k(2, 3, 4) == 528


@given(st.integers(1, 500), st.integers(1, 500), st.integers(2, 4))
def test_delta_k_matches_binomial_expansion(a, b, k):
    assert delta_k(a, b, k) == (a + b) ** k - a**k - b**k


def test_delta_k_symmetric():
    for k in (2, 3, 4):
        assert delta_k(7, 11, k) == delta_k(11, 7, k)


def test_delta_k_rejects_bad_arguments():
    with pytest.raises(ValueError):
        delta_k(0, 1, 2)
    with pytest.raises(ValueError):
        delta_k(1, 1, 1)
    with pytest.raises(ValueError):
        delta_k(1, 1, 5)


# ---------------------------------------------------------------------------
# incremental ledger walkthrough

def test_ledger_initial_state():
    forest, led = ledger_init(5)
    assert led.s_sums == [5, 5, 5, 5]
    assert led.c1_size == 1
    assert led.n1_isolated == 5


def test_ledger_five_vertex_walkthrough():
    """Insert edges into n=5 and follow every moment by hand."""
    forest, led = ledger_init(5)

    add_edge(forest, led, 0, 1)
    assert forest.comp_size[forest.find(0)] == 2
    assert led.s_sums == [5, 7, 11, 19]
    assert (led.c1_size, led.n1_isolated) == (2, 3)

    add_edge(forest, led, 1, 2)
    assert forest.comp_size[forest.find(2)] == 3
    assert led.s_sums == [5, 11, 29, 83]
    assert (led.c1_size, led.n1_isolated) == (3, 2)

    # edge inside an existing component: no moment change
    add_edge(forest, led, 0, 2)
    assert led.s_sums == [5, 11, 29, 83]
    assert (led.c1_size, led.n1_isolated) == (3, 2)

    # loop: legal input, also a no-op
    add_edge(forest, led, 3, 3)
    assert led.s_sums == [5, 11, 29, 83]
    assert (led.c1_size, led.n1_isolated) == (3, 2)

    dist = snapshot_distribution(forest)
    assert dist.counts == {1: 2, 3: 1}
    assert (dist.c1, dist.c2, dist.n1) == (3, 1, 2)


def test_add_edge_rejects_out_of_range():
    forest, led = ledger_init(4)
    with pytest.raises(ValueError):
        add_edge(forest, led, 0, 4)
    with pytest.raises(ValueError):
        add_edge(forest, led, -1, 2)


def test_power_sums_are_exact_python_ints():
    # two components of 10^5 vertices push S4 to 2e20, past the int64 range
    dist = SizeDistribution({100000: 2})
    assert dist.power_sum(4) == 2 * 10**20
    assert isinstance(dist.power_sum(4), int)


# ---------------------------------------------------------------------------
# size distribution helpers

def test_distribution_from_sizes_and_moments():
    dist = SizeDistribution.from_sizes([1, 1, 3])
    assert dist.counts == {1: 2, 3: 1}
    assert dist.n_vertices == 5
    assert dist.n_components == 3
    assert dist.power_sum(2) == 11
    assert dist.s(2) == pytest.approx(2.2)
    assert dist.s(3) == pytest.approx(29 / 5)


def test_distribution_second_largest_conventions():
    assert SizeDistribution({4: 1}).c2 == 0
    assert SizeDistribution({4: 2}).c2 == 4
    assert SizeDistribution({4: 1, 2: 3}).c2 == 2


def test_distribution_validate_rejects_garbage():
    with pytest.raises(ValueError):
        SizeDistribution({0: 3}).validate()
    with pytest.raises(ValueError):
        SizeDistribution({2: -1}).validate()


# ---------------------------------------------------------------------------
# brute-force oracle, then ledger vs oracle

def test_brute_force_hand_case_path():
    got = brute_force_moments([(0, 1), (1, 2)], 3)
    assert got.s1 == 3
    assert got.s2 == 9
    assert got.s3 == 27
    assert got.s4 == 81
    assert (got.c1, got.c2, got.n1) == (3, 0, 0)


def test_brute_force_hand_case_with_noise():
    # duplicate edges and loops must not change anything
    edges = [(0, 1), (1, 0), (2, 2), (0, 1)]
    got = brute_force_moments(edges, 4)
    assert got.s2 == 4 + 1 + 1
    assert (got.c1, got.c2, got.n1) == (2, 1, 2)


@st.composite
def edge_sequences(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(0, 60))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    return n, edges


@given(edge_sequences())
def test_ledger_matches_brute_force_after_every_insertion(case):
    n, edges = case
    forest, led = ledger_init(n)
    for i, (u, v) in enumerate(edges):
        add_edge(forest, led, u, v)
        want = brute_force_moments(edges[: i + 1], n)
        assert led.s_sums == [want.s1, want.s2, want.s3, want.s4]
        assert led.c1_size == want.c1
        assert led.n1_isolated == want.n1


@given(edge_sequences())
def test_ledger_invariants(case):
    """Structural facts that hold for any component layout."""
    n, edges = case
    forest, led = ledger_init(n)
    for u, v in edges:
        add_edge(forest, led, u, v)
    s1, s2, s3, s4 = led.s_sums
    assert s1 == n
    assert s1 <= s2 <= s3 <= s4
    # Cauchy-Schwarz on the size-biased component size
    assert s2 * s2 <= s3 * s1
    assert s3 * s3 <= s2 * s4
    # every merge adds at least 2 to S2
    merges = n - sum(1 for _ in forest.roots())
    assert s2 >= n + 2 * merges
    dist = snapshot_distribution(forest)
    assert dist.n_vertices == n
    assert dist.power_sum(2) == s2
    assert dist.c1 == led.c1_size
    assert dist.n1 == led.n1_isolated


def test_forest_binary_merge_tower():
    forest, led = ledger_init(1024)
    # binary-tree merge order exercises the union-by-size rule
    step = 1
    while step < 1024:
        for a in range(0, 1024, 2 * step):
            add_edge(forest, led, a, a + step)
        step *= 2
    assert led.c1_size == 1024
    assert led.s_sums[1] == 1024 * 1024
    assert sum(1 for _ in forest.roots()) == 1
