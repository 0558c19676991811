"""Survival fixed point and the closed-form bounds around it."""

import math

import pytest
from conftest import rho_lower_bound, rho_upper_bound
from hypothesis import given, strategies as st

from percolab import (
    InvalidConfigError,
    NumericalFailureError,
    SizeDistribution,
    bf_growth_prediction,
    find_tc,
    solve_rho,
    supercritical_bounds,
)

SINGLETONS = SizeDistribution({1: 1000})
HALF_PAIRS = SizeDistribution({1: 500000, 2: 250000})  # s2 = 1.5


def iterated_rho(counts, t, iters=20000):
    """Independent oracle: plain fixed-point iteration of rho = 1 - phi(rho).

    The map is a contraction near the stable positive root, so starting at 1
    converges there whenever it exists.
    """
    n = sum(s * c for s, c in counts.items())
    weights = [(s, s * c / n) for s, c in counts.items()]
    rho = 1.0
    for _ in range(iters):
        rho = 1.0 - sum(w * math.exp(-rho * t * s) for s, w in weights)
    return rho


# ---------------------------------------------------------------------------
# the solver itself

def test_er_giant_fraction_at_double_critical():
    # classic value for rho = 1 - exp(-2 rho)
    got = solve_rho(SINGLETONS, 2.0)
    assert got.rho == pytest.approx(0.79681213, abs=1e-8)
    assert got.regime == "supercritical"


def test_er_giant_fraction_at_t_three_halves():
    assert solve_rho(SINGLETONS, 1.5).rho == pytest.approx(0.58281164, abs=1e-8)


def test_half_pairs_instance():
    got = solve_rho(HALF_PAIRS, 1 / 1.5 + 0.05)
    assert got.rho == pytest.approx(0.123070604, abs=1e-8)


@pytest.mark.parametrize("counts,t", [
    ({1: 1000}, 2.0),
    ({1: 1000}, 1.1),
    ({1: 100, 2: 100}, 1.0),
    ({1: 500000, 2: 250000}, 1 / 1.5 + 0.05),
    ({3: 10, 1: 5}, 0.5),
    ({2: 7, 5: 3, 1: 40}, 1.3),
])
def test_solver_matches_iteration_oracle(counts, t):
    got = solve_rho(SizeDistribution(counts), t)
    assert got.rho == pytest.approx(iterated_rho(counts, t), abs=1e-9)
    assert got.bracket_width <= 1e-10


def test_subcritical_regime_returns_zero():
    got = solve_rho(SINGLETONS, 0.9)
    assert got.rho == 0.0
    assert got.regime == "(sub)critical"
    assert solve_rho(HALF_PAIRS, 1 / 1.5).rho == 0.0  # boundary included


def test_rho_vanishes_continuously_at_threshold():
    assert solve_rho(SINGLETONS, 1.0 + 1e-4).rho < 1e-3


def test_rho_increasing_in_t():
    vals = [solve_rho(SINGLETONS, t).rho for t in (1.1, 1.3, 1.7, 2.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_solver_input_validation():
    with pytest.raises(InvalidConfigError):
        solve_rho(SINGLETONS, 0.0)
    with pytest.raises(InvalidConfigError):
        solve_rho(SizeDistribution({}), 1.5)
    with pytest.raises(InvalidConfigError):
        solve_rho(SINGLETONS, 1.5, tol=2.0)


def test_solver_flags_unreachable_tolerance():
    with pytest.raises(NumericalFailureError):
        solve_rho(HALF_PAIRS, 1 / 1.5 + 0.05, tol=1e-300)


# ---------------------------------------------------------------------------
# closed-form bounds

def test_lower_bound_for_all_pairs_start():
    # Y identically 2: rho >= 2(EY - 1)/EY^2 = 1/2
    assert rho_lower_bound(2.0, 4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        rho_lower_bound(1.0, 1.0)


def test_upper_bound_condition_can_fail():
    val, ok = rho_upper_bound(2.0, 4.0, 8.0)
    assert not ok
    assert math.isnan(val)


def test_upper_bound_when_condition_holds():
    # EY barely above 1 keeps 8(EY-1)EY^3 <= 3(EY^2)^2
    val, ok = rho_upper_bound(1.05, 1.2, 1.5)
    assert ok
    assert val > 0.0
    assert val >= rho_lower_bound(1.05, 1.2) - 1e-12


def test_supercritical_bounds_half_pairs():
    got = supercritical_bounds(1.5, 2.5, 4.5, 1 / 1.5 + 0.05)
    assert got.delta_n == pytest.approx(0.05)
    assert got.lower == pytest.approx(0.11475, rel=1e-9)
    assert got.upper == pytest.approx(0.16416, rel=1e-9)
    assert got.upper_valid
    rho = solve_rho(HALF_PAIRS, 1 / 1.5 + 0.05).rho
    assert got.lower < rho < got.upper


def test_supercritical_bounds_rejects_subcritical_and_bad_moments():
    with pytest.raises(InvalidConfigError):
        supercritical_bounds(1.5, 2.5, 4.5, 0.5)  # delta <= 0
    with pytest.raises(InvalidConfigError):
        supercritical_bounds(2.0, 3.0, 4.0, 1.0)  # violates s2^2 <= s3


@st.composite
def supercritical_instances(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True))
    counts = {s: draw(st.integers(1, 50)) for s in sizes}
    dist = SizeDistribution(counts)
    rel = draw(st.floats(0.02, 1.5))
    return dist, (1.0 + rel) / dist.s(2)


@given(supercritical_instances())
def test_bound_sandwich(case):
    """Lower bound below the root, upper bound above it whenever valid.

    The moment bounds concern the equation rho = 1 - E exp(-rho Y), so for
    an instance (F, t) they apply to Y = t Z with E Y^k = t^k s_{k+1}.
    """
    dist, t = case
    rho = solve_rho(dist, t).rho
    assert rho > 0.0
    s2, s3, s4 = dist.s(2), dist.s(3), dist.s(4)

    ey, ey2, ey3 = t * s2, t**2 * s3, t**3 * s4
    assert rho_lower_bound(ey, ey2) <= rho + 1e-9
    upper, ok = rho_upper_bound(ey, ey2, ey3)
    if ok:
        assert rho <= upper + 1e-9

    # the delta-parameterized forms weaken those and never need scaling
    b = supercritical_bounds(s2, s3, s4, t)
    assert b.lower <= rho + 1e-9
    if b.upper_valid:
        assert rho <= b.upper + 1e-9


# ---------------------------------------------------------------------------
# growth prediction helper

def test_growth_prediction_center_and_band():
    c = find_tc()
    center1, half1 = bf_growth_prediction(c, 0.1)
    center2, half2 = bf_growth_prediction(c, 0.05)
    assert center1 == pytest.approx(c.gamma * 0.1, rel=1e-12)
    assert center2 / center1 == pytest.approx(0.5, rel=1e-12)
    assert half2 / half1 == pytest.approx(2 ** (-4 / 3), rel=1e-12)
    assert half1 == 0.1 ** (4 / 3)
