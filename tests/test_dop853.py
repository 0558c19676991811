"""percolab.dop853 against scipy, the code it ports: equal bits, not
closeness. The package never imports scipy's solvers; this test does, as
the oracle."""

import math

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import solve_ivp

from conftest import deriv_raw
from percolab import dop853, ode
from percolab.errors import BracketError, NonconvergenceError, NumericalFailureError

TOLS = (1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
SYSTEMS = {
    "transformed": (ode.deriv_transformed, [1.0, 1.0, 1.0, -2.0], 1.4),
    "raw": (deriv_raw, [1.0, 1.0, 1.0, 1.0], 0.9),
    "raw-uniform": (deriv_raw, [0.0, 1.0, 1.0, 1.0], 0.9),
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_dense_output_equals_scipy_bit_for_bit(system, tol):
    deriv, y0, t_end = SYSTEMS[system]
    want = solve_ivp(deriv, (0.0, t_end), y0, method="DOP853", rtol=tol, atol=tol,
                     dense_output=True)
    got = dop853.solve(deriv, y0, t_end, tol)
    assert np.array_equal(got.ts, want.t)
    for t in [*np.linspace(0.0, t_end, 997), *want.t]:
        assert np.array_equal(got(t), want.sol(t)), t


def scipy_brentq(f, a, b, xtol, rtol):
    return float(scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol))


@pytest.mark.parametrize("tol", [1e-12, 1e-8])  # find_tc's fine and coarse runs
def test_brent_on_the_f_crossing_equals_scipy(tol):
    traj = ode.integrate(ode.T_SPAN_MAX, tol)
    ts = np.linspace(0.9, traj.t_end, 101)
    i = next(i for i in range(100) if traj.f(ts[i]) > 0.0 >= traj.f(ts[i + 1]))
    for xtol in (1e-8, 1e-10, 1e-12):
        got = dop853.brentq(traj.f, ts[i], ts[i + 1], xtol, 8.9e-16)
        assert got == scipy_brentq(traj.f, ts[i], ts[i + 1], xtol, 8.9e-16)


def random_bracketed(rng):
    """A function with a sign change on [a, b]: smooth, kinked, flat or
    steep, and now and then zero at an end."""
    r = rng.uniform(-1.0, 1.0)
    c = rng.normal(size=4)
    shape = rng.integers(6)
    if shape == 0:
        f = lambda x: c[0] * (x - r) + c[1] * (x - r) ** 3
    elif shape == 1:
        f = lambda x: math.tanh(5 * c[0] * (x - r)) + 0.1 * c[1]
    elif shape == 2:
        f = lambda x: math.exp(c[0] * x) - math.exp(c[0] * r) + c[2] * (x - r) ** 2
    elif shape == 3:
        f = lambda x: math.copysign(abs(x - r) ** 0.3, x - r) * (1 + c[1] ** 2)
    elif shape == 4:
        f = lambda x: (x - r) ** 5 + c[3] * 1e-3 * (x - r)
    else:
        f = lambda x: math.floor(4 * (x - r)) + 0.5 + c[0] * 1e-9
    a, b = r - rng.uniform(1e-3, 2.0), r + rng.uniform(1e-3, 2.0)
    if rng.random() < 0.02:
        a = r
    return f, a, b


def test_brent_equals_scipy_on_random_bracketed_functions():
    rng = np.random.default_rng(20261019)
    compared = 0
    while compared < 1500:
        f, a, b = random_bracketed(rng)
        fa, fb = f(a), f(b)
        if math.isnan(fa) or math.isnan(fb) or (fa != 0 and fb != 0 and (fa > 0) == (fb > 0)):
            continue
        xtol = 10.0 ** rng.uniform(-14, -2)
        rtol = 8.9e-16 * 10.0 ** rng.uniform(0, 6)
        assert dop853.brentq(f, a, b, xtol, rtol) == scipy_brentq(f, a, b, xtol, rtol)
        compared += 1


@pytest.mark.parametrize("tol", [1e-8, 2e-8])
def test_find_tc_equals_its_value_through_scipy(monkeypatch, tol):
    """find_tc with the ports swapped for scipy's own solve_ivp and brentq."""

    class Scipy:
        @staticmethod
        def solve(deriv, y0, t_end, tol):
            return solve_ivp(deriv, (0.0, t_end), y0, method="DOP853", rtol=tol, atol=tol,
                             dense_output=True).sol

        brentq = staticmethod(scipy_brentq)

    def fresh_find_tc():
        ode.find_tc.cache_clear()
        ode._cached_traj.cache_clear()
        return ode.find_tc(tol).as_dict()

    try:
        got = fresh_find_tc()
        with monkeypatch.context() as m:
            m.setattr(ode, "dop853", Scipy)
            want = fresh_find_tc()
    finally:
        ode.find_tc.cache_clear()
        ode._cached_traj.cache_clear()
    assert got == want


@pytest.mark.parametrize("deriv", [
    lambda t, y: y * y,  # y(0) = 1 blows up at t = 1, where the step shrinks to nothing
    lambda t, y: math.nan * y,  # a NaN first step, which scipy retries forever
], ids=["blow-up", "nan"])
def test_a_failing_step_raises_numerical_failure(deriv):
    with pytest.raises(NumericalFailureError, match="integration failed"):
        dop853.solve(deriv, [1.0], 2.0, 1e-8)


@pytest.mark.parametrize("f, a, b, xtol, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, BracketError),
    (lambda x: math.nan if x > 0.25 else x, -1.0, 1.0, 1e-12, NumericalFailureError),
    # a jump at 0 bracketed by +-1e300 needs about 2000 bisections to reach 1e-300
    (lambda x: -1.0 if x < 0.0 else 1.0, -1e300, 1e300, 1e-300, NonconvergenceError),
], ids=["same-sign", "nan", "no-convergence"])
def test_brent_refuses_what_scipy_refuses(f, a, b, xtol, error):
    with pytest.raises((ValueError, RuntimeError)):
        scipy_brentq(f, a, b, xtol, 8.9e-16)
    with pytest.raises(error):
        dop853.brentq(f, a, b, xtol, 8.9e-16)
