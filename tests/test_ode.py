"""Limit ODEs: derivative algebra, closed forms, the singular transform and
the critical constants extracted from it."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env, deriv_raw
from scipy.integrate import cumulative_simpson, solve_ivp

import percolab
from percolab import (
    CriticalWindowError,
    Trajectory,
    deriv_transformed,
    dop853,
    find_tc,
    sbar_k,
)


def reconstruct_g(traj, t: float, npts: int = 2001) -> float:
    """g(t) rebuilt from the integrating factor, independent of the g ODE.

    g(t) = exp(-G(t)) * (1 + 3 * integral of exp(G) xbar^2 f^3), where the
    integrating factor G(t) is 3 * integral of xbar^2 f on [0, t].
    """
    ts = np.linspace(0.0, t, npts)
    states = np.array([traj.state(s) for s in ts]).T
    x2, f = states[0] ** 2, states[1]
    G = 3.0 * cumulative_simpson(x2 * f, x=ts, initial=0.0)
    inner = cumulative_simpson(np.exp(G) * x2 * f**3, x=ts, initial=0.0)
    return float(math.exp(-G[-1]) * (1.0 + 3.0 * inner[-1]))


# ---------------------------------------------------------------------------
# derivative fields at hand-checked points

def test_raw_derivatives_at_start():
    x, s2, s3, s4 = deriv_raw(0.0, np.array([1.0, 1.0, 1.0, 1.0]))
    assert x == pytest.approx(-1.0)
    assert s2 == pytest.approx(1.0)
    assert s3 == pytest.approx(3.0)
    assert s4 == pytest.approx(7.0)


def test_transformed_derivatives_at_start():
    x, f, g, h1 = deriv_transformed(0.0, np.array([1.0, 1.0, 1.0, -2.0]))
    assert x == pytest.approx(-1.0)
    assert f == pytest.approx(-1.0)
    assert g == pytest.approx(0.0)
    assert h1 == pytest.approx(0.0)


def test_transformed_derivatives_with_no_isolated_vertices():
    # x = 0 kills every term except the constant ER drift in f
    x, f, g, h1 = deriv_transformed(0.3, np.array([0.0, 0.7, 1.2, -1.0]))
    assert x == pytest.approx(0.0)
    assert f == pytest.approx(-1.0)
    assert g == pytest.approx(0.0)
    assert h1 == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# closed forms and cross-system agreement

@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_no_isolated_vertices_reduces_to_er_susceptibility(t):
    traj = Trajectory(0.99, dop853.solve(deriv_transformed, [0.0, 1.0, 1.0, -2.0], 0.99, 1e-12))
    s2 = sbar_k(traj, t)[0]
    assert abs(s2 * (1.0 - t) - 1.0) < 1e-9


def test_raw_and_transformed_systems_agree(traj, raw_sol):
    for t in (0.25, 0.6, 1.0):
        x, *want = raw_sol(t)
        for a, b in zip(sbar_k(traj, t), want):
            assert a == pytest.approx(b, rel=1e-10)
        assert traj.xbar(t) == pytest.approx(x, rel=1e-10)


def test_raw_system_blows_up_before_window_end(constants):
    # s2 ~ alpha/(tc - t), so s2 reaches 1e6 about alpha * 1e-6 before tc
    def s2_cap(t, y):
        return y[1] - 1.0e6

    s2_cap.terminal = True
    sol = solve_ivp(deriv_raw, (0.0, 1.4), [1.0, 1.0, 1.0, 1.0], method="DOP853",
                    rtol=1e-10, atol=1e-10, events=s2_cap)
    assert sol.status == 1
    (t,) = sol.t_events[0]
    assert constants.tc - 1e-5 < t < constants.tc


def test_transformed_system_passes_through_singularity(traj):
    # f crosses zero and keeps going; state at 1.3 is finite and sane
    _, f, g, h1 = traj.state(1.3)
    assert f < 0.0
    assert math.isfinite(g) and math.isfinite(h1)


def test_sbar_refuses_the_critical_window(traj, constants):
    with pytest.raises(CriticalWindowError):
        sbar_k(traj, constants.tc)


def test_xbar_monotone_decreasing(traj):
    ts = np.linspace(0.0, 1.3, 53)
    xs = [traj.xbar(float(t)) for t in ts]
    assert all(a > b for a, b in zip(xs, xs[1:]))
    assert 0.0 < xs[-1] < 1.0


def test_moment_inequalities_hold_along_trajectory(raw_sol):
    for t in np.linspace(0.05, 1.05, 21):
        _, s2, s3, s4 = raw_sol(float(t))
        assert 1.0 <= s2 <= s3 <= s4
        assert s2**2 <= s3 * (1 + 1e-12)
        assert s3**2 <= s2 * s4 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# critical constants

def test_constants_reference_values(constants):
    c = constants
    assert c.tc == pytest.approx(1.1763, abs=1e-3)
    assert c.x_tc == pytest.approx(0.2438, abs=1e-3)
    assert c.alpha == pytest.approx(1.063, abs=5e-3)
    assert c.beta == pytest.approx(0.764, abs=5e-3)
    assert c.g3 == pytest.approx(0.917, abs=1e-2)
    assert c.g4 == pytest.approx(2.375, abs=2e-2)
    assert c.gamma == pytest.approx(2.463, abs=1e-2)


def test_constants_internal_identities(constants):
    c = constants
    assert c.g2 == pytest.approx(c.alpha, rel=1e-12)
    assert c.g3 == pytest.approx(c.beta * c.alpha**3, rel=1e-12)
    assert c.g4 == pytest.approx(3 * c.beta**2 * c.alpha**5, rel=1e-12)
    # gamma * alpha * beta = 2 exactly, by construction of gamma
    assert c.gamma * c.alpha * c.beta == pytest.approx(2.0, rel=1e-12)


def test_constants_stable_under_tolerance_halving(constants):
    loose = find_tc(tol=1e-6)
    assert abs(loose.tc - constants.tc) < 1e-6
    assert abs(loose.alpha - constants.alpha) < 1e-5


def test_find_tc_and_critical_trajectory_integrate_the_fine_system_once(monkeypatch):
    ode = percolab.ode
    calls = []
    real = ode.integrate
    monkeypatch.setattr(ode, "integrate", lambda *a: calls.append(a) or real(*a))
    ode.find_tc.cache_clear()
    ode._cached_traj.cache_clear()
    ode.find_tc()
    ode.critical_trajectory()
    assert calls == [(ode.T_SPAN_MAX, 1e-12), (ode.T_SPAN_MAX, 1e-8)]


def test_reported_errors_are_small_and_positive(constants):
    for name in constants.FIELDS:
        err = getattr(constants, name + "_err")
        assert 0.0 < err < 1e-4


def test_f_slope_at_critical_time_equals_minus_inverse_alpha(traj, constants):
    h = 1e-6
    slope = (traj.f(constants.tc + h) - traj.f(constants.tc - h)) / (2 * h)
    assert slope == pytest.approx(-1.0 / constants.alpha, abs=1e-6)


def test_f_vanishes_at_critical_time(traj, constants):
    assert abs(traj.f(constants.tc)) < 1e-9


# ---------------------------------------------------------------------------
# approach to the singularity

def test_susceptibility_divergence_rate(traj, constants):
    """s2 ~ alpha/eps with an error that shrinks as eps does."""
    c = constants
    devs = []
    for eps in (0.2, 0.1):
        s2, s3, s4 = sbar_k(traj, c.tc - eps)
        devs.append(abs(s2 * eps / c.alpha - 1.0))
        if eps == 0.1:
            assert s3 / s2**3 == pytest.approx(c.beta, rel=0.10)
            assert s4 / s2**5 == pytest.approx(3 * c.beta**2, rel=0.15)
    assert devs[1] < devs[0]
    assert devs[1] < 0.2


def test_g_is_quadratically_flat_at_critical_time(traj, constants):
    # g(tc) - g(tc - eps) ~ C eps^2, so doubling eps quadruples the gap
    g = traj.g
    tc = constants.tc
    for eps in (0.05, 0.02):
        ratio = (g(tc) - g(tc - 2 * eps)) / (g(tc) - g(tc - eps))
        assert 3.5 < ratio < 4.6


def test_g_reconstruction_from_quadrature(traj, constants):
    """Rebuilding g by integrating factor bypasses its ODE entirely."""
    assert reconstruct_g(traj, constants.tc) == pytest.approx(
        constants.beta, abs=1e-8
    )
    assert reconstruct_g(traj, 0.8) == pytest.approx(
        traj.g(0.8), abs=1e-8
    )


# ---------------------------------------------------------------------------
# scripts/sweep_critical_window.py, the one caller of integrate outside the package

def test_critical_window_sweep_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_critical_window.py"
    proc = subprocess.run([sys.executable, str(script), "--n", "20000", "--points", "5"],
                          capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "t,side,c1_frac,s2,s2_pred,c1_pred"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 5
    sub = [row for row in rows if row[1] == "sub"]
    assert sub and all(row[4] for row in sub)
