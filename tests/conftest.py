"""Shared fixtures for the percolab test suite.

The ODE integration and critical-constant search are comparatively expensive
(a few hundred ms each), so they are computed once per session and shared.

The raw moment system lives here and not in the package: the package
integrates only the transformed system, and scipy's solve_ivp integrates
the raw one as an oracle that shares no code with percolab.dop853.
"""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from scipy.integrate import solve_ivp

import percolab

settings.register_profile(
    "percolab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("percolab")


def child_env():
    """Environment for a child ``python -m percolab`` that runs the package under test.

    The directory holding the imported ``percolab`` goes first on PYTHONPATH as
    an absolute path, so the child finds the same copy whatever its working
    directory, ahead of any installed one.
    """
    env = dict(os.environ)
    src = str(Path(percolab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(autouse=True)
def recount_every_snapshot(monkeypatch):
    """Follow every snapshot with the full recount of the forest that a run
    makes only after its last snapshot, so each test checks the union-find
    wherever it observes it."""
    snapshot = percolab.Simulation.snapshot

    def checked(self):
        snap = snapshot(self)
        self.check_forest()
        return snap

    monkeypatch.setattr(percolab.Simulation, "snapshot", checked)


@pytest.fixture(scope="session")
def constants():
    """Critical constants at the default tolerance."""
    return percolab.find_tc()


def deriv_raw(t: float, y) -> list[float]:
    """Right-hand side of the raw (xbar, s2, s3, s4) moment system, which
    starts at (1, 1, 1, 1) and whose s2 blows up at the critical time."""
    x, s2, s3, s4 = y
    x2 = x * x
    q = 1.0 - x2
    return [
        -x2 - q * x,
        x2 + q * s2 * s2,
        3.0 * x2 + 3.0 * q * s2 * s3,
        7.0 * x2 + q * (4.0 * s2 * s4 + 3.0 * s3 * s3),
    ]


@pytest.fixture(scope="session")
def traj():
    """Transformed-system trajectory integrated through the critical time."""
    return percolab.integrate(t_end=1.4, tol=1e-12)


@pytest.fixture(scope="session")
def raw_sol():
    """scipy's dense solution of the raw system on the subcritical side only:
    raw_sol(t) is (xbar, s2, s3, s4) for 0 <= t <= 1.1."""
    return solve_ivp(deriv_raw, (0.0, 1.1), [1.0, 1.0, 1.0, 1.0], method="DOP853",
                     rtol=1e-12, atol=1e-12, dense_output=True).sol
