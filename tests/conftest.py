"""Shared fixtures for the percolab test suite.

The ODE integration and critical-constant search are comparatively expensive
(a few hundred ms each), so they are computed once per session and shared.
"""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

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


@pytest.fixture(scope="session")
def traj():
    """Transformed-system trajectory integrated through the critical time."""
    return percolab.integrate("transformed", t_end=1.4, tol=1e-12)


@pytest.fixture(scope="session")
def raw_traj():
    """Raw-system trajectory on the subcritical side only."""
    return percolab.integrate("raw", t_end=1.1, tol=1e-12)
