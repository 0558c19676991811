"""Deterministic limit system for the bounded-size process.

The limiting isolated-vertex fraction xbar and scaled susceptibility
moments sbar2, sbar3, sbar4 evolve by a raw moment system whose sbar2
blows up at a finite critical time t_c. The package integrates only the
transformed system in

    f = 1/sbar2,  g = sbar3/sbar2^3,  h1 = sbar4/sbar2^4 - 3 g^2 / f,

which stays regular through the singularity; t_c is the first zero of
f. The growth constants follow from xbar(t_c) and g(t_c). The raw
system is the tests' oracle, integrated there by scipy. Here DOP853
with dense output and Brent's method come from the numpy-only ports in
dop853.py, which compute what scipy's solve_ivp and brentq compute, bit
for bit, without loading scipy's solvers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import dop853
from .errors import BracketError, CriticalWindowError

__all__ = [
    "CriticalConstants",
    "Trajectory",
    "deriv_transformed",
    "integrate",
    "find_tc",
    "sbar_k",
]

F_FLOOR = 1.0e-6  # moments are not reported closer to critical than this
T_SPAN_MAX = 1.4  # comfortably past the critical time
DEFAULT_ODE_TOL = 1.0e-10


def deriv_transformed(t: float, y) -> list[float]:
    """Right-hand side of the (xbar, f, g, h1) system; regular at f = 0."""
    x, f, g, h1 = y
    x2 = x * x
    return [
        -x2 - (1.0 - x2) * x,
        -x2 * f * f - (1.0 - x2),
        3.0 * x2 * f * f * f - 3.0 * x2 * f * g,
        7.0 * x2 * f**4 - 18.0 * x2 * g * f * f + 3.0 * x2 * g * g - 4.0 * x2 * f * h1,
    ]


@dataclass(frozen=True)
class Trajectory:
    """Dense-output solution of the (xbar, f, g, h1) system on [0, t_end]."""

    t_end: float
    _sol: object

    def state(self, t: float) -> np.ndarray:
        if not 0.0 <= t <= self.t_end:
            raise ValueError(f"t={t} outside [0, {self.t_end}]")
        return self._sol(t)

    def xbar(self, t: float) -> float:
        return float(self.state(t)[0])

    def f(self, t: float) -> float:
        return float(self.state(t)[1])

    def g(self, t: float) -> float:
        return float(self.state(t)[2])


def integrate(t_end: float = T_SPAN_MAX, tol: float = DEFAULT_ODE_TOL) -> Trajectory:
    """DOP853 with dense output from (xbar, f, g, h1) = (1, 1, 1, -2) at t = 0."""
    sol = dop853.solve(deriv_transformed, [1.0, 1.0, 1.0, -2.0], t_end, tol)
    return Trajectory(t_end, sol)


@dataclass(frozen=True)
class CriticalConstants:
    """Critical time and growth constants, with per-field error estimates.

    Exact relations: g2 = alpha = 1/(1 - x_tc^2), gamma = 2/(alpha*beta),
    g3 = beta*alpha^3, g4 = 3*beta^2*alpha^5.
    """

    tc: float
    x_tc: float
    alpha: float
    beta: float
    gamma: float
    g2: float
    g3: float
    g4: float
    tc_err: float
    x_tc_err: float
    alpha_err: float
    beta_err: float
    gamma_err: float
    g2_err: float
    g3_err: float
    g4_err: float

    FIELDS = ("tc", "x_tc", "alpha", "beta", "gamma", "g2", "g3", "g4")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _locate_tc(traj: Trajectory, xtol: float) -> float:
    ts = np.linspace(0.9, traj.t_end, 101)
    fs = [traj.f(t) for t in ts]
    for i in range(len(ts) - 1):
        if fs[i] > 0.0 >= fs[i + 1]:
            return dop853.brentq(traj.f, ts[i], ts[i + 1], xtol, 8.9e-16)
    raise BracketError("f never crossed zero; integration span too short?")


def _constants_at(traj: Trajectory, tc: float) -> dict[str, float]:
    x = traj.xbar(tc)
    beta = traj.g(tc)
    alpha = 1.0 / (1.0 - x * x)
    return {
        "tc": tc,
        "x_tc": x,
        "alpha": alpha,
        "beta": beta,
        "gamma": 2.0 * (1.0 - x * x) / beta,
        "g2": alpha,
        "g3": beta * alpha**3,
        "g4": 3.0 * beta * beta * alpha**5,
    }


@functools.lru_cache(maxsize=16)
def find_tc(tol: float = 1.0e-8, ode_tol: float | None = None) -> CriticalConstants:
    """Locate the critical time and compute the growth constants.

    tol bounds the root search for t_c; the trajectory itself is
    integrated at ode_tol (default well below tol). Error estimates
    compare against a rerun at a much coarser integration tolerance, so
    halving either tolerance moves each value by less than its err.
    """
    if ode_tol is None:
        ode_tol = min(DEFAULT_ODE_TOL * 0.01, tol * 1.0e-4)
    ode_tol = max(ode_tol, 1.0e-13)
    fine = _cached_traj(ode_tol)  # the trajectory critical_trajectory() shares
    tc = _locate_tc(fine, xtol=min(tol, 1.0e-8))
    vals = _constants_at(fine, tc)
    coarse = integrate(T_SPAN_MAX, min(ode_tol * 1.0e4, 1.0e-6))
    tc_c = _locate_tc(coarse, xtol=min(tol, 1.0e-8))
    vals_c = _constants_at(coarse, tc_c)
    errs = {
        k + "_err": max(4.0 * abs(vals[k] - vals_c[k]), 1.0e-12 * max(1.0, abs(vals[k])))
        for k in vals
    }
    errs["tc_err"] = max(errs["tc_err"], tol)
    return CriticalConstants(**vals, **errs)


def critical_trajectory() -> Trajectory:
    """The trajectory find_tc() integrates at its default ode_tol, shared."""
    return _cached_traj(DEFAULT_ODE_TOL * 0.01)


@functools.lru_cache(maxsize=4)
def _cached_traj(tol: float) -> Trajectory:
    return integrate(T_SPAN_MAX, tol)


def sbar_k(traj: Trajectory, t: float) -> tuple[float, float, float]:
    """(s2, s3, s4) limits at subcritical t, recovered from (f, g, h1)."""
    _, f, g, h1 = (float(v) for v in traj.state(t))
    if f < F_FLOOR:
        raise CriticalWindowError(
            f"f(t)={f:.2e} below {F_FLOOR:g}; too close to the critical time"
        )
    s2 = 1.0 / f
    s3 = g * s2**3
    s4 = (h1 + 3.0 * g * g / f) * s2**4
    return s2, s3, s4

