"""Giant-component predictions from a component-size distribution.

The survival equation rho = 1 - E exp(-rho t Z), with Z the size of
the component containing a uniformly random vertex, has a unique
positive root exactly when t * s2 > 1; that root is the limiting
largest-component fraction after adding uniform edges at density t to
a graph with size-biased moments E Z^k = s_{k+1}. Closed-form lower
and upper bounds near the threshold are provided alongside the solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfigError, NonconvergenceError
from .ledger import SizeDistribution
from .ode import CriticalConstants

__all__ = [
    "FixedPointResult",
    "SupercriticalBounds",
    "solve_rho",
    "supercritical_bounds",
    "bf_growth_prediction",
]

REGIME_SUPER = "supercritical"
REGIME_SUB = "(sub)critical"
MAX_ITER = 200


@dataclass(frozen=True)
class FixedPointResult:
    rho: float
    iterations: int
    bracket_width: float
    regime: str


def _phi_terms(dist: SizeDistribution):
    # (size, vertex-mass weight) pairs; one exponential per distinct size
    n = dist.n_vertices
    return [(s, s * cnt / n) for s, cnt in dist.counts.items()]


def solve_rho(dist: SizeDistribution, t: float, tol: float = 1.0e-10) -> FixedPointResult:
    """Unique nonnegative root of rho = 1 - sum_i (C_i/n) exp(-rho t C_i).

    Returns rho = 0 in the (sub)critical regime t * s2 <= 1. Otherwise
    brackets [tol, 1] and bisects (the map is increasing and concave,
    so the positive root is unique), then polishes with Newton steps
    until the residual drops below tol.
    """
    if not 0 < t < math.inf:
        raise InvalidConfigError("t must be finite and > 0")
    if not dist.counts:
        raise InvalidConfigError("empty distribution")
    if not 0.0 < tol < 1.0:
        raise InvalidConfigError("tol must be in (0, 1)")
    if t * dist.s(2) <= 1.0:
        return FixedPointResult(rho=0.0, iterations=0, bracket_width=0.0, regime=REGIME_SUB)
    terms = _phi_terms(dist)

    def residual(s: float) -> float:
        # phi(s) - s
        return 1.0 - sum(w * math.exp(-s * t * c) for c, w in terms) - s

    def residual_deriv(s: float) -> float:
        return t * sum(w * c * math.exp(-s * t * c) for c, w in terms) - 1.0

    lo, hi = tol, 1.0
    f_lo = residual(lo)
    if f_lo <= 0.0:
        raise NonconvergenceError(
            f"no sign change on [{tol:g}, 1]; tolerance too extreme for this instance"
        )
    iterations = 0
    while hi - lo > tol and iterations < MAX_ITER:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    for _ in range(8):
        r = residual(rho)
        if abs(r) <= tol:
            break
        d = residual_deriv(rho)
        if d == 0.0:
            break
        step = r / d
        nxt = rho - step
        if not lo <= nxt <= hi:
            break
        rho = nxt
        iterations += 1
    if abs(residual(rho)) > tol:
        raise NonconvergenceError(
            f"residual {abs(residual(rho)):.2e} above tol {tol:g} after {iterations} iterations"
        )
    return FixedPointResult(
        rho=rho, iterations=iterations, bracket_width=hi - lo, regime=REGIME_SUPER
    )


@dataclass(frozen=True)
class SupercriticalBounds:
    """Closed-form sandwich for the giant fraction just above threshold."""

    delta_n: float
    lower: float
    upper: float
    upper_valid: bool


def supercritical_bounds(s2: float, s3: float, s4: float, t: float) -> SupercriticalBounds:
    """Bounds 2 d (s2^3/s3)(1 - 2 d s2) <= rho <= 2 d (s2^3/s3)(1 + (8/3) d s2^2 s4/s3^2)
    with d = t - 1/s2; the upper bound needs d s2^2 s4 / s3^2 <= 3/8. A t so
    large that the lower bound overflows a float is refused.
    """
    if s2 * s2 > s3 * (1.0 + 1.0e-9) or s3 * s3 > s2 * s4 * (1.0 + 1.0e-9):
        raise InvalidConfigError("moments violate the size-biased inequalities")
    delta = t - 1.0 / s2
    if delta <= 0.0:
        raise InvalidConfigError(f"subcritical input: t={t} <= 1/s2={1.0 / s2}")
    base = 2.0 * delta * s2**3 / s3
    cond = delta * s2 * s2 * s4 / (s3 * s3)
    lower = base * (1.0 - 2.0 * delta * s2)
    # a valid upper bound is at most 2*base, so it is finite when this one is
    if not math.isfinite(lower):
        raise InvalidConfigError(f"the bounds at t={t} are not finite floats")
    return SupercriticalBounds(
        delta_n=delta,
        lower=lower,
        upper=base * (1.0 + (8.0 / 3.0) * cond),
        upper_valid=cond <= 3.0 / 8.0,
    )


def bf_growth_prediction(constants: CriticalConstants, delta: float) -> tuple[float, float]:
    """Predicted giant fraction gamma*delta just past the critical time.

    The theory pins the slope gamma and a correction of order
    delta^(4/3) with an unknown constant; the reported halfwidth takes
    that constant as 1, which covers desk-scale runs up to delta 0.15.
    """
    if delta <= 0:
        raise InvalidConfigError("delta must be > 0")
    return constants.gamma * delta, delta ** (4.0 / 3.0)
