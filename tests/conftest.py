"""Shared fixtures for the percolab test suite.

The ODE integration and critical-constant search are comparatively expensive
(a few hundred ms each), so they are computed once per session and shared.

The raw moment system lives here and not in the package: the package
integrates only the transformed system, and scipy's solve_ivp integrates
the raw one as an oracle that shares no code with percolab.dop853. So do
the other oracles no package code calls: the brute-force component
moments that check the ledger, and the survival-fraction bounds in the
moments of Y = tZ that sandwich the fixed point.
"""

import math
import os
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings
from scipy.integrate import solve_ivp

import percolab
from percolab import InvalidConfigError

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


class BruteMoments(NamedTuple):
    s1: int
    s2: int
    s3: int
    s4: int
    c1: int
    c2: int
    n1: int


def brute_force_moments(edge_list, n: int) -> BruteMoments:
    """Ground truth by fresh traversal, independent of the union-find path.

    Builds adjacency from scratch and labels components by BFS, then
    takes direct power sums. Quadratic-ish and meant for n in the
    hundreds; it exists to differentially test the ledger.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    sizes: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        count = 0
        while stack:
            x = stack.pop()
            count += 1
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        sizes.append(count)
    sizes.sort(reverse=True)
    c1 = sizes[0]
    c2 = sizes[1] if len(sizes) > 1 else 0
    return BruteMoments(
        s1=sum(sizes),
        s2=sum(s * s for s in sizes),
        s3=sum(s**3 for s in sizes),
        s4=sum(s**4 for s in sizes),
        c1=c1,
        c2=c2,
        n1=sum(1 for s in sizes if s == 1),
    )


def rho_lower_bound(ey: float, ey2: float) -> float:
    """Strict lower bound 2(EY - 1)/EY^2 on the survival fraction,
    where Y = tZ."""
    if ey <= 1.0:
        raise InvalidConfigError("lower bound needs E Y > 1")
    return 2.0 * (ey - 1.0) / ey2


def rho_upper_bound(ey: float, ey2: float, ey3: float) -> tuple[float, bool]:
    """Quadratic-root upper bound, valid when 8(EY-1)EY^3 <= 3(EY^2)^2.

    Returns (bound, valid); bound is NaN when the condition fails.
    """
    if ey <= 1.0:
        raise InvalidConfigError("upper bound needs E Y > 1")
    if 8.0 * (ey - 1.0) * ey3 > 3.0 * ey2 * ey2:
        return math.nan, False
    disc = 9.0 * ey2 * ey2 - 24.0 * (ey - 1.0) * ey3
    bound = (3.0 * ey2 - math.sqrt(disc)) / (2.0 * ey3)
    weakened = (2.0 * (ey - 1.0) / ey2) * (1.0 + 8.0 * (ey - 1.0) * ey3 / (3.0 * ey2 * ey2))
    if bound > weakened * (1.0 + 1.0e-12):
        raise AssertionError("quadratic bound exceeded its weakened form")
    return bound, True
