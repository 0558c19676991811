"""percolab: phase transitions in modified uniform-edge graph processes.

Simulates uniform-edge (three variants) and two-choice (bounded-size
and product-rule) graph processes with exact incremental component
moments, integrates the deterministic limit system to locate the
critical time and growth constants, solves the giant-component
survival equation, and reproduces the theory's numerical claims at
desk scale through a seeded experiment harness.
"""
from .errors import (
    BracketError,
    CriticalWindowError,
    InvalidConfigError,
    NonconvergenceError,
    NumericalFailureError,
)
from .giant import (
    FixedPointResult,
    SupercriticalBounds,
    bf_growth_prediction,
    solve_rho,
    supercritical_bounds,
)
from .harness import ExperimentConfig, run_config, run_experiment
from .ledger import (
    DisjointSetForest,
    MomentLedger,
    SizeDistribution,
    add_edge,
    delta_k,
    ledger_init,
    snapshot_distribution,
)
from .ode import (
    CriticalConstants,
    Trajectory,
    deriv_transformed,
    find_tc,
    integrate,
    sbar_k,
)
from .processes import (
    InitialGraphSpec,
    ProcessKind,
    Simulation,
    Snapshot,
    TraceRecord,
    poisson_edge_count,
    run_process,
)

__version__ = "0.1.0"
