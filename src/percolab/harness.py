"""Seeded, replicated experiments tying simulation to theory.

Each experiment is a plain sequence of replicate blocks. A block is a
list of RunSpecs, one per replicate, mapped over a module-level run
function; the seed allocator gives the k-th run of the experiment, in
the order the blocks run, the config seed XOR k. observe() turns each
block's values into one row per replicate and a mean row with its
standard error, next to the ODE, fixed-point or closed-form prediction.
Reruns with the same config write a byte-identical CSV; timestamps live
in a separate .meta.json sidecar. Both files are replaced atomically.
EXPERIMENTS states, once per experiment, what it asks of its config.
"""
from __future__ import annotations

import datetime as _dt
import itertools
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy

from .errors import InvalidConfigError
from .giant import bf_growth_prediction, solve_rho, supercritical_bounds
from .ode import critical_trajectory, find_tc, sbar_k
from .processes import (
    InitialGraphSpec,
    ProcessKind,
    Simulation,
    TraceRecord,
    poisson_edge_count,
    run_process,
)

__all__ = [
    "CSV_COLUMNS",
    "ResultRow",
    "CheckResult",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentOutcome",
    "RunSpec",
    "run_experiment",
    "write_csv",
    "write_meta",
    "run_config",
]

CSV_COLUMNS = [
    "experiment", "run_id", "seed", "n", "process", "t", "delta",
    "observable", "value", "prediction", "pred_source",
    "abs_err", "rel_err", "stderr",
]

SRC_ODE = "ode"
SRC_FIXED_POINT = "fixed_point"
SRC_CLOSED_FORM = "closed_form"

# the growth delta whose mean c1_frac is checked against gamma*delta
GROWTH_LEVEL_DELTA = 0.1
# growth deltas above this get no prediction and stay out of the slope fit:
# the linear law is only established near the transition
SLOPE_MAX_DELTA = 0.15
# a block holds each replicate's seed, spec, result and rows at once, 2.5 kB
# per grid point, and a run draws at least a PIECE of proposals, so 1e5
# replicates take minutes and hundreds of MB; their standard error is 0.3%
# of one run's spread
MAX_REPLICATES = 100_000


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    run_id: str
    seed: int | None
    n: int | None
    process: str
    t: float | None
    delta: float | None
    observable: str
    value: float | None
    prediction: float | None = None
    pred_source: str = ""
    stderr: float | None = None

    def csv_cells(self) -> list[str]:
        abs_err = rel_err = None
        if self.value is not None and self.prediction is not None:
            abs_err = abs(self.value - self.prediction)
            rel_err = abs_err / abs(self.prediction) if self.prediction != 0 else None
        cells = [
            self.experiment, self.run_id, _fmt(self.seed), _fmt(self.n),
            self.process, _fmt(self.t), _fmt(self.delta), self.observable,
            _fmt(self.value), _fmt(self.prediction), self.pred_source,
            _fmt(abs_err), _fmt(rel_err), _fmt(self.stderr),
        ]
        return cells


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".10g")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# each config field's annotation -> the check its value must pass, and how
# error messages name that type
_FIELD_TYPES = {
    "str": (lambda x: isinstance(x, str), "a string"),
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "float": (_is_real, "a finite number"),
    "list[float]": (lambda x: isinstance(x, list) and all(_is_real(v) for v in x),
                    "a list of finite numbers"),
}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    n: int
    replicates: int = 10
    seed: int = 42
    t_grid: list[float] = field(default_factory=list)
    delta_grid: list[float] = field(default_factory=list)
    initial: str = ""
    out: str = "results.csv"
    tol: float = 1.0e-8
    workers: int = 1
    notes: str = ""  # free text, e.g. tolerance rationale; never read by logic

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "n"} - set(data)
        if missing:
            raise InvalidConfigError(f"missing config keys: {sorted(missing)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
            raise InvalidConfigError(f"cannot parse config {path} as JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidConfigError(f"config {path} must be a JSON object")
        return cls.from_dict(data)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            check, kind = _FIELD_TYPES[f.type]
            if not check(value):
                raise InvalidConfigError(f"{f.name} must be {kind}, got {value!r}")
        if self.tol <= 0:
            raise InvalidConfigError("tol must be > 0")
        contract = EXPERIMENTS.get(self.experiment)
        if contract is None:
            raise InvalidConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}"
            )
        if self.n < 10:
            raise InvalidConfigError("n must be >= 10")
        if not 1 <= self.replicates <= MAX_REPLICATES:
            raise InvalidConfigError(f"replicates must lie in [1, {MAX_REPLICATES}]")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        if self.workers < 1:
            raise InvalidConfigError("workers must be >= 1")
        if contract.grid and not getattr(self, contract.grid):
            raise InvalidConfigError(f"{self.experiment} needs a nonempty {contract.grid}")
        if self.t_grid != sorted(self.t_grid):
            raise InvalidConfigError("t_grid must be sorted ascending")
        if any(t < 0 for t in self.t_grid):
            raise InvalidConfigError("t_grid entries must be >= 0")
        if self.experiment == "giant" and any(t == 0 for t in self.t_grid):
            raise InvalidConfigError("giant t_grid entries must be > 0")
        if self.experiment == "variant_agreement" and self.replicates < 2:
            raise InvalidConfigError("variant_agreement needs replicates >= 2")
        if self.experiment == "growth":
            if any(d < 0 or d > 0.3 for d in self.delta_grid):
                raise InvalidConfigError("growth deltas must lie in [0, 0.3]")
        if self.experiment == "two_phase":
            if any(d <= 0 or d >= 1 for d in self.delta_grid):
                raise InvalidConfigError("two_phase deltas must lie in (0, 1)")
        if InitialGraphSpec.parse(self.initial).parts and not contract.reads_initial:
            raise InvalidConfigError(
                f"{self.experiment} starts from the empty graph; initial is not used"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentOutcome:
    rows: list[ResultRow]
    checks: list[CheckResult]


@dataclass(frozen=True)
class RunSpec:
    """One replicate run, complete and picklable: what `run_process` needs."""

    kind: ProcessKind
    n: int
    seed: int
    t_end: float
    record_at: tuple[float, ...] = ()
    initial: str = ""


def run_spec(spec: RunSpec) -> list[TraceRecord]:
    return run_process(
        spec.kind, spec.n, initial=spec.initial, t_end=spec.t_end,
        record_at=spec.record_at, seed=spec.seed,
    )


def stop_restart(spec: RunSpec, continue_t: float) -> tuple[TraceRecord, float]:
    """Stop the run at spec.t_end, then add Poissonized uniform edges for a
    further continue_t, thinned by the share of non-isolated pairs; returns
    the record of the stopped graph and the final C1/n."""
    sim = Simulation(spec.kind, spec.n, initial=spec.initial, seed=spec.seed)
    sim.advance_to(math.floor(spec.n * spec.t_end / 2))
    stopped = sim.snapshot().trace(2 * sim.m / spec.n)
    extra = poisson_edge_count((1.0 - stopped.x1 * stopped.x1) * continue_t, spec.n, sim.rng)
    sim.add_er_edges(extra)
    final = sim.snapshot()
    sim.check_forest()
    return stopped, final.dist.c1 / spec.n


def seed_blocks(cfg: ExperimentConfig):
    """Seeds of successive replicate blocks: the k-th run of an experiment,
    counted in the order its blocks run, gets the config seed XOR k."""
    for start in itertools.count(0, cfg.replicates):
        yield [cfg.seed ^ k for k in range(start, start + cfg.replicates)]


def _run_ordered(fn, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # loaded here, so a run on one worker never loads the pool or its threads
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def run_block(cfg: ExperimentConfig, seeds, kind: ProcessKind, t_end: float,
              record_at=(), initial: str = "", run=run_spec) -> tuple[list[int], list]:
    """Run the next block of replicates; returns their seeds and results."""
    block = next(seeds)
    specs = [RunSpec(kind, cfg.n, s, t_end, tuple(record_at), initial) for s in block]
    return block, _run_ordered(run, specs, cfg.workers)


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


def summary_row(cfg: ExperimentConfig, at: tuple, observable: str, value,
                pred=None, src: str = "", stderr=None) -> ResultRow:
    """A row of the whole experiment (run_id "mean") at (process, t, delta)."""
    process, t, delta = at
    return ResultRow(cfg.experiment, "mean", cfg.seed, cfg.n, process, t, delta,
                     observable, value, pred, src, stderr=stderr)


def observe(rows: list[ResultRow], cfg: ExperimentConfig, seeds: list[int],
            values: list[float], at: tuple, observable: str, pred=None,
            src: str = "") -> tuple[float, float]:
    """Append one row per replicate and the mean row with its standard error
    at (process, t, delta); returns (mean, stderr)."""
    process, t, delta = at
    for i, (seed, value) in enumerate(zip(seeds, values)):
        rows.append(ResultRow(cfg.experiment, str(i), seed, cfg.n, process, t, delta,
                              observable, value, pred, src))
    mean, se = _mean_stderr(values)
    rows.append(summary_row(cfg, at, observable, mean, pred, src, se))
    return mean, se


def _within(name: str, value: float, target: float, rel_tol: float) -> CheckResult:
    rel = abs(value - target) / abs(target)
    return CheckResult(
        name, rel <= rel_tol, f"value={value:.6g} target={target:.6g} rel={rel:.4f} tol={rel_tol}"
    )


# -- experiments -----------------------------------------------------------


def exp_moments(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Subcritical moment convergence of the bounded-size process."""
    constants = find_tc(cfg.tol)
    traj = critical_trajectory()
    if any(t >= constants.tc - 0.05 for t in cfg.t_grid):
        raise InvalidConfigError(
            f"t_grid must stay below tc - 0.05 = {constants.tc - 0.05:.4f}"
        )
    seeds, traces = run_block(cfg, seed_blocks(cfg), ProcessKind.BOUNDED_SIZE,
                              cfg.t_grid[-1], cfg.t_grid)
    rows: list[ResultRow] = []
    checks: list[CheckResult] = []
    for j, t in enumerate(cfg.t_grid):
        t_rec = traces[0][j].t
        s2p, s3p, s4p = sbar_k(traj, t_rec)
        preds = {"x1": traj.xbar(t_rec), "s2": s2p, "s3": s3p, "s4": s4p}
        for obs, pred in preds.items():
            mean, _ = observe(rows, cfg, seeds, [getattr(tr[j], obs) for tr in traces],
                              ("bf", t_rec, None), obs, pred, SRC_ODE)
            checks.append(_within(f"moments t={t:g} mean {obs} vs ode", mean, pred, 0.02))
    return ExperimentOutcome(rows, checks)


def exp_constants(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Critical constants at two tolerances, with stability deltas."""
    fine = find_tc(cfg.tol)
    coarse = find_tc(cfg.tol * 2.0, ode_tol=1.0e-9)
    rows: list[ResultRow] = []
    checks: list[CheckResult] = []
    for name in fine.FIELDS:
        v, p = getattr(fine, name), getattr(coarse, name)
        err = getattr(fine, name + "_err")
        rows.append(ResultRow(
            cfg.experiment, "0", None, None, "", None, None, name, v, p, SRC_ODE,
        ))
        rows.append(ResultRow(
            cfg.experiment, "0", None, None, "", None, None, name + "_err", err,
        ))
        checks.append(CheckResult(
            f"constants {name} stable across tolerances",
            abs(v - p) < err,
            f"value={v:.10g} other_tol={p:.10g} err={err:.2e}",
        ))
    ident = fine.gamma * fine.alpha * fine.beta
    rows.append(ResultRow(
        cfg.experiment, "0", None, None, "", None, None,
        "gamma_alpha_beta", ident, 2.0, SRC_CLOSED_FORM,
    ))
    checks.append(CheckResult(
        "constants gamma*alpha*beta identity", abs(ident - 2.0) <= 1.0e-12,
        f"value={ident:.15f}",
    ))
    return ExperimentOutcome(rows, checks)


def exp_giant(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Giant component after adding uniform edges to an initial graph."""
    kind = ProcessKind.ER_POISSON_TIME
    dist0 = InitialGraphSpec.parse(cfg.initial).to_distribution(cfg.n)
    s2, s3, s4 = (dist0.s(k) for k in (2, 3, 4))
    seeds, traces = run_block(cfg, seed_blocks(cfg), kind, cfg.t_grid[-1], cfg.t_grid,
                              cfg.initial)
    rows: list[ResultRow] = []
    checks: list[CheckResult] = []
    for j, t in enumerate(cfg.t_grid):
        fp = solve_rho(dist0, t)
        at = (kind.value, t, None)
        mean, _ = observe(rows, cfg, seeds, [tr[j].c1_frac for tr in traces], at,
                          "c1_frac", fp.rho, SRC_FIXED_POINT)
        if fp.rho > 0.0:
            bounds = supercritical_bounds(s2, s3, s4, t)
            rows.append(summary_row(cfg, at, "c1_frac_lower_bound", None, bounds.lower,
                                    SRC_CLOSED_FORM))
            ok = mean >= bounds.lower - 0.01
            detail = f"mean={mean:.5f} lower={bounds.lower:.5f}"
            if bounds.upper_valid:
                rows.append(summary_row(cfg, at, "c1_frac_upper_bound", None, bounds.upper,
                                        SRC_CLOSED_FORM))
                ok = ok and mean <= bounds.upper + 0.01
                detail += f" upper={bounds.upper:.5f}"
            checks.append(CheckResult(
                f"giant t={t:g} mean c1_frac within closed-form bounds (+-0.01)", ok, detail,
            ))
            checks.append(CheckResult(
                f"giant t={t:g} mean c1_frac vs fixed point (0.01 absolute)",
                abs(mean - fp.rho) <= 0.01, f"mean={mean:.5f} rho={fp.rho:.5f}",
            ))
        else:
            checks.append(CheckResult(
                f"giant t={t:g} subcritical c1_frac small",
                mean < 0.01, f"mean={mean:.5f}",
            ))
    return ExperimentOutcome(rows, checks)


def _fit_slopes(deltas: list[float], means: list[float], gamma: float):
    """(through-origin slope, local OLS slope, excess exponent or None)."""
    origin = sum(d * y for d, y in zip(deltas, means)) / sum(d * d for d in deltas)
    local = None
    if len(deltas) >= 2:
        dbar = sum(deltas) / len(deltas)
        ybar = sum(means) / len(means)
        var = sum((d - dbar) ** 2 for d in deltas)
        local = sum((d - dbar) * (y - ybar) for d, y in zip(deltas, means)) / var
    pts = [(math.log(d), math.log(abs(y - gamma * d)))
           for d, y in zip(deltas, means) if abs(y - gamma * d) > 0]
    exponent = None
    if len(pts) >= 2:
        xb = sum(p[0] for p in pts) / len(pts)
        yb = sum(p[1] for p in pts) / len(pts)
        var = sum((p[0] - xb) ** 2 for p in pts)
        if var > 0:
            exponent = sum((p[0] - xb) * (p[1] - yb) for p in pts) / var
    return origin, local, exponent


def exp_growth(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Largest-component growth just past the critical time.

    The slope observable estimates the limiting growth rate by a
    least-squares line through the origin, anchored by continuity of
    the transition (the giant fraction vanishes at the critical time);
    the with-intercept local_slope is reported alongside for the
    window's local derivative.
    """
    constants = find_tc(cfg.tol)
    seeds = seed_blocks(cfg)
    rows: list[ResultRow] = []
    checks: list[CheckResult] = []
    means: dict[float, float] = {}
    for delta in cfg.delta_grid:
        t = constants.tc + delta
        block, traces = run_block(cfg, seeds, ProcessKind.BOUNDED_SIZE, t, (t,))
        center = halfwidth = None
        if 0 < delta <= SLOPE_MAX_DELTA + 1e-12:
            center, halfwidth = bf_growth_prediction(constants, delta)
        # far from the transition the linear law is conjecture only, so those
        # rows carry raw values without a prediction
        src = SRC_ODE if center is not None else ""
        at = ("bf", t, delta)
        mean, _ = observe(rows, cfg, block, [tr[-1].c1_frac for tr in traces], at,
                          "c1_frac", center, src)
        means[delta] = mean
        if halfwidth is not None:
            rows.append(summary_row(cfg, at, "band_halfwidth", None, halfwidth,
                                    SRC_CLOSED_FORM))
        if abs(delta - GROWTH_LEVEL_DELTA) <= 1e-12 and center is not None:
            checks.append(_within(
                f"growth delta={GROWTH_LEVEL_DELTA:g} mean c1_frac vs gamma*delta",
                mean, center, 0.15,
            ))
        if delta == 0:
            checks.append(CheckResult(
                "growth at the critical time stays small",
                mean < 0.05, f"mean={mean:.5f}",
            ))
    fit_ds = [d for d in cfg.delta_grid if 0 < d <= SLOPE_MAX_DELTA + 1e-12]
    if len(fit_ds) >= 2:
        origin, local, exponent = _fit_slopes(
            fit_ds, [means[d] for d in fit_ds], constants.gamma
        )
        at = ("bf", None, None)
        rows.append(summary_row(cfg, at, "slope", origin, constants.gamma, SRC_ODE))
        checks.append(_within(
            "growth fitted slope vs gamma", origin, constants.gamma, 0.20
        ))
        if local is not None:
            rows.append(summary_row(cfg, at, "local_slope", local))
        if exponent is not None:
            rows.append(summary_row(cfg, at, "excess_exponent", exponent))
    return ExperimentOutcome(rows, checks)


def _stopped_observables(rec: TraceRecord) -> dict[str, float]:
    return {
        "x1_stopped": rec.x1,
        "s2_stopped": rec.s2,
        "s3_stopped": rec.s3,
        "s4_stopped": rec.s4,
        "s3_ratio": rec.s3 / rec.s2 ** 3,
        "s4_ratio": rec.s4 / rec.s2 ** 5,
    }


# the stopped observables two_phase checks, and how the check names them
_STOPPED_CHECKS = {"s2_stopped": "stopped s2 vs alpha/eps",
                   "s3_ratio": "stopped s3/s2^3 vs beta"}


def exp_two_phase(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Stop-restart construction: halt before criticality, continue with
    thinned Poisson uniform edges, compare with the direct run."""
    constants = find_tc(cfg.tol)
    traj = critical_trajectory()
    alpha, beta = constants.alpha, constants.beta
    seeds = seed_blocks(cfg)
    rows: list[ResultRow] = []
    checks: list[CheckResult] = []
    for delta in cfg.delta_grid:
        eps = delta ** (2.0 / 3.0)
        t_stop = constants.tc - eps
        t_final = constants.tc + delta
        if t_stop < 0.1:
            raise InvalidConfigError(
                f"delta={delta:g} stops at t={t_stop:.3f}; too close to the start"
            )
        direct_seeds, direct = run_block(cfg, seeds, ProcessKind.BOUNDED_SIZE, t_final,
                                         (t_final,))
        stop_seeds, stopped = run_block(cfg, seeds, ProcessKind.BOUNDED_SIZE, t_stop,
                                        run=partial(stop_restart, continue_t=eps + delta))
        preds = {
            "x1_stopped": traj.xbar(t_stop),
            "s2_stopped": alpha / eps,
            "s3_stopped": beta * alpha**3 / eps**3,
            "s4_stopped": 3.0 * beta**2 * alpha**5 / eps**5,
            "s3_ratio": beta,
            "s4_ratio": 3.0 * beta**2,
        }
        observed = [_stopped_observables(rec) for rec, _ in stopped]
        for obs, pred in preds.items():
            mean, _ = observe(rows, cfg, stop_seeds, [o[obs] for o in observed],
                              ("bf", t_stop, delta), obs, pred, SRC_ODE)
            if obs in _STOPPED_CHECKS:
                checks.append(_within(
                    f"two_phase delta={delta:g} {_STOPPED_CHECKS[obs]}", mean, pred, 0.15
                ))
        center, _ = bf_growth_prediction(constants, delta)
        at = ("bf", t_final, delta)
        dmean, dse = observe(rows, cfg, direct_seeds, [tr[-1].c1_frac for tr in direct], at,
                             "c1_frac_direct", center, SRC_ODE)
        tmean, tse = observe(rows, cfg, stop_seeds, [c1 for _, c1 in stopped], at,
                             "c1_frac_two_phase", center, SRC_ODE)
        allow = 3.0 * math.sqrt(dse * dse + tse * tse) + 0.02
        checks.append(CheckResult(
            f"two_phase delta={delta:g} construction agrees with direct run",
            abs(tmean - dmean) <= allow,
            f"two_phase={tmean:.5f} direct={dmean:.5f} |diff|={abs(tmean - dmean):.5f} "
            f"allow={allow:.5f}",
        ))
    return ExperimentOutcome(rows, checks)


def exp_variant_agreement(cfg: ExperimentConfig) -> ExperimentOutcome:
    """The three uniform-edge variants agree on the susceptibility."""
    variants = (
        ProcessKind.ER_WITHOUT_REPLACEMENT,
        ProcessKind.ER_WITH_REPLACEMENT,
        ProcessKind.ER_POISSON_TIME,
    )
    empty = not InitialGraphSpec.parse(cfg.initial).parts
    seeds = seed_blocks(cfg)
    rows: list[ResultRow] = []
    checks: list[CheckResult] = []
    stats: dict[ProcessKind, list[tuple[float, float]]] = {}
    for kind in variants:
        block, traces = run_block(cfg, seeds, kind, cfg.t_grid[-1], cfg.t_grid, cfg.initial)
        stats[kind] = []
        for j, t in enumerate(cfg.t_grid):
            pred, src = None, ""
            if empty and t < 1.0:
                pred, src = 1.0 / (1.0 - t), SRC_CLOSED_FORM  # subcritical susceptibility
            stats[kind].append(observe(rows, cfg, block, [tr[j].s2 for tr in traces],
                                       (kind.value, t, None), "s2", pred, src))
    for j, t in enumerate(cfg.t_grid):
        for a, b in itertools.combinations(variants, 2):
            (ma, sa), (mb, sb) = stats[a][j], stats[b][j]
            allow = 3.0 * math.sqrt(sa * sa + sb * sb)
            checks.append(CheckResult(
                f"variants {a.value} vs {b.value} mean s2 at t={t:g}",
                abs(ma - mb) <= allow,
                f"|diff|={abs(ma - mb):.5g} allow={allow:.5g}",
            ))
    return ExperimentOutcome(rows, checks)


@dataclass(frozen=True)
class Experiment:
    """What an experiment asks of its config: the function that runs it,
    the grid it needs ("t_grid", "delta_grid", or "" for none), whether
    it reads `initial` (the others start from the empty graph, and moments
    and growth predict from the limit equations of the empty graph)."""

    run: Callable[[ExperimentConfig], ExperimentOutcome]
    grid: str
    reads_initial: bool


EXPERIMENTS = {
    "moments": Experiment(exp_moments, "t_grid", reads_initial=False),
    "constants": Experiment(exp_constants, "", reads_initial=False),
    "giant": Experiment(exp_giant, "t_grid", reads_initial=True),
    "growth": Experiment(exp_growth, "delta_grid", reads_initial=False),
    "two_phase": Experiment(exp_two_phase, "delta_grid", reads_initial=False),
    "variant_agreement": Experiment(exp_variant_agreement, "t_grid", reads_initial=True),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome:
    cfg.validate()
    return EXPERIMENTS[cfg.experiment].run(cfg)


def _write_atomic(path: Path, text: str) -> None:
    """Write a temp file beside path, then rename it over path: a reader
    sees the old file or the new one, never a part, and a failed write
    leaves the old file and no temp file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(rows: list[ResultRow], path: str) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.csv_cells()) for row in rows)
    _write_atomic(Path(path), "\n".join(lines) + "\n")


def write_meta(csv_path: str, cfg: ExperimentConfig, elapsed: float,
               checks: list[CheckResult]) -> None:
    meta = {
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "elapsed_seconds": round(elapsed, 3),
        "versions": {
            "numpy": numpy.__version__,
        },
        "config": cfg.to_dict(),
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in checks
        ],
    }
    _write_atomic(Path(csv_path + ".meta.json"), json.dumps(meta, indent=2) + "\n")


def run_config(cfg: ExperimentConfig, check: bool = False) -> int:
    """Run, persist and (optionally) enforce an experiment; returns an exit
    code. An invalid config or an output path that cannot be written raises
    InvalidConfigError, and a solver failure NumericalFailureError."""
    start = time.perf_counter()
    # the output path is checked before the run, but missing directories
    # are made only after it, so a failed run leaves nothing behind
    base = Path(cfg.out).absolute().parent
    while not base.exists():
        base = base.parent
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise InvalidConfigError(f"cannot write {cfg.out}: {base} is not a writable directory")
    outcome = run_experiment(cfg)
    try:
        Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
        write_csv(outcome.rows, cfg.out)
        write_meta(cfg.out, cfg, time.perf_counter() - start, outcome.checks)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {cfg.out}: {exc}") from exc
    failed = sum(not c.passed for c in outcome.checks)
    for c in outcome.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    print(f"{len(outcome.checks)} checks, {failed} failed")
    print(f"wrote {cfg.out} ({len(outcome.rows)} rows)")
    if check and not outcome.checks:
        print("--check needs at least one check; this experiment emitted none")
    if check and (failed or not outcome.checks):
        return 4
    return 0
