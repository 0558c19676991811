"""End-to-end acceptance gate.

Each test prints exactly one [PASS]/[FAIL] line for its criterion before
asserting, so a red run still reports every verdict. Tolerances are pinned
here and nowhere else; they are not tuned to the observed samples.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import brute_force_moments, child_env, rho_lower_bound, rho_upper_bound

import percolab
from percolab import (
    SizeDistribution,
    Trajectory,
    deriv_transformed,
    dop853,
    integrate,
    run_process,
    sbar_k,
    solve_rho,
    supercritical_bounds,
)
from percolab.harness import ExperimentConfig, run_config, run_experiment

SEED = 42


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def mean_rows(rows, observable):
    """{key: value} for the mean rows of one observable, keyed by t or delta."""
    out = {}
    for r in rows:
        if r.run_id == "mean" and r.observable == observable:
            out[r.t if r.delta is None else r.delta] = r.value
    return out


# ---------------------------------------------------------------------------

def test_01_cli_reports_critical_constants_fast():
    """Critical constants from the command line, against pinned references."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "percolab", "ode"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0
    got = dict(line.split("=", 1) for line in proc.stdout.strip().splitlines())
    targets = {
        "tc": (1.1763, 1e-3),
        "x_tc": (0.2438, 1e-3),
        "alpha": (1.063, 5e-3),
        "beta": (0.764, 5e-3),
        "g3": (0.917, 1e-2),
        "g4": (2.375, 2e-2),
        "gamma": (2.463, 1e-2),
    }
    errs = {k: abs(float(got[k]) - v) for k, (v, _) in targets.items()}
    ok = all(errs[k] <= tol for k, (_, tol) in targets.items()) and elapsed < 5.0
    worst = max(errs, key=errs.get)
    assert report(
        "01 critical constants via cli",
        ok,
        f"worst |err| {worst}={errs[worst]:.2e}, wall {elapsed:.2f}s (< 5s)",
    )


def test_02_no_isolated_vertices_matches_er_closed_form():
    """With no isolated vertices the susceptibility limit is 1/(1-t)."""
    t0 = time.perf_counter()
    traj = Trajectory(0.9, dop853.solve(deriv_transformed, [0.0, 1.0, 1.0, -2.0], 0.9, 1e-12))
    rel = max(
        abs(sbar_k(traj, t)[0] * (1.0 - t) - 1.0) for t in (0.25, 0.5, 0.75)
    )
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-9 and elapsed < 1.0
    assert report(
        "02 forced x=0 reproduces 1/(1-t)",
        ok,
        f"max rel err {rel:.2e} (< 1e-9), wall {elapsed:.2f}s (< 1s)",
    )


def test_03_er_giant_component_fraction():
    """Uniform random edges at t=1.5: the giant holds 0.5828n vertices."""

    def bisect_rho(t, lo=1e-12, hi=1.0):
        f = lambda r: 1.0 - math.exp(-t * r) - r
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return 0.5 * (lo + hi)

    oracle = bisect_rho(1.5)
    vals = [
        run_process("er", 10**6, t_end=1.5, record_at=(1.5,), seed=SEED ^ i)[0].c1_frac
        for i in range(10)
    ]
    mean = float(np.mean(vals))
    ok = abs(mean - 0.5828) < 0.01 and abs(oracle - 0.5828) < 1e-4
    assert report(
        "03 er giant fraction at t=1.5",
        ok,
        f"mean C1/n {mean:.5f} vs 0.5828 (+-0.01), oracle {oracle:.5f}",
    )


def test_04_bf_subcritical_moments_track_ode():
    """Means of x1, s2, s3, s4 at t in {0.5, 1.0} within 2% of the limit."""
    cfg = ExperimentConfig.from_dict({
        "experiment": "moments", "n": 10**6, "replicates": 10, "seed": SEED,
        "t_grid": [0.5, 1.0], "workers": 4,
    })
    outcome = run_experiment(cfg)
    traj = integrate(t_end=1.1, tol=1e-12)
    worst_name, worst_rel = "", -1.0
    for t in (0.5, 1.0):
        preds = dict(zip(("s2", "s3", "s4"), sbar_k(traj, t)))
        preds["x1"] = traj.xbar(t)
        for obs, pred in preds.items():
            got = mean_rows(outcome.rows, obs)[t]
            rel = abs(got - pred) / pred
            if rel > worst_rel:
                worst_name, worst_rel = f"{obs}@t={t}", rel
    ok = worst_rel <= 0.02
    assert report(
        "04 bf moments vs ode limit",
        ok,
        f"worst rel err {worst_name} = {worst_rel:.4f} (<= 0.02, 10 runs, n=1e6)",
    )


def test_05_bf_supercritical_growth_rate():
    """Giant growth just past the transition: level at delta=0.1 and slope."""
    gamma = percolab.find_tc().gamma
    cfg = ExperimentConfig.from_dict({
        "experiment": "growth", "n": 2 * 10**6, "replicates": 10, "seed": SEED,
        "delta_grid": [0.05, 0.1, 0.15], "workers": 4,
    })
    outcome = run_experiment(cfg)
    means = mean_rows(outcome.rows, "c1_frac")
    level_rel = abs(means[0.1] - gamma * 0.1) / (gamma * 0.1)
    deltas = sorted(means)
    slope = sum(d * means[d] for d in deltas) / sum(d * d for d in deltas)
    slope_rel = abs(slope - gamma) / gamma
    ok = level_rel <= 0.15 and slope_rel <= 0.20
    assert report(
        "05 bf growth level and slope",
        ok,
        f"C1/n@0.1 rel {level_rel:.3f} (<= 0.15), slope {slope:.3f} "
        f"rel {slope_rel:.3f} (<= 0.20), gamma {gamma:.3f}",
    )


def test_06_susceptibility_divergence_constants(traj, constants):
    """Approach rates to the blow-up: alpha, beta, 3 beta^2."""
    c = constants
    devs = {}
    ratios = {}
    for eps in (0.2, 0.1):
        s2, s3, s4 = sbar_k(traj, c.tc - eps)
        devs[eps] = abs(s2 * eps / c.alpha - 1.0)
        ratios[eps] = (s3 / s2**3, s4 / s2**5)
    ok = (
        devs[0.1] < devs[0.2]
        and devs[0.1] < 0.2
        and abs(ratios[0.1][0] - c.beta) / c.beta <= 0.10
        and abs(ratios[0.1][1] - 3 * c.beta**2) / (3 * c.beta**2) <= 0.15
    )
    assert report(
        "06 divergence law near the critical time",
        ok,
        f"|s2*eps/alpha-1|: {devs[0.2]:.4f} -> {devs[0.1]:.4f} (< 0.2); "
        f"s3/s2^3 {ratios[0.1][0]:.4f} vs {c.beta:.4f} (10%); "
        f"s4/s2^5 {ratios[0.1][1]:.4f} vs {3 * c.beta ** 2:.4f} (15%)",
    )


def test_07_ledger_equals_brute_force_on_random_sequences():
    """1000 random edge sequences, checked after every single insertion."""
    rng = np.random.default_rng(SEED)
    failures = 0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(0, int(1.2 * n) + 1))
        edges = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(m, 2))]
        forest, led = percolab.ledger_init(n)
        for i, (u, v) in enumerate(edges):
            percolab.add_edge(forest, led, u, v)
            want = brute_force_moments(edges[: i + 1], n)
            checked += 1
            if (
                led.s_sums != [want.s1, want.s2, want.s3, want.s4]
                or led.c1_size != want.c1
                or led.n1_isolated != want.n1
            ):
                failures += 1
    ok = failures == 0
    assert report(
        "07 ledger vs brute force",
        ok,
        f"{failures} mismatches over {checked} checked insertions "
        f"in 1000 sequences",
    )


def test_08_bounds_sandwich_fixed_point():
    """500 supercritical instances: closed-form bounds never cross the root."""
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(500):
        k = int(rng.integers(1, 5))
        sizes = rng.choice(np.arange(1, 9), size=k, replace=False)
        counts = {int(s): int(rng.integers(1, 100)) for s in sizes}
        dist = SizeDistribution(counts)
        s2, s3, s4 = dist.s(2), dist.s(3), dist.s(4)
        t = (1.0 + float(rng.uniform(0.02, 2.0))) / s2
        rho = solve_rho(dist, t).rho
        ey, ey2, ey3 = t * s2, t**2 * s3, t**3 * s4
        if rho_lower_bound(ey, ey2) >= rho:
            violations += 1
        upper, valid = rho_upper_bound(ey, ey2, ey3)
        if valid and rho >= upper:
            violations += 1
        b = supercritical_bounds(s2, s3, s4, t)
        if b.lower > rho + 1e-12 or (b.upper_valid and rho > b.upper + 1e-12):
            violations += 1
    ok = violations == 0
    assert report(
        "08 bound sandwich on random instances",
        ok,
        f"{violations} violations over 500 instances",
    )


def test_09_initial_pairs_giant_inside_closed_form_bounds():
    """Half the vertices in pairs, slightly supercritical uniform edges."""
    t = 1 / 1.5 + 0.05
    bounds = supercritical_bounds(1.5, 2.5, 4.5, t)
    rec = run_process(
        "er-poisson", 10**6, initial="2:250000", t_end=t, record_at=(t,),
        seed=SEED,
    )[0]
    lo, hi = bounds.lower - 0.01, bounds.upper + 0.01
    ok = bounds.upper_valid and lo <= rec.c1_frac <= hi
    assert report(
        "09 pairs-start giant within bounds",
        ok,
        f"C1/n {rec.c1_frac:.5f} in [{lo:.5f}, {hi:.5f}] "
        f"(bounds {bounds.lower:.5f}/{bounds.upper:.5f})",
    )


def test_10_experiment_reruns_byte_identical(tmp_path):
    """Same config, fresh run, identical bytes out."""
    blobs = []
    for name in ("first.csv", "second.csv"):
        cfg = ExperimentConfig.from_dict({
            "experiment": "giant", "n": 10**5, "replicates": 2, "seed": SEED,
            "t_grid": [0.6, 1.5], "workers": 2, "out": str(tmp_path / name),
        })
        code = run_config(cfg, check=False)
        assert code == 0
        blobs.append((tmp_path / name).read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    assert report(
        "10 byte-identical rerun",
        ok,
        f"{len(blobs[0])} bytes, equal={blobs[0] == blobs[1]}",
    )
