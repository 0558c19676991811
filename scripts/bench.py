"""Time the simulation engine per process and record it in a BENCH_*.json file.

For each of bf, er-wr, er and product from the empty graph, and
er-poisson from half of the vertices in pairs (as the `giant` experiment
starts), at n = 1e5, 2e5, 1e6 and 2e6 to t = 1.3, one fresh interpreter
advances a batch-engine Simulation with 1 and with 50 evenly spaced
record points, and so does one 1-point run each of bf, er-wr and er at
n = 2e7, and reports:

- init_s, the wall time of constructing the Simulation;
- advance_s, fold_s and snapshot_s, the wall time summed over all calls:
  before each snapshot an explicit fold merges the buffered edges into
  the union-find forest (the component merge), so snapshot_s times the
  histogram and its self-checks alone;
- rss_advance_mb, ru_maxrss just before the last fold;
- rss_snapshot_mb, ru_maxrss after the last fold and snapshot;
- rss_import_mb, ru_maxrss after import, for reference;
- minflt_import, minflt_advance and minflt_snapshot, ru_minflt (the minor
  page faults, mostly fresh pages handed to numpy temporaries) at the
  same three points.

It also times find_tc, uncached, and solve_rho on half of the vertices
in pairs (median of 5 calls each), and five cold starts, each the median
of 5 fresh interpreters, by wall time and the child's ru_maxrss and
ru_minflt:
`import percolab, percolab.cli`; `python -m percolab` running `simulate`
(bf, n = 2e5 to t = 1), `fixed-point` (half_pairs.csv at t = 1) and
`ode`; and importing percolab.harness to validate a `moments` config, the
set-up that precedes any experiment run.

    python scripts/bench.py --label change --out BENCH_19.json [--src src]

runs the percolab found under --src (default: this checkout's src) and
stores the results under --label in --out, keeping the other labels
already in that file, so one file can hold a parent and a change run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (process, initial graph); "pairs" puts half of the vertices in pairs
CASES = (("bf", ""), ("er-wr", ""), ("er", ""), ("product", ""), ("er-poisson", "pairs"))
SIZES = (100_000, 200_000, 1_000_000, 2_000_000)
POINTS = (1, 50)
# (process, initial graph, n, points) run after the grid above
LARGE_CASES = (("bf", "", 20_000_000, 1), ("er-wr", "", 20_000_000, 1),
               ("er", "", 20_000_000, 1))
T_END = 1.3
SEED = 1
ROOT = Path(__file__).resolve().parents[1]
# (name, interpreter arguments) of each cold start
COLD_STARTS = (
    ("import", ("-c", "import percolab, percolab.cli")),
    ("simulate", ("-m", "percolab", "simulate", "--process", "bf", "--n", "200000",
                  "--t", "1", "--seed", "1")),
    ("fixed-point", ("-m", "percolab", "fixed-point",
                     "--dist", str(ROOT / "scripts" / "data" / "half_pairs.csv"), "--t", "1")),
    ("ode", ("-m", "percolab", "ode")),
    ("validate-moments", ("-c", "from percolab.harness import ExperimentConfig; "
                          "ExperimentConfig.from_dict({'experiment': 'moments', 'n': 1000, "
                          "'t_grid': [0.5]})")),
)
COLD_REPEATS = 5


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def one_case(kind: str, initial: str, n: int, points: int) -> dict:
    """Advance one simulation to T_END with `points` record instants."""
    from percolab.processes import ProcessKind, Simulation

    rss_import, minflt_import = _rss_mb(), _minflt()
    t0 = time.perf_counter()
    sim = Simulation(ProcessKind.from_token(kind), n, seed=SEED,
                     initial=f"2:{n // 4}" if initial == "pairs" else "")
    init = time.perf_counter() - t0
    targets = [int(round(n * T_END * (i + 1) / points / 2)) for i in range(points)]
    advance = fold = snapshot = 0.0
    rss_advance, minflt_advance = 0.0, 0
    for m in targets:
        t0 = time.perf_counter()
        sim.advance_to(m)
        t1 = time.perf_counter()
        rss_advance, minflt_advance = _rss_mb(), _minflt()
        t2 = time.perf_counter()
        sim._fold()
        t3 = time.perf_counter()
        sim.snapshot()
        snapshot += time.perf_counter() - t3
        fold += t3 - t2
        advance += t1 - t0
    return {"kind": kind, "initial": initial, "n": n, "points": points,
            "init_s": round(init, 4), "advance_s": round(advance, 4),
            "fold_s": round(fold, 4), "snapshot_s": round(snapshot, 4),
            "rss_import_mb": round(rss_import, 1),
            "rss_advance_mb": round(rss_advance, 1), "rss_snapshot_mb": round(_rss_mb(), 1),
            "minflt_import": minflt_import, "minflt_advance": minflt_advance,
            "minflt_snapshot": _minflt()}


def solvers() -> dict:
    from percolab.giant import solve_rho
    from percolab.ledger import SizeDistribution
    from percolab.ode import _cached_traj, find_tc

    def median_time(fn) -> float:
        times = []
        for _ in range(5):
            find_tc.cache_clear()  # find_tc memoizes its result and its trajectory
            _cached_traj.cache_clear()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(statistics.median(times), 6)

    half_pairs = SizeDistribution({1: 500_000, 2: 250_000})
    return {"find_tc_s": median_time(find_tc),
            "solve_rho_s": median_time(lambda: solve_rho(half_pairs, 0.7166666667))}


def machine() -> dict:
    import numpy
    import scipy

    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def cold_start(src: Path, args: tuple[str, ...]) -> dict:
    """Median wall time, peak RSS and minor faults of fresh interpreters
    running args."""
    env = dict(os.environ, PYTHONPATH=str(src))
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    walls, rss, minflt = [], [], []
    for _ in range(COLD_REPEATS):
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)  # the rusage of this child alone
        walls.append(time.perf_counter() - t0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"cold start {' '.join(args)} failed")
        rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
        minflt.append(usage.ru_minflt)
    return {"wall_s": round(statistics.median(walls), 4),
            "maxrss_mb": round(statistics.median(rss), 1),
            "minflt": statistics.median(minflt)}


def run_child(src: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="key the results are stored under")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, help="BENCH_*.json file the results are merged into")
    ap.add_argument("--case", nargs=4, metavar=("KIND", "INITIAL", "N", "POINTS"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--solvers", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.case:
        kind, initial, n, points = args.case
        print(json.dumps(one_case(kind, initial, int(n), int(points))))
        return
    if args.solvers:
        print(json.dumps(dict(solvers(), machine=machine())))
        return
    if not args.label or not args.out:
        ap.error("--label and --out are required")
    src = args.src.resolve()
    grid = [(kind, initial, n, points) for kind, initial in CASES for n in SIZES
            for points in POINTS]
    cases = []
    for kind, initial, n, points in grid + list(LARGE_CASES):
        case = run_child(src, "--case", kind, initial, str(n), str(points))
        print(json.dumps(case), file=sys.stderr)
        cases.append(case)
    solved = run_child(src, "--solvers")
    cold = {}
    for name, cmd in COLD_STARTS:
        cold[name] = cold_start(src, cmd)
        print(json.dumps({name: cold[name]}), file=sys.stderr)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = solved.pop("machine")
    doc.setdefault("runs", {})[args.label] = {"t_end": T_END, "seed": SEED,
                                              "solvers": solved, "cases": cases,
                                              "cold_start": cold}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
