"""Time the simulation engine per process and record it in a BENCH_*.json file.

For each of bf, er-wr, er and product from the empty graph, and
er-poisson from half of the vertices in pairs (as the `giant` experiment
starts), at n = 1e5, 1e6 and 2e6 to t = 1.3, one fresh interpreter
advances a batch-engine Simulation with 1 and with 50 evenly spaced
record points and reports:

- init_s, the wall time of constructing the Simulation;
- advance_s and snapshot_s, the wall time summed over all calls;
- rss_advance_mb, ru_maxrss just before the last snapshot;
- rss_snapshot_mb, ru_maxrss after it;
- rss_import_mb, ru_maxrss after import, for reference.

It also times find_tc, uncached, and solve_rho on half of the vertices
in pairs (median of 5 calls each).

    python scripts/bench.py --label change [--src src] [--out BENCH_8.json]

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
SIZES = (100_000, 1_000_000, 2_000_000)
POINTS = (1, 50)
T_END = 1.3
SEED = 1
ROOT = Path(__file__).resolve().parents[1]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def one_case(kind: str, initial: str, n: int, points: int) -> dict:
    """Advance one simulation to T_END with `points` record instants."""
    from percolab.processes import ProcessKind, Simulation

    rss_import = _rss_mb()
    t0 = time.perf_counter()
    sim = Simulation(ProcessKind.from_token(kind), n, seed=SEED,
                     initial=f"2:{n // 4}" if initial == "pairs" else "")
    init = time.perf_counter() - t0
    targets = [int(round(n * T_END * (i + 1) / points / 2)) for i in range(points)]
    advance = snapshot = 0.0
    rss_advance = 0.0
    for m in targets:
        t0 = time.perf_counter()
        sim.advance_to(m)
        t1 = time.perf_counter()
        rss_advance = _rss_mb()
        sim.snapshot()
        snapshot += time.perf_counter() - t1
        advance += t1 - t0
    return {"kind": kind, "initial": initial, "n": n, "points": points,
            "init_s": round(init, 4), "advance_s": round(advance, 4),
            "snapshot_s": round(snapshot, 4), "rss_import_mb": round(rss_import, 1),
            "rss_advance_mb": round(rss_advance, 1), "rss_snapshot_mb": round(_rss_mb(), 1)}


def solvers() -> dict:
    from percolab.giant import solve_rho
    from percolab.ledger import SizeDistribution
    from percolab.ode import find_tc

    def median_time(fn) -> float:
        times = []
        for _ in range(5):
            find_tc.cache_clear()  # find_tc memoizes its result
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


def run_child(src: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="key the results are stored under")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_8.json")
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
    if not args.label:
        ap.error("--label is required")
    src = args.src.resolve()
    cases = []
    for kind, initial in CASES:
        for n in SIZES:
            for points in POINTS:
                case = run_child(src, "--case", kind, initial, str(n), str(points))
                print(json.dumps(case), file=sys.stderr)
                cases.append(case)
    solved = run_child(src, "--solvers")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = solved.pop("machine")
    doc.setdefault("runs", {})[args.label] = {"t_end": T_END, "seed": SEED,
                                              "solvers": solved, "cases": cases}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
