"""percolab benchmark: scaled experiment workloads, checked apart from the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload bf-subcritical --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

Each round runs the workload in a fresh interpreter (perfbench/round.py);
rounds repeat until ``--seconds`` have passed. Outputs land in
perfbench/out/<workload>/ and are checked by perfbench/checks.py after the
timed rounds. With ``--trace 1`` the run makes one untraced and one traced
round and reports the per-layer metrics instead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # every round is killed after this much time in one run
SETUP_SAMPLES = 3  # setup-only interpreters per run, besides one per round

sys.path.insert(0, str(HERE))
from workloads import POOL_TWIN, WORKLOADS, operations  # noqa: E402

END_TO_END = [  # name, unit, better
    ("wall_s", "s", "lower"),
    ("attempts_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
RULES = ("bf", "product", "er", "er-wr", "er-poisson")
EXPERIMENTS = ("constants", "moments", "two_phase", "variant_agreement", "giant")
PER_LAYER = [
    ("processes.advance_s", "s", "lower"),
    ("processes.advance_calls", "count", "lower"),
    ("processes.attempts", "count", "higher"),
    ("processes.attempts_per_s", "1/s", "higher"),
    *((f"processes.attempts_per_s.{r}", "1/s", "higher") for r in RULES),
    ("processes.draw_s", "s", "lower"),
    ("processes.snapshot_s", "s", "lower"),
    ("processes.snapshots", "count", "lower"),
    ("processes.snapshot_ms", "ms", "lower"),
    ("processes.continuation_s", "s", "lower"),
    ("processes.continuation_attempts", "count", "higher"),
    ("processes.init_s", "s", "lower"),
    ("processes.merges", "count", "higher"),
    ("processes.useful_ratio", "ratio", "higher"),
    ("ledger.add_edge_s", "s", "lower"),
    ("ledger.add_edge_calls", "count", "lower"),
    ("ledger.histogram_s", "s", "lower"),
    ("ode.find_tc_s", "s", "lower"),
    ("ode.trajectory_s", "s", "lower"),
    ("ode.rhs_evals", "count", "lower"),
    ("giant.solve_rho_s", "s", "lower"),
    ("giant.solve_rho_iterations", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.write_s", "s", "lower"),
    ("harness.csv_bytes", "bytes", "lower"),
    ("harness.rows", "count", "lower"),
    *((f"harness.experiment_s.{e}", "s", "lower") for e in EXPERIMENTS),
    ("harness.pool_speedup", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class BenchError(Exception):
    """The benchmark itself could not run to its end."""


# -- child processes ------------------------------------------------------------


def _tree_rss(pid: int) -> int:
    """Resident bytes of a process and all its descendants, read from /proc."""
    children = defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children[ppid].append(int(entry))
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        todo.extend(children.get(p, ()))
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except (OSError, IndexError, ValueError):
            continue
    return total


def spawn(spec: dict, tag: str, work: Path, deadline: float) -> dict:
    """Run one round interpreter; add its peak RSS (MB) to its result.

    Peak RSS is the larger of the kernel's maxrss for the round and its
    reaped children, and the summed RSS of its process tree sampled every
    100 ms, so worker processes count.
    """
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "round.py"), str(spec_path), str(result_path), repr(t0)],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    sampled = 0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        sampled = max(sampled, _tree_rss(proc.pid))
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.1)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"round {tag} exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["peak_rss_mb"] = max(usage.ru_maxrss / 1024, sampled / 2**20)
    return result


def round_spec(workload: str, seed: int, mode: str, work: Path, tag: str,
               workers: int | None = None, only: str | None = None) -> dict:
    out_dir = work / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = operations(workload, seed, str(out_dir), workers, only)
    return {
        "mode": mode,
        "ops": ops,
        "records": {op["name"]: str(out_dir / f"{op['name']}.json")
                    for op in ops if op["kind"] == "process"},
        "spans": str(work / f"{tag}.spans.json"),
        "outputs": {op["name"]: op["spec"]["out"] if op["kind"] == "experiment"
                    else str(out_dir / f"{op['name']}.json") for op in ops},
    }


# -- machine record -------------------------------------------------------------


def machine_record(engine: str | None, numba: bool | None) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None  # the benchmark may run in a copy that is not a git work tree
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numba_imports": numba, "auto_engine": engine,
        "git_commit": commit,
    }


# -- per-layer metrics from the traced round -------------------------------------


def draw_seconds(sims: list[dict], attempts: dict[int, list[int]]) -> float:
    """Time to draw, from fresh generators, the proposal chunks the traced
    simulations needed at least: ceil(attempts / CHUNK) chunks per phase."""
    import numpy as np

    from checks import CHUNK

    start = time.perf_counter()
    for i, sim in enumerate(sims):
        main, extra = attempts.get(i, [0, 0])
        cols = 4 if sim["rule"] in ("bf", "product") else 2
        rng = np.random.default_rng(sim["seed"])
        for phase_cols, count in ((cols, main), (2, extra)):
            for _ in range(math.ceil(count / CHUNK)):
                rng.integers(0, sim["n"], size=(CHUNK, phase_cols), dtype=np.int64)
    return time.perf_counter() - start


def layer_metrics(data: dict, csv_paths: list[str]) -> dict[str, float]:
    from tracer import self_times

    spans, sims, hot = data["spans"], data["sims"], data["hot"]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name, **where):
        return sum(s["end"] - s["start"] for s in by[name]
                   if all(s.get(k) == v for k, v in where.items()))

    m: dict[str, float] = {}
    advances = by["processes.advance_to"]
    attempts = sum(s["attempts"] for s in advances)
    m["processes.advance_s"] = total("processes.advance_to")
    m["processes.advance_calls"] = len(advances)
    m["processes.attempts"] = attempts
    m["processes.attempts_per_s"] = attempts / m["processes.advance_s"] if advances else 0.0
    for rule in RULES:
        secs = total("processes.advance_to", rule=rule)
        done = sum(s["attempts"] for s in advances if s["rule"] == rule)
        m[f"processes.attempts_per_s.{rule}"] = done / secs if secs else 0.0
    per_sim = defaultdict(lambda: [0, 0])
    for s in advances:
        per_sim[s["sim"]][0] += s["attempts"]
    for s in by["processes.add_er_edges"]:
        per_sim[s["sim"]][1] += s["attempts"]
    m["processes.draw_s"] = draw_seconds(sims, per_sim)
    snaps = by["processes.snapshot"]
    m["processes.snapshot_s"] = total("processes.snapshot")
    m["processes.snapshots"] = len(snaps)
    m["processes.snapshot_ms"] = 1000 * m["processes.snapshot_s"] / len(snaps) if snaps else 0.0
    m["processes.continuation_s"] = total("processes.add_er_edges")
    m["processes.continuation_attempts"] = sum(s["attempts"] for s in by["processes.add_er_edges"])
    m["processes.init_s"] = total("processes.init")
    last = {}
    for s in sorted(snaps, key=lambda s: s["end"]):
        last[s["sim"]] = s
    merges = useful_base = 0
    for i, s in last.items():
        sim = sims[i]
        joined = sum((int(a) - 1) * int(b) for a, b in
                     (item.split(":") for item in filter(None, sim["initial"].split(","))))
        merges += sim["n"] - joined - s["components"]
        useful_base += s["m"] + s["extra"]
    m["processes.merges"] = merges
    m["processes.useful_ratio"] = merges / useful_base if useful_base else 0.0
    m["ledger.add_edge_calls"], m["ledger.add_edge_s"] = hot["ledger.add_edge"]
    m["ledger.histogram_s"] = total("ledger.snapshot_distribution")
    m["ode.find_tc_s"] = total("ode.find_tc")
    m["ode.trajectory_s"] = total("ode.critical_trajectory")
    m["ode.rhs_evals"] = hot["ode.deriv_transformed"][0]
    m["giant.solve_rho_s"] = total("giant.solve_rho")
    m["giant.solve_rho_iterations"] = sum(s["iterations"] for s in by["giant.solve_rho"])
    selfs = self_times(spans)
    m["harness.self_s"] = sum(selfs[s["id"]] for s in by["harness.run_experiment"])
    m["harness.write_s"] = total("harness.write_csv") + total("harness.write_meta")
    m["harness.csv_bytes"] = sum(os.path.getsize(p) for p in csv_paths)
    m["harness.rows"] = sum(Path(p).read_text().count("\n") - 1 for p in csv_paths)
    for e in EXPERIMENTS:
        m[f"harness.experiment_s.{e}"] = total("harness.run_experiment", experiment=e)
    m["trace.spans"] = len(spans)
    return m


# -- one workload ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    def go(mode, tag, workers=None, only=None):
        spec = round_spec(workload, seed, mode, work, tag, workers, only)
        return spec, spawn(spec, tag, work, deadline)

    go("setup", "warmup")  # compiles bytecode and warms the file cache
    setups, rounds = [], []
    if trace:
        rounds = [go("run", "untraced"), go("trace", "traced")]
    else:
        setups = [go("setup", f"setup{k}")[1]["setup_s"] for k in range(SETUP_SAMPLES)]
        start = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            rounds.append(go("run", f"r{len(rounds)}"))
    ref_spec, ref = rounds[-1]
    ops = ref_spec["ops"]

    # Operations fail per round: by raising, by output that differs from the
    # checked round, or by failing a check on the checked round's output.
    failed_in = [set(res["errors"]) for _, res in rounds]
    for (spec, _), failed in zip(rounds, failed_in):
        for op in ops:
            name = op["name"]
            if name not in ref["errors"] and name not in failed and (
                    Path(spec["outputs"][name]).read_bytes()
                    != Path(ref_spec["outputs"][name]).read_bytes()):
                failed.add(name)
    notes = {name: [err.strip().splitlines()[-1]] for name, err in ref["errors"].items()}

    twin_spec = None
    if workload == POOL_TWIN[0]:
        op = POOL_TWIN[1]
        twin_spec, twin = go("trace" if trace else "run", "pool", workers=2, only=op)
        if op not in ref["errors"] and (
                op in twin["errors"] or Path(twin_spec["outputs"][op]).read_bytes()
                != Path(ref_spec["outputs"][op]).read_bytes()):
            notes.setdefault(op, []).append(
                "CSV at workers = 2 differs from the same config at workers = 1")
            for failed in failed_in:
                failed.add(op)

    from checks import check_outputs  # numpy and scipy load after the timed rounds

    done = [op for op in ops if op["name"] not in ref["errors"]]
    outputs = {}
    for op in done:
        path = ref_spec["outputs"][op["name"]]
        outputs[op["name"]] = json.loads(Path(path).read_text()) if op["kind"] == "process" \
            else path
    report = check_outputs(done, outputs)
    for name, msgs in report.failures.items():
        notes.setdefault(name, []).extend(msgs)
        for failed in failed_in:
            failed.add(name)

    attempted = len(ops) * len(rounds)
    failed = sum(len(f) for f in failed_in)
    if trace:
        _, untraced = rounds[0]
        data = json.loads(Path(ref_spec["spans"]).read_text())
        csvs = [ref_spec["outputs"][op["name"]] for op in ops if op["kind"] == "experiment"]
        values = layer_metrics(data, csvs)
        values["cli.import_s"] = ref["import_s"]
        values["trace.overhead_s"] = ref["wall_s"] - untraced["wall_s"]
        values["harness.pool_speedup"] = 0.0
        if twin_spec is not None:
            pooled = json.loads(Path(twin_spec["spans"]).read_text())["spans"]
            serial = values[f"harness.experiment_s.{POOL_TWIN[1]}"]
            values["harness.pool_speedup"] = serial / sum(
                s["end"] - s["start"] for s in pooled if s["name"] == "harness.run_experiment")
        table = PER_LAYER
    else:
        walls = [res["wall_s"] for _, res in rounds]
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "attempts_per_s": ref["attempts"] / wall,
            "cpu_s": statistics.median(res["cpu_s"] for _, res in rounds),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for _, res in rounds),
            "setup_s": statistics.median(setups + [res["setup_s"] for _, res in rounds]),
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "operations": [op["name"] for op in ops],
        "round_wall_s": [res["wall_s"] for _, res in rounds],
        "setup_samples_s": setups + [res["setup_s"] for _, res in rounds],
        "attempts": ref.get("attempts"), "checks": report.count,
        "check_failures": notes, "experiment_gates": ref["gates"],
        "machine": machine_record(ref.get("engine"), ref.get("numba")),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['rounds']} rounds of {len(rec['operations'])} operations")
    for name, m in rec["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {rec['attempted']} operations, failed {rec['failed']}")
    print(f"independent checks: {rec['checks']}, failing: "
          f"{sum(len(v) for v in rec['check_failures'].values())}")
    for name, msgs in rec["check_failures"].items():
        for msg in msgs[:5]:
            print(f"  FAILED {name}: {msg}")
    gates = ", ".join(f"{k} {p}/{t}" for k, (p, t) in rec["experiment_gates"].items())
    print(f"experiments' own --check gates (recorded, not benchmark checks): {gates}")
    print("machine " + json.dumps(rec["machine"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "percolab" / "__init__.py").is_file():
        print(f"error: no percolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_record(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
