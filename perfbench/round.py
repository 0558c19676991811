"""One round of a workload in a fresh interpreter.

Usage: python3 perfbench/round.py SPEC.json RESULT.json T0

SPEC holds the operations (see workloads.py), the mode ("setup", "run" or
"trace") and the output paths. T0 is the caller's CLOCK_MONOTONIC reading
(time.monotonic()) taken just before it started this interpreter.
The round writes each experiment's CSV and sidecar where its config says,
each run_process result as JSON beside them, and its own measurements to
RESULT.

setup_s runs from that clock reading until ``import percolab`` is done and
every config is loaded and validated. wall_s runs from the first operation
starting to the last CSV and sidecar written. cpu_s is the user plus system
time of this process and its reaped children over that same span.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(spec_path: str, result_path: str, t0: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import percolab
    import percolab.cli  # noqa: F401  (the user-facing entry point)
    import_s = time.perf_counter() - t_import
    from percolab import harness, ode, processes

    configs = {}
    for op in spec["ops"]:
        if op["kind"] == "experiment":
            configs[op["name"]] = harness.ExperimentConfig.from_dict(op["spec"])
        else:
            processes.ProcessKind.from_token(op["spec"]["kind"])
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if spec["mode"] != "setup":
        result.update(_run(spec, configs, harness, ode, processes))
        result["engine"] = processes.Simulation(processes.ProcessKind.BOUNDED_SIZE, 10).engine
        try:
            import numba  # noqa: F401
            result["numba"] = True
        except ImportError:
            result["numba"] = False
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _run(spec, configs, harness, ode, processes) -> dict:
    from tracer import Tracer, install, install_counter

    tracer = None
    attempts: list[int] = []
    if spec["mode"] == "trace":
        tracer = Tracer()
        install(tracer, processes, harness, ode)
    else:
        install_counter(processes, attempts)

    def span(name, **attrs):
        return tracer.span(name, **attrs) if tracer else nullcontext()

    errors, gates, records = {}, {}, {}
    cpu0 = _cpu()
    start = time.perf_counter()
    for op in spec["ops"]:
        name = op["name"]
        try:
            if op["kind"] == "experiment":
                cfg = configs[name]
                t_exp = time.perf_counter()
                with span("harness.run_experiment", experiment=cfg.experiment):
                    outcome = harness.run_experiment(cfg)
                with span("harness.write_csv"):
                    harness.write_csv(outcome.rows, cfg.out)
                with span("harness.write_meta"):
                    harness.write_meta(cfg.out, cfg, time.perf_counter() - t_exp,
                                       outcome.checks)
                gates[name] = [sum(c.passed for c in outcome.checks), len(outcome.checks)]
            else:
                s = op["spec"]
                with span("processes.run_process"):
                    records[name] = processes.run_process(
                        s["kind"], s["n"], t_end=s["t_end"], record_at=tuple(s["record_at"]),
                        seed=s["seed"])
        except Exception:  # one operation's failure must not stop the round
            errors[name] = traceback.format_exc()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu() - cpu0

    for name, recs in records.items():
        with open(spec["records"][name], "w") as fh:
            json.dump([asdict(r) for r in recs], fh)
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "errors": errors, "gates": gates}
    if tracer is None:
        out["attempts"] = sum(attempts)
    else:
        with open(spec["spans"], "w") as fh:
            json.dump({"spans": tracer.spans, "sims": tracer.sims,
                       "hot": tracer.hot_totals()}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
