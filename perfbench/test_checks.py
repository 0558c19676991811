"""Tests of the benchmark's own checks, tracer and manifest.

Run from the repository root:  python3 -m pytest perfbench -q

Small versions of every workload operation run through percolab once;
the checks must pass on those outputs, and each check must fail when one
value it reads is perturbed.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Report, check_outputs  # noqa: E402
from tracer import self_times  # noqa: E402

SMALL_OPS = [
    ("constants", {"experiment": "constants", "n": 100, "tol": 1e-8}),
    ("moments", {"experiment": "moments", "n": 2000, "replicates": 2,
                 "t_grid": [0.25, 0.5, 0.75, 1.0]}),
    ("two_phase", {"experiment": "two_phase", "n": 2000, "replicates": 2,
                   "delta_grid": [0.1]}),
    ("variant_agreement", {"experiment": "variant_agreement", "n": 20000, "replicates": 2,
                           "t_grid": [0.5, 0.9]}),
    ("giant", {"experiment": "giant", "n": 2000, "replicates": 2, "initial": "2:500",
               "t_grid": [0.6, 0.8, 1.2, 1.5, 2.0]}),
]
PRODUCT = {"kind": "product", "n": 2000, "t_end": 1.0, "record_at": [0.25, 0.5, 0.75, 1.0],
           "seed": 5}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from percolab import harness, processes

    out = tmp_path_factory.mktemp("outputs")
    ops, paths = [], {}
    for k, (name, spec) in enumerate(SMALL_OPS):
        spec = dict(spec, seed=100 * k + 7, out=str(out / f"{name}.csv"))
        outcome = harness.run_experiment(harness.ExperimentConfig.from_dict(spec))
        harness.write_csv(outcome.rows, spec["out"])
        ops.append({"name": name, "kind": "experiment", "spec": spec})
        paths[name] = spec["out"]
    records = processes.run_process(PRODUCT["kind"], PRODUCT["n"], t_end=PRODUCT["t_end"],
                                    record_at=tuple(PRODUCT["record_at"]), seed=PRODUCT["seed"])
    ops.append({"name": "product", "kind": "process", "spec": PRODUCT})
    paths["product"] = [asdict(r) for r in records]
    return ops, paths


def test_checks_pass_on_program_output(outputs):
    ops, paths = outputs
    rep = check_outputs(ops, paths)
    assert dict(rep.failures) == {}
    assert rep.count > 150


def _edit_csv(src: str, dst: Path, observable: str, run_id: str, column: str, edit,
              nth: int = 0) -> None:
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    hits = [r for r in rows if r["observable"] == observable and r["run_id"] == run_id]
    hits[nth][column] = edit(hits[nth][column])
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def last_digit(cell: str) -> str:
    """The same value one unit higher in its last printed digit."""
    value = float(cell)
    digits = 10 - 1 - math.floor(math.log10(abs(value)))
    return format(value + 10.0**-digits, ".10g")


def scaled(factor):
    return lambda cell: format(float(cell) * factor, ".10g")


# (operation, observable, run_id, column, edit, nth row, words in the failure)
CSV_CASES = [
    ("constants", "tc", "0", "value", lambda c: "1.1773", 0, "published"),
    ("constants", "gamma", "0", "value", scaled(1 + 1e-6), 0, "gamma*alpha*beta"),
    ("constants", "gamma_alpha_beta", "0", "value", lambda c: "2.000001", 0,
     "gamma_alpha_beta row"),
    ("moments", "s3", "0", "value", last_digit, 1, "s3 run 0"),
    ("moments", "x1", "0", "value", last_digit, 3, "x1 run 0"),
    ("moments", "s2", "mean", "prediction", scaled(1 + 1e-6), 2, "s2 prediction"),
    ("moments", "s4", "1", "seed", lambda c: str(int(c) + 1), 0, "seed"),
    ("moments", "x1", "1", "value", lambda c: "0.99", 2, "non-increasing"),
    ("moments", "s2", "mean", "value", scaled(1 + 1e-6), 0, "mean s2"),
    ("two_phase", "x1_stopped", "0", "value", last_digit, 0, "x1_stopped run 0"),
    ("two_phase", "s4_stopped", "0", "value", last_digit, 0, "s4_stopped run 0"),
    ("two_phase", "c1_frac_two_phase", "0", "value", last_digit, 0, "c1_frac_two_phase run 0"),
    ("two_phase", "c1_frac_direct", "0", "value", last_digit, 0, "c1_frac_direct run 0"),
    ("two_phase", "s2_stopped", "1", "prediction", scaled(1 + 1e-6), 0, "s2_stopped prediction"),
    ("two_phase", "x1_stopped", "mean", "prediction", scaled(1 + 1e-6), 0,
     "x1_stopped prediction"),
    ("variant_agreement", "s2", "0", "value", last_digit, 1, "er s2 run 0"),
    ("variant_agreement", "s2", "0", "value", last_digit, 3, "er-wr s2 run 0"),
    ("variant_agreement", "s2", "0", "value", last_digit, 5, "er-poisson s2 run 0"),
    ("variant_agreement", "s2", "1", "value", scaled(1.15), 2, "against 1/(1-t)"),
    ("variant_agreement", "s2", "1", "prediction", scaled(1 + 1e-6), 0, "1/(1-t) column"),
    ("giant", "c1_frac", "1", "prediction", scaled(1 + 1e-6), 3, "fixed point at t=1.5"),
    ("giant", "c1_frac_upper_bound", "mean", "prediction", lambda c: "0.01", 0,
     "above the written upper bound"),
    ("giant", "c1_frac_lower_bound", "mean", "prediction", lambda c: "0.99", 1,
     "below the written lower bound"),
    ("giant", "c1_frac", "0", "value", last_digit, 3, "c1_frac run 0"),
    ("giant", "c1_frac", "1", "value", lambda c: "0", 4, "non-decreasing"),
]


@pytest.mark.parametrize("case", CSV_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[3]}-{c[6]}")
def test_each_csv_check_catches_a_perturbed_value(outputs, tmp_path, case):
    op, observable, run_id, column, edit, nth, words = case
    ops, paths = outputs
    bad = tmp_path / f"{op}.csv"
    _edit_csv(paths[op], bad, observable, run_id, column, edit, nth)
    rep = check_outputs([o for o in ops if o["name"] == op], {op: str(bad)})
    assert rep.failures, f"no check failed after perturbing {case}"
    assert any(words in msg for msg in rep.failures[op]), rep.failures[op]


@pytest.mark.parametrize("field,index,words", [
    ("s4", 2, "s4 at t=0.75"),
    ("x1", 0, "x1 at t=0.25"),
    ("c2_frac", 3, "c2_frac at t=1"),
    ("m", 1, "m at t=0.5"),
])
def test_process_check_catches_a_one_ulp_change(outputs, field, index, words):
    ops, paths = outputs
    records = [dict(r) for r in paths["product"]]
    value = records[index][field]
    records[index][field] = value + 1 if isinstance(value, int) else math.nextafter(value, 2.0)
    rep = check_outputs([o for o in ops if o["name"] == "product"], {"product": records})
    assert any(words in msg for msg in rep.failures["product"]), rep.failures["product"]


def test_process_invariants_catch_c2_above_c1(outputs):
    ops, paths = outputs
    records = [dict(r) for r in paths["product"]]
    records[0]["c2_frac"] = records[0]["c1_frac"] + 0.1
    rep = check_outputs([o for o in ops if o["name"] == "product"], {"product": records})
    assert any("c1 < c2" in msg for msg in rep.failures["product"])


def test_missing_output_is_a_failure(outputs, tmp_path):
    ops, _ = outputs
    rep = check_outputs([o for o in ops if o["name"] == "moments"],
                        {"moments": str(tmp_path / "absent.csv")})
    assert rep.failures["moments"]


def test_report_compares_at_printed_precision():
    rep = Report()
    rep.same_print("op", "0.1234567891", 0.12345678906, "rounds to the same digits")
    rep.same_print("op", "0.1234567891", 0.12345678916, "differs in the last digit")
    assert rep.failures["op"] == [
        "differs in the last digit: written 0.1234567891, replayed 0.12345678916"]


def test_self_time_merges_overlapping_children_from_worker_threads():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0, "hot": 0.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0, "hot": 1.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0, "hot": 0.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0, "hot": 0.0},
        {"id": 4, "parent": 0, "start": 8.0, "end": 12.0, "hot": 0.0},
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 2.0)  # children cover [1,6] and [8,10]
    assert st[1] == pytest.approx(4.0 - 1.0 - 1.0)
    assert st[3] == pytest.approx(1.0)


def test_an_operation_that_raises_fails_in_every_round_and_the_run_finishes(
        tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tiny", [
        ("constants", "experiment", {"experiment": "constants", "n": 100, "tol": 1e-8}),
        ("product-bad", "process", {"kind": "product", "n": 1, "t_end": 1.0,
                                    "record_at": [1.0]}),
    ])
    rec = run.run_workload("tiny", seed=1, seconds=1, trace=False)
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (False, 2 * rec["rounds"],
                                                                 rec["rounds"])
    assert "product-bad" in rec["check_failures"]
    assert "constants" not in rec["check_failures"]
    assert rec["metrics"]["wall_s"]["value"] > 0


def test_manifest_matches_the_reported_metrics():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
