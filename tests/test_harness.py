"""Experiment configs, CSV output contract, determinism and CLI exit codes."""

import csv
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest
from conftest import child_env

from percolab import InvalidConfigError, ProcessKind, SizeDistribution
from percolab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    RunSpec,
    run_config,
    run_experiment,
    seed_blocks,
    write_csv,
    write_meta,
)

HEADER = "experiment,run_id,seed,n,process,t,delta,observable,value,prediction,pred_source,abs_err,rel_err,stderr"


def cli(*args, timeout=600):
    proc = subprocess.run(
        [sys.executable, "-m", "percolab", *args],
        capture_output=True, text=True, timeout=timeout, env=child_env(),
    )
    return proc


# ---------------------------------------------------------------------------
# config parsing and validation

def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict({"experiment": "constants", "n": 100, "bogus": 1})


def test_config_from_dict_requires_experiment_and_n():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict({"n": 100})
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict({"experiment": "constants"})


@pytest.mark.parametrize("patch", [
    {"experiment": "nope"},
    {"n": 5},
    {"replicates": 0},
    {"workers": 0},
    {"experiment": "moments", "t_grid": []},
    {"experiment": "moments", "t_grid": [1.0, 0.5]},
    {"experiment": "moments", "t_grid": [-0.5, 1.0]},
    {"experiment": "moments", "process": "er"},
    {"experiment": "growth", "delta_grid": [0.5]},
    {"experiment": "growth", "delta_grid": []},
    {"experiment": "two_phase", "delta_grid": [0.0]},
    {"experiment": "two_phase", "delta_grid": [1.0]},
    {"experiment": "giant", "t_grid": [1.5], "process": "warp"},
    {"experiment": "giant", "t_grid": [1.5], "initial": "3:"},
    {"experiment": "giant", "t_grid": [1.5], "engine": "turbo"},
    {"experiment": "giant", "t_grid": [1.5], "engine": "numba"},
    {"n": 1000.5},
    {"n": "1000"},
    {"n": True},
    {"replicates": 1.5},
    {"replicates": False},
    {"seed": 4.0},
    {"workers": "2"},
    {"tol": -1},
    {"tol": 0},
    {"tol": "1e-8"},
    {"loops": 1},
    {"t_grid": 0.5},
    {"t_grid": [0.5, "1.0"]},
    {"t_grid": [float("nan")]},
    {"initial": 3},
    # process and initial only where the experiment uses them
    {"experiment": "constants", "process": "bf"},
    {"experiment": "growth", "delta_grid": [0.1], "process": "product"},
    {"experiment": "two_phase", "delta_grid": [0.1], "process": "er"},
    {"experiment": "variant_agreement", "process": "er"},
    {"experiment": "constants", "initial": "2:10"},
    {"experiment": "two_phase", "delta_grid": [0.1], "initial": "2:10"},
    {"experiment": "moments", "t_grid": [0.5], "initial": "2:10"},
    {"experiment": "growth", "delta_grid": [0.1], "initial": "2:10"},
])
def test_config_validate_rejects(patch):
    base = {"experiment": "moments", "n": 1000, "t_grid": [0.5]}
    base.update(patch)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict(base)


def test_config_accepts_the_process_an_experiment_runs():
    for experiment, extra in (("moments", {"t_grid": [0.5]}),
                              ("growth", {"delta_grid": [0.1]}),
                              ("two_phase", {"delta_grid": [0.1]})):
        ExperimentConfig.from_dict({"experiment": experiment, "n": 1000, "process": "bf",
                                    **extra})


def test_config_roundtrips_through_dict():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "giant", "n": 1000, "t_grid": [1.5], "seed": 9}
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ---------------------------------------------------------------------------
# run specs and seeds

def test_run_spec_pickles():
    spec = RunSpec(ProcessKind.BOUNDED_SIZE, 1000, 43, 1.2, (0.5, 1.2), "2:10", False)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_seed_blocks_are_consecutive_run_indices():
    cfg = ExperimentConfig.from_dict({"experiment": "growth", "n": 1000, "replicates": 3,
                                      "seed": 42, "delta_grid": [0.1]})
    blocks = list(itertools.islice(seed_blocks(cfg), 3))
    assert blocks == [[42, 43, 40], [41, 46, 47], [44, 45, 34]]  # 42 ^ 0 .. 42 ^ 8


# ---------------------------------------------------------------------------
# row formatting

def test_row_error_columns():
    row = ResultRow("e", "0", 1, 10, "bf", 0.5, None, "s2", 2.5, 2.0, "ode")
    cells = row.csv_cells()
    assert len(cells) == len(CSV_COLUMNS) == 14
    assert cells[11] == "0.5"          # abs_err
    assert cells[12] == "0.25"         # rel_err
    assert cells[13] == ""             # no stderr on a per-run row


def test_row_rel_err_blank_for_zero_prediction():
    row = ResultRow("e", "0", 1, 10, "bf", 0.5, None, "c1", 0.1, 0.0, "ode")
    cells = row.csv_cells()
    assert cells[11] == "0.1"
    assert cells[12] == ""


def test_row_float_formatting_is_10_significant_digits():
    row = ResultRow("e", "0", 1, 10, "bf", 1 / 3, None, "s2", 2 / 3)
    cells = row.csv_cells()
    assert cells[5] == "0.3333333333"
    assert cells[8] == "0.6666666667"


# ---------------------------------------------------------------------------
# experiment outputs

@pytest.fixture(scope="module")
def tiny_variant_outcome():
    cfg = ExperimentConfig.from_dict({
        "experiment": "variant_agreement", "n": 2000, "replicates": 2,
        "seed": 3, "t_grid": [0.5],
    })
    return cfg, run_experiment(cfg)


def test_csv_header_and_shape(tiny_variant_outcome, tmp_path):
    cfg, outcome = tiny_variant_outcome
    path = tmp_path / "out.csv"
    write_csv(outcome.rows, str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == HEADER
    assert text.endswith("\n")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(outcome.rows)
    for r in rows:
        assert r["pred_source"] in ("", "ode", "fixed_point", "closed_form")
        if r["run_id"] != "mean":
            assert r["stderr"] == ""
        if r["prediction"] and float(r["prediction"]) != 0 and r["value"]:
            want = abs(float(r["value"]) - float(r["prediction"]))
            assert float(r["abs_err"]) == pytest.approx(want, rel=1e-6)


def test_mean_rows_carry_stderr(tiny_variant_outcome):
    _, outcome = tiny_variant_outcome
    means = [r for r in outcome.rows if r.run_id == "mean"]
    assert means
    assert all(r.stderr is not None for r in means)


def test_closed_form_prediction_only_without_initial_graph(tiny_variant_outcome):
    _, outcome = tiny_variant_outcome
    preds = {r.pred_source for r in outcome.rows if r.prediction is not None}
    assert preds == {"closed_form"}  # s2 -> 1/(1-t) for the empty start


def test_rerun_is_byte_identical(tmp_path):
    cfg_dict = {
        "experiment": "giant", "n": 3000, "replicates": 2, "seed": 17,
        "t_grid": [1.4], "out": "",
    }
    texts = []
    for name in ("a.csv", "b.csv"):
        cfg_dict["out"] = str(tmp_path / name)
        cfg = ExperimentConfig.from_dict(cfg_dict)
        assert run_config(cfg, check=False, quiet=True) == 0
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]


def test_run_config_writes_meta_sidecar(tmp_path):
    out = tmp_path / "c.csv"
    cfg = ExperimentConfig.from_dict(
        {"experiment": "constants", "n": 100, "out": str(out)}
    )
    assert run_config(cfg, check=True, quiet=True) == 0
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["config"]["experiment"] == "constants"
    assert all(c["passed"] for c in meta["checks"])
    assert meta["versions"]["numpy"]


def test_failed_writes_keep_the_old_files(tiny_variant_outcome, tmp_path):
    cfg, outcome = tiny_variant_outcome
    path = tmp_path / "out.csv"
    meta = tmp_path / "out.csv.meta.json"
    path.write_text("old csv\n")
    meta.write_text("old meta\n")
    with mock.patch.object(os, "replace", side_effect=OSError("disk full")):
        with pytest.raises(OSError):
            write_csv(outcome.rows, str(path))
        with pytest.raises(OSError):
            write_meta(str(path), cfg, 0.0, outcome.checks)
    assert path.read_text() == "old csv\n"
    assert meta.read_text() == "old meta\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.meta.json"]
    write_csv(outcome.rows, str(path))
    assert path.read_text().startswith(HEADER)


def test_check_fails_when_the_experiment_emits_no_check(tmp_path, capsys):
    # growth checks its level only at delta = 0.1 and fits a slope only from
    # two deltas, so a lone delta of 0.2 yields rows but no check
    cfg = ExperimentConfig.from_dict({
        "experiment": "growth", "n": 2000, "replicates": 2, "seed": 3,
        "delta_grid": [0.2], "out": str(tmp_path / "g.csv"),
    })
    assert run_config(cfg, check=True) == 4
    assert "0 checks, 0 failed" in capsys.readouterr().out
    assert run_config(cfg, check=False, quiet=True) == 0


def test_growth_level_check_matches_a_delta_a_few_ulps_off():
    """A grid value that is 0.1 up to rounding still gets the level check."""
    near = 0.1 + 4 * math.ulp(0.1)
    assert near != 0.1
    cfg = ExperimentConfig.from_dict({"experiment": "growth", "n": 2000, "replicates": 2,
                                      "seed": 3, "delta_grid": [near]})
    names = [c.name for c in run_experiment(cfg).checks]
    assert names == ["growth delta=0.1 mean c1_frac vs gamma*delta"]


# ---------------------------------------------------------------------------
# distribution files

def test_distribution_csv_roundtrip(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,50\n2,25\n")
    dist = SizeDistribution.from_csv(str(p))
    assert dist.counts == {1: 50, 2: 25}
    assert dist.s(2) == pytest.approx(1.5)


def test_distribution_csv_requires_exact_header(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("sz,cnt\n1,50\n")
    with pytest.raises(InvalidConfigError):
        SizeDistribution.from_csv(str(p))


def test_distribution_csv_rejects_bad_rows(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n0,5\n")
    with pytest.raises(InvalidConfigError):
        SizeDistribution.from_csv(str(p))


# ---------------------------------------------------------------------------
# command line contract

def test_cli_ode_runs_clean():
    proc = cli("ode", "--tol", "1e-6")
    assert proc.returncode == 0
    assert "tc=" in proc.stdout
    assert "gamma=" in proc.stdout


def test_cli_usage_errors_exit_2():
    assert cli("simulate", "--process", "warp", "--n", "10",
               "--t", "1", "--seed", "1").returncode == 2
    assert cli("bogus-subcommand").returncode == 2


@pytest.mark.parametrize("args", [
    ("simulate", "--process", "er", "--n", "10", "--t", "1", "--seed", "1",
     "--record", "0.5,abc"),
    ("ode", "--tol", "0"),
    ("ode", "--tol", "-1"),
    ("ode", "--tol", "nan"),
    ("ode", "--tol", "inf"),
    ("ode", "--csv", "{tmp}/missing/x.csv"),
    ("fixed-point", "--dist", "{tmp}/missing.csv", "--t", "1"),
    ("fixed-point", "--dist", "{tmp}", "--t", "1"),
    ("fixed-point", "--dist", "{tmp}/binary", "--t", "1"),
    ("fixed-point", "--dist", "{tmp}/dist.csv", "--t", "1", "--csv", "{tmp}/binary/x.csv"),
    ("experiment", "--config", "{tmp}/binary"),
])
def test_cli_bad_inputs_exit_2_without_a_traceback(tmp_path, args):
    """Unparsable record lists, tolerances that are not finite and positive,
    and files that cannot be read or written are usage errors."""
    (tmp_path / "dist.csv").write_text("size,count\n1,500\n2,250\n")
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00size,count\n")
    proc = cli(*(a.replace("{tmp}", str(tmp_path)) for a in args))
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "missing").exists()


def test_cli_simulate_rejects_numba_engine_and_er_beyond_complete_graph():
    assert cli("simulate", "--process", "bf", "--n", "10", "--t", "1",
               "--seed", "1", "--engine", "numba").returncode == 2
    # n=5 at t=5 asks for 12 distinct edges; the complete graph has 10
    proc = cli("simulate", "--process", "er", "--n", "5", "--t", "5", "--seed", "1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_product_engines_print_identical_traces():
    args = ("simulate", "--process", "product", "--n", "3000", "--t", "1.2",
            "--seed", "4", "--initial", "3:50,2:100", "--record", "0.3,0.9,1.2")
    auto, scalar = cli(*args, "--engine", "auto"), cli(*args, "--engine", "python")
    assert auto.returncode == scalar.returncode == 0
    assert auto.stdout == scalar.stdout
    assert len(auto.stdout.splitlines()) == 4


@pytest.mark.parametrize("args", [
    ("--process", "bf", "--t", "nan", "--seed", "1"),
    ("--process", "bf", "--t", "inf", "--seed", "1"),
    ("--process", "bf", "--t", "1", "--record", "nan", "--seed", "1"),
    ("--process", "product", "--t", "1", "--seed", "-1"),
    ("--process", "er-poisson", "--t", "1e300", "--seed", "1"),
])
def test_cli_simulate_rejects_non_finite_times_negative_seeds_and_huge_means(args):
    proc = cli("simulate", "--n", "100", *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("args", [
    ("--process", "er-wr", "--t", "1e12"),
    ("--process", "er-poisson", "--t", "1e15"),
    ("--process", "product", "--t", "1e12", "--record", "0.5"),
])
def test_cli_simulate_rejects_more_attempts_than_a_run_may_make(args):
    """These used to run for ever; the timeout turns a hang into a failure."""
    proc = cli("simulate", "--n", "100", "--seed", "1", *args, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "one run may attempt" in proc.stderr


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_cli_fixed_point_rejects_non_finite_density(tmp_path, t):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,500000\n2,250000\n")
    proc = cli("fixed-point", "--dist", str(p), "--t", t)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_cli_experiment_creates_output_directory(tmp_path):
    cfg = {
        "experiment": "constants",
        "n": 100,
        "seed": 7,
        "out": "results/constants.csv",
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "percolab", "experiment", "--config", str(p)],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results" / "constants.csv").read_text().startswith(HEADER)


def test_cli_bad_config_exits_2(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"experiment": "moments", "n": 1000, "t_grid": [0.5], "frobnicate": 1}')
    proc = cli("experiment", "--config", str(p))
    assert proc.returncode == 2
    assert cli("experiment", "--config", str(tmp_path / "missing.json")).returncode == 2
    p.write_text('{"experiment": "moments", "n": 1000.5, "t_grid": [0.5]}')
    proc = cli("experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: n must be an integer")


def test_cli_numerical_failure_exits_3(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,500000\n2,250000\n")
    proc = cli("fixed-point", "--dist", str(p), "--t", "0.7166666667",
               "--tol", "1e-300")
    assert proc.returncode == 3


def test_cli_check_violation_exits_4(tmp_path):
    cfg = {
        "experiment": "moments", "n": 200, "replicates": 2, "seed": 1,
        "t_grid": [1.0], "out": str(tmp_path / "m.csv"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    proc = cli("experiment", "--config", str(p), "--check")
    assert proc.returncode == 4
    assert "[FAIL]" in proc.stdout


def test_cli_simulate_prints_trace_csv():
    proc = cli("simulate", "--process", "bf", "--n", "5000", "--t", "1.0",
               "--seed", "5", "--record", "0.5,1.0")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,m,s2,s3,s4,c1_frac,c2_frac,x1"
    assert len(lines) == 3


def test_cli_fixed_point_reports_bounds(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,500000\n2,250000\n")
    proc = cli("fixed-point", "--dist", str(p), "--t", str(1 / 1.5 + 0.05))
    assert proc.returncode == 0
    out = dict(line.split("=", 1) for line in proc.stdout.strip().splitlines())
    assert float(out["rho"]) == pytest.approx(0.123070604, abs=1e-6)
    assert out["regime"] == "supercritical"
    assert float(out["lower"]) == pytest.approx(0.11475, abs=1e-6)
    assert float(out["upper"]) == pytest.approx(0.16416, abs=1e-6)
