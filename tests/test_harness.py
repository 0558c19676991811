"""Experiment configs, CSV output contract, determinism and CLI exit codes."""

import csv
import itertools
import json
import math
import os
import pickle
import resource
import subprocess
import sys
import time
from unittest import mock

import pytest
from conftest import child_env

from percolab import InvalidConfigError, ProcessKind, SizeDistribution
from percolab.cli import main
from percolab.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
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


def cli(*args, timeout=600, preexec_fn=None):
    """Run `python -m percolab` in a child interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "percolab", *args],
        capture_output=True, text=True, timeout=timeout, env=child_env(),
        preexec_fn=preexec_fn,
    )
    return proc


def run_cli(capsys, *args):
    """Run the command line in this process: its exit code and what it
    printed, in the shape `cli` returns."""
    code = main(list(args))
    out = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out.out, out.err)


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
    # process is no longer a key; initial only where the experiment reads it
    {"experiment": "constants", "process": "bf"},
    {"experiment": "growth", "delta_grid": [0.1], "process": "product"},
    {"experiment": "two_phase", "delta_grid": [0.1], "process": "er"},
    {"experiment": "variant_agreement", "process": "er"},
    {"experiment": "constants", "initial": "2:10"},
    {"experiment": "two_phase", "delta_grid": [0.1], "initial": "2:10"},
    {"experiment": "moments", "t_grid": [0.5], "initial": "2:10"},
    {"experiment": "growth", "delta_grid": [0.1], "initial": "2:10"},
    # refused before any run: Simulation rejects a negative seed only after
    # moments has integrated the limit system, solve_rho a giant time of 0
    # only after every replicate ran, and one replicate leaves every
    # variant_agreement gate an allowance of 0
    {"seed": -1},
    {"experiment": "giant", "t_grid": [0.0, 1.5]},
    {"experiment": "variant_agreement", "replicates": 1},
])
def test_config_validate_rejects(patch):
    base = {"experiment": "moments", "n": 1000, "t_grid": [0.5]}
    base.update(patch)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig.from_dict(base)


# each experiment's contract: the grid it needs and whether it reads `initial`
CONTRACTS = {
    "moments": ("t_grid", False),
    "constants": ("", False),
    "giant": ("t_grid", True),
    "growth": ("delta_grid", False),
    "two_phase": ("delta_grid", False),
    "variant_agreement": ("t_grid", True),
}
GRID_VALUES = {"t_grid": [0.5], "delta_grid": [0.1]}


def test_config_validates_each_experiment_by_its_contract():
    assert {name: (e.grid, e.reads_initial) for name, e in EXPERIMENTS.items()} == CONTRACTS
    for experiment, (grid, reads_initial) in CONTRACTS.items():
        minimal = {"experiment": experiment, "n": 1000}
        if grid:
            with pytest.raises(InvalidConfigError, match=f"needs a nonempty {grid}"):
                ExperimentConfig.from_dict(minimal)
            minimal[grid] = GRID_VALUES[grid]
        ExperimentConfig.from_dict(minimal)
        with_initial = {**minimal, "initial": "2:10"}
        if reads_initial:
            ExperimentConfig.from_dict(with_initial)
        else:
            with pytest.raises(InvalidConfigError, match="initial is not used"):
                ExperimentConfig.from_dict(with_initial)


@pytest.mark.parametrize("experiment,key,value", [
    ("moments", "process", "bf"),
    ("giant", "process", "er-poisson"),
    ("giant", "loops", True),
    ("growth", "band_coeff", 1.0),
    ("growth", "slope_max_delta", 0.15),
])
def test_config_rejects_removed_keys_as_unknown(experiment, key, value):
    """process, loops, band_coeff and slope_max_delta only ever took one
    value; experiments always run that value and the keys are gone."""
    cfg = {"experiment": experiment, "n": 1000, "t_grid": [0.5], "delta_grid": [0.1],
           key: value}
    with pytest.raises(InvalidConfigError, match=f"unknown config keys: \\['{key}'\\]"):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("n,replicates", [(1000, 10**12), (10, 10**9)])
def test_config_rejects_more_replicates_than_a_block_can_hold(n, replicates, tmp_path, capsys):
    """A block builds every replicate's seed and spec at once, so a huge
    count would run out of memory only after a long allocation; it is
    refused at once, and the largest count allowed still validates."""
    from percolab.harness import MAX_REPLICATES

    cfg = {"experiment": "moments", "n": n, "replicates": replicates, "t_grid": [0.5]}
    start = time.perf_counter()
    with pytest.raises(InvalidConfigError, match="replicates must lie in"):
        ExperimentConfig.from_dict(cfg)
    assert time.perf_counter() - start < 1.0
    ExperimentConfig.from_dict({**cfg, "replicates": MAX_REPLICATES})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**cfg, "out": str(tmp_path / "m.csv")}))
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: replicates must lie in")
    assert not (tmp_path / "m.csv").exists()


def test_config_rejects_more_workers_than_the_pool_may_start(tmp_path, capsys):
    """The pool starts one thread per worker, up to the replicate count, so
    a huge count is refused by validation, before any thread is started,
    and the largest count allowed still validates."""
    import threading

    from percolab.harness import MAX_WORKERS

    cfg = {"experiment": "moments", "n": 1000, "replicates": MAX_WORKERS + 1,
           "workers": MAX_WORKERS + 1, "t_grid": [0.5]}
    ExperimentConfig.from_dict({**cfg, "workers": MAX_WORKERS})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**cfg, "out": str(tmp_path / "m.csv")}))
    threads = threading.active_count()
    with mock.patch("concurrent.futures.ThreadPoolExecutor") as pool:
        proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: workers must lie in [1, {MAX_WORKERS}]")
    assert not pool.called and threading.active_count() == threads
    assert not (tmp_path / "m.csv").exists()


def test_config_roundtrips_through_dict():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "giant", "n": 1000, "t_grid": [1.5], "seed": 9}
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ---------------------------------------------------------------------------
# run specs and seeds

def test_run_spec_pickles():
    spec = RunSpec(ProcessKind.BOUNDED_SIZE, 1000, 43, 1.2, (0.5, 1.2), "2:10")
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
        assert run_config(cfg, check=False) == 0
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]


def test_run_config_writes_meta_sidecar(tmp_path):
    out = tmp_path / "c.csv"
    cfg = ExperimentConfig.from_dict(
        {"experiment": "constants", "n": 100, "out": str(out)}
    )
    assert run_config(cfg, check=True) == 0
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
    assert run_config(cfg, check=False) == 0


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


def test_cli_fixed_point_checks_each_row_before_summing_equal_sizes(tmp_path, capsys):
    """A negative count must not cancel part of another row's for the same
    size, which would leave a valid-looking {3: 1}."""
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n3,-1\n3,2\n")
    proc = run_cli(capsys, "fixed-point", "--dist", str(p), "--t", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "bad row ['3', '-1']" in proc.stderr


# ---------------------------------------------------------------------------
# command line contract

def test_cli_ode_runs_clean():
    """The `python -m percolab` entry point, in a child interpreter."""
    proc = cli("ode", "--tol", "1e-6")
    assert proc.returncode == 0
    assert "tc=" in proc.stdout
    assert "gamma=" in proc.stdout


def test_cli_usage_errors_exit_2():
    for args in (["simulate", "--process", "warp", "--n", "10", "--t", "1", "--seed", "1"],
                 ["bogus-subcommand"]):
        with pytest.raises(SystemExit) as exit_:
            main(args)
        assert exit_.value.code == 2


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
    ("experiment", "--config", "{tmp}/constants.json", "--out", "{tmp}/dist.csv/x.csv"),
    ("experiment", "--config", "{tmp}/nested.json"),
    ("fixed-point", "--dist", "{tmp}/triples.csv", "--t", "1e160", "--csv", "{tmp}/missing"),
    ("fixed-point", "--dist", "{tmp}/triples.csv", "--t", "1e300"),
    ("ode", "--csv", "{tmp}/sub/"),
    ("fixed-point", "--dist", "{tmp}/dist.csv", "--t", "1", "--csv", "."),
])
def test_cli_bad_inputs_exit_2_without_a_traceback(tmp_path, args):
    """Unparsable record lists, tolerances that are not finite and positive,
    files that cannot be read or written (or parsed, like a config nested
    too deeply for the JSON reader), a --csv that names no file and a t
    whose giant bounds overflow a float are usage errors; no CSV is
    written."""
    (tmp_path / "dist.csv").write_text("size,count\n1,500\n2,250\n")
    (tmp_path / "triples.csv").write_text("size,count\n3,5\n")
    (tmp_path / "nested.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "constants.json").write_text('{"experiment": "constants", "n": 100}')
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00size,count\n")
    proc = cli(*(a.replace("{tmp}", str(tmp_path)) for a in args))
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "missing").exists()


def test_cli_unwritable_stdout_exits_2_without_a_traceback():
    """A full device reports the failed write; a reader that closes the pipe
    early (like `| head -1`) gets no message at all."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "percolab", "ode"], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=child_env())
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write standard output: [Errno 28]")
    # 3000 trace rows, about 160 KB: more than a pipe holds, so writes go on
    # after the reader has gone
    record = ",".join(str(i / 1000) for i in range(1, 3001))
    with subprocess.Popen([sys.executable, "-m", "percolab", "simulate", "--process", "er-wr",
                           "--n", "1000", "--t", "3", "--seed", "1", "--record", record],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env()) as proc:
        assert proc.stdout.readline() == "t,m,s2,s3,s4,c1_frac,c2_frac,x1\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert (proc.returncode, stderr) == (2, "")


def test_cli_started_without_stdout_succeeds_silently():
    """With file descriptor 1 closed, sys.stdout is None and print() writes
    nothing; the run still succeeds."""
    proc = subprocess.run([sys.executable, "-m", "percolab", "ode"], stderr=subprocess.PIPE,
                          text=True, timeout=60, env=child_env(),
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_simulate_rejects_numba_engine_and_er_beyond_complete_graph(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--process", "bf", "--n", "10", "--t", "1", "--seed", "1",
              "--engine", "numba"])
    assert exit_.value.code == 2
    # a two-choice round counts as one attempt, loop or not; there is no other mode
    proc = cli("simulate", "--process", "bf", "--n", "10", "--t", "1", "--seed", "1",
               "--no-loops")
    assert proc.returncode == 2
    assert "unrecognized arguments: --no-loops" in proc.stderr
    assert "Traceback" not in proc.stderr
    # n=5 at t=5 asks for 12 distinct edges; the complete graph has 10
    proc = run_cli(capsys, "simulate", "--process", "er", "--n", "5", "--t", "5", "--seed", "1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_product_engines_print_identical_traces(capsys):
    args = ("simulate", "--process", "product", "--n", "3000", "--t", "1.2",
            "--seed", "4", "--initial", "3:50,2:100", "--record", "0.3,0.9,1.2")
    auto = run_cli(capsys, *args, "--engine", "auto")
    scalar = run_cli(capsys, *args, "--engine", "python")
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
def test_cli_simulate_rejects_non_finite_times_negative_seeds_and_huge_means(args, capsys):
    proc = run_cli(capsys, "simulate", "--n", "100", *args)
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
def test_cli_fixed_point_rejects_non_finite_density(tmp_path, t, capsys):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,500000\n2,250000\n")
    proc = run_cli(capsys, "fixed-point", "--dist", str(p), "--t", t)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_cli_experiment_creates_output_directory(tmp_path, capsys, monkeypatch):
    cfg = {
        "experiment": "constants",
        "n": 100,
        "seed": 7,
        "out": "results/constants.csv",
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results" / "constants.csv").read_text().startswith(HEADER)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text('{"experiment": "moments", "n": 1000, "t_grid": [0.5], "frobnicate": 1}')
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    missing = run_cli(capsys, "experiment", "--config", str(tmp_path / "missing.json"))
    assert missing.returncode == 2
    p.write_text('{"experiment": "moments", "n": 1000.5, "t_grid": [0.5]}')
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: n must be an integer")


def test_cli_experiment_config_errors_go_to_stderr(tmp_path):
    """An error found while the experiment runs (moments past tc - 0.05) is
    reported like one found while parsing: exit 2, error: on stderr, no CSV."""
    out = tmp_path / "m.csv"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "moments", "n": 1000, "t_grid": [1.2],
                             "out": str(out)}))
    proc = cli("experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: t_grid must stay below tc - 0.05")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_cli_failed_experiment_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    """The missing parents of `out` are made only once the run succeeded."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "moments", "n": 1000, "t_grid": [1.2],
                             "out": "newdir/m.csv"}))
    monkeypatch.chdir(tmp_path)
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: t_grid must stay below tc - 0.05")
    assert not (tmp_path / "newdir").exists()


def test_cli_refuses_repeated_growth_deltas(tmp_path, capsys):
    """A repeated delta ran its block twice, kept the last mean alone and
    then divided by the zero spread of the fitted deltas. It is refused
    before any run."""
    out = tmp_path / "g.csv"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "growth", "n": 1000, "replicates": 2,
                             "delta_grid": [0.1, 0.1], "out": str(out)}))
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: growth deltas must be distinct")
    assert not out.exists()


@pytest.mark.parametrize("experiment, grid", [("two_phase", {"delta_grid": [0.1, 0.1]}),
                                              ("moments", {"t_grid": [0.5, 0.5]})])
def test_cli_refuses_a_repeated_grid_point(experiment, grid, tmp_path, capsys):
    """A repeated delta or t ran its block twice and wrote every row key
    twice, each with its own values. Every experiment refuses it, as growth
    does, before any run."""
    out = tmp_path / "r.csv"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": experiment, "n": 1000, "replicates": 2,
                             **grid, "out": str(out)}))
    proc = run_cli(capsys, "experiment", "--config", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {experiment} ")
    assert "must be distinct" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("out", ["", ".", "sub/", "sub/.", ".."])
def test_cli_refuses_an_out_that_names_no_file(out, tmp_path, capsys, monkeypatch):
    """An out of "" or "." ran the experiment and then failed on the write
    with a traceback; "sub/" and "sub/." wrote the CSV as a file named sub
    and then failed on the sidecar. Each is refused before any run."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "constants", "n": 100, "out": out}))
    monkeypatch.chdir(tmp_path)
    with mock.patch("percolab.harness.run_experiment") as run:
        proc = run_cli(capsys, "experiment", "--config", str(p))
    run.assert_not_called()
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out must name a file")
    assert os.listdir(tmp_path) == ["cfg.json"]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("args", [
    ("simulate", "--process", "er-wr", "--n", "1000000000000", "--t", "0.5", "--seed", "1"),
    ("experiment", "--config", "{tmp}/huge.json"),
])
def test_cli_out_of_memory_exits_2_without_a_traceback(tmp_path, args):
    """An n too large to allocate (7.28 TiB of forest) is a usage error. The
    child's address space is capped at 4 GiB, so the allocation fails at
    once instead of reaching for the machine's memory."""
    (tmp_path / "huge.json").write_text(json.dumps(
        {"experiment": "moments", "n": 10**12, "t_grid": [0.5],
         "out": str(tmp_path / "m.csv")}))
    proc = cli(*(a.replace("{tmp}", str(tmp_path)) for a in args),
               preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "m.csv").exists()


def test_cli_er_refuses_n_whose_pair_keys_overflow_int64():
    """n = 3037000500 is one above isqrt(int64 max). The child's address
    space is capped as above, so a run that tried to allocate would fail
    with another message."""
    proc = cli("simulate", "--process", "er", "--n", "3037000500", "--t", "0.5",
               "--seed", "1", preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: er keeps its pair keys")
    assert "at most 3037000499" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_output_under_a_regular_file_is_refused_before_the_run(tmp_path):
    (tmp_path / "afile").write_text("")
    cfg = ExperimentConfig(experiment="constants", n=100,
                           out=str(tmp_path / "afile" / "sub" / "c.csv"))
    with mock.patch("percolab.harness.run_experiment") as run, \
            pytest.raises(InvalidConfigError, match="cannot write"):
        run_config(cfg)
    run.assert_not_called()


def test_cli_numerical_failure_exits_3(tmp_path, capsys):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,500000\n2,250000\n")
    proc = run_cli(capsys, "fixed-point", "--dist", str(p), "--t", "0.7166666667",
                   "--tol", "1e-300")
    assert proc.returncode == 3


def test_cli_check_violation_exits_4(tmp_path, capsys):
    cfg = {
        "experiment": "moments", "n": 200, "replicates": 2, "seed": 1,
        "t_grid": [1.0], "out": str(tmp_path / "m.csv"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    proc = run_cli(capsys, "experiment", "--config", str(p), "--check")
    assert proc.returncode == 4
    assert "[FAIL]" in proc.stdout


def test_cli_simulate_prints_trace_csv(capsys):
    proc = run_cli(capsys, "simulate", "--process", "bf", "--n", "5000", "--t", "1.0",
                   "--seed", "5", "--record", "0.5,1.0")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,m,s2,s3,s4,c1_frac,c2_frac,x1"
    assert len(lines) == 3
    assert lines[1] == "0.5,1250,1.6916,4.0048,13.7252,0.0018,0.0016,0.5602"
    assert lines[2] == "1,2500,5.9408,120.6484,3960.6008,0.0098,0.0084,0.3034"


ODE_CSV_AT_TOL_1E_6 = (
    "tc,x_tc,alpha,beta,gamma,g2,g3,g4,"
    "tc_err,x_tc_err,alpha_err,beta_err,gamma_err,g2_err,g3_err,g4_err\n"
    "1.176314791,0.2438454069,1.06321966,0.7642353548,2.461386827,1.06321966,"
    "0.9185358706,2.380622303,1e-06,7.681339009e-09,4.234746775e-09,1.0599992e-09,"
    "6.389614171e-09,4.234746775e-09,9.701421444e-09,4.080557758e-08\n"
)


def test_cli_ode_writes_the_constants_csv(tmp_path, capsys):
    path = tmp_path / "ode.csv"
    proc = run_cli(capsys, "ode", "--tol", "1e-6", "--csv", str(path))
    assert proc.returncode == 0, proc.stderr
    assert path.read_text() == ODE_CSV_AT_TOL_1E_6
    # stdout prints the same cells, one key=value line each
    names, values = ODE_CSV_AT_TOL_1E_6.splitlines()
    assert proc.stdout.splitlines() == [f"{k}={v}" for k, v in
                                        zip(names.split(","), values.split(","))]


def test_cli_ode_failed_csv_write_keeps_the_old_file(tmp_path, capsys):
    path = tmp_path / "ode.csv"
    path.write_bytes(b"old,constants\n1,2\n")
    with mock.patch.object(os, "replace", side_effect=OSError("disk full")):
        code = main(["ode", "--tol", "1e-6", "--csv", str(path)])
    assert code == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert path.read_bytes() == b"old,constants\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ode.csv"]


@pytest.mark.parametrize("exponent, code", [(102, 0), (103, 2), (200, 2)])
def test_cli_fixed_point_refuses_a_size_whose_s4_overflows_a_float(tmp_path, exponent, code):
    """One component of size 10**exponent beside five singletons: s4 is about
    10**(3*exponent), past the largest float from 10**103 on."""
    p = tmp_path / "dist.csv"
    p.write_text(f"size,count\n1,5\n{10 ** exponent},1\n")
    proc = cli("fixed-point", "--dist", str(p), "--t", "1")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr == f"error: {p}: s4 = S4/S1 is not a finite float\n"


def test_cli_fixed_point_reports_bounds(tmp_path, capsys):
    p = tmp_path / "dist.csv"
    p.write_text("size,count\n1,500000\n2,250000\n")
    proc = run_cli(capsys, "fixed-point", "--dist", str(p), "--t", str(1 / 1.5 + 0.05))
    assert proc.returncode == 0
    out = dict(line.split("=", 1) for line in proc.stdout.strip().splitlines())
    assert float(out["rho"]) == pytest.approx(0.123070604, abs=1e-6)
    assert out["regime"] == "supercritical"
    assert float(out["lower"]) == pytest.approx(0.11475, abs=1e-6)
    assert float(out["upper"]) == pytest.approx(0.16416, abs=1e-6)
