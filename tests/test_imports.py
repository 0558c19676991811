"""Which paths load scipy's solvers.

Only the limit system needs scipy.integrate and scipy.optimize: the `ode`
subcommand and the experiments that EXPERIMENTS marks limit_system, whose
validation loads them. Everything else runs on numpy alone. Each test
runs in a fresh interpreter, since a module once imported stays in
sys.modules.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

HALF_PAIRS = str(Path(__file__).resolve().parents[1] / "scripts" / "data" / "half_pairs.csv")
SOLVERS = ("scipy.integrate", "scipy.optimize")
SIMULATE = ("simulate", "--process", "bf", "--n", "2000", "--t", "1.2", "--seed", "1",
            "--record", "0.5,1.2")
FIXED_POINT = ("fixed-point", "--dist", HALF_PAIRS, "--t", "1")


def child(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=child_env(), cwd=cwd)


def test_numpy_only_paths_never_load_the_solvers(tmp_path):
    code = f"""
import sys
import percolab, percolab.cli
from percolab.harness import ExperimentConfig, run_config

assert percolab.cli.main({list(SIMULATE)!r}) == 0
assert percolab.cli.main({list(FIXED_POINT)!r}) == 0
for cfg in (
    {{"experiment": "giant", "n": 2000, "replicates": 2, "initial": "2:500",
      "t_grid": [0.6, 1.5], "out": "giant.csv"}},
    {{"experiment": "variant_agreement", "n": 2000, "replicates": 2,
      "t_grid": [0.5], "out": "variants.csv"}},
):
    assert run_config(ExperimentConfig.from_dict(cfg)) == 0
print("loaded:", sorted(m for m in {SOLVERS + ("scipy.special",)!r} if m in sys.modules))
"""
    proc = child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"
    assert (tmp_path / "giant.csv").exists() and (tmp_path / "variants.csv").exists()


@pytest.mark.parametrize("cfg", [
    {"experiment": "constants", "n": 100},
    {"experiment": "moments", "n": 1000, "t_grid": [0.5]},
    {"experiment": "growth", "n": 1000, "delta_grid": [0.1]},
    {"experiment": "two_phase", "n": 1000, "delta_grid": [0.1]},
], ids=lambda cfg: cfg["experiment"])
def test_validating_a_limit_system_experiment_loads_the_solvers(cfg):
    code = f"""
import sys
from percolab.harness import ExperimentConfig

before = [m for m in {SOLVERS!r} if m in sys.modules]
ExperimentConfig.from_dict({cfg!r})
print(before, [m for m in {SOLVERS!r} if m in sys.modules])
"""
    proc = child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"[] {list(SOLVERS)}"


BLOCKED_MAIN = f"""
import sys
sys.modules.update(dict.fromkeys({SOLVERS!r}))
from percolab.cli import main
sys.exit(main())
"""


@pytest.mark.parametrize("args", [SIMULATE, FIXED_POINT], ids=lambda a: a[0])
def test_numpy_only_subcommands_run_without_the_solvers(args):
    blocked = child(BLOCKED_MAIN, *args)
    plain = subprocess.run([sys.executable, "-m", "percolab", *args], capture_output=True,
                           text=True, timeout=120, env=child_env())
    assert blocked.returncode == 0, blocked.stderr
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout
    assert blocked.stdout


def test_blocking_the_solvers_stops_the_limit_system():
    """The block above is real: `ode` cannot run behind it."""
    proc = child(BLOCKED_MAIN, "ode")
    assert proc.returncode != 0
    assert "ModuleNotFoundError" in proc.stderr
