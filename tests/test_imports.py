"""No path loads scipy, and a run on one worker loads no thread pool.

The limit system is integrated by the package's own DOP853 and Brent
(percolab.dop853), so the `ode` subcommand and every experiment run on
numpy alone, and the package imports no scipy module at all: the sidecar
records the numpy version only. concurrent.futures is imported only when
a block of replicates runs on more than one worker. Each of those tests
runs in a fresh interpreter, since a module once imported stays in
sys.modules. Last, every module's star import binds each name its
__all__ lists.
"""
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import percolab
from conftest import child_env
from percolab.harness import EXPERIMENTS

HALF_PAIRS = str(Path(__file__).resolve().parents[1] / "scripts" / "data" / "half_pairs.csv")
SOLVERS = ("scipy.integrate", "scipy.optimize", "scipy.special")
SIMULATE = ("simulate", "--process", "bf", "--n", "2000", "--t", "1.2", "--seed", "1",
            "--record", "0.5,1.2")
FIXED_POINT = ("fixed-point", "--dist", HALF_PAIRS, "--t", "1")
ODE = ("ode",)


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
print("loaded:", sorted(m for m in {SOLVERS!r} if m in sys.modules))
"""
    proc = child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"
    assert (tmp_path / "giant.csv").exists() and (tmp_path / "variants.csv").exists()


LIMIT_SYSTEM_CONFIGS = [
    {"experiment": "constants", "n": 100, "out": "constants.csv"},
    {"experiment": "moments", "n": 1000, "replicates": 2, "t_grid": [0.5],
     "out": "moments.csv"},
    {"experiment": "two_phase", "n": 1000, "replicates": 2, "delta_grid": [0.1],
     "out": "two_phase.csv"},
    {"experiment": "growth", "n": 1000, "replicates": 2, "delta_grid": [0.1],
     "out": "growth.csv"},
]


ONE_WORKER_CONFIGS = [dict(cfg, workers=1) for cfg in LIMIT_SYSTEM_CONFIGS] + [
    {"experiment": "giant", "n": 2000, "replicates": 2, "initial": "2:500",
     "t_grid": [0.6, 1.5], "workers": 1, "out": "giant.csv"},
    {"experiment": "variant_agreement", "n": 2000, "replicates": 2, "t_grid": [0.5],
     "workers": 1, "out": "variants.csv"},
]
UNUSED = """
def unused():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] == "scipy" or m.startswith("concurrent.futures"))
"""


def test_one_worker_runs_load_neither_scipy_nor_the_thread_pool(tmp_path):
    """Importing the package and its command line, running each subcommand,
    then validating and running a one-worker config of every experiment
    loads no scipy module and no concurrent.futures."""
    assert {cfg["experiment"] for cfg in ONE_WORKER_CONFIGS} == set(EXPERIMENTS)
    code = f"""
import sys
import percolab, percolab.cli
from percolab.harness import ExperimentConfig, run_config
{UNUSED}
for args in ({list(SIMULATE)!r}, {list(FIXED_POINT)!r}, {list(ODE)!r}):
    assert percolab.cli.main(args) == 0
for cfg in {ONE_WORKER_CONFIGS!r}:
    config = ExperimentConfig.from_dict(cfg)
    assert run_config(config) == 0
print("loaded:", unused())
"""
    proc = child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"
    for cfg in ONE_WORKER_CONFIGS:
        assert (tmp_path / cfg["out"]).exists()


def test_a_pooled_run_loads_the_pool_and_writes_the_serial_csv(tmp_path):
    """A moments run on two workers imports concurrent.futures, which one on
    one worker does not, and writes the same CSV byte for byte."""
    code = f"""
import sys
from percolab.harness import ExperimentConfig, run_config
{UNUSED}
for workers in (1, 2):
    config = ExperimentConfig.from_dict({{"experiment": "moments", "n": 1000, "replicates": 3,
                                         "t_grid": [0.5, 1.0], "workers": workers,
                                         "out": f"moments-{{workers}}.csv"}})
    assert run_config(config) == 0
    print("pool:", workers, unused())
"""
    proc = child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pool = [line for line in proc.stdout.splitlines() if line.startswith("pool:")]
    assert pool[0] == "pool: 1 []"
    assert pool[1].startswith("pool: 2 ['concurrent.futures'")
    serial = (tmp_path / "moments-1.csv").read_bytes()
    assert serial and (tmp_path / "moments-2.csv").read_bytes() == serial


def test_the_limit_system_never_loads_the_solvers():
    """`ode` and find_tc integrate the limit system on numpy alone."""
    code = f"""
import sys
import percolab.cli
from percolab.ode import find_tc

assert percolab.cli.main({list(ODE)!r}) == 0
find_tc(1e-6)
print("loaded:", sorted(m for m in {SOLVERS!r} if m in sys.modules))
"""
    proc = child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"


@pytest.mark.parametrize("cfg", LIMIT_SYSTEM_CONFIGS, ids=lambda cfg: cfg["experiment"])
def test_a_limit_system_experiment_never_loads_the_solvers(cfg, tmp_path):
    """Neither validating nor running an experiment that integrates the limit
    system loads a solver."""
    code = f"""
import sys
from percolab.harness import ExperimentConfig, run_config

config = ExperimentConfig.from_dict({cfg!r})
validated = sorted(m for m in {SOLVERS!r} if m in sys.modules)
assert run_config(config) == 0
print("loaded:", validated, sorted(m for m in {SOLVERS!r} if m in sys.modules))
"""
    proc = child(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: [] []"
    assert (tmp_path / cfg["out"]).exists()


BLOCKED_MAIN = f"""
import sys
sys.modules.update(dict.fromkeys({SOLVERS!r}))
from percolab.cli import main
sys.exit(main())
"""


@pytest.mark.parametrize("args", [SIMULATE, FIXED_POINT, ODE], ids=lambda a: a[0])
def test_numpy_only_subcommands_run_without_the_solvers(args):
    """With scipy's solvers blocked (an import of one raises), each subcommand,
    `ode` too, exits 0 and prints what an unblocked run prints."""
    blocked = child(BLOCKED_MAIN, *args)
    plain = subprocess.run([sys.executable, "-m", "percolab", *args], capture_output=True,
                           text=True, timeout=120, env=child_env())
    assert blocked.returncode == 0, blocked.stderr
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout
    assert blocked.stdout


def test_the_block_is_real():
    """Importing a blocked module fails, so the test above can fail."""
    proc = child(f"import sys\nsys.modules.update(dict.fromkeys({SOLVERS!r}))\n"
                 "import scipy.integrate")
    assert proc.returncode != 0
    assert "ModuleNotFoundError" in proc.stderr


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(percolab.__path__) if m.name != "__main__"))
def test_star_import_binds_every_name_in_all(name):
    module = importlib.import_module(f"percolab.{name}")
    namespace = {}
    exec(f"from percolab.{name} import *", namespace)
    assert [n for n in getattr(module, "__all__", ()) if n not in namespace] == []
