"""Small golden CSVs of all six experiments, byte for byte.

They pin the row order, the seed of every replicate and the mean rows of
each experiment in well under a second, where the committed full-size
results in scripts/results/ take minutes. To rewrite them after a change
that is meant to alter the output, run

    PYTHONPATH=src python tests/test_golden.py

The sidecars of the committed full-size results must describe the
shipped configs that scripts/run_all.sh runs, and this numpy must draw
the stream they were made with.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from percolab.harness import ExperimentConfig, run_experiment, write_csv, write_meta
from percolab.processes import CHUNK

GOLDEN = Path(__file__).resolve().parent / "data" / "harness_golden"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

SMALL = dict(n=3000, replicates=3, seed=42)
CONFIGS = {
    "constants": dict(experiment="constants", n=100, seed=42),
    "moments": dict(SMALL, experiment="moments", t_grid=[0.25, 0.5, 1.0]),
    "giant": dict(SMALL, experiment="giant", initial="2:750", t_grid=[0.6, 1.2, 2.0]),
    "growth": dict(SMALL, experiment="growth", delta_grid=[0.0, 0.05, 0.1, 0.2],
                   workers=2),
    "two_phase": dict(SMALL, experiment="two_phase", delta_grid=[0.05, 0.1], workers=2),
    "variant_agreement": dict(SMALL, experiment="variant_agreement", t_grid=[0.5, 0.9]),
}


def write_golden(name: str, path: Path) -> None:
    cfg = ExperimentConfig.from_dict(CONFIGS[name])
    write_csv(run_experiment(cfg).rows, str(path))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_small_experiment_matches_golden_csv(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    write_golden(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_committed_sidecar_records_the_shipped_config(name, tmp_path):
    """The sidecar of a committed result names the library versions that
    write_meta records now, and no others."""
    meta = json.loads((SCRIPTS / "results" / f"{name}.csv.meta.json").read_text())
    cfg = ExperimentConfig.from_json(str(SCRIPTS / "configs" / f"{name}.json"))
    assert meta["config"] == cfg.to_dict()
    assert "numba" not in meta["versions"]
    write_meta(str(tmp_path / "out.csv"), cfg, 0.0, [])
    written = json.loads((tmp_path / "out.csv.meta.json").read_text())
    assert meta["versions"].keys() == written["versions"].keys()
    assert meta["checks"] and all(c["passed"] for c in meta["checks"])


def test_numpy_draws_the_stream_the_goldens_were_made_with():
    """NumPy does not promise that Generator streams stay the same across
    releases, and every golden CSV is byte for byte, so a changed stream
    is named as the cause before any golden comparison is read."""
    made_with = {json.loads(p.read_text())["versions"]["numpy"]
                 for p in (SCRIPTS / "results").glob("*.meta.json")}
    rng = np.random.default_rng(42)
    rows = rng.integers(0, 3000, size=(CHUNK, 4), dtype=np.int64)
    got = (hashlib.sha256(rows[:1024].tobytes()).hexdigest()[:16], int(rng.poisson(899.4)))
    assert got == ("b71c2ab14ffc0735", 877), (
        f"numpy {np.__version__} draws another stream than numpy "
        f"{', '.join(sorted(made_with))}, which made the golden results")


if __name__ == "__main__":
    for name in CONFIGS:
        write_golden(name, GOLDEN / f"{name}.csv")
