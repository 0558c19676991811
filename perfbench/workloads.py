"""Workload definitions: scaled-down shipped experiment configs.

Every workload is a fixed list of operations. An operation is either one
experiment config (driven through ``ExperimentConfig.from_dict`` ->
``run_experiment`` -> ``write_csv``/``write_meta``) or one direct
``run_process`` call. Only the seeds depend on the benchmark seed: the
config at position ``k`` of a workload gets ``seed = 1000 * S + 100 * k``
for benchmark seed ``S``, so the run seeds ``seed ^ j`` (``j`` < 100) of
different operations never collide.
"""
from __future__ import annotations

SUBCRITICAL_N = 200_000
PRODUCT_T = (0.25, 0.5, 0.75, 1.0)

# Each entry: (op name, kind, spec). kind "experiment" specs are config
# dicts without seed/out; kind "process" specs are run_process keywords
# without seed.
WORKLOADS: dict[str, list[tuple[str, str, dict]]] = {
    "bf-subcritical": [
        ("constants", "experiment", {"experiment": "constants", "n": 100, "tol": 1e-8}),
        ("moments", "experiment", {
            "experiment": "moments", "n": SUBCRITICAL_N, "replicates": 2,
            "t_grid": [0.25, 0.5, 0.75, 1.0], "workers": 1,
        }),
        ("two_phase", "experiment", {
            "experiment": "two_phase", "n": SUBCRITICAL_N, "replicates": 2,
            "delta_grid": [0.1], "workers": 1,
        }),
        ("product-0", "process", {
            "kind": "product", "n": SUBCRITICAL_N, "t_end": PRODUCT_T[-1],
            "record_at": PRODUCT_T,
        }),
        ("product-1", "process", {
            "kind": "product", "n": SUBCRITICAL_N, "t_end": PRODUCT_T[-1],
            "record_at": PRODUCT_T,
        }),
    ],
    "uniform-variants": [
        ("variant_agreement", "experiment", {
            "experiment": "variant_agreement", "n": SUBCRITICAL_N, "replicates": 2,
            "t_grid": [0.5, 0.9], "workers": 1,
        }),
        ("giant", "experiment", {
            "experiment": "giant", "n": SUBCRITICAL_N, "replicates": 2,
            "initial": f"2:{SUBCRITICAL_N // 4}", "t_grid": [0.6, 0.8, 1.2, 1.5, 2.0],
            "workers": 1,
        }),
    ],
}

# The operation re-run at workers = 2 after the timed rounds: its CSV must
# not depend on the worker count, and the traced run times it for the
# pool speed-up.
POOL_TWIN = ("bf-subcritical", "moments")


def operations(workload: str, seed: int, out_dir: str,
               workers: int | None = None, only: str | None = None) -> list[dict]:
    """Seeded operations of one workload, as JSON-ready dicts.

    ``workers`` overrides every experiment's worker count; ``only`` keeps
    the one operation of that name.
    """
    ops = []
    for k, (name, kind, spec) in enumerate(WORKLOADS[workload]):
        if only is not None and name != only:
            continue
        spec = dict(spec, seed=1000 * seed + 100 * k)
        if kind == "experiment":
            spec["out"] = f"{out_dir}/{name}.csv"
            if workers is not None:
                spec["workers"] = workers
        else:
            spec["record_at"] = list(spec["record_at"])
        ops.append({"name": name, "kind": kind, "spec": spec})
    return ops
