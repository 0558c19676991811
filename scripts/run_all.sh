#!/usr/bin/env bash
# Run every shipped experiment config with --check in a fresh temporary
# directory, and compare each CSV it writes byte for byte with the
# committed golden copy in scripts/results/. Stops on the first failed
# check or differing CSV. Runs the `percolab` command if it is on PATH
# (pip install -e .), else `python3 -m percolab` from this checkout's src.
# The tracked scripts/results/ is never written.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
if ! command -v percolab > /dev/null; then
    export PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}"
    percolab() { python3 -m percolab "$@"; }
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"  # each config writes to results/<name>.csv relative to here

for name in constants moments giant growth two_phase variant_agreement; do
    cfg="$here/configs/$name.json"
    echo "== percolab experiment --config $cfg --check"
    percolab experiment --config "$cfg" --check
    echo "== cmp results/$name.csv $here/results/$name.csv"
    cmp "results/$name.csv" "$here/results/$name.csv"
    echo
done

echo "== percolab ode"
percolab ode

echo
echo "== percolab fixed-point --dist $here/data/half_pairs.csv --t 0.7166666667"
percolab fixed-point --dist "$here/data/half_pairs.csv" --t 0.7166666667

echo
echo "all experiments passed their checks and reproduce scripts/results/*.csv byte for byte"
