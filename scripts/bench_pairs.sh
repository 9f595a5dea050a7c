#!/usr/bin/env bash
# Paired benchmark recording of the working tree against a parent revision,
# used by `make bench-pairs`:
#
#   scripts/bench_pairs.sh PARENT WORKLOAD [SEED] [PAIRS]
#
# PARENT (any git revision) is exported with git archive into a temporary
# directory outside the repository. Then PAIRS alternating pairs (default
# 10, at SEED, default 1) of
#
#   bash bench/run.sh -workload WORKLOAD -seed SEED -seconds 15 -trace 0 -json F
#
# run, each side from its own tree: the parent first in odd pairs, the
# working tree first in even ones, so host drift falls on both sides alike.
# The script ends with `bash bench/run.sh -compare` over the two JSON files,
# which it keeps under results/pairs/WORKLOAD-sSEED-TIME/ (parent.json and
# change.json), and exits with the compare's status.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT WORKLOAD [SEED] [PAIRS]" >&2
    exit 2
fi
workload=$2 seed=${3:-1} pairs=${4:-10}
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
cd "$root"
parent="$(git rev-parse --verify "$1^{commit}")"

out="$root/results/pairs/$workload-s$seed-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
tree="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tree"' EXIT
git archive "$parent" | tar -x -C "$tree"

# run SIDE DIR: one benchmark run of the tree in DIR, appended to SIDE.json.
run() {
    echo "pair $p/$pairs: $1" >&2
    (cd "$2" && bash bench/run.sh -workload "$workload" -seed "$seed" \
        -seconds 15 -trace 0 -json "$out/$1.json")
}
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        run parent "$tree"
        run change "$root"
    else
        run change "$root"
        run parent "$tree"
    fi
done

echo "parent $parent: $out/parent.json" >&2
echo "working tree:  $out/change.json" >&2
bash bench/run.sh -compare "$out/parent.json" "$out/change.json"
