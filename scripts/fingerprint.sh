#!/usr/bin/env bash
# Fingerprints the physics of a build: runs every pinned scenario through
# `scmd run --spec S --results R` and prints `S sha256(R)`. The fault storm
# covers a supervised trajectory: retried and replayed exchanges must leave
# the same bits as at the parent. The results
# document holds the step count, atom count, total-energy bits and the
# phase-space hash — no timings — so two builds that compute the same bits
# print the same lines.
#
#   cargo build --release && scripts/fingerprint.sh > change.txt
#   (same two commands in a checkout of the parent commit) > parent.txt
#   diff parent.txt change.txt
#
# Hashes are not pinned anywhere: libm differs across hosts, so only two
# builds on one host compare. SCMD overrides the binary.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
scmd=${SCMD:-$root/target/release/scmd}
results=$(mktemp)
trap 'rm -f "$results"' EXIT
cd "$root"
for spec in scenarios/bench/*.json scenarios/silica-triplet.json scenarios/hybrid-lj.json \
    scenarios/lj-bsp.json scenarios/fault-storm.json; do
    "$scmd" run --spec "$spec" --results "$results" >/dev/null
    printf '%s %s\n' "$spec" "$(sha256sum <"$results" | cut -d' ' -f1)"
done
