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
# or, in one command, against any commit:
#
#   cargo build --release && scripts/fingerprint.sh --against <ref>
#
# copies the files of <ref> (git archive) into a fresh directory, builds its
# scmd there, fingerprints both sides (each with its own script's scenario
# list and its own scenario files) and prints only the lines that moved, as
# `S <ref hash> <this hash>` (`-` for a scenario one side does not pin);
# nothing when every line is identical.
#
# Hashes are not pinned anywhere: libm differs across hosts, so only two
# builds on one host compare. SCMD overrides this checkout's binary.
set -euo pipefail

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; }

against=
case "${1:-}" in
    -h | --help) usage; exit 0 ;;
    --against)
        [ $# -eq 2 ] || { usage >&2; exit 2; }
        against=$2 ;;
    '') ;;
    *) usage >&2; exit 2 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
scmd=${SCMD:-$root/target/release/scmd}
results=$(mktemp)
work=
trap 'rm -f "$results"; [ -z "$work" ] || rm -rf "$work"' EXIT

fingerprint() { # checkout scmd -> one line per scenario
    cd "$1"
    for spec in scenarios/bench/*.json scenarios/silica-triplet.json scenarios/hybrid-lj.json \
        scenarios/lj-bsp.json scenarios/fault-storm.json scenarios/clustered-gas.json; do
        "$2" run --spec "$spec" --results "$results" >/dev/null
        printf '%s %s\n' "$spec" "$(sha256sum <"$results" | cut -d' ' -f1)"
    done
}

if [ -z "$against" ]; then
    fingerprint "$root" "$scmd"
    exit 0
fi

git -C "$root" rev-parse --verify --quiet "$against^{commit}" >/dev/null ||
    { echo "fingerprint.sh: $against is not a commit" >&2; exit 2; }
work=$(mktemp -d)
git -C "$root" archive "$against" | tar -x -C "$work"
echo "# building $against" >&2
(cd "$work" && cargo build --release --offline --quiet --bin scmd) >&2
# The ref's own script, so a scenario pinned only since <ref> reads `-`.
SCMD="$work/target/release/scmd" "$work/scripts/fingerprint.sh" >"$work/ref.txt"
fingerprint "$root" "$scmd" >"$work/this.txt"
# Joined on the scenario path; a line moved when its hashes differ.
export LC_ALL=C
join -a 1 -a 2 -e - -o 0,1.2,2.2 <(sort "$work/ref.txt") <(sort "$work/this.txt") |
    awk '$2 != $3'
