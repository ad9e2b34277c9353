#!/usr/bin/env bash
# A/B of the repository benchmark: a parent commit against this checkout.
#
#   scripts/ab.sh [--traced] <parent-ref> <workload>[,<workload>...] <pairs> [first-seed]
#
# Copies the files of <parent-ref> (git archive) and of this checkout
# (tracked + untracked-not-ignored, so uncommitted work counts) into two
# fresh directories, builds BENCHMARK.json's benchmark in each, then runs
# its command `pairs` times per workload on both sides, alternately: the
# side that goes first flips every pair, each pair takes a fresh seed
# (first-seed, first-seed + 1, ...; default 1000) and both sides of a pair
# share it. Run length is BENCHMARK.json's run_seconds.
#
# Per workload and end-to-end metric it prints each side's median and
# quartiles, the pairs the change won (ties count for neither), and the
# difference of the medians ÷ the parent's interquartile range, signed so
# that positive is better. The verdict is "gain" only at ≥ 9/10 of the pairs
# won and more than one parent IQR; otherwise "unresolved" where either
# side's IQR is wider than the metric's bound, "REGRESSION" where the median
# is worse by more than the bound, and "within bound" for the rest.
# `--traced` runs the traced pass instead and reports the per-layer metrics
# the same way (no verdicts: layers explain, they do not gate).
#
# Every run is reported, failed operations included. Needs git, cargo, tar
# and python3; leaves nothing behind (the copies live under mktemp -d).
set -euo pipefail

usage() { sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; }

traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        -h | --help) usage; exit 0 ;;
        --traced) traced=1; shift ;;
        --) shift; break ;;
        -*) echo "ab.sh: unknown option $1" >&2; usage >&2; exit 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    usage >&2
    exit 2
fi
parent_ref=$1 workloads=$2 pairs=$3 first_seed=${4:-1000}
case "$pairs$first_seed" in *[!0-9]*) echo "ab.sh: pairs and first-seed are numbers" >&2; exit 2 ;; esac

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
git rev-parse --verify --quiet "$parent_ref^{commit}" >/dev/null ||
    { echo "ab.sh: $parent_ref is not a commit" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive "$parent_ref" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar -c --null -T - | tar -x -C "$work/change"

# The benchmark contract is the change's: its command, run length, metrics.
read_contract() { python3 - "$root/BENCHMARK.json" "$1" <<'EOF'
import json, shlex, sys
doc = json.load(open(sys.argv[1]))
what = sys.argv[2]
print(shlex.join(doc["command"]) if what == "command" else doc[what])
EOF
}
command=$(read_contract command)
seconds=$(read_contract run_seconds)

for side in parent change; do
    echo "# building $side ($([ $side = parent ] && echo "$parent_ref" || echo "this checkout"))" >&2
    # An unknown workload: cargo builds, the benchmark declines to run.
    (cd "$work/$side" && eval "$command --workload none" >/dev/null 2>&1) || true
done

mkdir "$work/runs"
run() { # side workload seed -> the result line, appended to the side's log
    local out
    out=$(cd "$work/$1" && eval "$command --workload $2 --seed $3 --seconds $seconds --trace $traced" | tail -n 1) ||
        out='{"failed": 1, "attempted": 1, "metrics": {}}'
    printf '%s\n' "$out" >>"$work/runs/$2.$1"
}

IFS=, read -r -a names <<<"$workloads"
for w in "${names[@]}"; do
    for ((p = 0; p < pairs; p++)); do
        seed=$((first_seed + p))
        if ((p % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "# $w pair $((p + 1))/$pairs seed $seed: $side" >&2
            run "$side" "$w" "$seed"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$traced" "${names[@]}" <<'EOF'
import json, statistics, sys
contract, runs, traced, names = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
metrics = contract["per_layer" if traced else "end_to_end"]

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3

for w in names:
    sides = {s: [json.loads(l) for l in open(f"{runs}/{w}.{s}")] for s in ("parent", "change")}
    failed = {s: sum(r.get("failed", 1) for r in rs) for s, rs in sides.items()}
    print(f"\n## {w}: {len(sides['parent'])} pairs, failed operations parent {failed['parent']} change {failed['change']}")
    print(f"{'metric':28} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34} {'won':>6} {'Δ÷IQR':>8}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        value = lambda r: r["metrics"].get(name, {}).get("value")
        a, b = ([value(r) for r in sides[s]] for s in ("parent", "change"))
        if None in a + b or not any(a + b):
            continue  # a failed run, or a metric this workload's path does not cross
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        won = sum(better(y, x) for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        gain = (a2 - b2) if lower else (b2 - a2)
        iqr = a3 - a1
        ratio = gain / iqr if iqr > 0 else float("inf") * (1 if gain > 0 else -1) if gain else 0.0
        verdict = ""
        if not traced:
            worse = -gain / abs(a2) if a2 else 0.0
            spread = max(iqr, b3 - b1) / abs(a2) if a2 else 0.0
            if won >= 0.9 * len(a) and gain > iqr:
                verdict = "gain"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "REGRESSION" if worse > m["bound"] else "within bound"
        print(f"{name:28} {a1:>10.4g} / {a2:>10.4g} / {a3:>8.4g} {b1:>10.4g} / {b2:>10.4g} / {b3:>8.4g} {won:>3}/{len(a):<2} {ratio:>8.2f}  {verdict}")
EOF
