#!/bin/sh
# A/A check: both passes twice on one build, the two sets' end-to-end rounds
# taking turns so machine drift hits both alike. Exits non-zero when an
# end-to-end timing differs by more than its workload's bound, an exact count
# differs at all, or an operation fails. Extra arguments (--seed, --seconds)
# are passed through.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --aa "$@"
