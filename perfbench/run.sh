#!/usr/bin/env bash
# Builds the benchmark (and the `bitmod-cli` daemon it drives) from source,
# then runs it:  bash perfbench/run.sh --workload <name> --seed <n> \
#                    --seconds <s> --trace <0|1>
# Cargo's own output goes to stderr, so the result JSON stays the last line
# of stdout.  Build time counts in no metric.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
# Set-up time is measured from here: the moment the benchmark process starts.
PERFBENCH_LAUNCH_US="${EPOCHREALTIME/./}" exec "$target/release/perfbench" "$@"
