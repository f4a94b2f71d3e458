#!/usr/bin/env bash
# Builds `neats` (the program under test) and the benchmark, then runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--smoke] [--self-test]
#
# Without --workload all four run in turn. Every declared metric is printed
# as `name value unit`; the last line of standard output is the result
# object of the (last) workload. See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds (the driver sets a relative one).
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout is the benchmark's alone.
cargo build --release --offline --quiet -p neats-cli --bin neats
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "$target/release/neats-benchmark" --neats "$target/release/neats" \
    --out "$root/benchmark/out" "$@"
