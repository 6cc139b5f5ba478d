#!/bin/sh
# Builds the bench of record from source and runs it:
#
#   bash benchrec/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr, so the
# last line on stdout is the result object. Build artefacts land in
# $CARGO_TARGET_DIR (default: .bench_build).
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
: "${CARGO_TARGET_DIR:=$root/.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path "$root/benchrec/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/benchrec" "$@"
