#!/usr/bin/env bash
# Build the benchmark package and run it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--runs R]    every workload, one process per run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --traced [--seed N]                     traced run of every workload
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --smoke                                 unit tests + every workload at toy size
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The benchmark builds against the repository's crates by path; without them
# (a checkout holding only the benchmark's own files) there is nothing to
# measure.
if [[ ! -f crates/alpaka/Cargo.toml ]]; then
  echo "benchmark/run.sh: $root/crates is missing; run from a full checkout" >&2
  exit 3
fi

# Build products go where the caller says, by default next to the
# repository's own (the root .gitignore covers both).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [[ "${1:-}" == "--smoke" ]]; then
  # The package is a workspace of its own, so the root `cargo test` never
  # sees its unit tests; the smoke step is where they run.
  cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
fi

# Recorded with every result.
export ALPAKA_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export ALPAKA_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# CARGO_TARGET_DIR may be relative to the root, which is the working directory.
exec "$CARGO_TARGET_DIR/release/alpaka-benchmark" "$@"
