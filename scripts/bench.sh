#!/usr/bin/env bash
# Simulator-throughput benchmarks: serial-vs-parallel block interpretation
# (sim_throughput) and the two-engine comparison (sim_lowering).
#
# sim_lowering writes BENCH_sim.json at the repo root — blocks/s and
# instrs/s from the simulator's own HostPerf counters for the reference and
# compiled engines on its seven workloads, plus speedup_compiled_vs_reference
# — so the perf trajectory is tracked across PRs. pool_scaling
# splices a `pool_scaling` entry into the same file: blocks/s of a sharded
# pooled launch at pool sizes 1/2/4, fault-free vs one recovered fault.
# Numbers are host-dependent; compare within one machine.
#
# `bench.sh --test` runs only the benches' smoke guards (no timing) and the
# BENCH_sim.json validation pass — both writers validate before writing and
# the checker re-validates the on-disk file (parses under the strict trace
# JSON validator, carries schema_version 2), so a splice slip in
# pool_scaling or a format slip in sim_lowering can't corrupt the file.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--test" ]]; then
  echo "== bench.sh --test: smoke guards only =="
  cargo bench -p alpaka-bench --bench sim_throughput -- --test
  cargo bench -p alpaka-bench --bench sim_lowering -- --test
  cargo bench -p alpaka-bench --bench trace_overhead -- --test
  cargo bench -p alpaka-bench --bench pool_scaling -- --test
  echo "== BENCH_sim.json validation =="
  cargo run -q --release -p alpaka-bench --bin check_bench_json
  echo "bench.sh --test OK"
  exit 0
fi

echo "== sim_throughput (serial vs parallel workers) =="
cargo bench -p alpaka-bench --bench sim_throughput

echo "== sim_lowering (reference vs compiled engine) =="
cargo bench -p alpaka-bench --bench sim_lowering

echo "== pool_scaling (sharded pool launches, fault-free vs 1-fault recovery) =="
cargo bench -p alpaka-bench --bench pool_scaling

echo "== BENCH_sim.json =="
cargo run -q --release -p alpaka-bench --bin check_bench_json
cat BENCH_sim.json
