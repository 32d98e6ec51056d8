#!/usr/bin/env bash
# Local CI gate: formatting, lints, build and the full test suite.
# Mirrors what reviewers run before merging; keep it fast and offline
# (all dependencies are vendored under shims/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== the engine knobs PR 16 removed stay removed =="
# Two engines (compiled, reference) and one program cache. The history in
# ROADMAP.md/CHANGES.md and this line itself are outside the search.
if grep -rnE 'Engine::Lowered|ALPAKA_SIM_ENGINE|resolve_sim_engine|ValidationFailed' \
  crates tests examples README.md DESIGN.md; then
  echo "a removed engine, switch or fallback is back (matches above)"
  exit 1
fi

echo "== one way to launch on a simulated device =="
# SimDevice::run is the only launch entry on a simulated device, and one
# function (alpaka::queue::run_sim_traced) emits the trace events and metrics
# of queued and direct launches alike. The second launch routes, the unread
# pass statistics and the two copies of the error-context match stay
# removed. benchmark/ (frozen) and the history in ROADMAP.md/CHANGES.md are
# outside the search.
if grep -rnE 'SimQueue|enqueue_compiled|SimDevice::compile|pass_stats|launch_sync|queue_ctx|shard_ctx' \
  crates tests examples README.md DESIGN.md; then
  echo "a removed launch route or error-context copy is back (matches above)"
  exit 1
fi

echo "== one queue over every back-end =="
# alpaka::Queue is the only queue: a non-blocking queue on a native device
# owns one worker thread and the queue's one error slot, and a CPU device
# owns no threads. The second queue type, its error slot and respawn hooks,
# the poll loop's timed event wait and the idle worker pool stay removed.
# benchmark/ (frozen) and the history in ROADMAP.md/CHANGES.md are outside
# the search.
if grep -rnE 'CpuQueue|kill_worker|peek_error|worker_dead|enqueue_fill|\bPool::new\b|wait_timeout|alpaka-pool-' \
  crates tests examples README.md DESIGN.md; then
  echo "a removed queue, queue hook or idle pool is back (matches above)"
  exit 1
fi

echo "== one FMA, inlined, on both sides of Fig. 5 =="
# Pins one FMA, inlined, on both sides of Fig. 5: kernels on the CPU
# back-ends and the native baselines they are divided by both multiply-add
# through alpaka_core::fma::Fma. A bare mul_add there is an out-of-line call
# on the default target; a second FMA or a second asm! site is a second thing
# to keep bit-identical.
if grep -rn 'mul_add(' crates/cpu/src crates/kernels/src/native.rs \
  || grep -rn 'fma_x86' crates tests examples; then
  echo "a second FMA is back (matches above)"
  exit 1
fi
asm_sites="$(grep -rn 'asm!' crates || true)"
if [[ "$(wc -l <<<"$asm_sites")" -ne 1 || "$asm_sites" != crates/core/src/fma.rs:* ]]; then
  echo "asm! outside the one primitive in crates/core/src/fma.rs:"
  echo "$asm_sites"
  exit 1
fi

echo "== one bench system =="
# benchmark/ (BENCHMARK.json's workloads and metrics) is the only bench
# system: the criterion benches and their shim, the BENCH_sim.json
# trajectory file, its writer script and its checker stay removed, and their
# guards live on as tests. benchmark/ (frozen) and the history in
# ROADMAP.md/CHANGES.md are outside the search.
if grep -rnE 'criterion|BENCH_sim|bench\.sh|check_bench_json' \
  crates tests examples shims README.md DESIGN.md EXPERIMENTS.md; then
  echo "a removed bench, its shim or its trajectory file is back (matches above)"
  exit 1
fi

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
# One test at a time: the trace sink, the metrics registry and the id
# counters are process globals (ROADMAP, quality of design), so a unit test
# that captures or checks them (alpaka::queue, alpaka::resilient) must not
# overlap a launch in a neighbouring test of the same binary.
cargo test -q --workspace -- --test-threads=1

echo "== abandoned block barriers fault in bounded time =="
# A thread that panics, or finishes its kernel while its siblings wait at
# sync_block_threads, must fail the launch on Threads, BlockThreads and
# Fibers with the kernel's own message (or the block and "k of n threads"),
# and the device must take the next launch. The suite has its own watchdog;
# the outer timeout bounds a regression that hangs the harness itself.
timeout 300 cargo test -q -p alpaka-cpu --test abandoned_barrier

echo "== AddressSanitizer over the workspace's unit and integration tests =="
# Every unsafe site (the unchecked accesses in crates/cpu/src/exec.rs: raw
# global and shared memory, local-array views, element spans that were
# range-checked once; the per-ISA kernel copies; the simulator's and the
# native baselines' raw slices) runs under ASan with the nightly toolchain's
# prebuilt runtime: an access the checks let through out of bounds is a
# report, and a report fails the lane. std stays uninstrumented (no
# -Zbuild-std offline), hence the ABI-mismatch allowance; --target keeps the
# instrumented build apart from the stable one. Doctests are left out: rustdoc
# links them without the sanitizer runtime.
RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer" \
  cargo +nightly test -q --target x86_64-unknown-linux-gnu \
  --workspace --lib --tests -- --test-threads=1

echo "== engine-parity, atomics and fault suites under ALPAKA_SIM_THREADS=1 and =4 =="
# The reference and compiled engines must agree bit-for-bit (the compiled
# engine on its lowered and its fused tier, as the suites' work divisions
# decide), the atomics privatization path must replay the serial application
# order, and the fault campaign must reproduce from its seed, under ANY
# interpreter thread count; pin both extremes explicitly. parallel_determinism also
# holds the lane-kernel proptest (every op x operand kind x mask shape x
# lane count vs. the reference engine), its memory-op sweep over lane-affine
# runs (index shape x span mask x lane count x out of bounds at the first,
# middle and last live lane, ECC armed, a probing for.vec on a CPU-kind spec)
# and the guarded-, stream- and while-fusion parity cases.
for t in 1 4; do
  echo "-- ALPAKA_SIM_THREADS=$t --"
  ALPAKA_SIM_THREADS=$t cargo test -q -p alpaka-sim --test parallel_determinism
  ALPAKA_SIM_THREADS=$t cargo test -q -p alpaka-sim --test atomics_determinism
  ALPAKA_SIM_THREADS=$t cargo test -q --test trace_acceptance
  ALPAKA_SIM_THREADS=$t cargo test -q --test faults
  # Events and waits block without a timeout: a lost event signal or a
  # leaked pending count would hang, so bound the suite.
  ALPAKA_SIM_THREADS=$t timeout 300 cargo test -q --test streams_events
  ALPAKA_SIM_THREADS=$t cargo test -q --test fault_campaign
  ALPAKA_SIM_THREADS=$t cargo test -q --test pool_chaos
  # Metrics snapshots must be byte-identical across engines and pool sizes
  # at this thread count too (the suite pins workers per device on top of
  # the ambient override; both funnel into resolve_sim_threads).
  ALPAKA_SIM_THREADS=$t cargo test -q --test metrics_acceptance
  # Compile once, launch many, checked rather than assumed: heat2d's 200
  # JacobiStep launches on sim-k20 through SimDevice::run (the funnel under
  # every queue) must be one memo miss, 199 hits, one lowering miss and
  # cpu-serial's final grid
  # (heat2d_compiles_once_for_200_enqueues); the rest of the file pins that
  # the memo is invisible except in time, for every kernel of the zoo.
  ALPAKA_SIM_THREADS=$t cargo test -q --test launch_memo
  # The device-memory lifetime contract: the last buffer handle frees its
  # slot, so alloc/launch/drop loops, one long-lived pool and retried
  # launches hold live device bytes flat; launch statistics do not depend on
  # freed buffers; OOM ordinals count calls; a freed slot is BadBuffer.
  ALPAKA_SIM_THREADS=$t cargo test -q --test device_memory
done

echo "== ALPAKA_SIM_FAULTS smoke seed =="
# A fixed env-injected plan must not break suites that build their own
# devices (explicit plans override the env; the rest must stay
# fault-or-correct with this tiny ECC rate). The pool chaos campaign sets
# explicit per-member plans everywhere it injects, so it must be immune to
# the ambient seed too. So must the lifetime contract, whose devices clear
# the ambient plan or install their own.
ALPAKA_SIM_FAULTS="seed=42,ecc=1e-9" cargo test -q --test fault_campaign
ALPAKA_SIM_FAULTS="seed=42,ecc=1e-9" cargo test -q --test pool_chaos
ALPAKA_SIM_FAULTS="seed=42,ecc=1e-9" cargo test -q --test device_memory

echo "== traced smoke launch (ALPAKA_SIM_TRACE end to end) =="
# The example validates the emitted Chrome JSON itself (parses, non-empty,
# one span per block, profile ties out); the file checks below catch an
# exporter that silently wrote nothing.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
ALPAKA_SIM_TRACE="$trace_dir/smoke" cargo run -q --release --example trace_smoke
for f in smoke.chrome.json smoke.txt smoke.roofline.csv; do
  test -s "$trace_dir/$f" || { echo "missing/empty trace export: $f"; exit 1; }
done

echo "== no-trace path emits zero events =="
env -u ALPAKA_SIM_TRACE cargo run -q --release --example trace_smoke

echo "== metrics smoke (ALPAKA_SIM_METRICS end to end) =="
# sim-top with the registry on: exports must appear, and a seeded chaos run
# must dump a post-mortem from the flight recorder. Everything derives from
# the simulated clock, so two identical runs must produce byte-identical
# .prom/.json/.postmortem.txt files — diff all three.
metrics_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$metrics_dir"' EXIT
for run in a b; do
  ALPAKA_SIM_METRICS="$metrics_dir/top_$run" ALPAKA_SIM_FAULTS="seed=7,lost_at=0" \
    cargo run -q --release --example metrics_top >"$metrics_dir/report_$run.txt"
  for ext in prom json postmortem.txt; do
    test -s "$metrics_dir/top_$run.$ext" || {
      echo "missing/empty metrics export: top_$run.$ext"
      exit 1
    }
  done
done
for ext in prom json postmortem.txt; do
  diff -u "$metrics_dir/top_a.$ext" "$metrics_dir/top_b.$ext" || {
    echo "metrics export $ext is not reproducible"
    exit 1
  }
done
grep -q "launch failure(s):" "$metrics_dir/top_a.postmortem.txt" || {
  echo "post-mortem missing the failure section"
  exit 1
}

echo "== no-metrics path records zero families =="
# tests/zero_overhead.rs asserts the registry/flight/failure stores stay
# empty; this just exercises the example's metrics-off path end to end.
env -u ALPAKA_SIM_METRICS -u ALPAKA_SIM_FAULTS cargo run -q --release --example metrics_top \
  >/dev/null

echo "== Figs. 9 and 10 pinned: repro_fig9 and repro_fig10 against EXPERIMENTS.md =="
# Both tables are simulated-clock output (t_sim, GFLOPS, speedup or fraction
# of peak), deterministic on any host and under any engine and thread count,
# so their rows must equal the recorded blocks byte for byte. repro_fig10
# also asserts bit-identical flux on all four nodes itself. Instalments of
# ROADMAP 2(a).
# pin_rows BIN HEADING ROWS COUNT: the COUNT lines of BIN's output matching
# the regex ROWS must equal those of the EXPERIMENTS.md block that starts at
# "# HEADING " and ends at the code fence.
pin_rows() {
  local run doc
  run="$(cargo run -q --release -p alpaka-bench --bin "$1" | grep -E "$3" || true)"
  doc="$(sed -n "/^# $2 /,/^\`\`\`/p" EXPERIMENTS.md | grep -E "$3" || true)"
  test "$(wc -l <<<"$run")" -eq "$4" || { echo "$1 printed no $4-row table"; exit 1; }
  diff <(echo "$run") <(echo "$doc") || {
    echo "$1's table differs from the $2 block in EXPERIMENTS.md"
    exit 1
  }
}
pin_rows repro_fig9 "Fig. 9" '^\| (AMD|Intel|NVIDIA) ' 6
pin_rows repro_fig10 "Fig. 10" '^\| (CUDA native|Alpaka\()' 4

echo "== the < 2 % zero-cost budget (wall clock, release) =="
# With tracing and metrics off, a launch through the facade queue costs
# within 2 % of the raw simulator call (interleaved min-of-5).
cargo test -q --release --test zero_overhead -- --ignored

echo "== end-to-end benchmark smoke (unit tests + every workload at toy size) =="
# benchmark/ is a cargo workspace of its own, so the steps above never see
# its unit tests; --smoke runs them, then every workload at toy size with
# all output checks, and validates BENCHMARK.json against the metric table.
benchmark/run.sh --smoke

echo "CI OK"
