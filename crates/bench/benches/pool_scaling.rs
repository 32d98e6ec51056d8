//! Multi-device pool scaling: host-side throughput of one sharded DAXPY
//! launch at pool sizes 1, 2 and 4 — fault-free and with one injected,
//! recoverable fault (the 1-fault recovery overhead).
//!
//! Before timing anything the bench asserts the pool's contract: every
//! (pool size, fault) configuration must reproduce the serial single-device
//! result bit-for-bit. Timings are wall-clock per pooled launch (the
//! simulator runs members sequentially, so this measures the pool driver's
//! overhead — sharded upload/launch/download round-trips — not real device
//! parallelism; the simulated makespan is what models the parallel win).
//!
//! Writes a `pool_scaling` entry into `BENCH_sim.json` at the repo root
//! (additive: the pre-existing keys keep their meaning).
//!
//! `cargo bench --bench pool_scaling -- --test` runs the parity guards
//! only (the CI smoke mode).

use alpaka::{
    AccKind, BufLayout, DevicePool, FaultPlan, LaunchSpec, PoolOutcome, WorkDiv, WorkDivSpec,
};
use alpaka_kernels::DaxpyKernel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::io::Write as _;
use std::time::Instant;

const N: usize = 1 << 18;
const BLOCKS: usize = N / 64;
const SHARDS: usize = 8;

fn spec() -> LaunchSpec<DaxpyKernel> {
    let x: Vec<f64> = (0..N)
        .map(|i| ((i * 11 + 2) % 23) as f64 * 0.5 - 5.0)
        .collect();
    let y: Vec<f64> = (0..N).map(|i| 1.0 + (i % 97) as f64 * 0.25).collect();
    LaunchSpec::new(DaxpyKernel, WorkDivSpec::Fixed(WorkDiv::d1(BLOCKS, 1, 64)))
        .arg_f(BufLayout::d1(N), x)
        .arg_f(BufLayout::d1(N), y)
        .scalar_f(2.5)
        .scalar_i(N as i64)
}

/// A recoverable 1-fault plan for `pool_size`: a sticky loss that migrates
/// when a survivor exists, a transient OOM (absorbed by the in-place
/// retry) when the pool has a single member.
fn one_fault(pool_size: usize) -> FaultPlan {
    if pool_size > 1 {
        FaultPlan::quiet(42).with_lost_at_launch(1)
    } else {
        FaultPlan::quiet(42).with_oom_at(0)
    }
}

fn run_pool(s: &LaunchSpec<DaxpyKernel>, pool_size: usize, fault: bool) -> PoolOutcome {
    let mut pool =
        DevicePool::new_sim_with_workers(AccKind::sim_e5_2630v3(), pool_size, 1).expect("sim pool");
    pool.clear_faults();
    if fault {
        pool.set_member_faults(0, Some(one_fault(pool_size)));
    }
    pool.launch(s, SHARDS).expect("recoverable pool launch")
}

fn bits(out: &PoolOutcome) -> Vec<Vec<u64>> {
    out.bufs_f
        .iter()
        .map(|b| b.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Parity guard: every configuration reproduces the 1-member 1-shard
/// serial result bit-for-bit, fault or no fault.
fn assert_pool_parity(s: &LaunchSpec<DaxpyKernel>) {
    let serial = run_pool(s, 1, false);
    let want = bits(&serial);
    for pool_size in [1usize, 2, 4] {
        for fault in [false, true] {
            let out = run_pool(s, pool_size, fault);
            assert_eq!(
                bits(&out),
                want,
                "pool {pool_size} fault={fault} diverged from serial"
            );
            assert_eq!(
                out.stats, serial.stats,
                "pool {pool_size} fault={fault} stats diverged"
            );
            if fault && pool_size > 1 {
                assert!(!out.migrations.is_empty(), "loss did not migrate");
            }
        }
    }
}

/// Median wall seconds of `k` fresh pooled launches.
fn wall_s(s: &LaunchSpec<DaxpyKernel>, pool_size: usize, fault: bool, k: usize) -> f64 {
    let mut samples: Vec<f64> = (0..k)
        .map(|_| {
            let t0 = Instant::now();
            let out = run_pool(s, pool_size, fault);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(out);
            dt
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn splice_bench_json(entry: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let body = match std::fs::read_to_string(path) {
        Ok(prev) => {
            // Drop an existing pool_scaling entry (idempotent re-runs),
            // then splice before the closing brace.
            let prev = match prev.find(",\n  \"pool_scaling\"") {
                Some(i) => format!("{}\n}}\n", &prev[..i]),
                None => prev,
            };
            let trimmed = prev.trim_end().trim_end_matches('}').trim_end();
            format!("{trimmed},\n  \"pool_scaling\": {entry}\n}}\n")
        }
        Err(_) => format!("{{\n  \"schema_version\": 2,\n  \"pool_scaling\": {entry}\n}}\n"),
    };
    // Splicing must never corrupt the trajectory file: the result has to
    // stay valid JSON and keep its schema_version marker.
    alpaka_trace::validate_json(&body)
        .expect("pool_scaling splice produced invalid BENCH_sim.json");
    assert!(
        body.contains("\"schema_version\": 2"),
        "pool_scaling splice dropped schema_version from BENCH_sim.json"
    );
    let mut f = std::fs::File::create(path).expect("write BENCH_sim.json");
    f.write_all(body.as_bytes()).expect("write BENCH_sim.json");
}

fn bench_pool_scaling(c: &mut Criterion) {
    let s = spec();
    assert_pool_parity(&s);

    if std::env::args().any(|a| a == "--test") {
        eprintln!("pool_scaling: --test smoke mode, pool parity guards passed");
        return;
    }

    let mut group = c.benchmark_group("pool_daxpy_8_shards");
    group.throughput(Throughput::Elements(BLOCKS as u64));
    group.sample_size(10);
    for pool_size in [1usize, 2, 4] {
        for (fault, label) in [(false, "clean"), (true, "one_fault")] {
            group.bench_function(BenchmarkId::new(label, pool_size), |b| {
                b.iter(|| run_pool(&s, pool_size, fault));
            });
        }
    }
    group.finish();

    // Machine-readable trajectory entry: blocks/s per pool size, clean vs
    // one recovered fault.
    let mut parts: Vec<String> = Vec::new();
    for pool_size in [1usize, 2, 4] {
        let clean = wall_s(&s, pool_size, false, 5);
        let faulted = wall_s(&s, pool_size, true, 5);
        let bps = BLOCKS as f64 / clean;
        let bps_f = BLOCKS as f64 / faulted;
        eprintln!(
            "pool_scaling[p{pool_size}]: clean={bps:.0} blocks/s, one_fault={bps_f:.0} blocks/s \
             (recovery overhead {:.2}x)",
            clean.max(f64::MIN_POSITIVE) / faulted.max(f64::MIN_POSITIVE)
        );
        parts.push(format!(
            "\"p{pool_size}\": {{\"wall_s\": {clean:.6}, \"blocks_per_sec\": {bps:.1}}}, \
             \"p{pool_size}_fault\": {{\"wall_s\": {faulted:.6}, \"blocks_per_sec\": {bps_f:.1}}}"
        ));
    }
    splice_bench_json(&format!(
        "{{\"blocks\": {BLOCKS}, \"shards\": {SHARDS}, {}}}",
        parts.join(", ")
    ));
    eprintln!("pool_scaling: wrote pool_scaling entry to BENCH_sim.json");
}

criterion_group!(benches, bench_pool_scaling);
criterion_main!(benches);
