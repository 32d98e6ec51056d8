//! End-to-end acceptance for the deterministic metrics registry and the
//! fault flight recorder (ISSUE 10).
//!
//! The pinned matrix: one combined workload — a queued daxpy, a queued
//! tiled DGEMM, a resilient launch that survives a deterministic injected
//! OOM, and a fault-free 8-shard pool launch — must render byte-identical
//! Prometheus and JSON snapshots across interpreter worker counts {1, 4}
//! × engines {Reference, Compiled} × pool sizes {1, 2, 4}, after
//! stripping the documented engine-dependent families
//! (`alpaka_metrics::strip_engine_dependent`). Separately, a seeded device
//! loss must produce a byte-identical post-mortem across engines and
//! reruns.
//!
//! Worker counts are set via `Device::with_workers` rather than by
//! mutating `ALPAKA_SIM_THREADS` (the env override is process-global and
//! would race with parallel tests); both paths funnel into the same
//! `resolve_sim_threads` call in the simulator.

use alpaka::{
    launch_resilient, metrics, AccKind, Args, BufLayout, Device, DevicePool, Engine, FallbackChain,
    FaultPlan, LaunchSpec, Queue, QueueBehavior, RetryPolicy, WorkDivSpec,
};
use alpaka_core::metrics::MetricsCapture;
use alpaka_kernels::host::{random_matrix, random_vec};
use alpaka_kernels::{DaxpyKernel, DgemmTiled};
use alpaka_metrics::{
    json_snapshot, postmortem, prometheus_text, strip_engine_dependent, JsonOpts,
};
use alpaka_trace::validate_json;

/// One full workload at a matrix point. Runs inside `metrics::capture`, so
/// its devices record into a fresh registry and flight recorder, with ids
/// from 0.
fn run_workload(workers: usize, engine: Engine, pool_size: usize) -> MetricsCapture {
    let ((), cap) = metrics::capture(|| {
        // 1. Queued daxpy on the K20 spec.
        let n = 2048usize;
        let x = random_vec(n, 1);
        let y0 = random_vec(n, 2);
        let dev = Device::with_workers(AccKind::sim_k20(), workers).with_engine(engine);
        dev.clear_faults();
        let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
        let xb = dev.alloc_f64(BufLayout::d1(n));
        let yb = dev.alloc_f64(BufLayout::d1(n));
        xb.upload(&x).unwrap();
        yb.upload(&y0).unwrap();
        let wd = dev.suggest_workdiv_1d(n);
        let args = Args::new()
            .buf_f(&xb)
            .buf_f(&yb)
            .scalar_f(2.5)
            .scalar_i(n as i64);
        q.enqueue_kernel(&DaxpyKernel, &wd, &args).unwrap();
        q.wait().unwrap();

        // 2. Queued tiled DGEMM on the e5 spec (CPU shape: single-thread
        // blocks, wide element loops).
        let (m, nn, k) = (24, 20, 16);
        let a = random_matrix(m, k, 10);
        let b = random_matrix(k, nn, 11);
        let c0 = random_matrix(m, nn, 12);
        let kern = DgemmTiled { t: 1, e: 4 };
        let gwd = kern.workdiv(m, nn);
        let gdev = Device::with_workers(AccKind::sim_e5_2630v3(), workers).with_engine(engine);
        gdev.clear_faults();
        let gq = Queue::new(gdev.clone(), QueueBehavior::Blocking);
        let ab = gdev.alloc_f64(BufLayout::d2(m, k, 8));
        let bb = gdev.alloc_f64(BufLayout::d2(k, nn, 8));
        let cb = gdev.alloc_f64(BufLayout::d2(m, nn, 8));
        ab.upload(&a).unwrap();
        bb.upload(&b).unwrap();
        cb.upload(&c0).unwrap();
        let gargs = Args::new()
            .buf_f(&ab)
            .buf_f(&bb)
            .buf_f(&cb)
            .scalar_f(1.25)
            .scalar_f(0.75)
            .scalar_i(m as i64)
            .scalar_i(nn as i64)
            .scalar_i(k as i64)
            .scalar_i(ab.layout().pitch as i64)
            .scalar_i(bb.layout().pitch as i64)
            .scalar_i(cb.layout().pitch as i64);
        gq.enqueue_kernel(&kern, &gwd, &gargs).unwrap();
        gq.wait().unwrap();

        // 3. Resilient launch surviving a deterministic injected OOM at
        // allocation ordinal 0 (always exactly 2 attempts, kind "oom",
        // regardless of engine or thread count).
        let rdev = Device::with_workers(AccKind::sim_k20(), workers)
            .with_engine(engine)
            .with_faults(FaultPlan::quiet(3).with_oom_at(0));
        let chain = FallbackChain::new(rdev);
        let out = launch_resilient(&chain, &RetryPolicy::default(), &daxpy_spec(512)).unwrap();
        assert_eq!(out.attempts, 2, "oom retry must be deterministic");

        // 4. Fault-free 8-shard pool launch; only the pool size varies.
        let mut pool = DevicePool::new_sim_with_workers(AccKind::sim_k20(), pool_size, workers)
            .unwrap()
            .with_engine(engine);
        pool.clear_faults();
        let outcome = pool.launch(&daxpy_spec(1024), 8).unwrap();
        assert_eq!(outcome.shards.len(), 8);
        assert!(outcome.migrations.is_empty());
    });
    cap
}

fn daxpy_spec(n: usize) -> LaunchSpec<DaxpyKernel> {
    let x = random_vec(n, 5);
    let y = random_vec(n, 6);
    LaunchSpec::new(DaxpyKernel, WorkDivSpec::Suggest1d(n))
        .arg_f(BufLayout::d1(n), x)
        .arg_f(BufLayout::d1(n), y)
        .scalar_f(2.0)
        .scalar_i(n as i64)
}

/// Both exports, engine-dependent families stripped, concatenated for one
/// byte comparison.
fn render(cap: &MetricsCapture) -> String {
    let prom = prometheus_text(&cap.snapshot);
    let json = json_snapshot(&cap.snapshot, &JsonOpts::default());
    validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON snapshot: {e}\n{json}"));
    let jstripped = strip_engine_dependent(&json);
    validate_json(&jstripped).unwrap_or_else(|e| panic!("stripping broke JSON: {e}\n{jstripped}"));
    format!("{}\n---\n{}", strip_engine_dependent(&prom), jstripped)
}

#[test]
fn snapshots_are_byte_identical_across_workers_engines_and_pool_sizes() {
    let reference = render(&run_workload(1, Engine::Compiled, 1));
    assert!(
        reference.contains("alpaka_launches_total"),
        "workload recorded nothing:\n{reference}"
    );
    assert!(
        reference.contains("alpaka_pool_shards_total"),
        "{reference}"
    );
    assert!(
        reference.contains("alpaka_resilient_attempts_total 2"),
        "{reference}"
    );
    assert!(
        reference.contains("alpaka_resilient_faults_total{kind=\"oom\"} 1"),
        "{reference}"
    );
    for workers in [1, 4] {
        for engine in [Engine::Reference, Engine::Compiled] {
            for pool_size in [1, 2, 4] {
                if (workers, engine, pool_size) == (1, Engine::Compiled, 1) {
                    continue;
                }
                let got = render(&run_workload(workers, engine, pool_size));
                assert_eq!(
                    got, reference,
                    "snapshot diverged at workers={workers} engine={engine:?} \
                     pool_size={pool_size}"
                );
            }
        }
    }
}

#[test]
fn workload_records_expected_families() {
    let cap = run_workload(2, Engine::Compiled, 2);
    let snap = &cap.snapshot;
    // Two queue launches + one resilient retry pair + 8 pool shards worth
    // of activity, all visible in the registry.
    assert_eq!(snap.counter_total("alpaka_launches_total"), 3);
    assert_eq!(snap.counter_total("alpaka_pool_launches_total"), 1);
    assert_eq!(snap.counter_total("alpaka_pool_shards_total"), 8);
    assert_eq!(snap.counter_total("alpaka_resilient_failovers_total"), 0);
    assert_eq!(snap.counter_total("alpaka_resilient_attempts_total"), 2);
    assert_eq!(snap.counter_total("alpaka_resilient_faults_total"), 1); // the injected OOM
    assert_eq!(snap.counter_total("alpaka_queue_ops_total"), 4); // 2 kernels + 2 waits
    let h = snap
        .histogram("alpaka_pool_shard_seconds", &[])
        .expect("pool shard histogram");
    assert_eq!(h.count, 8);
    assert!(h.p50 > 0.0 && h.p99 >= h.p50);
    // The OOM was retried and recovered — a survived fault is NOT a launch
    // failure, so no post-mortem note; the flight recorder still has the
    // launch events.
    assert!(cap.failures.is_empty(), "{:?}", cap.failures);
    assert_eq!(snap.counter_total("alpaka_launch_failures_total"), 0);
    assert!(!cap.flight.is_empty());
}

/// A chaos run ending in a structured failure must dump a deterministic
/// post-mortem: same bytes across engines and reruns.
fn run_chaos(engine: Engine) -> MetricsCapture {
    let ((), cap) = metrics::capture(|| {
        let dev = Device::with_workers(AccKind::sim_k20(), 2)
            .with_engine(engine)
            .with_faults(FaultPlan::quiet(7).with_lost_at_launch(0));
        let chain = FallbackChain::new(dev);
        let err = launch_resilient(&chain, &RetryPolicy::none(), &daxpy_spec(256)).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
    });
    cap
}

#[test]
fn postmortem_is_deterministic_across_engines_and_reruns() {
    let reference = postmortem(&run_chaos(Engine::Compiled));
    assert!(reference.contains("launch failure(s):"), "{reference}");
    assert!(reference.contains("[device]"), "{reference}");
    assert!(reference.contains("flight recorder"), "{reference}");
    assert!(reference.contains("retry_attempt"), "{reference}");
    for engine in [Engine::Compiled, Engine::Reference] {
        let got = postmortem(&run_chaos(engine));
        assert_eq!(got, reference, "post-mortem diverged on {engine:?}");
    }
}

#[test]
fn disabled_metrics_record_nothing_from_the_full_workload() {
    // Run the workload pieces outside any capture: with the registry off,
    // the device's snapshot must stay empty.
    let n = 256usize;
    let dev = Device::new(AccKind::sim_k20());
    let obs = dev.obs();
    if obs.metrics_enabled() {
        return; // ambient ALPAKA_SIM_METRICS run; nothing to assert
    }
    dev.clear_faults();
    let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
    let b = dev.alloc_f64(BufLayout::d1(n));
    b.upload(&random_vec(n, 3)).unwrap();
    let yb = dev.alloc_f64(BufLayout::d1(n));
    yb.upload(&random_vec(n, 4)).unwrap();
    let wd = dev.suggest_workdiv_1d(n);
    q.enqueue_kernel(
        &DaxpyKernel,
        &wd,
        &Args::new()
            .buf_f(&b)
            .buf_f(&yb)
            .scalar_f(1.5)
            .scalar_i(n as i64),
    )
    .unwrap();
    q.wait().unwrap();
    assert!(obs.snapshot().is_empty());
    assert!(obs.flight_snapshot().is_empty());
    assert!(obs.failures().is_empty());
}

/// Stores way out of bounds: a kernel fault on every back-end.
#[derive(Clone)]
struct Oob;
impl alpaka_core::kernel::Kernel for Oob {
    fn run<O: alpaka_core::ops::KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let i = o.lit_i(1_000_000);
        let v = o.lit_f(1.0);
        o.st_gf(b, i, v);
    }
}

/// A native queue counts each operation's outcome once, where it runs (here
/// on the worker of a non-blocking queue), exactly as a simulated one does.
#[test]
fn native_queue_operations_count_their_outcomes() {
    let ((), cap) = metrics::capture(|| {
        let n = 64usize;
        let dev = Device::with_workers(AccKind::CpuBlocks, 2);
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let (x, y) = (
            dev.alloc_f64(BufLayout::d1(n)),
            dev.alloc_f64(BufLayout::d1(n)),
        );
        x.upload(&random_vec(n, 1)).unwrap();
        let wd = dev.suggest_workdiv_1d(n);
        let args = Args::new()
            .buf_f(&x)
            .buf_f(&y)
            .scalar_f(2.0)
            .scalar_i(n as i64);
        for _ in 0..3 {
            q.enqueue_kernel(&DaxpyKernel, &wd, &args).unwrap();
        }
        q.enqueue_copy_f64(&y, &x).unwrap();
        let oob = Args::new().buf_f(&x);
        q.enqueue_kernel(&Oob, &alpaka::WorkDiv::d1(1, 1, 1), &oob)
            .unwrap();
        assert!(q.wait().is_err());
        // The copy ran in order, behind the three kernels that wrote `y`.
        assert_eq!(y.download(), x.download());
    });
    let family = |name: &str| -> Vec<(String, u64)> {
        let counters = cap.snapshot.counters.iter().filter(|(f, _, _)| *f == name);
        counters.map(|(_, ls, v)| (format!("{ls:?}"), *v)).collect()
    };
    let labels = |ls: &[(&str, &str)]| {
        let ls: Vec<(&str, String)> = ls.iter().map(|&(k, v)| (k, v.to_string())).collect();
        format!("{ls:?}")
    };
    assert_eq!(
        family("alpaka_queue_ops_completed_total"),
        vec![
            (labels(&[("op", "copy")]), 1),
            (labels(&[("op", "kernel")]), 3)
        ]
    );
    assert_eq!(
        family("alpaka_queue_op_errors_total"),
        vec![(labels(&[("op", "kernel"), ("kind", "kernel_fault")]), 1)]
    );
}
