//! `sim-top`: a narrated metrics report for a mixed simulated workload.
//!
//! Runs a queued daxpy, a queued tiled DGEMM, a resilient launch that
//! retries a deterministically injected OOM, and an 8-shard pool launch,
//! all with the metrics registry on; then prints a top-style digest — top
//! kernels by simulated time, queue traffic, resilience provenance, pool
//! health, flight-recorder tail — assembled purely from the deterministic
//! snapshot.
//!
//! ```text
//! cargo run --release --example metrics_top                       # report only
//! ALPAKA_SIM_METRICS=/tmp/top cargo run --release --example metrics_top
//!     # + writes /tmp/top.prom and /tmp/top.json
//! ALPAKA_SIM_METRICS=/tmp/top ALPAKA_SIM_FAULTS="seed=7,lost_at=0" \
//!     cargo run --release --example metrics_top
//!     # + a chaos launch that fails, so /tmp/top.postmortem.txt is dumped
//! ```
//!
//! Everything printed derives from the simulated clock, so two runs with
//! the same configuration produce byte-identical reports (and byte
//! identical post-mortems — CI diffs them).

use alpaka::{
    launch_resilient, resilience_report, AccKind, Args, BufLayout, Device, DevicePool,
    FallbackChain, FaultPlan, LaunchSpec, Obs, Queue, QueueBehavior, RetryPolicy, WorkDivSpec,
};
use alpaka_kernels::host::{random_matrix, random_vec};
use alpaka_kernels::{DaxpyKernel, DgemmTiled};
use alpaka_metrics::{postmortem, prometheus_text, MetricsHub};
use alpaka_sim::ResilienceInfo;

fn daxpy_spec(n: usize) -> LaunchSpec<DaxpyKernel> {
    LaunchSpec::new(DaxpyKernel, WorkDivSpec::Suggest1d(n))
        .arg_f(BufLayout::d1(n), random_vec(n, 5))
        .arg_f(BufLayout::d1(n), random_vec(n, 6))
        .scalar_f(2.0)
        .scalar_i(n as i64)
}

fn run_queued_kernels() {
    let n = 4096usize;
    let dev = Device::new(AccKind::sim_k20());
    dev.clear_faults();
    let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
    let xb = dev.alloc_f64(BufLayout::d1(n));
    let yb = dev.alloc_f64(BufLayout::d1(n));
    xb.upload(&random_vec(n, 1)).unwrap();
    yb.upload(&random_vec(n, 2)).unwrap();
    let wd = dev.suggest_workdiv_1d(n);
    q.enqueue_kernel(
        &DaxpyKernel,
        &wd,
        &Args::new()
            .buf_f(&xb)
            .buf_f(&yb)
            .scalar_f(2.5)
            .scalar_i(n as i64),
    )
    .unwrap();
    q.wait().unwrap();

    let (m, nn, k) = (48, 40, 32);
    let kern = DgemmTiled { t: 1, e: 4 };
    let gdev = Device::new(AccKind::sim_e5_2630v3());
    gdev.clear_faults();
    let gq = Queue::new(gdev.clone(), QueueBehavior::Blocking);
    let ab = gdev.alloc_f64(BufLayout::d2(m, k, 8));
    let bb = gdev.alloc_f64(BufLayout::d2(k, nn, 8));
    let cb = gdev.alloc_f64(BufLayout::d2(m, nn, 8));
    ab.upload(&random_matrix(m, k, 10)).unwrap();
    bb.upload(&random_matrix(k, nn, 11)).unwrap();
    cb.upload(&random_matrix(m, nn, 12)).unwrap();
    gq.enqueue_kernel(
        &kern,
        &kern.workdiv(m, nn),
        &Args::new()
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
            .scalar_i(cb.layout().pitch as i64),
    )
    .unwrap();
    gq.wait().unwrap();
}

fn run_resilient_oom() -> Option<ResilienceInfo> {
    let dev = Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(3).with_oom_at(0));
    let chain = FallbackChain::new(dev);
    let out = launch_resilient(&chain, &RetryPolicy::default(), &daxpy_spec(512)).unwrap();
    out.report.and_then(|r| r.resilience)
}

fn run_pool() -> Vec<alpaka::Health> {
    let mut pool = DevicePool::new_sim(AccKind::sim_k20(), 3).unwrap();
    pool.clear_faults();
    let outcome = pool.launch(&daxpy_spec(2048), 8).unwrap();
    outcome.health
}

/// With `ALPAKA_SIM_FAULTS` set, run one launch under the env fault plan
/// with no retries so an injected loss surfaces as a structured failure —
/// the flight recorder then has a post-mortem to dump.
fn run_env_chaos() -> Option<String> {
    let plan = FaultPlan::from_env()?;
    let dev = Device::new(AccKind::sim_k20()).with_faults(plan);
    let chain = FallbackChain::new(dev);
    match launch_resilient(&chain, &RetryPolicy::none(), &daxpy_spec(256)) {
        Ok(_) => Some("chaos launch survived the env fault plan".into()),
        Err(e) => Some(format!("chaos launch failed as seeded: {e}")),
    }
}

fn main() {
    let hub = MetricsHub::from_env();
    if hub.is_none() {
        // No export requested: still record, for the in-process report.
        Obs::current().set_metrics_enabled(true);
    }

    run_queued_kernels();
    let resilience = run_resilient_oom();
    let pool_health = run_pool();
    let chaos = run_env_chaos();

    let cap = Obs::current().metrics_capture();
    let snap = &cap.snapshot;

    println!("=== sim-top ===");
    println!("\n-- top kernels by simulated launch time --");
    // One row per kernel label on the launch-seconds histogram.
    let mut rows: Vec<(String, f64, u64)> = snap
        .histograms
        .iter()
        .filter(|(n, _, _)| *n == "alpaka_launch_seconds")
        .map(|(_, ls, h)| {
            let kernel = ls
                .iter()
                .find(|(k, _)| *k == "kernel")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            (kernel, h.sum, h.count)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (kernel, sum, count) in rows {
        println!(
            "  {kernel:<16} {count:>3} launch(es)  {:>12.3}us total",
            sum * 1e6
        );
    }

    println!("\n-- queue traffic --");
    for (name, label) in [
        ("alpaka_queue_ops_total", "ops enqueued"),
        ("alpaka_queue_ops_completed_total", "ops completed"),
        ("alpaka_queue_op_errors_total", "op errors"),
    ] {
        println!("  {label:<14} {}", snap.counter_total(name));
    }

    println!("\n-- resilience (injected OOM, retried) --");
    match &resilience {
        Some(info) => print!("{}", resilience_report(info)),
        None => println!("  no resilience info (launch ran on a native device)"),
    }

    println!("\n-- pool health after 8-shard launch --");
    for (m, h) in pool_health.iter().enumerate() {
        println!("  member {m}: {}", h.name());
    }
    println!(
        "  migrations: {}, health transitions: {}",
        snap.counter_total("alpaka_pool_migrations_total"),
        snap.counter_total("alpaka_pool_health_transitions_total"),
    );

    if let Some(note) = chaos {
        println!("\n-- chaos (ALPAKA_SIM_FAULTS) --\n  {note}");
        for f in &cap.failures {
            println!("  failure: {f}");
        }
    }

    println!("\n-- flight recorder tail --");
    for (dev, ring) in &cap.flight {
        println!("  device {dev}: {} event(s) retained", ring.len());
        for e in ring.iter().rev().take(3).rev() {
            println!("    {}", alpaka_trace::event_line(e));
        }
    }

    println!("\n-- registry ({} families) --", {
        let mut names: Vec<&str> = snap
            .counters
            .iter()
            .map(|(n, _, _)| *n)
            .chain(snap.gauges.iter().map(|(n, _, _)| *n))
            .chain(snap.histograms.iter().map(|(n, _, _)| *n))
            .collect();
        names.dedup();
        names.len()
    });
    print!("{}", prometheus_text(snap));

    if let Some(hub) = hub {
        let paths = hub.flush().expect("metrics export files written");
        println!(
            "\nwrote {}",
            paths
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        if !cap.failures.is_empty() {
            // Sanity: the dumped post-mortem matches the in-process one.
            let pm_path = paths.last().unwrap();
            let dumped = std::fs::read_to_string(pm_path).unwrap();
            assert_eq!(dumped, postmortem(&cap), "post-mortem file diverges");
        }
    }
}
