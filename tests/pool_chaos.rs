//! Multi-device pool acceptance: sharded launches must be bit-identical to
//! a serial single-device run — across pool sizes, interpreter thread
//! counts and engines — and must survive seeded faults by quarantining the
//! hit member and migrating the failed shard, reproducing the fault-free
//! result exactly whenever a survivor exists. Unrecoverable scenarios must
//! fail with a structured error naming the quarantined device and the
//! failed shard's block coordinates.

use alpaka::{
    chrome_trace, trace, AccKind, Args, BufLayout, ChromeOpts, Device, DevicePool, Engine, Error,
    FallbackChain, FaultPlan, Health, LaunchSpec, PoolOutcome, PoolPolicy, Queue, QueueBehavior,
    RetryPolicy, WorkDiv, WorkDivSpec,
};
use alpaka_kernels::{DaxpyKernel, DgemmNaive, HistogramGlobalExact, ScanBlocks};
use alpaka_sim::LaunchStats;

const ENGINES: [Engine; 2] = [Engine::Reference, Engine::Compiled];

// ---------------------------------------------------------------------------
// Workloads (facade-level LaunchSpecs mirroring the bench zoo).

fn daxpy_spec() -> LaunchSpec<DaxpyKernel> {
    let n = 4096usize;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 11 + 2) % 23) as f64 * 0.5 - 5.0)
        .collect();
    let y: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
    LaunchSpec::new(DaxpyKernel, WorkDivSpec::Fixed(WorkDiv::d1(n / 64, 1, 64)))
        .arg_f(BufLayout::d1(n), x)
        .arg_f(BufLayout::d1(n), y)
        .scalar_f(2.5)
        .scalar_i(n as i64)
}

fn dgemm_spec() -> LaunchSpec<DgemmNaive> {
    let (m, n) = (48usize, 8usize);
    let a: Vec<f64> = (0..m * n)
        .map(|i| ((i * 7 + 3) % 17) as f64 * 0.25)
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|i| ((i * 5 + 1) % 13) as f64 - 6.0)
        .collect();
    let c = vec![0.0; m * n];
    LaunchSpec::new(DgemmNaive, WorkDivSpec::Fixed(DgemmNaive::workdiv(m, 1)))
        .arg_f(BufLayout::d1(m * n), a)
        .arg_f(BufLayout::d1(n * n), b)
        .arg_f(BufLayout::d1(m * n), c)
        .scalar_f(1.0)
        .scalar_f(0.0)
        .scalar_i(m as i64)
        .scalar_i(n as i64)
        .scalar_i(n as i64)
        .scalar_i(n as i64)
        .scalar_i(n as i64)
        .scalar_i(n as i64)
}

fn scan_spec() -> LaunchSpec<ScanBlocks> {
    let (blocks, threads) = (32usize, 16usize);
    let n = blocks * 2 * threads;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 13 + 5) % 17) as f64 * 0.75 - 4.0)
        .collect();
    LaunchSpec::new(
        ScanBlocks { block: threads },
        WorkDivSpec::Fixed(WorkDiv::d1(blocks, threads, 1)),
    )
    .arg_f(BufLayout::d1(n), x)
    .arg_f(BufLayout::d1(n), vec![0.0; n])
    .arg_f(BufLayout::d1(blocks), vec![0.0; blocks])
    .scalar_i(n as i64)
}

fn histogram_spec() -> LaunchSpec<HistogramGlobalExact> {
    let (blocks, elems, bins) = (64usize, 16usize, 16usize);
    let n = blocks * elems;
    let s: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 1000) as f64 * 0.01)
        .collect();
    LaunchSpec::new(
        HistogramGlobalExact,
        WorkDivSpec::Fixed(WorkDiv::d1(blocks, 1, elems)),
    )
    .arg_f(BufLayout::d1(n), s)
    .arg_i(BufLayout::d1(bins), vec![0; bins])
    .scalar_f(0.0)
    .scalar_f(10.0)
    .scalar_i(n as i64)
    .scalar_i(bins as i64)
}

// ---------------------------------------------------------------------------
// Drivers.

/// Serial single-device reference run (no pool, one full-grid launch).
fn serial_run<K: alpaka::Kernel + Clone + Send + 'static>(
    kind: AccKind,
    engine: Engine,
    spec: &LaunchSpec<K>,
) -> (Vec<Vec<f64>>, Vec<Vec<i64>>) {
    let dev = Device::with_workers(kind, 1).with_engine(engine);
    dev.clear_faults();
    let wd = match &spec.workdiv {
        WorkDivSpec::Fixed(wd) => *wd,
        WorkDivSpec::Suggest1d(n) => dev.suggest_workdiv_1d(*n),
    };
    let mut args = Args::new();
    let mut bufs_f = Vec::new();
    for (layout, init) in &spec.bufs_f {
        let b = dev.alloc_f64(*layout);
        b.upload(init).unwrap();
        args = args.buf_f(&b);
        bufs_f.push(b);
    }
    let mut bufs_i = Vec::new();
    for (layout, init) in &spec.bufs_i {
        let b = dev.alloc_i64(*layout);
        b.upload(init).unwrap();
        args = args.buf_i(&b);
        bufs_i.push(b);
    }
    args.scalars = spec.scalars.clone();
    dev.launch(&spec.kernel, &wd, &args).unwrap();
    (
        bufs_f.iter().map(|b| b.download()).collect(),
        bufs_i.iter().map(|b| b.download()).collect(),
    )
}

/// One pool launch under trace capture, with optional per-member fault
/// plans. Returns the outcome plus the rendered Chrome-trace bytes.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn pool_run<K: alpaka::Kernel + Clone + Send + 'static>(
    kind: AccKind,
    pool_size: usize,
    workers: usize,
    engine: Engine,
    spec: &LaunchSpec<K>,
    shards: usize,
    policy: PoolPolicy,
    plans: &[(usize, FaultPlan)],
) -> (Result<PoolOutcome, Error>, String) {
    let (out, events) = trace::capture(|| {
        let mut pool = DevicePool::new_sim_with_workers(kind.clone(), pool_size, workers)
            .unwrap()
            .with_engine(engine)
            .with_policy(policy.clone());
        pool.clear_faults();
        for (m, p) in plans {
            pool.set_member_faults(*m, Some(p.clone()));
        }
        pool.launch(spec, shards)
    });
    let rendered = chrome_trace(&events, &ChromeOpts { mask_wall: true });
    (out, rendered)
}

fn bits_f(bufs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    bufs.iter()
        .map(|b| b.iter().map(|v| v.to_bits()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Determinism: pool == serial, byte-identical across pool sizes / threads /
// engines.

fn check_workload<K: alpaka::Kernel + Clone + Send + 'static>(
    name: &str,
    kind: AccKind,
    spec: &LaunchSpec<K>,
    shards: usize,
) {
    // Engine-invariant canonical trace: collect every (pool size, workers,
    // engine) combination's rendering and demand byte equality.
    let mut traces: Vec<(String, String)> = Vec::new();
    let mut stats_ref: Option<LaunchStats> = None;
    for engine in ENGINES {
        let (want_f, want_i) = serial_run(kind.clone(), engine, spec);
        for pool_size in [1usize, 2, 4] {
            for workers in [1usize, 4] {
                let (out, rendered) = pool_run(
                    kind.clone(),
                    pool_size,
                    workers,
                    engine,
                    spec,
                    shards,
                    PoolPolicy::default(),
                    &[],
                );
                let out = out.unwrap_or_else(|e| {
                    panic!("{name}: pool {pool_size}x w{workers} {engine:?}: {e}")
                });
                let tag = format!("{name} pool={pool_size} w={workers} {engine:?}");
                assert_eq!(bits_f(&out.bufs_f), bits_f(&want_f), "{tag} vs serial");
                assert_eq!(out.bufs_i, want_i, "{tag} vs serial (i64)");
                assert_eq!(out.shards.len(), shards.min(spec_blocks(spec)), "{tag}");
                match &stats_ref {
                    None => stats_ref = Some(out.stats),
                    Some(s) => assert_eq!(&out.stats, s, "{tag} stats diverged"),
                }
                traces.push((tag, rendered));
            }
        }
    }
    let (tag0, t0) = &traces[0];
    for (tag, t) in &traces[1..] {
        assert_eq!(t, t0, "{name}: trace of {tag} diverged from {tag0}");
    }
}

fn spec_blocks<K>(spec: &LaunchSpec<K>) -> usize {
    match &spec.workdiv {
        WorkDivSpec::Fixed(wd) => wd.block_count(),
        WorkDivSpec::Suggest1d(_) => usize::MAX,
    }
}

#[test]
fn daxpy_pool_deterministic() {
    check_workload("daxpy", AccKind::sim_e5_2630v3(), &daxpy_spec(), 7);
}

#[test]
fn dgemm_pool_deterministic() {
    check_workload("dgemm", AccKind::sim_e5_2630v3(), &dgemm_spec(), 5);
}

#[test]
fn scan_pool_deterministic() {
    check_workload("scan", AccKind::sim_k20(), &scan_spec(), 4);
}

#[test]
fn histogram_pool_deterministic() {
    check_workload("histogram", AccKind::sim_e5_2630v3(), &histogram_spec(), 6);
}

/// Oversharding (more shards than blocks) must degrade to one block per
/// shard, not crash or drop blocks.
#[test]
fn more_shards_than_blocks_is_fine() {
    let spec = daxpy_spec();
    let (want_f, _) = serial_run(AccKind::sim_e5_2630v3(), Engine::Compiled, &spec);
    let (out, _) = pool_run(
        AccKind::sim_e5_2630v3(),
        2,
        1,
        Engine::Compiled,
        &spec,
        1000,
        PoolPolicy::default(),
        &[],
    );
    let out = out.unwrap();
    assert_eq!(out.shards.len(), 64); // one shard per block
    assert_eq!(bits_f(&out.bufs_f), bits_f(&want_f));
}

// ---------------------------------------------------------------------------
// Chaos campaign: {pool size} x {fault kind} x {injection time} x {engine}.

struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    /// Recoverable only when another member can absorb the shard.
    needs_survivor: bool,
}

/// The chaos grid for one pool size. Fault ordinals are *per member*
/// (launch / allocation counters of the injected device), so "mid" and
/// "late" injection points are derived from how many shards member 0 will
/// run at this pool size — that way every scenario actually fires at every
/// pool size.
fn scenarios(seed: u64, pool_size: usize, shards: usize) -> Vec<Scenario> {
    // Member 0 runs every pool_size-th shard (round-robin).
    let member_launches = shards.div_ceil(pool_size) as u64;
    // daxpy binds two buffers, so each shard attempt consumes two
    // allocation ordinals.
    let member_allocs = 2 * member_launches;
    vec![
        // Deterministic ECC storm: every launch on the member faults, so
        // its retry budget drains and it is quarantined.
        Scenario {
            name: "ecc_storm",
            plan: FaultPlan::quiet(seed).with_ecc_rate(1.0),
            needs_survivor: true,
        },
        // Device loss on the member's first / second / last launch:
        // sticky, migrate.
        Scenario {
            name: "lost_early",
            plan: FaultPlan::quiet(seed).with_lost_at_launch(0),
            needs_survivor: true,
        },
        Scenario {
            name: "lost_mid",
            plan: FaultPlan::quiet(seed).with_lost_at_launch(1),
            needs_survivor: true,
        },
        Scenario {
            name: "lost_late",
            plan: FaultPlan::quiet(seed).with_lost_at_launch(member_launches - 1),
            needs_survivor: true,
        },
        // One-shot OOM on an early / late allocation: transient, the
        // in-place retry absorbs it on any pool size.
        Scenario {
            name: "oom_early",
            plan: FaultPlan::quiet(seed).with_oom_at(0),
            needs_survivor: false,
        },
        Scenario {
            name: "oom_late",
            plan: FaultPlan::quiet(seed).with_oom_at(member_allocs - 1),
            needs_survivor: false,
        },
        // Watchdog starvation: every launch on the member times out.
        Scenario {
            name: "watchdog",
            plan: FaultPlan::quiet(seed).with_watchdog_fuel(1),
            needs_survivor: true,
        },
        // Compound fault: a transient OOM absorbed by retry, then a sticky
        // loss on the member's next launch that still forces migration.
        Scenario {
            name: "oom_then_lost",
            plan: FaultPlan::quiet(seed).with_oom_at(0).with_lost_at_launch(1),
            needs_survivor: true,
        },
    ]
}

#[test]
fn chaos_campaign() {
    let spec = daxpy_spec();
    let kind = AccKind::sim_e5_2630v3();
    let shards = 8usize;
    let mut ran = 0usize;
    for engine in ENGINES {
        let (want_f, _) = serial_run(kind.clone(), engine, &spec);
        let want_bits = bits_f(&want_f);
        let (clean, _) = pool_run(
            kind.clone(),
            1,
            1,
            engine,
            &spec,
            shards,
            PoolPolicy::default(),
            &[],
        );
        let want_stats = clean.unwrap().stats;
        for pool_size in [1usize, 2, 4] {
            for sc in scenarios(7 + pool_size as u64, pool_size, shards) {
                let tag = format!("{} pool={pool_size} {engine:?}", sc.name);
                // The faulted member is always member 0 (first assignment
                // target), so `needs_survivor` scenarios on a 1-pool are
                // exactly the unrecoverable ones.
                let expect_ok = !sc.needs_survivor || pool_size > 1;
                let mut outcomes: Vec<String> = Vec::new();
                for workers in [1usize, 4] {
                    let (out, _) = pool_run(
                        kind.clone(),
                        pool_size,
                        workers,
                        engine,
                        &spec,
                        shards,
                        PoolPolicy::default(),
                        &[(0, sc.plan.clone())],
                    );
                    match out {
                        Ok(o) => {
                            assert!(expect_ok, "{tag}: unexpectedly recovered");
                            assert_eq!(
                                bits_f(&o.bufs_f),
                                want_bits,
                                "{tag} w={workers}: recovered result differs from fault-free"
                            );
                            assert_eq!(
                                o.stats, want_stats,
                                "{tag} w={workers}: recovered stats differ from fault-free"
                            );
                            if sc.needs_survivor {
                                assert!(
                                    !o.migrations.is_empty(),
                                    "{tag}: fault absorbed without a recorded migration"
                                );
                                assert_eq!(o.health[0], Health::Quarantined, "{tag}");
                                assert!(o.resilience.failovers > 0, "{tag}");
                            }
                            assert!(o.resilience.attempts as usize >= o.shards.len(), "{tag}");
                            outcomes.push(format!("ok:{:?}", bits_f(&o.bufs_f)));
                        }
                        Err(e) => {
                            assert!(!expect_ok, "{tag}: expected recovery, got: {e}");
                            // Structured coordinates: the error must name
                            // the shard's block range and the quarantined
                            // member/device.
                            let msg = e.to_string();
                            assert!(
                                msg.contains("shard") && msg.contains("blocks"),
                                "{tag}: error lacks shard coordinates: {msg}"
                            );
                            assert!(
                                msg.contains("member") && msg.contains("AccSim"),
                                "{tag}: error lacks quarantined device: {msg}"
                            );
                            outcomes.push(format!("err:{msg}"));
                        }
                    }
                }
                // Same scenario, different interpreter thread count: the
                // outcome (bits or error text) must be identical.
                assert_eq!(
                    outcomes[0], outcomes[1],
                    "{tag}: thread count changed outcome"
                );
                ran += 1;
            }
        }
    }
    assert!(ran >= 32, "campaign too small: {ran} scenarios");
}

/// Faults on a *later* member while earlier members work: the shard keeps
/// round-robin order, so member 1 faults mid-launch and its shards migrate.
#[test]
fn fault_on_secondary_member_migrates() {
    let spec = dgemm_spec();
    let kind = AccKind::sim_e5_2630v3();
    let (want_f, _) = serial_run(kind.clone(), Engine::Compiled, &spec);
    let (out, _) = pool_run(
        kind.clone(),
        3,
        1,
        Engine::Compiled,
        &spec,
        6,
        PoolPolicy::default(),
        &[(1, FaultPlan::quiet(3).with_lost_at_launch(1))],
    );
    let out = out.unwrap();
    assert_eq!(bits_f(&out.bufs_f), bits_f(&want_f));
    assert_eq!(out.health[1], Health::Quarantined);
    assert!(out.migrations.iter().all(|m| m.from == 1));
    // Quarantined members get no further shards.
    let quarantined_after = out
        .migrations
        .first()
        .map(|m| m.shard)
        .unwrap_or(usize::MAX);
    for s in &out.shards {
        if s.shard > quarantined_after {
            assert_ne!(
                s.device_index, 1,
                "shard {} ran on a quarantined member",
                s.shard
            );
        }
    }
}

/// Every member faulted: the launch must fail structurally, never panic or
/// return partial buffers.
#[test]
fn all_members_lost_is_structured() {
    let spec = daxpy_spec();
    let plans: Vec<(usize, FaultPlan)> = (0..2)
        .map(|m| (m, FaultPlan::quiet(11 + m as u64).with_lost_at_launch(0)))
        .collect();
    let (out, _) = pool_run(
        AccKind::sim_e5_2630v3(),
        2,
        1,
        Engine::Compiled,
        &spec,
        4,
        PoolPolicy::default(),
        &plans,
    );
    let err = out.unwrap_err();
    assert!(matches!(err, Error::DeviceLost(_)), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("unrecoverable") && msg.contains("member"),
        "{msg}"
    );
}

// ---------------------------------------------------------------------------
// Recovery, cooldown, deadline.

#[test]
fn quarantined_member_recovers_after_cooldown() {
    let spec = daxpy_spec();
    let kind = AccKind::sim_e5_2630v3();
    let (want_f, _) = serial_run(kind.clone(), Engine::Compiled, &spec);
    let policy = PoolPolicy {
        cooldown_shards: 2,
        ..PoolPolicy::default()
    };
    let (out, _) = pool_run(
        kind.clone(),
        2,
        1,
        Engine::Compiled,
        &spec,
        8,
        policy,
        &[(0, FaultPlan::quiet(5).with_lost_at_launch(1))],
    );
    let out = out.unwrap();
    assert_eq!(bits_f(&out.bufs_f), bits_f(&want_f));
    // The member came back and ran at least one more shard after its
    // quarantine window.
    let migrated_at = out.migrations[0].shard;
    assert!(
        out.shards
            .iter()
            .any(|s| s.shard > migrated_at && s.device_index == 0),
        "member 0 never recovered: {:?}",
        out.shards
    );
    // One clean shard promotes Recovered -> Healthy.
    assert_eq!(out.health[0], Health::Healthy);
}

#[test]
fn pool_deadline_names_pending_shards() {
    let spec = daxpy_spec();
    let policy = PoolPolicy {
        deadline_s: Some(1e-12),
        ..PoolPolicy::default()
    };
    let (out, _) = pool_run(
        AccKind::sim_e5_2630v3(),
        2,
        1,
        Engine::Compiled,
        &spec,
        8,
        policy,
        &[],
    );
    let err = out.unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("deadline") && msg.contains("shard"), "{msg}");
}

// ---------------------------------------------------------------------------
// Satellite 2: a recovered device must not resurrect a stale sticky error
// through Queue::reset.

#[test]
fn queue_reset_clears_recovered_device() {
    let spec = daxpy_spec();
    let wd = match &spec.workdiv {
        WorkDivSpec::Fixed(wd) => *wd,
        _ => unreachable!(),
    };
    let dev = Device::with_workers(AccKind::sim_k20(), 1)
        .with_faults(FaultPlan::quiet(1).with_lost_at_launch(0));
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let xb = dev.alloc_f64(spec.bufs_f[0].0);
    let yb = dev.alloc_f64(spec.bufs_f[1].0);
    xb.upload(&spec.bufs_f[0].1).unwrap();
    yb.upload(&spec.bufs_f[1].1).unwrap();
    let args = Args::new()
        .buf_f(&xb)
        .buf_f(&yb)
        .scalar_f(2.5)
        .scalar_i(spec.bufs_f[0].1.len() as i64);

    // Non-blocking queue: the injected loss is recorded sticky and
    // surfaces at wait.
    q.enqueue_kernel(&spec.kernel, &wd, &args).unwrap();
    let err = q.wait().unwrap_err();
    assert!(matches!(err, Error::DeviceLost(_)), "{err}");

    // Reset alone is not enough: the device is still lost, so the next op
    // fails again (no silent resurrection of a dead device).
    dev.clear_faults();
    q.reset();
    q.enqueue_kernel(&spec.kernel, &wd, &args).unwrap();
    assert!(q.wait().is_err(), "lost device must stay lost after reset");

    // But once the health layer declares the device recovered, reset must
    // clear the sticky loss and the queue works again.
    dev.mark_recovered();
    q.reset();
    q.enqueue_kernel(&spec.kernel, &wd, &args).unwrap();
    q.wait().unwrap();

    // And the result is the fault-free one.
    let (want_f, _) = serial_run(AccKind::sim_k20(), Engine::Compiled, &spec);
    assert_eq!(bits_f(&[yb.download()]), bits_f(&want_f[1..2]));
}

// ---------------------------------------------------------------------------
// Satellite 1: launch_resilient surfaces retry/failover provenance on the
// SimReport.

#[test]
fn resilient_launch_reports_provenance() {
    let spec = daxpy_spec();
    let primary = Device::with_workers(AccKind::sim_k20(), 1)
        .with_faults(FaultPlan::quiet(2).with_lost_at_launch(0));
    let secondary = Device::with_workers(AccKind::sim_k20(), 1);
    secondary.clear_faults();
    let chain = FallbackChain::new(primary).then(secondary);
    let out = alpaka::launch_resilient(&chain, &RetryPolicy::default(), &spec).unwrap();
    assert_eq!(out.device_index, 1);
    let report = out.report.as_ref().expect("sim launch carries a report");
    let res = report
        .resilience
        .as_ref()
        .expect("resilient launch carries provenance");
    assert_eq!(res.attempts, out.attempts);
    assert!(res.failovers >= 1, "fail-over not counted");
    // First attempt: device loss on the primary, recorded by kind.
    assert_eq!(res.history[0].device_index, 0);
    assert_eq!(res.history[0].fault.as_deref(), Some("device_lost"));
    assert!(!res.history[0].transient);
    // Final attempt: clean on the secondary.
    let last = res.history.last().unwrap();
    assert_eq!(last.device_index, 1);
    assert_eq!(last.fault, None);
}

// ---------------------------------------------------------------------------
// Per-member lanes (satellite 6): opt-in member lanes add per-device shard
// spans and migration markers without disturbing the canonical stream.

#[test]
fn member_lanes_are_additive_and_ordered() {
    let spec = daxpy_spec();
    let kind = AccKind::sim_e5_2630v3();
    let run = |member_lanes: bool| {
        let policy = PoolPolicy {
            member_lanes,
            ..PoolPolicy::default()
        };
        let (out, events) = trace::capture(|| {
            let mut pool = DevicePool::new_sim_with_workers(kind.clone(), 2, 1)
                .unwrap()
                .with_policy(policy);
            pool.clear_faults();
            pool.launch(&spec, 6)
        });
        out.unwrap();
        events
    };
    let plain = run(false);
    let laned = run(true);
    // The canonical stream is a strict prefix: member lanes only append.
    // (Compared on simulated content; wall-clock timestamps differ.)
    let sig = |e: &alpaka::TraceEvent| {
        format!(
            "{:?}|{}|{}|{:?}|{:?}|{}|{}|{:?}",
            e.kind, e.label, e.device, e.queue, e.launch, e.sim_t0_s, e.sim_t1_s, e.meta
        )
    };
    assert_eq!(
        laned[..plain.len()].iter().map(sig).collect::<Vec<_>>(),
        plain.iter().map(sig).collect::<Vec<_>>()
    );
    let extra = &laned[plain.len()..];
    assert!(!extra.is_empty(), "member lanes emitted nothing");
    // Member events arrive in fixed device-then-shard order.
    let devs: Vec<u64> = extra.iter().map(|e| e.device).collect();
    let mut sorted = devs.clone();
    sorted.sort();
    assert_eq!(devs, sorted, "member lanes not in device order");
    // And they render into the dedicated "shards" Chrome lane.
    let json = chrome_trace(&laned, &ChromeOpts { mask_wall: true });
    assert!(json.contains("\"shards\""), "no shards lane: {json}");
}
