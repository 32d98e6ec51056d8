//! End-to-end acceptance for the tracing & profiling layer.
//!
//! Covers the ISSUE 5 criteria: a traced DGEMM on the `e5_2630v3` spec must
//! produce (a) valid Chrome-trace JSON with at least one lane per worker and
//! one per queue, (b) a `KernelProfile` whose per-instruction counters sum
//! exactly to the `LaunchStats` totals, and (c) byte-identical trace output
//! (wall clock masked) across interpreter thread counts and engines — plus
//! the daxpy/dgemm determinism matrix of the satellite task.
//!
//! Worker counts are set via `Device::with_workers` rather than by mutating
//! `ALPAKA_SIM_THREADS` (the env override is process-global and would race
//! with parallel tests); both paths funnel into the same
//! `resolve_sim_threads` call in the simulator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use alpaka::{
    chrome_trace, roofline_csv, text_report, time_launch, trace, validate_json, AccKind, Args,
    BufLayout, ChromeOpts, Device, Engine, Kernel, KernelOps, LaunchMode, Queue, QueueBehavior,
    SimReport, TraceEvent, TraceKind, WorkDiv,
};
use alpaka_kernels::host::{dgemm_ref, random_matrix, random_vec, rel_err};
use alpaka_kernels::{DaxpyKernel, DgemmTiled};

/// One traced DGEMM launch through the full facade path (device -> queue ->
/// simulator), returning the captured event stream and the launch report.
fn run_traced_dgemm(kind: AccKind, workers: usize, engine: Engine) -> (Vec<TraceEvent>, SimReport) {
    let (m, n, k) = (24, 20, 16);
    let a = random_matrix(m, k, 10);
    let b = random_matrix(k, n, 11);
    let c0 = random_matrix(m, n, 12);
    // The single-source tiled kernel in its CPU shape (single-thread
    // blocks, wide element loops) — valid on the e5 spec.
    let kern = DgemmTiled { t: 1, e: 4 };
    let wd = kern.workdiv(m, n);
    let (report, events) = trace::capture(|| {
        let dev = Device::with_workers(kind.clone(), workers).with_engine(engine);
        let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
        let ab = dev.alloc_f64(BufLayout::d2(m, k, 8));
        let bb = dev.alloc_f64(BufLayout::d2(k, n, 8));
        let cb = dev.alloc_f64(BufLayout::d2(m, n, 8));
        ab.upload(&a).unwrap();
        bb.upload(&b).unwrap();
        cb.upload(&c0).unwrap();
        let args = Args::new()
            .buf_f(&ab)
            .buf_f(&bb)
            .buf_f(&cb)
            .scalar_f(1.25)
            .scalar_f(0.75)
            .scalar_i(m as i64)
            .scalar_i(n as i64)
            .scalar_i(k as i64)
            .scalar_i(ab.layout().pitch as i64)
            .scalar_i(bb.layout().pitch as i64)
            .scalar_i(cb.layout().pitch as i64);
        q.enqueue_kernel(&kern, &wd, &args).unwrap();
        q.wait().unwrap();
        // Results stay correct under tracing.
        let mut want = c0.clone();
        dgemm_ref(m, n, k, 1.25, &a, &b, 0.75, &mut want);
        assert!(rel_err(&cb.download(), &want) < 1e-13);
        q.last_sim_report().unwrap()
    });
    (events, report)
}

#[test]
fn traced_dgemm_chrome_export_has_worker_and_queue_lanes() {
    let workers = 4;
    let (events, report) = run_traced_dgemm(AccKind::sim_e5_2630v3(), workers, Engine::Compiled);
    assert!(!events.is_empty());
    let json = chrome_trace(&events, &ChromeOpts::default());
    validate_json(&json).unwrap_or_else(|e| panic!("invalid chrome JSON: {e}"));
    // Lane floor: every worker interpreted at least one SM's blocks, and
    // the queue got its own lane.
    let sm_lanes = (0..1000)
        .filter(|i| json.contains(&format!("\"name\":\"sm {i}\"")))
        .count();
    assert!(
        sm_lanes >= workers,
        "{sm_lanes} SM lanes for {workers} workers"
    );
    assert!(json.contains("\"name\":\"queue 0\""), "{json}");
    assert!(json.contains("\"name\":\"host\""), "{json}");
    // Every block of the launch has a span on an SM lane.
    let blocks = events
        .iter()
        .filter(|e| e.kind == TraceKind::BlockExec)
        .count() as u64;
    assert_eq!(blocks, report.stats.blocks);
    // The text and roofline exporters render the same stream.
    assert!(text_report(&events).contains("dgemm_tiled"));
    let csv = roofline_csv(&events);
    assert!(csv.lines().count() >= 2, "{csv}");
}

#[test]
fn traced_dgemm_profile_ties_out_against_launch_stats() {
    // The compiled engine drops out of its fused tier under profiling and
    // must still tie out per-instruction.
    let (_, report) = run_traced_dgemm(AccKind::sim_e5_2630v3(), 2, Engine::Compiled);
    profile_ties_out(&report);
}

fn profile_ties_out(report: &SimReport) {
    let profile = report.profile.as_ref().expect("traced run carries profile");
    profile
        .check_against(&report.stats)
        .unwrap_or_else(|e| panic!("profile does not tie out: {e}"));
    // And the ranked table renders with source labels.
    let table = profile.render_table(5);
    assert!(table.contains("%"), "{table}");
    // Spans account for every issue cycle exactly.
    let span_cycles: u64 = report.spans.iter().map(|s| s.cycles).sum();
    let s = &report.stats;
    assert_eq!(
        span_cycles,
        s.scalar_issue + s.vec_issue + s.bank_conflict_cycles + s.syncs * 8 + s.atomics * 16
    );
}

#[test]
fn traced_dgemm_is_byte_identical_across_threads_and_engines() {
    let configs = [
        (1, Engine::Reference),
        (4, Engine::Reference),
        (1, Engine::Compiled),
        (4, Engine::Compiled),
    ];
    let mut rendered: Vec<String> = Vec::new();
    for (workers, engine) in configs {
        let (events, _) = run_traced_dgemm(AccKind::sim_e5_2630v3(), workers, engine);
        rendered.push(chrome_trace(&events, &ChromeOpts { mask_wall: true }));
    }
    for (i, r) in rendered.iter().enumerate().skip(1) {
        assert_eq!(
            r, &rendered[0],
            "config {:?} diverged from {:?}",
            configs[i], configs[0]
        );
    }
}

#[test]
fn traced_daxpy_event_stream_is_deterministic() {
    let n = 4096usize;
    let x = random_vec(n, 1);
    let y0 = random_vec(n, 2);
    let run = |workers: usize, engine: Engine| -> Vec<TraceEvent> {
        let ((), events) = trace::capture(|| {
            let dev = Device::with_workers(AccKind::sim_k20(), workers).with_engine(engine);
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
        });
        events
    };
    let reference = run(1, Engine::Compiled);
    assert!(!reference.is_empty());
    for (workers, engine) in [
        (4, Engine::Compiled),
        (1, Engine::Reference),
        (4, Engine::Reference),
    ] {
        let got = run(workers, engine);
        assert_eq!(got.len(), reference.len(), "{workers} {engine:?}");
        for (g, r) in got.iter().zip(&reference) {
            // Identical modulo the wall clock, which is the one
            // nondeterministic field.
            let mut g = g.clone();
            g.wall_ns = r.wall_ns;
            assert_eq!(&g, r, "{workers} workers, {engine:?}");
        }
    }
}

/// Stores one element far past the end of its buffer: every launch faults.
#[derive(Clone)]
struct StoreOutOfBounds;
impl Kernel for StoreOutOfBounds {
    fn name(&self) -> &str {
        "store_oob"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let i = o.lit_i(1 << 20);
        let v = o.lit_f(1.0);
        o.st_gf(b, i, v);
    }
}

/// Daxpy's work division and arguments for `n` elements on `dev`.
fn daxpy_on(dev: &Device, n: usize) -> (WorkDiv, Args) {
    let x = dev.alloc_f64(BufLayout::d1(n));
    let y = dev.alloc_f64(BufLayout::d1(n));
    x.upload(&random_vec(n, 5)).unwrap();
    y.upload(&random_vec(n, 6)).unwrap();
    let args = Args::new().buf_f(&x).buf_f(&y);
    let args = args.scalar_f(2.5).scalar_i(n as i64);
    (dev.suggest_workdiv_1d(n), args)
}

/// `kernel` launched once on a fresh simulated K20, through a blocking queue
/// when `queued` and through `time_launch` otherwise: the captured events,
/// the queue's id and whether the launch succeeded.
fn traced_launch<K: Kernel + Clone + Send + 'static>(
    kernel: &K,
    queued: bool,
) -> (Vec<TraceEvent>, Option<u64>, bool) {
    let ((queue, ok), events) = trace::capture(|| {
        let dev = Device::new(AccKind::sim_k20());
        let (wd, args) = daxpy_on(&dev, 1000);
        if queued {
            let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
            (Some(q.id()), q.enqueue_kernel(kernel, &wd, &args).is_ok())
        } else {
            let run = time_launch(&dev, kernel, &wd, &args, LaunchMode::Exact);
            (None, run.is_ok())
        }
    });
    (events, queue, ok)
}

/// A queued launch and a direct one share one emission: the same kernel on
/// fresh devices yields the same `Launch` and `BlockExec` events apart from
/// the queue field, and only the queued launch has a `QueueOp` span. A
/// faulting launch's `Fault` event names the queue only when it was queued.
#[test]
fn queued_and_direct_launches_share_one_emission() {
    let of = |events: &[TraceEvent], kind: TraceKind| -> Vec<TraceEvent> {
        events.iter().filter(|e| e.kind == kind).cloned().collect()
    };
    let (queued, queue, ok) = traced_launch(&DaxpyKernel, true);
    assert!(ok && queue.is_some());
    let (direct, none, ok) = traced_launch(&DaxpyKernel, false);
    assert!(ok && none.is_none());
    for kind in [TraceKind::Launch, TraceKind::BlockExec] {
        let (q, d) = (of(&queued, kind), of(&direct, kind));
        assert!(!q.is_empty() && q.len() == d.len(), "{kind:?}");
        for (q, d) in q.iter().zip(&d) {
            assert_eq!(q.queue, queue, "{q:?}");
            assert_eq!(d.queue, None, "{d:?}");
            let strip = |e: &TraceEvent| TraceEvent {
                queue: None,
                wall_ns: 0,
                ..e.clone()
            };
            assert_eq!(strip(q), strip(d));
        }
    }
    let queue_ops = of(&queued, TraceKind::QueueOp);
    assert_eq!(queue_ops.len(), 1, "{queue_ops:?}");
    assert_eq!(queue_ops[0].queue, queue);
    assert!(of(&direct, TraceKind::QueueOp).is_empty());

    let (queued, queue, ok) = traced_launch(&StoreOutOfBounds, true);
    assert!(!ok);
    let (direct, _, ok) = traced_launch(&StoreOutOfBounds, false);
    assert!(!ok);
    let (q, d) = (of(&queued, TraceKind::Fault), of(&direct, TraceKind::Fault));
    assert_eq!((q.len(), d.len()), (1, 1), "{q:?} {d:?}");
    assert_eq!((q[0].queue, d[0].queue), (queue, None));
    assert_eq!(q[0].launch, Some(0));
    assert_eq!(q[0].label, d[0].label);
}

/// A capture records the handles built inside it and nothing else. Thread B
/// launches untraced, again and again, on a device built outside any
/// capture while thread A captures one traced launch: A's stream is byte for
/// byte that of the same capture run alone.
#[test]
fn a_capture_beside_another_threads_launches_sees_only_its_own() {
    let render = |events: &[TraceEvent]| chrome_trace(events, &ChromeOpts { mask_wall: true });
    let alone = render(&traced_launch(&DaxpyKernel, true).0);
    let (started, stop) = (Barrier::new(2), AtomicBool::new(false));
    let beside = std::thread::scope(|s| {
        let b = s.spawn(|| {
            let dev = Device::new(AccKind::sim_k20());
            let (wd, args) = daxpy_on(&dev, 256);
            let launch = || time_launch(&dev, &DaxpyKernel, &wd, &args, LaunchMode::Exact);
            launch().unwrap();
            started.wait();
            while !stop.load(Ordering::Relaxed) {
                launch().unwrap();
            }
        });
        started.wait();
        // Caught, so that B is stopped (and the scope ends) whatever A does.
        let a = std::panic::catch_unwind(|| traced_launch(&DaxpyKernel, true));
        stop.store(true, Ordering::Relaxed);
        b.join().unwrap();
        let (events, _, ok) = a.unwrap();
        assert!(ok);
        events
    });
    assert_eq!(render(&beside), alone);
}
