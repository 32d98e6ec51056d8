//! The Fig. 4 zero-overhead claim as a regression test, plus checks on the
//! compilation pipeline that backs it — and the same contract for the
//! tracing and metrics facades: with `ALPAKA_SIM_TRACE` and
//! `ALPAKA_SIM_METRICS` unset, a launch through the fully instrumented queue
//! path records no events and leaves the metrics registry, flight recorder
//! and failure notes empty, and switching either on leaves the simulated
//! statistics and results unchanged. The wall-clock side of the claim, the
//! < 2 % budget, is `untraced_facade_launch_costs_under_2_percent`, an ignored
//! test that `scripts/ci.sh` runs in release mode.

use std::time::Instant;

use alpaka::{
    metrics, trace, AccKind, Args, BufLayout, BufferF, Device, Queue, QueueBehavior, SimReport,
};
use alpaka_kernels::{DaxpyKernel, DaxpyNativeStyle, DgemmNaive};
use alpaka_kir::{optimize, print_stream, trace_kernel, trace_kernel_spec, validate, SpecConsts};
use alpaka_sim::{run_kernel_launch_threads, DeviceMem, DeviceSpec, ExecMode, SimArgs};

#[test]
fn alpaka_daxpy_compiles_to_the_native_stream() {
    let spec = SpecConsts {
        thread_elem_extent: Some([1, 1, 1]),
        ..Default::default()
    };
    let mut alpaka_prog = trace_kernel_spec(&DaxpyKernel, 1, spec);
    let mut native_prog = trace_kernel(&DaxpyNativeStyle, 1);
    optimize(&mut alpaka_prog);
    optimize(&mut native_prog);
    validate(&alpaka_prog).unwrap();
    validate(&native_prog).unwrap();
    assert_eq!(print_stream(&alpaka_prog), print_stream(&native_prog));
}

#[test]
fn abstraction_residue_is_removed() {
    let spec = SpecConsts {
        thread_elem_extent: Some([1, 1, 1]),
        ..Default::default()
    };
    let mut prog = trace_kernel_spec(&DaxpyKernel, 1, spec);
    let before = prog.instr_count();
    let stats = optimize(&mut prog);
    assert!(stats.unrolled >= 1, "the V=1 element loop must unroll");
    assert!(stats.aliased >= 1, "x*1 / x+0 identities must alias away");
    assert!(prog.instr_count() < before);
    // No loop remains in the optimized kernel.
    let mut loops = 0;
    prog.body.visit(&mut |s| {
        if matches!(s, alpaka_kir::Stmt::ForRange { .. }) {
            loops += 1;
        }
    });
    assert_eq!(loops, 0);
}

#[test]
fn unspecialized_kernel_keeps_its_element_loop() {
    // Without specialization the element extent is a runtime register, so
    // the loop must survive (and the kernel still be correct for any V).
    let mut prog = trace_kernel(&DaxpyKernel, 1);
    optimize(&mut prog);
    let mut loops = 0;
    prog.body.visit(&mut |s| {
        if matches!(s, alpaka_kir::Stmt::ForRange { .. }) {
            loops += 1;
        }
    });
    assert_eq!(loops, 1);
}

#[test]
fn optimization_is_idempotent() {
    let spec = SpecConsts {
        thread_elem_extent: Some([1, 1, 1]),
        ..Default::default()
    };
    let mut once = trace_kernel_spec(&DaxpyKernel, 1, spec);
    optimize(&mut once);
    let mut twice = once.clone();
    optimize(&mut twice);
    assert_eq!(print_stream(&once), print_stream(&twice));
}

#[test]
fn gemm_kernels_validate_after_optimization() {
    use alpaka_kernels::{DgemmNaive, DgemmTiled, DgemmTiledCuda};
    for (name, prog) in [
        ("naive", trace_kernel(&DgemmNaive, 1)),
        ("tiled_cuda", trace_kernel(&DgemmTiledCuda { ts: 16 }, 2)),
        ("tiled", trace_kernel(&DgemmTiled { t: 16, e: 2 }, 2)),
    ] {
        let mut p = prog;
        optimize(&mut p);
        validate(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(p.instr_count() > 0, "{name}");
    }
}

/// `C (blocks x 64) <- A (blocks x 64) * B (64 x 64)`: the naive DGEMM,
/// one output row per block, through the facade queue on a simulated
/// E5-2630v3 with one interpreter thread: the report and `C`.
fn facade_dgemm(blocks: usize) -> (SimReport, BufferF) {
    const N: usize = 64;
    let dev = Device::with_workers(AccKind::sim_e5_2630v3(), 1);
    dev.clear_faults();
    let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
    let ab = dev.alloc_f64(BufLayout::d2(blocks, N, 8));
    let bb = dev.alloc_f64(BufLayout::d2(N, N, 8));
    let cb = dev.alloc_f64(BufLayout::d2(blocks, N, 8));
    let a: Vec<f64> = (0..blocks * N)
        .map(|i| ((i * 7 + 3) % 17) as f64 * 0.25)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 5 + 1) % 13) as f64 - 6.0)
        .collect();
    ab.upload(&a).unwrap();
    bb.upload(&b).unwrap();
    let args = Args::new()
        .buf_f(&ab)
        .buf_f(&bb)
        .buf_f(&cb)
        .scalar_f(1.0)
        .scalar_f(0.0)
        .scalar_i(blocks as i64)
        .scalar_i(N as i64)
        .scalar_i(N as i64)
        .scalar_i(ab.layout().pitch as i64)
        .scalar_i(bb.layout().pitch as i64)
        .scalar_i(cb.layout().pitch as i64);
    q.enqueue_kernel(&DgemmNaive, &DgemmNaive::workdiv(blocks, 1), &args)
        .unwrap();
    q.wait().unwrap();
    (q.last_sim_report().unwrap(), cb)
}

/// The tracing and metrics facades, switched off, record nothing; switched
/// on, they change no statistic and no result.
#[test]
fn disabled_metrics_facade_records_nothing() {
    if trace::enabled() || metrics::enabled() {
        return; // ambient ALPAKA_SIM_TRACE / ALPAKA_SIM_METRICS run
    }
    let (untraced, c) = facade_dgemm(32);
    let want = c.download();
    assert_eq!(trace::pending(), 0, "untraced launch recorded events");
    assert!(
        untraced.profile.is_none(),
        "untraced launch built a profile"
    );
    assert!(metrics::snapshot().is_empty(), "registry must stay empty");
    assert!(metrics::flight_snapshot().is_empty());
    assert!(metrics::failures().is_empty());

    let ((metered, c), cap) = metrics::capture(|| facade_dgemm(32));
    assert_eq!(untraced.stats, metered.stats, "metrics perturbed the stats");
    assert_eq!(c.download(), want, "metrics perturbed kernel results");
    assert_eq!(cap.snapshot.counter_total("alpaka_launches_total"), 1);
    assert!(cap.failures.is_empty());

    // Tracing emits a stream whose profile ties out.
    let ((traced, c), events) = trace::capture(|| facade_dgemm(32));
    assert!(!events.is_empty(), "traced launch recorded nothing");
    assert_eq!(untraced.stats, traced.stats, "tracing perturbed the stats");
    assert_eq!(c.download(), want, "tracing perturbed kernel results");
    let profile = traced.profile.expect("traced launch carries a profile");
    profile.check_against(&traced.stats).unwrap();
}

/// The same naive DGEMM as [`facade_dgemm`], straight through the simulator:
/// no device, no queue, no trace or metrics branch.
fn direct_dgemm(blocks: usize) {
    const N: usize = 64;
    let mut prog = trace_kernel(&DgemmNaive, 1);
    optimize(&mut prog);
    let mut mem = DeviceMem::new();
    let a = mem.alloc_f(blocks * N);
    let b = mem.alloc_f(N * N);
    let c = mem.alloc_f(blocks * N);
    for i in 0..blocks * N {
        mem.f_mut(a)[i] = ((i * 7 + 3) % 17) as f64 * 0.25;
    }
    for i in 0..N * N {
        mem.f_mut(b)[i] = ((i * 5 + 1) % 13) as f64 - 6.0;
    }
    let args = SimArgs {
        bufs_f: vec![a, b, c],
        bufs_i: vec![],
        params_f: vec![1.0, 0.0],
        params_i: [blocks, N, N, N, N, N].map(|v| v as i64).to_vec(),
    };
    let wd = DgemmNaive::workdiv(blocks, 1);
    let spec = DeviceSpec::e5_2630v3();
    run_kernel_launch_threads(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full, 1).unwrap();
}

/// With tracing and metrics off, the facade's launch path (device, queue,
/// sticky-error checks, trace and metrics branches) costs within 2 % of the
/// raw simulator call. Interleaved min-of-5 after one warm-up pair, so a
/// noisy host slows both sides alike. Wall clock, so ignored by default:
/// `cargo test --release --test zero_overhead -- --ignored`.
#[test]
#[ignore = "wall clock; run in release mode"]
fn untraced_facade_launch_costs_under_2_percent() {
    assert!(!trace::enabled(), "tracing must be off");
    assert!(!metrics::enabled(), "metrics must be off");
    const BLOCKS: usize = 256;
    direct_dgemm(BLOCKS);
    facade_dgemm(BLOCKS);
    let (mut direct, mut facade) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let t0 = Instant::now();
        direct_dgemm(BLOCKS);
        direct = direct.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        facade_dgemm(BLOCKS);
        facade = facade.min(t1.elapsed().as_secs_f64());
    }
    let overhead = facade / direct - 1.0;
    eprintln!(
        "direct {direct:.4} s, untraced facade {facade:.4} s, overhead {:+.2} %",
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "untraced facade launch is {:.2} % slower than the raw simulator call (budget 2 %)",
        overhead * 100.0
    );
}
