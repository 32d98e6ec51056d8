//! The Fig. 4 zero-overhead claim as a regression test, plus checks on the
//! compilation pipeline that backs it — and the same contract for the
//! tracing and metrics facades: with `ALPAKA_SIM_TRACE` and
//! `ALPAKA_SIM_METRICS` unset, a launch through the fully instrumented queue
//! path records no events and leaves the metrics registry, flight recorder
//! and failure notes empty, and switching either on leaves the simulated
//! statistics and results unchanged. The wall-clock side of the claim, the
//! < 2 % budget, is `untraced_facade_launch_costs_under_2_percent`, an ignored
//! test that `scripts/ci.sh` runs in release mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use alpaka::{
    metrics, trace, AccKind, Args, BufLayout, BufferF, Device, Obs, Queue, QueueBehavior,
    SimReport, WorkDiv,
};
use alpaka_kernels::{DaxpyKernel, DaxpyNativeStyle, DgemmNaive};
use alpaka_kir::{
    optimize, print_stream, trace_kernel, trace_kernel_spec, validate, Program, SpecConsts,
};
use alpaka_sim::{resolve_sim_threads, DeviceMem, DeviceSpec, Engine, ExecMode, Prepared, SimArgs};

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

const N: usize = 64;

/// `A (blocks x 64)` and `B (64 x 64)` of the naive DGEMM
/// `C (blocks x 64) <- A * B`, one output row per block.
fn dgemm_inputs(blocks: usize) -> [Vec<f64>; 2] {
    let a = (0..blocks * N).map(|i| ((i * 7 + 3) % 17) as f64 * 0.25);
    let b = (0..N * N).map(|i| ((i * 5 + 1) % 13) as f64 - 6.0);
    [a.collect(), b.collect()]
}

/// The naive DGEMM set up for the facade queue on a simulated E5-2630v3
/// with one interpreter thread: the queue, the bound arguments and `C`.
fn facade_setup(blocks: usize) -> (Queue, Args, BufferF) {
    let dev = Device::with_workers(AccKind::sim_e5_2630v3(), 1);
    dev.clear_faults();
    let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
    let [a, b, c] = [blocks, N, blocks].map(|rows| dev.alloc_f64(BufLayout::d2(rows, N, 8)));
    for (buf, host) in [&a, &b].into_iter().zip(dgemm_inputs(blocks)) {
        buf.upload(&host).unwrap();
    }
    let mut args = Args::new().buf_f(&a).buf_f(&b).buf_f(&c);
    let [pa, pb, pc] = [&a, &b, &c].map(|buf| buf.layout().pitch);
    args.scalars.f = vec![1.0, 0.0];
    args.scalars.i = [blocks, N, N, pa, pb, pc].map(|v| v as i64).to_vec();
    (q, args, c)
}

/// [`facade_setup`], launched once: the report and `C`.
fn facade_dgemm(blocks: usize) -> (SimReport, BufferF) {
    let (q, args, cb) = facade_setup(blocks);
    q.enqueue_kernel(&DgemmNaive, &DgemmNaive::workdiv(blocks, 1), &args)
        .unwrap();
    q.wait().unwrap();
    (q.last_sim_report().unwrap(), cb)
}

/// The tracing and metrics facades, switched off, record nothing; switched
/// on, they change no statistic and no result.
#[test]
fn disabled_metrics_facade_records_nothing() {
    let obs = Obs::current();
    if obs.active() {
        return; // ambient ALPAKA_SIM_TRACE / ALPAKA_SIM_METRICS run
    }
    let (untraced, c) = facade_dgemm(32);
    let want = c.download();
    assert!(obs.drain().is_empty(), "untraced launch recorded events");
    assert!(
        untraced.profile.is_none(),
        "untraced launch built a profile"
    );
    assert!(obs.snapshot().is_empty(), "registry must stay empty");
    assert!(obs.flight_snapshot().is_empty());
    assert!(obs.failures().is_empty());

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

/// The naive DGEMM as `SimDevice::run` compiles it (block and element
/// extents baked in, optimized, one `Prepared`, as a fresh device's memo
/// holds), on [`facade_setup`]'s inputs in bare simulator memory.
struct Direct {
    spec: DeviceSpec,
    wd: WorkDiv,
    prog: Program,
    prepared: Prepared,
    mem: DeviceMem,
    args: SimArgs,
}

impl Direct {
    fn new(blocks: usize) -> Direct {
        let wd = DgemmNaive::workdiv(blocks, 1);
        let consts = SpecConsts {
            block_thread_extent: Some(wd.threads),
            thread_elem_extent: Some(wd.elems),
        };
        let mut prog = trace_kernel_spec(&DgemmNaive, 1, consts);
        optimize(&mut prog);
        let prepared = Prepared::new(&prog);
        let mut mem = DeviceMem::new();
        let [a, b, c] = [blocks, N, blocks].map(|rows| mem.alloc_f(rows * N));
        for (buf, host) in [a, b].into_iter().zip(dgemm_inputs(blocks)) {
            *mem.f_mut(buf) = host;
        }
        let args = SimArgs {
            bufs_f: vec![a, b, c],
            bufs_i: vec![],
            params_f: vec![1.0, 0.0],
            params_i: [blocks, N, N, N, N, N].map(|v| v as i64).to_vec(),
        };
        Direct {
            spec: DeviceSpec::e5_2630v3(),
            wd,
            prog,
            prepared,
            mem,
            args,
        }
    }

    /// One untraced launch straight through the `Prepared`, on the
    /// interpreter threads the facade's device resolves: no device, no
    /// queue, no trace or metrics branch.
    fn launch(&mut self) {
        self.prepared
            .launch(
                &self.spec,
                &mut self.mem,
                &self.prog,
                &self.wd,
                &self.args,
                ExecMode::Full,
                resolve_sim_threads(1),
                Engine::Compiled,
                None,
                false,
            )
            .unwrap();
    }
}

/// Counts the heap allocations made on each thread (a reallocation is one:
/// the trait's default `realloc` allocates anew).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both calls forward to `System` unchanged; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// What the facade adds to a warm, untraced launch, counted exactly: one
/// `enqueue_kernel` + `wait` on a queue whose device has the kernel in its
/// memo allocates this many times more than one launch of the same program
/// through a held, warm `Prepared` — the kernel's trace, its fingerprint
/// and the launch arguments. 28 was also the count while the trace sink and
/// the metrics registry were process globals: reading the switches of the
/// device's own `Obs` allocates nothing.
#[test]
fn untraced_facade_launch_allocates_a_pinned_few_more_than_the_raw_launch() {
    const BLOCKS: usize = 8;
    const FACADE_EXTRA: i64 = 28;
    let wd = DgemmNaive::workdiv(BLOCKS, 1);
    // An `Obs` of the test's own, off whatever the environment says.
    let (q, args, _c) = Obs::default().scope(|| facade_setup(BLOCKS));
    let facade = || {
        q.enqueue_kernel(&DgemmNaive, &wd, &args).unwrap();
        q.wait().unwrap();
    };
    let mut raw = Direct::new(BLOCKS);
    let mut direct = || raw.launch();
    // Warm: the memo and the `Prepared` hold the lowered and compiled forms.
    facade();
    direct();
    let extra = allocations(facade) as i64 - allocations(&mut direct) as i64;
    assert_eq!(extra, FACADE_EXTRA, "extra heap allocations of the facade");
}

/// With tracing and metrics off, the facade's launch path (device, queue,
/// sticky-error checks, trace and metrics branches) costs within 2 % of the
/// raw simulator call. Interleaved min-of-5 after one warm-up pair, so a
/// noisy host slows both sides alike. Wall clock, so ignored by default:
/// `cargo test --release --test zero_overhead -- --ignored`.
#[test]
#[ignore = "wall clock; run in release mode"]
fn untraced_facade_launch_costs_under_2_percent() {
    assert!(!Obs::current().active(), "tracing and metrics must be off");
    const BLOCKS: usize = 256;
    Direct::new(BLOCKS).launch();
    facade_dgemm(BLOCKS);
    let (mut direct, mut facade) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let t0 = Instant::now();
        Direct::new(BLOCKS).launch();
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
