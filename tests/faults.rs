//! Failure-injection tests: every back-end must turn kernel misbehaviour
//! and invalid launches into errors rather than silent corruption.

use alpaka::{AccKind, Args, BufLayout, Device, Error, FaultPlan, WorkDiv};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

fn all_kinds() -> Vec<AccKind> {
    let mut kinds = AccKind::native_cpu_all();
    kinds.push(AccKind::sim_k20());
    kinds.push(AccKind::sim_e5_2630v3());
    kinds
}

#[derive(Clone)]
struct OobStore {
    idx: i64,
}
impl Kernel for OobStore {
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let i = o.lit_i(self.idx);
        let v = o.lit_f(1.0);
        o.st_gf(b, i, v);
    }
}

#[test]
fn out_of_bounds_store_is_a_kernel_fault_everywhere() {
    for kind in all_kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let buf = dev.alloc_f64(BufLayout::d1(8));
        let err = dev
            .launch(
                &OobStore { idx: 99 },
                &WorkDiv::d1(1, 1, 1),
                &Args::new().buf_f(&buf),
            )
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
    }
}

#[test]
fn negative_index_is_a_kernel_fault_everywhere() {
    for kind in all_kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let buf = dev.alloc_f64(BufLayout::d1(8));
        let err = dev
            .launch(
                &OobStore { idx: -1 },
                &WorkDiv::d1(1, 1, 1),
                &Args::new().buf_f(&buf),
            )
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
    }
}

#[test]
fn unbound_buffer_slot_is_an_error() {
    #[derive(Clone)]
    struct UsesSlot1;
    impl Kernel for UsesSlot1 {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b0 = o.buf_f(0);
            let b1 = o.buf_f(1); // only slot 0 bound
            let i = o.lit_i(0);
            // The loaded value is stored (kept live), so the unbound slot
            // must surface as an error rather than being optimized away.
            let v = o.ld_gf(b1, i);
            o.st_gf(b0, i, v);
        }
    }
    for kind in [AccKind::CpuSerial, AccKind::sim_k20()] {
        let dev = Device::new(kind.clone());
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let err = dev
            .launch(&UsesSlot1, &WorkDiv::d1(1, 1, 1), &Args::new().buf_f(&buf))
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
    }
}

#[test]
fn oversized_block_rejected_per_capability() {
    for kind in all_kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let caps = dev.caps();
        let too_many = caps.max_threads_per_block + 1;
        let err = dev
            .launch(
                &OobStore { idx: 0 },
                &WorkDiv::d1(1, too_many, 1),
                &Args::new(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidWorkDiv(_)), "{kind:?}: {err}");
    }
}

#[test]
fn zero_extent_workdiv_rejected() {
    let dev = Device::new(AccKind::CpuSerial);
    let err = dev
        .launch(&OobStore { idx: 0 }, &WorkDiv::d1(0, 1, 1), &Args::new())
        .unwrap_err();
    assert!(matches!(err, Error::InvalidWorkDiv(_)));
}

#[test]
fn sim_rejects_divergent_barrier() {
    #[derive(Clone)]
    struct DivergentSync;
    impl Kernel for DivergentSync {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let tid = o.thread_idx(0);
            let one = o.lit_i(1);
            let c = o.lt_i(tid, one);
            o.if_(c, |o| o.sync_block_threads());
        }
    }
    let dev = Device::new(AccKind::sim_k20());
    let err = dev
        .launch(&DivergentSync, &WorkDiv::d1(1, 64, 1), &Args::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("divergent"), "{msg}");
}

#[test]
fn sim_rejects_oversized_shared_memory() {
    #[derive(Clone)]
    struct HugeShared;
    impl Kernel for HugeShared {
        fn run<O: KernelOps>(&self, o: &mut O) {
            // 1 MiB of shared f64 on a 48 KiB device.
            let _sh = o.shared_f(128 * 1024);
        }
    }
    let dev = Device::new(AccKind::sim_k20());
    let err = dev
        .launch(&HugeShared, &WorkDiv::d1(1, 32, 1), &Args::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("shared"), "{msg}");
}

#[test]
fn missing_scalar_parameter_is_an_error() {
    #[derive(Clone)]
    struct NeedsParam;
    impl Kernel for NeedsParam {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let p = o.param_f(3); // never bound
            let i = o.lit_i(0);
            o.st_gf(b, i, p);
        }
    }
    for kind in [AccKind::CpuBlocks, AccKind::sim_k20()] {
        let dev = Device::with_workers(kind.clone(), 2);
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let err = dev
            .launch(&NeedsParam, &WorkDiv::d1(1, 1, 1), &Args::new().buf_f(&buf))
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
    }
}

#[test]
fn shared_memory_oob_is_a_fault() {
    #[derive(Clone)]
    struct SharedOob;
    impl Kernel for SharedOob {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let sh = o.shared_f(8);
            let i = o.lit_i(64);
            let v = o.lit_f(1.0);
            o.st_sf(sh, i, v);
        }
    }
    for kind in [AccKind::CpuThreads, AccKind::sim_k20()] {
        let dev = Device::with_workers(kind.clone(), 2);
        let err = dev
            .launch(&SharedOob, &WorkDiv::d1(1, 2, 1), &Args::new())
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
    }
}

/// Faults only for the lane at block x=2, thread x=1 — pins down per-lane
/// fault attribution (not just "some lane in some block faulted").
#[derive(Clone)]
struct FaultAtThread;
impl Kernel for FaultAtThread {
    fn name(&self) -> &str {
        "fault_at_thread"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let bi = o.block_idx(0);
        let ti = o.thread_idx(0);
        let two = o.lit_i(2);
        let one = o.lit_i(1);
        let cb = o.eq_i(bi, two);
        o.if_(cb, |o| {
            let ct = o.eq_i(ti, one);
            o.if_(ct, |o| {
                let i = o.lit_i(99);
                let v = o.lit_f(1.0);
                o.st_gf(b, i, v);
            });
        });
    }
}

/// Satellite (b): every faulting kernel must yield the same error kind and
/// the same block/thread coordinates from the compiled engine, the
/// reference tree-walking engine (at 1 and 3 interpreter workers each),
/// and — where the scalar kir evaluator can express the launch — the same
/// coordinates as a plain per-thread evaluation in linear order.
mod parity {
    use super::*;
    use alpaka_kir::eval::{eval_thread_fuel, EvalInputs, EvalMem, SpecialValues};
    use alpaka_kir::{optimize, trace_kernel, Program};
    use alpaka_sim::{
        run_kernel_launch_faulty, DeviceMem, DeviceSpec, Engine, ExecMode, SimArgs, SimError,
    };

    fn program_of<K: Kernel>(k: &K) -> Program {
        let mut p = trace_kernel(k, 1);
        optimize(&mut p);
        p
    }

    /// Run through the SIMT simulator and return the launch error.
    fn sim_fault(
        p: &Program,
        wd: &WorkDiv,
        buf_lens: &[usize],
        engine: Engine,
        threads: usize,
    ) -> SimError {
        let mut mem = DeviceMem::new();
        let bufs_f = buf_lens.iter().map(|&n| mem.alloc_f(n)).collect();
        let args = SimArgs {
            bufs_f,
            bufs_i: vec![],
            params_f: vec![],
            params_i: vec![],
        };
        run_kernel_launch_faulty(
            &DeviceSpec::k20(),
            &mut mem,
            p,
            wd,
            &args,
            ExecMode::Full,
            threads,
            engine,
            None,
        )
        .expect_err("kernel was expected to fault")
    }

    /// Run the scalar kir evaluator for every (block, thread) of a 1-D
    /// launch in linear order; the coordinates of the first error are the
    /// semantic ground truth the SIMT engines must attribute faults to.
    fn eval_fault(p: &Program, wd: &WorkDiv, buf_lens: &[usize]) -> Option<([i64; 3], [i64; 3])> {
        let mut mem = EvalMem {
            bufs_f: buf_lens.iter().map(|&n| vec![0.0; n]).collect(),
            bufs_i: vec![],
        };
        for b in 0..wd.blocks[2] as i64 {
            for t in 0..wd.threads[2] as i64 {
                let sp = SpecialValues {
                    grid_blocks: [1, 1, wd.blocks[2] as i64],
                    block_threads: [1, 1, wd.threads[2] as i64],
                    thread_elems: [1, 1, wd.elems[2] as i64],
                    block_idx: [0, 0, b],
                    thread_idx: [0, 0, t],
                };
                let inp = EvalInputs {
                    params_f: &[],
                    params_i: &[],
                    special: sp,
                };
                if eval_thread_fuel(p, &inp, &mut mem, 10_000_000).is_err() {
                    return Some(([0, 0, b], [0, 0, t]));
                }
            }
        }
        None
    }

    /// Assert every engine/thread-count combination reports the identical
    /// structured error, anchored at the given coordinates.
    fn assert_parity<K: Kernel>(
        k: &K,
        wd: &WorkDiv,
        buf_lens: &[usize],
        want_block: [i64; 3],
        want_thread: [i64; 3],
    ) {
        let p = program_of(k);
        let base = sim_fault(&p, wd, buf_lens, Engine::Reference, 1);
        assert_eq!(base.block, Some(want_block), "{}: {base:?}", p.name);
        assert_eq!(base.thread, Some(want_thread), "{}: {base:?}", p.name);
        for engine in [Engine::Reference, Engine::Compiled] {
            for threads in [1usize, 3] {
                let e = sim_fault(&p, wd, buf_lens, engine, threads);
                assert_eq!(
                    (e.kind, &e.block, &e.thread, &e.msg),
                    (base.kind, &base.block, &base.thread, &base.msg),
                    "{}: {engine:?} x{threads} diverges from reference",
                    p.name
                );
            }
        }
        // The scalar evaluator, run thread-by-thread in linear order, must
        // fault at the same coordinates (messages differ by design).
        let (eb, et) = eval_fault(&p, wd, buf_lens).expect("eval should fault too");
        assert_eq!((eb, et), (want_block, want_thread), "{}", p.name);
    }

    #[test]
    fn oob_store_parity() {
        assert_parity(
            &OobStore { idx: 99 },
            &WorkDiv::d1(1, 1, 1),
            &[8],
            [0, 0, 0],
            [0, 0, 0],
        );
    }

    #[test]
    fn negative_index_parity() {
        assert_parity(
            &OobStore { idx: -1 },
            &WorkDiv::d1(1, 1, 1),
            &[8],
            [0, 0, 0],
            [0, 0, 0],
        );
    }

    #[test]
    fn per_lane_attribution_parity() {
        // Only block x=2, thread x=1 faults; every engine must name
        // exactly that lane, in canonical [z, y, x] order.
        assert_parity(
            &FaultAtThread,
            &WorkDiv::d1(4, 2, 1),
            &[8],
            [0, 0, 2],
            [0, 0, 1],
        );
    }

    #[test]
    fn unbound_param_parity() {
        #[derive(Clone)]
        struct NeedsParam;
        impl Kernel for NeedsParam {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let p = o.param_f(3);
                let i = o.lit_i(0);
                o.st_gf(b, i, p);
            }
        }
        assert_parity(
            &NeedsParam,
            &WorkDiv::d1(1, 1, 1),
            &[4],
            [0, 0, 0],
            [0, 0, 0],
        );
    }

    #[test]
    fn unbound_buffer_parity() {
        #[derive(Clone)]
        struct UsesSlot1;
        impl Kernel for UsesSlot1 {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b0 = o.buf_f(0);
                let b1 = o.buf_f(1);
                let i = o.lit_i(0);
                let v = o.ld_gf(b1, i);
                o.st_gf(b0, i, v);
            }
        }
        assert_parity(
            &UsesSlot1,
            &WorkDiv::d1(1, 1, 1),
            &[4],
            [0, 0, 0],
            [0, 0, 0],
        );
    }

    #[test]
    fn shared_oob_parity() {
        #[derive(Clone)]
        struct SharedOob;
        impl Kernel for SharedOob {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let sh = o.shared_f(8);
                let i = o.lit_i(64);
                let v = o.lit_f(1.0);
                o.st_sf(sh, i, v);
            }
        }
        // Every lane faults; attribution goes to the first lane in lane
        // order, which is also the first (block, thread) the linear
        // evaluator visits.
        assert_parity(&SharedOob, &WorkDiv::d1(1, 2, 1), &[], [0, 0, 0], [0, 0, 0]);
    }
}

/// A do-some-work kernel for injection tests: y[i] = 2*x[i].
#[derive(Clone)]
struct Doubler;
impl Kernel for Doubler {
    fn name(&self) -> &str {
        "doubler"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let n = o.param_i(0);
        let i = o.global_thread_idx(0);
        let c = o.lt_i(i, n);
        o.if_(c, |o| {
            let v = o.ld_gf(x, i);
            let two = o.lit_f(2.0);
            let r = o.mul_f(v, two);
            o.st_gf(y, i, r);
        });
    }
}

fn doubler_args(dev: &Device, n: usize) -> (alpaka::BufferF, alpaka::BufferF, Args) {
    let x = dev.alloc_f64(BufLayout::d1(n));
    let y = dev.alloc_f64(BufLayout::d1(n));
    x.upload(&(0..n).map(|i| i as f64).collect::<Vec<_>>())
        .unwrap();
    let args = Args::new().buf_f(&x).buf_f(&y).scalar_i(n as i64);
    (x, y, args)
}

#[test]
fn injected_ecc_fault_is_deterministic_across_worker_counts() {
    // With rate 1.0 every global load trips; the chosen victim lane must
    // not depend on how many interpreter workers raced to it.
    let plan = FaultPlan::quiet(7).with_ecc_rate(1.0);
    let mut seen = Vec::new();
    for workers in [1usize, 4] {
        let dev = Device::with_workers(AccKind::sim_k20(), workers).with_faults(plan.clone());
        let n = 256;
        let (_x, _y, args) = doubler_args(&dev, n);
        let wd = WorkDiv::d1(4, 64, 1);
        let err = dev.launch(&Doubler, &wd, &args).unwrap_err();
        match &err {
            Error::KernelFault(info) => {
                assert!(info.transient, "injected ECC must be transient: {err}");
                assert!(info.block.is_some() && info.thread.is_some(), "{err}");
            }
            other => panic!("want KernelFault, got {other}"),
        }
        assert!(err.is_transient());
        assert!(!err.is_sticky());
        seen.push(err.to_string());
    }
    assert_eq!(seen[0], seen[1], "ECC victim depends on worker count");
}

#[test]
fn ecc_rate_zero_is_fault_free() {
    let plan = FaultPlan::quiet(7).with_ecc_rate(0.0);
    let dev = Device::new(AccKind::sim_k20()).with_faults(plan);
    let n = 64;
    let (_x, y, args) = doubler_args(&dev, n);
    let wd = dev.suggest_workdiv_1d(n);
    dev.launch(&Doubler, &wd, &args).unwrap();
    assert_eq!(y.download()[5], 10.0);
}

#[test]
fn watchdog_timeout_is_a_transient_timeout() {
    #[derive(Clone)]
    struct Spin;
    impl Kernel for Spin {
        fn name(&self) -> &str {
            "spin"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let zero = o.lit_i(0);
            let n = o.lit_i(1_000_000);
            let acc0 = o.lit_f(0.0);
            let acc = o.fold_range_f(zero, n, acc0, |o, _j, acc| {
                let one = o.lit_f(1.0);
                o.add_f(acc, one)
            });
            let i0 = o.lit_i(0);
            o.st_gf(b, i0, acc);
        }
    }
    let plan = FaultPlan::quiet(1).with_watchdog_fuel(10_000);
    let dev = Device::new(AccKind::sim_k20()).with_faults(plan);
    let buf = dev.alloc_f64(BufLayout::d1(4));
    let err = dev
        .launch(&Spin, &WorkDiv::d1(1, 1, 1), &Args::new().buf_f(&buf))
        .unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    assert!(err.is_transient());
    // The device survives a watchdog kill: a cheap kernel still runs.
    let (_x, y, args) = doubler_args(&dev, 8);
    dev.launch(&Doubler, &dev.suggest_workdiv_1d(8), &args)
        .unwrap();
    assert_eq!(y.download()[3], 6.0);
}

#[test]
fn injected_device_loss_poisons_the_device() {
    let plan = FaultPlan::quiet(3).with_lost_at_launch(1);
    let dev = Device::new(AccKind::sim_k20()).with_faults(plan);
    let n = 16;
    let (_x, y, args) = doubler_args(&dev, n);
    let wd = dev.suggest_workdiv_1d(n);
    // Launch ordinal 0 is fine.
    dev.launch(&Doubler, &wd, &args).unwrap();
    assert_eq!(y.download()[1], 2.0);
    // Launch ordinal 1 drops the device off the bus.
    let err = dev.launch(&Doubler, &wd, &args).unwrap_err();
    assert!(matches!(err, Error::DeviceLost(_)), "{err}");
    assert!(err.is_sticky());
    assert!(dev.is_lost());
    // Everything after that fails sticky: launches and allocations alike.
    let err2 = dev.launch(&Doubler, &wd, &args).unwrap_err();
    assert!(matches!(err2, Error::DeviceLost(_)), "{err2}");
    let err3 = dev.try_alloc_f64(BufLayout::d1(4)).map(|_| ()).unwrap_err();
    assert!(matches!(err3, Error::DeviceLost(_)), "{err3}");
}

#[test]
fn injected_oom_hits_exact_allocation_ordinal() {
    let plan = FaultPlan::quiet(5).with_oom_at(1);
    let dev = Device::new(AccKind::sim_k20()).with_faults(plan);
    let a = dev.try_alloc_f64(BufLayout::d1(8)).expect("ordinal 0");
    let err = dev.try_alloc_f64(BufLayout::d1(8)).map(|_| ()).unwrap_err(); // ordinal 1
    assert!(matches!(err, Error::Device(_)), "{err}");
    assert!(!err.is_sticky(), "OOM must not poison the device");
    let b = dev.try_alloc_f64(BufLayout::d1(8)).expect("ordinal 2");
    drop((a, b));
    assert!(!dev.is_lost());
}

#[test]
fn fault_plan_env_syntax_round_trips() {
    let plan =
        FaultPlan::parse("seed=42,ecc=0.25,oom_at=3,watchdog=1000,lost_at=2,worker_death_at=7")
            .expect("parse");
    assert_eq!(
        plan,
        FaultPlan::quiet(42)
            .with_ecc_rate(0.25)
            .with_oom_at(3)
            .with_watchdog_fuel(1000)
            .with_lost_at_launch(2)
            .with_worker_death_at(7)
    );
    // Unset / empty means no plan; malformed fields are ignored rather
    // than fatal (a typo in an env var must not take down the host).
    assert!(FaultPlan::parse("").is_none());
    assert_eq!(
        FaultPlan::parse("seed=not_a_number,bogus=1"),
        Some(FaultPlan::quiet(0))
    );
}

#[test]
fn facade_fault_coordinates_survive_the_error_mapping() {
    // The lane coordinates established by the parity tests must reach the
    // host API unchanged through the accsim Error conversion.
    let dev = Device::new(AccKind::sim_k20());
    let buf = dev.alloc_f64(BufLayout::d1(8));
    let err = dev
        .launch(
            &FaultAtThread,
            &WorkDiv::d1(4, 2, 1),
            &Args::new().buf_f(&buf),
        )
        .unwrap_err();
    match err {
        Error::KernelFault(info) => {
            assert_eq!(info.block, Some([0, 0, 2]), "{}", info.msg);
            assert_eq!(info.thread, Some([0, 0, 1]), "{}", info.msg);
            assert!(!info.transient, "a kernel bug is not transient");
        }
        other => panic!("want KernelFault, got {other}"),
    }
}

#[test]
fn device_keeps_working_after_a_fault() {
    // A fault must not poison the device.
    #[derive(Clone)]
    struct Fine;
    impl Kernel for Fine {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let i = o.lit_i(0);
            let v = o.lit_f(7.0);
            o.st_gf(b, i, v);
        }
    }
    for kind in all_kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let _ = dev.launch(
            &OobStore { idx: 50 },
            &WorkDiv::d1(1, 1, 1),
            &Args::new().buf_f(&buf),
        );
        dev.launch(&Fine, &WorkDiv::d1(1, 1, 1), &Args::new().buf_f(&buf))
            .unwrap_or_else(|e| panic!("{kind:?} poisoned: {e}"));
        assert_eq!(buf.download()[0], 7.0, "{kind:?}");
    }
}
