//! The device-memory lifetime contract: a simulated buffer lives exactly as
//! long as some handle to it does. The last handle to drop frees the slot's
//! storage, so loops that allocate per step, pools that allocate per shard
//! and retry loops that allocate per attempt hold live device bytes flat.
//! Freeing changes nothing else: slot ids are recycled but virtual addresses
//! are not (launch statistics do not depend on what was freed before), and
//! the fault plan's allocation ordinals count calls, not live slots.
//!
//! Every device here clears the ambient `ALPAKA_SIM_FAULTS` plan or installs
//! its own, so the suite is immune to the CI smoke seed.

use alpaka::{
    launch_resilient, AccKind, Args, BufLayout, BufferF, Device, DevicePool, Engine, Error,
    FallbackChain, FaultPlan, LaunchMode, LaunchSpec, Queue, QueueBehavior, RetryPolicy, WorkDiv,
    WorkDivSpec,
};
use alpaka_kernels::DaxpyKernel;

const ENGINES: [Engine; 2] = [Engine::Reference, Engine::Compiled];

fn k20() -> Device {
    let dev = Device::new(AccKind::sim_k20());
    dev.clear_faults();
    dev
}

fn ramp(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 11 + seed * 7 + 2) % 23) as f64 * 0.5 - 5.0)
        .collect()
}

fn daxpy_want(x: &[f64], y: &[f64], alpha: f64) -> Vec<f64> {
    x.iter().zip(y).map(|(x, y)| x.mul_add(alpha, *y)).collect()
}

fn daxpy_args(x: &BufferF, y: &BufferF, alpha: f64) -> Args {
    let n = x.layout().dense_len() as i64;
    Args::new().buf_f(x).buf_f(y).scalar_f(alpha).scalar_i(n)
}

/// An 8-block DAXPY launch spec whose inputs differ per `seed`.
fn daxpy_spec(seed: usize) -> LaunchSpec<DaxpyKernel> {
    let n = 512;
    LaunchSpec::new(DaxpyKernel, WorkDivSpec::Fixed(WorkDiv::d1(8, 64, 1)))
        .arg_f(BufLayout::d1(n), ramp(n, seed))
        .arg_f(BufLayout::d1(n), ramp(n, seed + 1))
        .scalar_f(1.5)
        .scalar_i(n as i64)
}

#[test]
fn ten_thousand_alloc_launch_drop_cycles_hold_live_bytes_flat() {
    let dev = k20();
    let _resident = dev.alloc_f64(BufLayout::d1(100));
    let before = dev.allocated_bytes();
    assert_eq!(before, 800);
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let (n, wd) = (32, WorkDiv::d1(1, 32, 1));
    let (xs, ys) = (ramp(n, 0), ramp(n, 1));
    let want = daxpy_want(&xs, &ys, 2.0);
    for it in 0..10_000 {
        let x = dev.alloc_f64(BufLayout::d1(n));
        let y = dev.alloc_f64(BufLayout::d1(n));
        x.upload(&xs).unwrap();
        y.upload(&ys).unwrap();
        q.enqueue_kernel(&DaxpyKernel, &wd, &daxpy_args(&x, &y, 2.0))
            .unwrap();
        q.wait().unwrap();
        assert_eq!(dev.allocated_bytes(), before + 2 * 8 * n, "iteration {it}");
        assert_eq!(y.download(), want, "iteration {it}");
        drop((x, y));
        assert_eq!(dev.allocated_bytes(), before, "iteration {it}");
    }
}

#[test]
fn one_pool_across_200_launches_frees_every_shard_and_matches_fresh_pools() {
    let mut pool = DevicePool::new_sim(AccKind::sim_k20(), 2).unwrap();
    pool.clear_faults();
    for launch in 0..200 {
        let spec = daxpy_spec(launch);
        let clock_t0 = pool.clock_s();
        let got = pool.launch(&spec, 8).unwrap();
        for (m, dev) in pool.devices().iter().enumerate() {
            assert_eq!(dev.allocated_bytes(), 0, "member {m} after launch {launch}");
        }
        let mut fresh = DevicePool::new_sim(AccKind::sim_k20(), 2).unwrap();
        fresh.clear_faults();
        let want = fresh.launch(&spec, 8).unwrap();
        let bits = |b: &[Vec<f64>]| -> Vec<Vec<u64>> {
            b.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&got.bufs_f), bits(&want.bufs_f), "launch {launch}");
        assert_eq!(got.stats, want.stats, "launch {launch}");
        assert_eq!(got.shards, want.shards, "launch {launch}");
        // `serial_s` is a difference of the pool's cumulative clock, so on a
        // pool with history it is the fresh pool's shard times summed onto
        // that clock: bit-identical to the fresh value only on launch 0.
        let clock = want.shards.iter().fold(clock_t0, |c, s| c + s.time_s);
        assert_eq!(got.serial_s.to_bits(), (clock - clock_t0).to_bits());
        if launch == 0 {
            assert_eq!(got.serial_s.to_bits(), want.serial_s.to_bits());
        }
        let want_y = daxpy_want(&spec.bufs_f[0].1, &spec.bufs_f[1].1, 1.5);
        assert_eq!(got.bufs_f[1], want_y, "launch {launch}");
    }
}

/// Simulated queues run a launch when it is enqueued; the `Args` bound into
/// it are what holds its buffers. A CPU queue really defers the launch to a
/// worker, which holds its own clones until the launch is done.
#[test]
fn a_buffer_bound_into_a_launch_outlives_its_dropped_handle() {
    for kind in [AccKind::sim_k20(), AccKind::CpuBlocks] {
        let dev = Device::new(kind.clone());
        dev.clear_faults();
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let n = 256;
        let (x, y) = (
            dev.alloc_f64(BufLayout::d1(n)),
            dev.alloc_f64(BufLayout::d1(n)),
        );
        x.upload(&ramp(n, 3)).unwrap();
        y.upload(&ramp(n, 4)).unwrap();
        let args = daxpy_args(&x, &y, -0.5);
        let held = dev.allocated_bytes();
        drop(x);
        assert_eq!(dev.allocated_bytes(), held, "{kind:?}: x is still bound");
        q.enqueue_kernel(&DaxpyKernel, &dev.suggest_workdiv_1d(n), &args)
            .unwrap();
        drop(args);
        q.wait().unwrap();
        let want = daxpy_want(&ramp(n, 3), &ramp(n, 4), -0.5);
        assert_eq!(y.download(), want, "{kind:?}");
        let y_bytes = if dev.is_simulated() { 8 * n } else { 0 };
        assert_eq!(dev.allocated_bytes(), y_bytes, "{kind:?}: x is freed");
        drop(y);
        assert_eq!(dev.allocated_bytes(), 0, "{kind:?}");
    }
}

#[test]
fn launch_statistics_do_not_depend_on_freed_buffers() {
    let run = |keep: bool| {
        let dev = k20();
        let earlier: Vec<BufferF> = (0..100)
            .map(|k| dev.alloc_f64(BufLayout::d1(1 + 37 * k)))
            .collect();
        if !keep {
            drop(earlier);
            assert_eq!(dev.allocated_bytes(), 0);
        }
        let n = 4096;
        let (x, y) = (
            dev.alloc_f64(BufLayout::d1(n)),
            dev.alloc_f64(BufLayout::d1(n)),
        );
        x.upload(&ramp(n, 5)).unwrap();
        y.upload(&ramp(n, 6)).unwrap();
        let wd = WorkDiv::d1(n / 128, 128, 1);
        let run = alpaka::time_launch(
            &dev,
            &DaxpyKernel,
            &wd,
            &daxpy_args(&x, &y, 3.0),
            LaunchMode::Exact,
        )
        .unwrap();
        let report = run.report.unwrap();
        (report.stats, report.time, y.download())
    };
    let (kept, freed) = (run(true), run(false));
    assert!(kept.0.mem_transactions > 0);
    assert_eq!(kept, freed);
}

#[test]
fn oom_ordinals_count_calls_not_live_buffers() {
    for k in [0u64, 1, 5, 17] {
        let dev = Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(1).with_oom_at(k));
        for call in 0..k + 3 {
            // Infallible allocations take no ordinal; frees give none back.
            drop(dev.alloc_f64(BufLayout::d1(8)));
            match dev.try_alloc_f64(BufLayout::d1(64)) {
                Ok(_) => assert_ne!(call, k, "call {call} should hit the injected OOM"),
                Err(Error::Device(m)) => {
                    assert_eq!(call, k, "{m}");
                    assert!(m.contains(&format!("ordinal {k}")), "{m}");
                }
                Err(e) => panic!("call {call}: {e}"),
            }
            assert_eq!(dev.allocated_bytes(), 0);
        }
    }
}

#[test]
fn launch_resilient_releases_every_attempt() {
    // Ordinal 3 is the second buffer of launch 1's first attempt: that
    // attempt fails holding a live buffer, and the retry succeeds.
    let dev = Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(2).with_oom_at(3));
    let chain = FallbackChain::new(dev.clone());
    for launch in 0..100 {
        let spec = daxpy_spec(launch);
        let out = launch_resilient(&chain, &RetryPolicy::default(), &spec).unwrap();
        assert_eq!(out.attempts, if launch == 1 { 2 } else { 1 });
        assert_eq!(dev.allocated_bytes(), 0, "launch {launch}");
        let want = daxpy_want(&spec.bufs_f[0].1, &spec.bufs_f[1].1, 1.5);
        assert_eq!(out.bufs_f[1], want, "launch {launch}");
    }
}

#[test]
fn native_devices_report_no_device_bytes() {
    let dev = Device::new(AccKind::CpuSerial);
    let _b = dev.alloc_f64(BufLayout::d1(1024));
    assert_eq!(dev.allocated_bytes(), 0);
}

/// A raw `SimBufF` into a freed slot is the one stale handle that can
/// exist. Binding it is `BadBuffer` on both engines, on the lowered and the
/// fused tier, serial and parallel — never a panic, a kernel fault, or
/// another buffer's data.
#[test]
fn a_launch_naming_a_freed_slot_is_bad_buffer() {
    use alpaka_kir::{optimize, trace_kernel};
    use alpaka_sim::{
        run_kernel_launch_engine, DeviceMem, DeviceSpec, ExecMode, SimArgs, SimErrorKind,
    };
    let mut prog = trace_kernel(&DaxpyKernel, 1);
    optimize(&mut prog);
    let n = 256;
    for wd in [WorkDiv::d1(4, 64, 1), WorkDiv::d1(32, 1, 8)] {
        for engine in ENGINES {
            for threads in [1, 4] {
                let mut mem = DeviceMem::new();
                let (x, y) = (mem.alloc_f(n), mem.alloc_f(n));
                mem.free_f(x).unwrap();
                let args = SimArgs {
                    bufs_f: vec![x, y],
                    params_f: vec![2.0],
                    params_i: vec![n as i64],
                    ..SimArgs::default()
                };
                let spec = DeviceSpec::k20();
                let e = run_kernel_launch_engine(
                    &spec,
                    &mut mem,
                    &prog,
                    &wd,
                    &args,
                    ExecMode::Full,
                    threads,
                    engine,
                )
                .unwrap_err();
                let at = format!("{wd:?} {engine:?} threads={threads}");
                assert_eq!(e.kind, SimErrorKind::BadBuffer, "{at}: {e}");
                assert!(e.msg.contains("handle 0 was freed"), "{at}: {e}");
                assert_eq!(mem.f(y), vec![0.0; n], "{at}: y must be untouched");
            }
        }
    }
}
