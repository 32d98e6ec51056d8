//! Compile once, launch many: `SimDevice::run`'s memo of compiled kernels is
//! invisible except in time, and program identity is bitwise.
//!
//! Every test takes the file's lock: several read deltas of the process-wide
//! lowering/compile counters on `SimReport`, which any launch moves.
//! `scripts/ci.sh` runs this file under `ALPAKA_SIM_THREADS` 1 and 4.

mod zoo;

use std::sync::{Mutex, MutexGuard};

use alpaka::{AccKind, Args, Device, Obs, WorkDiv};
use alpaka_accsim::{SimBufferF, SimBufferI, SimDevice, SimLaunchArgs};
use alpaka_core::buffer::{BufLayout, HostBuf};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_kernels::JacobiStep;
use alpaka_kir::{optimize, trace_kernel};
use alpaka_sim::{
    run_kernel_launch_threads, CacheCounters, DeviceMem, DeviceSpec, Engine, ExecMode, FaultPlan,
    SimArgs, SimReport,
};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const ENGINES: [Engine; 2] = [Engine::Compiled, Engine::Reference];

/// `b[i] = f(b[i], c)` over exactly the launched threads; `f` and the
/// literal `c` are the kernel's configuration, the name is always the same.
#[derive(Clone, Copy)]
struct Lit {
    c: f64,
    op: LitOp,
}

#[derive(Clone, Copy)]
enum LitOp {
    /// `1 / (b[i] * c)`: the sign of a zero `c` is the sign of the result.
    RecipOfProduct,
    Scale,
    Add,
}

impl Kernel for Lit {
    fn name(&self) -> &str {
        "lit"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let i = o.global_thread_idx(0);
        let x = o.ld_gf(b, i);
        let c = o.lit_f(self.c);
        let r = match self.op {
            LitOp::RecipOfProduct => {
                let p = o.mul_f(x, c);
                let one = o.lit_f(1.0);
                o.div_f(one, p)
            }
            LitOp::Scale => o.mul_f(x, c),
            LitOp::Add => o.add_f(x, c),
        };
        o.st_gf(b, i, r);
    }
}

fn scale(c: f64) -> Lit {
    Lit {
        c,
        op: LitOp::Scale,
    }
}

/// Run `k` over an 8-element buffer of ones on `dev` and return the buffer.
fn run_on_ones(dev: &SimDevice, k: &Lit) -> (Vec<f64>, SimReport) {
    let buf = dev.alloc_f64(BufLayout::d1(8));
    buf.write_from(&HostBuf::from_vec(vec![1.0; 8])).unwrap();
    let args = SimLaunchArgs::new().buf_f(&buf);
    let rep = dev
        .run(k, &WorkDiv::d1(2, 4, 1), &args, ExecMode::Full)
        .unwrap();
    (buf.to_dense(), rep)
}

fn k20(threads: usize, engine: Engine) -> SimDevice {
    SimDevice::with_threads(DeviceSpec::k20(), threads).with_engine(engine)
}

fn delta(after: CacheCounters, before: CacheCounters) -> (u64, u64) {
    (after.hits - before.hits, after.misses - before.misses)
}

/// The process-wide `(lowering, compile)` counters right now, read off a
/// reference-engine launch (which moves neither).
fn counters_now() -> (CacheCounters, CacheCounters) {
    let (_, rep) = run_on_ones(&k20(1, Engine::Reference), &scale(1.0));
    (rep.lowering_cache, rep.compile_cache)
}

/// The bug this pins: `Op` compared `ConstF` as `f64`, so the program cache
/// took `c = 0.0` and `c = -0.0` for one program and ran whichever came
/// first — `inf` both times, or `-inf` both times.
#[test]
fn the_sign_of_a_zero_literal_is_part_of_the_program() {
    let _g = serial();
    let recip = |c: f64| Lit {
        c,
        op: LitOp::RecipOfProduct,
    };
    for engine in ENGINES {
        for threads in [1, 4] {
            for order in [[0.0, -0.0], [-0.0, 0.0]] {
                let dev = k20(threads, engine);
                for c in order {
                    let (got, _) = run_on_ones(&dev, &recip(c));
                    let want = 1.0 / c;
                    assert!(
                        got.iter().all(|v| v.to_bits() == want.to_bits()),
                        "{engine:?} x{threads} {order:?}: c = {c:?} wrote {got:?}"
                    );
                }
            }
        }
    }
}

/// The mirror case: a NaN literal never equalled itself, so its program
/// re-lowered on every launch and pushed a duplicate cache entry each time.
#[test]
fn a_nan_literal_program_lowers_once() {
    let _g = serial();
    let k = Lit {
        c: f64::NAN,
        op: LitOp::Add,
    };
    // Through the device: one memo miss, one lowering miss, then hits.
    let dev = k20(1, Engine::Compiled);
    let (lower0, _) = counters_now();
    let (first, _) = run_on_ones(&dev, &k);
    let (_, rep) = run_on_ones(&dev, &k);
    assert!(first.iter().all(|v| v.is_nan()));
    assert_eq!(delta(rep.lowering_cache, lower0), (1, 1));
    assert_eq!(dev.memo_counters(), CacheCounters { hits: 1, misses: 1 });
    // Through a bare `&Program` and the process-wide cache.
    let mut prog = trace_kernel(&k, 1);
    optimize(&mut prog);
    prog.name = "lit_nan_bare".into();
    let mut mem = DeviceMem::new();
    let args = SimArgs {
        bufs_f: vec![mem.alloc_f(8)],
        ..SimArgs::default()
    };
    let wd = WorkDiv::d1(2, 4, 1);
    let spec = DeviceSpec::k20();
    let mut bare = || {
        run_kernel_launch_threads(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full, 1).unwrap()
    };
    let (_, last) = (bare(), bare());
    assert_eq!(delta(last.lowering_cache, rep.lowering_cache), (1, 1));
}

/// Device buffers holding one zoo case's inputs.
struct Bound {
    inputs: zoo::Inputs,
    bufs_f: Vec<SimBufferF>,
    bufs_i: Vec<SimBufferI>,
    args: SimLaunchArgs,
}

impl Bound {
    fn new(dev: &SimDevice, inputs: zoo::Inputs) -> Self {
        let mut args = SimLaunchArgs::new();
        let bufs_f: Vec<_> = inputs
            .bufs_f
            .iter()
            .map(|d| dev.alloc_f64(BufLayout::d1(d.len())))
            .collect();
        let bufs_i: Vec<_> = inputs
            .bufs_i
            .iter()
            .map(|d| dev.alloc_i64(BufLayout::d1(d.len())))
            .collect();
        for b in &bufs_f {
            args = args.buf_f(b);
        }
        for b in &bufs_i {
            args = args.buf_i(b);
        }
        args.scalars.f = inputs.scalars_f.clone();
        args.scalars.i = inputs.scalars_i.clone();
        Bound {
            inputs,
            bufs_f,
            bufs_i,
            args,
        }
    }

    /// (Re-)upload the inputs: the kernels update their buffers in place.
    fn reset(&self) {
        for (b, d) in self.bufs_f.iter().zip(&self.inputs.bufs_f) {
            b.write_from(&HostBuf::from_vec(d.clone())).unwrap();
        }
        for (b, d) in self.bufs_i.iter().zip(&self.inputs.bufs_i) {
            b.write_from(&HostBuf::from_vec(d.clone())).unwrap();
        }
    }

    /// Everything a launch leaves behind that must not depend on how the
    /// kernel was compiled: buffers (floats as bits) and the report's
    /// deterministic part, or the error.
    fn outcome(&self, r: alpaka::Result<SimReport>) -> String {
        let report = match r {
            Ok(rep) => format!(
                "{:?} {:?} sampled={} {:?}",
                rep.stats, rep.time, rep.sampled, rep.fallback
            ),
            Err(e) => format!("error: {e}"),
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let f: Vec<_> = self.bufs_f.iter().map(|b| bits(b.to_dense())).collect();
        let i: Vec<_> = self.bufs_i.iter().map(|b| b.to_dense()).collect();
        format!("{report} {f:?} {i:?}")
    }
}

struct MemoIsInvisible {
    launches: usize,
    failed: Vec<String>,
}

impl zoo::Visitor for MemoIsInvisible {
    fn case<K: Kernel>(
        &mut self,
        label: &str,
        nth: usize,
        k: &K,
        wd: WorkDiv,
        inputs: zoo::Inputs,
    ) {
        if nth >= 4 {
            return;
        }
        // One-thread blocks also run on a CPU model: per-SM caches, two
        // workers, and the fused tier under the compiled engine.
        let spec = if wd.threads_per_block() == 1 {
            DeviceSpec::e5_2630v3()
        } else {
            DeviceSpec::k20()
        };
        let blocks = wd.block_count();
        let modes = [
            ExecMode::Full,
            ExecMode::SampleBlocks(4),
            ExecMode::BlockRange {
                start: blocks / 4,
                end: blocks - blocks / 4,
            },
        ];
        for engine in ENGINES {
            let device = || SimDevice::with_threads(spec.clone(), 2).with_engine(engine);
            let memo = device();
            let memo_bound = Bound::new(&memo, inputs.clone());
            for mode in modes {
                // Compiled for this launch alone: a fresh device's memo is
                // empty.
                let fresh = device();
                let fresh_bound = Bound::new(&fresh, inputs.clone());
                fresh_bound.reset();
                let want = fresh_bound.outcome(fresh.run(k, &wd, &fresh_bound.args, mode));
                if want.starts_with("error") {
                    self.failed.push(format!("{label} {mode:?}"));
                }
                // Miss (on the first mode), then hits.
                for nth_run in 0..3 {
                    memo_bound.reset();
                    let got = memo_bound.outcome(memo.run(k, &wd, &memo_bound.args, mode));
                    assert_eq!(got, want, "{label} {engine:?} {mode:?} run {nth_run}");
                    self.launches += 1;
                }
            }
            assert_eq!(
                memo.memo_counters(),
                CacheCounters { hits: 8, misses: 1 },
                "{label} {engine:?}"
            );
        }
    }
}

#[test]
fn run_is_bit_identical_to_compile_and_launch_for_every_kernel() {
    let _g = serial();
    let mut check = MemoIsInvisible {
        launches: 0,
        failed: Vec::new(),
    };
    zoo::for_each_case(&mut check);
    assert!(check.launches >= 22 * 4 * 3 * 2 * 3, "{}", check.launches);
    // The 64 x 64 tile needs 64 KiB of shared memory, a K20 block has 48:
    // the one case whose launches are (identical) errors.
    assert!(
        check
            .failed
            .iter()
            .all(|l| l.starts_with("dgemm_tiled n64 t8 e8")),
        "{:?}",
        check.failed
    );
}

#[test]
fn one_name_two_bodies_and_one_body_two_workdivs_never_alias() {
    let _g = serial();
    let dev = k20(1, Engine::Compiled);
    // Same `name()`, different bodies: an entry each, the right one found.
    let add = Lit {
        c: 3.0,
        op: LitOp::Add,
    };
    for _ in 0..2 {
        assert_eq!(run_on_ones(&dev, &scale(3.0)).0, [3.0; 8]);
        assert_eq!(run_on_ones(&dev, &add).0, [4.0; 8]);
    }
    assert_eq!(dev.memo_counters(), CacheCounters { hits: 2, misses: 2 });
    // `Lit` reads no extent, so it traces to the same program at every work
    // division; the specialisation is part of the key all the same, so an
    // entry only ever runs at the extents it was specialised for.
    let buf = dev.alloc_f64(BufLayout::d1(8));
    buf.write_from(&HostBuf::from_vec(vec![1.0; 8])).unwrap();
    let args = SimLaunchArgs::new().buf_f(&buf);
    for wd in [
        WorkDiv::d1(1, 8, 1),
        WorkDiv::d1(8, 1, 1),
        WorkDiv::d1(1, 8, 1),
    ] {
        dev.run(&scale(3.0), &wd, &args, ExecMode::Full).unwrap();
    }
    assert_eq!(buf.to_dense(), [27.0; 8]);
    assert_eq!(dev.memo_counters(), CacheCounters { hits: 3, misses: 4 });
}

#[test]
fn the_memo_holds_32_kernels_and_evicts_the_least_recently_used() {
    let _g = serial();
    let dev = k20(1, Engine::Compiled);
    let run = |i: usize| run_on_ones(&dev, &scale(i as f64)).0[0];
    let counters = || {
        let c = dev.memo_counters();
        (c.hits, c.misses)
    };
    for i in 0..32 {
        assert_eq!(run(i), i as f64);
    }
    assert_eq!(counters(), (0, 32));
    // Touch kernel 0: kernel 1 is now the least recently used, and the 33rd
    // program evicts it, not kernel 0.
    run(0);
    assert_eq!(run(32), 32.0);
    assert_eq!(counters(), (1, 33));
    run(0);
    assert_eq!(counters(), (2, 33));
    assert_eq!(run(1), 1.0);
    assert_eq!(
        counters(),
        (2, 34),
        "an evicted kernel comes back as a miss"
    );
    // A clone shares the memo (whatever its engine); another device does not.
    let clone = dev.clone().with_engine(Engine::Reference);
    assert_eq!(run_on_ones(&clone, &scale(32.0)).0[0], 32.0);
    assert_eq!(counters(), (3, 34));
    let other = k20(1, Engine::Compiled);
    run_on_ones(&other, &scale(32.0));
    assert_eq!(other.memo_counters(), CacheCounters { hits: 0, misses: 1 });
    assert_eq!(counters(), (3, 34));
}

/// A fault plan counts launches and fault-aware allocations on the device;
/// whether a launch found its kernel in the memo changes neither.
#[test]
fn fault_plan_ordinals_do_not_see_the_memo() {
    let _g = serial();
    let plan = FaultPlan::quiet(9).with_lost_at_launch(3).with_oom_at(2);
    // What happens on a device, as text: each allocation and each launch.
    let story = |repeat: bool| {
        let dev = k20(1, Engine::Compiled).with_faults(plan.clone());
        let mut out = Vec::new();
        for i in 0..5 {
            let alloc = dev.try_alloc_f64(BufLayout::d1(8));
            out.push(format!("alloc {i}: {:?}", alloc.as_ref().err()));
            let Ok(buf) = alloc else { continue };
            let args = SimLaunchArgs::new().buf_f(&buf);
            // The same kernel every time (hits), or a new one (misses).
            let k = scale(if repeat { 2.0 } else { 2.0 + i as f64 });
            let r = dev.run(&k, &WorkDiv::d1(2, 4, 1), &args, ExecMode::Full);
            out.push(format!("launch {i}: {:?}", r.err().map(|e| e.to_string())));
        }
        (out, dev.launch_count(), dev.memo_counters())
    };
    let (hits, hit_launches, hit_memo) = story(true);
    let (misses, miss_launches, miss_memo) = story(false);
    assert_eq!(hits, misses);
    assert_eq!(hit_launches, miss_launches);
    assert!(hit_memo.hits > 0 && miss_memo.hits == 0);
    assert!(hits.iter().any(|l| l.contains("injected OOM")), "{hits:?}");
    assert!(hits.iter().any(|l| l.contains("device lost")), "{hits:?}");
}

/// The tier is chosen per launch, not per kernel: a held kernel whose blocks
/// have one thread runs fused untraced, lowered while tracing is on (the
/// profile is made of the lowered tier's replay), and fused again after.
#[test]
fn tracing_turned_on_after_a_hit_runs_the_lowered_tier() {
    let _g = serial();
    let obs = Obs::default();
    let dev = obs.scope(|| SimDevice::with_threads(DeviceSpec::e5_2630v3(), 1));
    let n = 512usize;
    let x = dev.alloc_f64(BufLayout::d1(n));
    let y = dev.alloc_f64(BufLayout::d1(n));
    x.write_from(&HostBuf::from_vec(vec![1.0; n])).unwrap();
    let args = SimLaunchArgs::new()
        .buf_f(&x)
        .buf_f(&y)
        .scalar_f(2.0)
        .scalar_i(n as i64);
    let wd = WorkDiv::d1(n / 64, 1, 64);
    let run = || {
        dev.run(&alpaka_kernels::DaxpyKernel, &wd, &args, ExecMode::Full)
            .unwrap()
    };
    let first = run();
    let hit = run();
    assert!(hit.profile.is_none());
    assert_eq!(delta(hit.compile_cache, first.compile_cache), (1, 0));
    obs.set_trace_enabled(true);
    let traced = run();
    obs.set_trace_enabled(false);
    assert!(traced.profile.is_some() && !traced.spans.is_empty());
    assert_eq!(delta(traced.compile_cache, hit.compile_cache), (0, 0));
    assert_eq!(delta(traced.lowering_cache, hit.lowering_cache), (1, 0));
    let after = run();
    assert_eq!(delta(after.compile_cache, traced.compile_cache), (1, 0));
    assert_eq!(format!("{:?}", after.stats), format!("{:?}", traced.stats));
    assert_eq!(y.to_dense(), vec![8.0; n]);
    assert_eq!(dev.memo_counters(), CacheCounters { hits: 3, misses: 1 });
}

/// The repeat-launch contract on the paper's own shape (§3.4.5, Listing 5):
/// heat2d's 200 Jacobi steps on a simulated K20, each launched through
/// `SimDevice::run` as every queued launch is, compile once and lower once.
#[test]
fn heat2d_compiles_once_for_200_enqueues() {
    let _g = serial();
    let (rows, cols, steps) = (96usize, 64usize, 200usize);
    let mut init = vec![0.0f64; rows * cols];
    init[(rows / 2) * cols..(rows / 2 + 1) * cols].fill(100.0);
    let layout = BufLayout::d2(rows, cols, 8);
    let pitch = layout.pitch as i64;
    let scalars = [rows as i64, cols as i64, pitch];

    // The same steps on the serial CPU back-end, through the facade.
    let cpu = Device::new(AccKind::CpuSerial);
    let (a, b) = (cpu.alloc_f64(layout), cpu.alloc_f64(layout));
    a.upload(&init).unwrap();
    let wd = JacobiStep::workdiv(rows, cols, 1, 4);
    for s in 0..steps {
        let (src, dst) = if s % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let mut args = Args::new().buf_f(src).buf_f(dst);
        for v in scalars {
            args = args.scalar_i(v);
        }
        cpu.launch(&JacobiStep, &wd, &args).unwrap();
    }
    let want = a.download();

    let dev = SimDevice::new(DeviceSpec::k20());
    let (a, b) = (dev.alloc_f64(layout), dev.alloc_f64(layout));
    a.write_dense(&init).unwrap();
    let wd = JacobiStep::workdiv(rows, cols, 4, 4);
    let (lower0, _) = counters_now();
    let mut last = None;
    for s in 0..steps {
        let (src, dst) = if s % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let mut args = SimLaunchArgs::new().buf_f(src).buf_f(dst);
        for v in scalars {
            args = args.scalar_i(v);
        }
        last = Some(dev.run(&JacobiStep, &wd, &args, ExecMode::Full).unwrap());
    }
    let last = last.unwrap();
    assert_eq!(
        dev.memo_counters(),
        CacheCounters {
            hits: 199,
            misses: 1
        }
    );
    assert_eq!(delta(last.lowering_cache, lower0), (199, 1));
    assert_eq!(a.to_dense(), want, "the final grid differs from cpu-serial");
}
