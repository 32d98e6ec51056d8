//! Deterministic parallel atomics: reducible atomic programs must run the
//! parallel block path and stay *bit-identical* — buffers (float rounding
//! included), `LaunchStats` and `TimeBreakdown` — across both engines
//! and `ALPAKA_SIM_THREADS` ∈ {1, 2, 4, 8}, and identical to the serial
//! reference. Non-reducible programs (Exch, observed results, plainly
//! accessed targets, aliased bindings) must keep the serial fallback and
//! record why on `SimReport::fallback`.
//!
//! NOTE: kernels are defined locally because `alpaka-kernels` sits above
//! this crate in the dependency graph.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_core::workdiv::WorkDiv;
use alpaka_kir::{atomics_summary, optimize, trace_kernel, AtomicsSummary};
use alpaka_sim::{
    run_kernel_launch_engine, DeviceMem, DeviceSpec, Engine, ExecMode, FallbackReason, SimArgs,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// Guard-free integer histogram: extent exactly covers the data, the bin is
/// data-dependent, every sample is one `Add` atomic. Single-operator i64
/// target → the shadow-reduction strategy; the straight-line body is also
/// what the compiled tier fuses into an atomic superop loop.
struct HistExact;
impl Kernel for HistExact {
    fn name(&self) -> &str {
        "hist_exact"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let data = o.buf_i(0);
        let bins = o.buf_i(1);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let val = o.ld_gi(data, i);
            let bin = o.rem_i(val, nbins);
            let one = o.lit_i(1);
            o.atomic_add_gi(bins, bin, one);
        });
    }
}

/// Guard-free float scatter-add with colliding, data-independent bins:
/// `out[i % nbins] += x[i]`. Floats always take the ordered-log strategy,
/// so this pins the replay order (= serial application order) bit for bit.
struct ScatterAddF;
impl Kernel for ScatterAddF {
    fn name(&self) -> &str {
        "scatter_add_f"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let out = o.buf_f(1);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let xv = o.ld_gf(x, i);
            let bin = o.rem_i(i, nbins);
            let _ = o.atomic_add_gf(out, bin, xv);
        });
    }
}

/// Affine-index scatter-accumulate `out[i + offset] += src[i]` — the shape
/// whose index `add` the compiled tier folds into the atomic superop.
struct ScatterAffine;
impl Kernel for ScatterAffine {
    fn name(&self) -> &str {
        "scatter_affine"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let src = o.buf_f(0);
        let out = o.buf_f(1);
        let offset = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let xv = o.ld_gf(src, i);
            let j = o.add_i(i, offset);
            let _ = o.atomic_add_gf(out, j, xv);
        });
    }
}

/// Min/Max/And/Or/Xor each on its own i64 target — five single-operator
/// shadow reductions in one launch.
struct ReduceOpsKernel;
impl Kernel for ReduceOpsKernel {
    fn name(&self) -> &str {
        "reduce_ops"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let data = o.buf_i(0);
        let mins = o.buf_i(1);
        let maxs = o.buf_i(2);
        let ands = o.buf_i(3);
        let ors = o.buf_i(4);
        let xors = o.buf_i(5);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let val = o.ld_gi(data, i);
            let bin = o.rem_i(i, nbins);
            o.atomic_min_gi(mins, bin, val);
            o.atomic_max_gi(maxs, bin, val);
            o.atomic_and_gi(ands, bin, val);
            o.atomic_or_gi(ors, bin, val);
            o.atomic_xor_gi(xors, bin, val);
        });
    }
}

/// Add and Min on the *same* i64 target: a mixed-operator integer target,
/// which must take the ordered-log strategy (shadow folding is only exact
/// for a single operator) and still reduce bit-identically.
struct MixedOpsKernel;
impl Kernel for MixedOpsKernel {
    fn name(&self) -> &str {
        "mixed_ops"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let data = o.buf_i(0);
        let bins = o.buf_i(1);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let val = o.ld_gi(data, i);
            let bin = o.rem_i(i, nbins);
            o.atomic_add_gi(bins, bin, val);
            o.atomic_min_gi(bins, bin, val);
        });
    }
}

/// `Exch` is order-dependent — never reducible, must run serial.
struct ExchKernel;
impl Kernel for ExchKernel {
    fn name(&self) -> &str {
        "exch"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let data = o.buf_i(0);
        let slots = o.buf_i(1);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let val = o.ld_gi(data, i);
            let bin = o.rem_i(i, nbins);
            let _ = o.atomic_exch_gi(slots, bin, val);
        });
    }
}

/// The atomic's old value feeds a later store — results observed, must run
/// serial (deferral would return 0 instead of the old value).
struct ObservedKernel;
impl Kernel for ObservedKernel {
    fn name(&self) -> &str {
        "observed"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let bins = o.buf_i(0);
        let tickets = o.buf_i(1);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let bin = o.rem_i(i, nbins);
            let one = o.lit_i(1);
            let old = o.atomic_add_gi(bins, bin, one);
            o.st_gi(tickets, i, old);
        });
    }
}

/// The atomic target is also read with a plain load — privatization would
/// make that load miss earlier deferred updates, must run serial.
struct TargetReadKernel;
impl Kernel for TargetReadKernel {
    fn name(&self) -> &str {
        "target_read"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let bins = o.buf_i(0);
        let mirror = o.buf_i(1);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let bin = o.rem_i(i, nbins);
            let one = o.lit_i(1);
            o.atomic_add_gi(bins, bin, one);
            let seen = o.ld_gi(bins, bin);
            o.st_gi(mirror, bin, seen);
        });
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const NBINS: usize = 16;

fn int_data_setup(n: usize, extra_i: &[usize], extra_f: &[usize]) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let data = mem.alloc_i(n);
    for i in 0..n {
        mem.i_mut(data)[i] = ((i as u64).wrapping_mul(2654435761) % 1_000_003) as i64;
    }
    let mut bufs_i = vec![data];
    for &len in extra_i {
        bufs_i.push(mem.alloc_i(len));
    }
    let bufs_f = extra_f.iter().map(|&len| mem.alloc_f(len)).collect();
    let args = SimArgs {
        bufs_f,
        bufs_i,
        params_f: vec![],
        params_i: vec![NBINS as i64],
    };
    (mem, args)
}

fn float_scatter_setup(n: usize, out_len: usize, offset: i64) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let x = mem.alloc_f(n);
    let out = mem.alloc_f(out_len);
    for i in 0..n {
        // Mixed magnitudes so float addition is measurably non-associative:
        // any change in application order changes the result bits.
        mem.f_mut(x)[i] = if i % 3 == 0 {
            1e16 + i as f64
        } else {
            1.0 + i as f64 * 1e-3
        };
    }
    for i in 0..out_len {
        mem.f_mut(out)[i] = i as f64 * 0.125;
    }
    let args = SimArgs {
        bufs_f: vec![x, out],
        bufs_i: vec![],
        params_f: vec![],
        params_i: vec![if offset >= 0 { offset } else { NBINS as i64 }],
    };
    (mem, args)
}

fn buffer_bits(mem: &DeviceMem, args: &SimArgs) -> (Vec<Vec<u64>>, Vec<Vec<i64>>) {
    let f = args
        .bufs_f
        .iter()
        .map(|b| mem.f(*b).iter().map(|v| v.to_bits()).collect())
        .collect();
    let i = args.bufs_i.iter().map(|b| mem.i(*b).to_vec()).collect();
    (f, i)
}

/// Run `kernel` on every engine × thread-count cell and assert each cell is
/// bit-identical to the serial reference launch. When `expect_parallel`,
/// additionally assert the parallel cells actually engaged a worker team
/// (no silent serial fallback) and report `FallbackReason::None`.
fn assert_matrix<K: Kernel>(
    kernel: &K,
    wd: &WorkDiv,
    setup: impl Fn() -> (DeviceMem, SimArgs),
    expect_parallel: bool,
) {
    let spec = DeviceSpec::e5_2630v3(); // 8 SMs, per-SM caches
    let mut prog = trace_kernel(kernel, wd.dim);
    optimize(&mut prog);

    let (mut mem0, args0) = setup();
    let base = run_kernel_launch_engine(
        &spec,
        &mut mem0,
        &prog,
        wd,
        &args0,
        ExecMode::Full,
        1,
        Engine::Reference,
    )
    .unwrap();
    let (base_f, base_i) = buffer_bits(&mem0, &args0);

    for engine in [Engine::Reference, Engine::Compiled] {
        for threads in [1usize, 2, 4, 8] {
            let (mut mem, args) = setup();
            let rep = run_kernel_launch_engine(
                &spec,
                &mut mem,
                &prog,
                wd,
                &args,
                ExecMode::Full,
                threads,
                engine,
            )
            .unwrap();
            assert_eq!(
                base.stats, rep.stats,
                "LaunchStats diverged: {engine:?} @ {threads} threads"
            );
            assert_eq!(
                base.time, rep.time,
                "TimeBreakdown diverged: {engine:?} @ {threads} threads"
            );
            let (f, i) = buffer_bits(&mem, &args);
            assert_eq!(base_f, f, "f64 buffers diverged: {engine:?} @ {threads}");
            assert_eq!(base_i, i, "i64 buffers diverged: {engine:?} @ {threads}");
            if expect_parallel {
                assert_eq!(
                    rep.fallback,
                    FallbackReason::None,
                    "{engine:?} @ {threads} threads reported a fallback"
                );
                assert_eq!(
                    rep.host.workers, threads,
                    "{engine:?} @ {threads} threads did not engage the team"
                );
            }
        }
    }
}

/// Run at 4 threads and assert the launch fell back to one serial worker
/// with the atomics reason recorded.
fn assert_serial_fallback<K: Kernel>(
    kernel: &K,
    wd: &WorkDiv,
    setup: impl Fn() -> (DeviceMem, SimArgs),
) {
    let spec = DeviceSpec::e5_2630v3();
    let mut prog = trace_kernel(kernel, wd.dim);
    optimize(&mut prog);
    let (mut mem, args) = setup();
    let rep = run_kernel_launch_engine(
        &spec,
        &mut mem,
        &prog,
        wd,
        &args,
        ExecMode::Full,
        4,
        Engine::Compiled,
    )
    .unwrap();
    assert_eq!(rep.host.workers, 1, "non-reducible launch must run serial");
    assert_eq!(rep.fallback, FallbackReason::AtomicsNonReducible);
}

// ---------------------------------------------------------------------------
// Engine × thread matrices
// ---------------------------------------------------------------------------

#[test]
fn int_histogram_is_bit_identical_across_engines_and_threads() {
    // 32 blocks x 1 thread x 16 elements = 512, exact fit.
    let wd = WorkDiv::d1(32, 1, 16);
    assert_matrix(&HistExact, &wd, || int_data_setup(512, &[NBINS], &[]), true);
}

#[test]
fn float_scatter_add_is_bit_identical_across_engines_and_threads() {
    let wd = WorkDiv::d1(32, 1, 16);
    assert_matrix(
        &ScatterAddF,
        &wd,
        || float_scatter_setup(512, NBINS, -1),
        true,
    );
}

#[test]
fn affine_scatter_add_is_bit_identical_across_engines_and_threads() {
    let wd = WorkDiv::d1(32, 1, 16);
    assert_matrix(
        &ScatterAffine,
        &wd,
        || float_scatter_setup(512, 512 + 7, 7),
        true,
    );
}

#[test]
fn min_max_bitop_reductions_are_bit_identical_across_engines_and_threads() {
    let wd = WorkDiv::d1(16, 1, 16);
    assert_matrix(
        &ReduceOpsKernel,
        &wd,
        || int_data_setup(256, &[NBINS, NBINS, NBINS, NBINS, NBINS], &[]),
        true,
    );
}

#[test]
fn mixed_operator_target_takes_log_strategy_and_stays_bit_identical() {
    let wd = WorkDiv::d1(16, 1, 16);
    let mut prog = trace_kernel(&MixedOpsKernel, 1);
    optimize(&mut prog);
    // Sanity: the summary keeps the target reducible but drops its
    // single-operator classification (mixed Add/Min).
    match atomics_summary(&prog) {
        AtomicsSummary::Reducible(targets) => {
            assert_eq!(targets.len(), 1);
            assert_eq!(targets[0].single_op, None);
        }
        other => panic!("expected reducible summary, got {other:?}"),
    }
    assert_matrix(
        &MixedOpsKernel,
        &wd,
        || int_data_setup(256, &[NBINS], &[]),
        true,
    );
}

/// The float-Add rounding pin: with mixed-magnitude values the sum is
/// non-associative, so this only passes if the privatized path applies
/// every deferred add in the serial interpreter's exact order.
#[test]
fn float_add_rounding_matches_serial_exactly_under_privatization() {
    let spec = DeviceSpec::e5_2630v3();
    let wd = WorkDiv::d1(32, 1, 16);
    let mut prog = trace_kernel(&ScatterAddF, 1);
    optimize(&mut prog);

    let (mut mem_s, args_s) = float_scatter_setup(512, NBINS, -1);
    run_kernel_launch_engine(
        &spec,
        &mut mem_s,
        &prog,
        &wd,
        &args_s,
        ExecMode::Full,
        1,
        Engine::Reference,
    )
    .unwrap();
    let serial: Vec<u64> = mem_s
        .f(args_s.bufs_f[1])
        .iter()
        .map(|v| v.to_bits())
        .collect();

    for threads in [2usize, 4, 8] {
        let (mut mem_p, args_p) = float_scatter_setup(512, NBINS, -1);
        let rep = run_kernel_launch_engine(
            &spec,
            &mut mem_p,
            &prog,
            &wd,
            &args_p,
            ExecMode::Full,
            threads,
            Engine::Compiled,
        )
        .unwrap();
        assert_eq!(rep.host.workers, threads);
        let par: Vec<u64> = mem_p
            .f(args_p.bufs_f[1])
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            serial, par,
            "float-Add rounding diverged at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Non-reducible programs keep the serial fallback, with the reason recorded
// ---------------------------------------------------------------------------

#[test]
fn exch_kernel_falls_back_to_serial_with_reason() {
    let wd = WorkDiv::d1(16, 1, 16);
    assert_serial_fallback(&ExchKernel, &wd, || int_data_setup(256, &[NBINS], &[]));
}

#[test]
fn observed_result_falls_back_to_serial_with_reason() {
    let wd = WorkDiv::d1(16, 1, 16);
    assert_serial_fallback(&ObservedKernel, &wd, || {
        let mut mem = DeviceMem::new();
        let bins = mem.alloc_i(NBINS);
        let tickets = mem.alloc_i(256);
        let args = SimArgs {
            bufs_f: vec![],
            bufs_i: vec![bins, tickets],
            params_f: vec![],
            params_i: vec![NBINS as i64],
        };
        (mem, args)
    });
}

#[test]
fn plain_read_of_target_falls_back_to_serial_with_reason() {
    let wd = WorkDiv::d1(16, 1, 16);
    assert_serial_fallback(&TargetReadKernel, &wd, || {
        let mut mem = DeviceMem::new();
        let bins = mem.alloc_i(NBINS);
        let mirror = mem.alloc_i(NBINS);
        let args = SimArgs {
            bufs_f: vec![],
            bufs_i: vec![bins, mirror],
            params_f: vec![],
            params_i: vec![NBINS as i64],
        };
        (mem, args)
    });
}

/// Binding the same buffer handle to two argument slots makes the static
/// per-slot analysis unsound, so the launch-time plan must refuse and the
/// launch must run serial — even though the program is statically
/// reducible. (Results are still correct via the direct serial path.)
#[test]
fn aliased_target_binding_falls_back_to_serial() {
    let wd = WorkDiv::d1(16, 1, 16);
    assert_serial_fallback(&HistExact, &wd, || {
        let mut mem = DeviceMem::new();
        // Slot 0 (data) and slot 1 (bins) are the SAME allocation.
        let buf = mem.alloc_i(256);
        let args = SimArgs {
            bufs_f: vec![],
            bufs_i: vec![buf, buf],
            params_f: vec![],
            params_i: vec![NBINS as i64],
        };
        (mem, args)
    });
}

// ---------------------------------------------------------------------------
// Random reducible atomic programs
// ---------------------------------------------------------------------------

/// A kernel assembled from a random list of atomic updates over two i64
/// targets and one f64 target. Results are never observed and targets are
/// never plainly accessed, so every generated program is reducible by
/// construction (asserted in the proptest).
#[derive(Debug, Clone)]
struct RandomAtomics {
    ops: Vec<(u8, u8, i64)>,
}

impl Kernel for RandomAtomics {
    fn name(&self) -> &str {
        "random_atomics"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let data = o.buf_i(0);
        let t0 = o.buf_i(1);
        let t1 = o.buf_i(2);
        let tf = o.buf_f(0);
        let nbins = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let val = o.ld_gi(data, i);
            for &(sel, pat, k) in &self.ops {
                let idx = match pat % 3 {
                    0 => o.rem_i(i, nbins),
                    1 => {
                        let seven = o.lit_i(7);
                        let m = o.mul_i(i, seven);
                        o.rem_i(m, nbins)
                    }
                    _ => o.lit_i((pat as i64) % (NBINS as i64)),
                };
                let kk = o.lit_i(k);
                let arg = o.add_i(val, kk);
                match sel % 7 {
                    0 => {
                        o.atomic_add_gi(t0, idx, arg);
                    }
                    1 => {
                        o.atomic_min_gi(t0, idx, arg);
                    }
                    2 => {
                        o.atomic_max_gi(t1, idx, arg);
                    }
                    3 => {
                        o.atomic_and_gi(t1, idx, arg);
                    }
                    4 => {
                        o.atomic_or_gi(t0, idx, arg);
                    }
                    5 => {
                        o.atomic_xor_gi(t1, idx, arg);
                    }
                    _ => {
                        let fv = o.i2f(arg);
                        let _ = o.atomic_add_gf(tf, idx, fv);
                    }
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every randomly assembled reducible atomic program is bit-identical
    /// across engines × {1, 4} threads, and actually runs parallel.
    #[test]
    fn random_reducible_atomic_programs_are_deterministic(
        seeds in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        // Decode each seed into (op selector, index pattern, value bias).
        let ops: Vec<(u8, u8, i64)> = seeds
            .iter()
            .map(|s| {
                (
                    (s & 0xff) as u8,
                    ((s >> 8) & 0xff) as u8,
                    (((s >> 16) & 0x7f) as i64) - 64,
                )
            })
            .collect();
        let kernel = RandomAtomics { ops };
        let wd = WorkDiv::d1(8, 1, 8);
        let mut prog = trace_kernel(&kernel, 1);
        optimize(&mut prog);
        prop_assert!(
            matches!(atomics_summary(&prog), AtomicsSummary::Reducible(_)),
            "generated program must be reducible"
        );

        let setup = || int_data_setup(64, &[NBINS, NBINS], &[NBINS]);
        let spec = DeviceSpec::e5_2630v3();
        let (mut mem0, args0) = setup();
        let base = run_kernel_launch_engine(
            &spec, &mut mem0, &prog, &wd, &args0, ExecMode::Full, 1, Engine::Reference,
        ).unwrap();
        let base_bits = buffer_bits(&mem0, &args0);
        for engine in [Engine::Reference, Engine::Compiled] {
            for threads in [1usize, 4] {
                let (mut mem, args) = setup();
                let rep = run_kernel_launch_engine(
                    &spec, &mut mem, &prog, &wd, &args, ExecMode::Full, threads, engine,
                ).unwrap();
                prop_assert_eq!(&base.stats, &rep.stats);
                prop_assert_eq!(&base.time, &rep.time);
                prop_assert_eq!(&base_bits, &buffer_bits(&mem, &args));
                prop_assert_eq!(rep.fallback, FallbackReason::None);
                if threads > 1 {
                    prop_assert_eq!(rep.host.workers, threads);
                }
            }
        }
    }
}
