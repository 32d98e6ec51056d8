//! Parallel interpretation must be *bit-identical* to serial.
//!
//! The parallel block interpreter partitions SMs across workers, so every
//! per-SM access stream (and hence every cache hit/miss count) is the same
//! as in the serial schedule, and the u64 stat counters are merged in fixed
//! worker order. These tests pin that contract for the three workload
//! shapes named in the design: streaming (DAXPY), compute-bound with inner
//! loops (DGEMM) and global-atomics (histogram, which must take the serial
//! fallback and still be correct).
//!
//! NOTE: kernels are defined locally because `alpaka-kernels` sits above
//! this crate in the dependency graph.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_core::workdiv::WorkDiv;
use alpaka_kir::{optimize, trace_kernel, uniformity};
use alpaka_sim::{
    resolve_sim_threads, run_kernel_launch_engine, run_kernel_launch_threads, DeviceMem,
    DeviceSpec, Engine, ExecMode, SimArgs, SimReport,
};
use proptest::prelude::*;

struct Daxpy;
impl Kernel for Daxpy {
    fn name(&self) -> &str {
        "daxpy"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let a = o.param_f(0);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let xv = o.ld_gf(x, i);
                let yv = o.ld_gf(y, i);
                let r = o.fma_f(xv, a, yv);
                o.st_gf(y, i, r);
            });
        });
    }
}

/// Naive row-per-thread DGEMM: `C[r, c] += A[r, k] * B[k, c]`.
struct Dgemm;
impl Kernel for Dgemm {
    fn name(&self) -> &str {
        "dgemm"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let a = o.buf_f(0);
        let b = o.buf_f(1);
        let c = o.buf_f(2);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let nn = o.mul_i(n, n);
        o.for_elements(0, |o, e| {
            let idx = o.add_i(base, e);
            let in_range = o.lt_i(idx, nn);
            o.if_(in_range, |o| {
                let row = o.div_i(idx, n);
                let col = o.rem_i(idx, n);
                let zero = o.lit_i(0);
                let init = o.lit_f(0.0);
                let row_base = o.mul_i(row, n);
                let acc = o.fold_range_f(zero, n, init, |o, k, acc| {
                    let ai = o.add_i(row_base, k);
                    let bi = o.mul_i(k, n);
                    let bi = o.add_i(bi, col);
                    let av = o.ld_gf(a, ai);
                    let bv = o.ld_gf(b, bi);
                    o.fma_f(av, bv, acc)
                });
                let ci = o.add_i(row_base, col);
                let old = o.ld_gf(c, ci);
                let sum = o.add_f(old, acc);
                o.st_gf(c, ci, sum);
            });
        });
    }
}

/// Histogram with global integer atomics — many threads hit the same bin,
/// so the parallel path must refuse it and fall back to serial.
struct Histogram;
impl Kernel for Histogram {
    fn name(&self) -> &str {
        "histogram"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let data = o.buf_i(0);
        let bins = o.buf_i(1);
        let n = o.param_i(0);
        let nbins = o.param_i(1);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let val = o.ld_gi(data, i);
                let bin = o.rem_i(val, nbins);
                let one = o.lit_i(1);
                o.atomic_add_gi(bins, bin, one);
            });
        });
    }
}

/// Out-of-place matrix transpose: `B[c, r] = A[r, c]`, one element per
/// thread. Strided writes make the coalescing accounting non-trivial.
struct Transpose;
impl Kernel for Transpose {
    fn name(&self) -> &str {
        "transpose"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let a = o.buf_f(0);
        let b = o.buf_f(1);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let nn = o.mul_i(n, n);
        o.for_elements(0, |o, e| {
            let idx = o.add_i(base, e);
            let c = o.lt_i(idx, nn);
            o.if_(c, |o| {
                let row = o.div_i(idx, n);
                let col = o.rem_i(idx, n);
                let src = o.ld_gf(a, idx);
                let di = o.mul_i(col, n);
                let di = o.add_i(di, row);
                o.st_gf(b, di, src);
            });
        });
    }
}

/// Block-level inclusive Hillis–Steele scan over shared memory: exercises
/// shared arrays, barriers, a mutable loop variable and a uniform `while`
/// in one kernel. Each block scans its own 64-element tile of `x` into `y`.
struct Scan;
impl Kernel for Scan {
    fn name(&self) -> &str {
        "scan"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let s = o.shared_f(64);
        let tid = o.thread_idx(0);
        let bt = o.block_thread_extent(0);
        let bid = o.block_idx(0);
        let base = o.mul_i(bid, bt);
        let gi = o.add_i(base, tid);
        let xv = o.ld_gf(x, gi);
        o.st_sf(s, tid, xv);
        o.sync_block_threads();
        let one = o.lit_i(1);
        let offset = o.var_i(one);
        o.while_(
            |o| {
                let cur = o.vget_i(offset);
                o.lt_i(cur, bt)
            },
            |o| {
                let cur = o.vget_i(offset);
                // Clamped partner index keeps the guarded load in bounds;
                // the select discards it for lanes with tid < offset.
                let pi = o.sub_i(tid, cur);
                let zero = o.lit_i(0);
                let pi = o.max_i(pi, zero);
                let partner = o.ld_sf(s, pi);
                let take = o.ge_i(tid, cur);
                let zf = o.lit_f(0.0);
                let addend = o.select_f(take, partner, zf);
                o.sync_block_threads();
                let mine = o.ld_sf(s, tid);
                let next = o.add_f(mine, addend);
                o.sync_block_threads();
                o.st_sf(s, tid, next);
                o.sync_block_threads();
                let two = o.lit_i(2);
                let dbl = o.mul_i(cur, two);
                o.vset_i(offset, dbl);
            },
        );
        let sv = o.ld_sf(s, tid);
        o.st_gf(y, gi, sv);
    }
}

fn transpose_setup(n: usize) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let a = mem.alloc_f(n * n);
    let b = mem.alloc_f(n * n);
    for i in 0..n * n {
        mem.f_mut(a)[i] = (i as f64).cos() * 7.0 + i as f64 * 0.125;
    }
    let args = SimArgs {
        bufs_f: vec![a, b],
        bufs_i: vec![],
        params_f: vec![],
        params_i: vec![n as i64],
    };
    (mem, args)
}

fn scan_setup(blocks: usize) -> (DeviceMem, SimArgs) {
    let n = blocks * 64;
    let mut mem = DeviceMem::new();
    let x = mem.alloc_f(n);
    let y = mem.alloc_f(n);
    for i in 0..n {
        mem.f_mut(x)[i] = ((i * 13 + 5) % 17) as f64 * 0.75 - 4.0;
    }
    let args = SimArgs {
        bufs_f: vec![x, y],
        bufs_i: vec![],
        params_f: vec![],
        params_i: vec![],
    };
    (mem, args)
}

/// Run `kernel` twice from identical initial memory — serial and with
/// `threads` workers — and require bit-identical buffers, stats and times.
fn assert_bit_identical<K: Kernel>(
    kernel: &K,
    spec: &DeviceSpec,
    wd: &WorkDiv,
    setup: impl Fn() -> (DeviceMem, SimArgs),
    threads: usize,
    mode: ExecMode,
) -> (SimReport, SimReport, DeviceMem, DeviceMem) {
    let mut prog = trace_kernel(kernel, wd.dim);
    optimize(&mut prog);

    let (mut mem_s, args) = setup();
    let serial = run_kernel_launch_threads(spec, &mut mem_s, &prog, wd, &args, mode, 1).unwrap();

    let (mut mem_p, args_p) = setup();
    assert_eq!(args.bufs_f, args_p.bufs_f);
    let par =
        run_kernel_launch_threads(spec, &mut mem_p, &prog, wd, &args_p, mode, threads).unwrap();

    assert_eq!(
        serial.stats, par.stats,
        "LaunchStats diverged ({threads} threads)"
    );
    assert_eq!(
        serial.time, par.time,
        "TimeBreakdown diverged ({threads} threads)"
    );
    assert_eq!(serial.sampled, par.sampled);
    for (slot, b) in args.bufs_f.iter().enumerate() {
        let s: Vec<u64> = mem_s.f(*b).iter().map(|v| v.to_bits()).collect();
        let p: Vec<u64> = mem_p.f(*b).iter().map(|v| v.to_bits()).collect();
        assert_eq!(s, p, "f64 buffer slot {slot} diverged ({threads} threads)");
    }
    for (slot, b) in args.bufs_i.iter().enumerate() {
        assert_eq!(
            mem_s.i(*b),
            mem_p.i(*b),
            "i64 buffer slot {slot} diverged ({threads} threads)"
        );
    }
    (serial, par, mem_s, mem_p)
}

fn daxpy_setup(n: usize) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let x = mem.alloc_f(n);
    let y = mem.alloc_f(n);
    for i in 0..n {
        mem.f_mut(x)[i] = (i as f64).sin() * 1e3;
        mem.f_mut(y)[i] = 1.0 + i as f64 * 0.25;
    }
    let args = SimArgs {
        bufs_f: vec![x, y],
        bufs_i: vec![],
        params_f: vec![2.5],
        params_i: vec![n as i64],
    };
    (mem, args)
}

fn dgemm_setup(n: usize) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let a = mem.alloc_f(n * n);
    let b = mem.alloc_f(n * n);
    let c = mem.alloc_f(n * n);
    for i in 0..n * n {
        mem.f_mut(a)[i] = ((i * 7 + 3) % 13) as f64 * 0.5;
        mem.f_mut(b)[i] = ((i * 5 + 1) % 11) as f64 - 5.0;
    }
    let args = SimArgs {
        bufs_f: vec![a, b, c],
        bufs_i: vec![],
        params_f: vec![],
        params_i: vec![n as i64],
    };
    (mem, args)
}

fn histogram_setup(n: usize, nbins: usize) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let data = mem.alloc_i(n);
    let bins = mem.alloc_i(nbins);
    for i in 0..n {
        mem.i_mut(data)[i] = ((i * 2654435761) % 1_000_003) as i64;
    }
    let args = SimArgs {
        bufs_f: vec![],
        bufs_i: vec![data, bins],
        params_f: vec![],
        params_i: vec![n as i64, nbins as i64],
    };
    (mem, args)
}

#[test]
fn daxpy_parallel_matches_serial_bit_for_bit() {
    // e5-2630v3: 8 per-core caches -> up to 8 workers, each owning a
    // disjoint SM subset.
    let spec = DeviceSpec::e5_2630v3();
    let n = 4096;
    let wd = WorkDiv::d1(n / 64, 1, 64);
    for threads in [2, 3, 8] {
        let (_, par, mem, _) = assert_bit_identical(
            &Daxpy,
            &spec,
            &wd,
            || daxpy_setup(n),
            threads,
            ExecMode::Full,
        );
        // And the result is actually right, not just consistently wrong.
        let (_, args) = daxpy_setup(n);
        let y = args.bufs_f[1];
        for i in 0..n {
            // fma in the kernel -> fused rounding in the reference too.
            let want = ((i as f64).sin() * 1e3).mul_add(2.5, 1.0 + i as f64 * 0.25);
            assert_eq!(mem.f(y)[i], want, "i={i}");
        }
        assert!(par.host.workers >= 1);
    }
}

#[test]
fn daxpy_parallel_matches_serial_on_many_sm_device() {
    // Xeon Phi: 60 per-core caches, more SMs than workers.
    let spec = DeviceSpec::xeon_phi_5110p();
    let n = 16384;
    let wd = WorkDiv::d1(n / 32, 1, 32);
    assert_bit_identical(&Daxpy, &spec, &wd, || daxpy_setup(n), 7, ExecMode::Full);
}

#[test]
fn dgemm_parallel_matches_serial_bit_for_bit() {
    let spec = DeviceSpec::e5_2630v3();
    let n: usize = 48; // 2304 threads -> 36 blocks of 64
    let wd = WorkDiv::d1((n * n).div_ceil(64), 1, 64);
    let (_, _, mem, _) =
        assert_bit_identical(&Dgemm, &spec, &wd, || dgemm_setup(n), 4, ExecMode::Full);
    // Spot-check against a host-side reference.
    let (_, args) = dgemm_setup(n);
    let (a, b, c) = (args.bufs_f[0], args.bufs_f[1], args.bufs_f[2]);
    let (ha, hb) = {
        let (m, _) = dgemm_setup(n);
        (m.f(a).to_vec(), m.f(b).to_vec())
    };
    for &(r, col) in &[(0usize, 0usize), (7, 31), (n - 1, n - 1)] {
        let mut want = 0.0f64;
        for k in 0..n {
            want = ha[r * n + k].mul_add(hb[k * n + col], want);
        }
        assert_eq!(mem.f(c)[r * n + col], want, "C[{r},{col}]");
    }
}

#[test]
fn dgemm_sampled_mode_is_deterministic_too() {
    let spec = DeviceSpec::e5_2630v3();
    let n: usize = 64;
    let wd = WorkDiv::d1((n * n).div_ceil(64), 1, 64);
    assert_bit_identical(
        &Dgemm,
        &spec,
        &wd,
        || dgemm_setup(n),
        8,
        ExecMode::SampleBlocks(16),
    );
}

#[test]
fn histogram_atomics_run_parallel_and_stay_correct() {
    let spec = DeviceSpec::e5_2630v3();
    let n: usize = 10_000;
    let nbins = 32;
    let wd = WorkDiv::d1(n.div_ceil(64), 1, 64);

    let prog = {
        let mut p = trace_kernel(&Histogram, 1);
        optimize(&mut p);
        p
    };
    assert!(
        matches!(
            alpaka_kir::atomics_summary(&prog),
            alpaka_kir::AtomicsSummary::Reducible(_)
        ),
        "histogram must be detected as a reducible-atomics kernel"
    );

    let (_, par, mem, _) = assert_bit_identical(
        &Histogram,
        &spec,
        &wd,
        || histogram_setup(n, nbins),
        8,
        ExecMode::Full,
    );
    // The histogram's atomic adds are commutative-reducible, so the launch
    // parallelizes (deferred per-worker accumulation) instead of falling
    // back to one worker as it used to.
    assert_eq!(par.host.workers, 8);
    assert_eq!(par.fallback, alpaka_sim::FallbackReason::None);
    let (_, args) = histogram_setup(n, nbins);
    let bins = args.bufs_i[1];
    assert_eq!(mem.i(bins).iter().sum::<i64>(), n as i64);
    // Host-side reference histogram.
    let (ref_mem, _) = histogram_setup(n, nbins);
    let data = args.bufs_i[0];
    let mut want = vec![0i64; nbins];
    for &v in ref_mem.i(data) {
        want[(v % nbins as i64) as usize] += 1;
    }
    assert_eq!(mem.i(bins), &want[..]);
}

#[test]
fn shared_cache_gpu_spec_falls_back_to_serial() {
    // K20 models one device-wide L2: hit/miss counts depend on the global
    // interleaving, so the parallel path must decline.
    let spec = DeviceSpec::k20();
    let n = 2048;
    let wd = WorkDiv::d1(n / 128, 128, 1);
    let (_, par, _, _) =
        assert_bit_identical(&Daxpy, &spec, &wd, || daxpy_setup(n), 8, ExecMode::Full);
    assert_eq!(par.host.workers, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (n, elems-per-thread, team size) combination agrees with serial.
    #[test]
    fn daxpy_determinism_holds_for_arbitrary_shapes(
        n in 1usize..3000,
        elems in 1usize..96,
        threads in 2usize..9,
    ) {
        let spec = DeviceSpec::e5_2630v3();
        let blocks = n.div_ceil(elems).max(1);
        let wd = WorkDiv::d1(blocks, 1, elems);
        assert_bit_identical(&Daxpy, &spec, &wd, || daxpy_setup(n), threads, ExecMode::Full);
    }
}

// ---------------------------------------------------------------------------
// Compiled vs. reference engine
// ---------------------------------------------------------------------------

/// Run `kernel` from identical initial memory through both engines —
/// tree-walking reference and compiled (lowered or fused tier, as the work
/// division decides) — and require bit-identical buffers, `LaunchStats` and
/// `TimeBreakdown`. Returns the compiled run's report and memory for
/// further checks.
fn assert_engines_agree<K: Kernel>(
    kernel: &K,
    spec: &DeviceSpec,
    wd: &WorkDiv,
    setup: impl Fn() -> (DeviceMem, SimArgs),
    threads: usize,
    mode: ExecMode,
) -> (SimReport, DeviceMem) {
    let mut prog = trace_kernel(kernel, wd.dim);
    optimize(&mut prog);

    let (mut mem_r, args) = setup();
    let reference = run_kernel_launch_engine(
        spec,
        &mut mem_r,
        &prog,
        wd,
        &args,
        mode,
        threads,
        Engine::Reference,
    )
    .unwrap();

    let (mut mem_e, args_e) = setup();
    let rep = run_kernel_launch_engine(
        spec,
        &mut mem_e,
        &prog,
        wd,
        &args_e,
        mode,
        threads,
        Engine::Compiled,
    )
    .unwrap();

    let name = kernel.name();
    assert_eq!(reference.stats, rep.stats, "LaunchStats diverged ({name})");
    assert_eq!(reference.time, rep.time, "TimeBreakdown diverged ({name})");
    assert_eq!(reference.sampled, rep.sampled);
    for (slot, b) in args.bufs_f.iter().enumerate() {
        let r: Vec<u64> = mem_r.f(*b).iter().map(|v| v.to_bits()).collect();
        let e: Vec<u64> = mem_e.f(*b).iter().map(|v| v.to_bits()).collect();
        assert_eq!(r, e, "f64 buffer slot {slot} diverged ({name})");
    }
    for (slot, b) in args.bufs_i.iter().enumerate() {
        let (r, e) = (mem_r.i(*b), mem_e.i(*b));
        assert_eq!(r, e, "i64 buffer slot {slot} diverged ({name})");
    }
    (rep, mem_e)
}

#[test]
fn engines_agree_on_daxpy() {
    let n = 4096;
    // CPU model at 1 thread/block (the bench shape) and GPU model with
    // wide blocks: both engine paths, uniform and divergent masks.
    assert_engines_agree(
        &Daxpy,
        &DeviceSpec::e5_2630v3(),
        &WorkDiv::d1(n / 64, 1, 64),
        || daxpy_setup(n),
        1,
        ExecMode::Full,
    );
    assert_engines_agree(
        &Daxpy,
        &DeviceSpec::k20(),
        &WorkDiv::d1(n / 128, 128, 1),
        || daxpy_setup(n),
        1,
        ExecMode::Full,
    );
    // Odd n: the tail block's guard diverges.
    let n: usize = 3001;
    assert_engines_agree(
        &Daxpy,
        &DeviceSpec::k20(),
        &WorkDiv::d1(n.div_ceil(128), 128, 1),
        || daxpy_setup(n),
        1,
        ExecMode::Full,
    );
}

#[test]
fn engines_agree_on_dgemm() {
    let n: usize = 48;
    assert_engines_agree(
        &Dgemm,
        &DeviceSpec::e5_2630v3(),
        &WorkDiv::d1((n * n).div_ceil(64), 1, 64),
        || dgemm_setup(n),
        1,
        ExecMode::Full,
    );
    assert_engines_agree(
        &Dgemm,
        &DeviceSpec::k20(),
        &WorkDiv::d1((n * n).div_ceil(64), 64, 1),
        || dgemm_setup(n),
        1,
        ExecMode::Full,
    );
}

#[test]
fn engines_agree_on_transpose() {
    let n: usize = 40;
    let (_, mem) = assert_engines_agree(
        &Transpose,
        &DeviceSpec::e5_2630v3(),
        &WorkDiv::d1((n * n).div_ceil(32), 1, 32),
        || transpose_setup(n),
        1,
        ExecMode::Full,
    );
    assert_engines_agree(
        &Transpose,
        &DeviceSpec::k20(),
        &WorkDiv::d1((n * n).div_ceil(128), 128, 1),
        || transpose_setup(n),
        1,
        ExecMode::Full,
    );
    // And the transpose is actually a transpose.
    let (src, args) = transpose_setup(n);
    let (a, b) = (args.bufs_f[0], args.bufs_f[1]);
    for r in 0..n {
        for c in 0..n {
            assert_eq!(mem.f(b)[c * n + r], src.f(a)[r * n + c], "B[{c},{r}]");
        }
    }
}

#[test]
fn engines_agree_on_histogram() {
    let n: usize = 10_000;
    let nbins = 32;
    assert_engines_agree(
        &Histogram,
        &DeviceSpec::e5_2630v3(),
        &WorkDiv::d1(n.div_ceil(64), 1, 64),
        || histogram_setup(n, nbins),
        1,
        ExecMode::Full,
    );
    assert_engines_agree(
        &Histogram,
        &DeviceSpec::k20(),
        &WorkDiv::d1(n.div_ceil(256), 256, 1),
        || histogram_setup(n, nbins),
        1,
        ExecMode::Full,
    );
}

#[test]
fn engines_agree_on_scan() {
    let blocks = 24;
    let (_, mem) = assert_engines_agree(
        &Scan,
        &DeviceSpec::k20(),
        &WorkDiv::d1(blocks, 64, 1),
        || scan_setup(blocks),
        1,
        ExecMode::Full,
    );
    // Check the per-block inclusive prefix sums against a host reference,
    // reproducing the kernel's f64 addition order (tree, not sequential).
    let (src, args) = scan_setup(blocks);
    let (x, y) = (args.bufs_f[0], args.bufs_f[1]);
    for blk in 0..blocks {
        let tile = &src.f(x)[blk * 64..(blk + 1) * 64];
        let mut s: Vec<f64> = tile.to_vec();
        let mut offset = 1;
        while offset < 64 {
            let prev = s.clone();
            for t in 0..64 {
                if t >= offset {
                    s[t] = prev[t] + prev[t - offset];
                }
            }
            offset *= 2;
        }
        for t in 0..64 {
            assert_eq!(
                mem.f(y)[blk * 64 + t].to_bits(),
                s[t].to_bits(),
                "scan[{blk},{t}]"
            );
        }
    }
}

#[test]
fn engines_agree_under_parallel_and_sampled_execution() {
    let n: usize = 64;
    let wd = WorkDiv::d1((n * n).div_ceil(64), 1, 64);
    assert_engines_agree(
        &Dgemm,
        &DeviceSpec::e5_2630v3(),
        &wd,
        || dgemm_setup(n),
        8,
        ExecMode::Full,
    );
    assert_engines_agree(
        &Dgemm,
        &DeviceSpec::e5_2630v3(),
        &wd,
        || dgemm_setup(n),
        8,
        ExecMode::SampleBlocks(16),
    );
}

/// Build the three-way contract explicitly: compiled engine == reference
/// engine == `alpaka_kir::eval`, on a 1-thread-per-block launch where the
/// per-thread evaluator's ordering contract is exact.
#[test]
fn engines_match_eval_reference() {
    use alpaka_kir::eval::{eval_thread_fuel, EvalInputs, EvalMem, SpecialValues};

    let n = 512usize;
    let elems = 64usize;
    let blocks = n / elems;
    let wd = WorkDiv::d1(blocks, 1, elems);
    let mut prog = trace_kernel(&Daxpy, wd.dim);
    optimize(&mut prog);

    // Evaluator: one thread per block, blocks in linear order.
    let (mem0, args) = daxpy_setup(n);
    let mut emem = EvalMem {
        bufs_f: vec![
            mem0.f(args.bufs_f[0]).to_vec(),
            mem0.f(args.bufs_f[1]).to_vec(),
        ],
        bufs_i: vec![],
    };
    for b in 0..blocks {
        let sp = SpecialValues {
            grid_blocks: [1, 1, blocks as i64],
            block_threads: [1, 1, 1],
            thread_elems: [1, 1, elems as i64],
            block_idx: [0, 0, b as i64],
            thread_idx: [0, 0, 0],
        };
        let inp = EvalInputs {
            params_f: &args.params_f,
            params_i: &args.params_i,
            special: sp,
        };
        eval_thread_fuel(&prog, &inp, &mut emem, 10_000_000).unwrap();
    }

    let (_, mem) = assert_engines_agree(
        &Daxpy,
        &DeviceSpec::e5_2630v3(),
        &wd,
        || daxpy_setup(n),
        1,
        ExecMode::Full,
    );
    let y = args.bufs_f[1];
    let sim_bits: Vec<u64> = mem.f(y).iter().map(|v| v.to_bits()).collect();
    let eval_bits: Vec<u64> = emem.bufs_f[1].iter().map(|v| v.to_bits()).collect();
    assert_eq!(sim_bits, eval_bits, "compiled engine vs eval");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of the uniformity analysis: a value derived from a
    /// thread-index special register must never be classified uniform, no
    /// matter what chain of pure ops it flows through.
    #[test]
    fn uniformity_never_marks_thread_derived_values_uniform(
        axis in 0u32..3,
        steps in proptest::collection::vec(0u32..5, 1..12),
    ) {
        use alpaka_kir::ir::{
            Block, FBin, IBin, Instr, Op, Program, SpecialReg, Stmt, Ty, ValId, VarId, VarInfo,
        };

        let mut stmts = vec![
            // v0 = tid.axis (varying seed), v1 = blockIdx.x (uniform),
            // v2 = param (uniform).
            Stmt::I(Instr { dst: ValId(0), op: Op::Special(SpecialReg::ThreadIdx(axis as u8)) }),
            Stmt::I(Instr { dst: ValId(1), op: Op::Special(SpecialReg::BlockIdx(2)) }),
            Stmt::I(Instr { dst: ValId(2), op: Op::ParamI(0) }),
        ];
        // Walk a chain v3, v4, ... where each step mixes the previous
        // tainted value with a uniform operand through a random pure op.
        let mut cur = ValId(0);
        let mut next = 3u32;
        let mut tainted = vec![ValId(0)];
        let mut is_float = false;
        for &s in &steps {
            let dst = ValId(next);
            let op = match (s, is_float) {
                (0, false) => Op::BinI(IBin::Add, cur, ValId(1)),
                (1, false) => Op::BinI(IBin::Mul, cur, ValId(2)),
                (2, false) => Op::NegI(cur),
                (3, false) => { is_float = true; Op::I2F(cur) }
                (_, false) => Op::BinI(IBin::Xor, cur, ValId(2)),
                (3, true) => { is_float = false; Op::F2I(cur) }
                (_, true) => Op::BinF(FBin::Add, cur, cur),
            };
            stmts.push(Stmt::I(Instr { dst, op }));
            tainted.push(dst);
            cur = dst;
            next += 1;
        }
        // Route the chain through a mutable variable as well: a store of a
        // varying value must taint the variable and its readers.
        let var_ty = if is_float { Ty::F64 } else { Ty::I64 };
        if is_float {
            stmts.push(Stmt::StVarF { var: VarId(0), val: cur });
            stmts.push(Stmt::I(Instr { dst: ValId(next), op: Op::LdVarF(VarId(0)) }));
        } else {
            stmts.push(Stmt::StVarI { var: VarId(0), val: cur });
            stmts.push(Stmt::I(Instr { dst: ValId(next), op: Op::LdVarI(VarId(0)) }));
        }
        tainted.push(ValId(next));

        let prog = Program {
            name: "taint".into(),
            dims: 1,
            body: Block(stmts),
            n_vals: next + 1,
            vars: vec![VarInfo { ty: var_ty }],
            shared: vec![],
            locals: vec![],
            n_bufs_f: 0,
            n_bufs_i: 0,
            n_params_f: 0,
            n_params_i: 1,
        };
        alpaka_kir::validate(&prog).unwrap();
        let u = uniformity(&prog);
        for v in &tainted {
            prop_assert!(
                !u.val(*v),
                "thread-derived value v{} classified uniform",
                v.0
            );
        }
        prop_assert!(!u.var(VarId(0)), "thread-tainted var classified uniform");
        // The untainted companions stay uniform (the analysis is not
        // trivially marking everything varying).
        prop_assert!(u.val(ValId(1)));
        prop_assert!(u.val(ValId(2)));
    }

    /// Engine parity on machine-generated programs: whatever shape the
    /// generator emits (loops, vars, stores, selects), the compiled and
    /// reference engines agree bit-for-bit on buffers, stats and time.
    #[test]
    fn engines_agree_on_random_programs(
        seed in proptest::collection::vec(any::<u64>(), 4..24),
        len in 3usize..12,
        blocks in 1usize..5,
    ) {
        let p = alpaka_kir::testgen::gen_program(&seed, len);
        let wd = WorkDiv::d1(blocks, 1, 1);
        let mut results = vec![];
        for engine in [Engine::Reference, Engine::Compiled] {
            let mut mem = DeviceMem::new();
            let buf = mem.alloc_f(16);
            let args = SimArgs {
                bufs_f: vec![buf],
                bufs_i: vec![],
                params_f: vec![],
                params_i: vec![],
            };
            let rep = run_kernel_launch_engine(
                &DeviceSpec::k20(),
                &mut mem,
                &p,
                &wd,
                &args,
                ExecMode::Full,
                1,
                engine,
            )
            .expect("launch");
            let bits: Vec<u64> = mem.f(buf).iter().map(|v| v.to_bits()).collect();
            results.push((rep.stats, rep.time, bits));
        }
        prop_assert_eq!(
            &results[0], &results[1],
            "compiled engine diverged for program:\n{}",
            alpaka_kir::print_program(&p)
        );
    }
}

// ---------------------------------------------------------------------------
// Lane kernels and guarded fusion vs. the reference engine
// ---------------------------------------------------------------------------

use alpaka_kir::ir::{
    BBin, Block, Cmp, FBin, FUn, IBin, Instr, Op, Program, SpecialReg, Stmt, ValId,
};
use alpaka_sim::{run_kernel_launch_faulty, FaultPlan, LaunchFaults};

/// Everything observable about one launch: stats, modelled time and every
/// bound buffer's bits — or the structured error (message, kind, block and
/// thread coordinates) rendered as text.
type Outcome = Result<
    (
        alpaka_sim::LaunchStats,
        alpaka_sim::TimeBreakdown,
        Vec<Vec<u64>>,
    ),
    String,
>;

fn outcome(
    spec: &DeviceSpec,
    prog: &Program,
    wd: &WorkDiv,
    (mut mem, args): (DeviceMem, SimArgs),
    engine: Engine,
    faults: Option<LaunchFaults>,
    threads: usize,
) -> Outcome {
    run_kernel_launch_faulty(
        spec,
        &mut mem,
        prog,
        wd,
        &args,
        ExecMode::Full,
        threads,
        engine,
        faults,
    )
    .map(|rep| {
        let f = args
            .bufs_f
            .iter()
            .map(|b| mem.f(*b).iter().map(|v| v.to_bits()).collect());
        let i = args
            .bufs_i
            .iter()
            .map(|b| mem.i(*b).iter().map(|v| *v as u64).collect());
        (rep.stats, rep.time, f.chain(i).collect())
    })
    .map_err(|e| format!("{e:?}"))
}

/// The compiled engine must reproduce the reference engine's outcome
/// exactly, on `threads` interpreter threads. Returns it.
fn assert_outcomes_agree(
    spec: &DeviceSpec,
    prog: &Program,
    wd: &WorkDiv,
    setup: impl Fn() -> (DeviceMem, SimArgs),
    faults: Option<LaunchFaults>,
    threads: usize,
    what: &str,
) -> Outcome {
    let want = outcome(spec, prog, wd, setup(), Engine::Reference, faults, threads);
    let got = outcome(spec, prog, wd, setup(), Engine::Compiled, faults, threads);
    assert_eq!(
        want, got,
        "{what}: the compiled engine diverged from the reference engine"
    );
    want
}

/// `DeviceSpec`'s fields are public. A line size the models cannot shift
/// by, or no warp lanes or SMs to divide a block among, used to panic with
/// a divide by zero inside the launch; it is a structured error now.
#[test]
fn a_spec_the_models_cannot_divide_by_is_rejected() {
    let mut prog = trace_kernel(&Daxpy, 1);
    optimize(&mut prog);
    let wd = WorkDiv::d1(4, 64, 1);
    let k20 = DeviceSpec::k20;
    let bad = [
        (
            "line_bytes",
            DeviceSpec {
                line_bytes: 0,
                ..k20()
            },
        ),
        (
            "line_bytes",
            DeviceSpec {
                line_bytes: 96,
                ..k20()
            },
        ),
        (
            "warp_width",
            DeviceSpec {
                warp_width: 0,
                ..k20()
            },
        ),
        ("sms", DeviceSpec { sms: 0, ..k20() }),
    ];
    let threads = resolve_sim_threads(1);
    for (field, spec) in bad {
        for engine in [Engine::Reference, Engine::Compiled] {
            let err = outcome(&spec, &prog, &wd, daxpy_setup(256), engine, None, threads);
            let err = err.unwrap_err();
            let names = err.contains(&spec.name) && err.contains(&format!("`{field}`"));
            assert!(names, "{field} under {engine:?}: {err}");
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum T {
    F,
    I,
    B,
}

/// Every compute op of the ISA: operand types, result type, constructor.
#[allow(clippy::type_complexity)]
fn every_op() -> Vec<(Vec<T>, T, Box<dyn Fn(&[ValId]) -> Op>)> {
    use T::{B, F, I};
    let mut ops: Vec<(Vec<T>, T, Box<dyn Fn(&[ValId]) -> Op>)> = vec![];
    for op in [
        FBin::Add,
        FBin::Sub,
        FBin::Mul,
        FBin::Div,
        FBin::Min,
        FBin::Max,
    ] {
        ops.push((vec![F, F], F, Box::new(move |a| Op::BinF(op, a[0], a[1]))));
    }
    for op in [
        IBin::Add,
        IBin::Sub,
        IBin::Mul,
        IBin::Div,
        IBin::Rem,
        IBin::Min,
        IBin::Max,
        IBin::And,
        IBin::Or,
        IBin::Xor,
        IBin::Shl,
        IBin::Shr,
    ] {
        ops.push((vec![I, I], I, Box::new(move |a| Op::BinI(op, a[0], a[1]))));
    }
    for op in [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq] {
        ops.push((vec![F, F], B, Box::new(move |a| Op::CmpF(op, a[0], a[1]))));
        ops.push((vec![I, I], B, Box::new(move |a| Op::CmpI(op, a[0], a[1]))));
    }
    for op in [BBin::And, BBin::Or] {
        ops.push((vec![B, B], B, Box::new(move |a| Op::BinB(op, a[0], a[1]))));
    }
    for op in [
        FUn::Neg,
        FUn::Abs,
        FUn::Sqrt,
        FUn::Exp,
        FUn::Ln,
        FUn::Sin,
        FUn::Cos,
        FUn::Floor,
    ] {
        ops.push((vec![F], F, Box::new(move |a| Op::UnF(op, a[0]))));
    }
    ops.push((vec![B, F, F], F, Box::new(|a| Op::SelF(a[0], a[1], a[2]))));
    ops.push((vec![B, I, I], I, Box::new(|a| Op::SelI(a[0], a[1], a[2]))));
    ops.push((vec![F, F, F], F, Box::new(|a| Op::Fma(a[0], a[1], a[2]))));
    ops.push((vec![I], I, Box::new(|a| Op::NegI(a[0]))));
    ops.push((vec![B], B, Box::new(|a| Op::NotB(a[0]))));
    ops.push((vec![I], F, Box::new(|a| Op::I2F(a[0]))));
    ops.push((vec![F], I, Box::new(|a| Op::F2I(a[0]))));
    ops.push((vec![I], F, Box::new(|a| Op::U2UnitF(a[0]))));
    ops
}

/// `if mask(tid) { out[tid + shift] = op(operands) }` with operand `j` read
/// from parameter slot `j` (uniform) or from buffer `j` at `tid` (varying).
/// Booleans derive from the integer operand; a boolean result is stored as
/// 0/1. `shift` is i64 parameter 3 (it pushes the store out of bounds).
fn op_program(
    tys: &[T],
    res: T,
    make: &dyn Fn(&[ValId]) -> Op,
    varying: u32,
    mask: u32,
) -> Program {
    let mut stmts = vec![];
    let mut next = 0u32;
    let mut emit = |stmts: &mut Vec<Stmt>, op: Op| {
        stmts.push(Stmt::I(Instr {
            dst: ValId(next),
            op,
        }));
        next += 1;
        ValId(next - 1)
    };
    let tid = emit(&mut stmts, Op::Special(SpecialReg::ThreadIdx(2)));
    let k = |stmts: &mut Vec<Stmt>, emit: &mut dyn FnMut(&mut Vec<Stmt>, Op) -> ValId, v| {
        emit(stmts, Op::ConstI(v))
    };
    let cond = match mask {
        0 => None, // full
        1 => {
            // ragged tail: the last three lanes (the only lane, at 1) idle
            let ext = emit(&mut stmts, Op::Special(SpecialReg::BlockThreadExtent(2)));
            let three = k(&mut stmts, &mut emit, 3);
            let lim = emit(&mut stmts, Op::BinI(IBin::Sub, ext, three));
            Some(emit(&mut stmts, Op::CmpI(Cmp::Lt, tid, lim)))
        }
        2 => {
            // one lane
            let five = k(&mut stmts, &mut emit, 5);
            let ext = emit(&mut stmts, Op::Special(SpecialReg::BlockThreadExtent(2)));
            let lane = emit(&mut stmts, Op::BinI(IBin::Rem, five, ext));
            Some(emit(&mut stmts, Op::CmpI(Cmp::Eq, tid, lane)))
        }
        3 => {
            // alternating
            let one = k(&mut stmts, &mut emit, 1);
            let bit = emit(&mut stmts, Op::BinI(IBin::And, tid, one));
            Some(emit(&mut stmts, Op::CmpI(Cmp::Eq, bit, one)))
        }
        _ => {
            // empty warp: warp 1 (lanes 32..64) sits out
            let c32 = k(&mut stmts, &mut emit, 32);
            let c64 = k(&mut stmts, &mut emit, 64);
            let lo = emit(&mut stmts, Op::CmpI(Cmp::Lt, tid, c32));
            let hi = emit(&mut stmts, Op::CmpI(Cmp::Ge, tid, c64));
            Some(emit(&mut stmts, Op::BinB(BBin::Or, lo, hi)))
        }
    };
    let mut body = vec![];
    let operands: Vec<ValId> = tys
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            let slot = j as u32;
            let var = varying >> j & 1 == 1;
            match (t, var) {
                (T::F, false) => emit(&mut body, Op::ParamF(slot)),
                (T::F, true) => emit(
                    &mut body,
                    Op::LdGF {
                        buf: slot,
                        idx: tid,
                    },
                ),
                (_, false) => emit(&mut body, Op::ParamI(slot)),
                (_, true) => emit(
                    &mut body,
                    Op::LdGI {
                        buf: slot,
                        idx: tid,
                    },
                ),
            }
        })
        .collect();
    let operands: Vec<ValId> = operands
        .iter()
        .zip(tys)
        .map(|(&v, &t)| {
            if t == T::B {
                let z = emit(&mut body, Op::ConstI(0));
                emit(&mut body, Op::CmpI(Cmp::Gt, v, z))
            } else {
                v
            }
        })
        .collect();
    let r = emit(&mut body, make(&operands));
    let shift = emit(&mut body, Op::ParamI(3));
    let idx = emit(&mut body, Op::BinI(IBin::Add, tid, shift));
    let store = match res {
        T::F => Stmt::StGF {
            buf: 3,
            idx,
            val: r,
        },
        T::I => Stmt::StGI {
            buf: 3,
            idx,
            val: r,
        },
        T::B => {
            let one = emit(&mut body, Op::ConstI(1));
            let zero = emit(&mut body, Op::ConstI(0));
            let val = emit(&mut body, Op::SelI(r, one, zero));
            Stmt::StGI { buf: 3, idx, val }
        }
    };
    body.push(store);
    match cond {
        None => stmts.extend(body),
        Some(cond) => stmts.push(Stmt::If {
            cond,
            then_b: Block(body),
            else_b: Block(vec![]),
        }),
    }
    Program {
        name: "lane-op".into(),
        dims: 1,
        body: Block(stmts),
        n_vals: next,
        vars: vec![],
        shared: vec![],
        locals: vec![],
        n_bufs_f: 4,
        n_bufs_i: 4,
        n_params_f: 3,
        n_params_i: 4,
    }
}

/// Edge-heavy operand data: `pick` draws from the seed stream.
fn op_setup(lanes: usize, shift: i64, seed: &[u64]) -> (DeviceMem, SimArgs) {
    const FS: [f64; 10] = [
        0.0,
        -0.0,
        1.5,
        -2.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        1e300,
        -1e-3,
    ];
    const IS: [i64; 10] = [
        0,
        1,
        -1,
        2,
        63,
        64,
        -64,
        i64::MAX,
        i64::MIN,
        0x1234_5678_9abc,
    ];
    let mut n = 0usize;
    let mut pick = || {
        n += 1;
        let s = seed[n % seed.len()]
            .wrapping_mul(n as u64 | 1)
            .rotate_left(n as u32);
        (s >> 7) as usize
    };
    let mut mem = DeviceMem::new();
    let bufs_f: Vec<_> = (0..4).map(|_| mem.alloc_f(lanes)).collect();
    let bufs_i: Vec<_> = (0..4).map(|_| mem.alloc_i(lanes)).collect();
    for l in 0..lanes {
        for b in 0..3 {
            let p = pick();
            mem.f_mut(bufs_f[b])[l] = if p % 3 == 0 {
                p as f64 * 1e-3 - 7.0
            } else {
                FS[p % 10]
            };
            let p = pick();
            mem.i_mut(bufs_i[b])[l] = if p % 3 == 0 {
                p as i64 - (1 << 40)
            } else {
                IS[p % 10]
            };
        }
    }
    let args = SimArgs {
        bufs_f,
        bufs_i,
        params_f: (0..3).map(|_| FS[pick() % 10]).collect(),
        params_i: (0..3).map(|_| IS[pick() % 10]).chain([shift]).collect(),
    };
    (mem, args)
}

/// Elements in each of [`LaneMem`]'s buffers and shared arrays.
const MEM_LEN: i64 = 1024;

/// The index shapes of the four memory kernels, every number a parameter
/// (i64 slots in field order): the lanes with `lo <= tid < hi` and
/// `(tid - lo) % step == 0` run, for each element `e`, `ld.global`,
/// `st.global`, `ld.shared` and `st.shared` (f64 and s64 alike) at
/// `a * (tid % m) + b * (tid / m) + c + e * es` — `es_ld` for the loads,
/// `es_st` for the stores; op number `sel` at `slide` more, and lane `k` of
/// it at another `off`. The shared arrays start as copies of the inputs and
/// end up in the third pair of buffers.
#[derive(Clone, Copy, Debug)]
struct LaneMem {
    a: i64,
    b: i64,
    m: i64,
    c: i64,
    es_ld: i64,
    es_st: i64,
    sel: i64,
    slide: i64,
    k: i64,
    off: i64,
    lo: i64,
    hi: i64,
    step: i64,
}

impl LaneMem {
    /// What the sweep's cases start from (and any value traces the
    /// kernel): lane `tid` at element `tid`, nothing odd, no lane live.
    const SHAPE: LaneMem = LaneMem {
        a: 1,
        b: 0,
        m: 1 << 40,
        c: 0,
        es_ld: 0,
        es_st: 0,
        sel: 0,
        slide: 0,
        k: -1,
        off: 0,
        lo: 0,
        hi: 0,
        step: 1,
    };
    const OPS: [&'static str; 4] = [
        "ld.global.f64",
        "st.global.f64",
        "ld.shared.f64",
        "st.shared.f64",
    ];

    fn params(&self) -> Vec<i64> {
        let p = *self;
        vec![
            p.a, p.b, p.m, p.c, p.es_ld, p.es_st, p.sel, p.slide, p.k, p.off, p.lo, p.hi, p.step,
        ]
    }

    /// Lane `tid`'s index in op `op` at element `e`.
    fn index(&self, tid: i64, op: i64, e: i64) -> i64 {
        let es = if op % 2 == 0 { self.es_ld } else { self.es_st };
        let odd = if tid == self.k { self.off } else { 0 };
        let extra = if op == self.sel { self.slide + odd } else { 0 };
        self.a * (tid % self.m) + self.b * (tid / self.m) + self.c + e * es + extra
    }

    fn live(&self, lanes: i64) -> Vec<i64> {
        let on = |t: &i64| self.lo <= *t && *t < self.hi && (t - self.lo) % self.step == 0;
        (0..lanes).filter(on).collect()
    }

    /// The op and thread the lane-ordered engines fault at first, if any.
    fn first_fault(&self, lanes: i64, elems: i64) -> Option<(i64, i64)> {
        let live = self.live(lanes);
        let visits = (0..elems).flat_map(|e| (0..4).map(move |op| (e, op)));
        visits
            .flat_map(|(e, op)| live.iter().map(move |&t| (e, op, t)))
            .find(|&(e, op, t)| !(0..MEM_LEN).contains(&self.index(t, op, e)))
            .map(|(_, op, t)| (op, t))
    }
}

impl Kernel for LaneMem {
    fn name(&self) -> &str {
        "lane-mem"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let f: Vec<O::BufF> = (0..3).map(|s| o.buf_f(s)).collect();
        let i: Vec<O::BufI> = (0..3).map(|s| o.buf_i(s)).collect();
        let p: Vec<O::I> = (0..13).map(|s| o.param_i(s)).collect();
        let [a, b, m, c, es_ld, es_st, sel, slide, k, off, lo, hi, step] = p[..] else {
            unreachable!()
        };
        let (sf, si) = (o.shared_f(MEM_LEN as usize), o.shared_i(MEM_LEN as usize));
        let (tid, lanes) = (o.thread_idx(0), o.block_thread_extent(0));
        let (zero, len) = (o.lit_i(0), o.lit_i(MEM_LEN));
        // Every cell `at`, a block's worth per trip, under the full mask.
        let each_cell = |o: &mut O, body: &mut dyn FnMut(&mut O, O::I)| {
            let trips = o.div_i(len, lanes);
            let trips = o.offset_i(trips, 1);
            o.for_range(zero, trips, |o, j| {
                let at = o.mul_i(j, lanes);
                let at = o.add_i(at, tid);
                let inside = o.lt_i(at, len);
                o.if_(inside, |o| body(o, at));
            });
        };
        each_cell(o, &mut |o, at| {
            let (v, w) = (o.ld_gf(f[0], at), o.ld_gi(i[0], at));
            o.st_sf(sf, at, v);
            o.st_si(si, at, w);
        });
        o.sync_block_threads();
        let live = {
            let (above, below) = (o.ge_i(tid, lo), o.lt_i(tid, hi));
            let d = o.sub_i(tid, lo);
            let r = o.rem_i(d, step);
            let on = o.eq_i(r, zero);
            let span = o.and_b(above, below);
            o.and_b(span, on)
        };
        let base = {
            let (row, col) = (o.rem_i(tid, m), o.div_i(tid, m));
            let (r, q) = (o.mul_i(a, row), o.mul_i(b, col));
            let rq = o.add_i(r, q);
            o.add_i(rq, c)
        };
        let extra = {
            let is_k = o.eq_i(tid, k);
            let odd = o.select_i(is_k, off, zero);
            o.add_i(slide, odd)
        };
        o.for_elements(0, |o, e| {
            // Indices for every lane, live or not: an engine that runs the
            // dead ones shows in the stores.
            let ix: Vec<O::I> = (0..4)
                .map(|op| {
                    let es = if op % 2 == 0 { es_ld } else { es_st };
                    let step = o.mul_i(e, es);
                    let here = o.add_i(base, step);
                    let op = o.lit_i(op);
                    let selected = o.eq_i(sel, op);
                    let d = o.select_i(selected, extra, zero);
                    o.add_i(here, d)
                })
                .collect();
            o.if_(live, |o| {
                // Values differ by lane, so a collision shows who won.
                let (v, w) = (o.ld_gf(f[0], ix[0]), o.ld_gi(i[0], ix[0]));
                let t = o.i2f(tid);
                let (v, w) = (o.add_f(v, t), o.add_i(w, tid));
                o.st_gf(f[1], ix[1], v);
                o.st_gi(i[1], ix[1], w);
                let (s, q) = (o.ld_sf(sf, ix[2]), o.ld_si(si, ix[2]));
                let (s, q) = (o.add_f(s, v), o.xor_i(q, w));
                o.st_sf(sf, ix[3], s);
                o.st_si(si, ix[3], q);
            });
        });
        o.sync_block_threads();
        each_cell(o, &mut |o, at| {
            let (v, w) = (o.ld_sf(sf, at), o.ld_si(si, at));
            o.st_gf(f[2], at, v);
            o.st_gi(i[2], at, w);
        });
    }
}

fn lane_mem_setup(case: &LaneMem, seed: &[u64]) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let bufs_f: Vec<_> = (0..3).map(|_| mem.alloc_f(MEM_LEN as usize)).collect();
    let bufs_i: Vec<_> = (0..3).map(|_| mem.alloc_i(MEM_LEN as usize)).collect();
    for k in 0..MEM_LEN as usize {
        let bits = seed[k % seed.len()].rotate_left(k as u32) ^ k as u64;
        mem.f_mut(bufs_f[0])[k] = (bits >> 40) as f64 * 0.5 - 1e6;
        mem.i_mut(bufs_i[0])[k] = bits as i64;
    }
    let args = SimArgs {
        bufs_f,
        bufs_i,
        params_f: vec![],
        params_i: case.params(),
    };
    (mem, args)
}

/// One spec and element count of the memory kernels' sweep: index shapes
/// {affine at stride 1, -1, 2 or -2; two runs per warp, as tile rows and
/// as the columns of a transposed tile; one run per warp at stride 32; a
/// row read by every row of threads; a cell per row of threads; one cell
/// for all} x masks {full, dense prefix, dense middle,
/// sparse, one lane, none} x {in bounds, one lane off the run, one lane
/// out of bounds at the first/middle/last live lane, the run slid one past
/// either end} with the odd index in each of the four ops in turn, then
/// ECC armed. Loads and stores step differently from one element to the
/// next, so each alone can sink a CPU model's vectorization probe.
fn lane_mem_sweep(spec: &DeviceSpec, lanes: usize, elems: usize, seed: &[u64]) {
    let mut prog = trace_kernel(&LaneMem::SHAPE, 1);
    optimize(&mut prog);
    let wd = WorkDiv::d1(2, lanes, elems);
    let (n, e) = (lanes as i64, elems as i64);
    let flat = 1 << 40;
    let stride = [1, -1, 2, -2][seed[0] as usize % 4];
    let shapes = [
        (stride, 0, flat),
        (1, 36, 16),
        (16, 1, 16),
        (32, 1, 32),
        (1, 0, 16),
        (0, 1, 16),
        (0, 0, flat),
    ];
    let masks = [
        (0, n, 1),
        (0, (2 * n / 3).max(1), 1),
        (n / 4, (3 * n / 4).max(n / 4 + 1), 1),
        (0, n, 3),
        (5 % n, 5 % n + 1, 1),
        (0, 0, 1),
    ];
    let mut turn = seed[1] as usize;
    for (a, b, m) in shapes {
        for (j, (lo, hi, step)) in masks.into_iter().enumerate() {
            let (es_ld, es_st) = [(0, 5), (5, 0), (1, 1), (5, 5)][(turn + j) % 4];
            let mut case = LaneMem {
                a,
                b,
                m,
                es_ld,
                es_st,
                lo,
                hi,
                step,
                ..LaneMem::SHAPE
            };
            // Eight cells of margin below the smallest index.
            case.c = 8 - (0..n).map(|t| case.index(t, -1, 0)).min().unwrap();
            let live = case.live(n);
            let victims = [0, live.len() / 2, live.len().saturating_sub(1)];
            // (ecc, slide one past the end / one before the start, victim,
            // off): in place; one lane off the run, then also ECC armed; one
            // lane far out of bounds; the run slid so that its largest index
            // is one past the end, then its smallest one before the start.
            let mut odd = vec![(false, None, None, 0), (false, None, Some(1), 3)];
            odd.push((true, None, Some(1), 3));
            let far = [3 * MEM_LEN, -3 * MEM_LEN, 3 * MEM_LEN];
            odd.extend(
                victims
                    .iter()
                    .zip(far)
                    .map(|(&v, off)| (false, None, Some(v), off)),
            );
            odd.extend([true, false].map(|past| (false, Some(past), None, 0)));
            for (kind, (ecc, slid, victim, off)) in odd.into_iter().enumerate() {
                // In place every time, every other of the rest in turn.
                turn += 1;
                if kind > 0 && turn % 2 == 0 {
                    continue;
                }
                case.sel = (turn % 4) as i64;
                case.k = victim.and_then(|v| live.get(v)).copied().unwrap_or(-1);
                (case.slide, case.off) = (0, off);
                let cells = |&t| (0..e).map(move |el| case.index(t, case.sel, el));
                let ix = live.iter().flat_map(cells);
                case.slide = match slid {
                    Some(true) => ix.max().map_or(0, |max| MEM_LEN - max),
                    Some(false) => ix.min().map_or(0, |min| -1 - min),
                    None => 0,
                };
                lane_mem_case(spec, &prog, &wd, &case, seed, ecc);
            }
        }
    }
}

/// One launch of the sweep: the engines agree, and on what the indices say
/// must happen — the first fault in lane order, or the last lane winning.
fn lane_mem_case(
    spec: &DeviceSpec,
    prog: &Program,
    wd: &WorkDiv,
    case: &LaneMem,
    seed: &[u64],
    ecc: bool,
) {
    let (lanes, elems) = (wd.threads[2] as i64, wd.elems[2] as i64);
    let faults = ecc.then(|| LaunchFaults {
        ecc: FaultPlan::quiet(seed[2]).with_ecc_rate(2e-3).ecc_ctx(0),
        watchdog_fuel: None,
    });
    let what = format!("{} {wd:?} {case:?} ecc={ecc}", spec.name);
    let setup = || lane_mem_setup(case, seed);
    let threads = resolve_sim_threads(1);
    let got = assert_outcomes_agree(spec, prog, wd, setup, faults, threads, &what);
    if ecc {
        return;
    }
    match (case.first_fault(lanes, elems), got) {
        (None, Ok((.., bufs))) => {
            // Lanes store in order, elements in order: the last live lane
            // of the last element to hit the cell wins it.
            let last = case.live(lanes).last().copied();
            if let (Some(last), true) = (last, case.a == 0 && case.b == 0 && case.k < 0) {
                let e = if case.es_st == 0 { elems - 1 } else { 0 };
                let src = case.index(last, 0, e) as usize;
                let dst = case.index(last, 1, e) as usize;
                let want = f64::from_bits(bufs[0][src]) + last as f64;
                assert_eq!(bufs[1][dst], want.to_bits(), "{what}");
            }
        }
        (Some((op, t)), Err(e)) => {
            let at = format!("thread: Some([0, 0, {t}])");
            let named = e.contains(LaneMem::OPS[op as usize]) && e.contains(&at);
            assert!(named, "{what}: {e}");
        }
        (want, got) => panic!("{what}: expected a fault at {want:?}, got {got:?}"),
    }
}

/// The memory kernels' side of `lane_kernels_match_the_oracle`: the sweep
/// of [`lane_mem_sweep`] x lanes {1, 31, 32, 48, 64, 256} on the K20, and
/// at three of them on two CPU-kind specs that allow many lanes (lock-step
/// width 1 and 32), whose three-element `for.vec` probes its first two
/// trips — the region's verdict is in the statistics the engines must
/// agree on.
#[test]
fn lane_kernels_match_the_oracle_on_affine_runs() {
    let cpu = |warp_width| DeviceSpec {
        warp_width,
        max_threads_per_block: 256,
        ..DeviceSpec::e5_2630v3()
    };
    let all = [1usize, 31, 32, 48, 64, 256];
    let specs = [
        (DeviceSpec::k20(), 1, &all[..]),
        (cpu(1), 3, &all[1..4]),
        (cpu(32), 3, &all[2..5]),
    ];
    for (v, (spec, elems, lanes)) in specs.into_iter().enumerate() {
        for &lanes in lanes {
            let word =
                |j: u64| (lanes as u64 * 31 + v as u64 + j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let seed: Vec<u64> = (1..6).map(word).collect();
            lane_mem_sweep(&spec, lanes, elems, &seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every compute op x {uniform, varying} per operand x mask shape x
    /// lane count, on edge-heavy data, with and without a store that runs
    /// out of bounds part-way through the block: the lane kernels must
    /// reproduce the reference engine's buffers, `LaunchStats`, modelled
    /// time and error text (block and thread coordinates included).
    #[test]
    fn lane_kernels_match_the_oracle(
        varying in 0u32..8,
        mask in 0u32..5,
        lanes in 0usize..6,
        oob in 0usize..3,
        seed in proptest::collection::vec(any::<u64>(), 8..16),
    ) {
        let spec = DeviceSpec::k20();
        let lanes = [1usize, 31, 32, 48, 64, 256][lanes];
        let wd = WorkDiv::d1(2, lanes, 1);
        // 0: in bounds; otherwise the top third / all lanes fall off the end.
        let shift = [0, lanes.div_ceil(3), lanes][oob] as i64;
        for (tys, res, make) in every_op() {
            let prog = op_program(&tys, res, &*make, varying, mask);
            alpaka_kir::validate(&prog).unwrap();
            let got = assert_outcomes_agree(
                &spec,
                &prog,
                &wd,
                || op_setup(lanes, shift, &seed),
                None,
                resolve_sim_threads(1),
                &alpaka_kir::print_program(&prog),
            );
            // In bounds nothing faults; shifted by a whole block every
            // active lane does (a mask may leave a small block idle).
            prop_assert!(oob != 0 || got.is_ok(), "{got:?}");
            prop_assert!(oob != 2 || mask != 0 || got.is_err(), "{got:?}");
        }
    }
}

/// One DAXPY launch on the E5 model at one thread per block — the shape
/// whose tail-guarded element loop the compiled tier fuses.
fn guarded_daxpy(
    n: i64,
    blocks: usize,
    setup: impl Fn() -> (DeviceMem, SimArgs),
    faults: Option<LaunchFaults>,
    what: &str,
) -> Outcome {
    let wd = WorkDiv::d1(blocks, 1, 64);
    let mut prog = trace_kernel(&Daxpy, 1);
    optimize(&mut prog);
    let with_n = || {
        let (mem, mut args) = setup();
        args.params_i = vec![n];
        (mem, args)
    };
    // A watchdog budget is per interpreter thread: the fuel levels tested
    // are budgets of the whole launch, so a watched launch runs serially.
    let watched = faults.is_some_and(|f| f.watchdog_fuel.is_some());
    let threads = if watched { 1 } else { resolve_sim_threads(1) };
    let spec = DeviceSpec::e5_2630v3();
    assert_outcomes_agree(&spec, &prog, &wd, with_n, faults, threads, what)
}

#[test]
fn guarded_fusion_matches_the_oracle() {
    let len = 256usize;
    let blocks = len / 64;
    let full = || daxpy_setup(len);
    // Guard never, partly (n inside block 1) and always taken.
    for n in [0, 100, 256, 1 << 40] {
        let ok = guarded_daxpy(n.min(len as i64), blocks, full, None, "in bounds");
        assert!(ok.is_ok(), "n={n}: {ok:?}");
    }
    // Out of bounds inside the guard: n promises more than the buffers hold.
    let short = guarded_daxpy(300, 5, full, None, "oob inside the guard");
    assert!(short.unwrap_err().contains("out of bounds (len 256)"));
    // Fuel is per launch: the four blocks burn some 800 units when no
    // guard is taken and under 2000 when all are. 850 covers n = 0 but not
    // the all-taken bound of its last two loops (the fused path must step
    // aside, not fail); 700 and 1000 run dry mid-loop.
    for (n, fuel, ok) in [
        (0, 850, true),
        (0, 700, false),
        (256, 1000, false),
        (256, 2000, true),
    ] {
        let faults = LaunchFaults {
            ecc: None,
            watchdog_fuel: Some(fuel),
        };
        let got = guarded_daxpy(n, blocks, full, Some(faults), "watchdog");
        assert_eq!(got.is_ok(), ok, "n={n} fuel={fuel}: {got:?}");
    }
    // Injected ECC on the loads inside the guard.
    let plan = FaultPlan {
        ecc_rate: 0.02,
        ..FaultPlan::quiet(7)
    };
    let faults = LaunchFaults {
        ecc: plan.ecc_ctx(0),
        watchdog_fuel: None,
    };
    let ecc = guarded_daxpy(256, blocks, full, Some(faults), "ecc inside the guard");
    assert!(ecc.unwrap_err().contains("uncorrectable ECC"));
    // An unbound buffer slot only matters once a guard is taken.
    let unbound = || {
        let (mem, mut args) = daxpy_setup(len);
        args.bufs_f.truncate(1);
        (mem, args)
    };
    assert!(guarded_daxpy(0, blocks, unbound, None, "unbound, never touched").is_ok());
    let hit = guarded_daxpy(256, blocks, unbound, None, "unbound, touched");
    assert!(hit.unwrap_err().contains("slot 1 not bound"));
    // The vectorization probe's first two iterations straddle the guard in
    // block 1 (element 64 is in, 65 is out): the address logs differ in
    // length, so that block's region must not count as vectorized.
    let (stats, ..) = guarded_daxpy(65, 2, full, None, "probe straddles").unwrap();
    let (all, ..) = guarded_daxpy(128, 2, full, None, "probe inside").unwrap();
    assert!(stats.scalar_issue > 0 && stats.vec_issue > 0, "{stats:?}");
    assert!(all.vec_issue > stats.vec_issue, "{all:?}");
}

/// What [`March`] puts around its `while`: nothing, a plain `for`, a `for.vec`
/// that probes for vectorization, or another `while` — which the compiled
/// tier interprets, with the inner loop still a step list.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Around {
    Nothing,
    For,
    ForVec,
    While,
}

/// The marching-loop shape of the ASE kernel, every number a parameter:
/// `k = start; while k < end + block * skew { acc += x[k * m + b + e];
/// if k % gm < gt { y[k * sm + sb] = acc }; k += 1 }`, repeated for `e` in
/// `0..reps` by whatever is [`Around`] it, then `out[block] = acc`.
/// `varying` starts `k` at `start + tid`: zero more at one thread per block,
/// but a condition the lowering cannot call uniform.
struct March {
    around: Around,
    varying: bool,
}

impl Kernel for March {
    fn name(&self) -> &str {
        "march"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let (x, out, y) = (o.buf_f(0), o.buf_f(1), o.buf_f(2));
        let p: Vec<O::I> = (0..10).map(|s| o.param_i(s)).collect();
        let (block, tid) = (o.block_idx(0), o.thread_idx(0));
        let (zero, one, zero_f) = (o.lit_i(0), o.lit_i(1), o.lit_f(0.0));
        let skew = o.mul_i(block, p[2]);
        let end = o.add_i(p[1], skew);
        let start = if self.varying {
            o.add_i(p[0], tid)
        } else {
            p[0]
        };
        let (k, acc) = (o.var_i(start), o.var_f(zero_f));
        let march = |o: &mut O, e: O::I| {
            o.vset_i(k, start);
            o.while_(
                |o| {
                    let kv = o.vget_i(k);
                    o.lt_i(kv, end)
                },
                |o| {
                    let kv = o.vget_i(k);
                    let i = o.mul_i(kv, p[3]);
                    let i = o.add_i(i, p[4]);
                    let i = o.add_i(i, e);
                    let (v, a) = (o.ld_gf(x, i), o.vget_f(acc));
                    let a = o.add_f(a, v);
                    o.vset_f(acc, a);
                    let r = o.rem_i(kv, p[5]);
                    let c = o.lt_i(r, p[6]);
                    o.if_(c, |o| {
                        let j = o.mul_i(kv, p[7]);
                        let j = o.add_i(j, p[8]);
                        o.st_gf(y, j, a);
                    });
                    let kn = o.add_i(kv, one);
                    o.vset_i(k, kn);
                },
            );
        };
        match self.around {
            Around::Nothing => march(o, zero),
            Around::For => o.for_range(zero, p[9], march),
            Around::ForVec => o.for_elements(0, march),
            Around::While => {
                let e = o.var_i(zero);
                o.while_(
                    |o| {
                        let ev = o.vget_i(e);
                        o.lt_i(ev, p[9])
                    },
                    |o| {
                        let ev = o.vget_i(e);
                        march(o, ev);
                        let en = o.add_i(ev, one);
                        o.vset_i(e, en);
                    },
                );
            }
        }
        let total = o.vget_f(acc);
        o.st_gf(out, block, total);
    }
}

#[test]
fn while_fusion_matches_the_oracle() {
    const LEN: i64 = 71 * 71;
    let spec = DeviceSpec::e5_2630v3();
    // `[start, end, skew, m, b, gm, gt, sm, sb, reps]`
    type Params = [i64; 10];
    let run = |around, varying, p: Params, faults: Option<LaunchFaults>, bufs: usize| {
        let elems = if around == Around::ForVec { p[9] } else { 1 };
        let wd = WorkDiv::d1(2, 1, elems as usize);
        let mut prog = trace_kernel(&March { around, varying }, 1);
        optimize(&mut prog);
        let setup = || {
            let (mem, mut args) = dgemm_setup(71);
            args.bufs_f.truncate(bufs);
            args.params_i = p.to_vec();
            (mem, args)
        };
        let what = format!("{around:?} varying={varying} {p:?} {faults:?}");
        // Serially: both blocks store to the same elements of `y`, a race
        // once they run on separate threads.
        assert_outcomes_agree(&spec, &prog, &wd, setup, faults, 1, &what)
    };
    let all = [Around::Nothing, Around::For, Around::ForVec, Around::While];
    // 40 trips in block 0 and 43 in block 1, the guard taken every other.
    let unit: Params = [0, 40, 3, 1, 0, 2, 1, 1, 0, 3];
    let with = |at: usize, v: &[i64]| {
        let mut p = unit;
        p[at..at + v.len()].copy_from_slice(v);
        p
    };
    let watchdog = |fuel| LaunchFaults {
        ecc: None,
        watchdog_fuel: Some(fuel),
    };
    for around in all {
        for varying in [false, true] {
            // Zero, one, two and many trips, an end below the start; the
            // guard never, always and sometimes taken.
            for (s, e) in [(5, 5), (5, 6), (5, 7), (0, 40), (9, 2)] {
                for g in [[1, 0], [1, 1], [2, 1], [3, 2]] {
                    let mut p = with(5, &g);
                    (p[0], p[1]) = (s, e);
                    let got = run(around, varying, p, None, 3);
                    assert!(got.is_ok(), "{around:?} {p:?}: {got:?}");
                }
            }
        }
        // The first, a middle and the last iteration out of bounds, in the
        // load and in the store behind the guard: the fault names the index
        // of that iteration.
        for (p, text) in [
            (with(4, &[-1]), "ld.global.f64: index -1 out of"),
            (with(4, &[LEN - 20]), "ld.global.f64: index 5041 out of"),
            (
                with(2, &[0, 1, LEN - 39]),
                "ld.global.f64: index 5041 out of",
            ),
            (with(8, &[-2]), "st.global.f64: index -2 out of"),
            (with(8, &[LEN - 20]), "st.global.f64: index 5041 out of"),
            (
                with(2, &[0, 1, 0, 1, 1, 1, LEN - 39]),
                "st.global.f64: index 5041 out of",
            ),
        ] {
            let got = run(around, true, p, None, 3);
            assert!(
                got.clone().unwrap_err().contains(text),
                "{around:?}: {got:?}"
            );
        }
        let ecc = LaunchFaults {
            ecc: FaultPlan {
                ecc_rate: 0.2,
                ..FaultPlan::quiet(7)
            }
            .ecc_ctx(0),
            watchdog_fuel: None,
        };
        let got = run(around, false, unit, Some(ecc), 3);
        assert!(got.unwrap_err().contains("uncorrectable ECC"), "{around:?}");
        // An unbound y only matters once the guard is taken.
        assert!(run(around, false, with(5, &[1, 0]), None, 2).is_ok());
        let got = run(around, false, unit, None, 2);
        assert!(got.unwrap_err().contains("slot 2 not bound"), "{around:?}");
    }
    // Every fuel level from nothing to plenty, six trips per block: among
    // them the ones that run dry mid-iteration, that pay for exactly `k`
    // iterations with every guard taken, and for `k` iterations and the
    // final condition only. Running out must not depend on the engine.
    for around in [Around::Nothing, Around::While] {
        for g in [[1, 1], [2, 1]] {
            let mut p = with(5, &g);
            (p[1], p[2], p[9]) = (6, 0, 2);
            let ok: Vec<bool> = (0..800)
                .map(|fuel| run(around, false, p, Some(watchdog(fuel)), 3).is_ok())
                .collect();
            let first = ok.iter().position(|&ok| ok).expect("800 units are plenty");
            assert!(first > 100 && ok[first..].iter().all(|&ok| ok), "{first}");
        }
    }
    // The probe. Inside a probing `for.vec` the whole `while` is one segment
    // of the element iteration that holds it: its loads stride by two, yet
    // from one element to the next every address moves by one — vectorized.
    // 2100 trips overflow the 4096-entry log and seal it.
    let strided = with(2, &[0, 2]);
    let (vec, ..) = run(Around::ForVec, false, strided, None, 3).unwrap();
    let (sealed, ..) = run(
        Around::ForVec,
        false,
        with(1, &[2100, 0, 2, 0, 1, 1]),
        None,
        3,
    )
    .unwrap();
    let (plain, ..) = run(Around::For, false, strided, None, 3).unwrap();
    assert!(
        vec.vec_issue > 0 && sealed.vec_issue == 0 && plain.vec_issue == 0,
        "{vec:?} {sealed:?} {plain:?}"
    );
}

/// How [`Streams`] wraps its loop: a plain `for`, a `for.vec` that drives
/// its own vectorization probe, or a plain `for` inside a probing `for.vec`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Wrap {
    Range,
    Vec,
    Nested,
}

/// One loop through all three memory spaces, every index `(k * m1) * m2 + b`
/// with its own `(m1, m2, b)` from the i64 parameters (two multiplies, so
/// that a product can wrap and its inverse bring it back):
/// `v = x[..]; sh[..] = v; w = sh[..]; acc[..] += v * w; y[..] = acc[..]`.
/// `Tainted`: the stored value also reads the shared index — a non-index use
/// of a counter-dependent value, which must keep the loop off cursors.
/// `Dot`: the inner product `sum += x[..] * y[..]` instead, and after the
/// loop `y[STREAMS_LEN - 1] = sum` — a cell no in-bounds stream of the test
/// reads, so blocks interpreted in parallel do not race on it.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Body {
    Spaces,
    Tainted,
    Dot,
}

struct Streams {
    wrap: Wrap,
    body: Body,
}

/// Elements in each of [`Streams`]' two buffers.
const STREAMS_LEN: usize = 4200;

impl Kernel for Streams {
    fn name(&self) -> &str {
        "streams"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let (x, y) = (o.buf_f(0), o.buf_f(1));
        let (sh, acc) = (o.shared_f(64), o.local_f(64));
        let p: Vec<O::I> = (0..14).map(|s| o.param_i(s)).collect();
        let zero = o.lit_f(0.0);
        let sum = o.var_f(zero);
        let kind = self.body;
        let mut body = |o: &mut O, k: O::I| {
            let at = |o: &mut O, j: usize| {
                let t = o.mul_i(k, p[j]);
                let t = o.mul_i(t, p[j + 1]);
                o.add_i(t, p[j + 2])
            };
            let xi = at(o, 2);
            let v = o.ld_gf(x, xi);
            if kind == Body::Dot {
                let yi = at(o, 11);
                let w = o.ld_gf(y, yi);
                let s = o.vget_f(sum);
                let nx = o.fma_f(v, w, s);
                return o.vset_f(sum, nx);
            }
            let si = at(o, 5);
            o.st_sf(sh, si, v);
            let w = o.ld_sf(sh, si);
            let li = at(o, 8);
            let cur = o.ld_lf(acc, li);
            let nx = o.fma_f(v, w, cur);
            o.st_lf(acc, li, nx);
            let yi = at(o, 11);
            let out = if kind == Body::Tainted {
                let t = o.i2f(si);
                o.add_f(nx, t)
            } else {
                nx
            };
            o.st_gf(y, yi, out);
        };
        match self.wrap {
            Wrap::Range => o.for_range(p[0], p[1], body),
            Wrap::Vec => o.for_elements(0, body),
            Wrap::Nested => o.for_elements(0, |o, _| o.for_range(p[0], p[1], &mut body)),
        }
        if kind == Body::Dot {
            let (at, total) = (o.lit_i(STREAMS_LEN as i64 - 1), o.vget_f(sum));
            o.st_gf(y, at, total);
        }
    }
}

/// Multiplicative inverse of an odd `a` modulo 2^64 (Newton iteration).
fn inverse_mod_2_64(a: i64) -> i64 {
    let mut x = a;
    for _ in 0..6 {
        x = x.wrapping_mul(2i64.wrapping_sub(a.wrapping_mul(x)));
    }
    assert_eq!(a.wrapping_mul(x), 1);
    x
}

#[test]
fn affine_streams_match_the_oracle() {
    const LEN: usize = STREAMS_LEN;
    let spec = DeviceSpec::e5_2630v3();
    // `[start, end, x: (m1, m2, b), sh: .., acc: .., y: ..]`
    type Params = [i64; 14];
    let run = |wrap: Wrap, body: Body, p: Params, faults: Option<LaunchFaults>, bufs: usize| {
        // `for.vec` trips are the element extent; the rest read start/end.
        let elems = match wrap {
            Wrap::Range => 1,
            Wrap::Vec => (p[1] - p[0]).max(1) as usize,
            Wrap::Nested => 3,
        };
        let wd = WorkDiv::d1(2, 1, elems);
        let mut prog = trace_kernel(&Streams { wrap, body }, 1);
        optimize(&mut prog);
        let setup = || {
            let (mut mem, mut args) = daxpy_setup(LEN);
            // Two NaNs that meet in the unit-stride inner product at k = 1:
            // which payload survives depends on the factors' order.
            mem.f_mut(args.bufs_f[0])[1] = f64::from_bits(0x7ff8_0000_0000_0001);
            mem.f_mut(args.bufs_f[1])[8] = f64::from_bits(0x7ff8_0000_0000_0002);
            args.bufs_f.truncate(bufs);
            args.params_i = p.to_vec();
            (mem, args)
        };
        let what = format!("{wrap:?} {body:?} {p:?}");
        let threads = resolve_sim_threads(1);
        assert_outcomes_agree(&spec, &prog, &wd, setup, faults, threads, &what)
    };
    let ok = |wrap, p: Params| {
        let got = run(wrap, Body::Spaces, p, None, 2);
        assert!(got.is_ok(), "{wrap:?} {p:?}: {got:?}");
        assert!(run(wrap, Body::Dot, p, None, 2).is_ok(), "{wrap:?} {p:?}");
        got.unwrap()
    };
    let unit: Params = [0, 40, 1, 1, 0, 1, 1, 3, 1, 1, 5, 1, 1, 7];
    let with = |at: usize, v: [i64; 3]| {
        let mut p = unit;
        p[at..at + 3].copy_from_slice(&v);
        p
    };
    // A product that wraps and the inverse that undoes it: stride 1 for x,
    // the shared and the local array, 3 for y.
    let a = 0x9E37_79B9_7F4A_7C15u64 as i64;
    let b = inverse_mod_2_64(a);
    let wrapping: Params = [0, 40, a, b, 2, a, b, 0, b, a, 1, a, b.wrapping_mul(3), 0];
    let strides: [Params; 5] = [
        unit,
        // Negative: x and the shared array walk down, y down by two.
        [0, 40, -1, 1, 39, 1, -1, 63, -1, -1, 5, -2, 1, 100],
        // Zero: every iteration hits the same elements.
        [0, 40, 0, 1, 9, 1, 0, 2, 0, 0, 0, 0, 7, 11],
        wrapping,
        // A start other than zero.
        [3, 43, 2, 1, 0, 1, 1, 3, 1, 1, 5, 1, 3, 7],
    ];
    for wrap in [Wrap::Range, Wrap::Vec, Wrap::Nested] {
        for p in strides {
            // `for.vec` counts from zero.
            if wrap != Wrap::Vec || p[0] == 0 {
                ok(wrap, p);
            }
        }
        // Zero, one, two trips, an end below the start, and trip counts
        // around the eight at which a loop starts to run fused.
        for (s, e) in [
            (5, 5),
            (5, 6),
            (5, 7),
            (0, 1),
            (0, 2),
            (9, 2),
            (0, 7),
            (0, 8),
            (5, 14),
        ] {
            if wrap != Wrap::Vec || s == 0 {
                let mut p = unit;
                (p[0], p[1]) = (s, e);
                ok(wrap, p);
            }
        }
        // The first, a middle and the last iteration out of bounds, in each
        // space: the fault must name that iteration's index.
        for (p, text) in [
            (
                with(2, [1, 1, -1]),
                "ld.global.f64: index -1 out of bounds (len 4200)",
            ),
            (
                with(2, [105, 1, 105]),
                "ld.global.f64: index 4200 out of bounds (len 4200)",
            ),
            (
                with(5, [2, 1, 0]),
                "st.shared.f64: index 64 out of bounds (len 64)",
            ),
            (
                with(5, [-1, 1, 38]),
                "st.shared.f64: index -1 out of bounds (len 64)",
            ),
            (
                with(8, [1, 1, 25]),
                "ld.local.f64: index 64 out of bounds (len 64)",
            ),
            (
                with(11, [1, 1, 4161]),
                "st.global.f64: index 4200 out of bounds (len 4200)",
            ),
            // k * (2^63 + 1) is k for even k and far below zero for odd k.
            (
                with(2, [i64::MIN + 1, 1, 0]),
                "ld.global.f64: index -9223372036854775807 out of bounds",
            ),
        ] {
            let got = run(wrap, Body::Spaces, p, None, 2);
            assert!(got.clone().unwrap_err().contains(text), "{wrap:?}: {got:?}");
            // The inner product reads x and y only.
            let global = text.contains("global");
            assert_eq!(
                run(wrap, Body::Dot, p, None, 2).is_err(),
                global,
                "{wrap:?}"
            );
        }
        // A non-index read of a counter-dependent value.
        for p in [unit, wrapping] {
            assert!(run(wrap, Body::Tainted, p, None, 2).is_ok());
        }
        // Injected ECC on the loads of x, fuel running dry mid-loop, and an
        // unbound y hit by the first store.
        let ecc = LaunchFaults {
            ecc: FaultPlan {
                ecc_rate: 0.2,
                ..FaultPlan::quiet(7)
            }
            .ecc_ctx(0),
            watchdog_fuel: None,
        };
        for body in [Body::Spaces, Body::Dot] {
            let got = run(wrap, body, unit, Some(ecc), 2);
            assert!(got.unwrap_err().contains("uncorrectable ECC"), "{wrap:?}");
        }
        for (fuel, fits) in [(300, false), (100_000, true)] {
            let dry = LaunchFaults {
                ecc: None,
                watchdog_fuel: Some(fuel),
            };
            let got = run(wrap, Body::Spaces, unit, Some(dry), 2);
            assert_eq!(got.is_ok(), fits, "{wrap:?} fuel={fuel}: {got:?}");
        }
        let got = run(wrap, Body::Spaces, unit, None, 1);
        assert!(got.unwrap_err().contains("slot 1 not bound"), "{wrap:?}");
    }
    // The probe. A loop driving its own region logs its first iteration and
    // its second apart: unit strides vectorize, y's stride of 3 does not.
    let (vec, ..) = ok(Wrap::Vec, unit);
    let (not, ..) = ok(Wrap::Vec, wrapping);
    assert!(vec.vec_issue > 0 && not.vec_issue == 0, "{vec:?} {not:?}");
    // Inside a probing region one log takes the whole loop: 40 trips repeat
    // address for address from the region's first iteration to its second,
    // 2100 trips overflow the 4096-entry log and seal it.
    let (short, ..) = ok(Wrap::Nested, unit);
    let long: Params = [0, 2100, 1, 1, 0, 0, 1, 3, 0, 1, 5, 1, 1, 7];
    let (sealed, ..) = ok(Wrap::Nested, long);
    assert!(
        short.vec_issue > 0 && sealed.vec_issue == 0,
        "{short:?} {sealed:?}"
    );
}

/// A lane that has left a per-lane `for` keeps having its trip test
/// evaluated while its neighbours iterate; with bounds next to `i64::MAX`
/// that test used to overflow (debug: panic; release: the finished lane
/// re-entered with a wrapped counter).
#[test]
fn finished_lane_next_to_i64_max_stays_out_of_the_loop() {
    use alpaka_kir::eval::{eval_thread_fuel, EvalInputs, EvalMem, SpecialValues};

    struct Trips;
    impl Kernel for Trips {
        fn name(&self) -> &str {
            "trips"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let out = o.buf_i(0);
            let tid = o.thread_idx(0);
            let zero = o.lit_i(0);
            let first = o.eq_i(tid, zero);
            let (big, max, n) = (o.lit_i(i64::MAX - 1), o.lit_i(i64::MAX), o.lit_i(1000));
            let start = o.select_i(first, big, zero);
            let end = o.select_i(first, max, n);
            let acc = o.var_i(zero);
            o.for_range(start, end, |o, k| {
                let a = o.vget_i(acc);
                let s = o.add_i(a, k);
                o.vset_i(acc, s);
            });
            let total = o.vget_i(acc);
            o.st_gi(out, tid, total);
        }
    }
    let wd = WorkDiv::d1(1, 2, 1);
    let mut prog = trace_kernel(&Trips, 1);
    optimize(&mut prog);
    let setup = || {
        let mut mem = DeviceMem::new();
        let out = mem.alloc_i(2);
        let args = SimArgs {
            bufs_f: vec![],
            bufs_i: vec![out],
            params_f: vec![],
            params_i: vec![],
        };
        (mem, args)
    };
    let (k20, threads) = (DeviceSpec::k20(), resolve_sim_threads(1));
    let got = assert_outcomes_agree(&k20, &prog, &wd, setup, None, threads, "trips");
    let want = vec![i64::MAX as u64 - 1, 499_500];
    assert_eq!(got.unwrap().2, vec![want.clone()]);

    // The per-thread evaluator iterates each lane on its own.
    let mut emem = EvalMem {
        bufs_f: vec![],
        bufs_i: vec![vec![0; 2]],
    };
    for t in 0..2 {
        let inp = EvalInputs {
            params_f: &[],
            params_i: &[],
            special: SpecialValues {
                grid_blocks: [1, 1, 1],
                block_threads: [1, 1, 2],
                thread_elems: [1, 1, 1],
                block_idx: [0, 0, 0],
                thread_idx: [0, 0, t],
            },
        };
        eval_thread_fuel(&prog, &inp, &mut emem, 1_000_000).unwrap();
    }
    assert_eq!(
        emem.bufs_i[0].iter().map(|v| *v as u64).collect::<Vec<_>>(),
        want
    );
}
