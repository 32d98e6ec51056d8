//! Histogram with block-private shared-memory bins — the canonical
//! atomics-pressure kernel.
//!
//! Each block accumulates into a shared-memory histogram with (cheap,
//! block-local) serialization, then flushes its bins to the global
//! histogram with one atomic per bin — far fewer global atomics than the
//! naive per-sample version ([`HistogramGlobalAtomics`], kept as the
//! ablation baseline).
//!
//! Arguments: f64 buffer 0 = samples; i64 buffer 0 = bins (out); f64
//! scalars 0 = lo, 1 = hi; i64 scalars 0 = n, 1 = n_bins.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

fn bin_index<O: KernelOps>(o: &mut O, x: O::F, lo: O::F, hi: O::F, n_bins: O::I) -> O::I {
    // bin = clamp(floor((x - lo) / (hi - lo) * n_bins), 0, n_bins-1)
    let span = o.sub_f(hi, lo);
    let rel = o.sub_f(x, lo);
    let unit = o.div_f(rel, span);
    let nbf = o.i2f(n_bins);
    let scaled = o.mul_f(unit, nbf);
    let fl = o.floor_f(scaled);
    let bi = o.f2i(fl);
    let zero = o.lit_i(0);
    let one = o.lit_i(1);
    let top = o.sub_i(n_bins, one);
    let lo_clamped = o.max_i(bi, zero);
    o.min_i(lo_clamped, top)
}

/// Naive version: one global atomic per sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramGlobalAtomics;

impl Kernel for HistogramGlobalAtomics {
    fn name(&self) -> &str {
        "histogram_global"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let samples = o.buf_f(0);
        let bins = o.buf_i(0);
        let lo = o.param_f(0);
        let hi = o.param_f(1);
        let n = o.param_i(0);
        let n_bins = o.param_i(1);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let x = o.ld_gf(samples, i);
                let b = bin_index(o, x, lo, hi, n_bins);
                let one = o.lit_i(1);
                let _ = o.atomic_add_gi(bins, b, one);
            });
        });
    }
}

/// Guard-free variant of [`HistogramGlobalAtomics`]: the sample count must
/// exactly equal `blocks * threads * elems`, so the element loop needs no
/// bounds `if` and its body is a single straight line — the shape the
/// simulator's compiled tier fuses into an atomic-scatter superop loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramGlobalExact;

impl Kernel for HistogramGlobalExact {
    fn name(&self) -> &str {
        "histogram_global_exact"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let samples = o.buf_f(0);
        let bins = o.buf_i(0);
        let lo = o.param_f(0);
        let hi = o.param_f(1);
        let n_bins = o.param_i(1);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let x = o.ld_gf(samples, i);
            let b = bin_index(o, x, lo, hi, n_bins);
            let one = o.lit_i(1);
            let _ = o.atomic_add_gi(bins, b, one);
        });
    }
}

/// Affine-index scatter-accumulate: `out[i + offset] += src[i]` with one
/// f64 atomic add per element. The extent must exactly cover `src` (no
/// guard), and `out` must hold `n + offset` elements. The atomic's index is
/// affine in the element counter, so the compiled tier folds the `add` into
/// the atomic superop — the fused scatter-accumulate loop body.
///
/// Arguments: f64 buffer 0 = src, f64 buffer 1 = out; i64 scalar 0 =
/// offset.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScatterAddAffine;

impl Kernel for ScatterAddAffine {
    fn name(&self) -> &str {
        "scatter_add_affine"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let src = o.buf_f(0);
        let out = o.buf_f(1);
        let offset = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let x = o.ld_gf(src, i);
            let j = o.add_i(i, offset);
            let _ = o.atomic_add_gf(out, j, x);
        });
    }
}

/// Shared-memory privatized version. `n_bins` must equal the struct's
/// `bins` (shared allocation is host-side).
#[derive(Debug, Clone, Copy)]
pub struct HistogramShared {
    pub bins: usize,
}

impl Kernel for HistogramShared {
    fn name(&self) -> &str {
        "histogram_shared"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let samples = o.buf_f(0);
        let bins = o.buf_i(0);
        let lo = o.param_f(0);
        let hi = o.param_f(1);
        let n = o.param_i(0);
        let n_bins = o.param_i(1);
        let sh = o.shared_i(self.bins);
        let tid = o.thread_idx(0);
        let bdim = o.block_thread_extent(0);
        let bid = o.block_idx(0);
        let v = o.thread_elem_extent(0);
        // Zero the shared bins cooperatively.
        let nb = o.lit_i(self.bins as i64);
        let zero = o.lit_i(0);
        let clear = o.var_i(tid);
        o.while_(
            |o| {
                let cv = o.vget_i(clear);
                o.lt_i(cv, nb)
            },
            |o| {
                let cv = o.vget_i(clear);
                let z = o.lit_i(0);
                o.st_si(sh, cv, z);
                let nx = o.add_i(cv, bdim);
                o.vset_i(clear, nx);
            },
        );
        o.sync_block_threads();
        // Accumulate this block's chunk into shared bins. Shared i64 cells
        // are not atomic in the DSL, so each thread serializes through its
        // OWN private strided sub-pass: thread t handles samples with
        // (index % bdim == t), guaranteeing disjoint... samples map to
        // arbitrary bins, so instead we serialize by round-robin phases:
        // phase p lets only thread p update the shared bins.
        // That is O(bdim) phases — fine for the modest block sizes the
        // ablation uses, and keeps the kernel portable without shared
        // atomics.
        let chunk = o.mul_i(bdim, v);
        let base = o.mul_i(bid, chunk);
        let phase = o.var_i(zero);
        o.while_(
            |o| {
                let pv = o.vget_i(phase);
                o.lt_i(pv, bdim)
            },
            |o| {
                let pv = o.vget_i(phase);
                let my_turn = o.eq_i(tid, pv);
                o.if_(my_turn, |o| {
                    let tv = o.mul_i(tid, v);
                    let tbase = o.add_i(base, tv);
                    let zero2 = o.lit_i(0);
                    o.for_range(zero2, v, |o, e| {
                        let i = o.add_i(tbase, e);
                        let c = o.lt_i(i, n);
                        o.if_(c, |o| {
                            let x = o.ld_gf(samples, i);
                            let b = bin_index(o, x, lo, hi, n_bins);
                            let cur = o.ld_si(sh, b);
                            let one = o.lit_i(1);
                            let nx = o.add_i(cur, one);
                            o.st_si(sh, b, nx);
                        });
                    });
                });
                o.sync_block_threads();
                let one = o.lit_i(1);
                let np = o.add_i(pv, one);
                o.vset_i(phase, np);
            },
        );
        // Flush shared bins to global with one atomic per bin per block.
        let flush = o.var_i(tid);
        o.while_(
            |o| {
                let fv = o.vget_i(flush);
                o.lt_i(fv, nb)
            },
            |o| {
                let fv = o.vget_i(flush);
                let count = o.ld_si(sh, fv);
                let z = o.lit_i(0);
                let nonzero = o.gt_i(count, z);
                o.if_(nonzero, |o| {
                    let _ = o.atomic_add_gi(bins, fv, count);
                });
                let nx = o.add_i(fv, bdim);
                o.vset_i(flush, nx);
            },
        );
    }
}

/// Host reference.
pub fn histogram_ref(samples: &[f64], lo: f64, hi: f64, n_bins: usize) -> Vec<i64> {
    let mut bins = vec![0i64; n_bins];
    for &x in samples {
        let b = (((x - lo) / (hi - lo) * n_bins as f64).floor() as i64).clamp(0, n_bins as i64 - 1)
            as usize;
        bins[b] += 1;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::random_vec;
    use alpaka::{AccKind, Args, BufLayout, Device, WorkDiv};

    #[test]
    fn global_atomics_histogram_everywhere() {
        let n = 3000usize;
        let samples = random_vec(n, 70); // values in [0, 10)
        let n_bins = 16usize;
        let want = histogram_ref(&samples, 0.0, 10.0, n_bins);
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        for kind in kinds {
            let dev = Device::with_workers(kind.clone(), 4);
            let s = dev.alloc_f64(BufLayout::d1(n));
            let b = dev.alloc_i64(BufLayout::d1(n_bins));
            s.upload(&samples).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new()
                .buf_f(&s)
                .buf_i(&b)
                .scalar_f(0.0)
                .scalar_f(10.0)
                .scalar_i(n as i64)
                .scalar_i(n_bins as i64);
            dev.launch(&HistogramGlobalAtomics, &wd, &args).unwrap();
            assert_eq!(b.download(), want, "{kind:?}");
        }
    }

    #[test]
    fn shared_histogram_matches_on_threaded_backends() {
        let n = 2000usize;
        let samples = random_vec(n, 71);
        let n_bins = 32usize;
        let want = histogram_ref(&samples, 0.0, 10.0, n_bins);
        for kind in [AccKind::CpuThreads, AccKind::CpuFibers, AccKind::sim_k20()] {
            let dev = Device::with_workers(kind.clone(), 4);
            let s = dev.alloc_f64(BufLayout::d1(n));
            let b = dev.alloc_i64(BufLayout::d1(n_bins));
            s.upload(&samples).unwrap();
            // 8 blocks x 16 threads x 16 elements covers 2048 >= n.
            let wd = WorkDiv::d1(8, 16, 16);
            let args = Args::new()
                .buf_f(&s)
                .buf_i(&b)
                .scalar_f(0.0)
                .scalar_f(10.0)
                .scalar_i(n as i64)
                .scalar_i(n_bins as i64);
            dev.launch(&HistogramShared { bins: n_bins }, &wd, &args)
                .unwrap();
            assert_eq!(b.download(), want, "{kind:?}");
        }
    }

    #[test]
    fn exact_fit_histogram_matches_reference_everywhere() {
        // 8 blocks x 4 threads x 16 elements = 512 samples, exact fit.
        let n = 512usize;
        let samples = random_vec(n, 73);
        let n_bins = 16usize;
        let want = histogram_ref(&samples, 0.0, 10.0, n_bins);
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        for kind in kinds {
            let dev = Device::with_workers(kind.clone(), 4);
            let s = dev.alloc_f64(BufLayout::d1(n));
            let b = dev.alloc_i64(BufLayout::d1(n_bins));
            s.upload(&samples).unwrap();
            // 32 blocks x 1 thread x 16 elements = 512, exact fit (and
            // 1-thread blocks are legal on every backend, serial included).
            let wd = WorkDiv::d1(32, 1, 16);
            let args = Args::new()
                .buf_f(&s)
                .buf_i(&b)
                .scalar_f(0.0)
                .scalar_f(10.0)
                .scalar_i(n as i64)
                .scalar_i(n_bins as i64);
            dev.launch(&HistogramGlobalExact, &wd, &args).unwrap();
            assert_eq!(b.download(), want, "{kind:?}");
        }
    }

    #[test]
    fn scatter_add_affine_matches_reference_everywhere() {
        let n = 256usize;
        let offset = 7usize;
        let src = random_vec(n, 74);
        let init: Vec<f64> = (0..n + offset).map(|i| i as f64 * 0.5).collect();
        let mut want = init.clone();
        for (i, &x) in src.iter().enumerate() {
            want[i + offset] += x;
        }
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        for kind in kinds {
            let dev = Device::with_workers(kind.clone(), 4);
            let s = dev.alloc_f64(BufLayout::d1(n));
            let o = dev.alloc_f64(BufLayout::d1(n + offset));
            s.upload(&src).unwrap();
            o.upload(&init).unwrap();
            // 16 blocks x 1 thread x 16 elements = 256, exact fit.
            let wd = WorkDiv::d1(16, 1, 16);
            let args = Args::new().buf_f(&s).buf_f(&o).scalar_i(offset as i64);
            dev.launch(&ScatterAddAffine, &wd, &args).unwrap();
            assert_eq!(o.download(), want, "{kind:?}");
        }
    }

    #[test]
    fn out_of_range_samples_clamp_to_edge_bins() {
        let samples = vec![-5.0, 100.0, 5.0];
        let want = histogram_ref(&samples, 0.0, 10.0, 4);
        assert_eq!(want, vec![1, 0, 1, 1]);
        let dev = Device::new(AccKind::CpuSerial);
        let s = dev.alloc_f64(BufLayout::d1(3));
        let b = dev.alloc_i64(BufLayout::d1(4));
        s.upload(&samples).unwrap();
        let args = Args::new()
            .buf_f(&s)
            .buf_i(&b)
            .scalar_f(0.0)
            .scalar_f(10.0)
            .scalar_i(3)
            .scalar_i(4);
        dev.launch(&HistogramGlobalAtomics, &WorkDiv::d1(3, 1, 1), &args)
            .unwrap();
        assert_eq!(b.download(), want);
    }

    #[test]
    fn shared_version_uses_fewer_global_atomics() {
        use alpaka::{time_launch, LaunchMode};
        let n = 4096usize;
        let n_bins = 32usize;
        let dev = Device::new(AccKind::sim_k20());
        let samples = random_vec(n, 72);
        let run = |shared: bool| {
            let s = dev.alloc_f64(BufLayout::d1(n));
            let b = dev.alloc_i64(BufLayout::d1(n_bins));
            s.upload(&samples).unwrap();
            let wd = WorkDiv::d1(8, 32, 16);
            let args = Args::new()
                .buf_f(&s)
                .buf_i(&b)
                .scalar_f(0.0)
                .scalar_f(10.0)
                .scalar_i(n as i64)
                .scalar_i(n_bins as i64);
            let timed = if shared {
                time_launch(
                    &dev,
                    &HistogramShared { bins: n_bins },
                    &wd,
                    &args,
                    LaunchMode::Exact,
                )
            } else {
                time_launch(&dev, &HistogramGlobalAtomics, &wd, &args, LaunchMode::Exact)
            }
            .unwrap();
            timed.report.unwrap().stats.atomics
        };
        let naive = run(false);
        let privatized = run(true);
        assert!(
            naive > privatized * 4,
            "shared bins must cut atomics: {naive} vs {privatized}"
        );
    }
}
