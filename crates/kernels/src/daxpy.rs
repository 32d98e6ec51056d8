//! DAXPY and vector addition — the paper's Section 4.1 kernels.
//!
//! Argument convention (all variants):
//! * f64 buffers: slot 0 = `x`, slot 1 = `y` (in/out)
//! * f64 scalars: slot 0 = `alpha`
//! * i64 scalars: slot 0 = `n`

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

/// The generic Alpaka-style DAXPY: computes its base index from the
/// abstraction-model queries and walks the *element level* with a tail
/// guard. This single source runs on every back-end and work division.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaxpyKernel;

impl Kernel for DaxpyKernel {
    fn name(&self) -> &str {
        "daxpy"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let alpha = o.param_f(0);
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
                let r = o.fma_f(xv, alpha, yv);
                o.st_gf(y, i, r);
            });
        });
    }
}

/// The "native CUDA" DAXPY of the Fig. 4 comparison: index computed by
/// hand from the raw built-in registers, no element loop — exactly how the
/// paper's hand-written CUDA kernel reads. Only correct for work divisions
/// with one element per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaxpyNativeStyle;

impl Kernel for DaxpyNativeStyle {
    fn name(&self) -> &str {
        "daxpy"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let alpha = o.param_f(0);
        let n = o.param_i(0);
        let bi = o.block_idx(0);
        let bd = o.block_thread_extent(0);
        let ti = o.thread_idx(0);
        let t = o.mul_i(bi, bd);
        let i = o.add_i(t, ti);
        let c = o.lt_i(i, n);
        o.if_(c, |o| {
            let xv = o.ld_gf(x, i);
            let yv = o.ld_gf(y, i);
            let r = o.fma_f(xv, alpha, yv);
            o.st_gf(y, i, r);
        });
    }
}

/// Element-wise vector addition `z = x + y` (the quickstart kernel).
///
/// Buffers: 0 = `x`, 1 = `y`, 2 = `z`; i64 scalar 0 = `n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct VecAddKernel;

impl Kernel for VecAddKernel {
    fn name(&self) -> &str {
        "vecadd"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let z = o.buf_f(2);
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
                let r = o.add_f(xv, yv);
                o.st_gf(z, i, r);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{daxpy_ref, random_vec};
    use alpaka::{AccKind, Args, BufLayout, Device};

    fn run_daxpy_on(kind: AccKind, n: usize) -> Vec<f64> {
        let dev = Device::with_workers(kind, 4);
        let x = dev.alloc_f64(BufLayout::d1(n));
        let y = dev.alloc_f64(BufLayout::d1(n));
        x.upload(&random_vec(n, 7)).unwrap();
        y.upload(&random_vec(n, 8)).unwrap();
        let wd = dev.suggest_workdiv_1d(n);
        let args = Args::new()
            .buf_f(&x)
            .buf_f(&y)
            .scalar_f(3.25)
            .scalar_i(n as i64);
        dev.launch(&DaxpyKernel, &wd, &args).unwrap();
        y.download()
    }

    #[test]
    fn daxpy_matches_reference_on_all_backends() {
        let n = 501;
        let mut want = random_vec(n, 8);
        daxpy_ref(3.25, &random_vec(n, 7), &mut want);
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        kinds.push(AccKind::sim_e5_2630v3());
        for kind in kinds {
            let got = run_daxpy_on(kind.clone(), n);
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn native_style_matches_generic_with_v1() {
        let n = 256;
        let dev = Device::new(AccKind::sim_k20());
        let wd = alpaka_core::workdiv::WorkDiv::d1(2, 128, 1);
        let mk = |kernel_is_native: bool| {
            let x = dev.alloc_f64(BufLayout::d1(n));
            let y = dev.alloc_f64(BufLayout::d1(n));
            x.upload(&random_vec(n, 1)).unwrap();
            y.upload(&random_vec(n, 2)).unwrap();
            let args = Args::new()
                .buf_f(&x)
                .buf_f(&y)
                .scalar_f(1.5)
                .scalar_i(n as i64);
            if kernel_is_native {
                dev.launch(&DaxpyNativeStyle, &wd, &args).unwrap();
            } else {
                dev.launch(&DaxpyKernel, &wd, &args).unwrap();
            }
            y.download()
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn vecadd_quickstart() {
        let n = 100;
        let dev = Device::new(AccKind::CpuSerial);
        let x = dev.alloc_f64(BufLayout::d1(n));
        let y = dev.alloc_f64(BufLayout::d1(n));
        let z = dev.alloc_f64(BufLayout::d1(n));
        x.upload(&vec![1.0; n]).unwrap();
        y.upload(&vec![2.0; n]).unwrap();
        let wd = dev.suggest_workdiv_1d(n);
        let args = Args::new().buf_f(&x).buf_f(&y).buf_f(&z).scalar_i(n as i64);
        dev.launch(&VecAddKernel, &wd, &args).unwrap();
        assert_eq!(z.download(), vec![3.0; n]);
    }
}
