//! Dot product: fused element-level multiply + block-level tree reduction +
//! one atomic per block — all three reduction mechanisms in one kernel.
//!
//! Arguments: f64 buffers 0 = x, 1 = y, 2 = result (1 cell);
//! i64 scalar 0 = n. Block size must be a power of two.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::KernelOps;

/// `result[0] += sum_i x[i] * y[i]` over this launch's index space.
#[derive(Debug, Clone, Copy)]
pub struct DotKernel {
    /// Threads per block (power of two; matches the work division).
    pub block: usize,
}

impl Kernel for DotKernel {
    fn name(&self) -> &str {
        "dot"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        assert!(self.block.is_power_of_two());
        let x = o.buf_f(0);
        let y = o.buf_f(1);
        let result = o.buf_f(2);
        let n = o.param_i(0);
        let sh = o.shared_f(self.block);
        let tid = o.thread_idx(0);
        let bid = o.block_idx(0);
        let bdim = o.block_thread_extent(0);
        let v = o.thread_elem_extent(0);
        // Element level: each thread accumulates its contiguous slice.
        let gid = {
            let t = o.mul_i(bid, bdim);
            o.add_i(t, tid)
        };
        let base = o.mul_i(gid, v);
        let zf = o.lit_f(0.0);
        let part = o.fold_elements_f(0, zf, |o, e, acc| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            let z = o.lit_f(0.0);
            let term = o.var_f(z);
            o.if_(c, |o| {
                let xv = o.ld_gf(x, i);
                let yv = o.ld_gf(y, i);
                let p = o.mul_f(xv, yv);
                o.vset_f(term, p);
            });
            let t = o.vget_f(term);
            o.add_f(acc, t)
        });
        o.st_sf(sh, tid, part);
        o.sync_block_threads();
        // Block tree reduction.
        let two = o.lit_i(2);
        let s0 = o.div_i(bdim, two);
        let s = o.var_i(s0);
        o.while_(
            |o| {
                let sv = o.vget_i(s);
                let z = o.lit_i(0);
                o.gt_i(sv, z)
            },
            |o| {
                let sv = o.vget_i(s);
                let c = o.lt_i(tid, sv);
                o.if_(c, |o| {
                    let j = o.add_i(tid, sv);
                    let a = o.ld_sf(sh, tid);
                    let b = o.ld_sf(sh, j);
                    let sum = o.add_f(a, b);
                    o.st_sf(sh, tid, sum);
                });
                o.sync_block_threads();
                let two = o.lit_i(2);
                let nx = o.div_i(sv, two);
                o.vset_i(s, nx);
            },
        );
        // One atomic per block.
        let z = o.lit_i(0);
        let is0 = o.eq_i(tid, z);
        o.if_(is0, |o| {
            let z2 = o.lit_i(0);
            let total = o.ld_sf(sh, z2);
            let _ = o.atomic_add_gf(result, z2, total);
        });
    }
}

/// Host reference.
pub fn dot_ref(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::random_vec;
    use alpaka::{AccKind, Args, BufLayout, Device, WorkDiv};
    use alpaka_core::vec::div_ceil;

    #[test]
    fn dot_matches_reference_on_threaded_backends() {
        let n = 5000usize;
        let x = random_vec(n, 90);
        let y = random_vec(n, 91);
        let want = dot_ref(&x, &y);
        let block = 64usize;
        let v = 4usize;
        let blocks = div_ceil(n, block * v);
        for kind in [
            AccKind::CpuThreads,
            AccKind::CpuBlockThreads,
            AccKind::CpuFibers,
            AccKind::sim_k20(),
        ] {
            let dev = Device::with_workers(kind.clone(), 4);
            let xb = dev.alloc_f64(BufLayout::d1(n));
            let yb = dev.alloc_f64(BufLayout::d1(n));
            let rb = dev.alloc_f64(BufLayout::d1(1));
            xb.upload(&x).unwrap();
            yb.upload(&y).unwrap();
            let wd = WorkDiv::d1(blocks, block, v);
            let args = Args::new()
                .buf_f(&xb)
                .buf_f(&yb)
                .buf_f(&rb)
                .scalar_i(n as i64);
            dev.launch(&DotKernel { block }, &wd, &args).unwrap();
            let got = rb.download()[0];
            assert!(
                (got - want).abs() / want.abs() < 1e-12,
                "{kind:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn orthogonal_vectors_dot_to_zero() {
        let n = 128usize;
        let mut x = vec![0.0; n];
        let mut y = vec![0.0; n];
        for i in 0..n {
            if i % 2 == 0 {
                x[i] = 1.0;
            } else {
                y[i] = 1.0;
            }
        }
        let dev = Device::new(AccKind::sim_k20());
        let xb = dev.alloc_f64(BufLayout::d1(n));
        let yb = dev.alloc_f64(BufLayout::d1(n));
        let rb = dev.alloc_f64(BufLayout::d1(1));
        xb.upload(&x).unwrap();
        yb.upload(&y).unwrap();
        let args = Args::new()
            .buf_f(&xb)
            .buf_f(&yb)
            .buf_f(&rb)
            .scalar_i(n as i64);
        dev.launch(&DotKernel { block: 32 }, &WorkDiv::d1(2, 32, 2), &args)
            .unwrap();
        assert_eq!(rb.download()[0], 0.0);
    }
}
