//! Parallel sum reduction.
//!
//! Two single-source variants:
//! * [`ReduceBlocks`] — classic shared-memory tree per block, one partial
//!   per block written to the output buffer (finish on the host or with a
//!   second launch).
//! * [`ReduceAtomic`] — each thread accumulates its element range in a
//!   register and atomically adds the per-thread partial to `out[0]`.
//!
//! Arguments: f64 buffers 0 = input, 1 = output; i64 scalar 0 = n.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

/// Tree reduction in shared memory; requires a power-of-two block size.
/// Output buffer must hold one f64 per block.
#[derive(Debug, Clone, Copy)]
pub struct ReduceBlocks {
    /// Threads per block (power of two; must match the work division).
    pub block: usize,
}

impl Default for ReduceBlocks {
    fn default() -> Self {
        ReduceBlocks { block: 128 }
    }
}

impl Kernel for ReduceBlocks {
    fn name(&self) -> &str {
        "reduce_blocks"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        assert!(self.block.is_power_of_two(), "block size must be 2^k");
        let input = o.buf_f(0);
        let out = o.buf_f(1);
        let n = o.param_i(0);
        let sh = o.shared_f(self.block);
        let tid = o.thread_idx(0);
        let bid = o.block_idx(0);
        let bdim = o.block_thread_extent(0);
        let v = o.thread_elem_extent(0);
        // Each thread sums its strided element range first (grid-stride
        // over elements within the block's chunk).
        let chunk = o.mul_i(bdim, v);
        let base = {
            let b = o.mul_i(bid, chunk);
            o.add_i(b, tid)
        };
        let zf = o.lit_f(0.0);
        let p = o.fold_elements_f(0, zf, |o, e, acc| {
            let off = o.mul_i(e, bdim);
            let i = o.add_i(base, off);
            let c = o.lt_i(i, n);
            let zero = o.lit_f(0.0);
            let loaded = o.var_f(zero);
            o.if_(c, |o| {
                let x = o.ld_gf(input, i);
                o.vset_f(loaded, x);
            });
            let x = o.vget_f(loaded);
            o.add_f(acc, x)
        });
        o.st_sf(sh, tid, p);
        o.sync_block_threads();
        // Tree: s = block/2 .. 1
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
        let z = o.lit_i(0);
        let is0 = o.eq_i(tid, z);
        o.if_(is0, |o| {
            let z2 = o.lit_i(0);
            let total = o.ld_sf(sh, z2);
            o.st_gf(out, bid, total);
        });
    }
}

/// Atomic single-pass reduction into `out[0]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReduceAtomic;

impl Kernel for ReduceAtomic {
    fn name(&self) -> &str {
        "reduce_atomic"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let input = o.buf_f(0);
        let out = o.buf_f(1);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let zf = o.lit_f(0.0);
        let p = o.fold_elements_f(0, zf, |o, e, acc| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            let zero = o.lit_f(0.0);
            let loaded = o.var_f(zero);
            o.if_(c, |o| {
                let x = o.ld_gf(input, i);
                o.vset_f(loaded, x);
            });
            let x = o.vget_f(loaded);
            o.add_f(acc, x)
        });
        let z = o.lit_i(0);
        let _ = o.atomic_add_gf(out, z, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{random_vec, reduce_ref};
    use alpaka::{AccKind, Args, BufLayout, Device, WorkDiv};
    use alpaka_core::vec::div_ceil;

    #[test]
    fn block_tree_reduction_all_backends() {
        let n = 1000usize;
        let data = random_vec(n, 3);
        let want = reduce_ref(&data);
        let block = 64usize;
        let v = 2usize;
        let blocks = div_ceil(n, block * v);
        for kind in [
            AccKind::CpuThreads,
            AccKind::CpuBlockThreads,
            AccKind::CpuFibers,
            AccKind::sim_k20(),
        ] {
            let dev = Device::with_workers(kind.clone(), 4);
            let input = dev.alloc_f64(BufLayout::d1(n));
            let out = dev.alloc_f64(BufLayout::d1(blocks));
            input.upload(&data).unwrap();
            let wd = WorkDiv::d1(blocks, block, v);
            let args = Args::new().buf_f(&input).buf_f(&out).scalar_i(n as i64);
            dev.launch(&ReduceBlocks { block }, &wd, &args).unwrap();
            let total: f64 = out.download().iter().sum();
            assert!(
                (total - want).abs() / want.abs() < 1e-12,
                "{kind:?}: {total} vs {want}"
            );
        }
    }

    #[test]
    fn atomic_reduction_all_backends() {
        let n = 777usize;
        let data = random_vec(n, 4);
        let want = reduce_ref(&data);
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        for kind in kinds {
            let dev = Device::with_workers(kind.clone(), 4);
            let input = dev.alloc_f64(BufLayout::d1(n));
            let out = dev.alloc_f64(BufLayout::d1(1));
            input.upload(&data).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new().buf_f(&input).buf_f(&out).scalar_i(n as i64);
            dev.launch(&ReduceAtomic, &wd, &args).unwrap();
            let total = out.download()[0];
            // Atomic order differs between back-ends: tolerance, not
            // bit-equality.
            assert!(
                (total - want).abs() / want.abs() < 1e-10,
                "{kind:?}: {total} vs {want}"
            );
        }
    }
}
