//! Exclusive prefix sum (scan) — barrier-heavy, two-phase.
//!
//! [`ScanBlocks`] computes a work-efficient Blelloch scan per block in
//! shared memory and writes each block's total to a sums buffer; the host
//! (or [`ScanAddOffsets`]) then adds the exclusive scan of the block sums
//! back — the standard multi-block scan pipeline.
//!
//! Arguments (`ScanBlocks`): f64 buffers 0 = input, 1 = output, 2 = block
//! sums; i64 scalar 0 = n. Block size must be a power of two; each block
//! scans `2 * block` elements (every thread owns two).
//!
//! Arguments (`ScanAddOffsets`): f64 buffers 0 = output (in/out), 1 =
//! scanned block sums; i64 scalar 0 = n.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::KernelOps;

/// Per-block Blelloch scan (exclusive), two elements per thread.
#[derive(Debug, Clone, Copy)]
pub struct ScanBlocks {
    /// Threads per block (power of two).
    pub block: usize,
}

impl Kernel for ScanBlocks {
    fn name(&self) -> &str {
        "scan_blocks"
    }

    #[allow(clippy::too_many_lines)]
    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        assert!(self.block.is_power_of_two());
        let input = o.buf_f(0);
        let output = o.buf_f(1);
        let sums = o.buf_f(2);
        let n = o.param_i(0);
        let len = 2 * self.block;
        let sh = o.shared_f(len);
        let tid = o.thread_idx(0);
        let bid = o.block_idx(0);
        let len_c = o.lit_i(len as i64);
        let two = o.lit_i(2);
        let one = o.lit_i(1);
        let base = o.mul_i(bid, len_c);
        // Load two elements per thread (0 beyond n).
        for which in 0..2i64 {
            let w = o.lit_i(which);
            let li = {
                let t = o.mul_i(tid, two);
                o.add_i(t, w)
            };
            let gi = o.add_i(base, li);
            let zf = o.lit_f(0.0);
            let tmp = o.var_f(zf);
            let c = o.lt_i(gi, n);
            o.if_(c, |o| {
                let v = o.ld_gf(input, gi);
                o.vset_f(tmp, v);
            });
            let v = o.vget_f(tmp);
            o.st_sf(sh, li, v);
        }
        o.sync_block_threads();
        // Up-sweep (reduce).
        let d0 = o.lit_i(1);
        let offset = o.var_i(d0);
        let half = o.lit_i(self.block as i64);
        let d = o.var_i(half);
        o.while_(
            |o| {
                let dv = o.vget_i(d);
                let z = o.lit_i(0);
                o.gt_i(dv, z)
            },
            |o| {
                let dv = o.vget_i(d);
                let off = o.vget_i(offset);
                let c = o.lt_i(tid, dv);
                o.if_(c, |o| {
                    // ai = off*(2*tid+1)-1; bi = off*(2*tid+2)-1
                    let t2 = o.mul_i(tid, two);
                    let t21 = o.add_i(t2, one);
                    let t22 = o.add_i(t21, one);
                    let ai = {
                        let t = o.mul_i(off, t21);
                        o.sub_i(t, one)
                    };
                    let bi = {
                        let t = o.mul_i(off, t22);
                        o.sub_i(t, one)
                    };
                    let a = o.ld_sf(sh, ai);
                    let b = o.ld_sf(sh, bi);
                    let s = o.add_f(a, b);
                    o.st_sf(sh, bi, s);
                });
                o.sync_block_threads();
                let off2 = o.mul_i(off, two);
                o.vset_i(offset, off2);
                let dv2 = o.div_i(dv, two);
                o.vset_i(d, dv2);
            },
        );
        // Record the block total and clear the last element.
        let z = o.lit_i(0);
        let is0 = o.eq_i(tid, z);
        o.if_(is0, |o| {
            let last = o.sub_i(len_c, one);
            let total = o.ld_sf(sh, last);
            o.st_gf(sums, bid, total);
            let zf = o.lit_f(0.0);
            o.st_sf(sh, last, zf);
        });
        o.sync_block_threads();
        // Down-sweep.
        let one_i = o.lit_i(1);
        let dd = o.var_i(one_i);
        o.while_(
            |o| {
                let dv = o.vget_i(dd);
                o.le_i(dv, half)
            },
            |o| {
                let off = o.vget_i(offset);
                let off2 = o.div_i(off, two);
                o.vset_i(offset, off2);
                let dv = o.vget_i(dd);
                let c = o.lt_i(tid, dv);
                o.if_(c, |o| {
                    let off = o.vget_i(offset);
                    let t2 = o.mul_i(tid, two);
                    let t21 = o.add_i(t2, one);
                    let t22 = o.add_i(t21, one);
                    let ai = {
                        let t = o.mul_i(off, t21);
                        o.sub_i(t, one)
                    };
                    let bi = {
                        let t = o.mul_i(off, t22);
                        o.sub_i(t, one)
                    };
                    let a = o.ld_sf(sh, ai);
                    let b = o.ld_sf(sh, bi);
                    o.st_sf(sh, ai, b);
                    let s = o.add_f(a, b);
                    o.st_sf(sh, bi, s);
                });
                o.sync_block_threads();
                let dv2 = o.mul_i(dv, two);
                o.vset_i(dd, dv2);
            },
        );
        // Write back.
        for which in 0..2i64 {
            let w = o.lit_i(which);
            let li = {
                let t = o.mul_i(tid, two);
                o.add_i(t, w)
            };
            let gi = o.add_i(base, li);
            let c = o.lt_i(gi, n);
            o.if_(c, |o| {
                let v = o.ld_sf(sh, li);
                o.st_gf(output, gi, v);
            });
        }
    }
}

/// Add the scanned block offsets back into the per-block scans.
/// Work division: same grid as `ScanBlocks`, arbitrary threads/elements
/// covering `2 * block` elements per block.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanAddOffsets;

impl Kernel for ScanAddOffsets {
    fn name(&self) -> &str {
        "scan_add_offsets"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let output = o.buf_f(0);
        let offsets = o.buf_f(1);
        let n = o.param_i(0);
        let bid = o.block_idx(0);
        let bdim = o.block_thread_extent(0);
        let v = o.thread_elem_extent(0);
        let tid = o.thread_idx(0);
        let chunk = o.mul_i(bdim, v);
        let base = o.mul_i(bid, chunk);
        let off = o.ld_gf(offsets, bid);
        let tv = o.mul_i(tid, v);
        let tbase = o.add_i(base, tv);
        o.for_elements(0, |o, e| {
            let i = o.add_i(tbase, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let x = o.ld_gf(output, i);
                let r = o.add_f(x, off);
                o.st_gf(output, i, r);
            });
        });
    }
}

/// Host reference: exclusive prefix sum.
pub fn exclusive_scan_ref(x: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(x.len());
    let mut acc = 0.0;
    for &v in x {
        out.push(acc);
        acc += v;
    }
    out
}

/// Full two-phase device scan driver (block scan + host-side scan of block
/// sums + offset add). Returns the exclusive scan of `data`.
pub fn device_exclusive_scan(
    dev: &alpaka::Device,
    data: &[f64],
    block: usize,
) -> alpaka::Result<Vec<f64>> {
    use alpaka::{Args, BufLayout, WorkDiv};
    let n = data.len();
    let chunk = 2 * block;
    let blocks = n.div_ceil(chunk).max(1);
    let input = dev.alloc_f64(BufLayout::d1(n));
    let output = dev.alloc_f64(BufLayout::d1(n));
    let sums = dev.alloc_f64(BufLayout::d1(blocks));
    input.upload(data)?;
    let wd = WorkDiv::d1(blocks, block, 1);
    let args = Args::new()
        .buf_f(&input)
        .buf_f(&output)
        .buf_f(&sums)
        .scalar_i(n as i64);
    dev.launch(&ScanBlocks { block }, &wd, &args)?;
    // Scan the block sums on the host (they are few).
    let offsets = exclusive_scan_ref(&sums.download());
    let offs = dev.alloc_f64(BufLayout::d1(blocks));
    offs.upload(&offsets)?;
    let wd2 = WorkDiv::d1(blocks, block, 2);
    let args2 = Args::new().buf_f(&output).buf_f(&offs).scalar_i(n as i64);
    dev.launch(&ScanAddOffsets, &wd2, &args2)?;
    Ok(output.download())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::random_vec;
    use alpaka::{AccKind, Device};

    #[test]
    fn scan_matches_reference_on_threaded_backends() {
        let n = 1000usize; // not a multiple of 2*block
        let data = random_vec(n, 60);
        let want = exclusive_scan_ref(&data);
        for kind in [
            AccKind::CpuThreads,
            AccKind::CpuBlockThreads,
            AccKind::CpuFibers,
            AccKind::sim_k20(),
        ] {
            let dev = Device::with_workers(kind.clone(), 4);
            let got = device_exclusive_scan(&dev, &data, 64).unwrap();
            let max_err = got
                .iter()
                .zip(&want)
                .map(|(g, w)| (g - w).abs())
                .fold(0.0f64, f64::max);
            assert!(max_err < 1e-9, "{kind:?}: max err {max_err}");
        }
    }

    #[test]
    fn scan_of_ones_is_iota() {
        let n = 256usize;
        let dev = Device::new(AccKind::sim_k20());
        let got = device_exclusive_scan(&dev, &vec![1.0; n], 32).unwrap();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn single_block_scan() {
        let data = random_vec(64, 61);
        let dev = Device::new(AccKind::sim_k20());
        let got = device_exclusive_scan(&dev, &data, 32).unwrap();
        let want = exclusive_scan_ref(&data);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_tail_handled() {
        // n much smaller than one block's chunk.
        let data = random_vec(10, 62);
        let dev = Device::new(AccKind::sim_k20());
        let got = device_exclusive_scan(&dev, &data, 32).unwrap();
        let want = exclusive_scan_ref(&data);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }
}
