//! 2-D 5-point Jacobi stencil (heat diffusion step).
//!
//! Arguments: f64 buffers 0 = src, 1 = dst; i64 scalars 0 = rows, 1 = cols,
//! 2 = pitch (elements per row in both buffers). Boundary cells are copied
//! through unchanged.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_core::vec::{div_ceil, Vecn};
use alpaka_core::workdiv::WorkDiv;

/// One Jacobi step; 2-D launch over the grid with elements along columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct JacobiStep;

impl JacobiStep {
    /// Work division: `bt x bt` blocks of threads, `ev` elements along the
    /// fast dimension per thread. Use `bt = 1` for single-thread-block
    /// accelerators.
    pub fn workdiv(rows: usize, cols: usize, bt: usize, ev: usize) -> WorkDiv {
        WorkDiv::d2(
            Vecn([div_ceil(rows, bt).max(1), div_ceil(cols, bt * ev).max(1)]),
            Vecn([bt, bt]),
            Vecn([1, ev]),
        )
    }
}

impl Kernel for JacobiStep {
    fn name(&self) -> &str {
        "jacobi2d"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let src = o.buf_f(0);
        let dst = o.buf_f(1);
        let rows = o.param_i(0);
        let cols = o.param_i(1);
        let pitch = o.param_i(2);
        let r = o.global_thread_idx(0);
        let cbase = {
            let g = o.global_thread_idx(1);
            let v = o.thread_elem_extent(1);
            o.mul_i(g, v)
        };
        let in_rows = o.lt_i(r, rows);
        o.if_(in_rows, |o| {
            let row_off = o.mul_i(r, pitch);
            o.for_elements(1, |o, e| {
                let c = o.add_i(cbase, e);
                let in_cols = o.lt_i(c, cols);
                o.if_(in_cols, |o| {
                    let idx = o.add_i(row_off, c);
                    // Interior test: 0 < r < rows-1 && 0 < c < cols-1.
                    let one = o.lit_i(1);
                    let rm1 = o.sub_i(rows, one);
                    let cm1 = o.sub_i(cols, one);
                    let zero = o.lit_i(0);
                    let a = o.gt_i(r, zero);
                    let b = o.lt_i(r, rm1);
                    let cl = o.gt_i(c, zero);
                    let cr = o.lt_i(c, cm1);
                    let ab = o.and_b(a, b);
                    let cc = o.and_b(cl, cr);
                    let interior = o.and_b(ab, cc);
                    o.if_else(
                        interior,
                        |o| {
                            let up = o.sub_i(idx, pitch);
                            let dn = o.add_i(idx, pitch);
                            let one = o.lit_i(1);
                            let lf = o.sub_i(idx, one);
                            let rt = o.add_i(idx, one);
                            let vu = o.ld_gf(src, up);
                            let vd = o.ld_gf(src, dn);
                            let vl = o.ld_gf(src, lf);
                            let vr = o.ld_gf(src, rt);
                            let s1 = o.add_f(vu, vd);
                            let s2 = o.add_f(vl, vr);
                            let s = o.add_f(s1, s2);
                            let q = o.lit_f(0.25);
                            let out = o.mul_f(s, q);
                            o.st_gf(dst, idx, out);
                        },
                        |o| {
                            let v = o.ld_gf(src, idx);
                            o.st_gf(dst, idx, v);
                        },
                    );
                });
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{jacobi_ref, random_matrix, rel_err};
    use alpaka::{AccKind, Args, BufLayout, Device};

    fn run_on(kind: AccKind, rows: usize, cols: usize, steps: usize) -> Vec<f64> {
        let dev = Device::with_workers(kind, 4);
        let layout = BufLayout::d2(rows, cols, 8);
        let a = dev.alloc_f64(layout);
        let b = dev.alloc_f64(layout);
        a.upload(&random_matrix(rows, cols, 21)).unwrap();
        let pitch = a.layout().pitch as i64;
        let caps = dev.caps();
        let bt = if caps.requires_single_thread_blocks {
            1
        } else {
            4
        };
        let wd = JacobiStep::workdiv(rows, cols, bt, 4);
        for s in 0..steps {
            let (src, dst) = if s % 2 == 0 { (&a, &b) } else { (&b, &a) };
            let args = Args::new()
                .buf_f(src)
                .buf_f(dst)
                .scalar_i(rows as i64)
                .scalar_i(cols as i64)
                .scalar_i(pitch);
            dev.launch(&JacobiStep, &wd, &args).unwrap();
        }
        if steps % 2 == 0 {
            a.download()
        } else {
            b.download()
        }
    }

    #[test]
    fn jacobi_matches_reference_everywhere() {
        let (rows, cols, steps) = (18, 23, 3);
        let mut cur = random_matrix(rows, cols, 21);
        let mut next = vec![0.0; rows * cols];
        for _ in 0..steps {
            jacobi_ref(rows, cols, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        for kind in [
            AccKind::CpuSerial,
            AccKind::CpuBlocks,
            AccKind::CpuThreads,
            AccKind::sim_k20(),
            AccKind::sim_e5_2630v3(),
        ] {
            let got = run_on(kind.clone(), rows, cols, steps);
            assert!(rel_err(&got, &cur) < 1e-14, "{kind:?}");
        }
    }

    #[test]
    fn boundary_is_preserved() {
        let (rows, cols) = (8, 8);
        let got = run_on(AccKind::CpuSerial, rows, cols, 1);
        let src = random_matrix(rows, cols, 21);
        for c in 0..cols {
            assert_eq!(got[c], src[c]); // first row
            assert_eq!(got[(rows - 1) * cols + c], src[(rows - 1) * cols + c]);
        }
    }
}
