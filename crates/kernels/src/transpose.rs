//! Matrix transpose — the classic shared-memory / bank-conflict showcase.
//!
//! Three single-source variants with increasing sophistication, mirroring
//! the canonical CUDA optimization ladder:
//! * [`TransposeNaive`] — direct `out[j,i] = in[i,j]`: reads coalesce,
//!   writes stride (or vice versa).
//! * [`TransposeTiled`] — stage a `ts x ts` tile through shared memory so
//!   both global accesses coalesce; the shared array is `ts x ts`, which
//!   produces bank conflicts on the transposed read.
//! * [`TransposePadded`] — same, with a `ts x (ts+1)` shared tile: the
//!   padding column rotates banks and removes the conflicts (visible in
//!   the simulator's `bank_conflict_cycles`).
//!
//! Arguments: f64 buffers 0 = input (rows x cols), 1 = output
//! (cols x rows); i64 scalars: 0 = rows, 1 = cols, 2 = in pitch,
//! 3 = out pitch.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::KernelOps;
use alpaka_core::vec::{div_ceil, Vecn};
use alpaka_core::workdiv::WorkDiv;

/// 2-D work division with `ts x ts` thread blocks over the *input* shape.
pub fn transpose_workdiv(rows: usize, cols: usize, ts: usize) -> WorkDiv {
    WorkDiv::d2(
        Vecn([div_ceil(rows, ts).max(1), div_ceil(cols, ts).max(1)]),
        Vecn([ts, ts]),
        Vecn([1, 1]),
    )
}

struct TArgs<O: KernelOps> {
    input: O::BufF,
    out: O::BufF,
    rows: O::I,
    cols: O::I,
    in_pitch: O::I,
    out_pitch: O::I,
}

fn t_args<O: KernelOps>(o: &mut O) -> TArgs<O> {
    TArgs {
        input: o.buf_f(0),
        out: o.buf_f(1),
        rows: o.param_i(0),
        cols: o.param_i(1),
        in_pitch: o.param_i(2),
        out_pitch: o.param_i(3),
    }
}

/// Direct transpose, no staging.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransposeNaive;

impl Kernel for TransposeNaive {
    fn name(&self) -> &str {
        "transpose_naive"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let g = t_args(o);
        let bd0 = o.block_thread_extent(0);
        let bd1 = o.block_thread_extent(1);
        let by = o.block_idx(0);
        let bx = o.block_idx(1);
        let ty = o.thread_idx(0);
        let tx = o.thread_idx(1);
        let r = {
            let t = o.mul_i(by, bd0);
            o.add_i(t, ty)
        };
        let c = {
            let t = o.mul_i(bx, bd1);
            o.add_i(t, tx)
        };
        let rm = o.lt_i(r, g.rows);
        let cm = o.lt_i(c, g.cols);
        let ok = o.and_b(rm, cm);
        o.if_(ok, |o| {
            let src = {
                let t = o.mul_i(r, g.in_pitch);
                o.add_i(t, c)
            };
            let v = o.ld_gf(g.input, src);
            let dst = {
                let t = o.mul_i(c, g.out_pitch);
                o.add_i(t, r)
            };
            o.st_gf(g.out, dst, v);
        });
    }
}

/// Shared-memory tile, unpadded (bank conflicts on the transposed read).
#[derive(Debug, Clone, Copy)]
pub struct TransposeTiled {
    pub ts: usize,
}

/// Shared-memory tile with a padding column (conflict-free).
#[derive(Debug, Clone, Copy)]
pub struct TransposePadded {
    pub ts: usize,
}

fn tiled_body<O: KernelOps>(o: &mut O, ts: usize, pad: usize) {
    let g = t_args(o);
    let stride = (ts + pad) as i64;
    let sh = o.shared_f(ts * (ts + pad));
    let ts_c = o.lit_i(ts as i64);
    let stride_c = o.lit_i(stride);
    let by = o.block_idx(0);
    let bx = o.block_idx(1);
    let ty = o.thread_idx(0);
    let tx = o.thread_idx(1);
    // Load phase: (by*ts + ty, bx*ts + tx) -> sh[ty][tx].
    let r = {
        let t = o.mul_i(by, ts_c);
        o.add_i(t, ty)
    };
    let c = {
        let t = o.mul_i(bx, ts_c);
        o.add_i(t, tx)
    };
    let rm = o.lt_i(r, g.rows);
    let cm = o.lt_i(c, g.cols);
    let ok = o.and_b(rm, cm);
    o.if_(ok, |o| {
        let src = {
            let t = o.mul_i(r, g.in_pitch);
            o.add_i(t, c)
        };
        let v = o.ld_gf(g.input, src);
        let si = {
            let t = o.mul_i(ty, stride_c);
            o.add_i(t, tx)
        };
        o.st_sf(sh, si, v);
    });
    o.sync_block_threads();
    // Store phase: out[(bx*ts + ty), (by*ts + tx)] = sh[tx][ty]
    // (swapped thread roles so the global store coalesces).
    let out_r = {
        let t = o.mul_i(bx, ts_c);
        o.add_i(t, ty)
    };
    let out_c = {
        let t = o.mul_i(by, ts_c);
        o.add_i(t, tx)
    };
    let rm2 = o.lt_i(out_r, g.cols);
    let cm2 = o.lt_i(out_c, g.rows);
    let ok2 = o.and_b(rm2, cm2);
    o.if_(ok2, |o| {
        let si = {
            let t = o.mul_i(tx, stride_c);
            o.add_i(t, ty)
        };
        let v = o.ld_sf(sh, si);
        let dst = {
            let t = o.mul_i(out_r, g.out_pitch);
            o.add_i(t, out_c)
        };
        o.st_gf(g.out, dst, v);
    });
}

impl Kernel for TransposeTiled {
    fn name(&self) -> &str {
        "transpose_tiled"
    }
    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        tiled_body(o, self.ts, 0);
    }
}

impl Kernel for TransposePadded {
    fn name(&self) -> &str {
        "transpose_padded"
    }
    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        tiled_body(o, self.ts, 1);
    }
}

/// Host reference.
pub fn transpose_ref(rows: usize, cols: usize, input: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = input[r * cols + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::random_matrix;
    use alpaka::{AccKind, Args, BufLayout, Device};

    fn run_transpose<K: Kernel + Clone + Send + 'static>(
        kind: AccKind,
        kernel: &K,
        ts: usize,
        rows: usize,
        cols: usize,
    ) -> Vec<f64> {
        let dev = Device::with_workers(kind, 4);
        let input = dev.alloc_f64(BufLayout::d2(rows, cols, 8));
        let out = dev.alloc_f64(BufLayout::d2(cols, rows, 8));
        input.upload(&random_matrix(rows, cols, 50)).unwrap();
        let wd = transpose_workdiv(rows, cols, ts);
        let args = Args::new()
            .buf_f(&input)
            .buf_f(&out)
            .scalar_i(rows as i64)
            .scalar_i(cols as i64)
            .scalar_i(input.layout().pitch as i64)
            .scalar_i(out.layout().pitch as i64);
        dev.launch(kernel, &wd, &args).unwrap();
        out.download()
    }

    #[test]
    fn all_variants_match_reference() {
        let (rows, cols) = (37, 22); // awkward, non-multiple of ts
        let want = transpose_ref(rows, cols, &random_matrix(rows, cols, 50));
        for kind in [AccKind::CpuThreads, AccKind::sim_k20()] {
            assert_eq!(
                run_transpose(kind.clone(), &TransposeNaive, 8, rows, cols),
                want,
                "naive on {kind:?}"
            );
            assert_eq!(
                run_transpose(kind.clone(), &TransposeTiled { ts: 8 }, 8, rows, cols),
                want,
                "tiled on {kind:?}"
            );
            assert_eq!(
                run_transpose(kind.clone(), &TransposePadded { ts: 8 }, 8, rows, cols),
                want,
                "padded on {kind:?}"
            );
        }
    }

    #[test]
    fn padding_removes_bank_conflicts_on_sim() {
        use alpaka::{time_launch, LaunchMode};
        let (rows, cols) = (128, 128);
        let dev = Device::new(AccKind::sim_k20());
        let run = |padded: bool| {
            let input = dev.alloc_f64(BufLayout::d2(rows, cols, 8));
            let out = dev.alloc_f64(BufLayout::d2(cols, rows, 8));
            input.upload(&random_matrix(rows, cols, 51)).unwrap();
            let wd = transpose_workdiv(rows, cols, 32);
            let args = Args::new()
                .buf_f(&input)
                .buf_f(&out)
                .scalar_i(rows as i64)
                .scalar_i(cols as i64)
                .scalar_i(input.layout().pitch as i64)
                .scalar_i(out.layout().pitch as i64);
            let timed = if padded {
                time_launch(
                    &dev,
                    &TransposePadded { ts: 32 },
                    &wd,
                    &args,
                    LaunchMode::Exact,
                )
            } else {
                time_launch(
                    &dev,
                    &TransposeTiled { ts: 32 },
                    &wd,
                    &args,
                    LaunchMode::Exact,
                )
            }
            .unwrap();
            timed.report.unwrap().stats.bank_conflict_cycles
        };
        let conflicted = run(false);
        let padded = run(true);
        assert!(
            conflicted > padded * 10,
            "expected heavy conflicts without padding: {conflicted} vs {padded}"
        );
        assert_eq!(padded, 0, "padded tile must be conflict-free");
    }
}
