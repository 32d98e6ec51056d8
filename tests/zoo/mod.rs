//! The kernel zoo as test data: every kernel of `alpaka-kernels` at six
//! work divisions each, with inputs every one of them runs on without a
//! fault. Shared by `tests/pass_outputs.rs` (which only traces) and
//! `tests/launch_memo.rs` (which launches).
//!
//! `Kernel::run` is generic, so the zoo is walked with a visitor instead of
//! being returned as a list of trait objects.

#![allow(dead_code)]

use alpaka::WorkDiv;
use alpaka_core::kernel::Kernel;
use alpaka_core::vec::Vecn;
use alpaka_kernels::host::random_vec;
use alpaka_kernels::transpose::transpose_workdiv;
use alpaka_kernels::*;

/// Buffer contents and scalars of one launch, in slot order.
#[derive(Clone, Default)]
pub struct Inputs {
    pub bufs_f: Vec<Vec<f64>>,
    pub bufs_i: Vec<Vec<i64>>,
    pub scalars_f: Vec<f64>,
    pub scalars_i: Vec<i64>,
}

/// Called once per `(kernel, work division)` case. `nth` counts the work
/// divisions of one kernel type from 0, so a visitor can take a prefix.
pub trait Visitor {
    fn case<K: Kernel>(&mut self, label: &str, nth: usize, kernel: &K, wd: WorkDiv, inputs: Inputs);
}

/// `(threads per block, elements per thread)` pairs a 1-D kernel is tried at:
/// GPU-like, CPU-like (one thread, many elements) and in between.
const TE: [(usize, usize); 6] = [(32, 1), (64, 2), (128, 1), (1, 64), (16, 4), (256, 3)];

fn cover(n: usize, t: usize, e: usize) -> WorkDiv {
    WorkDiv::d1(n.div_ceil(t * e).max(1), t, e)
}

fn te_label(name: &str, t: usize, e: usize) -> String {
    format!("{name} t{t} e{e}")
}

fn gemm_inputs(n: usize) -> Inputs {
    let ld = n as i64;
    Inputs {
        bufs_f: vec![
            random_vec(n * n, 10),
            random_vec(n * n, 11),
            random_vec(n * n, 12),
        ],
        scalars_f: vec![1.5, 0.5],
        scalars_i: vec![ld, ld, ld, ld, ld, ld],
        ..Inputs::default()
    }
}

fn histogram_inputs(n: usize, bins: usize) -> Inputs {
    Inputs {
        bufs_f: vec![random_vec(n, 20).iter().map(|v| v / 10.0).collect()],
        bufs_i: vec![vec![0; bins]],
        scalars_f: vec![0.0, 1.0],
        scalars_i: vec![n as i64, bins as i64],
    }
}

fn transpose_inputs(rows: usize, cols: usize) -> Inputs {
    Inputs {
        bufs_f: vec![random_vec(rows * cols, 30), vec![0.0; rows * cols]],
        scalars_i: vec![rows as i64, cols as i64, cols as i64, rows as i64],
        ..Inputs::default()
    }
}

/// Walk every case of the zoo in a fixed order.
#[allow(clippy::too_many_lines)]
pub fn for_each_case(v: &mut impl Visitor) {
    // DAXPY family and vector addition.
    let n = 300usize;
    let xy = |extra: usize| Inputs {
        bufs_f: (0..2 + extra)
            .map(|s| random_vec(n, 1 + s as u64))
            .collect(),
        scalars_f: vec![2.5],
        scalars_i: vec![n as i64],
        ..Inputs::default()
    };
    for (i, (t, e)) in TE.into_iter().enumerate() {
        v.case(
            &te_label("daxpy", t, e),
            i,
            &DaxpyKernel,
            cover(n, t, e),
            xy(0),
        );
    }
    for (i, t) in [32, 64, 128, 256, 16, 8].into_iter().enumerate() {
        let label = te_label("daxpy_native", t, 1);
        v.case(&label, i, &DaxpyNativeStyle, cover(n, t, 1), xy(0));
    }
    for (i, (t, e)) in TE.into_iter().enumerate() {
        v.case(
            &te_label("vecadd", t, e),
            i,
            &VecAddKernel,
            cover(n, t, e),
            xy(1),
        );
    }

    // The three DGEMMs.
    for (i, rows) in [1, 2, 3, 4, 6, 8].into_iter().enumerate() {
        let label = format!("dgemm_naive v{rows}");
        v.case(
            &label,
            i,
            &DgemmNaive,
            DgemmNaive::workdiv(24, rows),
            gemm_inputs(24),
        );
    }
    for (i, ts) in [2, 4, 8, 16, 3, 6].into_iter().enumerate() {
        let k = DgemmTiledCuda { ts };
        let label = format!("dgemm_tiled_cuda ts{ts}");
        v.case(&label, i, &k, k.workdiv(24, 24), gemm_inputs(24));
    }
    let tiled = [(16, 2), (4, 4), (8, 8), (1, 16), (2, 2), (1, 64)];
    for (i, (t, e)) in tiled.into_iter().enumerate() {
        let k = DgemmTiled { t, e };
        let label = te_label("dgemm_tiled n64", t, e);
        v.case(&label, i, &k, k.workdiv(64, 64), gemm_inputs(64));
    }

    // Reductions: dot product, block tree, atomics.
    let n = 1000usize;
    let tree = [(32, 1), (64, 4), (128, 2), (16, 8), (8, 3), (256, 1)];
    for (i, (block, e)) in tree.into_iter().enumerate() {
        let wd = cover(n, block, e);
        let inputs = Inputs {
            bufs_f: vec![random_vec(n, 40), random_vec(n, 41), vec![0.0]],
            scalars_i: vec![n as i64],
            ..Inputs::default()
        };
        v.case(
            &te_label("dot", block, e),
            i,
            &DotKernel { block },
            wd,
            inputs,
        );
        let inputs = Inputs {
            bufs_f: vec![random_vec(n, 42), vec![0.0; wd.block_count()]],
            scalars_i: vec![n as i64],
            ..Inputs::default()
        };
        let label = te_label("reduce_blocks", block, e);
        v.case(&label, i, &ReduceBlocks { block }, wd, inputs);
    }
    let n = 500usize;
    for (i, (t, e)) in TE.into_iter().enumerate() {
        let inputs = Inputs {
            bufs_f: vec![random_vec(n, 43), vec![0.0]],
            scalars_i: vec![n as i64],
            ..Inputs::default()
        };
        let label = te_label("reduce_atomic", t, e);
        v.case(&label, i, &ReduceAtomic, cover(n, t, e), inputs);
    }

    // Histograms and the affine scatter.
    for (i, (t, e)) in TE.into_iter().enumerate() {
        let label = te_label("histogram_global", t, e);
        let inputs = histogram_inputs(n, 16);
        v.case(&label, i, &HistogramGlobalAtomics, cover(n, t, e), inputs);
        // The guard-free kernels need the extent to cover the data exactly.
        let exact = 2 * t * e;
        let wd = WorkDiv::d1(2, t, e);
        let label = te_label("histogram_exact", t, e);
        let inputs = histogram_inputs(exact, 16);
        v.case(&label, i, &HistogramGlobalExact, wd, inputs);
        let inputs = Inputs {
            bufs_f: vec![random_vec(exact, 21), vec![0.0; exact + 3]],
            scalars_i: vec![3],
            ..Inputs::default()
        };
        v.case(
            &te_label("scatter_add", t, e),
            i,
            &ScatterAddAffine,
            wd,
            inputs,
        );
    }
    let privatized = [(32, 1), (64, 2), (16, 4), (8, 8), (4, 3), (128, 1)];
    for (i, (t, e)) in privatized.into_iter().enumerate() {
        let label = te_label("histogram_shared", t, e);
        let k = HistogramShared { bins: 16 };
        v.case(&label, i, &k, cover(n, t, e), histogram_inputs(n, 16));
    }

    // Monte-Carlo pi: the grid is the problem size.
    let grids = [
        (2, 32, 1),
        (4, 64, 1),
        (1, 128, 1),
        (8, 1, 2),
        (3, 16, 1),
        (2, 256, 1),
    ];
    for (i, (b, t, e)) in grids.into_iter().enumerate() {
        let inputs = Inputs {
            bufs_i: vec![vec![0]],
            scalars_i: vec![8, 7],
            ..Inputs::default()
        };
        let label = format!("mc_pi b{b} t{t} e{e}");
        v.case(&label, i, &MonteCarloPi, WorkDiv::d1(b, t, e), inputs);
    }

    // N-body.
    let n = 48usize;
    let bodies = [(32, 1), (16, 2), (8, 1), (1, 16), (4, 4), (48, 1)];
    for (i, (t, e)) in bodies.into_iter().enumerate() {
        let inputs = Inputs {
            bufs_f: vec![random_vec(4 * n, 50), vec![0.0; 3 * n]],
            scalars_f: vec![0.01],
            scalars_i: vec![n as i64],
            ..Inputs::default()
        };
        v.case(
            &te_label("nbody", t, e),
            i,
            &NBodyAccel,
            cover(n, t, e),
            inputs,
        );
    }

    // Scan: the block scan, then the offset add on the same grid.
    let n = 1000usize;
    for (i, block) in [64, 32, 16, 8, 128, 4].into_iter().enumerate() {
        let blocks = n.div_ceil(2 * block);
        let inputs = Inputs {
            bufs_f: vec![random_vec(n, 60), vec![0.0; n], vec![0.0; blocks]],
            scalars_i: vec![n as i64],
            ..Inputs::default()
        };
        let label = format!("scan_blocks b{block}");
        let wd = WorkDiv::d1(blocks, block, 1);
        v.case(&label, i, &ScanBlocks { block }, wd, inputs);
    }
    let adds = [(64, 2), (128, 1), (16, 4), (32, 1), (4, 4), (256, 1)];
    for (i, (t, e)) in adds.into_iter().enumerate() {
        let blocks = n.div_ceil(t * e);
        let inputs = Inputs {
            bufs_f: vec![random_vec(n, 61), random_vec(blocks, 62)],
            scalars_i: vec![n as i64],
            ..Inputs::default()
        };
        let label = te_label("scan_add_offsets", t, e);
        v.case(
            &label,
            i,
            &ScanAddOffsets,
            WorkDiv::d1(blocks, t, e),
            inputs,
        );
    }

    // CSR SpMV.
    let rows = 200usize;
    let csr = CsrMatrix::random_banded(rows, 5, 8, 70);
    let sparse = [(32, 1), (64, 2), (128, 1), (1, 64), (16, 4), (256, 1)];
    for (i, (t, e)) in sparse.into_iter().enumerate() {
        let inputs = Inputs {
            bufs_f: vec![csr.values.clone(), random_vec(rows, 71), vec![0.0; rows]],
            bufs_i: vec![csr.row_ptr.clone(), csr.col_idx.clone()],
            scalars_i: vec![rows as i64],
            ..Inputs::default()
        };
        v.case(
            &te_label("spmv", t, e),
            i,
            &SpmvScalar,
            cover(rows, t, e),
            inputs,
        );
    }

    // Jacobi step (heat2d's kernel).
    let side = 32usize;
    let stencil = [(4, 4), (1, 8), (8, 1), (2, 2), (16, 2), (1, 32)];
    for (i, (bt, ev)) in stencil.into_iter().enumerate() {
        let inputs = Inputs {
            bufs_f: vec![random_vec(side * side, 80), vec![0.0; side * side]],
            scalars_i: vec![side as i64, side as i64, side as i64],
            ..Inputs::default()
        };
        let label = format!("jacobi bt{bt} ev{ev}");
        let wd = JacobiStep::workdiv(side, side, bt, ev);
        v.case(&label, i, &JacobiStep, wd, inputs);
    }

    // Transposes.
    let (rows, cols) = (24usize, 40usize);
    let shapes = [(1, 32), (4, 8), (16, 16), (2, 4), (8, 2), (32, 1)];
    for (i, (by, bx)) in shapes.into_iter().enumerate() {
        let wd = WorkDiv::d2(
            Vecn([rows.div_ceil(by), cols.div_ceil(bx)]),
            Vecn([by, bx]),
            Vecn([1, 1]),
        );
        let label = format!("transpose_naive {by}x{bx}");
        let inputs = transpose_inputs(rows, cols);
        v.case(&label, i, &TransposeNaive, wd, inputs);
    }
    for (i, ts) in [2, 4, 8, 16, 3, 5].into_iter().enumerate() {
        let wd = transpose_workdiv(rows, cols, ts);
        let label = format!("transpose_tiled ts{ts}");
        let inputs = transpose_inputs(rows, cols);
        v.case(&label, i, &TransposeTiled { ts }, wd, inputs);
        let label = format!("transpose_padded ts{ts}");
        let inputs = transpose_inputs(rows, cols);
        v.case(&label, i, &TransposePadded { ts }, wd, inputs);
    }
}
