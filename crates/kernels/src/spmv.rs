//! Sparse matrix-vector product (CSR) — the irregular-access kernel.
//!
//! Two single-source variants:
//! * [`SpmvScalar`] — one row per thread (CSR-scalar): simple, but warp
//!   lanes touch wildly different column ranges, so GPU accesses do not
//!   coalesce and divergence is high.
//! * [`SpmvVector`] is intentionally NOT provided: the warp-per-row
//!   variant needs warp shuffles, which the abstraction (like the paper's
//!   Alpaka of 2016) does not expose; the scalar variant is exactly what a
//!   portable single-source kernel could write at the time.
//!
//! Arguments: f64 buffers 0 = values, 1 = x, 2 = y (out); i64 buffers
//! 0 = row_ptr (n_rows+1), 1 = col_idx; i64 scalar 0 = n_rows.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

/// CSR matrix in host memory.
#[derive(Debug, Clone, Default)]
pub struct CsrMatrix {
    pub n_rows: usize,
    pub n_cols: usize,
    pub row_ptr: Vec<i64>,
    pub col_idx: Vec<i64>,
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Random banded matrix: each row has up to `per_row` entries within
    /// `band` of the diagonal.
    pub fn random_banded(n: usize, per_row: usize, band: usize, seed: u64) -> Self {
        use rand::Rng;
        let mut rng = crate::host::rng(seed);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..n {
            let lo = r.saturating_sub(band);
            let hi = (r + band + 1).min(n);
            let mut cols: Vec<usize> = (lo..hi).collect();
            // Keep a random subset, always including the diagonal.
            while cols.len() > per_row {
                let k = rng.gen_range(0..cols.len());
                if cols[k] != r {
                    cols.remove(k);
                }
            }
            for c in cols {
                col_idx.push(c as i64);
                values.push(rng.gen_range(-1.0..1.0));
            }
            row_ptr.push(col_idx.len() as i64);
        }
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Host reference `y = A * x`.
    pub fn spmv_ref(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0;
            for k in s..e {
                acc = self.values[k].mul_add(x[self.col_idx[k] as usize], acc);
            }
            *yr = acc;
        }
        y
    }
}

/// One row per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmvScalar;

impl Kernel for SpmvScalar {
    fn name(&self) -> &str {
        "spmv_scalar"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let values = o.buf_f(0);
        let x = o.buf_f(1);
        let y = o.buf_f(2);
        let row_ptr = o.buf_i(0);
        let col_idx = o.buf_i(1);
        let n_rows = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let r = o.add_i(base, e);
            let c = o.lt_i(r, n_rows);
            o.if_(c, |o| {
                let s = o.ld_gi(row_ptr, r);
                let one = o.lit_i(1);
                let r1 = o.add_i(r, one);
                let en = o.ld_gi(row_ptr, r1);
                let zf = o.lit_f(0.0);
                let acc = o.fold_range_f(s, en, zf, |o, k, acc| {
                    let a = o.ld_gf(values, k);
                    let ci = o.ld_gi(col_idx, k);
                    let xv = o.ld_gf(x, ci);
                    o.fma_f(a, xv, acc)
                });
                o.st_gf(y, r, acc);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{random_vec, rel_err};
    use alpaka::{AccKind, Args, BufLayout, Device};

    fn run_spmv(kind: AccKind, m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let dev = Device::with_workers(kind, 4);
        let vals = dev.alloc_f64(BufLayout::d1(m.nnz()));
        let xv = dev.alloc_f64(BufLayout::d1(m.n_cols));
        let yv = dev.alloc_f64(BufLayout::d1(m.n_rows));
        let rp = dev.alloc_i64(BufLayout::d1(m.row_ptr.len()));
        let ci = dev.alloc_i64(BufLayout::d1(m.nnz().max(1)));
        vals.upload(&m.values).unwrap();
        xv.upload(x).unwrap();
        rp.upload(&m.row_ptr).unwrap();
        if m.nnz() > 0 {
            ci.upload(&m.col_idx).unwrap();
        }
        let wd = dev.suggest_workdiv_1d(m.n_rows);
        let args = Args::new()
            .buf_f(&vals)
            .buf_f(&xv)
            .buf_f(&yv)
            .buf_i(&rp)
            .buf_i(&ci)
            .scalar_i(m.n_rows as i64);
        dev.launch(&SpmvScalar, &wd, &args).unwrap();
        yv.download()
    }

    #[test]
    fn spmv_matches_reference_everywhere() {
        let m = CsrMatrix::random_banded(300, 7, 12, 80);
        let x = random_vec(m.n_cols, 81);
        let want = m.spmv_ref(&x);
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        kinds.push(AccKind::sim_e5_2630v3());
        for kind in kinds {
            let got = run_spmv(kind.clone(), &m, &x);
            assert!(rel_err(&got, &want) < 1e-14, "{kind:?}");
        }
    }

    #[test]
    fn identity_matrix_is_identity() {
        let n = 50;
        let m = CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n as i64).collect(),
            col_idx: (0..n as i64).collect(),
            values: vec![1.0; n],
        };
        let x = random_vec(n, 82);
        let got = run_spmv(AccKind::CpuBlocks, &m, &x);
        assert_eq!(got, x);
    }

    #[test]
    fn empty_rows_yield_zero() {
        // Rows 1 and 3 empty.
        let m = CsrMatrix {
            n_rows: 4,
            n_cols: 4,
            row_ptr: vec![0, 1, 1, 2, 2],
            col_idx: vec![0, 2],
            values: vec![2.0, 3.0],
        };
        let x = vec![1.0, 1.0, 1.0, 1.0];
        let got = run_spmv(AccKind::CpuSerial, &m, &x);
        assert_eq!(got, vec![2.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn irregular_rows_diverge_on_gpu() {
        // A matrix with very uneven row lengths produces measurable warp
        // divergence on the simulated GPU (the known CSR-scalar weakness).
        use alpaka::{time_launch, LaunchMode, WorkDiv};
        let n = 256usize;
        let mut m = CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: vec![0],
            col_idx: vec![],
            values: vec![],
        };
        for r in 0..n {
            let len = if r % 32 == 0 { 64.min(n) } else { 1 };
            for k in 0..len {
                m.col_idx.push(((r + k) % n) as i64);
                m.values.push(1.0);
            }
            m.row_ptr.push(m.col_idx.len() as i64);
        }
        let dev = Device::new(AccKind::sim_k20());
        let vals = dev.alloc_f64(BufLayout::d1(m.nnz()));
        let xv = dev.alloc_f64(BufLayout::d1(n));
        let yv = dev.alloc_f64(BufLayout::d1(n));
        let rp = dev.alloc_i64(BufLayout::d1(m.row_ptr.len()));
        let ci = dev.alloc_i64(BufLayout::d1(m.nnz()));
        vals.upload(&m.values).unwrap();
        xv.upload(&vec![1.0; n]).unwrap();
        rp.upload(&m.row_ptr).unwrap();
        ci.upload(&m.col_idx).unwrap();
        let args = Args::new()
            .buf_f(&vals)
            .buf_f(&xv)
            .buf_f(&yv)
            .buf_i(&rp)
            .buf_i(&ci)
            .scalar_i(n as i64);
        let timed = time_launch(
            &dev,
            &SpmvScalar,
            &WorkDiv::d1(n / 64, 64, 1),
            &args,
            LaunchMode::Exact,
        )
        .unwrap();
        let stats = timed.report.unwrap().stats;
        assert!(stats.divergent_branches > 0, "{stats:?}");
    }
}
