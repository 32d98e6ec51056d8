//! DGEMM kernels — the paper's Section 4.2 workhorse
//! (`C <- alpha*A*B + beta*C`, A: m x k, B: k x n, C: m x n).
//!
//! Three variants, mirroring the paper's evaluation:
//!
//! * [`DgemmNaive`] — the "native OpenMP style" kernel: a plain triple loop
//!   per output row. Fast enough on CPUs (rows parallel over blocks), awful
//!   on GPUs (no coalescing, no shared-memory reuse) — the Fig. 6 swap.
//! * [`DgemmTiledCuda`] — the "native CUDA style" kernel from the CUDA
//!   programming guide: square thread blocks, one output element per
//!   thread, shared-memory tiles. Great on GPUs, poor on CPUs — the other
//!   half of Fig. 6.
//! * [`DgemmTiled`] — the *single-source hierarchically tiled* kernel of
//!   Fig. 7: a block computes a C tile staged through shared memory, each
//!   thread computes an `e x e` sub-tile of elements held in thread-local
//!   (register-level) storage, with the inner element loop marked
//!   vectorizable. One source, performance-portable (Figs. 8/9).
//!
//! Argument convention (all variants, pitched row-major buffers):
//! * f64 buffers: 0 = A, 1 = B, 2 = C (in/out)
//! * f64 scalars: 0 = alpha, 1 = beta
//! * i64 scalars: 0 = m, 1 = n, 2 = k, 3 = lda, 4 = ldb, 5 = ldc

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_core::vec::{div_ceil, Vecn};
use alpaka_core::workdiv::WorkDiv;

/// Shared argument loading.
struct GemmArgs<O: KernelOps> {
    a: O::BufF,
    b: O::BufF,
    c: O::BufF,
    alpha: O::F,
    beta: O::F,
    m: O::I,
    n: O::I,
    k: O::I,
    lda: O::I,
    ldb: O::I,
    ldc: O::I,
}

fn gemm_args<O: KernelOps>(o: &mut O) -> GemmArgs<O> {
    GemmArgs {
        a: o.buf_f(0),
        b: o.buf_f(1),
        c: o.buf_f(2),
        alpha: o.param_f(0),
        beta: o.param_f(1),
        m: o.param_i(0),
        n: o.param_i(1),
        k: o.param_i(2),
        lda: o.param_i(3),
        ldb: o.param_i(4),
        ldc: o.param_i(5),
    }
}

/// Naive triple-loop DGEMM, one (element range of) output row(s) per
/// thread; 1-D launch over `m` rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct DgemmNaive;

impl DgemmNaive {
    /// The work division the paper's OpenMP kernel uses: rows over blocks,
    /// one thread, `v` rows per thread.
    pub fn workdiv(m: usize, v: usize) -> WorkDiv {
        WorkDiv::d1(div_ceil(m, v).max(1), 1, v)
    }
}

impl Kernel for DgemmNaive {
    fn name(&self) -> &str {
        "dgemm_naive"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let g = gemm_args(o);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let zero_i = o.lit_i(0);
        o.for_elements(0, |o, e| {
            let r = o.add_i(base, e);
            let in_m = o.lt_i(r, g.m);
            o.if_(in_m, |o| {
                let a_row = o.mul_i(r, g.lda);
                let c_row = o.mul_i(r, g.ldc);
                o.for_range(zero_i, g.n, |o, j| {
                    let zero_f = o.lit_f(0.0);
                    let sum = o.fold_range_f(zero_i, g.k, zero_f, |o, p, acc| {
                        let ai = o.add_i(a_row, p);
                        let av = o.ld_gf(g.a, ai);
                        let brow = o.mul_i(p, g.ldb);
                        let bi = o.add_i(brow, j);
                        let bv = o.ld_gf(g.b, bi);
                        o.fma_f(av, bv, acc)
                    });
                    let ci = o.add_i(c_row, j);
                    let cv = o.ld_gf(g.c, ci);
                    let scaled_c = o.mul_f(g.beta, cv);
                    let out = o.fma_f(g.alpha, sum, scaled_c);
                    o.st_gf(g.c, ci, out);
                });
            });
        });
    }
}

/// CUDA-programming-guide shared-memory tiling: 2-D `ts x ts` thread
/// blocks, one output element per thread.
#[derive(Debug, Clone, Copy)]
pub struct DgemmTiledCuda {
    /// Tile edge (threads per block dimension).
    pub ts: usize,
}

impl Default for DgemmTiledCuda {
    fn default() -> Self {
        DgemmTiledCuda { ts: 16 }
    }
}

impl DgemmTiledCuda {
    /// Matching 2-D work division for an `m x n` output.
    pub fn workdiv(&self, m: usize, n: usize) -> WorkDiv {
        WorkDiv::d2(
            Vecn([div_ceil(m, self.ts).max(1), div_ceil(n, self.ts).max(1)]),
            Vecn([self.ts, self.ts]),
            Vecn([1, 1]),
        )
    }
}

impl Kernel for DgemmTiledCuda {
    fn name(&self) -> &str {
        "dgemm_tiled_cuda"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let ts = self.ts as i64;
        let g = gemm_args(o);
        let sha = o.shared_f(self.ts * self.ts);
        let shb = o.shared_f(self.ts * self.ts);
        let ts_c = o.lit_i(ts);
        let ty = o.thread_idx(0);
        let tx = o.thread_idx(1);
        let by = o.block_idx(0);
        let bx = o.block_idx(1);
        let row = {
            let t = o.mul_i(by, ts_c);
            o.add_i(t, ty)
        };
        let col = {
            let t = o.mul_i(bx, ts_c);
            o.add_i(t, tx)
        };
        let zero_f = o.lit_f(0.0);
        // ntiles = ceil(k / ts)
        let ts_m1 = o.lit_i(ts - 1);
        let kp = o.add_i(g.k, ts_m1);
        let ntiles = o.div_i(kp, ts_c);
        let zero_i = o.lit_i(0);
        let sh_idx = {
            let t = o.mul_i(ty, ts_c);
            o.add_i(t, tx)
        };
        let sum = o.fold_range_f(zero_i, ntiles, zero_f, |o, t, acc_t| {
            let koff = o.mul_i(t, ts_c);
            // Load A[row, koff+tx] (guarded, zero-padded).
            let a_col = o.add_i(koff, tx);
            let zf = o.lit_f(0.0);
            let tmp_a = o.var_f(zf);
            let rm = o.lt_i(row, g.m);
            let ck = o.lt_i(a_col, g.k);
            let ok_a = o.and_b(rm, ck);
            o.if_(ok_a, |o| {
                let off = o.mul_i(row, g.lda);
                let ai = o.add_i(off, a_col);
                let av = o.ld_gf(g.a, ai);
                o.vset_f(tmp_a, av);
            });
            let av = o.vget_f(tmp_a);
            o.st_sf(sha, sh_idx, av);
            // Load B[koff+ty, col] (guarded).
            let b_row = o.add_i(koff, ty);
            let zf2 = o.lit_f(0.0);
            let tmp_b = o.var_f(zf2);
            let rk = o.lt_i(b_row, g.k);
            let cn = o.lt_i(col, g.n);
            let ok_b = o.and_b(rk, cn);
            o.if_(ok_b, |o| {
                let off = o.mul_i(b_row, g.ldb);
                let bi = o.add_i(off, col);
                let bv = o.ld_gf(g.b, bi);
                o.vset_f(tmp_b, bv);
            });
            let bv = o.vget_f(tmp_b);
            o.st_sf(shb, sh_idx, bv);
            o.sync_block_threads();
            // Multiply the tiles.
            let zero_i2 = o.lit_i(0);
            let ts_c2 = o.lit_i(ts);
            let acc_next = o.fold_range_f(zero_i2, ts_c2, acc_t, |o, p, acc| {
                let arow = o.mul_i(ty, ts_c2);
                let ai = o.add_i(arow, p);
                let av = o.ld_sf(sha, ai);
                let brow = o.mul_i(p, ts_c2);
                let bi = o.add_i(brow, tx);
                let bv = o.ld_sf(shb, bi);
                o.fma_f(av, bv, acc)
            });
            o.sync_block_threads();
            acc_next
        });
        // Write back (guarded).
        let rm = o.lt_i(row, g.m);
        let cn = o.lt_i(col, g.n);
        let ok = o.and_b(rm, cn);
        o.if_(ok, |o| {
            let off = o.mul_i(row, g.ldc);
            let ci = o.add_i(off, col);
            let cv = o.ld_gf(g.c, ci);
            let scaled_c = o.mul_f(g.beta, cv);
            let out = o.fma_f(g.alpha, sum, scaled_c);
            o.st_gf(g.c, ci, out);
        });
    }
}

/// The single-source hierarchically tiled DGEMM (Fig. 7): `t x t` threads
/// per block, `e x e` elements per thread, block tile edge `t*e`, staged
/// through shared memory, per-thread sub-tile in thread-local storage.
///
/// On GPUs use small `e` (1–4) with `t = 16`; on CPUs use `t = 1` with a
/// large `e` (16–128, i.e. 256–16k elements per thread — the Fig. 8
/// configurations).
#[derive(Debug, Clone, Copy)]
pub struct DgemmTiled {
    /// Threads per block edge.
    pub t: usize,
    /// Elements per thread edge.
    pub e: usize,
}

impl Default for DgemmTiled {
    fn default() -> Self {
        DgemmTiled { t: 16, e: 2 }
    }
}

impl DgemmTiled {
    /// Block tile edge.
    pub fn tile(&self) -> usize {
        self.t * self.e
    }

    /// Elements per thread (the paper's Fig. 8 series label).
    pub fn elems_per_thread(&self) -> usize {
        self.e * self.e
    }

    /// Shared memory bytes this configuration needs.
    pub fn shared_bytes(&self) -> usize {
        2 * self.tile() * self.tile() * 8
    }

    /// Matching 2-D work division for an `m x n` output.
    pub fn workdiv(&self, m: usize, n: usize) -> WorkDiv {
        let te = self.tile();
        WorkDiv::d2(
            Vecn([div_ceil(m, te).max(1), div_ceil(n, te).max(1)]),
            Vecn([self.t, self.t]),
            Vecn([self.e, self.e]),
        )
    }
}

impl Kernel for DgemmTiled {
    fn name(&self) -> &str {
        "dgemm_tiled"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let t = self.t as i64;
        let e = self.e as i64;
        let te = t * e;
        let g = gemm_args(o);
        let sha = o.shared_f((te * te) as usize);
        let shb = o.shared_f((te * te) as usize);
        let acc = o.local_f((e * e) as usize);
        let t_c = o.lit_i(t);
        let e_c = o.lit_i(e);
        let te_c = o.lit_i(te);
        let ty = o.thread_idx(0);
        let tx = o.thread_idx(1);
        let by = o.block_idx(0);
        let bx = o.block_idx(1);
        let row0 = o.mul_i(by, te_c);
        let col0 = o.mul_i(bx, te_c);
        let zero_i = o.lit_i(0);
        // Zero the per-thread accumulator sub-tile.
        let ee = o.lit_i(e * e);
        o.for_range(zero_i, ee, |o, q| {
            let zf = o.lit_f(0.0);
            o.st_lf(acc, q, zf);
        });
        // ntiles = ceil(k / te)
        let te_m1 = o.lit_i(te - 1);
        let kp = o.add_i(g.k, te_m1);
        let ntiles = o.div_i(kp, te_c);
        o.for_range(zero_i, ntiles, |o, kt| {
            let koff = o.mul_i(kt, te_c);
            // Each thread loads its e x e pattern of both tiles,
            // strided by t so warp lanes stay coalesced.
            o.for_range(zero_i, e_c, |o, i| {
                let it = o.mul_i(i, t_c);
                let lr = o.add_i(ty, it);
                o.for_range(zero_i, e_c, |o, j| {
                    let jt = o.mul_i(j, t_c);
                    let lc = o.add_i(tx, jt);
                    let lidx = {
                        let r = o.mul_i(lr, te_c);
                        o.add_i(r, lc)
                    };
                    // A tile element (row0+lr, koff+lc), zero-padded.
                    let gr = o.add_i(row0, lr);
                    let gc = o.add_i(koff, lc);
                    let zf = o.lit_f(0.0);
                    let tmp = o.var_f(zf);
                    let rm = o.lt_i(gr, g.m);
                    let ck = o.lt_i(gc, g.k);
                    let ok = o.and_b(rm, ck);
                    o.if_(ok, |o| {
                        let off = o.mul_i(gr, g.lda);
                        let ai = o.add_i(off, gc);
                        let av = o.ld_gf(g.a, ai);
                        o.vset_f(tmp, av);
                    });
                    let av = o.vget_f(tmp);
                    o.st_sf(sha, lidx, av);
                    // B tile element (koff+lr, col0+lc), zero-padded.
                    let gr2 = o.add_i(koff, lr);
                    let gc2 = o.add_i(col0, lc);
                    let zf2 = o.lit_f(0.0);
                    let tmp2 = o.var_f(zf2);
                    let rk = o.lt_i(gr2, g.k);
                    let cn = o.lt_i(gc2, g.n);
                    let ok2 = o.and_b(rk, cn);
                    o.if_(ok2, |o| {
                        let off = o.mul_i(gr2, g.ldb);
                        let bi = o.add_i(off, gc2);
                        let bv = o.ld_gf(g.b, bi);
                        o.vset_f(tmp2, bv);
                    });
                    let bv = o.vget_f(tmp2);
                    o.st_sf(shb, lidx, bv);
                });
            });
            o.sync_block_threads();
            // acc[i][j] += sum_p shA[ty + i*t][p] * shB[p][tx + j*t]
            o.for_range(zero_i, te_c, |o, p| {
                o.for_range(zero_i, e_c, |o, i| {
                    let it = o.mul_i(i, t_c);
                    let lr = o.add_i(ty, it);
                    let ai = {
                        let r = o.mul_i(lr, te_c);
                        o.add_i(r, p)
                    };
                    let av = o.ld_sf(sha, ai);
                    let ie = o.mul_i(i, e_c);
                    let brow = o.mul_i(p, te_c);
                    // Inner element loop: unit stride for t == 1 (the CPU
                    // mapping) — the vectorization hook of Section 3.2.4.
                    // The spans name the range it walks in shB and acc, so
                    // the CPU back-ends check each range once, not per
                    // element; the tracer emits nothing for them.
                    let b_row = o.span_sf(shb, 1, |o| o.add_i(brow, tx), |_| t_c);
                    let acc_row = o.span_lf(acc, 1, |_| ie, |o| o.lit_i(1));
                    o.for_elements(1, |o, j| {
                        let jt = o.mul_i(j, t_c);
                        let lc = o.add_i(tx, jt);
                        let bi = o.add_i(brow, lc);
                        let bv = o.ld_span_sf(b_row, j, bi);
                        let q = o.add_i(ie, j);
                        let cur = o.ld_span_lf(acc_row, j, q);
                        let nx = o.fma_f(av, bv, cur);
                        o.st_span_lf(acc_row, j, q, nx);
                    });
                });
            });
            o.sync_block_threads();
        });
        // Write back the e x e sub-tile (guarded).
        o.for_range(zero_i, e_c, |o, i| {
            let it = o.mul_i(i, t_c);
            let lr = o.add_i(ty, it);
            let gr = o.add_i(row0, lr);
            let ie = o.mul_i(i, e_c);
            o.for_elements(1, |o, j| {
                let jt = o.mul_i(j, t_c);
                let lc = o.add_i(tx, jt);
                let gc = o.add_i(col0, lc);
                let rm = o.lt_i(gr, g.m);
                let cn = o.lt_i(gc, g.n);
                let ok = o.and_b(rm, cn);
                o.if_(ok, |o| {
                    let off = o.mul_i(gr, g.ldc);
                    let ci = o.add_i(off, gc);
                    let cv = o.ld_gf(g.c, ci);
                    let q = o.add_i(ie, j);
                    let sum = o.ld_lf(acc, q);
                    let scaled_c = o.mul_f(g.beta, cv);
                    let out = o.fma_f(g.alpha, sum, scaled_c);
                    o.st_gf(g.c, ci, out);
                });
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{dgemm_ref, random_matrix, rel_err};
    use alpaka::{AccKind, Args, BufLayout, Device};

    /// Run any DGEMM kernel on any device and return dense C.
    fn run_gemm<K: Kernel + Clone + Send + 'static>(
        kind: AccKind,
        kernel: &K,
        wd: &WorkDiv,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
    ) -> Vec<f64> {
        let dev = Device::with_workers(kind, 4);
        let a = dev.alloc_f64(BufLayout::d2(m, k, 8));
        let b = dev.alloc_f64(BufLayout::d2(k, n, 8));
        let c = dev.alloc_f64(BufLayout::d2(m, n, 8));
        a.upload(&random_matrix(m, k, 11)).unwrap();
        b.upload(&random_matrix(k, n, 12)).unwrap();
        c.upload(&random_matrix(m, n, 13)).unwrap();
        let (lda, ldb, ldc) = (
            a.layout().pitch as i64,
            b.layout().pitch as i64,
            c.layout().pitch as i64,
        );
        let args = Args::new()
            .buf_f(&a)
            .buf_f(&b)
            .buf_f(&c)
            .scalar_f(alpha)
            .scalar_f(beta)
            .scalar_i(m as i64)
            .scalar_i(n as i64)
            .scalar_i(k as i64)
            .scalar_i(lda)
            .scalar_i(ldb)
            .scalar_i(ldc);
        dev.launch(kernel, wd, &args).unwrap();
        c.download()
    }

    fn reference(m: usize, n: usize, k: usize, alpha: f64, beta: f64) -> Vec<f64> {
        let a = random_matrix(m, k, 11);
        let b = random_matrix(k, n, 12);
        let mut c = random_matrix(m, n, 13);
        dgemm_ref(m, n, k, alpha, &a, &b, beta, &mut c);
        c
    }

    #[test]
    fn naive_matches_reference_on_cpu_backends() {
        let (m, n, k) = (33, 29, 17); // deliberately awkward sizes
        let want = reference(m, n, k, 1.5, 0.5);
        for kind in [AccKind::CpuSerial, AccKind::CpuBlocks] {
            let got = run_gemm(
                kind.clone(),
                &DgemmNaive,
                &DgemmNaive::workdiv(m, 4),
                m,
                n,
                k,
                1.5,
                0.5,
            );
            assert!(rel_err(&got, &want) < 1e-13, "{kind:?}");
        }
    }

    #[test]
    fn naive_matches_reference_on_sim_gpu() {
        let (m, n, k) = (24, 20, 16);
        let want = reference(m, n, k, 1.0, 0.0);
        let got = run_gemm(
            AccKind::sim_k20(),
            &DgemmNaive,
            &DgemmNaive::workdiv(m, 1),
            m,
            n,
            k,
            1.0,
            0.0,
        );
        assert!(rel_err(&got, &want) < 1e-13);
    }

    #[test]
    fn tiled_cuda_matches_reference_everywhere() {
        let (m, n, k) = (40, 36, 28); // not multiples of ts=8
        let kern = DgemmTiledCuda { ts: 8 };
        let wd = kern.workdiv(m, n);
        let want = reference(m, n, k, 2.0, 1.0);
        for kind in [
            AccKind::CpuThreads,
            AccKind::CpuBlockThreads,
            AccKind::CpuFibers,
            AccKind::sim_k20(),
        ] {
            let got = run_gemm(kind.clone(), &kern, &wd, m, n, k, 2.0, 1.0);
            assert!(rel_err(&got, &want) < 1e-13, "{kind:?}");
        }
    }

    #[test]
    fn tiled_single_source_gpu_config() {
        let (m, n, k) = (40, 36, 28);
        let kern = DgemmTiled { t: 8, e: 2 };
        let wd = kern.workdiv(m, n);
        let want = reference(m, n, k, 1.0, 0.25);
        for kind in [AccKind::CpuThreads, AccKind::sim_k20()] {
            let got = run_gemm(kind.clone(), &kern, &wd, m, n, k, 1.0, 0.25);
            assert!(rel_err(&got, &want) < 1e-13, "{kind:?}");
        }
    }

    #[test]
    fn tiled_single_source_cpu_config() {
        // t=1: single-thread blocks with a big element sub-tile, runnable
        // on the block-pool back-end and the simulated CPU.
        let (m, n, k) = (50, 46, 34);
        let kern = DgemmTiled { t: 1, e: 16 };
        let wd = kern.workdiv(m, n);
        let want = reference(m, n, k, 1.0, 0.0);
        for kind in [
            AccKind::CpuSerial,
            AccKind::CpuBlocks,
            AccKind::sim_e5_2630v3(),
        ] {
            let got = run_gemm(kind.clone(), &kern, &wd, m, n, k, 1.0, 0.0);
            assert!(rel_err(&got, &want) < 1e-13, "{kind:?}");
        }
    }

    #[test]
    fn all_variants_agree_with_each_other() {
        let (m, n, k) = (32, 32, 32);
        let naive = run_gemm(
            AccKind::CpuSerial,
            &DgemmNaive,
            &DgemmNaive::workdiv(m, 2),
            m,
            n,
            k,
            1.0,
            0.0,
        );
        let cuda = run_gemm(
            AccKind::sim_k20(),
            &DgemmTiledCuda { ts: 8 },
            &DgemmTiledCuda { ts: 8 }.workdiv(m, n),
            m,
            n,
            k,
            1.0,
            0.0,
        );
        let tiled = run_gemm(
            AccKind::CpuBlocks,
            &DgemmTiled { t: 1, e: 8 },
            &DgemmTiled { t: 1, e: 8 }.workdiv(m, n),
            m,
            n,
            k,
            1.0,
            0.0,
        );
        assert!(rel_err(&naive, &cuda) < 1e-13);
        assert!(rel_err(&naive, &tiled) < 1e-13);
    }

    #[test]
    fn workdiv_helpers_cover_output() {
        let kern = DgemmTiled { t: 4, e: 4 };
        let wd = kern.workdiv(100, 60);
        assert_eq!(wd.dim, 2);
        // 100/16 -> 7 blocks, 60/16 -> 4 blocks.
        assert_eq!(wd.blocks, [1, 7, 4]);
        assert_eq!(wd.threads, [1, 4, 4]);
        assert_eq!(wd.elems, [1, 4, 4]);
        assert_eq!(kern.shared_bytes(), 2 * 16 * 16 * 8);
        assert_eq!(kern.elems_per_thread(), 16);
    }
}
