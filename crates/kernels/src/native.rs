//! *Native* baselines: the same algorithms written WITHOUT the abstraction
//! layer, as plain multithreaded Rust. These are the "native OpenMP"
//! comparators of the paper's Figs. 5, 6 and 8: the Alpaka-kernel wall time
//! divided by these functions' wall time is the reported relative speedup.
//! Each worker's loop runs in the ISA copy the CPU back-ends would pick
//! ([`IsaLevel`], detected once per call), and multiply-adds through its
//! token, so Fig. 5 and Fig. 8 compare like with like.

use std::sync::atomic::{AtomicUsize, Ordering};

use alpaka_core::fma::{Isa, IsaJob, IsaLevel};

/// Native DAXPY `y <- alpha*x + y`, chunked over `threads` OS threads.
pub fn native_daxpy(alpha: f64, x: &[f64], y: &mut [f64], threads: usize) {
    daxpy_on(IsaLevel::detect(), alpha, x, y, threads)
}

pub(crate) fn daxpy_on(isa: IsaLevel, alpha: f64, x: &[f64], y: &mut [f64], threads: usize) {
    assert_eq!(x.len(), y.len());
    let threads = threads.max(1);
    let chunk = x.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (x, y) in x.chunks(chunk).zip(y.chunks_mut(chunk)) {
            scope.spawn(move || isa.run(Axpy { alpha, x, y }));
        }
    });
}

/// One DAXPY chunk.
struct Axpy<'a> {
    alpha: f64,
    x: &'a [f64],
    y: &'a mut [f64],
}

impl IsaJob for Axpy<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        for (yi, xi) in self.y.iter_mut().zip(self.x) {
            *yi = isa.fma(*xi, self.alpha, *yi);
        }
    }
}

/// Native naive DGEMM (`C <- alpha*A*B + beta*C`, dense row-major,
/// leading dimensions = logical widths), rows dynamically scheduled over
/// `threads` OS threads — the paper's "native OpenMP 2" kernel.
#[allow(clippy::too_many_arguments)]
pub fn native_dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    threads: usize,
) {
    let g = Gemm::new(m, n, k, alpha, a, b, beta, c);
    dgemm_on(IsaLevel::detect(), &g, threads)
}

pub(crate) fn dgemm_on(isa: IsaLevel, g: &Gemm<'_>, threads: usize) {
    let threads = threads.max(1).min(g.m.max(1));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            scope.spawn(move || isa.run(Rows { g, next }));
        }
    });
}

/// `C <- alpha*A*B + beta*C` over row-major `A` (`m x k`), `B` (`k x n`) and
/// `C` (`m x n`). Workers write disjoint rows of `C` through `c`.
pub(crate) struct Gemm<'a> {
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &'a [f64],
    b: &'a [f64],
    beta: f64,
    c: SendPtr,
}

impl<'a> Gemm<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &'a [f64],
        b: &'a [f64],
        beta: f64,
        c: &'a mut [f64],
    ) -> Self {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(c.len(), m * n);
        Gemm {
            m,
            n,
            k,
            alpha,
            a,
            b,
            beta,
            c: SendPtr(c.as_mut_ptr()),
        }
    }
}

/// One `native_dgemm` worker: claims rows until none are left.
struct Rows<'a> {
    g: &'a Gemm<'a>,
    next: &'a AtomicUsize,
}

impl IsaJob for Rows<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let Gemm {
            m,
            n,
            k,
            alpha,
            a,
            b,
            beta,
            ..
        } = *self.g;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= m {
                break;
            }
            // SAFETY: each row index i is claimed exactly once, so the
            // row slices are disjoint across workers.
            let row = unsafe { std::slice::from_raw_parts_mut(self.g.c.0.add(i * n), n) };
            for (j, cij) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..k {
                    acc = isa.fma(a[i * k + p], b[p * n + j], acc);
                }
                *cij = isa.fma(alpha, acc, beta * *cij);
            }
        }
    }
}

struct SendPtr(*mut f64);
// SAFETY: workers write disjoint rows (claimed via the atomic counter).
unsafe impl Sync for SendPtr {}

/// Native cache-blocked DGEMM with `bs x bs` tiles — the optimized CPU
/// comparator for the tiling experiments.
#[allow(clippy::too_many_arguments)]
pub fn native_dgemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    bs: usize,
    threads: usize,
) {
    assert!(bs > 0);
    // beta-scale first, then accumulate alpha*A*B tile-wise.
    for v in c.iter_mut() {
        *v *= beta;
    }
    let g = Gemm::new(m, n, k, alpha, a, b, beta, c);
    dgemm_blocked_on(IsaLevel::detect(), &g, bs, threads)
}

/// The tile phase of [`native_dgemm_blocked`]: `C` is already scaled by
/// beta.
pub(crate) fn dgemm_blocked_on(isa: IsaLevel, g: &Gemm<'_>, bs: usize, threads: usize) {
    let threads = threads.max(1);
    let row_tiles = g.m.div_ceil(bs);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(row_tiles.max(1)) {
            let next = &next;
            scope.spawn(move || isa.run(Tiles { g, bs, next }));
        }
    });
}

/// One `native_dgemm_blocked` worker: claims row tiles until none are left.
struct Tiles<'a> {
    g: &'a Gemm<'a>,
    bs: usize,
    next: &'a AtomicUsize,
}

impl IsaJob for Tiles<'_> {
    type Out = ();
    #[inline(always)]
    fn run<I: Isa>(self, isa: I) {
        let Gemm {
            m,
            n,
            k,
            alpha,
            a,
            b,
            ..
        } = *self.g;
        let bs = self.bs;
        let row_tiles = m.div_ceil(bs);
        loop {
            let it = self.next.fetch_add(1, Ordering::Relaxed);
            if it >= row_tiles {
                break;
            }
            let i0 = it * bs;
            let i1 = (i0 + bs).min(m);
            // SAFETY: row tiles are disjoint across workers.
            let crows =
                unsafe { std::slice::from_raw_parts_mut(self.g.c.0.add(i0 * n), (i1 - i0) * n) };
            for p0 in (0..k).step_by(bs) {
                let p1 = (p0 + bs).min(k);
                for j0 in (0..n).step_by(bs) {
                    let j1 = (j0 + bs).min(n);
                    for i in i0..i1 {
                        let crow = &mut crows[(i - i0) * n..(i - i0) * n + n];
                        for p in p0..p1 {
                            let av = alpha * a[i * k + p];
                            let brow = &b[p * n..p * n + n];
                            for j in j0..j1 {
                                crow[j] = isa.fma(av, brow[j], crow[j]);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{dgemm_ref, random_matrix, random_vec, rel_err};

    #[test]
    fn native_daxpy_matches_reference() {
        let n = 1003;
        let x = random_vec(n, 1);
        let mut y = random_vec(n, 2);
        let mut want = y.clone();
        crate::host::daxpy_ref(2.5, &x, &mut want);
        native_daxpy(2.5, &x, &mut y, 4);
        assert_eq!(y, want);
    }

    #[test]
    fn native_dgemm_matches_reference() {
        let (m, n, k) = (37, 29, 23);
        let a = random_matrix(m, k, 3);
        let b = random_matrix(k, n, 4);
        let mut c = random_matrix(m, n, 5);
        let mut want = c.clone();
        dgemm_ref(m, n, k, 1.5, &a, &b, 0.5, &mut want);
        native_dgemm(m, n, k, 1.5, &a, &b, 0.5, &mut c, 4);
        assert!(rel_err(&c, &want) < 1e-13);
    }

    #[test]
    fn native_blocked_matches_reference() {
        let (m, n, k) = (45, 41, 33);
        let a = random_matrix(m, k, 6);
        let b = random_matrix(k, n, 7);
        let mut c = random_matrix(m, n, 8);
        let mut want = c.clone();
        dgemm_ref(m, n, k, 2.0, &a, &b, 1.0, &mut want);
        native_dgemm_blocked(m, n, k, 2.0, &a, &b, 1.0, &mut c, 16, 4);
        assert!(rel_err(&c, &want) < 1e-13);
    }

    /// Every ISA copy this CPU runs leaves the same bits in all three
    /// baselines.
    #[test]
    fn native_isa_copies_are_bit_identical() {
        let (m, n, k) = (45, 41, 33);
        let a = random_matrix(m, k, 11);
        let b = random_matrix(k, n, 12);
        let c0 = random_matrix(m, n, 13);
        let x = random_vec(1003, 14);
        let y0 = random_vec(1003, 15);
        let run = |isa: IsaLevel| {
            let mut y = y0.clone();
            daxpy_on(isa, 2.5, &x, &mut y, 3);
            let mut c = c0.clone();
            dgemm_on(isa, &Gemm::new(m, n, k, 1.5, &a, &b, 0.5, &mut c), 3);
            let mut cb = c0.clone();
            dgemm_blocked_on(isa, &Gemm::new(m, n, k, 1.5, &a, &b, 0.5, &mut cb), 16, 3);
            [y, c, cb].map(|v| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>())
        };
        let isas = IsaLevel::supported();
        let want = run(isas[0]);
        for isa in &isas[1..] {
            let got = run(*isa);
            for (what, (g, w)) in ["daxpy", "dgemm", "dgemm_blocked"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                assert!(g == w, "native {what}: {isa:?} differs");
            }
        }
    }

    #[test]
    fn single_thread_works() {
        let (m, n, k) = (8, 8, 8);
        let a = random_matrix(m, k, 9);
        let b = random_matrix(k, n, 10);
        let mut c = vec![0.0; m * n];
        let mut want = vec![0.0; m * n];
        dgemm_ref(m, n, k, 1.0, &a, &b, 0.0, &mut want);
        native_dgemm(m, n, k, 1.0, &a, &b, 0.0, &mut c, 1);
        assert!(rel_err(&c, &want) < 1e-14);
    }
}
