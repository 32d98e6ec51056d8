//! `workdiv_sweep` — Matthes-style tuning (arXiv:1706.10086): four kernels
//! (DAXPY 2^16, naive transpose 256^2, Jacobi step 256^2, tiled DGEMM n=64)
//! x 72 work divisions each on `k20`, launched in seed-shuffled cyclic order
//! with `LaunchMode::TimingSampled(4)` through `alpaka::time_launch`. Every
//! launch re-traces and re-optimises, and because 288 distinct specialised
//! programs cycle through 32-entry FIFO program caches, re-lowers and
//! re-compiles. How the wall splits between that front end and the four
//! sampled blocks each launch still interprets is measured, not assumed
//! (README, "What the traced runs show").

use alpaka::{BufLayout, LaunchMode, WorkDiv};
use alpaka_core::vec::Vecn;
use alpaka_kernels::host::{daxpy_ref, dgemm_ref, jacobi_ref, random_matrix, random_vec};
use alpaka_kernels::transpose::transpose_ref;
use alpaka_kernels::{DaxpyKernel, DgemmTiled, JacobiStep, TransposeNaive};
use alpaka_sim::{DeviceSpec, SimReport};

use super::{ProgramUnderTest, Workload};
use crate::harness::Harness;
use crate::metrics::MetricSet;
use crate::simdev::{Bound, Buf, SimDev};
use crate::util::{bit_equal, rel_err, Rng};

const ALPHA: f64 = 2.5;
const SAMPLED: LaunchMode = LaunchMode::TimingSampled(4);
const PER_KERNEL: usize = 72;
const PHASES: usize = 4;

#[derive(Clone, Copy)]
enum Kind {
    Daxpy,
    Transpose,
    Jacobi,
    Dgemm(DgemmTiled),
}

#[derive(Clone, Copy)]
struct Variant {
    kind: Kind,
    wd: WorkDiv,
}

/// Buffers of one kernel, shared by all its work divisions.
struct Bufs {
    bound: Bound,
    /// Output buffer, its initial contents and the host reference after one
    /// exact launch.
    out: Buf,
    init: Vec<f64>,
    want: Vec<f64>,
    tolerance: f64,
}

pub struct WorkdivSweep {
    dev: SimDev,
    /// Index by `Kind` order: daxpy, transpose, jacobi, dgemm.
    bufs: Vec<Bufs>,
    /// Seed-shuffled launch order.
    order: Vec<Variant>,
    /// Modelled seconds per position of `order`, learnt in the warm-up; a
    /// later launch that models a different time is a failed check.
    model_s: Vec<Option<u64>>,
    verified: bool,
}

fn kind_index(k: Kind) -> usize {
    match k {
        Kind::Daxpy => 0,
        Kind::Transpose => 1,
        Kind::Jacobi => 2,
        Kind::Dgemm(_) => 3,
    }
}

fn ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// The 4 x 72 work divisions, in a fixed order (shuffled afterwards).
fn variants(n_daxpy: usize, side: usize, gemm_n: usize) -> Vec<Variant> {
    let mut v = Vec::with_capacity(4 * PER_KERNEL);
    // The ranges a tuner tries on a K20: up to the device's 1024 threads
    // per block, up to 16 elements per thread.
    // DAXPY: threads per block x elements per thread.
    for t in [32, 64, 96, 128, 192, 256, 384, 512, 1024] {
        for e in [1, 2, 3, 4, 6, 8, 12, 16] {
            v.push(Variant {
                kind: Kind::Daxpy,
                wd: WorkDiv::d1(ceil(n_daxpy, t * e), t, e),
            });
        }
    }
    // Naive transpose: any 2-D block shape up to 1024 threads.
    for by in [1, 2, 3, 4, 6, 8, 12, 16, 32] {
        for bx in [1, 2, 4, 8, 12, 16, 24, 32] {
            v.push(Variant {
                kind: Kind::Transpose,
                wd: WorkDiv::d2(
                    Vecn([ceil(side, by), ceil(side, bx)]),
                    Vecn([by, bx]),
                    Vecn([1, 1]),
                ),
            });
        }
    }
    // Jacobi: square thread blocks x elements along the row.
    for bt in [1, 2, 3, 4, 6, 8, 12, 16, 32] {
        for ev in [1, 2, 3, 4, 6, 8, 12, 16] {
            v.push(Variant {
                kind: Kind::Jacobi,
                wd: JacobiStep::workdiv(side, side, bt, ev),
            });
        }
    }
    // Tiled DGEMM: every (t, e) whose tile fits 48 KiB of shared memory
    // twice (t*e <= 48), smallest tiles first.
    let mut te: Vec<(usize, usize)> = (1..=16)
        .flat_map(|t| (1..=6).map(move |e| (t, e)))
        .filter(|(t, e)| t * e <= 48)
        .collect();
    te.sort_by_key(|&(t, e)| (t * e, t));
    for &(t, e) in te.iter().take(PER_KERNEL) {
        let k = DgemmTiled { t, e };
        v.push(Variant {
            kind: Kind::Dgemm(k),
            wd: k.workdiv(gemm_n, gemm_n),
        });
    }
    v
}

impl WorkdivSweep {
    pub fn new(seed: u64, toy: bool, staged: bool) -> Self {
        let s = seed.wrapping_mul(1000);
        let (n_daxpy, side, gemm_n) = if toy {
            (1 << 12, 48, 24)
        } else {
            (1 << 16, 256, 64)
        };
        let mut h = Harness::new(false);
        let mut dev = SimDev::new(DeviceSpec::k20(), 1, staged);
        let mut bufs = Vec::new();

        {
            let x = random_vec(n_daxpy, s + 1);
            let y0 = random_vec(n_daxpy, s + 2);
            let mut want = y0.clone();
            daxpy_ref(ALPHA, &x, &mut want);
            let dx = dev.alloc_f(BufLayout::d1(n_daxpy));
            let dy = dev.alloc_f(BufLayout::d1(n_daxpy));
            dev.upload_f(&mut h, &dx, &x);
            bufs.push(Bufs {
                bound: dev.bind(&[&dx, &dy], &[ALPHA], &[n_daxpy as i64]),
                out: dy,
                init: y0,
                want,
                tolerance: 0.0,
            });
        }
        {
            let data = random_matrix(side, side, s + 3);
            let input = dev.alloc_f(BufLayout::d2(side, side, 8));
            let out = dev.alloc_f(BufLayout::d2(side, side, 8));
            dev.upload_f(&mut h, &input, &data);
            bufs.push(Bufs {
                bound: dev.bind(
                    &[&input, &out],
                    &[],
                    &[side as i64, side as i64, input.pitch(), out.pitch()],
                ),
                out,
                init: vec![0.0; side * side],
                want: transpose_ref(side, side, &data),
                tolerance: 0.0,
            });
        }
        {
            let data = random_matrix(side, side, s + 4);
            let mut want = vec![0.0; side * side];
            jacobi_ref(side, side, &data, &mut want);
            let src = dev.alloc_f(BufLayout::d2(side, side, 8));
            let dst = dev.alloc_f(BufLayout::d2(side, side, 8));
            dev.upload_f(&mut h, &src, &data);
            bufs.push(Bufs {
                bound: dev.bind(&[&src, &dst], &[], &[side as i64, side as i64, src.pitch()]),
                out: dst,
                init: vec![0.0; side * side],
                want,
                tolerance: 1e-13,
            });
        }
        {
            let n = gemm_n;
            let (a, b) = (random_matrix(n, n, s + 5), random_matrix(n, n, s + 6));
            let mut want = vec![0.0; n * n];
            dgemm_ref(n, n, n, 1.0, &a, &b, 0.0, &mut want);
            let da = dev.alloc_f(BufLayout::d2(n, n, 8));
            let db = dev.alloc_f(BufLayout::d2(n, n, 8));
            let dc = dev.alloc_f(BufLayout::d2(n, n, 8));
            dev.upload_f(&mut h, &da, &a);
            dev.upload_f(&mut h, &db, &b);
            let ni = n as i64;
            bufs.push(Bufs {
                bound: dev.bind(
                    &[&da, &db, &dc],
                    &[1.0, 0.0],
                    &[ni, ni, ni, da.pitch(), db.pitch(), dc.pitch()],
                ),
                out: dc,
                init: vec![0.0; n * n],
                want,
                tolerance: 1e-13,
            });
        }
        assert_eq!(
            h.rec.failed, 0,
            "set-up uploads failed: {:?}",
            h.rec.failures
        );

        let mut order = variants(n_daxpy, side, gemm_n);
        assert_eq!(order.len(), 4 * PER_KERNEL);
        Rng::new(seed).shuffle(&mut order);
        WorkdivSweep {
            dev,
            bufs,
            model_s: vec![None; order.len()],
            order,
            verified: false,
        }
    }

    fn launch(&mut self, h: &mut Harness, v: Variant, mode: LaunchMode) -> Option<SimReport> {
        let bound = &self.bufs[kind_index(v.kind)].bound;
        match v.kind {
            Kind::Daxpy => self.dev.launch(h, &DaxpyKernel, &v.wd, bound, mode),
            Kind::Transpose => self.dev.launch(h, &TransposeNaive, &v.wd, bound, mode),
            Kind::Jacobi => self.dev.launch(h, &JacobiStep, &v.wd, bound, mode),
            Kind::Dgemm(k) => self.dev.launch(h, &k, &v.wd, bound, mode),
        }
    }

    /// One work division per kernel (the 37th of its 72 in the shuffled
    /// order, so the seed picks it): the ones `check` and the sampling probe
    /// run exactly.
    fn exact_picks(&self) -> Vec<Variant> {
        (0..4)
            .map(|k| {
                *self
                    .order
                    .iter()
                    .filter(|v| kind_index(v.kind) == k)
                    .nth(PER_KERNEL / 2)
                    .expect("72 work divisions per kernel")
            })
            .collect()
    }
}

impl Workload for WorkdivSweep {
    fn phases(&self) -> Vec<&'static str> {
        vec!["sweep_q1", "sweep_q2", "sweep_q3", "sweep_q4"]
    }

    fn run_phase(&mut self, phase: usize, h: &mut Harness) {
        let per = self.order.len() / PHASES;
        let mut repeatable = true;
        for i in phase * per..(phase + 1) * per {
            let v = self.order[i];
            if let Some(rep) = self.launch(h, v, SAMPLED) {
                let bits = rep.time.total_s.to_bits();
                repeatable &= *self.model_s[i].get_or_insert(bits) == bits;
            }
        }
        h.check("modelled times repeat", repeatable);
    }

    fn check(&mut self, h: &mut Harness) {
        // Sampled launches leave partial outputs, so correctness is checked
        // once, after the warm-up, with one exact launch per kernel.
        if std::mem::replace(&mut self.verified, true) {
            return;
        }
        for v in self.exact_picks() {
            let k = kind_index(v.kind);
            let init = self.bufs[k].init.clone();
            let out = self.bufs[k].out.clone();
            self.dev.upload_f(h, &out, &init);
            self.launch(h, v, LaunchMode::Exact);
            let got = self.dev.download_f(h, &out);
            let b = &self.bufs[k];
            let ok = if b.tolerance == 0.0 {
                bit_equal(&got, &b.want)
            } else {
                rel_err(&got, &b.want) <= b.tolerance
            };
            h.check("exact launch matches host reference", ok);
        }
    }

    fn programs(&self) -> Vec<ProgramUnderTest> {
        self.order
            .iter()
            .map(|v| {
                let (prog, bufs) = match v.kind {
                    Kind::Daxpy => (SimDev::compile(&DaxpyKernel, &v.wd), (2, 0)),
                    Kind::Transpose => (SimDev::compile(&TransposeNaive, &v.wd), (2, 0)),
                    Kind::Jacobi => (SimDev::compile(&JacobiStep, &v.wd), (2, 0)),
                    Kind::Dgemm(k) => (SimDev::compile(&k, &v.wd), (3, 0)),
                };
                ProgramUnderTest {
                    spec: self.dev.spec.clone(),
                    prog,
                    wd: v.wd,
                    bufs,
                }
            })
            .collect()
    }

    fn probes(&mut self, _seed: u64, h: &mut Harness, m: &mut MetricSet) {
        // How far block sampling is from the exact modelled time.
        let mut worst = 0.0f64;
        for v in self.exact_picks() {
            let sampled = self.launch(h, v, SAMPLED).map(|r| r.time.total_s);
            let exact = self.launch(h, v, LaunchMode::Exact).map(|r| r.time.total_s);
            if let (Some(s), Some(e)) = (sampled, exact) {
                worst = worst.max((s - e).abs() / e);
            }
        }
        m.insert("sim.sampled_err", worst);
    }
}
