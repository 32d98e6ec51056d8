//! `short_blocks` — grids of 10^4-10^5 short blocks on `e5_2630v3` and
//! `k20`: DAXPY 2^21 in 64-element blocks, `ScanBlocks`, `TransposeTiled`,
//! `HistogramGlobalExact`. The same execution layer as `dgemm_peak` used
//! differently: per-block fixed cost, the unfused flat path, the
//! coalescing/cache model and the atomics merge dominate (ROADMAP item 3's
//! 12x per-instruction gap lives here).

use std::time::Instant;

use alpaka::{BufLayout, LaunchMode, WorkDiv};
use alpaka_kernels::histogram::histogram_ref;
use alpaka_kernels::host::{daxpy_ref, random_vec};
use alpaka_kernels::scan::exclusive_scan_ref;
use alpaka_kernels::transpose::{transpose_ref, transpose_workdiv};
use alpaka_kernels::{DaxpyKernel, HistogramGlobalExact, ScanBlocks, TransposeTiled};
use alpaka_sim::{CacheSim, DeviceSpec};

use super::{median_time, ProgramUnderTest, Workload};
use crate::harness::Harness;
use crate::metrics::MetricSet;
use crate::simdev::{Bound, Buf, SimDev};
use crate::util::{bit_equal, rel_err, Rng};

const ALPHA: f64 = 2.5;
const SCAN_BLOCK: usize = 64;
const HIST_ELEMS: usize = 128;
const HIST_BINS: usize = 64;
const TRANSPOSE_TS: usize = 16;

struct Daxpy {
    name: &'static str,
    dev: SimDev,
    wd: WorkDiv,
    bound: Bound,
    y: Buf,
    y0: Vec<f64>,
    want: Vec<f64>,
}

struct Scan {
    dev: SimDev,
    wd: WorkDiv,
    bound: Bound,
    out: Buf,
    sums: Buf,
    want_out: Vec<f64>,
    want_sums: Vec<f64>,
}

struct Transpose {
    dev: SimDev,
    wd: WorkDiv,
    bound: Bound,
    out: Buf,
    want: Vec<f64>,
}

struct Histogram {
    dev: SimDev,
    wd: WorkDiv,
    bound: Bound,
    bins: Buf,
    want: Vec<i64>,
}

pub struct ShortBlocks {
    seed: u64,
    toy: bool,
    daxpy: Vec<Daxpy>,
    scan: Scan,
    transpose: Transpose,
    hist: Histogram,
}

fn daxpy_case(
    name: &'static str,
    spec: DeviceSpec,
    n: usize,
    seed: u64,
    threads: usize,
    staged: bool,
    h: &mut Harness,
) -> Daxpy {
    let mut dev = SimDev::new(spec, threads, staged);
    // 64 elements per block either way: one thread walking 64 elements on
    // CPU models, 64 threads with one element each on GPU models.
    let wd = if dev.single_thread_blocks() {
        WorkDiv::d1(n / 64, 1, 64)
    } else {
        WorkDiv::d1(n / 64, 64, 1)
    };
    let x = random_vec(n, seed);
    let y0 = random_vec(n, seed + 1);
    let mut want = y0.clone();
    daxpy_ref(ALPHA, &x, &mut want);
    let dx = dev.alloc_f(BufLayout::d1(n));
    let dy = dev.alloc_f(BufLayout::d1(n));
    dev.upload_f(h, &dx, &x);
    let bound = dev.bind(&[&dx, &dy], &[ALPHA], &[n as i64]);
    Daxpy {
        name,
        dev,
        wd,
        bound,
        y: dy,
        y0,
        want,
    }
}

impl ShortBlocks {
    pub fn new(seed: u64, toy: bool, staged: bool) -> Self {
        Self::with_threads(seed, toy, staged, 1)
    }

    /// `threads` interpreter threads per device (the `par` probe uses 2).
    fn with_threads(seed: u64, toy: bool, staged: bool, threads: usize) -> Self {
        let s = seed.wrapping_mul(1000);
        let mut h = Harness::new(false);
        let n = if toy { 1 << 12 } else { 1 << 21 };
        let daxpy = vec![
            daxpy_case(
                "daxpy_e5",
                DeviceSpec::e5_2630v3(),
                n,
                s + 1,
                threads,
                staged,
                &mut h,
            ),
            daxpy_case(
                "daxpy_k20",
                DeviceSpec::k20(),
                n,
                s + 3,
                threads,
                staged,
                &mut h,
            ),
        ];

        let scan = {
            let n = if toy { 1 << 10 } else { 1 << 21 };
            let chunk = 2 * SCAN_BLOCK;
            let mut dev = SimDev::new(DeviceSpec::k20(), threads, staged);
            let data = random_vec(n, s + 5);
            let mut want_out = Vec::with_capacity(n);
            let mut want_sums = Vec::with_capacity(n / chunk);
            for c in data.chunks(chunk) {
                want_out.extend(exclusive_scan_ref(c));
                want_sums.push(c.iter().sum::<f64>());
            }
            let input = dev.alloc_f(BufLayout::d1(n));
            let out = dev.alloc_f(BufLayout::d1(n));
            let sums = dev.alloc_f(BufLayout::d1(n / chunk));
            dev.upload_f(&mut h, &input, &data);
            let bound = dev.bind(&[&input, &out, &sums], &[], &[n as i64]);
            Scan {
                dev,
                wd: WorkDiv::d1(n / chunk, SCAN_BLOCK, 1),
                bound,
                out,
                sums,
                want_out,
                want_sums,
            }
        };

        let transpose = {
            let (rows, cols) = if toy { (64, 32) } else { (2048, 2048) };
            let mut dev = SimDev::new(DeviceSpec::k20(), threads, staged);
            let data = random_vec(rows * cols, s + 6);
            let input = dev.alloc_f(BufLayout::d2(rows, cols, 8));
            let out = dev.alloc_f(BufLayout::d2(cols, rows, 8));
            dev.upload_f(&mut h, &input, &data);
            let bound = dev.bind(
                &[&input, &out],
                &[],
                &[rows as i64, cols as i64, input.pitch(), out.pitch()],
            );
            Transpose {
                dev,
                wd: transpose_workdiv(rows, cols, TRANSPOSE_TS),
                bound,
                out,
                want: transpose_ref(rows, cols, &data),
            }
        };

        let hist = {
            let blocks = if toy { 32 } else { 1 << 14 };
            let n = blocks * HIST_ELEMS;
            let mut dev = SimDev::new(DeviceSpec::e5_2630v3(), threads, staged);
            let samples = random_vec(n, s + 7);
            let ds = dev.alloc_f(BufLayout::d1(n));
            let bins = dev.alloc_i(BufLayout::d1(HIST_BINS));
            dev.upload_f(&mut h, &ds, &samples);
            let bound = dev.bind(&[&ds, &bins], &[0.0, 10.0], &[n as i64, HIST_BINS as i64]);
            Histogram {
                dev,
                wd: WorkDiv::d1(blocks, 1, HIST_ELEMS),
                bound,
                bins,
                want: histogram_ref(&samples, 0.0, 10.0, HIST_BINS),
            }
        };
        assert_eq!(
            h.rec.failed, 0,
            "set-up uploads failed: {:?}",
            h.rec.failures
        );
        ShortBlocks {
            seed,
            toy,
            daxpy,
            scan,
            transpose,
            hist,
        }
    }
}

impl Workload for ShortBlocks {
    fn phases(&self) -> Vec<&'static str> {
        vec![
            self.daxpy[0].name,
            self.daxpy[1].name,
            "scan_k20",
            "transpose_k20",
            "histogram_e5",
        ]
    }

    fn run_phase(&mut self, phase: usize, h: &mut Harness) {
        let exact = LaunchMode::Exact;
        match phase {
            0 | 1 => {
                // y is in/out: restore it so every repetition computes
                // alpha*x + y0 and the reference stays valid.
                let d = &mut self.daxpy[phase];
                d.dev.upload_f(h, &d.y, &d.y0);
                d.dev.launch(h, &DaxpyKernel, &d.wd, &d.bound, exact);
            }
            2 => {
                let s = &mut self.scan;
                let k = ScanBlocks { block: SCAN_BLOCK };
                s.dev.launch(h, &k, &s.wd, &s.bound, exact);
            }
            3 => {
                let t = &mut self.transpose;
                let k = TransposeTiled { ts: TRANSPOSE_TS };
                t.dev.launch(h, &k, &t.wd, &t.bound, exact);
            }
            _ => {
                let g = &mut self.hist;
                g.dev.upload_i(h, &g.bins, &[0; HIST_BINS]);
                g.dev
                    .launch(h, &HistogramGlobalExact, &g.wd, &g.bound, exact);
            }
        }
    }

    fn check(&mut self, h: &mut Harness) {
        for d in &self.daxpy {
            let got = d.dev.download_f(h, &d.y);
            h.check(d.name, bit_equal(&got, &d.want));
        }
        let s = &self.scan;
        let out = s.dev.download_f(h, &s.out);
        let sums = s.dev.download_f(h, &s.sums);
        // The block scan sums in tree order, the reference sequentially.
        h.check("scan_k20", rel_err(&out, &s.want_out) <= 1e-13);
        h.check("scan_k20 sums", rel_err(&sums, &s.want_sums) <= 1e-13);
        let t = &self.transpose;
        let got = t.dev.download_f(h, &t.out);
        h.check("transpose_k20", bit_equal(&got, &t.want));
        let g = &self.hist;
        let got = g.dev.download_i(h, &g.bins);
        h.check("histogram_e5", got == g.want);
    }

    fn programs(&self) -> Vec<ProgramUnderTest> {
        let put = |spec: &DeviceSpec, prog, wd: &WorkDiv, bufs| ProgramUnderTest {
            spec: spec.clone(),
            prog,
            wd: *wd,
            bufs,
        };
        let mut out: Vec<ProgramUnderTest> = self
            .daxpy
            .iter()
            .map(|d| {
                put(
                    &d.dev.spec,
                    SimDev::compile(&DaxpyKernel, &d.wd),
                    &d.wd,
                    (2, 0),
                )
            })
            .collect();
        let (s, t, g) = (&self.scan, &self.transpose, &self.hist);
        let scan = ScanBlocks { block: SCAN_BLOCK };
        out.push(put(
            &s.dev.spec,
            SimDev::compile(&scan, &s.wd),
            &s.wd,
            (3, 0),
        ));
        let tr = TransposeTiled { ts: TRANSPOSE_TS };
        out.push(put(&t.dev.spec, SimDev::compile(&tr, &t.wd), &t.wd, (2, 0)));
        let hist = HistogramGlobalExact;
        out.push(put(
            &g.dev.spec,
            SimDev::compile(&hist, &g.wd),
            &g.wd,
            (1, 1),
        ));
        out
    }

    fn probes(&mut self, seed: u64, h: &mut Harness, m: &mut MetricSet) {
        let (fixed_blocks, accesses) = if self.toy {
            (512, 1 << 14)
        } else {
            (65_536, 1 << 22)
        };

        // Per-block fixed cost: n = 0 makes every guard false, so a block
        // does nothing but be set up and torn down.
        {
            let mut dev = SimDev::new(DeviceSpec::e5_2630v3(), 1, false);
            let x = dev.alloc_f(BufLayout::d1(64));
            let y = dev.alloc_f(BufLayout::d1(64));
            let bound = dev.bind(&[&x, &y], &[ALPHA], &[0]);
            let wd = WorkDiv::d1(fixed_blocks, 1, 64);
            let t = median_time(5, || {
                dev.launch(h, &DaxpyKernel, &wd, &bound, LaunchMode::Exact);
            });
            m.insert("sim.block_fixed_ns", t * 1e9 / fixed_blocks as f64);
        }

        // Cache model alone: the E5's per-core cache shape, a sequential
        // stream (MRU-hint path) and a seeded random one (scan and evict).
        {
            let spec = DeviceSpec::e5_2630v3();
            let stream = |lines: &[u64]| {
                let mut cache = CacheSim::new(spec.cache_kib, spec.cache_assoc, spec.line_bytes);
                let t = Instant::now();
                let mut hits = 0u64;
                for &l in lines {
                    hits += u64::from(cache.access_line(std::hint::black_box(l)));
                }
                std::hint::black_box(hits);
                t.elapsed().as_secs_f64() * 1e9 / lines.len() as f64
            };
            // Eight touches per line, as a 64-byte line of f64 sees.
            let seq: Vec<u64> = (0..accesses as u64).map(|i| i / 8).collect();
            let mut rng = Rng::new(seed ^ 0xcac4e);
            let span = 4 * (spec.cache_kib * 1024 / spec.line_bytes) as u64;
            let rand: Vec<u64> = (0..accesses).map(|_| rng.below(span)).collect();
            m.insert("sim.cache_seq_ns", stream(&seq));
            m.insert("sim.cache_rand_ns", stream(&rand));
        }

        // Worker team and stat merge: the same operation list at 1 and at 2
        // interpreter threads, outputs checked bit-for-bit by `check`.
        {
            let mut run = |threads: usize| {
                let mut w = ShortBlocks::with_threads(self.seed, self.toy, false, threads);
                let mut inner = Harness::new(false);
                let t = Instant::now();
                for p in 0..w.phases().len() {
                    w.run_phase(p, &mut inner);
                }
                let wall = t.elapsed().as_secs_f64();
                w.check(&mut inner);
                h.rec.absorb_counts(&inner.rec);
                (wall, inner.rec)
            };
            let (t1, r1) = run(1);
            let (t2, r2) = run(2);
            // Statistics must not depend on the thread count either.
            let same = r1.stats == r2.stats && r1.sim_time_s.to_bits() == r2.sim_time_s.to_bits();
            h.check("statistics identical at 1 and 2 interpreter threads", same);
            m.insert("sim.par_speedup_t2", t1 / t2);
            m.insert("sim.par_workers_used", r2.workers_max as f64);
        }
    }
}
