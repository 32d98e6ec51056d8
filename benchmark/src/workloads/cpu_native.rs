//! `cpu_native` — the real back-ends of `alpaka-cpu`: `DgemmNaive` n=384
//! and `DgemmTiled` n=512 on `CpuBlocks`, DAXPY 2^22, and one
//! barrier-heavy `DgemmTiledCuda{ts:8}` n=64 launch on `CpuBlockThreads`,
//! interleaved with the non-abstracted `native_dgemm` (Fig. 5). Bypasses
//! `kir` and the simulator entirely: a change there predicts no move here,
//! and `cpu/exec.rs` clean-ups (ROADMAP 4d) are judged here.

use std::time::Instant;

use alpaka::{time_launch, AccKind, Args, BufLayout, BufferF, Device, LaunchMode, WorkDiv};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::KernelOps;
use alpaka_kernels::host::{daxpy_ref, dgemm_ref, random_matrix, random_vec};
use alpaka_kernels::native::native_dgemm;
use alpaka_kernels::{DaxpyKernel, DgemmNaive, DgemmTiled, DgemmTiledCuda};

use super::{median_time, Workload};
use crate::harness::Harness;
use crate::metrics::MetricSet;
use crate::spans::Layer;
use crate::util::{bit_equal, host_cpus, median, rel_err};

const ALPHA: f64 = 2.5;
const TILED: DgemmTiled = DgemmTiled { t: 1, e: 32 };
const CUDA: DgemmTiledCuda = DgemmTiledCuda { ts: 8 };
/// `CpuBlockThreads` starts a team of 64 OS threads per block, so this one
/// launch (64 blocks, 16 barriers each) is the longest phase of the
/// repetition; its share is printed with the phase table.
const CUDA_N: usize = 64;

struct Gemm {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    args: Args,
    c: BufferF,
    want: Vec<f64>,
}

impl Gemm {
    fn new(dev: &Device, n: usize, seed: u64) -> Self {
        let (a, b) = (random_matrix(n, n, seed), random_matrix(n, n, seed + 1));
        let mut want = vec![0.0; n * n];
        dgemm_ref(n, n, n, 1.0, &a, &b, 0.0, &mut want);
        let layout = BufLayout::d2(n, n, 8);
        let (da, db, dc) = (
            dev.alloc_f64(layout),
            dev.alloc_f64(layout),
            dev.alloc_f64(layout),
        );
        da.upload(&a).expect("host upload");
        db.upload(&b).expect("host upload");
        let (ni, pitch) = (n as i64, layout.pitch as i64);
        let mut args = Args::new()
            .buf_f(&da)
            .buf_f(&db)
            .buf_f(&dc)
            .scalar_f(1.0)
            .scalar_f(0.0);
        for v in [ni, ni, ni, pitch, pitch, pitch] {
            args = args.scalar_i(v);
        }
        Gemm {
            n,
            a,
            b,
            args,
            c: dc,
            want,
        }
    }

    fn flops(&self) -> f64 {
        2.0 * (self.n * self.n * self.n) as f64
    }
}

/// A kernel that only synchronises: `rounds` block barriers and nothing
/// else, to time the barrier of the thread-parallel back-ends.
#[derive(Clone)]
struct SyncOnly {
    rounds: i64,
}

impl Kernel for SyncOnly {
    fn name(&self) -> &str {
        "sync_only"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let zero = o.lit_i(0);
        let n = o.lit_i(self.rounds);
        o.for_range(zero, n, |o, _| o.sync_block_threads());
    }
}

pub struct CpuNative {
    toy: bool,
    workers: usize,
    blocks: Device,
    block_threads: Device,
    naive: Gemm,
    tiled: Gemm,
    cuda: Gemm,
    native_c: Vec<f64>,
    daxpy_n: usize,
    daxpy_args: Args,
    daxpy_y: BufferF,
    daxpy_y0: Vec<f64>,
    daxpy_want: Vec<f64>,
}

impl CpuNative {
    pub fn new(seed: u64, toy: bool) -> Self {
        let s = seed.wrapping_mul(1000);
        // Never more native workers than CPUs.
        let workers = host_cpus().min(2);
        let blocks = Device::with_workers(AccKind::CpuBlocks, workers);
        let block_threads = Device::with_workers(AccKind::CpuBlockThreads, workers);
        let (n_naive, n_tiled, n_cuda, daxpy_n) = if toy {
            (48, 64, 16, 1 << 12)
        } else {
            (384, 512, CUDA_N, 1 << 22)
        };
        let naive = Gemm::new(&blocks, n_naive, s + 1);
        let tiled = Gemm::new(&blocks, n_tiled, s + 3);
        let cuda = Gemm::new(&block_threads, n_cuda, s + 5);
        let x = random_vec(daxpy_n, s + 7);
        let daxpy_y0 = random_vec(daxpy_n, s + 8);
        let mut daxpy_want = daxpy_y0.clone();
        daxpy_ref(ALPHA, &x, &mut daxpy_want);
        let dx = blocks.alloc_f64(BufLayout::d1(daxpy_n));
        let daxpy_y = blocks.alloc_f64(BufLayout::d1(daxpy_n));
        dx.upload(&x).expect("host upload");
        CpuNative {
            toy,
            workers,
            daxpy_args: Args::new()
                .buf_f(&dx)
                .buf_f(&daxpy_y)
                .scalar_f(ALPHA)
                .scalar_i(daxpy_n as i64),
            native_c: vec![0.0; n_naive * n_naive],
            blocks,
            block_threads,
            naive,
            tiled,
            cuda,
            daxpy_n,
            daxpy_y,
            daxpy_y0,
            daxpy_want,
        }
    }

    fn gemm_launch<K: Kernel>(h: &mut Harness, dev: &Device, k: &K, wd: &WorkDiv, g: &Gemm) {
        h.launch("time_launch", Layer::Cpu, || {
            time_launch(dev, k, wd, &g.args, LaunchMode::Exact).map(|run| run.report)
        });
        h.rec.native_dgemm_s += h.rec.launch_us.last().map_or(0.0, |us| us * 1e-6);
        h.rec.native_flops += g.flops();
    }

    fn naive_wd(&self) -> WorkDiv {
        DgemmNaive::workdiv(self.naive.n, 8)
    }
}

impl Workload for CpuNative {
    fn phases(&self) -> Vec<&'static str> {
        vec![
            "dgemm_naive_blocks",
            "native_dgemm",
            "dgemm_tiled_blocks",
            "daxpy_blocks",
            "dgemm_cuda_blockthreads",
        ]
    }

    fn run_phase(&mut self, phase: usize, h: &mut Harness) {
        match phase {
            0 => Self::gemm_launch(h, &self.blocks, &DgemmNaive, &self.naive_wd(), &self.naive),
            1 => {
                // The baseline the paper divides by; not a launch.
                let (g, c, w) = (&self.naive, &mut self.native_c, self.workers);
                h.span("native_dgemm", Layer::Bench, |_| {
                    native_dgemm(g.n, g.n, g.n, 1.0, &g.a, &g.b, 0.0, c, w);
                });
                h.rec.attempted += 1;
            }
            2 => {
                let wd = TILED.workdiv(self.tiled.n, self.tiled.n);
                Self::gemm_launch(h, &self.blocks, &TILED, &wd, &self.tiled);
            }
            3 => {
                h.op_in_span("upload", Layer::Cpu, || self.daxpy_y.upload(&self.daxpy_y0));
                let wd = self.blocks.suggest_workdiv_1d(self.daxpy_n);
                h.launch("time_launch", Layer::Cpu, || {
                    time_launch(
                        &self.blocks,
                        &DaxpyKernel,
                        &wd,
                        &self.daxpy_args,
                        LaunchMode::Exact,
                    )
                    .map(|run| run.report)
                });
            }
            _ => {
                let wd = CUDA.workdiv(self.cuda.n, self.cuda.n);
                Self::gemm_launch(h, &self.block_threads, &CUDA, &wd, &self.cuda);
            }
        }
    }

    fn check(&mut self, h: &mut Harness) {
        for (name, g) in [
            ("dgemm_naive_blocks", &self.naive),
            ("dgemm_tiled_blocks", &self.tiled),
            ("dgemm_cuda_blockthreads", &self.cuda),
        ] {
            h.check(name, rel_err(&g.c.download(), &g.want) <= 1e-13);
        }
        h.check(
            "native_dgemm",
            rel_err(&self.native_c, &self.naive.want) <= 1e-13,
        );
        h.check(
            "daxpy_blocks",
            bit_equal(&self.daxpy_y.download(), &self.daxpy_want),
        );
    }

    fn native_work(&self) -> Option<f64> {
        let gemm = self.naive.flops() + self.tiled.flops() + self.cuda.flops();
        Some(gemm + 2.0 * self.daxpy_n as f64)
    }

    fn probes(&mut self, _seed: u64, h: &mut Harness, m: &mut MetricSet) {
        let exact = LaunchMode::Exact;
        let reps = if self.toy { 3 } else { 10 };

        // Fig. 5: the abstraction against the native loop nest, interleaved
        // so both see the same machine state.
        let wd = self.naive_wd();
        let (mut t_alpaka, mut t_native) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let g = &self.naive;
            let t = Instant::now();
            h.op(
                "time_launch",
                time_launch(&self.blocks, &DgemmNaive, &wd, &g.args, exact),
            );
            t_alpaka.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            native_dgemm(
                g.n,
                g.n,
                g.n,
                1.0,
                &g.a,
                &g.b,
                0.0,
                &mut self.native_c,
                self.workers,
            );
            t_native.push(t.elapsed().as_secs_f64());
        }
        m.insert("cpu.native_ratio", median(&t_native) / median(&t_alpaka));
        m.insert(
            "cpu.gflops_naive",
            self.naive.flops() / median(&t_alpaka) / 1e9,
        );

        let wd = TILED.workdiv(self.tiled.n, self.tiled.n);
        let t = median_time(reps.min(5), || {
            h.op(
                "time_launch",
                time_launch(&self.blocks, &TILED, &wd, &self.tiled.args, exact),
            );
        });
        m.insert("cpu.gflops_tiled", self.tiled.flops() / t / 1e9);

        let wd = self.blocks.suggest_workdiv_1d(self.daxpy_n);
        let t = median_time(reps, || {
            h.op(
                "time_launch",
                time_launch(&self.blocks, &DaxpyKernel, &wd, &self.daxpy_args, exact),
            );
        });
        // x and y read, y written.
        m.insert("cpu.daxpy_gbps", 24.0 * self.daxpy_n as f64 / t / 1e9);

        // Launch cost: one block, no barriers.
        let noop = SyncOnly { rounds: 0 };
        let one = WorkDiv::d1(1, 1, 1);
        let none = Args::new();
        let t = median_time(if self.toy { 20 } else { 400 }, || {
            h.op("launch", self.blocks.launch(&noop, &one, &none));
        });
        m.insert("cpu.launch_us", t * 1e6);

        // Barrier and fiber switch: four block-threads that only meet.
        let rounds = if self.toy { 200 } else { 5_000 };
        let sync = SyncOnly { rounds };
        let four = WorkDiv::d1(1, 4, 1);
        let fibers = Device::with_workers(AccKind::CpuFibers, self.workers);
        let per_round = |h: &mut Harness, dev: &Device| {
            let empty = median_time(3, || {
                h.op("launch", dev.launch(&noop, &four, &none));
            });
            let full = median_time(3, || {
                h.op("launch", dev.launch(&sync, &four, &none));
            });
            (full - empty).max(0.0) * 1e9 / rounds as f64
        };
        m.insert("cpu.barrier_ns", per_round(h, &self.block_threads));
        // Each fiber yields once per barrier.
        m.insert("cpu.fiber_switch_ns", per_round(h, &fibers) / 4.0);
    }
}
