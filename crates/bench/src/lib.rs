//! Shared harness code for the `repro_*` binaries: workload setup, timing
//! wrappers, GFLOPS math, and the "generic Alpaka-style" DGEMM used by the
//! zero-overhead comparison.

use alpaka::{AccKind, Args, BufLayout, BufferF, Device, LaunchMode, TimedRun, WorkDiv};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_kernels::host::random_matrix;

/// Flops of one `C <- alpha*A*B + beta*C` (the paper counts 2nk per output).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Achieved GFLOPS.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    flops / seconds / 1e9
}

/// Dense square-GEMM inputs (paper: random values in `[0, 10]`).
pub struct GemmData {
    pub n: usize,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
}

impl GemmData {
    pub fn new(n: usize) -> Self {
        GemmData {
            n,
            a: random_matrix(n, n, 100),
            b: random_matrix(n, n, 101),
            c: random_matrix(n, n, 102),
        }
    }
}

/// Fresh GEMM buffers on `dev` holding `data`, bound as the GEMM kernels'
/// arguments (`alpha = 1`, `beta = 0`): the arguments and the C buffer.
fn gemm_args(dev: &Device, data: &GemmData) -> (Args, BufferF) {
    let n = data.n;
    let [a, b, c] = [(); 3].map(|()| dev.alloc_f64(BufLayout::d2(n, n, 8)));
    for (buf, host) in [(&a, &data.a), (&b, &data.b), (&c, &data.c)] {
        buf.upload(host).unwrap();
    }
    let mut args = Args::new().buf_f(&a).buf_f(&b).buf_f(&c);
    let pitch = |buf: &BufferF| buf.layout().pitch as i64;
    args.scalars.f = vec![1.0, 0.0];
    args.scalars.i = vec![
        n as i64,
        n as i64,
        n as i64,
        pitch(&a),
        pitch(&b),
        pitch(&c),
    ];
    (args, c)
}

/// Upload fresh GEMM buffers to `dev` and time one launch of `kernel`.
/// Returns the timing and the resulting dense C (empty when sampled).
pub fn time_gemm<K: Kernel + Clone + Send + 'static>(
    dev: &Device,
    kernel: &K,
    wd: &WorkDiv,
    data: &GemmData,
    mode: LaunchMode,
) -> (TimedRun, Vec<f64>) {
    let (args, c) = gemm_args(dev, data);
    let timed = alpaka::time_launch(dev, kernel, wd, &args, mode)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name(), dev.name()));
    let result = if matches!(mode, LaunchMode::Exact) {
        c.download()
    } else {
        Vec::new()
    };
    (timed, result)
}

/// Set up GEMM buffers once and return the median launch-only time over
/// `reps` repetitions (beta = 0, so repeated launches are idempotent),
/// plus the final dense C.
pub fn bench_gemm<K: Kernel + Clone + Send + 'static>(
    dev: &Device,
    kernel: &K,
    wd: &WorkDiv,
    data: &GemmData,
    reps: usize,
) -> (f64, Vec<f64>) {
    let (args, c) = gemm_args(dev, data);
    // Warm-up launch.
    alpaka::time_launch(dev, kernel, wd, &args, LaunchMode::Exact).unwrap();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            alpaka::time_launch(dev, kernel, wd, &args, LaunchMode::Exact)
                .unwrap()
                .time_s
        })
        .collect();
    times.sort_by(|x, y| x.partial_cmp(y).unwrap());
    (times[times.len() / 2], c.download())
}

/// Median wall time of `reps` runs of `f` (seconds).
pub fn median_wall(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|x, y| x.partial_cmp(y).unwrap());
    times[times.len() / 2]
}

/// The *generic Alpaka-style* CUDA-like tiled DGEMM: identical algorithm to
/// `alpaka_kernels::DgemmTiledCuda`, but written the way a portable Alpaka
/// kernel is — indices from the abstraction-model queries
/// (`global_thread_idx`, `block_thread_extent`) and an element loop around
/// the per-thread work. The zero-overhead experiment (Fig. 5) compares this
/// against the hand-written native-style kernel after compilation.
#[derive(Debug, Clone, Copy)]
pub struct DgemmTiledCudaGeneric {
    pub ts: usize,
}

impl Kernel for DgemmTiledCudaGeneric {
    fn name(&self) -> &str {
        "dgemm_tiled_cuda_generic"
    }

    #[allow(clippy::too_many_lines)]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let a = o.buf_f(0);
        let b = o.buf_f(1);
        let c = o.buf_f(2);
        let alpha = o.param_f(0);
        let beta = o.param_f(1);
        let m = o.param_i(0);
        let n = o.param_i(1);
        let k = o.param_i(2);
        let lda = o.param_i(3);
        let ldb = o.param_i(4);
        let ldc = o.param_i(5);
        let sha = o.shared_f(self.ts * self.ts);
        let shb = o.shared_f(self.ts * self.ts);
        // Alpaka style: everything from the hierarchy queries; the element
        // loops have extent one on the GPU mapping and vanish after
        // specialization — nvcc's job, done here by the alpaka-kir passes.
        let bd_y = o.block_thread_extent(0);
        let bd_x = o.block_thread_extent(1);
        let ty = o.thread_idx(0);
        let tx = o.thread_idx(1);
        let row_t = o.global_thread_idx(0);
        let col_t = o.global_thread_idx(1);
        let vy = o.thread_elem_extent(0);
        let vx = o.thread_elem_extent(1);
        let row_base = o.mul_i(row_t, vy);
        let col_base = o.mul_i(col_t, vx);
        o.for_elements(0, |o, ey| {
            let row = o.add_i(row_base, ey);
            o.for_elements(1, |o, ex| {
                let col = o.add_i(col_base, ex);
                let zf = o.lit_f(0.0);
                let one = o.lit_i(1);
                let kt = o.sub_i(bd_x, one);
                let kp = o.add_i(k, kt);
                let ntiles = o.div_i(kp, bd_x);
                let zero = o.lit_i(0);
                let sh_idx = {
                    let t = o.mul_i(ty, bd_x);
                    o.add_i(t, tx)
                };
                let sum = o.fold_range_f(zero, ntiles, zf, |o, t, acc_t| {
                    let koff = o.mul_i(t, bd_x);
                    let a_col = o.add_i(koff, tx);
                    let zf = o.lit_f(0.0);
                    let tmp_a = o.var_f(zf);
                    let rm = o.lt_i(row, m);
                    let ck = o.lt_i(a_col, k);
                    let ok = o.and_b(rm, ck);
                    o.if_(ok, |o| {
                        let off = o.mul_i(row, lda);
                        let ai = o.add_i(off, a_col);
                        let av = o.ld_gf(a, ai);
                        o.vset_f(tmp_a, av);
                    });
                    let av = o.vget_f(tmp_a);
                    o.st_sf(sha, sh_idx, av);
                    let b_row = o.add_i(koff, ty);
                    let zf2 = o.lit_f(0.0);
                    let tmp_b = o.var_f(zf2);
                    let rk = o.lt_i(b_row, k);
                    let cn = o.lt_i(col, n);
                    let ok2 = o.and_b(rk, cn);
                    o.if_(ok2, |o| {
                        let off = o.mul_i(b_row, ldb);
                        let bi = o.add_i(off, col);
                        let bv = o.ld_gf(b, bi);
                        o.vset_f(tmp_b, bv);
                    });
                    let bv = o.vget_f(tmp_b);
                    o.st_sf(shb, sh_idx, bv);
                    o.sync_block_threads();
                    let zero2 = o.lit_i(0);
                    let acc_next = o.fold_range_f(zero2, bd_y, acc_t, |o, p, acc| {
                        let arow = o.mul_i(ty, bd_x);
                        let ai = o.add_i(arow, p);
                        let av = o.ld_sf(sha, ai);
                        let brow = o.mul_i(p, bd_x);
                        let bi = o.add_i(brow, tx);
                        let bv = o.ld_sf(shb, bi);
                        o.fma_f(av, bv, acc)
                    });
                    o.sync_block_threads();
                    acc_next
                });
                let rm = o.lt_i(row, m);
                let cn = o.lt_i(col, n);
                let ok = o.and_b(rm, cn);
                o.if_(ok, |o| {
                    let off = o.mul_i(row, ldc);
                    let ci = o.add_i(off, col);
                    let cv = o.ld_gf(c, ci);
                    let scaled_c = o.mul_f(beta, cv);
                    let out = o.fma_f(alpha, sum, scaled_c);
                    o.st_gf(c, ci, out);
                });
            });
        });
    }
}

/// Simple aligned table printer for the repro binaries.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                out.push_str(&format!(" {c:w$} |"));
            }
            out
        };
        let header = line(&self.headers);
        let sep: String = header
            .chars()
            .map(|ch| if ch == '|' { '|' } else { '-' })
            .collect();
        println!("{header}");
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Standard pool-worker count for the real-CPU measurements.
pub fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Shorthand constructors for the devices the experiments use.
pub fn dev_sim_k20() -> Device {
    Device::new(AccKind::sim_k20())
}

pub fn dev_sim_k80() -> Device {
    Device::new(AccKind::sim_k80())
}

pub fn dev_cpu_blocks() -> Device {
    Device::with_workers(AccKind::CpuBlocks, host_workers())
}

/// A multi-socket node of `spec` CPUs: `sockets` times the cores, one device
/// (how Fig. 10 runs its CPU mappings).
pub fn node(
    mut spec: alpaka_sim::DeviceSpec,
    sockets: usize,
    label: &str,
) -> alpaka_sim::DeviceSpec {
    spec.sms *= sockets;
    spec.name = label.to_string();
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_kernels::host::{dgemm_ref, rel_err};
    use alpaka_kernels::DgemmTiledCuda;

    #[test]
    fn generic_tiled_matches_native_style_results() {
        let n = 40;
        let data = GemmData::new(n);
        let dev = dev_sim_k20();
        let ts = 8;
        let wd = DgemmTiledCuda { ts }.workdiv(n, n);
        let (_, got_generic) = time_gemm(
            &dev,
            &DgemmTiledCudaGeneric { ts },
            &wd,
            &data,
            LaunchMode::Exact,
        );
        let (_, got_native) =
            time_gemm(&dev, &DgemmTiledCuda { ts }, &wd, &data, LaunchMode::Exact);
        let mut want = data.c.clone();
        dgemm_ref(n, n, n, 1.0, &data.a, &data.b, 0.0, &mut want);
        assert!(rel_err(&got_generic, &want) < 1e-13);
        assert!(rel_err(&got_native, &want) < 1e-13);
    }

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["x".into(), "y".into()]);
        t.print();
    }

    #[test]
    fn gflops_math() {
        assert_eq!(gemm_flops(10, 10, 10), 2000.0);
        assert_eq!(gflops(2e9, 1.0), 2.0);
    }
}
