//! Engine parity on the shipped kernels, in the shapes the benchmark and the
//! paper's figures launch them: the tree-walking reference engine and the
//! compiled engine (lowered tier, or fused tier where a block has one thread
//! and a fusible loop) must give bit-identical buffers, `LaunchStats` and
//! `TimeBreakdown` at 1 and 4 interpreter threads.
//!
//! `crates/sim/tests/parallel_determinism.rs` compares the engines on local
//! look-alike kernels; these are the shipped ones. Two shapes have no other
//! parity test: `DgemmTiled { t: 1, e: 64 }` on the E5-2630v3 (fused affine
//! streams over shared-memory tiles) and the ASE kernel on a 2-socket E5 node
//! (a fused data-dependent `While` with special functions).

use alpaka_core::kernel::Kernel;
use alpaka_core::workdiv::WorkDiv;
use alpaka_kernels::{DaxpyKernel, DgemmNaive, DgemmTiled, HistogramGlobalExact, ScanBlocks};
use alpaka_kir::{optimize, trace_kernel};
use alpaka_sim::{run_kernel_launch_engine, DeviceMem, DeviceSpec, Engine, ExecMode, SimArgs};

/// Launch `kernel` from the same initial memory on both engines at 1 and 4
/// interpreter threads, and require every run to equal the reference engine's
/// serial run bit for bit.
fn assert_engines_agree<K: Kernel>(
    kernel: &K,
    spec: &DeviceSpec,
    wd: &WorkDiv,
    setup: impl Fn() -> (DeviceMem, SimArgs),
) {
    let mut prog = trace_kernel(kernel, wd.dim);
    optimize(&mut prog);
    let run = |engine: Engine, threads: usize| {
        let (mut mem, args) = setup();
        let rep = run_kernel_launch_engine(
            spec,
            &mut mem,
            &prog,
            wd,
            &args,
            ExecMode::Full,
            threads,
            engine,
        )
        .unwrap_or_else(|e| panic!("{} on {engine:?}@{threads}: {e}", kernel.name()));
        let mut bits: Vec<Vec<u64>> = args
            .bufs_f
            .iter()
            .map(|b| mem.f(*b).iter().map(|v| v.to_bits()).collect())
            .collect();
        bits.extend(
            args.bufs_i
                .iter()
                .map(|b| mem.i(*b).iter().map(|v| *v as u64).collect()),
        );
        (rep, bits)
    };
    let (want, want_bits) = run(Engine::Reference, 1);
    for engine in [Engine::Reference, Engine::Compiled] {
        for threads in [1, 4] {
            let (rep, bits) = run(engine, threads);
            let tag = format!("{} on {engine:?}@{threads}", kernel.name());
            assert_eq!(want.stats, rep.stats, "{tag}: LaunchStats diverged");
            assert_eq!(want.time, rep.time, "{tag}: TimeBreakdown diverged");
            assert_eq!(want_bits, bits, "{tag}: buffers diverged");
        }
    }
}

/// Fresh device memory holding the f64 buffers `f` and zeroed i64 buffers of
/// the lengths `i`, bound in that order with the scalars `pf` and `pi`.
fn mem(f: &[Vec<f64>], i: &[usize], pf: &[f64], pi: &[usize]) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let bufs_f = f.iter().map(|v| mem.alloc_f(v.len())).collect::<Vec<_>>();
    for (b, v) in bufs_f.iter().zip(f) {
        mem.f_mut(*b).copy_from_slice(v);
    }
    let args = SimArgs {
        bufs_f,
        bufs_i: i.iter().map(|n| mem.alloc_i(*n)).collect(),
        params_f: pf.to_vec(),
        params_i: pi.iter().map(|v| *v as i64).collect(),
    };
    (mem, args)
}

fn vec_of(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
    (0..n).map(f).collect()
}

/// `C (m x n) <- A (m x k) * B (k x n)`, dense row-major.
fn gemm(m: usize, n: usize, k: usize) -> impl Fn() -> (DeviceMem, SimArgs) {
    let a = vec_of(m * k, |i| ((i * 7 + 3) % 17) as f64 * 0.25);
    let b = vec_of(k * n, |i| ((i * 5 + 1) % 13) as f64 - 6.0);
    let f = [a, b, vec![0.0; m * n]];
    move || mem(&f, &[], &[1.0, 0.0], &[m, n, k, k, n, n])
}

#[test]
fn daxpy_on_cpu_and_gpu_specs() {
    let n = 4096;
    let x = vec_of(n, |i| ((i * 11 + 2) % 23) as f64 * 0.5 - 5.0);
    let y = vec_of(n, |i| 1.0 + i as f64 * 0.25);
    let f = [x, y];
    let setup = || mem(&f, &[], &[2.5], &[n]);
    let cpu = WorkDiv::d1(n / 64, 1, 64);
    assert_engines_agree(&DaxpyKernel, &DeviceSpec::e5_2630v3(), &cpu, setup);
    let gpu = WorkDiv::d1(n / 64, 64, 1);
    assert_engines_agree(&DaxpyKernel, &DeviceSpec::k20(), &gpu, setup);
}

#[test]
fn dgemm_naive() {
    let (m, n) = (64, 32);
    let wd = DgemmNaive::workdiv(m, 1);
    assert_engines_agree(&DgemmNaive, &DeviceSpec::e5_2630v3(), &wd, gemm(m, n, n));
}

#[test]
fn dgemm_tiled_in_its_cpu_mapping() {
    let kern = DgemmTiled { t: 1, e: 64 };
    let (m, n, k) = (64, 128, 64);
    let wd = kern.workdiv(m, n);
    assert_engines_agree(&kern, &DeviceSpec::e5_2630v3(), &wd, gemm(m, n, k));
}

#[test]
fn scan_blocks() {
    let (blocks, threads) = (16, 64);
    let n = blocks * 2 * threads;
    let x = vec_of(n, |i| ((i * 13 + 5) % 17) as f64 * 0.75 - 4.0);
    let f = [x, vec![0.0; n], vec![0.0; blocks]];
    let wd = WorkDiv::d1(blocks, threads, 1);
    let kern = ScanBlocks { block: threads };
    assert_engines_agree(&kern, &DeviceSpec::k20(), &wd, || mem(&f, &[], &[], &[n]));
}

#[test]
fn histogram_global_exact() {
    let (blocks, elems, bins) = (64, 128, 64);
    let n = blocks * elems;
    let f = [vec_of(n, |i| ((i * 37 + 11) % 1000) as f64 * 0.01)];
    let setup = || mem(&f, &[bins], &[0.0, 10.0], &[n, bins]);
    let wd = WorkDiv::d1(blocks, 1, elems);
    assert_engines_agree(&HistogramGlobalExact, &DeviceSpec::e5_2630v3(), &wd, setup);
}

#[test]
fn ase_on_a_two_socket_node() {
    let p = hase::AseProblem {
        points: 8,
        rays: 8,
        ..Default::default()
    };
    let elems = 8;
    let wd = WorkDiv::d1(p.n_points() / elems, 1, elems);
    // The 2-socket node `repro_fig10` runs the CPU mapping on.
    let mut node = DeviceSpec::e5_2630v3();
    node.sms *= 2;
    let f = [p.gain_field(), vec![0.0; p.n_points()]];
    let (pf, pi) = ([p.size, p.step, p.spont], [p.grid, p.points, p.rays]);
    let setup = || {
        let (m, mut args) = mem(&f, &[], &pf, &pi);
        args.params_i.push(p.seed);
        (m, args)
    };
    assert_engines_agree(&hase::AseKernel, &node, &wd, setup);
}
