//! Engine comparison: interpreter throughput with the tree-walking
//! reference engine and the compiled engine (`Engine::Compiled`: the
//! pre-decoded warp program, with fused loops where blocks have one thread)
//! on seven workload shapes — streaming DAXPY in its CPU mapping and in its
//! GPU mapping (64
//! threads of one element on `k20`, the shape `short_blocks` runs: lane
//! kernels over lane-affine runs), the 4096-block DGEMM of `sim_throughput`,
//! the tiled DGEMM in its Fig. 8 CPU mapping (`t = 1`, `e = 64`: one thread per
//! block, shared-memory tiles, a `for.vec` accumulate loop), the
//! barrier-heavy block scan, the atomic-scatter histogram, and the ASE
//! Monte-Carlo kernel in its Fig. 10 CPU mapping (`t = 1` on a 2-socket E5
//! node: a data-dependent `while` ray march per ray) — at 1 interpreter
//! thread, plus the histogram again at 4 threads (the deterministic
//! parallel-atomics path).
//!
//! Both engines are asserted bit-identical (buffers, `LaunchStats`,
//! `TimeBreakdown`) on every workload — and across 1 vs 4 interpreter
//! threads — before anything is timed, so the bench cannot compare
//! different computations. Besides the criterion timings, the bench writes
//! `BENCH_sim.json` at the repo root — blocks/s and instrs/s from the
//! simulator's own `HostPerf` counters for each engine and workload plus
//! `speedup_compiled_vs_reference` — so the perf trajectory is tracked
//! across PRs; the histogram also carries `*_t4` entries and
//! `speedup_parallel`.
//!
//! `cargo bench --bench sim_lowering -- --test` runs the parity guards only
//! (the CI smoke mode).

use alpaka_core::workdiv::WorkDiv;
use alpaka_kernels::{DaxpyKernel, DgemmNaive, DgemmTiled, HistogramGlobalExact, ScanBlocks};
use alpaka_kir::{optimize, trace_kernel, Program};
use alpaka_sim::{
    run_kernel_launch_engine, DeviceMem, DeviceSpec, Engine, ExecMode, HostPerf, SimArgs, SimReport,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::io::Write as _;

const BLOCKS: usize = 4096;
const N: usize = 64; // C is BLOCKS x N, A is BLOCKS x N, B is N x N

/// Square problem size of the tiled CPU-mapping DGEMM: 2 x 2 blocks of one
/// thread with a 64 x 64 element tile each.
const TILED: DgemmTiled = DgemmTiled { t: 1, e: 64 };
const TILED_N: usize = 128;

const DAXPY_N: usize = 1 << 20;
const SCAN_BLOCKS: usize = 512;
const SCAN_BLOCK_THREADS: usize = 64; // each block scans 2 * threads elements

const HIST_BLOCKS: usize = 2048;
const HIST_ELEMS: usize = 128; // samples = blocks * elems, exact fit (no guard)
const HIST_BINS: usize = 64;

/// The ASE problem: 256 sample points of 16 rays, some 40 march steps each;
/// one thread per block, 16 points per thread.
fn ase() -> hase::AseProblem {
    hase::AseProblem {
        points: 16,
        rays: 16,
        ..Default::default()
    }
}
const ASE_ELEMS: usize = 16;

/// One benchmarked workload: a lowered-and-optimized program, its work
/// division and device model, and a fresh-memory setup per launch.
struct Workload {
    name: &'static str,
    prog: Program,
    wd: WorkDiv,
    spec: DeviceSpec,
    setup: fn() -> (DeviceMem, SimArgs),
}

/// `C (m x n) <- A (m x k) * B (k x n)`, dense row-major.
fn gemm_setup(m: usize, n: usize, k: usize) -> (DeviceMem, SimArgs) {
    let mut mem = DeviceMem::new();
    let a = mem.alloc_f(m * k);
    let b = mem.alloc_f(k * n);
    let c = mem.alloc_f(m * n);
    for i in 0..m * k {
        mem.f_mut(a)[i] = ((i * 7 + 3) % 17) as f64 * 0.25;
    }
    for i in 0..k * n {
        mem.f_mut(b)[i] = ((i * 5 + 1) % 13) as f64 - 6.0;
    }
    let args = SimArgs {
        bufs_f: vec![a, b, c],
        bufs_i: vec![],
        params_f: vec![1.0, 0.0],
        params_i: [m, n, k, k, n, n].map(|v| v as i64).to_vec(),
    };
    (mem, args)
}

fn dgemm_setup() -> (DeviceMem, SimArgs) {
    gemm_setup(BLOCKS, N, N)
}

fn tiled_setup() -> (DeviceMem, SimArgs) {
    gemm_setup(TILED_N, TILED_N, TILED_N)
}

fn daxpy_setup() -> (DeviceMem, SimArgs) {
    let n = DAXPY_N;
    let mut mem = DeviceMem::new();
    let x = mem.alloc_f(n);
    let y = mem.alloc_f(n);
    for i in 0..n {
        mem.f_mut(x)[i] = ((i * 11 + 2) % 23) as f64 * 0.5 - 5.0;
        mem.f_mut(y)[i] = 1.0 + i as f64 * 0.25;
    }
    let args = SimArgs {
        bufs_f: vec![x, y],
        bufs_i: vec![],
        params_f: vec![2.5],
        params_i: vec![n as i64],
    };
    (mem, args)
}

fn scan_setup() -> (DeviceMem, SimArgs) {
    let n = SCAN_BLOCKS * 2 * SCAN_BLOCK_THREADS;
    let mut mem = DeviceMem::new();
    let x = mem.alloc_f(n);
    let y = mem.alloc_f(n);
    let sums = mem.alloc_f(SCAN_BLOCKS);
    for i in 0..n {
        mem.f_mut(x)[i] = ((i * 13 + 5) % 17) as f64 * 0.75 - 4.0;
    }
    let args = SimArgs {
        bufs_f: vec![x, y, sums],
        bufs_i: vec![],
        params_f: vec![],
        params_i: vec![n as i64],
    };
    (mem, args)
}

fn histogram_setup() -> (DeviceMem, SimArgs) {
    let n = HIST_BLOCKS * HIST_ELEMS;
    let mut mem = DeviceMem::new();
    let s = mem.alloc_f(n);
    let bins = mem.alloc_i(HIST_BINS);
    for i in 0..n {
        // Deterministic pseudo-random samples spread over [0, 10).
        mem.f_mut(s)[i] = ((i * 37 + 11) % 1000) as f64 * 0.01;
    }
    let args = SimArgs {
        bufs_f: vec![s],
        bufs_i: vec![bins],
        params_f: vec![0.0, 10.0],
        params_i: vec![n as i64, HIST_BINS as i64],
    };
    (mem, args)
}

fn ase_setup() -> (DeviceMem, SimArgs) {
    let p = ase();
    let mut mem = DeviceMem::new();
    let gain = mem.alloc_f(p.grid * p.grid);
    mem.f_mut(gain).copy_from_slice(&p.gain_field());
    let flux = mem.alloc_f(p.n_points());
    let args = SimArgs {
        bufs_f: vec![gain, flux],
        bufs_i: vec![],
        params_f: vec![p.size, p.step, p.spont],
        params_i: vec![p.grid as i64, p.points as i64, p.rays as i64, p.seed],
    };
    (mem, args)
}

fn lowered<K: alpaka_core::kernel::Kernel>(k: &K, dim: usize) -> Program {
    let mut prog = trace_kernel(k, dim);
    optimize(&mut prog);
    prog
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "daxpy",
            prog: lowered(&DaxpyKernel, 1),
            wd: WorkDiv::d1(DAXPY_N / 64, 1, 64),
            spec: DeviceSpec::e5_2630v3(),
            setup: daxpy_setup,
        },
        Workload {
            name: "daxpy_gpu",
            prog: lowered(&DaxpyKernel, 1),
            wd: WorkDiv::d1(DAXPY_N / 64, 64, 1),
            spec: DeviceSpec::k20(),
            setup: daxpy_setup,
        },
        Workload {
            name: "dgemm_naive",
            prog: lowered(&DgemmNaive, 1),
            wd: DgemmNaive::workdiv(BLOCKS, 1),
            spec: DeviceSpec::e5_2630v3(),
            setup: dgemm_setup,
        },
        Workload {
            name: "dgemm_tiled_cpu",
            prog: lowered(&TILED, 2),
            wd: TILED.workdiv(TILED_N, TILED_N),
            spec: DeviceSpec::e5_2630v3(),
            setup: tiled_setup,
        },
        Workload {
            name: "scan_blocks",
            prog: lowered(
                &ScanBlocks {
                    block: SCAN_BLOCK_THREADS,
                },
                1,
            ),
            wd: WorkDiv::d1(SCAN_BLOCKS, SCAN_BLOCK_THREADS, 1),
            spec: DeviceSpec::k20(),
            setup: scan_setup,
        },
        Workload {
            name: "histogram",
            prog: lowered(&HistogramGlobalExact, 1),
            wd: WorkDiv::d1(HIST_BLOCKS, 1, HIST_ELEMS),
            spec: DeviceSpec::e5_2630v3(),
            setup: histogram_setup,
        },
        Workload {
            name: "ase_cpu",
            prog: lowered(&hase::AseKernel, 1),
            wd: WorkDiv::d1(ase().n_points() / ASE_ELEMS, 1, ASE_ELEMS),
            // The 2-socket node `repro_fig10` runs the CPU mapping on.
            spec: alpaka_bench::node(DeviceSpec::e5_2630v3(), 2, "2x Intel Xeon E5-2630v3"),
            setup: ase_setup,
        },
    ]
}

fn run_threads(w: &Workload, engine: Engine, threads: usize) -> (SimReport, Vec<Vec<u64>>) {
    let (mut mem, args) = (w.setup)();
    let rep = run_kernel_launch_engine(
        &w.spec,
        &mut mem,
        &w.prog,
        &w.wd,
        &args,
        ExecMode::Full,
        threads,
        engine,
    )
    .unwrap();
    let mut bits: Vec<Vec<u64>> = args
        .bufs_f
        .iter()
        .map(|b| mem.f(*b).iter().map(|v| v.to_bits()).collect())
        .collect();
    bits.extend(
        args.bufs_i
            .iter()
            .map(|b| mem.i(*b).iter().map(|v| *v as u64).collect::<Vec<u64>>()),
    );
    (rep, bits)
}

fn run(w: &Workload, engine: Engine) -> (SimReport, Vec<Vec<u64>>) {
    run_threads(w, engine, 1)
}

/// Parity guard: both engines bit-identical on `w` — at 1 and 4
/// interpreter threads — before any timing.
fn assert_engine_parity(w: &Workload) {
    let (reference, ref_bits) = run(w, Engine::Reference);
    for engine in [Engine::Reference, Engine::Compiled] {
        for threads in [1usize, 4] {
            let (rep, bits) = run_threads(w, engine, threads);
            assert_eq!(
                reference.stats, rep.stats,
                "{engine:?}@{threads} diverged from reference on {} (stats)",
                w.name
            );
            assert_eq!(
                reference.time, rep.time,
                "{engine:?}@{threads} diverged from reference on {} (time model)",
                w.name
            );
            assert_eq!(
                ref_bits, bits,
                "{engine:?}@{threads} diverged from reference on {} (buffers)",
                w.name
            );
        }
    }
}

/// Median-by-throughput `HostPerf` per engine over `k` fresh launches,
/// with the engines interleaved round-robin so clock/cache drift across
/// the measurement window biases neither engine.
fn host_perf_all(w: &Workload, threads: usize, k: usize) -> [HostPerf; 2] {
    let engines = [Engine::Reference, Engine::Compiled];
    let mut perfs: [Vec<HostPerf>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..k {
        for (e, p) in engines.iter().zip(perfs.iter_mut()) {
            p.push(run_threads(w, *e, threads).0.host);
        }
    }
    perfs.map(|mut v| {
        v.sort_by(|a, b| a.blocks_per_sec.partial_cmp(&b.blocks_per_sec).unwrap());
        v[v.len() / 2]
    })
}

fn json_entry(p: &HostPerf) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"blocks_per_sec\": {:.1}, \"instrs_per_sec\": {:.1}, \"workers\": {}}}",
        p.wall_s, p.blocks_per_sec, p.instrs_per_sec, p.workers
    )
}

fn bench_sim_lowering(c: &mut Criterion) {
    let all = workloads();
    for w in &all {
        assert_engine_parity(w);
    }

    if std::env::args().any(|a| a == "--test") {
        eprintln!("sim_lowering: --test smoke mode, engine parity guards passed");
        return;
    }

    let dgemm = &all[2];
    assert_eq!(dgemm.name, "dgemm_naive");
    let mut group = c.benchmark_group("sim_dgemm_lowering_4096_blocks");
    group.throughput(Throughput::Elements(BLOCKS as u64));
    group.sample_size(10);
    for (engine, label) in [
        (Engine::Reference, "reference"),
        (Engine::Compiled, "compiled"),
    ] {
        group.bench_function(BenchmarkId::new("engine", label), |b| {
            b.iter(|| run(dgemm, engine));
        });
    }
    group.finish();

    // One-shot host-perf summary from the simulator's own counters for
    // every (workload, engine) pair, and the machine-readable trajectory
    // file at the repo root.
    let mut table = String::new();
    for w in &all {
        let [rf, co] = host_perf_all(w, 1, 5);
        let speedup = co.blocks_per_sec / rf.blocks_per_sec;
        eprintln!(
            "sim_lowering[{}]: reference={:.0} compiled={:.0} blocks/s (compiled/ref {speedup:.2}x)",
            w.name, rf.blocks_per_sec, co.blocks_per_sec
        );
        if !table.is_empty() {
            table.push_str(",\n");
        }
        // The atomic-scatter workload is the one whose blocks can now run
        // in parallel: record both engines at 4 interpreter threads too,
        // and the compiled engine's 4-vs-1-thread scaling.
        let parallel = if w.name == "histogram" {
            let [rf4, co4] = host_perf_all(w, 4, 5);
            let sp_par = co4.blocks_per_sec / co.blocks_per_sec;
            eprintln!(
                "sim_lowering[{}@4t]: reference={:.0} compiled={:.0} blocks/s \
                 (compiled 4t/1t {sp_par:.2}x)",
                w.name, rf4.blocks_per_sec, co4.blocks_per_sec
            );
            format!(
                ",\n      \"reference_t4\": {},\n      \"compiled_t4\": {},\n      \
                 \"speedup_parallel\": {sp_par:.3}",
                json_entry(&rf4),
                json_entry(&co4),
            )
        } else {
            String::new()
        };
        table.push_str(&format!(
            "    \"{}\": {{\n      \"reference\": {},\n      \"compiled\": {},\n      \
             \"speedup_compiled_vs_reference\": {speedup:.3}{parallel}\n    }}",
            w.name,
            json_entry(&rf),
            json_entry(&co),
        ));
    }

    // Parallel speedups are wall-clock: on a single-CPU host the worker
    // team timeslices one core and `speedup_parallel` sits near 1.0 even
    // though 4 workers ran (the `workers` fields record that). Record the
    // host's CPU count so the number is interpretable.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_sim.json");
    let json = format!(
        "{{\n  \"schema_version\": 2,\n  \"threads\": 1,\n  \"host_cpus\": {host_cpus},\n  \
         \"workloads\": {{\n{table}\n  }}\n}}\n",
    );
    // The file is diffed and spliced by other benches; never write a body
    // the validator rejects.
    alpaka_trace::validate_json(&json).expect("sim_lowering produced invalid BENCH_sim.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("sim_lowering: wrote {path}"),
        Err(e) => eprintln!("sim_lowering: could not write {path}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sim_lowering
}
criterion_main!(benches);
