//! # alpaka-sim
//!
//! Device-simulator substrate for the Alpaka reproduction. It stands in for
//! the GPUs (and, for the Fig. 9 relative-to-peak study, the CPUs) of the
//! paper's Table 3: a block-lockstep SIMT interpreter for the `alpaka-kir`
//! virtual ISA with
//!
//! * warp-granular issue accounting and divergence,
//! * global-memory coalescing into line transactions,
//! * a set-associative LRU cache model (per-core for CPUs, shared L2 for
//!   GPUs),
//! * shared-memory bank-conflict accounting,
//! * element-loop vectorization detection for CPU device models, and
//! * a roofline timing model (compute / memory / issue) with an
//!   occupancy-based latency-hiding factor.
//!
//! See `DESIGN.md` for why this substitution preserves the behaviours the
//! paper's evaluation measures.

mod atomics;
mod cache;
mod compile;
mod fault;
mod interp;
mod lanes;
mod lower;
mod memory;
mod metrics;
mod profile;
mod spec;
mod stats;

pub use atomics::FallbackReason;
pub use cache::CacheSim;
pub use fault::{FaultPlan, SimError, SimErrorKind};
pub use interp::{
    resolve_sim_threads, run_kernel_launch, run_kernel_launch_engine, run_kernel_launch_faulty,
    run_kernel_launch_threads, AttemptRecord, Engine, ExecMode, HostPerf, LaunchFaults,
    ResilienceInfo, SimArgs, SimReport,
};
pub use lower::{lower, CacheCounters, Prepared, WarpProgram};
pub use memory::{DeviceMem, SimBufF, SimBufI};
pub use metrics::record_launch;
pub use profile::KernelProfile;
pub use spec::DeviceSpec;
pub use stats::{transfer_time, LaunchStats, TimeBreakdown};

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::kernel::Kernel;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};
    use alpaka_core::workdiv::WorkDiv;
    use alpaka_kir::{optimize, trace_kernel};

    struct Daxpy;
    impl Kernel for Daxpy {
        fn name(&self) -> &str {
            "daxpy"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let gid = o.global_thread_idx(0);
            let v = o.thread_elem_extent(0);
            let base = o.mul_i(gid, v);
            o.for_elements(0, |o, e| {
                let i = o.add_i(base, e);
                let c = o.lt_i(i, n);
                o.if_(c, |o| {
                    let xv = o.ld_gf(x, i);
                    let yv = o.ld_gf(y, i);
                    let r = o.fma_f(xv, a, yv);
                    o.st_gf(y, i, r);
                });
            });
        }
    }

    fn daxpy_setup(n: usize) -> (DeviceMem, SimArgs) {
        let mut mem = DeviceMem::new();
        let x = mem.alloc_f(n);
        let y = mem.alloc_f(n);
        for i in 0..n {
            mem.f_mut(x)[i] = i as f64;
            mem.f_mut(y)[i] = 1.0;
        }
        let args = SimArgs {
            bufs_f: vec![x, y],
            bufs_i: vec![],
            params_f: vec![2.0],
            params_i: vec![n as i64],
        };
        (mem, args)
    }

    #[test]
    fn daxpy_on_simulated_k20_is_correct() {
        let spec = DeviceSpec::k20();
        let n = 1000;
        let (mut mem, args) = daxpy_setup(n);
        let mut prog = trace_kernel(&Daxpy, 1);
        optimize(&mut prog);
        // 128 threads/block, 1 elem: ceil(1000/128) = 8 blocks.
        let wd = WorkDiv::d1(8, 128, 1);
        let report = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        let y = args.bufs_f[1];
        for i in 0..n {
            assert_eq!(mem.f(y)[i], 2.0 * i as f64 + 1.0, "i={i}");
        }
        assert_eq!(report.stats.blocks, 8);
        assert_eq!(report.stats.threads, 8 * 128);
        // 2 loads + 1 store per valid element.
        assert_eq!(report.stats.global_loads, 2 * 1000);
        assert_eq!(report.stats.global_stores, 1000);
        // FMA = 2 flops per element.
        assert_eq!(report.stats.total_flops(), 2 * 1000);
        assert!(report.time.total_s > 0.0);
    }

    #[test]
    fn daxpy_on_simulated_cpu_vectorizes_element_loop() {
        let spec = DeviceSpec::e5_2630v3();
        let n = 4096;
        let (mut mem, args) = daxpy_setup(n);
        let prog = trace_kernel(&Daxpy, 1);
        // CPU mapping: blocks of 1 thread, 64 elements each.
        let wd = WorkDiv::d1(n / 64, 1, 64);
        let report = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        let y = args.bufs_f[1];
        for i in 0..n {
            assert_eq!(mem.f(y)[i], 2.0 * i as f64 + 1.0);
        }
        // The element loop is unit-stride: the bulk of the flops must be
        // classified as vectorized.
        assert!(
            report.stats.vec_flops > report.stats.scalar_flops * 10,
            "vec {} vs scalar {}",
            report.stats.vec_flops,
            report.stats.scalar_flops
        );
    }

    struct StridedDaxpy;
    impl Kernel for StridedDaxpy {
        fn name(&self) -> &str {
            "daxpy_strided"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            // Same math, but elements strided by the grid extent: the
            // element loop is NOT unit-stride.
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let gid = o.global_thread_idx(0);
            let gext = o.global_thread_extent(0);
            o.for_elements(0, |o, e| {
                let off = o.mul_i(e, gext);
                let i = o.add_i(gid, off);
                let c = o.lt_i(i, n);
                o.if_(c, |o| {
                    let xv = o.ld_gf(x, i);
                    let yv = o.ld_gf(y, i);
                    let r = o.fma_f(xv, a, yv);
                    o.st_gf(y, i, r);
                });
            });
        }
    }

    #[test]
    fn strided_element_loop_is_not_vectorized() {
        let spec = DeviceSpec::e5_2630v3();
        let n = 4096;
        let (mut mem, args) = daxpy_setup(n);
        let prog = trace_kernel(&StridedDaxpy, 1);
        let wd = WorkDiv::d1(8, 1, n / 8);
        let report = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        let y = args.bufs_f[1];
        for i in 0..n {
            assert_eq!(mem.f(y)[i], 2.0 * i as f64 + 1.0);
        }
        assert_eq!(report.stats.vec_flops, 0, "{:?}", report.stats);
    }

    #[test]
    fn coalesced_vs_strided_transactions_on_gpu() {
        // Warp reads 32 consecutive f64 -> 2 x 128B transactions.
        // Warp reads 32 f64 strided by 32 -> 32 transactions.
        struct Gather {
            stride: i64,
        }
        impl Kernel for Gather {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let src = o.buf_f(0);
                let dst = o.buf_f(1);
                let tid = o.thread_idx(0);
                let stride = o.lit_i(self.stride);
                let i = o.mul_i(tid, stride);
                let v = o.ld_gf(src, i);
                o.st_gf(dst, tid, v);
            }
        }
        let spec = DeviceSpec::k20();
        let run = |stride: i64| {
            let mut mem = DeviceMem::new();
            let src = mem.alloc_f(32 * 32);
            let dst = mem.alloc_f(32);
            let args = SimArgs {
                bufs_f: vec![src, dst],
                bufs_i: vec![],
                params_f: vec![],
                params_i: vec![],
            };
            let prog = trace_kernel(&Gather { stride }, 1);
            let wd = WorkDiv::d1(1, 32, 1);
            run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full)
                .unwrap()
                .stats
        };
        let coalesced = run(1);
        let strided = run(32);
        assert!(
            strided.mem_transactions >= coalesced.mem_transactions + 28,
            "coalesced {} vs strided {}",
            coalesced.mem_transactions,
            strided.mem_transactions
        );
    }

    #[test]
    fn divergence_is_detected() {
        struct Divergent;
        impl Kernel for Divergent {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let tid = o.thread_idx(0);
                let two = o.lit_i(2);
                let r = o.rem_i(tid, two);
                let one = o.lit_i(1);
                let odd = o.eq_i(r, one);
                o.if_else(
                    odd,
                    |o| {
                        let v = o.lit_f(1.0);
                        o.st_gf(b, tid, v);
                    },
                    |o| {
                        let v = o.lit_f(2.0);
                        o.st_gf(b, tid, v);
                    },
                );
            }
        }
        let spec = DeviceSpec::k20();
        let mut mem = DeviceMem::new();
        let buf = mem.alloc_f(64);
        let args = SimArgs {
            bufs_f: vec![buf],
            bufs_i: vec![],
            params_f: vec![],
            params_i: vec![],
        };
        let prog = trace_kernel(&Divergent, 1);
        let wd = WorkDiv::d1(1, 64, 1);
        let report = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        assert!(report.stats.divergent_branches >= 2);
        for t in 0..64 {
            assert_eq!(mem.f(buf)[t], if t % 2 == 1 { 1.0 } else { 2.0 });
        }
    }

    #[test]
    fn sync_in_divergent_flow_is_an_error() {
        struct BadSync;
        impl Kernel for BadSync {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let tid = o.thread_idx(0);
                let one = o.lit_i(1);
                let c = o.lt_i(tid, one);
                o.if_(c, |o| o.sync_block_threads());
            }
        }
        let spec = DeviceSpec::k20();
        let mut mem = DeviceMem::new();
        let prog = trace_kernel(&BadSync, 1);
        let wd = WorkDiv::d1(1, 32, 1);
        let args = SimArgs::default();
        let err =
            run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap_err();
        assert!(err.to_string().contains("divergent"), "{err}");
    }

    #[test]
    fn shared_memory_reduction_matches_reference() {
        struct BlockSum;
        impl Kernel for BlockSum {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let input = o.buf_f(0);
                let out = o.buf_f(1);
                let sh = o.shared_f(64);
                let tid = o.thread_idx(0);
                let bid = o.block_idx(0);
                let bdim = o.block_thread_extent(0);
                let base = o.mul_i(bid, bdim);
                let gid = o.add_i(base, tid);
                let v = o.ld_gf(input, gid);
                o.st_sf(sh, tid, v);
                o.sync_block_threads();
                let two = o.lit_i(2);
                let s0 = o.div_i(bdim, two);
                let s = o.var_i(s0);
                o.while_(
                    |o| {
                        let sv = o.vget_i(s);
                        let z = o.lit_i(0);
                        o.gt_i(sv, z)
                    },
                    |o| {
                        let sv = o.vget_i(s);
                        let c = o.lt_i(tid, sv);
                        o.if_(c, |o| {
                            let j = o.add_i(tid, sv);
                            let a = o.ld_sf(sh, tid);
                            let b = o.ld_sf(sh, j);
                            let sum = o.add_f(a, b);
                            o.st_sf(sh, tid, sum);
                        });
                        o.sync_block_threads();
                        let two = o.lit_i(2);
                        let nx = o.div_i(sv, two);
                        o.vset_i(s, nx);
                    },
                );
                let z = o.lit_i(0);
                let is0 = o.eq_i(tid, z);
                o.if_(is0, |o| {
                    let z2 = o.lit_i(0);
                    let total = o.ld_sf(sh, z2);
                    o.st_gf(out, bid, total);
                });
            }
        }
        let spec = DeviceSpec::k20();
        let mut mem = DeviceMem::new();
        let n = 256;
        let input = mem.alloc_f(n);
        let out = mem.alloc_f(4);
        for i in 0..n {
            mem.f_mut(input)[i] = i as f64;
        }
        let args = SimArgs {
            bufs_f: vec![input, out],
            bufs_i: vec![],
            params_f: vec![],
            params_i: vec![],
        };
        let prog = trace_kernel(&BlockSum, 1);
        let wd = WorkDiv::d1(4, 64, 1);
        let report = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        let total: f64 = mem.f(out).iter().sum();
        assert_eq!(total, (n * (n - 1) / 2) as f64);
        assert!(report.stats.syncs > 0);
        assert!(report.stats.shared_accesses > 0);
    }

    #[test]
    fn block_sampling_extrapolates_stats() {
        let spec = DeviceSpec::k20();
        let n = 1 << 14;
        let (mut mem, args) = daxpy_setup(n);
        let prog = trace_kernel(&Daxpy, 1);
        let wd = WorkDiv::d1(n / 128, 128, 1);
        let full = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        let (mut mem2, args2) = daxpy_setup(n);
        let sampled = run_kernel_launch(
            &spec,
            &mut mem2,
            &prog,
            &wd,
            &args2,
            ExecMode::SampleBlocks(8),
        )
        .unwrap();
        assert!(sampled.sampled);
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b as f64);
        assert!(rel(sampled.stats.total_flops(), full.stats.total_flops()) < 0.05);
        assert!(rel(sampled.stats.global_loads, full.stats.global_loads) < 0.05);
        // Simulated time within 20% of the full run.
        let tr = (sampled.time.total_s - full.time.total_s).abs() / full.time.total_s;
        assert!(tr < 0.2, "time rel err {tr}");
    }

    /// A per-SM cache model is built when a block lands on its SM: the Phi
    /// model has 60, a four-block sample touches at most four, and a
    /// zero-block launch none.
    #[test]
    fn sampled_launch_builds_only_the_caches_it_uses() {
        let spec = DeviceSpec::xeon_phi_5110p();
        let n = 1 << 14;
        let prog = trace_kernel(&Daxpy, 1);
        let wd = WorkDiv::d1(n / 64, 1, 64);
        let built = |mode: ExecMode| {
            let (mut mem, args) = daxpy_setup(n);
            let before = cache::BUILT.with(|b| b.get());
            // One worker: the launch runs on this thread, where BUILT counts.
            let rep = run_kernel_launch_threads(&spec, &mut mem, &prog, &wd, &args, mode, 1);
            (cache::BUILT.with(|b| b.get()) - before, rep.unwrap())
        };
        let (caches, rep) = built(ExecMode::SampleBlocks(4));
        assert!(rep.sampled && (1..=4).contains(&caches), "{caches}");
        let (caches, _) = built(ExecMode::BlockRange { start: 7, end: 7 });
        assert_eq!(caches, 0);
        let (caches, rep) = built(ExecMode::Full);
        assert_eq!(caches, spec.sms.min(n / 64));
        assert!(rep.stats.cache_misses > 0);
    }

    #[test]
    fn atomics_accumulate_deterministically() {
        struct AtomicSum;
        impl Kernel for AtomicSum {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let acc = o.buf_f(0);
                let tid = o.linear_global_thread_idx();
                let v = o.i2f(tid);
                let z = o.lit_i(0);
                let _ = o.atomic_add_gf(acc, z, v);
            }
        }
        let spec = DeviceSpec::k20();
        let mut mem = DeviceMem::new();
        let acc = mem.alloc_f(1);
        let args = SimArgs {
            bufs_f: vec![acc],
            bufs_i: vec![],
            params_f: vec![],
            params_i: vec![],
        };
        let prog = trace_kernel(&AtomicSum, 1);
        let wd = WorkDiv::d1(4, 64, 1);
        let report = run_kernel_launch(&spec, &mut mem, &prog, &wd, &args, ExecMode::Full).unwrap();
        assert_eq!(mem.f(acc)[0], (255 * 256 / 2) as f64);
        assert_eq!(report.stats.atomics, 256);
    }

    #[test]
    fn oob_reports_block() {
        struct Bad;
        impl Kernel for Bad {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let i = o.lit_i(10_000);
                let v = o.lit_f(0.0);
                o.st_gf(b, i, v);
            }
        }
        let spec = DeviceSpec::k20();
        let mut mem = DeviceMem::new();
        let buf = mem.alloc_f(4);
        let args = SimArgs {
            bufs_f: vec![buf],
            bufs_i: vec![],
            params_f: vec![],
            params_i: vec![],
        };
        let prog = trace_kernel(&Bad, 1);
        let err = run_kernel_launch(
            &spec,
            &mut mem,
            &prog,
            &WorkDiv::d1(1, 1, 1),
            &args,
            ExecMode::Full,
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
        assert_eq!(err.block, Some([0, 0, 0]));
        assert_eq!(err.thread, Some([0, 0, 0]));
    }

    #[test]
    fn bank_conflicts_counted() {
        // All 32 lanes hit shared[lane * 32] -> same bank, 32-way conflict.
        struct Conflict;
        impl Kernel for Conflict {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let sh = o.shared_f(32 * 32);
                let tid = o.thread_idx(0);
                let s = o.lit_i(32);
                let i = o.mul_i(tid, s);
                let v = o.i2f(tid);
                o.st_sf(sh, i, v);
            }
        }
        let spec = DeviceSpec::k20();
        let mut mem = DeviceMem::new();
        let prog = trace_kernel(&Conflict, 1);
        let report = run_kernel_launch(
            &spec,
            &mut mem,
            &prog,
            &WorkDiv::d1(1, 32, 1),
            &SimArgs::default(),
            ExecMode::Full,
        )
        .unwrap();
        assert_eq!(report.stats.bank_conflict_cycles, 31);
    }
}
