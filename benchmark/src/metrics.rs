//! The benchmark's metric vocabulary: every name it prints, with unit,
//! direction, bound (end to end) or layer (per layer), and whether the value
//! is an exact count that must repeat bit-for-bit. `BENCHMARK.json` is
//! checked against these tables by `--smoke`.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Measured over the timed repetitions (so `bench.rep_spread` says how
    /// noisy it was) rather than once per process.
    pub over_repetitions: bool,
    /// The glossary text; a test holds README.md to it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 0`, as measured (raw host
/// time). None of them can be zero. Each is a different reading: `wall_s` is
/// the whole operation list with its copies and waits, `launch_p50_us` the
/// typical single launch call, `work_mops` the rate inside launch calls.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        over_repetitions: false,
        what: "median of three set-ups (input generation, host references, allocation, upload) plus the one warm-up repetition",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        over_repetitions: true,
        what: "median wall of one repetition of the fixed operation list",
    },
    EndToEnd {
        name: "launch_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        over_repetitions: true,
        what: "median over the operation list's launch calls (time_launch, Queue::enqueue_kernel, DevicePool::launch, AseProblem::run_on) of each call's median wall across the repetitions",
    },
    EndToEnd {
        name: "work_mops",
        unit: "Mop/s",
        better: Higher,
        bound: 0.25,
        over_repetitions: true,
        what: "10^6 work units per second spent inside launch calls (median repetition): warp-instructions the simulator interpreted (scalar_issue+vec_issue of the blocks it ran, not the extrapolated total of a sampled launch) on the simulator workloads, floating-point operations on cpu_native",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
        over_repetitions: false,
        what: "peak resident set size of the workload process (VmHWM)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or modelled value that must repeat exactly for one seed.
    pub exact: bool,
    /// The workloads whose traced run measures it; elsewhere it prints 0.
    pub on: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    on: &'static str,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        on,
        what,
    }
}

const SIM4: &str = "dgemm_peak short_blocks hase_ase workdiv_sweep";
const SIM5: &str = "dgemm_peak short_blocks hase_ase workdiv_sweep queue_steps";
const ALL: &str = "all";

/// Reported by every workload with `--trace 1`. The layer is the prefix of
/// the name.
pub const PER_LAYER: &[PerLayer] = &[
    // kir: DSL trace and optimizer, per staged launch.
    m("kir.trace_us", "us", Lower, false, SIM4, "median trace_kernel_spec time per launch"),
    m("kir.optimize_us", "us", Lower, false, SIM4, "median optimize time per launch"),
    m("kir.instrs_in", "count", Lower, true, SIM4, "IR instructions traced per repetition"),
    m("kir.instrs_out", "count", Lower, true, SIM4, "IR instructions left after optimize per repetition"),
    m("kir.self_s", "s", Lower, false, SIM4, "kir self time per staged repetition"),
    // sim front end: lowering, compilation, program caches, fixed launch cost.
    m("sim.lower_us", "us", Lower, false, SIM4, "median standalone lower() time over the workload's distinct programs"),
    m("sim.lower_ops", "count", Lower, true, SIM4, "lowered ops summed over the workload's distinct programs"),
    m("sim.compile_us", "us", Lower, false, SIM4, "median cold minus warm zero-block launch, minus sim.lower_us"),
    m("sim.launch_fixed_us", "us", Lower, false, SIM4, "median warm zero-block launch (ExecMode::BlockRange{0,0})"),
    m("sim.progcache_hit_ratio", "ratio", Higher, false, SIM5, "hits/(hits+misses) of the lowering and compile caches over the repetitions, from SimReport deltas"),
    m("sim.sampled_err", "ratio", Lower, true, "workdiv_sweep", "max |sampled - exact| / exact modelled time over one work division per kernel"),
    m("sim.front_self_s", "s", Lower, false, SIM4, "zero-block-launch self time per staged repetition"),
    // sim execution.
    m("sim.block_fixed_ns", "ns", Lower, false, "short_blocks", "wall per block of a guard-false DAXPY over 65536 blocks"),
    m("sim.exec_us_per_block", "us", Lower, false, SIM4, "exec-span wall per interpreted block"),
    m("sim.exec_ns_per_instr", "ns", Lower, false, SIM4, "exec-span wall per interpreted warp-instruction"),
    m("sim.exec_busy_s", "s", Lower, false, SIM4, "exec-span wall per staged repetition"),
    m("sim.exec_self_s", "s", Lower, false, SIM4, "same, as self time (equal: exec spans have no children)"),
    m("sim.launch_self_s", "s", Lower, false, "queue_steps", "whole-launch time reported by SimReport::host under queue calls, per staged repetition"),
    m("sim.mips", "Mop/s", Higher, false, SIM4, "10^6 interpreted warp-instructions per exec-span second"),
    m("sim.blocks_per_s", "1/s", Higher, false, SIM4, "interpreted blocks per exec-span second"),
    m("sim.warp_instrs", "count", Lower, true, SIM5, "scalar_issue+vec_issue per repetition (scaled counts for sampled launches)"),
    m("sim.blocks", "count", Lower, true, SIM5, "blocks per repetition"),
    m("sim.atomics_ops", "count", Lower, true, "short_blocks", "global atomic operations per repetition"),
    m("sim.atomics_ns_per_op", "ns", Lower, false, "short_blocks", "exec-span wall of the atomic launches per atomic operation"),
    m("sim.fallback_launches", "count", Lower, true, SIM5, "launches per repetition whose SimReport::fallback is not None"),
    m("sim.cache_seq_ns", "ns", Lower, false, "short_blocks", "CacheSim::access_line on a sequential line stream, per access"),
    m("sim.cache_rand_ns", "ns", Lower, false, "short_blocks", "CacheSim::access_line on a seeded random line stream, per access"),
    m("sim.cache_hit_ratio", "ratio", Higher, true, SIM5, "modelled cache hits / accesses per repetition"),
    m("sim.mem_transactions", "count", Lower, true, SIM5, "coalesced memory transactions per repetition"),
    m("sim.dram_bytes", "count", Lower, true, SIM5, "modelled DRAM bytes per repetition"),
    m("sim.par_speedup_t2", "ratio", Higher, false, "short_blocks", "repetition wall at 1 interpreter thread / at 2"),
    m("sim.par_workers_used", "count", Higher, true, "short_blocks", "largest HostPerf::workers seen at 2 interpreter threads"),
    m("sim.time_s", "s", Lower, true, SIM5, "sum of modelled TimeBreakdown::total_s per repetition"),
    m("sim.model_rel_peak_min", "ratio", Higher, true, "dgemm_peak", "lowest modelled share of peak over the five Table 3 devices"),
    m("sim.model_rel_peak_max", "ratio", Lower, true, "dgemm_peak", "highest modelled share of peak over the five Table 3 devices"),
    m("sim.rel_peak_err", "ratio", Lower, true, "dgemm_peak", "max |share of peak - 0.20| / 0.20 over the five Table 3 devices (Fig. 9)"),
    // accsim: simulated-device buffers and copies.
    m("accsim.upload_gbps", "GB/s", Higher, false, "queue_steps", "BufferF::upload of 8 MiB"),
    m("accsim.download_gbps", "GB/s", Higher, false, "queue_steps", "BufferF::download of 8 MiB"),
    m("accsim.copy_gbps", "GB/s", Higher, false, "queue_steps", "device-to-device copy_f64 of 8 MiB"),
    m("accsim.alloc_us", "us", Lower, false, "queue_steps", "Device::alloc_f64 of 8 MiB"),
    m("accsim.self_s", "s", Lower, false, SIM5, "upload/download/copy self time per staged repetition"),
    // alpaka: facade queues, events, pool, resilience.
    m("alpaka.queue_blocking_us", "us", Lower, false, "queue_steps", "median enqueue_kernel on a Blocking sim queue (the heat grid, caches warm)"),
    m("alpaka.queue_nonblocking_us", "us", Lower, false, "queue_steps", "median enqueue_kernel + wait on a NonBlocking native queue (hand-off and drain)"),
    m("alpaka.queue_wait_idle_us", "us", Lower, false, "queue_steps", "median Queue::wait on an idle queue"),
    m("alpaka.event_us", "us", Lower, false, "queue_steps", "median enqueue_event + wait_event on a native NonBlocking queue"),
    m("alpaka.pool_overhead_ratio", "ratio", Lower, false, "queue_steps", "1 member x 8 shards pool launch / direct launch of the same DAXPY"),
    m("alpaka.pool_shard_us", "us", Lower, false, "queue_steps", "pool launch wall per shard at pool size 1"),
    m("alpaka.pool_scaling_p2", "ratio", Higher, false, "queue_steps", "pool-size-1 wall / pool-size-2 wall, 8 shards"),
    m("alpaka.recovery_overhead_ratio", "ratio", Lower, false, "queue_steps", "pool launch with one injected device loss / fault-free"),
    m("alpaka.retries", "count", Lower, true, "queue_steps", "extra attempts made in the seeded-fault launch"),
    m("alpaka.migrations", "count", Lower, true, "queue_steps", "shard migrations in the seeded-fault launch"),
    m("alpaka.launch_tail_us", "us", Lower, false, ALL, "highest launch-latency percentile with at least ten samples beyond it"),
    m("alpaka.launch_tail_pct", "%", Higher, false, ALL, "which percentile that is"),
    m("alpaka.launch_samples", "count", Higher, false, ALL, "launch calls timed in the production repetitions (behind launch_p50_us and the tail)"),
    m("alpaka.self_s", "s", Lower, false, "queue_steps", "queue/event/facade self time per staged repetition (includes the kir re-trace the facade does per enqueue, and the native queue's compute inside wait)"),
    m("alpaka.pool_self_s", "s", Lower, false, "queue_steps", "DevicePool::launch time per staged repetition: orchestration, shard copies and the shards' simulator work, which the pool does not report separately"),
    // cpu: native back-ends.
    m("cpu.launch_us", "us", Lower, false, "cpu_native", "median launch of a one-block no-op grid on CpuBlocks"),
    m("cpu.barrier_ns", "ns", Lower, false, "cpu_native", "sync_block_threads on CpuBlockThreads (4 threads), per barrier"),
    m("cpu.fiber_switch_ns", "ns", Lower, false, "cpu_native", "sync_block_threads on CpuFibers (4 fibers), per fiber switch"),
    m("cpu.native_ratio", "ratio", Higher, false, "cpu_native", "t_native / t_alpaka over interleaved DgemmNaive pairs (Fig. 5)"),
    m("cpu.gflops_naive", "GF/s", Higher, false, "cpu_native", "DgemmNaive n=384 on CpuBlocks"),
    m("cpu.gflops_tiled", "GF/s", Higher, false, "cpu_native", "DgemmTiled n=512 on CpuBlocks"),
    m("cpu.gflops", "GF/s", Higher, false, "cpu_native", "all DGEMM flops / all DGEMM launch wall"),
    m("cpu.daxpy_gbps", "GB/s", Higher, false, "cpu_native", "DAXPY 2^22 on CpuBlocks, 24 bytes per element"),
    m("cpu.self_s", "s", Lower, false, "cpu_native queue_steps", "native back-end self time per staged repetition"),
    // hase.
    m("hase.rays_per_s", "1/s", Higher, false, "hase_ase", "Monte-Carlo rays per exec-span second"),
    m("hase.max_rel_err", "ratio", Lower, true, "hase_ase", "largest relative deviation of the flux map from AseProblem::reference"),
    m("hase.divergent_branches", "count", Lower, true, "hase_ase", "divergent warp branches per repetition"),
    m("hase.self_s", "s", Lower, false, "hase_ase", "gain-field and argument assembly self time per staged repetition"),
    // Observability switches, measured in child processes.
    m("trace.traced_slowdown", "ratio", Lower, false, "dgemm_peak", "one launch with ALPAKA_SIM_TRACE set / unset"),
    m("metrics.enabled_slowdown", "ratio", Lower, false, "dgemm_peak", "one launch with ALPAKA_SIM_METRICS set / unset"),
    // The harness itself.
    m("bench.reference_ms", "ms", Lower, false, ALL, "median wall of the harness's own reference computation (util::reference_pass, ~3 ms) around the staged repetitions: how fast the host was when the raw timings were taken"),
    m("bench.self_s", "s", Lower, false, ALL, "harness self time per staged repetition (checks excluded)"),
    m("bench.span_overhead_ratio", "ratio", Lower, false, ALL, "staged repetition wall / production repetition wall"),
    m("bench.rep_spread", "ratio", Lower, false, ALL, "(q3-q1)/median of the production repetition walls in this run"),
    m("bench.failed_share", "ratio", Lower, true, ALL, "failed / attempted operations (launch, copy, output check)"),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    ("dgemm_peak", "Fig. 9 shape: 16-64 long blocks per launch on the five Table 3 models plus a 4096-block naive DGEMM; fused-loop execution and the cache model are 99.9% of the wall"),
    ("short_blocks", "10^4-10^5 short blocks (DAXPY, scan, transpose, atomics histogram): per-block fixed cost, the unfused path, coalescing and atomics merge; a fusion gain that taxes block set-up loses here"),
    ("hase_ase", "Fig. 10 as repro_fig10 sizes it (48 rays) on a K20 and a 2-socket E5 node; data-dependent While loops, 10^5 divergent branches and special functions, never fused"),
    ("workdiv_sweep", "Matthes-style tuning: 4 kernels x 72 work divisions, sampled; 288 distinct programs against 32-entry caches (hit ratio 0); the only workload where kir and lowering/compilation show (23% of wall)"),
    ("queue_steps", "heat2d (96x64, 200 steps), the device scan and an 8-shard pool DAXPY: cached programs on small grids through queues, copies and a pool; wall is ~20% queue facade, ~34% pool launches, ~46% sim launches"),
    ("cpu_native", "the real CPU back-ends against native_dgemm; bypasses kir and the simulator, so a change there predicts no move here; two thirds of the wall is one 64-block CpuBlockThreads launch"),
];

/// Values of one run, by metric name.
pub type MetricSet = BTreeMap<&'static str, f64>;

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|d| d.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layer of a per-layer metric: the prefix of its name.
    fn layer_of(name: &str) -> &str {
        name.split('.').next().unwrap_or(name)
    }

    #[test]
    fn readme_glossary_matches_the_tables() {
        let readme = include_str!("../README.md");
        let yes = |b| if b { "yes" } else { "" };
        for d in END_TO_END {
            let row = format!(
                "| `{}` | {} | {} | {:.0} % | {} |",
                d.name,
                d.unit,
                d.better.name(),
                100.0 * d.bound,
                d.what
            );
            assert!(readme.contains(&row), "README.md lacks the row\n{row}");
        }
        for d in PER_LAYER {
            let row = format!(
                "| `{}` | {} | {} | {} | {} | {} | {} |",
                d.name,
                layer_of(d.name),
                d.unit,
                d.better.name(),
                yes(d.exact),
                d.on,
                d.what
            );
            assert!(readme.contains(&row), "README.md lacks the row\n{row}");
        }
        for (name, why) in WORKLOADS {
            assert!(readme.contains(&format!("`{name}`")) && !why.is_empty());
        }
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200), "why too long");
        for d in PER_LAYER {
            let known = [
                "kir", "sim", "accsim", "alpaka", "cpu", "hase", "trace", "metrics", "bench",
            ];
            assert!(known.contains(&layer_of(d.name)), "{}", d.name);
            assert!(
                d.on == "all" || d.on.split(' ').all(|w| WORKLOADS.iter().any(|k| k.0 == w)),
                "{}",
                d.name
            );
        }
    }
}
