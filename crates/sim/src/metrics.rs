//! Stats→metrics bridge: fold one completed [`SimReport`] into the
//! deterministic registry of an [`Obs`] (`alpaka_core::metrics`).
//!
//! Everything recorded here comes from the simulated cost model
//! (`LaunchStats`, `TimeBreakdown`), so the resulting snapshot is
//! byte-identical across `ALPAKA_SIM_THREADS`, both engines and pool
//! sizes. The two deliberate exceptions are the process-wide program-cache
//! gauges (`alpaka_sim_cache_*`, lowered and compiled forms): their values
//! depend on which engine ran and on everything else the process executed,
//! exactly like wall time in traces — exporters and parity tests mask that
//! family. `HostPerf` (wall-clock interpreter throughput) is never
//! recorded.

use alpaka_core::metrics::RATE_BUCKETS;
use alpaka_core::obs::Obs;

use crate::atomics::FallbackReason;
use crate::interp::SimReport;

/// Stable lowercase name of a fallback reason (for metric labels).
fn fallback_reason_name(r: FallbackReason) -> &'static str {
    match r {
        FallbackReason::None => "none",
        FallbackReason::SharedCacheScope => "shared_cache_scope",
        FallbackReason::AtomicsNonReducible => "atomics_non_reducible",
    }
}

/// Record one completed launch into `obs` (no-op when its metrics are
/// disabled). `kernel` is the kernel name used as the metric label; the
/// facade's one emitter of launch events (`alpaka::queue::run_sim_traced`,
/// under queued and direct launches) calls this once per successful
/// `SimReport`, with the launching device's `Obs`.
pub fn record_launch(obs: &Obs, kernel: &str, report: &SimReport) {
    if !obs.metrics_enabled() {
        return;
    }
    let labels = &[("kernel", kernel)];
    let s = &report.stats;
    obs.counter_add("alpaka_launches_total", labels, 1);
    obs.counter_add("alpaka_launch_blocks_total", labels, s.blocks);
    obs.counter_add("alpaka_launch_flops_total", labels, s.total_flops());
    obs.counter_add("alpaka_launch_dram_bytes_total", labels, s.dram_bytes);
    obs.observe("alpaka_launch_seconds", labels, report.time.total_s);
    if report.time.total_s > 0.0 {
        obs.observe_in(
            "alpaka_launch_blocks_per_second",
            labels,
            RATE_BUCKETS,
            s.blocks as f64 / report.time.total_s,
        );
    }
    if report.sampled {
        obs.counter_add("alpaka_launch_sampled_total", labels, 1);
    }
    if report.fallback != FallbackReason::None {
        obs.counter_add(
            "alpaka_launch_fallback_total",
            &[
                ("kernel", kernel),
                ("reason", fallback_reason_name(report.fallback)),
            ],
            1,
        );
    }
    // Process-cumulative and engine-dependent: masked by parity tests.
    let lc = &report.lowering_cache;
    let cc = &report.compile_cache;
    obs.gauge_set(
        "alpaka_sim_cache_hits",
        &[("cache", "lowering")],
        lc.hits as f64,
    );
    obs.gauge_set(
        "alpaka_sim_cache_misses",
        &[("cache", "lowering")],
        lc.misses as f64,
    );
    obs.gauge_set(
        "alpaka_sim_cache_hits",
        &[("cache", "compiled")],
        cc.hits as f64,
    );
    obs.gauge_set(
        "alpaka_sim_cache_misses",
        &[("cache", "compiled")],
        cc.misses as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::metrics::capture;

    #[test]
    fn bridge_records_launch_families() {
        let mut report = SimReport::default();
        report.stats.blocks = 8;
        report.stats.scalar_flops = 100;
        report.stats.vec_flops = 28;
        report.stats.dram_bytes = 4096;
        report.time.total_s = 2e-4;
        report.fallback = FallbackReason::AtomicsNonReducible;
        let ((), cap) = capture(|| record_launch(&Obs::current(), "daxpy", &report));
        let snap = &cap.snapshot;
        assert_eq!(snap.counter_total("alpaka_launches_total"), 1);
        assert_eq!(snap.counter_total("alpaka_launch_blocks_total"), 8);
        assert_eq!(snap.counter_total("alpaka_launch_flops_total"), 128);
        assert_eq!(snap.counter_total("alpaka_launch_fallback_total"), 1);
        let h = snap
            .histogram("alpaka_launch_seconds", &[("kernel", "daxpy")])
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.p50, 2e-4);
    }

    #[test]
    fn bridge_is_noop_when_disabled() {
        let obs = Obs::default();
        record_launch(&obs, "daxpy", &SimReport::default());
        assert!(obs.snapshot().is_empty());
    }
}
