//! Simulated device specifications, including presets for every machine in
//! the paper's Table 3.
//!
//! The per-cycle floating-point throughput of each preset is calibrated so
//! that `peak_gflops()` reproduces the *theoretical double peak performance*
//! column of Table 3 (per device, not per node), which is the denominator of
//! the Fig. 9 relative-performance plot.

use alpaka_core::acc::DeviceKind;

/// Where the simulated global-memory cache sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// No cache: every transaction goes to DRAM (idealized streaming GPU).
    None,
    /// One cache per SM/core (CPU L2-per-core model).
    PerSm,
    /// One cache shared by the whole device (GPU L2 model).
    Shared,
}

/// A simulated device. `sms` are streaming multiprocessors for GPUs and
/// cores for CPUs; `warp_width` is the lock-step width (32 on the GPUs,
/// 1 on CPUs — CPU data parallelism is modeled through the *element level*
/// instead, see `simd_width`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: String,
    pub kind: DeviceKind,
    pub sms: usize,
    pub warp_width: usize,
    pub clock_ghz: f64,
    /// Double-precision flops per cycle per SM at full (vector/warp) issue.
    pub dp_flops_per_cycle_per_sm: f64,
    /// Vector lanes for f64 on CPUs (element-loop vectorization factor);
    /// 1 on GPUs, whose lanes are modeled by the warp.
    pub simd_width: usize,
    /// Warp-instructions issued per cycle per SM.
    pub issue_rate_per_sm: f64,
    /// Device-memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Bytes of shared memory available per block.
    pub shared_mem_per_block: usize,
    pub max_threads_per_block: usize,
    /// Residency limit used by the latency-hiding/occupancy model.
    pub max_resident_warps_per_sm: usize,
    pub cache_scope: CacheScope,
    /// Total cache capacity in KiB (per SM for `PerSm`, whole device for
    /// `Shared`).
    pub cache_kib: usize,
    pub cache_assoc: usize,
    /// Cache line / memory transaction size in bytes.
    pub line_bytes: usize,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Host<->device copy bandwidth in GB/s and latency in microseconds.
    pub transfer_bw_gbs: f64,
    pub transfer_latency_us: f64,
}

impl DeviceSpec {
    /// Theoretical double-precision peak in GFLOPS.
    pub fn peak_gflops(&self) -> f64 {
        self.sms as f64 * self.clock_ghz * self.dp_flops_per_cycle_per_sm
    }

    /// NVIDIA K20 (GK110): 13 SMX, 2496 cores, 0.706 GHz, ~1170 GFLOPS DP.
    pub fn k20() -> Self {
        DeviceSpec {
            name: "NVIDIA K20 GK110".into(),
            kind: DeviceKind::Gpu,
            sms: 13,
            warp_width: 32,
            clock_ghz: 0.706,
            dp_flops_per_cycle_per_sm: 127.5, // 64 DP FMA units x 2
            simd_width: 1,
            issue_rate_per_sm: 4.0,
            mem_bw_gbs: 208.0,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_resident_warps_per_sm: 64,
            cache_scope: CacheScope::Shared,
            cache_kib: 1536,
            cache_assoc: 16,
            line_bytes: 128,
            launch_overhead_us: 5.0,
            transfer_bw_gbs: 6.0,
            transfer_latency_us: 10.0,
        }
    }

    /// NVIDIA K80 (one GK210 of the dual-GPU board): 13 SMX, 0.875 GHz
    /// boost, ~1450 GFLOPS DP per GPU.
    pub fn k80() -> Self {
        DeviceSpec {
            name: "NVIDIA K80 GK210".into(),
            kind: DeviceKind::Gpu,
            sms: 13,
            warp_width: 32,
            clock_ghz: 0.875,
            dp_flops_per_cycle_per_sm: 127.5,
            simd_width: 1,
            issue_rate_per_sm: 4.0,
            mem_bw_gbs: 240.0,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_resident_warps_per_sm: 64,
            cache_scope: CacheScope::Shared,
            cache_kib: 1536,
            cache_assoc: 16,
            line_bytes: 128,
            launch_overhead_us: 5.0,
            transfer_bw_gbs: 6.0,
            transfer_latency_us: 10.0,
        }
    }

    /// Intel Xeon E5-2630v3: 8 cores, 2.4 GHz, AVX2+FMA, ~270 GFLOPS DP
    /// per socket (540 for the paper's 2-socket node).
    pub fn e5_2630v3() -> Self {
        DeviceSpec {
            name: "Intel Xeon E5-2630v3".into(),
            kind: DeviceKind::Cpu,
            sms: 8,
            warp_width: 1,
            clock_ghz: 2.4,
            dp_flops_per_cycle_per_sm: 14.0625, // calibrated: 270 GFLOPS/socket
            simd_width: 4,                      // AVX2: 4 x f64
            issue_rate_per_sm: 4.0,
            mem_bw_gbs: 59.0,
            shared_mem_per_block: 256 * 1024,
            max_threads_per_block: 1,
            max_resident_warps_per_sm: 1,
            cache_scope: CacheScope::PerSm,
            cache_kib: 256,
            cache_assoc: 8,
            line_bytes: 64,
            launch_overhead_us: 1.0,
            transfer_bw_gbs: 30.0,
            transfer_latency_us: 0.5,
        }
    }

    /// Intel Xeon E5-2609: 4 cores, 2.4 GHz, SSE/AVX (no FMA), ~75 GFLOPS
    /// DP per socket (150 for the 2-socket node).
    pub fn e5_2609() -> Self {
        DeviceSpec {
            name: "Intel Xeon E5-2609".into(),
            kind: DeviceKind::Cpu,
            sms: 4,
            warp_width: 1,
            clock_ghz: 2.4,
            dp_flops_per_cycle_per_sm: 7.8125, // calibrated: 75 GFLOPS/socket
            simd_width: 4,
            // Sandy Bridge issues at most 2 vector ops per cycle.
            issue_rate_per_sm: 2.0,
            mem_bw_gbs: 34.0,
            shared_mem_per_block: 256 * 1024,
            max_threads_per_block: 1,
            max_resident_warps_per_sm: 1,
            cache_scope: CacheScope::PerSm,
            cache_kib: 256,
            cache_assoc: 8,
            line_bytes: 64,
            launch_overhead_us: 1.0,
            transfer_bw_gbs: 30.0,
            transfer_latency_us: 0.5,
        }
    }

    /// AMD Opteron 6276 (Bulldozer): 16 cores, 2.3 GHz, shared FPUs,
    /// ~120 GFLOPS DP per package (480 for the 4-package node).
    pub fn opteron_6276() -> Self {
        DeviceSpec {
            name: "AMD Opteron 6276".into(),
            kind: DeviceKind::Cpu,
            sms: 16,
            warp_width: 1,
            clock_ghz: 2.3,
            dp_flops_per_cycle_per_sm: 3.26, // calibrated: 120 GFLOPS/package
            simd_width: 4,
            // Bulldozer modules share one front-end between two cores.
            issue_rate_per_sm: 1.0,
            mem_bw_gbs: 25.6,
            shared_mem_per_block: 256 * 1024,
            max_threads_per_block: 1,
            max_resident_warps_per_sm: 1,
            cache_scope: CacheScope::PerSm,
            cache_kib: 1024,
            cache_assoc: 16,
            line_bytes: 64,
            launch_overhead_us: 1.0,
            transfer_bw_gbs: 20.0,
            transfer_latency_us: 0.5,
        }
    }

    /// Intel Xeon Phi 5110P (Knights Corner) — the paper's *future work*
    /// architecture (Table 2 already carries MIC rows). 60 cores,
    /// 1.053 GHz, 8-wide DP vectors with FMA: ~1011 GFLOPS DP.
    pub fn xeon_phi_5110p() -> Self {
        DeviceSpec {
            name: "Intel Xeon Phi 5110P".into(),
            kind: DeviceKind::Cpu,
            sms: 60,
            warp_width: 1,
            clock_ghz: 1.053,
            dp_flops_per_cycle_per_sm: 16.0, // 8 lanes x FMA
            simd_width: 8,
            // In-order cores: dual-issue at best.
            issue_rate_per_sm: 2.0,
            mem_bw_gbs: 320.0,
            shared_mem_per_block: 256 * 1024,
            max_threads_per_block: 1,
            max_resident_warps_per_sm: 1,
            cache_scope: CacheScope::PerSm,
            cache_kib: 512,
            cache_assoc: 8,
            line_bytes: 64,
            launch_overhead_us: 2.0,
            transfer_bw_gbs: 6.0,
            transfer_latency_us: 10.0,
        }
    }

    /// All Table 3 presets, GPU and CPU.
    pub fn table3() -> Vec<DeviceSpec> {
        vec![
            Self::opteron_6276(),
            Self::e5_2609(),
            Self::e5_2630v3(),
            Self::k20(),
            Self::k80(),
        ]
    }

    /// Resident blocks per SM given a block's thread count and shared
    /// memory usage (simple occupancy model).
    pub fn resident_blocks_per_sm(&self, threads_per_block: usize, shared_bytes: usize) -> usize {
        let warps_per_block = threads_per_block.div_ceil(self.warp_width).max(1);
        let by_warps = (self.max_resident_warps_per_sm / warps_per_block).max(1);
        let by_shared = self
            .shared_mem_per_block
            .checked_div(shared_bytes)
            .map_or(usize::MAX, |v| v.max(1));
        by_warps.min(by_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_peaks_match_paper() {
        // Per-device peaks derived from Table 3's node peaks.
        let close = |got: f64, want: f64| (got - want).abs() / want < 0.02;
        assert!(close(DeviceSpec::k20().peak_gflops(), 1170.0));
        assert!(close(DeviceSpec::k80().peak_gflops(), 1450.0));
        assert!(close(DeviceSpec::e5_2630v3().peak_gflops(), 270.0));
        assert!(close(DeviceSpec::e5_2609().peak_gflops(), 75.0));
        assert!(close(DeviceSpec::opteron_6276().peak_gflops(), 120.0));
    }

    #[test]
    fn xeon_phi_future_work_spec() {
        let phi = DeviceSpec::xeon_phi_5110p();
        assert!(
            (phi.peak_gflops() - 1010.0).abs() < 15.0,
            "{}",
            phi.peak_gflops()
        );
        assert_eq!(phi.simd_width, 8);
    }

    #[test]
    fn occupancy_limits() {
        let k20 = DeviceSpec::k20();
        // 256-thread blocks -> 8 warps -> 8 resident by warp limit.
        assert_eq!(k20.resident_blocks_per_sm(256, 0), 8);
        // Shared memory can be the binding constraint.
        assert_eq!(k20.resident_blocks_per_sm(256, 24 * 1024), 2);
        assert_eq!(k20.resident_blocks_per_sm(256, 48 * 1024), 1);
        // CPUs run one block per core.
        assert_eq!(DeviceSpec::e5_2630v3().resident_blocks_per_sm(1, 0), 1);
    }
}
