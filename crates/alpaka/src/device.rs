//! Uniform devices: one enum over every back-end.
//!
//! The paper's headline usability claim is that running on a new platform
//! requires changing *one* source line (the accelerator type alias in
//! Listing 5). The facade reproduces that: programs hold a [`Device`]
//! constructed from an [`AccKind`], and everything else — buffers, queues,
//! executors — is uniform.

use alpaka_core::acc::AccCaps;
use alpaka_core::buffer::BufLayout;
use alpaka_core::error::Result;
use alpaka_core::kernel::Kernel;
use alpaka_core::obs::Obs;
use alpaka_core::vec::div_ceil;
use alpaka_core::workdiv::WorkDiv;
use alpaka_cpu::{CpuAccKind, CpuDevice};
use alpaka_sim::DeviceSpec;
use alpaka_sim::{Engine, ExecMode, FaultPlan};

use crate::buffer::{BufferF, BufferI};
use crate::queue::run_sim_traced;

/// Every accelerator the reproduction ships. Switching back-end is
/// switching this one value.
#[derive(Debug, Clone, PartialEq)]
pub enum AccKind {
    /// Sequential CPU back-end (`AccCpuSerial`).
    CpuSerial,
    /// Worker-pool over blocks (OpenMP2-blocks analogue).
    CpuBlocks,
    /// OS thread per block-thread (C++11-threads analogue).
    CpuThreads,
    /// Persistent thread team per block (OpenMP2-threads analogue).
    CpuBlockThreads,
    /// Cooperative fibers (boost-fiber analogue).
    CpuFibers,
    /// Simulated GPU (CUDA back-end analogue) with a device spec.
    SimGpu(DeviceSpec),
    /// Simulated CPU device model (used by the Fig. 9 study).
    SimCpu(DeviceSpec),
}

impl AccKind {
    /// Simulated NVIDIA K20 — the paper's primary GPU.
    pub fn sim_k20() -> Self {
        AccKind::SimGpu(DeviceSpec::k20())
    }
    /// Simulated NVIDIA K80.
    pub fn sim_k80() -> Self {
        AccKind::SimGpu(DeviceSpec::k80())
    }
    /// Simulated Intel E5-2630v3.
    pub fn sim_e5_2630v3() -> Self {
        AccKind::SimCpu(DeviceSpec::e5_2630v3())
    }

    /// The five native CPU accelerators.
    pub fn native_cpu_all() -> Vec<AccKind> {
        vec![
            AccKind::CpuSerial,
            AccKind::CpuBlocks,
            AccKind::CpuThreads,
            AccKind::CpuBlockThreads,
            AccKind::CpuFibers,
        ]
    }

    pub fn name(&self) -> String {
        match self {
            AccKind::CpuSerial => "AccCpuSerial".into(),
            AccKind::CpuBlocks => "AccCpuBlocks".into(),
            AccKind::CpuThreads => "AccCpuThreads".into(),
            AccKind::CpuBlockThreads => "AccCpuBlockThreads".into(),
            AccKind::CpuFibers => "AccCpuFibers".into(),
            AccKind::SimGpu(s) => format!("AccSimGpu({})", s.name),
            AccKind::SimCpu(s) => format!("AccSimCpu({})", s.name),
        }
    }
}

#[derive(Clone)]
pub(crate) enum DeviceImpl {
    Cpu(CpuDevice),
    Sim(alpaka_accsim::SimDevice),
}

/// A device of any back-end.
#[derive(Clone)]
pub struct Device {
    kind: AccKind,
    pub(crate) inner: DeviceImpl,
    /// Trace ordinal within `obs` (shared by clones of this handle).
    id: u64,
    /// Where this device, its queues and its launches are observed: the
    /// [`Obs::current`] of its construction, shared by clones.
    obs: Obs,
}

impl Device {
    /// Create a device for the given accelerator (`DevMan::getDevByIdx`
    /// analogue — the host machine exposes exactly one device per CPU
    /// accelerator, and each spec names one simulated device). Native
    /// devices get one worker per host CPU, simulated ones one interpreter
    /// thread.
    pub fn new(kind: AccKind) -> Device {
        let workers = match kind {
            AccKind::SimGpu(_) | AccKind::SimCpu(_) => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Self::with_workers(kind, workers)
    }

    /// Like [`Device::new`] but with an explicit worker count for the
    /// block-parallel native back-ends.
    pub fn with_workers(kind: AccKind, workers: usize) -> Device {
        let cpu = |k| DeviceImpl::Cpu(CpuDevice::with_workers(k, workers));
        let inner = match &kind {
            AccKind::CpuSerial => cpu(CpuAccKind::Serial),
            AccKind::CpuBlocks => cpu(CpuAccKind::Blocks),
            AccKind::CpuThreads => cpu(CpuAccKind::Threads),
            AccKind::CpuBlockThreads => cpu(CpuAccKind::BlockThreads),
            AccKind::CpuFibers => cpu(CpuAccKind::Fibers),
            AccKind::SimGpu(spec) | AccKind::SimCpu(spec) => {
                // For simulated devices the worker count is the number of
                // host threads interpreting blocks (deterministic; see
                // `alpaka_sim`). `ALPAKA_SIM_THREADS` still overrides.
                DeviceImpl::Sim(alpaka_accsim::SimDevice::with_threads(
                    spec.clone(),
                    workers,
                ))
            }
        };
        let obs = Obs::current();
        Device {
            kind,
            inner,
            id: obs.next_device_id(),
            obs,
        }
    }

    pub fn kind(&self) -> &AccKind {
        &self.kind
    }

    /// Trace ordinal of this device handle within its [`Obs`] (the `pid` of
    /// its lanes in a Chrome-trace export).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The [`Obs`] this device, its queues and its launches record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Select the simulator interpreter engine for launches on this device
    /// (no-op on native CPU devices). Both engines are bit-identical in
    /// results and statistics.
    pub fn with_engine(mut self, engine: Engine) -> Device {
        self.inner = match self.inner {
            DeviceImpl::Sim(d) => DeviceImpl::Sim(d.with_engine(engine)),
            other => other,
        };
        self
    }

    /// Kernel launches attempted on this device so far (simulated devices
    /// only; 0 for native ones). Traces use this as the launch ordinal.
    pub fn sim_launch_count(&self) -> u64 {
        match &self.inner {
            DeviceImpl::Cpu(_) => 0,
            DeviceImpl::Sim(d) => d.launch_count(),
        }
    }

    pub fn name(&self) -> String {
        self.kind.name()
    }

    pub fn caps(&self) -> AccCaps {
        match &self.inner {
            DeviceImpl::Cpu(d) => d.caps(),
            DeviceImpl::Sim(d) => d.caps(),
        }
    }

    /// True for simulated devices (times are simulated seconds).
    pub fn is_simulated(&self) -> bool {
        matches!(self.inner, DeviceImpl::Sim(_))
    }

    /// Attach a fault-injection plan (simulated devices only; a no-op on
    /// native CPU devices, which have no injection hooks). Replaces any
    /// plan picked up from `ALPAKA_SIM_FAULTS`.
    pub fn with_faults(self, plan: FaultPlan) -> Device {
        if let DeviceImpl::Sim(d) = &self.inner {
            d.set_faults(Some(plan));
        }
        self
    }

    /// The active fault plan, if any (always `None` for native devices).
    pub fn faults(&self) -> Option<FaultPlan> {
        match &self.inner {
            DeviceImpl::Cpu(_) => None,
            DeviceImpl::Sim(d) => d.faults(),
        }
    }

    /// True once the device is lost (an injected sticky fault): every
    /// operation fails until a fresh device is constructed.
    pub fn is_lost(&self) -> bool {
        match &self.inner {
            DeviceImpl::Cpu(_) => false,
            DeviceImpl::Sim(d) => d.is_lost(),
        }
    }

    /// Charge `s` simulated seconds to the device clock (used by the retry
    /// layer to account backoff in simulated time; no-op on native devices).
    pub fn advance_sim_clock(&self, s: f64) {
        if let DeviceImpl::Sim(d) = &self.inner {
            d.advance_clock(s);
        }
    }

    /// Clear the active fault plan (including one picked up from
    /// `ALPAKA_SIM_FAULTS`); no-op on native devices. Determinism suites
    /// use this so an ambient fault seed cannot disturb fault-free runs.
    pub fn clear_faults(&self) {
        if let DeviceImpl::Sim(d) = &self.inner {
            d.set_faults(None);
        }
    }

    /// Revive a lost device: models a device reset / re-enumeration after a
    /// quarantine cooldown (the pool's Quarantined → Recovered edge).
    /// Memory, simulated clock and fault ordinals are preserved; no-op on
    /// native devices.
    pub fn revive(&self) {
        if let DeviceImpl::Sim(d) = &self.inner {
            d.revive();
        }
    }

    /// Arm device-level recovery: the health layer declares this
    /// (quarantined) device recovered, allowing [`crate::Queue::reset`] to
    /// clear the sticky lost flag. No-op on native devices.
    pub fn mark_recovered(&self) {
        if let DeviceImpl::Sim(d) = &self.inner {
            d.mark_recovered();
        }
    }

    /// Allocate a zeroed f64 buffer resident on this device.
    pub fn alloc_f64(&self, layout: BufLayout) -> BufferF {
        match &self.inner {
            DeviceImpl::Cpu(d) => BufferF::Host(d.alloc_f64(layout)),
            DeviceImpl::Sim(d) => BufferF::Sim(d.alloc_f64(layout)),
        }
    }

    /// Allocate a zeroed i64 buffer resident on this device.
    pub fn alloc_i64(&self, layout: BufLayout) -> BufferI {
        match &self.inner {
            DeviceImpl::Cpu(d) => BufferI::Host(d.alloc_i64(layout)),
            DeviceImpl::Sim(d) => BufferI::Sim(d.alloc_i64(layout)),
        }
    }

    /// Fault-aware f64 allocation: on simulated devices this consumes one
    /// allocation ordinal against the fault plan and can fail with an
    /// injected OOM (`Error::Device`) or `Error::DeviceLost`; on native
    /// devices it always succeeds.
    pub fn try_alloc_f64(&self, layout: BufLayout) -> Result<BufferF> {
        match &self.inner {
            DeviceImpl::Cpu(d) => Ok(BufferF::Host(d.alloc_f64(layout))),
            DeviceImpl::Sim(d) => Ok(BufferF::Sim(d.try_alloc_f64(layout)?)),
        }
    }

    /// Fault-aware i64 allocation; see [`Device::try_alloc_f64`].
    pub fn try_alloc_i64(&self, layout: BufLayout) -> Result<BufferI> {
        match &self.inner {
            DeviceImpl::Cpu(d) => Ok(BufferI::Host(d.alloc_i64(layout))),
            DeviceImpl::Sim(d) => Ok(BufferI::Sim(d.try_alloc_i64(layout)?)),
        }
    }

    /// A sensible 1-D work division for a problem of `n` elements on this
    /// accelerator, following the Table 2 shapes: accelerators with
    /// collapsed block-thread levels get one thread and many elements, the
    /// others get full blocks.
    pub fn suggest_workdiv_1d(&self, n: usize) -> WorkDiv {
        let caps = self.caps();
        let n = n.max(1);
        if caps.requires_single_thread_blocks {
            // Enough blocks to feed every worker a few times over.
            let target_blocks = (caps.concurrent_blocks * 8).max(1);
            let v = div_ceil(n, target_blocks).clamp(1, 4096);
            WorkDiv::d1(div_ceil(n, v), 1, v)
        } else if caps.warp_width > 1 {
            // GPU-style: wide blocks, one element per thread.
            let b = 128.min(caps.max_threads_per_block);
            WorkDiv::d1(div_ceil(n, b), b, 1)
        } else {
            // Thread-parallel CPU accelerators: modest blocks, several
            // elements per thread.
            let b = 8.min(caps.max_threads_per_block).max(1);
            let v = div_ceil(n, b * 64).clamp(1, 1024);
            WorkDiv::d1(div_ceil(n, b * v), b, v)
        }
    }

    /// Synchronous kernel execution (convenience; queues below for the
    /// full stream semantics).
    pub fn launch<K: Kernel + Clone + Send + 'static>(
        &self,
        kernel: &K,
        wd: &WorkDiv,
        args: &crate::queue::Args,
    ) -> Result<()> {
        self.launch_report(kernel, wd, args).map(drop)
    }

    /// Like [`Device::launch`], but returns the full simulator report on
    /// simulated devices (`None` on native CPU devices, which have no
    /// simulator). The resilience layer uses this to surface retry and
    /// fail-over provenance on the winning attempt's report.
    pub fn launch_report<K: Kernel + Clone + Send + 'static>(
        &self,
        kernel: &K,
        wd: &WorkDiv,
        args: &crate::queue::Args,
    ) -> Result<Option<alpaka_sim::SimReport>> {
        match &self.inner {
            DeviceImpl::Cpu(d) => d.launch(kernel, wd, &args.to_cpu()?).map(|()| None),
            DeviceImpl::Sim(d) => {
                let args = args.to_sim()?;
                run_sim_traced(d, self.id, None, kernel, wd, &args, ExecMode::Full).map(Some)
            }
        }
    }

    /// Bytes held by this device's live buffers (simulated devices only; 0
    /// for native ones, whose buffers are plain host memory).
    pub fn allocated_bytes(&self) -> usize {
        match &self.inner {
            DeviceImpl::Cpu(_) => 0,
            DeviceImpl::Sim(d) => d.allocated_bytes(),
        }
    }

    /// Simulated-clock accessor (0 for native devices).
    pub fn sim_clock_s(&self) -> f64 {
        match &self.inner {
            DeviceImpl::Cpu(_) => 0.0,
            DeviceImpl::Sim(d) => d.clock_s(),
        }
    }
}

impl core::fmt::Debug for Device {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Device({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_switch_constructs_all() {
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        kinds.push(AccKind::sim_e5_2630v3());
        for kind in kinds {
            let dev = Device::new(kind.clone());
            assert!(!dev.caps().name.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn suggested_workdivs_cover_problem_and_validate() {
        for kind in [
            AccKind::CpuSerial,
            AccKind::CpuBlocks,
            AccKind::CpuThreads,
            AccKind::sim_k20(),
            AccKind::sim_e5_2630v3(),
        ] {
            let dev = Device::with_workers(kind.clone(), 4);
            for n in [1usize, 7, 1000, 1 << 16] {
                let wd = dev.suggest_workdiv_1d(n);
                wd.validate(&dev.caps()).unwrap_or_else(|e| {
                    panic!("{kind:?} n={n}: {e}");
                });
                assert!(
                    wd.global_elem_count() >= n,
                    "{kind:?} n={n}: {wd:?} does not cover"
                );
            }
        }
    }

    #[test]
    fn sim_devices_report_simulated() {
        assert!(Device::new(AccKind::sim_k20()).is_simulated());
        assert!(!Device::new(AccKind::CpuSerial).is_simulated());
    }
}
