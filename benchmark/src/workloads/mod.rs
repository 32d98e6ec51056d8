//! The six workloads. Each is a fixed list of phases (one repetition runs
//! them in order); a phase is a fixed list of operations (launch, copy).
//! Shapes are constants: `--seed` changes input data and orderings only, so
//! the work per repetition is the same for every seed.

use alpaka::WorkDiv;
use alpaka_kir::Program;
use alpaka_sim::DeviceSpec;

use crate::harness::{Harness, Recorder};
use crate::metrics::MetricSet;

mod cpu_native;
pub mod dgemm_peak;
mod hase_ase;
mod queue_steps;
mod short_blocks;
mod workdiv_sweep;

/// A distinct specialised program a workload launches, for the front-end
/// probes (`lower`, cold and warm zero-block launch).
pub struct ProgramUnderTest {
    pub spec: DeviceSpec,
    pub prog: Program,
    pub wd: WorkDiv,
    /// Number of f64 and i64 buffer slots the kernel binds.
    pub bufs: (usize, usize),
}

pub trait Workload {
    /// Phase names, in repetition order.
    fn phases(&self) -> Vec<&'static str>;

    /// Run every operation of one phase.
    fn run_phase(&mut self, phase: usize, h: &mut Harness);

    /// Check the outputs of the repetition that just ran against the host
    /// references. Runs outside the timed phases.
    fn check(&mut self, h: &mut Harness);

    /// Work units of one repetition for `work_mops` on workloads that do
    /// not run on the simulator; `None` means "simulated warp-instructions".
    fn native_work(&self) -> Option<f64> {
        None
    }

    fn programs(&self) -> Vec<ProgramUnderTest> {
        Vec::new()
    }

    /// Layer probes this workload owns (traced run only). Operations go
    /// through `h` so a failing probe counts as a failed operation.
    fn probes(&mut self, _seed: u64, _h: &mut Harness, _m: &mut MetricSet) {}

    /// Workload-specific metrics derived from one repetition's record.
    fn derived(&self, _rec: &Recorder, _m: &mut MetricSet) {}
}

/// Build a workload: generate inputs from `seed`, compute host references,
/// allocate and upload. `toy` shrinks every shape for `--smoke`; `staged`
/// selects the traced pipeline.
pub fn build(name: &str, seed: u64, toy: bool, staged: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dgemm_peak" => Box::new(dgemm_peak::DgemmPeak::new(seed, toy, staged)),
        "short_blocks" => Box::new(short_blocks::ShortBlocks::new(seed, toy, staged)),
        "hase_ase" => Box::new(hase_ase::HaseAse::new(seed, toy, staged)),
        "workdiv_sweep" => Box::new(workdiv_sweep::WorkdivSweep::new(seed, toy, staged)),
        "queue_steps" => Box::new(queue_steps::QueueSteps::new(seed, toy)),
        "cpu_native" => Box::new(cpu_native::CpuNative::new(seed, toy)),
        _ => return None,
    })
}

/// Median wall time of `f` over `reps` calls, in seconds.
pub(crate) fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::util::median(&samples)
}
