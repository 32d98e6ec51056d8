//! # alpaka (facade)
//!
//! Uniform runtime over every back-end of the Alpaka reproduction. Running
//! the same single-source kernel on a different accelerator is literally a
//! one-line change:
//!
//! ```
//! use alpaka::{AccKind, Args, Device};
//! use alpaka_core::prelude::*;
//!
//! #[derive(Clone)]
//! struct Twice;
//! impl Kernel for Twice {
//!     fn run<O: KernelOps>(&self, o: &mut O) {
//!         let b = o.buf_f(0);
//!         let n = o.param_i(0);
//!         let i = o.global_thread_idx(0);
//!         let c = o.lt_i(i, n);
//!         o.if_(c, |o| {
//!             let v = o.ld_gf(b, i);
//!             let two = o.lit_f(2.0);
//!             let r = o.mul_f(v, two);
//!             o.st_gf(b, i, r);
//!         });
//!     }
//! }
//!
//! // The one line to change per platform:
//! let dev = Device::new(AccKind::CpuSerial); // or AccKind::sim_k20(), ...
//!
//! let buf = dev.alloc_f64(BufLayout::d1(8));
//! buf.upload(&[1.0; 8]).unwrap();
//! let wd = dev.suggest_workdiv_1d(8);
//! dev.launch(&Twice, &wd, &Args::new().buf_f(&buf).scalar_i(8)).unwrap();
//! assert_eq!(buf.download(), vec![2.0; 8]);
//! ```

pub mod buffer;
pub mod device;
pub mod pool;
pub mod queue;
pub mod registry;
pub mod resilient;

pub use alpaka_core::buffer::BufLayout;
pub use alpaka_core::error::{Error, FaultInfo, Result};
pub use alpaka_core::kernel::Kernel;
pub use alpaka_core::metrics;
pub use alpaka_core::obs::Obs;
pub use alpaka_core::ops::{KernelOps, KernelOpsExt};
pub use alpaka_core::queue::{HostEvent, QueueBehavior};
pub use alpaka_core::trace;
pub use alpaka_core::trace::{TraceEvent, TraceKind};
pub use alpaka_core::workdiv::WorkDiv;
pub use alpaka_sim::{Engine, FaultPlan, KernelProfile, SimReport};
pub use alpaka_trace::{
    chrome_trace, resilience_report, roofline_csv, text_report, validate_json, ChromeOpts, Tracer,
};
pub use buffer::{copy_f64, copy_i64, BufferF, BufferI};
pub use device::{AccKind, Device};
pub use pool::{DevicePool, Health, MigrationRecord, PoolOutcome, PoolPolicy, ShardRecord};
pub use queue::{assert_portable, time_launch, Args, LaunchMode, Queue, TimedRun};
pub use resilient::{
    launch_resilient, FallbackChain, LaunchOutcome, LaunchSpec, RetryPolicy, WorkDivSpec,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Axpy;
    impl Kernel for Axpy {
        fn name(&self) -> &str {
            "axpy"
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

    fn all_kinds() -> Vec<AccKind> {
        let mut kinds = AccKind::native_cpu_all();
        kinds.push(AccKind::sim_k20());
        kinds.push(AccKind::sim_e5_2630v3());
        kinds
    }

    #[test]
    fn axpy_is_portable_across_all_backends() {
        let n = 777usize;
        assert_portable(&all_kinds(), |dev| {
            let x = dev.alloc_f64(BufLayout::d1(n));
            let y = dev.alloc_f64(BufLayout::d1(n));
            x.upload(&(0..n).map(|i| i as f64).collect::<Vec<_>>())
                .unwrap();
            y.upload(&vec![1.0; n]).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new()
                .buf_f(&x)
                .buf_f(&y)
                .scalar_f(2.5)
                .scalar_i(n as i64);
            (Axpy, wd, args, vec![y])
        });
    }

    #[test]
    fn queues_work_uniformly() {
        let n = 64usize;
        for kind in [AccKind::CpuBlocks, AccKind::sim_k20()] {
            let dev = Device::with_workers(kind.clone(), 2);
            let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
            let x = dev.alloc_f64(BufLayout::d1(n));
            let y = dev.alloc_f64(BufLayout::d1(n));
            x.upload(&vec![1.0; n]).unwrap();
            y.upload(&vec![0.0; n]).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new()
                .buf_f(&x)
                .buf_f(&y)
                .scalar_f(1.0)
                .scalar_i(n as i64);
            // Two dependent launches: y += x twice.
            q.enqueue_kernel(&Axpy, &wd, &args).unwrap();
            q.enqueue_kernel(&Axpy, &wd, &args).unwrap();
            let ev = HostEvent::new();
            q.enqueue_event(&ev).unwrap();
            q.wait().unwrap();
            assert!(ev.is_done());
            assert_eq!(y.download(), vec![2.0; n], "{kind:?}");
        }
    }

    #[test]
    fn time_launch_reports_simulated_or_wall() {
        let n = 4096usize;
        for (kind, want_sim) in [(AccKind::CpuBlocks, false), (AccKind::sim_k20(), true)] {
            let dev = Device::with_workers(kind, 2);
            let x = dev.alloc_f64(BufLayout::d1(n));
            let y = dev.alloc_f64(BufLayout::d1(n));
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new()
                .buf_f(&x)
                .buf_f(&y)
                .scalar_f(1.0)
                .scalar_i(n as i64);
            let run = time_launch(&dev, &Axpy, &wd, &args, LaunchMode::Exact).unwrap();
            assert_eq!(run.simulated, want_sim);
            assert!(run.time_s > 0.0);
            assert_eq!(run.report.is_some(), want_sim);
        }
    }

    #[test]
    fn mixing_backends_in_one_process() {
        // The paper: "running multiple of the same or different back-end
        // instances simultaneously".
        let n = 128usize;
        let cpu = Device::new(AccKind::CpuBlocks);
        let gpu = Device::new(AccKind::sim_k20());
        let hx = cpu.alloc_f64(BufLayout::d1(n));
        hx.upload(&vec![3.0; n]).unwrap();
        let dx = gpu.alloc_f64(BufLayout::d1(n));
        copy_f64(&dx, &hx).unwrap();
        let dy = gpu.alloc_f64(BufLayout::d1(n));
        let wd = gpu.suggest_workdiv_1d(n);
        gpu.launch(
            &Axpy,
            &wd,
            &Args::new()
                .buf_f(&dx)
                .buf_f(&dy)
                .scalar_f(2.0)
                .scalar_i(n as i64),
        )
        .unwrap();
        let hy = cpu.alloc_f64(BufLayout::d1(n));
        copy_f64(&hy, &dy).unwrap();
        // Also run on the CPU device and compare.
        let hy2 = cpu.alloc_f64(BufLayout::d1(n));
        let wd2 = cpu.suggest_workdiv_1d(n);
        cpu.launch(
            &Axpy,
            &wd2,
            &Args::new()
                .buf_f(&hx)
                .buf_f(&hy2)
                .scalar_f(2.0)
                .scalar_i(n as i64),
        )
        .unwrap();
        assert_eq!(hy.download(), hy2.download());
        assert_eq!(hy.download(), vec![6.0; n]);
    }

    #[test]
    fn binding_wrong_residency_is_an_error() {
        let cpu = Device::new(AccKind::CpuSerial);
        let gpu = Device::new(AccKind::sim_k20());
        let host_buf = cpu.alloc_f64(BufLayout::d1(8));
        let wd = gpu.suggest_workdiv_1d(8);
        let err = gpu
            .launch(
                &Axpy,
                &wd,
                &Args::new()
                    .buf_f(&host_buf)
                    .buf_f(&host_buf)
                    .scalar_f(1.0)
                    .scalar_i(8),
            )
            .unwrap_err();
        assert!(matches!(err, Error::BadArg(_)), "{err}");
    }
}
