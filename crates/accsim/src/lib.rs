//! # alpaka-accsim
//!
//! The simulated-device accelerator back-end for the Alpaka reproduction —
//! the analogue of the paper's CUDA back-end. Kernel launches trace the
//! single-source DSL into `alpaka-kir`, optimize it ("compilation"), and
//! interpret it on a simulated SM/warp machine from `alpaka-sim` with a
//! modeled timeline (kernel time + host<->device transfer costs).

pub mod device;

pub use device::{SimBufferF, SimBufferI, SimDevice, SimLaunchArgs};

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::buffer::{BufLayout, HostBuf};
    use alpaka_core::kernel::Kernel;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};
    use alpaka_core::workdiv::WorkDiv;
    use alpaka_sim::{DeviceSpec, ExecMode};

    struct Scale;
    impl Kernel for Scale {
        fn name(&self) -> &str {
            "scale"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let i = o.global_thread_idx(0);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let v = o.ld_gf(b, i);
                let r = o.mul_f(v, a);
                o.st_gf(b, i, r);
            });
        }
    }

    #[test]
    fn full_offload_roundtrip() {
        // Host buffer -> device -> kernel -> back (Listing 4 + 5 flow).
        let dev = SimDevice::new(DeviceSpec::k20());
        let n = 500;
        let host = HostBuf::from_vec((0..n).map(|i| i as f64).collect());
        let dbuf = dev.alloc_f64(BufLayout::d1(n));
        dbuf.write_from(&host).unwrap();
        let args = SimLaunchArgs::new()
            .buf_f(&dbuf)
            .scalar_f(3.0)
            .scalar_i(n as i64);
        let wd = WorkDiv::d1(4, 128, 1);
        let report = dev.run(&Scale, &wd, &args, ExecMode::Full).unwrap();
        let after_launch = dev.clock_s();
        dbuf.read_into(&host).unwrap();
        for i in 0..n {
            assert_eq!(host.as_slice()[i], 3.0 * i as f64);
        }
        // Simulated time advanced: the upload, the launch, the download.
        assert!(report.time.total_s > 0.0);
        assert!(after_launch > report.time.total_s);
        assert!(dev.clock_s() > after_launch);
    }

    #[test]
    fn compile_once_launch_many() {
        let dev = SimDevice::new(DeviceSpec::k20());
        let n = 256;
        let wd = WorkDiv::d1(2, 128, 1);
        let dbuf = dev.alloc_f64(BufLayout::d1(n));
        let host = HostBuf::from_vec(vec![1.0; n]);
        dbuf.write_from(&host).unwrap();
        let args = SimLaunchArgs::new()
            .buf_f(&dbuf)
            .scalar_f(2.0)
            .scalar_i(n as i64);
        for _ in 0..3 {
            dev.run(&Scale, &wd, &args, ExecMode::Full).unwrap();
        }
        assert_eq!(dbuf.to_dense(), vec![8.0; n]);
        let memo = dev.memo_counters();
        assert_eq!((memo.hits, memo.misses), (2, 1));
    }

    #[test]
    fn buffers_are_device_checked() {
        let d1 = SimDevice::new(DeviceSpec::k20());
        let d2 = SimDevice::new(DeviceSpec::k20());
        let b2 = d2.alloc_f64(BufLayout::d1(4));
        let args = SimLaunchArgs::new().buf_f(&b2).scalar_f(1.0).scalar_i(4);
        let err = d1
            .run(&Scale, &WorkDiv::d1(1, 4, 1), &args, ExecMode::Full)
            .unwrap_err();
        assert!(matches!(err, alpaka_core::error::Error::BadArg(_)));
    }

    #[test]
    fn pitched_2d_copy_roundtrip() {
        let dev = SimDevice::new(DeviceSpec::e5_2630v3());
        let rows = 5;
        let cols = 5;
        let data: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 1.5).collect();
        let host = HostBuf::from_dense_2d(rows, cols, &data).unwrap();
        let dbuf = dev.alloc_f64(BufLayout::d2(rows, cols, 8));
        dbuf.write_from(&host).unwrap();
        let back = HostBuf::<f64>::alloc(BufLayout::d2_dense(rows, cols));
        dbuf.read_into(&back).unwrap();
        assert_eq!(back.to_dense(), data);
    }

    #[test]
    fn cpu_spec_rejects_multithread_blocks() {
        let dev = SimDevice::new(DeviceSpec::e5_2630v3());
        let dbuf = dev.alloc_f64(BufLayout::d1(16));
        let args = SimLaunchArgs::new().buf_f(&dbuf).scalar_f(1.0).scalar_i(16);
        let err = dev
            .run(&Scale, &WorkDiv::d1(4, 4, 1), &args, ExecMode::Full)
            .unwrap_err();
        assert!(matches!(err, alpaka_core::error::Error::InvalidWorkDiv(_)));
    }
}
