//! Uniform buffers over host and simulated device memory.

use alpaka_accsim::{SimBufferF, SimBufferI};
use alpaka_core::buffer::{BufLayout, HostBuf};
use alpaka_core::error::{Error, Result};

/// An f64 buffer resident on some device.
#[derive(Clone)]
pub enum BufferF {
    Host(HostBuf<f64>),
    Sim(SimBufferF),
}

/// An i64 buffer resident on some device.
#[derive(Clone)]
pub enum BufferI {
    Host(HostBuf<i64>),
    Sim(SimBufferI),
}

macro_rules! impl_buffer {
    ($buf:ident, $elem:ty, $host:ty, $sim:ty) => {
        impl $buf {
            pub fn layout(&self) -> BufLayout {
                match self {
                    $buf::Host(b) => b.layout(),
                    $buf::Sim(b) => b.layout(),
                }
            }

            /// Overwrite the logical contents from a dense row-major slice
            /// (charged as a host -> device transfer on simulated devices).
            pub fn upload(&self, dense: &[$elem]) -> Result<()> {
                match self {
                    $buf::Host(b) => b.write_dense(dense),
                    $buf::Sim(b) => b.write_dense(dense),
                }
            }

            /// Read the logical contents out as a dense row-major vector
            /// (not charged on the simulated clock; `copy_*` into a host
            /// buffer is).
            pub fn download(&self) -> Vec<$elem> {
                match self {
                    $buf::Host(b) => b.to_dense(),
                    $buf::Sim(b) => b.to_dense(),
                }
            }

            pub(crate) fn as_host(&self) -> Result<&$host> {
                match self {
                    $buf::Host(b) => Ok(b),
                    $buf::Sim(_) => Err(Error::BadArg(
                        "device-resident buffer bound to a native CPU launch".into(),
                    )),
                }
            }

            pub(crate) fn as_sim(&self) -> Result<&$sim> {
                match self {
                    $buf::Sim(b) => Ok(b),
                    $buf::Host(_) => Err(Error::BadArg(
                        "host buffer bound to a simulated-device launch without a copy \
                         (the memory model requires explicit deep copies)"
                            .into(),
                    )),
                }
            }
        }
    };
}

impl_buffer!(BufferF, f64, HostBuf<f64>, SimBufferF);
impl_buffer!(BufferI, i64, HostBuf<i64>, SimBufferI);

/// Deep copy between any two f64 buffers (host<->host, host<->device,
/// device<->device, charged as if staged through the host) — the uniform
/// `mem::view::copy`.
pub fn copy_f64(dst: &BufferF, src: &BufferF) -> Result<()> {
    if !dst.layout().same_region(&src.layout()) {
        return Err(Error::BadCopy(format!(
            "extent mismatch: src {:?} vs dst {:?}",
            src.layout().extents,
            dst.layout().extents
        )));
    }
    match (dst, src) {
        (BufferF::Host(d), BufferF::Host(s)) => alpaka_core::buffer::copy_region(d, s),
        (BufferF::Sim(d), BufferF::Host(s)) => d.write_from(s),
        (BufferF::Host(d), BufferF::Sim(s)) => s.read_into(d),
        (BufferF::Sim(d), BufferF::Sim(s)) => d.copy_from(s),
    }
}

/// Deep copy between any two i64 buffers.
pub fn copy_i64(dst: &BufferI, src: &BufferI) -> Result<()> {
    if !dst.layout().same_region(&src.layout()) {
        return Err(Error::BadCopy(format!(
            "extent mismatch: src {:?} vs dst {:?}",
            src.layout().extents,
            dst.layout().extents
        )));
    }
    match (dst, src) {
        (BufferI::Host(d), BufferI::Host(s)) => alpaka_core::buffer::copy_region(d, s),
        (BufferI::Sim(d), BufferI::Host(s)) => d.write_from(s),
        (BufferI::Host(d), BufferI::Sim(s)) => s.read_into(d),
        (BufferI::Sim(d), BufferI::Sim(s)) => d.copy_from(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{AccKind, Device};

    #[test]
    fn upload_download_roundtrip_everywhere() {
        let data: Vec<f64> = (0..60).map(|i| i as f64 * 0.25).collect();
        for kind in [AccKind::CpuSerial, AccKind::sim_k20()] {
            let dev = Device::new(kind.clone());
            let buf = dev.alloc_f64(BufLayout::d2(6, 10, 8));
            buf.upload(&data).unwrap();
            assert_eq!(buf.download(), data, "{kind:?}");
        }
    }

    #[test]
    fn copy_crosses_device_boundaries() {
        let host_dev = Device::new(AccKind::CpuSerial);
        let gpu = Device::new(AccKind::sim_k20());
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let h = host_dev.alloc_f64(BufLayout::d1(32));
        h.upload(&data).unwrap();
        let d = gpu.alloc_f64(BufLayout::d1(32));
        copy_f64(&d, &h).unwrap();
        let d2 = gpu.alloc_f64(BufLayout::d1(32));
        copy_f64(&d2, &d).unwrap(); // device -> device
        let h2 = host_dev.alloc_f64(BufLayout::d1(32));
        copy_f64(&h2, &d2).unwrap();
        assert_eq!(h2.download(), data);
        // The simulated clock paid for all those transfers.
        assert!(gpu.sim_clock_s() > 0.0);
    }

    /// Writing dense rows straight into device memory charges the simulated
    /// clock exactly what the host-staged path charges.
    #[test]
    fn unstaged_copies_charge_the_staged_bytes() {
        let (direct, staged) = (
            Device::new(AccKind::sim_k20()),
            Device::new(AccKind::sim_k20()),
        );
        for layout in [BufLayout::d1(1000), BufLayout::d2(37, 21, 8)] {
            let data: Vec<f64> = (0..layout.dense_len()).map(|i| i as f64).collect();
            let (d, s) = (direct.alloc_f64(layout), staged.alloc_f64(layout));
            d.upload(&data).unwrap();
            let host = HostBuf::<f64>::alloc(layout);
            host.write_dense(&data).unwrap();
            s.as_sim().unwrap().write_from(&host).unwrap();
            assert_eq!(
                direct.sim_clock_s().to_bits(),
                staged.sim_clock_s().to_bits()
            );

            let (d2, s2) = (direct.alloc_f64(layout), staged.alloc_f64(layout));
            copy_f64(&d2, &d).unwrap();
            let (from, to) = (s.as_sim().unwrap(), s2.as_sim().unwrap());
            let host = HostBuf::<f64>::alloc(layout);
            from.read_into(&host).unwrap();
            to.write_from(&host).unwrap();
            assert_eq!(
                direct.sim_clock_s().to_bits(),
                staged.sim_clock_s().to_bits()
            );
            assert_eq!(d2.download(), data);
            assert_eq!(s2.download(), data);
        }
    }

    /// `download` is free on the simulated clock; a copy into a host buffer
    /// is charged as a device -> host transfer. (An open model decision,
    /// pinned so it cannot change unnoticed.)
    #[test]
    fn download_is_free_and_a_copy_to_the_host_is_charged() {
        let gpu = Device::new(AccKind::sim_k20());
        let d = gpu.alloc_f64(BufLayout::d1(4096));
        d.download();
        assert_eq!(gpu.sim_clock_s(), 0.0);
        let h = Device::new(AccKind::CpuSerial).alloc_f64(BufLayout::d1(4096));
        copy_f64(&h, &d).unwrap();
        assert!(gpu.sim_clock_s() > 0.0);
    }

    #[test]
    fn mismatched_copy_rejected() {
        let dev = Device::new(AccKind::CpuSerial);
        let a = dev.alloc_f64(BufLayout::d1(8));
        let b = dev.alloc_f64(BufLayout::d1(9));
        assert!(copy_f64(&a, &b).is_err());
    }
}
