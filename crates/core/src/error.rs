//! Error types shared by all back-ends.

use core::fmt;

/// Structured payload of a kernel-level failure: the message plus, when the
/// back-end can pinpoint it, the block/thread coordinates (canonical
/// `[z, y, x]`) of the faulting thread and whether the failure is transient
/// (a retry of the same launch may succeed, e.g. an injected ECC event).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultInfo {
    pub msg: String,
    /// Block index of the faulting block, when known.
    pub block: Option<[i64; 3]>,
    /// Thread index (within the block) of the faulting thread, when known.
    pub thread: Option<[i64; 3]>,
    /// True when retrying the same launch may succeed (transient hardware
    /// events); false for deterministic kernel bugs like out-of-bounds.
    pub transient: bool,
}

impl FaultInfo {
    pub fn new(msg: impl Into<String>) -> Self {
        FaultInfo {
            msg: msg.into(),
            ..Default::default()
        }
    }
}

impl From<String> for FaultInfo {
    fn from(msg: String) -> Self {
        FaultInfo::new(msg)
    }
}

impl From<&str> for FaultInfo {
    fn from(msg: &str) -> Self {
        FaultInfo::new(msg)
    }
}

impl fmt::Display for FaultInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)?;
        if let Some(b) = self.block {
            write!(f, " [block {b:?}")?;
            if let Some(t) = self.thread {
                write!(f, ", thread {t:?}")?;
            }
            write!(f, "]")?;
        } else if let Some(t) = self.thread {
            write!(f, " [thread {t:?}]")?;
        }
        Ok(())
    }
}

/// Errors produced by the abstraction layer and its back-ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A work division violates a capability of the target accelerator
    /// (e.g. too many threads per block, or a back-end that requires a
    /// block-thread extent of one).
    InvalidWorkDiv(String),
    /// A kernel argument slot was accessed with the wrong type or was not
    /// bound at launch.
    BadArg(String),
    /// Buffer extents/pitch do not permit the requested operation.
    BadBuffer(String),
    /// A copy between incompatible devices or mismatching extents.
    BadCopy(String),
    /// The kernel itself misbehaved (out-of-bounds access detected by a
    /// checking back-end, shared-memory misuse, an injected transient
    /// ECC event, ...), with coordinates when the back-end knows them.
    KernelFault(FaultInfo),
    /// A kernel exceeded the device's watchdog cycle budget.
    Timeout(FaultInfo),
    /// The device was lost: every subsequent operation on it fails until a
    /// new device is constructed (the CUDA sticky-error analogue).
    DeviceLost(String),
    /// Device-level failure (simulated device exhausted memory, queue
    /// worker died, ...).
    Device(String),
    /// Feature not supported by this back-end.
    Unsupported(String),
}

impl Error {
    /// True when retrying the *same* launch on the *same* device may
    /// succeed: injected transient faults and watchdog timeouts. The
    /// retry layer (`alpaka::resilient`) re-runs these under its
    /// `RetryPolicy`; deterministic kernel bugs are not transient.
    pub fn is_transient(&self) -> bool {
        match self {
            Error::KernelFault(f) => f.transient,
            Error::Timeout(_) => true,
            _ => false,
        }
    }

    /// True when the error permanently poisons its device: no operation on
    /// that device can succeed anymore and work must fail over to another
    /// accelerator.
    pub fn is_sticky(&self) -> bool {
        matches!(self, Error::DeviceLost(_))
    }

    /// The same error with `suffix` appended to its message (context such as
    /// the queue or pool shard it came from). The variant, and a
    /// [`FaultInfo`]'s coordinates and `transient` flag, are kept.
    pub fn with_suffix(self, suffix: &str) -> Error {
        match self {
            Error::InvalidWorkDiv(m) => Error::InvalidWorkDiv(m + suffix),
            Error::BadArg(m) => Error::BadArg(m + suffix),
            Error::BadBuffer(m) => Error::BadBuffer(m + suffix),
            Error::BadCopy(m) => Error::BadCopy(m + suffix),
            Error::KernelFault(f) => Error::KernelFault(FaultInfo {
                msg: f.msg + suffix,
                ..f
            }),
            Error::Timeout(f) => Error::Timeout(FaultInfo {
                msg: f.msg + suffix,
                ..f
            }),
            Error::DeviceLost(m) => Error::DeviceLost(m + suffix),
            Error::Device(m) => Error::Device(m + suffix),
            Error::Unsupported(m) => Error::Unsupported(m + suffix),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidWorkDiv(m) => write!(f, "invalid work division: {m}"),
            Error::BadArg(m) => write!(f, "bad kernel argument: {m}"),
            Error::BadBuffer(m) => write!(f, "bad buffer: {m}"),
            Error::BadCopy(m) => write!(f, "bad copy: {m}"),
            Error::KernelFault(m) => write!(f, "kernel fault: {m}"),
            Error::Timeout(m) => write!(f, "kernel timeout: {m}"),
            Error::DeviceLost(m) => write!(f, "device lost: {m}"),
            Error::Device(m) => write!(f, "device error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidWorkDiv("threads 2048 > max 1024".into());
        assert!(e.to_string().contains("work division"));
        assert!(e.to_string().contains("2048"));
    }

    #[test]
    fn fault_info_displays_coordinates() {
        let e = Error::KernelFault(FaultInfo {
            msg: "st.global.f64: index 99 out of bounds (len 8)".into(),
            block: Some([0, 0, 3]),
            thread: Some([0, 0, 17]),
            transient: false,
        });
        let s = e.to_string();
        assert!(s.contains("out of bounds"), "{s}");
        assert!(s.contains("block [0, 0, 3]"), "{s}");
        assert!(s.contains("thread [0, 0, 17]"), "{s}");
    }

    #[test]
    fn classification() {
        let ecc = Error::KernelFault(FaultInfo {
            msg: "ecc".into(),
            transient: true,
            ..Default::default()
        });
        assert!(ecc.is_transient() && !ecc.is_sticky());
        let oob = Error::KernelFault("oob".into());
        assert!(!oob.is_transient() && !oob.is_sticky());
        let to = Error::Timeout("watchdog".into());
        assert!(to.is_transient() && !to.is_sticky());
        let lost = Error::DeviceLost("gone".into());
        assert!(!lost.is_transient() && lost.is_sticky());
        assert!(!Error::Device("oom".into()).is_transient());
    }

    #[test]
    fn with_suffix_keeps_the_variant_and_the_fault_coordinates() {
        let info = FaultInfo {
            msg: "m".into(),
            block: Some([0, 1, 2]),
            thread: Some([3, 4, 5]),
            transient: true,
        };
        let all = [
            Error::InvalidWorkDiv("m".into()),
            Error::BadArg("m".into()),
            Error::BadBuffer("m".into()),
            Error::BadCopy("m".into()),
            Error::KernelFault(info.clone()),
            Error::Timeout(info.clone()),
            Error::DeviceLost("m".into()),
            Error::Device("m".into()),
            Error::Unsupported("m".into()),
        ];
        for e in all {
            let got = e.clone().with_suffix(" (ctx)");
            assert_eq!(
                core::mem::discriminant(&got),
                core::mem::discriminant(&e),
                "{got:?}"
            );
            let want_info = FaultInfo {
                msg: "m (ctx)".into(),
                ..info.clone()
            };
            match got {
                Error::KernelFault(f) | Error::Timeout(f) => assert_eq!(f, want_info),
                Error::InvalidWorkDiv(m)
                | Error::BadArg(m)
                | Error::BadBuffer(m)
                | Error::BadCopy(m)
                | Error::DeviceLost(m)
                | Error::Device(m)
                | Error::Unsupported(m) => assert_eq!(m, "m (ctx)"),
            }
        }
    }
}
