//! # alpaka-core
//!
//! Rust reproduction of the core of *Alpaka — An Abstraction Library for
//! Parallel Kernel Acceleration* (Zenker et al., 2016): an abstract,
//! hierarchical, redundant parallelism model for single-source kernels.
//!
//! The model (Section 3.2 of the paper):
//!
//! * **Grid** — an n-dimensional set of blocks sharing global memory.
//! * **Block** — an n-dimensional set of threads sharing fast shared memory;
//!   blocks are independent of each other.
//! * **Thread** — a sequence of instructions; threads of one block can
//!   synchronize with a barrier and own private register memory.
//! * **Element** — an n-dimensional set of data elements per thread,
//!   expressing vectorization-friendly inner loops.
//!
//! A back-end ("accelerator") maps these levels onto concrete hardware and
//! may collapse levels it cannot exploit. This crate defines the abstract
//! vocabulary — vectors and index mapping, work division (with the paper's
//! Table 2 predefined mappings), the single-source kernel DSL
//! ([`ops::KernelOps`]), buffers with explicit deep copies, and queue/event
//! primitives. The back-ends live in sibling crates (`alpaka-cpu`,
//! `alpaka-accsim`) and the uniform runtime in the `alpaka` facade crate.

pub mod acc;
pub mod buffer;
pub mod error;
pub mod fma;
pub mod kernel;
pub mod metrics;
pub mod obs;
pub mod ops;
pub mod pool;
pub mod queue;
pub mod trace;
pub mod vec;
pub mod workdiv;

pub use acc::{AccCaps, DeviceKind};
pub use buffer::{copy_region, BufLayout, Elem, HostBuf};
pub use error::{Error, Result};
pub use kernel::{Kernel, ScalarArgs};
pub use obs::Obs;
pub use ops::{KernelOps, KernelOpsExt};
pub use queue::{HostEvent, QueueBehavior};
pub use trace::{BlockSpan, TraceEvent, TraceKind};
pub use vec::{div_ceil, map_idx, Vec1, Vec2, Vec3, Vecn};
pub use workdiv::{predefined, PredefAcc, WorkDiv};

/// Convenience prelude for kernel authors and back-end implementors.
pub mod prelude {
    pub use crate::acc::{AccCaps, DeviceKind};
    pub use crate::buffer::{BufLayout, Elem, HostBuf};
    pub use crate::error::{Error, Result};
    pub use crate::kernel::{Kernel, ScalarArgs};
    pub use crate::ops::{KernelOps, KernelOpsExt};
    pub use crate::queue::{HostEvent, QueueBehavior};
    pub use crate::vec::{Vec1, Vec2, Vec3, Vecn};
    pub use crate::workdiv::{predefined, PredefAcc, WorkDiv};
}
