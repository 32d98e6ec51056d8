//! # alpaka-cpu
//!
//! Native CPU back-ends for the Alpaka reproduction: five accelerators that
//! map the abstract grid/block/thread/element hierarchy onto host hardware
//! by *direct execution* of the single-source kernel DSL (no IR, no
//! interpreter — the kernel monomorphizes to plain Rust loops).
//!
//! See [`acc::CpuAccKind`] for the strategy catalogue. Queues over these
//! devices are the facade's `alpaka::Queue`.

pub mod acc;
pub mod exec;
pub mod sync;

pub use acc::{CpuAccKind, CpuDevice};
pub use exec::{CpuArgs, CpuOps};
pub use sync::{BarrierSync, BlockSync, FiberSync, NoopSync};
