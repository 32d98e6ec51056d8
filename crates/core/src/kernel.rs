//! Kernel trait and launch-argument vocabulary.
//!
//! A kernel is a plain struct implementing [`Kernel`] (the analogue of the
//! function object with `operator()` in Listing 1). Fields of the struct are
//! *host-side compile-time configuration* (tile sizes, unroll factors) — the
//! Rust equivalent of C++ template parameters: loops over such constants are
//! unrolled at trace time on IR back-ends and const-propagated on native
//! back-ends.
//!
//! Runtime inputs reach the kernel exclusively through bound buffers and
//! scalar parameters; there is no implicit state (Section 3.1).

use crate::ops::KernelOps;

/// A single-source device kernel.
///
/// `run` is invoked once per (virtual) thread with an accelerator object `o`
/// carrying that thread's identity; the algorithm is described from the
/// block down to the element level (Section 3.4.1).
pub trait Kernel: Send + Sync {
    /// Name used in traces, error messages and benchmark reports.
    fn name(&self) -> &str {
        "kernel"
    }

    /// The kernel body.
    ///
    /// Mark implementations `#[inline]`. The CPU back-ends compile one copy
    /// of the body per ISA (`alpaka_core::fma::IsaLevel`) by inlining it into
    /// a function built for that ISA; a body that is not inlined there is
    /// compiled for baseline `x86-64`, where the feature copies' `fma_f` is
    /// an out-of-line call and nothing vectorises.
    fn run<O: KernelOps>(&self, o: &mut O);
}

impl<K: Kernel + ?Sized> Kernel for &K {
    fn name(&self) -> &str {
        (**self).name()
    }
    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        (**self).run(o)
    }
}

/// Scalar parameters bound at launch; `param_f(slot)` / `param_i(slot)`
/// index into these in binding order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalarArgs {
    pub f: Vec<f64>,
    pub i: Vec<i64>,
}

impl ScalarArgs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind the next `f64` scalar slot.
    pub fn push_f(mut self, v: f64) -> Self {
        self.f.push(v);
        self
    }

    /// Bind the next `i64` scalar slot.
    pub fn push_i(mut self, v: i64) -> Self {
        self.i.push(v);
        self
    }

    pub fn get_f(&self, slot: usize) -> f64 {
        *self
            .f
            .get(slot)
            .unwrap_or_else(|| panic!("f64 scalar slot {slot} not bound (have {})", self.f.len()))
    }

    pub fn get_i(&self, slot: usize) -> i64 {
        *self
            .i
            .get(slot)
            .unwrap_or_else(|| panic!("i64 scalar slot {slot} not bound (have {})", self.i.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_args_bind_in_order() {
        let a = ScalarArgs::new()
            .push_f(1.5)
            .push_i(7)
            .push_f(2.5)
            .push_i(9);
        assert_eq!(a.get_f(0), 1.5);
        assert_eq!(a.get_f(1), 2.5);
        assert_eq!(a.get_i(0), 7);
        assert_eq!(a.get_i(1), 9);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_slot_panics() {
        ScalarArgs::new().get_f(0);
    }
}
