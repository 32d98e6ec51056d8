//! [`Obs`]: one observability context — the trace sink, the metrics
//! registry, the flight recorder, the failure notes, both switches and the
//! device/queue id counters — owned by the handles that record into it.
//!
//! A device keeps the `Obs` it was built with (clones share it); its queues,
//! pools and launches record into that one. A handle takes
//! [`Obs::current`] when it is built: the `Obs` a [`Obs::scope`] on the
//! building thread installed (what `trace::capture` and `metrics::capture`
//! do), or else the process default, made on first use with its switches
//! read from `ALPAKA_SIM_TRACE` / `ALPAKA_SIM_METRICS`. Nothing else is
//! shared: a capture on one thread never sees a launch on another thread's
//! device, and its ids start at 0 because its counters are new.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::Registry;
use crate::trace::TraceEvent;

/// A shared handle to one observability context (cheap to clone). A new
/// one records nothing until a switch is turned on.
#[derive(Clone, Debug, Default)]
pub struct Obs(pub(crate) Arc<Inner>);

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) trace_on: AtomicBool,
    pub(crate) metrics_on: AtomicBool,
    pub(crate) sink: Mutex<Vec<TraceEvent>>,
    pub(crate) registry: Mutex<Registry>,
    pub(crate) flight: Mutex<BTreeMap<u64, VecDeque<TraceEvent>>>,
    pub(crate) failures: Mutex<Vec<String>>,
    device_ids: AtomicU64,
    queue_ids: AtomicU64,
    /// Origin of the events' `wall_ns`: the first emission.
    pub(crate) epoch: OnceLock<Instant>,
}

static PROCESS_DEFAULT: OnceLock<Obs> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Option<Obs>> = const { RefCell::new(None) };
}

impl Obs {
    /// The `Obs` a handle built on this thread now takes: the innermost
    /// [`Obs::scope`]'s, or the process default.
    pub fn current() -> Obs {
        SCOPED.with(|s| s.borrow().clone()).unwrap_or_else(|| {
            PROCESS_DEFAULT
                .get_or_init(|| {
                    let obs = Obs::default();
                    obs.set_trace_enabled(crate::trace::env_trace_path().is_some());
                    obs.set_metrics_enabled(crate::metrics::env_metrics_path().is_some());
                    obs
                })
                .clone()
        })
    }

    /// Run `f` with `self` as this thread's [`Obs::current`]: devices,
    /// queues and pools built inside record here. The previous one is back
    /// when `f` returns or unwinds.
    pub fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Obs>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(SCOPED.with(|s| s.borrow_mut().replace(self.clone())));
        f()
    }

    /// Allocate a device id, unique within this `Obs` (the facade calls
    /// this per `Device`, a pool for its own lane).
    pub fn next_device_id(&self) -> u64 {
        self.0.device_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a queue id, unique within this `Obs`.
    pub fn next_queue_id(&self) -> u64 {
        self.0.queue_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Is the trace sink on? One relaxed load; emission sites check this
    /// (or [`Obs::active`]) before building any event, so the disabled path
    /// stays allocation-free.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.0.trace_on.load(Ordering::Relaxed)
    }

    pub fn set_trace_enabled(&self, on: bool) {
        self.0.trace_on.store(on, Ordering::Relaxed);
    }

    /// Is the metrics registry on? One relaxed load, like
    /// [`Obs::trace_enabled`].
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.0.metrics_on.load(Ordering::Relaxed)
    }

    pub fn set_metrics_enabled(&self, on: bool) {
        self.0.metrics_on.store(on, Ordering::Relaxed);
    }

    /// Should emission sites build events at all? True when the trace sink
    /// or the flight recorder (which metrics feed) wants them.
    #[inline]
    pub fn active(&self) -> bool {
        self.trace_enabled() || self.metrics_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_per_obs() {
        let obs = Obs::default();
        assert_eq!((obs.next_device_id(), obs.next_device_id()), (0, 1));
        assert_eq!((obs.next_queue_id(), obs.next_queue_id()), (0, 1));
        assert_eq!(Obs::default().next_device_id(), 0);
    }

    #[test]
    fn scope_installs_and_restores_the_current_obs() {
        let (outer, inner) = (Obs::default(), Obs::default());
        let same = |a: &Obs, b: &Obs| Arc::ptr_eq(&a.0, &b.0);
        outer.scope(|| {
            assert!(same(&Obs::current(), &outer));
            let unwound = std::panic::catch_unwind(|| {
                inner.scope(|| {
                    assert!(same(&Obs::current(), &inner));
                    panic!("unwinds through the scope");
                })
            });
            assert!(unwound.is_err());
            assert!(same(&Obs::current(), &outer));
        });
        assert!(!same(&Obs::current(), &outer));
    }
}
