//! Block-parallel drivers shared by the back-ends.
//!
//! Lives in `alpaka-core` so both the native CPU accelerators
//! (`alpaka-cpu`) and the SIMT simulator (`alpaka-sim`) can drive a grid
//! over a team of scoped threads, spawned per launch (the caller is worker
//! 0, so a team of one spawns nothing). Two scheduling modes are offered:
//!
//! * [`run_indexed`] — dynamic scheduling: workers pull block indices from a
//!   shared atomic counter (like OpenMP `schedule(dynamic)`), so uneven
//!   block costs balance automatically. Used by the CPU back-ends, where
//!   block→worker assignment does not affect results.
//! * [`run_team`] — static team launch: `f(w)` runs exactly once per worker
//!   index `w in 0..team`, concurrently. Used by the simulator, whose
//!   deterministic stats merging requires a *fixed* block→worker partition
//!   (each worker owns a known slice of SMs).
//!
//! Panics inside tasks are caught and re-surfaced to the caller as their
//! message. `alpaka-core` has no external dependencies, so everything here
//! is built on `std`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Run `f(i)` for every `i in 0..count` on a team of at most `workers`
/// threads (at least 1), distributing indices dynamically, and block until
/// all calls completed. The first panic (if any) is returned as its message.
pub fn run_indexed<F>(workers: usize, count: usize, f: F) -> Result<(), String>
where
    F: Fn(usize) + Send + Sync,
{
    if count == 0 {
        return Ok(());
    }
    let next = AtomicUsize::new(0);
    run_scoped_team(workers.clamp(1, count), |_w| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        f(i);
    })
}

/// Run `f(w)` exactly once for each worker index `w in 0..team`,
/// concurrently, and block until all returned. Unlike [`run_indexed`], the
/// worker↔index mapping is fixed, which lets callers pre-partition work
/// statically (the simulator partitions SMs this way so its stats merge
/// deterministically). `team` is clamped to at least 1.
pub fn run_team<F>(team: usize, f: F) -> Result<(), String>
where
    F: Fn(usize) + Send + Sync,
{
    run_scoped_team(team.max(1), f)
}

/// Shared scoped-team driver: spawns `team - 1` scoped threads plus the
/// caller, each running `body(w)` with its distinct worker index `w`, and
/// joins them. Returns the first panic message, if any.
fn run_scoped_team<B>(team: usize, body: B) -> Result<(), String>
where
    B: Fn(usize) + Send + Sync,
{
    let panic = Mutex::new(None);
    let member = |w: usize| {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(w))) {
            let msg = panic_message(p);
            panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(msg);
        }
    };
    // The caller participates, so 1-worker teams spawn nothing and small
    // grids avoid spawn latency.
    thread::scope(|scope| {
        for w in 1..team {
            scope.spawn(move || member(w));
        }
        member(0);
    });
    match panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

/// Render a caught panic payload as a human-readable message.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_indices_run_exactly_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        run_indexed(4, 1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_grid_is_ok() {
        run_indexed(4, 0, |_| panic!("must not run")).unwrap();
    }

    #[test]
    fn single_worker_team_uses_caller_thread() {
        let caller = thread::current().id();
        let same = AtomicU64::new(0);
        run_indexed(1, 16, |_| {
            if thread::current().id() == caller {
                same.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        assert_eq!(same.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_is_reported_not_propagated() {
        let err = run_indexed(4, 100, |i| {
            if i == 37 {
                panic!("boom at {i}");
            }
        })
        .unwrap_err();
        assert!(err.contains("boom at 37"));
    }

    #[test]
    fn workers_clamped_to_one() {
        let caller = thread::current().id();
        run_indexed(0, 3, |_| assert_eq!(thread::current().id(), caller)).unwrap();
    }

    #[test]
    fn run_team_calls_each_worker_once() {
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        run_team(8, |w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_team_of_one_runs_on_caller() {
        let caller = thread::current().id();
        run_team(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(thread::current().id(), caller);
        })
        .unwrap();
    }

    #[test]
    fn run_team_surfaces_panics() {
        let err = run_team(4, |w| {
            if w == 2 {
                panic!("worker {w} failed");
            }
        })
        .unwrap_err();
        assert!(err.contains("worker 2 failed"));
    }
}
