//! Block-level thread synchronization strategies.
//!
//! Each CPU accelerator picks how `sync_block_threads` is realized:
//!
//! * [`NoopSync`] — block-thread level collapsed to one thread (serial and
//!   block-pool accelerators): the barrier is trivially satisfied.
//! * [`BarrierSync`] — real OS threads per block thread meet at a
//!   generation barrier (C++11-threads / OpenMP-threads analogues): the
//!   last arrival advances the generation, and the others `yield_now` until
//!   it moves, with no mutex and no sleep.
//! * [`FiberSync`] — the boost-fiber analogue: block threads are OS threads
//!   but *exactly one runs at a time*; the barrier is a deterministic
//!   round-robin token handoff. This keeps kernels with producer/consumer
//!   shared-memory patterns correct on a single core and makes execution
//!   order reproducible.
//!
//! A barrier that can never complete (a sibling panicked, or finished its
//! kernel short of it) unwinds its waiters with an `Abandoned` payload.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicUsize};

use parking_lot::{Condvar, Mutex};

/// Strategy object handed to every kernel thread of a block.
pub trait BlockSync: Sync {
    /// Barrier across the block's threads; `thread_id` is the caller's
    /// linear index within the block.
    fn sync(&self, thread_id: usize);
}

/// Barrier for single-thread blocks: nothing to wait for.
pub struct NoopSync;

impl BlockSync for NoopSync {
    #[inline]
    fn sync(&self, _thread_id: usize) {}
}

/// Panic payload of a thread released from a barrier that can never
/// complete; the accelerator turns it into the launch error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Abandoned {
    /// A sibling stopped early; its own error is the launch error.
    Poisoned,
    /// `arrived` threads reached the barrier, the rest finished without it.
    Diverged { arrived: usize },
}

impl Abandoned {
    fn unwind(self) -> ! {
        // No panic hook: the launch error is reported, not each waiter.
        std::panic::resume_unwind(Box::new(self))
    }
}

/// One leaver in `BarrierSync::count`; arrivals count below it.
const LEFT: u64 = 1 << 32;
/// `BarrierSync::broken` of a poisoned barrier; any other non-zero value is
/// the arrival count of a diverged one.
const POISONED: usize = usize::MAX;

/// Generation barrier for truly parallel block threads. Each arrival's
/// `AcqRel` add to `count` joins the release sequence the last arrival
/// acquires; its `Release` bump of `generation` pairs with the waiters'
/// `Acquire` loads, so what any thread wrote before `wait` is seen after it.
pub struct BarrierSync {
    n: u64,
    /// Arrivals at this generation plus `LEFT` per thread that finished its
    /// kernel: one word, so a single RMW sees both.
    count: AtomicU64,
    /// Advanced by the last arrival; waiters yield until it moves.
    generation: AtomicUsize,
    /// 0 while the barrier can still complete; see `POISONED`.
    broken: AtomicUsize,
}

impl BarrierSync {
    pub fn new(n: usize) -> Self {
        let n = n.max(1) as u64;
        assert!(n < LEFT, "barrier of {n} threads");
        let (count, generation, broken) = Default::default();
        BarrierSync {
            n,
            count,
            generation,
            broken,
        }
    }

    /// Block until all `n` threads have called `wait`; returns `true` for
    /// exactly one of them per generation, the last to arrive. Unwinds with
    /// `Abandoned` if the barrier can never complete.
    pub fn wait(&self) -> bool {
        // Cannot move before this arrival counts, so it is this wait's.
        let gen = self.generation.load(Acquire);
        if self.arrive(self.count.fetch_add(1, AcqRel) + 1) {
            // Everyone is here, so nobody has left: the word is exactly n.
            self.count.store(0, Relaxed);
            self.generation.store(gen.wrapping_add(1), Release);
            return true;
        }
        // Yield at once: spinning 64 x `spin_loop` first made the 64-thread
        // tiled DGEMM launch of `cpu_native` 2.2x slower on 2 vCPUs.
        while self.generation.load(Acquire) == gen {
            match self.broken.load(Acquire) {
                0 => std::thread::yield_now(),
                POISONED => Abandoned::Poisoned.unwind(),
                arrived => Abandoned::Diverged { arrived }.unwind(),
            }
        }
        false
    }

    /// The caller finished its kernel body: it arrives no more until `reset`.
    pub(crate) fn leave(&self) {
        self.arrive(self.count.fetch_add(LEFT, AcqRel) + LEFT);
    }

    /// Whether `count` (just updated by the caller) completes the barrier.
    /// If everyone else left, those waiting are never released: diverged.
    fn arrive(&self, count: u64) -> bool {
        let arrived = count % LEFT;
        if arrived > 0 && arrived < self.n && arrived + count / LEFT == self.n {
            self.break_with(arrived as usize);
        }
        arrived == self.n
    }

    /// A member stopped early: unless already broken, release every waiter.
    pub(crate) fn poison(&self) {
        self.break_with(POISONED);
    }

    /// Forget the leavers between blocks, once every thread has left.
    pub(crate) fn reset(&self) {
        self.count.store(0, Relaxed);
    }

    /// The first verdict stands.
    fn break_with(&self, verdict: usize) {
        let _ = self.broken.compare_exchange(0, verdict, Release, Relaxed);
    }
}

impl BlockSync for BarrierSync {
    #[inline]
    fn sync(&self, _thread_id: usize) {
        self.wait();
    }
}

struct FiberState {
    /// Which fiber may run right now.
    turn: usize,
    /// Number of barriers each fiber has passed.
    arrived: Vec<u64>,
    /// Fibers whose kernel body has completed.
    finished: Vec<bool>,
}

/// Cooperative token-passing scheduler: `n` fibers, one runnable at a time.
///
/// Protocol: a fiber may execute only while `turn` equals its id. On
/// `sync`, it hands the token to the next fiber (cyclically) that is behind
/// it in barrier count; the *last* fiber to arrive keeps the token — at that
/// point every fiber has reached the barrier, so the semantics of a block
/// barrier hold. On completion of the kernel body the fiber passes the
/// token to the next unfinished fiber.
pub struct FiberSync {
    n: usize,
    state: Mutex<FiberState>,
    cv: Condvar,
}

impl FiberSync {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        FiberSync {
            n,
            state: Mutex::new(FiberState {
                turn: 0,
                arrived: vec![0; n],
                finished: vec![false; n],
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until this fiber holds the token. Must be called before the
    /// fiber starts executing kernel code.
    pub fn enter(&self, id: usize) {
        let mut st = self.state.lock();
        while st.turn != id {
            self.cv.wait(&mut st);
        }
    }

    /// Mark this fiber's kernel body finished and pass the token on.
    pub fn exit(&self, id: usize) {
        let mut st = self.state.lock();
        st.finished[id] = true;
        // Hand the token to the next unfinished fiber, if any.
        for k in 1..=self.n {
            let j = (id + k) % self.n;
            if !st.finished[j] {
                st.turn = j;
                self.cv.notify_all();
                return;
            }
        }
    }
}

impl BlockSync for FiberSync {
    fn sync(&self, id: usize) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.turn, id, "fiber ran without holding the token");
        st.arrived[id] += 1;
        let my_count = st.arrived[id];
        // Find the next fiber that still has to reach this barrier.
        let mut target = None;
        for k in 1..=self.n {
            let j = (id + k) % self.n;
            if !st.finished[j] && st.arrived[j] < my_count {
                target = Some(j);
                break;
            }
        }
        match target {
            None => {
                // Everyone has arrived: we keep the token and proceed.
            }
            Some(j) => {
                st.turn = j;
                self.cv.notify_all();
                while st.turn != id {
                    self.cv.wait(&mut st);
                }
            }
        }
        // A fiber that finished short of this barrier never reached it: the
        // token came back because nobody else can run, not because all met.
        if (0..self.n).any(|j| st.finished[j] && st.arrived[j] < my_count) {
            let arrived = st.arrived.iter().filter(|&&a| a >= my_count).count();
            drop(st);
            Abandoned::Diverged { arrived }.unwind();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn noop_sync_is_trivial() {
        NoopSync.sync(0);
    }

    #[test]
    fn barrier_sync_joins_threads() {
        let n = 8;
        let sync = Arc::new(BarrierSync::new(n));
        let phase = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for t in 0..n {
            let sync = Arc::clone(&sync);
            let phase = Arc::clone(&phase);
            handles.push(thread::spawn(move || {
                phase.fetch_add(1, Ordering::SeqCst);
                sync.sync(t);
                // After the barrier every increment must be visible.
                assert_eq!(phase.load(Ordering::SeqCst), n);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_generations_have_one_leader_and_publish_every_write() {
        const GENERATIONS: usize = 10_000;
        for n in [1, 2, 3, 64, 65] {
            let sync = BarrierSync::new(n);
            let bumped = AtomicUsize::new(0);
            let leaders: Vec<AtomicUsize> = (0..GENERATIONS).map(|_| AtomicUsize::new(0)).collect();
            thread::scope(|s| {
                for _ in 0..n {
                    s.spawn(|| {
                        // Two generations per round: the counter is bumped
                        // before the first and read between them, so the
                        // next round's bumps cannot overlap the read.
                        for round in 0..GENERATIONS / 2 {
                            bumped.fetch_add(1, Ordering::Relaxed);
                            if sync.wait() {
                                leaders[2 * round].fetch_add(1, Ordering::Relaxed);
                            }
                            assert_eq!(bumped.load(Ordering::Relaxed), n * (round + 1));
                            if sync.wait() {
                                leaders[2 * round + 1].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            for (g, l) in leaders.iter().enumerate() {
                assert_eq!(l.load(Ordering::Relaxed), 1, "n={n} generation {g}");
            }
        }
    }

    /// `waiting` of `n` threads wait while `others` acts for the rest;
    /// returns what each waiter unwound with.
    fn abandoned_waits(n: usize, waiting: usize, others: impl Fn(&BarrierSync)) -> Vec<Abandoned> {
        let sync = BarrierSync::new(n);
        thread::scope(|s| {
            let waiters: Vec<_> = (0..waiting)
                .map(|_| s.spawn(|| std::panic::catch_unwind(|| sync.wait())))
                .collect();
            others(&sync);
            waiters
                .into_iter()
                .map(|h| {
                    *h.join()
                        .unwrap()
                        .unwrap_err()
                        .downcast::<Abandoned>()
                        .unwrap()
                })
                .collect()
        })
    }

    #[test]
    fn a_barrier_that_cannot_complete_releases_its_waiters() {
        // Two of three wait, one finished its kernel without arriving.
        let diverged = Abandoned::Diverged { arrived: 2 };
        assert_eq!(abandoned_waits(3, 2, BarrierSync::leave), vec![diverged; 2]);
        // 63 of 64 wait: the last one to finish short releases them.
        let diverged = Abandoned::Diverged { arrived: 63 };
        assert_eq!(
            abandoned_waits(64, 63, BarrierSync::leave),
            vec![diverged; 63]
        );
        // One waits and two finish short.
        let diverged = Abandoned::Diverged { arrived: 1 };
        let leave_twice = |b: &BarrierSync| (0..2).for_each(|_| b.leave());
        assert_eq!(abandoned_waits(3, 1, leave_twice), vec![diverged]);
        // Three wait for a fourth that panicked.
        let poisoned = vec![Abandoned::Poisoned; 3];
        assert_eq!(abandoned_waits(4, 3, BarrierSync::poison), poisoned);
    }

    /// Run `n` fibers executing `body(id, &record)` under FiberSync.
    fn run_fibers(n: usize, body: impl Fn(usize, &FiberSync) + Send + Sync) {
        let sync = FiberSync::new(n);
        let body = &body;
        let sync = &sync;
        thread::scope(|scope| {
            for id in 0..n {
                scope.spawn(move || {
                    sync.enter(id);
                    body(id, sync);
                    sync.exit(id);
                });
            }
        });
    }

    #[test]
    fn fibers_run_one_at_a_time_and_barrier_orders_phases() {
        let n = 4;
        let log = Mutex::new(Vec::<(usize, usize)>::new());
        run_fibers(n, |id, sync| {
            log.lock().push((0, id));
            sync.sync(id);
            log.lock().push((1, id));
            sync.sync(id);
            log.lock().push((2, id));
        });
        let log = log.into_inner();
        assert_eq!(log.len(), 3 * n);
        // All phase-0 entries precede all phase-1 entries, etc.
        let phase_of_pos: Vec<usize> = log.iter().map(|(p, _)| *p).collect();
        let mut sorted = phase_of_pos.clone();
        sorted.sort_unstable();
        assert_eq!(phase_of_pos, sorted, "barrier phases interleaved: {log:?}");
        // Deterministic round-robin within each phase.
        let ids_phase0: Vec<usize> = log
            .iter()
            .filter(|(p, _)| *p == 0)
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(ids_phase0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fibers_without_syncs_run_sequentially() {
        let order = Mutex::new(Vec::new());
        run_fibers(5, |id, _| {
            order.lock().push(id);
        });
        assert_eq!(order.into_inner(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_fiber_degenerates_to_serial() {
        run_fibers(1, |id, sync| {
            assert_eq!(id, 0);
            sync.sync(id);
            sync.sync(id);
        });
    }

    #[test]
    fn fiber_shared_memory_producer_consumer() {
        // Thread 0 writes, barrier, all read: the pattern shared-memory
        // tiling kernels rely on — must work with one-at-a-time execution.
        let n = 3;
        let cell = Mutex::new(0usize);
        let seen = Mutex::new(Vec::new());
        run_fibers(n, |id, sync| {
            if id == 0 {
                *cell.lock() = 42;
            }
            sync.sync(id);
            seen.lock().push((*cell.lock(), id));
        });
        for (v, _) in seen.into_inner() {
            assert_eq!(v, 42);
        }
    }
}
