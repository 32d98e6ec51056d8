//! Queue (stream) vocabulary and host-side events.
//!
//! A stream is the in-order work queue of a device (Section 3.4.5):
//! no enqueued operation begins before all previously enqueued operations
//! completed. Queues are *blocking* (the host thread executes/waits inline)
//! or *non-blocking* (a worker drains the queue asynchronously). Concrete
//! queue types live in the back-end crates; this module provides the shared
//! behaviour enum and the host event primitive they all use.

use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Whether enqueue operations block the host until completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueBehavior {
    /// `StreamCpuSync` analogue: the host thread performs the operation.
    Blocking,
    /// `StreamCpuAsync` analogue: operations run on a queue worker; the
    /// host resumes immediately.
    NonBlocking,
}

#[derive(Default)]
struct EventState {
    done: bool,
    generation: u64,
}

/// A host-visible completion event. Enqueue an event into a queue to learn
/// when all previously enqueued work finished; `wait` blocks until the most
/// recent `signal`.
#[derive(Clone)]
pub struct HostEvent {
    inner: Arc<(Mutex<EventState>, Condvar)>,
}

impl Default for HostEvent {
    fn default() -> Self {
        Self::new()
    }
}

impl HostEvent {
    pub fn new() -> Self {
        HostEvent {
            inner: Arc::new((Mutex::new(EventState::default()), Condvar::new())),
        }
    }

    /// Mark the event complete, waking all waiters.
    pub fn signal(&self) {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        st.done = true;
        st.generation += 1;
        cv.notify_all();
    }

    /// Re-arm the event so it can be enqueued again.
    pub fn reset(&self) {
        let (lock, _) = &*self.inner;
        lock.lock().unwrap().done = false;
    }

    /// True once signaled (and not reset since).
    pub fn is_done(&self) -> bool {
        self.inner.0.lock().unwrap().done
    }

    /// Block the calling thread until the event is signaled.
    pub fn wait(&self) {
        let (lock, cv) = &*self.inner;
        let mut st = lock.lock().unwrap();
        while !st.done {
            st = cv.wait(st).unwrap();
        }
    }

    /// Block until the event is signaled, for at most `timeout`; true when
    /// it was. A signal wakes the waiter at once.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let (lock, cv) = &*self.inner;
        let st = lock.lock().unwrap();
        let (st, _) = cv.wait_timeout_while(st, timeout, |st| !st.done).unwrap();
        st.done
    }

    /// Number of times the event has been signaled (test/diagnostic aid).
    pub fn generation(&self) -> u64 {
        self.inner.0.lock().unwrap().generation
    }
}

impl core::fmt::Debug for HostEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HostEvent(done={})", self.is_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn signal_unblocks_waiter() {
        let ev = HostEvent::new();
        let ev2 = ev.clone();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            ev2.signal();
        });
        ev.wait();
        assert!(ev.is_done());
        h.join().unwrap();
    }

    #[test]
    fn reset_rearms() {
        let ev = HostEvent::new();
        ev.signal();
        assert!(ev.is_done());
        ev.reset();
        assert!(!ev.is_done());
        assert_eq!(ev.generation(), 1);
        ev.signal();
        assert_eq!(ev.generation(), 2);
    }

    #[test]
    fn wait_timeout_sees_a_signal_before_and_during_the_wait_and_times_out() {
        let ev = HostEvent::new();
        assert!(!ev.wait_timeout(Duration::from_millis(5)));
        ev.signal();
        assert!(ev.wait_timeout(Duration::ZERO));
        // A waiter with a minute to spare is woken by the signal, not by
        // the clock, whether it got to the condvar first or not.
        ev.reset();
        let (ev2, (tx, rx)) = (ev.clone(), mpsc::channel());
        let h = thread::spawn(move || {
            tx.send(()).unwrap();
            let t0 = Instant::now();
            (ev2.wait_timeout(Duration::from_secs(60)), t0.elapsed())
        });
        rx.recv().unwrap();
        ev.signal();
        let (signaled, waited) = h.join().unwrap();
        assert!(signaled && waited < Duration::from_secs(30), "{waited:?}");
    }

    #[test]
    fn wait_returns_immediately_when_done() {
        let ev = HostEvent::new();
        ev.signal();
        ev.wait(); // must not block
    }
}
