//! Queue (stream) vocabulary and host-side events.
//!
//! A stream is the in-order work queue of a device (Section 3.4.5):
//! no enqueued operation begins before all previously enqueued operations
//! completed. Queues are *blocking* (the host thread executes/waits inline)
//! or *non-blocking* (a worker drains the queue asynchronously). The one
//! queue type is the facade's `alpaka::Queue`, over every back-end; this
//! module provides the behaviour enum and the host event primitive it uses.

use std::sync::Arc;
use std::sync::{Condvar, Mutex};

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
    use std::thread;
    use std::time::Duration;

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
    fn wait_returns_immediately_when_done() {
        let ev = HostEvent::new();
        ev.signal();
        ev.wait(); // must not block
    }
}
