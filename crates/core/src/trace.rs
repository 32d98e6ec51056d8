//! Structured tracing: typed events emitted by queues, launches, copies,
//! faults and the resilience layer, recorded into the sink of the [`Obs`]
//! their device was built with.
//!
//! A sink is **off by default** and the fast path is allocation-free: every
//! emission site checks [`Obs::active`] (two relaxed loads) before building
//! an event. Tracing turns on explicitly ([`Obs::set_trace_enabled`],
//! `alpaka_trace::Tracer`, [`capture`]) or, for the process-default `Obs`,
//! via the `ALPAKA_SIM_TRACE=<path>` environment variable.
//!
//! Determinism: everything except the `wall_ns` field is derived from the
//! simulated clock and deterministic counters, so two runs of the same
//! program produce identical event streams (modulo wall time) regardless of
//! `ALPAKA_SIM_THREADS` or the interpreter engine. Exporters can mask
//! `wall_ns` to get byte-identical output.

use std::time::Instant;

use crate::obs::Obs;

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A queue operation (enqueue_kernel bookkeeping, event record, wait).
    QueueOp,
    /// One kernel launch (span over the simulated execution).
    Launch,
    /// One block's execution on one SM inside a launch.
    BlockExec,
    /// A host<->device or device<->device copy.
    Copy,
    /// A host event recorded on a queue.
    EventRecord,
    /// A blocking wait on a queue or event.
    Wait,
    /// An injected or surfaced fault.
    Fault,
    /// One attempt inside `launch_resilient` (includes retries).
    RetryAttempt,
    /// A fallback hop to the next device in a `FallbackChain`.
    FailOver,
    /// One sub-grid shard of a pooled launch (span over its execution).
    Shard,
    /// A shard migrating off a quarantined device onto a survivor.
    Migrate,
}

impl TraceKind {
    /// Stable lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::QueueOp => "queue_op",
            TraceKind::Launch => "launch",
            TraceKind::BlockExec => "block",
            TraceKind::Copy => "copy",
            TraceKind::EventRecord => "event",
            TraceKind::Wait => "wait",
            TraceKind::Fault => "fault",
            TraceKind::RetryAttempt => "retry_attempt",
            TraceKind::FailOver => "fail_over",
            TraceKind::Shard => "shard",
            TraceKind::Migrate => "migrate",
        }
    }
}

/// One structured trace record. Spans carry `sim_t0_s < sim_t1_s`; instant
/// events have `sim_t0_s == sim_t1_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub kind: TraceKind,
    /// Human label (kernel name, copy direction, fault kind, ...).
    pub label: String,
    /// Device ordinal (see [`Obs::next_device_id`]).
    pub device: u64,
    /// Queue ordinal, when the event belongs to a queue.
    pub queue: Option<u64>,
    /// Launch ordinal on the owning device.
    pub launch: Option<u64>,
    /// Linear block index, for [`TraceKind::BlockExec`].
    pub block: Option<u64>,
    /// SM the block ran on, for [`TraceKind::BlockExec`].
    pub sm: Option<u64>,
    /// Span start on the simulated clock (seconds).
    pub sim_t0_s: f64,
    /// Span end on the simulated clock (seconds).
    pub sim_t1_s: f64,
    /// Wall-clock nanoseconds from the recording [`Obs`]'s first emission to
    /// this one. The only nondeterministic field; exporters mask it for
    /// reproducible output.
    pub wall_ns: u64,
    /// Numeric attachments (flops, bytes, attempt number, ...).
    pub meta: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// New instant event at `sim_t_s` on `device`.
    pub fn new(kind: TraceKind, label: impl Into<String>, device: u64, sim_t_s: f64) -> Self {
        TraceEvent {
            kind,
            label: label.into(),
            device,
            queue: None,
            launch: None,
            block: None,
            sm: None,
            sim_t0_s: sim_t_s,
            sim_t1_s: sim_t_s,
            wall_ns: 0,
            meta: Vec::new(),
        }
    }

    /// Turn the event into a span ending at `sim_t1_s`.
    pub fn span_until(mut self, sim_t1_s: f64) -> Self {
        self.sim_t1_s = sim_t1_s;
        self
    }

    pub fn on_queue(mut self, queue: u64) -> Self {
        self.queue = Some(queue);
        self
    }

    pub fn on_launch(mut self, launch: u64) -> Self {
        self.launch = Some(launch);
        self
    }

    pub fn on_block(mut self, block: u64, sm: u64) -> Self {
        self.block = Some(block);
        self.sm = Some(sm);
        self
    }

    pub fn with(mut self, key: &'static str, value: f64) -> Self {
        self.meta.push((key, value));
        self
    }

    /// Span duration on the simulated clock.
    pub fn sim_dur_s(&self) -> f64 {
        self.sim_t1_s - self.sim_t0_s
    }

    /// Look up a meta value by key.
    pub fn meta_get(&self, key: &str) -> Option<f64> {
        self.meta.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// One block's execution record produced inside the simulator workers and
/// merged deterministically (sorted by linear block index) into `SimReport`.
/// `cycles` is the block's contribution to issue cycles, which the facade
/// turns into per-SM timeline spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// Linear block index within the grid.
    pub block: u64,
    /// SM the block was scheduled on.
    pub sm: u64,
    /// Issue cycles charged to this block (scalar + vectorized).
    pub cycles: u64,
}

/// The `ALPAKA_SIM_TRACE` output path, if set (empty value counts as unset).
/// Setting it switches the process-default [`Obs`]'s sink on.
pub fn env_trace_path() -> Option<String> {
    std::env::var("ALPAKA_SIM_TRACE")
        .ok()
        .filter(|s| !s.is_empty())
}

impl Obs {
    /// Record one event, stamped with its wall time: into the sink when
    /// tracing is on, into the flight recorder when metrics are on (either,
    /// both, or — the fast path — neither).
    pub fn emit(&self, mut ev: TraceEvent) {
        let (to_sink, to_flight) = (self.trace_enabled(), self.metrics_enabled());
        if !to_sink && !to_flight {
            return;
        }
        ev.wall_ns = self.0.epoch.get_or_init(Instant::now).elapsed().as_nanos() as u64;
        if to_flight {
            self.flight_record(&ev);
        }
        if to_sink {
            self.0.sink.lock().unwrap().push(ev);
        }
    }

    /// Record a batch of events in order (same routing as [`Obs::emit`]).
    pub fn emit_all(&self, evs: impl IntoIterator<Item = TraceEvent>) {
        evs.into_iter().for_each(|ev| self.emit(ev));
    }

    /// Take every recorded event out of the sink.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.0.sink.lock().unwrap())
    }
}

/// Run `f` with a fresh, traced [`Obs`] as the calling thread's
/// [`Obs::current`], and return its result plus every event recorded into
/// that `Obs`. Devices, queues and pools built inside the closure record
/// there, with ids from 0, so captured streams are byte-comparable across
/// runs; handles built elsewhere, and other threads' launches, are not seen.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    let obs = Obs::default();
    obs.set_trace_enabled(true);
    let out = obs.scope(f);
    (out, obs.drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let (_, events) = capture(|| ());
        assert!(events.is_empty());
        let obs = Obs::default();
        obs.emit(TraceEvent::new(TraceKind::Wait, "w", 0, 0.0));
        assert!(obs.drain().is_empty());
    }

    #[test]
    fn capture_collects_events_in_order() {
        let ((), events) = capture(|| {
            let obs = Obs::current();
            obs.emit(TraceEvent::new(TraceKind::Launch, "k1", 0, 0.0).span_until(1.0));
            obs.emit(
                TraceEvent::new(TraceKind::Copy, "h2d", 0, 1.0)
                    .on_queue(3)
                    .with("bytes", 64.0),
            );
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Launch);
        assert_eq!(events[0].sim_dur_s(), 1.0);
        assert_eq!(events[1].queue, Some(3));
        assert_eq!(events[1].meta_get("bytes"), Some(64.0));
    }
}
