//! Deterministic metrics: counters, gauges and fixed-bucket latency
//! histograms with exact percentiles, plus a bounded per-device **flight
//! recorder** for post-mortems.
//!
//! Everything recorded here is derived from the simulated clock and
//! deterministic counters — never from wall time — so two runs of the same
//! workload produce byte-identical snapshots regardless of
//! `ALPAKA_SIM_THREADS`, the interpreter engine, or the device-pool size.
//! (The one documented exception: the process-wide lowering/compile cache
//! gauges, which depend on which engine ran; exporters and acceptance tests
//! mask those, exactly like `wall_ns` in trace exports.)
//!
//! The registry belongs to an [`Obs`] (the one a device was built with) and
//! is **off by default**; the fast path is allocation-free: every recording
//! site checks [`Obs::metrics_enabled`] (one relaxed atomic load) before
//! building a key. Metrics turn on explicitly
//! ([`Obs::set_metrics_enabled`], `alpaka_metrics::MetricsHub`, [`capture`])
//! or, for the process-default `Obs`, via the `ALPAKA_SIM_METRICS=<base>`
//! environment variable.
//!
//! Histograms keep two representations at once: fixed log-spaced bucket
//! counts (for Prometheus-style exposition) *and* the raw sample list,
//! bounded by [`SAMPLE_CAP`] with an explicit drop counter, so p50/p95/p99
//! are exact nearest-rank percentiles rather than bucket interpolations.
//!
//! The flight recorder retains the last [`FLIGHT_CAPACITY`] trace events
//! per device (fed by [`Obs::emit`] whenever metrics are enabled, even with the
//! trace sink off) and a bounded list of launch-failure notes; together with
//! a snapshot they form the post-mortem that `alpaka-metrics` renders when a
//! launch fails with a structured error.

use std::collections::BTreeMap;

use crate::obs::Obs;
use crate::trace::TraceEvent;

/// Label set of one metric instance: `(key, value)` pairs in binding order.
pub type LabelSet = Vec<(&'static str, String)>;

type MetricKey = (&'static str, LabelSet);

/// Latency bucket upper bounds in simulated seconds (1-2.5-5 per decade,
/// 100 ns .. 10 s; `+Inf` is implicit).
pub const LATENCY_BUCKETS_S: &[f64] = &[
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
    5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Rate bucket upper bounds (events per simulated second, decades).
pub const RATE_BUCKETS: &[f64] = &[
    1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
];

/// Small-count bucket upper bounds (attempts, shards, queue depths).
pub const COUNT_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Exact-percentile sample retention per histogram; beyond this, samples
/// still land in buckets/sum/count but percentiles stop absorbing them and
/// `dropped` says so (no silent truncation).
pub const SAMPLE_CAP: usize = 65536;

/// One fixed-bucket histogram with exact-percentile sample retention.
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` counts; the last is the `+Inf` bucket.
    counts: Vec<u64>,
    sum: f64,
    samples: Vec<f64>,
    dropped: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            samples: Vec::new(),
            dropped: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(v);
        } else {
            self.dropped += 1;
        }
    }
}

/// Immutable export form of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds (the `+Inf` bucket is `counts.last()`).
    pub bounds: Vec<f64>,
    /// Cumulative-free per-bucket counts, `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    pub sum: f64,
    pub count: u64,
    /// Exact nearest-rank percentiles over the retained samples.
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Samples not retained for percentiles (see [`SAMPLE_CAP`]).
    pub dropped: u64,
}

/// Everything in the registry, sorted by `(name, labels)` so iteration
/// order — and therefore every export — is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, LabelSet, u64)>,
    pub gauges: Vec<(&'static str, LabelSet, f64)>,
    pub histograms: Vec<(&'static str, LabelSet, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Look up a counter by name with no regard for labels (sums across
    /// label sets). Convenience for tests and the sim-top example.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
            .sum()
    }

    /// Look up one histogram by name + exact label match.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, ls, _)| {
                *n == name
                    && ls.len() == labels.len()
                    && ls
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (wk, wv))| k == wk && v == wv)
            })
            .map(|(_, _, h)| h)
    }
}

/// A full capture for post-mortems: the snapshot plus the flight-recorder
/// rings and failure notes accumulated during the captured closure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsCapture {
    pub snapshot: MetricsSnapshot,
    /// `(device id, ring contents oldest-first)` per device that emitted.
    pub flight: Vec<(u64, Vec<TraceEvent>)>,
    /// Structured launch-failure notes, in failure order.
    pub failures: Vec<String>,
}

#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histos: BTreeMap<MetricKey, Histogram>,
}

/// Retained failure notes; later failures only bump
/// `alpaka_failure_notes_dropped_total`.
const FAILURE_NOTE_CAP: usize = 64;

/// Trace events the flight recorder retains per device.
pub const FLIGHT_CAPACITY: usize = 64;

/// The `ALPAKA_SIM_METRICS` export base path, if set (empty counts as
/// unset). Setting it also switches the process-default [`Obs`]'s registry
/// on, mirroring `ALPAKA_SIM_TRACE`.
pub fn env_metrics_path() -> Option<String> {
    std::env::var("ALPAKA_SIM_METRICS")
        .ok()
        .filter(|s| !s.is_empty())
}

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
    (
        name,
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
    )
}

/// Exact nearest-rank percentile (`p` in [0, 100]) of a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Obs {
    /// Add `v` to a monotonic counter (no-op when disabled).
    pub fn counter_add(&self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        if !self.metrics_enabled() {
            return;
        }
        let mut reg = self.0.registry.lock().unwrap();
        *reg.counters.entry(key(name, labels)).or_insert(0) += v;
    }

    /// Set a gauge to `v` (no-op when disabled).
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        if !self.metrics_enabled() {
            return;
        }
        let mut reg = self.0.registry.lock().unwrap();
        reg.gauges.insert(key(name, labels), v);
    }

    /// Record one observation into a latency histogram
    /// ([`LATENCY_BUCKETS_S`]); no-op when disabled.
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        self.observe_in(name, labels, LATENCY_BUCKETS_S, v);
    }

    /// Record one observation into a histogram with explicit bucket bounds.
    /// The bounds of the *first* observation win for a given `(name, labels)`.
    pub fn observe_in(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [f64],
        v: f64,
    ) {
        if !self.metrics_enabled() {
            return;
        }
        let mut reg = self.0.registry.lock().unwrap();
        reg.histos
            .entry(key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Copy the registry out in deterministic `(name, labels)` order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.0.registry.lock().unwrap();
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|((n, ls), v)| (*n, ls.clone(), *v))
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|((n, ls), v)| (*n, ls.clone(), *v))
                .collect(),
            histograms: reg
                .histos
                .iter()
                .map(|((n, ls), h)| {
                    let mut sorted = h.samples.clone();
                    sorted.sort_by(f64::total_cmp);
                    (
                        *n,
                        ls.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.to_vec(),
                            counts: h.counts.clone(),
                            sum: h.sum,
                            count: h.counts.iter().sum(),
                            p50: percentile(&sorted, 50.0),
                            p95: percentile(&sorted, 95.0),
                            p99: percentile(&sorted, 99.0),
                            dropped: h.dropped,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Append one event to its device's ring, evicting the oldest beyond
    /// [`FLIGHT_CAPACITY`]. Called by [`Obs::emit`] whenever metrics are
    /// enabled.
    pub(crate) fn flight_record(&self, ev: &TraceEvent) {
        let mut rings = self.0.flight.lock().unwrap();
        let ring = rings.entry(ev.device).or_default();
        while ring.len() >= FLIGHT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(ev.clone());
    }

    /// The flight-recorder contents: `(device id, events oldest-first)`,
    /// sorted by device id.
    pub fn flight_snapshot(&self) -> Vec<(u64, Vec<TraceEvent>)> {
        self.0
            .flight
            .lock()
            .unwrap()
            .iter()
            .map(|(d, ring)| (*d, ring.iter().cloned().collect()))
            .collect()
    }

    /// Record a structured launch failure: bumps
    /// `alpaka_launch_failures_total{kind}` and retains `[kind] detail` for
    /// the post-mortem (bounded; overflow is counted, never silent).
    /// `detail` must be deterministic — simulated clock, kernel/device
    /// names, fault coordinates — so post-mortems are byte-comparable.
    pub fn note_failure(&self, kind: &'static str, detail: &str) {
        if !self.metrics_enabled() {
            return;
        }
        self.counter_add("alpaka_launch_failures_total", &[("kind", kind)], 1);
        let mut notes = self.0.failures.lock().unwrap();
        if notes.len() < FAILURE_NOTE_CAP {
            notes.push(format!("[{kind}] {detail}"));
        } else {
            drop(notes);
            self.counter_add("alpaka_failure_notes_dropped_total", &[], 1);
        }
    }

    /// Failure notes recorded so far, in order.
    pub fn failures(&self) -> Vec<String> {
        self.0.failures.lock().unwrap().clone()
    }

    /// The registry, the flight recorder and the failure notes as they
    /// stand (nothing is reset).
    pub fn metrics_capture(&self) -> MetricsCapture {
        MetricsCapture {
            snapshot: self.snapshot(),
            flight: self.flight_snapshot(),
            failures: self.failures(),
        }
    }
}

/// Run `f` with a fresh [`Obs`], metrics on, as the calling thread's
/// [`Obs::current`], and return its result plus everything recorded into
/// that `Obs`. Like `trace::capture`: handles built inside the closure record
/// there, with ids from 0, so reruns produce identical flight-ring keys.
/// Switch its trace sink on too with `Obs::current().set_trace_enabled(true)`
/// inside the closure if both streams are wanted.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, MetricsCapture) {
    let obs = Obs::default();
    obs.set_metrics_enabled(true);
    let out = obs.scope(f);
    (out, obs.metrics_capture())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceKind};

    #[test]
    fn disabled_registry_records_nothing() {
        let ((), cap) = capture(|| ());
        assert!(cap.snapshot.is_empty());
        let obs = Obs::default();
        obs.counter_add("x_total", &[], 1);
        obs.observe("y_seconds", &[], 0.5);
        obs.note_failure("test", "nope");
        assert!(obs.snapshot().is_empty());
        assert!(obs.failures().is_empty());
    }

    #[test]
    fn capture_isolates_and_restores() {
        let ((), a) = capture(|| {
            Obs::current().counter_add("launches_total", &[("kernel", "daxpy")], 2);
            Obs::current().gauge_set("g", &[], 1.5);
        });
        assert_eq!(a.snapshot.counter_total("launches_total"), 2);
        // A second capture starts from scratch.
        let ((), b) = capture(|| {
            Obs::current().counter_add("launches_total", &[("kernel", "daxpy")], 2);
            Obs::current().gauge_set("g", &[], 1.5);
        });
        assert_eq!(a.snapshot, b.snapshot);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let ((), cap) = capture(|| {
            for i in 1..=100 {
                Obs::current().observe("lat", &[], i as f64 * 1e-3);
            }
        });
        let h = cap.snapshot.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.p50, 0.050);
        assert_eq!(h.p95, 0.095);
        assert_eq!(h.p99, 0.099);
        assert_eq!(h.dropped, 0);
        // Buckets tie out with the count.
        assert_eq!(h.counts.iter().sum::<u64>(), 100);
        assert!((h.sum - 5.05).abs() < 1e-9);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let ((), cap) = capture(|| {
            Obs::current().counter_add("b_total", &[], 1);
            Obs::current().counter_add("a_total", &[("k", "z")], 1);
            Obs::current().counter_add("a_total", &[("k", "a")], 1);
        });
        let names: Vec<_> = cap
            .snapshot
            .counters
            .iter()
            .map(|(n, ls, _)| format!("{n}{ls:?}"))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn flight_ring_keeps_last_n_per_device() {
        let ((), cap) = capture(|| {
            let obs = Obs::current();
            for i in 0..FLIGHT_CAPACITY + 6 {
                obs.emit(TraceEvent::new(
                    TraceKind::Launch,
                    format!("k{i}"),
                    7,
                    i as f64,
                ));
            }
        });
        let (dev, ring) = &cap.flight[0];
        assert_eq!(*dev, 7);
        assert_eq!(ring.len(), FLIGHT_CAPACITY);
        assert_eq!(ring[0].label, "k6");
        let newest = format!("k{}", FLIGHT_CAPACITY + 5);
        assert_eq!(ring[FLIGHT_CAPACITY - 1].label, newest);
    }

    #[test]
    fn failure_notes_are_bounded_and_counted() {
        let ((), cap) = capture(|| {
            for i in 0..(FAILURE_NOTE_CAP + 3) {
                Obs::current().note_failure("kind", &format!("f{i}"));
            }
        });
        assert_eq!(cap.failures.len(), FAILURE_NOTE_CAP);
        assert_eq!(
            cap.snapshot
                .counter_total("alpaka_failure_notes_dropped_total"),
            3
        );
        assert_eq!(
            cap.snapshot.counter_total("alpaka_launch_failures_total"),
            (FAILURE_NOTE_CAP + 3) as u64
        );
    }
}
