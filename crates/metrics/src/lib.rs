//! # alpaka-metrics
//!
//! Exporters for the deterministic metrics registry
//! (`alpaka_core::metrics`) and its flight recorder:
//!
//! * [`prometheus_text`] — Prometheus-style text exposition (cumulative
//!   `_bucket{le=...}` histograms plus exact `_p50/_p95/_p99` percentile
//!   lines),
//! * [`json_snapshot`] — a hand-formatted JSON snapshot (the workspace
//!   carries no JSON dependency; strings go through `alpaka_trace::esc` and
//!   the output always passes `alpaka_trace::validate_json`),
//! * [`postmortem`] — the flight-recorder dump rendered when a launch
//!   failed: failure notes, the last N trace events per device, and the
//!   full metrics snapshot, and
//! * [`MetricsHub`] — the `ALPAKA_SIM_METRICS=<base>` file writer tying
//!   them together (the metrics twin of `alpaka_trace::Tracer`).
//!
//! Determinism rule: with wall-clock masking on (the default for file
//! export) the rendered bytes depend only on the registry contents, which
//! the instrumentation derives from the simulated clock — identical across
//! `ALPAKA_SIM_THREADS`, engines and pool sizes. The one engine-dependent
//! family, the process-cumulative `alpaka_sim_cache_*` gauges, can be
//! removed with [`strip_engine_dependent`] before byte comparisons, exactly
//! like `wall_ns` masking in traces.

use std::fmt::Write as _;

use alpaka_core::metrics::{HistogramSnapshot, LabelSet, MetricsCapture, MetricsSnapshot};
use alpaka_core::Obs;
use alpaka_trace::esc;

/// Rendering options for [`json_snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct JsonOpts {
    /// Replace the wall-clock export timestamp with 0 so the output is
    /// bit-identical across runs.
    pub mask_wall: bool,
}

impl Default for JsonOpts {
    fn default() -> Self {
        JsonOpts { mask_wall: true }
    }
}

/// JSON/exposition-safe rendering of an f64 (no NaN/Inf literals).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{k="v",...}` with escaped values; empty string for no labels.
fn fmt_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"");
        esc(v, &mut out);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

fn type_line(out: &mut String, last: &mut &'static str, name: &'static str, ty: &str) {
    if *last != name {
        let _ = writeln!(out, "# TYPE {name} {ty}");
        *last = name;
    }
}

/// Render a snapshot in the Prometheus text exposition format. Families
/// appear in sorted `(name, labels)` order: counters, then gauges, then
/// histograms — each histogram as cumulative `_bucket{le=...}` lines plus
/// `_sum`, `_count`, exact `_p50/_p95/_p99` percentile gauges and a
/// `_dropped` sample-overflow counter.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last: &'static str = "";
    for (name, labels, v) in &snap.counters {
        type_line(&mut out, &mut last, name, "counter");
        let _ = writeln!(out, "{name}{} {v}", fmt_labels(labels, None));
    }
    for (name, labels, v) in &snap.gauges {
        type_line(&mut out, &mut last, name, "gauge");
        let _ = writeln!(out, "{name}{} {}", fmt_labels(labels, None), num(*v));
    }
    for (name, labels, h) in &snap.histograms {
        type_line(&mut out, &mut last, name, "histogram");
        let mut cum = 0u64;
        for (i, c) in h.counts.iter().enumerate() {
            cum += c;
            let le = match h.bounds.get(i) {
                Some(b) => num(*b),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(
                out,
                "{name}_bucket{} {cum}",
                fmt_labels(labels, Some(("le", &le)))
            );
        }
        let plain = fmt_labels(labels, None);
        let _ = writeln!(out, "{name}_sum{plain} {}", num(h.sum));
        let _ = writeln!(out, "{name}_count{plain} {}", h.count);
        let _ = writeln!(out, "{name}_p50{plain} {}", num(h.p50));
        let _ = writeln!(out, "{name}_p95{plain} {}", num(h.p95));
        let _ = writeln!(out, "{name}_p99{plain} {}", num(h.p99));
        let _ = writeln!(out, "{name}_dropped{plain} {}", h.dropped);
    }
    out
}

fn json_key(name: &str, labels: &LabelSet, out: &mut String) {
    out.push('"');
    esc(name, out);
    if !labels.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            esc(k, out);
            out.push_str("=\\\"");
            // Double-escaped: the label value sits inside a JSON string
            // that itself renders quote-delimited label syntax.
            let mut inner = String::new();
            esc(v, &mut inner);
            esc(&inner, out);
            out.push_str("\\\"");
        }
        out.push('}');
    }
    out.push('"');
}

fn json_histogram(h: &HistogramSnapshot, out: &mut String) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"dropped\":{},\"buckets\":[",
        h.count,
        num(h.sum),
        num(h.p50),
        num(h.p95),
        num(h.p99),
        h.dropped
    );
    for (i, c) in h.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let le = match h.bounds.get(i) {
            Some(b) => num(*b),
            None => "\"+Inf\"".to_string(),
        };
        let _ = write!(out, "[{le},{c}]");
    }
    out.push_str("]}");
}

/// Render a snapshot as one JSON document (one metric per line, so
/// line-oriented filters like [`strip_engine_dependent`] work on it).
/// Always valid per `alpaka_trace::validate_json`.
pub fn json_snapshot(snap: &MetricsSnapshot, opts: &JsonOpts) -> String {
    let wall = if opts.mask_wall {
        0
    } else {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{\"schema_version\":1,\"wall_unix_s\":{wall},");
    out.push_str("\"counters\":{");
    for (i, (name, labels, v)) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        json_key(name, labels, &mut out);
        let _ = write!(out, ":{v}");
    }
    out.push_str("\n},\n\"gauges\":{");
    for (i, (name, labels, v)) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        json_key(name, labels, &mut out);
        let _ = write!(out, ":{}", num(*v));
    }
    out.push_str("\n},\n\"histograms\":{");
    for (i, (name, labels, h)) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        json_key(name, labels, &mut out);
        out.push(':');
        json_histogram(h, &mut out);
    }
    out.push_str("\n}\n}\n");
    out
}

/// Drop the engine-dependent metric lines from a rendered export
/// (Prometheus text or JSON snapshot — both are line-oriented):
/// `alpaka_sim_cache_*` mirrors the process-wide program cache, whose
/// values depend on which engine ran and what else the process executed,
/// and `alpaka_launch_fallback_total` records serial fallbacks, which fire
/// only when more than one interpreter worker was asked for. Every other
/// family is byte-identical across threads, engines and pool sizes.
/// The trailing-comma fixup keeps filtered JSON valid.
pub fn strip_engine_dependent(rendered: &str) -> String {
    let kept: Vec<&str> = rendered
        .lines()
        .filter(|l| !l.contains("alpaka_sim_cache_") && !l.contains("alpaka_launch_fallback_total"))
        .collect();
    let mut out = String::new();
    for (i, line) in kept.iter().enumerate() {
        // A line ending in ',' whose successor closes the object would
        // leave a dangling comma after filtering.
        let next = kept.get(i + 1).copied().unwrap_or("");
        if line.ends_with(',') && (next.starts_with('}') || next.starts_with("# ")) {
            out.push_str(line.trim_end_matches(','));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Render the post-mortem of a failed run: failure notes, flight-recorder
/// ring contents per device (oldest first, via `alpaka_trace::event_line`,
/// so no wall clock), and the full metrics snapshot. Deterministic given
/// the capture.
pub fn postmortem(cap: &MetricsCapture) -> String {
    let mut out = String::from("=== alpaka post-mortem ===\n");
    let _ = writeln!(out, "{} launch failure(s):", cap.failures.len());
    for (i, f) in cap.failures.iter().enumerate() {
        let _ = writeln!(out, "  [{}] {f}", i + 1);
    }
    let _ = writeln!(
        out,
        "flight recorder ({} device(s), ring capacity {}):",
        cap.flight.len(),
        alpaka_core::metrics::FLIGHT_CAPACITY
    );
    for (dev, ring) in &cap.flight {
        let _ = writeln!(out, "  device {dev}: last {} event(s)", ring.len());
        for e in ring {
            let _ = writeln!(out, "    {}", alpaka_trace::event_line(e));
        }
    }
    out.push_str("metrics snapshot:\n");
    out.push_str(&prometheus_text(&cap.snapshot));
    out
}

/// File-writing front end driven by `ALPAKA_SIM_METRICS=<base>`: writes
/// `<base>.prom` (Prometheus text) and `<base>.json` (masked JSON
/// snapshot) on every flush, plus `<base>.postmortem.txt` whenever any
/// launch failed with a structured error since the last reset.
#[derive(Debug)]
pub struct MetricsHub {
    base: std::path::PathBuf,
    obs: Obs,
}

impl MetricsHub {
    /// A hub for the `ALPAKA_SIM_METRICS` base path; `None` when the
    /// variable is unset or empty (recording is then disabled too, unless
    /// something enabled it explicitly).
    pub fn from_env() -> Option<MetricsHub> {
        alpaka_core::metrics::env_metrics_path().map(MetricsHub::new)
    }

    /// A hub writing to `<base>.prom` / `.json` / `.postmortem.txt` what
    /// is recorded into [`Obs::current`], switching its registry on as a
    /// side effect.
    pub fn new(base: impl Into<std::path::PathBuf>) -> MetricsHub {
        let obs = Obs::current();
        obs.set_metrics_enabled(true);
        MetricsHub {
            base: base.into(),
            obs,
        }
    }

    pub fn base(&self) -> &std::path::Path {
        &self.base
    }

    /// Write the export files and return the paths written (the
    /// post-mortem only when failures were recorded).
    pub fn flush(&self) -> std::io::Result<Vec<std::path::PathBuf>> {
        let cap = self.obs.metrics_capture();
        let ext = |e: &str| {
            let mut p = self.base.clone().into_os_string();
            p.push(e);
            std::path::PathBuf::from(p)
        };
        let prom = ext(".prom");
        let json = ext(".json");
        std::fs::write(&prom, prometheus_text(&cap.snapshot))?;
        std::fs::write(&json, json_snapshot(&cap.snapshot, &JsonOpts::default()))?;
        let mut written = vec![prom, json];
        if !cap.failures.is_empty() {
            let pm = ext(".postmortem.txt");
            std::fs::write(&pm, postmortem(&cap))?;
            written.push(pm);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::metrics::{self, COUNT_BUCKETS};
    use alpaka_trace::validate_json;

    fn sample_capture() -> MetricsCapture {
        let ((), cap) = metrics::capture(|| {
            let obs = Obs::current();
            obs.counter_add("alpaka_launches_total", &[("kernel", "daxpy")], 3);
            obs.counter_add("alpaka_launches_total", &[("kernel", "dgemm")], 1);
            obs.gauge_set("alpaka_sim_cache_hits", &[("cache", "lowering")], 5.0);
            for v in [1e-4, 2e-4, 3e-4, 4e-4] {
                obs.observe("alpaka_launch_seconds", &[("kernel", "daxpy")], v);
            }
            obs.observe_in("alpaka_pool_shard_attempts", &[], COUNT_BUCKETS, 2.0);
            obs.note_failure("ecc", "daxpy on sim_k20: ecc event at block (1,0,0)");
            obs.emit(alpaka_core::trace::TraceEvent::new(
                alpaka_core::trace::TraceKind::Launch,
                "daxpy",
                0,
                1e-3,
            ));
        });
        cap
    }

    #[test]
    fn prometheus_renders_cumulative_buckets_and_percentiles() {
        let cap = sample_capture();
        let text = prometheus_text(&cap.snapshot);
        assert!(
            text.contains("# TYPE alpaka_launches_total counter"),
            "{text}"
        );
        assert!(
            text.contains("alpaka_launches_total{kernel=\"daxpy\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE alpaka_launch_seconds histogram"),
            "{text}"
        );
        assert!(text.contains("alpaka_launch_seconds_bucket{kernel=\"daxpy\",le=\"+Inf\"} 4"));
        assert!(text.contains("alpaka_launch_seconds_count{kernel=\"daxpy\"} 4"));
        // Nearest-rank on [1,2,3,4]e-4: p50 = 2e-4, p95 = p99 = 4e-4.
        assert!(
            text.contains("alpaka_launch_seconds_p50{kernel=\"daxpy\"} 0.0002"),
            "{text}"
        );
        assert!(
            text.contains("alpaka_launch_seconds_p99{kernel=\"daxpy\"} 0.0004"),
            "{text}"
        );
        // Cumulative counts never decrease.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.contains("_bucket{kernel=\"daxpy\""))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
    }

    #[test]
    fn json_snapshot_is_valid_and_masked() {
        let cap = sample_capture();
        let json = json_snapshot(&cap.snapshot, &JsonOpts::default());
        validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"wall_unix_s\":0"), "{json}");
        assert!(json.contains("\"schema_version\":1"));
        let unmasked = json_snapshot(&cap.snapshot, &JsonOpts { mask_wall: false });
        validate_json(&unmasked).unwrap();
    }

    #[test]
    fn json_snapshot_escapes_hostile_labels() {
        let ((), cap) = metrics::capture(|| {
            let hostile = "bad \"quote\" \\ and \n newline \u{1} ctrl \u{7f} del";
            Obs::current().counter_add("x_total", &[("k", hostile)], 1);
        });
        let json = json_snapshot(&cap.snapshot, &JsonOpts::default());
        validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let prom = prometheus_text(&cap.snapshot);
        // Prometheus label values escape quotes/backslashes too (shared esc).
        assert!(prom.contains("\\\"quote\\\""), "{prom}");
    }

    #[test]
    fn strip_engine_dependent_removes_cache_gauges_and_keeps_json_valid() {
        let cap = sample_capture();
        let text = prometheus_text(&cap.snapshot);
        assert!(text.contains("alpaka_sim_cache_hits"));
        let stripped = strip_engine_dependent(&text);
        assert!(!stripped.contains("alpaka_sim_cache_hits"), "{stripped}");
        assert!(stripped.contains("alpaka_launches_total"), "{stripped}");
        let json = json_snapshot(&cap.snapshot, &JsonOpts::default());
        let jstripped = strip_engine_dependent(&json);
        assert!(!jstripped.contains("alpaka_sim_cache_hits"));
        validate_json(&jstripped).unwrap_or_else(|e| panic!("{e}\n{jstripped}"));
    }

    #[test]
    fn postmortem_contains_notes_rings_and_snapshot() {
        let cap = sample_capture();
        let pm = postmortem(&cap);
        assert!(pm.starts_with("=== alpaka post-mortem ==="), "{pm}");
        assert!(pm.contains("1 launch failure(s):"), "{pm}");
        assert!(pm.contains("[ecc] daxpy on sim_k20"), "{pm}");
        assert!(pm.contains("device 0: last 1 event(s)"), "{pm}");
        assert!(
            pm.contains("alpaka_launch_failures_total{kind=\"ecc\"} 1"),
            "{pm}"
        );
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(pm, postmortem(&cap));
    }

    #[test]
    fn hub_writes_expected_files() {
        let dir = std::env::temp_dir().join(format!("alpaka_metrics_hub_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ((), _cap) = metrics::capture(|| {
            Obs::current().counter_add("x_total", &[], 1);
            let hub = MetricsHub::new(dir.join("m"));
            let written = hub.flush().unwrap();
            assert_eq!(written.len(), 2, "no postmortem without failures");
            Obs::current().note_failure("test", "boom");
            let written = hub.flush().unwrap();
            assert_eq!(written.len(), 3);
            for p in &written {
                assert!(p.exists(), "{p:?}");
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
