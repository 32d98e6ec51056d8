//! # alpaka-trace
//!
//! Exporters for the structured trace events emitted by the runtime
//! (`alpaka_core::trace`) and the per-instruction profiles produced by the
//! simulator (`alpaka_sim::profile`):
//!
//! * [`chrome_trace`] — Chrome-trace (`chrome://tracing` / Perfetto) JSON
//!   with one lane per simulated SM plus one per queue,
//! * [`text_report`] — a compact human-readable event log,
//! * [`roofline_csv`] — one achieved-vs-peak datapoint per launch, plotted
//!   against the device's roofline, and
//! * [`Tracer`] — the `ALPAKA_SIM_TRACE=<path>` file writer tying them
//!   together.
//!
//! Everything is hand-formatted: the workspace carries no JSON dependency.
//! Determinism rule: with wall-clock masking on (the default for file
//! export), the rendered bytes depend only on the event stream, which the
//! simulator guarantees is identical across `ALPAKA_SIM_THREADS` settings
//! and both engines.

use std::fmt::Write as _;

use alpaka_core::trace::{TraceEvent, TraceKind};
use alpaka_core::Obs;

mod json;

pub use json::validate_json;

/// Rendering options for [`chrome_trace`].
#[derive(Debug, Clone, Copy)]
pub struct ChromeOpts {
    /// Replace wall-clock timestamps with 0 so the output is bit-identical
    /// across runs (simulated time is deterministic, wall time is not).
    pub mask_wall: bool,
}

impl Default for ChromeOpts {
    fn default() -> Self {
        ChromeOpts { mask_wall: true }
    }
}

/// Append `s` to `out` as the body of a JSON string literal: `"`, `\` and
/// the C0 control characters are escaped (RFC 8259 §7); everything else —
/// including DEL (0x7f) and non-ASCII — passes through verbatim, which the
/// grammar permits. Shared by every hand-formatted exporter in the
/// workspace (`chrome_trace` here, the metrics JSON snapshot in
/// `alpaka-metrics`).
pub fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The Chrome-trace lane (thread id) an event renders into: SM lanes live
/// at `1 + sm`, queue lanes at `1000 + queue id`, pool shard spans and
/// migration markers at lane 2000 ("shards" — one per device, so pooled
/// launches render as one shard lane per member pid), everything else
/// (device ops, waits, faults) on lane 0 ("host").
fn lane(e: &TraceEvent) -> u64 {
    if let Some(sm) = e.sm {
        return 1 + sm;
    }
    if matches!(e.kind, TraceKind::Shard | TraceKind::Migrate) {
        return 2000;
    }
    if matches!(
        e.kind,
        TraceKind::QueueOp | TraceKind::Copy | TraceKind::EventRecord
    ) {
        if let Some(q) = e.queue {
            return 1000 + q;
        }
    }
    0
}

fn lane_name(tid: u64) -> String {
    match tid {
        0 => "host".to_string(),
        2000 => "shards".to_string(),
        t if t >= 1000 => format!("queue {}", t - 1000),
        t => format!("sm {}", t - 1),
    }
}

/// Render `events` as Chrome-trace JSON (the `traceEvents` array format).
///
/// Every event becomes a `"ph":"X"` complete event whose `ts`/`dur` are the
/// *simulated* clock in microseconds (3 decimal places); instant events get
/// `dur` 0. Each `(pid, tid)` lane additionally gets a `"M"` thread-name
/// metadata record — `sm N` for block execution, `queue N` for queue-side
/// spans, `host` for the rest — and each device a process-name record.
pub fn chrome_trace(events: &[TraceEvent], opts: &ChromeOpts) -> String {
    let mut out = String::with_capacity(256 + events.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    // Metadata lanes, in first-appearance order (deterministic).
    let mut lanes: Vec<(u64, u64)> = Vec::new();
    let mut devices: Vec<u64> = Vec::new();
    for e in events {
        let t = lane(e);
        if !lanes.contains(&(e.device, t)) {
            lanes.push((e.device, t));
        }
        if !devices.contains(&e.device) {
            devices.push(e.device);
        }
    }
    for d in &devices {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{d},\"name\":\"process_name\",\"args\":{{\"name\":\"device {d}\"}}}}"
        );
    }
    for (d, t) in &lanes {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{d},\"tid\":{t},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            lane_name(*t)
        );
    }

    for e in events {
        sep(&mut out);
        let ts_us = e.sim_t0_s * 1e6;
        let dur_us = (e.sim_t1_s - e.sim_t0_s).max(0.0) * 1e6;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"cat\":\"{}\",\"name\":\"",
            e.device,
            lane(e),
            ts_us,
            dur_us,
            e.kind.name()
        );
        esc(&e.label, &mut out);
        out.push_str("\",\"args\":{");
        let wall = if opts.mask_wall { 0 } else { e.wall_ns };
        let _ = write!(out, "\"wall_ns\":{wall}");
        if let Some(q) = e.queue {
            let _ = write!(out, ",\"queue\":{q}");
        }
        if let Some(l) = e.launch {
            let _ = write!(out, ",\"launch\":{l}");
        }
        if let Some(b) = e.block {
            let _ = write!(out, ",\"block\":{b}");
        }
        for (k, v) in &e.meta {
            let _ = write!(out, ",\"{k}\":{}", json_num(*v));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}");
    out
}

/// JSON-safe rendering of an f64 (JSON has no NaN/Inf literals).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One event as a single deterministic text line (no trailing newline, no
/// wall clock). Shared by [`text_report`] and the flight-recorder
/// post-mortem in `alpaka-metrics`.
pub fn event_line(e: &TraceEvent) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "[{:>12.3}us] dev{} {:<13}",
        e.sim_t0_s * 1e6,
        e.device,
        e.kind.name()
    );
    if let Some(q) = e.queue {
        let _ = write!(out, " q{q}");
    }
    if let Some(l) = e.launch {
        let _ = write!(out, " launch#{l}");
    }
    let _ = write!(out, " {}", e.label);
    if e.sim_t1_s > e.sim_t0_s {
        let _ = write!(out, " ({:.3}us)", (e.sim_t1_s - e.sim_t0_s) * 1e6);
    }
    for (k, v) in &e.meta {
        let _ = write!(out, " {k}={v}");
    }
    out
}

/// Compact human-readable rendering of an event stream, one line per event,
/// in emission order, followed by a resilience summary when the stream
/// contains retry/fail-over events. Wall-clock times are intentionally
/// omitted so the report is deterministic.
pub fn text_report(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} trace events", events.len());
    for e in events {
        out.push_str(&event_line(e));
        out.push('\n');
    }
    // Resilience summary: attempts and fail-overs are rare enough that a
    // reader shouldn't have to fish them out of the event soup above.
    let attempts: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceKind::RetryAttempt)
        .collect();
    let failovers = events
        .iter()
        .filter(|e| e.kind == TraceKind::FailOver)
        .count();
    if !attempts.is_empty() || failovers > 0 {
        let backoff_s: f64 = attempts
            .iter()
            .filter_map(|e| e.meta_get("backoff_before_s"))
            .sum();
        let _ = writeln!(
            out,
            "resilience: {} attempt(s), {} fail-over(s), {:.3}us total backoff",
            attempts.len(),
            failovers,
            backoff_s * 1e6
        );
        for e in &attempts {
            let _ = writeln!(out, "  {}", e.label);
        }
    }
    out
}

/// Render one launch's retry/fail-over provenance
/// (`SimReport::resilience`) as readable text: total attempts, the fault
/// kind that ended each attempt, fail-over hops and total simulated
/// backoff. Everything comes from the deterministic `ResilienceInfo`, so
/// the rendering is byte-stable.
pub fn resilience_report(info: &alpaka_sim::ResilienceInfo) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "resilience: {} attempt(s), {} fail-over(s), {:.3}us total backoff",
        info.attempts,
        info.failovers,
        info.backoff_s * 1e6
    );
    for a in &info.history {
        let outcome = match &a.fault {
            Some(kind) if a.transient => format!("{kind} (transient)"),
            Some(kind) => kind.clone(),
            None => "ok".to_string(),
        };
        let _ = writeln!(
            out,
            "  attempt {} on {} (chain index {}): {}",
            a.attempt, a.device, a.device_index, outcome
        );
    }
    out
}

/// One roofline datapoint per `launch` event carrying the needed meta
/// (flops, dram_bytes, total_s, peak_gflops, peak_bw_gbs), as CSV:
///
/// `label,intensity_flop_per_byte,achieved_gflops,roofline_gflops,peak_gflops,peak_bw_gbs`
///
/// `roofline_gflops` is the device ceiling at that arithmetic intensity —
/// `min(peak_gflops, intensity * peak_bw_gbs)` — so achieved/roofline is
/// the fraction-of-attainable-peak the paper's Fig. 9 plots.
pub fn roofline_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from(
        "label,intensity_flop_per_byte,achieved_gflops,roofline_gflops,peak_gflops,peak_bw_gbs\n",
    );
    for e in events {
        if !matches!(e.kind, TraceKind::Launch) {
            continue;
        }
        let (Some(flops), Some(bytes), Some(total_s)) = (
            e.meta_get("flops"),
            e.meta_get("dram_bytes"),
            e.meta_get("total_s"),
        ) else {
            continue;
        };
        let peak_gflops = e.meta_get("peak_gflops").unwrap_or(f64::NAN);
        let peak_bw = e.meta_get("peak_bw_gbs").unwrap_or(f64::NAN);
        let intensity = if bytes > 0.0 {
            flops / bytes
        } else {
            f64::INFINITY
        };
        let achieved = if total_s > 0.0 {
            flops / total_s / 1e9
        } else {
            0.0
        };
        let ceiling = if intensity.is_finite() {
            (intensity * peak_bw).min(peak_gflops)
        } else {
            peak_gflops
        };
        let mut label = String::new();
        // CSV field: quote-free label (commas replaced).
        for c in e.label.chars() {
            label.push(if c == ',' { ';' } else { c });
        }
        let _ = writeln!(
            out,
            "{label},{intensity:.6},{achieved:.6},{ceiling:.6},{peak_gflops:.6},{peak_bw:.6}"
        );
    }
    out
}

/// File-writing front end for the exporters, driven by the
/// `ALPAKA_SIM_TRACE=<path>` environment variable (see
/// `alpaka_core::trace`): collects the events recorded into the [`Obs`] it
/// was made under and writes `<path>.chrome.json`, `<path>.txt` and
/// `<path>.roofline.csv`.
#[derive(Debug)]
pub struct Tracer {
    base: std::path::PathBuf,
    events: Vec<TraceEvent>,
    obs: Obs,
}

impl Tracer {
    /// A tracer for the `ALPAKA_SIM_TRACE` path; `None` when the variable
    /// is unset or empty (recording is then disabled too).
    pub fn from_env() -> Option<Tracer> {
        alpaka_core::trace::env_trace_path().map(Tracer::new)
    }

    /// A tracer writing to `<base>.chrome.json` / `.txt` / `.roofline.csv`,
    /// switching the sink of [`Obs::current`] on as a side effect.
    pub fn new(base: impl Into<std::path::PathBuf>) -> Tracer {
        let obs = Obs::current();
        obs.set_trace_enabled(true);
        Tracer {
            base: base.into(),
            events: Vec::new(),
            obs,
        }
    }

    /// Pull everything recorded since the last collect into this tracer.
    pub fn collect(&mut self) {
        self.events.extend(self.obs.drain());
    }

    /// The events collected so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Collect pending events and write all three export files. Returns the
    /// paths written.
    pub fn flush(&mut self) -> std::io::Result<Vec<std::path::PathBuf>> {
        self.collect();
        let ext = |e: &str| {
            let mut p = self.base.clone().into_os_string();
            p.push(e);
            std::path::PathBuf::from(p)
        };
        let chrome = ext(".chrome.json");
        let txt = ext(".txt");
        let csv = ext(".roofline.csv");
        std::fs::write(&chrome, chrome_trace(&self.events, &ChromeOpts::default()))?;
        std::fs::write(&txt, text_report(&self.events))?;
        std::fs::write(&csv, roofline_csv(&self.events))?;
        Ok(vec![chrome, txt, csv])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::trace::TraceEvent;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(TraceKind::QueueOp, "enqueue_kernel daxpy", 1, 0.0)
                .on_queue(3)
                .span_until(2e-6),
            TraceEvent::new(TraceKind::Launch, "daxpy", 1, 0.0)
                .on_queue(3)
                .on_launch(0)
                .with("flops", 2000.0)
                .with("dram_bytes", 24000.0)
                .with("total_s", 1e-6)
                .with("peak_gflops", 100.0)
                .with("peak_bw_gbs", 50.0),
            TraceEvent::new(TraceKind::BlockExec, "block 0", 1, 0.0)
                .on_block(0, 0)
                .span_until(1e-6),
            TraceEvent::new(TraceKind::BlockExec, "block 1", 1, 0.0)
                .on_block(1, 1)
                .span_until(1e-6),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let s = chrome_trace(&sample_events(), &ChromeOpts::default());
        validate_json(&s).unwrap();
        assert!(s.contains("\"name\":\"sm 0\""), "{s}");
        assert!(s.contains("\"name\":\"sm 1\""), "{s}");
        assert!(s.contains("\"name\":\"queue 3\""), "{s}");
        assert!(s.contains("\"cat\":\"launch\""), "{s}");
    }

    #[test]
    fn chrome_trace_masks_wall_clock() {
        let mut evs = sample_events();
        evs[0].wall_ns = 12345;
        let masked = chrome_trace(&evs, &ChromeOpts { mask_wall: true });
        assert!(!masked.contains("12345"), "{masked}");
        let unmasked = chrome_trace(&evs, &ChromeOpts { mask_wall: false });
        assert!(unmasked.contains("12345"));
    }

    #[test]
    fn text_report_lists_every_event() {
        let evs = sample_events();
        let r = text_report(&evs);
        assert!(r.starts_with("4 trace events"), "{r}");
        assert!(r.contains("enqueue_kernel daxpy"), "{r}");
        assert!(r.contains("launch#0"), "{r}");
    }

    #[test]
    fn roofline_csv_computes_ceiling() {
        let evs = sample_events();
        let csv = roofline_csv(&evs);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("label,"));
        let row = lines.next().unwrap();
        // intensity = 2000/24000 ≈ 0.0833; ceiling = min(100, 0.0833*50) ≈ 4.1667;
        // achieved = 2000/1e-6/1e9 = 2 GFLOP/s.
        assert!(
            row.starts_with("daxpy,0.083333,2.000000,4.166667,"),
            "{row}"
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn escapes_hostile_labels() {
        let e = TraceEvent::new(TraceKind::Fault, "bad \"quote\" \\ and \n newline", 0, 0.0);
        let s = chrome_trace(&[e], &ChromeOpts::default());
        validate_json(&s).unwrap();
    }

    /// Wrap `esc(s)` in quotes: the JSON string literal the exporters emit.
    fn quoted(s: &str) -> String {
        let mut out = String::from("\"");
        esc(s, &mut out);
        out.push('"');
        out
    }

    #[test]
    fn esc_escapes_every_c0_control_char() {
        for c in 0u32..0x20 {
            let c = char::from_u32(c).unwrap();
            let q = quoted(&format!("a{c}b"));
            validate_json(&q).unwrap_or_else(|e| panic!("{c:?}: {q}: {e}"));
            assert!(q.contains('\\'), "{c:?} not escaped: {q}");
        }
    }

    #[test]
    fn esc_passes_del_and_unicode_verbatim() {
        // DEL (0x7f) needs no escape under RFC 8259 and esc leaves it alone.
        let q = quoted("a\u{7f}b\u{e9}\u{1f600}");
        assert_eq!(q, "\"a\u{7f}b\u{e9}\u{1f600}\"");
        validate_json(&q).unwrap();
    }

    #[test]
    fn esc_handles_nested_escapes() {
        // Input that already looks like escape sequences must be
        // re-escaped, not passed through.
        assert_eq!(quoted(r#"\n"#), r#""\\n""#);
        assert_eq!(quoted(r#"\\"#), r#""\\\\""#);
        assert_eq!(quoted(r#"say "\"""#), r#""say \"\\\"\"""#);
        assert_eq!(quoted("\\\n"), r#""\\\n""#);
        for s in [r#"\n"#, r#"\\"#, r#"say "\"""#, "\\\n", r#"A"#] {
            validate_json(&quoted(s)).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn esc_long_hostile_string_stays_valid() {
        let mut s = String::new();
        for i in 0..50_000 {
            match i % 5 {
                0 => s.push('"'),
                1 => s.push('\\'),
                2 => s.push('\u{1}'),
                3 => s.push('\u{7f}'),
                _ => s.push('x'),
            }
        }
        let q = quoted(&s);
        validate_json(&q).unwrap();
        // Escaping must round-trip length-wise: nothing silently dropped.
        assert!(q.len() > s.len());
    }

    #[test]
    fn resilience_report_lists_attempt_provenance() {
        use alpaka_sim::{AttemptRecord, ResilienceInfo};
        let info = ResilienceInfo {
            attempts: 3,
            history: vec![
                AttemptRecord {
                    attempt: 1,
                    device: "sim_k20".into(),
                    device_index: 0,
                    fault: Some("ecc".into()),
                    transient: true,
                },
                AttemptRecord {
                    attempt: 2,
                    device: "sim_k20".into(),
                    device_index: 0,
                    fault: Some("device_lost".into()),
                    transient: false,
                },
                AttemptRecord {
                    attempt: 3,
                    device: "cpu_serial".into(),
                    device_index: 1,
                    fault: None,
                    transient: false,
                },
            ],
            backoff_s: 1e-3,
            failovers: 1,
        };
        let r = resilience_report(&info);
        assert!(r.contains("3 attempt(s), 1 fail-over(s)"), "{r}");
        assert!(r.contains("1000.000us total backoff"), "{r}");
        assert!(
            r.contains("attempt 1 on sim_k20 (chain index 0): ecc (transient)"),
            "{r}"
        );
        assert!(
            r.contains("attempt 2 on sim_k20 (chain index 0): device_lost"),
            "{r}"
        );
        assert!(
            r.contains("attempt 3 on cpu_serial (chain index 1): ok"),
            "{r}"
        );
    }

    #[test]
    fn text_report_summarizes_retries() {
        let evs = vec![
            TraceEvent::new(
                TraceKind::RetryAttempt,
                "attempt 1 on sim_k20: ecc event",
                0,
                0.0,
            )
            .with("attempt", 1.0)
            .with("backoff_before_s", 0.0),
            TraceEvent::new(TraceKind::RetryAttempt, "attempt 2 on sim_k20: ok", 0, 2e-3)
                .with("attempt", 2.0)
                .with("backoff_before_s", 1e-3),
            TraceEvent::new(TraceKind::FailOver, "fail over from sim_k20", 0, 3e-3),
        ];
        let r = text_report(&evs);
        assert!(
            r.contains("resilience: 2 attempt(s), 1 fail-over(s), 1000.000us total backoff"),
            "{r}"
        );
        assert!(r.contains("  attempt 1 on sim_k20: ecc event"), "{r}");
        // Streams without retries get no summary.
        let clean = text_report(&sample_events());
        assert!(!clean.contains("resilience:"), "{clean}");
    }
}
