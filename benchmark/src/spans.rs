//! In-memory spans recorded by the benchmark around the public calls into
//! each layer (never inside the program under test), written out as JSON
//! lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's self time is charged to. Names follow the
/// repository's modules; `sim` is split at the only boundary visible from
/// outside: a zero-block launch (`SimFront`: program caches, lowering,
/// compilation, fixed launch cost) and the warm full launch after it
/// (`SimExec`). `SimLaunch` is a whole simulator launch as reported by
/// `SimReport::host` for calls that cannot be staged (queues). A
/// `DevicePool` launch reports no host time for its shards, so it is a layer
/// of its own (`Pool`): orchestration, shard copies and the shards'
/// simulator work together, not separable from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Kir,
    SimFront,
    SimExec,
    SimLaunch,
    Accsim,
    Alpaka,
    Pool,
    Cpu,
    Hase,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Bench,
        Layer::Kir,
        Layer::SimFront,
        Layer::SimExec,
        Layer::SimLaunch,
        Layer::Accsim,
        Layer::Alpaka,
        Layer::Pool,
        Layer::Cpu,
        Layer::Hase,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Kir => "kir",
            Layer::SimFront => "sim.front",
            Layer::SimExec => "sim.exec",
            Layer::SimLaunch => "sim.launch",
            Layer::Accsim => "accsim",
            Layer::Alpaka => "alpaka",
            Layer::Pool => "alpaka.pool",
            Layer::Cpu => "cpu",
            Layer::Hase => "hase",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_LAUNCH: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Launch the span belongs to; spans of one launch share it.
    pub launch: u32,
}

/// Handle of an open span (its index).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    launch: u32,
    next_launch: u32,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            launch: NO_LAUNCH,
            next_launch: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, layer: Layer) -> Open {
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            launch: self.launch,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn close(&mut self, open: Open) {
        let now = self.now_ns();
        self.spans[open.0 as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost-first");
    }

    /// A child of the innermost open span whose duration was reported by
    /// the callee (`SimReport::host.wall_s`) rather than timed here. It is
    /// placed at the end of the parent's interval so far; only its length
    /// matters for self times.
    pub fn reported_child(&mut self, name: &'static str, layer: Layer, dur_s: f64) {
        let now = self.now_ns();
        let dur = (dur_s.max(0.0) * 1e9) as u64;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let floor = match parent {
            NO_PARENT => 0,
            p => self.spans[p as usize].start_ns,
        };
        self.spans.push(Span {
            name,
            layer,
            start_ns: now.saturating_sub(dur).max(floor),
            end_ns: now,
            parent,
            launch: self.launch,
        });
    }

    /// Start a launch: spans opened until [`SpanLog::end_launch`] carry its
    /// identifier.
    pub fn begin_launch(&mut self) {
        self.launch = self.next_launch;
        self.next_launch += 1;
    }

    pub fn end_launch(&mut self) {
        self.launch = NO_LAUNCH;
    }

    /// Marks every span called `name` and all its descendants.
    pub fn under(&self, name: &str) -> Vec<bool> {
        let mut mark = vec![false; self.spans.len()];
        // Parents are recorded before their children.
        for (i, s) in self.spans.iter().enumerate() {
            mark[i] = s.name == name || (s.parent != NO_PARENT && mark[s.parent as usize]);
        }
        mark
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its direct children cover. Spans marked in `skip` are left out.
    pub fn self_times(&self, skip: &[bool]) -> Vec<(Layer, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let ns: u64 = (0..self.spans.len())
                    .filter(|&i| self.spans[i].layer == layer && !skip[i])
                    .map(|i| {
                        (self.spans[i].end_ns - self.spans[i].start_ns).saturating_sub(child_ns[i])
                    })
                    .sum();
                (layer, ns as f64 * 1e-9)
            })
            .collect()
    }

    /// Durations (seconds) of every unskipped span called `name` in `layer`.
    pub fn durations(&self, name: &str, layer: Layer, skip: &[bool]) -> Vec<f64> {
        self.spans
            .iter()
            .zip(skip)
            .filter(|(s, &skipped)| s.layer == layer && s.name == name && !skipped)
            .map(|(s, _)| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// One JSON object per line for spans `0..upto`.
    pub fn to_jsonl(&self, workload: &str, upto: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().take(upto).enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
            match s.parent {
                NO_PARENT => out.push_str("null"),
                p => {
                    let _ = write!(out, "{p}");
                }
            }
            out.push_str(", \"launch\": ");
            match s.launch {
                NO_LAUNCH => out.push_str("null"),
                l => {
                    let _ = write!(out, "{l}");
                }
            }
            let _ = writeln!(out, ", \"workload\": \"{workload}\"}}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let outer = log.open("outer", Layer::Bench);
        log.begin_launch();
        let inner = log.open("inner", Layer::Kir);
        std::thread::sleep(std::time::Duration::from_millis(5));
        log.close(inner);
        // The callee ran for at least what it reports.
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.reported_child("reported", Layer::SimLaunch, 0.001);
        log.end_launch();
        log.close(outer);
        let none = log.under("no such span");
        let t: std::collections::BTreeMap<_, _> = log
            .self_times(&none)
            .into_iter()
            .map(|(l, s)| (l.name(), s))
            .collect();
        assert!(t["kir"] >= 0.005);
        assert!((t["sim.launch"] - 0.001).abs() < 1e-6);
        let outer_dur = (log.spans[0].end_ns - log.spans[0].start_ns) as f64 * 1e-9;
        assert!((t["bench"] - (outer_dur - t["kir"] - t["sim.launch"])).abs() < 1e-6);
        let skip = log.under("inner");
        assert_eq!(skip, [false, true, false]);
        assert!(log.durations("inner", Layer::Kir, &skip).is_empty());
        assert_eq!(log.self_times(&skip)[1], (Layer::Kir, 0.0));
        assert_eq!(log.spans[1].launch, 0);
        assert_eq!(log.spans[0].launch, NO_LAUNCH);
        let jsonl = log.to_jsonl("w", usize::MAX);
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::json::parse(line).unwrap();
        }
    }
}
