//! What a workload talks to while it runs: operation accounting, launch
//! latency samples, simulator totals, and (in the traced run) the span log.

use std::time::Instant;

use alpaka_sim::{LaunchStats, SimReport};

use crate::spans::{Layer, SpanLog};

/// Everything counted during one repetition. The exact part (`stats`,
/// `sim_time_s`, `fallback_launches`, IR and launch counts) must repeat
/// bit-for-bit from one repetition to the next; `run.rs` checks that.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Operations attempted: every launch, copy and output check.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    /// Wall time of each launch call, microseconds.
    pub launch_us: Vec<f64>,
    /// Simulator totals over the launches of the repetition.
    pub stats: LaunchStats,
    pub sim_time_s: f64,
    pub fallback_launches: u64,
    /// Warp-instructions the host actually interpreted: a sampled launch
    /// interprets a few blocks and scales its statistics up, and only the
    /// interpreted ones cost host time.
    pub interp_instrs: u64,
    /// Program-cache (hits, misses), lowering and compile caches summed, as
    /// of the last simulated launch. Process-cumulative: `run.rs` takes the
    /// difference between repetitions.
    pub cache_last: Option<(u64, u64)>,
    /// Largest `HostPerf::workers` seen.
    pub workers_max: usize,
    /// IR instruction counts (staged launches only).
    pub instrs_in: u64,
    pub instrs_out: u64,
    /// Floating-point operations and wall of native DGEMM launches.
    pub native_flops: f64,
    pub native_dgemm_s: f64,
    /// Interpreted (not extrapolated) blocks and warp-instructions, and the
    /// wall of the exec spans they ran in (staged launches only).
    pub exec_blocks: f64,
    pub exec_instrs: f64,
    pub exec_s: f64,
    pub atomic_exec_s: f64,
}

impl Recorder {
    pub fn warp_instrs(&self) -> u64 {
        self.stats.scalar_issue + self.stats.vec_issue
    }

    /// Add another record's operation counts and failure messages (not its
    /// measurements) to this one.
    pub fn absorb_counts(&mut self, other: &Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// The part of the record that must repeat exactly.
    pub fn exact_key(&self) -> (LaunchStats, u64, u64, usize, u64, u64) {
        (
            self.stats,
            self.sim_time_s.to_bits(),
            self.fallback_launches,
            self.launch_us.len(),
            self.instrs_in,
            self.instrs_out,
        )
    }
}

pub struct Harness {
    pub rec: Recorder,
    /// Present in the traced run only.
    pub spans: Option<SpanLog>,
}

impl Harness {
    pub fn new(traced: bool) -> Self {
        Harness {
            rec: Recorder::default(),
            spans: traced.then(SpanLog::new),
        }
    }

    /// Swap in a fresh record and return the finished one.
    pub fn take_record(&mut self) -> Recorder {
        std::mem::take(&mut self.rec)
    }

    pub fn fail(&mut self, what: String) {
        self.rec.fail(what);
    }

    /// Count one operation; an `Err` counts as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.rec.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.rec.check(what, ok);
    }

    /// Run `f` inside a span (a plain call in the untraced run).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        match &mut self.spans {
            None => f(self),
            Some(log) => {
                let open = log.open(name, layer);
                let out = f(self);
                if let Some(log) = &mut self.spans {
                    log.close(open);
                }
                out
            }
        }
    }

    /// Run one operation that is not a launch (a copy, an event, a wait) in
    /// a span and count it.
    pub fn op_in_span<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let r = self.span(name, layer, |_| f());
        self.op(name, r)
    }

    /// Time one launch call through a production entry point, count it and
    /// record its latency. `layer` is the layer that owns the call. When the
    /// call hands back a simulator report its whole-launch time becomes a
    /// reported child span, so the caller's self time excludes it.
    pub fn launch<E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce() -> Result<Option<SimReport>, E>,
    ) -> Option<SimReport> {
        if let Some(log) = &mut self.spans {
            log.begin_launch();
        }
        let t0 = Instant::now();
        let r = self.span(name, layer, |h| {
            let r = f();
            if let (Some(log), Ok(Some(rep))) = (&mut h.spans, &r) {
                log.reported_child("sim_launch", Layer::SimLaunch, rep.host.wall_s);
            }
            r
        });
        self.rec.launch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Some(log) = &mut self.spans {
            log.end_launch();
        }
        let rep = self.op(name, r).flatten();
        if let Some(rep) = &rep {
            self.add_report(rep);
        }
        rep
    }

    /// Fold a simulator report into the repetition's totals.
    pub fn add_report(&mut self, rep: &SimReport) {
        let r = &mut self.rec;
        r.stats.add(&rep.stats);
        r.sim_time_s += rep.time.total_s;
        r.interp_instrs += if rep.sampled {
            // HostPerf rates are over interpreted work.
            (rep.host.instrs_per_sec * rep.host.wall_s).round() as u64
        } else {
            rep.stats.scalar_issue + rep.stats.vec_issue
        };
        if rep.fallback != alpaka_sim::FallbackReason::None {
            r.fallback_launches += 1;
        }
        let hits = rep.lowering_cache.hits + rep.compile_cache.hits;
        let misses = rep.lowering_cache.misses + rep.compile_cache.misses;
        // A report synthesised for a pool launch carries no counters.
        if hits + misses > 0 {
            r.cache_last = Some((hits, misses));
        }
        r.workers_max = r.workers_max.max(rep.host.workers);
    }
}
