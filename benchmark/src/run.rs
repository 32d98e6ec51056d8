//! One run of one workload in this process: set-up, warm-up repetition,
//! timed repetitions through the production entry points, and — in the
//! traced run — repetitions through the staged pipeline plus the layer
//! probes. Produces every metric by name.

use std::path::Path;
use std::time::Instant;

use crate::harness::{Harness, Recorder};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::simdev::front_probe;
use crate::spans::{Layer, SpanLog};
use crate::util::{median, peak_rss_mb, reference_pass, spread, tail};
use crate::workloads::{self, Workload};

/// Set-ups per run; `setup_s` takes their median.
const SETUPS: usize = 3;

pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    /// Where `spans-<workload>.jsonl` goes; `None` writes nothing.
    pub out_dir: Option<&'a Path>,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every metric this run measured, end to end and per layer.
    pub metrics: MetricSet,
    /// Self time per layer of the staged repetitions (traced run only).
    pub layer_table: Vec<(Layer, f64)>,
    pub repetitions: usize,
    pub staged_repetitions: usize,
    /// Per phase of the production repetitions: name, median wall, spread.
    pub phase_table: Vec<(&'static str, f64, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric values the contract wants for this mode, in table order.
    pub fn contract_metrics(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let get = |name| self.metrics.get(name).copied().unwrap_or(0.0);
        if trace {
            PER_LAYER
                .iter()
                .map(|d| (d.name, d.unit, get(d.name)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| (d.name, d.unit, get(d.name)))
                .collect()
        }
    }
}

/// Timed repetitions of one workload instance.
struct Reps {
    /// Wall per phase, one sample per repetition.
    phase_walls: Vec<Vec<f64>>,
    /// Wall of each repetition's phases, summed.
    rep_walls: Vec<f64>,
    records: Vec<Recorder>,
}

impl Reps {
    fn new(phases: usize) -> Self {
        Reps {
            phase_walls: vec![Vec::new(); phases],
            rep_walls: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Median repetition wall.
    fn wall_s(&self) -> f64 {
        median(&self.rep_walls)
    }

    /// Median, over the repetitions, of the seconds spent inside launch
    /// calls.
    fn launch_s(&self) -> f64 {
        let per_rep = |r: &Recorder| r.launch_us.iter().sum::<f64>() * 1e-6;
        median(&self.records.iter().map(per_rep).collect::<Vec<f64>>())
    }

    fn count(&self) -> usize {
        self.rep_walls.len()
    }

    fn all_launch_us(&self) -> Vec<f64> {
        self.records
            .iter()
            .flat_map(|r| r.launch_us.iter().copied())
            .collect()
    }

    /// Each launch of the operation list at its median wall over the
    /// repetitions. Their median is `launch_p50_us`: taken over all samples
    /// at once it would sit between two kinds of launch wherever the list
    /// holds as many slow launches as fast ones (`dgemm_peak`: three of
    /// 0.9 s, three of 0.2-0.4 s) and jump from one kind to the other
    /// whenever interference moves a single sample across.
    fn typical_launch_us(&self) -> Vec<f64> {
        let n = self
            .records
            .iter()
            .map(|r| r.launch_us.len())
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|j| {
                median(
                    &self
                        .records
                        .iter()
                        .map(|r| r.launch_us[j])
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }
}

/// One repetition: every phase timed, then the output check (untimed).
fn repetition(w: &mut dyn Workload, h: &mut Harness, reps: &mut Reps) {
    let phases = w.phases();
    let rep_span = h
        .spans
        .as_mut()
        .map(|log| log.open("repetition", Layer::Bench));
    let mut total = 0.0;
    for (p, &name) in phases.iter().enumerate() {
        let t = Instant::now();
        h.span(name, Layer::Bench, |h| w.run_phase(p, h));
        let dt = t.elapsed().as_secs_f64();
        reps.phase_walls[p].push(dt);
        total += dt;
    }
    if let (Some(log), Some(open)) = (h.spans.as_mut(), rep_span) {
        log.close(open);
    }
    // The check's own operations count as attempted or failed, but its
    // launches and copies stay out of the repetition's totals, and spans
    // under "check" out of every self-time figure.
    let mut rec = h.take_record();
    h.span("check", Layer::Bench, |h| w.check(h));
    rec.absorb_counts(&h.take_record());
    reps.rep_walls.push(total);
    reps.records.push(rec);
}

/// Repeat until `budget_s` has been measured (at least once): stop when
/// another repetition would overshoot by more than half a repetition.
fn repeat_for(w: &mut dyn Workload, h: &mut Harness, budget_s: f64) -> Reps {
    let mut reps = Reps::new(w.phases().len());
    let t0 = Instant::now();
    loop {
        repetition(w, h, &mut reps);
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / reps.count() as f64 > budget_s {
            return reps;
        }
    }
}

fn build(args: &RunArgs, staged: bool) -> Result<Box<dyn Workload>, String> {
    workloads::build(args.workload, args.seed, args.toy, staged)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))
}

/// Standalone `lower`, cold and warm zero-block launch of every distinct
/// program of the workload. Needs cold program caches, so it runs before
/// the first launch of the process.
fn front_end_probes(w: &dyn Workload, total: &mut Recorder, m: &mut MetricSet) {
    let (mut lower_us, mut compile_us, mut fixed_us, mut ops) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    for p in w.programs() {
        let probe = front_probe(&p.spec, &p.prog, &p.wd, p.bufs);
        total.check(&format!("front probe of {}", p.prog.name), probe.is_some());
        if let Some((lower, n_ops, cold, warm)) = probe {
            lower_us.push(lower);
            ops += n_ops;
            compile_us.push((cold - warm - lower).max(0.0));
            fixed_us.push(warm);
        }
    }
    if !lower_us.is_empty() {
        m.insert("sim.lower_us", median(&lower_us));
        m.insert("sim.lower_ops", ops as f64);
        m.insert("sim.compile_us", median(&compile_us));
        m.insert("sim.launch_fixed_us", median(&fixed_us));
    }
}

/// Metrics of the production repetitions: the end-to-end ones and the
/// exact simulator counts. Plain medians of what was measured.
fn production_metrics(w: &dyn Workload, setup_s: f64, warm: &Reps, reps: &Reps, m: &mut MetricSet) {
    let first = &reps.records[0];
    let launch_us = reps.all_launch_us();
    let work = w.native_work().unwrap_or(first.interp_instrs as f64);
    m.insert("setup_s", setup_s);
    m.insert("wall_s", reps.wall_s());
    m.insert("launch_p50_us", median(&reps.typical_launch_us()));
    m.insert("work_mops", work / reps.launch_s() / 1e6);
    m.insert("bench.rep_spread", spread(&reps.rep_walls));
    let (tail_pct, tail_us) = tail(&launch_us);
    m.insert("alpaka.launch_tail_us", tail_us);
    m.insert("alpaka.launch_tail_pct", tail_pct);
    m.insert("alpaka.launch_samples", launch_us.len() as f64);

    // Exact simulator counts of one repetition (identical in all of them).
    let s = &first.stats;
    m.insert("sim.warp_instrs", first.warp_instrs() as f64);
    m.insert("sim.blocks", s.blocks as f64);
    m.insert("sim.atomics_ops", s.atomics as f64);
    m.insert("sim.fallback_launches", first.fallback_launches as f64);
    m.insert("sim.mem_transactions", s.mem_transactions as f64);
    m.insert("sim.dram_bytes", s.dram_bytes as f64);
    m.insert("sim.time_s", first.sim_time_s);
    let accesses = s.cache_hits + s.cache_misses;
    if accesses > 0 {
        m.insert("sim.cache_hit_ratio", s.cache_hits as f64 / accesses as f64);
    }
    // Program caches over the timed repetitions: counters are cumulative,
    // so take the difference from the end of the warm-up.
    let last = reps.records.last().and_then(|r| r.cache_last);
    if let (Some(a), Some(b)) = (warm.records[0].cache_last, last) {
        let (hits, misses) = (b.0 - a.0, b.1 - a.1);
        if hits + misses > 0 {
            m.insert(
                "sim.progcache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }
    }
    if first.native_dgemm_s > 0.0 {
        let flops: f64 = reps.records.iter().map(|r| r.native_flops).sum();
        let secs: f64 = reps.records.iter().map(|r| r.native_dgemm_s).sum();
        m.insert("cpu.gflops", flops / secs / 1e9);
    }
    w.derived(first, m);
}

/// Per-layer metrics of the staged repetitions, from their spans and
/// records. Returns the self-time table.
fn staged_metrics(
    ws: &dyn Workload,
    staged: &Reps,
    log: &SpanLog,
    production_wall_s: f64,
    m: &mut MetricSet,
) -> Vec<(Layer, f64)> {
    let n = staged.count() as f64;
    let sr = &staged.records[0];
    let skip = log.under("check");
    let layer_table = log.self_times(&skip);
    for &(layer, secs) in &layer_table {
        let name = match layer {
            Layer::Bench => "bench.self_s",
            Layer::Kir => "kir.self_s",
            Layer::SimFront => "sim.front_self_s",
            Layer::SimExec => "sim.exec_self_s",
            Layer::SimLaunch => "sim.launch_self_s",
            Layer::Accsim => "accsim.self_s",
            Layer::Alpaka => "alpaka.self_s",
            Layer::Pool => "alpaka.pool_self_s",
            Layer::Cpu => "cpu.self_s",
            Layer::Hase => "hase.self_s",
        };
        m.insert(name, secs / n);
    }
    let med_us = |name, layer| median(&log.durations(name, layer, &skip)) * 1e6;
    if sr.instrs_in > 0 {
        m.insert("kir.trace_us", med_us("trace", Layer::Kir));
        m.insert("kir.optimize_us", med_us("optimize", Layer::Kir));
        m.insert("kir.instrs_in", sr.instrs_in as f64);
        m.insert("kir.instrs_out", sr.instrs_out as f64);
    }
    let sum = |f: fn(&Recorder) -> f64| staged.records.iter().map(f).sum::<f64>();
    let exec_s = sum(|r| r.exec_s);
    if exec_s > 0.0 {
        let (blocks, instrs) = (sum(|r| r.exec_blocks), sum(|r| r.exec_instrs));
        m.insert("sim.exec_busy_s", exec_s / n);
        m.insert("sim.exec_us_per_block", exec_s * 1e6 / blocks);
        m.insert("sim.exec_ns_per_instr", exec_s * 1e9 / instrs);
        m.insert("sim.mips", instrs / exec_s / 1e6);
        m.insert("sim.blocks_per_s", blocks / exec_s);
        let atomic_s = sum(|r| r.atomic_exec_s);
        if atomic_s > 0.0 {
            let ops = sr.stats.atomics as f64 * n;
            m.insert("sim.atomics_ns_per_op", atomic_s * 1e9 / ops);
        }
    }
    m.insert(
        "bench.span_overhead_ratio",
        staged.wall_s() / production_wall_s,
    );
    // Workload-specific metrics again, now with exec-span time to divide by.
    let per_rep = Recorder {
        exec_s: exec_s / n,
        ..sr.clone()
    };
    ws.derived(&per_rep, m);
    layer_table
}

/// Write the spans of the first staged repetition (everything before the
/// second "repetition" span) as JSON lines.
fn write_spans(log: &SpanLog, dir: &Path, workload: &str) -> Result<(), String> {
    let upto = log
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "repetition")
        .nth(1)
        .map_or(log.spans.len(), |(i, _)| i);
    let path = dir.join(format!("spans-{workload}.jsonl"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, log.to_jsonl(workload, upto)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut m = MetricSet::new();
    // Operations attempted and failed over the whole run.
    let mut total = Recorder::default();

    // Set-up: input generation, host references, allocation, upload.
    let mut setup_samples = Vec::new();
    let mut w = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(w.take()); // one instance alive at a time, so peak memory is one set-up's
        let t = Instant::now();
        w = Some(build(args, false)?);
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    if args.trace {
        front_end_probes(w.as_ref(), &mut total, &mut m);
    }

    // Warm-up repetition: fills the program caches, faults pages in, spawns
    // worker threads; its outputs are checked like any other.
    let mut h = Harness::new(false);
    let t = Instant::now();
    let warm = repeat_for(w.as_mut(), &mut h, 0.0);
    let setup_s = median(&setup_samples) + t.elapsed().as_secs_f64();
    total.absorb_counts(&warm.records[0]);

    // Timed repetitions through the production entry points.
    let budget = if args.trace {
        0.25 * args.seconds
    } else {
        args.seconds
    };
    let reps = repeat_for(w.as_mut(), &mut h, budget);
    reps.records.iter().for_each(|r| total.absorb_counts(r));
    let first = &reps.records[0];
    total.check(
        "exact counters repeat in every repetition",
        reps.records
            .iter()
            .all(|r| r.exact_key() == first.exact_key()),
    );
    production_metrics(w.as_ref(), setup_s, &warm, &reps, &mut m);

    let mut layer_table = Vec::new();
    let mut staged_repetitions = 0;
    if args.trace {
        // The harness's own reference computation, timed before and after
        // the staged repetitions: per-layer timings are raw, and this lets a
        // reader tell a slower host from a slower program.
        let mut reference_s: Vec<f64> = (0..8).map(|_| reference_pass()).collect();

        // The same operations through the staged pipeline, with spans.
        let mut ws = build(args, true)?;
        let mut hs = Harness::new(true);
        let staged = repeat_for(ws.as_mut(), &mut hs, 0.5 * args.seconds);
        reference_s.extend((0..8).map(|_| reference_pass()));
        m.insert("bench.reference_ms", median(&reference_s) * 1e3);
        staged.records.iter().for_each(|r| total.absorb_counts(r));
        staged_repetitions = staged.count();
        let log = hs.spans.take().expect("traced harness has a span log");
        let sr = &staged.records[0];
        total.check(
            "staged pipeline reproduces production's statistics",
            sr.stats == first.stats && sr.sim_time_s.to_bits() == first.sim_time_s.to_bits(),
        );
        layer_table = staged_metrics(ws.as_ref(), &staged, &log, reps.wall_s(), &mut m);
        if let Some(dir) = args.out_dir {
            write_spans(&log, dir, args.workload)?;
        }
        drop(ws);

        // Layer probes this workload owns, through the production API.
        let mut hp = Harness::new(false);
        w.probes(args.seed, &mut hp, &mut m);
        total.absorb_counts(&hp.rec);
    }

    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert(
        "bench.failed_share",
        total.failed as f64 / total.attempted.max(1) as f64,
    );
    total.failures.truncate(8);
    Ok(RunResult {
        attempted: total.attempted,
        failed: total.failed,
        failures: total.failures,
        metrics: m,
        layer_table,
        repetitions: reps.count(),
        staged_repetitions,
        phase_table: w
            .phases()
            .into_iter()
            .zip(&reps.phase_walls)
            .map(|(name, walls)| (name, median(walls), spread(walls)))
            .collect(),
    })
}
