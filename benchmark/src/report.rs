//! Everything around a single run: printing it, running all workloads in
//! child processes and collecting a results file, comparing two results
//! files, and the smoke check.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{self, RunResult};
use crate::util::{host_cpus, median, quartiles, spread};

fn unit_of(name: &str) -> &'static str {
    metrics::end_to_end(name)
        .map(|d| d.unit)
        .or_else(|| metrics::per_layer(name).map(|d| d.unit))
        .unwrap_or("")
}

/// Facts about the machine and build a result depends on.
fn host_facts() -> Vec<(&'static str, Value)> {
    let var = |k: &str| Value::Str(std::env::var(k).unwrap_or_else(|_| "unknown".to_string()));
    vec![
        ("host_cpus", Value::Num(host_cpus() as f64)),
        // One interpreter thread is the production default; native
        // back-ends get at most two workers and never more than the CPUs.
        ("sim_threads", Value::Num(1.0)),
        ("native_workers", Value::Num(host_cpus().min(2) as f64)),
        ("rustc", var("ALPAKA_BENCH_RUSTC")),
        ("commit", var("ALPAKA_BENCH_COMMIT")),
    ]
}

/// Print one run: a header, every metric as `name value unit`, the layer
/// table of a traced run, and any failures.
pub fn print_run(workload: &str, seed: u64, trace: bool, r: &RunResult) {
    println!(
        "# workload {workload} seed {seed} trace {}",
        u8::from(trace)
    );
    for (k, v) in host_facts() {
        println!("# {k} {}", v.render());
    }
    println!(
        "# repetitions {} staged_repetitions {} attempted {} failed {}",
        r.repetitions, r.staged_repetitions, r.attempted, r.failed
    );
    // End-to-end first, then per layer, each in table order.
    let ordered = END_TO_END
        .iter()
        .map(|d| d.name)
        .chain(PER_LAYER.iter().map(|d| d.name))
        .filter_map(|name| r.metrics.get(name).map(|v| (name, *v)));
    for (name, v) in ordered {
        println!("{name} {v} {}", unit_of(name));
    }
    println!("# production phases: median wall, share of the phases' sum, (q3-q1)/median over the repetitions");
    let phases_s: f64 = r.phase_table.iter().map(|p| p.1).sum();
    for (name, med, spread) in &r.phase_table {
        println!(
            "#   {name:<24} {med:>10.5} s {:>6.1} % {:>6.1} %",
            100.0 * med / phases_s.max(1e-12),
            100.0 * spread
        );
    }
    if !r.layer_table.is_empty() {
        let total: f64 = r.layer_table.iter().map(|(_, s)| s).sum();
        println!("# self time per layer over the staged repetitions (checks excluded):");
        for (layer, secs) in &r.layer_table {
            println!(
                "#   {:<11} {:>10.4} s {:>6.1} %",
                layer.name(),
                secs,
                100.0 * secs / total.max(1e-12)
            );
        }
    }
    for f in &r.failures {
        println!("# FAILED: {f}");
    }
}

// ---------------------------------------------------------------------------
// All workloads, one process per run.
// ---------------------------------------------------------------------------

/// Parse the `name value unit` lines of a child's output.
fn parse_metric_lines(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?;
            let value = parts.next()?.parse::<f64>().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

struct ChildRun {
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    wall_s: f64,
}

fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = std::time::Instant::now();
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let summary = json::parse(last).map_err(|e| {
        format!(
            "{workload}: child printed no result ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let field = |k| summary.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("# FAILED") || l.starts_with("#   "))
    {
        println!("{line}");
    }
    Ok(ChildRun {
        metrics: parse_metric_lines(&stdout),
        attempted: field("attempted"),
        failed: field("failed"),
        wall_s,
    })
}

pub fn run_all(
    seed: u64,
    seconds: f64,
    runs: usize,
    traced_only: bool,
    out_dir: &str,
) -> Result<bool, String> {
    let mut workloads_json = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut run_walls = Vec::new();
        let modes = std::iter::repeat_n(false, if traced_only { 0 } else { runs })
            .chain(std::iter::once(true));
        for trace in modes {
            println!("# == {workload} (trace {}) ==", u8::from(trace));
            let c = child_run(workload, seed, seconds, trace)?;
            attempted += c.attempted;
            failed += c.failed;
            run_walls.push(c.wall_s);
            for (name, v) in c.metrics {
                // A traced run also measures the end-to-end metrics, over
                // fewer repetitions; keep only the untraced samples of those.
                let is_e2e = metrics::end_to_end(&name).is_some();
                if !(trace && is_e2e && !traced_only) {
                    values.entry(name).or_default().push(v);
                }
            }
        }
        all_ok &= failed == 0.0;
        println!(
            "# {workload}: attempted {attempted} failed {failed}; run wall {:.1} s max",
            run_walls.iter().fold(0.0f64, |a, &b| a.max(b))
        );
        for (name, v) in &values {
            let (q1, q3) = quartiles(v);
            println!(
                "{workload} {name} {} {} (q1 {q1} q3 {q3} n {})",
                median(v),
                unit_of(name),
                v.len()
            );
        }
        let metrics_json = values
            .into_iter()
            .map(|(name, v)| {
                let entry = json::obj(vec![
                    ("unit", Value::Str(unit_of(&name).to_string())),
                    (
                        "values",
                        Value::Arr(v.into_iter().map(Value::Num).collect()),
                    ),
                ]);
                (name, entry)
            })
            .collect();
        workloads_json.push((
            workload.to_string(),
            json::obj(vec![
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                (
                    "run_wall_s",
                    Value::Arr(run_walls.into_iter().map(Value::Num).collect()),
                ),
                ("metrics", Value::Obj(metrics_json)),
            ]),
        ));
    }
    let mut doc = vec![("schema", Value::Num(1.0))];
    doc.push(("seed", Value::Num(seed as f64)));
    doc.push(("seconds", Value::Num(seconds)));
    doc.extend(host_facts());
    doc.push(("runs", Value::Num(runs as f64)));
    doc.push(("workloads", Value::Obj(workloads_json)));
    let path = Path::new(out_dir).join(format!(
        "results-seed{seed}{}.json",
        if traced_only { "-traced" } else { "" }
    ));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, json::obj(doc).render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(all_ok)
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

fn load_results(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("workloads").and_then(Value::as_obj).is_none() {
        return Err(format!(
            "{path}: not a results file (no \"workloads\" object)"
        ));
    }
    Ok(v)
}

fn values_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// How noisy one file's values of an end-to-end metric are: the spread
/// between runs where there are enough of them; otherwise, for a metric
/// measured over repetitions, the spread between the repetitions inside the
/// runs (`bench.rep_spread`, a spread of times, says nothing about a value
/// taken once per process such as peak memory).
fn run_noise(values: &[f64], over_repetitions: bool, rep_spread: &[f64]) -> f64 {
    if values.len() >= 4 || !over_repetitions {
        spread(values)
    } else {
        median(rep_spread)
    }
}

/// One row per (workload, metric). Exits non-zero (returns `Ok(false)`)
/// when an end-to-end metric is worse by more than its bound, an exact
/// metric differs, or a metric A has is missing from B; reports
/// "unresolved" where the run-to-run spread is wider than the bound, unless
/// every run of B beats every run of A. Refuses files of different seeds or
/// run lengths: their exact metrics and timings are not comparable.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_results(path_a)?, load_results(path_b)?);
    println!("# A = {path_a}\n# B = {path_b}");
    compare_docs(&a, &b)
}

fn compare_docs(a: &Value, b: &Value) -> Result<bool, String> {
    for key in ["seed", "seconds"] {
        let of = |doc: &Value| doc.get(key).and_then(Value::as_f64);
        if of(a) != of(b) {
            return Err(format!(
                "A and B were run with different {key} ({:?} vs {:?}); compare runs of the same seed and length",
                of(a),
                of(b)
            ));
        }
    }
    println!(
        "{:<14} {:<28} {:>13} {:>13} {:>8} {:>6}  {:<22} verdict",
        "workload", "metric", "A median", "B median", "delta%", "bound", "A q1..q3"
    );
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let rows = END_TO_END
            .iter()
            .map(|d| (d.name, d.better, Some((d.bound, d.over_repetitions)), false))
            .chain(PER_LAYER.iter().map(|d| (d.name, d.better, None, d.exact)));
        for (name, better, bound, exact) in rows {
            let (va, vb) = (values_of(a, workload, name), values_of(b, workload, name));
            match (va.is_empty(), vb.is_empty()) {
                (true, true) => continue, // not measured on this workload
                (false, true) => {
                    ok = false;
                    println!("{workload:<14} {name:<28} FAIL: missing from B");
                    continue;
                }
                (true, false) => {
                    println!("{workload:<14} {name:<28} new in B");
                    continue;
                }
                (false, false) => {}
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worsening(ma, mb, better);
            let verdict = if exact {
                let same = va.iter().chain(&vb).all(|v| v.to_bits() == va[0].to_bits());
                if same {
                    "exact"
                } else {
                    ok = false;
                    "FAIL: exact metric differs"
                }
            } else if let Some((bound, over_repetitions)) = bound {
                let noise = |doc: &Value, v: &[f64]| {
                    let reps = values_of(doc, workload, "bench.rep_spread");
                    run_noise(v, over_repetitions, &reps)
                };
                let wide = noise(a, &va).max(noise(b, &vb)) > bound;
                // x dominates y: every run of x reads better than every run of y.
                let dominates = |x: &[f64], y: &[f64]| {
                    x.iter()
                        .all(|&p| y.iter().all(|&q| worsening(q, p, better) < 0.0))
                };
                if wide && !dominates(&va, &vb) && !dominates(&vb, &va) {
                    "unresolved: spread exceeds bound"
                } else if worse > bound {
                    ok = false;
                    "FAIL: worse than bound"
                } else if worse < -bound {
                    "better"
                } else {
                    "within bound"
                }
            } else {
                "info"
            };
            let (q1, q3) = quartiles(&va);
            println!(
                "{:<14} {:<28} {:>13.6} {:>13.6} {:>8.2} {:>6}  {:<22} {}",
                workload,
                name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    100.0 * (mb - ma) / ma.abs()
                },
                bound.map_or("-".to_string(), |(b, _)| format!("{:.0}%", 100.0 * b)),
                format!("{q1:.4}..{q3:.4}"),
                verdict
            );
        }
        let failed = |doc: &Value| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        if failed(b) > failed(a) {
            ok = false;
            println!(
                "{workload:<14} FAIL: more failed operations in B ({} vs {})",
                failed(b),
                failed(a)
            );
        }
    }
    println!(
        "# {}",
        if ok {
            "no regression outside a bound"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}

// ---------------------------------------------------------------------------
// --smoke
// ---------------------------------------------------------------------------

/// Shape rules of the benchmark contract that can be checked offline.
fn validate_benchmark_json(v: &Value) -> Result<(), String> {
    let keys: Vec<&str> = v
        .as_obj()
        .ok_or("not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys != want {
        return Err(format!("keys are {keys:?}, expected exactly {want:?}"));
    }
    let name_ok = |s: &str| {
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let arr = |k: &str| {
        v.get(k)
            .and_then(Value::as_arr)
            .ok_or(format!("{k} is not a list"))
    };
    let strs = |k: &str| -> Result<Vec<&str>, String> {
        arr(k)?
            .iter()
            .map(|s| s.as_str().ok_or(format!("{k} holds a non-string")))
            .collect()
    };

    let command = strs("command")?;
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        return Err("command must be 1-32 strings of at most 200 characters".into());
    }
    let paths = strs("paths")?;
    let path_ok = |p: &str| {
        (1..=200).contains(&p.len())
            && !p.starts_with('/')
            && !p.split('/').any(|c| c == "..")
            && p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
    };
    if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| path_ok(p)) {
        return Err("paths must be 1-16 relative directories".into());
    }
    for part in command.iter().filter(|s| s.contains('/')) {
        if part.starts_with('/')
            || part.split('/').any(|c| c == "..")
            || !paths.iter().any(|p| part.starts_with(p))
        {
            return Err(format!("command names {part:?}, which is outside paths"));
        }
    }
    let secs = v
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("run_seconds is not a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err("run_seconds must be a whole number from 1 to 60".into());
    }

    let mut names = std::collections::BTreeSet::new();
    let mut entry = |e: &Value, keys: &[&str]| -> Result<String, String> {
        let have: Vec<&str> = e
            .as_obj()
            .ok_or("entry is not an object")?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if have != keys {
            return Err(format!(
                "entry has keys {have:?}, expected exactly {keys:?}"
            ));
        }
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or("name is not a string")?;
        if !name_ok(name) || !names.insert(name.to_string()) {
            return Err(format!("bad or repeated name {name:?}"));
        }
        Ok(name.to_string())
    };
    let metric_fields = |e: &Value| -> Result<(), String> {
        let unit = e.get("unit").and_then(Value::as_str).unwrap_or("");
        let better = e.get("better").and_then(Value::as_str).unwrap_or("");
        if !unit_ok(unit) || !["lower", "higher"].contains(&better) {
            return Err(format!("bad unit {unit:?} or direction {better:?}"));
        }
        Ok(())
    };

    let workloads = arr("workloads")?;
    if !(2..=8).contains(&workloads.len()) {
        return Err("2 to 8 workloads".into());
    }
    for w in workloads {
        entry(w, &["name", "why"])?;
        let why = w.get("why").and_then(Value::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err("why must be one line of at most 200 characters".into());
        }
    }
    let e2e = arr("end_to_end")?;
    if !(1..=16).contains(&e2e.len()) {
        return Err("1 to 16 end-to-end metrics".into());
    }
    let mut has_setup = false;
    for e in e2e {
        let name = entry(e, &["name", "unit", "better", "bound"])?;
        metric_fields(e)?;
        let bound = e
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("bound is not a number")?;
        if !(0.0..=0.25).contains(&bound) {
            return Err(format!("{name}: bound {bound} outside 0..=0.25"));
        }
        if name == "setup_s" {
            has_setup = e.get("unit").and_then(Value::as_str) == Some("s")
                && e.get("better").and_then(Value::as_str) == Some("lower");
        }
    }
    if !has_setup {
        return Err("end_to_end needs setup_s in s, lower is better".into());
    }
    let layers = arr("per_layer")?;
    if !(1..=128).contains(&layers.len()) {
        return Err("1 to 128 per-layer metrics".into());
    }
    for e in layers {
        entry(e, &["name", "unit", "better"])?;
        metric_fields(e)?;
    }
    Ok(())
}

/// Every workload at toy size through both pipelines and all probes
/// (correctness only, nothing written), then `BENCHMARK.json` against the
/// contract's shape rules and against the metric tables.
pub fn smoke(expected_json: &str) -> Result<bool, String> {
    let t0 = std::time::Instant::now();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let r = run::run(&run::RunArgs {
            workload,
            seed: 1,
            seconds: 0.05,
            trace: true,
            toy: true,
            out_dir: None,
        })?;
        println!(
            "smoke {workload}: attempted {} failed {}",
            r.attempted, r.failed
        );
        for f in &r.failures {
            println!("  FAILED: {f}");
        }
        // Every name the tables promise for this workload must be measured.
        for d in PER_LAYER {
            let owned = d.on == "all" || d.on.split(' ').any(|w| w == *workload);
            if owned && !r.metrics.contains_key(d.name) {
                println!("  MISSING: {} is not measured on {workload}", d.name);
                ok = false;
            }
        }
        ok &= r.correct();
    }
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json is larger than 64 KiB".into());
    }
    let parsed = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    validate_benchmark_json(&parsed).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if parsed != json::parse(expected_json)? {
        println!("BENCHMARK.json differs from the benchmark's metric tables; regenerate it with --emit-benchmark-json");
        ok = false;
    } else {
        println!("smoke BENCHMARK.json: shape valid, matches the metric tables");
    }
    println!(
        "smoke {} in {:.1} s",
        if ok { "OK" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_benchmark_json_is_valid() {
        let v = json::parse(&crate::benchmark_json()).unwrap();
        validate_benchmark_json(&v).unwrap();
    }

    #[test]
    fn validation_rejects_contract_violations() {
        let good = crate::benchmark_json();
        for (from, to) in [
            ("\"bound\": 0.25", "\"bound\": 0.3"),
            ("\"setup_s\"", "\"setup\""),
            ("\"run_seconds\": 15", "\"run_seconds\": 61"),
            ("\"wall_s\"", "\"setup_s\""),
            ("[\"benchmark\"]", "[\"../benchmark\"]"),
            ("\"unit\": \"us\"", "\"unit\": \"micro seconds\""),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = json::parse(&good.replacen(from, to, 1)).unwrap();
            assert!(validate_benchmark_json(&bad).is_err(), "{from} -> {to}");
        }
    }

    /// A results file with one workload and the given metric values.
    fn results(seed: u64, metrics: &[(&str, &[f64])]) -> Value {
        let entries: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"unit\": \"s\", \"values\": {v:?}}}"))
            .collect();
        let text = format!(
            "{{\"seed\": {seed}, \"seconds\": 15, \"workloads\": {{\"dgemm_peak\": \
             {{\"attempted\": 10, \"failed\": 0, \"metrics\": {{{}}}}}}}}}",
            entries.join(", ")
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn compare_accepts_equal_files_and_fails_outside_a_bound() {
        let a = results(
            1,
            &[("wall_s", &[1.0, 1.01, 0.99, 1.0]), ("sim.blocks", &[64.0])],
        );
        assert_eq!(compare_docs(&a, &a), Ok(true));
        let slower = results(
            1,
            &[("wall_s", &[1.5, 1.51, 1.49, 1.5]), ("sim.blocks", &[64.0])],
        );
        assert_eq!(compare_docs(&a, &slower), Ok(false));
        let other_count = results(
            1,
            &[("wall_s", &[1.0, 1.01, 0.99, 1.0]), ("sim.blocks", &[65.0])],
        );
        assert_eq!(compare_docs(&a, &other_count), Ok(false));
    }

    #[test]
    fn compare_fails_when_b_lost_a_metric_or_a_workload() {
        let a = results(1, &[("wall_s", &[1.0]), ("sim.blocks", &[64.0])]);
        let lost_metric = results(1, &[("wall_s", &[1.0])]);
        assert_eq!(compare_docs(&a, &lost_metric), Ok(false));
        // The other way round the metric is new in B: reported, not failed.
        assert_eq!(compare_docs(&lost_metric, &a), Ok(true));
        let lost_workload =
            json::parse("{\"seed\": 1, \"seconds\": 15, \"workloads\": {}}").unwrap();
        assert_eq!(compare_docs(&a, &lost_workload), Ok(false));
    }

    #[test]
    fn compare_refuses_files_of_different_seeds_or_lengths() {
        let a = results(1, &[("wall_s", &[1.0])]);
        assert!(compare_docs(&a, &results(2, &[("wall_s", &[1.0])])).is_err());
        let mut longer = results(1, &[("wall_s", &[1.0])]);
        if let Value::Obj(pairs) = &mut longer {
            pairs[1].1 = Value::Num(30.0);
        }
        assert!(compare_docs(&a, &longer).is_err());
    }

    #[test]
    fn noise_comes_from_runs_or_from_repetitions() {
        let ten = [1.0, 1.0, 1.1, 1.2, 1.0, 1.0, 1.1, 1.2, 1.0, 1.0];
        assert_eq!(run_noise(&ten, true, &[0.5]), spread(&ten));
        // Three runs: a timing falls back to the repetitions' spread, a
        // once-per-process value does not.
        assert_eq!(run_noise(&[1.0, 1.0, 1.0], true, &[0.2, 0.3, 0.4]), 0.3);
        assert_eq!(run_noise(&[1.0, 1.0, 1.0], false, &[0.2, 0.3, 0.4]), 0.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }
}
