//! Layered end-to-end benchmark of the Alpaka reproduction.
//!
//! `benchmark/run.sh` builds this package and runs it from the repository
//! root. Modes:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; prints every metric as `name value unit` and,
//!   as the last line, the JSON object the benchmark contract asks for.
//! * no `--workload` — every workload, each run in a process of its own
//!   (`--runs R` untraced runs plus one traced run), results collected into
//!   `benchmark/out/results-seed<N>.json`.
//! * `--traced` — only the traced run of every workload.
//! * `--compare A.json B.json` — the regression table later changes quote.
//! * `--smoke` — every workload at toy size plus `BENCHMARK.json` validation.

mod harness;
mod json;
mod metrics;
mod report;
mod run;
mod simdev;
mod spans;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: u64 = 15;
const OUT_DIR: &str = "benchmark/out";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    traced_only: bool,
    smoke: bool,
    compare: Option<(String, String)>,
    emit: bool,
    child: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 3,
        traced_only: false,
        smoke: false,
        compare: None,
        emit: false,
        child: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => cli.seed = num(&value(&mut it, arg)?, arg)?,
            "--seconds" => {
                cli.seconds = num(&value(&mut it, arg)?, arg)?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--runs" => {
                cli.runs = num(&value(&mut it, arg)?, arg)?;
                if !(1..=100).contains(&cli.runs) {
                    return Err("--runs must be in 1..=100".to_string());
                }
            }
            "--traced" => cli.traced_only = true,
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--emit-benchmark-json" => cli.emit = true,
            "--child-launch" => cli.child = Some(value(&mut it, arg)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The benchmark measures defaults. An ambient `ALPAKA_SIM_*` variable
/// would silently change the engine, thread count, fault plan or
/// observability of every launch, so refuse to run under one.
fn guard_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ALPAKA_SIM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the defaults (unset and retry)",
            set.join(", ")
        ))
    }
}

/// `BENCHMARK.json` as the metric tables define it.
fn benchmark_json() -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let mut out = String::from("{\n");
    out += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let list = |out: &mut String, key: &str, items: Vec<Value>, last: bool| {
        *out += &format!("  \"{key}\": [\n");
        let n = items.len();
        for (i, item) in items.into_iter().enumerate() {
            *out += &format!(
                "    {}{}\n",
                item.render(),
                if i + 1 < n { "," } else { "" }
            );
        }
        *out += if last { "  ]\n" } else { "  ],\n" };
    };
    list(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|(name, why)| json::obj(vec![("name", s(name)), ("why", s(why))]))
            .collect(),
        false,
    );
    list(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|d| {
                json::obj(vec![
                    ("name", s(d.name)),
                    ("unit", s(d.unit)),
                    ("better", s(d.better.name())),
                    ("bound", Value::Num(d.bound)),
                ])
            })
            .collect(),
        false,
    );
    list(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|d| {
                json::obj(vec![
                    ("name", s(d.name)),
                    ("unit", s(d.unit)),
                    ("better", s(d.better.name())),
                ])
            })
            .collect(),
        true,
    );
    out + "}\n"
}

/// One run of one workload in this process (the contract's mode).
fn run_single(cli: &Cli, workload: &str) -> Result<bool, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    let result = run::run(&run::RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        toy: false,
        out_dir: Some(&out_dir),
    })?;
    report::print_run(workload, cli.seed, cli.trace, &result);
    // Last line: the object the contract asks for, every digit kept.
    let metrics = result
        .contract_metrics(cli.trace)
        .into_iter()
        .map(|(name, unit, v)| {
            let entry = json::obj(vec![
                ("value", Value::Num(v)),
                ("unit", Value::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = json::obj(vec![
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(result.correct())
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    if let Some(size) = &cli.child {
        // Started by the dgemm_peak probe with an observability variable
        // set on purpose: no environment guard here.
        let t = workloads::dgemm_peak::child_launch(size == "toy")?;
        println!("{t}");
        return Ok(true);
    }
    if cli.emit {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return report::compare(a, b);
    }
    guard_environment()?;
    if cli.smoke {
        return report::smoke(&benchmark_json());
    }
    match &cli.workload {
        Some(w) => run_single(&cli, w),
        None => report::run_all(cli.seed, cli.seconds, cli.runs, cli.traced_only, OUT_DIR),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("alpaka-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
