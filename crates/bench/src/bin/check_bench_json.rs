//! Validate the `BENCH_sim.json` perf-trajectory file at the repo root.
//!
//! Two benches write into this file — `sim_lowering` creates it, then
//! `pool_scaling` splices a `pool_scaling` entry into the existing body —
//! so a formatting slip in either one can silently corrupt it. This
//! checker gates that in `scripts/bench.sh --test` and `scripts/ci.sh`:
//! the body must parse under `alpaka_trace::validate_json` (the same
//! strict validator the trace exporters use) and carry the expected
//! `schema_version` plus the sections downstream tooling greps for.
//!
//! Usage: `check_bench_json [path]` (defaults to the repo-root file).

use std::process::ExitCode;

const SCHEMA_VERSION: u32 = 2;

fn fail(msg: String) -> ExitCode {
    eprintln!("check_bench_json: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").into());
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    if let Err(e) = alpaka_trace::validate_json(&body) {
        return fail(format!("{path} is not valid JSON: {e}"));
    }
    let marker = format!("\"schema_version\": {SCHEMA_VERSION}");
    if !body.contains(&marker) {
        return fail(format!(
            "{path} is missing {marker} — written by an old bench or hand-edited?"
        ));
    }
    // The sections every consumer of the trajectory file relies on. A
    // missing pool_scaling entry is fine (sim_lowering rewrites the file
    // from scratch); a present-but-mangled one is caught by the JSON
    // validation above.
    for key in ["\"workloads\"", "\"host_cpus\""] {
        if !body.contains(key) {
            return fail(format!("{path} is missing the {key} section"));
        }
    }
    let spliced = if body.contains("\"pool_scaling\"") {
        " (+pool_scaling)"
    } else {
        ""
    };
    eprintln!("check_bench_json: {path} OK, schema_version {SCHEMA_VERSION}{spliced}");
    ExitCode::SUCCESS
}
