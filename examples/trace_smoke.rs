//! Trace smoke: the `ALPAKA_SIM_TRACE` end-to-end path in one binary.
//!
//! With the variable set, one DGEMM launch on the simulated E5-2630v3 is
//! traced and exported through [`alpaka::Tracer`]; the binary then
//! re-validates everything CI cares about — the Chrome JSON parses, the
//! stream is non-empty, every block has a span, and the per-instruction
//! profile ties out against the launch counters — and prints the hot-spot
//! table. Without the variable it asserts the zero-cost contract instead:
//! the same launch records no events and collects no profile.
//!
//! ```text
//! ALPAKA_SIM_TRACE=/tmp/smoke cargo run --release --example trace_smoke
//! cargo run --release --example trace_smoke   # no-trace path
//! ```

use alpaka::{
    validate_json, AccKind, Args, BufLayout, Device, Obs, Queue, QueueBehavior, SimReport, Tracer,
};
use alpaka_kernels::host::{dgemm_ref, random_matrix, rel_err};
use alpaka_kernels::DgemmTiled;

fn run_dgemm() -> SimReport {
    let (m, n, k) = (48, 40, 32);
    let a = random_matrix(m, k, 21);
    let b = random_matrix(k, n, 22);
    let c0 = random_matrix(m, n, 23);
    let kern = DgemmTiled { t: 1, e: 4 };
    let wd = kern.workdiv(m, n);
    let dev = Device::new(AccKind::sim_e5_2630v3());
    let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
    let ab = dev.alloc_f64(BufLayout::d2(m, k, 8));
    let bb = dev.alloc_f64(BufLayout::d2(k, n, 8));
    let cb = dev.alloc_f64(BufLayout::d2(m, n, 8));
    ab.upload(&a).unwrap();
    bb.upload(&b).unwrap();
    cb.upload(&c0).unwrap();
    let args = Args::new()
        .buf_f(&ab)
        .buf_f(&bb)
        .buf_f(&cb)
        .scalar_f(1.0)
        .scalar_f(0.0)
        .scalar_i(m as i64)
        .scalar_i(n as i64)
        .scalar_i(k as i64)
        .scalar_i(ab.layout().pitch as i64)
        .scalar_i(bb.layout().pitch as i64)
        .scalar_i(cb.layout().pitch as i64);
    q.enqueue_kernel(&kern, &wd, &args).unwrap();
    q.wait().unwrap();
    let mut want = c0.clone();
    dgemm_ref(m, n, k, 1.0, &a, &b, 0.0, &mut want);
    assert!(rel_err(&cb.download(), &want) < 1e-13, "wrong result");
    q.last_sim_report().expect("sim launch leaves a report")
}

fn main() {
    match Tracer::from_env() {
        Some(mut tracer) => {
            let report = run_dgemm();
            let paths = tracer.flush().expect("trace export files written");
            assert!(!tracer.events().is_empty(), "traced run recorded no events");
            let json = std::fs::read_to_string(&paths[0]).unwrap();
            validate_json(&json).unwrap_or_else(|e| panic!("invalid chrome JSON: {e}"));
            let blocks = tracer
                .events()
                .iter()
                .filter(|e| e.kind == alpaka::TraceKind::BlockExec)
                .count() as u64;
            assert_eq!(blocks, report.stats.blocks, "one span per block");
            let profile = report.profile.as_ref().expect("traced run carries profile");
            profile
                .check_against(&report.stats)
                .unwrap_or_else(|e| panic!("profile does not tie out: {e}"));
            println!(
                "trace_smoke: {} events, {} block spans -> {}",
                tracer.events().len(),
                blocks,
                paths
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            println!("\nhot spots:\n{}", profile.render_table(8));
        }
        None => {
            let report = run_dgemm();
            let events = Obs::current().drain();
            assert!(events.is_empty(), "untraced run must record no events");
            assert!(
                report.profile.is_none(),
                "untraced run must not collect a profile"
            );
            println!(
                "trace_smoke: tracing disabled, 0 events recorded, no profile ({} blocks simulated)",
                report.stats.blocks
            );
        }
    }
}
