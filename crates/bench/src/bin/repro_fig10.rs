//! Reproduce Fig. 10: the HASE real-world application ported to Alpaka
//! shows performance portability — identical results everywhere, run time
//! tracking each platform's peak performance.
//!
//! The paper compares the native CUDA version with Alpaka(CUDA) on the same
//! K20 cluster (identical times) and Alpaka(OpenMP2) on 2x E5-2630v3 and
//! 4x Opteron 6276 nodes (time roughly doubles as node peak halves). We run
//! the `hase` Monte-Carlo ASE integrator on simulated devices configured as
//! those nodes.

use alpaka::{AccKind, Device, LaunchMode};
use alpaka_bench::{gflops, node, Table};
use alpaka_sim::DeviceSpec;
use hase::AseProblem;

fn main() {
    println!("# Fig. 10 — HASE (Monte-Carlo ASE) performance portability\n");
    // Sized so the K20 grid has a few blocks per SM, like the real
    // application's millions of rays would.
    let problem = AseProblem {
        grid: 64,
        points: 64,
        rays: 48,
        step: 0.01,
        ..Default::default()
    };
    let reference = problem.reference();

    let devices = vec![
        ("CUDA native (Sim K20)", DeviceSpec::k20(), true),
        ("Alpaka(CUDA) on K20", DeviceSpec::k20(), true),
        (
            "Alpaka(OMP2) on 2x E5-2630v3",
            node(DeviceSpec::e5_2630v3(), 2, "2x Intel Xeon E5-2630v3"),
            false,
        ),
        (
            "Alpaka(OMP2) on 4x Opteron 6276",
            node(DeviceSpec::opteron_6276(), 4, "4x AMD Opteron 6276"),
            false,
        ),
    ];

    let mut t = Table::new(&[
        "Platform",
        "Node peak GFLOPS",
        "t_sim [s]",
        "GFLOPS",
        "speedup vs CUDA native",
        "results identical",
    ]);
    let mut cuda_time = None;
    for (label, spec, is_gpu) in devices {
        let peak = spec.peak_gflops();
        let kind = if is_gpu {
            AccKind::SimGpu(spec)
        } else {
            AccKind::SimCpu(spec)
        };
        let dev = Device::new(kind);
        let (flux, run) = problem.run_on(&dev, LaunchMode::Exact).unwrap();
        let identical = flux == reference;
        let stats = run.report.as_ref().map(|r| r.stats).unwrap_or_default();
        let flops = (stats.total_flops() + 8 * stats.special_ops) as f64;
        let time = run.time_s;
        if cuda_time.is_none() {
            cuda_time = Some(time);
        }
        t.row(vec![
            label.into(),
            format!("{peak:.0}"),
            format!("{time:.5}"),
            format!("{:.1}", gflops(flops, time)),
            format!("{:.3}", cuda_time.unwrap() / time),
            identical.to_string(),
        ]);
        assert!(identical, "{label}: flux diverged from the host reference");
    }
    t.print();
    println!(
        "\nPaper: Alpaka(CUDA) on the K20 cluster is indistinguishable from the\n\
         native version; the CPU nodes take roughly 2x longer, matching their\n\
         roughly halved double-precision node peak. Shape check: row 2 speedup\n\
         = 1.0 exactly; CPU rows ~0.3–0.7 with identical results everywhere."
    );
}
