//! `dgemm_peak` — the Fig. 9 shape. `DgemmTiled` n=256 on the five Table 3
//! device models (`t=1,e=64` on CPU models, `t=16,e=2` on GPU models) plus
//! the 4096-block `DgemmNaive` of BENCH_sim.json, all `LaunchMode::Exact`.
//! 16-64 long blocks per launch with fused affine inner loops: simulator
//! execution and the cache model do >95% of the work, the front end <1%.
//! It also yields the paper-fidelity number (share of peak per device).

use alpaka::{BufLayout, LaunchMode, WorkDiv};
use alpaka_core::acc::DeviceKind;
use alpaka_kernels::host::{dgemm_ref, random_matrix};
use alpaka_kernels::{DgemmNaive, DgemmTiled};
use alpaka_sim::DeviceSpec;

use super::{ProgramUnderTest, Workload};
use crate::harness::{Harness, Recorder};
use crate::metrics::MetricSet;
use crate::simdev::{Bound, Buf, SimDev};
use crate::util::rel_err;

enum Gemm {
    Tiled(DgemmTiled),
    Naive,
}

struct Case {
    name: &'static str,
    dev: SimDev,
    kernel: Gemm,
    wd: WorkDiv,
    bound: Bound,
    c: Buf,
    want: Vec<f64>,
    flops: f64,
    /// Modelled seconds of the latest launch (0 until it ran).
    time_s: f64,
}

pub struct DgemmPeak {
    toy: bool,
    cases: Vec<Case>,
}

fn naive_case(seed: u64, toy: bool, staged: bool, h: &mut Harness) -> Case {
    let rows = if toy { 64 } else { 4096 };
    case(
        "naive_4096",
        DeviceSpec::e5_2630v3(),
        Gemm::Naive,
        DgemmNaive::workdiv(rows, 1),
        (rows, 64, 64),
        seed.wrapping_mul(1000) + 90,
        staged,
        h,
    )
}

/// Body of the child process behind `trace.traced_slowdown` and
/// `metrics.enabled_slowdown`: one warm `naive_4096` launch through
/// `time_launch`, wall seconds on stdout. The observability switches are
/// read from the environment once per process, hence a child.
pub fn child_launch(toy: bool) -> Result<f64, String> {
    let mut h = Harness::new(false);
    let mut c = naive_case(1, toy, false, &mut h);
    let mut times = Vec::new();
    for _ in 0..2 {
        let t = std::time::Instant::now();
        c.dev
            .launch(&mut h, &DgemmNaive, &c.wd, &c.bound, LaunchMode::Exact);
        times.push(t.elapsed().as_secs_f64());
    }
    match h.rec.failed {
        0 => Ok(times[1]),
        _ => Err(h.rec.failures.join("; ")),
    }
}

/// Run [`child_launch`] in a child with one environment variable set (or
/// none) and read its time back.
fn child_time(toy: bool, var: Option<&str>) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--child-launch")
        .arg(if toy { "toy" } else { "full" });
    if let Some(var) = var {
        // The value is an export path; nothing is written unless the
        // program asks an exporter to, and the child does not.
        cmd.env(var, "benchmark/out/child-observability");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).into_owned());
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("child printed no time: {e}"))
}

#[allow(clippy::too_many_arguments)]
fn case(
    name: &'static str,
    spec: DeviceSpec,
    kernel: Gemm,
    wd: WorkDiv,
    (m, n, k): (usize, usize, usize),
    seed: u64,
    staged: bool,
    h: &mut Harness,
) -> Case {
    let mut dev = SimDev::new(spec, 1, staged);
    let (a, b, c) = (
        random_matrix(m, k, seed),
        random_matrix(k, n, seed + 1),
        random_matrix(m, n, seed + 2),
    );
    let mut want = c.clone();
    dgemm_ref(m, n, k, 1.0, &a, &b, 0.0, &mut want);
    let da = dev.alloc_f(BufLayout::d2(m, k, 8));
    let db = dev.alloc_f(BufLayout::d2(k, n, 8));
    let dc = dev.alloc_f(BufLayout::d2(m, n, 8));
    dev.upload_f(h, &da, &a);
    dev.upload_f(h, &db, &b);
    dev.upload_f(h, &dc, &c);
    // beta = 0: every launch overwrites C, so repetitions are idempotent.
    let bound = dev.bind(
        &[&da, &db, &dc],
        &[1.0, 0.0],
        &[
            m as i64,
            n as i64,
            k as i64,
            da.pitch(),
            db.pitch(),
            dc.pitch(),
        ],
    );
    Case {
        name,
        dev,
        kernel,
        wd,
        bound,
        c: dc,
        want,
        flops: 2.0 * (m * n * k) as f64,
        time_s: 0.0,
    }
}

impl DgemmPeak {
    pub fn new(seed: u64, toy: bool, staged: bool) -> Self {
        let n = if toy { 64 } else { 256 };
        let mut h = Harness::new(false);
        let names = ["opteron_6276", "e5_2609", "e5_2630v3", "k20", "k80"];
        let mut cases: Vec<Case> = DeviceSpec::table3()
            .into_iter()
            .zip(names)
            .enumerate()
            .map(|(i, (spec, name))| {
                let kern = match spec.kind {
                    DeviceKind::Gpu => DgemmTiled { t: 16, e: 2 },
                    DeviceKind::Cpu => DgemmTiled { t: 1, e: 64 },
                };
                let wd = kern.workdiv(n, n);
                let s = seed.wrapping_mul(1000) + 10 * i as u64;
                case(
                    name,
                    spec,
                    Gemm::Tiled(kern),
                    wd,
                    (n, n, n),
                    s,
                    staged,
                    &mut h,
                )
            })
            .collect();
        cases.push(naive_case(seed, toy, staged, &mut h));
        assert_eq!(
            h.rec.failed, 0,
            "set-up uploads failed: {:?}",
            h.rec.failures
        );
        DgemmPeak { toy, cases }
    }

    /// Modelled share of peak of the Table 3 cases that have run.
    fn rel_peak(&self) -> Vec<f64> {
        self.cases
            .iter()
            .filter(|c| matches!(c.kernel, Gemm::Tiled(_)) && c.time_s > 0.0)
            .map(|c| c.flops / c.time_s / 1e9 / c.dev.spec.peak_gflops())
            .collect()
    }
}

impl Workload for DgemmPeak {
    fn phases(&self) -> Vec<&'static str> {
        self.cases.iter().map(|c| c.name).collect()
    }

    fn run_phase(&mut self, phase: usize, h: &mut Harness) {
        let c = &mut self.cases[phase];
        let rep = match &c.kernel {
            Gemm::Tiled(k) => c.dev.launch(h, k, &c.wd, &c.bound, LaunchMode::Exact),
            Gemm::Naive => c
                .dev
                .launch(h, &DgemmNaive, &c.wd, &c.bound, LaunchMode::Exact),
        };
        if let Some(rep) = rep {
            c.time_s = rep.time.total_s;
        }
    }

    fn check(&mut self, h: &mut Harness) {
        for c in &self.cases {
            let got = c.dev.download_f(h, &c.c);
            h.check(c.name, rel_err(&got, &c.want) <= 1e-13);
        }
    }

    fn programs(&self) -> Vec<ProgramUnderTest> {
        self.cases
            .iter()
            .map(|c| {
                let prog = match &c.kernel {
                    Gemm::Tiled(k) => SimDev::compile(k, &c.wd),
                    Gemm::Naive => SimDev::compile(&DgemmNaive, &c.wd),
                };
                ProgramUnderTest {
                    spec: c.dev.spec.clone(),
                    prog,
                    wd: c.wd,
                    bufs: (3, 0),
                }
            })
            .collect()
    }

    fn probes(&mut self, _seed: u64, h: &mut Harness, m: &mut MetricSet) {
        // What the env-enabled observability costs the launch it observes;
        // ROADMAP item 2a should bring both to ~1.
        let base = h.op("child launch", child_time(self.toy, None));
        for (var, metric) in [
            ("ALPAKA_SIM_TRACE", "trace.traced_slowdown"),
            ("ALPAKA_SIM_METRICS", "metrics.enabled_slowdown"),
        ] {
            let with = h.op("child launch", child_time(self.toy, Some(var)));
            if let (Some(base), Some(with)) = (base, with) {
                m.insert(metric, with / base);
            }
        }
    }

    fn derived(&self, _rec: &Recorder, m: &mut MetricSet) {
        let shares = self.rel_peak();
        if shares.is_empty() {
            return;
        }
        let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
        let max = shares.iter().copied().fold(0.0, f64::max);
        m.insert("sim.model_rel_peak_min", min);
        m.insert("sim.model_rel_peak_max", max);
        // The paper's Fig. 9 claim: every architecture near 20% of peak.
        let err = shares
            .iter()
            .map(|s| (s - 0.20).abs() / 0.20)
            .fold(0.0, f64::max);
        m.insert("sim.rel_peak_err", err);
    }
}
