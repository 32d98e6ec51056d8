//! `hase_ase` — Fig. 10: `hase::AseProblem` exactly as repro_fig10 sizes it
//! (grid 64, 64x64 points, 48 rays, step 0.01) on a K20 and on a two-socket
//! E5-2630v3 node. A third use of the execution layer: data-dependent
//! `While` loops that never fuse, 10^5 divergent branches, special-function
//! ops and a per-point reduction.

use alpaka::{BufLayout, LaunchMode, WorkDiv};
use alpaka_sim::DeviceSpec;
use hase::{AseKernel, AseProblem};

use super::{ProgramUnderTest, Workload};
use crate::harness::{Harness, Recorder};
use crate::metrics::MetricSet;
use crate::simdev::SimDev;
use crate::spans::Layer;
use crate::util::{bit_equal, rel_err};

const RAYS: usize = 48;

struct Node {
    name: &'static str,
    dev: SimDev,
    flux: Vec<f64>,
}

pub struct HaseAse {
    problem: AseProblem,
    want: Vec<f64>,
    nodes: Vec<Node>,
}

/// What `Device::suggest_workdiv_1d` (which `AseProblem::run_on` uses)
/// yields on these two device models; the staged pipeline has no `Device`
/// to ask. The staged-equals-production statistics check guards the copy.
fn suggest_workdiv_1d(dev: &SimDev, n: usize) -> WorkDiv {
    if dev.single_thread_blocks() {
        let v = n.div_ceil(dev.spec.sms * 8).clamp(1, 4096);
        WorkDiv::d1(n.div_ceil(v), 1, v)
    } else {
        WorkDiv::d1(n.div_ceil(128), 128, 1)
    }
}

impl HaseAse {
    pub fn new(seed: u64, toy: bool, staged: bool) -> Self {
        // The seed drives the Monte-Carlo ray directions; the geometry (and
        // with it the amount of work, to within ray-length noise) is fixed.
        let problem = if toy {
            AseProblem {
                grid: 16,
                points: 8,
                rays: 8,
                step: 0.05,
                seed: seed as i64,
                ..AseProblem::default()
            }
        } else {
            AseProblem {
                grid: 64,
                points: 64,
                rays: RAYS,
                step: 0.01,
                seed: seed as i64,
                ..AseProblem::default()
            }
        };
        let mut node = DeviceSpec::e5_2630v3();
        node.sms *= 2;
        node.name = "2x Intel Xeon E5-2630v3".to_string();
        let nodes = [("ase_k20", DeviceSpec::k20()), ("ase_2x_e5", node)]
            .into_iter()
            .map(|(name, spec)| Node {
                name,
                dev: SimDev::new(spec, 1, staged),
                flux: Vec::new(),
            })
            .collect();
        HaseAse {
            want: problem.reference(),
            problem,
            nodes,
        }
    }
}

impl Workload for HaseAse {
    fn phases(&self) -> Vec<&'static str> {
        self.nodes.iter().map(|n| n.name).collect()
    }

    fn run_phase(&mut self, phase: usize, h: &mut Harness) {
        let p = &self.problem;
        let node = &mut self.nodes[phase];
        if let Some(dev) = node.dev.facade() {
            // Production entry point: allocation, upload, time_launch and
            // download in one call.
            let mut flux = Vec::new();
            h.launch("ase_run_on", Layer::Hase, || {
                p.run_on(dev, LaunchMode::Exact).map(|(f, run)| {
                    flux = f;
                    run.report
                })
            });
            node.flux = flux;
            return;
        }
        // Staged: the same steps as `AseProblem::run_on`, one span each.
        let dev = &mut node.dev;
        node.flux = h.span("ase_problem", Layer::Hase, |h| {
            let n = p.n_points();
            let gain_field = p.gain_field();
            let gain = dev.alloc_f(BufLayout::d1(p.grid * p.grid));
            dev.upload_f(h, &gain, &gain_field);
            let flux = dev.alloc_f(BufLayout::d1(n));
            let wd = suggest_workdiv_1d(dev, n);
            let bound = dev.bind(
                &[&gain, &flux],
                &[p.size, p.step, p.spont],
                &[p.grid as i64, p.points as i64, p.rays as i64, p.seed],
            );
            dev.launch(h, &AseKernel, &wd, &bound, LaunchMode::Exact);
            dev.download_f(h, &flux)
        });
    }

    fn check(&mut self, h: &mut Harness) {
        for node in &self.nodes {
            h.check(node.name, bit_equal(&node.flux, &self.want));
        }
    }

    fn programs(&self) -> Vec<ProgramUnderTest> {
        let n = self.problem.n_points();
        self.nodes
            .iter()
            .map(|node| {
                let wd = suggest_workdiv_1d(&node.dev, n);
                ProgramUnderTest {
                    spec: node.dev.spec.clone(),
                    prog: SimDev::compile(&AseKernel, &wd),
                    wd,
                    bufs: (2, 0),
                }
            })
            .collect()
    }

    fn derived(&self, rec: &Recorder, m: &mut MetricSet) {
        let worst = self
            .nodes
            .iter()
            .filter(|n| !n.flux.is_empty())
            .map(|n| rel_err(&n.flux, &self.want))
            .fold(0.0, f64::max);
        m.insert("hase.max_rel_err", worst);
        m.insert(
            "hase.divergent_branches",
            rec.stats.divergent_branches as f64,
        );
        if rec.exec_s > 0.0 {
            let rays = (self.nodes.len() * self.problem.n_points() * self.problem.rays) as f64;
            m.insert("hase.rays_per_s", rays / rec.exec_s);
        }
    }
}
