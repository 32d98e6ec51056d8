//! The ASE Monte-Carlo integration kernel and its bit-exact host reference.
//!
//! Physical model (a deliberately simplified HASEonGPU): a 2-D square gain
//! medium of edge `size`, discretized into `grid x grid` cells with a
//! pump-induced gain coefficient per cell. The amplified spontaneous
//! emission (ASE) flux at a sample point is estimated by Monte-Carlo ray
//! integration: rays leave the point in random directions and are marched
//! to the boundary; spontaneous emission collected along the ray is
//! amplified by the accumulated optical gain,
//! `flux = mean_rays( sum_steps spont * exp(gain_integral) * h )`.
//!
//! The RNG is counter-based (SplitMix64), so the estimate is a pure
//! function of `(sample point, ray index, seed)` — identical on every
//! back-end, which is how the cross-back-end tests verify the port, just
//! as the paper verified HASEonAlpaka against HASEonGPU.
//!
//! Arguments:
//! * f64 buffers: 0 = gain field (`grid*grid`), 1 = flux out (`points²`)
//! * f64 scalars: 0 = size, 1 = step h, 2 = spont emission coefficient
//! * i64 scalars: 0 = grid, 1 = points, 2 = rays, 3 = seed

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

/// Maximum ray-march steps (also enforced by the host reference).
pub const MAX_STEPS: i64 = 4096;

/// The single-source ASE estimator kernel: one sample point per element.
#[derive(Debug, Clone, Copy, Default)]
pub struct AseKernel;

impl Kernel for AseKernel {
    fn name(&self) -> &str {
        "hase_ase"
    }

    #[allow(clippy::too_many_lines)]
    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let gain = o.buf_f(0);
        let flux = o.buf_f(1);
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
            let in_range = o.lt_i(p, npts);
            o.if_(in_range, |o| {
                // Sample point coordinates: cell centres of a points x
                // points grid over the medium.
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

                let zf = o.lit_f(0.0);
                let total = o.var_f(zf);
                let zero = o.lit_i(0);
                o.for_range(zero, rays, |o, r| {
                    // Direction from the counter-based RNG.
                    let ctr = o.mul_i(p, rays);
                    let ctr = o.add_i(ctr, r);
                    let u = o.rand_unit_f(ctr, seed);
                    let two_pi = o.lit_f(core::f64::consts::TAU);
                    let theta = o.mul_f(u, two_pi);
                    let dx = o.cos_f(theta);
                    let dy = o.sin_f(theta);

                    // Ray march.
                    let x = o.var_f(x0);
                    let y = o.var_f(y0);
                    let zf2 = o.lit_f(0.0);
                    let opt = o.var_f(zf2); // accumulated optical gain
                    let ray_flux = o.var_f(zf2);
                    let zi = o.lit_i(0);
                    let steps = o.var_i(zi);
                    o.while_(
                        |o| {
                            let xv = o.vget_f(x);
                            let yv = o.vget_f(y);
                            let z = o.lit_f(0.0);
                            let sv = o.vget_i(steps);
                            let maxs = o.lit_i(MAX_STEPS);
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
                            // Gain of the current cell.
                            let xv = o.vget_f(x);
                            let yv = o.vget_f(y);
                            let gf = o.i2f(grid);
                            let sx = o.div_f(xv, size);
                            let sy = o.div_f(yv, size);
                            let cxf = o.mul_f(sx, gf);
                            let cyf = o.mul_f(sy, gf);
                            let cx = o.f2i(cxf);
                            let cy = o.f2i(cyf);
                            // Clamp to the grid (floating error guard).
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

                            // Emission collected this step, amplified by
                            // the gain accumulated so far.
                            let ov = o.vget_f(opt);
                            let amp = o.exp_f(ov);
                            let em = o.mul_f(spont, h);
                            let contrib = o.mul_f(em, amp);
                            let fv = o.vget_f(ray_flux);
                            let nf = o.add_f(fv, contrib);
                            o.vset_f(ray_flux, nf);

                            // Accumulate gain and advance.
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
                    let rf = o.vget_f(ray_flux);
                    let tv = o.vget_f(total);
                    let nt = o.add_f(tv, rf);
                    o.vset_f(total, nt);
                });
                let tv = o.vget_f(total);
                let rf = o.i2f(rays);
                let mean = o.div_f(tv, rf);
                o.st_gf(flux, p, mean);
            });
        });
    }
}

/// Bit-exact host reference: mirrors the kernel's operation order exactly
/// (same `mul_add` use, same RNG), so back-end results must be *equal*,
/// not just close.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's parameter list
pub fn ase_reference(
    gain: &[f64],
    grid: usize,
    points: usize,
    rays: usize,
    size: f64,
    h: f64,
    spont: f64,
    seed: i64,
) -> Vec<f64> {
    let splitmix = |x: i64| -> i64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15_u64 as i64);
        z ^= ((z as u64) >> 30) as i64;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9_u64 as i64);
        z ^= ((z as u64) >> 27) as i64;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB_u64 as i64);
        z ^= ((z as u64) >> 31) as i64;
        z
    };
    let unit = |x: i64| -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (((x as u64) >> 11) as f64) * SCALE
    };
    let rand_unit = |counter: i64, stream: i64| -> f64 {
        let mixed = splitmix(stream);
        unit(splitmix(counter ^ mixed))
    };

    let npts = points * points;
    let mut out = vec![0.0; npts];
    for (p, slot) in out.iter_mut().enumerate() {
        let py = p / points;
        let px = p % points;
        let cell = size / points as f64;
        let x0 = (px as f64 + 0.5) * cell;
        let y0 = (py as f64 + 0.5) * cell;
        let mut total = 0.0;
        for r in 0..rays {
            let ctr = (p * rays + r) as i64;
            let u = rand_unit(ctr, seed);
            let theta = u * core::f64::consts::TAU;
            let dx = theta.cos();
            let dy = theta.sin();
            let mut x = x0;
            let mut y = y0;
            let mut opt: f64 = 0.0;
            let mut ray_flux = 0.0;
            let mut steps: i64 = 0;
            while x >= 0.0 && x < size && y >= 0.0 && y < size && steps < MAX_STEPS {
                let cx = ((x / size) * grid as f64) as i64;
                let cy = ((y / size) * grid as f64) as i64;
                let cx = cx.clamp(0, grid as i64 - 1) as usize;
                let cy = cy.clamp(0, grid as i64 - 1) as usize;
                let g = gain[cy * grid + cx];
                let amp = opt.exp();
                ray_flux += (spont * h) * amp;
                opt += g * h;
                x += dx * h;
                y += dy * h;
                steps += 1;
            }
            total += ray_flux;
        }
        *slot = total / rays as f64;
    }
    out
}
