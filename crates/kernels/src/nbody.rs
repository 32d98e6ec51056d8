//! All-pairs N-body acceleration step with Plummer softening.
//!
//! Arguments: f64 buffers 0 = positions+masses (`[x,y,z,m]` per body),
//! 1 = accelerations (`[ax,ay,az]` per body, out); f64 scalar 0 =
//! softening²; i64 scalar 0 = n bodies.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

/// One acceleration evaluation (the O(n²) inner loop of a leapfrog step).
#[derive(Debug, Clone, Copy, Default)]
pub struct NBodyAccel;

impl Kernel for NBodyAccel {
    fn name(&self) -> &str {
        "nbody_accel"
    }

    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let pos = o.buf_f(0);
        let acc = o.buf_f(1);
        let soft2 = o.param_f(0);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let four = o.lit_i(4);
        let three = o.lit_i(3);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let pi = o.mul_i(i, four);
                let xi = o.ld_gf(pos, pi);
                let one = o.lit_i(1);
                let two = o.lit_i(2);
                let pi1 = o.add_i(pi, one);
                let pi2 = o.add_i(pi, two);
                let yi = o.ld_gf(pos, pi1);
                let zi = o.ld_gf(pos, pi2);
                let zf = o.lit_f(0.0);
                let ax = o.var_f(zf);
                let ay = o.var_f(zf);
                let az = o.var_f(zf);
                let zero = o.lit_i(0);
                o.for_range(zero, n, |o, j| {
                    let pj = o.mul_i(j, four);
                    let one = o.lit_i(1);
                    let two = o.lit_i(2);
                    let three_i = o.lit_i(3);
                    let pj1 = o.add_i(pj, one);
                    let pj2 = o.add_i(pj, two);
                    let pj3 = o.add_i(pj, three_i);
                    let xj = o.ld_gf(pos, pj);
                    let yj = o.ld_gf(pos, pj1);
                    let zj = o.ld_gf(pos, pj2);
                    let mj = o.ld_gf(pos, pj3);
                    let dx = o.sub_f(xj, xi);
                    let dy = o.sub_f(yj, yi);
                    let dz = o.sub_f(zj, zi);
                    let dx2 = o.mul_f(dx, dx);
                    let r2a = o.fma_f(dy, dy, dx2);
                    let r2b = o.fma_f(dz, dz, r2a);
                    let r2 = o.add_f(r2b, soft2);
                    let r = o.sqrt_f(r2);
                    let r3 = o.mul_f(r2, r);
                    let inv = o.div_f(mj, r3);
                    let axv = o.vget_f(ax);
                    let nx = o.fma_f(dx, inv, axv);
                    o.vset_f(ax, nx);
                    let ayv = o.vget_f(ay);
                    let ny = o.fma_f(dy, inv, ayv);
                    o.vset_f(ay, ny);
                    let azv = o.vget_f(az);
                    let nz = o.fma_f(dz, inv, azv);
                    o.vset_f(az, nz);
                });
                let ai = o.mul_i(i, three);
                let one = o.lit_i(1);
                let two = o.lit_i(2);
                let ai1 = o.add_i(ai, one);
                let ai2 = o.add_i(ai, two);
                let axv = o.vget_f(ax);
                let ayv = o.vget_f(ay);
                let azv = o.vget_f(az);
                o.st_gf(acc, ai, axv);
                o.st_gf(acc, ai1, ayv);
                o.st_gf(acc, ai2, azv);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{nbody_accel_ref, random_vec, rel_err};
    use alpaka::{AccKind, Args, BufLayout, Device};

    fn bodies(n: usize, seed: u64) -> Vec<f64> {
        // x,y,z in [0,10); mass in (0, 1].
        let raw = random_vec(n * 4, seed);
        let mut out = raw;
        for b in 0..n {
            out[b * 4 + 3] = out[b * 4 + 3] / 10.0 + 0.1;
        }
        out
    }

    #[test]
    fn nbody_matches_reference_on_all_backends() {
        let n = 60usize;
        let pos = bodies(n, 5);
        let soft2 = 0.01;
        let mut want = vec![0.0; n * 3];
        nbody_accel_ref(&pos, &mut want, soft2);
        for kind in [
            AccKind::CpuSerial,
            AccKind::CpuBlocks,
            AccKind::CpuThreads,
            AccKind::sim_k20(),
            AccKind::sim_e5_2630v3(),
        ] {
            let dev = Device::with_workers(kind.clone(), 4);
            let p = dev.alloc_f64(BufLayout::d1(n * 4));
            let a = dev.alloc_f64(BufLayout::d1(n * 3));
            p.upload(&pos).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new()
                .buf_f(&p)
                .buf_f(&a)
                .scalar_f(soft2)
                .scalar_i(n as i64);
            dev.launch(&NBodyAccel, &wd, &args).unwrap();
            let got = a.download();
            assert!(rel_err(&got, &want) < 1e-12, "{kind:?}");
        }
    }
}
