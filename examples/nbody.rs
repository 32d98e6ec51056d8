//! N-body simulation: leapfrog integration with a user-defined kernel.
//!
//! The acceleration kernel comes from the kernel zoo; the position/velocity
//! update kernel is defined *here*, in user code, to show that writing a
//! new single-source kernel takes a dozen lines and immediately runs on
//! every back-end.
//!
//! ```text
//! cargo run --release --example nbody -- cpu-blocks 256 20
//! ```

use alpaka::{AccKind, Args, BufLayout, Device, KernelOps, KernelOpsExt};
use alpaka_core::kernel::Kernel;
use alpaka_kernels::host::random_vec;
use alpaka_kernels::NBodyAccel;

/// Leapfrog kick+drift: `v += a*dt; x += v*dt` (user-defined kernel).
/// Buffers: 0 = pos ([x,y,z,m] x n), 1 = vel ([vx,vy,vz] x n),
/// 2 = acc ([ax,ay,az] x n); f64 scalar 0 = dt; i64 scalar 0 = n.
#[derive(Clone)]
struct KickDrift;

impl Kernel for KickDrift {
    fn name(&self) -> &str {
        "kick_drift"
    }
    #[inline]
    fn run<O: KernelOps>(&self, o: &mut O) {
        let pos = o.buf_f(0);
        let vel = o.buf_f(1);
        let acc = o.buf_f(2);
        let dt = o.param_f(0);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        let three = o.lit_i(3);
        let four = o.lit_i(4);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let vi = o.mul_i(i, three);
                let pi = o.mul_i(i, four);
                // Three components, unrolled at trace time (host loop).
                for comp in 0..3i64 {
                    let off = o.lit_i(comp);
                    let vidx = o.add_i(vi, off);
                    let pidx = o.add_i(pi, off);
                    let a = o.ld_gf(acc, vidx);
                    let vold = o.ld_gf(vel, vidx);
                    let vnew = o.fma_f(a, dt, vold);
                    o.st_gf(vel, vidx, vnew);
                    let p = o.ld_gf(pos, pidx);
                    let pnew = o.fma_f(vnew, dt, p);
                    o.st_gf(pos, pidx, pnew);
                }
            });
        });
    }
}

fn energy(pos: &[f64], vel: &[f64], soft2: f64) -> (f64, f64) {
    let n = pos.len() / 4;
    let mut kinetic = 0.0;
    let mut potential = 0.0;
    for i in 0..n {
        let m = pos[i * 4 + 3];
        let v2: f64 = (0..3).map(|c| vel[i * 3 + c] * vel[i * 3 + c]).sum();
        kinetic += 0.5 * m * v2;
        for j in (i + 1)..n {
            let dx = pos[j * 4] - pos[i * 4];
            let dy = pos[j * 4 + 1] - pos[i * 4 + 1];
            let dz = pos[j * 4 + 2] - pos[i * 4 + 2];
            let r = (dx * dx + dy * dy + dz * dz + soft2).sqrt();
            potential -= m * pos[j * 4 + 3] / r;
        }
    }
    (kinetic, potential)
}

fn main() {
    let mut cli = std::env::args().skip(1);
    let backend = cli.next().unwrap_or_else(|| "cpu-blocks".into());
    let n: usize = cli.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let steps: usize = cli.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let kind = match backend.as_str() {
        "cpu-serial" => AccKind::CpuSerial,
        "sim-k20" => AccKind::sim_k20(),
        _ => AccKind::CpuBlocks,
    };
    let dev = Device::new(kind);
    println!("nbody on {} ({n} bodies, {steps} steps)", dev.name());

    // Random cluster: positions in [0,10)^3, small masses, zero velocity.
    let mut pos_init = random_vec(n * 4, 77);
    for b in 0..n {
        pos_init[b * 4 + 3] = pos_init[b * 4 + 3] / 100.0 + 0.01;
    }
    let soft2 = 0.05;
    let dt = 0.005;

    let pos = dev.alloc_f64(BufLayout::d1(n * 4));
    let vel = dev.alloc_f64(BufLayout::d1(n * 3));
    let acc = dev.alloc_f64(BufLayout::d1(n * 3));
    pos.upload(&pos_init).unwrap();
    let wd = dev.suggest_workdiv_1d(n);

    let (k0, p0) = energy(&pos.download(), &vel.download(), soft2);
    println!("initial energy: kinetic {k0:.4}, potential {p0:.4}");

    for _ in 0..steps {
        let accel_args = Args::new()
            .buf_f(&pos)
            .buf_f(&acc)
            .scalar_f(soft2)
            .scalar_i(n as i64);
        dev.launch(&NBodyAccel, &wd, &accel_args).unwrap();
        let kick_args = Args::new()
            .buf_f(&pos)
            .buf_f(&vel)
            .buf_f(&acc)
            .scalar_f(dt)
            .scalar_i(n as i64);
        dev.launch(&KickDrift, &wd, &kick_args).unwrap();
    }

    let (k1, p1) = energy(&pos.download(), &vel.download(), soft2);
    println!("final energy:   kinetic {k1:.4}, potential {p1:.4}");
    let drift = ((k1 + p1) - (k0 + p0)).abs() / (k0 + p0).abs();
    println!("relative energy drift: {drift:.3e}");
    assert!(k1 > 0.0, "bodies must start moving");
    assert!(drift < 0.5, "leapfrog should roughly conserve energy");
}
