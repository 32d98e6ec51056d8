//! Stress tests for the CPU back-end substrates: many barriers, wide
//! blocks, block-team churn.

use alpaka_core::buffer::{BufLayout, HostBuf};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_core::pool::run_indexed;
use alpaka_core::workdiv::WorkDiv;
use alpaka_cpu::{CpuAccKind, CpuArgs, CpuDevice};

/// Ping-pong through shared memory `rounds` times: each round every thread
/// writes its slot, barriers, reads its neighbour's slot, barriers.
#[derive(Clone)]
struct BarrierStorm {
    rounds: i64,
}

impl Kernel for BarrierStorm {
    fn name(&self) -> &str {
        "barrier_storm"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let out = o.buf_f(0);
        let sh = o.shared_f(256);
        let tid = o.thread_idx(0);
        let bdim = o.block_thread_extent(0);
        let zero = o.lit_i(0);
        let rounds = o.lit_i(self.rounds);
        let zf = o.lit_f(0.0);
        let acc = o.var_f(zf);
        o.for_range(zero, rounds, |o, r| {
            let rf = o.i2f(r);
            let tf = o.i2f(tid);
            let v = o.add_f(rf, tf);
            o.st_sf(sh, tid, v);
            o.sync_block_threads();
            // Read the cyclic neighbour.
            let one = o.lit_i(1);
            let t1 = o.add_i(tid, one);
            let nb = o.rem_i(t1, bdim);
            let nv = o.ld_sf(sh, nb);
            let cur = o.vget_f(acc);
            let nx = o.add_f(cur, nv);
            o.vset_f(acc, nx);
            o.sync_block_threads();
        });
        let gid = o.linear_global_thread_idx();
        let total = o.vget_f(acc);
        o.st_gf(out, gid, total);
    }
}

fn barrier_storm_expected(bdim: usize, rounds: i64, tid: usize) -> f64 {
    let nb = (tid + 1) % bdim;
    (0..rounds).map(|r| (r as f64) + nb as f64).sum()
}

fn run_storm(kind: CpuAccKind, block: usize, rounds: i64) {
    let dev = CpuDevice::with_workers(kind, 4);
    let out = HostBuf::<f64>::alloc(BufLayout::d1(2 * block));
    let args = CpuArgs::new().buf_f(&out);
    dev.launch(&BarrierStorm { rounds }, &WorkDiv::d1(2, block, 1), &args)
        .unwrap();
    for b in 0..2 {
        for t in 0..block {
            assert_eq!(
                out.as_slice()[b * block + t],
                barrier_storm_expected(block, rounds, t),
                "block {b} thread {t}"
            );
        }
    }
}

#[test]
fn barrier_storm_threads() {
    run_storm(CpuAccKind::Threads, 64, 50);
}

#[test]
fn barrier_storm_block_threads() {
    run_storm(CpuAccKind::BlockThreads, 64, 50);
}

#[test]
fn barrier_storm_block_threads_256_wide() {
    // 2 x 500 generations of a 256-thread team, plus the team barrier
    // between the two blocks.
    run_storm(CpuAccKind::BlockThreads, 256, 500);
}

#[test]
fn barrier_storm_fibers() {
    run_storm(CpuAccKind::Fibers, 32, 30);
}

#[test]
fn wide_block_on_threads_backend() {
    // 256 OS threads in one block, a couple of syncs.
    run_storm(CpuAccKind::Threads, 256, 3);
}

#[test]
fn pool_handles_many_tiny_grids() {
    for round in 0..200 {
        let hits = std::sync::atomic::AtomicUsize::new(0);
        run_indexed(4, round % 7 + 1, |_| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(
            hits.load(std::sync::atomic::Ordering::Relaxed),
            round % 7 + 1
        );
    }
}

#[test]
fn splitmix_matches_host_formula() {
    // The DSL helper `KernelOpsExt::splitmix64` must equal the host
    // SplitMix64 used by workload generators and the hase reference.
    #[derive(Clone)]
    struct Mix;
    impl Kernel for Mix {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let input = o.buf_i(0);
            let out = o.buf_i(1);
            let i = o.linear_global_thread_idx();
            let x = o.ld_gi(input, i);
            let m = o.splitmix64(x);
            o.st_gi(out, i, m);
        }
    }
    fn host_splitmix(x: i64) -> i64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15_u64 as i64);
        z ^= ((z as u64) >> 30) as i64;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9_u64 as i64);
        z ^= ((z as u64) >> 27) as i64;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB_u64 as i64);
        z ^= ((z as u64) >> 31) as i64;
        z
    }
    let inputs: Vec<i64> = vec![0, 1, -1, 42, i64::MIN, i64::MAX, 0x1234_5678_9ABC_DEF0];
    let n = inputs.len();
    let dev = CpuDevice::with_workers(CpuAccKind::Serial, 1);
    let inb = HostBuf::from_vec(inputs.clone());
    let outb = HostBuf::<i64>::alloc(BufLayout::d1(n));
    let args = CpuArgs::new().buf_i(&inb).buf_i(&outb);
    dev.launch(&Mix, &WorkDiv::d1(n, 1, 1), &args).unwrap();
    for (i, x) in inputs.iter().enumerate() {
        assert_eq!(outb.as_slice()[i], host_splitmix(*x), "input {x}");
    }
}

#[test]
fn fibers_interleave_deterministically_under_repetition() {
    // Same launch twice must give identical results (fiber scheduling is
    // deterministic by design).
    let run = || {
        let dev = CpuDevice::with_workers(CpuAccKind::Fibers, 4);
        let out = HostBuf::<f64>::alloc(BufLayout::d1(64));
        let args = CpuArgs::new().buf_f(&out);
        dev.launch(&BarrierStorm { rounds: 17 }, &WorkDiv::d1(2, 32, 1), &args)
            .unwrap();
        out.to_dense()
    };
    assert_eq!(run(), run());
}
