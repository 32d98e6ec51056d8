//! A block barrier that can never complete is a `KernelFault`, never a
//! hang: a thread panics before, between or after the block's barriers, or
//! finishes its kernel while its siblings wait at `sync_block_threads`, on
//! every back-end whose blocks have more than one thread.
//!
//! Each launch runs on a helper thread behind a watchdog, so a regression
//! fails here instead of hanging the suite.

use std::sync::mpsc;
use std::time::Duration;

use alpaka_core::buffer::{BufLayout, HostBuf};
use alpaka_core::error::Error;
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};
use alpaka_core::workdiv::WorkDiv;
use alpaka_cpu::{CpuAccKind, CpuArgs, CpuDevice};

const KINDS: [CpuAccKind; 3] = [
    CpuAccKind::Threads,
    CpuAccKind::BlockThreads,
    CpuAccKind::Fibers,
];
const BLOCKS: usize = 3;
const THREADS: usize = 5;
/// Far above a launch of this size, far below a hang.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Every thread meets at two barriers and then writes `1.0` to its slot of
/// `out`. Thread `tid` of block `block` first stores out of bounds at
/// `step`: 0 before the first barrier, 1 between them, 2 after the last.
/// `tid = -1` never faults.
#[derive(Clone, Copy)]
struct FaultAt {
    tid: i64,
    block: i64,
    step: usize,
}

impl Kernel for FaultAt {
    fn name(&self) -> &str {
        "fault_at"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let out = o.buf_f(0);
        let tid = o.thread_idx(0);
        let bid = o.block_idx(0);
        let (t, b) = (o.lit_i(self.tid), o.lit_i(self.block));
        let (is_t, is_b) = (o.eq_i(tid, t), o.eq_i(bid, b));
        let faults = o.and_b(is_t, is_b);
        for step in 0..3 {
            if step == self.step {
                o.if_(faults, |o| {
                    let oob = o.lit_i(-1);
                    let v = o.lit_f(0.0);
                    o.st_gf(out, oob, v);
                });
            }
            if step < 2 {
                o.sync_block_threads();
            }
        }
        let gid = o.linear_global_thread_idx();
        let one = o.lit_f(1.0);
        o.st_gf(out, gid, one);
    }
}

/// In block `block`, only threads `tid < syncing` reach the barrier; the
/// rest finish the kernel without it. `syncing = 1` is the simulator's
/// `BadSync` shape (thread 0 syncs, the others skip).
#[derive(Clone, Copy)]
struct SkipSync {
    syncing: i64,
    block: i64,
}

impl Kernel for SkipSync {
    fn name(&self) -> &str {
        "skip_sync"
    }
    fn run<O: KernelOps>(&self, o: &mut O) {
        let tid = o.thread_idx(0);
        let bid = o.block_idx(0);
        let (k, b) = (o.lit_i(self.syncing), o.lit_i(self.block));
        let (in_b, syncs) = (o.eq_i(bid, b), o.lt_i(tid, k));
        let not_b = o.not_b(in_b);
        let meets = o.or_b(not_b, syncs);
        o.if_(meets, |o| o.sync_block_threads());
    }
}

/// Launch `kernel` on a fresh `kind` device, then a clean `FaultAt` on the
/// same device; returns the first launch's error and the second's output.
fn launch_then_reuse<K: Kernel + Send + 'static>(kind: CpuAccKind, kernel: K) -> (Error, Vec<f64>) {
    let (tx, rx) = mpsc::channel();
    let what = format!("{kind:?}");
    std::thread::spawn(move || {
        let dev = CpuDevice::with_workers(kind, 2);
        let wd = WorkDiv::d1(BLOCKS, THREADS, 1);
        let out = HostBuf::<f64>::alloc(BufLayout::d1(BLOCKS * THREADS));
        let args = CpuArgs::new().buf_f(&out);
        let err = dev.launch(&kernel, &wd, &args).err();
        let out = HostBuf::<f64>::alloc(BufLayout::d1(BLOCKS * THREADS));
        let args = CpuArgs::new().buf_f(&out);
        let clean = FaultAt {
            tid: -1,
            block: 0,
            step: 0,
        };
        let reuse = dev.launch(&clean, &wd, &args).map(|()| out.to_dense());
        let _ = tx.send((err, reuse));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok((Some(err), Ok(out))) => (err, out),
        Ok((None, _)) => panic!("{what}: the launch succeeded"),
        Ok((_, Err(e))) => panic!("{what}: the device failed its next launch: {e}"),
        Err(_) => panic!("{what}: the launch hung for {WATCHDOG:?}"),
    }
}

fn assert_fault(err: &Error, what: &str, wants: &[&str], refuses: &[&str]) {
    assert!(matches!(err, Error::KernelFault(_)), "{what}: {err:?}");
    let msg = err.to_string();
    for w in wants {
        assert!(msg.contains(w), "{what}: {msg:?} lacks {w:?}");
    }
    for r in refuses {
        assert!(!msg.contains(r), "{what}: {msg:?} has {r:?}");
    }
}

#[test]
fn a_panicking_thread_fails_the_launch_with_its_own_message() {
    let last = THREADS as i64 - 1;
    for kind in KINDS {
        for tid in [0, last / 2, last] {
            for step in 0..3 {
                for block in [0, BLOCKS as i64 - 1] {
                    let what = format!("{kind:?} tid {tid} step {step} block {block}");
                    let (err, out) = launch_then_reuse(kind, FaultAt { tid, block, step });
                    assert_fault(
                        &err,
                        &what,
                        &["fault_at", "index -1 out of bounds"],
                        &["sync_block_threads", "poisoned"],
                    );
                    assert_eq!(out, vec![1.0; BLOCKS * THREADS], "{what}: reuse");
                }
            }
        }
    }
}

#[test]
fn a_barrier_reached_by_some_threads_names_block_and_count() {
    let last = BLOCKS as i64 - 1;
    for kind in KINDS {
        for syncing in [1, THREADS as i64 - 1] {
            for block in [0, last] {
                let what = format!("{kind:?} {syncing} syncing in block {block}");
                let (err, out) = launch_then_reuse(kind, SkipSync { syncing, block });
                let coords = format!("block [0, 0, {block}]");
                let count = format!("{syncing} of {THREADS} threads");
                assert_fault(
                    &err,
                    &what,
                    &["skip_sync", &coords, &count, "sync_block_threads"],
                    &[],
                );
                assert_eq!(out, vec![1.0; BLOCKS * THREADS], "{what}: reuse");
            }
        }
    }
}
