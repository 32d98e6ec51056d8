//! Streams (queues) and events across back-ends: in-order execution,
//! host synchronization, error surfacing — the Section 3.4.5/3.4.6 API.

use alpaka::{AccKind, Args, BufLayout, Device, Error, HostEvent, Queue, QueueBehavior};
use alpaka_core::kernel::Kernel;
use alpaka_core::ops::{KernelOps, KernelOpsExt};

/// `buf[i] = buf[i] * 2 + 1` — order-sensitive, so queue ordering shows.
#[derive(Clone)]
struct TwicePlusOne;
impl Kernel for TwicePlusOne {
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let n = o.param_i(0);
        let gid = o.global_thread_idx(0);
        let v = o.thread_elem_extent(0);
        let base = o.mul_i(gid, v);
        o.for_elements(0, |o, e| {
            let i = o.add_i(base, e);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let x = o.ld_gf(b, i);
                let two = o.lit_f(2.0);
                let one = o.lit_f(1.0);
                let r = o.fma_f(x, two, one);
                o.st_gf(b, i, r);
            });
        });
    }
}

fn kinds() -> Vec<AccKind> {
    vec![AccKind::CpuSerial, AccKind::CpuBlocks, AccKind::sim_k20()]
}

#[test]
fn queues_execute_in_order_on_every_backend() {
    // x -> 2x+1 applied 5 times: f^5(0) = 31.
    for behavior in [QueueBehavior::Blocking, QueueBehavior::NonBlocking] {
        for kind in kinds() {
            let dev = Device::with_workers(kind.clone(), 2);
            let q = Queue::new(dev.clone(), behavior);
            let n = 64usize;
            let buf = dev.alloc_f64(BufLayout::d1(n));
            buf.upload(&vec![0.0; n]).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            let args = Args::new().buf_f(&buf).scalar_i(n as i64);
            for _ in 0..5 {
                q.enqueue_kernel(&TwicePlusOne, &wd, &args).unwrap();
            }
            q.wait().unwrap();
            assert_eq!(buf.download(), vec![31.0; n], "{kind:?} {behavior:?}");
        }
    }
}

#[test]
fn event_between_operations() {
    for kind in kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let n = 32usize;
        let buf = dev.alloc_f64(BufLayout::d1(n));
        buf.upload(&vec![1.0; n]).unwrap();
        let wd = dev.suggest_workdiv_1d(n);
        let args = Args::new().buf_f(&buf).scalar_i(n as i64);
        let ev = HostEvent::new();
        q.enqueue_kernel(&TwicePlusOne, &wd, &args).unwrap();
        q.enqueue_event(&ev).unwrap();
        ev.wait();
        // After the event, exactly one application has happened.
        q.wait().unwrap();
        assert_eq!(buf.download(), vec![3.0; n], "{kind:?}");
    }
}

#[test]
fn two_queues_one_device() {
    // Independent queues on the same device, each with its own buffer.
    let dev = Device::with_workers(AccKind::CpuBlocks, 2);
    let q1 = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let q2 = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let n = 256usize;
    let b1 = dev.alloc_f64(BufLayout::d1(n));
    let b2 = dev.alloc_f64(BufLayout::d1(n));
    b1.upload(&vec![0.0; n]).unwrap();
    b2.upload(&vec![10.0; n]).unwrap();
    let wd = dev.suggest_workdiv_1d(n);
    for _ in 0..3 {
        q1.enqueue_kernel(
            &TwicePlusOne,
            &wd,
            &Args::new().buf_f(&b1).scalar_i(n as i64),
        )
        .unwrap();
        q2.enqueue_kernel(
            &TwicePlusOne,
            &wd,
            &Args::new().buf_f(&b2).scalar_i(n as i64),
        )
        .unwrap();
    }
    q1.wait().unwrap();
    q2.wait().unwrap();
    assert_eq!(b1.download(), vec![7.0; n]);
    assert_eq!(b2.download(), vec![87.0; n]); // f^3(10) = 87
}

/// Each simulated queue keeps its own clock: the device-clock advance of
/// its own kernel launches, summed in order, with copies, direct launches
/// and the other queue's launches on the same device left out. Its last
/// report is that of its own latest launch.
#[test]
fn sim_queues_keep_their_own_clocks() {
    let dev = Device::new(AccKind::sim_k20());
    let q1 = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let q2 = Queue::new(dev.clone(), QueueBehavior::Blocking);
    assert_eq!((q1.sim_elapsed_s(), q2.sim_elapsed_s()), (0.0, 0.0));
    assert!(q1.last_sim_report().is_none());
    let (small, big) = (64usize, 4096usize);
    let host = Device::new(AccKind::CpuSerial).alloc_f64(BufLayout::d1(small));
    host.upload(&vec![1.0; small]).unwrap();
    let b_small = dev.alloc_f64(BufLayout::d1(small));
    let b_big = dev.alloc_f64(BufLayout::d1(big));
    b_big.upload(&vec![1.0; big]).unwrap();
    // Enqueue one launch over `n` elements of `buf` and return the
    // device-clock advance it caused.
    let launch = |q: &Queue, buf, n: usize| {
        let before = dev.sim_clock_s();
        let args = Args::new().buf_f(buf).scalar_i(n as i64);
        q.enqueue_kernel(&TwicePlusOne, &dev.suggest_workdiv_1d(n), &args)
            .unwrap();
        dev.sim_clock_s() - before
    };
    let mut want = [0.0f64; 2];
    want[0] += launch(&q1, &b_big, big);
    q1.enqueue_copy_f64(&b_small, &host).unwrap();
    want[1] += launch(&q2, &b_big, big);
    want[0] += launch(&q1, &b_small, small);
    q2.enqueue_copy_f64(&host, &b_small).unwrap();
    let wd = dev.suggest_workdiv_1d(small);
    let args = Args::new().buf_f(&b_small).scalar_i(small as i64);
    dev.launch(&TwicePlusOne, &wd, &args).unwrap();
    want[1] += launch(&q2, &b_small, small);
    want[1] += launch(&q2, &b_big, big);
    q1.wait().unwrap();
    q2.wait().unwrap();
    // Bit for bit: the same differences, summed in the same order.
    assert_eq!(q1.sim_elapsed_s(), want[0]);
    assert_eq!(q2.sim_elapsed_s(), want[1]);
    assert!(want[0] > 0.0 && want[1] > want[0]);
    assert!(q1.sim_elapsed_s() + q2.sim_elapsed_s() < dev.sim_clock_s());
    let blocks = |q: &Queue| q.last_sim_report().unwrap().stats.blocks;
    let blocks_of = |n: usize| dev.suggest_workdiv_1d(n).block_count() as u64;
    assert_eq!(blocks(&q1), blocks_of(small));
    assert_eq!(blocks(&q2), blocks_of(big));
}

#[test]
fn copy_then_kernel_then_copy_back() {
    // The Listing 4 + 5 offloading flow through a queue, host and device.
    let host_dev = Device::new(AccKind::CpuSerial);
    let gpu = Device::new(AccKind::sim_k20());
    let q = Queue::new(gpu.clone(), QueueBehavior::NonBlocking);
    let n = 100usize;
    let h = host_dev.alloc_f64(BufLayout::d1(n));
    h.upload(&vec![4.0; n]).unwrap();
    let d = gpu.alloc_f64(BufLayout::d1(n));
    q.enqueue_copy_f64(&d, &h).unwrap();
    let wd = gpu.suggest_workdiv_1d(n);
    q.enqueue_kernel(
        &TwicePlusOne,
        &wd,
        &Args::new().buf_f(&d).scalar_i(n as i64),
    )
    .unwrap();
    let back = host_dev.alloc_f64(BufLayout::d1(n));
    q.enqueue_copy_f64(&back, &d).unwrap();
    q.wait().unwrap();
    assert_eq!(back.download(), vec![9.0; n]);
    // The simulated device was charged for both transfers and the kernel.
    assert!(gpu.sim_clock_s() > 0.0);
}

/// Stores way out of bounds — every back-end turns it into a kernel fault.
#[derive(Clone)]
struct Oob;
impl Kernel for Oob {
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let i = o.lit_i(1_000_000);
        let v = o.lit_f(1.0);
        o.st_gf(b, i, v);
    }
}

#[test]
fn queue_error_is_sticky_until_reset_on_every_backend() {
    // The CUDA stream model: a failed async op marks the queue; the error
    // re-surfaces at every wait AND every later enqueue until an explicit
    // reset — and it never poisons the device itself.
    for kind in kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let wd = alpaka::WorkDiv::d1(1, 1, 1);
        q.enqueue_kernel(&Oob, &wd, &Args::new().buf_f(&buf))
            .unwrap();
        let err = q.wait().unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
        // Sticky: waiting again reports it again...
        assert!(q.wait().is_err(), "{kind:?}");
        // ...and so does trying to enqueue more work.
        let err = q
            .enqueue_kernel(&TwicePlusOne, &wd, &Args::new().buf_f(&buf).scalar_i(4))
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
        assert!(q.sticky_error().is_some(), "{kind:?}");
        // The device is NOT poisoned: direct launches still work.
        dev.launch(&TwicePlusOne, &wd, &Args::new().buf_f(&buf).scalar_i(4))
            .unwrap_or_else(|e| panic!("{kind:?} device poisoned: {e}"));
        // Reset clears the mark and the queue is fully usable again.
        q.reset();
        assert!(q.sticky_error().is_none(), "{kind:?}");
        q.enqueue_kernel(&TwicePlusOne, &wd, &Args::new().buf_f(&buf).scalar_i(4))
            .unwrap();
        q.wait().unwrap();
        assert_eq!(buf.download()[0], 3.0, "{kind:?}"); // f^2(0) = 3
    }
}

#[test]
fn blocking_queue_reports_errors_directly() {
    // A Blocking queue runs the op inline, so the error comes back from
    // the enqueue itself and nothing sticks.
    for kind in kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let wd = alpaka::WorkDiv::d1(1, 1, 1);
        let err = q
            .enqueue_kernel(&Oob, &wd, &Args::new().buf_f(&buf))
            .unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
        assert!(q.sticky_error().is_none(), "{kind:?}");
        q.wait().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

#[test]
fn queue_error_surfaces_at_event_wait() {
    for kind in kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let wd = alpaka::WorkDiv::d1(1, 1, 1);
        let ev = HostEvent::new();
        q.enqueue_kernel(&Oob, &wd, &Args::new().buf_f(&buf))
            .unwrap();
        // On a synchronous back-end the enqueue above already marked the
        // queue, so enqueueing the event may itself report the error.
        let _ = q.enqueue_event(&ev);
        let err = q.wait_event(&ev).unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
        q.reset();
        q.wait().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

/// `buf[i] += 1` for every thread `i` of the grid.
#[derive(Clone)]
struct Inc;
impl Kernel for Inc {
    fn run<O: KernelOps>(&self, o: &mut O) {
        let b = o.buf_f(0);
        let i = o.linear_global_thread_idx();
        let v = o.ld_gf(b, i);
        let one = o.lit_f(1.0);
        let r = o.add_f(v, one);
        o.st_gf(b, i, r);
    }
}

#[test]
fn work_behind_a_failed_op_never_runs_on_every_backend() {
    for kind in kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let buf = dev.alloc_f64(BufLayout::d1(4));
        buf.upload(&[0.0; 4]).unwrap();
        let wd = alpaka::WorkDiv::d1(1, 1, 1);
        let args = Args::new().buf_f(&buf);
        q.enqueue_kernel(&Oob, &wd, &args).unwrap();
        // Whether the queue has failed by the time of the next two enqueues
        // depends on timing on a worker: each is refused or accepted.
        let later = q.enqueue_kernel(&Inc, &wd, &args);
        let ev = HostEvent::new();
        let enqueued = q.enqueue_event(&ev);
        for r in [&later, &enqueued] {
            if let Err(err) = r {
                assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
            }
        }
        let err = q.wait_event(&ev).unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
        let err = q.wait().unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{kind:?}: {err}");
        // An accepted event is signalled even though the queue failed.
        assert!(enqueued.is_err() || ev.is_done(), "{kind:?}");
        assert_eq!(
            buf.download()[0],
            0.0,
            "{kind:?}: work behind the fault ran"
        );
        q.reset();
        q.enqueue_kernel(&Inc, &wd, &args).unwrap();
        q.wait().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(buf.download()[0], 1.0, "{kind:?}");
    }
}

#[test]
fn worker_death_lands_behind_prior_work() {
    let dev = Device::with_workers(AccKind::CpuBlocks, 2);
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let buf = dev.alloc_f64(BufLayout::d1(1));
    buf.upload(&[0.0]).unwrap();
    let (wd, args) = (alpaka::WorkDiv::d1(1, 1, 1), Args::new().buf_f(&buf));
    // Enqueued before the death: runs.
    q.enqueue_kernel(&Inc, &wd, &args).unwrap();
    q.inject_worker_death();
    // Enqueued after it: refused, or accepted and skipped.
    let _ = q.enqueue_kernel(&Inc, &wd, &args);
    let err = q.wait().unwrap_err();
    assert!(matches!(err, Error::Device(_)), "{err}");
    assert_eq!(buf.download()[0], 1.0);
}

#[test]
fn deep_async_queue() {
    let dev = Device::with_workers(AccKind::CpuBlocks, 2);
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let buf = dev.alloc_f64(BufLayout::d1(16));
    buf.upload(&[0.0; 16]).unwrap();
    let (wd, args) = (alpaka::WorkDiv::d1(16, 1, 1), Args::new().buf_f(&buf));
    let depth = 500;
    for _ in 0..depth {
        q.enqueue_kernel(&Inc, &wd, &args).unwrap();
    }
    q.wait().unwrap();
    assert_eq!(buf.download(), vec![depth as f64; 16]);
}

#[test]
fn worker_death_is_sticky_and_reset_revives_the_queue() {
    for kind in kinds() {
        let dev = Device::with_workers(kind.clone(), 2);
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let buf = dev.alloc_f64(BufLayout::d1(8));
        buf.upload(&[0.0; 8]).unwrap();
        let wd = dev.suggest_workdiv_1d(8);
        q.inject_worker_death();
        let err = q.wait().unwrap_err();
        assert!(matches!(err, Error::Device(_)), "{kind:?}: {err}");
        // Work enqueued onto the dead queue is refused and never runs.
        let _ = q.enqueue_kernel(&TwicePlusOne, &wd, &Args::new().buf_f(&buf).scalar_i(8));
        assert!(q.wait().is_err(), "{kind:?}");
        assert_eq!(buf.download()[0], 0.0, "{kind:?}: dead queue ran work");
        // Reset revives the queue; it processes work again.
        q.reset();
        q.enqueue_kernel(&TwicePlusOne, &wd, &Args::new().buf_f(&buf).scalar_i(8))
            .unwrap();
        q.wait().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(buf.download()[0], 1.0, "{kind:?}");
    }
}

#[test]
fn fault_plan_kills_the_queue_at_the_chosen_op() {
    use alpaka::FaultPlan;
    let dev =
        Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(9).with_worker_death_at(1));
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let buf = dev.alloc_f64(BufLayout::d1(8));
    let wd = dev.suggest_workdiv_1d(8);
    let args = Args::new().buf_f(&buf).scalar_i(8);
    // Queue op 0 runs: 0 -> 1.
    q.enqueue_kernel(&TwicePlusOne, &wd, &args).unwrap();
    // Queue op 1 is where the injected death lands; the op is absorbed
    // (non-blocking) and never executes.
    q.enqueue_kernel(&TwicePlusOne, &wd, &args).unwrap();
    let err = q.wait().unwrap_err();
    assert!(matches!(err, Error::Device(_)), "{err}");
    assert_eq!(buf.download()[0], 1.0, "the killed op must not have run");
    // The device survives; after a reset the queue works again: 1 -> 3.
    q.reset();
    q.enqueue_kernel(&TwicePlusOne, &wd, &args).unwrap();
    q.wait().unwrap();
    assert_eq!(buf.download()[0], 3.0);
}

#[test]
fn event_reset_and_reuse() {
    let dev = Device::new(AccKind::CpuSerial);
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let ev = HostEvent::new();
    q.enqueue_event(&ev).unwrap();
    ev.wait();
    assert_eq!(ev.generation(), 1);
    ev.reset();
    assert!(!ev.is_done());
    q.enqueue_event(&ev).unwrap();
    ev.wait();
    assert_eq!(ev.generation(), 2);
    q.wait().unwrap();
}
