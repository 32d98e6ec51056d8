//! Uniform queues, executors and timing over every back-end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use alpaka_core::buffer::copy_region;
use alpaka_core::error::{Error, Result};
use alpaka_core::kernel::{Kernel, ScalarArgs};
use alpaka_core::obs::Obs;
use alpaka_core::pool::panic_message;
use alpaka_core::queue::{HostEvent, QueueBehavior};
use alpaka_core::trace::{TraceEvent, TraceKind};
use alpaka_core::workdiv::WorkDiv;
use alpaka_cpu::{CpuArgs, CpuDevice};
use alpaka_sim::{ExecMode, SimReport};
use parking_lot::{Condvar, Mutex};

use crate::buffer::{copy_f64, copy_i64, BufferF, BufferI};
use crate::device::{Device, DeviceImpl};
use crate::resilient::fault_kind;

/// Count the outcome of a queue operation in the metrics registry (its
/// enqueue counts in `alpaka_queue_ops_total`). No queue/device-id labels:
/// snapshots must stay byte-identical regardless of how ids were allocated.
fn count_op_result(obs: &Obs, op: &'static str, r: &Result<()>) {
    match r {
        Ok(()) => obs.counter_add("alpaka_queue_ops_completed_total", &[("op", op)], 1),
        Err(e) => obs.counter_add(
            "alpaka_queue_op_errors_total",
            &[("op", op), ("kind", fault_kind(e))],
            1,
        ),
    }
}

/// Launch arguments: buffers in slot order plus scalars — the executor of
/// Listing 5 binds these together with the kernel and work division.
#[derive(Clone, Default)]
pub struct Args {
    pub bufs_f: Vec<BufferF>,
    pub bufs_i: Vec<BufferI>,
    pub scalars: ScalarArgs,
}

impl Args {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn buf_f(mut self, b: &BufferF) -> Self {
        self.bufs_f.push(b.clone());
        self
    }
    pub fn buf_i(mut self, b: &BufferI) -> Self {
        self.bufs_i.push(b.clone());
        self
    }
    pub fn scalar_f(mut self, v: f64) -> Self {
        self.scalars.f.push(v);
        self
    }
    pub fn scalar_i(mut self, v: i64) -> Self {
        self.scalars.i.push(v);
        self
    }

    pub(crate) fn to_cpu(&self) -> Result<CpuArgs> {
        let mut out = CpuArgs::new();
        for b in &self.bufs_f {
            out = out.buf_f(b.as_host()?);
        }
        for b in &self.bufs_i {
            out = out.buf_i(b.as_host()?);
        }
        out.scalars = self.scalars.clone();
        Ok(out)
    }

    pub(crate) fn to_sim(&self) -> Result<alpaka_accsim::SimLaunchArgs> {
        let mut out = alpaka_accsim::SimLaunchArgs::new();
        for b in &self.bufs_f {
            out = out.buf_f(b.as_sim()?);
        }
        for b in &self.bufs_i {
            out = out.buf_i(b.as_sim()?);
        }
        out.scalars = self.scalars.clone();
        Ok(out)
    }
}

/// A simulated launch with its trace events and metrics: the one emission
/// path of [`Queue::enqueue_kernel`] (`queue` is its id, which adds the
/// queue-side span and marks every event with the queue) and of the direct
/// launches, `Device::launch` and [`time_launch`] (`queue` is `None`). It
/// records into the device's [`Obs`].
pub(crate) fn run_sim_traced<K: Kernel + ?Sized>(
    d: &alpaka_accsim::SimDevice,
    dev_id: u64,
    queue: Option<u64>,
    kernel: &K,
    wd: &WorkDiv,
    args: &alpaka_accsim::SimLaunchArgs,
    mode: ExecMode,
) -> Result<SimReport> {
    let obs = d.obs();
    let traced = obs.active();
    let (t0, ordinal, model) = if traced {
        let s = d.spec();
        (
            d.clock_s(),
            d.launch_count(),
            (s.clock_ghz, s.peak_gflops(), s.mem_bw_gbs),
        )
    } else {
        (0.0, 0, (0.0, 0.0, 0.0))
    };
    match d.run(kernel, wd, args, mode) {
        Ok(report) => {
            if traced {
                let at = (dev_id, queue, ordinal, t0);
                emit_launch_events(obs, kernel.name(), at, model, &report);
            }
            alpaka_sim::record_launch(obs, kernel.name(), &report);
            Ok(report)
        }
        Err(e) => {
            if traced {
                let fault = TraceEvent::new(
                    TraceKind::Fault,
                    format!("{}: {e}", kernel.name()),
                    dev_id,
                    t0,
                );
                obs.emit(TraceEvent {
                    queue,
                    ..fault.on_launch(ordinal)
                });
            }
            obs.note_failure(fault_kind(&e), &format!("{}: {e}", kernel.name()));
            Err(e)
        }
    }
}

/// One job on a non-blocking native queue's worker.
enum Job {
    /// An operation, under its metrics label (`"kernel"`, `"copy"`). It is
    /// skipped once the queue has failed.
    Op(&'static str, Box<dyn FnOnce() -> Result<()> + Send>),
    /// Signalled in order, failed queue or not, so its waiter never hangs.
    Event(HostEvent),
    /// An injected worker death, recorded in order behind prior work.
    Fail(Error),
}

/// Jobs handed to a worker and not yet finished; waits sleep until none are.
#[derive(Default)]
struct Pending(Mutex<usize>, Condvar);

impl Pending {
    fn done(&self) {
        let mut n = self.0.lock();
        *n -= 1;
        if *n == 0 {
            self.1.notify_all();
        }
    }

    fn drain(&self) {
        let mut n = self.0.lock();
        while *n != 0 {
            self.1.wait(&mut n);
        }
    }
}

/// The one thread of a non-blocking native queue: it runs the queue's jobs
/// in order and writes the first failure into the queue's sticky slot.
struct Worker {
    tx: mpsc::Sender<Job>,
    pending: Arc<Pending>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Worker {
    fn spawn(sticky: Arc<Mutex<Option<Error>>>, obs: Obs) -> Worker {
        let (tx, rx) = mpsc::channel();
        let pending = Arc::new(Pending::default());
        let done = Arc::clone(&pending);
        let thread = thread::Builder::new()
            .name("alpaka-queue".into())
            .spawn(move || {
                for job in rx {
                    match job {
                        Job::Op(op, f) if sticky.lock().is_none() => {
                            let r = catch_unwind(AssertUnwindSafe(f))
                                .unwrap_or_else(|p| Err(Error::Device(panic_message(p))));
                            count_op_result(&obs, op, &r);
                            if let Err(e) = r {
                                record(&sticky, e);
                            }
                        }
                        Job::Op(..) => {}
                        Job::Event(ev) => ev.signal(),
                        Job::Fail(e) => record(&sticky, e),
                    }
                    done.done();
                }
            })
            .expect("failed to spawn queue worker");
        Worker {
            tx,
            pending,
            thread: Some(thread),
        }
    }

    fn send(&self, job: Job) -> Result<()> {
        *self.pending.0.lock() += 1;
        self.tx.send(job).map_err(|_| {
            self.pending.done();
            Error::Device("queue worker terminated".into())
        })
    }
}

impl Drop for Worker {
    /// Close the channel, then join the thread once it has run what was
    /// queued.
    fn drop(&mut self) {
        self.tx = mpsc::channel().0;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Keep the first error in a queue's sticky slot; later ones are dropped
/// (CUDA keeps the first sticky error per stream).
fn record(sticky: &Mutex<Option<Error>>, e: Error) {
    sticky.lock().get_or_insert(e);
}

enum QImpl {
    /// The device, and on a non-blocking queue the worker that runs its
    /// operations.
    Cpu(CpuDevice, Option<Worker>),
    /// The device, and the simulated seconds of this queue's kernel launches
    /// with the report of its latest one (boxed: a report is large, and
    /// queues are long-lived). The lock is held across a launch. Simulated
    /// operations run synchronously, so the queue has no worker: an event is
    /// signalled at once and a wait has nothing to drain.
    Sim(
        alpaka_accsim::SimDevice,
        Box<Mutex<(f64, Option<SimReport>)>>,
    ),
}

/// An in-order work queue on any device.
///
/// Queue errors follow the CUDA stream model: an operation that fails on a
/// `NonBlocking` queue records its error, which then re-surfaces at every
/// subsequent enqueue, [`Queue::wait`] and [`Queue::wait_event`] until
/// [`Queue::reset`] clears it. Work behind the failed operation never runs,
/// on any back-end; events behind it are still signalled. The device itself
/// stays usable (unless the error was a device loss, which poisons the
/// [`Device`] independently).
pub struct Queue {
    device: Device,
    behavior: QueueBehavior,
    inner: QImpl,
    /// First error produced by an enqueued operation; sticky until `reset`.
    /// Shared with the worker, which records failures as they happen.
    sticky: Arc<Mutex<Option<Error>>>,
    /// Monotonic per-queue operation ordinal, keying injected worker death.
    ops: AtomicU64,
    /// Trace ordinal within the device's [`Obs`] (the queue's lane in
    /// exports).
    id: u64,
}

impl Queue {
    pub fn new(device: Device, behavior: QueueBehavior) -> Self {
        let sticky = Arc::new(Mutex::new(None));
        let inner = match &device.inner {
            DeviceImpl::Cpu(d) => QImpl::Cpu(
                d.clone(),
                (behavior == QueueBehavior::NonBlocking)
                    .then(|| Worker::spawn(Arc::clone(&sticky), device.obs().clone())),
            ),
            DeviceImpl::Sim(d) => QImpl::Sim(d.clone(), Box::default()),
        };
        Queue {
            id: device.obs().next_queue_id(),
            device,
            behavior,
            inner,
            sticky,
            ops: AtomicU64::new(0),
        }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Trace ordinal of this queue within its device's [`Obs`] (its lane id
    /// in a Chrome-trace export, and the id named in wait-error context).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn behavior(&self) -> QueueBehavior {
        self.behavior
    }

    fn worker(&self) -> Option<&Worker> {
        match &self.inner {
            QImpl::Cpu(_, w) => w.as_ref(),
            QImpl::Sim(..) => None,
        }
    }

    /// Fail if a sticky error is recorded (clones it; the slot is kept).
    fn check_sticky(&self) -> Result<()> {
        match self.sticky.lock().clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Like [`Queue::check_sticky`], but the surfaced error names *which*
    /// queue fired: "(queue N on <device>)". Used by the wait paths, where
    /// the caller often holds several queues and the raw sticky error gives
    /// no clue whose it was. The stored sticky error stays unwrapped, so
    /// repeated waits do not accumulate context.
    fn check_sticky_ctx(&self) -> Result<()> {
        self.check_sticky()
            .map_err(|e| e.with_suffix(&format!(" (queue {} on {})", self.id, self.device.name())))
    }

    /// Route an operation result by queue behavior: blocking queues return
    /// errors directly, non-blocking queues record them (surfacing at the
    /// next enqueue/wait) and report success for the enqueue itself.
    fn absorb(&self, r: Result<()>) -> Result<()> {
        match (r, self.behavior) {
            (Ok(()), _) => Ok(()),
            (Err(e), QueueBehavior::Blocking) => Err(e),
            (Err(e), QueueBehavior::NonBlocking) => {
                record(&self.sticky, e);
                Ok(())
            }
        }
    }

    /// Count the outcome of an operation that ran inline, then absorb it.
    fn settle(&self, op: &'static str, r: Result<()>) -> Result<()> {
        count_op_result(self.device.obs(), op, &r);
        self.absorb(r)
    }

    /// Run a native operation where this queue runs them: on its worker, in
    /// order behind what is queued there, or inline.
    fn submit(
        &self,
        op: &'static str,
        f: impl FnOnce() -> Result<()> + Send + 'static,
    ) -> Result<()> {
        match self.worker() {
            Some(w) => w.send(Job::Op(op, Box::new(f))),
            None => self.settle(op, f()),
        }
    }

    /// Open an operation: refuse it behind a recorded error, count it, and
    /// consume its ordinal against the device's fault plan. `Ok(false)`: an
    /// injected worker death landed on it (absorbed), so it never runs.
    fn begin(&self, op: &'static str) -> Result<bool> {
        self.check_sticky()?;
        self.device
            .obs()
            .counter_add("alpaka_queue_ops_total", &[("op", op)], 1);
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.device.faults().is_some_and(|p| p.worker_death_hits(n)) {
            let e = Error::Device(format!("queue worker died (injected at queue op {n})"));
            self.absorb(Err(e))?;
            return Ok(false);
        }
        Ok(true)
    }

    /// Enqueue a kernel execution.
    pub fn enqueue_kernel<K: Kernel + Clone + Send + 'static>(
        &self,
        kernel: &K,
        wd: &WorkDiv,
        args: &Args,
    ) -> Result<()> {
        if !self.begin("kernel")? {
            return Ok(());
        }
        match &self.inner {
            QImpl::Cpu(d, _) => {
                let (d, kernel, wd, args) = (d.clone(), kernel.clone(), *wd, args.to_cpu()?);
                self.submit("kernel", move || d.launch(&kernel, &wd, &args))
            }
            QImpl::Sim(d, state) => {
                let sim_args = args.to_sim()?;
                let mut st = state.lock();
                let before = d.clock_s();
                let out = run_sim_traced(
                    d,
                    self.device.id(),
                    Some(self.id),
                    kernel,
                    wd,
                    &sim_args,
                    ExecMode::Full,
                )
                .map(|report| {
                    st.0 += d.clock_s() - before;
                    st.1 = Some(report);
                });
                drop(st);
                self.settle("kernel", out)
            }
        }
    }

    /// Enqueue a deep f64 copy. Host-to-host copies on a native queue run
    /// where its kernels run; copies that cross a device boundary first
    /// drain the queue (preserving in-order semantics) and then run.
    pub fn enqueue_copy_f64(&self, dst: &BufferF, src: &BufferF) -> Result<()> {
        if !self.begin("copy")? {
            return Ok(());
        }
        match (&self.inner, dst, src) {
            (QImpl::Cpu(..), BufferF::Host(d), BufferF::Host(s)) => {
                let (d, s) = (d.clone(), s.clone());
                self.submit("copy", move || copy_region(&d, &s))
            }
            _ => self.copy_after_wait("copy_f64", || copy_f64(dst, src)),
        }
    }

    /// Enqueue a deep i64 copy (same ordering rules as
    /// [`Queue::enqueue_copy_f64`]).
    pub fn enqueue_copy_i64(&self, dst: &BufferI, src: &BufferI) -> Result<()> {
        if !self.begin("copy")? {
            return Ok(());
        }
        match (&self.inner, dst, src) {
            (QImpl::Cpu(..), BufferI::Host(d), BufferI::Host(s)) => {
                let (d, s) = (d.clone(), s.clone());
                self.submit("copy", move || copy_region(&d, &s))
            }
            _ => self.copy_after_wait("copy_i64", || copy_i64(dst, src)),
        }
    }

    /// Drain the queue, then run `copy` inline and trace it.
    fn copy_after_wait(&self, label: &str, copy: impl FnOnce() -> Result<()>) -> Result<()> {
        self.wait()?;
        let t0 = self.device.sim_clock_s();
        let r = copy();
        self.trace_copy(label, t0, &r);
        self.absorb(r)
    }

    /// Emit the span of a completed copy (or the fault of a failed one).
    fn trace_copy(&self, label: &str, t0: f64, r: &Result<()>) {
        let obs = self.device.obs();
        count_op_result(obs, "copy", r);
        if let Err(e) = r {
            obs.note_failure(fault_kind(e), &format!("{label}: {e}"));
        }
        if !obs.active() {
            return;
        }
        let dev = self.device.id();
        let ev = match r {
            Ok(()) => TraceEvent::new(TraceKind::Copy, label, dev, t0)
                .span_until(self.device.sim_clock_s()),
            Err(e) => TraceEvent::new(TraceKind::Fault, format!("{label}: {e}"), dev, t0),
        };
        obs.emit(ev.on_queue(self.id));
    }

    /// Count the operation `op` and, while observed, emit it as an instant
    /// event on this queue's lane at the device clock.
    fn note_op(&self, op: &'static str, kind: TraceKind) {
        let obs = self.device.obs();
        obs.counter_add("alpaka_queue_ops_total", &[("op", op)], 1);
        if obs.active() {
            let t = self.device.sim_clock_s();
            obs.emit(TraceEvent::new(kind, op, self.device.id(), t).on_queue(self.id));
        }
    }

    /// Enqueue an event signaled once all prior operations completed.
    pub fn enqueue_event(&self, ev: &HostEvent) -> Result<()> {
        self.check_sticky()?;
        self.note_op("event", TraceKind::EventRecord);
        match self.worker() {
            Some(w) => w.send(Job::Event(ev.clone())),
            None => {
                ev.signal();
                Ok(())
            }
        }
    }

    /// Drain the queue; surfaces the first error of any enqueued op. The
    /// error is sticky: it is reported again by every later operation until
    /// [`Queue::reset`].
    pub fn wait(&self) -> Result<()> {
        self.note_op("wait", TraceKind::Wait);
        // Simulated seconds of work drained by waits on this queue so far
        // (the simulated analogue of host wait time; deterministic, unlike a
        // wall-clock measurement).
        let obs = self.device.obs();
        if obs.metrics_enabled() {
            obs.observe("alpaka_queue_wait_sim_seconds", &[], self.sim_elapsed_s());
        }
        if let Some(w) = self.worker() {
            w.pending.drain();
        }
        self.check_sticky_ctx()
    }

    /// Block until `ev` is signaled, then surface any error recorded by
    /// the operations that preceded it (sticky, like [`Queue::wait`]).
    /// Returns at once with the queue's error if one is already recorded:
    /// the event may have been refused at its enqueue.
    pub fn wait_event(&self, ev: &HostEvent) -> Result<()> {
        self.note_op("wait_event", TraceKind::Wait);
        self.check_sticky_ctx()?;
        ev.wait();
        self.check_sticky_ctx()
    }

    /// The sticky error currently recorded, if any (non-destructive).
    pub fn sticky_error(&self) -> Option<Error> {
        self.sticky.lock().clone()
    }

    /// Drain the queue and clear the sticky error: the queue is usable
    /// again.
    ///
    /// Device-level sticky state: a lost device normally stays lost — the
    /// loss outlives any queue reset. The one exception is a device the
    /// health layer has since declared recovered ([`Device::mark_recovered`]
    /// after a quarantine cooldown): for those, reset also clears the
    /// device's sticky lost flag. Without that, a recovered device would
    /// resurrect the stale `DeviceLost` error on the very next operation of
    /// every queue that was reset after recovery.
    pub fn reset(&self) {
        match &self.inner {
            QImpl::Cpu(_, w) => w.iter().for_each(|w| w.pending.drain()),
            QImpl::Sim(d, _) => {
                d.clear_lost_if_recovered();
            }
        }
        *self.sticky.lock() = None;
    }

    /// Inject queue-worker death (test hook; the `worker_death_at` knob of a
    /// [`alpaka_sim::FaultPlan`] does this at a chosen ordinal): the queue
    /// fails with `Error::Device` behind the work already enqueued, and runs
    /// nothing after it until [`Queue::reset`].
    pub fn inject_worker_death(&self) {
        let e = Error::Device("queue worker died (injected)".into());
        match self.worker() {
            Some(w) => w
                .send(Job::Fail(e))
                .unwrap_or_else(|e| record(&self.sticky, e)),
            None => record(&self.sticky, e),
        }
    }

    /// Simulated seconds of the kernel launches enqueued on this queue: the
    /// device-clock advance of each, summed (0 for native devices). Copies
    /// and other queues' launches on the same device do not count.
    pub fn sim_elapsed_s(&self) -> f64 {
        match &self.inner {
            QImpl::Cpu(..) => 0.0,
            QImpl::Sim(_, state) => state.lock().0,
        }
    }

    /// Full simulator report of the most recent kernel enqueued on this
    /// queue (`None` for native devices or before the first launch). Carries
    /// the [`alpaka_sim::KernelProfile`] when the launch ran traced.
    pub fn last_sim_report(&self) -> Option<SimReport> {
        match &self.inner {
            QImpl::Cpu(..) => None,
            QImpl::Sim(_, state) => state.lock().1.clone(),
        }
    }
}

/// How to execute a timed launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Interpret/execute everything (results are valid).
    Exact,
    /// Simulated devices interpret only ~n blocks and extrapolate timing
    /// (results incomplete); native devices ignore this and run exactly.
    TimingSampled(usize),
}

/// Result of a timed launch.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Wall-clock seconds spent by the host.
    pub wall_s: f64,
    /// The time to report: simulated seconds on simulated devices,
    /// wall-clock seconds on native ones.
    pub time_s: f64,
    pub simulated: bool,
    /// Full simulator report when available.
    pub report: Option<SimReport>,
}

/// Execute `kernel` once on `dev` and measure it: wall clock for native
/// back-ends, modeled device time for simulated ones. The benchmark harness
/// (`alpaka-bench`) builds every figure on this.
pub fn time_launch<K: Kernel + ?Sized>(
    dev: &Device,
    kernel: &K,
    wd: &WorkDiv,
    args: &Args,
    mode: LaunchMode,
) -> Result<TimedRun> {
    let start = Instant::now();
    match &dev.inner {
        DeviceImpl::Cpu(d) => {
            d.launch(kernel, wd, &args.to_cpu()?)?;
            let wall = start.elapsed().as_secs_f64();
            Ok(TimedRun {
                wall_s: wall,
                time_s: wall,
                simulated: false,
                report: None,
            })
        }
        DeviceImpl::Sim(d) => {
            let exec_mode = match mode {
                LaunchMode::Exact => ExecMode::Full,
                LaunchMode::TimingSampled(k) => ExecMode::SampleBlocks(k),
            };
            let report = run_sim_traced(d, dev.id(), None, kernel, wd, &args.to_sim()?, exec_mode)?;
            Ok(TimedRun {
                wall_s: start.elapsed().as_secs_f64(),
                time_s: report.time.total_s,
                simulated: true,
                report: Some(report),
            })
        }
    }
}

/// Convenience check used by tests and examples: run the kernel on every
/// given device and require identical `download()` results for the listed
/// output buffers — the paper's *testability* property.
pub fn assert_portable<K, F>(kinds: &[crate::AccKind], mut setup: F)
where
    K: Kernel + Clone + Send + 'static,
    F: FnMut(&Device) -> (K, WorkDiv, Args, Vec<BufferF>),
{
    let mut reference: Option<(String, Vec<Vec<f64>>)> = None;
    for kind in kinds {
        let dev = Device::with_workers(kind.clone(), 4);
        let (kernel, wd, args, outputs) = setup(&dev);
        dev.launch(&kernel, &wd, &args)
            .unwrap_or_else(|e| panic!("{}: {e}", dev.name()));
        let got: Vec<Vec<f64>> = outputs.iter().map(|b| b.download()).collect();
        match &reference {
            None => reference = Some((dev.name(), got)),
            Some((ref_name, want)) => {
                assert_eq!(
                    &got,
                    want,
                    "results diverge between {ref_name} and {}",
                    dev.name()
                );
            }
        }
    }
}

/// Emit the trace events of one completed simulated launch: the queue-side
/// span (only for queue launches), the launch span carrying the roofline
/// datapoint meta, and one block-execution span per interpreted block laid
/// out on per-SM lanes. Everything is derived from the simulated clock and
/// the deterministic per-block spans, so the stream is identical across
/// interpreter thread counts and engines.
fn emit_launch_events(
    obs: &Obs,
    kernel: &str,
    (device, queue, ordinal, t0): (u64, Option<u64>, u64, f64),
    (clock_ghz, peak_gflops, peak_bw_gbs): (f64, f64, f64),
    report: &SimReport,
) {
    let on_queue = |ev: TraceEvent| TraceEvent { queue, ..ev };
    let t1 = t0 + report.time.total_s;
    if let Some(q) = queue {
        obs.emit(
            TraceEvent::new(
                TraceKind::QueueOp,
                format!("enqueue_kernel:{kernel}"),
                device,
                t0,
            )
            .span_until(t1)
            .on_queue(q)
            .on_launch(ordinal),
        );
    }
    let s = &report.stats;
    obs.emit(
        on_queue(TraceEvent::new(TraceKind::Launch, kernel, device, t0))
            .span_until(t1)
            .on_launch(ordinal)
            .with("flops", s.total_flops() as f64)
            .with("dram_bytes", s.dram_bytes as f64)
            .with("total_s", report.time.total_s)
            .with("blocks", s.blocks as f64)
            .with("clock_ghz", clock_ghz)
            .with("peak_gflops", peak_gflops)
            .with("peak_bw_gbs", peak_bw_gbs),
    );
    // Each SM lane is a serial timeline starting at the launch: block
    // durations come from the per-block issue-cycle counts, in block order
    // (the order the SM would execute its resident queue).
    let hz = clock_ghz * 1e9;
    let mut cursors: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for b in &report.spans {
        let cur = cursors.entry(b.sm).or_insert(t0);
        let dur = if hz > 0.0 { b.cycles as f64 / hz } else { 0.0 };
        obs.emit(
            on_queue(TraceEvent::new(
                TraceKind::BlockExec,
                format!("block {}", b.block),
                device,
                *cur,
            ))
            .span_until(*cur + dur)
            .on_launch(ordinal)
            .on_block(b.block, b.sm),
        );
        *cur += dur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AccKind;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};
    use alpaka_core::trace;

    #[derive(Clone)]
    struct Scale;
    impl Kernel for Scale {
        fn name(&self) -> &str {
            "scale"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let n = o.param_i(0);
            let i = o.global_thread_idx(0);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let v = o.ld_gf(b, i);
                let two = o.lit_f(2.0);
                let r = o.mul_f(v, two);
                o.st_gf(b, i, r);
            });
        }
    }

    #[test]
    fn wait_error_display_names_queue_and_device() {
        let dev = Device::new(AccKind::sim_k20());
        let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        q.inject_worker_death();
        let err = q.wait().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("queue {}", q.id())), "{msg}");
        assert!(msg.contains(&dev.name()), "{msg}");
        // Same context from wait_event, and no accumulation on repeat waits.
        let ev = HostEvent::new();
        let msg2 = q.wait_event(&ev).unwrap_err().to_string();
        assert_eq!(msg, msg2);
        assert_eq!(msg.matches("(queue ").count(), 1, "{msg}");
        // The sticky slot itself stays unwrapped.
        let raw = q.sticky_error().unwrap().to_string();
        assert!(!raw.contains("(queue"), "{raw}");
    }

    #[test]
    fn traced_launch_emits_queue_launch_and_block_spans() {
        let n = 256usize;
        let ((), events) = trace::capture(|| {
            let dev = Device::new(AccKind::sim_k20());
            let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
            let b = dev.alloc_f64(crate::BufLayout::d1(n));
            b.upload(&vec![1.0; n]).unwrap();
            let wd = dev.suggest_workdiv_1d(n);
            q.enqueue_kernel(&Scale, &wd, &Args::new().buf_f(&b).scalar_i(n as i64))
                .unwrap();
            q.wait().unwrap();
        });
        let launches: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::Launch)
            .collect();
        assert_eq!(launches.len(), 1);
        let l = launches[0];
        assert_eq!(l.label, "scale");
        assert_eq!(l.launch, Some(0));
        assert!(l.meta_get("flops").is_some());
        assert!(l.meta_get("peak_gflops").unwrap() > 0.0);
        assert!(l.sim_dur_s() > 0.0);
        let blocks = events
            .iter()
            .filter(|e| e.kind == TraceKind::BlockExec)
            .count();
        assert_eq!(blocks as u64, l.meta_get("blocks").unwrap() as u64);
        assert!(events.iter().any(|e| e.kind == TraceKind::QueueOp));
        assert!(events.iter().any(|e| e.kind == TraceKind::Wait));
    }

    #[test]
    fn untraced_launch_emits_nothing() {
        let n = 64usize;
        // A capture's `Obs`, switched back off: the launch runs untraced.
        let (report, events) = trace::capture(|| {
            Obs::current().set_trace_enabled(false);
            let dev = Device::new(AccKind::sim_k20());
            let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
            let b = dev.alloc_f64(crate::BufLayout::d1(n));
            let wd = dev.suggest_workdiv_1d(n);
            q.enqueue_kernel(&Scale, &wd, &Args::new().buf_f(&b).scalar_i(n as i64))
                .unwrap();
            q.wait().unwrap();
            q.last_sim_report().unwrap()
        });
        assert!(events.is_empty(), "{events:?}");
        assert!(report.profile.is_none() && report.spans.is_empty());
    }
}
