//! Host-side resilience: bounded retries with simulated-clock backoff and
//! fail-over across a chain of accelerators.
//!
//! The fault model (see `DESIGN.md`) guarantees *fault-or-correct*: an
//! injected fault either fails the operation with a structured error or has
//! no effect — data is never silently corrupted. That makes a simple,
//! strong recovery contract possible: [`launch_resilient`] re-materializes
//! every argument buffer from pristine host snapshots before each attempt,
//! so a completed launch is bit-identical to a fault-free run no matter how
//! many attempts or devices failed before it.
//!
//! * **Transient** errors (injected ECC events, watchdog timeouts) and
//!   device-level resource errors (injected OOM, a dead queue worker) are
//!   retried on the same device under a [`RetryPolicy`], with exponential
//!   backoff charged to the simulated clock.
//! * **Sticky** errors (device loss) fail the device over to the next
//!   accelerator in the [`FallbackChain`] — e.g. `sim_k20 → CpuThreads →
//!   CpuSerial` — where the launch is re-run from the same snapshots.
//! * Deterministic kernel bugs (out-of-bounds and friends) are *not*
//!   retried: they would fail identically everywhere, so the error is
//!   returned at once.

use alpaka_core::buffer::BufLayout;
use alpaka_core::error::{Error, Result};
use alpaka_core::kernel::{Kernel, ScalarArgs};
use alpaka_core::metrics;
use alpaka_core::trace::{TraceEvent, TraceKind};
use alpaka_core::workdiv::WorkDiv;
use alpaka_sim::{AttemptRecord, ResilienceInfo, SimReport};

use crate::device::Device;
use crate::queue::Args;

/// Bounded-retry policy for transient errors on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt on each device.
    pub max_retries: u32,
    /// Backoff charged to the device's simulated clock before the first
    /// retry, in seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff after every failed retry.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 1e-3,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// No retries: every error immediately escalates (to the next device,
    /// or to the caller).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// Backoff before retry number `n` (1-based).
    pub(crate) fn backoff_s(&self, n: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(n.saturating_sub(1) as i32)
    }
}

/// An ordered list of devices to try; the first is the primary.
#[derive(Clone)]
pub struct FallbackChain {
    devices: Vec<Device>,
}

impl FallbackChain {
    pub fn new(primary: Device) -> Self {
        FallbackChain {
            devices: vec![primary],
        }
    }

    /// Append a fallback device (builder form).
    pub fn then(mut self, next: Device) -> Self {
        self.devices.push(next);
        self
    }

    pub fn devices(&self) -> &[Device] {
        &self.devices
    }
}

/// How to choose the work division on each device of the chain.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkDivSpec {
    /// One fixed division used verbatim on every device. Note that a
    /// division valid on the primary may be invalid on a fallback (e.g.
    /// wide blocks on a single-thread-block accelerator).
    Fixed(WorkDiv),
    /// Re-derive a device-appropriate 1-D division for `n` elements on
    /// every device via [`Device::suggest_workdiv_1d`].
    Suggest1d(usize),
}

/// A device-independent launch description: the kernel, the division rule
/// and *host-side snapshots* of every argument buffer. The snapshots are
/// what makes fail-over possible — buffers are re-materialized from them
/// on whichever device ends up running the kernel, and re-materialized
/// again before every retry so partial writes from a failed attempt never
/// leak into the next one.
#[derive(Clone)]
pub struct LaunchSpec<K> {
    pub kernel: K,
    pub workdiv: WorkDivSpec,
    /// (layout, initial dense contents) per f64 buffer slot.
    pub bufs_f: Vec<(BufLayout, Vec<f64>)>,
    /// (layout, initial dense contents) per i64 buffer slot.
    pub bufs_i: Vec<(BufLayout, Vec<i64>)>,
    pub scalars: ScalarArgs,
}

impl<K> LaunchSpec<K> {
    pub fn new(kernel: K, workdiv: WorkDivSpec) -> Self {
        LaunchSpec {
            kernel,
            workdiv,
            bufs_f: Vec::new(),
            bufs_i: Vec::new(),
            scalars: ScalarArgs::default(),
        }
    }

    /// Bind the next f64 buffer slot: `layout` plus its initial dense
    /// contents (`init.len()` must equal `layout.dense_len()`).
    pub fn arg_f(mut self, layout: BufLayout, init: Vec<f64>) -> Self {
        self.bufs_f.push((layout, init));
        self
    }

    /// Bind the next i64 buffer slot.
    pub fn arg_i(mut self, layout: BufLayout, init: Vec<i64>) -> Self {
        self.bufs_i.push((layout, init));
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
}

/// The completed launch: which device ran it, what it cost, and the final
/// dense contents of every argument buffer.
#[derive(Debug, Clone)]
pub struct LaunchOutcome {
    /// Name of the device that completed the launch.
    pub device: String,
    /// Index into the chain of the completing device (0 = primary).
    pub device_index: usize,
    /// Total attempts across the whole chain (1 = first try succeeded).
    pub attempts: u32,
    /// Simulated seconds charged as retry backoff.
    pub backoff_s: f64,
    /// Every error encountered on the way to success, in order.
    pub errors: Vec<Error>,
    /// Final dense contents of each f64 buffer slot, in binding order.
    pub bufs_f: Vec<Vec<f64>>,
    /// Final dense contents of each i64 buffer slot, in binding order.
    pub bufs_i: Vec<Vec<i64>>,
    /// Simulator report of the winning attempt (`None` when it ran on a
    /// native CPU device). Carries the retry/fail-over provenance in
    /// `report.resilience` and the engine downgrade reason in
    /// `report.fallback`, so outcomes are inspectable without parsing
    /// trace streams.
    pub report: Option<SimReport>,
}

/// Classify an error for the retry loop.
pub(crate) enum Disposition {
    /// Worth retrying on the same device (transient fault, timeout, or a
    /// device-level resource error like an injected OOM or a dead worker).
    Retry,
    /// The device is gone; fail over to the next one in the chain.
    FailOver,
    /// A deterministic bug — retrying or falling back cannot help.
    Fatal,
}

pub(crate) fn classify(e: &Error) -> Disposition {
    if e.is_sticky() {
        Disposition::FailOver
    } else if e.is_transient() || matches!(e, Error::Device(_)) {
        Disposition::Retry
    } else {
        Disposition::Fatal
    }
}

/// Stable fault-kind name recorded per attempt (see
/// [`alpaka_sim::AttemptRecord::fault`]).
pub(crate) fn fault_kind(e: &Error) -> &'static str {
    match e {
        Error::KernelFault(f) if f.transient => "ecc",
        Error::KernelFault(_) => "kernel_fault",
        Error::Timeout(_) => "timeout",
        Error::DeviceLost(_) => "device_lost",
        Error::Device(m) if m.contains("out of memory") => "oom",
        Error::Device(_) => "device",
        Error::BadBuffer(_) => "bad_buffer",
        Error::BadCopy(_) => "bad_copy",
        Error::BadArg(_) => "bad_arg",
        Error::InvalidWorkDiv(_) => "invalid_workdiv",
        Error::Unsupported(_) => "unsupported",
    }
}

/// Downloaded contents of every f64 and i64 argument buffer, in binding
/// order, plus the simulator report of the launch (native devices: `None`).
type AttemptOutput = (Vec<Vec<f64>>, Vec<Vec<i64>>, Option<SimReport>);

/// Materialise `spec`'s argument buffers on `dev` from host state (one dense
/// vector per slot, in binding order), run `launch` over them and, only if
/// it succeeds, replace each slot of the state with its buffer's download.
/// Slots are replaced one at a time, so the host never holds two copies of
/// the whole state.
pub(crate) fn materialize_and_run<K, R>(
    dev: &Device,
    spec: &LaunchSpec<K>,
    state_f: &mut [Vec<f64>],
    state_i: &mut [Vec<i64>],
    launch: impl FnOnce(&Args) -> Result<R>,
) -> Result<R> {
    let mut args = Args::new();
    for ((layout, _), init) in spec.bufs_f.iter().zip(&*state_f) {
        let b = dev.try_alloc_f64(*layout)?;
        b.upload(init)?;
        args = args.buf_f(&b);
    }
    for ((layout, _), init) in spec.bufs_i.iter().zip(&*state_i) {
        let b = dev.try_alloc_i64(*layout)?;
        b.upload(init)?;
        args = args.buf_i(&b);
    }
    args.scalars = spec.scalars.clone();
    let out = launch(&args)?;
    for (b, slot) in args.bufs_f.iter().zip(state_f) {
        *slot = b.download();
    }
    for (b, slot) in args.bufs_i.iter().zip(state_i) {
        *slot = b.download();
    }
    Ok(out)
}

/// One full attempt on one device from the pristine snapshots in `spec`.
fn attempt<K: Kernel + Clone + Send + 'static>(
    dev: &Device,
    spec: &LaunchSpec<K>,
) -> Result<AttemptOutput> {
    let wd = match &spec.workdiv {
        WorkDivSpec::Fixed(wd) => *wd,
        WorkDivSpec::Suggest1d(n) => dev.suggest_workdiv_1d(*n),
    };
    let mut bufs_f: Vec<_> = spec.bufs_f.iter().map(|(_, init)| init.clone()).collect();
    let mut bufs_i: Vec<_> = spec.bufs_i.iter().map(|(_, init)| init.clone()).collect();
    let report = materialize_and_run(dev, spec, &mut bufs_f, &mut bufs_i, |args| {
        dev.launch_report(&spec.kernel, &wd, args)
    })?;
    Ok((bufs_f, bufs_i, report))
}

/// Leave chain member `di`: a `FailOver` event saying why (built only while
/// the member is observed) and its count.
fn fail_over(dev: &Device, di: usize, why: impl FnOnce() -> String) {
    let obs = dev.obs();
    if obs.active() {
        let ev = TraceEvent::new(TraceKind::FailOver, why(), dev.id(), dev.sim_clock_s());
        obs.emit(ev.with("device_index", di as f64));
    }
    obs.counter_add("alpaka_resilient_failovers_total", &[], 1);
}

/// Run `spec` to completion across `chain` under `policy`.
///
/// Every attempt starts from the pristine host snapshots in `spec`, so the
/// returned buffer contents are bit-identical to a fault-free run of the
/// same kernel — regardless of how many transient faults were retried or
/// how many devices were lost along the way. Fails only when a
/// deterministic kernel bug surfaces, or every device in the chain has
/// been exhausted.
pub fn launch_resilient<K: Kernel + Clone + Send + 'static>(
    chain: &FallbackChain,
    policy: &RetryPolicy,
    spec: &LaunchSpec<K>,
) -> Result<LaunchOutcome> {
    let mut attempts = 0u32;
    let mut backoff_total = 0.0f64;
    let mut errors: Vec<Error> = Vec::new();
    let mut history: Vec<AttemptRecord> = Vec::new();
    let mut failovers = 0u32;
    // Backoff charged to the simulated clock immediately before the next
    // attempt (0 for a first attempt); carried as span meta so trace
    // reports can total the backoff without replaying the policy.
    let mut backoff_before: f64;
    for (di, dev) in chain.devices().iter().enumerate() {
        // Each member records into its own `Obs`.
        let obs = dev.obs();
        if dev.is_lost() {
            fail_over(dev, di, || format!("skip {}: already lost", dev.name()));
            failovers += 1;
            errors.push(Error::DeviceLost(format!(
                "{}: device already lost before first attempt",
                dev.name()
            )));
            continue;
        }
        let mut retries = 0u32;
        backoff_before = 0.0;
        loop {
            attempts += 1;
            obs.counter_add("alpaka_resilient_attempts_total", &[], 1);
            let t0 = dev.sim_clock_s();
            let result = attempt(dev, spec);
            let transient = result.as_ref().err().is_some_and(|e| e.is_transient());
            if obs.active() {
                // One span per attempt: device, outcome (the fault kind that
                // ended it, or "ok"), attempt ordinal.
                let label = match &result {
                    Ok(_) => format!("attempt {attempts} on {}: ok", dev.name()),
                    Err(e) => format!("attempt {attempts} on {}: {e}", dev.name()),
                };
                obs.emit(
                    TraceEvent::new(TraceKind::RetryAttempt, label, dev.id(), t0)
                        .span_until(dev.sim_clock_s())
                        .with("attempt", attempts as f64)
                        .with("device_index", di as f64)
                        .with("backoff_before_s", backoff_before)
                        .with("transient", transient as u64 as f64),
                );
            }
            history.push(AttemptRecord {
                attempt: attempts,
                device: dev.name(),
                device_index: di,
                fault: result.as_ref().err().map(|e| fault_kind(e).to_string()),
                transient,
            });
            match result {
                Ok((bufs_f, bufs_i, mut report)) => {
                    if obs.metrics_enabled() {
                        obs.counter_add(
                            "alpaka_resilient_launches_total",
                            &[("kernel", spec.kernel.name())],
                            1,
                        );
                        obs.observe_in(
                            "alpaka_resilient_attempts_per_launch",
                            &[],
                            metrics::COUNT_BUCKETS,
                            attempts as f64,
                        );
                    }
                    if let Some(r) = report.as_mut() {
                        r.resilience = Some(ResilienceInfo {
                            attempts,
                            history: std::mem::take(&mut history),
                            backoff_s: backoff_total,
                            failovers,
                        });
                    }
                    return Ok(LaunchOutcome {
                        device: dev.name(),
                        device_index: di,
                        attempts,
                        backoff_s: backoff_total,
                        errors,
                        bufs_f,
                        bufs_i,
                        report,
                    });
                }
                Err(e) => {
                    obs.counter_add(
                        "alpaka_resilient_faults_total",
                        &[("kind", fault_kind(&e))],
                        1,
                    );
                    let disposition = classify(&e);
                    errors.push(e);
                    match disposition {
                        Disposition::Fatal => {
                            let e = errors.pop().expect("just pushed");
                            obs.note_failure(
                                fault_kind(&e),
                                &format!("{} on {}: {e}", spec.kernel.name(), dev.name()),
                            );
                            return Err(e);
                        }
                        Disposition::FailOver => {
                            let e = errors.last().expect("just pushed");
                            fail_over(dev, di, || format!("fail over from {}: {e}", dev.name()));
                            failovers += 1;
                            break;
                        }
                        Disposition::Retry => {
                            if retries >= policy.max_retries {
                                let tries = retries + 1;
                                fail_over(dev, di, || {
                                    format!(
                                        "retries exhausted on {} after {tries} attempt(s)",
                                        dev.name()
                                    )
                                });
                                failovers += 1;
                                break;
                            }
                            retries += 1;
                            let pause = policy.backoff_s(retries);
                            dev.advance_sim_clock(pause);
                            backoff_total += pause;
                            backoff_before = pause;
                            obs.observe("alpaka_resilient_backoff_seconds", &[], pause);
                        }
                    }
                }
            }
        }
    }
    let e = Error::Device(format!(
        "all {} device(s) in the fallback chain exhausted; last error: {}",
        chain.devices().len(),
        errors
            .last()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "none recorded".into()),
    ));
    if let Some(last) = chain.devices().last() {
        let detail = format!("{}: {e}", spec.kernel.name());
        last.obs().note_failure(fault_kind(&e), &detail);
    }
    Err(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AccKind;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};
    use alpaka_sim::FaultPlan;

    #[derive(Clone)]
    struct Daxpy;
    impl Kernel for Daxpy {
        fn name(&self) -> &str {
            "daxpy"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let gid = o.global_thread_idx(0);
            let v = o.thread_elem_extent(0);
            let base = o.mul_i(gid, v);
            o.for_elements(0, |o, e| {
                let i = o.add_i(base, e);
                let c = o.lt_i(i, n);
                o.if_(c, |o| {
                    let xv = o.ld_gf(x, i);
                    let yv = o.ld_gf(y, i);
                    let r = o.fma_f(xv, a, yv);
                    o.st_gf(y, i, r);
                });
            });
        }
    }

    fn daxpy_spec(n: usize) -> LaunchSpec<Daxpy> {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![1.0; n];
        LaunchSpec::new(Daxpy, WorkDivSpec::Suggest1d(n))
            .arg_f(BufLayout::d1(n), x)
            .arg_f(BufLayout::d1(n), y)
            .scalar_f(2.0)
            .scalar_i(n as i64)
    }

    fn expected(n: usize) -> Vec<f64> {
        (0..n).map(|i| 2.0 * i as f64 + 1.0).collect()
    }

    #[test]
    fn fault_free_run_succeeds_first_try() {
        let n = 512;
        let chain = FallbackChain::new(Device::new(AccKind::sim_k20()));
        let out = launch_resilient(&chain, &RetryPolicy::default(), &daxpy_spec(n)).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.device_index, 0);
        assert!(out.errors.is_empty());
        assert_eq!(out.bufs_f[1], expected(n));
    }

    #[test]
    fn transient_ecc_is_retried_with_backoff_on_sim_clock() {
        let n = 512;
        // A high ECC rate: the first attempts fail, but the rate is keyed
        // on the launch ordinal, so eventually an attempt gets through...
        // unless it doesn't within the budget — so find a seed that
        // recovers within the retry budget (deterministic given the seed).
        let mut recovered = None;
        for seed in 0..50u64 {
            let dev = Device::new(AccKind::sim_k20())
                .with_faults(FaultPlan::quiet(seed).with_ecc_rate(2e-4));
            let chain = FallbackChain::new(dev.clone());
            let policy = RetryPolicy {
                max_retries: 6,
                backoff_base_s: 1e-3,
                backoff_factor: 2.0,
            };
            if let Ok(out) = launch_resilient(&chain, &policy, &daxpy_spec(n)) {
                if out.attempts > 1 {
                    assert!(out
                        .errors
                        .iter()
                        .all(|e| e.is_transient() || matches!(e, Error::Device(_))));
                    assert!(out.backoff_s > 0.0);
                    // Backoff was charged to the simulated clock.
                    assert!(dev.sim_clock_s() >= out.backoff_s);
                    assert_eq!(out.bufs_f[1], expected(n), "seed {seed}");
                    recovered = Some(out);
                    break;
                }
            }
        }
        assert!(
            recovered.is_some(),
            "no seed produced a retried-then-recovered run"
        );
    }

    #[test]
    fn device_loss_fails_over_and_matches_fault_free_result() {
        let n = 777;
        let lost =
            Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(7).with_lost_at_launch(0));
        let chain = FallbackChain::new(lost.clone())
            .then(Device::new(AccKind::CpuThreads))
            .then(Device::new(AccKind::CpuSerial));
        let out = launch_resilient(&chain, &RetryPolicy::default(), &daxpy_spec(n)).unwrap();
        assert!(out.device_index > 0, "should have failed over: {out:?}");
        assert!(lost.is_lost());
        assert!(out.errors.iter().any(|e| e.is_sticky()));
        // Bit-identical to the fault-free run on the fallback device.
        let reference = launch_resilient(
            &FallbackChain::new(Device::new(AccKind::CpuSerial)),
            &RetryPolicy::none(),
            &daxpy_spec(n),
        )
        .unwrap();
        assert_eq!(out.bufs_f, reference.bufs_f);
        assert_eq!(out.bufs_f[1], expected(n));
    }

    #[test]
    fn deterministic_kernel_bug_is_fatal_not_retried() {
        #[derive(Clone)]
        struct Oob;
        impl Kernel for Oob {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let i = o.lit_i(99_999);
                let v = o.lit_f(1.0);
                o.st_gf(b, i, v);
            }
        }
        let chain = FallbackChain::new(Device::new(AccKind::sim_k20()))
            .then(Device::new(AccKind::CpuSerial));
        let spec = LaunchSpec::new(Oob, WorkDivSpec::Fixed(WorkDiv::d1(1, 1, 1)))
            .arg_f(BufLayout::d1(8), vec![0.0; 8]);
        let err = launch_resilient(&chain, &RetryPolicy::default(), &spec).unwrap_err();
        assert!(matches!(err, Error::KernelFault(_)), "{err}");
        assert!(!err.is_transient());
    }

    #[test]
    fn exhausted_chain_reports_last_error() {
        let a =
            Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(1).with_lost_at_launch(0));
        let b =
            Device::new(AccKind::sim_k80()).with_faults(FaultPlan::quiet(2).with_lost_at_launch(0));
        let chain = FallbackChain::new(a).then(b);
        let err = launch_resilient(&chain, &RetryPolicy::none(), &daxpy_spec(64)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("exhausted"), "{msg}");
    }

    #[test]
    fn attempts_and_failover_are_traced() {
        let n = 128;
        let (out, events) = alpaka_core::trace::capture(|| {
            let lost = Device::new(AccKind::sim_k20())
                .with_faults(FaultPlan::quiet(7).with_lost_at_launch(0));
            let chain = FallbackChain::new(lost).then(Device::new(AccKind::CpuSerial));
            launch_resilient(&chain, &RetryPolicy::default(), &daxpy_spec(n)).unwrap()
        });
        assert!(out.device_index > 0);
        let retry_events: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::RetryAttempt)
            .collect();
        assert_eq!(retry_events.len() as u32, out.attempts);
        assert!(events.iter().any(|e| e.kind == TraceKind::FailOver));
        // The fault kind that triggered the fail-over is in the span label.
        assert!(
            retry_events.iter().any(|e| e.label.contains("device lost")),
            "{retry_events:?}"
        );
    }

    #[test]
    fn injected_oom_is_retried() {
        let n = 256;
        // OOM at allocation ordinal 0: the very first buffer allocation
        // fails; the retry uses fresh ordinals and succeeds.
        let dev = Device::new(AccKind::sim_k20()).with_faults(FaultPlan::quiet(3).with_oom_at(0));
        let chain = FallbackChain::new(dev);
        let out = launch_resilient(&chain, &RetryPolicy::default(), &daxpy_spec(n)).unwrap();
        assert_eq!(out.attempts, 2);
        assert!(matches!(out.errors[0], Error::Device(_)));
        assert_eq!(out.bufs_f[1], expected(n));
    }
}
