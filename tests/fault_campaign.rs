//! Randomized fault campaign (property tests): under any seeded
//! [`FaultPlan`] a kernel launch must either fail with a *structured*
//! error or complete with results bit-identical to a fault-free run —
//! never silent corruption. And every outcome must be a pure function of
//! the plan's seed: re-running the identical campaign with a different
//! interpreter worker count reproduces it exactly.

use alpaka::{AccKind, Args, BufLayout, Device, Engine, Error, FaultPlan};
use alpaka_kernels::{DaxpyKernel, DgemmNaive};
use proptest::prelude::*;

/// A campaign outcome, normalized for comparison across runs: either the
/// output buffers or the error's display form (which embeds the fault
/// kind and coordinates).
type Outcome = Result<Vec<Vec<f64>>, String>;

/// Every error a fault campaign may produce must be one of the structured
/// injection/fault variants — anything else (e.g. a `BadArg`) would mean
/// the plan broke the host API rather than the simulated hardware.
fn assert_structured(err: &Error) {
    match err {
        Error::KernelFault(info) => {
            // daxpy/dgemm are bug-free: only injected (transient) ECC
            // events can fault them, and those carry coordinates.
            assert!(info.transient, "unexpected deterministic fault: {err}");
            assert!(info.block.is_some() && info.thread.is_some(), "{err}");
        }
        Error::Timeout(_) | Error::DeviceLost(_) | Error::Device(_) => {}
        other => panic!("unstructured campaign error: {other}"),
    }
}

fn plan_from(seed: u64, ecc_exp: u32, oom_at: Option<u64>, lost_at: Option<u64>) -> FaultPlan {
    // ecc_exp 0 disables ECC; otherwise rate 10^-ecc_exp (1e-1 .. 1e-6).
    let mut plan = FaultPlan::quiet(seed);
    if ecc_exp > 0 {
        plan = plan.with_ecc_rate(10f64.powi(-(ecc_exp as i32)));
    }
    if let Some(o) = oom_at {
        plan = plan.with_oom_at(o);
    }
    if let Some(l) = lost_at {
        plan = plan.with_lost_at_launch(l);
    }
    plan
}

/// Run daxpy on a fresh simulated device under `plan` with `workers`
/// interpreter workers; allocation goes through the fault-aware path so
/// injected OOM participates too.
fn run_daxpy(plan: Option<&FaultPlan>, workers: usize, engine: Engine, n: usize) -> Outcome {
    let mut dev = Device::with_workers(AccKind::sim_k20(), workers).with_engine(engine);
    if let Some(p) = plan {
        dev = dev.with_faults(p.clone());
    } else {
        // A plan from ALPAKA_SIM_FAULTS would make the "fault-free"
        // reference runs of this campaign flaky under the CI smoke seed.
        dev = dev.with_faults(FaultPlan::quiet(0));
    }
    let run = || -> Result<Vec<Vec<f64>>, Error> {
        let x = dev.try_alloc_f64(BufLayout::d1(n))?;
        let y = dev.try_alloc_f64(BufLayout::d1(n))?;
        x.upload(&(0..n).map(|i| 0.5 * i as f64).collect::<Vec<_>>())?;
        y.upload(&(0..n).map(|i| 1.0 + i as f64).collect::<Vec<_>>())?;
        let wd = dev.suggest_workdiv_1d(n);
        let args = Args::new()
            .buf_f(&x)
            .buf_f(&y)
            .scalar_f(1.5)
            .scalar_i(n as i64);
        dev.launch(&DaxpyKernel, &wd, &args)?;
        Ok(vec![y.download()])
    };
    run().map_err(|e| e.to_string())
}

/// Same campaign harness for the naive DGEMM (pitched row-major).
fn run_dgemm(
    plan: Option<&FaultPlan>,
    workers: usize,
    engine: Engine,
    m: usize,
    n: usize,
    k: usize,
) -> Outcome {
    let mut dev = Device::with_workers(AccKind::sim_k20(), workers).with_engine(engine);
    dev = dev.with_faults(plan.cloned().unwrap_or_else(|| FaultPlan::quiet(0)));
    let run = || -> Result<Vec<Vec<f64>>, Error> {
        let a = dev.try_alloc_f64(BufLayout::d1(m * k))?;
        let b = dev.try_alloc_f64(BufLayout::d1(k * n))?;
        let c = dev.try_alloc_f64(BufLayout::d1(m * n))?;
        a.upload(&(0..m * k).map(|i| (i % 7) as f64 - 3.0).collect::<Vec<_>>())?;
        b.upload(
            &(0..k * n)
                .map(|i| (i % 5) as f64 * 0.25)
                .collect::<Vec<_>>(),
        )?;
        c.upload(&vec![1.0; m * n])?;
        let wd = DgemmNaive::workdiv(m, 2);
        let args = Args::new()
            .buf_f(&a)
            .buf_f(&b)
            .buf_f(&c)
            .scalar_f(1.0)
            .scalar_f(0.5)
            .scalar_i(m as i64)
            .scalar_i(n as i64)
            .scalar_i(k as i64)
            .scalar_i(k as i64) // lda
            .scalar_i(n as i64) // ldb
            .scalar_i(n as i64); // ldc
        dev.launch(&DgemmNaive, &wd, &args)?;
        Ok(vec![c.download()])
    };
    run().map_err(|e| e.to_string())
}

fn check_campaign(faulty: &Outcome, reference: &Outcome) {
    let want = reference.as_ref().expect("fault-free run must succeed");
    match faulty {
        // Fault-or-correct: a surviving run is bit-identical.
        Ok(got) => assert_eq!(got, want, "silent corruption under injected faults"),
        Err(msg) => {
            // The display form must come from a structured variant; spot
            // check by re-parsing the prefix keywords the variants print.
            assert!(
                msg.contains("kernel fault")
                    || msg.contains("timeout")
                    || msg.contains("device lost")
                    || msg.contains("device error"),
                "unstructured campaign error: {msg}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// daxpy under random plans: fault-or-correct, plus seed-determinism
    /// across interpreter worker counts (1 vs 4).
    #[test]
    fn daxpy_campaign_is_fault_or_correct_and_deterministic(
        seed in any::<u64>(),
        ecc_exp in 0u32..6,
        oom_raw in 0u64..8,
        lost_raw in 0u64..6,
        n in 16usize..512,
    ) {
        // Roughly half the cases get an injected OOM / device loss.
        let oom_at = (oom_raw < 4).then_some(oom_raw);
        let lost_at = (lost_raw < 2).then_some(lost_raw);
        let reference = run_daxpy(None, 1, Engine::Compiled, n);
        let plan = plan_from(seed, ecc_exp, oom_at, lost_at);
        let faulty = run_daxpy(Some(&plan), 1, Engine::Compiled, n);
        check_campaign(&faulty, &reference);
        // Bit-reproducible from the seed, whatever the parallelism.
        let again = run_daxpy(Some(&plan), 4, Engine::Compiled, n);
        prop_assert_eq!(&faulty, &again, "outcome depends on worker count");
        // Fault attribution is an engine invariant: the oracle reports the
        // same structured outcome — same error kind and the same
        // block/thread coordinates baked into the display form.
        let oracle = run_daxpy(Some(&plan), 1, Engine::Reference, n);
        prop_assert_eq!(&faulty, &oracle, "outcome depends on the engine");
    }

    #[test]
    fn dgemm_campaign_is_fault_or_correct_and_deterministic(
        seed in any::<u64>(),
        ecc_exp in 0u32..5,
        m in 2usize..12,
        n in 2usize..12,
        k in 2usize..12,
    ) {
        let reference = run_dgemm(None, 1, Engine::Compiled, m, n, k);
        let plan = plan_from(seed, ecc_exp, None, None);
        let faulty = run_dgemm(Some(&plan), 1, Engine::Compiled, m, n, k);
        check_campaign(&faulty, &reference);
        let again = run_dgemm(Some(&plan), 4, Engine::Compiled, m, n, k);
        prop_assert_eq!(&faulty, &again, "outcome depends on worker count");
        let oracle = run_dgemm(Some(&plan), 1, Engine::Reference, m, n, k);
        prop_assert_eq!(&faulty, &oracle, "outcome depends on the engine");
    }
}

/// A fixed high-rate plan must actually fault (the campaign above could
/// in principle pass with rates too low to ever trigger) — and the error
/// it produces is structured with coordinates.
#[test]
fn high_ecc_rate_always_faults_daxpy() {
    let plan = FaultPlan::quiet(11).with_ecc_rate(1.0);
    let dev = Device::new(AccKind::sim_k20()).with_faults(plan);
    let n = 64;
    let x = dev.alloc_f64(BufLayout::d1(n));
    let y = dev.alloc_f64(BufLayout::d1(n));
    x.upload(&vec![1.0; n]).unwrap();
    let wd = dev.suggest_workdiv_1d(n);
    let args = Args::new()
        .buf_f(&x)
        .buf_f(&y)
        .scalar_f(2.0)
        .scalar_i(n as i64);
    let err = dev.launch(&DaxpyKernel, &wd, &args).unwrap_err();
    assert_structured(&err);
    assert!(err.is_transient(), "{err}");
}

// ---------------------------------------------------------------------------
// Atomics-plan x fault-injection: the deterministic parallel-atomics path
// (privatized scatter, ordered commit) must stay fault-or-correct and
// bit-reproducible under injected faults too.

/// Atomic f64 reduction through the queue path, so queue-level worker
/// death participates alongside device-level ECC / loss.
fn run_reduce_atomic(
    plan: Option<&alpaka::FaultPlan>,
    workers: usize,
    engine: Engine,
    n: usize,
    death_at: Option<u64>,
) -> Outcome {
    use alpaka::{Obs, Queue, QueueBehavior, WorkDiv};
    use alpaka_kernels::ReduceAtomic;
    // An `Obs` of its own: the queue id its wait errors name is 0 on every run.
    let mut dev = Obs::default()
        .scope(|| Device::with_workers(AccKind::sim_k20(), workers).with_engine(engine));
    let mut p = plan.cloned().unwrap_or_else(|| FaultPlan::quiet(0));
    if let Some(d) = death_at {
        p = p.with_worker_death_at(d);
    }
    dev = dev.with_faults(p);
    let q = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
    let run = || -> Result<Vec<Vec<f64>>, Error> {
        let x = dev.try_alloc_f64(BufLayout::d1(n))?;
        let out = dev.try_alloc_f64(BufLayout::d1(1))?;
        x.upload(&(0..n).map(|i| 0.125 * i as f64 - 7.0).collect::<Vec<_>>())?;
        // Non-zero base so the f64 accumulation order is observable.
        out.upload(&[0.25])?;
        let threads = 16usize;
        let elems = 2usize;
        let blocks = n.div_ceil(threads * elems).max(1);
        let wd = WorkDiv::d1(blocks, threads, elems);
        let args = Args::new().buf_f(&x).buf_f(&out).scalar_i(n as i64);
        q.enqueue_kernel(&ReduceAtomic, &wd, &args)?;
        q.wait()?;
        Ok(vec![out.download()])
    };
    run().map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reducible atomic kernel under combined fault plans: fault-or-correct,
    /// and the outcome — including the exact f64 bits of the atomically
    /// accumulated sum — is identical across interpreter worker counts and
    /// both engines.
    #[test]
    fn atomic_reduction_campaign_is_fault_or_correct_and_deterministic(
        seed in any::<u64>(),
        ecc_exp in 0u32..6,
        lost_raw in 0u64..6,
        death_raw in 0u64..12,
        n in 32usize..700,
    ) {
        let lost_at = (lost_raw < 2).then_some(lost_raw);
        let death_at = (death_raw < 4).then_some(death_raw);
        let reference = run_reduce_atomic(None, 1, Engine::Compiled, n, None);
        let plan = plan_from(seed, ecc_exp, None, lost_at);
        let faulty = run_reduce_atomic(Some(&plan), 1, Engine::Compiled, n, death_at);
        check_campaign(&faulty, &reference);
        // Same plan, more interpreter workers: the deterministic
        // parallel-atomics merge must reproduce the outcome bit-for-bit.
        let again = run_reduce_atomic(Some(&plan), 4, Engine::Compiled, n, death_at);
        prop_assert_eq!(&faulty, &again, "outcome depends on worker count");
        let oracle = run_reduce_atomic(Some(&plan), 1, Engine::Reference, n, death_at);
        prop_assert_eq!(&faulty, &oracle, "outcome depends on the engine");
    }
}
