//! Deterministic fault injection for simulated devices.
//!
//! A [`FaultPlan`] is a *pure function of its seed*: every injection decision
//! is derived by hashing stable coordinates of the access (launch ordinal,
//! linear block index, byte address, allocation ordinal, ...) with a
//! splitmix64-style mixer. Nothing depends on worker count, engine choice or
//! scheduling order, so a campaign replays bit-identically under any
//! `ALPAKA_SIM_THREADS` and under both the compiled and reference engines.
//!
//! The plan models five failure classes seen on real accelerators:
//! - transient detected-uncorrectable ECC events on global f64/i64 loads
//!   (the load *errors*, it never silently corrupts data),
//! - allocation failure (OOM) at a chosen allocation ordinal,
//! - kernel watchdog timeout via a reduced cycle (fuel) budget,
//! - queue worker death at a chosen queue-operation ordinal,
//! - sticky device loss at a chosen launch ordinal.

use core::fmt;

/// Classification of a simulator-level error, carried alongside the message
/// so the facade can map it onto the right `alpaka_core::Error` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimErrorKind {
    /// Kernel misbehaviour. `transient: true` marks injected events a retry
    /// may avoid (ECC); `false` marks deterministic kernel bugs (OOB, ...).
    Fault { transient: bool },
    /// The watchdog cycle budget was exhausted.
    Timeout,
    /// The device dropped off the bus; sticky until the device is rebuilt.
    DeviceLost,
    /// Host-side buffer misuse detected by checked accessors.
    BadBuffer,
}

/// Structured simulator error: message plus fault classification and the
/// block/thread coordinates of the faulting lane when they are known.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    pub kind: SimErrorKind,
    pub msg: String,
    pub block: Option<[i64; 3]>,
    pub thread: Option<[i64; 3]>,
}

impl SimError {
    pub fn new(msg: impl Into<String>) -> Self {
        SimError {
            kind: SimErrorKind::Fault { transient: false },
            msg: msg.into(),
            block: None,
            thread: None,
        }
    }

    pub fn timeout(msg: impl Into<String>) -> Self {
        SimError {
            kind: SimErrorKind::Timeout,
            ..SimError::new(msg)
        }
    }

    pub fn device_lost(msg: impl Into<String>) -> Self {
        SimError {
            kind: SimErrorKind::DeviceLost,
            ..SimError::new(msg)
        }
    }

    pub fn bad_buffer(msg: impl Into<String>) -> Self {
        SimError {
            kind: SimErrorKind::BadBuffer,
            ..SimError::new(msg)
        }
    }

    pub fn transient(msg: impl Into<String>) -> Self {
        SimError {
            kind: SimErrorKind::Fault { transient: true },
            ..SimError::new(msg)
        }
    }

    /// Attach the faulting thread's in-block coordinates (canonical zyx).
    pub fn at_thread(mut self, tid: [i64; 3]) -> Self {
        self.thread = Some(tid);
        self
    }

    /// Attach the faulting block's coordinates (canonical zyx). Existing
    /// coordinates win: the innermost attribution is the most precise.
    pub fn with_block(mut self, bidx: [i64; 3]) -> Self {
        if self.block.is_none() {
            self.block = Some(bidx);
        }
        self
    }

    /// Prefix the message (used when wrapping with launch context).
    pub fn context(mut self, prefix: &str) -> Self {
        self.msg = format!("{prefix}{}", self.msg);
        self
    }
}

impl From<String> for SimError {
    fn from(msg: String) -> Self {
        SimError::new(msg)
    }
}

impl From<&str> for SimError {
    fn from(msg: &str) -> Self {
        SimError::new(msg)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

/// Shorthand used across the interpreter: `serr!("...", args)` builds a
/// non-transient `SimError` exactly like `format!` builds a `String`.
#[macro_export]
macro_rules! serr {
    ($($arg:tt)*) => {
        $crate::fault::SimError::new(format!($($arg)*))
    };
}

/// splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic fault-injection plan for one simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed feeding every injection decision.
    pub seed: u64,
    /// Per-global-load probability of an injected detected-uncorrectable
    /// ECC event, in `[0, 1]`. `0.0` disables ECC injection.
    pub ecc_rate: f64,
    /// Fail the N-th device allocation (0-based ordinal) with OOM.
    pub oom_at_alloc: Option<u64>,
    /// Watchdog: cycle (fuel) budget per launch; kernels that exceed it
    /// time out. `None` leaves the simulator's default budget in place.
    pub watchdog_fuel: Option<u64>,
    /// Lose the device at the N-th launch (0-based ordinal); the launch
    /// fails with `DeviceLost` and every later operation fails too.
    pub lost_at_launch: Option<u64>,
    /// Kill the queue worker at the N-th queue operation (0-based ordinal,
    /// counted per queue by the facade).
    pub worker_death_at_op: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for builders).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ecc_rate: 0.0,
            oom_at_alloc: None,
            watchdog_fuel: None,
            lost_at_launch: None,
            worker_death_at_op: None,
        }
    }

    pub fn with_ecc_rate(mut self, rate: f64) -> Self {
        self.ecc_rate = rate.clamp(0.0, 1.0);
        self
    }

    pub fn with_oom_at(mut self, ordinal: u64) -> Self {
        self.oom_at_alloc = Some(ordinal);
        self
    }

    pub fn with_watchdog_fuel(mut self, fuel: u64) -> Self {
        self.watchdog_fuel = Some(fuel);
        self
    }

    pub fn with_lost_at_launch(mut self, ordinal: u64) -> Self {
        self.lost_at_launch = Some(ordinal);
        self
    }

    pub fn with_worker_death_at(mut self, ordinal: u64) -> Self {
        self.worker_death_at_op = Some(ordinal);
        self
    }

    /// Parse `ALPAKA_SIM_FAULTS`, e.g.
    /// `"seed=42,ecc=1e-6,oom_at=3,watchdog=100000,lost_at=2,worker_death_at=1"`.
    /// Returns `None` when the variable is unset or empty; unknown or
    /// malformed fields are ignored (robustness over strictness: a typo in
    /// an env var must not take down the host program).
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("ALPAKA_SIM_FAULTS").ok()?;
        Self::parse(&raw)
    }

    /// Parse the `ALPAKA_SIM_FAULTS` syntax from a string.
    pub fn parse(raw: &str) -> Option<Self> {
        if raw.trim().is_empty() {
            return None;
        }
        let mut plan = FaultPlan::quiet(0);
        for field in raw.split(',') {
            let mut it = field.splitn(2, '=');
            let key = it.next().unwrap_or("").trim();
            let val = it.next().unwrap_or("").trim();
            match key {
                "seed" => {
                    if let Ok(v) = val.parse::<u64>() {
                        plan.seed = v;
                    }
                }
                "ecc" => {
                    if let Ok(v) = val.parse::<f64>() {
                        plan.ecc_rate = v.clamp(0.0, 1.0);
                    }
                }
                "oom_at" => plan.oom_at_alloc = val.parse::<u64>().ok(),
                "watchdog" => plan.watchdog_fuel = val.parse::<u64>().ok(),
                "lost_at" => plan.lost_at_launch = val.parse::<u64>().ok(),
                "worker_death_at" => plan.worker_death_at_op = val.parse::<u64>().ok(),
                _ => {}
            }
        }
        Some(plan)
    }

    /// Does the N-th allocation fail with OOM?
    pub fn oom_hits(&self, alloc_ordinal: u64) -> bool {
        self.oom_at_alloc == Some(alloc_ordinal)
    }

    /// Is the device lost at the N-th launch?
    pub fn lost_hits(&self, launch_ordinal: u64) -> bool {
        self.lost_at_launch == Some(launch_ordinal)
    }

    /// Does the queue worker die at the N-th queue operation?
    pub fn worker_death_hits(&self, op_ordinal: u64) -> bool {
        self.worker_death_at_op == Some(op_ordinal)
    }

    /// Per-launch ECC context handed into the interpreter. `None` when ECC
    /// injection is disabled so the hot path pays a single branch.
    pub fn ecc_ctx(&self, launch_ordinal: u64) -> Option<EccCtx> {
        if self.ecc_rate <= 0.0 {
            return None;
        }
        // Threshold in u64 space: hash < threshold <=> uniform < rate.
        let threshold = if self.ecc_rate >= 1.0 {
            u64::MAX
        } else {
            (self.ecc_rate * (u64::MAX as f64)) as u64
        };
        Some(EccCtx {
            seed: mix64(self.seed ^ mix64(launch_ordinal)),
            threshold,
        })
    }
}

/// Launch-scoped ECC injection context. Decisions are keyed purely on
/// `(seed, launch, linear block index, byte address)` — never on load
/// ordinals or worker identity — so they are invariant across engines,
/// thread counts and vectorization regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccCtx {
    seed: u64,
    threshold: u64,
}

impl EccCtx {
    /// Does the global load of the cache line / word at `addr` performed by
    /// block `block_lin` suffer a detected-uncorrectable ECC event?
    #[inline]
    pub fn hits(&self, block_lin: usize, addr: u64) -> bool {
        let h = mix64(self.seed ^ mix64(addr).wrapping_add((block_lin as u64) << 1));
        h < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=42,ecc=1e-6,oom_at=3,watchdog=100000,lost_at=2,worker_death_at=1",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert!((p.ecc_rate - 1e-6).abs() < 1e-12);
        assert_eq!(p.oom_at_alloc, Some(3));
        assert_eq!(p.watchdog_fuel, Some(100000));
        assert_eq!(p.lost_at_launch, Some(2));
        assert_eq!(p.worker_death_at_op, Some(1));
    }

    #[test]
    fn parse_ignores_garbage_fields() {
        let p = FaultPlan::parse("seed=7,bogus=1,ecc=nope").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.ecc_rate, 0.0);
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("   ").is_none());
    }

    #[test]
    fn ecc_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::quiet(1).with_ecc_rate(0.5);
        let ctx1 = a.ecc_ctx(0).unwrap();
        let ctx2 = a.ecc_ctx(0).unwrap();
        for blk in 0..16usize {
            for addr in (0..1024u64).step_by(8) {
                assert_eq!(ctx1.hits(blk, addr), ctx2.hits(blk, addr));
            }
        }
        // A different seed flips at least one decision over this window.
        let b = FaultPlan::quiet(2).with_ecc_rate(0.5);
        let ctxb = b.ecc_ctx(0).unwrap();
        let mut differs = false;
        for blk in 0..16usize {
            for addr in (0..1024u64).step_by(8) {
                differs |= ctx1.hits(blk, addr) != ctxb.hits(blk, addr);
            }
        }
        assert!(differs);
    }

    #[test]
    fn ecc_rate_extremes() {
        let never = FaultPlan::quiet(3);
        assert!(never.ecc_ctx(0).is_none());
        let always = FaultPlan::quiet(3).with_ecc_rate(1.0);
        let ctx = always.ecc_ctx(0).unwrap();
        assert!(ctx.hits(0, 0) && ctx.hits(5, 4096));
    }

    #[test]
    fn ecc_rate_is_roughly_honoured() {
        let p = FaultPlan::quiet(9).with_ecc_rate(0.1);
        let ctx = p.ecc_ctx(0).unwrap();
        let n = 20_000u64;
        let hits = (0..n).filter(|&i| ctx.hits(0, i * 8)).count() as f64;
        let rate = hits / n as f64;
        assert!((0.05..0.2).contains(&rate), "observed ECC rate {rate}");
    }

    #[test]
    fn ordinal_triggers() {
        let p = FaultPlan::quiet(0)
            .with_oom_at(2)
            .with_lost_at_launch(1)
            .with_worker_death_at(0);
        assert!(!p.oom_hits(1) && p.oom_hits(2) && !p.oom_hits(3));
        assert!(!p.lost_hits(0) && p.lost_hits(1));
        assert!(p.worker_death_hits(0) && !p.worker_death_hits(1));
    }

    #[test]
    fn serr_macro_builds_plain_faults() {
        let e = serr!("index {} out of bounds (len {})", 9, 4);
        assert_eq!(e.kind, SimErrorKind::Fault { transient: false });
        assert_eq!(e.to_string(), "index 9 out of bounds (len 4)");
        assert!(e.block.is_none() && e.thread.is_none());
    }

    #[test]
    fn sim_error_builders() {
        let e = SimError::transient("ecc")
            .at_thread([0, 0, 3])
            .with_block([0, 1, 0]);
        assert_eq!(e.kind, SimErrorKind::Fault { transient: true });
        assert_eq!(e.thread, Some([0, 0, 3]));
        assert_eq!(e.block, Some([0, 1, 0]));
        // with_block does not clobber an existing attribution.
        let e2 = e.clone().with_block([9, 9, 9]);
        assert_eq!(e2.block, Some([0, 1, 0]));
        let t = SimError::timeout("budget").context("block [0,0,0]: ");
        assert_eq!(t.kind, SimErrorKind::Timeout);
        assert!(t.msg.starts_with("block"));
    }
}
