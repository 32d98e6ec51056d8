//! Fault-tolerant multi-device pool: one logical grid launch sharded
//! across N simulated devices as deterministic sub-grids, surviving
//! per-device faults.
//!
//! # Sharding model
//!
//! A pool launch splits the grid's `B` blocks into `S` contiguous shards
//! (`S` is a launch parameter, independent of pool size) and executes them
//! **in ascending shard order**, threading the argument-buffer state from
//! shard to shard: shard `k` starts from the exact buffer contents shard
//! `k-1` produced. Blocks keep their true grid coordinates
//! ([`alpaka_sim::ExecMode::BlockRange`]), and deferred atomics commit in
//! block order inside each shard, so the concatenation of all shards is
//! *block-for-block identical* to one serial full-grid launch — results are
//! bit-identical to the single-device run by construction, for any pool
//! size, interpreter thread count, engine, or fault history that recovers.
//!
//! The host-side state between shards doubles as the **checkpoint**: when
//! a device fails mid-shard, only that shard's buffers are re-materialized
//! (uploaded from the checkpoint) on the migration target — completed
//! shards are never re-run. Device *parallelism* is simulated: each member
//! advances its own simulated clock only by the shards it ran, and the
//! pool's makespan is the busiest member's time, while the pool's
//! *serialized* clock (the sum of shard times) drives the canonical trace
//! lane so the event stream stays byte-identical across pool sizes.
//!
//! # Health state machine
//!
//! ```text
//!             transient fault                sticky loss / retries exhausted
//!   Healthy ──────────────────▶ Degraded ──────────────────▶ Quarantined
//!      ▲                           │                            │
//!      │        clean shard        │                            │ cooldown
//!      ├───────────────────────────┘                            ▼
//!      │                      clean shard                   Recovered
//!      └────────────────────────────────────────────────────────┘
//!                       (a failing shard on a Recovered device
//!                        quarantines it again)
//! ```
//!
//! Quarantined devices receive no shards. After `cooldown_shards` shards
//! complete elsewhere, the pool arms recovery ([`Device::mark_recovered`])
//! and revives the device; one clean shard promotes it back to Healthy.

use alpaka_core::error::{Error, Result};
use alpaka_core::kernel::Kernel;
use alpaka_core::metrics;
use alpaka_core::obs::Obs;
use alpaka_core::trace::{TraceEvent, TraceKind};
use alpaka_core::workdiv::WorkDiv;
use alpaka_sim::{AttemptRecord, FaultPlan, LaunchStats, ResilienceInfo, SimReport};

use crate::device::{Device, DeviceImpl};
use crate::resilient::{
    classify, fault_kind, materialize_and_run, Disposition, FallbackChain, LaunchSpec, RetryPolicy,
};
use crate::WorkDivSpec;

/// Per-device health as seen by the pool's fault tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No outstanding faults.
    Healthy,
    /// Survived a transient fault; still receives shards.
    Degraded,
    /// Lost (or exhausted its retries): receives no shards until the
    /// recovery cooldown elapses.
    Quarantined,
    /// Revived after quarantine; one clean shard promotes it to Healthy,
    /// one failure re-quarantines it.
    Recovered,
}

impl Health {
    /// May this device be assigned a shard?
    pub fn available(self) -> bool {
        !matches!(self, Health::Quarantined)
    }

    /// Stable lowercase name (metric label value, post-mortem rendering).
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Quarantined => "quarantined",
            Health::Recovered => "recovered",
        }
    }
}

/// Pool-level fault handling knobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolPolicy {
    /// Per-device retry budget for transient shard faults.
    pub retry: RetryPolicy,
    /// Deadline for one pool launch on the serialized pool clock, in
    /// simulated seconds. Exceeding it fails the launch with a structured
    /// timeout naming the completed and pending shards.
    pub deadline_s: Option<f64>,
    /// Shards that must complete elsewhere before a quarantined device is
    /// revived (0 = quarantine is permanent for the pool's lifetime).
    pub cooldown_shards: u32,
    /// Also emit per-member-device shard spans and migration markers (one
    /// Chrome-trace lane per member). Off by default: member lanes
    /// necessarily depend on the pool size, while the canonical pool lane
    /// is byte-identical across pool sizes.
    pub member_lanes: bool,
}

/// One completed shard of a pool launch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Shard ordinal (ascending execution order).
    pub shard: usize,
    /// First linear block index covered (inclusive).
    pub start_block: usize,
    /// One past the last linear block index covered.
    pub end_block: usize,
    /// Member index of the device that completed the shard.
    pub device_index: usize,
    /// Attempts the shard took across all devices (1 = clean first try).
    pub attempts: u32,
    /// Modeled execution seconds of the winning attempt.
    pub time_s: f64,
}

/// One shard hand-off from a quarantined device to a survivor.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Shard that migrated.
    pub shard: usize,
    /// Member index the shard failed on.
    pub from: usize,
    /// Member index that inherited it.
    pub to: usize,
    /// The fault that forced the migration.
    pub error: String,
}

/// The completed pool launch.
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Final dense contents of each f64 buffer slot, in binding order.
    pub bufs_f: Vec<Vec<f64>>,
    /// Final dense contents of each i64 buffer slot, in binding order.
    pub bufs_i: Vec<Vec<i64>>,
    /// Launch statistics merged over shards in execution order (equal
    /// across pool sizes, thread counts and engines).
    pub stats: LaunchStats,
    /// Serialized execution time: the sum of all shard times (what a
    /// single device would have taken; drives the canonical trace lane).
    pub serial_s: f64,
    /// Simulated wall time of the pool: the busiest member's seconds.
    pub makespan_s: f64,
    /// Every shard in execution order.
    pub shards: Vec<ShardRecord>,
    /// Every quarantine-driven shard migration, in order.
    pub migrations: Vec<MigrationRecord>,
    /// Health of every member after the launch.
    pub health: Vec<Health>,
    /// Aggregated retry/fail-over provenance across all shards.
    pub resilience: ResilienceInfo,
}

/// A pool of simulated devices executing sharded launches with health
/// tracking and deterministic shard migration. See the module docs for the
/// execution and fault model.
pub struct DevicePool {
    devices: Vec<Device>,
    health: Vec<Health>,
    policy: PoolPolicy,
    /// Completed shards since each member was quarantined (drives the
    /// recovery cooldown).
    cooldown: Vec<u32>,
    /// The pool's own trace lane id (allocated before the members in
    /// [`DevicePool::new_sim`], so captured streams give the pool the same
    /// id regardless of pool size).
    trace_id: u64,
    /// Where the pool lane and the pool's metrics are recorded: its
    /// members' `Obs` (the first member's, for a pool over given devices).
    obs: Obs,
    /// Serialized pool clock in simulated seconds (sum of shard times and
    /// backoffs across all launches so far).
    clock_s: f64,
    /// Pool launch ordinal (trace metadata).
    launches: u64,
}

impl DevicePool {
    /// A pool of `n` identical simulated devices of `kind`. The pool's
    /// trace id is allocated *before* the members, so under
    /// [`alpaka_core::trace::capture`] the canonical pool lane has the same
    /// id for every pool size.
    pub fn new_sim(kind: crate::AccKind, n: usize) -> Result<DevicePool> {
        Self::new_sim_with_workers(kind, n, 1)
    }

    /// [`DevicePool::new_sim`] with an explicit interpreter worker count
    /// per member (instead of `ALPAKA_SIM_THREADS`).
    pub fn new_sim_with_workers(
        kind: crate::AccKind,
        n: usize,
        workers: usize,
    ) -> Result<DevicePool> {
        let obs = Obs::current();
        let trace_id = obs.next_device_id();
        let devices = (0..n.max(1))
            .map(|_| Device::with_workers(kind.clone(), workers))
            .collect();
        Self::build(devices, obs, trace_id)
    }

    /// A pool over existing devices (every one must be simulated — sharded
    /// sub-grid execution needs the simulator). The pool records into the
    /// first device's [`Obs`].
    pub fn from_devices(devices: Vec<Device>) -> Result<DevicePool> {
        let first = devices
            .first()
            .ok_or_else(|| Error::BadArg("device pool needs at least one device".into()))?;
        let obs = first.obs().clone();
        let trace_id = obs.next_device_id();
        Self::build(devices, obs, trace_id)
    }

    /// A pool whose member order is a [`FallbackChain`]: the chain's
    /// devices become members 0..n, and shard migration walks the same
    /// order the chain's fail-over would.
    pub fn from_chain(chain: &FallbackChain) -> Result<DevicePool> {
        Self::from_devices(chain.devices().to_vec())
    }

    fn build(devices: Vec<Device>, obs: Obs, trace_id: u64) -> Result<DevicePool> {
        if let Some(d) = devices.iter().find(|d| !d.is_simulated()) {
            return Err(Error::Unsupported(format!(
                "{}: device pools shard via the simulator; native CPU devices \
                 cannot join a pool",
                d.name()
            )));
        }
        let n = devices.len();
        Ok(DevicePool {
            devices,
            health: vec![Health::Healthy; n],
            policy: PoolPolicy::default(),
            cooldown: vec![0; n],
            trace_id,
            obs,
            clock_s: 0.0,
            launches: 0,
        })
    }

    /// Replace the pool policy (builder form).
    pub fn with_policy(mut self, policy: PoolPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Select the interpreter engine on every member (builder form).
    pub fn with_engine(mut self, engine: alpaka_sim::Engine) -> Self {
        self.devices = self
            .devices
            .drain(..)
            .map(|d| d.with_engine(engine))
            .collect();
        self
    }

    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    pub fn size(&self) -> usize {
        self.devices.len()
    }

    /// Current health of every member.
    pub fn health(&self) -> &[Health] {
        &self.health
    }

    /// The pool's canonical trace lane id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Serialized pool clock (simulated seconds across all launches).
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Install (or clear) a fault plan on one member.
    pub fn set_member_faults(&self, member: usize, plan: Option<FaultPlan>) {
        if let Some(d) = self.devices.get(member) {
            match plan {
                Some(p) => {
                    let _ = d.clone().with_faults(p);
                }
                None => d.clear_faults(),
            }
        }
    }

    /// Clear fault plans on every member (including plans picked up from
    /// `ALPAKA_SIM_FAULTS` — determinism suites call this first).
    pub fn clear_faults(&self) {
        for d in &self.devices {
            d.clear_faults();
        }
    }

    /// Execute `spec` as `shards` contiguous sub-grids across the pool.
    ///
    /// Results are bit-identical to a serial single-device run of the same
    /// spec whenever the launch completes — including after any number of
    /// retried faults, quarantines and migrations. Fails with a structured
    /// error naming the shard coordinates (and quarantined device) when
    /// recovery is impossible, or with a timeout naming pending shards when
    /// the pool deadline expires.
    pub fn launch<K: Kernel + Clone + Send + 'static>(
        &mut self,
        spec: &LaunchSpec<K>,
        shards: usize,
    ) -> Result<PoolOutcome> {
        let wd = match &spec.workdiv {
            WorkDivSpec::Fixed(wd) => *wd,
            WorkDivSpec::Suggest1d(n) => self.devices[0].suggest_workdiv_1d(*n),
        };
        let total_blocks = wd.block_count();
        let s = shards.max(1);
        // Balanced contiguous ranges; empty ones (s > B) are skipped.
        let ranges: Vec<(usize, usize)> = (0..s)
            .map(|k| (k * total_blocks / s, (k + 1) * total_blocks / s))
            .filter(|(a, b)| a < b)
            .collect();

        let traced = self.obs.active();
        let ordinal = self.launches;
        self.launches += 1;
        let launch_t0 = self.clock_s;
        // Host-side state threaded shard-to-shard; doubles as the
        // checkpoint a migrated shard re-materializes from.
        let mut state_f: Vec<Vec<f64>> = spec.bufs_f.iter().map(|(_, init)| init.clone()).collect();
        let mut state_i: Vec<Vec<i64>> = spec.bufs_i.iter().map(|(_, init)| init.clone()).collect();
        let busy_t0: Vec<f64> = self.devices.iter().map(|d| d.sim_clock_s()).collect();

        let mut merged = LaunchStats::default();
        let mut records: Vec<ShardRecord> = Vec::new();
        let mut migrations: Vec<MigrationRecord> = Vec::new();
        let mut history: Vec<AttemptRecord> = Vec::new();
        let mut attempts_total = 0u32;
        let mut backoff_total = 0.0f64;
        // Canonical pool-lane events buffer (flushed in order at the end);
        // member-lane events buffered per member and flushed in
        // device-then-shard order.
        let mut pool_events: Vec<TraceEvent> = Vec::new();
        let mut member_events: Vec<Vec<TraceEvent>> = vec![Vec::new(); self.devices.len()];

        let mut rr = 0usize; // round-robin assignment cursor
        for (k, &(start, end)) in ranges.iter().enumerate() {
            self.check_deadline(launch_t0, k, &ranges)
                .map_err(|e| self.note_failure(e))?;
            self.recover_cooled_members(traced, &mut pool_events);
            let Some(owner) = self.next_available(rr) else {
                return Err(self.note_failure(self.unrecoverable(k, start, end, None)));
            };
            rr = owner + 1;

            // Attempt the shard on `owner`, retrying transients in place
            // and migrating — in deterministic member order — off devices
            // that quarantine, until it completes or no member survives.
            let mut member = owner;
            let mut shard_attempts = 0u32;
            let outcome = 'migrate: loop {
                let mut retries = 0u32;
                let dev = self.devices[member].clone();
                loop {
                    shard_attempts += 1;
                    attempts_total += 1;
                    let result =
                        run_shard(&dev, spec, &wd, (start, end), &mut state_f, &mut state_i);
                    history.push(AttemptRecord {
                        attempt: attempts_total,
                        device: dev.name(),
                        device_index: member,
                        fault: result.as_ref().err().map(|e| fault_kind(e).to_string()),
                        transient: result.as_ref().err().is_some_and(|e| e.is_transient()),
                    });
                    match result {
                        Ok(report) => break 'migrate Ok(report),
                        Err(e) => {
                            self.obs.counter_add(
                                "alpaka_pool_faults_total",
                                &[("kind", fault_kind(&e))],
                                1,
                            );
                            if traced {
                                let label = format!("shard {k} on member {member}: {e}");
                                let ev = self.lane_event(TraceKind::Fault, label);
                                pool_events.push(ev.on_launch(ordinal));
                                if self.policy.member_lanes {
                                    let label = format!("shard {k}: {e}");
                                    let ev = self.member_event(member, TraceKind::Fault, label);
                                    member_events[member].push(ev);
                                }
                            }
                            match classify(&e) {
                                Disposition::Fatal => {
                                    let name = self.devices[member].name();
                                    let at = format!(
                                        " (pool shard {k}, blocks {start}..{end}, on {name} \
                                         member {member})"
                                    );
                                    break 'migrate Err(e.with_suffix(&at));
                                }
                                Disposition::Retry if retries < self.policy.retry.max_retries => {
                                    self.set_health(member, Health::Degraded);
                                    retries += 1;
                                    let pause = self.policy.retry.backoff_s(retries);
                                    dev.advance_sim_clock(pause);
                                    self.clock_s += pause;
                                    backoff_total += pause;
                                    self.obs.observe("alpaka_pool_backoff_seconds", &[], pause);
                                    self.check_deadline(launch_t0, k, &ranges)
                                        .map_err(|e| self.note_failure(e))?;
                                }
                                _ => {
                                    // Sticky loss, or a transient that
                                    // exhausted its retry budget:
                                    // quarantine and migrate.
                                    self.set_health(member, Health::Quarantined);
                                    self.cooldown[member] = 0;
                                    let from = member;
                                    match self.next_available(from + 1) {
                                        Some(next) => {
                                            self.obs.counter_add(
                                                "alpaka_pool_migrations_total",
                                                &[],
                                                1,
                                            );
                                            let err_str = e.to_string();
                                            migrations.push(MigrationRecord {
                                                shard: k,
                                                from,
                                                to: next,
                                                error: err_str.clone(),
                                            });
                                            if traced {
                                                let label = format!(
                                                    "shard {k}: member {from} -> member \
                                                     {next}: {err_str}"
                                                );
                                                let ev = self.lane_event(TraceKind::Migrate, label);
                                                pool_events.push(
                                                    ev.on_launch(ordinal)
                                                        .with("shard", k as f64)
                                                        .with("from", from as f64)
                                                        .with("to", next as f64),
                                                );
                                                if self.policy.member_lanes {
                                                    let label =
                                                        format!("shard {k} -> member {next}");
                                                    let kind = TraceKind::Migrate;
                                                    let ev = self.member_event(from, kind, label);
                                                    member_events[from].push(ev);
                                                }
                                            }
                                            member = next;
                                            continue 'migrate;
                                        }
                                        None => {
                                            break 'migrate Err(self.unrecoverable(
                                                k,
                                                start,
                                                end,
                                                Some((from, e)),
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            };

            let report = match outcome {
                Ok(r) => r,
                Err(e) => {
                    self.obs.emit_all(pool_events);
                    return Err(self.note_failure(e));
                }
            };

            // Shard completed: promote the survivor, advance the clocks,
            // merge stats, emit the canonical span.
            let t0 = self.clock_s;
            self.clock_s += report.time.total_s;
            merged.add(&report.stats);
            self.set_health(member, Health::Healthy);
            for m in 0..self.devices.len() {
                if self.health[m] == Health::Quarantined {
                    self.cooldown[m] = self.cooldown[m].saturating_add(1);
                }
            }
            if traced {
                pool_events.push(
                    TraceEvent::new(TraceKind::Shard, format!("shard {k}"), self.trace_id, t0)
                        .span_until(self.clock_s)
                        .on_launch(ordinal)
                        .with("start_block", start as f64)
                        .with("end_block", end as f64)
                        .with("attempts", shard_attempts as f64),
                );
                if self.policy.member_lanes {
                    // The member's clock has just passed the shard's span.
                    let ev = self.member_event(member, TraceKind::Shard, format!("shard {k}"));
                    let t0 = ev.sim_t1_s - report.time.total_s;
                    member_events[member].push(
                        TraceEvent { sim_t0_s: t0, ..ev }
                            .on_launch(ordinal)
                            .with("start_block", start as f64)
                            .with("end_block", end as f64),
                    );
                }
            }
            records.push(ShardRecord {
                shard: k,
                start_block: start,
                end_block: end,
                device_index: member,
                attempts: shard_attempts,
                time_s: report.time.total_s,
            });
        }

        if traced {
            // Canonical pool lane first (launch span, then shard/fault/
            // migrate events in execution order), then the member lanes in
            // fixed device-then-shard order.
            let name = spec.kernel.name();
            self.obs.emit(
                TraceEvent::new(TraceKind::Launch, name, self.trace_id, launch_t0)
                    .span_until(self.clock_s)
                    .on_launch(ordinal)
                    .with("shards", records.len() as f64)
                    .with("blocks", merged.blocks as f64)
                    .with("flops", merged.total_flops() as f64)
                    .with("total_s", self.clock_s - launch_t0),
            );
            self.obs.emit_all(pool_events);
            self.obs.emit_all(member_events.into_iter().flatten());
        }

        if self.obs.metrics_enabled() {
            // Everything below derives from the serialized pool clock and
            // the shard records, both invariant across pool sizes, thread
            // counts and engines. The makespan is deliberately NOT recorded:
            // it depends on how shards landed on members, i.e. on pool size.
            let name = spec.kernel.name();
            self.obs
                .counter_add("alpaka_pool_launches_total", &[("kernel", name)], 1);
            self.obs.counter_add(
                "alpaka_pool_shards_total",
                &[("kernel", name)],
                records.len() as u64,
            );
            for r in &records {
                self.obs.observe("alpaka_pool_shard_seconds", &[], r.time_s);
                self.obs.observe_in(
                    "alpaka_pool_shard_attempts",
                    &[],
                    metrics::COUNT_BUCKETS,
                    r.attempts as f64,
                );
            }
            self.obs.observe(
                "alpaka_pool_launch_serial_seconds",
                &[],
                self.clock_s - launch_t0,
            );
        }
        let makespan_s = self
            .devices
            .iter()
            .zip(&busy_t0)
            .map(|(d, t0)| d.sim_clock_s() - t0)
            .fold(0.0f64, f64::max);
        let failovers = migrations.len() as u32;
        Ok(PoolOutcome {
            bufs_f: state_f,
            bufs_i: state_i,
            stats: merged,
            serial_s: self.clock_s - launch_t0,
            makespan_s,
            shards: records,
            migrations,
            health: self.health.clone(),
            resilience: ResilienceInfo {
                attempts: attempts_total,
                history,
                backoff_s: backoff_total,
                failovers,
            },
        })
    }

    /// An instant event on the pool's lane, at the pool clock.
    fn lane_event(&self, kind: TraceKind, label: String) -> TraceEvent {
        TraceEvent::new(kind, label, self.trace_id, self.clock_s)
    }

    /// An instant event on member `m`'s lane, at its clock.
    fn member_event(&self, m: usize, kind: TraceKind, label: String) -> TraceEvent {
        let dev = &self.devices[m];
        TraceEvent::new(kind, label, dev.id(), dev.sim_clock_s())
    }

    /// Count a structured pool-launch failure in the metrics registry before
    /// surfacing it (no-op when metrics are disabled).
    fn note_failure(&self, e: Error) -> Error {
        self.obs.note_failure(fault_kind(&e), &e.to_string());
        e
    }

    /// Set one member's health, counting the transition when the state
    /// actually changes (so a fault-free launch records no transitions and
    /// the metrics snapshot stays identical across pool sizes). Member
    /// indices are deliberately not labeled.
    fn set_health(&mut self, member: usize, to: Health) {
        let from = self.health[member];
        if from != to {
            self.obs.counter_add(
                "alpaka_pool_health_transitions_total",
                &[("from", from.name()), ("to", to.name())],
                1,
            );
        }
        self.health[member] = to;
    }

    /// First available member at or cyclically after `from`.
    fn next_available(&self, from: usize) -> Option<usize> {
        let n = self.devices.len();
        (0..n)
            .map(|i| (from + i) % n)
            .find(|&m| self.health[m].available())
    }

    /// Quarantined members whose cooldown elapsed are armed + revived to
    /// Recovered (deterministic member order).
    fn recover_cooled_members(&mut self, traced: bool, pool_events: &mut Vec<TraceEvent>) {
        if self.policy.cooldown_shards == 0 {
            return;
        }
        for m in 0..self.devices.len() {
            if self.health[m] == Health::Quarantined
                && self.cooldown[m] >= self.policy.cooldown_shards
            {
                self.devices[m].mark_recovered();
                self.devices[m].revive();
                self.obs.observe_in(
                    "alpaka_pool_quarantine_shards",
                    &[],
                    metrics::COUNT_BUCKETS,
                    self.cooldown[m] as f64,
                );
                self.set_health(m, Health::Recovered);
                self.cooldown[m] = 0;
                if traced {
                    let label = format!("recover member {m} after cooldown");
                    let ev = self.lane_event(TraceKind::Migrate, label);
                    pool_events.push(ev.with("member", m as f64));
                }
            }
        }
    }

    /// Fail the launch when the serialized pool clock passed the deadline,
    /// naming the completed and pending shards.
    fn check_deadline(
        &self,
        launch_t0: f64,
        next_shard: usize,
        ranges: &[(usize, usize)],
    ) -> Result<()> {
        let Some(deadline) = self.policy.deadline_s else {
            return Ok(());
        };
        let elapsed = self.clock_s - launch_t0;
        if elapsed <= deadline {
            return Ok(());
        }
        let pending_blocks = ranges.get(next_shard).map_or(0, |r| r.0);
        let total_blocks = ranges.last().map_or(0, |r| r.1);
        Err(Error::Timeout(alpaka_core::error::FaultInfo {
            msg: format!(
                "pool deadline of {deadline:.3e}s exceeded at {elapsed:.3e}s: \
                 {next_shard} of {} shard(s) complete; shards {next_shard}..{} \
                 (blocks {pending_blocks}..{total_blocks}) not run",
                ranges.len(),
                ranges.len(),
            ),
            block: None,
            thread: None,
            transient: false,
        }))
    }

    /// Structured error for a shard no surviving member could run.
    fn unrecoverable(
        &self,
        shard: usize,
        start: usize,
        end: usize,
        last: Option<(usize, Error)>,
    ) -> Error {
        let quarantined: Vec<String> = self
            .health
            .iter()
            .enumerate()
            .filter(|(_, h)| **h == Health::Quarantined)
            .map(|(m, _)| format!("{} (member {m})", self.devices[m].name()))
            .collect();
        let tail = match last {
            Some((m, e)) => format!(
                "; last fault on {} (member {m}): {e}",
                self.devices[m].name()
            ),
            None => String::new(),
        };
        Error::DeviceLost(format!(
            "pool: shard {shard} (blocks {start}..{end}) unrecoverable: all {} \
             member(s) quarantined [{}]{tail}",
            self.devices.len(),
            quarantined.join(", "),
        ))
    }
}

/// One shard attempt on one member: materialize the argument buffers from
/// the checkpoint state, run the sub-grid (untraced: the pool emits its own
/// shard spans), download the new state. The checkpoint is only advanced on
/// success — a failed attempt leaves it untouched (the simulator's
/// fault-or-correct guarantee means no partial state can leak back anyway,
/// since downloads happen only after success).
fn run_shard<K: Kernel + Clone + Send + 'static>(
    dev: &Device,
    spec: &LaunchSpec<K>,
    wd: &WorkDiv,
    (start, end): (usize, usize),
    state_f: &mut [Vec<f64>],
    state_i: &mut [Vec<i64>],
) -> Result<SimReport> {
    if dev.is_lost() {
        return Err(Error::DeviceLost(format!(
            "{}: shard launch on a lost device",
            dev.name()
        )));
    }
    let DeviceImpl::Sim(d) = &dev.inner else {
        unreachable!("pool construction rejects native devices")
    };
    materialize_and_run(dev, spec, state_f, state_i, |args| {
        d.run(
            &spec.kernel,
            wd,
            &args.to_sim()?,
            alpaka_sim::ExecMode::BlockRange { start, end },
        )
    })
}
