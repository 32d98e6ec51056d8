//! Block-lockstep SIMT interpreter.
//!
//! Executes a traced kernel ([`Program`]) for every block of a launch. All
//! threads of a block advance through the structured IR together; warps
//! (lock-step groups of `DeviceSpec::warp_width` lanes) are the accounting
//! unit for instruction issue, divergence and memory coalescing, exactly as
//! on real SIMT hardware:
//!
//! * `if`/`while` with a varying condition executes both paths under an
//!   active-lane mask (divergence costs issue slots);
//! * global accesses of a warp are coalesced into line-sized transactions
//!   and filtered through the cache model;
//! * shared accesses are checked for bank conflicts;
//! * barriers require a full (non-divergent) mask — the CUDA rule;
//! * *element loops* (`for_elements`) on CPU device models are probed for
//!   unit-stride access and, when clean, their work is accounted at vector
//!   (SIMD) throughput — the paper's Section 3.2.4 vectorization story.
//!
//! Results are bit-identical to the reference evaluator in
//! `alpaka_kir::eval` (shared scalar semantics), which cross-backend tests
//! rely on.
//!
//! There are two engines ([`Engine`]): the tree-walker in this file is the
//! oracle, reachable only through `Engine::Reference`; production launches
//! (`Engine::Compiled`) run `crate::lower`'s interpreter or the fused tier
//! of `crate::compile` on top of it, as `Prepared::launch` (the one launch
//! function, at the end of this file) decides. All share the accounting
//! models (`Machine`).

// The interpreter's hot loops iterate lane indices under an active mask and
// index several parallel per-lane arrays at once — the explicit-index form
// is the clearest way to write lockstep execution.
#![allow(clippy::needless_range_loop)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use alpaka_core::acc::DeviceKind;
use alpaka_core::obs::Obs;
use alpaka_core::pool::run_team;
use alpaka_core::trace::BlockSpan;
use alpaka_core::vec::Vecn;
use alpaka_core::workdiv::WorkDiv;
use alpaka_kir::ir::*;
use alpaka_kir::semantics as sem;

use crate::cache::CacheSim;
use crate::fault::{EccCtx, SimError};
use crate::lower::Prepared;
use crate::memory::{DeviceMem, SharedMem, SimBufF, SimBufI};
use crate::profile::{merge_counters, InstrCounters, KernelProfile, Numbering};
use crate::serr;
use crate::spec::{CacheScope, DeviceSpec};
use crate::stats::{estimate_time, LaunchStats, TimeBreakdown};

/// Bindings of kernel argument slots to simulated buffers plus scalars.
#[derive(Debug, Clone, Default)]
pub struct SimArgs {
    pub bufs_f: Vec<SimBufF>,
    pub bufs_i: Vec<SimBufI>,
    pub params_f: Vec<f64>,
    pub params_i: Vec<i64>,
}

/// How much of the grid to interpret.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Every block — required when the results matter.
    Full,
    /// Interpret only ~n evenly spaced blocks and extrapolate the timing
    /// statistics. Buffer contents are then partial: timing-only runs.
    SampleBlocks(usize),
    /// Execute exactly the blocks with linear index in `start..end` — one
    /// sub-grid shard of a multi-device pool launch. Blocks keep their true
    /// grid coordinates (and therefore their global thread indices), so
    /// running every shard of a partition in ascending order is
    /// block-for-block identical to one `Full` launch. Results are valid
    /// for the covered blocks; nothing is extrapolated.
    BlockRange { start: usize, end: usize },
}

/// One attempt of a resilient (retried / failed-over) launch, recorded on
/// the report of the attempt that finally succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt ordinal across the whole fallback chain.
    pub attempt: u32,
    /// Name of the device the attempt ran on.
    pub device: String,
    /// Index of that device in the fallback chain (0 = primary).
    pub device_index: usize,
    /// Stable fault-kind name that ended the attempt ("ecc", "timeout",
    /// "device_lost", "oom", ...), or `None` for the succeeding attempt.
    pub fault: Option<String>,
    /// Whether the fault was classified transient (retried in place).
    pub transient: bool,
}

/// Retry/fail-over provenance of a resilient launch: how many attempts it
/// took, what ended each failed one, and how much simulated backoff was
/// charged. Populated by the resilience layer (`launch_resilient` and the
/// device pool) on the winning attempt's report; plain launches carry
/// `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceInfo {
    /// Total attempts across the chain (1 = first try succeeded).
    pub attempts: u32,
    /// Every attempt in order, the succeeding one last.
    pub history: Vec<AttemptRecord>,
    /// Simulated seconds charged as retry backoff.
    pub backoff_s: f64,
    /// Device-to-device fail-over hops taken.
    pub failovers: u32,
}

/// Outcome of a simulated launch.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    pub stats: LaunchStats,
    pub time: TimeBreakdown,
    /// True when block sampling was used (results incomplete).
    pub sampled: bool,
    /// Host-side interpreter throughput (wall clock, not simulated time).
    pub host: HostPerf,
    /// Per-instruction hot-spot profile; present only when the launch was
    /// traced (its launcher's `Obs` had the trace sink on). Never scaled by
    /// block sampling.
    pub profile: Option<KernelProfile>,
    /// Per-block issue-cycle spans (block-linear order); present only when
    /// the launch was traced. Never scaled by block sampling.
    pub spans: Vec<BlockSpan>,
    /// Process-wide cumulative hit/miss counters of the program cache's
    /// lowered forms, snapshotted when this launch finished.
    pub lowering_cache: crate::lower::CacheCounters,
    /// Likewise for its compiled forms.
    pub compile_cache: crate::lower::CacheCounters,
    /// Why this launch ran serially despite being asked for more;
    /// `FallbackReason::None` when nothing was downgraded.
    pub fallback: crate::atomics::FallbackReason,
    /// Retry/fail-over provenance when this launch completed under the
    /// resilience layer; `None` for plain launches.
    pub resilience: Option<ResilienceInfo>,
}

/// How fast the *host* interpreted the launch — wall-clock measurements of
/// the simulator itself, as opposed to `TimeBreakdown`, which is the
/// modeled device time. Not deterministic across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostPerf {
    /// Wall-clock seconds spent interpreting the launch.
    pub wall_s: f64,
    /// Blocks actually interpreted per wall-clock second (sampling modes
    /// count only the interpreted blocks, not the extrapolated total).
    pub blocks_per_sec: f64,
    /// Warp-instructions interpreted per wall-clock second.
    pub instrs_per_sec: f64,
    /// Interpreter worker threads the launch ran on.
    pub workers: usize,
}

const DEFAULT_FUEL: u64 = 50_000_000_000;

/// Interpreter threads to use given a configured value: the
/// `ALPAKA_SIM_THREADS` environment variable wins when set to a positive
/// integer, otherwise `configured` (clamped to at least 1) is used. An
/// unparsable value falls back to `configured` and warns once per process.
pub fn resolve_sim_threads(configured: usize) -> usize {
    let env = std::env::var("ALPAKA_SIM_THREADS").ok();
    let (n, invalid) = resolve_sim_threads_inner(env.as_deref(), configured);
    if invalid {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: ALPAKA_SIM_THREADS={:?} is not a positive integer; \
                 using {n} interpreter thread(s)",
                env.as_deref().unwrap_or("")
            );
        });
    }
    n
}

/// Pure core of [`resolve_sim_threads`]: returns the thread count plus
/// whether the environment value was set but unusable (the warning case).
fn resolve_sim_threads_inner(env: Option<&str>, configured: usize) -> (usize, bool) {
    match env {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, false),
            _ => (configured.max(1), true),
        },
        None => (configured.max(1), false),
    }
}

/// Global memory as seen by one interpreter worker: exclusive during serial
/// runs, a concurrent element-wise view during parallel ones.
pub(crate) enum MemAccess<'a> {
    Excl(&'a mut DeviceMem),
    Shared(&'a SharedMem<'a>),
}

impl MemAccess<'_> {
    #[inline]
    pub(crate) fn len_f(&self, b: SimBufF) -> usize {
        match self {
            MemAccess::Excl(m) => m.f(b).len(),
            MemAccess::Shared(v) => v.len_f(b),
        }
    }
    #[inline]
    pub(crate) fn len_i(&self, b: SimBufI) -> usize {
        match self {
            MemAccess::Excl(m) => m.i(b).len(),
            MemAccess::Shared(v) => v.len_i(b),
        }
    }
    #[inline]
    pub(crate) fn read_f(&self, b: SimBufF, idx: usize) -> Result<f64, SimError> {
        match self {
            MemAccess::Excl(m) => m
                .f(b)
                .get(idx)
                .copied()
                .ok_or_else(|| SimError::bad_buffer(format!("f64 index {idx} out of bounds"))),
            MemAccess::Shared(v) => v.read_f(b, idx),
        }
    }
    #[inline]
    pub(crate) fn read_i(&self, b: SimBufI, idx: usize) -> Result<i64, SimError> {
        match self {
            MemAccess::Excl(m) => m
                .i(b)
                .get(idx)
                .copied()
                .ok_or_else(|| SimError::bad_buffer(format!("i64 index {idx} out of bounds"))),
            MemAccess::Shared(v) => v.read_i(b, idx),
        }
    }
    #[inline]
    pub(crate) fn write_f(&mut self, b: SimBufF, idx: usize, val: f64) -> Result<(), SimError> {
        match self {
            MemAccess::Excl(m) => match m.f_mut(b).get_mut(idx) {
                Some(slot) => {
                    *slot = val;
                    Ok(())
                }
                None => Err(SimError::bad_buffer(format!(
                    "f64 index {idx} out of bounds"
                ))),
            },
            MemAccess::Shared(v) => v.write_f(b, idx, val),
        }
    }
    #[inline]
    pub(crate) fn write_i(&mut self, b: SimBufI, idx: usize, val: i64) -> Result<(), SimError> {
        match self {
            MemAccess::Excl(m) => match m.i_mut(b).get_mut(idx) {
                Some(slot) => {
                    *slot = val;
                    Ok(())
                }
                None => Err(SimError::bad_buffer(format!(
                    "i64 index {idx} out of bounds"
                ))),
            },
            MemAccess::Shared(v) => v.write_i(b, idx, val),
        }
    }
    #[inline]
    pub(crate) fn addr_f(&self, b: SimBufF, idx: u64) -> u64 {
        match self {
            MemAccess::Excl(m) => m.addr_f(b, idx),
            MemAccess::Shared(v) => v.addr_f(b, idx),
        }
    }
    #[inline]
    pub(crate) fn addr_i(&self, b: SimBufI, idx: u64) -> u64 {
        match self {
            MemAccess::Excl(m) => m.addr_i(b, idx),
            MemAccess::Shared(v) => v.addr_i(b, idx),
        }
    }
}

pub(crate) enum Caches {
    None,
    PerSm(Vec<CacheSim>),
    Shared(CacheSim),
}

#[derive(Default)]
pub(crate) struct RegionAcc {
    pub(crate) issue: u64,
    pub(crate) flops: u64,
    pub(crate) special: u64,
    /// Address log of the first two iterations of the outermost loop.
    pub(crate) iter: u32,
    pub(crate) addrs0: Vec<u64>,
    pub(crate) addrs1: Vec<u64>,
    pub(crate) probe_failed: bool,
}

impl RegionAcc {
    pub(crate) fn probing(&self) -> bool {
        self.iter < 2 && !self.probe_failed
    }

    /// The log that takes the addresses of the iteration being probed, and
    /// the flag that seals it on overflow; `None` once the probe is over.
    pub(crate) fn probe_log(&mut self) -> Option<(&mut Vec<u64>, &mut bool)> {
        if !self.probing() {
            return None;
        }
        let log = if self.iter == 0 {
            &mut self.addrs0
        } else {
            &mut self.addrs1
        };
        Some((log, &mut self.probe_failed))
    }

    /// Count `n` finished iterations of the region's outermost loop. Only
    /// `iter < 2` is ever observed, so the count saturates: wrapping would
    /// re-open the probe log after 2^32 trips.
    pub(crate) fn advance(&mut self, n: u64) {
        self.iter = self
            .iter
            .saturating_add(u32::try_from(n).unwrap_or(u32::MAX));
    }

    pub(crate) fn vectorized(&self) -> bool {
        if self.probe_failed || self.iter < 2 || self.addrs0.len() != self.addrs1.len() {
            return false;
        }
        if self.addrs0.is_empty() {
            // Pure-compute loop bodies vectorize trivially.
            return true;
        }
        self.addrs0
            .iter()
            .zip(&self.addrs1)
            .all(|(&a0, &a1)| a1 == a0 || a1 == a0 + 8 || a0 == a1 + 8)
    }
}

struct BlockState {
    lanes: usize,
    regs: Vec<u64>,
    vars: Vec<u64>,
    sh_f: Vec<Vec<f64>>,
    sh_i: Vec<Vec<i64>>,
    /// Per-lane thread-private arrays: `loc_f[loc][lane * len + k]`.
    loc_f: Vec<Vec<f64>>,
    tid: Vec<[i64; 3]>,
    bidx: [i64; 3],
    /// Reusable (lane, byte address) scratch for global-access coalescing.
    scratch_addrs: Vec<(usize, u64)>,
    /// Reusable (lane, element index) scratch for shared-access accounting.
    scratch_elems: Vec<(usize, i64)>,
    /// Recycled lane-mask buffers for divergent control flow.
    mask_pool: Vec<Vec<bool>>,
}

impl BlockState {
    /// Borrow a cleared mask buffer from the pool (or allocate one).
    #[inline]
    fn take_mask(&mut self) -> Vec<bool> {
        self.mask_pool.pop().unwrap_or_default()
    }

    /// Return a mask buffer to the pool for reuse.
    #[inline]
    fn put_mask(&mut self, mut m: Vec<bool>) {
        m.clear();
        self.mask_pool.push(m);
    }
    #[inline]
    fn reg(&self, v: ValId, lane: usize) -> u64 {
        self.regs[v.0 as usize * self.lanes + lane]
    }
    #[inline]
    fn set_reg(&mut self, v: ValId, lane: usize, bits: u64) {
        self.regs[v.0 as usize * self.lanes + lane] = bits;
    }
    #[inline]
    fn rf(&self, v: ValId, lane: usize) -> f64 {
        f64::from_bits(self.reg(v, lane))
    }
    #[inline]
    fn ri(&self, v: ValId, lane: usize) -> i64 {
        self.reg(v, lane) as i64
    }
    #[inline]
    fn rb(&self, v: ValId, lane: usize) -> bool {
        self.reg(v, lane) != 0
    }
    #[inline]
    fn sf(&mut self, v: ValId, lane: usize, x: f64) {
        self.set_reg(v, lane, x.to_bits());
    }
    #[inline]
    fn si(&mut self, v: ValId, lane: usize, x: i64) {
        self.set_reg(v, lane, x as u64);
    }
    #[inline]
    fn sb(&mut self, v: ValId, lane: usize, x: bool) {
        self.set_reg(v, lane, x as u64);
    }
}

/// A maximal affine stretch of one memory op's index column: lanes
/// `lane0..lane0 + n` access elements `first + j * stride`, every one of
/// them in bounds (`lanes::find_runs` checked both ends).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run {
    pub(crate) lane0: usize,
    pub(crate) n: usize,
    pub(crate) first: usize,
    pub(crate) stride: i64,
}

impl Run {
    /// The run cut at warp boundaries: (first lane, lane count) per warp.
    fn pieces(self, warp_w: usize) -> impl Iterator<Item = (usize, usize)> {
        let (mut lane, end) = (self.lane0, self.lane0 + self.n);
        std::iter::from_fn(move || {
            let stop = ((lane / warp_w + 1) * warp_w).min(end);
            let piece = (lane, stop - lane);
            lane = stop;
            (piece.1 > 0).then_some(piece)
        })
    }
}

pub(crate) struct Machine<'a> {
    prog: &'a Program,
    pub(crate) spec: &'a DeviceSpec,
    pub(crate) mem: MemAccess<'a>,
    pub(crate) args: &'a SimArgs,
    pub(crate) grid: [i64; 3],
    pub(crate) block: [i64; 3],
    pub(crate) elems: [i64; 3],
    pub(crate) warp_w: usize,
    pub(crate) n_warps: usize,
    pub(crate) stats: LaunchStats,
    pub(crate) region: Option<RegionAcc>,
    pub(crate) caches: Caches,
    /// `log2(spec.line_bytes)`: the launch checked it is a power of two.
    pub(crate) line_shift: u32,
    pub(crate) cur_sm: usize,
    pub(crate) fuel: u64,
    /// True when `fuel` came from a fault plan's watchdog budget: running
    /// out is then a `Timeout`, not a runaway-loop diagnostic.
    watchdog: bool,
    /// Per-launch ECC injection context (None: injection disabled).
    pub(crate) ecc: Option<EccCtx>,
    /// Linear index of the block currently interpreted (ECC decisions are
    /// keyed on it, so they are invariant across worker counts).
    pub(crate) cur_block_lin: usize,
    /// Reusable line buffer for `mem_access` coalescing.
    scratch_lines: Vec<u64>,
    /// Reusable per-bank distinct-index lists for `shared_access`.
    scratch_banks: Vec<i64>,
    /// Per-instruction counters when profiling (tracing enabled), indexed by
    /// canonical statement id; `None` on the default allocation-free path.
    pub(crate) profile: Option<Box<[InstrCounters]>>,
    /// Canonical id of the statement currently executing (profiling only).
    pub(crate) cur_instr: u32,
    /// Statement numbering of `prog` (profiling only).
    numbering: Option<&'a Numbering>,
    /// Private accumulation state for deferred global atomics, present when
    /// the launch has a reducibility plan (see `crate::atomics`). Atomic
    /// exec arms then accumulate here instead of touching buffers.
    pub(crate) atomics: Option<crate::atomics::AtomicsPriv>,
}

pub(crate) type R<T> = Result<T, SimError>;

impl<'a> Machine<'a> {
    fn fuel_exhausted(&self) -> SimError {
        if self.watchdog {
            SimError::timeout("kernel exceeded the device watchdog cycle budget (injected)")
        } else {
            SimError::new("simulation instruction budget exhausted (runaway loop?)")
        }
    }

    pub(crate) fn burn(&mut self) -> R<()> {
        if self.fuel == 0 {
            return Err(self.fuel_exhausted());
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Burn `n` instructions of fuel at once (used by the lowered tier to
    /// charge a straight-line run in one step).
    pub(crate) fn burn_n(&mut self, n: u64) -> R<()> {
        if self.fuel < n {
            return Err(self.fuel_exhausted());
        }
        self.fuel -= n;
        Ok(())
    }

    /// Deterministic ECC injection on a global load: decided purely from
    /// `(plan seed, launch ordinal, linear block index, byte address)`, so
    /// the verdict is identical under any worker count and both engines.
    /// Modeled as a *detected uncorrectable* event — the load errors, data
    /// is never silently corrupted.
    #[inline]
    pub(crate) fn ecc_check(&self, addr: u64, what: &str, tid: [i64; 3]) -> R<()> {
        if let Some(ecc) = self.ecc {
            if ecc.hits(self.cur_block_lin, addr) {
                return Err(SimError::transient(format!(
                    "{what}: uncorrectable ECC error at device address {addr:#x} (injected)"
                ))
                .at_thread(tid));
            }
        }
        Ok(())
    }

    /// Apply `f` to the current statement's profile slot, if profiling.
    #[inline]
    pub(crate) fn prof_add(&mut self, f: impl FnOnce(&mut InstrCounters)) {
        if let Some(p) = &mut self.profile {
            f(&mut p[self.cur_instr as usize]);
        }
    }

    #[inline]
    pub(crate) fn add_issue(&mut self, n: u64) {
        if n > 0 {
            self.prof_add(|c| {
                c.issue += n;
                c.execs += 1;
            });
        }
        match &mut self.region {
            Some(r) => r.issue += n,
            None => self.stats.scalar_issue += n,
        }
    }

    #[inline]
    pub(crate) fn add_flops(&mut self, n: u64) {
        self.prof_add(|c| c.flops += n);
        match &mut self.region {
            Some(r) => r.flops += n,
            None => self.stats.scalar_flops += n,
        }
    }

    #[inline]
    pub(crate) fn add_special(&mut self, n: u64) {
        self.prof_add(|c| c.special += n);
        match &mut self.region {
            Some(r) => r.special += n,
            None => self.stats.special_ops += n,
        }
    }

    /// Count one issued instruction per warp with any active lane; returns
    /// the number of active lanes.
    fn issue(&mut self, mask: &[bool]) -> u64 {
        let mut active = 0u64;
        let mut warp_issues = 0u64;
        for w in 0..self.n_warps {
            let lo = w * self.warp_w;
            let hi = (lo + self.warp_w).min(mask.len());
            let act = mask[lo..hi].iter().filter(|&&m| m).count() as u64;
            if act > 0 {
                warp_issues += 1;
                active += act;
            }
        }
        self.add_issue(warp_issues);
        active
    }

    fn note_divergence(&mut self, mask: &[bool], taken: &[bool]) {
        for w in 0..self.n_warps {
            let lo = w * self.warp_w;
            let hi = (lo + self.warp_w).min(mask.len());
            let mut any_t = false;
            let mut any_f = false;
            for l in lo..hi {
                if mask[l] {
                    if taken[l] {
                        any_t = true;
                    } else {
                        any_f = true;
                    }
                }
            }
            if any_t && any_f {
                self.stats.divergent_branches += 1;
                self.prof_add(|c| c.divergent_branches += 1);
            }
        }
    }

    /// Start block `lin` on this worker's SM slot `sm`, building the slot's
    /// cache model if no block landed there yet (the Phi model's 60 caches
    /// are 30 MiB to fill; a sampled launch touches four). A per-SM cache
    /// lives for one launch either way, so what it sees is unchanged.
    pub(crate) fn enter_block(&mut self, sm: usize, lin: usize) {
        self.cur_sm = sm;
        self.cur_block_lin = lin;
        if let Caches::PerSm(cs) = &mut self.caches {
            if cs[sm].line_bytes() == 0 {
                let s = self.spec;
                cs[sm] = CacheSim::new(s.cache_kib, s.cache_assoc, s.line_bytes);
            }
        }
    }

    /// Charge one cache/transaction access for a coalesced line.
    #[inline]
    fn line_access(&mut self, line_idx: u64) {
        let line = self.spec.line_bytes as u64;
        self.stats.mem_transactions += 1;
        // The caches share the spec's line size, so the line index needs no
        // byte-address round trip. `hit` is None when no cache is modeled.
        let hit = match &mut self.caches {
            Caches::None => None,
            Caches::PerSm(cs) => Some(cs[self.cur_sm].access_line(line_idx)),
            Caches::Shared(c) => Some(c.access_line(line_idx)),
        };
        match hit {
            None => self.stats.dram_bytes += line,
            Some(true) => self.stats.cache_hits += 1,
            Some(false) => {
                self.stats.cache_misses += 1;
                self.stats.dram_bytes += line;
            }
        }
        self.prof_add(|c| {
            c.mem_transactions += 1;
            match hit {
                None => c.dram_bytes += line,
                Some(true) => c.cache_hits += 1,
                Some(false) => {
                    c.cache_misses += 1;
                    c.dram_bytes += line;
                }
            }
        });
    }

    /// Account a warp-coalesced global access; `addrs` holds (lane, byte
    /// address) pairs of active lanes in lane order. Each warp touches its
    /// distinct lines once, in first-occurrence order. A line above every
    /// line the warp has touched so far is new without a search, so
    /// lane-consecutive (any non-decreasing) addresses cost one compare per
    /// lane; only a line that steps backwards searches the warp's list.
    pub(crate) fn mem_access(&mut self, addrs: &[(usize, u64)]) {
        // Probe log for element-loop vectorization detection.
        if let Some((log, failed)) = self.region.as_mut().and_then(RegionAcc::probe_log) {
            log.extend(addrs.iter().map(|&(_, a)| a));
            *failed = log.len() > 4096;
        }
        let shift = self.line_shift;
        let mut lines = std::mem::take(&mut self.scratch_lines);
        let mut warp_end = 0;
        let (mut last, mut top) = (0, 0);
        for &(lane, a) in addrs {
            let l = a >> shift;
            let new_warp = lane >= warp_end;
            if new_warp {
                warp_end = (lane / self.warp_w + 1) * self.warp_w;
                lines.clear();
            }
            let seen = !new_warp && (l == last || (l <= top && lines.contains(&l)));
            last = l;
            if seen {
                continue;
            }
            top = if new_warp { l } else { top.max(l) };
            lines.push(l);
            self.line_access(l);
        }
        self.scratch_lines = lines;
    }

    /// Account a global access by a single active lane — equivalent to
    /// [`Machine::mem_access`] with a one-entry address list (one probe-log
    /// entry, one line per warp), without touching the line scratch.
    pub(crate) fn mem_access_one(&mut self, addr: u64) {
        if let Some((log, failed)) = self.region.as_mut().and_then(RegionAcc::probe_log) {
            log.push(addr);
            *failed = log.len() > 4096;
        }
        self.line_access(addr >> self.line_shift);
    }

    /// [`Machine::mem_access`] for an index column that is a list of
    /// [`Run`]s over consecutive lanes, into the buffer at byte address
    /// `base`. A run's lines are monotone, so within a warp its distinct
    /// lines are its adjacent-dedupe, in order; only a run that starts
    /// mid-warp, behind another, searches what the warp touched before it.
    /// The caller keeps probing regions away: their log is per lane.
    pub(crate) fn mem_access_runs(&mut self, runs: &[Run], base: u64) {
        let (warp_w, shift) = (self.warp_w, self.line_shift);
        let mut lines = std::mem::take(&mut self.scratch_lines);
        let mut opens_warp = true;
        for run in runs {
            let mut a = base + run.first as u64 * 8;
            let step = run.stride.wrapping_mul(8) as u64;
            for (lane, n) in run.pieces(warp_w) {
                if opens_warp {
                    lines.clear();
                }
                let mut last = u64::MAX;
                for _ in 0..n {
                    let l = a >> shift;
                    a = a.wrapping_add(step);
                    if l != last && (opens_warp || !lines.contains(&l)) {
                        lines.push(l);
                        self.line_access(l);
                    }
                    last = l;
                }
                opens_warp = (lane + n) % warp_w == 0;
            }
        }
        self.scratch_lines = lines;
    }

    /// Account a global access where every active lane touches the same byte
    /// address (a statically uniform load/store): per warp with any active
    /// lane — `warp_issues` of them — the coalescer emits one line-sized
    /// transaction, and the probe log records the address once per active
    /// lane, exactly as [`Machine::mem_access`] would for the equivalent
    /// per-lane address list.
    pub(crate) fn access_uniform(&mut self, addr: u64, active: u64, warp_issues: u64) {
        if let Some((log, failed)) = self.region.as_mut().and_then(RegionAcc::probe_log) {
            for _ in 0..active {
                log.push(addr);
            }
            *failed = log.len() > 4096;
        }
        for _ in 0..warp_issues {
            self.line_access(addr >> self.line_shift);
        }
    }

    /// Account shared-memory bank conflicts for one warp-wide access.
    /// `elem_idx` holds (lane, element index) pairs of active lanes. A
    /// warp's conflict degree is the largest number of distinct indices
    /// falling into one of the 32 banks; lane-consecutive indices occupy
    /// distinct banks (degree 1) and skip the bank lists altogether.
    pub(crate) fn shared_access(&mut self, elem_idx: &[(usize, i64)]) {
        const BANKS: usize = 32;
        self.stats.shared_accesses += elem_idx.len() as u64;
        self.prof_add(|c| c.shared_accesses += elem_idx.len() as u64);
        let warp_w = self.warp_w;
        // Bank `b`'s distinct indices live at `seen[b * warp_w..]`.
        let mut seen = std::mem::take(&mut self.scratch_banks);
        seen.resize(BANKS * warp_w, 0);
        let mut rest = elem_idx;
        while let Some(&(lane, first)) = rest.first() {
            let warp_end = (lane / warp_w + 1) * warp_w;
            let n = rest.iter().take_while(|e| e.0 < warp_end).count();
            let (warp, tail) = rest.split_at(n);
            rest = tail;
            let consecutive =
                n <= BANKS && (warp.iter().zip(0..)).all(|(e, j)| e.1 == first.wrapping_add(j));
            if consecutive {
                continue;
            }
            let mut count = [0u32; BANKS];
            for &(_, idx) in warp {
                let bank = (idx & (BANKS as i64 - 1)) as usize;
                let list = &mut seen[bank * warp_w..][..warp_w];
                let k = count[bank] as usize;
                if !list[..k].contains(&idx) {
                    list[k] = idx;
                    count[bank] += 1;
                }
            }
            let degree = count.into_iter().max().unwrap_or(0);
            if degree > 1 {
                self.stats.bank_conflict_cycles += (degree - 1) as u64;
                self.prof_add(|c| c.bank_conflict_cycles += (degree - 1) as u64);
            }
        }
        self.scratch_banks = seen;
    }

    /// The conflict cycles of a list of [`Run`]s in closed form. A warp's
    /// `k` lanes of one run at stride `s` fall round-robin into `32 / g`
    /// banks, `g = gcd(s mod 32, 32)` — those congruent to the run's
    /// indices mod `g` — all indices distinct, or they are one index in its
    /// one bank, at stride 0 (`g = 32`): the degree is `ceil(k / banks)`.
    /// Runs that meet inside a warp at one stride in different classes mod
    /// `g` (the columns of a transposed tile, a cell per row of threads)
    /// share no bank, so the warp's degree is the largest of theirs, and one
    /// that repeats the warp's first (a tile row read by every row of
    /// threads) adds no index. `None` for any other meeting.
    fn conflict_cycles(&self, runs: &[Run]) -> Option<u64> {
        let warp_w = self.warp_w;
        let mut cycles = 0;
        // The warp being filled: where it ends, its first piece, a bit per
        // class taken, the degree so far.
        let (mut end, mut opener, mut taken, mut degree) = (0, (0, 0, 0), 0u32, 1);
        for run in runs {
            let g = 1 << run.stride.trailing_zeros().min(5);
            for (lane, k) in run.pieces(warp_w) {
                let first = run.first as i64 + (lane - run.lane0) as i64 * run.stride;
                let class = 1 << (first & (g - 1));
                let mine = if run.stride == 0 {
                    1
                } else {
                    k.div_ceil(32 / g as usize)
                };
                let (stride, first0, k0) = opener;
                if lane >= end {
                    cycles += degree as u64 - 1;
                    end = (lane / warp_w + 1) * warp_w;
                    (opener, taken, degree) = ((run.stride, first, k), class, mine);
                } else if run.stride != stride {
                    return None;
                } else if first == first0 && k <= k0 {
                    continue;
                } else if taken & class != 0 {
                    return None;
                } else {
                    taken |= class;
                    degree = degree.max(mine);
                }
            }
        }
        Some(cycles + degree as u64 - 1)
    }

    /// [`Machine::shared_access`] for a list of [`Run`]s: in closed form
    /// ([`Machine::conflict_cycles`]), or else through the bank lists with
    /// `elems` as scratch — where the lanes of a stride-0 run, being one
    /// index, are listed once per warp.
    pub(crate) fn shared_access_runs(&mut self, runs: &[Run], elems: &mut Vec<(usize, i64)>) {
        let mut unlisted: u64 = runs.iter().map(|r| r.n as u64).sum();
        if let Some(cycles) = self.conflict_cycles(runs) {
            self.stats.bank_conflict_cycles += cycles;
            self.prof_add(|c| c.bank_conflict_cycles += cycles);
        } else {
            elems.clear();
            for run in runs {
                let first = run.first as i64;
                if run.stride == 0 {
                    elems.extend(run.pieces(self.warp_w).map(|(lane, _)| (lane, first)));
                } else {
                    let lane = |j| (run.lane0 + j, first + j as i64 * run.stride);
                    elems.extend((0..run.n).map(lane));
                }
            }
            unlisted -= elems.len() as u64;
            self.shared_access(elems);
        }
        self.stats.shared_accesses += unlisted;
        self.prof_add(|c| c.shared_accesses += unlisted);
    }

    pub(crate) fn buf_f(&self, slot: u32) -> R<SimBufF> {
        self.args
            .bufs_f
            .get(slot as usize)
            .copied()
            .ok_or_else(|| serr!("f64 buffer slot {slot} not bound"))
    }

    pub(crate) fn buf_i(&self, slot: u32) -> R<SimBufI> {
        self.args
            .bufs_i
            .get(slot as usize)
            .copied()
            .ok_or_else(|| serr!("i64 buffer slot {slot} not bound"))
    }

    fn special_value(&self, bs: &BlockState, r: SpecialReg, lane: usize) -> i64 {
        match r {
            SpecialReg::GridBlockExtent(a) => self.grid[a as usize],
            SpecialReg::BlockThreadExtent(a) => self.block[a as usize],
            SpecialReg::ThreadElemExtent(a) => self.elems[a as usize],
            SpecialReg::BlockIdx(a) => bs.bidx[a as usize],
            SpecialReg::ThreadIdx(a) => bs.tid[lane][a as usize],
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_instr(&mut self, bs: &mut BlockState, instr: &Instr, mask: &[bool]) -> R<()> {
        self.burn()?;
        let active = self.issue(mask);
        if active == 0 {
            return Ok(());
        }
        let d = instr.dst;
        match &instr.op {
            Op::ConstF(v) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        bs.sf(d, l, *v);
                    }
                }
            }
            Op::ConstI(v) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        bs.si(d, l, *v);
                    }
                }
            }
            Op::ConstB(v) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        bs.sb(d, l, *v);
                    }
                }
            }
            Op::Special(r) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let v = self.special_value(bs, *r, l);
                        bs.si(d, l, v);
                    }
                }
            }
            Op::ParamF(s) => {
                let v = *self
                    .args
                    .params_f
                    .get(*s as usize)
                    .ok_or_else(|| serr!("f64 param slot {s} not bound"))?;
                for l in 0..bs.lanes {
                    if mask[l] {
                        bs.sf(d, l, v);
                    }
                }
            }
            Op::ParamI(s) => {
                let v = *self
                    .args
                    .params_i
                    .get(*s as usize)
                    .ok_or_else(|| serr!("i64 param slot {s} not bound"))?;
                for l in 0..bs.lanes {
                    if mask[l] {
                        bs.si(d, l, v);
                    }
                }
            }
            Op::BinF(op, a, b) => {
                let flops = match op {
                    FBin::Div => 4,
                    _ => 1,
                };
                self.add_flops(active * flops);
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::fbin(*op, bs.rf(*a, l), bs.rf(*b, l));
                        bs.sf(d, l, r);
                    }
                }
            }
            Op::UnF(op, a) => {
                match op {
                    FUn::Sqrt | FUn::Exp | FUn::Ln | FUn::Sin | FUn::Cos => {
                        self.add_special(active)
                    }
                    _ => self.add_flops(active),
                }
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::fun(*op, bs.rf(*a, l));
                        bs.sf(d, l, r);
                    }
                }
            }
            Op::Fma(a, b, c) => {
                self.add_flops(active * 2);
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::fma(bs.rf(*a, l), bs.rf(*b, l), bs.rf(*c, l));
                        bs.sf(d, l, r);
                    }
                }
            }
            Op::BinI(op, a, b) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::ibin(*op, bs.ri(*a, l), bs.ri(*b, l));
                        bs.si(d, l, r);
                    }
                }
            }
            Op::NegI(a) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = bs.ri(*a, l).wrapping_neg();
                        bs.si(d, l, r);
                    }
                }
            }
            Op::CmpF(c, a, b) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::cmp_f(*c, bs.rf(*a, l), bs.rf(*b, l));
                        bs.sb(d, l, r);
                    }
                }
            }
            Op::CmpI(c, a, b) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::cmp_i(*c, bs.ri(*a, l), bs.ri(*b, l));
                        bs.sb(d, l, r);
                    }
                }
            }
            Op::BinB(op, a, b) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::bbin(*op, bs.rb(*a, l), bs.rb(*b, l));
                        bs.sb(d, l, r);
                    }
                }
            }
            Op::NotB(a) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = !bs.rb(*a, l);
                        bs.sb(d, l, r);
                    }
                }
            }
            Op::SelF(c, t, e) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = if bs.rb(*c, l) {
                            bs.rf(*t, l)
                        } else {
                            bs.rf(*e, l)
                        };
                        bs.sf(d, l, r);
                    }
                }
            }
            Op::SelI(c, t, e) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = if bs.rb(*c, l) {
                            bs.ri(*t, l)
                        } else {
                            bs.ri(*e, l)
                        };
                        bs.si(d, l, r);
                    }
                }
            }
            Op::I2F(a) => {
                self.add_flops(active);
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::i2f(bs.ri(*a, l));
                        bs.sf(d, l, r);
                    }
                }
            }
            Op::F2I(a) => {
                self.add_flops(active);
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::f2i(bs.rf(*a, l));
                        bs.si(d, l, r);
                    }
                }
            }
            Op::U2UnitF(a) => {
                self.add_flops(active * 2);
                for l in 0..bs.lanes {
                    if mask[l] {
                        let r = sem::u2unit(bs.ri(*a, l));
                        bs.sf(d, l, r);
                    }
                }
            }
            Op::LdGF { buf, idx } => {
                let b = self.buf_f(*buf)?;
                bs.scratch_addrs.clear();
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        let len = self.mem.len_f(b);
                        if i < 0 || i as usize >= len {
                            return Err(serr!(
                                "ld.global.f64: index {i} out of bounds (len {len})"
                            )
                            .at_thread(bs.tid[l]));
                        }
                        let a = self.mem.addr_f(b, i as u64);
                        self.ecc_check(a, "ld.global.f64", bs.tid[l])?;
                        let v = self.mem.read_f(b, i as usize)?;
                        bs.sf(d, l, v);
                        bs.scratch_addrs.push((l, a));
                    }
                }
                self.stats.global_loads += active;
                self.prof_add(|c| c.global_loads += active);
                self.mem_access(&bs.scratch_addrs);
            }
            Op::LdGI { buf, idx } => {
                let b = self.buf_i(*buf)?;
                bs.scratch_addrs.clear();
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        let len = self.mem.len_i(b);
                        if i < 0 || i as usize >= len {
                            return Err(serr!(
                                "ld.global.s64: index {i} out of bounds (len {len})"
                            )
                            .at_thread(bs.tid[l]));
                        }
                        let a = self.mem.addr_i(b, i as u64);
                        self.ecc_check(a, "ld.global.s64", bs.tid[l])?;
                        let v = self.mem.read_i(b, i as usize)?;
                        bs.si(d, l, v);
                        bs.scratch_addrs.push((l, a));
                    }
                }
                self.stats.global_loads += active;
                self.prof_add(|c| c.global_loads += active);
                self.mem_access(&bs.scratch_addrs);
            }
            Op::LdSF { sh, idx } => {
                bs.scratch_elems.clear();
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        let arr = &bs.sh_f[*sh as usize];
                        if i < 0 || i as usize >= arr.len() {
                            return Err(serr!(
                                "ld.shared.f64: index {i} out of bounds (len {})",
                                arr.len()
                            )
                            .at_thread(bs.tid[l]));
                        }
                        let v = arr[i as usize];
                        bs.sf(d, l, v);
                        bs.scratch_elems.push((l, i));
                    }
                }
                self.shared_access(&bs.scratch_elems);
            }
            Op::LdSI { sh, idx } => {
                bs.scratch_elems.clear();
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        let arr = &bs.sh_i[*sh as usize];
                        if i < 0 || i as usize >= arr.len() {
                            return Err(serr!(
                                "ld.shared.s64: index {i} out of bounds (len {})",
                                arr.len()
                            )
                            .at_thread(bs.tid[l]));
                        }
                        let v = arr[i as usize];
                        bs.si(d, l, v);
                        bs.scratch_elems.push((l, i));
                    }
                }
                self.shared_access(&bs.scratch_elems);
            }
            Op::LdLF { loc, idx } => {
                let len = self.prog.locals[*loc as usize].len;
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        if i < 0 || i as usize >= len {
                            return Err(serr!("ld.local.f64: index {i} out of bounds (len {len})")
                                .at_thread(bs.tid[l]));
                        }
                        let v = bs.loc_f[*loc as usize][l * len + i as usize];
                        bs.sf(d, l, v);
                    }
                }
            }
            Op::LdVarF(v) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let bits = bs.vars[v.0 as usize * bs.lanes + l];
                        bs.set_reg(d, l, bits);
                    }
                }
            }
            Op::LdVarI(v) => {
                for l in 0..bs.lanes {
                    if mask[l] {
                        let bits = bs.vars[v.0 as usize * bs.lanes + l];
                        bs.set_reg(d, l, bits);
                    }
                }
            }
            // Atomics either defer into the worker's private accumulation
            // state (when the launch has a reducibility plan — the only
            // mode the parallel path permits) or run as direct
            // read-modify-writes on the single serial interpreter thread.
            // A deferred atomic's result register reads 0: the plan
            // guarantees the old value is dead.
            Op::AtomicGF { op, buf, idx, val } => {
                let b = self.buf_f(*buf)?;
                self.stats.atomics += active;
                self.prof_add(|c| c.atomics += active);
                let target = self.atomics.as_ref().and_then(|ap| ap.target_f(*buf));
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        let len = self.mem.len_f(b);
                        if i < 0 || i as usize >= len {
                            return Err(serr!(
                                "atom.global.f64: index {i} out of bounds (len {len})"
                            )
                            .at_thread(bs.tid[l]));
                        }
                        let v = bs.rf(*val, l);
                        if let Some(t) = target {
                            let block = self.cur_block_lin as u64;
                            self.atomics
                                .as_mut()
                                .unwrap()
                                .defer_f(t, *op, block, i as usize, v);
                            bs.sf(d, l, 0.0);
                        } else {
                            let old = self.mem.read_f(b, i as usize)?;
                            self.mem
                                .write_f(b, i as usize, sem::atomic_f(*op, old, v))?;
                            bs.sf(d, l, old);
                        }
                    }
                }
            }
            Op::AtomicGI { op, buf, idx, val } => {
                let b = self.buf_i(*buf)?;
                self.stats.atomics += active;
                self.prof_add(|c| c.atomics += active);
                let target = self.atomics.as_ref().and_then(|ap| ap.target_i(*buf));
                for l in 0..bs.lanes {
                    if mask[l] {
                        let i = bs.ri(*idx, l);
                        let len = self.mem.len_i(b);
                        if i < 0 || i as usize >= len {
                            return Err(serr!(
                                "atom.global.s64: index {i} out of bounds (len {len})"
                            )
                            .at_thread(bs.tid[l]));
                        }
                        let v = bs.ri(*val, l);
                        if let Some(t) = target {
                            let block = self.cur_block_lin as u64;
                            self.atomics
                                .as_mut()
                                .unwrap()
                                .defer_i(t, *op, block, i as usize, v);
                            bs.si(d, l, 0);
                        } else {
                            let old = self.mem.read_i(b, i as usize)?;
                            self.mem
                                .write_i(b, i as usize, sem::atomic_i(*op, old, v))?;
                            bs.si(d, l, old);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute one IR block, attributing any fault that carries no lane
    /// coordinates yet (unbound params/buffers, other launch-uniform
    /// failures) to the first active lane of the innermost mask — the same
    /// lane a serial per-thread evaluation would fault on first.
    fn exec_block(&mut self, bs: &mut BlockState, block: &Block, mask: &[bool]) -> R<()> {
        self.exec_block_inner(bs, block, mask).map_err(|e| {
            if e.thread.is_none() && matches!(e.kind, crate::fault::SimErrorKind::Fault { .. }) {
                let l = mask.iter().position(|&m| m).unwrap_or(0);
                e.at_thread(bs.tid[l])
            } else {
                e
            }
        })
    }

    fn exec_block_inner(&mut self, bs: &mut BlockState, block: &Block, mask: &[bool]) -> R<()> {
        for stmt in &block.0 {
            if let Some(n) = self.numbering {
                if !matches!(stmt, Stmt::Comment(_)) {
                    self.cur_instr = n.id_of(stmt);
                }
            }
            match stmt {
                Stmt::I(instr) => self.exec_instr(bs, instr, mask)?,
                Stmt::StGF { buf, idx, val } => {
                    self.burn()?;
                    let active = self.issue(mask);
                    if active == 0 {
                        continue;
                    }
                    let b = self.buf_f(*buf)?;
                    bs.scratch_addrs.clear();
                    for l in 0..bs.lanes {
                        if mask[l] {
                            let i = bs.ri(*idx, l);
                            let len = self.mem.len_f(b);
                            if i < 0 || i as usize >= len {
                                return Err(serr!(
                                    "st.global.f64: index {i} out of bounds (len {len})"
                                )
                                .at_thread(bs.tid[l]));
                            }
                            let v = bs.rf(*val, l);
                            self.mem.write_f(b, i as usize, v)?;
                            bs.scratch_addrs.push((l, self.mem.addr_f(b, i as u64)));
                        }
                    }
                    self.stats.global_stores += active;
                    self.prof_add(|c| c.global_stores += active);
                    self.mem_access(&bs.scratch_addrs);
                }
                Stmt::StGI { buf, idx, val } => {
                    self.burn()?;
                    let active = self.issue(mask);
                    if active == 0 {
                        continue;
                    }
                    let b = self.buf_i(*buf)?;
                    bs.scratch_addrs.clear();
                    for l in 0..bs.lanes {
                        if mask[l] {
                            let i = bs.ri(*idx, l);
                            let len = self.mem.len_i(b);
                            if i < 0 || i as usize >= len {
                                return Err(serr!(
                                    "st.global.s64: index {i} out of bounds (len {len})"
                                )
                                .at_thread(bs.tid[l]));
                            }
                            let v = bs.ri(*val, l);
                            self.mem.write_i(b, i as usize, v)?;
                            bs.scratch_addrs.push((l, self.mem.addr_i(b, i as u64)));
                        }
                    }
                    self.stats.global_stores += active;
                    self.prof_add(|c| c.global_stores += active);
                    self.mem_access(&bs.scratch_addrs);
                }
                Stmt::StLF { loc, idx, val } => {
                    self.burn()?;
                    let active = self.issue(mask);
                    if active == 0 {
                        continue;
                    }
                    let len = self.prog.locals[*loc as usize].len;
                    for l in 0..bs.lanes {
                        if mask[l] {
                            let i = bs.ri(*idx, l);
                            if i < 0 || i as usize >= len {
                                return Err(serr!(
                                    "st.local.f64: index {i} out of bounds (len {len})"
                                )
                                .at_thread(bs.tid[l]));
                            }
                            let v = bs.rf(*val, l);
                            bs.loc_f[*loc as usize][l * len + i as usize] = v;
                        }
                    }
                }
                Stmt::StSF { sh, idx, val } => {
                    self.burn()?;
                    let active = self.issue(mask);
                    if active == 0 {
                        continue;
                    }
                    bs.scratch_elems.clear();
                    for l in 0..bs.lanes {
                        if mask[l] {
                            let i = bs.ri(*idx, l);
                            let v = bs.rf(*val, l);
                            let arr = &mut bs.sh_f[*sh as usize];
                            if i < 0 || i as usize >= arr.len() {
                                let len = arr.len();
                                return Err(serr!(
                                    "st.shared.f64: index {i} out of bounds (len {len})"
                                )
                                .at_thread(bs.tid[l]));
                            }
                            arr[i as usize] = v;
                            bs.scratch_elems.push((l, i));
                        }
                    }
                    self.shared_access(&bs.scratch_elems);
                }
                Stmt::StSI { sh, idx, val } => {
                    self.burn()?;
                    let active = self.issue(mask);
                    if active == 0 {
                        continue;
                    }
                    bs.scratch_elems.clear();
                    for l in 0..bs.lanes {
                        if mask[l] {
                            let i = bs.ri(*idx, l);
                            let v = bs.ri(*val, l);
                            let arr = &mut bs.sh_i[*sh as usize];
                            if i < 0 || i as usize >= arr.len() {
                                let len = arr.len();
                                return Err(serr!(
                                    "st.shared.s64: index {i} out of bounds (len {len})"
                                )
                                .at_thread(bs.tid[l]));
                            }
                            arr[i as usize] = v;
                            bs.scratch_elems.push((l, i));
                        }
                    }
                    self.shared_access(&bs.scratch_elems);
                }
                Stmt::StVarF { var, val } => {
                    self.burn()?;
                    self.issue(mask);
                    for l in 0..bs.lanes {
                        if mask[l] {
                            bs.vars[var.0 as usize * bs.lanes + l] = bs.rf(*val, l).to_bits();
                        }
                    }
                }
                Stmt::StVarI { var, val } => {
                    self.burn()?;
                    self.issue(mask);
                    for l in 0..bs.lanes {
                        if mask[l] {
                            bs.vars[var.0 as usize * bs.lanes + l] = bs.ri(*val, l) as u64;
                        }
                    }
                }
                Stmt::Sync => {
                    if mask.iter().any(|&m| !m) {
                        return Err("bar.sync reached inside divergent control flow (the block \
                             barrier requires all threads of the block)"
                            .into());
                    }
                    self.stats.syncs += self.n_warps as u64;
                    let nw = self.n_warps as u64;
                    self.prof_add(|c| c.syncs += nw);
                }
                Stmt::Comment(_) => {}
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let mut taken = bs.take_mask();
                    taken.extend((0..bs.lanes).map(|l| bs.rb(*cond, l)));
                    self.note_divergence(mask, &taken);
                    let mut then_mask = bs.take_mask();
                    then_mask.extend((0..bs.lanes).map(|l| mask[l] && taken[l]));
                    let mut else_mask = bs.take_mask();
                    else_mask.extend((0..bs.lanes).map(|l| mask[l] && !taken[l]));
                    bs.put_mask(taken);
                    if then_mask.iter().any(|&m| m) {
                        self.exec_block(bs, then_b, &then_mask)?;
                    }
                    if else_mask.iter().any(|&m| m) && !else_b.is_empty() {
                        self.exec_block(bs, else_b, &else_mask)?;
                    }
                    bs.put_mask(then_mask);
                    bs.put_mask(else_mask);
                }
                Stmt::ForRange {
                    counter,
                    start,
                    end,
                    body,
                    vectorize,
                } => {
                    self.exec_for(bs, *counter, *start, *end, body, *vectorize, mask)?;
                }
                Stmt::While {
                    cond_block,
                    cond,
                    body,
                } => {
                    // Divergence at the loop exit test is attributed to the
                    // while header, not the last statement of the condition
                    // block the nested exec just ran.
                    let my_id = self.cur_instr;
                    let mut active = bs.take_mask();
                    active.extend_from_slice(mask);
                    let mut taken = bs.take_mask();
                    loop {
                        self.burn()?;
                        if !active.iter().any(|&m| m) {
                            break;
                        }
                        self.exec_block(bs, cond_block, &active)?;
                        taken.clear();
                        taken.extend((0..bs.lanes).map(|l| bs.rb(*cond, l)));
                        self.cur_instr = my_id;
                        self.note_divergence(&active, &taken);
                        for l in 0..bs.lanes {
                            active[l] = active[l] && taken[l];
                        }
                        if !active.iter().any(|&m| m) {
                            break;
                        }
                        self.exec_block(bs, body, &active)?;
                    }
                    bs.put_mask(active);
                    bs.put_mask(taken);
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_for(
        &mut self,
        bs: &mut BlockState,
        counter: ValId,
        start: ValId,
        end: ValId,
        body: &Block,
        vectorize: bool,
        mask: &[bool],
    ) -> R<()> {
        // Open a vectorization region for outermost element loops on CPU
        // device models.
        let opened_region = vectorize
            && self.spec.kind == DeviceKind::Cpu
            && self.spec.simd_width > 1
            && self.region.is_none();
        if opened_region {
            self.region = Some(RegionAcc::default());
        }

        let result = self.exec_for_inner(bs, counter, start, end, body, mask, opened_region);

        if opened_region {
            let r = self.region.take().expect("region open");
            if r.vectorized() {
                self.stats.vec_issue += r.issue;
                self.stats.vec_flops += r.flops;
                // Special functions do not vectorize on the modeled units.
                self.stats.special_ops += r.special;
            } else {
                self.stats.scalar_issue += r.issue;
                self.stats.scalar_flops += r.flops;
                self.stats.special_ops += r.special;
            }
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_for_inner(
        &mut self,
        bs: &mut BlockState,
        counter: ValId,
        start: ValId,
        end: ValId,
        body: &Block,
        mask: &[bool],
        probe: bool,
    ) -> R<()> {
        // Uniformity check over active lanes.
        let mut s0 = None;
        let mut e0 = None;
        let mut uniform = true;
        for l in 0..bs.lanes {
            if mask[l] {
                let s = bs.ri(start, l);
                let e = bs.ri(end, l);
                match (s0, e0) {
                    (None, None) => {
                        s0 = Some(s);
                        e0 = Some(e);
                    }
                    (Some(ps), Some(pe)) => {
                        if ps != s || pe != e {
                            uniform = false;
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
        let (Some(s0), Some(e0)) = (s0, e0) else {
            return Ok(()); // no active lanes
        };

        if uniform {
            let mut k = s0;
            while k < e0 {
                self.burn()?;
                for l in 0..bs.lanes {
                    if mask[l] {
                        bs.si(counter, l, k);
                    }
                }
                self.exec_block(bs, body, mask)?;
                if probe {
                    if let Some(r) = &mut self.region {
                        r.advance(1);
                    }
                }
                k += 1;
            }
        } else {
            // Per-lane trip counts: iterate with a shrinking mask.
            if probe {
                if let Some(r) = &mut self.region {
                    r.probe_failed = true;
                }
            }
            // Divergence at the trip test belongs to the for header, not to
            // whatever statement the body exec left in `cur_instr`.
            let my_id = self.cur_instr;
            let mut active = bs.take_mask();
            let mut iter: i64 = 0;
            loop {
                self.burn()?;
                let mut any = false;
                active.clear();
                active.extend((0..bs.lanes).map(|l| {
                    let a = mask[l] && trip_live(bs.ri(start, l), iter, bs.ri(end, l));
                    any |= a;
                    a
                }));
                if !any {
                    break;
                }
                self.cur_instr = my_id;
                self.note_divergence(mask, &active);
                for l in 0..bs.lanes {
                    if active[l] {
                        let s = bs.ri(start, l);
                        bs.si(counter, l, s + iter);
                    }
                }
                self.exec_block(bs, body, &active)?;
                iter += 1;
            }
            bs.put_mask(active);
        }
        Ok(())
    }
}

/// Whether a lane with bounds `start..end` is still inside its loop at
/// lockstep iteration `iter`. Lanes that already left keep being asked, so
/// `start + iter` may pass `i64::MAX`; an overflowing counter is past any
/// `end`.
#[inline]
pub(crate) fn trip_live(start: i64, iter: i64, end: i64) -> bool {
    start.checked_add(iter).is_some_and(|k| k < end)
}

/// Strictly increasing linear block indices for `ExecMode::SampleBlocks`:
/// ~`k` blocks evenly spaced over `0..total`, never duplicated, never out
/// of range. `k` is clamped to `1..=total`.
fn sample_indices(total: usize, k: usize) -> Vec<usize> {
    if total == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, total);
    let stride = total as f64 / k as f64;
    let mut idx = Vec::with_capacity(k);
    for j in 0..k {
        let i = (((j as f64 + 0.5) * stride) as usize).min(total - 1);
        // Rounding can land two sample points on the same block; keep the
        // sequence strictly increasing instead of deduping afterwards.
        if idx.last().is_none_or(|&last| i > last) {
            idx.push(i);
        }
    }
    idx
}

/// Which interpreter executes the blocks of a launch: production or
/// oracle. Both produce bit-identical buffers, [`LaunchStats`] and
/// [`TimeBreakdown`], and both refuse a program that fails IR validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Direct tree-walking interpretation of the structured IR: the
    /// reference tests and benchmarks compare against.
    Reference,
    /// Pre-lowered warp programs (see `crate::lower`), with the loops of
    /// one-thread blocks re-threaded into fused step lists (see
    /// `crate::compile`). The default.
    Compiled,
}

/// How the blocks of one launch execute: chosen once per launch, in
/// `Prepared::launch`.
pub(crate) enum Tier {
    /// `Engine::Reference`'s tree-walker.
    Reference,
    /// The lowered interpreter (`lower::exec_ops` over the lane kernels).
    Lowered(Arc<crate::lower::WarpProgram>),
    /// The compiled tree: fused loops, lowered ranges in between.
    Fused(Arc<crate::compile::CompiledProgram>),
}

/// Launch geometry and bindings shared by every interpreter worker.
pub(crate) struct LaunchCtx<'a> {
    pub(crate) spec: &'a DeviceSpec,
    pub(crate) prog: &'a Program,
    pub(crate) args: &'a SimArgs,
    pub(crate) grid: [i64; 3],
    pub(crate) block: [i64; 3],
    pub(crate) elems: [i64; 3],
    pub(crate) warp_w: usize,
    pub(crate) n_warps: usize,
    pub(crate) lanes: usize,
    pub(crate) grid_ext: Vecn<3>,
    pub(crate) thread_ext: Vecn<3>,
    pub(crate) tier: Tier,
    /// Per-worker instruction budget and whether it is a fault-plan
    /// watchdog budget (exhaustion then reports `Timeout`).
    pub(crate) fuel: u64,
    pub(crate) watchdog: bool,
    /// Launch-scoped ECC injection context, when a fault plan enables it.
    pub(crate) ecc: Option<EccCtx>,
    /// Canonical statement numbering, present only when tracing/profiling is
    /// enabled for this launch.
    pub(crate) numbering: Option<Arc<Numbering>>,
    /// Deferred-atomics plan, when the program's global atomics are
    /// commutative-reducible under this launch's bindings.
    pub(crate) atomics: Option<Arc<crate::atomics::AtomicsPlan>>,
}

/// What one interpreter worker produced: its stats, plus the per-statement
/// profile and per-block spans when the launch is being traced.
pub(crate) struct WorkerOut {
    pub(crate) stats: LaunchStats,
    pub(crate) profile: Option<Box<[InstrCounters]>>,
    pub(crate) spans: Vec<BlockSpan>,
    /// Deferred atomic accumulations, reduced by the driver in worker
    /// order after every worker finished.
    pub(crate) atomics: Option<crate::atomics::AtomicsPriv>,
}

/// The issue-roofline cycle count of `s` (same weights as `estimate_time`);
/// per-block span durations are deltas of this.
pub(crate) fn stats_issue_cycles(s: &LaunchStats) -> u64 {
    s.scalar_issue + s.vec_issue + s.bank_conflict_cycles + s.syncs * 8 + s.atomics * 16
}

/// Build one worker's [`Machine`]: stats accumulator, a slot per SM this
/// worker owns for its cache model, and the reusable accounting scratch.
pub(crate) fn make_machine<'a>(
    ctx: &'a LaunchCtx<'_>,
    mem: MemAccess<'a>,
    team: usize,
    worker: usize,
) -> Machine<'a> {
    let spec = ctx.spec;
    let sms = spec.sms;
    let caches = match spec.cache_scope {
        CacheScope::None => Caches::None,
        // Only the SMs this worker owns, compacted: global SM `s` lives at
        // local slot `s / team` (for team == 1 that is the identity).
        CacheScope::PerSm => Caches::PerSm(
            (0..sms)
                .filter(|s| s % team == worker)
                .map(|_| CacheSim::unbuilt())
                .collect(),
        ),
        // A device-wide cache cannot be split; the caller never parallelizes
        // this scope (see `run_kernel_launch_threads`).
        CacheScope::Shared => {
            debug_assert_eq!(team, 1, "shared-cache launches must be serial");
            Caches::Shared(CacheSim::new(
                spec.cache_kib,
                spec.cache_assoc,
                spec.line_bytes,
            ))
        }
    };
    Machine {
        prog: ctx.prog,
        spec,
        mem,
        args: ctx.args,
        grid: ctx.grid,
        block: ctx.block,
        elems: ctx.elems,
        warp_w: ctx.warp_w,
        n_warps: ctx.n_warps,
        stats: LaunchStats::default(),
        region: None,
        caches,
        line_shift: spec.line_bytes.trailing_zeros(),
        cur_sm: 0,
        fuel: ctx.fuel,
        watchdog: ctx.watchdog,
        ecc: ctx.ecc,
        cur_block_lin: 0,
        scratch_lines: Vec::new(),
        scratch_banks: Vec::new(),
        profile: ctx.numbering.as_ref().map(|n| n.counters()),
        cur_instr: 0,
        numbering: ctx.numbering.as_deref(),
        atomics: ctx
            .atomics
            .as_ref()
            .map(|p| crate::atomics::AtomicsPriv::new(p.clone())),
    }
}

/// Interpret the subset of `indices` owned by `worker` of a `team`.
///
/// Blocks are assigned to SMs round-robin (`sm = lin % sms`, as the serial
/// interpreter always did) and SMs are partitioned across workers
/// (`worker = sm % team`), so each per-SM cache sees exactly the access
/// stream it would see serially: worker-private caches make the parallel
/// hit/miss counts bit-identical to a serial run. Errors carry the linear
/// block index so the caller can report the first failing block
/// deterministically.
fn interpret_blocks(
    ctx: &LaunchCtx<'_>,
    mem: MemAccess<'_>,
    team: usize,
    worker: usize,
    indices: &[usize],
) -> Result<WorkerOut, (usize, SimError)> {
    match &ctx.tier {
        Tier::Fused(cp) => {
            return crate::compile::interpret_blocks_compiled(ctx, mem, team, worker, indices, cp)
        }
        Tier::Lowered(wp) => {
            return crate::lower::interpret_blocks_lowered(ctx, mem, team, worker, indices, wp)
        }
        Tier::Reference => {}
    }
    let spec = ctx.spec;
    let prog = ctx.prog;
    let sms = spec.sms;
    let lanes = ctx.lanes;
    let mut m = make_machine(ctx, mem, team, worker);
    let mut bs = BlockState {
        lanes,
        regs: vec![0; prog.n_vals as usize * lanes],
        vars: vec![0; prog.vars.len() * lanes],
        sh_f: prog
            .shared
            .iter()
            .map(|s| {
                if s.ty == Ty::F64 {
                    vec![0.0; s.len]
                } else {
                    vec![]
                }
            })
            .collect(),
        sh_i: prog
            .shared
            .iter()
            .map(|s| {
                if s.ty == Ty::I64 {
                    vec![0; s.len]
                } else {
                    vec![]
                }
            })
            .collect(),
        loc_f: prog
            .locals
            .iter()
            .map(|l| vec![0.0; l.len * lanes])
            .collect(),
        tid: (0..lanes)
            .map(|t| ctx.thread_ext.delinearize(t).map_i64())
            .collect(),
        bidx: [0; 3],
        scratch_addrs: Vec::new(),
        scratch_elems: Vec::new(),
        mask_pool: Vec::new(),
    };

    // Shared/local arrays must be zero at block entry. They start zeroed,
    // so resetting is only needed *between* blocks, and only when the
    // program declares any such arrays at all.
    let has_block_arrays = bs.sh_f.iter().any(|a| !a.is_empty())
        || bs.sh_i.iter().any(|a| !a.is_empty())
        || bs.loc_f.iter().any(|a| !a.is_empty());
    let mut ran_a_block = false;

    let full_mask = vec![true; lanes];
    let tracing = ctx.numbering.is_some();
    let mut spans: Vec<BlockSpan> = Vec::new();
    for &lin in indices {
        let sm = lin % sms;
        if sm % team != worker {
            continue;
        }
        if has_block_arrays && ran_a_block {
            for a in &mut bs.sh_f {
                a.iter_mut().for_each(|v| *v = 0.0);
            }
            for a in &mut bs.sh_i {
                a.iter_mut().for_each(|v| *v = 0);
            }
            for a in &mut bs.loc_f {
                a.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        ran_a_block = true;
        m.enter_block(sm / team, lin);
        bs.bidx = ctx.grid_ext.delinearize(lin).map_i64();
        let cycles_before = stats_issue_cycles(&m.stats);
        m.exec_block(&mut bs, &prog.body, &full_mask).map_err(|e| {
            (
                lin,
                e.with_block(bs.bidx)
                    .context(&format!("block {:?}: ", bs.bidx)),
            )
        })?;
        if tracing {
            spans.push(BlockSpan {
                block: lin as u64,
                sm: sm as u64,
                cycles: stats_issue_cycles(&m.stats) - cycles_before,
            });
        }
        m.stats.blocks += 1;
        m.stats.warps += m.n_warps as u64;
        m.stats.threads += lanes as u64;
    }
    Ok(WorkerOut {
        stats: m.stats,
        profile: m.profile,
        spans,
        atomics: m.atomics,
    })
}

/// Interpret a launch of `prog` with work division `wd` on a device
/// described by `spec`, memory `mem` and argument bindings `args`.
///
/// Runs on one interpreter thread (overridable via the
/// `ALPAKA_SIM_THREADS` environment variable); see
/// [`run_kernel_launch_threads`] for the exact parallel-execution rules.
pub fn run_kernel_launch(
    spec: &DeviceSpec,
    mem: &mut DeviceMem,
    prog: &Program,
    wd: &WorkDiv,
    args: &SimArgs,
    mode: ExecMode,
) -> Result<SimReport, SimError> {
    run_kernel_launch_threads(spec, mem, prog, wd, args, mode, resolve_sim_threads(1))
}

/// One worker's outcome: merged stats, or the failing block's linear index
/// plus its error (so the lowest-index error can be selected, as serial
/// execution would report it).
type WorkerSlot = Mutex<Option<Result<WorkerOut, (usize, SimError)>>>;

/// [`run_kernel_launch`] with an explicit interpreter thread count.
///
/// With `threads == 1` this is the exact serial interpreter. With
/// `threads > 1` the block loop is sharded over a worker team — each worker
/// owns a disjoint set of SMs (and their cache models) plus the blocks
/// scheduled onto them, interprets its blocks in increasing linear order,
/// and the per-worker [`LaunchStats`] are merged in fixed worker-index
/// order. Buffer contents, `LaunchStats` and `TimeBreakdown` are
/// bit-identical to the serial run for race-free kernels. Two launch
/// classes always take the serial path regardless of `threads`:
///
/// * programs with global atomics (their results depend on execution
///   order — float atomics even round differently), and
/// * devices with a [`CacheScope::Shared`] cache, whose single device-wide
///   cache model would see an order-dependent access stream.
///
/// Each worker gets its own instruction-fuel budget, so a pathological
/// runaway kernel may burn up to `threads`× the serial budget before
/// erroring.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_launch_threads(
    spec: &DeviceSpec,
    mem: &mut DeviceMem,
    prog: &Program,
    wd: &WorkDiv,
    args: &SimArgs,
    mode: ExecMode,
    threads: usize,
) -> Result<SimReport, SimError> {
    run_kernel_launch_engine(spec, mem, prog, wd, args, mode, threads, Engine::Compiled)
}

/// Fault-injection knobs scoped to a single launch, derived from a
/// `FaultPlan` by the device layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchFaults {
    /// Injected-ECC decision context for this launch's ordinal.
    pub ecc: Option<EccCtx>,
    /// Watchdog cycle budget per interpreter worker; exceeding it fails the
    /// launch with a `Timeout` error.
    pub watchdog_fuel: Option<u64>,
}

/// [`run_kernel_launch_threads`] with an explicit [`Engine`] choice:
/// `Engine::Compiled` is the default everywhere else, `Engine::Reference`
/// the tree-walking oracle. Results are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_launch_engine(
    spec: &DeviceSpec,
    mem: &mut DeviceMem,
    prog: &Program,
    wd: &WorkDiv,
    args: &SimArgs,
    mode: ExecMode,
    threads: usize,
    engine: Engine,
) -> Result<SimReport, SimError> {
    run_kernel_launch_faulty(spec, mem, prog, wd, args, mode, threads, engine, None)
}

/// [`run_kernel_launch_engine`] with per-launch fault injection: the entry
/// point for a bare `&Program`, whose [`Prepared`] form the compiled engine
/// keeps in the process-wide program cache (the oracle needs none kept).
/// Every other launch function delegates here with `faults: None`. A bare
/// launch belongs to no device, so it is traced when the calling thread's
/// [`Obs::current`] has its trace sink on.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_launch_faulty(
    spec: &DeviceSpec,
    mem: &mut DeviceMem,
    prog: &Program,
    wd: &WorkDiv,
    args: &SimArgs,
    mode: ExecMode,
    threads: usize,
    engine: Engine,
    faults: Option<LaunchFaults>,
) -> Result<SimReport, SimError> {
    let (cached, fresh);
    let prepared = match engine {
        Engine::Compiled => {
            cached = crate::lower::cached_for(prog);
            &cached.prepared
        }
        Engine::Reference => {
            fresh = Prepared::new(prog);
            &fresh
        }
    };
    let traced = Obs::current().trace_enabled();
    prepared.launch(
        spec, mem, prog, wd, args, mode, threads, engine, faults, traced,
    )
}

impl Prepared {
    /// The one launch function: run `prog`, the program this handle was made
    /// from, on what the handle holds. The simulated device calls this for
    /// its compiled kernels; [`run_kernel_launch_faulty`] finds a handle first.
    /// `traced` (the launcher's trace switch) runs the lowered tier and
    /// builds the per-instruction profile and the block spans.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &self,
        spec: &DeviceSpec,
        mem: &mut DeviceMem,
        prog: &Program,
        wd: &WorkDiv,
        args: &SimArgs,
        mode: ExecMode,
        threads: usize,
        engine: Engine,
        faults: Option<LaunchFaults>,
        traced: bool,
    ) -> Result<SimReport, SimError> {
        let host_t0 = Instant::now();
        // `DeviceSpec`'s fields are public: the access models shift by
        // `log2(line_bytes)`, and blocks divide into warps and over SMs.
        let (name, line) = (&spec.name, spec.line_bytes);
        if !line.is_power_of_two() {
            return Err(serr!(
                "{name}: `line_bytes` must be a power of two, got {line}"
            ));
        }
        if spec.warp_width == 0 || spec.sms == 0 {
            let (w, sms) = (spec.warp_width, spec.sms);
            return Err(serr!(
                "{name}: `warp_width` ({w}) and `sms` ({sms}) must be at least 1"
            ));
        }
        let threads_per_block = wd.threads_per_block();
        if threads_per_block > spec.max_threads_per_block {
            return Err(serr!(
                "{} supports at most {} threads per block, got {threads_per_block}",
                spec.name,
                spec.max_threads_per_block
            ));
        }
        if prog.shared_bytes() > spec.shared_mem_per_block {
            return Err(serr!(
                "kernel needs {} B shared memory, device has {} B per block",
                prog.shared_bytes(),
                spec.shared_mem_per_block
            ));
        }
        if prog.dims != wd.dim {
            return Err(serr!(
                "program traced for {}-D launches, work division is {}-D",
                prog.dims,
                wd.dim
            ));
        }
        // A freed slot is empty, so its accesses would read as out-of-bounds
        // kernel faults: name the misuse instead.
        for &b in &args.bufs_f {
            mem.try_f(b)?;
        }
        for &b in &args.bufs_i {
            mem.try_i(b)?;
        }
        // Invalid IR is an error on both engines: neither checks the ids it
        // indexes registers by. The compiled engine runs the fused tier when
        // the blocks have one thread (fused loops run at one lane only, so the
        // tier follows from the work division), the launch is untraced (the
        // lowered tier's per-instruction replay is what trace and profile
        // streams are made of) and some loop of the program fused.
        let tier = match engine {
            Engine::Reference => {
                crate::lower::check_ir(prog)?;
                Tier::Reference
            }
            Engine::Compiled => {
                let wp = self.lowered(prog)?;
                let fused = (threads_per_block == 1 && !traced).then(|| self.compiled(&wp));
                match fused.flatten() {
                    Some(cp) => Tier::Fused(cp),
                    None => Tier::Lowered(wp),
                }
            }
        };

        let total_blocks = wd.block_count();
        let (indices, scale, sampled): (Vec<usize>, f64, bool) = match mode {
            ExecMode::Full => ((0..total_blocks).collect(), 1.0, false),
            ExecMode::SampleBlocks(k) => {
                let idx = sample_indices(total_blocks, k);
                let scale = total_blocks as f64 / idx.len().max(1) as f64;
                (idx, scale, total_blocks > k)
            }
            ExecMode::BlockRange { start, end } => {
                if start > end || end > total_blocks {
                    return Err(serr!(
                        "block range {start}..{end} outside grid of {total_blocks} block(s)"
                    ));
                }
                ((start..end).collect(), 1.0, false)
            }
        };

        let warp_w = spec.warp_width;
        // Profiling piggybacks on the tracing switch so the default launch
        // path stays allocation-free.
        let numbering = traced.then(|| Arc::new(Numbering::new(prog)));
        // Classify the program's global atomics: a reducible plan lets every
        // engine defer them (worker-private accumulation, ordered reduction
        // below) and so lets the block loop parallelize.
        let atomics_plan = crate::atomics::plan_for(&self.atomics, mem, args, prog);
        let has_atomics = !matches!(self.atomics, alpaka_kir::AtomicsSummary::NoAtomics);
        let ctx = LaunchCtx {
            spec,
            prog,
            args,
            grid: wd.blocks.map(|v| v as i64),
            block: wd.threads.map(|v| v as i64),
            elems: wd.elems.map(|v| v as i64),
            warp_w,
            n_warps: threads_per_block.div_ceil(warp_w),
            lanes: threads_per_block,
            grid_ext: Vecn(wd.blocks),
            thread_ext: Vecn(wd.threads),
            tier,
            fuel: faults.and_then(|f| f.watchdog_fuel).unwrap_or(DEFAULT_FUEL),
            watchdog: faults.is_some_and(|f| f.watchdog_fuel.is_some()),
            ecc: faults.and_then(|f| f.ecc),
            numbering,
            atomics: atomics_plan,
        };

        // A worker without SMs would idle, so the team never exceeds the SM
        // count (nor the block count).
        let team = threads.max(1).min(spec.sms).min(indices.len().max(1));
        // Atomics no longer force the serial path by themselves: a launch
        // with a deferral plan parallelizes like any other. Only non-reducible
        // atomic programs (and shared-cache devices) stay serial.
        let parallel = team > 1
            && spec.cache_scope != CacheScope::Shared
            && (!has_atomics || ctx.atomics.is_some());
        let fallback = if team > 1 && spec.cache_scope == CacheScope::Shared {
            crate::atomics::FallbackReason::SharedCacheScope
        } else if team > 1 && has_atomics && ctx.atomics.is_none() {
            crate::atomics::FallbackReason::AtomicsNonReducible
        } else {
            crate::atomics::FallbackReason::None
        };

        let (raw_stats, raw_profile, mut spans, workers, deferred) = if !parallel {
            let out = interpret_blocks(&ctx, MemAccess::Excl(mem), 1, 0, &indices)
                .map_err(|(_, msg)| msg)?;
            let deferred = out.atomics.into_iter().collect::<Vec<_>>();
            (out.stats, out.profile, out.spans, 1, deferred)
        } else {
            let view = mem.shared_view();
            let slots: Vec<WorkerSlot> = (0..team).map(|_| Mutex::new(None)).collect();
            run_team(team, |w| {
                let result = interpret_blocks(&ctx, MemAccess::Shared(&view), team, w, &indices);
                *slots[w].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            })
            .map_err(|p| serr!("simulator worker panicked: {p}"))?;

            // Merge in fixed worker-index order; error on the lowest failing
            // block so the message matches what the serial run would report.
            let mut merged = LaunchStats::default();
            let mut merged_prof: Option<Box<[InstrCounters]>> = None;
            let mut merged_spans: Vec<BlockSpan> = Vec::new();
            let mut deferred: Vec<crate::atomics::AtomicsPriv> = Vec::new();
            let mut first_err: Option<(usize, SimError)> = None;
            for slot in &slots {
                match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    Some(Ok(out)) => {
                        merged.add(&out.stats);
                        if let Some(p) = out.profile {
                            match &mut merged_prof {
                                Some(m) => merge_counters(m, &p),
                                None => merged_prof = Some(p),
                            }
                        }
                        merged_spans.extend(out.spans);
                        deferred.extend(out.atomics);
                    }
                    Some(Err((lin, msg))) => {
                        if first_err.as_ref().is_none_or(|(l, _)| lin < *l) {
                            first_err = Some((lin, msg));
                        }
                    }
                    None => return Err("simulator worker produced no result".into()),
                }
            }
            if let Some((_, msg)) = first_err {
                return Err(msg);
            }
            (merged, merged_prof, merged_spans, team, deferred)
        };
        // Reduce the workers' deferred atomics into the real buffers, in
        // worker order — only after every block ran without error. (A failed
        // launch thus applies none of its atomics, where the direct path
        // would have applied those preceding the fault; no API promises
        // buffer contents of a failed launch.)
        if let Some(plan) = &ctx.atomics {
            crate::atomics::apply_deferred(plan, deferred, mem, args);
        }
        // Workers interleave over SMs; restore the serial block order.
        spans.sort_by_key(|s| s.block);

        let interpreted_blocks = raw_stats.blocks;
        let interpreted_instrs = raw_stats.scalar_issue + raw_stats.vec_issue;
        let stats = if sampled {
            raw_stats.scaled(scale)
        } else {
            raw_stats
        };
        let time = estimate_time(spec, &stats, threads_per_block, prog.shared_bytes());
        let wall_s = host_t0.elapsed().as_secs_f64();
        let host = HostPerf {
            wall_s,
            blocks_per_sec: interpreted_blocks as f64 / wall_s.max(1e-12),
            instrs_per_sec: interpreted_instrs as f64 / wall_s.max(1e-12),
            workers,
        };
        let profile = match (raw_profile, &ctx.numbering) {
            (Some(p), Some(n)) => Some(KernelProfile::new(prog.name.clone(), n, p.into_vec())),
            _ => None,
        };
        let (lowering_cache, compile_cache) = crate::lower::cache_counters();
        Ok(SimReport {
            stats,
            time,
            sampled,
            host,
            profile,
            spans,
            lowering_cache,
            compile_cache,
            fallback,
            resilience: None,
        })
    }
}

pub(crate) trait MapI64 {
    fn map_i64(self) -> [i64; 3];
}

impl MapI64 for Vecn<3> {
    fn map_i64(self) -> [i64; 3] {
        [self.0[0] as i64, self.0[1] as i64, self.0[2] as i64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_threads_env_unset_uses_configured() {
        assert_eq!(resolve_sim_threads_inner(None, 4), (4, false));
        assert_eq!(resolve_sim_threads_inner(None, 0), (1, false));
    }

    #[test]
    fn sim_threads_valid_env_wins() {
        assert_eq!(resolve_sim_threads_inner(Some("6"), 2), (6, false));
        assert_eq!(resolve_sim_threads_inner(Some(" 3 "), 2), (3, false));
    }

    #[test]
    fn sim_threads_invalid_env_warns_and_falls_back() {
        assert_eq!(
            resolve_sim_threads_inner(Some("not-a-number"), 4),
            (4, true)
        );
        assert_eq!(resolve_sim_threads_inner(Some("0"), 4), (4, true));
        assert_eq!(resolve_sim_threads_inner(Some(""), 0), (1, true));
        assert_eq!(resolve_sim_threads_inner(Some("-2"), 3), (3, true));
    }

    fn assert_strictly_increasing(idx: &[usize]) {
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "{idx:?}");
    }

    /// A `for.vec` of 2^32 trips (reachable under the default fuel) must
    /// not wrap the iteration count back into the probe window.
    #[test]
    fn region_iteration_count_saturates() {
        let mut r = RegionAcc::default();
        r.advance(1);
        assert!(r.probing());
        r.advance(u32::MAX as u64 - 1);
        assert_eq!(r.iter, u32::MAX);
        for n in [1, 2, u32::MAX as u64 + 7, u64::MAX] {
            r.advance(n);
            assert_eq!(r.iter, u32::MAX);
            assert!(!r.probing() && r.vectorized());
        }
        let mut batched = RegionAcc::default();
        batched.advance(1 << 32);
        assert!(batched.vectorized(), "2^32 trips in one step");
    }

    #[test]
    fn sample_more_than_total_visits_each_block_once() {
        let idx = sample_indices(7, 100);
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn sample_one_picks_a_middle_block() {
        let idx = sample_indices(100, 1);
        assert_eq!(idx, vec![50]);
        assert_eq!(sample_indices(1, 1), vec![0]);
    }

    #[test]
    fn samples_are_strictly_increasing_and_in_range() {
        for total in [1usize, 2, 3, 10, 97, 1024] {
            for k in [1usize, 2, 3, 7, 64, 2000] {
                let idx = sample_indices(total, k);
                assert!(!idx.is_empty());
                assert!(idx.len() <= k.min(total));
                assert_strictly_increasing(&idx);
                assert!(idx.iter().all(|&i| i < total), "{total} {k} {idx:?}");
            }
        }
    }

    #[test]
    fn empty_grid_samples_nothing() {
        assert!(sample_indices(0, 5).is_empty());
    }

    /// The access models before they became allocation-free, kept as the
    /// oracle for `access_models_match_their_reference`.
    fn mem_access_ref(m: &mut Machine<'_>, addrs: &[(usize, u64)]) {
        let line = m.spec.line_bytes as u64;
        if let Some(r) = &mut m.region {
            if r.probing() {
                let log = if r.iter == 0 {
                    &mut r.addrs0
                } else {
                    &mut r.addrs1
                };
                log.extend(addrs.iter().map(|&(_, a)| a));
                if log.len() > 4096 {
                    r.probe_failed = true;
                }
            }
        }
        let mut i = 0;
        while i < addrs.len() {
            let warp = addrs[i].0 / m.warp_w;
            let mut lines = vec![];
            while i < addrs.len() && addrs[i].0 / m.warp_w == warp {
                let l = addrs[i].1 / line;
                if !lines.contains(&l) {
                    lines.push(l);
                }
                i += 1;
            }
            lines.into_iter().for_each(|l| m.line_access(l));
        }
    }

    fn shared_access_ref(m: &mut Machine<'_>, elem_idx: &[(usize, i64)]) {
        m.stats.shared_accesses += elem_idx.len() as u64;
        let mut i = 0;
        while i < elem_idx.len() {
            let warp = elem_idx[i].0 / m.warp_w;
            let mut banks = vec![Vec::new(); 32];
            while i < elem_idx.len() && elem_idx[i].0 / m.warp_w == warp {
                let idx = elem_idx[i].1;
                let bank = idx.rem_euclid(32) as usize;
                if !banks[bank].contains(&idx) {
                    banks[bank].push(idx);
                }
                i += 1;
            }
            let degree = banks.iter().map(Vec::len).max().unwrap_or(0);
            if degree > 1 {
                m.stats.bank_conflict_cycles += (degree - 1) as u64;
            }
        }
    }

    /// 10^4 seeded random warps — consecutive, strided, backwards,
    /// broadcast and scattered, under ragged masks, with the vectorization
    /// probe open — through the reference and the current access models:
    /// every counter (transactions, hits, misses, DRAM bytes, conflict
    /// cycles) and the probe log must agree after every access, which also
    /// pins the order the cache saw the lines in.
    #[test]
    fn access_models_match_their_reference() {
        let prog = Program {
            name: "t".into(),
            dims: 1,
            body: Block(vec![]),
            n_vals: 0,
            vars: vec![],
            shared: vec![],
            locals: vec![],
            n_bufs_f: 0,
            n_bufs_i: 0,
            n_params_f: 0,
            n_params_i: 0,
        };
        let args = SimArgs {
            bufs_f: vec![],
            bufs_i: vec![],
            params_f: vec![],
            params_i: vec![],
        };
        let mut state = 0x5eed_u64;
        let mut rnd = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        // Warp width {32, 1} x line size {128, 64}.
        let (k20, e5) = (DeviceSpec::k20(), DeviceSpec::e5_2630v3());
        let other_line = |s: &DeviceSpec| DeviceSpec {
            line_bytes: 192 - s.line_bytes,
            ..s.clone()
        };
        for spec in [other_line(&k20), other_line(&e5), k20, e5] {
            let warp_w = spec.warp_width;
            let ctx = LaunchCtx {
                spec: &spec,
                prog: &prog,
                args: &args,
                grid: [1; 3],
                block: [1, 1, 96],
                elems: [1; 3],
                warp_w,
                n_warps: 96usize.div_ceil(warp_w),
                lanes: 96,
                grid_ext: Vecn([1, 1, 1]),
                thread_ext: Vecn([1, 1, 96]),
                tier: Tier::Reference,
                fuel: 0,
                watchdog: false,
                ecc: None,
                numbering: None,
                atomics: None,
            };
            let (mut mem_a, mut mem_b) = (DeviceMem::new(), DeviceMem::new());
            let mut old = make_machine(&ctx, MemAccess::Excl(&mut mem_a), 1, 0);
            let mut new = make_machine(&ctx, MemAccess::Excl(&mut mem_b), 1, 0);
            old.enter_block(0, 0);
            new.enter_block(0, 0);
            for round in 0..5_000 {
                if round % 40 == 0 {
                    let iter = rnd(3) as u32;
                    for m in [&mut old, &mut new] {
                        m.region = Some(RegionAcc {
                            iter,
                            ..Default::default()
                        });
                    }
                }
                let base = rnd(1 << 16) as i64;
                let (shape, stride) = (rnd(6), 1 + rnd(40) as i64);
                let keep = rnd(4);
                let mut elems = vec![];
                for l in 0..96usize {
                    let on = match keep {
                        0 => true,
                        1 => l < 70,
                        2 => l % 2 == 0,
                        _ => rnd(3) > 0,
                    };
                    let k = l as i64;
                    let idx = match shape {
                        0 => base + k,
                        1 => base + k * stride,
                        2 => base + 4096 - k * stride,
                        3 => base,
                        4 => base + (k % 16) * 17 + k / 16,
                        _ => base + rnd(512) as i64,
                    };
                    if on {
                        elems.push((l, idx));
                    }
                }
                let addrs: Vec<(usize, u64)> =
                    elems.iter().map(|&(l, i)| (l, i as u64 * 8)).collect();
                mem_access_ref(&mut old, &addrs);
                new.mem_access(&addrs);
                shared_access_ref(&mut old, &elems);
                new.shared_access(&elems);
                assert_eq!(old.stats, new.stats, "round {round} shape {shape}");
                let (ro, rn) = (old.region.as_ref().unwrap(), new.region.as_ref().unwrap());
                assert_eq!(
                    (&ro.addrs0, &ro.addrs1, ro.probe_failed),
                    (&rn.addrs0, &rn.addrs1, rn.probe_failed)
                );
            }
            // The streams exercised what they were meant to.
            assert!(new.stats.cache_hits > 0 && new.stats.cache_misses > 0);
            assert!(warp_w == 1 || new.stats.bank_conflict_cycles > 0);

            // 2500 run lists as `lanes::find_runs` hands them over — one to
            // three back-to-back runs from any first lane — through the
            // closed forms and, lane by lane, through the references.
            const STRIDES: [i64; 12] = [0, 1, -1, 2, -2, 16, -16, 32, -32, 33, 1 << 20, -(1 << 20)];
            (old.region, new.region) = (None, None);
            let (mut closed, mut scratch) = (0, vec![]);
            for round in 0..2_500 {
                let (mut lane, mut runs, mut elems) = (rnd(96) as usize, vec![], vec![]);
                let max_runs = [1, 1, 2, 3][rnd(4) as usize];
                while lane < 96 && runs.len() < max_runs {
                    let n = 1 + rnd((96 - lane) as u64) as usize;
                    // Half the runs behind another keep its stride.
                    let stride = match runs.last() {
                        Some(Run { stride, .. }) if rnd(2) == 0 => *stride,
                        _ => STRIDES[rnd(12) as usize],
                    };
                    // A quarter of them start where it started.
                    let first = match runs.last() {
                        Some(Run { first, .. }) if rnd(4) == 0 => *first,
                        _ => (1 << 30) + rnd(4096) as usize,
                    };
                    runs.push(Run {
                        lane0: lane,
                        n,
                        first,
                        stride,
                    });
                    elems.extend((0..n).map(|j| (lane + j, first as i64 + j as i64 * stride)));
                    lane += n;
                }
                let base = 8 * rnd(1 << 16);
                let addrs: Vec<(usize, u64)> = elems
                    .iter()
                    .map(|&(l, i)| (l, base + i as u64 * 8))
                    .collect();
                mem_access_ref(&mut old, &addrs);
                new.mem_access_runs(&runs, base);
                shared_access_ref(&mut old, &elems);
                closed += new.conflict_cycles(&runs).is_some() as u32;
                new.shared_access_runs(&runs, &mut scratch);
                assert_eq!(old.stats, new.stats, "round {round}: {runs:?}");
            }
            assert!(closed > 500 && (warp_w == 1 || closed < 2_000), "{closed}");
        }
    }
}
