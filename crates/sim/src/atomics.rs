//! Deferred execution of global atomics: per-worker privatization with an
//! ordered reduction at launch end.
//!
//! The parallel block path cannot let workers apply atomic read-modify-
//! writes directly — float atomics round differently per application
//! order, and the shared memory view's cells are only individually atomic,
//! not RMW-atomic. Instead, when `alpaka_kir::atomics_summary` proves a
//! program *reducible* (every global atomic is a commutative reduction
//! whose result and target buffer are otherwise unobserved), each worker
//! accumulates its atomic effects privately and the launch driver applies
//! them after all blocks ran:
//!
//! * **Integer targets hit by a single operator** use a per-worker value
//!   shadow the size of the real buffer, folded in place
//!   (`shadow[i] = op(shadow[i], v)`) and merged with one
//!   `real[i] = op(real[i], shadow[i])` per worker in worker order. The
//!   shadow starts at the operator's exact identity (`Add` 0, `Min`
//!   `i64::MAX`, `Max` `i64::MIN`, `And` `!0`, `Or`/`Xor` 0), and every
//!   supported integer operator is associative and commutative under
//!   wrapping semantics, so the merged result equals serial application in
//!   any order — no touched-index bookkeeping needed.
//!
//! * **Float targets and mixed-operator integer targets** append
//!   `(block, target, op, index, value)` entries to a per-worker log in
//!   execution order. The driver concatenates the worker logs, stable-
//!   sorts by linear block index and replays the entries one by one.
//!   Each block is owned by exactly one worker and each worker visits its
//!   blocks in increasing linear order, so the replayed sequence is
//!   *exactly* the serial interpreter's application order — float rounding
//!   included.
//!
//! Both shapes therefore produce buffers bit-identical to the serial path
//! for every `ALPAKA_SIM_THREADS` value, which is the determinism contract
//! the rest of the simulator already keeps. Deferral is active whenever a
//! plan exists — including serial and shared-cache launches — so every
//! engine runs one code path and results never depend on the team size.

use std::sync::Arc;

use alpaka_kir::ir::AtomicOp;
use alpaka_kir::semantics as sem;
use alpaka_kir::{AtomicsSummary, Program};

use crate::interp::SimArgs;
use crate::memory::DeviceMem;

/// Why a launch did not use the parallel block path, recorded on
/// `SimReport` so flat thread-scaling is diagnosable instead of silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackReason {
    /// No fallback: the launch ran the parallelism it was eligible for.
    #[default]
    None,
    /// The device models a single shared cache (`CacheScope::Shared`),
    /// whose hit/miss stream is only deterministic serially.
    SharedCacheScope,
    /// The program's global atomics are not commutative-reducible (or the
    /// launch bindings alias a target buffer), so blocks ran serially.
    AtomicsNonReducible,
}

/// How one target buffer's deferred atomics are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// Integer value shadow folded with this operator.
    ShadowI(AtomicOp),
    /// Ordered replay log (floats and mixed-operator integer targets).
    Log,
}

/// One atomic-target buffer of a launch-ready plan.
#[derive(Debug, Clone)]
pub(crate) struct PlanTarget {
    pub(crate) is_f: bool,
    /// Kernel-argument slot.
    pub(crate) slot: u32,
    pub(crate) strategy: Strategy,
    /// Real buffer length, for sizing integer shadows.
    pub(crate) len: usize,
}

/// Launch-scoped deferral plan: the reducible targets plus slot→target
/// lookup tables for the execution hot path.
#[derive(Debug)]
pub(crate) struct AtomicsPlan {
    pub(crate) targets: Vec<PlanTarget>,
    /// `f_map[slot]` / `i_map[slot]` — target index for that buffer slot.
    pub(crate) f_map: Vec<Option<u32>>,
    pub(crate) i_map: Vec<Option<u32>>,
}

/// The exact identity element of an integer atomic operator: folding it
/// any number of times is a no-op.
fn identity_i(op: AtomicOp) -> i64 {
    match op {
        AtomicOp::Add | AtomicOp::Or | AtomicOp::Xor => 0,
        AtomicOp::Min => i64::MAX,
        AtomicOp::Max => i64::MIN,
        AtomicOp::And => !0,
        // Exch never reaches a plan (non-reducible).
        AtomicOp::Exch => 0,
    }
}

/// Build the launch-time deferral plan for `prog` (whose
/// `alpaka_kir::atomics_summary` is `summary`, computed once per prepared
/// program) under the bindings `args`, or `None` when the launch must keep
/// direct (serial-order) atomics: the program is statically non-reducible,
/// a target slot is unbound, or two bound slots alias the same buffer (the
/// per-slot analysis can't see through that).
pub(crate) fn plan_for(
    summary: &AtomicsSummary,
    mem: &DeviceMem,
    args: &SimArgs,
    prog: &Program,
) -> Option<Arc<AtomicsPlan>> {
    let AtomicsSummary::Reducible(stargets) = summary else {
        return None;
    };
    // Any aliasing among the slots the program can address would let a
    // plain load/store observe a deferred target through another handle.
    let nf = (prog.n_bufs_f as usize).min(args.bufs_f.len());
    let ni = (prog.n_bufs_i as usize).min(args.bufs_i.len());
    for a in 0..nf {
        for b in (a + 1)..nf {
            if args.bufs_f[a] == args.bufs_f[b] {
                return None;
            }
        }
    }
    for a in 0..ni {
        for b in (a + 1)..ni {
            if args.bufs_i[a] == args.bufs_i[b] {
                return None;
            }
        }
    }
    let mut targets = Vec::with_capacity(stargets.len());
    let mut f_map = vec![None; prog.n_bufs_f as usize];
    let mut i_map = vec![None; prog.n_bufs_i as usize];
    for t in stargets {
        let (len, map) = if t.is_f {
            let h = *args.bufs_f.get(t.slot as usize)?;
            (mem.try_f(h).ok()?.len(), &mut f_map)
        } else {
            let h = *args.bufs_i.get(t.slot as usize)?;
            (mem.try_i(h).ok()?.len(), &mut i_map)
        };
        let strategy = match (t.is_f, t.single_op) {
            (false, Some(op)) => Strategy::ShadowI(op),
            _ => Strategy::Log,
        };
        map[t.slot as usize] = Some(targets.len() as u32);
        targets.push(PlanTarget {
            is_f: t.is_f,
            slot: t.slot,
            strategy,
            len,
        });
    }
    Some(Arc::new(AtomicsPlan {
        targets,
        f_map,
        i_map,
    }))
}

/// One deferred atomic for the ordered replay log.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogEntry {
    /// Linear block index the atomic executed in — the replay sort key.
    pub(crate) block: u64,
    /// Index into `AtomicsPlan::targets`.
    pub(crate) target: u32,
    pub(crate) op: AtomicOp,
    /// Element index into the target buffer (bounds-checked at execution).
    pub(crate) idx: u64,
    /// Payload: `f64::to_bits` for float targets, the i64 value reinterpreted
    /// for integer targets.
    pub(crate) bits: u64,
}

/// One worker's private accumulation state. Moved out whole as part of
/// `WorkerOut` when the worker finishes.
#[derive(Debug)]
pub(crate) struct AtomicsPriv {
    pub(crate) plan: Arc<AtomicsPlan>,
    /// Per-target value shadows (empty for `Log` targets).
    pub(crate) shadows: Vec<Vec<i64>>,
    pub(crate) log: Vec<LogEntry>,
}

impl AtomicsPriv {
    pub(crate) fn new(plan: Arc<AtomicsPlan>) -> Self {
        let shadows = plan
            .targets
            .iter()
            .map(|t| match t.strategy {
                Strategy::ShadowI(op) => vec![identity_i(op); t.len],
                Strategy::Log => Vec::new(),
            })
            .collect();
        AtomicsPriv {
            plan,
            shadows,
            log: Vec::new(),
        }
    }

    /// Target index for an f64 buffer slot, if that slot is deferred.
    #[inline]
    pub(crate) fn target_f(&self, slot: u32) -> Option<u32> {
        self.plan.f_map.get(slot as usize).copied().flatten()
    }

    #[inline]
    pub(crate) fn target_i(&self, slot: u32) -> Option<u32> {
        self.plan.i_map.get(slot as usize).copied().flatten()
    }

    /// Defer one f64 atomic (float targets always use the log).
    #[inline]
    pub(crate) fn defer_f(&mut self, t: u32, op: AtomicOp, block: u64, idx: usize, v: f64) {
        self.log.push(LogEntry {
            block,
            target: t,
            op,
            idx: idx as u64,
            bits: v.to_bits(),
        });
    }

    /// Defer one i64 atomic: fold into the shadow, or log when the target
    /// mixes operators.
    #[inline]
    pub(crate) fn defer_i(&mut self, t: u32, op: AtomicOp, block: u64, idx: usize, v: i64) {
        match self.plan.targets[t as usize].strategy {
            Strategy::ShadowI(sop) => {
                debug_assert_eq!(sop, op);
                let cell = &mut self.shadows[t as usize][idx];
                *cell = sem::atomic_i(sop, *cell, v);
            }
            Strategy::Log => self.log.push(LogEntry {
                block,
                target: t,
                op,
                idx: idx as u64,
                bits: v as u64,
            }),
        }
    }
}

/// Reduce every worker's deferred atomics into the real buffers.
///
/// `outs` must be in worker-index order. Shadows merge per worker in that
/// order (exact for the commutative integer operators); log entries are
/// concatenated, stable-sorted by linear block index and replayed — which
/// reconstructs the serial interpreter's exact application order, because
/// each block belongs to one worker and workers log their blocks in
/// increasing order.
pub(crate) fn apply_deferred(
    plan: &AtomicsPlan,
    outs: Vec<AtomicsPriv>,
    mem: &mut DeviceMem,
    args: &SimArgs,
) {
    let mut log: Vec<LogEntry> = Vec::new();
    for out in outs {
        for (ti, t) in plan.targets.iter().enumerate() {
            let Strategy::ShadowI(op) = t.strategy else {
                continue;
            };
            let h = args.bufs_i[t.slot as usize];
            let real = mem.i_mut(h);
            for (cell, &s) in real.iter_mut().zip(&out.shadows[ti]) {
                *cell = sem::atomic_i(op, *cell, s);
            }
        }
        log.extend(out.log);
    }
    log.sort_by_key(|e| e.block);
    for e in &log {
        let t = &plan.targets[e.target as usize];
        // Bounds were checked against the real buffer length when the
        // entry was logged.
        if t.is_f {
            let h = args.bufs_f[t.slot as usize];
            let cell = &mut mem.f_mut(h)[e.idx as usize];
            *cell = sem::atomic_f(e.op, *cell, f64::from_bits(e.bits));
        } else {
            let h = args.bufs_i[t.slot as usize];
            let cell = &mut mem.i_mut(h)[e.idx as usize];
            *cell = sem::atomic_i(e.op, *cell, e.bits as i64);
        }
    }
}
