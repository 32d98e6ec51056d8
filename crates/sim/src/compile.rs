//! The compiled execution tier: direct-threaded warp programs with fused
//! uniform loops.
//!
//! [`compile`] re-threads a validated [`WarpProgram`] (from `crate::lower`)
//! into a small tree of [`CNode`]s — structured control flow with all
//! operand slots pre-resolved — whose hot leaves are [`FusedLoop`]s:
//! uniform-counter `for` loops whose straight-line bodies are compiled to a
//! compact step list executed without the per-op decode-and-account loop of
//! the lowered interpreter. A fused loop
//!
//! * charges fuel, instruction issue, flops and special-function counts as
//!   one *batched* update per loop execution (`trips × per-iteration`
//!   constants folded at compile time) instead of per op per iteration,
//! * drops dead register writes — values the body defines but never reads
//!   again are unobservable after the loop, because IR validation enforces
//!   lexical scoping — while keeping their issue/flop charges,
//! * fuses single-use index arithmetic into the loads that consume it and
//!   load/fma/store round trips through an accumulator variable into single
//!   [`SStep`] superops,
//! * resolves every global-memory access site once per worker per launch to
//!   its cells, length and base address ([`Site`]), so the turbo loop
//!   performs bounds checks, injected-ECC decisions and cache line
//!   accounting with the *same* order and arithmetic as
//!   [`Machine::mem_access_one`], but without per-access handle lookups or
//!   memory-view dispatch, and
//! * treats an else-less `If` over a fusible straight line as a *guard* — a
//!   forward skip in the step list — so the tail-guarded element loop
//!   `for_elements { if i < n { .. } }` fuses too: such a loop charges
//!   `trips × unguarded + taken × guarded` (see [`exec_fused`]).
//!
//! Global atomics execute as step-list superops too: the launch driver's
//! deferral plan (see `crate::atomics`) decides at run time whether an
//! atomic accumulates into the worker's private shadow/log or applies in
//! place — the in-place path only ever runs serially, because the parallel
//! gate requires a plan whenever a program contains atomics. Either way the
//! buffers, stats and error surfaces match the lowered engine bit for bit.
//!
//! The step list runs only at **one lane per block under a full mask** with
//! fuel for every iteration (all guards taken) and every buffer slot bound.
//! Everything else — multi-lane blocks, barriers, shared memory, `while`
//! loops, branches with an else side or nested control flow,
//! near-exhausted fuel — runs the lowered interpreter's own
//! `exec_ops`/`exec_for_lowered` on the *same* state (whose data ops are
//! the lane kernels of `crate::lanes`), so buffers, [`LaunchStats`],
//! `TimeBreakdown`, traces and structured fault errors are bit-identical
//! across all three engines (the determinism suite pins this four ways:
//! engines × worker counts). While a vectorization region is probing (its
//! first two iterations log addresses), the turbo loop mirrors the probe
//! log inline, access for access.
//!
//! When a launch is traced or profiled, the compiled engine is not used at
//! all — `run_kernel_launch_faulty` keeps `LaunchCtx::compiled` empty and
//! the launch executes on the lowered engine, making trace/profile streams
//! identical across engines by construction (the same way the lowered
//! engine replays per-instruction accounting only when profiling).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use alpaka_core::acc::DeviceKind;
use alpaka_kir::ir::{AtomicOp, FBin, IBin, Program};
use alpaka_kir::semantics as sem;

use crate::cache::CacheSim;
use crate::fault::SimError;
use crate::interp::{Caches, LaunchCtx, Machine, MemAccess, RegionAcc, WorkerOut, R};
use crate::lanes::{self, rd1, rd1f, rd1i, rmw_f, rmw_i, wr1, Site};
use crate::lower::{
    exec_for_lowered, exec_ops, fill_branch_mask, first_active, idx, is_u, run_warp_blocks,
    CacheCounters, LOp, LowState, MaskBuf, WarpProgram,
};
use crate::spec::DeviceSpec;
use crate::stats::LaunchStats;

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// A warp program re-threaded for direct execution: structured control flow
/// over the lowered op array, with fusible uniform loops pre-compiled.
pub(crate) struct CompiledProgram {
    /// The lowered program this was compiled from; fallback ranges and the
    /// shared per-worker block loop execute against it.
    pub(crate) wp: Arc<WarpProgram>,
    root: Vec<CNode>,
    /// Number of fused loops; sizes the per-worker prepared-site table.
    n_fused: usize,
}

impl CompiledProgram {
    /// True when compilation found at least one fusible loop. A program
    /// that fused nothing would run the flat op list through one extra
    /// dispatch layer — strictly slower than the lowered interpreter — so
    /// the launch driver dispatches such launches to the lowered tier.
    pub(crate) fn has_fused(&self) -> bool {
        self.n_fused > 0
    }
}

/// One node of the compiled control tree.
enum CNode {
    /// A contiguous run of lowered ops with nothing to fuse inside;
    /// executed by the lowered interpreter verbatim.
    Range { lo: usize, hi: usize },
    /// A structured branch that contains fused work on at least one side.
    If {
        cond: u32,
        then: Vec<CNode>,
        els: Vec<CNode>,
    },
    /// A uniform-counter loop whose body contains fused work but is not
    /// itself a single straight line.
    For {
        counter: u32,
        start: u32,
        end: u32,
        vectorize: bool,
        body: Vec<CNode>,
    },
    /// A contiguous straight-line run of fusible ops: executed as a step
    /// list with batched accounting when the block is single-lane and
    /// fully active, by the lowered interpreter otherwise.
    Steps(StepsRun),
    /// The hot leaf: a uniform-counter loop over a straight-line body.
    Fused(FusedLoop),
}

/// A fusible straight line outside any fused loop — the glue between hot
/// loops (index computation, guards, epilogue stores). Charges are the
/// summed `Account` constants; fuel errors and profiled launches fall back
/// to `exec_ops` so they surface per-op exactly.
struct StepsRun {
    /// Op range in `wp.ops`, for the fallback path.
    lo: usize,
    hi: usize,
    /// The run's ops with `Account`s stripped.
    steps: Vec<LOp>,
    charge: Charge,
}

/// What a straight line charges per execution — the summed constants of
/// its `Account` ops: `n` instructions of fuel and issue, plus flops and
/// special-function counts per active lane.
#[derive(Clone, Copy, Default)]
struct Charge {
    n: u64,
    flops: u64,
    special: u64,
}

impl Charge {
    fn of(ops: &[LOp]) -> Charge {
        let mut c = Charge::default();
        for op in ops {
            if let LOp::Account {
                n, flops, special, ..
            } = *op
            {
                c.add(Charge { n, flops, special }, 1);
            }
        }
        c
    }

    fn add(&mut self, c: Charge, times: u64) {
        self.n += times * c.n;
        self.flops += times * c.flops;
        self.special += times * c.special;
    }

    /// Book the charge (fuel excepted) under `mask`: same totals, same
    /// region/scalar routing as the `Account` ops it was summed from.
    fn book(&self, m: &mut Machine<'_>, mask: &MaskBuf) {
        m.add_issue(self.n * mask.warp_issues);
        if self.flops > 0 {
            m.add_flops(self.flops * mask.active);
        }
        if self.special > 0 {
            m.add_special(self.special * mask.active);
        }
    }
}

/// A uniform-counter loop compiled to a step list with batched accounting.
struct FusedLoop {
    counter: u32,
    start: u32,
    end: u32,
    vectorize: bool,
    /// Body op range in `wp.ops`, for the exact-parity fallback path.
    b0: usize,
    bend: usize,
    /// The body's live ops — `Account`s stripped (their charges are the
    /// constants below), dead pure writes eliminated — in superop form over
    /// pre-resolved memory sites, for the single-lane turbo path.
    turbo: Vec<SStep>,
    /// Global-memory buffers `turbo` touches, in first-use order.
    sites: Vec<SiteRef>,
    /// Present when the body is an inner-product step (see [`DotKernel`]).
    dot: Option<DotKernel>,
    /// Index into the per-worker prepared-site table.
    id: usize,
    /// Charged every iteration: the ops outside any guard (the loop's own
    /// per-iteration burn of one fuel unit comes on top).
    per_iter: Charge,
    /// Charged per iteration in which guard `g` is taken; indexed by
    /// [`SStep::Guard::charge`].
    guards: Vec<Charge>,
}

/// One step of a fused body in superop form. Register slots keep the
/// `U_BIT` uniform/varying encoding; `site` indexes the loop's prepared
/// global-memory sites.
#[derive(Clone, Copy)]
enum SStep {
    /// Anything without a superop shape: executed by `lanes::alu`.
    Pure(LOp),
    /// An else-less `If` over the next `skip` steps: a forward skip when
    /// `cond` is false, `guards[charge]` on top of the iteration otherwise.
    Guard {
        cond: u32,
        skip: u16,
        charge: u16,
    },
    BinF {
        op: FBin,
        d: u32,
        a: u32,
        b: u32,
    },
    BinI {
        op: IBin,
        d: u32,
        a: u32,
        b: u32,
    },
    Fma {
        d: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    /// `var[v] = fma(a, b, var[v])` — a LdVar/Fma/StVar round trip through
    /// an accumulator variable collapsed into one step.
    FmaAcc {
        v: u32,
        a: u32,
        b: u32,
    },
    LdF {
        d: u32,
        site: u16,
        i: u32,
    },
    /// `d = buf[a + b]` — the index `Add` folded into the load.
    LdFAdd {
        d: u32,
        site: u16,
        a: u32,
        b: u32,
    },
    /// `d = buf[a * b + c]` — a Mul/Add index chain folded into the load.
    LdFMulAdd {
        d: u32,
        site: u16,
        a: u32,
        b: u32,
        c: u32,
    },
    LdI {
        d: u32,
        site: u16,
        i: u32,
    },
    LdIAdd {
        d: u32,
        site: u16,
        a: u32,
        b: u32,
    },
    LdIMulAdd {
        d: u32,
        site: u16,
        a: u32,
        b: u32,
        c: u32,
    },
    StF {
        site: u16,
        i: u32,
        val: u32,
    },
    StI {
        site: u16,
        i: u32,
        val: u32,
    },
    /// `d = atomic(op, buf[i], val)` on an f64 buffer — deferred to the
    /// launch's privatization plan, or applied in place on plan-less
    /// (serial) launches. `slot` is the kernel-argument slot, kept for the
    /// plan lookup (`site` only indexes the prepared-site table).
    AtomF {
        op: AtomicOp,
        d: u32,
        site: u16,
        slot: u32,
        i: u32,
        val: u32,
    },
    /// Atomic f64 with the index `Add` folded in (`buf[a + b]`) — the
    /// fused scatter-accumulate shape for affine-index atomic updates.
    AtomFAdd {
        op: AtomicOp,
        d: u32,
        site: u16,
        slot: u32,
        a: u32,
        b: u32,
        val: u32,
    },
    AtomI {
        op: AtomicOp,
        d: u32,
        site: u16,
        slot: u32,
        i: u32,
        val: u32,
    },
    AtomIAdd {
        op: AtomicOp,
        d: u32,
        site: u16,
        slot: u32,
        a: u32,
        b: u32,
        val: u32,
    },
}

/// One term of an affine load index: the loop counter, an invariant
/// register slot, or nothing.
#[derive(Clone, Copy, PartialEq)]
enum Term {
    K,
    Slot(u32),
    Zero,
}

/// A load index affine in the loop counter: `mul.0 * mul.1 + add[0] +
/// add[1]`, each term `K` or a slot the body never writes. Wrapping i64
/// arithmetic is a ring, so the index strides by a constant per iteration
/// and incremental evaluation is exact.
#[derive(Clone, Copy)]
struct AffineIdx {
    mul: Option<(Term, Term)>,
    add: [Term; 2],
}

/// The inner-product loop shape — two f64 loads at affine indices feeding a
/// [`SStep::FmaAcc`] — specialized into a register-resident loop with
/// hoisted bounds checks and batched stat deltas. This is the body DGEMM,
/// stencils and reductions all compile to, and the hottest code in the
/// whole simulator.
struct DotKernel {
    a_site: u16,
    a_idx: AffineIdx,
    b_site: u16,
    b_idx: AffineIdx,
    /// Load destination slots, written back after the loop (the step list
    /// leaves the last iteration's values there).
    ra: u32,
    rb: u32,
    /// Accumulator variable slot.
    v: u32,
    /// Whether the FmaAcc's first factor is `ra`'s value.
    a_first: bool,
}

/// Destructure a superop load into `(dst, site, affine index)`; `None` for
/// non-loads and for indices quadratic in the counter.
fn load_shape(sp: &SStep, counter: u32) -> Option<(u32, u16, AffineIdx)> {
    let t = |s: u32| if s == counter { Term::K } else { Term::Slot(s) };
    match *sp {
        SStep::LdF { d, site, i } => Some((
            d,
            site,
            AffineIdx {
                mul: None,
                add: [t(i), Term::Zero],
            },
        )),
        SStep::LdFAdd { d, site, a, b } => Some((
            d,
            site,
            AffineIdx {
                mul: None,
                add: [t(a), t(b)],
            },
        )),
        SStep::LdFMulAdd { d, site, a, b, c } => {
            if a == counter && b == counter {
                return None;
            }
            Some((
                d,
                site,
                AffineIdx {
                    mul: Some((t(a), t(b))),
                    add: [t(c), Term::Zero],
                },
            ))
        }
        _ => None,
    }
}

/// Recognize a body that is exactly two affine f64 loads feeding an FmaAcc.
/// Index operands must be loop-invariant; the only slots the body defines
/// are the load destinations, so it suffices to exclude those.
fn detect_dot(turbo: &[SStep], counter: u32) -> Option<DotKernel> {
    let &[l0, l1, SStep::FmaAcc { v, a: fa, b: fb }] = turbo else {
        return None;
    };
    let (ra, a_site, a_idx) = load_shape(&l0, counter)?;
    let (rb, b_site, b_idx) = load_shape(&l1, counter)?;
    if ra == rb || ra == counter || rb == counter {
        return None;
    }
    let a_first = if (fa, fb) == (ra, rb) {
        true
    } else if (fa, fb) == (rb, ra) {
        false
    } else {
        return None;
    };
    for af in [&a_idx, &b_idx] {
        let terms = [
            af.mul.map_or(Term::Zero, |(x, _)| x),
            af.mul.map_or(Term::Zero, |(_, y)| y),
            af.add[0],
            af.add[1],
        ];
        if terms
            .iter()
            .any(|t| matches!(*t, Term::Slot(s) if s == ra || s == rb))
        {
            return None;
        }
    }
    Some(DotKernel {
        a_site,
        a_idx,
        b_site,
        b_idx,
        ra,
        rb,
        v,
        a_first,
    })
}

/// Evaluate an affine index's invariant operands: `index(k) = base +
/// stride * k` in wrapping i64 arithmetic.
fn affine_eval(st: &LowState, af: &AffineIdx) -> (i64, i64) {
    let val = |t: Term| match t {
        Term::Slot(s) => rd1i(st, s),
        Term::K | Term::Zero => unreachable!("term has no slot value"),
    };
    let mut base = 0i64;
    let mut stride = 0i64;
    if let Some((x, y)) = af.mul {
        if x == Term::K {
            stride = stride.wrapping_add(val(y));
        } else if y == Term::K {
            stride = stride.wrapping_add(val(x));
        } else {
            base = base.wrapping_add(val(x).wrapping_mul(val(y)));
        }
    }
    for t in af.add {
        match t {
            Term::K => stride = stride.wrapping_add(1),
            Term::Zero => {}
            Term::Slot(s) => base = base.wrapping_add(rd1i(st, s)),
        }
    }
    (base, stride)
}

/// A global-memory buffer referenced by a fused body.
#[derive(Clone, Copy)]
struct SiteRef {
    slot: u32,
    is_f: bool,
}

/// Per-worker prepared-site storage, lazily filled on first execution.
type PrepTable = [Option<Box<[Site]>>];

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Ops a fused step list can execute directly. Control flow, barriers,
/// shared memory and the per-launch-fallible `Param` reads stay on the
/// interpreter path. Global atomics are fusible: whether they defer to the
/// launch plan or apply in place is a per-launch (`Machine`) decision, so
/// the compiled form — cached per program — is valid for both modes.
fn fusible(op: &LOp) -> bool {
    op.is_compute()
        || matches!(
            op,
            LOp::Account { .. }
                | LOp::LdGF { .. }
                | LOp::LdGI { .. }
                | LOp::StGF { .. }
                | LOp::StGI { .. }
                | LOp::AtomicF { .. }
                | LOp::AtomicI { .. }
        )
}

/// Visit the register slots `op` reads.
fn for_each_src(op: &LOp, mut f: impl FnMut(u32)) {
    match *op {
        LOp::BinF { a, b, .. }
        | LOp::BinI { a, b, .. }
        | LOp::CmpF { a, b, .. }
        | LOp::CmpI { a, b, .. }
        | LOp::BinB { a, b, .. } => {
            f(a);
            f(b);
        }
        LOp::UnF { a, .. }
        | LOp::NegI { a, .. }
        | LOp::NotB { a, .. }
        | LOp::I2F { a, .. }
        | LOp::F2I { a, .. }
        | LOp::U2UnitF { a, .. } => f(a),
        LOp::Fma { a, b, c, .. } => {
            f(a);
            f(b);
            f(c);
        }
        LOp::Sel { c, t, e, .. } => {
            f(c);
            f(t);
            f(e);
        }
        LOp::StVar { val, .. } | LOp::If { cond: val, .. } => f(val),
        LOp::LdGF { i, .. } | LOp::LdGI { i, .. } | LOp::LdLF { i, .. } => f(i),
        LOp::StGF { i, val, .. }
        | LOp::StGI { i, val, .. }
        | LOp::StLF { i, val, .. }
        | LOp::AtomicF { i, val, .. }
        | LOp::AtomicI { i, val, .. } => {
            f(i);
            f(val);
        }
        _ => {}
    }
}

/// The destination slot of a *pure* op — one whose only effect is the
/// register write, so the whole op can be dropped when that write is dead.
/// Loads are excluded: their bounds checks, ECC decisions and cache
/// accesses are observable even when the loaded value is not.
fn pure_dst(op: &LOp) -> Option<u32> {
    match *op {
        LOp::BinF { d, .. }
        | LOp::UnF { d, .. }
        | LOp::Fma { d, .. }
        | LOp::BinI { d, .. }
        | LOp::NegI { d, .. }
        | LOp::CmpF { d, .. }
        | LOp::CmpI { d, .. }
        | LOp::BinB { d, .. }
        | LOp::NotB { d, .. }
        | LOp::Sel { d, .. }
        | LOp::I2F { d, .. }
        | LOp::F2I { d, .. }
        | LOp::U2UnitF { d, .. }
        | LOp::LdVar { d, .. } => Some(d),
        _ => None,
    }
}

/// The register slot `op` defines, if any (pure ops and global/local loads).
fn dst_of(op: &LOp) -> Option<u32> {
    pure_dst(op).or(match *op {
        LOp::LdGF { d, .. } | LOp::LdGI { d, .. } | LOp::LdLF { d, .. } => Some(d),
        _ => None,
    })
}

/// Recompile a fused body into superop form: single-use index arithmetic is
/// folded into the consuming load, accumulator round trips become
/// [`SStep::FmaAcc`], and each global buffer is interned into a site list
/// (first-use order, so an unbound-slot error resolves in the same order
/// the interpreter would hit it).
///
/// Folding is sound because every register slot in a lowered body has at
/// most one defining op (slots map 1:1 to SSA values) — an operand read at
/// the consumer's position sees the same value it had at the producer's.
/// A fold never crosses a guard: producer and consumer must sit in the same
/// region, or the folded step would run when its producer would not have.
///
/// `steps` holds guards as `LOp::If { cond, then_len, .. }` over the next
/// `then_len` steps; guard `g` (in order) charges `guards[g]`.
fn build_turbo(steps: &[LOp]) -> (Vec<SStep>, Vec<SiteRef>) {
    let n = steps.len();
    // Region of each step: 0 outside any guard, `g + 1` inside guard `g`.
    let mut region = vec![0usize; n];
    let mut n_guards = 0;
    for (i, op) in steps.iter().enumerate() {
        if let LOp::If { then_len, .. } = *op {
            n_guards += 1;
            region[i + 1..=i + then_len as usize].fill(n_guards);
        }
    }
    let mut def: HashMap<u32, usize> = HashMap::new();
    let mut readers: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, op) in steps.iter().enumerate() {
        for_each_src(op, |s| readers.entry(s).or_default().push(i));
        if let Some(d) = dst_of(op) {
            def.insert(d, i);
        }
    }
    let only_reader = |s: u32, i: usize| readers.get(&s).is_some_and(|r| r.len() == 1 && r[0] == i);

    enum Idx {
        Add(u32, u32),
        MulAdd(u32, u32, u32),
    }
    let mut removed = vec![false; n];
    let mut fused_idx: HashMap<usize, Idx> = HashMap::new();
    let mut fma_acc: HashMap<usize, (u32, u32, u32)> = HashMap::new();
    for (i, op) in steps.iter().enumerate() {
        match *op {
            LOp::LdGF { i: ix, .. } | LOp::LdGI { i: ix, .. } => {
                let Some(&di) = def.get(&ix) else { continue };
                if di >= i || region[di] != region[i] || !only_reader(ix, i) {
                    continue;
                }
                let LOp::BinI {
                    op: IBin::Add,
                    a,
                    b,
                    ..
                } = steps[di]
                else {
                    continue;
                };
                // Expand one single-use multiply on either side of the add
                // (wrapping adds commute, so `a + x*y` and `x*y + a` agree).
                let mut fused = Idx::Add(a, b);
                let mut also = None;
                for (side, other) in [(a, b), (b, a)] {
                    if let Some(&dm) = def.get(&side) {
                        if dm < di && region[dm] == region[di] && only_reader(side, di) {
                            if let LOp::BinI {
                                op: IBin::Mul,
                                a: x,
                                b: y,
                                ..
                            } = steps[dm]
                            {
                                fused = Idx::MulAdd(x, y, other);
                                also = Some(dm);
                                break;
                            }
                        }
                    }
                }
                removed[di] = true;
                if let Some(dm) = also {
                    removed[dm] = true;
                }
                fused_idx.insert(i, fused);
            }
            LOp::AtomicF { i: ix, .. } | LOp::AtomicI { i: ix, .. } => {
                // Fold a single-use `Add` into the atomic's index — the
                // scatter-accumulate shape. No Mul expansion here: affine
                // scatters are add-indexed, and atomics keep two superop
                // forms instead of three.
                let Some(&di) = def.get(&ix) else { continue };
                if di >= i || region[di] != region[i] || !only_reader(ix, i) {
                    continue;
                }
                let LOp::BinI {
                    op: IBin::Add,
                    a,
                    b,
                    ..
                } = steps[di]
                else {
                    continue;
                };
                removed[di] = true;
                fused_idx.insert(i, Idx::Add(a, b));
            }
            LOp::StVar { v, val } => {
                let Some(&df) = def.get(&val) else { continue };
                if df >= i || !only_reader(val, i) {
                    continue;
                }
                let LOp::Fma { a, b, c, .. } = steps[df] else {
                    continue;
                };
                let Some(&dl) = def.get(&c) else { continue };
                let one_region = region[dl] == region[i] && region[df] == region[i];
                if dl >= df || !one_region || !only_reader(c, df) {
                    continue;
                }
                let LOp::LdVar { v: v2, .. } = steps[dl] else {
                    continue;
                };
                if v2 != v {
                    continue;
                }
                // The variable must not be stored between the load and this
                // store, or moving the load to the store's position would
                // observe the wrong value.
                if steps[dl + 1..i]
                    .iter()
                    .any(|s| matches!(s, LOp::StVar { v: sv, .. } if *sv == v))
                {
                    continue;
                }
                removed[df] = true;
                removed[dl] = true;
                fma_acc.insert(i, (v, a, b));
            }
            _ => {}
        }
    }

    let mut sites: Vec<SiteRef> = Vec::new();
    let intern = |sites: &mut Vec<SiteRef>, slot: u32, is_f: bool| -> u16 {
        match sites.iter().position(|s| s.slot == slot && s.is_f == is_f) {
            Some(p) => p as u16,
            None => {
                sites.push(SiteRef { slot, is_f });
                (sites.len() - 1) as u16
            }
        }
    };
    let mut out = Vec::new();
    // `steps` index each emitted step came from, to size the guards' skips.
    let mut from = Vec::new();
    let mut charge = 0u16;
    for (i, op) in steps.iter().enumerate() {
        if removed[i] {
            continue;
        }
        from.push(i);
        let step = match *op {
            LOp::If { cond, .. } => {
                charge += 1;
                SStep::Guard {
                    cond,
                    skip: 0,
                    charge: charge - 1,
                }
            }
            LOp::LdGF { d, buf, i: ix } => {
                let site = intern(&mut sites, buf, true);
                match fused_idx.remove(&i) {
                    Some(Idx::MulAdd(a, b, c)) => SStep::LdFMulAdd { d, site, a, b, c },
                    Some(Idx::Add(a, b)) => SStep::LdFAdd { d, site, a, b },
                    None => SStep::LdF { d, site, i: ix },
                }
            }
            LOp::LdGI { d, buf, i: ix } => {
                let site = intern(&mut sites, buf, false);
                match fused_idx.remove(&i) {
                    Some(Idx::MulAdd(a, b, c)) => SStep::LdIMulAdd { d, site, a, b, c },
                    Some(Idx::Add(a, b)) => SStep::LdIAdd { d, site, a, b },
                    None => SStep::LdI { d, site, i: ix },
                }
            }
            LOp::StGF { buf, i: ix, val } => SStep::StF {
                site: intern(&mut sites, buf, true),
                i: ix,
                val,
            },
            LOp::StGI { buf, i: ix, val } => SStep::StI {
                site: intern(&mut sites, buf, false),
                i: ix,
                val,
            },
            LOp::AtomicF {
                op,
                d,
                buf,
                i: ix,
                val,
            } => {
                let site = intern(&mut sites, buf, true);
                match fused_idx.remove(&i) {
                    Some(Idx::Add(a, b)) => SStep::AtomFAdd {
                        op,
                        d,
                        site,
                        slot: buf,
                        a,
                        b,
                        val,
                    },
                    Some(Idx::MulAdd(..)) => unreachable!("atomic indices fold Add only"),
                    None => SStep::AtomF {
                        op,
                        d,
                        site,
                        slot: buf,
                        i: ix,
                        val,
                    },
                }
            }
            LOp::AtomicI {
                op,
                d,
                buf,
                i: ix,
                val,
            } => {
                let site = intern(&mut sites, buf, false);
                match fused_idx.remove(&i) {
                    Some(Idx::Add(a, b)) => SStep::AtomIAdd {
                        op,
                        d,
                        site,
                        slot: buf,
                        a,
                        b,
                        val,
                    },
                    Some(Idx::MulAdd(..)) => unreachable!("atomic indices fold Add only"),
                    None => SStep::AtomI {
                        op,
                        d,
                        site,
                        slot: buf,
                        i: ix,
                        val,
                    },
                }
            }
            LOp::StVar { .. } if fma_acc.contains_key(&i) => {
                let (v, a, b) = fma_acc[&i];
                SStep::FmaAcc { v, a, b }
            }
            LOp::Fma { d, a, b, c } => SStep::Fma { d, a, b, c },
            LOp::BinF { op, d, a, b } => SStep::BinF { op, d, a, b },
            LOp::BinI { op, d, a, b } => SStep::BinI { op, d, a, b },
            other => SStep::Pure(other),
        };
        out.push(step);
    }
    for (g, step) in out.iter_mut().enumerate() {
        if let (SStep::Guard { skip, .. }, LOp::If { then_len, .. }) = (step, steps[from[g]]) {
            let last = from[g] + then_len as usize;
            *skip = from[g + 1..].iter().take_while(|&&i| i <= last).count() as u16;
        }
    }
    (out, sites)
}

/// Compile a uniform-counter `For` whose body is a straight line of fusible
/// ops, optionally with *guards* — else-less `If`s over a fusible straight
/// line, the tail-guard shape `for_elements { if i < n { .. } }`. At one
/// lane a guard is a forward skip in the step list, so such loops fuse too.
/// `None` when anything in the body needs the interpreter.
#[allow(clippy::too_many_arguments)]
fn try_fuse(
    wp: &WarpProgram,
    counter: u32,
    start: u32,
    end: u32,
    vectorize: bool,
    b0: usize,
    bend: usize,
    id: usize,
) -> Option<FusedLoop> {
    let body = &wp.ops[b0..bend];
    // Guard skips are 16-bit step counts.
    if body.len() > usize::from(u16::MAX) {
        return None;
    }
    // Split the body into its unguarded line and the guards' lines.
    let mut per_iter = Charge::default();
    let mut guards = Vec::new();
    let mut pc = 0;
    while pc < body.len() {
        let (line, charge) = match body[pc] {
            LOp::If {
                then_len,
                else_len: 0,
                ..
            } => {
                pc += 1;
                guards.push(Charge::default());
                (&body[pc..][..then_len as usize], guards.last_mut()?)
            }
            _ => (&body[pc..=pc], &mut per_iter),
        };
        if !line.iter().all(fusible) {
            return None;
        }
        charge.add(Charge::of(line), 1);
        pc += line.len();
    }
    // Dead-write elimination: a value the body defines but never reads is
    // out of scope once the loop ends (IR validation enforces lexical
    // scoping), so pure producers of unread values can vanish outright.
    // Iterate to a fixpoint so chains of dead producers collapse too; the
    // charges summed above are unaffected.
    let mut keep: Vec<bool> = body
        .iter()
        .map(|op| !matches!(op, LOp::Account { .. }))
        .collect();
    loop {
        let mut read: Vec<u32> = Vec::new();
        for (op, &k) in body.iter().zip(&keep) {
            if k {
                for_each_src(op, |s| read.push(s));
            }
        }
        let mut changed = false;
        for (op, k) in body.iter().zip(keep.iter_mut()) {
            if *k {
                if let Some(d) = pure_dst(op) {
                    if !read.contains(&d) {
                        *k = false;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // The live steps, each guard re-sized to what survived inside it.
    let mut steps: Vec<LOp> = Vec::new();
    for (i, op) in body.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        steps.push(match *op {
            LOp::If { cond, then_len, .. } => LOp::If {
                cond,
                then_len: keep[i + 1..=i + then_len as usize]
                    .iter()
                    .filter(|&&k| k)
                    .count() as u32,
                else_len: 0,
            },
            op => op,
        });
    }
    let (turbo, sites) = build_turbo(&steps);
    let dot = detect_dot(&turbo, counter);
    Some(FusedLoop {
        counter,
        start,
        end,
        vectorize,
        b0,
        bend,
        turbo,
        sites,
        dot,
        id,
        per_iter,
        guards,
    })
}

/// Whether a compiled subtree contains a fused loop. Only fused loops make
/// structure pay: a `For`/`If` node whose body is plain ranges and step
/// runs adds dispatch transitions to a hot path the flat interpreter walks
/// in one call, so such constructs are absorbed into the surrounding range.
fn contains_fused(nodes: &[CNode]) -> bool {
    nodes.iter().any(|n| match n {
        CNode::Fused(_) => true,
        CNode::For { body, .. } => contains_fused(body),
        CNode::If { then, els, .. } => contains_fused(then) || contains_fused(els),
        CNode::Range { .. } | CNode::Steps(_) => false,
    })
}

fn flush_run(wp: &WarpProgram, nodes: &mut Vec<CNode>, lo: usize, hi: usize) {
    if hi <= lo {
        return;
    }
    let run = &wp.ops[lo..hi];
    if !run.iter().all(fusible) {
        nodes.push(CNode::Range { lo, hi });
        return;
    }
    let steps: Vec<LOp> = run
        .iter()
        .filter(|op| !matches!(op, LOp::Account { .. }))
        .copied()
        .collect();
    nodes.push(CNode::Steps(StepsRun {
        lo,
        hi,
        steps,
        charge: Charge::of(run),
    }));
}

/// Structure `ops[lo..hi]` into nodes, fusing what the step list can carry
/// and leaving everything else as interpreter ranges. Control constructs
/// with no fused descendant are absorbed into the surrounding range — the
/// interpreter executes them exactly as the lowered engine would.
fn compile_range(wp: &WarpProgram, lo: usize, hi: usize, n_fused: &mut usize) -> Vec<CNode> {
    let mut nodes = Vec::new();
    let mut run_start = lo;
    let mut pc = lo;
    while pc < hi {
        match wp.ops[pc] {
            LOp::If {
                cond,
                then_len,
                else_len,
            } => {
                let t0 = pc + 1;
                let e0 = t0 + then_len as usize;
                let end = e0 + else_len as usize;
                let then = compile_range(wp, t0, e0, n_fused);
                let els = compile_range(wp, e0, end, n_fused);
                if contains_fused(&then) || contains_fused(&els) {
                    flush_run(wp, &mut nodes, run_start, pc);
                    nodes.push(CNode::If { cond, then, els });
                    run_start = end;
                }
                pc = end;
            }
            LOp::For {
                counter,
                start,
                end,
                body_len,
                vectorize,
            } => {
                let b0 = pc + 1;
                let bend = b0 + body_len as usize;
                if is_u(counter) {
                    if let Some(fl) =
                        try_fuse(wp, counter, start, end, vectorize, b0, bend, *n_fused)
                    {
                        *n_fused += 1;
                        flush_run(wp, &mut nodes, run_start, pc);
                        nodes.push(CNode::Fused(fl));
                        run_start = bend;
                    } else {
                        let body = compile_range(wp, b0, bend, n_fused);
                        if contains_fused(&body) {
                            flush_run(wp, &mut nodes, run_start, pc);
                            nodes.push(CNode::For {
                                counter,
                                start,
                                end,
                                vectorize,
                                body,
                            });
                            run_start = bend;
                        }
                    }
                }
                pc = bend;
            }
            LOp::While {
                cond_len, body_len, ..
            } => {
                // While loops (data-dependent trip counts, shrinking masks)
                // stay on the interpreter; absorbed into the range.
                pc += 1 + cond_len as usize + body_len as usize;
            }
            _ => pc += 1,
        }
    }
    flush_run(wp, &mut nodes, run_start, hi);
    nodes
}

/// Compile a lowered program into its direct-threaded form.
fn compile(wp: &Arc<WarpProgram>) -> CompiledProgram {
    let mut n_fused = 0usize;
    let root = compile_range(wp, 0, wp.ops.len(), &mut n_fused);
    CompiledProgram {
        wp: Arc::clone(wp),
        root,
        n_fused,
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

struct CEntry {
    prog: Program,
    spec_name: String,
    cp: Arc<CompiledProgram>,
}

static CCACHE: OnceLock<Mutex<Vec<CEntry>>> = OnceLock::new();
const CCACHE_CAP: usize = 32;

static COMPILE_HITS: AtomicU64 = AtomicU64::new(0);
static COMPILE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative hit/miss counters of the compiled-program cache.
pub fn compile_cache_counters() -> CacheCounters {
    CacheCounters {
        hits: COMPILE_HITS.load(Ordering::Relaxed),
        misses: COMPILE_MISSES.load(Ordering::Relaxed),
    }
}

/// The compiled form of `prog` for launches on `spec`, built at most once
/// per `(Program, DeviceSpec)` and shared across launches and workers.
/// `wp` is the already-cached lowered form (compilation never fails once
/// lowering succeeded: the worst case is a single interpreter range).
pub(crate) fn compiled_for(
    prog: &Program,
    spec: &DeviceSpec,
    wp: &Arc<WarpProgram>,
) -> Arc<CompiledProgram> {
    let cache = CCACHE.get_or_init(|| Mutex::new(Vec::new()));
    {
        let guard = cache.lock().unwrap_or_else(|e| e.into_inner());
        for e in guard.iter() {
            if e.spec_name == spec.name && e.prog == *prog {
                COMPILE_HITS.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.cp);
            }
        }
    }
    COMPILE_MISSES.fetch_add(1, Ordering::Relaxed);
    let cp = Arc::new(compile(wp));
    let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
    // Keep the cache duplicate-free under racing inserts, and FIFO-bounded.
    for e in guard.iter() {
        if e.spec_name == spec.name && e.prog == *prog {
            return Arc::clone(&e.cp);
        }
    }
    while guard.len() >= CCACHE_CAP {
        guard.remove(0);
    }
    guard.push(CEntry {
        prog: prog.clone(),
        spec_name: spec.name.clone(),
        cp: Arc::clone(&cp),
    });
    cp
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Compiled-engine counterpart of `interpret_blocks_lowered`: the shared
/// per-worker block loop, executing each block through the compiled tree.
pub(crate) fn interpret_blocks_compiled(
    ctx: &LaunchCtx<'_>,
    mem: MemAccess<'_>,
    team: usize,
    worker: usize,
    indices: &[usize],
    cp: &CompiledProgram,
) -> Result<WorkerOut, (usize, SimError)> {
    let mut prep: Vec<Option<Box<[Site]>>> = (0..cp.n_fused).map(|_| None).collect();
    run_warp_blocks(ctx, mem, team, worker, indices, &cp.wp, |m, st| {
        cexec_range(m, st, &cp.wp, &cp.root, 0, &mut prep)
    })
}

/// Execute `nodes` under the mask stored at `masks[depth]`, with the same
/// fault-attribution rule as the lowered engine's `exec_range`.
fn cexec_range(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    nodes: &[CNode],
    depth: usize,
    prep: &mut PrepTable,
) -> R<()> {
    let mask = std::mem::take(&mut st.masks[depth]);
    let r = cexec_nodes(m, st, wp, nodes, depth, &mask, prep).map_err(|e| {
        if e.thread.is_none() && matches!(e.kind, crate::fault::SimErrorKind::Fault { .. }) {
            e.at_thread(st.tid[first_active(&mask)])
        } else {
            e
        }
    });
    st.masks[depth] = mask;
    r
}

fn cexec_nodes(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    nodes: &[CNode],
    depth: usize,
    mask: &MaskBuf,
    prep: &mut PrepTable,
) -> R<()> {
    for node in nodes {
        match node {
            CNode::Range { lo, hi } => exec_ops(m, st, wp, *lo, *hi, depth, mask)?,
            CNode::Steps(sr) => {
                if st.lanes == 1 && mask.full && m.fuel >= sr.charge.n && m.profile.is_none() {
                    // Batched burn and charges: between the run's `Account`
                    // ops nothing can observe the fuel level or the stat
                    // sums, and region routing is constant across a
                    // straight line (no loop opens or closes inside).
                    m.fuel -= sr.charge.n;
                    for op in &sr.steps {
                        lanes::exec::<true>(m, st, mask, op)?;
                    }
                    sr.charge.book(m, mask);
                } else {
                    exec_ops(m, st, wp, sr.lo, sr.hi, depth, mask)?;
                }
            }
            CNode::If { cond, then, els } => {
                if is_u(*cond) {
                    if st.udb(*cond) {
                        if !then.is_empty() {
                            cexec_nodes(m, st, wp, then, depth, mask, prep)?;
                        }
                    } else if !els.is_empty() {
                        cexec_nodes(m, st, wp, els, depth, mask, prep)?;
                    }
                } else if st.lanes == 1 && mask.full {
                    // One fully active lane: the taken side's child mask
                    // equals the parent and a divergent branch (both sides
                    // live in one warp) is impossible, so skip the mask
                    // machinery and run the branch in place.
                    if st.rdb(*cond, 0) {
                        if !then.is_empty() {
                            cexec_nodes(m, st, wp, then, depth, mask, prep)?;
                        }
                    } else if !els.is_empty() {
                        cexec_nodes(m, st, wp, els, depth, mask, prep)?;
                    }
                } else {
                    st.ensure_mask(depth + 1);
                    let (any_t, any_f) = {
                        let mut child = std::mem::take(&mut st.masks[depth + 1]);
                        let r = fill_branch_mask(m, st, *cond, mask, &mut child, true, true);
                        st.masks[depth + 1] = child;
                        r
                    };
                    if any_t && !then.is_empty() {
                        cexec_range(m, st, wp, then, depth + 1, prep)?;
                    }
                    if any_f && !els.is_empty() {
                        let mut child = std::mem::take(&mut st.masks[depth + 1]);
                        fill_branch_mask(m, st, *cond, mask, &mut child, false, false);
                        st.masks[depth + 1] = child;
                        cexec_range(m, st, wp, els, depth + 1, prep)?;
                    }
                }
            }
            CNode::For {
                counter,
                start,
                end,
                vectorize,
                body,
            } => {
                let opened = open_region(m, *vectorize);
                let result = (|| -> R<()> {
                    let s0 = st.udi(*start);
                    let e0 = st.udi(*end);
                    let mut k = s0;
                    while k < e0 {
                        m.burn()?;
                        st.wu(*counter, k as u64);
                        cexec_nodes(m, st, wp, body, depth, mask, prep)?;
                        if opened {
                            if let Some(r) = &mut m.region {
                                r.iter += 1;
                            }
                        }
                        k += 1;
                    }
                    Ok(())
                })();
                close_region(m, opened);
                result?;
            }
            CNode::Fused(fl) => {
                let opened = open_region(m, fl.vectorize);
                let result = exec_fused(m, st, wp, fl, depth, mask, opened, prep);
                close_region(m, opened);
                result?;
            }
        }
    }
    Ok(())
}

/// Mirror of the lowered engine's region bookkeeping around a `For` op:
/// open a vectorization probe for outermost element loops on SIMD CPU
/// models, otherwise track nesting depth inside an open region.
#[inline]
fn open_region(m: &mut Machine<'_>, vectorize: bool) -> bool {
    let opened =
        vectorize && m.spec.kind == DeviceKind::Cpu && m.spec.simd_width > 1 && m.region.is_none();
    if opened {
        m.region = Some(RegionAcc::default());
    } else if let Some(r) = &mut m.region {
        r.depth += 1;
    }
    opened
}

#[inline]
fn close_region(m: &mut Machine<'_>, opened: bool) {
    if opened {
        let r = m.region.take().expect("region open");
        if r.vectorized() {
            m.stats.vec_issue += r.issue;
            m.stats.vec_flops += r.flops;
            // Special functions do not vectorize on the modeled units.
            m.stats.special_ops += r.special;
        } else {
            m.stats.scalar_issue += r.issue;
            m.stats.scalar_flops += r.flops;
            m.stats.special_ops += r.special;
        }
    } else if let Some(reg) = &mut m.region {
        reg.depth = reg.depth.saturating_sub(1);
    }
}

/// Execute one fused loop. The fast path — full mask, one lane per block,
/// every buffer slot bound, enough fuel for every iteration even if every
/// guard is taken — runs the turbo step list with batched accounting:
/// `trips × per_iter + Σ taken × guard`. Anything else falls back to the
/// lowered interpreter's loop on the same state for exact parity (an
/// unbound slot then faults at the exact step that first touches it).
#[allow(clippy::too_many_arguments)]
fn exec_fused(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    fl: &FusedLoop,
    depth: usize,
    mask: &MaskBuf,
    probe: bool,
    prep: &mut PrepTable,
) -> R<()> {
    let s0 = st.udi(fl.start);
    let e0 = st.udi(fl.end);
    let trips: u64 = if e0 > s0 {
        // i64 differences always fit u64 when positive.
        u64::try_from(e0 as i128 - s0 as i128).expect("positive i64 range fits u64")
    } else {
        0
    };
    let all_taken = 1 + fl.per_iter.n + fl.guards.iter().map(|g| g.n).sum::<u64>();
    let fast = st.lanes == 1
        && mask.full
        && trips.checked_mul(all_taken).is_some_and(|n| m.fuel >= n)
        && (prep[fl.id].is_some() || {
            prep[fl.id] = prepare_sites(m, &fl.sites).ok();
            prep[fl.id].is_some()
        });
    if !fast {
        return exec_for_lowered(
            m, st, wp, fl.counter, fl.start, fl.end, fl.b0, fl.bend, depth, mask, probe,
        );
    }
    debug_assert!(
        m.profile.is_none(),
        "traced launches must run the lowered engine"
    );
    let sites = prep[fl.id].as_deref().expect("prepared above");
    let mut total = if trips > 0 {
        run_turbo(m, st, fl, sites, mask, (s0, e0), probe)?
    } else {
        Charge::default()
    };
    total.add(fl.per_iter, trips);
    // One batched burn and booking for the whole loop: identical to the
    // per-iteration burns and `Account` ops of the interpreted path because
    // nothing in between can observe the fuel level or the stat sums
    // (errors abort the launch before they are reported).
    m.fuel -= trips + total.n;
    total.book(m, mask);
    Ok(())
}

/// Resolve a fused loop's buffer sites against the launch's memory, in
/// first-use order (so the first unbound slot errors exactly like the
/// first interpreter step that references it).
fn prepare_sites(m: &mut Machine<'_>, sites: &[SiteRef]) -> R<Box<[Site]>> {
    sites
        .iter()
        .map(|sr| {
            if sr.is_f {
                Site::f(m, sr.slot)
            } else {
                Site::i(m, sr.slot)
            }
        })
        .collect()
}

/// Charge one coalesced line access against the hoisted cache reference —
/// the body of [`Machine::line_access`] with the profile mirror dropped
/// (the compiled engine never runs profiled launches).
#[inline(always)]
fn charge_line(
    cache: &mut Option<&mut CacheSim>,
    stats: &mut LaunchStats,
    line: u64,
    line_bytes: u64,
) {
    stats.mem_transactions += 1;
    match cache {
        None => stats.dram_bytes += line_bytes,
        Some(c) => {
            if c.access_line(line) {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                stats.dram_bytes += line_bytes;
            }
        }
    }
}

/// The turbo loop: superop steps over pre-resolved sites, with the memory
/// view, cache, ECC context and line geometry hoisted out of the loop.
/// Preconditions (checked by `exec_fused`): single lane, full mask, fuel
/// for every iteration, no profiling. Probe logging (a region's first two
/// iterations) is mirrored inline, access for access. Returns what the
/// taken guards charge on top of the per-iteration constants.
fn run_turbo(
    m: &mut Machine<'_>,
    st: &mut LowState,
    fl: &FusedLoop,
    sites: &[Site],
    mask: &MaskBuf,
    (mut k, e0): (i64, i64),
    bump_iter: bool,
) -> R<Charge> {
    let ecc = m.ecc;
    let blk = m.cur_block_lin;
    let tid0 = st.tid[0];
    let line_bytes = m.spec.line_bytes as u64;
    // Same quotient either way; the shift avoids a hardware divide per
    // access on the (universal) power-of-two line sizes.
    let line_shift = if line_bytes.is_power_of_two() {
        Some(line_bytes.trailing_zeros())
    } else {
        None
    };
    let line_of = |a: u64| match line_shift {
        Some(s) => a >> s,
        None => a / line_bytes,
    };
    let cur_sm = m.cur_sm;
    let Machine {
        stats,
        caches,
        region,
        atomics,
        ..
    } = m;
    let mut cache: Option<&mut CacheSim> = match caches {
        Caches::None => None,
        Caches::PerSm(cs) => Some(&mut cs[cur_sm]),
        Caches::Shared(c) => Some(c),
    };
    // Inner-product fast path: both load indices are affine in `k`, so if
    // every index over [k, e0) is in bounds (checked once, in i128 so
    // wrapping evaluation provably equals the true value), the loop needs
    // no per-access checks. ECC-armed and probe-logging runs stay on the
    // step loop, as does any run whose indices would fault — the error
    // must surface at the exact iteration the interpreter reaches.
    // Per-access stat deltas are recovered afterwards from the cache's own
    // hit/miss counters, which `access_line` maintains; nothing between can
    // observe the intermediate sums.
    let dot_done = (|| -> Option<()> {
        let dk = fl.dot.as_ref()?;
        if ecc.is_some() {
            return None;
        }
        let shift = line_shift?;
        // A self-probing loop (a vec=true fused loop driving its own
        // region) advances `iter` every iteration; that stays on the step
        // loop. A probe state that is *fixed* across the run is mirrored
        // inline below, push for push.
        if bump_iter && region.is_some() {
            return None;
        }
        let (ab, asr) = affine_eval(st, &dk.a_idx);
        let (bb, bsr) = affine_eval(st, &dk.b_idx);
        let sa = sites[dk.a_site as usize];
        let sb = sites[dk.b_site as usize];
        let in_bounds = |base: i64, stride: i64, len: usize| {
            let lo = base as i128 + stride as i128 * k as i128;
            let hi = base as i128 + stride as i128 * (e0 - 1) as i128;
            let (mn, mx) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            mn >= 0 && mx < len as i128
        };
        if !in_bounds(ab, asr, sa.len) || !in_bounds(bb, bsr, sb.len) {
            return None;
        }
        let trips = (e0 - k) as u64;
        let mut ia = ab.wrapping_add(asr.wrapping_mul(k));
        let mut ib = bb.wrapping_add(bsr.wrapping_mul(k));
        let mut addr_a = sa.base.wrapping_add((ia as u64).wrapping_mul(8));
        let mut addr_b = sb.base.wrapping_add((ib as u64).wrapping_mul(8));
        let da = (asr as u64).wrapping_mul(8);
        let db = (bsr as u64).wrapping_mul(8);
        let mut acc = f64::from_bits(if is_u(dk.v) {
            st.uvars[idx(dk.v)]
        } else {
            st.vvars[dk.v as usize]
        });
        let a_first = dk.a_first;
        let (mut la, mut lb) = (0u64, 0u64);
        // The enclosing region\'s probe log, when it is still recording:
        // the address sequence a,b,a,b,... and the overflow seal match
        // `mem_access_one` exactly.
        let mut probe: Option<(&mut Vec<u64>, &mut bool)> = match region.as_mut() {
            Some(r) if r.iter < 2 && !r.probe_failed => {
                let RegionAcc {
                    iter,
                    addrs0,
                    addrs1,
                    probe_failed,
                    ..
                } = r;
                Some((if *iter == 0 { addrs0 } else { addrs1 }, probe_failed))
            }
            _ => None,
        };
        let mut ch = cache.as_deref_mut();
        let (h0, mi0) = ch.as_ref().map_or((0, 0), |c| (c.hits, c.misses));
        macro_rules! probe_push {
            ($a:expr) => {
                if let Some((log, failed)) = probe.as_mut() {
                    if !**failed {
                        log.push($a);
                        if log.len() > 4096 {
                            **failed = true;
                        }
                    }
                }
            };
        }
        for _ in 0..trips {
            // SAFETY: `ia`/`ib` verified in bounds for the whole range above.
            la = unsafe { sa.cell_unchecked(ia as usize) }.load(Ordering::Relaxed);
            probe_push!(addr_a);
            if let Some(c) = ch.as_mut() {
                c.access_line(addr_a >> shift);
            }
            lb = unsafe { sb.cell_unchecked(ib as usize) }.load(Ordering::Relaxed);
            probe_push!(addr_b);
            if let Some(c) = ch.as_mut() {
                c.access_line(addr_b >> shift);
            }
            let (x, y) = if a_first { (la, lb) } else { (lb, la) };
            acc = sem::fma(f64::from_bits(x), f64::from_bits(y), acc);
            ia = ia.wrapping_add(asr);
            ib = ib.wrapping_add(bsr);
            addr_a = addr_a.wrapping_add(da);
            addr_b = addr_b.wrapping_add(db);
        }
        // Per-access stat deltas, recovered from the cache\'s own counters
        // (`access_line` maintains them); nothing in between could observe
        // the intermediate sums.
        match ch {
            Some(c) => {
                let dm = c.misses - mi0;
                stats.cache_hits += c.hits - h0;
                stats.cache_misses += dm;
                stats.dram_bytes += dm * line_bytes;
            }
            None => stats.dram_bytes += 2 * trips * line_bytes,
        }
        stats.mem_transactions += 2 * trips;
        stats.global_loads += 2 * trips;
        // Leave registers, the accumulator and the counter exactly as the
        // step loop\'s last iteration would.
        wr1(st, dk.ra, la);
        wr1(st, dk.rb, lb);
        let accb = acc.to_bits();
        if is_u(dk.v) {
            st.uvars[idx(dk.v)] = accb;
        } else {
            st.vvars[dk.v as usize] = accb;
        }
        st.wu(fl.counter, (e0 - 1) as u64);
        Some(())
    })();
    let mut taken = Charge::default();
    if dot_done.is_some() {
        return Ok(taken);
    }
    // Mirror of `Machine::mem_access_one`'s probe logging: record the
    // address while the enclosing region's first two iterations are being
    // probed, sealing the log on overflow.
    macro_rules! probe_log {
        ($a:expr) => {
            if let Some(r) = region.as_mut() {
                if r.iter < 2 && !r.probe_failed {
                    let log = if r.iter == 0 {
                        &mut r.addrs0
                    } else {
                        &mut r.addrs1
                    };
                    log.push($a);
                    if log.len() > 4096 {
                        r.probe_failed = true;
                    }
                }
            }
        };
    }

    // One global load: bounds check, ECC decision, relaxed element read and
    // line accounting in exactly the order of `lanes::ld_global`.
    macro_rules! gload {
        ($d:expr, $site:expr, $ix:expr, $what:literal) => {{
            let (cell, a) = sites[$site as usize].cell($what, $ix, tid0)?;
            if let Some(e) = ecc {
                if e.hits(blk, a) {
                    return Err(SimError::transient(format!(
                        concat!(
                            $what,
                            ": uncorrectable ECC error at device address {:#x} (injected)"
                        ),
                        a
                    ))
                    .at_thread(tid0));
                }
            }
            wr1(st, $d, cell.load(Ordering::Relaxed));
            stats.global_loads += 1;
            probe_log!(a);
            charge_line(&mut cache, stats, line_of(a), line_bytes);
        }};
    }
    macro_rules! gstore {
        ($site:expr, $ix:expr, $val:expr, $what:literal) => {{
            let (cell, a) = sites[$site as usize].cell($what, $ix, tid0)?;
            cell.store($val, Ordering::Relaxed);
            stats.global_stores += 1;
            probe_log!(a);
            charge_line(&mut cache, stats, line_of(a), line_bytes);
        }};
    }

    // One global atomic: the single-lane form of `lanes::atomic` — charge,
    // bounds check, then defer or apply in place (no cache, probe log or
    // ECC state, like the interpreter).
    macro_rules! atom {
        ($rmw:ident, $what:literal, $op:expr, $d:expr, $site:expr, $slot:expr, $ix:expr, $v:expr) => {{
            stats.atomics += 1;
            let ix: i64 = $ix;
            let (cell, _) = sites[$site as usize].cell($what, ix, tid0)?;
            let bits = $rmw(atomics, ($slot, $op, blk as u64), cell, ix as usize, $v);
            wr1(st, $d, bits);
        }};
    }

    while k < e0 {
        st.wu(fl.counter, k as u64);
        let mut steps = fl.turbo.iter();
        while let Some(sp) = steps.next() {
            match *sp {
                SStep::Pure(ref op) => lanes::alu::<true>(st, mask, op)?,
                SStep::Guard { cond, skip, charge } => {
                    if rd1(st, cond) != 0 {
                        taken.add(fl.guards[charge as usize], 1);
                    } else {
                        steps = steps.as_slice()[skip as usize..].iter();
                    }
                }
                SStep::BinF { op, d, a, b } => {
                    let r = sem::fbin(op, rd1f(st, a), rd1f(st, b));
                    wr1(st, d, r.to_bits());
                }
                SStep::BinI { op, d, a, b } => {
                    let r = sem::ibin(op, rd1i(st, a), rd1i(st, b));
                    wr1(st, d, r as u64);
                }
                SStep::Fma { d, a, b, c } => {
                    let r = sem::fma(rd1f(st, a), rd1f(st, b), rd1f(st, c));
                    wr1(st, d, r.to_bits());
                }
                SStep::FmaAcc { v, a, b } => {
                    let acc = if is_u(v) {
                        st.uvars[idx(v)]
                    } else {
                        st.vvars[v as usize]
                    };
                    let r = sem::fma(rd1f(st, a), rd1f(st, b), f64::from_bits(acc));
                    if is_u(v) {
                        st.uvars[idx(v)] = r.to_bits();
                    } else {
                        st.vvars[v as usize] = r.to_bits();
                    }
                }
                SStep::LdF { d, site, i } => gload!(d, site, rd1i(st, i), "ld.global.f64"),
                SStep::LdFAdd { d, site, a, b } => gload!(
                    d,
                    site,
                    rd1i(st, a).wrapping_add(rd1i(st, b)),
                    "ld.global.f64"
                ),
                SStep::LdFMulAdd { d, site, a, b, c } => gload!(
                    d,
                    site,
                    rd1i(st, a)
                        .wrapping_mul(rd1i(st, b))
                        .wrapping_add(rd1i(st, c)),
                    "ld.global.f64"
                ),
                SStep::LdI { d, site, i } => gload!(d, site, rd1i(st, i), "ld.global.s64"),
                SStep::LdIAdd { d, site, a, b } => gload!(
                    d,
                    site,
                    rd1i(st, a).wrapping_add(rd1i(st, b)),
                    "ld.global.s64"
                ),
                SStep::LdIMulAdd { d, site, a, b, c } => gload!(
                    d,
                    site,
                    rd1i(st, a)
                        .wrapping_mul(rd1i(st, b))
                        .wrapping_add(rd1i(st, c)),
                    "ld.global.s64"
                ),
                SStep::StF { site, i, val } => {
                    gstore!(site, rd1i(st, i), rd1(st, val), "st.global.f64")
                }
                SStep::StI { site, i, val } => {
                    gstore!(site, rd1i(st, i), rd1(st, val), "st.global.s64")
                }
                SStep::AtomF {
                    op,
                    d,
                    site,
                    slot,
                    i,
                    val,
                } => atom!(
                    rmw_f,
                    "atom.global.f64",
                    op,
                    d,
                    site,
                    slot,
                    rd1i(st, i),
                    rd1f(st, val)
                ),
                SStep::AtomFAdd {
                    op,
                    d,
                    site,
                    slot,
                    a,
                    b,
                    val,
                } => atom!(
                    rmw_f,
                    "atom.global.f64",
                    op,
                    d,
                    site,
                    slot,
                    rd1i(st, a).wrapping_add(rd1i(st, b)),
                    rd1f(st, val)
                ),
                SStep::AtomI {
                    op,
                    d,
                    site,
                    slot,
                    i,
                    val,
                } => atom!(
                    rmw_i,
                    "atom.global.s64",
                    op,
                    d,
                    site,
                    slot,
                    rd1i(st, i),
                    rd1i(st, val)
                ),
                SStep::AtomIAdd {
                    op,
                    d,
                    site,
                    slot,
                    a,
                    b,
                    val,
                } => atom!(
                    rmw_i,
                    "atom.global.s64",
                    op,
                    d,
                    site,
                    slot,
                    rd1i(st, a).wrapping_add(rd1i(st, b)),
                    rd1i(st, val)
                ),
            }
        }
        if bump_iter {
            if let Some(r) = region.as_mut() {
                r.iter = r.iter.wrapping_add(1);
            }
        }
        k += 1;
    }
    Ok(taken)
}
