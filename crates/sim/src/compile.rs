//! The fused tier of `Engine::Compiled`: direct-threaded warp programs with
//! fused uniform loops, for launches of **one thread per block** (the CPU
//! mapping of the paper's kernels; `Prepared::launch` picks the tier
//! from the work division and runs every other launch, and every traced or
//! profiled one, on the lowered interpreter of `crate::lower`).
//!
//! [`compile`] re-threads a validated [`WarpProgram`] (from `crate::lower`)
//! into a small tree of [`CNode`]s — structured control flow with all
//! operand slots pre-resolved — whose hot leaves are [`FusedLoop`]s:
//! uniform-counter `for` loops and `while` loops whose straight-line bodies
//! are compiled to a compact step list executed without the per-op
//! decode-and-account loop of the lowered interpreter. A fused loop
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
//!   memory-view dispatch,
//! * executes shared-memory accesses in the step list — at one lane a
//!   bounds check and one counted access, no bank can conflict — so the
//!   tile loads and the accumulate loop of the tiled DGEMM fuse,
//! * treats an else-less `If` over a fusible straight line as a *guard* — a
//!   forward skip in the step list — so the tail-guarded element loop
//!   `for_elements { if i < n { .. } }` fuses too: such a loop charges
//!   `trips × unguarded + taken × guarded` (see [`exec_fused`]),
//! * runs a `While` over fusible straight lines as the step list's second
//!   loop form — `cond steps; exit unless cond; body steps`, the exit a step
//!   of its own ([`SStep::Exit`]) so the body may hold guards — with the same
//!   batched charge, `iterations × (1 + cond) + taken × body`: the ray march
//!   of the ASE kernel (Fig. 10), whose trip count is data-dependent, and
//! * runs a guard-free `For` body whose every access index is affine in the
//!   loop counter as an affine [`Stream`]: the index arithmetic is evaluated
//!   twice at loop entry to aim one cursor per access, every access range
//!   is bounds-checked once, and the loop walks the cursors. This is the
//!   one matcher for hot loops: the tiled DGEMM's `ld.shared, ld.local,
//!   fma, st.local` accumulate loop and the inner product of the naive
//!   DGEMM are both instances of it.
//!
//! Global atomics execute as step-list superops too: the launch driver's
//! deferral plan (see `crate::atomics`) decides at run time whether an
//! atomic accumulates into the worker's private shadow/log or applies in
//! place — the in-place path only ever runs serially, because the parallel
//! gate requires a plan whenever a program contains atomics. Either way the
//! buffers, stats and error surfaces match the lowered interpreter bit for bit.
//!
//! The step list runs `For` loops of at least [`MIN_FUSED_TRIPS`] trips with
//! fuel for every iteration (all guards taken), and of a `While` as many
//! iterations as the fuel pays for on those terms (entering costs what the
//! interpreter's entry does, so there is no minimum), in both cases with
//! every buffer slot bound; a stream additionally needs every cursor in
//! bounds for the whole loop and no ECC injection armed. Everything else —
//! barriers, branches with an else side or nested control flow, short `For`s,
//! near-exhausted fuel, the rest of a `While` that outlives its fuel budget —
//! runs the lowered interpreter's own `exec_ops` on the *same* state (whose
//! data ops are the lane kernels of `crate::lanes`), handed the loop op
//! itself, and a stream that cannot run hands its loop to the step list,
//! which faults at the exact iteration; so buffers, [`LaunchStats`],
//! `TimeBreakdown`, traces and structured fault errors are bit-identical
//! between the two engines and between this tier and the lowered one (the
//! determinism suite pins this four ways: engines × worker counts). While a
//! vectorization region is probing (its first two iterations log addresses),
//! the turbo loop mirrors the probe log inline, access for access; a `While`
//! never drives a region, so inside a probing iteration all of it goes to
//! one log.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use alpaka_core::acc::DeviceKind;
use alpaka_kir::ir::{AtomicOp, FBin, IBin};
use alpaka_kir::semantics as sem;

use crate::cache::CacheSim;
use crate::fault::SimError;
use crate::interp::{Caches, LaunchCtx, Machine, MemAccess, RegionAcc, WorkerOut, R};
use crate::lanes::{self, rd1, rd1f, rd1i, rmw_f, rmw_i, wr1, Site};
use crate::lower::{exec_ops, idx, is_u, run_warp_blocks, LOp, LowState, MaskBuf, WarpProgram};
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
    /// A `while` whose body contains fused work but is not itself a step
    /// list: the condition range `c0..b0` runs on the interpreter.
    While {
        cond: u32,
        c0: usize,
        b0: usize,
        body: Vec<CNode>,
    },
    /// A contiguous straight-line run of fusible ops: executed as a step
    /// list with batched accounting, by the lowered interpreter when fuel
    /// runs short.
    Steps(StepsRun),
    /// The hot leaf: a uniform-counter loop over a straight-line body.
    Fused(FusedLoop),
}

/// A fusible straight line outside any fused loop — the glue between hot
/// loops (index computation, guards, epilogue stores). Charges are the
/// summed `Account` constants; a run short of fuel falls back to `exec_ops`
/// so the error surfaces at the exact op.
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

/// The two loops the step list runs.
#[derive(Clone, Copy)]
enum Form {
    /// `for counter in start..end`, the trip count known at entry.
    For {
        counter: u32,
        start: u32,
        end: u32,
        vectorize: bool,
    },
    /// `cond steps; exit unless cond; body steps`, repeated: the exit is the
    /// step [`SStep::Exit`], the body's charge the guard charge it names.
    While,
}

/// A loop compiled to a step list with batched accounting.
struct FusedLoop {
    form: Form,
    /// The loop op and its ranges in `wp.ops`: what the interpreter runs
    /// when the step list cannot, or can no longer.
    lo: usize,
    hi: usize,
    /// The body's live ops — `Account`s stripped (their charges are the
    /// constants below), dead pure writes eliminated — in superop form over
    /// pre-resolved memory sites, for the single-lane turbo path.
    turbo: Vec<SStep>,
    /// Global-memory buffers `turbo` touches, in first-use order.
    sites: Vec<SiteRef>,
    /// Present when the body is an affine stream (see [`Stream`]).
    stream: Option<Stream>,
    /// Index into the per-worker prepared-site table.
    id: usize,
    /// Charged every iteration: the ops outside any guard (the loop's own
    /// per-iteration burn of one fuel unit comes on top). For a `While`
    /// these are the condition's ops, charged once more when it fails.
    per_iter: Charge,
    /// Charged per iteration in which guard `g` is taken; indexed by
    /// [`SStep::Guard::charge`] and [`SStep::Exit::charge`].
    guards: Vec<Charge>,
}

/// One step of a fused body in superop form. Register slots keep the
/// `U_BIT` uniform/varying encoding; `site` indexes the loop's prepared
/// global-memory sites.
#[derive(Clone, Copy)]
enum SStep {
    /// Anything without a superop shape: executed by `lanes::alu`.
    Pure(LOp),
    /// A shared-memory access: `lanes::shared1` plus one counted access.
    Shared(LOp),
    /// `d = *cursor c`, then advance it (streams only).
    LdC {
        d: u32,
        c: u16,
    },
    /// `*cursor c = val`, then advance it (streams only).
    StC {
        c: u16,
        val: u32,
    },
    /// An else-less `If` over the next `skip` steps: a forward skip when
    /// `cond` is false, `guards[charge]` on top of the iteration otherwise.
    Guard {
        cond: u32,
        skip: u16,
        charge: u16,
    },
    /// A `While`'s exit: leave the loop when `cond` is false, otherwise
    /// `guards[charge]` — the body — on top of the iteration.
    Exit {
        cond: u32,
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

/// An *affine stream*: a guard-free body whose every global, shared and
/// local access is indexed by a value affine in the loop counter — built
/// from the counter by `Add`/`Sub` with counter-dependent or loop-invariant
/// slots and `Mul` by an invariant, so of degree <= 1 by construction — or
/// by an invariant, and whose other steps read no counter-dependent slot.
/// Wrapping i64 arithmetic is a ring, so each index strides by a constant
/// per iteration: the index ops run twice at loop entry (see [`aim`]) and
/// never inside the loop, which walks one [`Cur`] per access instead. The
/// inner product of DGEMM, stencils and reductions is the stream `[global
/// cursor, global cursor, FmaAcc]`; the tiled DGEMM's accumulate loop is
/// `[shared cursor, local cursor, Fma, local cursor]`.
struct Stream {
    /// `d = op(a, b)` index ops in body order.
    index_ops: Vec<(IBin, u32, u32, u32)>,
    /// One cursor per access, in body order.
    cursors: Vec<CursorRef>,
    /// The body without its index ops, every access an
    /// [`SStep::LdC`]/[`SStep::StC`].
    steps: Vec<SStep>,
    /// Set when `steps` is the inner product `[global cursor, global cursor,
    /// FmaAcc]` — the body DGEMM, stencils and reductions all compile to,
    /// and the hottest code in the whole simulator: its accumulator slot and
    /// whether the first cursor feeds the FmaAcc's first factor. That shape
    /// runs register-resident over the same cursors (per-step dispatch
    /// through the register file doubles the naive DGEMM's wall time).
    dot: Option<(u32, bool)>,
    /// Accesses per iteration, booked once per loop execution.
    global_loads: u64,
    global_stores: u64,
    shared: u64,
}

/// The array a cursor walks: a prepared global site, a shared array or the
/// block's one thread's local array.
#[derive(Clone, Copy)]
enum Space {
    Global(u16),
    Shared(u32),
    Local(u32),
}

/// One access of a stream: where it goes and the slot holding its index.
#[derive(Clone, Copy)]
struct CursorRef {
    space: Space,
    idx: u32,
}

/// A cursor in flight: the element the next access touches, and the step to
/// the one after.
#[derive(Clone, Copy)]
struct Cur {
    space: Space,
    pos: i64,
    stride: i64,
}

/// Streams with more accesses than this stay on the step list (cursors live
/// in a stack array).
const MAX_CURSORS: usize = 8;

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

/// Ops a fused step list can execute directly. Control flow, barriers and
/// the per-launch-fallible `Param` reads stay on the interpreter path. At
/// one lane a shared access is a bounds check and one counted access (no
/// bank can conflict). Global atomics are fusible: whether they defer to
/// the launch plan or apply in place is a per-launch (`Machine`) decision,
/// so the compiled form — cached per program — is valid for both modes.
fn fusible(op: &LOp) -> bool {
    op.is_compute()
        || is_shared(op)
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

fn is_shared(op: &LOp) -> bool {
    matches!(
        op,
        LOp::LdSF { .. } | LOp::LdSI { .. } | LOp::StSF { .. } | LOp::StSI { .. }
    )
}

/// The `(index, stored value)` slots of a global, shared or local access.
fn access(op: &LOp) -> Option<(u32, Option<u32>)> {
    match *op {
        LOp::LdGF { i, .. }
        | LOp::LdGI { i, .. }
        | LOp::LdSF { i, .. }
        | LOp::LdSI { i, .. }
        | LOp::LdLF { i, .. } => Some((i, None)),
        LOp::StGF { i, val, .. }
        | LOp::StGI { i, val, .. }
        | LOp::StSF { i, val, .. }
        | LOp::StSI { i, val, .. }
        | LOp::StLF { i, val, .. } => Some((i, Some(val))),
        _ => None,
    }
}

/// Visit the register slots `op` reads.
fn for_each_src(op: &LOp, mut f: impl FnMut(u32)) {
    if let Some((i, val)) = access(op) {
        f(i);
        val.map(f);
        return;
    }
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
        LOp::StVar { val, .. } | LOp::If { cond: val, .. } | LOp::While { cond: val, .. } => f(val),
        LOp::AtomicF { i, val, .. } | LOp::AtomicI { i, val, .. } => {
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

/// The register slot `op` defines, if any (pure ops, loads and atomics).
fn dst_of(op: &LOp) -> Option<u32> {
    pure_dst(op).or(match *op {
        LOp::LdGF { d, .. }
        | LOp::LdGI { d, .. }
        | LOp::LdSF { d, .. }
        | LOp::LdSI { d, .. }
        | LOp::LdLF { d, .. }
        | LOp::AtomicF { d, .. }
        | LOp::AtomicI { d, .. } => Some(d),
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
/// `then_len` steps and a `While`'s exit as a bare `LOp::While { cond, .. }`
/// over everything after it; guard or exit `g` (in order) charges
/// `guards[g]`.
fn build_turbo(steps: &[LOp]) -> (Vec<SStep>, Vec<SiteRef>) {
    let n = steps.len();
    // Region of each step: 0 outside any guard, `g + 1` inside guard `g`.
    let mut region = vec![0usize; n];
    let mut n_guards = 0;
    for (i, op) in steps.iter().enumerate() {
        let len = match *op {
            LOp::If { then_len, .. } => then_len as usize,
            LOp::While { .. } => n - i - 1,
            _ => continue,
        };
        n_guards += 1;
        region[i + 1..=i + len].fill(n_guards);
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
            LOp::While { cond, .. } => {
                charge += 1;
                SStep::Exit {
                    cond,
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
            other if is_shared(&other) => SStep::Shared(other),
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

/// Classify a live body (see [`try_fuse`]) as an affine [`Stream`]: `None`
/// when it has a guard, an access whose index is neither affine in the
/// counter nor invariant, or any other step that reads a counter-dependent
/// slot (an atomic's operands included).
fn build_stream(steps: &[LOp], counter: u32) -> Option<Stream> {
    let defs: Vec<u32> = steps.iter().filter_map(dst_of).collect();
    // Counter-dependent slots: the counter and every index op's result.
    let mut dep = vec![counter];
    let mut index_ops = Vec::new();
    let mut residual = Vec::new();
    for op in steps {
        // Affine operands: counter-dependent, or never written by the body.
        let affine = |s: u32| dep.contains(&s) || !defs.contains(&s);
        let mut reads_dep = false;
        for_each_src(op, |s| reads_dep |= dep.contains(&s));
        match *op {
            LOp::If { .. } => return None,
            LOp::BinI {
                op: k @ (IBin::Add | IBin::Sub | IBin::Mul),
                d,
                a,
                b,
            } if reads_dep => {
                let squares = k == IBin::Mul && dep.contains(&a) && dep.contains(&b);
                if squares || !affine(a) || !affine(b) {
                    return None;
                }
                dep.push(d);
                index_ops.push((k, d, a, b));
                continue;
            }
            _ => {}
        }
        match access(op) {
            Some((i, val)) if !affine(i) || val.is_some_and(|v| dep.contains(&v)) => return None,
            None if reads_dep => return None,
            _ => residual.push(*op),
        }
    }
    // No memory op moved or vanished, so the sites intern exactly as in the
    // loop's step list and `FusedLoop::sites` serves both.
    let (mut steps, _) = build_turbo(&residual);
    let mut cursors = Vec::new();
    let (mut global_loads, mut global_stores, mut shared) = (0, 0, 0);
    for sp in &mut steps {
        let (space, idx, dst, val) = match *sp {
            SStep::LdF { d, site, i } | SStep::LdI { d, site, i } => {
                global_loads += 1;
                (Space::Global(site), i, d, None)
            }
            SStep::StF { site, i, val } | SStep::StI { site, i, val } => {
                global_stores += 1;
                (Space::Global(site), i, 0, Some(val))
            }
            SStep::Shared(LOp::LdSF { d, sh, i } | LOp::LdSI { d, sh, i }) => {
                shared += 1;
                (Space::Shared(sh), i, d, None)
            }
            SStep::Shared(LOp::StSF { sh, i, val } | LOp::StSI { sh, i, val }) => {
                shared += 1;
                (Space::Shared(sh), i, 0, Some(val))
            }
            SStep::Pure(LOp::LdLF { d, loc, i, .. }) => (Space::Local(loc), i, d, None),
            SStep::Pure(LOp::StLF { loc, i, val, .. }) => (Space::Local(loc), i, 0, Some(val)),
            _ => continue,
        };
        let c = cursors.len() as u16;
        cursors.push(CursorRef { space, idx });
        *sp = match val {
            Some(val) => SStep::StC { c, val },
            None => SStep::LdC { d: dst, c },
        };
    }
    let dot = match (&steps[..], &cursors[..]) {
        (
            &[SStep::LdC { d: ra, .. }, SStep::LdC { d: rb, .. }, SStep::FmaAcc { v, a, b }],
            [CursorRef {
                space: Space::Global(_),
                ..
            }, CursorRef {
                space: Space::Global(_),
                ..
            }],
        ) if ra != rb && ((a, b) == (ra, rb) || (a, b) == (rb, ra)) => Some((v, a == ra)),
        _ => None,
    };
    (cursors.len() <= MAX_CURSORS).then_some(Stream {
        index_ops,
        cursors,
        steps,
        dot,
        global_loads,
        global_stores,
        shared,
    })
}

/// Compile the loop op at `at` — a uniform-counter `For`, or a `While` — whose
/// ranges are straight lines of fusible ops, optionally with *guards* —
/// else-less `If`s over a fusible straight line, the tail-guard shape
/// `for_elements { if i < n { .. } }`. At one lane a guard is a forward skip
/// in the step list and a `While` is the guarded loop `cond steps; exit
/// unless cond; body steps`, so such loops fuse too. `None` when anything in
/// the loop needs the interpreter.
fn try_fuse(wp: &WarpProgram, at: usize, n_fused: &mut usize) -> Option<FusedLoop> {
    let (form, hi, body) = match wp.ops[at] {
        LOp::For {
            counter,
            start,
            end,
            body_len,
            vectorize,
        } if is_u(counter) => {
            let form = Form::For {
                counter,
                start,
                end,
                vectorize,
            };
            let hi = at + 1 + body_len as usize;
            (form, hi, wp.ops[at + 1..hi].to_vec())
        }
        LOp::While {
            cond,
            cond_len,
            body_len,
        } => {
            // The exit sits between the condition's ops and the body's, as
            // a bare `While`.
            let hi = at + 1 + (cond_len + body_len) as usize;
            let (c, b) = wp.ops[at + 1..hi].split_at(cond_len as usize);
            let exit = LOp::While {
                cond,
                cond_len: 0,
                body_len: 0,
            };
            (Form::While, hi, [c, &[exit], b].concat())
        }
        _ => return None,
    };
    let body = &body[..];
    // Guard skips are 16-bit step counts, and the only `While` a step list
    // can hold is the exit.
    let inner = |op: &LOp| matches!(op, LOp::While { .. });
    if body.len() > usize::from(u16::MAX) || wp.ops[at + 1..hi].iter().any(inner) {
        return None;
    }
    // Split the body into its unguarded line and the guards' lines; past a
    // `While`'s exit the unguarded ops are the loop body's, charged with it.
    let mut per_iter = Charge::default();
    let mut guards = Vec::new();
    let mut own = None;
    let mut pc = 0;
    while pc < body.len() {
        // The ops `body[pc]` heads (itself, if it is a plain op) and the
        // guard they are charged with.
        let (head, len, to) = match body[pc] {
            LOp::While { .. } => {
                own = Some(guards.len());
                (1, 0, own)
            }
            LOp::If {
                then_len,
                else_len: 0,
                ..
            } => (1, then_len as usize, Some(guards.len())),
            _ => (0, 1, own),
        };
        let line = &body[pc + head..][..len];
        if !line.iter().all(fusible) {
            return None;
        }
        if to == Some(guards.len()) {
            guards.push(Charge::default());
        }
        to.map_or(&mut per_iter, |g| &mut guards[g])
            .add(Charge::of(line), 1);
        pc += head + len;
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
    let stream = match form {
        Form::For { counter, .. } => build_stream(&steps, counter),
        Form::While => None,
    };
    *n_fused += 1;
    Some(FusedLoop {
        form,
        lo: at,
        hi,
        turbo,
        sites,
        stream,
        id: *n_fused - 1,
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
        CNode::For { body, .. } | CNode::While { body, .. } => contains_fused(body),
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
/// interpreter executes them exactly as the lowered tier would.
fn compile_range(wp: &WarpProgram, lo: usize, hi: usize, n_fused: &mut usize) -> Vec<CNode> {
    let mut nodes = Vec::new();
    let mut run_start = lo;
    let mut pc = lo;
    while pc < hi {
        // The structured node a control op becomes, if it holds fused work,
        // and the op after it.
        let (node, end) = match wp.ops[pc] {
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
                let fused = contains_fused(&then) || contains_fused(&els);
                (fused.then_some(CNode::If { cond, then, els }), end)
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
                let fused = try_fuse(wp, pc, n_fused).map(CNode::Fused);
                let node = fused.or_else(|| {
                    // A `For` over per-lane bounds stays with the interpreter.
                    if !is_u(counter) {
                        return None;
                    }
                    let body = compile_range(wp, b0, bend, n_fused);
                    contains_fused(&body).then_some(CNode::For {
                        counter,
                        start,
                        end,
                        vectorize,
                        body,
                    })
                });
                (node, bend)
            }
            LOp::While {
                cond,
                cond_len,
                body_len,
            } => {
                let c0 = pc + 1;
                let b0 = c0 + cond_len as usize;
                let bend = b0 + body_len as usize;
                let fused = try_fuse(wp, pc, n_fused).map(CNode::Fused);
                let node = fused.or_else(|| {
                    let body = compile_range(wp, b0, bend, n_fused);
                    contains_fused(&body).then_some(CNode::While { cond, c0, b0, body })
                });
                (node, bend)
            }
            _ => (None, pc + 1),
        };
        if let Some(node) = node {
            flush_run(wp, &mut nodes, run_start, pc);
            nodes.push(node);
            run_start = end;
        }
        pc = end;
    }
    flush_run(wp, &mut nodes, run_start, hi);
    nodes
}

/// Compile a lowered program into its direct-threaded form; `None` when no
/// loop fused — the tree would replay the flat op list one dispatch layer
/// deeper than the lowered interpreter, so the launch runs that instead.
/// Kept next to the lowered form, see `lower::Prepared`.
pub(crate) fn compile(wp: &Arc<WarpProgram>) -> Option<CompiledProgram> {
    let mut n_fused = 0usize;
    let root = compile_range(wp, 0, wp.ops.len(), &mut n_fused);
    (n_fused > 0).then(|| CompiledProgram {
        wp: Arc::clone(wp),
        root,
        n_fused,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The fused tier's block loop: the shared per-worker loop
/// (`run_warp_blocks`), executing each block through the compiled tree.
/// Blocks have one thread (the launch driver compiles nothing else), so
/// every node runs under the block's full one-lane mask at depth 0.
pub(crate) fn interpret_blocks_compiled(
    ctx: &LaunchCtx<'_>,
    mem: MemAccess<'_>,
    team: usize,
    worker: usize,
    indices: &[usize],
    cp: &CompiledProgram,
) -> Result<WorkerOut, (usize, SimError)> {
    assert_eq!(ctx.lanes, 1, "the compiled tier runs one-thread blocks");
    let mut prep: Vec<Option<Box<[Site]>>> = (0..cp.n_fused).map(|_| None).collect();
    run_warp_blocks(ctx, mem, team, worker, indices, &cp.wp, |m, st| {
        let mask = std::mem::take(&mut st.masks[0]);
        // Same fault-attribution rule as the lowered tier's `exec_range`.
        let r = cexec_nodes(m, st, &cp.wp, &cp.root, &mask, &mut prep).map_err(|e| {
            if e.thread.is_none() && matches!(e.kind, crate::fault::SimErrorKind::Fault { .. }) {
                e.at_thread(st.tid[0])
            } else {
                e
            }
        });
        st.masks[0] = mask;
        r
    })
}

fn cexec_nodes(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    nodes: &[CNode],
    mask: &MaskBuf,
    prep: &mut PrepTable,
) -> R<()> {
    for node in nodes {
        match node {
            CNode::Range { lo, hi } => exec_ops(m, st, wp, *lo, *hi, 0, mask)?,
            CNode::Steps(sr) => {
                if m.fuel >= sr.charge.n {
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
                    exec_ops(m, st, wp, sr.lo, sr.hi, 0, mask)?;
                }
            }
            CNode::If { cond, then, els } => {
                // One lane: the taken side's mask is the parent's and no
                // warp can diverge, so the branch runs in place.
                let side = if rd1(st, *cond) != 0 { then } else { els };
                cexec_nodes(m, st, wp, side, mask, prep)?;
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
                        cexec_nodes(m, st, wp, body, mask, prep)?;
                        if opened {
                            if let Some(r) = &mut m.region {
                                r.advance(1);
                            }
                        }
                        k += 1;
                    }
                    Ok(())
                })();
                close_region(m, opened);
                result?;
            }
            CNode::While { cond, c0, b0, body } => loop {
                // One lane: the loop's mask is the parent's until the lane
                // leaves, which ends the loop; no region bookkeeping.
                m.burn()?;
                exec_ops(m, st, wp, *c0, *b0, 0, mask)?;
                if rd1(st, *cond) == 0 {
                    break;
                }
                cexec_nodes(m, st, wp, body, mask, prep)?;
            },
            CNode::Fused(fl) => exec_fused(m, st, wp, fl, mask, prep)?,
        }
    }
    Ok(())
}

/// Mirror of the lowered tier's region bookkeeping around a `For` op:
/// open a vectorization probe for outermost element loops on SIMD CPU
/// models (a loop nested in an open region belongs to it).
#[inline]
fn open_region(m: &mut Machine<'_>, vectorize: bool) -> bool {
    let opened =
        vectorize && m.spec.kind == DeviceKind::Cpu && m.spec.simd_width > 1 && m.region.is_none();
    if opened {
        m.region = Some(RegionAcc::default());
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
    }
}

/// A fused loop of fewer trips runs the interpreter's loop: entering the
/// step list (site table, hoisted memory view, cursor aiming, one batched
/// booking) costs about what interpreting eight short iterations does —
/// measured on the tiled DGEMM at `t = 1`, where `e` is the trip count of
/// every inner loop: slower than the interpreter for `e` in 3..=6, level at
/// 8, 2.5x faster at 16.
const MIN_FUSED_TRIPS: u64 = 8;

/// Execute one fused loop. The step list runs a `For` of at least
/// [`MIN_FUSED_TRIPS`] trips with fuel for every one of them even if every
/// guard is taken, and of a `While` — whose trip count is unknown at entry —
/// as many iterations as the fuel pays for on those terms, in both cases with
/// every buffer slot bound, and books `iterations × per_iter + Σ taken ×
/// guard` in one batch. Anything else, and what is left of a `While` whose
/// budget ran out before its exit fired, is the interpreter's, handed the
/// loop op itself on the same state for exact parity: an unbound slot then
/// faults at the exact step that first touches it, and a `While` re-entered
/// at an iteration boundary finds its whole state in vars and registers.
fn exec_fused(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    fl: &FusedLoop,
    mask: &MaskBuf,
    prep: &mut PrepTable,
) -> R<()> {
    let all_taken = 1 + fl.per_iter.n + fl.guards.iter().map(|g| g.n).sum::<u64>();
    let (k, trips) = match fl.form {
        Form::For { start, end, .. } => {
            let (s0, e0) = (st.udi(start), st.udi(end));
            // i64 differences always fit u64 when positive.
            let trips = u64::try_from(e0 as i128 - s0 as i128).unwrap_or(0);
            let fits = trips >= MIN_FUSED_TRIPS
                && trips.checked_mul(all_taken).is_some_and(|n| m.fuel >= n);
            (s0, if fits { trips } else { 0 })
        }
        Form::While => (0, m.fuel / all_taken),
    };
    let fast = trips > 0
        && (prep[fl.id].is_some() || {
            prep[fl.id] = prepare_sites(m, &fl.sites).ok();
            prep[fl.id].is_some()
        });
    if !fast {
        return exec_ops(m, st, wp, fl.lo, fl.hi, 0, mask);
    }
    debug_assert!(
        m.profile.is_none(),
        "traced launches must run the lowered tier"
    );
    let sites = prep[fl.id].as_deref().expect("prepared above");
    // The interpreter's `While` leaves the enclosing region alone.
    let opened = match fl.form {
        Form::For { vectorize, .. } => Some(open_region(m, vectorize)),
        Form::While => None,
    };
    let result = run_turbo(m, st, fl, sites, mask, (k, trips), opened == Some(true)).map(
        |(mut total, begun, finished)| {
            total.add(fl.per_iter, begun);
            // One batched burn and booking for the whole loop: identical to
            // the per-iteration burns and `Account` ops of the interpreted
            // path because nothing in between can observe the fuel level or
            // the stat sums (errors abort the launch before they are
            // reported).
            m.fuel -= begun + total.n;
            total.book(m, mask);
            finished
        },
    );
    if let Some(opened) = opened {
        close_region(m, opened);
    }
    if !result? {
        exec_ops(m, st, wp, fl.lo, fl.hi, 0, mask)?;
    }
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

/// Aim `s`'s cursors at iterations `k..k + trips`: run the index ops at
/// `k + 1` and at `k` — the difference of an access's two indices is its
/// stride, exactly, because wrapping i64 arithmetic is a ring — and check
/// each access's first and last element against its array in i128, where
/// `first + stride × (trips - 1)` cannot wrap (|stride| <= 2^63 and
/// `trips` < 2^64), so a cursor that passes holds the very index the step
/// loop would compute, in bounds, at every iteration. `false` leaves the
/// loop to the step list, which recomputes the registers written here and
/// faults at the exact iteration.
fn aim(
    st: &mut LowState,
    s: &Stream,
    counter: u32,
    sites: &[Site],
    (k, trips): (i64, u64),
    cur: &mut [Cur],
) -> bool {
    for next in [true, false] {
        st.wu(counter, k.wrapping_add(next as i64) as u64);
        for &(op, d, a, b) in &s.index_ops {
            wr1(st, d, sem::ibin(op, rd1i(st, a), rd1i(st, b)) as u64);
        }
        for (c, cr) in cur.iter_mut().zip(&s.cursors) {
            let (space, ix) = (cr.space, rd1i(st, cr.idx));
            // The index at `k + 1` waits in `stride` for the one at `k`.
            let (pos, stride) = if next {
                (0, ix)
            } else {
                (ix, c.stride.wrapping_sub(ix))
            };
            *c = Cur { space, pos, stride };
        }
    }
    cur[..s.cursors.len()].iter().all(|c| {
        let len = match c.space {
            Space::Global(site) => sites[site as usize].len,
            Space::Shared(sh) => st.shared[sh as usize].len(),
            Space::Local(loc) => st.loc_f[loc as usize].len(),
        } as i128;
        let last = c.pos as i128 + c.stride as i128 * (trips as i128 - 1);
        (0..len).contains(&(c.pos as i128)) && (0..len).contains(&last)
    })
}

/// The turbo loop: superop steps over pre-resolved sites, with the memory
/// view, cache, ECC context and line geometry hoisted out of the loop.
/// Preconditions (checked by `exec_fused`): fuel for all `trips` iterations
/// from `k`, no profiling. A `For` runs them all; a `While` until its exit
/// step fires, with `trips` the most it may begin. An affine [`Stream`] that
/// [`aim`]s in bounds (and is not ECC-armed: the decision is per address)
/// runs its residual steps over cursors — no index arithmetic, no
/// per-access bounds check, access counts booked once. Probe logging (a region's first two
/// iterations) is mirrored inline, access for access. Returns what the
/// taken guards charge on top of the per-iteration constants, the
/// iterations begun, and whether the loop is over (a `While` that used up
/// `trips` without leaving is not).
fn run_turbo(
    m: &mut Machine<'_>,
    st: &mut LowState,
    fl: &FusedLoop,
    sites: &[Site],
    mask: &MaskBuf,
    (mut k, trips): (i64, u64),
    bump_iter: bool,
) -> R<(Charge, u64, bool)> {
    let ecc = m.ecc;
    let blk = m.cur_block_lin;
    let tid0 = st.tid[0];
    let line_bytes = m.spec.line_bytes as u64;
    let line_shift = m.line_shift;
    let line_of = |a: u64| a >> line_shift;
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
    let mut cur = [Cur {
        space: Space::Local(0),
        pos: 0,
        stride: 0,
    }; MAX_CURSORS];
    let counter = match fl.form {
        Form::For { counter, .. } => Some(counter),
        Form::While => None,
    };
    let stream = fl.stream.as_ref().zip(counter).and_then(|(s, c)| {
        (ecc.is_none() && aim(st, s, c, sites, (k, trips), &mut cur)).then_some(s)
    });
    let steps = stream.map_or(&fl.turbo, |s| &s.steps);
    // The log a global access's address goes to while the enclosing region
    // probes; re-resolved per segment of iterations below.
    let mut probe: Option<(&mut Vec<u64>, &mut bool)>;

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
            global!(a);
        }};
    }
    macro_rules! gstore {
        ($site:expr, $ix:expr, $val:expr, $what:literal) => {{
            let (cell, a) = sites[$site as usize].cell($what, $ix, tid0)?;
            cell.store($val, Ordering::Relaxed);
            stats.global_stores += 1;
            global!(a);
        }};
    }
    // What `Machine::mem_access_one` does with a global access's address:
    // log it while the enclosing region's first two iterations are being
    // probed (sealing the log on overflow), then charge its line.
    macro_rules! probe_push {
        ($a:expr) => {{
            if let Some((log, failed)) = probe.as_mut() {
                if !**failed {
                    log.push($a);
                    **failed = log.len() > 4096;
                }
            }
        }};
    }
    macro_rules! global {
        ($a:expr) => {{
            probe_push!($a);
            charge_line(&mut cache, stats, line_of($a), line_bytes);
        }};
    }
    // A cursor's global access: the line's hit/miss and transaction counts
    // are recovered after the loop from the cache's own counters (only
    // cursors touch the cache while a stream runs).
    macro_rules! cursor_global {
        ($a:expr) => {{
            probe_push!($a);
            if let Some(c) = cache.as_mut() {
                c.access_line(line_of($a));
            }
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

    let (hits0, misses0) = cache.as_ref().map_or((0, 0), |c| (c.hits, c.misses));
    let mut taken = Charge::default();
    let (mut begun, mut finished) = (trips, counter.is_some());
    let mut left = trips;
    'run: while left > 0 {
        // The probe log is fixed across a segment of iterations: a loop that
        // drives its own region moves to the next log after each of its
        // first two iterations, any other loop never does.
        probe = region.as_mut().and_then(RegionAcc::probe_log);
        let n = if bump_iter && probe.is_some() {
            1
        } else {
            left
        };
        if let Some((v, a_first)) = stream.and_then(|s| s.dot) {
            let (Space::Global(sa), Space::Global(sb)) = (cur[0].space, cur[1].space) else {
                unreachable!("the inner product reads two global cursors");
            };
            let var = if is_u(v) {
                &mut st.uvars[idx(v)]
            } else {
                &mut st.vvars[v as usize]
            };
            let (sa, sb) = (sites[sa as usize], sites[sb as usize]);
            let (mut ca, mut cb) = (cur[0], cur[1]);
            let mut acc = f64::from_bits(*var);
            // Fresh locals: the function-wide `probe` and `cache` have their
            // addresses taken and would be reloaded around every call.
            let mut log = probe
                .as_mut()
                .map(|(log, failed)| (&mut **log, &mut **failed));
            let mut ch = cache.as_deref_mut();
            let mut line = |a: u64| {
                if let Some((log, failed)) = log.as_mut() {
                    if !**failed {
                        log.push(a);
                        **failed = log.len() > 4096;
                    }
                }
                if let Some(c) = ch.as_mut() {
                    c.access_line(line_of(a));
                }
            };
            for _ in 0..n {
                let (pa, pb) = (ca.pos as usize, cb.pos as usize);
                // SAFETY: as for `LdC` below.
                let la = unsafe { sa.cell_unchecked(pa) }.load(Ordering::Relaxed);
                line(sa.base + pa as u64 * 8);
                // SAFETY: as for `LdC` below.
                let lb = unsafe { sb.cell_unchecked(pb) }.load(Ordering::Relaxed);
                line(sb.base + pb as u64 * 8);
                let (x, y) = if a_first { (la, lb) } else { (lb, la) };
                acc = sem::fma(f64::from_bits(x), f64::from_bits(y), acc);
                ca.pos = ca.pos.wrapping_add(ca.stride);
                cb.pos = cb.pos.wrapping_add(cb.stride);
            }
            (cur[0], cur[1]) = (ca, cb);
            *var = acc.to_bits();
        } else {
            for _ in 0..n {
                if let Some(c) = counter {
                    st.wu(c, k as u64);
                }
                let mut it = steps.iter();
                while let Some(sp) = it.next() {
                    match *sp {
                        SStep::Pure(ref op) => lanes::alu::<true>(st, mask, op)?,
                        SStep::Shared(ref op) => {
                            lanes::shared1(st, op)?;
                            stats.shared_accesses += 1;
                        }
                        SStep::LdC { d, c } => {
                            let cu = &mut cur[c as usize];
                            let p = cu.pos as usize;
                            cu.pos = cu.pos.wrapping_add(cu.stride);
                            let bits = match cu.space {
                                Space::Global(site) => {
                                    let site = &sites[site as usize];
                                    cursor_global!(site.base + p as u64 * 8);
                                    // SAFETY: `aim` checked every position this
                                    // cursor takes in `trips` iterations, one
                                    // access each, against `site.len`.
                                    unsafe { site.cell_unchecked(p) }.load(Ordering::Relaxed)
                                }
                                Space::Shared(sh) => st.shared[sh as usize][p],
                                Space::Local(loc) => st.loc_f[loc as usize][p].to_bits(),
                            };
                            wr1(st, d, bits);
                        }
                        SStep::StC { c, val } => {
                            let cu = &mut cur[c as usize];
                            let p = cu.pos as usize;
                            cu.pos = cu.pos.wrapping_add(cu.stride);
                            let bits = rd1(st, val);
                            match cu.space {
                                Space::Global(site) => {
                                    let site = &sites[site as usize];
                                    cursor_global!(site.base + p as u64 * 8);
                                    // SAFETY: as for `LdC`.
                                    unsafe { site.cell_unchecked(p) }
                                        .store(bits, Ordering::Relaxed);
                                }
                                Space::Shared(sh) => st.shared[sh as usize][p] = bits,
                                Space::Local(loc) => {
                                    st.loc_f[loc as usize][p] = f64::from_bits(bits)
                                }
                            }
                        }
                        SStep::Guard { cond, skip, charge } => {
                            if rd1(st, cond) != 0 {
                                taken.add(fl.guards[charge as usize], 1);
                            } else {
                                it = it.as_slice()[skip as usize..].iter();
                            }
                        }
                        SStep::Exit { cond, charge } => {
                            if rd1(st, cond) == 0 {
                                // A `While` counts `k` from zero.
                                (begun, finished) = (k as u64 + 1, true);
                                break 'run;
                            }
                            taken.add(fl.guards[charge as usize], 1);
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
                k = k.wrapping_add(1);
            }
        }
        if bump_iter {
            if let Some(r) = region.as_mut() {
                r.advance(n);
            }
        }
        left -= n;
    }
    if let Some(s) = stream {
        stats.global_loads += s.global_loads * trips;
        stats.global_stores += s.global_stores * trips;
        stats.shared_accesses += s.shared * trips;
        let lines = (s.global_loads + s.global_stores) * trips;
        stats.mem_transactions += lines;
        match cache {
            Some(c) => {
                stats.cache_hits += c.hits - hits0;
                stats.cache_misses += c.misses - misses0;
                stats.dram_bytes += (c.misses - misses0) * line_bytes;
            }
            None => stats.dram_bytes += lines * line_bytes,
        }
    }
    Ok((taken, begun, finished))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::kernel::Kernel;
    use alpaka_core::ops::KernelOps;

    /// The hot loops of the paper's kernels, one after the other.
    struct PaperLoops;

    impl Kernel for PaperLoops {
        fn name(&self) -> &str {
            "paper_loops"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let (x, y) = (o.buf_f(0), o.buf_f(1));
            let (sh, acc) = (o.shared_f(64), o.local_f(64));
            let (n, row, a) = (o.param_i(0), o.param_i(1), o.param_f(0));
            let (tx, zero, zero_f) = (o.thread_idx(0), o.lit_i(0), o.lit_f(0.0));
            // DgemmTiled { t: 1 }: acc[ie + j] += av * shB[brow + (tx + j)]
            o.for_elements(0, |o, j| {
                let lc = o.add_i(tx, j);
                let bi = o.add_i(row, lc);
                let bv = o.ld_sf(sh, bi);
                let q = o.add_i(n, j);
                let cur = o.ld_lf(acc, q);
                let nx = o.fma_f(a, bv, cur);
                o.st_lf(acc, q, nx);
            });
            // DgemmNaive: sum += A[a_row + p] * B[p * ldb + j]
            let sum = o.fold_range_f(zero, n, zero_f, |o, p, s| {
                let ai = o.add_i(row, p);
                let av = o.ld_gf(x, ai);
                let brow = o.mul_i(p, n);
                let bi = o.add_i(brow, tx);
                let bv = o.ld_gf(y, bi);
                o.fma_f(av, bv, s)
            });
            o.st_gf(y, zero, sum);
            // DAXPY: if base + e < n { y[i] = a * x[i] + y[i] }
            o.for_elements(0, |o, e| {
                let i = o.add_i(row, e);
                let c = o.lt_i(i, n);
                o.if_(c, |o| {
                    let (xv, yv) = (o.ld_gf(x, i), o.ld_gf(y, i));
                    let r = o.fma_f(xv, a, yv);
                    o.st_gf(y, i, r);
                });
            });
            // The ASE ray march: while 0 <= pos < a && steps < n
            // { flux += exp(opt); opt += gain[cell(pos)]; pos += a; .. }
            let (pos, opt, steps) = (o.var_f(a), o.var_f(zero_f), o.var_i(zero));
            o.while_(
                |o| {
                    let (pv, sv) = (o.vget_f(pos), o.vget_i(steps));
                    let (c1, c2, c3) = (o.ge_f(pv, zero_f), o.lt_f(pv, a), o.lt_i(sv, n));
                    let c = o.and_b(c1, c2);
                    o.and_b(c, c3)
                },
                |o| {
                    let (pv, ov, sv) = (o.vget_f(pos), o.vget_f(opt), o.vget_i(steps));
                    let cell = o.f2i(pv);
                    let (cx, cy) = (o.max_i(cell, zero), o.min_i(cell, row));
                    let at = o.mul_i(cy, n);
                    let at = o.add_i(at, cx);
                    let (g, amp) = (o.ld_gf(x, at), o.exp_f(ov));
                    let (no, np) = (o.add_f(amp, g), o.add_f(pv, a));
                    o.vset_f(opt, no);
                    o.vset_f(pos, np);
                    let ns = o.add_i(sv, tx);
                    o.vset_i(steps, ns);
                },
            );
        }
    }

    /// What the paper's kernels compile to must not silently change: the
    /// tiled DGEMM's accumulate loop (`t = 1`) and the naive DGEMM's inner
    /// product are affine streams, DAXPY's tail-guarded element loop is a
    /// guarded step list, the ASE ray march a `While` step list — which is
    /// what puts Fig. 10's kernel on this tier at all.
    #[test]
    fn the_papers_loops_fuse_as_expected() {
        let mut prog = alpaka_kir::trace_kernel(&PaperLoops, 1);
        alpaka_kir::optimize(&mut prog);
        let wp = Arc::new(crate::lower::lower(&prog).expect("a valid program"));
        let compiled = compile(&wp).expect("loops that fuse");
        let loops: Vec<FusedLoop> = (compiled.root.into_iter())
            .filter_map(|n| match n {
                CNode::Fused(fl) => Some(fl),
                _ => None,
            })
            .collect();
        let [tiled, naive, daxpy, march] = &loops[..] else {
            panic!("{} loops fused, not four", loops.len());
        };
        let s = tiled.stream.as_ref().expect("the accumulate loop streams");
        assert_eq!((s.index_ops.len(), s.shared, s.dot), (3, 1, None));
        let spaces: Vec<Space> = s.cursors.iter().map(|c| c.space).collect();
        assert!(matches!(
            (&s.steps[..], &spaces[..]),
            (
                [
                    SStep::LdC { c: 0, .. },
                    SStep::LdC { c: 1, .. },
                    SStep::Fma { .. },
                    SStep::StC { c: 2, .. }
                ],
                [Space::Shared(0), Space::Local(0), Space::Local(0)]
            )
        ));
        let s = naive.stream.as_ref().expect("the inner product streams");
        assert!(matches!((s.global_loads, s.dot), (2, Some((_, true)))));
        assert!(daxpy.stream.is_none(), "a guarded body is not a stream");
        assert_eq!(daxpy.guards.len(), 1);
        assert!(matches!(
            daxpy.turbo[..],
            [_, _, SStep::Guard { skip: 4, .. }, ..]
        ));
        // The condition's seven ops, the exit, then the body, whose gain load
        // takes its `cy * n + cx` with it.
        assert!(matches!(march.form, Form::While) && march.guards.len() == 1);
        assert!(matches!(march.turbo[7], SStep::Exit { charge: 0, .. }));
        let folded = |s: &SStep| matches!(s, SStep::LdFMulAdd { .. });
        assert_eq!(march.turbo[8..].iter().filter(|s| folded(s)).count(), 1);

        let mut ase_prog = alpaka_kir::trace_kernel(&hase::AseKernel, 1);
        alpaka_kir::optimize(&mut ase_prog);
        let cached = crate::lower::cached_for(&ase_prog);
        let ase = &cached.prepared;
        let wp = ase.lowered(&ase_prog).expect("a valid program");
        assert!(ase.compiled(&wp).is_some());
    }
}
