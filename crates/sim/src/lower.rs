//! Pre-lowered warp programs: the compile-once / execute-many interpreter
//! every `Engine::Compiled` launch starts from. It is not an engine of its
//! own: it runs the blocks of multi-lane launches, of traced launches and
//! of programs with nothing to fuse, and everything `crate::compile` hands
//! back.
//!
//! Who keeps the lowered form: a [`Prepared`], held by the caller (every
//! kernel `alpaka-accsim` compiled: such a launch looks nothing up, takes no
//! lock, copies no program) or, for a launch handed a bare `&Program`, by
//! the process-wide `cached_for`. Either way a miss lowers: 3-60 us.
//!
//! [`lower`] turns a validated [`Program`] into a [`WarpProgram`] — a flat
//! array of pre-decoded ops with all operand slots resolved — using the
//! static uniformity analysis from `alpaka_kir::passes`:
//!
//! * **Uniform** values (lane-invariant: block indices, params, constants,
//!   loads at uniform indices, …) live in a *scalar* register file and are
//!   computed once per block instead of once per lane. Instruction issue,
//!   divergence and coalescing accounting still charge full-warp costs —
//!   the analysis changes host work, never the modeled device time.
//! * Constants are folded into a per-worker register preload and disappear
//!   from the execution stream entirely (their issue/fuel charge remains).
//! * Straight-line runs of instructions are charged as one `Account` op:
//!   one fuel check and one issue/flop update per run instead of per
//!   instruction.
//! * Structured control flow becomes range-delimited regions over the flat
//!   op array, executed under pooled lane masks with per-warp active and
//!   issue counts precomputed.
//!
//! Execution results — buffer contents, `LaunchStats`, `TimeBreakdown` —
//! are bit-identical to the tree-walking reference interpreter in
//! `crate::interp` and to `alpaka_kir::eval`; the determinism suite in
//! `tests/parallel_determinism.rs` pins this. Programs that fail IR
//! validation are not lowered: the launch fails with the validator's text
//! (`check_ir`) on either engine.

// Lockstep execution iterates lane indices under an active mask across
// several parallel per-lane arrays; the explicit-index form is clearest.
#![allow(clippy::needless_range_loop)]

use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use alpaka_core::acc::DeviceKind;
use alpaka_kir::ir::*;
use alpaka_kir::{atomics_summary, uniformity, validate, AtomicsSummary, Uniformity};

use alpaka_core::trace::BlockSpan;

use crate::compile::{compile, CompiledProgram};
use crate::fault::SimError;
use crate::interp::RegionAcc;
use crate::interp::{
    make_machine, stats_issue_cycles, trip_live, LaunchCtx, Machine, MapI64, MemAccess, Run,
    WorkerOut, R,
};
use crate::lanes;

/// Register-slot encoding: the top bit selects the scalar (uniform) file,
/// the low bits are the `ValId`/`VarId` index.
pub(crate) const U_BIT: u32 = 1 << 31;

#[inline]
pub(crate) fn is_u(slot: u32) -> bool {
    slot & U_BIT != 0
}

#[inline]
pub(crate) fn idx(slot: u32) -> usize {
    (slot & !U_BIT) as usize
}

/// One pre-decoded op. Operand fields are register slots (`U_BIT` selects
/// the uniform file); control-flow ops delimit ranges of the flat array.
/// Shared with `crate::compile`, which re-threads ranges of these ops into
/// fused loops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LOp {
    /// Charge a straight-line run: `n` instructions of fuel and issue,
    /// plus `flops`/`special` per active lane. `detail` indexes the first
    /// of the run's `n` per-instruction entries in `WarpProgram::acct`
    /// (used only when profiling).
    Account {
        n: u64,
        flops: u64,
        special: u64,
        detail: u32,
    },
    BinF {
        op: FBin,
        d: u32,
        a: u32,
        b: u32,
    },
    UnF {
        op: FUn,
        d: u32,
        a: u32,
    },
    Fma {
        d: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    BinI {
        op: IBin,
        d: u32,
        a: u32,
        b: u32,
    },
    NegI {
        d: u32,
        a: u32,
    },
    CmpF {
        op: Cmp,
        d: u32,
        a: u32,
        b: u32,
    },
    CmpI {
        op: Cmp,
        d: u32,
        a: u32,
        b: u32,
    },
    BinB {
        op: BBin,
        d: u32,
        a: u32,
        b: u32,
    },
    NotB {
        d: u32,
        a: u32,
    },
    /// `SelF`/`SelI` unified: selection is a bit-level copy.
    Sel {
        d: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    I2F {
        d: u32,
        a: u32,
    },
    F2I {
        d: u32,
        a: u32,
    },
    U2UnitF {
        d: u32,
        a: u32,
    },
    Special {
        d: u32,
        r: SpecialReg,
    },
    ParamF {
        d: u32,
        s: u32,
    },
    ParamI {
        d: u32,
        s: u32,
    },
    LdGF {
        d: u32,
        buf: u32,
        i: u32,
    },
    LdGI {
        d: u32,
        buf: u32,
        i: u32,
    },
    LdSF {
        d: u32,
        sh: u32,
        i: u32,
    },
    LdSI {
        d: u32,
        sh: u32,
        i: u32,
    },
    LdLF {
        d: u32,
        loc: u32,
        i: u32,
        len: u32,
    },
    /// `LdVarF`/`LdVarI` unified: a bit-level copy from the var file.
    LdVar {
        d: u32,
        v: u32,
    },
    StGF {
        buf: u32,
        i: u32,
        val: u32,
    },
    StGI {
        buf: u32,
        i: u32,
        val: u32,
    },
    StSF {
        sh: u32,
        i: u32,
        val: u32,
    },
    StSI {
        sh: u32,
        i: u32,
        val: u32,
    },
    StLF {
        loc: u32,
        i: u32,
        val: u32,
        len: u32,
    },
    /// `StVarF`/`StVarI` unified: a bit-level copy into the var file.
    StVar {
        v: u32,
        val: u32,
    },
    Sync,
    AtomicF {
        op: AtomicOp,
        d: u32,
        buf: u32,
        i: u32,
        val: u32,
    },
    AtomicI {
        op: AtomicOp,
        d: u32,
        buf: u32,
        i: u32,
        val: u32,
    },
    /// `then` ops follow immediately, `else` ops after them.
    If {
        cond: u32,
        then_len: u32,
        else_len: u32,
    },
    /// Body ops follow immediately. `counter` carries `U_BIT` iff the
    /// bounds are statically uniform.
    For {
        counter: u32,
        start: u32,
        end: u32,
        body_len: u32,
        vectorize: bool,
    },
    /// Condition ops follow immediately, body ops after them.
    While {
        cond: u32,
        cond_len: u32,
        body_len: u32,
    },
}

impl LOp {
    /// Compute, variable and local-array ops: they touch only the block's
    /// registers and private arrays (`crate::lanes::alu` executes them).
    #[inline(always)]
    pub(crate) fn is_compute(&self) -> bool {
        matches!(
            self,
            LOp::BinF { .. }
                | LOp::UnF { .. }
                | LOp::Fma { .. }
                | LOp::BinI { .. }
                | LOp::NegI { .. }
                | LOp::CmpF { .. }
                | LOp::CmpI { .. }
                | LOp::BinB { .. }
                | LOp::NotB { .. }
                | LOp::Sel { .. }
                | LOp::I2F { .. }
                | LOp::F2I { .. }
                | LOp::U2UnitF { .. }
                | LOp::LdVar { .. }
                | LOp::StVar { .. }
                | LOp::LdLF { .. }
                | LOp::StLF { .. }
        )
    }
}

/// A lowered program: flat op stream plus the constant preload. Produced by
/// [`lower`], kept per `Program` in its [`Prepared`], shared
/// across interpreter workers via `Arc`.
#[derive(Debug)]
pub struct WarpProgram {
    pub(crate) ops: Vec<LOp>,
    /// `(uniform-register, bits)` pairs written once per worker.
    pub(crate) const_init: Vec<(u32, u64)>,
    pub(crate) n_vals: usize,
    pub(crate) n_vars: usize,
    /// Canonical source-statement id per op (parallel to `ops`), matching
    /// `crate::profile::Numbering`'s pre-order walk. Read only when
    /// profiling.
    pub(crate) op_instr: Vec<u32>,
    /// Per-instruction `(id, flops, special)` shares of the `Account` runs;
    /// see `LOp::Account::detail`.
    pub(crate) acct: Vec<AcctEntry>,
}

/// One source instruction's share of a straight-line `Account` run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AcctEntry {
    pub(crate) id: u32,
    pub(crate) flops: u32,
    pub(crate) special: u32,
}

impl WarpProgram {
    /// Number of pre-decoded ops in the flat stream.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the op stream is empty (a program with an empty body).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

struct Lowerer<'a> {
    u: &'a Uniformity,
    prog: &'a Program,
    ops: Vec<LOp>,
    op_instr: Vec<u32>,
    const_init: Vec<(u32, u64)>,
    /// Index of the currently open `Account` op, if any.
    acct: Option<usize>,
    acct_detail: Vec<AcctEntry>,
    /// Canonical id of the statement being lowered; assigned in the same
    /// pre-order walk `crate::profile::Numbering` uses, so both engines
    /// agree on attribution.
    cur_id: u32,
    next_id: u32,
}

impl<'a> Lowerer<'a> {
    fn slot(&self, v: ValId) -> u32 {
        if self.u.val(v) {
            v.0 | U_BIT
        } else {
            v.0
        }
    }

    fn var_slot(&self, v: VarId) -> u32 {
        if self.u.var(v) {
            v.0 | U_BIT
        } else {
            v.0
        }
    }

    /// Append `op` to the stream, tagged with the current statement id.
    fn push(&mut self, op: LOp) {
        self.ops.push(op);
        self.op_instr.push(self.cur_id);
    }

    /// Charge one issuing instruction (with optional flop/special weight)
    /// to the open straight-line run, opening one if needed.
    fn charge(&mut self, flops: u64, special: u64) {
        self.acct_detail.push(AcctEntry {
            id: self.cur_id,
            flops: flops as u32,
            special: special as u32,
        });
        match self.acct {
            Some(i) => {
                if let LOp::Account {
                    n,
                    flops: f,
                    special: s,
                    ..
                } = &mut self.ops[i]
                {
                    *n += 1;
                    *f += flops;
                    *s += special;
                }
            }
            None => {
                let detail = (self.acct_detail.len() - 1) as u32;
                self.push(LOp::Account {
                    n: 1,
                    flops,
                    special,
                    detail,
                });
                self.acct = Some(self.ops.len() - 1);
            }
        }
    }

    /// End the current straight-line run (before control flow or a region
    /// boundary).
    fn seal(&mut self) {
        self.acct = None;
    }

    fn lower_block(&mut self, b: &Block) {
        self.seal();
        for stmt in &b.0 {
            self.lower_stmt(stmt);
        }
        self.seal();
    }

    #[allow(clippy::too_many_lines)]
    fn lower_stmt(&mut self, stmt: &Stmt) {
        if !matches!(stmt, Stmt::Comment(_)) {
            self.cur_id = self.next_id;
            self.next_id += 1;
        }
        match stmt {
            Stmt::I(instr) => self.lower_instr(instr),
            Stmt::StGF { buf, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::StGF {
                    buf: *buf,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                });
            }
            Stmt::StGI { buf, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::StGI {
                    buf: *buf,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                });
            }
            Stmt::StLF { loc, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::StLF {
                    loc: *loc,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                    len: self.prog.locals[*loc as usize].len as u32,
                });
            }
            Stmt::StSF { sh, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::StSF {
                    sh: *sh,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                });
            }
            Stmt::StSI { sh, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::StSI {
                    sh: *sh,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                });
            }
            Stmt::StVarF { var, val } | Stmt::StVarI { var, val } => {
                self.charge(0, 0);
                self.push(LOp::StVar {
                    v: self.var_slot(*var),
                    val: self.slot(*val),
                });
            }
            // Barriers neither burn fuel nor issue; they stay inside runs.
            Stmt::Sync => self.push(LOp::Sync),
            Stmt::Comment(_) => {}
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                self.seal();
                let at = self.ops.len();
                self.push(LOp::If {
                    cond: self.slot(*cond),
                    then_len: 0,
                    else_len: 0,
                });
                let t0 = self.ops.len();
                self.lower_block(then_b);
                let tl = (self.ops.len() - t0) as u32;
                let e0 = self.ops.len();
                self.lower_block(else_b);
                let el = (self.ops.len() - e0) as u32;
                if let LOp::If {
                    then_len, else_len, ..
                } = &mut self.ops[at]
                {
                    *then_len = tl;
                    *else_len = el;
                }
            }
            Stmt::ForRange {
                counter,
                start,
                end,
                body,
                vectorize,
            } => {
                self.seal();
                let at = self.ops.len();
                self.push(LOp::For {
                    counter: self.slot(*counter),
                    start: self.slot(*start),
                    end: self.slot(*end),
                    body_len: 0,
                    vectorize: *vectorize,
                });
                let b0 = self.ops.len();
                self.lower_block(body);
                let bl = (self.ops.len() - b0) as u32;
                if let LOp::For { body_len, .. } = &mut self.ops[at] {
                    *body_len = bl;
                }
            }
            Stmt::While {
                cond_block,
                cond,
                body,
            } => {
                self.seal();
                let at = self.ops.len();
                self.push(LOp::While {
                    cond: self.slot(*cond),
                    cond_len: 0,
                    body_len: 0,
                });
                let c0 = self.ops.len();
                self.lower_block(cond_block);
                let cl = (self.ops.len() - c0) as u32;
                let b0 = self.ops.len();
                self.lower_block(body);
                let bl = (self.ops.len() - b0) as u32;
                if let LOp::While {
                    cond_len, body_len, ..
                } = &mut self.ops[at]
                {
                    *cond_len = cl;
                    *body_len = bl;
                }
            }
        }
    }

    fn lower_instr(&mut self, instr: &Instr) {
        let d = self.slot(instr.dst);
        match &instr.op {
            // Constants are always uniform: evaluate now, preload once per
            // worker, keep only the issue/fuel charge in the stream.
            Op::ConstF(v) => {
                self.charge(0, 0);
                self.const_init.push((instr.dst.0, v.to_bits()));
            }
            Op::ConstI(v) => {
                self.charge(0, 0);
                self.const_init.push((instr.dst.0, *v as u64));
            }
            Op::ConstB(v) => {
                self.charge(0, 0);
                self.const_init.push((instr.dst.0, *v as u64));
            }
            Op::Special(r) => {
                self.charge(0, 0);
                self.push(LOp::Special { d, r: *r });
            }
            Op::ParamF(s) => {
                self.charge(0, 0);
                self.push(LOp::ParamF { d, s: *s });
            }
            Op::ParamI(s) => {
                self.charge(0, 0);
                self.push(LOp::ParamI { d, s: *s });
            }
            Op::BinF(op, a, b) => {
                self.charge(if *op == FBin::Div { 4 } else { 1 }, 0);
                self.push(LOp::BinF {
                    op: *op,
                    d,
                    a: self.slot(*a),
                    b: self.slot(*b),
                });
            }
            Op::UnF(op, a) => {
                match op {
                    FUn::Sqrt | FUn::Exp | FUn::Ln | FUn::Sin | FUn::Cos => self.charge(0, 1),
                    _ => self.charge(1, 0),
                }
                self.push(LOp::UnF {
                    op: *op,
                    d,
                    a: self.slot(*a),
                });
            }
            Op::Fma(a, b, c) => {
                self.charge(2, 0);
                self.push(LOp::Fma {
                    d,
                    a: self.slot(*a),
                    b: self.slot(*b),
                    c: self.slot(*c),
                });
            }
            Op::BinI(op, a, b) => {
                self.charge(0, 0);
                self.push(LOp::BinI {
                    op: *op,
                    d,
                    a: self.slot(*a),
                    b: self.slot(*b),
                });
            }
            Op::NegI(a) => {
                self.charge(0, 0);
                self.push(LOp::NegI {
                    d,
                    a: self.slot(*a),
                });
            }
            Op::CmpF(op, a, b) => {
                self.charge(0, 0);
                self.push(LOp::CmpF {
                    op: *op,
                    d,
                    a: self.slot(*a),
                    b: self.slot(*b),
                });
            }
            Op::CmpI(op, a, b) => {
                self.charge(0, 0);
                self.push(LOp::CmpI {
                    op: *op,
                    d,
                    a: self.slot(*a),
                    b: self.slot(*b),
                });
            }
            Op::BinB(op, a, b) => {
                self.charge(0, 0);
                self.push(LOp::BinB {
                    op: *op,
                    d,
                    a: self.slot(*a),
                    b: self.slot(*b),
                });
            }
            Op::NotB(a) => {
                self.charge(0, 0);
                self.push(LOp::NotB {
                    d,
                    a: self.slot(*a),
                });
            }
            Op::SelF(c, t, e) | Op::SelI(c, t, e) => {
                self.charge(0, 0);
                self.push(LOp::Sel {
                    d,
                    c: self.slot(*c),
                    t: self.slot(*t),
                    e: self.slot(*e),
                });
            }
            Op::I2F(a) => {
                self.charge(1, 0);
                self.push(LOp::I2F {
                    d,
                    a: self.slot(*a),
                });
            }
            Op::F2I(a) => {
                self.charge(1, 0);
                self.push(LOp::F2I {
                    d,
                    a: self.slot(*a),
                });
            }
            Op::U2UnitF(a) => {
                self.charge(2, 0);
                self.push(LOp::U2UnitF {
                    d,
                    a: self.slot(*a),
                });
            }
            Op::LdGF { buf, idx } => {
                self.charge(0, 0);
                self.push(LOp::LdGF {
                    d,
                    buf: *buf,
                    i: self.slot(*idx),
                });
            }
            Op::LdGI { buf, idx } => {
                self.charge(0, 0);
                self.push(LOp::LdGI {
                    d,
                    buf: *buf,
                    i: self.slot(*idx),
                });
            }
            Op::LdSF { sh, idx } => {
                self.charge(0, 0);
                self.push(LOp::LdSF {
                    d,
                    sh: *sh,
                    i: self.slot(*idx),
                });
            }
            Op::LdSI { sh, idx } => {
                self.charge(0, 0);
                self.push(LOp::LdSI {
                    d,
                    sh: *sh,
                    i: self.slot(*idx),
                });
            }
            Op::LdLF { loc, idx } => {
                self.charge(0, 0);
                self.push(LOp::LdLF {
                    d,
                    loc: *loc,
                    i: self.slot(*idx),
                    len: self.prog.locals[*loc as usize].len as u32,
                });
            }
            Op::LdVarF(v) | Op::LdVarI(v) => {
                self.charge(0, 0);
                self.push(LOp::LdVar {
                    d,
                    v: self.var_slot(*v),
                });
            }
            Op::AtomicGF { op, buf, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::AtomicF {
                    op: *op,
                    d,
                    buf: *buf,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                });
            }
            Op::AtomicGI { op, buf, idx, val } => {
                self.charge(0, 0);
                self.push(LOp::AtomicI {
                    op: *op,
                    d,
                    buf: *buf,
                    i: self.slot(*idx),
                    val: self.slot(*val),
                });
            }
        }
    }
}

/// The validator's verdict on `prog` as a launch error naming the kernel.
/// The lowerer and the tree-walker both index registers and resource tables
/// by ids they do not check, so no engine runs a program that fails this.
pub(crate) fn check_ir(prog: &Program) -> Result<(), SimError> {
    validate(prog).map_err(|e| crate::serr!("kernel `{}` is not valid IR: {}", prog.name, e.0))
}

/// Lower `prog` to its pre-decoded warp form, or say why it is not valid IR.
pub(crate) fn lower_checked(prog: &Program) -> Result<WarpProgram, SimError> {
    check_ir(prog)?;
    let u = uniformity(prog);
    let mut lw = Lowerer {
        u: &u,
        prog,
        ops: Vec::new(),
        op_instr: Vec::new(),
        const_init: Vec::new(),
        acct: None,
        acct_detail: Vec::new(),
        cur_id: 0,
        next_id: 0,
    };
    lw.lower_block(&prog.body);
    Ok(WarpProgram {
        ops: lw.ops,
        const_init: lw.const_init,
        n_vals: prog.n_vals as usize,
        n_vars: prog.vars.len(),
        op_instr: lw.op_instr,
        acct: lw.acct_detail,
    })
}

/// [`lower_checked`] without the reason: `None` when `prog` is not valid
/// IR. (`benchmark/` times this call and applies `?` to it in a function
/// returning `Option`, so the signature is part of the frozen surface.)
pub fn lower(prog: &Program) -> Option<WarpProgram> {
    lower_checked(prog).ok()
}

// ---------------------------------------------------------------------------
// Prepared programs and the program cache
// ---------------------------------------------------------------------------

/// Everything a launch derives from its [`Program`] alone, each made once:
/// the atomics classification (here), the lowered form (by the first
/// compiled-engine launch), the compiled form (by the first that can run
/// fused loops). Keep one next to a program launched many times and launch
/// through [`Prepared::launch`]. It holds no reference to its program:
/// every call must be given that same, unmodified program.
pub struct Prepared {
    pub(crate) atomics: AtomicsSummary,
    /// The lowered form, or why the program is not valid IR.
    lowered: OnceLock<Result<Arc<WarpProgram>, SimError>>,
    /// `Some(None)` records that nothing fused, so that too is decided once.
    compiled: OnceLock<Option<Arc<CompiledProgram>>>,
}

impl Prepared {
    pub fn new(prog: &Program) -> Self {
        Prepared {
            atomics: atomics_summary(prog),
            lowered: OnceLock::new(),
            compiled: OnceLock::new(),
        }
    }

    /// The lowered form of `prog`: made by the first call (a counted miss; a
    /// racing call waits for it), handed out by every later one (a hit).
    pub(crate) fn lowered(&self, prog: &Program) -> Result<Arc<WarpProgram>, SimError> {
        let mut made = false;
        let lowered = self.lowered.get_or_init(|| {
            made = true;
            lower_checked(prog).map(Arc::new)
        });
        let tally = if made { &LOWER_MISSES } else { &LOWER_HITS };
        tally.fetch_add(1, Ordering::Relaxed);
        lowered.clone()
    }

    /// The compiled form of `wp` (this handle's lowered form), built on
    /// first use; `None` when nothing fused.
    pub(crate) fn compiled(&self, wp: &Arc<WarpProgram>) -> Option<Arc<CompiledProgram>> {
        let mut made = false;
        let compiled = self.compiled.get_or_init(|| {
            made = true;
            compile(wp).map(Arc::new)
        });
        let tally = if made { &COMPILE_MISSES } else { &COMPILE_HITS };
        tally.fetch_add(1, Ordering::Relaxed);
        compiled.clone()
    }
}

/// One cached program: the key (a fingerprint to find it by, the program to
/// be sure) and what was prepared for it.
pub(crate) struct CachedProgram {
    fingerprint: u64,
    prog: Program,
    pub(crate) prepared: Prepared,
}

static CACHE: OnceLock<Mutex<Vec<Arc<CachedProgram>>>> = OnceLock::new();

/// Entries of the program cache (and of `alpaka-accsim`'s per-device memo).
/// Not sized for a tuning sweep on purpose: an entry retains ~30 KB, and 288
/// lifted `workdiv_sweep`'s peak RSS from 13.5 to 24.0 MiB (+78 %; bound
/// 10 %). A larger cyclic sweep always misses; the miss is cheap instead.
pub(crate) const CACHE_CAP: usize = 32;

/// Hit/miss tallies of a program cache. The process-wide pairs on every
/// `SimReport` count lowered and compiled forms found or made, through a
/// held [`Prepared`] and through the cache alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to lower/compile the program anew.
    pub misses: u64,
}

static LOWER_HITS: AtomicU64 = AtomicU64::new(0);
static LOWER_MISSES: AtomicU64 = AtomicU64::new(0);
static COMPILE_HITS: AtomicU64 = AtomicU64::new(0);
static COMPILE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(lowered-form, compiled-form)` hit/miss counters.
pub(crate) fn cache_counters() -> (CacheCounters, CacheCounters) {
    let read = |hits: &AtomicU64, misses: &AtomicU64| CacheCounters {
        hits: hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
    };
    (
        read(&LOWER_HITS, &LOWER_MISSES),
        read(&COMPILE_HITS, &COMPILE_MISSES),
    )
}

/// The cache entry of `prog`, for a launch handed a bare `&Program`: found
/// by fingerprint (only ever a filter) and confirmed by `Program ==`, or
/// made — one clone — in place of the oldest of `CACHE_CAP`. Nothing of an
/// entry reads the device, so it serves every launch, device model and
/// worker; what it prepares is made on demand, outside the lock.
pub(crate) fn cached_for(prog: &Program) -> Arc<CachedProgram> {
    cached_as(
        BuildHasherDefault::<DefaultHasher>::default().hash_one(prog),
        prog,
    )
}

/// [`cached_for`] with the fingerprint given (tests force collisions).
fn cached_as(fingerprint: u64, prog: &Program) -> Arc<CachedProgram> {
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
    let found = guard
        .iter()
        .find(|e| e.fingerprint == fingerprint && e.prog == *prog);
    if let Some(e) = found {
        return Arc::clone(e);
    }
    let entry = Arc::new(CachedProgram {
        fingerprint,
        prog: prog.clone(),
        prepared: Prepared::new(prog),
    });
    // FIFO eviction: drop oldest entries until the new one fits the cap.
    while guard.len() >= CACHE_CAP {
        guard.remove(0);
    }
    guard.push(Arc::clone(&entry));
    entry
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A lane mask: its live lanes in order, with the span they lie in and the
/// per-warp accounting precomputed.
#[derive(Default)]
pub(crate) struct MaskBuf {
    /// The active lanes, ascending.
    pub(crate) list: Vec<u32>,
    /// Total active lanes (`list.len()`).
    pub(crate) active: u64,
    /// Warps with at least one active lane (issue slots per instruction).
    pub(crate) warp_issues: u64,
    /// All lanes active (barriers require it).
    pub(crate) full: bool,
    /// Every active lane lies in `lo..hi`; `lo` is the first one — the lane
    /// the reference engine's in-order per-lane loop would fault at for a
    /// uniform (all-lanes-identical) access. `0..0` when no lane is active.
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

impl MaskBuf {
    /// The span has no hole: every lane of `lo..hi` is active (a full mask,
    /// every `tid < d` guard), so column ops walk it and not the list.
    #[inline(always)]
    pub(crate) fn dense(&self) -> bool {
        (self.hi - self.lo) as u64 == self.active
    }
}

/// Per-worker execution state of the lowered tier: split register files
/// (uniform scalars vs. per-lane), block-shared arrays, and the recycled
/// mask / address scratch.
pub(crate) struct LowState {
    pub(crate) lanes: usize,
    pub(crate) uregs: Vec<u64>,
    pub(crate) vregs: Vec<u64>,
    pub(crate) uvars: Vec<u64>,
    pub(crate) vvars: Vec<u64>,
    /// Block-shared arrays as raw bits (f64 and i64 alike, like registers).
    pub(crate) shared: Vec<Vec<u64>>,
    /// Per-lane thread-private arrays: `loc_f[loc][lane * len + k]`.
    pub(crate) loc_f: Vec<Vec<f64>>,
    pub(crate) tid: Vec<[i64; 3]>,
    pub(crate) bidx: [i64; 3],
    /// Mask pool indexed by control-flow depth; slot 0 is the full mask.
    pub(crate) masks: Vec<MaskBuf>,
    /// Reusable (lane, byte address) scratch for coalescing.
    pub(crate) addrs: Vec<(usize, u64)>,
    /// Reusable (lane, element index) scratch for bank accounting.
    pub(crate) elems: Vec<(usize, i64)>,
    /// Reusable scratch for the affine runs of a memory op's index column.
    pub(crate) runs: Vec<Run>,
}

impl LowState {
    #[inline]
    pub(crate) fn rd(&self, s: u32, l: usize) -> u64 {
        if is_u(s) {
            self.uregs[idx(s)]
        } else {
            self.vregs[s as usize * self.lanes + l]
        }
    }
    /// Varying register `s`, all lanes.
    #[inline]
    pub(crate) fn col(&self, s: u32) -> &[u64] {
        &self.vregs[s as usize * self.lanes..][..self.lanes]
    }
    #[inline]
    pub(crate) fn rdi(&self, s: u32, l: usize) -> i64 {
        self.rd(s, l) as i64
    }
    #[inline]
    pub(crate) fn ud(&self, s: u32) -> u64 {
        self.uregs[idx(s)]
    }
    #[inline]
    pub(crate) fn udi(&self, s: u32) -> i64 {
        self.ud(s) as i64
    }
    #[inline]
    pub(crate) fn udb(&self, s: u32) -> bool {
        self.ud(s) != 0
    }
    #[inline]
    pub(crate) fn wu(&mut self, d: u32, bits: u64) {
        self.uregs[idx(d)] = bits;
    }
    #[inline]
    pub(crate) fn wv(&mut self, d: u32, l: usize, bits: u64) {
        self.vregs[d as usize * self.lanes + l] = bits;
    }

    /// Grow the mask pool so `masks[depth]` exists.
    pub(crate) fn ensure_mask(&mut self, depth: usize) {
        while self.masks.len() <= depth {
            self.masks.push(MaskBuf::default());
        }
    }
}

/// Rebuild `child` as the lanes of `parent` — of `child` itself when there
/// is none: a while loop shrinking its own mask — whose `test` equals
/// `keep`, counting one divergent branch per warp whose active lanes
/// disagree (`count_div`: only on the first of an `If`'s two passes).
/// Returns (any-true, any-false) over the parent's active lanes.
pub(crate) fn build_mask(
    m: &mut Machine<'_>,
    parent: Option<&MaskBuf>,
    child: &mut MaskBuf,
    keep: bool,
    count_div: bool,
    test: impl Fn(usize) -> bool,
) -> (bool, bool) {
    let warp_w = m.warp_w;
    let n = parent.map_or(child.list.len(), |p| p.list.len());
    if parent.is_some() {
        child.list.resize(n, 0);
    }
    let (mut kept, mut wi) = (0, 0u64);
    let (mut any_t, mut any_f) = (false, false);
    // The warp being walked: where it ends, its lanes seen, those testing
    // true, and the lanes kept before it.
    let (mut warp_end, mut on, mut yes, mut kept0) = (0, 0u64, 0u64, 0);
    for r in 0..=n {
        // Past the last lane sits a sentinel that closes the last warp.
        let l = match parent {
            _ if r == n => usize::MAX,
            Some(p) => p.list[r] as usize,
            None => child.list[r] as usize,
        };
        if l >= warp_end {
            if count_div && yes > 0 && yes < on {
                m.stats.divergent_branches += 1;
                m.prof_add(|c| c.divergent_branches += 1);
            }
            any_t |= yes > 0;
            any_f |= yes < on;
            wi += (kept > kept0) as u64;
            if r == n {
                break;
            }
            (warp_end, on, yes, kept0) = ((l / warp_w + 1) * warp_w, 0, 0, kept);
        }
        let t = test(l);
        on += 1;
        yes += t as u64;
        // Compacting in place is safe: `kept <= r`.
        child.list[kept] = l as u32;
        kept += (t == keep) as usize;
    }
    child.list.truncate(kept);
    child.active = kept as u64;
    child.warp_issues = wi;
    child.full = parent.map_or(child.full, |p| p.full) && kept == n;
    child.lo = child.list.first().map_or(0, |&l| l as usize);
    child.hi = child.list.last().map_or(0, |&l| l as usize + 1);
    (any_t, any_f)
}

/// Flush a gathered per-lane address list to the coalescing model, taking
/// the single-lane fast path (the 1-thread-per-block shape) when possible.
#[inline]
pub(crate) fn flush_addrs(m: &mut Machine<'_>, addrs: &[(usize, u64)]) {
    if addrs.len() == 1 {
        m.mem_access_one(addrs[0].1);
    } else {
        m.mem_access(addrs);
    }
}

/// Flush gathered shared-memory element indices to the bank model. A single
/// active lane occupies one bank at degree 1: no conflict cycles, one
/// access counted — the same outcome `shared_access` computes.
#[inline]
pub(crate) fn flush_elems(m: &mut Machine<'_>, elems: &[(usize, i64)]) {
    if elems.len() == 1 {
        m.stats.shared_accesses += 1;
        m.prof_add(|c| c.shared_accesses += 1);
    } else {
        m.shared_access(elems);
    }
}

pub(crate) fn copy_mask(dst: &mut MaskBuf, src: &MaskBuf) {
    dst.list.clone_from(&src.list);
    dst.active = src.active;
    dst.warp_issues = src.warp_issues;
    dst.full = src.full;
    (dst.lo, dst.hi) = (src.lo, src.hi);
}

/// Execute `ops[lo..hi]` under the mask stored at `masks[depth]`; the mask
/// is temporarily taken out of the pool so ops can borrow state freely.
pub(crate) fn exec_range(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    lo: usize,
    hi: usize,
    depth: usize,
) -> R<()> {
    let mask = std::mem::take(&mut st.masks[depth]);
    // Faults that carry no lane coordinates yet (unbound params/buffers,
    // other launch-uniform failures) are attributed to the first active
    // lane of the innermost mask, matching the reference engine and the
    // serial per-thread evaluator.
    let r = exec_ops(m, st, wp, lo, hi, depth, &mask).map_err(|e| {
        if e.thread.is_none() && matches!(e.kind, crate::fault::SimErrorKind::Fault { .. }) {
            e.at_thread(st.tid[mask.lo])
        } else {
            e
        }
    });
    st.masks[depth] = mask;
    r
}

/// Execute `ops[lo..hi]` under `mask`. A one-lane block under its full mask
/// runs the instantiation whose data ops are scalar (see `lanes::exec`);
/// deciding that per op inside one shared loop instead measures ~15 % slower
/// on the CPU-model DGEMM.
pub(crate) fn exec_ops(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    lo: usize,
    hi: usize,
    depth: usize,
    mask: &MaskBuf,
) -> R<()> {
    if st.lanes == 1 && mask.full {
        exec_ops_as::<true>(m, st, wp, lo, hi, depth, mask)
    } else {
        exec_ops_as::<false>(m, st, wp, lo, hi, depth, mask)
    }
}

#[allow(clippy::too_many_lines)]
fn exec_ops_as<const ONE: bool>(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    lo: usize,
    hi: usize,
    depth: usize,
    mask: &MaskBuf,
) -> R<()> {
    let mut pc = lo;
    let profiling = m.profile.is_some();
    while pc < hi {
        if profiling {
            m.cur_instr = wp.op_instr[pc];
        }
        let op = wp.ops[pc];
        // Data ops first, picked out by a bit test so that each op pays one
        // table dispatch — inside `lanes::exec` — not two.
        let engine_op = matches!(
            op,
            LOp::Account { .. } | LOp::If { .. } | LOp::For { .. } | LOp::While { .. }
        );
        if !engine_op {
            lanes::exec::<ONE>(m, st, mask, &op)?;
            pc += 1;
            continue;
        }
        match op {
            LOp::Account {
                n,
                flops,
                special,
                detail,
            } => {
                m.burn_n(n)?;
                if profiling {
                    // Replay the run per source instruction so attribution
                    // is exact; the charged totals are identical to the
                    // aggregate fast path below.
                    for e in &wp.acct[detail as usize..(detail as u64 + n) as usize] {
                        m.cur_instr = e.id;
                        m.add_issue(mask.warp_issues);
                        if e.flops > 0 {
                            m.add_flops(e.flops as u64 * mask.active);
                        }
                        if e.special > 0 {
                            m.add_special(e.special as u64 * mask.active);
                        }
                    }
                } else {
                    m.add_issue(n * mask.warp_issues);
                    if flops > 0 {
                        m.add_flops(flops * mask.active);
                    }
                    if special > 0 {
                        m.add_special(special * mask.active);
                    }
                }
            }
            LOp::If {
                cond,
                then_len,
                else_len,
            } => {
                let t0 = pc + 1;
                let e0 = t0 + then_len as usize;
                let end = e0 + else_len as usize;
                if is_u(cond) {
                    // A uniform branch: all lanes agree, never divergent,
                    // the untaken side is skipped outright.
                    if st.udb(cond) {
                        if then_len > 0 {
                            exec_ops(m, st, wp, t0, e0, depth, mask)?;
                        }
                    } else if else_len > 0 {
                        exec_ops(m, st, wp, e0, end, depth, mask)?;
                    }
                } else {
                    st.ensure_mask(depth + 1);
                    let (any_t, any_f) = {
                        let mut child = std::mem::take(&mut st.masks[depth + 1]);
                        let c = st.col(cond);
                        let r = build_mask(m, Some(mask), &mut child, true, true, |l| c[l] != 0);
                        st.masks[depth + 1] = child;
                        r
                    };
                    if any_t && then_len > 0 {
                        exec_range(m, st, wp, t0, e0, depth + 1)?;
                    }
                    if any_f && else_len > 0 {
                        let mut child = std::mem::take(&mut st.masks[depth + 1]);
                        let c = st.col(cond);
                        build_mask(m, Some(mask), &mut child, false, false, |l| c[l] != 0);
                        st.masks[depth + 1] = child;
                        exec_range(m, st, wp, e0, end, depth + 1)?;
                    }
                }
                pc = end;
                continue;
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
                // Open a vectorization region for outermost element loops
                // on CPU device models (mirrors the reference engine).
                let opened = vectorize
                    && m.spec.kind == DeviceKind::Cpu
                    && m.spec.simd_width > 1
                    && m.region.is_none();
                if opened {
                    m.region = Some(RegionAcc::default());
                }
                let result = exec_for_lowered(
                    m, st, wp, counter, start, end, b0, bend, depth, mask, opened,
                );
                if opened {
                    let r = m.region.take().expect("region open");
                    if r.vectorized() {
                        m.stats.vec_issue += r.issue;
                        m.stats.vec_flops += r.flops;
                        // Special functions do not vectorize on the
                        // modeled units.
                        m.stats.special_ops += r.special;
                    } else {
                        m.stats.scalar_issue += r.issue;
                        m.stats.scalar_flops += r.flops;
                        m.stats.special_ops += r.special;
                    }
                }
                result?;
                pc = bend;
                continue;
            }
            LOp::While {
                cond,
                cond_len,
                body_len,
            } => {
                let c0 = pc + 1;
                let b0 = c0 + cond_len as usize;
                let end = b0 + body_len as usize;
                if is_u(cond) {
                    // A uniform loop: all lanes enter and leave together.
                    loop {
                        m.burn()?;
                        exec_ops(m, st, wp, c0, b0, depth, mask)?;
                        if !st.udb(cond) {
                            break;
                        }
                        exec_ops(m, st, wp, b0, end, depth, mask)?;
                    }
                } else {
                    // Divergence at the exit test belongs to the while
                    // header, not the condition range just executed.
                    let my_id = m.cur_instr;
                    st.ensure_mask(depth + 1);
                    {
                        let mut child = std::mem::take(&mut st.masks[depth + 1]);
                        copy_mask(&mut child, mask);
                        st.masks[depth + 1] = child;
                    }
                    loop {
                        m.burn()?;
                        if st.masks[depth + 1].active == 0 {
                            break;
                        }
                        exec_range(m, st, wp, c0, b0, depth + 1)?;
                        m.cur_instr = my_id;
                        let any = {
                            let mut child = std::mem::take(&mut st.masks[depth + 1]);
                            // Divergence is counted against the pre-shrink mask.
                            let c = st.col(cond);
                            let (any, _) =
                                build_mask(m, None, &mut child, true, true, |l| c[l] != 0);
                            st.masks[depth + 1] = child;
                            any
                        };
                        if !any {
                            break;
                        }
                        exec_range(m, st, wp, b0, end, depth + 1)?;
                    }
                }
                pc = end;
                continue;
            }
            _ => unreachable!("data ops are dispatched above"),
        }
        pc += 1;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn exec_for_lowered(
    m: &mut Machine<'_>,
    st: &mut LowState,
    wp: &WarpProgram,
    counter: u32,
    start: u32,
    endv: u32,
    b0: usize,
    bend: usize,
    depth: usize,
    mask: &MaskBuf,
    probe: bool,
) -> R<()> {
    if is_u(counter) {
        // Statically uniform bounds: no per-lane scan, scalar counter.
        let s0 = st.udi(start);
        let e0 = st.udi(endv);
        let mut k = s0;
        while k < e0 {
            m.burn()?;
            st.wu(counter, k as u64);
            exec_ops(m, st, wp, b0, bend, depth, mask)?;
            if probe {
                if let Some(r) = &mut m.region {
                    r.advance(1);
                }
            }
            k += 1;
        }
        return Ok(());
    }

    // Statically varying bounds: replicate the reference engine's dynamic
    // uniformity scan — runtime-uniform trip counts still run in lockstep
    // (and keep the vectorization probe alive).
    let mut s0e0: Option<(i64, i64)> = None;
    let mut uniform = true;
    for &l in &mask.list {
        let s = st.rdi(start, l as usize);
        let e = st.rdi(endv, l as usize);
        match s0e0 {
            None => s0e0 = Some((s, e)),
            Some((ps, pe)) => {
                if ps != s || pe != e {
                    uniform = false;
                }
            }
        }
    }
    let Some((s0, e0)) = s0e0 else {
        return Ok(()); // no active lanes
    };

    if uniform {
        let mut k = s0;
        while k < e0 {
            m.burn()?;
            lanes::broadcast(st, mask, counter, k as u64);
            exec_ops(m, st, wp, b0, bend, depth, mask)?;
            if probe {
                if let Some(r) = &mut m.region {
                    r.advance(1);
                }
            }
            k += 1;
        }
    } else {
        // Per-lane trip counts: iterate with a shrinking mask.
        if probe {
            if let Some(r) = &mut m.region {
                r.probe_failed = true;
            }
        }
        // Divergence at the trip test belongs to the for header, not to
        // whatever the body range left in `cur_instr`.
        let my_id = m.cur_instr;
        st.ensure_mask(depth + 1);
        let mut iter: i64 = 0;
        loop {
            m.burn()?;
            m.cur_instr = my_id;
            let mut child = std::mem::take(&mut st.masks[depth + 1]);
            // The lanes still inside their trip count, divergence counted
            // exactly as the reference loop does.
            let (any, _) = build_mask(m, Some(mask), &mut child, true, true, |l| {
                trip_live(st.rdi(start, l), iter, st.rdi(endv, l))
            });
            if !any {
                st.masks[depth + 1] = child;
                break;
            }
            for &l in &child.list {
                let s = st.rdi(start, l as usize);
                st.wv(counter, l as usize, (s + iter) as u64);
            }
            st.masks[depth + 1] = child;
            exec_range(m, st, wp, b0, bend, depth + 1)?;
            iter += 1;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-worker block loop
// ---------------------------------------------------------------------------

/// The lowered tier's block loop. A function of this module on purpose:
/// with the same closure written out in `interp.rs`, `hase_ase`'s fused
/// phase measured 7 % slower (code placement only; PR 16).
pub(crate) fn interpret_blocks_lowered(
    ctx: &LaunchCtx<'_>,
    mem: MemAccess<'_>,
    team: usize,
    worker: usize,
    indices: &[usize],
    wp: &WarpProgram,
) -> Result<WorkerOut, (usize, SimError)> {
    run_warp_blocks(ctx, mem, team, worker, indices, wp, |m, st| {
        exec_range(m, st, wp, 0, wp.ops.len(), 0)
    })
}

/// The per-worker block loop shared by the lowered and fused tiers, the
/// counterpart of `interp::interpret_blocks`:
/// identical SM partitioning, block order, per-block array resets, span
/// collection and error reporting regardless of how a block's program text
/// is executed (`exec_block` runs exactly one block against the prepared
/// machine and register state).
pub(crate) fn run_warp_blocks(
    ctx: &LaunchCtx<'_>,
    mem: MemAccess<'_>,
    team: usize,
    worker: usize,
    indices: &[usize],
    wp: &WarpProgram,
    mut exec_block: impl FnMut(&mut Machine<'_>, &mut LowState) -> R<()>,
) -> Result<WorkerOut, (usize, SimError)> {
    let prog = ctx.prog;
    let sms = ctx.spec.sms;
    let lanes = ctx.lanes;
    let mut m = make_machine(ctx, mem, team, worker);
    let mut st = LowState {
        lanes,
        uregs: vec![0; wp.n_vals],
        vregs: vec![0; wp.n_vals * lanes],
        uvars: vec![0; wp.n_vars],
        vvars: vec![0; wp.n_vars * lanes],
        shared: prog.shared.iter().map(|s| vec![0; s.len]).collect(),
        loc_f: prog
            .locals
            .iter()
            .map(|l| vec![0.0; l.len * lanes])
            .collect(),
        tid: (0..lanes)
            .map(|t| ctx.thread_ext.delinearize(t).map_i64())
            .collect(),
        bidx: [0; 3],
        masks: vec![MaskBuf {
            list: (0..lanes as u32).collect(),
            active: lanes as u64,
            warp_issues: ctx.n_warps as u64,
            full: true,
            lo: 0,
            hi: lanes,
        }],
        addrs: Vec::new(),
        elems: Vec::new(),
        runs: Vec::new(),
    };
    // Constants are block-invariant: preload them once per worker.
    for &(r, bits) in &wp.const_init {
        st.uregs[r as usize] = bits;
    }

    // Shared/local arrays must be zero at block entry. They start zeroed,
    // so resetting is only needed *between* blocks, and only when the
    // program declares any such arrays at all.
    let has_block_arrays =
        st.shared.iter().any(|a| !a.is_empty()) || st.loc_f.iter().any(|a| !a.is_empty());
    let mut ran_a_block = false;

    let tracing = m.profile.is_some();
    let mut spans: Vec<BlockSpan> = Vec::new();
    for &lin in indices {
        let sm = lin % sms;
        if sm % team != worker {
            continue;
        }
        if has_block_arrays && ran_a_block {
            st.shared.iter_mut().for_each(|a| a.fill(0));
            st.loc_f.iter_mut().for_each(|a| a.fill(0.0));
        }
        ran_a_block = true;
        m.enter_block(sm / team, lin);
        st.bidx = ctx.grid_ext.delinearize(lin).map_i64();
        let cycles_before = stats_issue_cycles(&m.stats);
        exec_block(&mut m, &mut st).map_err(|e| {
            (
                lin,
                e.with_block(st.bidx)
                    .context(&format!("block {:?}: ", st.bidx)),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn daxpy_like() -> Program {
        use alpaka_kir::ir::Op;
        // tid-guarded store: v0 = tid, v1 = param, v2 = ld x[v0],
        // v3 = fma(v2, v1, v2), st y[v0] = v3
        Program {
            name: "t".into(),
            dims: 1,
            body: Block(vec![
                Stmt::I(Instr {
                    dst: ValId(0),
                    op: Op::Special(SpecialReg::ThreadIdx(2)),
                }),
                Stmt::I(Instr {
                    dst: ValId(1),
                    op: Op::ParamF(0),
                }),
                Stmt::I(Instr {
                    dst: ValId(2),
                    op: Op::LdGF {
                        buf: 0,
                        idx: ValId(0),
                    },
                }),
                Stmt::I(Instr {
                    dst: ValId(3),
                    op: Op::Fma(ValId(2), ValId(1), ValId(2)),
                }),
                Stmt::StGF {
                    buf: 0,
                    idx: ValId(0),
                    val: ValId(3),
                },
            ]),
            n_vals: 4,
            vars: vec![],
            shared: vec![],
            locals: vec![],
            n_bufs_f: 1,
            n_bufs_i: 0,
            n_params_f: 1,
            n_params_i: 0,
        }
    }

    #[test]
    fn valid_program_lowers() {
        let wp = lower(&daxpy_like()).expect("lowers");
        // Account + 4 stream ops (no constants to drop here).
        assert!(!wp.is_empty());
        assert!(wp.len() >= 5, "{}", wp.len());
    }

    #[test]
    fn invalid_program_does_not_lower() {
        let mut p = daxpy_like();
        // Use a value out of scope: point the store at an undefined id.
        if let Stmt::StGF { val, .. } = &mut p.body.0[4] {
            *val = ValId(9);
        }
        p.n_vals = 10;
        let err = lower_checked(&p).err().expect("invalid IR");
        assert!(err.msg.contains("used out of scope"), "{err}");
        assert!(lower(&p).is_none());
    }

    /// IR the validator rejects is a launch error naming the kernel and the
    /// violation — on both engines, at one and at several lanes — and
    /// nothing of it runs: the valid store ahead of the bad statement does
    /// not reach the buffer.
    #[test]
    fn invalid_ir_is_a_launch_error_on_both_engines() {
        use crate::interp::{run_kernel_launch_engine, Engine, ExecMode, SimArgs};
        let bad_val = Stmt::StGF {
            buf: 0,
            idx: ValId(0),
            val: ValId(7),
        };
        let bad_shared = Stmt::StSF {
            sh: 3,
            idx: ValId(0),
            val: ValId(3),
        };
        let cases = [
            (bad_val, "%7 used out of scope"),
            (bad_shared, "@sh3 out of range"),
        ];
        for (bad, violation) in cases {
            let mut p = daxpy_like();
            p.body.0.push(bad);
            for engine in [Engine::Compiled, Engine::Reference] {
                for lanes in [1usize, 4] {
                    let mut mem = crate::memory::DeviceMem::new();
                    let buf = mem.alloc_f(4);
                    mem.f_mut(buf).fill(1.0);
                    let args = SimArgs {
                        bufs_f: vec![buf],
                        params_f: vec![2.0],
                        ..SimArgs::default()
                    };
                    let wd = alpaka_core::workdiv::WorkDiv::d1(1, lanes, 1);
                    let spec = crate::spec::DeviceSpec::k20();
                    let mode = ExecMode::Full;
                    let err = run_kernel_launch_engine(
                        &spec, &mut mem, &p, &wd, &args, mode, lanes, engine,
                    )
                    .expect_err("invalid IR must not launch");
                    let at = format!("{engine:?} at {lanes} lane(s): {err}");
                    assert!(err.msg.contains("kernel `t`"), "{at}");
                    assert!(err.msg.contains(violation), "{at}");
                    assert_eq!(mem.f(buf), [1.0; 4], "{at}");
                }
            }
        }
    }

    #[test]
    fn constants_fold_into_preload() {
        let p = Program {
            name: "c".into(),
            dims: 1,
            body: Block(vec![
                Stmt::I(Instr {
                    dst: ValId(0),
                    op: Op::ConstI(5),
                }),
                Stmt::I(Instr {
                    dst: ValId(1),
                    op: Op::ConstF(2.5),
                }),
            ]),
            n_vals: 2,
            vars: vec![],
            shared: vec![],
            locals: vec![],
            n_bufs_f: 0,
            n_bufs_i: 0,
            n_params_f: 0,
            n_params_i: 0,
        };
        let wp = lower(&p).unwrap();
        // Both constants vanish from the stream; one Account op remains
        // carrying their issue/fuel charge.
        assert_eq!(wp.len(), 1);
        assert_eq!(wp.const_init.len(), 2);
        assert!(matches!(wp.ops[0], LOp::Account { n: 2, .. }));
    }

    #[test]
    fn lowered_cache_is_shared() {
        let p = daxpy_like();
        let (before, _) = cache_counters();
        let (a, b) = (cached_for(&p), cached_for(&p));
        assert!(Arc::ptr_eq(&a, &b));
        let wp_a = a.prepared.lowered(&p).unwrap();
        let wp_b = b.prepared.lowered(&p).unwrap();
        assert!(Arc::ptr_eq(&wp_a, &wp_b));
        let (after, _) = cache_counters();
        // The second lookup is a guaranteed hit; the first may be a hit or
        // a miss depending on what other tests ran first. Counters are
        // process-wide, so only assert monotone growth and ≥1 new hit.
        assert!(after.hits >= before.hits + 1);
        assert!(after.misses >= before.misses);
        // The compiled form lives in the same entry: decided by the first
        // asker (nothing fuses here), a counted hit for the second.
        let (_, before) = cache_counters();
        assert!(a.prepared.compiled(&wp_a).is_none() && b.prepared.compiled(&wp_b).is_none());
        assert!(cache_counters().1.hits > before.hits);
    }

    /// The fingerprint only filters: two programs forced onto one
    /// fingerprint get an entry each, and each entry lowers its own program.
    #[test]
    fn a_fingerprint_collision_is_not_a_hit() {
        use alpaka_kir::ir::Op;
        let scaled_by = |k: f64| {
            let mut p = daxpy_like();
            p.name = "collide".into();
            p.body.0[1] = Stmt::I(Instr {
                dst: ValId(1),
                op: Op::ConstF(k),
            });
            p
        };
        let (two, three) = (scaled_by(2.0), scaled_by(3.0));
        let (a, b) = (cached_as(0xC0111DE, &two), cached_as(0xC0111DE, &three));
        assert!(!Arc::ptr_eq(&a, &b), "distinct programs must not alias");
        let preload = |e: &CachedProgram, p| e.prepared.lowered(p).unwrap().const_init.clone();
        assert_eq!(preload(&a, &two), [(1, 2f64.to_bits())]);
        assert_eq!(preload(&b, &three), [(1, 3f64.to_bits())]);
        assert!(Arc::ptr_eq(&b, &cached_as(0xC0111DE, &three)));
        // Bitwise identity: the sign of a zero separates programs and a NaN
        // literal equals itself (one entry, found again).
        let (pz, nz) = (cached_for(&scaled_by(0.0)), cached_for(&scaled_by(-0.0)));
        assert!(!Arc::ptr_eq(&pz, &nz));
        let nan = scaled_by(f64::NAN);
        assert!(Arc::ptr_eq(&cached_for(&nan), &cached_for(&nan)));
    }

    /// A distinct (never-cached-before) valid program: daxpy_like with a
    /// unique constant folded in so `Program` equality separates them.
    fn distinct_program(tag: i64) -> Program {
        use alpaka_kir::ir::Op;
        let mut p = daxpy_like();
        p.body.0.insert(
            0,
            Stmt::I(Instr {
                dst: ValId(4),
                op: Op::ConstI(tag),
            }),
        );
        p.n_vals = 5;
        p
    }

    #[test]
    fn lowered_cache_evicts_oldest_beyond_cap() {
        // Tags no other test uses, so these entries are fresh inserts.
        let base = 7_000_000;
        let first = distinct_program(base);
        let a = cached_for(&first);
        // Fill the cache with CACHE_CAP more distinct programs: `first`
        // must age out (concurrent tests can only evict it sooner).
        for i in 1..=CACHE_CAP as i64 {
            cached_for(&distinct_program(base + i));
        }
        let b = cached_for(&first);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "entry should have been evicted and made anew"
        );
        // Unrelated to eviction but same scope: the re-inserted entry is
        // now shared again.
        let c = cached_for(&first);
        assert!(Arc::ptr_eq(&b, &c));
    }
}
