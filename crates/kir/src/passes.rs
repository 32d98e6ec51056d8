//! Optimization passes over the IR.
//!
//! The paper's zero-overhead claim (Section 4.1 / Fig. 4) rests on the
//! back-end compiler removing all the meta-programming residue the
//! abstraction introduces: extent queries that are compile-time constants,
//! multiplications by an element extent of one, trivial element loops. Here
//! `nvcc` is replaced by this pass pipeline:
//!
//! 1. **constant folding + algebraic simplification** (integer identities
//!    only — float expressions are never reassociated, keeping results
//!    bit-identical),
//! 2. **trivial loop unrolling** for constant trip counts (the `V = 1`
//!    element loop disappears entirely),
//! 3. **dead-code elimination** (unused extent queries, empty conditionals),
//! 4. **renumbering** into canonical order, so two programs computing the
//!    same stream print identically — which is what `repro-fig4` diffs.
//!
//! Passes preserve semantics exactly; the property tests in this crate
//! prove it by running random programs through [`crate::eval`] before and
//! after optimization.
//!
//! Every pass is one walk over the tree (`dce` one per prune round), because
//! a first launch pays for `optimize` and a tuning sweep pays on every
//! launch: per-value state is a table indexed by `ValId`, `cse` a hash map
//! (keyed by [`Op`]'s bitwise identity) with an undo log per scope, liveness
//! one reverse walk. ~50 ns per statement per pass where string keys, linear
//! scope searches and a forward fixpoint took 250-900;
//! `tests/pass_outputs.rs` pins that the output is what those produced.

use std::collections::HashMap;

use crate::ir::*;
use crate::semantics as sem;

/// Per-id state as a dense table. An id past the end holds `T::default()`
/// and storing to one grows the table, so ids a pass mints as it runs — or
/// an invalid program invents — need no special case.
#[derive(Default)]
struct Table<T>(Vec<T>);

impl<T: Copy + Default> Table<T> {
    fn get(&self, id: u32) -> T {
        self.0.get(id as usize).copied().unwrap_or_default()
    }

    /// Store `v` at `id`; returns what was there.
    fn set(&mut self, id: u32, v: T) -> T {
        let i = id as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, T::default());
        }
        std::mem::replace(&mut self.0[i], v)
    }
}

/// `v`, or the value `alias` says it (transitively) stands for. Chains are
/// short; the bound guards against accidental cycles anyway.
fn resolve(alias: &Table<Option<u32>>, v: ValId) -> ValId {
    let mut cur = v.0;
    for _ in 0..64 {
        match alias.get(cur) {
            Some(next) => cur = next,
            None => break,
        }
    }
    ValId(cur)
}

/// Aggregate statistics of an [`optimize`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Instructions replaced by constants.
    pub folded: usize,
    /// Instructions removed by aliasing to an existing value.
    pub aliased: usize,
    /// Loops fully unrolled.
    pub unrolled: usize,
    /// Statements removed by DCE (including pruned empty control flow).
    pub removed: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
}

/// Full pipeline: fold+unroll and DCE to fixpoint, then renumber.
pub fn optimize(p: &mut Program) -> PassStats {
    let mut stats = PassStats::default();
    for _ in 0..8 {
        stats.rounds += 1;
        let f = unroll_and_fold(p, 8, 512);
        stats.folded += f.folded;
        stats.aliased += f.aliased;
        stats.unrolled += f.unrolled;
        let deduped = cse(p);
        stats.aliased += deduped;
        let removed = dce(p);
        stats.removed += removed;
        if f.folded + f.aliased + f.unrolled + deduped + removed == 0 {
            break;
        }
    }
    renumber(p);
    stats
}

/// Constant folding only (no unrolling). Returns the number of changes.
pub fn const_fold(p: &mut Program) -> usize {
    let f = unroll_and_fold(p, 0, 0);
    f.folded + f.aliased
}

// ---------------------------------------------------------------------
// Fold + unroll
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum CVal {
    F(f64),
    I(i64),
    B(bool),
}

impl CVal {
    fn to_op(self) -> Op {
        match self {
            CVal::F(v) => Op::ConstF(v),
            CVal::I(v) => Op::ConstI(v),
            CVal::B(v) => Op::ConstB(v),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FoldStats {
    pub folded: usize,
    pub aliased: usize,
    pub unrolled: usize,
}

struct Folder {
    /// The constant each value is known to hold.
    consts: Table<Option<CVal>>,
    alias: Table<Option<u32>>,
    /// Renames of the loop body being cloned, and which entries to clear
    /// once the clone is done (one clone is in flight at a time).
    renames: Table<Option<u32>>,
    renamed: Vec<u32>,
    next_val: u32,
    max_trip: i64,
    max_unroll_instrs: usize,
    stats: FoldStats,
}

/// Fold constants, simplify integer identities, splice constant branches
/// and unroll loops with constant trip count `<= max_trip` whose expansion
/// stays under `max_unroll_instrs` instructions.
pub fn unroll_and_fold(p: &mut Program, max_trip: usize, max_unroll_instrs: usize) -> FoldStats {
    let mut f = Folder {
        consts: Table::default(),
        alias: Table::default(),
        renames: Table::default(),
        renamed: Vec::new(),
        next_val: p.n_vals,
        max_trip: max_trip as i64,
        max_unroll_instrs,
        stats: FoldStats::default(),
    };
    let body = std::mem::take(&mut p.body);
    let mut out = Vec::new();
    f.fold_stmts(body.0, &mut out);
    p.body = Block(out);
    p.n_vals = f.next_val;
    f.stats
}

impl Folder {
    fn resolve(&self, v: ValId) -> ValId {
        resolve(&self.alias, v)
    }

    fn cst(&self, v: ValId) -> Option<CVal> {
        self.consts.get(self.resolve(v).0)
    }

    fn cst_i(&self, v: ValId) -> Option<i64> {
        match self.cst(v) {
            Some(CVal::I(k)) => Some(k),
            _ => None,
        }
    }

    fn cst_b(&self, v: ValId) -> Option<bool> {
        match self.cst(v) {
            Some(CVal::B(k)) => Some(k),
            _ => None,
        }
    }

    fn fresh(&mut self) -> ValId {
        let id = ValId(self.next_val);
        self.next_val += 1;
        id
    }

    fn fold_block_owned(&mut self, b: Block) -> Block {
        let mut out = Vec::new();
        self.fold_stmts(b.0, &mut out);
        Block(out)
    }

    fn fold_stmts(&mut self, stmts: Vec<Stmt>, out: &mut Vec<Stmt>) {
        for s in stmts {
            match s {
                Stmt::I(mut instr) => {
                    instr.op.map_operands(|v| self.resolve(v));
                    // Literals seed the constant environment.
                    if let Some(c) = match instr.op {
                        Op::ConstF(v) => Some(CVal::F(v)),
                        Op::ConstI(v) => Some(CVal::I(v)),
                        Op::ConstB(v) => Some(CVal::B(v)),
                        _ => None,
                    } {
                        self.consts.set(instr.dst.0, Some(c));
                        out.push(Stmt::I(instr));
                    } else if let Some(c) = self.try_fold(&instr.op) {
                        self.consts.set(instr.dst.0, Some(c));
                        instr.op = c.to_op();
                        self.stats.folded += 1;
                        out.push(Stmt::I(instr));
                    } else if let Some(simp) = self.try_simplify(&instr.op) {
                        match simp {
                            Simp::Alias(v) => {
                                self.alias.set(instr.dst.0, Some(v.0));
                                self.stats.aliased += 1;
                                // Instruction dropped: uses are rewritten.
                            }
                            Simp::Const(c) => {
                                self.consts.set(instr.dst.0, Some(c));
                                instr.op = c.to_op();
                                self.stats.folded += 1;
                                out.push(Stmt::I(instr));
                            }
                        }
                    } else {
                        out.push(Stmt::I(instr));
                    }
                }
                Stmt::StGF { buf, idx, val } => out.push(Stmt::StGF {
                    buf,
                    idx: self.resolve(idx),
                    val: self.resolve(val),
                }),
                Stmt::StGI { buf, idx, val } => out.push(Stmt::StGI {
                    buf,
                    idx: self.resolve(idx),
                    val: self.resolve(val),
                }),
                Stmt::StSF { sh, idx, val } => out.push(Stmt::StSF {
                    sh,
                    idx: self.resolve(idx),
                    val: self.resolve(val),
                }),
                Stmt::StLF { loc, idx, val } => out.push(Stmt::StLF {
                    loc,
                    idx: self.resolve(idx),
                    val: self.resolve(val),
                }),
                Stmt::StSI { sh, idx, val } => out.push(Stmt::StSI {
                    sh,
                    idx: self.resolve(idx),
                    val: self.resolve(val),
                }),
                Stmt::StVarF { var, val } => out.push(Stmt::StVarF {
                    var,
                    val: self.resolve(val),
                }),
                Stmt::StVarI { var, val } => out.push(Stmt::StVarI {
                    var,
                    val: self.resolve(val),
                }),
                Stmt::Sync => out.push(Stmt::Sync),
                Stmt::Comment(c) => out.push(Stmt::Comment(c)),
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let cond = self.resolve(cond);
                    if let Some(c) = self.cst_b(cond) {
                        // Constant condition: splice the chosen branch.
                        let chosen = if c { then_b } else { else_b };
                        self.stats.folded += 1;
                        self.fold_stmts(chosen.0, out);
                    } else {
                        let t = self.fold_block_owned(then_b);
                        let e = self.fold_block_owned(else_b);
                        out.push(Stmt::If {
                            cond,
                            then_b: t,
                            else_b: e,
                        });
                    }
                }
                Stmt::ForRange {
                    counter,
                    start,
                    end,
                    body,
                    vectorize,
                } => {
                    let start = self.resolve(start);
                    let end = self.resolve(end);
                    if let (Some(s0), Some(e0)) = (self.cst_i(start), self.cst_i(end)) {
                        let trip = (e0 - s0).max(0);
                        if trip == 0 {
                            self.stats.unrolled += 1;
                            continue; // loop never executes
                        }
                        let expansion = body.instr_count().saturating_mul(trip as usize);
                        if trip <= self.max_trip && expansion <= self.max_unroll_instrs {
                            self.stats.unrolled += 1;
                            for k in s0..e0 {
                                let cid = self.fresh();
                                self.rename(counter, cid);
                                let cloned = self.clone_block_fresh(&body);
                                for v in self.renamed.drain(..) {
                                    self.renames.set(v, None);
                                }
                                let mut pre = Vec::with_capacity(cloned.0.len() + 1);
                                pre.push(Stmt::I(Instr {
                                    dst: cid,
                                    op: Op::ConstI(k),
                                }));
                                pre.extend(cloned.0);
                                self.fold_stmts(pre, out);
                            }
                            continue;
                        }
                    }
                    let fb = self.fold_block_owned(body);
                    out.push(Stmt::ForRange {
                        counter,
                        start,
                        end,
                        body: fb,
                        vectorize,
                    });
                }
                Stmt::While {
                    cond_block,
                    cond,
                    body,
                } => {
                    let cb = self.fold_block_owned(cond_block);
                    let cond = self.resolve(cond);
                    let bb = self.fold_block_owned(body);
                    out.push(Stmt::While {
                        cond_block: cb,
                        cond,
                        body: bb,
                    });
                }
            }
        }
    }

    /// Fold an op whose operands are all constants. Pure ops only.
    fn try_fold(&self, op: &Op) -> Option<CVal> {
        use CVal::*;
        Some(match op {
            Op::BinF(o, a, b) => F(sem::fbin(*o, self.f(*a)?, self.f(*b)?)),
            Op::UnF(o, a) => F(sem::fun(*o, self.f(*a)?)),
            Op::Fma(a, b, c) => F(sem::fma(self.f(*a)?, self.f(*b)?, self.f(*c)?)),
            Op::BinI(o, a, b) => I(sem::ibin(*o, self.cst_i(*a)?, self.cst_i(*b)?)),
            Op::NegI(a) => I(self.cst_i(*a)?.wrapping_neg()),
            Op::CmpF(c, a, b) => B(sem::cmp_f(*c, self.f(*a)?, self.f(*b)?)),
            Op::CmpI(c, a, b) => B(sem::cmp_i(*c, self.cst_i(*a)?, self.cst_i(*b)?)),
            Op::BinB(o, a, b) => B(sem::bbin(*o, self.cst_b(*a)?, self.cst_b(*b)?)),
            Op::NotB(a) => B(!self.cst_b(*a)?),
            Op::SelF(c, t, e) => F(if self.cst_b(*c)? {
                self.f(*t)?
            } else {
                self.f(*e)?
            }),
            Op::SelI(c, t, e) => I(if self.cst_b(*c)? {
                self.cst_i(*t)?
            } else {
                self.cst_i(*e)?
            }),
            Op::I2F(a) => F(sem::i2f(self.cst_i(*a)?)),
            Op::F2I(a) => I(sem::f2i(self.f(*a)?)),
            Op::U2UnitF(a) => F(sem::u2unit(self.cst_i(*a)?)),
            _ => return None,
        })
    }

    fn f(&self, v: ValId) -> Option<f64> {
        match self.cst(v) {
            Some(CVal::F(x)) => Some(x),
            _ => None,
        }
    }

    /// Integer/boolean algebraic identities. Floating point is deliberately
    /// untouched (no `x + 0.0 -> x`: it is not bit-exact for `-0.0`).
    fn try_simplify(&self, op: &Op) -> Option<Simp> {
        use IBin::*;
        let alias = |v: ValId| Some(Simp::Alias(v));
        match op {
            Op::BinI(Add, a, b) => {
                if self.cst_i(*b) == Some(0) {
                    alias(*a)
                } else if self.cst_i(*a) == Some(0) {
                    alias(*b)
                } else {
                    None
                }
            }
            Op::BinI(Sub, a, b) => {
                if self.cst_i(*b) == Some(0) {
                    alias(*a)
                } else {
                    None
                }
            }
            Op::BinI(Mul, a, b) => {
                if self.cst_i(*b) == Some(1) {
                    alias(*a)
                } else if self.cst_i(*a) == Some(1) {
                    alias(*b)
                } else if self.cst_i(*a) == Some(0) || self.cst_i(*b) == Some(0) {
                    Some(Simp::Const(CVal::I(0)))
                } else {
                    None
                }
            }
            Op::BinI(Div, a, b) => {
                if self.cst_i(*b) == Some(1) {
                    alias(*a)
                } else {
                    None
                }
            }
            Op::BinI(Shl, a, b) | Op::BinI(Shr, a, b) => {
                if self.cst_i(*b) == Some(0) {
                    alias(*a)
                } else {
                    None
                }
            }
            Op::BinI(And, a, b) => {
                if self.cst_i(*a) == Some(0) || self.cst_i(*b) == Some(0) {
                    Some(Simp::Const(CVal::I(0)))
                } else {
                    None
                }
            }
            Op::BinI(Or, a, b) | Op::BinI(Xor, a, b) => {
                if self.cst_i(*b) == Some(0) {
                    alias(*a)
                } else if self.cst_i(*a) == Some(0) {
                    alias(*b)
                } else {
                    None
                }
            }
            Op::SelF(c, t, e) | Op::SelI(c, t, e) => {
                if t == e {
                    alias(*t)
                } else {
                    match self.cst_b(*c) {
                        Some(true) => alias(*t),
                        Some(false) => alias(*e),
                        None => None,
                    }
                }
            }
            Op::BinB(BBin::And, a, b) => match (self.cst_b(*a), self.cst_b(*b)) {
                (Some(true), _) => alias(*b),
                (_, Some(true)) => alias(*a),
                (Some(false), _) | (_, Some(false)) => Some(Simp::Const(CVal::B(false))),
                _ => None,
            },
            Op::BinB(BBin::Or, a, b) => match (self.cst_b(*a), self.cst_b(*b)) {
                (Some(false), _) => alias(*b),
                (_, Some(false)) => alias(*a),
                (Some(true), _) | (_, Some(true)) => Some(Simp::Const(CVal::B(true))),
                _ => None,
            },
            _ => None,
        }
    }
}

enum Simp {
    Alias(ValId),
    Const(CVal),
}

impl Folder {
    /// Record that the clone in flight renames `old` to `new`.
    fn rename(&mut self, old: ValId, new: ValId) {
        self.renames.set(old.0, Some(new.0));
        self.renamed.push(old.0);
    }

    /// Deep-clone a block with fresh ValIds for every definition. `renames`
    /// carries the pre-seeded substitution (the loop counter) and accumulates
    /// the renamed definitions; operands it does not map refer to values
    /// defined outside the block and are kept.
    fn clone_block_fresh(&mut self, b: &Block) -> Block {
        let mut out = Vec::with_capacity(b.0.len());
        for s in &b.0 {
            let remap = |v: ValId| self.renames.get(v.0).map_or(v, ValId);
            let cloned = match s {
                Stmt::I(i) => {
                    let mut op = i.op.clone();
                    op.map_operands(remap);
                    let dst = self.fresh();
                    self.rename(i.dst, dst);
                    Stmt::I(Instr { dst, op })
                }
                Stmt::StGF { buf, idx, val } => Stmt::StGF {
                    buf: *buf,
                    idx: remap(*idx),
                    val: remap(*val),
                },
                Stmt::StGI { buf, idx, val } => Stmt::StGI {
                    buf: *buf,
                    idx: remap(*idx),
                    val: remap(*val),
                },
                Stmt::StSF { sh, idx, val } => Stmt::StSF {
                    sh: *sh,
                    idx: remap(*idx),
                    val: remap(*val),
                },
                Stmt::StLF { loc, idx, val } => Stmt::StLF {
                    loc: *loc,
                    idx: remap(*idx),
                    val: remap(*val),
                },
                Stmt::StSI { sh, idx, val } => Stmt::StSI {
                    sh: *sh,
                    idx: remap(*idx),
                    val: remap(*val),
                },
                Stmt::StVarF { var, val } => Stmt::StVarF {
                    var: *var,
                    val: remap(*val),
                },
                Stmt::StVarI { var, val } => Stmt::StVarI {
                    var: *var,
                    val: remap(*val),
                },
                Stmt::Sync => Stmt::Sync,
                Stmt::Comment(c) => Stmt::Comment(c.clone()),
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let cond = remap(*cond);
                    let t = self.clone_block_fresh(then_b);
                    let e = self.clone_block_fresh(else_b);
                    Stmt::If {
                        cond,
                        then_b: t,
                        else_b: e,
                    }
                }
                Stmt::ForRange {
                    counter,
                    start,
                    end,
                    body,
                    vectorize,
                } => {
                    let start = remap(*start);
                    let end = remap(*end);
                    let new_counter = self.fresh();
                    self.rename(*counter, new_counter);
                    let body = self.clone_block_fresh(body);
                    Stmt::ForRange {
                        counter: new_counter,
                        start,
                        end,
                        body,
                        vectorize: *vectorize,
                    }
                }
                Stmt::While {
                    cond_block,
                    cond,
                    body,
                } => {
                    let cb = self.clone_block_fresh(cond_block);
                    let cond = self.renames.get(cond.0).map_or(*cond, ValId);
                    let bb = self.clone_block_fresh(body);
                    Stmt::While {
                        cond_block: cb,
                        cond,
                        body: bb,
                    }
                }
            };
            out.push(cloned);
        }
        Block(out)
    }
}

// ---------------------------------------------------------------------
// Common-subexpression elimination
// ---------------------------------------------------------------------

/// Whether `op` is a pure computation `cse` may deduplicate: constants,
/// specials, parameters and arithmetic. Loads (global/shared/local/var)
/// depend on mutable state and are never deduplicated; atomics have side
/// effects.
fn is_pure(op: &Op) -> bool {
    !matches!(
        op,
        Op::LdGF { .. }
            | Op::LdGI { .. }
            | Op::LdSF { .. }
            | Op::LdSI { .. }
            | Op::LdLF { .. }
            | Op::LdVarF(_)
            | Op::LdVarI(_)
            | Op::AtomicGF { .. }
            | Op::AtomicGI { .. }
    )
}

/// Deduplicate identical pure computations within each lexical scope
/// (no hoisting across control flow). Returns the number of instructions
/// removed. Programs traced from generic kernels repeat literals and
/// extent queries freely; this pass is what keeps that style free.
pub fn cse(p: &mut Program) -> usize {
    struct Cse {
        alias: Table<Option<u32>>,
        /// The pure ops in scope and the value each defines. A duplicate is
        /// dropped, never entered, so a key is present at most once.
        seen: HashMap<Op, ValId>,
        /// The keys of `seen` in insertion order: a block leaves scope by
        /// removing what was logged since it was entered.
        log: Vec<Op>,
        removed: usize,
    }
    impl Cse {
        fn resolve(&self, v: ValId) -> ValId {
            resolve(&self.alias, v)
        }

        fn block(&mut self, b: &mut Block) {
            let mark = self.log.len();
            let stmts = std::mem::take(&mut b.0);
            for mut s in stmts {
                match &mut s {
                    Stmt::I(instr) => {
                        instr.op.map_operands(|v| self.resolve(v));
                        if is_pure(&instr.op) {
                            if let Some(existing) = self.seen.get(&instr.op) {
                                self.alias.set(instr.dst.0, Some(existing.0));
                                self.removed += 1;
                                continue; // drop the duplicate
                            }
                            self.seen.insert(instr.op.clone(), instr.dst);
                            self.log.push(instr.op.clone());
                        }
                        b.0.push(s);
                    }
                    Stmt::StGF { idx, val, .. }
                    | Stmt::StGI { idx, val, .. }
                    | Stmt::StSF { idx, val, .. }
                    | Stmt::StSI { idx, val, .. }
                    | Stmt::StLF { idx, val, .. } => {
                        *idx = self.resolve(*idx);
                        *val = self.resolve(*val);
                        b.0.push(s);
                    }
                    Stmt::StVarF { val, .. } | Stmt::StVarI { val, .. } => {
                        *val = self.resolve(*val);
                        b.0.push(s);
                    }
                    Stmt::Sync | Stmt::Comment(_) => b.0.push(s),
                    Stmt::If {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        *cond = self.resolve(*cond);
                        // Each branch leaves scope when its walk returns, so
                        // the sibling never sees then-branch definitions.
                        self.block(then_b);
                        self.block(else_b);
                        b.0.push(s);
                    }
                    Stmt::ForRange {
                        start, end, body, ..
                    } => {
                        *start = self.resolve(*start);
                        *end = self.resolve(*end);
                        self.block(body);
                        b.0.push(s);
                    }
                    Stmt::While {
                        cond_block,
                        cond,
                        body,
                    } => {
                        self.block(cond_block);
                        *cond = self.resolve(*cond);
                        self.block(body);
                        b.0.push(s);
                    }
                }
            }
            for key in self.log.drain(mark..) {
                self.seen.remove(&key);
            }
        }
    }

    let mut c = Cse {
        alias: Table::default(),
        seen: HashMap::new(),
        log: Vec::new(),
        removed: 0,
    };
    let mut body = std::mem::take(&mut p.body);
    c.block(&mut body);
    p.body = body;
    c.removed
}

// ---------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------

/// What one prune round keeps: live values, and the registers and local
/// arrays that are ever read.
#[derive(Default)]
struct Liveness {
    live: Table<bool>,
    read_vars: Table<bool>,
    read_locals: Table<bool>,
}

/// Remove pure instructions whose value is never used, stores to registers
/// never read, and control statements that became empty. Returns the number
/// of removed statements.
pub fn dce(p: &mut Program) -> usize {
    let mut removed_total = 0;
    loop {
        let mut l = Liveness::default();
        // A load counts as a read even when its own result is dead: the
        // load goes in this round, the store it kept alive in the next.
        p.body.visit(&mut |s| {
            if let Stmt::I(i) = s {
                match i.op {
                    Op::LdVarF(v) | Op::LdVarI(v) => {
                        l.read_vars.set(v.0, true);
                    }
                    Op::LdLF { loc, .. } => {
                        l.read_locals.set(loc, true);
                    }
                    _ => {}
                }
            }
        });
        mark_live(&p.body, &mut l);

        let removed = prune_block(&mut p.body, &l);
        removed_total += removed;
        if removed == 0 {
            break;
        }
    }
    removed_total
}

/// One walk in reverse execution order. A value is defined before all its
/// uses (the scope rule), so by the time the walk reaches a definition every
/// statement that can make it live has been seen.
fn mark_live(b: &Block, l: &mut Liveness) {
    for s in b.0.iter().rev() {
        match s {
            Stmt::I(i) => {
                if i.op.has_side_effect() || l.live.get(i.dst.0) {
                    i.op.for_each_operand(|v| {
                        l.live.set(v.0, true);
                    });
                }
            }
            Stmt::StGF { idx, val, .. }
            | Stmt::StSF { idx, val, .. }
            | Stmt::StGI { idx, val, .. }
            | Stmt::StSI { idx, val, .. } => {
                l.live.set(idx.0, true);
                l.live.set(val.0, true);
            }
            Stmt::StVarF { var, val } | Stmt::StVarI { var, val } => {
                if l.read_vars.get(var.0) {
                    l.live.set(val.0, true);
                }
            }
            Stmt::StLF { loc, idx, val } => {
                if l.read_locals.get(*loc) {
                    l.live.set(idx.0, true);
                    l.live.set(val.0, true);
                }
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                l.live.set(cond.0, true);
                mark_live(else_b, l);
                mark_live(then_b, l);
            }
            Stmt::ForRange {
                start, end, body, ..
            } => {
                l.live.set(start.0, true);
                l.live.set(end.0, true);
                mark_live(body, l);
            }
            Stmt::While {
                cond_block,
                cond,
                body,
            } => {
                // `cond` is defined in the condition block, whose values the
                // body may use too: the use, then the body, then the block.
                l.live.set(cond.0, true);
                mark_live(body, l);
                mark_live(cond_block, l);
            }
            Stmt::Sync | Stmt::Comment(_) => {}
        }
    }
}

fn prune_block(b: &mut Block, l: &Liveness) -> usize {
    let mut removed = 0;
    let stmts = std::mem::take(&mut b.0);
    for mut s in stmts {
        let keep = match &mut s {
            Stmt::I(i) => i.op.has_side_effect() || l.live.get(i.dst.0),
            Stmt::StVarF { var, .. } | Stmt::StVarI { var, .. } => l.read_vars.get(var.0),
            Stmt::StLF { loc, .. } => l.read_locals.get(*loc),
            Stmt::If { then_b, else_b, .. } => {
                removed += prune_block(then_b, l);
                removed += prune_block(else_b, l);
                !(then_b.is_empty() && else_b.is_empty())
            }
            Stmt::ForRange { body, .. } => {
                removed += prune_block(body, l);
                !body.is_empty()
            }
            Stmt::While {
                cond_block, body, ..
            } => {
                // A while loop's termination depends on its condition;
                // never remove it (it may be intentionally non-trivial),
                // but clean its blocks.
                removed += prune_block(cond_block, l);
                removed += prune_block(body, l);
                true
            }
            _ => true,
        };
        if keep {
            b.0.push(s);
        } else {
            removed += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------
// Uniformity (scalarization) analysis
// ---------------------------------------------------------------------

/// Lane-uniformity classification of a [`Program`]: which values ([`ValId`])
/// and mutable registers ([`VarId`]) are provably identical across all
/// threads of a block ("uniform"), and which may differ per lane
/// ("varying"). The SIMT interpreter uses this to compute uniform values
/// once per warp into a scalar register file instead of once per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uniformity {
    /// `vals[v]` — is `ValId(v)` lane-invariant?
    pub vals: Vec<bool>,
    /// `vars[v]` — is `VarId(v)` lane-invariant?
    pub vars: Vec<bool>,
}

impl Uniformity {
    pub fn val(&self, v: ValId) -> bool {
        self.vals[v.0 as usize]
    }
    pub fn var(&self, v: VarId) -> bool {
        self.vars[v.0 as usize]
    }
}

/// Classify every value and var of a (validated) program as uniform or
/// varying. Optimistic fixpoint: everything starts uniform and is degraded
/// monotonically until stable.
///
/// Rules (sound over-approximation of "may differ between lanes"):
/// * `Special(ThreadIdx)`, local-array loads (per-lane storage) and atomics
///   (per-lane results) seed *varying*; constants, params and the remaining
///   specials (block index, extents) are uniform.
/// * A pure op is uniform iff all its operands are uniform.
/// * A global/shared load is uniform iff its index is uniform (all lanes
///   then read the same cell in the same lockstep step).
/// * `LdVar` has its var's class. A var becomes varying when any store to
///   it stores a varying value **or** occurs in a divergent context (inside
///   a branch of a varying `if`, the body of a loop with varying bounds, or
///   a varying `while`) — lanes could then disagree on whether the store
///   ran.
/// * A `for` counter is uniform iff both bounds are; the loop body is a
///   divergent context iff the bounds are varying.
///
/// Uniform values executed under a partial mask are still well-defined for
/// every consumer: the IR scope rule means consumers only run under
/// sub-masks of the defining statement's mask.
pub fn uniformity(p: &Program) -> Uniformity {
    let mut u = Uniformity {
        vals: vec![true; p.n_vals as usize],
        vars: vec![true; p.vars.len()],
    };
    loop {
        let mut changed = false;
        scan_uniform(&p.body, false, &mut u, &mut changed);
        if !changed {
            break;
        }
    }
    u
}

fn op_uniform(op: &Op, u: &Uniformity) -> bool {
    match op {
        Op::Special(SpecialReg::ThreadIdx(_)) => false,
        Op::LdLF { .. } => false,
        Op::AtomicGF { .. } | Op::AtomicGI { .. } => false,
        Op::LdVarF(v) | Op::LdVarI(v) => u.vars[v.0 as usize],
        // Pure ops (and global/shared loads, whose only operand is the
        // index): uniform iff every operand is.
        _ => {
            let mut all = true;
            op.for_each_operand(|o| all &= u.vals[o.0 as usize]);
            all
        }
    }
}

fn clear_val(u: &mut Uniformity, v: ValId, changed: &mut bool) {
    let slot = &mut u.vals[v.0 as usize];
    if *slot {
        *slot = false;
        *changed = true;
    }
}

fn clear_var(u: &mut Uniformity, v: VarId, changed: &mut bool) {
    let slot = &mut u.vars[v.0 as usize];
    if *slot {
        *slot = false;
        *changed = true;
    }
}

fn scan_uniform(b: &Block, divergent: bool, u: &mut Uniformity, changed: &mut bool) {
    for s in &b.0 {
        match s {
            Stmt::I(i) if !op_uniform(&i.op, u) => {
                clear_val(u, i.dst, changed);
            }
            Stmt::I(_) => {}
            Stmt::StVarF { var, val } | Stmt::StVarI { var, val }
                if divergent || !u.vals[val.0 as usize] =>
            {
                clear_var(u, *var, changed);
            }
            Stmt::StVarF { .. } | Stmt::StVarI { .. } => {}
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let d = divergent || !u.vals[cond.0 as usize];
                scan_uniform(then_b, d, u, changed);
                scan_uniform(else_b, d, u, changed);
            }
            Stmt::ForRange {
                counter,
                start,
                end,
                body,
                ..
            } => {
                let bounds_u = u.vals[start.0 as usize] && u.vals[end.0 as usize];
                if !bounds_u {
                    clear_val(u, *counter, changed);
                }
                scan_uniform(body, divergent || !bounds_u, u, changed);
            }
            Stmt::While {
                cond_block,
                cond,
                body,
            } => {
                // The condition block re-runs under the shrinking loop mask;
                // its divergence context tracks the (possibly degraded)
                // condition. Re-read the class after scanning the condition
                // block in case it just degraded.
                let d = divergent || !u.vals[cond.0 as usize];
                scan_uniform(cond_block, d, u, changed);
                let d = divergent || !u.vals[cond.0 as usize];
                scan_uniform(body, d, u, changed);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Renumbering
// ---------------------------------------------------------------------

/// Renumber all value ids (and register vars) into canonical pre-order so
/// structurally identical programs print identically.
pub fn renumber(p: &mut Program) {
    let mut r = Renumber {
        vals: Table::default(),
        next: 0,
        var_order: Vec::new(),
        var_seen: Table::default(),
    };
    r.block(&mut p.body);
    p.n_vals = r.next;

    // Compact and reorder vars by first use.
    let mut var_map = Table::default();
    let mut new_vars = Vec::with_capacity(r.var_order.len());
    for (new_id, old_id) in r.var_order.iter().enumerate() {
        var_map.set(*old_id, Some(new_id as u32));
        new_vars.push(p.vars[*old_id as usize]);
    }
    p.vars = new_vars;
    remap_vars_block(&mut p.body, &var_map);
}

struct Renumber {
    /// Old value id -> new value id, for the definitions seen so far.
    vals: Table<Option<u32>>,
    next: u32,
    /// Register vars in order of first use.
    var_order: Vec<u32>,
    var_seen: Table<bool>,
}

impl Renumber {
    fn note_var(&mut self, v: VarId) {
        if !self.var_seen.set(v.0, true) {
            self.var_order.push(v.0);
        }
    }

    fn def(&mut self, v: &mut ValId) {
        self.vals.set(v.0, Some(self.next));
        *v = ValId(self.next);
        self.next += 1;
    }

    fn used(&self, v: ValId) -> ValId {
        match self.vals.get(v.0) {
            Some(to) => ValId(to),
            None => panic!("renumber: use of undefined {v:?}"),
        }
    }

    fn block(&mut self, b: &mut Block) {
        for s in &mut b.0 {
            match s {
                Stmt::I(i) => {
                    i.op.map_operands(|v| self.used(v));
                    if let Op::LdVarF(v) | Op::LdVarI(v) = i.op {
                        self.note_var(v);
                    }
                    self.def(&mut i.dst);
                }
                Stmt::StGF { idx, val, .. }
                | Stmt::StGI { idx, val, .. }
                | Stmt::StSF { idx, val, .. }
                | Stmt::StSI { idx, val, .. }
                | Stmt::StLF { idx, val, .. } => {
                    *idx = self.used(*idx);
                    *val = self.used(*val);
                }
                Stmt::StVarF { var, val } | Stmt::StVarI { var, val } => {
                    self.note_var(*var);
                    *val = self.used(*val);
                }
                Stmt::Sync | Stmt::Comment(_) => {}
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    *cond = self.used(*cond);
                    self.block(then_b);
                    self.block(else_b);
                }
                Stmt::ForRange {
                    counter,
                    start,
                    end,
                    body,
                    ..
                } => {
                    *start = self.used(*start);
                    *end = self.used(*end);
                    self.def(counter);
                    self.block(body);
                }
                Stmt::While {
                    cond_block,
                    cond,
                    body,
                } => {
                    self.block(cond_block);
                    *cond = self.used(*cond);
                    self.block(body);
                }
            }
        }
    }
}

fn remap_vars_block(b: &mut Block, var_map: &Table<Option<u32>>) {
    let to = |v: VarId| VarId(var_map.get(v.0).expect("every var in use was noted"));
    for s in &mut b.0 {
        match s {
            Stmt::I(i) => match &mut i.op {
                Op::LdVarF(v) | Op::LdVarI(v) => *v = to(*v),
                _ => {}
            },
            Stmt::StVarF { var, .. } | Stmt::StVarI { var, .. } => *var = to(*var),
            Stmt::If { then_b, else_b, .. } => {
                remap_vars_block(then_b, var_map);
                remap_vars_block(else_b, var_map);
            }
            Stmt::ForRange { body, .. } => remap_vars_block(body, var_map),
            Stmt::While {
                cond_block, body, ..
            } => {
                remap_vars_block(cond_block, var_map);
                remap_vars_block(body, var_map);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Atomics reducibility analysis
// ---------------------------------------------------------------------

/// One global buffer slot a reducible program's atomics target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicTarget {
    /// True for an f64 slot (`AtomicGF`), false for i64 (`AtomicGI`).
    /// The two buffer-argument namespaces are independent.
    pub is_f: bool,
    /// Kernel-argument buffer slot (the op's `buf` field).
    pub slot: u32,
    /// When every atomic on this slot uses the same operator, that
    /// operator. Integer single-op targets qualify for per-worker value
    /// shadows; mixed-op and float targets need the ordered replay log.
    pub single_op: Option<AtomicOp>,
}

/// Why a program with global atomics cannot defer them (see
/// [`atomics_summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonReducibleReason {
    /// Uses `AtomicOp::Exch`, whose result is inherently order-dependent.
    NonCommutativeOp,
    /// An atomic's returned old value feeds a later instruction, so the
    /// pre-reduction cell contents are observable.
    ResultObserved,
    /// An atomic-target buffer slot is also loaded or stored
    /// non-atomically in the same program, which would see stale
    /// (pre-reduction) contents under deferral.
    TargetAccessed,
}

/// Classification of a program's global atomics for the simulator's
/// deferred-reduction path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicsSummary {
    NoAtomics,
    /// Every global atomic may be deferred to launch end: all operators
    /// are commutative reductions, no atomic result is consumed, and no
    /// target buffer is otherwise accessed. The targets are listed in
    /// first-appearance order.
    Reducible(Vec<AtomicTarget>),
    NonReducible(NonReducibleReason),
}

/// Statically classify `p`'s global atomics. A `Reducible` program can
/// have its atomic effects accumulated privately per interpreter worker
/// and applied in a deterministic order at launch end — the basis of the
/// simulator's parallel atomics path — because nothing in the program can
/// observe a cell between individual atomic applications.
pub fn atomics_summary(p: &Program) -> AtomicsSummary {
    let mut targets: Vec<(AtomicTarget, bool)> = Vec::new(); // (target, mixed)
    let mut atomic_dsts: Vec<u32> = Vec::new();
    let mut used = Table::<bool>::default();
    let mut exch = false;
    // Slots touched by plain loads/stores, per buffer namespace.
    let (mut plain_f, mut plain_i) = (Table::<bool>::default(), Table::default());

    let mut note_target = |is_f: bool, slot: u32, op: AtomicOp| match targets
        .iter_mut()
        .find(|(t, _)| t.is_f == is_f && t.slot == slot)
    {
        Some((t, mixed)) => {
            if t.single_op != Some(op) {
                t.single_op = None;
                *mixed = true;
            }
        }
        None => targets.push((
            AtomicTarget {
                is_f,
                slot,
                single_op: Some(op),
            },
            false,
        )),
    };

    p.body.visit(&mut |s| match s {
        Stmt::I(i) => {
            i.op.for_each_operand(|v| {
                used.set(v.0, true);
            });
            match &i.op {
                Op::AtomicGF { op, buf, .. } => {
                    exch |= *op == AtomicOp::Exch;
                    atomic_dsts.push(i.dst.0);
                    note_target(true, *buf, *op);
                }
                Op::AtomicGI { op, buf, .. } => {
                    exch |= *op == AtomicOp::Exch;
                    atomic_dsts.push(i.dst.0);
                    note_target(false, *buf, *op);
                }
                Op::LdGF { buf, .. } => {
                    plain_f.set(*buf, true);
                }
                Op::LdGI { buf, .. } => {
                    plain_i.set(*buf, true);
                }
                _ => {}
            }
        }
        Stmt::StGF { buf, idx, val } => {
            plain_f.set(*buf, true);
            used.set(idx.0, true);
            used.set(val.0, true);
        }
        Stmt::StGI { buf, idx, val } => {
            plain_i.set(*buf, true);
            used.set(idx.0, true);
            used.set(val.0, true);
        }
        Stmt::StSF { idx, val, .. } | Stmt::StSI { idx, val, .. } => {
            used.set(idx.0, true);
            used.set(val.0, true);
        }
        Stmt::StLF { idx, val, .. } => {
            used.set(idx.0, true);
            used.set(val.0, true);
        }
        Stmt::StVarF { val, .. } | Stmt::StVarI { val, .. } => {
            used.set(val.0, true);
        }
        Stmt::If { cond, .. } => {
            used.set(cond.0, true);
        }
        Stmt::ForRange { start, end, .. } => {
            used.set(start.0, true);
            used.set(end.0, true);
        }
        Stmt::While { cond, .. } => {
            used.set(cond.0, true);
        }
        Stmt::Sync | Stmt::Comment(_) => {}
    });

    if targets.is_empty() {
        return AtomicsSummary::NoAtomics;
    }
    if exch {
        return AtomicsSummary::NonReducible(NonReducibleReason::NonCommutativeOp);
    }
    if atomic_dsts.iter().any(|d| used.get(*d)) {
        return AtomicsSummary::NonReducible(NonReducibleReason::ResultObserved);
    }
    let plain = |t: &AtomicTarget| if t.is_f { &plain_f } else { &plain_i }.get(t.slot);
    if targets.iter().any(|(t, _)| plain(t)) {
        return AtomicsSummary::NonReducible(NonReducibleReason::TargetAccessed);
    }
    AtomicsSummary::Reducible(targets.into_iter().map(|(t, _)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{trace_kernel, trace_kernel_spec, SpecConsts};
    use crate::printer::print_stream;
    use crate::validate::validate;
    use alpaka_core::kernel::Kernel;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};

    /// The Alpaka-style DAXPY with the generic element loop.
    struct AlpakaDaxpy;
    impl Kernel for AlpakaDaxpy {
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

    /// "Native CUDA" DAXPY: index computed by hand, no element loop.
    struct NativeDaxpy;
    impl Kernel for NativeDaxpy {
        fn name(&self) -> &str {
            "daxpy"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let bi = o.block_idx(0);
            let bd = o.block_thread_extent(0);
            let ti = o.thread_idx(0);
            let t = o.mul_i(bi, bd);
            let i = o.add_i(t, ti);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let xv = o.ld_gf(x, i);
                let yv = o.ld_gf(y, i);
                let r = o.fma_f(xv, a, yv);
                o.st_gf(y, i, r);
            });
        }
    }

    #[test]
    fn zero_overhead_daxpy_streams_identical() {
        // The Fig. 4 experiment in miniature: trace the Alpaka kernel with
        // the element extent specialized to 1 (as the CUDA accelerator
        // does), optimize, and compare with the hand-written kernel.
        let spec = SpecConsts {
            thread_elem_extent: Some([1, 1, 1]),
            ..Default::default()
        };
        let mut alp = trace_kernel_spec(&AlpakaDaxpy, 1, spec);
        let mut nat = trace_kernel(&NativeDaxpy, 1);
        optimize(&mut alp);
        optimize(&mut nat);
        validate(&alp).unwrap();
        validate(&nat).unwrap();
        assert_eq!(print_stream(&alp), print_stream(&nat));
    }

    #[test]
    fn optimize_reports_work() {
        let spec = SpecConsts {
            thread_elem_extent: Some([1, 1, 1]),
            ..Default::default()
        };
        let mut alp = trace_kernel_spec(&AlpakaDaxpy, 1, spec);
        let before = alp.instr_count();
        let stats = optimize(&mut alp);
        assert!(stats.unrolled >= 1, "element loop should unroll: {stats:?}");
        assert!(stats.aliased >= 1, "mul-by-one should alias: {stats:?}");
        assert!(alp.instr_count() < before);
    }

    #[test]
    fn optimize_preserves_semantics_daxpy() {
        use crate::eval::*;
        let spec = SpecConsts {
            thread_elem_extent: Some([1, 1, 1]),
            ..Default::default()
        };
        let raw = trace_kernel_spec(&AlpakaDaxpy, 1, spec);
        let mut opt = raw.clone();
        optimize(&mut opt);
        let run = |p: &Program| {
            let mut mem = EvalMem {
                bufs_f: vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
                bufs_i: vec![],
            };
            for t in 0..3 {
                let mut sp = SpecialValues::default();
                sp.block_threads = [1, 1, 3];
                sp.thread_idx = [0, 0, t];
                let inp = EvalInputs {
                    params_f: &[10.0],
                    params_i: &[3],
                    special: sp,
                };
                eval_thread(p, &inp, &mut mem).unwrap();
            }
            mem
        };
        assert_eq!(run(&raw), run(&opt));
    }

    #[test]
    fn constant_if_is_spliced() {
        struct K;
        impl Kernel for K {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let t = o.lit_b(true);
                let i0 = o.lit_i(0);
                o.if_else(
                    t,
                    |o| {
                        let v = o.lit_f(1.0);
                        o.st_gf(b, i0, v);
                    },
                    |o| {
                        let v = o.lit_f(2.0);
                        o.st_gf(b, i0, v);
                    },
                );
            }
        }
        let mut p = trace_kernel(&K, 1);
        optimize(&mut p);
        validate(&p).unwrap();
        let mut ifs = 0;
        let mut stores = 0;
        p.body.visit(&mut |s| match s {
            Stmt::If { .. } => ifs += 1,
            Stmt::StGF { .. } => stores += 1,
            _ => {}
        });
        assert_eq!(ifs, 0);
        assert_eq!(stores, 1);
    }

    #[test]
    fn dce_keeps_atomics() {
        struct K;
        impl Kernel for K {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let i0 = o.lit_i(0);
                let one = o.lit_f(1.0);
                let _old = o.atomic_add_gf(b, i0, one); // result unused
                let dead = o.lit_f(42.0);
                let _dead2 = o.mul_f(dead, dead); // genuinely dead
            }
        }
        let mut p = trace_kernel(&K, 1);
        optimize(&mut p);
        let mut atomics = 0;
        p.body.visit(&mut |s| {
            if let Stmt::I(i) = s {
                if i.op.has_side_effect() {
                    atomics += 1;
                }
            }
        });
        assert_eq!(atomics, 1);
        // Only the atomic chain survives: idx + val + atomic = 3 instrs.
        assert_eq!(p.instr_count(), 3);
    }

    #[test]
    fn dce_drops_stores_to_unread_vars() {
        struct K;
        impl Kernel for K {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let z = o.lit_f(0.0);
                let v = o.var_f(z); // never read
                let w = o.lit_f(3.0);
                o.vset_f(v, w);
            }
        }
        let mut p = trace_kernel(&K, 1);
        optimize(&mut p);
        assert_eq!(p.body.stmt_count(), 0);
        assert!(p.vars.is_empty());
    }

    #[test]
    fn zero_trip_loop_removed() {
        struct K;
        impl Kernel for K {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let s = o.lit_i(5);
                let e = o.lit_i(5);
                o.for_range(s, e, |o, i| {
                    let v = o.lit_f(1.0);
                    o.st_gf(b, i, v);
                });
            }
        }
        let mut p = trace_kernel(&K, 1);
        optimize(&mut p);
        assert_eq!(p.body.stmt_count(), 0);
    }

    #[test]
    fn renumber_is_canonical() {
        // Two traces of the same kernel with different intermediate junk
        // must print identically after optimize.
        struct K1;
        impl Kernel for K1 {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let _junk = o.lit_f(99.0);
                let i = o.lit_i(0);
                let v = o.lit_f(7.0);
                o.st_gf(b, i, v);
            }
        }
        struct K2;
        impl Kernel for K2 {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let i = o.lit_i(0);
                let v = o.lit_f(7.0);
                o.st_gf(b, i, v);
            }
        }
        let mut p1 = trace_kernel(&K1, 1);
        let mut p2 = trace_kernel(&K2, 1);
        optimize(&mut p1);
        optimize(&mut p2);
        assert_eq!(print_stream(&p1), print_stream(&p2));
    }

    /// Hand-build a 1-D program from statements (uniformity tests).
    fn prog_of(stmts: Vec<Stmt>, n_vals: u32, vars: Vec<VarInfo>) -> Program {
        Program {
            name: "uniformity-test".into(),
            dims: 1,
            body: Block(stmts),
            n_vals,
            vars,
            shared: vec![],
            locals: vec![],
            n_bufs_f: 1,
            n_bufs_i: 0,
            n_params_f: 1,
            n_params_i: 1,
        }
    }

    fn instr(dst: u32, op: Op) -> Stmt {
        Stmt::I(Instr {
            dst: ValId(dst),
            op,
        })
    }

    #[test]
    fn uniformity_thread_vs_block_index() {
        let p = prog_of(
            vec![
                instr(0, Op::Special(SpecialReg::ThreadIdx(2))),
                instr(1, Op::Special(SpecialReg::BlockIdx(2))),
                instr(2, Op::BinI(IBin::Add, ValId(0), ValId(1))), // tid-derived
                instr(3, Op::BinI(IBin::Add, ValId(1), ValId(1))), // block-derived
                instr(4, Op::ParamI(0)),
                instr(5, Op::ConstI(7)),
            ],
            6,
            vec![],
        );
        let u = uniformity(&p);
        assert!(!u.val(ValId(0)), "thread idx must be varying");
        assert!(u.val(ValId(1)), "block idx is uniform");
        assert!(!u.val(ValId(2)), "tid-derived value must be varying");
        assert!(u.val(ValId(3)));
        assert!(u.val(ValId(4)));
        assert!(u.val(ValId(5)));
    }

    #[test]
    fn uniformity_loads_follow_index() {
        let p = prog_of(
            vec![
                instr(0, Op::Special(SpecialReg::ThreadIdx(2))),
                instr(1, Op::ConstI(3)),
                instr(
                    2,
                    Op::LdGF {
                        buf: 0,
                        idx: ValId(1),
                    },
                ), // uniform idx
                instr(
                    3,
                    Op::LdGF {
                        buf: 0,
                        idx: ValId(0),
                    },
                ), // varying idx
            ],
            4,
            vec![],
        );
        let u = uniformity(&p);
        assert!(u.val(ValId(2)), "load at uniform index is uniform");
        assert!(!u.val(ValId(3)), "load at varying index is varying");
    }

    #[test]
    fn uniformity_divergent_store_taints_var() {
        // var0 is stored (a uniform value) under a tid-dependent branch:
        // lanes can disagree on whether the store ran -> varying. var1 gets
        // the same store at top level -> uniform. The fixpoint must also
        // carry the taint through a LdVar that executes *before* the store
        // in program order.
        let p = prog_of(
            vec![
                instr(0, Op::Special(SpecialReg::ThreadIdx(2))),
                instr(1, Op::ConstI(1)),
                instr(2, Op::LdVarI(VarId(0))), // reads var0: varying via fixpoint
                instr(3, Op::CmpI(Cmp::Lt, ValId(0), ValId(1))),
                Stmt::If {
                    cond: ValId(3),
                    then_b: Block(vec![Stmt::StVarI {
                        var: VarId(0),
                        val: ValId(1),
                    }]),
                    else_b: Block::default(),
                },
                Stmt::StVarI {
                    var: VarId(1),
                    val: ValId(1),
                },
            ],
            4,
            vec![VarInfo { ty: Ty::I64 }, VarInfo { ty: Ty::I64 }],
        );
        let u = uniformity(&p);
        assert!(!u.var(VarId(0)), "divergent-context store taints the var");
        assert!(u.var(VarId(1)));
        assert!(!u.val(ValId(2)), "LdVar of a tainted var is varying");
    }

    #[test]
    fn uniformity_for_counter_follows_bounds() {
        let uniform_loop = prog_of(
            vec![
                instr(0, Op::ConstI(0)),
                instr(1, Op::ParamI(0)),
                Stmt::ForRange {
                    counter: ValId(2),
                    start: ValId(0),
                    end: ValId(1),
                    body: Block(vec![Stmt::StVarI {
                        var: VarId(0),
                        val: ValId(2),
                    }]),
                    vectorize: false,
                },
            ],
            3,
            vec![VarInfo { ty: Ty::I64 }],
        );
        let u = uniformity(&uniform_loop);
        assert!(u.val(ValId(2)), "counter with uniform bounds is uniform");
        assert!(u.var(VarId(0)), "store in a uniform loop body is uniform");

        let varying_loop = prog_of(
            vec![
                instr(0, Op::ConstI(0)),
                instr(1, Op::Special(SpecialReg::ThreadIdx(2))),
                Stmt::ForRange {
                    counter: ValId(2),
                    start: ValId(0),
                    end: ValId(1),
                    body: Block(vec![Stmt::StVarI {
                        var: VarId(0),
                        val: ValId(0),
                    }]),
                    vectorize: false,
                },
            ],
            3,
            vec![VarInfo { ty: Ty::I64 }],
        );
        let u = uniformity(&varying_loop);
        assert!(!u.val(ValId(2)), "counter with varying end is varying");
        assert!(
            !u.var(VarId(0)),
            "store in a varying-trip loop body is divergent"
        );
    }

    #[test]
    fn uniformity_on_traced_kernels() {
        // The per-thread guard of the optimized DAXPY depends on the global
        // thread index: the condition and everything under it must be
        // varying, while the parameter load stays uniform.
        let spec = SpecConsts {
            thread_elem_extent: Some([1, 1, 1]),
            ..Default::default()
        };
        let mut p = trace_kernel_spec(&AlpakaDaxpy, 1, spec);
        optimize(&mut p);
        let u = uniformity(&p);
        let mut saw_varying_if = false;
        p.body.visit(&mut |s| {
            if let Stmt::If { cond, .. } = s {
                if !u.val(*cond) {
                    saw_varying_if = true;
                }
            }
        });
        assert!(saw_varying_if, "daxpy guard should be varying");
        // There must be at least one uniform value (params / extents).
        assert!(u.vals.iter().any(|&b| b));
    }

    #[test]
    fn while_loops_survive_optimization() {
        struct K;
        impl Kernel for K {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_i(0);
                let ten = o.lit_i(10);
                let x = o.var_i(ten);
                o.while_(
                    |o| {
                        let xv = o.vget_i(x);
                        let zero = o.lit_i(0);
                        o.gt_i(xv, zero)
                    },
                    |o| {
                        let xv = o.vget_i(x);
                        let one = o.lit_i(1);
                        let nx = o.sub_i(xv, one);
                        o.vset_i(x, nx);
                    },
                );
                let xv = o.vget_i(x);
                let i0 = o.lit_i(0);
                o.st_gi(b, i0, xv);
            }
        }
        let mut p = trace_kernel(&K, 1);
        optimize(&mut p);
        validate(&p).unwrap();
        let mut whiles = 0;
        p.body.visit(&mut |s| {
            if matches!(s, Stmt::While { .. }) {
                whiles += 1
            }
        });
        assert_eq!(whiles, 1);
        // Semantics check.
        use crate::eval::*;
        let mut mem = EvalMem {
            bufs_f: vec![],
            bufs_i: vec![vec![-1]],
        };
        let inp = EvalInputs {
            params_f: &[],
            params_i: &[],
            special: SpecialValues::default(),
        };
        eval_thread(&p, &inp, &mut mem).unwrap();
        assert_eq!(mem.bufs_i[0][0], 0);
    }

    #[test]
    fn atomics_summary_classifies_histogram_as_reducible() {
        struct Hist;
        impl Kernel for Hist {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let src = o.buf_i(0);
                let bins = o.buf_i(1);
                let tid = o.linear_global_thread_idx();
                let v = o.ld_gi(src, tid);
                let one = o.lit_i(1);
                let _ = o.atomic_add_gi(bins, v, one);
            }
        }
        let p = trace_kernel(&Hist, 1);
        match atomics_summary(&p) {
            AtomicsSummary::Reducible(ts) => {
                assert_eq!(ts.len(), 1);
                assert_eq!(ts[0].is_f, false);
                assert_eq!(ts[0].slot, 1);
                assert_eq!(ts[0].single_op, Some(AtomicOp::Add));
            }
            other => panic!("expected Reducible, got {other:?}"),
        }
    }

    #[test]
    fn atomics_summary_mixed_ops_on_one_slot_lose_single_op() {
        struct MinMax;
        impl Kernel for MinMax {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_i(0);
                let tid = o.linear_global_thread_idx();
                let z = o.lit_i(0);
                let one = o.lit_i(1);
                let _ = o.atomic_min_gi(b, z, tid);
                let _ = o.atomic_max_gi(b, one, tid);
            }
        }
        let p = trace_kernel(&MinMax, 1);
        match atomics_summary(&p) {
            AtomicsSummary::Reducible(ts) => {
                assert_eq!(ts.len(), 1);
                assert_eq!(ts[0].single_op, None);
            }
            other => panic!("expected Reducible, got {other:?}"),
        }
    }

    #[test]
    fn atomics_summary_rejects_observed_results_and_exch() {
        struct Observed;
        impl Kernel for Observed {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_i(0);
                let out = o.buf_i(1);
                let tid = o.linear_global_thread_idx();
                let one = o.lit_i(1);
                let z = o.lit_i(0);
                let old = o.atomic_add_gi(b, z, one);
                o.st_gi(out, tid, old);
            }
        }
        let p = trace_kernel(&Observed, 1);
        assert_eq!(
            atomics_summary(&p),
            AtomicsSummary::NonReducible(NonReducibleReason::ResultObserved)
        );

        struct Exch;
        impl Kernel for Exch {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_i(0);
                let tid = o.linear_global_thread_idx();
                let z = o.lit_i(0);
                let _ = o.atomic_exch_gi(b, z, tid);
            }
        }
        let p = trace_kernel(&Exch, 1);
        assert_eq!(
            atomics_summary(&p),
            AtomicsSummary::NonReducible(NonReducibleReason::NonCommutativeOp)
        );
    }

    #[test]
    fn atomics_summary_rejects_plain_access_to_target() {
        struct LoadAfter;
        impl Kernel for LoadAfter {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let acc = o.buf_f(0);
                let out = o.buf_f(1);
                let tid = o.linear_global_thread_idx();
                let v = o.i2f(tid);
                let z = o.lit_i(0);
                let _ = o.atomic_add_gf(acc, z, v);
                let cur = o.ld_gf(acc, z);
                o.st_gf(out, tid, cur);
            }
        }
        let p = trace_kernel(&LoadAfter, 1);
        assert_eq!(
            atomics_summary(&p),
            AtomicsSummary::NonReducible(NonReducibleReason::TargetAccessed)
        );
        // A plain store to a *different* slot does not poison the target.
        struct StoreElsewhere;
        impl Kernel for StoreElsewhere {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let acc = o.buf_f(0);
                let out = o.buf_f(1);
                let tid = o.linear_global_thread_idx();
                let v = o.i2f(tid);
                let z = o.lit_i(0);
                let _ = o.atomic_add_gf(acc, z, v);
                o.st_gf(out, tid, v);
            }
        }
        let p = trace_kernel(&StoreElsewhere, 1);
        assert!(matches!(atomics_summary(&p), AtomicsSummary::Reducible(_)));
        assert_eq!(atomics_summary(&trace_kernel(&StoreElsewhere, 1)), {
            AtomicsSummary::Reducible(vec![AtomicTarget {
                is_f: true,
                slot: 0,
                single_op: Some(AtomicOp::Add),
            }])
        });
    }
}
