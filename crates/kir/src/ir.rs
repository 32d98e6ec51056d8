//! The kernel IR data model.
//!
//! A traced kernel is a [`Program`]: a tree of structured statements
//! ([`Stmt`]) whose leaves are single-assignment instructions ([`Instr`]).
//! The IR plays the role PTX plays in the paper's evaluation: it is the
//! "virtual ISA" the simulated devices execute, and the artifact whose
//! instruction streams the Fig. 4 experiment diffs.
//!
//! Design points:
//! * **Structured control flow** (if / for / while), never a flat CFG — the
//!   SIMT interpreter needs reconvergence points, and structured regions
//!   give them for free.
//! * **SSA-ish values** within the tree: every [`Instr`] defines exactly one
//!   [`ValId`]; mutable state lives in explicit register *vars* ([`VarId`]),
//!   matching the register memory level of the abstraction model.
//! * A value defined in a block is only usable inside that block (scope
//!   rule enforced by the validator); loop-carried data must use vars.

use core::fmt;

/// Value identifier (virtual register).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValId(pub u32);

/// Mutable register identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Block-shared array identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShId(pub u32);

impl fmt::Debug for ValId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}
impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$v{}", self.0)
    }
}
impl fmt::Debug for ShId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@sh{}", self.0)
    }
}

/// Value types of the virtual ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    F64,
    I64,
    Bool,
}

impl Ty {
    pub fn suffix(&self) -> &'static str {
        match self {
            Ty::F64 => "f64",
            Ty::I64 => "s64",
            Ty::Bool => "pred",
        }
    }
}

/// Special (built-in) index registers. The axis is canonical (0 = z, 1 = y,
/// 2 = x) — the builder translates user dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    GridBlockExtent(u8),
    BlockThreadExtent(u8),
    ThreadElemExtent(u8),
    BlockIdx(u8),
    ThreadIdx(u8),
}

impl SpecialReg {
    pub fn mnemonic(&self) -> String {
        let axis = |a: u8| ["z", "y", "x"][a as usize];
        match self {
            SpecialReg::GridBlockExtent(a) => format!("nctaid.{}", axis(*a)),
            SpecialReg::BlockThreadExtent(a) => format!("ntid.{}", axis(*a)),
            SpecialReg::ThreadElemExtent(a) => format!("nelem.{}", axis(*a)),
            SpecialReg::BlockIdx(a) => format!("ctaid.{}", axis(*a)),
            SpecialReg::ThreadIdx(a) => format!("tid.{}", axis(*a)),
        }
    }
}

/// Binary floating-point operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBin {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

/// Unary floating-point operators ("special function unit" ops on GPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FUn {
    Neg,
    Abs,
    Sqrt,
    Exp,
    Ln,
    Sin,
    Cos,
    Floor,
}

/// Binary integer operators (wrapping semantics; `Shr` is logical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Comparison predicates (shared by f64 and i64 forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

/// Boolean connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BBin {
    And,
    Or,
}

/// Atomic read-modify-write operators on global memory.
///
/// `And`/`Or`/`Xor`/`Exch` are integer-only: validation rejects them on
/// `AtomicGF` (bitwise ops on f64 payloads have no IEEE meaning, and an
/// exchange on floats would add a non-reducible op for no modeled
/// workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    Add,
    Min,
    Max,
    And,
    Or,
    Xor,
    /// Unconditional swap: the cell takes `val`, the old value is returned.
    /// Never commutative-reducible — programs using it keep the serial
    /// block path (see `alpaka_kir::atomics_summary`).
    Exch,
}

/// The operation performed by an [`Instr`]. Every variant produces a value.
///
/// Equality and hashing are structural and *bitwise*: `ConstF` compares by
/// bit pattern, so `0.0` and `-0.0` differ and a NaN literal equals itself.
/// `Eq + Hash` therefore hold from here up to [`Program`] — the one identity
/// `cse` deduplicates by and the program caches key on.
#[derive(Debug, Clone)]
pub enum Op {
    ConstF(f64),
    ConstI(i64),
    ConstB(bool),
    Special(SpecialReg),
    /// `slot`-th f64 scalar launch parameter.
    ParamF(u32),
    ParamI(u32),
    BinF(FBin, ValId, ValId),
    UnF(FUn, ValId),
    /// Fused multiply-add `a * b + c`.
    Fma(ValId, ValId, ValId),
    BinI(IBin, ValId, ValId),
    NegI(ValId),
    CmpF(Cmp, ValId, ValId),
    CmpI(Cmp, ValId, ValId),
    BinB(BBin, ValId, ValId),
    NotB(ValId),
    SelF(ValId, ValId, ValId),
    SelI(ValId, ValId, ValId),
    I2F(ValId),
    F2I(ValId),
    /// Top 53 bits of the u64 word mapped to `[0, 1)`.
    U2UnitF(ValId),
    /// Load from global f64 buffer `slot` at element index `idx`.
    LdGF {
        buf: u32,
        idx: ValId,
    },
    LdGI {
        buf: u32,
        idx: ValId,
    },
    LdSF {
        sh: u32,
        idx: ValId,
    },
    LdSI {
        sh: u32,
        idx: ValId,
    },
    LdVarF(VarId),
    LdVarI(VarId),
    /// Load from a thread-private scratch array.
    LdLF {
        loc: u32,
        idx: ValId,
    },
    /// Atomic RMW on a global f64 buffer; produces the old value.
    AtomicGF {
        op: AtomicOp,
        buf: u32,
        idx: ValId,
        val: ValId,
    },
    AtomicGI {
        op: AtomicOp,
        buf: u32,
        idx: ValId,
        val: ValId,
    },
}

impl Op {
    /// What `Eq` and `Hash` see: variant, its constant (floats as bits),
    /// slot or sub-operator, and the operands in order.
    fn key(&self) -> (core::mem::Discriminant<Op>, u64, [u32; 3]) {
        let payload = match self {
            Op::ConstF(v) => v.to_bits(),
            Op::ConstI(v) => *v as u64,
            Op::ConstB(v) => u64::from(*v),
            Op::Special(r) => match *r {
                SpecialReg::GridBlockExtent(a) => u64::from(a),
                SpecialReg::BlockThreadExtent(a) => 1 << 8 | u64::from(a),
                SpecialReg::ThreadElemExtent(a) => 2 << 8 | u64::from(a),
                SpecialReg::BlockIdx(a) => 3 << 8 | u64::from(a),
                SpecialReg::ThreadIdx(a) => 4 << 8 | u64::from(a),
            },
            Op::ParamF(s) | Op::ParamI(s) => u64::from(*s),
            Op::LdGF { buf: s, .. } | Op::LdGI { buf: s, .. } => u64::from(*s),
            Op::LdSF { sh: s, .. } | Op::LdSI { sh: s, .. } | Op::LdLF { loc: s, .. } => {
                u64::from(*s)
            }
            Op::LdVarF(v) | Op::LdVarI(v) => u64::from(v.0),
            Op::BinF(o, ..) => *o as u64,
            Op::UnF(o, _) => *o as u64,
            Op::BinI(o, ..) => *o as u64,
            Op::CmpF(c, ..) | Op::CmpI(c, ..) => *c as u64,
            Op::BinB(o, ..) => *o as u64,
            Op::AtomicGF { op, buf, .. } | Op::AtomicGI { op, buf, .. } => {
                (*op as u64) << 32 | u64::from(*buf)
            }
            Op::Fma(..) | Op::NegI(_) | Op::NotB(_) | Op::SelF(..) | Op::SelI(..) => 0,
            Op::I2F(_) | Op::F2I(_) | Op::U2UnitF(_) => 0,
        };
        let mut operands = [u32::MAX; 3];
        let mut n = 0;
        self.for_each_operand(|v| {
            operands[n] = v.0;
            n += 1;
        });
        (core::mem::discriminant(self), payload, operands)
    }

    /// Operations with side effects must survive dead-code elimination even
    /// when their result value is unused.
    pub fn has_side_effect(&self) -> bool {
        matches!(self, Op::AtomicGF { .. } | Op::AtomicGI { .. })
    }

    /// The type of the produced value.
    pub fn result_ty(&self) -> Ty {
        match self {
            Op::ConstF(_)
            | Op::ParamF(_)
            | Op::BinF(..)
            | Op::UnF(..)
            | Op::Fma(..)
            | Op::SelF(..)
            | Op::I2F(_)
            | Op::U2UnitF(_)
            | Op::LdGF { .. }
            | Op::LdSF { .. }
            | Op::LdVarF(_)
            | Op::LdLF { .. }
            | Op::AtomicGF { .. } => Ty::F64,
            Op::ConstI(_)
            | Op::ParamI(_)
            | Op::Special(_)
            | Op::BinI(..)
            | Op::NegI(_)
            | Op::SelI(..)
            | Op::F2I(_)
            | Op::LdGI { .. }
            | Op::LdSI { .. }
            | Op::LdVarI(_)
            | Op::AtomicGI { .. } => Ty::I64,
            Op::ConstB(_) | Op::CmpF(..) | Op::CmpI(..) | Op::BinB(..) | Op::NotB(_) => Ty::Bool,
        }
    }

    /// Invoke `f` on every value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(ValId)) {
        match self {
            Op::ConstF(_)
            | Op::ConstI(_)
            | Op::ConstB(_)
            | Op::Special(_)
            | Op::ParamF(_)
            | Op::ParamI(_)
            | Op::LdVarF(_)
            | Op::LdVarI(_) => {}
            Op::UnF(_, a)
            | Op::NegI(a)
            | Op::NotB(a)
            | Op::I2F(a)
            | Op::F2I(a)
            | Op::U2UnitF(a)
            | Op::LdGF { idx: a, .. }
            | Op::LdGI { idx: a, .. }
            | Op::LdSF { idx: a, .. }
            | Op::LdSI { idx: a, .. }
            | Op::LdLF { idx: a, .. } => f(*a),
            Op::BinF(_, a, b)
            | Op::BinI(_, a, b)
            | Op::CmpF(_, a, b)
            | Op::CmpI(_, a, b)
            | Op::BinB(_, a, b)
            | Op::AtomicGF { idx: a, val: b, .. }
            | Op::AtomicGI { idx: a, val: b, .. } => {
                f(*a);
                f(*b);
            }
            Op::Fma(a, b, c) | Op::SelF(a, b, c) | Op::SelI(a, b, c) => {
                f(*a);
                f(*b);
                f(*c);
            }
        }
    }

    /// Rewrite every value operand through `m`.
    pub fn map_operands(&mut self, mut m: impl FnMut(ValId) -> ValId) {
        match self {
            Op::ConstF(_)
            | Op::ConstI(_)
            | Op::ConstB(_)
            | Op::Special(_)
            | Op::ParamF(_)
            | Op::ParamI(_)
            | Op::LdVarF(_)
            | Op::LdVarI(_) => {}
            Op::UnF(_, a)
            | Op::NegI(a)
            | Op::NotB(a)
            | Op::I2F(a)
            | Op::F2I(a)
            | Op::U2UnitF(a)
            | Op::LdGF { idx: a, .. }
            | Op::LdGI { idx: a, .. }
            | Op::LdSF { idx: a, .. }
            | Op::LdSI { idx: a, .. }
            | Op::LdLF { idx: a, .. } => *a = m(*a),
            Op::BinF(_, a, b)
            | Op::BinI(_, a, b)
            | Op::CmpF(_, a, b)
            | Op::CmpI(_, a, b)
            | Op::BinB(_, a, b)
            | Op::AtomicGF { idx: a, val: b, .. }
            | Op::AtomicGI { idx: a, val: b, .. } => {
                *a = m(*a);
                *b = m(*b);
            }
            Op::Fma(a, b, c) | Op::SelF(a, b, c) | Op::SelI(a, b, c) => {
                *a = m(*a);
                *b = m(*b);
                *c = m(*c);
            }
        }
    }
}

impl PartialEq for Op {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Op {}

impl core::hash::Hash for Op {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// A single-assignment instruction: `dst = op(...)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instr {
    pub dst: ValId,
    pub op: Op,
}

/// A structured statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Value-producing instruction.
    I(Instr),
    /// Store to a global buffer: `buf[idx] = val`.
    StGF {
        buf: u32,
        idx: ValId,
        val: ValId,
    },
    StGI {
        buf: u32,
        idx: ValId,
        val: ValId,
    },
    /// Store to a thread-private scratch array.
    StLF {
        loc: u32,
        idx: ValId,
        val: ValId,
    },
    /// Store to a block-shared array.
    StSF {
        sh: u32,
        idx: ValId,
        val: ValId,
    },
    StSI {
        sh: u32,
        idx: ValId,
        val: ValId,
    },
    /// Assign a mutable register.
    StVarF {
        var: VarId,
        val: ValId,
    },
    StVarI {
        var: VarId,
        val: ValId,
    },
    /// Block-wide thread barrier.
    Sync,
    /// Two-armed structured conditional.
    If {
        cond: ValId,
        then_b: Block,
        else_b: Block,
    },
    /// Counted loop `for counter in start..end` (unit step). `counter` is
    /// rebound on every iteration; `vectorize` marks an *element loop*.
    ForRange {
        counter: ValId,
        start: ValId,
        end: ValId,
        body: Block,
        vectorize: bool,
    },
    /// `while` loop: `cond_block` is (re-)executed before each iteration to
    /// produce `cond`.
    While {
        cond_block: Block,
        cond: ValId,
        body: Block,
    },
    /// Free-form annotation preserved through passes (but ignored by
    /// stream comparison).
    Comment(String),
}

/// A sequence of statements (one lexical scope).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Walk every statement of the tree in execution (pre-) order.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        for s in &self.0 {
            f(s);
            match s {
                Stmt::If { then_b, else_b, .. } => {
                    then_b.visit(f);
                    else_b.visit(f);
                }
                Stmt::ForRange { body, .. } => body.visit(f),
                Stmt::While {
                    cond_block, body, ..
                } => {
                    cond_block.visit(f);
                    body.visit(f);
                }
                _ => {}
            }
        }
    }

    /// Count statements of the tree (diagnostics / tests).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Count value-producing instructions.
    pub fn instr_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::I(_)) {
                n += 1
            }
        });
        n
    }
}

/// Metadata for a mutable register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarInfo {
    pub ty: Ty,
}

/// Metadata for a block-shared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedInfo {
    pub ty: Ty,
    pub len: usize,
}

/// Metadata for a thread-private scratch array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalInfo {
    pub ty: Ty,
    pub len: usize,
}

/// A complete traced kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    pub name: String,
    /// Launch dimensionality the kernel was traced for (1–3).
    pub dims: usize,
    pub body: Block,
    /// Upper bound (exclusive) on ValIds in use.
    pub n_vals: u32,
    pub vars: Vec<VarInfo>,
    pub shared: Vec<SharedInfo>,
    pub locals: Vec<LocalInfo>,
    /// Types of global-buffer slots actually referenced: `(f64 slots, i64
    /// slots)` as max slot + 1.
    pub n_bufs_f: u32,
    pub n_bufs_i: u32,
    /// Scalar parameter slots referenced.
    pub n_params_f: u32,
    pub n_params_i: u32,
}

impl Program {
    /// Total shared memory bytes required per block.
    pub fn shared_bytes(&self) -> usize {
        self.shared.iter().map(|s| s.len * 8).sum()
    }

    /// Number of value-producing instructions (static).
    pub fn instr_count(&self) -> usize {
        self.body.instr_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_result_types() {
        assert_eq!(Op::ConstF(1.0).result_ty(), Ty::F64);
        assert_eq!(Op::ConstI(1).result_ty(), Ty::I64);
        assert_eq!(Op::CmpI(Cmp::Lt, ValId(0), ValId(1)).result_ty(), Ty::Bool);
        assert_eq!(Op::Special(SpecialReg::ThreadIdx(2)).result_ty(), Ty::I64);
    }

    #[test]
    fn operand_iteration_and_mapping() {
        let mut op = Op::Fma(ValId(1), ValId(2), ValId(3));
        let mut seen = vec![];
        op.for_each_operand(|v| seen.push(v.0));
        assert_eq!(seen, vec![1, 2, 3]);
        op.map_operands(|v| ValId(v.0 + 10));
        let mut seen = vec![];
        op.for_each_operand(|v| seen.push(v.0));
        assert_eq!(seen, vec![11, 12, 13]);
    }

    /// `Eq`/`Hash` go through a hand-written key: every field must be in it.
    /// Each op below differs from its neighbours in one field only.
    #[test]
    fn op_identity_is_structural_and_bitwise() {
        use std::collections::HashSet;
        let (a, b, c) = (ValId(1), ValId(2), ValId(3));
        let atomic = |op, buf, idx, val| Op::AtomicGI { op, buf, idx, val };
        let distinct = [
            Op::ConstF(0.0),
            Op::ConstF(-0.0),
            Op::ConstF(f64::NAN),
            Op::ConstI(0),
            Op::ConstI(1),
            Op::ConstB(false),
            Op::ConstB(true),
            Op::Special(SpecialReg::GridBlockExtent(8)),
            Op::Special(SpecialReg::BlockThreadExtent(0)),
            Op::Special(SpecialReg::BlockIdx(1)),
            Op::Special(SpecialReg::BlockIdx(2)),
            Op::Special(SpecialReg::ThreadIdx(2)),
            Op::ParamF(0),
            Op::ParamI(0),
            Op::ParamI(1),
            Op::BinF(FBin::Add, a, b),
            Op::BinF(FBin::Sub, a, b),
            Op::BinF(FBin::Add, b, a),
            Op::BinI(IBin::Add, a, b),
            Op::CmpF(Cmp::Lt, a, b),
            Op::CmpI(Cmp::Lt, a, b),
            Op::CmpI(Cmp::Le, a, b),
            Op::Fma(a, b, c),
            Op::Fma(a, b, b),
            Op::SelF(a, b, c),
            Op::SelI(a, b, c),
            Op::UnF(FUn::Neg, a),
            Op::UnF(FUn::Abs, a),
            Op::NegI(a),
            Op::I2F(a),
            Op::LdGF { buf: 0, idx: a },
            Op::LdGF { buf: 1, idx: a },
            Op::LdGF { buf: 0, idx: b },
            Op::LdGI { buf: 0, idx: a },
            Op::LdSF { sh: 0, idx: a },
            Op::LdSF { sh: 1, idx: a },
            Op::LdLF { loc: 0, idx: a },
            Op::LdVarF(VarId(0)),
            Op::LdVarF(VarId(1)),
            Op::LdVarI(VarId(0)),
            atomic(AtomicOp::Add, 0, a, b),
            atomic(AtomicOp::Min, 0, a, b),
            atomic(AtomicOp::Add, 1, a, b),
            atomic(AtomicOp::Add, 0, b, b),
            atomic(AtomicOp::Add, 0, a, a),
            Op::AtomicGF {
                op: AtomicOp::Add,
                buf: 0,
                idx: a,
                val: b,
            },
        ];
        for (i, x) in distinct.iter().enumerate() {
            for (j, y) in distinct.iter().enumerate() {
                assert_eq!(x == y, i == j, "{x:?} vs {y:?}");
            }
        }
        let set: HashSet<&Op> = distinct.iter().collect();
        assert_eq!(set.len(), distinct.len());
        assert!(set.contains(&Op::ConstF(f64::NAN)), "a NaN equals itself");
    }

    #[test]
    fn atomic_has_side_effect() {
        assert!(Op::AtomicGF {
            op: AtomicOp::Add,
            buf: 0,
            idx: ValId(0),
            val: ValId(1)
        }
        .has_side_effect());
        assert!(!Op::LdGF {
            buf: 0,
            idx: ValId(0)
        }
        .has_side_effect());
    }

    #[test]
    fn block_visit_descends() {
        let inner = Block(vec![Stmt::Sync]);
        let b = Block(vec![
            Stmt::I(Instr {
                dst: ValId(0),
                op: Op::ConstI(1),
            }),
            Stmt::If {
                cond: ValId(0),
                then_b: inner.clone(),
                else_b: Block::default(),
            },
        ]);
        assert_eq!(b.stmt_count(), 3);
        assert_eq!(b.instr_count(), 1);
    }
}
