//! Tracing builder: implements the single-source kernel DSL
//! (`alpaka_core::ops::KernelOps`) by *recording* every operation into a
//! [`Program`]. Running a kernel against the builder once yields the IR that
//! the simulated devices interpret — the analogue of compiling a CUDA kernel
//! to PTX.

use alpaka_core::kernel::Kernel;
use alpaka_core::ops::KernelOps;

use crate::ir::*;

/// Extents known at trace time, the analogue of C++ template specialization
/// in Alpaka's accelerators (e.g. the CUDA back-end hard-codes an element
/// extent of 1, which is what lets `nvcc` fold the element loop away and
/// produce PTX identical to native CUDA — Fig. 4).
///
/// Axes are canonical `[z, y, x]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecConsts {
    pub block_thread_extent: Option<[usize; 3]>,
    pub thread_elem_extent: Option<[usize; 3]>,
}

/// Trace `kernel` for a launch of dimensionality `dims` into a [`Program`].
pub fn trace_kernel<K: Kernel + ?Sized>(kernel: &K, dims: usize) -> Program {
    trace_kernel_spec(kernel, dims, SpecConsts::default())
}

/// Trace with specialization constants (see [`SpecConsts`]).
pub fn trace_kernel_spec<K: Kernel + ?Sized>(kernel: &K, dims: usize, spec: SpecConsts) -> Program {
    assert!((1..=3).contains(&dims), "dims must be 1..=3");
    let mut b = IrBuilder::new(kernel.name().to_string(), dims);
    b.spec = spec;
    kernel.run(&mut b);
    b.finish()
}

/// The recording accelerator.
pub struct IrBuilder {
    name: String,
    dims: usize,
    next_val: u32,
    val_tys: Vec<Ty>,
    vars: Vec<VarInfo>,
    shared: Vec<SharedInfo>,
    locals: Vec<LocalInfo>,
    n_bufs_f: u32,
    n_bufs_i: u32,
    n_params_f: u32,
    n_params_i: u32,
    /// Stack of open lexical blocks; the bottom entry is the program body.
    stack: Vec<Block>,
    /// Trace-time specialization constants.
    spec: SpecConsts,
}

impl IrBuilder {
    pub fn new(name: String, dims: usize) -> Self {
        IrBuilder {
            name,
            dims,
            next_val: 0,
            val_tys: Vec::new(),
            vars: Vec::new(),
            shared: Vec::new(),
            locals: Vec::new(),
            n_bufs_f: 0,
            n_bufs_i: 0,
            n_params_f: 0,
            n_params_i: 0,
            stack: vec![Block::default()],
            spec: SpecConsts::default(),
        }
    }

    pub fn finish(mut self) -> Program {
        assert_eq!(self.stack.len(), 1, "unbalanced control-flow blocks");
        Program {
            name: self.name,
            dims: self.dims,
            body: self.stack.pop().unwrap(),
            n_vals: self.next_val,
            vars: self.vars,
            shared: self.shared,
            locals: self.locals,
            n_bufs_f: self.n_bufs_f,
            n_bufs_i: self.n_bufs_i,
            n_params_f: self.n_params_f,
            n_params_i: self.n_params_i,
        }
    }

    fn fresh(&mut self, ty: Ty) -> ValId {
        let id = ValId(self.next_val);
        self.next_val += 1;
        self.val_tys.push(ty);
        id
    }

    fn cur(&mut self) -> &mut Block {
        self.stack.last_mut().expect("block stack empty")
    }

    fn emit(&mut self, op: Op) -> ValId {
        let dst = self.fresh(op.result_ty());
        self.cur().0.push(Stmt::I(Instr { dst, op }));
        dst
    }

    fn push_block(&mut self) {
        self.stack.push(Block::default());
    }

    fn pop_block(&mut self) -> Block {
        self.stack.pop().expect("block stack underflow")
    }

    /// Translate a user dimension (0 = slowest of the launch) to the
    /// canonical z/y/x axis.
    fn axis(&self, d: usize) -> u8 {
        assert!(
            d < self.dims,
            "dimension {d} out of range for a {}-D launch",
            self.dims
        );
        (3 - self.dims + d) as u8
    }

    fn ty_of(&self, v: ValId) -> Ty {
        self.val_tys[v.0 as usize]
    }

    fn expect_ty(&self, v: ValId, ty: Ty, ctx: &str) {
        assert_eq!(
            self.ty_of(v),
            ty,
            "type error while tracing {ctx}: {v:?} is {:?}, expected {ty:?}",
            self.ty_of(v)
        );
    }
}

/// Handle for a global f64 buffer slot (just the slot number at trace time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufFRef(pub u32);
/// Handle for a global i64 buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufIRef(pub u32);
/// Handle for a shared f64 array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShFRef(pub u32);
/// Handle for a shared i64 array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShIRef(pub u32);
/// Handle for a thread-private f64 scratch array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocFRef(pub u32);
/// Handle for an f64 register var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarFRef(pub VarId);
/// Handle for an i64 register var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarIRef(pub VarId);

impl KernelOps for IrBuilder {
    type F = ValId;
    type I = ValId;
    type B = ValId;
    type BufF = BufFRef;
    type BufI = BufIRef;
    type ShF = ShFRef;
    type ShI = ShIRef;
    type LocF = LocFRef;
    type SpanSf = ShFRef;
    type SpanLf = LocFRef;
    type VarF = VarFRef;
    type VarI = VarIRef;

    fn dims(&self) -> usize {
        self.dims
    }

    fn grid_block_extent(&mut self, d: usize) -> ValId {
        let a = self.axis(d);
        self.emit(Op::Special(SpecialReg::GridBlockExtent(a)))
    }
    fn block_thread_extent(&mut self, d: usize) -> ValId {
        let a = self.axis(d);
        if let Some(ext) = self.spec.block_thread_extent {
            return self.emit(Op::ConstI(ext[a as usize] as i64));
        }
        self.emit(Op::Special(SpecialReg::BlockThreadExtent(a)))
    }
    fn thread_elem_extent(&mut self, d: usize) -> ValId {
        let a = self.axis(d);
        if let Some(ext) = self.spec.thread_elem_extent {
            return self.emit(Op::ConstI(ext[a as usize] as i64));
        }
        self.emit(Op::Special(SpecialReg::ThreadElemExtent(a)))
    }
    fn block_idx(&mut self, d: usize) -> ValId {
        let a = self.axis(d);
        self.emit(Op::Special(SpecialReg::BlockIdx(a)))
    }
    fn thread_idx(&mut self, d: usize) -> ValId {
        let a = self.axis(d);
        self.emit(Op::Special(SpecialReg::ThreadIdx(a)))
    }

    fn param_f(&mut self, slot: usize) -> ValId {
        self.n_params_f = self.n_params_f.max(slot as u32 + 1);
        self.emit(Op::ParamF(slot as u32))
    }
    fn param_i(&mut self, slot: usize) -> ValId {
        self.n_params_i = self.n_params_i.max(slot as u32 + 1);
        self.emit(Op::ParamI(slot as u32))
    }
    fn buf_f(&mut self, slot: usize) -> BufFRef {
        self.n_bufs_f = self.n_bufs_f.max(slot as u32 + 1);
        BufFRef(slot as u32)
    }
    fn buf_i(&mut self, slot: usize) -> BufIRef {
        self.n_bufs_i = self.n_bufs_i.max(slot as u32 + 1);
        BufIRef(slot as u32)
    }

    fn lit_f(&mut self, v: f64) -> ValId {
        self.emit(Op::ConstF(v))
    }
    fn lit_i(&mut self, v: i64) -> ValId {
        self.emit(Op::ConstI(v))
    }
    fn lit_b(&mut self, v: bool) -> ValId {
        self.emit(Op::ConstB(v))
    }

    fn add_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinF(FBin::Add, a, b))
    }
    fn sub_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinF(FBin::Sub, a, b))
    }
    fn mul_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinF(FBin::Mul, a, b))
    }
    fn div_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinF(FBin::Div, a, b))
    }
    fn neg_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Neg, a))
    }
    fn fma_f(&mut self, a: ValId, b: ValId, c: ValId) -> ValId {
        self.emit(Op::Fma(a, b, c))
    }
    fn min_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinF(FBin::Min, a, b))
    }
    fn max_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinF(FBin::Max, a, b))
    }
    fn abs_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Abs, a))
    }
    fn sqrt_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Sqrt, a))
    }
    fn exp_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Exp, a))
    }
    fn ln_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Ln, a))
    }
    fn sin_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Sin, a))
    }
    fn cos_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Cos, a))
    }
    fn floor_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::UnF(FUn::Floor, a))
    }

    fn add_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Add, a, b))
    }
    fn sub_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Sub, a, b))
    }
    fn mul_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Mul, a, b))
    }
    fn div_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Div, a, b))
    }
    fn rem_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Rem, a, b))
    }
    fn neg_i(&mut self, a: ValId) -> ValId {
        self.emit(Op::NegI(a))
    }
    fn min_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Min, a, b))
    }
    fn max_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Max, a, b))
    }
    fn and_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::And, a, b))
    }
    fn or_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Or, a, b))
    }
    fn xor_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Xor, a, b))
    }
    fn shl_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Shl, a, b))
    }
    fn shr_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinI(IBin::Shr, a, b))
    }

    fn lt_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpF(Cmp::Lt, a, b))
    }
    fn le_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpF(Cmp::Le, a, b))
    }
    fn gt_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpF(Cmp::Gt, a, b))
    }
    fn ge_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpF(Cmp::Ge, a, b))
    }
    fn eq_f(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpF(Cmp::Eq, a, b))
    }
    fn lt_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpI(Cmp::Lt, a, b))
    }
    fn le_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpI(Cmp::Le, a, b))
    }
    fn gt_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpI(Cmp::Gt, a, b))
    }
    fn ge_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpI(Cmp::Ge, a, b))
    }
    fn eq_i(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::CmpI(Cmp::Eq, a, b))
    }
    fn and_b(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinB(BBin::And, a, b))
    }
    fn or_b(&mut self, a: ValId, b: ValId) -> ValId {
        self.emit(Op::BinB(BBin::Or, a, b))
    }
    fn not_b(&mut self, a: ValId) -> ValId {
        self.emit(Op::NotB(a))
    }
    fn select_f(&mut self, c: ValId, t: ValId, e: ValId) -> ValId {
        self.emit(Op::SelF(c, t, e))
    }
    fn select_i(&mut self, c: ValId, t: ValId, e: ValId) -> ValId {
        self.emit(Op::SelI(c, t, e))
    }

    fn i2f(&mut self, a: ValId) -> ValId {
        self.emit(Op::I2F(a))
    }
    fn f2i(&mut self, a: ValId) -> ValId {
        self.emit(Op::F2I(a))
    }
    fn u2unit_f(&mut self, a: ValId) -> ValId {
        self.emit(Op::U2UnitF(a))
    }

    fn ld_gf(&mut self, buf: BufFRef, idx: ValId) -> ValId {
        self.expect_ty(idx, Ty::I64, "ld_gf index");
        self.emit(Op::LdGF { buf: buf.0, idx })
    }
    fn st_gf(&mut self, buf: BufFRef, idx: ValId, v: ValId) {
        self.expect_ty(idx, Ty::I64, "st_gf index");
        self.expect_ty(v, Ty::F64, "st_gf value");
        self.cur().0.push(Stmt::StGF {
            buf: buf.0,
            idx,
            val: v,
        });
    }
    fn ld_gi(&mut self, buf: BufIRef, idx: ValId) -> ValId {
        self.emit(Op::LdGI { buf: buf.0, idx })
    }
    fn st_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) {
        self.cur().0.push(Stmt::StGI {
            buf: buf.0,
            idx,
            val: v,
        });
    }

    fn shared_f(&mut self, len: usize) -> ShFRef {
        let id = self.shared.len() as u32;
        self.shared.push(SharedInfo { ty: Ty::F64, len });
        ShFRef(id)
    }
    fn shared_i(&mut self, len: usize) -> ShIRef {
        let id = self.shared.len() as u32;
        self.shared.push(SharedInfo { ty: Ty::I64, len });
        ShIRef(id)
    }
    fn ld_sf(&mut self, sh: ShFRef, idx: ValId) -> ValId {
        self.emit(Op::LdSF { sh: sh.0, idx })
    }
    fn st_sf(&mut self, sh: ShFRef, idx: ValId, v: ValId) {
        self.cur().0.push(Stmt::StSF {
            sh: sh.0,
            idx,
            val: v,
        });
    }
    fn ld_si(&mut self, sh: ShIRef, idx: ValId) -> ValId {
        self.emit(Op::LdSI { sh: sh.0, idx })
    }
    fn st_si(&mut self, sh: ShIRef, idx: ValId, v: ValId) {
        self.cur().0.push(Stmt::StSI {
            sh: sh.0,
            idx,
            val: v,
        });
    }

    fn local_f(&mut self, len: usize) -> LocFRef {
        let id = self.locals.len() as u32;
        self.locals.push(LocalInfo { ty: Ty::F64, len });
        LocFRef(id)
    }
    fn ld_lf(&mut self, l: LocFRef, idx: ValId) -> ValId {
        self.expect_ty(idx, Ty::I64, "ld_lf index");
        self.emit(Op::LdLF { loc: l.0, idx })
    }
    fn st_lf(&mut self, l: LocFRef, idx: ValId, v: ValId) {
        self.expect_ty(idx, Ty::I64, "st_lf index");
        self.expect_ty(v, Ty::F64, "st_lf value");
        self.cur().0.push(Stmt::StLF {
            loc: l.0,
            idx,
            val: v,
        });
    }

    // A span emits nothing: its base and step are never traced, and its
    // accesses are the plain ones.
    fn span_sf(
        &mut self,
        sh: ShFRef,
        _d: usize,
        _base: impl FnOnce(&mut Self) -> ValId,
        _step: impl FnOnce(&mut Self) -> ValId,
    ) -> ShFRef {
        sh
    }
    fn ld_span_sf(&mut self, sh: ShFRef, _j: ValId, idx: ValId) -> ValId {
        self.ld_sf(sh, idx)
    }
    fn span_lf(
        &mut self,
        l: LocFRef,
        _d: usize,
        _base: impl FnOnce(&mut Self) -> ValId,
        _step: impl FnOnce(&mut Self) -> ValId,
    ) -> LocFRef {
        l
    }
    fn ld_span_lf(&mut self, l: LocFRef, _j: ValId, idx: ValId) -> ValId {
        self.ld_lf(l, idx)
    }
    fn st_span_lf(&mut self, l: LocFRef, _j: ValId, idx: ValId, v: ValId) {
        self.st_lf(l, idx, v)
    }

    fn sync_block_threads(&mut self) {
        self.cur().0.push(Stmt::Sync);
    }

    fn atomic_add_gf(&mut self, buf: BufFRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGF {
            op: AtomicOp::Add,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_add_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::Add,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_min_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::Min,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_max_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::Max,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_and_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::And,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_or_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::Or,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_xor_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::Xor,
            buf: buf.0,
            idx,
            val: v,
        })
    }
    fn atomic_exch_gi(&mut self, buf: BufIRef, idx: ValId, v: ValId) -> ValId {
        self.emit(Op::AtomicGI {
            op: AtomicOp::Exch,
            buf: buf.0,
            idx,
            val: v,
        })
    }

    fn var_f(&mut self, init: ValId) -> VarFRef {
        let var = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo { ty: Ty::F64 });
        self.cur().0.push(Stmt::StVarF { var, val: init });
        VarFRef(var)
    }
    fn vget_f(&mut self, v: VarFRef) -> ValId {
        self.emit(Op::LdVarF(v.0))
    }
    fn vset_f(&mut self, v: VarFRef, val: ValId) {
        self.expect_ty(val, Ty::F64, "vset_f");
        self.cur().0.push(Stmt::StVarF { var: v.0, val });
    }
    fn var_i(&mut self, init: ValId) -> VarIRef {
        let var = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo { ty: Ty::I64 });
        self.cur().0.push(Stmt::StVarI { var, val: init });
        VarIRef(var)
    }
    fn vget_i(&mut self, v: VarIRef) -> ValId {
        self.emit(Op::LdVarI(v.0))
    }
    fn vset_i(&mut self, v: VarIRef, val: ValId) {
        self.expect_ty(val, Ty::I64, "vset_i");
        self.cur().0.push(Stmt::StVarI { var: v.0, val });
    }

    fn if_(&mut self, c: ValId, then: impl FnOnce(&mut Self)) {
        self.push_block();
        then(self);
        let then_b = self.pop_block();
        self.cur().0.push(Stmt::If {
            cond: c,
            then_b,
            else_b: Block::default(),
        });
    }

    fn if_else(&mut self, c: ValId, then: impl FnOnce(&mut Self), els: impl FnOnce(&mut Self)) {
        self.push_block();
        then(self);
        let then_b = self.pop_block();
        self.push_block();
        els(self);
        let else_b = self.pop_block();
        self.cur().0.push(Stmt::If {
            cond: c,
            then_b,
            else_b,
        });
    }

    fn for_range(&mut self, start: ValId, end: ValId, mut body: impl FnMut(&mut Self, ValId)) {
        let counter = self.fresh(Ty::I64);
        self.push_block();
        body(self, counter);
        let b = self.pop_block();
        self.cur().0.push(Stmt::ForRange {
            counter,
            start,
            end,
            body: b,
            vectorize: false,
        });
    }

    fn for_elements(&mut self, d: usize, mut body: impl FnMut(&mut Self, ValId)) {
        let start = self.lit_i(0);
        let end = self.thread_elem_extent(d);
        let counter = self.fresh(Ty::I64);
        self.push_block();
        body(self, counter);
        let b = self.pop_block();
        self.cur().0.push(Stmt::ForRange {
            counter,
            start,
            end,
            body: b,
            vectorize: true,
        });
    }

    fn while_(
        &mut self,
        mut cond: impl FnMut(&mut Self) -> ValId,
        mut body: impl FnMut(&mut Self),
    ) {
        self.push_block();
        let c = cond(self);
        let cond_block = self.pop_block();
        self.push_block();
        body(self);
        let body_b = self.pop_block();
        self.cur().0.push(Stmt::While {
            cond_block,
            cond: c,
            body: body_b,
        });
    }

    fn comment(&mut self, text: &str) {
        self.cur().0.push(Stmt::Comment(text.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::ops::KernelOpsExt;

    struct Daxpy;
    impl Kernel for Daxpy {
        fn name(&self) -> &str {
            "daxpy"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let alpha = o.param_f(0);
            let n = o.param_i(0);
            let gid = o.global_thread_idx(0);
            let in_range = o.lt_i(gid, n);
            o.if_(in_range, |o| {
                let xv = o.ld_gf(x, gid);
                let yv = o.ld_gf(y, gid);
                let r = o.fma_f(xv, alpha, yv);
                o.st_gf(y, gid, r);
            });
        }
    }

    #[test]
    fn trace_daxpy_shape() {
        let p = trace_kernel(&Daxpy, 1);
        assert_eq!(p.name, "daxpy");
        assert_eq!(p.n_bufs_f, 2);
        assert_eq!(p.n_params_f, 1);
        assert_eq!(p.n_params_i, 1);
        // One If with a store inside.
        let mut stores = 0;
        let mut ifs = 0;
        p.body.visit(&mut |s| match s {
            Stmt::StGF { .. } => stores += 1,
            Stmt::If { .. } => ifs += 1,
            _ => {}
        });
        assert_eq!(stores, 1);
        assert_eq!(ifs, 1);
    }

    /// Element spans emit nothing: their base and step never run, and their
    /// accesses trace as the plain ones, so the program is the same.
    #[test]
    fn spans_trace_as_plain_accesses() {
        struct Scale(bool);
        impl Kernel for Scale {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let (sh, loc) = (o.shared_f(8), o.local_f(8));
                let two = o.lit_i(2);
                let (sp, lp) = if self.0 {
                    let sp = o.span_sf(sh, 0, |o| o.lit_i(1), |o| o.lit_i(2));
                    let lp = o.span_lf(loc, 0, |o| o.thread_idx(0), |o| o.lit_i(1));
                    (Some(sp), Some(lp))
                } else {
                    (None, None)
                };
                o.for_elements(0, |o, j| {
                    let t = o.mul_i(j, two);
                    let idx = o.offset_i(t, 1);
                    let v = match sp {
                        Some(sp) => o.ld_span_sf(sp, j, idx),
                        None => o.ld_sf(sh, idx),
                    };
                    let w = match lp {
                        Some(lp) => o.ld_span_lf(lp, j, j),
                        None => o.ld_lf(loc, j),
                    };
                    let r = o.add_f(v, w);
                    match lp {
                        Some(lp) => o.st_span_lf(lp, j, j, r),
                        None => o.st_lf(loc, j, r),
                    }
                });
            }
        }
        assert_eq!(
            trace_kernel(&Scale(true), 1),
            trace_kernel(&Scale(false), 1)
        );
    }

    #[test]
    fn axis_translation_depends_on_dims() {
        struct Probe;
        impl Kernel for Probe {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let _ = o.thread_idx(0);
            }
        }
        let p1 = trace_kernel(&Probe, 1);
        let p2 = trace_kernel(&Probe, 2);
        let first_special = |p: &Program| {
            let mut out = None;
            p.body.visit(&mut |s| {
                if let Stmt::I(Instr {
                    op: Op::Special(r), ..
                }) = s
                {
                    if out.is_none() {
                        out = Some(*r);
                    }
                }
            });
            out.unwrap()
        };
        // 1-D: dim 0 is the x axis. 2-D: dim 0 is the y axis.
        assert_eq!(first_special(&p1), SpecialReg::ThreadIdx(2));
        assert_eq!(first_special(&p2), SpecialReg::ThreadIdx(1));
    }

    #[test]
    fn control_flow_nesting_balances() {
        struct Nested;
        impl Kernel for Nested {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let zero = o.lit_i(0);
                let ten = o.lit_i(10);
                o.for_range(zero, ten, |o, i| {
                    let five = o.lit_i(5);
                    let c = o.lt_i(i, five);
                    o.if_else(c, |o| o.sync_block_threads(), |_| {});
                });
            }
        }
        let p = trace_kernel(&Nested, 1);
        let mut syncs = 0;
        p.body.visit(&mut |s| {
            if matches!(s, Stmt::Sync) {
                syncs += 1
            }
        });
        assert_eq!(syncs, 1);
    }

    #[test]
    fn element_loop_is_marked_vectorizable() {
        struct Elem;
        impl Kernel for Elem {
            fn run<O: KernelOps>(&self, o: &mut O) {
                o.for_elements(0, |_, _| {});
            }
        }
        let p = trace_kernel(&Elem, 1);
        let mut found = false;
        p.body.visit(&mut |s| {
            if let Stmt::ForRange { vectorize, .. } = s {
                found = *vectorize;
            }
        });
        assert!(found);
    }

    #[test]
    fn vars_and_shared_registered() {
        struct V;
        impl Kernel for V {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let zero = o.lit_f(0.0);
                let acc = o.var_f(zero);
                let v = o.vget_f(acc);
                o.vset_f(acc, v);
                let _sh = o.shared_f(64);
                let _shi = o.shared_i(32);
            }
        }
        let p = trace_kernel(&V, 1);
        assert_eq!(p.vars.len(), 1);
        assert_eq!(p.shared.len(), 2);
        assert_eq!(p.shared_bytes(), (64 + 32) * 8);
    }
}
