//! Static validation of traced programs: single assignment, lexical scoping
//! of values, operand typing, and resource-index bounds. Back-ends run this
//! in debug builds before executing a program; the pass tests use it to
//! prove transformations keep the IR well-formed.

use core::fmt::Display;

use crate::ir::*;

/// A validation failure with a human-readable description.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateError(pub String);

impl core::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid IR: {}", self.0)
    }
}

impl std::error::Error for ValidateError {}

struct Checker<'p> {
    p: &'p Program,
    /// `tys[v]`: type of `ValId(v)` while it is in scope.
    tys: Vec<Option<Ty>>,
    /// Values defined per open scope, for popping.
    scopes: Vec<Vec<ValId>>,
    /// `defined_once[v]`: `ValId(v)` was ever defined (single assignment).
    defined_once: Vec<bool>,
}

impl<'p> Checker<'p> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ValidateError> {
        Err(ValidateError(msg.into()))
    }

    fn define(&mut self, v: ValId, ty: Ty) -> Result<(), ValidateError> {
        if v.0 >= self.p.n_vals {
            return self.err(format!("{v:?} >= n_vals {}", self.p.n_vals));
        }
        if std::mem::replace(&mut self.defined_once[v.0 as usize], true) {
            return self.err(format!("{v:?} defined more than once"));
        }
        self.tys[v.0 as usize] = Some(ty);
        self.scopes.last_mut().unwrap().push(v);
        Ok(())
    }

    fn use_val(&self, v: ValId, want: Ty, ctx: impl Display) -> Result<(), ValidateError> {
        match self.tys.get(v.0 as usize).copied().flatten() {
            None => self.err(format!("{v:?} used out of scope in {ctx}")),
            Some(ty) if ty != want => {
                self.err(format!("{v:?} is {ty:?}, expected {want:?} in {ctx}"))
            }
            _ => Ok(()),
        }
    }

    fn check_var(&self, var: VarId, want: Ty, ctx: impl Display) -> Result<(), ValidateError> {
        match self.p.vars.get(var.0 as usize) {
            None => self.err(format!("{var:?} out of range in {ctx}")),
            Some(info) if info.ty != want => self.err(format!(
                "{var:?} is {:?}, expected {want:?} in {ctx}",
                info.ty
            )),
            _ => Ok(()),
        }
    }

    fn check_shared(&self, sh: u32, want: Ty, ctx: impl Display) -> Result<(), ValidateError> {
        match self.p.shared.get(sh as usize) {
            None => self.err(format!("@sh{sh} out of range in {ctx}")),
            Some(info) if info.ty != want => self.err(format!(
                "@sh{sh} is {:?}, expected {want:?} in {ctx}",
                info.ty
            )),
            _ => Ok(()),
        }
    }

    fn check_op(&mut self, instr: &Instr) -> Result<(), ValidateError> {
        use Op::*;
        // Rendered only if a check fails.
        let ctx = format_args!("{:?} = {:?}", instr.dst, instr.op);
        match &instr.op {
            ConstF(_) | ConstI(_) | ConstB(_) | Special(_) => {}
            ParamF(s) => {
                if *s >= self.p.n_params_f {
                    return self.err(format!("param_f slot {s} >= {}", self.p.n_params_f));
                }
            }
            ParamI(s) => {
                if *s >= self.p.n_params_i {
                    return self.err(format!("param_i slot {s} >= {}", self.p.n_params_i));
                }
            }
            BinF(_, a, b) => {
                self.use_val(*a, Ty::F64, ctx)?;
                self.use_val(*b, Ty::F64, ctx)?;
            }
            UnF(_, _) | I2F(_) | F2I(_) | U2UnitF(_) | NegI(_) | NotB(_) => {
                let (a, want) = match &instr.op {
                    UnF(_, a) | F2I(a) => (*a, Ty::F64),
                    I2F(a) | U2UnitF(a) | NegI(a) => (*a, Ty::I64),
                    NotB(a) => (*a, Ty::Bool),
                    _ => unreachable!(),
                };
                self.use_val(a, want, ctx)?;
            }
            Fma(a, b, c) => {
                self.use_val(*a, Ty::F64, ctx)?;
                self.use_val(*b, Ty::F64, ctx)?;
                self.use_val(*c, Ty::F64, ctx)?;
            }
            BinI(_, a, b) => {
                self.use_val(*a, Ty::I64, ctx)?;
                self.use_val(*b, Ty::I64, ctx)?;
            }
            CmpF(_, a, b) => {
                self.use_val(*a, Ty::F64, ctx)?;
                self.use_val(*b, Ty::F64, ctx)?;
            }
            CmpI(_, a, b) => {
                self.use_val(*a, Ty::I64, ctx)?;
                self.use_val(*b, Ty::I64, ctx)?;
            }
            BinB(_, a, b) => {
                self.use_val(*a, Ty::Bool, ctx)?;
                self.use_val(*b, Ty::Bool, ctx)?;
            }
            SelF(c, t, e) => {
                self.use_val(*c, Ty::Bool, ctx)?;
                self.use_val(*t, Ty::F64, ctx)?;
                self.use_val(*e, Ty::F64, ctx)?;
            }
            SelI(c, t, e) => {
                self.use_val(*c, Ty::Bool, ctx)?;
                self.use_val(*t, Ty::I64, ctx)?;
                self.use_val(*e, Ty::I64, ctx)?;
            }
            LdGF { buf, idx } => {
                if *buf >= self.p.n_bufs_f {
                    return self.err(format!("f64 buffer slot {buf} >= {}", self.p.n_bufs_f));
                }
                self.use_val(*idx, Ty::I64, ctx)?;
            }
            LdGI { buf, idx } => {
                if *buf >= self.p.n_bufs_i {
                    return self.err(format!("i64 buffer slot {buf} >= {}", self.p.n_bufs_i));
                }
                self.use_val(*idx, Ty::I64, ctx)?;
            }
            LdSF { sh, idx } => {
                self.check_shared(*sh, Ty::F64, ctx)?;
                self.use_val(*idx, Ty::I64, ctx)?;
            }
            LdSI { sh, idx } => {
                self.check_shared(*sh, Ty::I64, ctx)?;
                self.use_val(*idx, Ty::I64, ctx)?;
            }
            LdLF { loc, idx } => {
                if *loc as usize >= self.p.locals.len() {
                    return self.err(format!("local array {loc} out of range in {ctx}"));
                }
                self.use_val(*idx, Ty::I64, ctx)?;
            }
            LdVarF(v) => self.check_var(*v, Ty::F64, ctx)?,
            LdVarI(v) => self.check_var(*v, Ty::I64, ctx)?,
            AtomicGF { op, buf, idx, val } => {
                if *buf >= self.p.n_bufs_f {
                    return self.err(format!("f64 buffer slot {buf} >= {}", self.p.n_bufs_f));
                }
                if matches!(
                    op,
                    AtomicOp::And | AtomicOp::Or | AtomicOp::Xor | AtomicOp::Exch
                ) {
                    return self.err(format!("{op:?} atomic is integer-only, used on f64 buffer"));
                }
                self.use_val(*idx, Ty::I64, ctx)?;
                self.use_val(*val, Ty::F64, ctx)?;
            }
            AtomicGI { buf, idx, val, .. } => {
                if *buf >= self.p.n_bufs_i {
                    return self.err(format!("i64 buffer slot {buf} >= {}", self.p.n_bufs_i));
                }
                self.use_val(*idx, Ty::I64, ctx)?;
                self.use_val(*val, Ty::I64, ctx)?;
            }
        }
        // The produced type must agree with the op's declared result type.
        self.define(instr.dst, instr.op.result_ty())
    }

    fn check_block(&mut self, b: &Block) -> Result<(), ValidateError> {
        self.scopes.push(Vec::new());
        for s in &b.0 {
            match s {
                Stmt::I(instr) => self.check_op(instr)?,
                Stmt::StGF { buf, idx, val } => {
                    if *buf >= self.p.n_bufs_f {
                        return self.err(format!("store to unbound f64 buffer {buf}"));
                    }
                    self.use_val(*idx, Ty::I64, "st.global.f64")?;
                    self.use_val(*val, Ty::F64, "st.global.f64")?;
                }
                Stmt::StGI { buf, idx, val } => {
                    if *buf >= self.p.n_bufs_i {
                        return self.err(format!("store to unbound i64 buffer {buf}"));
                    }
                    self.use_val(*idx, Ty::I64, "st.global.s64")?;
                    self.use_val(*val, Ty::I64, "st.global.s64")?;
                }
                Stmt::StLF { loc, idx, val } => {
                    if *loc as usize >= self.p.locals.len() {
                        return self.err(format!("store to unknown local array {loc}"));
                    }
                    self.use_val(*idx, Ty::I64, "st.local.f64")?;
                    self.use_val(*val, Ty::F64, "st.local.f64")?;
                }
                Stmt::StSF { sh, idx, val } => {
                    self.check_shared(*sh, Ty::F64, "st.shared.f64")?;
                    self.use_val(*idx, Ty::I64, "st.shared.f64")?;
                    self.use_val(*val, Ty::F64, "st.shared.f64")?;
                }
                Stmt::StSI { sh, idx, val } => {
                    self.check_shared(*sh, Ty::I64, "st.shared.s64")?;
                    self.use_val(*idx, Ty::I64, "st.shared.s64")?;
                    self.use_val(*val, Ty::I64, "st.shared.s64")?;
                }
                Stmt::StVarF { var, val } => {
                    self.check_var(*var, Ty::F64, "mov to var")?;
                    self.use_val(*val, Ty::F64, "mov to var")?;
                }
                Stmt::StVarI { var, val } => {
                    self.check_var(*var, Ty::I64, "mov to var")?;
                    self.use_val(*val, Ty::I64, "mov to var")?;
                }
                Stmt::Sync | Stmt::Comment(_) => {}
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    self.use_val(*cond, Ty::Bool, "if")?;
                    self.check_block(then_b)?;
                    self.check_block(else_b)?;
                }
                Stmt::ForRange {
                    counter,
                    start,
                    end,
                    body,
                    ..
                } => {
                    self.use_val(*start, Ty::I64, "for start")?;
                    self.use_val(*end, Ty::I64, "for end")?;
                    // The counter is in scope only inside the body.
                    self.scopes.push(Vec::new());
                    self.define(*counter, Ty::I64)?;
                    self.check_block(body)?;
                    self.close_scope();
                }
                Stmt::While {
                    cond_block,
                    cond,
                    body,
                } => {
                    // The condition value must be produced inside cond_block;
                    // keep that scope open while checking the use.
                    self.scopes.push(Vec::new());
                    for s in &cond_block.0 {
                        match s {
                            Stmt::I(instr) => self.check_op(instr)?,
                            Stmt::Comment(_) => {}
                            other => {
                                return self.err(format!(
                                    "while condition blocks may only contain pure \
                                     instructions, found {other:?}"
                                ))
                            }
                        }
                    }
                    self.use_val(*cond, Ty::Bool, "while cond")?;
                    self.check_block(body)?;
                    self.close_scope();
                }
            }
        }
        self.close_scope();
        Ok(())
    }

    /// Pop the innermost scope: its values are no longer usable.
    fn close_scope(&mut self) {
        for v in self.scopes.pop().expect("a scope is open") {
            self.tys[v.0 as usize] = None;
        }
    }
}

/// Validate `p`, returning the first violation found.
pub fn validate(p: &Program) -> Result<(), ValidateError> {
    let mut c = Checker {
        p,
        tys: vec![None; p.n_vals as usize],
        scopes: vec![Vec::new()],
        defined_once: vec![false; p.n_vals as usize],
    };
    c.check_block(&p.body)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::trace_kernel;
    use alpaka_core::kernel::Kernel;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};

    struct Ok1;
    impl Kernel for Ok1 {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let i = o.global_thread_idx(0);
            let v = o.ld_gf(b, i);
            let two = o.lit_f(2.0);
            let r = o.mul_f(v, two);
            o.st_gf(b, i, r);
        }
    }

    #[test]
    fn traced_kernels_validate() {
        let p = trace_kernel(&Ok1, 1);
        validate(&p).unwrap();
    }

    #[test]
    fn out_of_scope_use_rejected() {
        // Hand-build a program where a value defined inside an If is used
        // outside it.
        let inner = Instr {
            dst: ValId(1),
            op: Op::ConstF(1.0),
        };
        let p = Program {
            name: "bad".into(),
            dims: 1,
            body: Block(vec![
                Stmt::I(Instr {
                    dst: ValId(0),
                    op: Op::ConstB(true),
                }),
                Stmt::If {
                    cond: ValId(0),
                    then_b: Block(vec![Stmt::I(inner)]),
                    else_b: Block::default(),
                },
                Stmt::StGF {
                    buf: 0,
                    idx: ValId(2),
                    val: ValId(1),
                },
            ]),
            n_vals: 3,
            vars: vec![],
            shared: vec![],
            locals: vec![],
            n_bufs_f: 1,
            n_bufs_i: 0,
            n_params_f: 0,
            n_params_i: 0,
        };
        let err = validate(&p).unwrap_err();
        assert!(err.0.contains("out of scope"), "{err}");
    }

    #[test]
    fn double_definition_rejected() {
        let p = Program {
            name: "bad".into(),
            dims: 1,
            body: Block(vec![
                Stmt::I(Instr {
                    dst: ValId(0),
                    op: Op::ConstI(1),
                }),
                Stmt::I(Instr {
                    dst: ValId(0),
                    op: Op::ConstI(2),
                }),
            ]),
            n_vals: 1,
            vars: vec![],
            shared: vec![],
            locals: vec![],
            n_bufs_f: 0,
            n_bufs_i: 0,
            n_params_f: 0,
            n_params_i: 0,
        };
        assert!(validate(&p).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let p = Program {
            name: "bad".into(),
            dims: 1,
            body: Block(vec![
                Stmt::I(Instr {
                    dst: ValId(0),
                    op: Op::ConstF(1.0),
                }),
                Stmt::I(Instr {
                    dst: ValId(1),
                    op: Op::BinI(IBin::Add, ValId(0), ValId(0)),
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
        let err = validate(&p).unwrap_err();
        assert!(err.0.contains("expected I64"), "{err}");
    }
}
