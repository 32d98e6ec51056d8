//! Scalar semantics of the virtual ISA, shared by the constant folder, the
//! reference evaluator and the SIMT interpreter in `alpaka-sim` — one
//! definition so all executions agree bit-for-bit (the paper's
//! *testability* property depends on this).

use alpaka_core::fma::Fma;

use crate::ir::{AtomicOp, BBin, Cmp, FBin, FUn, IBin};

/// Binary f64 operator. IEEE semantics; `min`/`max` propagate the non-NaN
/// operand like `f64::min`/`f64::max`.
#[inline]
pub fn fbin(op: FBin, a: f64, b: f64) -> f64 {
    match op {
        FBin::Add => a + b,
        FBin::Sub => a - b,
        FBin::Mul => a * b,
        FBin::Div => a / b,
        FBin::Min => a.min(b),
        FBin::Max => a.max(b),
    }
}

/// Unary f64 operator.
#[inline]
pub fn fun(op: FUn, a: f64) -> f64 {
    match op {
        FUn::Neg => -a,
        FUn::Abs => a.abs(),
        FUn::Sqrt => a.sqrt(),
        FUn::Exp => a.exp(),
        FUn::Ln => a.ln(),
        FUn::Sin => a.sin(),
        FUn::Cos => a.cos(),
        FUn::Floor => a.floor(),
    }
}

/// Fused multiply-add through [`Fma`], the workspace's one primitive, with the
/// CPU's FMA bit read per call (a cached load). Its fallback, `f64::mul_add`,
/// is an indirect call into compiler-builtins' runtime-dispatched `fma` on
/// the default `x86-64` target; hardware `vfmadd` rounds `a*b + c` once just
/// as it does, so every execution stays bit-for-bit reproducible.
#[inline]
pub fn fma(a: f64, b: f64, c: f64) -> f64 {
    Fma::detect().apply(a, b, c)
}

/// Binary i64 operator: wrapping arithmetic, shift counts masked to 0..64,
/// logical (unsigned) right shift, division/remainder by zero yield 0.
#[inline]
pub fn ibin(op: IBin, a: i64, b: i64) -> i64 {
    match op {
        IBin::Add => a.wrapping_add(b),
        IBin::Sub => a.wrapping_sub(b),
        IBin::Mul => a.wrapping_mul(b),
        IBin::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IBin::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        IBin::Min => a.min(b),
        IBin::Max => a.max(b),
        IBin::And => a & b,
        IBin::Or => a | b,
        IBin::Xor => a ^ b,
        IBin::Shl => ((a as u64) << ((b as u64) & 63)) as i64,
        IBin::Shr => ((a as u64) >> ((b as u64) & 63)) as i64,
    }
}

#[inline]
pub fn cmp_f(c: Cmp, a: f64, b: f64) -> bool {
    match c {
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
        Cmp::Eq => a == b,
    }
}

#[inline]
pub fn cmp_i(c: Cmp, a: i64, b: i64) -> bool {
    match c {
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
        Cmp::Eq => a == b,
    }
}

#[inline]
pub fn bbin(op: BBin, a: bool, b: bool) -> bool {
    match op {
        BBin::And => a && b,
        BBin::Or => a || b,
    }
}

/// Truncating f64→i64: NaN maps to 0, out-of-range saturates (the `as`
/// conversion semantics of Rust, which are defined exactly this way).
#[inline]
pub fn f2i(a: f64) -> i64 {
    a as i64
}

#[inline]
pub fn i2f(a: i64) -> f64 {
    a as f64
}

/// Map the top 53 bits of the unsigned 64-bit word to a uniform double in
/// `[0, 1)`.
#[inline]
pub fn u2unit(x: i64) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (((x as u64) >> 11) as f64) * SCALE
}

/// Apply an atomic f64 RMW operator to the current cell value.
///
/// The bitwise ops are rejected on floats by validation; their arms here
/// operate on the bit pattern so the match stays total for unvalidated
/// programs.
#[inline]
pub fn atomic_f(op: AtomicOp, old: f64, v: f64) -> f64 {
    match op {
        AtomicOp::Add => old + v,
        AtomicOp::Min => old.min(v),
        AtomicOp::Max => old.max(v),
        AtomicOp::And => f64::from_bits(old.to_bits() & v.to_bits()),
        AtomicOp::Or => f64::from_bits(old.to_bits() | v.to_bits()),
        AtomicOp::Xor => f64::from_bits(old.to_bits() ^ v.to_bits()),
        AtomicOp::Exch => v,
    }
}

/// Apply an atomic i64 RMW operator to the current cell value.
#[inline]
pub fn atomic_i(op: AtomicOp, old: i64, v: i64) -> i64 {
    match op {
        AtomicOp::Add => old.wrapping_add(v),
        AtomicOp::Min => old.min(v),
        AtomicOp::Max => old.max(v),
        AtomicOp::And => old & v,
        AtomicOp::Or => old | v,
        AtomicOp::Xor => old ^ v,
        AtomicOp::Exch => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(ibin(IBin::Div, 42, 0), 0);
        assert_eq!(ibin(IBin::Rem, 42, 0), 0);
        assert_eq!(ibin(IBin::Div, 42, 5), 8);
    }

    #[test]
    fn shifts_are_masked_and_logical() {
        assert_eq!(ibin(IBin::Shr, -1, 1), i64::MAX); // logical
        assert_eq!(ibin(IBin::Shl, 1, 64), 1); // masked to 0
        assert_eq!(ibin(IBin::Shl, 1, 3), 8);
    }

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(ibin(IBin::Add, i64::MAX, 1), i64::MIN);
        assert_eq!(ibin(IBin::Mul, i64::MAX, 2), -2);
    }

    #[test]
    fn u2unit_is_in_unit_interval() {
        for x in [0i64, -1, 1, i64::MIN, i64::MAX, 0x12345678_9ABCDEF0] {
            let u = u2unit(x);
            assert!((0.0..1.0).contains(&u), "{x} -> {u}");
        }
        assert_eq!(u2unit(0), 0.0);
    }

    #[test]
    fn f2i_edge_cases() {
        assert_eq!(f2i(f64::NAN), 0);
        assert_eq!(f2i(1e300), i64::MAX);
        assert_eq!(f2i(-1e300), i64::MIN);
        assert_eq!(f2i(-2.9), -2);
    }

    #[test]
    fn fma_matches_mul_add() {
        assert_eq!(fma(2.0, 3.0, 4.0), 10.0);
    }
}
