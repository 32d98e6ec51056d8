//! The workspace's one fused multiply-add.
//!
//! On the default `x86-64` target `f64::mul_add` is not an instruction but an
//! indirect call into compiler-builtins' runtime-dispatched `fma`, with every
//! live `xmm` register spilled around it: in a kernel's inner loop, the cost.
//! [`Fma::apply`] is one inlined `vfmadd231sd` where the CPU has FMA and
//! `f64::mul_add` elsewhere. Both round `a * b + c` once, so results are
//! bit-identical either way (a NaN stays a NaN; its payload may differ), and
//! no build flag is needed: a baseline binary runs on every `x86-64` host.

/// Which fused multiply-add this CPU runs. `Copy`: detect once, outside the
/// hot loop, and hand the token in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fma {
    hw: bool,
}

impl Fma {
    /// The hardware instruction if this CPU has it, else `f64::mul_add`.
    #[inline]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let hw = std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let hw = false;
        Fma { hw }
    }

    /// `f64::mul_add` on any CPU: the path `detect` falls back to, callable so
    /// tests can pin both paths to the same bits.
    pub const fn software() -> Self {
        Fma { hw: false }
    }

    /// `a * b + c`, rounded once.
    #[inline(always)]
    pub fn apply(self, a: f64, b: f64, c: f64) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if self.hw {
            let mut acc = c;
            // SAFETY: `hw` is private and only `detect` sets it, after the CPU
            // reported FMA, so the instruction exists. It reads and writes
            // only the three `xmm` registers bound here: no memory, stack or
            // flags.
            unsafe {
                std::arch::asm!(
                    "vfmadd231sd {acc}, {a}, {b}",
                    acc = inout(xmm_reg) acc,
                    a = in(xmm_reg) a,
                    b = in(xmm_reg) b,
                    options(pure, nomem, nostack, preserves_flags),
                );
            }
            return acc;
        }
        a.mul_add(b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise equality, except that any NaN equals any NaN.
    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// 10^5 seeded triples, half from raw bit patterns (every class: huge,
    /// tiny, subnormal, inf, NaN) and half with `a * b` and `c` of one
    /// magnitude, where the single rounding decides the last bit; then the
    /// special cases, in every position.
    fn triples() -> Vec<(f64, f64, f64)> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut v = Vec::new();
        for i in 0..100_000 {
            let (a, b, c) = (next(), next(), next());
            if i % 2 == 0 {
                v.push((f64::from_bits(a), f64::from_bits(b), f64::from_bits(c)));
            } else {
                let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let (a, b) = (unit(a) * 1e3, unit(b) * 1e-2);
                v.push((a, b, -(a * b) * (1.0 + unit(c) * 1e-12)));
            }
        }
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &specials {
            for &b in &specials {
                for &c in &specials {
                    v.push((a, b, c));
                }
            }
        }
        // Exact cancellation, a * b == -c; then -c as the rounded product,
        // which leaves exactly the product's rounding error.
        v.extend([
            (3.0, 7.0, -21.0),
            (-3.0, 7.0, 21.0),
            (0.1, 10.0, -(0.1 * 10.0)),
        ]);
        // Overflow of the product, and of the sum alone.
        v.extend([
            (f64::MAX, 2.0, 0.0),
            (f64::MAX, 1.0, f64::MAX),
            (1e200, 1e200, -1.0),
        ]);
        v
    }

    fn matches_mul_add(fma: Fma) {
        for (a, b, c) in triples() {
            let (got, want) = (fma.apply(a, b, c), a.mul_add(b, c));
            assert!(
                same(got, want),
                "{fma:?}: fma({a:e}, {b:e}, {c:e}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn software_path_is_mul_add_bitwise() {
        matches_mul_add(Fma::software());
    }

    #[test]
    fn hardware_path_is_mul_add_bitwise() {
        let fma = Fma::detect();
        if fma == Fma::software() {
            eprintln!("skipped: this CPU has no FMA, so the hardware path cannot run");
            return;
        }
        matches_mul_add(fma);
    }
}
