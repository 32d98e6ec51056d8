//! The workspace's one fused multiply-add.
//!
//! On the default `x86-64` target `f64::mul_add` is not an instruction but an
//! indirect call into compiler-builtins' runtime-dispatched `fma`, with every
//! live `xmm` register spilled around it: in a kernel's inner loop, the cost.
//! [`Fma::apply`] is one inlined `vfmadd231sd` where the CPU has FMA and
//! `f64::mul_add` elsewhere. Both round `a * b + c` once, so results are
//! bit-identical either way (a NaN stays a NaN; its payload may differ), and
//! no build flag is needed: a baseline binary runs on every `x86-64` host.
//!
//! The same rule, one detection and no build flag, picks the instruction set
//! that CPU code is compiled for. [`IsaLevel::detect`] reads the CPU once and
//! [`IsaLevel::run`] hands an [`IsaJob`] one of three [`Isa`] tokens:
//! [`Fma`] in the baseline copy, or [`Avx2`] / [`Avx512`] inside a function
//! compiled with `#[target_feature]` for that ISA. The job is generic over
//! the token, so each ISA gets its own monomorphised copy of the job's code,
//! closures included, and in the two feature copies a multiply-add is
//! [`Fma::fused`]: `f64::mul_add`, which LLVM inlines as `vfmadd` and may
//! vectorise there.

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

    /// `a * b + c`, rounded once, as `f64::mul_add`. Inside a function
    /// compiled with FMA (an [`IsaJob`] run with [`Avx2`] or [`Avx512`]) it is
    /// one inlined `vfmadd`, which LLVM may vectorise; anywhere else it is the
    /// out-of-line call [`Fma::apply`] avoids.
    #[inline(always)]
    pub fn fused(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
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

/// The ISA one copy of CPU code is compiled for, as a token the code is
/// generic over. Only [`IsaLevel::run`] hands out [`Avx2`] and [`Avx512`], and
/// only to a function compiled for them.
pub trait Isa: Copy + Send + Sync + 'static {
    /// `a * b + c`, rounded once: bit-identical in every copy.
    fn fma(self, a: f64, b: f64, c: f64) -> f64;
}

/// The baseline copy: compiled for plain `x86-64`, multiply-add by the
/// detected [`Fma`].
impl Isa for Fma {
    #[inline(always)]
    fn fma(self, a: f64, b: f64, c: f64) -> f64 {
        self.apply(a, b, c)
    }
}

/// The copy compiled with AVX2 and FMA: four `f64` lanes.
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

/// The copy compiled with AVX-512F, AVX2 and FMA: eight `f64` lanes.
#[derive(Clone, Copy, Debug)]
pub struct Avx512(());

impl Isa for Avx2 {
    #[inline(always)]
    fn fma(self, a: f64, b: f64, c: f64) -> f64 {
        Fma::fused(a, b, c)
    }
}

impl Isa for Avx512 {
    #[inline(always)]
    fn fma(self, a: f64, b: f64, c: f64) -> f64 {
        Fma::fused(a, b, c)
    }
}

/// Code with one copy per ISA: [`IsaLevel::run`] calls `run` with the token
/// of the copy it picked. Implementations should be `#[inline(always)]`, so
/// their body lands inside the feature-compiled function.
pub trait IsaJob {
    type Out;
    fn run<I: Isa>(self, isa: I) -> Self::Out;
}

/// Which copy of CPU code this CPU runs. `Copy`: detect once, outside the
/// hot loop, and hand the token in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsaLevel(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Baseline(Fma),
    Avx2,
    Avx512,
}

impl IsaLevel {
    /// The widest copy this CPU runs.
    #[inline]
    pub fn detect() -> Self {
        let fma = Fma::detect();
        #[cfg(target_arch = "x86_64")]
        if fma.hw && std::arch::is_x86_feature_detected!("avx2") {
            return IsaLevel(if std::arch::is_x86_feature_detected!("avx512f") {
                Level::Avx512
            } else {
                Level::Avx2
            });
        }
        IsaLevel(Level::Baseline(fma))
    }

    /// Every copy this CPU runs, narrowest first: baseline with software FMA,
    /// baseline with hardware FMA, AVX2, AVX-512. Tests compare them.
    pub fn supported() -> Vec<Self> {
        let fma = Fma::detect();
        let widest = Self::detect().0;
        let all = [
            Level::Baseline(Fma::software()),
            Level::Baseline(fma),
            Level::Avx2,
            Level::Avx512,
        ];
        let mut copies: Vec<_> = match widest {
            Level::Baseline(_) => all[..2].to_vec(),
            Level::Avx2 => all[..3].to_vec(),
            Level::Avx512 => all.to_vec(),
        };
        copies.dedup();
        copies.into_iter().map(IsaLevel).collect()
    }

    /// Run `job` in the copy compiled for this ISA.
    #[inline(always)]
    pub fn run<J: IsaJob>(self, job: J) -> J::Out {
        match self.0 {
            Level::Baseline(fma) => job.run(fma),
            // SAFETY: `Level` is private and only `supported` makes `Avx2`,
            // after the CPU reported FMA and AVX2.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => unsafe { run_avx2(job) },
            // SAFETY: as above; `Avx512` also needs the CPU's AVX-512F bit.
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => unsafe { run_avx512(job) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only x86-64 has feature copies"),
        }
    }
}

/// `job` compiled for AVX2 and FMA.
///
/// # Safety
///
/// The CPU must have AVX2 and FMA: calling it from code compiled without
/// them is `unsafe`, and `IsaLevel::run` does so only for `Level::Avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2<J: IsaJob>(job: J) -> J::Out {
    job.run(Avx2(()))
}

/// `job` compiled for AVX-512F, AVX2 and FMA.
///
/// # Safety
///
/// The CPU must have all three, as for [`run_avx2`]; `IsaLevel::run` calls
/// it only for `Level::Avx512`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn run_avx512<J: IsaJob>(job: J) -> J::Out {
    job.run(Avx512(()))
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
