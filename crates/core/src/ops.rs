//! The single-source kernel DSL.
//!
//! A kernel (Listing 1) is written once against [`KernelOps`] and can then be
//! executed by every back-end:
//!
//! * the native CPU back-ends implement `KernelOps` with *direct execution*
//!   (`F = f64`, every method is an `#[inline]` primitive — the compiler
//!   erases the abstraction, which is the paper's zero-overhead claim), and
//! * the simulated-device back-end implements it with an *IR builder* that
//!   traces the kernel into `alpaka-kir` once and interprets it on the
//!   simulated SM/warp machine (the CUDA analogue).
//!
//! There are *no implicit built-in variables*: every piece of information
//! (indices, extents, parameters, buffers) is retrieved from the accelerator
//! object, exactly as Section 3.4 prescribes. Control flow uses structured
//! combinators (`if_`, `for_range`, `while_`) because the IR back-end cannot
//! observe native Rust branches on device values.
//!
//! The *element level* (Section 3.2.4) is expressed with
//! [`KernelOps::for_elements`], an annotated inner loop over a fixed number
//! of elements: the CPU device models treat it as vectorizable, mirroring the
//! compiler-recognized SIMD loops of the paper. Element spans
//! ([`KernelOps::span_sf`], [`KernelOps::span_lf`]) declare the affine range
//! such a loop walks, so the native back-ends check it once per loop rather
//! than once per element.

/// Operations available inside a kernel, parameterized over the accelerator.
///
/// All handle types are `Copy` so kernels can pass them around freely.
/// Dimensions `d` are user-facing: `0` is the slowest-varying dimension of
/// the launch's work division, `dims() - 1` the fastest.
#[allow(clippy::too_many_arguments)]
pub trait KernelOps: Sized {
    /// A device `f64` value.
    type F: Copy;
    /// A device `i64` value (also used for indices; bitwise ops treat it as
    /// a 64-bit word).
    type I: Copy;
    /// A device boolean.
    type B: Copy;
    /// Handle to a bound global `f64` buffer.
    type BufF: Copy;
    /// Handle to a bound global `i64` buffer.
    type BufI: Copy;
    /// Handle to a block-shared `f64` array.
    type ShF: Copy;
    /// Handle to a block-shared `i64` array.
    type ShI: Copy;
    /// Handle to a thread-private (register/L1-level) `f64` scratch array,
    /// dynamically indexable — used for per-thread sub-tiles in register
    /// blocking.
    type LocF: Copy;
    /// An element span over a block-shared `f64` array
    /// ([`Self::span_sf`]).
    type SpanSf: Copy;
    /// An element span over a thread-private `f64` array
    /// ([`Self::span_lf`]).
    type SpanLf: Copy;
    /// Handle to a mutable `f64` register (loop-carried state).
    type VarF: Copy;
    /// Handle to a mutable `i64` register.
    type VarI: Copy;

    // ------------------------------------------------------------------
    // Hierarchy queries (Listing 3)
    // ------------------------------------------------------------------

    /// Dimensionality of the launch (1–3). A host-side constant.
    fn dims(&self) -> usize;
    /// Number of blocks in the grid along `d`.
    fn grid_block_extent(&mut self, d: usize) -> Self::I;
    /// Number of threads per block along `d`.
    fn block_thread_extent(&mut self, d: usize) -> Self::I;
    /// Number of elements per thread along `d`.
    fn thread_elem_extent(&mut self, d: usize) -> Self::I;
    /// This thread's block index along `d`.
    fn block_idx(&mut self, d: usize) -> Self::I;
    /// This thread's index within its block along `d`.
    fn thread_idx(&mut self, d: usize) -> Self::I;

    // ------------------------------------------------------------------
    // Parameters and buffers (bound by the executor at launch)
    // ------------------------------------------------------------------

    /// `slot`-th `f64` scalar parameter.
    fn param_f(&mut self, slot: usize) -> Self::F;
    /// `slot`-th `i64` scalar parameter.
    fn param_i(&mut self, slot: usize) -> Self::I;
    /// `slot`-th bound global `f64` buffer.
    fn buf_f(&mut self, slot: usize) -> Self::BufF;
    /// `slot`-th bound global `i64` buffer.
    fn buf_i(&mut self, slot: usize) -> Self::BufI;

    // ------------------------------------------------------------------
    // Literals
    // ------------------------------------------------------------------

    fn lit_f(&mut self, v: f64) -> Self::F;
    fn lit_i(&mut self, v: i64) -> Self::I;
    fn lit_b(&mut self, v: bool) -> Self::B;

    // ------------------------------------------------------------------
    // Floating-point arithmetic
    // ------------------------------------------------------------------

    fn add_f(&mut self, a: Self::F, b: Self::F) -> Self::F;
    fn sub_f(&mut self, a: Self::F, b: Self::F) -> Self::F;
    fn mul_f(&mut self, a: Self::F, b: Self::F) -> Self::F;
    fn div_f(&mut self, a: Self::F, b: Self::F) -> Self::F;
    fn neg_f(&mut self, a: Self::F) -> Self::F;
    /// Fused multiply-add `a * b + c` — the workhorse of DAXPY/DGEMM and the
    /// unit in which device peak performance is quoted (2 flop).
    fn fma_f(&mut self, a: Self::F, b: Self::F, c: Self::F) -> Self::F;
    fn min_f(&mut self, a: Self::F, b: Self::F) -> Self::F;
    fn max_f(&mut self, a: Self::F, b: Self::F) -> Self::F;
    fn abs_f(&mut self, a: Self::F) -> Self::F;
    fn sqrt_f(&mut self, a: Self::F) -> Self::F;
    fn exp_f(&mut self, a: Self::F) -> Self::F;
    fn ln_f(&mut self, a: Self::F) -> Self::F;
    fn sin_f(&mut self, a: Self::F) -> Self::F;
    fn cos_f(&mut self, a: Self::F) -> Self::F;
    fn floor_f(&mut self, a: Self::F) -> Self::F;

    // ------------------------------------------------------------------
    // Integer arithmetic (wrapping; shifts mask to 0..64; `shr_i` is a
    // logical shift on the 64-bit word)
    // ------------------------------------------------------------------

    fn add_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn sub_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn mul_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    /// Truncating division. Division by zero yields 0 (deterministic on all
    /// back-ends rather than trapping).
    fn div_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    /// Remainder, same zero-divisor convention as [`Self::div_i`].
    fn rem_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn neg_i(&mut self, a: Self::I) -> Self::I;
    fn min_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn max_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn and_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn or_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn xor_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn shl_i(&mut self, a: Self::I, b: Self::I) -> Self::I;
    fn shr_i(&mut self, a: Self::I, b: Self::I) -> Self::I;

    // ------------------------------------------------------------------
    // Comparisons and boolean logic
    // ------------------------------------------------------------------

    fn lt_f(&mut self, a: Self::F, b: Self::F) -> Self::B;
    fn le_f(&mut self, a: Self::F, b: Self::F) -> Self::B;
    fn gt_f(&mut self, a: Self::F, b: Self::F) -> Self::B;
    fn ge_f(&mut self, a: Self::F, b: Self::F) -> Self::B;
    fn eq_f(&mut self, a: Self::F, b: Self::F) -> Self::B;
    fn lt_i(&mut self, a: Self::I, b: Self::I) -> Self::B;
    fn le_i(&mut self, a: Self::I, b: Self::I) -> Self::B;
    fn gt_i(&mut self, a: Self::I, b: Self::I) -> Self::B;
    fn ge_i(&mut self, a: Self::I, b: Self::I) -> Self::B;
    fn eq_i(&mut self, a: Self::I, b: Self::I) -> Self::B;
    fn and_b(&mut self, a: Self::B, b: Self::B) -> Self::B;
    fn or_b(&mut self, a: Self::B, b: Self::B) -> Self::B;
    fn not_b(&mut self, a: Self::B) -> Self::B;
    fn select_f(&mut self, c: Self::B, t: Self::F, e: Self::F) -> Self::F;
    fn select_i(&mut self, c: Self::B, t: Self::I, e: Self::I) -> Self::I;

    // ------------------------------------------------------------------
    // Conversions
    // ------------------------------------------------------------------

    fn i2f(&mut self, a: Self::I) -> Self::F;
    /// Truncating conversion; NaN and out-of-range map to 0 / saturated.
    fn f2i(&mut self, a: Self::F) -> Self::I;
    /// Treat the 64-bit word as unsigned and map its top 53 bits to a
    /// uniform double in `[0, 1)` — the primitive used by counter-based
    /// per-thread RNGs in the Monte-Carlo kernels.
    fn u2unit_f(&mut self, a: Self::I) -> Self::F;

    // ------------------------------------------------------------------
    // Memory (Section 3.2: register / shared / global levels)
    // ------------------------------------------------------------------

    /// Load `buf[idx]` from global memory.
    fn ld_gf(&mut self, buf: Self::BufF, idx: Self::I) -> Self::F;
    /// Store to global memory.
    fn st_gf(&mut self, buf: Self::BufF, idx: Self::I, v: Self::F);
    fn ld_gi(&mut self, buf: Self::BufI, idx: Self::I) -> Self::I;
    fn st_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I);

    /// Allocate (or re-reference) a block-shared `f64` array of `len`
    /// elements. Must be called unconditionally and in the same order by all
    /// threads of the block (the usual static-shared-memory discipline).
    fn shared_f(&mut self, len: usize) -> Self::ShF;
    fn shared_i(&mut self, len: usize) -> Self::ShI;
    fn ld_sf(&mut self, sh: Self::ShF, idx: Self::I) -> Self::F;
    fn st_sf(&mut self, sh: Self::ShF, idx: Self::I, v: Self::F);
    fn ld_si(&mut self, sh: Self::ShI, idx: Self::I) -> Self::I;
    fn st_si(&mut self, sh: Self::ShI, idx: Self::I, v: Self::I);

    /// Allocate a thread-private `f64` scratch array of `len` elements
    /// (zero-initialized). Lives at the register memory level: each thread
    /// sees its own copy; no synchronization applies.
    fn local_f(&mut self, len: usize) -> Self::LocF;
    fn ld_lf(&mut self, l: Self::LocF, idx: Self::I) -> Self::F;
    fn st_lf(&mut self, l: Self::LocF, idx: Self::I, v: Self::F);

    /// Declare an element span over `sh` for the `for_elements(d, ..)` loop
    /// that follows: its element `j` is expected at `base + j * step`.
    /// Accesses through the span take `j` and the index the kernel computed,
    /// and mean exactly [`Self::ld_sf`] at that index: same value, same
    /// fault. A back-end may use the declaration to check the range once,
    /// instead of per element (the CPU back-ends do). `base` and `step` are
    /// closures so that a back-end with no use for them never runs them: the
    /// IR tracer emits no op for a span, and the traced program is the one
    /// without it.
    fn span_sf(
        &mut self,
        sh: Self::ShF,
        d: usize,
        base: impl FnOnce(&mut Self) -> Self::I,
        step: impl FnOnce(&mut Self) -> Self::I,
    ) -> Self::SpanSf;
    /// `sh[idx]` for element `j` of a span over `sh`.
    fn ld_span_sf(&mut self, s: Self::SpanSf, j: Self::I, idx: Self::I) -> Self::F;
    /// [`Self::span_sf`] over a thread-private array.
    fn span_lf(
        &mut self,
        l: Self::LocF,
        d: usize,
        base: impl FnOnce(&mut Self) -> Self::I,
        step: impl FnOnce(&mut Self) -> Self::I,
    ) -> Self::SpanLf;
    /// `l[idx]` for element `j` of a span over `l`.
    fn ld_span_lf(&mut self, s: Self::SpanLf, j: Self::I, idx: Self::I) -> Self::F;
    /// `l[idx] = v` for element `j` of a span over `l`.
    fn st_span_lf(&mut self, s: Self::SpanLf, j: Self::I, idx: Self::I, v: Self::F);

    /// Barrier across all threads of the block (Figure 1's thread-level
    /// synchronization). Must be reached by every thread of the block.
    fn sync_block_threads(&mut self);

    /// Atomically add to global memory, returning the previous value
    /// (footnote 10: atomics serialize thread access to global memory).
    fn atomic_add_gf(&mut self, buf: Self::BufF, idx: Self::I, v: Self::F) -> Self::F;
    fn atomic_add_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;
    fn atomic_min_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;
    fn atomic_max_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;
    fn atomic_and_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;
    fn atomic_or_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;
    fn atomic_xor_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;
    /// Atomic unconditional exchange: the cell takes `v`, the old value is
    /// returned. Unlike the reductions above its result is inherently
    /// order-dependent, so kernels using it keep the simulator's serial
    /// block path.
    fn atomic_exch_gi(&mut self, buf: Self::BufI, idx: Self::I, v: Self::I) -> Self::I;

    // ------------------------------------------------------------------
    // Mutable registers (loop-carried state in the register memory level)
    // ------------------------------------------------------------------

    fn var_f(&mut self, init: Self::F) -> Self::VarF;
    fn vget_f(&mut self, v: Self::VarF) -> Self::F;
    fn vset_f(&mut self, v: Self::VarF, val: Self::F);
    fn var_i(&mut self, init: Self::I) -> Self::VarI;
    fn vget_i(&mut self, v: Self::VarI) -> Self::I;
    fn vset_i(&mut self, v: Self::VarI, val: Self::I);

    // ------------------------------------------------------------------
    // Structured control flow
    // ------------------------------------------------------------------

    /// Execute `then` when `c` holds.
    fn if_(&mut self, c: Self::B, then: impl FnOnce(&mut Self));
    /// Two-armed conditional.
    fn if_else(&mut self, c: Self::B, then: impl FnOnce(&mut Self), els: impl FnOnce(&mut Self));
    /// `for i in start..end` with unit step; `body` receives the counter.
    fn for_range(&mut self, start: Self::I, end: Self::I, body: impl FnMut(&mut Self, Self::I));
    /// Element-level loop over `0..thread_elem_extent(d)` (Section 3.2.4).
    /// Semantically identical to `for_range`, but annotated so CPU device
    /// models may treat it as a vectorizable primitive inner loop.
    fn for_elements(&mut self, d: usize, body: impl FnMut(&mut Self, Self::I));
    /// `while cond() { body() }`; `cond` is re-evaluated before every
    /// iteration.
    fn while_(&mut self, cond: impl FnMut(&mut Self) -> Self::B, body: impl FnMut(&mut Self));

    /// Fold an `f64` accumulator over `start..end`: the body receives the
    /// counter and the current accumulator and returns the next one.
    /// Semantically equivalent to a `var_f` + `for_range`, but direct
    /// back-ends carry the accumulator in a machine register (the paper's
    /// zero-overhead story depends on reductions compiling like native
    /// loops would).
    fn fold_range_f(
        &mut self,
        start: Self::I,
        end: Self::I,
        init: Self::F,
        mut body: impl FnMut(&mut Self, Self::I, Self::F) -> Self::F,
    ) -> Self::F {
        let acc = self.var_f(init);
        self.for_range(start, end, |o, i| {
            let cur = o.vget_f(acc);
            let next = body(o, i, cur);
            o.vset_f(acc, next);
        });
        self.vget_f(acc)
    }

    /// [`Self::fold_range_f`] over the element level of dimension `d`.
    fn fold_elements_f(
        &mut self,
        d: usize,
        init: Self::F,
        mut body: impl FnMut(&mut Self, Self::I, Self::F) -> Self::F,
    ) -> Self::F {
        let acc = self.var_f(init);
        self.for_elements(d, |o, e| {
            let cur = o.vget_f(acc);
            let next = body(o, e, cur);
            o.vset_f(acc, next);
        });
        self.vget_f(acc)
    }

    /// Integer fold over `start..end`.
    fn fold_range_i(
        &mut self,
        start: Self::I,
        end: Self::I,
        init: Self::I,
        mut body: impl FnMut(&mut Self, Self::I, Self::I) -> Self::I,
    ) -> Self::I {
        let acc = self.var_i(init);
        self.for_range(start, end, |o, i| {
            let cur = o.vget_i(acc);
            let next = body(o, i, cur);
            o.vset_i(acc, next);
        });
        self.vget_i(acc)
    }

    /// Attach a free-form annotation (no-op on direct back-ends; preserved
    /// as a comment in the IR for readability of the printed streams).
    fn comment(&mut self, _text: &str) {}
}

/// Derived index helpers built purely from [`KernelOps`] primitives — the
/// analogue of Alpaka's `idx::getIdx<Grid, Threads>` family. Because they
/// are plain compositions, every back-end gets them for free and the IR
/// back-end sees exactly the primitive operations (which is what the Fig. 4
/// experiment diffs against hand-written index code).
pub trait KernelOpsExt: KernelOps {
    /// Global thread index along `d`: `block_idx * block_threads + thread_idx`.
    fn global_thread_idx(&mut self, d: usize) -> Self::I {
        let bi = self.block_idx(d);
        let bd = self.block_thread_extent(d);
        let ti = self.thread_idx(d);
        let prod = self.mul_i(bi, bd);
        self.add_i(prod, ti)
    }

    /// Global thread extent along `d`: `grid_blocks * block_threads`.
    fn global_thread_extent(&mut self, d: usize) -> Self::I {
        let gb = self.grid_block_extent(d);
        let bd = self.block_thread_extent(d);
        self.mul_i(gb, bd)
    }

    /// Row-major linearized global thread index over all launch dimensions
    /// (Listing 3's `mapIdx<1>`).
    fn linear_global_thread_idx(&mut self) -> Self::I {
        let dims = self.dims();
        let mut lin = self.global_thread_idx(0);
        for d in 1..dims {
            let ext = self.global_thread_extent(d);
            let idx = self.global_thread_idx(d);
            let scaled = self.mul_i(lin, ext);
            lin = self.add_i(scaled, idx);
        }
        lin
    }

    /// Linearized thread index within the block.
    fn linear_thread_idx_in_block(&mut self) -> Self::I {
        let dims = self.dims();
        let mut lin = self.thread_idx(0);
        for d in 1..dims {
            let ext = self.block_thread_extent(d);
            let idx = self.thread_idx(d);
            let scaled = self.mul_i(lin, ext);
            lin = self.add_i(scaled, idx);
        }
        lin
    }

    /// Total threads per block, linearized over all dimensions.
    fn linear_block_thread_extent(&mut self) -> Self::I {
        let dims = self.dims();
        let mut ext = self.block_thread_extent(0);
        for d in 1..dims {
            let e = self.block_thread_extent(d);
            ext = self.mul_i(ext, e);
        }
        ext
    }

    /// `base + i` convenience.
    fn offset_i(&mut self, base: Self::I, off: i64) -> Self::I {
        let o = self.lit_i(off);
        self.add_i(base, o)
    }

    /// One step of the SplitMix64 mixer — the counter-based per-thread RNG
    /// used by the Monte-Carlo kernels. Deterministic, stateless, identical
    /// on every back-end (the paper's *testability* property).
    fn splitmix64(&mut self, x: Self::I) -> Self::I {
        // x += 0x9E3779B97F4A7C15; z = x; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
        // z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31;
        let golden = self.lit_i(0x9E37_79B9_7F4A_7C15_u64 as i64);
        let mut z = self.add_i(x, golden);
        let s30 = self.lit_i(30);
        let t = self.shr_i(z, s30);
        z = self.xor_i(z, t);
        let m1 = self.lit_i(0xBF58_476D_1CE4_E5B9_u64 as i64);
        z = self.mul_i(z, m1);
        let s27 = self.lit_i(27);
        let t = self.shr_i(z, s27);
        z = self.xor_i(z, t);
        let m2 = self.lit_i(0x94D0_49BB_1331_11EB_u64 as i64);
        z = self.mul_i(z, m2);
        let s31 = self.lit_i(31);
        let t = self.shr_i(z, s31);
        self.xor_i(z, t)
    }

    /// Uniform double in `[0, 1)` from a counter and stream id via
    /// [`Self::splitmix64`].
    fn rand_unit_f(&mut self, counter: Self::I, stream: Self::I) -> Self::F {
        let mixed_stream = self.splitmix64(stream);
        let x = self.xor_i(counter, mixed_stream);
        let z = self.splitmix64(x);
        self.u2unit_f(z)
    }
}

impl<O: KernelOps> KernelOpsExt for O {}
