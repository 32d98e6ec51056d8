//! Direct execution of the single-source kernel DSL on the host.
//!
//! `CpuOps` implements `KernelOps` with `F = f64`, `I = i64`, `B = bool` and
//! every method a tiny `#[inline]` primitive: after monomorphization the
//! kernel body compiles to the same machine code a hand-written loop nest
//! would — this is the zero-overhead half of the paper's Section 4.1
//! argument, realized by `rustc` instead of `nvcc`.
//!
//! `fma_f` is the one primitive that needed help to get there. `f64::mul_add`
//! on the default `x86-64` target is an out-of-line call into
//! compiler-builtins, with every live `xmm` register spilled around it, once
//! per multiply-add of every kernel. So the launch detects the CPU's FMA bit
//! once ([`Fma`], on [`LaunchGeometry`]) and `fma_f` inlines to one
//! `vfmadd231sd` where the CPU has it; the native baselines use the same
//! token. The bounds checks stay, as one unsigned compare whose failing
//! branch is a cold call.
//!
//! Memory model: global buffers are raw pointers into [`HostBuf`] storage
//! (the CUDA contract — concurrent threads must write disjoint elements or
//! use atomics); shared memory is a per-block arena handed to all threads of
//! the block; registers (`var_f`/`var_i`) are thread-private vectors.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use alpaka_core::buffer::HostBuf;
use alpaka_core::fma::Fma;
use alpaka_core::kernel::{Kernel, ScalarArgs};
use alpaka_core::ops::KernelOps;
use alpaka_core::workdiv::WorkDiv;
use parking_lot::Mutex;

use crate::sync::BlockSync;

/// Raw view of a bound global buffer.
pub struct RawBuf<E> {
    pub ptr: *mut E,
    pub len: usize,
}

impl<E> Clone for RawBuf<E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for RawBuf<E> {}

/// Raw view of a block-shared array.
pub struct RawSh<E> {
    pub ptr: *mut E,
    pub len: usize,
}

impl<E> Clone for RawSh<E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for RawSh<E> {}

/// Launch arguments for the CPU back-ends: buffer bindings (slot order) and
/// scalars.
#[derive(Clone, Default)]
pub struct CpuArgs {
    pub bufs_f: Vec<HostBuf<f64>>,
    pub bufs_i: Vec<HostBuf<i64>>,
    pub scalars: ScalarArgs,
}

impl CpuArgs {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn buf_f(mut self, b: &HostBuf<f64>) -> Self {
        self.bufs_f.push(b.clone());
        self
    }
    pub fn buf_i(mut self, b: &HostBuf<i64>) -> Self {
        self.bufs_i.push(b.clone());
        self
    }
    pub fn scalar_f(mut self, v: f64) -> Self {
        self.scalars.f.push(v);
        self
    }
    pub fn scalar_i(mut self, v: i64) -> Self {
        self.scalars.i.push(v);
        self
    }

    pub(crate) fn resolve(&self) -> ResolvedArgs {
        ResolvedArgs {
            bufs_f: self
                .bufs_f
                .iter()
                .map(|b| RawBuf {
                    ptr: b.ptr(),
                    len: b.alloc_len(),
                })
                .collect(),
            bufs_i: self
                .bufs_i
                .iter()
                .map(|b| RawBuf {
                    ptr: b.ptr(),
                    len: b.alloc_len(),
                })
                .collect(),
            f: self.scalars.f.clone(),
            i: self.scalars.i.clone(),
        }
    }
}

/// Resolved (raw-pointer) arguments shared by all threads of a launch.
pub struct ResolvedArgs {
    pub bufs_f: Vec<RawBuf<f64>>,
    pub bufs_i: Vec<RawBuf<i64>>,
    pub f: Vec<f64>,
    pub i: Vec<i64>,
}

// SAFETY: the raw pointers reference HostBuf storage that outlives the
// launch (the launch holds the CpuArgs alive); cross-thread access follows
// the device-memory contract documented in alpaka_core::buffer.
unsafe impl Send for ResolvedArgs {}
unsafe impl Sync for ResolvedArgs {}

struct SharedAlloc {
    is_f: bool,
    len: usize,
    ptr: *mut u64,
    /// Owns the allocation; `ptr` points into it.
    _data: Box<[u64]>,
}

/// Per-block shared-memory arena. Threads of a block request arrays in
/// deterministic call order; the first thread to reach an allocation point
/// creates it, later threads receive the same array.
#[derive(Default)]
pub struct SharedBlock {
    arrays: Mutex<Vec<SharedAlloc>>,
}

// SAFETY: same device-memory contract; allocation is mutex-protected, data
// access is barrier-disciplined by the kernel.
unsafe impl Send for SharedBlock {}
unsafe impl Sync for SharedBlock {}

impl SharedBlock {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_alloc(&self, cursor: usize, is_f: bool, len: usize) -> *mut u64 {
        let mut arrays = self.arrays.lock();
        if let Some(a) = arrays.get(cursor) {
            assert!(
                a.is_f == is_f && a.len == len,
                "shared-memory allocation order diverged between block threads \
                 (slot {cursor}: have {}x{} want {}x{})",
                a.len,
                if a.is_f { "f64" } else { "i64" },
                len,
                if is_f { "f64" } else { "i64" }
            );
            return a.ptr;
        }
        assert_eq!(
            arrays.len(),
            cursor,
            "shared-memory allocations must be requested in order"
        );
        let mut data = vec![0u64; len].into_boxed_slice();
        let ptr = data.as_mut_ptr();
        arrays.push(SharedAlloc {
            is_f,
            len,
            ptr,
            _data: data,
        });
        ptr
    }

    /// Zero all arrays for reuse by the next block (keeps allocations).
    pub fn reset(&self) {
        let mut arrays = self.arrays.lock();
        for a in arrays.iter_mut() {
            // SAFETY: we own the allocation; no kernel thread is running
            // (reset is called between blocks, after a barrier/join).
            unsafe {
                std::ptr::write_bytes(a.ptr, 0, a.len);
            }
        }
    }

    /// Drop all allocations (used when consecutive launches differ).
    pub fn clear(&self) {
        self.arrays.lock().clear();
    }
}

/// Canonicalized launch geometry shared by all threads.
pub struct LaunchGeometry {
    pub dims: usize,
    pub grid: [i64; 3],
    pub block: [i64; 3],
    pub elems: [i64; 3],
    fma: Fma,
}

impl LaunchGeometry {
    pub(crate) fn from_workdiv(wd: &WorkDiv, fma: Fma) -> Self {
        LaunchGeometry {
            dims: wd.dim,
            grid: wd.blocks.map(|v| v as i64),
            block: wd.threads.map(|v| v as i64),
            elems: wd.elems.map(|v| v as i64),
            fma,
        }
    }
}

/// The direct-execution accelerator object handed to one kernel thread.
pub struct CpuOps<'a> {
    geo: &'a LaunchGeometry,
    bidx: [i64; 3],
    tidx: [i64; 3],
    lin_tid: usize,
    /// Copied out of `geo`, so the optimiser sees a loop-invariant value.
    fma: Fma,
    args: &'a ResolvedArgs,
    shared: &'a SharedBlock,
    sync: &'a dyn BlockSync,
    sh_cursor: usize,
    vars_f: Vec<f64>,
    vars_i: Vec<i64>,
    locals_f: Vec<Box<[f64]>>,
}

impl<'a> CpuOps<'a> {
    pub fn new(
        geo: &'a LaunchGeometry,
        bidx: [usize; 3],
        tidx: [usize; 3],
        args: &'a ResolvedArgs,
        shared: &'a SharedBlock,
        sync: &'a dyn BlockSync,
    ) -> Self {
        let lin_tid = (tidx[0] * geo.block[1] as usize + tidx[1]) * geo.block[2] as usize + tidx[2];
        CpuOps {
            geo,
            bidx: bidx.map(|v| v as i64),
            tidx: tidx.map(|v| v as i64),
            lin_tid,
            fma: geo.fma,
            args,
            shared,
            sync,
            sh_cursor: 0,
            vars_f: Vec::new(),
            vars_i: Vec::new(),
            locals_f: Vec::new(),
        }
    }

    #[inline]
    fn axis(&self, d: usize) -> usize {
        debug_assert!(d < self.geo.dims);
        3 - self.geo.dims + d
    }
}

/// `idx` as an index into `len` elements, else a kernel fault naming the
/// instruction `what`. A negative index wraps above any `len`, so one
/// unsigned compare covers both ends.
#[inline(always)]
fn check(len: usize, idx: i64, what: &str) -> usize {
    if idx as u64 >= len as u64 {
        oob(what, idx, len)
    }
    idx as usize
}

/// The failing branch of [`check`], kept out of line so the message is not
/// built inside the kernel's loops.
#[cold]
#[inline(never)]
fn oob(what: &str, idx: i64, len: usize) -> ! {
    panic!("{what}: index {idx} out of bounds (len {len})")
}

/// Execute `kernel` for a single (block, thread) coordinate.
#[allow(clippy::too_many_arguments)]
pub fn run_thread<K: Kernel + ?Sized>(
    kernel: &K,
    geo: &LaunchGeometry,
    bidx: [usize; 3],
    tidx: [usize; 3],
    args: &ResolvedArgs,
    shared: &SharedBlock,
    sync: &dyn BlockSync,
) {
    let mut ops = CpuOps::new(geo, bidx, tidx, args, shared, sync);
    kernel.run(&mut ops);
}

impl KernelOps for CpuOps<'_> {
    type F = f64;
    type I = i64;
    type B = bool;
    type BufF = RawBuf<f64>;
    type BufI = RawBuf<i64>;
    type ShF = RawSh<f64>;
    type ShI = RawSh<i64>;
    type LocF = usize;
    type VarF = usize;
    type VarI = usize;

    #[inline(always)]
    fn dims(&self) -> usize {
        self.geo.dims
    }
    #[inline(always)]
    fn grid_block_extent(&mut self, d: usize) -> i64 {
        self.geo.grid[self.axis(d)]
    }
    #[inline(always)]
    fn block_thread_extent(&mut self, d: usize) -> i64 {
        self.geo.block[self.axis(d)]
    }
    #[inline(always)]
    fn thread_elem_extent(&mut self, d: usize) -> i64 {
        self.geo.elems[self.axis(d)]
    }
    #[inline(always)]
    fn block_idx(&mut self, d: usize) -> i64 {
        self.bidx[self.axis(d)]
    }
    #[inline(always)]
    fn thread_idx(&mut self, d: usize) -> i64 {
        self.tidx[self.axis(d)]
    }

    #[inline(always)]
    fn param_f(&mut self, slot: usize) -> f64 {
        self.args.f[slot]
    }
    #[inline(always)]
    fn param_i(&mut self, slot: usize) -> i64 {
        self.args.i[slot]
    }
    #[inline(always)]
    fn buf_f(&mut self, slot: usize) -> RawBuf<f64> {
        self.args.bufs_f[slot]
    }
    #[inline(always)]
    fn buf_i(&mut self, slot: usize) -> RawBuf<i64> {
        self.args.bufs_i[slot]
    }

    #[inline(always)]
    fn lit_f(&mut self, v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn lit_i(&mut self, v: i64) -> i64 {
        v
    }
    #[inline(always)]
    fn lit_b(&mut self, v: bool) -> bool {
        v
    }

    #[inline(always)]
    fn add_f(&mut self, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn sub_f(&mut self, a: f64, b: f64) -> f64 {
        a - b
    }
    #[inline(always)]
    fn mul_f(&mut self, a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn div_f(&mut self, a: f64, b: f64) -> f64 {
        a / b
    }
    #[inline(always)]
    fn neg_f(&mut self, a: f64) -> f64 {
        -a
    }
    #[inline(always)]
    fn fma_f(&mut self, a: f64, b: f64, c: f64) -> f64 {
        self.fma.apply(a, b, c)
    }
    #[inline(always)]
    fn min_f(&mut self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn max_f(&mut self, a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline(always)]
    fn abs_f(&mut self, a: f64) -> f64 {
        a.abs()
    }
    #[inline(always)]
    fn sqrt_f(&mut self, a: f64) -> f64 {
        a.sqrt()
    }
    #[inline(always)]
    fn exp_f(&mut self, a: f64) -> f64 {
        a.exp()
    }
    #[inline(always)]
    fn ln_f(&mut self, a: f64) -> f64 {
        a.ln()
    }
    #[inline(always)]
    fn sin_f(&mut self, a: f64) -> f64 {
        a.sin()
    }
    #[inline(always)]
    fn cos_f(&mut self, a: f64) -> f64 {
        a.cos()
    }
    #[inline(always)]
    fn floor_f(&mut self, a: f64) -> f64 {
        a.floor()
    }

    #[inline(always)]
    fn add_i(&mut self, a: i64, b: i64) -> i64 {
        a.wrapping_add(b)
    }
    #[inline(always)]
    fn sub_i(&mut self, a: i64, b: i64) -> i64 {
        a.wrapping_sub(b)
    }
    #[inline(always)]
    fn mul_i(&mut self, a: i64, b: i64) -> i64 {
        a.wrapping_mul(b)
    }
    #[inline(always)]
    fn div_i(&mut self, a: i64, b: i64) -> i64 {
        if b == 0 {
            0
        } else {
            a.wrapping_div(b)
        }
    }
    #[inline(always)]
    fn rem_i(&mut self, a: i64, b: i64) -> i64 {
        if b == 0 {
            0
        } else {
            a.wrapping_rem(b)
        }
    }
    #[inline(always)]
    fn neg_i(&mut self, a: i64) -> i64 {
        a.wrapping_neg()
    }
    #[inline(always)]
    fn min_i(&mut self, a: i64, b: i64) -> i64 {
        a.min(b)
    }
    #[inline(always)]
    fn max_i(&mut self, a: i64, b: i64) -> i64 {
        a.max(b)
    }
    #[inline(always)]
    fn and_i(&mut self, a: i64, b: i64) -> i64 {
        a & b
    }
    #[inline(always)]
    fn or_i(&mut self, a: i64, b: i64) -> i64 {
        a | b
    }
    #[inline(always)]
    fn xor_i(&mut self, a: i64, b: i64) -> i64 {
        a ^ b
    }
    #[inline(always)]
    fn shl_i(&mut self, a: i64, b: i64) -> i64 {
        ((a as u64) << ((b as u64) & 63)) as i64
    }
    #[inline(always)]
    fn shr_i(&mut self, a: i64, b: i64) -> i64 {
        ((a as u64) >> ((b as u64) & 63)) as i64
    }

    #[inline(always)]
    fn lt_f(&mut self, a: f64, b: f64) -> bool {
        a < b
    }
    #[inline(always)]
    fn le_f(&mut self, a: f64, b: f64) -> bool {
        a <= b
    }
    #[inline(always)]
    fn gt_f(&mut self, a: f64, b: f64) -> bool {
        a > b
    }
    #[inline(always)]
    fn ge_f(&mut self, a: f64, b: f64) -> bool {
        a >= b
    }
    #[inline(always)]
    fn eq_f(&mut self, a: f64, b: f64) -> bool {
        a == b
    }
    #[inline(always)]
    fn lt_i(&mut self, a: i64, b: i64) -> bool {
        a < b
    }
    #[inline(always)]
    fn le_i(&mut self, a: i64, b: i64) -> bool {
        a <= b
    }
    #[inline(always)]
    fn gt_i(&mut self, a: i64, b: i64) -> bool {
        a > b
    }
    #[inline(always)]
    fn ge_i(&mut self, a: i64, b: i64) -> bool {
        a >= b
    }
    #[inline(always)]
    fn eq_i(&mut self, a: i64, b: i64) -> bool {
        a == b
    }
    #[inline(always)]
    fn and_b(&mut self, a: bool, b: bool) -> bool {
        a && b
    }
    #[inline(always)]
    fn or_b(&mut self, a: bool, b: bool) -> bool {
        a || b
    }
    #[inline(always)]
    fn not_b(&mut self, a: bool) -> bool {
        !a
    }
    #[inline(always)]
    fn select_f(&mut self, c: bool, t: f64, e: f64) -> f64 {
        if c {
            t
        } else {
            e
        }
    }
    #[inline(always)]
    fn select_i(&mut self, c: bool, t: i64, e: i64) -> i64 {
        if c {
            t
        } else {
            e
        }
    }

    #[inline(always)]
    fn i2f(&mut self, a: i64) -> f64 {
        a as f64
    }
    #[inline(always)]
    fn f2i(&mut self, a: f64) -> i64 {
        a as i64
    }
    #[inline(always)]
    fn u2unit_f(&mut self, a: i64) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (((a as u64) >> 11) as f64) * SCALE
    }

    #[inline(always)]
    fn ld_gf(&mut self, buf: RawBuf<f64>, idx: i64) -> f64 {
        let i = check(buf.len, idx, "ld.global.f64");
        // SAFETY: bounds-checked above; device-memory contract.
        unsafe { *buf.ptr.add(i) }
    }
    #[inline(always)]
    fn st_gf(&mut self, buf: RawBuf<f64>, idx: i64, v: f64) {
        let i = check(buf.len, idx, "st.global.f64");
        // SAFETY: bounds-checked above; device-memory contract.
        unsafe {
            *buf.ptr.add(i) = v;
        }
    }
    #[inline(always)]
    fn ld_gi(&mut self, buf: RawBuf<i64>, idx: i64) -> i64 {
        let i = check(buf.len, idx, "ld.global.s64");
        // SAFETY: bounds-checked above; device-memory contract.
        unsafe { *buf.ptr.add(i) }
    }
    #[inline(always)]
    fn st_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) {
        let i = check(buf.len, idx, "st.global.s64");
        // SAFETY: bounds-checked above; device-memory contract.
        unsafe {
            *buf.ptr.add(i) = v;
        }
    }

    fn shared_f(&mut self, len: usize) -> RawSh<f64> {
        let cursor = self.sh_cursor;
        self.sh_cursor += 1;
        let ptr = self.shared.get_or_alloc(cursor, true, len);
        RawSh {
            ptr: ptr as *mut f64,
            len,
        }
    }
    fn shared_i(&mut self, len: usize) -> RawSh<i64> {
        let cursor = self.sh_cursor;
        self.sh_cursor += 1;
        let ptr = self.shared.get_or_alloc(cursor, false, len);
        RawSh {
            ptr: ptr as *mut i64,
            len,
        }
    }
    #[inline(always)]
    fn ld_sf(&mut self, sh: RawSh<f64>, idx: i64) -> f64 {
        let i = check(sh.len, idx, "ld.shared.f64");
        // SAFETY: bounds-checked above; barrier-disciplined shared memory.
        unsafe { *sh.ptr.add(i) }
    }
    #[inline(always)]
    fn st_sf(&mut self, sh: RawSh<f64>, idx: i64, v: f64) {
        let i = check(sh.len, idx, "st.shared.f64");
        // SAFETY: bounds-checked above; barrier-disciplined shared memory.
        unsafe {
            *sh.ptr.add(i) = v;
        }
    }
    #[inline(always)]
    fn ld_si(&mut self, sh: RawSh<i64>, idx: i64) -> i64 {
        let i = check(sh.len, idx, "ld.shared.s64");
        // SAFETY: bounds-checked above; barrier-disciplined shared memory.
        unsafe { *sh.ptr.add(i) }
    }
    #[inline(always)]
    fn st_si(&mut self, sh: RawSh<i64>, idx: i64, v: i64) {
        let i = check(sh.len, idx, "st.shared.s64");
        // SAFETY: bounds-checked above; barrier-disciplined shared memory.
        unsafe {
            *sh.ptr.add(i) = v;
        }
    }

    fn local_f(&mut self, len: usize) -> usize {
        self.locals_f.push(vec![0.0; len].into_boxed_slice());
        self.locals_f.len() - 1
    }
    #[inline(always)]
    fn ld_lf(&mut self, l: usize, idx: i64) -> f64 {
        let arr = &self.locals_f[l];
        arr[check(arr.len(), idx, "ld.local.f64")]
    }
    #[inline(always)]
    fn st_lf(&mut self, l: usize, idx: i64, v: f64) {
        let arr = &mut self.locals_f[l];
        arr[check(arr.len(), idx, "st.local.f64")] = v;
    }

    #[inline(always)]
    fn sync_block_threads(&mut self) {
        self.sync.sync(self.lin_tid);
    }

    fn atomic_add_gf(&mut self, buf: RawBuf<f64>, idx: i64, v: f64) -> f64 {
        let i = check(buf.len, idx, "atom.global.add.f64");
        // SAFETY: element is within bounds; f64 and AtomicU64 share size
        // and alignment; all racing accesses to this element go through
        // the same atomic view per the device-memory contract.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicU64) };
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = (old + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }

    fn atomic_add_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.add.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.fetch_add(v, Ordering::AcqRel)
    }

    fn atomic_min_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.min.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.fetch_min(v, Ordering::AcqRel)
    }

    fn atomic_max_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.max.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.fetch_max(v, Ordering::AcqRel)
    }

    fn atomic_and_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.and.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.fetch_and(v, Ordering::AcqRel)
    }

    fn atomic_or_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.or.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.fetch_or(v, Ordering::AcqRel)
    }

    fn atomic_xor_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.xor.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.fetch_xor(v, Ordering::AcqRel)
    }

    fn atomic_exch_gi(&mut self, buf: RawBuf<i64>, idx: i64, v: i64) -> i64 {
        let i = check(buf.len, idx, "atom.global.exch.s64");
        // SAFETY: see atomic_add_gf.
        let cell = unsafe { &*(buf.ptr.add(i) as *const AtomicI64) };
        cell.swap(v, Ordering::AcqRel)
    }

    #[inline(always)]
    fn var_f(&mut self, init: f64) -> usize {
        self.vars_f.push(init);
        self.vars_f.len() - 1
    }
    #[inline(always)]
    fn vget_f(&mut self, v: usize) -> f64 {
        debug_assert!(v < self.vars_f.len());
        // SAFETY: handles are only produced by var_f on this ops instance,
        // and vars are never removed, so the index is always in bounds.
        unsafe { *self.vars_f.get_unchecked(v) }
    }
    #[inline(always)]
    fn vset_f(&mut self, v: usize, val: f64) {
        debug_assert!(v < self.vars_f.len());
        // SAFETY: see vget_f.
        unsafe {
            *self.vars_f.get_unchecked_mut(v) = val;
        }
    }
    #[inline(always)]
    fn var_i(&mut self, init: i64) -> usize {
        self.vars_i.push(init);
        self.vars_i.len() - 1
    }
    #[inline(always)]
    fn vget_i(&mut self, v: usize) -> i64 {
        debug_assert!(v < self.vars_i.len());
        // SAFETY: see vget_f.
        unsafe { *self.vars_i.get_unchecked(v) }
    }
    #[inline(always)]
    fn vset_i(&mut self, v: usize, val: i64) {
        debug_assert!(v < self.vars_i.len());
        // SAFETY: see vget_f.
        unsafe {
            *self.vars_i.get_unchecked_mut(v) = val;
        }
    }

    #[inline(always)]
    fn if_(&mut self, c: bool, then: impl FnOnce(&mut Self)) {
        if c {
            then(self);
        }
    }
    #[inline(always)]
    fn if_else(&mut self, c: bool, then: impl FnOnce(&mut Self), els: impl FnOnce(&mut Self)) {
        if c {
            then(self);
        } else {
            els(self);
        }
    }
    #[inline(always)]
    fn for_range(&mut self, start: i64, end: i64, mut body: impl FnMut(&mut Self, i64)) {
        let mut k = start;
        while k < end {
            body(self, k);
            k += 1;
        }
    }
    #[inline(always)]
    fn for_elements(&mut self, d: usize, mut body: impl FnMut(&mut Self, i64)) {
        let ext = self.geo.elems[self.axis(d)];
        // Primitive inner loop over a fixed element count — the shape the
        // auto-vectorizer recognizes (Section 3.2.4).
        for k in 0..ext {
            body(self, k);
        }
    }
    #[inline(always)]
    fn while_(&mut self, mut cond: impl FnMut(&mut Self) -> bool, mut body: impl FnMut(&mut Self)) {
        while cond(self) {
            body(self);
        }
    }

    #[inline(always)]
    fn fold_range_f(
        &mut self,
        start: i64,
        end: i64,
        init: f64,
        mut body: impl FnMut(&mut Self, i64, f64) -> f64,
    ) -> f64 {
        let mut acc = init;
        let mut k = start;
        while k < end {
            acc = body(self, k, acc);
            k += 1;
        }
        acc
    }

    #[inline(always)]
    fn fold_elements_f(
        &mut self,
        d: usize,
        init: f64,
        mut body: impl FnMut(&mut Self, i64, f64) -> f64,
    ) -> f64 {
        let ext = self.geo.elems[self.axis(d)];
        let mut acc = init;
        for k in 0..ext {
            acc = body(self, k, acc);
        }
        acc
    }

    #[inline(always)]
    fn fold_range_i(
        &mut self,
        start: i64,
        end: i64,
        init: i64,
        mut body: impl FnMut(&mut Self, i64, i64) -> i64,
    ) -> i64 {
        let mut acc = init;
        let mut k = start;
        while k < end {
            acc = body(self, k, acc);
            k += 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::NoopSync;
    use alpaka_core::buffer::BufLayout;
    use alpaka_core::ops::KernelOpsExt;

    struct Square;
    impl Kernel for Square {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let n = o.param_i(0);
            let i = o.global_thread_idx(0);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let v = o.ld_gf(b, i);
                let r = o.mul_f(v, v);
                o.st_gf(b, i, r);
            });
        }
    }

    #[test]
    fn direct_execution_squares() {
        let buf = HostBuf::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let args = CpuArgs::new().buf_f(&buf).scalar_i(4);
        let resolved = args.resolve();
        let wd = WorkDiv::d1(4, 1, 1);
        let geo = LaunchGeometry::from_workdiv(&wd, Fma::detect());
        let shared = SharedBlock::new();
        for b in 0..4 {
            run_thread(
                &Square,
                &geo,
                [0, 0, b],
                [0, 0, 0],
                &resolved,
                &shared,
                &NoopSync,
            );
        }
        assert_eq!(buf.as_slice(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        let buf = HostBuf::from_vec(vec![1.0]);
        let args = CpuArgs::new().buf_f(&buf).scalar_i(100);
        let resolved = args.resolve();
        let wd = WorkDiv::d1(1, 1, 1);
        let geo = LaunchGeometry::from_workdiv(&wd, Fma::detect());
        struct Bad;
        impl Kernel for Bad {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0);
                let i = o.lit_i(7);
                let v = o.lit_f(0.0);
                o.st_gf(b, i, v);
            }
        }
        run_thread(
            &Bad,
            &geo,
            [0, 0, 0],
            [0, 0, 0],
            &resolved,
            &SharedBlock::new(),
            &NoopSync,
        );
    }

    #[test]
    fn shared_allocation_is_shared_between_threads_of_a_block() {
        let shared = SharedBlock::new();
        let p1 = shared.get_or_alloc(0, true, 32);
        let p2 = shared.get_or_alloc(0, true, 32);
        assert_eq!(p1, p2);
        let q = shared.get_or_alloc(1, false, 8);
        assert_ne!(p1, q);
        shared.reset();
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn shared_allocation_mismatch_detected() {
        let shared = SharedBlock::new();
        let _ = shared.get_or_alloc(0, true, 32);
        let _ = shared.get_or_alloc(0, true, 64);
    }

    #[test]
    fn atomic_add_f64_accumulates_concurrently() {
        use std::sync::Arc;
        let buf = HostBuf::<f64>::alloc(BufLayout::d1(1));
        let args = Arc::new(CpuArgs::new().buf_f(&buf));
        let resolved = Arc::new(args.resolve());
        let wd = WorkDiv::d1(1, 1, 1);
        let geo = Arc::new(LaunchGeometry::from_workdiv(&wd, Fma::detect()));
        let mut handles = vec![];
        for _ in 0..8 {
            let resolved = Arc::clone(&resolved);
            let geo = Arc::clone(&geo);
            handles.push(std::thread::spawn(move || {
                let shared = SharedBlock::new();
                let mut ops =
                    CpuOps::new(&geo, [0, 0, 0], [0, 0, 0], &resolved, &shared, &NoopSync);
                let b = ops.buf_f(0);
                for _ in 0..1000 {
                    let one = ops.lit_f(1.0);
                    let zero = ops.lit_i(0);
                    ops.atomic_add_gf(b, zero, one);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(buf.as_slice()[0], 8000.0);
    }

    #[test]
    fn vars_are_thread_private() {
        let wd = WorkDiv::d1(1, 1, 1);
        let geo = LaunchGeometry::from_workdiv(&wd, Fma::detect());
        let args = CpuArgs::new().resolve();
        let shared = SharedBlock::new();
        let mut ops = CpuOps::new(&geo, [0, 0, 0], [0, 0, 0], &args, &shared, &NoopSync);
        let v = ops.var_f(1.5);
        assert_eq!(ops.vget_f(v), 1.5);
        ops.vset_f(v, 2.5);
        assert_eq!(ops.vget_f(v), 2.5);
        let w = ops.var_i(-3);
        assert_eq!(ops.vget_i(w), -3);
    }
}
