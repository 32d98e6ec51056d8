//! Lane kernels: every data op of the lowered ISA — anything but accounting
//! and control flow — executed over a whole block in one call.
//!
//! The register file is column-major (`vregs[slot * lanes + lane]`), so an
//! op's destination and varying operands are contiguous `&[u64]` columns.
//! Everything lane-invariant is decided **once per op**: which operands are
//! uniform scalars and which are columns ([`Src`]), which operator of a
//! binary family (`IBin`/`FBin`/`Cmp`/`BBin`) runs — the lane loop is
//! monomorphised per variant, so the `alpaka_kir::semantics` call inside it
//! folds to the one operation — for global memory, the buffer's cells,
//! length and base address ([`Site`]), and, for the four memory kernels,
//! whether the index column is a handful of *affine runs* ([`find_runs`]:
//! over a dense mask span, `first + j * stride` per run, both ends
//! range-checked once). A run moves its data in one strided loop and the
//! coalescer and the bank model answer for it per warp
//! (`Machine::mem_access_runs`, `Machine::shared_access_runs`) — what a warp
//! does at once costs once. Column ops visit the mask's span only: a plain
//! loop when the span has no hole, the active-lane list when it has; the
//! per-lane memory kernels always walk the list ([`try_active`] says why).
//!
//! What stays **per lane** is what the model observes per lane, in every op
//! that is not a run (a gather, a sparse mask, an end out of range, an ECC
//! plan armed on a load, a CPU model's vectorization probe logging): the
//! bounds check, the injected-ECC decision, the faulting thread's
//! coordinates, sequential lane order for stores and atomics, and the exact
//! `(lane, address)` list handed to the coalescer and the bank model. So a
//! fault keeps its lane, text and coordinates, and statistics, profiles and
//! traces do not depend on which path ran. (`FUn`'s operator switch and
//! `sem::fma`'s CPU-feature test also stay in the loop: the first is noise
//! next to `exp`/`sin`, the second cannot move without a second copy of
//! `fma` outside `alpaka-kir`.)
//!
//! A uniform destination has one value for the whole block, and so has every
//! op of a one-lane block (`ONE`): both are evaluated once through
//! [`rd1`]/[`wr1`], by the *same* closure the column loop would run — each
//! op's meaning is stated once, as a single call into
//! `alpaka_kir::semantics`. The compiled tier's step lists use the one-lane
//! instantiation as their scalar evaluator.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use alpaka_kir::ir::{AtomicOp, BBin, Cmp, FBin, IBin, SpecialReg};
use alpaka_kir::semantics as sem;

use crate::atomics::AtomicsPriv;
use crate::fault::SimError;
use crate::interp::{Machine, MemAccess, RegionAcc, Run, R};
use crate::lower::{flush_addrs, flush_elems, idx, is_u, LOp, LowState, MaskBuf};
use crate::serr;

// ---------------------------------------------------------------------------
// Operands and lane loops
// ---------------------------------------------------------------------------

/// An operand resolved for one op: a uniform scalar or a per-lane column.
#[derive(Clone, Copy)]
enum Src<'a> {
    U(u64),
    V(&'a [u64]),
}

impl Src<'_> {
    /// Lane `l`'s value, for the memory kernels (whose per-lane work dwarfs
    /// this loop-invariant branch).
    #[inline(always)]
    fn at(&self, l: usize) -> u64 {
        match self {
            Src::U(v) => *v,
            Src::V(c) => c[l],
        }
    }
}

/// Read view of the register files with (optionally) one destination
/// column split out: `lo` holds the columns below it, `hi` those above.
#[derive(Clone, Copy)]
struct Regs<'a> {
    lo: &'a [u64],
    hi: &'a [u64],
    /// Number of columns in `lo`.
    cut: usize,
    uregs: &'a [u64],
    lanes: usize,
}

impl<'a> Regs<'a> {
    fn src(&self, s: u32) -> Src<'a> {
        if is_u(s) {
            return Src::U(self.uregs[idx(s)]);
        }
        let s = s as usize;
        let (half, k) = if s < self.cut {
            (self.lo, s)
        } else {
            let above = s.checked_sub(self.cut + 1);
            (self.hi, above.expect("an op never reads its own dst"))
        };
        Src::V(&half[k * self.lanes..][..self.lanes])
    }
}

/// All registers, read-only (ops without a register destination).
fn regs_of<'a>(vregs: &'a [u64], uregs: &'a [u64], lanes: usize) -> Regs<'a> {
    Regs {
        lo: vregs,
        hi: &[],
        cut: vregs.len() / lanes.max(1),
        uregs,
        lanes,
    }
}

/// Split varying destination column `d` out of the register file.
fn split<'a>(
    vregs: &'a mut [u64],
    uregs: &'a [u64],
    lanes: usize,
    d: u32,
) -> (&'a mut [u64], Regs<'a>) {
    let cut = d as usize;
    let (lo, rest) = vregs.split_at_mut(cut * lanes);
    let (dcol, hi) = rest.split_at_mut(lanes);
    let regs = Regs {
        lo,
        hi,
        cut,
        uregs,
        lanes,
    };
    (dcol, regs)
}

/// `dst[l] = f(l)` for every active lane: a plain (vectorisable) loop over a
/// dense span — a full mask, a `tid < d` guard — the active-lane list
/// otherwise.
#[inline(always)]
fn fill(dst: &mut [u64], mask: &MaskBuf, f: impl Fn(usize) -> u64) {
    if mask.dense() {
        for l in mask.lo..mask.hi.min(dst.len()) {
            dst[l] = f(l);
        }
    } else {
        for &l in &mask.list {
            dst[l as usize] = f(l as usize);
        }
    }
}

/// Run `f` for every active lane in lane order, stopping at the first
/// error. One loop, over the list even when the span is dense: a second
/// copy of a memory kernel's per-lane body costs more than the indirection
/// (the body stops being inlined: +20 % on a 16-lane gather).
#[inline(always)]
fn try_active(mask: &MaskBuf, mut f: impl FnMut(usize) -> R<()>) -> R<()> {
    for &l in &mask.list {
        f(l as usize)?;
    }
    Ok(())
}

/// Bind `$x` to a closure reading operand `$src` at a lane, with the
/// operand kind resolved outside the lane loop `$body` runs.
macro_rules! operand {
    ($src:expr, $n:expr, |$x:ident| $body:expr) => {
        match $src {
            Src::U(v) => {
                let $x = move |_: usize| v;
                $body
            }
            Src::V(c) => {
                let c = &c[..$n];
                let $x = move |l: usize| c[l];
                $body
            }
        }
    };
}

/// `d = f(a)` for the block: one evaluation when the destination is uniform
/// (its operands are, too) or the block has one lane (`ONE`; `map1::<true>`
/// simply means "evaluate once"), a loop over the operand columns
/// otherwise. `f` is the op's whole meaning, stated once for both.
#[inline(always)]
fn map1<const ONE: bool>(
    st: &mut LowState,
    m: &MaskBuf,
    (d, a): (u32, u32),
    f: impl Fn(u64) -> u64,
) {
    if ONE || is_u(d) {
        let r = f(rd1(st, a));
        wr1(st, d, r);
    } else {
        cols1(st, m, (d, a), f);
    }
}

#[inline(never)]
fn cols1(st: &mut LowState, m: &MaskBuf, (d, a): (u32, u32), f: impl Fn(u64) -> u64) {
    let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    let n = dc.len();
    operand!(r.src(a), n, |a| fill(dc, m, |l| f(a(l))))
}

#[inline(always)]
fn map2<const ONE: bool>(
    st: &mut LowState,
    m: &MaskBuf,
    (d, a, b): (u32, u32, u32),
    f: impl Fn(u64, u64) -> u64,
) {
    if ONE || is_u(d) {
        let r = f(rd1(st, a), rd1(st, b));
        wr1(st, d, r);
    } else {
        cols2(st, m, (d, a, b), f);
    }
}

#[inline(never)]
fn cols2(st: &mut LowState, m: &MaskBuf, (d, a, b): (u32, u32, u32), f: impl Fn(u64, u64) -> u64) {
    let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    let n = dc.len();
    operand!(r.src(a), n, |a| operand!(r.src(b), n, |b| fill(
        dc,
        m,
        |l| f(a(l), b(l))
    )))
}

#[inline(always)]
fn map3<const ONE: bool>(
    st: &mut LowState,
    m: &MaskBuf,
    (d, a, b, c): (u32, u32, u32, u32),
    f: impl Fn(u64, u64, u64) -> u64,
) {
    if ONE || is_u(d) {
        let r = f(rd1(st, a), rd1(st, b), rd1(st, c));
        wr1(st, d, r);
    } else {
        cols3(st, m, (d, a, b, c), f);
    }
}

#[inline(never)]
fn cols3(
    st: &mut LowState,
    m: &MaskBuf,
    (d, a, b, c): (u32, u32, u32, u32),
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    let n = dc.len();
    operand!(r.src(a), n, |a| operand!(r.src(b), n, |b| operand!(
        r.src(c),
        n,
        |c| fill(dc, m, |l| f(a(l), b(l), c(l)))
    )))
}

/// `d = e(k, a, b)` where `k` is a binary operator of family `$ty`. `$e` is
/// the op's whole meaning, stated once: the scalar case evaluates it with
/// the run-time operator, the column case once per variant with `$k` a
/// constant, so the semantics call inside the lane loop folds to the one
/// operation — resolved per op, not per lane.
macro_rules! binary_family {
    ($st:expr, $mask:expr, $op:expr, $ty:ident [$($v:ident)*], $regs:expr,
     |$k:ident, $x:ident, $y:ident| $e:expr) => {
        if ONE || is_u($regs.0) {
            let $k = $op;
            map2::<true>($st, $mask, $regs, |$x, $y| $e)
        } else {
            match $op {
                $($ty::$v => {
                    #[allow(non_upper_case_globals)]
                    const $k: $ty = $ty::$v;
                    cols2($st, $mask, $regs, |$x, $y| $e)
                })*
            }
        }
    };
}

#[inline(always)]
fn fp(bits: u64) -> f64 {
    f64::from_bits(bits)
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Execute one data op — anything but accounting and control flow, which
/// the engines own — for every active lane of `mask`.
///
/// `ONE` is the caller's promise that the block has one lane and `mask` is
/// its full mask. Like a uniform destination, every op then has a single
/// value to compute, [`rd1`]/[`wr1`] address the registers, and the whole
/// dispatch inlines into the caller as one flat match — at 5-10 ns per op
/// the extra call levels of the column path are measurable (DGEMM's
/// shared-memory inner loop on the CPU models runs here).
#[inline(always)]
pub(crate) fn exec<const ONE: bool>(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    op: &LOp,
) -> R<()> {
    if op.is_compute() {
        return alu::<ONE>(st, mask, op);
    }
    match *op {
        LOp::Special { d, r } => special(m, st, mask, d, r),
        LOp::ParamF { d, s } => {
            let v = m.args.params_f.get(s as usize);
            let v = v.ok_or_else(|| serr!("f64 param slot {s} not bound"))?;
            st.wu(d, v.to_bits());
        }
        LOp::ParamI { d, s } => {
            let v = m.args.params_i.get(s as usize);
            let v = v.ok_or_else(|| serr!("i64 param slot {s} not bound"))?;
            st.wu(d, *v as u64);
        }
        LOp::LdGF { d, buf, i } => {
            let site = Site::f(m, buf)?;
            ld_global::<ONE>(m, st, mask, "ld.global.f64", d, site, i)?;
        }
        LOp::LdGI { d, buf, i } => {
            let site = Site::i(m, buf)?;
            ld_global::<ONE>(m, st, mask, "ld.global.s64", d, site, i)?;
        }
        LOp::StGF { buf, i, val } => {
            let site = Site::f(m, buf)?;
            st_global::<ONE>(m, st, mask, "st.global.f64", site, i, val)?;
        }
        LOp::StGI { buf, i, val } => {
            let site = Site::i(m, buf)?;
            st_global::<ONE>(m, st, mask, "st.global.s64", site, i, val)?;
        }
        LOp::LdSF { d, sh, i } => ld_shared::<ONE>(m, st, mask, "ld.shared.f64", d, sh, i)?,
        LOp::LdSI { d, sh, i } => ld_shared::<ONE>(m, st, mask, "ld.shared.s64", d, sh, i)?,
        LOp::StSF { sh, i, val } => st_shared::<ONE>(m, st, mask, "st.shared.f64", sh, i, val)?,
        LOp::StSI { sh, i, val } => st_shared::<ONE>(m, st, mask, "st.shared.s64", sh, i, val)?,
        LOp::Sync => {
            if !mask.full {
                return Err("bar.sync reached inside divergent control flow (the block \
                     barrier requires all threads of the block)"
                    .into());
            }
            let nw = m.n_warps as u64;
            m.stats.syncs += nw;
            m.prof_add(|c| c.syncs += nw);
        }
        LOp::AtomicF { op, d, buf, i, val } => {
            let site = Site::f(m, buf)?;
            atomic(m, st, mask, true, op, d, (buf, site), i, val)?;
        }
        LOp::AtomicI { op, d, buf, i, val } => {
            let site = Site::i(m, buf)?;
            atomic(m, st, mask, false, op, d, (buf, site), i, val)?;
        }
        _ => unreachable!("accounting and control flow belong to the engine"),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Compute, variable and local-array ops
// ---------------------------------------------------------------------------

/// One compute / variable / local-array op for the whole block — a single
/// flat match, so a one-lane block (`ONE`) pays one dispatch per op.
#[inline(always)]
pub(crate) fn alu<const ONE: bool>(st: &mut LowState, mask: &MaskBuf, op: &LOp) -> R<()> {
    match *op {
        LOp::BinF { op, d, a, b } => binary_family!(
            st,
            mask,
            op,
            FBin[Add Sub Mul Div Min Max],
            (d, a, b),
            |k, x, y| sem::fbin(k, fp(x), fp(y)).to_bits()
        ),
        // Mostly transcendental: the operator switch stays in the lane loop.
        LOp::UnF { op, d, a } => map1::<ONE>(st, mask, (d, a), |x| sem::fun(op, fp(x)).to_bits()),
        LOp::Fma { d, a, b, c } => map3::<ONE>(st, mask, (d, a, b, c), |x, y, z| {
            sem::fma(fp(x), fp(y), fp(z)).to_bits()
        }),
        LOp::BinI { op, d, a, b } => binary_family!(
            st,
            mask,
            op,
            IBin[Add Sub Mul Div Rem Min Max And Or Xor Shl Shr],
            (d, a, b),
            |k, x, y| sem::ibin(k, x as i64, y as i64) as u64
        ),
        LOp::NegI { d, a } => map1::<ONE>(st, mask, (d, a), |x| (x as i64).wrapping_neg() as u64),
        LOp::CmpF { op, d, a, b } => binary_family!(
            st,
            mask,
            op,
            Cmp[Lt Le Gt Ge Eq],
            (d, a, b),
            |k, x, y| sem::cmp_f(k, fp(x), fp(y)) as u64
        ),
        LOp::CmpI { op, d, a, b } => binary_family!(
            st,
            mask,
            op,
            Cmp[Lt Le Gt Ge Eq],
            (d, a, b),
            |k, x, y| sem::cmp_i(k, x as i64, y as i64) as u64
        ),
        LOp::BinB { op, d, a, b } => binary_family!(
            st,
            mask,
            op,
            BBin[And Or],
            (d, a, b),
            |k, x, y| sem::bbin(k, x != 0, y != 0) as u64
        ),
        LOp::NotB { d, a } => map1::<ONE>(st, mask, (d, a), |x| (x == 0) as u64),
        // `SelF`/`SelI`: selection is a bit-level copy.
        LOp::Sel { d, c, t, e } => {
            map3::<ONE>(st, mask, (d, c, t, e), |c, t, e| if c != 0 { t } else { e });
        }
        LOp::I2F { d, a } => map1::<ONE>(st, mask, (d, a), |x| sem::i2f(x as i64).to_bits()),
        LOp::F2I { d, a } => map1::<ONE>(st, mask, (d, a), |x| sem::f2i(fp(x)) as u64),
        LOp::U2UnitF { d, a } => {
            map1::<ONE>(st, mask, (d, a), |x| sem::u2unit(x as i64).to_bits());
        }
        // Variables live in their own files: uniform `uvars`, per-lane
        // `vvars` columns.
        LOp::LdVar { d, v } if is_u(v) => wr1(st, d, st.uvars[idx(v)]),
        LOp::LdVar { d, v } if ONE => wr1(st, d, st.vvars[v as usize]),
        LOp::LdVar { d, v } => {
            let (dc, _) = split(&mut st.vregs, &st.uregs, st.lanes, d);
            let var = &st.vvars[v as usize * st.lanes..][..dc.len()];
            fill(dc, mask, |l| var[l]);
        }
        LOp::StVar { v, val } if is_u(v) => st.uvars[idx(v)] = rd1(st, val),
        LOp::StVar { v, val } if ONE => st.vvars[v as usize] = rd1(st, val),
        LOp::StVar { v, val } => {
            let val = regs_of(&st.vregs, &st.uregs, st.lanes).src(val);
            let var = &mut st.vvars[v as usize * st.lanes..][..st.lanes];
            fill(var, mask, |l| val.at(l));
        }
        // Thread-private arrays: `loc_f[loc][lane * len + k]`, always per
        // lane.
        LOp::LdLF { d, loc, i, len } if ONE => {
            let k = in_bounds("ld.local.f64", rd1i(st, i), len as usize, st.tid[0])?;
            wr1(st, d, st.loc_f[loc as usize][k].to_bits());
        }
        LOp::LdLF { d, loc, i, len } => {
            let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
            let (ix, len, tid) = (r.src(i), len as usize, &st.tid);
            let arr = &st.loc_f[loc as usize];
            try_active(mask, |l| {
                let k = in_bounds("ld.local.f64", ix.at(l) as i64, len, tid[l])?;
                dc[l] = arr[l * len + k].to_bits();
                Ok(())
            })?;
        }
        LOp::StLF { loc, i, val, len } if ONE => {
            let k = in_bounds("st.local.f64", rd1i(st, i), len as usize, st.tid[0])?;
            st.loc_f[loc as usize][k] = fp(rd1(st, val));
        }
        LOp::StLF { loc, i, val, len } => {
            let r = regs_of(&st.vregs, &st.uregs, st.lanes);
            let (ix, val, len, tid) = (r.src(i), r.src(val), len as usize, &st.tid);
            let arr = &mut st.loc_f[loc as usize];
            try_active(mask, |l| {
                let k = in_bounds("st.local.f64", ix.at(l) as i64, len, tid[l])?;
                arr[l * len + k] = fp(val.at(l));
                Ok(())
            })?;
        }
        _ => unreachable!("not a compute op"),
    }
    Ok(())
}

/// `ix` as an element offset, or the out-of-bounds fault of thread `tid`.
#[inline(always)]
fn in_bounds(what: &str, ix: i64, len: usize, tid: [i64; 3]) -> R<usize> {
    if ix < 0 || ix as usize >= len {
        return Err(out_of_bounds(what, ix, len, tid));
    }
    Ok(ix as usize)
}

#[cold]
#[inline(never)]
fn out_of_bounds(what: &str, ix: i64, len: usize, tid: [i64; 3]) -> SimError {
    serr!("{what}: index {ix} out of bounds (len {len})").at_thread(tid)
}

/// A column with a run of fewer lanes than this before its last is not
/// worth cutting up (nor scanning further: the narrow 2-D blocks a
/// work-division sweep tries end here at once): the per-lane kernels take
/// the op.
const MIN_RUN: usize = 8;

/// The one place that decides, per memory op, whether its index column
/// moves as affine [`Run`]s: over a dense span, cut the column where its
/// wrapping difference changes, and range-check each run's first and last
/// element once, in `i128` (as `compile.rs::aim` does; everything between
/// them lies between them). False — not a column, holes in the span, a
/// short run, an end out of `0..len` — sends the whole op down the per-lane
/// path, which finds the lane at fault. (Not inlined: inside the four
/// kernels it costs their per-lane loops registers, 25 % on a 16-lane
/// gather.)
#[inline(never)]
fn find_runs(ix: Src<'_>, mask: &MaskBuf, len: usize, runs: &mut Vec<Run>) -> bool {
    let Src::V(col) = ix else { return false };
    if !mask.dense() {
        return false;
    }
    let col = &col[mask.lo..mask.hi];
    let in_range = 0..len as i128;
    runs.clear();
    let mut s = 0;
    while s < col.len() {
        let stride = col.get(s + 1).map_or(0, |next| next.wrapping_sub(col[s]));
        let mut e = s + 1;
        while e < col.len() && col[e].wrapping_sub(col[e - 1]) == stride {
            e += 1;
        }
        if e - s < MIN_RUN && e < col.len() {
            return false;
        }
        let (first, stride) = (col[s] as i64, stride as i64);
        let last = first as i128 + stride as i128 * (e - s - 1) as i128;
        if !(in_range.contains(&first.into()) && in_range.contains(&last)) {
            return false;
        }
        runs.push(Run {
            lane0: mask.lo + s,
            n: e - s,
            first: first as usize,
            stride,
        });
        s = e;
    }
    !runs.is_empty()
}

/// `f(lane, element)` for every lane of `runs`, in lane order.
#[inline(always)]
fn each_lane(runs: &[Run], mut f: impl FnMut(usize, usize)) {
    for run in runs {
        let mut k = run.first;
        for l in run.lane0..run.lane0 + run.n {
            f(l, k);
            k = k.wrapping_add(run.stride as usize);
        }
    }
}

/// A thread-index read fills a column; every other special register is one
/// value for the whole block.
fn special(m: &Machine<'_>, st: &mut LowState, mask: &MaskBuf, d: u32, r: SpecialReg) {
    let v = match r {
        SpecialReg::GridBlockExtent(a) => m.grid[a as usize],
        SpecialReg::BlockThreadExtent(a) => m.block[a as usize],
        SpecialReg::ThreadElemExtent(a) => m.elems[a as usize],
        SpecialReg::BlockIdx(a) => st.bidx[a as usize],
        // ThreadIdx is seeded varying by the analysis.
        SpecialReg::ThreadIdx(a) if is_u(d) => st.tid[0][a as usize],
        SpecialReg::ThreadIdx(a) => {
            let (dc, _) = split(&mut st.vregs, &st.uregs, st.lanes, d);
            let tid = &st.tid[..dc.len()];
            return fill(dc, mask, |l| tid[l][a as usize] as u64);
        }
    };
    if is_u(d) {
        st.wu(d, v as u64);
    } else {
        broadcast(st, mask, d, v as u64);
    }
}

/// Write `bits` to varying register `d` in every active lane.
pub(crate) fn broadcast(st: &mut LowState, mask: &MaskBuf, d: u32, bits: u64) {
    let (dc, _) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    fill(dc, mask, |_| bits);
}

// Single-lane register file accessors: with `lanes == 1` the per-lane
// stride vanishes, so a slot resolves to one flat index in either file.
#[inline(always)]
pub(crate) fn rd1(st: &LowState, s: u32) -> u64 {
    if is_u(s) {
        st.uregs[idx(s)]
    } else {
        st.vregs[s as usize]
    }
}

#[inline(always)]
pub(crate) fn rd1f(st: &LowState, s: u32) -> f64 {
    f64::from_bits(rd1(st, s))
}

#[inline(always)]
pub(crate) fn rd1i(st: &LowState, s: u32) -> i64 {
    rd1(st, s) as i64
}

#[inline(always)]
pub(crate) fn wr1(st: &mut LowState, d: u32, bits: u64) {
    if is_u(d) {
        st.uregs[idx(d)] = bits;
    } else {
        st.vregs[d as usize] = bits;
    }
}

// ---------------------------------------------------------------------------
// Global memory
// ---------------------------------------------------------------------------

/// A global buffer resolved against the launch's memory: element cells,
/// element count and virtual base byte address. Valid for the whole launch —
/// device buffers never move or resize while a kernel runs. Elements are
/// accessed as relaxed atomics — exactly the cells `SharedMem` uses — so the
/// parallel path stays data-race-free and the exclusive path pays nothing
/// (a relaxed 8-byte access is a plain move on x86-64).
#[derive(Clone, Copy)]
pub(crate) struct Site {
    ptr: *mut u64,
    pub(crate) len: usize,
    pub(crate) base: u64,
}

impl Site {
    /// Resolve f64 buffer argument `slot`.
    #[inline]
    pub(crate) fn f(m: &mut Machine<'_>, slot: u32) -> R<Site> {
        let b = m.buf_f(slot)?;
        let base = m.mem.addr_f(b, 0);
        let (ptr, len) = match &mut m.mem {
            MemAccess::Excl(d) => {
                let v = d.f_mut(b);
                (v.as_mut_ptr().cast::<u64>(), v.len())
            }
            MemAccess::Shared(v) => {
                let (p, len) = v.raw_f(b);
                (p.cast::<u64>(), len)
            }
        };
        Ok(Site { ptr, len, base })
    }

    /// Resolve i64 buffer argument `slot`.
    #[inline]
    pub(crate) fn i(m: &mut Machine<'_>, slot: u32) -> R<Site> {
        let b = m.buf_i(slot)?;
        let base = m.mem.addr_i(b, 0);
        let (ptr, len) = match &mut m.mem {
            MemAccess::Excl(d) => {
                let v = d.i_mut(b);
                (v.as_mut_ptr().cast::<u64>(), v.len())
            }
            MemAccess::Shared(v) => {
                let (p, len) = v.raw_i(b);
                (p.cast::<u64>(), len)
            }
        };
        Ok(Site { ptr, len, base })
    }

    /// Element `ix`'s cell and byte address, or thread `tid`'s
    /// out-of-bounds fault.
    #[inline(always)]
    pub(crate) fn cell(&self, what: &str, ix: i64, tid: [i64; 3]) -> R<(&AtomicU64, u64)> {
        let k = in_bounds(what, ix, self.len, tid)?;
        // SAFETY: `k < self.len` was just checked.
        Ok((unsafe { self.cell_unchecked(k) }, self.base + k as u64 * 8))
    }

    /// Element `k`'s cell without the bounds check (the compiled tier's
    /// affine loops check a whole index range once).
    ///
    /// # Safety
    /// `k < self.len`.
    #[inline(always)]
    pub(crate) unsafe fn cell_unchecked(&self, k: usize) -> &AtomicU64 {
        debug_assert!(k < self.len);
        // SAFETY: in-bounds element (caller's contract) of a live, 8-aligned
        // device allocation that outlives the launch; concurrent workers
        // use the same relaxed cells.
        unsafe { AtomicU64::from_ptr(self.ptr.add(k)) }
    }
}

/// Count `mask`'s lanes as global loads or stores.
#[inline(always)]
fn count_global(m: &mut Machine<'_>, mask: &MaskBuf, store: bool) {
    if store {
        m.stats.global_stores += mask.active;
        m.prof_add(|c| c.global_stores += mask.active);
    } else {
        m.stats.global_loads += mask.active;
        m.prof_add(|c| c.global_loads += mask.active);
    }
}

/// A vectorization probe (CPU models only) is logging global addresses.
#[inline(always)]
fn probing(m: &Machine<'_>) -> bool {
    m.region.as_ref().is_some_and(RegionAcc::probing)
}

/// `d = site[i]` (`what` names the access in faults: `ld.global.f64`/`.s64`;
/// cells are raw bits, so both element types share the kernel).
#[inline(always)]
fn ld_global<const ONE: bool>(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    d: u32,
    site: Site,
    i: u32,
) -> R<()> {
    if !(ONE || is_u(d)) {
        return ld_global_lanes(m, st, mask, what, d, site, i);
    }
    // One cell for the whole block; a fault belongs to the first lane the
    // per-lane order would reach.
    let tid = st.tid[mask.lo];
    let (cell, a) = site.cell(what, rd1i(st, i), tid)?;
    m.ecc_check(a, what, tid)?;
    wr1(st, d, cell.load(Relaxed));
    count_global(m, mask, false);
    m.access_uniform(a, mask.active, mask.warp_issues);
    Ok(())
}

fn ld_global_lanes(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    d: u32,
    site: Site,
    i: u32,
) -> R<()> {
    let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    let (ix, tid, addrs, runs) = (r.src(i), &st.tid, &mut st.addrs, &mut st.runs);
    // An armed ECC plan decides per address, a probing region logs per lane.
    if m.ecc.is_none() && !probing(m) && find_runs(ix, mask, site.len, runs) {
        each_lane(runs, |l, k| {
            // SAFETY: `find_runs` checked both ends of every run against
            // `site.len`, and `each_lane` walks between them.
            dc[l] = unsafe { site.cell_unchecked(k) }.load(Relaxed);
        });
        m.mem_access_runs(runs, site.base);
    } else {
        addrs.clear();
        try_active(mask, |l| {
            let (cell, a) = site.cell(what, ix.at(l) as i64, tid[l])?;
            m.ecc_check(a, what, tid[l])?;
            dc[l] = cell.load(Relaxed);
            addrs.push((l, a));
            Ok(())
        })?;
        flush_addrs(m, addrs);
    }
    count_global(m, mask, false);
    Ok(())
}

/// `site[i] = val` in lane order (the last active lane wins a collision).
#[inline(always)]
fn st_global<const ONE: bool>(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    site: Site,
    i: u32,
    val: u32,
) -> R<()> {
    if !(ONE || is_u(i)) {
        return st_global_lanes(m, st, mask, what, site, i, val);
    }
    let (cell, a) = site.cell(what, rd1i(st, i), st.tid[mask.lo])?;
    if ONE || is_u(val) {
        cell.store(rd1(st, val), Relaxed);
    } else {
        let val = regs_of(&st.vregs, &st.uregs, st.lanes).src(val);
        let _ = try_active(mask, |l| {
            cell.store(val.at(l), Relaxed);
            Ok(())
        });
    }
    count_global(m, mask, true);
    m.access_uniform(a, mask.active, mask.warp_issues);
    Ok(())
}

fn st_global_lanes(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    site: Site,
    i: u32,
    val: u32,
) -> R<()> {
    let r = regs_of(&st.vregs, &st.uregs, st.lanes);
    let (ix, val, tid) = (r.src(i), r.src(val), &st.tid);
    let (addrs, runs) = (&mut st.addrs, &mut st.runs);
    if !probing(m) && find_runs(ix, mask, site.len, runs) {
        each_lane(runs, |l, k| {
            // SAFETY: as in `ld_global_lanes`.
            unsafe { site.cell_unchecked(k) }.store(val.at(l), Relaxed);
        });
        m.mem_access_runs(runs, site.base);
    } else {
        addrs.clear();
        try_active(mask, |l| {
            let (cell, a) = site.cell(what, ix.at(l) as i64, tid[l])?;
            cell.store(val.at(l), Relaxed);
            addrs.push((l, a));
            Ok(())
        })?;
        flush_addrs(m, addrs);
    }
    count_global(m, mask, true);
    Ok(())
}

/// One lane's f64 atomic: defer to the launch's privatization plan (which
/// guarantees the old value is dead, so 0 is read back) or apply in place.
/// Plan-less launches run serially, so the relaxed read-modify-write is
/// race-free. Returns the destination register's bits.
#[inline(always)]
pub(crate) fn rmw_f(
    atomics: &mut Option<AtomicsPriv>,
    (slot, op, block): (u32, AtomicOp, u64),
    cell: &AtomicU64,
    k: usize,
    v: f64,
) -> u64 {
    if let Some(ap) = atomics.as_mut() {
        if let Some(t) = ap.target_f(slot) {
            ap.defer_f(t, op, block, k, v);
            return 0;
        }
    }
    let old = f64::from_bits(cell.load(Relaxed));
    cell.store(sem::atomic_f(op, old, v).to_bits(), Relaxed);
    old.to_bits()
}

/// The i64 counterpart of [`rmw_f`].
#[inline(always)]
pub(crate) fn rmw_i(
    atomics: &mut Option<AtomicsPriv>,
    (slot, op, block): (u32, AtomicOp, u64),
    cell: &AtomicU64,
    k: usize,
    v: i64,
) -> u64 {
    if let Some(ap) = atomics.as_mut() {
        if let Some(t) = ap.target_i(slot) {
            ap.defer_i(t, op, block, k, v);
            return 0;
        }
    }
    let old = cell.load(Relaxed) as i64;
    cell.store(sem::atomic_i(op, old, v) as u64, Relaxed);
    old as u64
}

/// `d = atomic(op, site[i], val)` in lane order. Atomic units are modeled
/// apart from the load/store path: no cache, probe log or ECC state.
#[allow(clippy::too_many_arguments)]
fn atomic(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    float: bool,
    op: AtomicOp,
    d: u32,
    (slot, site): (u32, Site),
    i: u32,
    val: u32,
) -> R<()> {
    m.stats.atomics += mask.active;
    m.prof_add(|c| c.atomics += mask.active);
    let what = if float {
        "atom.global.f64"
    } else {
        "atom.global.s64"
    };
    let key = (slot, op, m.cur_block_lin as u64);
    let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    let (ix, val, tid) = (r.src(i), r.src(val), &st.tid);
    try_active(mask, |l| {
        let (cell, _) = site.cell(what, ix.at(l) as i64, tid[l])?;
        let k = ix.at(l) as usize;
        dc[l] = if float {
            rmw_f(&mut m.atomics, key, cell, k, fp(val.at(l)))
        } else {
            rmw_i(&mut m.atomics, key, cell, k, val.at(l) as i64)
        };
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------------

/// Count `n` shared accesses that cannot conflict (one cell, one bank).
#[inline(always)]
fn count_shared(m: &mut Machine<'_>, n: u64) {
    m.stats.shared_accesses += n;
    m.prof_add(|c| c.shared_accesses += n);
}

/// The one-lane shared kernels — bounds check and move, for the thread at
/// `lane` — without the access count: the engine's ops add `mask.active`,
/// the compiled tier's step lists count their own.
#[inline(always)]
fn ld_shared1(st: &mut LowState, what: &str, (d, sh, i): (u32, u32, u32), lane: usize) -> R<()> {
    let arr = &st.shared[sh as usize];
    let k = in_bounds(what, rd1i(st, i), arr.len(), st.tid[lane])?;
    let bits = arr[k];
    wr1(st, d, bits);
    Ok(())
}

#[inline(always)]
fn st_shared1(st: &mut LowState, what: &str, (sh, i, val): (u32, u32, u32), lane: usize) -> R<()> {
    let len = st.shared[sh as usize].len();
    let k = in_bounds(what, rd1i(st, i), len, st.tid[lane])?;
    st.shared[sh as usize][k] = rd1(st, val);
    Ok(())
}

/// One shared-memory op of a one-lane block, uncounted.
#[inline(always)]
pub(crate) fn shared1(st: &mut LowState, op: &LOp) -> R<()> {
    match *op {
        LOp::LdSF { d, sh, i } => ld_shared1(st, "ld.shared.f64", (d, sh, i), 0),
        LOp::LdSI { d, sh, i } => ld_shared1(st, "ld.shared.s64", (d, sh, i), 0),
        LOp::StSF { sh, i, val } => st_shared1(st, "st.shared.f64", (sh, i, val), 0),
        LOp::StSI { sh, i, val } => st_shared1(st, "st.shared.s64", (sh, i, val), 0),
        _ => unreachable!("not a shared-memory op"),
    }
}

/// `d = shared[sh][i]`; arrays hold raw bits, so f64 and i64 share this.
#[inline(always)]
fn ld_shared<const ONE: bool>(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    d: u32,
    sh: u32,
    i: u32,
) -> R<()> {
    if !(ONE || is_u(d)) {
        return ld_shared_lanes(m, st, mask, what, d, sh, i);
    }
    ld_shared1(st, what, (d, sh, i), mask.lo)?;
    // One cell, one bank: accesses counted, no conflicts.
    count_shared(m, mask.active);
    Ok(())
}

fn ld_shared_lanes(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    d: u32,
    sh: u32,
    i: u32,
) -> R<()> {
    let arr = &st.shared[sh as usize];
    let (dc, r) = split(&mut st.vregs, &st.uregs, st.lanes, d);
    let (ix, tid, elems, runs) = (r.src(i), &st.tid, &mut st.elems, &mut st.runs);
    if find_runs(ix, mask, arr.len(), runs) {
        each_lane(runs, |l, k| dc[l] = arr[k]);
        m.shared_access_runs(runs, elems);
    } else {
        elems.clear();
        try_active(mask, |l| {
            let k = in_bounds(what, ix.at(l) as i64, arr.len(), tid[l])?;
            dc[l] = arr[k];
            elems.push((l, k as i64));
            Ok(())
        })?;
        flush_elems(m, elems);
    }
    Ok(())
}

/// `shared[sh][i] = val` in lane order.
#[inline(always)]
fn st_shared<const ONE: bool>(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    sh: u32,
    i: u32,
    val: u32,
) -> R<()> {
    if !(ONE || is_u(i)) {
        return st_shared_lanes(m, st, mask, what, sh, i, val);
    }
    if ONE || is_u(val) {
        st_shared1(st, what, (sh, i, val), mask.lo)?;
    } else {
        let len = st.shared[sh as usize].len();
        let k = in_bounds(what, rd1i(st, i), len, st.tid[mask.lo])?;
        let val = regs_of(&st.vregs, &st.uregs, st.lanes).src(val);
        let cell = &mut st.shared[sh as usize][k];
        let _ = try_active(mask, |l| {
            *cell = val.at(l);
            Ok(())
        });
    }
    count_shared(m, mask.active);
    Ok(())
}

fn st_shared_lanes(
    m: &mut Machine<'_>,
    st: &mut LowState,
    mask: &MaskBuf,
    what: &str,
    sh: u32,
    i: u32,
    val: u32,
) -> R<()> {
    let r = regs_of(&st.vregs, &st.uregs, st.lanes);
    let (ix, val, tid) = (r.src(i), r.src(val), &st.tid);
    let (elems, runs) = (&mut st.elems, &mut st.runs);
    let arr = &mut st.shared[sh as usize];
    if find_runs(ix, mask, arr.len(), runs) {
        each_lane(runs, |l, k| arr[k] = val.at(l));
        m.shared_access_runs(runs, elems);
    } else {
        elems.clear();
        try_active(mask, |l| {
            let k = in_bounds(what, ix.at(l) as i64, arr.len(), tid[l])?;
            arr[k] = val.at(l);
            elems.push((l, k as i64));
            Ok(())
        })?;
        flush_elems(m, elems);
    }
    Ok(())
}
