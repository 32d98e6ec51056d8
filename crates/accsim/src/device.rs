//! Simulated-device back-end: devices, buffers and kernel compilation.
//!
//! This plays the role of Alpaka's CUDA back-end: the host allocates
//! device-resident buffers, copies data across explicitly (with a modeled
//! transfer cost), *compiles* kernels (here: traces the single-source DSL
//! into `alpaka-kir` and runs the optimizer — the `nvcc` analogue) and
//! launches them on the SIMT interpreter of `alpaka-sim`.
//!
//! **Compile once, launch many** (the paper's Listing 5). [`SimDevice::run`]
//! is the one way to launch (under every queue, pool shard and
//! `time_launch`): it traces the kernel (0.5-3 us), hashes the *traced*
//! program (<= 2.4 us) and finds the kernel compiled the first time in a
//! per-device memo. A memo entry carries everything that is a function of
//! its program alone, so the launch looks nothing up, takes no process-wide
//! lock and copies no program. The traced program is the key because it is
//! the exact thing `optimize` is a pure function of: kernels need no
//! cache-key method or `Hash` bound, and two kernel types sharing a name
//! cannot alias. The launch's block and element extents are part of the key
//! too, so an entry only ever runs at the extents it was specialised for.

use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

use alpaka_core::acc::AccCaps;
use alpaka_core::buffer::{BufLayout, HostBuf};
use alpaka_core::error::{Error, Result};
use alpaka_core::kernel::{Kernel, ScalarArgs};
use alpaka_core::obs::Obs;
use alpaka_core::workdiv::WorkDiv;
use alpaka_kir::{optimize, trace_kernel_spec, Program, SpecConsts};
use alpaka_sim::{
    resolve_sim_threads, transfer_time, CacheCounters, DeviceMem, DeviceSpec, Engine, ExecMode,
    FaultPlan, LaunchFaults, Prepared, SimArgs, SimBufF, SimBufI, SimError, SimErrorKind,
    SimReport,
};
use parking_lot::Mutex;

/// Compiled kernels a device remembers, least recently used out first: 32
/// like `alpaka-sim`'s program cache (sweep-sized costs +78 % peak RSS).
const MEMO_CAP: usize = 32;

/// What `run()` compiled before. An entry is its key — a fingerprint to find
/// it by; the traced program and its specialisation, to be sure — and the
/// kernel; the most recently used entry is last.
#[derive(Default)]
struct Memo {
    entries: Vec<(u64, SpecConsts, Program, Arc<CompiledKernel>)>,
    counters: CacheCounters,
}

struct State {
    mem: DeviceMem,
    /// Accumulated simulated time in seconds (kernels + transfers).
    clock_s: f64,
    /// Active fault-injection plan, if any.
    faults: Option<FaultPlan>,
    /// Monotonic kernel-launch ordinal; keys injected launch-scoped faults
    /// so campaigns replay identically regardless of interpreter threads.
    launches: u64,
    /// Monotonic fault-aware allocation ordinal (`try_alloc_*` only).
    allocs: u64,
    /// Set once an injected device loss fires: the device is poisoned and
    /// every subsequent operation fails with `Error::DeviceLost`.
    lost: bool,
    /// Armed by the health layer once a quarantined device has passed its
    /// recovery cooldown: the next `Queue::reset` (or `revive`) may then
    /// clear the sticky `lost` flag.
    recover_armed: bool,
}

/// `wd`'s block and element extents as trace-time constants.
fn specialised(wd: &WorkDiv) -> SpecConsts {
    SpecConsts {
        block_thread_extent: Some(wd.threads),
        thread_elem_extent: Some(wd.elems),
    }
}

/// Map an interpreter-level [`SimError`] to the structured facade error,
/// preserving the fault kind and block/thread coordinates.
fn to_core_error(kernel: &str, e: SimError) -> Error {
    let info = alpaka_core::error::FaultInfo {
        msg: format!("{kernel}: {}", e.msg),
        block: e.block,
        thread: e.thread,
        transient: matches!(e.kind, SimErrorKind::Fault { transient: true }),
    };
    match e.kind {
        SimErrorKind::Timeout => Error::Timeout(info),
        SimErrorKind::DeviceLost => Error::DeviceLost(info.msg),
        SimErrorKind::BadBuffer => Error::BadBuffer(info.msg),
        SimErrorKind::Fault { .. } => Error::KernelFault(info),
    }
}

/// A simulated device (one entry of Table 3, or a custom spec).
#[derive(Clone)]
pub struct SimDevice {
    spec: Arc<DeviceSpec>,
    state: Arc<Mutex<State>>,
    /// Configured interpreter threads; the `ALPAKA_SIM_THREADS` environment
    /// variable still overrides this at each launch.
    threads: usize,
    /// Interpreter engine used for launches from this handle.
    engine: Engine,
    /// Shared by all clones of this handle.
    memo: Arc<Mutex<Memo>>,
    /// Where this device's launches are observed: the [`Obs::current`] of
    /// its construction. Its trace switch decides whether a launch is traced.
    obs: Obs,
}

impl SimDevice {
    /// A device interpreting blocks on one host thread (the exact serial
    /// interpreter, unless `ALPAKA_SIM_THREADS` overrides it).
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_threads(spec, 1)
    }

    /// A device whose launches interpret blocks on `threads` host workers
    /// (`ALPAKA_SIM_THREADS` still overrides). `threads == 1` is the exact
    /// serial interpreter.
    pub fn with_threads(spec: DeviceSpec, threads: usize) -> Self {
        SimDevice {
            spec: Arc::new(spec),
            state: Arc::new(Mutex::new(State {
                mem: DeviceMem::new(),
                clock_s: 0.0,
                faults: FaultPlan::from_env(),
                launches: 0,
                allocs: 0,
                lost: false,
                recover_armed: false,
            })),
            threads: threads.max(1),
            engine: Engine::Compiled,
            memo: Arc::default(),
            obs: Obs::current(),
        }
    }

    /// The [`Obs`] this device's launches are observed by.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Select the interpreter engine for launches from this handle
    /// (builder form). The default is `Engine::Compiled`;
    /// `Engine::Reference` is the tree-walking oracle, bit-identical in
    /// results and statistics.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Number of kernel launches attempted on this device so far (shared
    /// across clones; used as the launch ordinal in traces and fault plans).
    pub fn launch_count(&self) -> u64 {
        self.state.lock().launches
    }

    /// Attach a fault-injection plan (builder form). Replaces any plan
    /// picked up from `ALPAKA_SIM_FAULTS`.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.set_faults(Some(plan));
        self
    }

    /// Install or clear the fault-injection plan on the shared device state
    /// (affects every clone of this device handle).
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        self.state.lock().faults = plan;
    }

    /// The active fault plan, if any.
    pub fn faults(&self) -> Option<FaultPlan> {
        self.state.lock().faults.clone()
    }

    /// True once an injected device loss has poisoned this device.
    pub fn is_lost(&self) -> bool {
        self.state.lock().lost
    }

    /// Clear the lost flag: models a device reset / re-enumeration after a
    /// quarantine cooldown (the pool's Quarantined → Recovered edge).
    /// Memory, clock and ordinals are preserved — in particular the launch
    /// ordinal that triggered the injected loss has already been consumed,
    /// so the same `lost_at_launch` plan does not immediately re-fire.
    pub fn revive(&self) {
        let mut st = self.state.lock();
        st.lost = false;
        st.recover_armed = false;
    }

    /// Arm device-level recovery: records that the health layer considers
    /// this (quarantined) device recovered, so a subsequent `Queue::reset`
    /// may clear the sticky `lost` flag via
    /// [`SimDevice::clear_lost_if_recovered`].
    pub fn mark_recovered(&self) {
        self.state.lock().recover_armed = true;
    }

    /// Clear the sticky `lost` flag if — and only if — the health layer
    /// armed recovery for this device. Returns true when the device came
    /// back. A fresh device loss always re-disarms, so a stale arming can
    /// never mask a *new* loss.
    pub fn clear_lost_if_recovered(&self) -> bool {
        let mut st = self.state.lock();
        if st.lost && st.recover_armed {
            st.lost = false;
            st.recover_armed = false;
            true
        } else {
            false
        }
    }

    /// Charge `s` simulated seconds to the device clock (used by the retry
    /// layer to account backoff delays in simulated time).
    pub fn advance_clock(&self, s: f64) {
        self.state.lock().clock_s += s.max(0.0);
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Capability descriptor in the shared vocabulary.
    pub fn caps(&self) -> AccCaps {
        AccCaps {
            name: format!("AccSim({})", self.spec.name),
            kind: self.spec.kind,
            max_threads_per_block: self.spec.max_threads_per_block,
            requires_single_thread_blocks: self.spec.max_threads_per_block == 1,
            warp_width: self.spec.warp_width,
            shared_mem_per_block: self.spec.shared_mem_per_block,
            concurrent_blocks: self.spec.sms,
            supports_async_queues: true,
        }
    }

    /// Simulated seconds elapsed on this device so far.
    pub fn clock_s(&self) -> f64 {
        self.state.lock().clock_s
    }

    /// Reset the simulated clock (between experiments).
    pub fn reset_clock(&self) {
        self.state.lock().clock_s = 0.0;
    }

    /// Allocate a zeroed f64 device buffer (infallible fast path; not
    /// subject to fault injection — see [`SimDevice::try_alloc_f64`]).
    pub fn alloc_f64(&self, layout: BufLayout) -> SimBufferF {
        let id = self.state.lock().mem.alloc_f(layout.alloc_len());
        SimBufferF::new(self, id, layout)
    }

    /// Allocate a zeroed i64 device buffer (infallible fast path; not
    /// subject to fault injection — see [`SimDevice::try_alloc_i64`]).
    pub fn alloc_i64(&self, layout: BufLayout) -> SimBufferI {
        let id = self.state.lock().mem.alloc_i(layout.alloc_len());
        SimBufferI::new(self, id, layout)
    }

    /// Bytes held by this device's live buffers (shared across clones).
    pub fn allocated_bytes(&self) -> usize {
        self.state.lock().mem.allocated_bytes()
    }

    /// Consume one allocation ordinal against the fault plan. Fails when
    /// the device is lost or the plan injects an OOM at this ordinal.
    fn check_alloc(st: &mut State) -> Result<()> {
        if st.lost {
            return Err(Error::DeviceLost(
                "allocation on a lost device (injected)".into(),
            ));
        }
        let ordinal = st.allocs;
        st.allocs += 1;
        if st.faults.as_ref().is_some_and(|p| p.oom_hits(ordinal)) {
            return Err(Error::Device(format!(
                "simulated device out of memory (injected OOM at allocation ordinal {ordinal})"
            )));
        }
        Ok(())
    }

    /// Fault-aware f64 allocation: consumes one allocation ordinal against
    /// the active [`FaultPlan`] and fails with `Error::Device` on an
    /// injected OOM, or `Error::DeviceLost` on a poisoned device.
    pub fn try_alloc_f64(&self, layout: BufLayout) -> Result<SimBufferF> {
        let mut st = self.state.lock();
        Self::check_alloc(&mut st)?;
        let id = st.mem.alloc_f(layout.alloc_len());
        drop(st);
        Ok(SimBufferF::new(self, id, layout))
    }

    /// Fault-aware i64 allocation; see [`SimDevice::try_alloc_f64`].
    pub fn try_alloc_i64(&self, layout: BufLayout) -> Result<SimBufferI> {
        let mut st = self.state.lock();
        Self::check_alloc(&mut st)?;
        let id = st.mem.alloc_i(layout.alloc_len());
        drop(st);
        Ok(SimBufferI::new(self, id, layout))
    }

    pub(crate) fn same_device(&self, other: &SimDevice) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// Execute a compiled kernel (specialised for `wd`'s extents). Advances
    /// the simulated clock by the modeled execution time and returns the
    /// full report.
    fn launch(
        &self,
        compiled: &CompiledKernel,
        wd: &WorkDiv,
        args: &SimLaunchArgs,
        mode: ExecMode,
    ) -> Result<SimReport> {
        wd.validate(&self.caps())?;
        for b in &args.bufs_f {
            if !self.same_device(b.device()) {
                return Err(Error::BadArg("f64 buffer bound from another device".into()));
            }
        }
        for b in &args.bufs_i {
            if !self.same_device(b.device()) {
                return Err(Error::BadArg("i64 buffer bound from another device".into()));
            }
        }
        let sim_args = SimArgs {
            bufs_f: args.bufs_f.iter().map(|b| b.0.id).collect(),
            bufs_i: args.bufs_i.iter().map(|b| b.0.id).collect(),
            params_f: args.scalars.f.clone(),
            params_i: args.scalars.i.clone(),
        };
        let mut st = self.state.lock();
        if st.lost {
            return Err(Error::DeviceLost(format!(
                "{}: launch on a lost device (injected)",
                compiled.program.name
            )));
        }
        let ordinal = st.launches;
        st.launches += 1;
        let faults = match &st.faults {
            Some(plan) => {
                if plan.lost_hits(ordinal) {
                    st.lost = true;
                    st.recover_armed = false;
                    return Err(Error::DeviceLost(format!(
                        "{}: device lost (injected at launch ordinal {ordinal})",
                        compiled.program.name
                    )));
                }
                Some(LaunchFaults {
                    ecc: plan.ecc_ctx(ordinal),
                    watchdog_fuel: plan.watchdog_fuel,
                })
            }
            None => None,
        };
        let report = compiled
            .prepared
            .launch(
                &self.spec,
                &mut st.mem,
                &compiled.program,
                wd,
                &sim_args,
                mode,
                resolve_sim_threads(self.threads),
                self.engine,
                faults,
                self.obs.trace_enabled(),
            )
            .map_err(|e| to_core_error(&compiled.program.name, e))?;
        st.clock_s += report.time.total_s;
        Ok(report)
    }

    /// Compile (specialised for `wd`'s extents) and launch in one step. The
    /// kernel is traced every time; the rest is done once per distinct
    /// traced program while the device's memo remembers it (a hit is the
    /// fingerprint, then exact comparison — never the hash alone).
    pub fn run<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        wd: &WorkDiv,
        args: &SimLaunchArgs,
        mode: ExecMode,
    ) -> Result<SimReport> {
        let spec_consts = specialised(wd);
        let traced = trace_kernel_spec(kernel, wd.dim, spec_consts);
        let fingerprint = BuildHasherDefault::<DefaultHasher>::default()
            .hash_one((&traced, wd.threads, wd.elems));
        let compiled = self.memoized(fingerprint, traced, spec_consts);
        self.launch(&compiled, wd, args, mode)
    }

    /// The compiled form of `traced` from the memo, compiled on a miss.
    fn memoized(
        &self,
        fingerprint: u64,
        traced: Program,
        spec_consts: SpecConsts,
    ) -> Arc<CompiledKernel> {
        let mut memo = self.memo.lock();
        let found = memo
            .entries
            .iter()
            .position(|(f, s, t, _)| *f == fingerprint && *s == spec_consts && *t == traced);
        if let Some(at) = found {
            let entry = memo.entries.remove(at);
            let kernel = Arc::clone(&entry.3);
            memo.entries.push(entry);
            memo.counters.hits += 1;
            return kernel;
        }
        memo.counters.misses += 1;
        let kernel = Arc::new(CompiledKernel::new(traced.clone()));
        if memo.entries.len() >= MEMO_CAP {
            memo.entries.remove(0);
        }
        memo.entries
            .push((fingerprint, spec_consts, traced, Arc::clone(&kernel)));
        kernel
    }

    /// Hits and misses of this device's memo of compiled kernels so far
    /// (shared by all clones of the handle): one lookup per [`run`](Self::run).
    pub fn memo_counters(&self) -> CacheCounters {
        self.memo.lock().counters
    }
}

impl core::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SimDevice({})", self.spec.name)
    }
}

/// A kernel traced and optimized for a device (the "compiled PTX"), with
/// everything a launch derives from the program alone.
struct CompiledKernel {
    program: Program,
    prepared: Prepared,
}

impl CompiledKernel {
    fn new(mut program: Program) -> Self {
        optimize(&mut program);
        let prepared = Prepared::new(&program);
        CompiledKernel { program, prepared }
    }
}

/// Copy the `ext` region from `src` (rows `src_pitch` apart) into `dst`
/// (rows `dst_pitch` apart); returns the bytes moved.
fn copy_rows<T: Copy>(
    dst: &mut [T],
    dst_pitch: usize,
    src: &[T],
    src_pitch: usize,
    ext: [usize; 3],
) -> usize {
    for r in 0..ext[0] * ext[1] {
        dst[r * dst_pitch..][..ext[2]].copy_from_slice(&src[r * src_pitch..][..ext[2]]);
    }
    ext[0] * ext[1] * ext[2] * 8
}

fn check_region(src: &BufLayout, dst: &BufLayout) -> Result<()> {
    if src.same_region(dst) {
        return Ok(());
    }
    Err(Error::BadCopy(format!(
        "extent mismatch: src {:?} vs dst {:?}",
        src.extents, dst.extents
    )))
}

macro_rules! impl_sim_buffer {
    ($buf:ident, $slot:ident, $id:ty, $elem:ty, $free:ident, $get:ident, $get_mut:ident) => {
        #[doc = concat!("Device-resident ", stringify!($elem), " buffer handle.")]
        ///
        /// The handle owns its device slot. Clones are shallow and share it
        /// (queues, pools and launch arguments hold clones, so a buffer bound
        /// into pending work outlives the caller's handle), and the last
        /// clone to drop frees the slot's storage. The slot id may then be
        /// reissued; its virtual addresses never are (`alpaka_sim::memory`).
        #[derive(Clone)]
        pub struct $buf(Arc<$slot>);

        struct $slot {
            dev: SimDevice,
            id: $id,
            layout: BufLayout,
        }

        impl Drop for $slot {
            fn drop(&mut self) {
                // Only the owner frees its slot, so this cannot fail (and a
                // `Drop` must not panic).
                let _ = self.dev.state.lock().mem.$free(self.id);
            }
        }

        impl $buf {
            fn new(dev: &SimDevice, id: $id, layout: BufLayout) -> Self {
                $buf(Arc::new($slot {
                    dev: dev.clone(),
                    id,
                    layout,
                }))
            }

            pub fn layout(&self) -> BufLayout {
                self.0.layout
            }

            pub fn device(&self) -> &SimDevice {
                &self.0.dev
            }

            /// Write `src` (this buffer's region, rows `pitch` apart) into
            /// device memory, charged as one host -> device transfer.
            fn write_rows(&self, src: &[$elem], pitch: usize) {
                let (dev, l) = (&self.0.dev, self.0.layout);
                let mut st = dev.state.lock();
                let bytes = copy_rows(st.mem.$get_mut(self.0.id), l.pitch, src, pitch, l.extents);
                st.clock_s += transfer_time(&dev.spec, bytes);
            }

            /// The logical contents as a dense vector, charged as one
            /// device -> host transfer when `charged`. The vector is filled
            /// by appending rows, not zeroed first: freed buffers make the
            /// allocator reuse memory that a zeroed vector would clear again.
            fn dense(&self, charged: bool) -> Vec<$elem> {
                let (dev, l) = (&self.0.dev, self.0.layout);
                let mut st = dev.state.lock();
                let src = st.mem.$get(self.0.id);
                let mut out = Vec::with_capacity(l.dense_len());
                for r in 0..l.extents[0] * l.extents[1] {
                    out.extend_from_slice(&src[r * l.pitch..][..l.extents[2]]);
                }
                if charged {
                    st.clock_s += transfer_time(&dev.spec, out.len() * 8);
                }
                out
            }

            /// Copy host -> device (deep copy with modeled transfer cost).
            pub fn write_from(&self, src: &HostBuf<$elem>) -> Result<()> {
                check_region(&src.layout(), &self.0.layout)?;
                self.write_rows(src.as_slice(), src.layout().pitch);
                Ok(())
            }

            /// Overwrite the logical contents from a dense row-major slice:
            /// the same transfer as [`Self::write_from`], without a host
            /// staging buffer.
            pub fn write_dense(&self, dense: &[$elem]) -> Result<()> {
                let l = self.0.layout;
                if dense.len() != l.dense_len() {
                    return Err(Error::BadBuffer(format!(
                        "dense data has {} elements, expected {}",
                        dense.len(),
                        l.dense_len()
                    )));
                }
                self.write_rows(dense, l.extents[2]);
                Ok(())
            }

            /// Copy device -> host.
            pub fn read_into(&self, dst: &HostBuf<$elem>) -> Result<()> {
                let (dev, l) = (&self.0.dev, self.0.layout);
                check_region(&l, &dst.layout())?;
                let (d, pitch) = (dst.as_mut_slice(), dst.layout().pitch);
                let mut st = dev.state.lock();
                let bytes = copy_rows(d, pitch, st.mem.$get(self.0.id), l.pitch, l.extents);
                st.clock_s += transfer_time(&dev.spec, bytes);
                Ok(())
            }

            /// Copy device -> device, charged as the read from `src` plus the
            /// write to this buffer that staging through the host would cost.
            pub fn copy_from(&self, src: &$buf) -> Result<()> {
                let l = src.0.layout;
                check_region(&l, &self.0.layout)?;
                self.write_rows(&src.dense(true), l.extents[2]);
                Ok(())
            }

            /// Read the logical contents into a dense vector. Not charged on
            /// the simulated clock, unlike [`Self::read_into`].
            pub fn to_dense(&self) -> Vec<$elem> {
                self.dense(false)
            }
        }
    };
}

impl_sim_buffer!(SimBufferF, SlotF, SimBufF, f64, free_f, f, f_mut);
impl_sim_buffer!(SimBufferI, SlotI, SimBufI, i64, free_i, i, i_mut);

/// Launch arguments for the simulated back-end.
#[derive(Clone, Default)]
pub struct SimLaunchArgs {
    pub bufs_f: Vec<SimBufferF>,
    pub bufs_i: Vec<SimBufferI>,
    pub scalars: ScalarArgs,
}

impl SimLaunchArgs {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn buf_f(mut self, b: &SimBufferF) -> Self {
        self.bufs_f.push(b.clone());
        self
    }
    pub fn buf_i(mut self, b: &SimBufferI) -> Self {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};

    /// `b[i] += k`.
    struct Add(f64);
    impl Kernel for Add {
        fn run<O: KernelOps>(&self, o: &mut O) {
            let b = o.buf_f(0);
            let i = o.global_thread_idx(0);
            let x = o.ld_gf(b, i);
            let k = o.lit_f(self.0);
            let r = o.add_f(x, k);
            o.st_gf(b, i, r);
        }
    }

    /// The fingerprint narrows the search and nothing more: two kernels
    /// forced onto one fingerprint get a memo entry each, and a launch of
    /// either runs its own program.
    #[test]
    fn a_fingerprint_collision_is_two_memo_entries() {
        let dev = SimDevice::new(DeviceSpec::k20());
        let wd = WorkDiv::d1(1, 4, 1);
        let sc = specialised(&wd);
        let get = |k: f64| dev.memoized(7, trace_kernel_spec(&Add(k), 1, sc), sc);
        let (one, ten) = (get(1.0), get(10.0));
        assert!(!Arc::ptr_eq(&one, &ten), "distinct programs must not alias");
        assert!(Arc::ptr_eq(&ten, &get(10.0)) && Arc::ptr_eq(&one, &get(1.0)));
        assert_eq!(dev.memo_counters(), CacheCounters { hits: 2, misses: 2 });
        let buf = dev.alloc_f64(BufLayout::d1(4));
        let args = SimLaunchArgs::new().buf_f(&buf);
        dev.launch(&ten, &wd, &args, ExecMode::Full).unwrap();
        assert_eq!(buf.to_dense(), [10.0; 4]);
        dev.launch(&one, &wd, &args, ExecMode::Full).unwrap();
        assert_eq!(buf.to_dense(), [11.0; 4]);
    }
}
