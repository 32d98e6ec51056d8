//! The native CPU accelerators: five different mappings of the abstract
//! grid/block/thread/element hierarchy onto host hardware (Section 3.3 and
//! Table 2 of the paper).
//!
//! | Accelerator        | Alpaka analogue        | blocks      | block threads |
//! |--------------------|------------------------|-------------|----------------|
//! | `Serial`           | `AccCpuSerial`         | sequential  | collapsed (1)  |
//! | `Blocks`           | `AccCpuOmp2Blocks`     | scoped team per launch | collapsed (1)  |
//! | `Threads`          | `AccCpuThreads`        | sequential  | OS threads + barrier (spawned per block) |
//! | `BlockThreads`     | `AccCpuOmp2Threads`    | sequential  | one thread team per launch, yielding generation barrier (`BarrierSync`) |
//! | `Fibers`           | `AccCpuFibers`         | sequential  | cooperative fibers, one at a time |
//!
//! A block thread that panics, or finishes its kernel while siblings wait at
//! `sync_block_threads`, fails the launch; it never hangs it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ScopedJoinHandle;

use alpaka_core::acc::{AccCaps, DeviceKind};
use alpaka_core::buffer::{BufLayout, HostBuf};
use alpaka_core::error::{Error, Result};
use alpaka_core::fma::IsaLevel;
use alpaka_core::kernel::Kernel;
use alpaka_core::pool::{panic_message, run_indexed};
use alpaka_core::vec::Vecn;
use alpaka_core::workdiv::WorkDiv;

use crate::exec::{run_thread, CpuArgs, LaunchGeometry, ResolvedArgs, SharedBlock};
use crate::sync::{Abandoned, BarrierSync, FiberSync, NoopSync};

/// Which CPU accelerator strategy a device uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuAccKind {
    Serial,
    Blocks,
    Threads,
    BlockThreads,
    Fibers,
}

impl CpuAccKind {
    pub const ALL: [CpuAccKind; 5] = [
        CpuAccKind::Serial,
        CpuAccKind::Blocks,
        CpuAccKind::Threads,
        CpuAccKind::BlockThreads,
        CpuAccKind::Fibers,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            CpuAccKind::Serial => "AccCpuSerial",
            CpuAccKind::Blocks => "AccCpuBlocks",
            CpuAccKind::Threads => "AccCpuThreads",
            CpuAccKind::BlockThreads => "AccCpuBlockThreads",
            CpuAccKind::Fibers => "AccCpuFibers",
        }
    }
}

/// A host device running one accelerator strategy. It owns no threads:
/// `Blocks` spawns a scoped team of at most `workers` threads per launch.
#[derive(Clone)]
pub struct CpuDevice {
    kind: CpuAccKind,
    workers: usize,
}

impl CpuDevice {
    /// Device with one worker per available hardware thread.
    pub fn new(kind: CpuAccKind) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(kind, workers)
    }

    /// Device with an explicit worker count (`Blocks` sizes its launch team
    /// with it; the others only report it).
    pub fn with_workers(kind: CpuAccKind, workers: usize) -> Self {
        CpuDevice {
            kind,
            workers: workers.max(1),
        }
    }

    pub fn kind(&self) -> CpuAccKind {
        self.kind
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Capability descriptor of this accelerator.
    pub fn caps(&self) -> AccCaps {
        let single = matches!(self.kind, CpuAccKind::Serial | CpuAccKind::Blocks);
        AccCaps {
            name: self.kind.name().into(),
            kind: DeviceKind::Cpu,
            max_threads_per_block: if single { 1 } else { 1024 },
            requires_single_thread_blocks: single,
            warp_width: 1,
            shared_mem_per_block: 1 << 20,
            concurrent_blocks: match self.kind {
                CpuAccKind::Blocks => self.workers,
                _ => 1,
            },
            supports_async_queues: true,
        }
    }

    /// Allocate a zeroed f64 buffer on this device (host memory).
    pub fn alloc_f64(&self, layout: BufLayout) -> HostBuf<f64> {
        HostBuf::alloc(layout)
    }

    /// Allocate a zeroed i64 buffer on this device (host memory).
    pub fn alloc_i64(&self, layout: BufLayout) -> HostBuf<i64> {
        HostBuf::alloc(layout)
    }

    /// Execute `kernel` over the whole grid synchronously (the facade's
    /// queues build on this), in the widest ISA copy this CPU runs.
    pub fn launch<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        wd: &WorkDiv,
        args: &CpuArgs,
    ) -> Result<()> {
        self.launch_on(IsaLevel::detect(), kernel, wd, args)
    }

    /// [`Self::launch`] in the copy `isa`; tests compare the copies.
    pub(crate) fn launch_on<K: Kernel + ?Sized>(
        &self,
        isa: IsaLevel,
        kernel: &K,
        wd: &WorkDiv,
        args: &CpuArgs,
    ) -> Result<()> {
        wd.validate(&self.caps())?;
        let geo = LaunchGeometry::from_workdiv(wd, isa);
        let resolved = args.resolve();
        let fault = |msg: String| Error::KernelFault(format!("{}: {msg}", kernel.name()).into());
        match self.kind {
            CpuAccKind::Serial => {
                run_serial(kernel, &geo, &resolved).map_err(fault)?;
            }
            CpuAccKind::Blocks => {
                run_blocks(self.workers, kernel, &geo, &resolved).map_err(fault)?;
            }
            CpuAccKind::Threads => {
                run_threads(kernel, &geo, &resolved).map_err(fault)?;
            }
            CpuAccKind::BlockThreads => {
                run_block_threads(kernel, &geo, &resolved).map_err(fault)?;
            }
            CpuAccKind::Fibers => {
                run_fibers(kernel, &geo, &resolved).map_err(fault)?;
            }
        }
        Ok(())
    }
}

impl core::fmt::Debug for CpuDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "CpuDevice({}, workers={})",
            self.kind.name(),
            self.workers
        )
    }
}

fn block_coords(geo: &LaunchGeometry, lin: usize) -> [usize; 3] {
    let ext = Vecn([
        geo.grid[0] as usize,
        geo.grid[1] as usize,
        geo.grid[2] as usize,
    ]);
    ext.delinearize(lin).0
}

fn thread_coords(geo: &LaunchGeometry, lin: usize) -> [usize; 3] {
    let ext = Vecn([
        geo.block[0] as usize,
        geo.block[1] as usize,
        geo.block[2] as usize,
    ]);
    ext.delinearize(lin).0
}

fn block_count(geo: &LaunchGeometry) -> usize {
    (geo.grid[0] * geo.grid[1] * geo.grid[2]) as usize
}

fn threads_per_block(geo: &LaunchGeometry) -> usize {
    (geo.block[0] * geo.block[1] * geo.block[2]) as usize
}

/// A block thread's end: the linear index of the block it ended in, and the
/// panic payload it stopped with, if it stopped early.
type End = (usize, std::thread::Result<()>);

/// Run one block thread's share of a launch. If it stops early, poison
/// `barriers` first, so no sibling waits for it forever.
fn member(barriers: &[&BarrierSync], f: impl FnOnce()) -> std::thread::Result<()> {
    catch_unwind(AssertUnwindSafe(f)).inspect_err(|_| barriers.iter().for_each(|b| b.poison()))
}

/// Join a team of block threads. The launch error is the first kernel panic's
/// own message; failing that, the first barrier the block diverged at, named
/// by block and by how many threads reached it.
fn join_team(
    geo: &LaunchGeometry,
    team: Vec<ScopedJoinHandle<'_, End>>,
) -> std::result::Result<(), String> {
    let n = threads_per_block(geo);
    let mut stops = Vec::new();
    for h in team {
        let (b, end) = h.join().unwrap_or_else(|p| (0, Err(p)));
        let Err(p) = end else { continue };
        let at = block_coords(geo, b);
        stops.push(match p.downcast::<Abandoned>().map(|a| *a) {
            Err(p) => (0, panic_message(p)),
            Ok(Abandoned::Diverged { arrived }) => {
                let why = "reached sync_block_threads, the rest finished the kernel without it";
                (1, format!("block {at:?}: {arrived} of {n} threads {why}"))
            }
            Ok(Abandoned::Poisoned) => (2, format!("block {at:?}: a thread stopped early")),
        });
    }
    stops
        .into_iter()
        .min_by_key(|s| s.0)
        .map_or(Ok(()), |(_, msg)| Err(msg))
}

fn run_serial<K: Kernel + ?Sized>(
    kernel: &K,
    geo: &LaunchGeometry,
    args: &ResolvedArgs,
) -> std::result::Result<(), String> {
    let shared = SharedBlock::new();
    member(&[], || {
        for b in 0..block_count(geo) {
            if b > 0 {
                shared.reset();
            }
            run_thread(
                kernel,
                geo,
                block_coords(geo, b),
                [0, 0, 0],
                args,
                &shared,
                &NoopSync,
            );
        }
    })
    .map_err(panic_message)
}

fn run_blocks<K: Kernel + ?Sized>(
    workers: usize,
    kernel: &K,
    geo: &LaunchGeometry,
    args: &ResolvedArgs,
) -> std::result::Result<(), String> {
    run_indexed(workers, block_count(geo), |b| {
        let shared = SharedBlock::new();
        run_thread(
            kernel,
            geo,
            block_coords(geo, b),
            [0, 0, 0],
            args,
            &shared,
            &NoopSync,
        );
    })
}

fn run_threads<K: Kernel + ?Sized>(
    kernel: &K,
    geo: &LaunchGeometry,
    args: &ResolvedArgs,
) -> std::result::Result<(), String> {
    let t = threads_per_block(geo);
    for b in 0..block_count(geo) {
        let bidx = block_coords(geo, b);
        let shared = SharedBlock::new();
        let sync = BarrierSync::new(t);
        std::thread::scope(|scope| {
            let (shared, sync) = (&shared, &sync);
            let team = (0..t)
                .map(|tid| {
                    scope.spawn(move || {
                        let end = member(&[sync], || {
                            let tcoord = thread_coords(geo, tid);
                            run_thread(kernel, geo, bidx, tcoord, args, shared, sync);
                            sync.leave();
                        });
                        (b, end)
                    })
                })
                .collect();
            join_team(geo, team)
        })?;
    }
    Ok(())
}

fn run_block_threads<K: Kernel + ?Sized>(
    kernel: &K,
    geo: &LaunchGeometry,
    args: &ResolvedArgs,
) -> std::result::Result<(), String> {
    let t = threads_per_block(geo);
    let blocks = block_count(geo);
    let shared = SharedBlock::new();
    let sync = BarrierSync::new(t);
    // The block boundary has its own barrier: were it the kernel's, a thread
    // that skipped a `sync_block_threads` would be counted here and
    // silently release its siblings.
    let team_barrier = BarrierSync::new(t);
    std::thread::scope(|scope| {
        let (shared, sync, team_barrier) = (&shared, &sync, &team_barrier);
        let team = (0..t)
            .map(|tid| {
                scope.spawn(move || {
                    let tcoord = thread_coords(geo, tid);
                    let mut b = 0;
                    let end = member(&[sync, team_barrier], || {
                        while b < blocks {
                            let bidx = block_coords(geo, b);
                            run_thread(kernel, geo, bidx, tcoord, args, shared, sync);
                            sync.leave();
                            if team_barrier.wait() {
                                shared.reset();
                                sync.reset();
                            }
                            team_barrier.wait();
                            b += 1;
                        }
                    });
                    (b, end)
                })
            })
            .collect();
        join_team(geo, team)
    })
}

fn run_fibers<K: Kernel + ?Sized>(
    kernel: &K,
    geo: &LaunchGeometry,
    args: &ResolvedArgs,
) -> std::result::Result<(), String> {
    let t = threads_per_block(geo);
    for b in 0..block_count(geo) {
        let bidx = block_coords(geo, b);
        let shared = SharedBlock::new();
        let sync = FiberSync::new(t);
        std::thread::scope(|scope| {
            let (shared, sync) = (&shared, &sync);
            let team = (0..t)
                .map(|tid| {
                    scope.spawn(move || {
                        sync.enter(tid);
                        let end = member(&[], || {
                            let tcoord = thread_coords(geo, tid);
                            run_thread(kernel, geo, bidx, tcoord, args, shared, sync);
                        });
                        sync.exit(tid);
                        (b, end)
                    })
                })
                .collect();
            join_team(geo, team)
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};
    use alpaka_core::workdiv::{predefined, PredefAcc};

    /// `y[i] = a*x[i] + y[i]` with element loop and tail guard.
    struct Daxpy;
    impl Kernel for Daxpy {
        fn name(&self) -> &str {
            "daxpy"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let gid = o.global_thread_idx(0);
            let v = o.thread_elem_extent(0);
            let base = o.mul_i(gid, v);
            o.for_elements(0, |o, e| {
                let i = o.add_i(base, e);
                let c = o.lt_i(i, n);
                o.if_(c, |o| {
                    let xv = o.ld_gf(x, i);
                    let yv = o.ld_gf(y, i);
                    let r = o.fma_f(xv, a, yv);
                    o.st_gf(y, i, r);
                });
            });
        }
    }

    fn daxpy_on(kind: CpuAccKind, wd: WorkDiv, n: usize) {
        let dev = CpuDevice::with_workers(kind, 4);
        let x = HostBuf::from_vec((0..n).map(|i| i as f64).collect());
        let y = HostBuf::from_vec(vec![1.0; n]);
        let args = CpuArgs::new()
            .buf_f(&x)
            .buf_f(&y)
            .scalar_f(2.0)
            .scalar_i(n as i64);
        dev.launch(&Daxpy, &wd, &args).unwrap();
        for i in 0..n {
            assert_eq!(y.as_slice()[i], 2.0 * i as f64 + 1.0, "i={i} on {kind:?}");
        }
    }

    #[test]
    fn daxpy_on_serial() {
        daxpy_on(
            CpuAccKind::Serial,
            predefined(PredefAcc::CpuSerial, 1000, 1, 8),
            1000,
        );
    }

    #[test]
    fn daxpy_on_blocks_pool() {
        daxpy_on(
            CpuAccKind::Blocks,
            predefined(PredefAcc::CpuOmpBlock, 1000, 1, 16),
            1000,
        );
    }

    #[test]
    fn daxpy_on_threads() {
        daxpy_on(CpuAccKind::Threads, WorkDiv::d1(4, 8, 8), 250);
    }

    #[test]
    fn daxpy_on_block_threads() {
        daxpy_on(CpuAccKind::BlockThreads, WorkDiv::d1(4, 8, 8), 250);
    }

    #[test]
    fn daxpy_on_fibers() {
        daxpy_on(CpuAccKind::Fibers, WorkDiv::d1(4, 4, 16), 250);
    }

    #[test]
    fn serial_rejects_multithread_blocks() {
        let dev = CpuDevice::new(CpuAccKind::Serial);
        let err = dev
            .launch(&Daxpy, &WorkDiv::d1(4, 2, 1), &CpuArgs::new())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidWorkDiv(_)));
    }

    /// Tree reduction in shared memory — exercises barriers hard.
    struct BlockReduce;
    impl Kernel for BlockReduce {
        fn name(&self) -> &str {
            "block_reduce"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let input = o.buf_f(0);
            let out = o.buf_f(1);
            let n = o.param_i(0);
            let sh = o.shared_f(64);
            let tid = o.thread_idx(0);
            let bdim = o.block_thread_extent(0);
            let bid = o.block_idx(0);
            let g = o.mul_i(bid, bdim);
            let gid = o.add_i(g, tid);
            // Load (0 beyond n).
            let zero = o.lit_f(0.0);
            let c = o.lt_i(gid, n);
            let loaded = o.var_f(zero);
            o.if_(c, |o| {
                let v = o.ld_gf(input, gid);
                o.vset_f(loaded, v);
            });
            let lv = o.vget_f(loaded);
            o.st_sf(sh, tid, lv);
            o.sync_block_threads();
            // Tree reduce: s = bdim/2, /2, ...
            let two = o.lit_i(2);
            let s0 = o.div_i(bdim, two);
            let s = o.var_i(s0);
            o.while_(
                |o| {
                    let sv = o.vget_i(s);
                    let zero = o.lit_i(0);
                    o.gt_i(sv, zero)
                },
                |o| {
                    let sv = o.vget_i(s);
                    let in_half = o.lt_i(tid, sv);
                    o.if_(in_half, |o| {
                        let other = o.add_i(tid, sv);
                        let a = o.ld_sf(sh, tid);
                        let b = o.ld_sf(sh, other);
                        let sum = o.add_f(a, b);
                        o.st_sf(sh, tid, sum);
                    });
                    o.sync_block_threads();
                    let two = o.lit_i(2);
                    let nx = o.div_i(sv, two);
                    o.vset_i(s, nx);
                },
            );
            let zero_i = o.lit_i(0);
            let is0 = o.eq_i(tid, zero_i);
            o.if_(is0, |o| {
                let zero_i = o.lit_i(0);
                let total = o.ld_sf(sh, zero_i);
                o.st_gf(out, bid, total);
            });
        }
    }

    fn reduce_on(kind: CpuAccKind) {
        let n = 256usize;
        let blocks = 4;
        let dev = CpuDevice::with_workers(kind, 4);
        let input = HostBuf::from_vec((0..n).map(|i| i as f64).collect());
        let out = HostBuf::<f64>::alloc(BufLayout::d1(blocks));
        let args = CpuArgs::new().buf_f(&input).buf_f(&out).scalar_i(n as i64);
        dev.launch(&BlockReduce, &WorkDiv::d1(blocks, 64, 1), &args)
            .unwrap();
        let total: f64 = out.as_slice().iter().sum();
        assert_eq!(total, (n * (n - 1) / 2) as f64, "{kind:?}");
    }

    #[test]
    fn shared_memory_reduction_threads() {
        reduce_on(CpuAccKind::Threads);
    }

    #[test]
    fn shared_memory_reduction_block_threads() {
        reduce_on(CpuAccKind::BlockThreads);
    }

    #[test]
    fn shared_memory_reduction_fibers() {
        reduce_on(CpuAccKind::Fibers);
    }

    #[test]
    fn kernel_panic_becomes_error() {
        struct Bad;
        impl Kernel for Bad {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let b = o.buf_f(0); // unbound slot -> panic
                let i = o.lit_i(0);
                let _ = o.ld_gf(b, i);
            }
        }
        for kind in CpuAccKind::ALL {
            let dev = CpuDevice::with_workers(kind, 2);
            let err = dev.launch(&Bad, &WorkDiv::d1(2, 1, 1), &CpuArgs::new());
            assert!(err.is_err(), "{kind:?} must surface the panic");
        }
    }

    /// One out-of-bounds access per launch, picked by `self.0`, at index
    /// `self.1`. Every array has its own length, so the message names which
    /// one was checked.
    struct Oob(&'static str, i64);
    impl Kernel for Oob {
        fn name(&self) -> &str {
            "oob"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let (gf, gi) = (o.buf_f(0), o.buf_i(0));
            let (sf, si, lf) = (o.shared_f(4), o.shared_i(6), o.local_f(7));
            let (i, x, n) = (o.lit_i(self.1), o.lit_f(1.0), o.lit_i(1));
            match self.0 {
                "ld.global.f64" => drop(o.ld_gf(gf, i)),
                "st.global.f64" => o.st_gf(gf, i, x),
                "ld.global.s64" => drop(o.ld_gi(gi, i)),
                "st.global.s64" => o.st_gi(gi, i, n),
                "ld.shared.f64" => drop(o.ld_sf(sf, i)),
                "st.shared.f64" => o.st_sf(sf, i, x),
                "ld.shared.s64" => drop(o.ld_si(si, i)),
                "st.shared.s64" => o.st_si(si, i, n),
                "ld.local.f64" => drop(o.ld_lf(lf, i)),
                "st.local.f64" => o.st_lf(lf, i, x),
                "atom.global.add.s64" => drop(o.atomic_add_gi(gi, i, n)),
                op => unreachable!("{op}"),
            }
        }
    }

    #[test]
    fn out_of_bounds_faults_name_kernel_access_index_and_length() {
        let accesses = [
            ("ld.global.f64", 5),
            ("st.global.f64", 5),
            ("ld.global.s64", 3),
            ("st.global.s64", 3),
            ("ld.shared.f64", 4),
            ("st.shared.f64", 4),
            ("ld.shared.s64", 6),
            ("st.shared.s64", 6),
            ("ld.local.f64", 7),
            ("st.local.f64", 7),
            ("atom.global.add.s64", 3),
        ];
        let args = CpuArgs::new()
            .buf_f(&HostBuf::from_vec(vec![0.0; 5]))
            .buf_i(&HostBuf::from_vec(vec![0; 3]));
        for kind in [CpuAccKind::Serial, CpuAccKind::Blocks] {
            let dev = CpuDevice::with_workers(kind, 2);
            for (op, len) in accesses {
                for idx in [-1, len] {
                    let err = dev.launch(&Oob(op, idx), &WorkDiv::d1(1, 1, 1), &args);
                    let want = format!("oob: {op}: index {idx} out of bounds (len {len})");
                    assert_eq!(err, Err(Error::KernelFault(want.into())), "{kind:?}");
                }
            }
        }
    }

    /// Every ISA copy this CPU runs leaves the same bits, kernel by kernel,
    /// on every back-end that takes the kernel's work division: the Fig. 5
    /// and Fig. 8 kernels, `DgemmTiled` with a span step of 1 and of 2 among
    /// them.
    #[test]
    fn isa_copies_are_bit_identical() {
        use alpaka_core::kernel::ScalarArgs;
        use alpaka_kernels::host::{random_matrix, random_vec};
        use alpaka_kernels::{DaxpyKernel, DgemmNaive, DgemmTiled, DgemmTiledCuda};

        /// Every buffer's bits after one launch on fresh copies of `bufs`,
        /// or `None` where `kind` does not take `wd`. The integer scalars
        /// are `n` six times: DAXPY reads its length, DGEMM m, n, k and the
        /// three leading dimensions (square, unpadded).
        fn bits<K: Kernel>(
            kind: CpuAccKind,
            isa: IsaLevel,
            k: &K,
            wd: WorkDiv,
            bufs: &[Vec<f64>],
            f: &[f64],
            n: usize,
        ) -> Option<Vec<u64>> {
            let dev = CpuDevice::with_workers(kind, 2);
            wd.validate(&dev.caps()).ok()?;
            let mut args = CpuArgs::new();
            args.bufs_f = bufs.iter().map(|b| HostBuf::from_vec(b.clone())).collect();
            args.scalars = ScalarArgs {
                f: f.to_vec(),
                i: vec![n as i64; 6],
            };
            dev.launch_on(isa, k, &wd, &args).unwrap();
            let out = args.bufs_f.iter().flat_map(|b| b.as_slice().to_vec());
            Some(out.map(f64::to_bits).collect())
        }
        let isas = IsaLevel::supported();
        eprintln!("copies: {isas:?}");
        let mut ran = 0;
        let mut all = |name: &str, run: &dyn Fn(CpuAccKind, IsaLevel) -> Option<Vec<u64>>| {
            for kind in CpuAccKind::ALL {
                let Some(want) = run(kind, isas[0]) else {
                    continue;
                };
                for &isa in &isas[1..] {
                    let got = run(kind, isa).unwrap();
                    assert!(got == want, "{name} on {kind:?}: {isa:?} differs");
                }
                ran += 1;
            }
        };
        // 40 is not a multiple of any tile edge, so the guards and the
        // zero padding run too.
        let n = 40;
        let gemm = [1, 2, 3].map(|seed| random_matrix(n, n, seed));
        let ab = [1.5, 0.5];
        for (t, e) in [(1, 16), (1, 32), (2, 8)] {
            let k = DgemmTiled { t, e };
            all(&format!("{k:?}"), &|kind, isa| {
                bits(kind, isa, &k, k.workdiv(n, n), &gemm, &ab, n)
            });
        }
        let wd = DgemmNaive::workdiv(n, 8);
        all("DgemmNaive", &|kind, isa| {
            bits(kind, isa, &DgemmNaive, wd, &gemm, &ab, n)
        });
        let cuda = DgemmTiledCuda { ts: 8 };
        let m = 20;
        let small = [4, 5, 6].map(|seed| random_matrix(m, m, seed));
        all("DgemmTiledCuda", &|kind, isa| {
            bits(kind, isa, &cuda, cuda.workdiv(m, m), &small, &ab, m)
        });
        let xy = [random_vec(1000, 4), random_vec(1000, 5)];
        let wd = predefined(PredefAcc::CpuOmpBlock, 1000, 1, 16);
        all("DAXPY", &|kind, isa| {
            bits(kind, isa, &DaxpyKernel, wd, &xy, &[2.5], 1000)
        });
        // Serial and Blocks take only one-thread blocks: 3 tiled variants x 5
        // back-ends, less 2 for {2,8}, plus naive x 5, CUDA-style x 3, DAXPY x 5.
        assert_eq!(ran, 3 * 5 - 2 + 5 + 3 + 5);
    }

    /// Element spans over shared array `sh` (8 elements) and local array
    /// `loc` (6), declared at `base + j * step`, then one element loop
    /// whose accesses use the index `at + j * by` the kernel actually
    /// computes, behind `guard`. With `spans` off the same loop uses the
    /// plain accesses: the fault, or the output, must not tell them apart.
    #[derive(Clone, Copy, Debug)]
    struct SpanProbe {
        spans: bool,
        base: i64,
        step: i64,
        at: i64,
        by: i64,
        /// `None`: no guard; `Some(true)`: the whole loop is skipped;
        /// `Some(false)`: each element is guarded by `0 <= idx < 6`.
        guard: Option<bool>,
    }

    impl Kernel for SpanProbe {
        fn name(&self) -> &str {
            "span_probe"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            let out = o.buf_f(0);
            let (sh, loc) = (o.shared_f(8), o.local_f(6));
            let (zero, six, eight) = (o.lit_i(0), o.lit_i(6), o.lit_i(8));
            o.for_range(zero, eight, |o, q| {
                let v = o.i2f(q);
                o.st_sf(sh, q, v);
            });
            o.for_range(zero, six, |o, q| {
                let w = o.lit_f(0.5);
                o.st_lf(loc, q, w);
            });
            let (at, by) = (o.lit_i(self.at), o.lit_i(self.by));
            let (base, step) = (self.base, self.step);
            let sp = o.span_sf(sh, 0, |o| o.lit_i(base), |o| o.lit_i(step));
            let lp = o.span_lf(loc, 0, |o| o.lit_i(base), |o| o.lit_i(step));
            let body = |o: &mut O, j: O::I| {
                let t = o.mul_i(j, by);
                let idx = o.add_i(at, t);
                let access = |o: &mut O| {
                    let (v, w) = if self.spans {
                        (o.ld_span_sf(sp, j, idx), o.ld_span_lf(lp, j, idx))
                    } else {
                        (o.ld_sf(sh, idx), o.ld_lf(loc, idx))
                    };
                    let r = o.add_f(v, w);
                    if self.spans {
                        o.st_span_lf(lp, j, idx, r);
                    } else {
                        o.st_lf(loc, idx, r);
                    }
                    o.st_gf(out, j, r);
                };
                match self.guard {
                    Some(false) => {
                        let (lo, hi) = (o.ge_i(idx, zero), o.lt_i(idx, six));
                        let ok = o.and_b(lo, hi);
                        o.if_(ok, access);
                    }
                    _ => access(o),
                }
            };
            let skip = o.lit_b(self.guard == Some(true));
            let run = o.not_b(skip);
            o.if_(run, |o| o.for_elements(0, body));
            o.for_range(zero, six, |o, q| {
                let v = o.ld_lf(loc, q);
                let at = o.add_i(q, eight);
                o.st_gf(out, at, v);
            });
        }
    }

    /// A span changes neither what faults nor the fault's text: a span
    /// partly outside its array, a span whose base or step disagree with the
    /// index used, and a span whose loop or elements a guard skips give the
    /// plain accesses' result, on every back-end and every ISA copy.
    #[test]
    fn spans_fault_exactly_as_plain_accesses() {
        let probe = |base, step, at, by, guard| SpanProbe {
            spans: true,
            base,
            step,
            at,
            by,
            guard,
        };
        let oob = |what: &str, idx: i64, len: usize| {
            let msg = format!("span_probe: {what}: index {idx} out of bounds (len {len})");
            Err(Error::KernelFault(msg.into()))
        };
        let cases = [
            // Inside both arrays for its 5 elements, as declared: no fault.
            (probe(0, 1, 0, 1, None), Ok(())),
            (probe(4, -1, 4, -1, None), Ok(())),
            (probe(5, 0, 5, 0, None), Ok(())),
            // Partly outside its array, at either end.
            (probe(2, 1, 2, 1, None), oob("ld.local.f64", 6, 6)),
            (probe(5, 1, 5, 1, None), oob("ld.local.f64", 6, 6)),
            (probe(3, -1, 3, -1, None), oob("ld.shared.f64", -1, 8)),
            (probe(9, -1, 9, -1, None), oob("ld.shared.f64", 9, 8)),
            // Declared wholly inside, but the index used disagrees.
            (probe(0, 1, 0, 2, None), oob("ld.local.f64", 6, 6)),
            (probe(0, 1, -1, 1, None), oob("ld.shared.f64", -1, 8)),
            (probe(0, 1, 1, 1, None), Ok(())),
            (probe(1, 1, 0, 1, None), Ok(())),
            (probe(0, 0, 0, 1, None), Ok(())),
            // Partly outside, but a guard skips the loop or the elements.
            (probe(4, 1, 4, 1, Some(true)), Ok(())),
            (probe(4, 1, 4, 1, Some(false)), Ok(())),
            (probe(-3, 2, -3, 2, Some(false)), Ok(())),
        ];
        let wd = WorkDiv::d1(1, 1, 5);
        for (span, want) in cases {
            let plain = SpanProbe {
                spans: false,
                ..span
            };
            for kind in CpuAccKind::ALL {
                let dev = CpuDevice::with_workers(kind, 2);
                for isa in IsaLevel::supported() {
                    let on = |k: &SpanProbe| {
                        let out = HostBuf::from_vec(vec![f64::NAN; 16]);
                        let got = dev.launch_on(isa, k, &wd, &CpuArgs::new().buf_f(&out));
                        (
                            got,
                            out.as_slice()
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<_>>(),
                        )
                    };
                    let (got, bits) = on(&span);
                    let at = format!("{span:?} on {kind:?}, {isa:?}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!((got, bits), on(&plain), "{at}");
                }
            }
        }
    }

    #[test]
    fn caps_match_strategy() {
        assert!(
            CpuDevice::new(CpuAccKind::Serial)
                .caps()
                .requires_single_thread_blocks
        );
        assert!(
            CpuDevice::new(CpuAccKind::Blocks)
                .caps()
                .requires_single_thread_blocks
        );
        assert!(
            !CpuDevice::new(CpuAccKind::Threads)
                .caps()
                .requires_single_thread_blocks
        );
        assert_eq!(
            CpuDevice::with_workers(CpuAccKind::Blocks, 7)
                .caps()
                .concurrent_blocks,
            7
        );
    }

    #[test]
    fn atomics_across_blocks() {
        struct CountAll;
        impl Kernel for CountAll {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let counter = o.buf_i(0);
                let zero = o.lit_i(0);
                let one = o.lit_i(1);
                let _ = o.atomic_add_gi(counter, zero, one);
            }
        }
        for kind in CpuAccKind::ALL {
            let dev = CpuDevice::with_workers(kind, 4);
            let counter = HostBuf::from_vec(vec![0i64]);
            let wd = if matches!(kind, CpuAccKind::Serial | CpuAccKind::Blocks) {
                WorkDiv::d1(64, 1, 1)
            } else {
                WorkDiv::d1(8, 8, 1)
            };
            let args = CpuArgs::new().buf_i(&counter);
            dev.launch(&CountAll, &wd, &args).unwrap();
            assert_eq!(counter.as_slice()[0], 64, "{kind:?}");
        }
    }

    #[test]
    fn two_dimensional_launch() {
        struct Fill2d;
        impl Kernel for Fill2d {
            fn run<O: KernelOps>(&self, o: &mut O) {
                let out = o.buf_f(0);
                let pitch = o.param_i(0);
                let row = o.global_thread_idx(0);
                let col = o.global_thread_idx(1);
                let off = o.mul_i(row, pitch);
                let idx = o.add_i(off, col);
                let r = o.i2f(row);
                let c = o.i2f(col);
                let hundred = o.lit_f(100.0);
                let v = o.fma_f(r, hundred, c);
                o.st_gf(out, idx, v);
            }
        }
        let dev = CpuDevice::new(CpuAccKind::Serial);
        let buf = HostBuf::<f64>::alloc(BufLayout::d2(4, 6, 8));
        let pitch = buf.layout().pitch;
        let wd = WorkDiv::d2(Vecn([4, 6]), Vecn([1, 1]), Vecn([1, 1]));
        let args = CpuArgs::new().buf_f(&buf).scalar_i(pitch as i64);
        dev.launch(&Fill2d, &wd, &args).unwrap();
        for r in 0..4 {
            for c in 0..6 {
                assert_eq!(buf.as_slice()[r * pitch + c], (r * 100 + c) as f64);
            }
        }
    }
}
