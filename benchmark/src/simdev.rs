//! One simulated device, driven either through the production facade
//! (`alpaka::Device` + `time_launch`: what the end-to-end metrics time) or
//! through the staged pipeline the traced run drives itself:
//! `trace_kernel_spec` -> `optimize` -> zero-block launch -> full launch on
//! the benchmark's own `DeviceMem`, with a span at every boundary.
//!
//! Both modes see the same inputs and must produce the same outputs; the
//! workloads are written once against this type.

use std::time::Instant;

use alpaka::{
    time_launch, AccKind, Args, BufLayout, BufferF, BufferI, Device, LaunchMode, WorkDiv,
};
use alpaka_core::acc::DeviceKind;
use alpaka_core::kernel::Kernel;
use alpaka_kir::{optimize, trace_kernel_spec, Program, SpecConsts};
use alpaka_sim::{
    run_kernel_launch_threads, DeviceMem, DeviceSpec, ExecMode, SimArgs, SimBufF, SimBufI,
    SimReport,
};

use crate::harness::Harness;
use crate::spans::Layer;

#[derive(Clone)]
pub enum Buf {
    FacadeF(BufferF),
    FacadeI(BufferI),
    StagedF(SimBufF, BufLayout),
    StagedI(SimBufI, BufLayout),
}

impl Buf {
    pub fn pitch(&self) -> i64 {
        let l = match self {
            Buf::FacadeF(b) => b.layout(),
            Buf::FacadeI(b) => b.layout(),
            Buf::StagedF(_, l) | Buf::StagedI(_, l) => *l,
        };
        l.pitch as i64
    }
}

/// Buffers and scalars bound for launching, built once at set-up.
pub enum Bound {
    Facade(Args),
    Staged(SimArgs),
}

enum Inner {
    Facade(Device),
    Staged(DeviceMem),
}

pub struct SimDev {
    inner: Inner,
    pub spec: DeviceSpec,
    threads: usize,
}

/// The facade bakes the block and element extents into every program it
/// traces (template specialisation); so does the staged pipeline.
fn specialised(wd: &WorkDiv) -> SpecConsts {
    SpecConsts {
        block_thread_extent: Some(wd.threads),
        thread_elem_extent: Some(wd.elems),
    }
}

/// Offsets of each row in a dense array and in pitched storage.
fn rows(l: &BufLayout) -> impl Iterator<Item = (usize, usize)> + '_ {
    let w = l.extents[2];
    (0..l.extents[0] * l.extents[1]).map(move |r| (r * w, r * l.pitch))
}

/// Dense row-major data into pitched device storage.
fn write_pitched<T: Copy>(dst: &mut [T], l: &BufLayout, dense: &[T]) -> Result<(), String> {
    if dense.len() != l.dense_len() {
        return Err(format!(
            "dense data has {} elements, expected {}",
            dense.len(),
            l.dense_len()
        ));
    }
    let w = l.extents[2];
    for (s, d) in rows(l) {
        dst[d..d + w].copy_from_slice(&dense[s..s + w]);
    }
    Ok(())
}

/// Pitched device storage out as dense row-major data.
fn read_pitched<T: Copy>(src: &[T], l: &BufLayout) -> Vec<T> {
    let w = l.extents[2];
    let mut out = Vec::with_capacity(l.dense_len());
    for (_, d) in rows(l) {
        out.extend_from_slice(&src[d..d + w]);
    }
    out
}

const FOREIGN: &str = "buffer does not belong to this device";

impl SimDev {
    /// `staged` selects the pipeline; `threads` is the interpreter thread
    /// count (1 is the production default the benchmark measures).
    pub fn new(spec: DeviceSpec, threads: usize, staged: bool) -> Self {
        let inner = if staged {
            Inner::Staged(DeviceMem::new())
        } else {
            let kind = match spec.kind {
                DeviceKind::Gpu => AccKind::SimGpu(spec.clone()),
                DeviceKind::Cpu => AccKind::SimCpu(spec.clone()),
            };
            Inner::Facade(Device::with_workers(kind, threads))
        };
        SimDev {
            inner,
            spec,
            threads,
        }
    }

    /// True for CPU device models: blocks of one thread, work in elements.
    pub fn single_thread_blocks(&self) -> bool {
        self.spec.max_threads_per_block == 1
    }

    pub fn alloc_f(&mut self, layout: BufLayout) -> Buf {
        match &mut self.inner {
            Inner::Facade(dev) => Buf::FacadeF(dev.alloc_f64(layout)),
            Inner::Staged(mem) => Buf::StagedF(mem.alloc_f(layout.alloc_len()), layout),
        }
    }

    pub fn alloc_i(&mut self, layout: BufLayout) -> Buf {
        match &mut self.inner {
            Inner::Facade(dev) => Buf::FacadeI(dev.alloc_i64(layout)),
            Inner::Staged(mem) => Buf::StagedI(mem.alloc_i(layout.alloc_len()), layout),
        }
    }

    /// Host -> device copy of a dense f64 array (one counted operation).
    pub fn upload_f(&mut self, h: &mut Harness, buf: &Buf, dense: &[f64]) {
        h.op_in_span("upload", Layer::Accsim, || match (&mut self.inner, buf) {
            (Inner::Facade(_), Buf::FacadeF(b)) => b.upload(dense).map_err(|e| e.to_string()),
            (Inner::Staged(mem), Buf::StagedF(id, l)) => write_pitched(mem.f_mut(*id), l, dense),
            _ => Err(FOREIGN.to_string()),
        });
    }

    pub fn upload_i(&mut self, h: &mut Harness, buf: &Buf, dense: &[i64]) {
        h.op_in_span("upload", Layer::Accsim, || match (&mut self.inner, buf) {
            (Inner::Facade(_), Buf::FacadeI(b)) => b.upload(dense).map_err(|e| e.to_string()),
            (Inner::Staged(mem), Buf::StagedI(id, l)) => write_pitched(mem.i_mut(*id), l, dense),
            _ => Err(FOREIGN.to_string()),
        });
    }

    /// Device -> host copy (one counted operation); empty on failure.
    pub fn download_f(&self, h: &mut Harness, buf: &Buf) -> Vec<f64> {
        h.op_in_span("download", Layer::Accsim, || match (&self.inner, buf) {
            (Inner::Facade(_), Buf::FacadeF(b)) => Ok(b.download()),
            (Inner::Staged(mem), Buf::StagedF(id, l)) => Ok(read_pitched(mem.f(*id), l)),
            _ => Err(FOREIGN),
        })
        .unwrap_or_default()
    }

    pub fn download_i(&self, h: &mut Harness, buf: &Buf) -> Vec<i64> {
        h.op_in_span("download", Layer::Accsim, || match (&self.inner, buf) {
            (Inner::Facade(_), Buf::FacadeI(b)) => Ok(b.download()),
            (Inner::Staged(mem), Buf::StagedI(id, l)) => Ok(read_pitched(mem.i(*id), l)),
            _ => Err(FOREIGN),
        })
        .unwrap_or_default()
    }

    /// Bind launch arguments in slot order.
    pub fn bind(&self, bufs: &[&Buf], scalars_f: &[f64], scalars_i: &[i64]) -> Bound {
        match &self.inner {
            Inner::Facade(_) => {
                let mut args = Args::new();
                for b in bufs {
                    args = match b {
                        Buf::FacadeF(b) => args.buf_f(b),
                        Buf::FacadeI(b) => args.buf_i(b),
                        _ => panic!("staged buffer bound on a facade device"),
                    };
                }
                args.scalars.f = scalars_f.to_vec();
                args.scalars.i = scalars_i.to_vec();
                Bound::Facade(args)
            }
            Inner::Staged(_) => {
                let mut args = SimArgs {
                    params_f: scalars_f.to_vec(),
                    params_i: scalars_i.to_vec(),
                    ..SimArgs::default()
                };
                for b in bufs {
                    match b {
                        Buf::StagedF(id, _) => args.bufs_f.push(*id),
                        Buf::StagedI(id, _) => args.bufs_i.push(*id),
                        _ => panic!("facade buffer bound on a staged device"),
                    }
                }
                Bound::Staged(args)
            }
        }
    }

    /// Trace and optimize `kernel` specialised for `wd`, as
    /// `SimDevice::compile` does inside the facade.
    pub fn compile<K: Kernel + ?Sized>(kernel: &K, wd: &WorkDiv) -> Program {
        let mut prog = trace_kernel_spec(kernel, wd.dim, specialised(wd));
        optimize(&mut prog);
        prog
    }

    /// One kernel launch: `time_launch` on the facade, or the staged
    /// pipeline with a span per stage. Counted, timed and folded into the
    /// repetition's totals either way.
    pub fn launch<K: Kernel + ?Sized>(
        &mut self,
        h: &mut Harness,
        kernel: &K,
        wd: &WorkDiv,
        bound: &Bound,
        mode: LaunchMode,
    ) -> Option<SimReport> {
        match (&mut self.inner, bound) {
            (Inner::Facade(dev), Bound::Facade(args)) => {
                h.launch("time_launch", Layer::Alpaka, || {
                    time_launch(dev, kernel, wd, args, mode).map(|run| run.report)
                })
            }
            (Inner::Staged(mem), Bound::Staged(args)) => {
                let exec_mode = match mode {
                    LaunchMode::Exact => ExecMode::Full,
                    LaunchMode::TimingSampled(k) => ExecMode::SampleBlocks(k),
                };
                let (spec, threads) = (&self.spec, self.threads);
                let log = h
                    .spans
                    .as_mut()
                    .expect("staged devices exist only in traced runs");
                log.begin_launch();
                let t0 = Instant::now();
                let launch = log.open("launch", Layer::Bench);

                let s = log.open("trace", Layer::Kir);
                let mut prog = trace_kernel_spec(kernel, wd.dim, specialised(wd));
                log.close(s);
                let instrs_in = prog.instr_count() as u64;
                let s = log.open("optimize", Layer::Kir);
                optimize(&mut prog);
                log.close(s);
                let instrs_out = prog.instr_count() as u64;

                let s = log.open("front", Layer::SimFront);
                let front = run_kernel_launch_threads(
                    spec,
                    mem,
                    &prog,
                    wd,
                    args,
                    ExecMode::BlockRange { start: 0, end: 0 },
                    threads,
                );
                log.close(s);
                let s = log.open("exec", Layer::SimExec);
                let t_exec = Instant::now();
                let full = front.and_then(|_| {
                    run_kernel_launch_threads(spec, mem, &prog, wd, args, exec_mode, threads)
                });
                let exec_s = t_exec.elapsed().as_secs_f64();
                log.close(s);

                log.close(launch);
                log.end_launch();
                h.rec.launch_us.push(t0.elapsed().as_secs_f64() * 1e6);
                h.rec.instrs_in += instrs_in;
                h.rec.instrs_out += instrs_out;
                let rep = h.op(&prog.name, full);
                if let Some(rep) = &rep {
                    h.add_report(rep);
                    // HostPerf rates are over interpreted work, which is what
                    // the exec span actually ran (sampling extrapolates stats).
                    h.rec.exec_blocks += rep.host.blocks_per_sec * rep.host.wall_s;
                    h.rec.exec_instrs += rep.host.instrs_per_sec * rep.host.wall_s;
                    h.rec.exec_s += exec_s;
                    if rep.stats.atomics > 0 {
                        h.rec.atomic_exec_s += exec_s;
                    }
                }
                rep
            }
            _ => {
                h.rec.attempted += 1;
                h.fail("arguments bound for the other pipeline".to_string());
                None
            }
        }
    }

    /// The facade device (untraced mode only), for workloads that also
    /// exercise queues and pools.
    pub fn facade(&self) -> Option<&Device> {
        match &self.inner {
            Inner::Facade(dev) => Some(dev),
            Inner::Staged(_) => None,
        }
    }
}

/// Front-end cost probe for one program: standalone `lower`, then a cold
/// and a warm zero-block launch on a scratch device memory. Returns
/// `(lower_us, lower_ops, cold_us, warm_us)`.
pub fn front_probe(
    spec: &DeviceSpec,
    prog: &Program,
    wd: &WorkDiv,
    n_bufs: (usize, usize),
) -> Option<(f64, u64, f64, f64)> {
    let t = Instant::now();
    let lowered = alpaka_sim::lower(std::hint::black_box(prog))?;
    let lower_us = t.elapsed().as_secs_f64() * 1e6;
    let ops = lowered.len() as u64;
    let mut mem = DeviceMem::new();
    let args = SimArgs {
        bufs_f: (0..n_bufs.0).map(|_| mem.alloc_f(1)).collect(),
        bufs_i: (0..n_bufs.1).map(|_| mem.alloc_i(1)).collect(),
        // No block runs, so no scalar is ever read; a generous zero-filled
        // set keeps any argument-count validation happy.
        params_f: vec![0.0; 8],
        params_i: vec![0; 8],
    };
    let zero = ExecMode::BlockRange { start: 0, end: 0 };
    let mut time_zero = || {
        let t = Instant::now();
        let r = run_kernel_launch_threads(spec, &mut mem, prog, wd, &args, zero, 1);
        r.ok().map(|_| t.elapsed().as_secs_f64() * 1e6)
    };
    let cold = time_zero()?;
    let warm = time_zero()?;
    Some((lower_us, ops, cold, warm))
}
