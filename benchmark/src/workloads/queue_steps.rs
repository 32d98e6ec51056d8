//! `queue_steps` — the application pattern of `examples/heat2d` and
//! `device_exclusive_scan`: a few programs launched hundreds of times per
//! repetition on small grids through `Queue` (NonBlocking with a
//! mid-stream `HostEvent`, and Blocking), with
//! upload/download/`copy_f64` every step, plus 8-shard `DevicePool` DAXPY
//! launches at pool size 2. The program caches hit, so what is left is the
//! facade (queue hand-off, the 50 us sleep-poll in `wait_event`, the kir
//! re-trace per enqueue, staging copies, shard round-trips) and the
//! simulator's whole-launch cost on grids of 8-1024 blocks.
//!
//! Shapes are the ones the repository itself runs: heat2d's defaults
//! (96x64 cells, 200 steps, 4x4 threads x 4 elements on a GPU), the scan
//! size of `scan_matches_reference_on_threaded_backends` (n=1000, block 64:
//! 8 blocks, ragged tail), `examples/pool_chaos`'s DAXPY (2^16 elements,
//! 1024 one-thread blocks of 64 elements, 8 shards).
//!
//! Queues and pools cannot be staged from outside, so the traced run puts
//! spans around the same public calls and takes the simulator's share from
//! `SimReport::host`.

use alpaka::{
    copy_f64, AccKind, Args, BufLayout, BufferF, Device, DevicePool, FaultPlan, HostEvent,
    LaunchSpec, Queue, QueueBehavior, WorkDiv, WorkDivSpec,
};
use alpaka_kernels::host::{daxpy_ref, jacobi_ref, random_vec};
use alpaka_kernels::scan::exclusive_scan_ref;
use alpaka_kernels::{DaxpyKernel, JacobiStep, ScanAddOffsets, ScanBlocks};

use super::{median_time, Workload};
use crate::harness::Harness;
use crate::metrics::MetricSet;
use crate::spans::Layer;
use crate::util::{bit_equal, host_cpus, rel_err};

const SCAN_BLOCK: usize = 64;
const SCAN_N: usize = 1000;
const ALPHA: f64 = 2.5;
const SHARDS: usize = 8;
const POOL_N: usize = 1 << 16;

/// Heat diffusion on one device: ping-pong Jacobi steps through a
/// NonBlocking queue, an event half way, one drain at the end.
struct Heat {
    name: &'static str,
    dev: Device,
    queue: Queue,
    a: BufferF,
    b: BufferF,
    wd: WorkDiv,
    init: Vec<f64>,
    want: Vec<f64>,
    got: Vec<f64>,
    /// Layer charged for buffer traffic: accsim on simulated devices, cpu
    /// on native ones.
    mem_layer: Layer,
}

/// The two-phase device scan through a Blocking queue.
struct Scan {
    queue: Queue,
    input: BufferF,
    output: BufferF,
    sums: BufferF,
    offs: BufferF,
    snapshot: BufferF,
    data: Vec<f64>,
    want: Vec<f64>,
    got: Vec<f64>,
    got_snapshot: Vec<f64>,
}

struct Pooled {
    spec: LaunchSpec<DaxpyKernel>,
    want: Vec<f64>,
    got: Vec<Vec<f64>>,
}

pub struct QueueSteps {
    seed: u64,
    toy: bool,
    rows: usize,
    cols: usize,
    steps: usize,
    scan_rounds: usize,
    pool_launches: usize,
    heat: Vec<Heat>,
    scan: Scan,
    pool: Pooled,
}

fn heat(
    name: &'static str,
    dev: Device,
    (rows, cols): (usize, usize),
    steps: usize,
    seed: u64,
) -> Heat {
    let bt = if dev.caps().requires_single_thread_blocks {
        1
    } else {
        4
    };
    let layout = BufLayout::d2(rows, cols, 8);
    let init = random_vec(rows * cols, seed);
    // Host reference: the same number of Jacobi steps.
    let (mut cur, mut next) = (init.clone(), vec![0.0; rows * cols]);
    for _ in 0..steps {
        jacobi_ref(rows, cols, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    Heat {
        name,
        queue: Queue::new(dev.clone(), QueueBehavior::NonBlocking),
        a: dev.alloc_f64(layout),
        b: dev.alloc_f64(layout),
        wd: JacobiStep::workdiv(rows, cols, bt, 4),
        mem_layer: if dev.is_simulated() {
            Layer::Accsim
        } else {
            Layer::Cpu
        },
        dev,
        init,
        want: cur,
        got: Vec::new(),
    }
}

impl QueueSteps {
    pub fn new(seed: u64, toy: bool) -> Self {
        let s = seed.wrapping_mul(1000);
        let (rows, cols, steps, scan_n, pool_n, scan_rounds, pool_launches) = if toy {
            (16, 16, 8, 200, 4096, 2, 1)
        } else {
            (96, 64, 200, SCAN_N, POOL_N, 60, 12)
        };
        let k20 = || Device::with_workers(AccKind::sim_k20(), 1);
        let cpu = Device::with_workers(AccKind::CpuBlocks, host_cpus().min(2));

        let scan = {
            let n = scan_n;
            let blocks = n.div_ceil(2 * SCAN_BLOCK);
            let dev = k20();
            let d1 = |len| dev.alloc_f64(BufLayout::d1(len));
            let data = random_vec(n, s + 3);
            Scan {
                queue: Queue::new(dev.clone(), QueueBehavior::Blocking),
                input: d1(n),
                output: d1(n),
                sums: d1(blocks),
                offs: d1(blocks),
                snapshot: d1(n),
                want: exclusive_scan_ref(&data),
                data,
                got: Vec::new(),
                got_snapshot: Vec::new(),
            }
        };

        let pool = {
            let n = pool_n;
            let x = random_vec(n, s + 4);
            let y = random_vec(n, s + 5);
            let mut want = y.clone();
            daxpy_ref(ALPHA, &x, &mut want);
            Pooled {
                spec: LaunchSpec::new(DaxpyKernel, WorkDivSpec::Fixed(WorkDiv::d1(n / 64, 1, 64)))
                    .arg_f(BufLayout::d1(n), x)
                    .arg_f(BufLayout::d1(n), y)
                    .scalar_f(ALPHA)
                    .scalar_i(n as i64),
                want,
                got: Vec::new(),
            }
        };

        QueueSteps {
            seed,
            toy,
            rows,
            cols,
            steps,
            scan_rounds,
            pool_launches,
            heat: vec![
                heat("heat_k20_nonblocking", k20(), (rows, cols), steps, s + 1),
                heat("heat_cpu_nonblocking", cpu, (rows, cols), steps, s + 2),
            ],
            scan,
            pool,
        }
    }

    fn run_heat(&mut self, which: usize, h: &mut Harness) {
        let (rows, cols, steps) = (self.rows as i64, self.cols as i64, self.steps);
        let t = &mut self.heat[which];
        let mem = t.mem_layer;
        h.op_in_span("upload", mem, || t.a.upload(&t.init));
        let pitch = t.a.layout().pitch as i64;
        let halfway = HostEvent::new();
        for s in 0..steps {
            let (src, dst) = if s % 2 == 0 {
                (&t.a, &t.b)
            } else {
                (&t.b, &t.a)
            };
            let args = Args::new()
                .buf_f(src)
                .buf_f(dst)
                .scalar_i(rows)
                .scalar_i(cols)
                .scalar_i(pitch);
            h.launch("enqueue_kernel", Layer::Alpaka, || {
                t.queue.enqueue_kernel(&JacobiStep, &t.wd, &args)?;
                Ok::<_, alpaka::Error>(t.queue.last_sim_report())
            });
            if s == steps / 2 {
                h.op_in_span("enqueue_event", Layer::Alpaka, || {
                    t.queue.enqueue_event(&halfway)
                });
            }
        }
        h.op_in_span("wait_event", Layer::Alpaka, || t.queue.wait_event(&halfway));
        h.op_in_span("wait", Layer::Alpaka, || t.queue.wait());
        let result = if steps % 2 == 0 { &t.a } else { &t.b };
        t.got = h
            .op_in_span("download", mem, || {
                Ok::<_, alpaka::Error>(result.download())
            })
            .unwrap_or_default();
    }

    fn run_scan(&mut self, h: &mut Harness) {
        let s = &mut self.scan;
        let n = s.data.len() as i64;
        let blocks = s.data.len().div_ceil(2 * SCAN_BLOCK);
        let wd = WorkDiv::d1(blocks, SCAN_BLOCK, 1);
        let wd_add = WorkDiv::d1(blocks, SCAN_BLOCK, 2);
        let scan_args = Args::new()
            .buf_f(&s.input)
            .buf_f(&s.output)
            .buf_f(&s.sums)
            .scalar_i(n);
        let add_args = Args::new().buf_f(&s.output).buf_f(&s.offs).scalar_i(n);
        let q = &s.queue;
        for _ in 0..self.scan_rounds {
            h.op_in_span("upload", Layer::Accsim, || s.input.upload(&s.data));
            h.launch("enqueue_kernel", Layer::Alpaka, || {
                q.enqueue_kernel(&ScanBlocks { block: SCAN_BLOCK }, &wd, &scan_args)?;
                Ok::<_, alpaka::Error>(q.last_sim_report())
            });
            // The block sums are few: scan them on the host, as
            // `device_exclusive_scan` does.
            let sums = h
                .op_in_span("download", Layer::Accsim, || {
                    Ok::<_, alpaka::Error>(s.sums.download())
                })
                .unwrap_or_default();
            let offsets = exclusive_scan_ref(&sums);
            h.op_in_span("upload", Layer::Accsim, || s.offs.upload(&offsets));
            h.launch("enqueue_kernel", Layer::Alpaka, || {
                q.enqueue_kernel(&ScanAddOffsets, &wd_add, &add_args)?;
                Ok::<_, alpaka::Error>(q.last_sim_report())
            });
            h.op_in_span("enqueue_copy", Layer::Alpaka, || {
                q.enqueue_copy_f64(&s.snapshot, &s.output)
            });
            h.op_in_span("wait", Layer::Alpaka, || q.wait());
        }
        // A direct device-to-device deep copy as well, outside the queue.
        h.op_in_span("copy_f64", Layer::Accsim, || {
            copy_f64(&s.snapshot, &s.output)
        });
        s.got = h
            .op_in_span("download", Layer::Accsim, || {
                Ok::<_, alpaka::Error>(s.output.download())
            })
            .unwrap_or_default();
        s.got_snapshot = h
            .op_in_span("download", Layer::Accsim, || {
                Ok::<_, alpaka::Error>(s.snapshot.download())
            })
            .unwrap_or_default();
    }

    fn run_pool(&mut self, h: &mut Harness) {
        // A fresh pool per repetition: shards allocate device buffers that
        // live as long as their device, so a long-lived pool would make
        // memory grow with the number of repetitions.
        let pool = h.op(
            "pool",
            DevicePool::new_sim_with_workers(AccKind::sim_k20(), 2, 1),
        );
        let Some(mut pool) = pool else { return };
        pool.clear_faults();
        self.pool.got.clear();
        for _ in 0..self.pool_launches {
            let spec = &self.pool.spec;
            let mut out = None;
            h.launch("pool_launch", Layer::Pool, || {
                pool.launch(spec, SHARDS).map(|o| {
                    // A pool launch has no single report; synthesise one
                    // carrying the merged statistics so totals include them.
                    let rep = alpaka::SimReport {
                        stats: o.stats,
                        time: alpaka_sim::TimeBreakdown {
                            total_s: o.serial_s,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    out = Some(o);
                    Some(rep)
                })
            });
            if let Some(mut o) = out {
                self.pool.got.push(o.bufs_f.swap_remove(1));
            }
        }
    }
}

impl Workload for QueueSteps {
    fn phases(&self) -> Vec<&'static str> {
        vec![
            self.heat[0].name,
            "scan_k20_blocking",
            self.heat[1].name,
            "pool2_daxpy_8shards",
        ]
    }

    fn run_phase(&mut self, phase: usize, h: &mut Harness) {
        match phase {
            0 => self.run_heat(0, h),
            1 => self.run_scan(h),
            2 => self.run_heat(1, h),
            _ => self.run_pool(h),
        }
    }

    fn check(&mut self, h: &mut Harness) {
        for t in &self.heat {
            h.check(t.name, rel_err(&t.got, &t.want) <= 1e-13);
        }
        let s = &self.scan;
        h.check("scan_k20_blocking", rel_err(&s.got, &s.want) <= 1e-13);
        h.check("scan snapshot copy", bit_equal(&s.got_snapshot, &s.got));
        let p = &self.pool;
        let all = p.got.len() == self.pool_launches && p.got.iter().all(|g| bit_equal(g, &p.want));
        h.check("pool2_daxpy_8shards", all);
    }

    fn probes(&mut self, _seed: u64, h: &mut Harness, m: &mut MetricSet) {
        let toy = self.toy;
        let reps = if toy { 20 } else { 400 };
        let k20 = Device::with_workers(AccKind::sim_k20(), 1);

        // accsim: allocation and the three copy directions, 8 MiB each.
        let n = if toy { 1 << 12 } else { 1 << 20 };
        let gb = (n * 8) as f64 / 1e9;
        let data = random_vec(n, self.seed);
        let t_alloc = median_time(9, || {
            std::hint::black_box(k20.alloc_f64(BufLayout::d1(n)));
        });
        let (src, dst) = (
            k20.alloc_f64(BufLayout::d1(n)),
            k20.alloc_f64(BufLayout::d1(n)),
        );
        let t_up = median_time(9, || {
            h.op("upload", src.upload(&data));
        });
        let t_down = median_time(9, || {
            std::hint::black_box(src.download());
        });
        let t_copy = median_time(9, || {
            h.op("copy_f64", copy_f64(&dst, &src));
        });
        m.insert("accsim.alloc_us", t_alloc * 1e6);
        m.insert("accsim.upload_gbps", gb / t_up);
        m.insert("accsim.download_gbps", gb / t_down);
        m.insert("accsim.copy_gbps", gb / t_copy);

        // alpaka queues: one Jacobi launch on the heat grid, caches warm.
        let (rows, cols) = (self.rows as i64, self.cols as i64);
        let jacobi = |dev: &Device| {
            let layout = BufLayout::d2(self.rows, self.cols, 8);
            let (a, b) = (dev.alloc_f64(layout), dev.alloc_f64(layout));
            let pitch = a.layout().pitch as i64;
            Args::new()
                .buf_f(&a)
                .buf_f(&b)
                .scalar_i(rows)
                .scalar_i(cols)
                .scalar_i(pitch)
        };
        {
            let q = Queue::new(k20.clone(), QueueBehavior::Blocking);
            let args = jacobi(&k20);
            let wd = self.heat[0].wd;
            h.op("enqueue_kernel", q.enqueue_kernel(&JacobiStep, &wd, &args));
            let t = median_time(reps, || {
                h.op("enqueue_kernel", q.enqueue_kernel(&JacobiStep, &wd, &args));
            });
            m.insert("alpaka.queue_blocking_us", t * 1e6);
            let t = median_time(reps, || {
                h.op("wait", q.wait());
            });
            m.insert("alpaka.queue_wait_idle_us", t * 1e6);
        }
        {
            let cpu = self.heat[1].dev.clone();
            let q = Queue::new(cpu.clone(), QueueBehavior::NonBlocking);
            let args = jacobi(&cpu);
            let wd = self.heat[1].wd;
            let t = median_time(reps, || {
                h.op("enqueue_kernel", q.enqueue_kernel(&JacobiStep, &wd, &args));
                h.op("wait", q.wait());
            });
            m.insert("alpaka.queue_nonblocking_us", t * 1e6);
            let t = median_time(reps, || {
                let ev = HostEvent::new();
                h.op("enqueue_event", q.enqueue_event(&ev));
                h.op("wait_event", q.wait_event(&ev));
            });
            m.insert("alpaka.event_us", t * 1e6);
        }

        // Pool orchestration against a direct launch of the same DAXPY.
        let spec = &self.pool.spec;
        let pool_reps = if toy { 3 } else { 15 };
        let pool_time = |h: &mut Harness, members: usize, plan: Option<FaultPlan>| {
            let mut outcome = None;
            let t = median_time(pool_reps, || {
                // Fresh pool per launch: a fault plan fires once per device.
                let Some(mut pool) = h.op(
                    "pool",
                    DevicePool::new_sim_with_workers(AccKind::sim_k20(), members, 1),
                ) else {
                    return;
                };
                pool.clear_faults();
                pool.set_member_faults(0, plan.clone());
                outcome = h.op("pool_launch", pool.launch(spec, SHARDS));
            });
            (t, outcome)
        };
        let n = spec.bufs_f[0].1.len();
        let t_direct = median_time(pool_reps, || {
            let dev = Device::with_workers(AccKind::sim_k20(), 1);
            let (x, y) = (
                dev.alloc_f64(BufLayout::d1(n)),
                dev.alloc_f64(BufLayout::d1(n)),
            );
            h.op("upload", x.upload(&spec.bufs_f[0].1));
            h.op("upload", y.upload(&spec.bufs_f[1].1));
            let args = Args::new()
                .buf_f(&x)
                .buf_f(&y)
                .scalar_f(ALPHA)
                .scalar_i(n as i64);
            h.op(
                "launch",
                dev.launch(&DaxpyKernel, &WorkDiv::d1(n / 64, 1, 64), &args),
            );
            std::hint::black_box(y.download());
        });
        let (t_p1, _) = pool_time(h, 1, None);
        let (t_p2, _) = pool_time(h, 2, None);
        // One recoverable fault: member 0 is lost at a seed-chosen shard
        // launch and its shard migrates to member 1.
        let lost_at = self.seed % (SHARDS as u64 / 2);
        let plan = FaultPlan::quiet(self.seed).with_lost_at_launch(lost_at);
        let (t_fault, faulty) = pool_time(h, 2, Some(plan));
        m.insert("alpaka.pool_overhead_ratio", t_p1 / t_direct);
        m.insert("alpaka.pool_shard_us", t_p1 * 1e6 / SHARDS as f64);
        m.insert("alpaka.pool_scaling_p2", t_p1 / t_p2);
        m.insert("alpaka.recovery_overhead_ratio", t_fault / t_p2);
        if let Some(o) = faulty {
            let recovered = bit_equal(&o.bufs_f[1], &self.pool.want);
            h.check("faulted pool launch recovers the exact result", recovered);
            let shards = o.shards.len() as f64;
            m.insert("alpaka.retries", f64::from(o.resilience.attempts) - shards);
            m.insert("alpaka.migrations", o.migrations.len() as f64);
        }
    }
}
