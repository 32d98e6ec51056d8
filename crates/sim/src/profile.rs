//! Per-instruction hot-spot profiling.
//!
//! When a launch is traced (its launcher's `Obs` has the sink on), both
//! engines attribute every counter they charge to the *source KIR statement*
//! that caused it, keyed by a canonical instruction index. The index is the
//! pre-order position of the statement in the program tree ([`Numbering`]),
//! which the compiled engine reproduces independently during lowering — so
//! the two engines (and any `ALPAKA_SIM_THREADS` team size) produce
//! identical [`KernelProfile`]s, and the profile's totals tie out against
//! [`LaunchStats`] exactly (see [`KernelProfile::check_against`]).
//!
//! `Stmt::Comment` statements are skipped (they execute nothing); control
//! headers (`if`/`for`/`while`) own their mask bookkeeping and per-iteration
//! issue, loop bodies own their own instructions.

use std::collections::HashMap;

use alpaka_kir::ir::Stmt;
use alpaka_kir::{stmt_label, Program};

use crate::stats::LaunchStats;

/// Canonical pre-order numbering of a program's non-comment statements.
#[derive(Debug)]
pub struct Numbering {
    ids: HashMap<usize, u32>,
    labels: Vec<String>,
}

impl Numbering {
    pub fn new(prog: &Program) -> Self {
        let mut ids = HashMap::new();
        let mut labels = Vec::new();
        prog.body.visit(&mut |s| {
            if matches!(s, Stmt::Comment(_)) {
                return;
            }
            ids.insert(s as *const Stmt as usize, labels.len() as u32);
            labels.push(stmt_label(s));
        });
        Numbering { ids, labels }
    }

    /// Number of profiled statements.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The canonical id of a statement of the *same* program instance the
    /// numbering was built from (identity-keyed).
    #[inline]
    pub fn id_of(&self, s: &Stmt) -> u32 {
        self.ids[&(s as *const Stmt as usize)]
    }

    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Fresh zeroed counter block, one slot per statement.
    pub fn counters(&self) -> Box<[InstrCounters]> {
        vec![InstrCounters::default(); self.len()].into_boxed_slice()
    }
}

/// Everything the simulator charges, attributed to one KIR statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrCounters {
    /// Warp-instructions issued (scalar + vectorized alike).
    pub issue: u64,
    /// Times the statement was dispatched with at least one active lane.
    pub execs: u64,
    /// Double-precision flops charged.
    pub flops: u64,
    /// Special-function ops charged.
    pub special: u64,
    pub global_loads: u64,
    pub global_stores: u64,
    pub mem_transactions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dram_bytes: u64,
    pub shared_accesses: u64,
    pub bank_conflict_cycles: u64,
    pub syncs: u64,
    pub atomics: u64,
    pub divergent_branches: u64,
}

impl InstrCounters {
    pub fn add(&mut self, o: &InstrCounters) {
        self.issue += o.issue;
        self.execs += o.execs;
        self.flops += o.flops;
        self.special += o.special;
        self.global_loads += o.global_loads;
        self.global_stores += o.global_stores;
        self.mem_transactions += o.mem_transactions;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.dram_bytes += o.dram_bytes;
        self.shared_accesses += o.shared_accesses;
        self.bank_conflict_cycles += o.bank_conflict_cycles;
        self.syncs += o.syncs;
        self.atomics += o.atomics;
        self.divergent_branches += o.divergent_branches;
    }

    /// Serialization cycles this statement contributed to the issue
    /// roofline (same weights as `estimate_time`).
    pub fn issue_cycles(&self) -> u64 {
        self.issue + self.bank_conflict_cycles + self.syncs * 8 + self.atomics * 16
    }
}

/// Merge `src` into `dst` slot-wise (deterministic worker merge).
pub fn merge_counters(dst: &mut [InstrCounters], src: &[InstrCounters]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.add(s);
    }
}

/// The per-instruction profile of one launch, attached to `SimReport` when
/// tracing is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name the launch executed.
    pub kernel: String,
    /// One-line source rendering per canonical statement id.
    pub labels: Vec<String>,
    /// Counters per canonical statement id (same length as `labels`).
    pub instrs: Vec<InstrCounters>,
}

impl KernelProfile {
    pub fn new(
        kernel: impl Into<String>,
        numbering: &Numbering,
        instrs: Vec<InstrCounters>,
    ) -> Self {
        debug_assert_eq!(numbering.len(), instrs.len());
        KernelProfile {
            kernel: kernel.into(),
            labels: numbering.labels().to_vec(),
            instrs,
        }
    }

    /// Sum of every per-instruction counter block.
    pub fn totals(&self) -> InstrCounters {
        let mut t = InstrCounters::default();
        for c in &self.instrs {
            t.add(c);
        }
        t
    }

    /// Verify the profile ties out against the launch's aggregate stats
    /// *exactly*: issued warp-instructions, flops, specials and every memory
    /// counter must match. Returns a description of the first mismatch.
    pub fn check_against(&self, stats: &LaunchStats) -> Result<(), String> {
        let t = self.totals();
        let checks: [(&str, u64, u64); 13] = [
            ("issue", t.issue, stats.scalar_issue + stats.vec_issue),
            ("flops", t.flops, stats.scalar_flops + stats.vec_flops),
            ("special", t.special, stats.special_ops),
            ("global_loads", t.global_loads, stats.global_loads),
            ("global_stores", t.global_stores, stats.global_stores),
            (
                "mem_transactions",
                t.mem_transactions,
                stats.mem_transactions,
            ),
            ("cache_hits", t.cache_hits, stats.cache_hits),
            ("cache_misses", t.cache_misses, stats.cache_misses),
            ("dram_bytes", t.dram_bytes, stats.dram_bytes),
            ("shared_accesses", t.shared_accesses, stats.shared_accesses),
            (
                "bank_conflict_cycles",
                t.bank_conflict_cycles,
                stats.bank_conflict_cycles,
            ),
            ("syncs", t.syncs, stats.syncs),
            ("atomics", t.atomics, stats.atomics),
        ];
        for (name, got, want) in checks {
            if got != want {
                return Err(format!("profile {name} = {got}, stats say {want}"));
            }
        }
        if t.divergent_branches != stats.divergent_branches {
            return Err(format!(
                "profile divergent_branches = {}, stats say {}",
                t.divergent_branches, stats.divergent_branches
            ));
        }
        Ok(())
    }

    /// Statement ids ranked by issue-cycle contribution, hottest first.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.instrs.len()).collect();
        order.sort_by_key(|&i| {
            std::cmp::Reverse((self.instrs[i].issue_cycles(), std::cmp::Reverse(i)))
        });
        order
    }

    /// Render the hottest `top` statements as a source-annotated table.
    pub fn render_table(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let total_cycles: u64 = self
            .instrs
            .iter()
            .map(|c| c.issue_cycles())
            .sum::<u64>()
            .max(1);
        let mut out = String::new();
        let _ = writeln!(out, "hot spots for kernel `{}`:", self.kernel);
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>12} {:>10} {:>12} {:>10} {:>8}  source",
            "rank", "id", "cycles", "cyc%", "flops", "dram_B", "execs"
        );
        for (rank, &i) in self.ranked().iter().take(top).enumerate() {
            let c = &self.instrs[i];
            if c.issue_cycles() == 0 && c.execs == 0 {
                break;
            }
            let _ = writeln!(
                out,
                "{:>4} {:>6} {:>12} {:>9.2}% {:>12} {:>10} {:>8}  {}",
                rank + 1,
                i,
                c.issue_cycles(),
                c.issue_cycles() as f64 * 100.0 / total_cycles as f64,
                c.flops,
                c.dram_bytes,
                c.execs,
                self.labels[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpaka_core::kernel::Kernel;
    use alpaka_core::ops::{KernelOps, KernelOpsExt};
    use alpaka_kir::trace_kernel;

    struct Daxpy;
    impl Kernel for Daxpy {
        fn name(&self) -> &str {
            "daxpy"
        }
        fn run<O: KernelOps>(&self, o: &mut O) {
            o.comment("y <- a*x + y");
            let x = o.buf_f(0);
            let y = o.buf_f(1);
            let a = o.param_f(0);
            let n = o.param_i(0);
            let i = o.global_thread_idx(0);
            let c = o.lt_i(i, n);
            o.if_(c, |o| {
                let xv = o.ld_gf(x, i);
                let yv = o.ld_gf(y, i);
                let r = o.fma_f(xv, a, yv);
                o.st_gf(y, i, r);
            });
        }
    }

    #[test]
    fn numbering_skips_comments_and_is_preorder() {
        let p = trace_kernel(&Daxpy, 1);
        let n = Numbering::new(&p);
        // Every non-comment statement gets exactly one id.
        let mut non_comment = 0usize;
        p.body.visit(&mut |s| {
            if !matches!(s, Stmt::Comment(_)) {
                non_comment += 1;
            }
        });
        assert_eq!(n.len(), non_comment);
        // The last statement in pre-order is the store inside the if.
        assert!(n.labels().last().unwrap().starts_with("st.global.f64"));
    }

    #[test]
    fn profile_table_ranks_by_cycles() {
        let p = trace_kernel(&Daxpy, 1);
        let n = Numbering::new(&p);
        let mut instrs = n.counters().to_vec();
        instrs[2].issue = 100;
        instrs[2].execs = 10;
        instrs[0].issue = 5;
        instrs[0].execs = 5;
        let prof = KernelProfile::new("daxpy", &n, instrs);
        assert_eq!(prof.ranked()[0], 2);
        let table = prof.render_table(3);
        assert!(table.contains("daxpy"), "{table}");
        let pos_hot = table.find(" 100 ").unwrap();
        let pos_cold = table.find("    5 ").unwrap();
        assert!(pos_hot < pos_cold, "{table}");
    }

    #[test]
    fn check_against_reports_mismatch() {
        let p = trace_kernel(&Daxpy, 1);
        let n = Numbering::new(&p);
        let mut instrs = n.counters().to_vec();
        instrs[0].issue = 7;
        let prof = KernelProfile::new("daxpy", &n, instrs);
        let stats = LaunchStats {
            scalar_issue: 7,
            ..Default::default()
        };
        assert!(prof.check_against(&stats).is_ok());
        let bad = LaunchStats {
            scalar_issue: 8,
            ..Default::default()
        };
        let err = prof.check_against(&bad).unwrap_err();
        assert!(err.contains("issue"), "{err}");
    }
}
