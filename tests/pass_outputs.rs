//! The optimiser's and the lowerer's output, pinned by content.
//!
//! `tests/data/pass_outputs.txt` was recorded before `cse`, `dce`, the
//! folder's tables, `renumber` and `validate` were rewritten to run in linear
//! time; this test regenerates it. One line per program: instruction counts
//! in and out, a hash of the `print_program` text after `optimize`, the
//! `PassStats`, and the lowered op count with a hash of the `WarpProgram`'s
//! debug text. Covered: every kernel of `alpaka-kernels` at six work
//! divisions (specialised, as the simulated devices compile them) and once
//! unspecialised, the HASE ASE kernel, and 200 `kir::testgen` programs.
//!
//! On a mismatch the regenerated text is left in the target tmp directory.

mod zoo;

use std::fmt::Write as _;

use alpaka::WorkDiv;
use alpaka_core::kernel::Kernel;
use alpaka_kir::{optimize, print_program, trace_kernel_spec, validate, Program, SpecConsts};

const RECORDED: &str = include_str!("data/pass_outputs.txt");

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Optimise `p` and append its line to `out`.
fn record(out: &mut String, label: &str, mut p: Program) {
    let instrs_in = p.instr_count();
    let stats = optimize(&mut p);
    validate(&p).unwrap_or_else(|e| panic!("{label}: {e}"));
    let lowered = alpaka_sim::lower(&p).unwrap_or_else(|| panic!("{label}: does not lower"));
    writeln!(
        out,
        "{label} | in={instrs_in} out={} stmts={} vals={} text={:016x} | folded={} aliased={} \
         unrolled={} removed={} rounds={} | lower_ops={} lowered={:016x}",
        p.instr_count(),
        p.body.stmt_count(),
        p.n_vals,
        fnv64(&print_program(&p)),
        stats.folded,
        stats.aliased,
        stats.unrolled,
        stats.removed,
        stats.rounds,
        lowered.len(),
        fnv64(&format!("{lowered:?}")),
    )
    .unwrap();
}

fn specialised(wd: &WorkDiv) -> SpecConsts {
    SpecConsts {
        block_thread_extent: Some(wd.threads),
        thread_elem_extent: Some(wd.elems),
    }
}

struct Recorder(String);

impl zoo::Visitor for Recorder {
    fn case<K: Kernel>(&mut self, label: &str, nth: usize, k: &K, wd: WorkDiv, _: zoo::Inputs) {
        let traced = trace_kernel_spec(k, wd.dim, specialised(&wd));
        record(&mut self.0, label, traced);
        if nth == 0 {
            let generic = trace_kernel_spec(k, wd.dim, SpecConsts::default());
            record(&mut self.0, &format!("{label} (unspecialised)"), generic);
        }
    }
}

#[test]
fn optimised_and_lowered_programs_match_the_recording() {
    let mut r = Recorder(String::new());
    zoo::for_each_case(&mut r);
    let mut out = r.0;
    for (t, e) in [(32, 1), (1, 8), (64, 2), (128, 1), (1, 1), (16, 4)] {
        let wd = WorkDiv::d1(4, t, e);
        let ase = trace_kernel_spec(&hase::AseKernel, 1, specialised(&wd));
        record(&mut out, &format!("hase_ase t{t} e{e}"), ase);
    }
    let ase = trace_kernel_spec(&hase::AseKernel, 1, SpecConsts::default());
    record(&mut out, "hase_ase (unspecialised)", ase);
    for s in 0..200u64 {
        let seed = [s, s ^ 0xDEAD, s.wrapping_mul(7)];
        let p = alpaka_kir::testgen::gen_program(&seed, 6 + (s % 12) as usize);
        record(&mut out, &format!("testgen {s}"), p);
    }

    if out != RECORDED {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pass_outputs.txt");
        std::fs::write(&path, &out).expect("the target tmp directory is writable");
        let line = out
            .lines()
            .zip(RECORDED.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(RECORDED.lines().count()));
        panic!(
            "pass output differs from tests/data/pass_outputs.txt at line {}:\n  now:      {}\n  \
             recorded: {}\n(regenerated text written to {})",
            line + 1,
            out.lines().nth(line).unwrap_or("<end>"),
            RECORDED.lines().nth(line).unwrap_or("<end>"),
            path.display()
        );
    }
}
