//! Capturing and comparing the observable outcome of one program run.
//!
//! Two interpreters conform when, run on identical inputs, they produce
//! identical [`Outcome`]s: the same `Result`, the same statistics, the same
//! final architectural state, and the same memory contents (compared by
//! [`npsim::Memory::digest`], which is independent of allocation history).
//!
//! [`RunStats`] deliberately has no `PartialEq` (its uarch side carries
//! floats); comparison here is field by field, which also lets every
//! mismatch be *named* — a failing conformance run says "packet_reads:
//! 3 vs 4", not just "stats differ".

use npsim::cpu::{CpuState, HaltReason, RunStats};
use npsim::{Interpreter, Memory, RunConfig, SimError, SysHandler};

/// Everything observable about one run of one program on one interpreter.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `Ok` carries how the run ended; `Err` the simulator fault.
    pub result: Result<HaltReason, SimError>,
    /// The recorded statistics (valid up to the fault point on error).
    pub stats: RunStats,
    /// Architectural state after the run.
    pub state: CpuState,
    /// Digest of the final memory contents.
    pub mem_digest: u64,
}

impl Outcome {
    /// Runs `interp` from reset over `mem` and captures the outcome.
    ///
    /// `seed` is applied between reset and run (register seeding, packet
    /// staging — whatever the caller's calling convention requires).
    pub fn capture(
        interp: &mut dyn Interpreter,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        seed: impl FnOnce(&mut dyn Interpreter, &mut Memory),
    ) -> Outcome {
        interp.reset();
        seed(interp, mem);
        let mut stats = RunStats::for_program(0);
        let result = interp
            .run_into(mem, config, handler, &mut stats)
            .map(|()| stats.halt);
        Outcome {
            result,
            stats,
            state: interp.state(),
            mem_digest: mem.digest(),
        }
    }

    /// Compares against another outcome, returning one line per divergent
    /// field. Empty means the outcomes are bit-identical at `level`.
    pub fn diff(&self, other: &Outcome, level: DiffLevel) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |field: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            if a != b {
                out.push(format!("{field}: {a} vs {b}"));
            }
        };

        check("result", &self.result, &other.result);
        check("instret", &self.stats.instret, &other.stats.instret);
        check("executed", &self.stats.executed, &other.stats.executed);
        check(
            "mem.packet_reads",
            &self.stats.mem.packet_reads,
            &other.stats.mem.packet_reads,
        );
        check(
            "mem.packet_writes",
            &self.stats.mem.packet_writes,
            &other.stats.mem.packet_writes,
        );
        check(
            "mem.data_reads",
            &self.stats.mem.data_reads,
            &other.stats.mem.data_reads,
        );
        check(
            "mem.data_writes",
            &self.stats.mem.data_writes,
            &other.stats.mem.data_writes,
        );
        check(
            "mem.stack_reads",
            &self.stats.mem.stack_reads,
            &other.stats.mem.stack_reads,
        );
        check(
            "mem.stack_writes",
            &self.stats.mem.stack_writes,
            &other.stats.mem.stack_writes,
        );
        check("mem.other", &self.stats.mem.other, &other.stats.mem.other);
        check("state.pc", &self.state.pc, &other.state.pc);
        for r in 0..32 {
            check(
                &format!("state.regs[{r}]"),
                &self.state.regs[r],
                &other.state.regs[r],
            );
        }
        check("mem_digest", &self.mem_digest, &other.mem_digest);

        if level == DiffLevel::Full {
            check(
                "pc_trace.len",
                &self.stats.pc_trace.len(),
                &other.stats.pc_trace.len(),
            );
            if let Some(i) = first_mismatch(&self.stats.pc_trace, &other.stats.pc_trace) {
                check(
                    &format!("pc_trace[{i}]"),
                    &self.stats.pc_trace.get(i),
                    &other.stats.pc_trace.get(i),
                );
            }
            check(
                "mem_trace.len",
                &self.stats.mem_trace.len(),
                &other.stats.mem_trace.len(),
            );
            if let Some(i) = first_mismatch(&self.stats.mem_trace, &other.stats.mem_trace) {
                check(
                    &format!("mem_trace[{i}]"),
                    &self.stats.mem_trace.get(i),
                    &other.stats.mem_trace.get(i),
                );
            }
        }
        out
    }
}

/// How much of an [`Outcome`] to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffLevel {
    /// Everything the counts-only loop records: result, counts, executed
    /// set, architectural state, memory. Used against the counts path,
    /// which by design records no traces.
    Counts,
    /// [`DiffLevel::Counts`] plus the PC and memory traces.
    Full,
}

/// Index of the first position where the sequences differ, if any.
fn first_mismatch<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use npsim::cpu::NoSys;
    use npsim::isa::{reg, Inst, Op};
    use npsim::{Cpu, MemoryMap, Program};

    fn outcome_of(insts: Vec<Inst>) -> Outcome {
        let map = MemoryMap::default();
        let program = Program::new(insts, map.text_base);
        let mut cpu = Cpu::new(&program, map);
        let mut mem = Memory::new();
        Outcome::capture(
            &mut cpu,
            &mut mem,
            &RunConfig::default(),
            &mut NoSys,
            |_, _| {},
        )
    }

    #[test]
    fn identical_runs_have_no_diff() {
        let insts = vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 5),
            Inst::jr(reg::RA),
        ];
        let a = outcome_of(insts.clone());
        let b = outcome_of(insts);
        assert!(a.diff(&b, DiffLevel::Full).is_empty());
    }

    #[test]
    fn divergences_are_named() {
        let a = outcome_of(vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 5),
            Inst::jr(reg::RA),
        ]);
        let b = outcome_of(vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 6),
            Inst::jr(reg::RA),
        ]);
        let diff = a.diff(&b, DiffLevel::Counts);
        assert!(
            diff.iter()
                .any(|line| line.starts_with(&format!("state.regs[{}]", reg::T0.index()))),
            "expected a named register divergence, got {diff:?}"
        );
    }

    #[test]
    fn error_outcomes_compare_too() {
        let ok = outcome_of(vec![Inst::jr(reg::RA)]);
        let err = outcome_of(vec![Inst::nop()]); // falls off the end
        let diff = ok.diff(&err, DiffLevel::Counts);
        assert!(diff.iter().any(|line| line.starts_with("result:")));
    }
}
