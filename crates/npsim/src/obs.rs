//! Zero-cost execution observers.
//!
//! An [`Observer`] receives per-instruction and per-memory-access callbacks
//! from the interpreter loops. The hooks are monomorphized: the loops are
//! generic over `O: Observer`, so the [`NullObserver`]'s empty inline
//! methods vanish entirely and the unobserved loops compile to exactly the
//! code they had before the hooks existed. Instrumentation (coverage, the
//! `npobs` crate's basic-block heat maps) pays only when attached.
//!
//! Design rule: `Observer` must never be used behind `dyn`. A virtual call
//! per retired instruction would put an indirect branch in the hottest loop
//! of the whole system; see DESIGN.md ("Observability").

use crate::isa::Inst;
use crate::mem::{AccessKind, Region};
use crate::util::BitSet;

/// Callbacks from the interpreter loops. Every method has an empty default
/// body so an observer implements only what it needs; every call site is
/// monomorphized, so unimplemented hooks cost nothing.
pub trait Observer {
    /// Whether the observer accepts block-granular retire events in place
    /// of per-instruction callbacks.
    ///
    /// The counts-only interpreter has a superblock fast path that retires
    /// whole basic blocks at once; inside a fully-retired block it calls
    /// neither [`Observer::on_inst`] nor [`Observer::on_mem`], only
    /// [`Observer::on_block`]. That path is only eligible when the
    /// attached observer opts in by setting this to `true` — an observer
    /// that does so must derive everything it needs from `on_block` plus
    /// the per-instruction hooks, which still fire on the engine's
    /// fallback paths (mid-block entries, instruction-budget tails).
    ///
    /// Defaults to `false`: an ordinary per-instruction observer keeps the
    /// per-instruction loop and sees every event, exactly as before.
    const BLOCK_LEVEL: bool = false;

    /// Whether the observer additionally tolerates *trace*-granular
    /// retires: a trip through a fused hot trace folds its accounting
    /// into one delta and reports each distinct member block it ran once
    /// through [`Observer::on_block`], however often it retired it. The
    /// set of executed blocks stays exact; their counts and order do not.
    /// Only meaningful when [`Observer::BLOCK_LEVEL`] is also `true`.
    ///
    /// Defaults to `false`, so block-granular observers (the `npobs`
    /// heat profiler) keep seeing every block retire and profiles stay
    /// block-accurate; only the [`NullObserver`] opts in, which is what
    /// routes unobserved counts-only production runs through the trace
    /// engine under `ExecPath::Auto`.
    const TRACE_LEVEL: bool = false;

    /// The set this observer records coverage into, if any. The
    /// interpreter swaps it with the run's cleared
    /// [`RunStats::executed`](crate::RunStats::executed) for the run.
    #[inline(always)]
    fn coverage(&mut self) -> Option<&mut BitSet> {
        None
    }

    /// A run (one packet, in PacketBench terms) is about to start.
    /// Per-run observer state (like the current basic block) resets here.
    #[inline(always)]
    fn on_run_start(&mut self) {}

    /// One instruction retired. `index` is the static instruction index in
    /// the program, `pc` its address.
    #[inline(always)]
    fn on_inst(&mut self, pc: u32, index: usize, inst: &Inst) {
        let _ = (pc, index, inst);
    }

    /// One data-memory access, already classified by region.
    #[inline(always)]
    fn on_mem(&mut self, addr: u32, size: u8, kind: AccessKind, region: Region) {
        let _ = (addr, size, kind, region);
    }

    /// One whole basic block retired by the superblock engine: block id
    /// `block`, spanning `len` instructions starting at static instruction
    /// index `first`. Only fires when [`Observer::BLOCK_LEVEL`] is `true`
    /// and the block engine is active (trace trips report members as
    /// [`Observer::TRACE_LEVEL`] says); equivalent per-instruction activity
    /// is reported through [`Observer::on_inst`] otherwise.
    #[inline(always)]
    fn on_block(&mut self, block: usize, first: usize, len: usize) {
        let _ = (block, first, len);
    }
}

/// The no-op observer: all hooks inline to nothing, so loops instantiated
/// with it are the uninstrumented loops. Block-level, so unobserved
/// counts-only runs are eligible for the superblock fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const BLOCK_LEVEL: bool = true;
    const TRACE_LEVEL: bool = true;
}

/// Records coverage, the static instructions a run executed, and forwards
/// every hook to `O`, keeping its block and trace levels.
#[derive(Debug, Clone, Default)]
pub struct Coverage<O = NullObserver> {
    executed: BitSet,
    inner: O,
}

impl<O> Coverage<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Coverage<O> {
        Coverage {
            executed: BitSet::default(),
            inner,
        }
    }

    /// The wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Observer> Observer for Coverage<O> {
    const BLOCK_LEVEL: bool = O::BLOCK_LEVEL;
    const TRACE_LEVEL: bool = O::TRACE_LEVEL;

    fn coverage(&mut self) -> Option<&mut BitSet> {
        Some(&mut self.executed)
    }

    fn on_run_start(&mut self) {
        self.inner.on_run_start();
    }

    #[inline(always)]
    fn on_inst(&mut self, pc: u32, index: usize, inst: &Inst) {
        self.executed.insert(index);
        self.inner.on_inst(pc, index, inst);
    }

    fn on_mem(&mut self, addr: u32, size: u8, kind: AccessKind, region: Region) {
        self.inner.on_mem(addr, size, kind, region);
    }

    #[inline(always)]
    fn on_block(&mut self, block: usize, first: usize, len: usize) {
        self.executed.insert_range(first..first + len);
        self.inner.on_block(block, first, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{reg, Inst, Op};

    #[derive(Default)]
    struct Counting {
        runs: u64,
        insts: u64,
        mems: u64,
    }

    impl Observer for Counting {
        fn on_run_start(&mut self) {
            self.runs += 1;
        }
        fn on_inst(&mut self, _pc: u32, _index: usize, _inst: &Inst) {
            self.insts += 1;
        }
        fn on_mem(&mut self, _addr: u32, _size: u8, _kind: AccessKind, _region: Region) {
            self.mems += 1;
        }
    }

    #[test]
    fn observer_sees_every_instruction_and_access() {
        use crate::{Cpu, Memory, MemoryMap, Program, RunConfig, RunStats};
        let map = MemoryMap::default();
        let program = Program::new(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::GP, 0),
                Inst::store(Op::Sw, reg::T0, reg::GP, 4),
                Inst::jr(reg::RA),
            ],
            map.text_base,
        );
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map);
        let mut stats = RunStats::for_program(program.len());
        let mut obs = Counting::default();
        cpu.run_observed(
            &mut mem,
            &RunConfig::default(),
            &mut crate::cpu::NoSys,
            &mut stats,
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.runs, 1);
        assert_eq!(obs.insts, stats.instret);
        assert_eq!(obs.mems, stats.mem.total());
    }

    #[test]
    fn observer_sees_both_loops_identically() {
        use crate::{Cpu, ExecPath, Memory, MemoryMap, Program, RunConfig, RunStats};
        let map = MemoryMap::default();
        let program = Program::new(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 3),
                Inst::with_imm(Op::Lw, reg::T1, reg::GP, 0),
                Inst::branch(Op::Bne, reg::T0, reg::ZERO, -4),
                Inst::jr(reg::RA),
            ],
            map.text_base,
        );
        let mut counts = Vec::new();
        for path in [ExecPath::Counts, ExecPath::Full] {
            let mut mem = Memory::new();
            let mut cpu = Cpu::new(&program, map);
            cpu.set_reg(reg::T0, 0);
            let mut stats = RunStats::for_program(program.len());
            let mut obs = Counting::default();
            // T0 becomes 3, loop loads until... bne t0,zero jumps back to
            // the lw forever? No: addi executes once, then lw/bne loop
            // would not terminate — bound the run instead.
            let config = RunConfig {
                max_instructions: 50,
                ..RunConfig::default()
            };
            let _ = cpu.run_into_path_observed(
                &mut mem,
                &config,
                &mut crate::cpu::NoSys,
                &mut stats,
                path,
                &mut obs,
            );
            counts.push((obs.runs, obs.insts, obs.mems, stats.instret));
        }
        assert_eq!(counts[0], counts[1]);
    }
}
