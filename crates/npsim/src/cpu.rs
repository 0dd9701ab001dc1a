//! The NP32 interpreter and its per-run statistics.
//!
//! A [`Cpu`] executes a [`Program`] against a [`Memory`] until the program
//! returns to the framework (jumping to [`crate::RETURN_SENTINEL`]), executes
//! `halt`, or a [`SysHandler`] stops the run. Every run produces a
//! [`RunStats`] carrying the paper's per-packet raw material: instruction
//! counts, the executed-instruction bit set, region-classified memory access
//! counts, and (optionally) full PC and memory traces plus
//! micro-architectural model results.

use crate::bblock::{BlockTable, TermKind, UOp, UOpKind};
use crate::error::SimError;
use crate::isa::{Inst, Op, Reg};
use crate::mem::{AccessKind, MemEvent, Memory, MemoryMap, Region};
use crate::obs::{NullObserver, Observer};
use crate::trace::{Guard, TraceEntry};
use crate::uarch::{Uarch, UarchConfig};
use crate::util::BitSet;
use crate::RETURN_SENTINEL;

/// An executable NP32 text image: decoded instructions at a base address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
    text_base: u32,
}

impl Program {
    /// Wraps decoded instructions placed at `text_base`.
    pub fn new(insts: Vec<Inst>, text_base: u32) -> Program {
        Program { insts, text_base }
    }

    /// The instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The base address of the text.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Text size in bytes.
    pub fn text_bytes(&self) -> u32 {
        (self.insts.len() * 4) as u32
    }

    /// Converts a PC to an instruction index, if it falls in the text.
    pub fn index_of(&self, pc: u32) -> Option<usize> {
        if pc < self.text_base || !pc.is_multiple_of(4) {
            return None;
        }
        let index = ((pc - self.text_base) / 4) as usize;
        (index < self.insts.len()).then_some(index)
    }

    /// Converts an instruction index to its PC.
    pub fn pc_of(&self, index: usize) -> u32 {
        self.text_base + (index as u32) * 4
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// The program jumped to [`crate::RETURN_SENTINEL`] — the normal
    /// "application returned to framework" path.
    Returned,
    /// The program executed `halt`.
    Halted,
    /// A [`SysHandler`] requested the run stop.
    SysStop,
}

/// What a [`SysHandler`] wants the interpreter to do after a `sys`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOutcome {
    /// Resume at the next instruction.
    Continue,
    /// End the run with [`HaltReason::SysStop`].
    Stop,
}

/// Handler for the `sys` instruction — the PacketBench API boundary.
///
/// The framework installs a handler that implements `send_packet`,
/// `drop_packet`, and `write_packet_to_file`. Work done inside the handler
/// runs on the host and is *not* counted in the statistics, mirroring the
/// paper's selective accounting of framework functions.
pub trait SysHandler {
    /// Handles `sys code`. May read and write registers and memory.
    ///
    /// # Errors
    ///
    /// Implementations should return [`SimError::UnknownSyscall`] for call
    /// numbers they do not implement.
    fn sys(
        &mut self,
        code: u32,
        regs: &mut [u32; 32],
        mem: &mut Memory,
    ) -> Result<SysOutcome, SimError>;
}

/// A handler that rejects every `sys` — the default for programs that are
/// not supposed to call the framework.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoSys;

impl SysHandler for NoSys {
    fn sys(
        &mut self,
        code: u32,
        _regs: &mut [u32; 32],
        _mem: &mut Memory,
    ) -> Result<SysOutcome, SimError> {
        Err(SimError::UnknownSyscall { code, pc: 0 })
    }
}

/// Per-run recording options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Abort with [`SimError::InstructionBudgetExceeded`] after this many
    /// instructions — a guard against non-terminating programs.
    pub max_instructions: u64,
    /// Record the full sequence of executed PCs (paper Fig. 6).
    pub record_pc_trace: bool,
    /// Record every data-memory access as a [`MemEvent`]
    /// (paper Fig. 9, Table IV).
    pub record_mem_trace: bool,
    /// Attach micro-architectural models.
    pub uarch: Option<UarchConfig>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            max_instructions: 50_000_000,
            record_pc_trace: false,
            record_mem_trace: false,
            uarch: None,
        }
    }
}

/// Region-classified counts of data-memory accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounts {
    /// Loads from the packet buffer.
    pub packet_reads: u64,
    /// Stores to the packet buffer.
    pub packet_writes: u64,
    /// Loads from program data.
    pub data_reads: u64,
    /// Stores to program data.
    pub data_writes: u64,
    /// Loads from the stack.
    pub stack_reads: u64,
    /// Stores to the stack.
    pub stack_writes: u64,
    /// Accesses outside all mapped regions.
    pub other: u64,
}

impl MemCounts {
    /// Accesses to packet memory (paper Table III, "Packet").
    pub fn packet_total(&self) -> u64 {
        self.packet_reads + self.packet_writes
    }

    /// Accesses to non-packet data memory (paper Table III, "Non-packet"):
    /// program data, stack, and unmapped addresses.
    pub fn non_packet_total(&self) -> u64 {
        self.data_reads + self.data_writes + self.stack_reads + self.stack_writes + self.other
    }

    /// All data-memory accesses.
    pub fn total(&self) -> u64 {
        self.packet_total() + self.non_packet_total()
    }

    /// Counts one classified access. Public so alternative interpreters
    /// (the conformance reference model) account accesses through the
    /// exact same bucketing as the optimized loops.
    #[inline]
    pub fn record(&mut self, region: Region, kind: AccessKind) {
        match (region, kind) {
            (Region::Packet, AccessKind::Read) => self.packet_reads += 1,
            (Region::Packet, AccessKind::Write) => self.packet_writes += 1,
            (Region::ProgramData, AccessKind::Read) => self.data_reads += 1,
            (Region::ProgramData, AccessKind::Write) => self.data_writes += 1,
            (Region::Stack, AccessKind::Read) => self.stack_reads += 1,
            (Region::Stack, AccessKind::Write) => self.stack_writes += 1,
            _ => self.other += 1,
        }
    }

    /// Counts a pre-classified group of accesses in one shot — the block
    /// engine's fused retire path. Equivalent to `reads + writes` calls to
    /// [`MemCounts::record`] with the same region, because every bucket is
    /// a plain sum.
    #[inline]
    pub fn record_group(&mut self, region: Region, reads: u64, writes: u64) {
        match region {
            Region::Packet => {
                self.packet_reads += reads;
                self.packet_writes += writes;
            }
            Region::ProgramData => {
                self.data_reads += reads;
                self.data_writes += writes;
            }
            Region::Stack => {
                self.stack_reads += reads;
                self.stack_writes += writes;
            }
            _ => self.other += reads + writes,
        }
    }

    /// Adds another count set into this one.
    pub fn merge(&mut self, other: &MemCounts) {
        self.packet_reads += other.packet_reads;
        self.packet_writes += other.packet_writes;
        self.data_reads += other.data_reads;
        self.data_writes += other.data_writes;
        self.stack_reads += other.stack_reads;
        self.stack_writes += other.stack_writes;
        self.other += other.other;
    }
}

/// Micro-architectural results of a run (present when
/// [`RunConfig::uarch`] was set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UarchStats {
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted by the bimodal predictor.
    pub mispredictions: u64,
    /// Instruction-cache accesses.
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache accesses.
    pub dcache_accesses: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// Modelled pipeline cycles (see [`crate::uarch::TimingConfig`]).
    pub cycles: u64,
    /// Cycles lost to stalls (cache misses, hazards, mispredictions).
    pub stall_cycles: u64,
}

impl UarchStats {
    /// Cycles per instruction under the timing model.
    pub fn cpi(&self, instret: u64) -> f64 {
        if instret == 0 {
            0.0
        } else {
            self.cycles as f64 / instret as f64
        }
    }
}

/// Everything recorded about one run (one packet, in PacketBench terms).
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Instructions executed.
    pub instret: u64,
    /// Which static instructions executed at least once
    /// (index = instruction index in the program).
    pub executed: BitSet,
    /// Region-classified data-memory access counts.
    pub mem: MemCounts,
    /// Executed PCs in order (empty unless requested).
    pub pc_trace: Vec<u32>,
    /// Data-memory accesses in order (empty unless requested).
    pub mem_trace: Vec<MemEvent>,
    /// Why the run ended.
    pub halt: HaltReason,
    /// Micro-architectural model results, if models were attached.
    pub uarch: Option<UarchStats>,
}

impl RunStats {
    /// The number of *unique* static instructions executed
    /// (paper Table VI / Fig. 6 y-axis).
    pub fn unique_instructions(&self) -> usize {
        self.executed.count()
    }

    /// Empty statistics sized for a program of `len` static instructions.
    pub fn for_program(len: usize) -> RunStats {
        RunStats {
            instret: 0,
            executed: BitSet::new(len),
            mem: MemCounts::default(),
            pc_trace: Vec::new(),
            mem_trace: Vec::new(),
            halt: HaltReason::Returned,
            uarch: None,
        }
    }

    /// Resets every counter for a program of `len` static instructions,
    /// reusing the existing allocations when capacities match — this is
    /// what makes repeated packet runs allocation-free.
    pub fn reset_for(&mut self, len: usize) {
        self.instret = 0;
        if self.executed.capacity() == len {
            self.executed.clear();
        } else {
            self.executed = BitSet::new(len);
        }
        self.mem = MemCounts::default();
        self.pc_trace.clear();
        self.mem_trace.clear();
        self.halt = HaltReason::Returned;
        self.uarch = None;
    }
}

/// A complete architectural-state snapshot: the register file and the PC.
///
/// Two interpreters that agree on [`RunStats`] *and* on `CpuState` (and on
/// a [`crate::Memory::digest`] of memory) after every run are
/// architecturally indistinguishable — this is the comparison surface of
/// the differential conformance harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuState {
    /// The register file (`regs[0]` is zero by construction).
    pub regs: [u32; 32],
    /// The program counter after the run.
    pub pc: u32,
}

/// Which of the monomorphized interpreter loops to run.
///
/// [`Cpu::run_into`] picks automatically; the conformance harness forces
/// each loop in turn so both are differentially tested against the
/// reference model under identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Pick from the [`RunConfig`]: counts-only when no traces and no
    /// uarch models are requested, full otherwise.
    Auto,
    /// Force the counts-only loop. Trace flags and uarch models in the
    /// config are ignored (that loop cannot record them).
    Counts,
    /// Force the full-detail loop, even for a counts-only config.
    Full,
    /// Force the superblock engine: counts-only accounting retired at
    /// basic-block granularity through a [`BlockTable`] (one is built on
    /// the fly if the CPU was not given one via [`Cpu::with_blocks`]).
    /// Trace flags and uarch models are ignored, as with
    /// [`ExecPath::Counts`]; per-instruction observer hooks only fire on
    /// the engine's fallback paths (see [`Observer::BLOCK_LEVEL`]).
    /// Hot-trace formation stays off: this is the pure block-level leg.
    Block,
    /// Force the superblock engine *with* the hot-trace layer: after the
    /// table's warm-up, biased block chains fuse into traces retired with
    /// one delta per complete trip (see [`crate::trace`]). Observable
    /// outcomes are bit-identical to [`ExecPath::Block`]; this is the
    /// trace engine's differential-conformance leg.
    Trace,
}

/// Where control lands after a trip through a fused trace: either at a
/// known block leader (stay in the chained dispatch loop) or at a pc the
/// table has no leader for (fall back to cold per-instruction dispatch).
enum TraceExit {
    Block(usize),
    Cold,
}

/// A pluggable NP32 interpreter: anything that can boot, be seeded, run a
/// program against a [`Memory`], and expose its architectural state.
///
/// [`Cpu`] (the optimized simulator) implements this; the conformance
/// crate's deliberately-simple reference interpreter implements it too, so
/// the framework can drive either through one code path.
pub trait Interpreter {
    /// Returns to the boot state: registers cleared, `sp`/`ra`/`gp` seeded
    /// from the memory map, PC at the text base.
    fn reset(&mut self);

    /// Sets the program counter.
    fn set_pc(&mut self, pc: u32);

    /// Writes a register (writes to `zero` are discarded).
    fn set_reg(&mut self, r: Reg, value: u32);

    /// Snapshots the architectural state.
    fn state(&self) -> CpuState;

    /// Runs until the program returns, halts, is stopped by the handler,
    /// or errors, recording into caller-provided statistics.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run_with`].
    fn run_into(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
    ) -> Result<(), SimError>;
}

/// The NP32 interpreter.
///
/// The register file and PC are public: the framework seeds `a0`/`a1` with
/// the packet pointer and length, `gp` with the data base, `sp` with the
/// stack top, and `ra` with [`crate::RETURN_SENTINEL`] before each packet.
#[derive(Debug)]
pub struct Cpu<'p> {
    /// The register file (`regs[0]` stays zero).
    pub regs: [u32; 32],
    /// The program counter.
    pub pc: u32,
    program: &'p Program,
    map: MemoryMap,
    /// Predecoded superblock table for the block engine, when the caller
    /// shares one (PacketBench builds it once per app).
    blocks: Option<&'p BlockTable>,
    /// Times the superblock engine bailed out to the per-instruction
    /// loop (mid-block entry or instruction-budget risk). Telemetry
    /// only — cumulative across [`Cpu::reset`], never part of
    /// [`RunStats`], so conformance comparisons stay untouched.
    block_bailouts: u64,
}

impl<'p> Cpu<'p> {
    /// Creates a CPU positioned at the program's first instruction, with
    /// `sp` at the map's stack top and `ra` at the return sentinel.
    pub fn new(program: &'p Program, map: MemoryMap) -> Cpu<'p> {
        let mut regs = [0u32; 32];
        regs[crate::reg::SP.index()] = map.stack_top;
        regs[crate::reg::RA.index()] = RETURN_SENTINEL;
        regs[crate::reg::GP.index()] = map.data_base;
        Cpu {
            regs,
            pc: program.text_base(),
            program,
            map,
            blocks: None,
            block_bailouts: 0,
        }
    }

    /// Attaches a predecoded [`BlockTable`] (built from the same program),
    /// making counts-only runs eligible for the superblock engine under
    /// [`ExecPath::Auto`]. Without a table, [`ExecPath::Auto`] keeps the
    /// per-instruction counts loop and [`ExecPath::Block`] builds a
    /// throwaway table per run.
    pub fn with_blocks(mut self, table: &'p BlockTable) -> Cpu<'p> {
        self.blocks = Some(table);
        self
    }

    /// The memory map in force.
    pub fn map(&self) -> MemoryMap {
        self.map
    }

    /// Times the superblock engine bailed out to the per-instruction
    /// loop since construction. Pure telemetry: bail-outs are a
    /// deterministic function of program + input, and never affect
    /// [`RunStats`].
    pub fn block_bailouts(&self) -> u64 {
        self.block_bailouts
    }

    /// Returns to the boot state [`Cpu::new`] leaves the CPU in, so one
    /// CPU can be reused across packets.
    pub fn reset(&mut self) {
        self.regs = [0u32; 32];
        self.regs[crate::reg::SP.index()] = self.map.stack_top;
        self.regs[crate::reg::RA.index()] = RETURN_SENTINEL;
        self.regs[crate::reg::GP.index()] = self.map.data_base;
        self.pc = self.program.text_base();
    }

    /// Snapshots the architectural state (registers + PC).
    pub fn state(&self) -> CpuState {
        CpuState {
            regs: self.regs,
            pc: self.pc,
        }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `zero` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = value;
        }
    }

    /// Runs until the program returns, halts, or errors, rejecting `sys`.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run_with`].
    pub fn run(&mut self, mem: &mut Memory, config: &RunConfig) -> Result<RunStats, SimError> {
        self.run_with(mem, config, &mut NoSys)
    }

    /// Runs until the program returns, halts, is stopped by the handler, or
    /// errors.
    ///
    /// # Errors
    ///
    /// * [`SimError::PcOutOfRange`] / [`SimError::MisalignedPc`] — control
    ///   flow escaped the text region.
    /// * [`SimError::InstructionBudgetExceeded`] — ran past
    ///   [`RunConfig::max_instructions`].
    /// * Any error returned by the [`SysHandler`].
    pub fn run_with(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
    ) -> Result<RunStats, SimError> {
        let mut stats = RunStats::for_program(self.program.len());
        self.run_into(mem, config, handler, &mut stats)?;
        Ok(stats)
    }

    /// Like [`Cpu::run_with`], but records into caller-provided statistics
    /// (reset on entry), so a run performs no heap allocation when `stats`
    /// is reused across packets and no traces are requested.
    ///
    /// On error `stats` holds whatever was recorded up to the fault.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run_with`].
    pub fn run_into(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        self.run_into_path(mem, config, handler, stats, ExecPath::Auto)
    }

    /// Like [`Cpu::run_into`], but lets the caller force one of the two
    /// monomorphized loops. The differential conformance harness uses this
    /// to test the counts-only and full-detail loops separately against
    /// the reference interpreter; everything else should use
    /// [`ExecPath::Auto`].
    ///
    /// With [`ExecPath::Counts`] forced, trace flags and uarch models in
    /// `config` are ignored.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run_with`].
    pub fn run_into_path(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
        path: ExecPath,
    ) -> Result<(), SimError> {
        self.run_into_path_observed(mem, config, handler, stats, path, &mut NullObserver)
    }

    /// Like [`Cpu::run_into`], but streams every retired instruction and
    /// classified memory access into an [`Observer`].
    ///
    /// The observer is a monomorphized type parameter, never a trait
    /// object: instantiated with [`NullObserver`] this is exactly
    /// [`Cpu::run_into`], at zero cost. The `npobs` crate's basic-block
    /// heat profiler attaches here.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run_with`].
    pub fn run_observed<O: Observer>(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
        obs: &mut O,
    ) -> Result<(), SimError> {
        self.run_into_path_observed(mem, config, handler, stats, ExecPath::Auto, obs)
    }

    /// The fully-general entry point: forced execution path plus observer.
    /// Everything else is sugar over this.
    ///
    /// # Errors
    ///
    /// See [`Cpu::run_with`].
    pub fn run_into_path_observed<O: Observer>(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
        path: ExecPath,
        obs: &mut O,
    ) -> Result<(), SimError> {
        stats.reset_for(self.program.len());
        obs.on_run_start();
        let counts_only = match path {
            // Two monomorphic loops: the lean one drops every
            // per-instruction branch that only matters when traces or
            // uarch models are on, which is what `Detail::counts()` runs
            // all day.
            ExecPath::Auto => {
                config.uarch.is_none() && !config.record_pc_trace && !config.record_mem_trace
            }
            ExecPath::Counts | ExecPath::Block | ExecPath::Trace => true,
            ExecPath::Full => false,
        };
        // Counts-only runs step up to block granularity when a predecoded
        // table is attached and the observer accepts block-level events;
        // the conformance harness can also force the engine outright.
        let use_blocks = match path {
            ExecPath::Auto => counts_only && O::BLOCK_LEVEL && self.blocks.is_some(),
            ExecPath::Block | ExecPath::Trace => true,
            _ => false,
        };
        // And further up to trace granularity when the observer needs no
        // events at all inside fused trips; [`ExecPath::Block`] stays
        // trace-free so the pure block leg remains differentially
        // testable on its own.
        let use_traces = match path {
            ExecPath::Auto => use_blocks && O::TRACE_LEVEL,
            ExecPath::Trace => true,
            _ => false,
        };
        let mut uarch = if counts_only {
            None
        } else {
            config.uarch.as_ref().map(Uarch::new)
        };
        if use_blocks {
            if let Some(table) = self.blocks {
                if use_traces {
                    self.exec_blocks::<true, O>(mem, config, handler, stats, table, obs)?;
                } else {
                    self.exec_blocks::<false, O>(mem, config, handler, stats, table, obs)?;
                }
            } else {
                let table = BlockTable::build(self.program);
                if use_traces {
                    self.exec_blocks::<true, O>(mem, config, handler, stats, &table, obs)?;
                } else {
                    self.exec_blocks::<false, O>(mem, config, handler, stats, &table, obs)?;
                }
            }
        } else if counts_only {
            self.exec::<false, O>(mem, config, handler, stats, &mut uarch, obs)?;
        } else {
            self.exec::<true, O>(mem, config, handler, stats, &mut uarch, obs)?;
        }

        if let Some(u) = uarch {
            stats.uarch = Some(UarchStats {
                branches: u.predictor.predictions(),
                mispredictions: u.predictor.mispredictions(),
                icache_accesses: u.icache.accesses(),
                icache_misses: u.icache.misses(),
                dcache_accesses: u.dcache.accesses(),
                dcache_misses: u.dcache.misses(),
                cycles: u.cycles(),
                stall_cycles: u.stall_cycles(),
            });
        }
        Ok(())
    }

    /// The interpreter loop. `FULL` compiles in PC/memory tracing and the
    /// uarch hooks; `FULL = false` requires `uarch` to be `None` and both
    /// trace flags off, and records only what `Detail::counts()` needs.
    /// `O` is the monomorphized observer; with [`NullObserver`] every hook
    /// folds away and both loops are byte-for-byte the unobserved loops.
    fn exec<const FULL: bool, O: Observer>(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
        uarch: &mut Option<Uarch>,
        obs: &mut O,
    ) -> Result<(), SimError> {
        // Hoist the dispatch state: the program reference outlives `self`'s
        // borrow, so the fetch below is one fused compare and an index.
        let program: &'p Program = self.program;
        let text_base = program.text_base();
        let insts = program.insts();
        let max_instructions = config.max_instructions;
        // The fused range check below folds the sentinel test into the
        // out-of-range cold path; that is only sound while the sentinel
        // cannot alias a text address.
        debug_assert!(
            ((RETURN_SENTINEL.wrapping_sub(text_base) >> 2) as usize) >= insts.len(),
            "return sentinel aliases the text region"
        );

        loop {
            // One branch on the hot path: in-range, 4-aligned PCs fall
            // through; sentinel, misaligned, and escaped PCs all land in
            // the cold arm, which re-checks in the documented order.
            let offset = self.pc.wrapping_sub(text_base);
            let index = (offset >> 2) as usize;
            if offset & 3 != 0 || index >= insts.len() {
                if self.pc == RETURN_SENTINEL {
                    stats.halt = HaltReason::Returned;
                    break;
                }
                if !self.pc.is_multiple_of(4) {
                    return Err(SimError::MisalignedPc { pc: self.pc });
                }
                return Err(SimError::PcOutOfRange { pc: self.pc });
            }
            if stats.instret >= max_instructions {
                return Err(SimError::InstructionBudgetExceeded {
                    limit: max_instructions,
                });
            }
            let inst = insts[index];
            stats.instret += 1;
            stats.executed.insert(index);
            obs.on_inst(self.pc, index, &inst);
            if FULL {
                if config.record_pc_trace {
                    stats.pc_trace.push(self.pc);
                }
                if let Some(u) = uarch.as_mut() {
                    u.retire(self.pc, &inst);
                }
            }

            let next_pc = self.pc.wrapping_add(4);
            let mut target = next_pc;

            macro_rules! load {
                ($addr:expr, $size:expr) => {{
                    let addr: u32 = $addr;
                    if FULL {
                        self.note_access(
                            &mut *stats,
                            uarch.as_mut(),
                            config,
                            addr,
                            $size,
                            AccessKind::Read,
                            &mut *obs,
                        );
                    } else {
                        let region = self.map.region(addr);
                        stats.mem.record(region, AccessKind::Read);
                        obs.on_mem(addr, $size, AccessKind::Read, region);
                    }
                    addr
                }};
            }
            macro_rules! store {
                ($addr:expr, $size:expr) => {{
                    let addr: u32 = $addr;
                    if FULL {
                        self.note_access(
                            &mut *stats,
                            uarch.as_mut(),
                            config,
                            addr,
                            $size,
                            AccessKind::Write,
                            &mut *obs,
                        );
                    } else {
                        let region = self.map.region(addr);
                        stats.mem.record(region, AccessKind::Write);
                        obs.on_mem(addr, $size, AccessKind::Write, region);
                    }
                    addr
                }};
            }

            let rs1 = self.regs[inst.rs1.index()];
            let rs2 = self.regs[inst.rs2.index()];
            let imm = inst.imm;
            let rd = inst.rd.index();

            // Arms write `regs[rd]` unconditionally; the `regs[0] = 0`
            // after the match undoes any write to the zero register, which
            // trades a data-dependent branch per ALU op for one store.
            match inst.op {
                Op::Add => self.regs[rd] = rs1.wrapping_add(rs2),
                Op::Sub => self.regs[rd] = rs1.wrapping_sub(rs2),
                Op::And => self.regs[rd] = rs1 & rs2,
                Op::Or => self.regs[rd] = rs1 | rs2,
                Op::Xor => self.regs[rd] = rs1 ^ rs2,
                Op::Nor => self.regs[rd] = !(rs1 | rs2),
                Op::Sll => self.regs[rd] = rs1.wrapping_shl(rs2 & 31),
                Op::Srl => self.regs[rd] = rs1.wrapping_shr(rs2 & 31),
                Op::Sra => self.regs[rd] = ((rs1 as i32).wrapping_shr(rs2 & 31)) as u32,
                Op::Slt => self.regs[rd] = ((rs1 as i32) < (rs2 as i32)) as u32,
                Op::Sltu => self.regs[rd] = (rs1 < rs2) as u32,
                Op::Mul => self.regs[rd] = rs1.wrapping_mul(rs2),
                Op::Mulhu => self.regs[rd] = ((rs1 as u64 * rs2 as u64) >> 32) as u32,
                Op::Divu => self.regs[rd] = rs1.checked_div(rs2).unwrap_or(u32::MAX),
                Op::Remu => self.regs[rd] = if rs2 == 0 { rs1 } else { rs1 % rs2 },
                Op::Addi => self.regs[rd] = rs1.wrapping_add(imm as u32),
                Op::Andi => self.regs[rd] = rs1 & (imm as u32),
                Op::Ori => self.regs[rd] = rs1 | (imm as u32),
                Op::Xori => self.regs[rd] = rs1 ^ (imm as u32),
                Op::Slli => self.regs[rd] = rs1.wrapping_shl(imm as u32),
                Op::Srli => self.regs[rd] = rs1.wrapping_shr(imm as u32),
                Op::Srai => self.regs[rd] = ((rs1 as i32).wrapping_shr(imm as u32)) as u32,
                Op::Slti => self.regs[rd] = ((rs1 as i32) < imm) as u32,
                Op::Sltiu => self.regs[rd] = (rs1 < imm as u32) as u32,
                Op::Lui => self.regs[rd] = (imm as u32) << 16,
                Op::Lb => {
                    let addr = load!(rs1.wrapping_add(imm as u32), 1);
                    self.regs[rd] = mem.read_u8(addr) as i8 as i32 as u32;
                }
                Op::Lbu => {
                    let addr = load!(rs1.wrapping_add(imm as u32), 1);
                    self.regs[rd] = mem.read_u8(addr) as u32;
                }
                Op::Lh => {
                    let addr = load!(rs1.wrapping_add(imm as u32), 2);
                    self.regs[rd] = mem.read_u16(addr) as i16 as i32 as u32;
                }
                Op::Lhu => {
                    let addr = load!(rs1.wrapping_add(imm as u32), 2);
                    self.regs[rd] = mem.read_u16(addr) as u32;
                }
                Op::Lw => {
                    let addr = load!(rs1.wrapping_add(imm as u32), 4);
                    self.regs[rd] = mem.read_u32(addr);
                }
                Op::Sb => {
                    let addr = store!(rs1.wrapping_add(imm as u32), 1);
                    mem.write_u8(addr, rs2 as u8);
                }
                Op::Sh => {
                    let addr = store!(rs1.wrapping_add(imm as u32), 2);
                    mem.write_u16(addr, rs2 as u16);
                }
                Op::Sw => {
                    let addr = store!(rs1.wrapping_add(imm as u32), 4);
                    mem.write_u32(addr, rs2);
                }
                Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                    let taken = match inst.op {
                        Op::Beq => rs1 == rs2,
                        Op::Bne => rs1 != rs2,
                        Op::Blt => (rs1 as i32) < (rs2 as i32),
                        Op::Bge => (rs1 as i32) >= (rs2 as i32),
                        Op::Bltu => rs1 < rs2,
                        _ => rs1 >= rs2,
                    };
                    if FULL {
                        if let Some(u) = uarch.as_mut() {
                            u.branch(self.pc, taken);
                        }
                    }
                    if taken {
                        target = next_pc.wrapping_add(imm as u32);
                    }
                }
                Op::J => target = next_pc.wrapping_add(imm as u32),
                Op::Jal => {
                    self.regs[crate::reg::RA.index()] = next_pc;
                    target = next_pc.wrapping_add(imm as u32);
                }
                Op::Jr => target = rs1,
                Op::Jalr => {
                    self.regs[rd] = next_pc;
                    target = rs1;
                }
                Op::Sys => match handler.sys(imm as u32, &mut self.regs, mem) {
                    Ok(SysOutcome::Continue) => {}
                    Ok(SysOutcome::Stop) => {
                        stats.halt = HaltReason::SysStop;
                        self.regs[0] = 0;
                        self.pc = next_pc;
                        break;
                    }
                    Err(SimError::UnknownSyscall { code, .. }) => {
                        return Err(SimError::UnknownSyscall { code, pc: self.pc });
                    }
                    Err(e) => return Err(e),
                },
                Op::Halt => {
                    stats.halt = HaltReason::Halted;
                    self.pc = next_pc;
                    break;
                }
            }

            self.regs[0] = 0; // keep the zero register zero
            self.pc = target;
        }

        Ok(())
    }

    /// The superblock engine: counts-only execution retired one basic
    /// block at a time against a predecoded [`BlockTable`].
    ///
    /// Per fully-retired block this applies one fused delta (instruction
    /// count, unique-coverage bit) and, when the runtime
    /// region gate passes, the block's statically-grouped memory-access
    /// counts — then follows a pre-resolved successor link, so the hot
    /// loop does no per-instruction PC translation, dispatch bookkeeping,
    /// or accounting. Entry points that are not block leaders and runs
    /// close enough to the instruction budget that the next block might
    /// not complete bail out to the per-instruction counts loop, which is
    /// the reference semantics — so every observable outcome (stats,
    /// registers, PC, memory, errors) is bit-identical to
    /// `exec::<false, _>`. See DESIGN.md ("Superblock engine").
    ///
    /// With `TRACES` compiled in, the table's hot-trace layer sits on
    /// top: warm-up runs count per-block heat and branch directions,
    /// then formed traces (see [`crate::trace`]) dispatch at chain heads
    /// and retire whole biased chains with one fused delta per trip. A
    /// trip that might cross the instruction budget is declined up front
    /// (the block path places the budget error exactly); a mispredicted
    /// guard retires the executed prefix at block granularity and falls
    /// off to this block-level loop — so `TRACES = true` is observably
    /// identical to `TRACES = false`. See DESIGN.md ("Trace fusion").
    fn exec_blocks<const TRACES: bool, O: Observer>(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
        table: &BlockTable,
        obs: &mut O,
    ) -> Result<(), SimError> {
        let program: &'p Program = self.program;
        let text_base = program.text_base();
        let insts = program.insts();
        let n = insts.len();
        let max_instructions = config.max_instructions;
        debug_assert!(
            ((RETURN_SENTINEL.wrapping_sub(text_base) >> 2) as usize) >= n,
            "return sentinel aliases the text region"
        );
        debug_assert_eq!(
            table.block_map().block_ids().len(),
            n,
            "block table built from a different program"
        );

        // Blocks retired whole this run; expanded into per-instruction
        // `executed` bits on every exit. Kept separate from
        // `stats.executed` because the per-instruction fallback may set a
        // leader's bit and then fault mid-block — expanding leader bits
        // would over-mark.
        let mut seen = table.seen_scratch();
        let mut tstate = table.trace_scratch();
        if TRACES {
            tstate.tick(table, text_base);
        }
        // Split the trace layer's fields so formed entries stay readable
        // while the counters mutate. All dead code when `!TRACES`.
        let crate::trace::TraceState {
            traces,
            trace_of,
            retires: trace_retires,
            exit_retires,
            exited,
            stats: tstats,
            heat,
            taken,
            not_taken,
            formed,
            ..
        } = &mut *tstate;
        // Warm-up profiling is active only until the formation pass runs.
        let train = TRACES && !*formed;
        let mut result: Result<(), SimError> = Ok(());
        // When set, the per-instruction counts loop finishes the run.
        let mut bail = false;

        'run: loop {
            // Dispatch from `self.pc`, same fused range check and cold-arm
            // order as the per-instruction loop. The hot path only comes
            // through here once per run (and on indirect-cache misses):
            // static successors are pre-resolved to block ids, so
            // block-to-block transitions skip this translation entirely.
            let offset = self.pc.wrapping_sub(text_base);
            let index = (offset >> 2) as usize;
            if offset & 3 != 0 || index >= n {
                if self.pc == RETURN_SENTINEL {
                    stats.halt = HaltReason::Returned;
                } else if !self.pc.is_multiple_of(4) {
                    result = Err(SimError::MisalignedPc { pc: self.pc });
                } else {
                    result = Err(SimError::PcOutOfRange { pc: self.pc });
                }
                break 'run;
            }
            if !table.is_leader(index) {
                // Mid-block entry (an indirect jump into a block's
                // interior): only the per-instruction loop can account
                // a partial block correctly.
                bail = true;
                break 'run;
            }
            let mut b = table.block_map().block_of(index);
            'chain: loop {
                if TRACES && *formed {
                    // Trace dispatch: one load + compare per chain head.
                    let t = trace_of[b];
                    if t != u32::MAX {
                        let tr = &traces[t as usize];
                        if stats.instret + tr.total_len > max_instructions {
                            // A complete trip might cross the budget; the
                            // block path below places the budget error at
                            // exactly the right instruction.
                            tstats.declines += 1;
                        } else {
                            tstats.hits += 1;
                            match self.exec_trace(
                                tr,
                                mem,
                                stats,
                                &mut exit_retires[t as usize],
                                &mut exited[t as usize],
                                &mut trace_retires[t as usize],
                                &mut tstats.guard_exits,
                            ) {
                                TraceExit::Block(nb) => {
                                    b = nb;
                                    continue 'chain;
                                }
                                TraceExit::Cold => continue 'run,
                            }
                        }
                    }
                }
                let entry = table.entry(b);
                let len = entry.len as u64;
                if stats.instret + len > max_instructions {
                    // The budget error must land at exactly the right
                    // instruction inside this block; hand over.
                    bail = true;
                    break 'run;
                }

                // Fused retire: the whole block's instruction count and
                // coverage in one shot, before the terminator runs —
                // matching the per-instruction order where accounting
                // precedes the `sys`/`halt` dispatch.
                stats.instret += len;
                seen.insert(b);
                if train {
                    heat[b] += 1;
                }
                obs.on_block(b, entry.first as usize, entry.len as usize);

                // Runtime region gate over the statically-grouped
                // accesses: classify each group's lowest and highest byte
                // against the live base-register value; fuse only when
                // every group provably stays inside one interval region.
                let mut fused = true;
                let mut regions = [Region::Other; crate::bblock::MAX_GROUPS];
                for (slot, g) in regions.iter_mut().zip(&entry.groups) {
                    let lo = self.regs[g.base as usize].wrapping_add(g.kmin);
                    match self.uniform_region(lo, lo.wrapping_add(g.span_m1)) {
                        Some(r) => *slot = r,
                        None => {
                            fused = false;
                            break;
                        }
                    }
                }
                if fused {
                    for (g, &r) in entry.groups.iter().zip(&regions) {
                        stats.mem.record_group(r, g.reads as u64, g.writes as u64);
                    }
                }

                // Block interior: predecoded micro-ops (fewer than the
                // instruction count after fusion), with pre-extracted
                // operands and per-uop grouped flags. No micro-op writes
                // `r0`, so the per-instruction `regs[0] = 0` reset is gone
                // from the hot loop entirely.
                let first = entry.first as usize;
                let internal_end = if matches!(entry.term, TermKind::Fall) {
                    entry.next as usize
                } else {
                    first + entry.len as usize - 1
                };
                for u in table.uops(entry) {
                    self.exec_uop(u, fused, mem, stats);
                }

                // Terminator + successor. Static targets are pre-resolved
                // to block ids; anything unresolved (out-of-text,
                // misaligned, the return sentinel, indirect-cache misses)
                // sets `self.pc` and goes back through the dispatcher's
                // cold path so errors come out identical to the
                // per-instruction loop.
                let last = internal_end;
                match entry.term {
                    TermKind::Fall => {
                        self.pc = text_base.wrapping_add(entry.next * 4);
                        if entry.next_block != u32::MAX {
                            b = entry.next_block as usize;
                            continue 'chain;
                        }
                        continue 'run;
                    }
                    TermKind::Branch {
                        op,
                        rs1,
                        rs2,
                        taken_block,
                        taken_pc,
                    } => {
                        let rs1 = self.regs[(rs1 & 31) as usize];
                        let rs2 = self.regs[(rs2 & 31) as usize];
                        let t = match op {
                            Op::Beq => rs1 == rs2,
                            Op::Bne => rs1 != rs2,
                            Op::Blt => (rs1 as i32) < (rs2 as i32),
                            Op::Bge => (rs1 as i32) >= (rs2 as i32),
                            Op::Bltu => rs1 < rs2,
                            _ => rs1 >= rs2,
                        };
                        if train {
                            if t {
                                taken[b] += 1;
                            } else {
                                not_taken[b] += 1;
                            }
                        }
                        if t {
                            self.pc = taken_pc;
                            if taken_block != u32::MAX {
                                b = taken_block as usize;
                                continue 'chain;
                            }
                            continue 'run;
                        }
                        self.pc = text_base.wrapping_add(entry.next * 4);
                        if entry.next_block != u32::MAX {
                            b = entry.next_block as usize;
                            continue 'chain;
                        }
                        continue 'run;
                    }
                    TermKind::Jump {
                        target_block,
                        target_pc,
                        link,
                    } => {
                        if link {
                            self.regs[crate::reg::RA.index()] =
                                text_base.wrapping_add((last as u32) * 4 + 4);
                        }
                        self.pc = target_pc;
                        if target_block != u32::MAX {
                            b = target_block as usize;
                            continue 'chain;
                        }
                        continue 'run;
                    }
                    TermKind::Indirect { rs1, rd, link } => {
                        let target = self.regs[(rs1 & 31) as usize];
                        if link {
                            self.regs[(rd & 31) as usize] =
                                text_base.wrapping_add((last as u32) * 4 + 4);
                            self.regs[0] = 0;
                        }
                        self.pc = target;
                        // 2-way MRU inline cache of translated target
                        // block ids: way 0 is checked first, a way-1 hit
                        // swaps to the front, and a translate fill evicts
                        // way 1. This covers the dominant shape — a
                        // subroutine returning alternately to two call
                        // sites — that a single entry misses on every
                        // visit.
                        let mut ways = entry.cache.get();
                        if ways[0].0 == target && ways[0].1 != 0 {
                            b = (ways[0].1 - 1) as usize;
                            continue 'chain;
                        }
                        if ways[1].0 == target && ways[1].1 != 0 {
                            ways.swap(0, 1);
                            let hit = (ways[0].1 - 1) as usize;
                            entry.cache.set(ways);
                            b = hit;
                            continue 'chain;
                        }
                        let off = target.wrapping_sub(text_base);
                        let ti = (off >> 2) as usize;
                        if off & 3 == 0 && ti < n && table.is_leader(ti) {
                            let tb = table.block_map().block_of(ti);
                            ways[1] = ways[0];
                            ways[0] = (target, tb as u32 + 1);
                            entry.cache.set(ways);
                            b = tb;
                            continue 'chain;
                        }
                        // Out of text, misaligned, the return sentinel, or
                        // a mid-block target: the dispatcher's cold path
                        // sorts them out (never cached).
                        continue 'run;
                    }
                    TermKind::Sys { code } => {
                        let sys_pc = text_base.wrapping_add((last as u32) * 4);
                        match handler.sys(code, &mut self.regs, mem) {
                            Ok(SysOutcome::Continue) => {
                                self.regs[0] = 0;
                                self.pc = sys_pc.wrapping_add(4);
                                if entry.next_block != u32::MAX {
                                    b = entry.next_block as usize;
                                    continue 'chain;
                                }
                                continue 'run;
                            }
                            Ok(SysOutcome::Stop) => {
                                stats.halt = HaltReason::SysStop;
                                self.regs[0] = 0;
                                self.pc = sys_pc.wrapping_add(4);
                                break 'run;
                            }
                            Err(SimError::UnknownSyscall { code, .. }) => {
                                self.pc = sys_pc;
                                result = Err(SimError::UnknownSyscall { code, pc: sys_pc });
                                break 'run;
                            }
                            Err(e) => {
                                self.pc = sys_pc;
                                result = Err(e);
                                break 'run;
                            }
                        }
                    }
                    TermKind::Halt => {
                        stats.halt = HaltReason::Halted;
                        self.pc = text_base.wrapping_add((last as u32) * 4 + 4);
                        break 'run;
                    }
                }
            }
        }

        // Guard-exited trace prefixes were deferred to O(1) per-exit-point
        // counters during the run; fold each touched exit point as
        // coverage over the prefix's distinct blocks — never a per-block
        // retire walk. `exited` keeps the fold from scanning untouched
        // traces.
        if TRACES {
            for (t, tr) in traces.iter().enumerate() {
                if std::mem::take(&mut exited[t]) == 0 {
                    continue;
                }
                for (i, times) in exit_retires[t].iter_mut().enumerate() {
                    if std::mem::take(times) == 0 {
                        continue;
                    }
                    let hi = tr.segs[i].distinct_hi as usize;
                    for &blk in &tr.blocks[..hi] {
                        for idx in table.block_map().block_range(blk as usize) {
                            stats.executed.insert(idx);
                        }
                    }
                }
            }
        }
        // Expand fully-retired blocks into per-instruction coverage bits
        // — on every exit, including faults, so partial runs compare
        // equal to the per-instruction loop.
        for b in seen.iter() {
            for i in table.block_map().block_range(b) {
                stats.executed.insert(i);
            }
        }
        // Fold complete trace trips the same way: member-block coverage
        // expansion (instret was already added per trip). Traces are
        // few, so iterating them all is cheaper than tracking a seen set.
        if TRACES {
            for (t, tr) in traces.iter().enumerate() {
                if std::mem::take(&mut trace_retires[t]) == 0 {
                    continue;
                }
                for &blk in &tr.blocks {
                    for i in table.block_map().block_range(blk as usize) {
                        stats.executed.insert(i);
                    }
                }
            }
        }
        drop(seen);
        drop(tstate);

        if bail {
            // Reference semantics finish the run: exact per-access
            // classification, per-instruction budget check and observer
            // hooks, from the current architectural state.
            self.block_bailouts += 1;
            return self.exec::<false, O>(mem, config, handler, stats, &mut None, obs);
        }
        result
    }

    /// One trip through a formed trace: every member's interior runs
    /// exactly as the block path would run it (region gate, micro-ops),
    /// but the micro-ops and groups stream out of the trace's own
    /// flattened arrays — a trip never touches the block table — and the
    /// per-block retire bookkeeping and terminator dispatch are replaced
    /// by the member's guard. Nothing inside a trip can fault or observe
    /// statistics (micro-ops never fault, `sys` is never trace-internal,
    /// the budget was pre-checked), so deferring the whole trip's
    /// instret/coverage to one fused delta at completion is
    /// unobservable. A mispredicted guard exits with the architectural
    /// state the block path would have had at the same point; its prefix
    /// retire is itself deferred — one bump of the member's exit counter
    /// here, folded as a precomputed prefix delta at run end — so
    /// falling off a trace costs O(1), not O(prefix).
    #[allow(clippy::too_many_arguments)]
    fn exec_trace(
        &mut self,
        tr: &TraceEntry,
        mem: &mut Memory,
        stats: &mut RunStats,
        exit_retires: &mut [u64],
        exited: &mut u64,
        trace_retire: &mut u64,
        guard_exits: &mut u64,
    ) -> TraceExit {
        let mut uop_start = 0usize;
        let mut group_start = 0usize;
        for (i, seg) in tr.segs.iter().enumerate() {
            // Same runtime region gate as the block path: fuse the
            // member's grouped access counts only when every group
            // provably stays inside one interval region.
            let groups = &tr.groups[group_start..seg.group_end as usize];
            group_start = seg.group_end as usize;
            let mut fused = true;
            let mut regions = [Region::Other; crate::bblock::MAX_GROUPS];
            for (slot, g) in regions.iter_mut().zip(groups) {
                let lo = self.regs[g.base as usize].wrapping_add(g.kmin);
                match self.uniform_region(lo, lo.wrapping_add(g.span_m1)) {
                    Some(r) => *slot = r,
                    None => {
                        fused = false;
                        break;
                    }
                }
            }
            if fused {
                for (g, &r) in groups.iter().zip(&regions) {
                    stats.mem.record_group(r, g.reads as u64, g.writes as u64);
                }
            }
            for u in &tr.uops[uop_start..seg.uop_end as usize] {
                self.exec_uop(u, fused, mem, stats);
            }
            uop_start = seg.uop_end as usize;

            match seg.guard {
                Guard::Fall => {}
                Guard::Jump { link, ret_pc } => {
                    if link {
                        self.regs[crate::reg::RA.index()] = ret_pc;
                    }
                }
                Guard::Branch {
                    op,
                    rs1,
                    rs2,
                    expect,
                    exit_block,
                    exit_pc,
                } => {
                    let a = self.regs[(rs1 & 31) as usize];
                    let b = self.regs[(rs2 & 31) as usize];
                    let t = match op {
                        Op::Beq => a == b,
                        Op::Bne => a != b,
                        Op::Blt => (a as i32) < (b as i32),
                        Op::Bge => (a as i32) >= (b as i32),
                        Op::Bltu => a < b,
                        _ => a >= b,
                    };
                    if t != expect {
                        // Mispredict: fall off the trace. The prefix's
                        // coverage is deferred to the run-end fold, which
                        // expands this exit point's distinct blocks once.
                        *guard_exits += 1;
                        *exited += 1;
                        exit_retires[i] += 1;
                        stats.instret += seg.prefix_len;
                        self.pc = exit_pc;
                        return if exit_block == u32::MAX {
                            TraceExit::Cold
                        } else {
                            TraceExit::Block(exit_block as usize)
                        };
                    }
                }
            }
        }

        // Complete trip: one fused delta (coverage folds at run end
        // through the per-trace retire count).
        stats.instret += tr.total_len;
        *trace_retire += 1;
        self.pc = tr.next_pc;
        TraceExit::Block(tr.next_block as usize)
    }

    /// One predecoded micro-op inside a fully-retired block.
    ///
    /// No micro-op writes `r0` (the decoder drops dead writes and lowers
    /// `r0`-destined loads to [`UOpKind::LoadDiscard`]), so there is no
    /// zero-register reset here. `fused` is true when the block's region
    /// gate passed; it suppresses per-access classification only for
    /// micro-ops whose accounting is part of the gated group delta
    /// (`u.grouped`).
    #[inline(always)]
    fn exec_uop(&mut self, u: &UOp, fused: bool, mem: &mut Memory, stats: &mut RunStats) {
        use UOpKind as K;
        let rs1 = self.regs[(u.rs1 & 31) as usize];
        let rs2 = self.regs[(u.rs2 & 31) as usize];
        let rd = (u.rd & 31) as usize;
        let imm = u.imm;
        macro_rules! classify {
            ($addr:expr, $kind:expr) => {
                if !(fused && u.grouped) {
                    stats.mem.record(self.map.region($addr), $kind);
                }
            };
        }
        match u.kind {
            K::Add => self.regs[rd] = rs1.wrapping_add(rs2),
            K::Sub => self.regs[rd] = rs1.wrapping_sub(rs2),
            K::And => self.regs[rd] = rs1 & rs2,
            K::Or => self.regs[rd] = rs1 | rs2,
            K::Xor => self.regs[rd] = rs1 ^ rs2,
            K::Nor => self.regs[rd] = !(rs1 | rs2),
            K::Sll => self.regs[rd] = rs1.wrapping_shl(rs2 & 31),
            K::Srl => self.regs[rd] = rs1.wrapping_shr(rs2 & 31),
            K::Sra => self.regs[rd] = ((rs1 as i32).wrapping_shr(rs2 & 31)) as u32,
            K::Slt => self.regs[rd] = ((rs1 as i32) < (rs2 as i32)) as u32,
            K::Sltu => self.regs[rd] = (rs1 < rs2) as u32,
            K::Mul => self.regs[rd] = rs1.wrapping_mul(rs2),
            K::Mulhu => self.regs[rd] = ((rs1 as u64 * rs2 as u64) >> 32) as u32,
            K::Divu => self.regs[rd] = rs1.checked_div(rs2).unwrap_or(u32::MAX),
            K::Remu => self.regs[rd] = if rs2 == 0 { rs1 } else { rs1 % rs2 },
            K::AddImm => self.regs[rd] = rs1.wrapping_add(imm),
            K::AndImm => self.regs[rd] = rs1 & imm,
            K::OrImm => self.regs[rd] = rs1 | imm,
            K::XorImm => self.regs[rd] = rs1 ^ imm,
            K::SllImm => self.regs[rd] = rs1.wrapping_shl(imm),
            K::SrlImm => self.regs[rd] = rs1.wrapping_shr(imm),
            K::SraImm => self.regs[rd] = ((rs1 as i32).wrapping_shr(imm)) as u32,
            K::SltImm => self.regs[rd] = ((rs1 as i32) < imm as i32) as u32,
            K::SltuImm => self.regs[rd] = (rs1 < imm) as u32,
            K::MovImm => self.regs[rd] = imm,
            K::Lb => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u8(addr) as i8 as i32 as u32;
            }
            K::Lbu => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u8(addr) as u32;
            }
            K::Lh => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u16(addr) as i16 as i32 as u32;
            }
            K::Lhu => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u16(addr) as u32;
            }
            K::Lw => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u32(addr);
            }
            K::Sb => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Write);
                mem.write_u8(addr, rs2 as u8);
            }
            K::Sh => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Write);
                mem.write_u16(addr, rs2 as u16);
            }
            K::Sw => {
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Write);
                mem.write_u32(addr, rs2);
            }
            K::LoadDiscard => {
                // Loads have no side effects, so only the classification
                // survives; the lookup itself is dead.
                let addr = rs1.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
            }
            K::AddLb => {
                let sum = rs1.wrapping_add(rs2);
                self.regs[(u.rd2 & 31) as usize] = sum;
                let addr = sum.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u8(addr) as i8 as i32 as u32;
            }
            K::AddLbu => {
                let sum = rs1.wrapping_add(rs2);
                self.regs[(u.rd2 & 31) as usize] = sum;
                let addr = sum.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u8(addr) as u32;
            }
            K::MovAddLbu => {
                let addr = imm.wrapping_add(rs2);
                self.regs[(u.rd2 & 31) as usize] = addr;
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u8(addr) as u32;
            }
            K::AddLh => {
                let sum = rs1.wrapping_add(rs2);
                self.regs[(u.rd2 & 31) as usize] = sum;
                let addr = sum.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u16(addr) as i16 as i32 as u32;
            }
            K::AddLhu => {
                let sum = rs1.wrapping_add(rs2);
                self.regs[(u.rd2 & 31) as usize] = sum;
                let addr = sum.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u16(addr) as u32;
            }
            K::AddLw => {
                let sum = rs1.wrapping_add(rs2);
                self.regs[(u.rd2 & 31) as usize] = sum;
                let addr = sum.wrapping_add(imm);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u32(addr);
            }
            K::SrlAnd => self.regs[rd] = rs1.wrapping_shr(rs2 & 31) & imm,
            K::RsbImm => self.regs[rd] = imm.wrapping_sub(rs1),
            K::AndRsb => {
                let m = rs1 & (imm & 0xffff);
                self.regs[(u.rd2 & 31) as usize] = m;
                self.regs[rd] = (imm >> 16).wrapping_sub(m);
            }
            K::AddPair => {
                self.regs[rd] = rs1.wrapping_add(rs2);
                let c = self.regs[(imm & 31) as usize];
                let d = self.regs[((imm >> 8) & 31) as usize];
                self.regs[(u.rd2 & 31) as usize] = c.wrapping_add(d);
            }
            K::AddImmPair => {
                self.regs[rd] = rs1.wrapping_add(imm as u16 as i16 as i32 as u32);
                self.regs[(u.rd2 & 31) as usize] =
                    rs2.wrapping_add((imm >> 16) as u16 as i16 as i32 as u32);
            }
            K::LwPair => {
                let addr = rs1.wrapping_add(imm & 0xffff);
                classify!(addr, AccessKind::Read);
                self.regs[rd] = mem.read_u32(addr);
                let addr2 = rs1.wrapping_add(imm >> 16);
                classify!(addr2, AccessKind::Read);
                self.regs[(u.rd2 & 31) as usize] = mem.read_u32(addr2);
            }
            // Trace-peephole superops (see `trace::peephole`). Sources are
            // all read before any write lands, and `rd != rd2` wherever
            // both are written, so pattern-internal aliasing matches the
            // unfused sequences exactly.
            K::XorShifts => {
                let y = rs2.wrapping_shr((imm >> 5) & 31);
                self.regs[(u.rd2 & 31) as usize] = y;
                self.regs[rd] = rs1.wrapping_shl(imm & 31) ^ y;
            }
            K::AndShl => self.regs[rd] = (rs1 & imm).wrapping_shl(u.rs2 as u32),
            K::SrlImmAnd => self.regs[rd] = rs1.wrapping_shr(u.rs2 as u32) & imm,
            K::AddXor => {
                let sum = rs1.wrapping_add(rs2);
                let other = self.regs[(imm & 31) as usize];
                self.regs[(u.rd2 & 31) as usize] = sum;
                self.regs[rd] = other ^ sum;
            }
            K::MovShl => self.regs[rd] = imm.wrapping_shl(rs2 & 31),
            K::XorSll => {
                let sh = self.regs[(imm & 31) as usize] & 31;
                self.regs[rd] = (rs1 ^ rs2).wrapping_shl(sh);
            }
            K::RsbSrl => {
                let d = imm.wrapping_sub(rs1);
                self.regs[(u.rd2 & 31) as usize] = d;
                self.regs[rd] = rs2.wrapping_shr(d & 31);
            }
            K::RsbSrlAnd => {
                let d = (imm & 0xffff).wrapping_sub(rs1);
                self.regs[(u.rd2 & 31) as usize] = d;
                self.regs[rd] = rs2.wrapping_shr(d & 31) & (imm >> 16);
            }
            K::ShlOr => self.regs[rd] = rs1.wrapping_shl(imm) | rs2,
        }
    }

    /// Classifies the closed byte range `[lo, hi]` when it provably lies
    /// in a single region. Sound because the mapped regions are address
    /// intervals: a range whose endpoints both fit inside one interval is
    /// wholly inside it. The complement region ([`Region::Other`]) is not
    /// an interval, so ranges there — and ranges that wrap the address
    /// space — return `None` and fall back to per-access classification.
    #[inline(always)]
    fn uniform_region(&self, lo: u32, hi: u32) -> Option<Region> {
        if hi < lo {
            return None;
        }
        let m = &self.map;
        if lo >= m.packet_base && hi < m.packet_end {
            Some(Region::Packet)
        } else if lo >= m.data_base
            && hi < m.data_end
            // Classification priority: an address inside both intervals
            // would count as Packet per-access, so the whole range must
            // stay clear of the packet interval.
            && (hi < m.packet_base || lo >= m.packet_end)
        {
            Some(Region::ProgramData)
        } else if lo > m.stack_limit
            && hi <= m.stack_top
            && (hi < m.packet_base || lo >= m.packet_end)
            && (hi < m.data_base || lo >= m.data_end)
        {
            Some(Region::Stack)
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn note_access<O: Observer>(
        &self,
        stats: &mut RunStats,
        uarch: Option<&mut Uarch>,
        config: &RunConfig,
        addr: u32,
        size: u8,
        kind: AccessKind,
        obs: &mut O,
    ) {
        let region = self.map.region(addr);
        stats.mem.record(region, kind);
        obs.on_mem(addr, size, kind, region);
        if let Some(u) = uarch {
            u.data_access(addr);
        }
        if config.record_mem_trace {
            stats.mem_trace.push(MemEvent {
                instr_index: stats.instret - 1,
                addr,
                size,
                kind,
                region,
            });
        }
    }
}

impl Interpreter for Cpu<'_> {
    fn reset(&mut self) {
        Cpu::reset(self);
    }

    fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        Cpu::set_reg(self, r, value);
    }

    fn state(&self) -> CpuState {
        Cpu::state(self)
    }

    fn run_into(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        Cpu::run_into(self, mem, config, handler, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::reg;

    fn map() -> MemoryMap {
        MemoryMap::default()
    }

    fn run_program(
        insts: Vec<Inst>,
        setup: impl FnOnce(&mut Cpu, &mut Memory),
    ) -> (Vec<u32>, RunStats) {
        let program = Program::new(insts, map().text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map());
        setup(&mut cpu, &mut mem);
        let stats = cpu
            .run(&mut mem, &RunConfig::default())
            .expect("program runs");
        (cpu.regs.to_vec(), stats)
    }

    #[test]
    fn arithmetic_and_return() {
        let (regs, stats) = run_program(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 21),
                Inst::rtype(Op::Add, reg::T1, reg::T0, reg::T0),
                Inst::jr(reg::RA),
            ],
            |_, _| {},
        );
        assert_eq!(regs[reg::T1.index()], 42);
        assert_eq!(stats.instret, 3);
        assert_eq!(stats.halt, HaltReason::Returned);
        assert_eq!(stats.unique_instructions(), 3);
    }

    #[test]
    fn zero_register_is_immutable() {
        let (regs, _) = run_program(
            vec![
                Inst::with_imm(Op::Addi, reg::ZERO, reg::ZERO, 99),
                Inst::rtype(Op::Add, reg::T0, reg::ZERO, reg::ZERO),
                Inst::jr(reg::RA),
            ],
            |_, _| {},
        );
        assert_eq!(regs[0], 0);
        assert_eq!(regs[reg::T0.index()], 0);
    }

    #[test]
    fn loads_and_stores_classify_regions() {
        let m = map();
        let (_, stats) = run_program(
            vec![
                // load a word from packet memory, store to program data
                Inst::with_imm(Op::Lw, reg::T0, reg::A0, 0),
                Inst::store(Op::Sw, reg::T0, reg::GP, 8),
                // and one stack push
                Inst::with_imm(Op::Addi, reg::SP, reg::SP, -4),
                Inst::store(Op::Sw, reg::RA, reg::SP, 0),
                Inst::jr(reg::RA),
            ],
            |cpu, mem| {
                cpu.set_reg(reg::A0, m.packet_base);
                mem.write_u32(m.packet_base, 0x01020304);
            },
        );
        assert_eq!(stats.mem.packet_reads, 1);
        assert_eq!(stats.mem.data_writes, 1);
        assert_eq!(stats.mem.stack_writes, 1);
        assert_eq!(stats.mem.packet_total(), 1);
        assert_eq!(stats.mem.non_packet_total(), 2);
    }

    #[test]
    fn sign_extension_on_loads() {
        let m = map();
        let (regs, _) = run_program(
            vec![
                Inst::with_imm(Op::Lb, reg::T0, reg::A0, 0),
                Inst::with_imm(Op::Lbu, reg::T1, reg::A0, 0),
                Inst::with_imm(Op::Lh, reg::T2, reg::A0, 0),
                Inst::with_imm(Op::Lhu, reg::T3, reg::A0, 0),
                Inst::jr(reg::RA),
            ],
            |cpu, mem| {
                cpu.set_reg(reg::A0, m.packet_base);
                mem.write_u16(m.packet_base, 0x80f0);
            },
        );
        assert_eq!(regs[reg::T0.index()], 0xffff_fff0);
        assert_eq!(regs[reg::T1.index()], 0xf0);
        assert_eq!(regs[reg::T2.index()], 0xffff_80f0);
        assert_eq!(regs[reg::T3.index()], 0x80f0);
    }

    #[test]
    fn branch_loop_counts_instructions() {
        // for t0 in 0..5 {} : 1 init + 5*(addi+blt) + final check
        let insts = vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 0),
            Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 5),
            Inst::with_imm(Op::Addi, reg::T0, reg::T0, 1), // loop:
            Inst::branch(Op::Blt, reg::T0, reg::T1, -8),   // back to loop
            Inst::jr(reg::RA),
        ];
        let (regs, stats) = run_program(insts, |_, _| {});
        assert_eq!(regs[reg::T0.index()], 5);
        assert_eq!(stats.instret, 2 + 5 * 2 + 1);
        // 5 static instructions executed
        assert_eq!(stats.unique_instructions(), 5);
    }

    #[test]
    fn call_and_return() {
        // main: jal f; jr ra(sentinel)  f: addi a0, a0, 1; jr ra
        let insts = vec![
            Inst::with_imm(Op::Addi, reg::S0, reg::RA, 0), // save sentinel
            Inst::jump(Op::Jal, 4),                        // call f
            Inst::jr(reg::S0),                             // return to framework
            Inst::with_imm(Op::Addi, reg::A0, reg::A0, 1), // f:
            Inst::jr(reg::RA),
        ];
        let (regs, stats) = run_program(insts, |cpu, _| cpu.set_reg(reg::A0, 1));
        assert_eq!(regs[reg::A0.index()], 2);
        assert_eq!(stats.instret, 5);
        assert_eq!(stats.halt, HaltReason::Returned);
    }

    #[test]
    fn divide_by_zero_is_defined() {
        let (regs, _) = run_program(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 7),
                Inst::rtype(Op::Divu, reg::T1, reg::T0, reg::ZERO),
                Inst::rtype(Op::Remu, reg::T2, reg::T0, reg::ZERO),
                Inst::jr(reg::RA),
            ],
            |_, _| {},
        );
        assert_eq!(regs[reg::T1.index()], u32::MAX);
        assert_eq!(regs[reg::T2.index()], 7);
    }

    #[test]
    fn halt_stops_run() {
        let (_, stats) = run_program(vec![Inst::halt()], |_, _| {});
        assert_eq!(stats.halt, HaltReason::Halted);
        assert_eq!(stats.instret, 1);
    }

    #[test]
    fn runaway_program_hits_budget() {
        let program = Program::new(vec![Inst::jump(Op::J, -4)], map().text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map());
        let config = RunConfig {
            max_instructions: 1000,
            ..RunConfig::default()
        };
        assert!(matches!(
            cpu.run(&mut mem, &config),
            Err(SimError::InstructionBudgetExceeded { limit: 1000 })
        ));
    }

    #[test]
    fn stray_jump_is_caught() {
        let program = Program::new(vec![Inst::jr(reg::T0)], map().text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map());
        cpu.set_reg(reg::T0, 0xdead_0000);
        assert!(matches!(
            cpu.run(&mut mem, &RunConfig::default()),
            Err(SimError::PcOutOfRange { .. })
        ));
    }

    #[test]
    fn sys_is_rejected_without_handler() {
        let program = Program::new(vec![Inst::sys(1)], map().text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map());
        assert!(matches!(
            cpu.run(&mut mem, &RunConfig::default()),
            Err(SimError::UnknownSyscall { code: 1, .. })
        ));
    }

    #[test]
    fn sys_handler_can_stop_and_mutate() {
        struct Handler;
        impl SysHandler for Handler {
            fn sys(
                &mut self,
                code: u32,
                regs: &mut [u32; 32],
                _mem: &mut Memory,
            ) -> Result<SysOutcome, SimError> {
                regs[reg::A0.index()] = code * 10;
                Ok(SysOutcome::Stop)
            }
        }
        let program = Program::new(vec![Inst::sys(4), Inst::halt()], map().text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map());
        let stats = cpu
            .run_with(&mut mem, &RunConfig::default(), &mut Handler)
            .unwrap();
        assert_eq!(stats.halt, HaltReason::SysStop);
        assert_eq!(cpu.reg(reg::A0), 40);
        assert_eq!(stats.instret, 1);
    }

    #[test]
    fn pc_and_mem_traces_recorded_on_request() {
        let m = map();
        let program = Program::new(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::A0, 0),
                Inst::store(Op::Sw, reg::T0, reg::GP, 0),
                Inst::jr(reg::RA),
            ],
            m.text_base,
        );
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, m);
        cpu.set_reg(reg::A0, m.packet_base);
        let config = RunConfig {
            record_pc_trace: true,
            record_mem_trace: true,
            ..RunConfig::default()
        };
        let stats = cpu.run(&mut mem, &config).unwrap();
        assert_eq!(
            stats.pc_trace,
            vec![m.text_base, m.text_base + 4, m.text_base + 8]
        );
        assert_eq!(stats.mem_trace.len(), 2);
        assert_eq!(stats.mem_trace[0].region, Region::Packet);
        assert_eq!(stats.mem_trace[0].kind, AccessKind::Read);
        assert_eq!(stats.mem_trace[1].region, Region::ProgramData);
        assert_eq!(stats.mem_trace[1].kind, AccessKind::Write);
        assert_eq!(stats.mem_trace[1].instr_index, 1);
    }

    #[test]
    fn uarch_models_attach() {
        let insts = vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 0),
            Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 100),
            Inst::with_imm(Op::Addi, reg::T0, reg::T0, 1),
            Inst::with_imm(Op::Lw, reg::T2, reg::GP, 0),
            Inst::branch(Op::Blt, reg::T0, reg::T1, -12),
            Inst::jr(reg::RA),
        ];
        let program = Program::new(insts, map().text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map());
        let config = RunConfig {
            uarch: Some(UarchConfig::default()),
            ..RunConfig::default()
        };
        let stats = cpu.run(&mut mem, &config).unwrap();
        let u = stats.uarch.expect("uarch stats present");
        assert_eq!(u.branches, 100);
        assert!(u.mispredictions < 5);
        assert_eq!(u.dcache_accesses, 100);
        // After the cold miss everything hits in the I-cache.
        assert!(u.icache_misses <= 2);
        assert_eq!(u.icache_accesses, stats.instret);
    }

    /// Runs `insts` under the forced counts loop and the forced block
    /// engine with identical seeding and asserts every observable — the
    /// result, all statistics, the register file, the PC, and a memory
    /// digest — is bit-identical.
    fn assert_block_matches_counts(
        insts: Vec<Inst>,
        config: &RunConfig,
        handler_factory: impl Fn() -> Box<dyn SysHandler>,
        setup: impl Fn(&mut Cpu, &mut Memory),
    ) -> (Result<(), SimError>, RunStats) {
        let program = Program::new(insts, map().text_base);
        let table = crate::bblock::BlockTable::build(&program);
        let mut outcomes = Vec::new();
        for path in [ExecPath::Counts, ExecPath::Block] {
            let mut mem = Memory::new();
            let mut cpu = Cpu::new(&program, map()).with_blocks(&table);
            setup(&mut cpu, &mut mem);
            let mut stats = RunStats::for_program(program.len());
            let mut handler = handler_factory();
            let result = cpu.run_into_path(&mut mem, config, handler.as_mut(), &mut stats, path);
            outcomes.push((result, stats, cpu.state(), mem.digest()));
        }
        let (r0, s0, st0, d0) = outcomes.remove(0);
        let (r1, s1, st1, d1) = outcomes.remove(0);
        assert_eq!(r0, r1, "run result");
        assert_eq!(s0.instret, s1.instret, "instret");
        assert_eq!(s0.executed, s1.executed, "executed set");
        assert_eq!(s0.mem, s1.mem, "mem counts");
        assert_eq!(s0.halt, s1.halt, "halt reason");
        assert_eq!(st0, st1, "architectural state");
        assert_eq!(d0, d1, "memory digest");
        (r0, s0)
    }

    fn no_sys() -> Box<dyn SysHandler> {
        Box::new(NoSys)
    }

    /// Runs `insts` `runs` times under the forced counts loop and the
    /// forced trace engine (eager formation: run 1 trains, run 2 onward
    /// replays through formed traces) with identical per-run seeding and
    /// asserts every observable is bit-identical on every run. Returns
    /// the last run's outcome plus the trace table's telemetry.
    fn assert_trace_matches_counts(
        insts: Vec<Inst>,
        config: &RunConfig,
        handler_factory: impl Fn() -> Box<dyn SysHandler>,
        setup: impl Fn(&mut Cpu, &mut Memory),
        runs: u64,
    ) -> (Result<(), SimError>, RunStats, crate::trace::TraceStats) {
        let program = Program::new(insts, map().text_base);
        let mut table = crate::bblock::BlockTable::build(&program);
        table.set_trace_params(crate::trace::TraceParams::eager());
        let mut last = None;
        for run in 0..runs {
            let mut outcomes = Vec::new();
            for path in [ExecPath::Counts, ExecPath::Trace] {
                let mut mem = Memory::new();
                let mut cpu = Cpu::new(&program, map()).with_blocks(&table);
                setup(&mut cpu, &mut mem);
                let mut stats = RunStats::for_program(program.len());
                let mut handler = handler_factory();
                let result =
                    cpu.run_into_path(&mut mem, config, handler.as_mut(), &mut stats, path);
                outcomes.push((result, stats, cpu.state(), mem.digest()));
            }
            let (r0, s0, st0, d0) = outcomes.remove(0);
            let (r1, s1, st1, d1) = outcomes.remove(0);
            assert_eq!(r0, r1, "run {run}: result");
            assert_eq!(s0.instret, s1.instret, "run {run}: instret");
            assert_eq!(s0.executed, s1.executed, "run {run}: executed set");
            assert_eq!(s0.mem, s1.mem, "run {run}: mem counts");
            assert_eq!(s0.halt, s1.halt, "run {run}: halt reason");
            assert_eq!(st0, st1, "run {run}: architectural state");
            assert_eq!(d0, d1, "run {run}: memory digest");
            last = Some((r0, s0));
        }
        let (r, s) = last.unwrap();
        (r, s, table.trace_stats())
    }

    #[test]
    fn trace_engine_matches_counts_on_hot_loop() {
        // The canonical hot loop: fall into a self-branching body, exit
        // to an indirect return. The body's trace replays the taken
        // direction and guard-exits on the final iteration.
        let m = map();
        let (result, stats, tstats) = assert_trace_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 4),
                Inst::with_imm(Op::Lw, reg::T1, reg::A0, 0),
                Inst::with_imm(Op::Lw, reg::T2, reg::A0, 4),
                Inst::store(Op::Sw, reg::T1, reg::SP, -8),
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
                Inst::branch(Op::Bne, reg::T0, reg::ZERO, -20),
                Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            move |cpu, _| cpu.set_reg(reg::A0, m.packet_base),
            3,
        );
        result.unwrap();
        assert_eq!(stats.instret, 1 + 4 * 5 + 1);
        assert_eq!(stats.halt, HaltReason::Returned);
        assert!(tstats.formed >= 1, "no trace formed: {tstats:?}");
        assert!(tstats.hits >= 1, "no trace trip: {tstats:?}");
        assert!(tstats.guard_exits >= 1, "no guard exit: {tstats:?}");
    }

    #[test]
    fn trace_engine_self_loop_unrolls_and_exits_identically() {
        // A single-block self-loop: the trace unrolls it up to the
        // member cap, so one run takes complete trips (fused deltas) and
        // a final mispredicted trip.
        let (result, stats, tstats) = assert_trace_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 21),
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
                Inst::branch(Op::Bne, reg::T0, reg::ZERO, -8), // -> 1
                Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
            2,
        );
        result.unwrap();
        assert_eq!(stats.instret, 1 + 21 * 2 + 1);
        assert!(tstats.hits >= 1, "no complete trip: {tstats:?}");
        assert!(tstats.guard_exits >= 1, "no guard exit: {tstats:?}");
    }

    #[test]
    fn trace_engine_not_taken_biased_branch_and_static_jump() {
        // Loop shaped the other way: a rarely-taken forward exit branch
        // (guard expects not-taken) and a static backward jump — both
        // chain, and the final taken exit mispredicts out of the trace.
        let (result, stats, tstats) = assert_trace_matches_counts(
            vec![
                /* 0 */ Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 5),
                /* 1 */ Inst::branch(Op::Beq, reg::T0, reg::ZERO, 8), // -> 4
                /* 2 */ Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
                /* 3 */ Inst::jump(Op::J, -12), // -> 1
                /* 4 */ Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
            3,
        );
        result.unwrap();
        assert_eq!(stats.instret, 1 + 6 + 5 * 2 + 1);
        assert!(tstats.hits >= 1, "no complete trip: {tstats:?}");
        assert!(tstats.guard_exits >= 1, "no guard exit: {tstats:?}");
    }

    #[test]
    fn trace_engine_link_jump_writes_return_address() {
        // A `jal` inside a trace must write `ra` exactly as the block
        // path does: the trace chains callsite -> callee, the callee
        // returns through `jr ra` (cold, indirect terminators never
        // chain), and the landing pad's halt ends the run with `ra`
        // compared in the architectural state.
        let (result, _, tstats) = assert_trace_matches_counts(
            vec![
                /* 0 */ Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
                /* 1 */ Inst::jump(Op::Jal, 8), // -> 4
                /* 2 */ Inst::with_imm(Op::Addi, reg::T2, reg::ZERO, 7), // landing pad
                /* 3 */ Inst::halt(),
                /* 4 */ Inst::with_imm(Op::Addi, reg::T1, reg::T1, 1),
                /* 5 */ Inst::jump(Op::J, 0), // -> 6
                /* 6 */ Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
            2,
        );
        result.unwrap();
        assert!(tstats.formed >= 1, "no trace formed: {tstats:?}");
    }

    #[test]
    fn trace_engine_budget_decline_matches_counts() {
        // A budget that lands mid-loop: dispatches whose full trip might
        // cross it must decline to the block path and fail at the exact
        // same instruction as the counts loop.
        let (result, stats, tstats) = assert_trace_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1000),
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
                Inst::branch(Op::Bne, reg::T0, reg::ZERO, -4),
                Inst::jr(reg::RA),
            ],
            &RunConfig {
                max_instructions: 97,
                ..RunConfig::default()
            },
            no_sys,
            |_, _| {},
            3,
        );
        assert!(matches!(
            result,
            Err(SimError::InstructionBudgetExceeded { limit: 97 })
        ));
        assert_eq!(stats.instret, 97);
        assert!(tstats.declines >= 1, "no budget decline: {tstats:?}");
    }

    #[test]
    fn block_engine_matches_counts_on_loops_and_memory() {
        let m = map();
        let (result, stats) = assert_block_matches_counts(
            vec![
                // t0 = 4 loop iterations, each touching packet + stack.
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 4),
                // loop head (branch target): two packet loads, one stack
                // store — static groups on a0 and sp.
                Inst::with_imm(Op::Lw, reg::T1, reg::A0, 0),
                Inst::with_imm(Op::Lw, reg::T2, reg::A0, 4),
                Inst::store(Op::Sw, reg::T1, reg::SP, -8),
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
                Inst::branch(Op::Bne, reg::T0, reg::ZERO, -20),
                Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            move |cpu, _| cpu.set_reg(reg::A0, m.packet_base),
        );
        result.unwrap();
        assert_eq!(stats.instret, 1 + 4 * 5 + 1);
        assert_eq!(stats.mem.packet_reads, 8);
        assert_eq!(stats.mem.stack_writes, 4);
        assert_eq!(stats.halt, HaltReason::Returned);
    }

    #[test]
    fn block_engine_branch_to_self_hits_budget_identically() {
        // A single-instruction block that is its own branch target; the
        // budget error must fire at the same instruction on both paths.
        let (result, stats) = assert_block_matches_counts(
            vec![Inst::branch(Op::Beq, reg::ZERO, reg::ZERO, -4)],
            &RunConfig {
                max_instructions: 97,
                ..RunConfig::default()
            },
            no_sys,
            |_, _| {},
        );
        assert!(matches!(
            result,
            Err(SimError::InstructionBudgetExceeded { limit: 97 })
        ));
        assert_eq!(stats.instret, 97);
    }

    #[test]
    fn block_engine_handles_blocks_longer_than_the_static_mask() {
        // One straight-line block of >64 instructions with memory accesses
        // past position 64: those can never be in `static_mask` and must
        // account dynamically without overflowing the mask shift.
        let m = map();
        let mut insts = vec![Inst::with_imm(Op::Lw, reg::T1, reg::A0, 0)];
        insts.extend((0..70).map(|_| Inst::with_imm(Op::Addi, reg::T0, reg::T0, 1)));
        insts.push(Inst::with_imm(Op::Lw, reg::T2, reg::A0, 4));
        insts.push(Inst::store(Op::Sw, reg::T0, reg::SP, -4));
        insts.push(Inst::halt());
        let (result, stats) =
            assert_block_matches_counts(insts, &RunConfig::default(), no_sys, move |cpu, _| {
                cpu.set_reg(reg::A0, m.packet_base)
            });
        result.unwrap();
        assert_eq!(stats.instret, 74);
        assert_eq!(stats.mem.packet_reads, 2);
        assert_eq!(stats.mem.stack_writes, 1);
    }

    #[test]
    fn block_engine_fallthrough_into_branch_target() {
        // Instruction 3 is both the fallthrough successor of the block
        // after the branch and the branch's own target — a `Fall` block
        // boundary with no control transfer.
        let (result, stats) = assert_block_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
                Inst::branch(Op::Beq, reg::T0, reg::ZERO, 4),
                Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 2),
                Inst::with_imm(Op::Addi, reg::T2, reg::ZERO, 3),
                Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        result.unwrap();
        assert_eq!(stats.instret, 5);
    }

    #[test]
    fn block_engine_sys_and_halt_terminators() {
        // sys Continue, then sys Stop; the handler mutates a0 so the gate
        // also sees a base register change under its feet.
        struct Handler;
        impl SysHandler for Handler {
            fn sys(
                &mut self,
                code: u32,
                regs: &mut [u32; 32],
                _mem: &mut Memory,
            ) -> Result<SysOutcome, SimError> {
                match code {
                    0 => {
                        regs[reg::A0.index()] = regs[reg::A0.index()].wrapping_add(1);
                        Ok(SysOutcome::Continue)
                    }
                    6 => Ok(SysOutcome::Stop),
                    _ => Err(SimError::UnknownSyscall { code, pc: 0 }),
                }
            }
        }
        let (result, stats) = assert_block_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::A0, reg::ZERO, 10),
                Inst::sys(0),
                Inst::with_imm(Op::Addi, reg::A1, reg::A0, 0),
                Inst::sys(6),
                Inst::halt(),
            ],
            &RunConfig::default(),
            || Box::new(Handler),
            |_, _| {},
        );
        result.unwrap();
        assert_eq!(stats.halt, HaltReason::SysStop);
        assert_eq!(stats.instret, 4);

        let (result, stats) = assert_block_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
                Inst::halt(),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        result.unwrap();
        assert_eq!(stats.halt, HaltReason::Halted);

        let (result, _) = assert_block_matches_counts(
            vec![Inst::sys(42)],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        let m = map();
        assert_eq!(
            result,
            Err(SimError::UnknownSyscall {
                code: 42,
                pc: m.text_base
            })
        );
    }

    #[test]
    fn block_engine_alternating_indirect_target() {
        // A single `jr` whose computed target alternates between two
        // leaders every iteration — the 1-entry inline cache misses every
        // time and must still resolve correctly.
        let m = map();
        let text = m.text_base;
        let (result, stats) = assert_block_matches_counts(
            vec![
                /* 0 */ Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 8),
                /* 1 */ Inst::lui(reg::S0, (text >> 16) as i32),
                /* 2 */ Inst::with_imm(Op::Addi, reg::S1, reg::S0, 36), // A = inst 9
                /* 3 */ Inst::with_imm(Op::Addi, reg::S2, reg::S0, 44), // B = inst 11
                /* 4 */ Inst::rtype(Op::Sub, reg::S3, reg::S2, reg::S1),
                /* 5 */ Inst::with_imm(Op::Andi, reg::T1, reg::T0, 1), // loop head
                /* 6 */ Inst::rtype(Op::Mul, reg::T2, reg::T1, reg::S3),
                /* 7 */ Inst::rtype(Op::Add, reg::T2, reg::S1, reg::T2),
                /* 8 */ Inst::jr(reg::T2),
                /* 9 */ Inst::with_imm(Op::Addi, reg::T3, reg::T3, 1), // A
                /* 10 */ Inst::jump(Op::J, 8), // -> 13
                /* 11 */ Inst::with_imm(Op::Addi, reg::T4, reg::T4, 1), // B
                /* 12 */ Inst::jump(Op::J, 0), // -> 13
                /* 13 */ Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
                /* 14 */ Inst::branch(Op::Bne, reg::T0, reg::ZERO, -40), // -> 5
                /* 15 */ Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        result.unwrap();
        assert_eq!(stats.halt, HaltReason::Returned);
    }

    #[test]
    fn block_engine_mid_block_indirect_entry() {
        // `jr` into the middle of a block: the engine must fall back to
        // per-instruction execution and still match exactly (including
        // the partial-block executed set).
        let m = map();
        let (result, stats) = assert_block_matches_counts(
            vec![
                /* 0 */ Inst::lui(reg::T0, (m.text_base >> 16) as i32),
                /* 1 */ Inst::with_imm(Op::Addi, reg::T0, reg::T0, 16), // inst 4
                /* 2 */ Inst::jr(reg::T0),
                /* 3 */
                Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 1), // leader, skipped
                /* 4 */
                Inst::with_imm(Op::Addi, reg::T2, reg::ZERO, 2), // mid-block target
                /* 5 */ Inst::jr(reg::RA),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        result.unwrap();
        assert_eq!(stats.instret, 5);
        assert!(!stats.executed.contains(3));
        assert!(stats.executed.contains(4));
    }

    #[test]
    fn block_engine_stray_and_misaligned_targets() {
        // Branch taken to an out-of-text target.
        let (result, _) = assert_block_matches_counts(
            vec![Inst::branch(Op::Beq, reg::ZERO, reg::ZERO, 400)],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        assert!(matches!(result, Err(SimError::PcOutOfRange { .. })));

        // Indirect jump to a misaligned address.
        let (result, _) = assert_block_matches_counts(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 0x1002),
                Inst::jr(reg::T0),
            ],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        assert!(matches!(result, Err(SimError::MisalignedPc { pc: 0x1002 })));

        // Running off the end of the text.
        let (result, _) = assert_block_matches_counts(
            vec![Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1)],
            &RunConfig::default(),
            no_sys,
            |_, _| {},
        );
        assert!(matches!(result, Err(SimError::PcOutOfRange { .. })));
    }

    #[test]
    fn auto_path_uses_block_engine_only_with_table() {
        // With a table attached, Auto + NullObserver must produce the
        // same stats as the explicit counts loop.
        let m = map();
        let program = Program::new(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::A0, 0),
                Inst::store(Op::Sw, reg::T0, reg::GP, 0),
                Inst::jr(reg::RA),
            ],
            m.text_base,
        );
        let table = crate::bblock::BlockTable::build(&program);
        let run = |blocks: bool| {
            let mut mem = Memory::new();
            let mut cpu = Cpu::new(&program, m);
            if blocks {
                cpu = cpu.with_blocks(&table);
            }
            cpu.set_reg(reg::A0, m.packet_base);
            cpu.run(&mut mem, &RunConfig::default()).unwrap()
        };
        let with_table = run(true);
        let without = run(false);
        assert_eq!(with_table.instret, without.instret);
        assert_eq!(with_table.mem, without.mem);
        assert_eq!(with_table.executed, without.executed);
    }
}
