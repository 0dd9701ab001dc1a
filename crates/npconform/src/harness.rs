//! The differential-conformance harness: generate, run everywhere,
//! compare, shrink.
//!
//! One corpus item is one seeded random program plus one boundary-case
//! packet. Each item runs through five interpreter paths on identically
//! staged memory:
//!
//! 1. the reference interpreter ([`crate::RefCpu`]) with full tracing,
//! 2. the optimized simulator forced onto its full-detail loop,
//! 3. the optimized simulator forced onto its counts-only loop,
//! 4. the optimized simulator forced onto its superblock engine
//!    (block-level dispatch with fused accounting),
//! 5. the superblock engine with the hot-trace layer, eagerly trained on
//!    one extra capture so the measured run replays through fused traces,
//!
//! and any divergence from the reference — result, statistics, registers,
//! memory digest, traces — fails the item. Failing programs are shrunk
//! ([`crate::shrink()`]) and rendered as assemblable `.s` repros.
//!
//! The multi-threaded engine leg of conformance lives in
//! `packetbench::conform`, which replays the real applications; this
//! module is application-independent and therefore depends only on the
//! simulator crates.

use crate::diff::{DiffLevel, Outcome};
use crate::gen::{gen_packet, gen_program};
use crate::ref_cpu::RefCpu;
use crate::shrink::shrink;
use nprng::{SeedableRng, StdRng};
use npsim::isa::{reg, Inst};
use npsim::{
    BlockTable, Cpu, ExecPath, Interpreter, Memory, MemoryMap, Program, RunConfig, RunStats,
    SimError, SysHandler, SysOutcome, TraceParams,
};

/// A deterministic `sys` handler for generated programs.
///
/// Small call numbers mix `a0` and log a word into program data (so
/// handler effects show up in the register file *and* the memory digest),
/// code 6 stops the run, and anything above is an unknown syscall — which
/// every interpreter must turn into the same error at the same PC.
#[derive(Debug, Clone, Copy)]
pub struct ConformSys {
    data_base: u32,
}

impl ConformSys {
    /// A handler logging into the data region of `map`.
    pub fn new(map: &MemoryMap) -> ConformSys {
        ConformSys {
            data_base: map.data_base,
        }
    }
}

impl SysHandler for ConformSys {
    fn sys(
        &mut self,
        code: u32,
        regs: &mut [u32; 32],
        mem: &mut Memory,
    ) -> Result<SysOutcome, SimError> {
        match code {
            0..=5 => {
                let mixed = regs[reg::A0.index()]
                    .rotate_left(code + 1)
                    .wrapping_add(0x9e37_79b9u32.wrapping_mul(code + 1));
                regs[reg::A0.index()] = mixed;
                mem.write_u32(self.data_base + 0x40 + 4 * code, mixed);
                Ok(SysOutcome::Continue)
            }
            6 => Ok(SysOutcome::Stop),
            _ => Err(SimError::UnknownSyscall { code, pc: 0 }),
        }
    }
}

/// [`Cpu`] pinned to one monomorphized loop, as an [`Interpreter`].
///
/// The trait's `run_into` is the auto-selecting entry point; conformance
/// needs to aim each loop at the reference model separately, so this
/// wrapper routes every run through [`Cpu::run_into_path`].
pub struct ForcedCpu<'p> {
    cpu: Cpu<'p>,
    path: ExecPath,
}

impl<'p> ForcedCpu<'p> {
    /// Pins `cpu` to `path`.
    pub fn new(cpu: Cpu<'p>, path: ExecPath) -> ForcedCpu<'p> {
        ForcedCpu { cpu, path }
    }
}

impl Interpreter for ForcedCpu<'_> {
    fn reset(&mut self) {
        self.cpu.reset();
    }

    fn set_pc(&mut self, pc: u32) {
        self.cpu.pc = pc;
    }

    fn set_reg(&mut self, r: npsim::Reg, value: u32) {
        self.cpu.set_reg(r, value);
    }

    fn state(&self) -> npsim::CpuState {
        self.cpu.state()
    }

    fn run_into(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        self.cpu
            .run_into_path(mem, config, handler, stats, self.path)
    }
}

/// A deliberate bug to inject into one interpreter path, proving the
/// harness catches what it claims to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: all paths see the true memory map.
    #[default]
    None,
    /// The counts-only path sees a packet region one byte too long — the
    /// classic boundary off-by-one. Every generated program probes the
    /// byte at `packet_end` (see [`crate::gen`]), so this misclassifies
    /// one access per program and must fail every corpus item.
    PacketEndOffByOne,
}

impl Fault {
    /// The memory map as seen by the counts-only path.
    fn counts_map(self, map: MemoryMap) -> MemoryMap {
        match self {
            Fault::None => map,
            Fault::PacketEndOffByOne => MemoryMap {
                packet_end: map.packet_end + 1,
                ..map
            },
        }
    }
}

/// Corpus parameters.
#[derive(Debug, Clone, Copy)]
pub struct ConformConfig {
    /// Number of generated programs to run.
    pub corpus: usize,
    /// Base seed; item `i` derives its own generator from `seed + i`.
    pub seed: u64,
    /// Instruction budget per run. Generated programs may loop forever;
    /// exhausting the budget identically on every path is a *passing*
    /// outcome.
    pub max_instructions: u64,
    /// Fault to inject into the counts-only path.
    pub fault: Fault,
}

impl Default for ConformConfig {
    fn default() -> ConformConfig {
        ConformConfig {
            corpus: 100,
            seed: 42,
            max_instructions: 20_000,
            fault: Fault::None,
        }
    }
}

/// One corpus item that diverged, with its minimized repro.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Corpus index of the failing item.
    pub index: usize,
    /// Named divergences of the original program (path-prefixed).
    pub divergences: Vec<String>,
    /// The shrunk program (still failing).
    pub minimized: Vec<Inst>,
    /// The packet the program ran against.
    pub packet: Vec<u8>,
    /// Assemblable `.s` repro of the minimized program.
    pub asm: String,
}

/// Result of a corpus run.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Programs run.
    pub programs: usize,
    /// Items that diverged.
    pub failures: Vec<Failure>,
}

impl CorpusReport {
    /// Whether every item agreed on every path.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one program/packet pair through all five paths and returns the
/// named divergences from the reference (empty = conformant).
///
/// Memory is staged identically for every path: the packet at
/// `packet_base`, `a0`/`a1` holding its address and length — the
/// framework calling convention, minus the application-specific parts.
///
/// # Panics
///
/// Panics if an instruction of `insts` is not encodable; the generator
/// and shrinker only produce encodable programs.
pub fn check_program(insts: &[Inst], packet: &[u8], config: &ConformConfig) -> Vec<String> {
    let map = MemoryMap::default();
    let program = Program::new(insts.to_vec(), map.text_base);

    let full_config = RunConfig {
        max_instructions: config.max_instructions,
        record_pc_trace: true,
        record_mem_trace: true,
        uarch: None,
    };
    let counts_config = RunConfig {
        max_instructions: config.max_instructions,
        record_pc_trace: false,
        record_mem_trace: false,
        uarch: None,
    };

    let stage = |interp: &mut dyn Interpreter, mem: &mut Memory| {
        for (i, byte) in packet.iter().enumerate() {
            mem.write_u8(map.packet_base + i as u32, *byte);
        }
        interp.set_reg(reg::A0, map.packet_base);
        interp.set_reg(reg::A1, packet.len() as u32);
    };
    let capture = |interp: &mut dyn Interpreter, run_config: &RunConfig| {
        let mut mem = Memory::new();
        let mut handler = ConformSys::new(&map);
        Outcome::capture(interp, &mut mem, run_config, &mut handler, stage)
    };

    let mut reference =
        RefCpu::new(&program, map).expect("generated programs are encodable by construction");
    let reference = capture(&mut reference, &full_config);

    let mut full = ForcedCpu::new(Cpu::new(&program, map), ExecPath::Full);
    let full = capture(&mut full, &full_config);

    let mut counts = ForcedCpu::new(
        Cpu::new(&program, config.fault.counts_map(map)),
        ExecPath::Counts,
    );
    let counts = capture(&mut counts, &counts_config);

    // The superblock engine sees the true map: fault injection targets the
    // plain counts leg, and this leg proves the block-level dispatcher
    // itself (fused deltas, cached successors, fallback) against the
    // reference.
    let table = BlockTable::build(&program);
    let mut block = ForcedCpu::new(Cpu::new(&program, map).with_blocks(&table), ExecPath::Block);
    let block = capture(&mut block, &counts_config);

    // The trace leg: eager formation parameters, so one capture trains
    // the warm-up counters and forms traces, and a second capture of the
    // *same* packet replays through them — exercising trace dispatch,
    // fused deltas, and guard exits on every corpus item.
    let mut trace_table = BlockTable::build(&program);
    trace_table.set_trace_params(TraceParams::eager());
    {
        let mut warm = ForcedCpu::new(
            Cpu::new(&program, map).with_blocks(&trace_table),
            ExecPath::Trace,
        );
        let _ = capture(&mut warm, &counts_config);
    }
    let mut traced = ForcedCpu::new(
        Cpu::new(&program, map).with_blocks(&trace_table),
        ExecPath::Trace,
    );
    let traced = capture(&mut traced, &counts_config);

    let mut divergences = Vec::new();
    divergences.extend(
        reference
            .diff(&full, DiffLevel::Full)
            .into_iter()
            .map(|d| format!("full: {d}")),
    );
    divergences.extend(
        reference
            .diff(&counts, DiffLevel::Counts)
            .into_iter()
            .map(|d| format!("counts: {d}")),
    );
    divergences.extend(
        reference
            .diff(&block, DiffLevel::Counts)
            .into_iter()
            .map(|d| format!("block: {d}")),
    );
    divergences.extend(
        reference
            .diff(&traced, DiffLevel::Counts)
            .into_iter()
            .map(|d| format!("trace: {d}")),
    );
    divergences
}

/// Runs the whole corpus, shrinking every failing item.
pub fn run_corpus(config: &ConformConfig) -> CorpusReport {
    let map = MemoryMap::default();
    let mut failures = Vec::new();
    for index in 0..config.corpus {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
        let insts = gen_program(&mut rng, &map);
        let packet = gen_packet(&mut rng);
        let divergences = check_program(&insts, &packet, config);
        if divergences.is_empty() {
            continue;
        }
        let minimized = shrink(insts, |candidate| {
            !check_program(candidate, &packet, config).is_empty()
        });
        let notes: Vec<String> = std::iter::once(format!(
            "npconform minimized repro: corpus index {index}, base seed {}, packet {} bytes",
            config.seed,
            packet.len()
        ))
        .chain(divergences.iter().take(8).map(|d| format!("diverged: {d}")))
        .collect();
        let asm = npasm::emit_repro(&Program::new(minimized.clone(), map.text_base), &notes);
        failures.push(Failure {
            index,
            divergences,
            minimized,
            packet,
            asm,
        });
    }
    CorpusReport {
        programs: config.corpus,
        failures,
    }
}
