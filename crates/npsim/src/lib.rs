//! # npsim — instruction-level simulator for the NP32 ISA
//!
//! `npsim` is the processor-simulation substrate of the PacketBench
//! reproduction. It plays the role that SimpleScalar/ARM plays in the paper
//! *Analysis of Network Processing Workloads* (ISPASS 2005): applications are
//! expressed as programs for a simple 32-bit load/store ISA and executed one
//! instruction at a time while the simulator records everything the paper's
//! workload analysis needs:
//!
//! * total instruction counts,
//! * the set of *unique* instruction addresses executed ([`Coverage`]),
//! * every data-memory access, classified into **packet memory** and
//!   **non-packet memory** by address region (the paper's key distinction),
//! * optional full program-counter and memory-access traces for the
//!   per-packet analyses (instruction patterns, memory access sequences),
//! * optional micro-architectural side models (bimodal branch predictor,
//!   I/D caches).
//!
//! ## The NP32 ISA
//!
//! NP32 is an ARM/MIPS-class RISC: 32 general-purpose 32-bit registers,
//! fixed 4-byte instructions, a load/store architecture with byte, half-word
//! and word accesses, and PC-relative branches. See [`isa`] for the complete
//! instruction list and [`encode`] for the binary format. The instruction
//! working set of the paper's applications (hundreds of static instructions,
//! thousands executed per packet) is ISA-generic, so the statistics collected
//! here have the same shape as the paper's ARM numbers.
//!
//! ## Memory regions and selective accounting
//!
//! A [`mem::MemoryMap`] assigns address ranges to semantic regions: program
//! text, packet data, program (non-packet) data, and stack. The CPU classifies
//! every access, which is what lets PacketBench split memory statistics into
//! packet and non-packet accesses (paper §V-A.2). *Selective accounting* —
//! excluding framework work from the statistics — is achieved by construction:
//! the host builds application state directly into simulated memory (the
//! paper's uncounted `init()`), and the simulator only runs, and therefore
//! only counts, the application's packet-handling code.
//!
//! ## Example
//!
//! ```
//! use npsim::{Cpu, Memory, MemoryMap, Program, RunConfig, reg};
//! use npsim::isa::{Inst, Op};
//!
//! // A two-instruction program: a0 = a0 + 7; return.
//! let map = MemoryMap::default();
//! let insts = vec![
//!     Inst::with_imm(Op::Addi, reg::A0, reg::A0, 7),
//!     Inst::jr(reg::RA),
//! ];
//! let program = Program::new(insts, map.text_base);
//!
//! let mut mem = Memory::new();
//! let mut cpu = Cpu::new(&program, map);
//! cpu.regs[reg::A0.index()] = 35;
//! let stats = cpu.run(&mut mem, &RunConfig::default())?;
//! assert_eq!(cpu.regs[reg::A0.index()], 42);
//! assert_eq!(stats.instret, 2);
//! # Ok::<(), npsim::SimError>(())
//! ```

pub mod bblock;
pub mod cpu;
pub mod encode;
pub mod error;
pub mod isa;
pub mod mem;
pub mod memo;
pub mod obs;
pub mod trace;
pub mod uarch;
pub mod util;

pub use bblock::{BlockMap, BlockTable};
pub use cpu::{
    Cpu, CpuState, ExecPath, HaltReason, Interpreter, MemCounts, Program, RunConfig, RunStats,
    SysHandler, SysOutcome,
};
pub use error::SimError;
pub use isa::{reg, Inst, Op, Reg};
pub use mem::{AccessKind, MemEvent, Memory, MemoryMap, Region};
pub use memo::{analyze_writes, MemoCache, MemoCounters, MemoKey, WriteAnalysis};
pub use obs::{Coverage, NullObserver, Observer};
pub use trace::{TraceParams, TraceStats};

/// Address the simulator treats as "return to framework".
///
/// The framework seeds `ra` with this value before entering the application;
/// a `jr ra` from the application's top level therefore ends the run. The
/// value lies outside every mapped region.
pub const RETURN_SENTINEL: u32 = 0xffff_fff0;
