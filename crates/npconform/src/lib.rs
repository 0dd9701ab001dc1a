//! # npconform — differential conformance testing for the NP32 simulator
//!
//! The optimized simulator in [`npsim`] earns its speed with predecoded
//! dispatch, a fused PC check, two monomorphized execution loops, and an
//! unconditional-write zero-register trick. Each of those is a place for a
//! semantic bug to hide. This crate keeps them honest:
//!
//! * [`RefCpu`] — a deliberately simple reference interpreter with none of
//!   those optimizations, the known-good model;
//! * [`gen`] — a seeded generator of assemblable, encodable NP32 programs
//!   covering every opcode and memory-region boundary, plus boundary-case
//!   packets;
//! * [`diff`] — bit-exact outcome comparison with *named* divergences;
//! * [`shrink`](mod@shrink) — automatic reduction of failing programs to
//!   minimal repros that still disassemble and reassemble;
//! * [`harness`] — the corpus driver behind `pb conform` and the CI
//!   `conform` job.
//!
//! The application-level legs of conformance (the five PacketBench
//! programs through the framework, the serial paths, and the
//! multi-threaded engine) live in `packetbench::conform`, built on the
//! same [`Outcome`] comparison.
//!
//! ```
//! use npconform::{run_corpus, ConformConfig};
//!
//! let report = run_corpus(&ConformConfig {
//!     corpus: 3,
//!     ..ConformConfig::default()
//! });
//! assert!(report.passed());
//! ```

pub mod diff;
pub mod gen;
pub mod harness;
pub mod ref_cpu;
pub mod shrink;

pub use diff::{DiffLevel, Outcome};
pub use gen::{arb_inst, gen_packet, gen_program};
pub use harness::{
    check_program, run_corpus, ConformConfig, ConformSys, CorpusReport, Failure, Fault, ForcedCpu,
};
pub use ref_cpu::RefCpu;
pub use shrink::shrink;
