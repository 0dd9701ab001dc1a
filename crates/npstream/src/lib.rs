//! # npstream — bounded-memory streaming primitives for PacketBench
//!
//! A batch run that materializes its whole trace as a `Vec<Packet>`
//! before the engine starts caps trace size at RAM. This crate provides
//! the building blocks of the streaming driver behind `pb run` and
//! `pb stream`, where trace size is bounded by disk and memory use is a
//! function of the *configuration* (threads, chunk size, in-flight
//! window), never of the packet count:
//!
//! * [`BoundedQueue`] — fixed-capacity blocking queues from the reader
//!   to each shard worker, with explicit backpressure: their capacity
//!   caps the packets buffered,
//! * [`Chunk`] / [`ShardBuffers`] — deterministic chunk building over the
//!   sharded packet stream, so flush order (which ranks a run's failures)
//!   depends only on trace, sharding, and chunk size — never on thread
//!   timing,
//! * [`SourceSpec`] — parsing of `pb stream` source strings (and the
//!   sources `pb run` builds from `--pcap` or `--trace`/`--seed`)
//!   (`capture.pcap`, `trace.tsh`, `synth:mra:seed=42:packets=10000000`)
//!   into [`nettrace::PacketSource`] instances,
//! * [`peak_rss_kb`] — the peak-RSS probe behind the `peak rss` line
//!   that `pb run` and `pb stream` print.
//!
//! The concrete engine integration (`Engine::run_streaming`) lives in the
//! `packetbench` crate; this crate stays dependency-light (only
//! `nettrace`) so any consumer can reuse the pipeline pieces.
//!
//! ## No wait cycle: workers never push
//!
//! The reader blocks only pushing into a full worker queue, and a worker
//! blocks only popping its empty queue; workers fold their chunks
//! themselves and push nothing, so the wait graph is acyclic for any
//! queue capacity. Closing a queue wakes every waiter, so end-of-stream
//! reaches each worker. See DESIGN.md for the full argument.

pub mod chunk;
pub mod queue;
pub mod rss;
pub mod spec;

pub use chunk::{Chunk, ShardBuffers};
pub use queue::{BoundedQueue, Closed};
pub use rss::peak_rss_kb;
pub use spec::{SourceSpec, SpecError};
