//! # npstream — bounded-memory streaming primitives for PacketBench
//!
//! A batch run that materializes its whole trace as a `Vec<Packet>`
//! before the engine starts caps trace size at RAM. This crate provides
//! the building blocks of the streaming driver behind `pb run` and
//! `pb stream`, where trace size is bounded by disk and memory use is a
//! function of the *configuration* (threads, chunk size, in-flight
//! window), never of the packet count:
//!
//! * [`BoundedQueue`] — fixed-capacity blocking queues coupling the
//!   pipeline stages (reader → shard workers → merger) with explicit
//!   backpressure,
//! * [`Semaphore`] — the in-flight chunk window: one permit per chunk
//!   from reader flush to merger fold, capping total buffered packets,
//! * [`Chunk`] / [`ShardBuffers`] — deterministic chunk building over the
//!   sharded packet stream, so flush order (and with it the merge order)
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
//! ## Why the pipeline cannot deadlock
//!
//! Producers block only on queue capacity or on the permit semaphore;
//! permits are released by the merger, which only ever waits on a result
//! queue whose chunk is already inside the pipeline (its permit is held,
//! so a worker holds it or will pop it next — no further permit is needed
//! for it to reach the merger). Workers never block on pushes because
//! every queue's capacity equals the permit count. The wait graph is
//! acyclic, so progress is guaranteed for any `max_inflight >= 1`; see
//! DESIGN.md for the full argument.

pub mod chunk;
pub mod queue;
pub mod rss;
pub mod sem;
pub mod spec;

pub use chunk::{Chunk, ShardBuffers};
pub use queue::{BoundedQueue, Closed};
pub use rss::peak_rss_kb;
pub use sem::Semaphore;
pub use spec::{SourceSpec, SpecError};
