//! Lock-free live-ingestion primitives: SPSC rings over a preallocated
//! mbuf-style packet pool.
//!
//! Every path into the simulator used to start from a file with
//! backpressure: the reader stalls when workers fall behind, so the
//! benches measured file replay, not sustained load. A real packet
//! appliance does the opposite — a fixed pool of buffers is filled by
//! the NIC, workers drain them in bursts, and when the pool is exhausted
//! the packet is *dropped and counted*, never stalled. This crate
//! provides that shape (DPDK l2fwd-style) in safe-to-use pieces:
//!
//! * [`ring`] — a wait-free single-producer/single-consumer ring of slot
//!   indices with cache-line-padded head/tail, power-of-two capacity,
//!   and Acquire/Release publication.
//! * [`pool`] — a [`Lane`]: one preallocated packet pool
//!   plus an in-ring (producer → worker) and a free-ring (worker →
//!   producer) whose tokens are pool slot indices. Workers borrow
//!   zero-copy [`PacketView`]s from pool slots and
//!   recycle them on retire; overload is a counted drop.
//! * [`pacer`] — paced replay ([`RateSpec`]: a packets/sec target or
//!   `max`) for driving a lane from a trace at a chosen offered load.
//!
//! ## Ownership protocol
//!
//! A slot index is a *linear token*: at any instant exactly one side
//! holds it (the producer after popping it from the free-ring, a ring
//! while it is queued, or the consumer between dequeue and retire). The
//! holder alone may touch the pool slot. Publication is by the ring
//! itself: the producer's packet write *happens-before* the consumer's
//! read because pushing the token is a Release store of the ring tail
//! and popping it is an Acquire load; recycling is the mirror image
//! through the free-ring. See `DESIGN.md` ("Live ingestion") for the
//! full safety argument.

pub mod pacer;
pub mod pool;
pub mod ring;

pub use pacer::{Pacer, RateError, RateSpec};
pub use pool::{lane, Lane, LaneConsumer, LaneProducer, PacketView, RingStats, MAX_BURST};
