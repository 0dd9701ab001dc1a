//! A [`Lane`]: one preallocated packet pool plus a pair of SPSC rings
//! moving slot indices between a producer and exactly one worker.
//!
//! ```text
//!             in-ring (filled slots)
//!   producer ─────────────────────────▶ worker
//!      ▲                                  │
//!      └──────────────────────────────────┘
//!             free-ring (empty slots)
//! ```
//!
//! The pool is a fixed array of mbuf-style slots, each holding a
//! [`Packet`] whose `data` buffer is retained across refills (after
//! warm-up the steady state allocates nothing). A slot index is a linear
//! token: the free-ring starts holding every index, the producer pops
//! one to fill a slot, pushes it onto the in-ring, the worker dequeues a
//! burst, borrows [`PacketView`]s from the slots, and pushes the indices
//! back onto the free-ring on retire. When the free-ring is empty the
//! pool is exhausted — the producer *drops and counts* instead of
//! waiting (run-to-completion appliances shed load; they do not stall
//! the wire). See `DESIGN.md` ("Live ingestion") for why a `PacketView`
//! can never outlive its slot reservation.

use std::cell::UnsafeCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use nettrace::{Packet, Timestamp};

use crate::ring::{self, Consumer, Producer};

/// Largest burst a worker dequeues in one call, following the DPDK
/// l2fwd convention (`MAX_PKT_BURST == 32`).
pub const MAX_BURST: usize = 32;

/// One pool slot: the global packet index stamped at offer time plus the
/// packet bytes themselves.
struct Mbuf {
    index: u64,
    packet: Packet,
}

struct Pool {
    slots: Box<[UnsafeCell<Mbuf>]>,
}

// SAFETY: a slot is only accessed by the current holder of its index
// token, and token hand-off happens through the SPSC rings whose
// Release/Acquire pairs order the accesses (see `ring` module docs and
// the crate-level ownership protocol).
unsafe impl Sync for Pool {}
unsafe impl Send for Pool {}

/// Shared, exactly-counted lane statistics. Increments are `Relaxed`
/// (they order nothing); totals are exact once the producer and worker
/// threads have been joined.
#[derive(Clone)]
pub struct RingStats {
    inner: Arc<StatsInner>,
}

struct StatsInner {
    produced: AtomicU64,
    dropped: AtomicU64,
    retired: AtomicU64,
    closed: AtomicBool,
}

impl RingStats {
    /// Packets offered to the lane (accepted or dropped).
    pub fn produced(&self) -> u64 {
        self.inner.produced.load(Ordering::Relaxed)
    }

    /// Packets dropped because the pool was exhausted.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Packets the worker processed and recycled.
    pub fn retired(&self) -> u64 {
        self.inner.retired.load(Ordering::Relaxed)
    }
}

/// A producer/consumer pair over one pool — see the module docs.
pub struct Lane {
    /// The producer half; hand to the ingestion thread.
    pub producer: LaneProducer,
    /// The consumer half; hand to the worker thread.
    pub consumer: LaneConsumer,
}

/// Creates a lane whose pool (and both rings) hold `capacity` slots.
///
/// # Panics
///
/// If `capacity` is zero or not a power of two.
pub fn lane(capacity: usize) -> Lane {
    let pool = Arc::new(Pool {
        slots: (0..capacity)
            .map(|_| {
                // Slots start empty: `Packet::copy_from` grows each one to
                // the largest packet it carries and keeps that buffer.
                UnsafeCell::new(Mbuf {
                    index: 0,
                    packet: Packet::from_l3(Timestamp::default(), Vec::new()),
                })
            })
            .collect(),
    });
    let stats = RingStats {
        inner: Arc::new(StatsInner {
            produced: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }),
    };
    let (in_tx, in_rx) = ring::spsc(capacity);
    let (mut free_tx, free_rx) = ring::spsc(capacity);
    for slot in 0..capacity {
        free_tx
            .push(slot)
            .expect("free-ring capacity equals pool slots");
    }
    Lane {
        producer: LaneProducer {
            pool: Arc::clone(&pool),
            in_ring: in_tx,
            free_ring: free_rx,
            stats: stats.clone(),
        },
        consumer: LaneConsumer {
            pool,
            in_ring: in_rx,
            free_ring: free_tx,
            stats,
            pending: [0; MAX_BURST],
            pending_len: 0,
        },
    }
}

/// The fill side of a lane: pops free slots, copies packets in, and
/// publishes them to the worker.
pub struct LaneProducer {
    pool: Arc<Pool>,
    in_ring: Producer,
    free_ring: Consumer,
    stats: RingStats,
}

impl LaneProducer {
    /// Offers one packet. On success the packet bytes are copied into a
    /// pool slot (reusing its buffer) and published; on pool exhaustion
    /// the packet is counted as dropped and `false` is returned.
    pub fn offer(&mut self, index: u64, packet: &Packet) -> bool {
        self.stats.inner.produced.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.free_ring.pop() else {
            self.stats.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        self.fill_and_publish(slot, index, packet);
        true
    }

    /// Offers one packet, spinning until a slot frees up instead of
    /// dropping. `should_abort` is polled while waiting; an abort counts
    /// the packet as dropped and returns `false`. This is the
    /// deterministic zero-drop mode (`--on-full wait`).
    pub fn offer_wait(
        &mut self,
        index: u64,
        packet: &Packet,
        should_abort: impl Fn() -> bool,
    ) -> bool {
        self.stats.inner.produced.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        let slot = loop {
            if let Some(slot) = self.free_ring.pop() {
                break slot;
            }
            if should_abort() {
                self.stats.inner.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            spins += 1;
            if spins.is_multiple_of(256) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        self.fill_and_publish(slot, index, packet);
        true
    }

    fn fill_and_publish(&mut self, slot: usize, index: u64, packet: &Packet) {
        // SAFETY: we hold the slot's index token (just popped from the
        // free-ring), so no other thread touches this slot until we
        // publish the token through the in-ring below.
        unsafe {
            let mbuf = &mut *self.pool.slots[slot].get();
            mbuf.index = index;
            mbuf.packet.copy_from(packet);
        }
        self.in_ring
            .push(slot)
            .expect("in-ring capacity equals pool slots");
    }

    /// Signals end of input. Must be called after the final `offer`; the
    /// Release store pairs with the worker's Acquire in
    /// [`LaneConsumer::is_closed`], so a worker that observes the close
    /// *and then* finds the in-ring empty has seen every packet.
    pub fn close(&mut self) {
        self.stats.inner.closed.store(true, Ordering::Release);
    }

    /// Packets currently queued toward the worker (approximate).
    pub fn queued(&self) -> usize {
        self.in_ring.len()
    }

    /// This lane's statistics handle.
    pub fn stats(&self) -> RingStats {
        self.stats.clone()
    }
}

/// The drain side of a lane: dequeues bursts, lends out views, recycles
/// slots on retire.
pub struct LaneConsumer {
    pool: Arc<Pool>,
    in_ring: Consumer,
    free_ring: Producer,
    stats: RingStats,
    pending: [usize; MAX_BURST],
    pending_len: usize,
}

impl LaneConsumer {
    /// Dequeues up to `max` (≤ [`MAX_BURST`]) slots and returns how many
    /// are now pending. The previous burst must have been retired first.
    pub fn dequeue_burst(&mut self, max: usize) -> usize {
        debug_assert_eq!(
            self.pending_len, 0,
            "previous burst must be retired before dequeuing"
        );
        let max = max.clamp(1, MAX_BURST);
        self.pending_len = self.in_ring.pop_burst(&mut self.pending[..max]);
        self.pending_len
    }

    /// Borrows a zero-copy view of the `i`-th pending packet. The view
    /// borrows `self`, so it cannot outlive the burst: `retire_burst`
    /// takes `&mut self`, which the borrow checker refuses while any
    /// view is alive.
    pub fn packet(&self, i: usize) -> PacketView<'_> {
        assert!(i < self.pending_len, "packet index beyond current burst");
        // SAFETY: we hold the slot's index token (dequeued, not yet
        // retired); the producer's packet write happened-before our
        // dequeue via the in-ring's Release/Acquire pair.
        let mbuf = unsafe { &*self.pool.slots[self.pending[i]].get() };
        PacketView { mbuf }
    }

    /// Recycles every pending slot back to the pool and counts the burst
    /// as retired. Taking `&mut self` is what makes the pool safe: no
    /// [`PacketView`] can still be alive at this point.
    pub fn retire_burst(&mut self) {
        for i in 0..self.pending_len {
            self.free_ring
                .push(self.pending[i])
                .expect("free-ring capacity equals pool slots");
        }
        self.stats
            .inner
            .retired
            .fetch_add(self.pending_len as u64, Ordering::Relaxed);
        self.pending_len = 0;
    }

    /// Whether the producer has closed the lane. A `true` here followed
    /// by an *empty* dequeue means the lane is fully drained (the close
    /// store is Release-ordered after the final publish).
    pub fn is_closed(&self) -> bool {
        self.stats.inner.closed.load(Ordering::Acquire)
    }

    /// Packets currently queued toward this worker (approximate).
    pub fn occupancy(&self) -> usize {
        self.in_ring.len()
    }

    /// This lane's statistics handle.
    pub fn stats(&self) -> RingStats {
        self.stats.clone()
    }
}

/// A zero-copy, read-only borrow of a packet sitting in its pool slot.
/// Dereferences to [`Packet`]; lifetime-bound to the burst it came from.
pub struct PacketView<'a> {
    mbuf: &'a Mbuf,
}

impl PacketView<'_> {
    /// The global packet index stamped by the producer at offer time.
    pub fn index(&self) -> u64 {
        self.mbuf.index
    }
}

impl Deref for PacketView<'_> {
    type Target = Packet;

    fn deref(&self) -> &Packet {
        &self.mbuf.packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(fill: u8, len: usize) -> Packet {
        Packet::from_l3(Timestamp::new(fill as u32, 0), vec![fill; len])
    }

    #[test]
    fn offer_dequeue_retire_round_trip() {
        let Lane {
            mut producer,
            mut consumer,
        } = lane(8);
        for i in 0..5u64 {
            assert!(producer.offer(i, &packet(i as u8, 20 + i as usize)));
        }
        producer.close();

        let n = consumer.dequeue_burst(MAX_BURST);
        assert_eq!(n, 5);
        for i in 0..n {
            let view = consumer.packet(i);
            assert_eq!(view.index(), i as u64);
            assert_eq!(view.data, vec![i as u8; 20 + i]);
            assert_eq!(view.ts.sec, i as u32);
        }
        consumer.retire_burst();
        assert!(consumer.is_closed());
        assert_eq!(consumer.dequeue_burst(MAX_BURST), 0);
        consumer.retire_burst();

        let stats = consumer.stats();
        assert_eq!(stats.produced(), 5);
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.retired(), 5);
    }

    /// Satellite: full-pool overload must drop exactly the overflow, and
    /// `produced == dropped + retired` must hold to the packet.
    #[test]
    fn exhausted_pool_drops_exactly_the_overflow() {
        let Lane {
            mut producer,
            mut consumer,
        } = lane(4);
        let p = packet(7, 40);
        let mut accepted = 0u64;
        for i in 0..10u64 {
            if producer.offer(i, &p) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "pool of 4 accepts exactly 4 with no drain");
        let stats = producer.stats();
        assert_eq!(stats.produced(), 10);
        assert_eq!(stats.dropped(), 6);

        // Drain one burst; exactly that many slots come back.
        assert_eq!(consumer.dequeue_burst(MAX_BURST), 4);
        consumer.retire_burst();
        for i in 10..12u64 {
            assert!(producer.offer(i, &p), "recycled slots accept again");
        }
        assert_eq!(stats.produced(), 12);
        assert_eq!(stats.dropped(), 6);
        assert_eq!(consumer.dequeue_burst(MAX_BURST), 2);
        consumer.retire_burst();
        assert_eq!(stats.retired(), 6);
        assert_eq!(stats.produced(), stats.dropped() + stats.retired());
    }

    /// Satellite: drain-on-EOF retires every accepted packet exactly
    /// once and leaks nothing — after the drain, every slot is back in
    /// the free-ring (provable by refilling the whole pool).
    #[test]
    fn drain_on_eof_neither_double_retires_nor_leaks() {
        const CAPACITY: usize = 8;
        const TOTAL: u64 = 1000;
        let Lane {
            mut producer,
            mut consumer,
        } = lane(CAPACITY);

        let worker = std::thread::spawn(move || {
            let mut seen = Vec::new();
            loop {
                let n = consumer.dequeue_burst(MAX_BURST);
                if n == 0 {
                    if consumer.is_closed() {
                        // Close is published after the final offer; one
                        // more dequeue observes anything racing the flag.
                        let n = consumer.dequeue_burst(MAX_BURST);
                        if n == 0 {
                            break;
                        }
                        for i in 0..n {
                            seen.push(consumer.packet(i).index());
                        }
                        consumer.retire_burst();
                        continue;
                    }
                    std::thread::yield_now();
                    continue;
                }
                for i in 0..n {
                    seen.push(consumer.packet(i).index());
                }
                consumer.retire_burst();
            }
            (consumer, seen)
        });

        let p = packet(1, 32);
        for i in 0..TOTAL {
            assert!(
                producer.offer_wait(i, &p, || false),
                "abort never requested"
            );
        }
        producer.close();

        let (mut consumer, seen) = worker.join().unwrap();
        // Exactly once, in order: no double retire, no lost packet.
        assert_eq!(seen.len() as u64, TOTAL);
        assert!(seen.iter().copied().eq(0..TOTAL));
        let stats = producer.stats();
        assert_eq!(stats.produced(), TOTAL);
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.retired(), TOTAL);

        // No leak: every slot must be back in the free-ring, so the
        // producer can fill the entire pool again without a drop.
        for i in 0..CAPACITY as u64 {
            assert!(producer.offer(TOTAL + i, &p), "slot {i} leaked");
        }
        assert_eq!(consumer.dequeue_burst(MAX_BURST), CAPACITY);
        consumer.retire_burst();
    }

    /// Concurrent overload: with a slow consumer the identity
    /// `produced == dropped + retired` still holds exactly after join.
    #[test]
    fn overload_identity_holds_under_concurrency() {
        const TOTAL: u64 = 50_000;
        let Lane {
            mut producer,
            mut consumer,
        } = lane(16);

        let worker = std::thread::spawn(move || {
            let mut retired = 0u64;
            loop {
                let n = consumer.dequeue_burst(8);
                if n == 0 {
                    if consumer.is_closed() && consumer.dequeue_burst(8) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                } else {
                    // Touch every packet so the borrow is real.
                    for i in 0..consumer_pending(&consumer) {
                        std::hint::black_box(consumer.packet(i).len());
                    }
                }
                retired += consumer_pending(&consumer) as u64;
                consumer.retire_burst();
            }
            retired
        });

        let p = packet(3, 64);
        for i in 0..TOTAL {
            producer.offer(i, &p);
        }
        producer.close();
        let retired = worker.join().unwrap();

        let stats = producer.stats();
        assert_eq!(stats.produced(), TOTAL);
        assert_eq!(stats.retired(), retired);
        assert_eq!(stats.produced(), stats.dropped() + stats.retired());
        assert!(stats.retired() > 0, "some packets must get through");
    }

    fn consumer_pending(consumer: &LaneConsumer) -> usize {
        consumer.pending_len
    }

    #[test]
    fn offer_wait_abort_counts_as_drop() {
        let Lane { mut producer, .. } = lane(2);
        let p = packet(9, 16);
        assert!(producer.offer(0, &p));
        assert!(producer.offer(1, &p));
        // Pool full, nobody draining: the abort predicate fires.
        assert!(!producer.offer_wait(2, &p, || true));
        let stats = producer.stats();
        assert_eq!(stats.produced(), 3);
        assert_eq!(stats.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "beyond current burst")]
    fn packet_view_beyond_burst_panics() {
        let Lane {
            mut producer,
            mut consumer,
        } = lane(4);
        producer.offer(0, &packet(1, 8));
        assert_eq!(consumer.dequeue_burst(MAX_BURST), 1);
        let _ = consumer.packet(1);
    }
}
