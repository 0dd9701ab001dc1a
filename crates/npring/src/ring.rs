//! A wait-free single-producer/single-consumer ring of `usize` tokens.
//!
//! The layout is the classic DPDK/l2fwd shape:
//!
//! * power-of-two capacity, so positions wrap with a mask and the
//!   head/tail counters can be free-running (full vs. empty needs no
//!   wasted slot and no wrap handling);
//! * the producer owns `tail`, the consumer owns `head`; each side keeps
//!   a *cached* copy of the other's counter and only re-reads the shared
//!   atomic when the cached value says the ring looks full/empty —
//!   the common-case push/pop touches one shared cache line, not two;
//! * `head` and `tail` live on separate cache lines (`CachePadded`) so
//!   the two sides never false-share;
//! * publication is Acquire/Release: the producer's slot write
//!   happens-before the consumer's read because the tail store is
//!   `Release` and the consumer's tail load is `Acquire`; symmetrically
//!   the consumer's head `Release` store guarantees its slot *reads*
//!   completed before the producer may overwrite the slot.
//!
//! The ring carries bare `usize` tokens (pool slot indices). The memory
//! being handed off — the pool slot the token names — rides on the same
//! Acquire/Release edges; see the crate docs for the ownership protocol.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads a value to a cache line so `head` and `tail` never false-share.
/// 64 bytes covers x86-64 and most aarch64 parts; on 128-byte-line
/// hardware the cost is one extra line of padding, not correctness.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared {
    mask: usize,
    slots: Box<[UnsafeCell<usize>]>,
    /// Next position the consumer will pop (consumer-owned).
    head: CachePadded<AtomicUsize>,
    /// Next position the producer will fill (producer-owned).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the slot cells are only ever written by the single producer at
// positions in `[head, tail)`'s complement and only read by the single
// consumer at positions in `[head, tail)`; the Acquire/Release pairs on
// `head`/`tail` order those accesses (see module docs). The `Producer`
// and `Consumer` halves are unique (no Clone), so "single" is enforced
// by ownership.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

/// The producer half of a ring. Not cloneable: SPSC by construction.
pub struct Producer {
    shared: Arc<Shared>,
    /// Producer's private copy of `tail` (it is the only writer).
    tail: usize,
    /// Stale-but-safe copy of the consumer's `head`.
    head_cache: usize,
}

/// The consumer half of a ring. Not cloneable: SPSC by construction.
pub struct Consumer {
    shared: Arc<Shared>,
    /// Consumer's private copy of `head` (it is the only writer).
    head: usize,
    /// Stale-but-safe copy of the producer's `tail`.
    tail_cache: usize,
}

/// Creates an SPSC ring with `capacity` slots.
///
/// # Panics
///
/// If `capacity` is zero or not a power of two (the mask trick, and with
/// it the free-running counters, requires it).
pub fn spsc(capacity: usize) -> (Producer, Consumer) {
    assert!(
        capacity.is_power_of_two(),
        "ring capacity must be a power of two, got {capacity}"
    );
    let slots: Box<[UnsafeCell<usize>]> = (0..capacity).map(|_| UnsafeCell::new(0)).collect();
    let shared = Arc::new(Shared {
        mask: capacity - 1,
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl Producer {
    /// Slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Pushes one token; `Err(token)` if the ring is full. Wait-free: one
    /// slot write and one Release store on the fast path, plus at most
    /// one Acquire re-read of `head` when the cached copy looks full.
    pub fn push(&mut self, token: usize) -> Result<(), usize> {
        let capacity = self.shared.mask + 1;
        if self.tail.wrapping_sub(self.head_cache) == capacity {
            // Looks full through the stale cache; re-read the truth. The
            // Acquire pairs with the consumer's Release head store, so
            // every slot read the consumer did before freeing those
            // positions happened-before our upcoming overwrite.
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == capacity {
                return Err(token);
            }
        }
        // SAFETY: position `tail` is outside `[head, tail)`, so the
        // consumer is not reading it; we are the only producer.
        unsafe {
            *self.shared.slots[self.tail & self.shared.mask].get() = token;
        }
        // Release publishes the slot write above to the consumer's
        // Acquire tail load.
        self.tail = self.tail.wrapping_add(1);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Tokens currently queued (approximate: the consumer may be
    /// draining concurrently, so this is an upper bound at the instant of
    /// the call).
    pub fn len(&self) -> usize {
        self.tail
            .wrapping_sub(self.shared.head.0.load(Ordering::Acquire))
    }

    /// Whether the ring is empty (same staleness caveat as [`len`](Producer::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Consumer {
    /// Slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Pops one token, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<usize> {
        let mut burst = [0usize; 1];
        if self.pop_burst(&mut burst) == 1 {
            Some(burst[0])
        } else {
            None
        }
    }

    /// Pops up to `out.len()` tokens in one go (l2fwd `rx_burst` style)
    /// and returns how many were written to the front of `out`. One
    /// Acquire load amortized over the whole burst, one Release store to
    /// free all the positions at once.
    pub fn pop_burst(&mut self, out: &mut [usize]) -> usize {
        let mut available = self.tail_cache.wrapping_sub(self.head);
        if available == 0 {
            // Looks empty through the stale cache; re-read. Acquire
            // pairs with the producer's Release tail store: every slot
            // write up to the loaded tail is now visible.
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            available = self.tail_cache.wrapping_sub(self.head);
            if available == 0 {
                return 0;
            }
        }
        let n = available.min(out.len());
        for (i, slot) in out.iter_mut().enumerate().take(n) {
            // SAFETY: positions `[head, head + n)` are inside
            // `[head, tail)` — published by the producer, not yet freed.
            *slot =
                unsafe { *self.shared.slots[self.head.wrapping_add(i) & self.shared.mask].get() };
        }
        // Release: our slot reads above happen-before the producer's
        // next overwrite of these positions.
        self.head = self.head.wrapping_add(n);
        self.shared.head.0.store(self.head, Ordering::Release);
        n
    }

    /// Tokens currently queued (approximate: the producer may be pushing
    /// concurrently, so this is a lower bound at the instant of the
    /// call).
    pub fn len(&self) -> usize {
        self.shared
            .tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head)
    }

    /// Whether the ring is empty (same staleness caveat as [`len`](Consumer::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (mut tx, mut rx) = spsc(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "ninth push must report full");
        let mut out = [0usize; 32];
        assert_eq!(rx.pop_burst(&mut out), 8);
        assert_eq!(&out[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rx.pop_burst(&mut out), 0);
    }

    #[test]
    fn burst_is_capped_by_out_slice() {
        let (mut tx, mut rx) = spsc(16);
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        let mut out = [0usize; 4];
        assert_eq!(rx.pop_burst(&mut out), 4);
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(rx.pop_burst(&mut out), 4);
        assert_eq!(out, [4, 5, 6, 7]);
        assert_eq!(rx.pop_burst(&mut out), 2);
        assert_eq!(&out[..2], &[8, 9]);
    }

    #[test]
    fn wraps_many_times_without_losing_tokens() {
        let (mut tx, mut rx) = spsc(4);
        let mut next_push = 0usize;
        let mut next_pop = 0usize;
        let mut out = [0usize; 3];
        for _ in 0..1000 {
            while tx.push(next_push).is_ok() {
                next_push += 1;
            }
            // A stale tail cache may legally shorten the burst; only
            // order and continuity are guaranteed.
            let n = rx.pop_burst(&mut out);
            for &v in &out[..n] {
                assert_eq!(v, next_pop);
                next_pop += 1;
            }
        }
        while let Some(v) = rx.pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push, "every pushed token must arrive");
        assert!(next_push >= 1000, "the ring must keep making progress");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = spsc(6);
    }

    /// Cross-thread FIFO integrity under real contention: one producer
    /// pushes a known sequence as fast as it can, one consumer drains in
    /// bursts with deliberate yields to vary interleavings. Every token
    /// must arrive exactly once, in order — a reordered or torn
    /// publication (the bug a wrong memory ordering causes) fails the
    /// sequence check.
    #[test]
    fn concurrent_spsc_preserves_the_sequence() {
        const TOKENS: usize = 200_000;
        for capacity in [1, 4, 64] {
            let (mut tx, mut rx) = spsc(capacity);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut spins = 0u32;
                    for i in 0..TOKENS {
                        let mut v = i;
                        while let Err(back) = tx.push(v) {
                            v = back;
                            spins += 1;
                            if spins.is_multiple_of(64) {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                });
                scope.spawn(move || {
                    let mut out = [0usize; 32];
                    let mut expected = 0usize;
                    let mut idle = 0u32;
                    while expected < TOKENS {
                        let n = rx.pop_burst(&mut out);
                        if n == 0 {
                            idle += 1;
                            if idle.is_multiple_of(128) {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                            continue;
                        }
                        for &v in &out[..n] {
                            assert_eq!(v, expected, "capacity {capacity}");
                            expected += 1;
                        }
                    }
                    assert_eq!(rx.pop_burst(&mut out), 0, "capacity {capacity}");
                });
            });
        }
    }

    /// The len views from both halves stay within the ring's capacity
    /// and agree with the drained totals once quiescent.
    #[test]
    fn lengths_are_bounded_and_converge() {
        let (mut tx, mut rx) = spsc(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.len(), 5);
        assert_eq!(rx.len(), 5);
        let mut out = [0usize; 2];
        rx.pop_burst(&mut out);
        assert_eq!(rx.len(), 3);
        assert_eq!(tx.len(), 3);
        assert!(!rx.is_empty());
        while rx.pop().is_some() {}
        assert!(rx.is_empty() && tx.is_empty());
    }
}
