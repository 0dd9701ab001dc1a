//! Streaming log2-bucketed histograms of per-packet counts.
//!
//! The exact-value [`Histogram`](https://docs.rs) of the analysis layer
//! keeps one entry per distinct value — fine for paper tables over fixed
//! traces, unbounded for a long-running engine. A [`Log2Histogram`] is
//! the streaming counterpart: 65 fixed buckets (value 0, then one bucket
//! per power of two up to `u64::MAX`), O(1) insertion, exact min/max/mean
//! tracking, and lossless additive merging across engine workers.

use npsim::bblock::BlockMap;
use npsim::RunStats;

/// Number of buckets: value 0, plus one bucket per power of two
/// (`[2^(k-1), 2^k)` for bucket `k` in `1..=64`).
pub const BUCKETS: usize = 65;

/// A fixed-size log2 histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for a value: 0 for 0, `floor(log2(v)) + 1`
    /// otherwise. Total order is preserved across bucket boundaries.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive value range `[lo, hi]` a bucket covers.
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            k => (1u64 << (k - 1), (1u64 << k) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Log2Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// The exact largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in one bucket.
    pub fn bucket_count(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// Iterates `(bucket, lo, hi, count)` over the non-empty buckets in
    /// increasing value order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let (lo, hi) = Log2Histogram::bucket_range(b);
                (b, lo, hi, c)
            })
    }

    /// Adds another histogram into this one (lossless: bucketing is
    /// deterministic, min/max/mean combine exactly).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The per-packet distributions the profiler streams: instructions,
/// memory accesses split by region, and basic blocks per packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketHists {
    /// Instructions executed per packet (paper Fig. 3 / Table V).
    pub instructions: Log2Histogram,
    /// Packet-memory accesses per packet (paper Fig. 4 / Table III).
    pub packet_mem: Log2Histogram,
    /// Non-packet data-memory accesses per packet (paper Fig. 5).
    pub non_packet_mem: Log2Histogram,
    /// Distinct basic blocks executed per packet (paper Fig. 8 input).
    pub blocks: Log2Histogram,
}

impl PacketHists {
    /// An empty set.
    pub fn new() -> PacketHists {
        PacketHists::default()
    }

    /// Records one packet's scalars.
    pub fn record(&mut self, instructions: u64, packet_mem: u64, non_packet_mem: u64, blocks: u64) {
        self.instructions.record(instructions);
        self.packet_mem.record(packet_mem);
        self.non_packet_mem.record(non_packet_mem);
        self.blocks.record(blocks);
    }

    /// Records one packet from its run statistics: instructions, memory
    /// accesses by region, and the blocks whose leaders `stats` covers
    /// (so the run must record coverage, `npsim::Coverage`).
    pub fn record_run(&mut self, stats: &RunStats, blocks: &BlockMap) {
        self.record(
            stats.instret,
            stats.mem.packet_total(),
            stats.mem.non_packet_total(),
            blocks.blocks_executed(&stats.executed).count() as u64,
        );
    }

    /// Packets recorded.
    pub fn packets(&self) -> u64 {
        self.instructions.count()
    }

    /// Adds another set into this one.
    pub fn merge(&mut self, other: &PacketHists) {
        self.instructions.merge(&other.instructions);
        self.packet_mem.merge(&other.packet_mem);
        self.non_packet_mem.merge(&other.non_packet_mem);
        self.blocks.merge(&other.blocks);
    }

    /// Iterates `(name, histogram)` in stable export order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Log2Histogram)> {
        [
            ("instructions_per_packet", &self.instructions),
            ("packet_mem_per_packet", &self.packet_mem),
            ("non_packet_mem_per_packet", &self.non_packet_mem),
            ("blocks_per_packet", &self.blocks),
        ]
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lands_in_bucket_zero() {
        let mut h = Log2Histogram::new();
        h.record(0);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!(Log2Histogram::bucket_range(0), (0, 0));
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every power of two opens a new bucket; the value just below it
        // closes the previous one.
        for k in 1..=63usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(Log2Histogram::bucket_of(lo), k, "lo of bucket {k}");
            assert_eq!(Log2Histogram::bucket_of(hi), k, "hi of bucket {k}");
            assert_eq!(Log2Histogram::bucket_range(k), (lo, hi));
            assert_eq!(Log2Histogram::bucket_of(hi + 1), k + 1, "next bucket");
        }
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
    }

    #[test]
    fn u64_max_lands_in_last_bucket() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.bucket_count(64), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(1u64 << 63));
        assert_eq!(Log2Histogram::bucket_range(64), (1u64 << 63, u64::MAX));
        // The mean of two huge samples must not overflow.
        assert!(h.mean() > 9.2e18);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.iter_nonzero().count(), 0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let samples_a = [0u64, 1, 2, 3, 100, 1 << 20];
        let samples_b = [7u64, 8, u64::MAX, 0];
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut whole = Log2Histogram::new();
        for &v in &samples_a {
            a.record(v);
            whole.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn iter_nonzero_walks_increasing_ranges() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 5, 5, 1000] {
            h.record(v);
        }
        let rows: Vec<_> = h.iter_nonzero().collect();
        assert_eq!(rows[0], (0, 0, 0, 1));
        assert_eq!(rows[1], (3, 4, 7, 2));
        assert_eq!(rows[2], (10, 512, 1023, 1));
    }

    #[test]
    fn packet_hists_record_and_merge() {
        let mut a = PacketHists::new();
        a.record(100, 10, 20, 5);
        a.record(200, 12, 24, 6);
        let mut b = PacketHists::new();
        b.record(150, 11, 22, 5);
        a.merge(&b);
        assert_eq!(a.packets(), 3);
        assert_eq!(a.instructions.min(), Some(100));
        assert_eq!(a.instructions.max(), Some(200));
        assert_eq!(a.blocks.mean(), 16.0 / 3.0);
        assert_eq!(a.iter().count(), 4);
    }
}
