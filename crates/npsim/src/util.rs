//! Small utilities shared across the simulator: a dense bit set and a
//! byte-granularity coverage tracker.

use std::collections::BTreeMap;

/// A fixed-capacity dense bit set.
///
/// Used to record which static instructions (or basic blocks) a packet
/// executed. Cheap to clear and to intersect, which the per-packet analyses
/// do constantly.
///
/// ```
/// use npsim::util::BitSet;
/// let mut set = BitSet::new(100);
/// set.insert(3);
/// set.insert(99);
/// assert!(set.contains(3));
/// assert_eq!(set.count(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices in `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity (exclusive upper bound on indices).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bit {index} out of capacity");
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Inserts every index in `range`, a word at a time.
    #[inline]
    pub fn insert_range(&mut self, range: std::ops::Range<usize>) {
        assert!(
            range.end <= self.capacity,
            "range end {} past capacity",
            range.end
        );
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(64 - i % 64);
            self.words[i / 64] |= (u64::MAX >> (64 - n)) << (i % 64);
            i += n;
        }
    }

    /// Whether `index` is present.
    pub fn contains(&self, index: usize) -> bool {
        index < self.capacity && self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// The number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether every bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter().chain(std::iter::repeat(&0)))
            .all(|(a, b)| a & !b == 0)
    }

    /// Makes `self` an exact copy of `other` without reallocating when the
    /// capacities match (the memoization hit path copies a cached execution
    /// footprint into a reused [`crate::cpu::RunStats`] this way).
    pub fn copy_from(&mut self, other: &BitSet) {
        if self.capacity == other.capacity {
            self.words.copy_from_slice(&other.words);
        } else {
            *self = other.clone();
        }
    }

    /// Merges `other` into `self` (set union).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bit set capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over set indices in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the set bits of a [`BitSet`], produced by [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

/// Tracks which individual byte addresses have been touched, page by page.
///
/// This implements the paper's *memory coverage* statistic (Table IV): the
/// size of the active memory region is the number of distinct bytes
/// accessed while processing a trace.
#[derive(Debug, Clone, Default)]
pub struct ByteCoverage {
    pages: BTreeMap<u32, Box<[u64; 64]>>, // 4 KiB page -> bitmap of 4096 bits
    touched: u64,
}

impl ByteCoverage {
    /// Creates an empty coverage tracker.
    pub fn new() -> ByteCoverage {
        ByteCoverage::default()
    }

    /// Marks `len` bytes starting at `addr` as touched.
    pub fn touch(&mut self, addr: u32, len: u32) {
        for offset in 0..len {
            let a = addr.wrapping_add(offset);
            let page = self
                .pages
                .entry(a & !0xfff)
                .or_insert_with(|| Box::new([0u64; 64]));
            let bit = (a & 0xfff) as usize;
            let word = &mut page[bit / 64];
            let mask = 1u64 << (bit % 64);
            if *word & mask == 0 {
                *word |= mask;
                self.touched += 1;
            }
        }
    }

    /// The number of distinct bytes touched so far.
    pub fn bytes(&self) -> u64 {
        self.touched
    }

    /// The number of distinct bytes touched within `[lo, hi)`.
    pub fn bytes_in(&self, lo: u32, hi: u32) -> u64 {
        let mut total = 0;
        for (&page, bits) in &self.pages {
            if page >= hi || page.wrapping_add(0xfff) < lo {
                continue;
            }
            for (i, word) in bits.iter().enumerate() {
                if *word == 0 {
                    continue;
                }
                let mut w = *word;
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let addr = page + (i * 64 + bit) as u32;
                    if addr >= lo && addr < hi {
                        total += 1;
                    }
                }
            }
        }
        total
    }

    /// Forgets all coverage.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.touched = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut set = BitSet::new(130);
        assert!(set.is_empty());
        assert!(set.insert(0));
        assert!(!set.insert(0));
        assert!(set.insert(64));
        assert!(set.insert(129));
        assert_eq!(set.count(), 3);
        assert!(set.contains(64));
        assert!(!set.contains(65));
        assert!(!set.contains(500));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn bitset_subset_and_union() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(5);
        b.insert(5);
        b.insert(70);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        a.union_with(&b);
        assert!(b.is_subset(&a));
        assert_eq!(a.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn bitset_insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn coverage_counts_unique_bytes() {
        let mut cov = ByteCoverage::new();
        cov.touch(0x1000_0000, 4);
        cov.touch(0x1000_0002, 4); // overlaps two bytes
        assert_eq!(cov.bytes(), 6);
        cov.touch(0x2000_0ffe, 4); // crosses a page boundary
        assert_eq!(cov.bytes(), 10);
        assert_eq!(cov.bytes_in(0x1000_0000, 0x1000_0100), 6);
        assert_eq!(cov.bytes_in(0x2000_0000, 0x3000_0000), 4);
        cov.clear();
        assert_eq!(cov.bytes(), 0);
    }

    #[test]
    fn coverage_idempotent() {
        let mut cov = ByteCoverage::new();
        for _ in 0..10 {
            cov.touch(42, 1);
        }
        assert_eq!(cov.bytes(), 1);
    }
}
