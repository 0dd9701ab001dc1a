//! Chunk building for the sharded streaming reader.
//!
//! The reader assigns each packet a global trace index and a shard
//! (worker), appends it to that shard's buffer, and flushes the buffer as
//! a [`Chunk`] once it reaches the configured chunk size. Flush order is a
//! pure function of the trace, the sharding, and the chunk size — never of
//! thread timing — so a chunk's flush id can rank failures: the pipeline
//! reports the failing chunk with the lowest id, whatever the timing.
//!
//! Within one shard, chunks carry strictly ascending trace indices, so a
//! worker that processes its input queue in FIFO order sees its packets in
//! exactly the order the serial engine would have fed them to it.

/// A batch of items tagged with their global trace indices, bound for one
/// shard's worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk<T> {
    /// `(global trace index, item)` pairs, ascending by index.
    pub items: Vec<(u64, T)>,
}

impl<T> Chunk<T> {
    /// The trace index of the chunk's first item.
    ///
    /// # Panics
    ///
    /// Panics on an empty chunk — the builder never emits one.
    pub fn first_index(&self) -> u64 {
        self.items.first().expect("chunk is never empty").0
    }

    /// Items in the chunk.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the chunk is empty (never true for built chunks).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Per-shard chunk buffers with deterministic flushing.
#[derive(Debug)]
pub struct ShardBuffers<T> {
    buffers: Vec<Vec<(u64, T)>>,
    chunk_size: usize,
    next_index: u64,
}

impl<T> ShardBuffers<T> {
    /// Buffers for `shards` workers, flushing at `chunk_size` items
    /// (both minimum 1).
    pub fn new(shards: usize, chunk_size: usize) -> ShardBuffers<T> {
        let shards = shards.max(1);
        ShardBuffers {
            buffers: (0..shards).map(|_| Vec::new()).collect(),
            chunk_size: chunk_size.max(1),
            next_index: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.buffers.len()
    }

    /// The global index the next pushed item will receive.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Appends `item` to `shard`'s buffer under the next global index.
    /// Returns the shard's full chunk when the buffer reaches the chunk
    /// size, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn push(&mut self, shard: usize, item: T) -> Option<(usize, Chunk<T>)> {
        let index = self.next_index;
        self.next_index += 1;
        let buffer = &mut self.buffers[shard];
        if buffer.capacity() == 0 {
            buffer.reserve_exact(self.chunk_size);
        }
        buffer.push((index, item));
        if buffer.len() >= self.chunk_size {
            let items = std::mem::take(buffer);
            Some((shard, Chunk { items }))
        } else {
            None
        }
    }

    /// Drains every non-empty buffer as a final (possibly short) chunk,
    /// ordered by ascending first trace index so the end-of-trace flush
    /// order is deterministic.
    pub fn finish(&mut self) -> Vec<(usize, Chunk<T>)> {
        let mut tail: Vec<(usize, Chunk<T>)> = self
            .buffers
            .iter_mut()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(shard, b)| {
                (
                    shard,
                    Chunk {
                        items: std::mem::take(b),
                    },
                )
            })
            .collect();
        tail.sort_by_key(|(_, c)| c.first_index());
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_exactly_at_chunk_size() {
        let mut buffers = ShardBuffers::new(2, 3);
        // Shard pattern 0,1,0,1,... : shard 0 fills at indices 0,2,4.
        assert!(buffers.push(0, "a").is_none());
        assert!(buffers.push(1, "b").is_none());
        assert!(buffers.push(0, "c").is_none());
        assert!(buffers.push(1, "d").is_none());
        let (shard, chunk) = buffers.push(0, "e").expect("third item fills shard 0");
        assert_eq!(shard, 0);
        assert_eq!(chunk.items, vec![(0, "a"), (2, "c"), (4, "e")]);
        assert_eq!(chunk.first_index(), 0);
        assert_eq!(chunk.len(), 3);
        assert!(!chunk.is_empty());
    }

    #[test]
    fn indices_are_global_and_ascending_per_shard() {
        let mut buffers = ShardBuffers::new(3, 2);
        let mut flushed = Vec::new();
        for i in 0..12u64 {
            if let Some((shard, chunk)) = buffers.push((i % 3) as usize, i) {
                flushed.push((shard, chunk));
            }
        }
        for (shard, chunk) in &flushed {
            for window in chunk.items.windows(2) {
                assert!(window[0].0 < window[1].0, "shard {shard} not ascending");
            }
            for &(index, value) in &chunk.items {
                assert_eq!(index, value);
                assert_eq!((index % 3) as usize, *shard);
            }
        }
        assert_eq!(buffers.next_index(), 12);
    }

    #[test]
    fn finish_orders_tail_chunks_by_first_index() {
        let mut buffers = ShardBuffers::new(3, 100);
        // Feed shard 2 first, then 0, then 1: tail order must follow the
        // first index of each buffer, not the shard number.
        buffers.push(2, ());
        buffers.push(0, ());
        buffers.push(1, ());
        buffers.push(0, ());
        let tail = buffers.finish();
        let shards: Vec<usize> = tail.iter().map(|&(s, _)| s).collect();
        assert_eq!(shards, vec![2, 0, 1]);
        assert_eq!(tail[1].1.items.len(), 2);
        // A second finish is empty.
        assert!(buffers.finish().is_empty());
    }

    #[test]
    fn chunk_size_one_flushes_every_push() {
        let mut buffers = ShardBuffers::new(2, 1);
        for i in 0..5u64 {
            let (_, chunk) = buffers.push((i % 2) as usize, i).expect("immediate flush");
            assert_eq!(chunk.len(), 1);
            assert_eq!(chunk.first_index(), i);
        }
        assert!(buffers.finish().is_empty());
    }

    #[test]
    fn zero_arguments_clamped() {
        let mut buffers: ShardBuffers<u8> = ShardBuffers::new(0, 0);
        assert_eq!(buffers.shards(), 1);
        assert!(buffers.push(0, 9).is_some());
    }
}
