//! Bounded-memory streaming execution: [`Engine::run_streaming`], the
//! driver behind both `pb run` and `pb stream`.
//!
//! `Engine::run` materializes the whole trace before any packet executes,
//! so peak memory grows linearly with trace length. This module feeds the
//! same sharded workers from a pull-based [`PacketSource`] through
//! fixed-capacity queues, so memory use is a function of the
//! configuration alone:
//!
//! ```text
//! peak buffered packets <= (threads + max_inflight) * chunk_size   (threads > 1)
//! peak buffered packets <= chunk_size                              (threads = 1)
//! ```
//!
//! (the reader's partly filled shard buffers hold at most one chunk per
//! worker, and each worker's queue plus the chunk it is processing hold
//! at most its share of the `max_inflight` window). The bound holds
//! whenever `max_inflight >= 2 * threads`, which the default of four
//! chunks per worker meets; a smaller window behaves as `2 * threads`.
//!
//! ## One thread: run to completion
//!
//! With `threads = 1` there is nothing to overlap, so the reader, the
//! worker and the merger run inline on the calling thread, as
//! [`Engine::run`] does at one thread: refill one chunk of `chunk_size`
//! packet slots from the source in place ([`PacketSource::next_into`]),
//! process it through the same per-chunk body the pipeline workers use,
//! merge its aggregate, repeat. No thread or queue is created, and once
//! every slot has grown to the largest packet it carries, reading a
//! packet allocates nothing. Chunking, chunk ids, the logical timeline,
//! the wall-clock lanes (reader `threads`, worker 0, merger
//! `threads + 1`) and error precedence are the pipeline's: a source
//! error abandons the partly filled chunk unprocessed, exactly as the
//! threaded reader drops its partial shard buffers.
//!
//! ## Pipeline (threads > 1)
//!
//! * A **reader** thread pulls packets from the source, assigns each its
//!   global trace index, and shards it with the exact rule batch runs use
//!   (`Engine::shard_of`). Per-shard buffers flush as fixed-size
//!   [`Chunk`]s, each pushed under the next flush id to the owning
//!   worker's bounded input queue of `max(1, max_inflight / threads - 1)`
//!   chunks. The reader blocks while that queue is full: that is the
//!   backpressure. Flush order is a pure function of the trace, the
//!   sharding rule, and `chunk_size` — never of thread timing.
//! * **Workers** (one per shard, each a `Lane` owning a private
//!   `PacketBench`) pop chunks FIFO, process every packet with the batch
//!   clock (`process_packet_at(index, ..)`), fold the records into their
//!   own [`StreamAggregate`], and discard emitted output packets.
//! * The calling thread joins them and merges the workers' folds.
//!
//! ## Determinism
//!
//! Per-packet results are bit-identical to the batch engine's: the shard
//! rule, each worker's FIFO processing order, and the global-index clock
//! are all the same, so every `PacketRecord` matches the batch run's
//! record for that index. [`StreamAggregate`] folds are exact integer
//! sums plus an exact histogram — associative and commutative — so the
//! merged aggregate equals the serial trace-order fold at **any** thread
//! count, chunk size and merge order. `pb stream` therefore prints the
//! same report bytes at every `--threads` and `--chunk-size`, and
//! `pb run` is a front end to this same driver.
//!
//! ## No wait cycle: workers never push
//!
//! The reader waits only for room in a worker's queue, and a worker
//! waits only for the reader's next chunk. No worker ever pushes, so the
//! wait graph is acyclic for any window. The reader closes every queue
//! however it ends, a panicking source included, so each worker drains
//! its queue and exits, and the reader's panic reaches the caller.
//!
//! ## Failures
//!
//! A chunk's position is its flush id. A worker whose chunk fails
//! records it in the run's failure cell (`lane::Failure`); the reader
//! then stops reading, and every worker skips the chunks flushed after
//! the lowest failed one while it drains its queue. Chunks the reader
//! never dispatched would have had higher ids, so nothing is lost: each
//! worker runs a prefix of its chunks exactly as a serial run would, and
//! the reported error is the first failing packet of the lowest-id
//! failing chunk, deterministic for a given configuration. A source
//! error drops the reader's partial shard buffers; a packet failure in a
//! dispatched chunk still beats it.

use std::time::{Duration, Instant};

use nettrace::{Packet, PacketSource, Timestamp};
use npobs::timeline::{Sample, Stage, Timeline};
use npsim::NullObserver;
use npstream::{BoundedQueue, Chunk, ShardBuffers};

use crate::analysis::StreamAggregate;
use crate::engine::{Engine, WorkerMetrics};
use crate::error::BenchError;
use crate::framework::{Detail, PacketRecord};
use crate::lane::{
    assemble_timeline, merge_lane, nanos, settle_idle, Failure, Lane, LaneTelemetry,
    MonitorCounters,
};

/// Sizing of the streaming pipeline. Zeros mean "pick a default":
/// `threads = 0` uses available parallelism, `chunk_size = 0` uses
/// [`StreamConfig::DEFAULT_CHUNK_SIZE`], and `max_inflight = 0` uses
/// four chunks per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Packets per dispatched chunk (0 = default).
    pub chunk_size: usize,
    /// Chunks allowed in flight between the reader and the workers' folds
    /// (0 = default). This is the backpressure window: each worker holds
    /// at most `max_inflight / threads` chunks, queued or in hand, and
    /// the reader stalls on a worker whose share is full. A window under
    /// `2 * threads` behaves as `2 * threads`.
    pub max_inflight: usize,
}

impl StreamConfig {
    /// Default packets per chunk when `chunk_size` is 0.
    pub const DEFAULT_CHUNK_SIZE: usize = 1024;

    /// Resolves the zero placeholders against `threads` workers.
    fn resolve(self) -> (usize, usize, usize) {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        let chunk_size = if self.chunk_size == 0 {
            StreamConfig::DEFAULT_CHUNK_SIZE
        } else {
            self.chunk_size
        };
        let max_inflight = if self.max_inflight == 0 {
            threads * 4
        } else {
            self.max_inflight
        };
        (threads, chunk_size, max_inflight)
    }
}

/// The result of an [`Engine::run_streaming`]: the online aggregate plus
/// run telemetry. Unlike [`crate::engine::EngineRun`] there is no
/// per-packet record vector — that is the point.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// The merged online aggregate over every packet streamed.
    pub aggregate: StreamAggregate,
    /// Worker threads actually used.
    pub threads: usize,
    /// Packets per chunk actually used.
    pub chunk_size: usize,
    /// In-flight chunk window actually used.
    pub max_inflight: usize,
    /// Chunks dispatched through the pipeline.
    pub chunks: u64,
    /// Wall-clock time of the run, including per-worker app builds.
    pub elapsed: Duration,
    /// Per-worker telemetry, ordered by worker index. `queue_depth` is
    /// the number of packets enqueued to the worker.
    pub workers: Vec<WorkerMetrics>,
    /// The in-flight telemetry timeline (reader, worker, and merger
    /// lanes), present when the engine ran with [`Engine::timeline`].
    pub timeline: Option<Timeline>,
    /// Peak resident set of the process at run end, in KiB. `None` when
    /// the platform exposes no `/proc/self/status` — absent, not zero,
    /// so reports cannot mistake "unknown" for "tiny".
    pub peak_rss_kb: Option<u64>,
}

impl StreamRun {
    /// Packets streamed through the pipeline.
    pub fn packets(&self) -> u64 {
        self.aggregate.packets()
    }

    /// Simulated packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.packets() as f64 / secs
        }
    }
}

/// What a driver hands back to [`Engine::run_streaming`]: the merged
/// aggregate, chunks folded, per-worker metrics (`idle_ns` still unset),
/// and every telemetry lane it kept.
struct Folded {
    aggregate: StreamAggregate,
    chunks: u64,
    workers: Vec<WorkerMetrics>,
    lanes: Vec<LaneTelemetry>,
}

impl Engine {
    /// Streams `source` through the sharded workers with bounded memory
    /// and returns the online aggregate. The aggregate is bit-identical
    /// to what a batch [`Engine::run`] over the same packets produces, at
    /// any thread count and chunk size. One thread runs inline on the
    /// calling thread; more run a reader thread feeding one folding
    /// worker per shard (see the module docs).
    ///
    /// # Errors
    ///
    /// The first failing packet in chunk flush order (deterministic for a
    /// given configuration), or the source's read error. A panic in the
    /// source reaches the caller.
    pub fn run_streaming<S>(
        &self,
        source: S,
        detail: Detail,
        config: StreamConfig,
    ) -> Result<StreamRun, BenchError>
    where
        S: PacketSource + Send,
    {
        let start = Instant::now();
        self.monitored(None, start, |monitor| {
            self.stream(source, detail, config, start, monitor)
        })
    }

    /// The streaming driver: runs `source` inline or through the
    /// pipeline, then merges the lanes' telemetry.
    pub(crate) fn stream<S: PacketSource + Send>(
        &self,
        source: S,
        detail: Detail,
        config: StreamConfig,
        start: Instant,
        monitor: Option<&MonitorCounters>,
    ) -> Result<StreamRun, BenchError> {
        let (threads, chunk_size, max_inflight) = config.resolve();
        let Folded {
            aggregate,
            chunks,
            mut workers,
            lanes,
        } = if threads == 1 {
            self.stream_inline(source, detail, chunk_size, start, monitor)?
        } else {
            self.stream_pipelined(
                source,
                detail,
                threads,
                chunk_size,
                max_inflight,
                start,
                monitor,
            )?
        };
        let timeline = assemble_timeline(self.timeline, threads, lanes);
        settle_idle(&mut workers, start);
        Ok(StreamRun {
            aggregate,
            threads,
            chunk_size,
            max_inflight,
            chunks,
            elapsed: start.elapsed(),
            workers,
            timeline,
            peak_rss_kb: npstream::peak_rss_kb(),
        })
    }

    /// The one-thread driver: the reader, the worker and the merger take
    /// turns on the calling thread over one chunk of packet slots, on the
    /// pipeline's lanes (worker 0, reader 1, merger 2). The slots persist
    /// across chunks and the source refills them in place
    /// ([`PacketSource::next_into`]), so once each slot has grown to the
    /// largest packet it carries, reading allocates nothing. A source
    /// error abandons the partly filled chunk unprocessed, as the
    /// threaded reader does.
    fn stream_inline<S: PacketSource>(
        &self,
        mut source: S,
        detail: Detail,
        chunk_size: usize,
        start: Instant,
        monitor: Option<&MonitorCounters>,
    ) -> Result<Folded, BenchError> {
        let wall_spec = self.timeline.filter(|s| !s.deterministic);
        let mut lane = Lane::new(self, 0, detail, start, monitor, NullObserver);
        let mut reader_lane = wall_spec.map(|s| LaneTelemetry::new(s, 1, start));
        let mut merger_lane = wall_spec.map(|s| LaneTelemetry::new(s, 2, start));
        // Slots grow on demand, so a short trace never holds `chunk_size`
        // of them; `items[..filled]` is the current chunk.
        let mut items: Vec<(u64, Packet)> = Vec::new();
        let mut record = PacketRecord::empty();
        let mut aggregate = StreamAggregate::new();
        let mut chunks = 0u64;
        let mut read = 0u64;
        let mut eof = false;
        let outcome = 'run: loop {
            let read_began = Instant::now();
            let mut filled = 0;
            while !eof && filled < chunk_size {
                if filled == items.len() {
                    items.push((0, Packet::from_l3(Timestamp::default(), Vec::new())));
                }
                let (index, packet) = &mut items[filled];
                match source.next_into(packet) {
                    Ok(true) => {
                        *index = read;
                        filled += 1;
                        read += 1;
                        if let Some(LaneTelemetry::Wall(sampler, _)) = &mut reader_lane {
                            if sampler.on_packet() {
                                sampler.push(Sample::default());
                            }
                        }
                    }
                    Ok(false) => eof = true,
                    Err(e) => break 'run Err(BenchError::from(e)),
                }
            }
            if filled == 0 {
                break Ok(());
            }
            let id = chunks;
            chunks += 1;
            let chunk_packets = filled as u64;
            if let Some(LaneTelemetry::Wall(_, log)) = &mut reader_lane {
                log.record(Stage::Read, id, 1, read_began, chunk_packets);
            }

            let chunk_aggregate =
                match stream_chunk(&mut lane, id, &items[..filled], None, &mut record) {
                    Ok(agg) => agg,
                    Err(e) => break Err(e),
                };

            let fold_began = Instant::now();
            aggregate.merge(&chunk_aggregate);
            if let Some(LaneTelemetry::Wall(sampler, log)) = &mut merger_lane {
                log.record(Stage::Merge, id, 2, fold_began, chunk_packets);
                if sampler.on_packets(chunk_packets) {
                    sampler.push(Sample::default());
                }
            }
        };
        outcome?;
        let (metrics, lane, _) = lane.finish(read, 0);
        Ok(Folded {
            aggregate,
            chunks,
            workers: vec![metrics],
            lanes: lane
                .into_iter()
                .chain(reader_lane)
                .chain(merger_lane)
                .collect(),
        })
    }

    /// The threaded driver for `threads > 1`: a reader thread shards
    /// chunks into one bounded queue per worker, each worker folds its
    /// chunks, and the calling thread merges the folds after join (see
    /// the module docs).
    #[allow(clippy::too_many_arguments)]
    fn stream_pipelined<S: PacketSource + Send>(
        &self,
        source: S,
        detail: Detail,
        threads: usize,
        chunk_size: usize,
        max_inflight: usize,
        start: Instant,
        monitor: Option<&MonitorCounters>,
    ) -> Result<Folded, BenchError> {
        // A worker's queued chunks plus the one it is processing are its
        // share of the window.
        let depth = (max_inflight / threads).saturating_sub(1).max(1);
        let inputs: Vec<BoundedQueue<(u64, Chunk<Packet>)>> =
            (0..threads).map(|_| BoundedQueue::new(depth)).collect();
        let failure = Failure::new();
        let (reader_lane, chunks, done) = std::thread::scope(|scope| {
            let reader =
                scope.spawn(|| self.stream_reader(source, &inputs, chunk_size, &failure, start));
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(w, input)| {
                    let failure = &failure;
                    scope.spawn(move || {
                        self.stream_worker(w, input, detail, failure, monitor, start)
                    })
                })
                .collect();
            // A panicking source reaches the caller, as at one thread.
            let (lane, chunks) = reader
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            let done: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("worker threads never panic"))
                .collect();
            (lane, chunks, done)
        });
        failure.into_result()?;

        let merge_start = Instant::now();
        let mut aggregate = StreamAggregate::new();
        let mut workers = Vec::with_capacity(threads);
        let mut lanes: Vec<LaneTelemetry> = reader_lane.into_iter().collect();
        for (metrics, lane, fold) in done {
            aggregate.merge(&fold);
            workers.push(metrics);
            lanes.extend(lane);
        }
        let merged = aggregate.packets();
        let merger = merge_lane(self.timeline, threads, start, merge_start, merged);
        lanes.extend(merger);
        Ok(Folded {
            aggregate,
            chunks,
            workers,
            lanes,
        })
    }

    /// The pipeline's reader: pulls packets, shards them with the batch
    /// rule and pushes each flushed shard buffer to its worker's queue as
    /// the next chunk, until the source ends or fails or a chunk fails.
    /// Returns its wall-clock lane (reader `threads`) and the chunks it
    /// dispatched. A source error abandons the partial shard buffers.
    fn stream_reader<S: PacketSource>(
        &self,
        mut source: S,
        inputs: &[BoundedQueue<(u64, Chunk<Packet>)>],
        chunk_size: usize,
        failure: &Failure,
        start: Instant,
    ) -> (Option<LaneTelemetry>, u64) {
        // Closes every worker queue however the reader ends, a panicking
        // source included, so each worker drains its queue and exits.
        struct CloseAll<'a, T>(&'a [BoundedQueue<T>]);
        impl<T> Drop for CloseAll<'_, T> {
            fn drop(&mut self) {
                self.0.iter().for_each(BoundedQueue::close);
            }
        }
        let _close = CloseAll(inputs);
        let threads = inputs.len();
        let mut buffers: ShardBuffers<Packet> = ShardBuffers::new(threads, chunk_size);
        let wall_spec = self.timeline.filter(|s| !s.deterministic);
        let mut lane = wall_spec.map(|s| LaneTelemetry::new(s, threads, start));
        let mut backpressure_ns = 0u64;
        let mut chunks = 0u64;
        // The read span and the backpressure count cover the push, which
        // blocks while the worker's queue is full.
        let mut dispatch = |shard: usize,
                            chunk: Chunk<Packet>,
                            lane: &mut Option<LaneTelemetry>,
                            backpressure_ns: &mut u64| {
            let began = Instant::now();
            let (id, packets) = (chunks, chunk.len() as u64);
            chunks += 1;
            // Only this reader closes the queues, so the push cannot fail.
            let _ = inputs[shard].push((id, chunk));
            *backpressure_ns += nanos(began.elapsed());
            if let Some(LaneTelemetry::Wall(_, log)) = lane {
                log.record(Stage::Read, id, threads, began, packets);
            }
        };
        // Chunks not yet dispatched would get ids past any failed one.
        while !failure.stopped() {
            match source.next_packet() {
                Ok(Some(packet)) => {
                    let shard = self.shard_of(buffers.next_index() as usize, &packet, threads);
                    if let Some(LaneTelemetry::Wall(sampler, _)) = &mut lane {
                        if sampler.on_packet() {
                            let queued: usize = inputs.iter().map(BoundedQueue::len).sum();
                            sampler.push(Sample {
                                queue_depth: queued as u64,
                                backpressure_ns,
                                ..Sample::default()
                            });
                        }
                    }
                    if let Some((shard, chunk)) = buffers.push(shard, packet) {
                        dispatch(shard, chunk, &mut lane, &mut backpressure_ns);
                    }
                }
                Ok(None) => {
                    for (shard, chunk) in buffers.finish() {
                        dispatch(shard, chunk, &mut lane, &mut backpressure_ns);
                    }
                    break;
                }
                Err(e) => {
                    failure.fail_source(BenchError::from(e));
                    break;
                }
            }
        }
        (lane, chunks)
    }

    /// One streaming worker: pop chunks FIFO and fold each through the
    /// lane, skipping every chunk flushed after the lowest failure. The
    /// lane builds its `PacketBench` on the first packet, so idle workers
    /// cost nothing.
    fn stream_worker(
        &self,
        worker: usize,
        input: &BoundedQueue<(u64, Chunk<Packet>)>,
        detail: Detail,
        failure: &Failure,
        monitor: Option<&MonitorCounters>,
        start: Instant,
    ) -> (WorkerMetrics, Option<LaneTelemetry>, StreamAggregate) {
        let mut lane = Lane::new(self, worker, detail, start, monitor, NullObserver);
        let mut record = PacketRecord::empty();
        let mut fold = StreamAggregate::new();
        let mut enqueued = 0u64;
        while let Some((id, chunk)) = input.pop() {
            enqueued += chunk.len() as u64;
            if failure.skips(id) {
                continue;
            }
            match stream_chunk(&mut lane, id, &chunk.items, Some(input), &mut record) {
                Ok(agg) => fold.merge(&agg),
                Err(e) => failure.fail(id, e),
            }
        }
        let (metrics, lane, _) = lane.finish(enqueued, 0);
        (metrics, lane, fold)
    }
}

/// Runs chunk `id`'s `(trace index, packet)` items through `lane` into
/// `record`, one packet at a time, as one busy period, and returns the
/// chunk's fold: the one per-packet body of both streaming drivers. The
/// lane's backlog is its `input` queue (the inline driver has none).
/// Emitted packets are not part of the aggregate, so they are dropped per
/// chunk and cannot accumulate.
fn stream_chunk(
    lane: &mut Lane<'_>,
    id: u64,
    items: &[(u64, Packet)],
    input: Option<&BoundedQueue<(u64, Chunk<Packet>)>>,
    record: &mut PacketRecord,
) -> Result<StreamAggregate, BenchError> {
    let began = lane.begin();
    let mut agg = StreamAggregate::new();
    let backlog = || (input.map_or(0, |input| input.len() as u64), 0);
    let folded = items.iter().try_for_each(|(index, packet)| {
        lane.process(*index, packet, record, backlog)?;
        agg.add_record(record);
        Ok(())
    });
    lane.take_output_packets();
    lane.end();
    lane.span(id, began, items.len() as u64);
    folded.map(|()| agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;
    use crate::config::WorkloadConfig;
    use nettrace::synth::{SyntheticTrace, TraceProfile};
    use nettrace::{Limited, Timestamp, TraceError};

    fn batch_aggregate(engine: &Engine, packets: &[Packet]) -> StreamAggregate {
        let run = engine.run(packets, Detail::counts(), 1).unwrap();
        let mut agg = StreamAggregate::new();
        for record in &run.records {
            agg.add_record(record);
        }
        agg
    }

    fn synth(n: u64, seed: u64) -> Limited<SyntheticTrace> {
        Limited::new(SyntheticTrace::new(TraceProfile::mra(), seed), n)
    }

    #[test]
    fn streaming_matches_batch_across_shapes() {
        let engine = Engine::new(AppId::Ipv4Trie);
        let packets = SyntheticTrace::new(TraceProfile::mra(), 7).take_packets(200);
        let want = batch_aggregate(&engine, &packets);
        for threads in [1, 3] {
            // Chunk size 1, a short final chunk, exactly one full chunk,
            // and fewer packets than one chunk.
            for chunk_size in [1, 16, 200, 1024] {
                let run = engine
                    .run_streaming(
                        synth(200, 7),
                        Detail::counts(),
                        StreamConfig {
                            threads,
                            chunk_size,
                            max_inflight: 2,
                        },
                    )
                    .unwrap();
                assert_eq!(
                    run.aggregate, want,
                    "threads={threads} chunk_size={chunk_size}"
                );
                assert_eq!(run.packets(), 200);
                assert_eq!(run.threads, threads);
                assert_eq!(
                    run.workers.iter().map(|w| w.packets).sum::<u64>(),
                    200,
                    "threads={threads} chunk_size={chunk_size}"
                );
                if threads == 1 {
                    assert_eq!(run.chunks, 200u64.div_ceil(chunk_size as u64));
                    assert_eq!(run.workers[0].queue_depth, 200);
                }
            }
        }
    }

    #[test]
    fn stateful_flow_app_streams_exactly() {
        let engine = Engine::new(AppId::FlowClass);
        let packets = SyntheticTrace::new(TraceProfile::mra(), 31).take_packets(300);
        let want = batch_aggregate(&engine, &packets);
        for threads in [1, 4] {
            let run = engine
                .run_streaming(
                    synth(300, 31),
                    Detail::counts(),
                    StreamConfig {
                        threads,
                        chunk_size: 32,
                        max_inflight: 3,
                    },
                )
                .unwrap();
            assert_eq!(run.aggregate, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_source_yields_empty_run() {
        for threads in [1, 2] {
            let config = StreamConfig {
                threads,
                ..StreamConfig::default()
            };
            let run = Engine::new(AppId::Ipv4Trie)
                .run_streaming(synth(0, 1), Detail::counts(), config)
                .unwrap();
            assert_eq!(run.packets(), 0);
            assert_eq!(run.chunks, 0);
            assert_eq!(run.workers.len(), threads);
            assert!(run.workers.iter().all(|w| w.packets == 0));
        }
    }

    #[test]
    fn minimal_window_still_completes() {
        // max_inflight = 1 is under one chunk per worker; it must still
        // finish and still match.
        let engine = Engine::new(AppId::Ipv4Radix);
        let packets = SyntheticTrace::new(TraceProfile::mra(), 3).take_packets(90);
        let want = batch_aggregate(&engine, &packets);
        let run = engine
            .run_streaming(
                synth(90, 3),
                Detail::counts(),
                StreamConfig {
                    threads: 4,
                    chunk_size: 8,
                    max_inflight: 1,
                },
            )
            .unwrap();
        assert_eq!(run.aggregate, want);
    }

    #[test]
    fn bad_packet_fails_the_stream() {
        struct BadAfter {
            inner: Limited<SyntheticTrace>,
            left: u64,
        }
        impl PacketSource for BadAfter {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                if self.left == 0 {
                    return Ok(Some(Packet::from_l3(Timestamp::default(), vec![0x45; 8])));
                }
                self.left -= 1;
                self.inner.next_packet()
            }
        }
        // With one thread, index 6 lands in the second chunk.
        for (threads, left) in [(3, 40), (1, 6)] {
            let source = BadAfter {
                inner: synth(u64::MAX, 5),
                left,
            };
            let err = Engine::new(AppId::Ipv4Radix)
                .run_streaming(
                    source,
                    Detail::counts(),
                    StreamConfig {
                        threads,
                        chunk_size: 4,
                        max_inflight: 2,
                    },
                )
                .unwrap_err();
            assert!(
                matches!(err, BenchError::BadPacket(_)),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn source_error_surfaces() {
        struct Failing(u64);
        impl PacketSource for Failing {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                if self.0 == 0 {
                    return Err(TraceError::Truncated {
                        what: "test record",
                    });
                }
                self.0 -= 1;
                Ok(Some(
                    SyntheticTrace::new(TraceProfile::mra(), self.0).next_packet(),
                ))
            }
        }
        let err = Engine::new(AppId::Ipv4Trie)
            .run_streaming(
                Failing(10),
                Detail::counts(),
                StreamConfig {
                    threads: 2,
                    chunk_size: 4,
                    max_inflight: 2,
                },
            )
            .unwrap_err();
        assert!(matches!(err, BenchError::BadPacket(_)), "{err:?}");
    }

    #[test]
    fn a_panicking_source_reaches_the_caller() {
        // The reader thread unwinds: it must still close every worker's
        // queue, and the panic must surface from `run_streaming` as it
        // does at one thread, not hang the run.
        struct PanicAt(u64);
        impl PacketSource for PanicAt {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                self.0 += 1;
                assert!(self.0 < 50, "source fault at packet 50");
                Ok(Some(
                    SyntheticTrace::new(TraceProfile::mra(), self.0).next_packet(),
                ))
            }
        }
        for threads in [1, 3] {
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let config = StreamConfig {
                    threads,
                    chunk_size: 8,
                    max_inflight: 0,
                };
                let run = std::panic::catch_unwind(|| {
                    Engine::new(AppId::Ipv4Trie).run_streaming(PanicAt(0), Detail::counts(), config)
                });
                let _ = done.send(run.is_err());
            });
            let panicked = outcome
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("threads={threads}: the run hung"));
            assert!(panicked, "threads={threads}: the source's panic was lost");
        }
    }

    #[test]
    fn memoized_stream_matches_unmemoized_across_thread_counts() {
        use crate::framework::MemoMode;
        // The per-worker cache lives across chunks: with chunk_size 16
        // and 400 packets over 32 flows, most hits are cross-chunk.
        let zipf = TraceProfile::with_zipf(32, 120);
        let source = |n| Limited::new(SyntheticTrace::new(zipf, 27), n);
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            let want = Engine::new(id)
                .run_streaming(
                    source(400),
                    Detail::counts(),
                    StreamConfig {
                        threads: 1,
                        chunk_size: 64,
                        max_inflight: 2,
                    },
                )
                .unwrap()
                .aggregate;
            for threads in [1, 4, 7] {
                let run = Engine::new(id)
                    .memo(MemoMode::On)
                    .run_streaming(
                        source(400),
                        Detail::counts(),
                        StreamConfig {
                            threads,
                            chunk_size: 16,
                            max_inflight: 3,
                        },
                    )
                    .unwrap();
                assert_eq!(run.aggregate, want, "{id:?} threads={threads}");
                let hits: u64 = run.workers.iter().map(|w| w.memo_hits).sum();
                let misses: u64 = run.workers.iter().map(|w| w.memo_misses).sum();
                assert_eq!(hits + misses, 400, "{id:?} threads={threads}");
                // Each worker's private cache pays at most one miss per
                // flow (32 flows, ignoring rare collisions), so hits
                // can't fall below 400 - 32*threads. With chunk_size 16
                // that floor is only reachable if caches survive across
                // chunks — a cache that died per chunk would miss once
                // per flow per chunk.
                assert!(
                    hits >= (400 - 32 * threads as u64).saturating_sub(16),
                    "{id:?} threads={threads}: {hits} hits"
                );
            }
        }
    }

    fn one_thread(chunk_size: usize) -> StreamConfig {
        StreamConfig {
            threads: 1,
            chunk_size,
            max_inflight: 0,
        }
    }

    #[test]
    fn inline_source_error_abandons_the_partial_chunk() {
        // Five good packets, one the application would reject, then a
        // read error, all inside the first chunk: the error is the
        // source's, because the partial chunk is never processed — on the
        // inline path and in the threaded pipeline alike.
        struct ThenFail(u64);
        impl PacketSource for ThenFail {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                self.0 += 1;
                match self.0 {
                    1..=5 => Ok(Some(
                        SyntheticTrace::new(TraceProfile::mra(), self.0).next_packet(),
                    )),
                    6 => Ok(Some(Packet::from_l3(Timestamp::default(), vec![0x45; 8]))),
                    _ => Err(TraceError::Truncated {
                        what: "test record",
                    }),
                }
            }
        }
        let mut messages = Vec::new();
        for threads in [1, 2] {
            let config = StreamConfig {
                threads,
                chunk_size: 8,
                max_inflight: 2,
            };
            let err = Engine::new(AppId::Ipv4Radix)
                .run_streaming(ThenFail(0), Detail::counts(), config)
                .unwrap_err();
            messages.push(err.to_string());
        }
        assert!(messages[0].contains("test record"), "{}", messages[0]);
        assert_eq!(messages[0], messages[1]);
    }

    #[test]
    fn inline_worker_metrics_match_the_batch_engine() {
        use crate::framework::MemoMode;
        let zipf = TraceProfile::with_zipf(32, 120);
        let packets = SyntheticTrace::new(zipf, 27).take_packets(600);
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            for memo in [MemoMode::Off, MemoMode::On] {
                let engine = Engine::new(id).memo(memo);
                let batch = engine.run(&packets, Detail::counts(), 1).unwrap();
                let source = Limited::new(SyntheticTrace::new(zipf, 27), 600);
                let run = engine
                    .run_streaming(source, Detail::counts(), one_thread(64))
                    .unwrap();
                // Nonzero counters, so equality below means something
                // (with memo on, hits starve trace warm-up).
                let (traces, hits) = (batch.workers[0].traces_formed, batch.workers[0].memo_hits);
                match memo {
                    MemoMode::Off => assert!(traces > 0, "{id:?}"),
                    _ => assert!(hits > 0, "{id:?}"),
                }
                let (want, got) = (&batch.workers[0], &run.workers[0]);
                let counters = |w: &WorkerMetrics| {
                    [
                        w.packets,
                        w.queue_depth,
                        w.memo_hits,
                        w.memo_misses,
                        w.memo_evictions,
                        w.block_bailouts,
                        w.traces_formed,
                        w.trace_hits,
                        w.trace_guard_exits,
                        w.trace_declines,
                    ]
                };
                assert_eq!(counters(got), counters(want), "{id:?} {memo:?}");
            }
        }
    }

    #[test]
    fn inline_wall_timeline_keeps_the_pipeline_lanes() {
        use npobs::timeline::TimelineSpec;
        let run = Engine::new(AppId::Ipv4Trie)
            .timeline(Some(TimelineSpec::wall().every(8)))
            .run_streaming(synth(100, 2), Detail::counts(), one_thread(16))
            .unwrap();
        let timeline = run.timeline.expect("timeline requested");
        assert_eq!(timeline.workers, 1);
        for (stage, lane) in [(Stage::Read, 1), (Stage::Exec, 0), (Stage::Merge, 2)] {
            let spans: Vec<_> = timeline.spans.iter().filter(|s| s.stage == stage).collect();
            assert_eq!(spans.len(), 7, "{stage:?}");
            assert!(spans.iter().all(|s| s.lane == lane), "{stage:?}");
            let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
            assert_eq!(ids, (0..7).collect::<Vec<_>>(), "{stage:?}");
        }
        assert!(!timeline.samples.is_empty());
    }

    #[test]
    fn verify_mode_streams() {
        let run = Engine::with_config(AppId::Ipv4Trie, WorkloadConfig::default())
            .verify(true)
            .run_streaming(
                synth(60, 11),
                Detail::counts(),
                StreamConfig {
                    threads: 2,
                    chunk_size: 16,
                    max_inflight: 2,
                },
            )
            .unwrap();
        assert_eq!(run.packets(), 60);
    }
}
