//! Bounded-memory streaming execution: [`Engine::run_streaming`], the
//! driver behind both `pb run` and `pb stream`.
//!
//! `Engine::run` materializes the whole trace before any packet executes,
//! so peak memory grows linearly with trace length. This module feeds the
//! same sharded workers from a pull-based [`PacketSource`] through a
//! fixed-capacity pipeline, so memory use is a function of the
//! configuration alone:
//!
//! ```text
//! peak buffered packets <= (threads + max_inflight) * chunk_size   (threads > 1)
//! peak buffered packets <= chunk_size                              (threads = 1)
//! ```
//!
//! (each worker buffers at most one chunk of partially-filled shard
//! buffer on the reader side, plus at most `max_inflight` dispatched
//! chunks anywhere between reader flush and merger fold).
//!
//! ## One thread: run to completion
//!
//! With `threads = 1` there is nothing to overlap, so the reader, the
//! worker and the merger run inline on the calling thread, as
//! [`Engine::run`] does at one thread: fill one reused [`Chunk`] of
//! `chunk_size` packets from the source, process it through the same
//! per-chunk body the pipeline workers use, merge its aggregate, repeat.
//! No thread, semaphore or queue is created, and each packet is freed on
//! the thread that allocated it. Chunking, chunk ids, the logical
//! timeline, the wall-clock lanes (reader `threads`, worker 0, merger
//! `threads + 1`) and error precedence are the pipeline's: a source error
//! abandons the partly filled chunk unprocessed, exactly as the threaded
//! reader drops its partial shard buffers.
//!
//! ## Pipeline (threads > 1)
//!
//! * A **reader** thread pulls packets from the source, assigns each its
//!   global trace index, and shards it with the exact rule batch runs use
//!   (`Engine::shard_of`). Per-shard buffers flush as fixed-size
//!   [`Chunk`]s; before dispatching a chunk the reader acquires one
//!   permit from a [`Semaphore`] sized `max_inflight`, then pushes the
//!   chunk to the owning worker's input queue and the worker's id to a
//!   shared `order` queue. Flush order is a pure function of the trace,
//!   the sharding rule, and `chunk_size` — never of thread timing.
//! * **Workers** (one per shard, each a `Lane` owning a private
//!   `PacketBench`) pop chunks FIFO, process every packet with the batch
//!   clock (`process_packet_at(index, ..)`), fold the records into a
//!   per-chunk [`StreamAggregate`], discard emitted output packets, and
//!   push one outcome per chunk to their result queue.
//! * The **merger** (the calling thread) pops worker ids from `order` and
//!   the matching outcome from that worker's result queue, releases the
//!   chunk's permit, and merges aggregates *in flush order*.
//!
//! ## Determinism
//!
//! Per-packet results are bit-identical to the batch engine's: the shard
//! rule, each worker's FIFO processing order, and the global-index clock
//! are all the same, so every `PacketRecord` matches the batch run's
//! record for that index. The merge order (flush order) is deterministic,
//! and [`StreamAggregate`] folds are exact integer sums plus an exact
//! histogram — associative and commutative — so the merged aggregate
//! equals the serial trace-order fold at **any** thread count and chunk
//! size. `pb stream` therefore prints the same report bytes at every
//! `--threads` and `--chunk-size`, and `pb run` is a front end to this
//! same driver.
//!
//! ## Why it cannot deadlock
//!
//! Every queue's capacity equals the permit count, and a permit is held
//! for a chunk's whole life (reader flush → merger fold): workers and the
//! reader can never block on a full queue, only the semaphore blocks the
//! reader, and the merger only waits on outcomes of chunks already inside
//! the pipeline. The wait graph is acyclic for any `max_inflight >= 1`;
//! see DESIGN.md for the full argument.
//!
//! On error the pipeline cancels: the failing worker reports one
//! `Failed` outcome and skips its later chunks; the merger — which sees
//! outcomes in flush order — records the first failure, raises a
//! cancellation flag for the reader, and keeps draining (releasing
//! permits) so every thread unblocks. Because outcomes merge in flush
//! order and each worker fails at its earliest failing chunk, the
//! reported error is deterministic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nettrace::{Packet, PacketSource};
use npobs::timeline::{Sample, Stage, Timeline};
use npsim::NullObserver;
use npstream::{BoundedQueue, Chunk, Semaphore, ShardBuffers};

use crate::analysis::StreamAggregate;
use crate::engine::{Engine, WorkerMetrics};
use crate::error::BenchError;
use crate::framework::{Detail, PacketRecord};
use crate::lane::{assemble_timeline, settle_idle, Lane, LaneTelemetry, MonitorCounters};

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
    /// Chunks allowed in flight between reader and merger (0 = default).
    /// This is the backpressure window: the reader stalls once
    /// `max_inflight` chunks are dispatched but not yet folded.
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

/// One worker's verdict on one chunk. Exactly one outcome is pushed per
/// dispatched chunk, so the merger's drain always terminates.
enum ChunkOutcome {
    /// Every packet in the chunk processed; here is the chunk's fold.
    Stats(StreamAggregate),
    /// A packet failed; the chunk's fold is abandoned. The failing
    /// packet's trace index is deterministic (first failure in chunk
    /// flush order) even though only the error is carried.
    Failed(BenchError),
    /// Skipped without processing (an earlier chunk on this worker
    /// failed, or the run was cancelled).
    Skipped,
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
    /// calling thread; more run the reader/worker/merger pipeline (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// The first failing packet in chunk flush order (deterministic for a
    /// given configuration), or the source's read error.
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
    /// turns on the calling thread over one reused chunk, on the
    /// pipeline's lanes (worker 0, reader 1, merger 2). A source error
    /// abandons the partly filled chunk unprocessed, as the threaded
    /// reader does.
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
        let mut chunk = Chunk {
            items: Vec::with_capacity(chunk_size),
        };
        let mut record = PacketRecord::empty();
        let mut aggregate = StreamAggregate::new();
        let mut chunks = 0u64;
        let mut read = 0u64;
        let mut eof = false;
        let outcome = 'run: loop {
            let read_began = Instant::now();
            chunk.items.clear();
            while !eof && chunk.len() < chunk_size {
                match source.next_packet() {
                    Ok(Some(packet)) => {
                        chunk.items.push((read, packet));
                        read += 1;
                        if let Some(LaneTelemetry::Wall(sampler, _)) = &mut reader_lane {
                            if sampler.on_packet() {
                                sampler.push(Sample::default());
                            }
                        }
                    }
                    Ok(None) => eof = true,
                    Err(e) => break 'run Err(BenchError::from(e)),
                }
            }
            if chunk.is_empty() {
                break Ok(());
            }
            let id = chunks;
            chunks += 1;
            let chunk_packets = chunk.len() as u64;
            if let Some(LaneTelemetry::Wall(_, log)) = &mut reader_lane {
                log.record(Stage::Read, id, 1, read_began, chunk_packets);
            }

            let chunk_aggregate = match stream_chunk(&mut lane, id, &chunk, None, &mut record) {
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

    /// The threaded driver for `threads > 1`: a reader thread, one worker
    /// thread per shard and the merger on the calling thread, joined by
    /// bounded queues under a permit semaphore (see the module docs).
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
        // One permit per in-flight chunk; every queue's capacity matches
        // the permit count so only the semaphore can block the reader and
        // nothing can block a worker's push (see module docs). Chunks
        // carry their dispatch-order id so worker spans and merger folds
        // agree on naming.
        let permits = Semaphore::new(max_inflight);
        let order: BoundedQueue<usize> = BoundedQueue::new(max_inflight);
        let inputs: Vec<BoundedQueue<(u64, Chunk<Packet>)>> = (0..threads)
            .map(|_| BoundedQueue::new(max_inflight))
            .collect();
        let results: Vec<BoundedQueue<ChunkOutcome>> = (0..threads)
            .map(|_| BoundedQueue::new(max_inflight))
            .collect();
        let cancelled = AtomicBool::new(false);
        let source_error: Mutex<Option<BenchError>> = Mutex::new(None);
        // The wall-clock sampler lanes: workers 0..threads, the reader at
        // `threads`, the merger at `threads + 1`. Deterministic timelines
        // sample only inside workers (per-packet logical deltas).
        let wall_spec = self.timeline.filter(|s| !s.deterministic);

        let mut workers: Vec<WorkerMetrics> = Vec::with_capacity(threads);
        let mut lanes: Vec<LaneTelemetry> = Vec::new();
        let mut aggregate = StreamAggregate::new();
        let mut chunks = 0u64;
        let mut first_error: Option<BenchError> = None;
        let mut merger_lane = wall_spec.map(|s| LaneTelemetry::new(s, threads + 1, start));

        std::thread::scope(|scope| {
            let reader = {
                let permits = &permits;
                let order = &order;
                let inputs = &inputs;
                let cancelled = &cancelled;
                let source_error = &source_error;
                let mut source = source;
                scope.spawn(move || {
                    let mut buffers: ShardBuffers<Packet> = ShardBuffers::new(threads, chunk_size);
                    let mut lane = wall_spec.map(|s| LaneTelemetry::new(s, threads, start));
                    let mut backpressure_ns = 0u64;
                    let mut chunk_id = 0u64;
                    let mut dispatch = |shard: usize,
                                        chunk: Chunk<Packet>,
                                        lane: &mut Option<LaneTelemetry>,
                                        backpressure_ns: &mut u64|
                     -> bool {
                        let began = Instant::now();
                        permits.acquire();
                        *backpressure_ns +=
                            began.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        let id = chunk_id;
                        chunk_id += 1;
                        let chunk_packets = chunk.len() as u64;
                        // Input before order: once the merger learns of a
                        // chunk, the chunk is already poppable by its
                        // worker.
                        let ok =
                            inputs[shard].push((id, chunk)).is_ok() && order.push(shard).is_ok();
                        if let Some(LaneTelemetry::Wall(_, log)) = lane {
                            // The read span covers the backpressure wait
                            // plus the (non-blocking) queue pushes.
                            log.record(Stage::Read, id, threads, began, chunk_packets);
                        }
                        ok
                    };
                    'read: while !cancelled.load(Ordering::Acquire) {
                        match source.next_packet() {
                            Ok(Some(packet)) => {
                                let shard =
                                    self.shard_of(buffers.next_index() as usize, &packet, threads);
                                if let Some(LaneTelemetry::Wall(sampler, _)) = &mut lane {
                                    if sampler.on_packet() {
                                        let inflight =
                                            max_inflight.saturating_sub(permits.available());
                                        sampler.push(Sample {
                                            queue_depth: inflight as u64,
                                            backpressure_ns,
                                            ..Sample::default()
                                        });
                                    }
                                }
                                if let Some((shard, chunk)) = buffers.push(shard, packet) {
                                    if !dispatch(shard, chunk, &mut lane, &mut backpressure_ns) {
                                        break 'read;
                                    }
                                }
                            }
                            Ok(None) => {
                                for (shard, chunk) in buffers.finish() {
                                    if !dispatch(shard, chunk, &mut lane, &mut backpressure_ns) {
                                        break;
                                    }
                                }
                                break 'read;
                            }
                            Err(e) => {
                                *source_error.lock().unwrap() = Some(BenchError::from(e));
                                break 'read;
                            }
                        }
                    }
                    // No more chunks will be dispatched: the merger's
                    // drain ends once in-flight outcomes are folded, and
                    // idle workers wake up and exit.
                    order.close();
                    for input in inputs {
                        input.close();
                    }
                    lane
                })
            };

            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let input = &inputs[w];
                    let result = &results[w];
                    let cancelled = &cancelled;
                    scope.spawn(move || {
                        self.stream_worker(w, input, result, detail, cancelled, monitor, start)
                    })
                })
                .collect();

            // The merger runs here, on the caller's thread: fold
            // outcomes in flush order, releasing each chunk's permit.
            while let Some(w) = order.pop() {
                let fold_began = Instant::now();
                let outcome = results[w]
                    .pop()
                    .expect("workers push exactly one outcome per chunk");
                permits.release();
                let id = chunks;
                chunks += 1;
                let mut fold_packets = 0u64;
                match outcome {
                    ChunkOutcome::Stats(agg) => {
                        fold_packets = agg.packets();
                        if first_error.is_none() {
                            aggregate.merge(&agg);
                        }
                    }
                    ChunkOutcome::Failed(error) => {
                        if first_error.is_none() {
                            first_error = Some(error);
                            cancelled.store(true, Ordering::Release);
                        }
                    }
                    ChunkOutcome::Skipped => {}
                }
                if let Some(LaneTelemetry::Wall(sampler, log)) = &mut merger_lane {
                    // The merge span includes the wait for the worker's
                    // outcome — merger stalls are visible, not hidden.
                    log.record(Stage::Merge, id, threads + 1, fold_began, fold_packets);
                    if sampler.on_packets(fold_packets) {
                        let inflight = max_inflight.saturating_sub(permits.available());
                        sampler.push(Sample {
                            queue_depth: inflight as u64,
                            ..Sample::default()
                        });
                    }
                }
            }

            lanes.extend(reader.join().expect("reader thread never panics"));
            for handle in handles {
                let (metrics, lane) = handle.join().expect("worker threads never panic");
                workers.push(metrics);
                lanes.extend(lane);
            }
        });

        if let Some(e) = first_error {
            return Err(e);
        }
        if let Some(e) = source_error.into_inner().unwrap() {
            return Err(e);
        }
        lanes.extend(merger_lane);
        Ok(Folded {
            aggregate,
            chunks,
            workers,
            lanes,
        })
    }

    /// One streaming worker: pop chunks FIFO, run each through the lane,
    /// push one outcome per chunk. The lane builds its `PacketBench` on
    /// the first packet, so idle workers cost nothing.
    #[allow(clippy::too_many_arguments)]
    fn stream_worker(
        &self,
        worker: usize,
        input: &BoundedQueue<(u64, Chunk<Packet>)>,
        result: &BoundedQueue<ChunkOutcome>,
        detail: Detail,
        cancelled: &AtomicBool,
        monitor: Option<&MonitorCounters>,
        start: Instant,
    ) -> (WorkerMetrics, Option<LaneTelemetry>) {
        let mut lane = Lane::new(self, worker, detail, start, monitor, NullObserver);
        let mut record = PacketRecord::empty();
        let mut failed = false;
        let mut enqueued = 0u64;
        while let Some((id, chunk)) = input.pop() {
            enqueued += chunk.len() as u64;
            if failed || cancelled.load(Ordering::Acquire) {
                let _ = result.push(ChunkOutcome::Skipped);
                continue;
            }
            let outcome = match stream_chunk(&mut lane, id, &chunk, Some(input), &mut record) {
                Ok(agg) => ChunkOutcome::Stats(agg),
                Err(error) => {
                    failed = true;
                    ChunkOutcome::Failed(error)
                }
            };
            let _ = result.push(outcome);
        }
        let (metrics, lane, _) = lane.finish(enqueued, 0);
        (metrics, lane)
    }
}

/// Runs chunk `id` through `lane` into `record`, one packet at a time,
/// as one busy period, and returns the chunk's fold: the one per-packet
/// body of both streaming drivers. The lane's backlog is its `input`
/// queue (the inline driver has none). Emitted packets are not part of
/// the aggregate, so they are dropped per chunk and cannot accumulate.
fn stream_chunk(
    lane: &mut Lane<'_>,
    id: u64,
    chunk: &Chunk<Packet>,
    input: Option<&BoundedQueue<(u64, Chunk<Packet>)>>,
    record: &mut PacketRecord,
) -> Result<StreamAggregate, BenchError> {
    let began = lane.begin();
    let mut agg = StreamAggregate::new();
    let backlog = || (input.map_or(0, |input| input.len() as u64), 0);
    let folded = chunk.items.iter().try_for_each(|(index, packet)| {
        lane.process(*index, packet, record, backlog)?;
        agg.add_record(record);
        Ok(())
    });
    lane.take_output_packets();
    lane.end();
    lane.span(id, began, chunk.len() as u64);
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
        // max_inflight = 1 fully serializes the pipeline; it must still
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
