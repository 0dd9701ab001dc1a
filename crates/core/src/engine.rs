//! The parallel trace engine: fans a packet trace over sharded worker
//! threads, each owning a private [`PacketBench`], and merges the results
//! back into trace order.
//!
//! ## Determinism
//!
//! The engine is built so aggregate statistics are **bit-identical at any
//! thread count**:
//!
//! * Stateless applications (radix, trie, TSA, IPsec) round-robin packets
//!   over workers — per-packet results depend only on the packet, so
//!   placement is free.
//! * Flow Classification shards by the flow table's *bucket* of the
//!   packet's 5-tuple. Every flow that could share a hash chain lands on
//!   the same worker, so each worker's chains evolve exactly as the
//!   serial run's chains do and per-flow counts stay exact.
//! * Workers process their packets in trace order and report
//!   `(packet_index, record, emitted packets)` tuples; the engine
//!   reassembles them into trace order, so records and output packets are
//!   independent of scheduling. Output-packet timestamps come from the
//!   global trace position ([`PacketBench::process_packet_at`]), not from
//!   worker-local counters.
//! * `threads <= 1` takes the exact serial path — one `PacketBench`, no
//!   threads spawned.
//!
//! Known limits of parallel bit-identity (counts detail is always exact):
//! with `Detail::uarch` the Flow Classification cache statistics can
//! differ from serial, because each worker lays its shard of the flow
//! table into its own memory; and if the flow table overflows capacity,
//! overflow ordering is per-worker. The default workloads do neither.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use nettrace::Packet;
use npobs::timeline::{
    Counters, LogicalSeries, Sample, SpanLog, Stage, Timeline, TimelineSpec, WallSampler,
};
use npobs::StatusLine;
use npsim::{NullObserver, Observer};

use crate::apps::{App, AppId};
use crate::config::WorkloadConfig;
use crate::error::BenchError;
use crate::framework::{Detail, MemoMode, MemoRefusal, PacketBench, PacketRecord};

/// How often the in-run progress line is refreshed.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(1000);

/// Shared counters the monitor thread reads to compose the progress and
/// `--watch` lines. Workers bump them with `Relaxed` increments — they
/// order nothing and are only touched when monitoring is on.
#[derive(Default)]
pub(crate) struct MonitorCounters {
    /// Packets fully processed so far.
    pub(crate) processed: AtomicU64,
    /// Memoization cache hits so far.
    pub(crate) memo_hits: AtomicU64,
    /// Memoization cache lookups (hits + misses) so far.
    pub(crate) memo_lookups: AtomicU64,
    /// Complete trace trips so far.
    pub(crate) trace_hits: AtomicU64,
    /// Mispredicted trace guards so far.
    pub(crate) trace_exits: AtomicU64,
    /// Packets dropped at ring ingestion so far (live mode only).
    pub(crate) ring_dropped: AtomicU64,
}

impl MonitorCounters {
    /// The ` memo NN%` suffix for a status line, or empty before the
    /// first cache lookup (memo off, or not warmed up yet).
    pub(crate) fn memo_suffix(&self) -> String {
        let lookups = self.memo_lookups.load(Ordering::Relaxed);
        if lookups == 0 {
            return String::new();
        }
        let hits = self.memo_hits.load(Ordering::Relaxed);
        format!(" memo {:.0}%", hits as f64 / lookups as f64 * 100.0)
    }

    /// The ` trace NN/NN` (trips/guard-exits) suffix for a status line,
    /// or empty until the first complete trip.
    pub(crate) fn trace_suffix(&self) -> String {
        let hits = self.trace_hits.load(Ordering::Relaxed);
        if hits == 0 {
            return String::new();
        }
        let exits = self.trace_exits.load(Ordering::Relaxed);
        format!(" trace {hits}/{exits}")
    }
}

/// A parallel (or serial) runner for one application over a packet trace.
#[derive(Debug, Clone)]
pub struct Engine {
    id: AppId,
    config: WorkloadConfig,
    pub(crate) verify: bool,
    pub(crate) progress: bool,
    pub(crate) memo: MemoMode,
    pub(crate) timeline: Option<TimelineSpec>,
    pub(crate) trace_params: Option<npsim::TraceParams>,
    pub(crate) watch: bool,
    pub(crate) status: Option<Arc<StatusLine>>,
}

impl Engine {
    /// An engine for `id` with the default workload configuration.
    pub fn new(id: AppId) -> Engine {
        Engine::with_config(id, WorkloadConfig::default())
    }

    /// An engine for `id` with an explicit workload configuration.
    pub fn with_config(id: AppId, config: WorkloadConfig) -> Engine {
        Engine {
            id,
            config,
            verify: false,
            progress: false,
            memo: MemoMode::Off,
            timeline: None,
            trace_params: None,
            watch: false,
            status: None,
        }
    }

    /// Enables or disables golden-model verification of every packet.
    pub fn verify(mut self, verify: bool) -> Engine {
        self.verify = verify;
        self
    }

    /// Enables a periodic `processed/total` progress line on stderr
    /// during parallel runs. Off by default; when off, no progress
    /// counter is touched on the packet path.
    pub fn progress(mut self, progress: bool) -> Engine {
        self.progress = progress;
        self
    }

    /// Sets the flow-memoization mode for every worker's `PacketBench`.
    /// Memoization only ever engages for applications the static write
    /// guard proves safe ([`PacketBench::set_memo`]); for the rest this
    /// is a no-op, so `MemoMode::On` is always sound to request.
    pub fn memo(mut self, memo: MemoMode) -> Engine {
        self.memo = memo;
        self
    }

    /// Overrides the hot-trace formation parameters for every worker's
    /// `PacketBench`. `None` (the default) keeps
    /// [`npsim::TraceParams::default`]; pass
    /// [`npsim::TraceParams::disabled`] to benchmark the plain superblock
    /// engine with trace fusion off. Either way results are bit-identical
    /// — only the dispatch strategy changes.
    pub fn trace_params(mut self, params: Option<npsim::TraceParams>) -> Engine {
        self.trace_params = params;
        self
    }

    /// Attaches the in-flight telemetry sampler: every worker keeps a
    /// bounded ring of counter snapshots (and, on the wall clock, stage
    /// spans), merged into [`EngineRun::timeline`] at run end. `None`
    /// (the default) keeps the packet path entirely unsampled.
    pub fn timeline(mut self, spec: Option<TimelineSpec>) -> Engine {
        self.timeline = spec;
        self
    }

    /// Enables the live `--watch` status refresh on stderr: a single
    /// in-place line (packets, percent, pps) redrawn about once a second.
    /// Implies the same shared counter `--progress` uses.
    pub fn watch(mut self, watch: bool) -> Engine {
        self.watch = watch;
        self
    }

    /// Shares a [`StatusLine`] with the engine so its progress/watch
    /// output serializes with the caller's other stderr lines (the memo
    /// summary, for one) instead of interleaving mid-line. Without this
    /// the engine creates a private writer per run.
    pub fn status(mut self, status: Arc<StatusLine>) -> Engine {
        self.status = Some(status);
        self
    }

    pub(crate) fn status_line(&self) -> Arc<StatusLine> {
        self.status.clone().unwrap_or_default()
    }

    /// The application this engine runs.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// The workload configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Which worker a packet belongs to. Flow Classification shards by
    /// hash bucket so chained flows stay together; everything else
    /// round-robins by position.
    pub(crate) fn shard_of(&self, position: usize, packet: &Packet, threads: usize) -> usize {
        if self.id == AppId::FlowClass {
            if let Ok(key) = flowclass::FlowKey::from_l3(packet.l3()) {
                return key.bucket(self.config.flow_buckets) as usize % threads;
            }
            // Unparsable packets never touch the flow table; placement
            // is free.
        }
        position % threads
    }

    /// Runs `packets` on `threads` workers (0 = available parallelism)
    /// and returns the merged, trace-ordered results.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing packet — the same error a
    /// serial run would have stopped at.
    pub fn run(
        &self,
        packets: &[Packet],
        detail: Detail,
        threads: usize,
    ) -> Result<EngineRun, BenchError> {
        // The unobserved run *is* the observed run with the no-op
        // observer: monomorphization folds every hook away (DESIGN.md).
        self.run_observed(packets, detail, threads, || NullObserver)
            .map(|(run, _)| run)
    }

    /// Runs `packets` like [`Engine::run`], attaching a worker-private
    /// observer (built by `make_obs`) to every packet execution. Returns
    /// the merged run plus each worker's observer, ordered by worker
    /// index, so additively-mergeable observers (heat maps, histograms)
    /// produce thread-count-independent profiles.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_observed<O, F>(
        &self,
        packets: &[Packet],
        detail: Detail,
        threads: usize,
        make_obs: F,
    ) -> Result<(EngineRun, Vec<O>), BenchError>
    where
        O: Observer + Send,
        F: Fn() -> O + Sync,
    {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let threads = threads.clamp(1, packets.len().max(1));
        let start = Instant::now();
        if threads == 1 {
            return self.run_serial(packets, detail, start, make_obs());
        }

        let assignments: Vec<usize> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| self.shard_of(i, p, threads))
            .collect();

        type Batch = Vec<(usize, PacketRecord, Vec<Packet>)>;
        type WorkerResult<O> =
            Result<(Batch, O, WorkerMetrics, Option<LaneTelemetry>), (usize, BenchError)>;
        let (tx, rx) = mpsc::channel::<WorkerResult<O>>();
        let mut slots: Vec<Option<(PacketRecord, Vec<Packet>)>> = Vec::new();
        slots.resize_with(packets.len(), || None);
        let mut first_error: Option<(usize, BenchError)> = None;
        let mut observers: Vec<Option<O>> = Vec::new();
        observers.resize_with(threads, || None);
        let mut workers: Vec<WorkerMetrics> = (0..threads)
            .map(|w| WorkerMetrics {
                worker: w,
                memo_refusal: MemoRefusal::of_worker(self.memo, None),
                ..WorkerMetrics::default()
            })
            .collect();
        let mut lanes: Vec<LaneTelemetry> = Vec::new();
        let counters = MonitorCounters::default();
        let done = AtomicBool::new(false);
        let monitoring = self.progress || self.watch;
        let status = monitoring.then(|| self.status_line());

        std::thread::scope(|scope| {
            let monitor = status.as_ref().map(|status| {
                let counters = &counters;
                let done = &done;
                let total = packets.len();
                let watch = self.watch;
                let status = Arc::clone(status);
                scope.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        std::thread::park_timeout(PROGRESS_INTERVAL);
                        let n = counters.processed.load(Ordering::Relaxed);
                        if done.load(Ordering::Acquire) || n == 0 {
                            continue;
                        }
                        let pct = n as f64 / total.max(1) as f64 * 100.0;
                        if watch {
                            let pps = n as f64 / start.elapsed().as_secs_f64().max(1e-9);
                            let memo = counters.memo_suffix();
                            let trace = counters.trace_suffix();
                            status.refresh(&format!(
                                "pb: {n}/{total} packets ({pct:.1}%) {pps:.0} pps{memo}{trace}"
                            ));
                        } else {
                            status.emit(&format!("pb: {n}/{total} packets ({pct:.1}%)"));
                        }
                    }
                    if watch {
                        status.finish_refresh();
                    }
                })
            });
            let counter = monitoring.then_some(&counters);
            for (worker, stat) in workers.iter_mut().enumerate() {
                let tx = tx.clone();
                let indices: Vec<usize> = assignments
                    .iter()
                    .enumerate()
                    .filter(|&(_, &shard)| shard == worker)
                    .map(|(i, _)| i)
                    .collect();
                stat.queue_depth = indices.len() as u64;
                if indices.is_empty() {
                    continue;
                }
                let obs = make_obs();
                scope.spawn(move || {
                    let _ = tx.send(
                        self.worker_run(worker, &indices, packets, detail, obs, counter, start),
                    );
                });
            }
            drop(tx);
            for result in rx {
                match result {
                    Ok((batch, obs, metrics, lane)) => {
                        for (i, record, outs) in batch {
                            slots[i] = Some((record, outs));
                        }
                        let queue_depth = workers[metrics.worker].queue_depth;
                        workers[metrics.worker] = WorkerMetrics {
                            queue_depth,
                            ..metrics
                        };
                        observers[metrics.worker] = Some(obs);
                        lanes.extend(lane);
                    }
                    Err((i, e)) => {
                        if first_error.as_ref().is_none_or(|(fi, _)| i < *fi) {
                            first_error = Some((i, e));
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
            if let Some(monitor) = monitor {
                monitor.thread().unpark();
            }
        });

        if let Some((_, e)) = first_error {
            return Err(e);
        }
        let merge_start = Instant::now();
        let mut records = Vec::with_capacity(packets.len());
        let mut output_packets = Vec::new();
        for slot in slots {
            let (record, outs) = slot.expect("every packet produced a record");
            records.push(record);
            output_packets.extend(outs);
        }
        let merge = merge_start.elapsed();
        let timeline = self.timeline.map(|spec| {
            if spec.deterministic {
                return Timeline::from_logical(
                    lanes.into_iter().map(LaneTelemetry::into_logical).collect(),
                );
            }
            // The trace-order reassembly is the engine's "merge" stage:
            // one span on the merger lane.
            let mut merge_log = SpanLog::new(start, spec.capacity);
            merge_log.record(
                Stage::Merge,
                0,
                threads + 1,
                merge_start,
                records.len() as u64,
            );
            let mut samplers = Vec::new();
            let mut logs = vec![merge_log];
            for lane in lanes {
                if let LaneTelemetry::Wall(sampler, log) = lane {
                    samplers.push(sampler);
                    logs.push(log);
                }
            }
            Timeline::from_wall(spec.interval, threads, samplers, logs)
        });
        let wall_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        for w in &mut workers {
            w.idle_ns = wall_ns.saturating_sub(w.busy_ns);
        }
        Ok((
            EngineRun {
                records,
                output_packets,
                threads,
                elapsed: start.elapsed(),
                merge,
                workers,
                timeline,
            },
            observers.into_iter().flatten().collect(),
        ))
    }

    fn run_serial<O: Observer>(
        &self,
        packets: &[Packet],
        detail: Detail,
        start: Instant,
        mut obs: O,
    ) -> Result<(EngineRun, Vec<O>), BenchError> {
        let app = App::build(self.id, &self.config)?;
        let mut bench = PacketBench::with_config(app, &self.config)?;
        bench.set_memo(self.memo);
        if let Some(params) = self.trace_params {
            bench.set_trace_params(params);
        }
        let mut records = Vec::with_capacity(packets.len());
        let mut lane = self.timeline.map(|spec| LaneTelemetry::new(spec, 0, start));
        let mut probe = LaneProbe::default();
        let status = self.watch.then(|| self.status_line());
        let busy_start = Instant::now();
        for (i, packet) in packets.iter().enumerate() {
            let mut record = PacketRecord::empty();
            bench.process_packet_observed_at(i as u64, packet, detail, &mut record, &mut obs)?;
            if self.verify {
                bench.verify_record(packet, &record)?;
            }
            if let Some(lane) = &mut lane {
                probe.observe(
                    lane,
                    i as u64,
                    &record,
                    &bench,
                    (packets.len() - i - 1) as u64,
                    0,
                    busy_start,
                    0,
                );
            }
            if let Some(status) = &status {
                if i % 4096 == 4095 {
                    let pps = (i + 1) as f64 / start.elapsed().as_secs_f64().max(1e-9);
                    status.refresh(&format!(
                        "pb: {}/{} packets {pps:.0} pps",
                        i + 1,
                        packets.len()
                    ));
                }
            }
            records.push(record);
        }
        if let Some(lane) = &mut lane {
            lane.finish_exec(0, busy_start, packets.len() as u64);
        }
        if let Some(status) = &status {
            status.finish_refresh();
        }
        let busy_ns = busy_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let wall_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let memo = bench.memo_counters();
        let tstats = bench.trace_stats();
        let workers = vec![WorkerMetrics {
            worker: 0,
            packets: packets.len() as u64,
            busy_ns,
            idle_ns: wall_ns.saturating_sub(busy_ns),
            queue_depth: packets.len() as u64,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_evictions: memo.evictions,
            memo_refusal: bench.memo_refusal().cloned(),
            block_bailouts: bench.block_bailouts(),
            traces_formed: tstats.formed,
            trace_hits: tstats.hits,
            trace_guard_exits: tstats.guard_exits,
            trace_declines: tstats.declines,
            ring_dropped: 0,
        }];
        let timeline = self.timeline.map(|spec| match lane {
            Some(LaneTelemetry::Logical(series)) => Timeline::from_logical(vec![series]),
            Some(LaneTelemetry::Wall(sampler, log)) => {
                Timeline::from_wall(spec.interval, 1, vec![sampler], vec![log])
            }
            None => Timeline::from_logical(Vec::new()),
        });
        Ok((
            EngineRun {
                records,
                output_packets: bench.take_output_packets(),
                threads: 1,
                elapsed: start.elapsed(),
                merge: Duration::ZERO,
                workers,
                timeline,
            },
            vec![obs],
        ))
    }

    /// One worker: a private `PacketBench`, its assigned packets in trace
    /// order, results tagged with their trace index. Busy time is one
    /// clock pair around the whole loop — never per packet, so telemetry
    /// stays off the per-packet critical path (the opt-in timeline
    /// sampler adds one increment-and-compare per packet, and snapshots
    /// only on its interval).
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn worker_run<O: Observer>(
        &self,
        worker: usize,
        indices: &[usize],
        packets: &[Packet],
        detail: Detail,
        mut obs: O,
        progress: Option<&MonitorCounters>,
        run_start: Instant,
    ) -> Result<
        (
            Vec<(usize, PacketRecord, Vec<Packet>)>,
            O,
            WorkerMetrics,
            Option<LaneTelemetry>,
        ),
        (usize, BenchError),
    > {
        let first = indices.first().copied().unwrap_or(0);
        let app = App::build(self.id, &self.config).map_err(|e| (first, e))?;
        let mut bench = PacketBench::with_config(app, &self.config).map_err(|e| (first, e))?;
        bench.set_memo(self.memo);
        if let Some(params) = self.trace_params {
            bench.set_trace_params(params);
        }
        let mut batch = Vec::with_capacity(indices.len());
        let mut lane = self
            .timeline
            .map(|spec| LaneTelemetry::new(spec, worker, run_start));
        let mut probe = LaneProbe::default();
        let mut last_memo = bench.memo_counters();
        let mut last_trace = bench.trace_stats();
        let busy_start = Instant::now();
        for (k, &i) in indices.iter().enumerate() {
            let packet = &packets[i];
            let mut record = PacketRecord::empty();
            bench
                .process_packet_observed_at(i as u64, packet, detail, &mut record, &mut obs)
                .map_err(|e| (i, e))?;
            if self.verify {
                bench.verify_record(packet, &record).map_err(|e| (i, e))?;
            }
            let outs = bench.take_output_packets();
            batch.push((i, record, outs));
            if let Some(lane) = &mut lane {
                probe.observe(
                    lane,
                    i as u64,
                    &batch.last().expect("just pushed").1,
                    &bench,
                    (indices.len() - k - 1) as u64,
                    0,
                    busy_start,
                    0,
                );
            }
            if let Some(counters) = progress {
                counters.processed.fetch_add(1, Ordering::Relaxed);
                let memo = bench.memo_counters();
                let hits = memo.hits - last_memo.hits;
                let lookups = (memo.hits + memo.misses) - (last_memo.hits + last_memo.misses);
                if lookups > 0 {
                    counters.memo_hits.fetch_add(hits, Ordering::Relaxed);
                    counters.memo_lookups.fetch_add(lookups, Ordering::Relaxed);
                }
                last_memo = memo;
                let tstats = bench.trace_stats();
                let trips = tstats.hits - last_trace.hits;
                let exits = tstats.guard_exits - last_trace.guard_exits;
                if trips > 0 {
                    counters.trace_hits.fetch_add(trips, Ordering::Relaxed);
                }
                if exits > 0 {
                    counters.trace_exits.fetch_add(exits, Ordering::Relaxed);
                }
                last_trace = tstats;
            }
        }
        if let Some(lane) = &mut lane {
            lane.finish_exec(worker as u64, busy_start, indices.len() as u64);
        }
        let memo = bench.memo_counters();
        let tstats = bench.trace_stats();
        let metrics = WorkerMetrics {
            worker,
            packets: indices.len() as u64,
            busy_ns: busy_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            idle_ns: 0,
            queue_depth: indices.len() as u64,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_evictions: memo.evictions,
            memo_refusal: bench.memo_refusal().cloned(),
            block_bailouts: bench.block_bailouts(),
            traces_formed: tstats.formed,
            trace_hits: tstats.hits,
            trace_guard_exits: tstats.guard_exits,
            trace_declines: tstats.declines,
            ring_dropped: 0,
        };
        Ok((batch, obs, metrics, lane))
    }
}

/// One lane's in-flight telemetry: a wall-clock sampler plus span log, or
/// a deterministic logical series. Built per worker, merged after join.
pub(crate) enum LaneTelemetry {
    Wall(WallSampler, SpanLog),
    Logical(LogicalSeries),
}

impl LaneTelemetry {
    pub(crate) fn new(spec: TimelineSpec, lane: usize, t0: Instant) -> LaneTelemetry {
        if spec.deterministic {
            LaneTelemetry::Logical(LogicalSeries::new(spec))
        } else {
            LaneTelemetry::Wall(
                WallSampler::new(spec, lane, t0),
                SpanLog::new(t0, spec.capacity),
            )
        }
    }

    pub(crate) fn into_logical(self) -> LogicalSeries {
        match self {
            LaneTelemetry::Logical(series) => series,
            LaneTelemetry::Wall(..) => unreachable!("wall lane in a deterministic timeline"),
        }
    }

    /// Closes the lane's execution span: the whole packet loop, recorded
    /// on the wall clock only.
    pub(crate) fn finish_exec(&mut self, id: u64, began: Instant, packets: u64) {
        if let LaneTelemetry::Wall(sampler, log) = self {
            log.record(Stage::Exec, id, sampler.lane(), began, packets);
        }
    }
}

/// Per-lane accumulation state for the timeline sampler: cumulative
/// counters plus the bail-out watermark for logical deltas.
#[derive(Default)]
pub(crate) struct LaneProbe {
    instructions: u64,
    mem_packet: u64,
    mem_non_packet: u64,
    last_bailouts: u64,
}

impl LaneProbe {
    /// Folds one processed packet into the lane's telemetry. `remaining`
    /// is the lane's queue depth after this packet; busy time at a
    /// sample is `busy_base_ns` (previous chunks) plus the time since
    /// `busy_start` (the current loop or chunk), so both the batch
    /// engine's one-clock-pair loop and the stream worker's per-chunk
    /// accumulation report honest busy time. `ring_dropped` is the
    /// lane's cumulative ingestion-drop count (always zero outside live
    /// mode); it lands in wall-clock samples only — drops are a timing
    /// artifact, so deterministic logical timelines exclude them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe(
        &mut self,
        lane: &mut LaneTelemetry,
        index: u64,
        record: &PacketRecord,
        bench: &PacketBench,
        remaining: u64,
        busy_base_ns: u64,
        busy_start: Instant,
        ring_dropped: u64,
    ) {
        let bailouts = bench.block_bailouts();
        let bail_delta = bailouts - self.last_bailouts;
        self.last_bailouts = bailouts;
        self.instructions += record.stats.instret;
        self.mem_packet += record.stats.mem.packet_total();
        self.mem_non_packet += record.stats.mem.non_packet_total();
        match lane {
            LaneTelemetry::Logical(series) => {
                series.record(
                    index,
                    &Counters {
                        packets: 1,
                        instructions: record.stats.instret,
                        mem_packet: record.stats.mem.packet_total(),
                        mem_non_packet: record.stats.mem.non_packet_total(),
                        block_bailouts: bail_delta,
                    },
                );
            }
            LaneTelemetry::Wall(sampler, _) => {
                if sampler.on_packet() {
                    let memo = bench.memo_counters();
                    sampler.push(Sample {
                        instructions: self.instructions,
                        mem_packet: self.mem_packet,
                        mem_non_packet: self.mem_non_packet,
                        queue_depth: remaining,
                        busy_ns: busy_base_ns
                            + busy_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                        memo_hits: memo.hits,
                        memo_misses: memo.misses,
                        memo_evictions: memo.evictions,
                        block_bailouts: bailouts,
                        ring_dropped,
                        ..Sample::default()
                    });
                }
            }
        }
    }
}

/// One engine worker's telemetry for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker index (0-based).
    pub worker: usize,
    /// Packets this worker processed.
    pub packets: u64,
    /// Nanoseconds the worker spent in its packet loop (one clock pair
    /// per run, not per packet).
    pub busy_ns: u64,
    /// Run wall-clock nanoseconds the worker was not in its packet loop
    /// (waiting to start, finished early, or starved).
    pub idle_ns: u64,
    /// Packets assigned to this worker's shard.
    pub queue_depth: u64,
    /// Packets answered from this worker's flow-memoization cache
    /// (simulation skipped entirely). Zero when memoization is off or
    /// the application is not memoizable.
    pub memo_hits: u64,
    /// Packets that missed the memoization cache and ran the simulator
    /// (each installs or refreshes an entry). Zero when memoization is
    /// off.
    pub memo_misses: u64,
    /// Cache entries displaced by an install: the least recently used key
    /// of a full 4-way set. Zero when memoization is off.
    pub memo_evictions: u64,
    /// Why this worker ran without its memo cache although memoization
    /// was asked for: its bench's [`PacketBench::memo_refusal`], or
    /// [`MemoRefusal::NoPackets`] when it never built a bench. `None`
    /// when memoization is off or the cache was active. Not exported;
    /// [`memo_refusal`] folds it over a run's workers.
    pub memo_refusal: Option<MemoRefusal>,
    /// Times the superblock engine bailed out to the per-instruction
    /// loop on this worker (mid-block entries and instruction-budget
    /// tails). Zero on the full-detail paths, which never enter the
    /// block engine.
    pub block_bailouts: u64,
    /// Hot traces formed by this worker's one-shot formation pass. Zero
    /// until warm-up completes, and on paths that never enter the trace
    /// engine (full-detail and profiled runs stay block-granular).
    pub traces_formed: u64,
    /// Complete trips through formed traces (one fused delta each).
    pub trace_hits: u64,
    /// Trips that fell off mid-trace on a mispredicted guard.
    pub trace_guard_exits: u64,
    /// Trace dispatches declined for instruction-budget risk (the block
    /// path ran instead).
    pub trace_declines: u64,
    /// Packets dropped at this worker's ingestion ring because its pool
    /// was exhausted. Always zero in batch and stream modes, which
    /// apply backpressure instead of dropping (`pb live` only).
    pub ring_dropped: u64,
}

/// Why a run that asked for memoization ran without it, from its
/// workers' metrics: `None` when some worker's cache was active (or
/// memoization was off). Every worker that built a bench carries the
/// application's refusal, so that one wins over
/// [`MemoRefusal::NoPackets`], which is the answer only when no worker
/// built a bench.
pub fn memo_refusal(workers: &[WorkerMetrics]) -> Option<&MemoRefusal> {
    if workers.iter().any(|w| w.memo_refusal.is_none()) {
        return None;
    }
    let refusals = || workers.iter().filter_map(|w| w.memo_refusal.as_ref());
    refusals()
        .find(|r| **r != MemoRefusal::NoPackets)
        .or_else(|| refusals().next())
}

/// The merged, trace-ordered result of an [`Engine::run`].
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// One record per input packet, in trace order.
    pub records: Vec<PacketRecord>,
    /// Packets the application emitted via `write_packet_to_file`, in
    /// trace order of the packets that emitted them.
    pub output_packets: Vec<Packet>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time of the run, including per-worker app builds.
    pub elapsed: Duration,
    /// Time spent reassembling worker results into trace order.
    pub merge: Duration,
    /// Per-worker telemetry, ordered by worker index.
    pub workers: Vec<WorkerMetrics>,
    /// The in-flight telemetry timeline, present when the engine ran
    /// with [`Engine::timeline`] attached.
    pub timeline: Option<Timeline>,
}

impl EngineRun {
    /// Total instructions executed across all packets.
    pub fn total_instructions(&self) -> u64 {
        self.records.iter().map(|r| r.stats.instret).sum()
    }

    /// Simulated packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records.len() as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::synth::{SyntheticTrace, TraceProfile};

    fn trace(n: usize, seed: u64) -> Vec<Packet> {
        let mut t = SyntheticTrace::new(TraceProfile::mra(), seed);
        (0..n).map(|_| t.next_packet()).collect()
    }

    #[test]
    fn serial_engine_matches_packetbench() {
        let packets = trace(80, 9);
        let run = Engine::new(AppId::Ipv4Trie)
            .run(&packets, Detail::counts(), 1)
            .unwrap();
        assert_eq!(run.threads, 1);
        assert_eq!(run.records.len(), packets.len());

        let app = App::build(AppId::Ipv4Trie, &WorkloadConfig::default()).unwrap();
        let mut bench = PacketBench::new(app).unwrap();
        for (i, p) in packets.iter().enumerate() {
            let r = bench.process_packet(p, Detail::counts()).unwrap();
            assert_eq!(r.stats.instret, run.records[i].stats.instret);
            assert_eq!(r.verdict, run.records[i].verdict);
            assert_eq!(r.return_value, run.records[i].return_value);
        }
    }

    #[test]
    fn parallel_matches_serial_for_flow() {
        let packets = trace(200, 11);
        let engine = Engine::new(AppId::FlowClass);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let parallel = engine.run(&packets, Detail::counts(), 3).unwrap();
        assert_eq!(parallel.threads, 3);
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.return_value, b.return_value);
            assert_eq!(a.stats.instret, b.stats.instret);
        }
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let packets = trace(10, 13);
        let run = Engine::new(AppId::Ipv4Trie)
            .run(&packets, Detail::counts(), 0)
            .unwrap();
        assert!(run.threads >= 1);
        assert_eq!(run.records.len(), 10);
    }

    #[test]
    fn empty_trace_produces_an_empty_run() {
        for threads in [1, 4] {
            let run = Engine::new(AppId::Ipv4Trie)
                .run(&[], Detail::counts(), threads)
                .unwrap();
            assert!(run.records.is_empty());
            assert!(run.output_packets.is_empty());
            assert_eq!(run.total_instructions(), 0);
        }
    }

    #[test]
    fn single_packet_trace_matches_the_framework() {
        let packets = trace(1, 19);
        let run = Engine::new(AppId::Ipv4Radix)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        assert_eq!(run.records.len(), 1);

        let app = App::build(AppId::Ipv4Radix, &WorkloadConfig::default()).unwrap();
        let mut bench = PacketBench::new(app).unwrap();
        let r = bench.process_packet(&packets[0], Detail::counts()).unwrap();
        assert_eq!(r.stats.instret, run.records[0].stats.instret);
        assert_eq!(r.verdict, run.records[0].verdict);
        assert_eq!(r.return_value, run.records[0].return_value);
    }

    #[test]
    fn more_threads_than_packets_still_merges_exactly() {
        // Most workers get empty shards; the merge must not invent,
        // drop, or reorder records.
        let packets = trace(3, 23);
        let engine = Engine::new(AppId::FlowClass);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let wide = engine.run(&packets, Detail::counts(), 8).unwrap();
        assert_eq!(wide.records.len(), 3);
        for (a, b) in serial.records.iter().zip(&wide.records) {
            assert_eq!(a.stats.instret, b.stats.instret);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.return_value, b.return_value);
        }
        assert_eq!(serial.output_packets, wide.output_packets);
    }

    #[test]
    fn flow_trace_collapsing_to_one_bucket_still_merges_in_order() {
        // One repeated flow: bucket sharding degenerates to a single
        // loaded worker with every other shard empty — and the chained
        // flow state must still evolve exactly as in the serial run.
        let one = trace(1, 29).pop().unwrap();
        let packets = vec![one; 50];
        let engine = Engine::new(AppId::FlowClass);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let parallel = engine.run(&packets, Detail::counts(), 4).unwrap();
        for (i, (a, b)) in serial.records.iter().zip(&parallel.records).enumerate() {
            assert_eq!(a.stats.instret, b.stats.instret, "packet {i}");
            assert_eq!(a.return_value, b.return_value, "packet {i}");
        }
        // The flow counter chained through the single bucket: packet i is
        // the flow's (i+1)-th sighting.
        assert_eq!(parallel.records.last().unwrap().return_value, 50);
    }

    #[test]
    fn error_reporting_is_deterministic() {
        let mut packets = trace(40, 17);
        // Two short packets; the engine must report the lower index no
        // matter how workers race.
        packets[31] = Packet::from_l3(nettrace::Timestamp::default(), vec![0x45; 8]);
        packets[7] = Packet::from_l3(nettrace::Timestamp::default(), vec![0x45; 8]);
        for threads in [1, 2, 4] {
            let err = Engine::new(AppId::Ipv4Radix)
                .run(&packets, Detail::counts(), threads)
                .unwrap_err();
            assert!(
                matches!(err, BenchError::BadPacket(_)),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn a_runs_memo_refusal_is_the_applications_unless_a_cache_ran() {
        let worker = |refusal: Option<MemoRefusal>| WorkerMetrics {
            memo_refusal: refusal,
            ..WorkerMetrics::default()
        };
        let store = MemoRefusal::UnsafeStore("store".into());
        let idle = worker(Some(MemoRefusal::NoPackets));
        // Workers given no packets defer to one that built a bench.
        let run = [idle.clone(), worker(Some(store.clone())), idle.clone()];
        assert_eq!(memo_refusal(&run), Some(&store));
        let run = [idle.clone(), idle.clone()];
        assert_eq!(memo_refusal(&run), Some(&MemoRefusal::NoPackets));
        // One active cache (or memo off) means the run was not refused.
        assert_eq!(memo_refusal(&[idle, worker(None)]), None);
    }

    #[test]
    fn memo_on_matches_memo_off_at_every_thread_count() {
        use crate::framework::MemoMode;
        let packets: Vec<Packet> =
            SyntheticTrace::new(TraceProfile::with_zipf(32, 120), 21).take_packets(300);
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            for threads in [1, 4, 7] {
                let off = Engine::new(id)
                    .memo(MemoMode::Off)
                    .run(&packets, Detail::counts(), threads)
                    .unwrap();
                let on = Engine::new(id)
                    .memo(MemoMode::On)
                    .run(&packets, Detail::counts(), threads)
                    .unwrap();
                for (i, (a, b)) in off.records.iter().zip(&on.records).enumerate() {
                    assert_eq!(
                        a.stats.instret, b.stats.instret,
                        "{id:?} threads={threads} packet {i}"
                    );
                    assert_eq!(a.stats.op_mix, b.stats.op_mix, "{id:?} t={threads} p={i}");
                    assert_eq!(a.stats.mem, b.stats.mem, "{id:?} t={threads} p={i}");
                    assert_eq!(a.verdict, b.verdict, "{id:?} t={threads} p={i}");
                    assert_eq!(a.return_value, b.return_value, "{id:?} t={threads} p={i}");
                }
                let hits: u64 = on.workers.iter().map(|w| w.memo_hits).sum();
                let misses: u64 = on.workers.iter().map(|w| w.memo_misses).sum();
                assert!(hits > 0, "{id:?} threads={threads}");
                assert_eq!(hits + misses, 300, "{id:?} threads={threads}");
                assert!(
                    off.workers.iter().all(|w| w.memo_hits == 0),
                    "memo-off run must not touch the cache"
                );
            }
        }
    }

    #[test]
    fn check_mode_matches_off_in_the_engine() {
        use crate::framework::MemoMode;
        let packets: Vec<Packet> =
            SyntheticTrace::new(TraceProfile::with_zipf(16, 100), 23).take_packets(120);
        let off = Engine::new(AppId::Ipv4Radix)
            .memo(MemoMode::Off)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        let check = Engine::new(AppId::Ipv4Radix)
            .memo(MemoMode::Check)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        for (a, b) in off.records.iter().zip(&check.records) {
            assert_eq!(a.stats.instret, b.stats.instret);
            assert_eq!(a.verdict, b.verdict);
        }
    }

    #[test]
    fn verify_mode_works_in_parallel() {
        let packets = trace(60, 19);
        let run = Engine::new(AppId::Ipv4Radix)
            .verify(true)
            .run(&packets, Detail::counts(), 4)
            .unwrap();
        assert_eq!(run.records.len(), 60);
    }
}
