//! The batch trace engine: fans a packet trace over sharded workers,
//! each a `Lane` owning a private [`PacketBench`](crate::PacketBench),
//! and merges their records back into trace order.
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
//! * Workers process their packets in trace order and keep each packet's
//!   record and emitted packets; the engine reassembles them into trace
//!   order, so records and output packets are independent of scheduling.
//!   Output-packet timestamps come from the global trace position
//!   ([`crate::PacketBench::process_packet_at`]), not from worker-local
//!   counters.
//! * `threads <= 1` runs its single shard through the same worker body,
//!   inline on the calling thread: no worker thread is spawned.
//!
//! Known limits of parallel bit-identity (counts detail is always exact):
//! with `Detail::uarch` the Flow Classification cache statistics can
//! differ from serial, because each worker lays its shard of the flow
//! table into its own memory; and if the flow table overflows capacity,
//! overflow ordering is per-worker. The default workloads do neither.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nettrace::Packet;
use npobs::export::WorkerStat;
use npobs::timeline::{SpanLog, Stage, Timeline, TimelineSpec, WallSampler};
use npobs::StatusLine;
use npsim::{Coverage, NullObserver, Observer};

use crate::apps::AppId;
use crate::config::WorkloadConfig;
use crate::error::BenchError;
use crate::framework::{Detail, MemoMode, MemoRefusal, PacketRecord};
use crate::lane::{assemble_timeline, settle_idle, Lane, LaneTelemetry, MonitorCounters};

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

    /// Enables a status line on stderr about once a second, on every
    /// driver. Off by default; when off, no progress counter is touched
    /// on the packet path.
    pub fn progress(mut self, progress: bool) -> Engine {
        self.progress = progress;
        self
    }

    /// Sets the flow-memoization mode for every worker's `PacketBench`.
    /// Memoization only ever engages for applications the static write
    /// guard proves safe ([`crate::PacketBench::set_memo`]); for the rest this
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

    /// Enables the live `--watch` status refresh on stderr: the
    /// `--progress` status line (packets, percent when known, pps, memo,
    /// trace and drop counters) redrawn in place about once a second.
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
        // observer, which the lanes wrap in `Coverage` (DESIGN.md).
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
        self.monitored(Some(packets.len() as u64), start, |monitor| {
            self.batch(packets, detail, threads, start, make_obs, monitor)
        })
    }

    /// The batch driver: shard `packets` over `threads` lanes (one runs
    /// inline on the calling thread), keep every record (with its
    /// coverage) and emitted packet, and merge them back into trace order.
    pub(crate) fn batch<O, F>(
        &self,
        packets: &[Packet],
        detail: Detail,
        threads: usize,
        start: Instant,
        make_obs: F,
        monitor: Option<&MonitorCounters>,
    ) -> Result<(EngineRun, Vec<O>), BenchError>
    where
        O: Observer + Send,
        F: Fn() -> O + Sync,
    {
        let assignment: Vec<usize> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| self.shard_of(i, p, threads))
            .collect();
        let worker = |w: usize| {
            let shard: Vec<usize> = (0..packets.len()).filter(|&i| assignment[i] == w).collect();
            let mut lane = Lane::new(self, w, detail, start, monitor, Coverage::new(make_obs()));
            let mut kept = Vec::with_capacity(shard.len());
            let began = lane.begin();
            for (k, &i) in shard.iter().enumerate() {
                let mut record = PacketRecord::empty();
                let backlog = || ((shard.len() - k - 1) as u64, 0);
                lane.process(i as u64, &packets[i], &mut record, backlog)
                    .map_err(|e| (i, e))?;
                kept.push((record, lane.take_output_packets()));
            }
            lane.end();
            lane.span(w as u64, began, shard.len() as u64);
            Ok::<_, (usize, BenchError)>((kept, lane.finish(shard.len() as u64, 0)))
        };
        let results: Vec<_> = if threads == 1 {
            vec![worker(0)]
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> = (0..threads)
                    .map(|w| scope.spawn(move || worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch workers never panic"))
                    .collect()
            })
        };

        // Each worker stops at its own first failure; the run reports the
        // lowest-indexed one, the error a serial run would have hit.
        let (done, failed): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
        if let Some((_, e)) = failed
            .into_iter()
            .filter_map(Result::err)
            .min_by_key(|e| e.0)
        {
            return Err(e);
        }
        let (mut kept, mut workers, mut lanes, mut observers) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (records, (metrics, lane, obs)) in done.into_iter().flatten() {
            kept.push(records.into_iter());
            workers.push(metrics);
            lanes.extend(lane);
            observers.push(obs.into_inner());
        }
        let merge_start = Instant::now();
        let mut records = Vec::with_capacity(packets.len());
        let mut output_packets = Vec::new();
        for &w in &assignment {
            let (record, outs) = kept[w].next().expect("every packet produced a record");
            records.push(record);
            output_packets.extend(outs);
        }
        let merge = merge_start.elapsed();
        // The trace-order reassembly is the engine's "merge" stage: one
        // span on the merger lane of a wall-clock timeline.
        if let Some(spec) = self.timeline.filter(|s| !s.deterministic) {
            let mut log = SpanLog::new(start, spec.capacity);
            log.record(
                Stage::Merge,
                0,
                threads + 1,
                merge_start,
                records.len() as u64,
            );
            lanes.push(LaneTelemetry::Wall(
                WallSampler::new(spec, threads + 1, start),
                log,
            ));
        }
        let timeline = assemble_timeline(self.timeline, threads, lanes);
        settle_idle(&mut workers, start);
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
            observers,
        ))
    }
}

/// One engine worker's telemetry for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker index (0-based).
    pub worker: usize,
    /// Packets this worker processed.
    pub packets: u64,
    /// Nanoseconds the worker spent processing packets, from its first
    /// bench build on: one clock pair per busy period (a batch shard, a
    /// stream chunk or a live burst), never per packet.
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
    /// was asked for: its bench's [`crate::PacketBench::memo_refusal`], or
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

/// The exported form of a worker's metrics: every counter, and the
/// busy/idle timings, which a deterministic export zeroes. The memo
/// refusal is not exported.
impl From<&WorkerMetrics> for WorkerStat {
    fn from(w: &WorkerMetrics) -> WorkerStat {
        WorkerStat {
            worker: w.worker,
            packets: w.packets,
            busy_ns: w.busy_ns,
            idle_ns: w.idle_ns,
            queue_depth: w.queue_depth,
            memo_hits: w.memo_hits,
            memo_misses: w.memo_misses,
            memo_evictions: w.memo_evictions,
            block_bailouts: w.block_bailouts,
            traces_formed: w.traces_formed,
            trace_hits: w.trace_hits,
            trace_guard_exits: w.trace_guard_exits,
            trace_declines: w.trace_declines,
            ring_dropped: w.ring_dropped,
        }
    }
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
    use crate::{App, PacketBench};
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
