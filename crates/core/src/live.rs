//! Run-to-completion live ingestion: [`Engine::run_live`].
//!
//! Batch (`Engine::run`) and streaming (`Engine::run_streaming`) both
//! apply *backpressure*: when workers fall behind, the producer stalls
//! and the trace takes longer to feed. A network processor on a wire
//! cannot do that — packets arrive whether or not the pipeline is ready,
//! and an overloaded input queue **drops**. This module reproduces that
//! regime on top of the `npring` subsystem:
//!
//! * one **producer** thread replays a [`SourceSpec`] — optionally paced
//!   to a target offered load ([`RateSpec`]) and optionally looping the
//!   trace — and offers each packet to its worker's lock-free SPSC lane
//!   ([`npring::lane`]): a zero-copy mbuf pool fronted by an in-ring and
//!   a free-ring;
//! * **workers** (one per ring, each a `Lane` owning a private
//!   [`PacketBench`](crate::PacketBench)) run to completion:
//!   burst-dequeue up to [`MAX_BURST`] packet views, simulate each in
//!   place, and retire the burst's slots back to the free-ring;
//! * when a lane's pool is exhausted the producer either counts the
//!   packet **dropped** and moves on ([`OnFull::Drop`], the
//!   run-to-completion default) or spins until a slot frees
//!   ([`OnFull::Wait`], deterministic zero-drop replay).
//!
//! ## The identity invariant
//!
//! Every offered packet ends in exactly one of two counters:
//!
//! ```text
//! produced == dropped + retired        (exact, after worker join)
//! ```
//!
//! because each offer either claims a pool slot (whose index is a linear
//! token that must come back through `retire_burst`) or bumps the drop
//! counter. [`Engine::run_live`] asserts it on every successful run and
//! the CI `live-soak` job re-checks it end-to-end from the CLI.
//!
//! ## Byte-identity with `pb run`
//!
//! When `dropped == 0` (always under [`OnFull::Wait`]), the aggregate
//! report equals the batch engine's for the same source, at any thread
//! count: packets are sharded by the same rule (`Engine::shard_of` on
//! the global trace position), processed with the same global-index
//! clock ([`crate::PacketBench::process_packet_at`]), delivered in order
//! within each lane (SPSC FIFO), and folded with exact integer sums
//! ([`StreamAggregate`]). Drops break the equivalence by construction —
//! a dropped packet is never simulated — which is the point.
//!
//! Timing telemetry (occupancy and burst-size histograms, per-lane drop
//! counts) is kept out of the deterministic surfaces: `--deterministic`
//! timelines sample logical per-packet deltas keyed on the global index
//! and exclude `ring_dropped` entirely.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nettrace::{Limited, PacketSource};
use npobs::timeline::{Sample, Stage, Timeline};
use npobs::{Log2Histogram, PacketHists};
use npring::{lane, LaneConsumer, Pacer, RateSpec, RingStats, MAX_BURST};
use npsim::{Coverage, NullObserver, Observer};
use npstream::SourceSpec;

use crate::analysis::StreamAggregate;
use crate::engine::{Engine, WorkerMetrics};
use crate::error::BenchError;
use crate::framework::{Detail, PacketRecord};
use crate::lane::{assemble_timeline, settle_idle, Lane, LaneTelemetry, MonitorCounters};

/// What the producer does when a lane's packet pool is exhausted.
///
/// This is the policy split between a lab replay and a wire: dropping
/// models a line-rate input queue (overload is *measured*, as the drop
/// count), waiting models a lossless harness (overload is *absorbed*,
/// as added latency). See README's decision table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFull {
    /// Count the packet dropped and move on — run-to-completion.
    #[default]
    Drop,
    /// Spin until the worker frees a slot — zero-drop deterministic
    /// replay (the producer absorbs the backpressure).
    Wait,
}

impl OnFull {
    /// Parses `drop` or `wait`.
    pub fn parse(s: &str) -> Option<OnFull> {
        match s {
            "drop" => Some(OnFull::Drop),
            "wait" => Some(OnFull::Wait),
            _ => None,
        }
    }
}

/// Sizing and policy of a live run. Zeros mean "pick a default":
/// `threads = 0` uses available parallelism, `ring = 0` uses
/// [`LiveConfig::DEFAULT_RING`] (non-zero values round up to a power of
/// two — the SPSC ring requires it), `burst = 0` uses [`MAX_BURST`]
/// (values clamp to `1..=MAX_BURST`), and `loops = 0` replays the
/// trace once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Worker threads, one lane each (0 = available parallelism).
    pub threads: usize,
    /// Pool slots (and ring capacity) per lane (0 = default; rounded up
    /// to a power of two).
    pub ring: usize,
    /// Max packets per dequeue burst (0 = [`MAX_BURST`]).
    pub burst: usize,
    /// Offered load: `max` replay or a packets/sec target.
    pub rate: RateSpec,
    /// Times the producer replays the whole source (0 = 1).
    pub loops: u64,
    /// Pool-exhaustion policy.
    pub on_full: OnFull,
    /// Per-loop packet cap applied on top of the source's own bound
    /// (`None` = the source's bound alone). An unbounded `synth:` source
    /// needs either its own `packets=` or this.
    pub cap: Option<u64>,
    /// Collect the per-packet histograms (and the basic-block map they
    /// need) for a metrics export. Off, the packet path skips both.
    pub metrics: bool,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            threads: 0,
            ring: 0,
            burst: 0,
            rate: RateSpec::Max,
            loops: 0,
            on_full: OnFull::Drop,
            cap: None,
            metrics: false,
        }
    }
}

impl LiveConfig {
    /// Pool slots per lane when `ring` is 0.
    pub const DEFAULT_RING: usize = 1024;

    /// Resolves the zero placeholders.
    fn resolve(self) -> (usize, usize, usize, u64) {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        let ring = if self.ring == 0 {
            LiveConfig::DEFAULT_RING
        } else {
            self.ring.next_power_of_two()
        };
        let burst = if self.burst == 0 {
            MAX_BURST
        } else {
            self.burst.clamp(1, MAX_BURST)
        };
        (threads, ring, burst, self.loops.max(1))
    }
}

/// The result of an [`Engine::run_live`]: the online aggregate, the
/// ring's ingestion accounting, and run telemetry.
#[derive(Debug, Clone)]
pub struct LiveRun {
    /// The merged online aggregate over every *retired* packet. When
    /// `dropped == 0` this equals the batch run's fold over the source.
    pub aggregate: StreamAggregate,
    /// Per-packet histograms over retired packets, populated only when
    /// [`LiveConfig::metrics`] was set (empty otherwise).
    pub hists: PacketHists,
    /// Per-worker telemetry, ordered by worker index. `queue_depth` is
    /// the number of packets *offered* to the worker's lane;
    /// `ring_dropped` is how many of those the lane dropped.
    pub workers: Vec<WorkerMetrics>,
    /// Worker threads (= lanes) actually used.
    pub threads: usize,
    /// Pool slots per lane actually used.
    pub ring: usize,
    /// Burst cap actually used.
    pub burst: usize,
    /// Times the source was replayed.
    pub loops: u64,
    /// Packets the producer offered across all lanes and loops.
    pub produced: u64,
    /// Packets dropped at ingestion because a lane's pool was exhausted.
    pub dropped: u64,
    /// Packets dequeued, simulated, and recycled by workers. On every
    /// successful run `produced == dropped + retired` exactly.
    pub retired: u64,
    /// Ring occupancy observed before each dequeue burst, per worker,
    /// merged (log2 buckets).
    pub occupancy: Log2Histogram,
    /// Dequeue burst sizes, merged (log2 buckets).
    pub bursts: Log2Histogram,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The in-flight telemetry timeline (worker lanes plus the producer
    /// lane at index `threads`), present when the engine ran with
    /// [`Engine::timeline`].
    pub timeline: Option<Timeline>,
}

impl LiveRun {
    /// Packets simulated (retired through the rings).
    pub fn packets(&self) -> u64 {
        self.aggregate.packets()
    }

    /// Retired packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.packets() as f64 / secs
        }
    }

    /// Fraction of offered packets dropped at ingestion.
    pub fn drop_fraction(&self) -> f64 {
        if self.produced == 0 {
            0.0
        } else {
            self.dropped as f64 / self.produced as f64
        }
    }
}

/// One worker's fold of everything it retired.
struct LaneFold {
    aggregate: StreamAggregate,
    hists: PacketHists,
    occupancy: Log2Histogram,
    bursts: Log2Histogram,
}

impl Engine {
    /// Replays `spec` through per-worker ingestion rings, run to
    /// completion, and returns the fold over every retired packet plus
    /// the ring's exact drop accounting.
    ///
    /// An unbounded source (`synth:` without `packets=`) never returns;
    /// callers must bound it (the CLI refuses unbounded specs).
    ///
    /// # Errors
    ///
    /// The failing packet with the lowest global index (worker
    /// failures), else the source's open/read error. On error the run
    /// cancels: the producer stops, workers drain and retire without
    /// simulating, and every thread joins before this returns.
    pub fn run_live(
        &self,
        spec: &SourceSpec,
        detail: Detail,
        config: LiveConfig,
    ) -> Result<LiveRun, BenchError> {
        let start = Instant::now();
        self.monitored(None, start, |monitor| {
            self.live(spec, detail, config, start, monitor)
        })
    }

    /// The live driver: a producer thread feeding one ring per worker
    /// lane, run to completion.
    pub(crate) fn live(
        &self,
        spec: &SourceSpec,
        detail: Detail,
        config: LiveConfig,
        start: Instant,
        monitor: Option<&MonitorCounters>,
    ) -> Result<LiveRun, BenchError> {
        let (threads, ring, burst, loops) = config.resolve();

        let mut producers = Vec::with_capacity(threads);
        let mut consumers = Vec::with_capacity(threads);
        for npring::Lane { producer, consumer } in (0..threads).map(|_| lane(ring)) {
            producers.push(producer);
            consumers.push(consumer);
        }
        // Stats handles survive the producer/consumer moves; they are
        // read after join, when every counter is final.
        let ring_stats: Vec<RingStats> = producers.iter().map(|p| p.stats()).collect();

        let cancelled = AtomicBool::new(false);
        let failure: Mutex<Option<(u64, BenchError)>> = Mutex::new(None);
        let source_error: Mutex<Option<BenchError>> = Mutex::new(None);
        // The producer lane samples on the wall clock only; deterministic
        // timelines are built from worker-side logical deltas alone.
        let wall_spec = self.timeline.filter(|s| !s.deterministic);

        let mut workers: Vec<WorkerMetrics> = Vec::with_capacity(threads);
        let mut folds: Vec<LaneFold> = Vec::with_capacity(threads);
        let mut lanes: Vec<LaneTelemetry> = Vec::new();

        std::thread::scope(|scope| {
            let producer = {
                let cancelled = &cancelled;
                let source_error = &source_error;
                let mut producers = producers;
                scope.spawn(move || {
                    let mut pacer = Pacer::new(config.rate);
                    let mut lane = wall_spec.map(|s| LaneTelemetry::new(s, threads, start));
                    let mut global = 0u64;
                    'produce: for loop_id in 0..loops {
                        let opened = match spec.open() {
                            Ok(source) => source,
                            Err(e) => {
                                *source_error.lock().unwrap() = Some(BenchError::from(e));
                                break 'produce;
                            }
                        };
                        let mut source: Box<dyn PacketSource + Send> = match config.cap {
                            Some(n) => Box::new(Limited::new(opened, n)),
                            None => opened,
                        };
                        let loop_began = Instant::now();
                        let mut loop_packets = 0u64;
                        loop {
                            if cancelled.load(Ordering::Acquire) {
                                break 'produce;
                            }
                            match source.next_packet() {
                                Ok(Some(packet)) => {
                                    pacer.pace();
                                    let shard = self.shard_of(global as usize, &packet, threads);
                                    let accepted = match config.on_full {
                                        OnFull::Drop => producers[shard].offer(global, &packet),
                                        OnFull::Wait => {
                                            producers[shard].offer_wait(global, &packet, || {
                                                cancelled.load(Ordering::Acquire)
                                            })
                                        }
                                    };
                                    if let (false, Some(monitor)) = (accepted, monitor) {
                                        monitor.ring_dropped.fetch_add(1, Ordering::Relaxed);
                                    }
                                    global += 1;
                                    loop_packets += 1;
                                    if let Some(LaneTelemetry::Wall(sampler, _)) = &mut lane {
                                        if sampler.on_packet() {
                                            let queued: usize =
                                                producers.iter().map(|p| p.queued()).sum();
                                            let dropped: u64 =
                                                producers.iter().map(|p| p.stats().dropped()).sum();
                                            sampler.push(Sample {
                                                queue_depth: queued as u64,
                                                ring_dropped: dropped,
                                                ..Sample::default()
                                            });
                                        }
                                    }
                                }
                                Ok(None) => {
                                    if let Some(LaneTelemetry::Wall(_, log)) = &mut lane {
                                        log.record(
                                            Stage::Read,
                                            loop_id,
                                            threads,
                                            loop_began,
                                            loop_packets,
                                        );
                                    }
                                    break;
                                }
                                Err(e) => {
                                    *source_error.lock().unwrap() = Some(BenchError::from(e));
                                    break 'produce;
                                }
                            }
                        }
                    }
                    // Close *after* the final pushes: a consumer that
                    // observes the closed flag and then drains an empty
                    // ring has seen everything (Release/Acquire pairing
                    // in `npring::pool`).
                    for p in &mut producers {
                        p.close();
                    }
                    lane
                })
            };

            // The blocks-per-packet histogram is the one reader of coverage.
            let live_worker = if config.metrics {
                Engine::live_worker::<Coverage>
            } else {
                Engine::live_worker::<NullObserver>
            };
            let handles: Vec<_> = consumers
                .into_iter()
                .enumerate()
                .map(|(w, consumer)| {
                    let cancelled = &cancelled;
                    let failure = &failure;
                    scope.spawn(move || {
                        live_worker(
                            self,
                            w,
                            consumer,
                            burst,
                            detail,
                            config.metrics,
                            cancelled,
                            failure,
                            monitor,
                            start,
                        )
                    })
                })
                .collect();

            lanes.extend(producer.join().expect("producer thread never panics"));
            for handle in handles {
                let (metrics, lane, fold) = handle.join().expect("live workers never panic");
                workers.push(metrics);
                lanes.extend(lane);
                folds.push(fold);
            }
        });

        if let Some((_, e)) = failure.into_inner().unwrap() {
            return Err(e);
        }
        if let Some(e) = source_error.into_inner().unwrap() {
            return Err(e);
        }

        let produced: u64 = ring_stats.iter().map(|s| s.produced()).sum();
        let dropped: u64 = ring_stats.iter().map(|s| s.dropped()).sum();
        let retired: u64 = ring_stats.iter().map(|s| s.retired()).sum();
        assert_eq!(
            produced,
            dropped + retired,
            "live ingestion identity: every offered packet is dropped or retired"
        );

        let mut aggregate = StreamAggregate::new();
        let mut hists = PacketHists::new();
        let mut occupancy = Log2Histogram::new();
        let mut bursts = Log2Histogram::new();
        for fold in &folds {
            aggregate.merge(&fold.aggregate);
            hists.merge(&fold.hists);
            occupancy.merge(&fold.occupancy);
            bursts.merge(&fold.bursts);
        }

        let timeline = assemble_timeline(self.timeline, threads, lanes);
        settle_idle(&mut workers, start);
        Ok(LiveRun {
            aggregate,
            hists,
            workers,
            threads,
            ring,
            burst,
            loops,
            produced,
            dropped,
            retired,
            occupancy,
            bursts,
            elapsed: start.elapsed(),
            timeline,
        })
    }

    /// One live worker: burst-dequeue, run every view in place through
    /// the lane, retire the burst. The lane builds its `PacketBench` on
    /// the first packet, so idle lanes cost nothing. On failure (its own
    /// or another worker's, via `cancelled`) the worker keeps draining
    /// and retiring *without* simulating, so the producer never wedges on
    /// a full pool and the retire accounting stays exact.
    #[allow(clippy::too_many_arguments)]
    fn live_worker<O: Observer + Default>(
        &self,
        worker: usize,
        mut consumer: LaneConsumer,
        burst: usize,
        detail: Detail,
        collect_hists: bool,
        cancelled: &AtomicBool,
        failure: &Mutex<Option<(u64, BenchError)>>,
        monitor: Option<&MonitorCounters>,
        start: Instant,
    ) -> (WorkerMetrics, Option<LaneTelemetry>, LaneFold) {
        let mut lane = Lane::new(self, worker, detail, start, monitor, O::default());
        let mut fold = LaneFold {
            aggregate: StreamAggregate::new(),
            hists: PacketHists::new(),
            occupancy: Log2Histogram::new(),
            bursts: Log2Histogram::new(),
        };
        let mut failed = false;
        // One scratch record for the lane's whole run: every packet
        // overwrites it, so the executed set is allocated once.
        let mut record = PacketRecord::empty();
        let worker_start = Instant::now();
        let mut spins = 0u32;
        let mut draining = false;
        loop {
            let occupancy = consumer.occupancy() as u64;
            let n = consumer.dequeue_burst(burst);
            if n == 0 {
                if draining {
                    // The closed flag was already visible before this
                    // dequeue, so the empty ring is the final state.
                    break;
                }
                if consumer.is_closed() {
                    draining = true;
                } else {
                    spins += 1;
                    if spins.is_multiple_of(256) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                continue;
            }
            draining = false;
            spins = 0;
            fold.bursts.record(n as u64);
            fold.occupancy.record(occupancy);
            lane.begin();
            if !failed && !cancelled.load(Ordering::Acquire) {
                let backlog = || (consumer.occupancy() as u64, consumer.stats().dropped());
                for i in 0..n {
                    let view = consumer.packet(i);
                    let index = view.index();
                    if let Err(error) = lane.process(index, &view, &mut record, backlog) {
                        let mut slot = failure.lock().expect("no thread panics holding it");
                        if slot.as_ref().is_none_or(|(i, _)| index < *i) {
                            *slot = Some((index, error));
                        }
                        cancelled.store(true, Ordering::Release);
                        failed = true;
                        break;
                    }
                    fold.aggregate.add_record(&record);
                    if let Some(map) = lane.block_map().filter(|_| collect_hists) {
                        fold.hists.record(
                            record.stats.instret,
                            record.stats.mem.packet_total(),
                            record.stats.mem.non_packet_total(),
                            map.blocks_executed(&record.stats.executed).count() as u64,
                        );
                    }
                }
                // Emitted packets are not part of the aggregate; drop
                // them per burst so they cannot accumulate.
                lane.take_output_packets();
            }
            lane.end();
            // Retire even when simulation was skipped: slot accounting is
            // unconditional, so `produced == dropped + retired` survives
            // cancellation.
            consumer.retire_burst();
        }
        let packets = lane.packets();
        lane.span(worker as u64, worker_start, packets);
        let stats = consumer.stats();
        let (metrics, lane, _) = lane.finish(stats.produced(), stats.dropped());
        (metrics, lane, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;
    use crate::framework::MemoMode;
    use crate::profile::{profile_packets, ProfileSpec};
    use nettrace::synth::{SyntheticTrace, TraceProfile};
    use nettrace::Packet;

    fn batch_aggregate(engine: &Engine, packets: &[Packet]) -> StreamAggregate {
        let run = engine.run(packets, Detail::counts(), 1).unwrap();
        let mut agg = StreamAggregate::new();
        for record in &run.records {
            agg.add_record(record);
        }
        agg
    }

    fn wait_config(threads: usize) -> LiveConfig {
        LiveConfig {
            threads,
            ring: 64,
            on_full: OnFull::Wait,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn zero_drop_live_matches_batch_across_thread_counts() {
        for id in [AppId::Ipv4Trie, AppId::FlowClass] {
            let engine = Engine::new(id);
            let packets = SyntheticTrace::new(TraceProfile::mra(), 7).take_packets(200);
            let want = batch_aggregate(&engine, &packets);
            let spec = SourceSpec::parse("synth:mra:seed=7:packets=200").unwrap();
            for threads in [1, 3] {
                let run = engine
                    .run_live(&spec, Detail::counts(), wait_config(threads))
                    .unwrap();
                assert_eq!(run.dropped, 0, "{id:?} threads={threads}");
                assert_eq!(run.retired, 200, "{id:?} threads={threads}");
                assert_eq!(run.produced, 200, "{id:?} threads={threads}");
                assert_eq!(run.aggregate, want, "{id:?} threads={threads}");
                assert_eq!(
                    run.workers.iter().map(|w| w.packets).sum::<u64>(),
                    200,
                    "{id:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn overload_identity_is_exact() {
        // A one-slot pool with an unpaced producer guarantees overload:
        // simulation is orders of magnitude slower than an offer.
        let spec = SourceSpec::parse("synth:mra:seed=11:packets=4000").unwrap();
        let run = Engine::new(AppId::Ipv4Trie)
            .run_live(
                &spec,
                Detail::counts(),
                LiveConfig {
                    threads: 2,
                    ring: 1,
                    on_full: OnFull::Drop,
                    ..LiveConfig::default()
                },
            )
            .unwrap();
        assert_eq!(run.produced, 4000);
        assert_eq!(run.produced, run.dropped + run.retired);
        assert!(run.dropped > 0, "one-slot pools must overflow");
        // Only retired packets were simulated and aggregated.
        assert_eq!(run.aggregate.packets(), run.retired);
        let worker_drops: u64 = run.workers.iter().map(|w| w.ring_dropped).sum();
        assert_eq!(worker_drops, run.dropped);
        assert!(run.bursts.count() >= 1);
    }

    #[test]
    fn looped_replay_multiplies_the_trace() {
        let spec = SourceSpec::parse("synth:mra:seed=5:packets=50").unwrap();
        let run = Engine::new(AppId::Ipv4Radix)
            .run_live(
                &spec,
                Detail::counts(),
                LiveConfig {
                    loops: 3,
                    ..wait_config(2)
                },
            )
            .unwrap();
        assert_eq!(run.produced, 150);
        assert_eq!(run.dropped, 0);
        assert_eq!(run.retired, 150);
        assert_eq!(run.aggregate.packets(), 150);
        assert_eq!(run.loops, 3);
    }

    #[test]
    fn cap_bounds_an_unbounded_source() {
        let spec = SourceSpec::parse("synth:mra:seed=2").unwrap();
        assert!(spec.is_unbounded());
        let run = Engine::new(AppId::Ipv4Trie)
            .run_live(
                &spec,
                Detail::counts(),
                LiveConfig {
                    cap: Some(70),
                    ..wait_config(2)
                },
            )
            .unwrap();
        assert_eq!(run.retired, 70);
        assert_eq!(run.aggregate.packets(), 70);
    }

    #[test]
    fn paced_replay_completes_and_paces() {
        let spec = SourceSpec::parse("synth:mra:seed=3:packets=500").unwrap();
        let run = Engine::new(AppId::Ipv4Trie)
            .run_live(
                &spec,
                Detail::counts(),
                LiveConfig {
                    rate: RateSpec::Pps(200_000),
                    ..wait_config(1)
                },
            )
            .unwrap();
        assert_eq!(run.retired, 500);
        // 500 packets at 200k pps is at least 2.5ms of schedule.
        assert!(run.elapsed >= Duration::from_millis(2));
    }

    #[test]
    fn deterministic_timeline_covers_retired_packets() {
        let spec = SourceSpec::parse("synth:mra:seed=9:packets=120").unwrap();
        let run = Engine::new(AppId::Ipv4Trie)
            .timeline(Some(npobs::TimelineSpec::logical()))
            .run_live(&spec, Detail::counts(), wait_config(2))
            .unwrap();
        let timeline = run.timeline.expect("timeline requested");
        assert!(timeline.deterministic);
        assert_eq!(timeline.samples.last().map(|s| s.packets), Some(120));
    }

    #[test]
    fn memoized_live_matches_unmemoized() {
        let spec = SourceSpec::parse("synth:zipf:flows=32:skew=1.2:seed=27:packets=400").unwrap();
        let want = Engine::new(AppId::Ipv4Trie)
            .run_live(&spec, Detail::counts(), wait_config(1))
            .unwrap();
        let run = Engine::new(AppId::Ipv4Trie)
            .memo(MemoMode::On)
            .run_live(&spec, Detail::counts(), wait_config(4))
            .unwrap();
        assert_eq!(run.aggregate, want.aggregate);
        let hits: u64 = run.workers.iter().map(|w| w.memo_hits).sum();
        let misses: u64 = run.workers.iter().map(|w| w.memo_misses).sum();
        assert_eq!(hits + misses, 400);
        assert!(hits > 0);
    }

    #[test]
    fn metrics_mode_fills_the_histograms() {
        // The one live path that records coverage: its blocks-per-packet
        // histogram must equal the profiler's over the same packets.
        let spec = SourceSpec::parse("synth:mra:seed=13:packets=80").unwrap();
        let packets = SyntheticTrace::new(TraceProfile::mra(), 13).take_packets(80);
        let profile = ProfileSpec::new(AppId::Ipv4Trie, TraceProfile::mra());
        let want = profile_packets(&profile, &packets).unwrap().hists;
        for threads in [1, 3] {
            let run = Engine::new(AppId::Ipv4Trie)
                .run_live(
                    &spec,
                    Detail::counts(),
                    LiveConfig {
                        metrics: true,
                        ..wait_config(threads)
                    },
                )
                .unwrap();
            assert_eq!(run.hists.packets(), 80);
            assert_eq!(run.hists, want, "{threads} threads");
            let plain = Engine::new(AppId::Ipv4Trie)
                .run_live(&spec, Detail::counts(), wait_config(threads))
                .unwrap();
            assert_eq!(plain.hists.packets(), 0, "hists are off by default");
            assert_eq!(plain.aggregate, run.aggregate);
        }
    }
}
