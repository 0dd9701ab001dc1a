//! One worker's state, shared by every driver.
//!
//! The paper's framework has one per-packet sequence: place the packet in
//! simulated memory, run the application, count only application work.
//! A [`Lane`] is that sequence for one worker, whatever feeds it: the
//! batch engine's slice shards, the stream pipeline's chunk queue or a
//! live npring ring. It owns
//!
//! * the worker's [`PacketBench`], built on its first packet in the only
//!   place any driver builds one, with the engine's memo mode;
//! * its timeline lane and sampler counters;
//! * its `--progress` counter deltas;
//! * its packet and busy-time counts.
//!
//! Drivers differ only in transport and in what they keep of each record
//! (the record itself, or a fold). The monitor thread that prints the
//! status line ([`Engine::monitored`]), the run-end timeline merge
//! ([`assemble_timeline`]) and the failure rule ([`Failure`]) live here
//! too, one of each for all drivers.

use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

use nettrace::Packet;
use npobs::timeline::{
    Counters, LogicalSeries, Sample, SpanLog, Stage, Timeline, TimelineSpec, WallSampler,
};
use npsim::bblock::BlockMap;
use npsim::{MemoCounters, NullObserver, Observer, TraceStats};

use crate::apps::App;
use crate::engine::{Engine, WorkerMetrics};
use crate::error::BenchError;
use crate::framework::{Detail, PacketBench, PacketRecord};

/// How often the status line is refreshed.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(1000);

/// Shared counters the monitor thread reads to compose the status line.
/// Lanes bump them with `Relaxed` increments: they order nothing and are
/// only touched when monitoring is on.
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
    /// The status line, `pb: <n>[/<total> (<pct>%)] packets <pps> pps`
    /// followed by ` memo NN%`, ` trace <trips>/<exits>` and
    /// ` dropped <n>` once each counter is nonzero; `None` until the
    /// first packet retires.
    fn status(&self, total: Option<u64>, start: Instant) -> Option<String> {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let n = load(&self.processed);
        if n == 0 {
            return None;
        }
        let mut line = format!("pb: {n}");
        if let Some(total) = total {
            let pct = n as f64 / total.max(1) as f64 * 100.0;
            let _ = write!(line, "/{total} ({pct:.1}%)");
        }
        let pps = n as f64 / start.elapsed().as_secs_f64().max(1e-9);
        let _ = write!(line, " packets {pps:.0} pps");
        let lookups = load(&self.memo_lookups);
        if lookups > 0 {
            let hits = load(&self.memo_hits) as f64;
            let _ = write!(line, " memo {:.0}%", hits / lookups as f64 * 100.0);
        }
        let trips = load(&self.trace_hits);
        if trips > 0 {
            let _ = write!(line, " trace {trips}/{}", load(&self.trace_exits));
        }
        let dropped = load(&self.ring_dropped);
        if dropped > 0 {
            let _ = write!(line, " dropped {dropped}");
        }
        Some(line)
    }
}

impl Engine {
    /// Runs a driver's `body` under the `--progress` monitor: `body` gets
    /// the shared counters while one monitor thread refreshes the status
    /// line about once a second ([`npobs::StatusLine::refresh`]: redrawn in
    /// place on a terminal, one plain line each on a pipe). `total` is
    /// the packet count when the driver knows it. With progress off,
    /// `body` gets no counters and no thread is spawned.
    pub(crate) fn monitored<R>(
        &self,
        total: Option<u64>,
        start: Instant,
        body: impl FnOnce(Option<&MonitorCounters>) -> R,
    ) -> R {
        if !self.progress {
            return body(None);
        }
        let counters = MonitorCounters::default();
        let done = AtomicBool::new(false);
        let status = self.status_line();
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    std::thread::park_timeout(PROGRESS_INTERVAL);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    if let Some(line) = counters.status(total, start) {
                        status.refresh(&line);
                    }
                }
                status.finish_refresh();
            });
            // Stops the monitor even when `body` unwinds, so the scope's
            // implicit join cannot wait on it forever.
            struct Stop<'a>(&'a AtomicBool, &'a Thread);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                    self.1.unpark();
                }
            }
            let _stop = Stop(&done, monitor.thread());
            body(Some(&counters))
        })
    }
}

/// One lane's in-flight telemetry: a wall-clock sampler plus span log, or
/// a deterministic logical series. Built per lane, merged after join by
/// [`assemble_timeline`].
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
}

/// Merges a run's telemetry lanes into its timeline: logical series for
/// a deterministic `spec`, wall-clock samplers and span logs otherwise.
/// `None` when the run sampled nothing.
pub(crate) fn assemble_timeline(
    spec: Option<TimelineSpec>,
    workers: usize,
    lanes: Vec<LaneTelemetry>,
) -> Option<Timeline> {
    let spec = spec?;
    let (mut series, mut samplers, mut logs) = (Vec::new(), Vec::new(), Vec::new());
    for lane in lanes {
        match lane {
            LaneTelemetry::Logical(s) => series.push(s),
            LaneTelemetry::Wall(sampler, log) => {
                samplers.push(sampler);
                logs.push(log);
            }
        }
    }
    Some(if spec.deterministic {
        Timeline::from_logical(series)
    } else {
        Timeline::from_wall(spec.interval, workers, samplers, logs)
    })
}

/// The merger lane of a wall-clock timeline over `threads` workers: one
/// `Merge` span from `began` to now over `packets`. `None` unless `spec`
/// samples the wall clock.
pub(crate) fn merge_lane(
    spec: Option<TimelineSpec>,
    threads: usize,
    start: Instant,
    began: Instant,
    packets: u64,
) -> Option<LaneTelemetry> {
    let spec = spec.filter(|s| !s.deterministic)?;
    let mut log = SpanLog::new(start, spec.capacity);
    log.record(Stage::Merge, 0, threads + 1, began, packets);
    Some(LaneTelemetry::Wall(
        WallSampler::new(spec, threads + 1, start),
        log,
    ))
}

/// Sets each worker's idle time: the run's wall time so far less the
/// worker's busy time.
pub(crate) fn settle_idle(workers: &mut [WorkerMetrics], start: Instant) {
    let wall_ns = nanos(start.elapsed());
    for w in workers {
        w.idle_ns = wall_ns.saturating_sub(w.busy_ns);
    }
}

const HELD: &str = "no thread panics holding a failure cell";

/// A run's failure, shared by its threads: every driver reports the
/// error a serial run in its dispatch order would stop at. Work has a
/// position (a packet's trace index in batch and live, a chunk's flush
/// id in stream); the lowest failed position wins, and work positioned
/// after it need not run. A packet failure beats a source error.
pub(crate) struct Failure {
    /// The lowest failed position, `u64::MAX` while none has failed.
    /// `Relaxed` throughout: it publishes no other data, and the error
    /// is read only after every thread has joined.
    lowest: AtomicU64,
    first: Mutex<Option<(u64, BenchError)>>,
    source: Mutex<Option<BenchError>>,
}

impl Failure {
    pub(crate) fn new() -> Failure {
        Failure {
            lowest: AtomicU64::new(u64::MAX),
            first: Mutex::new(None),
            source: Mutex::new(None),
        }
    }

    /// Records that the work at `pos` failed with `e`.
    pub(crate) fn fail(&self, pos: u64, e: BenchError) {
        self.lowest.fetch_min(pos, Ordering::Relaxed);
        let mut first = self.first.lock().expect(HELD);
        if first.as_ref().is_none_or(|(at, _)| pos < *at) {
            *first = Some((pos, e));
        }
    }

    /// Records the source's open or read error; the first one wins.
    pub(crate) fn fail_source(&self, e: BenchError) {
        let mut source = self.source.lock().expect(HELD);
        source.get_or_insert(e);
    }

    /// Whether some work failed, so nothing more need be read.
    pub(crate) fn stopped(&self) -> bool {
        self.lowest.load(Ordering::Relaxed) != u64::MAX
    }

    /// Whether `pos` comes after the lowest failure so far.
    pub(crate) fn skips(&self, pos: u64) -> bool {
        pos > self.lowest.load(Ordering::Relaxed)
    }

    /// The run's outcome: the lowest work failure, else the source error.
    pub(crate) fn into_result(self) -> Result<(), BenchError> {
        match self.first.into_inner().expect(HELD) {
            Some((_, e)) => Err(e),
            None => self.source.into_inner().expect(HELD).map_or(Ok(()), Err),
        }
    }
}

pub(crate) fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One worker: its bench, telemetry, monitor deltas and counts. `O` is
/// the worker-private observer every packet runs under; drivers without
/// one use [`NullObserver`], which monomorphizes away.
pub(crate) struct Lane<'e, O = NullObserver> {
    engine: &'e Engine,
    worker: usize,
    detail: Detail,
    obs: O,
    bench: Option<PacketBench>,
    telemetry: Option<LaneTelemetry>,
    /// Cumulative instructions and memory accesses, for wall samples.
    instructions: u64,
    mem_packet: u64,
    mem_non_packet: u64,
    /// Bail-outs before the last packet, for logical deltas.
    last_bailouts: u64,
    monitor: Option<&'e MonitorCounters>,
    /// Memo and trace counters already added to `monitor`.
    last_memo: MemoCounters,
    last_trace: TraceStats,
    packets: u64,
    busy_ns: u64,
    busy_start: Instant,
}

impl<'e, O: Observer> Lane<'e, O> {
    /// Lane `worker` of a run that started at `t0`. Builds no bench yet:
    /// a worker given no packets costs nothing.
    pub(crate) fn new(
        engine: &'e Engine,
        worker: usize,
        detail: Detail,
        t0: Instant,
        monitor: Option<&'e MonitorCounters>,
        obs: O,
    ) -> Lane<'e, O> {
        Lane {
            engine,
            worker,
            detail,
            obs,
            bench: None,
            telemetry: engine
                .timeline
                .map(|spec| LaneTelemetry::new(spec, worker, t0)),
            instructions: 0,
            mem_packet: 0,
            mem_non_packet: 0,
            last_bailouts: 0,
            monitor,
            last_memo: MemoCounters::default(),
            last_trace: TraceStats::default(),
            packets: 0,
            busy_ns: 0,
            busy_start: t0,
        }
    }

    /// Builds the lane's bench: the only place any driver builds one.
    /// Cold, so the per-packet path that calls it once stays small.
    #[cold]
    #[inline(never)]
    fn build_bench(engine: &Engine) -> Result<PacketBench, BenchError> {
        let app = App::build(engine.id(), engine.config())?;
        let mut bench = PacketBench::with_config(app, engine.config())?;
        bench.set_memo(engine.memo);
        Ok(bench)
    }

    /// Runs the packet at global trace position `index` into `record`:
    /// simulate it or replay its memo hit, verify it when the engine
    /// verifies, then sample it and feed the monitor counters.
    /// `backlog` gives the lane's queue depth and ring drops, and is only
    /// called when a wall-clock sample is due.
    #[inline]
    pub(crate) fn process(
        &mut self,
        index: u64,
        packet: &Packet,
        record: &mut PacketRecord,
        backlog: impl FnOnce() -> (u64, u64),
    ) -> Result<(), BenchError> {
        // Built on the first packet, the bench (and with it the memo
        // cache and trace table) lives for the lane's whole run.
        let bench = match &mut self.bench {
            Some(bench) => bench,
            None => self.bench.insert(Self::build_bench(self.engine)?),
        };
        bench.process_with(Some(index), packet, self.detail, record, &mut self.obs)?;
        if self.engine.verify {
            bench.verify_record(packet, record)?;
        }
        self.packets += 1;
        if self.telemetry.is_some() {
            self.sample(index, record, backlog);
        }
        if let Some(monitor) = self.monitor {
            self.feed(monitor);
        }
        Ok(())
    }

    /// Folds one processed packet into the lane's telemetry. Busy time at
    /// a sample is the closed busy periods plus the open one. Ring drops
    /// land in wall-clock samples only: drops are a timing artifact, so
    /// deterministic timelines exclude them.
    fn sample(&mut self, index: u64, record: &PacketRecord, backlog: impl FnOnce() -> (u64, u64)) {
        let (Some(bench), Some(telemetry)) = (&self.bench, &mut self.telemetry) else {
            return;
        };
        let bailouts = bench.block_bailouts();
        let stats = &record.stats;
        match telemetry {
            LaneTelemetry::Logical(series) => series.record(
                index,
                &Counters {
                    packets: 1,
                    instructions: stats.instret,
                    mem_packet: stats.mem.packet_total(),
                    mem_non_packet: stats.mem.non_packet_total(),
                    block_bailouts: bailouts - self.last_bailouts,
                },
            ),
            LaneTelemetry::Wall(sampler, _) => {
                self.instructions += stats.instret;
                self.mem_packet += stats.mem.packet_total();
                self.mem_non_packet += stats.mem.non_packet_total();
                if sampler.on_packet() {
                    let (queue_depth, ring_dropped) = backlog();
                    let memo = bench.memo_counters();
                    sampler.push(Sample {
                        instructions: self.instructions,
                        mem_packet: self.mem_packet,
                        mem_non_packet: self.mem_non_packet,
                        queue_depth,
                        busy_ns: self.busy_ns + nanos(self.busy_start.elapsed()),
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
        self.last_bailouts = bailouts;
    }

    /// Adds one processed packet, and the memo and trace counters it
    /// moved, to the monitor's shared counters.
    fn feed(&mut self, monitor: &MonitorCounters) {
        let bench = self.bench.as_ref().expect("a packet just ran");
        let (memo, trace) = (bench.memo_counters(), bench.trace_stats());
        let (was, lookups) = (self.last_memo, |m: MemoCounters| m.hits + m.misses);
        let add = |counter: &AtomicU64, delta: u64| {
            if delta > 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        };
        add(&monitor.processed, 1);
        add(&monitor.memo_hits, memo.hits - was.hits);
        add(&monitor.memo_lookups, lookups(memo) - lookups(was));
        add(&monitor.trace_hits, trace.hits - self.last_trace.hits);
        add(
            &monitor.trace_exits,
            trace.guard_exits - self.last_trace.guard_exits,
        );
        self.last_memo = memo;
        self.last_trace = trace;
    }

    /// Opens a busy period (a shard, a chunk or a burst) and returns when
    /// it began.
    pub(crate) fn begin(&mut self) -> Instant {
        self.busy_start = Instant::now();
        self.busy_start
    }

    /// Closes the busy period [`Lane::begin`] opened, adding it to the
    /// lane's busy time.
    pub(crate) fn end(&mut self) {
        self.busy_ns += nanos(self.busy_start.elapsed());
    }

    /// Records an execution span from `began` to now on a wall-clock
    /// timeline.
    pub(crate) fn span(&mut self, id: u64, began: Instant, packets: u64) {
        if let Some(LaneTelemetry::Wall(sampler, log)) = &mut self.telemetry {
            log.record(Stage::Exec, id, sampler.lane(), began, packets);
        }
    }

    /// Removes the packets the application emitted since the last call.
    pub(crate) fn take_output_packets(&mut self) -> Vec<Packet> {
        self.bench
            .as_mut()
            .map(PacketBench::take_output_packets)
            .unwrap_or_default()
    }

    /// The application's basic-block partition, once the bench is built.
    pub(crate) fn block_map(&self) -> Option<&BlockMap> {
        self.bench.as_ref().map(PacketBench::block_map)
    }

    /// Packets processed so far.
    pub(crate) fn packets(&self) -> u64 {
        self.packets
    }

    /// The worker's metrics (`idle_ns` is left for [`settle_idle`]), its
    /// telemetry and its observer. `queue_depth` is what the driver
    /// handed the lane; `ring_dropped` what its ring dropped.
    pub(crate) fn finish(
        self,
        queue_depth: u64,
        ring_dropped: u64,
    ) -> (WorkerMetrics, Option<LaneTelemetry>, O) {
        let bench = self.bench.as_ref();
        let memo = bench.map(PacketBench::memo_counters).unwrap_or_default();
        let trace = bench.map(PacketBench::trace_stats).unwrap_or_default();
        let metrics = WorkerMetrics {
            worker: self.worker,
            packets: self.packets,
            busy_ns: self.busy_ns,
            idle_ns: 0,
            queue_depth,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_evictions: memo.evictions,
            block_bailouts: bench.map_or(0, PacketBench::block_bailouts),
            traces_formed: trace.formed,
            trace_hits: trace.hits,
            trace_guard_exits: trace.guard_exits,
            trace_declines: trace.declines,
            ring_dropped,
        };
        (metrics, self.telemetry, self.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;
    use crate::framework::MemoMode;
    use crate::live::{LiveConfig, OnFull};
    use crate::stream::StreamConfig;
    use nettrace::synth::{SyntheticTrace, TraceProfile};
    use nettrace::Limited;
    use npstream::SourceSpec;

    /// Runs one driver body with the counters `monitored` would hand it
    /// and checks them against the worker metrics it returns. Returns the
    /// counters' memo hits and trace trips.
    fn check(
        context: &str,
        packets: u64,
        driver: impl FnOnce(Option<&MonitorCounters>) -> Vec<WorkerMetrics>,
    ) -> (u64, u64) {
        let counters = MonitorCounters::default();
        let workers = driver(Some(&counters));
        let sum = |f: fn(&WorkerMetrics) -> u64| workers.iter().map(f).sum::<u64>();
        let got = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        assert_eq!(got(&counters.processed), packets, "{context}");
        assert_eq!(got(&counters.memo_hits), sum(|w| w.memo_hits), "{context}");
        let lookups = sum(|w| w.memo_hits + w.memo_misses);
        assert_eq!(got(&counters.memo_lookups), lookups, "{context}");
        assert_eq!(
            got(&counters.trace_hits),
            sum(|w| w.trace_hits),
            "{context}"
        );
        let exits = sum(|w| w.trace_guard_exits);
        assert_eq!(got(&counters.trace_exits), exits, "{context}");
        (got(&counters.memo_hits), got(&counters.trace_hits))
    }

    #[test]
    fn monitor_counters_agree_with_worker_metrics_on_every_driver() {
        const N: u64 = 600;
        let detail = Detail::counts();
        for (memo, profile) in [
            (MemoMode::On, TraceProfile::zipf()),
            (MemoMode::Off, TraceProfile::mra()),
        ] {
            let engine = Engine::new(AppId::Ipv4Radix).memo(memo);
            let trace = || SyntheticTrace::new(profile, 7);
            let packets = trace().take_packets(N as usize);
            let spec = format!("synth:{}:seed=7:packets={N}", profile.name.to_lowercase());
            let spec = SourceSpec::parse(&spec).unwrap();
            for threads in [1, 4] {
                let context = |driver| format!("{driver}, memo {memo:?}, {threads} threads");
                let batch = check(&context("batch"), N, |m| {
                    let start = Instant::now();
                    let run = engine.batch(&packets, detail, threads, start, || NullObserver, m);
                    run.unwrap().0.workers
                });
                let config = StreamConfig {
                    threads,
                    chunk_size: 64,
                    max_inflight: 0,
                };
                let stream = check(&context("stream"), N, |m| {
                    let source = Limited::new(trace(), N);
                    let run = engine.stream(source, detail, config, Instant::now(), m);
                    run.unwrap().workers
                });
                let config = LiveConfig {
                    threads,
                    on_full: OnFull::Wait,
                    ..LiveConfig::default()
                };
                let live = check(&context("live"), N, |m| {
                    let run = engine.live(&spec, detail, config, Instant::now(), m);
                    run.unwrap().workers
                });
                // Nonzero counts, so the equalities above mean something.
                for (hits, trips) in [batch, stream, live] {
                    match memo {
                        MemoMode::Off => assert!(trips > 0, "{}", context("every driver")),
                        _ => assert!(hits > 0, "{}", context("every driver")),
                    }
                }
            }
        }
    }

    fn mismatch(what: impl ToString) -> BenchError {
        BenchError::Mismatch {
            what: what.to_string(),
        }
    }

    fn truncated() -> BenchError {
        BenchError::from(nettrace::TraceError::Truncated { what: "record" })
    }

    #[test]
    fn failure_keeps_the_lowest_position_recorded_from_any_thread() {
        let failure = Failure::new();
        assert!(!failure.stopped());
        assert!(!failure.skips(u64::MAX - 1));
        // Positions 10..74 in a scrambled order, split over four threads.
        let positions: Vec<u64> = (0..64).map(|k| (k * 29) % 64 + 10).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (failure, positions) = (&failure, &positions);
                scope.spawn(move || {
                    for &pos in positions.iter().skip(t).step_by(4) {
                        failure.fail(pos, mismatch(pos));
                    }
                });
            }
        });
        assert!(failure.stopped());
        assert!(!failure.skips(9));
        assert!(
            !failure.skips(10),
            "the lowest failure itself is not skipped"
        );
        assert!(failure.skips(11));
        let err = failure.into_result().unwrap_err();
        assert!(
            matches!(&err, BenchError::Mismatch { what } if what == "10"),
            "{err:?}"
        );
    }

    #[test]
    fn a_source_error_alone_stops_nothing() {
        let failure = Failure::new();
        failure.fail_source(truncated());
        assert!(!failure.stopped());
        assert!(!failure.skips(0));
        assert!(!failure.skips(u64::MAX - 1));
        let err = failure.into_result().unwrap_err();
        assert!(err.to_string().contains("truncated record"), "{err}");
        assert!(Failure::new().into_result().is_ok());
    }

    #[test]
    fn a_packet_failure_beats_a_source_error() {
        let failure = Failure::new();
        failure.fail_source(truncated());
        failure.fail(900, mismatch("packet 900"));
        let err = failure.into_result().unwrap_err();
        assert!(matches!(err, BenchError::Mismatch { .. }), "{err:?}");
    }

    #[test]
    fn status_line_names_each_nonzero_counter() {
        let counters = MonitorCounters::default();
        let start = Instant::now();
        assert_eq!(counters.status(Some(10), start), None);
        counters.processed.store(5, Ordering::Relaxed);
        let line = counters.status(Some(10), start).unwrap();
        assert!(line.starts_with("pb: 5/10 (50.0%) packets "), "{line}");
        assert!(line.ends_with(" pps"), "{line}");
        counters.memo_hits.store(3, Ordering::Relaxed);
        counters.memo_lookups.store(4, Ordering::Relaxed);
        counters.trace_hits.store(7, Ordering::Relaxed);
        counters.trace_exits.store(2, Ordering::Relaxed);
        counters.ring_dropped.store(9, Ordering::Relaxed);
        let line = counters.status(None, start).unwrap();
        assert!(line.starts_with("pb: 5 packets "), "{line}");
        assert!(
            line.ends_with(" pps memo 75% trace 7/2 dropped 9"),
            "{line}"
        );
    }
}
