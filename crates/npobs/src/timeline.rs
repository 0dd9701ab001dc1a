//! In-flight telemetry: a per-worker time-series sampler and stage-span
//! tracer with Perfetto/Chrome-trace export.
//!
//! The end-of-run aggregates (`MetricsDoc`, the paper tables) cannot see
//! behavior that evolves *during* a run: streaming backpressure stalls,
//! memoization warm-up, superblock bail-out bursts. This module records
//! that evolution with bounded memory and without locks on any hot path:
//!
//! * every pipeline lane (engine worker, stream reader, merger) owns a
//!   private sampler — a bounded ring of timestamped [`Sample`]s snapped
//!   every `interval` packets — and a private [`SpanLog`] of stage spans
//!   (reader chunk / worker chunk / merge, tagged with chunk ids). Lanes
//!   share nothing while the run is live; the engine merges them once,
//!   after the last thread has joined.
//! * two clocks: **wall** samples stamp nanoseconds since run start and
//!   carry the operational counters (queue depth, busy time, backpressure
//!   wait, memoization traffic); **logical** samples
//!   ([`Timeline::deterministic`]) key on packets retired in *global
//!   trace order* via [`LogicalSeries`], so the merged series is a pure
//!   function of the trace — byte-identical at any thread count and chunk
//!   size, which is what lets CI keep golden timeline fixtures.
//! * two exports: stamped JSON ([`Timeline::to_json`]) and a Chrome
//!   trace-event JSON ([`Timeline::to_chrome_trace`]) that Perfetto and
//!   `chrome://tracing` load directly — spans become `X` slices per lane,
//!   samples become `C` counter tracks.
//!
//! Like every exporter in this crate the serializers are hand-rolled and
//! byte-stable: equal timelines serialize to identical bytes.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stamp::Stamp;

/// Version of the timeline-document JSON layout.
///
/// v2 added `ring_dropped` to every sample (live-ingestion drops).
pub const TIMELINE_SCHEMA_VERSION: u32 = 2;

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSpec {
    /// Packets between samples (per lane for wall sampling, per logical
    /// bucket for deterministic sampling). Minimum 1.
    pub interval: u64,
    /// Maximum samples retained per lane (wall: ring of the most recent;
    /// logical: bucket count before the interval doubles). Minimum 2.
    pub capacity: usize,
    /// Key samples on logical time — packets retired in global trace
    /// order — instead of the wall clock, zeroing every wall-dependent
    /// counter, so the merged export is byte-identical at any thread
    /// count.
    pub deterministic: bool,
}

impl TimelineSpec {
    /// Default packets between samples.
    pub const DEFAULT_INTERVAL: u64 = 1024;
    /// Default per-lane sample capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A wall-clock spec at the default interval and capacity.
    pub fn wall() -> TimelineSpec {
        TimelineSpec {
            interval: TimelineSpec::DEFAULT_INTERVAL,
            capacity: TimelineSpec::DEFAULT_CAPACITY,
            deterministic: false,
        }
    }

    /// A deterministic (logical-clock) spec at the default interval and
    /// capacity.
    pub fn logical() -> TimelineSpec {
        TimelineSpec {
            deterministic: true,
            ..TimelineSpec::wall()
        }
    }

    /// The spec with `interval` packets between samples (minimum 1).
    pub fn every(self, interval: u64) -> TimelineSpec {
        TimelineSpec {
            interval: interval.max(1),
            ..self
        }
    }
}

impl Default for TimelineSpec {
    fn default() -> TimelineSpec {
        TimelineSpec::wall()
    }
}

/// One timestamped counter snapshot from one lane. Counters are
/// cumulative for the lane (rates are derived at export time), so a
/// dropped sample never corrupts later ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Wall nanoseconds since run start, or packets retired in global
    /// trace order for deterministic timelines.
    pub t: u64,
    /// The lane that recorded the sample (see [`Timeline::lane_name`]).
    pub lane: usize,
    /// Packets retired by this lane so far (globally, for deterministic
    /// samples).
    pub packets: u64,
    /// Instructions retired by this lane so far.
    pub instructions: u64,
    /// Accesses to packet memory so far.
    pub mem_packet: u64,
    /// Accesses to non-packet memory so far.
    pub mem_non_packet: u64,
    /// Items currently queued to the lane (packets left in a batch
    /// worker's shard; chunks waiting in a stream worker's input queue;
    /// chunks queued across all workers for the reader). Zero in
    /// deterministic samples.
    pub queue_depth: u64,
    /// Nanoseconds this lane has spent executing packets so far. Zero in
    /// deterministic samples.
    pub busy_ns: u64,
    /// Nanoseconds the lane has spent blocked on backpressure (the
    /// reader's pushes into full worker queues) so far. Zero in
    /// deterministic samples.
    pub backpressure_ns: u64,
    /// Flow-memoization cache hits so far. Zero in deterministic samples
    /// (per-worker caches make hits thread-count-dependent).
    pub memo_hits: u64,
    /// Flow-memoization cache misses so far. Zero in deterministic
    /// samples.
    pub memo_misses: u64,
    /// Flow-memoization cache evictions so far. Zero in deterministic
    /// samples.
    pub memo_evictions: u64,
    /// Superblock-engine bail-outs to the per-instruction loop so far.
    pub block_bailouts: u64,
    /// Packets dropped at the lane's ingestion ring so far (`pb live`
    /// overload). Zero outside live mode and in deterministic samples —
    /// drops are a timing artifact, so logical timelines exclude them.
    pub ring_dropped: u64,
}

/// Per-packet counter deltas folded into a [`LogicalSeries`] bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Packets retired.
    pub packets: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Packet-memory accesses.
    pub mem_packet: u64,
    /// Non-packet-memory accesses.
    pub mem_non_packet: u64,
    /// Superblock bail-outs.
    pub block_bailouts: u64,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.packets += other.packets;
        self.instructions += other.instructions;
        self.mem_packet += other.mem_packet;
        self.mem_non_packet += other.mem_non_packet;
        self.block_bailouts += other.block_bailouts;
    }
}

/// Pipeline stage a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Reader: dispatching one chunk (includes the backpressure wait for
    /// room in the worker's queue).
    Read,
    /// Worker: executing one chunk (or, in batch runs, one worker's whole
    /// shard).
    Exec,
    /// Merger: folding one chunk on a one-thread stream, or merging the
    /// workers' results after join (the threaded stream's folds, the
    /// batch engine's trace-order reassembly).
    Merge,
}

impl Stage {
    /// The stage name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Exec => "exec",
            Stage::Merge => "merge",
        }
    }
}

/// One traced stage span: `[start_ns, start_ns + dur_ns)` on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The pipeline stage.
    pub stage: Stage,
    /// Chunk id for streaming spans; worker index for batch exec spans.
    pub id: u64,
    /// The lane the span ran on (see [`Timeline::lane_name`]).
    pub lane: usize,
    /// Wall nanoseconds since run start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Packets the span covered.
    pub packets: u64,
}

/// A lane-private, bounded log of stage spans. When full, the oldest
/// spans are dropped (and counted) so soak runs keep the most recent
/// window.
#[derive(Debug, Clone)]
pub struct SpanLog {
    t0: Instant,
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanLog {
    /// A log whose span timestamps are relative to `t0` (the run start),
    /// retaining at most `capacity` spans.
    pub fn new(t0: Instant, capacity: usize) -> SpanLog {
        SpanLog {
            t0,
            spans: VecDeque::new(),
            capacity: capacity.max(2),
            dropped: 0,
        }
    }

    /// The instant span timestamps are measured from.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Records a span that began at `began` and ends now.
    pub fn record(&mut self, stage: Stage, id: u64, lane: usize, began: Instant, packets: u64) {
        let start_ns = ns_u64(began.saturating_duration_since(self.t0));
        let dur_ns = ns_u64(began.elapsed());
        if self.spans.len() >= self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(Span {
            stage,
            id,
            lane,
            start_ns,
            dur_ns,
            packets,
        });
    }

    fn into_parts(self) -> (Vec<Span>, u64) {
        (self.spans.into(), self.dropped)
    }
}

fn ns_u64(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A lane-private wall-clock sampler: a bounded ring of the most recent
/// [`Sample`]s, snapped every `interval` packets. No locks, no atomics —
/// the owning thread is the only writer, and the engine merges rings
/// after joining.
#[derive(Debug, Clone)]
pub struct WallSampler {
    spec: TimelineSpec,
    lane: usize,
    t0: Instant,
    packets: u64,
    next_due: u64,
    ring: VecDeque<Sample>,
    dropped: u64,
}

impl WallSampler {
    /// A sampler for `lane` with timestamps relative to `t0`.
    pub fn new(spec: TimelineSpec, lane: usize, t0: Instant) -> WallSampler {
        WallSampler {
            spec,
            lane,
            t0,
            packets: 0,
            next_due: spec.interval.max(1),
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Counts one retired packet; returns `true` when a sample is due
    /// (the caller then snapshots its counters into [`WallSampler::push`]).
    /// This is the only per-packet cost: one increment and one compare.
    #[inline]
    pub fn on_packet(&mut self) -> bool {
        self.packets += 1;
        self.packets >= self.next_due
    }

    /// Counts `n` retired packets at once (chunk-granular callers);
    /// returns `true` when a sample is due.
    #[inline]
    pub fn on_packets(&mut self, n: u64) -> bool {
        self.packets += n;
        self.packets >= self.next_due
    }

    /// Packets counted so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The lane this sampler stamps into its samples.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Pushes a sample: the timestamp, lane, and packet count are filled
    /// in here, everything else is the caller's snapshot.
    pub fn push(&mut self, mut sample: Sample) {
        sample.t = ns_u64(self.t0.elapsed());
        sample.lane = self.lane;
        sample.packets = self.packets;
        if self.ring.len() >= self.spec.capacity.max(2) {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(sample);
        self.next_due = self.packets + self.spec.interval.max(1);
    }

    fn into_parts(self) -> (Vec<Sample>, u64) {
        (self.ring.into(), self.dropped)
    }
}

/// The deterministic sampler: per-packet counter deltas folded into
/// buckets keyed on the packet's *global trace index*. Buckets are pure
/// sums, so series recorded by different workers over disjoint packet
/// subsets merge into exactly the series a serial run would record —
/// thread-count and chunk-size invariant by construction.
///
/// Memory stays bounded without breaking determinism: when a bucket
/// index would exceed the capacity, the interval doubles and existing
/// buckets fold pairwise. The final interval is the smallest
/// power-of-two multiple of the base interval that fits the trace, a
/// pure function of trace length — never of scheduling.
#[derive(Debug, Clone)]
pub struct LogicalSeries {
    interval: u64,
    capacity: usize,
    buckets: Vec<Counters>,
}

impl LogicalSeries {
    /// An empty series with `spec.interval` packets per bucket and at
    /// most `spec.capacity` buckets.
    pub fn new(spec: TimelineSpec) -> LogicalSeries {
        LogicalSeries {
            interval: spec.interval.max(1),
            capacity: spec.capacity.max(2),
            buckets: Vec::new(),
        }
    }

    /// Folds one packet's deltas into the bucket owning global trace
    /// index `index`.
    #[inline]
    pub fn record(&mut self, index: u64, delta: &Counters) {
        let mut bucket = (index / self.interval) as usize;
        while bucket >= self.capacity {
            self.coarsen();
            bucket = (index / self.interval) as usize;
        }
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, Counters::default());
        }
        self.buckets[bucket].add(delta);
    }

    /// Doubles the interval, folding buckets pairwise.
    fn coarsen(&mut self) {
        self.interval *= 2;
        let folded = self.buckets.len().div_ceil(2);
        for i in 0..folded {
            let hi = self.buckets.get(2 * i + 1).copied().unwrap_or_default();
            let mut merged = self.buckets[2 * i];
            merged.add(&hi);
            self.buckets[i] = merged;
        }
        self.buckets.truncate(folded);
    }

    /// Coarsens this series until its interval is exactly `interval`
    /// (which must be this series' interval times `2^k` for some `k`).
    fn rescale_to(&mut self, interval: u64) {
        while self.interval < interval {
            self.coarsen();
        }
        debug_assert_eq!(
            self.interval, interval,
            "interval is not a power-of-two multiple"
        );
    }

    /// Merges another series (recorded over a disjoint packet subset of
    /// the same trace) into this one. Both rescale to the coarser
    /// interval first.
    pub fn merge(&mut self, mut other: LogicalSeries) {
        let interval = self.interval.max(other.interval);
        self.rescale_to(interval);
        other.rescale_to(interval);
        if other.buckets.len() > self.buckets.len() {
            self.buckets
                .resize(other.buckets.len(), Counters::default());
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            mine.add(theirs);
        }
    }

    /// The current packets-per-bucket interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Renders the series as cumulative samples keyed on logical time
    /// (`t` = packets retired in trace order at the bucket boundary).
    fn into_samples(self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cum = Counters::default();
        for bucket in &self.buckets {
            cum.add(bucket);
            out.push(Sample {
                t: cum.packets,
                lane: 0,
                packets: cum.packets,
                instructions: cum.instructions,
                mem_packet: cum.mem_packet,
                mem_non_packet: cum.mem_non_packet,
                block_bailouts: cum.block_bailouts,
                ..Sample::default()
            });
        }
        out
    }
}

/// The merged result of one run's telemetry: samples and spans from every
/// lane, ordered deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Whether samples are keyed on logical time (packets retired) rather
    /// than wall nanoseconds.
    pub deterministic: bool,
    /// Packets between samples (the final, possibly coarsened, interval
    /// for deterministic timelines).
    pub interval: u64,
    /// Worker lanes `0..workers`; lane `workers` is the stream reader,
    /// lane `workers + 1` the merger.
    pub workers: usize,
    /// Merged samples, ordered by `(t, lane)`.
    pub samples: Vec<Sample>,
    /// Merged spans, ordered by `(start_ns, lane, id)`. Empty for
    /// deterministic timelines (span times are wall times by nature).
    pub spans: Vec<Span>,
    /// Samples dropped by full rings.
    pub dropped_samples: u64,
    /// Spans dropped by full logs.
    pub dropped_spans: u64,
}

impl Timeline {
    /// Builds a wall-clock timeline from per-lane samplers and span logs.
    pub fn from_wall(
        interval: u64,
        workers: usize,
        samplers: Vec<WallSampler>,
        logs: Vec<SpanLog>,
    ) -> Timeline {
        let mut samples = Vec::new();
        let mut dropped_samples = 0;
        for sampler in samplers {
            let (lane_samples, dropped) = sampler.into_parts();
            samples.extend(lane_samples);
            dropped_samples += dropped;
        }
        samples.sort_by_key(|s| (s.t, s.lane, s.packets));
        let mut spans = Vec::new();
        let mut dropped_spans = 0;
        for log in logs {
            let (lane_spans, dropped) = log.into_parts();
            spans.extend(lane_spans);
            dropped_spans += dropped;
        }
        spans.sort_by_key(|s| (s.start_ns, s.lane, s.id));
        Timeline {
            deterministic: false,
            interval,
            workers,
            samples,
            spans,
            dropped_samples,
            dropped_spans,
        }
    }

    /// Builds a deterministic timeline by merging per-worker logical
    /// series (merge order is irrelevant: bucket sums are commutative).
    /// The result is always a single merged lane — `workers` is 1, never
    /// the thread count, so the document carries no trace of how the run
    /// was parallelized and stays byte-identical at any `--threads`.
    pub fn from_logical(series: Vec<LogicalSeries>) -> Timeline {
        let mut iter = series.into_iter();
        let merged = iter.next().map(|first| {
            iter.fold(first, |mut acc, s| {
                acc.merge(s);
                acc
            })
        });
        let (interval, samples) = match merged {
            Some(s) => (s.interval(), s.into_samples()),
            None => (0, Vec::new()),
        };
        Timeline {
            deterministic: true,
            interval,
            workers: 1,
            samples,
            spans: Vec::new(),
            dropped_samples: 0,
            dropped_spans: 0,
        }
    }

    /// The human name of a lane: `worker <n>`, `reader`, or `merger`.
    pub fn lane_name(&self, lane: usize) -> String {
        if lane == self.workers {
            "reader".to_string()
        } else if lane == self.workers + 1 {
            "merger".to_string()
        } else {
            format!("worker {lane}")
        }
    }

    /// Serializes the timeline as a stamped JSON document. Stable field
    /// order; equal timelines produce identical bytes.
    pub fn to_json(&self, stamp: &Stamp, app: &str, trace: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  {},", stamp.json_fields());
        let _ = writeln!(out, "  \"app\": \"{app}\",");
        let _ = writeln!(out, "  \"trace\": \"{trace}\",");
        let _ = writeln!(
            out,
            "  \"clock\": \"{}\",",
            if self.deterministic {
                "logical"
            } else {
                "wall"
            }
        );
        let _ = writeln!(out, "  \"interval\": {},", self.interval);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"dropped_samples\": {},", self.dropped_samples);
        let _ = writeln!(out, "  \"dropped_spans\": {},", self.dropped_spans);
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"t\": {}, \"lane\": {}, \"packets\": {}, \"instructions\": {}, \
                 \"mem_packet\": {}, \"mem_non_packet\": {}, \"queue_depth\": {}, \
                 \"busy_ns\": {}, \"backpressure_ns\": {}, \"memo_hits\": {}, \
                 \"memo_misses\": {}, \"memo_evictions\": {}, \"block_bailouts\": {}, \
                 \"ring_dropped\": {}}}",
                s.t,
                s.lane,
                s.packets,
                s.instructions,
                s.mem_packet,
                s.mem_non_packet,
                s.queue_depth,
                s.busy_ns,
                s.backpressure_ns,
                s.memo_hits,
                s.memo_misses,
                s.memo_evictions,
                s.block_bailouts,
                s.ring_dropped
            );
            out.push_str(if i + 1 == self.samples.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"stage\": \"{}\", \"id\": {}, \"lane\": {}, \"start_ns\": {}, \
                 \"dur_ns\": {}, \"packets\": {}}}",
                s.stage.name(),
                s.id,
                s.lane,
                s.start_ns,
                s.dur_ns,
                s.packets
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes the timeline in Chrome trace-event format — loadable by
    /// Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`.
    ///
    /// Spans become complete (`"ph": "X"`) slices on one track per lane;
    /// samples become counter (`"ph": "C"`) tracks: packet rate, queue
    /// depth, backpressure, memoization hit rate, and superblock
    /// bail-outs per lane. Timestamps are microseconds; for deterministic
    /// timelines logical time (packets retired) is used as the
    /// microsecond axis, which Perfetto renders fine.
    pub fn to_chrome_trace(&self, app: &str, trace: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };
        push(
            format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"pb {app} {trace}\"}}}}"
            ),
            &mut out,
        );
        let mut lanes: Vec<usize> = self
            .samples
            .iter()
            .map(|s| s.lane)
            .chain(self.spans.iter().map(|s| s.lane))
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        for &lane in &lanes {
            push(
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    self.lane_name(lane)
                ),
                &mut out,
            );
        }
        for s in &self.spans {
            push(
                format!(
                    "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": \"{} #{}\", \
                     \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {}, \"packets\": {}}}}}",
                    s.lane,
                    s.stage.name(),
                    s.id,
                    us(s.start_ns),
                    us(s.dur_ns),
                    s.id,
                    s.packets
                ),
                &mut out,
            );
        }
        // Counter tracks: one per (lane, counter). Rates come from
        // consecutive-sample deltas per lane.
        let mut last: Vec<Option<&Sample>> = Vec::new();
        for s in &self.samples {
            if s.lane >= last.len() {
                last.resize(s.lane + 1, None);
            }
            let prev = last[s.lane];
            let name = self.lane_name(s.lane);
            let ts = us(s.t);
            let pps = match prev {
                Some(p) if s.t > p.t => {
                    let dt = (s.t - p.t) as f64 / if self.deterministic { 1.0 } else { 1e9 };
                    let dp = s.packets.saturating_sub(p.packets) as f64;
                    if self.deterministic {
                        dp
                    } else {
                        dp / dt
                    }
                }
                _ => 0.0,
            };
            push(
                format!(
                    "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \"name\": \"pps [{name}]\", \
                     \"ts\": {ts}, \"args\": {{\"pps\": {pps:.0}}}}}",
                    s.lane
                ),
                &mut out,
            );
            push(
                format!(
                    "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \"name\": \"queue [{name}]\", \
                     \"ts\": {ts}, \"args\": {{\"depth\": {}}}}}",
                    s.lane, s.queue_depth
                ),
                &mut out,
            );
            if s.backpressure_ns > 0 {
                push(
                    format!(
                        "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \
                         \"name\": \"backpressure_ms [{name}]\", \"ts\": {ts}, \
                         \"args\": {{\"ms\": {:.3}}}}}",
                        s.lane,
                        s.backpressure_ns as f64 / 1e6
                    ),
                    &mut out,
                );
            }
            if s.memo_hits + s.memo_misses > 0 {
                push(
                    format!(
                        "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \
                         \"name\": \"memo_hit_pct [{name}]\", \"ts\": {ts}, \
                         \"args\": {{\"pct\": {:.1}}}}}",
                        s.lane,
                        s.memo_hits as f64 / (s.memo_hits + s.memo_misses) as f64 * 100.0
                    ),
                    &mut out,
                );
            }
            if s.block_bailouts > 0 {
                push(
                    format!(
                        "{{\"ph\": \"C\", \"pid\": 1, \"tid\": {}, \
                         \"name\": \"bailouts [{name}]\", \"ts\": {ts}, \
                         \"args\": {{\"count\": {}}}}}",
                        s.lane, s.block_bailouts
                    ),
                    &mut out,
                );
            }
            last[s.lane] = Some(s);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds (or logical packets) to the microsecond axis Chrome trace
/// events use: fractional microseconds for wall times, the raw value for
/// logical time.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::Stamp;

    fn spec(interval: u64, capacity: usize) -> TimelineSpec {
        TimelineSpec {
            interval,
            capacity,
            deterministic: true,
        }
    }

    fn one_packet(instructions: u64) -> Counters {
        Counters {
            packets: 1,
            instructions,
            mem_packet: 2,
            mem_non_packet: 3,
            block_bailouts: 0,
        }
    }

    #[test]
    fn logical_series_is_partition_invariant() {
        // 100 packets with index-dependent costs, recorded serially vs
        // split round-robin over 4 "workers": identical samples.
        let mut serial = LogicalSeries::new(spec(8, 1024));
        for i in 0..100u64 {
            serial.record(i, &one_packet(10 + i % 7));
        }
        let mut shards: Vec<LogicalSeries> =
            (0..4).map(|_| LogicalSeries::new(spec(8, 1024))).collect();
        for i in 0..100u64 {
            shards[(i % 4) as usize].record(i, &one_packet(10 + i % 7));
        }
        let a = Timeline::from_logical(vec![serial]);
        let b = Timeline::from_logical(shards);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.interval, b.interval);
        assert_eq!(a.samples.len(), 13); // ceil(100 / 8)
        let last = a.samples.last().unwrap();
        assert_eq!(last.t, 100);
        assert_eq!(last.packets, 100);
        // Cumulative totals match the plain sums.
        assert_eq!(
            last.instructions,
            (0..100u64).map(|i| 10 + i % 7).sum::<u64>()
        );
    }

    #[test]
    fn logical_series_coarsens_deterministically() {
        // Capacity 4 buckets, interval 1: 32 packets force interval 8.
        let mut serial = LogicalSeries::new(spec(1, 4));
        for i in 0..32u64 {
            serial.record(i, &one_packet(1));
        }
        assert_eq!(serial.interval(), 8);
        // The same packets split over 2 workers coarsen to the same
        // interval and the same buckets once merged.
        let mut shards: Vec<LogicalSeries> =
            (0..2).map(|_| LogicalSeries::new(spec(1, 4))).collect();
        for i in 0..32u64 {
            shards[(i % 2) as usize].record(i, &one_packet(1));
        }
        let a = Timeline::from_logical(vec![serial]);
        let b = Timeline::from_logical(shards);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.interval, 8);
    }

    #[test]
    fn merge_rescales_mixed_intervals() {
        // One worker saw only early packets (fine interval), the other
        // saw the tail (coarsened): merge must rescale both to the
        // coarser interval.
        let mut early = LogicalSeries::new(spec(1, 4));
        for i in 0..3u64 {
            early.record(i, &one_packet(1));
        }
        let mut late = LogicalSeries::new(spec(1, 4));
        for i in 3..16u64 {
            late.record(i, &one_packet(1));
        }
        assert_eq!(early.interval(), 1);
        assert_eq!(late.interval(), 4);
        let t = Timeline::from_logical(vec![early, late]);
        assert_eq!(t.interval, 4);
        let total: u64 = t.samples.last().unwrap().packets;
        assert_eq!(total, 16);
    }

    #[test]
    fn wall_ring_keeps_the_most_recent_samples() {
        let t0 = Instant::now();
        let mut s = WallSampler::new(
            TimelineSpec {
                interval: 1,
                capacity: 2,
                deterministic: false,
            },
            3,
            t0,
        );
        for _ in 0..5 {
            assert!(s.on_packet());
            s.push(Sample::default());
        }
        let (samples, dropped) = s.into_parts();
        assert_eq!(samples.len(), 2);
        assert_eq!(dropped, 3);
        assert_eq!(samples[0].packets, 4);
        assert_eq!(samples[1].packets, 5);
        assert!(samples.iter().all(|s| s.lane == 3));
    }

    #[test]
    fn wall_sampler_fires_on_the_interval() {
        let mut s = WallSampler::new(
            TimelineSpec {
                interval: 4,
                capacity: 64,
                deterministic: false,
            },
            0,
            Instant::now(),
        );
        let mut fired = Vec::new();
        for i in 1..=12u64 {
            if s.on_packet() {
                s.push(Sample::default());
                fired.push(i);
            }
        }
        assert_eq!(fired, vec![4, 8, 12]);
    }

    #[test]
    fn span_log_drops_oldest_when_full() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0, 2);
        for id in 0..5u64 {
            log.record(Stage::Exec, id, 1, Instant::now(), 10);
        }
        let (spans, dropped) = log.into_parts();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 3);
        assert_eq!(spans[0].id, 3);
        assert_eq!(spans[1].id, 4);
    }

    #[test]
    fn json_is_stable_and_balanced() {
        let mut series = LogicalSeries::new(spec(4, 64));
        for i in 0..10u64 {
            series.record(i, &one_packet(5));
        }
        let t = Timeline::from_logical(vec![series]);
        let stamp = Stamp::deterministic(TIMELINE_SCHEMA_VERSION);
        let json = t.to_json(&stamp, "radix", "mra");
        assert_eq!(json, t.to_json(&stamp, "radix", "mra"));
        assert!(json.contains("\"clock\": \"logical\""));
        assert!(json.contains("\"interval\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"ring_dropped\": 0"));
    }

    #[test]
    fn chrome_trace_is_loadable_shaped() {
        let t0 = Instant::now();
        let mut sampler = WallSampler::new(
            TimelineSpec {
                interval: 1,
                capacity: 16,
                deterministic: false,
            },
            0,
            t0,
        );
        sampler.on_packet();
        sampler.push(Sample {
            queue_depth: 5,
            memo_hits: 3,
            memo_misses: 1,
            ..Sample::default()
        });
        let mut log = SpanLog::new(t0, 16);
        log.record(Stage::Exec, 0, 0, t0, 1);
        log.record(Stage::Merge, 0, 3, t0, 1);
        let t = Timeline::from_wall(1, 2, vec![sampler], vec![log]);
        let trace = t.to_chrome_trace("trie", "mra");
        assert!(trace.starts_with("{\"displayTimeUnit\""));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ph\": \"C\""));
        assert!(trace.contains("\"name\": \"exec #0\""));
        assert!(trace.contains("\"name\": \"merger\""));
        assert!(trace.contains("memo_hit_pct"));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }

    #[test]
    fn empty_timeline_exports_cleanly() {
        let t = Timeline::from_logical(Vec::new());
        let stamp = Stamp::deterministic(TIMELINE_SCHEMA_VERSION);
        let json = t.to_json(&stamp, "trie", "mra");
        assert!(json.contains("\"samples\": [\n  ]"));
        let trace = t.to_chrome_trace("trie", "mra");
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }
}
