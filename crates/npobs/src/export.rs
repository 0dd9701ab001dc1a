//! Metrics exporters: hand-rolled JSON and Prometheus text format.
//!
//! A [`MetricsDoc`] bundles one run — per-packet histograms, one
//! [`WorkerMetrics`] row per engine worker, run timing and, for `pb live`,
//! the ingestion ring's [`RingDoc`] — behind a [`Stamp`]. The rows are
//! the records the drivers return, so what a run counted and what the
//! document exports are one struct, and both serializers walk one ordered
//! table of per-worker series (`WORKER_SERIES`): a new per-worker
//! counter is one field and one table row. [`MetricsDoc::pin`] is the one
//! place that knows which fields vary with timing.
//!
//! The serializers are deliberately dependency-free (the workspace
//! carries no external crates): field order is fixed, maps are emitted in
//! stable order, and floats are printed through one helper, so two
//! documents with equal contents serialize to identical bytes. That
//! byte-stability is what lets CI diff exports against golden fixtures.

use crate::hist::{Log2Histogram, PacketHists};
use crate::stamp::{Stamp, METRICS_SCHEMA_VERSION};
use std::fmt::Write as _;
use std::time::Duration;

/// One engine worker's record of a run, built by every driver's worker
/// at run end and exported as one row of the metrics document.
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
    /// Packets assigned to this worker's shard (in `pb live`, offered to
    /// its lane).
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

/// How one per-worker value is exported: its JSON key (the field's
/// name), its Prometheus series and HELP text, and the field it reads.
/// A `ring` series is written in the Prometheus ring section (live runs
/// only), after the ring totals, instead of with the other worker series.
struct WorkerSeries {
    key: &'static str,
    metric: &'static str,
    help: &'static str,
    value: fn(&WorkerMetrics) -> u64,
    ring: bool,
}

/// Every per-worker value after the worker index, in JSON key order; the
/// Prometheus writer emits them in the same order.
const WORKER_SERIES: [WorkerSeries; 13] = [
    WorkerSeries {
        key: "packets",
        metric: "pb_worker_packets_total",
        help: "Packets per engine worker.",
        value: |w| w.packets,
        ring: false,
    },
    WorkerSeries {
        key: "busy_ns",
        metric: "pb_worker_busy_ns",
        help: "Busy time per engine worker.",
        value: |w| w.busy_ns,
        ring: false,
    },
    WorkerSeries {
        key: "idle_ns",
        metric: "pb_worker_idle_ns",
        help: "Idle time per engine worker.",
        value: |w| w.idle_ns,
        ring: false,
    },
    WorkerSeries {
        key: "queue_depth",
        metric: "pb_worker_queue_depth",
        help: "Packets queued to each worker's shard.",
        value: |w| w.queue_depth,
        ring: false,
    },
    WorkerSeries {
        key: "memo_hits",
        metric: "pb_worker_memo_hits_total",
        help: "Packets answered from the worker's flow-memoization cache.",
        value: |w| w.memo_hits,
        ring: false,
    },
    WorkerSeries {
        key: "memo_misses",
        metric: "pb_worker_memo_misses_total",
        help: "Packets that missed the memoization cache and were simulated.",
        value: |w| w.memo_misses,
        ring: false,
    },
    WorkerSeries {
        key: "memo_evictions",
        metric: "pb_worker_memo_evictions_total",
        help: "Memoization cache entries displaced by a colliding key.",
        value: |w| w.memo_evictions,
        ring: false,
    },
    WorkerSeries {
        key: "block_bailouts",
        metric: "pb_worker_block_bailouts_total",
        help: "Superblock executions that bailed back to single-step execution.",
        value: |w| w.block_bailouts,
        ring: false,
    },
    WorkerSeries {
        key: "traces_formed",
        metric: "pb_trace_formed_total",
        help: "Hot traces formed by the one-shot formation pass.",
        value: |w| w.traces_formed,
        ring: false,
    },
    WorkerSeries {
        key: "trace_hits",
        metric: "pb_trace_hits_total",
        help: "Complete trips through formed traces (one fused delta each).",
        value: |w| w.trace_hits,
        ring: false,
    },
    WorkerSeries {
        key: "trace_guard_exits",
        metric: "pb_trace_guard_exits_total",
        help: "Trips that fell off mid-trace on a mispredicted guard.",
        value: |w| w.trace_guard_exits,
        ring: false,
    },
    WorkerSeries {
        key: "trace_declines",
        metric: "pb_trace_declines_total",
        help: "Trace dispatches declined for instruction-budget risk.",
        value: |w| w.trace_declines,
        ring: false,
    },
    WorkerSeries {
        key: "ring_dropped",
        metric: "pb_worker_ring_dropped_total",
        help: "Ring-ingestion drops per worker lane.",
        value: |w| w.ring_dropped,
        ring: true,
    },
];

/// Live-ingestion ring telemetry for one `pb live` run: the exact
/// offered/dropped/retired accounting plus occupancy and burst-size
/// distributions. Absent (`None` in [`MetricsDoc::ring`]) for batch and
/// stream runs, which have no ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RingDoc {
    /// Packets offered to the rings (accepted or dropped).
    pub produced: u64,
    /// Packets dropped because a lane's pool was exhausted.
    pub dropped: u64,
    /// Packets processed and recycled. `produced == dropped + retired`
    /// holds exactly after a completed run.
    pub retired: u64,
    /// Distribution of ring occupancy observed at each burst dequeue.
    pub occupancy: Log2Histogram,
    /// Distribution of burst sizes actually dequeued.
    pub bursts: Log2Histogram,
}

/// A complete, exportable metrics document for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Provenance (schema version, commit, timestamp).
    pub stamp: Stamp,
    /// Application slug (`radix`, `trie`, ...).
    pub app: String,
    /// Trace profile slug (`mra`, ...) or source spec.
    pub trace: String,
    /// Packets processed.
    pub packets: u64,
    /// Engine worker threads used.
    pub threads: usize,
    /// Total wall-clock nanoseconds for the run (0 when pinned).
    pub elapsed_ns: u64,
    /// Nanoseconds spent merging worker results (0 when pinned, and on
    /// runs that fold per worker instead of merging records).
    pub merge_ns: u64,
    /// Per-packet distributions.
    pub hists: PacketHists,
    /// Per-worker rows, ordered by worker index.
    pub workers: Vec<WorkerMetrics>,
    /// Live-ingestion ring telemetry (`pb live` runs only).
    pub ring: Option<RingDoc>,
}

/// Escapes a value for use inside a Prometheus label: backslash, double
/// quote, and newline must be backslash-escaped per the text exposition
/// format. Application and trace slugs are normally tame, but nothing
/// upstream *enforces* that, and a malformed label silently corrupts
/// every series that carries it.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Prints an `f64` the same way on every platform (shortest roundtrip
/// via `{:?}`, which Rust guarantees re-parses exactly).
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

/// Whole nanoseconds of `d`, saturating at `u64::MAX`.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn json_hist(out: &mut String, indent: &str, name: &str, h: &Log2Histogram, last: bool) {
    let _ = write!(out, "{indent}\"{name}\": {{");
    let _ = write!(
        out,
        "\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [",
        h.count(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        fmt_f64(h.mean())
    );
    let mut first = true;
    for (_, lo, hi, count) in h.iter_nonzero() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {count}}}");
    }
    out.push_str("]}");
    if !last {
        out.push(',');
    }
    out.push('\n');
}

/// The HELP and TYPE lines that open a Prometheus counter or gauge. The
/// type follows the name, as the exposition format's convention has it:
/// a `_total` family is a counter, any other a gauge.
fn prom_header(out: &mut String, metric: &str, help: &str) {
    let kind = if metric.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    };
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} {kind}");
}

/// One histogram family: cumulative `_bucket` series with an `le` upper
/// bound, plus `_sum` and `_count`.
fn prom_hist(out: &mut String, metric: &str, help: &str, labels: &str, h: &Log2Histogram) {
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} histogram");
    let mut cum = 0u64;
    for (_, _, hi, count) in h.iter_nonzero() {
        cum += count;
        let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"{hi}\"}} {cum}");
    }
    let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"+Inf\"}} {cum}");
    let _ = writeln!(
        out,
        "{metric}_sum{{{labels}}} {}",
        fmt_f64(h.mean() * h.count() as f64)
    );
    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count());
}

impl MetricsDoc {
    /// A document for one run, stamped with the current commit and wall
    /// clock. `packets` and `threads` are the workers' sum and count
    /// (every driver returns one row per worker thread); the ring section
    /// is absent until the caller sets it.
    pub fn new(
        app: &str,
        trace: &str,
        elapsed: Duration,
        merge: Duration,
        hists: PacketHists,
        workers: Vec<WorkerMetrics>,
    ) -> MetricsDoc {
        MetricsDoc {
            stamp: Stamp::new(METRICS_SCHEMA_VERSION),
            app: app.to_string(),
            trace: trace.to_string(),
            packets: workers.iter().map(|w| w.packets).sum(),
            threads: workers.len(),
            elapsed_ns: nanos(elapsed),
            merge_ns: nanos(merge),
            hists,
            workers,
            ring: None,
        }
    }

    /// Pins every field that varies with timing, so equal runs write
    /// equal bytes (`--deterministic`): the stamp, the run and merge
    /// times, each worker's busy and idle time, and the ring occupancy
    /// and burst-size histograms, which depend on how producer and
    /// workers interleave (they stay, empty). Every counter stays,
    /// the ring totals included: they are functions of the input and
    /// the sharding, except drops under `--on-full drop`, which vary
    /// because they measure the interleaving.
    pub fn pin(&mut self) {
        self.stamp = Stamp::deterministic(self.stamp.schema_version);
        self.elapsed_ns = 0;
        self.merge_ns = 0;
        for w in &mut self.workers {
            w.busy_ns = 0;
            w.idle_ns = 0;
        }
        if let Some(ring) = &mut self.ring {
            ring.occupancy = Log2Histogram::new();
            ring.bursts = Log2Histogram::new();
        }
    }

    /// Serializes the document as JSON. Stable field order, no external
    /// dependencies; equal documents produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  {},", self.stamp.json_fields());
        let _ = writeln!(out, "  \"app\": \"{}\",", self.app);
        let _ = writeln!(out, "  \"trace\": \"{}\",", self.trace);
        let _ = writeln!(out, "  \"packets\": {},", self.packets);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"elapsed_ns\": {},", self.elapsed_ns);
        let _ = writeln!(out, "  \"merge_ns\": {},", self.merge_ns);
        out.push_str("  \"histograms\": {\n");
        let hists: Vec<_> = self.hists.iter().collect();
        for (i, (name, h)) in hists.iter().enumerate() {
            json_hist(&mut out, "    ", name, h, i + 1 == hists.len());
        }
        out.push_str("  },\n");
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let _ = write!(out, "    {{\"worker\": {}", w.worker);
            for s in &WORKER_SERIES {
                let _ = write!(out, ", \"{}\": {}", s.key, (s.value)(w));
            }
            out.push_str(if i + 1 == self.workers.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ],\n");
        match &self.ring {
            None => out.push_str("  \"ring\": null\n"),
            Some(ring) => {
                out.push_str("  \"ring\": {\n");
                let _ = writeln!(out, "    \"produced\": {},", ring.produced);
                let _ = writeln!(out, "    \"dropped\": {},", ring.dropped);
                let _ = writeln!(out, "    \"retired\": {},", ring.retired);
                json_hist(&mut out, "    ", "occupancy", &ring.occupancy, false);
                json_hist(&mut out, "    ", "bursts", &ring.bursts, true);
                out.push_str("  }\n");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serializes the document in Prometheus text exposition format.
    /// Histograms follow the Prometheus convention: cumulative `_bucket`
    /// series with an `le` upper bound, plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let labels = format!(
            "app=\"{}\",trace=\"{}\"",
            escape_label(&self.app),
            escape_label(&self.trace)
        );
        let mut out = String::new();
        let scalar = |out: &mut String, metric: &str, help: &str, value: u64| {
            prom_header(out, metric, help);
            let _ = writeln!(out, "{metric}{{{labels}}} {value}");
        };
        let workers = |out: &mut String, ring: bool| {
            for s in WORKER_SERIES.iter().filter(|s| s.ring == ring) {
                prom_header(out, s.metric, s.help);
                for w in &self.workers {
                    let (metric, worker, value) = (s.metric, w.worker, (s.value)(w));
                    let _ = writeln!(out, "{metric}{{{labels},worker=\"{worker}\"}} {value}");
                }
            }
        };
        let help = "Build and schema provenance of this export.";
        prom_header(&mut out, "pb_build_info", help);
        let _ = writeln!(
            out,
            "pb_build_info{{schema_version=\"{}\",git_commit=\"{}\"}} 1",
            self.stamp.schema_version, self.stamp.git_commit
        );
        scalar(
            &mut out,
            "pb_packets_total",
            "Packets profiled.",
            self.packets,
        );
        let help = "Run wall-clock time.";
        scalar(&mut out, "pb_run_elapsed_ns", help, self.elapsed_ns);
        scalar(
            &mut out,
            "pb_merge_ns",
            "Worker result merge time.",
            self.merge_ns,
        );
        for (name, h) in self.hists.iter() {
            let metric = format!("pb_{name}");
            prom_hist(&mut out, &metric, "Per-packet distribution.", &labels, h);
        }
        workers(&mut out, false);
        if let Some(ring) = &self.ring {
            let help = "Packets offered to the live-ingestion rings.";
            scalar(&mut out, "pb_ring_produced_total", help, ring.produced);
            let help = "Packets dropped because a ring's pool was exhausted.";
            scalar(&mut out, "pb_ring_dropped_total", help, ring.dropped);
            let help = "Packets processed and recycled to the pool.";
            scalar(&mut out, "pb_ring_retired_total", help, ring.retired);
            workers(&mut out, true);
            let help = "Distribution observed at each burst dequeue.";
            prom_hist(
                &mut out,
                "pb_ring_occupancy",
                help,
                &labels,
                &ring.occupancy,
            );
            prom_hist(&mut out, "pb_ring_burst_size", help, &labels, &ring.bursts);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::{Stamp, METRICS_SCHEMA_VERSION};

    fn sample_doc() -> MetricsDoc {
        let mut hists = PacketHists::new();
        hists.record(100, 10, 20, 5);
        hists.record(200, 12, 24, 6);
        hists.record(150, 11, 22, 5);
        MetricsDoc {
            stamp: Stamp::deterministic(METRICS_SCHEMA_VERSION),
            app: "radix".to_string(),
            trace: "mra".to_string(),
            packets: 3,
            threads: 2,
            elapsed_ns: 0,
            merge_ns: 0,
            hists,
            workers: vec![
                WorkerMetrics {
                    worker: 0,
                    packets: 2,
                    busy_ns: 0,
                    idle_ns: 0,
                    queue_depth: 2,
                    memo_hits: 1,
                    memo_misses: 1,
                    memo_evictions: 0,
                    block_bailouts: 4,
                    traces_formed: 2,
                    trace_hits: 9,
                    trace_guard_exits: 3,
                    trace_declines: 1,
                    ring_dropped: 0,
                },
                WorkerMetrics {
                    worker: 1,
                    packets: 1,
                    busy_ns: 0,
                    idle_ns: 0,
                    queue_depth: 1,
                    ..WorkerMetrics::default()
                },
            ],
            ring: None,
        }
    }

    #[test]
    fn json_is_stable_and_structured() {
        let doc = sample_doc();
        let a = doc.to_json();
        let b = doc.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")));
        assert!(a.contains("\"app\": \"radix\""));
        assert!(a.contains("\"instructions_per_packet\""));
        assert!(a.contains("{\"lo\": 128, \"hi\": 255, \"count\": 2}"));
        assert!(a.contains("\"worker\": 1, \"packets\": 1"));
        assert!(a.contains(
            "\"memo_hits\": 1, \"memo_misses\": 1, \"memo_evictions\": 0, \"block_bailouts\": 4"
        ));
        // Crude balance check on the hand-rolled writer.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let doc = sample_doc();
        let prom = doc.to_prometheus();
        // 100 falls in [64,127], 150 and 200 in [128,255].
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"127\"} 1"
        ));
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"255\"} 3"
        ));
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"+Inf\"} 3"
        ));
        assert!(prom.contains("pb_instructions_per_packet_sum{app=\"radix\",trace=\"mra\"} 450.0"));
        assert!(prom.contains("pb_instructions_per_packet_count{app=\"radix\",trace=\"mra\"} 3"));
        assert!(
            prom.contains("pb_worker_packets_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 2")
        );
        assert!(prom.contains(&format!(
            "pb_build_info{{schema_version=\"{METRICS_SCHEMA_VERSION}\",git_commit=\"deterministic\"}} 1"
        )));
        assert!(
            prom.contains("pb_worker_memo_hits_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 1")
        );
        assert!(prom
            .contains("pb_worker_memo_misses_total{app=\"radix\",trace=\"mra\",worker=\"1\"} 0"));
    }

    #[test]
    fn empty_histograms_export_cleanly() {
        let mut doc = sample_doc();
        doc.hists = PacketHists::new();
        doc.workers.clear();
        doc.packets = 0;
        let json = doc.to_json();
        assert!(json.contains("\"buckets\": []"));
        let prom = doc.to_prometheus();
        assert!(prom.contains(
            "pb_instructions_per_packet_bucket{app=\"radix\",trace=\"mra\",le=\"+Inf\"} 0"
        ));
    }

    #[test]
    fn empty_worker_set_keeps_metadata_but_emits_no_series() {
        let mut doc = sample_doc();
        doc.workers.clear();
        let json = doc.to_json();
        // The workers array must still be present (and balanced) even
        // with no elements.
        assert!(json.contains("\"workers\": [\n  ]"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let prom = doc.to_prometheus();
        // HELP/TYPE headers stay (scrapers key on them) but no per-worker
        // sample lines follow.
        assert!(prom.contains("# TYPE pb_worker_packets_total counter"));
        assert!(!prom.contains("pb_worker_packets_total{app="));
        assert!(!prom.contains("pb_worker_block_bailouts_total{app="));
    }

    #[test]
    fn prometheus_labels_are_escaped() {
        assert_eq!(escape_label("radix"), "radix");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        let mut doc = sample_doc();
        doc.trace = "m\"ra\\x\n".to_string();
        let prom = doc.to_prometheus();
        assert!(prom.contains("trace=\"m\\\"ra\\\\x\\n\""));
        // No raw newline may survive inside a label value: every line
        // either is a comment or ends in a sample value.
        for line in prom.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(|c: char| c.is_ascii_digit()),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn schema_version_four_covers_trace_telemetry() {
        // v2 grew `block_bailouts`; v3 grew per-worker `ring_dropped`
        // and the optional `ring` section; v4 grew the trace-cache
        // counters. All are consumer-visible schema changes: the stamp
        // must say so.
        assert_eq!(METRICS_SCHEMA_VERSION, 4);
        let doc = sample_doc();
        assert_eq!(doc.stamp.schema_version, METRICS_SCHEMA_VERSION);
        let json = doc.to_json();
        assert!(json.contains("\"block_bailouts\""));
        assert!(json.contains(
            "\"traces_formed\": 2, \"trace_hits\": 9, \
             \"trace_guard_exits\": 3, \"trace_declines\": 1"
        ));
        assert!(json.contains("\"ring_dropped\": 0"));
        assert!(json.contains("\"ring\": null"));
        let prom = doc.to_prometheus();
        assert!(prom.contains("pb_worker_block_bailouts_total"));
        assert!(prom.contains("pb_trace_formed_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 2"));
        assert!(prom.contains("pb_trace_hits_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 9"));
        assert!(
            prom.contains("pb_trace_guard_exits_total{app=\"radix\",trace=\"mra\",worker=\"0\"} 3")
        );
        assert!(
            prom.contains("pb_trace_declines_total{app=\"radix\",trace=\"mra\",worker=\"1\"} 0")
        );
    }

    #[test]
    fn ring_section_exports_in_both_formats() {
        let mut doc = sample_doc();
        let mut occupancy = Log2Histogram::new();
        let mut bursts = Log2Histogram::new();
        for v in [3u64, 9, 30] {
            occupancy.record(v);
        }
        for v in [8u64, 32, 32] {
            bursts.record(v);
        }
        doc.workers[1].ring_dropped = 7;
        doc.ring = Some(RingDoc {
            produced: 100,
            dropped: 7,
            retired: 93,
            occupancy,
            bursts,
        });
        let json = doc.to_json();
        assert_eq!(json, doc.clone().to_json(), "byte-stable");
        assert!(json.contains("\"produced\": 100"));
        assert!(json.contains("\"dropped\": 7"));
        assert!(json.contains("\"retired\": 93"));
        assert!(json.contains("\"occupancy\""));
        assert!(json.contains("\"bursts\""));
        assert!(json.contains("\"ring_dropped\": 7"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let prom = doc.to_prometheus();
        assert!(prom.contains("pb_ring_dropped_total{app=\"radix\",trace=\"mra\"} 7"));
        assert!(prom.contains("pb_ring_produced_total{app=\"radix\",trace=\"mra\"} 100"));
        assert!(prom.contains("pb_ring_retired_total{app=\"radix\",trace=\"mra\"} 93"));
        assert!(prom
            .contains("pb_worker_ring_dropped_total{app=\"radix\",trace=\"mra\",worker=\"1\"} 7"));
        assert!(prom.contains("pb_ring_occupancy_bucket"));
        assert!(prom.contains("pb_ring_burst_size_count{app=\"radix\",trace=\"mra\"} 3"));
    }

    #[test]
    fn pin_clears_timing_and_keeps_every_counter() {
        let mut doc = sample_doc();
        doc.stamp = Stamp::new(METRICS_SCHEMA_VERSION);
        doc.elapsed_ns = 123;
        doc.merge_ns = 45;
        doc.workers[0].busy_ns = 6;
        doc.workers[1].idle_ns = 7;
        let mut occupancy = Log2Histogram::new();
        occupancy.record(9);
        doc.ring = Some(RingDoc {
            produced: 3,
            dropped: 0,
            retired: 3,
            occupancy: occupancy.clone(),
            bursts: occupancy,
        });
        let mut want = sample_doc();
        want.ring = Some(RingDoc {
            produced: 3,
            retired: 3,
            ..RingDoc::default()
        });
        doc.pin();
        assert_eq!(doc, want);
        let json = doc.to_json();
        assert!(json.contains("\"occupancy\": {\"count\": 0,"), "{json}");
        assert!(json.contains("\"produced\": 3"), "{json}");
    }

    #[test]
    fn every_worker_field_is_exported_under_its_name_in_order() {
        let mut doc = sample_doc();
        doc.workers = vec![WorkerMetrics {
            worker: 0,
            packets: 1,
            busy_ns: 2,
            idle_ns: 3,
            queue_depth: 4,
            memo_hits: 5,
            memo_misses: 6,
            memo_evictions: 7,
            block_bailouts: 8,
            traces_formed: 9,
            trace_hits: 10,
            trace_guard_exits: 11,
            trace_declines: 12,
            ring_dropped: 13,
        }];
        doc.ring = Some(RingDoc::default());
        let json = doc.to_json();
        assert!(
            json.contains(
                "{\"worker\": 0, \"packets\": 1, \"busy_ns\": 2, \"idle_ns\": 3, \
                 \"queue_depth\": 4, \"memo_hits\": 5, \"memo_misses\": 6, \
                 \"memo_evictions\": 7, \"block_bailouts\": 8, \"traces_formed\": 9, \
                 \"trace_hits\": 10, \"trace_guard_exits\": 11, \"trace_declines\": 12, \
                 \"ring_dropped\": 13}"
            ),
            "{json}"
        );
        let prom = doc.to_prometheus();
        let worker_lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.contains(",worker=\"0\"}"))
            .collect();
        let values: Vec<&str> = worker_lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap())
            .collect();
        let want: Vec<String> = (1..=13).map(|v| v.to_string()).collect();
        assert_eq!(values, want, "{prom}");
        assert!(worker_lines[12].starts_with("pb_worker_ring_dropped_total{"));
        assert!(prom.contains("# TYPE pb_worker_busy_ns gauge\n"));
        assert!(prom.contains("# TYPE pb_worker_queue_depth gauge\n"));
        assert!(prom.contains("# TYPE pb_trace_hits_total counter\n"));
    }
}
