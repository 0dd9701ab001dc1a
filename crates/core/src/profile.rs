//! The profiler: one engine run with full observability attached.
//!
//! [`run_profile`] drives an application over a trace through the
//! parallel engine with a worker-private [`npobs::HeatObserver`] per
//! worker, then folds everything the observability layer knows into one
//! [`ProfileResult`]: streaming per-packet histograms, the basic-block
//! heat map, and per-worker engine telemetry.
//!
//! ## Determinism
//!
//! [`ProfileResult::render`] is **byte-identical at every engine thread
//! count** for a fixed application/trace/seed: heat observers merge
//! additively in worker order, histograms are built from the merged
//! trace-ordered records, and the rendering contains no timing, thread
//! count, or timestamp. CI diffs it against a golden fixture. The
//! exported [`npobs::MetricsDoc`] *does* carry threads and timing; the
//! `deterministic` flag pins it ([`npobs::MetricsDoc::pin`]) for fixture
//! diffs.

use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::Packet;
use npobs::{BlockHeat, HeatObserver, MetricsDoc, PacketHists};
use npsim::bblock::BlockMap;

use crate::apps::{App, AppId};
use crate::config::WorkloadConfig;
use crate::engine::{Engine, EngineRun};
use crate::error::BenchError;
use crate::framework::Detail;
use crate::report;

/// What to profile.
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    /// The application.
    pub app: AppId,
    /// The synthetic trace profile.
    pub trace: TraceProfile,
    /// Packets to run.
    pub packets: usize,
    /// Trace generator seed.
    pub seed: u64,
    /// Engine worker threads (0 = available parallelism).
    pub threads: usize,
    /// Workload configuration (must match the app build).
    pub config: WorkloadConfig,
    /// Emit the engine's periodic progress line on stderr.
    pub progress: bool,
}

impl ProfileSpec {
    /// A spec with the default workload, seed 42, 1000 packets, serial.
    pub fn new(app: AppId, trace: TraceProfile) -> ProfileSpec {
        ProfileSpec {
            app,
            trace,
            packets: 1000,
            seed: 42,
            threads: 1,
            config: WorkloadConfig::default(),
            progress: false,
        }
    }
}

/// Everything one profiled run produced.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// The application profiled.
    pub app: AppId,
    /// Trace profile name.
    pub trace_name: String,
    /// Trace generator seed.
    pub seed: u64,
    /// Streaming per-packet distributions.
    pub hists: PacketHists,
    /// The merged basic-block heat map.
    pub heat: BlockHeat,
    /// The underlying engine run (records, telemetry, timing).
    pub run: EngineRun,
}

/// Profiles one application over a synthetic trace.
///
/// # Errors
///
/// Everything [`Engine::run`] can fail with.
pub fn run_profile(spec: &ProfileSpec) -> Result<ProfileResult, BenchError> {
    let packets: Vec<Packet> =
        SyntheticTrace::new(spec.trace, spec.seed).take_packets(spec.packets);
    profile_packets(spec, &packets)
}

/// Profiles one application over an explicit packet list.
///
/// # Errors
///
/// See [`run_profile`].
pub fn profile_packets(
    spec: &ProfileSpec,
    packets: &[Packet],
) -> Result<ProfileResult, BenchError> {
    // A host-side build supplies the program and block partition the
    // observers and labels are keyed to.
    let app = App::build(spec.app, &spec.config)?;
    let block_map = BlockMap::build(app.image().program());

    let engine = Engine::with_config(spec.app, spec.config).progress(spec.progress);
    let (run, observers) = engine.run_observed(packets, Detail::counts(), spec.threads, || {
        HeatObserver::new(&block_map)
    })?;

    // Worker heat merges additively; histograms come from the merged
    // trace-ordered records. Both are independent of worker count.
    let mut heat_obs = HeatObserver::new(&block_map);
    for obs in &observers {
        heat_obs.merge(obs);
    }
    let heat = heat_obs.into_heat(app.image().program(), &block_map);

    let mut hists = PacketHists::new();
    for record in &run.records {
        hists.record_run(&record.stats, &block_map);
    }

    Ok(ProfileResult {
        app: spec.app,
        trace_name: spec.trace.name.to_string(),
        seed: spec.seed,
        hists,
        heat,
        run,
    })
}

/// Rows shown in the hottest-edges table of `pb profile`.
const EDGE_TABLE_LIMIT: usize = 20;

impl ProfileResult {
    /// Renders the profile as plain text: header, the four per-packet
    /// log2 histograms, the block heat table, the hottest successor
    /// edges, and the flamegraph-collapsed heat and chain lines.
    /// Contains no timing, thread count, or timestamp — the output is
    /// byte-identical at every engine thread count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} on {} ({} packets, seed {})\n\n",
            self.app.name(),
            self.trace_name,
            self.hists.packets(),
            self.seed
        ));
        for (name, hist) in self.hists.iter() {
            out.push_str(&report::render_log2_histogram(name, hist));
            out.push('\n');
        }
        out.push_str("basic-block heat (hottest first)\n");
        out.push_str(&self.heat.render_table());
        out.push('\n');
        out.push_str("hottest edges (block successor transitions)\n");
        out.push_str(&self.heat.render_edges(EDGE_TABLE_LIMIT));
        out.push('\n');
        out.push_str("flamegraph-collapsed (block instructions)\n");
        out.push_str(&self.heat.render_collapsed(self.app.slug()));
        out.push('\n');
        out.push_str("flamegraph-collapsed chains (dominant successor walks)\n");
        out.push_str(&self.heat.render_chains(self.app.slug()));
        out
    }

    /// Builds the exportable metrics document. With `deterministic` it is
    /// pinned ([`MetricsDoc::pin`]) so CI can byte-diff the export;
    /// packet, queue-depth, and memoization counts stay real (they are
    /// pure functions of the trace and sharding).
    pub fn metrics_doc(&self, deterministic: bool) -> MetricsDoc {
        let mut doc = MetricsDoc::new(
            self.app.slug(),
            &self.trace_name,
            self.run.elapsed,
            self.run.merge,
            self.hists.clone(),
            self.run.workers.clone(),
        );
        if deterministic {
            doc.pin();
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(threads: usize) -> ProfileSpec {
        ProfileSpec {
            packets: 60,
            threads,
            config: WorkloadConfig::small(),
            ..ProfileSpec::new(AppId::Ipv4Trie, TraceProfile::mra())
        }
    }

    #[test]
    fn profile_populates_hists_and_heat() {
        let result = run_profile(&spec(1)).unwrap();
        assert_eq!(result.hists.packets(), 60);
        // Every instruction lands in exactly one block: totals must agree.
        assert_eq!(
            result.heat.total_instructions(),
            result
                .run
                .records
                .iter()
                .map(|r| r.stats.instret)
                .sum::<u64>()
        );
        // The entry block is entered once per packet.
        assert_eq!(result.heat.entries()[0], 60);
        let doc = result.metrics_doc(true);
        assert_eq!(doc.packets, 60);
        assert_eq!(doc.workers.len(), 1);
        assert_eq!(doc.workers[0].queue_depth, 60);
        assert_eq!(doc.elapsed_ns, 0);
    }

    #[test]
    fn render_is_thread_count_invariant() {
        let serial = run_profile(&spec(1)).unwrap().render();
        let parallel = run_profile(&spec(4)).unwrap().render();
        assert_eq!(serial, parallel);
        assert!(serial.contains("instructions_per_packet"));
        assert!(serial.contains("basic-block heat"));
        assert!(serial.contains("trie;"));
    }

    #[test]
    fn live_metrics_doc_carries_telemetry() {
        let result = run_profile(&spec(3)).unwrap();
        let doc = result.metrics_doc(false);
        assert_eq!(doc.threads, 3);
        assert_eq!(doc.workers.len(), 3);
        assert_eq!(doc.workers.iter().map(|w| w.packets).sum::<u64>(), 60);
        assert_eq!(doc.workers.iter().map(|w| w.queue_depth).sum::<u64>(), 60);
        assert!(doc.workers.iter().any(|w| w.busy_ns > 0));
        assert!(doc.elapsed_ns > 0);
        assert!(doc.stamp.timestamp.ends_with('Z'));
    }
}
