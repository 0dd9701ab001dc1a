//! Turning per-packet records into the paper's statistics.
//!
//! One [`TraceAnalysis`] accumulates everything the tables and figures
//! need: per-packet points (Figs. 3–5), the executed-instruction union and
//! data-memory coverage (Table IV), instruction-count histograms
//! (Tables V/VI), per-block execution counts (Fig. 7), and per-packet
//! block sets for the coverage curve (Fig. 8). Single-packet deep dives —
//! the instruction pattern of Fig. 6 and the memory access sequence of
//! Fig. 9 — are computed from one record's traces.

use std::collections::BTreeMap;

use npobs::BlockHeat;
use npsim::bblock::BlockMap;
use npsim::util::{BitSet, ByteCoverage};
use npsim::{AccessKind, Program, Region};

use crate::framework::PacketRecord;

/// The per-packet scalar series behind Figs. 3–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketPoint {
    /// Instructions executed (Fig. 3, Table II).
    pub instructions: u64,
    /// Unique static instructions executed (Table VI).
    pub unique_instructions: u32,
    /// Packet-memory accesses (Fig. 4, Table III).
    pub packet_mem: u64,
    /// Non-packet data-memory accesses (Fig. 5, Table III).
    pub non_packet_mem: u64,
}

/// Accumulates a trace run's statistics.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    points: Vec<PacketPoint>,
    executed_union: BitSet,
    block_sets: Vec<BitSet>,
    block_packets: Vec<u64>,
    data_coverage: ByteCoverage,
    num_blocks: usize,
}

impl TraceAnalysis {
    /// Creates an empty accumulator for an application with the given
    /// block partition.
    pub fn new(program: &Program, block_map: &BlockMap) -> TraceAnalysis {
        TraceAnalysis {
            points: Vec::new(),
            executed_union: BitSet::new(program.len()),
            block_sets: Vec::new(),
            block_packets: vec![0; block_map.num_blocks()],
            data_coverage: ByteCoverage::new(),
            num_blocks: block_map.num_blocks(),
        }
    }

    /// Folds one packet's record in.
    pub fn add(&mut self, block_map: &BlockMap, record: &PacketRecord) {
        self.points.push(PacketPoint {
            instructions: record.stats.instret,
            unique_instructions: record.stats.unique_instructions() as u32,
            packet_mem: record.stats.mem.packet_total(),
            non_packet_mem: record.stats.mem.non_packet_total(),
        });
        self.executed_union.union_with(&record.stats.executed);
        let blocks = block_map.blocks_executed(&record.stats.executed);
        for b in blocks.iter() {
            self.block_packets[b] += 1;
        }
        self.block_sets.push(blocks);
        for event in &record.stats.mem_trace {
            self.data_coverage.touch(event.addr, u32::from(event.size));
        }
    }

    /// Packets accumulated.
    pub fn packets(&self) -> u64 {
        self.points.len() as u64
    }

    /// The per-packet series.
    pub fn points(&self) -> &[PacketPoint] {
        &self.points
    }

    /// Average instructions per packet (Table II).
    pub fn avg_instructions(&self) -> f64 {
        mean(self.points.iter().map(|p| p.instructions))
    }

    /// Average packet-memory accesses per packet (Table III).
    pub fn avg_packet_mem(&self) -> f64 {
        mean(self.points.iter().map(|p| p.packet_mem))
    }

    /// Average non-packet-memory accesses per packet (Table III).
    pub fn avg_non_packet_mem(&self) -> f64 {
        mean(self.points.iter().map(|p| p.non_packet_mem))
    }

    /// Bytes of instruction memory touched over the whole run (Table IV).
    pub fn instr_memory_bytes(&self) -> u64 {
        self.executed_union.count() as u64 * 4
    }

    /// Bytes of data memory touched over the whole run (Table IV).
    /// Requires the run to have recorded memory traces.
    pub fn data_memory_bytes(&self) -> u64 {
        self.data_coverage.bytes()
    }

    /// Histogram of total instructions per packet (Table V).
    pub fn instruction_histogram(&self) -> Histogram {
        Histogram::collect(self.points.iter().map(|p| p.instructions))
    }

    /// Histogram of unique instructions per packet (Table VI).
    pub fn unique_histogram(&self) -> Histogram {
        Histogram::collect(self.points.iter().map(|p| u64::from(p.unique_instructions)))
    }

    /// Per-block execution probability (Fig. 7): the fraction of packets
    /// that executed each block.
    pub fn block_probabilities(&self) -> Vec<f64> {
        let n = self.packets().max(1) as f64;
        self.block_packets.iter().map(|&c| c as f64 / n).collect()
    }

    /// The packet-coverage curve (Fig. 8): for each number of resident
    /// basic blocks `k` (blocks ranked by execution probability), the
    /// fraction of packets entirely covered by the top `k` blocks.
    ///
    /// Returns `(k, coverage)` for `k` in `1..=num_blocks`.
    pub fn coverage_curve(&self) -> Vec<(usize, f64)> {
        // Rank blocks by how many packets execute them, descending, with
        // block id breaking ties so the ranking (and everything rendered
        // from it) is byte-stable for equal-probability blocks.
        let mut order: Vec<usize> = (0..self.num_blocks).collect();
        order.sort_by_key(|&b| (std::cmp::Reverse(self.block_packets[b]), b));
        let mut rank_of = vec![0usize; self.num_blocks];
        for (rank, &b) in order.iter().enumerate() {
            rank_of[b] = rank;
        }
        // A packet needs the top `max rank + 1` blocks to be fully
        // resident; packets_needing[k] counts packets whose requirement is
        // exactly k blocks.
        let mut packets_needing = vec![0u64; self.num_blocks + 1];
        for set in &self.block_sets {
            let needed = set.iter().map(|b| rank_of[b]).max().map_or(0, |r| r + 1);
            packets_needing[needed] += 1;
        }
        let total = self.packets().max(1) as f64;
        let mut acc = packets_needing[0]; // packets executing no block at all
        (1..=self.num_blocks)
            .map(|k| {
                acc += packets_needing[k];
                (k, acc as f64 / total)
            })
            .collect()
    }

    /// The block-execution counts (packets per block).
    pub fn block_packet_counts(&self) -> &[u64] {
        &self.block_packets
    }

    /// Distinct basic blocks executed by each packet, in trace order —
    /// the exact-value series behind the profiler's streaming
    /// blocks-per-packet histogram.
    pub fn blocks_per_packet(&self) -> impl Iterator<Item = u64> + '_ {
        self.block_sets.iter().map(|s| s.count() as u64)
    }

    /// The union of executed instructions across the run.
    pub fn executed_union(&self) -> &BitSet {
        &self.executed_union
    }
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// A frequency histogram over per-packet values (Tables V and VI).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram from values.
    pub fn collect(values: impl Iterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            *h.counts.entry(v).or_insert(0) += 1;
            h.total += 1;
        }
        h
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `k` most frequent values with their shares, most frequent
    /// first (ties broken by smaller value first).
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        let mut entries: Vec<(u64, u64)> = self.counts.iter().map(|(&v, &c)| (v, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(v, c)| (v, c as f64 / self.total.max(1) as f64))
            .collect()
    }

    /// The minimum value and its share.
    pub fn min(&self) -> Option<(u64, f64)> {
        self.counts
            .iter()
            .next()
            .map(|(&v, &c)| (v, c as f64 / self.total.max(1) as f64))
    }

    /// The maximum value and its share.
    pub fn max(&self) -> Option<(u64, f64)> {
        self.counts
            .iter()
            .next_back()
            .map(|(&v, &c)| (v, c as f64 / self.total.max(1) as f64))
    }

    /// The mean value.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().map(|(&v, &c)| v * c).sum();
        sum as f64 / self.total as f64
    }

    /// Iterates `(value, count)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Adds another histogram's samples into this one. The merge is
    /// exact, associative, and commutative — `collect(a ++ b)` equals
    /// `collect(a).merge(collect(b))` in any grouping — which is what
    /// lets the streaming engine build reports from per-chunk partials.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
        self.total += other.total;
    }
}

/// A bounded-size, mergeable aggregate of per-packet statistics — the
/// streaming counterpart of [`TraceAnalysis`].
///
/// Where `TraceAnalysis` keeps a point per packet (and so grows with the
/// trace), `StreamAggregate` keeps only sums and an exact value-frequency
/// histogram, whose size is bounded by the number of *distinct*
/// per-packet instruction counts (a property of the application, not the
/// trace length). Every field merges exactly and order-invariantly, so
/// partial aggregates computed per chunk on different workers fold into
/// the same result as a serial trace-order pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamAggregate {
    packets: u64,
    instructions: u64,
    packet_mem: u64,
    non_packet_mem: u64,
    cycles: u64,
    instruction_hist: Histogram,
}

impl StreamAggregate {
    /// An empty aggregate.
    pub fn new() -> StreamAggregate {
        StreamAggregate::default()
    }

    /// Folds one packet's record in.
    pub fn add_record(&mut self, record: &PacketRecord) {
        self.packets += 1;
        self.instructions += record.stats.instret;
        self.packet_mem += record.stats.mem.packet_total();
        self.non_packet_mem += record.stats.mem.non_packet_total();
        if let Some(u) = record.stats.uarch {
            self.cycles += u.cycles;
        }
        *self
            .instruction_hist
            .counts
            .entry(record.stats.instret)
            .or_insert(0) += 1;
        self.instruction_hist.total += 1;
    }

    /// Adds another aggregate's counts into this one (exact, associative,
    /// commutative).
    pub fn merge(&mut self, other: &StreamAggregate) {
        self.packets += other.packets;
        self.instructions += other.instructions;
        self.packet_mem += other.packet_mem;
        self.non_packet_mem += other.non_packet_mem;
        self.cycles += other.cycles;
        self.instruction_hist.merge(&other.instruction_hist);
    }

    /// Packets accumulated.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Total instructions executed.
    pub fn total_instructions(&self) -> u64 {
        self.instructions
    }

    /// Total modelled cycles (zero unless records carried uarch stats).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average instructions per packet (Table II).
    pub fn avg_instructions(&self) -> f64 {
        ratio(self.instructions, self.packets)
    }

    /// Average packet-memory accesses per packet (Table III).
    pub fn avg_packet_mem(&self) -> f64 {
        ratio(self.packet_mem, self.packets)
    }

    /// Average non-packet-memory accesses per packet (Table III).
    pub fn avg_non_packet_mem(&self) -> f64 {
        ratio(self.non_packet_mem, self.packets)
    }

    /// The exact per-packet instruction-count histogram (Table V).
    pub fn instruction_histogram(&self) -> &Histogram {
        &self.instruction_hist
    }
}

fn ratio(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// The instruction pattern of a single packet (Fig. 6): each executed
/// instruction plotted as (step, index-of-first-execution). Overlaps on
/// the y-axis are loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionPattern {
    points: Vec<(u64, u32)>,
    unique: u32,
}

impl InstructionPattern {
    /// Builds the pattern from a recorded PC trace.
    pub fn from_pc_trace(program: &Program, pc_trace: &[u32]) -> InstructionPattern {
        let mut first_index: Vec<Option<u32>> = vec![None; program.len()];
        let mut next_unique = 0u32;
        let mut points = Vec::with_capacity(pc_trace.len());
        for (step, &pc) in pc_trace.iter().enumerate() {
            let Some(i) = program.index_of(pc) else {
                continue;
            };
            let unique = *first_index[i].get_or_insert_with(|| {
                let u = next_unique;
                next_unique += 1;
                u
            });
            points.push((step as u64, unique));
        }
        InstructionPattern {
            points,
            unique: next_unique,
        }
    }

    /// The (step, unique-index) points.
    pub fn points(&self) -> &[(u64, u32)] {
        &self.points
    }

    /// The number of unique instructions executed.
    pub fn unique_instructions(&self) -> u32 {
        self.unique
    }
}

/// One point of a single packet's data-memory access sequence (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSeqPoint {
    /// Instruction index within the packet's run.
    pub step: u64,
    /// Whether the access hit packet memory (plotted up) or non-packet
    /// memory (plotted down).
    pub packet: bool,
    /// Read or write.
    pub kind: AccessKind,
}

/// Extracts the Fig. 9 sequence from a recorded memory trace.
pub fn memory_sequence(record: &PacketRecord) -> Vec<MemSeqPoint> {
    record
        .stats
        .mem_trace
        .iter()
        .map(|e| MemSeqPoint {
            step: e.instr_index,
            packet: e.region == Region::Packet,
            kind: e.kind,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{App, AppId};
    use crate::config::WorkloadConfig;
    use crate::framework::{Detail, PacketBench};
    use nettrace::synth::{SyntheticTrace, TraceProfile};

    fn analyzed(id: AppId, packets: usize, detail: Detail) -> (PacketBench, TraceAnalysis) {
        let config = WorkloadConfig::small();
        let app = App::build(id, &config).unwrap();
        let mut bench = PacketBench::with_config(app, &config).unwrap();
        let mut analysis = TraceAnalysis::new(bench.app().image().program(), bench.block_map());
        let trace = SyntheticTrace::new(TraceProfile::mra(), 21);
        let block_map = bench.block_map().clone();
        bench
            .run_trace(trace.take(packets), detail, |_, r| {
                analysis.add(&block_map, &r);
            })
            .unwrap();
        (bench, analysis)
    }

    #[test]
    fn averages_and_histograms_populate() {
        let (_, a) = analyzed(AppId::FlowClass, 100, Detail::counts());
        assert_eq!(a.packets(), 100);
        assert!(a.avg_instructions() > 50.0);
        assert!(a.avg_packet_mem() > 5.0);
        assert!(a.avg_non_packet_mem() > 5.0);
        let h = a.instruction_histogram();
        assert_eq!(h.total(), 100);
        let top = h.top_k(3);
        assert!(!top.is_empty());
        assert!(top[0].1 > 0.0 && top[0].1 <= 1.0);
        assert!(h.min().unwrap().0 <= h.max().unwrap().0);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn coverage_curve_is_monotonic_and_reaches_one() {
        let (_, a) = analyzed(AppId::FlowClass, 80, Detail::counts());
        let curve = a.coverage_curve();
        assert!(!curve.is_empty());
        let mut last = 0.0;
        for &(_, c) in &curve {
            assert!(c >= last - 1e-12, "curve must be nondecreasing");
            last = c;
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn block_probabilities_bounded() {
        let (_, a) = analyzed(AppId::Ipv4Trie, 50, Detail::counts());
        let probs = a.block_probabilities();
        assert!(!probs.is_empty());
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // The entry block executes for every packet.
        assert!((probs[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table4_coverage_needs_mem_trace() {
        let (_, a) = analyzed(AppId::Ipv4Trie, 30, Detail::with_mem_trace());
        assert!(a.instr_memory_bytes() > 100);
        assert!(a.data_memory_bytes() > 50);
    }

    #[test]
    fn instruction_pattern_shows_loops() {
        let config = WorkloadConfig::small();
        let app = App::build(AppId::Tsa, &config).unwrap();
        let mut bench = PacketBench::with_config(app, &config).unwrap();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 33);
        let record = bench
            .process_packet(&trace.next_packet(), Detail::full())
            .unwrap();
        let pattern = InstructionPattern::from_pc_trace(
            bench.app().image().program(),
            &record.stats.pc_trace,
        );
        assert_eq!(pattern.points().len() as u64, record.stats.instret);
        // TSA's anonymization loop re-executes instructions: far fewer
        // unique instructions than steps.
        assert!(u64::from(pattern.unique_instructions()) * 2 < record.stats.instret);
        assert_eq!(
            pattern.unique_instructions() as usize,
            record.stats.unique_instructions()
        );
    }

    #[test]
    fn memory_sequence_extracts_regions() {
        let config = WorkloadConfig::small();
        let app = App::build(AppId::FlowClass, &config).unwrap();
        let mut bench = PacketBench::with_config(app, &config).unwrap();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 35);
        let record = bench
            .process_packet(&trace.next_packet(), Detail::full())
            .unwrap();
        let seq = memory_sequence(&record);
        assert_eq!(seq.len(), record.stats.mem_trace.len());
        assert!(seq.iter().any(|p| p.packet));
        assert!(seq.iter().any(|p| !p.packet));
    }

    #[test]
    fn histogram_top_k_orders_by_frequency() {
        let h = Histogram::collect([5u64, 5, 5, 7, 7, 9].into_iter());
        let top = h.top_k(2);
        assert_eq!(top[0].0, 5);
        assert!((top[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(top[1].0, 7);
        assert_eq!(h.min().unwrap(), (5, 0.5));
        assert_eq!(h.max().unwrap().0, 9);
        assert_eq!(h.iter().count(), 3);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::collect(std::iter::empty());
        assert_eq!(h.total(), 0);
        assert!(h.top_k(3).is_empty());
        assert!(h.min().is_none());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_matches_joint_collection() {
        let a_vals = [5u64, 5, 7, 12];
        let b_vals = [5u64, 9, 12, 12];
        let mut merged = Histogram::collect(a_vals.into_iter());
        merged.merge(&Histogram::collect(b_vals.into_iter()));
        let joint = Histogram::collect(a_vals.into_iter().chain(b_vals));
        assert_eq!(merged, joint);
        assert_eq!(merged.total(), 8);
    }

    #[test]
    fn stream_aggregate_merge_equals_serial_fold() {
        let config = WorkloadConfig::small();
        let app = App::build(AppId::FlowClass, &config).unwrap();
        let mut bench = PacketBench::with_config(app, &config).unwrap();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 99);
        let records: Vec<_> = (0..60)
            .map(|_| {
                bench
                    .process_packet(&trace.next_packet(), Detail::counts())
                    .unwrap()
            })
            .collect();

        let mut whole = StreamAggregate::new();
        for r in &records {
            whole.add_record(r);
        }
        // Split into uneven partials merged out of order: same aggregate.
        let mut parts: Vec<StreamAggregate> = Vec::new();
        for slice in [&records[40..], &records[..7], &records[7..40]] {
            let mut part = StreamAggregate::new();
            for r in slice {
                part.add_record(r);
            }
            parts.push(part);
        }
        let mut merged = StreamAggregate::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.packets(), 60);
        assert!(merged.avg_instructions() > 0.0);
        assert_eq!(
            merged.instruction_histogram().total(),
            whole.instruction_histogram().total()
        );
    }

    #[test]
    fn stream_aggregate_matches_trace_analysis_averages() {
        let (_, analysis) = analyzed(AppId::Ipv4Trie, 50, Detail::counts());
        let config = WorkloadConfig::small();
        let app = App::build(AppId::Ipv4Trie, &config).unwrap();
        let mut bench = PacketBench::with_config(app, &config).unwrap();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 21);
        let mut agg = StreamAggregate::new();
        for _ in 0..50 {
            let r = bench
                .process_packet(&trace.next_packet(), Detail::counts())
                .unwrap();
            agg.add_record(&r);
        }
        assert_eq!(agg.avg_instructions(), analysis.avg_instructions());
        assert_eq!(agg.avg_packet_mem(), analysis.avg_packet_mem());
        assert_eq!(agg.avg_non_packet_mem(), analysis.avg_non_packet_mem());
        assert_eq!(
            *agg.instruction_histogram(),
            analysis.instruction_histogram()
        );
    }
}

/// An analytic per-packet processing-delay model, after the paper's
/// discussion of using PacketBench statistics to estimate packet delay
/// (§V-D, paper reference 29): delay is a weighted sum of instruction count and
/// region-split memory accesses, with packet memory cheaper than program
/// state (on a network processor, packet data sits in on-chip transfer
/// registers / local memory while tables live in SRAM/DRAM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Cycles per executed instruction (pipeline CPI, memory excluded).
    pub cycles_per_instr: f64,
    /// Extra cycles per packet-memory access.
    pub packet_mem_cycles: f64,
    /// Extra cycles per non-packet-memory access.
    pub non_packet_mem_cycles: f64,
}

impl DelayModel {
    /// Parameters shaped like an IXP2400-class engine: single-issue core,
    /// cheap local packet memory, expensive external table memory.
    pub fn ixp_like() -> DelayModel {
        DelayModel {
            cycles_per_instr: 1.0,
            packet_mem_cycles: 4.0,
            non_packet_mem_cycles: 24.0,
        }
    }

    /// Estimated cycles for one packet record.
    pub fn estimate(&self, point: &PacketPoint) -> f64 {
        self.cycles_per_instr * point.instructions as f64
            + self.packet_mem_cycles * point.packet_mem as f64
            + self.non_packet_mem_cycles * point.non_packet_mem as f64
    }

    /// Mean estimated cycles over a trace analysis.
    pub fn estimate_mean(&self, analysis: &TraceAnalysis) -> f64 {
        if analysis.points().is_empty() {
            return 0.0;
        }
        analysis
            .points()
            .iter()
            .map(|p| self.estimate(p))
            .sum::<f64>()
            / analysis.points().len() as f64
    }

    /// Packets per second one engine sustains at `clock_hz` under this
    /// model, for the mean packet of `analysis`.
    pub fn throughput_pps(&self, analysis: &TraceAnalysis, clock_hz: f64) -> f64 {
        let cycles = self.estimate_mean(analysis);
        if cycles == 0.0 {
            0.0
        } else {
            clock_hz / cycles
        }
    }
}

#[cfg(test)]
mod graph_tests {
    use super::*;
    use crate::apps::{App, AppId};
    use crate::config::WorkloadConfig;
    use crate::framework::{Detail, PacketBench};
    use crate::profile::{run_profile, ProfileSpec};
    use nettrace::synth::{SyntheticTrace, TraceProfile};
    use npobs::BlockHeat;

    /// The block profile of `packets` COS packets through `id`.
    fn heat_for(id: AppId, packets: usize) -> BlockHeat {
        let spec = ProfileSpec {
            packets,
            seed: 55,
            config: WorkloadConfig::small(),
            ..ProfileSpec::new(id, TraceProfile::cos())
        };
        run_profile(&spec).unwrap().heat
    }

    #[test]
    fn flow_graph_captures_loops_and_hot_path() {
        let heat = heat_for(AppId::Tsa, 20);
        assert!(heat.edges().len() > 3);
        // TSA's anonymization loop: some edge has weight >> packet count
        // (16 iterations x 2 addresses x 20 packets).
        let max_edge = heat.edges().values().copied().max().unwrap();
        assert!(max_edge >= 16 * 2 * 20, "max edge {max_edge}");
        let hot = heat.hot_path();
        assert_eq!(hot[0], 0);
        assert!(hot.len() >= 2);
        // Every consecutive hot-path pair is a real edge.
        for w in hot.windows(2) {
            assert!(heat.edges().contains_key(&(w[0] as u32, w[1] as u32)));
        }
    }

    #[test]
    fn flow_graph_dot_renders() {
        let dot = heat_for(AppId::FlowClass, 10).to_dot("flow");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains("color=red"), "hot path highlighted");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn node_weights_count_entries() {
        let heat = heat_for(AppId::Ipv4Trie, 5);
        // The entry block is entered exactly once per packet.
        assert_eq!(heat.entries()[0], 5);
        let app = App::build(AppId::Ipv4Trie, &WorkloadConfig::small()).unwrap();
        assert_eq!(
            heat.num_blocks(),
            BlockMap::build(app.image().program()).num_blocks()
        );
    }

    #[test]
    fn delay_model_orders_applications_like_instruction_counts() {
        let config = WorkloadConfig::small();
        let model = DelayModel::ixp_like();
        let mut means = Vec::new();
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            let app = App::build(id, &config).unwrap();
            let mut bench = PacketBench::with_config(app, &config).unwrap();
            let block_map = bench.block_map().clone();
            let mut analysis = TraceAnalysis::new(bench.app().image().program(), &block_map);
            let trace = SyntheticTrace::new(TraceProfile::mra(), 66);
            bench
                .run_trace(trace.take(30), Detail::counts(), |_, r| {
                    analysis.add(&block_map, &r)
                })
                .unwrap();
            means.push(model.estimate_mean(&analysis));
            if id == AppId::Ipv4Trie {
                // Sanity: a 600 MHz engine forwards >100k trie packets/s.
                assert!(model.throughput_pps(&analysis, 600e6) > 100_000.0);
            }
        }
        assert!(
            means[0] > means[1] * 5.0,
            "radix {} vs trie {}",
            means[0],
            means[1]
        );
    }

    #[test]
    fn delay_model_weights_memory() {
        let point = PacketPoint {
            instructions: 100,
            unique_instructions: 50,
            packet_mem: 10,
            non_packet_mem: 5,
        };
        let model = DelayModel {
            cycles_per_instr: 1.0,
            packet_mem_cycles: 2.0,
            non_packet_mem_cycles: 10.0,
        };
        assert!((model.estimate(&point) - 170.0).abs() < 1e-9);
    }
}

/// A contiguous partition of an application's basic blocks onto pipeline
/// stages — the paper's "applications can be partitioned across multiple
/// processing engines" design axis (§V-D, paper reference 31, pipelining vs.
/// multiprocessing).
///
/// Stage load is measured in *executed instructions over the profiled
/// trace* (block entries x block length, from a [`BlockHeat`]); the
/// partition minimizes the maximum stage load over all contiguous splits,
/// which bounds the pipeline's throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinePartition {
    /// Per stage: the block index range and its executed-instruction load.
    pub stages: Vec<(std::ops::Range<usize>, u64)>,
    /// Total executed instructions across all stages.
    pub total: u64,
}

impl PipelinePartition {
    /// Splits the blocks into at most `stages` contiguous stages,
    /// minimizing the heaviest stage (binary search over the bottleneck +
    /// greedy packing — optimal for this objective).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn compute(heat: &BlockHeat, stages: usize) -> PipelinePartition {
        assert!(stages > 0, "need at least one stage");
        let weights: Vec<u64> = heat
            .entries()
            .iter()
            .zip(heat.lengths())
            .map(|(entries, length)| entries * length)
            .collect();
        let total: u64 = weights.iter().sum();
        let heaviest = weights.iter().copied().max().unwrap_or(0);

        // Binary search the smallest feasible bottleneck.
        let (mut lo, mut hi) = (heaviest.max(1), total.max(1));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if stages_needed(&weights, mid) <= stages {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let cap = lo;

        // Greedy packing at the chosen bottleneck.
        let mut result = Vec::new();
        let mut start = 0usize;
        let mut load = 0u64;
        for (b, &w) in weights.iter().enumerate() {
            if load + w > cap && b > start {
                result.push((start..b, load));
                start = b;
                load = 0;
            }
            load += w;
        }
        if start < weights.len() || result.is_empty() {
            result.push((start..weights.len(), load));
        }
        PipelinePartition {
            stages: result,
            total,
        }
    }

    /// The bottleneck stage's load.
    pub fn bottleneck(&self) -> u64 {
        self.stages.iter().map(|&(_, w)| w).max().unwrap_or(0)
    }

    /// Throughput speedup over a single engine running everything:
    /// `total / bottleneck` (≤ number of stages).
    pub fn speedup(&self) -> f64 {
        if self.bottleneck() == 0 {
            1.0
        } else {
            self.total as f64 / self.bottleneck() as f64
        }
    }

    /// Load-balance quality in `(0, 1]`: mean stage load over bottleneck.
    pub fn balance(&self) -> f64 {
        if self.stages.is_empty() || self.bottleneck() == 0 {
            return 1.0;
        }
        (self.total as f64 / self.stages.len() as f64) / self.bottleneck() as f64
    }
}

fn stages_needed(weights: &[u64], cap: u64) -> usize {
    let mut stages = 1usize;
    let mut load = 0u64;
    for &w in weights {
        if w > cap {
            return usize::MAX; // infeasible bottleneck
        }
        if load + w > cap {
            stages += 1;
            load = 0;
        }
        load += w;
    }
    stages
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use crate::apps::AppId;
    use crate::config::WorkloadConfig;
    use crate::profile::{run_profile, ProfileSpec};
    use nettrace::synth::TraceProfile;

    /// The block profile of 30 MRA packets through `id`.
    fn heat_for(id: AppId) -> BlockHeat {
        let spec = ProfileSpec {
            packets: 30,
            seed: 77,
            config: WorkloadConfig::small(),
            ..ProfileSpec::new(id, TraceProfile::mra())
        };
        run_profile(&spec).unwrap().heat
    }

    #[test]
    fn single_stage_is_identity() {
        let heat = heat_for(AppId::Ipv4Trie);
        let p = PipelinePartition::compute(&heat, 1);
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.bottleneck(), p.total);
        assert!((p.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_stages_never_hurt() {
        let heat = heat_for(AppId::Tsa);
        let mut last = 0.0f64;
        for stages in [1usize, 2, 4, 8] {
            let p = PipelinePartition::compute(&heat, stages);
            assert!(p.stages.len() <= stages);
            assert!(p.speedup() >= last - 1e-9, "{stages} stages");
            assert!(p.speedup() <= stages as f64 + 1e-9);
            last = p.speedup();
        }
    }

    #[test]
    fn stages_cover_all_blocks_contiguously() {
        let heat = heat_for(AppId::FlowClass);
        let p = PipelinePartition::compute(&heat, 4);
        let mut next = 0usize;
        for (range, load) in &p.stages {
            assert_eq!(range.start, next);
            next = range.end;
            let expected: u64 = range
                .clone()
                .map(|b| heat.entries()[b] * heat.lengths()[b])
                .sum();
            assert_eq!(*load, expected);
        }
        assert_eq!(next, heat.num_blocks());
        assert!(p.balance() > 0.0 && p.balance() <= 1.0);
    }

    #[test]
    fn loop_heavy_apps_have_limited_pipeline_speedup() {
        // TSA's weight is concentrated in the anonymization loop block, so
        // a pipeline cannot split it: speedup at 4 stages stays well below 4.
        let heat = heat_for(AppId::Tsa);
        let p = PipelinePartition::compute(&heat, 4);
        assert!(
            p.speedup() < 3.0,
            "loop concentration should limit speedup, got {}",
            p.speedup()
        );
    }
}
