//! The table/figure regeneration behind the `report` binary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::Packet;
use packetbench::analysis::{
    memory_sequence, DelayModel, FlowGraph, InstructionPattern, PipelinePartition, TraceAnalysis,
};
use packetbench::apps::{App, AppId};
use packetbench::engine::Engine;
use packetbench::framework::{Detail, PacketBench};
use packetbench::{report, WorkloadConfig};

/// Seed used for every generated trace: the reports are deterministic.
const TRACE_SEED: u64 = 2005_0320; // ISPASS 2005

/// Simulated packets since the last [`take_packets_processed`] call —
/// `report_main` uses this for its throughput summary line.
static PROCESSED: AtomicU64 = AtomicU64::new(0);

fn count_processed(n: usize) {
    PROCESSED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Returns the number of packets simulated since the last call, resetting
/// the counter.
pub fn take_packets_processed() -> u64 {
    PROCESSED.swap(0, Ordering::Relaxed)
}

/// Packet counts per experiment.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Tables II and III (paper: 10,000 packets per trace).
    pub tables23: usize,
    /// Table IV (paper: first 1,000 MRA packets).
    pub table4: usize,
    /// Tables V and VI (paper: 100,000 COS packets).
    pub tables56: usize,
    /// Figures 3-5, 7, 8 (paper: first 500 MRA packets).
    pub figures: usize,
}

impl Counts {
    /// The paper's packet counts.
    pub fn paper() -> Counts {
        Counts {
            tables23: 10_000,
            table4: 1_000,
            tables56: 100_000,
            figures: 500,
        }
    }

    /// Shrunk counts for smoke tests.
    pub fn quick() -> Counts {
        Counts {
            tables23: 300,
            table4: 100,
            tables56: 500,
            figures: 60,
        }
    }
}

/// Builds an initialized framework for one application.
fn bench_for(id: AppId, config: &WorkloadConfig) -> PacketBench {
    let app = App::build(id, config).expect("application assembles");
    PacketBench::with_config(app, config).expect("framework initializes")
}

/// Runs `packets` of `profile` through `id` serially and returns the
/// accumulated analysis.
fn analyze(
    id: AppId,
    profile: TraceProfile,
    packets: usize,
    detail: Detail,
    config: &WorkloadConfig,
) -> TraceAnalysis {
    analyze_threaded(id, profile, packets, detail, config, 1)
}

/// Like `analyze`, on `threads` workers (0 = available parallelism).
/// Aggregate statistics are identical at every thread count; the serial
/// path streams records through one reused scratch buffer.
pub fn analyze_threaded(
    id: AppId,
    profile: TraceProfile,
    packets: usize,
    detail: Detail,
    config: &WorkloadConfig,
    threads: usize,
) -> TraceAnalysis {
    let trace: Vec<Packet> = SyntheticTrace::new(profile, TRACE_SEED).take_packets(packets);
    count_processed(trace.len());
    if threads == 1 {
        let mut bench = bench_for(id, config);
        let block_map = bench.block_map().clone();
        let mut analysis = TraceAnalysis::new(bench.app().image().program(), &block_map);
        bench
            .run_trace_ref(&trace, detail, |_, r| analysis.add(&block_map, r))
            .expect("trace runs");
        return analysis;
    }
    let run = Engine::with_config(id, *config)
        .run(&trace, detail, threads)
        .expect("trace runs");
    let app = App::build(id, config).expect("application assembles");
    let block_map = npsim::bblock::BlockMap::build(app.image().program());
    let mut analysis = TraceAnalysis::new(app.image().program(), &block_map);
    for record in &run.records {
        analysis.add(&block_map, record);
    }
    analysis
}

/// Entry point of the `report` binary: parses `std::env::args` and prints
/// the requested exhibits.
pub fn report_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let counts = if quick {
        Counts::quick()
    } else {
        Counts::paper()
    };
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(0);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && args.get(i.wrapping_sub(1)).is_none_or(|p| p != "--threads")
        })
        .map(|(_, a)| a.as_str())
        .collect();
    let want = |name: &str| wanted.is_empty() || wanted.iter().any(|w| *w == name || *w == "all");
    take_packets_processed();
    let start = Instant::now();
    render_report_threaded(&counts, want, threads);
    let elapsed = start.elapsed().as_secs_f64();
    let packets = take_packets_processed();
    println!(
        "# {packets} packets on {threads} thread(s) in {elapsed:.1} s ({:.0} packets/sec)",
        if elapsed > 0.0 {
            packets as f64 / elapsed
        } else {
            0.0
        }
    );
}

/// Renders every exhibit `want` selects, with the given packet counts,
/// serially.
pub fn render_report(counts: &Counts, want: impl Fn(&str) -> bool) {
    render_report_threaded(counts, want, 1);
}

/// Renders every exhibit `want` selects, spreading the heavy table passes
/// over `threads` workers. Exhibit contents are identical at every thread
/// count.
pub fn render_report_threaded(counts: &Counts, want: impl Fn(&str) -> bool, threads: usize) {
    let config = WorkloadConfig::default();
    let traces = TraceProfile::all();
    let trace_names: Vec<&str> = traces.iter().map(|p| p.name).collect();

    if want("table1") {
        println!("{}", report::render_table1(&traces));
    }

    if want("table2") || want("table3") {
        // One pass computes both tables.
        let mut cells2 = [[0.0f64; 4]; 4];
        let mut cells3 = [[report::MemCell::default(); 4]; 4];
        for (a, id) in AppId::ALL.into_iter().enumerate() {
            for (t, profile) in traces.iter().enumerate() {
                let analysis = analyze_threaded(
                    id,
                    *profile,
                    counts.tables23,
                    Detail::counts(),
                    &config,
                    threads,
                );
                let (instr, mem) = report::table23_cells(&analysis);
                cells2[a][t] = instr;
                cells3[a][t] = mem;
            }
        }
        if want("table2") {
            println!("{}", report::render_table2(&trace_names, &cells2));
        }
        if want("table3") {
            println!("{}", report::render_table3(&trace_names, &cells3));
        }
    }

    if want("table4") {
        let mut rows = Vec::new();
        for id in AppId::ALL {
            let analysis = analyze(
                id,
                TraceProfile::mra(),
                counts.table4,
                Detail::with_mem_trace(),
                &config,
            );
            rows.push((
                id,
                analysis.instr_memory_bytes(),
                analysis.data_memory_bytes(),
            ));
        }
        println!("{}", report::render_table4(&rows));
    }

    if want("table5") || want("table6") {
        let mut rows5 = Vec::new();
        let mut rows6 = Vec::new();
        for id in AppId::ALL {
            let analysis = analyze_threaded(
                id,
                TraceProfile::cos(),
                counts.tables56,
                Detail::counts(),
                &config,
                threads,
            );
            rows5.push((id, analysis.instruction_histogram()));
            rows6.push((id, analysis.unique_histogram()));
        }
        if want("table5") {
            println!(
                "{}",
                report::render_variation_table(
                    "Table V: Variation of Executed Instructions (COS trace)",
                    &rows5
                )
            );
        }
        if want("table6") {
            println!(
                "{}",
                report::render_variation_table(
                    "Table VI: Variation of Unique Executed Instructions (COS trace)",
                    &rows6
                )
            );
        }
    }

    // Figures 3-5, 7, 8: the paper plots IPv4-radix and Flow Classification.
    let figure_apps = [AppId::Ipv4Radix, AppId::FlowClass];
    if want("fig3") || want("fig4") || want("fig5") || want("fig7") || want("fig8") {
        for id in figure_apps {
            let analysis = analyze(
                id,
                TraceProfile::mra(),
                counts.figures,
                Detail::counts(),
                &config,
            );
            if want("fig3") {
                println!(
                    "{}",
                    report::render_series(
                        &format!("Fig 3 ({}): instructions per packet", id.name()),
                        analysis.points().iter().map(|p| p.instructions),
                    )
                );
            }
            if want("fig4") {
                println!(
                    "{}",
                    report::render_series(
                        &format!("Fig 4 ({}): packet memory accesses", id.name()),
                        analysis.points().iter().map(|p| p.packet_mem),
                    )
                );
            }
            if want("fig5") {
                println!(
                    "{}",
                    report::render_series(
                        &format!("Fig 5 ({}): non-packet memory accesses", id.name()),
                        analysis.points().iter().map(|p| p.non_packet_mem),
                    )
                );
            }
            if want("fig7") {
                println!(
                    "{}",
                    report::render_block_probabilities(
                        &format!("Fig 7 ({}): basic block execution probability", id.name()),
                        &analysis.block_probabilities(),
                    )
                );
            }
            if want("fig8") {
                println!(
                    "{}",
                    report::render_coverage_curve(
                        &format!("Fig 8 ({}): packet coverage vs basic blocks", id.name()),
                        &analysis.coverage_curve(),
                    )
                );
            }
        }
    }

    // Figures 6 and 9: one-packet deep dives.
    if want("fig6") || want("fig9") {
        for id in figure_apps {
            let mut bench = bench_for(id, &config);
            let mut trace = SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED);
            let packet = trace.next_packet();
            let record = bench
                .process_packet(&packet, Detail::full())
                .expect("packet runs");
            if want("fig6") {
                let pattern = InstructionPattern::from_pc_trace(
                    bench.app().image().program(),
                    &record.stats.pc_trace,
                );
                println!(
                    "{}",
                    report::render_instruction_pattern(
                        &format!("Fig 6 ({}): detailed packet processing", id.name()),
                        &pattern,
                    )
                );
            }
            if want("fig9") {
                println!(
                    "{}",
                    report::render_memory_sequence(
                        &format!("Fig 9 ({}): data memory access pattern", id.name()),
                        &memory_sequence(&record),
                    )
                );
            }
        }
    }

    // Extension: the weighted flow graph of packet processing dynamics
    // (paper section I, "Understanding the Dynamics of Network
    // Processing"), in Graphviz DOT form with the hot path highlighted.
    if want("flowgraph") {
        for id in [AppId::Ipv4Trie, AppId::FlowClass] {
            let mut bench = bench_for(id, &config);
            let block_map = bench.block_map().clone();
            let mut pc_traces: Vec<Vec<u32>> = Vec::new();
            let trace = SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED)
                .take_packets(counts.figures.min(100));
            count_processed(trace.len());
            bench
                .run_trace_ref(
                    &trace,
                    Detail {
                        pc_trace: true,
                        ..Detail::counts()
                    },
                    |_, r| pc_traces.push(r.stats.pc_trace.clone()),
                )
                .expect("trace runs");
            let mut graph = FlowGraph::new(&block_map);
            for pc_trace in &pc_traces {
                graph.add_trace(bench.app().image().program(), &block_map, pc_trace);
            }
            println!(
                "{}",
                graph.to_dot(&format!("{} packet-processing dynamics", id.name()))
            );
            println!("# hot path: {:?}", graph.hot_path());
            println!();
        }
    }

    // Extension: pipeline partitioning of each application across
    // processing engines (paper section V-D, ref. [31]): contiguous
    // basic-block stages balanced by executed-instruction load.
    if want("partition") {
        println!("Pipeline partitioning: throughput speedup vs engines (MRA trace)");
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            "Application", "2 stages", "4 stages", "8 stages", "balance@4"
        );
        for id in AppId::WITH_EXTENSIONS {
            let mut bench = bench_for(id, &config);
            let block_map = bench.block_map().clone();
            let mut pc_traces: Vec<Vec<u32>> = Vec::new();
            let trace = SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED)
                .take_packets(counts.figures.min(100));
            count_processed(trace.len());
            bench
                .run_trace_ref(
                    &trace,
                    Detail {
                        pc_trace: true,
                        ..Detail::counts()
                    },
                    |_, r| pc_traces.push(r.stats.pc_trace.clone()),
                )
                .expect("trace runs");
            let mut graph = FlowGraph::new(&block_map);
            for t in &pc_traces {
                graph.add_trace(bench.app().image().program(), &block_map, t);
            }
            let speedup =
                |stages: usize| PipelinePartition::compute(&block_map, &graph, stages).speedup();
            let p4 = PipelinePartition::compute(&block_map, &graph, 4);
            println!(
                "{:<22} {:>9.2}x {:>9.2}x {:>9.2}x {:>9.0}%",
                id.name(),
                speedup(2),
                speedup(4),
                speedup(8),
                p4.balance() * 100.0
            );
        }
        println!();
    }

    // Extension: the analytic processing-delay model built on the
    // workload statistics (paper section V-D, ref. [29]).
    if want("delay") {
        let model = DelayModel::ixp_like();
        println!("Estimated packet processing delay (IXP-like engine, MRA trace)");
        println!(
            "{:<22} {:>14} {:>18} {:>18}",
            "Application", "cycles/packet", "kpps @ 600 MHz", "kpps @ 1.4 GHz"
        );
        for id in AppId::WITH_EXTENSIONS {
            let analysis = analyze(
                id,
                TraceProfile::mra(),
                counts.figures,
                Detail::counts(),
                &config,
            );
            println!(
                "{:<22} {:>14.0} {:>18.1} {:>18.1}",
                id.name(),
                model.estimate_mean(&analysis),
                model.throughput_pps(&analysis, 600e6) / 1e3,
                model.throughput_pps(&analysis, 1.4e9) / 1e3,
            );
        }
        println!();
    }

    // Extension: the payload-processing application (PPA) the paper
    // mentions alongside its header-processing workloads (section IV) —
    // cost scales with packet size, unlike every HPA.
    if want("ppa") {
        let mut bench = bench_for(AppId::IpsecEnc, &config);
        let mut by_size: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED);
        for _ in 0..counts.tables23.min(2000) {
            let p = trace.next_packet();
            let captured = p.l3().len() as u16;
            let r = bench.process_packet(&p, Detail::counts()).expect("runs");
            let e = by_size.entry(captured).or_insert((0, 0));
            e.0 += r.stats.instret;
            e.1 += 1;
        }
        println!("IPsec-enc (PPA extension): instructions vs captured packet size");
        println!(
            "{:>10} {:>10} {:>16}",
            "bytes", "packets", "avg instructions"
        );
        for (size, (sum, n)) in by_size {
            println!("{:>10} {:>10} {:>16.0}", size, n, sum as f64 / n as f64);
        }
        println!();
    }

    // Bonus: the micro-architectural statistics PacketBench inherits from
    // its processor simulator (paper section V, "Microarchitectural
    // Results").
    if want("uarch") {
        println!("Microarchitectural statistics (MRA trace, per application)");
        println!(
            "{:<22} {:>10} {:>12} {:>12} {:>12} {:>8}",
            "Application", "branches", "mispredict%", "icache hit%", "dcache hit%", "CPI"
        );
        for id in AppId::ALL {
            let mut bench = bench_for(id, &config);
            let trace =
                SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED).take_packets(counts.figures);
            count_processed(trace.len());
            let mut acc: BTreeMap<&str, f64> = BTreeMap::new();
            let mut n = 0u64;
            bench
                .run_trace_ref(
                    &trace,
                    Detail {
                        uarch: true,
                        ..Detail::counts()
                    },
                    |_, r| {
                        let u = r.stats.uarch.expect("uarch enabled");
                        *acc.entry("branches").or_default() += u.branches as f64;
                        *acc.entry("miss").or_default() += u.mispredictions as f64;
                        *acc.entry("ia").or_default() += u.icache_accesses as f64;
                        *acc.entry("im").or_default() += u.icache_misses as f64;
                        *acc.entry("da").or_default() += u.dcache_accesses as f64;
                        *acc.entry("dm").or_default() += u.dcache_misses as f64;
                        *acc.entry("cy").or_default() += u.cycles as f64;
                        *acc.entry("in").or_default() += r.stats.instret as f64;
                        n += 1;
                    },
                )
                .expect("trace runs");
            let pct = |num: f64, den: f64| if den == 0.0 { 0.0 } else { 100.0 * num / den };
            println!(
                "{:<22} {:>10.0} {:>11.2}% {:>11.2}% {:>11.2}% {:>8.2}",
                id.name(),
                acc["branches"] / n as f64,
                pct(acc["miss"], acc["branches"]),
                100.0 - pct(acc["im"], acc["ia"]),
                100.0 - pct(acc["dm"], acc["da"]),
                acc["cy"] / acc["in"],
            );
        }
    }
}
