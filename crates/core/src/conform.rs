//! Application-level differential conformance (the `pb conform` app leg).
//!
//! Where `npconform`'s corpus harness cross-checks the interpreter paths
//! on *generated* programs, this module replays the five real PacketBench
//! applications — IPv4 radix, IPv4 trie, flow classification, TSA
//! anonymization, and IPSec encryption — through six paths:
//!
//! 1. the reference interpreter ([`npconform::RefCpu`]),
//! 2. the optimized simulator forced onto its full-detail loop,
//! 3. the optimized simulator forced onto its counts-only loop,
//! 4. the optimized simulator forced onto its superblock engine,
//! 5. the superblock engine with eager hot-trace fusion (the first
//!    packet trains the formation pass; every later packet replays
//!    through fused traces),
//! 6. the multi-threaded [`Engine`],
//!
//! each against its own framework instance (own memory, own application
//! state), asserting bit-identical per-packet statistics, verdicts,
//! architectural state, memory digests, and emitted output packets.
//! Applications are stateful (flow tables, anonymization mappings), so
//! agreeing packet-by-packet over a whole trace is a much stronger check
//! than any single-packet comparison.
//!
//! A sixth **memo leg** replays the trace twice through one
//! [`MemoMode::Check`] framework: the first pass misses and installs
//! cache entries, the second hits — and Check mode re-simulates every
//! hit and asserts the cached result is bit-identical before applying
//! it. The leg also asserts the static write guard engages for exactly
//! the proven-safe applications (radix and trie) and that stateful or
//! vetoed applications bypass the cache entirely.

use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::Packet;
use npconform::{DiffLevel, ForcedCpu, Outcome, RefCpu};
use npsim::{BlockTable, Cpu, ExecPath, Interpreter, RunConfig};

use crate::apps::{App, AppId};
use crate::config::WorkloadConfig;
use crate::engine::Engine;
use crate::error::BenchError;
use crate::framework::{Detail, MemoMode, PacketBench, PacketRecord, Verdict};

/// Conformance result for one application over one trace.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// The application checked.
    pub app: AppId,
    /// Packets replayed.
    pub packets: usize,
    /// Worker threads used for the engine leg.
    pub threads: usize,
    /// Named divergences (empty = all six paths bit-identical).
    pub divergences: Vec<String>,
}

impl AppReport {
    /// Whether all paths agreed on every packet.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// One leg's observation of one packet.
struct LegRecord {
    outcome: Outcome,
    verdict: Verdict,
    return_value: u32,
}

fn run_leg(
    bench: &mut PacketBench,
    interp: &mut dyn Interpreter,
    packet: &Packet,
    config: &RunConfig,
) -> Result<LegRecord, BenchError> {
    let mut record = PacketRecord::empty();
    bench.process_packet_via(interp, packet, config, &mut record)?;
    Ok(LegRecord {
        outcome: Outcome {
            result: Ok(record.stats.halt),
            stats: record.stats,
            state: interp.state(),
            mem_digest: bench.mem().digest(),
        },
        verdict: record.verdict,
        return_value: record.return_value,
    })
}

/// The per-packet fields where a counts-only `record` differs from the
/// reference leg's observation: what the engine and memo legs compare.
fn differing_fields(
    reference: &LegRecord,
    record: &PacketRecord,
) -> impl Iterator<Item = &'static str> {
    let (r, e) = (&reference.outcome.stats, &record.stats);
    [
        ("instret", r.instret == e.instret),
        ("executed", r.executed == e.executed),
        ("mem", r.mem == e.mem),
        ("halt", r.halt == e.halt),
        ("verdict", reference.verdict == record.verdict),
        (
            "return_value",
            reference.return_value == record.return_value,
        ),
    ]
    .into_iter()
    .filter(|&(_, same)| !same)
    .map(|(field, _)| field)
}

/// Stop collecting divergences per app beyond this many; one real bug
/// diverges on nearly every packet and drowning the report helps nobody.
const MAX_DIVERGENCES: usize = 24;

/// Replays `packets` through `id` on all six paths and reports every
/// divergence from the reference interpreter.
///
/// # Errors
///
/// Fails only on framework-level errors (bad packets, simulator faults);
/// divergences are *reported*, not returned as errors.
pub fn check_app(id: AppId, packets: &[Packet], threads: usize) -> Result<AppReport, BenchError> {
    let config = WorkloadConfig::small();

    // Five serial legs, each with its own framework instance. The
    // reference interpreter re-encodes the program and owns the words; the
    // forced CPUs borrow this clone.
    let app = App::build(id, &config)?;
    let program = app.image().program().clone();
    let map = app.map();
    let mut bench_ref = PacketBench::with_config(app, &config)?;
    let mut interp_ref = RefCpu::new(&program, map)?;

    let mut bench_full = PacketBench::with_config(App::build(id, &config)?, &config)?;
    let mut interp_full = ForcedCpu::new(Cpu::new(&program, map), ExecPath::Full);

    let mut bench_counts = PacketBench::with_config(App::build(id, &config)?, &config)?;
    let mut interp_counts = ForcedCpu::new(Cpu::new(&program, map), ExecPath::Counts);

    let mut bench_block = PacketBench::with_config(App::build(id, &config)?, &config)?;
    let table = BlockTable::build(&program);
    let mut interp_block =
        ForcedCpu::new(Cpu::new(&program, map).with_blocks(&table), ExecPath::Block);

    // The trace leg gets its own table with eager formation so fused
    // dispatch is actually exercised: packet 0 trains, packets 1+ replay
    // through traces, and guard exits / budget declines occur naturally
    // on the real applications' data-dependent branches.
    let mut bench_trace = PacketBench::with_config(App::build(id, &config)?, &config)?;
    let mut trace_table = BlockTable::build(&program);
    trace_table.set_trace_params(npsim::TraceParams::eager());
    let mut interp_trace = ForcedCpu::new(
        Cpu::new(&program, map).with_blocks(&trace_table),
        ExecPath::Trace,
    );

    let full_config = RunConfig {
        record_pc_trace: true,
        record_mem_trace: true,
        ..RunConfig::default()
    };
    let counts_config = RunConfig::default();

    let mut divergences = Vec::new();
    let mut reference_legs = Vec::with_capacity(packets.len());
    for (i, packet) in packets.iter().enumerate() {
        let leg_ref = run_leg(&mut bench_ref, &mut interp_ref, packet, &full_config)?;
        let leg_full = run_leg(&mut bench_full, &mut interp_full, packet, &full_config)?;
        let leg_counts = run_leg(
            &mut bench_counts,
            &mut interp_counts,
            packet,
            &counts_config,
        )?;
        let leg_block = run_leg(&mut bench_block, &mut interp_block, packet, &counts_config)?;
        let leg_trace = run_leg(&mut bench_trace, &mut interp_trace, packet, &counts_config)?;

        for (name, leg, level) in [
            ("full", &leg_full, DiffLevel::Full),
            ("counts", &leg_counts, DiffLevel::Counts),
            ("block", &leg_block, DiffLevel::Counts),
            ("trace", &leg_trace, DiffLevel::Counts),
        ] {
            for d in leg_ref.outcome.diff(&leg.outcome, level) {
                divergences.push(format!("packet {i} {name}: {d}"));
            }
            if leg.verdict != leg_ref.verdict {
                divergences.push(format!(
                    "packet {i} {name}: verdict: {:?} vs {:?}",
                    leg_ref.verdict, leg.verdict
                ));
            }
            if leg.return_value != leg_ref.return_value {
                divergences.push(format!(
                    "packet {i} {name}: return_value: {} vs {}",
                    leg_ref.return_value, leg.return_value
                ));
            }
        }
        reference_legs.push(leg_ref);
        if divergences.len() >= MAX_DIVERGENCES {
            break;
        }
    }

    if bench_ref.output_packets() != bench_full.output_packets() {
        divergences.push("full: output packets differ from reference".to_string());
    }
    if bench_ref.output_packets() != bench_counts.output_packets() {
        divergences.push("counts: output packets differ from reference".to_string());
    }
    if bench_ref.output_packets() != bench_block.output_packets() {
        divergences.push("block: output packets differ from reference".to_string());
    }
    if bench_ref.output_packets() != bench_trace.output_packets() {
        divergences.push("trace: output packets differ from reference".to_string());
    }
    // Agreement is vacuous if fused dispatch never ran: with eager
    // parameters and at least one replay packet, formation must have
    // produced traces and dispatch must have reached them at least once
    // (a completed trip, a guard exit, or a budget decline all count).
    if packets.len() > 1 {
        let t = trace_table.trace_stats();
        if t.formed == 0 || t.hits + t.guard_exits + t.declines == 0 {
            divergences.push(format!(
                "trace: fused dispatch never engaged (formed={}, hits={}, \
                 guard_exits={}, declines={})",
                t.formed, t.hits, t.guard_exits, t.declines
            ));
        }
    }

    // Engine leg: the multi-threaded run must reproduce the reference's
    // per-packet counts, verdicts, and outputs in trace order.
    if divergences.len() < MAX_DIVERGENCES {
        let engine = Engine::with_config(id, config).run(packets, Detail::counts(), threads)?;
        for (i, (reference, record)) in reference_legs.iter().zip(&engine.records).enumerate() {
            for field in differing_fields(reference, record) {
                divergences.push(format!("packet {i} engine({threads}): {field} differs"));
            }
            if divergences.len() >= MAX_DIVERGENCES {
                break;
            }
        }
        if engine.output_packets != bench_ref.output_packets() {
            divergences.push(format!(
                "engine({threads}): output packets differ from reference"
            ));
        }
    }

    // Memo leg: one Check-mode bench replays the trace twice. Pass one
    // misses and installs entries; pass two hits, and Check mode
    // re-simulates each hit, asserting bit-identity with the cached
    // result before it is applied. Both passes must match the reference
    // per packet. Non-memoizable applications (stateful, or vetoed by
    // the static write guard) skip pass two: their "memo" run is a plain
    // counts run, and replaying would advance their state past the
    // reference's.
    if divergences.len() < MAX_DIVERGENCES {
        let mut bench_memo = PacketBench::with_config(App::build(id, &config)?, &config)?;
        bench_memo.set_memo(MemoMode::Check);
        let want_active = matches!(id, AppId::Ipv4Radix | AppId::Ipv4Trie);
        if bench_memo.memo_active() != want_active {
            divergences.push(format!(
                "memo: write guard engaged={} for {:?}, expected {}",
                bench_memo.memo_active(),
                id,
                want_active
            ));
        }
        let passes = if bench_memo.memo_active() { 2 } else { 1 };
        'memo: for pass in 0..passes {
            for (i, packet) in packets.iter().enumerate() {
                let index = (pass * packets.len() + i) as u64;
                let mut record = PacketRecord::empty();
                if let Err(e) =
                    bench_memo.process_packet_at(index, packet, Detail::counts(), &mut record)
                {
                    divergences.push(format!("packet {i} memo(pass {pass}): {e}"));
                    break 'memo;
                }
                let Some(reference) = reference_legs.get(i) else {
                    break 'memo;
                };
                for field in differing_fields(reference, &record) {
                    divergences.push(format!("packet {i} memo(pass {pass}): {field} differs"));
                }
                if divergences.len() >= MAX_DIVERGENCES {
                    break 'memo;
                }
            }
        }
        if bench_memo.memo_active() && !packets.is_empty() {
            let counters = bench_memo.memo_counters();
            if counters.hits == 0 || counters.misses == 0 {
                divergences.push(format!(
                    "memo: replay produced no cache traffic (hits={} misses={})",
                    counters.hits, counters.misses
                ));
            }
        }
    }

    divergences.truncate(MAX_DIVERGENCES);
    Ok(AppReport {
        app: id,
        packets: packets.len(),
        threads,
        divergences,
    })
}

/// Conformance-checks every application (extensions included) over a
/// seeded synthetic trace, cycling through the paper's four trace
/// profiles so each application sees a different traffic shape.
///
/// # Errors
///
/// See [`check_app`].
pub fn check_all_apps(
    packets: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<AppReport>, BenchError> {
    let profiles = TraceProfile::all();
    AppId::WITH_EXTENSIONS
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let trace =
                SyntheticTrace::new(profiles[i % profiles.len()], seed).take_packets(packets);
            check_app(id, &trace, threads)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: usize, seed: u64) -> Vec<Packet> {
        SyntheticTrace::new(TraceProfile::mra(), seed).take_packets(n)
    }

    #[test]
    fn every_app_conforms_on_a_short_trace() {
        for report in check_all_apps(30, 42, 4).unwrap() {
            assert!(
                report.passed(),
                "{:?} diverged: {:#?}",
                report.app,
                report.divergences
            );
            assert_eq!(report.packets, 30);
        }
    }

    #[test]
    fn flow_class_conforms_across_thread_counts() {
        // The stateful app is the one whose engine sharding could skew:
        // check it at several worker counts over one trace.
        let packets = trace(60, 7);
        for threads in [1, 2, 4] {
            let report = check_app(AppId::FlowClass, &packets, threads).unwrap();
            assert!(
                report.passed(),
                "flow-class at {threads} threads: {:#?}",
                report.divergences
            );
        }
    }
}
