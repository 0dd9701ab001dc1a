//! The parallel trace engine must be an observational no-op: for every
//! application, running a seeded MRA trace on 2, 4, or 7 workers must
//! produce bit-identical per-packet records, aggregate statistics, and
//! output packets to the serial run.

use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::{Limited, Packet};
use npstream::SourceSpec;
use packetbench::analysis::StreamAggregate;
use packetbench::apps::{App, AppId};
use packetbench::engine::{Engine, EngineRun};
use packetbench::framework::{Detail, PacketBench};
use packetbench::live::{LiveConfig, OnFull};
use packetbench::stream::StreamConfig;
use packetbench::{report, WorkerMetrics, WorkloadConfig};

const TRACE_SEED: u64 = 2005_0320;
const PACKETS: usize = 400;
const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

fn mra_trace(n: usize) -> Vec<Packet> {
    SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED).take_packets(n)
}

fn assert_runs_identical(id: AppId, serial: &EngineRun, parallel: &EngineRun, threads: usize) {
    let context = |i: usize| format!("{}: packet {i} at {threads} threads", id.name());
    assert_eq!(serial.records.len(), parallel.records.len());
    for (i, (a, b)) in serial.records.iter().zip(&parallel.records).enumerate() {
        assert_eq!(a.verdict, b.verdict, "verdict, {}", context(i));
        assert_eq!(a.return_value, b.return_value, "return, {}", context(i));
        assert_eq!(a.stats.instret, b.stats.instret, "instret, {}", context(i));
        assert_eq!(a.stats.mem, b.stats.mem, "mem counts, {}", context(i));
        assert_eq!(a.stats.halt, b.stats.halt, "halt reason, {}", context(i));
        assert_eq!(
            a.stats.executed,
            b.stats.executed,
            "executed set, {}",
            context(i)
        );
    }
    assert_eq!(
        serial.output_packets.len(),
        parallel.output_packets.len(),
        "{}: output packet count at {threads} threads",
        id.name()
    );
    for (i, (a, b)) in serial
        .output_packets
        .iter()
        .zip(&parallel.output_packets)
        .enumerate()
    {
        // `Packet` equality covers bytes, link framing, and timestamp.
        assert_eq!(a, b, "output packet {i}, {threads} threads");
    }
}

#[test]
fn every_app_is_thread_count_invariant() {
    let packets = mra_trace(PACKETS);
    for id in AppId::WITH_EXTENSIONS {
        let engine = Engine::new(id);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        assert_eq!(serial.threads, 1);
        for threads in THREAD_COUNTS {
            let parallel = engine.run(&packets, Detail::counts(), threads).unwrap();
            assert_eq!(parallel.threads, threads);
            assert_runs_identical(id, &serial, &parallel, threads);
        }
    }
}

#[test]
fn engine_serial_path_matches_packetbench() {
    let packets = mra_trace(120);
    for id in AppId::WITH_EXTENSIONS {
        let run = Engine::new(id).run(&packets, Detail::counts(), 1).unwrap();

        let config = WorkloadConfig::default();
        let app = App::build(id, &config).unwrap();
        let mut bench = PacketBench::with_config(app, &config).unwrap();
        for (i, packet) in packets.iter().enumerate() {
            let record = bench.process_packet(packet, Detail::counts()).unwrap();
            assert_eq!(
                record.stats.instret,
                run.records[i].stats.instret,
                "{}: packet {i}",
                id.name()
            );
            assert_eq!(record.verdict, run.records[i].verdict);
            assert_eq!(record.return_value, run.records[i].return_value);
            assert_eq!(record.stats.mem, run.records[i].stats.mem);
        }
        assert_eq!(run.output_packets.len(), bench.take_output_packets().len());
    }
}

#[test]
fn serial_fast_path_report_bytes_match_threaded_runs() {
    // `Engine::run` takes a zero-overhead serial path at threads == 1 (no
    // worker threads, no channels). The rendered aggregate report — the
    // user-visible artifact — must still be byte-equal to every threaded
    // run's, proving the fast path is not a separate semantics.
    let packets = mra_trace(PACKETS);
    for id in AppId::WITH_EXTENSIONS {
        let engine = Engine::new(id);
        let fold = |run: &EngineRun| {
            let mut agg = StreamAggregate::new();
            for record in &run.records {
                agg.add_record(record);
            }
            report::render_aggregate_report(id, &agg, false, false)
        };
        let serial = fold(&engine.run(&packets, Detail::counts(), 1).unwrap());
        for threads in [2, 4] {
            let parallel = fold(&engine.run(&packets, Detail::counts(), threads).unwrap());
            assert_eq!(
                serial,
                parallel,
                "{}: report bytes at {threads} threads",
                id.name()
            );
        }
    }
}

#[test]
fn aggregate_tables_are_thread_count_invariant() {
    // The quantities behind the paper's Tables II/III/V: total and
    // per-packet instruction counts and region-classified memory accesses.
    let packets = mra_trace(PACKETS);
    for id in AppId::ALL {
        let engine = Engine::new(id);
        let serial = engine.run(&packets, Detail::counts(), 1).unwrap();
        let total = |run: &EngineRun| {
            let insts: u64 = run.records.iter().map(|r| r.stats.instret).sum();
            let pkt: u64 = run.records.iter().map(|r| r.stats.mem.packet_total()).sum();
            let non: u64 = run
                .records
                .iter()
                .map(|r| r.stats.mem.non_packet_total())
                .sum();
            (insts, pkt, non)
        };
        for threads in THREAD_COUNTS {
            let parallel = engine.run(&packets, Detail::counts(), threads).unwrap();
            assert_eq!(
                total(&serial),
                total(&parallel),
                "{}: aggregates at {threads} threads",
                id.name()
            );
        }
    }
}

#[test]
fn streaming_equals_batch_at_every_thread_count_and_chunk_size() {
    // The crux of the streaming pipeline: the online aggregate — and the
    // rendered report bytes — must be identical to the batch run's, for
    // every app, at 1/4/7 threads x chunk sizes 1/64/4096 (chunk 4096 >
    // trace length exercises the end-of-trace tail flush alone).
    let packets = mra_trace(PACKETS);
    for id in AppId::WITH_EXTENSIONS {
        let engine = Engine::new(id);
        let batch = engine.run(&packets, Detail::counts(), 1).unwrap();
        let mut want = StreamAggregate::new();
        for record in &batch.records {
            want.add_record(record);
        }
        let want_report = report::render_aggregate_report(id, &want, false, false);
        for threads in [1, 4, 7] {
            for chunk_size in [1, 64, 4096] {
                let source = Limited::new(
                    SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED),
                    PACKETS as u64,
                );
                let run = engine
                    .run_streaming(
                        source,
                        Detail::counts(),
                        StreamConfig {
                            threads,
                            chunk_size,
                            max_inflight: 0,
                        },
                    )
                    .unwrap();
                let context = format!("{}: {threads} threads, chunk {chunk_size}", id.name());
                assert_eq!(run.aggregate, want, "aggregate, {context}");
                assert_eq!(
                    report::render_aggregate_report(id, &run.aggregate, false, false),
                    want_report,
                    "report bytes, {context}"
                );
            }
        }
    }
}

#[test]
fn every_driver_forms_the_same_traces() {
    // Every bench the engine builds forms hot traces: the loop apps form
    // and enter traces on every driver, and at one thread every driver
    // counts the same (formed, trips, guard exits).
    const N: u64 = 600;
    const LOOP_APPS: [(AppId, [u64; 3]); 3] = [
        (AppId::Ipv4Radix, [15, 93_231, 48_952]),
        (AppId::Tsa, [4, 1_704, 1_704]),
        (AppId::IpsecEnc, [6, 6_613, 6_613]),
    ];
    let packets = mra_trace(N as usize);
    let spec = SourceSpec::parse(&format!("synth:mra:seed={TRACE_SEED}:packets={N}")).unwrap();
    let events = |workers: &[WorkerMetrics]| {
        let sum = |f: fn(&WorkerMetrics) -> u64| workers.iter().map(f).sum::<u64>();
        [
            sum(|w| w.traces_formed),
            sum(|w| w.trace_hits),
            sum(|w| w.trace_guard_exits),
        ]
    };
    for (id, serial_events) in LOOP_APPS {
        let engine = Engine::new(id);
        for threads in [1, 3] {
            let batch = engine.run(&packets, Detail::counts(), threads).unwrap();
            let source = Limited::new(SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED), N);
            let config = StreamConfig {
                threads,
                ..StreamConfig::default()
            };
            let stream = engine
                .run_streaming(source, Detail::counts(), config)
                .unwrap();
            let config = LiveConfig {
                threads,
                on_full: OnFull::Wait,
                ..LiveConfig::default()
            };
            let live = engine.run_live(&spec, Detail::counts(), config).unwrap();
            for (driver, workers) in [
                ("batch", &batch.workers),
                ("stream", &stream.workers),
                ("live", &live.workers),
            ] {
                let events = events(workers);
                let context = format!("{id:?} {driver} at {threads} threads");
                assert!(events.iter().all(|&n| n > 0), "{context}: {events:?}");
                if threads == 1 {
                    assert_eq!(events, serial_events, "{context}");
                }
            }
        }
    }
}

#[test]
fn streaming_uarch_cpi_line_is_chunking_invariant() {
    // With uarch detail the report grows the modelled-CPI line; cycle
    // totals must also fold exactly.
    let id = AppId::Ipv4Trie;
    let engine = Engine::new(id);
    let detail = Detail {
        uarch: true,
        ..Detail::counts()
    };
    let packets = mra_trace(150);
    let batch = engine.run(&packets, detail, 1).unwrap();
    let mut want = StreamAggregate::new();
    for record in &batch.records {
        want.add_record(record);
    }
    for chunk_size in [7, 150] {
        let source = Limited::new(SyntheticTrace::new(TraceProfile::mra(), TRACE_SEED), 150);
        let run = engine
            .run_streaming(
                source,
                detail,
                StreamConfig {
                    threads: 4,
                    chunk_size,
                    max_inflight: 2,
                },
            )
            .unwrap();
        assert_eq!(run.aggregate.cycles(), want.cycles(), "chunk {chunk_size}");
        assert_eq!(
            report::render_aggregate_report(id, &run.aggregate, true, false),
            report::render_aggregate_report(id, &want, true, false)
        );
    }
}

#[test]
fn verified_parallel_runs_pass_golden_models() {
    let packets = mra_trace(150);
    for id in AppId::WITH_EXTENSIONS {
        for threads in [1, 4] {
            let run = Engine::new(id)
                .verify(true)
                .run(&packets, Detail::counts(), threads)
                .unwrap();
            assert_eq!(run.records.len(), packets.len(), "{}", id.name());
        }
    }
}
