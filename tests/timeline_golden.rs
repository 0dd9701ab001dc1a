//! Golden fixture and determinism tests for the in-flight timeline.
//!
//! Pinned invariants:
//!
//! 1. **Thread/chunk invariance** — a `--deterministic` timeline (samples
//!    keyed on packets retired in global trace order) is byte-identical
//!    at 1, 4, and 7 engine threads, for the batch engine, the streaming
//!    pipeline across chunk sizes, and zero-drop live ingestion.
//! 2. **Golden timeline** — the deterministic JSON export over a seeded
//!    40-packet radix/MRA trace (interval 8) matches a checked-in
//!    fixture, so any change to the sampler, the logical bucketing, or
//!    the serializer shows up as a reviewable diff.
//! 3. **Wall timelines are structurally sound** — lanes are within
//!    range, spans carry the stages the pipeline ran, and the Chrome
//!    trace export stays balanced JSON.
//!
//! Goldens run with memoization off: memo hits skip simulation, so the
//! bail-out column is only trace-determined when every packet simulates.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test timeline_golden
//! ```

use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::{Limited, Packet};
use npobs::timeline::{Stage, TimelineSpec, TIMELINE_SCHEMA_VERSION};
use npobs::Stamp;
use npstream::SourceSpec;
use packetbench::apps::AppId;
use packetbench::engine::Engine;
use packetbench::framework::Detail;
use packetbench::live::{LiveConfig, OnFull};
use packetbench::stream::StreamConfig;

const GOLDEN_TIMELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/timeline_radix_mra.json"
);

const PACKETS: usize = 40;
const SEED: u64 = 42;

fn spec() -> TimelineSpec {
    TimelineSpec::logical().every(8)
}

fn packets() -> Vec<Packet> {
    SyntheticTrace::new(TraceProfile::mra(), SEED).take_packets(PACKETS)
}

fn run_json(threads: usize) -> String {
    let run = Engine::new(AppId::Ipv4Radix)
        .timeline(Some(spec()))
        .run(&packets(), Detail::counts(), threads)
        .unwrap();
    let stamp = Stamp::deterministic(TIMELINE_SCHEMA_VERSION);
    run.timeline.unwrap().to_json(&stamp, "radix", "MRA")
}

fn stream_json(threads: usize, chunk_size: usize) -> String {
    let source = Limited::new(
        SyntheticTrace::new(TraceProfile::mra(), SEED),
        PACKETS as u64,
    );
    let run = Engine::new(AppId::Ipv4Radix)
        .timeline(Some(spec()))
        .run_streaming(
            source,
            Detail::counts(),
            StreamConfig {
                threads,
                chunk_size,
                max_inflight: 2,
            },
        )
        .unwrap();
    let stamp = Stamp::deterministic(TIMELINE_SCHEMA_VERSION);
    run.timeline.unwrap().to_json(&stamp, "radix", "MRA")
}

fn live_json(threads: usize) -> String {
    let source = SourceSpec::parse(&format!("synth:mra:seed={SEED}:packets={PACKETS}")).unwrap();
    let config = LiveConfig {
        threads,
        on_full: OnFull::Wait,
        ..LiveConfig::default()
    };
    let run = Engine::new(AppId::Ipv4Radix)
        .timeline(Some(spec()))
        .run_live(&source, Detail::counts(), config)
        .unwrap();
    let stamp = Stamp::deterministic(TIMELINE_SCHEMA_VERSION);
    run.timeline.unwrap().to_json(&stamp, "radix", "MRA")
}

fn check_golden(path: &str, current: &str, what: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{path} missing; run with UPDATE_GOLDEN=1 to create"));
    assert!(
        golden == current,
        "{what} drifted from the golden fixture \
         (UPDATE_GOLDEN=1 to bless an intentional change).\n\
         --- golden ---\n{golden}\n--- current ---\n{current}"
    );
}

#[test]
fn deterministic_timeline_matches_golden_fixture() {
    check_golden(GOLDEN_TIMELINE, &run_json(1), "deterministic timeline JSON");
}

#[test]
fn deterministic_timeline_is_byte_identical_across_thread_counts() {
    let serial = run_json(1);
    for threads in [4, 7] {
        assert_eq!(
            serial,
            run_json(threads),
            "batch timeline differs at {threads} threads"
        );
    }
}

#[test]
fn streaming_timeline_matches_batch_at_every_shape() {
    // The same trace through the streaming pipeline, and through live
    // ingestion with zero drops, must produce the exact bytes the batch
    // engine produced — at any thread count and chunk size (the fixture
    // is shared).
    let batch = run_json(1);
    for threads in [1, 4, 7] {
        for chunk_size in [1, 7, 64] {
            assert_eq!(
                batch,
                stream_json(threads, chunk_size),
                "stream timeline differs at threads={threads} chunk_size={chunk_size}"
            );
        }
        assert_eq!(
            batch,
            live_json(threads),
            "live timeline differs at threads={threads}"
        );
    }
}

#[test]
fn wall_timeline_covers_the_stream_pipeline() {
    let source = Limited::new(SyntheticTrace::new(TraceProfile::mra(), SEED), 300);
    let threads = 3;
    let run = Engine::new(AppId::Ipv4Radix)
        .timeline(Some(TimelineSpec::wall().every(16)))
        .run_streaming(
            source,
            Detail::counts(),
            StreamConfig {
                threads,
                chunk_size: 32,
                max_inflight: 2,
            },
        )
        .unwrap();
    let timeline = run.timeline.unwrap();
    assert!(!timeline.deterministic);
    assert_eq!(timeline.workers, threads);
    // Lanes: workers 0..threads, reader = threads, merger = threads + 1.
    for s in &timeline.samples {
        assert!(s.lane <= threads + 1, "lane {} out of range", s.lane);
    }
    assert!(
        timeline.samples.iter().any(|s| s.lane < threads),
        "no worker samples"
    );
    let stages: Vec<Stage> = timeline.spans.iter().map(|s| s.stage).collect();
    assert!(stages.contains(&Stage::Read), "no reader spans");
    assert!(stages.contains(&Stage::Exec), "no exec spans");
    assert!(stages.contains(&Stage::Merge), "no merge spans");
    // Spans arrive sorted by start time; chunk ids cover dispatch order.
    assert!(timeline
        .spans
        .windows(2)
        .all(|w| w[0].start_ns <= w[1].start_ns));
    let trace = timeline.to_chrome_trace("radix", "stream");
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    assert!(trace.contains("\"name\": \"merger\""));
    assert!(trace.contains("\"name\": \"reader\""));
}
