//! Reading a packet allocates nothing in steady state.
//!
//! The one-thread stream driver refills its chunk's packet slots and the
//! live producer reads into one scratch packet (`PacketSource::next_into`),
//! so once those buffers have grown, a packet costs no heap allocation
//! from source to retire. A counting global allocator checks it: a run of
//! `LONG` packets may allocate only a little more than a run of `SHORT`,
//! whatever the driver, the source or the application.
//!
//! The counter is process-wide and `cargo test` runs tests on parallel
//! threads, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicU64, Ordering};

use nettrace::pcap::PcapWriter;
use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::Limited;
use npstream::SourceSpec;
use packetbench::{AppId, Detail, Engine, LiveConfig, MemoMode, OnFull, StreamConfig};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 2005_0320;
const SHORT: u64 = 16_000;
const LONG: u64 = 48_000;
/// Allowed allocations for the `LONG - SHORT` extra packets: one per 32
/// packets. Allocating per packet costs at least one each.
const BUDGET: u64 = (LONG - SHORT) / 32;

/// The two drivers that read through `PacketSource::next_into`.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// `Engine::run_streaming` at one thread (`pb run`, `pb stream`).
    Stream,
    /// `Engine::run_live` at one thread, waiting on a full pool.
    Live,
}

/// Allocations made by one `n`-packet run of `spec` on `driver`.
fn allocations(engine: &Engine, driver: Driver, spec: &SourceSpec, n: u64) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let packets = match driver {
        Driver::Stream => {
            let config = StreamConfig {
                threads: 1,
                ..StreamConfig::default()
            };
            let source = Limited::new(spec.open().unwrap(), n);
            let run = engine.run_streaming(source, Detail::counts(), config);
            run.unwrap().packets()
        }
        Driver::Live => {
            let config = LiveConfig {
                threads: 1,
                on_full: OnFull::Wait,
                cap: Some(n),
                ..LiveConfig::default()
            };
            let run = engine.run_live(spec, Detail::counts(), config);
            run.unwrap().packets()
        }
    };
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(packets, n, "{driver:?}");
    made
}

/// Writes `LONG` packets of `profile` as a pcap file and returns its spec.
fn pcap_spec(profile: TraceProfile) -> SourceSpec {
    let path = std::env::temp_dir().join(format!(
        "steady_state_alloc_{}_{}.pcap",
        std::process::id(),
        profile.name
    ));
    let file = BufWriter::new(File::create(&path).unwrap());
    let mut writer = PcapWriter::new(file, profile.link, 65535).unwrap();
    for packet in SyntheticTrace::new(profile, SEED).take(LONG as usize) {
        writer.write_packet(&packet).unwrap();
    }
    writer.into_inner().unwrap();
    SourceSpec::Pcap(path)
}

#[test]
fn reading_a_packet_allocates_nothing_in_steady_state() {
    let sources = [
        ("zipf pcap", pcap_spec(TraceProfile::zipf()), MemoMode::On),
        ("MRA pcap", pcap_spec(TraceProfile::mra()), MemoMode::Off),
        (
            "synth:zipf",
            SourceSpec::Synth {
                profile: TraceProfile::zipf(),
                seed: SEED,
                packets: None,
            },
            MemoMode::On,
        ),
    ];
    let mut over_budget = Vec::new();
    for (name, spec, memo) in &sources {
        for app in [AppId::Ipv4Trie, AppId::Ipv4Radix] {
            let engine = Engine::new(app).memo(*memo);
            for driver in [Driver::Stream, Driver::Live] {
                let short = allocations(&engine, driver, spec, SHORT);
                let long = allocations(&engine, driver, spec, LONG);
                let extra = long.saturating_sub(short);
                let row = format!(
                    "{driver:?} {} {name} memo {memo:?}: {extra} allocations for {} more \
                     packets ({:.4} per packet)",
                    app.name(),
                    LONG - SHORT,
                    extra as f64 / (LONG - SHORT) as f64
                );
                eprintln!("{row}");
                if extra >= BUDGET {
                    over_budget.push(row);
                }
            }
        }
    }
    for (_, spec, _) in &sources {
        if let SourceSpec::Pcap(path) = spec {
            let _ = std::fs::remove_file(path);
        }
    }
    assert!(
        over_budget.is_empty(),
        "allocations grow with packets (budget {BUDGET}):\n{}",
        over_budget.join("\n")
    );
}
