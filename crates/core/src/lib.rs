//! # packetbench — per-packet workload characterization for network
//! processing
//!
//! A Rust reproduction of **PacketBench** (Ramaswamy, Weng, Wolf:
//! *Analysis of Network Processing Workloads*, ISPASS 2005): a framework
//! for implementing packet-processing applications and collecting
//! detailed, *per-packet* workload statistics by running them on an
//! instruction-level processor simulator.
//!
//! ## Architecture (paper Fig. 2)
//!
//! * the **framework** ([`framework::PacketBench`]) reads packets from a
//!   trace, places them into simulated packet memory, invokes the
//!   application once per packet, and implements the API's framework side
//!   (`send`, `drop`, `write_packet_to_file`) as host-side `sys` handlers;
//! * the **applications** ([`apps`]) are the paper's four header-processing
//!   workloads — IPv4-radix, IPv4-trie, Flow Classification, and TSA —
//!   written in NP32 assembly and assembled at load time;
//! * the **selective accounting** of the paper falls out of the design:
//!   only application instructions execute on the simulated CPU (the
//!   framework and `init()` run on the host), so every statistic reflects
//!   application work alone;
//! * the **analysis** layer ([`analysis`]) turns per-packet run records
//!   into the paper's statistics: processing complexity, packet vs.
//!   non-packet memory accesses, memory coverage, instruction-count
//!   histograms, basic-block execution probabilities, packet-coverage
//!   curves, instruction patterns, and memory access sequences.
//!
//! ## Quickstart
//!
//! ```
//! use packetbench::apps::{App, AppId};
//! use packetbench::framework::{Detail, PacketBench};
//! use packetbench::config::WorkloadConfig;
//! use nettrace::synth::{SyntheticTrace, TraceProfile};
//!
//! let config = WorkloadConfig::default();
//! let app = App::build(AppId::Ipv4Trie, &config)?;
//! let mut bench = PacketBench::new(app)?;
//! let mut trace = SyntheticTrace::new(TraceProfile::mra(), 1);
//! let record = bench.process_packet(&trace.next_packet(), Detail::counts())?;
//! assert!(record.stats.instret > 0);
//! # Ok::<(), packetbench::BenchError>(())
//! ```

pub mod analysis;
pub mod apps;
pub mod config;
pub mod conform;
pub mod engine;
pub mod error;
pub mod framework;
mod lane;
pub mod live;
pub mod profile;
pub mod report;
pub mod stream;

pub use apps::{App, AppId};
pub use config::WorkloadConfig;
pub use engine::{Engine, EngineRun, WorkerMetrics};
pub use error::BenchError;
pub use framework::{Detail, MemoMode, MemoRefusal, PacketBench, PacketRecord, Verdict};
pub use live::{LiveConfig, LiveRun, OnFull};
pub use profile::{run_profile, ProfileResult, ProfileSpec};
pub use stream::{StreamConfig, StreamRun};
