//! What the ledger measures: the workloads, the `pb` commands each one
//! runs, and the metrics it reports. `BENCHMARK.json` at the repository
//! root declares the same names, units and bounds; a test keeps the two
//! in step.

use nettrace::synth::TraceProfile;
use packetbench::AppId;

/// The seed used when `--seed` is absent (the paper's ISPASS date).
pub const DEFAULT_SEED: u64 = 20_050_320;

/// The generated pcap a workload's commands read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The reuse-free MRA backbone profile: no packet repeats.
    Mra,
    /// The `zipf` profile: 1024 frozen flows under a Zipf law (s = 1.0).
    Zipf,
}

impl Input {
    pub fn name(self) -> &'static str {
        match self {
            Input::Mra => "mra",
            Input::Zipf => "zipf",
        }
    }

    pub fn profile(self) -> TraceProfile {
        match self {
            Input::Mra => TraceProfile::mra(),
            Input::Zipf => TraceProfile::zipf(),
        }
    }
}

/// Which `pb` subcommand (and so which engine driver) a command runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Run,
    Stream,
    Live,
}

/// One `pb` invocation of a workload, always with `--threads 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    pub driver: Driver,
    pub app: AppId,
    pub packets: usize,
    pub memo: bool,
}

impl Command {
    const fn new(driver: Driver, app: AppId, packets: usize, memo: bool) -> Command {
        Command {
            driver,
            app,
            packets,
            memo,
        }
    }

    /// A short name for tables and CSV rows, e.g. `run radix memo`.
    pub fn label(&self) -> String {
        let driver = match self.driver {
            Driver::Run => "run",
            Driver::Stream => "stream",
            Driver::Live => "live",
        };
        let memo = if self.memo { " memo" } else { "" };
        format!("{driver} {}{memo}", self.app.slug())
    }

    /// Threads the command keeps busy at once: `pb run --threads 1` reads
    /// its input, then works it in one; `pb stream` reads while a worker
    /// works, and `pb live` produces while a worker consumes.
    pub fn threads(&self) -> usize {
        match self.driver {
            Driver::Run => 1,
            Driver::Stream | Driver::Live => 2,
        }
    }

    /// The `pb` arguments for the first `packets` packets of `pcap`.
    pub fn args(&self, pcap: &str, packets: usize) -> Vec<String> {
        let app = self.app.slug();
        let mut args: Vec<&str> = match self.driver {
            Driver::Run => vec!["run", "--app", app, "--pcap", pcap],
            Driver::Stream => vec!["stream", app, pcap],
            Driver::Live => vec!["live", app, pcap, "--on-full", "wait"],
        };
        args.extend(["--threads", "1"]);
        if self.memo {
            args.extend(["--memo", "on"]);
        }
        let mut args: Vec<String> = args.into_iter().map(str::to_string).collect();
        args.extend(["-n".to_string(), packets.to_string()]);
        args
    }
}

/// A named set of commands over one generated input.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    pub commands: &'static [Command],
}

impl Workload {
    /// Packets the generated input must hold: the longest command's prefix.
    pub fn input_packets(&self) -> usize {
        self.commands.iter().map(|c| c.packets).max().unwrap_or(1)
    }
}

use AppId::{FlowClass, IpsecEnc, Ipv4Radix, Ipv4Trie, Tsa};
use Driver::{Live, Run, Stream};

/// The five workloads. Each has two or three commands of similar length,
/// so a slowdown of one command moves its workload's `pps` by a half or a
/// third of it. Packet counts keep every invocation between about 0.1 and
/// 0.2 s on a 2-vCPU host, so a run of `--seconds 20` repeats each command
/// 40-60 times: the host's noise is mostly per invocation, so a run's
/// median steadies with the number of invocations more than with their
/// length.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hdr",
        why: "short header programs (~180-210 instructions per packet) through pb run: \
              framework fixed cost, pcap input and the batch driver's retained records dominate \
              outside the interpreter",
        input: Input::Mra,
        commands: &[
            Command::new(Run, Ipv4Trie, 50_000, false),
            Command::new(Run, FlowClass, 50_000, false),
        ],
    },
    Workload {
        name: "transport",
        why: "trie through pb stream and pb live: the chunk queue and the ingestion ring carry \
              every packet in flat memory, so transport cost and footprint show undiluted",
        input: Input::Mra,
        commands: &[
            Command::new(Stream, Ipv4Trie, 50_000, false),
            Command::new(Live, Ipv4Trie, 50_000, false),
        ],
    },
    Workload {
        name: "loops",
        why: "loop-heavy programs (radix backtracking, TSA, XTEA over 40-1500 B packets): block \
              and trace interpretation is nearly all host time and setup is largest",
        input: Input::Mra,
        commands: &[
            Command::new(Run, Ipv4Radix, 8_000, false),
            Command::new(Run, Tsa, 30_000, false),
            Command::new(Run, IpsecEnc, 6_000, false),
        ],
    },
    Workload {
        name: "memo-hit",
        why: "zipf traffic over 1024 flows: about 95% of packets hit the memo cache and skip \
              simulation, so the memo probe, input and batch driver dominate",
        input: Input::Zipf,
        commands: &[
            Command::new(Run, Ipv4Radix, 50_000, true),
            Command::new(Run, Ipv4Trie, 150_000, true),
        ],
    },
    Workload {
        name: "memo-miss",
        why: "the memo apps on reuse-free traffic: every packet probes, misses, inserts and \
              evicts, so a memo change that speeds hits by slowing inserts shows here",
        input: Input::Mra,
        commands: &[
            Command::new(Run, Ipv4Radix, 6_000, true),
            Command::new(Run, Ipv4Trie, 35_000, true),
        ],
    },
];

/// An end-to-end metric: what a user of `pb` sees.
///
/// * `setup_s`: over the workload's commands, the sum of the median CPU
///   seconds of the command run with `-n 1`;
/// * `pps`: the workload's packets over the sum of its commands' median
///   wall seconds (each command's own `pps` is in `summary.json`);
/// * `peak_rss_mb`: the largest `ru_maxrss` among the workload's `pb`
///   invocations.
///
/// The bounds come from ten-seed sets on a shared 2-vCPU host. `pps`
/// spread (interquartile range over median) was 2-6% while the host was
/// calm and 7-17% while it was busy; its bound is about twice the busy
/// spread. `peak_rss_mb` spread was under 1.5%, except 4% on `memo-hit`,
/// whose zipf inputs differ in bytes by seed. `setup_s` spread was 2-4%;
/// as set-up time it has the largest bound.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "pps",
        unit: "packets/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.08,
    },
];

/// A per-layer metric from the traced pass (name, unit). Per-packet
/// values are means over the workload's commands weighted by their
/// packet counts; `layers.csv` keeps the per-application values. The bare
/// transports are per item handed over: `npstream.queue_ns` per chunk,
/// `npring.ring_ns` per packet.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("apps.build_ms", "ms"),
    ("bblock.predecode_ms", "ms"),
    ("framework.init_ms", "ms"),
    ("process.spawn_ms", "ms"),
    ("nettrace.pcap_read_ns", "ns"),
    ("framework.packet_ns", "ns"),
    ("framework.packet_ns.p50", "ns"),
    ("framework.packet_ns.p99", "ns"),
    ("framework.overhead_ns", "ns"),
    ("mem.stage_ns", "ns"),
    ("cpu.new_ns", "ns"),
    ("cpu.reset_ns", "ns"),
    ("cpu.counts_ns", "ns"),
    ("cpu.block_ns", "ns"),
    ("cpu.trace_ns", "ns"),
    ("cpu.ns_per_inst", "ns/inst"),
    ("cpu.inst_per_pkt", "inst"),
    ("trace.trip_ratio", "ratio"),
    ("bblock.bailouts_per_pkt", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.delta_ns", "ns"),
    ("memo.evictions_per_kpkt", "count"),
    ("engine.driver_ns", "ns"),
    ("engine.rss_bytes_per_pkt", "B"),
    ("engine.fault_ns", "ns"),
    ("stream.driver_ns", "ns"),
    ("stream.worker_idle_frac", "ratio"),
    ("npstream.queue_ns", "ns"),
    ("live.driver_ns", "ns"),
    ("live.worker_idle_frac", "ratio"),
    ("npring.ring_ns", "ns"),
    ("framework.verify_ns", "ns"),
    ("analysis.fold_ns", "ns"),
    ("report.render_us", "us"),
    ("host.calib_s", "s"),
    ("layers.coverage", "ratio"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Whether a unit measures host time (and so is normalized by the
/// calibration kernel).
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns" | "ns/inst")
}
