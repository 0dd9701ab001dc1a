//! `pb` — the PacketBench command-line tool.
//!
//! ```text
//! pb apps                          list applications
//! pb traces                        list trace profiles
//! pb disasm --app <app>            disassemble an application
//! pb run --app <app> [--trace <profile> | --pcap <file>] [-n <packets>]
//!        [--verify] [--uarch] [--seed <n>] [--threads <n>] [--progress]
//!        [--memo on|off|check] [--trace-out <f>]
//!        [--timeline-out <f>] [--timeline-interval <n>] [--deterministic]
//! pb stream <app> <source> [--threads <n>] [--chunk-size <n>]
//!           [--max-inflight <n>] [-n <packets>] [--verify] [--uarch]
//!           [--progress] [--memo on|off|check]
//!           [--trace-out <f>] [--timeline-out <f>] [--timeline-interval <n>]
//!           [--deterministic]
//! pb live <app> <source> [--threads <n>] [--ring <slots>] [--burst <n>]
//!         [--rate <pps>|max] [--loops <n>] [--on-full drop|wait]
//!         [-n <packets>] [--verify] [--uarch] [--progress]
//!         [--memo on|off|check] [--metrics-out <f>] [--metrics-format json|prom]
//!         [--trace-out <f>] [--timeline-out <f>] [--timeline-interval <n>]
//!         [--deterministic]
//! pb profile <app> <trace> [-n <packets>] [--seed <n>] [--threads <n>]
//!           [--progress] [--metrics-out <f> [--metrics-format json|prom]
//!           [--deterministic]]
//! pb conform [--corpus <n>] [--seed <n>] [--threads <n>] [--repro <file.s>]
//! pb anonymize <in.pcap> <out.pcap> [--seed <n>]
//! ```
//!
//! A subcommand takes exactly the options and flags its usage names;
//! anything else is a usage error. Exit codes: 0 success, 1 runtime
//! failure (simulation fault, I/O, conformance divergence), 2 usage error
//! (usage goes to stderr).

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use nettrace::pcap::{PcapReader, PcapWriter};
use nettrace::synth::TraceProfile;
use nettrace::{Limited, PacketSource};
use npobs::timeline::{Timeline, TimelineSpec, TIMELINE_SCHEMA_VERSION};
use npobs::{MetricsDoc, Stamp, StatusLine};
use npring::RateSpec;
use npstream::SourceSpec;
use packetbench::apps::{App, AppId};
use packetbench::engine::Engine;
use packetbench::framework::{Detail, MemoMode};
use packetbench::live::{LiveConfig, OnFull};
use packetbench::profile::{run_profile, ProfileSpec};
use packetbench::stream::StreamConfig;
use packetbench::{report, WorkerMetrics, WorkloadConfig};

/// CLI failures, split by exit code: usage errors print the usage text to
/// stderr and exit 2; runtime errors print one line and exit 1.
enum CliError {
    Usage(String),
    Run(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Run(message)
    }
}

fn usage_err<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("pb: {message}");
            eprintln!();
            eprintln!("{}", usage_text());
            ExitCode::from(2)
        }
        Err(CliError::Run(message)) => {
            eprintln!("pb: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses `--name value` (or `-name value`), or returns `default`
    /// when the option is absent. Unparsable values are usage errors.
    fn parse_opt<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(parsed) => Ok(parsed),
                Err(_) => usage_err(format!("bad --{name} value `{v}`")),
            },
        }
    }
}

/// A subcommand: its handler, then the options (which take a value) and
/// the flags its usage text names, space-separated. `--help` goes with
/// every subcommand.
type Subcommand = (
    fn(&Args) -> Result<(), CliError>,
    &'static str,
    &'static str,
);

fn subcommand(name: &str) -> Option<Subcommand> {
    const DRIVER_FLAGS: &str = "verify uarch progress deterministic";
    Some(match name {
        "apps" => (|_| cmd_apps(), "", ""),
        "traces" => (|_| cmd_traces(), "", ""),
        "disasm" => (cmd_disasm, "app", ""),
        "run" => (
            cmd_run,
            "app trace pcap n seed threads memo trace-out timeline-out timeline-interval",
            DRIVER_FLAGS,
        ),
        "stream" => (
            cmd_stream,
            "threads chunk-size max-inflight n memo trace-out timeline-out timeline-interval",
            DRIVER_FLAGS,
        ),
        "live" => (
            cmd_live,
            "threads ring burst rate loops on-full n memo metrics-out metrics-format \
             trace-out timeline-out timeline-interval",
            DRIVER_FLAGS,
        ),
        "profile" => (
            cmd_profile,
            "n seed threads metrics-out metrics-format",
            "progress deterministic",
        ),
        "conform" => (cmd_conform, "corpus seed threads repro", ""),
        "anonymize" => (cmd_anonymize, "seed", ""),
        _ => return None,
    })
}

/// Splits `raw` into positionals, `--name value` (or `-name value`)
/// options and flags, rejecting any name `pb <command>` does not take.
fn parse_args(command: &str, raw: &[String], options: &str, flags: &str) -> Result<Args, CliError> {
    let mut args = Args {
        positional: Vec::new(),
        options: HashMap::new(),
        flags: Vec::new(),
    };
    let takes = |list: &str, name: &str| list.split_whitespace().any(|n| n == name);
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        match a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            Some(name) if name == "help" || takes(flags, name) => {
                args.flags.push(name.to_string());
            }
            Some(name) if takes(options, name) => {
                let Some(value) = raw.get(i + 1) else {
                    return usage_err(format!("{a} needs a value"));
                };
                args.options.insert(name.to_string(), value.clone());
                i += 1;
            }
            Some(_) => return usage_err(format!("{command} does not take {a}")),
            None => args.positional.push(a.clone()),
        }
        i += 1;
    }
    Ok(args)
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        return usage_err("missing command");
    };
    if command == "--help" || command == "help" {
        println!("{}", usage_text());
        return Ok(());
    }
    let Some((handler, options, flags)) = subcommand(&command) else {
        return usage_err(format!("unknown command `{command}`"));
    };
    let args = parse_args(&command, &raw[1..], options, flags)?;
    if args.flag("help") {
        println!("{}", usage_text());
        return Ok(());
    }
    handler(&args)
}

fn usage_text() -> &'static str {
    "pb — PacketBench workload characterization

USAGE:
  pb apps                          list applications
  pb traces                        list trace profiles
  pb disasm --app <app>            disassemble an application
  pb run --app <app> [--trace <profile> | --pcap <file>] [-n <packets>]
         [--verify] [--uarch] [--seed <n>] [--threads <n>] [--progress]
         [--memo on|off|check] [--trace-out <file>]
         [--timeline-out <file>] [--timeline-interval <n>] [--deterministic]
  pb stream <app> <source> [--threads <n>] [--chunk-size <n>]
            [--max-inflight <n>] [-n <packets>] [--verify] [--uarch]
            [--progress] [--memo on|off|check] [--trace-out <file>]
            [--timeline-out <file>] [--timeline-interval <n>] [--deterministic]
  pb live <app> <source> [--threads <n>] [--ring <slots>] [--burst <n>]
          [--rate <pps>|max] [--loops <n>] [--on-full drop|wait]
          [-n <packets>] [--verify] [--uarch] [--progress]
          [--memo on|off|check] [--metrics-out <file>]
          [--metrics-format json|prom] [--trace-out <file>]
          [--timeline-out <file>] [--timeline-interval <n>] [--deterministic]
  pb profile <app> <trace> [-n <packets>] [--seed <n>] [--threads <n>]
             [--progress] [--metrics-out <file> [--metrics-format json|prom]
             [--deterministic]]
  pb conform [--corpus <n>] [--seed <n>] [--threads <n>] [--repro <file.s>]
  pb anonymize <in.pcap> <out.pcap> [--seed <n>]

`pb run --threads 0` (the default) uses all available cores; statistics
are bit-identical at every thread count. `pb run` streams its source
like `pb stream` below (one thread runs inline, one chunk resident), so
memory stays flat at any -n.

`pb stream` processes a source in bounded memory: packets flow through
fixed-capacity chunk queues (reader -> shard workers), each worker folds
its chunks into an online aggregate, and the folds merge at the end, so
a multi-gigabyte trace streams in a few megabytes of RAM. The source is a pcap/tsh path or a synthetic spec
like `synth:mra:seed=42:packets=10000000`. The report on stdout is
byte-identical to `pb run` over the same packets at any --threads and
--chunk-size; timing goes to stderr.

`pb live` replays a source through per-worker lock-free ingestion rings
(a zero-copy mbuf pool per lane) in run-to-completion mode: the producer
offers packets — optionally paced with `--rate <pps>` and looped with
`--loops` — and when a lane's pool is full the packet is *dropped* and
counted (`--on-full drop`, the default) instead of stalling the
producer; `--on-full wait` applies backpressure instead for a
deterministic zero-drop replay. The stderr line
`live: produced N dropped N retired N` satisfies
`produced == dropped + retired` exactly, and with zero drops the stdout
report is byte-identical to `pb run` over the same source at any
--threads. --metrics-out exports the stamped metrics document with the
ring section (drop counters, occupancy and burst-size histograms);
--deterministic pins it as it pins `pb profile`'s: stamp, run time,
worker busy/idle time and the occupancy and burst-size histograms, which
vary with thread timing, are cleared, and every counter stays, so under
`--on-full wait` two runs write the same bytes.

`pb profile` runs the zero-cost instrumentation layer: per-packet log2
histograms (instructions, packet vs. non-packet memory, basic blocks)
plus a basic-block heat map, the hottest block-successor edges, and
dominant-successor chains, rendered as tables and flamegraph-collapsed
lines. Output is byte-identical at every thread count for a fixed
app/trace/seed. --metrics-out writes the same profile as a stamped JSON
document (--metrics-format prom: Prometheus text format) carrying the
schema version, git commit and an ISO-8601 timestamp; --deterministic
pins the stamp and zeroes timing fields so the document can be diffed
against fixtures.

Unobserved counts-only runs (`pb run`, `stream`, `live`) execute on the
hot-trace engine: after a short warm-up the simulator chains hot
superblocks into fused traces (one combined statistics delta per trip,
one guard per internal branch), bit-identical to every other path.
Per-worker trace-cache counters (traces formed, trips, guard exits,
budget declines) ride in the exported metrics document (`pb_trace_*`)
and on the --progress line; profiled runs stay block-granular so heat
maps are unchanged.

In-flight telemetry (run, stream and live): --timeline-out samples
per-lane counters (packets, pps, queue depth, backpressure wait, busy
time, memo traffic, superblock bail-outs) into a stamped JSON time
series; --trace-out writes the same run as a Chrome trace-event file
with one named track per pipeline lane (workers, reader or producer,
merger) — load it in ui.perfetto.dev or chrome://tracing.
--timeline-interval sets the sample spacing in packets. --progress
refreshes a packets/pps status line on stderr about once a second, in
place on a terminal. With --deterministic, samples are keyed on logical
time (packets retired in trace order) instead of the wall clock, so the
timeline is byte-identical at any thread count. Runs without these
flags carry zero telemetry cost.

`--memo on` enables per-worker flow memoization: results for repeated
flows are answered from a cache keyed on the header bytes the
application reads, skipping simulation entirely. A static write
analysis proves which applications are safe to memoize (radix and
trie); stateful or writing applications bypass the cache automatically,
and the `memo:` line on stderr says why. Reports are bit-identical to
`--memo off`. `--memo check` always simulates and asserts every cached
result matches the live run — the soundness debug mode. Try it on the
`zipf` trace profile, which models a fixed flow population under a Zipf
popularity law.

`pb conform` differentially tests the optimized simulator against a
reference interpreter: a seeded corpus of random programs plus all five
applications, across the full-detail, counts-only, superblock,
hot-trace, multi-threaded, and memoization-replay paths. On divergence
it exits nonzero and writes a minimized repro to the --repro path
(default conform_repro.s).

Exit codes: 0 success, 1 runtime failure, 2 usage error."
}

fn cmd_apps() -> Result<(), CliError> {
    println!("{:<10} {:<22} description", "slug", "name");
    for id in AppId::WITH_EXTENSIONS {
        let what = match id {
            AppId::Ipv4Radix => "RFC1812 forwarding, BSD-style radix lookup (unoptimized)",
            AppId::Ipv4Trie => "RFC1812 forwarding, LC-trie lookup (optimized)",
            AppId::FlowClass => "5-tuple flow classification, chained hash table",
            AppId::Tsa => "prefix-preserving anonymization + header collection",
            AppId::IpsecEnc => "XTEA payload encryption (payload-processing extension)",
        };
        println!("{:<10} {:<22} {what}", id.slug(), id.name());
    }
    Ok(())
}

fn cmd_traces() -> Result<(), CliError> {
    println!(
        "{:<6} {:<20} {:>12} {:>10} {:>10}",
        "name", "type", "packets", "flows", "new-flow%"
    );
    for p in TraceProfile::all()
        .into_iter()
        .chain([TraceProfile::zipf()])
    {
        println!(
            "{:<6} {:<20} {:>12} {:>10} {:>9.1}%",
            p.name,
            p.link_description(),
            p.nominal_packets,
            p.max_flows,
            p.new_flow_prob * 100.0
        );
    }
    println!(
        "\n`zipf` replays a fixed flow population under a Zipf popularity law\n\
         (synthetic flow reuse for memoization studies; configure it in stream\n\
         specs with `:flows=<n>:skew=<s>`). The four paper traces are reuse-free."
    );
    Ok(())
}

fn app_from(args: &Args) -> Result<AppId, CliError> {
    let Some(name) = args.options.get("app") else {
        return usage_err("missing --app (see `pb apps`)");
    };
    match AppId::by_name(name) {
        Some(id) => Ok(id),
        None => usage_err(format!("unknown application `{name}`")),
    }
}

/// Parses `--memo on|off|check` (default off).
fn memo_from(args: &Args) -> Result<MemoMode, CliError> {
    match args.options.get("memo") {
        None => Ok(MemoMode::Off),
        Some(v) => match MemoMode::parse(v) {
            Some(mode) => Ok(mode),
            None => usage_err(format!("bad --memo value `{v}` (on|off|check)")),
        },
    }
}

/// One stderr line summarizing per-worker memoization traffic, or saying
/// why the cache stayed off. Printed only when memoization was requested,
/// so default runs are unchanged. Routed through the run's shared
/// [`StatusLine`] so it cannot interleave with an in-flight `--progress`
/// line.
fn report_memo(
    memo: MemoMode,
    id: AppId,
    workers: &[WorkerMetrics],
    status: &StatusLine,
) -> Result<(), CliError> {
    if memo == MemoMode::Off {
        return Ok(());
    }
    let sum = |counter: fn(&WorkerMetrics) -> u64| workers.iter().map(counter).sum::<u64>();
    let (hits, misses) = (sum(|w| w.memo_hits), sum(|w| w.memo_misses));
    let total = hits + misses;
    let line = if total > 0 {
        format!(
            "{hits} hits / {misses} misses ({:.1}% hit rate, {} evictions)",
            hits as f64 / total as f64 * 100.0,
            sum(|w| w.memo_evictions)
        )
    } else if sum(|w| w.packets) == 0 {
        "inactive (no packets)".to_string()
    } else {
        // Packets ran but none consulted a cache: the application was
        // refused, or the cache serves only counts-only runs and
        // `--uarch` asks for more.
        let app = App::build(id, &WorkloadConfig::default()).map_err(|e| e.to_string())?;
        match app.memo_key_len() {
            Err(why) => format!("inactive ({why})"),
            Ok(_) => "inactive (--uarch runs are never memoized)".to_string(),
        }
    };
    status.emit(&format!("memo:                   {line}"));
    Ok(())
}

/// The in-flight telemetry outputs requested on `pb run`/`pb stream`:
/// the sampler spec (`None` when no sampling was asked for — the engine
/// then carries zero telemetry cost) and where to write the results.
struct TimelineOpts {
    spec: Option<TimelineSpec>,
    trace_out: Option<String>,
    timeline_out: Option<String>,
    deterministic: bool,
}

fn timeline_opts(args: &Args) -> Result<TimelineOpts, CliError> {
    let trace_out = args.options.get("trace-out").cloned();
    let timeline_out = args.options.get("timeline-out").cloned();
    let deterministic = args.flag("deterministic");
    let interval: u64 = args.parse_opt("timeline-interval", 0)?;
    if interval == 0 && args.options.contains_key("timeline-interval") {
        return usage_err("--timeline-interval must be at least 1");
    }
    if deterministic && trace_out.is_some() {
        return usage_err(
            "--trace-out records wall-clock spans, which --deterministic replaces \
             with logical time; drop one of the two",
        );
    }
    let wanted = trace_out.is_some() || timeline_out.is_some() || interval > 0;
    let spec = wanted.then(|| {
        let base = if deterministic {
            TimelineSpec::logical()
        } else {
            TimelineSpec::wall()
        };
        if interval > 0 {
            base.every(interval)
        } else {
            base
        }
    });
    Ok(TimelineOpts {
        spec,
        trace_out,
        timeline_out,
        deterministic,
    })
}

/// A label safe to splice into the hand-rolled JSON/trace documents:
/// anything outside a conservative character set becomes `_` (pcap paths
/// can contain quotes or backslashes; source specs cannot, but this is
/// cheaper than auditing every caller).
fn json_safe_label(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || ":=_.-/".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes the requested timeline artifacts after a run.
fn write_timeline_outputs(
    opts: &TimelineOpts,
    timeline: Option<&Timeline>,
    app: AppId,
    trace: &str,
) -> Result<(), CliError> {
    let Some(timeline) = timeline else {
        return Ok(());
    };
    let trace = json_safe_label(trace);
    if let Some(path) = &opts.trace_out {
        let body = timeline.to_chrome_trace(app.slug(), &trace);
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("pb: wrote chrome trace to {path} (load in ui.perfetto.dev or chrome://tracing)");
    }
    if let Some(path) = &opts.timeline_out {
        let stamp = if opts.deterministic {
            Stamp::deterministic(TIMELINE_SCHEMA_VERSION)
        } else {
            Stamp::new(TIMELINE_SCHEMA_VERSION)
        };
        let body = timeline.to_json(&stamp, app.slug(), &trace);
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("pb: wrote timeline to {path}");
    }
    Ok(())
}

fn trace_profile(name: &str) -> Result<TraceProfile, CliError> {
    match TraceProfile::by_name(name) {
        Some(p) => Ok(p),
        None => usage_err(format!("unknown trace profile `{name}`")),
    }
}

fn cmd_disasm(args: &Args) -> Result<(), CliError> {
    let id = app_from(args)?;
    let app = App::build(id, &WorkloadConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "; {} — {} instructions",
        id.name(),
        app.image().program().len()
    );
    print!("{}", npasm::disassemble(app.image().program()));
    Ok(())
}

/// `pb run` is a front end to the streaming driver: `--pcap` or
/// `--trace`/`--seed` name the source, `-n` caps it, and packets are
/// folded as they are read, so no trace or per-packet record is held.
fn cmd_run(args: &Args) -> Result<(), CliError> {
    let id = app_from(args)?;
    let n: u64 = args.parse_opt("n", 1000)?;
    let seed: u64 = args.parse_opt("seed", 42)?;
    let threads: usize = args.parse_opt("threads", 0)?;
    let (spec, label) = match args.options.get("pcap") {
        Some(path) => (SourceSpec::Pcap(path.into()), format!("pcap:{path}")),
        None => {
            let name = args
                .options
                .get("trace")
                .map(String::as_str)
                .unwrap_or("MRA");
            let spec = SourceSpec::Synth {
                profile: trace_profile(name)?,
                seed,
                packets: None,
            };
            (spec, name.to_string())
        }
    };
    let config = StreamConfig {
        threads,
        ..StreamConfig::default()
    };
    stream_and_report(args, id, &spec, Some(n), config, &label)
}

/// Streams `spec` (capped at `limit` packets) through `id` and reports:
/// the deterministic aggregate on stdout — the same bytes from `pb run`,
/// `pb stream` and `pb live` — and timing, worker and memo telemetry on
/// stderr. `label` names the source in errors and timeline documents.
fn stream_and_report(
    args: &Args,
    id: AppId,
    spec: &SourceSpec,
    limit: Option<u64>,
    config: StreamConfig,
    label: &str,
) -> Result<(), CliError> {
    let verify = args.flag("verify");
    let uarch = args.flag("uarch");
    let detail = Detail {
        uarch,
        ..Detail::counts()
    };
    let memo = memo_from(args)?;
    let tl = timeline_opts(args)?;
    let source = spec.open().map_err(|e| format!("{label}: {e}"))?;
    let source: Box<dyn PacketSource + Send> = match limit {
        Some(n) => Box::new(Limited::new(source, n)),
        None => source,
    };
    let status = Arc::new(StatusLine::default());
    let engine = Engine::with_config(id, WorkloadConfig::default())
        .verify(verify)
        .progress(args.flag("progress"))
        .status(Arc::clone(&status))
        .timeline(tl.spec)
        .memo(memo);
    let run = engine
        .run_streaming(source, detail, config)
        .map_err(|e| e.to_string())?;

    print!(
        "{}",
        report::render_aggregate_report(id, &run.aggregate, uarch, verify)
    );
    eprintln!(
        "threads:                {} ({:.1} ms wall, {:.0} packets/sec, \
         chunk size {}, {} chunks, window {})",
        run.threads,
        run.elapsed.as_secs_f64() * 1e3,
        run.packets_per_sec(),
        run.chunk_size,
        run.chunks,
        run.max_inflight
    );
    if run.threads > 1 {
        eprint!("{}", report::render_worker_table(&run.workers));
    }
    // Peak RSS is the streaming driver's headline claim (bounded
    // memory); "unavailable" is an honest answer on platforms without
    // /proc/self/status, zero would be a lie.
    match run.peak_rss_kb {
        Some(kb) => eprintln!("peak rss:               {kb} kB"),
        None => eprintln!("peak rss:               unavailable on this platform"),
    }
    report_memo(memo, id, &run.workers, &status)?;
    write_timeline_outputs(&tl, run.timeline.as_ref(), id, label)?;
    Ok(())
}

fn cmd_stream(args: &Args) -> Result<(), CliError> {
    let [app_name, source_arg] = args.positional.as_slice() else {
        return usage_err("usage: pb stream <app> <source>");
    };
    let Some(id) = AppId::by_name(app_name) else {
        return usage_err(format!("unknown application `{app_name}`"));
    };

    // For streaming, 0 is never a meaningful value the user can ask for:
    // absent options mean "auto", explicit zeros are mistakes.
    let threads: usize = args.parse_opt("threads", 0)?;
    if threads == 0 && args.options.contains_key("threads") {
        return usage_err("--threads must be at least 1");
    }
    let chunk_size: usize = args.parse_opt("chunk-size", 0)?;
    if chunk_size == 0 && args.options.contains_key("chunk-size") {
        return usage_err("--chunk-size must be at least 1");
    }
    let max_inflight: usize = args.parse_opt("max-inflight", 0)?;
    if max_inflight == 0 && args.options.contains_key("max-inflight") {
        return usage_err("--max-inflight must be at least 1");
    }

    let spec = SourceSpec::parse(source_arg).map_err(|e| CliError::Usage(e.to_string()))?;
    let limit: Option<u64> = match args.options.get("n") {
        None => None,
        Some(_) => Some(args.parse_opt("n", 0u64)?),
    };
    if spec.is_unbounded() && limit.is_none() {
        return usage_err(format!(
            "source `{source_arg}` is unbounded: add `:packets=<n>` or `-n <packets>`"
        ));
    }
    let config = StreamConfig {
        threads,
        chunk_size,
        max_inflight,
    };
    stream_and_report(args, id, &spec, limit, config, source_arg)
}

fn cmd_live(args: &Args) -> Result<(), CliError> {
    let [app_name, source_arg] = args.positional.as_slice() else {
        return usage_err("usage: pb live <app> <source>");
    };
    let Some(id) = AppId::by_name(app_name) else {
        return usage_err(format!("unknown application `{app_name}`"));
    };
    let verify = args.flag("verify");
    let uarch = args.flag("uarch");

    // Absent options mean "auto"; explicit zeros are mistakes.
    let threads: usize = args.parse_opt("threads", 0)?;
    if threads == 0 && args.options.contains_key("threads") {
        return usage_err("--threads must be at least 1");
    }
    let ring: usize = args.parse_opt("ring", 0)?;
    if ring == 0 && args.options.contains_key("ring") {
        return usage_err("--ring must be at least 1");
    }
    let burst: usize = args.parse_opt("burst", 0)?;
    if burst == 0 && args.options.contains_key("burst") {
        return usage_err("--burst must be at least 1");
    }
    let loops: u64 = args.parse_opt("loops", 0)?;
    if loops == 0 && args.options.contains_key("loops") {
        return usage_err("--loops must be at least 1");
    }
    let rate = match args.options.get("rate") {
        None => RateSpec::Max,
        Some(v) => RateSpec::parse(v).map_err(|e| CliError::Usage(e.to_string()))?,
    };
    let on_full = match args.options.get("on-full") {
        None => OnFull::Drop,
        Some(v) => match OnFull::parse(v) {
            Some(policy) => policy,
            None => return usage_err(format!("bad --on-full value `{v}` (drop|wait)")),
        },
    };
    let metrics_out = MetricsOut::parse(args)?;

    let spec = SourceSpec::parse(source_arg).map_err(|e| CliError::Usage(e.to_string()))?;
    let cap: Option<u64> = match args.options.get("n") {
        None => None,
        Some(_) => Some(args.parse_opt("n", 0u64)?),
    };
    if spec.is_unbounded() && cap.is_none() {
        return usage_err(format!(
            "source `{source_arg}` is unbounded: add `:packets=<n>` or `-n <packets>`"
        ));
    }

    let detail = Detail {
        uarch,
        ..Detail::counts()
    };
    let memo = memo_from(args)?;
    let tl = timeline_opts(args)?;
    let status = Arc::new(StatusLine::default());
    let engine = Engine::with_config(id, WorkloadConfig::default())
        .verify(verify)
        .progress(args.flag("progress"))
        .status(Arc::clone(&status))
        .timeline(tl.spec)
        .memo(memo);
    let run = engine
        .run_live(
            &spec,
            detail,
            LiveConfig {
                threads,
                ring,
                burst,
                rate,
                loops,
                on_full,
                cap,
                metrics: metrics_out.is_some(),
            },
        )
        .map_err(|e| e.to_string())?;

    // The aggregate over retired packets goes to stdout in the shared
    // report format: with zero drops it is byte-identical to `pb run`
    // over the same source. Ingestion accounting goes to stderr.
    print!(
        "{}",
        report::render_aggregate_report(id, &run.aggregate, uarch, verify)
    );
    eprintln!(
        "threads:                {} ({:.1} ms wall, {:.0} packets/sec, \
         ring {}, burst {}, rate {}, loops {})",
        run.threads,
        run.elapsed.as_secs_f64() * 1e3,
        run.packets_per_sec(),
        run.slots,
        run.burst,
        rate,
        run.loops
    );
    if run.threads > 1 {
        eprint!("{}", report::render_worker_table(&run.workers));
    }
    // One machine-parseable accounting line; the CI soak job asserts
    // `dropped + retired == produced` from it.
    eprintln!(
        "live: produced {} dropped {} retired {} (drop {:.2}%)",
        run.ring.produced,
        run.ring.dropped,
        run.ring.retired,
        run.drop_fraction() * 100.0
    );
    report_memo(memo, id, &run.workers, &status)?;
    write_timeline_outputs(&tl, run.timeline.as_ref(), id, source_arg)?;
    if let Some(out) = metrics_out {
        let trace = json_safe_label(source_arg);
        let doc = MetricsDoc::new(
            id.slug(),
            &trace,
            run.elapsed,
            Duration::ZERO,
            run.hists,
            run.workers,
        );
        out.write(MetricsDoc {
            ring: Some(run.ring),
            ..doc
        })?;
    }
    Ok(())
}

/// `--metrics-out <file> [--metrics-format json|prom]` on `pb live` and
/// `pb profile`: where to write the stamped metrics document, how, and
/// whether `--deterministic` pins it.
struct MetricsOut {
    path: String,
    format: &'static str,
    deterministic: bool,
}

impl MetricsOut {
    /// Parses the option pair; `None` when `--metrics-out` is absent.
    fn parse(args: &Args) -> Result<Option<MetricsOut>, CliError> {
        let format = match args.options.get("metrics-format").map(String::as_str) {
            None | Some("json") => "json",
            Some("prom") => "prom",
            Some(other) => {
                return usage_err(format!("bad --metrics-format value `{other}` (json|prom)"))
            }
        };
        match args.options.get("metrics-out") {
            Some(path) => Ok(Some(MetricsOut {
                path: path.clone(),
                format,
                deterministic: args.flag("deterministic"),
            })),
            None if args.options.contains_key("metrics-format") => {
                usage_err("--metrics-format needs --metrics-out")
            }
            None => Ok(None),
        }
    }

    fn write(&self, mut doc: MetricsDoc) -> Result<(), CliError> {
        if self.deterministic {
            doc.pin();
        }
        let body = match self.format {
            "json" => doc.to_json(),
            _ => doc.to_prometheus(),
        };
        let path = &self.path;
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("pb: wrote {} metrics to {path}", self.format);
        Ok(())
    }
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    let [app_name, trace_name] = args.positional.as_slice() else {
        return usage_err("usage: pb profile <app> <trace>");
    };
    let Some(id) = AppId::by_name(app_name) else {
        return usage_err(format!("unknown application `{app_name}`"));
    };
    let metrics_out = MetricsOut::parse(args)?;
    if args.flag("deterministic") && metrics_out.is_none() {
        return usage_err("--deterministic needs --metrics-out");
    }
    let mut spec = ProfileSpec::new(id, trace_profile(trace_name)?);
    spec.packets = args.parse_opt("n", 1000)?;
    spec.seed = args.parse_opt("seed", 42)?;
    spec.threads = args.parse_opt("threads", 1)?;
    spec.progress = args.flag("progress");
    let result = run_profile(&spec).map_err(|e| e.to_string())?;
    print!("{}", result.render());
    if let Some(out) = metrics_out {
        out.write(result.metrics_doc(false))?;
    }
    Ok(())
}

fn cmd_conform(args: &Args) -> Result<(), CliError> {
    let corpus: usize = args.parse_opt("corpus", 500)?;
    let seed: u64 = args.parse_opt("seed", 42)?;
    let threads: usize = args.parse_opt("threads", 4)?;
    let repro_path = args
        .options
        .get("repro")
        .map(String::as_str)
        .unwrap_or("conform_repro.s");

    // Leg 1: the generated-program corpus through reference, full-detail,
    // and counts-only interpreters.
    let report = npconform::run_corpus(&npconform::ConformConfig {
        corpus,
        seed,
        ..npconform::ConformConfig::default()
    });
    println!(
        "corpus:       {} generated programs, seed {seed}: {}",
        report.programs,
        if report.passed() {
            "all paths bit-identical".to_string()
        } else {
            format!("{} DIVERGED", report.failures.len())
        }
    );
    if let Some(failure) = report.failures.first() {
        for d in failure.divergences.iter().take(8) {
            eprintln!("  {d}");
        }
        std::fs::write(repro_path, &failure.asm)
            .map_err(|e| format!("writing {repro_path}: {e}"))?;
        eprintln!(
            "minimized repro ({} instructions) written to {repro_path}",
            failure.minimized.len()
        );
        return Err(CliError::Run(format!(
            "{} of {} corpus programs diverged",
            report.failures.len(),
            report.programs
        )));
    }

    // Leg 2: every application over a synthetic trace, adding the
    // multi-threaded engine to the compared paths.
    let app_packets = (corpus / 5).clamp(20, 200);
    let mut failed = false;
    for report in packetbench::conform::check_all_apps(app_packets, seed, threads)
        .map_err(|e| e.to_string())?
    {
        println!(
            "{:<12} {} packets, {} threads: {}",
            report.app.slug(),
            report.packets,
            report.threads,
            if report.passed() {
                "all paths bit-identical".to_string()
            } else {
                format!("{} DIVERGENCES", report.divergences.len())
            }
        );
        for d in report.divergences.iter().take(8) {
            eprintln!("  {d}");
        }
        failed |= !report.passed();
    }
    if failed {
        return Err(CliError::Run("application conformance failed".into()));
    }
    Ok(())
}

fn cmd_anonymize(args: &Args) -> Result<(), CliError> {
    let [input, output] = args.positional.as_slice() else {
        return usage_err("usage: pb anonymize <in.pcap> <out.pcap>");
    };
    let seed: u64 = args.parse_opt("seed", 0xfeed)?;

    let file = File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let reader = PcapReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let link = reader.link();
    let out = File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut writer =
        PcapWriter::new(BufWriter::new(out), link, 65535).map_err(|e| e.to_string())?;

    let anonymizer = ipanon::Tsa::new(seed);
    let mut count = 0u64;
    for packet in reader {
        let mut packet = packet.map_err(|e| e.to_string())?;
        let l3 = packet.l3_mut();
        if l3.len() >= 20 && l3[0] >> 4 == 4 {
            let src = u32::from_be_bytes([l3[12], l3[13], l3[14], l3[15]]);
            let dst = u32::from_be_bytes([l3[16], l3[17], l3[18], l3[19]]);
            l3[12..16].copy_from_slice(&anonymizer.anonymize(src).to_be_bytes());
            l3[16..20].copy_from_slice(&anonymizer.anonymize(dst).to_be_bytes());
            // Addresses changed: fix the header checksum.
            if let Ok(mut header) = nettrace::ip::Ipv4Header::parse(l3) {
                header.finalize();
                header.write(&mut l3[..20]);
            }
        }
        writer.write_packet(&packet).map_err(|e| e.to_string())?;
        count += 1;
    }
    writer
        .into_inner()
        .map_err(|e| e.to_string())?
        .into_inner()
        .map_err(|e| e.to_string())?;
    println!("anonymized {count} packets: {input} -> {output}");
    Ok(())
}
