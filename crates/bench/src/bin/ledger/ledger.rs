//! `ledger` — the cost ledger: times `pb` end to end, as a user runs it,
//! and splits its host time by layer.
//!
//! The ledger is a package of its own (see its `Cargo.toml`); run it from
//! the repository root:
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
//!     [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
//!     compare <dirA> <dirB>
//! ```
//!
//! For each workload the ledger
//!
//! 1. generates the workload's pcap from the seed with `nettrace::synth`
//!    and `PcapWriter`, so `pb` receives only generated packets, and
//!    records its FNV-1a digest (a generator change that silently alters a
//!    workload shows there);
//! 2. computes the report `pb` must print for every command, with the
//!    reference interpreter (`oracle`);
//! 3. times the real `pb` binary (built from the same sources into the
//!    ledger's target directory) in a closed loop: one process at a time,
//!    always `--threads 1`, the command order rotated on each repetition,
//!    and the calibration kernel run before each repetition. Every stdout
//!    is byte-compared with the reference; a mismatch, a nonzero exit or
//!    a run past 10x the median time is a failure;
//! 4. with `--trace 1` (the default), replays the same work in-process
//!    with its own spans around the calls into each layer (`traced`);
//! 5. prints every metric by name with its unit, writes `runs.csv`,
//!    `layers.csv`, `spans.json` and `summary.json` under
//!    `<target dir>/ledger/<UTC stamp>/<workload>/` (never a tracked
//!    file), and ends with one JSON line: the end-to-end metrics with
//!    `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Without `--seconds` each command is timed 12 times; with it, the timed
//! loop repeats until that many seconds have passed (at least 3 times).
//! The process exits 1 when any invocation failed.
//!
//! # Workloads
//!
//! * `hdr` — MRA traffic through `pb run` for trie and flow. Short header
//!   programs (~180-210 instructions per packet), where framework fixed
//!   cost, pcap input and the batch driver's retained records are the
//!   largest share outside the interpreter; the trace tier does nothing
//!   here.
//! * `transport` — the same traffic and trie through `pb stream` and `pb
//!   live --on-full wait`: the chunk queue and the ingestion ring, in
//!   flat memory (~15 MB against `pb run`'s ~75 MB). Kept apart from
//!   `hdr` so neither the transports' time nor their footprint is hidden
//!   behind `pb run`'s.
//! * `loops` — prefixes of MRA through radix, TSA and IPsec: loop-heavy
//!   programs (radix backtracking, TSA, XTEA over 40-1500 B packets) where
//!   block and trace interpretation is nearly all host time and per-packet
//!   fixed cost is noise. Setup is largest here (the radix and TSA tables).
//! * `memo-hit` — zipf traffic (1024 flows, s = 1.0) through radix and
//!   trie with `--memo on`: about 95% of packets hit the memo cache and
//!   skip simulation, so the memo probe, input and batch driver dominate.
//! * `memo-miss` — the same apps and flag on reuse-free MRA traffic: every
//!   packet probes, misses, inserts and evicts (0% hits). A memo change
//!   that speeds hits by slowing inserts shows here. Repeated packets are
//!   ~95% of `memo-hit` and 0% of every other workload.
//!
//! # Host noise
//!
//! Wall time on a shared 2-vCPU host drifts by ±30-40% between regimes
//! that last seconds. For a full run CPU time drifts with it, so this is
//! the host's speed, not time stolen from `pb`. A fixed calibration
//! kernel (`host::calibrate`) runs before every repetition of the
//! commands (each command's `-n 1` run, which measures its setup, and its
//! full run), and every host-time metric is a median over repetitions
//! normalized by the median kernel time of its run (see `stats`). That
//! cuts the spread between runs by a factor of two to four. Normalizing
//! each invocation by a kernel run just before it was no steadier, and
//! cost a kernel run per invocation. A `-n 1` run lasts milliseconds, and
//! its wall time doubles on a busy host from waiting alone, so `setup_s`
//! is its CPU time, normalized by the kernel's CPU time. The raw values go
//! to `runs.csv`.

mod host;
mod json;
mod oracle;
mod spec;
mod stats;
mod traced;

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{ExitCode, Stdio};
use std::time::{Duration, Instant};

use nettrace::pcap::PcapWriter;
use nettrace::synth::SyntheticTrace;
use packetbench::AppId;

use host::{Calib, Env, Exit, Spawner};
use json::{number, quote, Json};
use oracle::References;
use spec::{Command, Driver, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{
    median, median_calib, normalize_cpu, normalize_rate, normalize_time, quartiles, verdict,
};

const USAGE: &str = "ledger — times `pb` end to end and splits its host time by layer

USAGE:
  ledger [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
  ledger compare <dirA> <dirB>
  ledger --help

Run from the repository root. The ledger builds `pb` (release) into its
own target directory, runs every workload (or just NAME: hdr, transport,
loops, memo-hit, memo-miss), and writes its artifacts under
<target dir>/ledger/.

  --seed N       input seed (default 20050320)
  --seconds S    time each workload's commands for S seconds (at least 3
                 repetitions); default: 12 repetitions
  --trace 1      also replay the work in-process to split it by layer
                 (default); the last line's metrics are the per-layer ones
  --trace 0      end-to-end only; the last line's metrics are end-to-end

`compare` reads every summary.json under each directory (runs paired in
path order), prints each end-to-end metric's median and quartiles per
side, and a verdict: improved, worse, unresolved or unchanged. It exits 1
when any metric got worse.";

/// Timed repetitions without `--seconds`, and the fewest with it.
const DEFAULT_REPS: usize = 12;
const MIN_REPS: usize = 3;

/// How long an invocation with no earlier timing may run before it is
/// killed; later ones get 10x their command's median.
const FIRST_LIMIT: Duration = Duration::from_secs(60);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("compare") => compare(&args[1..]),
        // The helper `host::Spawner` starts: it runs each `pb` for us.
        Some("spawner") => host::serve_spawner()
            .map(|()| true)
            .map_err(|e| e.to_string()),
        _ => match parse_options(&args) {
            Ok(options) => run(&options),
            Err(e) => {
                eprintln!("ledger: {e}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    seed: u64,
    workloads: Vec<&'static Workload>,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: spec::DEFAULT_SEED,
        workloads: WORKLOADS.iter().collect(),
        seconds: None,
        trace: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--seed" => {
                options.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?;
            }
            "--workload" => {
                let w =
                    spec::workload(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                options.workloads = vec![w];
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => options.seconds = Some(s),
                _ => return Err(format!("bad --seconds `{value}`")),
            },
            "--trace" => {
                options.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(options)
}

fn run(options: &Options) -> Result<bool, String> {
    if !Path::new("crates/core/Cargo.toml").is_file() {
        return Err("run the ledger from the repository root".to_string());
    }
    // First, while this process is still small (see `Spawner`).
    let mut spawner = Spawner::start().map_err(|e| format!("starting the spawner: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?;
    let pb = build_pb(target)?;
    let env = Env::probe();
    let base = fresh_dir(&target.join("ledger"))?;
    println!(
        "env      nproc {}, cpu {}, kernel {}, commit {}",
        env.nproc, env.cpu, env.kernel, env.commit
    );
    let mut correct = true;
    for w in &options.workloads {
        correct &= run_workload(options, w, &pb, &mut spawner, &base.join(w.name), &env)?;
    }
    Ok(correct)
}

/// Builds `pb` from the sources in the current directory into the
/// ledger's own target directory, so the binary timed is always current.
fn build_pb(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "packetbench",
            "--bin",
            "pb",
        ])
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err("building pb failed".to_string());
    }
    Ok(target
        .join("release")
        .join(format!("pb{}", std::env::consts::EXE_SUFFIX)))
}

/// A new directory `<parent>/<UTC stamp>` (suffixed if that exists).
fn fresh_dir(parent: &Path) -> Result<PathBuf, String> {
    let stamp: String = npobs::stamp::iso8601_now()
        .chars()
        .filter(|c| !matches!(c, '-' | ':'))
        .collect();
    let mut dir = parent.join(&stamp);
    let mut k = 1;
    while dir.exists() {
        k += 1;
        dir = parent.join(format!("{stamp}-{k}"));
    }
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Generated inputs, removed when the workload ends however it ends:
/// they are large and reproducible from the seed.
struct Inputs(PathBuf);

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Writes the first `packets` packets of the workload's profile at `seed`
/// to `path`; returns the file's FNV-1a digest and length.
fn generate(w: &Workload, seed: u64, path: &Path) -> Result<(u64, u64), String> {
    let profile = w.input.profile();
    let trace_err = |e: nettrace::TraceError| e.to_string();
    let mut writer = PcapWriter::new(Vec::new(), profile.link, 65_535).map_err(trace_err)?;
    let mut trace = SyntheticTrace::new(profile, seed);
    for _ in 0..w.input_packets() {
        writer
            .write_packet(&trace.next_packet())
            .map_err(trace_err)?;
    }
    let bytes = writer.into_inner().map_err(trace_err)?;
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut file = fs::File::create(path).map_err(io)?;
    file.write_all(&bytes).map_err(io)?;
    // On disk before any timing starts, so no writeback competes with it.
    file.sync_all().map_err(io)?;
    Ok((digest, bytes.len() as u64))
}

/// Command indices in the order of repetition `rep`: rotated by one each
/// time, so no command always runs first or right after another.
fn rotation(k: usize, rep: usize) -> impl Iterator<Item = usize> {
    (0..k).map(move |j| (j + rep) % k)
}

/// One `pb` invocation, as written to `runs.csv`.
#[derive(Debug)]
struct Row {
    command: String,
    /// Threads the invocation kept busy (see `Command::threads`).
    threads: usize,
    rep: usize,
    order: usize,
    packets: usize,
    wall_s: f64,
    cpu_s: f64,
    /// The kernel seconds of its repetition that apply to it.
    calib_s: f64,
    peak_rss_kb: u64,
    exit: Option<i32>,
    stdout_ok: bool,
    stderr: String,
}

impl Row {
    /// Invocation `order` of repetition `rep`, whose kernel run was `calib`.
    fn new(
        command: String,
        threads: usize,
        (rep, order): (usize, usize),
        packets: usize,
        calib: Calib,
        exit: &Exit,
        stdout_ok: bool,
    ) -> Row {
        let stderr = String::from_utf8_lossy(&exit.stderr);
        Row {
            command,
            threads,
            rep,
            order,
            packets,
            wall_s: exit.wall_s,
            cpu_s: exit.cpu_s,
            calib_s: calib.seconds(threads),
            peak_rss_kb: exit.peak_rss_kb,
            exit: exit.code,
            stdout_ok,
            stderr: stderr.lines().next().unwrap_or("").to_string(),
        }
    }

    /// `c` over its first `packets` packets (`-n 1`: its setup). Its
    /// stdout must be the reference report.
    fn checked(
        c: &Command,
        packets: usize,
        at: (usize, usize),
        calib: Calib,
        exit: &Exit,
        reference: &str,
    ) -> Row {
        let mut command = c.label();
        if packets == 1 {
            command.push_str(" -n 1");
        }
        let ok = exit.stdout == reference.as_bytes();
        Row::new(command, c.threads(), at, packets, calib, exit, ok)
    }

    fn pps_raw(&self) -> f64 {
        self.packets as f64 / self.wall_s
    }

    /// Why this invocation counts as failed, if it does.
    fn failure(&self, median_wall_s: f64) -> Option<String> {
        if self.exit != Some(0) {
            let how = self
                .exit
                .map_or("was killed".to_string(), |c| format!("exited {c}"));
            Some(format!(
                "{} (rep {}) {how}: {}",
                self.command, self.rep, self.stderr
            ))
        } else if !self.stdout_ok {
            Some(format!(
                "{} (rep {}): stdout differs from the reference report",
                self.command, self.rep
            ))
        } else if self.wall_s > slow_limit_s(median_wall_s) {
            Some(format!(
                "{} (rep {}): ran {:.2} s, past 10x the median {median_wall_s:.3} s",
                self.command, self.rep, self.wall_s
            ))
        } else {
            None
        }
    }
}

/// An invocation is too slow past 10x its command's median, counting a
/// median under 0.1 s as 0.1 s: a millisecond-scale `-n 1` run can take
/// 10x longer on one scheduler hiccup without anything being wrong.
fn slow_limit_s(median_wall_s: f64) -> f64 {
    10.0 * median_wall_s.max(0.1)
}

/// Every failed invocation, judged against its own command's median.
fn failures(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter_map(|row| {
            let walls: Vec<f64> = rows
                .iter()
                .filter(|r| r.command == row.command)
                .map(|r| r.wall_s)
                .collect();
            row.failure(median(&walls))
        })
        .collect()
}

/// Orders measured `(name, value)` pairs by their declaration, failing on
/// a name that is not declared or a declared name that was not measured
/// — so the ledger prints exactly what `BENCHMARK.json` declares.
fn declared<'a>(
    measured: &[(&str, f64)],
    names: impl Iterator<Item = &'a str>,
) -> Result<Vec<(&'a str, f64)>, String> {
    let names: Vec<&str> = names.collect();
    if let Some((stray, _)) = measured.iter().find(|(n, _)| !names.contains(n)) {
        return Err(format!("metric `{stray}` is not declared"));
    }
    names
        .into_iter()
        .map(|name| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?
                .1;
            Ok((name, if value.is_finite() { value } else { 0.0 }))
        })
        .collect()
}

/// The end-to-end invocations of one workload, raw (not normalized).
struct Timed {
    rows: Vec<Row>,
    calibs: Vec<Calib>,
    reps: usize,
    /// Per command: wall seconds, CPU seconds and peak RSS (kB) of its
    /// `-n 1` runs, and wall seconds and peak RSS of its full runs.
    setup: Vec<Vec<f64>>,
    setup_cpu: Vec<Vec<f64>>,
    setup_rss: Vec<Vec<f64>>,
    walls: Vec<Vec<f64>>,
    rss: Vec<Vec<f64>>,
    /// Wall seconds of `pb apps`: process start and exit alone.
    spawn: Vec<f64>,
}

/// Times every command of `w` in repetitions until the time budget is
/// spent. A repetition runs the calibration kernel; then, for each command
/// in rotated order, its `-n 1` run (its setup) and its full run; then `pb
/// apps`. Setup is sampled across the whole run, as the full runs are, so
/// one normalization serves both.
fn time_commands(
    options: &Options,
    w: &Workload,
    pb: &Path,
    spawner: &mut Spawner,
    pcap: &str,
    scratch: &Path,
    refs: &References,
) -> Result<Timed, String> {
    let k = w.commands.len();
    let reference = |app: AppId, n: usize| refs.get(app, n).expect("every prefix was requested");
    let mut invoke = |args: &[String], limit: Duration| {
        spawner
            .run(pb, args, scratch, limit)
            .map_err(|e| format!("running {}: {e}", pb.display()))
    };
    let mut t = Timed {
        rows: Vec::new(),
        calibs: Vec::new(),
        reps: 0,
        setup: vec![Vec::new(); k],
        setup_cpu: vec![Vec::new(); k],
        setup_rss: vec![Vec::new(); k],
        walls: vec![Vec::new(); k],
        rss: vec![Vec::new(); k],
        spawn: Vec::new(),
    };
    let limit = |walls: &[f64]| match walls {
        [] => FIRST_LIMIT,
        walls => Duration::from_secs_f64(slow_limit_s(median(walls))),
    };
    let start = Instant::now();
    while t.reps < MIN_REPS
        || options
            .seconds
            .map_or(t.reps < DEFAULT_REPS, |s| start.elapsed().as_secs_f64() < s)
    {
        let rep = t.reps;
        let calib = host::calibrate();
        t.calibs.push(calib);
        let mut order = 0;
        for i in rotation(k, rep) {
            let c = &w.commands[i];
            for packets in [1, c.packets] {
                let (walls, rss) = if packets == 1 {
                    (&mut t.setup[i], &mut t.setup_rss[i])
                } else {
                    (&mut t.walls[i], &mut t.rss[i])
                };
                let exit = invoke(&c.args(pcap, packets), limit(walls))?;
                let reference = reference(c.app, packets);
                let row = Row::checked(c, packets, (rep, order), calib, &exit, reference);
                walls.push(row.wall_s);
                rss.push(row.peak_rss_kb as f64);
                if packets == 1 {
                    t.setup_cpu[i].push(row.cpu_s);
                }
                t.rows.push(row);
                order += 1;
            }
        }
        let exit = invoke(&["apps".to_string()], limit(&t.spawn))?;
        let listing = String::from_utf8_lossy(&exit.stdout);
        let listed = AppId::WITH_EXTENSIONS
            .iter()
            .all(|a| listing.contains(a.slug()));
        let row = Row::new("apps".to_string(), 1, (rep, order), 0, calib, &exit, listed);
        t.spawn.push(row.wall_s);
        t.rows.push(row);
        t.reps += 1;
    }
    Ok(t)
}

fn run_workload(
    options: &Options,
    w: &Workload,
    pb: &Path,
    spawner: &mut Spawner,
    dir: &Path,
    env: &Env,
) -> Result<bool, String> {
    let scratch = Inputs(dir.join("inputs"));
    fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let pcap = scratch.0.join(format!("{}.pcap", w.input.name()));
    let pcap_arg = pcap
        .to_str()
        .ok_or("the target directory path is not UTF-8")?;
    let (digest, bytes) = generate(w, options.seed, &pcap)?;
    println!(
        "\n== workload {} (seed {}): {}",
        w.name, options.seed, w.why
    );
    println!(
        "input    {}: {} packets, {bytes} bytes, fnv64 {digest:016x}",
        w.input.name(),
        w.input_packets()
    );

    let t = Instant::now();
    let mut wanted: Vec<(AppId, Vec<usize>)> = Vec::new();
    for c in w.commands {
        let prefixes = [1, c.packets, traced::traced_packets(c)];
        match wanted.iter_mut().find(|(app, _)| *app == c.app) {
            Some((_, p)) => p.extend(prefixes),
            None => wanted.push((c.app, prefixes.to_vec())),
        }
    }
    let refs = References::build(&wanted, &pcap)?;
    println!(
        "oracle   reference reports in {:.1} s",
        t.elapsed().as_secs_f64()
    );

    let timed = time_commands(options, w, pb, spawner, pcap_arg, &scratch.0, &refs)?;
    let mut failed = failures(&timed.rows);
    let mut attempted = timed.rows.len();
    // One normalization per run: the kernel's own noise (15-30% between
    // neighbouring runs) exceeds what it tracks of `pb` invocation by
    // invocation, while its median tracks the host regime of the run.
    let calib = median_calib(&timed.calibs);
    let wall_s: Vec<f64> = timed
        .walls
        .iter()
        .zip(w.commands)
        .map(|(v, c)| normalize_time(median(v), calib, c.threads()))
        .collect();
    // Setup in CPU time: a millisecond-scale process's wall time doubles
    // when the host is busy, from waiting alone, while its CPU time moves
    // with the host's speed, which the kernel's CPU time tracks.
    let setup_s: Vec<f64> = timed
        .setup_cpu
        .iter()
        .map(|v| normalize_cpu(median(v), calib))
        .collect();
    let total_packets: f64 = w.commands.iter().map(|c| c.packets as f64).sum();
    let peak_rss_kb = timed.rows.iter().map(|r| r.peak_rss_kb).max().unwrap_or(0);
    let e2e = declared(
        &[
            ("setup_s", setup_s.iter().sum()),
            ("pps", total_packets / wall_s.iter().sum::<f64>()),
            ("peak_rss_mb", peak_rss_kb as f64 / 1024.0),
        ],
        END_TO_END.iter().map(|m| m.name),
    )?;

    let mut commands_json = Vec::new();
    println!(
        "{:<18} {:>8} {:>5} {:>10} {:>12} {:>10} {:>8}",
        "command", "packets", "reps", "wall_s", "pps(norm)", "setup_ms", "rss_MB"
    );
    for (i, c) in w.commands.iter().enumerate() {
        let pps = c.packets as f64 / wall_s[i];
        let rss_mb = median(&timed.rss[i]) / 1024.0;
        println!(
            "{:<18} {:>8} {:>5} {:>10.4} {:>12.0} {:>10.2} {:>8.1}",
            c.label(),
            c.packets,
            timed.walls[i].len(),
            median(&timed.walls[i]),
            pps,
            setup_s[i] * 1e3,
            rss_mb
        );
        commands_json.push(format!(
            "{{\"command\": {}, \"packets\": {}, \"wall_s\": {}, \"pps\": {}, \"setup_s\": {}, \"peak_rss_mb\": {}}}",
            quote(&c.label()),
            c.packets,
            number(median(&timed.walls[i])),
            number(pps),
            number(setup_s[i]),
            number(rss_mb)
        ));
    }

    let mut layers = Vec::new();
    if options.trace {
        let t = Instant::now();
        let traced = traced::run(w, &pcap, &refs)?;
        attempted += traced.checked;
        failed.extend(traced.mismatches.iter().cloned());
        // The traced sum of layer self times against the untraced host
        // time with setup excluded, over every command's packets. Only
        // measured spans count: the first-touch cost of the memory `pb
        // run` retains (`engine.fault_ns`, modeled from a bare page walk)
        // is reported on its own and left out.
        let (mut traced_ns, mut untraced_ns) = (0.0, 0.0);
        let (mut rss_bytes, mut run_packets) = (0.0, 0.0);
        for (i, c) in w.commands.iter().enumerate() {
            let n = c.packets as f64;
            traced_ns += traced.command_ns[i] * n;
            untraced_ns += (wall_s[i] - setup_s[i]) * 1e9;
            if c.driver == Driver::Run {
                rss_bytes += (median(&timed.rss[i]) - median(&timed.setup_rss[i])) * 1024.0;
                run_packets += n;
            }
        }
        let mut measured = traced.metrics.clone();
        measured.extend([
            (
                "process.spawn_ms",
                normalize_time(median(&timed.spawn), calib, 1) * 1e3,
            ),
            ("engine.rss_bytes_per_pkt", rss_bytes / run_packets),
            (
                "engine.fault_ns",
                rss_bytes / run_packets * traced.fault_ns_per_byte,
            ),
            ("host.calib_s", calib.one_thread_s),
            ("layers.coverage", traced_ns / untraced_ns),
        ]);
        layers = declared(&measured, PER_LAYER.iter().map(|(n, _)| *n))?;
        println!(
            "traced   in-process replay in {:.1} s",
            t.elapsed().as_secs_f64()
        );

        let mut csv = String::from("metric,scope,value,unit\n");
        for (name, value) in &layers {
            let _ = writeln!(csv, "{name},{},{value},{}", w.name, spec::unit_of(name));
        }
        for (app, name, value) in &traced.per_app {
            let _ = writeln!(csv, "{name},{app},{value},{}", spec::unit_of(name));
        }
        write(&dir.join("layers.csv"), &csv)?;
        write(&dir.join("spans.json"), &traced.spans_json)?;
    }

    for (name, value) in e2e.iter().chain(&layers) {
        println!("metric   {name:<28} {value:>16.4} {}", spec::unit_of(name));
    }
    println!("checks   {} failed of {attempted} attempted", failed.len());
    for f in failed.iter().take(10) {
        println!("  FAIL   {f}");
    }

    let mut csv = String::from(
        "command,rep,order,packets,wall_s,cpu_s,calib_s,pps_raw,pps,peak_rss_kb,exit,stdout_ok\n",
    );
    for r in &timed.rows {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.command,
            r.rep,
            r.order,
            r.packets,
            r.wall_s,
            r.cpu_s,
            r.calib_s,
            r.pps_raw(),
            normalize_rate(r.pps_raw(), calib, r.threads),
            r.peak_rss_kb,
            r.exit.map_or("killed".to_string(), |c| c.to_string()),
            r.stdout_ok
        );
    }
    write(&dir.join("runs.csv"), &csv)?;

    let correct = failed.is_empty();
    let metrics_json = |metrics: &[(&str, f64)]| {
        let members: Vec<String> = metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(spec::unit_of(name))
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    };
    let all: Vec<(&str, f64)> = e2e.iter().chain(&layers).copied().collect();
    let summary = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"reps\": {},\n  \
         \"env\": {{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"commit\": {}}},\n  \
         \"input\": {{\"profile\": {}, \"packets\": {}, \"bytes\": {bytes}, \"fnv64\": \"{digest:016x}\"}},\n  \
         \"correct\": {correct},\n  \"attempted\": {attempted},\n  \"failed\": {},\n  \
         \"commands\": [{}],\n  \"metrics\": {}\n}}\n",
        quote(w.name),
        options.seed,
        timed.reps,
        env.nproc,
        quote(&env.cpu),
        quote(&env.kernel),
        quote(&env.commit),
        quote(w.input.name()),
        w.input_packets(),
        failed.len(),
        commands_json.join(", "),
        metrics_json(&all),
    );
    write(&dir.join("summary.json"), &summary)?;
    println!("output   {}", dir.display());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failed.len(),
        metrics_json(if options.trace { &layers } else { &e2e })
    );
    Ok(correct)
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// `ledger compare <dirA> <dirB>`: every end-to-end metric of every
/// workload, side A (the parent) against side B (the change), then each
/// command's own `pps` under the `pps` bound, which a slowdown of one
/// application cannot hide behind the others of its workload.
fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare needs two directories\n\n{USAGE}"));
    };
    let (side_a, side_b) = (summaries(Path::new(a))?, summaries(Path::new(b))?);
    println!(
        "{:<10} {:<20} {:>5} {:>30} {:>30}  verdict",
        "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]"
    );
    let pps = END_TO_END
        .iter()
        .find(|m| m.name == "pps")
        .expect("pps is declared");
    let mut none_worse = true;
    for w in &WORKLOADS {
        let labels: Vec<String> = w.commands.iter().map(|c| c.label()).collect();
        let rows = END_TO_END
            .iter()
            .map(|m| (m, None))
            .chain(labels.iter().map(|label| (pps, Some(label.as_str()))));
        for (m, command) in rows {
            let values = |side: &[(String, Json)]| -> Vec<f64> {
                side.iter()
                    .filter(|(workload, _)| workload == w.name)
                    .filter_map(|(_, doc)| summary_value(doc, m.name, command))
                    .collect()
            };
            let (va, vb) = (values(&side_a), values(&side_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.higher_is_better, m.bound);
            none_worse &= v != stats::Verdict::Worse;
            let show = |v: &[f64]| {
                let digits = if median(v).abs() >= 1000.0 { 0 } else { 4 };
                let [q1, q2, q3] = quartiles(v).map(|q| format!("{q:.digits$}"));
                format!("{q2} [{q1}, {q3}]")
            };
            let name = command.map_or(m.name.to_string(), |c| format!("{}[{c}]", m.name));
            println!(
                "{:<10} {:<20} {:>5} {:>30} {:>30}  {}",
                w.name,
                name,
                format!("{}/{}", va.len(), vb.len()),
                show(&va),
                show(&vb),
                v.as_str()
            );
        }
    }
    Ok(none_worse)
}

/// A metric's value in a `summary.json`: the workload's, or with
/// `command` that command's own.
fn summary_value(doc: &Json, metric: &str, command: Option<&str>) -> Option<f64> {
    match command {
        None => doc.get("metrics")?.get(metric)?.get("value")?.as_f64(),
        Some(label) => doc
            .get("commands")?
            .as_array()
            .iter()
            .find(|c| c.get("command").and_then(Json::as_str) == Some(label))?
            .get(metric)?
            .as_f64(),
    }
}

/// `(workload, document)` of every `summary.json` under `dir`, in path
/// order (which is run order: the directories are UTC stamps).
fn summaries(dir: &Path) -> Result<Vec<(String, Json)>, String> {
    let mut paths = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.file_name().is_some_and(|n| n == "summary.json") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no workload", path.display()))?
                .to_string();
            Ok((workload, doc))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    fn exit_with(stdout: &str) -> Exit {
        Exit {
            wall_s: 0.5,
            code: Some(0),
            stdout: stdout.as_bytes().to_vec(),
            ..Exit::default()
        }
    }

    #[test]
    fn an_altered_report_is_a_failure() {
        let trie = &spec::workload("hdr").unwrap().commands[0];
        let reference = "application:            IPv4-trie\npackets:                10\n";
        let row = |exit: &Exit, rep: usize| {
            Row::checked(trie, 10, (rep, 0), stats::CALIB_REF, exit, reference)
        };
        let good = row(&exit_with(reference), 0);
        assert_eq!(good.failure(0.5), None);
        let altered = reference.replace("10\n", "11\n");
        let bad = row(&exit_with(&altered), 0);
        assert!(bad.failure(0.5).unwrap().contains("differs"));
        let crashed = Exit {
            code: Some(1),
            ..exit_with(reference)
        };
        assert!(row(&crashed, 0).failure(0.5).unwrap().contains("exited 1"));
        // A run past 10x its command's median fails too, but a short
        // command's median counts as at least 0.1 s.
        let slow = row(&exit_with(reference), 0);
        assert!(slow.failure(0.04).is_none());
        let mut slower = exit_with(reference);
        slower.wall_s = 2.5;
        let slower = row(&slower, 3);
        assert!(slower.failure(0.2).unwrap().contains("10x"));
        let rows = [good, slow, slower];
        assert_eq!(
            failures(&rows).len(),
            0,
            "2.5 s is within 10x the median 0.5 s"
        );
        // The setup run of a command is a command of its own.
        let setup = Row::checked(trie, 1, (0, 1), stats::CALIB_REF, &exit_with(""), "");
        assert_eq!(setup.command, "run trie -n 1");
        assert_eq!(setup.calib_s, stats::CALIB_REF.one_thread_s);
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (name, unit) in END_TO_END.iter().map(|m| (m.name, m.unit)).chain(PER_LAYER) {
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert!(!setup.higher_is_better && setup.unit == "s");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.bound <= setup.bound,
                "setup_s must have the largest bound"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_ledger_prints() {
        let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let strings = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(strings("workloads", "name"), workloads);
        let whys: Vec<String> = WORKLOADS.iter().map(|w| w.why.to_string()).collect();
        assert_eq!(strings("workloads", "why"), whys);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_array())
        {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        assert_eq!(
            doc.get("end_to_end").unwrap().as_array().len(),
            END_TO_END.len()
        );
        let layer_names: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let layer_units: Vec<String> = PER_LAYER.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(strings("per_layer", "name"), layer_names);
        assert_eq!(strings("per_layer", "unit"), layer_units);

        // What the ledger prints goes through `declared`, which admits
        // only these names, each exactly once, in this order.
        let measured: Vec<(&str, f64)> = END_TO_END.iter().rev().map(|m| (m.name, 1.0)).collect();
        let printed = declared(&measured, END_TO_END.iter().map(|m| m.name)).unwrap();
        let printed: Vec<&str> = printed.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, ["setup_s", "pps", "peak_rss_mb"]);
        assert!(declared(&[("pps", 1.0)], END_TO_END.iter().map(|m| m.name)).is_err());
        let stray = [
            ("setup_s", 1.0),
            ("pps", 1.0),
            ("peak_rss_mb", 1.0),
            ("fail_frac", 0.0),
        ];
        assert!(declared(&stray, END_TO_END.iter().map(|m| m.name)).is_err());
    }

    #[test]
    fn commands_run_single_threaded_with_their_flags() {
        let w = spec::workload("transport").unwrap();
        let live = w
            .commands
            .iter()
            .find(|c| c.driver == Driver::Live)
            .unwrap();
        assert_eq!(
            live.args("in.pcap", 7).join(" "),
            "live trie in.pcap --on-full wait --threads 1 -n 7"
        );
        let memo = &spec::workload("memo-hit").unwrap().commands[0];
        assert_eq!(
            memo.args("z.pcap", 50).join(" "),
            "run --app radix --pcap z.pcap --threads 1 --memo on -n 50"
        );
        assert_eq!(rotation(3, 4).collect::<Vec<_>>(), [1, 2, 0]);
    }

    #[test]
    fn compare_reads_workload_and_command_values() {
        let doc = json::parse(
            r#"{"workload": "hdr",
                "commands": [{"command": "run trie", "pps": 300000.5},
                             {"command": "run flow", "pps": 350000}],
                "metrics": {"pps": {"value": 320000, "unit": "packets/s"}}}"#,
        )
        .unwrap();
        assert_eq!(summary_value(&doc, "pps", None), Some(320000.0));
        assert_eq!(summary_value(&doc, "pps", Some("run trie")), Some(300000.5));
        assert_eq!(summary_value(&doc, "pps", Some("run tsa")), None);
        assert_eq!(summary_value(&doc, "setup_s", None), None);
    }
}
