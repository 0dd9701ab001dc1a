//! The traced pass: each command's work replayed in-process through the
//! public API, with the ledger's own spans around the calls into each
//! layer, to split host time by layer.
//!
//! One `Instant` pair costs 20-30 ns, so only the p50/p99 pass times
//! single packets; every other span wraps a whole loop. Layer costs come
//! from isolation (staging, `Cpu::new`, `RunStats::reset_for`, the queue
//! and the ring, each timed alone) or subtraction (a driver's time minus
//! the packet path inside it). Every duration is normalized by the median
//! of the calibration runs made before each job of each round.

use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use nettrace::pcap::PcapReader;
use nettrace::{Limited, Packet};
use npconform::ForcedCpu;
use npring::RateSpec;
use npsim::{BlockTable, Cpu, ExecPath, Memory, RunConfig, RunStats};
use npstream::{BoundedQueue, SourceSpec};
use packetbench::analysis::StreamAggregate;
use packetbench::report::render_aggregate_report;
use packetbench::{
    App, AppId, BenchError, Detail, Engine, LiveConfig, MemoMode, OnFull, PacketBench,
    PacketRecord, StreamConfig, WorkerMetrics, WorkloadConfig,
};

use crate::host::{self, Calib};
use crate::json::quote;
use crate::oracle::{self, References};
use crate::spec::{self, Command, Driver, Workload};
use crate::stats::{median, median_calib, normalize_time, weighted_percentile};

/// Packets of each command's input the traced pass replays.
pub const TRACE_PACKETS: usize = 50_000;

/// Rounds of the traced pass. Each layer value is its median over the
/// rounds, which take the jobs in turn, so a slow host moment spoils one
/// round of one job rather than a layer.
const ROUNDS: usize = 3;

/// Renders timed per `report.render` span (one render is a few µs).
const RENDERS: u32 = 64;

/// Items handed through the bare `npstream` queue.
const QUEUE_ITEMS: usize = 20_000;

/// One timed region: name, start and end (ns since the pass began), the
/// span that encloses it, and the command it belongs to.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    command: String,
}

/// The spans of one workload's traced pass, kept in memory and written
/// out at the end as Chrome trace-event JSON.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    command: String,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            command: String::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.t0).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            command: self.command.clone(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans[id].end_ns = (end - self.t0).as_nanos() as u64;
        (out, (end - start).as_secs_f64())
    }

    /// A span's duration minus the durations of its direct children.
    fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    fn to_chrome_trace(&self, workload: &str) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \"self_us\": {:.3}, \
                     \"workload\": {}, \"command\": {}}}}}",
                    quote(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.self_ns(id) as f64 / 1e3,
                    quote(workload),
                    quote(&s.command),
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// The commands of a workload that share one application and memo mode:
/// the traced pass replays them once.
struct Job {
    app: AppId,
    memo: bool,
    /// Packets replayed: the first `min(n, TRACE_PACKETS)` of the input.
    packets: usize,
    /// Commands served, and their packets: the job's weight in the
    /// workload's per-packet means.
    commands: usize,
    weight: f64,
}

fn jobs(workload: &Workload) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for c in workload.commands {
        match jobs.iter_mut().find(|j| j.app == c.app && j.memo == c.memo) {
            Some(job) => {
                job.packets = job.packets.max(traced_packets(c));
                job.commands += 1;
                job.weight += c.packets as f64;
            }
            None => jobs.push(Job {
                app: c.app,
                memo: c.memo,
                packets: traced_packets(c),
                commands: 1,
                weight: c.packets as f64,
            }),
        }
    }
    jobs
}

pub fn traced_packets(c: &Command) -> usize {
    c.packets.min(TRACE_PACKETS)
}

/// What the traced pass measured for one workload.
pub struct Traced {
    /// Workload-level layer metrics, by name (the rest are filled in from
    /// the end-to-end runs).
    pub metrics: Vec<(&'static str, f64)>,
    /// The same metrics per application, for `layers.csv`.
    pub per_app: Vec<(&'static str, &'static str, f64)>,
    /// For each of the workload's commands, the traced host time per
    /// packet with setup excluded: the sum of its layers' self times.
    pub command_ns: Vec<f64>,
    /// In-process replays whose report was checked, and those that
    /// differed from the reference.
    pub checked: usize,
    pub mismatches: Vec<String>,
    pub spans_json: String,
    /// Normalized ns to first-touch and release one byte of fresh memory.
    pub fault_ns_per_byte: f64,
}

/// Per-application layer values; per-packet times in ns.
struct JobLayers {
    values: Vec<(&'static str, f64)>,
    /// Single-packet times (ns) from the p50/p99 pass.
    samples: Vec<f64>,
    /// Traced per-packet time of a `run`, a `stream` and a `live` command.
    driver_ns: [f64; 3],
}

impl JobLayers {
    /// Each value's median over rounds and every round's samples, with
    /// host times normalized by the pass's calibration `calib`: its
    /// single-threaded parts, which the replays mostly are.
    fn median(rounds: Vec<JobLayers>, calib: Calib) -> JobLayers {
        let middle =
            |f: &dyn Fn(&JobLayers) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let norm = |x: f64| normalize_time(x, calib, 1);
        JobLayers {
            values: (0..rounds[0].values.len())
                .map(|k| {
                    let (name, _) = rounds[0].values[k];
                    let value = middle(&|l| l.values[k].1);
                    (
                        name,
                        if spec::is_time(spec::unit_of(name)) {
                            norm(value)
                        } else {
                            value
                        },
                    )
                })
                .collect(),
            samples: rounds
                .iter()
                .flat_map(|l| l.samples.iter().map(|&s| norm(s)))
                .collect(),
            driver_ns: [0, 1, 2].map(|k| norm(middle(&|l| l.driver_ns[k]))),
        }
    }
}

/// Values summed over the workload's commands (each command pays its
/// setup once); every other job value is a packet-weighted mean.
const SUMMED: [&str; 3] = ["apps.build_ms", "bblock.predecode_ms", "framework.init_ms"];

/// Runs the traced pass for `workload` over its generated `pcap`.
///
/// # Errors
///
/// Fails when the input cannot be read or a replay errors (a bad packet,
/// a simulation fault, a golden-model mismatch).
pub fn run(workload: &Workload, pcap: &Path, refs: &References) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let jobs = jobs(workload);
    let mut rounds: Vec<Vec<JobLayers>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut checked = 0;
    let mut mismatches = Vec::new();
    let mut calibs = Vec::new();
    for _ in 0..ROUNDS {
        for (job, rounds) in jobs.iter().zip(&mut rounds) {
            spans.command = format!("{}{}", job.app.slug(), if job.memo { " memo" } else { "" });
            let reference = refs
                .get(job.app, job.packets)
                .ok_or_else(|| format!("no reference report for {}", spans.command))?;
            calibs.push(host::calibrate());
            rounds.push(measure_job(
                &mut spans,
                job,
                pcap,
                reference,
                &mut mismatches,
            )?);
            checked += 3;
        }
    }
    let calib = median_calib(&calibs);
    let measured: Vec<JobLayers> = rounds
        .into_iter()
        .map(|rounds| JobLayers::median(rounds, calib))
        .collect();

    // The bare transports, once per workload, over the first job's packets.
    spans.command = "transport".to_string();
    let packets = oracle::read_pcap(pcap, jobs[0].packets)?;
    let (queue_s, _) = spans.time("npstream.queue", |_| queue_handoff_s(QUEUE_ITEMS));
    let (ring_s, _) = spans.time("npring.ring", |_| ring_s(&packets));
    let (fault_s, _) = spans.time("engine.fault", |_| fresh_memory_s_per_byte());

    let total_weight: f64 = jobs.iter().map(|j| j.weight).sum();
    let names: Vec<&'static str> = measured[0].values.iter().map(|(n, _)| *n).collect();
    let mut metrics: Vec<(&'static str, f64)> = names
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let value = if SUMMED.contains(&name) {
                jobs.iter()
                    .zip(&measured)
                    .map(|(j, l)| j.commands as f64 * l.values[k].1)
                    .sum()
            } else {
                jobs.iter()
                    .zip(&measured)
                    .map(|(j, l)| j.weight * l.values[k].1)
                    .sum::<f64>()
                    / total_weight
            };
            (name, value)
        })
        .collect();
    let mut weighted: Vec<(f64, f64)> = jobs
        .iter()
        .zip(&measured)
        .flat_map(|(j, l)| {
            let w = j.weight / l.samples.len() as f64;
            l.samples.iter().map(move |&s| (s, w))
        })
        .collect();
    metrics.push((
        "framework.packet_ns.p50",
        weighted_percentile(&mut weighted, 0.50),
    ));
    metrics.push((
        "framework.packet_ns.p99",
        weighted_percentile(&mut weighted, 0.99),
    ));
    // The bare transports hand items between two threads.
    metrics.push(("npstream.queue_ns", normalize_time(queue_s, calib, 2) * 1e9));
    metrics.push(("npring.ring_ns", normalize_time(ring_s, calib, 2) * 1e9));

    let per_app = jobs
        .iter()
        .zip(&measured)
        .flat_map(|(j, l)| l.values.iter().map(move |&(n, v)| (j.app.slug(), n, v)))
        .collect();
    let command_ns = workload
        .commands
        .iter()
        .map(|c| {
            let k = jobs
                .iter()
                .position(|j| j.app == c.app && j.memo == c.memo)
                .expect("every command has a job");
            let [run, stream, live] = measured[k].driver_ns;
            match c.driver {
                Driver::Run => run,
                Driver::Stream => stream,
                Driver::Live => live,
            }
        })
        .collect();
    Ok(Traced {
        metrics,
        per_app,
        command_ns,
        checked,
        mismatches,
        spans_json: spans.to_chrome_trace(workload.name),
        fault_ns_per_byte: normalize_time(fault_s, calib, 1) * 1e9,
    })
}

/// Replays one job: setup, input, the packet path in 4096-packet chunks,
/// each interpretation tier, the other memo mode, verification, the three
/// drivers, plus the isolated per-packet framework steps.
fn measure_job(
    spans: &mut Spans,
    job: &Job,
    pcap: &Path,
    reference: &str,
    mismatches: &mut Vec<String>,
) -> Result<JobLayers, String> {
    let config = WorkloadConfig::default();
    let id = job.app;
    let m = job.packets;
    let memo = if job.memo {
        MemoMode::On
    } else {
        MemoMode::Off
    };
    let err = |e: BenchError| e.to_string();
    let fresh = |mode: MemoMode| -> Result<PacketBench, String> {
        let app = App::build(id, &config).map_err(err)?;
        let mut bench = PacketBench::with_config(app, &config).map_err(err)?;
        bench.set_memo(mode);
        Ok(bench)
    };
    let ns = |secs: f64| secs * 1e9 / m as f64;

    // Setup, three times over: App::build (assembly and table
    // generation), the superblock predecode, and PacketBench::with_config
    // (which runs the app's init() and the predecode).
    let (mut build, mut predecode, mut with_config) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (app, b) = spans.time("apps.build", |_| App::build(id, &config));
        let app = app.map_err(err)?;
        let (_, p) = spans.time("bblock.predecode", |_| {
            black_box(BlockTable::build(app.image().program()))
        });
        let (bench, w) = spans.time("framework.with_config", |_| {
            PacketBench::with_config(app, &config)
        });
        bench.map_err(err)?;
        build.push(b);
        predecode.push(p);
        with_config.push(w);
    }
    let setup_s = median(&build) + median(&with_config);

    let (packets, read_s) = spans.time("nettrace.pcap_read", |_| oracle::read_pcap(pcap, m));
    let packets = packets?;
    let counts = Detail::counts();
    let mut record = PacketRecord::empty();

    let mut bench = fresh(memo)?;
    let (r, packet_s) = spans.time("framework.packets", |spans| {
        packets.chunks(4096).try_for_each(|chunk| {
            spans
                .time("framework.chunk", |_| {
                    chunk
                        .iter()
                        .try_for_each(|p| bench.process_packet_into(p, counts, &mut record))
                })
                .0
        })
    });
    r.map_err(err)?;
    let memo_counters = bench.memo_counters();
    let trace_stats = bench.trace_stats();
    let bailouts = bench.block_bailouts();
    let program = bench.app().image().program().clone();
    let map = bench.app().map();

    let mut tier_s = [0.0; 3];
    let mut instret = 0u64;
    for (k, (name, path)) in [
        ("cpu.counts", ExecPath::Counts),
        ("cpu.block", ExecPath::Block),
        ("cpu.trace", ExecPath::Trace),
    ]
    .into_iter()
    .enumerate()
    {
        let mut b = fresh(MemoMode::Off)?;
        let table = BlockTable::build(&program);
        let mut interp = ForcedCpu::new(Cpu::new(&program, map).with_blocks(&table), path);
        let run_config = RunConfig::default();
        instret = 0;
        let (r, s) = spans.time(name, |_| {
            packets.iter().try_for_each(|p| {
                b.process_packet_via(&mut interp, p, &run_config, &mut record)?;
                instret += record.stats.instret;
                Ok::<(), BenchError>(())
            })
        });
        r.map_err(err)?;
        tier_s[k] = s;
    }

    // The packet path above ran in the job's memo mode; replay the other.
    let (other, name) = if job.memo {
        (MemoMode::Off, "memo.off")
    } else {
        (MemoMode::On, "memo.on")
    };
    let mut b = fresh(other)?;
    let (r, other_s) = spans.time(name, |_| {
        packets
            .iter()
            .try_for_each(|p| b.process_packet_into(p, counts, &mut record))
    });
    r.map_err(err)?;
    let (memo_on_s, memo_off_s) = if job.memo {
        (packet_s, other_s)
    } else {
        (other_s, packet_s)
    };

    let mut b = fresh(memo)?;
    let (r, verify_s) = spans.time("framework.verify", |_| {
        packets.iter().try_for_each(|p| {
            b.process_packet_into(p, counts, &mut record)?;
            b.verify_record(p, &record)
        })
    });
    r.map_err(err)?;

    let mut check = |what: &str, report: &str| {
        if report != reference {
            mismatches.push(format!(
                "{what} {} over {m} packets: report differs from the reference",
                id.slug()
            ));
        }
    };
    let engine = Engine::with_config(id, config).memo(memo);
    let (run, engine_s) = spans.time("engine.run", |_| engine.run(&packets, counts, 1));
    let run = run.map_err(err)?;
    let (aggregate, fold_s) = spans.time("analysis.fold", |_| {
        let mut aggregate = StreamAggregate::new();
        for r in &run.records {
            aggregate.add_record(r);
        }
        aggregate
    });
    let (report, render_s) = spans.time("report.render", |_| {
        let mut report = String::new();
        for _ in 0..RENDERS {
            report = render_aggregate_report(id, &aggregate, false, false);
        }
        report
    });
    check("Engine::run", &report);
    let (_, drop_s) = spans.time("engine.drop", |_| drop(run));

    let (stream, stream_s) = spans.time("stream.run", |_| -> Result<_, String> {
        let file = File::open(pcap).map_err(|e| e.to_string())?;
        let reader = PcapReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
        let config = StreamConfig {
            threads: 1,
            chunk_size: 0,
            max_inflight: 0,
        };
        engine
            .run_streaming(Limited::new(reader, m as u64), counts, config)
            .map_err(err)
    });
    let stream = stream?;
    check(
        "run_streaming",
        &render_aggregate_report(id, &stream.aggregate, false, false),
    );

    let live_config = LiveConfig {
        threads: 1,
        ring: 0,
        burst: 0,
        rate: RateSpec::Max,
        loops: 0,
        on_full: OnFull::Wait,
        cap: Some(m as u64),
        metrics: false,
    };
    let source = SourceSpec::Pcap(pcap.to_path_buf());
    let (live, live_s) = spans.time("live.run", |_| {
        engine.run_live(&source, counts, live_config)
    });
    let live = live.map_err(err)?;
    check(
        "run_live",
        &render_aggregate_report(id, &live.aggregate, false, false),
    );

    let mut b = fresh(memo)?;
    let mut samples = Vec::with_capacity(m);
    let (r, _) = spans.time("framework.timed", |_| {
        packets.iter().try_for_each(|p| {
            let t = Instant::now();
            b.process_packet_into(p, counts, &mut record)?;
            samples.push(t.elapsed().as_secs_f64() * 1e9);
            Ok::<(), BenchError>(())
        })
    });
    r.map_err(err)?;

    // The per-packet framework steps, each alone.
    let (_, stage_s) = spans.time("mem.stage", |_| {
        let mut mem = Memory::new();
        for p in &packets {
            let l3 = p.l3();
            mem.write_bytes(map.packet_base, l3);
            mem.zero_range(map.packet_base + l3.len() as u32, 64);
        }
        black_box(&mem);
    });
    let table = BlockTable::build(&program);
    let (_, new_s) = spans.time("cpu.new", |_| {
        for _ in 0..m {
            black_box(Cpu::new(black_box(&program), map).with_blocks(&table));
        }
    });
    let (_, reset_s) = spans.time("cpu.reset", |_| {
        let mut stats = RunStats::for_program(program.len());
        for _ in 0..m {
            stats.reset_for(black_box(program.len()));
            black_box(&stats);
        }
    });

    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let lookups = memo_counters.hits + memo_counters.misses;
    let hit_ratio = share(memo_counters.hits, lookups);
    let (stage_ns, reset_ns, read_ns) = (ns(stage_s), ns(reset_s), ns(read_s));
    // A tier's interpretation time: its replay minus the staging and the
    // statistics reset every replayed packet also pays.
    let interp = |secs: f64| ns(secs) - stage_ns - reset_ns;
    let trace_ns = interp(tier_s[2]);
    let packet_ns = ns(packet_s);
    let inst_per_pkt = instret as f64 / m as f64;
    let setup_ns = ns(setup_s);
    let render_ns = ns(render_s) / f64::from(RENDERS);
    let run_ns = ns(engine_s + drop_s) - setup_ns;
    let stream_ns = ns(stream_s) - setup_ns;
    let live_ns = ns(live_s) - setup_ns;
    let idle = |w: &[WorkerMetrics]| {
        let (busy, idle) = w
            .iter()
            .fold((0, 0), |(b, i), w| (b + w.busy_ns, i + w.idle_ns));
        share(idle, busy + idle)
    };
    let ms = |v: &[f64]| median(v) * 1e3;
    let values = vec![
        ("apps.build_ms", ms(&build)),
        ("bblock.predecode_ms", ms(&predecode)),
        (
            "framework.init_ms",
            (ms(&with_config) - ms(&predecode)).max(0.0),
        ),
        ("nettrace.pcap_read_ns", read_ns),
        ("framework.packet_ns", packet_ns),
        // Only packets that miss the memo cache are interpreted.
        (
            "framework.overhead_ns",
            packet_ns - (1.0 - hit_ratio) * trace_ns,
        ),
        ("mem.stage_ns", stage_ns),
        ("cpu.new_ns", ns(new_s)),
        ("cpu.reset_ns", reset_ns),
        ("cpu.counts_ns", interp(tier_s[0])),
        ("cpu.block_ns", interp(tier_s[1])),
        ("cpu.trace_ns", trace_ns),
        (
            "cpu.ns_per_inst",
            if inst_per_pkt > 0.0 {
                trace_ns / inst_per_pkt
            } else {
                0.0
            },
        ),
        ("cpu.inst_per_pkt", inst_per_pkt),
        (
            "trace.trip_ratio",
            share(trace_stats.hits, trace_stats.hits + trace_stats.guard_exits),
        ),
        ("bblock.bailouts_per_pkt", share(bailouts, m as u64)),
        ("memo.hit_ratio", hit_ratio),
        ("memo.delta_ns", ns(memo_on_s) - ns(memo_off_s)),
        (
            "memo.evictions_per_kpkt",
            share(memo_counters.evictions * 1000, m as u64),
        ),
        ("engine.driver_ns", run_ns - packet_ns),
        ("stream.driver_ns", stream_ns - packet_ns - read_ns),
        ("stream.worker_idle_frac", idle(&stream.workers)),
        ("live.driver_ns", live_ns - packet_ns - read_ns),
        ("live.worker_idle_frac", idle(&live.workers)),
        ("framework.verify_ns", ns(verify_s) - packet_ns),
        ("analysis.fold_ns", ns(fold_s)),
        ("report.render_us", render_s / f64::from(RENDERS) * 1e6),
    ];
    // Each driver's command as a sum of layer self times per packet:
    // input + packet path + driver (+ fold) + render.
    let driver_ns = [
        read_ns + run_ns + ns(fold_s) + render_ns,
        stream_ns + render_ns,
        live_ns + render_ns,
    ];
    Ok(JobLayers {
        values,
        samples,
        driver_ns,
    })
}

/// Seconds per byte to first-touch and release fresh memory: the page
/// faults and unmapping a `pb run` pays for every byte it retains, which
/// an in-process replay, reusing its freed heap, does not.
fn fresh_memory_s_per_byte() -> f64 {
    const BYTES: usize = 32 << 20;
    let start = Instant::now();
    // Zeroed allocations this large are fresh, untouched pages.
    let mut block = vec![0u8; BYTES];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    drop(black_box(block));
    start.elapsed().as_secs_f64() / BYTES as f64
}

/// Seconds per item handed from a producer thread to a consumer through
/// an `npstream::BoundedQueue` the size of the stream driver's window.
fn queue_handoff_s(items: usize) -> f64 {
    let queue = BoundedQueue::new(4);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..items {
                if queue.push(i).is_err() {
                    break;
                }
            }
            queue.close();
        });
        let mut sum = 0usize;
        while let Some(i) = queue.pop() {
            sum = sum.wrapping_add(i);
        }
        black_box(sum);
    });
    start.elapsed().as_secs_f64() / items as f64
}

/// Seconds per packet through one `npring` lane: a producer thread copies
/// each packet into a pool slot, the consumer dequeues bursts and retires
/// them, as `pb live --on-full wait` does minus the simulation.
fn ring_s(packets: &[Packet]) -> f64 {
    let npring::Lane {
        mut producer,
        mut consumer,
    } = npring::lane(LiveConfig::DEFAULT_RING);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, p) in packets.iter().enumerate() {
                producer.offer_wait(i as u64, p, || false);
            }
            producer.close();
        });
        let mut bytes = 0usize;
        let mut draining = false;
        let mut spins = 0u32;
        loop {
            let n = consumer.dequeue_burst(npring::MAX_BURST);
            if n == 0 {
                if draining {
                    break;
                }
                // Closed before an empty dequeue means fully drained
                // after one more look.
                draining = consumer.is_closed();
                spins += 1;
                if spins.is_multiple_of(256) {
                    std::thread::yield_now();
                }
                continue;
            }
            for i in 0..n {
                bytes += consumer.packet(i).l3().len();
            }
            consumer.retire_burst();
        }
        black_box(bytes);
    });
    start.elapsed().as_secs_f64() / packets.len().max(1) as f64
}
