//! End-to-end tests of `pb stream`: stdout byte-identity with `pb run`
//! across thread counts and chunk sizes, usage-error handling (exit code
//! 2, message on stderr, nothing on stdout), and the stderr memo line.

use std::process::{Command, Output};

fn pb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pb"))
        .args(args)
        .output()
        .expect("pb runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is utf-8")
}

#[test]
fn stream_report_is_byte_identical_to_run() {
    let run = pb(&[
        "run",
        "--app",
        "trie",
        "--trace",
        "MRA",
        "-n",
        "400",
        "--seed",
        "9",
        "--threads",
        "1",
    ]);
    assert!(run.status.success(), "pb run failed: {}", stderr(&run));
    let want = stdout(&run);
    assert!(want.contains("application:"), "unexpected report: {want}");

    for threads in ["1", "4", "7"] {
        for chunk_size in ["1", "64", "4096"] {
            let stream = pb(&[
                "stream",
                "trie",
                "synth:mra:seed=9:packets=400",
                "--threads",
                threads,
                "--chunk-size",
                chunk_size,
            ]);
            assert!(
                stream.status.success(),
                "pb stream failed at {threads}/{chunk_size}: {}",
                stderr(&stream)
            );
            assert_eq!(
                stdout(&stream),
                want,
                "threads {threads}, chunk size {chunk_size}"
            );
        }
    }
}

#[test]
fn run_over_a_pcap_is_byte_identical_to_stream() {
    use nettrace::pcap::PcapWriter;
    use nettrace::synth::{SyntheticTrace, TraceProfile};
    use nettrace::LinkType;

    // Zipf traffic, so `--memo on` serves most packets from the cache.
    let dir = std::env::temp_dir().join("pb_cli_run_pcap_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zipf.pcap");
    let mut file = Vec::new();
    let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 65535).unwrap();
    for packet in SyntheticTrace::new(TraceProfile::zipf(), 11).take_packets(700) {
        writer.write_packet(&packet).unwrap();
    }
    writer.into_inner().unwrap();
    std::fs::write(&path, file).unwrap();
    let path = path.to_str().unwrap();

    for app in ["radix", "trie"] {
        let reference = pb(&["run", "--app", app, "--pcap", path, "-n", "600"]);
        assert!(reference.status.success(), "{}", stderr(&reference));
        let want = stdout(&reference);
        assert!(want.contains("packets:                600"), "{want}");
        for threads in ["1", "4", "7"] {
            for memo in ["off", "on"] {
                let common = ["--threads", threads, "--memo", memo, "-n", "600"];
                let run = pb(&[&["run", "--app", app, "--pcap", path][..], &common].concat());
                let stream = pb(&[&["stream", app, path][..], &common].concat());
                for (what, out) in [("run", &run), ("stream", &stream)] {
                    assert!(out.status.success(), "{what}: {}", stderr(out));
                    assert_eq!(
                        stdout(out),
                        want,
                        "{what} {app} threads {threads} memo {memo}"
                    );
                }
            }
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn stream_verify_and_uarch_match_run() {
    let run = pb(&[
        "run",
        "--app",
        "flow",
        "--trace",
        "COS",
        "-n",
        "200",
        "--seed",
        "3",
        "--threads",
        "1",
        "--verify",
        "--uarch",
    ]);
    assert!(run.status.success(), "pb run failed: {}", stderr(&run));
    let want = stdout(&run);
    assert!(want.contains("modelled CPI:"), "{want}");
    assert!(want.contains("golden-model check:"), "{want}");

    let stream = pb(&[
        "stream",
        "flow",
        "synth:cos:seed=3:packets=200",
        "--threads",
        "4",
        "--chunk-size",
        "17",
        "--verify",
        "--uarch",
    ]);
    assert!(stream.status.success(), "{}", stderr(&stream));
    assert_eq!(stdout(&stream), want);
}

#[test]
fn explicit_n_caps_the_source() {
    let run = pb(&[
        "run",
        "--app",
        "radix",
        "--trace",
        "MRA",
        "-n",
        "120",
        "--seed",
        "5",
        "--threads",
        "1",
    ]);
    let stream = pb(&[
        "stream",
        "radix",
        "synth:mra:seed=5",
        "-n",
        "120",
        "--threads",
        "2",
    ]);
    assert!(stream.status.success(), "{}", stderr(&stream));
    assert_eq!(stdout(&stream), stdout(&run));
}

/// The `memo:` line of a run's stderr (empty if there is none).
fn memo_line(out: &Output) -> String {
    stderr(out)
        .lines()
        .find(|l| l.starts_with("memo:"))
        .unwrap_or_default()
        .to_string()
}

#[test]
fn memo_line_says_an_empty_run_had_no_packets() {
    // radix is memoizable, but with no packets no worker built a bench,
    // so nothing was decided.
    for threads in ["1", "3"] {
        let out = pb(&[
            "run",
            "--app",
            "radix",
            "--memo",
            "on",
            "-n",
            "0",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let line = memo_line(&out);
        assert!(
            line.ends_with("inactive (no packets)"),
            "threads {threads}: {line:?}"
        );
    }
}

#[test]
fn memo_line_names_why_an_app_is_refused() {
    // tsa declares a key, but the write guard vetoes a store; the line
    // names that store.
    let tsa = pb(&[
        "run",
        "--app",
        "tsa",
        "--trace",
        "zipf",
        "--memo",
        "on",
        "-n",
        "50",
        "--threads",
        "1",
    ]);
    assert!(tsa.status.success(), "{}", stderr(&tsa));
    let line = memo_line(&tsa);
    assert!(
        line.contains("inactive (write guard: store `")
            && line.ends_with("targets statically unresolvable memory)"),
        "{line:?}"
    );
    // Workers given no packets do not hide the refusal.
    let idle = pb(&[
        "run",
        "--app",
        "tsa",
        "--memo",
        "on",
        "-n",
        "2",
        "--threads",
        "4",
    ]);
    assert!(idle.status.success(), "{}", stderr(&idle));
    assert_eq!(memo_line(&idle), line);
    let flow = pb(&["stream", "flow", "synth:zipf:packets=50", "--memo", "check"]);
    assert!(flow.status.success(), "{}", stderr(&flow));
    let line = memo_line(&flow);
    assert!(
        line.ends_with("inactive (the application declares no memo key)"),
        "{line:?}"
    );
}

#[test]
fn memo_line_counts_lookups_or_names_uarch() {
    // A memoizable application that consulted its cache reports the
    // traffic; with `--uarch` it never consults it, and says why.
    let hits = pb(&["run", "--app", "radix", "--memo", "on", "-n", "200"]);
    assert!(hits.status.success(), "{}", stderr(&hits));
    assert_eq!(
        memo_line(&hits),
        "memo:                   0 hits / 200 misses (0.0% hit rate, 0 evictions)"
    );
    let uarch = pb(&[
        "run", "--app", "radix", "--memo", "on", "--uarch", "-n", "50",
    ]);
    assert!(uarch.status.success(), "{}", stderr(&uarch));
    assert_eq!(
        memo_line(&uarch),
        "memo:                   inactive (--uarch runs are never memoized)"
    );
}

/// Asserts a usage failure: exit 2, empty stdout, the offending message
/// plus the usage text on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = pb(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: expected exit 2, got {:?} (stderr: {})",
        out.status.code(),
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "args {args:?}: stdout not empty");
    let err = stderr(&out);
    assert!(err.contains(needle), "args {args:?}: stderr was: {err}");
    assert!(err.contains("USAGE:"), "args {args:?}: no usage text");
}

#[test]
fn zero_threads_is_a_usage_error() {
    assert_usage_error(
        &["stream", "trie", "synth:mra:packets=10", "--threads", "0"],
        "--threads must be at least 1",
    );
}

#[test]
fn zero_chunk_size_is_a_usage_error() {
    assert_usage_error(
        &[
            "stream",
            "trie",
            "synth:mra:packets=10",
            "--chunk-size",
            "0",
        ],
        "--chunk-size must be at least 1",
    );
}

#[test]
fn zero_max_inflight_is_a_usage_error() {
    assert_usage_error(
        &[
            "stream",
            "trie",
            "synth:mra:packets=10",
            "--max-inflight",
            "0",
        ],
        "--max-inflight must be at least 1",
    );
}

#[test]
fn unknown_synth_profile_is_a_usage_error() {
    assert_usage_error(
        &["stream", "trie", "synth:bogus:packets=10"],
        "unknown synth profile `bogus`",
    );
}

#[test]
fn unbounded_synth_source_is_a_usage_error() {
    assert_usage_error(&["stream", "trie", "synth:mra"], "unbounded");
}

#[test]
fn unknown_app_and_missing_source_are_usage_errors() {
    assert_usage_error(
        &["stream", "nosuch", "synth:mra:packets=10"],
        "unknown application",
    );
    assert_usage_error(&["stream", "trie"], "usage: pb stream");
}

#[test]
fn misspelled_options_are_usage_errors_naming_the_option() {
    // A misspelled option must fail loudly, never run with its default.
    for (args, option) in [
        (
            &["run", "--app", "trie", "-n", "10", "--treads", "1"][..],
            "--treads",
        ),
        (
            &[
                "stream",
                "trie",
                "synth:mra:seed=1:packets=100",
                "--chunksize",
                "8",
            ],
            "--chunksize",
        ),
        (
            &["live", "trie", "synth:mra:packets=10", "--on-ful", "wait"],
            "--on-ful",
        ),
        (
            &["profile", "radix", "MRA", "-n", "10", "--bogus", "1"],
            "--bogus",
        ),
        // `--progress` is the one status flag.
        (
            &["stream", "trie", "synth:mra:packets=10", "--watch"],
            "--watch",
        ),
    ] {
        assert_usage_error(args, &format!("{} does not take {option}", args[0]));
    }
}

#[test]
fn profile_takes_no_memo_option() {
    // A memo hit skips simulation, so the heat observer would never see
    // it; the profiler always simulates every packet.
    assert_usage_error(
        &["profile", "radix", "MRA", "-n", "10", "--memo", "on"],
        "profile does not take --memo",
    );
}

#[test]
fn missing_pcap_file_is_a_runtime_error() {
    let out = pb(&["stream", "trie", "/nonexistent/trace.pcap"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stdout(&out).is_empty());
}

#[test]
fn stream_reports_peak_rss_or_says_unavailable() {
    let out = pb(&["stream", "trie", "synth:mra:seed=2:packets=100"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("peak rss:"),
        "no peak rss line on stderr: {err}"
    );
    // Either a real kB figure or an explicit "unavailable" — never a
    // silent zero.
    assert!(
        err.contains(" kB") || err.contains("unavailable"),
        "peak rss line is neither a figure nor 'unavailable': {err}"
    );
    assert!(!err.contains("peak rss:               0 kB"), "{err}");
}

#[test]
fn trace_out_writes_a_chrome_trace_file() {
    let dir = std::env::temp_dir().join("pb_cli_trace_out_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.trace.json");
    let path_s = path.to_str().unwrap();
    let out = pb(&[
        "stream",
        "trie",
        "synth:mra:seed=7:packets=3000",
        "--threads",
        "2",
        "--trace-out",
        path_s,
        "--timeline-interval",
        "64",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("wrote chrome trace"),
        "{}",
        stderr(&out)
    );
    let body = std::fs::read_to_string(&path).unwrap();
    // Chrome trace-event envelope with metadata, span, and counter
    // events, named lanes, and balanced JSON.
    assert!(body.starts_with("{\"displayTimeUnit\": \"ms\""), "{body}");
    for needle in [
        "\"traceEvents\": [",
        "\"ph\": \"M\"",
        "\"ph\": \"X\"",
        "\"ph\": \"C\"",
        "\"name\": \"reader\"",
        "\"name\": \"merger\"",
        "\"name\": \"worker 0\"",
    ] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }
    assert_eq!(body.matches('{').count(), body.matches('}').count());
    assert_eq!(body.matches('[').count(), body.matches(']').count());
    std::fs::remove_file(&path).ok();
}

#[test]
fn deterministic_timeline_out_is_thread_invariant_end_to_end() {
    let dir = std::env::temp_dir().join("pb_cli_timeline_out_test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut bodies = Vec::new();
    for threads in ["1", "4", "7"] {
        let path = dir.join(format!("tl_{threads}.json"));
        let path_s = path.to_str().unwrap();
        let out = pb(&[
            "stream",
            "radix",
            "synth:mra:seed=42:packets=500",
            "--threads",
            threads,
            "--deterministic",
            "--timeline-out",
            path_s,
            "--timeline-interval",
            "32",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        bodies.push(std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(bodies[0], bodies[1], "1 vs 4 threads");
    assert_eq!(bodies[1], bodies[2], "4 vs 7 threads");
    assert!(
        bodies[0].contains("\"clock\": \"logical\""),
        "{}",
        bodies[0]
    );
}

#[test]
fn deterministic_trace_out_is_a_usage_error() {
    assert_usage_error(
        &[
            "stream",
            "trie",
            "synth:mra:packets=10",
            "--deterministic",
            "--trace-out",
            "/tmp/nope.json",
        ],
        "--trace-out records wall-clock spans",
    );
}
