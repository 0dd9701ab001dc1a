//! End-to-end tests of `pb live`: stdout byte-identity with `pb run`
//! when no packets drop, exact drop accounting under overload, and
//! usage-error handling (exit 2, offending key/value named on stderr).

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

/// Parses the `live: produced N dropped N retired N` stderr line.
fn live_line(err: &str) -> (u64, u64, u64) {
    let line = err
        .lines()
        .find(|l| l.starts_with("live: produced "))
        .unwrap_or_else(|| panic!("no live accounting line in: {err}"));
    let fields: Vec<&str> = line.split_whitespace().collect();
    (
        fields[2].parse().expect("produced"),
        fields[4].parse().expect("dropped"),
        fields[6].parse().expect("retired"),
    )
}

#[test]
fn zero_drop_live_report_is_byte_identical_to_run() {
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
        let live = pb(&[
            "live",
            "trie",
            "synth:mra:seed=9:packets=400",
            "--threads",
            threads,
            "--rate",
            "max",
            "--on-full",
            "wait",
        ]);
        assert!(
            live.status.success(),
            "pb live failed at {threads} threads: {}",
            stderr(&live)
        );
        assert_eq!(stdout(&live), want, "threads {threads}");
        let (produced, dropped, retired) = live_line(&stderr(&live));
        assert_eq!(
            (produced, dropped, retired),
            (400, 0, 400),
            "threads {threads}"
        );
    }
}

#[test]
fn overload_accounting_is_exact() {
    // A one-slot pool with an unpaced producer must drop, and every
    // offered packet must land in exactly one counter.
    let out = pb(&[
        "live",
        "trie",
        "synth:mra:seed=1:packets=3000",
        "--threads",
        "2",
        "--ring",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let (produced, dropped, retired) = live_line(&stderr(&out));
    assert_eq!(produced, 3000);
    assert_eq!(produced, dropped + retired, "identity violated");
    assert!(dropped > 0, "one-slot pools must overflow");
}

#[test]
fn looped_replay_multiplies_the_source() {
    let out = pb(&[
        "live",
        "radix",
        "synth:mra:seed=5:packets=60",
        "--loops",
        "3",
        "--on-full",
        "wait",
        "--threads",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let (produced, dropped, retired) = live_line(&stderr(&out));
    assert_eq!((produced, dropped, retired), (180, 0, 180));
}

#[test]
fn metrics_out_carries_the_ring_section() {
    let dir = std::env::temp_dir().join("pb_cli_live_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live_metrics.json");
    let path_s = path.to_str().unwrap();
    let out = pb(&[
        "live",
        "trie",
        "synth:mra:seed=3:packets=200",
        "--threads",
        "2",
        "--on-full",
        "wait",
        "--metrics-out",
        path_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let body = std::fs::read_to_string(&path).unwrap();
    for needle in [
        "\"schema_version\": 4",
        "\"ring\": {",
        "\"traces_formed\":",
        "\"produced\": 200",
        "\"dropped\": 0",
        "\"retired\": 200",
        "\"occupancy\":",
        "\"bursts\":",
        "\"ring_dropped\": 0",
    ] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }
    assert_eq!(body.matches('{').count(), body.matches('}').count());

    // The Prometheus rendering exposes the same counters.
    let prom_path = dir.join("live_metrics.prom");
    let prom_s = prom_path.to_str().unwrap();
    let out = pb(&[
        "live",
        "trie",
        "synth:mra:seed=3:packets=200",
        "--on-full",
        "wait",
        "--metrics-out",
        prom_s,
        "--metrics-format",
        "prom",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    for needle in [
        "pb_ring_produced_total",
        "pb_ring_dropped_total",
        "pb_ring_retired_total",
        "pb_ring_occupancy_bucket",
        "pb_ring_burst_size_count",
    ] {
        assert!(prom.contains(needle), "missing {needle} in {prom}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&prom_path).ok();
}

#[test]
fn deterministic_metrics_are_reproducible() {
    // `--deterministic` pins what varies with timing: the stamp, the run
    // time, each worker's busy and idle time and the ring histograms.
    // Under `--on-full wait` every other field is a function of the
    // source and the sharding, so two runs write the same bytes.
    let dir = std::env::temp_dir().join(format!("pb_cli_live_pinned_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for format in ["json", "prom"] {
        let runs: Vec<String> = (0..2)
            .map(|i| {
                let path = dir.join(format!("run{i}.{format}"));
                let out = pb(&[
                    "live",
                    "trie",
                    "synth:mra:seed=1:packets=200",
                    "--on-full",
                    "wait",
                    "--threads",
                    "2",
                    "--deterministic",
                    "--metrics-out",
                    path.to_str().unwrap(),
                    "--metrics-format",
                    format,
                ]);
                assert!(out.status.success(), "{}", stderr(&out));
                let body = std::fs::read_to_string(&path).unwrap();
                std::fs::remove_file(&path).ok();
                body
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{format} differs between runs");
        let needles: &[&str] = if format == "json" {
            &[
                "\"git_commit\": \"deterministic\"",
                "\"elapsed_ns\": 0,",
                "\"busy_ns\": 0, \"idle_ns\": 0,",
                "\"produced\": 200,",
                "\"occupancy\": {\"count\": 0, \"min\": 0, \"max\": 0, \"mean\": 0.0, \"buckets\": []},",
                "\"bursts\": {\"count\": 0, \"min\": 0, \"max\": 0, \"mean\": 0.0, \"buckets\": []}",
            ]
        } else {
            &[
                "git_commit=\"deterministic\"",
                "pb_run_elapsed_ns{app=\"trie\",trace=\"synth:mra:seed=1:packets=200\"} 0",
                "pb_worker_busy_ns{app=\"trie\",trace=\"synth:mra:seed=1:packets=200\",worker=\"1\"} 0",
                "pb_ring_produced_total{app=\"trie\",trace=\"synth:mra:seed=1:packets=200\"} 200",
                "pb_ring_burst_size_count{app=\"trie\",trace=\"synth:mra:seed=1:packets=200\"} 0",
            ]
        };
        for needle in needles {
            assert!(runs[0].contains(needle), "missing {needle} in {}", runs[0]);
        }
    }
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
fn malformed_rate_is_a_usage_error_naming_the_value() {
    assert_usage_error(
        &["live", "trie", "synth:mra:packets=10", "--rate", "fast"],
        "bad rate `fast`",
    );
    assert_usage_error(
        &["live", "trie", "synth:mra:packets=10", "--rate", "0"],
        "bad rate `0`",
    );
}

#[test]
fn unknown_synth_option_is_a_usage_error_naming_key_and_value() {
    let out = pb(&["live", "trie", "synth:mra:sed=1"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("unknown synth option `sed`") && err.contains("(value `1`)"),
        "stderr was: {err}"
    );
}

#[test]
fn bad_option_value_is_a_usage_error_naming_key_and_value() {
    assert_usage_error(
        &["live", "trie", "synth:mra:packets=lots"],
        "bad value `lots` for synth option `packets`",
    );
}

#[test]
fn zero_sizings_are_usage_errors() {
    for (flag, needle) in [
        ("--threads", "--threads must be at least 1"),
        ("--ring", "--ring must be at least 1"),
        ("--burst", "--burst must be at least 1"),
        ("--loops", "--loops must be at least 1"),
    ] {
        assert_usage_error(&["live", "trie", "synth:mra:packets=10", flag, "0"], needle);
    }
}

#[test]
fn bad_on_full_is_a_usage_error() {
    assert_usage_error(
        &["live", "trie", "synth:mra:packets=10", "--on-full", "stall"],
        "bad --on-full value `stall` (drop|wait)",
    );
}

#[test]
fn unbounded_source_is_a_usage_error() {
    assert_usage_error(&["live", "trie", "synth:mra"], "unbounded");
}

#[test]
fn explicit_n_caps_an_unbounded_source() {
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
    let live = pb(&[
        "live",
        "radix",
        "synth:mra:seed=5",
        "-n",
        "120",
        "--on-full",
        "wait",
        "--threads",
        "2",
    ]);
    assert!(live.status.success(), "{}", stderr(&live));
    assert_eq!(stdout(&live), stdout(&run));
}

#[test]
fn unknown_app_and_missing_source_are_usage_errors() {
    assert_usage_error(
        &["live", "nosuch", "synth:mra:packets=10"],
        "unknown application",
    );
    assert_usage_error(&["live", "trie"], "usage: pb live");
}
