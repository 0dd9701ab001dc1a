//! End-to-end tests of the deterministic exports at the CLI: `pb profile`
//! with `--metrics-out` prints and writes the golden fixtures byte for
//! byte (JSON and Prometheus text), and `pb run --deterministic --timeline-out` writes the golden
//! timeline at any thread count. The library-level goldens
//! (`profile_golden.rs`, `timeline_golden.rs`) pin the same files.

use std::path::PathBuf;
use std::process::{Command, Output};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

fn pb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pb"))
        .args(args)
        .output()
        .expect("pb runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is utf-8")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}")).expect("golden fixture exists")
}

/// A per-test scratch file path, unique across concurrently running tests.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pb_cli_observability_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Asserts exit 2 with `needle` and the usage text on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = pb(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "args {args:?}: stdout not empty");
    let err = stderr(&out);
    assert!(err.contains(needle), "args {args:?}: stderr was: {err}");
    assert!(err.contains("USAGE:"), "args {args:?}: no usage text");
}

const PROFILE: [&str; 7] = ["profile", "radix", "MRA", "-n", "40", "--seed", "42"];

#[test]
fn profile_prints_and_writes_the_golden_fixtures() {
    let path = scratch("metrics.json");
    let path_s = path.to_str().unwrap();
    let out = pb(&[&PROFILE[..], &["--metrics-out", path_s, "--deterministic"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        String::from_utf8(out.stdout).unwrap() == golden("profile_radix_mra.txt"),
        "pb profile stdout drifted from tests/golden/profile_radix_mra.txt"
    );
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        written == golden("metrics_radix_mra.json"),
        "--metrics-out drifted from tests/golden/metrics_radix_mra.json:\n{written}"
    );
}

#[test]
fn profile_writes_prometheus_text() {
    let path = scratch("metrics.prom");
    let path_s = path.to_str().unwrap();
    let args = ["--metrics-out", path_s, "--metrics-format", "prom"];
    let out = pb(&[&PROFILE[..], &args, &["--deterministic"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        written.contains("pb_packets_total{app=\"radix\",trace=\"MRA\"} 40"),
        "{written}"
    );
    assert!(
        written == golden("metrics_radix_mra.prom"),
        "--metrics-format prom drifted from tests/golden/metrics_radix_mra.prom:\n{written}"
    );
}

#[test]
fn metrics_options_without_metrics_out_are_usage_errors() {
    assert_usage_error(
        &[&PROFILE[..], &["--metrics-format", "prom"]].concat(),
        "--metrics-format needs --metrics-out",
    );
    assert_usage_error(
        &[&PROFILE[..], &["--deterministic"]].concat(),
        "--deterministic needs --metrics-out",
    );
}

#[test]
fn report_is_an_unknown_command() {
    assert_usage_error(
        &["report", "--app", "radix", "--metrics", "json"],
        "unknown command `report`",
    );
}

#[test]
fn run_timeline_out_matches_the_golden_at_any_thread_count() {
    let want = golden("timeline_radix_mra.json");
    for threads in ["1", "4"] {
        let path = scratch(&format!("timeline_{threads}.json"));
        let path_s = path.to_str().unwrap();
        let out = pb(&[
            "run",
            "--app",
            "radix",
            "--trace",
            "MRA",
            "-n",
            "40",
            "--seed",
            "42",
            "--threads",
            threads,
            "--deterministic",
            "--timeline-interval",
            "8",
            "--timeline-out",
            path_s,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            written == want,
            "{threads} threads: timeline drifted from tests/golden/timeline_radix_mra.json"
        );
    }
}
