//! Command-line handling of the `report` binary: an argument its usage
//! does not name is a usage error (exit 2, the argument named on stderr,
//! the usage after it), and `--help` prints the usage.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("output is utf-8")
}

#[test]
fn unknown_arguments_are_usage_errors_naming_the_argument() {
    for (args, needle) in [
        (&["tabel1"][..], "unknown exhibit `tabel1`"),
        (&["--bogus", "table1"][..], "report does not take --bogus"),
        (&["--threads", "x", "table1"][..], "bad --threads value `x`"),
        (&["table1", "--threads"][..], "--threads needs a value"),
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out.stdout));
        let err = text(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: report"), "{args:?}: {err}");
    }
}

#[test]
fn help_prints_the_usage_naming_every_exhibit() {
    let out = report(&["--help"]);
    assert!(out.status.success());
    let usage = text(&out.stdout);
    for exhibit in [
        "table1",
        "table6",
        "fig9",
        "flowgraph",
        "partition",
        "delay",
        "ppa",
        "uarch",
        "--threads",
        "--quick",
    ] {
        assert!(usage.contains(exhibit), "usage omits {exhibit}: {usage}");
    }
}

#[test]
fn a_named_exhibit_prints_alone() {
    let out = report(&["--quick", "--threads", "1", "table1"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.starts_with("Table I"), "{stdout}");
    assert!(!stdout.contains("Table II:"), "{stdout}");
}
