//! Artifact provenance: schema version, git commit, ISO-8601 timestamp.
//!
//! Every metrics document and timeline the workspace writes gets a
//! [`Stamp`] so a file found on disk (or attached to a CI run) can be
//! traced back to the commit and time that produced it, and so consumers
//! can detect schema drift. No external crates: the commit comes from
//! invoking `git` (falling back to `"unknown"`), and the timestamp from
//! [`SystemTime`] via a small proleptic-Gregorian conversion.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Version of the metrics-document JSON layout ([`crate::MetricsDoc`]).
/// v2 added `block_bailouts` to the per-worker records (JSON and
/// Prometheus `pb_worker_block_bailouts_total`); v3 added per-worker
/// `ring_dropped` and the optional `ring` section (`pb live` telemetry:
/// `pb_ring_dropped_total`, occupancy and burst-size histograms); v4
/// added the per-worker trace-cache counters (`traces_formed`,
/// `trace_hits`, `trace_guard_exits`, `trace_declines`; Prometheus
/// `pb_trace_*_total`).
pub const METRICS_SCHEMA_VERSION: u32 = 4;

/// Provenance attached to exported artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Layout version of the document carrying this stamp.
    pub schema_version: u32,
    /// Abbreviated git commit of the workspace, or `"unknown"`.
    pub git_commit: String,
    /// UTC wall-clock time in ISO-8601 (`2026-08-06T12:34:56Z`).
    pub timestamp: String,
}

impl Stamp {
    /// A stamp for the current commit and wall clock.
    pub fn new(schema_version: u32) -> Stamp {
        Stamp {
            schema_version,
            git_commit: git_commit(),
            timestamp: iso8601_now(),
        }
    }

    /// A reproducible stamp: commit and timestamp pinned to fixed values.
    /// Used by `--deterministic` exports so CI can diff output bytes
    /// against golden fixtures.
    pub fn deterministic(schema_version: u32) -> Stamp {
        Stamp {
            schema_version,
            git_commit: "deterministic".to_string(),
            timestamp: "1970-01-01T00:00:00Z".to_string(),
        }
    }

    /// The stamp as JSON object fields (no surrounding braces), for
    /// splicing into hand-rolled JSON documents.
    pub fn json_fields(&self) -> String {
        format!(
            "\"schema_version\": {}, \"git_commit\": \"{}\", \"timestamp\": \"{}\"",
            self.schema_version, self.git_commit, self.timestamp
        )
    }
}

/// The workspace's abbreviated HEAD commit, `"unknown"` when git is
/// unavailable (e.g. a source tarball).
pub fn git_commit() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output();
    match out {
        Ok(out) if out.status.success() => {
            let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if s.is_empty() {
                "unknown".to_string()
            } else {
                s
            }
        }
        _ => "unknown".to_string(),
    }
}

/// The current UTC time as `YYYY-MM-DDThh:mm:ssZ`.
pub fn iso8601_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso8601_from_unix(secs)
}

/// Formats Unix seconds as ISO-8601 UTC.
pub fn iso8601_from_unix(secs: u64) -> String {
    let days = secs / 86_400;
    let rem = secs % 86_400;
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Days since 1970-01-01 to (year, month, day) in the proleptic
/// Gregorian calendar (Howard Hinnant's civil_from_days algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_unix_times_format_correctly() {
        assert_eq!(iso8601_from_unix(0), "1970-01-01T00:00:00Z");
        // 2000-02-29 (leap day) 12:34:56 UTC.
        assert_eq!(iso8601_from_unix(951_827_696), "2000-02-29T12:34:56Z");
        // 2026-08-06 00:00:00 UTC.
        assert_eq!(iso8601_from_unix(1_785_974_400), "2026-08-06T00:00:00Z");
        // End-of-year boundary.
        assert_eq!(iso8601_from_unix(1_767_225_599), "2025-12-31T23:59:59Z");
    }

    #[test]
    fn now_looks_like_iso8601() {
        let s = iso8601_now();
        assert_eq!(s.len(), 20, "{s}");
        assert_eq!(&s[4..5], "-");
        assert_eq!(&s[10..11], "T");
        assert!(s.ends_with('Z'));
    }

    #[test]
    fn deterministic_stamp_is_fixed() {
        let s = Stamp::deterministic(METRICS_SCHEMA_VERSION);
        assert_eq!(
            s.json_fields(),
            format!(
                "\"schema_version\": {METRICS_SCHEMA_VERSION}, \
                 \"git_commit\": \"deterministic\", \
                 \"timestamp\": \"1970-01-01T00:00:00Z\""
            )
        );
    }

    #[test]
    fn live_stamp_has_plausible_fields() {
        let s = Stamp::new(METRICS_SCHEMA_VERSION);
        assert!(!s.git_commit.is_empty());
        assert!(s.timestamp.ends_with('Z'));
    }
}
