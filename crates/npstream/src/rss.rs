//! Peak-RSS probing for the bounded-memory guarantee.
//!
//! The streaming pipeline's whole point is that memory stays flat while
//! the trace grows; `pb` shows that by reporting the process's
//! high-water resident set after a run. On Linux
//! this is `VmHWM` in `/proc/self/status`; elsewhere the probe reports
//! `None` and callers degrade to reporting throughput only.

/// The process's peak resident set size in kilobytes, if the platform
/// exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_lines() {
        let status = "Name:\tpb\nVmPeak:\t  123456 kB\nVmHWM:\t   78912 kB\nThreads:\t4\n";
        assert_eq!(parse_vm_hwm(status), Some(78_912));
        assert_eq!(parse_vm_hwm("Name:\tpb\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_probe_reports_a_sane_value() {
        let kb = peak_rss_kb().expect("VmHWM on linux");
        // Any running test binary has touched at least 100 KiB and fewer
        // than 100 GiB.
        assert!(kb > 100 && kb < 100 * 1024 * 1024, "{kb} kB");
    }
}
