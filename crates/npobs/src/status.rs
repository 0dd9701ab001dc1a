//! A shared, rate-limited status-line writer for stderr.
//!
//! Several parts of a run want to talk on stderr while workers are busy:
//! the engine's periodic `--progress` refresh and the flow-memoization
//! summary. Each used to call
//! `eprintln!` on its own, which takes the stderr lock per *fragment* —
//! two threads printing at once could interleave mid-line. [`StatusLine`]
//! fixes both problems at once:
//!
//! * every line is formatted into a buffer first and emitted with one
//!   `write_all`, so a line is the atomic unit on the stream;
//! * an internal mutex serializes writers, so concurrent lines queue
//!   instead of shredding each other;
//! * [`StatusLine::emit_throttled`] drops lines arriving faster than the
//!   configured minimum interval, keeping long soaks readable;
//! * when stderr is a terminal, [`StatusLine::refresh`] redraws in place
//!   with `\r` (and clears the tail); when it is a pipe or file, each
//!   refresh becomes an ordinary line so logs stay greppable.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    /// Last time a throttled emit was let through.
    last: Option<Instant>,
    /// Columns written by the last in-place refresh (for clearing).
    refresh_len: usize,
}

/// A mutex-guarded stderr line writer shared by everything that reports
/// during a run. Cheap to share by reference across scoped threads.
#[derive(Debug)]
pub struct StatusLine {
    inner: Mutex<Inner>,
    min_interval: Duration,
    is_tty: bool,
}

impl Default for StatusLine {
    fn default() -> StatusLine {
        StatusLine::new(Duration::from_millis(200))
    }
}

impl StatusLine {
    /// A writer that lets throttled lines through at most once per
    /// `min_interval`.
    pub fn new(min_interval: Duration) -> StatusLine {
        StatusLine {
            inner: Mutex::new(Inner {
                last: None,
                refresh_len: 0,
            }),
            min_interval,
            is_tty: std::io::stderr().is_terminal(),
        }
    }

    /// Whether stderr is a terminal (refreshes redraw in place).
    pub fn is_tty(&self) -> bool {
        self.is_tty
    }

    /// Writes one complete line, unconditionally. The trailing newline is
    /// added here; `line` must not contain one.
    pub fn emit(&self, line: &str) {
        let mut inner = self.inner.lock().unwrap();
        self.write_line(&mut inner, line);
    }

    /// Writes the line only if at least the minimum interval has passed
    /// since the last throttled write. Returns whether it was written.
    pub fn emit_throttled(&self, line: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let now = Instant::now();
        if let Some(last) = inner.last {
            if now.duration_since(last) < self.min_interval {
                return false;
            }
        }
        inner.last = Some(now);
        self.write_line(&mut inner, line);
        true
    }

    /// Redraws a live status in place (`\r`, no newline) on a terminal;
    /// degrades to a throttled ordinary line otherwise.
    pub fn refresh(&self, line: &str) {
        if !self.is_tty {
            self.emit_throttled(line);
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let pad = inner.refresh_len.saturating_sub(line.chars().count());
        let mut buf = String::with_capacity(line.len() + pad + 1);
        buf.push('\r');
        buf.push_str(line);
        for _ in 0..pad {
            buf.push(' ');
        }
        inner.refresh_len = line.chars().count();
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(buf.as_bytes());
        let _ = err.flush();
    }

    /// Ends an in-place refresh, moving to a fresh line so subsequent
    /// output does not overwrite the last status.
    pub fn finish_refresh(&self) {
        if !self.is_tty {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.refresh_len > 0 {
            inner.refresh_len = 0;
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(b"\n");
            let _ = err.flush();
        }
    }

    fn write_line(&self, inner: &mut Inner, line: &str) {
        let mut buf = String::with_capacity(line.len() + 2);
        if self.is_tty && inner.refresh_len > 0 {
            // A full line interrupting an in-place refresh gets its own
            // row; the next refresh redraws below it.
            buf.push('\n');
            inner.refresh_len = 0;
        }
        buf.push_str(line);
        buf.push('\n');
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(buf.as_bytes());
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_drops_rapid_lines() {
        let status = StatusLine::new(Duration::from_secs(3600));
        assert!(status.emit_throttled("first"));
        assert!(!status.emit_throttled("second"));
        assert!(!status.emit_throttled("third"));
    }

    #[test]
    fn zero_interval_never_drops() {
        let status = StatusLine::new(Duration::ZERO);
        assert!(status.emit_throttled("a"));
        assert!(status.emit_throttled("b"));
    }

    #[test]
    fn unthrottled_emit_does_not_consume_the_budget() {
        let status = StatusLine::new(Duration::from_secs(3600));
        status.emit("always");
        assert!(status.emit_throttled("first throttled"));
    }

    #[test]
    fn shared_across_threads() {
        let status = StatusLine::new(Duration::ZERO);
        std::thread::scope(|s| {
            for i in 0..4 {
                let status = &status;
                s.spawn(move || {
                    for j in 0..10 {
                        status.emit(&format!("worker {i} line {j}"));
                    }
                });
            }
        });
    }
}
