//! The host side of the ledger: the calibration kernel, the environment
//! block, and running `pb` as a child process with its resource usage.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Seconds the calibration kernel took, by part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calib {
    /// The single-threaded parts, in wall time.
    pub one_thread_s: f64,
    /// The same, in the thread's CPU time: the host's speed without the
    /// time it kept the thread waiting.
    pub one_thread_cpu_s: f64,
    /// The two-thread handoff, in wall time.
    pub handoff_s: f64,
}

impl Calib {
    /// The kernel seconds that track a command keeping `threads` threads
    /// busy: a single-threaded command is indifferent to the other vCPU,
    /// which the handoff depends on.
    pub fn seconds(self, threads: usize) -> f64 {
        if threads > 1 {
            self.one_thread_s + self.handoff_s
        } else {
            self.one_thread_s
        }
    }
}

/// A fixed amount of work shaped like `pb`'s own (about 70 ms on the
/// reference host), in three parts: a toy register-machine interpreter
/// (dispatch, register and small-memory traffic, data-dependent branches)
/// run over 5k "packets"; packet-sized heap buffers allocated, touched
/// and freed, and a xorshift walk over a freshly allocated 4 MiB table
/// with a branch and a store per step; and two threads handing items
/// through a spinning ring, as `pb stream` and `pb live` do. Host-time
/// metrics are normalized by it (see `stats::CALIB_REF`).
///
/// Alternating candidates with `pb` invocations on a shared 2-vCPU host,
/// the run-level spread of `pb` wall time over the kernel's median was
/// lowest with the first two parts for single-threaded commands, and with
/// all three for two-threaded ones. Either of the first two alone, an
/// L1-resident ALU loop, a 64 MiB random walk and a fresh-page
/// first-touch loop each tracked worse; the handoff alone over-corrected
/// single-threaded commands when the other vCPU was busy.
pub fn calibrate() -> Calib {
    let (start, start_cpu) = (Instant::now(), sys::thread_cpu_s());
    let acc = interpret(5_000);
    mix(acc);
    let one_thread_s = start.elapsed().as_secs_f64();
    let one_thread_cpu_s = sys::thread_cpu_s() - start_cpu;
    let start = Instant::now();
    handoff(50_000);
    Calib {
        one_thread_s,
        one_thread_cpu_s,
        handoff_s: start.elapsed().as_secs_f64(),
    }
}

/// The handoff part: a producer thread mixes each item and publishes it
/// in a 256-slot ring; the consumer mixes it again. Both spin while the
/// ring is full or empty.
fn handoff(items: usize) {
    const SLOTS: usize = 256;
    let slots: Vec<AtomicU32> = (0..SLOTS).map(|_| AtomicU32::new(0)).collect();
    // Items published by the producer, and items taken by the consumer.
    let (published, taken) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let scramble = |mut x: u32| {
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
        }
        x
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..items {
                // Acquire pairs with the consumer's Release: the slot it
                // read is free again.
                while i - taken.load(Ordering::Acquire) >= SLOTS {
                    std::hint::spin_loop();
                }
                slots[i % SLOTS].store(scramble(i as u32 | 1), Ordering::Relaxed);
                // Release publishes the slot's store to the consumer.
                published.store(i + 1, Ordering::Release);
            }
        });
        let mut acc = 0u32;
        for i in 0..items {
            while published.load(Ordering::Acquire) <= i {
                std::hint::spin_loop();
            }
            acc = acc.wrapping_add(scramble(slots[i % SLOTS].load(Ordering::Relaxed)));
            taken.store(i + 1, Ordering::Release);
        }
        black_box(acc);
    });
}

/// The interpreter part: per packet, a 200-trip loop of loads, shifts,
/// xors and stores over a 4 KiB memory.
fn interpret(packets: u32) -> u64 {
    #[derive(Clone, Copy)]
    enum Op {
        Add(usize, usize, usize),
        Xor(usize, usize, usize),
        Shl(usize, usize, u32),
        Shr(usize, usize, u32),
        Load(usize, usize),
        Store(usize, usize),
        Addi(usize, usize, u32),
        Bnz(usize, usize),
        Halt,
    }
    use Op::*;
    // r1 counts up, r2 counts the trips down, r4 is the running hash.
    const PROGRAM: [Op; 13] = [
        Addi(1, 0, 0),
        Addi(2, 0, 200),
        Load(3, 1),
        Xor(4, 4, 3),
        Shl(5, 4, 5),
        Add(4, 4, 5),
        Shr(5, 4, 7),
        Xor(4, 4, 5),
        Store(1, 4),
        Addi(1, 1, 1),
        Addi(2, 2, u32::MAX),
        Bnz(2, 2),
        Halt,
    ];
    let program = black_box(PROGRAM);
    let mut mem = vec![0u32; 1024];
    let mut acc = 0u64;
    for packet in 0..black_box(packets) {
        let mut r = [0u32; 8];
        r[4] = packet;
        let mut pc = 0;
        loop {
            match program[pc] {
                Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
                Xor(d, a, b) => r[d] = r[a] ^ r[b],
                Shl(d, a, s) => r[d] = r[a] << s,
                Shr(d, a, s) => r[d] = r[a] >> s,
                Load(d, a) => r[d] = mem[(r[a] ^ packet) as usize & 1023],
                Store(a, v) => mem[(r[a].wrapping_add(packet)) as usize & 1023] = r[v],
                Addi(d, a, imm) => r[d] = r[a].wrapping_add(imm),
                Bnz(a, target) => {
                    if r[a] != 0 {
                        pc = target;
                        continue;
                    }
                }
                Halt => break,
            }
            pc += 1;
        }
        acc = acc.wrapping_add(u64::from(black_box(r)[4]));
    }
    black_box(&mem);
    acc
}

/// The allocation and memory part.
fn mix(mut acc: u64) {
    const BUFFERS: usize = 20_000;
    const WORDS: usize = 1 << 20;
    const STEPS: u32 = 3_000_000;
    let buffers: Vec<Vec<u8>> = (0..BUFFERS)
        .map(|i| {
            let len = 40 + (i * 7919) % 540;
            let mut b = vec![0u8; len];
            b[len / 2] = i as u8;
            b
        })
        .collect();
    acc = acc.wrapping_add(
        buffers
            .iter()
            .map(|b| u64::from(b[b.len() / 2]) + b.len() as u64)
            .sum(),
    );
    drop(black_box(buffers));
    let mut table: Vec<u32> = (0..WORDS as u32)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    let mut x: u32 = black_box(0x2545_f491);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let slot = x as usize & (WORDS - 1);
        let v = table[slot];
        if v & 1 == 0 {
            acc = acc.wrapping_add(u64::from(v));
        } else {
            acc ^= u64::from(v) << 3;
        }
        table[slot] = v.rotate_left(7) ^ x;
    }
    black_box((acc, &table));
}

/// The fixed environment block recorded with every run.
#[derive(Debug)]
pub struct Env {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub commit: String,
}

impl Env {
    pub fn probe() -> Env {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            commit: npobs::stamp::git_commit(),
        }
    }
}

/// What one `pb` invocation did.
#[derive(Debug, Default)]
pub struct Exit {
    /// Spawn to reap, as the user waits for it.
    pub wall_s: f64,
    /// User plus system CPU seconds of the child.
    pub cpu_s: f64,
    /// The child's peak resident set (`ru_maxrss`).
    pub peak_rss_kb: u64,
    /// Exit code; `None` when a signal (or the watchdog) ended it.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
}

/// Runs `pb` invocations through a helper process: this binary again, as
/// `ledger spawner`, started before the ledger has allocated anything.
///
/// Linux reports a child's `ru_maxrss` as at least the high-water RSS of
/// the address space it was exec'd from, so a `pb` spawned by the ledger
/// itself would read the ledger's own peak (tens of MB after a traced
/// pass) instead of its own. The helper stays a few MB.
pub struct Spawner {
    helper: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    pub fn start() -> io::Result<Spawner> {
        let mut helper = Command::new(std::env::current_exe()?)
            .arg("spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let requests = helper.stdin.take();
        let replies = BufReader::new(helper.stdout.take().expect("stdout was piped"));
        Ok(Spawner {
            helper,
            requests,
            replies,
        })
    }

    /// Runs `pb args` to completion, killing it once it runs past
    /// `limit`. Its stdout and stderr go to files in `scratch`, read back
    /// afterwards, so no reader thread competes with it for the CPUs.
    pub fn run(
        &mut self,
        pb: &Path,
        args: &[String],
        scratch: &Path,
        limit: Duration,
    ) -> io::Result<Exit> {
        let fields: Vec<String> = [
            limit.as_secs_f64().to_string(),
            path_field(scratch)?,
            path_field(pb)?,
        ]
        .into_iter()
        .chain(args.iter().cloned())
        .collect();
        if fields.iter().any(|f| f.contains(['\t', '\n'])) {
            return Err(io::Error::other("a pb argument contains a tab or newline"));
        }
        let requests = self.requests.as_mut().expect("open until drop");
        writeln!(requests, "{}", fields.join("\t"))?;
        requests.flush()?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        let bad = || io::Error::other(format!("bad spawner reply `{}`", reply.trim()));
        let mut reply_fields = reply.split_whitespace().map(str::parse::<f64>);
        let mut next = || reply_fields.next().and_then(Result::ok).ok_or_else(bad);
        let (wall_s, cpu_s, peak_rss_kb, code) = (next()?, next()?, next()?, next()?);
        Ok(Exit {
            wall_s,
            cpu_s,
            peak_rss_kb: peak_rss_kb as u64,
            code: (code >= 0.0).then_some(code as i32),
            stdout: std::fs::read(scratch.join("stdout.txt"))?,
            stderr: std::fs::read(scratch.join("stderr.txt"))?,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the helper's loop.
        self.requests.take();
        let _ = self.helper.wait();
    }
}

fn path_field(path: &Path) -> io::Result<String> {
    path.to_str()
        .map(str::to_string)
        .ok_or_else(|| io::Error::other(format!("{} is not UTF-8", path.display())))
}

/// The helper's loop: one tab-separated request per line (limit seconds,
/// scratch directory, `pb` path, arguments), one reply per line (wall and
/// CPU seconds, peak RSS in kB, exit code or -1 when killed).
pub fn serve_spawner() -> io::Result<()> {
    let mut replies = io::stdout().lock();
    for request in io::stdin().lock().lines() {
        let request = request?;
        let mut fields = request.split('\t');
        let mut next = || {
            fields
                .next()
                .ok_or_else(|| io::Error::other("short request"))
        };
        let limit = next()?
            .parse::<f64>()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let (scratch, pb) = (Path::new(next()?), Path::new(next()?));
        let args: Vec<&str> = fields.collect();
        let start = Instant::now();
        let child = Command::new(pb)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(File::create(scratch.join("stdout.txt"))?)
            .stderr(File::create(scratch.join("stderr.txt"))?)
            .spawn()?;
        let (done, watch) = mpsc::channel::<()>();
        let pid = child.id();
        let limit = Duration::from_secs_f64(limit);
        let reaped = std::thread::scope(|scope| {
            scope.spawn(move || {
                if watch.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                    sys::sigkill(pid);
                }
            });
            let reaped = sys::reap(child);
            // Wakes the watchdog; it has nothing to kill any more. (A
            // child reaped in the same instant the limit expires can race
            // the kill; the window is one syscall wide.)
            let _ = done.send(());
            reaped
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        writeln!(
            replies,
            "{wall_s} {} {} {}",
            reaped.cpu_s,
            reaped.peak_rss_kb,
            reaped.code.unwrap_or(-1)
        )?;
        replies.flush()?;
    }
    Ok(())
}

struct Reaped {
    code: Option<i32>,
    cpu_s: f64,
    peak_rss_kb: u64,
}

/// `wait4(2)` gives the child's own resource usage at the moment it is
/// reaped, and `clock_gettime(2)` the calling thread's CPU time; the
/// standard library exposes neither.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    /// `struct timespec` from `<time.h>`.
    #[repr(C)]
    #[derive(Default)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` from `<sys/resource.h>`: two timevals, then 14
    /// longs of which `ru_maxrss` (kilobytes on Linux) is the first.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }

    extern "C" {
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
        fn kill(pid: c_int, sig: c_int) -> c_int;
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }

    const SIGKILL: c_int = 9;
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    /// CPU seconds the calling thread has used (NaN if the clock fails).
    pub(super) fn thread_cpu_s() -> f64 {
        let mut time = Timespec::default();
        // SAFETY: `time` is a live, writable local of exactly the type
        // clock_gettime(2) fills in; the clock id is Linux's constant.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } != 0 {
            return f64::NAN;
        }
        time.sec as f64 + time.nsec as f64 * 1e-9
    }

    pub(super) fn sigkill(pid: u32) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; a pid that has already exited yields ESRCH, which is fine.
        unsafe {
            kill(pid as c_int, SIGKILL);
        }
    }

    pub(super) fn reap(child: std::process::Child) -> std::io::Result<super::Reaped> {
        let pid = child.id() as c_int;
        let mut status: c_int = 0;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable locals of
            // exactly the types wait4(2) fills in; `pid` is our own
            // unreaped child (std never waits on it: we consumed `child`).
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        let exited = status & 0x7f == 0;
        Ok(super::Reaped {
            code: exited.then_some((status >> 8) & 0xff),
            cpu_s: secs(&usage.utime) + secs(&usage.stime),
            peak_rss_kb: usage.maxrss.max(0) as u64,
        })
    }
}

/// Elsewhere: exit status only (a child's CPU time and peak RSS read as
/// zero, the kernel's CPU time as NaN, and the watchdog cannot kill).
#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn sigkill(_pid: u32) {}

    pub(super) fn thread_cpu_s() -> f64 {
        f64::NAN
    }

    pub(super) fn reap(mut child: std::process::Child) -> std::io::Result<super::Reaped> {
        let status = child.wait()?;
        Ok(super::Reaped {
            code: status.code(),
            cpu_s: 0.0,
            peak_rss_kb: 0,
        })
    }
}
