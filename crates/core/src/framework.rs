//! The PacketBench framework: packet staging, application invocation, and
//! the framework side of the API (paper §III).
//!
//! Per packet, the framework copies the layer-3 bytes into simulated
//! packet memory, seeds the argument registers (`a0` = packet pointer,
//! `a1` = captured length), and runs the application to its return. The
//! `sys` instruction is the API boundary: `send`, `drop`, and
//! `write_packet_to_file` trap to host-side handlers whose work — like
//! the framework's own — is never counted in the statistics (the paper's
//! *selective accounting*).

use std::fmt;

use nettrace::{Packet, Timestamp};
use npsim::bblock::{BlockMap, BlockTable};
use npsim::cpu::HaltReason;
use npsim::util::BitSet;
use npsim::{
    reg, Coverage, Cpu, Interpreter, MemCounts, MemoCache, MemoCounters, MemoKey, Memory,
    MemoryMap, NullObserver, RunConfig, RunStats, SimError, SysHandler, SysOutcome,
};

use crate::apps::App;
use crate::config::WorkloadConfig;
use crate::error::BenchError;

/// API call numbers (the PacketBench API of paper §III-B).
pub mod sys {
    /// `send_packet(next_hop)` — forward the packet.
    pub const SEND: u32 = 1;
    /// `drop_packet()` — discard the packet.
    pub const DROP: u32 = 2;
    /// `write_packet_to_file(ptr, len, file)` — append to an output trace.
    pub const WRITE: u32 = 3;
}

/// What the application decided to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `send_packet` with this next hop.
    Forwarded(u32),
    /// `drop_packet`.
    Dropped,
    /// The handler returned without a forwarding verdict (classification
    /// and measurement applications).
    Returned,
}

/// How much to record per packet. Counts are always collected; the traces
/// are opt-in because they dominate memory for long runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Detail {
    /// Record the executed-PC sequence (paper Fig. 6).
    pub pc_trace: bool,
    /// Record every data-memory access (paper Fig. 9, Table IV).
    pub mem_trace: bool,
    /// Attach the micro-architectural models.
    pub uarch: bool,
    /// Geometry/timing for the micro-architectural models; `None` uses
    /// [`npsim::uarch::UarchConfig::default`]. Only read when `uarch` is
    /// set.
    pub uarch_config: Option<npsim::uarch::UarchConfig>,
}

impl Detail {
    /// Counts only — the cheap default for long trace runs.
    pub fn counts() -> Detail {
        Detail::default()
    }

    /// Everything on — for single-packet deep dives.
    pub fn full() -> Detail {
        Detail {
            pc_trace: true,
            mem_trace: true,
            uarch: true,
            uarch_config: None,
        }
    }

    /// Counts plus memory-access events (Table IV coverage runs).
    pub fn with_mem_trace() -> Detail {
        Detail {
            mem_trace: true,
            ..Detail::default()
        }
    }

    fn run_config(self) -> RunConfig {
        RunConfig {
            record_pc_trace: self.pc_trace,
            record_mem_trace: self.mem_trace,
            uarch: self.uarch.then(|| self.uarch_config.unwrap_or_default()),
            ..RunConfig::default()
        }
    }
}

/// Whether (and how) the counts-only hot path memoizes per-flow results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemoMode {
    /// Never consult the cache (the default — paper-exhibit runs stay
    /// exact re-simulations).
    #[default]
    Off,
    /// Consult a per-worker cache keyed on the header bytes the
    /// application reads; a hit applies the cached result and skips
    /// simulation entirely.
    On,
    /// Always simulate, and additionally assert that any cached result is
    /// bit-identical to the live run — the memo soundness debug mode.
    Check,
}

impl MemoMode {
    /// Parses the CLI spelling (`on` / `off` / `check`).
    pub fn parse(s: &str) -> Option<MemoMode> {
        match s {
            "off" => Some(MemoMode::Off),
            "on" => Some(MemoMode::On),
            "check" => Some(MemoMode::Check),
            _ => None,
        }
    }
}

/// Why [`PacketBench::set_memo`] left memoization off although a mode
/// other than [`MemoMode::Off`] was asked for. Printed as the reason on
/// the CLI's memo line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoRefusal {
    /// The application declares no memo key ([`crate::AppId::memo_key_len`]).
    NoKey,
    /// The static write-region guard found a store it cannot prove
    /// packet-scoped; carries the first violation `npsim::analyze_writes`
    /// reported.
    UnsafeStore(String),
    /// The program calls the side-effectful `write_packet_to_file`.
    WritesPackets,
    /// A worker that never built a bench (it was given no packets), so
    /// nothing was decided.
    NoPackets,
}

impl fmt::Display for MemoRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoRefusal::NoKey => f.write_str("the application declares no memo key"),
            MemoRefusal::UnsafeStore(violation) => write!(f, "write guard: {violation}"),
            MemoRefusal::WritesPackets => f.write_str("the application calls write_packet_to_file"),
            MemoRefusal::NoPackets => f.write_str("no packets"),
        }
    }
}

/// One cached per-flow result: the counts-only [`RunStats`] delta plus the
/// application's verdict and return value. Traces and uarch stats are never
/// cached — memoization only engages at [`Detail::counts`].
#[derive(Debug, Clone)]
struct MemoEntry {
    instret: u64,
    executed: BitSet,
    mem: MemCounts,
    halt: HaltReason,
    verdict: Verdict,
    return_value: u32,
}

impl MemoEntry {
    fn from_record(record: &PacketRecord) -> MemoEntry {
        MemoEntry {
            instret: record.stats.instret,
            executed: record.stats.executed.clone(),
            mem: record.stats.mem,
            halt: record.stats.halt,
            verdict: record.verdict,
            return_value: record.return_value,
        }
    }

    /// Rewrites this entry from `record` without allocating: how a miss
    /// refreshes or displaces an occupied cache slot.
    fn overwrite_from(&mut self, record: &PacketRecord) {
        let stats = &record.stats;
        self.instret = stats.instret;
        self.executed.copy_from(&stats.executed);
        self.mem = stats.mem;
        self.halt = stats.halt;
        self.verdict = record.verdict;
        self.return_value = record.return_value;
    }

    /// Replays this entry into `record` without allocating.
    fn apply(&self, record: &mut PacketRecord) {
        let stats = &mut record.stats;
        stats.instret = self.instret;
        stats.executed.copy_from(&self.executed);
        stats.mem = self.mem;
        stats.halt = self.halt;
        stats.pc_trace.clear();
        stats.mem_trace.clear();
        stats.uarch = None;
        record.verdict = self.verdict;
        record.return_value = self.return_value;
    }

    /// The first field where this entry differs from a live run, if any.
    fn divergence_from(&self, record: &PacketRecord) -> Option<String> {
        if self.instret != record.stats.instret {
            return Some(format!(
                "instret: cached {}, live {}",
                self.instret, record.stats.instret
            ));
        }
        if self.executed != record.stats.executed {
            return Some("executed-instruction set differs".into());
        }
        if self.mem != record.stats.mem {
            return Some("memory access counts differ".into());
        }
        if self.halt != record.stats.halt {
            return Some(format!(
                "halt reason: cached {:?}, live {:?}",
                self.halt, record.stats.halt
            ));
        }
        if self.verdict != record.verdict {
            return Some(format!(
                "verdict: cached {:?}, live {:?}",
                self.verdict, record.verdict
            ));
        }
        if self.return_value != record.return_value {
            return Some(format!(
                "return value: cached {:#x}, live {:#x}",
                self.return_value, record.return_value
            ));
        }
        None
    }
}

/// Per-bench memoization state, present only when the mode is not `Off`
/// *and* the application passed the static write-region guard.
#[derive(Debug)]
struct MemoLayer {
    mode: MemoMode,
    cache: MemoCache<MemoEntry>,
    key_len: usize,
    /// The current packet's key, hashed once by `memo_pre` and reused by
    /// `memo_post`.
    key: MemoKey,
}

/// Everything recorded about one packet's processing.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Raw simulator statistics (instruction counts, region-classified
    /// memory accesses, and the executed set and traces when recorded).
    pub stats: RunStats,
    /// The application's verdict.
    pub verdict: Verdict,
    /// The application's `a0` on return (next hop, flow count, or
    /// anonymized address, depending on the application).
    pub return_value: u32,
}

impl PacketRecord {
    /// An empty record suitable as reusable scratch for
    /// [`PacketBench::process_packet_into`].
    pub fn empty() -> PacketRecord {
        PacketRecord {
            stats: RunStats::for_program(0),
            verdict: Verdict::Returned,
            return_value: 0,
        }
    }
}

impl Default for PacketRecord {
    fn default() -> PacketRecord {
        PacketRecord::empty()
    }
}

struct FrameworkSys<'a> {
    verdict: Verdict,
    out: &'a mut Vec<Packet>,
    clock: u32,
}

impl SysHandler for FrameworkSys<'_> {
    fn sys(
        &mut self,
        code: u32,
        regs: &mut [u32; 32],
        mem: &mut Memory,
    ) -> Result<SysOutcome, SimError> {
        match code {
            sys::SEND => {
                self.verdict = Verdict::Forwarded(regs[reg::A0.index()]);
                Ok(SysOutcome::Continue)
            }
            sys::DROP => {
                self.verdict = Verdict::Dropped;
                Ok(SysOutcome::Continue)
            }
            sys::WRITE => {
                let ptr = regs[reg::A0.index()];
                let len = regs[reg::A1.index()].min(0xffff) as usize;
                let data = mem.read_bytes(ptr, len);
                self.out
                    .push(Packet::from_l3(Timestamp::new(self.clock, 0), data));
                Ok(SysOutcome::Continue)
            }
            other => Err(SimError::UnknownSyscall { code: other, pc: 0 }),
        }
    }
}

/// The framework engine: owns simulated memory and an initialized
/// application, and runs packets through it.
#[derive(Debug)]
pub struct PacketBench {
    app: App,
    mem: Memory,
    map: MemoryMap,
    entry: u32,
    block_table: BlockTable,
    out_packets: Vec<Packet>,
    packets_processed: u64,
    block_bailouts: u64,
    memo: Option<MemoLayer>,
    /// Why the last [`PacketBench::set_memo`] left memoization off, when
    /// it was asked for.
    memo_refusal: Option<MemoRefusal>,
}

impl PacketBench {
    /// Initializes the framework around an application, running its
    /// (uncounted, host-side) `init()` with the default workload
    /// configuration embedded in the app.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for forward
    /// compatibility with configurable memory maps.
    pub fn new(app: App) -> Result<PacketBench, BenchError> {
        PacketBench::with_config(app, &WorkloadConfig::default())
    }

    /// Initializes the framework with an explicit workload configuration
    /// (must be the one the app was built with for sizes to line up).
    ///
    /// # Errors
    ///
    /// See [`PacketBench::new`].
    pub fn with_config(mut app: App, config: &WorkloadConfig) -> Result<PacketBench, BenchError> {
        let map = app.map();
        let mut mem = Memory::new();
        app.init(&mut mem, config);
        let entry = app.entry();
        let block_table = BlockTable::build(app.image().program());
        Ok(PacketBench {
            app,
            mem,
            map,
            entry,
            block_table,
            out_packets: Vec::new(),
            packets_processed: 0,
            block_bailouts: 0,
            memo: None,
            memo_refusal: None,
        })
    }

    /// Enables (or disables) per-flow memoization of the counts-only path.
    ///
    /// A mode other than [`MemoMode::Off`] only takes effect when the
    /// application both declares a memo key
    /// ([`crate::AppId::memo_key_len`]) and passes the static
    /// write-region guard: `npsim::analyze_writes` must
    /// prove every store targets the packet buffer, the stack, or the
    /// `.data` scratch below [`App::struct_base`], and the program must
    /// not call the side-effectful `write_packet_to_file`. Applications
    /// failing either test bypass the cache — annotations are never
    /// trusted over the analysis — and [`PacketBench::memo_refusal`] says
    /// why.
    pub fn set_memo(&mut self, mode: MemoMode) {
        self.memo = None;
        self.memo_refusal = None;
        if mode == MemoMode::Off {
            return;
        }
        match self.memo_key_len() {
            Ok(key_len) => {
                self.memo = Some(MemoLayer {
                    mode,
                    cache: MemoCache::new(),
                    key_len,
                    key: MemoKey::default(),
                })
            }
            Err(refusal) => self.memo_refusal = Some(refusal),
        }
    }

    /// The memo key length of the application if it may be memoized, or
    /// why not.
    fn memo_key_len(&self) -> Result<usize, MemoRefusal> {
        let key_len = self.app.id().memo_key_len().ok_or(MemoRefusal::NoKey)?;
        let analysis = npsim::analyze_writes(
            self.app.image().program(),
            &self.map,
            self.app.struct_base(),
        );
        if let Some(violation) = analysis.violations.into_iter().next() {
            return Err(MemoRefusal::UnsafeStore(violation));
        }
        if analysis.sys_codes.contains(&sys::WRITE) {
            return Err(MemoRefusal::WritesPackets);
        }
        Ok(key_len)
    }

    /// Why the last [`PacketBench::set_memo`] left memoization off
    /// although a mode other than [`MemoMode::Off`] was asked for.
    pub fn memo_refusal(&self) -> Option<&MemoRefusal> {
        self.memo_refusal.as_ref()
    }

    /// Whether memoization is active (mode not `Off` and the application
    /// passed the static guard).
    pub fn memo_active(&self) -> bool {
        self.memo.is_some()
    }

    /// Hit/miss/eviction counters of the memo cache (zeros when inactive).
    pub fn memo_counters(&self) -> MemoCounters {
        self.memo
            .as_ref()
            .map(|m| m.cache.counters())
            .unwrap_or_default()
    }

    /// Corrupts every cached memo entry (bumps its instruction count) and
    /// returns how many entries were corrupted. Exists so fault-injection
    /// tests can prove [`MemoMode::Check`] detects a bad cache entry.
    #[doc(hidden)]
    pub fn corrupt_memo_entries(&mut self) -> usize {
        match &mut self.memo {
            Some(layer) => {
                let mut n = 0;
                for entry in layer.cache.values_mut() {
                    entry.instret = entry.instret.wrapping_add(1);
                    n += 1;
                }
                n
            }
            None => 0,
        }
    }

    /// Builds and hashes the memo key for `l3` and, in `On` mode, applies
    /// a cached result. Returns `true` when the packet was served from the
    /// cache (simulation must be skipped). In `Check` mode (and on a miss)
    /// the key and its hash are left in the layer for
    /// [`PacketBench::memo_post`].
    fn memo_pre(&mut self, l3: &[u8], detail: Detail, record: &mut PacketRecord) -> bool {
        if detail != Detail::counts() {
            return false;
        }
        let Some(layer) = self.memo.as_mut() else {
            return false;
        };
        let len = (l3.len() as u32).to_le_bytes();
        layer
            .key
            .assign(&[&len, &l3[..layer.key_len.min(l3.len())]]);
        if layer.mode != MemoMode::On {
            return false;
        }
        let MemoLayer { cache, key, .. } = layer;
        if let Some(entry) = cache.lookup(key) {
            entry.apply(record);
            self.packets_processed += 1;
            true
        } else {
            false
        }
    }

    /// After a live run: installs the result on a miss, or (in `Check`
    /// mode) asserts bit-identity against the cached entry.
    fn memo_post(&mut self, detail: Detail, record: &PacketRecord) -> Result<(), BenchError> {
        if detail != Detail::counts() {
            return Ok(());
        }
        let Some(layer) = self.memo.as_mut() else {
            return Ok(());
        };
        let MemoLayer {
            mode, cache, key, ..
        } = layer;
        match mode {
            MemoMode::On => {}
            MemoMode::Check => {
                if let Some(entry) = cache.lookup(key) {
                    return match entry.divergence_from(record) {
                        Some(what) => Err(BenchError::MemoMismatch { what }),
                        None => Ok(()),
                    };
                }
            }
            MemoMode::Off => return Ok(()),
        }
        cache.insert_with(
            key,
            || MemoEntry::from_record(record),
            |entry| entry.overwrite_from(record),
        );
        Ok(())
    }

    /// The application under test.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// The static basic-block partition of the application.
    pub fn block_map(&self) -> &BlockMap {
        self.block_table.block_map()
    }

    /// The predecoded superblock table counts-only packet runs execute
    /// through (see `npsim::bblock::BlockTable`).
    pub fn block_table(&self) -> &BlockTable {
        &self.block_table
    }

    /// Simulated memory (application state lives here between packets).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Packets the application emitted via `write_packet_to_file`.
    pub fn output_packets(&self) -> &[Packet] {
        &self.out_packets
    }

    /// Removes and returns the packets emitted so far via
    /// `write_packet_to_file`, leaving the output buffer empty.
    pub fn take_output_packets(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.out_packets)
    }

    /// Packets processed so far.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Times the superblock engine bailed out to the per-instruction
    /// loop across all packets so far. Pure telemetry (a deterministic
    /// function of program + packets); memo hits contribute nothing —
    /// they skip simulation entirely.
    pub fn block_bailouts(&self) -> u64 {
        self.block_bailouts
    }

    /// Cumulative hot-trace telemetry (traces formed, complete trips,
    /// guard exits, budget declines) across all packets so far. Like
    /// [`PacketBench::block_bailouts`], a deterministic function of
    /// program + packets; zeros while the table is still warming up or
    /// when trace formation is disabled.
    pub fn trace_stats(&self) -> npsim::TraceStats {
        self.block_table.trace_stats()
    }

    /// Replaces the hot-trace formation thresholds (and resets warm-up
    /// state and telemetry). [`npsim::TraceParams::disabled`] pins the
    /// framework to pure block-level execution.
    pub fn set_trace_params(&mut self, params: npsim::TraceParams) {
        self.block_table.set_trace_params(params);
    }

    /// Runs one packet through the application, recording its coverage
    /// as every call here that returns a record does.
    ///
    /// # Errors
    ///
    /// Fails if the capture is shorter than an IPv4 header, or if the
    /// simulation faults (a bug in the application).
    pub fn process_packet(
        &mut self,
        packet: &Packet,
        detail: Detail,
    ) -> Result<PacketRecord, BenchError> {
        let mut record = PacketRecord::empty();
        self.process_packet_into(packet, detail, &mut record)?;
        Ok(record)
    }

    /// Runs one packet, recording into caller-provided scratch so repeated
    /// calls at [`Detail::counts`] perform no per-packet heap allocation.
    ///
    /// # Errors
    ///
    /// See [`PacketBench::process_packet`].
    pub fn process_packet_into(
        &mut self,
        packet: &Packet,
        detail: Detail,
        record: &mut PacketRecord,
    ) -> Result<(), BenchError> {
        let mut coverage = Coverage::new(NullObserver);
        self.process_with(None, packet, detail, record, &mut coverage)
    }

    /// Runs one packet as if it were the 0-based `index`-th packet of a
    /// trace: output packets emitted via `write_packet_to_file` are
    /// timestamped by trace position. The parallel engine uses this so a
    /// worker's output is identical to what a serial run would produce at
    /// the same position.
    ///
    /// # Errors
    ///
    /// See [`PacketBench::process_packet`].
    pub fn process_packet_at(
        &mut self,
        index: u64,
        packet: &Packet,
        detail: Detail,
        record: &mut PacketRecord,
    ) -> Result<(), BenchError> {
        let mut coverage = Coverage::new(NullObserver);
        self.process_with(Some(index), packet, detail, record, &mut coverage)
    }

    /// The one per-packet path: replay a memo hit, or stage the packet,
    /// boot the CPU at the application entry and run it under the
    /// framework `sys` handler and `obs`. Output packets are timestamped
    /// by trace position `index` when given, else by the bench's packet
    /// count.
    #[inline]
    pub(crate) fn process_with<O: npsim::Observer>(
        &mut self,
        index: Option<u64>,
        packet: &Packet,
        detail: Detail,
        record: &mut PacketRecord,
        obs: &mut O,
    ) -> Result<(), BenchError> {
        let l3 = l3_checked(packet)?;
        if self.memo_pre(l3, detail, record) {
            return Ok(());
        }
        let program = self.app.image().program();
        let mut cpu = Cpu::new(program, self.map).with_blocks(&self.block_table);
        self.packets_processed += 1;
        stage_and_boot(&mut cpu, &mut self.mem, self.map, self.entry, l3);
        let mut handler = FrameworkSys {
            verdict: Verdict::Returned,
            out: &mut self.out_packets,
            clock: index.map_or(self.packets_processed, |i| i + 1) as u32,
        };
        let result = cpu.run_observed(
            &mut self.mem,
            &detail.run_config(),
            &mut handler,
            &mut record.stats,
            obs,
        );
        self.block_bailouts += cpu.block_bailouts();
        result?;
        record.verdict = handler.verdict;
        record.return_value = cpu.reg(reg::A0);
        self.memo_post(detail, record)
    }

    /// Runs one packet through a caller-supplied [`Interpreter`] instead
    /// of the built-in optimized CPU, with full control over the
    /// [`RunConfig`].
    ///
    /// This is the conformance entry point: the differential harness
    /// drives the reference interpreter and each forced simulator loop
    /// through the *same* staging, register seeding, and `sys` handling
    /// as a normal run, so any divergence is the interpreter's, not the
    /// framework's. The interpreter must have been built against this
    /// application's program and memory map.
    ///
    /// # Errors
    ///
    /// See [`PacketBench::process_packet`].
    pub fn process_packet_via(
        &mut self,
        interp: &mut dyn Interpreter,
        packet: &Packet,
        run_config: &RunConfig,
        record: &mut PacketRecord,
    ) -> Result<(), BenchError> {
        let l3 = l3_checked(packet)?;
        self.packets_processed += 1;
        stage_and_boot(interp, &mut self.mem, self.map, self.entry, l3);
        let mut handler = FrameworkSys {
            verdict: Verdict::Returned,
            out: &mut self.out_packets,
            clock: self.packets_processed as u32,
        };
        interp.run_into(&mut self.mem, run_config, &mut handler, &mut record.stats)?;
        record.verdict = handler.verdict;
        record.return_value = interp.state().regs[reg::A0.index()];
        Ok(())
    }

    /// Runs one packet and checks the result against the application's
    /// golden model.
    ///
    /// # Errors
    ///
    /// Everything [`PacketBench::process_packet`] can fail with, plus
    /// [`BenchError::Mismatch`] when the application and its golden model
    /// disagree — which the test suite treats as a simulator or assembly
    /// bug.
    pub fn process_verified(
        &mut self,
        packet: &Packet,
        detail: Detail,
    ) -> Result<PacketRecord, BenchError> {
        let record = self.process_packet(packet, detail)?;
        self.verify_record(packet, &record)?;
        Ok(record)
    }

    /// Checks an already-computed record against the application's golden
    /// model. The golden model is stateful for Flow Classification, so
    /// records must be verified in the order their packets were processed.
    ///
    /// # Errors
    ///
    /// [`BenchError::Mismatch`] when the application and its golden model
    /// disagree.
    pub fn verify_record(
        &mut self,
        packet: &Packet,
        record: &PacketRecord,
    ) -> Result<(), BenchError> {
        self.app.verify(packet.l3(), record, &self.mem)
    }

    /// Runs `packets` through the application, calling `visit` with each
    /// record.
    ///
    /// # Errors
    ///
    /// Stops at the first failing packet.
    pub fn run_trace<I, F>(
        &mut self,
        packets: I,
        detail: Detail,
        mut visit: F,
    ) -> Result<(), BenchError>
    where
        I: IntoIterator<Item = Packet>,
        F: FnMut(u64, PacketRecord),
    {
        for (i, packet) in packets.into_iter().enumerate() {
            let record = self.process_packet(&packet, detail)?;
            visit(i as u64, record);
        }
        Ok(())
    }

    /// Runs borrowed `packets` through the application, calling `visit`
    /// with each record. Unlike [`PacketBench::run_trace`] this neither
    /// consumes the packets nor allocates a fresh record per packet — one
    /// scratch [`PacketRecord`] is reused for the whole trace.
    ///
    /// # Errors
    ///
    /// Stops at the first failing packet.
    pub fn run_trace_ref<'a, I, F>(
        &mut self,
        packets: I,
        detail: Detail,
        mut visit: F,
    ) -> Result<(), BenchError>
    where
        I: IntoIterator<Item = &'a Packet>,
        F: FnMut(u64, &PacketRecord),
    {
        let mut record = PacketRecord::empty();
        for (i, packet) in packets.into_iter().enumerate() {
            self.process_packet_into(packet, detail, &mut record)?;
            visit(i as u64, &record);
        }
        Ok(())
    }
}

/// Rejects captures shorter than an IPv4 header.
fn l3_checked(packet: &Packet) -> Result<&[u8], BenchError> {
    let l3 = packet.l3();
    if l3.len() < 20 {
        return Err(BenchError::BadPacket(
            nettrace::TraceError::MalformedPacket {
                reason: "capture shorter than an IPv4 header",
            },
        ));
    }
    Ok(l3)
}

/// Stages a packet into simulated memory and boots an interpreter at the
/// application entry with `a0` = packet pointer, `a1` = captured length.
/// The pad region past the packet is cleared so a shorter packet never
/// sees the previous packet's bytes.
fn stage_and_boot(
    interp: &mut dyn Interpreter,
    mem: &mut Memory,
    map: MemoryMap,
    entry: u32,
    l3: &[u8],
) {
    mem.write_bytes(map.packet_base, l3);
    mem.zero_range(map.packet_base + l3.len() as u32, 64);
    interp.reset();
    interp.set_pc(entry);
    interp.set_reg(reg::A0, map.packet_base);
    interp.set_reg(reg::A1, l3.len() as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppId;
    use nettrace::synth::{SyntheticTrace, TraceProfile};

    fn bench(id: AppId) -> PacketBench {
        let config = WorkloadConfig::small();
        let app = App::build(id, &config).unwrap();
        PacketBench::with_config(app, &config).unwrap()
    }

    #[test]
    fn trie_forwards_and_is_verified() {
        let mut b = bench(AppId::Ipv4Trie);
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 3);
        for _ in 0..50 {
            let p = trace.next_packet();
            let r = b.process_verified(&p, Detail::counts()).expect("verified");
            assert!(matches!(r.verdict, Verdict::Forwarded(_)));
            assert!(r.stats.instret > 100, "{}", r.stats.instret);
            assert!(r.stats.instret < 600, "{}", r.stats.instret);
        }
    }

    #[test]
    fn radix_forwards_and_is_verified() {
        let mut b = bench(AppId::Ipv4Radix);
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 3);
        for _ in 0..20 {
            let p = trace.next_packet();
            let r = b.process_verified(&p, Detail::counts()).expect("verified");
            assert!(matches!(r.verdict, Verdict::Forwarded(_)));
            assert!(
                r.stats.instret > 500,
                "radix should be expensive, got {}",
                r.stats.instret
            );
        }
    }

    #[test]
    fn flow_counts_and_is_verified() {
        let mut b = bench(AppId::FlowClass);
        let mut trace = SyntheticTrace::new(TraceProfile::cos(), 5);
        let mut saw_repeat = false;
        for _ in 0..200 {
            let p = trace.next_packet();
            let r = b.process_verified(&p, Detail::counts()).expect("verified");
            if r.return_value > 1 {
                saw_repeat = true;
            }
        }
        assert!(saw_repeat, "200 packets must revisit some flow");
    }

    #[test]
    fn tsa_anonymizes_and_is_verified() {
        let mut b = bench(AppId::Tsa);
        let mut trace = SyntheticTrace::new(TraceProfile::odu(), 7);
        for _ in 0..50 {
            let p = trace.next_packet();
            let r = b.process_verified(&p, Detail::counts()).expect("verified");
            assert_eq!(r.verdict, Verdict::Returned);
        }
        assert_eq!(b.packets_processed(), 50);
    }

    #[test]
    fn ttl_is_decremented_and_checksum_stays_valid() {
        let mut b = bench(AppId::Ipv4Trie);
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 11);
        let p = trace.next_packet();
        let ttl_before = p.l3()[8];
        b.process_verified(&p, Detail::counts()).unwrap();
        let out = b.mem().read_bytes(b.app.map().packet_base, 20);
        assert_eq!(out[8], ttl_before - 1);
        assert!(nettrace::checksum::verify(&out));
    }

    #[test]
    fn short_packet_rejected() {
        let mut b = bench(AppId::Ipv4Trie);
        let p = Packet::from_l3(Timestamp::default(), vec![0x45; 10]);
        assert!(matches!(
            b.process_packet(&p, Detail::counts()),
            Err(BenchError::BadPacket(_))
        ));
    }

    #[test]
    fn corrupted_checksum_is_dropped() {
        let mut b = bench(AppId::Ipv4Radix);
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 13);
        let mut p = trace.next_packet();
        p.l3_mut()[10] ^= 0xff; // corrupt checksum
        let r = b.process_packet(&p, Detail::counts()).unwrap();
        assert_eq!(r.verdict, Verdict::Dropped);
    }

    #[test]
    fn ttl_one_is_dropped() {
        let mut b = bench(AppId::Ipv4Trie);
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 17);
        let mut p = trace.next_packet();
        {
            let l3 = p.l3_mut();
            let mut h = nettrace::ip::Ipv4Header::parse(l3).unwrap();
            h.ttl = 1;
            h.finalize();
            h.write(&mut l3[..20]);
        }
        let r = b.process_packet(&p, Detail::counts()).unwrap();
        assert_eq!(r.verdict, Verdict::Dropped);
    }

    #[test]
    fn detail_traces_populate() {
        let mut b = bench(AppId::FlowClass);
        let mut trace = SyntheticTrace::new(TraceProfile::lan(), 19);
        let p = trace.next_packet();
        let r = b.process_packet(&p, Detail::full()).unwrap();
        assert_eq!(r.stats.pc_trace.len() as u64, r.stats.instret);
        assert!(!r.stats.mem_trace.is_empty());
        assert!(r.stats.uarch.is_some());
        let packet_events = r
            .stats
            .mem_trace
            .iter()
            .filter(|e| e.region == npsim::Region::Packet)
            .count() as u64;
        assert_eq!(packet_events, r.stats.mem.packet_total());
    }
}

#[cfg(test)]
mod ipsec_tests {
    use super::*;
    use crate::apps::AppId;
    use nettrace::synth::{SyntheticTrace, TraceProfile};

    #[test]
    fn ipsec_encrypts_and_is_verified() {
        let config = WorkloadConfig::small();
        let app = App::build(AppId::IpsecEnc, &config).unwrap();
        let mut b = PacketBench::with_config(app, &config).unwrap();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 41);
        for _ in 0..40 {
            let p = trace.next_packet();
            let r = b.process_verified(&p, Detail::counts()).expect("verified");
            assert!(matches!(r.verdict, Verdict::Forwarded(_)));
        }
    }

    #[test]
    fn ipsec_cost_scales_with_packet_size() {
        // The PPA signature: instructions per packet grow linearly with
        // payload size, unlike every header-processing application.
        let config = WorkloadConfig::small();
        let app = App::build(AppId::IpsecEnc, &config).unwrap();
        let mut b = PacketBench::with_config(app, &config).unwrap();
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 43);
        let mut samples: Vec<(usize, u64)> = Vec::new();
        for _ in 0..60 {
            let p = trace.next_packet();
            let r = b.process_verified(&p, Detail::counts()).unwrap();
            samples.push((p.l3().len(), r.stats.instret));
        }
        samples.sort();
        let (small_len, small_cost) = samples[0];
        let (large_len, large_cost) = *samples.last().unwrap();
        assert!(large_len > small_len * 2, "need size spread in the trace");
        assert!(
            large_cost > small_cost * 2,
            "cost must scale with size: {small_len}B -> {small_cost}, {large_len}B -> {large_cost}"
        );
        // And packet-memory traffic scales with the payload too (4
        // accesses per 8-byte block: two loads, two stores), unlike the
        // near-constant packet traffic of the header applications.
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 44);
        loop {
            let p = trace.next_packet();
            if p.l3().len() < 100 {
                continue;
            }
            let blocks = ((p.l3().len() - 20) / 8) as u64;
            let r = b.process_verified(&p, Detail::counts()).unwrap();
            assert!(
                r.stats.mem.packet_total() >= 4 * blocks,
                "{} accesses for {blocks} blocks",
                r.stats.mem.packet_total()
            );
            break;
        }
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::apps::AppId;
    use nettrace::synth::{SyntheticTrace, TraceProfile};

    fn bench(id: AppId) -> PacketBench {
        let config = WorkloadConfig::small();
        let app = App::build(id, &config).unwrap();
        PacketBench::with_config(app, &config).unwrap()
    }

    #[test]
    fn write_guard_engages_for_exactly_the_proven_safe_apps() {
        // The guard is static analysis, not trusted annotation: TSA
        // *declares* a memo key but its record-table stores are
        // statically unresolvable, so it must be vetoed; flow and ipsec
        // never declare a key.
        for id in AppId::WITH_EXTENSIONS {
            let mut b = bench(id);
            b.set_memo(MemoMode::On);
            let want = matches!(id, AppId::Ipv4Radix | AppId::Ipv4Trie);
            assert_eq!(b.memo_active(), want, "{id:?}");
            // Refused apps say why; the reason names the first vetoed
            // store when there is one.
            match (id, b.memo_refusal()) {
                (AppId::Ipv4Radix | AppId::Ipv4Trie, None) => {}
                (AppId::FlowClass | AppId::IpsecEnc, Some(MemoRefusal::NoKey)) => {}
                (AppId::Tsa, Some(MemoRefusal::UnsafeStore(v))) => {
                    assert!(v.contains("statically unresolvable"), "{v}")
                }
                (id, refusal) => panic!("{id:?}: unexpected refusal {refusal:?}"),
            }
            if !want {
                // Bypassing apps never touch the cache.
                let p = SyntheticTrace::new(TraceProfile::mra(), 5).next_packet();
                b.process_packet(&p, Detail::counts()).unwrap();
                b.process_packet(&p, Detail::counts()).unwrap();
                assert_eq!(b.memo_counters(), npsim::MemoCounters::default(), "{id:?}");
            }
        }
    }

    #[test]
    fn set_memo_off_clears_a_refusal() {
        let mut b = bench(AppId::Tsa);
        b.set_memo(MemoMode::Check);
        assert!(b.memo_refusal().is_some());
        b.set_memo(MemoMode::Off);
        assert_eq!(b.memo_refusal(), None);
        assert!(!b.memo_active());
    }

    #[test]
    fn zipf_traffic_rarely_evicts_a_cached_flow() {
        // 1024 flows in 1024 four-way sets: a flow is displaced only when
        // five or more hash to one set. A direct-mapped cache of the same
        // 4096 slots evicted on about half of its misses here. Both
        // memoizable apps must also serve at least 90% of packets from
        // the cache (each reads 18,996 hits and 1,004 misses).
        const N: u64 = 20_000;
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            let mut b = bench(id);
            b.set_memo(MemoMode::On);
            let mut trace = SyntheticTrace::new(TraceProfile::zipf(), 20050320);
            for _ in 0..N {
                b.process_packet(&trace.next_packet(), Detail::counts())
                    .unwrap();
            }
            let c = b.memo_counters();
            assert!(c.misses > 0 && c.evictions * 10 < c.misses, "{id:?}: {c:?}");
            assert_eq!(c.hits + c.misses, N, "{id:?}: {c:?}");
            assert!(c.hits * 10 >= 9 * N, "{id:?}: {c:?}");
        }
    }

    #[test]
    fn memoized_results_are_bit_identical_to_simulation() {
        for id in [AppId::Ipv4Radix, AppId::Ipv4Trie] {
            let mut live = bench(id);
            let mut memo = bench(id);
            memo.set_memo(MemoMode::On);
            let mut trace = SyntheticTrace::new(TraceProfile::with_zipf(16, 100), 9);
            for i in 0..200 {
                let p = trace.next_packet();
                let a = live.process_packet(&p, Detail::counts()).unwrap();
                let b = memo.process_packet(&p, Detail::counts()).unwrap();
                assert_eq!(a.stats.instret, b.stats.instret, "{id:?} packet {i}");
                assert_eq!(a.stats.executed, b.stats.executed, "{id:?} packet {i}");
                assert_eq!(a.stats.mem, b.stats.mem, "{id:?} packet {i}");
                assert_eq!(a.stats.halt, b.stats.halt, "{id:?} packet {i}");
                assert_eq!(a.verdict, b.verdict, "{id:?} packet {i}");
                assert_eq!(a.return_value, b.return_value, "{id:?} packet {i}");
            }
            let counters = memo.memo_counters();
            assert!(counters.hits > 100, "{id:?}: {counters:?}");
            assert!(counters.misses >= 16, "{id:?}: {counters:?}");
        }
    }

    #[test]
    fn check_mode_catches_a_corrupted_cache_entry() {
        let mut b = bench(AppId::Ipv4Radix);
        b.set_memo(MemoMode::Check);
        let p = SyntheticTrace::new(TraceProfile::mra(), 11).next_packet();
        b.process_packet(&p, Detail::counts()).unwrap();
        assert_eq!(b.corrupt_memo_entries(), 1);
        let err = b.process_packet(&p, Detail::counts()).unwrap_err();
        assert!(
            matches!(&err, BenchError::MemoMismatch { what } if what.contains("instret")),
            "{err:?}"
        );
    }

    #[test]
    fn check_mode_passes_on_an_honest_cache() {
        let mut b = bench(AppId::Ipv4Trie);
        b.set_memo(MemoMode::Check);
        let mut trace = SyntheticTrace::new(TraceProfile::with_zipf(8, 100), 13);
        for _ in 0..100 {
            let p = trace.next_packet();
            b.process_packet(&p, Detail::counts()).unwrap();
        }
        assert!(b.memo_counters().hits > 0);
    }

    #[test]
    fn memo_only_engages_at_counts_detail() {
        // Traces and uarch stats are never cached; richer detail levels
        // must bypass the cache entirely.
        let mut b = bench(AppId::Ipv4Radix);
        b.set_memo(MemoMode::On);
        let p = SyntheticTrace::new(TraceProfile::mra(), 17).next_packet();
        let detail = Detail {
            uarch: true,
            ..Detail::counts()
        };
        b.process_packet(&p, detail).unwrap();
        b.process_packet(&p, detail).unwrap();
        assert_eq!(b.memo_counters(), npsim::MemoCounters::default());
        // The same packet at counts detail does use the cache.
        b.process_packet(&p, Detail::counts()).unwrap();
        b.process_packet(&p, Detail::counts()).unwrap();
        assert_eq!(b.memo_counters().hits, 1);
    }
}
