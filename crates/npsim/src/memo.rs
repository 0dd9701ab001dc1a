//! Per-flow memoization support: a deterministic fixed-capacity cache and
//! the static write-region analysis that gates its use.
//!
//! The paper's header-processing applications are pure functions of the
//! packet bytes: two packets with identical headers produce identical
//! per-packet statistics and identical verdicts. The engine exploits that
//! by caching `key → result` per worker and skipping simulation on a hit
//! (`pb run --memo on`). Skipping is only sound if a repeat run could not
//! have observed — or left behind — different *non-packet* state, so
//! eligibility is decided statically by [`analyze_writes`]: an abstract
//! interpretation over the program's decoded instructions proving that
//! every store lands in packet memory, the stack frame, or the per-packet
//! scratch area below the application's persistent tables. Applications
//! that fail the proof (or that declare no memo key at all) simply bypass
//! the cache; nothing is trusted from annotations.
//!
//! The cache itself ([`MemoCache`]) is deliberately simple: direct-mapped
//! over a power-of-two slot array with an FNV-1a hash, so behaviour is
//! deterministic for a given packet sequence — a requirement for the
//! byte-stable metrics exports and the conformance legs that replay runs.

use std::fmt;

use crate::cpu::Program;
use crate::isa::{reg, Op};
use crate::mem::{MemoryMap, Region};

/// Default number of slots in a [`MemoCache`] (per worker).
pub const DEFAULT_MEMO_SLOTS: usize = 4096;

/// Hit/miss/eviction counters of a [`MemoCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Lookups that found a matching key.
    pub hits: u64,
    /// Lookups that found no matching key.
    pub misses: u64,
    /// Inserts that displaced a different key from its slot.
    pub evictions: u64,
}

#[derive(Debug)]
struct Slot<V> {
    key: Vec<u8>,
    value: V,
}

/// A deterministic, fixed-capacity, direct-mapped memoization cache.
///
/// Collisions overwrite (counted as evictions); there is no probing and no
/// recency state, so a given key sequence always produces the same hit
/// pattern regardless of timing — the property that keeps memoized runs
/// reproducible and the metrics export byte-stable.
#[derive(Debug)]
pub struct MemoCache<V> {
    slots: Vec<Option<Slot<V>>>,
    mask: u64,
    counters: MemoCounters,
}

impl<V> MemoCache<V> {
    /// A cache with [`DEFAULT_MEMO_SLOTS`] slots.
    pub fn new() -> MemoCache<V> {
        MemoCache::with_slots(DEFAULT_MEMO_SLOTS)
    }

    /// A cache with at least `slots` slots (rounded up to a power of two).
    pub fn with_slots(slots: usize) -> MemoCache<V> {
        let n = slots.max(1).next_power_of_two();
        MemoCache {
            slots: (0..n).map(|_| None).collect(),
            mask: (n - 1) as u64,
            counters: MemoCounters::default(),
        }
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn lookup(&mut self, key: &[u8]) -> Option<&V> {
        let index = (fnv1a(key) & self.mask) as usize;
        let hit = matches!(&self.slots[index], Some(s) if s.key == key);
        if hit {
            self.counters.hits += 1;
            self.slots[index].as_ref().map(|s| &s.value)
        } else {
            self.counters.misses += 1;
            None
        }
    }

    /// Installs `value` under `key`, displacing any different key that
    /// hashed to the same slot (counted as an eviction).
    pub fn insert(&mut self, key: &[u8], value: V) {
        match self.claim(key) {
            Ok(slot) => *slot = value,
            Err(empty) => self.fill(empty, key, value),
        }
    }

    /// Installs a value under `key` like [`MemoCache::insert`], but in
    /// place: an occupied slot — refreshed or displaced — has its value
    /// rewritten by `overwrite`, so a steady-state insert allocates
    /// nothing; only an empty slot takes a fresh value from `make`.
    pub fn insert_with(
        &mut self,
        key: &[u8],
        make: impl FnOnce() -> V,
        overwrite: impl FnOnce(&mut V),
    ) {
        match self.claim(key) {
            Ok(slot) => overwrite(slot),
            Err(empty) => self.fill(empty, key, make()),
        }
    }

    /// The value in `key`'s slot, rekeyed to `key` (displacing a
    /// different key counts as an eviction), or the slot's index when it
    /// is empty.
    fn claim(&mut self, key: &[u8]) -> Result<&mut V, usize> {
        let index = (fnv1a(key) & self.mask) as usize;
        let Some(slot) = self.slots[index].as_mut() else {
            return Err(index);
        };
        if slot.key != key {
            self.counters.evictions += 1;
            slot.key.clear();
            slot.key.extend_from_slice(key);
        }
        Ok(&mut slot.value)
    }

    fn fill(&mut self, index: usize, key: &[u8], value: V) {
        self.slots[index] = Some(Slot {
            key: key.to_vec(),
            value,
        });
    }

    /// The cache's hit/miss/eviction counters.
    pub fn counters(&self) -> MemoCounters {
        self.counters
    }

    /// The number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Mutable access to every cached value, in slot order. Exists so
    /// fault-injection tests can corrupt entries and prove that the
    /// check mode detects the corruption.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten().map(|s| &mut s.value)
    }
}

impl<V> Default for MemoCache<V> {
    fn default() -> MemoCache<V> {
        MemoCache::new()
    }
}

/// FNV-1a over the key bytes — cheap, deterministic, and dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Verdict of the static write-region analysis: whether every store the
/// program can execute stays within per-packet state.
#[derive(Debug, Clone)]
pub struct WriteAnalysis {
    /// `true` when no store can reach persistent non-packet memory.
    pub memoizable: bool,
    /// Human-readable descriptions of the offending stores (empty when
    /// `memoizable`).
    pub violations: Vec<String>,
    /// Every distinct `sys` call number the program contains, in program
    /// order. Callers veto memoization for side-effectful calls (e.g. the
    /// framework's write-to-trace, which consumes a clock timestamp).
    pub sys_codes: Vec<u32>,
}

impl fmt::Display for WriteAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.memoizable {
            write!(f, "memoizable (all stores packet-scoped)")
        } else {
            write!(f, "not memoizable: {}", self.violations.join("; "))
        }
    }
}

/// What the analysis knows about a register's value at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Anything — including loaded values and call return values.
    Unknown,
    /// The packet-buffer pointer handed to the program in `a0`, plus any
    /// constant offset.
    PacketPtr,
    /// The stack pointer seeded by the framework, plus any constant offset.
    StackPtr,
    /// A compile-time constant (absolute addresses built with `lui`/`la`).
    Const(u32),
}

type RegState = [AbsVal; 32];

fn join_val(a: AbsVal, b: AbsVal) -> AbsVal {
    if a == b {
        a
    } else {
        AbsVal::Unknown
    }
}

fn join_state(into: &mut RegState, other: &RegState) -> bool {
    let mut changed = false;
    for (a, b) in into.iter_mut().zip(other.iter()) {
        let joined = join_val(*a, *b);
        if joined != *a {
            *a = joined;
            changed = true;
        }
    }
    changed
}

fn set(state: &mut RegState, rd: usize, value: AbsVal) {
    if rd != reg::ZERO.index() {
        state[rd] = value;
    }
}

/// Applies one non-control instruction to the abstract register state.
fn transfer(inst: &crate::isa::Inst, state: &mut RegState) {
    use AbsVal::*;
    use Op::*;
    let rd = inst.rd.index();
    let a = state[inst.rs1.index()];
    let b = state[inst.rs2.index()];
    let imm = inst.imm;
    match inst.op {
        Lui => set(state, rd, Const((imm as u32) << 16)),
        Addi => set(
            state,
            rd,
            match a {
                Const(c) => Const(c.wrapping_add(imm as u32)),
                PacketPtr => PacketPtr,
                StackPtr => StackPtr,
                Unknown => Unknown,
            },
        ),
        Add => set(
            state,
            rd,
            match (a, b) {
                (Const(x), Const(y)) => Const(x.wrapping_add(y)),
                (PacketPtr, Const(_)) | (Const(_), PacketPtr) => PacketPtr,
                (StackPtr, Const(_)) | (Const(_), StackPtr) => StackPtr,
                _ => Unknown,
            },
        ),
        Sub => set(
            state,
            rd,
            match (a, b) {
                (Const(x), Const(y)) => Const(x.wrapping_sub(y)),
                (PacketPtr, Const(_)) => PacketPtr,
                (StackPtr, Const(_)) => StackPtr,
                _ => Unknown,
            },
        ),
        Andi => set(
            state,
            rd,
            match a {
                Const(c) => Const(c & imm as u32),
                _ => Unknown,
            },
        ),
        Ori => set(
            state,
            rd,
            match a {
                Const(c) => Const(c | imm as u32),
                _ => Unknown,
            },
        ),
        Xori => set(
            state,
            rd,
            match a {
                Const(c) => Const(c ^ imm as u32),
                _ => Unknown,
            },
        ),
        Slli => set(
            state,
            rd,
            match a {
                Const(c) => Const(c << (imm as u32 & 31)),
                _ => Unknown,
            },
        ),
        Srli => set(
            state,
            rd,
            match a {
                Const(c) => Const(c >> (imm as u32 & 31)),
                _ => Unknown,
            },
        ),
        Srai => set(
            state,
            rd,
            match a {
                Const(c) => Const(((c as i32) >> (imm as u32 & 31)) as u32),
                _ => Unknown,
            },
        ),
        And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu | Slti | Sltiu | Mul | Mulhu | Divu
        | Remu => set(state, rd, Unknown),
        Lb | Lbu | Lh | Lhu | Lw => set(state, rd, Unknown),
        // Stores, branches, jumps and sys don't write registers here; jal /
        // jalr link registers are handled by the caller's CFG walk.
        _ => {}
    }
}

/// Statically proves (or refutes) that every store in `program` targets
/// per-packet state: the packet buffer, the stack, or program-data scratch
/// below `scratch_limit` (the boundary above which the application keeps
/// persistent tables built at init time).
///
/// The proof is a forward abstract interpretation over the decoded
/// instructions, tracking for each register whether it derives from the
/// packet pointer (`a0`), the stack pointer, or a compile-time constant.
/// Control-flow recovery assumes the standard call/return idiom (`jal`
/// targets are entered with the caller's state; `jr`/`jalr` transfer to
/// the instruction after some `jal`): a `jr` through anything other than
/// `ra` conservatively forgets all register knowledge at every block
/// entry, which in practice vetoes the program. Any store whose base
/// cannot be proven packet-scoped is reported as a violation.
pub fn analyze_writes(program: &Program, map: &MemoryMap, scratch_limit: u32) -> WriteAnalysis {
    use AbsVal::*;
    let insts = program.insts();
    let n = insts.len();
    let mut sys_codes: Vec<u32> = Vec::new();
    for inst in insts {
        if inst.op == Op::Sys {
            let code = inst.imm as u32;
            if !sys_codes.contains(&code) {
                sys_codes.push(code);
            }
        }
    }
    if n == 0 {
        return WriteAnalysis {
            memoizable: true,
            violations: Vec::new(),
            sys_codes,
        };
    }

    // Block leaders: entry, control-transfer targets, and fall-throughs.
    let target_of = |i: usize| -> Option<usize> {
        let t = i as i64 + 1 + i64::from(insts[i].imm) / 4;
        (0..n as i64).contains(&t).then_some(t as usize)
    };
    let mut leader = vec![false; n];
    leader[0] = true;
    let mut return_sites: Vec<usize> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        if inst.op.ends_block() && i + 1 < n {
            leader[i + 1] = true;
        }
        match inst.op {
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu | Op::J | Op::Jal => {
                if let Some(t) = target_of(i) {
                    leader[t] = true;
                }
            }
            _ => {}
        }
        if matches!(inst.op, Op::Jal | Op::Jalr) && i + 1 < n {
            return_sites.push(i + 1);
        }
    }
    let leaders: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
    let block_end = |start: usize| -> usize {
        // One past the last instruction of the block starting at `start`.
        let mut i = start;
        loop {
            if insts[i].op.ends_block() || i + 1 >= n || leader[i + 1] {
                return i + 1;
            }
            i += 1;
        }
    };

    let mut entry: Vec<Option<RegState>> = vec![None; n]; // indexed by leader
    let mut initial = [Unknown; 32];
    initial[reg::ZERO.index()] = Const(0);
    initial[reg::A0.index()] = PacketPtr;
    initial[reg::SP.index()] = StackPtr;
    initial[reg::GP.index()] = Const(map.data_base);
    entry[0] = Some(initial);

    let mut worklist: Vec<usize> = vec![0];
    let propagate = |entry: &mut Vec<Option<RegState>>,
                     worklist: &mut Vec<usize>,
                     to: usize,
                     state: &RegState| {
        match &mut entry[to] {
            Some(existing) => {
                if join_state(existing, state) {
                    worklist.push(to);
                }
            }
            slot => {
                *slot = Some(*state);
                worklist.push(to);
            }
        }
    };

    while let Some(start) = worklist.pop() {
        let Some(mut state) = entry[start] else {
            continue;
        };
        let end = block_end(start);
        for (i, inst) in insts.iter().enumerate().take(end).skip(start) {
            match inst.op {
                Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                    if let Some(t) = target_of(i) {
                        propagate(&mut entry, &mut worklist, t, &state);
                    }
                    if i + 1 < n {
                        propagate(&mut entry, &mut worklist, i + 1, &state);
                    }
                }
                Op::J => {
                    if let Some(t) = target_of(i) {
                        propagate(&mut entry, &mut worklist, t, &state);
                    }
                }
                Op::Jal => {
                    // Enter the callee with the caller's state; the matching
                    // return flows back through the jr broadcast below.
                    state[reg::RA.index()] = Unknown;
                    if let Some(t) = target_of(i) {
                        propagate(&mut entry, &mut worklist, t, &state);
                    }
                }
                Op::Jr | Op::Jalr => {
                    if inst.op == Op::Jalr {
                        set(&mut state, inst.rd.index(), Unknown);
                    }
                    let standard_return = inst.op == Op::Jr && inst.rs1 == reg::RA;
                    if standard_return {
                        for &site in &return_sites {
                            propagate(&mut entry, &mut worklist, site, &state);
                        }
                    } else {
                        // Computed jump: forget everything, everywhere.
                        let top = [Unknown; 32];
                        for &l in &leaders {
                            propagate(&mut entry, &mut worklist, l, &top);
                        }
                    }
                }
                Op::Sys => {
                    if i + 1 < n {
                        propagate(&mut entry, &mut worklist, i + 1, &state);
                    }
                }
                Op::Halt => {}
                _ => transfer(inst, &mut state),
            }
        }
    }

    // With entry states at fixpoint, re-walk each reachable block and
    // classify every store's base address.
    let mut violations = Vec::new();
    for &start in &leaders {
        let Some(mut state) = entry[start] else {
            continue;
        };
        let end = block_end(start);
        for (i, inst) in insts.iter().enumerate().take(end).skip(start) {
            if matches!(inst.op, Op::Sb | Op::Sh | Op::Sw) {
                let base = state[inst.rs1.index()];
                let ok = match base {
                    PacketPtr | StackPtr => true,
                    Const(addr) => {
                        let addr = addr.wrapping_add(inst.imm as u32);
                        match map.region(addr) {
                            Region::Packet | Region::Stack => true,
                            Region::ProgramData => addr < scratch_limit,
                            _ => false,
                        }
                    }
                    Unknown => false,
                };
                if !ok {
                    violations.push(format!(
                        "store `{}` at {:#010x} targets {} memory",
                        inst,
                        program.pc_of(i),
                        match base {
                            Const(_) => "persistent non-packet",
                            _ => "statically unresolvable",
                        }
                    ));
                }
            }
            if !inst.op.ends_block() {
                transfer(inst, &mut state);
            }
        }
    }

    WriteAnalysis {
        memoizable: violations.is_empty(),
        violations,
        sys_codes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Inst, Reg};

    fn map() -> MemoryMap {
        MemoryMap::default()
    }

    #[test]
    fn cache_hits_misses_and_evictions_are_counted() {
        let mut cache: MemoCache<u32> = MemoCache::with_slots(2);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(b"alpha"), None);
        cache.insert(b"alpha", 1);
        assert_eq!(cache.lookup(b"alpha"), Some(&1));
        assert_eq!(cache.lookup(b"beta"), None);
        cache.insert(b"beta", 2);
        assert_eq!(cache.len(), cache.slots.iter().flatten().count());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 2));
        // Force an eviction: with 2 slots, some pair of distinct keys must
        // collide eventually.
        let mut evicted = false;
        for i in 0..16u8 {
            cache.insert(&[i], u32::from(i));
            if cache.counters().evictions > 0 {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "16 keys into 2 slots must evict");
    }

    #[test]
    fn insert_with_overwrites_in_place_and_counts_like_insert() {
        let keys: Vec<[u8; 1]> = (0..40u8).map(|i| [i % 11]).collect();
        let mut moved: MemoCache<Vec<u8>> = MemoCache::with_slots(4);
        let mut in_place: MemoCache<Vec<u8>> = MemoCache::with_slots(4);
        let mut made = 0;
        for key in &keys {
            moved.insert(key, key.to_vec());
            in_place.insert_with(
                key,
                || {
                    made += 1;
                    key.to_vec()
                },
                |v| {
                    v.clear();
                    v.extend_from_slice(key);
                },
            );
        }
        // A value is only built for an empty slot; every later insert
        // rewrites the slot it lands in.
        assert_eq!(made, in_place.len());
        assert_eq!(moved.counters(), in_place.counters());
        assert!(in_place.counters().evictions > 0);
        for key in &keys {
            assert_eq!(moved.lookup(key), in_place.lookup(key));
        }
    }

    #[test]
    fn cache_is_deterministic() {
        let run = || {
            let mut cache: MemoCache<u64> = MemoCache::with_slots(8);
            for i in 0..100u64 {
                let key = (i % 13).to_le_bytes();
                if cache.lookup(&key).is_none() {
                    cache.insert(&key, i);
                }
            }
            cache.counters()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packet_and_stack_stores_are_memoizable() {
        let m = map();
        // sb t0, 8(a0); sw ra, 0(sp); jr ra
        let program = Program::new(
            vec![
                Inst::store(Op::Sb, reg::T0, reg::A0, 8),
                Inst::store(Op::Sw, reg::RA, reg::SP, 0),
                Inst::jr(reg::RA),
            ],
            m.text_base,
        );
        let analysis = analyze_writes(&program, &m, m.data_base);
        assert!(analysis.memoizable, "{analysis}");
    }

    #[test]
    fn derived_packet_pointers_stay_packet() {
        let m = map();
        // t0 = a0 + 16; t0 = t0 + 4 (via addi); sb t1, 0(t0)
        let program = Program::new(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::A0, 16),
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, 4),
                Inst::store(Op::Sb, reg::T1, reg::T0, 0),
                Inst::jr(reg::RA),
            ],
            m.text_base,
        );
        assert!(analyze_writes(&program, &m, m.data_base).memoizable);
    }

    #[test]
    fn scratch_below_limit_is_allowed_above_is_not() {
        let m = map();
        let scratch = m.data_base + 0x100;
        // la t0, data_base+0x10 ; sw t1, 0(t0)   (scratch: ok)
        // la t2, data_base+0x200; sw t1, 0(t2)   (persistent: violation)
        let lo = m.data_base + 0x10;
        let hi = m.data_base + 0x200;
        let build = |addr: u32, dst: Reg| {
            [
                Inst::lui(dst, (addr >> 16) as i32),
                Inst::with_imm(Op::Addi, dst, dst, (addr & 0xffff) as i32),
            ]
        };
        let mut insts: Vec<Inst> = Vec::new();
        insts.extend(build(lo, reg::T0));
        insts.push(Inst::store(Op::Sw, reg::T1, reg::T0, 0));
        insts.push(Inst::jr(reg::RA));
        let ok = Program::new(insts.clone(), m.text_base);
        assert!(analyze_writes(&ok, &m, scratch).memoizable);

        let mut insts2: Vec<Inst> = Vec::new();
        insts2.extend(build(hi, reg::T2));
        insts2.push(Inst::store(Op::Sw, reg::T1, reg::T2, 0));
        insts2.push(Inst::jr(reg::RA));
        let bad = Program::new(insts2, m.text_base);
        let analysis = analyze_writes(&bad, &m, scratch);
        assert!(!analysis.memoizable);
        assert!(analysis.violations[0].contains("persistent"));
    }

    #[test]
    fn loaded_pointers_are_vetoed() {
        let m = map();
        // lw t0, 0(gp); sw t1, 0(t0) — pointer chased from memory.
        let program = Program::new(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::GP, 0),
                Inst::store(Op::Sw, reg::T1, reg::T0, 0),
                Inst::jr(reg::RA),
            ],
            m.text_base,
        );
        let analysis = analyze_writes(&program, &m, m.data_base);
        assert!(!analysis.memoizable);
        assert!(analysis.violations[0].contains("unresolvable"));
    }

    #[test]
    fn call_and_return_preserve_packet_base() {
        let m = map();
        // main: jal helper; sb t0, 4(a0); jr ra
        // helper: addi t3, zero, 7; jr ra
        let insts = vec![
            Inst::jump(Op::Jal, 8), // to index 3
            Inst::store(Op::Sb, reg::T0, reg::A0, 4),
            Inst::jr(reg::RA),
            Inst::with_imm(Op::Addi, reg::T3, reg::ZERO, 7),
            Inst::jr(reg::RA),
        ];
        let program = Program::new(insts, m.text_base);
        assert!(analyze_writes(&program, &m, m.data_base).memoizable);
    }

    #[test]
    fn computed_jumps_forget_everything() {
        let m = map();
        // jr t0 makes every block entry unknown, so the a0 store is vetoed.
        let insts = vec![
            Inst::jr(reg::T0),
            Inst::store(Op::Sb, reg::T1, reg::A0, 0),
            Inst::jr(reg::RA),
        ];
        let program = Program::new(insts, m.text_base);
        assert!(!analyze_writes(&program, &m, m.data_base).memoizable);
    }

    #[test]
    fn sys_codes_are_collected() {
        let m = map();
        let program = Program::new(
            vec![Inst::sys(1), Inst::sys(3), Inst::sys(1), Inst::jr(reg::RA)],
            m.text_base,
        );
        let analysis = analyze_writes(&program, &m, m.data_base);
        assert_eq!(analysis.sys_codes, vec![1, 3]);
        assert!(analysis.memoizable);
    }
}
