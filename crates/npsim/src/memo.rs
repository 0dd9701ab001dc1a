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
//! The cache itself ([`MemoCache`]) is 4-way set-associative with
//! least-recently-used replacement: a key hashes (once, to a
//! [`MemoKey`]) to a set and may live in any of its [`WAYS`] slots, so a
//! hot key is only displaced when four other keys of its set were used
//! more recently. Recency is a use counter advanced by hits and installs,
//! not a clock, so contents and counters are a pure function of the key
//! sequence — a requirement for the byte-stable metrics exports and the
//! conformance legs that replay runs.

use std::fmt;

use crate::cpu::Program;
use crate::isa::{reg, Op};
use crate::mem::{MemoryMap, Region};

/// Default number of slots in a [`MemoCache`] (per worker).
pub const DEFAULT_MEMO_SLOTS: usize = 4096;

/// Slots (ways) per set of a [`MemoCache`]: a key may live in any of the
/// `WAYS` slots of the set its hash picks.
pub const WAYS: usize = 4;

/// Hit/miss/eviction counters of a [`MemoCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Lookups that found a matching key.
    pub hits: u64,
    /// Lookups that found no matching key.
    pub misses: u64,
    /// Installs that displaced their set's least recently used key.
    pub evictions: u64,
}

/// A memo key: its bytes and their hash, computed once whenever the bytes
/// change. A lookup and the install that follows a miss share that one
/// hash, and since the bytes are private no caller can install a key
/// under a stale one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl MemoKey {
    /// Rebuilds the key in place from `parts`, concatenated (reusing its
    /// buffer), and hashes it.
    pub fn assign(&mut self, parts: &[&[u8]]) {
        self.bytes.clear();
        for part in parts {
            self.bytes.extend_from_slice(part);
        }
        self.hash = hash_key(&self.bytes);
    }
}

/// One way's tag: its key's hash and the use count of its last hit or
/// install. A `last_use` of 0 marks an empty way (use counts start at 1),
/// so the least recently used way of a set is an empty one while any is.
#[derive(Debug, Clone, Copy, Default)]
struct Tag {
    hash: u64,
    last_use: u64,
}

/// The tags of one set, in one cache line: a probe compares four hashes
/// and touches a key only when its hash matches.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct SetTags([Tag; WAYS]);

#[derive(Debug)]
struct Entry<V> {
    key: Vec<u8>,
    value: V,
}

/// A deterministic, fixed-capacity, 4-way set-associative memoization
/// cache with least-recently-used replacement.
///
/// Recency is a per-cache use counter that hits and installs advance, so
/// a given key sequence always produces the same contents and the same
/// hit/miss/eviction counts regardless of timing — the property that
/// keeps memoized runs reproducible and the metrics export byte-stable.
/// Probing is bounded by [`WAYS`]: keys crafted to share a set can at
/// worst force misses.
#[derive(Debug)]
pub struct MemoCache<V> {
    /// The tags of every set, indexed by set.
    tags: Vec<SetTags>,
    /// `WAYS` slots per set, set `s` at `s * WAYS`; a slot is `Some`
    /// exactly when its tag's `last_use` is non-zero.
    entries: Vec<Option<Entry<V>>>,
    set_mask: u64,
    /// The use counter: the count of hits and installs so far.
    uses: u64,
    counters: MemoCounters,
}

impl<V> MemoCache<V> {
    /// A cache with [`DEFAULT_MEMO_SLOTS`] slots.
    pub fn new() -> MemoCache<V> {
        MemoCache::with_slots(DEFAULT_MEMO_SLOTS)
    }

    /// A cache with at least `slots` slots, rounded up to a power-of-two
    /// number of full sets (so at least one set of [`WAYS`] slots).
    pub fn with_slots(slots: usize) -> MemoCache<V> {
        let sets = slots.div_ceil(WAYS).max(1).next_power_of_two();
        MemoCache {
            tags: vec![SetTags::default(); sets],
            entries: (0..sets * WAYS).map(|_| None).collect(),
            set_mask: (sets - 1) as u64,
            uses: 0,
            counters: MemoCounters::default(),
        }
    }

    /// Looks `key` up, counting a hit or a miss. A hit makes the key its
    /// set's most recently used.
    pub fn lookup(&mut self, key: &MemoKey) -> Option<&V> {
        let Some(slot) = self.find(key) else {
            self.counters.misses += 1;
            return None;
        };
        self.counters.hits += 1;
        self.touch(slot, key.hash);
        self.entries[slot].as_ref().map(|e| &e.value)
    }

    /// Installs `value` under `key`, in the slot already holding `key`,
    /// else in its set's least recently used slot (displacing a key there
    /// counts as an eviction).
    pub fn insert(&mut self, key: &MemoKey, value: V) {
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
        key: &MemoKey,
        make: impl FnOnce() -> V,
        overwrite: impl FnOnce(&mut V),
    ) {
        match self.claim(key) {
            Ok(slot) => overwrite(slot),
            Err(empty) => self.fill(empty, key, make()),
        }
    }

    /// The first slot of `key`'s set.
    fn set_base(&self, key: &MemoKey) -> usize {
        (key.hash & self.set_mask) as usize * WAYS
    }

    /// The slot holding `key`, if it is cached.
    fn find(&self, key: &MemoKey) -> Option<usize> {
        let base = self.set_base(key);
        let tags = &self.tags[base / WAYS].0;
        (0..WAYS)
            .find(|&way| {
                let tag = tags[way];
                tag.last_use != 0
                    && tag.hash == key.hash
                    && self.entries[base + way]
                        .as_ref()
                        .is_some_and(|e| e.key == key.bytes)
            })
            .map(|way| base + way)
    }

    /// Marks `slot` as its set's most recently used, holding `hash`.
    fn touch(&mut self, slot: usize, hash: u64) {
        self.uses += 1;
        self.tags[slot / WAYS].0[slot % WAYS] = Tag {
            hash,
            last_use: self.uses,
        };
    }

    /// The value in the slot `key` is installed in, rekeyed to `key`, or
    /// that slot's index when it is empty. The slot is the one already
    /// holding `key`, else the least recently used of its set (displacing
    /// a key counts as an eviction); either way it becomes the most
    /// recently used.
    fn claim(&mut self, key: &MemoKey) -> Result<&mut V, usize> {
        let slot = match self.find(key) {
            Some(slot) => slot,
            None => {
                let base = self.set_base(key);
                let tags = &self.tags[base / WAYS].0;
                let lru = (0..WAYS).min_by_key(|&way| tags[way].last_use);
                let slot = base + lru.expect("a set has ways");
                if let Some(entry) = &mut self.entries[slot] {
                    self.counters.evictions += 1;
                    entry.key.clear();
                    entry.key.extend_from_slice(&key.bytes);
                }
                slot
            }
        };
        self.touch(slot, key.hash);
        match &mut self.entries[slot] {
            Some(entry) => Ok(&mut entry.value),
            None => Err(slot),
        }
    }

    fn fill(&mut self, slot: usize, key: &MemoKey, value: V) {
        self.entries[slot] = Some(Entry {
            key: key.bytes.clone(),
            value,
        });
    }

    /// The cache's hit/miss/eviction counters.
    pub fn counters(&self) -> MemoCounters {
        self.counters
    }

    /// The number of occupied slots.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.is_none())
    }

    /// Mutable access to every cached value, in slot order. Exists so
    /// fault-injection tests can corrupt entries and prove that the
    /// check mode detects the corruption.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().flatten().map(|e| &mut e.value)
    }
}

impl<V> Default for MemoCache<V> {
    fn default() -> MemoCache<V> {
        MemoCache::new()
    }
}

/// The key hash: the key length, then the key eight bytes at a time (a
/// short tail zero-padded), each word xored in and multiplied by an odd
/// constant, then murmur3's 64-bit finalizer. A multiply carries a
/// word's bits only upward, so without the final avalanche the low bits
/// that pick the set would depend only on each word's low bytes.
fn hash_key(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hash = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = (hash ^ word).wrapping_mul(K);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash = (hash ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
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

    fn key(bytes: &[u8]) -> MemoKey {
        let mut key = MemoKey::default();
        key.assign(&[bytes]);
        key
    }

    /// `n` distinct keys that all hash to set 0 of a cache with `sets`
    /// sets.
    fn keys_in_set_zero(sets: u64, n: usize) -> Vec<MemoKey> {
        (0u32..)
            .map(|i| key(&i.to_le_bytes()))
            .filter(|k| k.hash & (sets - 1) == 0)
            .take(n)
            .collect()
    }

    #[test]
    fn cache_hits_misses_and_evictions_are_counted() {
        let mut cache: MemoCache<u32> = MemoCache::with_slots(2);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&key(b"alpha")), None);
        cache.insert(&key(b"alpha"), 1);
        assert_eq!(cache.lookup(&key(b"alpha")), Some(&1));
        assert_eq!(cache.lookup(&key(b"beta")), None);
        cache.insert(&key(b"beta"), 2);
        assert_eq!(cache.len(), cache.entries.iter().flatten().count());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 2));
        // Force an eviction: 2 slots round up to one set of 4 ways, so
        // the fifth distinct key displaces one.
        let mut evicted = false;
        for i in 0..16u8 {
            cache.insert(&key(&[i]), u32::from(i));
            if cache.counters().evictions > 0 {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "16 keys into 4 slots must evict");
    }

    #[test]
    fn insert_with_overwrites_in_place_and_counts_like_insert() {
        let keys: Vec<MemoKey> = (0..40u8).map(|i| key(&[i % 11])).collect();
        let mut moved: MemoCache<Vec<u8>> = MemoCache::with_slots(4);
        let mut in_place: MemoCache<Vec<u8>> = MemoCache::with_slots(4);
        let mut made = 0;
        for key in &keys {
            moved.insert(key, key.bytes.clone());
            in_place.insert_with(
                key,
                || {
                    made += 1;
                    key.bytes.clone()
                },
                |v| {
                    v.clear();
                    v.extend_from_slice(&key.bytes);
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
                let key = key(&(i % 13).to_le_bytes());
                if cache.lookup(&key).is_none() {
                    cache.insert(&key, i);
                }
            }
            cache.counters()
        };
        assert_eq!(run(), run());
        // A longer sequence over more keys than slots, with LRU
        // replacement at work, repeats exactly too.
        let churn = || {
            let mut cache: MemoCache<u64> = MemoCache::with_slots(64);
            for i in 0..5000u64 {
                let key = key(&((i * i + 7 * i) % 97).to_le_bytes());
                if cache.lookup(&key).is_none() {
                    cache.insert(&key, i);
                }
            }
            cache.counters()
        };
        let counters = churn();
        assert!(counters.evictions > 0, "{counters:?}");
        assert_eq!(counters, churn());
    }

    #[test]
    fn four_keys_in_one_set_coexist() {
        let mut cache: MemoCache<usize> = MemoCache::with_slots(64);
        let keys = keys_in_set_zero(64 / WAYS as u64, WAYS);
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key, i);
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.lookup(key), Some(&i));
        }
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (WAYS as u64, 0, 0));
    }

    #[test]
    fn a_fifth_key_evicts_the_least_recently_used() {
        let mut cache: MemoCache<usize> = MemoCache::with_slots(64);
        let keys = keys_in_set_zero(64 / WAYS as u64, WAYS + 1);
        for (i, key) in keys[..WAYS].iter().enumerate() {
            cache.insert(key, i);
        }
        // Touch every resident key but the second: it becomes the LRU.
        for i in [0, 2, 3] {
            assert_eq!(cache.lookup(&keys[i]), Some(&i));
        }
        cache.insert(&keys[WAYS], WAYS);
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.lookup(&keys[1]), None);
        for i in [0, 2, 3, WAYS] {
            assert_eq!(cache.lookup(&keys[i]), Some(&i), "key {i}");
        }
        assert_eq!(cache.len(), WAYS);
    }

    #[test]
    fn with_slots_rounds_up_to_one_full_set() {
        for slots in [0, 1, 2, 3, 4] {
            let cache: MemoCache<u8> = MemoCache::with_slots(slots);
            assert_eq!((cache.entries.len(), cache.tags.len()), (WAYS, 1));
        }
        let cache: MemoCache<u8> = MemoCache::with_slots(6);
        assert_eq!((cache.entries.len(), cache.tags.len()), (2 * WAYS, 2));
        let cache: MemoCache<u8> = MemoCache::new();
        assert_eq!(cache.entries.len(), DEFAULT_MEMO_SLOTS);
        assert_eq!(cache.tags.len(), DEFAULT_MEMO_SLOTS / WAYS);
    }

    #[test]
    fn keys_differing_in_one_high_byte_spread_over_sets() {
        // Only byte 7 — the top byte of the key's one word — differs. A
        // multiply alone would leave it out of the low bits entirely and
        // put all 256 keys in one set.
        let sets = (DEFAULT_MEMO_SLOTS / WAYS) as u64;
        let mut used = std::collections::BTreeSet::new();
        for b in 0..=255u8 {
            used.insert(key(&[1, 2, 3, 4, 5, 6, 7, b]).hash & (sets - 1));
        }
        // 256 keys thrown at 1024 sets at random fill ~226 of them.
        assert!(used.len() > 200, "{} sets", used.len());
        // The same holds for a byte in the middle of a longer key.
        let mut used = std::collections::BTreeSet::new();
        for b in 0..=255u8 {
            let mut bytes = [0u8; 64];
            bytes[39] = b;
            used.insert(key(&bytes).hash & (sets - 1));
        }
        assert!(used.len() > 200, "{} sets", used.len());
    }

    #[test]
    fn key_parts_concatenate_and_rehash() {
        let mut k = key(b"abc");
        k.assign(&[b"ab", b"cd"]);
        assert_eq!(k, key(b"abcd"));
        // The length is hashed, so a zero-padded tail does not alias.
        assert_ne!(key(b"abc").hash, key(b"abc\0").hash);
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
