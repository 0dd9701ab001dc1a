//! Static basic-block discovery over an NP32 program.
//!
//! The paper's individual-packet analyses (§V-C) are phrased in terms of
//! basic blocks: block execution probability (Fig. 7) and the packet-coverage
//! curve over blocks (Fig. 8). Blocks are derived from the program text with
//! the classic leader rule:
//!
//! * the first instruction is a leader,
//! * every static branch/jump target is a leader,
//! * every instruction following a control transfer (branch, jump, `sys`,
//!   `halt`) is a leader.
//!
//! Indirect jumps (`jr`/`jalr`) have no static target, but in code produced
//! by [`npasm`](https://crates.io) they only ever return to a call site, and
//! call-return sites are leaders because `jal` ends the preceding block.
//!
//! On top of the partition, [`BlockTable`] predecodes each block into a
//! *superblock* entry — a fused statistics delta, statically-classified
//! memory-access groups, and resolved successor links — that the counts-only
//! interpreter's block engine (`Cpu::exec_blocks`) retires in one shot
//! instead of per instruction. See DESIGN.md ("Superblock engine").

use std::cell::{Cell, RefCell, RefMut};
use std::ops::Range;

use crate::cpu::Program;
use crate::isa::{Op, OpClass};
use crate::trace::{TraceParams, TraceState, TraceStats};
use crate::util::BitSet;

/// The partition of a program into basic blocks.
#[derive(Debug, Clone)]
pub struct BlockMap {
    /// Sorted leader instruction indices; block `b` spans
    /// `leaders[b] .. leaders[b + 1]`.
    leaders: Vec<usize>,
    /// Per-instruction block id.
    block_of: Vec<u32>,
}

impl BlockMap {
    /// Partitions `program` into basic blocks.
    pub fn build(program: &Program) -> BlockMap {
        let insts = program.insts();
        let n = insts.len();
        let mut is_leader = vec![false; n];
        if n > 0 {
            is_leader[0] = true;
        }
        for (i, inst) in insts.iter().enumerate() {
            match inst.op {
                Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu | Op::J | Op::Jal => {
                    // Target index: pc + 4 + imm.
                    let target_pc = program
                        .pc_of(i)
                        .wrapping_add(4)
                        .wrapping_add(inst.imm as u32);
                    if let Some(t) = program.index_of(target_pc) {
                        is_leader[t] = true;
                    }
                    if i + 1 < n {
                        is_leader[i + 1] = true;
                    }
                }
                Op::Jr | Op::Jalr | Op::Sys | Op::Halt if i + 1 < n => {
                    is_leader[i + 1] = true;
                }
                _ => {}
            }
        }
        let leaders: Vec<usize> = (0..n).filter(|&i| is_leader[i]).collect();
        let mut block_of = vec![0u32; n];
        let mut block = 0usize;
        for (i, slot) in block_of.iter_mut().enumerate() {
            if block + 1 < leaders.len() && i >= leaders[block + 1] {
                block += 1;
            }
            *slot = block as u32;
        }
        BlockMap { leaders, block_of }
    }

    /// The number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.leaders.len()
    }

    /// The block containing instruction `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_of(&self, index: usize) -> usize {
        self.block_of[index] as usize
    }

    /// The instruction-index range of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= num_blocks()`.
    pub fn block_range(&self, b: usize) -> Range<usize> {
        let start = self.leaders[b];
        let end = self
            .leaders
            .get(b + 1)
            .copied()
            .unwrap_or(self.block_of.len());
        start..end
    }

    /// The leader instruction index of block `b`.
    pub fn leader(&self, b: usize) -> usize {
        self.leaders[b]
    }

    /// All leader instruction indices, sorted ascending.
    pub fn leaders(&self) -> &[usize] {
        &self.leaders
    }

    /// The per-instruction block-id table (`block_ids()[index]` is the
    /// block containing instruction `index`). Exposed so per-instruction
    /// observers (the `npobs` heat profiler) can do O(1) lookups without
    /// rebuilding the partition.
    pub fn block_ids(&self) -> &[u32] {
        &self.block_of
    }

    /// Maps a per-instruction executed set to a per-block executed set.
    ///
    /// Because control can only enter a block at its leader, a block is
    /// executed if and only if its leader is.
    pub fn blocks_executed(&self, executed: &BitSet) -> BitSet {
        let mut blocks = BitSet::new(self.num_blocks());
        for (b, &leader) in self.leaders.iter().enumerate() {
            if executed.contains(leader) {
                blocks.insert(b);
            }
        }
        blocks
    }

    /// The total instruction count of the blocks in `blocks` — used when
    /// trading instruction-store size against packet coverage (paper §V-C.4).
    pub fn instructions_in(&self, blocks: &BitSet) -> usize {
        blocks.iter().map(|b| self.block_range(b).len()).sum()
    }
}

/// Widest entry-relative byte span a statically-grouped base register may
/// cover. The block engine's runtime gate proves region uniformity by
/// classifying only the group's lowest and highest byte, which is sound for
/// the interval-shaped regions it accepts regardless of span — this bound
/// just keeps pathological offset chains from creating groups whose gate
/// would almost always fail anyway.
const GATE_MAX_SPAN: i64 = 4096;

/// Maximum statically-classified groups per block; the gate is evaluated
/// per group on every retire, so cap the per-block work. Blocks rarely
/// address through more than two or three distinct bases.
pub(crate) const MAX_GROUPS: usize = 4;

/// Groups with a single access are not worth gating: the gate costs about
/// as much as classifying the access dynamically.
const MIN_GROUP_ACCESSES: u32 = 2;

/// How a predecoded block ends and where control can go next.
///
/// `Fall` means the block ends only because the next instruction is a
/// leader (a join point); every other variant corresponds to the block's
/// final instruction. Static targets are pre-resolved all the way to
/// *block ids* at build time (every in-text static target is a leader by
/// construction); `u32::MAX` marks a target outside the text (the engine
/// then routes through the dispatcher's cold path so out-of-range and
/// misaligned targets produce exactly the per-instruction errors).
/// Operand fields are predecoded into the variant (register numbers,
/// branch opcode, `sys` code) so retiring a block never refetches or
/// re-decodes its final instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TermKind {
    /// No control transfer; execution falls into the next leader.
    Fall,
    /// Conditional branch: `taken_block` is the pre-resolved target block
    /// id (`u32::MAX` if out of text), `taken_pc` the raw target address.
    /// Not-taken falls through to `BlockEntry::next_block`.
    Branch {
        op: Op,
        rs1: u8,
        rs2: u8,
        taken_block: u32,
        taken_pc: u32,
    },
    /// `j`/`jal`: static target block, `link` set for `jal` (writes `ra`).
    Jump {
        target_block: u32,
        target_pc: u32,
        link: bool,
    },
    /// `jr`/`jalr`: target comes from register `rs1` at runtime; resolved
    /// through `BlockEntry::cache`, `link` set for `jalr` (writes `rd`).
    Indirect { rs1: u8, rd: u8, link: bool },
    /// `sys code` trap into the framework handler.
    Sys { code: u32 },
    /// `halt`.
    Halt,
}

/// One statically-classified memory-access group: all loads/stores in a
/// block whose address is a decode-time-known offset from the value one
/// base register had *at block entry*.
///
/// The region of these accesses is NOT assumed at decode time — base
/// registers are runtime values (`sys` handlers even mutate `a0`). Instead
/// the engine gates each retire: it classifies the group's lowest and
/// highest byte against the live register value and only applies the fused
/// `reads`/`writes` delta when both land in the same interval region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemGroup {
    /// Base register index (0–31); register 0 covers `lui`-materialized
    /// absolute addresses, since `regs[0]` is always zero.
    pub(crate) base: u8,
    /// Wrapping byte offset of the group's lowest accessed byte from the
    /// base register's block-entry value.
    pub(crate) kmin: u32,
    /// Byte span covered by the group, minus one (so `lo + span_m1` is the
    /// group's highest accessed byte).
    pub(crate) span_m1: u32,
    /// Loads in the group.
    pub(crate) reads: u32,
    /// Stores in the group.
    pub(crate) writes: u32,
}

/// Operation of one predecoded micro-op (see [`UOp`]).
///
/// Micro-ops are what the block engine executes *inside* a fully-retired
/// block. Because per-instruction accounting is fused at the block level
/// and mid-block register state is unobservable on the fast path (no
/// per-instruction observer hooks, no faults from ALU or memory ops, and
/// budget exhaustion bails out *before* the block runs), the decoder is
/// free to emit fewer, stronger micro-ops than instructions — as long as
/// every architecturally-live register write still lands and every
/// dynamically-counted access still classifies exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UOpKind {
    // Three-register ALU.
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Mulhu,
    Divu,
    Remu,
    // Register-immediate ALU.
    AddImm,
    AndImm,
    OrImm,
    XorImm,
    SllImm,
    SrlImm,
    SraImm,
    SltImm,
    SltuImm,
    /// `rd = imm`: `lui`, `addi rd, zero, k`, and folded `lui`+`ori`/
    /// `addi` constant-materialization pairs.
    MovImm,
    // Loads / stores (address `rs1 + imm`).
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Sb,
    Sh,
    Sw,
    /// A load whose destination is `zero`: the access still counts (when
    /// not fused), but the data never lands — and reads have no side
    /// effects, so the memory lookup itself is skipped.
    LoadDiscard,
    /// Fused `add rd2, rs1, rs2` + load with base `rd2`: both register
    /// writes land (sum into `rd2`, loaded value into `rd`), one
    /// dispatch.
    AddLb,
    AddLbu,
    AddLh,
    AddLhu,
    AddLw,
    /// Fused `srl rd, rs1, rs2` + `andi rd, rd, imm` bit extraction:
    /// `rd = (rs1 >> (rs2 & 31)) & imm`.
    SrlAnd,
    /// Fused `addi rd, zero, k` + `sub rd, rd, rs1` reverse subtract:
    /// `rd = imm - rs1`.
    RsbImm,
    /// Two adjacent `lw` off the same base: `rd = [rs1 + (imm & 0xffff)]`,
    /// `rd2 = [rs1 + (imm >> 16)]`. Both offsets fit 16 bits by the
    /// emission guard, and the first destination is distinct from the
    /// base so the second address is unaffected.
    LwPair,
    /// Two independent adjacent `add`s (the `move; move` argument-setup
    /// idiom expands to `add rd, rs, zero`): `rd = rs1 + rs2`, then
    /// `rd2 = regs[imm & 0xff] + regs[imm >> 8]`. The second add's
    /// sources never alias the first's destination (emission guard).
    AddPair,
    /// Two independent adjacent `addi`s (loop-counter updates):
    /// `rd = rs1 + sext16(imm)`, `rd2 = rs2 + sext16(imm >> 16)`. Both
    /// immediates fit 16 bits signed and the second source never aliases
    /// the first destination (emission guards).
    AddImmPair,
    /// Fused mask + reverse subtract, the bit-offset flip idiom
    /// (`andi t, x, 7` then `7 - t`): `rd2 = rs1 & (imm & 0xffff)`,
    /// `rd = (imm >> 16) - rd2`. Both constants fit 16 bits by the
    /// emission guard.
    AndRsb,
    /// Fused address materialization + indexed byte load
    /// (`la t, SYM; add t, t, x; lbu d, 0(t)` — the byte-array index
    /// idiom): `rd2 = imm + rs2`, `rd = zero-extended byte at rd2`.
    /// Merged by the post-pass when the constant destination feeds the
    /// add in place and the load displacement is zero.
    MovAddLbu,
    // ------------------------------------------------------------------
    // Trace-formation superops. The block decoder never emits the kinds
    // below: they are produced only by the trace peephole
    // (`trace::peephole`), which re-fuses a hot chain's flattened
    // micro-op stream one more time. All are pure ALU — no memory
    // access, no classification — and every architecturally-live write
    // still lands (dual destinations via `rd2` where the pattern's
    // intermediate register survives), so fusing them is unobservable.
    // ------------------------------------------------------------------
    /// Fused xorshift (`slli x, s, a; srli y, s, b; xor x, x, y` — the
    /// TEA/Feistel mixing idiom): `rd2 = rs2 >> b`, `rd = (rs1 << a) ^
    /// rd2`, with `imm = a | b << 5` (the two shift sources are usually
    /// the same register, but need not be).
    XorShifts,
    /// Fused `andi rd, rs1, m` + `slli rd, rd, s` field scale:
    /// `rd = (rs1 & imm) << (rs2 as shift)`.
    AndShl,
    /// Fused `srli rd, rs1, s` + `andi rd, rd, m` field extract:
    /// `rd = (rs1 >> (rs2 as shift)) & imm`.
    SrlImmAnd,
    /// Fused `add a, rs1, rs2` + `xor b, c, a` accumulate-mix:
    /// `rd2 = rs1 + rs2`, `rd = regs[imm] ^ rd2` (`imm` carries the
    /// xor's other source, read before either write lands).
    AddXor,
    /// Fused `addi rd, zero, k` + `sll rd, rd, rs2` constant shift:
    /// `rd = imm << (rs2 & 31)`.
    MovShl,
    /// Fused `xor x, rs1, rs2` + `sll x, x, c` mix-position:
    /// `rd = (rs1 ^ rs2) << (regs[imm] & 31)`.
    XorSll,
    /// Fused `RsbImm d, rs1` + `srl e, s, d` bit-offset shift (the
    /// big-endian bit-walk idiom): `rd2 = imm - rs1`,
    /// `rd = rs2 >> (rd2 & 31)`.
    RsbSrl,
    /// Fused `RsbImm d, rs1` + `SrlAnd e, s, d, m` bit-offset extract
    /// (the bit-walk's flip + extract back to back): `rd2 = (imm &
    /// 0xffff) - rs1`, `rd = (rs2 >> (rd2 & 31)) & (imm >> 16)`. Both
    /// constants fit 16 bits by the fusion guard.
    RsbSrlAnd,
    /// Fused `slli rd, rs1, s` + `or rd, rd, rs2` byte-assembly:
    /// `rd = (rs1 << imm) | rs2`.
    ShlOr,
}

/// One predecoded micro-op. Register fields are pre-extracted indices
/// (`< 32`); `imm` is pre-widened; `grouped` marks accesses whose
/// accounting fuses into a gated [`MemGroup`] delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UOp {
    pub(crate) kind: UOpKind,
    pub(crate) rd: u8,
    pub(crate) rs1: u8,
    pub(crate) rs2: u8,
    /// Second destination of fused add+load micro-ops.
    pub(crate) rd2: u8,
    pub(crate) grouped: bool,
    pub(crate) imm: u32,
}

/// One predecoded superblock: the block's instruction slice plus everything
/// the block engine needs to retire it in one shot.
#[derive(Debug, Clone)]
pub(crate) struct BlockEntry {
    /// First instruction index of the block.
    pub(crate) first: u32,
    /// Number of instructions, terminator included.
    pub(crate) len: u32,
    /// Instruction index just past the block (may equal the program
    /// length, in which case falling through runs off the end of text).
    pub(crate) next: u32,
    /// Block id of the fallthrough successor — `next`'s block, or
    /// `u32::MAX` when `next` is past the end of text. Blocks are
    /// contiguous, so this is simply this block's id plus one when in
    /// range.
    pub(crate) next_block: u32,
    /// Statically-classified access groups, gated at runtime.
    pub(crate) groups: Vec<MemGroup>,
    /// Start of this block's micro-ops in [`BlockTable::uops`].
    pub(crate) uop_start: u32,
    /// Number of micro-ops (≤ the internal instruction count).
    pub(crate) uop_len: u32,
    /// How the block ends.
    pub(crate) term: TermKind,
    /// 2-way inline cache for [`TermKind::Indirect`], MRU first:
    /// `(target_pc, block_id + 1)` per way, 0 in the second slot meaning
    /// empty. Two ways cover the dominant call/return shape — a
    /// subroutine returning alternately to two call sites — which a
    /// single entry would miss on every visit; a genuinely megamorphic
    /// target merely pays the translation it would have paid anyway.
    pub(crate) cache: Cell<[(u32, u32); 2]>,
}

/// A [`BlockMap`] extended into a predecoded superblock table.
///
/// Built once per program (PacketBench builds it next to the `BlockMap` it
/// already keeps) and shared immutably by the counts-only block engine;
/// the only mutable pieces are per-block inline caches ([`Cell`]) and the
/// hot-trace layer ([`RefCell`]), which keep the table `Send` (one table
/// per worker thread) though not `Sync`.
#[derive(Debug, Clone)]
pub struct BlockTable {
    map: BlockMap,
    /// Dense per-instruction leader flag (block entry points).
    is_leader: Vec<bool>,
    entries: Vec<BlockEntry>,
    /// All blocks' micro-ops, one flat stream (entries index into it via
    /// `uop_start`/`uop_len`), so block interiors execute out of one
    /// contiguous allocation.
    uops: Vec<UOp>,
    /// The hot-trace layer: warm-up counters, formed traces, telemetry.
    /// Lives on the table (not the `Cpu`) so it persists across
    /// per-packet CPU reconstruction and across runs.
    trace: RefCell<TraceState>,
}

impl BlockTable {
    /// Predecodes `program` into superblock entries.
    pub fn build(program: &Program) -> BlockTable {
        let map = BlockMap::build(program);
        let insts = program.insts();
        let n = insts.len();
        let mut is_leader = vec![false; n];
        for &l in map.leaders() {
            is_leader[l] = true;
        }
        let mut uops = Vec::new();
        let entries = (0..map.num_blocks())
            .map(|b| Self::decode_block(program, &map, b, &mut uops))
            .collect();
        let trace = RefCell::new(TraceState::new(map.num_blocks(), TraceParams::default()));
        BlockTable {
            map,
            is_leader,
            entries,
            uops,
            trace,
        }
    }

    /// Replaces the trace layer's formation parameters, resetting any
    /// warm-up progress and formed traces. The conformance harness runs
    /// with [`TraceParams::eager`]; [`TraceParams::disabled`] pins the
    /// table to block-level execution.
    pub fn set_trace_params(&mut self, params: TraceParams) {
        *self.trace.borrow_mut() = TraceState::new(self.map.num_blocks(), params);
    }

    /// A copy of the trace layer's cumulative telemetry counters.
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.borrow().stats
    }

    /// Borrows the trace layer.
    ///
    /// # Panics
    ///
    /// Panics if a previous borrow is still live (the block engine is not
    /// reentrant over one table).
    pub(crate) fn trace_scratch(&self) -> RefMut<'_, TraceState> {
        self.trace.borrow_mut()
    }

    fn decode_block(
        program: &Program,
        map: &BlockMap,
        b: usize,
        uops: &mut Vec<UOp>,
    ) -> BlockEntry {
        let range = map.block_range(b);
        let insts = program.insts();
        let first = range.start;
        let len = range.len();
        let last = range.end - 1;
        // Every in-text static target is a leader (the block partition
        // marked it), so targets resolve to block ids directly.
        let block_of = |pc: u32| {
            program
                .index_of(pc)
                .map_or(u32::MAX, |t| map.block_of(t) as u32)
        };
        let term_inst = insts[last];
        let term = match term_inst.op {
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                let taken_pc = program
                    .pc_of(last)
                    .wrapping_add(4)
                    .wrapping_add(term_inst.imm as u32);
                TermKind::Branch {
                    op: term_inst.op,
                    rs1: term_inst.rs1.index() as u8,
                    rs2: term_inst.rs2.index() as u8,
                    taken_block: block_of(taken_pc),
                    taken_pc,
                }
            }
            Op::J | Op::Jal => {
                let target_pc = program
                    .pc_of(last)
                    .wrapping_add(4)
                    .wrapping_add(term_inst.imm as u32);
                TermKind::Jump {
                    target_block: block_of(target_pc),
                    target_pc,
                    link: term_inst.op == Op::Jal,
                }
            }
            Op::Jr | Op::Jalr => TermKind::Indirect {
                rs1: term_inst.rs1.index() as u8,
                rd: term_inst.rd.index() as u8,
                link: term_inst.op == Op::Jalr,
            },
            Op::Sys => TermKind::Sys {
                code: term_inst.imm as u32,
            },
            Op::Halt => TermKind::Halt,
            _ => TermKind::Fall,
        };

        // The internal instructions are everything before the terminator;
        // for `Fall` blocks every instruction (including the last) is
        // internal, because the block only ends at a join point.
        let internal_end = if term == TermKind::Fall {
            range.end
        } else {
            last
        };
        let (groups, static_mask) = Self::classify_accesses(insts, first, internal_end);
        let uop_start = uops.len() as u32;
        Self::emit_uops(&insts[first..internal_end], static_mask, uops);
        let uop_len = uops.len() as u32 - uop_start;

        BlockEntry {
            first: first as u32,
            len: len as u32,
            next: range.end as u32,
            next_block: if range.end < insts.len() {
                b as u32 + 1
            } else {
                u32::MAX
            },
            groups,
            uop_start,
            uop_len,
            term,
            cache: Cell::new([(0, 0); 2]),
        }
    }

    /// Lowers one block's internal instructions to micro-ops.
    ///
    /// The peepholes here are justified by the unobservability of mid-block
    /// state on the fast path (see [`UOpKind`]): writes to `r0` are
    /// architecturally dead, so ALU ops targeting it vanish and loads into
    /// it become classify-only [`UOpKind::LoadDiscard`]; a `lui` followed
    /// by an `ori`/`addi` completing the same register's constant folds to
    /// one [`UOpKind::MovImm`]; and an `add` immediately consumed as a
    /// load's base fuses into one add-load micro-op that still performs
    /// both register writes. Per-op accounting is already fused at the
    /// block level, so dropping or merging micro-ops never changes counts.
    fn emit_uops(insts: &[crate::isa::Inst], static_mask: u64, out: &mut Vec<UOp>) {
        use UOpKind as K;
        let start = out.len();
        // Positions past 64 are never grouped (classification stops there).
        let grouped = |j: usize| j < 64 && (static_mask >> j) & 1 != 0;
        let uop = |kind, rd, rs1, rs2, imm| UOp {
            kind,
            rd,
            rs1,
            rs2,
            rd2: 0,
            grouped: false,
            imm,
        };
        let mut j = 0usize;
        while j < insts.len() {
            let inst = &insts[j];
            let rd = inst.rd.index() as u8;
            let rs1 = inst.rs1.index() as u8;
            let rs2 = inst.rs2.index() as u8;
            let imm = inst.imm as u32;
            match inst.op {
                Op::Add
                | Op::Sub
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Nor
                | Op::Sll
                | Op::Srl
                | Op::Sra
                | Op::Slt
                | Op::Sltu
                | Op::Mul
                | Op::Mulhu
                | Op::Divu
                | Op::Remu => {
                    if rd == 0 {
                        j += 1;
                        continue;
                    }
                    if inst.op == Op::Srl && j + 1 < insts.len() {
                        // `srl` + `andi` on the same register is the bit
                        // extraction idiom (shift down, mask).
                        let next = &insts[j + 1];
                        if next.op == Op::Andi
                            && next.rd.index() as u8 == rd
                            && next.rs1.index() as u8 == rd
                        {
                            out.push(uop(K::SrlAnd, rd, rs1, rs2, next.imm as u32));
                            j += 2;
                            continue;
                        }
                    }
                    if inst.op == Op::Add && j + 1 < insts.len() {
                        let next = &insts[j + 1];
                        let fused_kind = match next.op {
                            Op::Lb => Some(K::AddLb),
                            Op::Lbu => Some(K::AddLbu),
                            Op::Lh => Some(K::AddLh),
                            Op::Lhu => Some(K::AddLhu),
                            Op::Lw => Some(K::AddLw),
                            _ => None,
                        };
                        if let Some(kind) = fused_kind {
                            if next.rs1.index() as u8 == rd && next.rd.index() != 0 {
                                out.push(UOp {
                                    kind,
                                    rd: next.rd.index() as u8,
                                    rs1,
                                    rs2,
                                    rd2: rd,
                                    grouped: grouped(j + 1),
                                    imm: next.imm as u32,
                                });
                                j += 2;
                                continue;
                            }
                        }
                        // Two independent `add`s (argument-setup `move`
                        // pairs) share one dispatch; the second add's
                        // sources ride in the immediate.
                        if next.op == Op::Add
                            && next.rd.index() != 0
                            && next.rs1.index() as u8 != rd
                            && next.rs2.index() as u8 != rd
                        {
                            out.push(UOp {
                                kind: K::AddPair,
                                rd,
                                rs1,
                                rs2,
                                rd2: next.rd.index() as u8,
                                grouped: false,
                                imm: next.rs1.index() as u32 | ((next.rs2.index() as u32) << 8),
                            });
                            j += 2;
                            continue;
                        }
                    }
                    let kind = match inst.op {
                        Op::Add => K::Add,
                        Op::Sub => K::Sub,
                        Op::And => K::And,
                        Op::Or => K::Or,
                        Op::Xor => K::Xor,
                        Op::Nor => K::Nor,
                        Op::Sll => K::Sll,
                        Op::Srl => K::Srl,
                        Op::Sra => K::Sra,
                        Op::Slt => K::Slt,
                        Op::Sltu => K::Sltu,
                        Op::Mul => K::Mul,
                        Op::Mulhu => K::Mulhu,
                        Op::Divu => K::Divu,
                        _ => K::Remu,
                    };
                    out.push(uop(kind, rd, rs1, rs2, 0));
                }
                Op::Addi
                | Op::Andi
                | Op::Ori
                | Op::Xori
                | Op::Slli
                | Op::Srli
                | Op::Srai
                | Op::Slti
                | Op::Sltiu => {
                    if rd == 0 {
                        j += 1;
                        continue;
                    }
                    if inst.op == Op::Addi {
                        // `addi rd, zero, k` + `sub rd, rd, x` is the
                        // assembler's reverse-subtract idiom (`7 - bit`
                        // shift-amount flips and the like).
                        if rs1 == 0 && j + 1 < insts.len() {
                            let next = &insts[j + 1];
                            if next.op == Op::Sub
                                && next.rd.index() as u8 == rd
                                && next.rs1.index() as u8 == rd
                                && next.rs2.index() as u8 != rd
                            {
                                out.push(uop(K::RsbImm, rd, next.rs2.index() as u8, 0, imm));
                                j += 2;
                                continue;
                            }
                        }
                        // Two independent `addi`s (loop-counter updates,
                        // `li` pairs) share one dispatch.
                        if let Some(next) = insts.get(j + 1) {
                            let fits = |v: i32| (-0x8000..0x8000).contains(&v);
                            if next.op == Op::Addi
                                && next.rd.index() != 0
                                && next.rs1.index() as u8 != rd
                                && fits(inst.imm)
                                && fits(next.imm)
                            {
                                out.push(UOp {
                                    kind: K::AddImmPair,
                                    rd,
                                    rs1,
                                    rs2: next.rs1.index() as u8,
                                    rd2: next.rd.index() as u8,
                                    grouped: false,
                                    imm: (imm & 0xffff) | ((next.imm as u32 & 0xffff) << 16),
                                });
                                j += 2;
                                continue;
                            }
                        }
                    }
                    if inst.op == Op::Addi && rs1 == 0 {
                        // `addi rd, zero, k` is a constant materialization.
                        out.push(uop(K::MovImm, rd, 0, 0, imm));
                    } else {
                        let kind = match inst.op {
                            Op::Addi => K::AddImm,
                            Op::Andi => K::AndImm,
                            Op::Ori => K::OrImm,
                            Op::Xori => K::XorImm,
                            Op::Slli => K::SllImm,
                            Op::Srli => K::SrlImm,
                            Op::Srai => K::SraImm,
                            Op::Slti => K::SltImm,
                            _ => K::SltuImm,
                        };
                        out.push(uop(kind, rd, rs1, 0, imm));
                    }
                }
                Op::Lui => {
                    if rd == 0 {
                        j += 1;
                        continue;
                    }
                    let base = imm << 16;
                    if j + 1 < insts.len() {
                        let next = &insts[j + 1];
                        if (next.op == Op::Ori || next.op == Op::Addi)
                            && next.rd.index() as u8 == rd
                            && next.rs1.index() as u8 == rd
                        {
                            let k = next.imm as u32;
                            let folded = if next.op == Op::Ori {
                                base | k
                            } else {
                                base.wrapping_add(k)
                            };
                            out.push(uop(K::MovImm, rd, 0, 0, folded));
                            j += 2;
                            continue;
                        }
                    }
                    out.push(uop(K::MovImm, rd, 0, 0, base));
                }
                Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw => {
                    // Adjacent word loads off one base (left/right child
                    // pointers, paired struct fields) pair into one
                    // dispatch; the first destination must not alias the
                    // base, both offsets must fit the packed halves, and
                    // both accesses must share a grouped flag.
                    if inst.op == Op::Lw && rd != 0 && rd != rs1 && imm <= 0xffff {
                        if let Some(next) = insts.get(j + 1) {
                            if next.op == Op::Lw
                                && next.rs1.index() as u8 == rs1
                                && next.rd.index() != 0
                                && (next.imm as u32) <= 0xffff
                                && grouped(j) == grouped(j + 1)
                            {
                                out.push(UOp {
                                    kind: K::LwPair,
                                    rd,
                                    rs1,
                                    rs2: 0,
                                    rd2: next.rd.index() as u8,
                                    grouped: grouped(j),
                                    imm: imm | ((next.imm as u32) << 16),
                                });
                                j += 2;
                                continue;
                            }
                        }
                    }
                    let kind = if rd == 0 {
                        K::LoadDiscard
                    } else {
                        match inst.op {
                            Op::Lb => K::Lb,
                            Op::Lbu => K::Lbu,
                            Op::Lh => K::Lh,
                            Op::Lhu => K::Lhu,
                            _ => K::Lw,
                        }
                    };
                    out.push(UOp {
                        kind,
                        rd,
                        rs1,
                        rs2: 0,
                        rd2: 0,
                        grouped: grouped(j),
                        imm,
                    });
                }
                Op::Sb | Op::Sh | Op::Sw => {
                    let kind = match inst.op {
                        Op::Sb => K::Sb,
                        Op::Sh => K::Sh,
                        _ => K::Sw,
                    };
                    out.push(UOp {
                        kind,
                        rd: 0,
                        rs1,
                        rs2,
                        rd2: 0,
                        grouped: grouped(j),
                        imm,
                    });
                }
                // The leader rule makes the instruction after any control
                // transfer a leader, so control transfers are always block
                // terminators — never internal.
                _ => unreachable!("control transfer inside a basic block"),
            }
            j += 1;
        }

        // Second-level peephole over this block's emitted stream: the
        // bit-offset flip idiom (`andi t, x, M` then `K - t`, the latter
        // already fused to `RsbImm`) collapses to one dual-destination
        // `AndRsb` when both constants fit 16 bits. Writing `rd2` (the
        // mask) before `rd` (the flip) preserves the original order, so
        // any aliasing between the two destinations stays correct.
        let mut i = start;
        let mut w = start;
        while i < out.len() {
            let (a, b) = (out[i], out.get(i + 1).copied());
            if let Some(b) = b {
                if a.kind == K::AndImm
                    && b.kind == K::RsbImm
                    && b.rs1 == a.rd
                    && a.imm <= 0xffff
                    && b.imm <= 0xffff
                {
                    out[w] = UOp {
                        kind: K::AndRsb,
                        rd: b.rd,
                        rs1: a.rs1,
                        rs2: 0,
                        rd2: a.rd,
                        grouped: false,
                        imm: a.imm | (b.imm << 16),
                    };
                    w += 1;
                    i += 2;
                    continue;
                }
                // `imm` must carry the full materialized constant, so the
                // load displacement has to be zero; `rd2 == a.rd` means the
                // add overwrote the constant in place (no other reader).
                if a.kind == K::MovImm
                    && b.kind == K::AddLbu
                    && b.rs1 == a.rd
                    && b.rd2 == a.rd
                    && b.rs2 != a.rd
                    && b.imm == 0
                {
                    out[w] = UOp {
                        kind: K::MovAddLbu,
                        rd: b.rd,
                        rs1: 0,
                        rs2: b.rs2,
                        rd2: b.rd2,
                        grouped: b.grouped,
                        imm: a.imm,
                    };
                    w += 1;
                    i += 2;
                    continue;
                }
            }
            out[w] = a;
            w += 1;
            i += 1;
        }
        out.truncate(w);
    }

    /// Decode-time symbolic analysis over one block's internal
    /// instructions: tracks each register as "block-entry value of base
    /// register `b`, plus constant `k`" and collects loads/stores whose
    /// address is such a known offset into per-base groups.
    ///
    /// Transfer function: every register starts as `(itself, 0)`; `addi`
    /// propagates `(b, k + imm)`; `lui` produces `(r0, imm << 16)` —
    /// `regs[0]` is hardwired zero, so base 0 denotes an absolute
    /// constant; any other write makes the register unknown.
    fn classify_accesses(
        insts: &[crate::isa::Inst],
        first: usize,
        internal_end: usize,
    ) -> (Vec<MemGroup>, u64) {
        // (base register, entry-relative offset); None = unknown.
        let mut state: [Option<(u8, i64)>; 32] = [None; 32];
        for (r, slot) in state.iter_mut().enumerate() {
            *slot = Some((r as u8, 0));
        }
        // (base, offset, size, is_store, block-local position)
        let mut accesses: Vec<(u8, i64, u32, bool, usize)> = Vec::new();

        for (j, inst) in insts[first..internal_end].iter().enumerate() {
            match inst.op {
                Op::Addi => {
                    let new = state[inst.rs1.index()].map(|(b, k)| (b, k + inst.imm as i64));
                    if inst.rd.index() != 0 {
                        state[inst.rd.index()] = new;
                    }
                }
                Op::Lui => {
                    if inst.rd.index() != 0 {
                        state[inst.rd.index()] = Some((0, ((inst.imm as u32) << 16) as i64));
                    }
                }
                Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw => {
                    let size = match inst.op {
                        Op::Lb | Op::Lbu => 1,
                        Op::Lh | Op::Lhu => 2,
                        _ => 4,
                    };
                    if j < 64 {
                        if let Some((b, k)) = state[inst.rs1.index()] {
                            accesses.push((b, k + inst.imm as i64, size, false, j));
                        }
                    }
                    if inst.rd.index() != 0 {
                        state[inst.rd.index()] = None;
                    }
                }
                Op::Sb | Op::Sh | Op::Sw => {
                    let size = match inst.op {
                        Op::Sb => 1,
                        Op::Sh => 2,
                        _ => 4,
                    };
                    if j < 64 {
                        if let Some((b, k)) = state[inst.rs1.index()] {
                            accesses.push((b, k + inst.imm as i64, size, true, j));
                        }
                    }
                }
                _ => {
                    // Any other register write invalidates symbolic state.
                    // Control transfers never appear before `internal_end`.
                    if matches!(inst.op.class(), OpClass::Alu | OpClass::MulDiv)
                        && inst.rd.index() != 0
                    {
                        state[inst.rd.index()] = None;
                    }
                }
            }
        }

        // Group by base register, enforce the span bound and the
        // minimum-size threshold, and cap the per-block group count.
        let mut groups: Vec<(MemGroup, Vec<usize>)> = Vec::new();
        for base in 0..32u8 {
            let members: Vec<&(u8, i64, u32, bool, usize)> =
                accesses.iter().filter(|a| a.0 == base).collect();
            let total = members.len() as u32;
            if total < MIN_GROUP_ACCESSES {
                continue;
            }
            let kmin = members.iter().map(|a| a.1).min().unwrap();
            let kmax_end = members.iter().map(|a| a.1 + a.2 as i64).max().unwrap();
            if kmax_end - kmin > GATE_MAX_SPAN {
                continue;
            }
            let writes = members.iter().filter(|a| a.3).count() as u32;
            groups.push((
                MemGroup {
                    base,
                    kmin: kmin as u32,
                    span_m1: (kmax_end - kmin - 1) as u32,
                    reads: total - writes,
                    writes,
                },
                members.iter().map(|a| a.4).collect(),
            ));
        }
        // Keep the largest groups if over the cap.
        groups.sort_by_key(|(g, _)| std::cmp::Reverse(g.reads + g.writes));
        groups.truncate(MAX_GROUPS);

        let mut static_mask = 0u64;
        for (_, positions) in &groups {
            for &j in positions {
                static_mask |= 1 << j;
            }
        }
        (groups.into_iter().map(|(g, _)| g).collect(), static_mask)
    }

    /// The underlying basic-block partition.
    pub fn block_map(&self) -> &BlockMap {
        &self.map
    }

    /// The number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Whether instruction `index` is a block leader (a legal block-engine
    /// entry point).
    #[inline(always)]
    pub(crate) fn is_leader(&self, index: usize) -> bool {
        self.is_leader[index]
    }

    /// The predecoded entry for block `b`.
    #[inline(always)]
    pub(crate) fn entry(&self, b: usize) -> &BlockEntry {
        &self.entries[b]
    }

    /// The micro-ops of `entry`'s block interior.
    #[inline(always)]
    pub(crate) fn uops(&self, entry: &BlockEntry) -> &[UOp] {
        &self.uops[entry.uop_start as usize..(entry.uop_start + entry.uop_len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{reg, Inst};
    use crate::mem::MemoryMap;

    fn program(insts: Vec<Inst>) -> Program {
        Program::new(insts, MemoryMap::default().text_base)
    }

    #[test]
    fn table_decodes_terminators_and_successors() {
        // 0: addi | 1: beq -> 3 | 2: addi (Fall into 3) | 3: sys | 4: halt
        // | 5: jal -> 0 | 6: jr ra
        let p = program(vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
            Inst::branch(Op::Beq, reg::T0, reg::ZERO, 4),
            Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 2),
            Inst::sys(0),
            Inst::halt(),
            Inst::jump(Op::Jal, -24),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        assert_eq!(t.num_blocks(), 6);
        let terms: Vec<TermKind> = (0..6).map(|b| t.entry(b).term).collect();
        assert!(matches!(
            terms[0],
            TermKind::Branch {
                op: Op::Beq,
                taken_block: 2,
                ..
            }
        ));
        assert_eq!(terms[1], TermKind::Fall);
        assert!(matches!(terms[2], TermKind::Sys { code: 0 }));
        assert_eq!(terms[3], TermKind::Halt);
        assert!(matches!(
            terms[4],
            TermKind::Jump {
                target_block: 0,
                link: true,
                ..
            }
        ));
        assert!(matches!(terms[5], TermKind::Indirect { link: false, .. }));
        // The Fall block's successor is the sys block's leader.
        let fall = t.entry(1);
        assert_eq!(fall.next, 3);
    }

    #[test]
    fn table_groups_statically_classified_accesses() {
        // Two packet loads off a0, two stack stores off sp, and one
        // lone gp load (below the group-size threshold).
        let p = program(vec![
            Inst::with_imm(Op::Lw, reg::T0, reg::A0, 0),
            Inst::with_imm(Op::Lw, reg::T1, reg::A0, 12),
            Inst::store(Op::Sw, reg::T0, reg::SP, -4),
            Inst::store(Op::Sw, reg::T1, reg::SP, -8),
            Inst::with_imm(Op::Lw, reg::T2, reg::GP, 0),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let e = t.entry(0);
        assert_eq!(e.groups.len(), 2);
        let a0 = e.groups.iter().find(|g| g.base == reg::A0.index() as u8);
        let sp = e.groups.iter().find(|g| g.base == reg::SP.index() as u8);
        let a0 = a0.expect("a0 group");
        let sp = sp.expect("sp group");
        assert_eq!((a0.reads, a0.writes), (2, 0));
        assert_eq!(a0.kmin, 0);
        assert_eq!(a0.span_m1, 15); // bytes [0, 16)
        assert_eq!((sp.reads, sp.writes), (0, 2));
        assert_eq!(sp.kmin, (-8i32) as u32);
        assert_eq!(sp.span_m1, 7); // bytes [-8, 0)
                                   // Accesses 0-3 fused, the lone gp load stays dynamic; the two
                                   // a0 loads pair into one micro-op.
        let kinds: Vec<(UOpKind, bool)> = t.uops(e).iter().map(|u| (u.kind, u.grouped)).collect();
        assert_eq!(
            kinds,
            [
                (UOpKind::LwPair, true),
                (UOpKind::Sw, true),
                (UOpKind::Sw, true),
                (UOpKind::Lw, false),
            ]
        );
    }

    #[test]
    fn table_tracks_addi_chains_and_clobbers() {
        // t0 = a0 + 64; loads off t0 group under base a0; after t0 is
        // clobbered by a load, further accesses are dynamic.
        let p = program(vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::A0, 64),
            Inst::with_imm(Op::Lw, reg::T1, reg::T0, 0),
            Inst::with_imm(Op::Lw, reg::T0, reg::T0, 4), // clobbers t0
            Inst::with_imm(Op::Lw, reg::T2, reg::T0, 8), // dynamic
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let e = t.entry(0);
        assert_eq!(e.groups.len(), 1);
        let g = &e.groups[0];
        assert_eq!(g.base, reg::A0.index() as u8);
        assert_eq!(g.kmin, 64);
        assert_eq!(g.span_m1, 7); // bytes [64, 72)
        assert_eq!((g.reads, g.writes), (2, 0));
        let kinds: Vec<(UOpKind, bool)> = t.uops(e).iter().map(|u| (u.kind, u.grouped)).collect();
        assert_eq!(
            kinds,
            [
                (UOpKind::AddImm, false),
                (UOpKind::LwPair, true),
                (UOpKind::Lw, false),
            ]
        );
    }

    #[test]
    fn table_groups_lui_constants_under_the_zero_register() {
        let p = program(vec![
            Inst::lui(reg::T0, 0x2000), // 0x2000_0000 = data base
            Inst::with_imm(Op::Lw, reg::T1, reg::T0, 0),
            Inst::store(Op::Sw, reg::T1, reg::T0, 4),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let e = t.entry(0);
        assert_eq!(e.groups.len(), 1);
        let g = &e.groups[0];
        assert_eq!(g.base, 0);
        assert_eq!(g.kmin, 0x2000_0000);
        assert_eq!((g.reads, g.writes), (1, 1));
    }

    #[test]
    fn uops_fold_constants_and_fuse_address_loads() {
        // lui+ori fold to one MovImm; add+lw fuse to one AddLw with both
        // destinations preserved.
        let p = program(vec![
            Inst::lui(reg::T0, 0x2000),
            Inst::with_imm(Op::Ori, reg::T0, reg::T0, 0x10),
            Inst::rtype(Op::Add, reg::T1, reg::T0, reg::A0),
            Inst::with_imm(Op::Lw, reg::T2, reg::T1, 8),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let e = t.entry(0);
        let uops = t.uops(e);
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].kind, UOpKind::MovImm);
        assert_eq!(uops[0].rd, reg::T0.index() as u8);
        assert_eq!(uops[0].imm, 0x2000_0010);
        assert_eq!(uops[1].kind, UOpKind::AddLw);
        assert_eq!(uops[1].rd, reg::T2.index() as u8);
        assert_eq!(uops[1].rd2, reg::T1.index() as u8);
        assert_eq!(uops[1].imm, 8);
    }

    #[test]
    fn uops_drop_dead_zero_register_writes() {
        // ALU writes to `zero` vanish; a load into `zero` keeps only its
        // classify-side effect.
        let p = program(vec![
            Inst::rtype(Op::Add, reg::ZERO, reg::T0, reg::T1),
            Inst::with_imm(Op::Addi, reg::ZERO, reg::T0, 4),
            Inst::with_imm(Op::Lw, reg::ZERO, reg::A0, 0),
            Inst::store(Op::Sw, reg::T0, reg::SP, -4),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let e = t.entry(0);
        let uops = t.uops(e);
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].kind, UOpKind::LoadDiscard);
        assert_eq!(uops[1].kind, UOpKind::Sw);
        // The block still retires all four original instructions plus
        // the terminator.
        assert_eq!(e.len, 5);
    }

    #[test]
    fn uops_fuse_bit_offset_flip() {
        // The `andi t, x, 7` / `li k, 7` / `sub k, k, t` idiom (bit-offset
        // flip) first fuses li+sub into `RsbImm`, then the post-pass merges
        // the adjacent `AndImm` into one dual-destination `AndRsb`.
        let p = program(vec![
            Inst::with_imm(Op::Andi, reg::T5, reg::A3, 7),
            Inst::with_imm(Op::Addi, reg::T6, reg::ZERO, 7),
            Inst::rtype(Op::Sub, reg::T6, reg::T6, reg::T5),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let uops = t.uops(t.entry(0));
        assert_eq!(uops.len(), 1);
        let u = uops[0];
        assert_eq!(u.kind, UOpKind::AndRsb);
        assert_eq!(u.rs1, reg::A3.index() as u8);
        assert_eq!(u.rd2, reg::T5.index() as u8);
        assert_eq!(u.rd, reg::T6.index() as u8);
        assert_eq!(u.imm, 7 | (7 << 16));
    }

    #[test]
    fn uops_fuse_indexed_byte_load() {
        // `la`/`add`/`lbu` (byte-array indexing) first fuses lui+ori into
        // `MovImm` and add+lbu into `AddLbu`, then the post-pass merges the
        // pair into one `MovAddLbu` carrying the materialized base address.
        let p = program(vec![
            Inst::lui(reg::T3, 0x2000),
            Inst::with_imm(Op::Ori, reg::T3, reg::T3, 0x40),
            Inst::rtype(Op::Add, reg::T3, reg::T3, reg::T2),
            Inst::with_imm(Op::Lbu, reg::T4, reg::T3, 0),
            Inst::jr(reg::RA),
        ]);
        let t = BlockTable::build(&p);
        let uops = t.uops(t.entry(0));
        assert_eq!(uops.len(), 1);
        let u = uops[0];
        assert_eq!(u.kind, UOpKind::MovAddLbu);
        assert_eq!(u.rs2, reg::T2.index() as u8);
        assert_eq!(u.rd2, reg::T3.index() as u8);
        assert_eq!(u.rd, reg::T4.index() as u8);
        assert_eq!(u.imm, 0x2000_0040);
    }

    #[test]
    fn straight_line_is_one_block() {
        let p = program(vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
            Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 2),
            Inst::jr(reg::RA),
        ]);
        let map = BlockMap::build(&p);
        assert_eq!(map.num_blocks(), 1);
        assert_eq!(map.block_range(0), 0..3);
    }

    #[test]
    fn branch_splits_blocks() {
        // 0: beq -> target 2 | 1: addi | 2: jr
        let p = program(vec![
            Inst::branch(Op::Beq, reg::A0, reg::ZERO, 4),
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
            Inst::jr(reg::RA),
        ]);
        let map = BlockMap::build(&p);
        assert_eq!(map.num_blocks(), 3);
        assert_eq!(map.block_of(0), 0);
        assert_eq!(map.block_of(1), 1);
        assert_eq!(map.block_of(2), 2);
    }

    #[test]
    fn loop_back_edge_target_is_leader() {
        // 0: addi | 1: addi (loop head) | 2: blt -> 1 | 3: jr
        let p = program(vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 0),
            Inst::with_imm(Op::Addi, reg::T0, reg::T0, 1),
            Inst::branch(Op::Blt, reg::T0, reg::T1, -8),
            Inst::jr(reg::RA),
        ]);
        let map = BlockMap::build(&p);
        assert_eq!(map.num_blocks(), 3);
        assert_eq!(map.block_range(0), 0..1);
        assert_eq!(map.block_range(1), 1..3);
        assert_eq!(map.block_range(2), 3..4);
    }

    #[test]
    fn blocks_executed_follows_leaders() {
        let p = program(vec![
            Inst::branch(Op::Beq, reg::A0, reg::ZERO, 4),
            Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
            Inst::jr(reg::RA),
        ]);
        let map = BlockMap::build(&p);
        let mut executed = BitSet::new(3);
        executed.insert(0);
        executed.insert(2); // branch taken: skipped instruction 1
        let blocks = map.blocks_executed(&executed);
        assert!(blocks.contains(0));
        assert!(!blocks.contains(1));
        assert!(blocks.contains(2));
        assert_eq!(map.instructions_in(&blocks), 2);
    }

    #[test]
    fn empty_program() {
        let p = program(vec![]);
        let map = BlockMap::build(&p);
        assert_eq!(map.num_blocks(), 0);
    }

    #[test]
    fn jump_target_out_of_text_ignored() {
        let p = program(vec![Inst::jump(Op::J, 400), Inst::jr(reg::RA)]);
        let map = BlockMap::build(&p);
        assert_eq!(map.num_blocks(), 2);
    }
}
