//! Hot-trace formation over the superblock table.
//!
//! The superblock engine (see [`crate::bblock`]) retires one basic block
//! at a time: one fused delta, then a terminator check and a successor
//! lookup at *every* block boundary. The paper's per-packet profiles show
//! the NP32 applications spend nearly all retired instructions in a
//! handful of hot loops, so those boundary costs are paid millions of
//! times along the same few block chains.
//!
//! This module chains hot superblocks into JIT-style **traces**. A trace
//! is a sequence of member blocks along the control flow observed during
//! a warm-up phase: every member's terminator becomes a *guard* —
//! fall-through and static jumps pass unconditionally, conditional
//! branches are predicted in their majority direction — and a complete
//! trip through the trace applies **one**
//! fused instruction-count delta instead of one per member. A
//! mispredicted guard exits the trace mid-trip, retiring the
//! already-executed prefix in one delta too, and hands control back to
//! block-level execution — so every observable outcome stays
//! bit-identical to the per-instruction reference semantics (the
//! soundness argument lives in DESIGN.md, "Trace fusion").
//!
//! Formation is a one-shot pass: the block engine counts per-block
//! retires and per-branch direction frequencies for the first
//! [`TraceParams::warmup_runs`] runs, then greedily grows one trace per
//! hot head block (descending warm-up heat, block id breaking ties) by
//! following fall-throughs, static jumps, and each branch's majority
//! direction. After formation the warm-up counters are dead and the
//! steady-state cost of the trace layer is one `trace_of` load per chain
//! dispatch.

use crate::bblock::{BlockTable, MemGroup, TermKind, UOp, UOpKind};
use crate::isa::Op;

/// Thresholds for the one-shot trace-formation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParams {
    /// Runs (packets, in PacketBench terms) counted toward warm-up before
    /// the formation pass fires. `u64::MAX` disables trace formation
    /// entirely (the engine then behaves exactly like the block engine).
    pub warmup_runs: u64,
    /// Minimum warm-up retire count for a block to head a trace.
    pub hot_min: u64,
    /// Minimum sample count in the predicted direction before a branch
    /// may be chained through. Past it, every observed branch chains its
    /// majority direction (taken on a tie): a mispredicted guard retires
    /// its prefix with exactly the per-block bookkeeping the block path
    /// would have paid anyway, so predicting even a 50/50 branch loses
    /// nothing on the wrong side and saves the block-boundary dispatch
    /// on the right side.
    pub min_edge: u64,
    /// Loop-unroll bias ratio. A chain that closes a cycle back to its
    /// head stops there when any chained branch was *weak* (its chosen
    /// direction observed fewer than `unroll_bias` times the other
    /// direction) — one loop iteration per trip keeps trips tight where
    /// mid-loop exits are common, and the exit target is free to head
    /// its own trace for the other half of the iteration. When every
    /// chained branch is strong the chain unrolls through the back-edge
    /// up to the caps instead: the rare early exit costs O(1), so a deep
    /// unroll amortizes the per-trip dispatch over many iterations.
    pub unroll_bias: u64,
    /// Maximum member blocks per trace (strongly-biased loops unroll up
    /// to this).
    pub max_blocks: usize,
    /// Maximum fused instructions per complete trip.
    pub max_insts: u64,
}

impl Default for TraceParams {
    fn default() -> TraceParams {
        TraceParams {
            warmup_runs: 32,
            hot_min: 128,
            min_edge: 16,
            unroll_bias: 8,
            max_blocks: 128,
            max_insts: 2048,
        }
    }
}

impl TraceParams {
    /// Aggressive parameters for differential testing: one warm-up run,
    /// every observed edge trusted and every cycle unrolled. The
    /// conformance trace leg replays a packet once to train and once
    /// through the formed traces.
    pub fn eager() -> TraceParams {
        TraceParams {
            warmup_runs: 1,
            hot_min: 1,
            min_edge: 1,
            unroll_bias: 1,
            max_blocks: 8,
            max_insts: 256,
        }
    }
}

/// Cumulative trace-layer telemetry. Like `Cpu::block_bailouts`, these
/// are a deterministic function of program + inputs and never part of
/// `RunStats`, so conformance comparisons stay untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces built by the formation pass.
    pub formed: u64,
    /// Trips dispatched through a trace head. `guard_exits` counts the
    /// subset that fell off mid-trace; the rest completed with one fused
    /// delta.
    pub hits: u64,
    /// Mispredicted guards: trips that fell off mid-trace to block-level
    /// execution.
    pub guard_exits: u64,
    /// Dispatches declined because a full trip might cross the
    /// instruction budget (the block path ran instead).
    pub declines: u64,
}

/// One member's guard: how control leaves the block when the trace stays
/// on its predicted path, and where it exits when it does not.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Guard {
    /// Fall-through into the next member; passes unconditionally.
    Fall,
    /// Static `j`/`jal`; passes unconditionally, `jal` writes `ra`.
    Jump { link: bool, ret_pc: u32 },
    /// Conditional branch predicted `expect` (`true` = taken). A
    /// mismatch exits the trace to `exit_block` (`u32::MAX` when the
    /// exit side leaves the text) at `exit_pc`.
    Branch {
        op: Op,
        rs1: u8,
        rs2: u8,
        expect: bool,
        exit_block: u32,
        exit_pc: u32,
    },
}

/// One member segment of a flattened trace: half-open ranges into the
/// trace's contiguous micro-op and memory-group streams, the guard, and
/// the fold data applied when the guard mispredicts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceSeg {
    /// Exclusive end of this member's micro-ops in [`TraceEntry::uops`]
    /// (the start is the previous segment's end, 0 for the first).
    pub(crate) uop_end: u32,
    /// Exclusive end of this member's groups in [`TraceEntry::groups`].
    pub(crate) group_end: u32,
    /// Instructions in members `0..=this` — the instret delta applied
    /// when this member's guard mispredicts.
    pub(crate) prefix_len: u64,
    /// Distinct blocks in members `0..=this`, as a prefix length of
    /// [`TraceEntry::blocks`] (which is in first-seen order) — the
    /// blocks reported when this member's guard mispredicts.
    pub(crate) distinct_hi: u32,
    pub(crate) guard: Guard,
}

/// One formed trace: a guarded chain of member blocks whose micro-ops
/// and memory groups are flattened into contiguous streams at formation
/// — a trip never touches the block table — with a single fused delta
/// for a complete trip.
#[derive(Debug, Clone)]
pub(crate) struct TraceEntry {
    /// Member segments, in chain order (blocks may repeat: biased loops
    /// unroll).
    pub(crate) segs: Vec<TraceSeg>,
    /// Every member's micro-ops, concatenated in chain order.
    pub(crate) uops: Vec<UOp>,
    /// Every member's memory groups, concatenated in chain order (the
    /// per-segment region-gate input).
    pub(crate) groups: Vec<MemGroup>,
    /// Unique members in first-seen order as (block id, first
    /// instruction, length), reported per trip through
    /// `Observer::on_block` (`TraceSeg::distinct_hi` prefixes this).
    pub(crate) blocks: Vec<(u32, u32, u32)>,
    /// Fused instruction count for one complete trip.
    pub(crate) total_len: u64,
    /// Where a completed trip continues — always a static in-text block,
    /// so completion re-enters block dispatch (possibly another trace,
    /// or this one again for loops).
    pub(crate) next_block: u32,
    pub(crate) next_pc: u32,
}

/// The mutable trace layer hung off a [`BlockTable`]: warm-up counters,
/// formed traces, and telemetry. Lives in a `RefCell` on the table so it
/// persists across per-packet `Cpu` reconstruction (PacketBench builds
/// one table per worker).
#[derive(Debug, Clone)]
pub(crate) struct TraceState {
    pub(crate) params: TraceParams,
    /// Warm-up runs counted so far.
    pub(crate) runs: u64,
    /// Set once the one-shot formation pass has run (never re-formed).
    pub(crate) formed: bool,
    /// Warm-up per-block retire counts.
    pub(crate) heat: Vec<u64>,
    /// Warm-up per-block branch-direction counts (only a block's own
    /// terminating branch is ambiguous; falls and static jumps are
    /// probability-1 edges).
    pub(crate) taken: Vec<u64>,
    pub(crate) not_taken: Vec<u64>,
    /// Head block id → trace id (`u32::MAX` = none). Only head blocks
    /// map to traces, so mid-trace entry lands on block-level execution
    /// by construction.
    pub(crate) trace_of: Vec<u32>,
    pub(crate) traces: Vec<TraceEntry>,
    pub(crate) stats: TraceStats,
}

impl TraceState {
    pub(crate) fn new(num_blocks: usize, params: TraceParams) -> TraceState {
        TraceState {
            params,
            runs: 0,
            formed: false,
            heat: vec![0; num_blocks],
            taken: vec![0; num_blocks],
            not_taken: vec![0; num_blocks],
            trace_of: vec![u32::MAX; num_blocks],
            traces: Vec::new(),
            stats: TraceStats::default(),
        }
    }

    /// Called once at the head of every traced run: counts warm-up runs
    /// and fires the one-shot formation pass when warm-up completes.
    pub(crate) fn tick(&mut self, table: &BlockTable, text_base: u32) {
        if self.formed {
            return;
        }
        if self.runs >= self.params.warmup_runs {
            self.form(table, text_base);
        } else {
            self.runs += 1;
        }
    }

    /// The one-shot formation pass: grow one trace per hot head, in
    /// descending warm-up heat with block id breaking ties (so formation
    /// is deterministic for equal-heat blocks).
    fn form(&mut self, table: &BlockTable, text_base: u32) {
        self.formed = true;
        let mut heads: Vec<usize> = (0..self.heat.len())
            .filter(|&b| self.heat[b] >= self.params.hot_min)
            .collect();
        heads.sort_by_key(|&b| (std::cmp::Reverse(self.heat[b]), b));
        for head in heads {
            if self.trace_of[head] != u32::MAX {
                continue;
            }
            if let Some(entry) = self.build_chain(head, table, text_base) {
                self.trace_of[head] = self.traces.len() as u32;
                self.stats.formed += 1;
                self.traces.push(entry);
            }
        }
    }

    /// Greedily grows a guarded chain from `head`, following
    /// fall-throughs, static in-text jumps, and majority branch
    /// directions until a cap or an unchainable terminator stops it.
    fn build_chain(&self, head: usize, table: &BlockTable, text_base: u32) -> Option<TraceEntry> {
        let p = &self.params;
        let mut segs: Vec<TraceSeg> = Vec::new();
        let mut uops: Vec<UOp> = Vec::new();
        let mut groups: Vec<MemGroup> = Vec::new();
        let mut blocks: Vec<(u32, u32, u32)> = Vec::new();
        let mut total_len = 0u64;
        let mut cur = head;
        let mut next = u32::MAX;
        // True once any chained branch was weakly biased; see
        // `TraceParams::unroll_bias`.
        let mut weak = false;
        loop {
            if segs.len() >= p.max_blocks {
                break;
            }
            let entry = table.entry(cur);
            if total_len + entry.len as u64 > p.max_insts {
                break;
            }
            let Some((guard, succ, strong)) = self.chain_step(cur, table, text_base) else {
                break;
            };
            total_len += entry.len as u64;
            if !blocks.iter().any(|m| m.0 == cur as u32) {
                blocks.push((cur as u32, entry.first, entry.len));
            }
            uops.extend_from_slice(table.uops(entry));
            groups.extend_from_slice(&entry.groups);
            segs.push(TraceSeg {
                uop_end: uops.len() as u32,
                group_end: groups.len() as u32,
                prefix_len: total_len,
                distinct_hi: blocks.len() as u32,
                guard,
            });
            weak |= !strong;
            next = succ;
            cur = succ as usize;
            // A cycle containing a weak branch stops at the back-edge —
            // one loop iteration per trip, so the common mid-loop exit
            // wastes as little dispatched-but-unreached trace as
            // possible and the exit target can head a trace of its own.
            // Strongly-biased cycles unroll through the back-edge up to
            // the caps: exits are rare and O(1), and a deep unroll
            // amortizes the per-trip dispatch across many iterations.
            if cur == head && segs.len() >= 2 && weak {
                break;
            }
        }
        // A one-member "trace" is just a block with extra bookkeeping.
        if segs.len() < 2 {
            return None;
        }
        merge_segs(&mut segs, &uops, &groups);
        peephole(&mut uops, &mut segs);
        let next_pc = text_base.wrapping_add(table.entry(next as usize).first * 4);
        Some(TraceEntry {
            segs,
            uops,
            groups,
            blocks,
            total_len,
            next_block: next,
            next_pc,
        })
    }

    /// Whether `b`'s terminator can be chained through, and if so the
    /// guard it becomes plus the predicted successor block.
    fn chain_step(
        &self,
        b: usize,
        table: &BlockTable,
        text_base: u32,
    ) -> Option<(Guard, u32, bool)> {
        let entry = table.entry(b);
        let fall_pc = text_base.wrapping_add(entry.next * 4);
        match entry.term {
            TermKind::Fall if entry.next_block != u32::MAX => {
                Some((Guard::Fall, entry.next_block, true))
            }
            TermKind::Jump {
                target_block, link, ..
            } if target_block != u32::MAX => Some((
                Guard::Jump {
                    link,
                    ret_pc: fall_pc,
                },
                target_block,
                true,
            )),
            TermKind::Branch {
                op,
                rs1,
                rs2,
                taken_block,
                taken_pc,
            } => {
                let p = &self.params;
                let t = self.taken[b];
                let nt = self.not_taken[b];
                if t >= p.min_edge && t >= nt && taken_block != u32::MAX {
                    Some((
                        Guard::Branch {
                            op,
                            rs1,
                            rs2,
                            expect: true,
                            exit_block: entry.next_block,
                            exit_pc: fall_pc,
                        },
                        taken_block,
                        t >= nt.saturating_mul(p.unroll_bias),
                    ))
                } else if nt >= p.min_edge && nt >= t && entry.next_block != u32::MAX {
                    Some((
                        Guard::Branch {
                            op,
                            rs1,
                            rs2,
                            expect: false,
                            exit_block: taken_block,
                            exit_pc: taken_pc,
                        },
                        entry.next_block,
                        nt >= t.saturating_mul(p.unroll_bias),
                    ))
                } else {
                    None
                }
            }
            // Indirect targets, `sys` traps, `halt`, and out-of-text
            // successors can never be trace-internal.
            _ => None,
        }
    }
}

/// Elides segment boundaries no trip can exit through.
///
/// A `Fall` or no-link `Jump` guard passes unconditionally, so the
/// segment boundary it ends exists only to re-run the region gate and
/// the guard dispatch — pure per-trip overhead. Merging the segment into
/// its successor removes both, and (because the uop peephole runs after
/// this pass) lets superop fusion reach across the former block
/// boundary. The merged segment keeps the successor's guard and
/// cumulative exit-fold data, which stay exact: no exit was possible at
/// the elided boundary.
///
/// Soundness of the wider gate: the region gate is a pure fast path —
/// when it fails, grouped accesses classify one at a time to exactly the
/// totals `record_group` would have added — so AND-ing members' gates
/// together never changes statistics. The one hazard is evaluating a
/// later member's group interval from a base register an earlier
/// member's uops overwrite (a passing gate would then fuse counts for
/// the wrong region), so a boundary is only elided when no preceding uop
/// in the merged segment writes any of the next member's base registers.
/// Link jumps write `ra` mid-trace and are left unmerged.
fn merge_segs(segs: &mut Vec<TraceSeg>, uops: &[UOp], groups: &[MemGroup]) {
    let mut out_segs: Vec<TraceSeg> = Vec::with_capacity(segs.len());
    // Start of the merged segment currently being grown.
    let mut seg_uop_start = 0usize;
    for (i, &seg) in segs.iter().enumerate() {
        let unconditional = matches!(seg.guard, Guard::Fall | Guard::Jump { link: false, .. });
        if unconditional && i + 1 < segs.len() {
            // `r0` is never written, so a zero destination field is a
            // dropped write, not a hazard on a zero base register.
            let written = |reg: u8| {
                reg != 0
                    && uops[seg_uop_start..seg.uop_end as usize]
                        .iter()
                        .any(|u| u.rd == reg || u.rd2 == reg)
            };
            let next_groups = &groups[seg.group_end as usize..segs[i + 1].group_end as usize];
            if !next_groups.iter().any(|g| written(g.base)) {
                continue;
            }
        }
        out_segs.push(seg);
        seg_uop_start = seg.uop_end as usize;
    }
    *segs = out_segs;
}

/// Formation-time superop pass over a trace's flattened micro-op stream.
///
/// The block decoder already fuses the short idioms every block benefits
/// from (`SrlAnd`, `RsbImm`, add+load, …); what is left in a hot chain
/// is the longer, more register-hungry patterns — TEA's xorshift triple,
/// an add feeding a xor whose other source must stay live, a reverse
/// subtract feeding a variable shift. Those need a second destination
/// (`rd2`) or a third source (a register index smuggled in `imm`), which
/// only pays off on streams hot enough to have been chained into a
/// trace. Fusion never crosses a segment boundary: a guard can exit
/// between segments, so every uop of a segment runs to completion and
/// within-segment liveness is fully handled by preserving each pattern's
/// surviving intermediate in `rd2`. All matched kinds are pure ALU
/// (never `grouped`), and per-instruction accounting is precomputed at
/// the trace level, so rewriting the stream is unobservable.
fn peephole(uops: &mut Vec<UOp>, segs: &mut [TraceSeg]) {
    let mut out: Vec<UOp> = Vec::with_capacity(uops.len());
    let mut start = 0usize;
    for seg in segs.iter_mut() {
        let window = &uops[start..seg.uop_end as usize];
        let mut i = 0usize;
        while i < window.len() {
            if let Some((fused, used)) = fuse_at(window, i) {
                out.push(fused);
                i += used;
            } else {
                out.push(window[i]);
                i += 1;
            }
        }
        start = seg.uop_end as usize;
        seg.uop_end = out.len() as u32;
    }
    *uops = out;
}

/// Tries to fuse the micro-ops at `w[i..]` into one trace superop;
/// returns the replacement and how many inputs it consumed.
///
/// Every rule preserves all architecturally-live writes (a pattern
/// intermediate that later code may read lands in `rd2`) and reads every
/// source before any write, so destination/source aliasing inside a
/// pattern behaves exactly as the unfused sequence did.
fn fuse_at(w: &[UOp], i: usize) -> Option<(UOp, usize)> {
    use UOpKind as K;
    let a = w[i];
    let b = *w.get(i + 1)?;
    let mk = |kind, rd, rs1, rs2, rd2, imm| UOp {
        kind,
        rd,
        rs1,
        rs2,
        rd2,
        grouped: false,
        imm,
    };
    // Xorshift: `slli x, s, a; srli y, s, b; xor x, x, y`. The srli must
    // not read the slli's destination, and the xor must combine exactly
    // the two shift results into the slli's destination; the srli's
    // result stays live in `rd2`.
    if a.kind == K::SllImm && b.kind == K::SrlImm && a.imm < 32 && b.imm < 32 {
        if let Some(&c) = w.get(i + 2) {
            if c.kind == K::Xor
                && c.rd == a.rd
                && b.rd != a.rd
                && b.rs1 != a.rd
                && ((c.rs1 == a.rd && c.rs2 == b.rd) || (c.rs1 == b.rd && c.rs2 == a.rd))
            {
                let u = mk(K::XorShifts, a.rd, a.rs1, b.rs1, b.rd, a.imm | (b.imm << 5));
                return Some((u, 3));
            }
        }
    }
    let pair = match (a.kind, b.kind) {
        // `andi rd, rs1, m; slli rd, rd, s` — mask then scale, in place.
        (K::AndImm, K::SllImm) if b.rd == a.rd && b.rs1 == a.rd && b.imm < 32 => {
            mk(K::AndShl, a.rd, a.rs1, b.imm as u8, 0, a.imm)
        }
        // `srli rd, rs1, s; andi rd, rd, m` — the immediate-shift twin
        // of the decoder's register-shift `SrlAnd`.
        (K::SrlImm, K::AndImm) if b.rd == a.rd && b.rs1 == a.rd && a.imm < 32 => {
            mk(K::SrlImmAnd, a.rd, a.rs1, a.imm as u8, 0, b.imm)
        }
        // `add a, rs1, rs2; xor b, c, a` — the xor's other source `c`
        // rides in `imm`; the sum stays live in `rd2`.
        (K::Add, K::Xor) if b.rd != a.rd => {
            let other = if b.rs1 == a.rd && b.rs2 != a.rd {
                b.rs2
            } else if b.rs2 == a.rd && b.rs1 != a.rd {
                b.rs1
            } else {
                return None;
            };
            mk(K::AddXor, b.rd, a.rs1, a.rs2, a.rd, other as u32)
        }
        // `addi rd, zero, k; sll rd, rd, c` — constant shifted by a
        // register (the one-hot bit-set idiom).
        (K::MovImm, K::Sll) if b.rd == a.rd && b.rs1 == a.rd && b.rs2 != a.rd => {
            mk(K::MovShl, a.rd, 0, b.rs2, 0, a.imm)
        }
        // `xor x, rs1, rs2; sll x, x, c` — mix then position.
        (K::Xor, K::Sll) if b.rd == a.rd && b.rs1 == a.rd && b.rs2 != a.rd => {
            mk(K::XorSll, a.rd, a.rs1, a.rs2, 0, b.rs2 as u32)
        }
        // `RsbImm d, rs1; srl e, s, d` — flipped bit offset feeding a
        // shift; the flip stays live in `rd2`.
        (K::RsbImm, K::Srl) if b.rs2 == a.rd && b.rs1 != a.rd => {
            mk(K::RsbSrl, b.rd, a.rs1, b.rs1, a.rd, a.imm)
        }
        // `RsbImm d, rs1; SrlAnd e, s, d, m` — flipped offset feeding
        // the decoder's shift-and-mask extract.
        (K::RsbImm, K::SrlAnd)
            if b.rs2 == a.rd && b.rs1 != a.rd && a.imm <= 0xffff && b.imm <= 0xffff =>
        {
            mk(
                K::RsbSrlAnd,
                b.rd,
                a.rs1,
                b.rs1,
                a.rd,
                a.imm | (b.imm << 16),
            )
        }
        // `slli rd, rs1, s; or rd, rd, c` — shift then merge (the
        // byte-assembly idiom).
        (K::SllImm, K::Or) if b.rd == a.rd && a.imm < 32 => {
            let other = if b.rs1 == a.rd && b.rs2 != a.rd {
                b.rs2
            } else if b.rs2 == a.rd && b.rs1 != a.rd {
                b.rs1
            } else {
                return None;
            };
            mk(K::ShlOr, a.rd, a.rs1, other, 0, a.imm)
        }
        _ => return None,
    };
    Some((pair, 2))
}
