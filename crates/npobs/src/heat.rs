//! Basic-block heat profiling.
//!
//! A [`HeatObserver`] rides the `npsim` interpreter loops through the
//! monomorphized [`Observer`] hooks and accumulates, per static basic
//! block, how many times the block was entered and how many instructions
//! retired inside it — the dynamic counterpart of the analysis layer's
//! per-packet block *sets*. Loop-heavy blocks (the data the paper's block
//! methodology and Shaccour & Mansour's loop-redundancy analysis need)
//! show up as instruction counts far above `entries x block length`.
//!
//! Worker-private observers merge additively, so profiles are
//! bit-identical at every engine thread count. [`BlockHeat`] renders the
//! result as a fixed-width table, as flamegraph-collapsed text
//! (`app;label count` lines, one frame per block) keyed by the same
//! `L<n>` labels `pb disasm` prints, or as the weighted flow graph in
//! Graphviz DOT form ([`BlockHeat::to_dot`]).

use npsim::bblock::BlockMap;
use npsim::isa::Inst;
use npsim::obs::Observer;
use npsim::util::BitSet;
use npsim::Program;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Streams block entries and per-block instruction counts off the
/// interpreter loops.
#[derive(Debug, Clone)]
pub struct HeatObserver {
    /// Per-instruction block id (from [`BlockMap::block_ids`]).
    block_of: Vec<u32>,
    /// Per-instruction "is a block leader" flag.
    is_leader: Vec<bool>,
    /// Per-block entry counts.
    entries: Vec<u64>,
    /// Per-block retired-instruction counts.
    instructions: Vec<u64>,
    /// Block-to-successor transition counts, keyed `(from, to)`. Every
    /// block entry with a known predecessor records one edge, so edge
    /// counts are the data trace formation selects chains from (see
    /// `npsim::trace`). A `BTreeMap` keeps iteration deterministic.
    edges: BTreeMap<(u32, u32), u64>,
    /// Block executing at the previous retired instruction
    /// (`u32::MAX` = none, reset at every run start).
    prev: u32,
}

impl HeatObserver {
    /// An observer for one application's block partition.
    pub fn new(block_map: &BlockMap) -> HeatObserver {
        let block_of = block_map.block_ids().to_vec();
        let mut is_leader = vec![false; block_of.len()];
        for &leader in block_map.leaders() {
            is_leader[leader] = true;
        }
        HeatObserver {
            block_of,
            is_leader,
            entries: vec![0; block_map.num_blocks()],
            instructions: vec![0; block_map.num_blocks()],
            edges: BTreeMap::new(),
            prev: u32::MAX,
        }
    }

    /// Per-block entry counts.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Per-block retired-instruction counts.
    pub fn instructions(&self) -> &[u64] {
        &self.instructions
    }

    /// Total instructions observed.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    /// Block-to-successor transition counts, keyed `(from, to)`.
    pub fn edges(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.edges
    }

    /// Adds another observer's counts into this one. Merging is additive
    /// and commutative, which is what makes engine profiles independent
    /// of worker count and scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the observers were built for different programs.
    pub fn merge(&mut self, other: &HeatObserver) {
        assert_eq!(
            self.block_of.len(),
            other.block_of.len(),
            "merging heat observers from different programs"
        );
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a += b;
        }
        for (a, b) in self.instructions.iter_mut().zip(&other.instructions) {
            *a += b;
        }
        for (edge, count) in &other.edges {
            *self.edges.entry(*edge).or_insert(0) += count;
        }
    }

    /// Freezes the counts into a labelled, renderable [`BlockHeat`].
    pub fn into_heat(self, program: &Program, block_map: &BlockMap) -> BlockHeat {
        BlockHeat {
            labels: block_labels(program, block_map),
            lengths: (0..block_map.num_blocks())
                .map(|b| block_map.block_range(b).len() as u64)
                .collect(),
            entries: self.entries,
            instructions: self.instructions,
            edges: self.edges,
        }
    }
}

impl Observer for HeatObserver {
    // Heat only needs entry and retire counts per block, so the superblock
    // engine can report whole-block retires through `on_block` instead of
    // one `on_inst` per instruction. The per-instruction hook still fires
    // on the engine's fallback paths and on the full-detail loop, and the
    // two accountings agree exactly: a fully-retired block always enters
    // at its leader (one entry) and retires all `len` instructions.
    const BLOCK_LEVEL: bool = true;

    #[inline(always)]
    fn on_run_start(&mut self) {
        self.prev = u32::MAX;
    }

    #[inline(always)]
    fn on_inst(&mut self, _pc: u32, index: usize, _inst: &Inst) {
        let block = self.block_of[index];
        // A block is entered at its leader, or whenever control appears
        // in a different block than the previous instruction's (entry
        // points that are not static leaders).
        if self.is_leader[index] || block != self.prev {
            if self.prev != u32::MAX {
                *self.edges.entry((self.prev, block)).or_insert(0) += 1;
            }
            self.entries[block as usize] += 1;
            self.prev = block;
        }
        self.instructions[block as usize] += 1;
    }

    #[inline(always)]
    fn on_block(&mut self, block: usize, _first: usize, len: usize) {
        if self.prev != u32::MAX {
            *self.edges.entry((self.prev, block as u32)).or_insert(0) += 1;
        }
        self.entries[block] += 1;
        self.instructions[block] += len as u64;
        self.prev = block as u32;
    }
}

/// Stable display labels for each basic block: the disassembler's `L<n>`
/// label when the block's leader is a static branch/jump target, the
/// entry label `b<i>` otherwise.
pub fn block_labels(program: &Program, block_map: &BlockMap) -> Vec<String> {
    let targets = npasm::target_labels(program);
    (0..block_map.num_blocks())
        .map(|b| {
            let pc = program.pc_of(block_map.leader(b));
            targets.get(&pc).cloned().unwrap_or_else(|| format!("b{b}"))
        })
        .collect()
}

/// A labelled basic-block heat map, ready to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeat {
    labels: Vec<String>,
    lengths: Vec<u64>,
    entries: Vec<u64>,
    instructions: Vec<u64>,
    edges: BTreeMap<(u32, u32), u64>,
}

impl BlockHeat {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.labels.len()
    }

    /// Per-block entry counts.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Per-block retired-instruction counts.
    pub fn instructions(&self) -> &[u64] {
        &self.instructions
    }

    /// The display label of block `b`.
    pub fn label(&self, b: usize) -> &str {
        &self.labels[b]
    }

    /// Total instructions across all blocks.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    /// Renders the heat map as a fixed-width table, hottest block first
    /// (ties broken by block index so output is fully deterministic).
    /// `static_len` columns expose loop redundancy: instructions far above
    /// `entries x length` mean the block re-executes inside one packet.
    pub fn render_table(&self) -> String {
        let total = self.total_instructions().max(1) as f64;
        let mut order: Vec<usize> = (0..self.num_blocks()).collect();
        order.sort_by_key(|&b| (std::cmp::Reverse(self.instructions[b]), b));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<8} {:>8} {:>12} {:>14} {:>7}",
            "block", "label", "length", "entries", "instructions", "share"
        );
        for b in order {
            if self.instructions[b] == 0 && self.entries[b] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<6} {:<8} {:>8} {:>12} {:>14} {:>6.2}%",
                b,
                self.labels[b],
                self.lengths[b],
                self.entries[b],
                self.instructions[b],
                self.instructions[b] as f64 / total * 100.0
            );
        }
        out
    }

    /// Renders the heat map as flamegraph-collapsed text: one
    /// `app;label count` line per executed block, weight = instructions
    /// retired in the block. Feed to any flamegraph renderer.
    pub fn render_collapsed(&self, app: &str) -> String {
        let mut out = String::new();
        for b in 0..self.num_blocks() {
            if self.instructions[b] > 0 {
                let _ = writeln!(out, "{app};{} {}", self.labels[b], self.instructions[b]);
            }
        }
        out
    }

    /// Block-to-successor transition counts, keyed `(from, to)`.
    pub fn edges(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.edges
    }

    /// Per-block static lengths in instructions.
    pub fn lengths(&self) -> &[u64] {
        &self.lengths
    }

    /// The hot path: starting from the entry block, greedily follow the
    /// heaviest outgoing edge until revisiting a block or running out of
    /// edges. This is the candidate fast path of the application.
    pub fn hot_path(&self) -> Vec<usize> {
        let mut path = vec![0usize];
        let mut seen = BitSet::new(self.num_blocks().max(1));
        seen.insert(0);
        loop {
            let here = *path.last().expect("path starts non-empty") as u32;
            let next = self
                .edges
                .range((here, 0)..(here + 1, 0))
                .max_by_key(|(_, &w)| w)
                .map(|(&(_, to), _)| to as usize);
            match next {
                Some(to) if !seen.contains(to) => {
                    seen.insert(to);
                    path.push(to);
                }
                _ => break,
            }
        }
        path
    }

    /// Renders the weighted flow graph of packet processing (paper §I)
    /// in Graphviz DOT syntax: one node per entered block weighted by
    /// its entries, edge labels carrying transition counts, and the hot
    /// path highlighted. Edge weights read as fractions show which paths
    /// are the common case and which the slow path — what a designer
    /// splits an application between fast and slow path by (§V-C).
    pub fn to_dot(&self, title: &str) -> String {
        let hot: std::collections::HashSet<(usize, usize)> =
            self.hot_path().windows(2).map(|w| (w[0], w[1])).collect();
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=TB; node [shape=box];");
        for (b, &w) in self.entries.iter().enumerate() {
            if w > 0 {
                let _ = writeln!(out, "  b{b} [label=\"B{b}\\n{w}x\"];");
            }
        }
        for (&(from, to), &w) in &self.edges {
            let style = if hot.contains(&(from as usize, to as usize)) {
                " color=red penwidth=2"
            } else {
                ""
            };
            let _ = writeln!(out, "  b{from} -> b{to} [label=\"{w}\"{style}];");
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Renders the hottest block-to-successor edges as a fixed-width
    /// table, most-travelled first (ties broken by `(from, to)` block
    /// ids so output is fully deterministic). These counts are what
    /// hot-trace formation selects chains from; a near-100% share on an
    /// edge means the pair fuses into one trace.
    pub fn render_edges(&self, limit: usize) -> String {
        let total: u64 = self.edges.values().sum();
        let total = total.max(1) as f64;
        let mut order: Vec<(&(u32, u32), &u64)> = self.edges.iter().collect();
        order.sort_by_key(|&(edge, count)| (std::cmp::Reverse(*count), *edge));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<8} {:>6} {:<8} {:>12} {:>7}",
            "from", "label", "to", "label", "count", "share"
        );
        for (&(from, to), &count) in order.into_iter().take(limit) {
            let _ = writeln!(
                out,
                "{:<6} {:<8} {:>6} {:<8} {:>12} {:>6.2}%",
                from,
                self.labels[from as usize],
                to,
                self.labels[to as usize],
                count,
                count as f64 / total * 100.0
            );
        }
        out
    }

    /// Renders dominant block chains as flamegraph-collapsed text: from
    /// each block (hottest first) not yet claimed by a chain, follow the
    /// most-travelled outgoing edge (ties broken by successor id),
    /// stopping after the first already-claimed block (a repeated frame
    /// for self-loops, a join frame otherwise), then emit one
    /// `app;label;label;... count` line weighted by the chain's weakest
    /// edge. This is a rendering of the greedy walk trace formation
    /// performs, so the flamegraph shows the chains the trace engine
    /// fuses.
    pub fn render_chains(&self, app: &str) -> String {
        let n = self.num_blocks();
        // Dominant successor per block, by (count desc, successor id).
        let mut best: Vec<Option<(u32, u64)>> = vec![None; n];
        for (&(from, to), &count) in &self.edges {
            let slot = &mut best[from as usize];
            let better = match *slot {
                None => true,
                Some((bt, bc)) => count > bc || (count == bc && to < bt),
            };
            if better {
                *slot = Some((to, count));
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&b| (std::cmp::Reverse(self.instructions[b]), b));
        let mut claimed = vec![false; n];
        let mut out = String::new();
        for head in order {
            if claimed[head] || self.entries[head] == 0 {
                continue;
            }
            claimed[head] = true;
            let mut frames = vec![self.labels[head].as_str()];
            let mut weight = u64::MAX;
            let mut cur = head;
            while let Some((next, count)) = best[cur] {
                weight = weight.min(count);
                frames.push(self.labels[next as usize].as_str());
                // A block already claimed (including `head` itself, for
                // self-loops) ends the chain as a terminal frame showing
                // where this chain joins a hotter one.
                if claimed[next as usize] {
                    break;
                }
                claimed[next as usize] = true;
                cur = next as usize;
            }
            if frames.len() < 2 {
                continue;
            }
            let _ = writeln!(out, "{app};{} {}", frames.join(";"), weight);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npsim::isa::{reg, Inst, Op};
    use npsim::{Cpu, Memory, MemoryMap, RunConfig, RunStats};

    fn looped_program(map: MemoryMap) -> Program {
        // b0: init | b1 (L*): loop body of 2 insts x5 | b2: ret
        Program::new(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 0),
                Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 5),
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, 1), // loop leader
                Inst::branch(Op::Blt, reg::T0, reg::T1, -8),
                Inst::jr(reg::RA),
            ],
            map.text_base,
        )
    }

    fn run_heat(runs: usize) -> (HeatObserver, Program, BlockMap) {
        let map = MemoryMap::default();
        let program = looped_program(map);
        let blocks = BlockMap::build(&program);
        let mut obs = HeatObserver::new(&blocks);
        for _ in 0..runs {
            let mut mem = Memory::new();
            let mut cpu = Cpu::new(&program, map);
            let mut stats = RunStats::for_program(program.len());
            cpu.run_observed(
                &mut mem,
                &RunConfig::default(),
                &mut npsim::cpu::NoSys,
                &mut stats,
                &mut obs,
            )
            .unwrap();
        }
        (obs, program, blocks)
    }

    #[test]
    fn loop_block_heat_counts_every_iteration() {
        let (obs, _, blocks) = run_heat(1);
        assert_eq!(blocks.num_blocks(), 3);
        // Entry block once, loop block 5 times, return once.
        assert_eq!(obs.entries(), &[1, 5, 1]);
        // 2 init + 5 x (addi + blt) + 1 ret.
        assert_eq!(obs.instructions(), &[2, 10, 1]);
        assert_eq!(obs.total_instructions(), 13);
    }

    #[test]
    fn runs_reset_block_tracking() {
        let (obs, _, _) = run_heat(3);
        // Without the on_run_start reset the second run's entry block
        // would not count as an entry (prev would still point at it).
        assert_eq!(obs.entries(), &[3, 15, 3]);
    }

    #[test]
    fn merge_is_additive() {
        let (mut a, program, blocks) = run_heat(2);
        let (b, _, _) = run_heat(3);
        a.merge(&b);
        let (whole, _, _) = run_heat(5);
        assert_eq!(a.entries(), whole.entries());
        assert_eq!(a.instructions(), whole.instructions());
        let heat = a.into_heat(&program, &blocks);
        assert_eq!(heat.total_instructions(), whole.total_instructions());
    }

    #[test]
    fn labels_use_disassembler_targets() {
        let (obs, program, blocks) = run_heat(1);
        let heat = obs.into_heat(&program, &blocks);
        // The loop head is a branch target: it gets an L-label; entry and
        // return blocks are not targets and fall back to b<i>.
        assert_eq!(heat.label(0), "b0");
        assert_eq!(heat.label(1), "L0");
        assert_eq!(heat.label(2), "b2");
    }

    #[test]
    fn edges_count_transitions_identically_on_both_loops() {
        let (obs, program, blocks) = run_heat(1);
        // b0 -> L0 once, L0 -> L0 four times, L0 -> b2 once.
        assert_eq!(obs.edges().get(&(0, 1)), Some(&1));
        assert_eq!(obs.edges().get(&(1, 1)), Some(&4));
        assert_eq!(obs.edges().get(&(1, 2)), Some(&1));
        assert_eq!(obs.edges().len(), 3);
        let heat = obs.into_heat(&program, &blocks);
        // Hottest edge first: the loop's self-edge.
        let edges = heat.render_edges(10);
        let first = edges.lines().nth(1).unwrap();
        assert!(first.contains("L0") && first.contains('4'), "{edges}");
        // The dominant chain is the self-looping loop head.
        let chains = heat.render_chains("demo");
        assert_eq!(chains, "demo;L0;L0 4\ndemo;b0;L0 1\n");
    }

    #[test]
    fn edge_merge_is_additive() {
        let (mut a, _, _) = run_heat(2);
        let (b, _, _) = run_heat(3);
        a.merge(&b);
        let (whole, _, _) = run_heat(5);
        assert_eq!(a.edges(), whole.edges());
    }

    #[test]
    fn table_ranks_hottest_first_and_collapsed_lines_weigh_instructions() {
        let (obs, program, blocks) = run_heat(1);
        let heat = obs.into_heat(&program, &blocks);
        let table = heat.render_table();
        let first_data_line = table.lines().nth(1).unwrap();
        assert!(first_data_line.starts_with('1'), "{table}");
        assert!(table.contains("L0"));
        let collapsed = heat.render_collapsed("demo");
        assert_eq!(collapsed, "demo;b0 2\ndemo;L0 10\ndemo;b2 1\n");
    }
}
