//! Optional micro-architectural side models.
//!
//! The paper notes that PacketBench inherits "traditional micro-architectural
//! statistics" from the underlying processor simulator (branch
//! misprediction rates, cache behaviour). These models reproduce that
//! capability: they observe the executed instruction stream without
//! affecting architectural state.

use crate::isa::{Op, OpClass};

/// Configuration for the micro-architectural models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UarchConfig {
    /// Number of 2-bit counters in the bimodal branch predictor
    /// (power of two).
    pub predictor_entries: usize,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Pipeline timing parameters.
    pub timing: TimingConfig,
}

impl Default for UarchConfig {
    fn default() -> UarchConfig {
        UarchConfig {
            predictor_entries: 1024,
            // Small on-chip memories, as the paper argues suffice for NPs.
            icache: CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 32,
                associativity: 2,
            },
            dcache: CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 32,
                associativity: 2,
            },
            timing: TimingConfig::default(),
        }
    }
}

/// Pipeline timing parameters for the cycle model: a classic in-order
/// scalar five-stage pipeline with blocking caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Stall cycles on a mispredicted conditional branch.
    pub branch_penalty: u64,
    /// Stall cycles when an instruction consumes the result of the
    /// immediately preceding load (load-use hazard).
    pub load_use_penalty: u64,
    /// Stall cycles per instruction-cache miss.
    pub icache_miss_penalty: u64,
    /// Stall cycles per data-cache miss.
    pub dcache_miss_penalty: u64,
    /// Extra cycles for multiply/divide instructions.
    pub muldiv_latency: u64,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            branch_penalty: 3,
            load_use_penalty: 1,
            icache_miss_penalty: 20,
            dcache_miss_penalty: 30,
            muldiv_latency: 4,
        }
    }
}

/// Geometry of a set-associative cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Ways per set (1 = direct-mapped).
    pub associativity: usize,
}

/// A bimodal (2-bit saturating counter) branch predictor.
///
/// Indexed by the branch PC; counters start weakly-not-taken. Only
/// conditional branches are predicted.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    counters: Vec<u8>,
    predictions: u64,
    mispredictions: u64,
}

impl BimodalPredictor {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> BimodalPredictor {
        assert!(
            entries.is_power_of_two(),
            "predictor entries must be a power of two"
        );
        BimodalPredictor {
            counters: vec![1; entries], // weakly not-taken
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Records the outcome of a conditional branch at `pc`, updating the
    /// statistics and the counter. Returns whether the branch was
    /// mispredicted.
    pub fn record(&mut self, pc: u32, taken: bool) -> bool {
        let index = ((pc >> 2) as usize) & (self.counters.len() - 1);
        let counter = &mut self.counters[index];
        let predicted_taken = *counter >= 2;
        self.predictions += 1;
        let mispredicted = predicted_taken != taken;
        if mispredicted {
            self.mispredictions += 1;
        }
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        mispredicted
    }

    /// Total conditional branches observed.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Branches whose direction was predicted incorrectly.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate in `[0, 1]` (0 if no branches ran).
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// A set-associative cache model with LRU replacement.
///
/// Tracks hits and misses only (no contents); sufficient for the hit-rate
/// statistics the paper's class of analysis reports.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    line_shift: u32,
    /// `tags[set * associativity + way]`, `u64::MAX` = invalid;
    /// `lru` holds per-line last-use stamps.
    tags: Vec<u64>,
    lru: Vec<u64>,
    stamp: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache model.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size, capacity not divisible by `line * associativity`).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two() && config.line_bytes >= 4);
        assert!(config.associativity >= 1);
        let lines = config.size_bytes / config.line_bytes;
        assert!(
            lines >= config.associativity && lines.is_multiple_of(config.associativity),
            "cache capacity must hold a whole number of sets"
        );
        let sets = lines / config.associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; lines],
            lru: vec![0; lines],
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Simulates an access to `addr`; returns whether it hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.accesses += 1;
        self.stamp += 1;
        let line_addr = (addr >> self.line_shift) as u64;
        let set = (line_addr as usize) & (self.sets - 1);
        let base = set * self.config.associativity;
        let ways = &mut self.tags[base..base + self.config.associativity];
        if let Some(way) = ways.iter().position(|&t| t == line_addr) {
            self.lru[base + way] = self.stamp;
            return true;
        }
        self.misses += 1;
        // Choose the LRU way (or an invalid one).
        let victim = (0..self.config.associativity)
            .min_by_key(|&w| {
                if self.tags[base + w] == u64::MAX {
                    0
                } else {
                    self.lru[base + w] + 1
                }
            })
            .expect("associativity >= 1");
        self.tags[base + victim] = line_addr;
        self.lru[base + victim] = self.stamp;
        false
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1 if no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }
}

/// The live micro-architectural models attached to a run.
#[derive(Debug, Clone)]
pub struct Uarch {
    /// Branch direction predictor.
    pub predictor: BimodalPredictor,
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
    timing: TimingConfig,
    cycles: u64,
    stall_cycles: u64,
    last_load_rd: Option<crate::isa::Reg>,
}

impl Uarch {
    /// Instantiates the models from a configuration.
    pub fn new(config: &UarchConfig) -> Uarch {
        Uarch {
            predictor: BimodalPredictor::new(config.predictor_entries),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            timing: config.timing,
            cycles: 0,
            stall_cycles: 0,
            last_load_rd: None,
        }
    }

    /// Accounts for one retiring instruction at `pc`: base cycle,
    /// instruction fetch, load-use interlock, and multi-cycle ALU ops.
    /// Called by the interpreter before executing `inst`.
    pub fn retire(&mut self, pc: u32, inst: &crate::isa::Inst) {
        self.cycles += 1;
        if !self.icache.access(pc) {
            self.stall(self.timing.icache_miss_penalty);
        }
        // Load-use hazard: the previous instruction was a load whose
        // destination this instruction reads.
        if let Some(rd) = self.last_load_rd.take() {
            if rd.index() != 0 && (inst.rs1 == rd || uses_rs2(inst.op) && inst.rs2 == rd) {
                self.stall(self.timing.load_use_penalty);
            }
        }
        match inst.op.class() {
            OpClass::Load => self.last_load_rd = Some(inst.rd),
            OpClass::MulDiv => self.stall(self.timing.muldiv_latency),
            _ => {}
        }
    }

    /// Accounts for a conditional branch outcome; returns mispredicted.
    pub fn branch(&mut self, pc: u32, taken: bool) -> bool {
        let mispredicted = self.predictor.record(pc, taken);
        if mispredicted {
            self.stall(self.timing.branch_penalty);
        }
        mispredicted
    }

    /// Accounts for a data access.
    pub fn data_access(&mut self, addr: u32) {
        if !self.dcache.access(addr) {
            self.stall(self.timing.dcache_miss_penalty);
        }
    }

    fn stall(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.stall_cycles += cycles;
    }

    /// Total modelled cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles lost to stalls (cache misses, hazards, mispredictions).
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }
}

/// Whether an opcode reads its `rs2` field.
fn uses_rs2(op: Op) -> bool {
    use Op::*;
    matches!(
        op,
        Add | Sub
            | And
            | Or
            | Xor
            | Nor
            | Sll
            | Srl
            | Sra
            | Slt
            | Sltu
            | Mul
            | Mulhu
            | Divu
            | Remu
            | Sb
            | Sh
            | Sw
            | Beq
            | Bne
            | Blt
            | Bge
            | Bltu
            | Bgeu
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_a_loop() {
        let mut p = BimodalPredictor::new(16);
        // A branch taken 99 times then not taken once (loop exit) should
        // mispredict only a handful of times.
        for _ in 0..99 {
            p.record(0x100, true);
        }
        p.record(0x100, false);
        assert_eq!(p.predictions(), 100);
        assert!(p.mispredictions() <= 3, "{}", p.mispredictions());
        assert!(p.misprediction_rate() < 0.05);
    }

    #[test]
    fn predictor_aliasing_uses_index_bits() {
        let mut p = BimodalPredictor::new(2);
        // PCs 0x0 and 0x8 map to different entries; 0x0 and 0x10 alias.
        p.record(0x0, true);
        p.record(0x8, false);
        p.record(0x0, true);
        assert_eq!(p.predictions(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn predictor_rejects_non_power_of_two() {
        let _ = BimodalPredictor::new(3);
    }

    #[test]
    fn direct_mapped_cache_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 1,
        });
        assert!(!c.access(0x000)); // cold miss
        assert!(c.access(0x004)); // same line
        assert!(!c.access(0x040)); // maps to set 0, evicts
        assert!(!c.access(0x000)); // conflict miss
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn two_way_cache_keeps_both_lines() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 2,
        });
        assert!(!c.access(0x000));
        assert!(!c.access(0x040)); // same set, second way
        assert!(c.access(0x000));
        assert!(c.access(0x040));
        assert!(!c.access(0x080)); // evicts LRU (0x000 was used less recently? no: 0x000 used at t3)
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 2,
        });
        c.access(0xa00); // way 0
        c.access(0xa40); // way 1 (same set: bits above line offset)
        c.access(0xa00); // touch way 0 -> way 1 is LRU
        c.access(0xa80); // evicts 0xa40
        assert!(c.access(0xa00), "0xa00 must survive");
        assert!(!c.access(0xa40), "0xa40 must have been evicted");
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;
    use crate::isa::{reg, Inst};
    use crate::{Cpu, Memory, MemoryMap, Program, RunConfig};

    fn run_with_timing(insts: Vec<Inst>, timing: TimingConfig) -> crate::cpu::UarchStats {
        let map = MemoryMap::default();
        let program = Program::new(insts, map.text_base);
        let mut mem = Memory::new();
        let mut cpu = Cpu::new(&program, map);
        let config = RunConfig {
            uarch: Some(UarchConfig {
                timing,
                ..UarchConfig::default()
            }),
            ..RunConfig::default()
        };
        cpu.run(&mut mem, &config).unwrap().uarch.unwrap()
    }

    fn no_penalties() -> TimingConfig {
        TimingConfig {
            branch_penalty: 0,
            load_use_penalty: 0,
            icache_miss_penalty: 0,
            dcache_miss_penalty: 0,
            muldiv_latency: 0,
        }
    }

    #[test]
    fn ideal_pipeline_is_one_cpi() {
        let stats = run_with_timing(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 1),
                Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 2),
                Inst::jr(reg::RA),
            ],
            no_penalties(),
        );
        assert_eq!(stats.cycles, 3);
        assert_eq!(stats.stall_cycles, 0);
        assert!((stats.cpi(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_use_hazard_stalls() {
        let timing = TimingConfig {
            load_use_penalty: 2,
            ..no_penalties()
        };
        // lw t0; add t1, t0, t0  -> hazard.
        let hazard = run_with_timing(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::GP, 0),
                Inst::rtype(Op::Add, reg::T1, reg::T0, reg::T0),
                Inst::jr(reg::RA),
            ],
            timing,
        );
        assert_eq!(hazard.stall_cycles, 2);
        // lw t0; add t1, t2, t2 -> no hazard.
        let clean = run_with_timing(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::GP, 0),
                Inst::rtype(Op::Add, reg::T1, reg::T2, reg::T2),
                Inst::jr(reg::RA),
            ],
            timing,
        );
        assert_eq!(clean.stall_cycles, 0);
    }

    #[test]
    fn cache_misses_and_muldiv_cost_cycles() {
        let timing = TimingConfig {
            dcache_miss_penalty: 10,
            muldiv_latency: 5,
            ..no_penalties()
        };
        let stats = run_with_timing(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::GP, 0), // cold miss: +10
                Inst::rtype(Op::Mul, reg::T1, reg::T2, reg::T2), // +5
                Inst::jr(reg::RA),
            ],
            timing,
        );
        assert_eq!(stats.stall_cycles, 15);
        assert_eq!(stats.cycles, 3 + 15);
    }

    #[test]
    fn mispredicted_branches_pay_penalty() {
        let timing = TimingConfig {
            branch_penalty: 7,
            ..no_penalties()
        };
        // An alternating branch defeats the bimodal predictor for a
        // guaranteed number of mispredictions >= 1.
        let stats = run_with_timing(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 0),
                Inst::with_imm(Op::Addi, reg::T1, reg::ZERO, 8),
                // loop: t0 += 1; branch to loop while t0 < t1
                Inst::with_imm(Op::Addi, reg::T0, reg::T0, 1),
                Inst::branch(Op::Blt, reg::T0, reg::T1, -8),
                Inst::jr(reg::RA),
            ],
            timing,
        );
        assert!(stats.mispredictions >= 1);
        assert_eq!(stats.stall_cycles, stats.mispredictions * 7);
    }

    #[test]
    fn stats_compose_additively() {
        let stats = run_with_timing(
            vec![
                Inst::with_imm(Op::Lw, reg::T0, reg::GP, 0),
                Inst::rtype(Op::Add, reg::T1, reg::T0, reg::T0),
                Inst::jr(reg::RA),
            ],
            TimingConfig::default(),
        );
        // cycles = instret + stalls, always.
        assert_eq!(stats.cycles, 3 + stats.stall_cycles);
        assert!(stats.cpi(3) > 1.0);
    }
}
