//! The reference NP32 interpreter: deliberately simple, obviously correct.
//!
//! `RefCpu` is the known-good model the optimized simulator is checked
//! against. It must stay free of every optimization `npsim::Cpu` carries:
//!
//! * **no predecode** — the program is held as encoded 32-bit words and
//!   every fetch runs [`npsim::encode::decode`] again;
//! * **no fused PC translation** — the sentinel, alignment, and range
//!   checks are written out one by one in the architecturally documented
//!   order;
//! * **no monomorphized fast path** — one loop serves every detail level,
//!   consulting the [`RunConfig`] flags directly;
//! * **no unconditional-write-then-undo for the zero register** — writes
//!   to `r0` are simply skipped.
//!
//! Anything clever added here would be a second copy of the thing under
//! test. See `DESIGN.md` ("Conformance") before changing this file.

use npsim::cpu::{CpuState, HaltReason, Interpreter, Program, RunConfig, RunStats};
use npsim::encode::{decode, encode};
use npsim::isa::{reg, Inst, Op, Reg};
use npsim::mem::{AccessKind, MemEvent, Memory, MemoryMap};
use npsim::{SimError, SysHandler, SysOutcome, RETURN_SENTINEL};

/// The reference interpreter. Same observable behavior as [`npsim::Cpu`],
/// none of its optimizations.
#[derive(Debug, Clone)]
pub struct RefCpu {
    /// The register file (`regs[0]` stays zero).
    pub regs: [u32; 32],
    /// The program counter.
    pub pc: u32,
    /// The program as encoded instruction words — decoded again on every
    /// fetch.
    words: Vec<u32>,
    text_base: u32,
    map: MemoryMap,
}

impl RefCpu {
    /// Builds a reference CPU for `program` in boot state (`sp`/`ra`/`gp`
    /// seeded, PC at the text base). The program is re-encoded to words so
    /// the reference model owns its own text and fetch-decodes each step.
    ///
    /// # Errors
    ///
    /// Fails only if an instruction of `program` is not encodable.
    pub fn new(program: &Program, map: MemoryMap) -> Result<RefCpu, SimError> {
        let words = program
            .insts()
            .iter()
            .map(encode)
            .collect::<Result<Vec<u32>, SimError>>()?;
        let mut cpu = RefCpu {
            regs: [0; 32],
            pc: 0,
            words,
            text_base: program.text_base(),
            map,
        };
        Interpreter::reset(&mut cpu);
        Ok(cpu)
    }

    /// The memory map in force.
    pub fn map(&self) -> MemoryMap {
        self.map
    }

    /// Writes `rd`; writes to the zero register are skipped.
    fn write(&mut self, rd: Reg, value: u32) {
        if rd.index() != 0 {
            self.regs[rd.index()] = value;
        }
    }

    /// Accounts one data-memory access.
    fn access(
        &self,
        stats: &mut RunStats,
        config: &RunConfig,
        addr: u32,
        size: u8,
        kind: AccessKind,
    ) {
        let region = self.map.region(addr);
        stats.mem.record(region, kind);
        if config.record_mem_trace {
            stats.mem_trace.push(MemEvent {
                instr_index: stats.instret - 1,
                addr,
                size,
                kind,
                region,
            });
        }
    }

    /// Executes one decoded instruction, returning the next PC.
    ///
    /// `next` is `pc + 4`. Reads all source operands before writing any
    /// destination (so `jalr t0, t0` uses the old `t0`).
    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        inst: &Inst,
        next: u32,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
    ) -> Result<StepOutcome, SimError> {
        let rs1 = self.regs[inst.rs1.index()];
        let rs2 = self.regs[inst.rs2.index()];
        let imm = inst.imm;
        let rd = inst.rd;
        match inst.op {
            Op::Add => self.write(rd, rs1.wrapping_add(rs2)),
            Op::Sub => self.write(rd, rs1.wrapping_sub(rs2)),
            Op::And => self.write(rd, rs1 & rs2),
            Op::Or => self.write(rd, rs1 | rs2),
            Op::Xor => self.write(rd, rs1 ^ rs2),
            Op::Nor => self.write(rd, !(rs1 | rs2)),
            Op::Sll => self.write(rd, rs1.wrapping_shl(rs2 & 31)),
            Op::Srl => self.write(rd, rs1.wrapping_shr(rs2 & 31)),
            Op::Sra => self.write(rd, ((rs1 as i32).wrapping_shr(rs2 & 31)) as u32),
            Op::Slt => self.write(rd, ((rs1 as i32) < (rs2 as i32)) as u32),
            Op::Sltu => self.write(rd, (rs1 < rs2) as u32),
            Op::Mul => self.write(rd, rs1.wrapping_mul(rs2)),
            Op::Mulhu => self.write(rd, ((rs1 as u64 * rs2 as u64) >> 32) as u32),
            Op::Divu => self.write(rd, rs1.checked_div(rs2).unwrap_or(u32::MAX)),
            Op::Remu => self.write(rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Op::Addi => self.write(rd, rs1.wrapping_add(imm as u32)),
            Op::Andi => self.write(rd, rs1 & (imm as u32)),
            Op::Ori => self.write(rd, rs1 | (imm as u32)),
            Op::Xori => self.write(rd, rs1 ^ (imm as u32)),
            Op::Slli => self.write(rd, rs1.wrapping_shl(imm as u32)),
            Op::Srli => self.write(rd, rs1.wrapping_shr(imm as u32)),
            Op::Srai => self.write(rd, ((rs1 as i32).wrapping_shr(imm as u32)) as u32),
            Op::Slti => self.write(rd, ((rs1 as i32) < imm) as u32),
            Op::Sltiu => self.write(rd, (rs1 < imm as u32) as u32),
            Op::Lui => self.write(rd, (imm as u32) << 16),
            Op::Lb => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 1, AccessKind::Read);
                self.write(rd, mem.read_u8(addr) as i8 as i32 as u32);
            }
            Op::Lbu => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 1, AccessKind::Read);
                self.write(rd, mem.read_u8(addr) as u32);
            }
            Op::Lh => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 2, AccessKind::Read);
                self.write(rd, mem.read_u16(addr) as i16 as i32 as u32);
            }
            Op::Lhu => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 2, AccessKind::Read);
                self.write(rd, mem.read_u16(addr) as u32);
            }
            Op::Lw => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 4, AccessKind::Read);
                self.write(rd, mem.read_u32(addr));
            }
            Op::Sb => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 1, AccessKind::Write);
                mem.write_u8(addr, rs2 as u8);
            }
            Op::Sh => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 2, AccessKind::Write);
                mem.write_u16(addr, rs2 as u16);
            }
            Op::Sw => {
                let addr = rs1.wrapping_add(imm as u32);
                self.access(stats, config, addr, 4, AccessKind::Write);
                mem.write_u32(addr, rs2);
            }
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                let taken = match inst.op {
                    Op::Beq => rs1 == rs2,
                    Op::Bne => rs1 != rs2,
                    Op::Blt => (rs1 as i32) < (rs2 as i32),
                    Op::Bge => (rs1 as i32) >= (rs2 as i32),
                    Op::Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                if taken {
                    return Ok(StepOutcome::Goto(next.wrapping_add(imm as u32)));
                }
            }
            Op::J => return Ok(StepOutcome::Goto(next.wrapping_add(imm as u32))),
            Op::Jal => {
                self.regs[reg::RA.index()] = next;
                return Ok(StepOutcome::Goto(next.wrapping_add(imm as u32)));
            }
            Op::Jr => return Ok(StepOutcome::Goto(rs1)),
            Op::Jalr => {
                self.write(rd, next);
                return Ok(StepOutcome::Goto(rs1));
            }
            Op::Sys => {
                return match handler.sys(imm as u32, &mut self.regs, mem) {
                    Ok(SysOutcome::Continue) => {
                        // The handler may scribble on the zero register.
                        self.regs[0] = 0;
                        Ok(StepOutcome::Goto(next))
                    }
                    Ok(SysOutcome::Stop) => {
                        self.regs[0] = 0;
                        Ok(StepOutcome::End(HaltReason::SysStop))
                    }
                    Err(SimError::UnknownSyscall { code, .. }) => {
                        Err(SimError::UnknownSyscall { code, pc: self.pc })
                    }
                    Err(e) => Err(e),
                };
            }
            Op::Halt => return Ok(StepOutcome::End(HaltReason::Halted)),
        }
        Ok(StepOutcome::Goto(next))
    }
}

/// What one [`RefCpu::step`] decided about control flow.
enum StepOutcome {
    /// Continue at this PC.
    Goto(u32),
    /// The run ends; the PC advances past the ending instruction.
    End(HaltReason),
}

impl Interpreter for RefCpu {
    fn reset(&mut self) {
        self.regs = [0; 32];
        self.regs[reg::SP.index()] = self.map.stack_top;
        self.regs[reg::RA.index()] = RETURN_SENTINEL;
        self.regs[reg::GP.index()] = self.map.data_base;
        self.pc = self.text_base;
    }

    fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        self.write(r, value);
    }

    fn state(&self) -> CpuState {
        CpuState {
            regs: self.regs,
            pc: self.pc,
        }
    }

    fn run_into(
        &mut self,
        mem: &mut Memory,
        config: &RunConfig,
        handler: &mut dyn SysHandler,
        stats: &mut RunStats,
    ) -> Result<(), SimError> {
        stats.reset_for(self.words.len());
        loop {
            // The documented control-flow checks, one by one.
            if self.pc == RETURN_SENTINEL {
                stats.halt = HaltReason::Returned;
                return Ok(());
            }
            if !self.pc.is_multiple_of(4) {
                return Err(SimError::MisalignedPc { pc: self.pc });
            }
            if self.pc < self.text_base {
                return Err(SimError::PcOutOfRange { pc: self.pc });
            }
            let index = ((self.pc - self.text_base) / 4) as usize;
            if index >= self.words.len() {
                return Err(SimError::PcOutOfRange { pc: self.pc });
            }
            if stats.instret >= config.max_instructions {
                return Err(SimError::InstructionBudgetExceeded {
                    limit: config.max_instructions,
                });
            }

            // Fetch-decode every step: no predecoded dispatch to drift.
            let inst = decode(self.words[index])?;
            stats.instret += 1;
            stats.executed.insert(index);
            if config.record_pc_trace {
                stats.pc_trace.push(self.pc);
            }

            let next = self.pc.wrapping_add(4);
            match self.step(&inst, next, mem, config, handler, stats)? {
                StepOutcome::Goto(pc) => self.pc = pc,
                StepOutcome::End(reason) => {
                    stats.halt = reason;
                    self.pc = next;
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npsim::RunConfig;

    fn map() -> MemoryMap {
        MemoryMap::default()
    }

    fn run(insts: Vec<Inst>, setup: impl FnOnce(&mut RefCpu, &mut Memory)) -> (RefCpu, RunStats) {
        let program = Program::new(insts, map().text_base);
        let mut cpu = RefCpu::new(&program, map()).unwrap();
        let mut mem = Memory::new();
        setup(&mut cpu, &mut mem);
        let mut stats = RunStats::for_program(program.len());
        cpu.run_into(
            &mut mem,
            &RunConfig::default(),
            &mut npsim::cpu::NoSys,
            &mut stats,
        )
        .expect("program runs");
        (cpu, stats)
    }

    #[test]
    fn arithmetic_and_return() {
        let (cpu, stats) = run(
            vec![
                Inst::with_imm(Op::Addi, reg::T0, reg::ZERO, 21),
                Inst::rtype(Op::Add, reg::T1, reg::T0, reg::T0),
                Inst::jr(reg::RA),
            ],
            |_, _| {},
        );
        assert_eq!(cpu.regs[reg::T1.index()], 42);
        assert_eq!(stats.instret, 3);
        assert_eq!(stats.halt, HaltReason::Returned);
    }

    #[test]
    fn zero_register_stays_zero() {
        let (cpu, _) = run(
            vec![
                Inst::with_imm(Op::Addi, reg::ZERO, reg::ZERO, 99),
                Inst::jr(reg::RA),
            ],
            |_, _| {},
        );
        assert_eq!(cpu.regs[0], 0);
    }

    #[test]
    fn budget_check_precedes_execution() {
        let program = Program::new(vec![Inst::jump(Op::J, -4)], map().text_base);
        let mut cpu = RefCpu::new(&program, map()).unwrap();
        let mut mem = Memory::new();
        let config = RunConfig {
            max_instructions: 100,
            ..RunConfig::default()
        };
        let mut stats = RunStats::for_program(1);
        let err = cpu
            .run_into(&mut mem, &config, &mut npsim::cpu::NoSys, &mut stats)
            .unwrap_err();
        assert_eq!(err, SimError::InstructionBudgetExceeded { limit: 100 });
        assert_eq!(stats.instret, 100);
    }

    #[test]
    fn jalr_reads_source_before_writing_destination() {
        // jalr t0, t0 must jump to the OLD t0 (here: the sentinel).
        let (cpu, stats) = run(
            vec![Inst {
                op: Op::Jalr,
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::ZERO,
                imm: 0,
            }],
            |cpu, _| cpu.regs[reg::T0.index()] = RETURN_SENTINEL,
        );
        assert_eq!(stats.halt, HaltReason::Returned);
        // and t0 now holds the link address.
        assert_eq!(cpu.regs[reg::T0.index()], map().text_base + 4);
    }
}
