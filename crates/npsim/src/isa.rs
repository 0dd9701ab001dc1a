//! The NP32 instruction set: registers, opcodes, and the decoded
//! instruction form.
//!
//! NP32 is a 32-bit RISC in the ARM/MIPS tradition, sized for the simple
//! packet-processing cores of a network processor:
//!
//! * 32 general-purpose registers (`r0` is hard-wired to zero),
//! * fixed 4-byte instructions,
//! * a load/store architecture (byte / half-word / word, little-endian),
//! * PC-relative conditional branches and jumps,
//! * a `sys` instruction that traps to the PacketBench framework
//!   (send / drop / write-to-trace — the paper's API boundary).
//!
//! The decoded form, [`Inst`], is a flat struct (opcode + three register
//! fields + immediate) rather than one enum variant per instruction; the
//! interpreter dispatches on [`Op`] and ignores fields an opcode does not
//! use. [`crate::encode`] defines the 32-bit binary format.

use std::fmt;

/// A register number in `0..32`.
///
/// `r0` always reads as zero; writes to it are discarded. The remaining
/// registers are general purpose, with ABI roles assigned by the constants
/// in [`reg`].
///
/// ```
/// use npsim::{Reg, reg};
/// assert_eq!(reg::A0.index(), 4);
/// assert_eq!(format!("{}", reg::SP), "sp");
/// assert_eq!(Reg::new(4), reg::A0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn new(n: u8) -> Reg {
        assert!(n < 32, "register number {n} out of range");
        Reg(n)
    }

    /// Creates a register from its number, or `None` if out of range.
    pub fn try_new(n: u8) -> Option<Reg> {
        (n < 32).then_some(Reg(n))
    }

    /// The register number as an array index (always `< 32` by
    /// construction).
    ///
    /// The mask is a no-op for every constructible `Reg` but lets the
    /// optimizer drop the bounds check on `regs[r.index()]` — which sits
    /// on every operand of every interpreted instruction.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & 31) as usize
    }

    /// The register number.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The ABI name (`zero`, `ra`, `sp`, `gp`, `a0`–`a5`, `t0`–`t9`,
    /// `s0`–`s9`, `fp`, `at`).
    pub fn name(self) -> &'static str {
        REG_NAMES[self.0 as usize]
    }

    /// Looks a register up by either ABI name (`a0`) or raw name (`r4`).
    ///
    /// ```
    /// use npsim::{Reg, reg};
    /// assert_eq!(Reg::from_name("a0"), Some(reg::A0));
    /// assert_eq!(Reg::from_name("r4"), Some(reg::A0));
    /// assert_eq!(Reg::from_name("bogus"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Reg> {
        if let Some(i) = REG_NAMES.iter().position(|&n| n == name) {
            return Some(Reg(i as u8));
        }
        if let Some(num) = name.strip_prefix('r') {
            if let Ok(n) = num.parse::<u8>() {
                return Reg::try_new(n);
            }
        }
        None
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const REG_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "t2", "t3", "t4",
    "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "t8", "t9", "fp",
    "at",
];

/// ABI register constants.
pub mod reg {
    use super::Reg;

    /// Hard-wired zero.
    pub const ZERO: Reg = Reg(0);
    /// Return address (written by `jal`/`jalr`).
    pub const RA: Reg = Reg(1);
    /// Stack pointer.
    pub const SP: Reg = Reg(2);
    /// Global pointer — the framework points it at the program-data region.
    pub const GP: Reg = Reg(3);
    /// Argument / result register 0. Receives the packet pointer.
    pub const A0: Reg = Reg(4);
    /// Argument / result register 1. Receives the packet length.
    pub const A1: Reg = Reg(5);
    /// Argument / result register 2.
    pub const A2: Reg = Reg(6);
    /// Argument / result register 3.
    pub const A3: Reg = Reg(7);
    /// Argument / result register 4.
    pub const A4: Reg = Reg(8);
    /// Argument / result register 5.
    pub const A5: Reg = Reg(9);
    /// Caller-saved temporary 0.
    pub const T0: Reg = Reg(10);
    /// Caller-saved temporary 1.
    pub const T1: Reg = Reg(11);
    /// Caller-saved temporary 2.
    pub const T2: Reg = Reg(12);
    /// Caller-saved temporary 3.
    pub const T3: Reg = Reg(13);
    /// Caller-saved temporary 4.
    pub const T4: Reg = Reg(14);
    /// Caller-saved temporary 5.
    pub const T5: Reg = Reg(15);
    /// Caller-saved temporary 6.
    pub const T6: Reg = Reg(16);
    /// Caller-saved temporary 7.
    pub const T7: Reg = Reg(17);
    /// Callee-saved register 0.
    pub const S0: Reg = Reg(18);
    /// Callee-saved register 1.
    pub const S1: Reg = Reg(19);
    /// Callee-saved register 2.
    pub const S2: Reg = Reg(20);
    /// Callee-saved register 3.
    pub const S3: Reg = Reg(21);
    /// Callee-saved register 4.
    pub const S4: Reg = Reg(22);
    /// Callee-saved register 5.
    pub const S5: Reg = Reg(23);
    /// Callee-saved register 6.
    pub const S6: Reg = Reg(24);
    /// Callee-saved register 7.
    pub const S7: Reg = Reg(25);
    /// Callee-saved register 8.
    pub const S8: Reg = Reg(26);
    /// Callee-saved register 9.
    pub const S9: Reg = Reg(27);
    /// Caller-saved temporary 8.
    pub const T8: Reg = Reg(28);
    /// Caller-saved temporary 9.
    pub const T9: Reg = Reg(29);
    /// Frame pointer.
    pub const FP: Reg = Reg(30);
    /// Assembler temporary (reserved for pseudo-instruction expansion).
    pub const AT: Reg = Reg(31);
}

/// NP32 opcodes.
///
/// The discriminant is the 6-bit opcode field of the binary encoding (see
/// [`crate::encode`]), so the enum doubles as the encoding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Op {
    // --- R-type: rd = rs1 op rs2 -------------------------------------
    /// `rd = rs1 + rs2` (wrapping).
    Add = 0,
    /// `rd = rs1 - rs2` (wrapping).
    Sub = 1,
    /// `rd = rs1 & rs2`.
    And = 2,
    /// `rd = rs1 | rs2`.
    Or = 3,
    /// `rd = rs1 ^ rs2`.
    Xor = 4,
    /// `rd = !(rs1 | rs2)`.
    Nor = 5,
    /// `rd = rs1 << (rs2 & 31)`.
    Sll = 6,
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Srl = 7,
    /// `rd = rs1 >> (rs2 & 31)` (arithmetic).
    Sra = 8,
    /// `rd = (rs1 as i32) < (rs2 as i32)`.
    Slt = 9,
    /// `rd = rs1 < rs2` (unsigned).
    Sltu = 10,
    /// `rd = low 32 bits of rs1 * rs2`.
    Mul = 11,
    /// `rd = high 32 bits of rs1 * rs2` (unsigned).
    Mulhu = 12,
    /// `rd = rs1 / rs2` (unsigned; `rs2 == 0` yields all-ones).
    Divu = 13,
    /// `rd = rs1 % rs2` (unsigned; `rs2 == 0` yields `rs1`).
    Remu = 14,

    // --- I-type: rd = rs1 op imm -------------------------------------
    /// `rd = rs1 + imm` (imm sign-extended).
    Addi = 16,
    /// `rd = rs1 & imm` (imm zero-extended).
    Andi = 17,
    /// `rd = rs1 | imm` (imm zero-extended).
    Ori = 18,
    /// `rd = rs1 ^ imm` (imm zero-extended).
    Xori = 19,
    /// `rd = rs1 << imm` (imm in `0..32`).
    Slli = 20,
    /// `rd = rs1 >> imm` (logical, imm in `0..32`).
    Srli = 21,
    /// `rd = rs1 >> imm` (arithmetic, imm in `0..32`).
    Srai = 22,
    /// `rd = (rs1 as i32) < imm` (imm sign-extended).
    Slti = 23,
    /// `rd = rs1 < imm as u32` (imm sign-extended, compared unsigned).
    Sltiu = 24,
    /// `rd = imm << 16`.
    Lui = 25,

    // --- Loads: rd = mem[rs1 + imm] ----------------------------------
    /// Load signed byte.
    Lb = 32,
    /// Load unsigned byte.
    Lbu = 33,
    /// Load signed half-word.
    Lh = 34,
    /// Load unsigned half-word.
    Lhu = 35,
    /// Load word.
    Lw = 36,

    // --- Stores: mem[rs1 + imm] = rs2 --------------------------------
    /// Store byte.
    Sb = 40,
    /// Store half-word.
    Sh = 41,
    /// Store word.
    Sw = 42,

    // --- Branches: if rs1 cmp rs2, pc += imm -------------------------
    /// Branch if equal.
    Beq = 48,
    /// Branch if not equal.
    Bne = 49,
    /// Branch if less-than (signed).
    Blt = 50,
    /// Branch if greater-or-equal (signed).
    Bge = 51,
    /// Branch if less-than (unsigned).
    Bltu = 52,
    /// Branch if greater-or-equal (unsigned).
    Bgeu = 53,

    // --- Jumps --------------------------------------------------------
    /// Unconditional PC-relative jump.
    J = 56,
    /// Jump and link: `ra = pc + 4; pc += imm`.
    Jal = 57,
    /// Jump register: `pc = rs1`.
    Jr = 58,
    /// Jump and link register: `rd = pc + 4; pc = rs1`.
    Jalr = 59,

    // --- System ---------------------------------------------------------
    /// Trap to the framework with call number `imm` (see
    /// [`crate::cpu::SysHandler`]).
    Sys = 62,
    /// Stop the simulation.
    Halt = 63,
}

impl Op {
    /// All opcodes, in encoding order.
    pub const ALL: [Op; 43] = [
        Op::Add,
        Op::Sub,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Nor,
        Op::Sll,
        Op::Srl,
        Op::Sra,
        Op::Slt,
        Op::Sltu,
        Op::Mul,
        Op::Mulhu,
        Op::Divu,
        Op::Remu,
        Op::Addi,
        Op::Andi,
        Op::Ori,
        Op::Xori,
        Op::Slli,
        Op::Srli,
        Op::Srai,
        Op::Slti,
        Op::Sltiu,
        Op::Lui,
        Op::Lb,
        Op::Lbu,
        Op::Lh,
        Op::Lhu,
        Op::Lw,
        Op::Sb,
        Op::Sh,
        Op::Sw,
        Op::Beq,
        Op::Bne,
        Op::Blt,
        Op::Bge,
        Op::Bltu,
        Op::Bgeu,
        Op::J,
        Op::Jal,
        Op::Jr,
        Op::Jalr,
    ];

    /// Reconstructs an opcode from its 6-bit encoding field.
    pub fn from_code(code: u8) -> Option<Op> {
        Some(match code {
            0 => Op::Add,
            1 => Op::Sub,
            2 => Op::And,
            3 => Op::Or,
            4 => Op::Xor,
            5 => Op::Nor,
            6 => Op::Sll,
            7 => Op::Srl,
            8 => Op::Sra,
            9 => Op::Slt,
            10 => Op::Sltu,
            11 => Op::Mul,
            12 => Op::Mulhu,
            13 => Op::Divu,
            14 => Op::Remu,
            16 => Op::Addi,
            17 => Op::Andi,
            18 => Op::Ori,
            19 => Op::Xori,
            20 => Op::Slli,
            21 => Op::Srli,
            22 => Op::Srai,
            23 => Op::Slti,
            24 => Op::Sltiu,
            25 => Op::Lui,
            32 => Op::Lb,
            33 => Op::Lbu,
            34 => Op::Lh,
            35 => Op::Lhu,
            36 => Op::Lw,
            40 => Op::Sb,
            41 => Op::Sh,
            42 => Op::Sw,
            48 => Op::Beq,
            49 => Op::Bne,
            50 => Op::Blt,
            51 => Op::Bge,
            52 => Op::Bltu,
            53 => Op::Bgeu,
            56 => Op::J,
            57 => Op::Jal,
            58 => Op::Jr,
            59 => Op::Jalr,
            62 => Op::Sys,
            63 => Op::Halt,
            _ => return None,
        })
    }

    /// The 6-bit opcode field value.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Nor => "nor",
            Op::Sll => "sll",
            Op::Srl => "srl",
            Op::Sra => "sra",
            Op::Slt => "slt",
            Op::Sltu => "sltu",
            Op::Mul => "mul",
            Op::Mulhu => "mulhu",
            Op::Divu => "divu",
            Op::Remu => "remu",
            Op::Addi => "addi",
            Op::Andi => "andi",
            Op::Ori => "ori",
            Op::Xori => "xori",
            Op::Slli => "slli",
            Op::Srli => "srli",
            Op::Srai => "srai",
            Op::Slti => "slti",
            Op::Sltiu => "sltiu",
            Op::Lui => "lui",
            Op::Lb => "lb",
            Op::Lbu => "lbu",
            Op::Lh => "lh",
            Op::Lhu => "lhu",
            Op::Lw => "lw",
            Op::Sb => "sb",
            Op::Sh => "sh",
            Op::Sw => "sw",
            Op::Beq => "beq",
            Op::Bne => "bne",
            Op::Blt => "blt",
            Op::Bge => "bge",
            Op::Bltu => "bltu",
            Op::Bgeu => "bgeu",
            Op::J => "j",
            Op::Jal => "jal",
            Op::Jr => "jr",
            Op::Jalr => "jalr",
            Op::Sys => "sys",
            Op::Halt => "halt",
        }
    }

    /// Looks an opcode up by mnemonic.
    pub fn from_mnemonic(m: &str) -> Option<Op> {
        Op::ALL
            .iter()
            .chain([Op::Sys, Op::Halt].iter())
            .copied()
            .find(|op| op.mnemonic() == m)
    }

    /// The coarse class of the opcode.
    pub fn class(self) -> OpClass {
        use Op::*;
        match self {
            Add | Sub | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu | Addi | Andi | Ori
            | Xori | Slli | Srli | Srai | Slti | Sltiu | Lui => OpClass::Alu,
            Mul | Mulhu | Divu | Remu => OpClass::MulDiv,
            Lb | Lbu | Lh | Lhu | Lw => OpClass::Load,
            Sb | Sh | Sw => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => OpClass::Branch,
            J | Jal | Jr | Jalr => OpClass::Jump,
            Sys | Halt => OpClass::System,
        }
    }

    /// Whether the opcode is a conditional branch.
    pub fn is_branch(self) -> bool {
        self.class() == OpClass::Branch
    }

    /// Whether the opcode unconditionally transfers control.
    pub fn is_jump(self) -> bool {
        self.class() == OpClass::Jump
    }

    /// Whether the opcode ends a basic block (any control transfer,
    /// including `sys`/`halt`).
    pub fn ends_block(self) -> bool {
        matches!(
            self.class(),
            OpClass::Branch | OpClass::Jump | OpClass::System
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Coarse opcode classes: what the branch/jump predicates, the
/// micro-architectural timing model and the block decoder dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Integer ALU operations (including immediate forms and `lui`).
    Alu,
    /// Multiply / divide.
    MulDiv,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional jumps, calls and returns.
    Jump,
    /// `sys` and `halt`.
    System,
}

/// A decoded NP32 instruction.
///
/// All instructions share one flat layout; which fields are meaningful
/// depends on [`Op`]:
///
/// | format | fields | examples |
/// |---|---|---|
/// | R | `rd, rs1, rs2` | `add`, `slt`, `jr` (rs1), `jalr` (rd, rs1) |
/// | I | `rd, rs1, imm` | `addi`, `lui` (rd, imm), loads |
/// | S/B | `rs1, rs2, imm` | stores (base `rs1`, source `rs2`), branches |
/// | J | `imm` | `j`, `jal` |
///
/// Branch and jump immediates are **byte** offsets relative to the address
/// of the *next* instruction (`pc + 4`), always a multiple of 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// Destination register (R/I formats).
    pub rd: Reg,
    /// First source register / base address register.
    pub rs1: Reg,
    /// Second source register / store source register.
    pub rs2: Reg,
    /// Immediate operand, pre-extended to 32 bits.
    pub imm: i32,
}

impl Inst {
    /// Builds an R-type instruction `op rd, rs1, rs2`.
    pub fn rtype(op: Op, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// Builds an instruction with an immediate: `op rd, rs1, imm`
    /// (I-type, loads) — also used with `rd = ZERO` internally.
    pub fn with_imm(op: Op, rd: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst {
            op,
            rd,
            rs1,
            rs2: reg::ZERO,
            imm,
        }
    }

    /// Builds a store `op rs2, imm(rs1)`.
    pub fn store(op: Op, rs2: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst {
            op,
            rd: reg::ZERO,
            rs1,
            rs2,
            imm,
        }
    }

    /// Builds a branch `op rs1, rs2, offset` (byte offset from `pc + 4`).
    pub fn branch(op: Op, rs1: Reg, rs2: Reg, offset: i32) -> Inst {
        Inst {
            op,
            rd: reg::ZERO,
            rs1,
            rs2,
            imm: offset,
        }
    }

    /// Builds `j offset` or `jal offset` (byte offset from `pc + 4`).
    pub fn jump(op: Op, offset: i32) -> Inst {
        Inst {
            op,
            rd: reg::ZERO,
            rs1: reg::ZERO,
            rs2: reg::ZERO,
            imm: offset,
        }
    }

    /// Builds `jr rs1`.
    pub fn jr(rs1: Reg) -> Inst {
        Inst {
            op: Op::Jr,
            rd: reg::ZERO,
            rs1,
            rs2: reg::ZERO,
            imm: 0,
        }
    }

    /// Builds `lui rd, imm` (upper 16 bits).
    pub fn lui(rd: Reg, imm: i32) -> Inst {
        Inst::with_imm(Op::Lui, rd, reg::ZERO, imm)
    }

    /// Builds the canonical no-op (`add zero, zero, zero`).
    pub fn nop() -> Inst {
        Inst::rtype(Op::Add, reg::ZERO, reg::ZERO, reg::ZERO)
    }

    /// Builds `sys code`.
    pub fn sys(code: u32) -> Inst {
        Inst::with_imm(Op::Sys, reg::ZERO, reg::ZERO, code as i32)
    }

    /// Builds `halt`.
    pub fn halt() -> Inst {
        Inst::with_imm(Op::Halt, reg::ZERO, reg::ZERO, 0)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        match self.op {
            Add | Sub | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sltu | Mul | Mulhu
            | Divu | Remu => {
                write!(f, "{} {}, {}, {}", self.op, self.rd, self.rs1, self.rs2)
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti | Sltiu => {
                write!(f, "{} {}, {}, {}", self.op, self.rd, self.rs1, self.imm)
            }
            Lui => write!(f, "lui {}, {:#x}", self.rd, self.imm),
            Lb | Lbu | Lh | Lhu | Lw => {
                write!(f, "{} {}, {}({})", self.op, self.rd, self.imm, self.rs1)
            }
            Sb | Sh | Sw => write!(f, "{} {}, {}({})", self.op, self.rs2, self.imm, self.rs1),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                write!(f, "{} {}, {}, {:+}", self.op, self.rs1, self.rs2, self.imm)
            }
            J | Jal => write!(f, "{} {:+}", self.op, self.imm),
            Jr => write!(f, "jr {}", self.rs1),
            Jalr => write!(f, "jalr {}, {}", self.rd, self.rs1),
            Sys => write!(f, "sys {}", self.imm),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names_round_trip() {
        for n in 0..32u8 {
            let r = Reg::new(n);
            assert_eq!(Reg::from_name(r.name()), Some(r), "name {}", r.name());
            assert_eq!(Reg::from_name(&format!("r{n}")), Some(r));
        }
    }

    #[test]
    fn register_out_of_range() {
        assert_eq!(Reg::try_new(32), None);
        assert_eq!(Reg::from_name("r32"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_new_panics() {
        let _ = Reg::new(40);
    }

    #[test]
    fn opcode_codes_round_trip() {
        for op in Op::ALL.iter().chain([Op::Sys, Op::Halt].iter()) {
            assert_eq!(Op::from_code(op.code()), Some(*op));
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(*op));
        }
    }

    #[test]
    fn opcode_unknown_codes_rejected() {
        for code in [15u8, 26, 27, 37, 43, 54, 60, 61] {
            assert_eq!(Op::from_code(code), None, "code {code}");
        }
        assert_eq!(Op::from_code(64), None);
    }

    #[test]
    fn op_classes() {
        assert_eq!(Op::Add.class(), OpClass::Alu);
        assert_eq!(Op::Mul.class(), OpClass::MulDiv);
        assert_eq!(Op::Lw.class(), OpClass::Load);
        assert_eq!(Op::Sb.class(), OpClass::Store);
        assert_eq!(Op::Beq.class(), OpClass::Branch);
        assert_eq!(Op::Jal.class(), OpClass::Jump);
        assert_eq!(Op::Sys.class(), OpClass::System);
        assert!(Op::Beq.ends_block());
        assert!(Op::Jr.ends_block());
        assert!(!Op::Addi.ends_block());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Inst::rtype(Op::Add, reg::A0, reg::A1, reg::A2).to_string(),
            "add a0, a1, a2"
        );
        assert_eq!(
            Inst::with_imm(Op::Lw, reg::T0, reg::GP, 16).to_string(),
            "lw t0, 16(gp)"
        );
        assert_eq!(
            Inst::store(Op::Sw, reg::T0, reg::SP, -4).to_string(),
            "sw t0, -4(sp)"
        );
        assert_eq!(
            Inst::branch(Op::Bne, reg::A0, reg::ZERO, -8).to_string(),
            "bne a0, zero, -8"
        );
        assert_eq!(Inst::jr(reg::RA).to_string(), "jr ra");
        assert_eq!(Inst::nop().to_string(), "add zero, zero, zero");
    }
}
