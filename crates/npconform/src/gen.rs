//! Seeded random NP32 programs and boundary-case packet payloads.
//!
//! Every generated program is **assemblable and encodable by construction**:
//!
//! * all immediates respect the encoding's field widths (16-bit signed,
//!   16-bit unsigned, 5-bit shift amounts, 16-bit `lui`/`sys` fields);
//! * every branch and jump target is an in-program instruction index, so
//!   [`npasm::disassemble`] renders each target as a label and the output
//!   reassembles — a property the shrinker preserves so minimized repros
//!   always round-trip through the assembler;
//! * every opcode appears at least once per program (the body is a shuffle
//!   of the complete opcode list plus random extras), so a single program
//!   statically covers the whole ISA and a corpus covers it dynamically.
//!
//! The prologue materializes the memory map's region boundaries into
//! registers and probes them, so region-classification differences between
//! interpreters — exactly the kind of bug an off-by-one in a bounds
//! constant causes — surface in every single program rather than only when
//! the random walk happens to graze a boundary.

use nprng::Rng;
use npsim::isa::{reg, Inst, Op, Reg};
use npsim::mem::MemoryMap;

/// How many instructions the fixed prologue emits.
///
/// Exposed so tests can assert the boundary probes survive shrinking.
pub const PROLOGUE_LEN: usize = 14;

/// Registers the prologue points at memory-region boundaries.
///
/// `t9` holds `packet_end` (the first address *past* the packet buffer),
/// `t8` the last word inside it, `s8` the data base, `s9` a data-region
/// interior address, and `fp` the first address past the data region.
const PTR_REGS: [Reg; 7] = [
    reg::A0, // packet_base (seeded by the harness, framework-style)
    reg::T9, // packet_end
    reg::T8, // packet_end - 4
    reg::S8, // data_base
    reg::S9, // data_base + 0x100
    reg::FP, // data_end
    reg::SP, // stack_top
];

/// Splits an address into `lui`/`ori` halves.
fn lui_ori(rd: Reg, addr: u32) -> [Inst; 2] {
    [
        Inst::lui(rd, (addr >> 16) as i32),
        Inst::with_imm(Op::Ori, rd, rd, (addr & 0xffff) as i32),
    ]
}

/// The fixed prologue: materialize region boundaries and probe each one.
///
/// The probes are the teeth of the harness: a one-byte error in any bound
/// the interpreter uses for classification changes these access counts in
/// every generated program.
fn prologue(map: &MemoryMap) -> Vec<Inst> {
    let mut insts = Vec::with_capacity(PROLOGUE_LEN);
    insts.extend(lui_ori(reg::T9, map.packet_end));
    insts.extend(lui_ori(reg::T8, map.packet_end - 4));
    insts.extend(lui_ori(reg::S8, map.data_base));
    insts.extend(lui_ori(reg::S9, map.data_base + 0x100));
    insts.extend(lui_ori(reg::FP, map.data_end));
    // Probe the packet/non-packet frontier from both sides, plus the data
    // region edges. `at` is scratch.
    insts.push(Inst::with_imm(Op::Lbu, reg::AT, reg::T9, 0)); // first byte past packet
    insts.push(Inst::with_imm(Op::Lw, reg::AT, reg::T8, 0)); // last word inside packet
    insts.push(Inst::store(Op::Sb, reg::T8, reg::S8, 0)); // first data byte
    insts.push(Inst::with_imm(Op::Lbu, reg::AT, reg::FP, 0)); // first byte past data
    debug_assert_eq!(insts.len(), PROLOGUE_LEN);
    insts
}

/// Draws one arbitrary, encodable instruction of the given opcode for
/// position `index` of a `len`-instruction program.
///
/// Shared with npsim's encode/decode property test, which calls it for
/// every opcode in turn: whatever this returns must round-trip through
/// `encode`/`decode` and through `disassemble`/`assemble`.
pub fn arb_inst<R: Rng>(rng: &mut R, op: Op, index: usize, len: usize) -> Inst {
    let any_reg = |rng: &mut R| Reg::new(rng.gen_range(0u8..32));
    let ptr_reg = |rng: &mut R| PTR_REGS[rng.gen_range(0usize..PTR_REGS.len())];
    // Byte offset to a uniformly random in-program target.
    let target_offset = |rng: &mut R| {
        let target = rng.gen_range(0usize..len) as i32;
        (target - (index as i32 + 1)) * 4
    };
    match op {
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
            let rd = any_reg(rng);
            let rs1 = any_reg(rng);
            let rs2 = any_reg(rng);
            Inst::rtype(op, rd, rs1, rs2)
        }
        Op::Addi | Op::Slti | Op::Sltiu => {
            let rd = any_reg(rng);
            let rs1 = any_reg(rng);
            Inst::with_imm(op, rd, rs1, rng.gen_range(-32768i32..32768))
        }
        Op::Andi | Op::Ori | Op::Xori => {
            let rd = any_reg(rng);
            let rs1 = any_reg(rng);
            Inst::with_imm(op, rd, rs1, rng.gen_range(0i32..0x1_0000))
        }
        Op::Slli | Op::Srli | Op::Srai => {
            let rd = any_reg(rng);
            let rs1 = any_reg(rng);
            Inst::with_imm(op, rd, rs1, rng.gen_range(0i32..32))
        }
        Op::Lui => Inst::lui(any_reg(rng), rng.gen_range(0i32..0x1_0000)),
        Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw => {
            // Small offsets off a boundary register keep the access near a
            // region frontier, where classification bugs live.
            let rd = any_reg(rng);
            let base = ptr_reg(rng);
            Inst::with_imm(op, rd, base, rng.gen_range(-16i32..17))
        }
        Op::Sb | Op::Sh | Op::Sw => {
            let src = any_reg(rng);
            let base = ptr_reg(rng);
            Inst::store(op, src, base, rng.gen_range(-16i32..17))
        }
        Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
            let rs1 = any_reg(rng);
            let rs2 = any_reg(rng);
            Inst::branch(op, rs1, rs2, target_offset(rng))
        }
        Op::J | Op::Jal => Inst::jump(op, target_offset(rng)),
        Op::Jr => {
            // Mostly `jr ra` (call/return shapes, and the framework-return
            // path); occasionally a data register, which usually escapes
            // the text and must fault identically in every interpreter.
            if rng.gen_range(0u32..10) < 8 {
                Inst::jr(reg::RA)
            } else {
                Inst::jr(any_reg(rng))
            }
        }
        Op::Jalr => {
            let rd = any_reg(rng);
            let rs1 = if rng.gen_range(0u32..10) < 8 {
                reg::RA
            } else {
                any_reg(rng)
            };
            Inst {
                op: Op::Jalr,
                rd,
                rs1,
                rs2: reg::ZERO,
                imm: 0,
            }
        }
        Op::Sys => Inst::sys(rng.gen_range(0u32..8)),
        Op::Halt => Inst::halt(),
    }
}

/// Generates one random NP32 program against `map`.
///
/// Layout: the boundary-probing `prologue`, then a shuffled body
/// containing **every** opcode once plus `0..=24` random extras, then a
/// final `jr ra` so straight-line fall-through returns to the framework.
pub fn gen_program<R: Rng>(rng: &mut R, map: &MemoryMap) -> Vec<Inst> {
    let mut ops: Vec<Op> = Op::ALL
        .iter()
        .chain([Op::Sys, Op::Halt].iter())
        .copied()
        .collect();
    // Fisher–Yates shuffle so each program visits the ISA in its own order.
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0usize..i + 1));
    }
    let extras = rng.gen_range(0usize..25);
    for _ in 0..extras {
        ops.push(Op::ALL[rng.gen_range(0usize..Op::ALL.len())]);
    }

    let mut insts = prologue(map);
    let len = insts.len() + ops.len() + 1;
    for op in ops {
        let index = insts.len();
        insts.push(arb_inst(rng, op, index, len));
    }
    insts.push(Inst::jr(reg::RA));
    debug_assert_eq!(insts.len(), len);
    insts
}

/// Generates one boundary-case packet payload.
///
/// Mixes the sizes that exercise staging edges — the 20-byte IPv4-header
/// minimum the framework requires, one byte above it, a full 1500-byte
/// MTU frame — with random sizes in between. Bytes are uniformly random:
/// generated programs read packets as untyped data, so header realism
/// buys nothing here (real-protocol payloads are covered by the
/// application conformance checks, which replay synthetic traces).
pub fn gen_packet<R: Rng>(rng: &mut R) -> Vec<u8> {
    let len = match rng.gen_range(0u32..8) {
        0 => 20,
        1 => 21,
        2 => 1500,
        _ => rng.gen_range(20usize..256),
    };
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nprng::{SeedableRng, StdRng};
    use npsim::encode::{decode, encode};

    #[test]
    fn generated_programs_are_encodable_and_round_trip() {
        let map = MemoryMap::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            for inst in gen_program(&mut rng, &map) {
                let word = encode(&inst).expect("generated instruction encodes");
                assert_eq!(decode(word).unwrap(), inst);
            }
        }
    }

    #[test]
    fn every_opcode_appears_in_every_program() {
        let map = MemoryMap::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let program = gen_program(&mut rng, &map);
            for op in Op::ALL.iter().chain([Op::Sys, Op::Halt].iter()) {
                assert!(
                    program.iter().any(|i| i.op == *op),
                    "opcode {op:?} missing from generated program"
                );
            }
        }
    }

    #[test]
    fn branch_and_jump_targets_stay_in_program() {
        let map = MemoryMap::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let program = gen_program(&mut rng, &map);
            let len = program.len() as i32;
            for (i, inst) in program.iter().enumerate() {
                if matches!(
                    inst.op,
                    Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu | Op::J | Op::Jal
                ) {
                    let target = i as i32 + 1 + inst.imm / 4;
                    assert!(
                        (0..len).contains(&target),
                        "target {target} outside program of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn packet_sizes_hit_the_boundary_cases() {
        let mut rng = StdRng::seed_from_u64(4);
        let lens: Vec<usize> = (0..100).map(|_| gen_packet(&mut rng).len()).collect();
        assert!(lens.contains(&20), "minimum-size packet not generated");
        assert!(lens.contains(&1500), "MTU-size packet not generated");
        assert!(lens.iter().all(|&l| l >= 20));
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let map = MemoryMap::default();
        let a = gen_program(&mut StdRng::seed_from_u64(9), &map);
        let b = gen_program(&mut StdRng::seed_from_u64(9), &map);
        assert_eq!(a, b);
    }
}
