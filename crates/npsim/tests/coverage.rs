//! Coverage is recorded by the `Coverage` observer alone, identically on
//! every execution path, and never by a run under the no-op observer.

use npsim::cpu::NoSys;
use npsim::isa::{reg, Inst, Op};
use npsim::util::BitSet;
use npsim::{
    BlockTable, Cpu, ExecPath, Memory, MemoryMap, NullObserver, Program, RunConfig, RunStats,
    TraceParams,
};

#[test]
fn coverage_is_recorded_by_its_observer_alone_and_alike_on_every_path() {
    // A loop of `a0` iterations, then a branch over instruction 5.
    let map = MemoryMap::default();
    let program = Program::new(
        vec![
            Inst::with_imm(Op::Addi, reg::T0, reg::A0, 0),
            Inst::with_imm(Op::Lw, reg::T1, reg::GP, 0),
            Inst::with_imm(Op::Addi, reg::T0, reg::T0, -1),
            Inst::branch(Op::Bne, reg::T0, reg::ZERO, -12),
            Inst::branch(Op::Beq, reg::T0, reg::ZERO, 4),
            Inst::with_imm(Op::Addi, reg::T2, reg::ZERO, 1),
            Inst::jr(reg::RA),
        ],
        map.text_base,
    );
    let run = |table: &BlockTable, iterations: u32, path: Option<ExecPath>| {
        let mut cpu = Cpu::new(&program, map).with_blocks(table);
        cpu.set_reg(reg::A0, iterations);
        let (mut mem, config) = (Memory::new(), RunConfig::default());
        let mut stats = RunStats::for_program(program.len());
        match path {
            Some(path) => cpu.run_into_path(&mut mem, &config, &mut NoSys, &mut stats, path),
            None => cpu.run_observed(&mut mem, &config, &mut NoSys, &mut stats, &mut NullObserver),
        }
        .unwrap();
        stats
    };
    // 20 iterations replay complete trace trips and a guard exit; 5 only
    // exit through guards.
    for iterations in [20, 5] {
        let mut table = BlockTable::build(&program);
        table.set_trace_params(TraceParams::eager());
        for path in [
            ExecPath::Auto,
            ExecPath::Counts,
            ExecPath::Full,
            ExecPath::Block,
            ExecPath::Trace,
        ] {
            // Train, form, replay: later runs go through the traces.
            for _ in 0..3 {
                let stats = run(&table, iterations, Some(path));
                let executed: Vec<usize> = stats.executed.iter().collect();
                assert_eq!(executed, [0, 1, 2, 3, 4, 6], "{path:?} x{iterations}");
            }
        }
        let t = table.trace_stats();
        assert!(t.hits > 0 && t.guard_exits > 0, "x{iterations}: {t:?}");
        let stats = run(&table, iterations, None);
        assert_eq!(stats.instret, 3 + 3 * u64::from(iterations));
        assert!(
            stats.executed.is_empty(),
            "the no-op observer records nothing"
        );
    }
}

#[test]
fn bitset_insert_range_matches_single_inserts() {
    for (start, end) in [(0, 0), (3, 4), (0, 64), (60, 130), (64, 128), (1, 199)] {
        let mut one = BitSet::new(200);
        for i in start..end {
            one.insert(i);
        }
        let mut range = BitSet::new(200);
        range.insert_range(start..end);
        assert_eq!(range, one, "{start}..{end}");
    }
}

#[test]
#[should_panic(expected = "past capacity")]
fn bitset_insert_range_past_capacity_panics() {
    BitSet::new(10).insert_range(5..11);
}
