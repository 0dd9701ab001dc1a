//! Regenerates every table and figure of the paper's evaluation section,
//! plus the extension exhibits.
//!
//! ```text
//! report [--quick] [--threads <n>] [all|table1|table2|table3|table4|
//!         table5|table6|fig3|fig4|fig5|fig6|fig7|fig8|fig9|flowgraph|
//!         partition|delay|ppa|uarch]...
//! ```
//!
//! No exhibit (or `all`) prints every one. `--quick` shrinks the packet
//! counts (for smoke tests); the default counts are the paper's (10,000
//! packets for Tables II/III, 1,000 MRA packets for Table IV, 100,000 COS
//! packets for Tables V/VI, 500 MRA packets for the figures).
//! `--threads <n>` spreads the runs over `n` engine workers (0, the
//! default, uses every core); exhibits are identical at every count.
//! `flowgraph`, `partition`, `delay`, `ppa` and `uarch` extend the paper:
//! the weighted flow graph, pipeline partitioning, the processing-delay
//! model, the payload-processing application and microarchitectural
//! statistics. Anything else on the command line exits 2 with the usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    packetbench_bench::report_main()
}
