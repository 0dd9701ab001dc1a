//! # npobs — zero-cost instrumentation for PacketBench
//!
//! The paper's contribution is *observability of packet processing*:
//! per-packet instruction counts, packet vs. non-packet memory accesses,
//! and basic-block behaviour. `npobs` makes that visible at runtime
//! instead of only in end-of-run aggregate tables:
//!
//! * [`Log2Histogram`] / [`PacketHists`] — streaming log2-bucketed
//!   distributions of per-packet instructions, region-split memory
//!   accesses, and basic blocks, O(1) per packet and O(65 buckets) of
//!   state no matter how long the trace runs;
//! * [`HeatObserver`] — an [`npsim::Observer`] that rides the interpreter
//!   loops and counts, per static basic block, how often the block is
//!   entered and how many instructions retire inside it. [`BlockHeat`]
//!   renders the result as a table or flamegraph-collapsed text keyed by
//!   the same `L<n>` labels `pb disasm` shows;
//! * [`export`] — a metrics document with JSON and Prometheus
//!   text-format serializers;
//! * [`timeline`] — an in-flight telemetry sampler: per-lane bounded
//!   rings of timestamped counter snapshots plus stage-span tracing,
//!   exported as stamped JSON/CSV time series or a Perfetto-loadable
//!   Chrome trace. A logical clock keyed on global packet order makes
//!   `--deterministic` timelines byte-identical at any thread count;
//! * [`status`] — the shared rate-limited stderr line writer that keeps
//!   progress, memoization, and `--watch` output from interleaving;
//! * [`stamp`] — schema version, git commit, and ISO-8601 timestamps so
//!   metrics and timeline artifacts are traceable across commits.
//!
//! The instrumentation is *zero-cost when off*: every hook is
//! monomorphized through the `Observer` type parameter of the `npsim`
//! interpreter loops, so the no-op observer compiles to exactly the
//! uninstrumented loops (guarded by CI's ledger compare of `pb`
//! throughput against the base commit).

pub mod export;
pub mod heat;
pub mod hist;
pub mod stamp;
pub mod status;
pub mod timeline;

pub use export::{MetricsDoc, RingDoc};
pub use heat::{BlockHeat, HeatObserver};
pub use hist::{Log2Histogram, PacketHists};
pub use stamp::Stamp;
pub use status::StatusLine;
pub use timeline::{
    Counters, LogicalSeries, Sample, Span, SpanLog, Stage, Timeline, TimelineSpec, WallSampler,
};
