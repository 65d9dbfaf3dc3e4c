//! `rb_obs` — the observability spine of the RustBrain reproduction.
//!
//! Two halves, both dependency-free so every crate in the stack (down to
//! the oracle seam in `rb_miri`) can report through one layout without
//! cycles:
//!
//! - [`trace`]: structured span tracing. A [`trace::Tracer`] owns a
//!   thread-safe sink (a JSONL file or an in-memory buffer); installing
//!   it on a thread with [`trace::scope`] makes [`trace::span`] emit one
//!   JSON object per finished span — name, parent span, wall-clock and
//!   simulated-millisecond durations, free-form tags. When no tracer is
//!   installed, spans are inert no-ops, so instrumented code pays only a
//!   thread-local read on the untraced path.
//! - [`metrics`](mod@metrics): a process-wide registry of counters, gauges and
//!   fixed-bucket histograms ([`metrics::metrics`]), with Prometheus-style
//!   text exposition and a JSON dump. Call sites are free to record into
//!   a private registry instead (the serve daemon does, to keep its
//!   per-server counters hermetic).
//!
//! Both halves write their JSON through [`json`], the stack's one JSON
//! codec: a [`json::Value`] tree with a depth-bounded, RFC 8259-strict
//! [`json::parse`] (integers exact to `u64::MAX`, object members in
//! source order) and the string and number writers. The daemon's wire
//! protocol, the engine's results and stats documents and the CLI's JSON
//! reports use the same module.
//!
//! On top of the emitting half sits [`analyze`]: a streaming JSONL trace
//! reader with typed errors (never panics on truncated or corrupt
//! input), a span-tree builder that re-validates the tracer's contract,
//! and flamegraph / critical-path / trace-diff analyses — the read side
//! that `rustbrain trace` exposes on the command line.
//!
//! The cardinal rule of both halves: **observe, never perturb**. Nothing
//! in this crate feeds back into repair decisions, simulated costs, or
//! result bytes — enabling tracing or metrics must leave every result
//! stream byte-identical.

pub mod analyze;
pub mod json;
pub mod metrics;
pub mod trace;

pub use analyze::{AnalyzeError, SpanTree, TraceSpan};
pub use metrics::{metrics, metrics_arc, MetricsRegistry, REAL_US_BUCKETS, SIM_MS_BUCKETS};
pub use trace::{event, scope, span, ScopeGuard, Span, Tracer};
