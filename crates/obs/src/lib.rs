//! `velv_obs` — unified observability for the `velv` workspace.
//!
//! Three zero-dependency pieces, designed to cost (almost) nothing when
//! nobody is looking:
//!
//! * **Metrics** ([`metrics`]): a [`Registry`] of atomically updated
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, registered by
//!   static name plus optional `{key="value"}` labels.  Handles are
//!   `Arc`-backed and lock-free on the hot path; the registry mutex is only
//!   taken at registration and snapshot time.  A [`Snapshot`] can be encoded
//!   as Prometheus text exposition ([`Snapshot::prometheus_text`]), JSON
//!   ([`Snapshot::json`]) or flat `key value` pairs
//!   ([`Snapshot::flat_fields`], the `velvd` wire format).
//! * **Tracing** ([`trace`]): `Instant`-stamped spans and events with
//!   parent/child nesting, buffered per thread and drained to a pluggable
//!   [`TraceSink`] as JSON lines.  With no sink installed the whole tracer
//!   collapses to one relaxed atomic load per call site.
//! * **JSON** ([`json`]): the workspace's one JSON codec — a
//!   depth-bounded reader that keeps numbers as their source text, and the
//!   string escaper every JSON writer uses.
//! * **Trace checking** ([`tracecheck`]): a flat trace-record reader on top
//!   of [`json`] and the [`check_trace`] validator asserting a trace is
//!   well-formed JSONL with balanced span open/close records — used by `satbench --trace`, CI, and
//!   `velvc trace <file>`.  [`check_traces`] extends the check to several
//!   per-process files, resolving cross-process parentage through
//!   `trace=`/`remote_parent=` span fields.
//! * **Flight recorder** ([`flight`]): a fixed-size lock-light ring of the
//!   most recent trace records, armed by long-running services so a worker
//!   panic or shed storm can be dumped post mortem (`FLIGHT-<ts>.jsonl`)
//!   even when no sink is installed.
//! * **Solve profiler** ([`profile`]): a bounded decimating time-series
//!   recorder ([`SolveRecorder`]) fed by solver heartbeats, a span-folding
//!   phase-time sink ([`ProfileSink`]), and the per-solve [`SolveProfile`]
//!   JSONL artifact combining both.
//! * **Mergeable latency histogram** ([`LogHistogram`]): log-bucketed
//!   micros-to-minutes buckets whose merge is element-wise addition, for
//!   pooling percentile estimates across shards, threads or trace files.
//! * **Memory observability** ([`mem`]): a counting `#[global_allocator]`
//!   wrapper ([`CountingAlloc`]) maintaining live/peak/total heap bytes,
//!   thread-local RAII scope tags ([`MemScope`]) attributing allocation
//!   deltas to a fixed subsystem registry, the [`MemFootprint`] trait for
//!   deep measured byte counts of hot structures, and peak-RSS watermarks.
//!
//! # Metric naming scheme
//!
//! Prometheus conventions: `velv_<layer>_<what>_<unit>`, with monotone
//! counters ending in `_total` and preset/member labels where a family is
//! split (`velv_sat_conflicts_total{preset="chaff"}`).  The process-wide
//! [`global()`] registry carries the solver/translation/proof families; each
//! `velv_serve` service instance owns its own [`Registry`] so concurrent
//! services never mix counters.
//!
//! # Example
//!
//! ```
//! let registry = velv_obs::Registry::new();
//! let solves = registry.counter("demo_solves_total", "Solve calls.");
//! solves.inc();
//! let snapshot = registry.snapshot();
//! assert!(snapshot.prometheus_text().contains("demo_solves_total 1"));
//! velv_obs::validate_prometheus_text(&snapshot.prometheus_text()).unwrap();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod trace;
pub mod tracecheck;

mod encode;

pub use encode::validate_prometheus_text;
pub use hist::{log_bucket_bounds, LogHistogram};
pub use mem::{CountingAlloc, MemFootprint, MemScope, MemSnapshot};
pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue, Registry,
    Snapshot,
};
pub use profile::{
    shared_recorder, PhaseNode, ProfileSink, SharedSolveRecorder, SolveMarker, SolveProfile,
    SolveRecorder, SolveSample,
};
pub use trace::{
    current_span_id, enabled, event, flush, install_sink, span, span_child_of, span_fields,
    uninstall_sink, FieldValue, JsonlFileSink, MemorySink, SpanGuard, TraceSink,
};
pub use tracecheck::{
    check_trace, check_traces, parse_trace_line, MergedTraceSummary, TraceRecord, TraceSummary,
};
