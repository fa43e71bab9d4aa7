//! Telemetry plane for the streaming fairness engines: a typed audit
//! event model, pluggable subscriber sinks, a self-verifying JSONL
//! replay, and a Prometheus-text metrics registry.
//!
//! The paper's loop — detect drift-induced unfairness, explain which
//! distribution moved, repair — is only auditable in production if every
//! alert, repair, and model swap leaves a durable, explainable record.
//! This crate is that record's home, deliberately free of any dependency
//! on the engines themselves:
//!
//! * [`event`] — one [`TelemetryEvent`] per observable state change,
//!   carrying per-cell counter deltas and moved-cell explanations, plus
//!   the snapshot arithmetic ([`SnapshotData::from_counters`]) that
//!   `cf-stream` delegates to. It also owns the types both planes share:
//!   [`WindowCounters`], the per-cell tallies the engines' window keeps
//!   and the trail records, and [`DriftAlert`] / [`DriftKind`], the
//!   alerts the engines raise and the trail logs. One type serves both
//!   planes, so nothing converts between an engine form and a trail
//!   form.
//! * [`sink`] — the [`EventSink`] seam engines emit through, with
//!   [`NullSink`], [`RingSink`], and the fsync-on-alert [`JsonlSink`].
//! * [`replay`](mod@replay) — [`replay()`](replay()) reconstructs the
//!   live run's exact snapshot/alert sequence from a trail, verifying it
//!   line by line.
//! * [`metrics`] — [`MetricsRegistry`] with counters, gauges, and
//!   log-bucket histograms rendered by
//!   [`render()`](MetricsRegistry::render).

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod replay;
pub mod sink;

pub use event::{
    AlertExplanation, CheckpointEvent, CounterDelta, DegradedModeEvent, DriftAlert,
    DriftAlertEvent, DriftKind, DropEvent, FeedbackJoinEvent, IngestBatchEvent, ModelSwapEvent,
    MonitorRestartEvent, RepairEndEvent, RepairStartEvent, SnapshotData, TelemetryEvent,
    ThresholdChangeEvent, WindowCounters,
};
pub use metrics::{log2_buckets, Counter, Gauge, Histogram, MetricsRegistry};
pub use replay::{replay, replay_file, ReplayError, ReplayedRun};
#[cfg(feature = "fault-injection")]
pub use sink::WriteFaultPlan;
pub use sink::{shared_sink, EventSink, JsonlSink, NullSink, RingSink, SharedSink};
