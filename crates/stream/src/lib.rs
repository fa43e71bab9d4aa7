//! # cf-stream
//!
//! Online fairness-drift monitoring and serving for the ConFair
//! reproduction — the paper's "unfairness is data drift" lens applied to a
//! live stream instead of a static test split.
//!
//! The engine is split into two composable, `Send` halves:
//!
//! * [`scorer::Scorer`] — the latency-critical path: feature encoding,
//!   predictor, and the recycled scratch matrix, allocation-free in steady
//!   state and free of any monitoring state;
//! * [`monitor::Monitor`] — the lag-tolerant path: sliding window,
//!   conformance profiles, per-group Page–Hinkley detectors, alert log,
//!   and the retrain policy.
//!
//! [`StreamEngine`] composes them synchronously (score → observe → install
//! on one thread, exactly the pre-split behaviour);
//! [`async_engine::AsyncEngine`] composes them as a pipeline — `ingest`
//! returns decisions straight off the forward pass while a background
//! thread drains a bounded queue into the monitor and publishes retrained
//! models and repair updates back through atomically-swapped slots.
//!
//! Ground truth is **optional and deferrable**: tuples may arrive
//! unlabeled, the decision-plane monitors (selection rates, DI/DP,
//! Page–Hinkley on decision-conformance) run immediately, and late labels
//! join through `feedback` — by tuple id, into the label-plane monitors
//! (TPR/FPR, equal opportunity) — even after the tuple has rotated out of
//! the window, via a bounded pending-join index.
//!
//! The moving parts inside the monitor half:
//!
//! * [`window::SlidingWindow`] — the two-plane window: a decision ring
//!   over the most recent scored tuples, a label ring over joined
//!   `(decision, label)` pairs, and the pending-join index, all with
//!   per-group counters maintained in O(1) per event;
//! * [`monitor::FairnessSnapshot`] — disparate impact with the EEOC
//!   four-fifths rule, demographic-parity and equal-opportunity gaps, and
//!   per-group conformance-violation rates, all read from the counters in
//!   O(1) (label-dependent readings stay `None` until ground truth joins);
//! * [`drift::PageHinkley`] — a per-group change-point test on the
//!   violation series, emitting typed [`drift::DriftAlert`] events with
//!   warm-up and cooldown hysteresis;
//! * a retraining hook ([`engine::RetrainPolicy::OnAlert`]) that re-runs
//!   ConFair on the window's contents and re-profiles the stream's new
//!   normal;
//! * [`sharded::Sharded`] — one router over N independent per-shard
//!   engines (generic over [`sharded::Shard`]) with whole-batch
//!   validation and exact cross-shard aggregate snapshots, the path from
//!   one stream to partitioned production traffic; its two serving impls
//!   are [`ShardedEngine`] (parallel sync ingest) and
//!   [`ShardedAsyncEngine`] (one background monitor per shard);
//! * [`checkpoint::EngineCheckpoint`] — versioned, durable
//!   checkpoint/restore for both engines: a restored monitor resumes
//!   bit-identically, with no warm-up gap and no re-alert storm.
//!
//! See `examples/stream_monitor.rs` and `examples/checkpoint_restore.rs`
//! for the end-to-end scenarios and `crates/bench/benches/stream_ingest.rs`
//! for the throughput benchmark.

#![warn(missing_docs)]

pub mod async_engine;
pub mod checkpoint;
pub mod drift;
pub mod engine;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod groups;
pub mod monitor;
pub mod repair;
pub mod scorer;
pub mod sharded;
pub mod supervise;
pub mod telemetry;
pub mod window;

pub use async_engine::{AsyncConfig, AsyncEngine, BackpressurePolicy, DropCounters};
pub use cf_telemetry::WindowCounters;
pub use checkpoint::{EngineCheckpoint, ShardedCheckpoint, CHECKPOINT_VERSION};
pub use drift::{DriftAlert, DriftKind, PageHinkley, PageHinkleyConfig, PageHinkleyState};
pub use engine::{
    IngestOutcome, LabelFeedback, RetrainPolicy, StreamConfig, StreamEngine, StreamTuple,
};
#[cfg(feature = "fault-injection")]
pub use faults::{FaultKind, FaultPlan, MonitorPanics, RetrainFaults};
pub use groups::GroupLayout;
pub use monitor::{FairnessSnapshot, FeedbackOutcome, Monitor, ObserveOutcome};
pub use repair::{RepairLadder, RepairOverlay, RepairTier};
pub use scorer::Scorer;
pub use sharded::{
    Shard, Sharded, ShardedAsyncEngine, ShardedEngine, ShardedFeedback, ShardedOutcome,
    ShardedTuple,
};
pub use supervise::{Backoff, RepairConfig, ShardHealth, SupervisorConfig};
pub use telemetry::StreamMetrics;
pub use window::{
    JoinStats, LabelJoin, LabelSlot, PendingIndex, PendingLabel, SlidingWindow, SlotMeta,
    WindowState,
};

/// Errors surfaced by the streaming subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A window must retain at least one tuple.
    EmptyWindow,
    /// Group cell ids live in `0..K` ([`StreamConfig::groups`]; the
    /// binary default is 0 = majority, 1 = minority).
    BadGroup(u8),
    /// Labels are binary.
    BadLabel(u8),
    /// A tuple carries a NaN or infinite feature. Conformance distances
    /// and the retrain path are only defined on finite inputs.
    NonFinite {
        /// The tuple's index in its batch.
        tuple: usize,
        /// The offending feature's column.
        feature: usize,
    },
    /// The batch does not match the reference schema, or dataset assembly
    /// failed.
    Schema(String),
    /// Bootstrapping needs a non-empty reference dataset.
    EmptyReference,
    /// The window cannot support the requested operation (e.g. retraining
    /// on a single-class window).
    DegenerateWindow(String),
    /// An error from the core training/prediction stack.
    Core(String),
    /// A sharded engine needs at least one shard.
    NoShards,
    /// Shard engines disagree on configuration that shapes cross-shard
    /// aggregates (e.g. the DI* floor).
    ConfigMismatch(String),
    /// A tuple was routed to a shard id outside the engine's range.
    BadShard {
        /// The offending shard id.
        shard: u32,
        /// How many shards the engine has.
        shards: usize,
    },
    /// A checkpoint is malformed, internally inconsistent, or unusable
    /// (e.g. truncated JSON, a window snapshot wider than its schema, or a
    /// model fitted on another width than its feature encoding).
    Checkpoint(String),
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersion {
        /// The version recorded in the checkpoint document.
        found: u32,
        /// The version this build reads and writes
        /// ([`checkpoint::CHECKPOINT_VERSION`]).
        expected: u32,
    },
    /// The async pipeline is unusable (the background monitor thread is
    /// gone or panicked).
    Async(String),
    /// Label feedback referenced a tuple id that has not been served yet —
    /// a caller bug, unlike feedback for forgotten tuples, which is merely
    /// counted.
    FutureFeedback {
        /// The offending tuple id.
        id: u64,
        /// Ids issued so far (valid feedback keys are `0..issued`).
        issued: u64,
    },
    /// A retrain attempt panicked; the panic was contained by the repair
    /// loop and converted into this error so the stale model keeps
    /// serving.
    RetrainPanicked(String),
    /// A deterministic fault-injection seam fired (only ever produced
    /// under the `fault-injection` feature, by an installed
    /// `FaultPlan`).
    Injected(String),
}

impl StreamError {
    pub(crate) fn from_core(e: impl std::fmt::Display) -> Self {
        StreamError::Core(e.to_string())
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::EmptyWindow => write!(f, "window capacity must be positive"),
            StreamError::BadGroup(g) => {
                write!(f, "group id {g} is outside the configured 0..K cell range")
            }
            StreamError::BadLabel(l) => write!(f, "label {l} is not binary"),
            StreamError::NonFinite { tuple, feature } => {
                write!(
                    f,
                    "tuple {tuple} has a non-finite value in feature {feature}"
                )
            }
            StreamError::Schema(msg) => write!(f, "schema error: {msg}"),
            StreamError::EmptyReference => write!(f, "reference dataset is empty"),
            StreamError::DegenerateWindow(msg) => write!(f, "degenerate window: {msg}"),
            StreamError::Core(msg) => write!(f, "core error: {msg}"),
            StreamError::NoShards => write!(f, "a sharded engine needs at least one shard"),
            StreamError::ConfigMismatch(msg) => write!(f, "shard config mismatch: {msg}"),
            StreamError::BadShard { shard, shards } => {
                write!(f, "shard id {shard} out of range for {shards} shards")
            }
            StreamError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            StreamError::Async(msg) => write!(f, "async engine error: {msg}"),
            StreamError::FutureFeedback { id, issued } => write!(
                f,
                "label feedback for tuple id {id}, but only ids below {issued} have been served"
            ),
            StreamError::CheckpointVersion { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            StreamError::RetrainPanicked(msg) => {
                write!(f, "a retrain attempt panicked: {msg}")
            }
            StreamError::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StreamError>;
