//! # confair — Non-Invasive Fairness in Learning through the Lens of Data Drift
//!
//! Facade crate for the full Rust reproduction of Yang & Meliou, ICDE 2024.
//! It re-exports the public API of every workspace crate so applications can
//! depend on a single crate:
//!
//! ```
//! use confair::prelude::*;
//!
//! // Build the paper's Fig. 1 toy dataset, weigh it with ConFair, and train.
//! let data = confair::datasets::toy::figure1(42);
//! assert!(data.len() > 0);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure in the paper.

pub use cf_baselines as baselines;
pub use cf_conformance as conformance;
pub use cf_data as data;
pub use cf_datasets as datasets;
pub use cf_density as density;
pub use cf_learners as learners;
pub use cf_linalg as linalg;
pub use cf_metrics as metrics;
pub use cf_stream as stream;
pub use cf_telemetry as telemetry;
pub use confair_core as core;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use cf_baselines::{cap::Capuchin, kam::KamiranCalders, omn::OmniFair};
    pub use cf_conformance::{ConstraintFamily, ConstraintSet};
    pub use cf_data::{Column, Dataset, GroupSpec, SplitRatios};
    pub use cf_datasets::{
        realsim::RealWorldSpec,
        stream::{
            DelayedLabelStream, DriftStream, DriftStreamCheckpoint, DriftStreamSpec, LabelDelay,
            ShardedDriftStream,
        },
        synthgen::SynSpec,
    };
    pub use cf_density::{density_filter, Kde};
    pub use cf_learners::{Learner, LearnerKind};
    pub use cf_metrics::{FairnessReport, GroupConfusion};
    pub use cf_stream::{
        AsyncConfig, AsyncEngine, BackpressurePolicy, DriftAlert, DriftKind, DropCounters,
        EngineCheckpoint, FairnessSnapshot, FeedbackOutcome, GroupLayout, JoinStats, LabelFeedback,
        Monitor, PageHinkleyConfig, RepairConfig, RepairTier, RetrainPolicy, Scorer, ShardHealth,
        ShardedAsyncEngine, ShardedCheckpoint, ShardedEngine, ShardedFeedback, ShardedOutcome,
        ShardedTuple, StreamConfig, StreamEngine, StreamMetrics, StreamTuple, SupervisorConfig,
    };
    pub use cf_telemetry::{
        replay, replay_file, shared_sink, DegradedModeEvent, EventSink, JsonlSink, MetricsRegistry,
        MonitorRestartEvent, NullSink, ReplayedRun, RingSink, SharedSink, SnapshotData,
        TelemetryEvent,
    };
    pub use confair_core::{
        confair::{ConFair, ConFairConfig, FairnessTarget},
        difffair::{DiffFair, DiffFairConfig},
        multimodel::MultiModel,
        pipeline::{EvalOutcome, Pipeline},
        tuning::tune_alpha,
    };
}
