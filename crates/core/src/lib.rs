//! # confair-core
//!
//! The paper's contribution: two non-invasive fairness interventions built on
//! conformance constraints.
//!
//! * [`confair::ConFair`] — **Algorithm 2**: reweigh the training tuples.
//!   Base weights balance population/label skew (the Kamiran–Calders term of
//!   line 5); tuples *conforming* to their (group, label) cell's conformance
//!   constraints additionally receive `+α` — only the dense core of each
//!   cell is amplified, never the outliers.
//! * [`difffair::DiffFair`] — **Algorithm 1**: train one model per group and,
//!   at serving time, route each tuple to the model whose training-data
//!   constraints it violates least — group membership is never consulted at
//!   deployment.
//! * [`multimodel::MultiModel`] — the naive split-by-`g` baseline DiffFair
//!   improves on.
//! * [`tuning`] — validation-set search for the intervention degree `α`
//!   (monotone in fairness, §IV-A), with optional cross-model calibration
//!   (Fig. 7).
//! * [`pipeline`] — the split → intervene → train → evaluate driver shared
//!   by every experiment.
//!
//! Everything implements the [`Intervention`] / [`Predictor`] traits so the
//! baselines (`cf-baselines`) and the bench harness plug into one runner.

pub mod confair;
pub mod difffair;
pub mod intervention;
pub mod multimodel;
pub mod pipeline;
pub mod tuning;

pub use confair::{AlphaMode, ConFair, ConFairConfig, FairnessTarget};
pub use difffair::{DiffFair, DiffFairConfig};
pub use intervention::{
    predict_rows_via_dataset, Intervention, NoIntervention, Predictor, PredictorState,
    SingleModelPredictor,
};
pub use multimodel::MultiModel;
pub use pipeline::{evaluate, evaluate_repeated, EvalOutcome, Pipeline};
pub use tuning::{tune_alpha, TuneResult};

use cf_data::{DataError, Dataset};
use cf_learners::LearnError;

/// Errors surfaced by interventions and the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Dataset-layer failure.
    Data(DataError),
    /// Learner-layer failure.
    Learn(LearnError),
    /// A partition the algorithm requires is empty (e.g. no minority
    /// positives in the training split).
    EmptyPartition(String),
    /// A numeric training attribute holds NaN or ±inf. Nulls (NaN) must
    /// be dropped before training: Algorithm 3's density sort and the
    /// constraint eigen-decomposition have no answer for them.
    NonFinite {
        /// Tuple index of the first offending value in that attribute.
        row: usize,
        /// Dataset column index of the attribute.
        feature: usize,
    },
    /// The requested serving path is not supported by this predictor
    /// (e.g. the group-blind `predict_rows` fast path on a group-routed
    /// model).
    Unsupported(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Learn(e) => write!(f, "learner error: {e}"),
            CoreError::EmptyPartition(what) => write!(f, "empty partition: {what}"),
            CoreError::NonFinite { row, feature } => {
                write!(f, "non-finite value in tuple {row}, attribute {feature}")
            }
            CoreError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<LearnError> for CoreError {
    fn from(e: LearnError) -> Self {
        CoreError::Learn(e)
    }
}

/// Reject a training set with a NaN or infinite numeric attribute value,
/// before any profiling or fitting touches it.
pub(crate) fn check_finite(train: &Dataset) -> Result<()> {
    for feature in 0..train.num_attributes() {
        let Some(values) = train.column(feature).as_numeric() else {
            continue;
        };
        if let Some(row) = values.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFinite { row, feature });
        }
    }
    Ok(())
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
