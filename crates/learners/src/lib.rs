//! # cf-learners
//!
//! Weighted binary classifiers built from scratch — the learning substrate
//! the paper evaluates its interventions on (§IV "Models").
//!
//! * [`LogisticRegression`] — the scikit-learn `LR` stand-in: weighted
//!   log-loss, full-batch gradient descent with adaptive step size, L2.
//! * [`Gbt`] — the XGBoost stand-in: second-order gradient boosting with
//!   exact greedy regression trees, shrinkage, and leaf L2.
//!
//! Both accept per-instance weights in `fit` — the contract every reweighing
//! intervention (ConFair, KAM, OMN) relies on. Weighting a tuple by `k` is
//! equivalent to duplicating it `k` times (an invariant the tests pin down).
//!
//! [`LearnerKind`] is the factory the interventions use to retrain fresh
//! models during calibration.

pub mod gbt;
pub mod logistic;
pub mod tree;

pub use gbt::{Gbt, GbtConfig};
pub use logistic::{LogisticRegression, LogisticRegressionConfig};

use cf_linalg::Matrix;

/// Classification threshold shared by every learner.
pub const DECISION_THRESHOLD: f64 = 0.5;

/// Errors surfaced by learner training and inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// Input buffers disagree in length.
    ShapeMismatch(String),
    /// Training data was empty.
    EmptyTrainingSet,
    /// `predict` called before `fit`.
    NotFitted,
    /// Weights were invalid (negative or all zero).
    InvalidWeights(String),
    /// A training feature value was NaN or infinite.
    NonFinite {
        /// Row of the first offending value.
        row: usize,
        /// Feature (column) of that value.
        feature: usize,
    },
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LearnError::EmptyTrainingSet => write!(f, "empty training set"),
            LearnError::NotFitted => write!(f, "model has not been fitted"),
            LearnError::InvalidWeights(msg) => write!(f, "invalid weights: {msg}"),
            LearnError::NonFinite { row, feature } => {
                write!(f, "non-finite value in row {row}, feature {feature}")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LearnError>;

/// A binary classifier with native per-instance weight support.
pub trait Learner: Send {
    /// Train on features `x`, labels `y ∈ {0.0, 1.0}`, and optional
    /// non-negative instance weights (defaulting to 1.0 each).
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()>;

    /// Predicted probability of the positive class for each row of `x`.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>>;

    /// Hard predictions at the 0.5 threshold.
    fn predict(&self, x: &Matrix) -> Result<Vec<u8>> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| u8::from(p >= DECISION_THRESHOLD))
            .collect())
    }

    /// Raw decision margins for each row of `x`: the pre-sigmoid score
    /// whose sign is the hard decision (`predict` is exactly
    /// `margin >= 0.0` for both built-in learners). Opt-in — the default
    /// rejects the call — because serve-time threshold repair shifts
    /// decisions by comparing margins against per-cell cutoffs, and a
    /// learner without a native margin has no boundary to shift.
    fn predict_margin(&self, _x: &Matrix) -> Result<Vec<f64>> {
        Err(LearnError::ShapeMismatch(
            "this learner does not expose raw decision margins".into(),
        ))
    }

    /// Whether `fit` has succeeded at least once.
    fn is_fitted(&self) -> bool;

    /// Snapshot the full fitted parameters for checkpointing, or `None`
    /// for learners that do not support serialisation. The built-in
    /// logistic and GBT learners both return `Some`; rebuilding via
    /// [`ModelState::build`] yields a model that scores bit-identically.
    fn state(&self) -> Option<ModelState> {
        None
    }
}

/// The serialisable parameters of a fitted built-in learner — the model
/// half of an engine checkpoint. Tagged by learner family so the right
/// concrete type is rebuilt on restore.
#[derive(Debug, Clone)]
pub enum ModelState {
    /// A fitted [`LogisticRegression`] (coefficients + intercept).
    Logistic(LogisticRegression),
    /// A fitted [`Gbt`] ensemble (trees + base score).
    Gbt(Gbt),
}

impl ModelState {
    /// Which learner family this state rebuilds.
    pub fn kind(&self) -> LearnerKind {
        match self {
            ModelState::Logistic(_) => LearnerKind::Logistic,
            ModelState::Gbt(_) => LearnerKind::Gbt,
        }
    }

    /// Rebuild the boxed learner. The restored model's predictions are
    /// bit-identical to the snapshotted one's.
    pub fn build(self) -> Box<dyn Learner> {
        match self {
            ModelState::Logistic(m) => Box::new(m),
            ModelState::Gbt(m) => Box::new(m),
        }
    }
}

impl serde::Serialize for ModelState {
    fn to_value(&self) -> serde::Value {
        let (kind, model) = match self {
            ModelState::Logistic(m) => ("LR", m.to_value()),
            ModelState::Gbt(m) => ("XGB", m.to_value()),
        };
        serde::Value::Object(vec![
            ("kind".into(), serde::Value::String(kind.into())),
            ("model".into(), model),
        ])
    }
}

impl serde::Deserialize for ModelState {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let model = v.get_or_err("model")?;
        match v.get_or_err("kind")?.as_str() {
            Some("LR") => Ok(ModelState::Logistic(serde::Deserialize::from_value(model)?)),
            Some("XGB") => Ok(ModelState::Gbt(serde::Deserialize::from_value(model)?)),
            _ => Err(serde::Error::msg("unknown model kind")),
        }
    }
}

/// Validate the (x, y, weights) triple shared by every learner's `fit`.
pub(crate) fn validate_fit_inputs(
    x: &Matrix,
    y: &[f64],
    weights: Option<&[f64]>,
) -> Result<Vec<f64>> {
    if x.rows() == 0 {
        return Err(LearnError::EmptyTrainingSet);
    }
    if y.len() != x.rows() {
        return Err(LearnError::ShapeMismatch(format!(
            "{} labels for {} rows",
            y.len(),
            x.rows()
        )));
    }
    // A NaN would panic the GBT split sort and silently poison the
    // logistic gradient, so it never reaches either fit.
    if let Some((row, feature)) = x
        .iter_rows()
        .enumerate()
        .find_map(|(i, r)| r.iter().position(|v| !v.is_finite()).map(|j| (i, j)))
    {
        return Err(LearnError::NonFinite { row, feature });
    }
    let w = match weights {
        Some(w) => {
            if w.len() != x.rows() {
                return Err(LearnError::ShapeMismatch(format!(
                    "{} weights for {} rows",
                    w.len(),
                    x.rows()
                )));
            }
            if w.iter().any(|&v| v < 0.0 || !v.is_finite()) {
                return Err(LearnError::InvalidWeights(
                    "weights must be finite and non-negative".into(),
                ));
            }
            if w.iter().sum::<f64>() <= 0.0 {
                return Err(LearnError::InvalidWeights("total weight is zero".into()));
            }
            w.to_vec()
        }
        None => vec![1.0; x.rows()],
    };
    Ok(w)
}

/// The learner factory: which model family to instantiate, with the default
/// hyperparameters used throughout the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LearnerKind {
    /// Logistic regression ("LR" in the paper's figures).
    Logistic,
    /// Gradient boosted trees ("XGB" in the paper's figures).
    Gbt,
}

impl LearnerKind {
    /// Instantiate an unfitted learner with default hyperparameters.
    pub fn build(self) -> Box<dyn Learner> {
        match self {
            LearnerKind::Logistic => Box::new(LogisticRegression::default()),
            LearnerKind::Gbt => Box::new(Gbt::default()),
        }
    }

    /// The label used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            LearnerKind::Logistic => "LR",
            LearnerKind::Gbt => "XGB",
        }
    }

    /// Both learners, in the order the paper reports them.
    pub fn both() -> [LearnerKind; 2] {
        [LearnerKind::Logistic, LearnerKind::Gbt]
    }
}

impl serde::Serialize for LearnerKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().into())
    }
}

impl serde::Deserialize for LearnerKind {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v.as_str() {
            Some("LR") => Ok(LearnerKind::Logistic),
            Some("XGB") => Ok(LearnerKind::Gbt),
            _ => Err(serde::Error::msg("unknown learner kind")),
        }
    }
}

/// Plain accuracy of hard predictions (used by hyperparameter validation).
pub fn accuracy(y_true: &[u8], y_pred: &[u8]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let hits = y_true.iter().zip(y_pred).filter(|(a, b)| a == b).count();
    hits as f64 / y_true.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_factory_builds_unfitted_models() {
        for kind in LearnerKind::both() {
            let m = kind.build();
            assert!(!m.is_fitted());
        }
        assert_eq!(LearnerKind::Logistic.name(), "LR");
        assert_eq!(LearnerKind::Gbt.name(), "XGB");
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert!(matches!(
            validate_fit_inputs(&Matrix::zeros(0, 1), &[], None),
            Err(LearnError::EmptyTrainingSet)
        ));
        assert!(matches!(
            validate_fit_inputs(&x, &[0.0], None),
            Err(LearnError::ShapeMismatch(_))
        ));
        assert!(matches!(
            validate_fit_inputs(&x, &[0.0, 1.0], Some(&[1.0])),
            Err(LearnError::ShapeMismatch(_))
        ));
        assert!(matches!(
            validate_fit_inputs(&x, &[0.0, 1.0], Some(&[-1.0, 1.0])),
            Err(LearnError::InvalidWeights(_))
        ));
        assert!(matches!(
            validate_fit_inputs(&x, &[0.0, 1.0], Some(&[0.0, 0.0])),
            Err(LearnError::InvalidWeights(_))
        ));
        assert_eq!(
            validate_fit_inputs(&x, &[0.0, 1.0], None).unwrap(),
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 0, 1, 1], &[1, 0, 0, 1]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
