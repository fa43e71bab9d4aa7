//! # cf-learners
//!
//! Weighted binary classifiers built from scratch — the learning substrate
//! the paper evaluates its interventions on (§IV "Models").
//!
//! * [`LogisticRegression`] — the scikit-learn `LR` stand-in: weighted
//!   log-loss, full-batch gradient descent with adaptive step size, L2.
//! * [`Gbt`] — the XGBoost stand-in: second-order gradient boosting with
//!   exact greedy regression trees, shrinkage, and leaf L2. Each fit sorts
//!   every feature column once; every tree of the ensemble then grows by
//!   stable-partitioning those orders node by node, never re-sorting
//!   ([`tree::PresortedFit`]).
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
    /// A training label was NaN, infinite or outside [0, 1].
    InvalidLabel {
        /// Row of the first offending label.
        row: usize,
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
            LearnError::InvalidLabel { row } => {
                write!(f, "label in row {row} is not a number in [0, 1]")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LearnError>;

/// A binary classifier with native per-instance weight support.
///
/// Implementors score through one method, [`Learner::predict_margin`];
/// [`Learner::predict`] and [`Learner::predict_proba`] derive from it, so
/// decisions, probabilities and serve-time repair (which compares the same
/// margins with per-cell cutoffs) always agree.
pub trait Learner: Send {
    /// Train on features `x`, labels `y ∈ {0.0, 1.0}`, and optional
    /// non-negative instance weights (defaulting to 1.0 each).
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()>;

    /// Raw decision margins (log-odds) for each row of `x`: the
    /// pre-sigmoid score whose sign is the hard decision. Fails with
    /// [`LearnError::NotFitted`] before `fit` and with
    /// [`LearnError::ShapeMismatch`] when `x` is not the fitted width.
    fn predict_margin(&self, x: &Matrix) -> Result<Vec<f64>>;

    /// Hard predictions, `margin >= 0.0`: `sigmoid(margin) >= 0.5` without
    /// the per-row `exp`, and exact where the probability is not (a margin
    /// just below zero can round to a probability of exactly 0.5).
    fn predict(&self, x: &Matrix) -> Result<Vec<u8>> {
        Ok(self
            .predict_margin(x)?
            .into_iter()
            .map(|m| u8::from(m >= 0.0))
            .collect())
    }

    /// Probability of the positive class for each row: `sigmoid(margin)`.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok(self.predict_margin(x)?.into_iter().map(sigmoid).collect())
    }

    /// Whether `fit` has succeeded at least once.
    fn is_fitted(&self) -> bool;
}

/// One built-in learner, tagged by family: what [`LearnerKind::build`]
/// makes, and, once fitted, the model half of an engine checkpoint. Its
/// [`Learner`] impl dispatches with one `match`, and its serialised form
/// names the family, so a parsed model scores bit-identically to the one
/// that was written.
#[derive(Debug, Clone)]
pub enum ModelState {
    /// A [`LogisticRegression`] (coefficients + intercept).
    Logistic(LogisticRegression),
    /// A [`Gbt`] ensemble (trees + base score).
    Gbt(Gbt),
}

impl ModelState {
    /// Which learner family this is.
    pub fn kind(&self) -> LearnerKind {
        match self {
            ModelState::Logistic(_) => LearnerKind::Logistic,
            ModelState::Gbt(_) => LearnerKind::Gbt,
        }
    }

    /// How many features the fitted model takes (0 before `fit`).
    pub fn n_features(&self) -> usize {
        match self {
            ModelState::Logistic(m) => m.coefficients().len(),
            ModelState::Gbt(m) => m.n_features(),
        }
    }
}

impl Learner for ModelState {
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()> {
        match self {
            ModelState::Logistic(m) => m.fit(x, y, weights),
            ModelState::Gbt(m) => m.fit(x, y, weights),
        }
    }

    fn predict_margin(&self, x: &Matrix) -> Result<Vec<f64>> {
        match self {
            ModelState::Logistic(m) => m.predict_margin(x),
            ModelState::Gbt(m) => m.predict_margin(x),
        }
    }

    fn is_fitted(&self) -> bool {
        match self {
            ModelState::Logistic(m) => m.is_fitted(),
            ModelState::Gbt(m) => m.is_fitted(),
        }
    }
}

impl serde::Serialize for ModelState {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| match self {
            ModelState::Logistic(m) => {
                w.field(b"\"kind\":", "LR");
                w.field(b"\"model\":", m);
            }
            ModelState::Gbt(m) => {
                w.field(b"\"kind\":", "XGB");
                w.field(b"\"model\":", m);
            }
        });
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

/// The logistic function, split on sign so neither branch overflows.
#[inline]
pub(crate) fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// The check every learner's `predict_margin` runs first: the model is
/// fitted and `x` is exactly as wide as the fitted feature count.
pub(crate) fn check_scorable(fitted: bool, n_features: usize, x: &Matrix) -> Result<()> {
    if !fitted {
        return Err(LearnError::NotFitted);
    }
    if x.cols() != n_features {
        return Err(LearnError::ShapeMismatch(format!(
            "{} features, model has {}",
            x.cols(),
            n_features
        )));
    }
    Ok(())
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
    // A NaN would panic the GBT column presort and silently poison the
    // logistic gradient, so it never reaches either fit.
    if let Some((row, feature)) = x
        .iter_rows()
        .enumerate()
        .find_map(|(i, r)| r.iter().position(|v| !v.is_finite()).map(|j| (i, j)))
    {
        return Err(LearnError::NonFinite { row, feature });
    }
    // Both losses read a label as the probability of the positive class: a
    // NaN gives GBT a NaN base score, and a label of 7 drives the logistic
    // Newton step to enormous coefficients. (`contains` is false for NaN.)
    if let Some(row) = y.iter().position(|v| !(0.0..=1.0).contains(v)) {
        return Err(LearnError::InvalidLabel { row });
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
    pub fn build(self) -> ModelState {
        match self {
            LearnerKind::Logistic => ModelState::Logistic(LogisticRegression::default()),
            LearnerKind::Gbt => ModelState::Gbt(Gbt::default()),
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
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.name());
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
    fn labels_outside_the_unit_interval_fail_typed_for_both_learners() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        for kind in LearnerKind::both() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 7.0] {
                let y = [0.0, 1.0, bad, 1.0];
                assert_eq!(
                    kind.build().fit(&x, &y, None),
                    Err(LearnError::InvalidLabel { row: 2 }),
                    "{} label {bad}",
                    kind.name()
                );
            }
            for y in [[0.0, 0.0, 1.0, 1.0], [0.0, 0.25, 0.5, 1.0]] {
                let mut model = kind.build();
                model.fit(&x, &y, None).expect("labels in [0, 1] fit");
                let margins = model.predict_margin(&x).expect("fitted");
                assert!(margins.iter().all(|m| m.is_finite()), "{margins:?}");
            }
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 0, 1, 1], &[1, 0, 0, 1]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
