//! The [`Intervention`] / [`Predictor`] traits every method implements, plus
//! the no-intervention baseline.

use crate::Result;
use cf_data::{encode::labels_as_f64, Dataset, FeatureEncoding};
use cf_learners::{Learner, LearnerKind, ModelState};
use cf_linalg::Matrix;

/// The serialisable state of a checkpointable predictor: the fitted
/// feature encoding plus the fitted model parameters. Produced by
/// [`Predictor::state`], consumed by [`SingleModelPredictor::from_state`];
/// the rebuilt predictor scores bit-identically to the snapshotted one.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PredictorState {
    encoding: FeatureEncoding,
    model: ModelState,
}

impl PredictorState {
    /// The fitted feature encoding.
    pub fn encoding(&self) -> &FeatureEncoding {
        &self.encoding
    }

    /// The fitted model parameters.
    pub fn model(&self) -> &ModelState {
        &self.model
    }
}

/// A trained model (or model ensemble) ready to serve predictions.
pub trait Predictor: Send {
    /// Hard predictions for every tuple of `data`.
    fn predict(&self, data: &Dataset) -> Result<Vec<u8>>;

    /// Snapshot this predictor's full fitted state for checkpointing, or
    /// `None` when the predictor is not serialisable (the default —
    /// ensemble predictors like DiffFair's router do not checkpoint yet).
    fn state(&self) -> Option<PredictorState> {
        None
    }

    /// Raw decision margins straight from a row-major numeric feature
    /// matrix (one row per tuple, one column per attribute in schema
    /// order): the pre-threshold scores whose sign is [`Predictor::predict`]
    /// (`decision == (margin >= 0.0)` bit for bit for learner-backed
    /// predictors). The streaming fast path: it skips [`Dataset`]
    /// assembly entirely, and the serving side compares each margin with
    /// a per-cell cutoff.
    ///
    /// `x` is the caller's scratch: an implementation may overwrite it
    /// (the learner-backed predictor encodes it in place), so its contents
    /// are unspecified on return.
    ///
    /// Only meaningful for predictors trained on all-numeric schemas, and
    /// **opt-in**: the default rejects the call, because a bare matrix
    /// carries no group column and a group-routed predictor inheriting a
    /// permissive default would silently score every row as group 0.
    fn predict_margin_rows(&self, _x: &mut Matrix) -> Result<Vec<f64>> {
        Err(crate::CoreError::Unsupported(
            "this predictor does not expose raw decision margins; \
             per-cell threshold repair requires a margin-based model"
                .into(),
        ))
    }
}

/// A fairness intervention: consumes the training/validation splits and a
/// learner family, produces a [`Predictor`].
///
/// The trait deliberately mirrors the paper's framing (Definition 1): the
/// intervention may reweigh or split, but receives the data and the learning
/// algorithm as-is.
pub trait Intervention: Send + Sync {
    /// Name as it appears in the paper's figures (e.g. `"ConFair"`).
    fn name(&self) -> String;

    /// Run the intervention and train.
    fn train(
        &self,
        train: &Dataset,
        validation: &Dataset,
        learner: LearnerKind,
    ) -> Result<Box<dyn Predictor>>;
}

/// A single model plus the feature encoding it was trained with.
pub struct SingleModelPredictor {
    encoding: FeatureEncoding,
    model: Box<dyn Learner>,
}

impl SingleModelPredictor {
    /// Train `learner` on (optionally weighted) `train` data.
    pub fn fit(train: &Dataset, learner: LearnerKind, weights: Option<&[f64]>) -> Result<Self> {
        // The encoding would impute a null (NaN) to 0.5 and fit silently.
        crate::check_finite(train)?;
        let (encoding, x) = FeatureEncoding::fit_transform(train);
        let y = labels_as_f64(train);
        let mut model = learner.build();
        model.fit(&x, &y, weights)?;
        Ok(Self { encoding, model })
    }

    /// Probability of the positive class for every tuple.
    pub fn predict_proba(&self, data: &Dataset) -> Result<Vec<f64>> {
        let x = self.encoding.transform(data)?;
        Ok(self.model.predict_proba(&x)?)
    }

    /// Rebuild a predictor from a snapshotted [`PredictorState`]. The
    /// restored predictor's decisions are bit-identical to the original's.
    ///
    /// # Errors
    /// Rejects states whose encoding width disagrees with the model's
    /// feature count (a corrupted or hand-assembled checkpoint).
    pub fn from_state(state: PredictorState) -> Result<Self> {
        let width = state.encoding.width();
        let model_features = match &state.model {
            ModelState::Logistic(m) => m.coefficients().len(),
            ModelState::Gbt(m) => m.n_features(),
        };
        if width != model_features {
            return Err(crate::CoreError::Unsupported(format!(
                "predictor state is inconsistent: encoding width {width}, \
                 model expects {model_features} features"
            )));
        }
        Ok(Self {
            encoding: state.encoding,
            model: state.model.build(),
        })
    }
}

impl Predictor for SingleModelPredictor {
    fn predict(&self, data: &Dataset) -> Result<Vec<u8>> {
        let x = self.encoding.transform(data)?;
        Ok(self.model.predict(&x)?)
    }

    fn state(&self) -> Option<PredictorState> {
        let model = self.model.state()?;
        Some(PredictorState {
            encoding: self.encoding.clone(),
            model,
        })
    }

    fn predict_margin_rows(&self, x: &mut Matrix) -> Result<Vec<f64>> {
        self.encoding.transform_rows_in_place(x)?;
        Ok(self.model.predict_margin(x)?)
    }
}

/// The `NO-INTERVENTION` baseline: train on the data exactly as given.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoIntervention;

impl Intervention for NoIntervention {
    fn name(&self) -> String {
        "NoIntervention".to_string()
    }

    fn train(
        &self,
        train: &Dataset,
        _validation: &Dataset,
        learner: LearnerKind,
    ) -> Result<Box<dyn Predictor>> {
        // Existing weights (if a caller attached any) are honoured: the
        // baseline trains on the dataset exactly as handed over.
        let predictor = SingleModelPredictor::fit(train, learner, train.weights())?;
        Ok(Box::new(predictor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::split::{split3, SplitRatios};
    use cf_datasets::toy::figure1;

    #[test]
    fn no_intervention_trains_and_predicts() {
        let data = figure1(1);
        let s = split3(&data, SplitRatios::paper_default(), 1);
        let p = NoIntervention
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let preds = p.predict(&s.test).unwrap();
        assert_eq!(preds.len(), s.test.len());
        assert!(preds.iter().all(|&v| v <= 1));
    }

    #[test]
    fn no_intervention_is_accurate_on_majority() {
        // The Fig. 1 geometry: a single model fits the majority well.
        let data = figure1(2);
        let s = split3(&data, SplitRatios::paper_default(), 2);
        let p = NoIntervention
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let preds = p.predict(&s.test).unwrap();
        let mut hits = 0;
        let mut total = 0;
        for ((&p, &g), &y) in preds.iter().zip(s.test.groups()).zip(s.test.labels()) {
            if g == 0 {
                total += 1;
                if p == y {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 / total as f64 > 0.9, "{hits}/{total}");
    }

    #[test]
    fn single_model_predictor_proba_in_range() {
        let data = figure1(3);
        let s = split3(&data, SplitRatios::paper_default(), 3);
        let p = SingleModelPredictor::fit(&s.train, LearnerKind::Gbt, None).unwrap();
        for prob in p.predict_proba(&s.test).unwrap() {
            assert!((0.0..=1.0).contains(&prob));
        }
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(NoIntervention.name(), "NoIntervention");
    }

    #[test]
    fn predict_rows_matches_dataset_path() {
        // The Fig. 1 toy data is all-numeric, so the learner-backed
        // margins thresholded at zero must agree with plain `predict`
        // exactly.
        let data = figure1(4);
        let s = split3(&data, SplitRatios::paper_default(), 4);
        let p = NoIntervention
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let via_dataset = p.predict(&s.test).unwrap();
        let mut x = s.test.numeric_matrix(None);
        let via_rows: Vec<u8> = p
            .predict_margin_rows(&mut x.clone())
            .unwrap()
            .into_iter()
            .map(|m| u8::from(m >= 0.0))
            .collect();
        assert_eq!(via_rows, via_dataset);

        // A predictor that does not opt in is rejected, never misrouted.
        struct Wrap(Box<dyn Predictor>);
        impl Predictor for Wrap {
            fn predict(&self, data: &Dataset) -> Result<Vec<u8>> {
                self.0.predict(data)
            }
        }
        let wrapped = Wrap(p);
        assert!(matches!(
            wrapped.predict_margin_rows(&mut x),
            Err(crate::CoreError::Unsupported(_))
        ));
    }
}
