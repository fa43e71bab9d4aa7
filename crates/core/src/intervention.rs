//! The [`Intervention`] / [`Predictor`] traits every method implements, plus
//! the no-intervention baseline.

use crate::Result;
use cf_data::{encode::labels_as_f64, Dataset, FeatureEncoding};
use cf_learners::{Learner, LearnerKind, ModelState};
use cf_linalg::Matrix;

/// A trained model (or model ensemble) ready to serve predictions.
pub trait Predictor: Send {
    /// Hard predictions for every tuple of `data`.
    fn predict(&self, data: &Dataset) -> Result<Vec<u8>>;
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

/// A single model plus the feature encoding it was trained with: the one
/// fitted-model type, from fit through serving and retrain to checkpoint.
/// Its serialised form is the `predictor` field of an engine checkpoint,
/// and a parsed predictor scores bit-identically to the one written.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SingleModelPredictor {
    encoding: FeatureEncoding,
    model: ModelState,
}

// Manual Deserialize: the fields alone do not make a predictor that can
// score. A model fitted on another width than its encoding emits would
// fail every batch, so a corrupted or hand-assembled document is refused
// here, as a typed parse error.
impl serde::Deserialize for SingleModelPredictor {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        use serde::Deserialize;
        let predictor = SingleModelPredictor {
            encoding: Deserialize::from_value(v.get_or_err("encoding")?)?,
            model: Deserialize::from_value(v.get_or_err("model")?)?,
        };
        let (width, features) = (predictor.encoding.width(), predictor.model.n_features());
        if width != features {
            return Err(serde::Error::msg(format!(
                "predictor is inconsistent: encoding width {width}, \
                 model expects {features} features"
            )));
        }
        Ok(predictor)
    }
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

    /// The fitted feature encoding.
    pub fn encoding(&self) -> &FeatureEncoding {
        &self.encoding
    }

    /// The fitted model parameters.
    pub fn model(&self) -> &ModelState {
        &self.model
    }

    /// Probability of the positive class for every tuple.
    pub fn predict_proba(&self, data: &Dataset) -> Result<Vec<f64>> {
        let x = self.encoding.transform(data)?;
        Ok(self.model.predict_proba(&x)?)
    }

    /// Raw decision margins straight from a row-major numeric feature
    /// matrix (one row per tuple, one column per attribute in schema
    /// order): the pre-threshold scores whose sign is
    /// [`Predictor::predict`] (`decision == (margin >= 0.0)` bit for bit).
    /// The streaming fast path: it skips [`Dataset`] assembly entirely,
    /// and the serving side compares each margin with a per-cell cutoff.
    ///
    /// `x` is the caller's scratch: it is encoded in place, so its
    /// contents are unspecified on return. Only meaningful for predictors
    /// trained on all-numeric schemas.
    pub fn predict_margin_rows(&self, x: &mut Matrix) -> Result<Vec<f64>> {
        self.encoding.transform_rows_in_place(x)?;
        Ok(self.model.predict_margin(x)?)
    }
}

impl Predictor for SingleModelPredictor {
    fn predict(&self, data: &Dataset) -> Result<Vec<u8>> {
        let x = self.encoding.transform(data)?;
        Ok(self.model.predict(&x)?)
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
        let p = SingleModelPredictor::fit(&s.train, LearnerKind::Logistic, None).unwrap();
        let via_dataset = p.predict(&s.test).unwrap();
        let via_rows: Vec<u8> = p
            .predict_margin_rows(&mut s.test.numeric_matrix(None))
            .unwrap()
            .into_iter()
            .map(|m| u8::from(m >= 0.0))
            .collect();
        assert_eq!(via_rows, via_dataset);
    }
}
