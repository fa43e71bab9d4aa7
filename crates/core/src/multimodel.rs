//! The naive **MultiModel** baseline (§II-B): split by the mapping function
//! `g`, train one model per group, and deploy strictly by group membership.
//!
//! This is the strategy DiffFair improves on — it needs (possibly sensitive)
//! group attributes at serving time and cannot serve an individual with the
//! other group's model even when that model conforms better.

use crate::{
    intervention::{Intervention, Predictor},
    CoreError, Result,
};
use cf_data::{encode::labels_as_f64, Dataset, FeatureEncoding, MAJORITY, MINORITY};
use cf_learners::{Learner, LearnerKind, ModelState};

/// The MultiModel intervention.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiModel;

/// Fitted per-group models deployed by group membership.
pub struct MultiModelPredictor {
    encoding: FeatureEncoding,
    model_w: Option<ModelState>,
    model_u: Option<ModelState>,
}

impl Predictor for MultiModelPredictor {
    fn predict(&self, data: &Dataset) -> Result<Vec<u8>> {
        let x = self.encoding.transform(data)?;
        let pw = match &self.model_w {
            Some(m) => Some(m.predict(&x)?),
            None => None,
        };
        let pu = match &self.model_u {
            Some(m) => Some(m.predict(&x)?),
            None => None,
        };
        data.groups()
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let chosen = if g == MAJORITY { &pw } else { &pu };
                let fallback = if g == MAJORITY { &pu } else { &pw };
                chosen
                    .as_ref()
                    .or(fallback.as_ref())
                    .map(|p| p[i])
                    .ok_or_else(|| CoreError::EmptyPartition("no trained group model".into()))
            })
            .collect()
    }
}

impl Intervention for MultiModel {
    fn name(&self) -> String {
        "MultiModel".to_string()
    }

    fn train(
        &self,
        train: &Dataset,
        _validation: &Dataset,
        learner: LearnerKind,
    ) -> Result<Box<dyn Predictor>> {
        if train.is_empty() {
            return Err(CoreError::EmptyPartition("training set".into()));
        }
        let encoding = FeatureEncoding::fit(train);
        let fit_group = |group: u8| -> Result<Option<ModelState>> {
            let idx = train.group_indices(group);
            if idx.is_empty() {
                return Ok(None);
            }
            let subset = train.subset(&idx);
            let x = encoding.transform(&subset)?;
            let y = labels_as_f64(&subset);
            let mut model = learner.build();
            model.fit(&x, &y, subset.weights())?;
            Ok(Some(model))
        };
        let model_w = fit_group(MAJORITY)?;
        let model_u = fit_group(MINORITY)?;
        if model_w.is_none() && model_u.is_none() {
            return Err(CoreError::EmptyPartition("both groups empty".into()));
        }
        Ok(Box::new(MultiModelPredictor {
            encoding,
            model_w,
            model_u,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::split::{split3, SplitRatios};
    use cf_datasets::{synthgen::syn_drift_scaled, toy::figure1};
    use cf_metrics::GroupConfusion;

    #[test]
    fn multimodel_beats_single_model_under_severe_drift() {
        let d = syn_drift_scaled(1, 0.1, 11);
        let s = split3(&d, SplitRatios::paper_default(), 11);

        let single = crate::NoIntervention
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let sp = single.predict(&s.test).unwrap();
        let s_gc = GroupConfusion::compute(s.test.labels(), &sp, s.test.groups());

        let multi = MultiModel
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let mp = multi.predict(&s.test).unwrap();
        let m_gc = GroupConfusion::compute(s.test.labels(), &mp, s.test.groups());

        assert!(m_gc.balanced_accuracy() > s_gc.balanced_accuracy() + 0.1);
    }

    #[test]
    fn predictions_follow_group_membership() {
        let d = figure1(40);
        let s = split3(&d, SplitRatios::paper_default(), 40);
        let multi = MultiModel
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let preds = multi.predict(&s.test).unwrap();
        assert_eq!(preds.len(), s.test.len());
        // With the Fig. 1 geometry each group's own model is near-perfect.
        let gc = GroupConfusion::compute(s.test.labels(), &preds, s.test.groups());
        assert!(gc.balanced_accuracy() > 0.9, "{}", gc.balanced_accuracy());
    }

    #[test]
    fn missing_group_falls_back_to_other_model() {
        let d = figure1(41);
        let keep: Vec<usize> = (0..d.len()).filter(|&i| d.groups()[i] == 0).collect();
        let train = d.subset(&keep);
        let s = split3(&d, SplitRatios::paper_default(), 41);
        let multi = MultiModel
            .train(&train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let preds = multi.predict(&s.test).unwrap();
        assert_eq!(preds.len(), s.test.len());
    }

    #[test]
    fn name_is_multimodel() {
        assert_eq!(MultiModel.name(), "MultiModel");
    }
}
