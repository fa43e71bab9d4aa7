//! **Algorithm 1 — DiffFair**: model splitting guided by conformance.
//!
//! Training: split the training data by group, learn one model per group,
//! and profile each (group, label) cell with conformance constraints
//! (optionally density-filtered, §III-C). Serving (the `PREDICT` procedure):
//! for each tuple compute `v_w = min_{Φ∈C_w} ⟦Φ⟧(t)` and
//! `v_u = min_{Φ∈C_u} ⟦Φ⟧(t)`, then answer with the model whose constraints
//! the tuple violates least — the mapping function `g` is *never consulted at
//! deployment*, which is what distinguishes DiffFair from [`crate::MultiModel`].

use crate::{
    intervention::{Intervention, Predictor},
    CoreError, Result,
};
use cf_conformance::{learn_constraints, ConstraintFamily, LearnOptions};
use cf_data::{encode::labels_as_f64, CellIndex, Dataset, FeatureEncoding, MAJORITY, MINORITY};
use cf_density::{densest_in_cell, FilterConfig};
use cf_learners::{Learner, LearnerKind};

/// Configuration for [`DiffFair`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFairConfig {
    /// Algorithm-3 density filtering before constraint derivation;
    /// `None` reproduces the paper's DiffFair0 ablation variant.
    pub density_filter: Option<FilterConfig>,
    /// Constraint-discovery options.
    pub learn_opts: LearnOptions,
}

impl Default for DiffFairConfig {
    fn default() -> Self {
        Self {
            density_filter: Some(FilterConfig::paper_default()),
            learn_opts: LearnOptions::paper_default(),
        }
    }
}

/// The DiffFair intervention.
#[derive(Debug, Clone, Default)]
pub struct DiffFair {
    /// Behavioural configuration.
    pub config: DiffFairConfig,
}

impl DiffFair {
    /// DiffFair with the paper's defaults (Algorithm-3 filtering on).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The DiffFair0 ablation: constraints derived without density filtering.
    pub fn without_density_filter() -> Self {
        Self {
            config: DiffFairConfig {
                density_filter: None,
                ..DiffFairConfig::default()
            },
        }
    }
}

/// The fitted pair of group models plus their constraint families.
pub struct DiffFairPredictor {
    encoding: FeatureEncoding,
    model_w: Option<Box<dyn Learner>>,
    model_u: Option<Box<dyn Learner>>,
    cc_w: ConstraintFamily,
    cc_u: ConstraintFamily,
}

impl DiffFairPredictor {
    /// Which group's model serves each tuple (0 = majority's, 1 =
    /// minority's) — the `PREDICT` routing decision, exposed for analysis.
    pub fn route(&self, data: &Dataset) -> Vec<u8> {
        let numeric = data.numeric_matrix(None);
        numeric
            .iter_rows()
            .map(|row| {
                let vw = self.cc_w.min_violation(row);
                let vu = self.cc_u.min_violation(row);
                // Algorithm 1 line 17: strictly-less favours the majority
                // model on ties, matching the pseudo-code.
                if vw < vu {
                    MAJORITY
                } else {
                    MINORITY
                }
            })
            .collect()
    }
}

impl Predictor for DiffFairPredictor {
    fn predict_rows(&self, x: &cf_linalg::Matrix) -> Result<Vec<u8>> {
        // Sound to opt in: `route` reads only the feature values (min
        // conformance violation), never the group or label columns.
        crate::intervention::predict_rows_via_dataset(self, x)
    }

    fn predict(&self, data: &Dataset) -> Result<Vec<u8>> {
        let routes = self.route(data);
        let x = self.encoding.transform(data)?;
        // Predict with both models once, then gather — cheaper than
        // per-tuple dispatch and identical in outcome.
        let pw = match &self.model_w {
            Some(m) => Some(m.predict(&x)?),
            None => None,
        };
        let pu = match &self.model_u {
            Some(m) => Some(m.predict(&x)?),
            None => None,
        };
        routes
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let chosen = if r == MAJORITY { &pw } else { &pu };
                let fallback = if r == MAJORITY { &pu } else { &pw };
                chosen
                    .as_ref()
                    .or(fallback.as_ref())
                    .map(|p| p[i])
                    .ok_or_else(|| CoreError::EmptyPartition("no trained group model".into()))
            })
            .collect()
    }
}

/// Train a model on one group's tuples; `None` when the group is absent.
fn train_group_model(
    train: &Dataset,
    encoding: &FeatureEncoding,
    group: u8,
    learner: LearnerKind,
) -> Result<Option<Box<dyn Learner>>> {
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
}

impl Intervention for DiffFair {
    fn name(&self) -> String {
        if self.config.density_filter.is_none() {
            "DiffFair0".to_string()
        } else {
            "DiffFair".to_string()
        }
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
        crate::check_finite(train)?;
        // One shared encoding keeps both models in the same feature space.
        let encoding = FeatureEncoding::fit(train);

        // ---- lines 4–8: constraints per (group, label) cell ----
        let filter = self.config.density_filter;
        let mut cc_w = ConstraintFamily::new();
        let mut cc_u = ConstraintFamily::new();
        for cell in CellIndex::binary_cells() {
            let rows = match filter {
                Some(cfg) => densest_in_cell(train, cell, cfg),
                None => train.cell_indices(cell),
            };
            if rows.is_empty() {
                continue;
            }
            let x = train.numeric_matrix(Some(&rows));
            let mut constraints = learn_constraints(&x, &self.config.learn_opts);
            // Bounds from the dense core; violation scale from the whole
            // cell, so routing stays discriminative away from the core.
            if filter.is_some() {
                let full = train.cell_indices(cell);
                constraints.recompute_stds(&train.numeric_matrix(Some(&full)));
            }
            if cell.group == MAJORITY {
                cc_w.push(constraints);
            } else {
                cc_u.push(constraints);
            }
        }

        // ---- line 9: group-dependent models ----
        let model_w = train_group_model(train, &encoding, MAJORITY, learner)?;
        let model_u = train_group_model(train, &encoding, MINORITY, learner)?;
        if model_w.is_none() && model_u.is_none() {
            return Err(CoreError::EmptyPartition("both groups empty".into()));
        }

        Ok(Box::new(DiffFairPredictor {
            encoding,
            model_w,
            model_u,
            cc_w,
            cc_u,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::split::{split3, SplitRatios};
    use cf_datasets::{synthgen::syn_drift_scaled, toy::figure1};
    use cf_density::density_filter;
    use cf_metrics::GroupConfusion;

    #[test]
    fn predict_rows_matches_dataset_path() {
        // DiffFair routes by feature conformance alone, so the opted-in
        // matrix fast path must reproduce the Dataset path exactly.
        let d = figure1(31);
        let s = split3(&d, SplitRatios::paper_default(), 31);
        let p = DiffFair::paper_default()
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let via_dataset = p.predict(&s.test).unwrap();
        let via_rows = p.predict_rows(&s.test.numeric_matrix(None)).unwrap();
        assert_eq!(via_rows, via_dataset);
    }

    #[test]
    fn difffair_routes_most_tuples_to_their_group() {
        let d = figure1(30);
        let s = split3(&d, SplitRatios::paper_default(), 30);
        let trained = DiffFair::paper_default()
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        // Downcast through route(): rebuild the predictor to inspect routing.
        let predictor = DiffFair::paper_default()
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let _ = predictor;
        let preds = trained.predict(&s.test).unwrap();
        assert_eq!(preds.len(), s.test.len());
    }

    #[test]
    fn routing_prefers_conforming_group() {
        let d = figure1(31);
        let s = split3(&d, SplitRatios::paper_default(), 31);
        let diff = DiffFair::paper_default();
        // Train directly to get the concrete predictor type.
        let encoding = FeatureEncoding::fit(&s.train);
        let _ = encoding;
        let boxed = diff
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let _ = boxed;
        // Use the public-route path: rebuild a concrete predictor via train
        // and the trait, then check against group labels through behaviour —
        // the Fig. 1 geometry puts the groups in disjoint regions, so routing
        // should match the true groups for the vast majority of tuples.
        let concrete = {
            // Re-run the training steps to obtain DiffFairPredictor directly.
            let filtered = density_filter(&s.train, FilterConfig::paper_default());
            let mut cc_w = ConstraintFamily::new();
            let mut cc_u = ConstraintFamily::new();
            for (cell, rows) in &filtered {
                if rows.is_empty() {
                    continue;
                }
                let x = s.train.numeric_matrix(Some(rows));
                let cs = learn_constraints(&x, &LearnOptions::default());
                if cell.group == MAJORITY {
                    cc_w.push(cs);
                } else {
                    cc_u.push(cs);
                }
            }
            let encoding = FeatureEncoding::fit(&s.train);
            let model_w =
                train_group_model(&s.train, &encoding, MAJORITY, LearnerKind::Logistic).unwrap();
            let model_u =
                train_group_model(&s.train, &encoding, MINORITY, LearnerKind::Logistic).unwrap();
            DiffFairPredictor {
                encoding,
                model_w,
                model_u,
                cc_w,
                cc_u,
            }
        };
        let routes = concrete.route(&s.test);
        let agree = routes
            .iter()
            .zip(s.test.groups())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree as f64 / routes.len() as f64 > 0.8,
            "routing should mostly follow the drift structure: {agree}/{}",
            routes.len()
        );
    }

    #[test]
    fn difffair_beats_single_model_under_severe_drift() {
        // Syn1: label directions fully opposed — the Fig. 11 scenario. The
        // paper's claim there: DiffFair produces *stronger fairness* than a
        // single model can, with an accuracy impact that "can be unavoidable
        // in some cases, but the models remain reasonable".
        let d = syn_drift_scaled(1, 0.1, 7);
        let s = split3(&d, SplitRatios::paper_default(), 7);

        let single = crate::NoIntervention
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let sp = single.predict(&s.test).unwrap();
        let s_gc = GroupConfusion::compute(s.test.labels(), &sp, s.test.groups());

        let diff = DiffFair::paper_default()
            .train(&s.train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        let dp = diff.predict(&s.test).unwrap();
        let d_gc = GroupConfusion::compute(s.test.labels(), &dp, s.test.groups());

        // A single model cannot serve Syn1's opposed minority: its minority
        // balanced accuracy sits near chance (0.5) or below. DiffFair's
        // routed group models recover it. (AOD* alone can be blind here —
        // a coin-flipping minority has symmetric errors that cancel.)
        let single_u = s_gc.minority.balanced_accuracy();
        let diff_u = d_gc.minority.balanced_accuracy();
        assert!(
            diff_u > single_u + 0.2,
            "DiffFair should recover the minority: {single_u} vs {diff_u}"
        );
        assert!(
            d_gc.balanced_accuracy() > s_gc.balanced_accuracy() + 0.05,
            "and improve overall accuracy: {} vs {}",
            s_gc.balanced_accuracy(),
            d_gc.balanced_accuracy()
        );
    }

    #[test]
    fn name_reflects_ablation() {
        assert_eq!(DiffFair::paper_default().name(), "DiffFair");
        assert_eq!(DiffFair::without_density_filter().name(), "DiffFair0");
    }

    #[test]
    fn single_group_training_falls_back() {
        let d = figure1(33);
        // Keep only the majority group in training.
        let keep: Vec<usize> = (0..d.len()).filter(|&i| d.groups()[i] == 0).collect();
        let train = d.subset(&keep);
        let s = split3(&d, SplitRatios::paper_default(), 33);
        let p = DiffFair::paper_default()
            .train(&train, &s.validation, LearnerKind::Logistic)
            .unwrap();
        // Prediction must still work (fallback to the only model).
        let preds = p.predict(&s.test).unwrap();
        assert_eq!(preds.len(), s.test.len());
    }

    #[test]
    fn empty_training_errors() {
        let d = figure1(1).subset(&[]);
        let s = split3(&figure1(1), SplitRatios::paper_default(), 1);
        assert!(DiffFair::paper_default()
            .train(&d, &s.validation, LearnerKind::Logistic)
            .is_err());
    }
}
