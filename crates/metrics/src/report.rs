//! The serialisable result row every experiment prints and stores.

use crate::confusion::GroupConfusion;
use serde::{Deserialize, Serialize};

/// One evaluation outcome: a (dataset, method, learner) cell of a paper
/// figure, with every metric §IV reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Dataset name (e.g. "MEPS").
    pub dataset: String,
    /// Intervention name (e.g. "ConFair", "KAM", "NoIntervention").
    pub method: String,
    /// Learner name ("LR" or "XGB").
    pub learner: String,
    /// `DI* = min(DI, 1/DI)` — higher is fairer.
    pub di_star: f64,
    /// Raw disparate impact `SR_U / SR_W`. `∞` serialises as `null`, which
    /// does not decode back: JSON text never reads as a non-finite `f64`.
    /// Nothing outside this module's round-trip test reads a report back.
    pub disparate_impact: f64,
    /// `AOD* = 1 − |AOD|` — higher is fairer.
    pub aod_star: f64,
    /// Raw average odds difference.
    pub aod: f64,
    /// Balanced accuracy (utility).
    pub balanced_accuracy: f64,
    /// Majority selection rate.
    pub sr_majority: f64,
    /// Minority selection rate.
    pub sr_minority: f64,
    /// Equalized-odds gap by FNR.
    pub eq_odds_fnr_gap: f64,
    /// Equalized-odds gap by FPR.
    pub eq_odds_fpr_gap: f64,
    /// Whether the bias favours the minority (paper's striped bars).
    pub favors_minority: bool,
    /// Whether predictions collapsed to one class (paper's crisscross bars).
    pub degenerate: bool,
    /// Wall-clock seconds for the intervention + training (Fig. 14).
    pub runtime_secs: f64,
}

impl FairnessReport {
    /// Assemble a report from a computed [`GroupConfusion`].
    pub fn from_confusion(
        dataset: impl Into<String>,
        method: impl Into<String>,
        learner: impl Into<String>,
        gc: &GroupConfusion,
        runtime_secs: f64,
    ) -> Self {
        Self {
            dataset: dataset.into(),
            method: method.into(),
            learner: learner.into(),
            di_star: gc.di_star(),
            disparate_impact: gc.disparate_impact(),
            aod_star: gc.aod_star(),
            aod: gc.aod(),
            balanced_accuracy: gc.balanced_accuracy(),
            sr_majority: gc.majority.selection_rate(),
            sr_minority: gc.minority.selection_rate(),
            eq_odds_fnr_gap: gc.eq_odds_fnr_gap(),
            eq_odds_fpr_gap: gc.eq_odds_fpr_gap(),
            favors_minority: gc.favors_minority(),
            degenerate: gc.is_degenerate(),
            runtime_secs,
        }
    }

    /// Element-wise mean of several reports (metadata from the first);
    /// `degenerate`/`favors_minority` become majority votes. This is how the
    /// paper aggregates its 20 repetitions.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn mean(reports: &[FairnessReport]) -> FairnessReport {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as f64;
        let avg = |f: fn(&FairnessReport) -> f64| -> f64 {
            let finite: Vec<f64> = reports.iter().map(f).filter(|v| v.is_finite()).collect();
            if finite.is_empty() {
                f64::INFINITY
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        };
        let votes = |f: fn(&FairnessReport) -> bool| -> bool {
            reports.iter().filter(|r| f(r)).count() * 2 > reports.len()
        };
        FairnessReport {
            dataset: reports[0].dataset.clone(),
            method: reports[0].method.clone(),
            learner: reports[0].learner.clone(),
            di_star: avg(|r| r.di_star),
            disparate_impact: avg(|r| r.disparate_impact),
            aod_star: avg(|r| r.aod_star),
            aod: avg(|r| r.aod),
            balanced_accuracy: avg(|r| r.balanced_accuracy),
            sr_majority: avg(|r| r.sr_majority),
            sr_minority: avg(|r| r.sr_minority),
            eq_odds_fnr_gap: avg(|r| r.eq_odds_fnr_gap),
            eq_odds_fpr_gap: avg(|r| r.eq_odds_fpr_gap),
            favors_minority: votes(|r| r.favors_minority),
            degenerate: votes(|r| r.degenerate),
            runtime_secs: reports.iter().map(|r| r.runtime_secs).sum::<f64>() / n,
        }
    }

    /// A compact single-line rendering for experiment stdout.
    pub fn one_line(&self) -> String {
        let marks = match (self.degenerate, self.favors_minority) {
            (true, _) => " [DEGENERATE]",
            (false, true) => " [favors U]",
            (false, false) => "",
        };
        format!(
            "{:<8} {:<16} {:<4}  DI*={:.3} AOD*={:.3} BalAcc={:.3}{}",
            self.dataset,
            self.method,
            self.learner,
            self.di_star,
            self.aod_star,
            self.balanced_accuracy,
            marks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confusion::GroupConfusion;

    fn sample_confusion() -> GroupConfusion {
        GroupConfusion::compute(
            &[1, 1, 0, 0, 1, 1, 0, 0],
            &[1, 1, 0, 0, 1, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 1, 1],
        )
    }

    #[test]
    fn report_mirrors_confusion() {
        let gc = sample_confusion();
        let r = FairnessReport::from_confusion("D", "M", "LR", &gc, 1.5);
        assert_eq!(r.di_star, gc.di_star());
        assert_eq!(r.aod_star, gc.aod_star());
        assert_eq!(r.balanced_accuracy, gc.balanced_accuracy());
        assert_eq!(r.runtime_secs, 1.5);
    }

    #[test]
    fn mean_averages_metrics() {
        let gc = sample_confusion();
        let mut a = FairnessReport::from_confusion("D", "M", "LR", &gc, 1.0);
        let mut b = a.clone();
        a.di_star = 0.4;
        b.di_star = 0.8;
        let m = FairnessReport::mean(&[a, b]);
        assert!((m.di_star - 0.6).abs() < 1e-12);
        assert_eq!(m.dataset, "D");
    }

    #[test]
    fn mean_skips_non_finite_di() {
        let gc = sample_confusion();
        let mut a = FairnessReport::from_confusion("D", "M", "LR", &gc, 1.0);
        let mut b = a.clone();
        a.disparate_impact = f64::INFINITY;
        b.disparate_impact = 0.5;
        let m = FairnessReport::mean(&[a, b]);
        assert!((m.disparate_impact - 0.5).abs() < 1e-12);
    }

    #[test]
    fn majority_vote_flags() {
        let gc = sample_confusion();
        let base = FairnessReport::from_confusion("D", "M", "LR", &gc, 1.0);
        let mut degen = base.clone();
        degen.degenerate = true;
        let m = FairnessReport::mean(&[base.clone(), degen.clone(), degen]);
        assert!(m.degenerate);
    }

    #[test]
    fn serde_round_trip() {
        let gc = sample_confusion();
        let r = FairnessReport::from_confusion("D", "M", "XGB", &gc, 0.25);
        let json = serde_json::to_string(&r).unwrap();
        let back: FairnessReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn one_line_contains_key_metrics() {
        let gc = sample_confusion();
        let r = FairnessReport::from_confusion("MEPS", "ConFair", "LR", &gc, 0.0);
        let line = r.one_line();
        assert!(line.contains("MEPS"));
        assert!(line.contains("DI*="));
        assert!(line.contains("BalAcc="));
    }

    #[test]
    #[should_panic]
    fn mean_of_empty_panics() {
        let _ = FairnessReport::mean(&[]);
    }
}
