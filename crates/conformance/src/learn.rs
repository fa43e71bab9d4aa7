//! Discovery of conformance constraints from a data matrix.
//!
//! Following Fariha et al., the candidate projections are the principal axes
//! of the profiled subset's attribute covariance: eigenvectors with *low*
//! eigenvalues are near-constant linear combinations of the attributes —
//! the strongest constraints — and the importance weight `qᵢ` rewards
//! exactly that. The paper's literal formula
//! (`qᵢ = 1 − σᵢ/(σ_max − σ_min)`) is ill-defined when projection variances
//! are close (it can go negative, and tiny σ differences flip the weights
//! 0↔1); we use the smooth, scale-aware form `qᵢ ∝ 1/(1 + σᵢ/σ̄)` (σ̄ = mean
//! projection std) which preserves the stated semantics — lower standard
//! deviation ⇒ strictly higher importance, weights sum to 1 — and degrades
//! gracefully to uniform weights for isotropic data. See DESIGN.md §1.
//! Bounds are the observed min/max of each projection, optionally
//! quantile-trimmed.

use crate::{projection::Projection, set::ConstraintSet};
use cf_linalg::{eigen_symmetric, stats, Matrix};

/// Knobs for constraint discovery.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct LearnOptions {
    /// Trim this fraction from each tail when setting bounds (0.0 = strict
    /// min/max, the default — Algorithm 3 relies on bounds being sensitive
    /// to outliers *before* filtering, so trimming is off by default).
    pub bound_quantile: f64,
    /// Keep at most this many projections, preferring low variance (`None`
    /// keeps all `m`).
    pub max_projections: Option<usize>,
    /// Floor for the raw importance before normalisation, so the
    /// highest-variance projection still participates slightly.
    pub min_raw_importance: f64,
}

impl Default for LearnOptions {
    fn default() -> Self {
        Self {
            bound_quantile: 0.0,
            max_projections: None,
            min_raw_importance: 0.05,
        }
    }
}

impl LearnOptions {
    /// The configuration used throughout the paper's experiments.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Reject a `bound_quantile` that is not a finite fraction in
    /// `[0, 0.5]`: [`learn_constraints`] trims that much from each tail,
    /// and a quantile outside `[0, 1]` panics.
    pub fn validate(&self) -> Result<(), String> {
        let q = self.bound_quantile;
        if (0.0..=0.5).contains(&q) {
            Ok(())
        } else {
            Err(format!("bound_quantile {q} is not a fraction in [0, 0.5]"))
        }
    }
}

impl serde::Deserialize for LearnOptions {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let opts = LearnOptions {
            bound_quantile: serde::Deserialize::from_value(v.get_or_err("bound_quantile")?)?,
            max_projections: serde::Deserialize::from_value(v.get_or_err("max_projections")?)?,
            min_raw_importance: serde::Deserialize::from_value(
                v.get_or_err("min_raw_importance")?,
            )?,
        };
        // A checkpointed config is learned from on the first retrain after
        // a restore: reject it here, not there.
        opts.validate().map_err(serde::Error::msg)?;
        Ok(opts)
    }
}

/// Learn a [`ConstraintSet`] from the rows of `x` (tuples × numeric attrs).
///
/// Mirrors the paper's `GetCCs` subroutine: one constraint per principal
/// axis, bounds from the observed projections, importance from projection
/// variance. Cost: `O(n·m²)` for the covariance plus `O(m³)` for the
/// eigendecomposition — the complexity the paper quotes for Algorithms 1–2.
///
/// # Panics
/// Panics if `x` has no rows or no columns.
pub fn learn_constraints(x: &Matrix, opts: &LearnOptions) -> ConstraintSet {
    assert!(x.rows() > 0, "cannot profile an empty partition");
    assert!(x.cols() > 0, "cannot profile zero attributes");

    let cov = stats::covariance(x).expect("non-empty input");
    let eig = eigen_symmetric(&cov).expect("covariance is symmetric");

    // Eigenvalues arrive sorted descending; σ = sqrt(max(λ, 0)).
    let stds: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    let sigma_mean = (stds.iter().sum::<f64>() / stds.len() as f64).max(1e-12);

    let mut projections: Vec<Projection> = (0..stds.len())
        .map(|j| {
            let coeffs = eig.vector(j);
            // Project every tuple to find the empirical bounds.
            let values: Vec<f64> = x
                .iter_rows()
                .map(|row| cf_linalg::vector::dot(&coeffs, row))
                .collect();
            let (lb, ub) = if opts.bound_quantile > 0.0 {
                (
                    cf_linalg::vector::quantile(&values, opts.bound_quantile),
                    cf_linalg::vector::quantile(&values, 1.0 - opts.bound_quantile),
                )
            } else {
                let lb = values.iter().copied().fold(f64::INFINITY, f64::min);
                let ub = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (lb, ub)
            };
            // Smooth inverse-variance importance: strictly decreasing in σ,
            // ~uniform when projections are isotropic (see module docs).
            let raw_q = (1.0 / (1.0 + stds[j] / sigma_mean)).max(opts.min_raw_importance);
            Projection {
                coeffs,
                lb,
                ub,
                std: stds[j],
                importance: raw_q,
            }
        })
        .collect();

    if let Some(k) = opts.max_projections {
        // Prefer the strongest (lowest-variance) constraints; eigenvalues are
        // sorted descending so the low-variance axes are at the tail.
        projections.sort_by(|a, b| a.std.partial_cmp(&b.std).expect("NaN std"));
        projections.truncate(k.max(1));
    }

    ConstraintSet::new(projections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Points near the line x2 = 2·x1 with tiny perpendicular noise.
    fn near_line(n: usize, noise: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let t: f64 = rng.gen_range(0.0..10.0);
                let e: f64 = rng.gen_range(-noise..noise);
                // Perpendicular direction to (1,2)/√5 is (2,-1)/√5.
                vec![t + 2.0 * e, 2.0 * t - e]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn training_tuples_have_zero_violation_with_minmax_bounds() {
        let x = near_line(100, 0.05, 1);
        let cs = learn_constraints(&x, &LearnOptions::default());
        for row in x.iter_rows() {
            assert_eq!(cs.violation(row), 0.0, "training tuple must conform");
        }
    }

    #[test]
    fn off_manifold_points_violate() {
        let x = near_line(200, 0.02, 2);
        let cs = learn_constraints(&x, &LearnOptions::default());
        // A point far off the line (but within the x1 range).
        let off = [5.0, 0.0];
        assert!(cs.violation(&off) > 0.1, "violation {}", cs.violation(&off));
        // A point on the line but outside the sampled range.
        let beyond = [20.0, 40.0];
        assert!(cs.violation(&beyond) > 0.0);
    }

    #[test]
    fn low_variance_axis_gets_high_importance() {
        let x = near_line(300, 0.01, 3);
        let cs = learn_constraints(&x, &LearnOptions::default());
        // The projection with the smaller std must carry more importance.
        let p = cs.projections();
        let (strong, weak) = if p[0].std < p[1].std {
            (&p[0], &p[1])
        } else {
            (&p[1], &p[0])
        };
        assert!(strong.importance > weak.importance);
        // And its direction is ≈ (2,-1)/√5 (up to sign).
        let c = &strong.coeffs;
        let expect = [2.0 / 5.0_f64.sqrt(), -1.0 / 5.0_f64.sqrt()];
        let align = (c[0] * expect[0] + c[1] * expect[1]).abs();
        assert!(align > 0.999, "alignment {align}");
    }

    #[test]
    fn quantile_bounds_tighten() {
        let x = near_line(500, 0.1, 4);
        let strict = learn_constraints(&x, &LearnOptions::default());
        let trimmed = learn_constraints(
            &x,
            &LearnOptions {
                bound_quantile: 0.05,
                ..LearnOptions::default()
            },
        );
        // Compare the width of the first (highest-variance) constraint.
        let w_strict = strict.projections()[0].ub - strict.projections()[0].lb;
        let w_trim = trimmed.projections()[0].ub - trimmed.projections()[0].lb;
        assert!(w_trim < w_strict);
    }

    #[test]
    fn max_projections_keeps_strongest() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let a: f64 = rng.gen_range(-1.0..1.0);
                let b: f64 = rng.gen_range(-1.0..1.0);
                // Third attribute is a near-constant combination.
                vec![a, b, 0.5 * a - 0.5 * b + rng.gen_range(-1e-3..1e-3)]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let cs = learn_constraints(
            &x,
            &LearnOptions {
                max_projections: Some(1),
                ..LearnOptions::default()
            },
        );
        assert_eq!(cs.len(), 1);
        // That single constraint is the near-constant direction: tiny std.
        assert!(cs.projections()[0].std < 0.01);
    }

    #[test]
    fn constant_data_yields_degenerate_but_valid_constraints() {
        let x = Matrix::from_rows(&(0..10).map(|_| vec![1.0, 2.0]).collect::<Vec<_>>());
        let cs = learn_constraints(&x, &LearnOptions::default());
        assert_eq!(cs.violation(&[1.0, 2.0]), 0.0);
        assert!(cs.violation(&[5.0, 5.0]) > 0.9, "any deviation saturates");
    }

    #[test]
    fn single_attribute_profile() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let cs = learn_constraints(&x, &LearnOptions::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.violation(&[2.0]), 0.0);
        assert!(cs.violation(&[10.0]) > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_partition_panics() {
        let _ = learn_constraints(&Matrix::zeros(0, 2), &LearnOptions::default());
    }
}
