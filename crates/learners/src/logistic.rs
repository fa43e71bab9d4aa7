//! Weighted logistic regression via damped Newton iterations (IRLS).
//!
//! The feature matrices in this workspace are min–max normalised to `[0, 1]`
//! (paper §IV preprocessing), which compresses informative directions and
//! makes first-order methods crawl; Newton steps are scale-invariant and
//! converge in a handful of iterations at these dimensionalities (d ≤ ~150).
//! A step-halving line search on the regularised loss keeps every iteration
//! monotone, so training is robust to the extreme instance weights the
//! fairness interventions produce. Deterministic (zero initialisation, fixed
//! schedule): repeated experiment runs differ only through the data seeds.

use crate::{check_scorable, sigmoid, validate_fit_inputs, LearnError, Learner, Result};
use cf_linalg::{cholesky, Matrix};

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LogisticRegressionConfig {
    /// Maximum number of Newton iterations.
    pub max_iter: usize,
    /// Stop when the loss improves by less than this between iterations.
    pub tol: f64,
    /// L2 regularisation strength on the non-intercept coefficients.
    pub l2: f64,
    /// Whether to fit an intercept term.
    pub fit_intercept: bool,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            max_iter: 50,
            tol: 1e-9,
            l2: 1e-4,
            fit_intercept: true,
        }
    }
}

/// Weighted binary logistic regression.
///
/// Serialisable: the fitted coefficients and intercept round-trip
/// bit-exactly through the JSON shim, so a deserialised model scores
/// identically to the original (the checkpoint/restore contract).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    /// Learned coefficients (one per feature), empty until fitted.
    coefficients: Vec<f64>,
    /// Learned intercept.
    intercept: f64,
    fitted: bool,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new(LogisticRegressionConfig::default())
    }
}

impl LogisticRegression {
    /// Create an unfitted model with the given hyperparameters.
    pub fn new(config: LogisticRegressionConfig) -> Self {
        Self {
            config,
            coefficients: Vec::new(),
            intercept: 0.0,
            fitted: false,
        }
    }

    /// Learned coefficients (empty before `fit`).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Weighted regularised log-loss at the given parameters.
    fn loss(&self, x: &Matrix, y: &[f64], w: &[f64], beta: &[f64], b0: f64, wsum: f64) -> f64 {
        let mut nll = 0.0;
        for ((row, &yi), &wi) in x.iter_rows().zip(y).zip(w) {
            let z = cf_linalg::vector::dot(beta, row) + b0;
            // log(1 + e^{-z·sign}) written stably via log1p.
            let log_p = -((-z).exp().ln_1p()); // log σ(z)
            let log_1p = -(z.exp().ln_1p()); // log (1-σ(z))
            let (log_p, log_1p) = if z > 35.0 {
                (0.0, -z)
            } else if z < -35.0 {
                (z, 0.0)
            } else {
                (log_p, log_1p)
            };
            nll -= wi * (yi * log_p + (1.0 - yi) * log_1p);
        }
        let reg = 0.5 * self.config.l2 * cf_linalg::vector::dot(beta, beta);
        nll / wsum + reg
    }
}

impl Learner for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()> {
        let w = validate_fit_inputs(x, y, weights)?;
        let wsum: f64 = w.iter().sum();
        let d = x.cols();
        // Parameter layout: [β₀ … β_{d-1}, intercept].
        let dim = d + 1;
        let mut theta = vec![0.0; dim];
        let mut prev_loss = self.loss(x, y, &w, &theta[..d], theta[d], wsum);

        // Hessian floor keeps the Newton system well-posed even when the
        // model saturates (p ∈ {0, 1} makes p(1−p) vanish).
        const HESS_RIDGE: f64 = 1e-8;

        for _ in 0..self.config.max_iter {
            // Gradient and Hessian of the weighted mean log-loss.
            let mut grad = vec![0.0; dim];
            let mut hess = Matrix::zeros(dim, dim);
            for ((row, &yi), &wi) in x.iter_rows().zip(y).zip(&w) {
                let z = cf_linalg::vector::dot(&theta[..d], row) + theta[d];
                let p = sigmoid(z);
                let e = wi * (p - yi);
                cf_linalg::vector::axpy(e, row, &mut grad[..d]);
                grad[d] += e;
                let hw = (wi * p * (1.0 - p)).max(0.0);
                if hw == 0.0 {
                    continue;
                }
                // Upper triangle of hw · [row, 1][row, 1]ᵀ.
                for i in 0..d {
                    let hi = hw * row[i];
                    if hi == 0.0 {
                        continue;
                    }
                    let hrow = hess.row_mut(i);
                    for j in i..d {
                        hrow[j] += hi * row[j];
                    }
                    hrow[d] += hi;
                }
                hess[(d, d)] += hw;
            }
            for i in 0..d {
                grad[i] = grad[i] / wsum + self.config.l2 * theta[i];
            }
            grad[d] /= wsum;
            for i in 0..dim {
                for j in i..dim {
                    let v = hess[(i, j)] / wsum;
                    hess[(i, j)] = v;
                    hess[(j, i)] = v;
                }
            }
            for i in 0..d {
                hess[(i, i)] += self.config.l2;
            }
            hess[(d, d)] += HESS_RIDGE;
            for i in 0..dim {
                hess[(i, i)] += HESS_RIDGE;
            }

            let Ok(factor) = cholesky(&hess) else {
                break; // Degenerate curvature: keep the current parameters.
            };
            let Ok(step) = factor.solve(&grad) else {
                break;
            };

            // Step-halving line search keeps the loss monotone.
            let mut accepted = false;
            let mut scale = 1.0;
            for _ in 0..30 {
                let mut cand = theta.clone();
                for (c, s) in cand.iter_mut().zip(&step) {
                    *c -= scale * s;
                }
                if !self.config.fit_intercept {
                    cand[d] = 0.0;
                }
                let cand_loss = self.loss(x, y, &w, &cand[..d], cand[d], wsum);
                if cand_loss <= prev_loss {
                    let improvement = prev_loss - cand_loss;
                    theta = cand;
                    prev_loss = cand_loss;
                    accepted = true;
                    if improvement < self.config.tol {
                        self.coefficients = theta[..d].to_vec();
                        self.intercept = theta[d];
                        self.fitted = true;
                        return Ok(());
                    }
                    break;
                }
                scale *= 0.5;
            }
            if !accepted {
                break; // No descent direction left: converged.
            }
        }

        self.coefficients = theta[..d].to_vec();
        self.intercept = theta[d];
        self.fitted = true;
        Ok(())
    }

    fn predict_margin(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_scorable(self.fitted, self.coefficients.len(), x)?;
        // The tiled kernel accumulates each row k-ascending with the
        // intercept added last — bit-identical to the per-row
        // `dot(coef, row) + intercept`, so scores (and the golden-fixture
        // artifacts downstream) are unchanged.
        x.affine_margins(&self.coefficients, self.intercept)
            .map_err(|e| LearnError::ShapeMismatch(e.to_string()))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Linearly separable blobs around (0,0) and (2,2).
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(2 * n);
        let mut y = Vec::with_capacity(2 * n);
        for _ in 0..n {
            rows.push(vec![rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            y.push(0.0);
            rows.push(vec![
                2.0 + rng.gen_range(-0.5..0.5),
                2.0 + rng.gen_range(-0.5..0.5),
            ]);
            y.push(1.0);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(100, 1);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        let pred = lr.predict(&x).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        assert!(accuracy(&truth, &pred) > 0.99);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = blobs(50, 2);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        for p in lr.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = blobs(60, 3);
        let mut a = LogisticRegression::default();
        let mut b = LogisticRegression::default();
        a.fit(&x, &y, None).unwrap();
        b.fit(&x, &y, None).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    fn weights_equal_duplication() {
        // Weighting a tuple by 3 must match duplicating it 3 times.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let w = vec![1.0, 3.0, 1.0, 1.0];

        let mut weighted = LogisticRegression::default();
        weighted.fit(&x, &y, Some(&w)).unwrap();

        let x_dup = Matrix::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![1.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
        ]);
        let y_dup = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0];
        let mut duplicated = LogisticRegression::default();
        duplicated.fit(&x_dup, &y_dup, None).unwrap();

        for (a, b) in weighted
            .coefficients()
            .iter()
            .zip(duplicated.coefficients())
        {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!((weighted.intercept() - duplicated.intercept()).abs() < 1e-3);
    }

    #[test]
    fn upweighting_positives_raises_their_probability() {
        // Noisy overlap region: upweighting class-1 tuples should push the
        // decision surface toward predicting 1 more often.
        let (x, y) = blobs(40, 4);
        let mut plain = LogisticRegression::default();
        plain.fit(&x, &y, None).unwrap();
        let w: Vec<f64> = y
            .iter()
            .map(|&yi| if yi > 0.5 { 10.0 } else { 1.0 })
            .collect();
        let mut boosted = LogisticRegression::default();
        boosted.fit(&x, &y, Some(&w)).unwrap();
        let probe = Matrix::from_rows(&[vec![1.0, 1.0]]); // midpoint
        let p_plain = plain.predict_proba(&probe).unwrap()[0];
        let p_boost = boosted.predict_proba(&probe).unwrap()[0];
        assert!(p_boost > p_plain, "{p_boost} should exceed {p_plain}");
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![1.0, 1.0, 1.0];
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        let p = lr.predict_proba(&x).unwrap();
        assert!(p.iter().all(|&v| v > 0.5));
    }

    #[test]
    fn unfitted_predict_errors() {
        let lr = LogisticRegression::default();
        assert!(matches!(
            lr.predict_proba(&Matrix::zeros(1, 1)),
            Err(LearnError::NotFitted)
        ));
    }

    #[test]
    fn feature_count_mismatch_errors() {
        let (x, y) = blobs(20, 5);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        assert!(matches!(
            lr.predict_proba(&Matrix::zeros(1, 5)),
            Err(LearnError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn no_intercept_config_respected() {
        let (x, y) = blobs(30, 6);
        let mut lr = LogisticRegression::new(LogisticRegressionConfig {
            fit_intercept: false,
            ..LogisticRegressionConfig::default()
        });
        lr.fit(&x, &y, None).unwrap();
        assert_eq!(lr.intercept(), 0.0);
    }
}
