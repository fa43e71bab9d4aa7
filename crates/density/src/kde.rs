//! Exact Gaussian-kernel density estimation.
//!
//! Attributes are standardised before kernel evaluation so one scalar
//! bandwidth (Scott's rule, `h = n^{-1/(d+4)}`) is appropriate for every
//! dimension — the same convention scikit-learn's `KernelDensity` users
//! apply, and the estimator the paper plugs into Algorithm 3.

use cf_linalg::{stats::Standardizer, Matrix};

/// A fitted Gaussian KDE over the rows of a data matrix.
#[derive(Debug, Clone)]
pub struct Kde {
    /// Standardised training points.
    points: Matrix,
    /// Standardisation fitted on the training points.
    standardizer: Standardizer,
    /// Kernel bandwidth in standardised units.
    bandwidth: f64,
    /// `(2π)^{d/2} (nh^d)` normalisation denominator.
    norm: f64,
}

impl Kde {
    /// Fit with Scott's-rule bandwidth.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn fit(x: &Matrix) -> Self {
        let n = x.rows();
        let d = x.cols().max(1);
        assert!(n > 0, "KDE requires at least one point");
        let bandwidth = (n as f64).powf(-1.0 / (d as f64 + 4.0));
        Self::fit_with_bandwidth(x, bandwidth)
    }

    /// Fit with an explicit bandwidth (standardised units).
    ///
    /// # Panics
    /// Panics on an empty matrix or non-positive bandwidth.
    pub fn fit_with_bandwidth(x: &Matrix, bandwidth: f64) -> Self {
        assert!(x.rows() > 0, "KDE requires at least one point");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let standardizer = Standardizer::fit(x);
        let points = standardizer.transform(x);
        let n = points.rows() as f64;
        let d = points.cols() as f64;
        let norm = (2.0 * std::f64::consts::PI).powf(d / 2.0) * n * bandwidth.powf(d);
        Self {
            points,
            standardizer,
            bandwidth,
            norm,
        }
    }

    /// The bandwidth in use (standardised units).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// Whether the KDE holds zero points (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.points.rows() == 0
    }

    /// Density at a single point (original, unstandardised coordinates).
    pub fn density(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.points.cols(), "dimension mismatch");
        let mut q = point.to_vec();
        self.standardizer.transform_point(&mut q);
        self.density_standardized(&q)
    }

    /// Density for a standardised query point.
    pub(crate) fn density_standardized(&self, q: &[f64]) -> f64 {
        let h2 = 2.0 * self.bandwidth * self.bandwidth;
        let mut sum = 0.0;
        for row in self.points.iter_rows() {
            let d2 = cf_linalg::vector::dist2_sq(row, q);
            sum += (-d2 / h2).exp();
        }
        sum / self.norm
    }

    /// Densities of every row of `x` (original coordinates).
    pub fn densities(&self, x: &Matrix) -> Vec<f64> {
        let z = self.standardizer.transform(x);
        z.iter_rows()
            .map(|q| self.density_standardized(q))
            .collect()
    }

    /// Densities of the training points themselves (leave-in estimates,
    /// which is what Algorithm 3 ranks by).
    ///
    /// One pass over unordered pairs `i < j`: the kernel is symmetric
    /// (`dist2_sq` is exactly so in IEEE arithmetic, `(x−y)² == (y−x)²`),
    /// so each value is computed once and added to both sums, halving the
    /// `exp` calls. Every `sums[i]` still receives its terms in ascending
    /// partner order from `0.0` — earlier partners from earlier outer
    /// iterations, then the self term `exp(-0) = 1`, then later partners —
    /// so the result is bit-identical to [`Kde::densities`] on the
    /// training matrix.
    pub fn self_densities(&self) -> Vec<f64> {
        let n = self.points.rows();
        let h2 = 2.0 * self.bandwidth * self.bandwidth;
        let mut sums = vec![0.0; n];
        for i in 0..n {
            let pi = self.points.row(i);
            sums[i] += 1.0;
            for j in i + 1..n {
                let k = (-cf_linalg::vector::dist2_sq(self.points.row(j), pi) / h2).exp();
                sums[i] += k;
                sums[j] += k;
            }
        }
        sums.into_iter().map(|s| s / self.norm).collect()
    }

    /// Borrow the standardised training points (used by [`crate::TreeKde`]).
    pub(crate) fn standardized_points(&self) -> &Matrix {
        &self.points
    }

    /// Borrow the standardiser (used by [`crate::TreeKde`]).
    pub(crate) fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The normalisation constant (used by [`crate::TreeKde`]).
    pub(crate) fn norm(&self) -> f64 {
        self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_and_outlier() -> Matrix {
        // 5 points tightly clustered at the origin, one far away.
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![-0.1, 0.0],
            vec![0.0, -0.1],
            vec![10.0, 10.0],
        ])
    }

    #[test]
    fn cluster_points_are_denser_than_outliers() {
        let kde = Kde::fit(&cluster_and_outlier());
        let d = kde.self_densities();
        let outlier = d[5];
        for (i, &di) in d.iter().take(5).enumerate() {
            assert!(
                di > outlier,
                "cluster point {i} should out-dense the outlier"
            );
        }
    }

    #[test]
    fn density_positive_everywhere() {
        let kde = Kde::fit(&cluster_and_outlier());
        assert!(kde.density(&[100.0, -100.0]) >= 0.0);
        assert!(kde.density(&[0.0, 0.0]) > 0.0);
    }

    #[test]
    fn density_decreases_away_from_mass() {
        let kde = Kde::fit(&cluster_and_outlier());
        let near = kde.density(&[0.0, 0.0]);
        let mid = kde.density(&[3.0, 3.0]);
        let far = kde.density(&[8.0, 8.0]);
        assert!(near > mid);
        // `far` is close to the outlier point so it may exceed `mid`; only
        // the cluster-vs-mid ordering is a stable property.
        assert!(far > 0.0);
    }

    #[test]
    fn scott_bandwidth_shrinks_with_n() {
        let small = Kde::fit(&Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]));
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64 / 100.0]).collect();
        let large = Kde::fit(&Matrix::from_rows(&rows));
        assert!(large.bandwidth() < small.bandwidth());
    }

    #[test]
    fn densities_match_pointwise_density() {
        let x = cluster_and_outlier();
        let kde = Kde::fit(&x);
        let batch = kde.densities(&x);
        for (i, &b) in batch.iter().enumerate() {
            let single = kde.density(x.row(i));
            assert!((b - single).abs() < 1e-12);
        }
    }

    #[test]
    fn single_point_kde_is_finite() {
        let kde = Kde::fit(&Matrix::from_rows(&[vec![1.0, 2.0]]));
        let d = kde.density(&[1.0, 2.0]);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = Kde::fit(&Matrix::zeros(0, 2));
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let kde = Kde::fit(&Matrix::from_rows(&[vec![0.0, 0.0]]));
        let _ = kde.density(&[0.0]);
    }
}
