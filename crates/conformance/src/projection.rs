//! A single conformance constraint `ϕ : ϵ_lb ≤ F(X) ≤ ϵ_ub`.

/// Guard against division by zero in the violation formula for degenerate
/// (zero-variance) projections — those are the *strongest* constraints, so a
/// tiny σ keeps their violation saturating quickly, as intended.
const MIN_SIGMA: f64 = 1e-9;

/// One arithmetic constraint over a linear projection of numeric attributes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Projection {
    /// Projection coefficients: `F(t) = coeffs · t`.
    pub coeffs: Vec<f64>,
    /// Lower bound `ϵ_lb` observed on the profiled data.
    pub lb: f64,
    /// Upper bound `ϵ_ub` observed on the profiled data.
    pub ub: f64,
    /// Standard deviation `σ(F)` of the projection on the profiled data.
    pub std: f64,
    /// Importance weight `qᵢ` (normalised within a [`crate::ConstraintSet`]).
    pub importance: f64,
}

impl Projection {
    /// Evaluate `F(t)`.
    #[inline]
    pub fn project(&self, t: &[f64]) -> f64 {
        debug_assert_eq!(t.len(), self.coeffs.len());
        cf_linalg::vector::dot(&self.coeffs, t)
    }

    /// `dist(F, t) = max(0, F(t) − ϵ_ub, ϵ_lb − F(t))` — how far outside the
    /// bounds the tuple projects; 0 inside.
    #[inline]
    pub fn distance(&self, t: &[f64]) -> f64 {
        let f = self.project(t);
        (f - self.ub).max(self.lb - f).max(0.0)
    }

    /// `⟦ϕ⟧(t) = η(dist/σ)` with `η(x) = 1 − e^{−x}` — in `[0, 1)`
    /// mathematically; saturates to exactly `1.0` in floating point when the
    /// exponent underflows.
    #[inline]
    pub fn violation(&self, t: &[f64]) -> f64 {
        let d = self.distance(t);
        if d == 0.0 {
            return 0.0;
        }
        1.0 - (-d / self.sigma()).exp()
    }

    /// The violation scale `σ(F)`, floored at `MIN_SIGMA`.
    #[inline]
    pub(crate) fn sigma(&self) -> f64 {
        self.std.max(MIN_SIGMA)
    }

    /// Boolean semantics: does the tuple satisfy the constraint?
    #[inline]
    pub fn satisfied(&self, t: &[f64]) -> bool {
        self.distance(t) == 0.0
    }

    /// Render like the paper's Example 6, e.g.
    /// `0.708 <= 0.477*X1 + 0.265*X2 <= 0.902`.
    pub fn display_with(&self, attr_names: &[String]) -> String {
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.abs() > 1e-12)
            .map(|(i, c)| {
                let name = attr_names
                    .get(i)
                    .map_or_else(|| format!("X{}", i + 1), Clone::clone);
                format!("{c:.3}*{name}")
            })
            .collect();
        let body = if terms.is_empty() {
            "0".to_string()
        } else {
            terms.join(" + ")
        };
        format!("{:.3} <= {} <= {:.3}", self.lb, body, self.ub)
    }
}

impl std::fmt::Display for Projection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display_with(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The majority-positive constraint of the paper's Example 6.
    fn example6_w() -> Projection {
        Projection {
            coeffs: vec![0.477, 0.265],
            lb: 0.708,
            ub: 0.902,
            std: 0.05,
            importance: 1.0,
        }
    }

    #[test]
    fn project_is_linear() {
        let p = example6_w();
        assert!((p.project(&[1.0, 1.0]) - 0.742).abs() < 1e-12);
        assert!((p.project(&[0.0, 0.0])).abs() < 1e-12);
    }

    #[test]
    fn distance_zero_inside_bounds() {
        let p = example6_w();
        // F = 0.742 ∈ [0.708, 0.902]
        assert_eq!(p.distance(&[1.0, 1.0]), 0.0);
        assert!(p.satisfied(&[1.0, 1.0]));
        assert_eq!(p.violation(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn distance_positive_outside_both_sides() {
        let p = example6_w();
        // Below: F(0,0) = 0 → dist = 0.708.
        assert!((p.distance(&[0.0, 0.0]) - 0.708).abs() < 1e-12);
        // Above: F(2,2) = 1.484 → dist = 0.582.
        assert!((p.distance(&[2.0, 2.0]) - 0.582).abs() < 1e-12);
        assert!(!p.satisfied(&[0.0, 0.0]));
    }

    #[test]
    fn violation_matches_eta_formula() {
        let p = example6_w();
        let d = p.distance(&[0.0, 0.0]);
        let expected = 1.0 - (-d / 0.05).exp();
        assert!((p.violation(&[0.0, 0.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn violation_bounded_by_one() {
        let p = example6_w();
        let v = p.violation(&[1000.0, 1000.0]);
        assert!(v <= 1.0 && v > 0.999);
    }

    #[test]
    fn violation_monotone_in_distance() {
        let p = example6_w();
        let mut last = 0.0;
        for k in 0..20 {
            let t = [1.0 + k as f64, 1.0];
            let v = p.violation(&t);
            assert!(v >= last, "violation should not decrease moving away");
            last = v;
        }
    }

    #[test]
    fn zero_sigma_is_guarded() {
        let p = Projection {
            coeffs: vec![1.0],
            lb: 0.0,
            ub: 0.0,
            std: 0.0,
            importance: 1.0,
        };
        let v = p.violation(&[0.5]);
        assert!(
            v > 0.999 && v <= 1.0,
            "degenerate projection saturates: {v}"
        );
        assert_eq!(p.violation(&[0.0]), 0.0);
    }

    #[test]
    fn display_renders_example6_style() {
        let p = example6_w();
        let s = p.display_with(&["X1".into(), "X2".into()]);
        assert_eq!(s, "0.708 <= 0.477*X1 + 0.265*X2 <= 0.902");
        // Fallback naming without attribute names.
        assert_eq!(format!("{p}"), "0.708 <= 0.477*X1 + 0.265*X2 <= 0.902");
    }
}
