//! Conjunctive constraint sets `Φ` and collections `C` of them.

use crate::projection::Projection;

/// A conjunction `Φ = ϕ₁ ∧ … ∧ ϕᵣ` with quantitative violation semantics.
///
/// Importance weights are normalised at construction so `Σ qᵢ = 1`, making
/// the set violation `⟦Φ⟧(t) = Σ qᵢ·⟦ϕᵢ⟧(t)` a convex combination in `[0, 1]`
/// (1 is reached only when every conjunct's violation saturates).
///
/// Every projection of a set has the same width `d` (the attribute count
/// it was profiled on).
#[derive(Clone)]
pub struct ConstraintSet {
    projections: Vec<Projection>,
    /// Evaluation layout derived from `projections`; rebuilt wherever they
    /// are set or changed and never serialised.
    packed: Packed,
}

/// The projections of a set packed for [`ConstraintSet::violation`]: the
/// m×d coefficients transposed into one d×m row-major buffer (row `k`
/// holds coefficient `k` of every projection), so a register tile of
/// projections reads one contiguous slice per attribute, plus per-projection
/// bound, scale and weight vectors.
#[derive(Clone)]
struct Packed {
    coeffs_t: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// `σᵢ.max(MIN_SIGMA)`, the divisor `Projection::violation` uses.
    sigma: Vec<f64>,
    q: Vec<f64>,
    /// The fold's starting value: `-0.0` when every importance is `-0.0`,
    /// `+0.0` otherwise (see [`Packed::fold_tile`]).
    zero: f64,
}

impl Packed {
    /// Pack `projections`, which must share one width `d ≥ 1`.
    fn new(projections: &[Projection]) -> Self {
        let m = projections.len();
        let d = projections[0].coeffs.len();
        let mut coeffs_t = vec![0.0; d * m];
        for (i, p) in projections.iter().enumerate() {
            for (k, &c) in p.coeffs.iter().enumerate() {
                coeffs_t[k * m + i] = c;
            }
        }
        let q: Vec<f64> = projections.iter().map(|p| p.importance).collect();
        let zero = if q.iter().all(|q| q.to_bits() == (-0.0f64).to_bits()) {
            -0.0
        } else {
            0.0
        };
        Self {
            coeffs_t,
            lb: projections.iter().map(|p| p.lb).collect(),
            ub: projections.iter().map(|p| p.ub).collect(),
            sigma: projections.iter().map(Projection::sigma).collect(),
            q,
            zero,
        }
    }

    /// Evaluate the `W` projections `j..j + W` on `t` and fold the weighted
    /// violations of those that violate into `total`, in projection order.
    ///
    /// Each projection accumulates k-ascending from `-0.0` in its own lane —
    /// the exact operation sequence of `vector::dot`'s `Iterator::sum`, so
    /// `Fᵢ(t)` is bit-identical to `Projection::project` — and the `[f64; W]`
    /// accumulators are independent chains the autovectoriser keeps in
    /// registers. Zero coefficients are multiplied through, so IEEE
    /// propagation (0 × inf = NaN) matches the scalar path. The W distances
    /// are computed lane-wise too, and the tile branches once on whether any
    /// of them is non-zero.
    ///
    /// Only violated projections are folded. A conforming projection's term
    /// is `qᵢ·0.0`, a signed zero because every `qᵢ` is finite (both
    /// constructors reject the rest), and no term is negative. So the
    /// in-order sum over all m terms, started from `-0.0`, only ever adds a
    /// skipped zero to a zero (where it can decide the sign) or to a
    /// positive total or NaN (which it leaves unchanged). Starting from
    /// [`Packed::zero`] instead settles that sign at pack time: the full
    /// sum is `-0.0` only when every term is, which is when every `qᵢ` is
    /// `-0.0`.
    ///
    /// The body is compiled twice: once for the build target (2-lane SSE2
    /// on default x86-64) and once inside [`Packed::violation_avx2`], where
    /// the same lanes become 4-wide. Neither copy enables `fma`: rustc never
    /// contracts `c * x + a` into a fused multiply-add by itself, so both
    /// round every product and every sum in the same order and agree to the
    /// bit. One tiling serves both copies: a 32-wide tile made the AVX2
    /// copy only ~5% faster and would spill the portable copy's 16 SSE
    /// registers.
    #[inline(always)]
    fn fold_tile<const W: usize>(&self, t: &[f64], j: usize, mut total: f64) -> f64 {
        let m = self.q.len();
        let mut acc = [-0.0f64; W];
        for (&x, row) in t.iter().zip(self.coeffs_t.chunks_exact(m)) {
            let c: &[f64; W] = row[j..j + W].try_into().expect("tile inside the row");
            for (a, &c) in acc.iter_mut().zip(c) {
                *a += c * x;
            }
        }
        let lb: &[f64; W] = self.lb[j..j + W].try_into().expect("tile inside lb");
        let ub: &[f64; W] = self.ub[j..j + W].try_into().expect("tile inside ub");
        let mut dist = [0.0f64; W];
        let mut any = false;
        for (((d, f), &lb), &ub) in dist.iter_mut().zip(acc).zip(lb).zip(ub) {
            // `Projection::distance`, verbatim.
            *d = (f - ub).max(lb - f).max(0.0);
            any |= *d != 0.0;
        }
        if any {
            for (i, d) in (j..j + W).zip(dist) {
                // `Projection::violation` where it is non-zero.
                if d != 0.0 {
                    total += self.q[i] * (1.0 - (-d / self.sigma[i]).exp());
                }
            }
        }
        total
    }

    /// `⟦Φ⟧(t)` over register tiles of 16, then 8, then 1 projections.
    #[inline(always)]
    fn violation(&self, t: &[f64]) -> f64 {
        let m = self.q.len();
        debug_assert_eq!(t.len() * m, self.coeffs_t.len());
        let mut total = self.zero;
        let mut j = 0;
        while j + 16 <= m {
            total = self.fold_tile::<16>(t, j, total);
            j += 16;
        }
        while j + 8 <= m {
            total = self.fold_tile::<8>(t, j, total);
            j += 8;
        }
        while j < m {
            total = self.fold_tile::<1>(t, j, total);
            j += 1;
        }
        total
    }

    /// [`Packed::violation`] compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn violation_avx2(&self, t: &[f64]) -> f64 {
        self.violation(t)
    }
}

/// Whether every projection has the same, non-zero width.
fn uniform_width(projections: &[Projection]) -> bool {
    let d = projections.first().map_or(0, |p| p.coeffs.len());
    d > 0 && projections.iter().all(|p| p.coeffs.len() == d)
}

impl ConstraintSet {
    /// Build a set, normalising the importance weights to sum to 1.
    ///
    /// # Panics
    /// Panics if `projections` is empty, if their coefficient vectors are
    /// empty or differ in width, if any importance is not finite, or if
    /// importances are all non-positive or sum past `f64::MAX`.
    pub fn new(mut projections: Vec<Projection>) -> Self {
        assert!(!projections.is_empty(), "a constraint set cannot be empty");
        assert!(
            uniform_width(&projections),
            "projections must share one non-zero width"
        );
        assert!(
            projections.iter().all(|p| p.importance.is_finite()),
            "importance weights must be finite"
        );
        let total: f64 = projections.iter().map(|p| p.importance.max(0.0)).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "importance weights must have positive, finite mass"
        );
        for p in &mut projections {
            p.importance = p.importance.max(0.0) / total;
        }
        Self::from_projections(projections)
    }

    /// Wrap validated projections, deriving the packed layout.
    fn from_projections(projections: Vec<Projection>) -> Self {
        let packed = Packed::new(&projections);
        Self {
            projections,
            packed,
        }
    }

    /// The constraints in this set.
    pub fn projections(&self) -> &[Projection] {
        &self.projections
    }

    /// Number of conjuncts `r`.
    pub fn len(&self) -> usize {
        self.projections.len()
    }

    /// Whether the set is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.projections.is_empty()
    }

    /// Quantitative violation `⟦Φ⟧(t) ∈ [0, 1]` (paper Eq. 1).
    ///
    /// Runs over the packed layout in register tiles of 16, then 8, then 1
    /// projections, folds only the terms of the projections `t` violates
    /// (a conforming term is `±0.0`, so skipping it is exact), and is
    /// bit-identical to `Σ p.importance * p.violation(t)` summed in
    /// projection order.
    ///
    /// On an x86-64 CPU with AVX2 the same tiling runs as a copy compiled
    /// for AVX2, chosen at run time (the feature probe is cached by `std`
    /// after the first call); elsewhere it runs
    /// [`ConstraintSet::violation_portable`]. The AVX2 copy enables no
    /// `fma`, so both paths return the same bits.
    pub fn violation(&self, t: &[f64]) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `violation_avx2` only requires AVX2, and
            // `is_x86_feature_detected!` just confirmed this CPU has it.
            return unsafe { self.packed.violation_avx2(t) };
        }
        self.violation_portable(t)
    }

    /// [`ConstraintSet::violation`] on the build target's baseline
    /// instruction set, whatever the CPU supports. Public so tests and
    /// benches can pin the fallback path on a host that would dispatch
    /// past it.
    #[doc(hidden)]
    pub fn violation_portable(&self, t: &[f64]) -> f64 {
        self.packed.violation(t)
    }

    /// Boolean semantics: `Φ(t) = 1` iff every conjunct holds.
    pub fn satisfied(&self, t: &[f64]) -> bool {
        self.projections.iter().all(|p| p.satisfied(t))
    }

    /// Mean violation over the rows of a matrix (reported in Example 6).
    pub fn mean_violation(&self, x: &cf_linalg::Matrix) -> f64 {
        if x.rows() == 0 {
            return 0.0;
        }
        x.iter_rows().map(|row| self.violation(row)).sum::<f64>() / x.rows() as f64
    }

    /// Recompute each projection's `σ(Fᵢ)` over the rows of `x`, keeping the
    /// bounds untouched.
    ///
    /// Used by DiffFair after Algorithm-3 filtering: bounds come from the
    /// dense core `D′`, but scaling the violation by the *full* cell's
    /// projection spread keeps `⟦Φ⟧` discriminative far from the core
    /// (σ from the tiny filtered subset saturates `η` within a fraction of a
    /// cluster width, making distant tuples all look equally violating).
    pub fn recompute_stds(&mut self, x: &cf_linalg::Matrix) {
        for p in &mut self.projections {
            let values: Vec<f64> = x
                .iter_rows()
                .map(|row| cf_linalg::vector::dot(&p.coeffs, row))
                .collect();
            let std = cf_linalg::vector::std_dev(&values);
            if std > 0.0 {
                p.std = std;
            }
        }
        self.packed = Packed::new(&self.projections);
    }

    /// Render each conjunct on its own line (Example 6 style).
    pub fn display_with(&self, attr_names: &[String]) -> String {
        self.projections
            .iter()
            .map(|p| p.display_with(attr_names))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// The packed layout is a function of the projections, so equality and
// debug output cover the projections alone.
impl PartialEq for ConstraintSet {
    fn eq(&self, other: &Self) -> bool {
        self.projections == other.projections
    }
}

impl std::fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstraintSet")
            .field("projections", &self.projections)
            .finish()
    }
}

// Manual serde impls: deserialisation must *not* route through
// [`ConstraintSet::new`], whose importance re-normalisation divides by a sum
// that is only approximately 1 — that ulp-level drift would break the
// bit-identical restore contract checkpointing relies on. The stored
// (already normalised) importances are reinstated verbatim.
impl serde::Serialize for ConstraintSet {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| w.field(b"\"projections\":", &self.projections));
    }
}

impl serde::Deserialize for ConstraintSet {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let projections: Vec<Projection> =
            serde::Deserialize::from_value(v.get_or_err("projections")?)?;
        if projections.is_empty() {
            return Err(serde::Error::msg("a constraint set cannot be empty"));
        }
        if !uniform_width(&projections) {
            return Err(serde::Error::msg(
                "constraint projections must share one non-zero width",
            ));
        }
        // A non-finite weight would turn every violation into NaN, which
        // no threshold comparison ever flags.
        if projections
            .iter()
            .any(|p| !p.importance.is_finite() || p.importance < 0.0)
        {
            return Err(serde::Error::msg(
                "constraint importances must be finite and non-negative",
            ));
        }
        Ok(ConstraintSet::from_projections(projections))
    }
}

/// A collection `C` of constraint sets — e.g. one `Φ` per label class within
/// a group, as Algorithm 1 builds (`Cw`, `Cu`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstraintFamily {
    sets: Vec<ConstraintSet>,
}

impl ConstraintFamily {
    /// An empty family (sets added with [`ConstraintFamily::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from existing sets.
    pub fn from_sets(sets: Vec<ConstraintSet>) -> Self {
        Self { sets }
    }

    /// Add a set (Algorithm 1 line 8: `C ← C ∪ Φ`).
    pub fn push(&mut self, set: ConstraintSet) {
        self.sets.push(set);
    }

    /// The member sets.
    pub fn sets(&self) -> &[ConstraintSet] {
        &self.sets
    }

    /// Number of member sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the family holds no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// `v(t) = min_{Φ ∈ C} ⟦Φ⟧(t)` — Algorithm 1 lines 15–16. Returns
    /// `f64::INFINITY` for an empty family so an absent group never wins
    /// the model-selection comparison.
    pub fn min_violation(&self, t: &[f64]) -> f64 {
        self.sets
            .iter()
            .map(|s| s.violation(t))
            .fold(f64::INFINITY, f64::min)
    }

    /// Index of the set with minimal violation (`None` when empty).
    pub fn argmin_violation(&self, t: &[f64]) -> Option<usize> {
        let violations: Vec<f64> = self.sets.iter().map(|s| s.violation(t)).collect();
        cf_linalg::vector::argmin(&violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj(coeffs: Vec<f64>, lb: f64, ub: f64, std: f64, importance: f64) -> Projection {
        Projection {
            coeffs,
            lb,
            ub,
            std,
            importance,
        }
    }

    #[test]
    fn importance_normalised_at_construction() {
        let s = ConstraintSet::new(vec![
            proj(vec![1.0, 0.0], 0.0, 1.0, 0.1, 3.0),
            proj(vec![0.0, 1.0], 0.0, 1.0, 0.1, 1.0),
        ]);
        let q: Vec<f64> = s.projections().iter().map(|p| p.importance).collect();
        assert!((q[0] - 0.75).abs() < 1e-12);
        assert!((q[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn violation_is_weighted_sum() {
        let s = ConstraintSet::new(vec![
            proj(vec![1.0, 0.0], 0.0, 1.0, 0.5, 1.0),
            proj(vec![0.0, 1.0], 0.0, 1.0, 0.5, 1.0),
        ]);
        // Point (2, 0.5): first constraint violated (dist 1), second satisfied.
        let expected = 0.5 * (1.0 - (-1.0 / 0.5_f64).exp());
        assert!((s.violation(&[2.0, 0.5]) - expected).abs() < 1e-12);
        assert!(!s.satisfied(&[2.0, 0.5]));
        assert!(s.satisfied(&[0.5, 0.5]));
    }

    #[test]
    fn violation_in_unit_interval() {
        let s = ConstraintSet::new(vec![
            proj(vec![1.0], 0.0, 1.0, 0.001, 1.0),
            proj(vec![-1.0], -1.0, 0.0, 0.001, 1.0),
        ]);
        let v = s.violation(&[1e9]);
        assert!((0.0..=1.0).contains(&v));
        assert!(v > 0.99);
        assert_eq!(s.violation(&[0.5]), 0.0);
    }

    #[test]
    fn mean_violation_averages() {
        let s = ConstraintSet::new(vec![proj(vec![1.0], 0.0, 1.0, 1.0, 1.0)]);
        let x = cf_linalg::Matrix::from_rows(&[vec![0.5], vec![2.0]]);
        let v_inside = 0.0;
        let v_outside = 1.0 - (-1.0_f64).exp();
        assert!((s.mean_violation(&x) - (v_inside + v_outside) / 2.0).abs() < 1e-12);
        assert_eq!(s.mean_violation(&cf_linalg::Matrix::zeros(0, 1)), 0.0);
    }

    #[test]
    fn family_min_violation_selects_best_set() {
        let a = ConstraintSet::new(vec![proj(vec![1.0], 0.0, 1.0, 1.0, 1.0)]);
        let b = ConstraintSet::new(vec![proj(vec![1.0], 10.0, 11.0, 1.0, 1.0)]);
        let fam = ConstraintFamily::from_sets(vec![a, b]);
        // 0.5 satisfies set 0; 10.5 satisfies set 1.
        assert_eq!(fam.min_violation(&[0.5]), 0.0);
        assert_eq!(fam.min_violation(&[10.5]), 0.0);
        assert_eq!(fam.argmin_violation(&[0.5]), Some(0));
        assert_eq!(fam.argmin_violation(&[10.5]), Some(1));
        // 5.5 violates both, min is positive.
        assert!(fam.min_violation(&[5.5]) > 0.0);
    }

    #[test]
    fn empty_family_never_wins() {
        let fam = ConstraintFamily::new();
        assert!(fam.is_empty());
        assert_eq!(fam.min_violation(&[0.0]), f64::INFINITY);
        assert_eq!(fam.argmin_violation(&[0.0]), None);
    }

    #[test]
    #[should_panic]
    fn empty_set_rejected() {
        let _ = ConstraintSet::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "share one non-zero width")]
    fn ragged_set_rejected() {
        let _ = ConstraintSet::new(vec![
            proj(vec![1.0, 0.0], 0.0, 1.0, 0.1, 1.0),
            proj(vec![1.0], 0.0, 1.0, 0.1, 1.0),
        ]);
    }

    #[test]
    fn non_finite_importances_are_rejected_by_both_constructors() {
        use serde::{Deserialize, Value};
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let projections = vec![
                proj(vec![1.0, 0.0], 0.0, 1.0, 0.1, 1.0),
                proj(vec![0.0, 1.0], 0.0, 1.0, 0.1, bad),
            ];
            let built = std::panic::catch_unwind(|| ConstraintSet::new(projections.clone()));
            assert!(built.is_err(), "new accepted importance {bad}");
            // JSON text carries a non-finite number only as `null`; the
            // tree here holds it as is, for the set's own check to refuse.
            let mut doc = serde_json::to_value(&ConstraintSet::new(vec![
                proj(vec![1.0, 0.0], 0.0, 1.0, 0.1, 1.0),
                proj(vec![0.0, 1.0], 0.0, 1.0, 0.1, 1.0),
            ]));
            let Value::Object(fields) = &mut doc else {
                panic!("a constraint set is an object")
            };
            let Value::Array(items) = &mut fields[0].1 else {
                panic!("a constraint set lists its projections")
            };
            let Value::Object(second) = &mut items[1] else {
                panic!("a projection is an object")
            };
            for (key, value) in second.iter_mut() {
                if key == "importance" {
                    *value = Value::Number(bad);
                }
            }
            let err = ConstraintSet::from_value(&doc).unwrap_err();
            assert!(err.to_string().contains("finite"), "{bad}: got {err}");
        }
    }

    #[test]
    #[should_panic(expected = "positive, finite mass")]
    fn overflowing_importance_mass_rejected() {
        let _ = ConstraintSet::new(vec![
            proj(vec![1.0], 0.0, 1.0, 0.1, f64::MAX),
            proj(vec![1.0], 0.0, 1.0, 0.1, f64::MAX),
        ]);
    }

    #[test]
    fn ragged_or_zero_width_documents_are_errors() {
        use serde::Deserialize;
        let doc = |projections: Vec<Projection>| {
            serde::Value::Object(vec![(
                "projections".into(),
                serde_json::to_value(&projections),
            )])
        };
        for projections in [
            vec![
                proj(vec![1.0, 0.0], 0.0, 1.0, 0.1, 0.5),
                proj(vec![1.0], 0.0, 1.0, 0.1, 0.5),
            ],
            vec![proj(vec![], 0.0, 1.0, 0.1, 1.0)],
        ] {
            let err = ConstraintSet::from_value(&doc(projections)).unwrap_err();
            assert!(err.to_string().contains("width"), "got: {err}");
        }
        let set = ConstraintSet::new(vec![proj(vec![1.0, 2.0], 0.0, 1.0, 0.1, 1.0)]);
        let back = ConstraintSet::from_value(&serde_json::to_value(&set)).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.violation(&[3.0, 1.0]), set.violation(&[3.0, 1.0]));
    }

    #[test]
    fn recompute_stds_rescales_violation_not_bounds() {
        // Bounds from a tight core; σ rescaled on a wider population.
        let core = cf_linalg::Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2]]);
        let wide = cf_linalg::Matrix::from_rows(&[vec![-3.0], vec![0.0], vec![3.0]]);
        let mut s = crate::learn::learn_constraints(&core, &crate::learn::LearnOptions::default());
        let before = s.violation(&[2.0]);
        let (lb, ub) = (s.projections()[0].lb, s.projections()[0].ub);
        s.recompute_stds(&wide);
        assert_eq!(s.projections()[0].lb, lb, "bounds unchanged");
        assert_eq!(s.projections()[0].ub, ub);
        let after = s.violation(&[2.0]);
        assert!(
            after < before,
            "wider σ saturates slower: {after} < {before}"
        );
        // Conformance (violation = 0) is unchanged inside the bounds.
        assert_eq!(s.violation(&[0.1]), 0.0);
        // Zero-variance rescale data leaves σ untouched.
        let constant = cf_linalg::Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let sigma = s.projections()[0].std;
        s.recompute_stds(&constant);
        assert_eq!(s.projections()[0].std, sigma);
    }

    #[test]
    fn example6_average_violations() {
        // Reproduce the spirit of Example 6: points inside the minority
        // constraint region have ⟦ϕu⟧ = 0 while ⟦ϕw⟧ > 0.
        let phi_w = ConstraintSet::new(vec![proj(vec![0.477, 0.265], 0.708, 0.902, 0.05, 1.0)]);
        let phi_u = ConstraintSet::new(vec![proj(vec![-0.519, -0.16], -0.912, -0.771, 0.05, 1.0)]);
        // The corner of the minority-positive dense region of Fig. 1
        // (X1 = 1.5, X2 = 0.8): F_w = 0.9275 > 0.902, F_u = -0.9065 within bounds.
        let t = [1.5, 0.8];
        assert_eq!(
            phi_u.violation(&t),
            0.0,
            "conforms to the minority constraints"
        );
        assert!(
            phi_w.violation(&t) > 0.0,
            "violates the majority constraints"
        );
    }
}
