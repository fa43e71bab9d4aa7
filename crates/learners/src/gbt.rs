//! XGBoost-style gradient boosted trees for binary classification.
//!
//! Second-order boosting with the logistic loss: per round, gradients
//! `g = w·(p − y)` and hessians `h = w·p(1−p)` feed an exact-greedy
//! regression tree; instance weights scale both, which makes weighting
//! equivalent to duplication — the property reweighing interventions need.
//! The feature columns are presorted once per fit and shared by every
//! round's tree, and each tree hands back its per-row leaf weights, so a
//! round never re-sorts a node or re-descends its own tree.

use crate::{
    check_scorable, sigmoid,
    tree::{FlatTree, PresortedFit, RegressionTree, TreeParams, CHAINS},
    validate_fit_inputs, Learner, Result,
};
use cf_linalg::Matrix;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// Hyperparameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage `η` applied to every tree's contribution.
    pub eta: f64,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// L2 regularisation `λ` on leaf weights.
    pub lambda: f64,
    /// Minimum split gain `γ`.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per round (1.0 = use every row).
    pub subsample: f64,
    /// Seed for subsampling (ignored when `subsample == 1.0`).
    pub seed: u64,
}

impl Default for GbtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 60,
            eta: 0.3,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            seed: 0,
        }
    }
}

// Manual serde impls: `seed` is a full-range `u64`, which the JSON shim's
// f64-backed numbers cannot carry exactly above 2^53 — it travels as a hex
// string instead, so subsampled retrains replay bit-identically after a
// restore.
impl serde::Serialize for GbtConfig {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| {
            w.field(b"\"n_rounds\":", &self.n_rounds);
            w.field(b"\"eta\":", &self.eta);
            w.field(b"\"max_depth\":", &self.max_depth);
            w.field(b"\"lambda\":", &self.lambda);
            w.field(b"\"gamma\":", &self.gamma);
            w.field(b"\"min_child_weight\":", &self.min_child_weight);
            w.field(b"\"subsample\":", &self.subsample);
            w.field(b"\"seed\":", &format!("{:016x}", self.seed));
        });
    }
}

impl serde::Deserialize for GbtConfig {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        use serde::Deserialize;
        let seed_hex = v
            .get_or_err("seed")?
            .as_str()
            .ok_or_else(|| serde::Error::msg("gbt seed must be a hex string"))?;
        let seed = u64::from_str_radix(seed_hex, 16)
            .map_err(|e| serde::Error::msg(format!("bad gbt seed `{seed_hex}`: {e}")))?;
        let config = GbtConfig {
            n_rounds: Deserialize::from_value(v.get_or_err("n_rounds")?)?,
            eta: Deserialize::from_value(v.get_or_err("eta")?)?,
            max_depth: Deserialize::from_value(v.get_or_err("max_depth")?)?,
            lambda: Deserialize::from_value(v.get_or_err("lambda")?)?,
            gamma: Deserialize::from_value(v.get_or_err("gamma")?)?,
            min_child_weight: Deserialize::from_value(v.get_or_err("min_child_weight")?)?,
            subsample: Deserialize::from_value(v.get_or_err("subsample")?)?,
            seed,
        };
        if !(config.subsample > 0.0 && config.subsample <= 1.0) {
            return Err(serde::Error::msg("subsample must be in (0, 1]"));
        }
        Ok(config)
    }
}

/// Gradient-boosted-tree binary classifier.
///
/// Serialisable: the fitted ensemble (every tree's splits and leaf weights,
/// plus the base score) round-trips bit-exactly through the JSON shim, so a
/// deserialised model scores identically to the original.
#[derive(Debug, Clone)]
pub struct Gbt {
    config: GbtConfig,
    trees: Vec<RegressionTree>,
    /// Initial log-odds (from the weighted base rate).
    base_score: f64,
    n_features: usize,
    fitted: bool,
    /// Each fitted tree's heap form for the batch scoring kernel, or `None`
    /// for a tree too deep to pad (see [`RegressionTree::flatten`]).
    /// Derived state: rebuilt at fit/deserialise time, never serialised.
    flat: Vec<Option<FlatTree>>,
}

impl Default for Gbt {
    fn default() -> Self {
        Self::new(GbtConfig::default())
    }
}

// Manual Serialize: the derive shim would emit every field, and `flat` is
// derived state — the wire format must stay the v4 node-enum tree document
// (exactly config/trees/base_score/n_features/fitted), so checkpoints
// written before the flat kernel existed restore unchanged and new
// checkpoints never persist the SoA form.
impl serde::Serialize for Gbt {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| {
            w.field(b"\"config\":", &self.config);
            w.field(b"\"trees\":", &self.trees);
            w.field(b"\"base_score\":", &self.base_score);
            w.field(b"\"n_features\":", &self.n_features);
            w.field(b"\"fitted\":", &self.fitted);
        });
    }
}

// Manual Deserialize: fields alone don't make a valid ensemble — every
// tree's split feature indices must stay inside the declared feature
// count, or a corrupted checkpoint would pass parsing and then panic with
// index-out-of-bounds inside `predict_row` at serve time. The flat kernel
// form is compiled here, after validation — old documents flatten on load.
impl serde::Deserialize for Gbt {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        use serde::Deserialize;
        let mut gbt = Gbt {
            config: Deserialize::from_value(v.get_or_err("config")?)?,
            trees: Deserialize::from_value(v.get_or_err("trees")?)?,
            base_score: Deserialize::from_value(v.get_or_err("base_score")?)?,
            n_features: Deserialize::from_value(v.get_or_err("n_features")?)?,
            fitted: Deserialize::from_value(v.get_or_err("fitted")?)?,
            flat: Vec::new(),
        };
        for (i, tree) in gbt.trees.iter().enumerate() {
            if let Some(f) = tree.max_feature_index() {
                if f >= gbt.n_features {
                    return Err(serde::Error::msg(format!(
                        "tree {i} splits on feature {f}; the model has {} features",
                        gbt.n_features
                    )));
                }
            }
        }
        gbt.rebuild_flat();
        Ok(gbt)
    }
}

impl Gbt {
    /// Create an unfitted model with the given hyperparameters.
    pub fn new(config: GbtConfig) -> Self {
        assert!(
            config.subsample > 0.0 && config.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        Self {
            config,
            trees: Vec::new(),
            base_score: 0.0,
            n_features: 0,
            fitted: false,
            flat: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the ensemble was fitted on (0 before `fit`).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Recompile the heap kernel forms from the recursive trees.
    fn rebuild_flat(&mut self) {
        self.flat = self.trees.iter().map(RegressionTree::flatten).collect();
    }

    /// Raw margins (log-odds) for every row of `x`, via the flat batch
    /// kernel: the margin buffer is initialised to the base score, then
    /// each compiled tree sweeps a whole block of rows before the next
    /// tree starts — one tree's node arrays stay L1-resident while rows
    /// stream, instead of every row chasing pointers through every tree.
    /// A tree with no heap form (see [`RegressionTree::flatten`]) walks
    /// each row of the block with the recursive walker at its place in
    /// the same loop, so every row's fold stays `base`, then `eta·tree` in
    /// boosting order.
    ///
    /// Rows are tiled into ~L1-sized blocks before the tree-outer loop:
    /// sweeping *all* rows per tree would re-stream the full feature
    /// block from memory once per tree (an ensemble-sized multiplier on
    /// memory traffic), while an L1-sized block is re-read from cache by
    /// every tree after the first.
    pub fn predict_margin_rows(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_scorable(self.fitted, self.n_features, x)?;
        let eta = self.config.eta;
        let mut margins = vec![self.base_score; x.rows()];
        let d = x.cols();
        let data = x.as_slice();
        // ~16 KiB of row data per block — half of a typical 32 KiB L1d,
        // leaving the other half for the tree being swept and the margin
        // slice (measured faster than a 32 KiB block, which makes rows
        // and nodes fight over the cache) — but never fewer rows than the
        // kernel keeps in flight.
        let block = (16 * 1024 / (d * std::mem::size_of::<f64>()).max(1)).max(CHAINS);
        let mut start = 0;
        while start < x.rows() {
            let end = (start + block).min(x.rows());
            let rows = &data[start * d..end * d];
            let out = &mut margins[start..end];
            for (tree, flat) in self.trees.iter().zip(&self.flat) {
                match flat {
                    Some(flat) => flat.accumulate_margins(rows, d, eta, out),
                    None => {
                        for (j, o) in out.iter_mut().enumerate() {
                            *o += eta * tree.predict_row(&rows[j * d..(j + 1) * d]);
                        }
                    }
                }
            }
            start = end;
        }
        Ok(margins)
    }

    /// Reference margins via the recursive per-row walker, each row one
    /// left-to-right fold (`base`, then each tree's shrunk contribution in
    /// boosting order) — the association the batch kernel keeps per row.
    /// Kept (and property-pinned bit-identical to
    /// [`Self::predict_margin_rows`]) as the readable specification of
    /// what the kernel computes.
    pub fn predict_margin_rows_recursive(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_scorable(self.fitted, self.n_features, x)?;
        let eta = self.config.eta;
        let margin = |row: &[f64]| {
            let fold = |m, tree: &RegressionTree| m + eta * tree.predict_row(row);
            self.trees.iter().fold(self.base_score, fold)
        };
        Ok(x.iter_rows().map(margin).collect())
    }

    /// The boosting loop behind [`Learner::fit`] and [`Self::fit_reference`]:
    /// `reference` grows every tree with the per-node-sort builder and
    /// rescores the rows with `tree.predict`; otherwise `x` is presorted once
    /// and every tree reuses the presort and hands back its own deltas.
    fn boost(
        &mut self,
        x: &Matrix,
        y: &[f64],
        weights: Option<&[f64]>,
        reference: bool,
    ) -> Result<()> {
        let w = validate_fit_inputs(x, y, weights)?;
        let n = x.rows();
        self.n_features = x.cols();
        self.trees.clear();

        // Base score: weighted positive rate as log-odds, clamped away from
        // the degenerate endpoints so single-class data stays finite.
        let wsum: f64 = w.iter().sum();
        let pos_rate = (y.iter().zip(&w).map(|(&yi, &wi)| yi * wi).sum::<f64>() / wsum)
            .clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (pos_rate / (1.0 - pos_rate)).ln();

        let tree_params = TreeParams {
            max_depth: self.config.max_depth,
            lambda: self.config.lambda,
            gamma: self.config.gamma,
            min_child_weight: self.config.min_child_weight,
        };

        // After validation: the presort never sees a NaN.
        let mut presorted = (!reference).then(|| PresortedFit::new(x));
        let mut margins = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let subsample = self.config.subsample < 1.0;
        let (mut g2, mut h2) = if subsample {
            (vec![0.0; n], vec![0.0; n])
        } else {
            (Vec::new(), Vec::new())
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut row_pool: Vec<usize> = (0..n).collect();

        for _ in 0..self.config.n_rounds {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                grad[i] = w[i] * (p - y[i]);
                hess[i] = (w[i] * p * (1.0 - p)).max(1e-16);
            }

            let (g, h) = if subsample {
                // Zero out the gradients of dropped rows instead of gathering
                // a sub-matrix: the tree then ignores them (g = h·ε ≈ 0) and
                // prediction indices stay aligned.
                row_pool.shuffle(&mut rng);
                let kept = ((n as f64) * self.config.subsample).ceil() as usize;
                g2.fill(0.0);
                h2.fill(1e-16);
                for &i in &row_pool[..kept] {
                    g2[i] = grad[i];
                    h2[i] = hess[i];
                }
                (&g2, &h2)
            } else {
                (&grad, &hess)
            };
            let reference_deltas;
            let (tree, deltas) = match &mut presorted {
                Some(presorted) => {
                    let tree = presorted.fit(g, h, &tree_params);
                    (tree, presorted.deltas())
                }
                None => {
                    let tree = RegressionTree::fit_reference(x, g, h, &tree_params);
                    reference_deltas = tree.predict(x);
                    (tree, reference_deltas.as_slice())
                }
            };

            // Early stop: a single-leaf tree with ~zero weight adds nothing.
            let max_delta = deltas.iter().fold(0.0_f64, |m, &d| m.max(d.abs()));
            if max_delta < 1e-12 {
                break;
            }
            for (m, d) in margins.iter_mut().zip(deltas) {
                *m += self.config.eta * d;
            }
            self.trees.push(tree);
        }

        self.fitted = true;
        self.rebuild_flat();
        Ok(())
    }

    /// Fit with the per-node-sort tree builder and per-round
    /// `tree.predict`: the boosting loop as it reads without the presort.
    /// Fits a bit-identical ensemble to [`Learner::fit`]; kept as its test
    /// oracle and bench reference.
    #[doc(hidden)]
    pub fn fit_reference(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()> {
        self.boost(x, y, weights, true)
    }
}

impl Learner for Gbt {
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()> {
        self.boost(x, y, weights, false)
    }

    fn predict_margin(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.predict_margin_rows(x)
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, tree::HEAP_DEPTH_MAX, LearnError};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// XOR-patterned data — not linearly separable, needs depth ≥ 2.
    fn xor_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.gen_range(0.0..1.0);
            let b = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(f64::from(u8::from((a > 0.5) != (b > 0.5))));
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data(400, 1);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        let pred = gbt.predict(&x).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        assert!(
            accuracy(&truth, &pred) > 0.95,
            "accuracy {}",
            accuracy(&truth, &pred)
        );
    }

    #[test]
    fn probabilities_valid() {
        let (x, y) = xor_data(100, 2);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        for p in gbt.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_with_fixed_seed() {
        let (x, y) = xor_data(150, 3);
        let cfg = GbtConfig {
            subsample: 0.8,
            seed: 42,
            ..GbtConfig::default()
        };
        let mut a = Gbt::new(cfg);
        let mut b = Gbt::new(cfg);
        a.fit(&x, &y, None).unwrap();
        b.fit(&x, &y, None).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn weights_equal_duplication() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let w = vec![1.0, 2.0, 1.0, 1.0];
        let cfg = GbtConfig {
            n_rounds: 10,
            ..GbtConfig::default()
        };
        let mut weighted = Gbt::new(cfg);
        weighted.fit(&x, &y, Some(&w)).unwrap();

        let x_dup = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y_dup = vec![0.0, 0.0, 0.0, 1.0, 1.0];
        let mut duplicated = Gbt::new(cfg);
        duplicated.fit(&x_dup, &y_dup, None).unwrap();

        let probe = Matrix::from_rows(&[vec![0.5], vec![1.5], vec![2.5]]);
        let pw = weighted.predict_proba(&probe).unwrap();
        let pd = duplicated.predict_proba(&probe).unwrap();
        for (a, b) in pw.iter().zip(&pd) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn single_class_data_is_finite_and_confident() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![0.0, 0.0];
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        let p = gbt.predict_proba(&x).unwrap();
        assert!(p.iter().all(|v| v.is_finite() && *v < 0.5));
    }

    #[test]
    fn upweighting_flips_mixed_region() {
        // Identical feature values with conflicting labels: the majority
        // (by weight) label must win.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0.0, 0.0, 1.0];
        let mut plain = Gbt::default();
        plain.fit(&x, &y, None).unwrap();
        assert!(plain.predict_proba(&x).unwrap()[0] < 0.5);

        let mut boosted = Gbt::default();
        boosted.fit(&x, &y, Some(&[1.0, 1.0, 10.0])).unwrap();
        assert!(boosted.predict_proba(&x).unwrap()[0] > 0.5);
    }

    #[test]
    fn unfitted_errors() {
        let gbt = Gbt::default();
        assert!(matches!(
            gbt.predict_proba(&Matrix::zeros(1, 1)),
            Err(LearnError::NotFitted)
        ));
    }

    #[test]
    fn shape_mismatch_errors() {
        let (x, y) = xor_data(50, 4);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        assert!(matches!(
            gbt.predict_proba(&Matrix::zeros(1, 7)),
            Err(LearnError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = xor_data(400, 5);
        let mut gbt = Gbt::new(GbtConfig {
            subsample: 0.7,
            seed: 9,
            ..GbtConfig::default()
        });
        gbt.fit(&x, &y, None).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        assert!(accuracy(&truth, &gbt.predict(&x).unwrap()) > 0.9);
    }

    #[test]
    fn flat_kernel_margins_match_recursive_reference() {
        let (x, y) = xor_data(300, 7);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        let fast = gbt.predict_margin_rows(&x).unwrap();
        let slow = gbt.predict_margin_rows_recursive(&x).unwrap();
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
        // Odd row counts exercise the remainder lanes (rows % 4 ∈ 1..4).
        for take in [1, 2, 3, 5] {
            let sub = x.select_rows(&(0..take).collect::<Vec<_>>());
            let fast = gbt.predict_margin_rows(&sub).unwrap();
            let slow = gbt.predict_margin_rows_recursive(&sub).unwrap();
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// A comb document of `deep` splits on `feature`: split k sends
    /// `x < k/deep` to leaf k, otherwise on to split k+1 (the last split's
    /// right child is the terminal leaf), so the tree is `deep` levels
    /// deep.
    fn comb_document(deep: usize, feature: usize) -> serde::Value {
        use serde::Value;
        let mut nodes = Vec::new();
        for k in 0..deep {
            let right = if k + 1 < deep { k + 1 } else { 2 * deep };
            nodes.push(Value::Object(vec![
                ("feature".into(), Value::Number(feature as f64)),
                ("threshold".into(), Value::Number(k as f64 / deep as f64)),
                ("left".into(), Value::Number((deep + k) as f64)),
                ("right".into(), Value::Number(right as f64)),
            ]));
        }
        for k in 0..=deep {
            let weight = 0.1 * k as f64 - 0.55;
            nodes.push(Value::Object(vec![(
                "weight".into(),
                Value::Number(weight),
            )]));
        }
        Value::Object(vec![
            ("nodes".into(), Value::Array(nodes)),
            ("root".into(), Value::Number(0.0)),
        ])
    }

    #[test]
    fn deep_tree_beyond_heap_limit_scores_like_the_recursive_walker() {
        // A fitted depth-4 forest with a comb one level past the heap
        // limit spliced in mid-ensemble and a comb at the limit appended:
        // the deep tree has no heap form and walks recursively inside the
        // block loop, and every row's fold must still be the recursive
        // `base, then eta·tree in boosting order` to the bit.
        let (x, y) = xor_data(200, 8);
        let mut fitted = Gbt::new(GbtConfig {
            n_rounds: 6,
            ..GbtConfig::default()
        });
        fitted.fit(&x, &y, None).unwrap();
        let limit = HEAP_DEPTH_MAX as usize;
        let mut doc = serde_json::to_value(&fitted);
        let serde::Value::Object(fields) = &mut doc else {
            panic!("a gbt document is an object")
        };
        let Some((_, serde::Value::Array(trees))) = fields.iter_mut().find(|(k, _)| k == "trees")
        else {
            panic!("a gbt document lists its trees")
        };
        trees.insert(2, comb_document(limit + 1, 1));
        trees.push(comb_document(limit, 0));
        let gbt: Gbt = serde::Deserialize::from_value(&doc).unwrap();
        assert_eq!(gbt.trees[2].depth(), limit + 1);
        let unflattened: Vec<usize> = (0..gbt.flat.len())
            .filter(|&i| gbt.flat[i].is_none())
            .collect();
        assert_eq!(unflattened, vec![2]);

        // At d = 2 a 16 KiB block holds 1,024 rows, so 2,500 rows span two
        // full blocks and a ragged one; 15/16/17 straddle one chain group.
        let mut rng = StdRng::seed_from_u64(9);
        for rows in [0, 1, 15, 16, 17, 2500] {
            let data = (0..rows * 2)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        f64::NAN
                    } else {
                        rng.gen_range(-0.2..1.2)
                    }
                })
                .collect();
            let block = Matrix::from_vec(rows, 2, data);
            let fast = gbt.predict_margin_rows(&block).unwrap();
            let slow = gbt.predict_margin_rows_recursive(&block).unwrap();
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{rows} rows"
            );
        }
    }

    #[test]
    fn predict_agrees_with_thresholded_proba_at_the_boundary() {
        // An empty ensemble's margin is exactly `base_score`, which lets
        // the boundary be probed with exact values. Wherever sigmoid can
        // represent the deviation from ½ (any margin of magnitude ≳ one
        // ulp of 0.5), hard decisions agree with thresholding the
        // probability — by `> 0.5` and `>= 0.5` alike.
        let probe = |base: f64| {
            let gbt = Gbt {
                base_score: base,
                n_features: 1,
                fitted: true,
                ..Gbt::default()
            };
            let x = Matrix::zeros(1, 1);
            (
                gbt.predict(&x).unwrap()[0],
                gbt.predict_proba(&x).unwrap()[0],
            )
        };
        for base in [1.0, 1e-12, -1e-12, -1.0] {
            let (hard, proba) = probe(base);
            assert_eq!(hard, u8::from(proba > 0.5), "base_score={base}");
            assert_eq!(hard, u8::from(proba >= 0.5), "base_score={base}");
        }
        // On the boundary itself the margin sign is authoritative: a
        // margin of exactly 0 is the positive class and the probability is
        // exactly 0.5 (so thresholding with `>= 0.5` agrees; strict `>`
        // would flip precisely this one point).
        assert_eq!(probe(0.0), (1, 0.5));
        // And one ulp *below* zero, sigmoid underflows back onto exactly
        // 0.5 — the probability can no longer express the sign, which is
        // why `predict` thresholds the raw margin rather than the proba.
        let (hard, proba) = probe(-f64::MIN_POSITIVE);
        assert_eq!((hard, proba), (0, 0.5));
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let (x, y) = xor_data(200, 6);
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        let mut short = Gbt::new(GbtConfig {
            n_rounds: 5,
            ..GbtConfig::default()
        });
        short.fit(&x, &y, None).unwrap();
        let mut long = Gbt::new(GbtConfig {
            n_rounds: 80,
            ..GbtConfig::default()
        });
        long.fit(&x, &y, None).unwrap();
        let acc_short = accuracy(&truth, &short.predict(&x).unwrap());
        let acc_long = accuracy(&truth, &long.predict(&x).unwrap());
        assert!(acc_long >= acc_short - 1e-9);
    }
}
