//! Property tests for the learner substrate.

use cf_learners::{Gbt, GbtConfig, Learner, LogisticRegression};
use cf_linalg::Matrix;
use proptest::prelude::*;

/// Strategy: a training problem plus an independent scoring block over the
/// same feature width, with a sprinkling of NaN feature values in the
/// scoring rows (NaNs never reach `fit` — its split search sorts — but the
/// scoring kernels must route them identically to the recursive walker:
/// `<` is false, so NaN always goes right). Row counts 1..=39 sweep both
/// sides of the batch kernel's 16-cursor chain groups (0, 1, and 2 full
/// groups plus every remainder size, which also covers each matmul tile
/// remainder lane rows % 4 ∈ {0,1,2,3}), and `max_depth` 0 covers forests
/// of single-leaf trees (a one-slot heap in the flat form).
#[allow(clippy::type_complexity)]
fn forest_problem() -> impl Strategy<Value = (Matrix, Vec<f64>, Matrix, usize)> {
    (4usize..24, 1usize..4, 1usize..40, 0usize..4).prop_flat_map(|(n, d, rows, max_depth)| {
        (
            proptest::collection::vec(-10.0..10.0f64, n * d),
            proptest::collection::vec(0u8..2, n),
            proptest::collection::vec(-10.0..10.0f64, rows * d),
            proptest::collection::vec(0u8..10, rows * d),
        )
            .prop_map(move |(data, mut labels, mut block, nan_mask)| {
                labels[0] = 0;
                labels[n - 1] = 1;
                for (value, mask) in block.iter_mut().zip(&nan_mask) {
                    if *mask == 0 {
                        *value = f64::NAN;
                    }
                }
                (
                    Matrix::from_vec(n, d, data),
                    labels.into_iter().map(f64::from).collect(),
                    Matrix::from_vec(rows, d, block),
                    max_depth,
                )
            })
    })
}

/// Strategy: a small binary-classification problem with at least one tuple
/// of each class.
fn problem() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (4usize..40, 1usize..4).prop_flat_map(|(n, d)| {
        (
            proptest::collection::vec(-10.0..10.0f64, n * d),
            proptest::collection::vec(0u8..2, n),
        )
            .prop_map(move |(data, mut labels)| {
                // Force both classes to be present.
                labels[0] = 0;
                labels[n - 1] = 1;
                (
                    Matrix::from_vec(n, d, data),
                    labels.into_iter().map(f64::from).collect(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lr_probabilities_in_unit_interval((x, y) in problem()) {
        let mut m = LogisticRegression::default();
        m.fit(&x, &y, None).unwrap();
        for p in m.predict_proba(&x).unwrap() {
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn gbt_probabilities_in_unit_interval((x, y) in problem()) {
        let mut m = Gbt::new(GbtConfig { n_rounds: 8, ..GbtConfig::default() });
        m.fit(&x, &y, None).unwrap();
        for p in m.predict_proba(&x).unwrap() {
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn hard_predict_matches_thresholded_probabilities((x, y) in problem()) {
        // Both learners override `predict` to threshold the raw margin
        // (skipping the sigmoid); away from the knife edge, the override
        // must agree with thresholding `predict_proba` at 0.5. A
        // probability of exactly 0.5 is excluded: there the sigmoid has
        // rounded a within-one-ulp-of-zero margin, and the margin's sign —
        // the exact boundary — is authoritative.
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        for model in [&lr as &dyn Learner, &gbt as &dyn Learner] {
            let probas = model.predict_proba(&x).unwrap();
            let hard = model.predict(&x).unwrap();
            for (&p, &d) in probas.iter().zip(&hard) {
                if p != 0.5 {
                    prop_assert_eq!(u8::from(p >= 0.5), d, "proba {} vs decision {}", p, d);
                }
            }
        }
    }

    #[test]
    fn lr_deterministic((x, y) in problem()) {
        let mut a = LogisticRegression::default();
        let mut b = LogisticRegression::default();
        a.fit(&x, &y, None).unwrap();
        b.fit(&x, &y, None).unwrap();
        prop_assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn uniform_weights_match_unweighted((x, y) in problem(), scale in 0.5..4.0f64) {
        // Scaling every weight by the same constant must not change the fit
        // (the loss is weight-normalised).
        let w = vec![scale; x.rows()];
        let mut plain = LogisticRegression::default();
        plain.fit(&x, &y, None).unwrap();
        let mut scaled = LogisticRegression::default();
        scaled.fit(&x, &y, Some(&w)).unwrap();
        for (a, b) in plain
            .predict_proba(&x)
            .unwrap()
            .iter()
            .zip(scaled.predict_proba(&x).unwrap())
        {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    #[test]
    fn zero_weight_tuples_are_ignored((x, y) in problem()) {
        prop_assume!(x.rows() >= 6);
        // Fit on all rows with the last two zero-weighted ⇔ fit on the prefix,
        // provided both classes survive in the prefix.
        let keep = x.rows() - 2;
        let prefix_labels = &y[..keep];
        prop_assume!(prefix_labels.iter().any(|&v| v > 0.5));
        prop_assume!(prefix_labels.iter().any(|&v| v < 0.5));
        let mut w = vec![1.0; x.rows()];
        w[keep] = 0.0;
        w[keep + 1] = 0.0;
        let mut masked = LogisticRegression::default();
        masked.fit(&x, &y, Some(&w)).unwrap();

        let rows: Vec<usize> = (0..keep).collect();
        let x_prefix = x.select_rows(&rows);
        let mut prefix = LogisticRegression::default();
        prefix.fit(&x_prefix, prefix_labels, None).unwrap();

        for (a, b) in masked
            .coefficients()
            .iter()
            .zip(prefix.coefficients())
        {
            prop_assert!((a - b).abs() < 1e-5, "{} vs {}", a, b);
        }
    }

    #[test]
    fn flat_gbt_equivalence((x, y, block, max_depth) in forest_problem()) {
        // The flattened batch traversal is the serving kernel; the
        // recursive walker is the specification. They must agree to the
        // bit — same routing on every row (including NaN features sent
        // right) and the same left-to-right margin accumulation — on
        // random fitted forests scored over random row blocks.
        let mut m = Gbt::new(GbtConfig { n_rounds: 8, max_depth, ..GbtConfig::default() });
        m.fit(&x, &y, None).unwrap();
        let fast = m.predict_margin_rows(&block).unwrap();
        let slow = m.predict_margin_rows_recursive(&block).unwrap();
        prop_assert_eq!(fast.len(), slow.len());
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            prop_assert_eq!(f.to_bits(), s.to_bits(), "row {}: {} vs {}", i, f, s);
        }
    }

    #[test]
    fn gbt_training_fit_is_reasonable((x, y) in problem()) {
        // GBT with enough rounds should fit most of its own training data
        // whenever the features are all-distinct (no conflicting labels).
        let mut m = Gbt::new(GbtConfig { n_rounds: 40, lambda: 0.1, min_child_weight: 0.0, ..GbtConfig::default() });
        m.fit(&x, &y, None).unwrap();
        let preds = m.predict(&x).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        // Only assert when all rows are distinct (otherwise Bayes error > 0).
        let mut rows: Vec<&[f64]> = x.iter_rows().collect();
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let distinct = rows.windows(2).all(|w| w[0] != w[1]);
        if distinct {
            let acc = cf_learners::accuracy(&truth, &preds);
            prop_assert!(acc > 0.8, "training accuracy {}", acc);
        }
    }
}

#[test]
fn non_finite_features_are_a_typed_fit_error() {
    // Without the check, GBT's split sort panics on the NaN and logistic
    // regression fits NaN coefficients without complaint.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.5],
            vec![2.0, bad],
            vec![3.0, 0.0],
        ]);
        let y = [0.0, 1.0, 0.0, 1.0];
        let want = Err(cf_learners::LearnError::NonFinite { row: 2, feature: 1 });
        let mut lr = LogisticRegression::default();
        assert_eq!(lr.fit(&x, &y, None), want, "logistic, {bad}");
        assert!(!lr.is_fitted());
        let mut gbt = Gbt::new(GbtConfig::default());
        assert_eq!(gbt.fit(&x, &y, None), want, "gbt, {bad}");
        assert!(!gbt.is_fitted());
    }
}
