//! The scorer decides every batch through one rule,
//! `margin - conformance_gap[cell] >= threshold[cell]`. With the identity
//! overlay that rule must reproduce each built-in learner's own `predict`
//! on the `Dataset` path bit for bit: for every batch-size remainder of
//! the 4-row scoring tiles, for rows outside the reference range (where
//! the encoding clamps), and for rows whose margin is exactly +0.0 or
//! −0.0, where `margin - 0.0 >= 0.0` and `margin >= 0.0` must still agree.
//! The golden fixtures pin only the logistic learner, so this suite is
//! the GBT path's byte-level guard.

use cf_data::{Column, Dataset};
use cf_datasets::stream::DriftStreamSpec;
use cf_learners::LearnerKind;
use cf_linalg::Matrix;
use cf_stream::{Scorer, StreamTuple};
use confair_core::{Predictor, SingleModelPredictor};
use proptest::prelude::*;
use serde::{Deserialize, Value};

const FEATURES: usize = 3;

/// The schema and fitted predictor of `learner` trained on a stationary
/// drift-stream reference.
fn fitted(learner: LearnerKind) -> (Vec<String>, SingleModelPredictor) {
    let spec = DriftStreamSpec {
        n_features: FEATURES,
        ..DriftStreamSpec::default()
    };
    let reference = spec.reference(600, 5);
    let predictor = SingleModelPredictor::fit(&reference, learner, None).unwrap();
    (reference.column_names().to_vec(), predictor)
}

/// Decide `rows` through an identity-overlay scorer serving a copy of
/// `predictor` and through `predict` on the assembled `Dataset`.
fn both_paths(
    schema: &[String],
    predictor: &SingleModelPredictor,
    rows: &[StreamTuple],
) -> (Vec<u8>, Vec<u8>) {
    let mut scorer = Scorer::new(schema.to_vec(), predictor.clone());
    let via_scorer = scorer.score(rows).unwrap();
    let columns = (0..schema.len())
        .map(|j| Column::Numeric(rows.iter().map(|t| t.features[j]).collect()))
        .collect();
    let data = Dataset::new(
        "rows",
        schema.to_vec(),
        columns,
        vec![0; rows.len()],
        rows.iter().map(|t| t.group).collect(),
    )
    .unwrap();
    let via_dataset = predictor.predict(&data).unwrap();
    (via_scorer, via_dataset)
}

/// `predictor` with every numeric field named `key` (at any depth)
/// replaced by `f` of its old value.
fn edited(
    predictor: &SingleModelPredictor,
    key: &str,
    f: &dyn Fn(&Value) -> Value,
) -> SingleModelPredictor {
    fn walk(v: &mut Value, key: &str, f: &dyn Fn(&Value) -> Value) {
        match v {
            Value::Object(fields) => {
                for (name, child) in fields {
                    if name == key {
                        *child = f(child);
                    } else {
                        walk(child, key, f);
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(|item| walk(item, key, f)),
            _ => {}
        }
    }
    let mut v = serde_json::to_value(predictor);
    walk(&mut v, key, f);
    SingleModelPredictor::from_value(&v).unwrap()
}

/// `n` rows whose feature `j` is `+scale` when bit `j` of the row index
/// is set and `-scale` otherwise (far outside the reference range, so the
/// encoding clamps them to exactly 1.0 or 0.0).
fn clamped_rows(n: usize, scale: f64) -> Vec<StreamTuple> {
    (0..n)
        .map(|i| StreamTuple {
            features: (0..FEATURES)
                .map(|j| if (i >> j) & 1 == 1 { scale } else { -scale })
                .collect(),
            group: (i % 2) as u8,
            label: None,
        })
        .collect()
}

fn margins(predictor: &SingleModelPredictor, rows: &[StreamTuple]) -> Vec<f64> {
    let flat = rows.iter().flat_map(|t| t.features.clone()).collect();
    predictor
        .predict_margin_rows(&mut Matrix::from_vec(rows.len(), FEATURES, flat))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn identity_overlay_score_equals_dataset_predict(
        gbt in 0u8..2,
        rows in proptest::collection::vec(
            (0u8..2, proptest::collection::vec(-6.0f64..6.0, FEATURES)),
            1..14,
        ),
    ) {
        let learner = if gbt == 1 { LearnerKind::Gbt } else { LearnerKind::Logistic };
        let (schema, predictor) = fitted(learner);
        let rows: Vec<StreamTuple> = rows
            .into_iter()
            .map(|(group, features)| StreamTuple { features, group, label: None })
            .collect();
        let (via_scorer, via_dataset) = both_paths(&schema, &predictor, &rows);
        prop_assert_eq!(via_scorer, via_dataset);
    }
}

/// A logistic model rebuilt as `margin = x0 - 1.0` on the encoded
/// features: rows at or above the reference maximum encode `x0` to
/// exactly 1.0, so their margin is exactly +0.0. (A logistic margin is
/// never −0.0: its accumulators start at +0.0, and `x + (−x)` rounds to
/// +0.0.)
#[test]
fn logistic_rows_at_a_zero_margin_decide_alike() {
    let (schema, predictor) = fitted(LearnerKind::Logistic);
    let predictor = edited(&predictor, "coefficients", &|_| {
        let mut coefficients = vec![0.0; FEATURES];
        coefficients[0] = 1.0;
        serde_json::to_value(&coefficients)
    });
    let predictor = edited(&predictor, "intercept", &|_| Value::Number(-1.0));
    for n in 1..=9 {
        let rows = clamped_rows(n, 1e6);
        for (i, m) in margins(&predictor, &rows).iter().enumerate() {
            let expected = if i % 2 == 1 { 0.0f64 } else { -1.0 };
            assert_eq!(m.to_bits(), expected.to_bits(), "batch of {n}, row {i}");
        }
        let (via_scorer, via_dataset) = both_paths(&schema, &predictor, &rows);
        assert_eq!(via_scorer, via_dataset, "batch of {n}");
        for (i, &decision) in via_scorer.iter().enumerate() {
            assert_eq!(decision, u8::from(i % 2 == 1), "batch of {n}, row {i}");
        }
    }
}

/// A GBT ensemble whose base score and leaf weights are all `zero`
/// scores every row at exactly that signed zero, and both signs decide
/// positive on both paths.
#[test]
fn gbt_rows_at_signed_zero_margins_decide_alike() {
    let (schema, predictor) = fitted(LearnerKind::Gbt);
    for zero in [0.0f64, -0.0] {
        let predictor = edited(&predictor, "base_score", &|_| Value::Number(zero));
        let predictor = edited(&predictor, "weight", &|_| Value::Number(zero));
        for n in 1..=9 {
            let rows = clamped_rows(n, 1e6);
            assert!(margins(&predictor, &rows)
                .iter()
                .all(|m| m.to_bits() == zero.to_bits()));
            let (via_scorer, via_dataset) = both_paths(&schema, &predictor, &rows);
            assert_eq!(via_scorer, via_dataset, "batch of {n}, zero {zero:?}");
            assert!(
                via_scorer.iter().all(|&d| d == 1),
                "batch of {n}, zero {zero:?}"
            );
        }
    }
}
