//! Property tests for the dataset substrate.

use cf_data::{
    split::split3, split::split3_stratified, Column, DataError, Dataset, FeatureEncoding,
    SplitRatios,
};
use cf_linalg::Matrix;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Strategy producing a random small dataset with one numeric and one
/// categorical attribute, random binary labels and groups.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (4usize..80).prop_flat_map(|n| {
        (
            proptest::collection::vec(-50.0..50.0f64, n),
            proptest::collection::vec(0u8..3, n),
            proptest::collection::vec(0u8..2, n),
            proptest::collection::vec(0u8..2, n),
        )
            .prop_map(move |(x, cat_codes, labels, groups)| {
                let cats: Vec<&str> = cat_codes
                    .iter()
                    .map(|&c| ["a", "b", "c"][c as usize])
                    .collect();
                Dataset::new(
                    "prop",
                    vec!["x".into(), "c".into()],
                    vec![Column::Numeric(x), Column::categorical_from_strs(&cats)],
                    labels,
                    groups,
                )
                .unwrap()
            })
    })
}

proptest! {
    #[test]
    fn split_is_a_partition(d in dataset_strategy(), seed in 0u64..1000) {
        let s = split3(&d, SplitRatios::paper_default(), seed);
        prop_assert_eq!(s.train.len() + s.validation.len() + s.test.len(), d.len());
    }

    #[test]
    fn stratified_split_is_a_partition(d in dataset_strategy(), seed in 0u64..1000) {
        let s = split3_stratified(&d, SplitRatios::paper_default(), seed);
        prop_assert_eq!(s.train.len() + s.validation.len() + s.test.len(), d.len());
    }

    #[test]
    fn cells_partition_the_dataset(d in dataset_strategy()) {
        let total: usize = cf_data::CellIndex::binary_cells()
            .iter()
            .map(|&c| d.cell_indices(c).len())
            .sum();
        prop_assert_eq!(total, d.len());
    }

    #[test]
    fn one_hot_rows_sum_to_one(d in dataset_strategy()) {
        let (enc, m) = FeatureEncoding::fit_transform(&d);
        // Feature layout: [x, c=a, c=b, (c=c)]; one-hot block sums to 1
        // because the generator never produces nulls.
        let hot_width = enc.width() - 1;
        for i in 0..m.rows() {
            let s: f64 = m.row(i)[1..].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-12, "row {} one-hot sum {} (width {})", i, s, hot_width);
        }
    }

    #[test]
    fn encoded_features_are_bounded(d in dataset_strategy()) {
        let (_, m) = FeatureEncoding::fit_transform(&d);
        for v in m.as_slice() {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn subset_of_all_indices_is_identity(d in dataset_strategy()) {
        let all: Vec<usize> = (0..d.len()).collect();
        prop_assert_eq!(d.subset(&all), d);
    }

    #[test]
    fn summary_fractions_in_range(d in dataset_strategy()) {
        let s = d.summary();
        prop_assert!((0.0..=1.0).contains(&s.minority_fraction));
        prop_assert!((0.0..=1.0).contains(&s.minority_positive_fraction));
    }
}

/// A numeric encoding with the given fitted `(min, max)` per column, built
/// through `Deserialize` so any bounds (an overflowing range included) can
/// be pinned.
fn minmax_encoding(bounds: &[(f64, f64)]) -> FeatureEncoding {
    let encoders = bounds
        .iter()
        .map(|&(min, max)| {
            serde::Value::Object(vec![
                ("kind".into(), serde::Value::String("minmax".into())),
                ("min".into(), serde::Value::Number(min)),
                ("max".into(), serde::Value::Number(max)),
            ])
        })
        .collect();
    let names = (0..bounds.len())
        .map(|j| serde::Value::String(format!("x{j}")))
        .collect();
    let doc = serde::Value::Object(vec![
        ("encoders".into(), serde::Value::Array(encoders)),
        ("feature_names".into(), serde::Value::Array(names)),
    ]);
    <FeatureEncoding as serde::Deserialize>::from_value(&doc).expect("well-formed encoding")
}

/// Fitted bounds of one column: an ordinary range, a constant column
/// (`±0.0` included), a `±0.0` pair, or a range that overflows to `+∞`.
fn arbitrary_bounds(rng: &mut StdRng) -> (f64, f64) {
    match rng.gen_range(0u8..6) {
        0 | 1 => {
            let min = rng.gen_range(-50.0..50.0);
            (min, min + rng.gen_range(0.001..100.0))
        }
        2 => {
            let c = [0.0, -0.0, 3.0, rng.gen_range(-50.0..50.0)][rng.gen_range(0..4usize)];
            (c, c)
        }
        3 => [(-0.0, 0.0), (0.0, -0.0)][rng.gen_range(0..2usize)],
        4 => (-1e308, 1e308),
        _ => (1.0, 1.0 + f64::EPSILON),
    }
}

/// A feature value for a column fitted on `(min, max)`: inside, on or
/// outside the range, `±0.0`, NaN, `±∞` or `±1e308`.
fn arbitrary_value(rng: &mut StdRng, (min, max): (f64, f64)) -> f64 {
    match rng.gen_range(0u8..10) {
        0 | 1 => min + (max - min) * rng.gen_range(0.0..1.0),
        2 => [min, max][rng.gen_range(0..2usize)],
        3 => min - rng.gen_range(0.0..1e3),
        4 => max + rng.gen_range(0.0..1e3),
        5 => [0.0, -0.0][rng.gen_range(0..2usize)],
        6 => f64::NAN,
        7 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)],
        8 => [1e308, -1e308][rng.gen_range(0..2usize)],
        _ => rng.gen_range(-100.0..100.0),
    }
}

/// Assert the in-place encode of `x` equals `transform_rows(x)` bit for bit.
fn assert_in_place_matches(enc: &FeatureEncoding, x: &Matrix) -> Result<(), TestCaseError> {
    let spec = enc.transform_rows(x).expect("numeric encoding");
    let mut in_place = x.clone();
    enc.transform_rows_in_place(&mut in_place)
        .expect("numeric encoding");
    prop_assert_eq!(
        (in_place.rows(), in_place.cols()),
        (spec.rows(), spec.cols())
    );
    for (k, (a, b)) in in_place.as_slice().iter().zip(spec.as_slice()).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "element {} (input {}): in place {} vs spec {}",
            k,
            x.as_slice()[k],
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every `d % 4` remainder (d = 1..=13), constant and `±0.0` columns,
    /// values outside the fitted range, NaN, and overflowing ranges.
    #[test]
    fn in_place_encode_is_bit_identical_to_transform_rows(
        d in 1usize..=13,
        n in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bounds: Vec<(f64, f64)> = (0..d).map(|_| arbitrary_bounds(&mut rng)).collect();
        let enc = minmax_encoding(&bounds);
        let data = (0..n * d)
            .map(|k| arbitrary_value(&mut rng, bounds[k % d]))
            .collect();
        assert_in_place_matches(&enc, &Matrix::from_vec(n, d, data))?;
    }

    /// The same on encodings fitted from data, so the bounds are the ones
    /// `FeatureEncoding::fit` produces.
    #[test]
    fn in_place_encode_matches_transform_rows_on_fitted_encodings(
        d in 1usize..=9,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..16);
        let columns: Vec<Column> = (0..d)
            .map(|_| {
                let constant = rng.gen_bool(0.2);
                let c = rng.gen_range(-5.0..5.0);
                Column::Numeric(
                    (0..n)
                        .map(|_| if constant { c } else { rng.gen_range(-5.0..5.0) })
                        .collect(),
                )
            })
            .collect();
        let train = Dataset::new(
            "fit",
            (0..d).map(|j| format!("x{j}")).collect(),
            columns,
            vec![0; n],
            vec![0; n],
        )
        .unwrap();
        let enc = FeatureEncoding::fit(&train);
        let data = (0..n * d)
            .map(|_| arbitrary_value(&mut rng, (-5.0, 5.0)))
            .collect();
        assert_in_place_matches(&enc, &Matrix::from_vec(n, d, data))?;
    }
}

#[test]
fn overflowing_range_encodes_to_nan_in_both_paths() {
    // max − min overflows to +∞, so `range > 0` holds and the value at the
    // top of the range divides ∞ by ∞.
    let enc = minmax_encoding(&[(-1e308, 1e308)]);
    let x = Matrix::from_vec(3, 1, vec![1e308, 0.0, -1e308]);
    let spec = enc.transform_rows(&x).unwrap();
    assert!(spec.as_slice()[0].is_nan(), "spec: {:?}", spec.as_slice());
    let mut in_place = x.clone();
    enc.transform_rows_in_place(&mut in_place).unwrap();
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&in_place), bits(&spec));
}

#[test]
fn in_place_encode_keeps_the_width_and_one_hot_errors() {
    let numeric = minmax_encoding(&[(0.0, 1.0)]);
    let wide = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    let mut x = wide.clone();
    assert!(matches!(
        numeric.transform_rows_in_place(&mut x),
        Err(DataError::LengthMismatch {
            expected: 1,
            got: 2,
            ..
        })
    ));
    assert_eq!(x, wide, "a rejected matrix is left untouched");

    let mixed = Dataset::new(
        "mixed",
        vec!["x".into(), "c".into()],
        vec![
            Column::Numeric(vec![0.0, 1.0]),
            Column::categorical_from_strs(&["a", "b"]),
        ],
        vec![0, 1],
        vec![0, 1],
    )
    .unwrap();
    let one_hot = FeatureEncoding::fit(&mixed);
    let rows = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
    let mut x = rows.clone();
    let spec = one_hot.transform_rows(&rows).unwrap_err();
    let err = one_hot.transform_rows_in_place(&mut x).unwrap_err();
    assert!(
        matches!(err, DataError::WrongColumnKind { .. }),
        "got {err:?}"
    );
    assert_eq!(err.to_string(), spec.to_string());
    assert_eq!(x, rows, "a rejected matrix is left untouched");
}
