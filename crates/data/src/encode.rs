//! Feature encoding: min–max normalisation + one-hot, fit on training data.
//!
//! The paper's §IV preprocessing normalises numerical attributes and one-hot
//! encodes categorical attributes. The encoding is *fitted* on the training
//! split and *applied* to validation/test so no statistics leak across the
//! split boundary.

use crate::{column::Column, dataset::Dataset, DataError, Result};
use cf_linalg::Matrix;

#[derive(Debug, Clone, PartialEq)]
enum ColumnEncoder {
    /// Min–max scaling to [0, 1]; constant columns map to 0.5.
    MinMax { min: f64, max: f64 },
    /// One-hot over the training levels; unseen/null codes produce all-zeros.
    OneHot { n_levels: usize },
}

impl ColumnEncoder {
    fn width(&self) -> usize {
        match self {
            ColumnEncoder::MinMax { .. } => 1,
            ColumnEncoder::OneHot { n_levels } => *n_levels,
        }
    }
}

/// A fitted feature encoding mapping a [`Dataset`] to a dense feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureEncoding {
    encoders: Vec<ColumnEncoder>,
    width: usize,
    feature_names: Vec<String>,
}

impl FeatureEncoding {
    /// Fit per-column encoders on (typically) the training split.
    pub fn fit(train: &Dataset) -> Self {
        let mut encoders = Vec::with_capacity(train.num_attributes());
        let mut feature_names = Vec::new();
        for j in 0..train.num_attributes() {
            match train.column(j) {
                Column::Numeric(values) => {
                    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &v in values {
                        if v.is_nan() {
                            continue;
                        }
                        min = min.min(v);
                        max = max.max(v);
                    }
                    if !min.is_finite() {
                        // Entirely-null column: encode as constant.
                        min = 0.0;
                        max = 0.0;
                    }
                    encoders.push(ColumnEncoder::MinMax { min, max });
                    feature_names.push(train.column_names()[j].clone());
                }
                Column::Categorical { levels, .. } => {
                    encoders.push(ColumnEncoder::OneHot {
                        n_levels: levels.len(),
                    });
                    for l in levels {
                        feature_names.push(format!("{}={}", train.column_names()[j], l));
                    }
                }
            }
        }
        let width = encoders.iter().map(ColumnEncoder::width).sum();
        Self {
            encoders,
            width,
            feature_names,
        }
    }

    /// Total feature-vector width after encoding.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of input columns the encoding was fitted on (one encoder per
    /// dataset column; one-hot encoders fan out to several features).
    pub fn num_columns(&self) -> usize {
        self.encoders.len()
    }

    /// Names of the produced features (`col` or `col=level`).
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Encode a dataset into a dense `n × width` feature matrix.
    ///
    /// The dataset must have the same column structure as the one the
    /// encoding was fitted on.
    pub fn transform(&self, ds: &Dataset) -> Result<Matrix> {
        if ds.num_attributes() != self.encoders.len() {
            return Err(DataError::LengthMismatch {
                expected: self.encoders.len(),
                got: ds.num_attributes(),
                what: "columns for encoding".into(),
            });
        }
        let n = ds.len();
        let mut out = Matrix::zeros(n, self.width);
        let mut offset = 0;
        for (j, enc) in self.encoders.iter().enumerate() {
            match (enc, ds.column(j)) {
                (ColumnEncoder::MinMax { min, max }, Column::Numeric(values)) => {
                    let range = max - min;
                    for (i, &v) in values.iter().enumerate() {
                        let scaled = if v.is_nan() {
                            0.5
                        } else if range > 0.0 {
                            ((v - min) / range).clamp(0.0, 1.0)
                        } else {
                            0.5
                        };
                        out[(i, offset)] = scaled;
                    }
                }
                (ColumnEncoder::OneHot { n_levels }, Column::Categorical { codes, .. }) => {
                    for (i, &code) in codes.iter().enumerate() {
                        if (code as usize) < *n_levels {
                            out[(i, offset + code as usize)] = 1.0;
                        }
                        // Null or unseen level: all-zero block.
                    }
                }
                _ => {
                    return Err(DataError::WrongColumnKind {
                        name: ds.column_names()[j].clone(),
                        expected: "same kind as at fit time",
                    })
                }
            }
            offset += enc.width();
        }
        Ok(out)
    }

    /// Encode a row-major numeric feature matrix directly, without building
    /// a [`Dataset`]. One column per encoder, in fit order; NaN encodes to
    /// 0.5 exactly as [`Self::transform`] does. This is the specification
    /// of [`Self::transform_rows_in_place`], the streaming hot path.
    ///
    /// # Errors
    /// Errors when the matrix width disagrees with the fitted column count,
    /// or when the encoding contains a categorical (one-hot) column —
    /// categorical data has no row-major `f64` representation and must take
    /// the `Dataset` path.
    pub fn transform_rows(&self, x: &Matrix) -> Result<Matrix> {
        let scalers = self.row_scalers(x)?;
        let mut out = Matrix::zeros(x.rows(), self.width);
        for i in 0..x.rows() {
            let src = x.row(i);
            let dst = out.row_mut(i);
            for ((d, &v), &(min, range)) in dst.iter_mut().zip(src).zip(&scalers) {
                *d = if v.is_nan() {
                    0.5
                } else if range > 0.0 {
                    ((v - min) / range).clamp(0.0, 1.0)
                } else {
                    0.5
                };
            }
        }
        Ok(out)
    }

    /// [`Self::transform_rows`] written over `x` itself, bit for bit: no
    /// output matrix is allocated. Every element is computed as
    /// `((v − min)/range).clamp(0, 1)` and then selected, without a
    /// branch, where `range > 0` and `v` is not NaN; everywhere else it
    /// becomes 0.5. The two rules round the same operations, so they agree
    /// on every input, NaN results of an overflowing range included.
    ///
    /// # Errors
    /// The errors of [`Self::transform_rows`], before `x` is touched.
    pub fn transform_rows_in_place(&self, x: &mut Matrix) -> Result<()> {
        let scalers = self.row_scalers(x)?;
        if scalers.is_empty() {
            return Ok(());
        }
        for row in x.as_mut_slice().chunks_exact_mut(scalers.len()) {
            for (v, &(min, range)) in row.iter_mut().zip(&scalers) {
                let scaled = ((*v - min) / range).clamp(0.0, 1.0);
                *v = if range > 0.0 && !v.is_nan() {
                    scaled
                } else {
                    0.5
                };
            }
        }
        Ok(())
    }

    /// `(min, range)` per column for the row-major encoders, resolved once
    /// so the per-element loop is allocation-free.
    fn row_scalers(&self, x: &Matrix) -> Result<Vec<(f64, f64)>> {
        if x.cols() != self.encoders.len() {
            return Err(DataError::LengthMismatch {
                expected: self.encoders.len(),
                got: x.cols(),
                what: "feature-matrix columns for encoding".into(),
            });
        }
        self.encoders
            .iter()
            .enumerate()
            .map(|(j, enc)| match enc {
                ColumnEncoder::MinMax { min, max } => Ok((*min, *max - *min)),
                ColumnEncoder::OneHot { .. } => Err(DataError::WrongColumnKind {
                    name: format!("column {j}"),
                    expected: "numeric (categorical encodings need the Dataset path)",
                }),
            })
            .collect()
    }

    /// Fit on `train` and transform it in one call.
    pub fn fit_transform(train: &Dataset) -> (Self, Matrix) {
        let enc = Self::fit(train);
        let m = enc
            .transform(train)
            .expect("fit and transform on the same dataset cannot disagree");
        (enc, m)
    }
}

// Manual serde impls (the derive shim cannot see through the private
// `ColumnEncoder` enum): each encoder serialises as a tagged object and the
// fitted min/max bounds round-trip bit-exactly through the JSON shim, so a
// restored encoding scales features identically to the original.
impl serde::Serialize for ColumnEncoder {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| match self {
            ColumnEncoder::MinMax { min, max } => {
                w.field(b"\"kind\":", "minmax");
                w.field(b"\"min\":", min);
                w.field(b"\"max\":", max);
            }
            ColumnEncoder::OneHot { n_levels } => {
                w.field(b"\"kind\":", "onehot");
                w.field(b"\"n_levels\":", n_levels);
            }
        });
    }
}

impl serde::Deserialize for ColumnEncoder {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v.get_or_err("kind")?.as_str() {
            Some("minmax") => Ok(ColumnEncoder::MinMax {
                min: serde::Deserialize::from_value(v.get_or_err("min")?)?,
                max: serde::Deserialize::from_value(v.get_or_err("max")?)?,
            }),
            Some("onehot") => Ok(ColumnEncoder::OneHot {
                n_levels: serde::Deserialize::from_value(v.get_or_err("n_levels")?)?,
            }),
            _ => Err(serde::Error::msg("unknown column-encoder kind")),
        }
    }
}

impl serde::Serialize for FeatureEncoding {
    fn serialize(&self, w: &mut serde::Writer) {
        w.object(|w| {
            w.field(b"\"encoders\":", &self.encoders);
            w.field(b"\"feature_names\":", &self.feature_names);
        });
    }
}

impl serde::Deserialize for FeatureEncoding {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let encoders: Vec<ColumnEncoder> =
            serde::Deserialize::from_value(v.get_or_err("encoders")?)?;
        let feature_names: Vec<String> =
            serde::Deserialize::from_value(v.get_or_err("feature_names")?)?;
        // `width` is derived state; recompute instead of trusting the
        // document, so a hand-edited checkpoint cannot desynchronise it.
        let width = encoders.iter().map(ColumnEncoder::width).sum();
        if feature_names.len() != width {
            return Err(serde::Error::msg(format!(
                "feature encoding lists {} names for width {width}",
                feature_names.len()
            )));
        }
        Ok(FeatureEncoding {
            encoders,
            width,
            feature_names,
        })
    }
}

/// Labels as `f64` (0.0 / 1.0), the shape learners consume.
pub fn labels_as_f64(ds: &Dataset) -> Vec<f64> {
    ds.labels().iter().map(|&l| l as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::new(
            "enc",
            vec!["x".into(), "c".into()],
            vec![
                Column::Numeric(vec![0.0, 5.0, 10.0]),
                Column::categorical_from_strs(&["a", "b", "a"]),
            ],
            vec![0, 1, 1],
            vec![0, 1, 0],
        )
        .unwrap()
    }

    #[test]
    fn min_max_scales_to_unit_interval() {
        let (enc, m) = FeatureEncoding::fit_transform(&sample());
        assert_eq!(enc.width(), 3); // 1 numeric + 2 one-hot
        assert_eq!(m.col(0), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn one_hot_is_indicator() {
        let (_, m) = FeatureEncoding::fit_transform(&sample());
        // rows: a -> (1,0), b -> (0,1), a -> (1,0)
        assert_eq!(m.row(0)[1..], [1.0, 0.0]);
        assert_eq!(m.row(1)[1..], [0.0, 1.0]);
        assert_eq!(m.row(2)[1..], [1.0, 0.0]);
    }

    #[test]
    fn feature_names_follow_layout() {
        let enc = FeatureEncoding::fit(&sample());
        assert_eq!(
            enc.feature_names(),
            &["x".to_string(), "c=a".to_string(), "c=b".to_string()]
        );
    }

    #[test]
    fn transform_clamps_out_of_range_values() {
        let enc = FeatureEncoding::fit(&sample());
        let test = Dataset::new(
            "t",
            vec!["x".into(), "c".into()],
            vec![
                Column::Numeric(vec![-5.0, 20.0]),
                Column::categorical_from_strs(&["b", "a"]),
            ],
            vec![0, 1],
            vec![0, 0],
        )
        .unwrap();
        let m = enc.transform(&test).unwrap();
        assert_eq!(m.col(0), vec![0.0, 1.0]);
    }

    #[test]
    fn constant_numeric_column_maps_to_half() {
        let d = Dataset::new(
            "const",
            vec!["x".into()],
            vec![Column::Numeric(vec![3.0, 3.0])],
            vec![0, 1],
            vec![0, 1],
        )
        .unwrap();
        let (_, m) = FeatureEncoding::fit_transform(&d);
        assert_eq!(m.col(0), vec![0.5, 0.5]);
    }

    #[test]
    fn unseen_level_encodes_as_zeros() {
        let enc = FeatureEncoding::fit(&sample());
        // Build a dataset whose categorical column has an extra level "z";
        // codes beyond the fitted level count must produce a zero block.
        let test = Dataset::new(
            "t",
            vec!["x".into(), "c".into()],
            vec![
                Column::Numeric(vec![1.0]),
                Column::Categorical {
                    codes: vec![7],
                    levels: vec!["a".into(), "b".into()],
                },
            ],
            vec![0],
            vec![0],
        )
        .unwrap();
        let m = enc.transform(&test).unwrap();
        assert_eq!(m.row(0)[1..], [0.0, 0.0]);
    }

    #[test]
    fn structure_mismatch_errors() {
        let enc = FeatureEncoding::fit(&sample());
        let other = Dataset::new(
            "o",
            vec!["x".into()],
            vec![Column::Numeric(vec![1.0])],
            vec![0],
            vec![0],
        )
        .unwrap();
        assert!(enc.transform(&other).is_err());
    }

    #[test]
    fn transform_rows_matches_dataset_path_on_numeric_data() {
        let train = Dataset::new(
            "num",
            vec!["a".into(), "b".into()],
            vec![
                Column::Numeric(vec![0.0, 5.0, 10.0]),
                Column::Numeric(vec![-1.0, 0.0, 3.0]),
            ],
            vec![0, 1, 1],
            vec![0, 1, 0],
        )
        .unwrap();
        let enc = FeatureEncoding::fit(&train);
        let test = Dataset::new(
            "t",
            vec!["a".into(), "b".into()],
            vec![
                Column::Numeric(vec![-2.0, 7.5, f64::NAN]),
                Column::Numeric(vec![1.0, 9.0, 0.5]),
            ],
            vec![0, 1, 0],
            vec![0, 0, 1],
        )
        .unwrap();
        let via_dataset = enc.transform(&test).unwrap();
        let rows = Matrix::from_rows(&[vec![-2.0, 1.0], vec![7.5, 9.0], vec![f64::NAN, 0.5]]);
        let via_rows = enc.transform_rows(&rows).unwrap();
        assert_eq!(via_rows, via_dataset);
    }

    #[test]
    fn transform_rows_rejects_categorical_encodings_and_bad_width() {
        let enc = FeatureEncoding::fit(&sample());
        let rows = Matrix::from_rows(&[vec![1.0, 0.0]]);
        assert!(matches!(
            enc.transform_rows(&rows),
            Err(DataError::WrongColumnKind { .. })
        ));
        let numeric_only = Dataset::new(
            "n",
            vec!["x".into()],
            vec![Column::Numeric(vec![0.0, 1.0])],
            vec![0, 1],
            vec![0, 1],
        )
        .unwrap();
        let enc = FeatureEncoding::fit(&numeric_only);
        let wide = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert!(matches!(
            enc.transform_rows(&wide),
            Err(DataError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn labels_as_f64_converts() {
        assert_eq!(labels_as_f64(&sample()), vec![0.0, 1.0, 1.0]);
    }
}
