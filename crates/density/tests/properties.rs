//! Property tests for the density estimators.

use cf_density::Kde;
use cf_linalg::Matrix;
use proptest::prelude::*;

/// Per-case magnitudes of the generated coordinates, up to ±1e150 (whose
/// squared deviations still sum well inside `f64` range at n = 600).
const SCALES: [f64; 5] = [1e-6, 1.0, 1e3, 1e75, 1e150];

/// Strategy: an `n × d` matrix (n in 1..=600, d in 1..=40) at one of the
/// [`SCALES`], optionally with duplicated rows and a constant column.
fn points() -> impl Strategy<Value = Matrix> {
    (
        1usize..=600,
        1usize..=40,
        0usize..SCALES.len(),
        0u8..2,
        0u8..2,
    )
        .prop_flat_map(|(n, d, scale, duplicate, constant)| {
            proptest::collection::vec(-1.0..1.0f64, n * d).prop_map(move |mut data| {
                for v in data.iter_mut() {
                    *v *= SCALES[scale];
                }
                if duplicate == 1 {
                    // Every third row repeats its predecessor exactly.
                    for i in (2..n).step_by(3) {
                        data.copy_within((i - 1) * d..i * d, i * d);
                    }
                }
                if constant == 1 {
                    for i in 0..n {
                        data[i * d + d - 1] = 0.75 * SCALES[scale];
                    }
                }
                Matrix::from_vec(n, d, data)
            })
        })
}

/// The symmetric pair pass must reproduce the per-point evaluation
/// `Kde::densities` on the training matrix bit for bit.
fn assert_bit_identical(x: &Matrix) -> Result<(), TestCaseError> {
    let kde = Kde::fit(x);
    let symmetric = kde.self_densities();
    let pointwise = kde.densities(x);
    prop_assert_eq!(symmetric.len(), x.rows());
    for (i, (s, p)) in symmetric.iter().zip(&pointwise).enumerate() {
        prop_assert!(
            s.to_bits() == p.to_bits(),
            "row {} of {}x{}: symmetric {:e} vs pointwise {:e}",
            i,
            x.rows(),
            x.cols(),
            s,
            p
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn self_densities_bit_identical_to_pointwise(x in points()) {
        assert_bit_identical(&x)?;
    }
}

#[test]
fn self_densities_bit_identical_at_the_extremes() {
    // The corners of the property's range, pinned so every run covers
    // them: one point, and the widest n × d at the largest magnitude.
    let one = Matrix::from_rows(&[vec![3.0, -1.0]]);
    assert_bit_identical(&one).unwrap();
    let rows: Vec<Vec<f64>> = (0..600)
        .map(|i| {
            (0..40)
                .map(|j| ((i * 7 + j * 13) % 97) as f64 * 1e148 - 4.8e149)
                .collect()
        })
        .collect();
    assert_bit_identical(&Matrix::from_rows(&rows)).unwrap();
}
