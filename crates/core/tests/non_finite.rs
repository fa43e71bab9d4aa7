//! Non-finite training features fail every intervention with a typed
//! error before Algorithm 3, constraint learning or a fit can see them.

use cf_data::{CellIndex, Column, Dataset};
use cf_datasets::toy::figure1_sized;
use cf_learners::LearnerKind;
use confair_core::{ConFair, CoreError, DiffFair, Intervention, SingleModelPredictor};

/// Fig. 1 data with `bad` written into attribute 1 of the first
/// majority-negative tuple; returns the dataset and that tuple's index.
fn poisoned(majority_per_label: usize, minority_per_label: usize, bad: f64) -> (Dataset, usize) {
    let clean = figure1_sized(3, majority_per_label, minority_per_label);
    let row = clean.cell_indices(CellIndex { group: 0, label: 0 })[0];
    let columns = (0..clean.num_attributes())
        .map(|j| {
            let mut values = clean.column(j).as_numeric().unwrap().to_vec();
            if j == 1 {
                values[row] = bad;
            }
            Column::Numeric(values)
        })
        .collect();
    let ds = Dataset::new(
        "poisoned",
        clean.column_names().to_vec(),
        columns,
        clean.labels().to_vec(),
        clean.groups().to_vec(),
    )
    .unwrap();
    (ds, row)
}

#[test]
fn interventions_reject_non_finite_features() {
    // 400 rows keeps every cell on the exact KDE path; 4,000 puts the
    // 1,700-row majority cells on the k-d tree path.
    for (majority, minority) in [(170, 30), (1_700, 300)] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (train, row) = poisoned(majority, minority, bad);
            let want = CoreError::NonFinite { row, feature: 1 };
            let label = format!("{} rows, {bad}", train.len());
            let confair = ConFair::paper_default().train(&train, &train, LearnerKind::Logistic);
            assert_eq!(confair.err(), Some(want.clone()), "ConFair, {label}");
            let confair0 =
                ConFair::without_density_filter().train(&train, &train, LearnerKind::Logistic);
            assert_eq!(confair0.err(), Some(want.clone()), "ConFair0, {label}");
            let difffair = DiffFair::paper_default().train(&train, &train, LearnerKind::Gbt);
            assert_eq!(difffair.err(), Some(want.clone()), "DiffFair, {label}");
            for learner in LearnerKind::both() {
                let single = SingleModelPredictor::fit(&train, learner, None);
                assert_eq!(
                    single.err(),
                    Some(want.clone()),
                    "{} fit, {label}",
                    learner.name()
                );
            }
        }
    }
}
