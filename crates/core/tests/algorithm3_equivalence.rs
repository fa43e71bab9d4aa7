//! Pins the interventions' Algorithm-3 consumers to their four-cell form.
//!
//! `build_profile` and `DiffFair::train` run the density filter only on
//! the cells they read, one cell at a time. These tests hold them to what
//! the four-cell `density_filter` output produced: the same ConFair
//! weight profile (checked against an independent reference built from
//! that output) and the same DiffFair decisions (checked against digests
//! recorded from the four-cell implementation).

use cf_conformance::{learn_constraints, LearnOptions};
use cf_data::split::{split3, SplitRatios, ThreeWaySplit};
use cf_data::{CellIndex, Column, Dataset};
use cf_datasets::{synthgen::syn_drift_scaled, toy::figure1_sized};
use cf_density::{density_filter, FilterConfig};
use cf_learners::LearnerKind;
use confair_core::confair::{build_profile, FairnessTarget};
use confair_core::{DiffFair, Intervention};
use proptest::prelude::*;

const TARGETS: [FairnessTarget; 3] = [
    FairnessTarget::DisparateImpact,
    FairnessTarget::EqOddsFnr,
    FairnessTarget::EqOddsFpr,
];

/// `(base weights, minority boost set, majority boost set)`.
type Profile = (Vec<f64>, Vec<usize>, Vec<usize>);

/// Algorithm 2, lines 1–11, written out independently: Kamiran–Calders
/// base weights, then the conforming members of each boosted cell under
/// constraints learned on that cell's entry in the four-cell
/// `density_filter` output (or on the whole cell, filter off).
fn reference_profile(
    train: &Dataset,
    target: FairnessTarget,
    filter: Option<FilterConfig>,
    opts: &LearnOptions,
) -> Profile {
    let n = train.len() as f64;
    let mut base = vec![0.0; train.len()];
    for cell in CellIndex::binary_cells() {
        let members = train.cell_indices(cell);
        for &i in &members {
            base[i] = train.label_count(cell.label) as f64 / n
                * train.group_count(cell.group) as f64
                / members.len() as f64;
        }
    }
    let four_cells = filter.map(|cfg| density_filter(train, cfg));
    let boost = |cell: CellIndex| -> Vec<usize> {
        let members = train.cell_indices(cell);
        let rows = match &four_cells {
            Some(cells) => cells.iter().find(|(c, _)| *c == cell).unwrap().1.clone(),
            None => members.clone(),
        };
        if rows.is_empty() {
            return Vec::new();
        }
        let constraints = learn_constraints(&train.numeric_matrix(Some(&rows)), opts);
        let x = train.numeric_matrix(Some(&members));
        members
            .iter()
            .zip(x.iter_rows())
            .filter(|(_, row)| constraints.violation(row) < 1e-12)
            .map(|(&i, _)| i)
            .collect()
    };
    let (cell_u, cell_w) = target.boosted_cells();
    (base, boost(cell_u), cell_w.map(boost).unwrap_or_default())
}

fn assert_profile_matches(
    train: &Dataset,
    target: FairnessTarget,
    filter: Option<FilterConfig>,
) -> Result<(), TestCaseError> {
    let opts = LearnOptions::default();
    let got = build_profile(train, target, filter, &opts).unwrap();
    let (base, boost_u, boost_w) = reference_profile(train, target, filter, &opts);
    prop_assert!(
        got.base_weights()
            .iter()
            .zip(&base)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "base weights diverged ({target:?}, {filter:?})"
    );
    prop_assert_eq!(got.boosted_minority(), &boost_u[..]);
    prop_assert_eq!(got.boosted_majority(), &boost_w[..]);
    Ok(())
}

/// Strategy: random group/label assignment (so cells differ in size and
/// may be empty), 1–4 numeric attributes, and a tree threshold drawn so
/// cells land on both sides of it.
fn case() -> impl Strategy<Value = (Dataset, usize)> {
    (8usize..160, 1usize..5, 2usize..60).prop_flat_map(|(n, d, tree_threshold)| {
        (
            proptest::collection::vec(-5.0..5.0f64, n * d),
            proptest::collection::vec(0u8..2, n),
            proptest::collection::vec(0u8..4, n),
        )
            .prop_map(move |(data, labels, group_draw)| {
                // Groups skewed 3:1 towards the majority, as in the paper.
                let groups = group_draw.iter().map(|&g| u8::from(g == 0)).collect();
                let columns = data
                    .chunks(n)
                    .map(|c| Column::Numeric(c.to_vec()))
                    .collect();
                let names = (0..d).map(|j| format!("x{j}")).collect();
                let ds = Dataset::new("prop", names, columns, labels, groups).unwrap();
                (ds, tree_threshold)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn build_profile_matches_four_cell_reference((train, tree_threshold) in case()) {
        let filter = FilterConfig { tree_threshold, ..FilterConfig::paper_default() };
        for target in TARGETS {
            assert_profile_matches(&train, target, Some(filter))?;
            assert_profile_matches(&train, target, None)?;
        }
    }
}

/// The Fig. 1 geometry at 900/120 per label: the majority training cells
/// (619 and 637 rows) take the k-d tree path at the default threshold of
/// 512, the minority cells (79 and 93 rows) the exact one.
fn large_split() -> ThreeWaySplit {
    split3(
        &figure1_sized(41, 900, 120),
        SplitRatios::paper_default(),
        41,
    )
}

#[test]
fn build_profile_matches_reference_across_the_tree_threshold() {
    let train = large_split().train;
    let threshold = FilterConfig::paper_default().tree_threshold;
    assert!(train.cell_count(CellIndex { group: 0, label: 0 }) >= threshold);
    assert!(train.cell_count(CellIndex { group: 1, label: 1 }) < threshold);
    for target in TARGETS {
        assert_profile_matches(&train, target, Some(FilterConfig::paper_default())).unwrap();
        assert_profile_matches(&train, target, None).unwrap();
    }
}

/// FNV-1a over the decision bytes.
fn digest(decisions: &[u8]) -> u64 {
    decisions.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn difffair_decisions_match_the_four_cell_implementation() {
    // (split, learner, intervention, positives, digest) on the test
    // split, recorded from DiffFair::train when it profiled from the
    // four-cell `density_filter` output and ranked with the per-point
    // KDE loop.
    let fig = large_split();
    let syn = split3(
        &syn_drift_scaled(1, 0.1, 7),
        SplitRatios::paper_default(),
        7,
    );
    let filtered = DiffFair::paper_default;
    let unfiltered = DiffFair::without_density_filter;
    use LearnerKind::{Gbt, Logistic};
    let cases = [
        (&fig, Logistic, filtered(), 156, 0x3031_0cf3_910c_6a93),
        (&fig, Logistic, unfiltered(), 160, 0xc5af_c4fb_aca0_3145),
        (&fig, Gbt, filtered(), 161, 0x65e0_cb4c_fb07_052c),
        (&syn, Logistic, filtered(), 86, 0xdbbf_1a3c_ca84_e99d),
        (&syn, Gbt, filtered(), 79, 0x4f5b_7792_67b9_c822),
    ];
    for (split, learner, diff, positives, want) in cases {
        let decisions = diff
            .train(&split.train, &split.validation, learner)
            .unwrap()
            .predict(&split.test)
            .unwrap();
        let label = format!("{} {}", diff.name(), learner.name());
        let ones = decisions.iter().filter(|&&d| d == 1).count();
        assert_eq!(ones, positives, "{label}");
        assert_eq!(digest(&decisions), want, "{label}");
    }
}
