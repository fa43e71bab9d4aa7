//! Property tests for conformance-constraint invariants.

use cf_conformance::{
    learn_constraints, ConstraintFamily, ConstraintSet, LearnOptions, Projection,
};
use cf_linalg::Matrix;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn data_matrix() -> impl Strategy<Value = Matrix> {
    (5usize..60, 1usize..5).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-50.0..50.0f64, n * d)
            .prop_map(move |data| Matrix::from_vec(n, d, data))
    })
}

fn arb_projection() -> impl Strategy<Value = Projection> {
    (
        proptest::collection::vec(-2.0..2.0f64, 1..4),
        -5.0..0.0f64,
        0.0..5.0f64,
        0.01..2.0f64,
        0.1..10.0f64,
    )
        .prop_map(|(coeffs, lb, ub, std, importance)| Projection {
            coeffs,
            lb,
            ub,
            std,
            importance,
        })
}

proptest! {
    #[test]
    fn learned_constraints_admit_training_tuples(x in data_matrix()) {
        let cs = learn_constraints(&x, &LearnOptions::default());
        for row in x.iter_rows() {
            // Strict min/max bounds ⇒ every profiled tuple conforms
            // (tolerance for floating-point at the boundary).
            prop_assert!(cs.violation(row) < 1e-9);
        }
    }

    #[test]
    fn violation_in_unit_interval(x in data_matrix(), probe in proptest::collection::vec(-200.0..200.0f64, 1..5)) {
        prop_assume!(probe.len() == x.cols());
        let cs = learn_constraints(&x, &LearnOptions::default());
        let v = cs.violation(&probe);
        prop_assert!((0.0..=1.0).contains(&v), "violation {}", v);
    }

    #[test]
    fn importances_sum_to_one(x in data_matrix()) {
        let cs = learn_constraints(&x, &LearnOptions::default());
        let total: f64 = cs.projections().iter().map(|p| p.importance).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn satisfied_iff_zero_violation(p in arb_projection(), t in proptest::collection::vec(-10.0..10.0f64, 1..4)) {
        prop_assume!(t.len() == p.coeffs.len());
        prop_assert_eq!(p.satisfied(&t), p.violation(&t) == 0.0);
    }

    #[test]
    fn violation_monotone_along_rays(p in arb_projection(), scale in 1.0..10.0f64) {
        // Pick a point guaranteed outside: project far beyond ub.
        let t: Vec<f64> = p.coeffs.iter().map(|&c| c * 100.0).collect();
        prop_assume!(p.project(&t) > p.ub);
        let further: Vec<f64> = t.iter().map(|&v| v * scale).collect();
        prop_assert!(p.violation(&further) >= p.violation(&t) - 1e-12);
    }

    #[test]
    fn family_min_is_lower_bound_of_members(x in data_matrix(), probe in proptest::collection::vec(-100.0..100.0f64, 1..5)) {
        prop_assume!(probe.len() == x.cols());
        let a = learn_constraints(&x, &LearnOptions::default());
        let b = learn_constraints(&x, &LearnOptions { bound_quantile: 0.1, ..LearnOptions::default() });
        let fam = ConstraintFamily::from_sets(vec![a.clone(), b.clone()]);
        let m = fam.min_violation(&probe);
        prop_assert!(m <= a.violation(&probe) + 1e-12);
        prop_assert!(m <= b.violation(&probe) + 1e-12);
    }

    #[test]
    fn quantile_bounds_never_widen(x in data_matrix()) {
        let strict = learn_constraints(&x, &LearnOptions::default());
        let trimmed = learn_constraints(&x, &LearnOptions { bound_quantile: 0.1, ..LearnOptions::default() });
        for (s, t) in strict.projections().iter().zip(trimmed.projections()) {
            prop_assert!(t.lb >= s.lb - 1e-9);
            prop_assert!(t.ub <= s.ub + 1e-9);
        }
    }
}

/// The scalar definition `⟦Φ⟧(t) = Σ qᵢ·⟦ϕᵢ⟧(t)`, one projection at a time,
/// summed in projection order: the reference the packed kernel must match
/// bit for bit.
fn scalar_violation(set: &ConstraintSet, t: &[f64]) -> f64 {
    set.projections()
        .iter()
        .map(|p| p.importance * p.violation(t))
        .sum()
}

/// Features a probe may carry besides ordinary values.
const SPECIAL: [f64; 6] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e300,
    -1e300,
    -0.0,
];

/// An `n × d` matrix of entries uniform in `(-half_width, half_width)`.
fn random_matrix(rng: &mut StdRng, n: usize, d: usize, half_width: f64) -> Matrix {
    let data = (0..n * d)
        .map(|_| rng.gen_range(-half_width..half_width))
        .collect();
    Matrix::from_vec(n, d, data)
}

/// How [`arbitrary_set`] draws its importances.
#[derive(Clone, Copy, Debug)]
enum Weights {
    /// Mostly positive, with `+0.0` and `-0.0` mixed in.
    Mixed,
    /// Every weight `-0.0`, so every term is too: the fold's starting
    /// value decides the sign of the total.
    AllNegativeZero,
    /// Only `+0.0` and `-0.0`: violated terms are signed zeros, and the
    /// total's sign depends on which zeros the fold sees.
    SignedZeros,
}

const WEIGHTS: [Weights; 3] = [
    Weights::Mixed,
    Weights::AllNegativeZero,
    Weights::SignedZeros,
];

/// `m` arbitrary projections of width `d` through `Deserialize::from_value`,
/// so the weights stay as drawn: σ = 0 and σ = +∞ included, bounds around
/// 0 (so the zero vector conforms to every projection).
fn arbitrary_set(d: usize, m: usize, weights: Weights, rng: &mut StdRng) -> ConstraintSet {
    let projections: Vec<Projection> = (0..m)
        .map(|_| Projection {
            coeffs: (0..d)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect(),
            lb: rng.gen_range(-40.0..0.0),
            ub: rng.gen_range(0.0..40.0),
            std: match rng.gen_range(0u8..10) {
                0 | 1 => 0.0,
                2 => f64::INFINITY,
                _ => rng.gen_range(0.01..5.0),
            },
            importance: match (weights, rng.gen_range(0u8..4)) {
                (Weights::AllNegativeZero, _) => -0.0,
                (Weights::SignedZeros, k) => {
                    if k % 2 == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                }
                (Weights::Mixed, 0) => 0.0,
                (Weights::Mixed, 1) => -0.0,
                (Weights::Mixed, _) => rng.gen_range(0.0..1.0),
            },
        })
        .collect();
    // Built as a tree, not written and parsed: JSON text would carry
    // σ = +∞ only as `null`.
    use serde::Value;
    let number = |x: f64| Value::Number(x);
    let projection = |p: &Projection| {
        Value::Object(vec![
            (
                "coeffs".into(),
                Value::Array(p.coeffs.iter().copied().map(number).collect()),
            ),
            ("lb".into(), number(p.lb)),
            ("ub".into(), number(p.ub)),
            ("std".into(), number(p.std)),
            ("importance".into(), number(p.importance)),
        ])
    };
    let doc = Value::Object(vec![(
        "projections".into(),
        Value::Array(projections.iter().map(projection).collect()),
    )]);
    <ConstraintSet as serde::Deserialize>::from_value(&doc).expect("well-formed set")
}

/// One constraint set of width `d`, built the way `builder` selects:
/// 0 = `learn_constraints` (with `m < d` projections half the time),
/// 1 = [`arbitrary_set`] with 1–40 projections, 2 = `learn_constraints`
/// then `recompute_stds`. Returns the set and the rows it was profiled on.
fn build_set(d: usize, builder: u8, rng: &mut StdRng) -> (ConstraintSet, Matrix) {
    let n = d + rng.gen_range(2usize..12);
    let x = random_matrix(rng, n, d, 50.0);
    let opts = LearnOptions {
        bound_quantile: if rng.gen_bool(0.5) { 0.0 } else { 0.2 },
        max_projections: if rng.gen_bool(0.5) {
            Some(rng.gen_range(1..=d))
        } else {
            None
        },
        ..LearnOptions::default()
    };
    let set = match builder {
        0 => learn_constraints(&x, &opts),
        1 => {
            let m = rng.gen_range(1usize..=40);
            let weights = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
            arbitrary_set(d, m, weights, rng)
        }
        _ => {
            let mut set = learn_constraints(&x, &opts);
            set.recompute_stds(&random_matrix(rng, n, d, 200.0));
            set
        }
    };
    (set, x)
}

/// Assert the portable and the dispatched kernel both return the scalar
/// reference's bits for `set` at `t`.
fn assert_paths_agree(set: &ConstraintSet, t: &[f64], what: &str) -> Result<(), TestCaseError> {
    // `violation` dispatches (to the AVX2 copy on an AVX2 host), so the
    // portable fallback is pinned separately.
    let scalar = scalar_violation(set, t);
    let portable = set.violation_portable(t);
    let dispatched = set.violation(t);
    prop_assert_eq!(
        portable.to_bits(),
        scalar.to_bits(),
        "portable: {} m={} t={:?}: {} vs {}",
        what,
        set.len(),
        t,
        portable,
        scalar
    );
    prop_assert_eq!(
        dispatched.to_bits(),
        scalar.to_bits(),
        "dispatched: {} m={} t={:?}: {} vs {}",
        what,
        set.len(),
        t,
        dispatched,
        scalar
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn packed_violation_is_bit_identical_to_scalar(
        d in 1usize..=40,
        builder in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (set, x) = build_set(d, builder, &mut rng);
        for probe in 0..24 {
            // Profiled rows (mostly conforming: the dist = 0 shortcut),
            // random points, and either with special values mixed in.
            let mut t: Vec<f64> = if probe % 2 == 0 {
                x.row(rng.gen_range(0..x.rows())).to_vec()
            } else {
                (0..d).map(|_| rng.gen_range(-100.0..100.0)).collect()
            };
            if probe % 3 == 0 {
                for v in t.iter_mut() {
                    if rng.gen_bool(0.2) {
                        *v = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                    }
                }
            }
            assert_paths_agree(&set, &t, &format!("d={d} builder={builder}"))?;
        }
        // The zero vector conforms to every arbitrary set, so only the
        // fold's starting value reaches the total.
        assert_paths_agree(&set, &vec![0.0; d], &format!("zero row, d={d} builder={builder}"))?;
    }
}

/// The edge cases of the violated-terms-only fold, for every projection
/// count from 1 to 40 (every 16/8/1 tile remainder, with and without full
/// 16- and 8-tiles) under every weight pattern: all-conforming rows (the
/// starting zero's sign), violated terms weighted `-0.0`, mixed `±0.0`
/// weights, and `σ = +∞` probed with `±∞` features, whose `-∞/∞` term is
/// NaN and must reach the total.
#[test]
fn violation_skip_edge_cases_are_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut saw_negative_zero = false;
    let mut saw_nan = false;
    for m in 1..=40 {
        for weights in WEIGHTS {
            for d in [1, 3, 8] {
                let set = arbitrary_set(d, m, weights, &mut rng);
                let what = format!("d={d} weights={weights:?}");
                let mut probes = vec![vec![0.0; d], vec![-0.0; d]];
                for _ in 0..6 {
                    probes.push((0..d).map(|_| rng.gen_range(-100.0..100.0)).collect());
                    probes.push(
                        (0..d)
                            .map(|_| match rng.gen_range(0u8..3) {
                                0 => f64::INFINITY,
                                1 => f64::NEG_INFINITY,
                                _ => rng.gen_range(-100.0..100.0),
                            })
                            .collect(),
                    );
                }
                for t in &probes {
                    assert_paths_agree(&set, t, &what).unwrap();
                    let v = set.violation(t);
                    saw_negative_zero |= v.to_bits() == (-0.0f64).to_bits();
                    saw_nan |= v.is_nan();
                }
            }
        }
    }
    assert!(saw_negative_zero, "no probe summed to -0.0");
    assert!(saw_nan, "no probe reached a NaN term");
}

#[test]
fn constraint_set_display_is_line_per_conjunct() {
    let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 2.0], vec![2.0, 4.0]]);
    let cs = learn_constraints(&x, &LearnOptions::default());
    let names = vec!["X1".to_string(), "X2".to_string()];
    let rendered = cs.display_with(&names);
    assert_eq!(rendered.lines().count(), cs.len());
    assert!(rendered.contains("<="));
}

#[test]
fn empty_family_is_infinite() {
    let fam = ConstraintFamily::new();
    assert_eq!(fam.min_violation(&[1.0]), f64::INFINITY);
}

#[test]
fn set_round_trip_through_family() {
    let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
    let cs = learn_constraints(&x, &LearnOptions::default());
    let mut fam = ConstraintFamily::new();
    fam.push(cs.clone());
    assert_eq!(fam.sets(), std::slice::from_ref(&cs));
    let _ = ConstraintSet::new(cs.projections().to_vec());
}
