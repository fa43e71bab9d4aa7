//! Integration tests for the streaming subsystem: the end-to-end
//! drift-alert-retrain loop plus the edge cases the engine must survive
//! (empty window, single-group streams, windows smaller than a batch, and
//! alert hysteresis on stationary streams).

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, AsyncEngine, DriftKind, EngineCheckpoint, RetrainPolicy, ShardedAsyncEngine,
    ShardedEngine, ShardedTuple, StreamConfig, StreamEngine, StreamError, StreamTuple,
    CHECKPOINT_VERSION,
};

fn spec() -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset: 6_000,
        ..DriftStreamSpec::default()
    }
}

fn engine(config: StreamConfig) -> StreamEngine {
    let reference = spec().reference(4_000, 42);
    StreamEngine::from_reference(&reference, LearnerKind::Logistic, 42, config).unwrap()
}

fn batches(stream: &mut DriftStream, n_batches: usize, batch: usize) -> Vec<Vec<StreamTuple>> {
    (0..n_batches)
        .map(|_| StreamTuple::rows_from_dataset(&stream.next_batch(batch)).unwrap())
        .collect()
}

#[test]
fn drift_is_alerted_after_onset_never_before_and_retrain_restores_di() {
    let config = StreamConfig {
        retrain: RetrainPolicy::OnAlert { min_window: 1_000 },
        ..StreamConfig::default()
    };
    let mut engine = engine(config);
    let mut stream = DriftStream::new(spec(), 7);

    let batch = 250usize;
    let mut saw_drop_below_floor = false;
    for batch_tuples in batches(&mut stream, 80, batch) {
        let outcome = engine.ingest(&batch_tuples).unwrap();
        if outcome.snapshot.passes_di_floor() == Some(false) {
            saw_drop_below_floor = true;
        }
    }

    // 80 × 250 = 20,000 tuples; onset at 6,000.
    assert!(
        !engine.alerts().is_empty(),
        "the injected drift must raise at least one alert"
    );
    for alert in engine.alerts() {
        assert!(
            alert.at_tuple > 6_000,
            "no alert before the drift onset, got one at {}",
            alert.at_tuple
        );
    }
    assert!(
        engine
            .alerts()
            .iter()
            .any(|a| a.kind == DriftKind::ConformanceViolation && a.group == 1),
        "the drifting minority must trip its conformance detector"
    );
    assert!(
        saw_drop_below_floor,
        "the stale model must dip below the DI floor"
    );
    assert!(engine.retrain_count() >= 1, "the retraining hook must run");

    // After retraining, the post-drift distribution is the new normal:
    // the windowed DI* must recover above the EEOC floor.
    let final_snapshot = engine.snapshot();
    let di = final_snapshot.di_star.expect("both groups observed");
    assert!(
        di >= 0.8,
        "retraining must restore DI* above the 0.8 floor, got {di:.3} \
         ({})",
        final_snapshot.one_line()
    );
}

#[test]
fn stationary_stream_never_alerts() {
    // Alert hysteresis: a drift-free stream must stay quiet end to end —
    // no conformance alerts, no DI-floor flapping.
    let mut engine = engine(StreamConfig::default());
    let stationary = DriftStreamSpec {
        drift_onset: u64::MAX,
        ..spec()
    };
    let mut stream = DriftStream::new(stationary, 11);
    for batch_tuples in batches(&mut stream, 60, 250) {
        let outcome = engine.ingest(&batch_tuples).unwrap();
        assert!(
            outcome.alerts.is_empty(),
            "false alarm on a stationary stream at tuple {}: {:?}",
            engine.tuples_seen(),
            outcome.alerts
        );
    }
    assert_eq!(engine.alerts(), &[]);
    assert_eq!(engine.retrain_count(), 0);
}

#[test]
fn empty_window_and_empty_batch_are_well_defined() {
    let engine = engine(StreamConfig::default());
    // Snapshot over an empty window: all readings are absent, none NaN.
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.window_len, 0);
    assert_eq!(snapshot.di_star, None);
    assert_eq!(snapshot.passes_di_floor(), None);
    assert_eq!(snapshot.selection_rate, [None, None]);

    // Ingesting an empty batch is a no-op, not an error.
    let mut engine = engine;
    let outcome = engine.ingest(&[]).unwrap();
    assert!(outcome.decisions.is_empty());
    assert!(outcome.alerts.is_empty());
    assert_eq!(engine.tuples_seen(), 0);

    // A zero-capacity window is rejected at construction.
    let reference = spec().reference(1_000, 1);
    let config = StreamConfig {
        window: 0,
        ..StreamConfig::default()
    };
    assert!(matches!(
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 1, config),
        Err(StreamError::EmptyWindow)
    ));
}

#[test]
fn single_group_stream_monitors_without_fairness_verdicts() {
    let mut engine = engine(StreamConfig::default());
    let mut stream = DriftStream::new(
        DriftStreamSpec {
            drift_onset: u64::MAX,
            ..spec()
        },
        13,
    );
    // Keep only majority tuples: the DI monitors must stay undefined (not
    // 0, not NaN, no floor alerts) while per-group telemetry still works.
    for _ in 0..20 {
        let all = StreamTuple::rows_from_dataset(&stream.next_batch(300)).unwrap();
        let majority_only: Vec<StreamTuple> = all.into_iter().filter(|t| t.group == 0).collect();
        let outcome = engine.ingest(&majority_only).unwrap();
        assert_eq!(outcome.snapshot.di_star, None);
        assert_eq!(outcome.snapshot.passes_di_floor(), None);
        assert_eq!(outcome.snapshot.selection_rate[1], None);
        assert!(outcome.snapshot.selection_rate[0].is_some());
        assert!(
            outcome.alerts.is_empty(),
            "no fairness verdicts on one group"
        );
    }
    assert!(engine.snapshot().violation_rate[0].is_some());
}

#[test]
fn window_smaller_than_batch_keeps_only_the_tail() {
    let config = StreamConfig {
        window: 64,
        ..StreamConfig::default()
    };
    let mut engine = engine(config);
    let mut stream = DriftStream::new(spec(), 17);
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(500)).unwrap();
    let outcome = engine.ingest(&batch).unwrap();
    // Decisions cover the whole batch even though the window cannot.
    assert_eq!(outcome.decisions.len(), 500);
    assert_eq!(engine.window_len(), 64);
    assert_eq!(outcome.snapshot.window_len, 64);
    assert_eq!(engine.tuples_seen(), 500);
    // The retained tail is exactly the last 64 tuples, in order.
    let window = engine.window_dataset("tail").unwrap();
    let expected: Vec<u8> = batch[500 - 64..].iter().map(|t| t.label.unwrap()).collect();
    assert_eq!(window.labels(), &expected[..]);
}

/// The value a rendered registry reports for the unlabeled series `name`.
fn rendered(registry: &cf_telemetry::MetricsRegistry, name: &str) -> f64 {
    let text = registry.render();
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("{name} is not rendered"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn retrain_now_refreshes_the_monitor_gauges() {
    let mut engine = engine(StreamConfig::default());
    let registry = cf_telemetry::MetricsRegistry::new();
    engine.install_metrics(&registry);
    let mut stream = DriftStream::new(spec(), 23);
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(1_000)).unwrap();
    engine.ingest(&batch).unwrap();
    engine.retrain_now().unwrap();
    assert_eq!(engine.retrain_count(), 1);
    assert_eq!(
        rendered(&registry, "cf_stream_retrains"),
        engine.retrain_count() as f64,
        "the gauge must not wait for the next batch"
    );
}

#[test]
fn retrain_on_degenerate_window_is_a_clean_error() {
    let mut engine = engine(StreamConfig::default());
    // Window with a single class: retraining must fail loudly, not panic.
    let mut stream = DriftStream::new(spec(), 19);
    let all = StreamTuple::rows_from_dataset(&stream.next_batch(400)).unwrap();
    let positives_only: Vec<StreamTuple> = all.into_iter().filter(|t| t.label == Some(1)).collect();
    engine.ingest(&positives_only).unwrap();
    assert!(matches!(
        engine.retrain_now(),
        Err(StreamError::DegenerateWindow(_))
    ));
}

#[test]
fn failed_retrain_now_counts_a_retrain_failure() {
    let mut engine = engine(StreamConfig::default());
    let registry = cf_telemetry::MetricsRegistry::new();
    engine.install_metrics(&registry);
    let mut stream = DriftStream::new(spec(), 19);
    let all = StreamTuple::rows_from_dataset(&stream.next_batch(400)).unwrap();
    let positives_only: Vec<StreamTuple> = all.into_iter().filter(|t| t.label == Some(1)).collect();
    engine.ingest(&positives_only).unwrap();
    assert!(engine.retrain_now().is_err());
    assert_eq!(
        rendered(&registry, "cf_stream_retrain_failures_total"),
        1.0,
        "a failed manual retrain is a failed retrain attempt"
    );
}

#[test]
fn schema_mismatch_is_rejected() {
    let mut engine = engine(StreamConfig::default());
    let bad = StreamTuple {
        features: vec![1.0, 2.0, 3.0],
        group: 0,
        label: Some(0),
    };
    assert!(matches!(engine.ingest(&[bad]), Err(StreamError::Schema(_))));
    let bad_group = StreamTuple {
        features: vec![1.0, 2.0],
        group: 7,
        label: None,
    };
    assert!(matches!(
        engine.ingest(&[bad_group]),
        Err(StreamError::BadGroup(7))
    ));
    let bad_label = StreamTuple {
        features: vec![1.0, 2.0],
        group: 0,
        label: Some(3),
    };
    assert!(matches!(
        engine.ingest(&[bad_label]),
        Err(StreamError::BadLabel(3))
    ));
    // A rejected batch must not advance the engine at all.
    assert_eq!(engine.tuples_seen(), 0);
    assert_eq!(engine.window_len(), 0);
}

#[test]
fn k1_stream_has_no_pairs_and_fabricates_no_readings() {
    // K=1: a single cell has no ordered pairs, so every pairwise reading
    // must be *absent* — `None`, never a fabricated 0.0 or NaN — while
    // the cell's own monitors keep working.
    let k1 = DriftStreamSpec {
        groups: 1,
        drift_group: 0,
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    };
    let reference = k1.reference(2_000, 3);
    let config = StreamConfig {
        groups: 1,
        ..StreamConfig::default()
    };
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 3, config).unwrap();
    let mut stream = DriftStream::new(k1, 31);
    for _ in 0..10 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(250)).unwrap();
        let outcome = engine.ingest(&batch).unwrap();
        assert_eq!(outcome.snapshot.di_star, None, "no pair, no DI*");
        assert_eq!(
            outcome.snapshot.demographic_parity_gap, None,
            "no pair, no DP gap"
        );
        assert_eq!(outcome.snapshot.passes_di_floor(), None);
        assert_eq!(outcome.snapshot.selection_rate.len(), 1);
        assert!(outcome.snapshot.selection_rate[0].is_some());
        assert!(outcome.alerts.is_empty(), "no pairwise verdicts at K=1");
    }
    assert!(engine.snapshot().violation_rate[0].is_some());
    // And the single cell is still rejected beyond its range.
    let bad = StreamTuple {
        features: vec![1.0, 2.0],
        group: 1,
        label: None,
    };
    assert!(matches!(
        engine.ingest(&[bad]),
        Err(StreamError::BadGroup(1))
    ));
}

#[test]
fn empty_intersection_cells_stay_absent_not_zero() {
    // An 8-cell engine fed a stream that only ever populates cells 0..4
    // (the realistic sparse-intersection case): the empty cells' readings
    // stay `None`, the populated cells' monitoring is unaffected, and no
    // detector fires for a cell that has seen no tuples.
    let four_cells = DriftStreamSpec {
        groups: 4,
        minority_fraction: 0.6,
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    };
    let reference = four_cells.reference(3_000, 5);
    let config = StreamConfig {
        groups: 8,
        ..StreamConfig::default()
    };
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 5, config).unwrap();
    let mut stream = DriftStream::new(four_cells, 37);
    for _ in 0..8 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(250)).unwrap();
        engine.ingest(&batch).unwrap();
    }
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.selection_rate.len(), 8);
    for cell in 0..4 {
        assert!(
            snapshot.selection_rate[cell].is_some(),
            "populated cell {cell} must report"
        );
    }
    for cell in 4..8 {
        assert_eq!(
            snapshot.selection_rate[cell], None,
            "empty cell {cell} must stay absent, not 0.0"
        );
        assert_eq!(snapshot.violation_rate[cell], None);
        assert_eq!(snapshot.labeled[cell], 0);
    }
    // Worst-pair readings range over populated cells only — defined, and
    // never NaN.
    let di = snapshot.di_star.expect("populated pairs exist");
    assert!(di.is_finite());
    assert!(
        engine.alerts().iter().all(|a| a.group < 4),
        "no detector may fire for a cell that has seen no tuples"
    );
}

#[test]
fn group_beyond_k_is_a_typed_error_at_every_ingest_boundary() {
    let k3 = DriftStreamSpec {
        groups: 3,
        minority_fraction: 0.5,
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    };
    let reference = k3.reference(2_000, 7);
    let config = StreamConfig {
        groups: 3,
        ..StreamConfig::default()
    };
    let bad = StreamTuple {
        features: vec![1.0, 2.0],
        group: 3, // == K: first id past the 0..3 cell range
        label: None,
    };

    // Sync boundary.
    let mut sync =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 7, config.clone()).unwrap();
    assert!(matches!(
        sync.ingest(std::slice::from_ref(&bad)),
        Err(StreamError::BadGroup(3))
    ));
    assert_eq!(sync.tuples_seen(), 0, "rejected batch must not advance");

    // Async boundary: rejected at submission, before anything enqueues.
    let inner =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 7, config.clone()).unwrap();
    let mut anc = AsyncEngine::from_engine(inner, AsyncConfig::default());
    assert!(matches!(
        anc.ingest(std::slice::from_ref(&bad)),
        Err(StreamError::BadGroup(3))
    ));
    anc.flush().unwrap();
    assert_eq!(anc.snapshot().window_len, 0);

    // Sharded boundary.
    let mut sharded =
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 7, config, 2).unwrap();
    assert!(matches!(
        sharded.ingest(&[ShardedTuple {
            shard: 1,
            tuple: bad,
        }]),
        Err(StreamError::BadGroup(3))
    ));
    assert_eq!(sharded.snapshot().window_len, 0);
}

#[test]
fn non_finite_features_reject_the_batch_at_every_ingest_boundary() {
    // A NaN would read as conforming (`f64::max` drops it, so its
    // conformance distance is 0) and would reach the retrain window; an
    // infinity saturates every projection. Each shell rejects the whole
    // batch — the finite tuples ahead of the bad one included — and leaves
    // its checkpoint byte-identical.
    let reference = spec().reference(2_000, 11);
    let config = StreamConfig::default();
    let mut stream = DriftStream::new(spec(), 13);
    let warm = StreamTuple::rows_from_dataset(&stream.next_batch(200)).unwrap();
    let bad_batches: Vec<(Vec<StreamTuple>, usize, usize)> =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
            .map(|(k, bad)| {
                let mut batch = StreamTuple::rows_from_dataset(&stream.next_batch(8)).unwrap();
                let (tuple, feature) = (3 + k, k % 2);
                batch[tuple].features[feature] = bad;
                (batch, tuple, feature)
            })
            .collect();
    let rejected = |r: Result<(), StreamError>, tuple: usize, feature: usize| {
        assert_eq!(r, Err(StreamError::NonFinite { tuple, feature }));
    };
    let routed = |batch: &[StreamTuple]| -> Vec<ShardedTuple> {
        batch
            .iter()
            .enumerate()
            .map(|(i, t)| ShardedTuple {
                shard: (i % 2) as u32,
                tuple: t.clone(),
            })
            .collect()
    };

    // Sync.
    let mut sync =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 11, config.clone())
            .unwrap();
    sync.ingest(&warm).unwrap();
    let before = sync.checkpoint().unwrap().to_json();
    for (batch, tuple, feature) in &bad_batches {
        rejected(sync.ingest(batch).map(|_| ()), *tuple, *feature);
    }
    assert_eq!(sync.checkpoint().unwrap().to_json(), before);

    // Async: rejected at submission, before anything enqueues.
    let inner = StreamEngine::from_reference(&reference, LearnerKind::Logistic, 11, config.clone())
        .unwrap();
    let mut anc = AsyncEngine::from_engine(inner, AsyncConfig::default());
    anc.ingest(&warm).unwrap();
    let before = anc.checkpoint().unwrap().to_json();
    for (batch, tuple, feature) in &bad_batches {
        rejected(anc.ingest(batch).map(|_| ()), *tuple, *feature);
        rejected(
            anc.ingest_owned(batch.clone()).map(|_| ()),
            *tuple,
            *feature,
        );
    }
    assert_eq!(anc.checkpoint().unwrap().to_json(), before);

    // Sharded, sync and async routers.
    let mut sharded =
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 11, config.clone(), 2)
            .unwrap();
    sharded.ingest(&routed(&warm)).unwrap();
    let before = sharded.checkpoint().unwrap().to_json();
    for (batch, tuple, feature) in &bad_batches {
        rejected(sharded.ingest(&routed(batch)).map(|_| ()), *tuple, *feature);
    }
    assert_eq!(sharded.checkpoint().unwrap().to_json(), before);

    let mut fleet = ShardedAsyncEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        11,
        config,
        2,
        AsyncConfig::default(),
    )
    .unwrap();
    fleet.ingest(&routed(&warm)).unwrap();
    let before = fleet.checkpoint().unwrap().to_json();
    for (batch, tuple, feature) in &bad_batches {
        rejected(fleet.ingest(&routed(batch)).map(|_| ()), *tuple, *feature);
    }
    assert_eq!(fleet.checkpoint().unwrap().to_json(), before);
}

#[test]
fn mid_drift_binary_v3_checkpoint_upgrades_and_resumes_identically() {
    // Checkpoint a binary engine *mid-drift* (detectors warm, window
    // carrying post-onset tuples), rewrite the document to the v3 schema
    // it would have had before the K-ary refactor (no `config.groups`),
    // and restore through the upgrade chain: the document must come back
    // as K=2, re-serialise to the exact live v4 bytes, and resume the
    // stream identically to the uninterrupted engine.
    let drifted = DriftStreamSpec {
        drift_onset: 1_500,
        ..spec()
    };
    let reference = drifted.reference(3_000, 9);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        9,
        StreamConfig::default(),
    )
    .unwrap();
    let mut stream = DriftStream::new(drifted, 41);
    for batch_tuples in batches(&mut stream, 10, 250) {
        engine.ingest(&batch_tuples).unwrap();
    }

    let live = engine.checkpoint().unwrap().to_json();
    // Peel off the fields appended after v3 (`config.groups` and the
    // version stamp; the v5 repair fields ride along — the upgrade chain
    // overwrites them with the same idle defaults either way) to
    // fabricate the pre-refactor document.
    assert!(live.contains("\"groups\":2") && live.contains("\"version\":5"));
    let v3 = live
        .replacen(",\"groups\":2", "", 1)
        .replacen("\"version\":5", "\"version\":3", 1);

    let upgraded = EngineCheckpoint::from_json(&v3).expect("v3 upgrades through the chain");
    assert_eq!(upgraded.version, CHECKPOINT_VERSION);
    assert_eq!(upgraded.config.groups, 2);
    assert_eq!(
        upgraded.to_json(),
        live,
        "upgrade restores the exact live-format bytes"
    );

    // The restored engine serves the remaining stream exactly as the
    // uninterrupted one does.
    let mut restored = StreamEngine::restore(upgraded).unwrap();
    for batch_tuples in batches(&mut stream, 4, 250) {
        let live = engine.ingest(&batch_tuples).unwrap();
        let resumed = restored.ingest(&batch_tuples).unwrap();
        assert_eq!(live.decisions, resumed.decisions);
        assert_eq!(
            serde_json::to_string(&live.snapshot.to_data()).unwrap(),
            serde_json::to_string(&resumed.snapshot.to_data()).unwrap()
        );
    }
    assert_eq!(engine.alerts(), restored.alerts());
}

#[test]
fn failed_on_alert_retrain_keeps_the_alert_log() {
    // Force an alert on a window that cannot retrain (one label per
    // group): the model selects the positives, DI* collapses, the floor
    // alert fires, the on-alert retrain fails on the single-class check —
    // and the engine must surface the error while keeping the batch
    // ingested and the alert logged.
    let config = StreamConfig {
        floor_min_window: 10,
        retrain: RetrainPolicy::OnAlert { min_window: 10 },
        ..StreamConfig::default()
    };
    let mut engine = engine(config);
    // Drift from tuple 0: the stale model rejects the rotated minority
    // positives while accepting the majority's, so DI* collapses.
    let drifted = DriftStreamSpec {
        drift_onset: 0,
        ..spec()
    };
    let mut stream = DriftStream::new(drifted, 23);
    let all = StreamTuple::rows_from_dataset(&stream.next_batch(4_000)).unwrap();
    // Positives only: the floor alert can fire, but the single-class
    // window cannot retrain.
    let skewed: Vec<StreamTuple> = all.into_iter().filter(|t| t.label == Some(1)).collect();
    let outcome = engine.ingest(&skewed).unwrap();
    // The serving work is intact: decisions returned, batch ingested,
    // alert logged — with the retrain failure reported alongside.
    assert_eq!(outcome.decisions.len(), skewed.len());
    assert!(matches!(
        outcome.retrain_error,
        Some(StreamError::DegenerateWindow(_))
    ));
    assert!(!outcome.retrained);
    assert_eq!(engine.tuples_seen(), skewed.len() as u64);
    assert_eq!(engine.retrain_count(), 0);
    assert!(
        !engine.alerts().is_empty(),
        "the alert that triggered the failed retrain must be logged"
    );
}
