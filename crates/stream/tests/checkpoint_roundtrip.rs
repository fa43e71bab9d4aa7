//! The checkpoint/restore contract, property-checked: an engine restored
//! from a serialised checkpoint must be **observationally identical** to
//! one that never stopped — bit-identical decisions, snapshots, alerts,
//! counters, and retrain behaviour on the same subsequent tuple sequence,
//! across random window sizes, shard counts, batch shapes, and drift
//! onsets (including onsets that straddle the checkpoint, the
//! restore-under-drift case the warm-up-gap argument is about). Corrupted
//! and version-mismatched documents must fail with typed errors, never
//! panics.

use cf_datasets::stream::{DriftStream, DriftStreamCheckpoint, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    EngineCheckpoint, RetrainPolicy, ShardedCheckpoint, ShardedEngine, ShardedTuple, StreamConfig,
    StreamEngine, StreamError, StreamTuple, CHECKPOINT_VERSION,
};
use confair_core::confair::{AlphaMode, ConFairConfig};
use proptest::prelude::*;

fn spec(drift_onset: u64) -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset,
        ..DriftStreamSpec::default()
    }
}

/// Small windows/floors and fixed-α ConFair keep per-case bootstraps and
/// on-alert retrains cheap without weakening the bit-identity contract.
fn config(window: usize, retrain: RetrainPolicy) -> StreamConfig {
    StreamConfig {
        window,
        floor_min_window: 32,
        floor_cooldown: 400,
        retrain,
        confair: ConFairConfig {
            alpha: AlphaMode::Fixed {
                alpha_u: 2.0,
                alpha_w: 1.0,
            },
            ..ConFairConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// Assert every observable of two engines agrees exactly.
fn assert_engines_identical(a: &StreamEngine, b: &StreamEngine) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.tuples_seen(), b.tuples_seen());
    prop_assert_eq!(a.retrain_count(), b.retrain_count());
    prop_assert_eq!(a.window_len(), b.window_len());
    prop_assert_eq!(a.window_counts(), b.window_counts());
    prop_assert_eq!(a.alerts(), b.alerts());
    prop_assert_eq!(a.snapshot(), b.snapshot());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// checkpoint → serialise → drop → parse → restore → ingest(rest)
    /// ≡ uninterrupted run, with the stream itself also resumed from a
    /// saved RNG position.
    #[test]
    fn restored_engine_is_bit_identical_to_uninterrupted(
        window in 64usize..400,
        // Onsets before, around, and after the checkpoint point: restores
        // must be exact mid-drift, not just in the stationary regime.
        drift_onset in 0u64..1_500,
        batch_size in 20usize..400,
        batches_before in 1usize..4,
        batches_after in 1usize..4,
        stream_seed in 0u64..1_000,
        retrain_on_alert in 0u8..2,
    ) {
        let retrain = if retrain_on_alert == 1 {
            RetrainPolicy::OnAlert { min_window: 48 }
        } else {
            RetrainPolicy::Never
        };
        let reference = spec(drift_onset).reference(800, 11);
        let mut uninterrupted = StreamEngine::from_reference(
            &reference, LearnerKind::Logistic, 11, config(window, retrain),
        ).unwrap();

        let mut stream = DriftStream::new(spec(drift_onset), stream_seed);
        for _ in 0..batches_before {
            let batch =
                StreamTuple::rows_from_dataset(&stream.next_batch(batch_size)).unwrap();
            uninterrupted.ingest(&batch).unwrap();
        }

        // Take both checkpoints, push them through their JSON documents
        // (the durable form), and "restart the process": everything the
        // restored side uses comes from the parsed documents.
        let engine_doc = uninterrupted.checkpoint().unwrap().to_json();
        let stream_doc = serde_json::to_string(&stream.checkpoint()).unwrap();
        let mut restored =
            StreamEngine::restore(EngineCheckpoint::from_json(&engine_doc).unwrap()).unwrap();
        let stream_ckpt: DriftStreamCheckpoint = serde_json::from_str(&stream_doc).unwrap();
        let mut resumed_stream = DriftStream::restore(&stream_ckpt).unwrap();

        assert_engines_identical(&uninterrupted, &restored)?;

        for _ in 0..batches_after {
            let live = stream.next_batch(batch_size);
            let replayed = resumed_stream.next_batch(batch_size);
            prop_assert_eq!(&live, &replayed, "resumed stream must replay the same tuples");

            let batch = StreamTuple::rows_from_dataset(&live).unwrap();
            let a = uninterrupted.ingest(&batch).unwrap();
            let b = restored.ingest(&batch).unwrap();
            prop_assert_eq!(&a.decisions, &b.decisions);
            prop_assert_eq!(&a.alerts, &b.alerts);
            prop_assert_eq!(&a.snapshot, &b.snapshot);
            prop_assert_eq!(a.retrained, b.retrained);
            prop_assert_eq!(
                a.retrain_error.is_some(), b.retrain_error.is_some(),
                "retrain failures must replay identically"
            );
        }
        assert_engines_identical(&uninterrupted, &restored)?;
    }

    /// The sharded variant: all shards snapshot coherently between batches
    /// and the restored fleet (including its cross-shard aggregate
    /// snapshot) replays bit-identically.
    #[test]
    fn restored_sharded_fleet_is_bit_identical(
        n_shards in 1usize..=3,
        window in 64usize..300,
        drift_onset in 0u64..800,
        batch_size in 30usize..600,
        stream_seed in 0u64..1_000,
        route_salt in 0u64..1_000,
    ) {
        let reference = spec(drift_onset).reference(800, 17);
        let cfg = config(window, RetrainPolicy::Never);
        let mut uninterrupted = ShardedEngine::from_reference(
            &reference, LearnerKind::Logistic, 17, cfg, n_shards,
        ).unwrap();

        let route = |i: usize| -> u32 {
            let z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(route_salt);
            ((z >> 7) % n_shards as u64) as u32
        };
        let mut stream = DriftStream::new(spec(drift_onset), stream_seed);
        let routed_batch = |stream: &mut DriftStream| -> Vec<ShardedTuple> {
            StreamTuple::rows_from_dataset(&stream.next_batch(batch_size))
                .unwrap()
                .into_iter()
                .enumerate()
                .map(|(i, tuple)| ShardedTuple { shard: route(i), tuple })
                .collect()
        };

        uninterrupted.ingest(&routed_batch(&mut stream)).unwrap();

        let doc = uninterrupted.checkpoint().unwrap().to_json();
        let mut restored =
            ShardedEngine::restore(ShardedCheckpoint::from_json(&doc).unwrap()).unwrap();
        prop_assert_eq!(restored.shard_count(), n_shards);

        for _ in 0..2 {
            let batch = routed_batch(&mut stream);
            let a = uninterrupted.ingest(&batch).unwrap();
            let b = restored.ingest(&batch).unwrap();
            prop_assert_eq!(&a.decisions, &b.decisions);
            prop_assert_eq!(&a.snapshot, &b.snapshot);
            for (sa, sb) in a.per_shard.iter().zip(&b.per_shard) {
                prop_assert_eq!(&sa.alerts, &sb.alerts);
                prop_assert_eq!(&sa.snapshot, &sb.snapshot);
            }
        }
        prop_assert_eq!(uninterrupted.tuples_seen(), restored.tuples_seen());
        prop_assert_eq!(uninterrupted.merged_counts(), restored.merged_counts());
        prop_assert_eq!(uninterrupted.snapshot(), restored.snapshot());
    }
}

/// The GBT path exercises the whole tree serialisation (split thresholds,
/// leaf weights, node indices) — one deterministic case is enough on top of
/// the logistic property sweep.
#[test]
fn gbt_engine_round_trips_bit_identically() {
    let reference = spec(300).reference(600, 23);
    let mut uninterrupted = StreamEngine::from_reference(
        &reference,
        LearnerKind::Gbt,
        23,
        config(192, RetrainPolicy::Never),
    )
    .unwrap();
    let mut stream = DriftStream::new(spec(300), 29);
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(220)).unwrap();
    uninterrupted.ingest(&batch).unwrap();

    let doc = uninterrupted.checkpoint().unwrap().to_json();
    let mut restored = StreamEngine::restore(EngineCheckpoint::from_json(&doc).unwrap()).unwrap();

    for _ in 0..3 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(180)).unwrap();
        let a = uninterrupted.ingest(&batch).unwrap();
        let b = restored.ingest(&batch).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.snapshot, b.snapshot);
    }
    assert_eq!(uninterrupted.alerts(), restored.alerts());
    assert_eq!(uninterrupted.window_counts(), restored.window_counts());
}

/// The flattened SoA tree form is a load-time artefact, never a wire
/// format. A v4 GBT document carries only the recursive node arrays —
/// `nodes`/`root` with leaf `weight`s and split `feature`/`threshold`
/// pairs, exactly what pre-flattening builds wrote — so checkpoints
/// taken today are byte-compatible with archives taken before the batch
/// kernels existed. Restoring one rebuilds the flat kernels in memory,
/// and the restored engine must score bit-identically through them.
#[test]
fn gbt_documents_stay_in_recursive_form_and_restore_through_flat_kernels() {
    let reference = spec(u64::MAX).reference(500, 41);
    let mut uninterrupted = StreamEngine::from_reference(
        &reference,
        LearnerKind::Gbt,
        41,
        config(160, RetrainPolicy::Never),
    )
    .unwrap();
    let mut stream = DriftStream::new(spec(u64::MAX), 43);
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(200)).unwrap();
    uninterrupted.ingest(&batch).unwrap();

    let json = uninterrupted.checkpoint().unwrap().to_json();
    // The recursive tree document, unchanged since checkpoint v4.
    for key in [
        "\"nodes\":",
        "\"root\":",
        "\"weight\":",
        "\"feature\":",
        "\"threshold\":",
    ] {
        assert!(json.contains(key), "document lost {key}");
    }
    // No SoA spill: the flat arrays are rebuilt on load, never persisted.
    assert!(
        !json.contains("\"flat\""),
        "flattened tree arrays must not reach the wire format"
    );

    // Restore from the document alone and re-checkpoint: the second
    // document must be byte-identical (nothing about the in-memory flat
    // form leaks into — or is lost from — the durable representation).
    let mut restored = StreamEngine::restore(EngineCheckpoint::from_json(&json).unwrap()).unwrap();
    assert_eq!(
        json,
        restored.checkpoint().unwrap().to_json(),
        "restore → checkpoint must reproduce the document byte-for-byte"
    );

    // And the rebuilt kernels score exactly like the never-serialised
    // model: same decisions on the same subsequent tuples.
    for _ in 0..2 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
        let a = uninterrupted.ingest(&batch).unwrap();
        let b = restored.ingest(&batch).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.snapshot, b.snapshot);
    }
}

/// A tampered GBT tree whose split consults a feature index beyond the
/// model's width must be rejected at parse time — accepting it would panic
/// with index-out-of-bounds inside `predict_row` on the first post-restore
/// ingest.
#[test]
fn out_of_range_tree_feature_index_is_rejected_at_parse_time() {
    let reference = spec(u64::MAX).reference(400, 31);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Gbt,
        31,
        config(128, RetrainPolicy::Never),
    )
    .unwrap();
    let batch = StreamTuple::rows_from_dataset(&DriftStream::new(spec(u64::MAX), 5).next_batch(64))
        .unwrap();
    engine.ingest(&batch).unwrap();

    let json = engine.checkpoint().unwrap().to_json();
    assert!(json.contains("\"feature\":"), "GBT trees must have splits");
    let tampered = json.replacen("\"feature\":0", "\"feature\":99", 1);
    assert_ne!(json, tampered, "a feature-0 split must exist to tamper");
    match EngineCheckpoint::from_json(&tampered) {
        Err(StreamError::Checkpoint(msg)) => {
            assert!(msg.contains("feature 99"), "got: {msg}")
        }
        other => panic!("expected a typed Checkpoint error, got {other:?}"),
    }
}

/// One cheap fitted engine + checkpoint for the corruption tests.
fn small_checkpoint() -> EngineCheckpoint {
    small_checkpoint_of(LearnerKind::Logistic)
}

fn small_checkpoint_of(learner: LearnerKind) -> EngineCheckpoint {
    let reference = spec(u64::MAX).reference(400, 3);
    let mut engine =
        StreamEngine::from_reference(&reference, learner, 3, config(128, RetrainPolicy::Never))
            .unwrap();
    let batch = StreamTuple::rows_from_dataset(&DriftStream::new(spec(u64::MAX), 5).next_batch(96))
        .unwrap();
    engine.ingest(&batch).unwrap();
    engine.checkpoint().unwrap()
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let json = small_checkpoint()
        .to_json()
        .replacen("\"version\":5", "\"version\":6", 1);
    assert!(matches!(
        EngineCheckpoint::from_json(&json),
        Err(StreamError::CheckpointVersion {
            found: 6,
            expected: CHECKPOINT_VERSION
        })
    ));

    let mut ckpt = small_checkpoint();
    ckpt.version = 7;
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::CheckpointVersion { found: 7, .. })
    ));
}

#[test]
fn unusable_alpha_degrees_are_rejected_at_parse_time() {
    // The ConFair config travels in the checkpoint and is trained from on
    // the first on-alert retrain after a restore, so an α it cannot train
    // with must fail parsing, not panic that retrain.
    let json = small_checkpoint().to_json();
    let fixed = "\"alpha\":{\"fixed\":{\"alpha_u\":2,\"alpha_w\":1}}";
    assert!(json.contains(fixed), "fixed-α config not found");
    for bad in [
        "\"alpha\":{\"auto\":[]}",
        "\"alpha\":{\"auto\":[0,-1]}",
        "\"alpha\":{\"fixed\":{\"alpha_u\":-2,\"alpha_w\":1}}",
    ] {
        match EngineCheckpoint::from_json(&json.replacen(fixed, bad, 1)) {
            Err(StreamError::Checkpoint(msg)) => assert!(msg.contains("alpha"), "got: {msg}"),
            other => panic!("{bad}: expected a typed Checkpoint error, got {other:?}"),
        }
    }
}

#[test]
fn unusable_bound_quantile_is_rejected_at_parse_time_and_bootstrap() {
    // Every retrain learns its profiles with the configured trim, and a
    // quantile outside [0, 1] panics there: a restored engine would never
    // retrain again. Parsing and bootstrapping reject it instead.
    let key = "\"bound_quantile\":";
    for learner in [LearnerKind::Logistic, LearnerKind::Gbt] {
        let json = small_checkpoint_of(learner).to_json();
        assert_eq!(json.matches(key).count(), 1, "one bound_quantile field");
        for bad in ["1e300", "-0.1", "0.75"] {
            match EngineCheckpoint::from_json(&set_number(&json, key, key, bad)) {
                Err(StreamError::Checkpoint(msg)) => {
                    assert!(msg.contains("bound_quantile"), "got: {msg}")
                }
                other => panic!("{bad}: expected a typed Checkpoint error, got {other:?}"),
            }
        }
        let trimmed = EngineCheckpoint::from_json(&set_number(&json, key, key, "0.05")).unwrap();
        assert_eq!(trimmed.config.confair.learn_opts.bound_quantile, 0.05);
        StreamEngine::restore(trimmed).unwrap();
    }

    let reference = spec(u64::MAX).reference(400, 3);
    let bootstrap = |bound_quantile: f64| {
        let mut config = config(128, RetrainPolicy::Never);
        config.confair.learn_opts.bound_quantile = bound_quantile;
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 3, config)
    };
    for bad in [1e300, -0.1, 0.75] {
        match bootstrap(bad) {
            Err(StreamError::Core(msg)) => assert!(msg.contains("bound_quantile"), "got: {msg}"),
            other => panic!("{bad}: expected a typed Core error, got {:?}", other.err()),
        }
    }
    bootstrap(0.05).unwrap();
}

#[test]
fn truncated_and_garbled_documents_are_typed_errors() {
    let json = small_checkpoint().to_json();
    for cut in [1, json.len() / 3, json.len() - 1] {
        assert!(
            matches!(
                EngineCheckpoint::from_json(&json[..cut]),
                Err(StreamError::Checkpoint(_))
            ),
            "truncation at {cut} must fail as Checkpoint"
        );
    }
    assert!(matches!(
        EngineCheckpoint::from_json(&json.replacen("\"schema\"", "\"schemo\"", 1)),
        Err(StreamError::Checkpoint(_))
    ));
}

#[test]
fn internally_inconsistent_checkpoints_are_rejected() {
    // Window stride disagreeing with the schema.
    let mut ckpt = small_checkpoint();
    ckpt.window.dim += 1;
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::Checkpoint(_))
    ));

    // Window capacity disagreeing with the configured window.
    let mut ckpt = small_checkpoint();
    ckpt.config.window += 1;
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::Checkpoint(_))
    ));

    // A detector state gone missing.
    let mut ckpt = small_checkpoint();
    ckpt.detectors.pop();
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::Checkpoint(_))
    ));

    // A cell profile gone missing.
    let mut ckpt = small_checkpoint();
    ckpt.profiles.pop();
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::Checkpoint(_))
    ));

    // A non-binary label smuggled into the window.
    let mut ckpt = small_checkpoint();
    ckpt.window.meta[0].label = Some(3);
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::BadLabel(3))
    ));

    // More window slots than the feature buffer can back.
    let mut ckpt = small_checkpoint();
    ckpt.window.features.pop();
    assert!(matches!(
        StreamEngine::restore(ckpt),
        Err(StreamError::Checkpoint(_))
    ));
}

/// A profile whose projections disagree on width cannot be packed for the
/// violation kernel; parsing must reject it as a typed error instead of
/// indexing out of range.
#[test]
fn ragged_profile_is_rejected_at_parse_time() {
    let json = small_checkpoint().to_json();
    let at = json.find("\"coeffs\":[").expect("a profiled cell") + "\"coeffs\":[".len();
    let first = json[at..].find(',').expect("profiles are at least 2 wide");
    let tampered = format!("{}{}", &json[..at], &json[at + first + 1..]);
    match EngineCheckpoint::from_json(&tampered) {
        Err(StreamError::Checkpoint(msg)) => {
            assert!(msg.contains("width"), "got: {msg}")
        }
        other => panic!("expected a typed Checkpoint error, got {other:?}"),
    }
}

/// JSON has no infinity: the codec writes a non-finite number as `null`,
/// and `null` is not a number. An infinite constraint importance would
/// make every violation of its profile NaN, which never exceeds the
/// conformance threshold, so the cell would silently stop flagging;
/// parsing must reject it as a typed error instead.
#[test]
fn infinite_importance_is_rejected_at_parse_time() {
    let json = small_checkpoint().to_json();
    let at = json.find("\"importance\":").expect("a profiled cell") + "\"importance\":".len();
    let len = json[at..]
        .find([',', '}'])
        .expect("importance is followed by another field or the object's end");
    let tampered = format!("{}null{}", &json[..at], &json[at + len..]);
    match EngineCheckpoint::from_json(&tampered) {
        Err(StreamError::Checkpoint(msg)) => {
            assert!(msg.contains("finite"), "got: {msg}")
        }
        other => panic!("expected a typed Checkpoint error, got {other:?}"),
    }
}

/// `json` with the first number after `key` inside the predictor (the
/// encoding and model parameters) replaced by `null`.
fn null_predictor_number(json: &str, key: &str) -> String {
    let start = json.find("\"predictor\":").expect("a predictor");
    let at = start
        + json[start..]
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in the predictor"))
        + key.len();
    assert!(
        at < json
            .find("\"profiles\":")
            .expect("profiles follow the predictor"),
        "{key} must be found inside the predictor"
    );
    let len = json[at..]
        .find([',', '}', ']'])
        .expect("a number is followed by a delimiter");
    format!("{}null{}", &json[..at], &json[at + len..])
}

/// Fitted model parameters are finite, and JSON writes a non-finite number
/// as `null`. A `null` encoder bound, logistic coefficient or intercept,
/// GBT leaf weight, split threshold or base score would otherwise restore
/// with some stand-in value and silently flip decisions; parsing must
/// reject each as a typed error.
#[test]
fn non_finite_model_parameters_are_rejected_at_parse_time() {
    let lr = small_checkpoint().to_json();
    let reference = spec(u64::MAX).reference(400, 31);
    let gbt = StreamEngine::from_reference(
        &reference,
        LearnerKind::Gbt,
        31,
        config(128, RetrainPolicy::Never),
    )
    .unwrap()
    .checkpoint()
    .unwrap()
    .to_json();
    for json in [&lr, &gbt] {
        assert!(StreamEngine::restore(EngineCheckpoint::from_json(json).unwrap()).is_ok());
    }
    let cases = [
        (&lr, "\"min\":"),
        (&lr, "\"max\":"),
        (&lr, "\"coefficients\":["),
        (&lr, "\"intercept\":"),
        (&gbt, "\"min\":"),
        (&gbt, "\"weight\":"),
        (&gbt, "\"threshold\":"),
        (&gbt, "\"base_score\":"),
    ];
    for (json, key) in cases {
        match EngineCheckpoint::from_json(&null_predictor_number(json, key)) {
            Err(StreamError::Checkpoint(msg)) => {
                assert!(msg.contains("finite"), "{key}: got {msg}")
            }
            other => panic!("{key}: expected a typed Checkpoint error, got {other:?}"),
        }
    }
}

/// `json` with the number that follows the first `key` after `within`
/// replaced by `value`.
fn set_number(json: &str, within: &str, key: &str, value: &str) -> String {
    let start = json.find(within).unwrap_or_else(|| panic!("no {within}"));
    let at = start
        + json[start..]
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {within}"))
        + key.len();
    let len = json[at..]
        .find([',', '}', ']'])
        .expect("a number is followed by a delimiter");
    format!("{}{value}{}", &json[..at], &json[at + len..])
}

/// Ingest rejects non-finite features, and a window feature that was not
/// finite would surface only at the next retrain. JSON cannot carry one,
/// so a `null` fails to parse; a checkpoint built in memory can, so
/// restoring must reject it as a typed error too.
#[test]
fn non_finite_window_feature_is_rejected_at_restore() {
    let json = small_checkpoint().to_json();
    let tampered = set_number(&json, "\"window\":", "\"features\":[", "null");
    match EngineCheckpoint::from_json(&tampered) {
        Err(StreamError::Checkpoint(msg)) => assert!(msg.contains("finite"), "got: {msg}"),
        other => panic!("expected a typed Checkpoint error, got {other:?}"),
    }
    let mut ckpt = small_checkpoint();
    ckpt.window.features[0] = f64::INFINITY;
    match StreamEngine::restore(ckpt) {
        Err(StreamError::Checkpoint(msg)) => assert!(msg.contains("finite"), "got: {msg}"),
        other => panic!("expected a typed Checkpoint error, got {:?}", other.err()),
    }
}

/// A served decision is binary. A window slot holding another one would
/// move into the pending-join index once evicted unlabeled, and the engine
/// would then write a checkpoint its own restore refuses; a label pair
/// holding one would count in no cell. Restoring must reject both.
#[test]
fn non_binary_window_decisions_are_rejected_at_restore() {
    let json = small_checkpoint().to_json();
    for within in ["\"meta\":[", "\"labels\":["] {
        let tampered = set_number(&json, within, "\"decision\":", "7");
        let ckpt = EngineCheckpoint::from_json(&tampered).expect("7 is a valid u8");
        match StreamEngine::restore(ckpt) {
            Err(StreamError::Checkpoint(msg)) => {
                assert!(msg.contains("non-binary decision 7"), "{within}: got {msg}")
            }
            other => panic!(
                "{within}: expected a typed Checkpoint error, got {:?}",
                other.err()
            ),
        }
    }
}

/// An integer field decodes only inside its type's range: a cast would
/// saturate `-1` into group 0 and silently move the slot to another cell.
#[test]
fn out_of_range_integers_are_rejected_at_parse_time() {
    let json = small_checkpoint().to_json();
    for (key, value) in [
        ("\"group\":", "-1"),
        ("\"group\":", "256"),
        ("\"id\":", "-1"),
        ("\"id\":", "1e30"),
    ] {
        let tampered = set_number(&json, "\"meta\":[", key, value);
        match EngineCheckpoint::from_json(&tampered) {
            Err(StreamError::Checkpoint(_)) => {}
            other => panic!("{key}{value}: expected a typed Checkpoint error, got {other:?}"),
        }
    }
}

/// A window is reserved up front at its configured capacity. A capacity
/// no allocator can serve must fail the restore typed, not abort the
/// process.
#[test]
fn unallocatable_window_is_a_typed_error() {
    let json = small_checkpoint().to_json();
    let huge = "1000000000000000";
    let tampered = json
        .replacen("\"window\":128", &format!("\"window\":{huge}"), 1)
        .replacen("\"capacity\":128", &format!("\"capacity\":{huge}"), 1);
    assert_eq!(
        tampered.matches(huge).count(),
        2,
        "config and window capacity"
    );
    let ckpt = EngineCheckpoint::from_json(&tampered).unwrap();
    match StreamEngine::restore(ckpt) {
        Err(StreamError::Schema(msg)) => assert!(msg.contains("allocated"), "got: {msg}"),
        other => panic!("expected a typed Schema error, got {:?}", other.err()),
    }
}

/// The parser recurses once per nesting level; a document nested deeper
/// than the codec's bound must fail typed rather than overflow the stack.
#[test]
fn deeply_nested_documents_are_typed_errors() {
    let deep = "[".repeat(100_000);
    for result in [
        EngineCheckpoint::from_json(&deep).map(drop),
        ShardedCheckpoint::from_json(&deep).map(drop),
        EngineCheckpoint::from_json(&format!("{{\"version\":5,\"schema\":{deep}")).map(drop),
    ] {
        match result {
            Err(StreamError::Checkpoint(msg)) => assert!(msg.contains("nesting"), "got: {msg}"),
            other => panic!("expected a typed Checkpoint error, got {other:?}"),
        }
    }
}

#[test]
fn sharded_restore_revalidates_fleet_coherence() {
    let reference = spec(u64::MAX).reference(400, 9);
    let engine = ShardedEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        9,
        config(128, RetrainPolicy::Never),
        2,
    )
    .unwrap();
    let mut ckpt = engine.checkpoint().unwrap();

    // Tamper one shard's DI* floor: the restored fleet would judge the
    // aggregate by inconsistent floors, so from_engines must reject it.
    ckpt.shards[1].config.di_floor = 0.9;
    assert!(matches!(
        ShardedEngine::restore(ckpt),
        Err(StreamError::ConfigMismatch(_))
    ));

    let empty = ShardedCheckpoint {
        version: CHECKPOINT_VERSION,
        shards: Vec::new(),
    };
    assert!(matches!(
        ShardedEngine::restore(empty),
        Err(StreamError::NoShards)
    ));
}
