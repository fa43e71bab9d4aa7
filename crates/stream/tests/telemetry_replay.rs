//! The audit trail's replay contract, property-checked: a JSONL trail
//! emitted by a live engine — sync, async (at quiescence), or sharded —
//! must replay through [`cf_telemetry::replay`] into the **byte-identical**
//! snapshot and alert sequences the live run produced, because
//! [`FairnessSnapshot::from_counts`] and the replayer recompute every
//! reading through the same [`SnapshotData::from_counters`] arithmetic.
//! Under [`BackpressurePolicy::DropOldest`] the trail additionally carries
//! typed drop events, and replays into the monitor's *actual* (post-drop)
//! state, not the fiction of a lossless run.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, AsyncEngine, BackpressurePolicy, LabelFeedback, RetrainPolicy, ShardedAsyncEngine,
    ShardedEngine, ShardedFeedback, ShardedTuple, StreamConfig, StreamEngine, StreamTuple,
};
use cf_telemetry::{
    replay, replay_file, JsonlSink, RingSink, SharedSink, SnapshotData, TelemetryEvent,
};
use confair_core::confair::{AlphaMode, ConFairConfig};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn spec(drift_onset: u64) -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset,
        ..DriftStreamSpec::default()
    }
}

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

/// A ring sink plus the `SharedSink` handle the engines take; the concrete
/// `Arc` stays with the test so the captured events can be read back.
fn ring() -> (Arc<Mutex<RingSink>>, SharedSink) {
    let ring = Arc::new(Mutex::new(RingSink::new(1 << 16)));
    let sink: SharedSink = ring.clone();
    (ring, sink)
}

fn events_of(ring: &Arc<Mutex<RingSink>>) -> Vec<TelemetryEvent> {
    ring.lock().unwrap().events()
}

/// Serialise events exactly as [`JsonlSink`] writes them: one compact JSON
/// object per line.
fn jsonl_of(events: &[TelemetryEvent]) -> String {
    events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Strip the tuple's label so ground truth can arrive later as feedback.
fn unlabeled(batch: &[StreamTuple]) -> Vec<StreamTuple> {
    batch
        .iter()
        .map(|t| StreamTuple {
            label: None,
            ..t.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole property, sync engine: drive ingest + delayed feedback
    /// + a mid-run checkpoint with a sink installed, then replay the trail
    /// and require the byte-identical snapshot sequence, alert sequence,
    /// and final window counters.
    #[test]
    fn sync_trail_replays_byte_identically(
        window in 64usize..300,
        drift_onset in 0u64..800,
        batch_size in 24usize..200,
        n_batches in 2usize..5,
        stream_seed in 0u64..1_000,
        retrain_on_alert in 0u8..2,
    ) {
        let retrain = if retrain_on_alert == 1 {
            RetrainPolicy::OnAlert { min_window: 48 }
        } else {
            RetrainPolicy::Never
        };
        let reference = spec(drift_onset).reference(800, 19);
        let mut engine = StreamEngine::from_reference(
            &reference, LearnerKind::Logistic, 19, config(window, retrain),
        ).unwrap();
        let (ring, sink) = ring();
        engine.set_sink(sink);

        let mut stream = DriftStream::new(spec(drift_onset), stream_seed);
        let mut live_snapshots: Vec<SnapshotData> = Vec::new();
        for b in 0..n_batches {
            let labeled =
                StreamTuple::rows_from_dataset(&stream.next_batch(batch_size)).unwrap();
            let out = engine.ingest(&unlabeled(&labeled)).unwrap();
            live_snapshots.push(out.snapshot.to_data());

            // Ground truth for every other tuple trails its batch.
            let fb: Vec<LabelFeedback> = labeled
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(i, t)| LabelFeedback {
                    id: out.first_id + i as u64,
                    label: t.label.unwrap(),
                })
                .collect();
            let fo = engine.feedback(&fb).unwrap();
            live_snapshots.push(fo.snapshot.to_data());

            if b == 0 {
                // A mid-run checkpoint marker must not perturb the replay.
                engine.checkpoint().unwrap();
            }
        }

        let run = replay(&jsonl_of(&events_of(&ring))).unwrap();
        prop_assert_eq!(&run.snapshots, &live_snapshots,
            "replayed snapshot sequence == live sequence");
        prop_assert_eq!(run.alerts.as_slice(), engine.alerts());
        prop_assert_eq!(run.counters.as_slice(), engine.window_counts());
        prop_assert_eq!(run.retrains, engine.retrain_count());
        prop_assert_eq!(run.dropped_tuples, 0u64);
    }

    /// The async engine at quiescence: flushed after every batch, its
    /// trail must be *the sync twin's trail* — event for event, with only
    /// the wall-clock repair duration allowed to differ — and must replay
    /// to the same sequences.
    #[test]
    fn async_trail_at_quiescence_matches_sync_twin(
        window in 64usize..300,
        drift_onset in 0u64..800,
        batch_size in 24usize..200,
        stream_seed in 0u64..1_000,
        retrain_on_alert in 0u8..2,
        queue_depth in 1usize..8,
    ) {
        let retrain = if retrain_on_alert == 1 {
            RetrainPolicy::OnAlert { min_window: 48 }
        } else {
            RetrainPolicy::Never
        };
        let reference = spec(drift_onset).reference(800, 29);
        let mut sync = StreamEngine::from_reference(
            &reference, LearnerKind::Logistic, 29, config(window, retrain),
        ).unwrap();
        let (sync_ring, sync_sink) = ring();
        sync.set_sink(sync_sink);

        let mut inner = StreamEngine::from_reference(
            &reference, LearnerKind::Logistic, 29, config(window, retrain),
        ).unwrap();
        let (async_ring, async_sink) = ring();
        // Installed before the split, so the sink travels with the monitor
        // to its background thread.
        inner.set_sink(async_sink);
        let mut anc = AsyncEngine::from_engine(
            inner,
            AsyncConfig { queue_depth, backpressure: BackpressurePolicy::Block, ..AsyncConfig::default() },
        );

        let mut stream = DriftStream::new(spec(drift_onset), stream_seed);
        let mut live_snapshots: Vec<SnapshotData> = Vec::new();
        for _ in 0..3 {
            let labeled =
                StreamTuple::rows_from_dataset(&stream.next_batch(batch_size)).unwrap();
            let batch = unlabeled(&labeled);
            let out = sync.ingest(&batch).unwrap();
            anc.ingest(&batch).unwrap();
            live_snapshots.push(out.snapshot.to_data());

            let fb: Vec<LabelFeedback> = labeled
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == 0)
                .map(|(i, t)| LabelFeedback {
                    id: out.first_id + i as u64,
                    label: t.label.unwrap(),
                })
                .collect();
            let fo = sync.feedback(&fb).unwrap();
            anc.feedback(&fb).unwrap();
            live_snapshots.push(fo.snapshot.to_data());
            // Quiescence is the contract: the async trail is only
            // well-ordered relative to the sync one at a barrier.
            anc.flush().unwrap();
        }

        // Event-for-event identity, modulo the one wall-clock field.
        let scrub = |events: Vec<TelemetryEvent>| -> Vec<TelemetryEvent> {
            events
                .into_iter()
                .map(|mut e| {
                    if let TelemetryEvent::RepairEnd(re) = &mut e {
                        re.duration_us = 0;
                    }
                    e
                })
                .collect()
        };
        let sync_events = scrub(events_of(&sync_ring));
        let async_events = scrub(events_of(&async_ring));
        prop_assert_eq!(&sync_events, &async_events,
            "at quiescence the async trail is the sync trail");

        // And the async trail replays into the live sequences.
        let run = replay(&jsonl_of(&async_events)).unwrap();
        prop_assert_eq!(&run.snapshots, &live_snapshots);
        prop_assert_eq!(run.alerts, anc.alerts());
        prop_assert_eq!(run.counters, anc.window_counts());
    }

    /// Sharded: every shard keeps its own trail, and each replays
    /// standalone into that shard's live sequences (empty sub-batches
    /// emit nothing, so shards skipped by the router stay silent).
    #[test]
    fn sharded_trails_replay_per_shard(
        n_shards in 2usize..=3,
        batch_size in 40usize..200,
        stream_seed in 0u64..1_000,
        route_salt in 0u64..1_000,
    ) {
        let reference = spec(400).reference(800, 31);
        let mut engine = ShardedEngine::from_reference(
            &reference, LearnerKind::Logistic, 31,
            config(128, RetrainPolicy::Never), n_shards,
        ).unwrap();
        let mut rings = Vec::new();
        for s in 0..n_shards {
            let (ring, sink) = ring();
            engine.set_sink(s as u32, sink).unwrap();
            rings.push(ring);
        }

        let route = |i: usize| -> u32 {
            let z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(route_salt);
            ((z >> 7) % n_shards as u64) as u32
        };
        let mut stream = DriftStream::new(spec(400), stream_seed);
        let mut live: Vec<Vec<SnapshotData>> = vec![Vec::new(); n_shards];
        for _ in 0..2 {
            let labeled =
                StreamTuple::rows_from_dataset(&stream.next_batch(batch_size)).unwrap();
            let routed: Vec<ShardedTuple> = unlabeled(&labeled)
                .into_iter()
                .enumerate()
                .map(|(i, tuple)| ShardedTuple { shard: route(i), tuple })
                .collect();
            let mut shard_got = vec![0usize; n_shards];
            for r in &routed {
                shard_got[r.shard as usize] += 1;
            }
            let out = engine.ingest(&routed).unwrap();
            for s in 0..n_shards {
                if shard_got[s] > 0 {
                    live[s].push(out.per_shard[s].snapshot.to_data());
                }
            }

            // Feedback routes by (shard, per-shard id): tuple i of the
            // batch was the k-th tuple of its shard, so its id is that
            // shard's first_id + k.
            let fb: Vec<ShardedFeedback> = routed
                .iter()
                .zip(&labeled)
                .enumerate()
                .scan(vec![0u64; n_shards], |cursors, (i, (r, l))| {
                    let s = r.shard as usize;
                    let k = cursors[s];
                    cursors[s] += 1;
                    Some((i, s, k, l.label.unwrap()))
                })
                .filter(|(i, ..)| i % 2 == 0)
                .map(|(_, s, k, label)| ShardedFeedback {
                    shard: s as u32,
                    feedback: LabelFeedback {
                        id: out.per_shard[s].first_id + k,
                        label,
                    },
                })
                .collect();
            let mut fb_got = vec![0usize; n_shards];
            for r in &fb {
                fb_got[r.shard as usize] += 1;
            }
            let fo = engine.feedback(&fb).unwrap();
            for s in 0..n_shards {
                if fb_got[s] > 0 {
                    live[s].push(fo[s].snapshot.to_data());
                }
            }
        }

        for s in 0..n_shards {
            let run = replay(&jsonl_of(&events_of(&rings[s]))).unwrap();
            prop_assert_eq!(&run.snapshots, &live[s],
                "shard {} trail replays its own sequence", s);
            let shard = engine.shard(s as u32).unwrap();
            prop_assert_eq!(run.counters.as_slice(), shard.window_counts());
            prop_assert_eq!(run.alerts.as_slice(), shard.alerts());
        }
    }
}

/// Sharded async: sinks installed before the split travel with each
/// shard's monitor thread; at quiescence each shard's trail replays into
/// that shard's published state.
#[test]
fn sharded_async_trails_replay_at_quiescence() {
    let n_shards = 2;
    let reference = spec(300).reference(700, 37);
    let mut inner = ShardedEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        37,
        config(128, RetrainPolicy::Never),
        n_shards,
    )
    .unwrap();
    let mut rings = Vec::new();
    for s in 0..n_shards {
        let (ring, sink) = ring();
        inner.set_sink(s as u32, sink).unwrap();
        rings.push(ring);
    }
    let mut anc = ShardedAsyncEngine::from_sharded(inner, AsyncConfig::default());

    let mut stream = DriftStream::new(spec(300), 41);
    for round in 0..3 {
        let routed: Vec<ShardedTuple> =
            StreamTuple::rows_from_dataset(&stream.next_batch(120 + round))
                .unwrap()
                .into_iter()
                .enumerate()
                .map(|(i, tuple)| ShardedTuple {
                    shard: (i % n_shards) as u32,
                    tuple,
                })
                .collect();
        anc.ingest(&routed).unwrap();
    }
    anc.flush().unwrap();
    assert_eq!(anc.monitor_lag(), 0, "max over shards after a flush");

    for (s, ring) in rings.iter().enumerate() {
        let run = replay(&jsonl_of(&events_of(ring))).unwrap();
        let shard = anc.shard(s as u32).unwrap();
        assert_eq!(run.counters, shard.window_counts());
        assert_eq!(
            run.snapshots.last().unwrap(),
            &shard.snapshot().to_data(),
            "shard {s}'s last replayed snapshot is its published reading"
        );
    }
}

/// A config that makes the DI*-floor alert (and with it the on-alert
/// retrain) fire early and repeatedly: a floor of 0.99 is essentially
/// unattainable, so every `floor_cooldown` tuples past `floor_min_window`
/// the monitor alerts and stalls in a retrain.
fn alerting_config(window: usize, floor_cooldown: u64) -> StreamConfig {
    StreamConfig {
        di_floor: 0.99,
        floor_min_window: 32,
        floor_cooldown,
        retrain: RetrainPolicy::OnAlert { min_window: 48 },
        ..config(window, RetrainPolicy::Never)
    }
}

/// Event ordering within one batch: ingest_batch → drift_alert (with its
/// moved-cell explanation) → repair_start → repair_end → model_swap.
#[test]
fn events_within_a_batch_are_causally_ordered() {
    let reference = spec(u64::MAX).reference(800, 43);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        43,
        alerting_config(192, 400),
    )
    .unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);

    let mut stream = DriftStream::new(spec(u64::MAX), 47);
    let mut retrained = false;
    for _ in 0..6 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(100)).unwrap();
        retrained |= engine.ingest(&batch).unwrap().retrained;
    }
    assert!(retrained, "the 0.99 floor must have forced a retrain");

    let events = events_of(&ring);
    let mut saw_repair = false;
    for (i, event) in events.iter().enumerate() {
        match event {
            TelemetryEvent::DriftAlert(e) => {
                assert!(
                    matches!(events[i - 1], TelemetryEvent::IngestBatch(_))
                        || matches!(events[i - 1], TelemetryEvent::DriftAlert(_)),
                    "an alert follows its batch (or a sibling alert)"
                );
                assert!(!e.explanation.summary.is_empty());
                assert!(e
                    .explanation
                    .cell
                    .contains(&format!("group={}", e.alert.group)));
            }
            TelemetryEvent::RepairStart(_) => {
                saw_repair = true;
                assert!(
                    matches!(events[i - 1], TelemetryEvent::DriftAlert(_)),
                    "repair starts right after the alert(s) that caused it"
                );
                assert!(
                    matches!(events[i + 1], TelemetryEvent::RepairEnd(_)),
                    "repair_end pairs with repair_start"
                );
            }
            TelemetryEvent::RepairEnd(e) if e.outcome == "retrained" => {
                assert!(
                    matches!(events[i + 1], TelemetryEvent::ModelSwap(_)),
                    "a successful repair publishes its model next"
                );
            }
            _ => {}
        }
    }
    assert!(saw_repair);
}

/// `DropOldest` ordering: records evicted under backpressure must surface
/// as drop events in the trail, and the trail must replay into the
/// monitor's *actual* post-drop state — counters, snapshot, and alert
/// sequence all reflecting only what was monitored.
#[test]
fn drop_oldest_trail_replays_the_post_drop_run() {
    // Backpressure is scheduling-dependent; retry seeds until a run
    // actually drops (retrain stalls with queue_depth=1 make that fast).
    for seed in 0..25u64 {
        if try_drop_run(seed) {
            return;
        }
    }
    panic!("no seed produced a dropped record under DropOldest");
}

fn try_drop_run(seed: u64) -> bool {
    let reference = spec(u64::MAX).reference(700, 53);
    let mut inner = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        53,
        alerting_config(128, 256),
    )
    .unwrap();
    let (ring, sink) = ring();
    inner.set_sink(sink);
    let mut anc = AsyncEngine::from_engine(
        inner,
        AsyncConfig {
            queue_depth: 1,
            backpressure: BackpressurePolicy::DropOldest,
            ..AsyncConfig::default()
        },
    );

    let mut stream = DriftStream::new(spec(u64::MAX), seed);
    for _ in 0..30 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        anc.ingest(&batch).unwrap();
    }
    anc.flush().unwrap();
    let dropped = anc.dropped();
    if dropped.tuples == 0 {
        return false;
    }

    let events = events_of(&ring);
    let drop_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Drop(d) => Some(d.clone()),
            _ => None,
        })
        .collect();
    assert!(!drop_events.is_empty(), "drops must be audited");
    for pair in drop_events.windows(2) {
        assert!(
            pair[1].tuples >= pair[0].tuples && pair[1].batches >= pair[0].batches,
            "drop counters are cumulative"
        );
    }
    let last = drop_events.last().unwrap();
    assert_eq!(
        (last.batches, last.tuples),
        (dropped.batches, dropped.tuples),
        "the trail accounts for every dropped record"
    );

    // The replay reconstructs what the monitor actually saw — the
    // post-drop sequence, not the lossless fiction.
    let run = replay(&jsonl_of(&events)).unwrap();
    assert_eq!(run.dropped_tuples, dropped.tuples);
    assert_eq!(run.counters, anc.window_counts());
    assert_eq!(
        cf_stream::FairnessSnapshot::from_data(SnapshotData::from_counters(
            &run.counters,
            anc.config().di_floor,
        )),
        anc.snapshot(),
        "replayed counters recompute the live post-drop snapshot"
    );
    assert_eq!(run.alerts, anc.alerts());
    true
}

/// The restart story end to end: a first engine writes a JSONL trail and
/// checkpoints; a second engine restores **with a fresh trail** whose
/// opening `"restored"` event re-anchors the replay — so the second file
/// replays standalone, with no access to the first run's history.
#[test]
fn restored_trail_reanchors_and_replays_standalone() {
    let dir = std::env::temp_dir();
    let first_path = dir.join(format!("cf_stream_trail_a_{}.jsonl", std::process::id()));
    let second_path = dir.join(format!("cf_stream_trail_b_{}.jsonl", std::process::id()));

    let reference = spec(300).reference(700, 59);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        59,
        config(160, RetrainPolicy::Never),
    )
    .unwrap();
    let first_sink = cf_telemetry::shared_sink(JsonlSink::create(&first_path).unwrap());
    engine.set_sink(first_sink.clone());
    let mut stream = DriftStream::new(spec(300), 61);
    for _ in 0..2 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
        engine.ingest(&batch).unwrap();
    }
    let ckpt = engine.checkpoint().unwrap();
    first_sink.lock().unwrap().flush();

    // The first trail replays on its own (and ends at the checkpoint).
    let first_run = replay_file(&first_path).unwrap();
    assert_eq!(first_run.counters, engine.window_counts());

    // Restore into a new trail: no shared history with the first file.
    let second_sink = cf_telemetry::shared_sink(JsonlSink::create(&second_path).unwrap());
    let mut restored = StreamEngine::restore_with_sink(ckpt, second_sink.clone()).unwrap();
    let mut live_snapshots = Vec::new();
    for _ in 0..2 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
        live_snapshots.push(restored.ingest(&batch).unwrap().snapshot.to_data());
    }
    second_sink.lock().unwrap().flush();

    let second_run = replay_file(&second_path).unwrap();
    assert_eq!(
        &second_run.snapshots, &live_snapshots,
        "the restored event's absolute counters re-anchor the replay"
    );
    assert_eq!(second_run.counters, restored.window_counts());

    let _ = std::fs::remove_file(&first_path);
    let _ = std::fs::remove_file(&second_path);
}
