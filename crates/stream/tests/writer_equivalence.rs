//! Every document the engine writes, pinned to the writer's own reading
//! of it: for LR, GBT, K=8 and ladder-on engine checkpoints, a sharded
//! checkpoint and one event of every telemetry kind, in the compact and
//! the pretty layout, the text `Serialize` writes straight from the
//! structs equals the text written from the `Value` tree it parses into.
//! The tree path is a plain recursion over a parsed document, so this
//! holds the direct writers (derived, hand-written, tagged-enum) to the
//! same bytes as the generic one.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    EngineCheckpoint, RepairConfig, RetrainPolicy, ShardedEngine, ShardedTuple, StreamConfig,
    StreamEngine, StreamTuple, WindowCounters,
};
use cf_telemetry::{DropEvent, MonitorRestartEvent, TelemetryEvent, ThresholdChangeEvent};
use confair_core::confair::{AlphaMode, ConFairConfig};
use serde::Serialize;
use serde_json::Value;

/// Assert the round trip in both layouts; returns the compact text.
fn assert_tree_writes_the_same<T: Serialize + ?Sized>(name: &str, x: &T) -> String {
    let compact = serde_json::to_string(x).unwrap();
    let pretty = serde_json::to_string_pretty(x).unwrap();
    let tree: Value = serde_json::from_str(&compact).unwrap();
    assert_eq!(serde_json::to_string(&tree).unwrap(), compact, "{name}");
    let tree: Value = serde_json::from_str(&pretty).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        pretty,
        "{name}, pretty"
    );
    compact
}

fn config(groups: usize, ladder: bool) -> StreamConfig {
    StreamConfig {
        window: 128,
        groups,
        floor_min_window: 48,
        floor_cooldown: 300,
        retrain: RetrainPolicy::OnAlert { min_window: 64 },
        repair: RepairConfig {
            ladder,
            ..RepairConfig::default()
        },
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

/// An engine fitted on a reference sample and fed a full window past a
/// drift onset.
fn checkpoint(learner: LearnerKind, groups: usize, ladder: bool) -> EngineCheckpoint {
    let spec = DriftStreamSpec {
        groups,
        drift_onset: 150,
        ..DriftStreamSpec::default()
    };
    let reference = spec.reference(400, 7);
    let mut engine =
        StreamEngine::from_reference(&reference, learner, 7, config(groups, ladder)).unwrap();
    let mut stream = DriftStream::new(spec, 11);
    for _ in 0..4 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(96)).unwrap();
        engine.ingest(&batch).unwrap();
    }
    engine.checkpoint().unwrap()
}

#[test]
fn engine_checkpoints_write_the_bytes_of_their_parsed_trees() {
    for (name, learner, groups, ladder) in [
        ("LR", LearnerKind::Logistic, 2, false),
        ("GBT", LearnerKind::Gbt, 2, false),
        ("K=8", LearnerKind::Logistic, 8, false),
        ("ladder", LearnerKind::Logistic, 2, true),
    ] {
        let ckpt = checkpoint(learner, groups, ladder);
        let compact = assert_tree_writes_the_same(name, &ckpt);
        assert_eq!(ckpt.to_json(), compact, "{name}");
        assert_eq!(
            ckpt.to_json_pretty(),
            serde_json::to_string_pretty(&ckpt).unwrap(),
            "{name}"
        );
    }
}

#[test]
fn sharded_checkpoint_writes_the_bytes_of_its_parsed_tree() {
    let spec = DriftStreamSpec::default();
    let reference = spec.reference(400, 9);
    let mut engine =
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 9, config(2, false), 2)
            .unwrap();
    let rows = StreamTuple::rows_from_dataset(&DriftStream::new(spec, 13).next_batch(160)).unwrap();
    let batch: Vec<ShardedTuple> = rows
        .into_iter()
        .enumerate()
        .map(|(i, tuple)| ShardedTuple {
            shard: (i % 2) as u32,
            tuple,
        })
        .collect();
    engine.ingest(&batch).unwrap();
    let ckpt = engine.checkpoint().unwrap();
    let compact = assert_tree_writes_the_same("sharded", &ckpt);
    assert_eq!(ckpt.to_json(), compact);
}

#[test]
fn every_telemetry_event_kind_writes_the_bytes_of_its_parsed_tree() {
    // The recorded trails hold eight of the eleven kinds; the other three
    // are built here, with a non-finite threshold among them.
    let trails = [
        include_str!("fixtures/sync_trail.jsonl"),
        include_str!("fixtures/async_trail.jsonl"),
        include_str!("fixtures/sharded_trail_s0.jsonl"),
        include_str!("fixtures/sharded_trail_s1.jsonl"),
        include_str!("fixtures/ladder_sync_trail.jsonl"),
        include_str!("fixtures/ladder_async_trail.jsonl"),
        include_str!("fixtures/ladder_sharded_trail_s0.jsonl"),
        include_str!("fixtures/ladder_sharded_trail_s1.jsonl"),
    ];
    let mut events: Vec<TelemetryEvent> = Vec::new();
    for line in trails.iter().flat_map(|trail| trail.lines()) {
        let event: TelemetryEvent = serde_json::from_str(line).unwrap();
        // A recorded line is also the direct writer's output.
        assert_eq!(serde_json::to_string(&event).unwrap(), line);
        events.push(event);
    }
    let counters = vec![WindowCounters::default(); 2];
    events.extend([
        TelemetryEvent::ThresholdChange(ThresholdChangeEvent {
            at_tuple: 9,
            tier: "nudge \"tier 1\"".into(),
            cell: 1,
            thresholds: vec![0.0, -0.25, f64::INFINITY],
        }),
        TelemetryEvent::Drop(DropEvent {
            at_tuple: 9,
            batches: 1,
            tuples: 64,
        }),
        TelemetryEvent::MonitorRestart(MonitorRestartEvent {
            at_tuple: 9,
            restarts: 1,
            gap_tuples: 3,
            resumed_from: 6,
            counters,
            di_floor: 0.8,
            degraded: false,
        }),
    ]);
    let mut kinds: Vec<&str> = events.iter().map(TelemetryEvent::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 11, "one event of every kind: {kinds:?}");
    for event in &events {
        assert_tree_writes_the_same(event.kind(), event);
    }
}
