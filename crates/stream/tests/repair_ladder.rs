//! The repair-ladder equivalence contract: an engine with the escalation
//! ladder *disabled* (the default — all-zero per-cell thresholds, no
//! projection) must be **byte-identical** to the pre-ladder engine —
//! decisions, snapshots, alerts, checkpoint documents, and telemetry
//! trails — across the sync, async-at-quiescence, and sharded engines.
//!
//! The pin is a set of `ladder_*` golden fixtures under `tests/fixtures/`,
//! captured once from the pre-ladder tree (run `cargo test --test
//! repair_ladder -- --ignored capture` against that tree) and **never
//! regenerated** — see `tests/fixtures/README.md`. The scenarios
//! deliberately include an on-alert ConFair retrain, so the legacy repair
//! episode's trail bytes (`repair_start`/`repair_end` with the
//! `confair_retrain` tier) are pinned alongside the serving path. Two
//! normalisations are permitted, both scrubbed before comparison:
//! * the checkpoint-format `"version"` stamp on checkpoint/restored
//!   events (the v4→v5 bump is the schema change this suite polices);
//! * `"duration_us"` on `repair_end` events — the one wall-clock field a
//!   deterministic run cannot reproduce.
//!
//! Alongside the pin, the ladder half of the suite property-checks what
//! the pre-ladder engine could never do: recover DI* past the EEOC 0.8
//! floor with zero retrains (tier 1), escalate monotonically through the
//! tiers and de-escalate after recovery, and agree across the sync,
//! async-at-quiescence, and sharded engines through a full ladder episode.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, AsyncEngine, BackpressurePolicy, EngineCheckpoint, GroupLayout, LabelFeedback,
    RepairConfig, RepairTier, RetrainPolicy, ShardedCheckpoint, ShardedEngine, ShardedTuple,
    StreamConfig, StreamEngine, StreamTuple,
};
use cf_telemetry::{RingSink, SharedSink, TelemetryEvent};
use confair_core::confair::{AlphaMode, ConFairConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); fixtures are captured from the \
             pre-ladder engine with `cargo test --test repair_ladder -- \
             --ignored capture_ladder_fixtures` and committed"
        )
    })
}

fn spec(drift_onset: u64) -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset,
        ..DriftStreamSpec::default()
    }
}

/// The pinned scenario config: on-alert retraining against a floor the
/// post-drift stream violates, so each scenario walks the full legacy
/// repair path (alert → episode → retrain → model swap). Struct-update
/// syntax keeps this compiling — and meaning "ladder off" — on both
/// sides of the refactor.
fn config() -> StreamConfig {
    StreamConfig {
        window: 192,
        di_floor: 0.95,
        floor_min_window: 48,
        floor_cooldown: 300,
        retrain: RetrainPolicy::OnAlert { min_window: 64 },
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

fn ring() -> (Arc<Mutex<RingSink>>, SharedSink) {
    let ring = Arc::new(Mutex::new(RingSink::new(1 << 16)));
    let sink: SharedSink = ring.clone();
    (ring, sink)
}

fn jsonl_of(ring: &Arc<Mutex<RingSink>>) -> String {
    ring.lock()
        .unwrap()
        .events()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One compact JSON value per line, so fixtures diff line-by-line.
fn jsonl<T: serde::Serialize>(items: &[T]) -> String {
    items
        .iter()
        .map(|x| serde_json::to_string(x).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Normalise the two fields a trail is *allowed* to change across the
/// refactor: the checkpoint-format version stamped on checkpoint and
/// restored events, and the wall-clock `duration_us` carried by
/// `repair_end` events. Everything else must match byte for byte.
fn scrub(trail: &str) -> String {
    let mut out = String::with_capacity(trail.len());
    for line in trail.lines() {
        if !out.is_empty() {
            out.push('\n');
        }
        let mut scrubbed = line.to_string();
        for v in 1..=9 {
            scrubbed = scrubbed.replace(&format!("\"version\":{v}"), "\"version\":0");
        }
        out.push_str(&scrub_field_digits(&scrubbed, "\"duration_us\":"));
    }
    out
}

/// Replace the digit run following every occurrence of `key` with `0`.
fn scrub_field_digits(line: &str, key: &str) -> String {
    let mut parts = line.split(key);
    let mut out = String::with_capacity(line.len());
    out.push_str(parts.next().unwrap_or(""));
    for rest in parts {
        out.push_str(key);
        out.push('0');
        out.push_str(rest.trim_start_matches(|c: char| c.is_ascii_digit()));
    }
    out
}

/// Every artifact one scenario produces, as committed fixture strings.
struct Artifacts {
    /// `(file name, contents)`.
    files: Vec<(&'static str, String)>,
}

impl Artifacts {
    fn assert_matches_fixtures(&self) {
        for (name, live) in &self.files {
            let golden = fixture(name);
            let (golden, live) = if name.ends_with(".jsonl") {
                (scrub(&golden), scrub(live))
            } else if name.contains("sharded") {
                // Checkpoint documents: parse both sides through the
                // upgrade chain and compare the re-serialised bytes, so
                // the v4→v5 format bump (the schema change this suite
                // polices) is normalised and *everything else* — window
                // contents, counters, detector positions, model
                // parameters — must still match byte for byte.
                (
                    ShardedCheckpoint::from_json(&golden).unwrap().to_json(),
                    ShardedCheckpoint::from_json(live).unwrap().to_json(),
                )
            } else {
                (
                    EngineCheckpoint::from_json(&golden).unwrap().to_json(),
                    EngineCheckpoint::from_json(live).unwrap().to_json(),
                )
            };
            assert_eq!(
                golden, live,
                "{name}: ladder-off run diverged from the pre-ladder engine"
            );
        }
    }
}

/// Sync engine: eight labeled drifting batches through the full
/// alert → repair-episode → retrain path, a mid-run checkpoint, and a
/// restored engine replaying the tail.
fn sync_scenario() -> Artifacts {
    let reference = spec(350).reference(900, 23);
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 23, config()).unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);

    let mut stream = DriftStream::new(spec(350), 9);
    let mut decisions: Vec<Vec<u8>> = Vec::new();
    let mut snapshots = Vec::new();
    let mut checkpoint_json = String::new();
    let mut batches: Vec<Vec<StreamTuple>> = Vec::new();
    for b in 0..8 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
        let out = engine.ingest(&batch).unwrap();
        decisions.push(out.decisions.clone());
        snapshots.push(out.snapshot.to_data());
        batches.push(batch);
        if b == 3 {
            checkpoint_json = engine.checkpoint().unwrap().to_json();
        }
    }
    assert!(
        engine.retrain_count() >= 1,
        "the pinned scenario must walk the legacy repair path"
    );

    // Restore from the mid-run document (through the JSON round trip, so
    // post-refactor the fixture exercises the v4→v5 upgrade chain) and
    // replay the tail: the continuation must be the original's.
    let restored_ckpt = EngineCheckpoint::from_json(&checkpoint_json).unwrap();
    let mut restored = StreamEngine::restore(restored_ckpt).unwrap();
    let mut restored_decisions: Vec<Vec<u8>> = Vec::new();
    for batch in &batches[4..8] {
        restored_decisions.push(restored.ingest(batch).unwrap().decisions);
    }
    assert_eq!(
        restored_decisions,
        decisions[4..8],
        "restore replays the tail"
    );

    Artifacts {
        files: vec![
            ("ladder_sync_decisions.jsonl", jsonl(&decisions)),
            ("ladder_sync_snapshots.jsonl", jsonl(&snapshots)),
            ("ladder_sync_alerts.jsonl", jsonl(engine.alerts())),
            ("ladder_sync_checkpoint.json", checkpoint_json),
            ("ladder_sync_trail.jsonl", jsonl_of(&ring)),
        ],
    }
}

/// Async engine flushed to quiescence after every round: unlabeled
/// ingest with feedback joins, the retrain happening off-thread.
fn async_scenario() -> Artifacts {
    let reference = spec(250).reference(900, 37);
    let mut inner =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 37, config()).unwrap();
    let (ring, sink) = ring();
    inner.set_sink(sink);
    let mut anc = AsyncEngine::from_engine(
        inner,
        AsyncConfig {
            queue_depth: 4,
            backpressure: BackpressurePolicy::Block,
            ..AsyncConfig::default()
        },
    );

    let mut stream = DriftStream::new(spec(250), 15);
    let mut decisions: Vec<Vec<u8>> = Vec::new();
    let mut snapshots = Vec::new();
    let mut first_id = 0u64;
    for _ in 0..6 {
        let labeled = StreamTuple::rows_from_dataset(&stream.next_batch(120)).unwrap();
        let unlabeled: Vec<StreamTuple> = labeled
            .iter()
            .map(|t| StreamTuple {
                label: None,
                ..t.clone()
            })
            .collect();
        decisions.push(anc.ingest(&unlabeled).unwrap());
        let fb: Vec<LabelFeedback> = labeled
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(i, t)| LabelFeedback {
                id: first_id + i as u64,
                label: t.label.unwrap(),
            })
            .collect();
        first_id += labeled.len() as u64;
        anc.feedback(&fb).unwrap();
        anc.flush().unwrap();
        snapshots.push(anc.snapshot().to_data());
    }
    assert!(
        anc.retrain_count() >= 1,
        "the pinned async scenario must retrain off-thread"
    );

    Artifacts {
        files: vec![
            ("ladder_async_decisions.jsonl", jsonl(&decisions)),
            ("ladder_async_snapshots.jsonl", jsonl(&snapshots)),
            ("ladder_async_alerts.jsonl", jsonl(&anc.alerts())),
            ("ladder_async_trail.jsonl", jsonl_of(&ring)),
        ],
    }
}

/// Two shards under a deterministic router, labeled ingest, a final
/// sharded checkpoint.
fn sharded_scenario() -> Artifacts {
    let n_shards = 2usize;
    let reference = spec(300).reference(900, 41);
    let mut engine =
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 41, config(), n_shards)
            .unwrap();
    let mut rings = Vec::new();
    for s in 0..n_shards {
        let (ring, sink) = ring();
        engine.set_sink(s as u32, sink).unwrap();
        rings.push(ring);
    }

    let route = |i: usize| -> u32 {
        let z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((z >> 9) % n_shards as u64) as u32
    };
    let mut stream = DriftStream::new(spec(300), 25);
    let mut decisions: Vec<Vec<u8>> = Vec::new();
    let mut merged_snapshots = Vec::new();
    for _ in 0..6 {
        let labeled = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
        let routed: Vec<ShardedTuple> = labeled
            .into_iter()
            .enumerate()
            .map(|(i, tuple)| ShardedTuple {
                shard: route(i),
                tuple,
            })
            .collect();
        let out = engine.ingest(&routed).unwrap();
        decisions.push(out.decisions.clone());
        merged_snapshots.push(engine.snapshot().to_data());
    }
    let checkpoint_json = engine.checkpoint().unwrap().to_json();
    let restored =
        ShardedEngine::restore(ShardedCheckpoint::from_json(&checkpoint_json).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&restored.snapshot().to_data()).unwrap(),
        serde_json::to_string(&engine.snapshot().to_data()).unwrap(),
        "restored sharded engine republishes the live merged snapshot"
    );

    Artifacts {
        files: vec![
            ("ladder_sharded_decisions.jsonl", jsonl(&decisions)),
            ("ladder_sharded_snapshots.jsonl", jsonl(&merged_snapshots)),
            ("ladder_sharded_trail_s0.jsonl", jsonl_of(&rings[0])),
            ("ladder_sharded_trail_s1.jsonl", jsonl_of(&rings[1])),
            ("ladder_sharded_checkpoint.json", checkpoint_json),
        ],
    }
}

/// Capture the golden fixtures. Run **only** against the pre-ladder
/// tree; refuses to clobber an existing pin.
#[test]
#[ignore = "writes golden fixtures; run once against the pre-ladder engine"]
fn capture_ladder_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for artifacts in [sync_scenario(), async_scenario(), sharded_scenario()] {
        for (name, contents) in &artifacts.files {
            let path = dir.join(name);
            assert!(
                !path.exists(),
                "{path:?} already captured; the pin is never regenerated \
                 (see tests/fixtures/README.md)"
            );
            std::fs::write(&path, contents).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Ladder-on properties: what the pre-ladder engine could never do.
// ---------------------------------------------------------------------------

/// A ladder-enabled config. `patience` bounds how long each rung may fail
/// before escalating; `nudge_max` 0.0 makes tier 1 deliberately impotent
/// (every nudge clamps immediately), which is how the escalation tests
/// force the climb.
fn ladder_config(retrain: RetrainPolicy, patience: u32, nudge_max: f64) -> StreamConfig {
    StreamConfig {
        window: 128,
        di_floor: 0.8,
        floor_min_window: 48,
        floor_cooldown: 300,
        retrain,
        repair: RepairConfig {
            ladder: true,
            tier_patience: patience,
            nudge_step: 0.25,
            nudge_max,
            recovery_hold: 2,
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

/// The `(tier, outcome)` sequence of every `repair_start` (outcome `""`)
/// and `repair_end` event on the trail, in emission order.
fn repair_events(ring: &Arc<Mutex<RingSink>>) -> Vec<(String, String)> {
    ring.lock()
        .unwrap()
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::RepairStart(s) => Some((s.tier.clone(), String::new())),
            TelemetryEvent::RepairEnd(s) => Some((s.tier.clone(), s.outcome.clone())),
            _ => None,
        })
        .collect()
}

/// Property (b): a drifted stream that breaks the EEOC 0.8 floor is
/// repaired by tier-1 threshold nudges alone — DI* recrosses the floor,
/// the episode closes with a `recovered` trail event, and the retrain
/// counter never moves (the whole point of the µs rung).
#[test]
fn tier1_nudges_lift_di_star_over_the_floor_with_zero_retrains() {
    let reference = spec(350).reference(900, 23);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        23,
        // Patience 200: tier 1 gets all the room it needs, so any
        // recovery in this test is the nudge's alone.
        ladder_config(RetrainPolicy::Never, 200, 6.0),
    )
    .unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);

    let mut stream = DriftStream::new(spec(350), 9);
    let mut episode_opened = false;
    let mut recrossed = false;
    for _ in 0..40 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        let out = engine.ingest(&batch).unwrap();
        if engine.repair_tier() == Some(RepairTier::ThresholdNudge) {
            episode_opened = true;
        }
        if episode_opened && out.snapshot.passes_di_floor() == Some(true) {
            recrossed = true;
        }
    }

    assert!(episode_opened, "the drift must open a tier-1 episode");
    assert!(recrossed, "DI* must recross the floor under nudges alone");
    assert_eq!(engine.retrain_count(), 0, "tier 1 never retrains");
    assert!(
        engine.repair_thresholds().iter().any(|&t| t < 0.0),
        "recovery was produced by a non-identity threshold vector"
    );
    let events = repair_events(&ring);
    assert!(
        events.contains(&("threshold_nudge".into(), "recovered".into())),
        "the episode must close as recovered: {events:?}"
    );
    assert!(
        events.iter().all(|(tier, _)| tier == "threshold_nudge"),
        "no rung above tier 1 may appear on the trail: {events:?}"
    );
    // Threshold motion is audited: every nudge leaves a trail event
    // carrying the full per-cell vector, and the last one matches the
    // engine's live state.
    let last_thresholds = ring
        .lock()
        .unwrap()
        .events()
        .iter()
        .rev()
        .find_map(|e| match e {
            TelemetryEvent::ThresholdChange(t) => Some(t.thresholds.clone()),
            _ => None,
        })
        .expect("nudges emit threshold_change events");
    assert_eq!(last_thresholds, engine.repair_thresholds());
}

/// Property (c): with tier 1 made impotent (`nudge_max` 0.0) the ladder
/// escalates monotonically — nudge → projection → retrain, never
/// skipping or descending mid-episode — and a successful tier-3 retrain
/// de-escalates to idle with the serve-time artifacts reset.
#[test]
fn escalation_is_monotone_and_a_retrain_deescalates_to_identity() {
    let reference = spec(350).reference(900, 23);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        23,
        ladder_config(RetrainPolicy::OnAlert { min_window: 64 }, 3, 0.0),
    )
    .unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);

    let mut stream = DriftStream::new(spec(350), 9);
    for _ in 0..30 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        engine.ingest(&batch).unwrap();
        if engine.retrain_count() >= 1 {
            break;
        }
    }
    assert!(
        engine.retrain_count() >= 1,
        "the impotent cheap rungs must escalate into a tier-3 retrain"
    );

    // The start events climb the ladder in index order, without skips.
    let starts: Vec<u8> = repair_events(&ring)
        .iter()
        .filter(|(_, outcome)| outcome.is_empty())
        .map(|(tier, _)| match tier.as_str() {
            "threshold_nudge" => 1,
            "difffair_projection" => 2,
            "confair_retrain" => 3,
            other => panic!("unknown tier {other}"),
        })
        .collect();
    assert_eq!(
        starts[..3],
        [1, 2, 3],
        "the first episode must climb rung by rung: {starts:?}"
    );
    let events = repair_events(&ring);
    assert!(
        events.contains(&("threshold_nudge".into(), "escalated".into()))
            && events.contains(&("difffair_projection".into(), "escalated".into())),
        "each abandoned rung closes as escalated: {events:?}"
    );
    assert!(
        events.contains(&("confair_retrain".into(), "retrained".into())),
        "the tier-3 episode closes as retrained: {events:?}"
    );

    // De-escalation: the successful retrain repaired the stream at the
    // root, so the ladder is idle and the serve-time overlay is back to
    // the identity.
    assert_eq!(engine.repair_tier(), None);
    assert!(engine.repair_thresholds().iter().all(|&t| t == 0.0));
    assert!(!engine.repair_projection_active());
}

/// Property (d): sync, async-at-quiescence, and sharded engines agree —
/// decisions, snapshots, ladder state — through a full ladder episode.
#[test]
fn engines_agree_at_quiescence_through_a_ladder_episode() {
    let config = ladder_config(RetrainPolicy::Never, 200, 6.0);
    let reference = spec(350).reference(900, 23);
    let build =
        || StreamEngine::from_reference(&reference, LearnerKind::Logistic, 23, config.clone());

    let mut sync = build().unwrap();
    let mut anc = AsyncEngine::from_engine(build().unwrap(), AsyncConfig::default());
    let n_shards = 2usize;
    let mut sharded =
        ShardedEngine::from_engines((0..n_shards).map(|_| build().unwrap()).collect()).unwrap();
    // Per-shard mirrors: each shard must behave exactly like a standalone
    // engine fed only its slice of the traffic.
    let mut mirrors: Vec<StreamEngine> = (0..n_shards).map(|_| build().unwrap()).collect();

    let route = |i: usize| -> u32 {
        let z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((z >> 9) % n_shards as u64) as u32
    };
    let mut stream = DriftStream::new(spec(350), 9);
    for _ in 0..30 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();

        let sync_out = sync.ingest(&batch).unwrap();
        let async_decisions = anc.ingest(&batch).unwrap();
        anc.flush().unwrap();
        assert_eq!(sync_out.decisions, async_decisions);
        assert_eq!(
            serde_json::to_string(&sync_out.snapshot.to_data()).unwrap(),
            serde_json::to_string(&anc.snapshot().to_data()).unwrap()
        );

        let routed: Vec<ShardedTuple> = batch
            .iter()
            .enumerate()
            .map(|(i, tuple)| ShardedTuple {
                shard: route(i),
                tuple: tuple.clone(),
            })
            .collect();
        let sharded_out = sharded.ingest(&routed).unwrap();
        for (s, mirror) in mirrors.iter_mut().enumerate() {
            let slice: Vec<StreamTuple> = routed
                .iter()
                .filter(|t| t.shard == s as u32)
                .map(|t| t.tuple.clone())
                .collect();
            let mirror_out = mirror.ingest(&slice).unwrap();
            let sharded_slice: Vec<u8> = routed
                .iter()
                .zip(&sharded_out.decisions)
                .filter(|(t, _)| t.shard == s as u32)
                .map(|(_, &d)| d)
                .collect();
            assert_eq!(mirror_out.decisions, sharded_slice);
        }
    }

    // A ladder episode actually ran (otherwise this test pins nothing).
    assert!(
        sync.repair_thresholds().iter().any(|&t| t != 0.0) || sync.repair_tier().is_some(),
        "the scenario must exercise the ladder"
    );
    // Quiescent agreement on the full ladder state.
    assert_eq!(sync.repair_tier(), anc.repair_tier());
    assert_eq!(sync.repair_thresholds(), anc.repair_thresholds());
    assert_eq!(
        sync.repair_projection_active(),
        anc.repair_projection_active()
    );
    for (s, mirror) in mirrors.iter().enumerate() {
        let shard = sharded.shard(s as u32).unwrap();
        assert_eq!(shard.repair_tier(), mirror.repair_tier());
        assert_eq!(shard.repair_thresholds(), mirror.repair_thresholds());
    }
    assert_eq!(
        sharded.repair_tiers(),
        mirrors
            .iter()
            .map(StreamEngine::repair_tier)
            .collect::<Vec<_>>()
    );
}

/// Satellite: per-cell nudges never touch the window counters, so the
/// intersectional marginal arithmetic stays exactly additive under an
/// active repair episode.
#[test]
fn marginals_stay_exactly_additive_under_nudges() {
    let layout = GroupLayout::new(vec![2, 2]).unwrap();
    let config = StreamConfig {
        groups: layout.cells(),
        ..ladder_config(RetrainPolicy::Never, 200, 6.0)
    };
    let reference = spec(350).reference(900, 23);
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 23, config).unwrap();

    let mut stream = DriftStream::new(spec(350), 9);
    for _ in 0..30 {
        let mut batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        // Second axis synthesised deterministically, so every (group,
        // region) cell fills.
        for (i, t) in batch.iter_mut().enumerate() {
            t.group = layout.cell_of(&[usize::from(t.group), i % 2]).unwrap();
        }
        engine.ingest(&batch).unwrap();
    }
    assert!(
        engine.repair_thresholds().iter().any(|&t| t != 0.0),
        "the scenario must nudge at least one cell"
    );

    let counts = engine.window_counts();
    for axis in 0..2 {
        let marginal = layout.marginal(counts, axis).unwrap();
        // Every marginal cell is the exact sum of its constituent cells.
        for (m, cell) in marginal.iter().enumerate() {
            let mut expect = cf_stream::WindowCounters::default();
            for (c, full) in counts.iter().enumerate() {
                let coords = [c / 2, c % 2];
                if coords[axis] == m {
                    expect.total += full.total;
                    expect.selected += full.selected;
                    expect.violations += full.violations;
                    expect.labeled += full.labeled;
                    expect.label_positive += full.label_positive;
                    expect.true_positive += full.true_positive;
                    expect.false_positive += full.false_positive;
                }
            }
            assert_eq!(*cell, expect, "axis {axis}, marginal cell {m}");
        }
    }
}

/// Satellite: the committed fixture corpus — pre-ladder v4 checkpoint
/// documents — parses through the upgrade chain, lands at the live
/// format version, restores, and comes out with the ladder idle and the
/// serve-time overlay at the identity.
#[test]
fn fixture_checkpoints_upgrade_through_the_chain_to_the_identity_ladder() {
    let sync = EngineCheckpoint::from_json(&fixture("ladder_sync_checkpoint.json")).unwrap();
    assert_eq!(sync.version, cf_stream::CHECKPOINT_VERSION);
    assert_eq!(sync.repair_tier, 0);
    assert_eq!(sync.repair_thresholds, vec![0.0; sync.config.groups]);
    assert!(!sync.repair_projection);
    assert!(
        !sync.config.repair.ladder,
        "upgraded documents keep the ladder off"
    );
    let restored = StreamEngine::restore(sync).unwrap();
    assert_eq!(restored.repair_tier(), None);
    assert!(restored.repair_thresholds().iter().all(|&t| t == 0.0));

    let sharded = ShardedCheckpoint::from_json(&fixture("ladder_sharded_checkpoint.json")).unwrap();
    assert_eq!(sharded.version, cf_stream::CHECKPOINT_VERSION);
    for shard in &sharded.shards {
        assert_eq!(shard.repair_tier, 0);
        assert_eq!(shard.repair_thresholds, vec![0.0; shard.config.groups]);
    }
    ShardedEngine::restore(sharded).unwrap();
}

/// A checkpoint taken mid-episode restores the full ladder state — rung,
/// thresholds, counters — and the restored engine continues the stream
/// exactly as the uninterrupted one.
/// Satellite: the whole committed corpus, not just the ladder family —
/// every `.json` checkpoint fixture parses through the upgrade chain
/// (v1 → … → live) and lands at the live format version. Fixture
/// documents are captured at whatever version was current when their
/// family was added and are never hand-bumped (see
/// `tests/fixtures/README.md`), so this sweep is what keeps the chain's
/// oldest rungs exercised forever.
#[test]
fn every_fixture_checkpoint_parses_at_the_live_version() {
    let mut swept = 0;
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let doc = std::fs::read_to_string(&path).unwrap();
        let version = if let Ok(ckpt) = EngineCheckpoint::from_json(&doc) {
            StreamEngine::restore(ckpt.clone()).unwrap();
            ckpt.version
        } else {
            let ckpt = ShardedCheckpoint::from_json(&doc).unwrap_or_else(|e| {
                panic!(
                    "{} parses as neither engine nor sharded: {e}",
                    path.display()
                )
            });
            ShardedEngine::restore(ckpt.clone()).unwrap();
            ckpt.version
        };
        assert_eq!(
            version,
            cf_stream::CHECKPOINT_VERSION,
            "{} must upgrade to the live version",
            path.display()
        );
        swept += 1;
    }
    assert!(
        swept >= 4,
        "the corpus holds at least 4 checkpoint documents, found {swept}"
    );
}

#[test]
fn mid_episode_checkpoint_restores_the_ladder_bit_identically() {
    let reference = spec(350).reference(900, 23);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        23,
        ladder_config(RetrainPolicy::Never, 200, 6.0),
    )
    .unwrap();

    let mut stream = DriftStream::new(spec(350), 9);
    let mut batches = Vec::new();
    for _ in 0..12 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        engine.ingest(&batch).unwrap();
        batches.push(batch);
    }
    assert!(
        engine.repair_tier().is_some() || engine.repair_thresholds().iter().any(|&t| t != 0.0),
        "the checkpoint must capture a live episode"
    );

    let doc = engine.checkpoint().unwrap().to_json();
    let mut restored = StreamEngine::restore(EngineCheckpoint::from_json(&doc).unwrap()).unwrap();
    assert_eq!(restored.repair_tier(), engine.repair_tier());
    assert_eq!(restored.repair_thresholds(), engine.repair_thresholds());

    for _ in 0..8 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        let a = engine.ingest(&batch).unwrap();
        let b = restored.ingest(&batch).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(
            serde_json::to_string(&a.snapshot.to_data()).unwrap(),
            serde_json::to_string(&b.snapshot.to_data()).unwrap()
        );
    }
    // `repair_work_us` is wall-clock and legitimately differs between
    // the twins; everything else in the documents must be byte-equal.
    let mut a = engine.checkpoint().unwrap();
    let mut b = restored.checkpoint().unwrap();
    a.repair_work_us = 0;
    b.repair_work_us = 0;
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn sync_ladder_off_is_byte_identical_to_the_pre_ladder_engine() {
    sync_scenario().assert_matches_fixtures();
}

#[test]
fn async_ladder_off_at_quiescence_is_byte_identical_to_the_pre_ladder_engine() {
    async_scenario().assert_matches_fixtures();
}

#[test]
fn sharded_ladder_off_is_byte_identical_to_the_pre_ladder_engine() {
    sharded_scenario().assert_matches_fixtures();
}
