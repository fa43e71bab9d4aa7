//! The K=2 equivalence contract: the runtime-K engine, configured with
//! two group cells, must be **byte-identical** to the pre-refactor
//! binary engine — decisions, snapshots, alerts, checkpoint documents,
//! and telemetry trails — across the sync, async-at-quiescence, and
//! sharded engines.
//!
//! The pin is a set of golden fixtures under `tests/fixtures/`, captured
//! once from the binary engine *before* the K-ary refactor landed (run
//! `cargo test --test kary_equivalence -- --ignored capture` against
//! that tree). Every scenario here is fully deterministic — seeded
//! streams, `RetrainPolicy::Never` (the repair episode's wall-clock
//! duration is the one nondeterministic trail field) — so the only
//! permitted divergence is the checkpoint schema version itself:
//! * trail comparison normalises the `"version"` stamp carried by
//!   checkpoint/restored events (the v3→v4 bump is the schema change
//!   this suite exists to police, not a behaviour change);
//! * checkpoint comparison routes the fixture through
//!   [`EngineCheckpoint::from_json`], whose upgrade chain is exactly the
//!   published migration path for pre-K documents.
//!
//! Alongside the pin, the K-ary half of the suite property-checks what
//! the binary engine could never express: drift injected into one of K
//! cells alerts only that cell's detector, and intersection-cell
//! counters sum to their parent marginals.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, AsyncEngine, BackpressurePolicy, DriftKind, EngineCheckpoint, GroupLayout,
    LabelFeedback, RetrainPolicy, ShardedCheckpoint, ShardedEngine, ShardedFeedback, ShardedTuple,
    SlidingWindow, SlotMeta, StreamConfig, StreamEngine, StreamTuple,
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
             pre-refactor binary engine with `cargo test --test kary_equivalence -- \
             --ignored capture_golden_fixtures` and committed"
        )
    })
}

fn spec(drift_onset: u64) -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset,
        ..DriftStreamSpec::default()
    }
}

/// The scenario config. Struct-update syntax keeps this compiling (and
/// meaning "two groups") on both sides of the refactor.
fn config() -> StreamConfig {
    StreamConfig {
        window: 160,
        floor_min_window: 32,
        floor_cooldown: 400,
        retrain: RetrainPolicy::Never,
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

/// One compact JSON value per line, so fixtures diff line-by-line and
/// never depend on container-level serialisation.
fn jsonl<T: serde::Serialize>(items: &[T]) -> String {
    items
        .iter()
        .map(|x| serde_json::to_string(x).unwrap())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Normalise the one field the v3→v4 schema bump is *allowed* to change
/// in a trail: the checkpoint-format version stamped on checkpoint and
/// restored events. Everything else must match byte for byte.
fn scrub_versions(trail: &str) -> String {
    trail
        .replace("\"version\":3", "\"version\":0")
        .replace("\"version\":4", "\"version\":0")
        .replace("\"version\":5", "\"version\":0")
}

fn unlabeled(batch: &[StreamTuple]) -> Vec<StreamTuple> {
    batch
        .iter()
        .map(|t| StreamTuple {
            label: None,
            ..t.clone()
        })
        .collect()
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
                (scrub_versions(&golden), scrub_versions(live))
            } else if name.contains("sharded") {
                // Checkpoint documents: parse both sides through the
                // upgrade chain and compare the re-serialised bytes, so
                // the v3→v4 format bump (the schema change this suite
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
                "{name}: K=2 run diverged from the pre-refactor binary engine"
            );
        }
    }
}

/// Sync engine: six batches of unlabeled ingest, delayed feedback on
/// every other tuple, a mid-run checkpoint, then a second engine restored
/// from that checkpoint replaying the tail of the stream.
fn sync_scenario() -> Artifacts {
    let reference = spec(300).reference(800, 19);
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 19, config()).unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);

    let mut stream = DriftStream::new(spec(300), 7);
    let mut decisions: Vec<Vec<u8>> = Vec::new();
    let mut snapshots = Vec::new();
    let mut checkpoint_json = String::new();
    let mut batches: Vec<Vec<StreamTuple>> = Vec::new();
    let mut feedbacks: Vec<Vec<LabelFeedback>> = Vec::new();
    for b in 0..6 {
        let labeled = StreamTuple::rows_from_dataset(&stream.next_batch(140)).unwrap();
        let batch = unlabeled(&labeled);
        let out = engine.ingest(&batch).unwrap();
        decisions.push(out.decisions.clone());
        snapshots.push(out.snapshot.to_data());

        let fb: Vec<LabelFeedback> = labeled
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(i, t)| LabelFeedback {
                id: out.first_id + i as u64,
                label: t.label.unwrap(),
            })
            .collect();
        snapshots.push(engine.feedback(&fb).unwrap().snapshot.to_data());
        batches.push(batch);
        feedbacks.push(fb);

        if b == 1 {
            checkpoint_json = engine.checkpoint().unwrap().to_json();
        }
    }

    // Restore from the mid-run document (through the JSON round trip, so
    // post-refactor the fixture exercises the v3→v4 upgrade chain) and
    // replay the tail: the continuation must be the original's.
    let restored_ckpt = EngineCheckpoint::from_json(&checkpoint_json).unwrap();
    let mut restored = StreamEngine::restore(restored_ckpt).unwrap();
    let mut restored_snapshots = Vec::new();
    let mut restored_decisions: Vec<Vec<u8>> = Vec::new();
    for b in 2..6 {
        let out = restored.ingest(&batches[b]).unwrap();
        restored_decisions.push(out.decisions.clone());
        restored_snapshots.push(out.snapshot.to_data());
        restored_snapshots.push(restored.feedback(&feedbacks[b]).unwrap().snapshot.to_data());
    }
    assert_eq!(
        restored_decisions,
        decisions[2..6],
        "restore replays the tail"
    );

    Artifacts {
        files: vec![
            ("sync_decisions.jsonl", jsonl(&decisions)),
            ("sync_snapshots.jsonl", jsonl(&snapshots)),
            ("sync_alerts.jsonl", jsonl(engine.alerts())),
            ("sync_checkpoint.json", checkpoint_json),
            ("sync_trail.jsonl", jsonl_of(&ring)),
            ("sync_restored_snapshots.jsonl", jsonl(&restored_snapshots)),
        ],
    }
}

/// Async engine flushed to quiescence after every round: published
/// snapshots, alerts, and the monitor-thread trail.
fn async_scenario() -> Artifacts {
    let reference = spec(250).reference(800, 29);
    let mut inner =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 29, config()).unwrap();
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

    let mut stream = DriftStream::new(spec(250), 11);
    let mut decisions: Vec<Vec<u8>> = Vec::new();
    let mut snapshots = Vec::new();
    let mut first_id = 0u64;
    for _ in 0..4 {
        let labeled = StreamTuple::rows_from_dataset(&stream.next_batch(130)).unwrap();
        decisions.push(anc.ingest(&unlabeled(&labeled)).unwrap());
        let fb: Vec<LabelFeedback> = labeled
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
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

    Artifacts {
        files: vec![
            ("async_decisions.jsonl", jsonl(&decisions)),
            ("async_snapshots.jsonl", jsonl(&snapshots)),
            ("async_alerts.jsonl", jsonl(&anc.alerts())),
            ("async_trail.jsonl", jsonl_of(&ring)),
        ],
    }
}

/// Two shards under a deterministic router: scattered decisions, merged
/// and per-shard snapshots, per-shard trails, and the sharded checkpoint.
fn sharded_scenario() -> Artifacts {
    let n_shards = 2usize;
    let reference = spec(350).reference(800, 31);
    let mut engine =
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 31, config(), n_shards)
            .unwrap();
    let mut rings = Vec::new();
    for s in 0..n_shards {
        let (ring, sink) = ring();
        engine.set_sink(s as u32, sink).unwrap();
        rings.push(ring);
    }

    let route = |i: usize| -> u32 {
        let z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((z >> 7) % n_shards as u64) as u32
    };
    let mut stream = DriftStream::new(spec(350), 13);
    let mut decisions: Vec<Vec<u8>> = Vec::new();
    let mut merged_snapshots = Vec::new();
    let mut shard_snapshots = Vec::new();
    for _ in 0..4 {
        let labeled = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
        let routed: Vec<ShardedTuple> = unlabeled(&labeled)
            .into_iter()
            .enumerate()
            .map(|(i, tuple)| ShardedTuple {
                shard: route(i),
                tuple,
            })
            .collect();
        let out = engine.ingest(&routed).unwrap();
        decisions.push(out.decisions.clone());
        for s in 0..n_shards {
            shard_snapshots.push(out.per_shard[s].snapshot.to_data());
        }

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
        let fo = engine.feedback(&fb).unwrap();
        for outcome in &fo {
            shard_snapshots.push(outcome.snapshot.to_data());
        }
        merged_snapshots.push(engine.snapshot().to_data());
    }
    let checkpoint_json = engine.checkpoint().unwrap().to_json();

    // The sharded document restores (through the JSON round trip, hence
    // post-refactor through the per-shard upgrade chain) into an engine
    // whose merged snapshot is the live one.
    let restored =
        ShardedEngine::restore(ShardedCheckpoint::from_json(&checkpoint_json).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&restored.snapshot().to_data()).unwrap(),
        serde_json::to_string(&engine.snapshot().to_data()).unwrap(),
        "restored sharded engine republishes the live merged snapshot"
    );

    Artifacts {
        files: vec![
            ("sharded_decisions.jsonl", jsonl(&decisions)),
            ("sharded_merged_snapshots.jsonl", jsonl(&merged_snapshots)),
            ("sharded_shard_snapshots.jsonl", jsonl(&shard_snapshots)),
            ("sharded_trail_s0.jsonl", jsonl_of(&rings[0])),
            ("sharded_trail_s1.jsonl", jsonl_of(&rings[1])),
            ("sharded_checkpoint.json", checkpoint_json),
        ],
    }
}

/// Capture the golden fixtures. Run **only** against the pre-refactor
/// binary tree; refuses to clobber an existing pin.
#[test]
#[ignore = "writes golden fixtures; run once against the pre-refactor binary engine"]
fn capture_golden_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for artifacts in [sync_scenario(), async_scenario(), sharded_scenario()] {
        for (name, contents) in &artifacts.files {
            let path = dir.join(name);
            assert!(
                !path.exists(),
                "{path:?} already captured; delete tests/fixtures/ by hand to re-pin"
            );
            std::fs::write(&path, contents).unwrap();
        }
    }
}

#[test]
fn sync_k2_is_byte_identical_to_the_binary_engine() {
    sync_scenario().assert_matches_fixtures();
}

#[test]
fn async_k2_at_quiescence_is_byte_identical_to_the_binary_engine() {
    async_scenario().assert_matches_fixtures();
}

#[test]
fn sharded_k2_is_byte_identical_to_the_binary_engine() {
    sharded_scenario().assert_matches_fixtures();
}

/// The fixture checkpoint — a genuine pre-refactor (v3 or earlier, once
/// upgraded) document — restores through `from_json`'s upgrade chain and
/// re-serialises to exactly what the live engine writes today. This is
/// the round-trip that proves the schema bump is the *only* difference.
#[test]
fn fixture_checkpoint_upgrades_to_the_live_document() {
    let golden = fixture("sync_checkpoint.json");
    let upgraded = EngineCheckpoint::from_json(&golden).unwrap();
    let rewritten = upgraded.to_json();
    let reparsed = EngineCheckpoint::from_json(&rewritten).unwrap();
    assert_eq!(
        rewritten,
        reparsed.to_json(),
        "the upgraded document is a serialisation fixed point"
    );
    // And it must actually restore into a serving engine.
    let mut engine = StreamEngine::restore(reparsed).unwrap();
    let mut stream = DriftStream::new(spec(300), 99);
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
    engine.ingest(&batch).unwrap();

    let golden_sharded = fixture("sharded_checkpoint.json");
    let upgraded = ShardedCheckpoint::from_json(&golden_sharded).unwrap();
    assert_eq!(upgraded.to_json(), {
        let reparsed = ShardedCheckpoint::from_json(&upgraded.to_json()).unwrap();
        reparsed.to_json()
    });
    ShardedEngine::restore(upgraded).unwrap();
}

/// The K-ary property the binary engine could never express: drift
/// injected into exactly one of K cells trips **only that cell's**
/// Page–Hinkley detector — for every choice of drifted cell. A
/// stationary control run under the same configuration fires no
/// conformance alert at all, so the per-cell detectors neither miss the
/// drifted cell nor cross-talk into quiet ones.
#[test]
fn single_cell_drift_alerts_only_that_cells_detector() {
    let groups = 4usize;
    // Wide class separation: the 90° rotation then moves the drifted
    // cell's label clusters far outside their reference profile, so the
    // violation jump dwarfs any quiet cell's stationary noise. (A π
    // rotation would be *stronger* label drift but weaker signal — a
    // pure label swap leaves the feature marginal unchanged, invisible
    // to decision-plane conformance.)
    let kary_spec = |drift_group: u8, drift_onset: u64| DriftStreamSpec {
        groups,
        minority_fraction: 0.6,
        class_sep: 2.4,
        drift_group,
        drift_onset,
        ..DriftStreamSpec::default()
    };
    // More detector headroom than the binary scenarios: off-axis cells
    // are served less cleanly by the single global model, so their
    // stationary violation series is noisier — the drift jump (~0.5
    // violation probability) still clears λ=30 within a batch or two.
    let kary_config = StreamConfig {
        groups,
        detector: cf_stream::PageHinkleyConfig {
            delta: 0.05,
            lambda: 30.0,
            min_samples: 200,
            cooldown: 1_000,
        },
        ..config()
    };

    for drift_cell in 0..groups as u8 {
        let reference = kary_spec(drift_cell, 400).reference(2_400, 43 + u64::from(drift_cell));
        let mut engine = StreamEngine::from_reference(
            &reference,
            LearnerKind::Logistic,
            43,
            kary_config.clone(),
        )
        .unwrap();
        let mut stream = DriftStream::new(kary_spec(drift_cell, 400), 57 + u64::from(drift_cell));
        for _ in 0..10 {
            let batch = StreamTuple::rows_from_dataset(&stream.next_batch(200)).unwrap();
            engine.ingest(&batch).unwrap();
        }
        let conformance: Vec<_> = engine
            .alerts()
            .iter()
            .filter(|a| a.kind == DriftKind::ConformanceViolation)
            .collect();
        assert!(
            !conformance.is_empty(),
            "drift in cell {drift_cell} must trip its detector"
        );
        for alert in &conformance {
            assert_eq!(
                alert.group, drift_cell,
                "conformance alert for an undrifted cell: {alert:?}"
            );
        }

        // Stationary control: same engine configuration, no drift — no
        // cell's detector may fire.
        let mut control = StreamEngine::from_reference(
            &reference,
            LearnerKind::Logistic,
            43,
            kary_config.clone(),
        )
        .unwrap();
        let mut quiet =
            DriftStream::new(kary_spec(drift_cell, u64::MAX), 57 + u64::from(drift_cell));
        for _ in 0..10 {
            let batch = StreamTuple::rows_from_dataset(&quiet.next_batch(200)).unwrap();
            control.ingest(&batch).unwrap();
        }
        assert!(
            control
                .alerts()
                .iter()
                .all(|a| a.kind != DriftKind::ConformanceViolation),
            "stationary control fired a conformance alert: {:?}",
            control.alerts()
        );
    }
}

/// Intersection cells sum to their parents: pushing one tuple sequence
/// through a K=8 `sex × race` window and through the two collapsed
/// per-axis windows yields marginal counters that agree **exactly** on
/// every field — selection, violations, label joins and all — because
/// `WindowCounters` is additive and [`GroupLayout::marginal`] is plain
/// summation.
#[test]
fn intersection_cells_sum_to_their_parent_marginals() {
    let layout = GroupLayout::new(vec![2, 4]).unwrap();
    let mut intersect = SlidingWindow::new(512, 2, 128, layout.cells()).unwrap();
    let mut by_sex = SlidingWindow::new(512, 2, 128, 2).unwrap();
    let mut by_race = SlidingWindow::new(512, 2, 128, 4).unwrap();

    // splitmix64 — a deterministic tuple sequence without a rand dep.
    let mut state = 0x1234_5678_9ABC_DEFFu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    for id in 0..5_000u64 {
        let r = next();
        let sex = (r & 1) as usize;
        let race = ((r >> 1) & 3) as usize;
        // A third of the tuples arrive unlabeled; half of those get their
        // label joined later, exercising the feedback plane's counters.
        let label = match r >> 3 & 3 {
            0 => None,
            _ => Some((r >> 5 & 1) as u8),
        };
        let meta = |group: u8| SlotMeta {
            id,
            group,
            label,
            decision: (r >> 6 & 1) as u8,
            violated: r >> 7 & 7 == 0,
        };
        let features = [(r >> 8 & 0xFF) as f64, (r >> 16 & 0xFF) as f64];
        intersect
            .push(meta(layout.cell_of(&[sex, race]).unwrap()), &features)
            .unwrap();
        by_sex.push(meta(sex as u8), &features).unwrap();
        by_race.push(meta(race as u8), &features).unwrap();
        if label.is_none() && r >> 9 & 1 == 0 {
            let late = (r >> 10 & 1) as u8;
            intersect.feedback(id, late);
            by_sex.feedback(id, late);
            by_race.feedback(id, late);
        }
    }

    assert!(
        intersect.counts().iter().all(|c| c.total > 0),
        "every intersection cell must be populated"
    );
    assert_eq!(
        layout.marginal(intersect.counts(), 0).unwrap(),
        by_sex.counts(),
        "sex marginal of the intersection cells"
    );
    assert_eq!(
        layout.marginal(intersect.counts(), 1).unwrap(),
        by_race.counts(),
        "race marginal of the intersection cells"
    );
}

/// Alert events in the fixture trails must keep their exact moved-cell
/// explanation strings at K=2 ("[W, U] = [...]" and `group={g}/...`) —
/// the operator-facing wording the binary engine shipped with.
#[test]
fn fixture_trails_carry_binary_alert_wording() {
    let mut saw_alert = false;
    for name in ["sync_trail.jsonl", "async_trail.jsonl"] {
        for line in fixture(name).lines() {
            let event: TelemetryEvent = serde_json::from_str(line).unwrap();
            if let TelemetryEvent::DriftAlert(e) = event {
                saw_alert = true;
                assert!(
                    e.explanation.summary.contains("[W, U] = ["),
                    "binary wording pinned: {}",
                    e.explanation.summary
                );
                assert!(e
                    .explanation
                    .cell
                    .contains(&format!("group={}", e.alert.group)));
            }
        }
    }
    assert!(saw_alert, "the pinned scenarios must produce drift alerts");
}
