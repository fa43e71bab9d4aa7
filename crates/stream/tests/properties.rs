//! Property tests for the sliding window's label plane: random push,
//! late-feedback, duplicate, future-id, capacity-eviction and
//! checkpoint-restore sequences through [`SlidingWindow`] and through a
//! naive oracle — a `VecDeque` decision ring searched linearly, a
//! `VecDeque` label ring, a `BTreeMap` pending index and counters
//! recomputed from scratch — which must agree after every step.
//!
//! Then the decoders under tampering: engine and sharded checkpoints and
//! an audit trail, with every numeric leaf replaced and with random
//! truncations and byte flips, must decode or fail with a typed error —
//! never panic, and never read `null` or an overflowing literal as a
//! number.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    EngineCheckpoint, JoinStats, LabelFeedback, LabelJoin, LabelSlot, PendingIndex, PendingLabel,
    RepairConfig, RetrainPolicy, ShardedCheckpoint, ShardedEngine, ShardedTuple, SlidingWindow,
    SlotMeta, StreamConfig, StreamEngine, StreamError, StreamTuple, WindowCounters, WindowState,
};
use confair_core::confair::{AlphaMode, ConFairConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// The naive model of a [`SlidingWindow`].
struct Oracle {
    capacity: usize,
    pending_capacity: usize,
    groups: usize,
    dim: usize,
    ring: VecDeque<(SlotMeta, Vec<f64>)>,
    labels: VecDeque<LabelSlot>,
    pending: BTreeMap<u64, (u8, u8)>,
    joins: JoinStats,
}

impl Oracle {
    fn new(capacity: usize, dim: usize, pending_capacity: usize, groups: usize) -> Self {
        Oracle {
            capacity,
            pending_capacity,
            groups,
            dim,
            ring: VecDeque::new(),
            labels: VecDeque::new(),
            pending: BTreeMap::new(),
            joins: JoinStats::default(),
        }
    }

    fn push_label(&mut self, pair: LabelSlot) {
        if self.labels.len() == self.capacity {
            self.labels.pop_front();
        }
        self.labels.push_back(pair);
        self.joins.joined += 1;
    }

    /// A valid push: the id is newer than every id seen.
    fn push(&mut self, meta: SlotMeta, features: &[f64]) {
        if let Some(label) = meta.label {
            self.push_label(LabelSlot {
                group: meta.group,
                decision: meta.decision,
                label,
            });
        }
        if self.ring.len() == self.capacity {
            let (evicted, _) = self.ring.pop_front().expect("a full ring");
            if evicted.label.is_none() {
                if self.pending_capacity == 0 {
                    self.joins.pending_evicted += 1;
                } else {
                    if self.pending.len() == self.pending_capacity {
                        self.pending.pop_first();
                        self.joins.pending_evicted += 1;
                    }
                    self.pending
                        .insert(evicted.id, (evicted.group, evicted.decision));
                }
            }
        }
        self.ring.push_back((meta, features.to_vec()));
    }

    fn feedback(&mut self, id: u64, label: u8) -> LabelJoin {
        if let Some((slot, _)) = self.ring.iter_mut().find(|(m, _)| m.id == id) {
            if slot.label.is_some() {
                self.joins.duplicates += 1;
                return LabelJoin::Duplicate;
            }
            slot.label = Some(label);
            let pair = LabelSlot {
                group: slot.group,
                decision: slot.decision,
                label,
            };
            self.push_label(pair);
            return LabelJoin::Joined;
        }
        if let Some((group, decision)) = self.pending.remove(&id) {
            self.push_label(LabelSlot {
                group,
                decision,
                label,
            });
            self.joins.joined_late += 1;
            return LabelJoin::JoinedLate;
        }
        self.joins.unmatched += 1;
        LabelJoin::Unmatched
    }

    fn counts(&self) -> Vec<WindowCounters> {
        let mut counts = vec![WindowCounters::default(); self.groups];
        for (m, _) in &self.ring {
            let c = &mut counts[m.group as usize];
            c.total += 1;
            c.selected += u64::from(m.decision == 1);
            c.violations += u64::from(m.violated);
        }
        for pair in &self.labels {
            let c = &mut counts[pair.group as usize];
            c.labeled += 1;
            c.label_positive += u64::from(pair.label == 1);
            c.true_positive += u64::from(pair.label == 1 && pair.decision == 1);
            c.false_positive += u64::from(pair.label == 0 && pair.decision == 1);
        }
        counts
    }

    fn state(&self) -> WindowState {
        WindowState {
            capacity: self.capacity,
            dim: self.dim,
            meta: self.ring.iter().map(|(m, _)| *m).collect(),
            features: self.ring.iter().flat_map(|(_, f)| f.clone()).collect(),
            labels: self.labels.iter().copied().collect(),
            pending: self
                .pending
                .iter()
                .map(|(&id, &(group, decision))| PendingLabel {
                    id,
                    group,
                    decision,
                })
                .collect(),
        }
    }
}

fn assert_agree(w: &SlidingWindow, o: &Oracle, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.join_stats(), o.joins, "join stats at step {}", step);
    prop_assert_eq!(w.pending_len(), o.pending.len(), "pending at step {}", step);
    prop_assert_eq!(w.len(), o.ring.len(), "ring length at step {}", step);
    prop_assert_eq!(
        w.labeled_len(),
        o.labels.len(),
        "label ring at step {}",
        step
    );
    prop_assert_eq!(w.counts(), &o.counts()[..], "counters at step {}", step);
    prop_assert_eq!(w.state(), o.state(), "state at step {}", step);
    Ok(())
}

/// Strategy: window capacity, feature width, pending bound (zero, one,
/// small, or larger than any sequence's evictions), group count, and an
/// op sequence of `(kind, pick, group, bits)` codes decoded by
/// [`window_matches_oracle`].
#[allow(clippy::type_complexity)]
fn scenario() -> impl Strategy<Value = (usize, usize, usize, usize, Vec<(u8, u16, u8, u8)>)> {
    (1usize..9, 0usize..3, 0usize..4, 1usize..5).prop_flat_map(|(capacity, dim, bound, groups)| {
        (
            Just(capacity),
            Just(dim),
            Just([0usize, 1, 3, 512][bound]),
            Just(groups),
            proptest::collection::vec((0u8..12, 0u16..1024, 0u8..8, 0u8..8), 1..400),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn window_matches_oracle(
        (capacity, dim, pending_capacity, groups, ops) in scenario()
    ) {
        let mut w = SlidingWindow::new(capacity, dim, pending_capacity, groups).unwrap();
        let mut o = Oracle::new(capacity, dim, pending_capacity, groups);
        let mut next_id = 0u64;
        let mut last_feedback = 0u64;
        for (step, &(kind, pick, group, bits)) in ops.iter().enumerate() {
            let group = group % groups as u8;
            let label = bits & 1;
            match kind {
                // Unlabeled pushes dominate, so the pending index fills,
                // evicts, and holds tombstones; ids skip now and then, as
                // they do for records dropped before monitoring.
                0..=4 => {
                    next_id += 1 + u64::from(pick % 7 == 0);
                    let meta = SlotMeta {
                        id: next_id,
                        group,
                        label: (kind == 4).then_some(label),
                        decision: (bits >> 1) & 1,
                        violated: bits & 4 != 0,
                    };
                    let features: Vec<f64> =
                        (0..dim).map(|j| f64::from(pick) + j as f64).collect();
                    w.push(meta, &features).unwrap();
                    o.push(meta, &features);
                }
                // A stale id is rejected and changes nothing (the very first
                // push, into an empty window, has nothing to be stale
                // against).
                5 => {
                    let meta = SlotMeta {
                        id: next_id - u64::from(pick) % (next_id + 1),
                        group,
                        label: None,
                        decision: 0,
                        violated: false,
                    };
                    let pushed = w.push(meta, &vec![0.0; dim]);
                    if o.ring.is_empty() {
                        prop_assert!(pushed.is_ok(), "first push at step {}", step);
                        o.push(meta, &vec![0.0; dim]);
                    } else {
                        prop_assert!(
                            matches!(pushed, Err(StreamError::Schema(_))),
                            "stale push at step {}: {:?}", step, pushed
                        );
                    }
                }
                // Late feedback for a pending id, oldest to newest.
                6 | 7 => {
                    let id = match o.pending.len() {
                        0 => u64::from(pick),
                        n => *o.pending.keys().nth(usize::from(pick) % n).expect("in range"),
                    };
                    last_feedback = id;
                    prop_assert_eq!(w.feedback(id, label), o.feedback(id, label), "step {}", step);
                }
                // Feedback for any id issued so far, or a few beyond it.
                8 | 9 => {
                    let id = u64::from(pick) % (next_id + 4);
                    last_feedback = id;
                    prop_assert_eq!(w.feedback(id, label), o.feedback(id, label), "step {}", step);
                }
                // The same id again: a duplicate in the ring, unmatched once
                // it has joined late.
                10 => {
                    prop_assert_eq!(
                        w.feedback(last_feedback, label),
                        o.feedback(last_feedback, label),
                        "repeat at step {}", step
                    );
                }
                // Checkpoint and restore: state survives, counters reset.
                _ => {
                    w = SlidingWindow::from_state(&w.state(), pending_capacity, groups).unwrap();
                    o.joins = JoinStats::default();
                }
            }
            assert_agree(&w, &o, step)?;
        }
    }

    /// The index alone against a `BTreeMap`, at sizes where compaction
    /// runs many times per sequence.
    #[test]
    fn pending_index_matches_btree_map(
        capacity in 0usize..300,
        ops in proptest::collection::vec((0u8..3, 0u16..4096), 1..3000)
    ) {
        let mut index = PendingIndex::new(capacity);
        let mut oracle: BTreeMap<u64, (u8, u8)> = BTreeMap::new();
        let mut next_id = 0u64;
        for (step, &(kind, pick)) in ops.iter().enumerate() {
            if kind == 0 {
                next_id += 1 + u64::from(pick % 5 == 0);
                let entry = PendingLabel {
                    id: next_id,
                    group: (pick % 8) as u8,
                    decision: (pick % 2) as u8,
                };
                let mut evicted = 0;
                if capacity == 0 {
                    evicted = 1;
                } else {
                    if oracle.len() == capacity {
                        oracle.pop_first();
                        evicted = 1;
                    }
                    oracle.insert(entry.id, (entry.group, entry.decision));
                }
                prop_assert_eq!(index.insert(entry), evicted, "insert at step {}", step);
            } else {
                // Mostly ids that are live, sometimes any id.
                let id = match (kind, oracle.len()) {
                    (1, n) if n > 0 => {
                        *oracle.keys().nth(usize::from(pick) % n).expect("in range")
                    }
                    _ => u64::from(pick) % (next_id + 2),
                };
                let expected = oracle.remove(&id).map(|(group, decision)| PendingLabel {
                    id,
                    group,
                    decision,
                });
                prop_assert_eq!(index.take(id), expected, "take {} at step {}", id, step);
            }
            prop_assert_eq!(index.len(), oracle.len(), "len at step {}", step);
        }
        let live: Vec<PendingLabel> = index.iter().collect();
        let expected: Vec<PendingLabel> = oracle
            .iter()
            .map(|(&id, &(group, decision))| PendingLabel { id, group, decision })
            .collect();
        prop_assert_eq!(live, expected);
    }
}

// ---------------------------------------------------------------------------
// Tampered documents: a checkpoint or audit trail decodes or fails typed.
// ---------------------------------------------------------------------------

/// Keys whose number may legitimately be `null`: a window slot's pending
/// `label` and an alert explanation's per-cell rates are `Option`s that
/// replay does not recompute. (`label` is also the key of a label pair's
/// required label; a `null` there still fails, but this loop cannot tell
/// the two apart by key.)
const OPTIONAL_KEYS: &[&str] = &["label", "selection_rate", "violation_rate"];

fn stream_spec(drift_onset: u64) -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset,
        ..Default::default()
    }
}

fn small_config(ladder: bool) -> StreamConfig {
    StreamConfig {
        window: 48,
        pending_labels: 16,
        di_floor: 0.8,
        floor_min_window: 24,
        floor_cooldown: 100,
        retrain: RetrainPolicy::OnAlert { min_window: 32 },
        repair: RepairConfig {
            ladder,
            tier_patience: 1,
            recovery_hold: 1,
            ..Default::default()
        },
        confair: ConFairConfig {
            alpha: AlphaMode::Fixed {
                alpha_u: 2.0,
                alpha_w: 1.0,
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

/// `n` drifting tuples; every third one leaves its label for later.
fn tuples(stream: &mut DriftStream, n: usize) -> Vec<StreamTuple> {
    let mut batch = StreamTuple::rows_from_dataset(&stream.next_batch(n)).unwrap();
    for t in batch.iter_mut().step_by(3) {
        t.label = None;
    }
    batch
}

/// The documents every tampering is tried on, by kind: logistic, GBT and
/// 2-shard checkpoints whose windows hold labeled and pending slots, and
/// the audit trail of a drifting stream repaired by the ladder.
fn document(kind: usize) -> &'static str {
    static DOCS: std::sync::OnceLock<[String; 4]> = std::sync::OnceLock::new();
    &DOCS.get_or_init(|| {
        let reference = stream_spec(u64::MAX).reference(300, 5);
        let engine_checkpoint = |learner| {
            let mut engine =
                StreamEngine::from_reference(&reference, learner, 5, small_config(false)).unwrap();
            let mut stream = DriftStream::new(stream_spec(u64::MAX), 7);
            engine.ingest(&tuples(&mut stream, 96)).unwrap();
            engine.checkpoint().unwrap().to_json()
        };
        let mut sharded = ShardedEngine::from_reference(
            &reference,
            LearnerKind::Logistic,
            5,
            small_config(false),
            2,
        )
        .unwrap();
        let mut stream = DriftStream::new(stream_spec(u64::MAX), 9);
        let batch: Vec<ShardedTuple> = tuples(&mut stream, 192)
            .into_iter()
            .enumerate()
            .map(|(i, tuple)| ShardedTuple {
                shard: (i % 2) as u32,
                tuple,
            })
            .collect();
        sharded.ingest(&batch).unwrap();

        let drifting = stream_spec(100).reference(300, 5);
        let mut engine =
            StreamEngine::from_reference(&drifting, LearnerKind::Logistic, 5, small_config(true))
                .unwrap();
        let ring = std::sync::Arc::new(std::sync::Mutex::new(cf_telemetry::RingSink::new(1 << 12)));
        engine.set_sink(ring.clone());
        let mut stream = DriftStream::new(stream_spec(100), 11);
        for round in 0..6 {
            let batch = tuples(&mut stream, 64);
            let first_id = engine.ingest(&batch).unwrap().first_id;
            let late: Vec<LabelFeedback> = (0..64)
                .step_by(6)
                .map(|i| LabelFeedback {
                    id: first_id + i,
                    label: (i % 2) as u8,
                })
                .collect();
            engine.feedback(&late).unwrap();
            if round == 2 {
                engine.checkpoint().unwrap();
            }
        }
        let trail = ring
            .lock()
            .unwrap()
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        [
            engine_checkpoint(LearnerKind::Logistic),
            engine_checkpoint(LearnerKind::Gbt),
            sharded.checkpoint().unwrap().to_json(),
            trail,
        ]
    })[kind]
}

/// Byte spans of every number literal outside a string, each with the
/// key of the field or array it sits in.
fn number_leaves(json: &str) -> Vec<(std::ops::Range<usize>, &str)> {
    let bytes = json.as_bytes();
    let mut leaves = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    let (mut string_start, mut key) = (0, "");
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
                if bytes.get(i + 1) == Some(&b':') {
                    key = &json[string_start..i];
                }
            }
        } else if b == b'"' {
            in_string = true;
            string_start = i + 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                i += 1;
            }
            leaves.push((start..i, key));
            continue;
        }
        i += 1;
    }
    leaves
}

/// Decode a tampered document of kind `doc` the way its reader does; a
/// checkpoint that parses is also restored. Returns whether the parse (or
/// replay) failed with a typed error.
fn decode(doc: usize, text: &str) -> bool {
    let parsed = match doc {
        0 | 1 => EngineCheckpoint::from_json(text).map(|c| {
            let _ = StreamEngine::restore(c);
        }),
        2 => ShardedCheckpoint::from_json(text).map(|c| {
            let _ = ShardedEngine::restore(c);
        }),
        _ => return cf_telemetry::replay(text).is_err(),
    };
    if let Err(e) = &parsed {
        assert!(matches!(
            e,
            StreamError::Checkpoint(_) | StreamError::CheckpointVersion { .. }
        ));
    }
    parsed.is_err()
}

/// Every numeric leaf of every document, set to `null`, to an overflowing
/// literal and to `-1`: nothing panics, and the first two always fail
/// typed, except `null` for an `Option` field.
#[test]
fn every_numeric_leaf_tampered_decodes_or_fails_typed() {
    for doc in 0..4 {
        let json = document(doc);
        assert!(!decode(doc, json), "document {doc} must decode untampered");
        let leaves = number_leaves(json);
        assert!(
            leaves.len() > 100,
            "document {doc} has {} leaves",
            leaves.len()
        );
        for (span, key) in leaves {
            for replacement in ["null", "1e400", "-1"] {
                let text = format!("{}{replacement}{}", &json[..span.start], &json[span.end..]);
                let failed = std::panic::catch_unwind(|| decode(doc, &text)).unwrap_or_else(|_| {
                    panic!(
                        "document {doc}: `{key}` at byte {} set to {replacement} panicked",
                        span.start
                    )
                });
                let optional = replacement == "null" && OPTIONAL_KEYS.contains(&key);
                if replacement != "-1" && !optional {
                    assert!(
                        failed,
                        "document {doc}: `{key}` at byte {} set to {replacement} decoded",
                        span.start
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A truncated document or one with a single byte overwritten decodes
    /// or fails typed; it never panics.
    #[test]
    fn truncated_or_flipped_documents_never_panic(
        doc in 0usize..4,
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let json = document(doc);
        let mut cut = (cut * json.len() as f64) as usize;
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = std::panic::catch_unwind(|| decode(doc, &json[..cut]));
        prop_assert!(truncated.is_ok(), "document {} truncated at {} panicked", doc, cut);

        let mut bytes = json.as_bytes().to_vec();
        let at = (at * bytes.len() as f64) as usize;
        bytes[at] = byte as u8;
        let flipped = String::from_utf8_lossy(&bytes);
        let outcome = std::panic::catch_unwind(|| decode(doc, &flipped));
        prop_assert!(outcome.is_ok(), "document {} with byte {} set to {} panicked", doc, at, byte);
    }
}
