//! Property tests for the sliding window's label plane: random push,
//! late-feedback, duplicate, future-id, capacity-eviction and
//! checkpoint-restore sequences through [`SlidingWindow`] and through a
//! naive oracle — a `VecDeque` decision ring searched linearly, a
//! `VecDeque` label ring, a `BTreeMap` pending index and counters
//! recomputed from scratch — which must agree after every step.

use cf_stream::{
    JoinStats, LabelJoin, LabelSlot, PendingIndex, PendingLabel, SlidingWindow, SlotMeta,
    StreamError, WindowCounters, WindowState,
};
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
