//! The two-plane sliding window: a decision ring over scored tuples, a
//! label ring over joined `(decision, label)` outcome pairs, and a bounded
//! pending-join index bridging them — all with O(1) windowed counters.
//!
//! Real serving receives ground truth late or never, so the window splits
//! the fairness state into two planes:
//!
//! * **Decision plane** — everything observable the moment a tuple is
//!   served: the tuple's features, group, decision, and conformance
//!   verdict. It lives in the fixed-capacity decision ring and backs the
//!   selection-rate metrics (DI/DP) and the Page–Hinkley violation series.
//! * **Label plane** — everything that needs ground truth: TPR/FPR and the
//!   equal-opportunity gap. It lives in the label ring, which holds the
//!   most recent `capacity` *joined* `(group, decision, label)` pairs — a
//!   pair joins when its label arrives, either at ingest (a labeled tuple)
//!   or later through [`SlidingWindow::feedback`].
//!
//! Labels may outlive their tuple's stay in the decision ring: a slot
//! evicted while still unlabeled moves its join key into the bounded
//! **pending-join index**, so late feedback still lands in the label plane.
//! The index evicts its oldest entry when full and counts what it dropped
//! ([`JoinStats::pending_evicted`]) — labels for dropped entries can never
//! join and are counted as [`JoinStats::unmatched`].
//!
//! Every fairness monitor in this crate reads the per-cell
//! [`WindowCounters`] (the `cf-telemetry` type the audit trail records as
//! is), which the two rings maintain incrementally: one increment for an
//! arriving entry, one decrement for an evicted one. No monitor ever scans
//! a ring — that is the invariant that keeps per-tuple ingestion O(1)
//! (property-checked in this module's tests and load-tested by the
//! `stream_ingest` benchmark). Joins are O(log n): an id lookup is a
//! binary search over the decision ring or over the pending index, and an
//! id outside a structure's id range skips its search altogether.
//!
//! Both structures hold ids in strictly increasing order, because the
//! decision ring evicts slots in id order. So the [`PendingIndex`] is a
//! ring too: evictions append at the back, a join marks its entry dead
//! (a tombstone) and pops dead entries off the front, the bound evicts
//! the oldest *live* entry, and the ring compacts once its tombstones
//! outnumber its live entries.
//!
//! Features live in **one ring arena** with stride `dim` — slot `i`'s
//! vector is `arena[i*dim..(i+1)*dim]` — so pushing a tuple copies `dim`
//! floats into place instead of boxing a fresh heap allocation per tuple.
//! Once the ring has wrapped, `push` never allocates again.
//!
//! In the engine split, the window belongs to the [`Monitor`] half: it is
//! plain owned data (no handles, no interior mutability), which is what
//! lets a monitor move to the async engine's background thread — and be
//! cloned for quiescent-point checkpoints — without any synchronisation
//! here.
//!
//! [`Monitor`]: crate::Monitor

use crate::{Result, StreamError};
use cf_telemetry::WindowCounters;
use std::collections::VecDeque;

/// The per-tuple metadata retained in the decision ring (the feature
/// vector lives in the window's arena, not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SlotMeta {
    /// The tuple's stream id (its position in ingestion order) — the join
    /// key label feedback addresses.
    pub id: u64,
    /// Group cell id, `0..K` (the classic binary layout is 0 = majority
    /// `W`, 1 = minority `U`).
    pub group: u8,
    /// Ground truth, if it has arrived — at ingest for a labeled tuple, or
    /// later through a feedback join. `None` while the label is pending.
    pub label: Option<u8>,
    /// The served decision `ŷ`.
    pub decision: u8,
    /// Whether the tuple violated its (group, decision) reference
    /// constraints (decision plane: computable before any label arrives).
    pub violated: bool,
}

/// One joined outcome pair in the label ring: the ground truth that
/// arrived for a served decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LabelSlot {
    /// Group id of the joined tuple.
    pub group: u8,
    /// The served decision `ŷ`.
    pub decision: u8,
    /// The joined ground-truth label.
    pub label: u8,
}

/// A decision awaiting its label after eviction from the decision ring —
/// one entry of the pending-join index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PendingLabel {
    /// The tuple's stream id (the join key).
    pub id: u64,
    /// Group id of the evicted tuple.
    pub group: u8,
    /// The served decision `ŷ`.
    pub decision: u8,
}

/// One physical entry of the [`PendingIndex`] ring; `live` is false once
/// the entry has joined (a tombstone).
#[derive(Debug, Clone, Copy)]
struct PendingSlot {
    id: u64,
    group: u8,
    decision: u8,
    live: bool,
}

/// The bounded pending-join index: decisions evicted from the decision
/// ring before their label arrived, in strictly increasing id order.
///
/// Entries arrive in id order, so the index is an append-at-back ring
/// searched by binary search. A join marks its entry dead rather than
/// moving the entries after it; dead entries are popped as soon as they
/// reach the front, so the front entry is always live, and the ring
/// compacts once its tombstones outnumber its live entries, so it never
/// holds more than twice its live count (nor, therefore, twice its
/// bound). At the bound, inserting evicts the oldest live entry.
#[derive(Debug, Clone)]
pub struct PendingIndex {
    ring: VecDeque<PendingSlot>,
    live: usize,
    capacity: usize,
}

impl PendingIndex {
    /// An empty index holding at most `capacity` live entries.
    pub fn new(capacity: usize) -> Self {
        PendingIndex {
            ring: VecDeque::new(),
            live: 0,
            capacity,
        }
    }

    /// The bound on live entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries: decisions still awaiting their labels.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no decision is awaiting its label.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Park one decision, evicting the oldest live entry first when the
    /// bound is reached. Returns how many live entries the insert dropped:
    /// 0 or 1, where a zero-capacity index drops the new entry itself.
    ///
    /// # Panics
    /// Panics if `entry.id` is not greater than the newest id still in the
    /// ring: entries must arrive in id order.
    pub fn insert(&mut self, entry: PendingLabel) -> u64 {
        if self.capacity == 0 {
            return 1;
        }
        if let Some(back) = self.ring.back() {
            assert!(
                entry.id > back.id,
                "pending id {} is not newer than {}",
                entry.id,
                back.id
            );
        }
        let mut evicted = 0;
        while self.live >= self.capacity {
            // The front entry is live, so this drops the oldest live one.
            self.ring.pop_front();
            self.live -= 1;
            evicted += 1;
            self.pop_dead_front();
        }
        self.ring.push_back(PendingSlot {
            id: entry.id,
            group: entry.group,
            decision: entry.decision,
            live: true,
        });
        self.live += 1;
        evicted
    }

    /// Remove and return the live entry for `id`. An id that was never
    /// inserted, was evicted, or has already been taken yields `None`.
    pub fn take(&mut self, id: u64) -> Option<PendingLabel> {
        let (front, back) = (self.ring.front()?.id, self.ring.back()?.id);
        if id < front || id > back {
            return None;
        }
        // `id <= back`, so the partition point is inside the ring.
        let pos = self.ring.partition_point(|e| e.id < id);
        let slot = &mut self.ring[pos];
        if slot.id != id || !slot.live {
            return None;
        }
        slot.live = false;
        let taken = PendingLabel {
            id,
            group: slot.group,
            decision: slot.decision,
        };
        self.live -= 1;
        self.pop_dead_front();
        if self.ring.len() > 2 * self.live {
            self.ring.retain(|e| e.live);
        }
        Some(taken)
    }

    /// The live entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = PendingLabel> + '_ {
        self.ring.iter().filter(|e| e.live).map(|e| PendingLabel {
            id: e.id,
            group: e.group,
            decision: e.decision,
        })
    }

    fn pop_dead_front(&mut self) {
        while self.ring.front().is_some_and(|e| !e.live) {
            self.ring.pop_front();
        }
    }
}

/// `offset` steps past ring slot `head`, for `head < capacity` and
/// `offset <= capacity`: one compare instead of a `%` by a run-time
/// divisor.
fn wrap(head: usize, offset: usize, capacity: usize) -> usize {
    let i = head + offset;
    if i >= capacity {
        i - capacity
    } else {
        i
    }
}

/// Fold a decision-ring slot into (`sign = 1`) or out of (`sign = -1`)
/// its cell's counters.
fn apply_decision(c: &mut WindowCounters, slot: &SlotMeta, sign: i64) {
    let add = |c: &mut u64| {
        *c = c.wrapping_add_signed(sign);
    };
    add(&mut c.total);
    if slot.decision == 1 {
        add(&mut c.selected);
    }
    if slot.violated {
        add(&mut c.violations);
    }
}

/// Fold a label-ring pair into (`sign = 1`) or out of (`sign = -1`) its
/// cell's counters.
fn apply_label(c: &mut WindowCounters, pair: &LabelSlot, sign: i64) {
    let add = |c: &mut u64| {
        *c = c.wrapping_add_signed(sign);
    };
    add(&mut c.labeled);
    if pair.label == 1 {
        add(&mut c.label_positive);
        if pair.decision == 1 {
            add(&mut c.true_positive);
        }
    } else if pair.decision == 1 {
        add(&mut c.false_positive);
    }
}

/// How one label-feedback record resolved against the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelJoin {
    /// The tuple was still in the decision ring; its slot is now labeled
    /// and the pair entered the label plane.
    Joined,
    /// The tuple had rotated out of the decision ring but its join key was
    /// retained in the pending index; the pair entered the label plane.
    JoinedLate,
    /// The tuple already had a label (at ingest or from earlier feedback);
    /// the record was ignored.
    Duplicate,
    /// The tuple is unknown: its pending entry was evicted, it was dropped
    /// before monitoring, or the id was never issued here.
    Unmatched,
}

/// Cumulative join/drop observability counters for the label plane. Not
/// part of any checkpoint (like the async engine's
/// [`DropCounters`](crate::DropCounters), they reset to zero on restore).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Labels joined into the label plane (at ingest or via feedback).
    pub joined: u64,
    /// Subset of `joined` that arrived after the tuple left the decision
    /// ring (served from the pending index).
    pub joined_late: u64,
    /// Feedback records for already-labeled tuples, ignored.
    pub duplicates: u64,
    /// Feedback records whose tuple could not be found (evicted from the
    /// pending index, dropped before monitoring, or never issued).
    pub unmatched: u64,
    /// Pending-index entries evicted to respect the configured bound —
    /// their labels, should they ever arrive, will count as `unmatched`.
    pub pending_evicted: u64,
}

/// Human-readable one-liner, e.g.
/// `joined=1820 late=301 dup=0 unmatched=12 evicted=3`.
impl std::fmt::Display for JoinStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "joined={} late={} dup={} unmatched={} evicted={}",
            self.joined, self.joined_late, self.duplicates, self.unmatched, self.pending_evicted
        )
    }
}

/// The two-plane sliding window: a decision-metadata ring plus a
/// stride-`dim` feature arena, a label ring of joined outcome pairs, and
/// the bounded pending-join index — with per-cell counters over both
/// planes. The group dimension K is a runtime parameter: the counter
/// bank is K-length, and `push` rejects `group >= K` with a typed
/// [`StreamError::BadGroup`].
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    meta: Vec<SlotMeta>,
    arena: Vec<f64>,
    dim: usize,
    capacity: usize,
    head: usize,
    len: usize,
    /// Label ring: the most recent `capacity` joined pairs.
    labels: Vec<LabelSlot>,
    label_head: usize,
    label_len: usize,
    /// Evicted-but-unlabeled decisions awaiting feedback, in id order
    /// (which is eviction order).
    pending: PendingIndex,
    joins: JoinStats,
    /// Group-cell count K (the length of `counts`).
    groups: usize,
    counts: Vec<WindowCounters>,
}

impl SlidingWindow {
    /// A window retaining the most recent `capacity` tuples of `dim`
    /// features each, remembering up to `pending_capacity` evicted
    /// unlabeled decisions for late label joins, with `groups` group
    /// cells (K ≥ 1; group ids are `u8`, so K ≤ 256).
    pub fn new(
        capacity: usize,
        dim: usize,
        pending_capacity: usize,
        groups: usize,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(StreamError::EmptyWindow);
        }
        if groups == 0 || groups > 256 {
            return Err(StreamError::Schema(format!(
                "the window needs 1..=256 group cells, not {groups}"
            )));
        }
        // Reserved up front, as `with_capacity` would, but a capacity no
        // allocator can serve (say, from a tampered checkpoint) is an
        // error rather than an abort.
        let (mut meta, mut arena) = (Vec::new(), Vec::new());
        meta.try_reserve_exact(capacity)
            .and_then(|()| arena.try_reserve_exact(capacity.saturating_mul(dim)))
            .map_err(|e| {
                StreamError::Schema(format!(
                    "a window of {capacity} slots × {dim} features cannot be allocated: {e}"
                ))
            })?;
        Ok(SlidingWindow {
            meta,
            arena,
            dim,
            capacity,
            head: 0,
            len: 0,
            labels: Vec::new(),
            label_head: 0,
            label_len: 0,
            pending: PendingIndex::new(pending_capacity),
            joins: JoinStats::default(),
            groups,
            counts: vec![WindowCounters::default(); groups],
        })
    }

    /// Insert a scored tuple, evicting the oldest when full. A labeled
    /// tuple joins the label plane immediately; an evicted unlabeled slot
    /// moves its join key into the pending index. O(1) amortised,
    /// allocation-free in the decision and label rings once they have
    /// filled.
    pub fn push(&mut self, meta: SlotMeta, features: &[f64]) -> Result<()> {
        let g = meta.group as usize;
        if g >= self.groups {
            return Err(StreamError::BadGroup(meta.group));
        }
        if let Some(label) = meta.label {
            if label >= 2 {
                return Err(StreamError::BadLabel(label));
            }
        }
        if features.len() != self.dim {
            return Err(StreamError::Schema(format!(
                "tuple has {} features; the window stride is {}",
                features.len(),
                self.dim
            )));
        }
        if let Some(newest) = self.newest_id() {
            if meta.id <= newest {
                return Err(StreamError::Schema(format!(
                    "tuple id {} is not newer than the window's newest id {newest}",
                    meta.id
                )));
            }
        }
        if let Some(label) = meta.label {
            // Immediate join: the at-ingest label is just a feedback that
            // needed no waiting.
            self.push_label(LabelSlot {
                group: meta.group,
                decision: meta.decision,
                label,
            });
            self.joins.joined += 1;
        }
        self.push_decision_only(meta, features)
    }

    /// The decision-ring half of [`SlidingWindow::push`], with no label
    /// side effects — also the checkpoint-replay path, where the label
    /// ring is restored separately.
    fn push_decision_only(&mut self, meta: SlotMeta, features: &[f64]) -> Result<()> {
        let g = meta.group as usize;
        if self.len < self.capacity {
            apply_decision(&mut self.counts[g], &meta, 1);
            self.meta.push(meta);
            self.arena.extend_from_slice(features);
            self.len += 1;
            // head stays 0 until the ring wraps.
            return Ok(());
        }
        let evicted = self.meta[self.head];
        apply_decision(&mut self.counts[evicted.group as usize], &evicted, -1);
        if evicted.label.is_none() {
            self.remember_pending(evicted);
        }
        apply_decision(&mut self.counts[g], &meta, 1);
        self.meta[self.head] = meta;
        self.arena[self.head * self.dim..(self.head + 1) * self.dim].copy_from_slice(features);
        self.head = wrap(self.head, 1, self.capacity);
        Ok(())
    }

    /// Park an evicted unlabeled decision in the pending index, evicting
    /// the oldest live entry (and counting it) when the bound is reached.
    fn remember_pending(&mut self, evicted: SlotMeta) {
        self.joins.pending_evicted += self.pending.insert(PendingLabel {
            id: evicted.id,
            group: evicted.group,
            decision: evicted.decision,
        });
    }

    /// Push one joined pair into the label ring, evicting the oldest pair
    /// when full.
    fn push_label(&mut self, pair: LabelSlot) {
        apply_label(&mut self.counts[pair.group as usize], &pair, 1);
        if self.label_len < self.capacity {
            self.labels.push(pair);
            self.label_len += 1;
            return;
        }
        let evicted = self.labels[self.label_head];
        apply_label(&mut self.counts[evicted.group as usize], &evicted, -1);
        self.labels[self.label_head] = pair;
        self.label_head = wrap(self.label_head, 1, self.capacity);
    }

    /// Join one late label by tuple id: an in-ring slot is labeled in
    /// place, an evicted-but-pending decision is served from the index,
    /// and anything else is counted, never an error — feedback for a
    /// forgotten tuple is an expected operational event.
    ///
    /// Callers validate `label` (binary) and the id's plausibility (ids
    /// never issued are *their* callers' bugs); the window only resolves.
    pub fn feedback(&mut self, id: u64, label: u8) -> LabelJoin {
        if let Some(pos) = self.position_of(id) {
            let slot = &mut self.meta[pos];
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
            self.joins.joined += 1;
            return LabelJoin::Joined;
        }
        if let Some(entry) = self.pending.take(id) {
            self.push_label(LabelSlot {
                group: entry.group,
                decision: entry.decision,
                label,
            });
            self.joins.joined += 1;
            self.joins.joined_late += 1;
            return LabelJoin::JoinedLate;
        }
        // Anything older than the window that is not pending was either
        // evicted from the pending index or dropped before monitoring;
        // ids newer than the window were never observed here (e.g. a
        // record dropped under backpressure). Both resolve as unmatched.
        self.joins.unmatched += 1;
        LabelJoin::Unmatched
    }

    /// Physical index of the slot holding tuple `id`, if it is still in
    /// the decision ring. O(log len): slot ids are strictly increasing in
    /// ring order. An id outside the ring's id range (a late label, most
    /// often) returns at once.
    fn position_of(&self, id: u64) -> Option<usize> {
        if id < self.oldest_id()? || id > self.newest_id()? {
            return None;
        }
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.meta[wrap(self.head, mid, self.capacity)].id < id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // `id <= newest`, so the search ends inside the ring.
        let idx = wrap(self.head, lo, self.capacity);
        (self.meta[idx].id == id).then_some(idx)
    }

    /// The oldest retained tuple's id.
    fn oldest_id(&self) -> Option<u64> {
        (self.len > 0).then(|| self.meta[self.head].id)
    }

    /// The newest retained tuple's id.
    fn newest_id(&self) -> Option<u64> {
        (self.len > 0).then(|| self.meta[wrap(self.head, self.len - 1, self.capacity)].id)
    }

    /// Tuples currently retained in the decision ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the decision ring holds no tuples yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum retained tuples (shared by both rings).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Features per tuple (the arena stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Joined pairs currently retained in the label ring.
    pub fn labeled_len(&self) -> usize {
        self.label_len
    }

    /// Evicted decisions currently awaiting their labels.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The configured bound on the pending-join index.
    pub fn pending_capacity(&self) -> usize {
        self.pending.capacity()
    }

    /// Cumulative join/drop counters (reset on restore, like every
    /// observability counter).
    pub fn join_stats(&self) -> JoinStats {
        self.joins
    }

    /// The group-cell count K this window was built with.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The windowed per-cell counters (K-length, index = group id),
    /// covering both planes.
    pub fn counts(&self) -> &[WindowCounters] {
        &self.counts
    }

    /// Iterate retained tuples as `(meta, features)`, oldest first.
    /// (`head` is 0 until the ring wraps, so the modular walk covers both
    /// the filling and the wrapped regime.)
    pub fn iter(&self) -> impl Iterator<Item = (SlotMeta, &[f64])> {
        (0..self.len).map(move |i| {
            let idx = wrap(self.head, i, self.capacity);
            (
                self.meta[idx],
                &self.arena[idx * self.dim..(idx + 1) * self.dim],
            )
        })
    }

    /// Iterate the label ring's joined pairs, oldest join first.
    pub fn iter_labels(&self) -> impl Iterator<Item = LabelSlot> + '_ {
        (0..self.label_len).map(move |i| self.labels[wrap(self.label_head, i, self.capacity)])
    }

    /// Snapshot the window's logical contents for checkpointing: capacity,
    /// stride, the retained tuples **oldest-first**, the label ring
    /// **oldest-join-first**, and the pending-join index in id order. The
    /// physical ring offsets are not recorded — they are unobservable
    /// (iteration order, eviction order, and counters are all
    /// phase-independent), so [`SlidingWindow::from_state`] repacks the
    /// slots from phase 0.
    pub fn state(&self) -> WindowState {
        let mut meta = Vec::with_capacity(self.len);
        let mut features = Vec::with_capacity(self.len * self.dim);
        for (m, f) in self.iter() {
            meta.push(m);
            features.extend_from_slice(f);
        }
        WindowState {
            capacity: self.capacity,
            dim: self.dim,
            meta,
            features,
            labels: self.iter_labels().collect(),
            pending: self.pending.iter().collect(),
        }
    }

    /// Rebuild a window from a snapshot by replaying its slots, label
    /// pairs, and pending entries through the incremental paths — the
    /// counters are recomputed rather than trusted, so a tampered snapshot
    /// cannot desynchronise them. Join counters restart at zero (they are
    /// observability state, not monitoring state).
    ///
    /// # Errors
    /// Rejects zero capacities, more slots (or joined pairs, or pending
    /// entries) than their bounds, feature buffers that disagree with
    /// `len × dim`, non-finite features (ingest rejects them), non-monotonic
    /// ids, slots, label pairs or pending entries with out-of-range groups
    /// (`>= groups`) or non-binary labels or decisions, and pending entries
    /// that overlap the decision ring — a corrupted checkpoint fails
    /// loudly, it never half-loads.
    pub fn from_state(state: &WindowState, pending_capacity: usize, groups: usize) -> Result<Self> {
        if state.meta.len() > state.capacity {
            return Err(StreamError::Checkpoint(format!(
                "window snapshot holds {} slots but capacity is {}",
                state.meta.len(),
                state.capacity
            )));
        }
        if state.features.len() != state.meta.len() * state.dim {
            return Err(StreamError::Checkpoint(format!(
                "window snapshot has {} feature values for {} slots of stride {}",
                state.features.len(),
                state.meta.len(),
                state.dim
            )));
        }
        if let Some(at) = state.features.iter().position(|v| !v.is_finite()) {
            return Err(StreamError::Checkpoint(format!(
                "window snapshot feature {} of slot {} is not finite",
                at % state.dim,
                at / state.dim
            )));
        }
        if state.labels.len() > state.capacity {
            return Err(StreamError::Checkpoint(format!(
                "label ring snapshot holds {} pairs but capacity is {}",
                state.labels.len(),
                state.capacity
            )));
        }
        if state.pending.len() > pending_capacity {
            return Err(StreamError::Checkpoint(format!(
                "pending-join snapshot holds {} entries but the bound is {pending_capacity}",
                state.pending.len()
            )));
        }
        let mut window = SlidingWindow::new(state.capacity, state.dim, pending_capacity, groups)?;
        let mut last_id: Option<u64> = None;
        for (i, meta) in state.meta.iter().enumerate() {
            // The replay bypasses `push` (the label ring restores
            // separately below — a slot labeled via late feedback has no
            // label-ring pairing with its own push, so the pairing cannot
            // be re-derived), so it must repeat push's validation: an
            // in-range group, a binary label and decision, and strictly
            // increasing ids (the invariant the feedback binary search
            // relies on).
            if meta.group as usize >= groups {
                return Err(StreamError::BadGroup(meta.group));
            }
            if let Some(label) = meta.label {
                if label >= 2 {
                    return Err(StreamError::BadLabel(label));
                }
            }
            if meta.decision >= 2 {
                return Err(StreamError::Checkpoint(format!(
                    "window slot {} has non-binary decision {}",
                    meta.id, meta.decision
                )));
            }
            if last_id.is_some_and(|p| meta.id <= p) {
                return Err(StreamError::Checkpoint(format!(
                    "window slot ids must be strictly increasing (id {} follows {})",
                    meta.id,
                    last_id.expect("checked")
                )));
            }
            last_id = Some(meta.id);
            window
                .push_decision_only(*meta, &state.features[i * state.dim..(i + 1) * state.dim])?;
        }
        for pair in &state.labels {
            if pair.group as usize >= groups {
                return Err(StreamError::BadGroup(pair.group));
            }
            if pair.label >= 2 {
                return Err(StreamError::BadLabel(pair.label));
            }
            if pair.decision >= 2 {
                return Err(StreamError::Checkpoint(format!(
                    "label pair has non-binary decision {}",
                    pair.decision
                )));
            }
            window.push_label(*pair);
        }
        let oldest = window.oldest_id();
        let mut last_pending: Option<u64> = None;
        for entry in &state.pending {
            if entry.group as usize >= groups {
                return Err(StreamError::BadGroup(entry.group));
            }
            if entry.decision >= 2 {
                return Err(StreamError::Checkpoint(format!(
                    "pending entry {} has non-binary decision {}",
                    entry.id, entry.decision
                )));
            }
            if last_pending.is_some_and(|p| entry.id <= p) {
                return Err(StreamError::Checkpoint(
                    "pending-join ids must be strictly increasing".into(),
                ));
            }
            if oldest.is_some_and(|o| entry.id >= o) {
                return Err(StreamError::Checkpoint(format!(
                    "pending entry {} overlaps the decision ring (oldest retained id {})",
                    entry.id,
                    oldest.expect("checked")
                )));
            }
            last_pending = Some(entry.id);
            // Within the bound (checked above), so nothing is evicted.
            window.pending.insert(*entry);
        }
        // Replays are restores, not live joins: counters restart at zero.
        window.joins = JoinStats::default();
        Ok(window)
    }
}

/// The serialisable logical contents of a [`SlidingWindow`] (see
/// [`SlidingWindow::state`]). Feature values are stored flat, stride
/// `dim`, oldest slot first.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowState {
    /// Maximum retained tuples (shared by both rings).
    pub capacity: usize,
    /// Features per tuple.
    pub dim: usize,
    /// Retained slot metadata, oldest first.
    pub meta: Vec<SlotMeta>,
    /// Flat feature buffer (`meta.len() × dim` values), oldest slot first.
    pub features: Vec<f64>,
    /// The label ring's joined pairs, oldest join first.
    pub labels: Vec<LabelSlot>,
    /// The pending-join index, in ascending id order.
    pub pending: Vec<PendingLabel>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(id: u64, group: u8, label: Option<u8>, decision: u8, violated: bool) -> SlotMeta {
        SlotMeta {
            id,
            group,
            label,
            decision,
            violated,
        }
    }

    /// Recompute the counters by scanning both rings — the O(n) ground
    /// truth the O(1) incremental path must match.
    fn brute_counts(w: &SlidingWindow) -> Vec<WindowCounters> {
        let mut counts = vec![WindowCounters::default(); w.groups()];
        for (m, _) in w.iter() {
            apply_decision(&mut counts[m.group as usize], &m, 1);
        }
        for pair in w.iter_labels() {
            apply_label(&mut counts[pair.group as usize], &pair, 1);
        }
        counts
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(matches!(
            SlidingWindow::new(0, 2, 8, 2),
            Err(StreamError::EmptyWindow)
        ));
    }

    #[test]
    fn bad_group_and_label_are_rejected() {
        let mut w = SlidingWindow::new(4, 2, 8, 2).unwrap();
        assert!(matches!(
            w.push(slot(0, 2, None, 0, false), &[0.0, 0.0]),
            Err(StreamError::BadGroup(2))
        ));
        assert!(matches!(
            w.push(slot(0, 0, Some(9), 0, false), &[0.0, 0.0]),
            Err(StreamError::BadLabel(9))
        ));
    }

    #[test]
    fn wrong_stride_is_rejected() {
        let mut w = SlidingWindow::new(4, 2, 8, 2).unwrap();
        assert!(matches!(
            w.push(slot(0, 0, None, 0, false), &[1.0, 2.0, 3.0]),
            Err(StreamError::Schema(_))
        ));
        assert!(w.is_empty());
    }

    #[test]
    fn non_monotonic_ids_are_rejected() {
        let mut w = SlidingWindow::new(4, 1, 8, 2).unwrap();
        w.push(slot(5, 0, None, 0, false), &[0.0]).unwrap();
        assert!(matches!(
            w.push(slot(5, 0, None, 0, false), &[0.0]),
            Err(StreamError::Schema(_))
        ));
        assert!(matches!(
            w.push(slot(3, 0, None, 0, false), &[0.0]),
            Err(StreamError::Schema(_))
        ));
        // Gaps are fine (records dropped under backpressure skip ids).
        w.push(slot(9, 0, None, 0, false), &[0.0]).unwrap();
    }

    #[test]
    fn counters_match_brute_force_through_wraparound() {
        let mut w = SlidingWindow::new(7, 2, 16, 2).unwrap();
        for i in 0..50u32 {
            let g = (i % 3 == 0) as u8;
            let y = (i % 2) as u8;
            let d = (i % 5 < 3) as u8;
            let v = i % 4 == 1;
            // Mixed regime: every third tuple arrives unlabeled.
            let label = (i % 3 != 2).then_some(y);
            w.push(
                slot(u64::from(i), g, label, d, v),
                &[f64::from(i), f64::from(g)],
            )
            .unwrap();
            assert_eq!(w.counts(), &brute_counts(&w)[..], "after push {i}");
            assert_eq!(w.len(), (i as usize + 1).min(7));
        }
        // Join some of the outstanding labels, late and in-window alike.
        for id in [2u64, 5, 44, 47] {
            w.feedback(id, 1);
            assert_eq!(w.counts(), &brute_counts(&w)[..], "after feedback {id}");
        }
    }

    #[test]
    fn eviction_is_fifo_and_arena_tracks_features() {
        let mut w = SlidingWindow::new(3, 1, 8, 2).unwrap();
        for i in 0..5u8 {
            w.push(slot(u64::from(i), 0, Some(0), 0, false), &[f64::from(i)])
                .unwrap();
        }
        let order: Vec<f64> = w.iter().map(|(_, f)| f[0]).collect();
        assert_eq!(order, vec![2.0, 3.0, 4.0]);
        // The arena never grows past capacity * dim.
        assert_eq!(w.arena.len(), 3);
        // Labeled slots leave nothing pending.
        assert_eq!(w.pending_len(), 0);
    }

    #[test]
    fn zero_dim_windows_iterate_empty_feature_slices() {
        // A degenerate schema with no attributes still counts correctly.
        let mut w = SlidingWindow::new(2, 0, 8, 2).unwrap();
        w.push(slot(0, 0, Some(1), 1, false), &[]).unwrap();
        w.push(slot(1, 1, Some(0), 0, true), &[]).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.counts()[0].selected, 1);
        assert_eq!(w.counts()[1].violations, 1);
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = WindowCounters {
            total: 5,
            selected: 3,
            violations: 4,
            labeled: 3,
            label_positive: 2,
            true_positive: 1,
            false_positive: 2,
        };
        let b = WindowCounters {
            total: 7,
            selected: 1,
            violations: 2,
            labeled: 6,
            label_positive: 6,
            true_positive: 1,
            false_positive: 0,
        };
        a.merge(&b);
        assert_eq!(a.total, 12);
        assert_eq!(a.selected, 4);
        assert_eq!(a.violations, 6);
        assert_eq!(a.labeled, 9);
        assert_eq!(a.label_positive, 8);
        assert_eq!(a.true_positive, 2);
        assert_eq!(a.false_positive, 2);
    }

    #[test]
    fn rates_handle_empty_denominators() {
        let c = WindowCounters::default();
        assert_eq!(c.selection_rate(), None);
        assert_eq!(c.tpr(), None);
        assert_eq!(c.fpr(), None);
        assert_eq!(c.violation_rate(), None);

        let mut w = SlidingWindow::new(4, 1, 8, 2).unwrap();
        w.push(slot(0, 0, None, 1, true), &[0.0]).unwrap();
        let c = w.counts()[0];
        assert_eq!(c.selection_rate(), Some(1.0));
        assert_eq!(c.tpr(), None, "no labels joined yet");
        assert_eq!(c.fpr(), None, "no labels joined yet");
        assert_eq!(c.violation_rate(), Some(1.0));

        // The join flips the label plane on without touching decisions.
        assert_eq!(w.feedback(0, 0), LabelJoin::Joined);
        let c = w.counts()[0];
        assert_eq!(c.tpr(), None, "still no positive labels");
        assert_eq!(c.fpr(), Some(1.0));
        assert_eq!(c.selection_rate(), Some(1.0));

        // Counters read from an untrusted trail may be inconsistent; more
        // positives than joined pairs has no FPR rather than a panic.
        let corrupt = WindowCounters {
            labeled: 1,
            label_positive: 2,
            ..WindowCounters::default()
        };
        assert_eq!(corrupt.fpr(), None);
    }

    #[test]
    fn feedback_joins_late_through_the_pending_index() {
        let mut w = SlidingWindow::new(2, 1, 2, 2).unwrap();
        for i in 0..4u64 {
            w.push(slot(i, (i % 2) as u8, None, 1, false), &[0.0])
                .unwrap();
        }
        // Ids 0 and 1 rotated out unlabeled; both are pending.
        assert_eq!(w.pending_len(), 2);
        assert_eq!(w.feedback(0, 1), LabelJoin::JoinedLate);
        assert_eq!(w.feedback(1, 0), LabelJoin::JoinedLate);
        assert_eq!(w.pending_len(), 0);
        assert_eq!(w.counts()[0].tpr(), Some(1.0));
        assert_eq!(w.counts()[1].fpr(), Some(1.0));
        // In-window joins still work alongside.
        assert_eq!(w.feedback(3, 1), LabelJoin::Joined);
        assert_eq!(w.feedback(3, 1), LabelJoin::Duplicate);
        assert_eq!(w.feedback(100, 1), LabelJoin::Unmatched);
        let stats = w.join_stats();
        assert_eq!(stats.joined, 3);
        assert_eq!(stats.joined_late, 2);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.unmatched, 1);
    }

    #[test]
    fn pending_index_is_bounded_and_counts_evictions() {
        let mut w = SlidingWindow::new(1, 1, 2, 2).unwrap();
        for i in 0..5u64 {
            w.push(slot(i, 0, None, 1, false), &[0.0]).unwrap();
        }
        // Ids 0..=3 were evicted unlabeled; the bound keeps only 2 and 3.
        assert_eq!(w.pending_len(), 2);
        assert_eq!(w.join_stats().pending_evicted, 2);
        assert_eq!(w.feedback(0, 1), LabelJoin::Unmatched);
        assert_eq!(w.feedback(2, 1), LabelJoin::JoinedLate);

        // A zero-capacity index drops every unlabeled eviction.
        let mut w = SlidingWindow::new(1, 1, 0, 2).unwrap();
        w.push(slot(0, 0, None, 1, false), &[0.0]).unwrap();
        w.push(slot(1, 0, None, 1, false), &[0.0]).unwrap();
        assert_eq!(w.pending_len(), 0);
        assert_eq!(w.join_stats().pending_evicted, 1);
    }

    #[test]
    fn pending_ring_evicts_live_entries_and_bounds_its_tombstones() {
        let mut index = PendingIndex::new(4);
        let entry = |id| PendingLabel {
            id,
            group: 0,
            decision: 1,
        };
        for id in 0..4 {
            assert_eq!(index.insert(entry(id)), 0);
        }
        // A join in the middle leaves a tombstone; a second label for the
        // same id finds nothing, as do ids outside the ring's range.
        assert_eq!(index.take(2), Some(entry(2)));
        assert_eq!(index.take(2), None);
        assert_eq!(index.take(9), None);
        assert_eq!((index.len(), index.ring.len()), (3, 4));
        // At the bound the oldest *live* entry goes, and only it counts.
        assert_eq!(index.insert(entry(4)), 0);
        assert_eq!(index.insert(entry(5)), 1);
        assert_eq!(index.take(0), None, "evicted");
        // Joining the front pops it together with the tombstone behind it.
        assert_eq!(index.take(1), Some(entry(1)));
        assert_eq!(index.ring.front().map(|e| e.id), Some(3));
        let ids: Vec<u64> = index.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);

        // Interior joins compact the ring before tombstones outnumber the
        // live entries.
        let mut index = PendingIndex::new(1_000);
        for id in 0..1_000 {
            index.insert(entry(id));
        }
        for id in 1..1_000 {
            assert_eq!(index.take(id), Some(entry(id)));
            assert!(index.ring.len() <= 2 * index.len(), "after joining {id}");
        }
        // Entry 0 and the last tombstone: two is not more than 2 × 1.
        assert_eq!((index.len(), index.ring.len()), (1, 2));
    }

    #[test]
    fn label_ring_outlives_decision_eviction() {
        // A joined pair stays in the label plane even after its tuple
        // leaves the decision ring.
        let mut w = SlidingWindow::new(2, 1, 4, 2).unwrap();
        w.push(slot(0, 1, Some(1), 1, false), &[0.0]).unwrap();
        w.push(slot(1, 0, None, 0, false), &[0.0]).unwrap();
        w.push(slot(2, 0, None, 0, false), &[0.0]).unwrap();
        assert_eq!(w.counts()[1].total, 0, "tuple 0 left the decision ring");
        assert_eq!(w.counts()[1].tpr(), Some(1.0), "its joined pair remains");
    }

    #[test]
    fn state_round_trips_both_planes_and_pending() {
        let mut w = SlidingWindow::new(3, 1, 4, 2).unwrap();
        for i in 0..6u64 {
            let label = (i % 2 == 0).then_some((i % 4 == 0) as u8);
            w.push(slot(i, (i % 2) as u8, label, 1, i % 3 == 0), &[i as f64])
                .unwrap();
        }
        w.feedback(1, 1); // pending by now → late join
        let state = w.state();
        let restored = SlidingWindow::from_state(&state, 4, 2).unwrap();
        assert_eq!(restored.counts(), w.counts());
        assert_eq!(restored.pending_len(), w.pending_len());
        assert_eq!(restored.labeled_len(), w.labeled_len());
        assert_eq!(restored.state(), state, "restate is a fixed point");
        // Counters reset on restore; behaviour does not.
        assert_eq!(restored.join_stats(), JoinStats::default());
    }

    #[test]
    fn corrupted_states_are_rejected() {
        let mut w = SlidingWindow::new(3, 1, 4, 2).unwrap();
        for i in 0..5u64 {
            w.push(slot(i, 0, None, 1, false), &[i as f64]).unwrap();
        }
        let good = w.state();

        let mut overlap = good.clone();
        overlap.pending[0].id = overlap.meta[0].id; // collides with the ring
        assert!(matches!(
            SlidingWindow::from_state(&overlap, 4, 2),
            Err(StreamError::Checkpoint(_))
        ));

        let mut too_many = good.clone();
        too_many.pending.push(PendingLabel {
            id: 1_000,
            group: 0,
            decision: 0,
        });
        assert!(SlidingWindow::from_state(&too_many, 2, 2).is_err());

        let mut bad_pair = good.clone();
        bad_pair.labels.push(LabelSlot {
            group: 0,
            decision: 1,
            label: 7,
        });
        assert!(matches!(
            SlidingWindow::from_state(&bad_pair, 4, 2),
            Err(StreamError::BadLabel(7))
        ));

        let mut unsorted = good.clone();
        unsorted.pending.reverse();
        assert!(SlidingWindow::from_state(&unsorted, 4, 2).is_err());

        // Replay repeats push's validation: a non-binary slot group is a
        // typed error (not an out-of-bounds panic), and non-monotonic
        // slot ids — which would break the feedback binary search — are
        // rejected loudly.
        let mut bad_group = good.clone();
        bad_group.meta[1].group = 5;
        assert!(matches!(
            SlidingWindow::from_state(&bad_group, 4, 2),
            Err(StreamError::BadGroup(5))
        ));

        let mut unsorted_ids = good.clone();
        unsorted_ids.meta.swap(0, 1);
        assert!(matches!(
            SlidingWindow::from_state(&unsorted_ids, 4, 2),
            Err(StreamError::Checkpoint(_))
        ));

        let mut duplicate_ids = good;
        duplicate_ids.meta[1].id = duplicate_ids.meta[0].id;
        assert!(matches!(
            SlidingWindow::from_state(&duplicate_ids, 4, 2),
            Err(StreamError::Checkpoint(_))
        ));
    }
}
