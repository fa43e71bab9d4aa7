//! The typed audit-event model.
//!
//! Every observable state change in a stream engine — a served batch, a
//! drift alert, a repair attempt, a model swap, a checkpoint, a label
//! join, a backpressure drop — is one [`TelemetryEvent`]. Events that
//! advance the fairness window carry the **per-cell counter deltas**
//! ([`CounterDelta`], one per group cell) alongside the resulting
//! [`SnapshotData`], which is what makes the audit trail *replayable*:
//! accumulating the deltas and re-deriving each snapshot through
//! [`SnapshotData::from_counters`] reproduces the live run's readings
//! exactly (see [`crate::replay()`]). Alert events additionally carry an
//! [`AlertExplanation`] naming the cell that moved — per the FEAMOE /
//! subgroup-drift observation that "an alert fired" is not auditable
//! evidence; *which distribution moved, and by how much*, is.
//!
//! This crate deliberately owns the snapshot arithmetic and the types it
//! reads: `cf-stream`'s window keeps its tallies in [`WindowCounters`],
//! its detectors raise [`DriftAlert`]s, and its
//! `FairnessSnapshot::from_counts` delegates to
//! [`SnapshotData::from_counters`]. A replayed snapshot and a live one
//! are therefore computed by the *same* code path from the *same* type,
//! and byte-identical serialisation is a structural guarantee, not a
//! test-enforced coincidence.

use serde::{Deserialize, Error, Serialize, SerializeFields, Value, Writer};

/// Windowed tallies for one group cell across both planes of the stream
/// window, each maintained in O(1) per event. The stream engines keep
/// their window in this type and the audit trail records it as is, so a
/// live reading and a replayed one start from the same counters.
///
/// Decision-plane fields (`total`, `selected`, `violations`) advance as
/// tuples are served; label-plane fields (`labeled`, `label_positive`,
/// `true_positive`, `false_positive`) advance only as ground truth joins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowCounters {
    /// Tuples of this group currently in the decision ring.
    pub total: u64,
    /// Tuples with decision 1 (selected).
    pub selected: u64,
    /// Tuples violating their reference conformance constraints.
    pub violations: u64,
    /// Joined `(decision, label)` pairs currently in the label ring.
    pub labeled: u64,
    /// Label-positive pairs among `labeled`.
    pub label_positive: u64,
    /// Selected among label-positive pairs (windowed true positives).
    pub true_positive: u64,
    /// Selected among label-negative pairs (windowed false positives).
    pub false_positive: u64,
}

/// Signed change of one group cell's [`WindowCounters`] across an event
/// (evictions from a full window make deltas genuinely negative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterDelta {
    /// Change in `total`.
    pub total: i64,
    /// Change in `selected`.
    pub selected: i64,
    /// Change in `violations`.
    pub violations: i64,
    /// Change in `labeled`.
    pub labeled: i64,
    /// Change in `label_positive`.
    pub label_positive: i64,
    /// Change in `true_positive`.
    pub true_positive: i64,
    /// Change in `false_positive`.
    pub false_positive: i64,
}

impl CounterDelta {
    /// Whether every field is zero (the event left this cell untouched).
    pub fn is_zero(&self) -> bool {
        *self == CounterDelta::default()
    }
}

impl WindowCounters {
    /// The signed per-field change from `earlier` to `self`.
    pub fn delta_from(&self, earlier: &WindowCounters) -> CounterDelta {
        let d = |a: u64, b: u64| a.wrapping_sub(b) as i64;
        CounterDelta {
            total: d(self.total, earlier.total),
            selected: d(self.selected, earlier.selected),
            violations: d(self.violations, earlier.violations),
            labeled: d(self.labeled, earlier.labeled),
            label_positive: d(self.label_positive, earlier.label_positive),
            true_positive: d(self.true_positive, earlier.true_positive),
            false_positive: d(self.false_positive, earlier.false_positive),
        }
    }

    /// Apply a signed delta; `None` if any counter would go negative
    /// (a corrupt or truncated audit log).
    pub fn apply(&self, delta: &CounterDelta) -> Option<WindowCounters> {
        Some(WindowCounters {
            total: self.total.checked_add_signed(delta.total)?,
            selected: self.selected.checked_add_signed(delta.selected)?,
            violations: self.violations.checked_add_signed(delta.violations)?,
            labeled: self.labeled.checked_add_signed(delta.labeled)?,
            label_positive: self
                .label_positive
                .checked_add_signed(delta.label_positive)?,
            true_positive: self.true_positive.checked_add_signed(delta.true_positive)?,
            false_positive: self
                .false_positive
                .checked_add_signed(delta.false_positive)?,
        })
    }

    /// Fold another cell's tallies into this one. Every counter is
    /// additive, which is what makes cross-shard and marginal merging
    /// exact.
    pub fn merge(&mut self, other: &WindowCounters) {
        self.total += other.total;
        self.selected += other.selected;
        self.violations += other.violations;
        self.labeled += other.labeled;
        self.label_positive += other.label_positive;
        self.true_positive += other.true_positive;
        self.false_positive += other.false_positive;
    }

    /// Windowed selection rate `P(ŷ=1 | g)` (decision plane).
    pub fn selection_rate(&self) -> Option<f64> {
        (self.total > 0).then(|| self.selected as f64 / self.total as f64)
    }

    /// Windowed conformance-violation rate (decision plane).
    pub fn violation_rate(&self) -> Option<f64> {
        (self.total > 0).then(|| self.violations as f64 / self.total as f64)
    }

    /// Windowed true-positive rate `P(ŷ=1 | y=1, g)` over joined pairs.
    /// `None` until at least one positive label has joined — a cell with
    /// decisions but no ground truth yet has no TPR, not a TPR of 0.
    pub fn tpr(&self) -> Option<f64> {
        (self.label_positive > 0).then(|| self.true_positive as f64 / self.label_positive as f64)
    }

    /// Windowed false-positive rate `P(ŷ=1 | y=0, g)` over joined pairs.
    /// `None` until at least one negative label has joined, and for
    /// inconsistent counters (more positives than joined pairs, as a
    /// corrupt trail can carry).
    pub fn fpr(&self) -> Option<f64> {
        let negatives = self.labeled.checked_sub(self.label_positive)?;
        (negatives > 0).then(|| self.false_positive as f64 / negatives as f64)
    }
}

/// A point-in-time fairness reading derived from K group cells — the
/// serialisable twin of `cf-stream`'s `FairnessSnapshot`, and the single
/// home of its arithmetic. Cell-indexed fields are K-length, indexed by
/// group id (the classic binary layout is `[majority, minority]`);
/// `None` marks an empty denominator, never a fabricated 0. The scalar
/// fairness readings are **worst-pair** statistics: the ordered cell
/// pair whose symmetrised disparate impact is smallest, which at K=2
/// degenerates to exactly the binary formulas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotData {
    /// Tuples in the window when the snapshot was taken.
    pub window_len: u64,
    /// Windowed selection rate per cell.
    pub selection_rate: Vec<Option<f64>>,
    /// Raw disparate impact `SR_j / SR_i` of the worst ordered pair
    /// `(i, j)`, `i < j` (∞ when `SR_i = 0`, `SR_j > 0`). At K=2 this is
    /// the classic `SR_U / SR_W`.
    pub disparate_impact: Option<f64>,
    /// Worst-pair symmetrised `DI* = min(DI, 1/DI)` — 1.0 is perfectly
    /// fair; the EEOC floor applies to this reading.
    pub di_star: Option<f64>,
    /// Largest selection-rate gap over defined cells,
    /// `max_i SR_i − min_i SR_i` (at K=2: `|SR_W − SR_U|`).
    pub demographic_parity_gap: Option<f64>,
    /// Largest TPR gap over cells with joined positive labels (equal
    /// opportunity; at K=2: `|TPR_W − TPR_U|`).
    pub equal_opportunity_gap: Option<f64>,
    /// Windowed conformance-violation rate per cell (decision plane).
    pub violation_rate: Vec<Option<f64>>,
    /// Joined `(decision, label)` pairs per cell in the label plane.
    pub labeled: Vec<u64>,
    /// The DI* floor this stream is held to (EEOC four-fifths: 0.8).
    pub di_floor: f64,
}

/// Raw and symmetrised disparate impact of one ordered cell pair, with
/// cell `i`'s rate as the reference: `(SR_j / SR_i, min(DI, 1/DI))`.
/// `SR_i = 0` with `SR_j > 0` is infinite raw DI (star 0); neither cell
/// selecting is vacuously balanced (raw 1, star 1).
fn pair_disparate_impact(sr_i: f64, sr_j: f64) -> (f64, f64) {
    let raw = if sr_i > 0.0 {
        sr_j / sr_i
    } else if sr_j > 0.0 {
        f64::INFINITY
    } else {
        // Neither cell selected: vacuously balanced.
        1.0
    };
    let star = if raw <= 0.0 || raw.is_infinite() {
        0.0
    } else {
        raw.min(1.0 / raw)
    };
    (raw, star)
}

/// `max − min` over an iterator of readings; `None` with fewer than two.
fn spread(rates: impl Iterator<Item = f64>) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0usize;
    for r in rates {
        lo = lo.min(r);
        hi = hi.max(r);
        n += 1;
    }
    (n >= 2).then_some(hi - lo)
}

impl SnapshotData {
    /// Assemble the reading from K group cells. O(K²) over the cell
    /// pairs, O(1) at any fixed K. This is the arithmetic `cf-stream`
    /// delegates to, so live and replayed snapshots are computed
    /// identically by construction.
    pub fn from_counters(counts: &[WindowCounters], di_floor: f64) -> Self {
        let sr: Vec<Option<f64>> = counts.iter().map(WindowCounters::selection_rate).collect();
        let (disparate_impact, di_star) = match worst_pair_of(&sr) {
            Some((i, j)) => {
                let (raw, star) = pair_disparate_impact(sr[i].unwrap(), sr[j].unwrap());
                (Some(raw), Some(star))
            }
            None => (None, None),
        };
        let demographic_parity_gap = spread(sr.iter().filter_map(|r| *r));
        let equal_opportunity_gap = spread(counts.iter().filter_map(WindowCounters::tpr));
        SnapshotData {
            window_len: counts.iter().map(|c| c.total).sum(),
            selection_rate: sr,
            disparate_impact,
            di_star,
            demographic_parity_gap,
            equal_opportunity_gap,
            violation_rate: counts.iter().map(WindowCounters::violation_rate).collect(),
            labeled: counts.iter().map(|c| c.labeled).collect(),
            di_floor,
        }
    }

    /// The ordered cell pair `(i, j)`, `i < j`, whose symmetrised DI is
    /// worst (smallest), over pairs where both selection rates are
    /// defined; ties break to the lexicographically first pair. `None`
    /// when fewer than two cells have a defined rate — a K=1 stream has
    /// no pairs and reports `None`, never a fabricated reading.
    pub fn worst_pair(counts: &[WindowCounters]) -> Option<(usize, usize)> {
        let sr: Vec<Option<f64>> = counts.iter().map(WindowCounters::selection_rate).collect();
        worst_pair_of(&sr)
    }

    /// The cell the worst pair disadvantages: the one with the lower
    /// selection rate (ties go to the higher-indexed cell, matching the
    /// binary engine's "minority unless strictly better" convention).
    /// `None` when [`Self::worst_pair`] is `None`.
    pub fn disadvantaged_cell(counts: &[WindowCounters]) -> Option<usize> {
        let (i, j) = Self::worst_pair(counts)?;
        let (sr_i, sr_j) = (
            counts[i].selection_rate().unwrap(),
            counts[j].selection_rate().unwrap(),
        );
        Some(if sr_j <= sr_i { j } else { i })
    }
}

fn worst_pair_of(sr: &[Option<f64>]) -> Option<(usize, usize)> {
    let mut worst: Option<((usize, usize), f64)> = None;
    for i in 0..sr.len() {
        let Some(sr_i) = sr[i] else { continue };
        for (j, sr_j) in sr.iter().enumerate().skip(i + 1) {
            let Some(sr_j) = *sr_j else { continue };
            let (_, star) = pair_disparate_impact(sr_i, sr_j);
            if worst.is_none_or(|(_, s)| star < s) {
                worst = Some(((i, j), star));
            }
        }
    }
    worst.map(|(pair, _)| pair)
}

/// What kind of drift fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Page–Hinkley change-point on a group's conformance-violation series:
    /// the group's live distribution has left its reference profile.
    ConformanceViolation,
    /// The windowed disparate-impact ratio fell below the configured floor
    /// (EEOC four-fifths rule).
    DisparateImpactFloor,
}

impl DriftKind {
    /// The stable wire name this kind serialises as, in the audit trail
    /// and in checkpoints alike.
    pub fn wire_name(&self) -> &'static str {
        match self {
            DriftKind::ConformanceViolation => "conformance_violation",
            DriftKind::DisparateImpactFloor => "disparate_impact_floor",
        }
    }
}

impl Serialize for DriftKind {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.wire_name());
    }
}

impl Deserialize for DriftKind {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str() {
            Some("conformance_violation") => Ok(DriftKind::ConformanceViolation),
            Some("disparate_impact_floor") => Ok(DriftKind::DisparateImpactFloor),
            _ => Err(Error::msg("unknown drift kind")),
        }
    }
}

/// A typed drift alert: raised by a stream engine's detectors, kept in
/// its alert log and checkpoints, and recorded as is in the audit trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftAlert {
    /// Which kind of detector fired.
    pub kind: DriftKind,
    /// The drifting cell id (one of the engine's monitored cells; at the
    /// binary default, 0 = majority and 1 = minority). For
    /// [`DriftKind::DisparateImpactFloor`] this is the disadvantaged cell
    /// of the worst-served pair.
    pub group: u8,
    /// Global stream position (tuples ingested when the alert fired).
    pub at_tuple: u64,
    /// The detector statistic at firing time (Page–Hinkley statistic, or
    /// the DI* reading for floor alerts).
    pub statistic: f64,
    /// The threshold that was crossed (λ, or the DI floor).
    pub threshold: f64,
}

/// Human-readable one-liner, e.g.
/// `[ALERT @9250] conformance drift in group 1: PH statistic 12.31 > λ=12.00`.
impl std::fmt::Display for DriftAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            DriftKind::ConformanceViolation => write!(
                f,
                "[ALERT @{}] conformance drift in group {}: PH statistic {:.2} > λ={:.2}",
                self.at_tuple, self.group, self.statistic, self.threshold
            ),
            DriftKind::DisparateImpactFloor => write!(
                f,
                "[ALERT @{}] DI* {:.3} below floor {:.2} (disadvantaged group {})",
                self.at_tuple, self.statistic, self.threshold, self.group
            ),
        }
    }
}

/// Which cell moved, and by how much — the explanation shipped alongside
/// every alert so the audit record says more than "an alert fired".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertExplanation {
    /// The `(group, plane)` cell the detector attributes the move to,
    /// e.g. `"group=1/decision"`.
    pub cell: String,
    /// Windowed selection rate per cell at alert time (K-length).
    pub selection_rate: Vec<Option<f64>>,
    /// Windowed conformance-violation rate per cell at alert time.
    pub violation_rate: Vec<Option<f64>>,
    /// Human-readable one-line account of the move.
    pub summary: String,
}

/// One served micro-batch folded into the monitor: the window's per-cell
/// deltas plus the resulting reading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestBatchEvent {
    /// Stream id of the batch's first tuple.
    pub first_id: u64,
    /// Tuples in the batch.
    pub batch: u64,
    /// Total tuples observed after this batch.
    pub at_tuple: u64,
    /// The DI* floor in force.
    pub di_floor: f64,
    /// Signed per-cell counter change this batch caused (index = group).
    pub delta: Vec<CounterDelta>,
    /// The fairness reading after the batch.
    pub snapshot: SnapshotData,
}

/// A drift alert, with the moved-cell explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftAlertEvent {
    /// Total tuples observed when the alert fired.
    pub at_tuple: u64,
    /// The alert itself.
    pub alert: DriftAlert,
    /// Which cell moved, and by how much.
    pub explanation: AlertExplanation,
}

/// A repair (retrain) attempt is starting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairStartEvent {
    /// Total tuples observed when the repair started.
    pub at_tuple: u64,
    /// Repair tier (currently always `"confair_retrain"`).
    pub tier: String,
    /// Window occupancy feeding the repair.
    pub window_len: u64,
    /// Labeled pairs available to train on.
    pub labeled: u64,
}

/// A repair (retrain) attempt finished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairEndEvent {
    /// Total tuples observed when the repair ended.
    pub at_tuple: u64,
    /// Repair tier (matches the paired [`RepairStartEvent`]).
    pub tier: String,
    /// `"retrained"` on success, `"failed"` otherwise.
    pub outcome: String,
    /// The failure message, when `outcome == "failed"`.
    pub error: Option<String>,
    /// Wall-clock duration of the attempt, in microseconds.
    pub duration_us: u64,
    /// Cumulative successful retrains after this attempt.
    pub retrains: u64,
}

/// The repair ladder moved a serve-time decision threshold: tier 1
/// nudged one cell's margin cutoff (the usual producer), and the event
/// records the **full** per-cell threshold vector after the change so a
/// trail reader never has to integrate deltas to know the serving
/// boundary in force. Not an alert — threshold motion is the repair
/// working, not a new incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdChangeEvent {
    /// Total tuples observed when the threshold moved.
    pub at_tuple: u64,
    /// Active repair tier that moved it (e.g. `"threshold_nudge"`).
    pub tier: String,
    /// The group cell whose cutoff moved.
    pub cell: u8,
    /// The complete per-cell threshold vector now in force (index =
    /// group cell id; `decision = margin >= thresholds[cell]`).
    pub thresholds: Vec<f64>,
}

/// A replacement predictor was published to the serving path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSwapEvent {
    /// Total tuples observed when the swap happened.
    pub at_tuple: u64,
    /// Cumulative successful retrains (the swapped-in model's generation).
    pub retrains: u64,
}

/// A checkpoint was taken from — or restored into — an engine. A
/// `"restored"` event carries the absolute counters the restored window
/// starts from, so replay can re-anchor mid-log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEvent {
    /// Total tuples observed at the checkpoint boundary.
    pub at_tuple: u64,
    /// `"taken"` or `"restored"`.
    pub phase: String,
    /// The checkpoint format version.
    pub version: u32,
    /// Absolute per-cell window counters at the boundary (K-length).
    pub counters: Vec<WindowCounters>,
    /// The DI* floor in force.
    pub di_floor: f64,
}

/// A batch of late ground truth joined the label plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackJoinEvent {
    /// Total tuples observed when the feedback was applied.
    pub at_tuple: u64,
    /// Feedback records in the batch.
    pub records: u64,
    /// Records whose label joined (in-window or late).
    pub joined: u64,
    /// Subset of `joined` served from the pending-join index.
    pub joined_late: u64,
    /// Records for already-labeled tuples, ignored.
    pub duplicates: u64,
    /// Records whose tuple could not be found.
    pub unmatched: u64,
    /// The DI* floor in force.
    pub di_floor: f64,
    /// Signed per-cell counter change the joins caused (index = group).
    pub delta: Vec<CounterDelta>,
    /// The fairness reading after the joins.
    pub snapshot: SnapshotData,
}

/// Records were dropped under backpressure (async engines only). Counts
/// are cumulative for the engine, so consecutive events show growth and
/// the final event states the total loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DropEvent {
    /// Total tuples the monitor had observed when the drop was detected
    /// (detection happens on the monitor thread, so this trails the
    /// serving clock by the queue depth).
    pub at_tuple: u64,
    /// Cumulative batches dropped.
    pub batches: u64,
    /// Cumulative tuples dropped.
    pub tuples: u64,
}

/// A supervisor respawned a dead monitor thread from its last coherent
/// clone. The event makes the recovery *auditable*: `gap_tuples` names
/// exactly how many served tuples the restored monitor lineage will
/// never observe, and the absolute `counters` re-anchor a replay the
/// same way a `"restored"` checkpoint does — deltas after the restart
/// apply to the resumed window, not to whatever the dead incarnation
/// last logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorRestartEvent {
    /// The resumed clone's stream position (tuples it had observed when
    /// it was taken).
    pub at_tuple: u64,
    /// Cumulative monitor restarts for this engine, including this one.
    pub restarts: u64,
    /// Tuples served but permanently unmonitored because of this death
    /// (scored after the clone, consumed or skipped before the respawn).
    pub gap_tuples: u64,
    /// The resumed clone's tuple-id clock; monitoring resumes at this id.
    pub resumed_from: u64,
    /// Absolute per-cell window counters of the resumed clone (the
    /// replay re-anchor; K-length).
    pub counters: Vec<WindowCounters>,
    /// The DI* floor in force.
    pub di_floor: f64,
    /// Whether the resumed clone was in degraded mode. A death rolls
    /// engine state — including the degraded flag — back to the clone,
    /// so this re-anchors the trail's degraded reading the same way
    /// `counters` re-anchors the window.
    pub degraded: bool,
}

/// The engine entered (`entered == true`) or recovered from degraded
/// mode: an on-alert repair episode exhausted its retry/timeout budget,
/// so the stale model keeps serving until a later repair succeeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedModeEvent {
    /// Total tuples observed at the transition.
    pub at_tuple: u64,
    /// `true` when entering degraded mode, `false` when a successful
    /// retrain cleared it.
    pub entered: bool,
    /// Retrain attempts the failing episode burned (0 on recovery).
    pub attempts: u64,
    /// The final attempt's failure, when entering.
    pub error: Option<String>,
    /// Cumulative successful retrains at the transition.
    pub retrains: u64,
}

/// One observable state change in a stream engine. Serialises as a JSON
/// object whose `"event"` field is the [`kind`](TelemetryEvent::kind) tag
/// and whose remaining fields are the variant's payload, flattened.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A served micro-batch was folded into the monitor.
    IngestBatch(IngestBatchEvent),
    /// A drift detector fired.
    DriftAlert(DriftAlertEvent),
    /// A repair attempt started.
    RepairStart(RepairStartEvent),
    /// A repair attempt finished.
    RepairEnd(RepairEndEvent),
    /// The repair ladder moved a serve-time decision threshold.
    ThresholdChange(ThresholdChangeEvent),
    /// A replacement predictor was published.
    ModelSwap(ModelSwapEvent),
    /// A checkpoint was taken or restored.
    Checkpoint(CheckpointEvent),
    /// Late ground truth joined the label plane.
    FeedbackJoin(FeedbackJoinEvent),
    /// Records were dropped under backpressure.
    Drop(DropEvent),
    /// A supervisor respawned a dead monitor thread.
    MonitorRestart(MonitorRestartEvent),
    /// The engine entered or left degraded mode.
    DegradedMode(DegradedModeEvent),
}

impl TelemetryEvent {
    /// The wire tag naming this event's variant.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::IngestBatch(_) => "ingest_batch",
            TelemetryEvent::DriftAlert(_) => "drift_alert",
            TelemetryEvent::RepairStart(_) => "repair_start",
            TelemetryEvent::RepairEnd(_) => "repair_end",
            TelemetryEvent::ThresholdChange(_) => "threshold_change",
            TelemetryEvent::ModelSwap(_) => "model_swap",
            TelemetryEvent::Checkpoint(_) => "checkpoint",
            TelemetryEvent::FeedbackJoin(_) => "feedback_join",
            TelemetryEvent::Drop(_) => "drop",
            TelemetryEvent::MonitorRestart(_) => "monitor_restart",
            TelemetryEvent::DegradedMode(_) => "degraded_mode",
        }
    }

    /// Whether this event is operationally critical — a drift alert, a
    /// monitor restart, or a degraded-mode transition. These are the
    /// durability triggers: [`JsonlSink`](crate::JsonlSink) fsyncs after
    /// each one.
    pub fn is_alert(&self) -> bool {
        matches!(
            self,
            TelemetryEvent::DriftAlert(_)
                | TelemetryEvent::MonitorRestart(_)
                | TelemetryEvent::DegradedMode(_)
        )
    }

    /// The monitor's stream position (tuples observed) when the event was
    /// recorded.
    pub fn at_tuple(&self) -> u64 {
        match self {
            TelemetryEvent::IngestBatch(e) => e.at_tuple,
            TelemetryEvent::DriftAlert(e) => e.at_tuple,
            TelemetryEvent::RepairStart(e) => e.at_tuple,
            TelemetryEvent::RepairEnd(e) => e.at_tuple,
            TelemetryEvent::ThresholdChange(e) => e.at_tuple,
            TelemetryEvent::ModelSwap(e) => e.at_tuple,
            TelemetryEvent::Checkpoint(e) => e.at_tuple,
            TelemetryEvent::FeedbackJoin(e) => e.at_tuple,
            TelemetryEvent::Drop(e) => e.at_tuple,
            TelemetryEvent::MonitorRestart(e) => e.at_tuple,
            TelemetryEvent::DegradedMode(e) => e.at_tuple,
        }
    }
}

// The derive shim only handles structs, so the enum's tagged-object
// encoding is spelled out by hand (as for `DriftKind` above, and
// `cf-stream`'s `RetrainPolicy`): `{"event": <kind>, …payload fields…}`.
impl Serialize for TelemetryEvent {
    fn serialize(&self, w: &mut Writer) {
        w.object(|w| {
            w.field(b"\"event\":", self.kind());
            match self {
                TelemetryEvent::IngestBatch(e) => e.serialize_fields(w),
                TelemetryEvent::DriftAlert(e) => e.serialize_fields(w),
                TelemetryEvent::RepairStart(e) => e.serialize_fields(w),
                TelemetryEvent::RepairEnd(e) => e.serialize_fields(w),
                TelemetryEvent::ThresholdChange(e) => e.serialize_fields(w),
                TelemetryEvent::ModelSwap(e) => e.serialize_fields(w),
                TelemetryEvent::Checkpoint(e) => e.serialize_fields(w),
                TelemetryEvent::FeedbackJoin(e) => e.serialize_fields(w),
                TelemetryEvent::Drop(e) => e.serialize_fields(w),
                TelemetryEvent::MonitorRestart(e) => e.serialize_fields(w),
                TelemetryEvent::DegradedMode(e) => e.serialize_fields(w),
            }
        });
    }
}

impl Deserialize for TelemetryEvent {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let kind = v
            .get_or_err("event")?
            .as_str()
            .ok_or_else(|| Error::msg("event tag must be a string"))?;
        match kind {
            "ingest_batch" => IngestBatchEvent::from_value(v).map(TelemetryEvent::IngestBatch),
            "drift_alert" => DriftAlertEvent::from_value(v).map(TelemetryEvent::DriftAlert),
            "repair_start" => RepairStartEvent::from_value(v).map(TelemetryEvent::RepairStart),
            "repair_end" => RepairEndEvent::from_value(v).map(TelemetryEvent::RepairEnd),
            "threshold_change" => {
                ThresholdChangeEvent::from_value(v).map(TelemetryEvent::ThresholdChange)
            }
            "model_swap" => ModelSwapEvent::from_value(v).map(TelemetryEvent::ModelSwap),
            "checkpoint" => CheckpointEvent::from_value(v).map(TelemetryEvent::Checkpoint),
            "feedback_join" => FeedbackJoinEvent::from_value(v).map(TelemetryEvent::FeedbackJoin),
            "drop" => DropEvent::from_value(v).map(TelemetryEvent::Drop),
            "monitor_restart" => {
                MonitorRestartEvent::from_value(v).map(TelemetryEvent::MonitorRestart)
            }
            "degraded_mode" => DegradedModeEvent::from_value(v).map(TelemetryEvent::DegradedMode),
            other => Err(Error::msg(format!("unknown telemetry event `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> [WindowCounters; 2] {
        [
            WindowCounters {
                total: 100,
                selected: 60,
                violations: 3,
                labeled: 80,
                label_positive: 50,
                true_positive: 40,
                false_positive: 10,
            },
            WindowCounters {
                total: 90,
                selected: 30,
                violations: 9,
                labeled: 70,
                label_positive: 40,
                true_positive: 20,
                false_positive: 5,
            },
        ]
    }

    #[test]
    fn delta_round_trips_through_apply() {
        let [before, after] = sample_counters();
        let delta = after.delta_from(&before);
        assert_eq!(before.apply(&delta), Some(after));
        assert_eq!(after.apply(&after.delta_from(&after)), Some(after));
        assert!(after.delta_from(&after).is_zero());
    }

    #[test]
    fn apply_rejects_underflow() {
        let c = WindowCounters::default();
        let delta = CounterDelta {
            total: -1,
            ..CounterDelta::default()
        };
        assert_eq!(c.apply(&delta), None);
    }

    #[test]
    fn snapshot_math_matches_hand_computation() {
        let counts = sample_counters();
        let s = SnapshotData::from_counters(&counts, 0.8);
        assert_eq!(s.window_len, 190);
        let sr_w = 0.6;
        let sr_u = 30.0 / 90.0;
        assert!((s.disparate_impact.unwrap() - sr_u / sr_w).abs() < 1e-15);
        assert!((s.demographic_parity_gap.unwrap() - (sr_w - sr_u).abs()).abs() < 1e-15);
        assert_eq!(s.labeled, vec![80, 70]);
    }

    /// At K=2 the worst-pair arithmetic *is* the binary arithmetic: one
    /// ordered pair `(0, 1)`, raw DI oriented `SR_1 / SR_0`.
    #[test]
    fn k2_worst_pair_is_the_binary_pair() {
        let counts = sample_counters();
        assert_eq!(SnapshotData::worst_pair(&counts), Some((0, 1)));
        assert_eq!(SnapshotData::disadvantaged_cell(&counts), Some(1));
    }

    #[test]
    fn kary_worst_pair_finds_the_most_disparate_cells() {
        let cell = |total: u64, selected: u64| WindowCounters {
            total,
            selected,
            ..WindowCounters::default()
        };
        // SRs: 0.5, 0.4, 0.1, 0.5 → worst pair is (0, 2) (or (3, 2) by
        // ratio, but (0, 2) comes first lexicographically at equal DI*).
        let counts = [cell(100, 50), cell(100, 40), cell(100, 10), cell(100, 50)];
        let s = SnapshotData::from_counters(&counts, 0.8);
        assert_eq!(SnapshotData::worst_pair(&counts), Some((0, 2)));
        assert_eq!(SnapshotData::disadvantaged_cell(&counts), Some(2));
        assert!((s.disparate_impact.unwrap() - 0.2).abs() < 1e-15);
        assert!((s.di_star.unwrap() - 0.2).abs() < 1e-15);
        assert!((s.demographic_parity_gap.unwrap() - 0.4).abs() < 1e-15);
        assert_eq!(s.window_len, 400);
        assert_eq!(s.selection_rate.len(), 4);
    }

    /// A K=1 stream has no pairs: every pairwise reading is `None`,
    /// never a fabricated 0.0.
    #[test]
    fn k1_has_no_pairs_and_reports_none() {
        let counts = [WindowCounters {
            total: 50,
            selected: 20,
            labeled: 10,
            label_positive: 5,
            true_positive: 3,
            ..WindowCounters::default()
        }];
        let s = SnapshotData::from_counters(&counts, 0.8);
        assert_eq!(s.disparate_impact, None);
        assert_eq!(s.di_star, None);
        assert_eq!(s.demographic_parity_gap, None);
        assert_eq!(s.equal_opportunity_gap, None);
        assert_eq!(SnapshotData::worst_pair(&counts), None);
        assert_eq!(SnapshotData::disadvantaged_cell(&counts), None);
        assert_eq!(s.window_len, 50);
    }

    /// Empty cells (no tuples yet) have undefined rates and are skipped
    /// by the pair scan rather than polluting it with zeros.
    #[test]
    fn empty_cells_are_excluded_from_the_pair_scan() {
        let cell = |total: u64, selected: u64| WindowCounters {
            total,
            selected,
            ..WindowCounters::default()
        };
        let counts = [cell(100, 50), cell(0, 0), cell(100, 25), cell(0, 0)];
        let s = SnapshotData::from_counters(&counts, 0.8);
        assert_eq!(SnapshotData::worst_pair(&counts), Some((0, 2)));
        assert!((s.di_star.unwrap() - 0.5).abs() < 1e-15);
        assert_eq!(s.selection_rate[1], None);
        assert_eq!(s.selection_rate[3], None);
    }

    #[test]
    fn events_round_trip_through_json() {
        let counts = sample_counters();
        let snapshot = SnapshotData::from_counters(&counts, 0.8);
        let events = vec![
            TelemetryEvent::IngestBatch(IngestBatchEvent {
                first_id: 0,
                batch: 190,
                at_tuple: 190,
                di_floor: 0.8,
                delta: vec![
                    counts[0].delta_from(&WindowCounters::default()),
                    counts[1].delta_from(&WindowCounters::default()),
                ],
                snapshot: snapshot.clone(),
            }),
            TelemetryEvent::DriftAlert(DriftAlertEvent {
                at_tuple: 190,
                alert: DriftAlert {
                    kind: DriftKind::ConformanceViolation,
                    group: 1,
                    at_tuple: 190,
                    statistic: 13.25,
                    threshold: 12.0,
                },
                explanation: AlertExplanation {
                    cell: "group=1/decision".into(),
                    selection_rate: snapshot.selection_rate.clone(),
                    violation_rate: snapshot.violation_rate.clone(),
                    summary: "violation rate moved".into(),
                },
            }),
            TelemetryEvent::RepairStart(RepairStartEvent {
                at_tuple: 190,
                tier: "confair_retrain".into(),
                window_len: 190,
                labeled: 150,
            }),
            TelemetryEvent::RepairEnd(RepairEndEvent {
                at_tuple: 190,
                tier: "confair_retrain".into(),
                outcome: "failed".into(),
                error: Some("degenerate window".into()),
                duration_us: 421,
                retrains: 0,
            }),
            TelemetryEvent::ThresholdChange(ThresholdChangeEvent {
                at_tuple: 190,
                tier: "threshold_nudge".into(),
                cell: 1,
                thresholds: vec![0.0, -0.15],
            }),
            TelemetryEvent::ModelSwap(ModelSwapEvent {
                at_tuple: 190,
                retrains: 1,
            }),
            TelemetryEvent::Checkpoint(CheckpointEvent {
                at_tuple: 190,
                phase: "taken".into(),
                version: 2,
                counters: counts.to_vec(),
                di_floor: 0.8,
            }),
            TelemetryEvent::FeedbackJoin(FeedbackJoinEvent {
                at_tuple: 190,
                records: 5,
                joined: 3,
                joined_late: 1,
                duplicates: 1,
                unmatched: 1,
                di_floor: 0.8,
                delta: vec![CounterDelta::default(), CounterDelta::default()],
                snapshot,
            }),
            TelemetryEvent::Drop(DropEvent {
                at_tuple: 190,
                batches: 2,
                tuples: 64,
            }),
            TelemetryEvent::MonitorRestart(MonitorRestartEvent {
                at_tuple: 160,
                restarts: 2,
                gap_tuples: 30,
                resumed_from: 160,
                counters: counts.to_vec(),
                di_floor: 0.8,
                degraded: false,
            }),
            TelemetryEvent::DegradedMode(DegradedModeEvent {
                at_tuple: 190,
                entered: true,
                attempts: 3,
                error: Some("injected fault: retrain attempt 2".into()),
                retrains: 1,
            }),
        ];
        for event in events {
            let text = serde_json::to_string(&event).unwrap();
            let back: TelemetryEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back, event, "round-trip of {}", event.kind());
            assert_eq!(back.kind(), event.kind());
        }
    }

    #[test]
    fn unknown_event_tag_is_rejected() {
        let err = serde_json::from_str::<TelemetryEvent>(r#"{"event":"mystery"}"#);
        assert!(err.is_err());
    }

    #[test]
    fn infinite_di_survives_as_null_then_none() {
        // A snapshot with DI = ∞ serialises the field as null; parsing it
        // back yields `None`. Replay therefore verifies at the Value
        // level, not by comparing parsed structs (see crate::replay).
        let counts = [
            WindowCounters {
                total: 10,
                ..WindowCounters::default()
            },
            WindowCounters {
                total: 10,
                selected: 5,
                ..WindowCounters::default()
            },
        ];
        let s = SnapshotData::from_counters(&counts, 0.8);
        assert_eq!(s.disparate_impact, Some(f64::INFINITY));
        let text = serde_json::to_string(&s).unwrap();
        assert!(text.contains("\"disparate_impact\":null"));
        let back: SnapshotData = serde_json::from_str(&text).unwrap();
        assert_eq!(back.disparate_impact, None);
    }
}
