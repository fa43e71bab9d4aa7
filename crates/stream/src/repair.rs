//! The serve-time repair escalation ladder: three tiers of fairness
//! repair ordered by cost, climbed only as cheaper rungs fail.
//!
//! 1. **Threshold nudge** (µs) — per-cell decision thresholds recomputed
//!    online from the decision-plane counters. The disadvantaged cell of
//!    the worst DI* pair gets its margin cutoff lowered by
//!    [`RepairConfig::nudge_step`](crate::RepairConfig) per unhealthy
//!    batch (clamped at `nudge_max`), lifting its selection rate — the
//!    post-processing threshold correction of Asiaee & Aryan, which needs
//!    **no labels**: exactly what the label-free decision plane provides.
//! 2. **DiffFair projection** (ms) — the model's margin is routed through
//!    the monitor's per-cell `ConstraintFamily` conformance profiles on
//!    the serving path: a row that conforms better to the accepted-class
//!    profile of its cell has its margin boosted by the conformance gap,
//!    and vice versa (the `difffair.rs` routing idiom applied to one
//!    model's boundary instead of two models).
//! 3. **Full ConFair retrain** — the existing repair episode
//!    ([`Monitor::retrain`](crate::Monitor::retrain) under the bounded
//!    retry budget), now the *last* rung, entered only after the cheap
//!    tiers have failed to lift DI* for
//!    [`RepairConfig::tier_patience`](crate::RepairConfig) batches each.
//!
//! The ladder is **off by default** (`RepairConfig::ladder == false`).
//! Every batch is decided through one rule, `margin - gap >= threshold`,
//! and the identity [`RepairOverlay`] (all-zero thresholds, no
//! projection) reduces it to the model's own `margin >= 0.0` bit for
//! bit — the `tests/repair_ladder.rs` golden fixtures pin that
//! equivalence byte for byte. State machine: an episode opens when the
//! windowed DI* reading fails the floor, escalates monotonically
//! (1 → 2 → 3), de-escalates (episode closes) after
//! `recovery_hold` consecutive passing batches — repairs stay installed;
//! they are what restored fairness — and only a successful tier-3 retrain
//! resets thresholds and projection to the identity. A tier-3 episode
//! that exhausts its budget drops back to tier 2 with degraded mode
//! flagged: tiers 1–2 keep serving repairs while the retrain path is
//! down.

use crate::monitor::CellProfiles;

/// One rung of the repair escalation ladder, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairTier {
    /// Tier 1: per-cell decision-threshold nudges (µs; label-free).
    ThresholdNudge,
    /// Tier 2: conformance-profile margin projection on the serving path.
    DiffFairProjection,
    /// Tier 3: the full on-window ConFair retrain episode.
    ConFairRetrain,
}

impl RepairTier {
    /// The tier name as it appears on the audit trail
    /// (`repair_start`/`repair_end`/`threshold_change` events).
    pub fn wire_name(self) -> &'static str {
        match self {
            RepairTier::ThresholdNudge => "threshold_nudge",
            RepairTier::DiffFairProjection => "difffair_projection",
            RepairTier::ConFairRetrain => "confair_retrain",
        }
    }

    /// 1-based rung index (checkpoint encoding; 0 encodes "no episode").
    pub fn index(self) -> u8 {
        match self {
            RepairTier::ThresholdNudge => 1,
            RepairTier::DiffFairProjection => 2,
            RepairTier::ConFairRetrain => 3,
        }
    }

    /// Decode a checkpointed rung index.
    pub fn from_index(index: u8) -> Option<Self> {
        match index {
            1 => Some(RepairTier::ThresholdNudge),
            2 => Some(RepairTier::DiffFairProjection),
            3 => Some(RepairTier::ConFairRetrain),
            _ => None,
        }
    }

    /// The next rung up, if any.
    pub fn next(self) -> Option<Self> {
        match self {
            RepairTier::ThresholdNudge => Some(RepairTier::DiffFairProjection),
            RepairTier::DiffFairProjection => Some(RepairTier::ConFairRetrain),
            RepairTier::ConFairRetrain => None,
        }
    }
}

/// The monitor-side ladder state: which rung an open episode is on, how
/// long it has sat there, and the repair artifacts (thresholds,
/// projection flag) the scorer must mirror. Plain owned data — `Clone`
/// travels with monitor clones for supervision and checkpointing.
#[derive(Debug, Clone)]
pub struct RepairLadder {
    /// The rung of the open repair episode, or `None` when idle.
    pub(crate) active: Option<RepairTier>,
    /// Unhealthy batches observed on the current rung (escalates at
    /// `tier_patience`).
    pub(crate) batches_in_tier: u64,
    /// Consecutive floor-passing batches while an episode is open
    /// (de-escalates at `recovery_hold`).
    pub(crate) recovery_streak: u64,
    /// Per-cell margin cutoffs (`decision = margin >= thresholds[cell]`);
    /// all zeros is the identity.
    pub(crate) thresholds: Vec<f64>,
    /// Whether the tier-2 conformance projection is installed.
    pub(crate) projection: bool,
    /// Repair work (ns) accumulated by the open episode — what
    /// `repair_end` reports, in whole µs rounded up, as the tier's
    /// repair-to-recovery cost. Counted in ns so that many sub-µs steps
    /// are not each rounded up to a full µs.
    pub(crate) work_ns: u64,
}

impl RepairLadder {
    /// An idle ladder over `cells` group cells (identity thresholds).
    pub fn idle(cells: usize) -> Self {
        RepairLadder {
            active: None,
            batches_in_tier: 0,
            recovery_streak: 0,
            thresholds: vec![0.0; cells],
            projection: false,
            work_ns: 0,
        }
    }

    /// The rung of the open episode, if one is open.
    pub fn active(&self) -> Option<RepairTier> {
        self.active
    }

    /// The per-cell margin cutoffs currently installed.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The accumulated repair work in whole µs, rounded up — the unit
    /// `repair_end` events and checkpoints carry.
    pub(crate) fn work_us(&self) -> u64 {
        self.work_ns.div_ceil(1_000)
    }

    /// Reset every repair artifact to the identity (a successful retrain
    /// re-profiled the stream; the old corrections no longer apply).
    pub(crate) fn reset_artifacts(&mut self) {
        self.thresholds.iter_mut().for_each(|t| *t = 0.0);
        self.projection = false;
    }
}

/// The serving-side repair state the monitor publishes to the scorer:
/// absolute per-cell margin cutoffs plus the conformance profiles when the
/// tier-2 projection is installed. Carries complete state (not deltas),
/// so the async engine's latest-wins swap slot is safe to collapse
/// intermediate publications. The default is the identity: no cutoffs,
/// no projection.
#[derive(Default)]
pub struct RepairOverlay {
    /// Per-cell margin cutoffs; a cell without one decides at 0.0.
    pub(crate) thresholds: Vec<f64>,
    /// `Some(profiles)` installs the tier-2 conformance projection.
    pub(crate) projection: Option<CellProfiles>,
}

impl RepairOverlay {
    /// The margin cutoff for `cell` (0.0 when the cell is out of range —
    /// a tuple from a cell the monitor has no threshold for decides at
    /// the model's native boundary).
    pub(crate) fn threshold(&self, cell: u8) -> f64 {
        self.thresholds
            .get(usize::from(cell))
            .copied()
            .unwrap_or(0.0)
    }

    /// The tier-2 conformance gap for `row` in `cell`: how much worse the
    /// row conforms to the accepted-class profile than to the
    /// rejected-class profile. Positive gap lowers the effective margin.
    pub(crate) fn conformance_gap(&self, cell: u8, row: &[f64]) -> f64 {
        match &self.projection {
            Some(profiles) => match profiles.get(usize::from(cell)) {
                Some([Some(rejected), Some(accepted)]) => {
                    accepted.violation(row) - rejected.violation(row)
                }
                _ => 0.0,
            },
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_indices_round_trip_and_order_monotone() {
        for tier in [
            RepairTier::ThresholdNudge,
            RepairTier::DiffFairProjection,
            RepairTier::ConFairRetrain,
        ] {
            assert_eq!(RepairTier::from_index(tier.index()), Some(tier));
        }
        assert_eq!(RepairTier::from_index(0), None);
        assert_eq!(RepairTier::from_index(4), None);
        assert_eq!(
            RepairTier::ThresholdNudge.next(),
            Some(RepairTier::DiffFairProjection)
        );
        assert_eq!(
            RepairTier::DiffFairProjection.next(),
            Some(RepairTier::ConFairRetrain)
        );
        assert_eq!(RepairTier::ConFairRetrain.next(), None);
        assert!(RepairTier::ThresholdNudge < RepairTier::ConFairRetrain);
    }

    #[test]
    fn idle_ladder_is_the_identity() {
        let mut ladder = RepairLadder::idle(4);
        assert_eq!(ladder.thresholds(), &[0.0; 4]);
        assert!(!ladder.projection);
        ladder.thresholds[2] = -0.25;
        ladder.projection = true;
        ladder.reset_artifacts();
        assert_eq!(ladder.thresholds(), &[0.0; 4]);
        assert!(!ladder.projection);
    }
}
