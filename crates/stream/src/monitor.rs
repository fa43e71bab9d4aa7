//! The monitoring half of the engine split, plus the incremental fairness
//! monitors over the windowed counters.
//!
//! [`Monitor`] owns everything drift-related a stream engine carries: the
//! two-plane sliding window, the per-(group, label) conformance profiles,
//! the per-cell Page–Hinkley detectors, the alert log, and the retrain
//! policy. It
//! is the lag-tolerant counterpart of [`Scorer`](crate::Scorer): the
//! serving path never waits on it, and in the async engine it lives on its
//! own thread behind a bounded queue. A retrain produces a replacement
//! predictor that the monitor *returns* rather than installs — model
//! publication is the caller's (or the async engine's swap slot's) job,
//! which is what keeps this half free of any reference to the serving
//! path.
//!
//! Ground truth may trail serving arbitrarily, so the monitor's state
//! splits across the window's two planes: [`Monitor::observe`] advances
//! only the **decision plane** — selection rates, the conformance check
//! against the tuple's (group, *decision*) reference cell, and the
//! Page–Hinkley step on that decision-conformance series — while
//! [`Monitor::feedback`] joins late labels by tuple id into the **label
//! plane** (TPR/FPR, the equal-opportunity gap). Drift is therefore
//! detectable before a single label arrives, and the label-dependent
//! metrics stay `None` (never a fabricated 0) until feedback joins.
//!
//! Each [`FairnessSnapshot`] is assembled in O(1) from [`WindowCounters`] —
//! the counters the window maintains per event — never by rescanning
//! tuples. The metrics deliberately mirror `cf-metrics`' definitions (§IV
//! of the paper) — including the `DI* = min(DI, 1/DI)` symmetrisation with
//! its 0/∞ guard — restated over the sliding window and over `Option`,
//! since an unobserved group yields `None`, which
//! `cf_metrics::Confusion`'s slice-based API cannot express: disparate
//! impact by selection-rate ratio with the EEOC four-fifths rule, the
//! demographic-parity gap, and the equal-opportunity (TPR) gap.

use crate::drift::{DriftAlert, DriftKind, PageHinkley};
use crate::engine::{LabelFeedback, RetrainPolicy, StreamConfig, StreamTuple};
use crate::repair::{RepairLadder, RepairOverlay, RepairTier};
use crate::telemetry::StreamMetrics;
use crate::window::{JoinStats, LabelJoin, SlidingWindow, SlotMeta};
use crate::{Result, StreamError};
use cf_conformance::{learn_constraints, ConstraintSet};
use cf_data::{
    split::{split3_stratified, SplitRatios},
    CellIndex, Column, Dataset,
};
use cf_learners::LearnerKind;
use cf_telemetry::{
    FeedbackJoinEvent, IngestBatchEvent, ModelSwapEvent, RepairEndEvent, RepairStartEvent,
    SharedSink, SnapshotData, TelemetryEvent, ThresholdChangeEvent, WindowCounters,
};
use confair_core::{confair::ConFair, CoreError, SingleModelPredictor};
use std::borrow::Borrow;

/// A point-in-time fairness reading over the current window. Cell-indexed
/// fields are `K`-length, one entry per group cell (the classic binary
/// layout is `[majority W, minority U]`); `None` marks an empty
/// denominator (e.g. an unobserved cell), never a fabricated 0/0.
///
/// With more than two cells the scalar readings are **worst-pair**
/// statistics: `disparate_impact`/`di_star` come from the ordered cell
/// pair with the smallest `DI*`, and the gaps are the spread (max − min)
/// over all defined cells — so the EEOC floor is held against the most
/// disparate pair, exactly the reading pairwise binary monitoring of a
/// collapsed group column cannot produce.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessSnapshot {
    /// Tuples in the window when the snapshot was taken.
    pub window_len: u64,
    /// Windowed selection rate per group cell.
    pub selection_rate: Vec<Option<f64>>,
    /// Raw disparate impact of the worst pair `(i, j)`: `SR_j / SR_i`
    /// (∞ when `SR_i = 0` and `SR_j > 0`). At K=2 this is the classic
    /// `SR_U / SR_W`.
    pub disparate_impact: Option<f64>,
    /// Symmetrised `DI* = min(DI, 1/DI)` of the worst pair — 1.0 is
    /// perfectly fair.
    pub di_star: Option<f64>,
    /// Selection-rate spread `max − min` over defined cells (at K=2:
    /// `|SR_W − SR_U|`).
    pub demographic_parity_gap: Option<f64>,
    /// TPR spread over defined cells (equal opportunity; at K=2:
    /// `|TPR_W − TPR_U|`), over joined labels only — `None` while fewer
    /// than two cells' label planes hold positives, never a fabricated 0
    /// from decisions that have no ground truth yet.
    pub equal_opportunity_gap: Option<f64>,
    /// Windowed conformance-violation rate per cell (decision plane).
    pub violation_rate: Vec<Option<f64>>,
    /// Joined `(decision, label)` pairs per cell currently in the label
    /// plane — how much ground truth the label-dependent readings rest on.
    pub labeled: Vec<u64>,
    /// The DI* floor this stream is held to (EEOC four-fifths: 0.8).
    pub di_floor: f64,
    /// Whether the engine is serving in degraded mode: an on-alert repair
    /// episode exhausted its retry/timeout budget
    /// ([`RepairConfig`](crate::RepairConfig)), so the stale model keeps
    /// serving until a later retrain succeeds. Live-engine state, not
    /// window arithmetic: counter-derived snapshots (including replayed
    /// ones) report `false`.
    pub degraded: bool,
}

impl FairnessSnapshot {
    /// Assemble from windowed counters. O(1).
    ///
    /// The arithmetic itself lives in
    /// [`SnapshotData::from_counters`] — the telemetry plane's
    /// replay recomputes snapshots through the *same* function, which is
    /// what makes an audit trail's replayed sequence byte-identical to
    /// the live one by construction.
    pub fn from_counts(counts: &[WindowCounters], di_floor: f64) -> Self {
        Self::from_data(SnapshotData::from_counters(counts, di_floor))
    }

    /// The EEOC four-fifths verdict: `Some(true)` when `DI* ≥ floor`,
    /// `None` while either group is unobserved.
    pub fn passes_di_floor(&self) -> Option<bool> {
        self.di_star.map(|d| d >= self.di_floor)
    }

    /// Compact single-line rendering for monitoring output (alias for the
    /// [`Display`] impl, kept for callers that want an owned `String`).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn one_line(&self) -> String {
        self.to_string()
    }
}

/// Human-readable one-liner, e.g.
/// `window=2000   labels=1820 DI*=0.913 dp_gap=0.051 eo_gap=0.042 viol(W)=0.012 viol(U)=0.019`
/// (`--` marks an unobserved cell's — or an unlabeled plane's — empty
/// denominator). The `viol(W)/viol(U)` wording is kept verbatim for the
/// binary layout; with any other K each cell renders as `viol(g)`.
impl std::fmt::Display for FairnessSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "--".to_string(),
        };
        write!(
            f,
            "window={:<6} labels={:<6} DI*={} dp_gap={} eo_gap={}",
            self.window_len,
            self.labeled.iter().sum::<u64>(),
            fmt(self.di_star),
            fmt(self.demographic_parity_gap),
            fmt(self.equal_opportunity_gap),
        )?;
        if self.violation_rate.len() == 2 {
            write!(
                f,
                " viol(W)={} viol(U)={}",
                fmt(self.violation_rate[0]),
                fmt(self.violation_rate[1]),
            )?;
        } else {
            for (g, &rate) in self.violation_rate.iter().enumerate() {
                write!(f, " viol({g})={}", fmt(rate))?;
            }
        }
        if self.degraded {
            write!(f, " DEGRADED")?;
        }
        Ok(())
    }
}

/// Conformance profiles per (group, label) cell of the reference data:
/// `profiles[g][y]` for group cell `g` in `0..K` and binary label `y`.
pub(crate) type CellProfiles = Vec<[Option<ConstraintSet>; 2]>;

/// What one [`Monitor::observe`] call produced.
///
/// Not `Clone`/`Debug`: a successful on-alert retrain hands back the
/// freshly trained predictor in [`ObserveOutcome::model`], and trained
/// predictors are neither. The engines peel the model off for installation
/// and forward the rest as an [`IngestOutcome`](crate::IngestOutcome).
pub struct ObserveOutcome {
    /// The stream id assigned to the batch's first tuple (ids are
    /// consecutive within a batch) — the join keys later
    /// [`LabelFeedback`] records address.
    pub first_id: u64,
    /// Alerts raised by this batch (also appended to the monitor's log).
    pub alerts: Vec<DriftAlert>,
    /// The windowed fairness reading after the batch.
    pub snapshot: FairnessSnapshot,
    /// Whether the retraining hook ran successfully.
    pub retrained: bool,
    /// Why an attempted on-alert retrain failed, if it did.
    pub retrain_error: Option<StreamError>,
    /// The replacement predictor a successful retrain produced. The caller
    /// owns publication: the sync engine installs it into its scorer
    /// before returning, the async engine's monitor thread publishes it
    /// through the atomically-swapped model slot.
    pub model: Option<SingleModelPredictor>,
    /// A repair overlay the ladder published this batch (thresholds
    /// nudged, projection toggled, or artifacts reset by a successful
    /// retrain). Like `model`, the caller owns delivery: the sync engine
    /// applies it to its scorer before returning, the async engine's
    /// monitor thread publishes it through a swap slot. `None` whenever
    /// the ladder is off or took no action.
    pub repair: Option<RepairOverlay>,
}

/// What one [`Monitor::feedback`] call produced: how each record resolved,
/// plus the refreshed fairness reading (its label-plane metrics are the
/// fields feedback can move).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackOutcome {
    /// Records whose label joined the label plane (in-window or late).
    pub joined: u64,
    /// Subset of `joined` that arrived after the tuple left the decision
    /// ring and was served from the pending-join index.
    pub joined_late: u64,
    /// Records for tuples that already had a label, ignored.
    pub duplicates: u64,
    /// Records whose tuple could not be found (pending entry evicted,
    /// record dropped before monitoring, …), counted and skipped.
    pub unmatched: u64,
    /// The windowed fairness reading after the joins.
    pub snapshot: FairnessSnapshot,
}

/// The monitoring half of a stream engine: sliding window, conformance
/// profiles, per-group Page–Hinkley detectors, alert log, and the retrain
/// policy — everything that tolerates lag.
///
/// A `Monitor` never scores: it *observes* already-served `(tuple,
/// decision)` pairs via [`Monitor::observe`], folding them into the O(1)
/// windowed counters and the detectors, and — under
/// [`RetrainPolicy::OnAlert`] — re-running ConFair on the window when a
/// detector fires. All state is plain owned data, so a monitor is `Send`
/// (it can move to a background thread; the async engine does exactly
/// that) and `Clone` (a coherent copy can be taken for checkpointing while
/// the original keeps running).
#[derive(Clone)]
pub struct Monitor {
    pub(crate) schema: Vec<String>,
    pub(crate) learner: LearnerKind,
    pub(crate) config: StreamConfig,
    pub(crate) profiles: CellProfiles,
    pub(crate) window: SlidingWindow,
    pub(crate) detectors: Vec<PageHinkley>,
    pub(crate) alerts: Vec<DriftAlert>,
    pub(crate) seen: u64,
    /// The next tuple id this monitor expects to assign. Equals `seen` in
    /// the synchronous engine; in the async engine it tracks the *scorer's*
    /// clock (records carry their ids), so it can run ahead of `seen` when
    /// records are dropped under backpressure.
    pub(crate) ids_issued: u64,
    pub(crate) retrains: u64,
    pub(crate) floor_quiet_until: u64,
    /// The repair-escalation ladder state (idle unless
    /// `config.repair.ladder` is on; see [`crate::repair`]).
    pub(crate) ladder: RepairLadder,
    /// Telemetry sink, if one is installed ([`Monitor::set_sink`]). `None`
    /// skips emission entirely — the default, and the reason the null
    /// path costs nothing. Shared (`Arc`) so a checkpoint clone feeds the
    /// same trail instead of forking it.
    pub(crate) sink: Option<SharedSink>,
    /// Metrics handles, if installed. Atomic clones shared with the
    /// engine's serving half.
    pub(crate) metrics: Option<StreamMetrics>,
    /// Whether the engine is serving in degraded mode (a repair episode
    /// exhausted its budget; cleared by the next successful retrain).
    pub(crate) degraded: bool,
    /// Events skipped because the sink lock was poisoned (interior
    /// mutability: `emit` runs on `&self` paths like checkpointing).
    pub(crate) telemetry_disabled: std::cell::Cell<u64>,
    /// The most recent telemetry failure, for operators
    /// ([`Monitor::telemetry_last_error`]).
    pub(crate) telemetry_error: std::cell::RefCell<Option<String>>,
    /// Installed fault schedule (test seam; `None` costs one branch).
    #[cfg(feature = "fault-injection")]
    pub(crate) faults: Option<crate::faults::FaultPlan>,
}

impl Monitor {
    /// Bootstrap the monitoring half from a labeled, fully numeric
    /// reference dataset: size the window and derive per-cell conformance
    /// profiles. (The serving half — training the predictor — is the
    /// engine constructors' job.) A `confair.learn_opts` that
    /// [`LearnOptions::validate`](cf_conformance::LearnOptions::validate)
    /// rejects is a [`StreamError::Core`] invalid-configuration error.
    pub fn from_reference(
        reference: &Dataset,
        learner: LearnerKind,
        config: StreamConfig,
    ) -> Result<Self> {
        if reference.is_empty() {
            return Err(StreamError::EmptyReference);
        }
        crate::engine::ensure_all_numeric(reference)?;
        config
            .confair
            .learn_opts
            .validate()
            .map_err(|e| StreamError::from_core(CoreError::InvalidConfig(e)))?;
        let window = SlidingWindow::new(
            config.window,
            reference.num_attributes(),
            config.pending_labels,
            config.groups,
        )?;
        let profiles = learn_profiles(reference, &config);
        let detectors = vec![PageHinkley::new(config.detector); config.groups];
        let ladder = RepairLadder::idle(config.groups);
        Ok(Monitor {
            schema: reference.column_names().to_vec(),
            learner,
            config,
            profiles,
            window,
            detectors,
            alerts: Vec::new(),
            seen: 0,
            ids_issued: 0,
            retrains: 0,
            floor_quiet_until: 0,
            ladder,
            sink: None,
            metrics: None,
            degraded: false,
            telemetry_disabled: std::cell::Cell::new(0),
            telemetry_error: std::cell::RefCell::new(None),
            #[cfg(feature = "fault-injection")]
            faults: None,
        })
    }

    /// Install a deterministic fault schedule (test seam). The plan's
    /// counters are `Arc`-shared across clones, so a recovery clone
    /// resumes the schedule where the dead incarnation left it.
    #[cfg(feature = "fault-injection")]
    pub fn inject_faults(&mut self, plan: crate::faults::FaultPlan) {
        self.faults = Some(plan);
    }

    /// The monitor-thread failpoint: counts one observed batch against
    /// the installed fault schedule and dies if one is due. Called by the
    /// async monitor loop before each batch is folded in.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn observe_failpoint(&self) {
        if let Some(panics) = self.faults.as_ref().and_then(|p| p.monitor.as_ref()) {
            if panics.on_batch() {
                crate::faults::injected_panic();
            }
        }
    }

    /// Install a telemetry sink: every subsequent observable state change
    /// (ingest batch, alert, repair, feedback join, …) is emitted as a
    /// [`TelemetryEvent`]. Replaces any previous sink.
    pub fn set_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Remove the telemetry sink (emission stops immediately).
    pub fn clear_sink(&mut self) {
        self.sink = None;
    }

    /// Install metrics handles (the monitor half keeps the alert, retrain,
    /// join, and pending-label instruments fresh).
    pub fn set_metrics(&mut self, metrics: StreamMetrics) {
        self.metrics = Some(metrics);
    }

    /// Emit one event to the installed sink, if any. A poisoned sink lock
    /// (a panicked subscriber) disables telemetry rather than poisoning
    /// the stream — but *not silently*: each skipped event is counted
    /// (`cf_stream_telemetry_disabled_total`, plus
    /// [`Monitor::telemetry_disabled_count`]) and the condition surfaces
    /// through [`Monitor::telemetry_last_error`], so operators can see
    /// the trail died rather than discovering a truncated audit log at
    /// review time.
    pub(crate) fn emit(&self, event: TelemetryEvent) {
        if let Some(sink) = &self.sink {
            match sink.lock() {
                Ok(mut sink) => sink.emit(&event),
                Err(_) => {
                    self.telemetry_disabled
                        .set(self.telemetry_disabled.get() + 1);
                    *self.telemetry_error.borrow_mut() = Some(
                        "telemetry sink lock poisoned by a panicked subscriber; \
                         events are being dropped"
                            .to_string(),
                    );
                    if let Some(m) = &self.metrics {
                        m.telemetry_disabled_total.inc();
                    }
                }
            }
        }
    }

    /// Events dropped because the sink lock was poisoned.
    pub fn telemetry_disabled_count(&self) -> u64 {
        self.telemetry_disabled.get()
    }

    /// The most recent telemetry failure, if any (currently: a poisoned
    /// sink lock). `None` means the trail is healthy.
    pub fn telemetry_last_error(&self) -> Option<String> {
        self.telemetry_error.borrow().clone()
    }

    /// Whether the engine is serving in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Flip into degraded mode (emits the transition once; repeat
    /// failures while already degraded are visible as repair-end events).
    fn enter_degraded(&mut self, attempts: u64, error: &StreamError) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        self.emit(TelemetryEvent::DegradedMode(
            cf_telemetry::DegradedModeEvent {
                at_tuple: self.seen,
                entered: true,
                attempts,
                error: Some(error.to_string()),
                retrains: self.retrains,
            },
        ));
        if let Some(m) = &self.metrics {
            m.degraded.set(1.0);
        }
    }

    /// Leave degraded mode after a successful retrain (emits the
    /// transition once).
    pub(crate) fn clear_degraded(&mut self) {
        if !self.degraded {
            return;
        }
        self.degraded = false;
        self.emit(TelemetryEvent::DegradedMode(
            cf_telemetry::DegradedModeEvent {
                at_tuple: self.seen,
                entered: false,
                attempts: 0,
                error: None,
                retrains: self.retrains,
            },
        ));
        if let Some(m) = &self.metrics {
            m.degraded.set(0.0);
        }
    }

    /// Emit the model-swap event (called by whichever side publishes the
    /// replacement predictor: the sync engine inline, the async engine's
    /// monitor thread at the swap slot).
    pub(crate) fn emit_model_swap(&self) {
        self.emit(TelemetryEvent::ModelSwap(ModelSwapEvent {
            at_tuple: self.seen,
            retrains: self.retrains,
        }));
    }

    /// Refresh the monitor-side gauges after a state change.
    pub(crate) fn refresh_metrics(&self) {
        if let Some(m) = &self.metrics {
            m.alerts_total.set_u64(self.alerts.len() as u64);
            m.retrains_total.set_u64(self.retrains);
            m.pending_labels.set_u64(self.window.pending_len() as u64);
            m.window_fill.set_u64(self.window.len() as u64);
            let joins = self.window.join_stats();
            m.labels_joined.set_u64(joins.joined);
            m.labels_unmatched.set_u64(joins.unmatched);
            m.degraded.set(if self.degraded { 1.0 } else { 0.0 });
            m.repair_tier
                .set(f64::from(self.ladder.active.map_or(0, RepairTier::index)));
        }
    }

    /// Fold one served micro-batch into the monitoring state: per tuple a
    /// decision-conformance evaluation, an O(1) window/counter update, and
    /// one Page–Hinkley step; per batch one DI*-floor check and — under
    /// [`RetrainPolicy::OnAlert`] — at most one retrain, whose replacement
    /// predictor is handed back in [`ObserveOutcome::model`]. Everything
    /// here lives on the decision plane: a tuple's (optional) label only
    /// joins the label plane — at push time when present, or later through
    /// [`Monitor::feedback`].
    ///
    /// Tuple ids are assigned consecutively from the monitor's clock
    /// (starting at [`ObserveOutcome::first_id`]); use
    /// [`Monitor::observe_with_ids`] when the caller owns the id space.
    ///
    /// Callers guarantee the batch was validated against the schema and
    /// that `decisions` are the served decisions for exactly these tuples,
    /// in order.
    pub fn observe<T: Borrow<StreamTuple>>(
        &mut self,
        batch: &[T],
        decisions: &[u8],
    ) -> Result<ObserveOutcome> {
        self.observe_with_ids(batch, decisions, self.ids_issued)
    }

    /// [`Monitor::observe`] with caller-assigned tuple ids
    /// (`first_id..first_id + batch.len()`): the async engine's path,
    /// where the scorer issues ids and a record dropped under backpressure
    /// must leave a gap rather than shift every later join key.
    ///
    /// # Errors
    /// `first_id` may not fall behind ids already observed (joins are
    /// keyed by id, so a reused id would corrupt the label plane).
    pub fn observe_with_ids<T: Borrow<StreamTuple>>(
        &mut self,
        batch: &[T],
        decisions: &[u8],
        first_id: u64,
    ) -> Result<ObserveOutcome> {
        if first_id < self.ids_issued {
            return Err(StreamError::Schema(format!(
                "batch starts at id {first_id} but ids up to {} were already observed",
                self.ids_issued
            )));
        }
        if decisions.len() != batch.len() {
            return Err(StreamError::Schema(format!(
                "{} decisions for a batch of {} tuples",
                decisions.len(),
                batch.len()
            )));
        }
        if batch.is_empty() {
            return Ok(ObserveOutcome {
                first_id,
                alerts: Vec::new(),
                snapshot: self.snapshot(),
                retrained: false,
                retrain_error: None,
                model: None,
                repair: None,
            });
        }
        // Counter deltas are only needed for the audit trail; without a
        // sink the copy (and everything else telemetry adds) is skipped.
        let counts_before = self.sink.as_ref().map(|_| self.window.counts().to_vec());

        let mut new_alerts = Vec::new();
        for (offset, (t, &decision)) in batch.iter().zip(decisions).enumerate() {
            let tuple = t.borrow();
            let violated = self.violation_of(&tuple.features, tuple.group, decision)
                > self.config.conformance_eps;
            self.window.push(
                SlotMeta {
                    id: first_id + offset as u64,
                    group: tuple.group,
                    label: tuple.label,
                    decision,
                    violated,
                },
                &tuple.features,
            )?;
            self.seen += 1;
            if let Some(statistic) =
                self.detectors[tuple.group as usize].observe(f64::from(violated))
            {
                new_alerts.push(DriftAlert {
                    kind: DriftKind::ConformanceViolation,
                    group: tuple.group,
                    at_tuple: self.seen,
                    statistic,
                    threshold: self.config.detector.lambda,
                });
            }
        }
        self.ids_issued = first_id + batch.len() as u64;

        // One snapshot serves the floor check, the outcome, and the
        // post-retrain state alike: it reads only the windowed counters,
        // which the retraining hook never touches.
        let snapshot = self.snapshot();
        if snapshot.passes_di_floor() == Some(false)
            && self.window.len() >= self.config.floor_min_window
            && self.seen >= self.floor_quiet_until
        {
            // The cell on the losing side of the worst pair (at K=2 this
            // reproduces the classic rule: group U when `SR_U <= SR_W`,
            // else group W). The floor only fails when a worst pair
            // exists, so the fallback is unreachable in practice.
            let disadvantaged =
                SnapshotData::disadvantaged_cell(self.window.counts()).unwrap_or(0) as u8;
            new_alerts.push(DriftAlert {
                kind: DriftKind::DisparateImpactFloor,
                group: disadvantaged,
                at_tuple: self.seen,
                statistic: snapshot.di_star.unwrap_or(0.0),
                threshold: self.config.di_floor,
            });
            self.floor_quiet_until = self.seen + self.config.floor_cooldown;
        }

        // Log the alerts before attempting any retrain, so a retrain
        // failure never loses the events that triggered it. The audit
        // trail mirrors that order: batch, then its alerts (each with a
        // moved-cell explanation), then any repair events.
        self.alerts.extend_from_slice(&new_alerts);
        if let Some(before) = counts_before {
            let after = self.window.counts();
            self.emit(TelemetryEvent::IngestBatch(IngestBatchEvent {
                first_id,
                batch: batch.len() as u64,
                at_tuple: self.seen,
                di_floor: self.config.di_floor,
                delta: after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a.delta_from(b))
                    .collect(),
                snapshot: snapshot.to_data(),
            }));
            for alert in &new_alerts {
                self.emit(crate::telemetry::alert_event(alert, &snapshot));
            }
        }
        let mut retrain = None;
        let mut repair = None;
        if self.config.repair.ladder {
            // The escalation ladder owns repair end to end: the legacy
            // retrain-on-alert path is disabled so a DI-floor alert can
            // never trigger a tier-3 retrain before the cheap tiers had
            // their chance.
            (retrain, repair) = self.ladder_step(&snapshot);
        } else if !new_alerts.is_empty() {
            if let RetrainPolicy::OnAlert { min_window } = self.config.retrain {
                if self.window.len() >= min_window {
                    retrain = Some(self.run_retrain_episode());
                }
            }
        }
        self.refresh_metrics();

        let (retrained, retrain_error, model) = match retrain {
            Some(Ok(model)) => (true, None, Some(model)),
            Some(Err(e)) => (false, Some(e), None),
            None => (false, None, None),
        };
        Ok(ObserveOutcome {
            first_id,
            alerts: new_alerts,
            snapshot,
            retrained,
            retrain_error,
            model,
            repair,
        })
    }

    /// One repair *episode*: a bounded retry loop around
    /// [`Monitor::retrain_attempt`], bracketed by `repair_start`/`repair_end`
    /// trail events. Between failed attempts we back off with seeded
    /// jitter, and the whole episode is bounded by both an attempt budget
    /// and a wall-clock timeout. Exhausting the budget flips the engine
    /// into degraded mode: the stale model keeps serving, loudly, and the
    /// last attempt's error comes back.
    ///
    /// Shared verbatim by the legacy retrain-on-alert path and the
    /// ladder's tier 3, so both produce the same trail bytes and the same
    /// degraded-mode semantics.
    fn run_retrain_episode(&mut self) -> Result<SingleModelPredictor> {
        self.emit(TelemetryEvent::RepairStart(RepairStartEvent {
            at_tuple: self.seen,
            tier: "confair_retrain".into(),
            window_len: self.window.len() as u64,
            labeled: self.window.labeled_len() as u64,
        }));
        let started = std::time::Instant::now();
        let repair = self.config.repair;
        let mut backoff = repair.backoff(self.retrains);
        let mut attempts: u64 = 0;
        let outcome = loop {
            attempts += 1;
            let error = match self.retrain_attempt() {
                Ok(predictor) => break Ok(predictor),
                Err(e) => e,
            };
            let out_of_budget =
                attempts >= u64::from(repair.attempts()) || started.elapsed() >= repair.timeout();
            if out_of_budget {
                break Err(error);
            }
            let remaining = repair.timeout().saturating_sub(started.elapsed());
            let delay = backoff.next_delay().min(remaining);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        };
        let duration_us = started.elapsed().as_micros() as u64;
        if let Some(m) = &self.metrics {
            m.retrain_duration_us.observe(duration_us as f64);
        }
        self.emit(TelemetryEvent::RepairEnd(RepairEndEvent {
            at_tuple: self.seen,
            tier: "confair_retrain".into(),
            outcome: if outcome.is_ok() {
                "retrained"
            } else {
                "failed"
            }
            .into(),
            error: outcome.as_ref().err().map(|e| e.to_string()),
            duration_us,
            retrains: self.retrains,
        }));
        match &outcome {
            Ok(_) => self.clear_degraded(),
            Err(e) => self.enter_degraded(attempts, e),
        }
        outcome
    }

    /// One attempt of the retraining hook with any panic inside it
    /// contained and surfaced as [`StreamError::RetrainPanicked`]. Emits
    /// no trail events of its own; a failure counts in
    /// `cf_stream_retrain_failures_total`, whether an episode or
    /// `StreamEngine::retrain_now` made the attempt.
    pub(crate) fn retrain_attempt(&mut self) -> Result<SingleModelPredictor> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.retrain()))
            .unwrap_or_else(|payload| {
                Err(StreamError::RetrainPanicked(panic_text(payload.as_ref())))
            });
        if let (Err(_), Some(m)) = (&outcome, &self.metrics) {
            m.retrain_failures_total.inc();
        }
        outcome
    }

    /// One batch of the repair-escalation ladder (see [`crate::repair`]):
    /// driven purely by the windowed DI* reading against the floor, with
    /// the same `floor_min_window` evidence bar as the alert — but
    /// independent of `floor_cooldown`, which only rate-limits alert
    /// *emission*; the ladder keeps acting every unhealthy batch.
    ///
    /// Tier 3 additionally honours the retrain policy: it is entered only
    /// under [`RetrainPolicy::OnAlert`] with its `min_window` satisfied —
    /// otherwise the ladder holds at tier 2 (the cheap, label-free rungs
    /// are exactly what a never-retrain deployment still gets).
    ///
    /// Returns the tier-3 retrain episode's outcome, if one ran, and the
    /// overlay to publish, if the repair artifacts moved.
    fn ladder_step(
        &mut self,
        snapshot: &FairnessSnapshot,
    ) -> (Option<Result<SingleModelPredictor>>, Option<RepairOverlay>) {
        let repair = self.config.repair;
        let verdict = snapshot.passes_di_floor();
        let unhealthy = verdict == Some(false) && self.window.len() >= self.config.floor_min_window;

        if self.ladder.active.is_none() {
            if !unhealthy {
                return (None, None);
            }
            // Open an episode on the cheapest rung.
            self.ladder.batches_in_tier = 0;
            self.ladder.recovery_streak = 0;
            self.ladder.work_ns = 0;
            self.ladder.active = Some(RepairTier::ThresholdNudge);
            self.emit_repair_start(RepairTier::ThresholdNudge);
        }
        let tier = self.ladder.active.expect("episode opened above");

        if verdict == Some(true) {
            self.ladder.recovery_streak += 1;
            if self.ladder.recovery_streak >= repair.hold() {
                // De-escalate all the way: the episode closes, and the
                // installed repairs stay — they are what restored the
                // floor. Only a successful retrain resets them.
                self.emit_repair_end(tier, "recovered", None);
                self.ladder.active = None;
                self.ladder.batches_in_tier = 0;
                self.ladder.recovery_streak = 0;
            }
            return (None, None);
        }
        if !unhealthy {
            // An unobserved reading (or a still-thin window) is evidence
            // of nothing: it neither burns patience nor counts as
            // recovery.
            return (None, None);
        }
        self.ladder.recovery_streak = 0;
        self.ladder.batches_in_tier += 1;

        let mut overlay = None;
        match tier {
            RepairTier::ThresholdNudge => {
                if self.nudge_disadvantaged_cell() {
                    overlay = Some(self.repair_overlay());
                }
            }
            RepairTier::DiffFairProjection => {
                // Normally installed at escalation; this re-install only
                // fires for state restored from a checkpoint taken
                // mid-tier-2.
                if !self.ladder.projection {
                    self.ladder.projection = true;
                    overlay = Some(self.repair_overlay());
                }
            }
            // `active` never rests on tier 3 (entry runs the retrain and
            // immediately resolves to idle or tier 2), so there is no
            // per-batch action for it.
            RepairTier::ConFairRetrain => {}
        }

        if self.ladder.batches_in_tier < repair.patience() {
            return (None, overlay);
        }
        let Some(next) = tier.next() else {
            return (None, overlay);
        };
        if next == RepairTier::ConFairRetrain {
            let RetrainPolicy::OnAlert { min_window } = self.config.retrain else {
                // No retrain policy: the ladder tops out at tier 2.
                return (None, overlay);
            };
            if self.window.len() < min_window {
                return (None, overlay);
            }
            self.emit_repair_end(tier, "escalated", None);
            self.ladder.active = Some(RepairTier::ConFairRetrain);
            self.ladder.batches_in_tier = 0;
            // Tier 3 acts on entry: one bounded retrain episode (which
            // brackets itself with `confair_retrain` start/end events and
            // owns the degraded-mode transitions).
            let retrain = self.run_retrain_episode();
            if retrain.is_ok() {
                // Repaired at the root: the stream was re-profiled, so
                // the serve-time corrections no longer apply. Reset them
                // and close the episode.
                self.ladder.reset_artifacts();
                self.ladder.active = None;
                self.ladder.batches_in_tier = 0;
                self.ladder.recovery_streak = 0;
                overlay = Some(self.repair_overlay());
            } else {
                // Budget exhausted (the episode flagged degraded mode):
                // fall back to tier 2 so the cheap rungs keep serving
                // repairs while the retrain path is down. Another
                // `tier_patience` unhealthy batches re-enter tier 3.
                if !self.ladder.projection {
                    self.ladder.projection = true;
                    overlay = Some(self.repair_overlay());
                }
                self.ladder.active = Some(RepairTier::DiffFairProjection);
                self.ladder.batches_in_tier = 0;
                self.emit_repair_start(RepairTier::DiffFairProjection);
            }
            return (Some(retrain), overlay);
        }
        // Escalate to tier 2 and act immediately: install the projection.
        self.emit_repair_end(tier, "escalated", None);
        self.ladder.active = Some(next);
        self.ladder.batches_in_tier = 0;
        self.emit_repair_start(next);
        if !self.ladder.projection {
            let t0 = std::time::Instant::now();
            self.ladder.projection = true;
            overlay = Some(self.repair_overlay());
            self.ladder.work_ns += t0.elapsed().as_nanos() as u64;
        }
        (None, overlay)
    }

    /// Tier 1's action: lower the disadvantaged cell's margin cutoff by
    /// `nudge_step`, clamped at `-nudge_max`. Returns whether a threshold
    /// actually moved (at the clamp, nudging is exhausted and the batch
    /// only burns patience). Emits the `threshold_change` trail event and
    /// counts repair work into the episode's `work_ns`.
    fn nudge_disadvantaged_cell(&mut self) -> bool {
        let t0 = std::time::Instant::now();
        let Some(cell) = SnapshotData::disadvantaged_cell(self.window.counts()) else {
            return false;
        };
        let Some(slot) = self.ladder.thresholds.get_mut(cell) else {
            return false;
        };
        let step = self.config.repair.nudge_step.abs();
        let floor = -self.config.repair.nudge_max.abs();
        let nudged = (*slot - step).max(floor);
        if nudged == *slot {
            return false;
        }
        *slot = nudged;
        self.ladder.work_ns += t0.elapsed().as_nanos() as u64;
        if let Some(m) = &self.metrics {
            m.threshold_nudges_total.inc();
        }
        self.emit(TelemetryEvent::ThresholdChange(ThresholdChangeEvent {
            at_tuple: self.seen,
            tier: RepairTier::ThresholdNudge.wire_name().into(),
            cell: cell as u8,
            thresholds: self.ladder.thresholds.clone(),
        }));
        true
    }

    /// The full repair state as a scorer overlay (absolute thresholds;
    /// profiles attached while the projection is installed).
    pub(crate) fn repair_overlay(&self) -> RepairOverlay {
        RepairOverlay {
            thresholds: self.ladder.thresholds.clone(),
            projection: self.ladder.projection.then(|| self.profiles.clone()),
        }
    }

    /// Close any open ladder episode and zero the repair artifacts — a
    /// manual retrain re-profiled the stream exactly like a tier-3
    /// success, so serve-time corrections no longer apply. Returns the
    /// identity overlay for the scorer.
    pub(crate) fn reset_ladder(&mut self) -> RepairOverlay {
        if let Some(tier) = self.ladder.active.take() {
            self.emit_repair_end(tier, "retrained", None);
        }
        self.ladder.reset_artifacts();
        self.ladder.batches_in_tier = 0;
        self.ladder.recovery_streak = 0;
        self.ladder.work_ns = 0;
        self.repair_overlay()
    }

    fn emit_repair_start(&self, tier: RepairTier) {
        self.emit(TelemetryEvent::RepairStart(RepairStartEvent {
            at_tuple: self.seen,
            tier: tier.wire_name().into(),
            window_len: self.window.len() as u64,
            labeled: self.window.labeled_len() as u64,
        }));
    }

    fn emit_repair_end(&self, tier: RepairTier, outcome: &str, error: Option<String>) {
        self.emit(TelemetryEvent::RepairEnd(RepairEndEvent {
            at_tuple: self.seen,
            tier: tier.wire_name().into(),
            outcome: outcome.into(),
            error,
            duration_us: self.ladder.work_us(),
            retrains: self.retrains,
        }));
    }

    /// The rung of the open ladder episode, if one is open.
    pub fn repair_tier(&self) -> Option<RepairTier> {
        self.ladder.active()
    }

    /// The per-cell serve-time margin cutoffs currently in force
    /// (index = group cell id; all zeros means decisions sit at the
    /// model's native boundary).
    pub fn repair_thresholds(&self) -> &[f64] {
        self.ladder.thresholds()
    }

    /// Whether the tier-2 conformance projection is installed on the
    /// serving path.
    pub fn repair_projection_active(&self) -> bool {
        self.ladder.projection
    }

    /// Join late ground truth into the label plane: each record is matched
    /// by tuple id against the decision ring (labeled in place) or the
    /// pending-join index (served late), and the label-plane counters
    /// advance per join. Purely additive observation — no Page–Hinkley
    /// step, no floor check, no retrain: alerts remain the decision
    /// plane's job, so feedback stays O(log window) per record.
    ///
    /// Records for already-labeled, evicted-and-forgotten, or
    /// never-monitored tuples are counted
    /// ([`Monitor::join_stats`]), not errors — all are expected
    /// operational events under bounded memory and backpressure drops.
    /// That leniency extends to ids beyond this monitor's clock: in the
    /// async pipeline a dropped record leaves ids the monitor never saw,
    /// indistinguishable here from never-issued ones, so both resolve as
    /// unmatched. The *engines* — which own the true id clock — reject
    /// genuinely future ids with [`StreamError::FutureFeedback`] before
    /// anything reaches the monitor.
    ///
    /// # Errors
    /// The whole batch is validated first ([`StreamError::BadLabel`] for a
    /// non-binary label); a validation failure applies nothing.
    pub fn feedback(&mut self, feedback: &[LabelFeedback]) -> Result<FeedbackOutcome> {
        for record in feedback {
            if record.label >= 2 {
                return Err(StreamError::BadLabel(record.label));
            }
        }
        let counts_before = self
            .sink
            .as_ref()
            .filter(|_| !feedback.is_empty())
            .map(|_| self.window.counts().to_vec());
        let (mut joined, mut joined_late, mut duplicates, mut unmatched) = (0, 0, 0, 0);
        for record in feedback {
            match self.window.feedback(record.id, record.label) {
                LabelJoin::Joined => joined += 1,
                LabelJoin::JoinedLate => {
                    joined += 1;
                    joined_late += 1;
                }
                LabelJoin::Duplicate => duplicates += 1,
                LabelJoin::Unmatched => unmatched += 1,
            }
        }
        let snapshot = self.snapshot();
        if let Some(before) = counts_before {
            let after = self.window.counts();
            self.emit(TelemetryEvent::FeedbackJoin(FeedbackJoinEvent {
                at_tuple: self.seen,
                records: feedback.len() as u64,
                joined,
                joined_late,
                duplicates,
                unmatched,
                di_floor: self.config.di_floor,
                delta: after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| a.delta_from(b))
                    .collect(),
                snapshot: snapshot.to_data(),
            }));
        }
        self.refresh_metrics();
        Ok(FeedbackOutcome {
            joined,
            joined_late,
            duplicates,
            unmatched,
            snapshot,
        })
    }

    /// The retraining hook: re-run ConFair on the window's **labeled**
    /// contents (ground truth is what training needs; unlabeled slots are
    /// skipped), re-derive the reference profiles from the same labeled
    /// subset (the stream's new normal), reset the drift detectors, and
    /// return the replacement predictor for the caller to install into its
    /// scorer.
    pub fn retrain(&mut self) -> Result<SingleModelPredictor> {
        #[cfg(feature = "fault-injection")]
        if let Some(faults) = self.faults.as_ref().and_then(|p| p.retrain.as_ref()) {
            match faults.on_attempt() {
                Some(crate::faults::FaultKind::Error) => {
                    return Err(StreamError::Injected(format!(
                        "retrain attempt {}",
                        faults.attempts_seen().saturating_sub(1)
                    )));
                }
                Some(crate::faults::FaultKind::Panic) => crate::faults::injected_panic(),
                None => {}
            }
        }
        let data = self.window_dataset("stream-window")?;
        for label in [0u8, 1] {
            if data.label_count(label) < 2 {
                return Err(StreamError::DegenerateWindow(format!(
                    "window holds {} labeled tuples of class {label}; both classes are \
                     required to retrain",
                    data.label_count(label)
                )));
            }
        }
        let split = split3_stratified(&data, SplitRatios::paper_default(), self.seen);
        let predictor = ConFair::new(self.config.confair.clone())
            .fit(&split.train, &split.validation, self.learner)
            .map_err(StreamError::from_core)?;
        self.profiles = learn_profiles(&data, &self.config);
        for detector in &mut self.detectors {
            detector.reset();
        }
        self.retrains += 1;
        Ok(predictor)
    }

    /// The windowed fairness reading. O(1). Carries the live engine's
    /// degraded flag on top of the pure counter arithmetic.
    pub fn snapshot(&self) -> FairnessSnapshot {
        let mut s = FairnessSnapshot::from_counts(self.window.counts(), self.config.di_floor);
        s.degraded = self.degraded;
        s
    }

    /// Every alert raised since construction, in stream order.
    pub fn alerts(&self) -> &[DriftAlert] {
        &self.alerts
    }

    /// Total tuples observed.
    pub fn tuples_seen(&self) -> u64 {
        self.seen
    }

    /// How many times the retraining hook has run.
    pub fn retrain_count(&self) -> u64 {
        self.retrains
    }

    /// Tuples currently retained in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The raw windowed per-cell counters (index = group cell id, `0..K`).
    pub fn window_counts(&self) -> &[WindowCounters] {
        self.window.counts()
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The reference schema's column names.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Materialise the window's **labeled** contents as a dataset
    /// (newest-window training set for the retraining hook; also useful
    /// for audits). Slots whose ground truth has not joined yet are
    /// skipped — a dataset cannot carry a missing label, and training on
    /// fabricated ones would poison the retrain.
    ///
    /// # Errors
    /// [`StreamError::DegenerateWindow`] when no labeled slot is retained.
    pub fn window_dataset(&self, name: &str) -> Result<Dataset> {
        if self.window.is_empty() {
            return Err(StreamError::DegenerateWindow("window is empty".into()));
        }
        // Window slots were validated on ingestion, so assembly can't fail
        // on shape.
        let len = self.window.len();
        let d = self.schema.len();
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(len); d];
        let mut labels = Vec::with_capacity(len);
        let mut groups = Vec::with_capacity(len);
        for (meta, features) in self.window.iter() {
            let Some(label) = meta.label else { continue };
            for (j, &v) in features.iter().enumerate() {
                columns[j].push(v);
            }
            labels.push(label);
            groups.push(meta.group);
        }
        if labels.is_empty() {
            return Err(StreamError::DegenerateWindow(
                "window holds no labeled tuples (no ground truth has joined yet)".into(),
            ));
        }
        Dataset::new(
            name,
            self.schema.clone(),
            columns.into_iter().map(Column::Numeric).collect(),
            labels,
            groups,
        )
        .map_err(|e| StreamError::Schema(e.to_string()))
    }

    /// Cumulative label-join observability counters (joins, duplicates,
    /// unmatched records, pending-index evictions). Reset on restore, like
    /// the async engine's drop counters.
    pub fn join_stats(&self) -> JoinStats {
        self.window.join_stats()
    }

    /// Evicted decisions currently awaiting their labels in the
    /// pending-join index.
    pub fn pending_labels(&self) -> usize {
        self.window.pending_len()
    }

    /// Joined `(decision, label)` pairs currently in the label plane.
    pub fn labeled_len(&self) -> usize {
        self.window.labeled_len()
    }

    /// The next tuple id this monitor will assign (ids `0..ids_issued`
    /// are valid feedback keys; under async backpressure drops some of
    /// them were never monitored and will resolve as unmatched).
    pub fn ids_issued(&self) -> u64 {
        self.ids_issued
    }

    /// The violation of a tuple's features against its (group,
    /// **decision**) reference profile — the decision plane's conformance
    /// check, computable before any ground truth arrives (the served
    /// decision stands in for the label in picking the cell); 0 when the
    /// cell had too few reference rows to profile.
    fn violation_of(&self, features: &[f64], group: u8, decision: u8) -> f64 {
        // An out-of-range cell reads as "no profile" here so the window's
        // push is what rejects it — with the typed `BadGroup`, not an
        // index panic.
        match self
            .profiles
            .get(group as usize)
            .and_then(|cell| cell[decision as usize].as_ref())
        {
            Some(constraints) => constraints.violation(features),
            None => 0.0,
        }
    }
}

/// Conformance profiles per (group, label) cell of the reference data:
/// one profile per `(g, y)` cell for `g` in `0..K`, skipping cells with
/// too few reference rows.
pub(crate) fn learn_profiles(reference: &Dataset, config: &StreamConfig) -> CellProfiles {
    let mut profiles: CellProfiles = vec![Default::default(); config.groups];
    for (group, cell_profiles) in profiles.iter_mut().enumerate() {
        for label in 0..2u8 {
            let cell = CellIndex {
                group: group as u8,
                label,
            };
            let members = reference.cell_indices(cell);
            if members.len() < config.min_profile_rows {
                continue;
            }
            let x = reference.numeric_matrix(Some(&members));
            cell_profiles[label as usize] = Some(learn_constraints(&x, &config.confair.learn_opts));
        }
    }
    profiles
}

/// Best-effort stringification of a caught panic payload (the `&str` and
/// `String` cases cover `panic!` and the injected-fault seam; anything
/// else is opaque by construction).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully-labeled group's counters (every decision's label joined).
    fn counts(total: u64, selected: u64, label_pos: u64, tp: u64, viol: u64) -> WindowCounters {
        WindowCounters {
            total,
            selected,
            violations: viol,
            labeled: total,
            label_positive: label_pos,
            true_positive: tp,
            false_positive: selected.saturating_sub(tp),
        }
    }

    #[test]
    fn observe_checks_lengths_before_the_empty_batch_return() {
        let reference = cf_datasets::stream::DriftStreamSpec::default().reference(400, 1);
        let mut monitor =
            Monitor::from_reference(&reference, LearnerKind::Logistic, StreamConfig::default())
                .unwrap();
        let empty: &[StreamTuple] = &[];
        assert!(matches!(
            monitor.observe(empty, &[1]),
            Err(StreamError::Schema(_))
        ));
        assert!(monitor.observe(empty, &[]).is_ok());
    }

    #[test]
    fn balanced_window_is_fair() {
        let s = FairnessSnapshot::from_counts(
            &[counts(100, 50, 60, 40, 5), counts(100, 50, 60, 40, 5)],
            0.8,
        );
        assert_eq!(s.disparate_impact, Some(1.0));
        assert_eq!(s.di_star, Some(1.0));
        assert_eq!(s.demographic_parity_gap, Some(0.0));
        assert_eq!(s.equal_opportunity_gap, Some(0.0));
        assert_eq!(s.passes_di_floor(), Some(true));
        assert_eq!(s.window_len, 200);
    }

    #[test]
    fn skewed_selection_fails_the_four_fifths_rule() {
        // SR_W = 0.6, SR_U = 0.3 → DI = 0.5 < 0.8.
        let s = FairnessSnapshot::from_counts(
            &[counts(100, 60, 50, 40, 0), counts(100, 30, 50, 20, 0)],
            0.8,
        );
        assert!((s.disparate_impact.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(s.passes_di_floor(), Some(false));
        assert!((s.demographic_parity_gap.unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn di_star_symmetrises_reverse_bias() {
        // Minority over-selected: DI = 2.0 → DI* = 0.5.
        let s = FairnessSnapshot::from_counts(
            &[counts(100, 30, 50, 20, 0), counts(100, 60, 50, 40, 0)],
            0.8,
        );
        assert!((s.disparate_impact.unwrap() - 2.0).abs() < 1e-12);
        assert!((s.di_star.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_group_stream_yields_none_not_nan() {
        let s = FairnessSnapshot::from_counts(
            &[counts(100, 60, 50, 40, 3), WindowCounters::default()],
            0.8,
        );
        assert_eq!(s.disparate_impact, None);
        assert_eq!(s.di_star, None);
        assert_eq!(s.passes_di_floor(), None);
        assert_eq!(s.violation_rate[1], None);
        assert_eq!(s.selection_rate[0], Some(0.6));
        assert!(s.one_line().contains("--"));
    }

    #[test]
    fn zero_majority_selection_is_infinite_di() {
        let s = FairnessSnapshot::from_counts(
            &[counts(50, 0, 25, 0, 0), counts(50, 10, 25, 5, 0)],
            0.8,
        );
        assert_eq!(s.disparate_impact, Some(f64::INFINITY));
        assert_eq!(s.di_star, Some(0.0));
        // Nobody selected at all: vacuously balanced, not unfair.
        let quiet =
            FairnessSnapshot::from_counts(&[counts(50, 0, 25, 0, 0), counts(50, 0, 25, 0, 0)], 0.8);
        assert_eq!(quiet.disparate_impact, Some(1.0));
    }
}
