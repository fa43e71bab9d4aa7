//! The online scoring and monitoring engine.
//!
//! [`StreamEngine`] bootstraps from a labeled reference dataset: it trains
//! a fairness-intervened model (ConFair) and profiles every (group, label)
//! cell with conformance constraints. Micro-batches then flow through
//! [`StreamEngine::ingest`]: each tuple is scored, checked against its
//! cell's reference constraints, folded into the sliding window's O(1)
//! counters, and fed to its group's Page–Hinkley detector. Alerts are typed
//! [`DriftAlert`] events; with [`RetrainPolicy::OnAlert`] the engine
//! re-runs ConFair on the window's contents — the non-invasive repair loop
//! the paper's drift framing implies.
//!
//! Since the engine split, `StreamEngine` is a thin *synchronous*
//! composition of the two halves that do the actual work: a
//! [`Scorer`] (the latency-critical forward pass) and a
//! [`Monitor`] (window, detectors, profiles, retrain
//! policy). `ingest` runs score → observe → install back-to-back on the
//! caller's thread, so its behaviour is exactly the pre-split engine's;
//! [`AsyncEngine`](crate::AsyncEngine) composes the same two halves across
//! a bounded queue instead, returning decisions without waiting for the
//! monitoring work.

use crate::checkpoint::EngineCheckpoint;
use crate::drift::{DriftAlert, PageHinkley, PageHinkleyConfig};
use crate::monitor::{CellProfiles, FairnessSnapshot, Monitor};
use crate::repair::{RepairLadder, RepairTier};
use crate::scorer::Scorer;
use crate::supervise::RepairConfig;
use crate::telemetry::StreamMetrics;
use crate::window::SlidingWindow;
use crate::{Result, StreamError};
use cf_data::{
    split::{split3_stratified, SplitRatios},
    Dataset,
};
use cf_learners::LearnerKind;
use cf_telemetry::{MetricsRegistry, SharedSink, WindowCounters};
use confair_core::confair::{ConFair, ConFairConfig};
use std::borrow::Borrow;

/// One arriving observation: features in the reference schema's column
/// order, the sensitive-group id, and — when serving is lucky enough to
/// have it already — the ground-truth label. Real feedback loops deliver
/// labels late or never, so `label` is optional: an unlabeled tuple is
/// served and drift-monitored normally (decision plane), and its ground
/// truth joins later through [`StreamEngine::feedback`] keyed by the
/// tuple id the engine assigned at ingest
/// ([`IngestOutcome::first_id`] + offset).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTuple {
    /// Numeric attribute values, one per reference column.
    pub features: Vec<f64>,
    /// Group cell id, `0..K` (the default binary layout is 0 = majority
    /// `W`, 1 = minority `U`; `K` is [`StreamConfig::groups`]).
    pub group: u8,
    /// Ground-truth label, if already known at ingest; `None` defers it to
    /// a later feedback join.
    pub label: Option<u8>,
}

impl StreamTuple {
    /// Convert a (fully numeric) dataset's rows into labeled stream
    /// tuples, in row order — the bridge from `cf-datasets` generators to
    /// the engine.
    pub fn rows_from_dataset(data: &Dataset) -> Result<Vec<StreamTuple>> {
        Self::rows_inner(data, true)
    }

    /// [`StreamTuple::rows_from_dataset`] with the ground truth withheld:
    /// every tuple arrives with `label: None`, the delayed/partial-label
    /// serving regime (deliver the dataset's labels later through
    /// [`StreamEngine::feedback`]).
    pub fn rows_unlabeled_from_dataset(data: &Dataset) -> Result<Vec<StreamTuple>> {
        Self::rows_inner(data, false)
    }

    fn rows_inner(data: &Dataset, labeled: bool) -> Result<Vec<StreamTuple>> {
        ensure_all_numeric(data)?;
        // Gather straight from the column storage instead of materialising
        // the full `numeric_matrix` and then copying every row again.
        let columns: Vec<&[f64]> = (0..data.num_attributes())
            .map(|j| {
                data.column(j)
                    .as_numeric()
                    .expect("ensure_all_numeric guarantees numeric columns")
            })
            .collect();
        Ok((0..data.len())
            .map(|i| StreamTuple {
                features: columns.iter().map(|c| c[i]).collect(),
                group: data.groups()[i],
                label: labeled.then(|| data.labels()[i]),
            })
            .collect())
    }
}

/// One late-arriving ground-truth record, joined into the label plane by
/// [`StreamEngine::feedback`] (or its async/sharded counterparts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelFeedback {
    /// The tuple's stream id: [`IngestOutcome::first_id`] plus the tuple's
    /// offset within its ingest batch.
    pub id: u64,
    /// The ground-truth label.
    pub label: u8,
}

/// When the engine retrains itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainPolicy {
    /// Monitor only; callers may still invoke
    /// [`StreamEngine::retrain_now`] themselves.
    Never,
    /// Re-run ConFair on the window after any alert, provided the window
    /// holds at least `min_window` tuples.
    OnAlert {
        /// Minimum window fill before a retrain is meaningful.
        min_window: usize,
    },
}

impl serde::Serialize for RetrainPolicy {
    fn serialize(&self, w: &mut serde::Writer) {
        match *self {
            RetrainPolicy::Never => w.str("never"),
            RetrainPolicy::OnAlert { min_window } => {
                #[derive(serde::Serialize)]
                struct OnAlert {
                    min_window: usize,
                }
                w.object(|w| w.field(b"\"on_alert\":", &OnAlert { min_window }));
            }
        }
    }
}

impl serde::Deserialize for RetrainPolicy {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        if v.as_str() == Some("never") {
            return Ok(RetrainPolicy::Never);
        }
        if let Some(on_alert) = v.get("on_alert") {
            return Ok(RetrainPolicy::OnAlert {
                min_window: serde::Deserialize::from_value(on_alert.get_or_err("min_window")?)?,
            });
        }
        Err(serde::Error::msg("unknown retrain policy"))
    }
}

/// Engine configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StreamConfig {
    /// Sliding-window capacity (tuples).
    pub window: usize,
    /// Per-group Page–Hinkley settings for the violation series.
    pub detector: PageHinkleyConfig,
    /// The EEOC four-fifths floor on windowed DI*.
    pub di_floor: f64,
    /// Tuples required in the window before the DI floor is judged.
    pub floor_min_window: usize,
    /// Tuples to wait between consecutive floor alerts (hysteresis).
    pub floor_cooldown: u64,
    /// A tuple violates its cell's constraints when the violation exceeds
    /// this threshold.
    pub conformance_eps: f64,
    /// Minimum cell population in the reference before a constraint
    /// profile is derived for it.
    pub min_profile_rows: usize,
    /// Bound on the pending-join index: how many tuples evicted from the
    /// window while still unlabeled are remembered so their ground truth
    /// can join late. Oldest entries are dropped (and counted) beyond the
    /// bound; size it to `expected label delay − window` tuples, 0 to
    /// forget unlabeled tuples at eviction.
    pub pending_labels: usize,
    /// The ConFair configuration used for the initial fit and for
    /// retraining (its `learn_opts` also drive the reference profiles).
    pub confair: ConFairConfig,
    /// Retraining behaviour.
    pub retrain: RetrainPolicy,
    /// Retry/timeout budget for an on-alert repair episode; exhausting it
    /// flips the engine into degraded mode (stale model keeps serving).
    pub repair: RepairConfig,
    /// Number of group cells `K` (`1..=256`): tuples carry a group id in
    /// `0..K`, and every per-group structure — windowed counters,
    /// conformance profiles, Page–Hinkley detectors — is sized to `K` at
    /// construction. The default, 2, is the paper's binary
    /// majority/minority layout; intersectional monitoring flattens an
    /// axis product into one cell id per combination (see
    /// [`GroupLayout`](crate::GroupLayout)).
    pub groups: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 2_000,
            detector: PageHinkleyConfig::default(),
            di_floor: 0.8,
            floor_min_window: 400,
            floor_cooldown: 2_000,
            conformance_eps: 1e-9,
            min_profile_rows: 8,
            pending_labels: 4_096,
            confair: ConFairConfig::default(),
            retrain: RetrainPolicy::Never,
            repair: RepairConfig::default(),
            groups: 2,
        }
    }
}

/// What one `ingest` call produced.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The stream id assigned to the batch's first tuple; tuple `k` of the
    /// batch has id `first_id + k`. These ids are the join keys that later
    /// [`LabelFeedback`] records address.
    pub first_id: u64,
    /// The served decision for each tuple of the batch, in order.
    pub decisions: Vec<u8>,
    /// Alerts raised by this batch (also appended to the engine's log).
    pub alerts: Vec<DriftAlert>,
    /// The windowed fairness reading after the batch.
    pub snapshot: FairnessSnapshot,
    /// Whether the retraining hook ran successfully.
    pub retrained: bool,
    /// Why an attempted on-alert retrain failed, if it did. The batch's
    /// decisions and alerts above are valid either way — a retrain
    /// failure never invalidates the serving work already done.
    pub retrain_error: Option<StreamError>,
}

/// The online fairness-drift monitoring and serving engine — a synchronous
/// composition of a [`Scorer`] and a
/// [`Monitor`].
///
/// # Example
///
/// Bootstrap from reference data, serve a micro-batch, then checkpoint and
/// restore — the restored engine picks up at the exact same state:
///
/// ```
/// use cf_datasets::stream::{DriftStream, DriftStreamSpec};
/// use cf_learners::LearnerKind;
/// use cf_stream::{EngineCheckpoint, StreamConfig, StreamEngine, StreamTuple};
/// use confair_core::confair::{AlphaMode, ConFairConfig};
///
/// let spec = DriftStreamSpec::default();
/// let reference = spec.reference(600, 7);
/// let config = StreamConfig {
///     window: 256,
///     // Fixed degrees skip the α grid search — quick to bootstrap.
///     confair: ConFairConfig {
///         alpha: AlphaMode::Fixed { alpha_u: 2.0, alpha_w: 1.0 },
///         ..ConFairConfig::default()
///     },
///     ..StreamConfig::default()
/// };
/// let mut engine = StreamEngine::from_reference(&reference, LearnerKind::Logistic, 7, config)?;
///
/// let mut stream = DriftStream::new(spec, 1);
/// let batch = StreamTuple::rows_from_dataset(&stream.next_batch(100))?;
/// let outcome = engine.ingest(&batch)?;
/// assert_eq!(outcome.decisions.len(), 100);
/// println!("{}", outcome.snapshot); // windowed DI*, gaps, violation rates
///
/// // Durable state: round-trip through JSON, restore, same position.
/// let document = engine.checkpoint()?.to_json();
/// let restored = StreamEngine::restore(EngineCheckpoint::from_json(&document)?)?;
/// assert_eq!(restored.tuples_seen(), engine.tuples_seen());
/// assert_eq!(restored.snapshot(), engine.snapshot());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct StreamEngine {
    scorer: Scorer,
    monitor: Monitor,
    /// Serving-side metrics handles ([`StreamEngine::install_metrics`]);
    /// the monitor half carries its own clone.
    metrics: Option<StreamMetrics>,
}

impl StreamEngine {
    /// Bootstrap from a labeled, fully numeric reference dataset: train
    /// ConFair on a stratified split and derive per-cell conformance
    /// profiles from the full reference.
    pub fn from_reference(
        reference: &Dataset,
        learner: LearnerKind,
        seed: u64,
        config: StreamConfig,
    ) -> Result<Self> {
        let monitor = Monitor::from_reference(reference, learner, config)?;
        let split = split3_stratified(reference, SplitRatios::paper_default(), seed);
        let predictor = ConFair::new(monitor.config().confair.clone())
            .fit(&split.train, &split.validation, learner)
            .map_err(StreamError::from_core)?;
        let scorer = Scorer::new(monitor.schema().to_vec(), predictor);
        Ok(StreamEngine {
            scorer,
            monitor,
            metrics: None,
        })
    }

    /// Install a telemetry sink: every observable state change — ingest
    /// batches with per-cell counter deltas, alerts with moved-cell
    /// explanations, repair start/end, model swaps, checkpoints, feedback
    /// joins — is emitted as a [`cf_telemetry::TelemetryEvent`]. With no
    /// sink installed (the default) the emission paths are skipped
    /// entirely. For an async pipeline, install on the inner engine
    /// *before* [`AsyncEngine::from_engine`](crate::AsyncEngine::from_engine)
    /// so the sink travels with the monitor to its thread.
    pub fn set_sink(&mut self, sink: SharedSink) {
        self.monitor.set_sink(sink);
    }

    /// Register this engine's instruments on `registry` (see
    /// [`StreamMetrics`] for the families) and start keeping them fresh.
    /// Both halves share the handles, so they survive an
    /// [`StreamEngine::into_parts`] split and the async wrap.
    pub fn install_metrics(&mut self, registry: &MetricsRegistry) {
        let metrics = StreamMetrics::register(registry);
        self.monitor.set_metrics(metrics.clone());
        self.metrics = Some(metrics);
    }

    /// Install pre-registered metrics handles (the sharded router's path,
    /// where each shard gets a labeled instrument set).
    pub fn set_metrics(&mut self, metrics: StreamMetrics) {
        self.monitor.set_metrics(metrics.clone());
        self.metrics = Some(metrics);
    }

    /// The engine's metrics handles, if installed.
    pub fn metrics(&self) -> Option<&StreamMetrics> {
        self.metrics.as_ref()
    }

    /// Reunite the two halves into a synchronous engine (the inverse of
    /// [`StreamEngine::into_parts`]).
    ///
    /// # Errors
    /// [`StreamError::Schema`] when the halves disagree on the reference
    /// schema — composing a scorer with somebody else's monitor would
    /// silently mis-evaluate every conformance constraint.
    pub fn from_parts(scorer: Scorer, monitor: Monitor) -> Result<Self> {
        if scorer.schema() != monitor.schema() {
            return Err(StreamError::Schema(format!(
                "scorer schema {:?} disagrees with monitor schema {:?}",
                scorer.schema(),
                monitor.schema()
            )));
        }
        let metrics = monitor.metrics.clone();
        let mut scorer = scorer;
        // Re-arm the serving overlay from the monitor's ladder state: the
        // halves may have been apart (async pipeline) with a repair
        // publication still in flight when they reunite. Identity state
        // re-applies as the identity, so this never perturbs a
        // ladder-free engine.
        scorer.apply_repair(monitor.repair_overlay());
        Ok(StreamEngine {
            scorer,
            monitor,
            metrics,
        })
    }

    /// Split the engine into its serving and monitoring halves — the seam
    /// the async engine builds on (the scorer stays on the caller's
    /// thread, the monitor moves behind the queue).
    pub fn into_parts(self) -> (Scorer, Monitor) {
        (self.scorer, self.monitor)
    }

    /// Score and monitor one micro-batch. O(1) work per tuple beyond the
    /// model's forward pass: counter updates, one constraint evaluation,
    /// and one Page–Hinkley step.
    ///
    /// # Errors
    /// Batch validation errors (schema, non-finite feature, group, label)
    /// reject the whole batch before anything is ingested. A failed
    /// on-alert retrain is *not* an `ingest` error: the batch was served
    /// and ingested, so its outcome is returned with the failure in
    /// [`IngestOutcome::retrain_error`] — failing the call would discard
    /// the served decisions and invite a double-counting retry.
    pub fn ingest(&mut self, batch: &[StreamTuple]) -> Result<IngestOutcome> {
        validate_batch(
            batch.iter().map(Ok),
            self.schema().len(),
            self.config().groups,
        )?;
        self.ingest_prevalidated(batch)
    }

    /// Ingestion after validation: callers guarantee every tuple matches
    /// the schema width and has an in-range group (`< K`) and binary
    /// label. The sharded router enters here once it has validated the
    /// whole mixed batch (for whole-batch rejection semantics), with
    /// borrowed per-shard sub-batches — or, for a one-shard fleet, the
    /// routed `ShardedTuple` slice itself through its
    /// `Borrow<StreamTuple>` view, with no per-tuple gather at all.
    pub(crate) fn ingest_prevalidated<T: Borrow<StreamTuple>>(
        &mut self,
        batch: &[T],
    ) -> Result<IngestOutcome> {
        let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let decisions = self.scorer.score(batch)?;
        let outcome = self.monitor.observe(batch, &decisions)?;
        if let Some(model) = outcome.model {
            // Synchronous composition: a retrain's replacement model is
            // live before the next batch is scored, exactly as before the
            // split.
            self.scorer.install(model);
            self.monitor.emit_model_swap();
        }
        if let Some(overlay) = outcome.repair {
            // Same synchronous publication for ladder repairs: nudged
            // thresholds (or a reset after a successful retrain) govern
            // the very next batch. The sharded per-shard paths funnel
            // through here too, so one install point covers both.
            self.scorer.apply_repair(overlay);
        }
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.ingest_latency_us
                .observe(started.elapsed().as_secs_f64() * 1e6);
            m.ingest_batches.inc();
            m.ingest_tuples.add(batch.len() as u64);
        }
        Ok(IngestOutcome {
            first_id: outcome.first_id,
            decisions,
            alerts: outcome.alerts,
            snapshot: outcome.snapshot,
            retrained: outcome.retrained,
            retrain_error: outcome.retrain_error,
        })
    }

    /// Join late ground truth into the label plane by tuple id (see
    /// [`Monitor::feedback`] for the join semantics). Works for tuples
    /// still in the window and — through the bounded pending-join index —
    /// for tuples that have already rotated out; records for forgotten
    /// tuples are counted, not errors.
    ///
    /// # Errors
    /// [`StreamError::BadLabel`] for a non-binary label,
    /// [`StreamError::FutureFeedback`] for an id not issued yet; the whole
    /// batch is validated before anything joins.
    pub fn feedback(&mut self, feedback: &[LabelFeedback]) -> Result<crate::FeedbackOutcome> {
        for record in feedback {
            validate_feedback(record, self.monitor.ids_issued())?;
        }
        self.monitor.feedback(feedback)
    }

    /// The retraining hook: re-run ConFair on the window's contents, swap
    /// in the new model, re-derive the reference profiles from the window
    /// (the stream's new normal), and reset the drift detectors. A panic
    /// inside retraining is contained and surfaced as
    /// [`StreamError::RetrainPanicked`]; a success clears degraded mode.
    pub fn retrain_now(&mut self) -> Result<()> {
        let predictor = self.monitor.retrain_attempt()?;
        self.scorer.install(predictor);
        self.monitor.emit_model_swap();
        self.monitor.clear_degraded();
        if self.monitor.config().repair.ladder {
            // A manual retrain re-profiles the stream the same way a
            // tier-3 success does: serve-time corrections no longer
            // apply, so the ladder resets and the scorer's overlay
            // returns to the identity.
            let overlay = self.monitor.reset_ladder();
            self.scorer.apply_repair(overlay);
        }
        self.monitor.refresh_metrics();
        Ok(())
    }

    /// The rung of the open repair-ladder episode, if one is open (`None`
    /// while the ladder is idle or disabled).
    pub fn repair_tier(&self) -> Option<RepairTier> {
        self.monitor.repair_tier()
    }

    /// The per-cell serve-time margin cutoffs in force (index = group
    /// cell id; all zeros means the model's native boundary).
    pub fn repair_thresholds(&self) -> &[f64] {
        self.monitor.repair_thresholds()
    }

    /// Whether the tier-2 conformance projection is installed on the
    /// serving path.
    pub fn repair_projection_active(&self) -> bool {
        self.monitor.repair_projection_active()
    }

    /// Whether the engine is serving in degraded mode (an on-alert repair
    /// episode exhausted its [`RepairConfig`] budget; the stale model
    /// keeps serving until a later retrain succeeds).
    pub fn is_degraded(&self) -> bool {
        self.monitor.is_degraded()
    }

    /// Audit events dropped because the telemetry sink lock was poisoned
    /// by a panicked subscriber.
    pub fn telemetry_disabled_count(&self) -> u64 {
        self.monitor.telemetry_disabled_count()
    }

    /// The most recent telemetry failure, if any (`None` = healthy trail).
    pub fn telemetry_last_error(&self) -> Option<String> {
        self.monitor.telemetry_last_error()
    }

    /// Install a deterministic fault plan (test/chaos builds only): the
    /// plan's seams fire inside this engine's retrain and monitor paths,
    /// byte-for-byte reproducibly.
    #[cfg(feature = "fault-injection")]
    pub fn inject_faults(&mut self, plan: crate::faults::FaultPlan) {
        self.monitor.inject_faults(plan);
    }

    /// Snapshot the engine's complete serving and monitoring state as a
    /// versioned [`EngineCheckpoint`]: model parameters, feature encoding,
    /// conformance profiles, the sliding window, both Page–Hinkley
    /// detectors (with their warm-up/cooldown position), the alert log,
    /// and the configuration. Restoring via [`StreamEngine::restore`]
    /// yields an engine whose subsequent decisions, snapshots, and alerts
    /// are bit-identical to this engine's — no warm-up gap, no re-alert
    /// storm.
    ///
    /// # Errors
    /// None today: a served predictor always serialises. The `Result`
    /// stays so that callers keep one signature across engine kinds.
    pub fn checkpoint(&self) -> Result<EngineCheckpoint> {
        let ckpt = checkpoint_from_parts(&self.scorer, &self.monitor);
        self.monitor
            .emit(crate::checkpoint::checkpoint_event(&self.monitor, "taken"));
        Ok(ckpt)
    }

    /// Rebuild an engine from a checkpoint. The restored engine serves,
    /// monitors, and alerts bit-identically to the engine that produced
    /// the checkpoint — including the retraining hook, whose window
    /// contents, split seed, and detector resets all derive from the
    /// restored state.
    ///
    /// # Errors
    /// [`StreamError::CheckpointVersion`] for an incompatible format
    /// version; [`StreamError::Checkpoint`] for any internal inconsistency
    /// (stride/schema disagreement, missing detector states, an encoding
    /// fitted on a different column count, …). Validation happens up
    /// front: a corrupted checkpoint never half-loads.
    pub fn restore(ckpt: EngineCheckpoint) -> Result<Self> {
        crate::checkpoint::validate(&ckpt)?;
        let window = SlidingWindow::from_state(
            &ckpt.window,
            ckpt.config.pending_labels,
            ckpt.config.groups,
        )?;
        // The checkpoint stores profiles flat in (group, label)-major
        // order: cell (g, y) at index g*2 + y. `validate` pinned the
        // counts to `groups*2` profiles and `groups` detectors.
        let mut profiles: CellProfiles = vec![Default::default(); ckpt.config.groups];
        for (i, profile) in ckpt.profiles.into_iter().enumerate() {
            profiles[i / 2][i % 2] = profile;
        }
        let detectors: Vec<PageHinkley> = ckpt
            .detectors
            .iter()
            .map(|state| PageHinkley::from_state(ckpt.config.detector, state))
            .collect();
        let mut scorer = Scorer::new(ckpt.schema.clone(), ckpt.predictor);
        let ladder = RepairLadder {
            active: RepairTier::from_index(ckpt.repair_tier),
            batches_in_tier: ckpt.repair_batches_in_tier,
            recovery_streak: ckpt.repair_recovery_streak,
            thresholds: ckpt.repair_thresholds,
            projection: ckpt.repair_projection,
            work_ns: ckpt.repair_work_us.saturating_mul(1_000),
        };
        let monitor = Monitor {
            schema: ckpt.schema,
            learner: ckpt.learner,
            config: ckpt.config,
            profiles,
            window,
            detectors,
            alerts: ckpt.alerts,
            seen: ckpt.seen,
            ids_issued: ckpt.ids_issued,
            retrains: ckpt.retrains,
            floor_quiet_until: ckpt.floor_quiet_until,
            ladder,
            sink: None,
            metrics: None,
            degraded: ckpt.degraded,
            telemetry_disabled: std::cell::Cell::new(0),
            telemetry_error: std::cell::RefCell::new(None),
            #[cfg(feature = "fault-injection")]
            faults: None,
        };
        // Re-arm the serving overlay so a checkpoint that caught a live
        // repair episode (or repairs left installed after recovery)
        // resumes at a bit-identical decision boundary. The tier-2
        // projection is rebuilt from the checkpointed conformance
        // profiles, same as the live publication.
        scorer.apply_repair(monitor.repair_overlay());
        Ok(StreamEngine {
            scorer,
            monitor,
            metrics: None,
        })
    }

    /// [`StreamEngine::restore`] with a telemetry sink installed up
    /// front, emitting a `"restored"` checkpoint event that carries the
    /// absolute window counters — the re-anchor a replayed audit trail
    /// needs when a restarted engine appends to an existing JSONL file
    /// (see [`cf_telemetry::JsonlSink::append`]).
    pub fn restore_with_sink(ckpt: EngineCheckpoint, sink: SharedSink) -> Result<Self> {
        let mut engine = Self::restore(ckpt)?;
        engine.set_sink(sink);
        engine.monitor.emit(crate::checkpoint::checkpoint_event(
            &engine.monitor,
            "restored",
        ));
        Ok(engine)
    }

    /// The windowed fairness reading. O(1).
    pub fn snapshot(&self) -> FairnessSnapshot {
        self.monitor.snapshot()
    }

    /// Every alert raised since construction, in stream order.
    pub fn alerts(&self) -> &[DriftAlert] {
        self.monitor.alerts()
    }

    /// Total tuples ingested.
    pub fn tuples_seen(&self) -> u64 {
        self.monitor.tuples_seen()
    }

    /// The engine's tuple-id clock: ids `0..ids_issued()` are valid
    /// feedback keys. Equals [`StreamEngine::tuples_seen`] unless the
    /// state was restored from an async engine that dropped records under
    /// backpressure.
    pub fn ids_issued(&self) -> u64 {
        self.monitor.ids_issued()
    }

    /// How many times the retraining hook has run.
    pub fn retrain_count(&self) -> u64 {
        self.monitor.retrain_count()
    }

    /// Tuples currently retained in the window.
    pub fn window_len(&self) -> usize {
        self.monitor.window_len()
    }

    /// The raw windowed per-cell counters (index = group cell id, `0..K`).
    /// Additive across engines — the basis of cross-shard snapshot merging.
    pub fn window_counts(&self) -> &[WindowCounters] {
        self.monitor.window_counts()
    }

    /// Cumulative label-join counters (joins, duplicates, unmatched
    /// records, pending-index evictions); reset on restore.
    pub fn join_stats(&self) -> crate::JoinStats {
        self.monitor.join_stats()
    }

    /// Evicted decisions currently awaiting their labels in the
    /// pending-join index.
    pub fn pending_labels(&self) -> usize {
        self.monitor.pending_labels()
    }

    /// Joined `(decision, label)` pairs currently in the label plane.
    pub fn labeled_len(&self) -> usize {
        self.monitor.labeled_len()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        self.monitor.config()
    }

    /// The reference schema's column names.
    pub fn schema(&self) -> &[String] {
        self.monitor.schema()
    }

    /// Materialise the window's contents as a dataset (newest-window
    /// training set for the retraining hook; also useful for audits).
    pub fn window_dataset(&self, name: &str) -> Result<Dataset> {
        self.monitor.window_dataset(name)
    }
}

/// Assemble a versioned checkpoint from an engine's two halves — shared by
/// the sync engine (which borrows its own halves) and the async engine
/// (which pairs its local scorer with the monitor clone the background
/// thread hands back at a quiescent point).
pub(crate) fn checkpoint_from_parts(scorer: &Scorer, monitor: &Monitor) -> EngineCheckpoint {
    EngineCheckpoint {
        version: crate::checkpoint::CHECKPOINT_VERSION,
        schema: monitor.schema.clone(),
        learner: monitor.learner,
        config: monitor.config.clone(),
        predictor: scorer.predictor().clone(),
        profiles: monitor
            .profiles
            .iter()
            .flat_map(|row| row.iter().cloned())
            .collect(),
        window: monitor.window.state(),
        detectors: monitor.detectors.iter().map(PageHinkley::state).collect(),
        alerts: monitor.alerts.clone(),
        seen: monitor.seen,
        ids_issued: monitor.ids_issued,
        retrains: monitor.retrains,
        floor_quiet_until: monitor.floor_quiet_until,
        degraded: monitor.degraded,
        repair_tier: monitor.ladder.active.map_or(0, RepairTier::index),
        repair_thresholds: monitor.ladder.thresholds.clone(),
        repair_batches_in_tier: monitor.ladder.batches_in_tier,
        repair_recovery_streak: monitor.ladder.recovery_streak,
        repair_projection: monitor.ladder.projection,
        repair_work_us: monitor.ladder.work_us(),
    }
}

/// Validate a whole batch against a schema of width `d` and `groups`
/// cells before anything is scored; the first failure in batch order
/// rejects the batch. Each item is a tuple or the routing error that
/// rejects it (the routers resolve shard ids on the way in, so a bad
/// shard id fails at its own batch position). Shared by the
/// single-engine, async, and sharded-router ingestion paths so the checks
/// cannot drift apart.
pub(crate) fn validate_batch<'a>(
    batch: impl Iterator<Item = Result<&'a StreamTuple>>,
    d: usize,
    groups: usize,
) -> Result<()> {
    for (i, tuple) in batch.enumerate() {
        let tuple = tuple?;
        if tuple.features.len() != d {
            return Err(StreamError::Schema(format!(
                "tuple {i} has {} features; the reference schema has {d}",
                tuple.features.len()
            )));
        }
        // A branch-free scan vectorises; the offender is located only on
        // failure.
        if !tuple.features.iter().fold(true, |ok, x| ok & x.is_finite()) {
            let feature = tuple
                .features
                .iter()
                .position(|x| !x.is_finite())
                .expect("the scan saw a non-finite feature");
            return Err(StreamError::NonFinite { tuple: i, feature });
        }
        if usize::from(tuple.group) >= groups {
            return Err(StreamError::BadGroup(tuple.group));
        }
        if let Some(label) = tuple.label {
            if label >= 2 {
                return Err(StreamError::BadLabel(label));
            }
        }
    }
    Ok(())
}

/// Validate one late label against an engine's id clock (`issued` ids
/// served so far). Shared by every engine and router so a feedback batch
/// is judged the same way everywhere, before anything joins.
pub(crate) fn validate_feedback(record: &LabelFeedback, issued: u64) -> Result<()> {
    if record.label >= 2 {
        return Err(StreamError::BadLabel(record.label));
    }
    if record.id >= issued {
        return Err(StreamError::FutureFeedback {
            id: record.id,
            issued,
        });
    }
    Ok(())
}

pub(crate) fn ensure_all_numeric(data: &Dataset) -> Result<()> {
    let numeric = data.numeric_column_indices().len();
    if numeric != data.num_attributes() {
        return Err(StreamError::Schema(format!(
            "streaming requires all-numeric attributes; {} of {} are categorical",
            data.num_attributes() - numeric,
            data.num_attributes()
        )));
    }
    Ok(())
}
