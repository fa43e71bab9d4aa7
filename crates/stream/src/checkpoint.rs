//! Durable checkpoint/restore for the stream engines.
//!
//! A restart used to lose the sliding-window counters and the per-group
//! Page–Hinkley state, reopening a warm-up gap in which drift goes
//! undetected — exactly the blind spot stream-fairness monitoring exists to
//! close. [`EngineCheckpoint`] captures a [`StreamEngine`](crate::StreamEngine)'s **complete**
//! serving and monitoring state — the fitted model parameters, the fitted
//! feature encoding, the per-(group, label) conformance profiles, the
//! sliding window (metadata + feature arena + derived counters), both
//! Page–Hinkley detectors (including warm-up/cooldown position), the alert
//! log, and the configuration — as one versioned JSON document via the
//! vendored serde shim.
//!
//! The contract, pinned by `tests/checkpoint_roundtrip.rs`: an engine
//! restored from a checkpoint produces **bit-identical** decisions,
//! snapshots, and alerts to one that never stopped, on the same subsequent
//! tuple sequence. No warm-up gap, no re-alert storm, no drifted decision
//! boundary.
//!
//! Corrupted documents fail loudly with typed [`StreamError`]s: truncated
//! JSON and missing fields surface as [`StreamError::Checkpoint`], a
//! version from an incompatible writer as
//! [`StreamError::CheckpointVersion`] — a restore never panics on external
//! input and never half-loads.
//!
//! One format caveat: JSON has no NaN or infinity. The codec writes a
//! non-finite float as `null` and refuses to read `null` (or an
//! overflowing literal) as one, so a document carrying such a value fails
//! to parse rather than restoring a stand-in. All engine-produced state is
//! finite: ingest rejects non-finite features.

use crate::drift::{DriftAlert, PageHinkleyState};
use crate::engine::StreamConfig;
use crate::window::WindowState;
use crate::{Result, StreamError};
use cf_learners::LearnerKind;
use confair_core::SingleModelPredictor;

/// The checkpoint format version this build writes. Bump on any
/// incompatible change to the serialised layout.
///
/// Version history:
/// * **1** — single-plane window: every slot fully labeled, no tuple ids.
///   Still readable: v1 documents are upgraded in place on parse — slots
///   get sequential ids, the label ring is derived from the (fully
///   labeled) window, and the pending-join index starts empty.
/// * **2** — two-plane window: slots carry ids and optional labels, the
///   document adds the label ring, the pending-join index, the
///   `pending_labels` bound, and the `ids_issued` clock.
/// * **3** — robustness state: the configuration gains the `repair`
///   retry/timeout budget and the document records whether the engine was
///   serving in degraded mode. Older documents upgrade in place with the
///   default budget and `degraded: false`.
/// * **4** — runtime-K group cells: the configuration gains `groups` (the
///   number of group cells; profiles are `groups*2` long and detectors
///   `groups` long). Older binary documents upgrade in place as
///   `groups: 2`, which restores them bit-identically to the binary
///   engine that wrote them.
/// * **5** — the repair escalation ladder: the document records the open
///   episode's rung (`repair_tier`, 0 = idle), the per-cell serve-time
///   thresholds, the patience/recovery counters, whether the tier-2
///   projection is installed, and the episode's accumulated repair work;
///   the configuration's `repair` budget gains the ladder knobs. Older
///   documents upgrade in place with the ladder idle and disabled — the
///   identity overlay — which restores them bit-identically to the
///   pre-ladder engine that wrote them.
pub const CHECKPOINT_VERSION: u32 = 5;

/// The oldest checkpoint format version this build can still read (via
/// the in-place upgrade in `from_json`).
pub const MIN_CHECKPOINT_VERSION: u32 = 1;

/// A complete, versioned snapshot of one [`StreamEngine`](crate::StreamEngine).
///
/// Produced by [`StreamEngine::checkpoint`](crate::StreamEngine::checkpoint), consumed by
/// [`StreamEngine::restore`](crate::StreamEngine::restore); serialised with [`EngineCheckpoint::to_json`]
/// / [`EngineCheckpoint::from_json`]. Fields are public so operators can
/// audit a checkpoint's contents (e.g. inspect the profiled constraints or
/// the alert log) without restoring it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EngineCheckpoint {
    /// Format version (see [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The reference schema's column names.
    pub schema: Vec<String>,
    /// The learner family used for (re)training.
    pub learner: LearnerKind,
    /// The full engine configuration, including the ConFair settings that
    /// drive on-alert retraining.
    pub config: StreamConfig,
    /// The fitted model parameters and feature encoding.
    pub predictor: SingleModelPredictor,
    /// Conformance profiles per (group, label) cell, flattened
    /// group-major: cell `(g, y)` at index `g*2 + y`, `groups*2` entries
    /// in all (for the binary layout:
    /// `[(g=0,y=0), (g=0,y=1), (g=1,y=0), (g=1,y=1)]`); `None` marks a
    /// cell too small to profile.
    pub profiles: Vec<Option<cf_conformance::ConstraintSet>>,
    /// The sliding window's logical contents (oldest first).
    pub window: WindowState,
    /// Per-cell Page–Hinkley detector state, index = group cell id (the
    /// binary layout is `[majority, minority]`).
    pub detectors: Vec<PageHinkleyState>,
    /// Every alert raised since construction, in stream order.
    pub alerts: Vec<DriftAlert>,
    /// Total tuples ingested.
    pub seen: u64,
    /// The engine's tuple-id clock: ids `0..ids_issued` have been served.
    /// Equals `seen` unless records were dropped under async backpressure.
    pub ids_issued: u64,
    /// Times the retraining hook has run.
    pub retrains: u64,
    /// Stream position until which DI-floor alerts stay suppressed
    /// (cooldown hysteresis).
    pub floor_quiet_until: u64,
    /// Whether the engine was serving in degraded mode (an on-alert
    /// repair episode had exhausted its budget without a later success).
    pub degraded: bool,
    /// The rung of the open repair-ladder episode (1-based
    /// [`RepairTier::index`](crate::RepairTier::index); 0 = no episode).
    pub repair_tier: u8,
    /// Per-cell serve-time margin cutoffs, index = group cell id. All
    /// zeros is the identity (the model's native decision boundary).
    pub repair_thresholds: Vec<f64>,
    /// Unhealthy batches observed on the current ladder rung.
    pub repair_batches_in_tier: u64,
    /// Consecutive floor-passing batches while the episode stays open.
    pub repair_recovery_streak: u64,
    /// Whether the tier-2 conformance projection was installed on the
    /// serving path (rebuilt on restore from `profiles`).
    pub repair_projection: bool,
    /// Repair work accumulated by the open episode, in whole µs rounded
    /// up.
    pub repair_work_us: u64,
}

/// Build the audit event for a checkpoint boundary (`phase` is
/// `"taken"` or `"restored"`). The event carries the **absolute** window
/// counters, because a `"restored"` event is how a replay re-anchors
/// mid-trail: deltas after a restart apply to the restored window, not to
/// whatever the pre-restart engine last logged.
pub(crate) fn checkpoint_event(
    monitor: &crate::Monitor,
    phase: &str,
) -> cf_telemetry::TelemetryEvent {
    cf_telemetry::TelemetryEvent::Checkpoint(cf_telemetry::CheckpointEvent {
        at_tuple: monitor.tuples_seen(),
        phase: phase.to_string(),
        version: CHECKPOINT_VERSION,
        counters: monitor.window_counts().to_vec(),
        di_floor: monitor.config().di_floor,
    })
}

/// Read the `version` field of a checkpoint document before anything else,
/// so an unsupported-version document reports
/// [`StreamError::CheckpointVersion`] rather than a field-level parse
/// error from a layout it never promised to match. Returns the version for
/// the caller to pick an upgrade path.
fn check_version(doc: &serde::Value) -> Result<u32> {
    let version = doc
        .get("version")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| StreamError::Checkpoint("missing or non-integer `version`".into()))?;
    if version < u64::from(MIN_CHECKPOINT_VERSION) || version > u64::from(CHECKPOINT_VERSION) {
        return Err(StreamError::CheckpointVersion {
            found: version as u32,
            expected: CHECKPOINT_VERSION,
        });
    }
    Ok(version as u32)
}

fn parse_document(json: &str) -> Result<serde::Value> {
    serde_json::from_str(json).map_err(|e| StreamError::Checkpoint(e.to_string()))
}

/// Replace (or insert) one field of a JSON object value.
fn set_field(obj: &mut serde::Value, key: &str, value: serde::Value) -> Result<()> {
    match obj {
        serde::Value::Object(fields) => {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                fields.push((key.to_string(), value));
            }
            Ok(())
        }
        other => Err(StreamError::Checkpoint(format!(
            "expected an object to carry `{key}`, got {}",
            other.kind()
        ))),
    }
}

fn field<'v>(doc: &'v serde::Value, key: &str) -> Result<&'v serde::Value> {
    doc.get_or_err(key)
        .map_err(|e| StreamError::Checkpoint(e.to_string()))
}

/// Upgrade one engine-checkpoint object from format v1 to v2, in place on
/// the value tree. A v1 document predates delayed labels, so it is by
/// construction **fully labeled**: every window slot keeps its label
/// (numbers parse as `Some`), slots get the sequential ids
/// `seen - len .. seen` they had implicitly, the label ring is derived
/// from the window itself (in a fully-labeled window the two rings move in
/// lockstep), the pending-join index starts empty, and the id clock equals
/// `seen`.
fn upgrade_v1_engine(doc: &mut serde::Value) -> Result<()> {
    let seen = field(doc, "seen")?
        .as_u64()
        .ok_or_else(|| StreamError::Checkpoint("v1 `seen` is not an integer".into()))?;
    let meta = field(field(doc, "window")?, "meta")?
        .as_array()
        .ok_or_else(|| StreamError::Checkpoint("v1 window `meta` is not an array".into()))?
        .clone();
    let first_id = seen.checked_sub(meta.len() as u64).ok_or_else(|| {
        StreamError::Checkpoint(format!(
            "v1 window holds {} slots but only {seen} were ever seen",
            meta.len()
        ))
    })?;

    let mut new_meta = Vec::with_capacity(meta.len());
    let mut labels = Vec::with_capacity(meta.len());
    for (i, slot) in meta.into_iter().enumerate() {
        let mut slot = slot;
        set_field(
            &mut slot,
            "id",
            serde::Value::Number((first_id + i as u64) as f64),
        )?;
        // The label ring of a fully-labeled window mirrors the window.
        labels.push(serde::Value::Object(vec![
            ("group".into(), field(&slot, "group")?.clone()),
            ("decision".into(), field(&slot, "decision")?.clone()),
            ("label".into(), field(&slot, "label")?.clone()),
        ]));
        new_meta.push(slot);
    }

    let window = match doc.get("window") {
        Some(w) => {
            let mut w = w.clone();
            set_field(&mut w, "meta", serde::Value::Array(new_meta))?;
            set_field(&mut w, "labels", serde::Value::Array(labels))?;
            set_field(&mut w, "pending", serde::Value::Array(Vec::new()))?;
            w
        }
        None => unreachable!("field() above guarantees a window"),
    };
    set_field(doc, "window", window)?;

    let config = {
        let mut c = field(doc, "config")?.clone();
        set_field(
            &mut c,
            "pending_labels",
            serde::Value::Number(crate::StreamConfig::default().pending_labels as f64),
        )?;
        c
    };
    set_field(doc, "config", config)?;
    set_field(doc, "ids_issued", serde::Value::Number(seen as f64))?;
    set_field(doc, "version", serde::Value::Number(2.0))?;
    Ok(())
}

/// Upgrade one engine-checkpoint object from format v2 to v3, in place: a
/// v2 document predates the repair budget and degraded mode, so the
/// configuration gains the default [`RepairConfig`](crate::RepairConfig)
/// and the engine restores healthy.
fn upgrade_v2_engine(doc: &mut serde::Value) -> Result<()> {
    let config = {
        let mut c = field(doc, "config")?.clone();
        set_field(
            &mut c,
            "repair",
            serde_json::to_value(&crate::supervise::RepairConfig::default()),
        )?;
        c
    };
    set_field(doc, "config", config)?;
    set_field(doc, "degraded", serde::Value::Bool(false))?;
    set_field(doc, "version", serde::Value::Number(3.0))?;
    Ok(())
}

/// Upgrade one engine-checkpoint object from format v3 to v4, in place: a
/// v3 document was written by the hard-wired binary engine, so the
/// configuration gains `groups: 2` — its 2 detectors and 4 cell profiles
/// already have exactly the K=2 shape.
fn upgrade_v3_engine(doc: &mut serde::Value) -> Result<()> {
    let config = {
        let mut c = field(doc, "config")?.clone();
        set_field(&mut c, "groups", serde::Value::Number(2.0))?;
        c
    };
    set_field(doc, "config", config)?;
    set_field(doc, "version", serde::Value::Number(4.0))?;
    Ok(())
}

/// Upgrade one engine-checkpoint object from format v4 to v5, in place: a
/// v4 document predates the repair escalation ladder, so it restores with
/// the ladder idle, the identity overlay installed (all-zero thresholds,
/// no projection), and the ladder disabled in the configuration's repair
/// budget — bit-identical behaviour to the engine that wrote it.
fn upgrade_v4_engine(doc: &mut serde::Value) -> Result<()> {
    let groups = field(field(doc, "config")?, "groups")?
        .as_u64()
        .ok_or_else(|| StreamError::Checkpoint("v4 `groups` is not an integer".into()))?
        as usize;
    let config = {
        let mut c = field(doc, "config")?.clone();
        let repair = {
            // The nested repair budget gains the ladder knobs (the shim's
            // object model is a flat field list, so nested injection is
            // clone → set → write back).
            let mut r = field(&c, "repair")?.clone();
            let defaults = crate::supervise::RepairConfig::default();
            set_field(&mut r, "ladder", serde::Value::Bool(false))?;
            set_field(
                &mut r,
                "tier_patience",
                serde::Value::Number(f64::from(defaults.tier_patience)),
            )?;
            set_field(
                &mut r,
                "nudge_step",
                serde::Value::Number(defaults.nudge_step),
            )?;
            set_field(
                &mut r,
                "nudge_max",
                serde::Value::Number(defaults.nudge_max),
            )?;
            set_field(
                &mut r,
                "recovery_hold",
                serde::Value::Number(f64::from(defaults.recovery_hold)),
            )?;
            r
        };
        set_field(&mut c, "repair", repair)?;
        c
    };
    set_field(doc, "config", config)?;
    set_field(doc, "repair_tier", serde::Value::Number(0.0))?;
    set_field(
        doc,
        "repair_thresholds",
        serde::Value::Array(vec![serde::Value::Number(0.0); groups]),
    )?;
    set_field(doc, "repair_batches_in_tier", serde::Value::Number(0.0))?;
    set_field(doc, "repair_recovery_streak", serde::Value::Number(0.0))?;
    set_field(doc, "repair_projection", serde::Value::Bool(false))?;
    set_field(doc, "repair_work_us", serde::Value::Number(0.0))?;
    set_field(doc, "version", serde::Value::Number(5.0))?;
    Ok(())
}

/// Run the in-place upgrade chain on one engine-checkpoint object whose
/// writer's format was `version`, leaving it at [`CHECKPOINT_VERSION`].
/// Each step writes the literal version it upgrades *to*, so the chain
/// stays correct when later versions are appended.
fn upgrade_engine(doc: &mut serde::Value, version: u32) -> Result<()> {
    if version < 2 {
        upgrade_v1_engine(doc)?;
    }
    if version < 3 {
        upgrade_v2_engine(doc)?;
    }
    if version < 4 {
        upgrade_v3_engine(doc)?;
    }
    if version < 5 {
        upgrade_v4_engine(doc)?;
    }
    Ok(())
}

impl EngineCheckpoint {
    /// Serialise to a compact JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation is infallible")
    }

    /// Serialise to a pretty-printed JSON document (for artifacts meant to
    /// be read or diffed by operators).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serialisation is infallible")
    }

    /// Parse a checkpoint document, upgrading still-supported older
    /// formats in place (a v1 document restores as a fully-labeled
    /// two-plane engine with an empty pending-join index).
    ///
    /// # Errors
    /// [`StreamError::CheckpointVersion`] for a document written by an
    /// unsupported format version; [`StreamError::Checkpoint`] for
    /// malformed JSON or missing/ill-typed fields. Never panics.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut doc = parse_document(json)?;
        let version = check_version(&doc)?;
        if version < CHECKPOINT_VERSION {
            upgrade_engine(&mut doc, version)?;
        }
        serde::Deserialize::from_value(&doc).map_err(|e| StreamError::Checkpoint(e.to_string()))
    }
}

/// A coherent snapshot of every shard of a
/// [`ShardedEngine`](crate::ShardedEngine), taken between batches.
///
/// [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) takes `&mut
/// self`, so no batch can be in flight while
/// [`ShardedEngine::checkpoint`](crate::ShardedEngine::checkpoint) borrows
/// the engine — the per-shard snapshots are mutually consistent by
/// construction, not by locking.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ShardedCheckpoint {
    /// Format version (see [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// One engine checkpoint per shard, indexed by shard id.
    pub shards: Vec<EngineCheckpoint>,
}

impl ShardedCheckpoint {
    /// Serialise to a compact JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation is infallible")
    }

    /// Serialise to a pretty-printed JSON document.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serialisation is infallible")
    }

    /// Parse a sharded checkpoint document, upgrading still-supported
    /// older formats shard by shard.
    ///
    /// # Errors
    /// Same contract as [`EngineCheckpoint::from_json`]: typed errors,
    /// never a panic.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut doc = parse_document(json)?;
        let version = check_version(&doc)?;
        if version < CHECKPOINT_VERSION {
            let mut shards = field(&doc, "shards")?
                .as_array()
                .ok_or_else(|| StreamError::Checkpoint("`shards` is not an array".into()))?
                .clone();
            for shard in &mut shards {
                upgrade_engine(shard, version)?;
            }
            set_field(&mut doc, "shards", serde::Value::Array(shards))?;
            set_field(
                &mut doc,
                "version",
                serde::Value::Number(f64::from(CHECKPOINT_VERSION)),
            )?;
        }
        serde::Deserialize::from_value(&doc).map_err(|e| StreamError::Checkpoint(e.to_string()))
    }
}

/// Validation shared by [`StreamEngine::restore`](crate::StreamEngine::restore): every cross-field
/// invariant a well-formed checkpoint satisfies, checked up front so a
/// tampered document is rejected before any state is built.
pub(crate) fn validate(ckpt: &EngineCheckpoint) -> Result<()> {
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(StreamError::CheckpointVersion {
            found: ckpt.version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let d = ckpt.schema.len();
    if ckpt.window.dim != d {
        return Err(StreamError::Checkpoint(format!(
            "window stride {} disagrees with the {d}-column schema",
            ckpt.window.dim
        )));
    }
    if ckpt.window.capacity != ckpt.config.window {
        return Err(StreamError::Checkpoint(format!(
            "window capacity {} disagrees with configured window {}",
            ckpt.window.capacity, ckpt.config.window
        )));
    }
    ckpt.config
        .confair
        .learn_opts
        .validate()
        .map_err(StreamError::Checkpoint)?;
    let groups = ckpt.config.groups;
    if groups == 0 || groups > 256 {
        return Err(StreamError::Checkpoint(format!(
            "configured groups must be 1..=256, got {groups}"
        )));
    }
    if ckpt.detectors.len() != groups {
        return Err(StreamError::Checkpoint(format!(
            "expected {groups} detector states (one per group cell), got {}",
            ckpt.detectors.len()
        )));
    }
    if ckpt.repair_thresholds.len() != groups {
        return Err(StreamError::Checkpoint(format!(
            "expected {groups} repair thresholds (one per group cell), got {}",
            ckpt.repair_thresholds.len()
        )));
    }
    if ckpt.repair_tier > 3 {
        return Err(StreamError::Checkpoint(format!(
            "repair tier {} is not a ladder rung (0..=3)",
            ckpt.repair_tier
        )));
    }
    if ckpt.profiles.len() != groups * 2 {
        return Err(StreamError::Checkpoint(format!(
            "expected {} cell profiles, got {}",
            groups * 2,
            ckpt.profiles.len()
        )));
    }
    for (i, profile) in ckpt.profiles.iter().enumerate() {
        if let Some(set) = profile {
            for p in set.projections() {
                if p.coeffs.len() != d {
                    return Err(StreamError::Checkpoint(format!(
                        "cell-{i} constraint projects {} attributes; the schema has {d}",
                        p.coeffs.len()
                    )));
                }
            }
        }
    }
    if ckpt.predictor.encoding().num_columns() != d {
        return Err(StreamError::Checkpoint(format!(
            "feature encoding covers {} columns; the schema has {d}",
            ckpt.predictor.encoding().num_columns()
        )));
    }
    if ckpt.predictor.model().kind() != ckpt.learner {
        return Err(StreamError::Checkpoint(format!(
            "model kind {} disagrees with the engine's learner {}",
            ckpt.predictor.model().kind().name(),
            ckpt.learner.name()
        )));
    }
    if (ckpt.window.meta.len() as u64) > ckpt.seen {
        return Err(StreamError::Checkpoint(format!(
            "window holds {} tuples but only {} were ever seen",
            ckpt.window.meta.len(),
            ckpt.seen
        )));
    }
    if ckpt.ids_issued < ckpt.seen {
        return Err(StreamError::Checkpoint(format!(
            "id clock {} behind the {} tuples seen",
            ckpt.ids_issued, ckpt.seen
        )));
    }
    if let Some(newest) = ckpt.window.meta.last() {
        if newest.id >= ckpt.ids_issued {
            return Err(StreamError::Checkpoint(format!(
                "window holds tuple id {} but the id clock is {}",
                newest.id, ckpt.ids_issued
            )));
        }
    }
    if (ckpt.window.labels.len() as u64) > ckpt.seen {
        return Err(StreamError::Checkpoint(format!(
            "label ring holds {} pairs but only {} tuples were ever seen",
            ckpt.window.labels.len(),
            ckpt.seen
        )));
    }
    if let Some(pending_newest) = ckpt.window.pending.last() {
        if pending_newest.id >= ckpt.ids_issued {
            return Err(StreamError::Checkpoint(format!(
                "pending-join entry {} beyond the id clock {}",
                pending_newest.id, ckpt.ids_issued
            )));
        }
    }
    // Ring bounds, id monotonicity, pending/ring overlap, and in-range
    // groups/binary labels are enforced by the window replay itself
    // (`SlidingWindow::from_state`).
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_gate_reads_the_version_first() {
        // A document that is *only* a wrong version must report the
        // version mismatch, not a missing-field error.
        let err = EngineCheckpoint::from_json(r#"{"version": 999}"#).unwrap_err();
        assert!(matches!(
            err,
            StreamError::CheckpointVersion {
                found: 999,
                expected: CHECKPOINT_VERSION
            }
        ));
    }

    #[test]
    fn garbage_is_a_typed_error() {
        for garbage in ["", "{", "[1,2", "null", r#"{"version": "one"}"#] {
            assert!(
                matches!(
                    EngineCheckpoint::from_json(garbage),
                    Err(StreamError::Checkpoint(_))
                ),
                "{garbage:?} must fail as Checkpoint"
            );
            assert!(ShardedCheckpoint::from_json(garbage).is_err());
        }
    }
}
