//! Replay an audit trail back into the run that wrote it.
//!
//! The contract: a JSONL trail written by
//! [`JsonlSink`](crate::JsonlSink) replays into the **byte-identical**
//! snapshot and alert sequence of the live run. [`replay`] does not trust
//! the recorded snapshots — it accumulates each event's per-cell
//! [`CounterDelta`](crate::CounterDelta)s into running
//! [`WindowCounters`] and *recomputes* every
//! reading through [`SnapshotData::from_counters`], the same arithmetic
//! the live engine used. Each recomputed reading is then checked against
//! the recorded one, which makes the trail **self-verifying**: a
//! tampered or truncated log surfaces as [`ReplayError::SnapshotMismatch`]
//! or [`ReplayError::CounterUnderflow`], not as silently wrong output.
//!
//! The check compares the two readings as written JSON text rather than
//! as parsed structs, because JSON cannot carry non-finite floats: a
//! disparate impact of ∞ is recorded as `null`, and parsing it back would
//! read `None` where the live run had `Some(∞)`. Written out, both are
//! `null`, and every finite number writes the bytes it was read from, so
//! the recomputed sequence, serialised, is exactly the recorded bytes.

use crate::event::{DriftAlert, SnapshotData, TelemetryEvent, WindowCounters};
use serde::{Deserialize, Serialize, Value, Writer};
use std::path::Path;

/// Why a trail failed to replay. Every variant names the 1-based JSONL
/// line it arose on.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The line is not a well-formed event.
    Parse {
        /// 1-based line number.
        line: u64,
        /// The parser's message.
        message: String,
    },
    /// Applying a delta would drive a window counter negative — the trail
    /// is truncated mid-stream or corrupt.
    CounterUnderflow {
        /// 1-based line number.
        line: u64,
    },
    /// A recomputed snapshot disagrees with the recorded one — the trail
    /// was tampered with, or writer and replayer disagree on arithmetic.
    SnapshotMismatch {
        /// 1-based line number.
        line: u64,
    },
    /// An event carries a different number of group cells than the trail
    /// established — trails from engines with different `K` were spliced.
    CellCountMismatch {
        /// 1-based line number.
        line: u64,
    },
    /// The trail could not be read at all (file-level I/O).
    Io(
        /// The I/O error message.
        String,
    ),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Parse { line, message } => {
                write!(f, "audit line {line}: {message}")
            }
            ReplayError::CounterUnderflow { line } => write!(
                f,
                "audit line {line}: delta drives a window counter negative \
                 (trail truncated or corrupt)"
            ),
            ReplayError::SnapshotMismatch { line } => write!(
                f,
                "audit line {line}: recomputed snapshot disagrees with the recorded one \
                 (trail tampered with?)"
            ),
            ReplayError::CellCountMismatch { line } => write!(
                f,
                "audit line {line}: event carries a different group-cell count than \
                 the trail established (trails from different K spliced?)"
            ),
            ReplayError::Io(e) => write!(f, "audit trail unreadable: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Everything a replayed trail reconstructs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayedRun {
    /// The fairness readings, one per window-advancing event
    /// (ingest-batch and feedback-join), in stream order — recomputed
    /// from the deltas and verified against the recorded values.
    pub snapshots: Vec<SnapshotData>,
    /// Every drift alert, in stream order.
    pub alerts: Vec<DriftAlert>,
    /// The final per-cell window counters — K-length, sized from the
    /// first window-advancing or re-anchoring event in the trail.
    pub counters: Vec<WindowCounters>,
    /// Events processed.
    pub events: u64,
    /// Cumulative tuples lost to backpressure, per the trail's last drop
    /// event (0 when none were recorded).
    pub dropped_tuples: u64,
    /// Cumulative successful retrains, per the trail's last repair-end /
    /// model-swap event.
    pub retrains: u64,
    /// Monitor restarts recorded in the trail.
    pub restarts: u64,
    /// Total tuples the trail explicitly accounts as served-but-never-
    /// monitored, summed over every monitor-restart event's gap.
    pub gap_tuples: u64,
    /// Whether the trail's last degraded-mode transition left the engine
    /// degraded (`false` when none were recorded).
    pub degraded: bool,
}

/// `v` as compact JSON bytes.
fn written(v: &(impl Serialize + ?Sized)) -> Vec<u8> {
    let mut w = Writer::compact();
    v.serialize(&mut w);
    w.into_bytes()
}

/// Apply a window-advancing event's deltas, recompute the reading, and
/// verify it against the recorded one, as written text. The first such
/// event sizes the accumulator to the trail's cell count K; later events
/// must agree.
fn advance(
    counters: &mut Vec<WindowCounters>,
    delta: &[crate::event::CounterDelta],
    di_floor: f64,
    recorded: Option<&Value>,
    line: u64,
) -> Result<SnapshotData, ReplayError> {
    if counters.is_empty() {
        counters.resize(delta.len(), WindowCounters::default());
    } else if counters.len() != delta.len() {
        return Err(ReplayError::CellCountMismatch { line });
    }
    for group in 0..counters.len() {
        counters[group] = counters[group]
            .apply(&delta[group])
            .ok_or(ReplayError::CounterUnderflow { line })?;
    }
    let recomputed = SnapshotData::from_counters(counters, di_floor);
    if let Some(recorded) = recorded {
        if written(&recomputed) != written(recorded) {
            return Err(ReplayError::SnapshotMismatch { line });
        }
    }
    Ok(recomputed)
}

/// Replay a JSONL audit trail (the full file contents) into the run that
/// wrote it. Blank lines are skipped; everything else must parse.
///
/// # Errors
/// [`ReplayError::Parse`] on a malformed line,
/// [`ReplayError::CounterUnderflow`] / [`ReplayError::SnapshotMismatch`]
/// when the trail's deltas and snapshots disagree with each other.
pub fn replay(jsonl: &str) -> Result<ReplayedRun, ReplayError> {
    let mut run = ReplayedRun::default();
    for (idx, raw) in jsonl.lines().enumerate() {
        let line = idx as u64 + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(raw).map_err(|e| ReplayError::Parse {
            line,
            message: e.to_string(),
        })?;
        let event = TelemetryEvent::from_value(&value).map_err(|e| ReplayError::Parse {
            line,
            message: e.to_string(),
        })?;
        run.events += 1;
        match &event {
            TelemetryEvent::IngestBatch(e) => {
                let snapshot = advance(
                    &mut run.counters,
                    &e.delta,
                    e.di_floor,
                    value.get("snapshot"),
                    line,
                )?;
                run.snapshots.push(snapshot);
            }
            TelemetryEvent::FeedbackJoin(e) => {
                let snapshot = advance(
                    &mut run.counters,
                    &e.delta,
                    e.di_floor,
                    value.get("snapshot"),
                    line,
                )?;
                run.snapshots.push(snapshot);
            }
            TelemetryEvent::DriftAlert(e) => run.alerts.push(e.alert.clone()),
            TelemetryEvent::Checkpoint(e) => {
                // A restore re-anchors the window mid-trail: subsequent
                // deltas apply to the restored counters, not whatever the
                // pre-restart engine left behind.
                if e.phase == "restored" {
                    run.counters = e.counters.clone();
                }
            }
            TelemetryEvent::Drop(e) => run.dropped_tuples = e.tuples,
            TelemetryEvent::RepairEnd(e) => run.retrains = run.retrains.max(e.retrains),
            TelemetryEvent::ModelSwap(e) => run.retrains = run.retrains.max(e.retrains),
            TelemetryEvent::MonitorRestart(e) => {
                // A restart resumes from an older coherent clone: like a
                // restored checkpoint, the event's absolute counters
                // re-anchor the window, and its gap names the tuples no
                // later event will ever account for.
                run.counters = e.counters.clone();
                run.restarts += 1;
                run.gap_tuples += e.gap_tuples;
                // The rollback covers the degraded flag too: the clone
                // predates any transition the dead incarnation logged.
                run.degraded = e.degraded;
            }
            TelemetryEvent::DegradedMode(e) => run.degraded = e.entered,
            TelemetryEvent::RepairStart(_) => {}
            // Threshold motion changes the serving boundary, not the
            // windowed counters a replay reconstructs.
            TelemetryEvent::ThresholdChange(_) => {}
        }
    }
    Ok(run)
}

/// [`replay`] over a file on disk.
///
/// # Errors
/// [`ReplayError::Io`] when the file cannot be read, plus everything
/// [`replay`] reports.
pub fn replay_file(path: impl AsRef<Path>) -> Result<ReplayedRun, ReplayError> {
    let text =
        std::fs::read_to_string(path.as_ref()).map_err(|e| ReplayError::Io(e.to_string()))?;
    replay(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        AlertExplanation, CheckpointEvent, CounterDelta, DriftAlertEvent, DriftKind, DropEvent,
        IngestBatchEvent,
    };
    use crate::sink::{EventSink, JsonlSink, RingSink};

    fn delta(total: i64, selected: i64) -> CounterDelta {
        CounterDelta {
            total,
            selected,
            ..CounterDelta::default()
        }
    }

    /// Build a consistent two-batch trail by running the same
    /// accumulate-and-snapshot loop a live monitor would.
    fn trail_lines() -> Vec<String> {
        let mut counters = [WindowCounters::default(); 2];
        let deltas = [[delta(10, 6), delta(10, 3)], [delta(10, 5), delta(10, 2)]];
        let mut lines = Vec::new();
        let mut seen = 0;
        for step in deltas {
            for g in 0..2 {
                counters[g] = counters[g].apply(&step[g]).unwrap();
            }
            seen += 20;
            let event = TelemetryEvent::IngestBatch(IngestBatchEvent {
                first_id: seen - 20,
                batch: 20,
                at_tuple: seen,
                di_floor: 0.8,
                delta: step.to_vec(),
                snapshot: SnapshotData::from_counters(&counters, 0.8),
            });
            lines.push(serde_json::to_string(&event).unwrap());
        }
        lines
    }

    #[test]
    fn replay_recomputes_and_verifies() {
        let lines = trail_lines();
        let run = replay(&lines.join("\n")).unwrap();
        assert_eq!(run.events, 2);
        assert_eq!(run.snapshots.len(), 2);
        assert_eq!(run.counters[0].total, 20);
        assert_eq!(run.counters[0].selected, 11);
        assert_eq!(run.snapshots[1].window_len, 40);
    }

    #[test]
    fn tampered_snapshot_is_detected() {
        let lines = trail_lines();
        // Flip a recorded selection count without touching the delta.
        let tampered = lines[1].replace("\"window_len\":40", "\"window_len\":41");
        assert_ne!(tampered, lines[1], "tamper target must exist");
        let err = replay(&format!("{}\n{}", lines[0], tampered)).unwrap_err();
        assert_eq!(err, ReplayError::SnapshotMismatch { line: 2 });
    }

    #[test]
    fn truncated_head_is_detected_as_underflow() {
        let mut counters = [WindowCounters::default(); 2];
        let fill = [delta(10, 6), delta(10, 3)];
        for g in 0..2 {
            counters[g] = counters[g].apply(&fill[g]).unwrap();
        }
        // An eviction-heavy batch: net negative without its predecessor.
        let shrink = [delta(-4, -2), delta(0, 0)];
        let mut after = counters;
        for g in 0..2 {
            after[g] = after[g].apply(&shrink[g]).unwrap();
        }
        let event = TelemetryEvent::IngestBatch(IngestBatchEvent {
            first_id: 20,
            batch: 4,
            at_tuple: 24,
            di_floor: 0.8,
            delta: shrink.to_vec(),
            snapshot: SnapshotData::from_counters(&after, 0.8),
        });
        let orphan_line = serde_json::to_string(&event).unwrap();
        let err = replay(&orphan_line).unwrap_err();
        assert_eq!(err, ReplayError::CounterUnderflow { line: 1 });
    }

    #[test]
    fn restored_checkpoint_reanchors_counters() {
        let anchor = WindowCounters {
            total: 30,
            selected: 12,
            ..WindowCounters::default()
        };
        let restore = TelemetryEvent::Checkpoint(CheckpointEvent {
            at_tuple: 30,
            phase: "restored".into(),
            version: 2,
            counters: vec![anchor, WindowCounters::default()],
            di_floor: 0.8,
        });
        let mut counters = [anchor, WindowCounters::default()];
        let step = [delta(5, 1), delta(0, 0)];
        for g in 0..2 {
            counters[g] = counters[g].apply(&step[g]).unwrap();
        }
        let batch = TelemetryEvent::IngestBatch(IngestBatchEvent {
            first_id: 30,
            batch: 5,
            at_tuple: 35,
            di_floor: 0.8,
            delta: step.to_vec(),
            snapshot: SnapshotData::from_counters(&counters, 0.8),
        });
        let text = format!(
            "{}\n{}",
            serde_json::to_string(&restore).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
        let run = replay(&text).unwrap();
        assert_eq!(run.counters[0].total, 35);
        assert_eq!(run.snapshots.len(), 1);
    }

    #[test]
    fn monitor_restart_reanchors_and_accounts_the_gap() {
        use crate::event::{DegradedModeEvent, MonitorRestartEvent};
        // Progress to 40 tuples, then a restart rewinds to a 20-tuple
        // clone with a 20-tuple gap; the next batch's delta must apply to
        // the clone's counters, not the dead incarnation's.
        let lines = trail_lines();
        let mut clone_counters = [WindowCounters::default(); 2];
        let first = [delta(10, 6), delta(10, 3)];
        for g in 0..2 {
            clone_counters[g] = clone_counters[g].apply(&first[g]).unwrap();
        }
        let restart = TelemetryEvent::MonitorRestart(MonitorRestartEvent {
            at_tuple: 20,
            restarts: 1,
            gap_tuples: 20,
            resumed_from: 20,
            counters: clone_counters.to_vec(),
            di_floor: 0.8,
            degraded: false,
        });
        let degraded = TelemetryEvent::DegradedMode(DegradedModeEvent {
            at_tuple: 20,
            entered: true,
            attempts: 3,
            error: Some("learner down".into()),
            retrains: 0,
        });
        let step = [delta(5, 2), delta(5, 1)];
        let mut after = clone_counters;
        for g in 0..2 {
            after[g] = after[g].apply(&step[g]).unwrap();
        }
        let resumed = TelemetryEvent::IngestBatch(IngestBatchEvent {
            first_id: 40,
            batch: 10,
            at_tuple: 30,
            di_floor: 0.8,
            delta: step.to_vec(),
            snapshot: SnapshotData::from_counters(&after, 0.8),
        });
        let text = format!(
            "{}\n{}\n{}\n{}\n{}",
            lines[0],
            lines[1],
            serde_json::to_string(&restart).unwrap(),
            serde_json::to_string(&degraded).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
        let run = replay(&text).unwrap();
        assert_eq!(run.restarts, 1);
        assert_eq!(run.gap_tuples, 20);
        assert!(run.degraded);
        assert_eq!(run.counters[0].total, 15);
        assert_eq!(run.counters[0].selected, 8);
        assert_eq!(run.snapshots.len(), 3);
    }

    fn alert_event() -> TelemetryEvent {
        TelemetryEvent::DriftAlert(DriftAlertEvent {
            at_tuple: 7,
            alert: DriftAlert {
                kind: DriftKind::ConformanceViolation,
                group: 1,
                at_tuple: 7,
                statistic: 13.0,
                threshold: 12.0,
            },
            explanation: AlertExplanation {
                cell: "group=1/decision".into(),
                selection_rate: vec![None, None],
                violation_rate: vec![None, None],
                summary: "moved".into(),
            },
        })
    }

    #[test]
    fn alerts_and_drops_are_collected() {
        let alert = alert_event();
        let drop = TelemetryEvent::Drop(DropEvent {
            at_tuple: 7,
            batches: 1,
            tuples: 16,
        });
        let text = format!(
            "{}\n\n{}",
            serde_json::to_string(&alert).unwrap(),
            serde_json::to_string(&drop).unwrap()
        );
        let run = replay(&text).unwrap();
        assert_eq!(run.alerts.len(), 1);
        assert_eq!(run.alerts[0].group, 1);
        assert_eq!(run.dropped_tuples, 16);
        assert_eq!(run.events, 2);
    }

    #[test]
    fn unknown_alert_kind_is_a_parse_error_on_its_line() {
        let mut lines = trail_lines();
        let alert = serde_json::to_string(&alert_event()).unwrap();
        let forged = alert.replace("\"conformance_violation\"", "\"label_shift\"");
        assert_ne!(forged, alert, "forge target must exist");
        lines.insert(1, forged);
        let err = replay(&lines.join("\n")).unwrap_err();
        assert!(
            matches!(err, ReplayError::Parse { line: 2, .. }),
            "expected a parse error on line 2, got {err:?}"
        );
    }

    #[test]
    fn deep_nesting_and_out_of_range_numbers_are_parse_errors() {
        let mut lines = trail_lines();
        lines.insert(1, "[".repeat(100_000));
        let err = replay(&lines.join("\n")).unwrap_err();
        assert!(
            matches!(&err, ReplayError::Parse { line: 2, message } if message.contains("nesting")),
            "got {err:?}"
        );
        let mut lines = trail_lines();
        lines[1] = lines[1].replacen("\"di_floor\":0.8", "\"di_floor\":1e400", 1);
        let err = replay(&lines.join("\n")).unwrap_err();
        assert!(
            matches!(&err, ReplayError::Parse { line: 2, message } if message.contains("out of range")),
            "got {err:?}"
        );
    }

    #[test]
    fn jsonl_sink_trail_replays_through_replay_file() {
        let path =
            std::env::temp_dir().join(format!("cf-telemetry-replay-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            let mut ring = RingSink::new(16);
            for line in trail_lines() {
                let event: TelemetryEvent = serde_json::from_str(&line).unwrap();
                sink.emit(&event);
                ring.emit(&event);
            }
            sink.flush();
        }
        let run = replay_file(&path).unwrap();
        assert_eq!(run.snapshots.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
