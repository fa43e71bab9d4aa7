//! One pass of a workload: a fresh engine serves the pregenerated batches
//! in a closed loop, and the pass checks its own outputs as it goes.

use crate::sink::{MemoryJsonl, Timed};
use crate::trace::{span, Tracer};
use crate::workload::Workload;
use cf_conformance::ConstraintSet;
use cf_stream::{
    EngineCheckpoint, FairnessSnapshot, FeedbackOutcome, JoinStats, LabelFeedback, Monitor,
    RetrainPolicy, Scorer, StreamEngine, StreamError, StreamTuple,
};
use cf_telemetry::{MetricsRegistry, SharedSink, SnapshotData, TelemetryEvent};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Operations attempted and failed: every `ingest`, `feedback`,
/// checkpoint, restore and retrain counts once.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Calls that returned `Err`, plus retrains that reported an error.
    pub failed: u64,
}

impl Ops {
    fn record<T, E>(&mut self, result: &Result<T, E>) {
        self.attempted += 1;
        self.failed += u64::from(result.is_err());
    }
}

/// Feedback tallies summed over a pass's `feedback` calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Joins {
    /// Feedback records sent.
    pub records: u64,
    /// Records whose label joined.
    pub joined: u64,
    /// Joined records served from the pending index.
    pub joined_late: u64,
    /// Records for already-labeled tuples.
    pub duplicates: u64,
    /// Records whose tuple was not found.
    pub unmatched: u64,
    /// Pending-index evictions at the end of the pass.
    pub pending_evicted: u64,
}

impl Joins {
    fn add(&mut self, sent: usize, outcome: &FeedbackOutcome) {
        self.records += sent as u64;
        self.joined += outcome.joined;
        self.joined_late += outcome.joined_late;
        self.duplicates += outcome.duplicates;
        self.unmatched += outcome.unmatched;
    }
}

/// What the audit trail of one pass says about repair.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TrailStats {
    /// Events on the trail.
    pub events: u64,
    /// Trail size in bytes.
    pub bytes: u64,
    /// Repair episodes opened.
    pub episodes: u64,
    /// Episodes closed, by a recovered floor or a successful retrain.
    pub episodes_recovered: u64,
    /// Batches from each closed episode's `repair_start` to the
    /// `repair_end` that closed it.
    pub recovery_batches: Vec<f64>,
    /// Threshold nudges.
    pub nudges: u64,
    /// Successful ConFair retrains.
    pub retrains: u64,
    /// Failed retrain episodes.
    pub retrain_failures: u64,
    /// Retrain episode durations, in ms, as the trail records them.
    pub retrain_ms: Vec<f64>,
    /// Successful retrains followed by a batch whose DI* passes the floor
    /// before the next retrain starts.
    pub useful_retrains: u64,
}

/// Everything one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// FNV-1a digest of every served decision, in order.
    pub digest: u64,
    /// Tuples served.
    pub tuples: u64,
    /// Serving wall in seconds: every ingest, feedback and checkpoint, but
    /// not restarts or the traced run's side pass.
    pub wall_s: f64,
    /// Wall time of each `ingest` call, in ns.
    pub ingest_ns: Vec<f64>,
    /// Windowed DI* after each batch once the window is full.
    pub di_star: Vec<f64>,
    /// Served decisions that match the generator's label.
    pub correct: u64,
    /// Operation accounting.
    pub ops: Ops,
    /// Feedback join accounting.
    pub joins: Joins,
    /// Alerts raised.
    pub alerts: u64,
    /// `checkpoint()` + `to_json` wall per checkpoint, in ms.
    pub checkpoint_ms: Vec<f64>,
    /// `from_json` + `restore` wall per restart, in ms.
    pub restore_ms: Vec<f64>,
    /// Checkpoint document sizes, in bytes.
    pub checkpoint_bytes: Vec<f64>,
    /// Batches served by engines restored from a JSON checkpoint.
    pub restored_batches: u64,
    /// Constraints evaluated by the traced side pass.
    pub constraints: u64,
    /// Tuples ingested through the split halves (traced run only).
    pub split_tuples: u64,
    /// Tuples ingested through the whole engine.
    pub whole_tuples: u64,
    /// Trail analysis, on the instrumented workload.
    pub trail: Option<TrailStats>,
    /// `cf_telemetry::replay` wall over the trail, in ms.
    pub replay_ms: Option<f64>,
    /// Correctness-gate failures found during the pass.
    pub mismatches: Vec<String>,
}

/// The engine as the pass drives it: whole, or split into its halves so
/// the traced run can time the scorer and the monitor separately.
enum Live {
    Whole(StreamEngine),
    Split(Scorer, Monitor),
}

/// The parts of one `ingest` the pass looks at.
struct Step {
    decisions: Vec<u8>,
    alerts: usize,
    snapshot: FairnessSnapshot,
    retrain: Option<Result<(), StreamError>>,
}

impl Live {
    fn new(engine: StreamEngine, split: bool) -> Live {
        if split {
            let (scorer, monitor) = engine.into_parts();
            Live::Split(scorer, monitor)
        } else {
            Live::Whole(engine)
        }
    }

    /// The same engine, whole or split as asked.
    fn with_split(self, split: bool) -> Live {
        if split == matches!(self, Live::Split(..)) {
            self
        } else {
            Live::new(self.into_engine(), split)
        }
    }

    fn into_engine(self) -> StreamEngine {
        match self {
            Live::Whole(engine) => engine,
            Live::Split(scorer, monitor) => StreamEngine::from_parts(scorer, monitor)
                .expect("the halves of one engine share a schema"),
        }
    }

    fn ingest(&mut self, batch: &[StreamTuple], tr: Option<&Tracer>) -> Result<Step, StreamError> {
        match self {
            Live::Whole(engine) => {
                let out = span(tr, "engine.ingest", || engine.ingest(batch))?;
                Ok(Step {
                    decisions: out.decisions,
                    alerts: out.alerts.len(),
                    snapshot: out.snapshot,
                    retrain: retrain_result(out.retrained, out.retrain_error),
                })
            }
            Live::Split(scorer, monitor) => {
                let decisions = span(tr, "scorer.score", || scorer.score(batch))?;
                let out = span(tr, "monitor.observe", || monitor.observe(batch, &decisions))?;
                let (model, repair) = (out.model, out.repair);
                if model.is_some() || repair.is_some() {
                    // The same publication `ingest` makes before it
                    // returns. No sink is installed on split workloads, so
                    // the model-swap event it would emit is a no-op.
                    span(tr, "scorer.publish", || {
                        if let Some(model) = model {
                            scorer.install(model);
                        }
                        if let Some(update) = repair {
                            scorer.apply_repair(update);
                        }
                    });
                }
                Ok(Step {
                    decisions,
                    alerts: out.alerts.len(),
                    snapshot: out.snapshot,
                    retrain: retrain_result(out.retrained, out.retrain_error),
                })
            }
        }
    }

    fn feedback(
        &mut self,
        records: &[LabelFeedback],
        tr: Option<&Tracer>,
    ) -> Result<FeedbackOutcome, StreamError> {
        match self {
            Live::Whole(engine) => span(tr, "engine.feedback", || engine.feedback(records)),
            Live::Split(_, monitor) => span(tr, "monitor.feedback", || monitor.feedback(records)),
        }
    }

    /// `checkpoint()` + `to_json`, reuniting split halves for the call.
    fn checkpoint(self, tr: Option<&Tracer>) -> (Live, Result<String, StreamError>) {
        let split = matches!(self, Live::Split(..));
        let engine = self.into_engine();
        let json = span(tr, "checkpoint.take", || engine.checkpoint())
            .map(|ckpt| span(tr, "checkpoint.encode", || ckpt.to_json()));
        (Live::new(engine, split), json)
    }

    /// The state a restore must reproduce: snapshot, clocks, counters,
    /// alert log and retrain count.
    fn fingerprint(&self) -> String {
        match self {
            Live::Whole(e) => format!(
                "{:?}|{}|{}|{:?}|{:?}|{}",
                e.snapshot(),
                e.tuples_seen(),
                e.ids_issued(),
                e.window_counts(),
                e.alerts(),
                e.retrain_count()
            ),
            Live::Split(_, m) => format!(
                "{:?}|{}|{}|{:?}|{:?}|{}",
                m.snapshot(),
                m.tuples_seen(),
                m.ids_issued(),
                m.window_counts(),
                m.alerts(),
                m.retrain_count()
            ),
        }
    }

    fn join_stats(&self) -> JoinStats {
        match self {
            Live::Whole(e) => e.join_stats(),
            Live::Split(_, m) => m.join_stats(),
        }
    }
}

fn retrain_result(retrained: bool, error: Option<StreamError>) -> Option<Result<(), StreamError>> {
    match (retrained, error) {
        (_, Some(e)) => Some(Err(e)),
        (true, None) => Some(Ok(())),
        (false, None) => None,
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The traced run's side pass: every tuple's decision-conformance check
/// against the engine's own (group, decision) profile, outside serving.
/// Returns the number of constraints evaluated.
fn conformance_side_pass(
    batch: &[StreamTuple],
    decisions: &[u8],
    profiles: &[Option<ConstraintSet>],
    tracer: &Tracer,
) -> u64 {
    tracer.span("conformance.violation", || {
        let mut evaluated = 0u64;
        let mut total = 0.0;
        for (t, &decision) in batch.iter().zip(decisions) {
            let cell = usize::from(t.group) * 2 + usize::from(decision);
            if let Some(Some(profile)) = profiles.get(cell) {
                total += profile.violation(&t.features);
                evaluated += profile.len() as u64;
            }
        }
        std::hint::black_box(total);
        evaluated
    })
}

/// In a traced pass over a workload that splits, every this-many-th batch
/// is ingested whole, so `ingest` and its score and observe halves are
/// timed on interleaved batches under the same conditions.
const WHOLE_EVERY: usize = 8;

/// Serve one pass of `w` on `engine`. With a tracer, every layer call is
/// a span and the conformance side pass runs after each batch; `profiles`
/// are the engine's flat (group, label)-major profiles from its
/// checkpoint.
pub fn run_pass(
    w: &Workload,
    mut engine: StreamEngine,
    tracer: Option<&Tracer>,
    profiles: &[Option<ConstraintSet>],
) -> Pass {
    let mut pass = Pass::default();
    let registry = MetricsRegistry::new();
    let trail = w.instruments.then(|| {
        let sink = Arc::new(Mutex::new(Timed::new(
            MemoryJsonl::default(),
            tracer.cloned(),
        )));
        let shared: SharedSink = sink.clone();
        engine.set_sink(shared);
        engine.install_metrics(&registry);
        sink
    });
    let mut live_snapshots: Vec<SnapshotData> = Vec::new();
    let mut decisions: Vec<u8> = Vec::with_capacity(w.tuples_per_pass());
    let splits = tracer.is_some() && w.splits();
    let mut restarted = false;
    let mut live = Live::new(engine, splits);
    let mut checkpoints = 0usize;
    let mut excluded_s = 0.0;

    let started = Instant::now();
    for (b, batch) in w.batches.iter().enumerate() {
        if let Some(t) = tracer {
            t.set_batch(b as u64);
        }
        let split = splits && b % WHOLE_EVERY != WHOLE_EVERY - 1;
        live = live.with_split(split);
        if split {
            pass.split_tuples += batch.tuples.len() as u64;
        } else {
            pass.whole_tuples += batch.tuples.len() as u64;
        }
        pass.restored_batches += u64::from(restarted);
        let t0 = Instant::now();
        let step = live.ingest(&batch.tuples, tracer);
        let elapsed_ns = t0.elapsed().as_nanos() as f64;
        pass.ops.record(&step);
        match step {
            Ok(step) => {
                pass.ingest_ns.push(elapsed_ns);
                if let Some(retrain) = &step.retrain {
                    pass.ops.record(retrain);
                }
                pass.alerts += step.alerts as u64;
                if step.snapshot.window_len as usize >= w.config.window {
                    pass.di_star.extend(step.snapshot.di_star);
                }
                if trail.is_some() {
                    live_snapshots.push(step.snapshot.to_data());
                }
                if let Some(t) = tracer {
                    let side = Instant::now();
                    pass.constraints +=
                        conformance_side_pass(&batch.tuples, &step.decisions, profiles, t);
                    excluded_s += side.elapsed().as_secs_f64();
                }
                decisions.extend_from_slice(&step.decisions);
            }
            Err(e) => pass
                .mismatches
                .push(format!("batch {b}: ingest failed: {e}")),
        }
        pass.tuples += batch.tuples.len() as u64;

        if !batch.feedback.is_empty() {
            let joined = live.feedback(&batch.feedback, tracer);
            pass.ops.record(&joined);
            match joined {
                Ok(outcome) => {
                    pass.joins.add(batch.feedback.len(), &outcome);
                    if trail.is_some() {
                        live_snapshots.push(outcome.snapshot.to_data());
                    }
                }
                Err(e) => pass
                    .mismatches
                    .push(format!("batch {b}: feedback failed: {e}")),
            }
        }

        let Some(plan) = w.restarts else { continue };
        if !(b + 1).is_multiple_of(plan.checkpoint_every) {
            continue;
        }
        let t0 = Instant::now();
        let (next, json) = live.checkpoint(tracer);
        live = next;
        pass.ops.record(&json);
        let json = match json {
            Ok(json) => json,
            Err(e) => {
                pass.mismatches
                    .push(format!("batch {b}: checkpoint failed: {e}"));
                continue;
            }
        };
        pass.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.checkpoint_bytes.push(json.len() as f64);
        checkpoints += 1;
        if !checkpoints.is_multiple_of(plan.restart_every) {
            continue;
        }
        // A restart is downtime, not serving: it is timed on its own and
        // left out of the serving wall.
        let t0 = Instant::now();
        let restored = span(tracer, "checkpoint.decode", || {
            EngineCheckpoint::from_json(&json)
        })
        .and_then(|ckpt| span(tracer, "checkpoint.restore", || StreamEngine::restore(ckpt)));
        let restart_s = t0.elapsed().as_secs_f64();
        pass.ops.record(&restored);
        match restored {
            Ok(engine) => {
                pass.restore_ms.push(restart_s * 1e3);
                // The restored engine must re-encode to the document it
                // came from (model, thresholds, profiles and window), and
                // read the same snapshot and counters as the live one.
                let reencoded = engine.checkpoint().map(|c| c.to_json());
                if !matches!(&reencoded, Ok(doc) if *doc == json) {
                    pass.mismatches.push(format!(
                        "batch {b}: the restored engine does not re-encode to its checkpoint"
                    ));
                }
                let restored = Live::new(engine, matches!(live, Live::Split(..)));
                if restored.fingerprint() != live.fingerprint() {
                    pass.mismatches.push(format!(
                        "batch {b}: the restored engine's state differs from the live engine's"
                    ));
                }
                live = restored;
                restarted = true;
            }
            Err(e) => pass
                .mismatches
                .push(format!("batch {b}: restart failed: {e}")),
        }
        // The restart and its checks are downtime, left out of the wall.
        excluded_s += t0.elapsed().as_secs_f64();
    }
    pass.wall_s = started.elapsed().as_secs_f64() - excluded_s;

    pass.digest = fnv1a(&decisions);
    if decisions.len() == w.labels.len() {
        pass.correct = decisions
            .iter()
            .zip(&w.labels)
            .filter(|(d, l)| d == l)
            .count() as u64;
    } else {
        pass.mismatches.push(format!(
            "{} decisions served for {} tuples",
            decisions.len(),
            w.labels.len()
        ));
    }
    pass.joins.pending_evicted = live.join_stats().pending_evicted;
    let j = pass.joins;
    if j.joined + j.unmatched + j.duplicates != j.records {
        pass.mismatches.push(format!(
            "feedback: joined {} + unmatched {} + duplicates {} != {} records sent",
            j.joined, j.unmatched, j.duplicates, j.records
        ));
    }
    if w.restarts.is_some() && pass.restored_batches == 0 {
        pass.mismatches
            .push("no batch was served on a restored engine".into());
    }
    // Only a retraining workload may fail an operation: a retrain that
    // finds no usable fit reports an error and serving goes on.
    let may_fail = matches!(w.config.retrain, RetrainPolicy::OnAlert { .. });
    if !may_fail && pass.ops.failed > 0 {
        pass.mismatches.push(format!(
            "{} of {} operations failed on a workload where none may",
            pass.ops.failed, pass.ops.attempted
        ));
    }

    if let Some(sink) = trail {
        let engine = live.into_engine();
        let sink = sink.lock().expect("trail sink lock poisoned");
        check_trail(
            &sink.inner,
            &engine,
            &live_snapshots,
            pass.alerts,
            &mut pass,
        );
    }
    pass
}

/// Replay the trail and require the live run back byte-exact: the same
/// snapshot sequence, alert count, retrain count and final reading.
fn check_trail(
    trail: &MemoryJsonl,
    engine: &StreamEngine,
    live_snapshots: &[SnapshotData],
    alerts: u64,
    pass: &mut Pass,
) {
    if trail.encode_errors > 0 {
        pass.mismatches.push(format!(
            "{} trail events failed to encode",
            trail.encode_errors
        ));
    }
    let t0 = Instant::now();
    let replayed = cf_telemetry::replay(&trail.text);
    pass.replay_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    match replayed {
        Ok(run) => {
            if run.snapshots != live_snapshots {
                pass.mismatches
                    .push("replayed snapshot sequence differs from the live one".into());
            }
            if run.alerts.len() as u64 != alerts {
                pass.mismatches.push(format!(
                    "trail replays {} alerts, the engine raised {alerts}",
                    run.alerts.len()
                ));
            }
            if run.retrains != engine.retrain_count() {
                pass.mismatches.push(format!(
                    "trail replays {} retrains, the engine ran {}",
                    run.retrains,
                    engine.retrain_count()
                ));
            }
            if run.snapshots.last() != Some(&engine.snapshot().to_data()) {
                pass.mismatches
                    .push("the trail's last reading is not the engine's".into());
            }
        }
        Err(e) => pass.mismatches.push(format!("trail does not replay: {e}")),
    }
    match trail_stats(&trail.text) {
        Ok(stats) => pass.trail = Some(stats),
        Err(e) => pass.mismatches.push(e),
    }
}

/// Read repair episodes, nudges and retrains off a JSONL trail.
///
/// An episode opens at a `repair_start` while none is open and closes at
/// a `repair_end` whose outcome is `recovered`, or at a successful
/// `confair_retrain` (the ladder resets on a retrain). Its length is the
/// number of `ingest_batch` events in between.
pub fn trail_stats(text: &str) -> Result<TrailStats, String> {
    let mut stats = TrailStats {
        bytes: text.len() as u64,
        ..TrailStats::default()
    };
    let mut batches = 0u64;
    let mut open: Option<u64> = None;
    let mut awaiting_recovery = false;
    for (i, line) in text.lines().enumerate() {
        let event: TelemetryEvent =
            serde_json::from_str(line).map_err(|e| format!("trail line {}: {e}", i + 1))?;
        stats.events += 1;
        match event {
            TelemetryEvent::IngestBatch(e) => {
                batches += 1;
                if awaiting_recovery && e.snapshot.di_star.is_some_and(|d| d >= e.di_floor) {
                    stats.useful_retrains += 1;
                    awaiting_recovery = false;
                }
            }
            TelemetryEvent::RepairStart(e) => {
                if e.tier == "confair_retrain" {
                    awaiting_recovery = false;
                }
                if open.is_none() {
                    open = Some(batches);
                    stats.episodes += 1;
                }
            }
            TelemetryEvent::RepairEnd(e) => {
                let retrain = e.tier == "confair_retrain";
                if retrain {
                    stats.retrain_ms.push(e.duration_us as f64 / 1e3);
                }
                let closes = match e.outcome.as_str() {
                    "recovered" => true,
                    "retrained" if retrain => {
                        stats.retrains += 1;
                        awaiting_recovery = true;
                        true
                    }
                    "failed" if retrain => {
                        stats.retrain_failures += 1;
                        false
                    }
                    _ => false,
                };
                if closes {
                    if let Some(opened) = open.take() {
                        stats.episodes_recovered += 1;
                        stats.recovery_batches.push((batches - opened) as f64);
                    }
                }
            }
            TelemetryEvent::ThresholdChange(_) => stats.nudges += 1,
            _ => {}
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn trail_stats_reads_episodes_off_a_trail() {
        use cf_telemetry::{
            CounterDelta, IngestBatchEvent, RepairEndEvent, RepairStartEvent, ThresholdChangeEvent,
        };
        let batch = |di: f64| {
            TelemetryEvent::IngestBatch(IngestBatchEvent {
                first_id: 0,
                batch: 1,
                at_tuple: 1,
                di_floor: 0.8,
                delta: vec![CounterDelta::default(); 2],
                snapshot: SnapshotData {
                    di_star: Some(di),
                    ..SnapshotData::from_counters(&[Default::default(); 2], 0.8)
                },
            })
        };
        let start = |tier: &str| {
            TelemetryEvent::RepairStart(RepairStartEvent {
                at_tuple: 1,
                tier: tier.into(),
                window_len: 10,
                labeled: 10,
            })
        };
        let end = |tier: &str, outcome: &str, duration_us: u64| {
            TelemetryEvent::RepairEnd(RepairEndEvent {
                at_tuple: 1,
                tier: tier.into(),
                outcome: outcome.into(),
                error: None,
                duration_us,
                retrains: 1,
            })
        };
        let nudge = TelemetryEvent::ThresholdChange(ThresholdChangeEvent {
            at_tuple: 1,
            tier: "threshold_nudge".into(),
            cell: 1,
            thresholds: vec![0.0, -0.1],
        });
        // An episode nudged once and closed by a retrain, a passing batch
        // (so the retrain was useful), then an episode that recovers on
        // its own one batch later. Last, an episode whose retrain is
        // followed by a failing batch and a second retrain: the first of
        // the two was not useful.
        let events = [
            batch(0.5),
            start("threshold_nudge"),
            nudge,
            batch(0.5),
            end("threshold_nudge", "escalated", 5),
            start("confair_retrain"),
            end("confair_retrain", "retrained", 4_000),
            batch(0.9),
            start("threshold_nudge"),
            batch(0.9),
            end("threshold_nudge", "recovered", 5),
            start("threshold_nudge"),
            end("threshold_nudge", "escalated", 5),
            start("confair_retrain"),
            end("confair_retrain", "retrained", 6_000),
            batch(0.5),
            start("threshold_nudge"),
            start("confair_retrain"),
            end("confair_retrain", "failed", 1_000),
        ];
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("events encode") + "\n")
            .collect();
        let stats = trail_stats(&text).expect("the trail parses");
        assert_eq!(stats.events, events.len() as u64);
        assert_eq!(stats.episodes, 4);
        assert_eq!(stats.episodes_recovered, 3);
        assert_eq!(stats.recovery_batches, vec![1.0, 1.0, 0.0]);
        assert_eq!(stats.nudges, 1);
        assert_eq!(stats.retrains, 2);
        assert_eq!(stats.retrain_ms, vec![4.0, 6.0, 1.0]);
        assert_eq!(stats.useful_retrains, 1);
        assert_eq!(stats.retrain_failures, 1);
    }
}
