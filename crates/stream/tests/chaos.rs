//! Chaos suite: deterministic fault injection against the supervision
//! layer, property-checked. The contract under test is the issue's
//! acceptance bar —
//!
//! 1. **Never wedge**: while the restart budget lasts, `ingest` never
//!    returns a permanent error, no injected panic escapes to the
//!    caller, and a flush still drains to quiescence.
//! 2. **Reconverge**: after the fault schedule is exhausted and the
//!    window has fully rotated on fresh tuples, a supervised engine is
//!    byte-identical to a fault-free twin fed the same stream.
//! 3. **Account for everything**: the audit trail records every
//!    monitor-death gap (`monitor_restart` events whose `gap_tuples`
//!    sum to the engine's counter) and every degraded-mode transition,
//!    and `scored == monitored + dropped + gap` holds at quiescence.
//!
//! Faults are *schedules*, not probabilities (see `cf_stream::faults`),
//! so every failure here replays exactly.

#![cfg(feature = "fault-injection")]

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, AsyncEngine, FaultKind, FaultPlan, MonitorPanics, RepairConfig, RetrainFaults,
    RetrainPolicy, ShardHealth, ShardedAsyncEngine, ShardedTuple, StreamConfig, StreamEngine,
    StreamError, StreamTuple, SupervisorConfig,
};
use cf_telemetry::{RingSink, SharedSink, TelemetryEvent};
use confair_core::confair::{AlphaMode, ConFairConfig};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn spec(drift_onset: u64) -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset,
        ..DriftStreamSpec::default()
    }
}

/// Zero-backoff repair budget: two attempts, no sleeping, so a chaos
/// case burns through its episode instantly and deterministically.
fn fast_repair() -> RepairConfig {
    RepairConfig {
        max_attempts: 2,
        backoff_base_ms: 0,
        backoff_max_ms: 0,
        timeout_ms: 30_000,
        ..RepairConfig::default()
    }
}

/// Zero-backoff supervisor: deaths respawn on the very next serving
/// call, keeping chaos cases fast while still walking the whole
/// detect → charge budget → respawn → re-anchor path.
fn fast_supervisor(max_restarts: u32) -> SupervisorConfig {
    SupervisorConfig {
        max_restarts,
        backoff_base_ms: 0,
        backoff_max_ms: 0,
        snapshot_every: 4,
        ..SupervisorConfig::default()
    }
}

fn config(window: usize, retrain: RetrainPolicy) -> StreamConfig {
    StreamConfig {
        window,
        floor_min_window: 32,
        floor_cooldown: 400,
        retrain,
        repair: fast_repair(),
        confair: ConFairConfig {
            alpha: AlphaMode::Fixed {
                alpha_u: 2.0,
                alpha_w: 1.0,
            },
            ..ConFairConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// A DI* floor high enough that repair episodes trigger within a few
/// batches — the chaos suite needs retrains to *happen* to fault them.
fn alerting_config(window: usize) -> StreamConfig {
    StreamConfig {
        di_floor: 0.99,
        floor_min_window: 32,
        floor_cooldown: 256,
        retrain: RetrainPolicy::OnAlert { min_window: 48 },
        ..config(window, RetrainPolicy::Never)
    }
}

fn ring() -> (Arc<Mutex<RingSink>>, SharedSink) {
    let ring = Arc::new(Mutex::new(RingSink::new(1 << 16)));
    let sink: SharedSink = ring.clone();
    (ring, sink)
}

fn events_of(ring: &Arc<Mutex<RingSink>>) -> Vec<TelemetryEvent> {
    ring.lock().unwrap().events()
}

/// Exhausting the repair budget flips degraded mode (entered once, with
/// the episode's attempt count and final error on the trail), the stale
/// model keeps serving, and the next successful retrain clears it — all
/// of which survives a checkpoint round-trip.
#[test]
fn exhausted_repair_budget_enters_and_clears_degraded_mode() {
    let reference = spec(u64::MAX).reference(700, 53);
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 53, alerting_config(128))
            .unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);
    // Both attempts of the first repair episode fail; attempt 2 onwards
    // succeeds.
    engine.inject_faults(
        FaultPlan::new().with_retrain(RetrainFaults::fail_first(2, FaultKind::Error)),
    );

    let mut stream = DriftStream::new(spec(u64::MAX), 53);
    for _ in 0..20 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(100)).unwrap();
        // Serving survives the failing episode: ingest returns decisions.
        let out = engine.ingest(&batch).unwrap();
        assert_eq!(out.decisions.len(), 100);
        if engine.is_degraded() {
            break;
        }
    }
    assert!(
        engine.is_degraded(),
        "a repair episode must have exhausted its budget"
    );
    assert!(engine.snapshot().degraded);
    assert!(
        engine.snapshot().to_string().contains("DEGRADED"),
        "operators see the flag in the one-line reading"
    );

    // Degraded mode is durable state: it survives checkpoint/restore.
    let restored = StreamEngine::restore(engine.checkpoint().unwrap()).unwrap();
    assert!(restored.is_degraded());

    // The next successful retrain — here forced by the operator — clears it.
    engine.retrain_now().unwrap();
    assert!(!engine.is_degraded());
    assert!(!engine.snapshot().degraded);

    let degraded: Vec<_> = events_of(&ring)
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::DegradedMode(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(degraded.len(), 2, "one enter, one clear");
    assert!(degraded[0].entered);
    assert_eq!(degraded[0].attempts, 2, "the episode burned its budget");
    assert!(
        degraded[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("injected")),
        "the final attempt's error travels with the transition"
    );
    assert!(!degraded[1].entered);
    assert_eq!(degraded[1].attempts, 0);

    // The repair seam's shape is unchanged: every episode is exactly one
    // repair_start/repair_end pair, however many attempts it burned.
    let events = events_of(&ring);
    let starts = events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::RepairStart(_)))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::RepairEnd(_)))
        .count();
    assert_eq!(starts, ends);
    assert!(starts >= 1);
}

/// An injected retrain *panic* is contained by the engine's
/// `catch_unwind` seam and surfaces as a typed error — the caller never
/// unwinds, and the engine keeps serving afterwards.
#[test]
fn injected_retrain_panics_become_typed_errors() {
    let reference = spec(u64::MAX).reference(600, 7);
    let mut engine = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        7,
        config(128, RetrainPolicy::Never),
    )
    .unwrap();
    engine.inject_faults(
        FaultPlan::new().with_retrain(RetrainFaults::fail_first(1, FaultKind::Panic)),
    );

    let mut stream = DriftStream::new(spec(u64::MAX), 7);
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(150)).unwrap();
    engine.ingest(&batch).unwrap();

    match engine.retrain_now() {
        Err(StreamError::RetrainPanicked(msg)) => {
            assert!(msg.contains("injected"), "payload: {msg}")
        }
        other => panic!("expected RetrainPanicked, got {other:?}"),
    }
    // The schedule is spent; the engine is fully operational.
    engine.retrain_now().unwrap();
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(50)).unwrap();
    assert_eq!(engine.ingest(&batch).unwrap().decisions.len(), 50);
}

/// One scheduled monitor death: the supervisor respawns from the
/// recovery clone, serving never errors, the flush still reaches
/// quiescence, and the trail's `monitor_restart` event accounts for the
/// exact gap.
#[test]
fn monitor_death_is_supervised_and_gap_accounted() {
    let reference = spec(u64::MAX).reference(600, 11);
    let mut inner = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        11,
        config(128, RetrainPolicy::Never),
    )
    .unwrap();
    let (ring, sink) = ring();
    inner.set_sink(sink);
    inner.inject_faults(FaultPlan::new().with_monitor_panics(MonitorPanics::after(2)));
    let mut anc = AsyncEngine::from_engine(
        inner,
        AsyncConfig {
            supervisor: fast_supervisor(3),
            ..AsyncConfig::default()
        },
    );

    let mut stream = DriftStream::new(spec(u64::MAX), 11);
    for _ in 0..10 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(48)).unwrap();
        assert_eq!(anc.ingest(&batch).unwrap().len(), 48);
    }
    anc.flush().unwrap();

    assert_eq!(anc.health(), ShardHealth::Live);
    assert_eq!(anc.monitor_restarts(), 1);
    assert!(
        anc.monitor_gap_tuples() >= 48,
        "the batch the monitor died on is part of the gap"
    );
    // Quiescence closes the books: every scored tuple is monitored,
    // dropped, or in a recorded gap.
    assert_eq!(anc.monitor_lag(), 0);

    let restarts: Vec<_> = events_of(&ring)
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::MonitorRestart(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(restarts.len(), 1);
    assert_eq!(restarts[0].restarts, 1);
    assert_eq!(restarts[0].gap_tuples, anc.monitor_gap_tuples());
}

/// Batches served while the monitor is down — during a long respawn
/// backoff, or after a push into the dead monitor's closed queue — are
/// still served batches: the ingest counters match the scorer's clock.
#[test]
fn batches_served_while_the_monitor_is_down_are_metered() {
    let reference = spec(u64::MAX).reference(600, 19);
    let mut inner = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        19,
        config(128, RetrainPolicy::Never),
    )
    .unwrap();
    inner.inject_faults(FaultPlan::new().with_monitor_panics(MonitorPanics::after(2)));
    let mut anc = AsyncEngine::from_engine(
        inner,
        AsyncConfig {
            supervisor: SupervisorConfig {
                backoff_base_ms: 600_000,
                backoff_max_ms: 600_000,
                ..fast_supervisor(3)
            },
            ..AsyncConfig::default()
        },
    );
    let registry = cf_telemetry::MetricsRegistry::new();
    anc.install_metrics(&registry).unwrap();

    let mut stream = DriftStream::new(spec(u64::MAX), 19);
    let mut ingest = |anc: &mut AsyncEngine| {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(48)).unwrap();
        assert_eq!(anc.ingest(&batch).unwrap().len(), 48);
    };
    // The monitor dies on its third batch; serving notices the death on
    // a later call and parks the respawn behind the long backoff.
    for _ in 0..3 {
        ingest(&mut anc);
    }
    for _ in 0..1_000 {
        if anc.health() == ShardHealth::Restarting {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        ingest(&mut anc);
    }
    assert_eq!(anc.health(), ShardHealth::Restarting);
    for _ in 0..4 {
        ingest(&mut anc);
    }
    assert_eq!(anc.health(), ShardHealth::Restarting);

    let metrics = anc.metrics().unwrap();
    assert_eq!(metrics.ingest_tuples.get(), anc.tuples_scored());
    assert_eq!(metrics.ingest_batches.get(), anc.tuples_scored() / 48);
    assert_eq!(metrics.ingest_latency_us.count(), anc.tuples_scored() / 48);
    assert!(registry.render().contains(&format!(
        "cf_stream_ingest_tuples_total {}\n",
        anc.tuples_scored()
    )));
}

/// Deaths beyond the restart budget are a *permanent*, typed failure:
/// health pins to `Dead`, and every subsequent serving or barrier call
/// reports it instead of hanging or panicking.
#[test]
fn restart_budget_exhaustion_is_permanent_and_typed() {
    let reference = spec(u64::MAX).reference(600, 13);
    let mut inner = StreamEngine::from_reference(
        &reference,
        LearnerKind::Logistic,
        13,
        config(128, RetrainPolicy::Never),
    )
    .unwrap();
    inner.inject_faults(
        FaultPlan::new().with_monitor_panics(MonitorPanics::at_batches(vec![1, 2, 3, 4, 5, 6])),
    );
    let mut anc = AsyncEngine::from_engine(
        inner,
        AsyncConfig {
            supervisor: fast_supervisor(1),
            ..AsyncConfig::default()
        },
    );

    let mut stream = DriftStream::new(spec(u64::MAX), 13);
    let mut died = false;
    for _ in 0..200 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(16)).unwrap();
        match anc.ingest(&batch) {
            Ok(_) => {}
            Err(StreamError::Async(_)) => {
                died = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
        // Force the barrier path to detect the death promptly too.
        if anc.flush().is_err() {
            died = true;
            break;
        }
    }
    assert!(died, "two deaths against a budget of one must be fatal");
    assert_eq!(anc.health(), ShardHealth::Dead);
    assert!(matches!(anc.flush(), Err(StreamError::Async(_))));
    let batch = StreamTuple::rows_from_dataset(&stream.next_batch(16)).unwrap();
    assert!(matches!(anc.ingest(&batch), Err(StreamError::Async(_))));
}

/// Per-shard failure domains: a shard whose budget is exhausted reads
/// `Dead` while its siblings keep reading `Live` — the all-or-nothing
/// fleet error is gone.
#[test]
fn sharded_health_isolates_a_dead_shard() {
    let reference = spec(u64::MAX).reference(600, 17);
    let make = || {
        StreamEngine::from_reference(
            &reference,
            LearnerKind::Logistic,
            17,
            config(128, RetrainPolicy::Never),
        )
        .unwrap()
    };
    let mut sick = make();
    // A zero budget turns the first death into a permanent one.
    sick.inject_faults(
        FaultPlan::new().with_monitor_panics(MonitorPanics::at_batches(vec![1, 2, 3])),
    );
    let mut fleet = ShardedAsyncEngine::from_engines(
        vec![sick, make()],
        AsyncConfig {
            supervisor: fast_supervisor(0),
            ..AsyncConfig::default()
        },
    )
    .unwrap();

    let mut stream = DriftStream::new(spec(u64::MAX), 17);
    let mut saw_error = false;
    for _ in 0..200 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(32)).unwrap();
        let tuples: Vec<ShardedTuple> = batch
            .iter()
            .enumerate()
            .map(|(i, t)| ShardedTuple {
                shard: (i % 2) as u32,
                tuple: t.clone(),
            })
            .collect();
        if fleet.ingest(&tuples).is_err() {
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "the dead shard must surface its typed error");
    assert_eq!(
        fleet.shard_health(),
        vec![ShardHealth::Dead, ShardHealth::Live],
        "failure domains are per shard"
    );
    // The healthy shard still answers barriers through its own handle.
    assert_eq!(fleet.shard(1).unwrap().health(), ShardHealth::Live);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline chaos property. A random-but-reproducible fault
    /// schedule (retrain errors/panics *and* monitor deaths) against a
    /// generous restart budget: serving never returns an error, no
    /// panic escapes, the flush drains to quiescence, and the trail
    /// accounts for every gap and every degraded transition.
    #[test]
    fn random_fault_schedules_never_wedge_serving(seed in 0u64..512) {
        let plan = FaultPlan::seeded(seed);
        let reference = spec(u64::MAX).reference(600, 29);
        let mut inner = StreamEngine::from_reference(
            &reference, LearnerKind::Logistic, 29, alerting_config(128),
        ).unwrap();
        let (ring, sink) = ring();
        inner.set_sink(sink);
        inner.inject_faults(plan.clone());
        let mut anc = AsyncEngine::from_engine(
            inner,
            AsyncConfig {
                supervisor: fast_supervisor(8),
                ..AsyncConfig::default()
            },
        );

        let mut stream = DriftStream::new(spec(u64::MAX), seed);
        for _ in 0..26 {
            let batch =
                StreamTuple::rows_from_dataset(&stream.next_batch(48)).unwrap();
            let decisions = anc.ingest(&batch).unwrap();
            prop_assert_eq!(decisions.len(), 48, "serving never degrades below answers");
        }
        anc.flush().unwrap();

        // Quiescence closes the books.
        prop_assert_eq!(anc.monitor_lag(), 0);
        prop_assert_eq!(anc.health(), ShardHealth::Live);

        let events = events_of(&ring);
        let restart_gaps: u64 = events.iter().filter_map(|e| match e {
            TelemetryEvent::MonitorRestart(r) => Some(r.gap_tuples),
            _ => None,
        }).sum();
        let restart_events = events.iter()
            .filter(|e| matches!(e, TelemetryEvent::MonitorRestart(_)))
            .count() as u64;
        prop_assert_eq!(restart_gaps, anc.monitor_gap_tuples(),
            "every gap tuple is on the trail");
        prop_assert_eq!(restart_events, anc.monitor_restarts(),
            "every respawn is on the trail");
        if let Some(deaths) = &plan.monitor {
            prop_assert_eq!(anc.monitor_restarts(), deaths.fired(),
                "each fired death costs exactly one restart");
        }

        // Degraded transitions on the trail are always real flips:
        // every `degraded_mode` event changes the flag, and every
        // `monitor_restart` re-anchors it (a death rolls the flag back
        // to the clone's, like the window counters). At the end the
        // engine's live flag agrees with the trail's reading.
        let mut flag = false;
        for event in &events {
            match event {
                TelemetryEvent::DegradedMode(d) => {
                    prop_assert!(d.entered != flag, "transitions are real flips");
                    flag = d.entered;
                }
                TelemetryEvent::MonitorRestart(r) => flag = r.degraded,
                _ => {}
            }
        }
        prop_assert_eq!(anc.is_degraded(), flag);
    }

    /// Byte-identical reconvergence: after the schedule is exhausted and
    /// the window has fully rotated on fresh tuples, the supervised
    /// engine and a fault-free twin agree on every decision and on the
    /// exact windowed state.
    #[test]
    fn recovered_engine_reconverges_with_fault_free_twin(seed in 0u64..512) {
        let window = 128usize;
        let reference = spec(u64::MAX).reference(600, 31);
        let make = || StreamEngine::from_reference(
            &reference, LearnerKind::Logistic, 31, config(window, RetrainPolicy::Never),
        ).unwrap();
        let plan = FaultPlan::seeded(seed);
        let scheduled = plan.monitor.as_ref().map_or(0, MonitorPanics::scheduled);
        let mut sick = make();
        sick.inject_faults(plan);
        let (trail, sink) = ring();
        sick.set_sink(sink);
        let mut faulted = AsyncEngine::from_engine(
            sick,
            AsyncConfig { supervisor: fast_supervisor(8), ..AsyncConfig::default() },
        );
        let mut clean = AsyncEngine::from_engine(make(), AsyncConfig::default());

        // Deaths are scheduled by *observed* batch count, so they fire
        // arbitrarily late in wall-clock terms, and the supervisor sees a
        // death only at the next ingest or flush. The respawn fixes the
        // gap, which can include the batch being served as it notices. So
        // what must pass before the windows can agree is a full window
        // rotation (plus a margin) of tuples served after the *last
        // respawn*, once every scheduled death has been respawned — and no
        // respawn during the final flush drain.
        let mut stream = DriftStream::new(spec(u64::MAX), seed);
        let mut restarts = 0;
        let mut fresh = 0u64;
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 200, "fault schedule never exhausted");
            let batch =
                StreamTuple::rows_from_dataset(&stream.next_batch(48)).unwrap();
            let a = faulted.ingest(&batch).unwrap();
            let b = clean.ingest(&batch).unwrap();
            prop_assert_eq!(a, b, "the model never swapped, so decisions match");
            fresh += 48;
            if faulted.monitor_restarts() != restarts {
                restarts = faulted.monitor_restarts();
                fresh = 0;
                continue;
            }
            if restarts == scheduled && fresh >= window as u64 + 192 {
                faulted.flush().unwrap();
                clean.flush().unwrap();
                if faulted.monitor_restarts() == restarts {
                    break;
                }
                // A respawn during the flush drain rolled back to a
                // pre-death clone, so rotate again.
                restarts = faulted.monitor_restarts();
                fresh = 0;
            }
        }

        // On failure, say where each respawn resumed and what it lost.
        let diagnosis = format!(
            "restarts (gap_tuples, resumed_from): {:?}; tuples_monitored faulted {} clean {}",
            events_of(&trail).iter().filter_map(|e| match e {
                TelemetryEvent::MonitorRestart(r) => Some((r.gap_tuples, r.resumed_from)),
                _ => None,
            }).collect::<Vec<_>>(),
            faulted.tuples_monitored(),
            clean.tuples_monitored(),
        );
        prop_assert_eq!(faulted.monitor_lag(), 0, "{}", diagnosis);
        prop_assert_eq!(clean.monitor_gap_tuples(), 0, "the twin saw everything");
        // Every scored tuple was monitored or lost to exactly one gap.
        prop_assert_eq!(
            faulted.tuples_monitored() + faulted.monitor_gap_tuples(),
            faulted.tuples_scored(),
            "{}", diagnosis
        );
        // The window has fully rotated past every gap: the two engines'
        // windowed state — counters and the snapshot computed from them —
        // is byte-identical again.
        prop_assert_eq!(faulted.window_counts(), clean.window_counts(), "{}", diagnosis);
        prop_assert_eq!(faulted.snapshot(), clean.snapshot());
    }
}

/// Satellite: tier-3 exhaustion under the repair ladder. When every
/// retrain attempt in the tier-3 episode faults, the engine flags
/// degraded mode but the cheap rungs keep serving repairs — the ladder
/// falls back to tier 2 with the projection installed, and `ingest`
/// never wedges. Once the fault schedule is spent, the re-entered
/// tier-3 episode retrains, clears degraded mode, and resets the
/// serve-time artifacts to the identity. The trail reconciles the whole
/// outage: exactly one degraded enter/clear pair, a `failed` tier-3
/// episode before the `retrained` one, and a tier-2 fallback re-arm in
/// between.
#[test]
fn ladder_tier3_exhaustion_degrades_while_cheap_tiers_keep_serving() {
    let reference = spec(350).reference(900, 23);
    let cfg = StreamConfig {
        window: 128,
        di_floor: 0.8,
        floor_min_window: 48,
        floor_cooldown: 300,
        retrain: RetrainPolicy::OnAlert { min_window: 64 },
        repair: RepairConfig {
            ladder: true,
            tier_patience: 3,
            nudge_step: 0.25,
            // Tier 1 is impotent: every nudge clamps immediately, which
            // forces the climb into the faulted retrain path.
            nudge_max: 0.0,
            recovery_hold: 2,
            ..fast_repair()
        },
        confair: ConFairConfig {
            alpha: AlphaMode::Fixed {
                alpha_u: 2.0,
                alpha_w: 1.0,
            },
            ..ConFairConfig::default()
        },
        ..StreamConfig::default()
    };
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 23, cfg).unwrap();
    let (ring, sink) = ring();
    engine.set_sink(sink);
    // Both attempts of the first tier-3 episode fail; the schedule is
    // then spent, so the re-entered episode succeeds.
    let faults = RetrainFaults::fail_first(2, FaultKind::Error);
    engine.inject_faults(FaultPlan::new().with_retrain(faults.clone()));

    let mut stream = DriftStream::new(spec(350), 9);
    let mut served_degraded = false;
    for _ in 0..60 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(64)).unwrap();
        // Never wedges: the faulted episode surfaces on the trail, not
        // as an ingest error.
        engine.ingest(&batch).unwrap();
        if engine.is_degraded() {
            // The retrain path is down, but tiers 1-2 still serve: the
            // ladder rests on tier 2 with the projection installed.
            assert_eq!(
                engine.repair_tier(),
                Some(cf_stream::RepairTier::DiffFairProjection)
            );
            assert!(engine.repair_projection_active());
            served_degraded = true;
        }
        if served_degraded && engine.retrain_count() >= 1 {
            break;
        }
    }

    assert!(
        served_degraded,
        "the faulted episode must flag degraded mode"
    );
    assert_eq!(faults.injected(), 2, "both scheduled faults fired");
    assert!(
        engine.retrain_count() >= 1,
        "the re-entered tier-3 episode must retrain once the faults are spent"
    );
    assert!(
        !engine.is_degraded(),
        "a successful retrain clears degraded mode"
    );
    assert_eq!(engine.repair_tier(), None);
    assert!(engine.repair_thresholds().iter().all(|&t| t == 0.0));
    assert!(!engine.repair_projection_active());

    // Trail reconciliation: one enter (with the episode's attempt count
    // and final error) and one clear, in that order.
    let degraded: Vec<(bool, u64, bool)> = events_of(&ring)
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::DegradedMode(d) => Some((d.entered, d.attempts, d.error.is_some())),
            _ => None,
        })
        .collect();
    assert_eq!(degraded.len(), 2, "exactly one outage: {degraded:?}");
    assert_eq!(
        (degraded[0].0, degraded[0].1, degraded[0].2),
        (true, 2, true)
    );
    assert!(!degraded[1].0);

    // The repair episodes on the trail tell the same story: a failed
    // tier-3 climb, the tier-2 fallback re-arm, then the successful
    // retrain.
    let repairs: Vec<(String, String)> = events_of(&ring)
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::RepairStart(s) => Some((s.tier.clone(), String::new())),
            TelemetryEvent::RepairEnd(s) => Some((s.tier.clone(), s.outcome.clone())),
            _ => None,
        })
        .collect();
    let failed_at = repairs
        .iter()
        .position(|r| r == &("confair_retrain".into(), "failed".into()))
        .expect("the exhausted episode closes as failed");
    let retrained_at = repairs
        .iter()
        .position(|r| r == &("confair_retrain".into(), "retrained".into()))
        .expect("the re-entered episode closes as retrained");
    assert!(failed_at < retrained_at);
    assert!(
        repairs[failed_at..retrained_at].contains(&("difffair_projection".into(), String::new())),
        "the fallback re-arms tier 2 between the episodes: {repairs:?}"
    );
}
