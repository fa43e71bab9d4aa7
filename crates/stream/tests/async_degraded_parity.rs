//! The async engine's published degraded flag agrees with a synchronous
//! twin at every quiescent point.
//!
//! A repair episode runs *inside* the monitor's `observe`, so the flag it
//! sets (budget exhausted) or clears (a later retrain succeeds) is only
//! visible in the monitor's state after the record is folded in. The
//! async engine must publish that post-retrain state: after each
//! `flush()`, `is_degraded()` and `snapshot()` read exactly what the sync
//! engine reports after the same batch.

#![cfg(feature = "fault-injection")]

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, AsyncEngine, FaultKind, FaultPlan, RepairConfig, RetrainFaults, RetrainPolicy,
    StreamConfig, StreamEngine, StreamTuple,
};
use confair_core::confair::{AlphaMode, ConFairConfig};

fn spec() -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    }
}

/// A floor no window meets (so alerts, and repair episodes, keep coming)
/// with a two-attempt, zero-backoff repair budget.
fn config() -> StreamConfig {
    StreamConfig {
        window: 128,
        di_floor: 0.99,
        floor_min_window: 32,
        floor_cooldown: 256,
        retrain: RetrainPolicy::OnAlert { min_window: 48 },
        repair: RepairConfig {
            max_attempts: 2,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
            timeout_ms: 30_000,
            ..RepairConfig::default()
        },
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

/// An engine whose first repair episode burns both attempts (entering
/// degraded mode) and whose later retrains succeed (clearing it).
fn failing_first_episode() -> StreamEngine {
    let reference = spec().reference(700, 53);
    let mut engine =
        StreamEngine::from_reference(&reference, LearnerKind::Logistic, 53, config()).unwrap();
    engine.inject_faults(
        FaultPlan::new().with_retrain(RetrainFaults::fail_first(2, FaultKind::Error)),
    );
    engine
}

#[test]
fn async_degraded_flag_matches_sync_after_every_flush() {
    let mut sync = failing_first_episode();
    let mut anc = AsyncEngine::from_engine(failing_first_episode(), AsyncConfig::default());
    let mut stream = DriftStream::new(spec(), 53);
    let (mut entered, mut cleared) = (false, false);
    for batch_no in 0..20 {
        let batch = StreamTuple::rows_from_dataset(&stream.next_batch(100)).unwrap();
        let was_degraded = sync.is_degraded();
        let outcome = sync.ingest(&batch).unwrap();
        assert_eq!(anc.ingest(&batch).unwrap(), outcome.decisions);
        anc.flush().unwrap();
        assert_eq!(
            anc.is_degraded(),
            sync.is_degraded(),
            "degraded flag after batch {batch_no}"
        );
        assert_eq!(
            anc.snapshot(),
            sync.snapshot(),
            "snapshot after batch {batch_no}"
        );
        entered |= !was_degraded && sync.is_degraded();
        cleared |= was_degraded && !sync.is_degraded();
    }
    assert!(entered, "the failing episode must enter degraded mode");
    assert!(cleared, "a later successful retrain must clear it");
}
