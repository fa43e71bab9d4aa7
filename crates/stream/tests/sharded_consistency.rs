//! The sharded engine's contract, property-checked: routing through a
//! [`ShardedEngine`] must be *observationally identical* to running N
//! standalone [`StreamEngine`]s by hand — byte-identical per-shard
//! decisions, alerts, counters, and clocks — and the cross-shard aggregate
//! snapshot must equal recomputing one from the summed per-shard counters.
//! Shard counts of 1..=4 vary the number of scoped ingest threads, so the
//! properties also pin down that parallel ingestion is deterministic
//! regardless of thread count.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    FairnessSnapshot, RetrainPolicy, ShardedEngine, ShardedTuple, StreamConfig, StreamEngine,
    StreamTuple, WindowCounters,
};
use confair_core::confair::{AlphaMode, ConFairConfig};
use proptest::prelude::*;

/// A drifting spec so the streams actually trip detectors and floor alerts.
fn spec() -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset: 400,
        ..DriftStreamSpec::default()
    }
}

/// Fixed-α ConFair keeps per-case bootstraps cheap without changing any of
/// the routing/merging behaviour under test.
fn config() -> StreamConfig {
    StreamConfig {
        window: 256,
        floor_min_window: 64,
        retrain: RetrainPolicy::Never,
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

/// Deterministic routing key: spreads tuples across shards unevenly enough
/// to leave some shards empty in some batches.
fn route(i: usize, salt: u64, n_shards: usize) -> u32 {
    let z = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt);
    ((z >> 7) % n_shards as u64) as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_engine_is_observationally_identical_to_standalone_engines(
        n_shards in 1usize..=4,
        n_batches in 1usize..=3,
        // Spans the router's serial/parallel dispatch threshold (512 per
        // shard), so both paths are pinned to the same observable
        // behaviour.
        batch_size in 40usize..2_500,
        stream_seed in 0u64..1_000,
        route_salt in 0u64..1_000,
    ) {
        let reference = spec().reference(800, 11);
        let mut sharded = ShardedEngine::from_reference(
            &reference, LearnerKind::Logistic, 11, config(), n_shards,
        ).unwrap();
        let mut standalone: Vec<StreamEngine> = (0..n_shards)
            .map(|_| {
                StreamEngine::from_reference(&reference, LearnerKind::Logistic, 11, config())
                    .unwrap()
            })
            .collect();
        // A second sharded engine fed the same batches pins determinism
        // across independent parallel runs.
        let mut sharded_again = ShardedEngine::from_reference(
            &reference, LearnerKind::Logistic, 11, config(), n_shards,
        ).unwrap();

        let mut stream = DriftStream::new(spec(), stream_seed);
        for _ in 0..n_batches {
            let tuples = StreamTuple::rows_from_dataset(&stream.next_batch(batch_size)).unwrap();
            let routed: Vec<ShardedTuple> = tuples
                .iter()
                .enumerate()
                .map(|(i, t)| ShardedTuple {
                    shard: route(i, route_salt, n_shards),
                    tuple: t.clone(),
                })
                .collect();

            let outcome = sharded.ingest(&routed).unwrap();
            let outcome_again = sharded_again.ingest(&routed).unwrap();
            prop_assert_eq!(&outcome.decisions, &outcome_again.decisions);
            prop_assert_eq!(&outcome.snapshot, &outcome_again.snapshot);

            // Hand-route the identical tuples through standalone engines.
            let mut per_shard: Vec<Vec<StreamTuple>> = vec![Vec::new(); n_shards];
            for routed_tuple in &routed {
                per_shard[routed_tuple.shard as usize].push(routed_tuple.tuple.clone());
            }
            for (shard, engine) in standalone.iter_mut().enumerate() {
                let solo = engine.ingest(&per_shard[shard]).unwrap();
                let via_sharded = &outcome.per_shard[shard];
                prop_assert_eq!(&solo.decisions, &via_sharded.decisions,
                    "shard {} decisions", shard);
                prop_assert_eq!(&solo.alerts, &via_sharded.alerts,
                    "shard {} alerts", shard);
                prop_assert_eq!(&solo.snapshot, &via_sharded.snapshot,
                    "shard {} snapshot", shard);
            }

            // The aggregate snapshot is exactly a recomputation from the
            // summed per-shard counters.
            let mut summed = [WindowCounters::default(); 2];
            for shard in 0..n_shards {
                let counts = sharded.shard(shard as u32).unwrap().window_counts();
                summed[0].merge(&counts[0]);
                summed[1].merge(&counts[1]);
            }
            let recomputed = FairnessSnapshot::from_counts(
                &summed,
                sharded.shard(0).unwrap().config().di_floor,
            );
            prop_assert_eq!(&outcome.snapshot, &recomputed);
        }

        // Per-shard engine state converged identically too.
        for (shard, engine) in standalone.iter().enumerate() {
            let via_sharded = sharded.shard(shard as u32).unwrap();
            prop_assert_eq!(engine.tuples_seen(), via_sharded.tuples_seen());
            prop_assert_eq!(engine.alerts(), via_sharded.alerts());
            prop_assert_eq!(engine.window_counts(), via_sharded.window_counts());
        }
    }
}
