//! Whole-batch rejection on both sharded routers: a batch with one bad
//! record anywhere — an out-of-range shard id on `ingest` or `feedback`,
//! a non-binary label, or an id its own shard has not issued yet — is
//! rejected whole, and no shard ingests or joins anything from it.
//!
//! The sync and async routers share one validation path; both run the
//! same cases here, so the shared contract is pinned on each.

use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_stream::{
    AsyncConfig, JoinStats, LabelFeedback, ShardedAsyncEngine, ShardedEngine, ShardedFeedback,
    ShardedTuple, StreamConfig, StreamError, StreamTuple,
};
use confair_core::confair::{AlphaMode, ConFairConfig};

/// Per shard, at a quiescent point: (tuples monitored, ids issued, joins).
type ShardState = (u64, u64, JoinStats);

/// The two routers behind one interface, so every case runs on both.
trait Router {
    fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<(), StreamError>;
    fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<(), StreamError>;
    fn state(&mut self) -> Vec<ShardState>;
}

impl Router for ShardedEngine {
    fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<(), StreamError> {
        ShardedEngine::ingest(self, batch).map(drop)
    }
    fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<(), StreamError> {
        ShardedEngine::feedback(self, feedback).map(drop)
    }
    fn state(&mut self) -> Vec<ShardState> {
        (0..self.shard_count() as u32)
            .map(|s| {
                let shard = self.shard(s).unwrap();
                (shard.tuples_seen(), shard.ids_issued(), shard.join_stats())
            })
            .collect()
    }
}

impl Router for ShardedAsyncEngine {
    fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<(), StreamError> {
        ShardedAsyncEngine::ingest(self, batch).map(drop)
    }
    fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<(), StreamError> {
        ShardedAsyncEngine::feedback(self, feedback)
    }
    fn state(&mut self) -> Vec<ShardState> {
        self.flush().unwrap();
        (0..self.shard_count() as u32)
            .map(|s| {
                let shard = self.shard(s).unwrap();
                (
                    shard.tuples_monitored(),
                    shard.tuples_scored(),
                    shard.join_stats(),
                )
            })
            .collect()
    }
}

fn spec() -> DriftStreamSpec {
    DriftStreamSpec {
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    }
}

fn config() -> StreamConfig {
    StreamConfig {
        window: 256,
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

fn sync_router() -> ShardedEngine {
    ShardedEngine::from_reference(
        &spec().reference(600, 17),
        LearnerKind::Logistic,
        17,
        config(),
        2,
    )
    .unwrap()
}

/// Unlabeled tuples addressed to `shards[i]`, so every label must arrive
/// through feedback.
fn routed(shards: &[u32], seed: u64) -> Vec<ShardedTuple> {
    let mut stream = DriftStream::new(spec(), seed);
    StreamTuple::rows_unlabeled_from_dataset(&stream.next_batch(shards.len()))
        .unwrap()
        .into_iter()
        .zip(shards)
        .map(|(tuple, &shard)| ShardedTuple { shard, tuple })
        .collect()
}

fn fb(shard: u32, id: u64, label: u8) -> ShardedFeedback {
    ShardedFeedback {
        shard,
        feedback: LabelFeedback { id, label },
    }
}

fn check_whole_batch_rejection(mut router: impl Router) {
    // Uneven warm-up: shard 0 issues ids 0..30, shard 1 only 0..10.
    let warmup: Vec<u32> = [0; 30].into_iter().chain([1; 10]).collect();
    router.ingest(&routed(&warmup, 1)).unwrap();
    let before = router.state();
    assert_eq!((before[0].1, before[1].1), (30, 10));

    // An out-of-range shard id deep in the batch, behind valid tuples for
    // both shards.
    let mut batch = routed(&[0, 1, 0, 1, 0, 1, 0, 1], 2);
    batch[5].shard = 9;
    assert_eq!(
        router.ingest(&batch),
        Err(StreamError::BadShard {
            shard: 9,
            shards: 2
        })
    );
    assert_eq!(router.state(), before, "a rejected ingest advanced a shard");

    // Each bad feedback record rides behind records that are valid for
    // both shards; the id-20 record is below shard 0's clock but not yet
    // issued by its own shard 1.
    let valid = [fb(0, 0, 1), fb(1, 1, 0), fb(0, 25, 0)];
    let cases = [
        (
            fb(7, 0, 1),
            StreamError::BadShard {
                shard: 7,
                shards: 2,
            },
        ),
        (fb(0, 2, 2), StreamError::BadLabel(2)),
        (
            fb(1, 20, 0),
            StreamError::FutureFeedback { id: 20, issued: 10 },
        ),
    ];
    for (bad, expected) in cases {
        let batch: Vec<ShardedFeedback> = valid.iter().copied().chain([bad]).collect();
        assert_eq!(router.feedback(&batch), Err(expected.clone()));
        assert_eq!(
            router.state(),
            before,
            "a feedback batch rejected with {expected:?} joined something"
        );
    }

    // Control: the valid records on their own do join, on both shards.
    router.feedback(&valid).unwrap();
    let after = router.state();
    assert_eq!((after[0].2.joined, after[1].2.joined), (2, 1));
}

#[test]
fn sync_router_rejects_bad_batches_whole() {
    check_whole_batch_rejection(sync_router());
}

#[test]
fn async_router_rejects_bad_batches_whole() {
    check_whole_batch_rejection(ShardedAsyncEngine::from_sharded(
        sync_router(),
        AsyncConfig::default(),
    ));
}
