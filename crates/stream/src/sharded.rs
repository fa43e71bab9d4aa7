//! Sharded multi-stream serving: one router over independent per-shard
//! engines.
//!
//! Production traffic is naturally partitioned — by region, product line,
//! tenant — and each partition drifts on its own schedule. [`Sharded`]
//! keys an engine per shard id, validates each mixed batch whole, routes
//! every tuple to its shard, scatters the decisions back to input order,
//! and reads a **cross-shard aggregate** [`FairnessSnapshot`] by merging
//! the additive window counters — exact, not approximate, because every
//! counter is a sum. That router is written once, over the small
//! [`Shard`] trait; only serving differs between its two instantiations:
//!
//! * [`ShardedEngine`] (`Sharded<StreamEngine>`) ingests the per-shard
//!   micro-batches in parallel (scoped threads via the `rayon` facade)
//!   and returns once every shard has scored *and* monitored its part;
//! * [`ShardedAsyncEngine`] (`Sharded<AsyncEngine>`) scores every shard
//!   on the caller's thread and hands each shard's record to that shard's
//!   own background monitor.
//!
//! Per-shard state (model, conformance profiles, Page–Hinkley detectors,
//! window, alert log) stays fully independent: a shard's drift alert or
//! retrain never perturbs its neighbours, and per-shard results are
//! byte-identical to running that shard's engine standalone (pinned by the
//! `sharded_consistency` integration test).

use crate::async_engine::{AsyncConfig, AsyncEngine, DropCounters};
use crate::checkpoint::ShardedCheckpoint;
use crate::engine::{
    validate_batch, validate_feedback, IngestOutcome, LabelFeedback, StreamConfig, StreamEngine,
    StreamTuple,
};
use crate::monitor::{FairnessSnapshot, FeedbackOutcome};
use crate::repair::RepairTier;
use crate::scorer::Scorer;
use crate::telemetry::StreamMetrics;
use crate::{Result, StreamError};
use cf_telemetry::{MetricsRegistry, SharedSink, WindowCounters};

/// One observation addressed to a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTuple {
    /// The shard key (region, product, …) already resolved to an index.
    pub shard: u32,
    /// The observation itself.
    pub tuple: StreamTuple,
}

// A routed tuple borrows as the observation it carries, so a single-shard
// router can feed its batch to the shard engine's generic ingest directly
// — no per-tuple gather into a `&StreamTuple` side array.
impl std::borrow::Borrow<StreamTuple> for ShardedTuple {
    fn borrow(&self) -> &StreamTuple {
        &self.tuple
    }
}

/// Recycled scatter-once routing scratch. One counting pass over the batch
/// builds a per-shard histogram, a prefix sum turns it into segment
/// offsets, and a second pass scatters each tuple's *index* into its
/// shard's segment of `order` — so routing a mixed batch costs two linear
/// passes and zero per-tuple allocations, and the buffers are reused
/// across batches instead of reallocated.
#[derive(Debug, Default)]
struct RouteScratch {
    /// Per-shard histogram during counting; per-shard write cursors during
    /// the scatter pass.
    cursors: Vec<u32>,
    /// Start offset of each shard's segment in `order` (length
    /// `shards + 1`; shard `s` owns `order[offsets[s]..offsets[s + 1]]`).
    offsets: Vec<u32>,
    /// Batch indices in shard-major order, arrival order within a shard.
    order: Vec<u32>,
}

impl RouteScratch {
    /// Run the counting + scatter passes for `batch`, whose shard ids have
    /// already been validated to be in `0..n`.
    fn route(&mut self, n: usize, batch: &[ShardedTuple]) {
        self.cursors.clear();
        self.cursors.resize(n, 0);
        for routed in batch {
            self.cursors[routed.shard as usize] += 1;
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut acc = 0u32;
        for cursor in &mut self.cursors {
            let count = *cursor;
            self.offsets.push(acc);
            // The histogram slot becomes the scatter pass's write cursor,
            // starting at its shard's segment offset.
            *cursor = acc;
            acc += count;
        }
        self.offsets.push(acc);
        self.order.clear();
        self.order.resize(batch.len(), 0);
        for (i, routed) in batch.iter().enumerate() {
            let cursor = &mut self.cursors[routed.shard as usize];
            self.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
    }

    /// Shard `s`'s segment of the routed order.
    fn segment(&self, s: usize) -> &[u32] {
        &self.order[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Scatter per-shard decisions (in shard order, each in its segment's
    /// order) back to the input order of a `len`-tuple batch — no
    /// per-tuple position bookkeeping beyond the segments themselves.
    fn scatter<'a>(&self, len: usize, per_shard: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
        let mut decisions = vec![0u8; len];
        for (shard, shard_decisions) in per_shard.enumerate() {
            for (&original, &decision) in self.segment(shard).iter().zip(shard_decisions) {
                decisions[original as usize] = decision;
            }
        }
        decisions
    }
}

/// One late ground-truth record addressed to the shard that served its
/// tuple. Ids are **per shard** (each shard engine runs its own id clock),
/// so the shard key is part of the join address, not just a routing hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedFeedback {
    /// The shard whose engine served (and id-stamped) the tuple.
    pub shard: u32,
    /// The feedback record itself.
    pub feedback: LabelFeedback,
}

/// What one sharded ingest call produced.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The served decision for every tuple of the batch, **in input
    /// order** (scattered back from the per-shard engines).
    pub decisions: Vec<u8>,
    /// Per-shard outcomes, indexed by shard id. Shards that received no
    /// tuples report an empty outcome.
    pub per_shard: Vec<IngestOutcome>,
    /// The cross-shard aggregate fairness reading after the batch.
    pub snapshot: FairnessSnapshot,
}

impl ShardedOutcome {
    /// Alerts raised by this batch across all shards, as `(shard, alert)`.
    pub fn alerts(&self) -> impl Iterator<Item = (u32, &crate::drift::DriftAlert)> {
        self.per_shard
            .iter()
            .enumerate()
            .flat_map(|(s, o)| o.alerts.iter().map(move |a| (s as u32, a)))
    }
}

/// Largest per-shard batch that still ingests serially: below this, the
/// scoring work (≈40 ns/tuple) is cheaper than spawning and joining a
/// scoped OS thread, so parallel dispatch would only add latency.
const MIN_PARALLEL_SHARD_BATCH: usize = 512;

/// What the router needs from a per-shard engine besides serving: the
/// inputs of the fleet-coherence checks and of whole-batch validation, the
/// id clock feedback is judged against, the additive window counters the
/// aggregate snapshot merges, and the per-shard controls it forwards.
/// Implemented by [`StreamEngine`] and [`AsyncEngine`].
pub trait Shard {
    /// The reference schema's column names.
    fn schema(&self) -> &[String];
    /// The stream configuration the engine was built with.
    fn config(&self) -> &StreamConfig;
    /// Ids issued so far: `0..id_clock()` are this shard's valid feedback
    /// keys.
    fn id_clock(&self) -> u64;
    /// Add this shard's windowed per-cell counters (an async shard's
    /// latest published ones) into `merged`, cell by cell.
    fn merge_counts(&self, merged: &mut [WindowCounters]);
    /// The rung of this shard's open repair-ladder episode (`None` while
    /// its ladder is idle or disabled).
    fn repair_tier(&self) -> Option<RepairTier>;
    /// Install a telemetry sink on this shard's monitor.
    ///
    /// # Errors
    /// [`StreamError::Async`] when an async shard's monitor thread is gone.
    fn set_sink(&mut self, sink: SharedSink) -> Result<()>;
}

impl Shard for StreamEngine {
    fn schema(&self) -> &[String] {
        StreamEngine::schema(self)
    }
    fn config(&self) -> &StreamConfig {
        StreamEngine::config(self)
    }
    fn id_clock(&self) -> u64 {
        self.ids_issued()
    }
    fn merge_counts(&self, merged: &mut [WindowCounters]) {
        for (cell, counts) in merged.iter_mut().zip(self.window_counts()) {
            cell.merge(counts);
        }
    }
    fn repair_tier(&self) -> Option<RepairTier> {
        StreamEngine::repair_tier(self)
    }
    fn set_sink(&mut self, sink: SharedSink) -> Result<()> {
        StreamEngine::set_sink(self, sink);
        Ok(())
    }
}

impl Shard for AsyncEngine {
    fn schema(&self) -> &[String] {
        AsyncEngine::schema(self)
    }
    fn config(&self) -> &StreamConfig {
        AsyncEngine::config(self)
    }
    fn id_clock(&self) -> u64 {
        self.tuples_scored()
    }
    fn merge_counts(&self, merged: &mut [WindowCounters]) {
        for (cell, counts) in merged.iter_mut().zip(self.window_counts()) {
            cell.merge(&counts);
        }
    }
    fn repair_tier(&self) -> Option<RepairTier> {
        AsyncEngine::repair_tier(self)
    }
    fn set_sink(&mut self, sink: SharedSink) -> Result<()> {
        AsyncEngine::set_sink(self, sink)
    }
}

/// A router over N independent per-shard engines with whole-batch
/// validation and exact cross-shard aggregate snapshots; see the module
/// docs for its two serving instantiations.
pub struct Sharded<E> {
    shards: Vec<E>,
    route: RouteScratch,
}

/// The synchronous router: per-shard [`StreamEngine`]s with parallel
/// ingest.
pub type ShardedEngine = Sharded<StreamEngine>;

/// The asynchronous sharded router: one [`AsyncEngine`] per shard, so each
/// shard gets its *own* background monitor thread while all scoring stays
/// on the caller's thread.
///
/// This inverts the sync router's parallelism: [`ShardedEngine`]'s
/// `ingest` fans the whole score+monitor pipeline out to scoped threads
/// and joins them before returning; here the cheap part (scoring, ~tens of
/// ns per tuple) runs serially and the expensive part (window/detector
/// updates, on-alert retrains) proceeds concurrently across shards *after*
/// `ingest` has returned. A shard mid-retrain delays only its own queue —
/// its neighbours' monitors, and everyone's decisions, keep flowing.
pub type ShardedAsyncEngine = Sharded<AsyncEngine>;

impl<E: Shard> Sharded<E> {
    /// Assemble a fleet. All engines must share the same schema (or routed
    /// tuples could not be validated uniformly), the same DI* floor (or
    /// the aggregate snapshot's verdict would silently judge the fleet by
    /// one shard's floor) and the same cell layout.
    fn from_shards(shards: Vec<E>) -> Result<Self> {
        let first = shards.first().ok_or(StreamError::NoShards)?;
        let (schema, config) = (first.schema(), first.config());
        for (i, engine) in shards.iter().enumerate().skip(1) {
            if engine.schema() != schema {
                return Err(StreamError::Schema(format!(
                    "shard {i} schema {:?} differs from shard 0 schema {schema:?}",
                    engine.schema(),
                )));
            }
            if engine.config().di_floor != config.di_floor {
                return Err(StreamError::ConfigMismatch(format!(
                    "shard {i} di_floor {} differs from shard 0 di_floor {}",
                    engine.config().di_floor,
                    config.di_floor
                )));
            }
            if engine.config().groups != config.groups {
                return Err(StreamError::ConfigMismatch(format!(
                    "shard {i} has {} group cells; shard 0 has {} \
                     (counters are only additive across identical cell layouts)",
                    engine.config().groups,
                    config.groups
                )));
            }
        }
        Ok(Sharded {
            shards,
            route: RouteScratch::default(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow one shard's engine (per-shard telemetry, alert logs, lag,
    /// published snapshots, audits).
    ///
    /// # Errors
    /// [`StreamError::BadShard`] for an out-of-range shard id.
    pub fn shard(&self, shard: u32) -> Result<&E> {
        self.shards
            .get(shard as usize)
            .ok_or(StreamError::BadShard {
                shard,
                shards: self.shards.len(),
            })
    }

    /// Install a telemetry sink on one shard's monitor (for an async
    /// shard, FIFO with that shard's queue; see [`AsyncEngine::set_sink`]).
    /// Shards keep independent trails (each shard's id clock and window
    /// are its own), so each shard's audit log replays standalone — give
    /// every shard its own sink rather than sharing one.
    ///
    /// # Errors
    /// [`StreamError::BadShard`] for an out-of-range shard id;
    /// [`StreamError::Async`] when that async shard's monitor thread is
    /// gone.
    pub fn set_sink(&mut self, shard: u32, sink: SharedSink) -> Result<()> {
        let shards = self.shards.len();
        self.shards
            .get_mut(shard as usize)
            .ok_or(StreamError::BadShard { shard, shards })?
            .set_sink(sink)
    }

    /// Each shard's open repair-ladder rung, indexed by shard id (`None`
    /// = that shard's ladder is idle or disabled; an async shard reports
    /// its monitor's latest published state, current after a flush).
    /// Shards climb and descend independently — one shard's escalation
    /// never moves its neighbours.
    pub fn repair_tiers(&self) -> Vec<Option<RepairTier>> {
        self.shards.iter().map(E::repair_tier).collect()
    }

    /// The cross-shard merged per-cell counters. Exact: every windowed
    /// counter is additive, so the merge is a componentwise sum (the fleet
    /// checks pinned every shard to the same cell layout). An async fleet
    /// merges each shard's latest published counters: exact after a flush,
    /// otherwise each shard lags by at most its queue backlog.
    pub fn merged_counts(&self) -> Vec<WindowCounters> {
        let mut merged = vec![WindowCounters::default(); self.shards[0].config().groups];
        for engine in &self.shards {
            engine.merge_counts(&mut merged);
        }
        merged
    }

    /// The cross-shard aggregate fairness reading — the fleet-wide DI*,
    /// parity gaps, and violation rates over the union of all windows.
    pub fn snapshot(&self) -> FairnessSnapshot {
        FairnessSnapshot::from_counts(&self.merged_counts(), self.shards[0].config().di_floor)
    }

    /// Validate a whole mixed batch — shard ids, schema, finite features,
    /// groups, labels — before any shard sees a tuple of it.
    fn validate(&self, batch: &[ShardedTuple]) -> Result<()> {
        validate_batch(
            batch
                .iter()
                .map(|routed| self.shard(routed.shard).map(|_| &routed.tuple)),
            self.shards[0].schema().len(),
            self.shards[0].config().groups,
        )
    }

    /// Validate a whole feedback batch — shard range, label range, and
    /// each record against its own shard's id clock — then bucket it per
    /// shard (indexed by shard id), so a validation error joins nothing
    /// anywhere.
    fn route_feedback(&self, feedback: &[ShardedFeedback]) -> Result<Vec<Vec<LabelFeedback>>> {
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        for routed in feedback {
            validate_feedback(&routed.feedback, self.shard(routed.shard)?.id_clock())?;
            per_shard[routed.shard as usize].push(routed.feedback);
        }
        Ok(per_shard)
    }
}

impl ShardedEngine {
    /// Bootstrap `n_shards` engines from one shared reference dataset.
    /// All shards start from identical models and profiles, so the
    /// bootstrap costs one ConFair run and one profiling pass, copied into
    /// every shard. For per-shard references, bootstrap per-shard engines
    /// yourself and use [`ShardedEngine::from_engines`].
    pub fn from_reference(
        reference: &cf_data::Dataset,
        learner: cf_learners::LearnerKind,
        seed: u64,
        config: StreamConfig,
        n_shards: usize,
    ) -> Result<Self> {
        if n_shards == 0 {
            return Err(StreamError::NoShards);
        }
        let (scorer, monitor) =
            StreamEngine::from_reference(reference, learner, seed, config)?.into_parts();
        Self::from_shards(
            (0..n_shards)
                .map(|_| {
                    let scorer = Scorer::new(scorer.schema().to_vec(), scorer.predictor().clone());
                    StreamEngine::from_parts(scorer, monitor.clone())
                })
                .collect::<Result<Vec<_>>>()?,
        )
    }

    /// Assemble from independently bootstrapped engines (e.g. one
    /// reference dataset per region). All engines must share the same
    /// schema, DI* floor and cell layout.
    ///
    /// # Errors
    /// [`StreamError::NoShards`], [`StreamError::Schema`] or
    /// [`StreamError::ConfigMismatch`] for an empty or incoherent fleet.
    pub fn from_engines(shards: Vec<StreamEngine>) -> Result<Self> {
        Self::from_shards(shards)
    }

    /// Register every shard's instruments on `registry` under a
    /// `shard="<id>"` label and start keeping them fresh.
    pub fn install_metrics(&mut self, registry: &MetricsRegistry) {
        for (i, engine) in self.shards.iter_mut().enumerate() {
            engine.set_metrics(StreamMetrics::register_shard(registry, Some(i as u32)));
        }
    }

    /// Total tuples ingested across all shards.
    pub fn tuples_seen(&self) -> u64 {
        self.shards.iter().map(StreamEngine::tuples_seen).sum()
    }

    /// Snapshot every shard coherently as one [`ShardedCheckpoint`].
    ///
    /// Coherence is structural, not locked: [`ShardedEngine::ingest`]
    /// takes `&mut self`, so this `&self` borrow can only run between
    /// batches — no shard can be mid-ingest while its neighbours are
    /// captured, and the per-shard checkpoints always describe one
    /// consistent fleet state.
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] when any shard's predictor does not
    /// support serialisation.
    pub fn checkpoint(&self) -> Result<ShardedCheckpoint> {
        Ok(ShardedCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            shards: self
                .shards
                .iter()
                .map(StreamEngine::checkpoint)
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Rebuild a fleet from a sharded checkpoint. Each shard restores
    /// independently (bit-identical to its pre-checkpoint self), then the
    /// fleet is re-validated through [`ShardedEngine::from_engines`] so a
    /// tampered checkpoint with mismatched schemas or DI* floors is
    /// rejected with the same typed errors as any other inconsistent
    /// fleet.
    ///
    /// # Errors
    /// [`StreamError::CheckpointVersion`] for an incompatible format
    /// version; [`StreamError::Checkpoint`], [`StreamError::Schema`],
    /// [`StreamError::ConfigMismatch`], or [`StreamError::NoShards`] for
    /// inconsistent contents.
    pub fn restore(ckpt: ShardedCheckpoint) -> Result<Self> {
        if ckpt.version != crate::checkpoint::CHECKPOINT_VERSION {
            return Err(StreamError::CheckpointVersion {
                found: ckpt.version,
                expected: crate::checkpoint::CHECKPOINT_VERSION,
            });
        }
        Self::from_shards(
            ckpt.shards
                .into_iter()
                .map(StreamEngine::restore)
                .collect::<Result<Vec<_>>>()?,
        )
    }

    /// Route, score, and monitor one mixed-shard micro-batch. Per-shard
    /// batches are ingested in parallel on scoped threads; tuples keep
    /// their arrival order within each shard, and the returned decisions
    /// are scattered back to the input order.
    ///
    /// # Errors
    /// The whole batch is validated (shard ids, schema, finite features,
    /// groups, labels) before any shard ingests, so a validation error
    /// rejects the batch without advancing any engine. A per-shard scoring
    /// failure after validation surfaces as the first shard's error in
    /// shard order.
    pub fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<ShardedOutcome> {
        self.validate(batch)?;
        let n = self.shards.len();

        // Single-shard fleets skip routing entirely: the routed batch
        // already is shard 0's batch, in arrival order, so after the
        // validation pass above the only remaining router cost is one
        // decisions copy into the input-order view.
        if n == 1 {
            let outcome = self.shards[0].ingest_prevalidated(batch)?;
            return Ok(ShardedOutcome {
                decisions: outcome.decisions.clone(),
                snapshot: self.snapshot(),
                per_shard: vec![outcome],
            });
        }

        // Scatter once: counting-sort the batch indices into shard-major
        // order on recycled scratch, then gather each shard's borrowed
        // sub-batch off its segment. The same segments scatter the
        // decisions back to input order afterwards.
        self.route.route(n, batch);
        let route = &self.route;
        let ordered: Vec<&StreamTuple> = route
            .order
            .iter()
            .map(|&i| &batch[i as usize].tuple)
            .collect();

        // One scoped thread per non-empty shard — but only when the
        // per-shard work amortises the thread spawn/join cost; tiny
        // batches score faster serially than a thread can even start.
        // Empty shards are always resolved inline (their ingest is a
        // constant-time snapshot read). Serial vs parallel is
        // unobservable in the results: shards are fully independent.
        let parallel =
            (0..n).map(|s| route.segment(s).len()).max().unwrap_or(0) >= MIN_PARALLEL_SHARD_BATCH;
        let mut results: Vec<Option<Result<IngestOutcome>>> = (0..n).map(|_| None).collect();
        rayon::scope(|s| {
            for (shard, (engine, slot)) in
                self.shards.iter_mut().zip(results.iter_mut()).enumerate()
            {
                let span = &route.offsets[shard..shard + 2];
                let shard_batch = &ordered[span[0] as usize..span[1] as usize];
                if parallel && !shard_batch.is_empty() {
                    s.spawn(move |_| *slot = Some(engine.ingest_prevalidated(shard_batch)));
                } else {
                    *slot = Some(engine.ingest_prevalidated(shard_batch));
                }
            }
        });
        let outcomes = results
            .into_iter()
            .map(|result| result.expect("every shard slot is filled"))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedOutcome {
            decisions: route.scatter(batch.len(), outcomes.iter().map(|o| &o.decisions[..])),
            per_shard: outcomes,
            snapshot: self.snapshot(),
        })
    }

    /// Route late ground truth to the shards that served it and join it
    /// into their label planes. Returns one [`FeedbackOutcome`] per shard,
    /// indexed by shard id (shards that received no records report zero
    /// joins and their current snapshot).
    ///
    /// # Errors
    /// The whole batch is validated first — shard range
    /// ([`StreamError::BadShard`]), label range
    /// ([`StreamError::BadLabel`]), and per-shard id clocks
    /// ([`StreamError::FutureFeedback`]) — so a validation error joins
    /// nothing anywhere.
    pub fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<Vec<FeedbackOutcome>> {
        let per_shard = self.route_feedback(feedback)?;
        self.shards
            .iter_mut()
            .zip(per_shard)
            .map(|(engine, records)| engine.feedback(&records))
            .collect()
    }
}

impl ShardedAsyncEngine {
    /// Split a synchronous sharded engine into per-shard async pipelines,
    /// carrying every shard's observable state over exactly.
    pub fn from_sharded(engine: ShardedEngine, async_config: AsyncConfig) -> Self {
        Sharded {
            shards: engine
                .shards
                .into_iter()
                .map(|e| AsyncEngine::from_engine(e, async_config))
                .collect(),
            route: RouteScratch::default(),
        }
    }

    /// Bootstrap `n_shards` async engines from one shared reference
    /// dataset (see [`ShardedEngine::from_reference`] for the bootstrap
    /// cost discussion).
    pub fn from_reference(
        reference: &cf_data::Dataset,
        learner: cf_learners::LearnerKind,
        seed: u64,
        config: StreamConfig,
        n_shards: usize,
        async_config: AsyncConfig,
    ) -> Result<Self> {
        Ok(Self::from_sharded(
            ShardedEngine::from_reference(reference, learner, seed, config, n_shards)?,
            async_config,
        ))
    }

    /// Assemble from independently bootstrapped engines, with the same
    /// fleet-coherence validation as [`ShardedEngine::from_engines`].
    pub fn from_engines(shards: Vec<StreamEngine>, async_config: AsyncConfig) -> Result<Self> {
        Ok(Self::from_sharded(
            ShardedEngine::from_engines(shards)?,
            async_config,
        ))
    }

    /// Rebuild a fleet from a sharded checkpoint (same validation as
    /// [`ShardedEngine::restore`]).
    pub fn restore(ckpt: ShardedCheckpoint, async_config: AsyncConfig) -> Result<Self> {
        Ok(Self::from_sharded(
            ShardedEngine::restore(ckpt)?,
            async_config,
        ))
    }

    /// Register every shard's instruments on `registry` under a
    /// `shard="<id>"` label and start keeping them fresh (each shard's
    /// serving path and monitor thread update its own labeled set).
    ///
    /// # Errors
    /// [`StreamError::Async`] when any shard's monitor thread is gone.
    pub fn install_metrics(&mut self, registry: &MetricsRegistry) -> Result<()> {
        for (i, engine) in self.shards.iter_mut().enumerate() {
            engine.set_metrics(StreamMetrics::register_shard(registry, Some(i as u32)))?;
        }
        Ok(())
    }

    /// How far the fleet's worst shard lags its scorer, in tuples — the
    /// **max** over shards, not the sum: lags are not additive (each shard
    /// monitors its own stream), and the operational question this answers
    /// is "how stale can any published reading be right now". 0 after a
    /// [`ShardedAsyncEngine::flush`]. Per-shard values are at
    /// [`ShardedAsyncEngine::shard_monitor_lags`].
    pub fn monitor_lag(&self) -> u64 {
        self.shard_monitor_lags().into_iter().max().unwrap_or(0)
    }

    /// Every shard's scored-vs-monitored lag, indexed by shard id.
    pub fn shard_monitor_lags(&self) -> Vec<u64> {
        self.shards.iter().map(AsyncEngine::monitor_lag).collect()
    }

    /// Every shard's monitor-thread health, indexed by shard id —
    /// replacing the old all-or-nothing view (a shard's death used to be
    /// visible only as an `Async` error from the next call that touched
    /// it). [`ShardHealth::Restarting`](crate::ShardHealth) shards are
    /// still serving, unmonitored, while their supervisor waits out its
    /// backoff; [`ShardHealth::Dead`](crate::ShardHealth) shards have
    /// exhausted their restart budget
    /// and fail their own calls, without stopping the rest of the fleet.
    pub fn shard_health(&self) -> Vec<crate::ShardHealth> {
        self.shards.iter().map(AsyncEngine::health).collect()
    }

    /// Route and score one mixed-shard micro-batch, returning every
    /// decision **in input order** without waiting for any monitoring
    /// work; each shard's `(tuples, decisions)` record lands on that
    /// shard's own queue.
    ///
    /// # Errors
    /// The whole batch is validated before any shard scores, exactly as in
    /// the sync router. A post-validation failure ([`StreamError::Async`]
    /// when a shard's monitor thread is gone) follows the sync router's
    /// contract too: every *other* shard still serves and enqueues its
    /// sub-batch, and the first failing shard's error (in shard order) is
    /// returned — shards are independent, so a dead neighbour must not
    /// stop the rest of the fleet from ingesting.
    pub fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<Vec<u8>> {
        self.validate(batch)?;
        self.route.route(self.shards.len(), batch);
        let route = &self.route;
        // Every shard attempts its sub-batch (cloned off its segment in one
        // exactly-sized allocation: the queue hand-off owns its tuples)
        // before any error is reported.
        let results: Vec<Result<Vec<u8>>> = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(shard, engine)| match route.segment(shard) {
                [] => Ok(Vec::new()),
                segment => engine.ingest_prevalidated_owned(
                    segment
                        .iter()
                        .map(|&i| batch[i as usize].tuple.clone())
                        .collect(),
                ),
            })
            .collect();
        let per_shard = results.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(route.scatter(batch.len(), per_shard.iter().map(Vec::as_slice)))
    }

    /// Route late ground truth to the shards that served it: each shard's
    /// records land on that shard's own queue as a control-plane message
    /// (never dropped, FIFO behind the records that carry their tuples)
    /// and its background monitor joins them. Effects are observable per
    /// shard after a [`ShardedAsyncEngine::flush`].
    ///
    /// # Errors
    /// The whole batch is validated against shard range, label range, and
    /// per-shard scored clocks before anything is enqueued anywhere. A
    /// post-validation [`StreamError::Async`] (a dead shard monitor)
    /// follows the router's contract: every live shard still receives its
    /// records, and the first failing shard's error is returned.
    pub fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<()> {
        let per_shard = self.route_feedback(feedback)?;
        let results: Vec<Result<()>> = self
            .shards
            .iter_mut()
            .zip(per_shard)
            .filter(|(_, records)| !records.is_empty())
            .map(|(engine, records)| engine.feedback(&records))
            .collect();
        results.into_iter().collect()
    }

    /// Barrier over every shard: returns once all queues are drained and
    /// all pending model swaps are installed.
    pub fn flush(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Total tuples scored (served) across all shards.
    pub fn tuples_scored(&self) -> u64 {
        self.shards.iter().map(AsyncEngine::tuples_scored).sum()
    }

    /// Total tuples the shard monitors have fully processed.
    pub fn tuples_monitored(&self) -> u64 {
        self.shards.iter().map(AsyncEngine::tuples_monitored).sum()
    }

    /// Aggregate drop counters across all shard queues.
    pub fn dropped(&self) -> DropCounters {
        let mut total = DropCounters::default();
        for shard in &self.shards {
            let d = shard.dropped();
            total.batches += d.batches;
            total.tuples += d.tuples;
        }
        total
    }

    /// Drain every shard to a quiescent point and snapshot the fleet
    /// coherently (no ingest can interleave: this takes `&mut self`).
    ///
    /// # Errors
    /// Same contract as [`ShardedEngine::checkpoint`], plus
    /// [`StreamError::Async`] when a monitor thread is gone.
    pub fn checkpoint(&mut self) -> Result<ShardedCheckpoint> {
        self.flush()?;
        Ok(ShardedCheckpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            shards: self
                .shards
                .iter_mut()
                .map(AsyncEngine::checkpoint)
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Shut every shard's pipeline down and reunite the fleet into a
    /// synchronous [`ShardedEngine`] carrying the exact same state.
    ///
    /// # Errors
    /// [`StreamError::Async`] when any monitor thread is gone or panicked.
    pub fn into_sharded(self) -> Result<ShardedEngine> {
        ShardedEngine::from_engines(
            self.shards
                .into_iter()
                .map(AsyncEngine::into_engine)
                .collect::<Result<Vec<_>>>()?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RetrainPolicy, StreamConfig};
    use cf_datasets::stream::{DriftStream, DriftStreamSpec};
    use cf_learners::LearnerKind;

    fn stationary() -> DriftStreamSpec {
        DriftStreamSpec {
            drift_onset: u64::MAX,
            ..DriftStreamSpec::default()
        }
    }

    fn sharded(n: usize) -> ShardedEngine {
        let reference = stationary().reference(1_500, 33);
        let config = StreamConfig {
            retrain: RetrainPolicy::Never,
            ..StreamConfig::default()
        };
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 33, config, n).unwrap()
    }

    fn routed_batch(n_shards: u32, k: usize, seed: u64) -> Vec<ShardedTuple> {
        let mut stream = DriftStream::new(stationary(), seed);
        StreamTuple::rows_from_dataset(&stream.next_batch(k))
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, tuple)| ShardedTuple {
                shard: (i as u32) % n_shards,
                tuple,
            })
            .collect()
    }

    #[test]
    fn zero_shards_is_rejected() {
        let reference = stationary().reference(500, 1);
        assert!(matches!(
            ShardedEngine::from_reference(
                &reference,
                LearnerKind::Logistic,
                1,
                StreamConfig::default(),
                0
            ),
            Err(StreamError::NoShards)
        ));
        assert!(matches!(
            ShardedEngine::from_engines(Vec::new()),
            Err(StreamError::NoShards)
        ));
    }

    #[test]
    fn bad_shard_id_rejects_the_whole_batch() {
        let mut engine = sharded(2);
        let mut batch = routed_batch(2, 10, 5);
        batch[7].shard = 9;
        assert!(matches!(
            engine.ingest(&batch),
            Err(StreamError::BadShard {
                shard: 9,
                shards: 2
            })
        ));
        // Nothing ingested anywhere, including the validly-addressed prefix.
        assert_eq!(engine.tuples_seen(), 0);
    }

    #[test]
    fn bad_group_rejects_atomically_with_no_shard_state_advanced() {
        // Validation happens once, at the router boundary — so it must
        // still be *whole-batch* atomic: one out-of-range group cell deep
        // in the batch may not leave any shard's window, id clock, or
        // counters advanced. Exercised on both router paths: the
        // multi-shard scatter route and the single-shard fast path.
        for shards in [2u32, 1] {
            let mut engine = sharded(shards as usize);
            let mut batch = routed_batch(shards, 60, 5);
            batch[41].tuple.group = 7; // K = 2 → cells {0, 1} only
            assert!(matches!(
                engine.ingest(&batch),
                Err(StreamError::BadGroup(7))
            ));
            for s in 0..shards {
                let shard = engine.shard(s).unwrap();
                assert_eq!(shard.tuples_seen(), 0, "shard {s} of {shards} advanced");
                assert_eq!(shard.window_len(), 0);
                assert_eq!(shard.ids_issued(), 0);
            }
            // The same batch with the cell fixed ingests fine afterwards.
            batch[41].tuple.group = 1;
            assert_eq!(engine.ingest(&batch).unwrap().decisions.len(), 60);
            assert_eq!(engine.tuples_seen(), 60);
        }
    }

    #[test]
    fn decisions_come_back_in_input_order() {
        let mut engine = sharded(3);
        let batch = routed_batch(3, 200, 6);
        let outcome = engine.ingest(&batch).unwrap();
        assert_eq!(outcome.decisions.len(), 200);

        // Re-derive the expected order from the per-shard outcomes.
        let mut cursors = [0usize; 3];
        for (routed, &decision) in batch.iter().zip(&outcome.decisions) {
            let s = routed.shard as usize;
            assert_eq!(decision, outcome.per_shard[s].decisions[cursors[s]]);
            cursors[s] += 1;
        }
        assert_eq!(engine.tuples_seen(), 200);
    }

    #[test]
    fn merged_snapshot_equals_recomputing_from_summed_counters() {
        let mut engine = sharded(4);
        let batch = routed_batch(4, 400, 7);
        let outcome = engine.ingest(&batch).unwrap();

        let mut summed = [WindowCounters::default(); 2];
        for s in 0..4 {
            let counts = engine.shard(s).unwrap().window_counts();
            summed[0].merge(&counts[0]);
            summed[1].merge(&counts[1]);
        }
        let recomputed =
            FairnessSnapshot::from_counts(&summed, engine.shard(0).unwrap().config().di_floor);
        assert_eq!(outcome.snapshot, recomputed);
        assert_eq!(engine.snapshot(), recomputed);
        assert_eq!(
            outcome.snapshot.window_len,
            (0..4)
                .map(|s| engine.shard(s).unwrap().window_len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn empty_and_partial_batches_are_well_defined() {
        let mut engine = sharded(2);
        let outcome = engine.ingest(&[]).unwrap();
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.per_shard.len(), 2);
        assert_eq!(engine.tuples_seen(), 0);

        // A batch addressed entirely to shard 1 leaves shard 0 untouched.
        let batch: Vec<ShardedTuple> = routed_batch(1, 50, 8)
            .into_iter()
            .map(|mut r| {
                r.shard = 1;
                r
            })
            .collect();
        engine.ingest(&batch).unwrap();
        assert_eq!(engine.shard(0).unwrap().tuples_seen(), 0);
        assert_eq!(engine.shard(1).unwrap().tuples_seen(), 50);
    }

    #[test]
    fn from_engines_rejects_mismatched_schemas() {
        let a = StreamEngine::from_reference(
            &stationary().reference(600, 1),
            LearnerKind::Logistic,
            1,
            StreamConfig::default(),
        )
        .unwrap();
        let wide = DriftStreamSpec {
            n_features: 3,
            ..stationary()
        };
        let b = StreamEngine::from_reference(
            &wide.reference(600, 1),
            LearnerKind::Logistic,
            1,
            StreamConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            ShardedEngine::from_engines(vec![a, b]),
            Err(StreamError::Schema(_))
        ));
    }

    #[test]
    fn from_engines_rejects_mismatched_di_floors() {
        let reference = stationary().reference(600, 1);
        let mk = |floor: f64| {
            StreamEngine::from_reference(
                &reference,
                LearnerKind::Logistic,
                1,
                StreamConfig {
                    di_floor: floor,
                    ..StreamConfig::default()
                },
            )
            .unwrap()
        };
        assert!(matches!(
            ShardedEngine::from_engines(vec![mk(0.8), mk(0.9)]),
            Err(StreamError::ConfigMismatch(_))
        ));
    }
}
