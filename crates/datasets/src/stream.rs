//! Synthetic drifting streams for the online monitoring subsystem.
//!
//! [`DriftStream`] emits time-ordered micro-batches of the `synthgen`
//! geometry. Before `drift_onset` both groups share the same
//! label-direction (+e1) — a single fair model serves both. From the onset
//! the drifted group's label-conditional distribution rotates by
//! `drift_angle` (optionally ramped over `transition` tuples): exactly the
//! group-conditional drift the paper equates with emerging unfairness. A
//! model trained on the pre-drift reference starts mis-serving the drifted
//! group, its conformance-violation rate rises, and the windowed disparate
//! impact decays — the signals `cf-stream` is built to catch.

use crate::normal_vec;
use cf_data::{Column, Dataset, MINORITY};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// How long ground truth trails serving, in tuples — the label-delay
/// distribution of a [`DelayedLabelStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelDelay {
    /// Labels are available by the end of the batch that served them
    /// (they still travel as feedback, exercising the join path).
    Immediate,
    /// Every label arrives exactly this many tuples after its own.
    Fixed(u64),
    /// Per-tuple delay drawn uniformly from `min..=max` tuples.
    Uniform {
        /// Smallest possible delay.
        min: u64,
        /// Largest possible delay (inclusive).
        max: u64,
    },
}

impl serde::Serialize for LabelDelay {
    fn serialize(&self, w: &mut serde::Writer) {
        match self {
            LabelDelay::Immediate => w.str("immediate"),
            LabelDelay::Fixed(delay) => w.object(|w| w.field(b"\"fixed\":", delay)),
            &LabelDelay::Uniform { min, max } => {
                #[derive(serde::Serialize)]
                struct Uniform {
                    min: u64,
                    max: u64,
                }
                w.object(|w| w.field(b"\"uniform\":", &Uniform { min, max }));
            }
        }
    }
}

impl serde::Deserialize for LabelDelay {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        if v.as_str() == Some("immediate") {
            return Ok(LabelDelay::Immediate);
        }
        if let Some(fixed) = v.get("fixed") {
            return Ok(LabelDelay::Fixed(serde::Deserialize::from_value(fixed)?));
        }
        if let Some(uniform) = v.get("uniform") {
            return Ok(LabelDelay::Uniform {
                min: serde::Deserialize::from_value(uniform.get_or_err("min")?)?,
                max: serde::Deserialize::from_value(uniform.get_or_err("max")?)?,
            });
        }
        Err(serde::Error::msg("unknown label delay"))
    }
}

/// Specification of a drifting stream.
///
/// The knobs fall into four groups:
///
/// * **Geometry** — `n_features`, `class_sep`, `cluster_std`,
///   `minority_std_factor`, `minority_offset`: how separable the classes
///   are and how the minority's tighter, offset sub-region sits relative
///   to the majority (the Fig. 10 geometry).
/// * **Mixture** — `groups`, `minority_fraction`, `positive_rate`: how
///   many group cells arrive and at what rates. At the default
///   `groups: 2` the generator is **bit-identical** to the historical
///   binary stream; for `groups > 2` cell 0 keeps the majority geometry
///   and `minority_fraction` is split uniformly across cells `1..K`,
///   each living in its own offset sub-region.
/// * **Drift schedule** — `drift_onset` (stream clock at which the
///   drifted group's label direction starts rotating; `u64::MAX` for a
///   stationary stream), `drift_angle` (how far it rotates), `drift_group`
///   (who drifts first), `onset_step` (0 = only `drift_group` ever
///   drifts; otherwise the drift spreads to cell `(drift_group + j) % K`
///   at `drift_onset + j * onset_step` — the staggered subgroup drift of
///   Salazar et al.'s setting), and `transition` (0 = abrupt shift;
///   otherwise each cell's rotation ramps linearly over this many tuples
///   from *its own* onset). Detection latency in `cf-stream` benchmarks
///   is measured against `drift_onset`.
/// * **Label feedback** — `label_delay`, `missing_label_rate`: how long
///   ground truth trails serving and what fraction never arrives at all.
///   Only [`DelayedLabelStream`] reads these knobs; the plain
///   [`DriftStream`] always emits fully labeled batches.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DriftStreamSpec {
    /// Total features; the first two are informative, the rest noise.
    pub n_features: usize,
    /// Distance between class centers along a group's label direction.
    pub class_sep: f64,
    /// Within-cluster standard deviation (majority).
    pub cluster_std: f64,
    /// Minority cluster std as a fraction of `cluster_std`.
    pub minority_std_factor: f64,
    /// Offset of the minority's center, orthogonal to its label direction.
    pub minority_offset: f64,
    /// Number of group cells `K` (1..=256). 2 is the historical binary
    /// stream, emitted bit-identically; `K > 2` splits the minority mass
    /// uniformly across cells `1..K`.
    pub groups: usize,
    /// Probability an arriving tuple belongs to the minority (for
    /// `groups > 2`: to *any* of the cells `1..K`, uniformly).
    pub minority_fraction: f64,
    /// Probability of a positive label.
    pub positive_rate: f64,
    /// Tuple index at which the drift begins.
    pub drift_onset: u64,
    /// Rotation (radians) of the drifted group's label direction after the
    /// onset. π fully opposes the labels; π/2 makes them orthogonal.
    pub drift_angle: f64,
    /// Which cell drifts first.
    pub drift_group: u8,
    /// Staggered spread of the drift across cells: 0 confines the drift
    /// to `drift_group` forever; otherwise cell `(drift_group + j) % K`
    /// starts drifting at `drift_onset + j * onset_step`.
    pub onset_step: u64,
    /// Tuples over which each drifting cell's rotation ramps from 0 to
    /// `drift_angle`, counted from that cell's own onset (0 = abrupt).
    pub transition: u64,
    /// How long ground truth trails serving (read by
    /// [`DelayedLabelStream`]).
    pub label_delay: LabelDelay,
    /// Fraction of tuples whose ground truth never arrives (read by
    /// [`DelayedLabelStream`]); must be in `[0, 1)`.
    pub missing_label_rate: f64,
}

/// Hand-written so later-vintage knobs are *optional* on parse:
/// [`DriftStreamCheckpoint`] documents carry no version field, and specs
/// saved before those knobs existed must keep restoring — a missing
/// `label_delay` / `missing_label_rate` defaults to the fully-labeled
/// regime (`Immediate` / 0.0), and a missing `groups` / `onset_step`
/// defaults to the binary single-drift stream (`2` / `0`), which is
/// exactly what those streams were.
impl serde::Deserialize for DriftStreamSpec {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let req = |key: &str| v.get_or_err(key);
        Ok(DriftStreamSpec {
            n_features: serde::Deserialize::from_value(req("n_features")?)?,
            class_sep: serde::Deserialize::from_value(req("class_sep")?)?,
            cluster_std: serde::Deserialize::from_value(req("cluster_std")?)?,
            minority_std_factor: serde::Deserialize::from_value(req("minority_std_factor")?)?,
            minority_offset: serde::Deserialize::from_value(req("minority_offset")?)?,
            groups: match v.get("groups") {
                Some(groups) => serde::Deserialize::from_value(groups)?,
                None => 2,
            },
            minority_fraction: serde::Deserialize::from_value(req("minority_fraction")?)?,
            positive_rate: serde::Deserialize::from_value(req("positive_rate")?)?,
            drift_onset: serde::Deserialize::from_value(req("drift_onset")?)?,
            drift_angle: serde::Deserialize::from_value(req("drift_angle")?)?,
            drift_group: serde::Deserialize::from_value(req("drift_group")?)?,
            onset_step: match v.get("onset_step") {
                Some(step) => serde::Deserialize::from_value(step)?,
                None => 0,
            },
            transition: serde::Deserialize::from_value(req("transition")?)?,
            label_delay: match v.get("label_delay") {
                Some(delay) => serde::Deserialize::from_value(delay)?,
                None => LabelDelay::Immediate,
            },
            missing_label_rate: match v.get("missing_label_rate") {
                Some(rate) => serde::Deserialize::from_value(rate)?,
                None => 0.0,
            },
        })
    }
}

impl Default for DriftStreamSpec {
    fn default() -> Self {
        DriftStreamSpec {
            n_features: 2,
            class_sep: 1.6,
            cluster_std: 0.45,
            minority_std_factor: 0.85,
            minority_offset: 1.1,
            groups: 2,
            minority_fraction: 0.35,
            positive_rate: 0.5,
            drift_onset: 10_000,
            drift_angle: std::f64::consts::FRAC_PI_2,
            drift_group: MINORITY,
            onset_step: 0,
            transition: 0,
            label_delay: LabelDelay::Immediate,
            missing_label_rate: 0.0,
        }
    }
}

impl DriftStreamSpec {
    /// A stationary (never-drifting) sample of `n` tuples — the labeled
    /// reference used to bootstrap a `StreamEngine`. Uses an independent
    /// RNG stream from the live stream itself.
    pub fn reference(&self, n: usize, seed: u64) -> Dataset {
        let mut stationary = *self;
        stationary.drift_onset = u64::MAX;
        let mut stream = DriftStream::new(stationary, seed ^ 0xA5A5_5A5A_1234_8765);
        stream.next_batch_named(n, "drift-reference")
    }
}

/// A saved [`DriftStream`] position: the spec, the exact RNG state (as hex
/// words — the JSON shim's f64-backed numbers cannot carry full-range u64s),
/// and the stream clock. Restoring yields a generator whose subsequent
/// batches are bit-identical to the uninterrupted stream's, so a serving
/// checkpoint can be replayed against the exact same future traffic.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftStreamCheckpoint {
    /// The stream's specification.
    pub spec: DriftStreamSpec,
    /// xoshiro256++ state words, big-endian hex.
    pub rng_state: Vec<String>,
    /// Tuples emitted when the checkpoint was taken.
    pub emitted: u64,
}

/// The stateful generator: deterministic per seed, time-ordered output.
#[derive(Debug, Clone)]
pub struct DriftStream {
    spec: DriftStreamSpec,
    rng: StdRng,
    emitted: u64,
}

/// Spec validation shared by [`DriftStream::new`] (which panics, as a
/// programming-error guard) and [`DriftStream::restore`] (which returns the
/// message as a typed error, since checkpoints are external input).
fn validate_spec(spec: &DriftStreamSpec) -> Result<(), String> {
    if spec.n_features < 2 {
        return Err("need the 2 informative features".into());
    }
    if !(spec.minority_fraction > 0.0 && spec.minority_fraction < 1.0) {
        return Err("minority fraction must be in (0, 1)".into());
    }
    if !(spec.positive_rate > 0.0 && spec.positive_rate < 1.0) {
        return Err("positive rate must be in (0, 1)".into());
    }
    if !(1..=256).contains(&spec.groups) {
        return Err("groups must be in 1..=256 (cell ids are u8)".into());
    }
    if usize::from(spec.drift_group) >= spec.groups {
        return Err("drift group must be one of the configured cells".into());
    }
    if !(0.0..1.0).contains(&spec.missing_label_rate) {
        return Err("missing-label rate must be in [0, 1)".into());
    }
    if let LabelDelay::Uniform { min, max } = spec.label_delay {
        if min > max {
            return Err("label-delay range must have min <= max".into());
        }
    }
    Ok(())
}

impl DriftStream {
    /// A stream positioned at tuple 0.
    ///
    /// # Panics
    /// Panics on non-sensical specs (fractions outside (0, 1), fewer than
    /// 2 features, `groups` outside 1..=256, or a drift group outside the
    /// configured cells).
    pub fn new(spec: DriftStreamSpec, seed: u64) -> Self {
        if let Err(msg) = validate_spec(&spec) {
            panic!("{msg}");
        }
        DriftStream {
            spec,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(11)),
            emitted: 0,
        }
    }

    /// Capture the stream's exact position (spec + RNG state + clock).
    pub fn checkpoint(&self) -> DriftStreamCheckpoint {
        DriftStreamCheckpoint {
            spec: self.spec,
            rng_state: self
                .rng
                .state()
                .iter()
                .map(|w| format!("{w:016x}"))
                .collect(),
            emitted: self.emitted,
        }
    }

    /// Rebuild a stream at a previously captured position. The restored
    /// stream's future batches are bit-identical to the ones the original
    /// would have produced.
    ///
    /// # Errors
    /// Returns a typed error (never panics) on malformed RNG state or a
    /// non-sensical spec — checkpoints are external input.
    pub fn restore(ckpt: &DriftStreamCheckpoint) -> Result<Self, serde::Error> {
        validate_spec(&ckpt.spec).map_err(serde::Error::msg)?;
        if ckpt.rng_state.len() != 4 {
            return Err(serde::Error::msg(format!(
                "rng state must have 4 words, got {}",
                ckpt.rng_state.len()
            )));
        }
        let mut words = [0u64; 4];
        for (slot, hex) in words.iter_mut().zip(&ckpt.rng_state) {
            *slot = u64::from_str_radix(hex, 16)
                .map_err(|e| serde::Error::msg(format!("bad rng word `{hex}`: {e}")))?;
        }
        Ok(DriftStream {
            spec: ckpt.spec,
            rng: StdRng::from_state(words),
            emitted: ckpt.emitted,
        })
    }

    /// Tuples emitted so far (the stream clock).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &DriftStreamSpec {
        &self.spec
    }

    /// The active rotation angle of the first-drifting cell
    /// ([`DriftStreamSpec::drift_group`]) at stream time `t`.
    pub fn angle_at(&self, t: u64) -> f64 {
        self.cell_angle_at(self.spec.drift_group, t)
    }

    /// The stream clock at which cell `g` begins to drift: `drift_group`
    /// drifts at `drift_onset`; with a non-zero
    /// [`DriftStreamSpec::onset_step`] the drift spreads to cell
    /// `(drift_group + j) % K` at `drift_onset + j * onset_step`;
    /// otherwise every other cell returns `u64::MAX` (never).
    pub fn cell_onset(&self, g: u8) -> u64 {
        let spec = &self.spec;
        let k = spec.groups as u64;
        let j = (u64::from(g) + k - u64::from(spec.drift_group)) % k;
        if j == 0 {
            spec.drift_onset
        } else if spec.onset_step == 0 {
            u64::MAX
        } else {
            spec.drift_onset
                .saturating_add(j.saturating_mul(spec.onset_step))
        }
    }

    /// The active rotation angle of cell `g` at stream time `t`, counted
    /// from that cell's own onset ([`DriftStream::cell_onset`]).
    pub fn cell_angle_at(&self, g: u8, t: u64) -> f64 {
        let spec = &self.spec;
        let onset = self.cell_onset(g);
        if t < onset {
            0.0
        } else if spec.transition == 0 {
            spec.drift_angle
        } else {
            let progress = (t - onset) as f64 / spec.transition as f64;
            spec.drift_angle * progress.min(1.0)
        }
    }

    /// Emit the next `k` tuples as a time-ordered dataset named `stream`.
    pub fn next_batch(&mut self, k: usize) -> Dataset {
        self.next_batch_named(k, "stream")
    }

    /// Emit the next `k` tuples under an explicit dataset name.
    pub fn next_batch_named(&mut self, k: usize, name: &str) -> Dataset {
        let d = self.spec.n_features;
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(k); d];
        let mut labels = Vec::with_capacity(k);
        let mut groups = Vec::with_capacity(k);
        for _ in 0..k {
            let (x, y, g) = self.emit_one();
            for (j, v) in x.into_iter().enumerate() {
                columns[j].push(v);
            }
            labels.push(y);
            groups.push(g);
        }
        let col_names: Vec<String> = (0..d).map(|j| format!("X{}", j + 1)).collect();
        Dataset::new(
            name,
            col_names,
            columns.into_iter().map(Column::Numeric).collect(),
            labels,
            groups,
        )
        .expect("generated buffers are consistent")
    }

    fn emit_one(&mut self) -> (Vec<f64>, u8, u8) {
        let spec = self.spec;
        // Cell draw. `groups == 2` MUST keep the historical draw sequence
        // and arithmetic bit-for-bit (the binary stream is pinned by the
        // K=2 equivalence fixtures); K > 2 splits the minority mass
        // uniformly across cells 1..K with one extra uniform draw, K == 1
        // draws nothing.
        let group = if spec.groups == 2 {
            u8::from(self.rng.gen_bool(spec.minority_fraction))
        } else if spec.groups == 1 {
            0
        } else if self.rng.gen_bool(spec.minority_fraction) {
            1 + self.rng.gen_range(0..spec.groups as u64 - 1) as u8
        } else {
            0
        };
        let label = u8::from(self.rng.gen_bool(spec.positive_rate));
        let sign = if label == 1 { 1.0 } else { -1.0 };

        // Label direction: +e1, rotated once the stream clock passes the
        // cell's own onset.
        let angle = self.cell_angle_at(group, self.emitted);
        let dir = [angle.cos(), angle.sin()];
        // Non-baseline cells live in tighter sub-regions offset from the
        // majority (the Fig. 10 geometry). At K=2 the offset is exactly
        // orthogonal to the label direction (so it carries no label
        // signal, preserved bit-for-bit from the binary stream); at
        // K > 2 the 2-plane cannot hold K-1 mutually orthogonal offsets,
        // so cell g sits at angle π·g/K from the label direction —
        // distinct per cell, never parallel to ±dir, and a constant
        // within the cell, so within-cell label separation is unchanged.
        let (offset, std) = if group == 0 {
            ([0.0, 0.0], spec.cluster_std)
        } else if spec.groups == 2 {
            (
                [
                    -dir[1] * spec.minority_offset,
                    dir[0] * spec.minority_offset,
                ],
                spec.cluster_std * spec.minority_std_factor,
            )
        } else {
            let phi = angle + std::f64::consts::PI * f64::from(group) / spec.groups as f64;
            (
                [
                    phi.cos() * spec.minority_offset,
                    phi.sin() * spec.minority_offset,
                ],
                spec.cluster_std * spec.minority_std_factor,
            )
        };

        let mut x = normal_vec(&mut self.rng, spec.n_features);
        for v in x.iter_mut() {
            *v *= std;
        }
        x[0] += sign * spec.class_sep * 0.5 * dir[0] + offset[0];
        x[1] += sign * spec.class_sep * 0.5 * dir[1] + offset[1];

        self.emitted += 1;
        (x, label, group)
    }
}

/// A [`DriftStream`] whose ground truth arrives **late or never** — the
/// workload generator for the delayed/partial-label serving regime.
///
/// Each batch comes in two parts: the freshly emitted tuples (serve them
/// unlabeled — strip the dataset's labels at ingest) and the feedback that
/// has *come due* by the end of the batch — `(tuple id, label)` pairs for
/// tuples emitted earlier, per the spec's [`DriftStreamSpec::label_delay`]
/// distribution. A [`DriftStreamSpec::missing_label_rate`] fraction of
/// labels never arrives at all.
///
/// Tuple ids count emitted tuples from 0 in stream order, which is exactly
/// the id a `cf-stream` engine assigns when the whole stream is ingested
/// into it in order — so the feedback pairs can be handed to
/// `StreamEngine::feedback` verbatim.
///
/// Delay draws come from an **independent RNG stream**: the emitted
/// geometry is bit-identical to a plain [`DriftStream`] with the same spec
/// and seed, so delayed-label runs are comparable tuple-for-tuple with
/// fully-labeled ones.
#[derive(Debug, Clone)]
pub struct DelayedLabelStream {
    inner: DriftStream,
    delay_rng: StdRng,
    /// Scheduled deliveries: due clock → the `(id, label)` records that
    /// become available once `emitted()` reaches the key.
    due: std::collections::BTreeMap<u64, Vec<(u64, u8)>>,
    withheld: u64,
    delivered: u64,
}

impl DelayedLabelStream {
    /// A delayed-label stream positioned at tuple 0.
    ///
    /// # Panics
    /// Panics on non-sensical specs (see [`DriftStream::new`], plus a
    /// missing-label rate outside `[0, 1)` or an empty delay range).
    pub fn new(spec: DriftStreamSpec, seed: u64) -> Self {
        DelayedLabelStream {
            inner: DriftStream::new(spec, seed),
            delay_rng: StdRng::seed_from_u64(
                seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(23),
            ),
            due: std::collections::BTreeMap::new(),
            withheld: 0,
            delivered: 0,
        }
    }

    /// Emit the next `k` tuples plus the feedback due by the end of the
    /// batch. The dataset still carries the true labels (they are the
    /// ground truth the *feedback* will eventually deliver); a serving
    /// harness withholds them via
    /// `StreamTuple::rows_unlabeled_from_dataset` and applies only the
    /// returned `(id, label)` records.
    pub fn next_batch(&mut self, k: usize) -> (Dataset, Vec<(u64, u8)>) {
        let first_id = self.inner.emitted();
        let batch = self.inner.next_batch(k);
        let spec = *self.inner.spec();
        for (offset, &label) in batch.labels().iter().enumerate() {
            let id = first_id + offset as u64;
            if spec.missing_label_rate > 0.0 && self.delay_rng.gen_bool(spec.missing_label_rate) {
                self.withheld += 1;
                continue;
            }
            let delay = match spec.label_delay {
                LabelDelay::Immediate => 0,
                LabelDelay::Fixed(d) => d,
                LabelDelay::Uniform { min, max } => self.delay_rng.gen_range(min..=max),
            };
            // Due once the stream clock has moved `delay` past the tuple.
            self.due
                .entry(id.saturating_add(1).saturating_add(delay))
                .or_default()
                .push((id, label));
        }
        let now = self.inner.emitted();
        let mut feedback = Vec::new();
        while let Some(entry) = self.due.first_entry() {
            if *entry.key() > now {
                break;
            }
            feedback.extend(entry.remove());
        }
        self.delivered += feedback.len() as u64;
        (batch, feedback)
    }

    /// Tuples emitted so far (the stream clock).
    pub fn emitted(&self) -> u64 {
        self.inner.emitted()
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &DriftStreamSpec {
        &self.inner.spec
    }

    /// Labels scheduled but not yet due.
    pub fn outstanding(&self) -> usize {
        self.due.values().map(Vec::len).sum()
    }

    /// Labels that will never arrive (the missing-label draws so far).
    pub fn withheld(&self) -> u64 {
        self.withheld
    }

    /// Feedback records delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// A fleet of per-shard [`DriftStream`]s — the workload generator for the
/// sharded serving engine. Each shard (think region or product line) runs
/// its own independent stream, with its own RNG stream and, optionally, its
/// own drift schedule: real partitioned traffic does not drift in lockstep.
///
/// Construction picks the fleet's drift topology:
/// [`ShardedDriftStream::uniform`] for identically distributed shards
/// (throughput benchmarks), [`ShardedDriftStream::staggered`] for a drift
/// that starts in one shard and spreads on an `onset_step` cadence, or
/// [`ShardedDriftStream::new`] with hand-built specs for anything else
/// (e.g. only one region drifting, or per-region geometries).
#[derive(Debug, Clone)]
pub struct ShardedDriftStream {
    shards: Vec<DriftStream>,
}

/// splitmix64 finaliser — decorrelates per-shard seeds derived from one
/// base seed (same construction as `confair_core::repetition_seed`).
fn shard_seed(base: u64, shard: u64) -> u64 {
    let mut z = base
        .wrapping_add(shard.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardedDriftStream {
    /// One stream per spec, each with a decorrelated seed derived from
    /// `seed`.
    ///
    /// # Panics
    /// Panics when `specs` is empty, or on any non-sensical spec (see
    /// [`DriftStream::new`]).
    pub fn new(specs: &[DriftStreamSpec], seed: u64) -> Self {
        assert!(!specs.is_empty(), "need at least one shard");
        ShardedDriftStream {
            shards: specs
                .iter()
                .enumerate()
                .map(|(i, spec)| DriftStream::new(*spec, shard_seed(seed, i as u64)))
                .collect(),
        }
    }

    /// `n_shards` copies of one spec — identically distributed shards with
    /// independent RNG streams (the throughput-benchmark workload).
    pub fn uniform(spec: DriftStreamSpec, n_shards: usize, seed: u64) -> Self {
        Self::new(&vec![spec; n_shards], seed)
    }

    /// Shards drifting on a staggered schedule: shard `i` keeps `spec` but
    /// begins drifting at `drift_onset + i * onset_step` — the scenario
    /// where trouble starts in one region and spreads.
    pub fn staggered(spec: DriftStreamSpec, n_shards: usize, onset_step: u64, seed: u64) -> Self {
        let specs: Vec<DriftStreamSpec> = (0..n_shards)
            .map(|i| DriftStreamSpec {
                drift_onset: spec.drift_onset.saturating_add(onset_step * i as u64),
                ..spec
            })
            .collect();
        Self::new(&specs, seed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow one shard's stream (its clock, spec, and angle schedule).
    pub fn shard(&self, i: usize) -> &DriftStream {
        &self.shards[i]
    }

    /// Capture every shard's exact position, in shard order.
    pub fn checkpoint(&self) -> Vec<DriftStreamCheckpoint> {
        self.shards.iter().map(DriftStream::checkpoint).collect()
    }

    /// Rebuild a fleet from per-shard checkpoints (in shard order). The
    /// restored fleet's future batches are bit-identical to the originals.
    ///
    /// # Errors
    /// Returns a typed error on an empty checkpoint list or any malformed
    /// per-shard checkpoint.
    pub fn restore(ckpts: &[DriftStreamCheckpoint]) -> Result<Self, serde::Error> {
        if ckpts.is_empty() {
            return Err(serde::Error::msg("need at least one shard checkpoint"));
        }
        Ok(ShardedDriftStream {
            shards: ckpts
                .iter()
                .map(DriftStream::restore)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Advance every shard by `per_shard` tuples, returning one dataset per
    /// shard (index = shard id), each named `shard-<i>`.
    pub fn next_batches(&mut self, per_shard: usize) -> Vec<Dataset> {
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(i, s)| s.next_batch_named(per_shard, &format!("shard-{i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::{CellIndex, MAJORITY};

    fn mean_of(d: &Dataset, cell: CellIndex, col: usize) -> f64 {
        let idx = d.cell_indices(cell);
        let m = d.numeric_matrix(Some(&idx));
        cf_linalg::vector::mean(&m.col(col))
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = DriftStreamSpec::default();
        let a = DriftStream::new(spec, 7).next_batch(500);
        let b = DriftStream::new(spec, 7).next_batch(500);
        assert_eq!(a, b);
        let c = DriftStream::new(spec, 8).next_batch(500);
        assert_ne!(a, c);
    }

    #[test]
    fn batches_advance_the_clock() {
        let mut s = DriftStream::new(DriftStreamSpec::default(), 1);
        let first = s.next_batch(100);
        assert_eq!(s.emitted(), 100);
        let second = s.next_batch(100);
        assert_eq!(s.emitted(), 200);
        assert_ne!(first, second, "consecutive batches are fresh draws");
    }

    #[test]
    fn group_and_label_rates_match_spec() {
        let spec = DriftStreamSpec {
            minority_fraction: 0.3,
            positive_rate: 0.5,
            ..DriftStreamSpec::default()
        };
        let d = DriftStream::new(spec, 3).next_batch(20_000);
        let minority = d.group_count(MINORITY) as f64 / d.len() as f64;
        let positives = d.label_count(1) as f64 / d.len() as f64;
        assert!((minority - 0.3).abs() < 0.02, "minority rate {minority}");
        assert!((positives - 0.5).abs() < 0.02, "positive rate {positives}");
    }

    #[test]
    fn pre_onset_groups_share_label_direction() {
        let spec = DriftStreamSpec {
            drift_onset: 1_000_000,
            ..DriftStreamSpec::default()
        };
        let d = DriftStream::new(spec, 4).next_batch(8_000);
        for g in [MAJORITY, MINORITY] {
            let pos = mean_of(&d, CellIndex { group: g, label: 1 }, 0);
            let neg = mean_of(&d, CellIndex { group: g, label: 0 }, 0);
            assert!(pos > 0.4, "group {g} positives along +X1: {pos}");
            assert!(neg < -0.4, "group {g} negatives along -X1: {neg}");
        }
    }

    #[test]
    fn post_onset_minority_rotates_majority_does_not() {
        let spec = DriftStreamSpec {
            drift_onset: 0,
            drift_angle: std::f64::consts::FRAC_PI_2,
            ..DriftStreamSpec::default()
        };
        let d = DriftStream::new(spec, 5).next_batch(8_000);
        // Majority unchanged: labels separate along X1.
        let w_pos = mean_of(
            &d,
            CellIndex {
                group: MAJORITY,
                label: 1,
            },
            0,
        );
        assert!(w_pos > 0.4, "majority stays on +X1: {w_pos}");
        // Minority rotated 90°: labels separate along X2, not X1.
        let u_pos_x2 = mean_of(
            &d,
            CellIndex {
                group: MINORITY,
                label: 1,
            },
            1,
        );
        let u_neg_x2 = mean_of(
            &d,
            CellIndex {
                group: MINORITY,
                label: 0,
            },
            1,
        );
        assert!(
            u_pos_x2 > 0.4,
            "drifted minority positives along +X2: {u_pos_x2}"
        );
        assert!(
            u_neg_x2 < -0.4,
            "drifted minority negatives along -X2: {u_neg_x2}"
        );
    }

    #[test]
    fn transition_ramps_the_angle() {
        let spec = DriftStreamSpec {
            drift_onset: 1_000,
            transition: 1_000,
            drift_angle: 1.0,
            ..DriftStreamSpec::default()
        };
        let s = DriftStream::new(spec, 6);
        assert_eq!(s.angle_at(0), 0.0);
        assert_eq!(s.angle_at(999), 0.0);
        assert!((s.angle_at(1_500) - 0.5).abs() < 1e-12);
        assert_eq!(s.angle_at(5_000), 1.0);
    }

    #[test]
    fn reference_is_stationary_and_distinct_from_stream() {
        let spec = DriftStreamSpec {
            drift_onset: 0,
            ..DriftStreamSpec::default()
        };
        let reference = spec.reference(4_000, 9);
        // Even though the live stream drifts from tuple 0, the reference
        // sample stays on the shared pre-drift geometry.
        let u_pos = mean_of(
            &reference,
            CellIndex {
                group: MINORITY,
                label: 1,
            },
            0,
        );
        assert!(
            u_pos > 0.4,
            "reference minority positives along +X1: {u_pos}"
        );
        assert_eq!(reference.name(), "drift-reference");
    }

    #[test]
    fn noise_features_are_uninformative() {
        let spec = DriftStreamSpec {
            n_features: 5,
            ..DriftStreamSpec::default()
        };
        let d = DriftStream::new(spec, 10).next_batch(6_000);
        assert_eq!(d.num_attributes(), 5);
        for j in 2..5 {
            let pos = mean_of(
                &d,
                CellIndex {
                    group: MAJORITY,
                    label: 1,
                },
                j,
            );
            let neg = mean_of(
                &d,
                CellIndex {
                    group: MAJORITY,
                    label: 0,
                },
                j,
            );
            assert!((pos - neg).abs() < 0.1, "noise col {j} separates labels");
        }
    }

    #[test]
    fn sharded_streams_are_deterministic_and_decorrelated() {
        let spec = DriftStreamSpec::default();
        let a = ShardedDriftStream::uniform(spec, 3, 42).next_batches(200);
        let b = ShardedDriftStream::uniform(spec, 3, 42).next_batches(200);
        assert_eq!(a, b, "same seed, same fleet");
        assert_eq!(a.len(), 3);
        // Different shards draw from different RNG streams.
        assert_ne!(a[0].labels(), a[1].labels());
        // And each shard matches a standalone stream with the derived seed.
        let standalone = DriftStream::new(spec, shard_seed(42, 1)).next_batch_named(200, "shard-1");
        assert_eq!(a[1], standalone);
    }

    #[test]
    fn staggered_onsets_step_per_shard() {
        let spec = DriftStreamSpec {
            drift_onset: 1_000,
            ..DriftStreamSpec::default()
        };
        let fleet = ShardedDriftStream::staggered(spec, 3, 500, 7);
        assert_eq!(fleet.shard_count(), 3);
        assert_eq!(fleet.shard(0).spec().drift_onset, 1_000);
        assert_eq!(fleet.shard(1).spec().drift_onset, 1_500);
        assert_eq!(fleet.shard(2).spec().drift_onset, 2_000);
        // Shard 1 has not drifted at t=1200 while shard 0 has.
        assert!(fleet.shard(0).angle_at(1_200) > 0.0);
        assert_eq!(fleet.shard(1).angle_at(1_200), 0.0);
    }

    #[test]
    fn checkpoint_resumes_at_the_exact_rng_position() {
        let spec = DriftStreamSpec {
            drift_onset: 500,
            ..DriftStreamSpec::default()
        };
        let mut live = DriftStream::new(spec, 21);
        live.next_batch(777); // arbitrary mid-batch-size position

        // Round-trip the checkpoint through its JSON document.
        let doc = serde_json::to_string(&live.checkpoint()).unwrap();
        let parsed: DriftStreamCheckpoint = serde_json::from_str(&doc).unwrap();
        let mut resumed = DriftStream::restore(&parsed).unwrap();

        assert_eq!(resumed.emitted(), 777);
        assert_eq!(resumed.spec(), live.spec());
        for k in [1usize, 100, 333] {
            assert_eq!(
                live.next_batch(k),
                resumed.next_batch(k),
                "batch of {k} after resume"
            );
        }
    }

    #[test]
    fn corrupted_stream_checkpoints_are_typed_errors() {
        let stream = DriftStream::new(DriftStreamSpec::default(), 1);
        let good = stream.checkpoint();

        let mut short = good.clone();
        short.rng_state.pop();
        assert!(DriftStream::restore(&short).is_err());

        let mut garbled = good.clone();
        garbled.rng_state[2] = "not-hex".into();
        assert!(DriftStream::restore(&garbled).is_err());

        let mut bad_spec = good;
        bad_spec.spec.minority_fraction = 1.5;
        assert!(DriftStream::restore(&bad_spec).is_err());
    }

    #[test]
    fn sharded_fleet_checkpoint_resumes_every_shard() {
        let spec = DriftStreamSpec::default();
        let mut live = ShardedDriftStream::staggered(spec, 3, 400, 13);
        live.next_batches(250);

        let mut resumed = ShardedDriftStream::restore(&live.checkpoint()).unwrap();
        assert_eq!(resumed.shard_count(), 3);
        assert_eq!(live.next_batches(200), resumed.next_batches(200));

        assert!(ShardedDriftStream::restore(&[]).is_err());
    }

    #[test]
    fn delayed_stream_geometry_matches_plain_stream() {
        // Delay draws must come from an independent RNG stream: the
        // emitted tuples are bit-identical to the plain generator's.
        let spec = DriftStreamSpec {
            label_delay: LabelDelay::Uniform { min: 5, max: 300 },
            missing_label_rate: 0.2,
            ..DriftStreamSpec::default()
        };
        let (batch, _) = DelayedLabelStream::new(spec, 9).next_batch(400);
        let plain = DriftStream::new(spec, 9).next_batch(400);
        assert_eq!(batch, plain);
    }

    #[test]
    fn immediate_delay_delivers_within_the_batch() {
        let spec = DriftStreamSpec::default(); // Immediate, nothing missing
        let mut s = DelayedLabelStream::new(spec, 3);
        let (batch, feedback) = s.next_batch(250);
        assert_eq!(feedback.len(), 250);
        assert_eq!(s.outstanding(), 0);
        // Ids are stream positions and labels are the batch's own.
        for &(id, label) in &feedback {
            assert_eq!(label, batch.labels()[id as usize]);
        }
    }

    #[test]
    fn fixed_delay_trails_by_exactly_the_delay() {
        let spec = DriftStreamSpec {
            label_delay: LabelDelay::Fixed(100),
            ..DriftStreamSpec::default()
        };
        let mut s = DelayedLabelStream::new(spec, 4);
        let (_, feedback) = s.next_batch(100);
        assert!(feedback.is_empty(), "nothing due before the delay");
        assert_eq!(s.outstanding(), 100);
        let (_, feedback) = s.next_batch(100);
        // After 200 emissions, ids 0..=99 are due (id + 1 + 100 <= 200).
        assert_eq!(feedback.len(), 100);
        assert!(feedback.iter().all(|&(id, _)| id < 100));
        assert_eq!(s.delivered(), 100);
    }

    #[test]
    fn missing_labels_are_withheld_forever() {
        let spec = DriftStreamSpec {
            missing_label_rate: 0.3,
            ..DriftStreamSpec::default()
        };
        let mut s = DelayedLabelStream::new(spec, 5);
        let (_, feedback) = s.next_batch(10_000);
        let rate = 1.0 - feedback.len() as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "withheld rate {rate}");
        assert_eq!(s.withheld() + s.delivered(), 10_000);
        assert_eq!(s.outstanding(), 0, "Immediate delay leaves nothing due");
    }

    #[test]
    fn label_delay_round_trips_through_spec_serde() {
        for delay in [
            LabelDelay::Immediate,
            LabelDelay::Fixed(2_000),
            LabelDelay::Uniform { min: 10, max: 99 },
        ] {
            let spec = DriftStreamSpec {
                label_delay: delay,
                missing_label_rate: 0.05,
                ..DriftStreamSpec::default()
            };
            let json = serde_json::to_string(&spec).unwrap();
            let parsed: DriftStreamSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, spec);
        }
    }

    /// Pin the K-ary geometry: per-cell arrival rates, distinct offset
    /// sub-regions, shared pre-onset label direction, and single-cell
    /// drift — the contract the K-ary monitoring suite leans on.
    #[test]
    fn kary_geometry_is_pinned() {
        let spec = DriftStreamSpec {
            groups: 4,
            minority_fraction: 0.6,
            drift_onset: 1_000_000,
            ..DriftStreamSpec::default()
        };
        let d = DriftStream::new(spec, 17).next_batch(24_000);
        // Cell 0 keeps 1 - minority_fraction; cells 1..K split the rest
        // uniformly.
        let rate = |g: u8| d.groups().iter().filter(|&&x| x == g).count() as f64 / d.len() as f64;
        assert!((rate(0) - 0.4).abs() < 0.02, "cell 0 rate {}", rate(0));
        for g in 1..4u8 {
            assert!((rate(g) - 0.2).abs() < 0.02, "cell {g} rate {}", rate(g));
        }
        // Pre-onset every cell separates labels along +X1 ...
        for g in 0..4u8 {
            let pos = mean_of(&d, CellIndex { group: g, label: 1 }, 0);
            let neg = mean_of(&d, CellIndex { group: g, label: 0 }, 0);
            assert!(pos - neg > 0.8, "cell {g} separates along X1");
        }
        // ... and non-baseline cells sit in distinct offset sub-regions:
        // cell g's centroid is minority_offset away at angle π·g/K.
        for g in 1..4u8 {
            let phi = std::f64::consts::PI * f64::from(g) / 4.0;
            let idx = d.group_indices(g);
            let m = d.numeric_matrix(Some(&idx));
            let cx = cf_linalg::vector::mean(&m.col(0));
            let cy = cf_linalg::vector::mean(&m.col(1));
            assert!(
                (cx - 1.1 * phi.cos()).abs() < 0.1,
                "cell {g} X1 centroid {cx}"
            );
            assert!(
                (cy - 1.1 * phi.sin()).abs() < 0.1,
                "cell {g} X2 centroid {cy}"
            );
        }

        // Single-cell drift: only cell 2 rotates, every other cell keeps
        // the shared label direction.
        let drifted = DriftStreamSpec {
            groups: 4,
            drift_group: 2,
            drift_onset: 0,
            drift_angle: std::f64::consts::FRAC_PI_2,
            minority_fraction: 0.6,
            ..DriftStreamSpec::default()
        };
        let d = DriftStream::new(drifted, 18).next_batch(24_000);
        for g in [0u8, 1, 3] {
            let pos = mean_of(&d, CellIndex { group: g, label: 1 }, 0);
            let neg = mean_of(&d, CellIndex { group: g, label: 0 }, 0);
            assert!(pos - neg > 0.8, "undrifted cell {g} stays on X1");
        }
        let pos_x2 = mean_of(&d, CellIndex { group: 2, label: 1 }, 1);
        let neg_x2 = mean_of(&d, CellIndex { group: 2, label: 0 }, 1);
        assert!(pos_x2 - neg_x2 > 0.8, "drifted cell 2 separates along X2");
        let pos_x1 = mean_of(&d, CellIndex { group: 2, label: 1 }, 0);
        let neg_x1 = mean_of(&d, CellIndex { group: 2, label: 0 }, 0);
        assert!(
            (pos_x1 - neg_x1).abs() < 0.2,
            "cell 2 no longer separates on X1"
        );
    }

    #[test]
    fn staggered_cell_onsets_step_cyclically_from_the_drift_group() {
        let spec = DriftStreamSpec {
            groups: 4,
            drift_group: 2,
            drift_onset: 1_000,
            onset_step: 500,
            minority_fraction: 0.6,
            ..DriftStreamSpec::default()
        };
        let s = DriftStream::new(spec, 0);
        assert_eq!(s.cell_onset(2), 1_000);
        assert_eq!(s.cell_onset(3), 1_500);
        assert_eq!(s.cell_onset(0), 2_000);
        assert_eq!(s.cell_onset(1), 2_500);
        assert_eq!(s.cell_angle_at(3, 1_400), 0.0);
        assert!(s.cell_angle_at(3, 1_600) > 0.0);

        // onset_step == 0 confines the drift to drift_group forever.
        let confined = DriftStream::new(
            DriftStreamSpec {
                onset_step: 0,
                ..spec
            },
            0,
        );
        assert_eq!(confined.cell_onset(2), 1_000);
        for g in [0u8, 1, 3] {
            assert_eq!(confined.cell_onset(g), u64::MAX, "cell {g} never drifts");
            assert_eq!(confined.cell_angle_at(g, u64::MAX - 1), 0.0);
        }
    }

    #[test]
    fn binary_specs_without_kary_knobs_still_parse() {
        // Pre-K-ary spec documents carry no `groups` / `onset_step`; they
        // must keep restoring as the binary single-drift streams they
        // described.
        let mut doc = serde_json::from_str::<serde::Value>(
            &serde_json::to_string(&DriftStreamSpec::default()).unwrap(),
        )
        .unwrap();
        if let serde::Value::Object(fields) = &mut doc {
            fields.retain(|(k, _)| k != "groups" && k != "onset_step");
        }
        let parsed: DriftStreamSpec =
            serde::Deserialize::from_value(&doc).expect("pre-K-ary spec documents keep parsing");
        assert_eq!(parsed, DriftStreamSpec::default());
        assert_eq!(parsed.groups, 2);
        assert_eq!(parsed.onset_step, 0);
    }

    #[test]
    #[should_panic]
    fn drift_group_outside_cells_panics() {
        let _ = DriftStream::new(
            DriftStreamSpec {
                groups: 3,
                drift_group: 3,
                ..DriftStreamSpec::default()
            },
            0,
        );
    }

    #[test]
    fn specs_without_label_knobs_still_parse() {
        // Stream checkpoints carry no version field, so specs saved before
        // the label-feedback knobs existed must restore as the
        // fully-labeled regime they described.
        let mut doc = serde_json::from_str::<serde::Value>(
            &serde_json::to_string(&DriftStreamSpec::default()).unwrap(),
        )
        .unwrap();
        if let serde::Value::Object(fields) = &mut doc {
            fields.retain(|(k, _)| k != "label_delay" && k != "missing_label_rate");
        }
        let parsed: DriftStreamSpec =
            serde::Deserialize::from_value(&doc).expect("pre-knob spec documents keep parsing");
        assert_eq!(parsed, DriftStreamSpec::default());
        assert_eq!(parsed.label_delay, LabelDelay::Immediate);
        assert_eq!(parsed.missing_label_rate, 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_missing_rate_panics() {
        let _ = DelayedLabelStream::new(
            DriftStreamSpec {
                missing_label_rate: 1.0,
                ..DriftStreamSpec::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic]
    fn empty_delay_range_panics() {
        let _ = DelayedLabelStream::new(
            DriftStreamSpec {
                label_delay: LabelDelay::Uniform { min: 9, max: 3 },
                ..DriftStreamSpec::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic]
    fn empty_shard_fleet_panics() {
        let _ = ShardedDriftStream::new(&[], 0);
    }

    #[test]
    #[should_panic]
    fn bad_fraction_panics() {
        let _ = DriftStream::new(
            DriftStreamSpec {
                minority_fraction: 1.5,
                ..DriftStreamSpec::default()
            },
            0,
        );
    }
}
