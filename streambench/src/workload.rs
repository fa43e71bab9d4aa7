//! The four workloads: their shapes, engine configurations, and the
//! inputs each one pregenerates from the run's seed before any clock
//! starts.
//!
//! Every workload is a closed loop with one caller thread: the next batch
//! is sent only after `ingest` (and any feedback or checkpoint due with
//! it) has returned.

use cf_data::Dataset;
use cf_datasets::stream::{DelayedLabelStream, DriftStream, DriftStreamSpec, LabelDelay};
use cf_learners::LearnerKind;
use cf_stream::{LabelFeedback, RepairConfig, RetrainPolicy, StreamConfig, StreamTuple};
use confair_core::confair::{AlphaMode, ConFairConfig};

/// Which workload a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Logistic, d=32, K=2, stationary, labels inline, monitoring only.
    SteadyLr32,
    /// GBT, d=4, K=8, stationary, labels fed back 6k–16k tuples late.
    DelayedGbtK8,
    /// Logistic, d=16, K=2, alternating drift, repair ladder with retrain,
    /// trail sink and metrics registry installed.
    DriftRepair16,
    /// Logistic, d=16, K=2, stationary, periodic checkpoints and restarts.
    Restart16,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::SteadyLr32,
        Kind::DelayedGbtK8,
        Kind::DriftRepair16,
        Kind::Restart16,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SteadyLr32 => "steady_lr32",
            Kind::DelayedGbtK8 => "delayed_gbt_k8",
            Kind::DriftRepair16 => "drift_repair16",
            Kind::Restart16 => "restart16",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One closed-loop step: a batch to ingest and the late labels that come
/// due once it has been served.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Tuples to ingest, in arrival order.
    pub tuples: Vec<StreamTuple>,
    /// Feedback records to send after the batch (empty when labels are
    /// inline).
    pub feedback: Vec<LabelFeedback>,
}

/// The checkpoint schedule of `restart16`.
#[derive(Debug, Clone, Copy)]
pub struct Restarts {
    /// Take a checkpoint (`checkpoint()` + `to_json`) after every this
    /// many batches.
    pub checkpoint_every: usize,
    /// Restart from every this-many-th checkpoint (`from_json` +
    /// `restore`), and keep serving on the restored engine. A pass's last
    /// checkpoint must not be one, so that every restart serves batches.
    pub restart_every: usize,
}

/// A workload with its pregenerated inputs.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The learner ConFair trains.
    pub learner: LearnerKind,
    /// The labeled reference the serving engine bootstraps from.
    pub reference: Dataset,
    /// The references the timed bootstraps of `setup_s` use, one each,
    /// spread over the run; the first is `reference`.
    pub setup_references: Vec<Dataset>,
    /// The engine configuration.
    pub config: StreamConfig,
    /// Seed of the bootstrap's stratified split.
    pub bootstrap_seed: u64,
    /// Tuples per batch.
    pub batch: usize,
    /// One pass's batches, served in order from a fresh engine.
    pub batches: Vec<Batch>,
    /// The generator's label for every tuple of a pass, in stream order,
    /// including labels that are never fed back.
    pub labels: Vec<u8>,
    /// The checkpoint schedule, on `restart16` only.
    pub restarts: Option<Restarts>,
    /// Whether a trail sink and a metrics registry are installed.
    pub instruments: bool,
}

impl Workload {
    /// Tuples in one pass.
    pub fn tuples_per_pass(&self) -> usize {
        self.labels.len()
    }

    /// Whether the traced run may drive the scorer and monitor halves
    /// directly. It may unless instruments are installed: the engine's
    /// trail events cannot be emitted from outside, so with instruments on
    /// the traced run times `ingest` whole.
    pub fn splits(&self) -> bool {
        !self.instruments
    }

    /// One line describing the shape, for the report header.
    pub fn shape(&self) -> String {
        format!(
            "{}: learner={:?} d={} K={} window={} batch={} batches/pass={} \
             closed loop, 1 caller thread",
            self.kind.name(),
            self.learner,
            self.reference.num_attributes(),
            self.config.groups,
            self.config.window,
            self.batch,
            self.batches.len(),
        )
    }

    /// Build `kind`'s inputs from `seed`; the same seed gives the same
    /// inputs.
    pub fn build(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::SteadyLr32 => steady_lr32(seed),
            Kind::DelayedGbtK8 => delayed_gbt_k8(seed),
            Kind::DriftRepair16 => drift_repair16(seed),
            Kind::Restart16 => restart16(seed),
        }
    }
}

/// Reference rows every workload bootstraps from.
const REFERENCE_ROWS: usize = 4_000;

/// `n` references of `spec`'s shape for the timed bootstraps: the first is
/// the seed's own, the others come from seeds derived from it. How long a
/// fit takes depends on its data, so `setup_s` averages over several
/// datasets instead of following the one a seed happens to draw.
fn references(spec: DriftStreamSpec, seed: u64, n: u64) -> Vec<Dataset> {
    (0..n)
        .map(|i| spec.reference(REFERENCE_ROWS, seed.wrapping_add(i * 0x9E37_79B9_7F4A_7C15)))
        .collect()
}

fn stationary(n_features: usize) -> DriftStreamSpec {
    DriftStreamSpec {
        n_features,
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    }
}

/// Labeled batches from one generator, labels inline.
fn labeled_batches(stream: &mut DriftStream, n: usize, batch: usize) -> (Vec<Batch>, Vec<u8>) {
    let mut labels = Vec::with_capacity(n * batch);
    let batches = (0..n)
        .map(|_| {
            let data = stream.next_batch(batch);
            labels.extend_from_slice(data.labels());
            Batch {
                tuples: StreamTuple::rows_from_dataset(&data).expect("generated data is numeric"),
                feedback: Vec::new(),
            }
        })
        .collect();
    (batches, labels)
}

fn steady_lr32(seed: u64) -> Workload {
    const BATCH: usize = 1_024;
    let spec = stationary(32);
    let mut stream = DriftStream::new(spec, seed);
    let (batches, labels) = labeled_batches(&mut stream, 96, BATCH);
    let setup_references = references(spec, seed, 24);
    Workload {
        kind: Kind::SteadyLr32,
        learner: LearnerKind::Logistic,
        reference: setup_references[0].clone(),
        setup_references,
        config: StreamConfig {
            window: 4_096,
            retrain: RetrainPolicy::Never,
            ..StreamConfig::default()
        },
        bootstrap_seed: seed,
        batch: BATCH,
        batches,
        labels,
        restarts: None,
        instruments: false,
    }
}

fn delayed_gbt_k8(seed: u64) -> Workload {
    const BATCH: usize = 1_024;
    const WINDOW: usize = 4_096;
    const MAX_DELAY: u64 = 16_000;
    // Eight cells that all see traffic (each non-majority cell ≈ 8.6% of
    // the stream), labels trailing 6k–16k tuples, 5% never arriving.
    let spec = DriftStreamSpec {
        groups: 8,
        minority_fraction: 0.6,
        minority_offset: 0.5,
        label_delay: LabelDelay::Uniform {
            min: 6_000,
            max: MAX_DELAY,
        },
        missing_label_rate: 0.05,
        ..stationary(4)
    };
    let mut stream = DelayedLabelStream::new(spec, seed);
    let n = 96;
    let mut labels = Vec::with_capacity(n * BATCH);
    let batches = (0..n)
        .map(|_| {
            let (data, due) = stream.next_batch(BATCH);
            labels.extend_from_slice(data.labels());
            Batch {
                tuples: StreamTuple::rows_unlabeled_from_dataset(&data)
                    .expect("generated data is numeric"),
                feedback: due
                    .into_iter()
                    .map(|(id, label)| LabelFeedback { id, label })
                    .collect(),
            }
        })
        .collect();
    let setup_references = references(spec, seed, 6);
    Workload {
        kind: Kind::DelayedGbtK8,
        learner: LearnerKind::Gbt,
        reference: setup_references[0].clone(),
        setup_references,
        config: StreamConfig {
            window: WINDOW,
            groups: 8,
            // Every delayed label outlives the window, so the pending
            // index must hold the longest delay past eviction: joins then
            // go through it instead of missing.
            pending_labels: MAX_DELAY as usize - WINDOW + 2 * BATCH,
            retrain: RetrainPolicy::Never,
            ..StreamConfig::default()
        },
        bootstrap_seed: seed,
        batch: BATCH,
        batches,
        labels,
        restarts: None,
        instruments: false,
    }
}

fn drift_repair16(seed: u64) -> Workload {
    const BATCH: usize = 512;
    const WINDOW: usize = 2_048;
    const SEGMENTS: usize = 12;
    const SEGMENT_BATCHES: usize = 32;
    // Two regimes alternate every segment: the reference geometry, and the
    // same geometry with every cell's label direction turned by π/2. Each
    // switch moves the minority's selection rate away from the majority's
    // under the serving model, so it opens a repair episode that climbs
    // the ladder to a retrain; the retrain fits the new regime, and the
    // floor recovers once the window has turned over. Most batches are
    // calm, so the median call is a plain serving call, and retrains are
    // about 3% of calls, so the p99 is a retrain drawn from many.
    let base = stationary(16);
    let turned = DriftStreamSpec {
        drift_onset: 0,
        onset_step: 1,
        ..base
    };
    let mut regimes = [
        DriftStream::new(base, seed),
        DriftStream::new(turned, seed.wrapping_add(0x9E37_79B9)),
    ];
    let mut batches = Vec::with_capacity(SEGMENTS * SEGMENT_BATCHES);
    let mut labels = Vec::with_capacity(SEGMENTS * SEGMENT_BATCHES * BATCH);
    for segment in 0..SEGMENTS {
        let (b, l) = labeled_batches(&mut regimes[segment % 2], SEGMENT_BATCHES, BATCH);
        batches.extend(b);
        labels.extend(l);
    }
    let setup_references = references(base, seed, 24);
    Workload {
        kind: Kind::DriftRepair16,
        learner: LearnerKind::Logistic,
        reference: setup_references[0].clone(),
        setup_references,
        config: StreamConfig {
            window: WINDOW,
            floor_min_window: WINDOW / 2,
            floor_cooldown: WINDOW as u64,
            retrain: RetrainPolicy::OnAlert {
                min_window: WINDOW / 2,
            },
            repair: RepairConfig {
                ladder: true,
                tier_patience: 4,
                nudge_step: 0.1,
                nudge_max: 0.3,
                recovery_hold: 2,
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
        },
        bootstrap_seed: seed,
        batch: BATCH,
        batches,
        labels,
        restarts: None,
        instruments: true,
    }
}

fn restart16(seed: u64) -> Workload {
    const BATCH: usize = 1_024;
    let spec = stationary(16);
    let mut stream = DriftStream::new(spec, seed);
    let (batches, labels) = labeled_batches(&mut stream, 64, BATCH);
    let setup_references = references(spec, seed, 24);
    Workload {
        kind: Kind::Restart16,
        learner: LearnerKind::Logistic,
        reference: setup_references[0].clone(),
        setup_references,
        config: StreamConfig {
            // A small window keeps the checkpoint document near 140 KB,
            // which the JSON decoder at this commit reads in tens of ms.
            window: 256,
            retrain: RetrainPolicy::Never,
            ..StreamConfig::default()
        },
        bootstrap_seed: seed,
        batch: BATCH,
        batches,
        labels,
        // 16 checkpoints per pass and one restart, at the 10th (batch 40),
        // so the restored engine serves the pass's last 24 batches.
        restarts: Some(Restarts {
            checkpoint_every: 4,
            restart_every: 10,
        }),
        instruments: false,
    }
}
