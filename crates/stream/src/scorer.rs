//! The serving half of the engine split: the fitted predictor (feature
//! encoding + model) and a recycled scratch matrix, and nothing else.
//!
//! [`Scorer`] is the latency-critical path distilled out of the old
//! monolithic `StreamEngine`: it turns a validated micro-batch into hard
//! decisions via the predictor's row-matrix margins, allocation-free in
//! steady state, and holds **no** monitoring state — no window, no
//! detectors, no alert log. That is what makes it cheap to keep on the
//! caller's thread while a [`Monitor`](crate::Monitor) runs elsewhere: the
//! only cross-thread traffic a scorer ever receives is a whole replacement
//! predictor ([`Scorer::install`]) or a whole repair overlay
//! ([`Scorer::apply_repair`]), both installed between batches.
//!
//! ## The decision rule
//!
//! Every batch is decided through one rule: the predictor's raw margins
//! ([`SingleModelPredictor::predict_margin_rows`]) are compared per tuple
//! against the installed [`RepairOverlay`],
//! `margin - conformance_gap[cell] >= threshold[cell]`. The monitor's
//! repair ladder (see [`crate::repair`]) publishes the per-cell thresholds
//! and, at tier 2, the conformance profiles behind the gap. The identity
//! overlay (no thresholds, no projection) reduces the rule to
//! `margin - 0.0 >= 0.0`, which is `margin >= 0.0` for every margin
//! including −0.0 and NaN — exactly the built-in learners' `predict`.
//! Outside a repair episode the rule costs one compare per tuple on top
//! of the margins.

use crate::engine::StreamTuple;
use crate::repair::RepairOverlay;
use crate::{Result, StreamError};
use cf_linalg::Matrix;
use confair_core::SingleModelPredictor;
use std::borrow::Borrow;

/// The allocation-free scoring half of a stream engine: schema, fitted
/// predictor, and the recycled per-batch scratch buffer.
///
/// A `Scorer` is deliberately dumb: it assumes its input was already
/// validated against the schema (the engines do that at their boundaries)
/// and it never looks at labels, windows, or detectors. Everything
/// observable about fairness lives in the [`Monitor`](crate::Monitor)
/// half; the scorer only mirrors the monitor's published repair overlay.
pub struct Scorer {
    schema: Vec<String>,
    predictor: SingleModelPredictor,
    /// Recycled backing buffer for the per-batch feature matrix, so the
    /// steady-state scoring path allocates nothing per tuple.
    scratch: Vec<f64>,
    /// The installed repair overlay (the identity until the monitor's
    /// ladder publishes corrections).
    repair: RepairOverlay,
}

impl Scorer {
    /// A scorer over `schema` serving `predictor`.
    pub fn new(schema: Vec<String>, predictor: SingleModelPredictor) -> Self {
        Scorer {
            schema,
            predictor,
            scratch: Vec::new(),
            repair: RepairOverlay::default(),
        }
    }

    /// The reference schema's column names.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Score one prevalidated micro-batch: assemble the row-major feature
    /// matrix in the recycled scratch buffer, take the predictor's margins
    /// for it (which encodes the buffer in place), and decide a tuple in
    /// cell `g` as
    /// `margin - conformance_gap(g) >= threshold[g]`. Callers guarantee
    /// every tuple matches the schema width (see
    /// [`crate::engine::StreamEngine::ingest`] for the validating entry
    /// points).
    pub fn score<T: Borrow<StreamTuple>>(&mut self, batch: &[T]) -> Result<Vec<u8>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let d = self.schema.len();
        // Score off one row-major matrix whose backing buffer is recycled
        // across calls: no `Dataset` assembly, no column-major round trip,
        // no steady-state allocation per tuple.
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.reserve(batch.len() * d);
        for t in batch {
            buf.extend_from_slice(&t.borrow().features);
        }
        let mut x = Matrix::from_vec(batch.len(), d, buf);
        let margins = self
            .predictor
            .predict_margin_rows(&mut x)
            .map_err(StreamError::from_core)?;
        let decisions = batch
            .iter()
            .zip(margins)
            .map(|(t, margin)| {
                let t = t.borrow();
                let adjusted = margin - self.repair.conformance_gap(t.group, &t.features);
                u8::from(adjusted >= self.repair.threshold(t.group))
            })
            .collect();
        self.scratch = x.into_vec();
        Ok(decisions)
    }

    /// Swap in a replacement predictor (the publication side of a retrain).
    /// Takes effect for the next [`Scorer::score`] call; the scorer's
    /// scratch buffer, schema, and repair overlay are untouched.
    pub fn install(&mut self, predictor: SingleModelPredictor) {
        self.predictor = predictor;
    }

    /// Install the monitor's published repair overlay (the publication
    /// side of a ladder step). The overlay carries *absolute* state, so
    /// applying only the latest of several queued overlays is correct.
    pub fn apply_repair(&mut self, overlay: RepairOverlay) {
        self.repair = overlay;
    }

    /// The per-cell margin cutoffs currently installed (empty until an
    /// overlay is applied).
    pub fn repair_thresholds(&self) -> &[f64] {
        &self.repair.thresholds
    }

    /// Whether the tier-2 conformance projection is installed.
    pub fn repair_projection(&self) -> bool {
        self.repair.projection.is_some()
    }

    /// The served predictor: its encoding and model parameters are the
    /// model half of a checkpoint.
    pub fn predictor(&self) -> &SingleModelPredictor {
        &self.predictor
    }
}
