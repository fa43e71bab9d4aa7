//! Per-group drift detection on the conformance-violation series.
//!
//! The paper's lens: unfairness *is* data drift between group
//! distributions, and a group's drift is visible as a rising rate of
//! conformance-constraint violations against the group's reference profile.
//! This module runs a Page–Hinkley test per group over the per-tuple
//! violation indicator — the standard sequential change-point test for
//! upward mean shifts: cheap (O(1) per observation), no stored history, and
//! with a tolerance `delta` that absorbs stationary noise.
//!
//! Like the window, the detectors live on the [`Monitor`] side of the
//! engine split: plain owned state, stepped by `Monitor::observe` — on the
//! caller's thread in the sync engine, behind the bounded queue in the
//! async one — and cloned wholesale for checkpoints.
//!
//! The alerts themselves ([`DriftAlert`], [`DriftKind`]) are defined in
//! `cf-telemetry`, which records them in the audit trail as they are, and
//! re-exported here.
//!
//! [`Monitor`]: crate::Monitor

pub use cf_telemetry::{DriftAlert, DriftKind};

/// Page–Hinkley configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PageHinkleyConfig {
    /// Tolerated upward deviation per observation; deviations below this
    /// never accumulate. Keeps a stationary stream quiet.
    pub delta: f64,
    /// Alert threshold on the accumulated deviation statistic.
    pub lambda: f64,
    /// Observations required before the test may fire (warm-up).
    pub min_samples: u64,
    /// Observations to ignore after an alert (hysteresis: one drift event
    /// produces one alert, not a flap of them while the window turns over).
    pub cooldown: u64,
}

impl Default for PageHinkleyConfig {
    fn default() -> Self {
        PageHinkleyConfig {
            delta: 0.02,
            lambda: 12.0,
            min_samples: 200,
            cooldown: 1_000,
        }
    }
}

/// Sequential Page–Hinkley test for an upward shift in a series' mean.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    config: PageHinkleyConfig,
    n: u64,
    mean: f64,
    cumulative: f64,
    minimum: f64,
    cooldown_left: u64,
}

impl PageHinkley {
    /// A fresh detector.
    pub fn new(config: PageHinkleyConfig) -> Self {
        PageHinkley {
            config,
            n: 0,
            mean: 0.0,
            cumulative: 0.0,
            minimum: 0.0,
            cooldown_left: 0,
        }
    }

    /// Feed one observation. Returns the test statistic when it crosses
    /// `lambda` (an upward change-point); the detector then resets and
    /// holds quiet for `cooldown` observations.
    pub fn observe(&mut self, x: f64) -> Option<f64> {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        self.n += 1;
        // Running mean of the series so far (Welford step).
        self.mean += (x - self.mean) / self.n as f64;
        self.cumulative += x - self.mean - self.config.delta;
        self.minimum = self.minimum.min(self.cumulative);
        let statistic = self.cumulative - self.minimum;
        if self.n >= self.config.min_samples && statistic > self.config.lambda {
            self.reset();
            self.cooldown_left = self.config.cooldown;
            Some(statistic)
        } else {
            None
        }
    }

    /// Observations consumed since the last reset.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// The configured threshold.
    pub fn lambda(&self) -> f64 {
        self.config.lambda
    }

    /// Forget all state, including any pending cooldown (used by the
    /// retraining hook, since retraining redefines the reference
    /// distribution and the fresh detector must not stay deaf).
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cumulative = 0.0;
        self.minimum = 0.0;
        self.cooldown_left = 0;
    }

    /// Snapshot the full detector state for checkpointing — the running
    /// mean, the accumulated deviation, its minimum, and the warm-up /
    /// cooldown position, so a restored detector neither reopens the
    /// warm-up gap nor forgets a pending cooldown (no re-alert storm).
    pub fn state(&self) -> PageHinkleyState {
        PageHinkleyState {
            n: self.n,
            mean: self.mean,
            cumulative: self.cumulative,
            minimum: self.minimum,
            cooldown_left: self.cooldown_left,
        }
    }

    /// Rebuild a detector from a configuration plus a snapshotted state.
    /// The restored detector's future alerts are bit-identical to the
    /// original's on the same subsequent observation series.
    pub fn from_state(config: PageHinkleyConfig, state: &PageHinkleyState) -> Self {
        PageHinkley {
            config,
            n: state.n,
            mean: state.mean,
            cumulative: state.cumulative,
            minimum: state.minimum,
            cooldown_left: state.cooldown_left,
        }
    }
}

/// The serialisable mutable state of a [`PageHinkley`] detector (its
/// configuration travels separately, inside the engine's `StreamConfig`).
/// Every float round-trips bit-exactly through the JSON shim.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PageHinkleyState {
    /// Observations since the last reset.
    pub n: u64,
    /// Running mean of the series.
    pub mean: f64,
    /// Accumulated deviation statistic.
    pub cumulative: f64,
    /// Running minimum of the accumulated deviation.
    pub minimum: f64,
    /// Observations still to ignore after the last alert.
    pub cooldown_left: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(delta: f64, lambda: f64, min_samples: u64, cooldown: u64) -> PageHinkley {
        PageHinkley::new(PageHinkleyConfig {
            delta,
            lambda,
            min_samples,
            cooldown,
        })
    }

    /// Deterministic pseudo-Bernoulli stream with rate `p`.
    fn bernoulli(i: u64, p: f64) -> f64 {
        // Weyl sequence on the golden ratio: equidistributed in [0, 1).
        let u = (i as f64 * 0.618_033_988_749_894_9).fract();
        f64::from(u < p)
    }

    #[test]
    fn stationary_series_never_fires() {
        let mut ph = detector(0.02, 12.0, 200, 0);
        for i in 0..200_000 {
            assert_eq!(ph.observe(bernoulli(i, 0.10)), None, "false alarm at {i}");
        }
    }

    #[test]
    fn mean_shift_fires_and_only_after_the_shift() {
        let mut ph = detector(0.02, 12.0, 200, 10_000);
        let mut fired_at = None;
        for i in 0..20_000u64 {
            let p = if i < 5_000 { 0.10 } else { 0.60 };
            if ph.observe(bernoulli(i, p)).is_some() {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("a 0.1 -> 0.6 shift must be detected");
        assert!(at >= 5_000, "no alert before the shift (fired at {at})");
        assert!(
            at < 5_200,
            "detection latency should be small (fired at {at})"
        );
    }

    #[test]
    fn cooldown_suppresses_flapping() {
        let mut ph = detector(0.02, 12.0, 100, 2_000);
        let mut alerts = 0;
        for i in 0..6_000u64 {
            let p = if i < 500 { 0.05 } else { 0.80 };
            if ph.observe(bernoulli(i, p)).is_some() {
                alerts += 1;
            }
        }
        // The post-shift series stays hot, so after each cooldown the test
        // re-arms and may legitimately fire again — but within any cooldown
        // span there is at most one alert.
        assert!(alerts >= 1);
        assert!(
            alerts <= 3,
            "cooldown must bound the alert rate, got {alerts}"
        );
    }

    #[test]
    fn min_samples_gates_early_fires() {
        let mut ph = detector(0.0, 0.1, 1_000, 0);
        // An alternating series whose deviations would trip λ = 0.1 almost
        // immediately: the warm-up gate must hold it back.
        for i in 0..999u32 {
            let x = f64::from(i % 2 == 0);
            assert_eq!(ph.observe(x), None, "fired during warm-up at {i}");
        }
    }

    #[test]
    fn reset_forgets_history() {
        let mut ph = detector(0.02, 5.0, 10, 0);
        for i in 0..3_000 {
            ph.observe(bernoulli(i, 0.9));
        }
        ph.reset();
        assert_eq!(ph.samples(), 0);
        // After reset the high rate is the *new normal*: no alert.
        for i in 0..3_000 {
            assert_eq!(ph.observe(bernoulli(i, 0.9)), None);
        }
    }
}
