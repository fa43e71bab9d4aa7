//! Glue between the stream engines and the `cf-telemetry` plane.
//!
//! Two jobs live here. First, the **snapshot bridge**. The window's
//! counters and the alerts need none: `cf-telemetry` defines
//! [`WindowCounters`](cf_telemetry::WindowCounters) and [`DriftAlert`],
//! the engines keep them, and the trail records them as they are. Only
//! [`FairnessSnapshot`] has a trail twin, [`SnapshotData`], because it
//! carries the live engine's degraded flag on top of the counter
//! arithmetic. [`FairnessSnapshot::from_counts`] *delegates* that
//! arithmetic to [`SnapshotData::from_counters`], so a live snapshot and
//! one recomputed by [`cf_telemetry::replay()`] are products of the same
//! code path: the audit trail's byte-identity is structural, not
//! coincidental.
//!
//! Second, [`StreamMetrics`]: the engines' scrape surface on a
//! [`MetricsRegistry`]. One registration covers both engine halves — the
//! latency histogram and queue/backlog gauges are fed from the serving
//! side, the alert/retrain/join instruments from the monitor side — and a
//! sharded deployment registers one set per shard under a `shard` label.

use crate::drift::{DriftAlert, DriftKind};
use crate::monitor::FairnessSnapshot;
use cf_telemetry::{
    log2_buckets, AlertExplanation, Counter, DriftAlertEvent, Gauge, Histogram, MetricsRegistry,
    SnapshotData, TelemetryEvent,
};

impl FairnessSnapshot {
    /// The serialisable telemetry mirror of this reading (field-for-field
    /// identical; audit events carry this form).
    pub fn to_data(&self) -> SnapshotData {
        SnapshotData {
            window_len: self.window_len,
            selection_rate: self.selection_rate.clone(),
            disparate_impact: self.disparate_impact,
            di_star: self.di_star,
            demographic_parity_gap: self.demographic_parity_gap,
            equal_opportunity_gap: self.equal_opportunity_gap,
            violation_rate: self.violation_rate.clone(),
            labeled: self.labeled.clone(),
            di_floor: self.di_floor,
        }
    }

    /// Rebuild a reading from its telemetry mirror (e.g. one recomputed by
    /// [`cf_telemetry::replay()`]). Counter-derived readings carry no
    /// degraded flag — that is live-engine state, reported `false` here
    /// (a replayed trail surfaces degradation through its own
    /// `degraded_mode` events instead).
    pub fn from_data(data: SnapshotData) -> Self {
        FairnessSnapshot {
            window_len: data.window_len,
            selection_rate: data.selection_rate,
            disparate_impact: data.disparate_impact,
            di_star: data.di_star,
            demographic_parity_gap: data.demographic_parity_gap,
            equal_opportunity_gap: data.equal_opportunity_gap,
            violation_rate: data.violation_rate,
            labeled: data.labeled,
            di_floor: data.di_floor,
            degraded: false,
        }
    }
}

fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{r:.4}"),
        None => "--".to_string(),
    }
}

/// Render per-cell rates for an alert summary. The binary layout keeps
/// its classic `[W, U] = [a, b]` wording verbatim; any other K lists the
/// cells positionally (`cells = [a, b, c, …]`, index = cell id).
fn fmt_rates(rates: &[Option<f64>]) -> String {
    let listed = rates
        .iter()
        .map(|&r| fmt_rate(r))
        .collect::<Vec<_>>()
        .join(", ");
    if rates.len() == 2 {
        format!("[W, U] = [{listed}]")
    } else {
        format!("cells = [{listed}]")
    }
}

/// Build the alert event, explanation included: which `(group, plane)`
/// cell moved, and the windowed rates that say by how much.
pub(crate) fn alert_event(alert: &DriftAlert, snapshot: &FairnessSnapshot) -> TelemetryEvent {
    let (cell, summary) = match alert.kind {
        DriftKind::ConformanceViolation => (
            format!("group={}/decision", alert.group),
            format!(
                "Page-Hinkley on group {}'s decision-conformance series crossed its \
                 threshold (statistic {:.4} > lambda {:.4}); windowed violation rates \
                 {}",
                alert.group,
                alert.statistic,
                alert.threshold,
                fmt_rates(&snapshot.violation_rate),
            ),
        ),
        DriftKind::DisparateImpactFloor => (
            format!("group={}/selection", alert.group),
            format!(
                "windowed DI* {:.4} fell below the {:.2} floor; selection rates \
                 {} disadvantage group {}",
                alert.statistic,
                alert.threshold,
                fmt_rates(&snapshot.selection_rate),
                alert.group,
            ),
        ),
    };
    TelemetryEvent::DriftAlert(DriftAlertEvent {
        at_tuple: alert.at_tuple,
        alert: alert.clone(),
        explanation: AlertExplanation {
            cell,
            selection_rate: snapshot.selection_rate.clone(),
            violation_rate: snapshot.violation_rate.clone(),
            summary,
        },
    })
}

/// The engines' instruments on a [`MetricsRegistry`] — one coherent
/// scrape surface over what used to be scattered accessors
/// (`DropCounters`, `JoinStats`, `monitor_lag()`, `alerts()`).
///
/// Handles are cheap atomic clones: the serving half updates the latency
/// histogram and the backlog/lag/drop gauges, the monitor half (possibly
/// on its own thread) updates the alert/retrain/join instruments, and
/// both halves of one engine share a single registration. Install via
/// `StreamEngine::install_metrics` *before* wrapping the engine in an
/// async pipeline, so the handles travel with the monitor to its thread.
#[derive(Clone)]
pub struct StreamMetrics {
    /// `cf_stream_ingest_latency_us`: per-batch ingest latency histogram
    /// (fixed log₂ buckets, 1 µs … ~1 s) — p50/p99 come from here.
    pub ingest_latency_us: Histogram,
    /// `cf_stream_ingest_batches_total`: micro-batches ingested.
    pub ingest_batches: Counter,
    /// `cf_stream_ingest_tuples_total`: tuples ingested.
    pub ingest_tuples: Counter,
    /// `cf_stream_queue_backlog`: monitor-queue backlog (async engines).
    pub queue_backlog: Gauge,
    /// `cf_stream_monitor_lag`: tuples scored but not yet monitored.
    pub monitor_lag: Gauge,
    /// `cf_stream_dropped_batches`: cumulative batches lost to
    /// backpressure.
    pub dropped_batches: Gauge,
    /// `cf_stream_dropped_tuples`: cumulative tuples lost to backpressure.
    pub dropped_tuples: Gauge,
    /// `cf_stream_pending_labels`: evicted decisions awaiting labels.
    pub pending_labels: Gauge,
    /// `cf_stream_labels_joined`: cumulative label joins.
    pub labels_joined: Gauge,
    /// `cf_stream_labels_unmatched`: cumulative unmatched feedback
    /// records.
    pub labels_unmatched: Gauge,
    /// `cf_stream_window_fill`: tuples currently in the window.
    pub window_fill: Gauge,
    /// `cf_stream_alerts`: cumulative drift alerts.
    pub alerts_total: Gauge,
    /// `cf_stream_retrains`: cumulative successful retrains.
    pub retrains_total: Gauge,
    /// `cf_stream_retrain_duration_us`: wall-clock duration of each
    /// ConFair-retrain repair episode — every attempt plus the backoff
    /// sleeps between them, observed once per episode (fixed log₂
    /// buckets, 128 µs … ~4 s).
    pub retrain_duration_us: Histogram,
    /// `cf_stream_retrain_failures_total`: failed retrain *attempts*
    /// (each retry inside a repair episode counts once, as does each
    /// failed `StreamEngine::retrain_now`).
    pub retrain_failures_total: Counter,
    /// `cf_stream_degraded`: 1 while the engine serves in degraded mode
    /// (repair budget exhausted, stale model still serving), else 0.
    pub degraded: Gauge,
    /// `cf_stream_repair_tier`: the active repair-ladder rung (0 = idle,
    /// 1 = threshold nudge, 2 = DiffFair projection, 3 = ConFair retrain).
    pub repair_tier: Gauge,
    /// `cf_stream_threshold_nudges_total`: tier-1 per-cell threshold
    /// nudges applied.
    pub threshold_nudges_total: Counter,
    /// `cf_stream_telemetry_disabled_total`: audit events dropped because
    /// the sink lock was poisoned by a panicked subscriber.
    pub telemetry_disabled_total: Counter,
    /// `cf_stream_monitor_restarts`: times the supervisor respawned a
    /// dead monitor thread.
    pub monitor_restarts: Gauge,
    /// `cf_stream_monitor_gap_tuples`: cumulative tuples scored but never
    /// monitored because they fell into a monitor-death gap.
    pub monitor_gap_tuples: Gauge,
}

impl StreamMetrics {
    /// Register (or look up) the unlabeled instrument set.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self::register_shard(registry, None)
    }

    /// Register (or look up) the instrument set, labeled `shard="<id>"`
    /// when `shard` is given — the per-shard surface a sharded deployment
    /// scrapes.
    pub fn register_shard(registry: &MetricsRegistry, shard: Option<u32>) -> Self {
        let shard_label = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = match &shard_label {
            Some(s) => vec![("shard", s.as_str())],
            None => Vec::new(),
        };
        let l = labels.as_slice();
        StreamMetrics {
            ingest_latency_us: registry.histogram_with(
                "cf_stream_ingest_latency_us",
                "Per-batch ingest latency in microseconds.",
                log2_buckets(1.0, 21),
                l,
            ),
            ingest_batches: registry.counter_with(
                "cf_stream_ingest_batches_total",
                "Micro-batches ingested.",
                l,
            ),
            ingest_tuples: registry.counter_with(
                "cf_stream_ingest_tuples_total",
                "Tuples ingested.",
                l,
            ),
            queue_backlog: registry.gauge_with(
                "cf_stream_queue_backlog",
                "Record batches waiting in the monitor queue.",
                l,
            ),
            monitor_lag: registry.gauge_with(
                "cf_stream_monitor_lag",
                "Tuples scored but not yet monitored (excludes drops).",
                l,
            ),
            dropped_batches: registry.gauge_with(
                "cf_stream_dropped_batches",
                "Cumulative batches dropped under backpressure.",
                l,
            ),
            dropped_tuples: registry.gauge_with(
                "cf_stream_dropped_tuples",
                "Cumulative tuples dropped under backpressure.",
                l,
            ),
            pending_labels: registry.gauge_with(
                "cf_stream_pending_labels",
                "Evicted decisions awaiting their labels in the pending-join index.",
                l,
            ),
            labels_joined: registry.gauge_with(
                "cf_stream_labels_joined",
                "Cumulative ground-truth labels joined into the label plane.",
                l,
            ),
            labels_unmatched: registry.gauge_with(
                "cf_stream_labels_unmatched",
                "Cumulative feedback records whose tuple could not be found.",
                l,
            ),
            window_fill: registry.gauge_with(
                "cf_stream_window_fill",
                "Tuples currently retained in the sliding window.",
                l,
            ),
            alerts_total: registry.gauge_with(
                "cf_stream_alerts",
                "Cumulative drift alerts raised.",
                l,
            ),
            retrains_total: registry.gauge_with(
                "cf_stream_retrains",
                "Cumulative successful on-alert retrains.",
                l,
            ),
            retrain_duration_us: registry.histogram_with(
                "cf_stream_retrain_duration_us",
                "Wall-clock duration of each retrain repair episode (all attempts and backoff) in microseconds.",
                log2_buckets(128.0, 16),
                l,
            ),
            retrain_failures_total: registry.counter_with(
                "cf_stream_retrain_failures_total",
                "Failed retrain attempts (each retry counts once).",
                l,
            ),
            degraded: registry.gauge_with(
                "cf_stream_degraded",
                "1 while serving in degraded mode (repair budget exhausted), else 0.",
                l,
            ),
            repair_tier: registry.gauge_with(
                "cf_stream_repair_tier",
                "Active repair-ladder rung (0 idle, 1 nudge, 2 projection, 3 retrain).",
                l,
            ),
            threshold_nudges_total: registry.counter_with(
                "cf_stream_threshold_nudges_total",
                "Tier-1 per-cell threshold nudges applied.",
                l,
            ),
            telemetry_disabled_total: registry.counter_with(
                "cf_stream_telemetry_disabled_total",
                "Audit events dropped because the sink lock was poisoned.",
                l,
            ),
            monitor_restarts: registry.gauge_with(
                "cf_stream_monitor_restarts",
                "Times the supervisor respawned a dead monitor thread.",
                l,
            ),
            monitor_gap_tuples: registry.gauge_with(
                "cf_stream_monitor_gap_tuples",
                "Cumulative tuples scored but never monitored (monitor-death gaps).",
                l,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_telemetry::WindowCounters;

    #[test]
    fn snapshot_mirrors_are_lossless() {
        let counts = [
            WindowCounters {
                total: 40,
                selected: 22,
                violations: 1,
                labeled: 30,
                label_positive: 18,
                true_positive: 15,
                false_positive: 4,
            },
            WindowCounters {
                total: 36,
                selected: 12,
                violations: 5,
                labeled: 20,
                label_positive: 11,
                true_positive: 5,
                false_positive: 2,
            },
        ];
        let live = FairnessSnapshot::from_counts(&counts, 0.8);
        let mirrored = SnapshotData::from_counters(&counts, 0.8);
        assert_eq!(live.to_data(), mirrored, "one arithmetic, two entry points");
        assert_eq!(FairnessSnapshot::from_data(mirrored), live);
    }

    #[test]
    fn alert_event_explains_the_moved_cell() {
        let counts = [WindowCounters::default(); 2];
        let snapshot = FairnessSnapshot::from_counts(&counts, 0.8);
        let alert = DriftAlert {
            kind: DriftKind::ConformanceViolation,
            group: 1,
            at_tuple: 321,
            statistic: 13.5,
            threshold: 12.0,
        };
        let event = alert_event(&alert, &snapshot);
        let TelemetryEvent::DriftAlert(e) = &event else {
            panic!("expected a drift alert event");
        };
        assert_eq!(e.alert, alert);
        assert_eq!(e.explanation.cell, "group=1/decision");
        assert!(e.explanation.summary.contains("13.5"));
        assert_eq!(e.at_tuple, 321);
    }

    #[test]
    fn metrics_register_per_shard() {
        let registry = MetricsRegistry::new();
        let m0 = StreamMetrics::register_shard(&registry, Some(0));
        let m1 = StreamMetrics::register_shard(&registry, Some(1));
        m0.monitor_lag.set_u64(3);
        m1.monitor_lag.set_u64(9);
        let text = registry.render();
        assert!(text.contains("cf_stream_monitor_lag{shard=\"0\"} 3"));
        assert!(text.contains("cf_stream_monitor_lag{shard=\"1\"} 9"));
        // Re-registration returns the same instruments.
        let again = StreamMetrics::register_shard(&registry, Some(0));
        again.ingest_batches.inc();
        m0.ingest_batches.inc();
        assert_eq!(again.ingest_batches.get(), 2);
    }
}
