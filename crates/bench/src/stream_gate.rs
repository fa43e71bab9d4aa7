//! The regression gates `check_stream_bench` applies to a pair of
//! `BENCH_stream.json` artifacts: a committed baseline and a fresh
//! (typically `--quick`) run.
//!
//! * Every `single_shard/` row fails when its throughput, **divided by the
//!   same artifact's [`HOST_PROBE`] throughput**, has lost more than the
//!   threshold against the same quotient in the baseline. The divisor is a
//!   fixed scalar kernel measured in the same run, so a host that is
//!   uniformly slower or faster moves both sides of the quotient and
//!   cancels out; an engine regression moves only the numerator. A host
//!   that does not slow both down together still shows through: on a
//!   shared 2-vCPU container the quotient of a quick run spread by more
//!   than half its median from run to run, so this gate is not yet
//!   host-independent there (ROADMAP.md).
//! * `repair/nudge` fails when its `recovery_us` has grown by more than
//!   the threshold — the µs-scale nudge is the ladder's reason to exist.
//! * Each [`KERNEL_GATES`] ratio in the current artifact's `kernels`
//!   object must be present and at least its floor. Both sides of a ratio
//!   come from the same run, so no baseline is needed.
//!
//! Every other row is printed for a human to read but never fails: quick runs
//! on shared hosts are too noisy to hard-gate.

use serde_json::Value;

/// The row every `single_shard/` throughput is divided by before it is
/// compared: the per-row scalar dot loop over a fixed d=32 block, which
/// no engine change touches, reported as the fastest of several timed
/// repetitions.
pub const HOST_PROBE: &str = "kernels/logistic_scalar";

/// Same-run `kernels.<key>` ratios and the floor each must reach: the
/// packed conformance kernel must beat the scalar sum it replaced, and the
/// symmetric exact KDE pass must keep most of its halved `exp` count.
pub const KERNEL_GATES: [(&str, f64); 2] = [
    ("conformance_packed_vs_scalar", 1.0),
    ("kde_symmetric_vs_pointwise", 1.4),
];

/// What a gate run printed and which gates failed.
#[derive(Debug, Default)]
pub struct GateReport {
    /// The delta table and kernel-ratio lines, in print order.
    pub lines: Vec<String>,
    /// One entry per failed gate; empty means the current artifact passes.
    pub failures: Vec<String>,
}

struct Row {
    name: String,
    /// Throughput rows carry `tuples_per_sec` (higher is better);
    /// repair rows carry `recovery_us` (lower is better).
    tuples_per_sec: Option<f64>,
    recovery_us: Option<f64>,
}

fn rows(doc: &Value, what: &str) -> Result<Vec<Row>, String> {
    let configs = doc
        .get("configs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{what}: no `configs` array"))?;
    let mut rows = Vec::with_capacity(configs.len());
    for entry in configs {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: config row without a `name`"))?;
        let tps = entry.get("tuples_per_sec").and_then(Value::as_f64);
        let recovery = entry.get("recovery_us").and_then(Value::as_f64);
        // Latency rows (latency/*) report percentiles, not throughput or
        // recovery cost; they carry neither metric and are skipped here.
        if tps.is_none() && recovery.is_none() {
            continue;
        }
        rows.push(Row {
            name: name.to_string(),
            tuples_per_sec: tps,
            recovery_us: recovery,
        });
    }
    Ok(rows)
}

fn probe(rows: &[Row]) -> Option<f64> {
    rows.iter()
        .find(|r| r.name == HOST_PROBE)
        .and_then(|r| r.tuples_per_sec)
}

/// Run every gate of `current` against `baseline` at `threshold` (0.2 =
/// a 20% regression). `Err` only for a document without a `configs` array
/// or with a nameless row.
pub fn check(baseline: &Value, current: &Value, threshold: f64) -> Result<GateReport, String> {
    let base_rows = rows(baseline, "baseline")?;
    let cur_rows = rows(current, "current")?;
    let probes = probe(&base_rows).zip(probe(&cur_rows));
    let mut report = GateReport::default();
    report.lines.push(format!(
        "{:<34} {:>14} {:>14} {:>8}",
        "row", "baseline", "current", "delta"
    ));
    let mut unnormalised = false;
    for base in &base_rows {
        let Some(cur) = cur_rows.iter().find(|r| r.name == base.name) else {
            // Quick runs emit a subset of the full artifact's rows.
            continue;
        };
        let single_shard = base.name.starts_with("single_shard/");
        let (b, c, marker) = match (base.tuples_per_sec, cur.tuples_per_sec) {
            (Some(b), Some(c)) if single_shard => match probes {
                Some((base_probe, cur_probe)) => {
                    let normalised = (c / cur_probe) / (b / base_probe) - 1.0;
                    let marker = if normalised < -threshold {
                        report.failures.push(base.name.clone());
                        format!(
                            "  << REGRESSION ({:+.1}% host-normalised)",
                            normalised * 100.0
                        )
                    } else {
                        format!("  (gated, {:+.1}% host-normalised)", normalised * 100.0)
                    };
                    (b, c, marker)
                }
                None => {
                    unnormalised = true;
                    (b, c, "  (gated, no host probe)".to_string())
                }
            },
            (Some(b), Some(c)) => (b, c, String::new()),
            _ => match (base.recovery_us, cur.recovery_us) {
                (Some(b), Some(c)) if base.name == "repair/nudge" => {
                    let marker = if (c - b) / b > threshold {
                        report.failures.push(base.name.clone());
                        "  << REGRESSION"
                    } else {
                        "  (gated)"
                    };
                    (b, c, marker.to_string())
                }
                (Some(b), Some(c)) => (b, c, String::new()),
                _ => continue, // metric changed shape between artifacts
            },
        };
        report.lines.push(format!(
            "{:<34} {:>14.0} {:>14.0} {:>+7.1}%{marker}",
            base.name,
            b,
            c,
            (c - b) / b * 100.0
        ));
    }
    if unnormalised {
        report.failures.push(format!(
            "no `{HOST_PROBE}` throughput in both artifacts to normalise single_shard/ rows by"
        ));
    }
    for cur in &cur_rows {
        if !base_rows.iter().any(|r| r.name == cur.name) {
            report.lines.push(format!(
                "{:<34} {:>14} {:>14.0}   (new row)",
                cur.name,
                "-",
                cur.tuples_per_sec.or(cur.recovery_us).unwrap_or(0.0)
            ));
        }
    }

    report.lines.push(String::new());
    for (key, floor) in KERNEL_GATES {
        match current
            .get("kernels")
            .and_then(|k| k.get(key))
            .and_then(Value::as_f64)
        {
            Some(ratio) if ratio >= floor => report
                .lines
                .push(format!("kernels.{key} = {ratio:.2} (gated >= {floor:.1})")),
            Some(ratio) => report
                .failures
                .push(format!("kernels.{key} = {ratio:.2} < {floor:.1}")),
            None => report
                .failures
                .push(format!("current: no `kernels.{key}` ratio")),
        }
    }
    Ok(report)
}
