//! The benchmark gates: [`check`], which `check_stream_bench` applies to a
//! pair of `BENCH_stream.json` artifacts (a committed baseline and a
//! fresh, typically `--quick`, run), and [`paired`], which
//! `check_paired_bench` applies to paired streambench runs of a parent and
//! a changed build.
//!
//! [`check`]:
//! * Every `single_shard/` row fails when its throughput, **divided by the
//!   same artifact's [`HOST_PROBE`] throughput**, has lost more than
//!   [`THRESHOLD`] against the same quotient in the baseline. The divisor is a
//!   fixed scalar kernel measured in the same run, so a host that is
//!   uniformly slower or faster moves both sides of the quotient and
//!   cancels out; an engine regression moves only the numerator. A host
//!   that does not slow both down together still shows through: on a
//!   shared 2-vCPU container the quotient of a quick run spread by more
//!   than half its median from run to run, so this gate is not yet
//!   host-independent there (ROADMAP.md).
//! * `repair/nudge` fails when its `recovery_us` has grown by more than
//!   [`THRESHOLD`] — the µs-scale nudge is the ladder's reason to exist.
//! * Each [`KERNEL_GATES`] ratio in the current artifact's `kernels`
//!   object must be present and at least its floor. Both sides of a ratio
//!   come from the same run, so no baseline is needed.
//!
//! Every other row is printed for a human to read but never fails: quick runs
//! on shared hosts are too noisy to hard-gate.

use serde_json::Value;

/// The largest loss [`check`] lets a gated row through with (0.2 = a 20%
/// regression).
pub const THRESHOLD: f64 = 0.2;

/// The row every `single_shard/` throughput is divided by before it is
/// compared: the per-row scalar dot loop over a fixed d=32 block, which
/// no engine change touches, reported as the fastest of several timed
/// repetitions.
pub const HOST_PROBE: &str = "kernels/logistic_scalar";

/// Same-run `kernels.<key>` ratios and the floor each must reach: the
/// packed conformance kernel must beat the scalar sum it replaced, its
/// run-time-dispatched copy must keep a clear lead over the portable one
/// (an AVX2 host is assumed; elsewhere both rows time the same code), the
/// in-place min-max encode must keep a clear lead over the allocating
/// `transform_rows` even after paying for the gather's copy (a branchy
/// in-place loop reads below 1.0), the symmetric exact KDE pass must keep
/// most of its halved `exp` count, the presorted GBT fit must keep a
/// clear lead over per-node sorting, the heap-form GBT scoring kernel
/// must keep a clear lead over the recursive walker it is pinned to, and
/// the window's pending-join ring must stay well ahead of the `BTreeMap`
/// it replaced on the same insert/join/evict sequence, the JSON number
/// writer must keep a clear lead over `f64`'s `Display`, whose bytes it
/// reproduces, on the same block of doubles, and writing a checkpoint
/// straight from its structs must keep a clear lead over writing the same
/// document through a `Value` tree.
pub const KERNEL_GATES: [(&str, f64); 9] = [
    ("conformance_packed_vs_scalar", 1.0),
    ("conformance_wide_vs_packed", 1.2),
    ("encode_in_place_vs_rows", 1.1),
    ("kde_symmetric_vs_pointwise", 1.4),
    ("gbt_fit_presorted_vs_reference", 1.5),
    ("gbt_flat_vs_recursive", 1.5),
    ("pending_ring_vs_btree", 2.0),
    ("json_shortest_vs_display", 1.5),
    ("json_direct_vs_tree", 1.3),
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

/// Run every gate of `current` against `baseline`. `Err` only for a
/// document without a `configs` array or with a nameless row.
pub fn check(baseline: &Value, current: &Value) -> Result<GateReport, String> {
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
                    let marker = if normalised < -THRESHOLD {
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
                    let marker = if (c - b) / b > THRESHOLD {
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

/// The paired end-to-end gate. `bounds` is the parsed `BENCHMARK.json`;
/// `parent` and `change` hold one streambench result line per run
/// (`--workload all`), where run `i` of each side ran at the same time
/// as the other. For every `end_to_end` metric on every workload, each
/// pair's change/parent ratio becomes a regression, oriented by the
/// metric's `better` (`1 − ratio` when higher is better, `ratio − 1`
/// when lower is), and the gate fails when the median regression reaches
/// the metric's `bound`. It also fails on a metric missing from any run,
/// on a change run whose `correct` is not `true`, and when the change's
/// failed/attempted share exceeds the parent's. `Err` for unequal or zero
/// run counts, or a `BENCHMARK.json` or result line without the fields
/// the gate reads.
pub fn paired(bounds: &Value, parent: &[Value], change: &[Value]) -> Result<GateReport, String> {
    if parent.is_empty() || parent.len() != change.len() {
        return Err(format!(
            "{} parent runs vs {} change runs: the gate needs equal, non-zero counts",
            parent.len(),
            change.len()
        ));
    }
    let list = |key: &str| {
        bounds
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("bounds: no `{key}` array"))
    };
    let text = |entry: &Value, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("bounds: entry without a `{key}`"))
    };
    let mut report = GateReport::default();
    report.lines.push(format!(
        "{:<36} {:>14} {:>14} {:>8} {:>6}",
        "metric (median of pairs)", "parent", "change", "worse", "bound"
    ));
    for workload in list("workloads")? {
        let workload = text(workload, "name")?;
        for metric in list("end_to_end")? {
            let name = text(metric, "name")?;
            let higher_is_better = match text(metric, "better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("bounds: {name}: `better` is {other:?}")),
            };
            let bound = metric
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("bounds: {name}: no numeric `bound`"))?;
            let key = format!("{workload}.{name}");
            let values = |runs: &[Value]| -> Option<Vec<f64>> {
                runs.iter()
                    .map(|run| run.get("metrics")?.get(&key)?.get("value")?.as_f64())
                    .collect()
            };
            let (Some(p), Some(c)) = (values(parent), values(change)) else {
                report
                    .failures
                    .push(format!("{key}: missing from a parent or change run"));
                continue;
            };
            let regression = median(p.iter().zip(&c).map(|(&p, &c)| {
                let ratio = if p == c { 1.0 } else { c / p };
                if higher_is_better {
                    1.0 - ratio
                } else {
                    ratio - 1.0
                }
            }));
            let marker = if regression >= bound {
                report.failures.push(format!(
                    "{key}: {:+.1}% worse in the median pair (bound {:.0}%)",
                    regression * 100.0,
                    bound * 100.0
                ));
                "  << REGRESSION"
            } else {
                ""
            };
            report.lines.push(format!(
                "{key:<36} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%{marker}",
                median(p.iter().copied()),
                median(c.iter().copied()),
                regression * 100.0,
                bound * 100.0
            ));
        }
    }
    for (i, run) in change.iter().enumerate() {
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            report
                .failures
                .push(format!("change run {i}: `correct` is not true"));
        }
    }
    let (parent_share, change_share) = (failed_share(parent)?, failed_share(change)?);
    report.lines.push(format!(
        "failed ops: parent {:.4}%, change {:.4}%",
        parent_share * 100.0,
        change_share * 100.0
    ));
    if change_share > parent_share {
        report.failures.push(format!(
            "failed ops: change {:.4}% > parent {:.4}%",
            change_share * 100.0,
            parent_share * 100.0
        ));
    }
    Ok(report)
}

/// Failed over attempted operations, summed over `runs`.
fn failed_share(runs: &[Value]) -> Result<f64, String> {
    let (mut failed, mut attempted) = (0u64, 0u64);
    for run in runs {
        let count = |key: &str| {
            run.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("result line without a numeric `{key}`"))
        };
        failed += count("failed")?;
        attempted += count("attempted")?;
    }
    Ok(if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    })
}

/// The median of a non-empty sample; the mean of the middle two for an
/// even count.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
