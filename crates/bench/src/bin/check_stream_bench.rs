//! Soft throughput-regression guard over `BENCH_stream.json` artifacts.
//!
//! Compares the committed baseline against a freshly generated artifact
//! (typically a `--quick` run in CI), prints a delta table for every row
//! present in both, and fails when a `single_shard/` row has lost more
//! than the threshold (20% by default) of its baseline throughput, or
//! when the `repair/nudge` row's `recovery_us` has grown by more than
//! the same threshold — the µs-scale nudge is the ladder's reason to
//! exist, so its recovery cost gates alongside the serving hot path.
//! Everything else (sharded/async/latency, the other repair rows) is
//! printed for the reviewer but never fails the build: quick runs on
//! shared CI hosts are too noisy to hard-gate.
//!
//! It also fails when the current artifact's
//! `kernels.conformance_packed_vs_scalar` ratio is below 1.0 (or
//! missing): the packed conformance kernel must beat the scalar sum it
//! replaced. Both sides of that ratio come from the same run, so the
//! host's speed cancels out and no baseline is needed.
//!
//! ```text
//! check_stream_bench --baseline=BENCH_stream.json \
//!     --current=target/BENCH_stream_quick.json [--threshold=0.2]
//! ```

use serde_json::Value;
use std::process::ExitCode;

struct Row {
    name: String,
    /// Throughput rows carry `tuples_per_sec` (higher is better);
    /// repair rows carry `recovery_us` (lower is better). Exactly one
    /// is set per row.
    tuples_per_sec: Option<f64>,
    recovery_us: Option<f64>,
}

fn load_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let doc = load_doc(path)?;
    let configs = doc
        .get("configs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `configs` array"))?;
    let mut rows = Vec::with_capacity(configs.len());
    for entry in configs {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: config row without a `name`"))?;
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

/// The current artifact's `kernels.<key>` ratio.
fn kernel_ratio(path: &str, key: &str) -> Result<f64, String> {
    load_doc(path)?
        .get("kernels")
        .and_then(|k| k.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no `kernels.{key}` ratio"))
}

fn parse_args() -> Result<(String, String, f64), String> {
    let mut baseline = None;
    let mut current = None;
    let mut threshold = 0.2f64;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--baseline=") {
            baseline = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--current=") {
            current = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--threshold=") {
            threshold = v
                .parse::<f64>()
                .map_err(|e| format!("bad --threshold {v}: {e}"))?;
        } else {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    match (baseline, current) {
        (Some(b), Some(c)) => Ok((b, c, threshold)),
        _ => Err(
            "usage: check_stream_bench --baseline=<json> --current=<json> \
                  [--threshold=0.2]"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let (baseline_path, current_path, threshold) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (baseline, current) = match (load_rows(&baseline_path), load_rows(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<34} {:>14} {:>14} {:>8}",
        "row", "baseline", "current", "delta"
    );
    let mut failures = Vec::new();
    for base in &baseline {
        let Some(cur) = current.iter().find(|r| r.name == base.name) else {
            // Quick runs emit a subset of the full artifact's rows.
            continue;
        };
        // Pick the metric the row carries; a regression is lost
        // throughput, or gained recovery cost.
        let (b, c, regressed) = match (base.tuples_per_sec, cur.tuples_per_sec) {
            (Some(b), Some(c)) => (b, c, (c - b) / b < -threshold),
            _ => match (base.recovery_us, cur.recovery_us) {
                (Some(b), Some(c)) => (b, c, (c - b) / b > threshold),
                _ => continue, // metric changed shape between artifacts
            },
        };
        let delta = (c - b) / b;
        let gated = base.name.starts_with("single_shard/") || base.name == "repair/nudge";
        let marker = if gated && regressed {
            failures.push(base.name.clone());
            "  << REGRESSION"
        } else if gated {
            "  (gated)"
        } else {
            ""
        };
        println!(
            "{:<34} {:>14.0} {:>14.0} {:>+7.1}%{marker}",
            base.name,
            b,
            c,
            delta * 100.0
        );
    }
    for cur in &current {
        if !baseline.iter().any(|r| r.name == cur.name) {
            println!(
                "{:<34} {:>14} {:>14.0}   (new row)",
                cur.name,
                "-",
                cur.tuples_per_sec.or(cur.recovery_us).unwrap_or(0.0)
            );
        }
    }

    const PACKED_RATIO: &str = "conformance_packed_vs_scalar";
    match kernel_ratio(&current_path, PACKED_RATIO) {
        Ok(ratio) if ratio >= 1.0 => {
            println!("\nkernels.{PACKED_RATIO} = {ratio:.2} (gated >= 1.0)")
        }
        Ok(ratio) => failures.push(format!("kernels.{PACKED_RATIO} = {ratio:.2} < 1.0")),
        Err(e) => failures.push(e),
    }

    if failures.is_empty() {
        println!(
            "\nok: no single_shard/ throughput row or repair/nudge recovery \
             regressed more than {:.0}% vs {baseline_path}, and the packed \
             conformance kernel beats the scalar one",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nFAIL: {} gate(s) failed (rows gate at a {:.0}% regression): {}",
            failures.len(),
            threshold * 100.0,
            failures.join(", ")
        );
        ExitCode::FAILURE
    }
}
