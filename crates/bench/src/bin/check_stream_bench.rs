//! Soft throughput-regression guard over `BENCH_stream.json` artifacts.
//!
//! Compares the committed baseline against a freshly generated artifact
//! (typically a `--quick` run in CI), prints a delta table for every row
//! present in both, and exits non-zero when any gate in
//! [`cf_bench::stream_gate`] fails: a host-normalised `single_shard/`
//! throughput loss or a `repair/nudge` recovery-cost gain beyond
//! [`THRESHOLD`] (20%), or a same-run kernel ratio below its floor.
//!
//! ```text
//! check_stream_bench --baseline=BENCH_stream.json \
//!     --current=target/BENCH_stream_quick.json
//! ```

use cf_bench::stream_gate::THRESHOLD;
use serde_json::Value;
use std::process::ExitCode;

fn load_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn parse_args() -> Result<(String, String), String> {
    let mut baseline = None;
    let mut current = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--baseline=") {
            baseline = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--current=") {
            current = Some(v.to_string());
        } else {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    match (baseline, current) {
        (Some(b), Some(c)) => Ok((b, c)),
        _ => Err("usage: check_stream_bench --baseline=<json> --current=<json>".to_string()),
    }
}

fn main() -> ExitCode {
    let (baseline_path, current_path) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let report = load_doc(&baseline_path)
        .and_then(|b| load_doc(&current_path).map(|c| (b, c)))
        .and_then(|(b, c)| cf_bench::stream_gate::check(&b, &c));
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if report.failures.is_empty() {
        println!(
            "\nok: no single_shard/ throughput row (host-normalised) or \
             repair/nudge recovery regressed more than {:.0}% vs \
             {baseline_path}, and every kernel ratio clears its floor",
            THRESHOLD * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nFAIL: {} gate(s) failed (rows gate at a {:.0}% regression): {}",
            report.failures.len(),
            THRESHOLD * 100.0,
            report.failures.join(", ")
        );
        ExitCode::FAILURE
    }
}
