//! The paired end-to-end speed gate over streambench runs of two builds.
//!
//! Each of `--parent` and `--change` holds one streambench result line
//! (`--workload all --trace 0`) per run, line `i` of each side from the
//! same round; `--bounds` is the committed `BENCHMARK.json`. Prints the
//! median of every metric and exits non-zero when any gate in
//! [`cf_bench::stream_gate::paired`] fails.
//!
//! ```text
//! check_paired_bench --bounds=BENCHMARK.json \
//!     --parent=target/paired/parent.jsonl --change=target/paired/change.jsonl
//! ```

use serde_json::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn parse(path: &str, text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn runs(path: &str) -> Result<Vec<Value>, String> {
    load(path)?
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| parse(path, line))
        .collect()
}

fn gate() -> Result<cf_bench::stream_gate::GateReport, String> {
    let (mut bounds, mut parent, mut change) = (None, None, None);
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--bounds=") {
            bounds = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--parent=") {
            parent = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--change=") {
            change = Some(v.to_string());
        } else {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    let (Some(bounds), Some(parent), Some(change)) = (bounds, parent, change) else {
        return Err(
            "usage: check_paired_bench --bounds=<BENCHMARK.json> --parent=<jsonl> \
             --change=<jsonl>"
                .to_string(),
        );
    };
    let bounds = parse(&bounds, &load(&bounds)?)?;
    cf_bench::stream_gate::paired(&bounds, &runs(&parent)?, &runs(&change)?)
}

fn main() -> ExitCode {
    let report = match gate() {
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
        println!("\nok: no end-to-end metric is worse than its bound in the median pair");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nFAIL: {} gate(s) failed: {}",
            report.failures.len(),
            report.failures.join(", ")
        );
        ExitCode::FAILURE
    }
}
