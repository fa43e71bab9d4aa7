//! Closed-loop benchmark of the cf-stream engine.
//!
//! ```text
//! cargo run --release --manifest-path streambench/Cargo.toml -- \
//!     --workload <steady_lr32|delayed_gbt_k8|drift_repair16|restart16|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run pregenerates its inputs from `--seed`, times the engine's
//! bootstrap, then serves passes of the workload from fresh engines until
//! `--seconds` have gone by. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` spends half the time untraced and half traced and reports
//! the per-layer metrics. Every pass checks its outputs; any mismatch
//! makes the run exit non-zero. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `streambench/README.md` for what each metric means.

mod serve;
mod sink;
mod stats;
mod trace;
mod workload;

use cf_data::split::{split3_stratified, SplitRatios};
use cf_stream::{Monitor, StreamEngine};
use confair_core::{confair::ConFair, Intervention};
use serve::{run_pass, Pass};
use stats::{block_percentiles, mean, median, nearest_rank};
use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Kind, Workload};

/// Ingest calls a run needs before it may stop: a p99 must have ten
/// samples beyond it.
const MIN_INGEST_CALLS: usize = 1_000;

/// Consecutive ingest calls per p50 block: a short stretch of the run,
/// with 50 samples beyond its median.
const P50_BLOCK: usize = 100;

/// Consecutive ingest calls per p99 block: each block's p99 keeps ten
/// samples beyond it.
const P99_BLOCK: usize = 1_000;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".streambench-out";

const USAGE: &str = "usage: streambench --workload <steady_lr32|delayed_gbt_k8|drift_repair16|\
                     restart16|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kinds, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
            "--workload" => {
                let kind =
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                kinds = Some(vec![kind]);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kinds: kinds.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How many samples a timing summarises.
    samples: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn timing(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(format!("n={samples}")),
    }
}

/// A workload's result: the JSON-reported metrics, the extra readings the
/// table prints, and the gate verdict.
struct Report {
    kind: Kind,
    shape: String,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
    mismatches: Vec<String>,
}

/// The passes served in one mode, untraced or traced.
struct Passes {
    passes: Vec<Pass>,
}

impl Passes {
    fn tuples_per_sec(&self) -> f64 {
        total(&self.passes, |p| p.tuples as f64) / total(&self.passes, |p| p.wall_s)
    }

    fn pooled(&self, field: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| field(p).iter().copied())
            .collect()
    }

    fn ingest_calls(&self) -> usize {
        self.passes.iter().map(|p| p.ingest_ns.len()).sum()
    }
}

/// Bootstrap an engine from `w`'s `i`-th set-up reference, timing
/// `StreamEngine::from_reference` alone: the inputs are already generated.
fn bootstrap(w: &Workload, i: usize) -> Result<(StreamEngine, f64), Box<dyn Error>> {
    let reference = &w.setup_references[i];
    let t0 = Instant::now();
    let engine =
        StreamEngine::from_reference(reference, w.learner, w.bootstrap_seed, w.config.clone())?;
    Ok((engine, t0.elapsed().as_secs_f64()))
}

/// Serve passes until `budget` of serving has gone by and enough ingest
/// calls were timed, each from a fresh engine restored from `template`
/// (the first uses `first`, the bootstrapped engine itself).
///
/// With `setup_s`, further bootstraps are timed between passes, spread
/// evenly over the budget, one per set-up reference, so that
/// set-up sees the same stretches of the host as serving. Their time is
/// not counted against the budget.
fn serve_for(
    w: &Workload,
    budget: Duration,
    mut first: Option<StreamEngine>,
    template: &cf_stream::EngineCheckpoint,
    tracer: Option<&Tracer>,
    mut setup_s: Option<&mut Vec<f64>>,
) -> Result<Passes, Box<dyn Error>> {
    let clock = Instant::now();
    let mut setting_up = Duration::ZERO;
    let mut out = Passes { passes: Vec::new() };
    loop {
        let engine = match first.take() {
            Some(engine) => engine,
            None => StreamEngine::restore(template.clone())?,
        };
        out.passes
            .push(run_pass(w, engine, tracer, &template.profiles));
        let serving = clock.elapsed() - setting_up;
        if let Some(setup) = setup_s.as_deref_mut() {
            let samples = w.setup_references.len();
            let due = budget.mul_f64(setup.len() as f64 / samples as f64);
            if setup.len() < samples && serving >= due {
                let t0 = Instant::now();
                setup.push(bootstrap(w, setup.len())?.1);
                setting_up += t0.elapsed();
            }
        }
        let enough_calls = tracer.is_some() || out.ingest_calls() >= MIN_INGEST_CALLS;
        if serving >= budget && enough_calls {
            break;
        }
        if serving >= 4 * budget {
            return Err(format!(
                "only {} ingest calls in {:.1} s; a p99 needs {MIN_INGEST_CALLS}",
                out.ingest_calls(),
                serving.as_secs_f64()
            )
            .into());
        }
    }
    // Passes longer than the spacing leave a few bootstraps to the end.
    if let Some(setup) = setup_s {
        while setup.len() < w.setup_references.len() {
            setup.push(bootstrap(w, setup.len())?.1);
        }
    }
    Ok(out)
}

/// Hand the heap's free pages back to the kernel, then reset the
/// process's high-water resident set to what is left, so that under
/// `--workload all` a workload's peak is its own and not an earlier
/// workload's.
fn reset_peak_rss() -> Result<(), Box<dyn Error>> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases memory the allocator
        // holds free; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(())
}

/// The process's high-water resident set, in MB.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run_workload(kind: Kind, args: &Args) -> Result<Report, Box<dyn Error>> {
    reset_peak_rss()?;
    let w = Workload::build(kind, args.seed);

    let (engine, first_setup_s) = bootstrap(&w, 0)?;
    let mut setup_s = vec![first_setup_s];
    // Fresh engines for later passes come from an in-memory checkpoint of
    // the bootstrapped one; pass 0 serves on the bootstrapped engine
    // itself, so the digest gate also checks restore fidelity.
    let template = engine.checkpoint()?;

    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let untraced = serve_for(
        &w,
        untraced_budget,
        Some(engine),
        &template,
        None,
        (!args.trace).then_some(&mut setup_s),
    )?;

    let mut report = Report {
        kind,
        shape: w.shape(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        extra: Vec::new(),
        mismatches: Vec::new(),
    };
    let traced = if args.trace {
        let tracer = Tracer::default();
        let traced = traced_run(&w, budget / 2, &template, &tracer)?;
        let path = write_spans(kind, args.seed, &tracer)?;
        eprintln!("streambench: spans written to {path}");
        report.metrics = per_layer(&w, &untraced, &traced, &tracer);
        Some(traced)
    } else {
        report.metrics = end_to_end(&untraced, &setup_s)?;
        report.extra = workload_readings(&untraced);
        None
    };

    let all: Vec<&Pass> = untraced
        .passes
        .iter()
        .chain(traced.iter().flat_map(|t| &t.passes))
        .collect();
    for (i, pass) in all.iter().enumerate() {
        report.attempted += pass.ops.attempted;
        report.failed += pass.ops.failed;
        report
            .mismatches
            .extend(pass.mismatches.iter().map(|m| format!("pass {i}: {m}")));
        if pass.digest != all[0].digest {
            report.mismatches.push(format!(
                "pass {i}: decision digest {:016x} differs from pass 0's {:016x}",
                pass.digest, all[0].digest
            ));
        }
    }
    Ok(report)
}

/// The traced half: setup layers timed once, then traced passes.
fn traced_run(
    w: &Workload,
    budget: Duration,
    template: &cf_stream::EngineCheckpoint,
    tracer: &Tracer,
) -> Result<Passes, Box<dyn Error>> {
    // The two halves of `from_reference`, each in its own span.
    tracer.span("conformance.learn", || {
        Monitor::from_reference(&w.reference, w.learner, w.config.clone())
    })?;
    tracer.span("learners.fit", || {
        let split = split3_stratified(&w.reference, SplitRatios::paper_default(), w.bootstrap_seed);
        ConFair::new(w.config.confair.clone()).train(&split.train, &split.validation, w.learner)
    })?;
    serve_for(w, budget, None, template, Some(tracer), None)
}

fn write_spans(kind: Kind, seed: u64, tracer: &Tracer) -> Result<String, Box<dyn Error>> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{}-seed{seed}.spans.tsv", kind.name());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.with(|rec| rec.write_tsv(&mut out))?;
    std::io::Write::flush(&mut out)?;
    Ok(path)
}

fn end_to_end(untraced: &Passes, setup_s: &[f64]) -> Result<Vec<Metric>, Box<dyn Error>> {
    let latency_us: Vec<f64> = untraced
        .pooled(|p| &p.ingest_ns)
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let calls = latency_us.len();
    // The host slows a run down in stretches of seconds to minutes and
    // never speeds it up, so a run's mean or median follows how much of it
    // fell in slow stretches. Its fastest stretch repeats from run to run:
    // each timing is read from the fastest pass, block or bootstrap. A
    // tail needs more than one stretch, so the p99 is the lower quartile
    // of the blocks' p99s.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let p50s = block_percentiles(&latency_us, 50, 100, P50_BLOCK)
        .ok_or("too few ingest calls for a p50")?;
    let p99s = block_percentiles(&latency_us, 99, 100, P99_BLOCK)
        .ok_or_else(|| format!("{calls} ingest calls leave fewer than 10 beyond a p99"))?;
    let p99 = nearest_rank(&p99s, 1, 4).expect("at least one p99 block");
    let ns_per_tuple: Vec<f64> = untraced
        .passes
        .iter()
        .map(|p| p.wall_s * 1e9 / p.tuples as f64)
        .collect();
    let first = &untraced.passes[0];
    let attempted: u64 = untraced.passes.iter().map(|p| p.ops.attempted).sum();
    let failed: u64 = untraced.passes.iter().map(|p| p.ops.failed).sum();
    Ok(vec![
        timing(
            "tuples_per_sec",
            1e9 / fastest(&ns_per_tuple),
            "tuples/s",
            untraced.passes.len(),
        ),
        Metric {
            samples: Some(format!("n={calls} in {} blocks", p50s.len())),
            ..metric("ingest_p50_us", fastest(&p50s), "us")
        },
        Metric {
            samples: Some(format!("n={calls} in {} blocks", p99s.len())),
            ..metric("ingest_p99_us", p99, "us")
        },
        timing("setup_s", fastest(setup_s), "s", setup_s.len()),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric(
            "di_star_mean",
            mean(&first.di_star).ok_or("the window never filled")?,
            "ratio",
        ),
        metric(
            "accuracy",
            first.correct as f64 / first.tuples as f64,
            "ratio",
        ),
        metric(
            "ops_ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ])
}

/// Readings that exist on one workload only: printed in the untraced
/// table, and reported by the traced run under the same names.
fn workload_readings(untraced: &Passes) -> Vec<Metric> {
    let mut out = Vec::new();
    let recovery = untraced.pooled(|p| {
        p.trail
            .as_ref()
            .map_or(&[][..], |t| t.recovery_batches.as_slice())
    });
    if let Some(m) = mean(&recovery) {
        out.push(timing(
            "recovery_batches_mean",
            m,
            "batches",
            recovery.len(),
        ));
    }
    let ckpt = untraced.pooled(|p| &p.checkpoint_ms);
    if let Some(m) = median(&ckpt) {
        out.push(timing("checkpoint_ms", m, "ms", ckpt.len()));
    }
    let restore = untraced.pooled(|p| &p.restore_ms);
    if let Some(m) = median(&restore) {
        out.push(timing("restore_ms", m, "ms", restore.len()));
    }
    out
}

/// Spans that are not serving: set-up layers, the conformance side pass,
/// and restarts.
fn off_serving(name: &str) -> bool {
    matches!(
        name,
        "conformance.learn"
            | "learners.fit"
            | "conformance.violation"
            | "checkpoint.decode"
            | "checkpoint.restore"
    )
}

/// Summed field over passes, starting from +0.0 (an empty `f64` sum is
/// -0.0, which would print as `-0`).
fn total(passes: &[Pass], field: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(field).fold(0.0, |a, b| a + b)
}

fn per_layer(w: &Workload, untraced: &Passes, traced: &Passes, tracer: &Tracer) -> Vec<Metric> {
    let summary = tracer.with(|rec| rec.summary());
    let serving_ns = tracer.with(|rec| rec.root_ns(|name| !off_serving(name))) as f64;
    let self_ns = |name: &str| summary.get(name).map_or(0.0, |l| l.self_ns as f64);
    let calls = |name: &str| summary.get(name).map_or(0, |l| l.calls as usize);
    let durations_ms = |name: &str| {
        tracer.with(|rec| {
            rec.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect::<Vec<_>>()
        })
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let median_or_zero = |v: &[f64]| median(v).unwrap_or(0.0);
    let span_median = |metric_name: &'static str, span_name: &str| {
        let d = durations_ms(span_name);
        timing(metric_name, median_or_zero(&d), "ms", d.len())
    };
    let per_tuple = |metric_name: &'static str, span_name: &str, tuples: f64| {
        timing(
            metric_name,
            ratio(self_ns(span_name), tuples),
            "ns",
            calls(span_name),
        )
    };

    let p = &traced.passes;
    let tuples = total(p, |p| p.tuples as f64);
    let split_tuples = total(p, |p| p.split_tuples as f64);
    let whole_tuples = total(p, |p| p.whole_tuples as f64);
    let wall_s = total(p, |p| p.wall_s);
    let first = &p[0];
    let trail = first.trail.clone().unwrap_or_default();
    let joins = first.joins;
    let records = total(p, |p| p.joins.records as f64);
    let feedback_span = if w.splits() {
        "monitor.feedback"
    } else {
        "engine.feedback"
    };
    let scorer = ratio(self_ns("scorer.score"), split_tuples);
    let observe = ratio(self_ns("monitor.observe"), split_tuples);
    let ingest = ratio(self_ns("engine.ingest"), whole_tuples);
    // Validation and composition: a whole `ingest` minus the score and
    // observe it wraps, each measured on interleaved batches of the same
    // traced passes.
    let residual = if w.splits() {
        ingest - scorer - observe
    } else {
        0.0
    };
    let retrain_ms: Vec<f64> = p
        .iter()
        .filter_map(|p| p.trail.as_ref())
        .flat_map(|t| t.retrain_ms.iter().copied())
        .collect();
    let replay_ms: Vec<f64> = p.iter().filter_map(|p| p.replay_ms).collect();
    let ckpt_ms = traced.pooled(|p| &p.checkpoint_ms);
    let restore_ms = traced.pooled(|p| &p.restore_ms);
    let count = |name: &'static str, n: u64| metric(name, n as f64, "count");

    vec![
        per_tuple("scorer.ns_per_tuple", "scorer.score", split_tuples),
        metric("scorer.tuples", split_tuples, "count"),
        per_tuple(
            "monitor.observe_ns_per_tuple",
            "monitor.observe",
            split_tuples,
        ),
        per_tuple(
            "conformance.violation_ns_per_tuple",
            "conformance.violation",
            tuples,
        ),
        metric(
            "conformance.constraints_per_tuple",
            ratio(total(p, |p| p.constraints as f64), tuples),
            "count",
        ),
        per_tuple("engine.ingest_ns_per_tuple", "engine.ingest", whole_tuples),
        timing(
            "engine.residual_ns_per_tuple",
            residual,
            "ns",
            calls("engine.ingest"),
        ),
        timing(
            "window.feedback_ns_per_record",
            ratio(self_ns(feedback_span), records),
            "ns",
            calls(feedback_span),
        ),
        count("window.feedback_records", joins.records),
        count("window.joined", joins.joined),
        count("window.joined_late", joins.joined_late),
        count("window.pending_evicted", joins.pending_evicted),
        metric(
            "window.join_ratio",
            ratio(joins.joined as f64, joins.records as f64),
            "ratio",
        ),
        count("drift.alerts", first.alerts),
        count("repair.episodes", trail.episodes),
        count("repair.episodes_recovered", trail.episodes_recovered),
        timing(
            "recovery_batches_mean",
            mean(&trail.recovery_batches).unwrap_or(0.0),
            "batches",
            trail.recovery_batches.len(),
        ),
        count("repair.nudges", trail.nudges),
        count("repair.retrains", trail.retrains),
        timing(
            "repair.retrain_ms",
            median_or_zero(&retrain_ms),
            "ms",
            retrain_ms.len(),
        ),
        metric(
            "repair.retrain_share",
            ratio(retrain_ms.iter().fold(0.0, |a, b| a + b) / 1e3, wall_s),
            "ratio",
        ),
        count("repair.retrain_failures", trail.retrain_failures),
        metric(
            "repair.retrain_useful_ratio",
            ratio(trail.useful_retrains as f64, trail.retrains as f64),
            "ratio",
        ),
        count("telemetry.events", trail.events),
        metric("telemetry.bytes", trail.bytes as f64, "bytes"),
        timing(
            "telemetry.emit_ns_per_event",
            ratio(self_ns("telemetry.emit"), calls("telemetry.emit") as f64),
            "ns",
            calls("telemetry.emit"),
        ),
        timing(
            "telemetry.replay_ms",
            median_or_zero(&replay_ms),
            "ms",
            replay_ms.len(),
        ),
        span_median("checkpoint.take_ms", "checkpoint.take"),
        span_median("checkpoint.encode_ms", "checkpoint.encode"),
        span_median("checkpoint.decode_ms", "checkpoint.decode"),
        span_median("checkpoint.restore_ms", "checkpoint.restore"),
        metric(
            "checkpoint.bytes",
            median_or_zero(&traced.pooled(|p| &p.checkpoint_bytes)),
            "bytes",
        ),
        timing(
            "checkpoint_ms",
            median_or_zero(&ckpt_ms),
            "ms",
            ckpt_ms.len(),
        ),
        timing(
            "restore_ms",
            median_or_zero(&restore_ms),
            "ms",
            restore_ms.len(),
        ),
        timing(
            "conformance.learn_s",
            self_ns("conformance.learn") / 1e9,
            "s",
            calls("conformance.learn"),
        ),
        timing(
            "learners.fit_s",
            self_ns("learners.fit") / 1e9,
            "s",
            calls("learners.fit"),
        ),
        metric(
            "trace.overhead_ratio",
            ratio(traced.tuples_per_sec(), untraced.tuples_per_sec()),
            "ratio",
        ),
        metric(
            "trace.unattributed_ratio",
            ratio(wall_s - serving_ns / 1e9, wall_s),
            "ratio",
        ),
    ]
}

fn json_number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

fn print_report(report: &Report) {
    println!("== {}", report.shape);
    for m in report.metrics.iter().chain(&report.extra) {
        match &m.samples {
            Some(n) => println!("  {:<38} {:>16.6} {:<9} ({n})", m.name, m.value, m.unit),
            None => println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "  ops: {} attempted, {} failed; gates: {}",
        report.attempted,
        report.failed,
        if report.mismatches.is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    );
    for m in &report.mismatches {
        eprintln!("streambench: {}: {m}", report.kind.name());
    }
}

fn result_json(reports: &[Report]) -> Result<String, String> {
    let prefix = reports.len() > 1;
    let mut fields = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let name = if prefix {
                format!("{}.{}", r.kind.name(), m.name)
            } else {
                m.name.to_string()
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value)?,
                m.unit
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(|r| r.mismatches.is_empty()),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("streambench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut reports = Vec::new();
    for &kind in &args.kinds {
        match run_workload(kind, &args) {
            Ok(report) => {
                print_report(&report);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("streambench: {}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    match result_json(&reports) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("streambench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if reports.iter().all(|r| r.mismatches.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
