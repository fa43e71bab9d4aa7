//! The `check_stream_bench` gates, run against doctored copies of the
//! committed `BENCH_stream.json`, and the `check_paired_bench` gate, run
//! on synthetic streambench result lines against the committed
//! `BENCHMARK.json` bounds.

use cf_bench::stream_gate::{check, paired, HOST_PROBE};
use serde_json::Value;

fn committed() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    let text = std::fs::read_to_string(path).expect("read committed BENCH_stream.json");
    serde_json::from_str(&text).expect("parse committed BENCH_stream.json")
}

fn field<'a>(doc: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = doc else {
        panic!("not an object")
    };
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}`"))
        .1
}

/// Multiply the `tuples_per_sec` of every row whose name starts with
/// `prefix` by `factor`.
fn scale_rows(doc: &mut Value, prefix: &str, factor: f64) {
    let Value::Array(rows) = field(doc, "configs") else {
        panic!("configs is not an array")
    };
    let mut scaled = 0;
    for row in rows.iter_mut() {
        if row
            .get("name")
            .and_then(Value::as_str)
            .is_some_and(|n| n.starts_with(prefix))
        {
            let Value::Number(tps) = field(row, "tuples_per_sec") else {
                panic!("tuples_per_sec is not a number")
            };
            *tps *= factor;
            scaled += 1;
        }
    }
    assert!(scaled > 0, "no row matches {prefix}");
}

fn drop_row(doc: &mut Value, name: &str) {
    let Value::Array(rows) = field(doc, "configs") else {
        panic!("configs is not an array")
    };
    rows.retain(|r| r.get("name").and_then(Value::as_str) != Some(name));
}

fn set_kernel_ratio(doc: &mut Value, key: &str, ratio: Option<f64>) {
    let Value::Object(kernels) = field(doc, "kernels") else {
        panic!("kernels is not an object")
    };
    kernels.retain(|(k, _)| k != key);
    if let Some(r) = ratio {
        kernels.push((key.to_string(), Value::Number(r)));
    }
}

fn failures(current: &Value) -> Vec<String> {
    check(&committed(), current).expect("gate run").failures
}

#[test]
fn committed_artifact_passes_against_itself() {
    assert_eq!(failures(&committed()), Vec::<String>::new());
}

#[test]
fn single_shard_regression_fails_with_the_host_probe_unchanged() {
    let mut current = committed();
    scale_rows(&mut current, "single_shard/batch=1024", 0.7);
    assert_eq!(failures(&current), vec!["single_shard/batch=1024"]);
}

#[test]
fn uniformly_slower_host_passes() {
    // Half the speed everywhere, engine and probe alike: the old absolute
    // gate failed every single_shard/ row here.
    let mut current = committed();
    scale_rows(&mut current, "single_shard/", 0.5);
    scale_rows(&mut current, HOST_PROBE, 0.5);
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn missing_host_probe_fails() {
    let mut current = committed();
    drop_row(&mut current, HOST_PROBE);
    let failed = failures(&current);
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(failed[0].contains(HOST_PROBE), "{failed:?}");
}

#[test]
fn kde_ratio_below_floor_or_missing_fails() {
    let key = "kde_symmetric_vs_pointwise";
    let mut current = committed();
    set_kernel_ratio(&mut current, key, Some(1.3));
    assert_eq!(
        failures(&current),
        vec![format!("kernels.{key} = 1.30 < 1.4")]
    );
    set_kernel_ratio(&mut current, key, None);
    assert_eq!(
        failures(&current),
        vec![format!("current: no `kernels.{key}` ratio")]
    );
    set_kernel_ratio(&mut current, key, Some(1.4));
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn gbt_fit_ratio_below_floor_or_missing_fails() {
    let key = "gbt_fit_presorted_vs_reference";
    let mut current = committed();
    set_kernel_ratio(&mut current, key, Some(1.2));
    assert_eq!(
        failures(&current),
        vec![format!("kernels.{key} = 1.20 < 1.5")]
    );
    set_kernel_ratio(&mut current, key, None);
    assert_eq!(
        failures(&current),
        vec![format!("current: no `kernels.{key}` ratio")]
    );
    set_kernel_ratio(&mut current, key, Some(1.5));
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn gbt_flat_ratio_below_floor_or_missing_fails() {
    let key = "gbt_flat_vs_recursive";
    let mut current = committed();
    set_kernel_ratio(&mut current, key, Some(1.2));
    assert_eq!(
        failures(&current),
        vec![format!("kernels.{key} = 1.20 < 1.5")]
    );
    set_kernel_ratio(&mut current, key, None);
    assert_eq!(
        failures(&current),
        vec![format!("current: no `kernels.{key}` ratio")]
    );
    set_kernel_ratio(&mut current, key, Some(1.5));
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn conformance_wide_ratio_below_floor_or_missing_fails() {
    let key = "conformance_wide_vs_packed";
    let mut current = committed();
    set_kernel_ratio(&mut current, key, Some(1.1));
    assert_eq!(
        failures(&current),
        vec![format!("kernels.{key} = 1.10 < 1.2")]
    );
    set_kernel_ratio(&mut current, key, None);
    assert_eq!(
        failures(&current),
        vec![format!("current: no `kernels.{key}` ratio")]
    );
    set_kernel_ratio(&mut current, key, Some(1.2));
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn encode_ratio_below_floor_or_missing_fails() {
    let key = "encode_in_place_vs_rows";
    let mut current = committed();
    set_kernel_ratio(&mut current, key, Some(0.9));
    assert_eq!(
        failures(&current),
        vec![format!("kernels.{key} = 0.90 < 1.1")]
    );
    set_kernel_ratio(&mut current, key, None);
    assert_eq!(
        failures(&current),
        vec![format!("current: no `kernels.{key}` ratio")]
    );
    set_kernel_ratio(&mut current, key, Some(1.1));
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn pending_ring_ratio_below_floor_or_missing_fails() {
    let key = "pending_ring_vs_btree";
    let mut current = committed();
    set_kernel_ratio(&mut current, key, Some(1.5));
    assert_eq!(
        failures(&current),
        vec![format!("kernels.{key} = 1.50 < 2.0")]
    );
    set_kernel_ratio(&mut current, key, None);
    assert_eq!(
        failures(&current),
        vec![format!("current: no `kernels.{key}` ratio")]
    );
    set_kernel_ratio(&mut current, key, Some(2.0));
    assert_eq!(failures(&current), Vec::<String>::new());
}

#[test]
fn nudge_recovery_growth_beyond_the_threshold_fails() {
    let mut current = committed();
    let Value::Array(rows) = field(&mut current, "configs") else {
        panic!("configs is not an array")
    };
    let nudge = rows
        .iter_mut()
        .find(|r| r.get("name").and_then(Value::as_str) == Some("repair/nudge"))
        .expect("a repair/nudge row");
    let Value::Number(us) = field(nudge, "recovery_us") else {
        panic!("recovery_us is not a number")
    };
    *us *= 1.5;
    assert_eq!(failures(&current), vec!["repair/nudge"]);
}

fn bounds() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read committed BENCHMARK.json");
    serde_json::from_str(&text).expect("parse committed BENCHMARK.json")
}

fn names(key: &str) -> Vec<String> {
    bounds()
        .get(key)
        .and_then(Value::as_array)
        .expect("a bounds list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// One synthetic streambench result line, in the shape `--workload all`
/// prints: every workload's end-to-end metrics at 4.0, except `key` at
/// `value` (NaN leaves it out).
fn line(correct: bool, failed: u64, key: &str, value: f64) -> Value {
    let mut fields = Vec::new();
    for workload in names("workloads") {
        for metric in names("end_to_end") {
            let name = format!("{workload}.{metric}");
            let v = if name == key { value } else { 4.0 };
            if !v.is_nan() {
                fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"u\"}}"));
            }
        }
    }
    let text = format!(
        "{{\"correct\": {correct}, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    serde_json::from_str(&text).expect("synthetic result line")
}

const PAIRS: usize = 5;

fn healthy() -> Vec<Value> {
    (0..PAIRS).map(|_| line(true, 0, "", 0.0)).collect()
}

/// Every change run with `key` at `value` (NaN drops the metric).
fn changed(key: &str, value: f64) -> Vec<Value> {
    (0..PAIRS).map(|_| line(true, 0, key, value)).collect()
}

fn paired_failures(parent: &[Value], change: &[Value]) -> Vec<String> {
    paired(&bounds(), parent, change)
        .expect("gate run")
        .failures
}

#[test]
fn identical_runs_pass() {
    assert_eq!(
        paired_failures(&healthy(), &healthy()),
        Vec::<String>::new()
    );
}

#[test]
fn quarter_lower_throughput_on_one_workload_fails_naming_it() {
    let failed = paired_failures(&healthy(), &changed("delayed_gbt_k8.tuples_per_sec", 3.0));
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(
        failed[0].starts_with("delayed_gbt_k8.tuples_per_sec:"),
        "{failed:?}"
    );
}

#[test]
fn higher_p50_fails_and_lower_p50_passes() {
    let key = "steady_lr32.ingest_p50_us";
    let failed = paired_failures(&healthy(), &changed(key, 5.2));
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(failed[0].starts_with(key), "{failed:?}");
    assert_eq!(
        paired_failures(&healthy(), &changed(key, 2.8)),
        Vec::<String>::new()
    );
}

#[test]
fn one_slow_pair_of_five_passes() {
    let mut change = healthy();
    change[2] = line(true, 0, "restart16.tuples_per_sec", 2.0);
    assert_eq!(paired_failures(&healthy(), &change), Vec::<String>::new());
}

#[test]
fn incorrect_change_run_fails() {
    let mut change = healthy();
    change[3] = line(false, 0, "", 0.0);
    assert_eq!(
        paired_failures(&healthy(), &change),
        vec!["change run 3: `correct` is not true"]
    );
}

#[test]
fn higher_failed_share_fails() {
    let mut change = healthy();
    change[0] = line(true, 1, "", 0.0);
    let failed = paired_failures(&healthy(), &change);
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(failed[0].starts_with("failed ops:"), "{failed:?}");
    // The same share on both sides passes.
    assert_eq!(paired_failures(&change, &change), Vec::<String>::new());
}

#[test]
fn metric_missing_from_either_side_fails() {
    let key = "drift_repair16.setup_s";
    let dropped = changed(key, f64::NAN);
    let expected = vec![format!("{key}: missing from a parent or change run")];
    assert_eq!(paired_failures(&healthy(), &dropped), expected);
    assert_eq!(paired_failures(&dropped, &healthy()), expected);
}

#[test]
fn unequal_run_counts_are_an_error() {
    assert!(paired(&bounds(), &healthy(), &healthy()[1..]).is_err());
    assert!(paired(&bounds(), &[], &[]).is_err());
}
