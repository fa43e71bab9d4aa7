//! The `check_stream_bench` gates, run against doctored copies of the
//! committed `BENCH_stream.json`.

use cf_bench::stream_gate::{check, HOST_PROBE};
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
    check(&committed(), current, 0.2)
        .expect("gate run")
        .failures
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
