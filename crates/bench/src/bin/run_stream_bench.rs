//! The stream-engine throughput trajectory: sustained tuples/sec through
//! the full `ingest` path (forward pass, conformance check, O(1) counters,
//! Page–Hinkley step) for the single-shard and sharded configurations, plus
//! the window-size flatness check and the sync-vs-async ingest-latency
//! comparison on a drifting (retraining) workload — written to
//! `BENCH_stream.json` so successive PRs can track the numbers.
//!
//! Arguments: `--quick` shrinks every workload for CI smoke runs;
//! `--out=<path>` overrides the artifact path (default:
//! `BENCH_stream.json` in the working directory). Workloads come from
//! `cf_bench::stream_load`, shared with the criterion bench.

use cf_bench::stream_load::{
    delayed_spec, drifting_spec, fresh_async_engine, fresh_degraded_async_engine, fresh_engine,
    fresh_feedback_engine, fresh_kary_engine, fresh_ladder_engine, fresh_monitoring_async_engine,
    fresh_retraining_engine, fresh_sharded_engine, kernel_problem, ladder_spec, percentile_us,
    pregenerate, pregenerate_delayed, pregenerate_from, pregenerate_kary, pregenerate_sharded,
};
use cf_conformance::{learn_constraints, LearnOptions};
use cf_data::{Column, Dataset, FeatureEncoding};
use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_density::Kde;
use cf_learners::{Gbt, GbtConfig, Learner, LearnerKind, LogisticRegression};
use cf_linalg::{vector, Matrix};
use cf_stream::{
    AsyncConfig, AsyncEngine, EngineCheckpoint, GroupLayout, PendingIndex, PendingLabel,
    RetrainPolicy, ShardedEngine, ShardedTuple, StreamConfig, StreamEngine, StreamTuple,
};
use cf_telemetry::{shared_sink, NullSink, RingSink, TelemetryEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The observability counters a live operator would scrape, captured at
/// the end of a bench row so the artifact records what the engine *did*
/// (alerts raised, retrains run, labels pending), not just how fast.
fn engine_observability(engine: &StreamEngine) -> serde_json::Value {
    serde_json::json!({
        "alerts": engine.alerts().len(),
        "retrains": engine.retrain_count(),
        "window_fill": engine.window_len(),
        "pending_labels": engine.pending_labels(),
    })
}

/// Drive `engine.ingest` over pregenerated batches until at least
/// `total_tuples` have flowed through; returns (tuples, seconds).
fn drive_single(
    engine: &mut StreamEngine,
    batches: &[Vec<StreamTuple>],
    total_tuples: usize,
) -> (usize, f64) {
    // Warm-up: ingest until the window is full, so the timed region is
    // the steady state (arena wrapped, no fill-phase allocations) for
    // every window size alike.
    let capacity = engine.config().window;
    let mut next = 0usize;
    while engine.window_len() < capacity {
        engine.ingest(&batches[next]).expect("warm-up ingest");
        next = (next + 1) % batches.len();
    }
    let mut ingested = 0usize;
    let started = Instant::now();
    while ingested < total_tuples {
        let outcome = engine.ingest(black_box(&batches[next])).expect("ingest");
        ingested += outcome.decisions.len();
        next = (next + 1) % batches.len();
    }
    (ingested, started.elapsed().as_secs_f64())
}

/// Like [`drive_single`], but folds an operator-facing intersectional
/// query into every timed batch: one windowed marginal per layout axis,
/// summed from the flat cell counters. This is the read path a live
/// dashboard scrapes, so its cost belongs inside the clock.
fn drive_single_with_marginals(
    engine: &mut StreamEngine,
    layout: &GroupLayout,
    batches: &[Vec<StreamTuple>],
    total_tuples: usize,
) -> (usize, f64) {
    let capacity = engine.config().window;
    let mut next = 0usize;
    while engine.window_len() < capacity {
        engine.ingest(&batches[next]).expect("warm-up ingest");
        next = (next + 1) % batches.len();
    }
    let mut ingested = 0usize;
    let started = Instant::now();
    while ingested < total_tuples {
        let outcome = engine.ingest(black_box(&batches[next])).expect("ingest");
        ingested += outcome.decisions.len();
        for axis in 0..layout.axes().len() {
            black_box(
                layout
                    .marginal(engine.window_counts(), axis)
                    .expect("marginal"),
            );
        }
        next = (next + 1) % batches.len();
    }
    (ingested, started.elapsed().as_secs_f64())
}

fn drive_sharded(
    engine: &mut ShardedEngine,
    batches: &[Vec<ShardedTuple>],
    total_tuples: usize,
) -> (usize, f64) {
    // Warm-up: every shard's window must be full before timing starts.
    let capacity = engine.shard(0).expect("shard 0").config().window;
    let shards = engine.shard_count();
    let mut next = 0usize;
    while (0..shards).any(|s| engine.shard(s as u32).expect("shard").window_len() < capacity) {
        engine.ingest(&batches[next]).expect("warm-up ingest");
        next = (next + 1) % batches.len();
    }
    let mut ingested = 0usize;
    let started = Instant::now();
    while ingested < total_tuples {
        let outcome = engine.ingest(black_box(&batches[next])).expect("ingest");
        ingested += outcome.decisions.len();
        next = (next + 1) % batches.len();
    }
    (ingested, started.elapsed().as_secs_f64())
}

/// Timed repetitions per kernel row; the row reports the fastest.
const KERNEL_REPS: usize = 5;

/// The copy of the conformance kernel `ConstraintSet::violation` runs on
/// this host, as the kernels summary reports it.
fn conformance_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// The raw kernel rows: batch margin throughput of the flattened SoA GBT
/// traversal against its recursive reference, training rows fitted per
/// second by the presorted GBT fit against the per-node-sort fit, of the
/// 4-row logistic scoring tile against the per-row dot loop it replaced,
/// of the in-place min-max encode (after copying each raw 1,024-row batch,
/// as the scorer's gather does) against the allocating `transform_rows`
/// it is specified by, of the packed conformance-violation kernel (its
/// portable copy) against the per-projection scalar sum and of the
/// run-time-dispatched copy (`ConstraintSet::violation`, AVX2 where the
/// CPU has it) against the portable one, of the symmetric exact KDE
/// self-density pass against the per-point loop (`Kde::densities` on the training matrix) — on the
/// same fitted models and profiles over the same pregenerated blocks,
/// outside the engine (no window, no counters), so the rows isolate
/// exactly what the kernel rewrites bought — and of the window's
/// pending-join index against the `BTreeMap` it replaced, on the same
/// insert/join/evict sequence, of the JSON number writer against `f64`'s
/// `Display`, and of encoding a `restart16`-shaped checkpoint straight
/// from its structs against encoding it through a cloned `Value` tree
/// (with the ungated decode of the same document timed alongside). Every
/// pair is asserted bit-identical before the clock starts. Each row splits its row target
/// over [`KERNEL_REPS`] timed repetitions, interleaved with those of the
/// rows it is compared with, and reports the fastest, so a preempted
/// repetition cannot drag down a row — in particular
/// `kernels/logistic_scalar`, which `check_stream_bench` divides the
/// `single_shard/` rows by.
fn kernels(quick: bool) -> (Vec<serde_json::Value>, serde_json::Value) {
    let block = 8_192usize;
    let gbt_d = 16;
    let lr_d = 32;

    let gbt_train_rows = 4_000;
    let (x_gbt_train, y_gbt, x_gbt) = kernel_problem(gbt_d, gbt_train_rows, block, 11);
    let mut gbt = Gbt::new(GbtConfig::default());
    gbt.fit(&x_gbt_train, &y_gbt, None).expect("gbt fit");

    let (x_train, y, x_lr) = kernel_problem(lr_d, 4_000, block, 13);
    let mut lr = LogisticRegression::default();
    lr.fit(&x_train, &y, None).expect("logistic fit");
    let (coef, intercept) = (lr.coefficients().to_vec(), lr.intercept());
    // One d=32 profile (m = 32 projections, one per principal axis),
    // probed with the logistic block: same geometry, mostly conforming.
    let profile = learn_constraints(&x_train, &LearnOptions::default());
    let profile_m = profile.len();
    // The min-max encoding a d=32 logistic engine scores through, fitted
    // on the same training rows.
    let encoding = FeatureEncoding::fit(
        &Dataset::new(
            "kernels",
            (0..lr_d).map(|j| format!("x{j}")).collect(),
            (0..lr_d).map(|j| Column::Numeric(x_train.col(j))).collect(),
            vec![0; x_train.rows()],
            vec![0; x_train.rows()],
        )
        .expect("numeric training rows"),
    );
    // The logistic block in scorer-sized batches (streambench's d=32
    // workload serves 1,024 tuples a call), and one batch of scratch.
    let encode_batch = 1_024;
    let lr_batches: Vec<Matrix> = (0..block / encode_batch)
        .map(|b| {
            let rows: Vec<usize> = (b * encode_batch..(b + 1) * encode_batch).collect();
            x_lr.select_rows(&rows)
        })
        .collect();
    let mut encode_scratch = Matrix::zeros(encode_batch, lr_d);
    let scalar_violation = |row: &[f64]| -> f64 {
        profile
            .projections()
            .iter()
            .map(|p| p.importance * p.violation(row))
            .sum()
    };
    // One Algorithm-3 cell below the k-d tree threshold, at the size and
    // width of a drift_repair16 retrain's boosted cells.
    let (kde_n, kde_d) = (480, 16);
    let (x_kde, _, _) = kernel_problem(kde_d, kde_n, 1, 17);
    let kde = Kde::fit(&x_kde);
    // The pending-join sequence of delayed_gbt_k8's shape: window 4,096,
    // batch 1,024, labels 6k–16k tuples late (5% never), and the pending
    // bound that workload configures. Each batch evicts its 1,024 ids'
    // predecessors 4,096 back, then joins the labels due; every delay
    // outlives the window, so every join goes through the index.
    let (join_window, join_batch, join_batches) = (4_096u64, 1_024, 96);
    let join_bound = 16_000 - join_window as usize + 2 * join_batch;
    let join_feedback: Vec<Vec<u64>> =
        pregenerate_delayed(delayed_spec(6_000, 16_000), join_batches, join_batch)
            .into_iter()
            .map(|(_, feedback)| feedback.iter().map(|f| f.id).collect())
            .collect();
    let join_ops = |batch: usize| {
        let served = (batch * join_batch) as u64..((batch + 1) * join_batch) as u64;
        let evicted = served.filter_map(|id| id.checked_sub(join_window));
        (evicted, &join_feedback[batch])
    };
    let parked = |id: u64| PendingLabel {
        id,
        group: (id % 8) as u8,
        decision: ((id >> 3) & 1) as u8,
    };
    // One pass of the sequence through each index; returns the operations
    // run and what every join found.
    let ring_pass = || {
        let mut index = PendingIndex::new(join_bound);
        let (mut ops, mut joined) = (0, Vec::new());
        for batch in 0..join_batches {
            let (evicted, feedback) = join_ops(batch);
            for id in evicted {
                index.insert(parked(id));
                ops += 1;
            }
            for &id in feedback {
                joined.push(index.take(id));
            }
            ops += feedback.len();
        }
        (ops, joined)
    };
    let btree_pass = || {
        let mut index: BTreeMap<u64, (u8, u8)> = BTreeMap::new();
        let (mut ops, mut joined) = (0, Vec::new());
        for batch in 0..join_batches {
            let (evicted, feedback) = join_ops(batch);
            for id in evicted {
                while index.len() >= join_bound {
                    index.pop_first();
                }
                let entry = parked(id);
                index.insert(id, (entry.group, entry.decision));
                ops += 1;
            }
            for &id in feedback {
                joined.push(index.remove(&id).map(|(group, decision)| PendingLabel {
                    id,
                    group,
                    decision,
                }));
            }
            ops += feedback.len();
        }
        (ops, joined)
    };

    // Equivalence gates: a kernels row for a kernel that diverged from its
    // reference would be a benchmark of a wrong answer.
    let fit_gbt = |reference: bool| {
        let mut model = Gbt::new(GbtConfig::default());
        if reference {
            model.fit_reference(&x_gbt_train, &y_gbt, None)
        } else {
            model.fit(&x_gbt_train, &y_gbt, None)
        }
        .expect("gbt fit");
        model
    };
    // `Debug` renders every split and leaf weight in round-trip form, so
    // equal renderings are bit-identical forests.
    assert_eq!(
        format!("{:?}", fit_gbt(true)),
        format!("{:?}", fit_gbt(false)),
        "presorted and per-node-sort GBT fits diverged"
    );
    let flat = gbt.predict_margin_rows(&x_gbt).expect("flat margins");
    let recursive = gbt
        .predict_margin_rows_recursive(&x_gbt)
        .expect("recursive margins");
    assert!(
        flat.iter()
            .zip(&recursive)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "flat and recursive GBT margins diverged"
    );
    let tiles = x_lr
        .affine_margins(&coef, intercept)
        .expect("tiled margins");
    let scalar: Vec<f64> = x_lr
        .iter_rows()
        .map(|row| vector::dot(&coef, row) + intercept)
        .collect();
    assert!(
        tiles
            .iter()
            .zip(&scalar)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "tiled and scalar logistic margins diverged"
    );
    assert!(
        x_lr.iter_rows().all(|row| {
            let scalar = scalar_violation(row).to_bits();
            profile.violation_portable(row).to_bits() == scalar
                && profile.violation(row).to_bits() == scalar
        }),
        "packed, wide and scalar conformance violations diverged"
    );
    assert!(
        lr_batches.iter().all(|batch| {
            let mut in_place = batch.clone();
            encoding
                .transform_rows_in_place(&mut in_place)
                .expect("numeric encoding");
            let spec = encoding.transform_rows(batch).expect("numeric encoding");
            in_place
                .as_slice()
                .iter()
                .zip(spec.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        }),
        "in-place and allocating feature encodings diverged"
    );
    assert!(
        kde.self_densities()
            .iter()
            .zip(&kde.densities(&x_kde))
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "symmetric and pointwise KDE self-densities diverged"
    );
    assert_eq!(
        ring_pass(),
        btree_pass(),
        "pending ring and BTreeMap joins diverged"
    );
    // The first block of logistic features: fractional doubles like the
    // window rows that fill most of a checkpoint. Each pass writes them
    // all, comma-separated, into one reused buffer; the JSON writer's pass
    // includes the UTF-8 check `to_string` runs once per document.
    let json_block = &x_lr.as_slice()[..block];
    let display_pass = |out: &mut String| {
        out.clear();
        for x in black_box(json_block) {
            write!(out, "{x},").expect("writing to a String cannot fail");
        }
        json_block.len()
    };
    let shortest_pass = |out: &mut Vec<u8>| {
        out.clear();
        for &x in black_box(json_block) {
            serde::write_f64(out, x);
            out.push(b',');
        }
        black_box(std::str::from_utf8(out).expect("the writer writes ASCII"));
        json_block.len()
    };
    let (mut display_text, mut json_out) = (String::new(), Vec::new());
    display_pass(&mut display_text);
    shortest_pass(&mut json_out);
    assert_eq!(
        json_out,
        display_text.as_bytes(),
        "JSON number writer and f64 Display diverged"
    );
    // A checkpoint of restart16's shape: logistic, d=16, K=2, window 256,
    // full. The tree row clones a parsed copy of the same document, writes
    // it and drops it: the cost shape of encoding through a `Value` tree.
    let (ckpt_d, ckpt_window) = (16, 256);
    let ckpt_spec = DriftStreamSpec {
        n_features: ckpt_d,
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    };
    let mut ckpt_engine = StreamEngine::from_reference(
        &ckpt_spec.reference(4_000, 1),
        LearnerKind::Logistic,
        1,
        StreamConfig {
            window: ckpt_window,
            retrain: RetrainPolicy::Never,
            ..StreamConfig::default()
        },
    )
    .expect("bootstrap");
    let ckpt_batch =
        StreamTuple::rows_from_dataset(&DriftStream::new(ckpt_spec, 1).next_batch(1_024))
            .expect("numeric rows");
    ckpt_engine.ingest(&ckpt_batch).expect("ingest");
    let checkpoint = ckpt_engine.checkpoint().expect("checkpoint");
    let checkpoint_json = checkpoint.to_json();
    let checkpoint_tree: serde_json::Value =
        serde_json::from_str(&checkpoint_json).expect("the checkpoint parses");
    assert_eq!(
        serde_json::to_string(&checkpoint_tree).expect("encoding cannot fail"),
        checkpoint_json,
        "direct and tree checkpoint encodings diverged"
    );

    let mut configs = Vec::new();
    // Times one group of kernels that a summary ratio compares. Each of the
    // KERNEL_REPS repetitions runs every member in turn, so a stretch of
    // host contention slows the whole group instead of one side of a
    // ratio; each member reports its fastest repetition.
    let mut rows = |target: usize, group: &mut [(&str, &mut dyn FnMut() -> usize)]| -> Vec<f64> {
        for (_, pass) in group.iter_mut() {
            pass(); // warm-up pass, inside neither clock nor count
        }
        let mut best = vec![(0usize, f64::INFINITY); group.len()];
        for _ in 0..KERNEL_REPS {
            for ((_, pass), best) in group.iter_mut().zip(&mut best) {
                let mut rep_rows = 0;
                let started = Instant::now();
                while rep_rows < target / KERNEL_REPS {
                    rep_rows += pass();
                }
                let rep_secs = started.elapsed().as_secs_f64();
                if rep_rows as f64 / rep_secs > best.0 as f64 / best.1 {
                    *best = (rep_rows, rep_secs);
                }
            }
        }
        group
            .iter()
            .zip(best)
            .map(|(&(name, _), (rows, secs))| {
                let rate = rows as f64 / secs;
                println!(
                    "{name}: {rows} rows in {secs:.3}s = {rate:.0} rows/sec \
                     (fastest of {KERNEL_REPS})"
                );
                configs.push(serde_json::json!({
                    "name": name,
                    "tuples": rows,
                    "secs": secs,
                    "tuples_per_sec": rate,
                    "observability": if name.contains("kde") {
                        serde_json::json!({
                            "block_rows": kde_n,
                            "features": kde_d,
                            "repetitions": KERNEL_REPS,
                        })
                    } else if name.contains("gbt_fit") {
                        serde_json::json!({
                            "train_rows": gbt_train_rows,
                            "features": gbt_d,
                            "repetitions": KERNEL_REPS,
                        })
                    } else if name.contains("pending_join") {
                        serde_json::json!({
                            "batches": join_batches,
                            "batch_rows": join_batch,
                            "window": join_window,
                            "pending_labels": join_bound,
                            "repetitions": KERNEL_REPS,
                        })
                    } else if name.contains("json_checkpoint") {
                        serde_json::json!({
                            "bytes": checkpoint_json.len(),
                            "features": ckpt_d,
                            "window": ckpt_window,
                            "repetitions": KERNEL_REPS,
                        })
                    } else if name.contains("json") {
                        serde_json::json!({
                            "numbers": block,
                            "repetitions": KERNEL_REPS,
                        })
                    } else if name.contains("encode") {
                        serde_json::json!({
                            "block_rows": block,
                            "batch_rows": encode_batch,
                            "features": lr_d,
                            "repetitions": KERNEL_REPS,
                        })
                    } else {
                        serde_json::json!({
                            "block_rows": block,
                            "features": if name.contains("gbt") { gbt_d } else { lr_d },
                            "repetitions": KERNEL_REPS,
                        })
                    },
                }));
                rate
            })
            .collect()
    };

    // The recursive GBT walker is ~µs/row; give it a smaller target so the
    // row finishes while still timing hundreds of full blocks.
    let gbt_target = if quick { 100_000 } else { 1_000_000 };
    let lr_target = if quick { 2_000_000 } else { 20_000_000 };
    let gbt_rates = rows(
        gbt_target,
        &mut [
            ("kernels/gbt_recursive", &mut || {
                black_box(
                    gbt.predict_margin_rows_recursive(black_box(&x_gbt))
                        .expect("margins"),
                )
                .len()
            }),
            ("kernels/gbt_flat", &mut || {
                black_box(gbt.predict_margin_rows(black_box(&x_gbt)).expect("margins")).len()
            }),
        ],
    );
    // Each pass fits one 60-round ensemble: gbt_train_rows rows.
    let fit_target = gbt_train_rows * KERNEL_REPS * if quick { 1 } else { 2 };
    let fit_rates = rows(
        fit_target,
        &mut [
            ("kernels/gbt_fit_reference", &mut || {
                black_box(fit_gbt(true));
                gbt_train_rows
            }),
            ("kernels/gbt_fit_presorted", &mut || {
                black_box(fit_gbt(false));
                gbt_train_rows
            }),
        ],
    );
    let lr_rates = rows(
        lr_target,
        &mut [
            ("kernels/logistic_scalar", &mut || {
                let margins: Vec<f64> = x_lr
                    .iter_rows()
                    .map(|r| vector::dot(black_box(&coef), r) + intercept)
                    .collect();
                black_box(margins).len()
            }),
            ("kernels/logistic_tiles", &mut || {
                black_box(
                    x_lr.affine_margins(black_box(&coef), intercept)
                        .expect("margins"),
                )
                .len()
            }),
        ],
    );

    // The in-place row pays for copying each raw batch into its scratch
    // matrix first, as the scorer's gather does before it encodes.
    let encode_rates = rows(
        lr_target,
        &mut [
            ("kernels/encode_rows", &mut || {
                lr_batches
                    .iter()
                    .map(|batch| {
                        black_box(encoding.transform_rows(black_box(batch)).expect("encoding"))
                            .rows()
                    })
                    .sum()
            }),
            ("kernels/encode_in_place", &mut || {
                lr_batches
                    .iter()
                    .map(|batch| {
                        encode_scratch
                            .as_mut_slice()
                            .copy_from_slice(black_box(batch).as_slice());
                        encoding
                            .transform_rows_in_place(black_box(&mut encode_scratch))
                            .expect("encoding");
                        encode_scratch.rows()
                    })
                    .sum()
            }),
        ],
    );

    let cc_target = if quick { 200_000 } else { 2_000_000 };
    let cc_rates = rows(
        cc_target,
        &mut [
            ("kernels/conformance_scalar", &mut || {
                let violations: Vec<f64> = x_lr.iter_rows().map(&scalar_violation).collect();
                black_box(violations).len()
            }),
            ("kernels/conformance_packed", &mut || {
                let violations: Vec<f64> = x_lr
                    .iter_rows()
                    .map(|r| black_box(&profile).violation_portable(r))
                    .collect();
                black_box(violations).len()
            }),
            ("kernels/conformance_wide", &mut || {
                let violations: Vec<f64> = x_lr
                    .iter_rows()
                    .map(|r| black_box(&profile).violation(r))
                    .collect();
                black_box(violations).len()
            }),
        ],
    );

    // Each pass ranks one cell: kde_n self-densities.
    let kde_target = if quick { 50 * kde_n } else { 500 * kde_n };
    let kde_rates = rows(
        kde_target,
        &mut [
            ("kernels/kde_self_pointwise", &mut || {
                black_box(kde.densities(black_box(&x_kde))).len()
            }),
            ("kernels/kde_self_symmetric", &mut || {
                black_box(black_box(&kde).self_densities()).len()
            }),
        ],
    );

    // Rows here are index operations: inserts plus joins.
    let join_target = if quick { 2_000_000 } else { 20_000_000 };
    let join_rates = rows(
        join_target,
        &mut [
            ("kernels/pending_join_btree", &mut || {
                black_box(btree_pass()).0
            }),
            ("kernels/pending_join_ring", &mut || {
                black_box(ring_pass()).0
            }),
        ],
    );

    // Rows here are numbers written.
    let json_target = if quick { 2_000_000 } else { 20_000_000 };
    let json_rates = rows(
        json_target,
        &mut [
            ("kernels/json_f64_display", &mut || {
                display_pass(black_box(&mut display_text))
            }),
            ("kernels/json_f64_shortest", &mut || {
                shortest_pass(black_box(&mut json_out))
            }),
        ],
    );

    // Rows here are checkpoint documents encoded or decoded.
    let ckpt_target = if quick { 200 } else { 2_000 };
    let ckpt_rates = rows(
        ckpt_target,
        &mut [
            ("kernels/json_checkpoint_via_tree", &mut || {
                let tree = black_box(&checkpoint_tree).clone();
                black_box(serde_json::to_string(&tree).expect("encoding cannot fail"));
                drop(black_box(tree));
                1
            }),
            ("kernels/json_checkpoint_direct", &mut || {
                black_box(black_box(&checkpoint).to_json());
                1
            }),
            ("kernels/json_checkpoint_decode", &mut || {
                black_box(
                    EngineCheckpoint::from_json(black_box(&checkpoint_json)).expect("decode"),
                );
                1
            }),
        ],
    );

    let summary = serde_json::json!({
        "workload": format!("raw batch margins, block={block}, gbt d={gbt_d} (60 trees, depth<=4), logistic d={lr_d}; min-max encodes, d={lr_d} in batches of {encode_batch}; gbt fits, {gbt_train_rows} rows; conformance violations, d={lr_d}, m={profile_m}; exact KDE self-densities, n={kde_n}, d={kde_d}; pending joins, window {join_window}, {join_batches} batches of {join_batch}, bound {join_bound}; JSON numbers, the first {block} logistic features; JSON checkpoints, logistic d={ckpt_d}, window {ckpt_window}, {} bytes", checkpoint_json.len()),
        "gbt_flat_vs_recursive": gbt_rates[1] / gbt_rates[0],
        "gbt_fit_presorted_vs_reference": fit_rates[1] / fit_rates[0],
        "logistic_tiles_vs_scalar": lr_rates[1] / lr_rates[0],
        "encode_in_place_vs_rows": encode_rates[1] / encode_rates[0],
        "conformance_packed_vs_scalar": cc_rates[1] / cc_rates[0],
        "conformance_wide_vs_packed": cc_rates[2] / cc_rates[1],
        "conformance_path": conformance_path(),
        "kde_symmetric_vs_pointwise": kde_rates[1] / kde_rates[0],
        "pending_ring_vs_btree": join_rates[1] / join_rates[0],
        "json_shortest_vs_display": json_rates[1] / json_rates[0],
        "json_direct_vs_tree": ckpt_rates[1] / ckpt_rates[0],
    });
    (configs, summary)
}

/// The sync-vs-async comparison on a drifting workload with on-alert
/// retraining: the sync engine pays for monitoring (and the occasional
/// full ConFair retrain) inside every `ingest` call; the async engine
/// returns after the forward pass and lets the background monitor absorb
/// that work. Returns `(configs, summary)` JSON values.
fn latency_comparison(quick: bool) -> (Vec<serde_json::Value>, serde_json::Value) {
    let batch = 512;
    let n_batches = if quick { 40 } else { 200 };
    // Drift begins a third of the way in, so the workload covers the
    // stationary regime, the detection churn, and the retrain(s).
    let onset = (n_batches * batch / 3) as u64;
    let window = 4_096;
    let spec = drifting_spec(onset);
    let batches = pregenerate_from(spec, n_batches, batch);
    let total: usize = batches.iter().map(Vec::len).sum();

    let mut sync_engine = fresh_retraining_engine(window);
    let mut sync_lat = Vec::with_capacity(batches.len());
    let started = Instant::now();
    for b in &batches {
        let call = Instant::now();
        sync_engine.ingest(black_box(b)).expect("sync ingest");
        sync_lat.push(call.elapsed().as_secs_f64() * 1e6);
    }
    let sync_secs = started.elapsed().as_secs_f64();
    let sync_retrains = sync_engine.retrain_count();

    // A queue deep enough to absorb a full retrain's worth of scoring
    // (256 batches ≈ 13 ms of forward passes) keeps the score path from
    // inheriting the retrain stall through backpressure.
    let mut async_engine = fresh_async_engine(
        window,
        AsyncConfig {
            queue_depth: 256,
            ..AsyncConfig::default()
        },
    );
    let mut async_lat = Vec::with_capacity(batches.len());
    let started = Instant::now();
    for b in &batches {
        // `ingest_owned` is the zero-copy hand-off: a real pipeline owns
        // its arriving batches, so the clone here is bench scaffolding and
        // stays outside the per-call clock (the wall clock still pays it).
        let owned = b.clone();
        let call = Instant::now();
        async_engine
            .ingest_owned(black_box(owned))
            .expect("async ingest");
        async_lat.push(call.elapsed().as_secs_f64() * 1e6);
    }
    // Sustained throughput is honest only once the monitor has caught up:
    // the final flush is inside the timed region.
    async_engine.flush().expect("final flush");
    let async_secs = started.elapsed().as_secs_f64();
    let async_retrains = async_engine.retrain_count();
    let dropped = async_engine.dropped();

    let mut configs = Vec::new();
    let mut stats = |name: &str,
                     lat: &[f64],
                     secs: f64,
                     retrains: u64,
                     obs: serde_json::Value|
     -> (f64, f64, f64) {
        let (p50, p99) = (percentile_us(lat, 50.0), percentile_us(lat, 99.0));
        let max = lat.iter().cloned().fold(0.0, f64::max);
        let rate = total as f64 / secs;
        println!(
            "{name}: p50 {p50:.1}µs  p99 {p99:.1}µs  max {max:.0}µs  \
             {rate:.0} tuples/sec sustained  ({retrains} retrains)"
        );
        configs.push(serde_json::json!({
            "name": name,
            "tuples": total,
            "batch": batch,
            "secs": secs,
            "tuples_per_sec": rate,
            "ingest_p50_us": p50,
            "ingest_p99_us": p99,
            "ingest_max_us": max,
            "retrains": retrains,
            "observability": obs,
        }));
        (p50, p99, rate)
    };
    let (sync_p50, sync_p99, sync_rate) = stats(
        "latency/sync_drift",
        &sync_lat,
        sync_secs,
        sync_retrains,
        engine_observability(&sync_engine),
    );
    let (async_p50, async_p99, async_rate) = stats(
        "latency/async_drift",
        &async_lat,
        async_secs,
        async_retrains,
        serde_json::json!({
            "alerts": async_engine.alerts().len(),
            "retrains": async_retrains,
            "monitor_lag_after_flush": async_engine.monitor_lag(),
            "dropped_batches": dropped.batches,
            "dropped_tuples": dropped.tuples,
        }),
    );

    let summary = serde_json::json!({
        "workload": "drifting, on-alert retraining, batch=512",
        "p50_speedup": sync_p50 / async_p50,
        "p99_speedup": sync_p99 / async_p99,
        "throughput_ratio_async_vs_sync": async_rate / sync_rate,
        "async_dropped_batches": dropped.batches,
        "async_dropped_tuples": dropped.tuples,
    });
    (configs, summary)
}

/// The robustness row: sustained async ingest throughput while serving
/// in degraded mode, against a monitoring-only twin on identical
/// stationary batches. The faulted engine's DI* floor can never be met
/// and every retrain attempt fails, so its first repair episode exhausts
/// the budget during warm-up and the entire timed region serves degraded
/// (with further failing episodes recurring at the floor cooldown). The
/// row exists to show degraded mode is a flag, not a slow path —
/// throughput should stay within a few percent of the healthy baseline.
fn degraded_mode(quick: bool) -> (Vec<serde_json::Value>, serde_json::Value) {
    let batch = 512;
    let window = 4_096;
    let total = if quick { 500_000 } else { 2_000_000 };
    let batches = pregenerate(32, batch);
    let async_config = AsyncConfig {
        queue_depth: 256,
        ..AsyncConfig::default()
    };

    let mut configs = Vec::new();
    let mut run = |name: &str, mut engine: AsyncEngine| -> (f64, bool, u64) {
        // Warm-up outside the clock: fill the window (which also walks
        // the faulted engine into degraded mode) and let the monitor
        // catch up, so the timed region is the steady serving state.
        let mut next = 0usize;
        let mut warmed = 0usize;
        while warmed < window {
            warmed += engine
                .ingest_owned(batches[next].clone())
                .expect("warm-up ingest")
                .len();
            next = (next + 1) % batches.len();
        }
        engine.flush().expect("warm-up flush");

        let mut ingested = 0usize;
        let started = Instant::now();
        while ingested < total {
            ingested += engine
                .ingest_owned(black_box(batches[next].clone()))
                .expect("ingest")
                .len();
            next = (next + 1) % batches.len();
        }
        // Sustained throughput is honest only once the monitor has caught
        // up: the final flush is inside the timed region.
        engine.flush().expect("final flush");
        let secs = started.elapsed().as_secs_f64();
        let rate = ingested as f64 / secs;
        let (degraded, failures) = (engine.is_degraded(), engine.retrain_failure_count());
        println!(
            "{name}: {ingested} tuples in {secs:.3}s = {rate:.0} tuples/sec  \
             (degraded: {degraded}, retrain failures: {failures})"
        );
        configs.push(serde_json::json!({
            "name": name,
            "tuples": ingested,
            "batch": batch,
            "secs": secs,
            "tuples_per_sec": rate,
            "observability": serde_json::json!({
                "alerts": engine.alerts().len(),
                "retrains": engine.retrain_count(),
                "retrain_failures": failures,
                "degraded": degraded,
                "monitor_restarts": engine.monitor_restarts(),
                "monitor_gap_tuples": engine.monitor_gap_tuples(),
                "monitor_lag_after_flush": engine.monitor_lag(),
            }),
        }));
        (rate, degraded, failures)
    };

    let (healthy_rate, _, _) = run(
        "robustness/async_baseline",
        fresh_monitoring_async_engine(window, async_config),
    );
    let (degraded_rate, degraded, failures) = run(
        "robustness/degraded_mode",
        fresh_degraded_async_engine(window, async_config),
    );
    assert!(degraded, "the faulted engine must end the run degraded");
    assert!(
        failures > 0,
        "the faulted engine must have burned its budget"
    );

    let summary = serde_json::json!({
        "workload": "stationary, monitoring-only baseline vs always-failing repair, batch=512",
        "throughput_ratio_degraded_vs_healthy": degraded_rate / healthy_rate,
    });
    (configs, summary)
}

/// The repair-ladder recovery rows: how much repair work each rung
/// spends taking a floor-breaking drift episode back to health, read
/// off the `repair_end` trail event that closes the episode. For the
/// cheap rungs (`nudge`, `projection`) `recovery_us` is the episode's
/// accumulated repair work — threshold recomputes and the projection
/// install, the only serving-path cost the repair adds; for `retrain`
/// it is the wall clock of the tier-3 retrain episode. Each scenario is
/// deterministic (same reference, seed, and stream shape as the ladder
/// test suite, at the serving rows' window of 4096); the row keeps the minimum of three fresh
/// episodes so clock jitter cannot masquerade as a recovery-time
/// regression. The whole point of the ladder is the spread between
/// these rows: the nudge must come in at least 100x under the retrain.
fn repair_recovery() -> (Vec<serde_json::Value>, serde_json::Value) {
    let mut configs = Vec::new();
    let mut row = |name: &str,
                   retrain: RetrainPolicy,
                   patience: u32,
                   nudge_max: f64,
                   di_floor: f64,
                   drift_group: u8,
                   tier: &str,
                   outcome: &str|
     -> f64 {
        let mut best: Option<(u64, usize)> = None;
        let mut retrains = 0u64;
        for _ in 0..3 {
            let mut engine =
                fresh_ladder_engine(retrain, patience, nudge_max, di_floor, drift_group);
            let ring = Arc::new(Mutex::new(RingSink::new(1 << 14)));
            let sink: cf_telemetry::SharedSink = ring.clone();
            engine.set_sink(sink);
            let mut stream = DriftStream::new(ladder_spec(drift_group), 9);
            let mut closed = None;
            for batch_no in 0..400 {
                let batch =
                    StreamTuple::rows_from_dataset(&stream.next_batch(64)).expect("numeric");
                engine.ingest(black_box(&batch)).expect("ingest");
                let end = ring
                    .lock()
                    .expect("ring")
                    .events()
                    .iter()
                    .find_map(|e| match e {
                        TelemetryEvent::RepairEnd(s) if s.tier == tier && s.outcome == outcome => {
                            Some(s.duration_us)
                        }
                        _ => None,
                    });
                if let Some(us) = end {
                    closed = Some((us, batch_no + 1));
                    break;
                }
            }
            let closed = closed.unwrap_or_else(|| panic!("{name}: episode never closed"));
            if best.is_none_or(|b| closed.0 < b.0) {
                best = Some(closed);
            }
            retrains = engine.retrain_count();
        }
        let (recovery_us, batches) = best.expect("three episodes ran");
        println!(
            "{name}: recovered in {recovery_us}us of repair work \
             ({batches} batches to close, {retrains} retrains)"
        );
        configs.push(serde_json::json!({
            "name": name,
            "recovery_us": recovery_us,
            "batches_to_recovery": batches,
            "observability": serde_json::json!({
                "tier": tier,
                "outcome": outcome,
                "retrains": retrains,
                "window": 4_096,
            }),
        }));
        recovery_us as f64
    };

    // Tier 1 alone: generous headroom, effectively-infinite patience.
    let nudge_us = row(
        "repair/nudge",
        RetrainPolicy::Never,
        200,
        6.0,
        0.8,
        1,
        "threshold_nudge",
        "recovered",
    );
    // Tier 2 closes: tier 1 impotent, no retrain policy, and a majority
    // drift (group 0, tighter floor) — the shape the projection cures.
    let projection_us = row(
        "repair/projection",
        RetrainPolicy::Never,
        3,
        0.0,
        0.95,
        0,
        "difffair_projection",
        "recovered",
    );
    // Tier 3: both cheap rungs impotent, on-alert policy → full retrain.
    let retrain_us = row(
        "repair/retrain",
        RetrainPolicy::OnAlert { min_window: 2_048 },
        3,
        0.0,
        0.8,
        1,
        "confair_retrain",
        "retrained",
    );

    assert!(
        nudge_us * 100.0 <= retrain_us,
        "the ladder's premise failed: nudge recovery ({nudge_us}us) is not \
         100x cheaper than a retrain ({retrain_us}us)"
    );
    let summary = serde_json::json!({
        "workload": "drifting, DI* floor breach, window=4096, batch=64, min of 3 episodes",
        "nudge_vs_retrain_speedup": retrain_us / nudge_us,
        "projection_vs_retrain_speedup": retrain_us / projection_us,
    });
    (configs, summary)
}

/// The delayed-label join cost: unlabeled ingest with labels trailing by
/// 6k–16k tuples (window 4,096 — most joins land through the pending
/// index, the costliest path). Measures the `feedback` call itself:
/// latency percentiles per call and sustained joins/sec.
fn feedback_join(quick: bool) -> serde_json::Value {
    let batch = 512;
    let n_batches = if quick { 60 } else { 240 };
    let window = 4_096;
    let batches = pregenerate_delayed(delayed_spec(6_000, 16_000), n_batches, batch);
    let mut engine = fresh_feedback_engine(window, 16_384);

    let mut joins = 0u64;
    let mut lat = Vec::with_capacity(batches.len());
    let mut join_secs = 0.0f64;
    for (tuples, feedback) in &batches {
        engine.ingest(black_box(tuples)).expect("ingest");
        let call = Instant::now();
        let outcome = engine.feedback(black_box(feedback)).expect("feedback");
        let elapsed = call.elapsed().as_secs_f64();
        if !feedback.is_empty() {
            lat.push(elapsed * 1e6);
        }
        join_secs += elapsed;
        joins += outcome.joined;
    }
    let stats = engine.join_stats();
    assert_eq!(stats.unmatched, 0, "pending index sized for the full lag");
    let (p50, p99) = (percentile_us(&lat, 50.0), percentile_us(&lat, 99.0));
    let rate = joins as f64 / join_secs;
    println!("latency/feedback_join: p50 {p50:.1}µs  p99 {p99:.1}µs per feedback batch  {rate:.0} joins/sec sustained  ({stats})");
    serde_json::json!({
        "name": "latency/feedback_join",
        "batch": batch,
        "window": window,
        "pending_labels": 16_384,
        "labels_joined": joins,
        "joined_late": stats.joined_late,
        "join_secs": join_secs,
        "joins_per_sec": rate,
        "feedback_p50_us": p50,
        "feedback_p99_us": p99,
        "observability": serde_json::json!({
            "joined": stats.joined,
            "joined_late": stats.joined_late,
            "duplicates": stats.duplicates,
            "unmatched": stats.unmatched,
            "pending_evicted": stats.pending_evicted,
            "pending_backlog": engine.pending_labels(),
        }),
    })
}

fn main() {
    let mut quick = false;
    let mut out = std::path::PathBuf::from("BENCH_stream.json");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out = std::path::PathBuf::from(v);
        } else {
            panic!("unknown argument {arg}; expected --quick --out=<path>");
        }
    }
    let total = if quick { 100_000 } else { 1_000_000 };
    let mut configs = Vec::new();
    let mut record = |name: String, tuples: usize, secs: f64, obs: serde_json::Value| {
        let rate = tuples as f64 / secs;
        println!("{name}: {tuples} tuples in {secs:.3}s = {rate:.0} tuples/sec");
        configs.push(serde_json::json!({
            "name": name,
            "tuples": tuples,
            "secs": secs,
            "tuples_per_sec": rate,
            "observability": obs,
        }));
        rate
    };

    // Single-shard throughput across batch sizes.
    let mut bare_1024_rate = None;
    for &batch in &[512usize, 1_024, 4_096] {
        let batches = pregenerate(32, batch);
        let mut engine = fresh_engine(4_096);
        let (tuples, secs) = drive_single(&mut engine, &batches, total);
        let rate = record(
            format!("single_shard/batch={batch}"),
            tuples,
            secs,
            engine_observability(&engine),
        );
        if batch == 1_024 {
            bare_1024_rate = Some(rate);
        }
    }
    let bare_1024_rate = bare_1024_rate.expect("batch=1024 row runs");

    // Telemetry overhead on the same workload as single_shard/batch=1024:
    // no sink must cost nothing (the delta bookkeeping is skipped
    // entirely), the NullSink isolates the lock + bookkeeping cost, the
    // RingSink adds event construction. All should stay within a few
    // percent of the bare rate.
    let mut telemetry_overhead = Vec::new();
    for (label, sink) in [
        ("null_sink", shared_sink(NullSink)),
        ("ring_sink", shared_sink(RingSink::new(4_096))),
    ] {
        let batches = pregenerate(32, 1_024);
        let mut engine = fresh_engine(4_096);
        engine.set_sink(sink);
        let (tuples, secs) = drive_single(&mut engine, &batches, total);
        let rate = record(
            format!("telemetry/{label}+batch=1024"),
            tuples,
            secs,
            engine_observability(&engine),
        );
        telemetry_overhead.push(serde_json::json!({
            "sink": label,
            "throughput_vs_bare": rate / bare_1024_rate,
        }));
    }

    // Window-size flatness: counters-not-scans, arena-not-boxes.
    for &window in &[256usize, 65_536] {
        let batches = pregenerate(32, 1_024);
        let mut engine = fresh_engine(window);
        let (tuples, secs) = drive_single(&mut engine, &batches, total);
        record(
            format!("window/{window}"),
            tuples,
            secs,
            engine_observability(&engine),
        );
    }

    // K-ary ingest cost: the per-tuple counter update is one cell
    // increment — O(1) in K — so monitoring 8 intersection cells must
    // ingest within a few percent of monitoring 2. The third row folds
    // a windowed 2×4 marginal read (both axes) into every batch: the
    // intersectional query an operator dashboard scrapes. The ratio
    // claim needs more care than the absolute rows: each row drives 4×
    // the standard tuple count and keeps the best of three timed passes
    // (the window stays warm between passes), so a sub-100ms scheduler
    // hiccup cannot masquerade as a K-dependent ingest cost.
    let kary_total = total * 4;
    let layout = GroupLayout::new(vec![2, 4]).expect("2x4 layout");
    let mut kary_rates = Vec::new();
    let mut kary_row =
        |name: &str,
         engine: &mut StreamEngine,
         drive: &mut dyn FnMut(&mut StreamEngine) -> (usize, f64)| {
            let (mut tuples, mut secs) = drive(engine);
            for _ in 1..3 {
                let (t, s) = drive(engine);
                if (t as f64 / s) > (tuples as f64 / secs) {
                    (tuples, secs) = (t, s);
                }
            }
            kary_rates.push(record(
                name.to_string(),
                tuples,
                secs,
                engine_observability(engine),
            ));
        };
    for &(label, groups) in &[("k2", 2usize), ("k8", 8)] {
        let batches = pregenerate_kary(groups, 32, 1_024);
        let mut engine = fresh_kary_engine(4_096, groups);
        kary_row(&format!("kary/{label}"), &mut engine, &mut |e| {
            drive_single(e, &batches, kary_total)
        });
    }
    {
        let batches = pregenerate_kary(layout.cells(), 32, 1_024);
        let mut engine = fresh_kary_engine(4_096, layout.cells());
        kary_row("kary/k8_intersections", &mut engine, &mut |e| {
            drive_single_with_marginals(e, &layout, &batches, kary_total)
        });
    }
    let kary_overhead = serde_json::json!({
        "workload": "stationary, monitoring only, batch=1024, window=4096",
        "k8_vs_k2": kary_rates[1] / kary_rates[0],
        "k8_intersections_vs_k2": kary_rates[2] / kary_rates[0],
    });

    // Sharded aggregate throughput; scaling is reported relative to the
    // 1-shard configuration of the same router path.
    let mut base_rate = None;
    let mut scaling = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let batches = pregenerate_sharded(shards, 16, 1_024);
        let mut engine = fresh_sharded_engine(4_096, shards);
        let (tuples, secs) = drive_sharded(&mut engine, &batches, total);
        let obs: Vec<serde_json::Value> = (0..shards)
            .map(|s| engine_observability(engine.shard(s as u32).expect("shard")))
            .collect();
        let rate = record(
            format!("sharded/shards={shards}"),
            tuples,
            secs,
            serde_json::json!({ "per_shard": obs }),
        );
        let base = *base_rate.get_or_insert(rate);
        scaling.push(serde_json::json!({
            "shards": shards,
            "speedup_vs_1_shard": rate / base,
        }));
    }

    // Raw kernel throughput (flat GBT vs recursive, logistic tiles vs
    // scalar, packed conformance vs scalar, symmetric KDE vs pointwise),
    // outside the engine.
    let (kernel_configs, kernel_summary) = kernels(quick);
    configs.extend(kernel_configs);

    // Sync vs async ingest-path latency on the drifting workload.
    let (latency_configs, async_vs_sync) = latency_comparison(quick);
    configs.extend(latency_configs);

    // Degraded-mode serving throughput vs the healthy async baseline.
    let (robustness_configs, degraded_summary) = degraded_mode(quick);
    configs.extend(robustness_configs);

    // Late-label join cost through the pending index.
    configs.push(feedback_join(quick));

    // Repair-ladder recovery work per rung (same cost quick or full —
    // the scenarios are a few hundred 64-tuple batches).
    let (repair_configs, repair_summary) = repair_recovery();
    configs.extend(repair_configs);

    let artifact = serde_json::json!({
        "bench": "stream_ingest",
        "quick": quick,
        "configs": configs,
        "kernels": kernel_summary,
        "sharded_scaling": scaling,
        "kary_overhead": kary_overhead,
        "async_vs_sync": async_vs_sync,
        "degraded_mode": degraded_summary,
        "telemetry_overhead": telemetry_overhead,
        "repair_ladder": repair_summary,
    });
    let file = std::fs::File::create(&out).expect("create BENCH_stream.json");
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), &artifact)
        .expect("serialise bench results");
    println!("[artifact] {}", out.display());
}
