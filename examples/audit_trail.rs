//! The telemetry plane end to end: a replayable audit trail plus live
//! Prometheus metrics, wrapped around the drift-repair loop.
//!
//! Every decision the monitor takes — each ingested batch, each drift
//! alert (with its moved-cell explanation), each repair attempt and the
//! model swap that publishes it, the final checkpoint — lands as one
//! typed JSON line in `target/audit_trail.jsonl`. The run then proves the
//! trail is *evidence*, not logging: replaying the file reconstructs the
//! byte-identical fairness snapshot and alert sequence the live engine
//! reported, so an auditor can verify months later exactly what the
//! monitor saw when it intervened. The same events feed a metrics
//! registry rendered in Prometheus text format.
//!
//! ```sh
//! cargo run --release --example audit_trail
//! ```

use confair::prelude::*;

fn main() {
    let spec = DriftStreamSpec {
        drift_onset: 6_000,
        ..DriftStreamSpec::default()
    };

    // 1. Bootstrap the engine, then install the telemetry plane: an
    //    append-only JSONL sink (fsynced on every alert) and a metrics
    //    registry. Neither touches the fairness math — pure observation.
    let reference = spec.reference(4_000, 42);
    let config = StreamConfig {
        retrain: RetrainPolicy::OnAlert { min_window: 1_000 },
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::from_reference(&reference, LearnerKind::Logistic, 42, config)
        .expect("bootstrap from reference");

    std::fs::create_dir_all("target").expect("create target/");
    let trail_path = std::path::Path::new("target/audit_trail.jsonl");
    let sink = shared_sink(JsonlSink::create(trail_path).expect("create audit trail"));
    engine.set_sink(sink.clone());
    let registry = MetricsRegistry::new();
    engine.install_metrics(&registry);
    println!(
        "audit trail -> {} ; metrics registry installed\n",
        trail_path.display()
    );

    // 2. Serve the drifting stream and keep our own record of what the
    //    engine reported live — the replay must reproduce exactly this.
    let mut stream = DriftStream::new(spec, 7);
    let mut live_snapshots = Vec::new();
    for _ in 0..80 {
        let batch =
            StreamTuple::rows_from_dataset(&stream.next_batch(250)).expect("numeric stream batch");
        let out = engine.ingest(&batch).expect("ingest");
        live_snapshots.push(out.snapshot.to_data());
        for alert in &out.alerts {
            println!("{:>7}  {alert}", engine.tuples_seen());
        }
        if out.retrained {
            println!(
                "{:>7}  [RETRAIN] ConFair repair + model swap audited",
                engine.tuples_seen()
            );
        }
    }
    // The checkpoint is audited too (phase "taken", absolute counters).
    let _ckpt = engine.checkpoint().expect("checkpoint");
    sink.lock().unwrap().flush();

    // 3. Replay the file. The contract: byte-identical snapshot and alert
    //    sequences, and the final counters recompute the live reading.
    let run = replay_file(trail_path).expect("replay audit trail");
    assert_eq!(
        run.snapshots, live_snapshots,
        "replayed snapshots must match the live run byte for byte"
    );
    assert_eq!(run.alerts, engine.alerts(), "replayed alerts must match");
    assert_eq!(
        FairnessSnapshot::from_data(run.snapshots.last().expect("non-empty run").clone()),
        engine.snapshot(),
        "the last replayed snapshot is the engine's current reading"
    );
    assert!(!run.alerts.is_empty(), "the injected drift must be audited");
    assert_eq!(run.retrains, engine.retrain_count());
    println!(
        "\nreplayed {} events -> {} snapshots, {} alerts, {} retrains: all byte-identical to the live run",
        run.events,
        run.snapshots.len(),
        run.alerts.len(),
        run.retrains,
    );

    // 4. Show the evidence: the first drift-alert line carries the full
    //    moved-cell explanation an auditor would read.
    let trail = std::fs::read_to_string(trail_path).expect("read trail");
    if let Some(line) = trail
        .lines()
        .find(|l| l.contains("\"event\":\"drift_alert\""))
    {
        println!("\nfirst alert on disk:\n  {line}");
    }

    // 5. And the live metrics, Prometheus text format (histogram buckets
    //    elided here; `render()` emits the full exposition).
    let metrics = engine.metrics().expect("metrics installed");
    println!(
        "\ningest latency: p50 {:.0}µs  p99 {:.0}µs over {} batches",
        metrics.ingest_latency_us.quantile(0.5).unwrap_or(0.0),
        metrics.ingest_latency_us.quantile(0.99).unwrap_or(0.0),
        metrics.ingest_batches.get(),
    );
    for line in registry
        .render()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("bucket"))
    {
        println!("  {line}");
    }
}
