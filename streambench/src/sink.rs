//! Telemetry sinks for the instrumented workload: an in-memory JSONL
//! trail and a timing wrapper that records each `emit` as a span.

use crate::trace::Tracer;
use cf_telemetry::{EventSink, TelemetryEvent};

/// A JSONL audit trail kept in memory: each event is encoded with
/// `serde_json::to_string`, exactly as `JsonlSink` encodes it, and
/// appended as one line. There is no disk, so the benchmark measures the
/// engine's telemetry cost rather than the file system's.
#[derive(Debug, Default)]
pub struct MemoryJsonl {
    /// The trail so far, one event per line.
    pub text: String,
    /// Events that failed to encode (never expected).
    pub encode_errors: u64,
}

impl EventSink for MemoryJsonl {
    fn emit(&mut self, event: &TelemetryEvent) {
        match serde_json::to_string(event) {
            Ok(line) => {
                self.text.push_str(&line);
                self.text.push('\n');
            }
            Err(_) => self.encode_errors += 1,
        }
    }
}

/// Wraps a sink so that every `emit` is a `telemetry.emit` span; with no
/// tracer it forwards untouched.
#[derive(Debug)]
pub struct Timed<S> {
    /// The wrapped sink.
    pub inner: S,
    tracer: Option<Tracer>,
}

impl<S> Timed<S> {
    /// Wrap `inner`, recording into `tracer` when there is one.
    pub fn new(inner: S, tracer: Option<Tracer>) -> Self {
        Timed { inner, tracer }
    }
}

impl<S: EventSink> EventSink for Timed<S> {
    fn emit(&mut self, event: &TelemetryEvent) {
        let inner = &mut self.inner;
        crate::trace::span(self.tracer.as_ref(), "telemetry.emit", || inner.emit(event));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}
