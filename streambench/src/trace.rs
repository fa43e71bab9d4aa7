//! An in-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span (name, start, end, parent, batch id). Spans stay in memory
//! and are written out once the run ends. A layer's *self time* is its
//! span's duration minus the part its child spans cover; because every
//! span is recorded on the one caller thread, children are sequential and
//! nested inside their parent, so the covered part is the sum of the
//! children's durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `scorer.score`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The batch being served when the span opened.
    pub batch: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations minus the parts child spans cover, in ns.
    pub self_ns: u64,
}

/// The span store: a flat list plus the stack of open spans.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }
}

impl SpanRecorder {
    /// Open a span at `at_ns`; its parent is the innermost open span.
    pub fn enter_at(&mut self, name: &'static str, at_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: at_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` at `at_ns`.
    ///
    /// # Panics
    /// When `id` is not the innermost open span: spans on one thread nest
    /// strictly, so anything else is a bug in the caller.
    pub fn exit_at(&mut self, id: usize, at_ns: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = at_ns;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Call counts and self times per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Summed durations of the top-level spans whose name `keep` accepts.
    pub fn root_ns(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && keep(s.name))
            .map(Span::duration_ns)
            .sum()
    }

    /// Write every span as one tab-separated line:
    /// `name start_ns end_ns parent batch` (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tbatch")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.batch
            )?;
        }
        Ok(())
    }
}

/// A shareable handle on one recorder: the serving loop and the timing
/// sink wrapper (which the engine calls from inside `ingest`) record into
/// the same span tree.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Arc<Mutex<SpanRecorder>>);

impl Tracer {
    fn recorder(&self) -> std::sync::MutexGuard<'_, SpanRecorder> {
        self.0
            .lock()
            .expect("span recorder lock poisoned by a panicked caller")
    }

    /// Run `f` inside a span named `name`. The lock is not held while `f`
    /// runs, so `f` may open spans of its own.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut rec = self.recorder();
            let now = rec.now_ns();
            rec.enter_at(name, now)
        };
        let out = f();
        let mut rec = self.recorder();
        let now = rec.now_ns();
        rec.exit_at(id, now);
        out
    }

    /// Tag spans opened from now on with `batch`.
    pub fn set_batch(&self, batch: u64) {
        self.recorder().batch = batch;
    }

    /// Read the recorder (summaries, output).
    pub fn with<R>(&self, f: impl FnOnce(&SpanRecorder) -> R) -> R {
        f(&self.recorder())
    }
}

/// [`Tracer::span`] when tracing is on, a plain call when it is off.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut rec = SpanRecorder::default();
        // ingest [0, 100) holds emit [10, 30) and emit [50, 60);
        // the second emit holds encode [52, 58).
        let ingest = rec.enter_at("ingest", 0);
        let e1 = rec.enter_at("emit", 10);
        rec.exit_at(e1, 30);
        let e2 = rec.enter_at("emit", 50);
        let enc = rec.enter_at("encode", 52);
        rec.exit_at(enc, 58);
        rec.exit_at(e2, 60);
        rec.exit_at(ingest, 100);
        let side = rec.enter_at("side", 100);
        rec.exit_at(side, 105);

        let s = rec.summary();
        assert_eq!(
            s["ingest"],
            LayerTime {
                calls: 1,
                self_ns: 70
            }
        );
        assert_eq!(
            s["emit"],
            LayerTime {
                calls: 2,
                self_ns: 24
            }
        );
        assert_eq!(s["encode"].self_ns, 6);
        // Self times partition the root spans' wall exactly.
        let self_sum: u64 = s.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, rec.root_ns(|_| true));
        assert_eq!(rec.root_ns(|name| name != "side"), 100);
        assert_eq!(rec.spans()[enc].parent, Some(e2));
        assert_eq!(rec.spans()[ingest].parent, None);
    }

    #[test]
    fn tracer_nests_calls_made_inside_a_span() {
        let tracer = Tracer::default();
        tracer.set_batch(7);
        let inner_tracer = tracer.clone();
        let value = tracer.span("outer", || inner_tracer.span("inner", || 41) + 1);
        assert_eq!(value, 42);
        tracer.with(|rec| {
            let spans = rec.spans();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[1].parent, Some(0));
            assert!(spans.iter().all(|s| s.batch == 7));
            assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        });
        let mut tsv = Vec::new();
        tracer.with(|rec| rec.write_tsv(&mut tsv)).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = SpanRecorder::default();
        let outer = rec.enter_at("outer", 0);
        let _inner = rec.enter_at("inner", 1);
        rec.exit_at(outer, 2);
    }
}
