//! Host-time spans around each layer call the benchmark makes.
//!
//! Spans live in memory and are written once, when the run ends. With
//! tracing off the tracer keeps nothing: [`Tracer::time`] still returns
//! the call's duration, because the end-to-end metrics need it, but no
//! span is stored.

use crate::json::Json;
use std::time::Instant;

/// The layers the benchmark attributes host time to, named after the
/// crates that implement them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own op and phase spans.
    Bench,
    /// grt-core session/drivershim/client/memsync, grt-net, grt-compress,
    /// grt-driver, grt-runtime, grt-ml.
    Record,
    /// grt-core recording verify/parse and `compiled`, grt-ir, grt-lint.
    Vet,
    /// grt-core replay/service on grt-tee, grt-gpu.
    Replay,
    /// grt-attest.
    Attest,
    /// grt-serve.
    Serve,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Record => "record",
            Layer::Vet => "vet",
            Layer::Replay => "replay",
            Layer::Attest => "attest",
            Layer::Serve => "serve",
        }
    }
}

/// One timed call: `[start_ns, end_ns)` since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Sub-key within `name`, e.g. the network a replay ran ("" if none).
    pub tag: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The op (or set-up step) this span belongs to.
    pub op: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; a no-op store when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// host duration in seconds.
    pub fn time<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        self.time_tagged(layer, name, "", f)
    }

    /// [`Tracer::time`] with a sub-key recorded on the span.
    pub fn time_tagged<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                tag,
                layer,
                start_ns: self.since_origin(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.stack.pop();
            self.spans[i].end_ns = self.since_origin(end);
        }
        (out, (end - start).as_secs_f64())
    }

    fn since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// All spans as a JSON array (the trace file's body).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name)
                        .with("tag", s.tag)
                        .with("layer", s.layer.name())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("op", s.op.map_or(Json::Null, Json::from))
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of it its direct
/// children cover. Children may overlap each other, so the union of
/// their intervals (clipped to the parent) is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            kids[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            tag: "",
            layer: Layer::Bench,
            start_ns,
            end_ns,
            parent,
            op: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            // Two children overlapping on [20, 30): they cover [10, 40).
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            // A child nested inside a covered child changes nothing.
            span(12, 14, Some(1)),
            // A disjoint child covering [60, 70).
            span(60, 70, Some(0)),
            // A child reaching past its parent is clipped to [90, 100).
            span(90, 120, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 30 - 10 - 10);
        assert_eq!(own[1], 20 - 2);
        assert_eq!(own[4], 10);
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time(Layer::Replay, "replay.run", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent_and_op() {
        let mut t = Tracer::new(true);
        t.set_op(Some(3));
        t.time(Layer::Bench, "op", |t| {
            t.time(Layer::Replay, "replay.run", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, Some(3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(self_times_ns(s)[0] <= s[0].duration_ns());
    }
}
