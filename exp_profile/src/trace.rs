//! In-memory span recorder for the traced run.
//!
//! A span is one call across a layer boundary: its name, the op it belongs
//! to, the span that caused it, start and end in nanoseconds since the
//! tracer's origin, and the work counts measured at that boundary. Spans stay
//! in memory; the per-layer metrics are computed from them, and
//! `--trace-out` writes them out when the run ends.

use serde::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `build_matching.machine`.
    pub name: &'static str,
    /// Index of the op (round or batch) the span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Work counts measured at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The named count, or 0 when the span carries none.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Records spans against one origin instant.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// The origin, for timing work on other threads with [`Tracer::ns_since`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds from `origin` to now.
    pub fn ns_since(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Starts attributing new spans to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Self::ns_since(self.origin);
        self.record(name, parent, now, now)
    }

    /// Closes span `id` now, attaching `counts`.
    pub fn close(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        let span = &mut self.spans[id];
        span.end_ns = Self::ns_since(self.origin);
        span.counts.extend_from_slice(counts);
    }

    /// Records a span timed elsewhere (e.g. on a pool worker).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Adds counts to span `id`.
    pub fn count(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        self.spans[id].counts.extend_from_slice(counts);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON-ready value.
    pub fn to_value(&self) -> Value {
        let num = |v: u64| Value::UInt(v);
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("op".into(), num(s.op as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| num(p as u64)),
                        ),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                        (
                            "counts".into(),
                            Value::Map(
                                s.counts
                                    .iter()
                                    .map(|&(k, v)| (k.to_string(), num(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
