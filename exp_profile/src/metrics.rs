//! The metrics the benchmark prints: their names, units, and how each is
//! computed. `BENCHMARK.json` declares the same names and units; the contract
//! test keeps the two equal.

use crate::layers::message_words;
use crate::stats::median;
use crate::trace::Span;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The end-to-end values of one untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median wall time of one op.
    pub op_ms: f64,
    /// Timed ops per second of timed wall time.
    pub ops_per_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident set size of the process.
    pub peak_rss_mb: f64,
    /// Size of the protocol's matching.
    pub matching_size: f64,
    /// Size of the protocol's vertex cover.
    pub cover_size: f64,
    /// Words of one round's machine messages.
    pub comm_words: f64,
}

impl EndToEnd {
    /// The metrics in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("op_ms", "ms", self.op_ms),
            m("ops_per_s", "1/s", self.ops_per_s),
            m("setup_s", "s", self.setup_s),
            m("peak_rss_mb", "MiB", self.peak_rss_mb),
            m("matching_size", "edges", self.matching_size),
            m("cover_size", "vertices", self.cover_size),
            m("comm_words", "words", self.comm_words),
        ]
    }
}

/// What the traced run knows about one timed op beyond its spans.
#[derive(Debug, Clone, Copy)]
pub struct OpTrace {
    /// The op index the spans carry.
    pub op: usize,
    /// Index of the op's root span (the decomposed run).
    pub root: usize,
    /// Wall time of the driver call for the same op.
    pub driver_ns: u64,
    /// Resident-edge high-water mark during the driver call.
    pub peak_resident_edges: u64,
}

const NS_PER_MS: f64 = 1e6;

fn sum_ns(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .sum::<f64>()
        / NS_PER_MS
}

fn max_ns(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns())
        .max()
        .unwrap_or(0) as f64
        / NS_PER_MS
}

fn sum_count(spans: &[&Span], name: &str, key: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count(key))
        .sum::<u64>() as f64
}

/// The per-layer metrics of one op, in declaration order.
fn op_layers(op: &OpTrace, spans: &[&Span]) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    let machines = ["build_matching.machine", "build_vc.machine"];
    let merges = ["compose_matching.merge", "compose_vc.merge"];
    let messages: Vec<u64> = spans
        .iter()
        .filter(|s| machines.contains(&s.name))
        .map(|s| message_words(s.count("edges_out"), s.count("vertices_out")))
        .collect();
    let top_level_ms = spans
        .iter()
        .filter(|s| s.parent == Some(op.root))
        .map(|s| s.ns() as f64)
        .sum::<f64>()
        / NS_PER_MS;
    let op_ms = sum_ns(spans, "op");
    let (hits, misses) = (
        sum_count(spans, "cache", "hits"),
        sum_count(spans, "cache", "misses"),
    );
    vec![
        m("trace.driver_op_ms", "ms", op.driver_ns as f64 / NS_PER_MS),
        m("trace.op_ms", "ms", op_ms),
        m("trace.unattributed_ms", "ms", op_ms - top_level_ms),
        m("ingest_ms", "ms", sum_ns(spans, "ingest")),
        m(
            "coresets.build_matching.wall_ms",
            "ms",
            sum_ns(spans, "build_matching"),
        ),
        m(
            "coresets.build_matching.busy_ms",
            "ms",
            sum_ns(spans, machines[0]),
        ),
        m(
            "coresets.build_matching.max_machine_ms",
            "ms",
            max_ns(spans, machines[0]),
        ),
        m("coresets.build_vc.wall_ms", "ms", sum_ns(spans, "build_vc")),
        m(
            "coresets.build_vc.busy_ms",
            "ms",
            sum_ns(spans, machines[1]),
        ),
        m(
            "coresets.build_vc.max_machine_ms",
            "ms",
            max_ns(spans, machines[1]),
        ),
        m(
            "coresets.compose_matching.ms",
            "ms",
            sum_ns(spans, "compose_matching"),
        ),
        m(
            "coresets.compose_matching.root_ms",
            "ms",
            sum_ns(spans, "compose_matching.root"),
        ),
        m("coresets.compose_vc.ms", "ms", sum_ns(spans, "compose_vc")),
        m(
            "coresets.compose_vc.root_ms",
            "ms",
            sum_ns(spans, "compose_vc.root"),
        ),
        m(
            "graph.partition.edges",
            "edges",
            sum_count(spans, "ingest", "partition_edges"),
        ),
        m(
            "graph.arena_file.bytes_decoded",
            "bytes",
            sum_count(spans, "ingest", "arena_bytes"),
        ),
        m("graph.churn.dirty_machines", "machines", misses),
        m(
            "graph.metrics.peak_resident_edges",
            "edges",
            op.peak_resident_edges as f64,
        ),
        m(
            "coresets.build_matching.edges_in",
            "edges",
            sum_count(spans, machines[0], "edges_in"),
        ),
        m(
            "coresets.build_matching.edges_out",
            "edges",
            sum_count(spans, machines[0], "edges_out"),
        ),
        m(
            "coresets.build_vc.edges_in",
            "edges",
            sum_count(spans, machines[1], "edges_in"),
        ),
        m(
            "coresets.build_vc.residual_edges_out",
            "edges",
            sum_count(spans, machines[1], "edges_out"),
        ),
        m(
            "coresets.build_vc.fixed_vertices_out",
            "vertices",
            sum_count(spans, machines[1], "vertices_out"),
        ),
        m(
            "coresets.tree.merge_edges_in",
            "edges",
            merges.iter().map(|n| sum_count(spans, n, "edges_in")).sum(),
        ),
        m(
            "coresets.tree.merge_edges_out",
            "edges",
            merges
                .iter()
                .map(|n| sum_count(spans, n, "edges_out"))
                .sum(),
        ),
        m(
            "coresets.compose.matching_edges_in",
            "edges",
            sum_count(spans, "compose_matching.root", "edges_in"),
        ),
        m(
            "coresets.compose.vc_edges_in",
            "edges",
            sum_count(spans, "compose_vc.root", "edges_in"),
        ),
        m(
            "coresets.cache.hit_ratio",
            "ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        m(
            "distsim.comm.words",
            "words",
            messages.iter().sum::<u64>() as f64,
        ),
        m(
            "distsim.comm.max_message_words",
            "words",
            messages.iter().copied().max().unwrap_or(0) as f64,
        ),
    ]
}

/// Per-layer metrics: each is the median over the timed ops of its per-op
/// value. `spans` is every span of the run; `ops` lists the timed ops.
///
/// # Panics
///
/// Panics if `ops` is empty.
pub fn per_layer(spans: &[Span], ops: &[OpTrace]) -> Vec<Metric> {
    let mut by_op: Vec<Vec<&Span>> = Vec::new();
    for s in spans {
        if by_op.len() <= s.op {
            by_op.resize_with(s.op + 1, Vec::new);
        }
        by_op[s.op].push(s);
    }
    let rows: Vec<Vec<Metric>> = ops.iter().map(|op| op_layers(op, &by_op[op.op])).collect();
    (0..rows[0].len())
        .map(|col| {
            let values: Vec<f64> = rows.iter().map(|row| row[col].value).collect();
            Metric {
                value: median(&values),
                ..rows[0][col].clone()
            }
        })
        .collect()
}
