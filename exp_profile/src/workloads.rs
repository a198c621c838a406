//! The four workloads: inputs made from the seed, the closed measuring loop,
//! and the checks every answer must pass.
//!
//! Every workload is a closed loop with one client: the next op starts when
//! the previous one returns. One untimed warm-up op runs first; then ops run
//! until `--seconds` of wall time have passed. The checks run outside the
//! timed calls.

use crate::layers::{self, Graph, GraphService, Round, Shadow, Source};
use crate::metrics::{self, EndToEnd, Metric, OpTrace};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use serde::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Untimed ops before the timed ones.
pub const WARMUP_OPS: usize = 1;
/// Timed ops a run makes even when `--seconds` has already passed.
pub const MIN_TIMED_OPS: usize = 3;
/// Worker threads the protocols run on. One keeps the timings steady on a
/// small shared host: with two, every parallel stage spawns workers onto both
/// of a 2-vCPU VM's cores and waits for the slower one, which roughly doubled
/// the run-to-run spread on `rmat-flat` and `churn-serve`.
pub const POOL_THREADS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Independent R-MAT inputs, flat composition: the coordinator's root
    /// solve is the largest step.
    RmatFlat,
    /// A larger R-MAT input streamed from an arena file, tree composition.
    RmatArenaTree,
    /// Uniform low-degree G(n, p), tree composition: builds and merges dominate.
    GnpTree,
    /// Dense G(n, p) under batched edge churn through the serving driver.
    ChurnServe,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::RmatFlat,
        Workload::RmatArenaTree,
        Workload::GnpTree,
        Workload::ChurnServe,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatFlat => "rmat-flat",
            Workload::RmatArenaTree => "rmat-arena-tree",
            Workload::GnpTree => "gnp-tree",
            Workload::ChurnServe => "churn-serve",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::TINY`] runs the
/// same code on small inputs for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// R-MAT scale of `rmat-flat`'s inputs (`n = 2^scale`).
    pub flat_scale: u32,
    /// Machines of `rmat-flat`.
    pub flat_k: usize,
    /// Independent inputs one `rmat-flat` op solves in turn.
    pub flat_inputs: usize,
    /// R-MAT scale of `rmat-arena-tree`.
    pub rmat_scale: u32,
    /// R-MAT edges per vertex, both R-MAT workloads.
    pub rmat_edge_factor: usize,
    /// Machines of `rmat-arena-tree`.
    pub rmat_k: usize,
    /// Vertices of `gnp-tree`.
    pub gnp_n: usize,
    /// Expected degree of `gnp-tree` (`p = degree / n`).
    pub gnp_degree: f64,
    /// Machines of `gnp-tree`.
    pub gnp_k: usize,
    /// Vertices of `churn-serve`.
    pub churn_n: usize,
    /// Edge probability of `churn-serve`.
    pub churn_p: f64,
    /// Machines of `churn-serve`.
    pub churn_k: usize,
    /// Batches generated for `churn-serve`; a run ends early if it uses them all.
    pub churn_batches: usize,
    /// Ops per churn batch.
    pub ops_per_batch: usize,
    /// Churn answers are checked against a from-scratch round every this many batches.
    pub check_every: usize,
    /// Fan-in of the tree workloads.
    pub fan_in: usize,
}

impl Sizes {
    /// The benchmark's inputs.
    pub const FULL: Sizes = Sizes {
        flat_scale: 13,
        flat_k: 32,
        flat_inputs: 24,
        rmat_scale: 17,
        rmat_edge_factor: 16,
        rmat_k: 64,
        gnp_n: 200_000,
        gnp_degree: 10.0,
        gnp_k: 32,
        churn_n: 4_000,
        churn_p: 0.1,
        churn_k: 64,
        churn_batches: 16_384,
        ops_per_batch: 4,
        check_every: 100,
        fan_in: 2,
    };

    /// Small inputs through the same code path.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        flat_scale: 10,
        flat_inputs: 2,
        rmat_scale: 10,
        gnp_n: 2_000,
        churn_n: 300,
        churn_batches: 20,
        check_every: 5,
        ..Sizes::FULL
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Wall time of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted (warm-up included).
    pub attempted: usize,
    /// Ops that errored or failed a check.
    pub failed: usize,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// The run record: host, seed, parameters, sample counts.
    pub record: Value,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Failed checks, by op.
#[derive(Debug, Default)]
struct Checks {
    failed_ops: BTreeSet<usize>,
    messages: Vec<String>,
}

impl Checks {
    fn fail(&mut self, op: usize, message: String) {
        self.failed_ops.insert(op);
        self.messages.push(format!("op {op}: {message}"));
    }

    fn check(&mut self, op: usize, ok: bool, what: &str) {
        if !ok {
            self.fail(op, what.to_string());
        }
    }
}

/// What a run measures: the timed ops, and the tracer of a traced run.
#[derive(Debug, Default)]
struct Recorder {
    tracer: Option<Tracer>,
    attempted: usize,
    op_ms: Vec<f64>,
    ops: Vec<OpTrace>,
    /// Resident-edge peak of the last driver call.
    peak: u64,
}

impl Recorder {
    fn new(trace: bool) -> Self {
        Recorder {
            tracer: trace.then(Tracer::new),
            ..Recorder::default()
        }
    }

    /// Times `driver` as op `i`; keeps its time if `i` is a timed op.
    fn time<T>(&mut self, i: usize, driver: impl FnOnce() -> T) -> (T, f64) {
        self.attempted += 1;
        let span = self.tracer.as_mut().map(|t| {
            t.set_op(i);
            layers::reset_peak_resident_edges();
            t.open("driver", None)
        });
        let t0 = Instant::now();
        let out = driver();
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.close(span, &[]);
            self.peak = layers::peak_resident_edges();
        }
        if i >= WARMUP_OPS {
            self.op_ms.push(elapsed);
        }
        (out, elapsed)
    }

    /// In a traced run, runs op `i`'s decomposition under an `op` span and
    /// keeps it if `i` is a timed op; does nothing in an untraced run.
    fn decompose(&mut self, i: usize, driver_ms: f64, run: impl FnOnce(&mut Tracer, usize)) {
        let Some(t) = self.tracer.as_mut() else {
            return;
        };
        let root = t.open("op", None);
        run(t, root);
        t.close(root, &[]);
        if i >= WARMUP_OPS {
            self.ops.push(OpTrace {
                op: i,
                root,
                driver_ns: (driver_ms * 1e6) as u64,
                peak_resident_edges: self.peak,
            });
        }
    }
}

/// Stream-specific seeds, so the graph, the protocol and the churn stream
/// draw independent randomness from one `--seed`.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GRAPH_STREAM: u64 = 1;
const PROTOCOL_STREAM: u64 = 2;
const CHURN_STREAM: u64 = 3;

/// Runs `reps` set-ups, keeping the last; returns it with each one's time.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first so only one is ever resident.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Runs the warm-up ops, then timed ops until `seconds` of wall time have
/// passed (and at least [`MIN_TIMED_OPS`]), stopping early after `max_ops`.
fn closed_loop(seconds: f64, max_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let mut i = 0;
    while i < WARMUP_OPS.min(max_ops) {
        op(i);
        i += 1;
    }
    let start = Instant::now();
    while i < max_ops && (i < WARMUP_OPS + MIN_TIMED_OPS || start.elapsed().as_secs_f64() < seconds)
    {
        op(i);
        i += 1;
    }
    i
}

/// Where the arena workload writes its file: the benchmark's own directory,
/// so a run writes nowhere outside its checkout. The file is removed when the
/// run's [`layers::ArenaInput`] drops.
fn arena_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("arena-{}-{id}.bin", std::process::id()))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs one workload and reports what it measured and checked. An `Err` is
/// a set-up failure: nothing was measured.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = vec![
        (
            "workload".to_string(),
            Value::Str(cfg.workload.name().into()),
        ),
        ("seed".into(), Value::UInt(cfg.seed)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("pool_threads".into(), Value::UInt(POOL_THREADS as u64)),
        ("trace".into(), Value::Bool(cfg.trace)),
        ("seconds".into(), Value::Float(cfg.seconds)),
        ("warmup_ops".into(), Value::UInt(WARMUP_OPS as u64)),
    ];
    let mut outcome = layers::with_pool(POOL_THREADS, || match cfg.workload {
        Workload::ChurnServe => run_churn(cfg, &mut record),
        _ => run_batch(cfg, &mut record),
    })?;
    outcome.record = Value::Map(record);
    Ok(outcome)
}

/// Summary of the timed ops plus, for a traced run, the tracing overhead.
fn timing_record(rec: &Recorder, metrics: &[Metric]) -> Vec<(String, Value)> {
    let s = summarize(if rec.op_ms.is_empty() {
        &[0.0]
    } else {
        &rec.op_ms
    });
    let mut out = vec![
        ("timed_ops".to_string(), Value::UInt(rec.op_ms.len() as u64)),
        (
            "op_ms".into(),
            Value::Map(vec![
                ("count".into(), Value::UInt(s.count as u64)),
                ("q1".into(), Value::Float(s.q1)),
                ("median".into(), Value::Float(s.median)),
                ("q3".into(), Value::Float(s.q3)),
                (
                    "tail_percentile".into(),
                    s.tail.map_or(Value::Null, |t| Value::Float(t.0)),
                ),
                (
                    "tail".into(),
                    s.tail.map_or(Value::Null, |t| Value::Float(t.1)),
                ),
            ]),
        ),
    ];
    let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if let (Some(traced), Some(driver)) = (value("trace.op_ms"), value("trace.driver_op_ms")) {
        out.push(("tracing_overhead_ms".into(), Value::Float(traced - driver)));
    }
    out
}

/// Assembles the outcome; `end_to_end` is `None` for a traced run.
fn finish(
    checks: Checks,
    rec: Recorder,
    end_to_end: Option<EndToEnd>,
    record: &mut Vec<(String, Value)>,
) -> Outcome {
    let metrics = match (&rec.tracer, end_to_end) {
        (Some(t), _) if !rec.ops.is_empty() => metrics::per_layer(t.spans(), &rec.ops),
        (_, Some(e)) => e.metrics(),
        _ => Vec::new(),
    };
    record.extend(timing_record(&rec, &metrics));
    record.push((
        "failures".into(),
        Value::Seq(
            checks
                .messages
                .iter()
                .map(|m| Value::Str(m.clone()))
                .collect(),
        ),
    ));
    Outcome {
        correct: checks.messages.is_empty() && !metrics.is_empty(),
        attempted: rec.attempted,
        failed: checks.failed_ops.len(),
        metrics,
        record: Value::Null,
        tracer: rec.tracer,
    }
}

/// The end-to-end metrics of an untraced run, or `None` for a traced one.
/// A missing peak RSS fails the run.
fn end_to_end(
    cfg: &RunConfig,
    checks: &mut Checks,
    rss: Option<f64>,
    fill: impl FnOnce(f64) -> EndToEnd,
) -> Option<EndToEnd> {
    if cfg.trace {
        return None;
    }
    if rss.is_none() {
        checks
            .messages
            .push("peak RSS (VmHWM) is unavailable".into());
    }
    Some(fill(rss.unwrap_or(0.0)))
}

/// Median of the samples, or 0 when there are none (the run then reports
/// `correct: false`).
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Timed ops per second of timed time.
fn throughput(op_ms: &[f64]) -> f64 {
    let total_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    if total_s > 0.0 {
        op_ms.len() as f64 / total_s
    } else {
        0.0
    }
}

/// The graph seed of a batch workload's input `j`; input 0 takes the
/// workload's graph seed itself.
fn input_seed(graph_seed: u64, j: usize) -> u64 {
    if j == 0 {
        graph_seed
    } else {
        derive_seed(graph_seed, j as u64)
    }
}

/// The three batch workloads: one op is a matching run then a vertex-cover
/// run over each of the workload's inputs in turn.
fn run_batch(cfg: &RunConfig, record: &mut Vec<(String, Value)>) -> Result<Outcome, String> {
    let s = cfg.sizes;
    let (graph_seed, protocol_seed) = (
        derive_seed(cfg.seed, GRAPH_STREAM),
        derive_seed(cfg.seed, PROTOCOL_STREAM),
    );
    let (k, fan_in, inputs) = match cfg.workload {
        Workload::RmatFlat => (s.flat_k, None, s.flat_inputs),
        Workload::GnpTree => (s.gnp_k, Some(s.fan_in), 1),
        _ => (s.rmat_k, Some(s.fan_in), 1),
    };
    let arena = cfg.workload == Workload::RmatArenaTree;
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let ((graphs, arenas), setup_times) = timed_setups(reps, || {
        let graphs: Vec<Graph> = (0..inputs)
            .map(|j| {
                let seed = input_seed(graph_seed, j);
                match cfg.workload {
                    Workload::RmatFlat => {
                        layers::rmat_graph(s.flat_scale, s.rmat_edge_factor, seed)
                    }
                    Workload::GnpTree => {
                        layers::gnp_graph(s.gnp_n, s.gnp_degree / s.gnp_n as f64, seed)
                    }
                    _ => layers::rmat_graph(s.rmat_scale, s.rmat_edge_factor, seed),
                }
            })
            .collect();
        let arenas = if arena {
            graphs
                .iter()
                .map(|g| layers::write_arena(g, k, protocol_seed, arena_path()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("writing the arena: {e}"))?
        } else {
            Vec::new()
        };
        Ok((graphs, arenas))
    })?;
    let memory: Vec<Source<'_>> = graphs
        .iter()
        .map(|g| Source::Memory { g, k, fan_in })
        .collect();
    let sources: Vec<Source<'_>> = if arena {
        arenas
            .iter()
            .map(|input| Source::Arena {
                arena: input,
                fan_in: s.fan_in,
            })
            .collect()
    } else {
        memory.clone()
    };
    record.extend([
        ("protocol_seed".to_string(), Value::UInt(protocol_seed)),
        ("setup_reps".into(), Value::UInt(reps as u64)),
        (
            "setup_s".into(),
            Value::Seq(setup_times.iter().map(|&t| Value::Float(t)).collect()),
        ),
        (
            "params".into(),
            Value::Map(vec![
                ("inputs".into(), Value::UInt(inputs as u64)),
                ("n".into(), Value::UInt(graphs[0].n() as u64)),
                (
                    "m".into(),
                    Value::Seq(graphs.iter().map(|g| Value::UInt(g.m() as u64)).collect()),
                ),
                ("k".into(), Value::UInt(k as u64)),
                (
                    "fan_in".into(),
                    fan_in.map_or(Value::Null, |f| Value::UInt(f as u64)),
                ),
            ]),
        ),
    ]);

    let mut checks = Checks::default();
    // Every round must repeat the first; the checks that allocate run after
    // the loop, once the peak RSS has been read.
    let mut expected: Option<Vec<Round>> = None;
    let mut rec = Recorder::new(cfg.trace);
    closed_loop(cfg.seconds, usize::MAX, |i| {
        let (result, elapsed) = rec.time(i, || {
            sources
                .iter()
                .map(|&source| layers::driver_round(source, protocol_seed))
                .collect::<Result<Vec<Round>, _>>()
        });
        let rounds = match result {
            Ok(rounds) => rounds,
            Err(e) => return checks.fail(i, e.to_string()),
        };
        match &expected {
            Some(e) => checks.check(i, *e == rounds, "answers differ from the first round"),
            None => expected = Some(rounds.clone()),
        }
        rec.decompose(i, elapsed, |t, root| {
            for (&source, round) in sources.iter().zip(&rounds) {
                match layers::traced_round(source, protocol_seed, t, root) {
                    Ok((m, c)) => checks.check(
                        i,
                        m == round.matching && c == round.cover,
                        "decomposed answers differ from the driver's",
                    ),
                    Err(e) => checks.fail(i, format!("decomposed run: {e}")),
                }
            }
        });
    });
    let rss = peak_rss_mib();
    for (j, (g, first)) in graphs.iter().zip(expected.iter().flatten()).enumerate() {
        checks.check(
            0,
            layers::matching_is_valid(&first.matching, g),
            "matching is not a matching of the input",
        );
        checks.check(
            0,
            layers::cover_is_valid(&first.cover, g),
            "cover misses an edge of the input",
        );
        // The arena answers must equal an in-memory tree run over the same
        // partition.
        if arena {
            match layers::driver_round(memory[j], protocol_seed) {
                Ok(reference) => checks.check(
                    0,
                    reference == *first,
                    "arena answers differ from the in-memory tree run",
                ),
                Err(e) => checks.fail(0, format!("in-memory reference run: {e}")),
            }
        }
    }
    let e2e = end_to_end(cfg, &mut checks, rss, |peak_rss_mb| {
        let rounds = expected.as_deref().unwrap_or_default();
        EndToEnd {
            op_ms: median_or_zero(&rec.op_ms),
            ops_per_s: throughput(&rec.op_ms),
            setup_s: median(&setup_times),
            peak_rss_mb,
            matching_size: rounds.iter().map(|r| r.matching.len()).sum::<usize>() as f64,
            cover_size: rounds.iter().map(|r| r.cover.len()).sum::<usize>() as f64,
            comm_words: rounds.iter().map(|r| r.comm_words).sum::<u64>() as f64,
        }
    });
    Ok(finish(checks, rec, e2e, record))
}

/// Checks the service's answers against a from-scratch round on its current
/// graph.
fn check_against_naive(svc: &GraphService, op: usize, checks: &mut Checks) {
    match layers::naive_round(svc) {
        Ok((g, m, c)) => {
            let (sm, sc) = layers::service_answers(svc);
            checks.check(
                op,
                *sm == m && *sc == c,
                "service answers differ from a from-scratch round",
            );
            checks.check(
                op,
                layers::matching_is_valid(sm, &g),
                "matching is not a matching of the current graph",
            );
            checks.check(
                op,
                layers::cover_is_valid(sc, &g),
                "cover misses an edge of the current graph",
            );
        }
        Err(e) => checks.fail(op, format!("from-scratch round: {e}")),
    }
}

/// `churn-serve`: one op is one `apply_batch`.
fn run_churn(cfg: &RunConfig, record: &mut Vec<(String, Value)>) -> Result<Outcome, String> {
    let s = cfg.sizes;
    let (graph_seed, protocol_seed, churn_seed) = (
        derive_seed(cfg.seed, GRAPH_STREAM),
        derive_seed(cfg.seed, PROTOCOL_STREAM),
        derive_seed(cfg.seed, CHURN_STREAM),
    );
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let ((g, mut svc, stream), setup_times) = timed_setups(reps, || {
        let g: Graph = layers::gnp_graph(s.churn_n, s.churn_p, graph_seed);
        let svc = layers::new_service(&g, s.churn_k, protocol_seed)
            .map_err(|e| format!("starting the service: {e}"))?;
        let stream = layers::churn_stream(&g, s.churn_batches, s.ops_per_batch, churn_seed);
        Ok((g, svc, stream))
    })?;
    let mut shadow = if cfg.trace {
        Some(
            Shadow::new(&g, s.churn_k, protocol_seed)
                .map_err(|e| format!("starting the shadow: {e}"))?,
        )
    } else {
        None
    };
    record.extend([
        ("protocol_seed".to_string(), Value::UInt(protocol_seed)),
        ("setup_reps".into(), Value::UInt(reps as u64)),
        (
            "setup_s".into(),
            Value::Seq(setup_times.iter().map(|&t| Value::Float(t)).collect()),
        ),
        (
            "params".into(),
            Value::Map(vec![
                ("n".into(), Value::UInt(g.n() as u64)),
                ("m".into(), Value::UInt(g.m() as u64)),
                ("k".into(), Value::UInt(s.churn_k as u64)),
                ("ops_per_batch".into(), Value::UInt(s.ops_per_batch as u64)),
                ("batches_generated".into(), Value::UInt(stream.len() as u64)),
                ("check_every".into(), Value::UInt(s.check_every as u64)),
            ]),
        ),
    ]);
    drop(g);

    let mut checks = Checks::default();
    let mut rec = Recorder::new(cfg.trace);
    let (mut matching_sizes, mut cover_sizes) = (Vec::new(), Vec::new());
    let mut comm_words = 0u64;
    let mut last_checked = None;
    // Read before the first from-scratch check, which allocates a second copy
    // of the graph.
    let mut rss = None;
    let ran = closed_loop(cfg.seconds, stream.len(), |i| {
        let ops = &stream[i];
        let (result, elapsed) = rec.time(i, || layers::apply_batch(&mut svc, ops));
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => return checks.fail(i, e.to_string()),
        };
        checks.check(
            i,
            outcome.applied == ops.len(),
            "an op of the batch did not change the graph",
        );
        rec.decompose(i, elapsed, |t, root| {
            let sh = shadow.as_mut().expect("a traced run has a shadow");
            match sh.apply_batch(ops, t, root) {
                Ok(b) => {
                    let (sm, sc) = layers::service_answers(&svc);
                    checks.check(
                        i,
                        b.matching == *sm
                            && b.cover == *sc
                            && b.approx_matching_size == outcome.approx_matching_size
                            && sh.matching_cache_stats() == layers::service_cache_stats(&svc),
                        "decomposed batch differs from the service's",
                    );
                }
                Err(e) => checks.fail(i, format!("decomposed batch: {e}")),
            }
        });
        if i + 1 == WARMUP_OPS && !cfg.trace {
            comm_words = layers::service_round_words(&svc);
        }
        if (i + 1) % s.check_every == 0 {
            rss.get_or_insert_with(peak_rss_mib);
            check_against_naive(&svc, i, &mut checks);
            last_checked = Some(i);
        }
        if i >= WARMUP_OPS {
            matching_sizes.push(outcome.matching_size as f64);
            cover_sizes.push(outcome.cover_size as f64);
        }
    });
    let rss = rss.unwrap_or_else(peak_rss_mib);
    if ran > 0 && last_checked != Some(ran - 1) {
        check_against_naive(&svc, ran - 1, &mut checks);
    }
    record.push(("batches_run".into(), Value::UInt(ran as u64)));
    let e2e = end_to_end(cfg, &mut checks, rss, |peak_rss_mb| EndToEnd {
        op_ms: median_or_zero(&rec.op_ms),
        ops_per_s: throughput(&rec.op_ms),
        setup_s: median(&setup_times),
        peak_rss_mb,
        matching_size: median_or_zero(&matching_sizes),
        cover_size: median_or_zero(&cover_sizes),
        comm_words: comm_words as f64,
    });
    Ok(finish(checks, rec, e2e, record))
}
