//! Every call the benchmark makes into the repository's crates.
//!
//! Keeping the library boundary in one module means a refactor of the
//! protocol drivers has to update only this file, and every traced span sits
//! at the same boundary. The `traced_*` functions re-execute each driver step
//! by step through the same public calls and the same RNG derivations
//! (`seed_from_u64(seed)` for the partition, `machine_rng(seed, i)` per
//! machine, `node_rng(seed, level, node)` inside the tree merges), so their
//! answers must be bit-identical to the driver's; the caller checks that.

use crate::trace::Tracer;
use coresets::{
    compose_vertex_cover_refs, machine_jobs, machine_rng, merge_matching_coresets,
    merge_vc_coresets, reduce_levels, solve_composed_matching_refs, CoresetCache, CoresetCacheKey,
    CoresetParams, MatchingCoresetBuilder, MaximumMatchingCoreset, PeelingVcCoreset, TreeFolder,
    VcCoresetBuilder, VcCoresetOutput,
};
use distsim::{
    naive_full_round, ArenaProtocol, BatchOutcome, CommunicationCost, CoordinatorProtocol,
    CostModel, GraphServiceConfig, ProtocolError, SimultaneousRun,
};
use dynamic::DynamicCover;
use graph::arena_file::{write_arena_file, ArenaFile, SegmentLoader};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{metrics, ChurnOp, ChurnPartition, Edge, GraphError, GraphView};
use matching::{Matching, MaximumMatchingAlgorithm};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::hash_map::{Entry, HashMap};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use vertexcover::VertexCover;

pub use distsim::GraphService;
pub use graph::Graph;

/// Bytes per edge record in an RCARENA2 segment (two little-endian `u32`s).
const ARENA_RECORD_BYTES: u64 = 8;

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// An R-MAT graph with the Graph500 quadrant probabilities.
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    graph::gen::rmat_graph500(scale, edge_factor, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// An Erdős–Rényi `G(n, p)` graph.
pub fn gnp_graph(n: usize, p: f64, seed: u64) -> Graph {
    graph::gen::gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// An opened arena file that is deleted when dropped.
#[derive(Debug)]
pub struct ArenaInput {
    file: ArenaFile,
    path: PathBuf,
}

impl Drop for ArenaInput {
    fn drop(&mut self) {
        // Best effort: a leftover file only costs disk space.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes `g`'s random `k`-way partition, drawn exactly as
/// `CoordinatorProtocol::run_matching` draws it for `protocol_seed`, to an
/// RCARENA2 file at `path` and opens it.
pub fn write_arena(
    g: &Graph,
    k: usize,
    protocol_seed: u64,
    path: PathBuf,
) -> Result<ArenaInput, GraphError> {
    let mut rng = ChaCha8Rng::seed_from_u64(protocol_seed);
    let partition = PartitionedGraph::new(g, k, PartitionStrategy::Random, &mut rng)?;
    match write_arena_file(&path, &partition).and_then(|()| ArenaFile::open(&path)) {
        Ok(file) => Ok(ArenaInput { file, path }),
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            Err(e)
        }
    }
}

/// `batches` batches of `ops_per_batch` churn ops against `g`, drawn from a
/// mirror of the evolving edge set: even-indexed ops delete a present edge and
/// odd-indexed ops insert an absent one, so every op changes the graph.
///
/// # Panics
///
/// Panics if `g` has fewer than two vertices.
pub fn churn_stream(
    g: &Graph,
    batches: usize,
    ops_per_batch: usize,
    seed: u64,
) -> Vec<Vec<ChurnOp>> {
    assert!(g.n() >= 2, "churn needs at least two vertices");
    let n = g.n() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges: Vec<Edge> = g.edges().to_vec();
    // Membership and position only; iteration order is never observed.
    let mut index: HashMap<Edge, usize> = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let mut next_op = |j: usize| -> ChurnOp {
        if j.is_multiple_of(2) && !edges.is_empty() {
            let i = rng.gen_range(0..edges.len());
            let e = edges.swap_remove(i);
            index.remove(&e);
            if let Some(&moved) = edges.get(i) {
                index.insert(moved, i);
            }
            return ChurnOp::Delete(e);
        }
        loop {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            let e = Edge::new(u, v);
            if let Entry::Vacant(slot) = index.entry(e) {
                slot.insert(edges.len());
                edges.push(e);
                return ChurnOp::Insert(e);
            }
        }
    };
    (0..batches)
        .map(|_| (0..ops_per_batch).map(&mut next_op).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Batch protocol runs.
// ---------------------------------------------------------------------------

/// Where a batch workload's protocol reads its edges from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// `CoordinatorProtocol` over an in-memory graph: flat composition
    /// without a fan-in, tree composition with one.
    Memory {
        /// The input graph.
        g: &'a Graph,
        /// Number of machines.
        k: usize,
        /// Tree fan-in, or `None` for flat composition.
        fan_in: Option<usize>,
    },
    /// `ArenaProtocol::tree` over an on-disk arena.
    Arena {
        /// The opened arena file.
        arena: &'a ArenaInput,
        /// Tree fan-in.
        fan_in: usize,
    },
}

/// One matching run plus one vertex-cover run, as the driver reports them.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// The coordinator's matching.
    pub matching: Matching,
    /// The coordinator's vertex cover.
    pub cover: VertexCover,
    /// Words of every machine message of both runs.
    pub comm_words: u64,
}

impl Round {
    fn new(m: SimultaneousRun<Matching>, c: SimultaneousRun<VertexCover>) -> Self {
        Round {
            comm_words: m.communication.total_words() + c.communication.total_words(),
            matching: m.answer,
            cover: c.answer,
        }
    }
}

fn coordinator(k: usize, fan_in: Option<usize>) -> CoordinatorProtocol {
    match fan_in {
        None => CoordinatorProtocol::random(k),
        Some(f) => CoordinatorProtocol::tree(k, f),
    }
}

/// The driver op of the batch workloads: `run_matching` then
/// `run_vertex_cover` on the same input and protocol seed.
pub fn driver_round(source: Source<'_>, seed: u64) -> Result<Round, ProtocolError> {
    let (mb, vb) = (MaximumMatchingCoreset::new(), PeelingVcCoreset::new());
    match source {
        Source::Memory { g, k, fan_in } => {
            let p = coordinator(k, fan_in);
            Ok(Round::new(
                p.run_matching(g, &mb, seed)?,
                p.run_vertex_cover(g, &vb, seed)?,
            ))
        }
        Source::Arena { arena, fan_in } => {
            let p = ArenaProtocol::tree(fan_in);
            Ok(Round::new(
                p.run_matching(&arena.file, &mb, seed)?,
                p.run_vertex_cover(&arena.file, &vb, seed)?,
            ))
        }
    }
}

/// Words a message of `edges` edges and `vertices` vertex ids costs in the
/// simulator's cost model (which does not depend on `n`).
pub fn message_words(edges: u64, vertices: u64) -> u64 {
    CostModel::for_n(2).words(edges as usize, vertices as usize)
}

/// Runs `f` with parallel iterators pinned to `threads` workers.
pub fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool builder is infallible")
        .install(f)
}

/// Resets the process-wide resident-edge high-water mark.
pub fn reset_peak_resident_edges() {
    metrics::reset_peak_resident_edges();
}

/// The resident-edge high-water mark since the last reset.
pub fn peak_resident_edges() -> u64 {
    metrics::peak_resident_edges()
}

/// Whether `m` is a matching of `g`.
pub fn matching_is_valid(m: &Matching, g: &Graph) -> bool {
    m.is_valid_for(g)
}

/// Whether `c` covers every edge of `g`.
pub fn cover_is_valid(c: &VertexCover, g: &Graph) -> bool {
    c.covers(g)
}

// ---------------------------------------------------------------------------
// The two problems, for the decomposed (traced) runs.
// ---------------------------------------------------------------------------

/// Span names of one problem's layers.
struct Names {
    build: &'static str,
    machine: &'static str,
    compose: &'static str,
    merge: &'static str,
    root: &'static str,
}

/// What the decomposed runs need to know about a problem: the paper's
/// builder, its tree merge, its coordinator composition, and its message
/// size.
trait Problem: Sync {
    type Summary: Send + Sync;
    type Answer;
    const NAMES: Names;
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self::Summary;
    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<Self::Summary>,
    ) -> Self::Summary;
    fn compose(&self, roots: &[&Self::Summary]) -> Self::Answer;
    /// `(edges, vertex ids)` the summary sends as a message.
    fn size(summary: &Self::Summary) -> (usize, usize);
}

struct MatchingProblem;

impl Problem for MatchingProblem {
    type Summary = Graph;
    type Answer = Matching;
    const NAMES: Names = Names {
        build: "build_matching",
        machine: "build_matching.machine",
        compose: "compose_matching",
        merge: "compose_matching.merge",
        root: "compose_matching.root",
    };
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        MaximumMatchingCoreset::new().build(piece, params, machine, rng)
    }
    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<Graph>,
    ) -> Graph {
        let builder = MaximumMatchingCoreset::new();
        merge_matching_coresets(n, params, &builder, seed, level, node, &group)
    }
    fn compose(&self, roots: &[&Graph]) -> Matching {
        solve_composed_matching_refs(roots, MaximumMatchingAlgorithm::Auto)
    }
    fn size(summary: &Graph) -> (usize, usize) {
        (summary.m(), 0)
    }
}

struct VcProblem;

impl Problem for VcProblem {
    type Summary = VcCoresetOutput;
    type Answer = VertexCover;
    const NAMES: Names = Names {
        build: "build_vc",
        machine: "build_vc.machine",
        compose: "compose_vc",
        merge: "compose_vc.merge",
        root: "compose_vc.root",
    };
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        PeelingVcCoreset::new().build(piece, params, machine, rng)
    }
    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<VcCoresetOutput>,
    ) -> VcCoresetOutput {
        let builder = PeelingVcCoreset::new();
        merge_vc_coresets(n, params, &builder, seed, level, node, group)
    }
    fn compose(&self, roots: &[&VcCoresetOutput]) -> VertexCover {
        compose_vertex_cover_refs(roots)
    }
    fn size(summary: &VcCoresetOutput) -> (usize, usize) {
        (summary.residual.m(), summary.fixed_vertices.len())
    }
}

/// Counts attached to a machine-build or merge span.
fn size_counts<P: Problem>(edges_in: usize, out: &P::Summary) -> [(&'static str, u64); 3] {
    let (edges, vertices) = P::size(out);
    [
        ("edges_in", edges_in as u64),
        ("edges_out", edges as u64),
        ("vertices_out", vertices as u64),
    ]
}

/// Builds every job's summary on the pool, one span per machine under one
/// stage span.
fn traced_builds<P: Problem>(
    p: &P,
    jobs: Vec<(usize, GraphView<'_>, ChaCha8Rng)>,
    params: &CoresetParams,
    tracer: &mut Tracer,
    parent: usize,
) -> Vec<P::Summary> {
    let stage = tracer.open(P::NAMES.build, Some(parent));
    let origin = tracer.origin();
    let built: Vec<(P::Summary, usize, u64, u64)> = jobs
        .into_par_iter()
        .map(|(i, piece, mut rng)| {
            let start = Tracer::ns_since(origin);
            let summary = p.build(piece, params, i, &mut rng);
            (summary, piece.m(), start, Tracer::ns_since(origin))
        })
        .collect();
    tracer.close(stage, &[]);
    built
        .into_iter()
        .map(|(summary, edges_in, start, end)| {
            let id = tracer.record(P::NAMES.machine, Some(stage), start, end);
            tracer.count(id, &size_counts::<P>(edges_in, &summary));
            summary
        })
        .collect()
}

/// One timed tree merge, recorded off the tracer (merges run on the pool).
struct MergeRecord {
    level: usize,
    node: usize,
    start: u64,
    end: u64,
    counts: [(&'static str, u64); 3],
}

/// The merge closure both tree evaluators call, timing each node into `log`.
fn timed_merge<'a, P: Problem>(
    p: &'a P,
    n: usize,
    params: &'a CoresetParams,
    seed: u64,
    origin: Instant,
    log: &'a Mutex<Vec<MergeRecord>>,
) -> impl Fn(usize, usize, Vec<P::Summary>) -> P::Summary + Sync + 'a {
    move |level, node, group| {
        let edges_in: usize = group.iter().map(|s| P::size(s).0).sum();
        let start = Tracer::ns_since(origin);
        let merged = p.merge(n, params, seed, level, node, group);
        let end = Tracer::ns_since(origin);
        let counts = size_counts::<P>(edges_in, &merged);
        log.lock().expect("merge log poisoned").push(MergeRecord {
            level,
            node,
            start,
            end,
            counts,
        });
        merged
    }
}

/// Moves the logged merges into spans under `parent`, in `(level, node)`
/// order so the span list does not depend on the pool's schedule.
fn drain_merges<P: Problem>(log: &Mutex<Vec<MergeRecord>>, tracer: &mut Tracer, parent: usize) {
    let mut records = std::mem::take(&mut *log.lock().expect("merge log poisoned"));
    records.sort_by_key(|r| (r.level, r.node));
    for r in records {
        let id = tracer.record(P::NAMES.merge, Some(parent), r.start, r.end);
        tracer.count(id, &r.counts);
    }
}

/// The coordinator's final composition over `roots`.
fn traced_root<P: Problem>(
    p: &P,
    roots: &[&P::Summary],
    tracer: &mut Tracer,
    parent: usize,
) -> P::Answer {
    let span = tracer.open(P::NAMES.root, Some(parent));
    let answer = p.compose(roots);
    let edges_in: usize = roots.iter().map(|s| P::size(s).0).sum();
    tracer.close(span, &[("edges_in", edges_in as u64)]);
    answer
}

/// `CoordinatorProtocol::run_*` step by step: partition, machine builds,
/// `reduce_levels` (tree only), root composition.
fn traced_in_memory<P: Problem>(
    p: &P,
    g: &Graph,
    k: usize,
    fan_in: Option<usize>,
    seed: u64,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<P::Answer, ProtocolError> {
    let ingest = tracer.open("ingest", Some(parent));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(g, k, PartitionStrategy::Random, &mut rng)?;
    tracer.close(ingest, &[("partition_edges", g.m() as u64)]);

    let params = CoresetParams::new(g.n(), k);
    let views = partition.views();
    let jobs = machine_jobs(&views, seed)
        .into_iter()
        .map(|(i, piece, rng)| (i, *piece, rng))
        .collect();
    let summaries = traced_builds(p, jobs, &params, tracer, parent);

    let compose = tracer.open(P::NAMES.compose, Some(parent));
    let roots = match fan_in {
        None => summaries,
        Some(fan_in) => {
            let log = Mutex::new(Vec::new());
            let merge = timed_merge(p, g.n(), &params, seed, tracer.origin(), &log);
            let roots = reduce_levels(summaries, fan_in, &merge);
            drain_merges::<P>(&log, tracer, compose);
            roots
        }
    };
    let refs: Vec<&P::Summary> = roots.iter().collect();
    let answer = traced_root(p, &refs, tracer, compose);
    tracer.close(compose, &[]);
    Ok(answer)
}

/// `ArenaProtocol::run_*` step by step: per machine a segment load, a build
/// and a `TreeFolder::push` (which fires the merges it completes), then the
/// root composition.
fn traced_arena<P: Problem>(
    p: &P,
    arena: &ArenaFile,
    fan_in: usize,
    seed: u64,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<P::Answer, ProtocolError> {
    let (n, k) = (arena.n(), arena.k());
    let params = CoresetParams::new(n, k);
    let log = Mutex::new(Vec::new());
    let mut folder = TreeFolder::new(
        k,
        fan_in,
        timed_merge(p, n, &params, seed, tracer.origin(), &log),
    );
    let mut loader = SegmentLoader::new(arena)?;
    for i in 0..k {
        let ingest = tracer.open("ingest", Some(parent));
        let piece = loader
            .load(i)
            .map_err(|source| ProtocolError::Segment { machine: i, source })?;
        tracer.close(
            ingest,
            &[("arena_bytes", piece.m() as u64 * ARENA_RECORD_BYTES)],
        );
        let jobs = vec![(i, piece, machine_rng(seed, i))];
        let summary = traced_builds(p, jobs, &params, tracer, parent)
            .pop()
            .expect("one job yields one summary");
        let compose = tracer.open(P::NAMES.compose, Some(parent));
        folder.push(summary);
        drain_merges::<P>(&log, tracer, compose);
        tracer.close(compose, &[]);
    }
    loader.release();
    let compose = tracer.open(P::NAMES.compose, Some(parent));
    let roots = folder.finish();
    let refs: Vec<&P::Summary> = roots.iter().collect();
    let answer = traced_root(p, &refs, tracer, compose);
    tracer.close(compose, &[]);
    Ok(answer)
}

/// [`driver_round`] step by step, with spans under `parent`.
pub fn traced_round(
    source: Source<'_>,
    seed: u64,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<(Matching, VertexCover), ProtocolError> {
    match source {
        Source::Memory { g, k, fan_in } => Ok((
            traced_in_memory(&MatchingProblem, g, k, fan_in, seed, tracer, parent)?,
            traced_in_memory(&VcProblem, g, k, fan_in, seed, tracer, parent)?,
        )),
        Source::Arena { arena, fan_in } => Ok((
            traced_arena(&MatchingProblem, &arena.file, fan_in, seed, tracer, parent)?,
            traced_arena(&VcProblem, &arena.file, fan_in, seed, tracer, parent)?,
        )),
    }
}

// ---------------------------------------------------------------------------
// Churn serving.
// ---------------------------------------------------------------------------

/// The churn workload's service, built over `g` with its initial round.
pub fn new_service(g: &Graph, k: usize, seed: u64) -> Result<GraphService, ProtocolError> {
    GraphService::new(g, GraphServiceConfig::new(k, seed))
}

/// The driver op of the churn workload.
pub fn apply_batch(svc: &mut GraphService, ops: &[ChurnOp]) -> Result<BatchOutcome, ProtocolError> {
    svc.apply_batch(ops)
}

/// The service's composed answers after its last batch.
pub fn service_answers(svc: &GraphService) -> (&Matching, &VertexCover) {
    (svc.matching(), svc.cover())
}

/// The service's current edge set and a from-scratch protocol round on it.
pub fn naive_round(svc: &GraphService) -> Result<(Graph, Matching, VertexCover), GraphError> {
    let g = svc.current_graph();
    let cfg = svc.config();
    let (m, c) = naive_full_round(&g, cfg.k, cfg.seed)?;
    Ok((g, m, c))
}

/// Words of the `k` matching and `k` vertex-cover messages one round over
/// the service's current pieces composes.
pub fn service_round_words(svc: &GraphService) -> u64 {
    let cfg = svc.config();
    let partition = svc.partition();
    let params = CoresetParams::new(partition.n(), cfg.k);
    let model = CostModel::for_n(partition.n());
    let messages: Vec<[(usize, usize); 2]> = (0..cfg.k)
        .into_par_iter()
        .map(|i| {
            let piece = partition.piece(i);
            let mc = MatchingProblem.build(piece, &params, i, &mut machine_rng(cfg.seed, i));
            let vc = VcProblem.build(piece, &params, i, &mut machine_rng(cfg.seed, i));
            [MatchingProblem::size(&mc), VcProblem::size(&vc)]
        })
        .collect();
    let mut comm = CommunicationCost::default();
    for (edges, vertices) in messages.into_iter().flatten() {
        comm.record_message(&model, edges, vertices);
    }
    comm.total_words()
}

/// A second copy of the service's state that replays `GraphService::apply_batch`
/// step by step: the overlay and incremental updates, the cache probes, the
/// dirty-machine rebuilds and the borrowed-slot composition.
pub struct Shadow {
    seed: u64,
    params: CoresetParams,
    partition: ChurnPartition,
    incremental: DynamicCover,
    matching_cache: CoresetCache<Graph>,
    vc_cache: CoresetCache<VcCoresetOutput>,
}

/// What one shadow batch produced.
pub struct ShadowBatch {
    /// The composed matching.
    pub matching: Matching,
    /// The composed vertex cover.
    pub cover: VertexCover,
    /// The incremental matcher's matching size.
    pub approx_matching_size: usize,
}

impl Shadow {
    /// Mirrors [`new_service`], including its initial round (spans go to a
    /// scratch tracer).
    pub fn new(g: &Graph, k: usize, seed: u64) -> Result<Self, ProtocolError> {
        let cfg = GraphServiceConfig::new(k, seed);
        let mut shadow = Shadow {
            seed,
            params: CoresetParams::new(g.n(), k),
            partition: ChurnPartition::new(g, k, seed)?,
            incremental: DynamicCover::from_graph(g, cfg.eps)?,
            matching_cache: CoresetCache::new(k),
            vc_cache: CoresetCache::new(k),
        };
        let mut scratch = Tracer::new();
        let root = scratch.open("op", None);
        shadow.refresh(&mut scratch, root);
        Ok(shadow)
    }

    /// Cumulative `(hits, misses)` of the matching-coreset cache.
    pub fn matching_cache_stats(&self) -> (u64, u64) {
        (self.matching_cache.hits(), self.matching_cache.misses())
    }

    /// [`apply_batch`] step by step, with spans under `parent`.
    pub fn apply_batch(
        &mut self,
        ops: &[ChurnOp],
        tracer: &mut Tracer,
        parent: usize,
    ) -> Result<ShadowBatch, ProtocolError> {
        let ingest = tracer.open("ingest", Some(parent));
        // The overlay and the incremental matcher are independent, so each
        // may take the whole batch in turn; the service interleaves them.
        let overlay = tracer.open("ingest.churn", Some(ingest));
        for &op in ops {
            self.partition.apply(op)?;
        }
        let compacted = self.partition.maybe_compact();
        tracer.close(overlay, &[("compactions", u64::from(compacted))]);
        let incremental = tracer.open("ingest.dynamic", Some(ingest));
        for &op in ops {
            self.incremental.apply(op)?;
        }
        tracer.close(incremental, &[]);
        tracer.close(ingest, &[]);
        let (matching, cover) = self.refresh(tracer, parent);
        Ok(ShadowBatch {
            matching,
            cover,
            approx_matching_size: self.incremental.matcher().matching_size(),
        })
    }

    /// Build jobs of the `missing` machines.
    fn jobs(
        &self,
        missing: &[(usize, CoresetCacheKey)],
    ) -> Vec<(usize, GraphView<'_>, ChaCha8Rng)> {
        missing
            .iter()
            .map(|&(i, _)| (i, self.partition.piece(i), machine_rng(self.seed, i)))
            .collect()
    }

    /// `GraphService::refresh`: probe both caches by piece fingerprint,
    /// rebuild the misses, compose over every cache slot.
    fn refresh(&mut self, tracer: &mut Tracer, parent: usize) -> (Matching, VertexCover) {
        let k = self.params.k;
        let cache = tracer.open("cache", Some(parent));
        let mut missing: Vec<(usize, CoresetCacheKey)> = Vec::new();
        let (hits0, misses0) = (self.matching_cache.hits(), self.matching_cache.misses());
        for i in 0..k {
            let key = CoresetCacheKey {
                seed: self.seed,
                machine: i,
                piece_fingerprint: self.partition.piece_fingerprint(i),
            };
            // Same lockstep probe as the service: one decides, both count.
            let hit = self.matching_cache.lookup(&key).is_some();
            self.vc_cache.lookup(&key);
            if !hit {
                missing.push((i, key));
            }
        }
        tracer.close(
            cache,
            &[
                ("hits", self.matching_cache.hits() - hits0),
                ("misses", self.matching_cache.misses() - misses0),
            ],
        );

        // A fresh machine_rng stream per builder call, as the service does.
        let mcs = traced_builds(
            &MatchingProblem,
            self.jobs(&missing),
            &self.params,
            tracer,
            parent,
        );
        let vcs = traced_builds(
            &VcProblem,
            self.jobs(&missing),
            &self.params,
            tracer,
            parent,
        );
        let insert = tracer.open("cache", Some(parent));
        for ((_, key), (mc, vc)) in missing.iter().zip(mcs.into_iter().zip(vcs)) {
            self.matching_cache.insert(*key, mc);
            self.vc_cache.insert(*key, vc);
        }
        tracer.close(insert, &[]);

        let matching = compose_slots(&MatchingProblem, &self.matching_cache, tracer, parent);
        let cover = compose_slots(&VcProblem, &self.vc_cache, tracer, parent);
        (matching, cover)
    }
}

/// Composes over every slot of `cache`, as the service does after a refresh.
fn compose_slots<P: Problem>(
    p: &P,
    cache: &CoresetCache<P::Summary>,
    tracer: &mut Tracer,
    parent: usize,
) -> P::Answer {
    let refs: Vec<&P::Summary> = (0..cache.k())
        .map(|i| cache.slot(i).expect("every miss was rebuilt"))
        .collect();
    let compose = tracer.open(P::NAMES.compose, Some(parent));
    let answer = traced_root(p, &refs, tracer, compose);
    tracer.close(compose, &[]);
    answer
}

/// Cumulative `(hits, misses)` of the service's matching-coreset cache.
pub fn service_cache_stats(svc: &GraphService) -> (u64, u64) {
    svc.matching_cache_stats()
}
