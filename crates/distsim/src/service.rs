//! The edge-churn serving driver: batched updates, incremental answers, and
//! dirty-piece-only re-coresets.
//!
//! A [`GraphService`] owns three cooperating structures:
//!
//! * a [`graph::ChurnPartition`] — the mutable overlay over the hash-placed
//!   `k`-machine edge arena, absorbing inserts/deletes while keeping every
//!   machine's piece bit-identical to the piece a **from-scratch**
//!   [`graph::partition::PartitionedGraph::by_edge_hash`] partition of the
//!   current graph would produce;
//! * a [`dynamic::DynamicCover`] (wrapping a [`dynamic::DynamicMatcher`]) —
//!   instant per-update approximate answers between protocol re-solves;
//! * two fingerprint-keyed [`coresets::CoresetCache`]s — the per-machine
//!   matching and vertex-cover coresets from the last protocol round.
//!
//! After each batch ([`GraphService::apply_batch`]) the coordinator
//! re-coresets **only the machines whose piece fingerprint changed**: clean
//! machines' cached coresets are reused verbatim, dirty machines rebuild on
//! the work-stealing pool with their pre-derived `machine_rng(seed, i)`
//! streams, and the composed answers are extracted over borrowed cache slots
//! ([`coresets::solve_composed_matching_refs`] /
//! [`coresets::compose_vertex_cover_refs`]).
//!
//! **Answer identity.** The cached-composition answers equal a from-scratch
//! batch run of the same protocol on the current graph, bit for bit: hash
//! placement means churn on one edge never moves another edge's machine, the
//! churn partition keeps pieces in canonical sorted order (so piece content
//! equality *is* fingerprint equality), and coreset builds are pure in
//! `(piece content, params, machine, machine_rng(seed, machine))`. This is
//! asserted per batch by experiment E18 (`exp_dynamic_churn`) and pinned by
//! `tests/determinism.rs`.

use crate::error::ProtocolError;
use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::streams::machine_rng;
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput};
use coresets::{
    compose_vertex_cover_refs, solve_composed_matching_refs, CoresetCache, CoresetCacheKey,
    CoresetParams, MatchingProblem, Problem, VcProblem,
};
use dynamic::DynamicCover;
use graph::{ChurnOp, ChurnPartition, Graph, GraphError};
use matching::matching::Matching;
use matching::maximum::MaximumMatchingAlgorithm;
use rayon::prelude::*;
use vertexcover::VertexCover;

/// Configuration of a [`GraphService`].
#[derive(Debug, Clone, Copy)]
pub struct GraphServiceConfig {
    /// Number of machines `k` the edge set is hash-partitioned across.
    pub k: usize,
    /// Protocol seed: fixes the hash placement and every machine's coreset
    /// RNG stream.
    pub seed: u64,
    /// Repair slack of the incremental matcher (see
    /// [`dynamic::DynamicMatcher::with_eps`]).
    pub eps: f64,
}

impl GraphServiceConfig {
    /// A config with the default repair slack `ε = 0.5`.
    pub fn new(k: usize, seed: u64) -> Self {
        GraphServiceConfig { k, seed, eps: 0.5 }
    }
}

/// What one [`GraphService::apply_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Operations that changed the edge set (duplicates/absences are no-ops).
    pub applied: usize,
    /// Operations in the batch.
    pub batch_len: usize,
    /// Machines whose piece fingerprint changed, i.e. coresets rebuilt.
    pub machines_rebuilt: usize,
    /// Machines served from cache this batch (`k - machines_rebuilt`).
    pub machines_cached: usize,
    /// Whether the overlay compacted its journals back into the arena.
    pub compacted: bool,
    /// Size of the composed (protocol) matching after the batch.
    pub matching_size: usize,
    /// Size of the composed (protocol) vertex cover after the batch.
    pub cover_size: usize,
    /// Size of the incremental matcher's maximal matching (instant answer).
    pub approx_matching_size: usize,
    /// Size of the incremental matched-endpoint cover (instant answer).
    pub approx_cover_size: usize,
}

/// A long-running matching/vertex-cover serving endpoint over a churning
/// edge set. See the [module docs](self).
pub struct GraphService {
    cfg: GraphServiceConfig,
    params: CoresetParams,
    partition: ChurnPartition,
    incremental: DynamicCover,
    matching_cache: CoresetCache<Graph>,
    vc_cache: CoresetCache<VcCoresetOutput>,
    last_matching: Matching,
    last_cover: VertexCover,
}

impl GraphService {
    /// Builds the service over `g`'s current edge set and runs the initial
    /// protocol round (every machine's coreset is built and cached).
    pub fn new(g: &Graph, cfg: GraphServiceConfig) -> Result<Self, ProtocolError> {
        let partition = ChurnPartition::new(g, cfg.k, cfg.seed)?;
        let incremental = DynamicCover::from_graph(g, cfg.eps)?;
        let mut service = GraphService {
            cfg,
            params: CoresetParams::new(g.n(), cfg.k),
            partition,
            incremental,
            matching_cache: CoresetCache::new(cfg.k),
            vc_cache: CoresetCache::new(cfg.k),
            last_matching: Matching::new(),
            last_cover: VertexCover::new(),
        };
        service.refresh()?;
        Ok(service)
    }

    /// Applies a batch of updates, refreshes only the dirty machines'
    /// coresets, and recomposes the protocol answers.
    pub fn apply_batch(&mut self, ops: &[ChurnOp]) -> Result<BatchOutcome, ProtocolError> {
        let mut applied = 0usize;
        for &op in ops {
            let changed = self.partition.apply(op)?;
            let also = self.incremental.apply(op)?;
            debug_assert_eq!(changed, also, "overlay and matcher disagree on {op:?}");
            if changed {
                applied += 1;
            }
        }
        let compacted = self.partition.maybe_compact();
        let mut outcome = self.refresh()?;
        outcome.applied = applied;
        outcome.batch_len = ops.len();
        outcome.compacted = compacted;
        Ok(outcome)
    }

    /// Rebuilds cache-missing machines' coresets in parallel and recomposes
    /// the answers from the cache slots.
    fn refresh(&mut self) -> Result<BatchOutcome, ProtocolError> {
        let k = self.cfg.k;
        let seed = self.cfg.seed;
        let mut missing: Vec<(usize, CoresetCacheKey)> = Vec::new();
        for i in 0..k {
            let key = CoresetCacheKey {
                seed,
                machine: i,
                piece_fingerprint: self.partition.piece_fingerprint(i),
            };
            // The two caches are filled in lockstep, so one probe decides;
            // both probe so their counters stay in sync.
            let hit = self.matching_cache.lookup(&key).is_some();
            self.vc_cache.lookup(&key);
            if !hit {
                missing.push((i, key));
            }
        }

        // Dirty machines rebuild exactly as a from-scratch batch round would:
        // same piece content (canonical order), same params, and a fresh
        // machine_rng(seed, i) stream per builder call.
        let partition = &self.partition;
        let params = &self.params;
        let built: Vec<(Graph, VcCoresetOutput)> = missing
            .par_iter()
            .map(|&(i, _)| {
                let piece = partition.piece(i);
                let mc = MATCHING.build(piece, params, i, &mut machine_rng(seed, i));
                (mc, VC.build(piece, params, i, &mut machine_rng(seed, i)))
            })
            .collect();
        let rebuilt = built.len();
        for ((_, key), (mc, vc)) in missing.into_iter().zip(built) {
            self.matching_cache.insert(key, mc);
            self.vc_cache.insert(key, vc);
        }

        self.last_matching = compose_slots(&MATCHING, &self.matching_cache);
        self.last_cover = compose_slots(&VC, &self.vc_cache);

        Ok(BatchOutcome {
            applied: 0,
            batch_len: 0,
            machines_rebuilt: rebuilt,
            machines_cached: k - rebuilt,
            compacted: false,
            matching_size: self.last_matching.len(),
            cover_size: self.last_cover.len(),
            approx_matching_size: self.incremental.matcher().matching_size(),
            approx_cover_size: self.incremental.cover_size(),
        })
    }

    /// The composed (protocol) matching from the last round.
    #[inline]
    pub fn matching(&self) -> &Matching {
        &self.last_matching
    }

    /// The composed (protocol) vertex cover from the last round.
    #[inline]
    pub fn cover(&self) -> &VertexCover {
        &self.last_cover
    }

    /// The incremental structures answering between rounds.
    #[inline]
    pub fn incremental(&self) -> &DynamicCover {
        &self.incremental
    }

    /// The churn-absorbing partition overlay.
    #[inline]
    pub fn partition(&self) -> &ChurnPartition {
        &self.partition
    }

    /// Cumulative `(hits, misses)` of the matching-coreset cache.
    pub fn matching_cache_stats(&self) -> (u64, u64) {
        (self.matching_cache.hits(), self.matching_cache.misses())
    }

    /// Cumulative `(hits, misses)` of the vertex-cover-coreset cache.
    pub fn vc_cache_stats(&self) -> (u64, u64) {
        (self.vc_cache.hits(), self.vc_cache.misses())
    }

    /// The service's configuration.
    #[inline]
    pub fn config(&self) -> GraphServiceConfig {
        self.cfg
    }

    /// Current number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.partition.m()
    }

    /// The current edge set as an owned canonical [`Graph`] (for auditing
    /// against a from-scratch run; allocates `m` edges).
    pub fn current_graph(&self) -> Graph {
        self.partition.current_graph()
    }
}

impl std::fmt::Debug for GraphService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphService")
            .field("k", &self.cfg.k)
            .field("seed", &self.cfg.seed)
            .field("m", &self.partition.m())
            .field("matching", &self.last_matching.len())
            .field("cover", &self.last_cover.len())
            .finish()
    }
}

/// The service's matching problem: the paper's Theorem 1 coreset.
const MATCHING: MatchingProblem<MaximumMatchingCoreset> = MatchingProblem(MaximumMatchingCoreset {
    algorithm: MaximumMatchingAlgorithm::Auto,
});
/// The service's vertex-cover problem: the paper's Theorem 2 coreset.
const VC: VcProblem<PeelingVcCoreset> = VcProblem(PeelingVcCoreset);

/// Composes `problem`'s answer over borrowed cache slots, in machine order.
fn compose_slots<P: Problem>(problem: &P, cache: &CoresetCache<P::Summary>) -> P::Answer {
    let refs: Vec<&P::Summary> = (0..cache.k())
        .map(|i| match cache.slot(i) {
            Some(summary) => summary,
            // Unreachable: every miss was just rebuilt and inserted.
            None => unreachable!("machine {i} has no cached coreset"), // xtask: allow(error-hygiene)
        })
        .collect();
    problem.compose(&refs)
}

/// The frozen naive baseline E18 compares against: re-partition from scratch
/// and rebuild **every** machine's coreset after each batch, composing the
/// same way. Returns `(matching, cover)` of one full round over `g`.
///
/// Kept in `distsim` (not the bench binary) so the determinism suite can pin
/// service answers against it directly.
pub fn naive_full_round(
    g: &Graph,
    k: usize,
    seed: u64,
) -> Result<(Matching, VertexCover), GraphError> {
    let partition = graph::partition::PartitionedGraph::by_edge_hash(g, k, seed)?;
    let params = CoresetParams::new(g.n(), k);
    let views = partition.views();
    let coresets: Vec<Graph> = views
        .par_iter()
        .enumerate()
        .map(|(i, piece)| {
            MaximumMatchingCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
        })
        .collect();
    let outputs: Vec<VcCoresetOutput> = views
        .par_iter()
        .enumerate()
        .map(|(i, piece)| {
            PeelingVcCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
        })
        .collect();
    let refs: Vec<&Graph> = coresets.iter().collect();
    let matching = solve_composed_matching_refs(&refs, MaximumMatchingAlgorithm::Auto);
    let out_refs: Vec<&VcCoresetOutput> = outputs.iter().collect();
    let cover = compose_vertex_cover_refs(&out_refs);
    Ok((matching, cover))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::Edge;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn churn_ops(n: u32, count: usize, seed: u64) -> Vec<ChurnOp> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ops = Vec::new();
        while ops.len() < count {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let e = Edge::new(u, v);
            ops.push(if rng.gen_bool(0.5) {
                ChurnOp::Insert(e)
            } else {
                ChurnOp::Delete(e)
            });
        }
        ops
    }

    #[test]
    fn service_answers_equal_a_from_scratch_round_after_every_batch() {
        let g = gnp(300, 0.02, &mut ChaCha8Rng::seed_from_u64(5));
        let mut svc = GraphService::new(&g, GraphServiceConfig::new(6, 11)).unwrap();
        for batch in 0..6 {
            let ops = churn_ops(300, 24, 100 + batch);
            let outcome = svc.apply_batch(&ops).unwrap();
            let current = svc.current_graph();
            let (naive_m, naive_c) = naive_full_round(&current, 6, 11).unwrap();
            assert_eq!(svc.matching(), &naive_m, "batch {batch}: matching diverged");
            assert_eq!(svc.cover(), &naive_c, "batch {batch}: cover diverged");
            assert_eq!(outcome.matching_size, naive_m.len());
            assert_eq!(outcome.cover_size, naive_c.len());
            assert!(svc.cover().covers(&current));
            assert!(svc.matching().is_valid_for(&current));
        }
    }

    #[test]
    fn clean_machines_are_served_from_cache() {
        let g = gnp(400, 0.015, &mut ChaCha8Rng::seed_from_u64(6));
        let mut svc = GraphService::new(&g, GraphServiceConfig::new(8, 3)).unwrap();
        // The initial round misses everywhere.
        assert_eq!(svc.matching_cache_stats(), (0, 8));
        // One inserted edge dirties exactly one machine.
        let e = Edge::new(398, 399);
        assert!(!svc.current_graph().edges().contains(&e));
        let outcome = svc.apply_batch(&[ChurnOp::Insert(e)]).unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.machines_rebuilt, 1);
        assert_eq!(outcome.machines_cached, 7);
        let (hits, misses) = svc.matching_cache_stats();
        assert_eq!((hits, misses), (7, 9));
        assert_eq!(svc.vc_cache_stats(), (7, 9));
        // Deleting it again restores the fingerprint: the machine's rebuilt
        // coreset is keyed by content, but content reverted, so the slot key
        // no longer matches and it rebuilds once more.
        let outcome = svc.apply_batch(&[ChurnOp::Delete(e)]).unwrap();
        assert_eq!(outcome.machines_rebuilt, 1);
    }

    #[test]
    fn incremental_answers_bound_the_truth() {
        let g = gnp(200, 0.03, &mut ChaCha8Rng::seed_from_u64(7));
        let mut svc = GraphService::new(&g, GraphServiceConfig::new(4, 9)).unwrap();
        for batch in 0..4 {
            let ops = churn_ops(200, 30, 500 + batch);
            let outcome = svc.apply_batch(&ops).unwrap();
            let current = svc.current_graph();
            let opt = matching::maximum::maximum_matching(&current).len();
            // Maximal matching: at least half the optimum, never above it.
            assert!(outcome.approx_matching_size <= opt);
            assert!(2 * outcome.approx_matching_size >= opt);
            assert_eq!(outcome.approx_cover_size, 2 * outcome.approx_matching_size);
            assert!(svc.incremental().cover().covers(&current));
        }
    }

    #[test]
    fn batch_errors_surface_as_protocol_errors() {
        let g = gnp(50, 0.05, &mut ChaCha8Rng::seed_from_u64(8));
        let mut svc = GraphService::new(&g, GraphServiceConfig::new(4, 1)).unwrap();
        let bad = ChurnOp::Insert(Edge::new(1, 60));
        match svc.apply_batch(&[bad]) {
            Err(ProtocolError::Graph(GraphError::VertexOutOfRange { vertex, n })) => {
                assert_eq!((vertex, n), (60, 50));
            }
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
    }
}
