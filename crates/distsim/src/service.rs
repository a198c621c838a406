//! The edge-churn serving driver: batched updates and dirty-piece-only
//! re-coresets.
//!
//! A [`GraphService`] owns three cooperating structures:
//!
//! * a [`graph::ChurnPartition`] — the hash-placed `k`-machine partition,
//!   one sorted piece per machine, absorbing inserts/deletes while keeping
//!   every piece bit-identical to the piece a **from-scratch**
//!   [`graph::partition::PartitionedGraph::by_edge_hash`] partition of the
//!   current graph would produce;
//! * a [`dynamic::DynamicCover`] (wrapping a [`dynamic::DynamicMatcher`]) —
//!   a greedy maximal matching and its matched-endpoint cover, updated by
//!   every op, whose sizes each batch reports beside its refreshed protocol
//!   answers;
//! * one fingerprint-keyed [`coresets::CoresetCache`] — each machine's
//!   matching coreset and vertex-cover coreset from the last protocol round,
//!   cached together under one key.
//!
//! [`GraphService::apply_batch`] is atomic: it checks every op's edge
//! ([`graph::Edge::checked`]) before applying any, so a rejected batch
//! leaves the graph and the answers untouched. Every applied batch ends with
//! a refresh: the service probes the cache once per machine and re-coresets
//! **only the machines whose piece fingerprint changed**: clean machines'
//! cached coresets are reused verbatim, dirty machines rebuild on the
//! work-stealing pool with their pre-derived `machine_rng(seed, i)` streams,
//! and the composed answers are extracted over borrowed cache slots.
//!
//! **Answer identity.** The cached-composition answers equal
//! [`naive_full_round`] on the current graph, bit for bit: hash placement
//! means churn on one edge never moves another edge's machine, the churn
//! partition keeps pieces in canonical sorted order (so piece content
//! equality *is* fingerprint equality), and coreset builds are pure in
//! `(piece content, params, machine, machine_rng(seed, machine))`.
//! [`naive_full_round`] is the production driver itself
//! ([`crate::CoordinatorProtocol`] on an edge-hash partition), so the one
//! cached loop is checked against the one driver: per batch by experiment
//! E18 (`exp_dynamic_churn`) and this module's proptest, and pinned by
//! `tests/determinism.rs`.

use crate::coordinator::{CoordinatorProtocol, FaultyRun};
use crate::error::ProtocolError;
use crate::faults::{FaultPlan, RetryPolicy};
use coresets::matching_coreset::MaximumMatchingCoreset;
use coresets::streams::machine_rng;
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetOutput};
use coresets::{CoresetCache, CoresetCacheKey, CoresetParams, MatchingProblem, Problem, VcProblem};
use dynamic::DynamicCover;
use graph::partition::PartitionedGraph;
use graph::{ChurnOp, ChurnPartition, Graph, GraphError};
use matching::matching::Matching;
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
    /// Read by nothing: the incremental matcher has no repair slack. Kept
    /// only because the benchmark (`exp_profile`) passes it to
    /// [`dynamic::DynamicCover::from_graph`]; the benchmark change of ROADMAP
    /// item 4 deletes it.
    pub eps: f64,
}

impl GraphServiceConfig {
    /// A config over `k` machines with protocol seed `seed` (`eps` is 0.5).
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
    /// Size of the composed (protocol) matching after the batch.
    pub matching_size: usize,
    /// Size of the composed (protocol) vertex cover after the batch.
    pub cover_size: usize,
    /// Size of the incremental maximal matching after the batch, reported
    /// beside the refreshed protocol answers.
    pub approx_matching_size: usize,
    /// Size of the incremental matched-endpoint cover after the batch.
    pub approx_cover_size: usize,
}

/// A long-running matching/vertex-cover serving endpoint over a churning
/// edge set. See the [module docs](self).
pub struct GraphService {
    cfg: GraphServiceConfig,
    params: CoresetParams,
    partition: ChurnPartition,
    incremental: DynamicCover,
    /// Each machine's `(matching coreset, vertex-cover coreset)`.
    cache: CoresetCache<(Graph, VcCoresetOutput)>,
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
            cache: CoresetCache::new(cfg.k),
            last_matching: Matching::new(),
            last_cover: VertexCover::new(),
        };
        service.refresh()?;
        Ok(service)
    }

    /// Applies a batch of updates, refreshes only the dirty machines'
    /// coresets, and recomposes the protocol answers.
    ///
    /// The batch is atomic: if any op's edge is a self-loop or names a
    /// vertex outside `0..n`, the typed error of the first such op
    /// ([`graph::Edge::checked`]) is returned before any op is applied, so
    /// the graph, the answers and the cache are unchanged. An edge given as
    /// `u > v` is applied canonicalized.
    pub fn apply_batch(&mut self, ops: &[ChurnOp]) -> Result<BatchOutcome, ProtocolError> {
        let n = self.partition.n();
        for op in ops {
            op.edge().checked(n)?;
        }
        let mut applied = 0usize;
        for &op in ops {
            let changed = self.partition.apply(op)?;
            let also = self.incremental.apply(op)?;
            debug_assert_eq!(changed, also, "partition and matcher disagree on {op:?}");
            if changed {
                applied += 1;
            }
        }
        let mut outcome = self.refresh()?;
        outcome.applied = applied;
        outcome.batch_len = ops.len();
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
            if self.cache.lookup(&key).is_none() {
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
        for ((_, key), summaries) in missing.into_iter().zip(built) {
            self.cache.insert(key, summaries);
        }

        let slots: Vec<&(Graph, VcCoresetOutput)> = (0..k)
            .map(|i| match self.cache.slot(i) {
                Some(slot) => slot,
                // Unreachable: every miss was just rebuilt and inserted.
                None => unreachable!("machine {i} has no cached coreset"), // xtask: allow(error-hygiene)
            })
            .collect();
        let coresets: Vec<&Graph> = slots.iter().map(|s| &s.0).collect();
        let outputs: Vec<&VcCoresetOutput> = slots.iter().map(|s| &s.1).collect();
        self.last_matching = MATCHING.compose(&coresets);
        self.last_cover = VC.compose(&outputs);

        Ok(BatchOutcome {
            applied: 0,
            batch_len: 0,
            machines_rebuilt: rebuilt,
            machines_cached: k - rebuilt,
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

    /// The incremental matching and cover, updated by every applied op.
    #[inline]
    pub fn incremental(&self) -> &DynamicCover {
        &self.incremental
    }

    /// The churn-absorbing partition.
    #[inline]
    pub fn partition(&self) -> &ChurnPartition {
        &self.partition
    }

    /// Cumulative `(hits, misses)` of the coreset cache: one probe per
    /// machine per protocol round.
    pub fn matching_cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
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
const MATCHING: MatchingProblem<MaximumMatchingCoreset> = MatchingProblem(MaximumMatchingCoreset);
/// The service's vertex-cover problem: the paper's Theorem 2 coreset.
const VC: VcProblem<PeelingVcCoreset> = VcProblem(PeelingVcCoreset);

/// One from-scratch protocol round over `g` — the oracle the service is
/// checked against (experiment E18 and the determinism suite). Partitions
/// `g` by edge hash ([`PartitionedGraph::by_edge_hash`]), then runs the
/// service's matching and vertex-cover problems through the production
/// driver with flat composition, every machine rebuilt. Returns
/// `(matching, cover)`.
/// [`CoordinatorProtocol::run`]'s partition differs: it salts the same hash
/// with a draw of `ChaCha8Rng::seed_from_u64(seed)`, not `seed`, and keeps
/// pieces in input order, not sorted, an order the cover's 2-approximation
/// reads when it scans residual edges.
pub fn naive_full_round(
    g: &Graph,
    k: usize,
    seed: u64,
) -> Result<(Matching, VertexCover), GraphError> {
    let partition = PartitionedGraph::by_edge_hash(g, k, seed)?;
    let protocol = CoordinatorProtocol::random(k);
    let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
    let matching = answer(protocol.run_on(&partition, &MATCHING, seed, &plan, &retry));
    let cover = answer(protocol.run_on(&partition, &VC, seed, &plan, &retry));
    Ok((matching, cover))
}

/// The answer of a fault-free flat run on an existing partition, which
/// cannot fail: no fault is armed, the flat fan-in is at least 2, and the
/// partition has at least one machine.
fn answer<T>(run: Result<FaultyRun<T>, ProtocolError>) -> T {
    match run {
        Ok(run) => run.run.answer,
        Err(e) => unreachable!("fault-free flat round failed: {e}"), // xtask: allow(error-hygiene)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::Edge;
    use proptest::prelude::*;
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

    #[test]
    fn a_rejected_batch_changes_nothing() {
        let g = gnp(300, 0.02, &mut ChaCha8Rng::seed_from_u64(5));
        let mut svc = GraphService::new(&g, GraphServiceConfig::new(6, 11)).unwrap();
        let (graph, matching, cover) = (
            svc.current_graph(),
            svc.matching().clone(),
            svc.cover().clone(),
        );
        let stats = svc.matching_cache_stats();
        // A valid delete ahead of an out-of-range insert: neither may land.
        let matched = matching.edges()[0];
        let batch = [ChurnOp::Delete(matched), ChurnOp::Insert(Edge::new(1, 305))];
        match svc.apply_batch(&batch) {
            Err(ProtocolError::Graph(GraphError::VertexOutOfRange { vertex, n })) => {
                assert_eq!((vertex, n), (305, 300));
            }
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
        assert_eq!(svc.current_graph(), graph);
        assert_eq!(svc.m(), graph.m());
        assert_eq!(svc.matching(), &matching);
        assert_eq!(svc.cover(), &cover);
        assert_eq!(svc.matching_cache_stats(), stats);
        assert!(svc.matching().is_valid_for(&svc.current_graph()));
        assert!(svc.incremental().cover().covers(&svc.current_graph()));
    }

    /// Raw `Edge` fields can hold what `Edge::new` never builds. Each
    /// malformed op is rejected, behind a valid op, before the partition or
    /// the matcher takes either; a reversed edge lands canonicalized in both.
    #[test]
    fn malformed_ops_are_rejected_before_any_op_lands() {
        let g = Graph::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mut svc = GraphService::new(&g, GraphServiceConfig::new(2, 3)).unwrap();
        let (matching, cover) = (svc.matching().clone(), svc.cover().clone());
        let stats = svc.matching_cache_stats();
        for (bad, err) in [
            (
                ChurnOp::Insert(Edge { u: 9, v: 2 }),
                GraphError::VertexOutOfRange { vertex: 9, n: 5 },
            ),
            (
                ChurnOp::Insert(Edge { u: 3, v: 3 }),
                GraphError::SelfLoop { vertex: 3 },
            ),
            (
                ChurnOp::Delete(Edge { u: 4, v: 9 }),
                GraphError::VertexOutOfRange { vertex: 9, n: 5 },
            ),
        ] {
            let batch = [ChurnOp::Delete(Edge::new(0, 1)), bad];
            match svc.apply_batch(&batch) {
                Err(ProtocolError::Graph(got)) => assert_eq!(got, err, "{bad:?}"),
                other => panic!("expected {err:?} for {bad:?}, got {other:?}"),
            }
            assert_eq!(svc.current_graph(), g);
            assert_eq!((svc.matching(), svc.cover()), (&matching, &cover));
            assert_eq!(svc.matching_cache_stats(), stats);
            assert_eq!(svc.incremental().matcher().current_graph(), g);
        }

        let outcome = svc
            .apply_batch(&[ChurnOp::Insert(Edge { u: 4, v: 1 })])
            .unwrap();
        assert_eq!(outcome.applied, 1);
        let with = Graph::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]).unwrap();
        assert_eq!(svc.current_graph(), with);
        assert_eq!(svc.incremental().matcher().current_graph(), with);
        let (m, c) = naive_full_round(&with, 2, 3).unwrap();
        assert_eq!((svc.matching(), svc.cover()), (&m, &c));
        let outcome = svc
            .apply_batch(&[ChurnOp::Delete(Edge::new(1, 4))])
            .unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(svc.current_graph(), g);
        assert_eq!(svc.incremental().matcher().current_graph(), g);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The cached service answers equal a from-scratch driver round after
        /// every batch, for any machine count and seed.
        #[test]
        fn service_matches_the_driver_after_random_batches(
            n in 8usize..80,
            p in 0.02f64..0.2,
            k in 1usize..9,
            seed in any::<u64>(),
            batches in proptest::collection::vec(1usize..20, 1..5),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = gnp(n, p, &mut rng);
            let mut svc = GraphService::new(&g, GraphServiceConfig::new(k, seed)).unwrap();
            for (b, &len) in batches.iter().enumerate() {
                let ops = churn_ops(n as u32, len, seed ^ b as u64);
                svc.apply_batch(&ops).unwrap();
                let (m, c) = naive_full_round(&svc.current_graph(), k, seed).unwrap();
                prop_assert_eq!(svc.matching(), &m);
                prop_assert_eq!(svc.cover(), &c);
            }
        }
    }
}
