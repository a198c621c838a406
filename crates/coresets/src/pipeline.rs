//! End-to-end runners: random partition → per-machine coresets (on parallel
//! OS threads) → coordinator composition.
//!
//! The partition lives in a single [`graph::PartitionedGraph`] edge arena:
//! one machine-sorted copy of the edge set whose per-machine pieces are
//! zero-copy [`graph::GraphView`]s. A full run therefore performs exactly
//! one edge permutation and **zero** per-machine graph clones (experiment
//! E12 pins this down via `graph::metrics`).
//!
//! These are the entry points most applications and examples use: the `k`
//! "machines" build their coresets concurrently on the vendored rayon
//! work-stealing pool, and the reports include per-machine coreset sizes so
//! callers can reason about communication (`distsim` adds precise accounting
//! and the MapReduce model).
//!
//! **Determinism:** the random partition is drawn and every machine's private
//! `ChaCha8Rng` stream is derived from `(seed, machine)` *before* the
//! parallel fan-out, and per-machine outputs are collected in machine order —
//! so for a fixed seed the results are bit-identical regardless of how many
//! worker threads run the machines or how they are scheduled. The
//! composition side keeps the same discipline: its independent sub-solves
//! (warm-start screening, per-residual-slice statistics, per-weight-class
//! matchings) fan out on the pool and reassemble in input order, while the
//! order-defined greedy scans stay sequential (see [`crate::compose`] and
//! [`crate::weighted`]).
//!
//! Both runners are one generic run over [`crate::problem::Problem`]; the
//! per-piece solves and the composition run on the reusable matching and
//! vertex-cover engines (see [`crate::matching_coreset`],
//! [`crate::vc_coreset`] and [`crate::compose`]).

use crate::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use crate::params::CoresetParams;
use crate::problem::{MatchingProblem, Problem, VcProblem};
use crate::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder};
use graph::partition::PartitionedGraph;
use graph::{Graph, GraphError, GraphView};
use matching::matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vertexcover::VertexCover;

/// Result of a distributed matching run.
#[derive(Debug, Clone)]
pub struct MatchingRunResult {
    /// The matching extracted from the composed coresets.
    pub matching: Matching,
    /// Size of each machine's coreset, in edges.
    pub coreset_sizes: Vec<usize>,
    /// Number of edges each machine received from the random partition.
    pub piece_sizes: Vec<usize>,
}

impl MatchingRunResult {
    /// Total number of coreset edges sent to the coordinator.
    pub fn total_coreset_size(&self) -> usize {
        self.coreset_sizes.iter().sum()
    }
}

/// Result of a distributed vertex-cover run.
#[derive(Debug, Clone)]
pub struct VertexCoverRunResult {
    /// The composed vertex cover.
    pub cover: VertexCover,
    /// Size of each machine's coreset (fixed vertices + residual edges).
    pub coreset_sizes: Vec<usize>,
    /// Number of edges each machine received from the random partition.
    pub piece_sizes: Vec<usize>,
}

impl VertexCoverRunResult {
    /// Total coreset size sent to the coordinator.
    pub fn total_coreset_size(&self) -> usize {
        self.coreset_sizes.iter().sum()
    }
}

/// `(answer, coreset sizes, piece sizes)` of one protocol run over `pieces`:
/// every machine's summary is built on the pool from its pre-derived
/// `(seed, machine)` stream, then the coordinator composes them flat.
fn run_pieces<P: Problem>(
    problem: &P,
    n: usize,
    pieces: &[GraphView<'_>],
    seed: u64,
) -> (P::Answer, Vec<usize>, Vec<usize>) {
    let params = CoresetParams::new(n, pieces.len().max(1));
    let summaries = problem.build_all(pieces, &params, seed);
    let coreset_sizes = summaries
        .iter()
        .map(P::message)
        .map(|(e, v)| e + v)
        .collect();
    let piece_sizes = pieces.iter().map(GraphView::m).collect();
    (problem.compose_all(&summaries), coreset_sizes, piece_sizes)
}

/// End-to-end distributed maximum matching via randomized composable coresets
/// (Theorem 1 + the coordinator's maximum matching).
#[derive(Clone)]
pub struct DistributedMatching<B: MatchingCoresetBuilder = MaximumMatchingCoreset> {
    k: usize,
    problem: MatchingProblem<B>,
}

impl DistributedMatching<MaximumMatchingCoreset> {
    /// The paper's default configuration: maximum-matching coresets on `k`
    /// machines, maximum matching at the coordinator.
    pub fn new(k: usize) -> Self {
        DistributedMatching::with_builder(k, MaximumMatchingCoreset::new())
    }
}

impl<B: MatchingCoresetBuilder> DistributedMatching<B> {
    /// Uses a custom coreset builder (e.g. the maximal-matching negative
    /// control or the subsampled Remark 5.2 coreset).
    pub fn with_builder(k: usize, builder: B) -> Self {
        DistributedMatching {
            k,
            problem: MatchingProblem(builder),
        }
    }

    /// Runs the protocol on `g` with a random `k`-partition derived from
    /// `seed`. The per-machine coreset construction runs on parallel OS
    /// threads; see the module docs for the determinism guarantee.
    pub fn run(&self, g: &Graph, seed: u64) -> Result<MatchingRunResult, GraphError> {
        let partition = PartitionedGraph::random(g, self.k, &mut ChaCha8Rng::seed_from_u64(seed))?;
        Ok(self.run_on_partition(g.n(), &partition.views(), seed))
    }

    /// Runs the protocol on an existing partition, given as zero-copy views
    /// (an arena's [`PartitionedGraph::views`], or [`graph::views_of`] over
    /// owned pieces — useful when the caller wants a non-random partition for
    /// comparison experiments). `seed` derives each machine's private RNG
    /// stream.
    pub fn run_on_partition(
        &self,
        n: usize,
        pieces: &[GraphView<'_>],
        seed: u64,
    ) -> MatchingRunResult {
        let (matching, coreset_sizes, piece_sizes) = run_pieces(&self.problem, n, pieces, seed);
        MatchingRunResult {
            matching,
            coreset_sizes,
            piece_sizes,
        }
    }
}

/// End-to-end distributed minimum vertex cover via randomized composable
/// coresets (Theorem 2 + the coordinator's 2-approximation).
#[derive(Clone)]
pub struct DistributedVertexCover<B: VcCoresetBuilder = PeelingVcCoreset> {
    k: usize,
    problem: VcProblem<B>,
}

impl DistributedVertexCover<PeelingVcCoreset> {
    /// The paper's default configuration: peeling coresets on `k` machines.
    pub fn new(k: usize) -> Self {
        DistributedVertexCover::with_builder(k, PeelingVcCoreset::new())
    }
}

impl<B: VcCoresetBuilder> DistributedVertexCover<B> {
    /// Uses a custom coreset builder (e.g. the local-cover negative control).
    pub fn with_builder(k: usize, builder: B) -> Self {
        DistributedVertexCover {
            k,
            problem: VcProblem(builder),
        }
    }

    /// Runs the protocol on `g` with a random `k`-partition derived from
    /// `seed`. The per-machine coreset construction runs on parallel OS
    /// threads; see the module docs for the determinism guarantee.
    pub fn run(&self, g: &Graph, seed: u64) -> Result<VertexCoverRunResult, GraphError> {
        let partition = PartitionedGraph::random(g, self.k, &mut ChaCha8Rng::seed_from_u64(seed))?;
        Ok(self.run_on_partition(g.n(), &partition.views(), seed))
    }

    /// Runs the protocol on an existing partition, given as zero-copy views.
    /// `seed` derives each machine's private RNG stream.
    pub fn run_on_partition(
        &self,
        n: usize,
        pieces: &[GraphView<'_>],
        seed: u64,
    ) -> VertexCoverRunResult {
        let (cover, coreset_sizes, piece_sizes) = run_pieces(&self.problem, n, pieces, seed);
        VertexCoverRunResult {
            cover,
            coreset_sizes,
            piece_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching_coreset::AvoidingMaximalMatchingCoreset;
    use crate::vc_coreset::LocalCoverCoreset;
    use graph::gen::er::gnp;
    use graph::gen::hard::maximal_matching_trap;
    use graph::gen::structured::star_forest;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matching_pipeline_end_to_end() {
        let mut r = rng(1);
        let g = gnp(800, 0.01, &mut r);
        let result = DistributedMatching::new(8).run(&g, 123).unwrap();
        assert!(result.matching.is_valid_for(&g));
        assert_eq!(result.coreset_sizes.len(), 8);
        assert_eq!(result.piece_sizes.iter().sum::<usize>(), g.m());
        let opt = maximum_matching(&g).len();
        assert!(9 * result.matching.len() >= opt);
        // Each coreset is a matching, so at most n/2 edges.
        assert!(result.coreset_sizes.iter().all(|&s| s <= g.n() / 2));
    }

    #[test]
    fn matching_pipeline_is_deterministic_for_fixed_seed() {
        let mut r = rng(2);
        let g = gnp(300, 0.02, &mut r);
        let a = DistributedMatching::new(4).run(&g, 7).unwrap();
        let b = DistributedMatching::new(4).run(&g, 7).unwrap();
        assert_eq!(a.matching.len(), b.matching.len());
        assert_eq!(a.coreset_sizes, b.coreset_sizes);
    }

    #[test]
    fn vertex_cover_pipeline_end_to_end() {
        let mut r = rng(3);
        let g = gnp(1000, 0.01, &mut r);
        let result = DistributedVertexCover::new(6).run(&g, 99).unwrap();
        assert!(result.cover.covers(&g));
        assert_eq!(result.coreset_sizes.len(), 6);
        assert!(result.total_coreset_size() > 0);
    }

    #[test]
    fn zero_machines_is_an_error() {
        let g = gnp(50, 0.1, &mut rng(4));
        assert!(DistributedMatching::new(0).run(&g, 1).is_err());
        assert!(DistributedVertexCover::new(0).run(&g, 1).is_err());
    }

    #[test]
    fn maximum_beats_adversarial_maximal_on_the_trap_instance() {
        // The Section 1.2 separation: on the trap instance, maximum-matching
        // coresets compose to a near-optimal matching while adversarially
        // chosen maximal-matching coresets are stuck near |C| + (leaked
        // planted edges) ~ n/k.
        let k = 8;
        let n = 400;
        let inst = maximal_matching_trap(n, 1.0 / k as f64).unwrap();
        let avoid = AvoidingMaximalMatchingCoreset::new(inst.planted_matching.iter().copied());
        let good = DistributedMatching::new(k).run(&inst.graph, 5).unwrap();
        let bad = DistributedMatching::with_builder(k, avoid)
            .run(&inst.graph, 5)
            .unwrap();
        assert!(good.matching.is_valid_for(&inst.graph));
        assert!(bad.matching.is_valid_for(&inst.graph));
        assert!(
            good.matching.len() >= 2 * bad.matching.len(),
            "maximum coreset ({}) should beat the adversarial maximal coreset ({}) clearly",
            good.matching.len(),
            bad.matching.len()
        );
        // The good coreset recovers most of the optimum (which is >= n).
        assert!(good.matching.len() * 10 >= 9 * n);
    }

    #[test]
    fn peeling_beats_local_cover_on_star_forests() {
        // The Section 1.2 star separation for vertex cover.
        let g = star_forest(6, 200);
        let k = 10;
        let good = DistributedVertexCover::new(k).run(&g, 11).unwrap();
        let bad = DistributedVertexCover::with_builder(k, LocalCoverCoreset::adversarial())
            .run(&g, 11)
            .unwrap();
        assert!(good.cover.covers(&g));
        assert!(bad.cover.covers(&g));
        assert!(
            bad.cover.len() >= 3 * good.cover.len(),
            "local covers ({}) should be much larger than the composed peeling cover ({})",
            bad.cover.len(),
            good.cover.len()
        );
    }
}
