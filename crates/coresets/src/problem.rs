//! One interface for the protocol's two problems.
//!
//! The paper's protocol is one algorithm — randomly partition the edges,
//! summarize every piece with a coreset, compose the summaries — stated
//! generically by Mirrokni–Zadimoghaddam (1506.06715). [`Problem`] is that
//! statement: every protocol driver is written once against it, and the two
//! problems are thin wrappers over the builder traits. They are wrappers
//! rather than blanket impls because one type may implement both
//! [`MatchingCoresetBuilder`] and [`VcCoresetBuilder`].

use crate::compose::{compose_vertex_cover_refs, solve_composed_matching_refs};
use crate::matching_coreset::MatchingCoresetBuilder;
use crate::params::CoresetParams;
use crate::streams::machine_jobs;
use crate::tree::{merge_matching_coresets, merge_vc_coresets};
use crate::vc_coreset::{VcCoresetBuilder, VcCoresetOutput};
use graph::{Graph, GraphView};
use matching::matching::Matching;
use matching::maximum::MaximumMatchingAlgorithm;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use vertexcover::VertexCover;

/// A problem the randomized-composable-coreset protocol solves: how a machine
/// summarizes its piece, how a tree node re-summarizes a group of summaries,
/// and how the coordinator turns the final summaries into an answer.
///
/// Every method must be a pure function of its arguments (randomness comes
/// only from the `rng` handed to [`Problem::build`] and the `(seed, level,
/// node)` stream inside [`Problem::merge`]); that is what keeps every driver
/// bit-identical across thread counts and schedules.
pub trait Problem: Sync {
    /// One machine's coreset: the message it sends to the coordinator.
    type Summary: Clone + Send + Sync;
    /// The coordinator's output.
    type Answer;

    /// Builds machine `machine`'s summary of `piece` on its private stream.
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self::Summary;

    /// Re-summarizes tree node `(level, node)`'s `group` into one summary,
    /// drawing randomness from `node_rng(seed, level, node)`.
    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<Self::Summary>,
    ) -> Self::Summary;

    /// The coordinator's composition of the final summaries into an answer.
    fn compose(&self, roots: &[&Self::Summary]) -> Self::Answer;

    /// `(edges, vertex ids)` a summary sends as its message.
    fn message(summary: &Self::Summary) -> (usize, usize);

    /// The empty summary a lost machine contributes: it keeps the tree's
    /// shape and its `(level, node)` streams while adding nothing.
    fn placeholder(n: usize) -> Self::Summary;

    /// Size of an answer (matched edges or cover vertices).
    fn answer_len(answer: &Self::Answer) -> usize;

    /// Extra passes over the root edges the root composition holds as
    /// resident scratch, on top of the roots themselves.
    const ROOT_SCRATCH_PASSES: usize;

    /// Builds every piece's summary on the work-stealing pool, machine `i`
    /// on its `machine_rng(seed, i)` stream; results come back in machine
    /// order.
    fn build_all(
        &self,
        pieces: &[GraphView<'_>],
        params: &CoresetParams,
        seed: u64,
    ) -> Vec<Self::Summary> {
        machine_jobs(pieces, seed)
            .into_par_iter()
            .map(|(i, piece, mut rng)| self.build(*piece, params, i, &mut rng))
            .collect()
    }

    /// [`Problem::compose`] over owned summaries.
    fn compose_all(&self, summaries: &[Self::Summary]) -> Self::Answer {
        let refs: Vec<&Self::Summary> = summaries.iter().collect();
        self.compose(&refs)
    }
}

/// Maximum matching (Theorem 1): summaries are matching coresets, composed
/// by a maximum matching of their union.
#[derive(Debug, Clone, Copy)]
pub struct MatchingProblem<B>(pub B);

impl<B: MatchingCoresetBuilder> Problem for MatchingProblem<B> {
    type Summary = Graph;
    type Answer = Matching;
    /// The root solve compacts the root union once more.
    const ROOT_SCRATCH_PASSES: usize = 1;

    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        self.0.build(piece, params, machine, rng)
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
        merge_matching_coresets(n, params, &self.0, seed, level, node, &group)
    }

    fn compose(&self, roots: &[&Graph]) -> Matching {
        solve_composed_matching_refs(roots, MaximumMatchingAlgorithm::Auto)
    }

    fn message(summary: &Graph) -> (usize, usize) {
        (summary.m(), 0)
    }

    fn placeholder(n: usize) -> Graph {
        Graph::empty(n)
    }

    fn answer_len(answer: &Matching) -> usize {
        answer.len()
    }
}

/// Minimum vertex cover (Theorem 2): summaries are fixed vertices plus a
/// residual subgraph, composed by a 2-approximate cover of the residual
/// union plus every fixed vertex.
#[derive(Debug, Clone, Copy)]
pub struct VcProblem<B>(pub B);

impl<B: VcCoresetBuilder> Problem for VcProblem<B> {
    type Summary = VcCoresetOutput;
    type Answer = VertexCover;
    /// The 2-approximation scans the residual slices in place.
    const ROOT_SCRATCH_PASSES: usize = 0;

    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        self.0.build(piece, params, machine, rng)
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
        merge_vc_coresets(n, params, &self.0, seed, level, node, group)
    }

    fn compose(&self, roots: &[&VcCoresetOutput]) -> VertexCover {
        compose_vertex_cover_refs(roots)
    }

    fn message(summary: &VcCoresetOutput) -> (usize, usize) {
        (summary.residual.m(), summary.fixed_vertices.len())
    }

    fn placeholder(n: usize) -> VcCoresetOutput {
        VcCoresetOutput {
            fixed_vertices: Vec::new(),
            residual: Graph::empty(n),
        }
    }

    fn answer_len(answer: &VertexCover) -> usize {
        answer.len()
    }
}
