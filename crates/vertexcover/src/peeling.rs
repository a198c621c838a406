//! The Parnas–Ron iterative peeling process.
//!
//! `VC-Coreset` (paper, Section 3.2) peels vertices of highest residual degree
//! in `O(log n)` rounds: in round `j` every vertex whose degree in the current
//! residual graph is at least a threshold `t_j` is removed and added to the
//! fixed part of the cover, and the thresholds halve each round. The process
//! stops when the threshold reaches `O(log n)` scale, at which point the
//! residual graph has `O(n log n)` edges and is returned as the coreset
//! subgraph.
//!
//! This module implements the *generic* peeling process parameterised by the
//! threshold schedule; the coreset crate instantiates it with the paper's
//! schedule `t_j = n / (k · 2^{j+1})`.
//!
//! The free function runs on the calling thread's reusable
//! [`VcEngine`](crate::engine::VcEngine), which peels each round with one
//! scan of the live candidates and **zero** per-round edge-buffer
//! reallocations. The pre-engine loop lives on only as the dev-only
//! `testkit::peel_with_thresholds_reference`, the baseline the engine is
//! differentially tested against round by round; no shipped crate can reach
//! it.

use crate::cover::VertexCover;
use crate::engine::with_thread_engine;
use graph::{Graph, GraphRef, VertexId};

/// The result of running the peeling process on a graph.
#[derive(Debug, Clone)]
pub struct PeelingOutcome {
    /// Vertices peeled in each round (round `j` corresponds to
    /// `thresholds[j]`).
    pub peeled_per_round: Vec<Vec<VertexId>>,
    /// The thresholds actually used, one per round.
    pub thresholds: Vec<usize>,
    /// The residual graph after the last round.
    pub residual: Graph,
}

impl PeelingOutcome {
    /// All peeled vertices, across rounds, as a cover fragment.
    pub fn peeled_cover(&self) -> VertexCover {
        VertexCover::from_vertices(self.peeled_per_round.iter().flatten().copied())
    }

    /// Total number of peeled vertices.
    pub fn peeled_count(&self) -> usize {
        self.peeled_per_round.iter().map(Vec::len).sum()
    }
}

/// Runs the iterative peeling process on `g` with the given threshold
/// schedule: in round `j`, every vertex whose *current residual degree* is at
/// least `thresholds[j]` is peeled (removed together with its incident edges).
///
/// Returns the peeled vertices per round and the residual graph. Thresholds
/// of zero are skipped (they would peel every vertex and make the outcome
/// trivial).
///
/// Accepts any [`GraphRef`] and runs on the calling thread's reusable
/// [`VcEngine`](crate::engine::VcEngine). The residual preserves the input
/// edge order (exactly what the per-round `remove_vertices` chain would
/// produce).
///
/// **Workspace-reuse invariance:** the output is a pure function of
/// `(g, thresholds)` — the engine's reused scratch is epoch-stamped, so
/// peeling after any sequence of earlier solves returns the same rounds,
/// vertex for vertex, as a fresh engine would
/// (`tests/engine_equivalence.rs` pins this property).
pub fn peel_with_thresholds<G: GraphRef + ?Sized>(g: &G, thresholds: &[usize]) -> PeelingOutcome {
    with_thread_engine(|engine| engine.peel_with_thresholds(g, thresholds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::two_approx_cover;
    use graph::gen::er::gnp;
    use graph::gen::structured::{star, star_forest};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::{exact_cover_branch_and_bound, parnas_ron_schedule};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Peels `g` at the classic Parnas–Ron schedule down to `stop_at`.
    fn parnas_ron_peeling(g: &Graph, stop_at: usize) -> PeelingOutcome {
        peel_with_thresholds(g, &parnas_ron_schedule(g.n(), stop_at))
    }

    #[test]
    fn peeling_reduces_max_degree() {
        let g = star(100); // centre has degree 100
        let outcome = parnas_ron_peeling(&g, 4);
        // The centre must be peeled in the first round (threshold 50).
        assert!(outcome.peeled_per_round[0].contains(&0));
        assert!(outcome.residual.max_degree() <= 4 * 2);
        assert!(outcome.peeled_cover().contains(0));
    }

    #[test]
    fn residual_plus_peeled_covers_the_graph() {
        for seed in 0..5 {
            let g = gnp(60, 0.15, &mut rng(seed));
            let outcome = parnas_ron_peeling(&g, 2);
            let mut cover = outcome.peeled_cover();
            let residual_cover = two_approx_cover(&outcome.residual);
            cover.extend_from(&residual_cover);
            assert!(
                cover.covers(&g),
                "seed {seed}: peeled + residual 2-approx must cover"
            );
        }
    }

    #[test]
    fn peeled_vertices_are_not_too_many_on_small_graphs() {
        // The peeled set is O(log n) * OPT; on small random graphs check a
        // generous multiple.
        for seed in 0..5 {
            let g = gnp(30, 0.2, &mut rng(seed + 10));
            let outcome = parnas_ron_peeling(&g, 2);
            let opt = exact_cover_branch_and_bound(&g).len().max(1);
            let log_n = (g.n() as f64).ln().ceil() as usize;
            assert!(
                outcome.peeled_count() <= 4 * log_n * opt,
                "seed {seed}: peeled {} vs bound {}",
                outcome.peeled_count(),
                4 * log_n * opt
            );
        }
    }

    #[test]
    fn thresholds_are_decreasing_and_skip_zero() {
        let g = gnp(64, 0.1, &mut rng(3));
        let outcome = parnas_ron_peeling(&g, 2);
        for w in outcome.thresholds.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(outcome.thresholds.iter().all(|&t| t > 0));

        let custom = peel_with_thresholds(&g, &[10, 0, 5]);
        assert_eq!(custom.thresholds, vec![10, 5]);
    }

    #[test]
    fn star_forest_peels_only_centres_eventually() {
        let g = star_forest(5, 40);
        let outcome = peel_with_thresholds(&g, &[20, 10]);
        let peeled = outcome.peeled_cover();
        // Every centre has degree 40 >= 20, so all five centres are peeled in
        // round one; leaves have degree 1 and never reach a threshold.
        assert_eq!(peeled.len(), 5);
        assert!(outcome.residual.is_empty());
    }

    #[test]
    fn empty_graph_is_a_fixed_point() {
        let g = Graph::empty(10);
        let outcome = parnas_ron_peeling(&g, 2);
        assert_eq!(outcome.peeled_count(), 0);
        assert!(outcome.residual.is_empty());
    }

    #[test]
    fn reference_path_matches_engine() {
        let g = gnp(200, 0.05, &mut rng(4));
        let schedule = parnas_ron_schedule(g.n(), 4);
        let engine_out = peel_with_thresholds(&g, &schedule);
        let reference = testkit::peel_with_thresholds_reference(&g, &schedule);
        assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
        assert_eq!(engine_out.thresholds, reference.thresholds);
        assert_eq!(engine_out.residual, reference.residual);
    }
}
