//! Size-capped coresets for the lower-bound experiments (Theorems 3 and 4).
//!
//! The paper's lower bounds say that *no* randomized composable coreset of
//! size `o(n/α²)` (matching) or `o(n/α)` (vertex cover) can achieve an
//! `α`-approximation. The lower bounds cannot be "run", but their *shape* can
//! be observed: cap the size of a (good) coreset below the threshold and watch
//! the approximation collapse on the hard distributions. These helpers apply
//! such caps deterministically (keeping a uniformly random subset of the
//! coreset would only add noise; the cap keeps the first `cap` items, which is
//! equivalent for the symmetric hard distributions).
//!
//! The underlying coreset constructions run on the worker thread's reusable
//! engines (`matching::MatchingEngine` for the matching coreset,
//! `vertexcover::VcEngine` for the peeling coreset), so the capped wrappers
//! inherit the engines' allocation-free hot paths; only the cap itself
//! copies (a bounded prefix of) the coreset.

use crate::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use crate::params::CoresetParams;
use crate::vc_coreset::VcCoresetOutput;
use graph::{Graph, GraphView};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A maximum-matching coreset truncated to at most `cap` edges per machine —
/// the builder the Theorem 3 lower-bound experiments (E5) and their
/// regression tests share. The truncation keeps a uniformly random subset of
/// the matching's edges, drawn from the machine's private stream.
#[derive(Debug, Clone, Copy)]
pub struct CappedMatchingCoreset {
    /// Maximum number of edges each machine may send (at least 1).
    pub cap: usize,
}

impl CappedMatchingCoreset {
    /// Creates a capped builder; a cap of 0 is clamped to 1 so every machine
    /// still sends something.
    pub fn new(cap: usize) -> Self {
        CappedMatchingCoreset { cap: cap.max(1) }
    }
}

impl MatchingCoresetBuilder for CappedMatchingCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        let full = MaximumMatchingCoreset::new().build(piece, params, machine, rng);
        cap_matching_coreset(&full, self.cap, rng)
    }

    fn name(&self) -> &'static str {
        "capped-maximum-matching"
    }
}

/// Caps a matching coreset (a subgraph) at `cap` edges, keeping a uniformly
/// random subset of its edges.
pub fn cap_matching_coreset<R: Rng + ?Sized>(coreset: &Graph, cap: usize, rng: &mut R) -> Graph {
    if coreset.m() <= cap {
        return coreset.clone();
    }
    let mut edges = coreset.edges().to_vec();
    edges.shuffle(rng);
    edges.truncate(cap);
    // A subset of a simple graph's edges is simple; keep the shuffled order.
    Graph::from_edges_unchecked(coreset.n(), edges)
}

/// Caps a vertex-cover coreset at a total size of `cap` (fixed vertices count
/// first, then residual edges), keeping uniformly random subsets.
pub fn cap_vc_coreset<R: Rng + ?Sized>(
    output: &VcCoresetOutput,
    cap: usize,
    rng: &mut R,
) -> VcCoresetOutput {
    if output.size() <= cap {
        return output.clone();
    }
    let mut fixed = output.fixed_vertices.clone();
    fixed.shuffle(rng);
    fixed.truncate(cap);
    let remaining = cap - fixed.len();
    let mut edges = output.residual.edges().to_vec();
    edges.shuffle(rng);
    edges.truncate(remaining);
    VcCoresetOutput {
        fixed_vertices: fixed,
        residual: Graph::from_edges_unchecked(output.residual.n(), edges),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matching_cap_enforced() {
        let mut r = rng(1);
        let g = gnp(200, 0.05, &mut r);
        let capped = cap_matching_coreset(&g, 10, &mut r);
        assert_eq!(capped.m(), 10);
        let orig: std::collections::HashSet<_> = g.edges().iter().collect();
        assert!(capped.edges().iter().all(|e| orig.contains(e)));

        // Cap above the size is a no-op.
        let uncapped = cap_matching_coreset(&g, g.m() + 5, &mut r);
        assert_eq!(uncapped.m(), g.m());
    }

    #[test]
    fn vc_cap_counts_vertices_and_edges() {
        let mut r = rng(2);
        let residual = gnp(100, 0.1, &mut r);
        let out = VcCoresetOutput {
            fixed_vertices: (0..50).collect(),
            residual,
        };
        let capped = cap_vc_coreset(&out, 60, &mut r);
        assert_eq!(capped.size(), 60);
        assert_eq!(
            capped.fixed_vertices.len(),
            50,
            "fixed vertices are kept first"
        );
        assert_eq!(capped.residual.m(), 10);

        let tight = cap_vc_coreset(&out, 20, &mut r);
        assert_eq!(tight.size(), 20);
        assert_eq!(tight.fixed_vertices.len(), 20);
        assert_eq!(tight.residual.m(), 0);
    }

    #[test]
    fn zero_cap_produces_empty_coreset() {
        let mut r = rng(3);
        let g = gnp(50, 0.2, &mut r);
        assert_eq!(cap_matching_coreset(&g, 0, &mut r).m(), 0);
        let out = VcCoresetOutput {
            fixed_vertices: vec![1, 2, 3],
            residual: g,
        };
        assert_eq!(cap_vc_coreset(&out, 0, &mut r).size(), 0);
    }
}
