//! Matching coresets: the paper's positive result and its controls.
//!
//! * [`MaximumMatchingCoreset`] — **Theorem 1**: any maximum matching of the
//!   piece `G^(i)` is an O(1)-approximation randomized composable coreset of
//!   size O(n). The coreset *is* the matching, viewed as a subgraph.
//! * [`MaximalMatchingCoreset`] — the negative control from Section 1.2: an
//!   arbitrary (adversarially ordered) maximal matching, which composes to
//!   only an `Ω(k)`-approximation on the trap instances.
//! * [`SubsampledMatchingCoreset`] — **Remark 5.2**: subsample the maximum
//!   matching keeping each edge with probability `1/α`; the composition is an
//!   α-approximation with total communication `Õ(nk/α²)`.

use crate::compose::solve_composed_matching;
use crate::params::CoresetParams;
use graph::{Csr, Edge, Graph, GraphView};
use matching::greedy::{maximal_matching, maximal_matching_by_key};
use matching::maximum::maximum_matching;
use rand_chacha::ChaCha8Rng;

/// A builder that turns one machine's piece `G^(i)` into its matching coreset
/// (a subgraph of the piece, to be unioned at the coordinator).
pub trait MatchingCoresetBuilder: Send + Sync {
    /// Builds the coreset subgraph of `piece`.
    ///
    /// `piece` is a **zero-copy view** into the run's partition arena
    /// ([`graph::PartitionedGraph`]) — builders never receive (or clone) an
    /// owned per-machine graph. `params` carries the global `n` and `k`;
    /// `machine` is this machine's index. `rng` is this machine's **private**
    /// random stream, derived by the protocol runner from `(seed, machine)`
    /// via [`crate::streams::machine_rng`] *before* the parallel fan-out, so
    /// a builder's output depends only on its inputs — never on thread count
    /// or scheduling. Deterministic builders simply ignore it.
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph;

    /// Merges tree node `node`'s `group` of child coresets (edge-disjoint
    /// subgraphs over `0..n`, in child order) into one coreset. `rng` is the
    /// node's private stream, derived from `(seed, level, node)` by
    /// [`crate::tree::merge_matching_coresets`].
    ///
    /// The default builds the coreset of the children's union, as if it were
    /// one machine's piece.
    fn merge(
        &self,
        n: usize,
        group: &[Graph],
        params: &CoresetParams,
        node: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        let total: usize = group.iter().map(Graph::m).sum();
        // The union buffer is the merge's working set: `fan_in` coresets'
        // worth of edges, handed to the builder as one contiguous view.
        let mut union = Vec::with_capacity(total); // xtask: allow(hot-path-alloc)
        for g in group {
            union.extend_from_slice(g.edges());
        }
        self.build(GraphView::new(n, &union), params, node, rng)
    }

    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;
}

/// A borrowed builder builds the same coresets, so drivers can wrap a
/// caller's `&B` in a [`crate::problem::MatchingProblem`].
impl<B: MatchingCoresetBuilder + ?Sized> MatchingCoresetBuilder for &B {
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        (**self).build(piece, params, machine, rng)
    }

    fn merge(
        &self,
        n: usize,
        group: &[Graph],
        params: &CoresetParams,
        node: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        (**self).merge(n, group, params, node, rng)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Theorem 1 coreset: an arbitrary maximum matching of the piece.
///
/// The solve runs on the calling worker thread's reusable
/// [`matching::MatchingEngine`] (vertex compaction, forced degree-one edges,
/// and only if they leave a core one sorted CSR and the blossom search on
/// the epoch-reset workspace), so building many coresets on one thread
/// allocates the solver state once. Theorem 1 allows any maximum matching,
/// and the forced edges make one cheap to reach: on sparse pieces they are
/// usually the whole coreset.
///
/// A tree merge composes its children exactly as the coordinator's root
/// does ([`crate::compose::solve_composed_matching`]). Two children that are
/// matchings take the engine's alternating-path walk
/// ([`matching::MatchingEngine::merge_pair`]), which keeps the first largest
/// child and switches in every path whose two end edges lie in the other.
/// Larger groups, or children that are not matchings, run the engine's
/// solve on the union.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaximumMatchingCoreset;

impl MaximumMatchingCoreset {
    /// The Theorem 1 coreset builder.
    pub fn new() -> Self {
        MaximumMatchingCoreset
    }
}

impl MatchingCoresetBuilder for MaximumMatchingCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        _params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> Graph {
        let m = maximum_matching(&piece);
        // A matching is trivially simple; wrap it without a validation pass.
        Graph::from_edges_unchecked(piece.n(), m.into_edges())
    }

    fn merge(
        &self,
        n: usize,
        group: &[Graph],
        _params: &CoresetParams,
        _node: usize,
        _rng: &mut ChaCha8Rng,
    ) -> Graph {
        let m = solve_composed_matching(group);
        Graph::from_edges_unchecked(n, m.into_edges())
    }

    fn name(&self) -> &'static str {
        "maximum-matching"
    }
}

/// Negative control: an arbitrary maximal matching of the piece.
///
/// `adversarial_low_ids_first = true` reproduces the paper's Ω(k) separation
/// on the trap instance by scanning edges in an order that prefers edges
/// incident on low-numbered "trap" vertices; with `false` the input edge order
/// is used (still only 2-approximate locally, and still poor in composition).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaximalMatchingCoreset {
    /// Whether to sort edges so that high-vertex-id endpoints (the trap block
    /// in [`graph::gen::hard::maximal_matching_trap`]) are matched first.
    pub adversarial_prefer_high_ids: bool,
}

impl MaximalMatchingCoreset {
    /// Maximal matching in input order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximal matching with the adversarial order that prefers edges whose
    /// larger endpoint is as high as possible (the trap edges).
    pub fn adversarial() -> Self {
        MaximalMatchingCoreset {
            adversarial_prefer_high_ids: true,
        }
    }
}

impl MatchingCoresetBuilder for MaximalMatchingCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        _params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> Graph {
        let m = if self.adversarial_prefer_high_ids {
            // Sort key is descending in the larger endpoint: trap vertices sit
            // at the top of the id range in the trap instance.
            maximal_matching_by_key(&piece, |e: &Edge| std::cmp::Reverse(e.v))
        } else {
            maximal_matching(&piece)
        };
        Graph::from_edges_unchecked(piece.n(), m.into_edges())
    }

    fn name(&self) -> &'static str {
        if self.adversarial_prefer_high_ids {
            "maximal-matching-adversarial"
        } else {
            "maximal-matching"
        }
    }
}

/// Worst-case negative control: a maximal matching chosen *adversarially
/// against a known target matching* (for instance the planted perfect matching
/// of the trap instance).
///
/// The paper's Section 1.2 claim is that an **arbitrary** maximal matching is
/// only an `Ω(k)`-approximate coreset, i.e. there *exists* a choice of maximal
/// matchings whose composition is that bad. This builder realises the bad
/// choice: for every avoided edge present in the piece it first matches one of
/// that edge's endpoints to some other neighbour (blocking the avoided edge),
/// and then completes to a maximal matching preferring non-avoided edges. The
/// output is always a legitimate maximal matching of the piece.
#[derive(Debug, Clone, Default)]
pub struct AvoidingMaximalMatchingCoreset {
    /// The edges the adversary tries to keep out of the matching.
    pub avoid: std::collections::BTreeSet<Edge>,
}

impl AvoidingMaximalMatchingCoreset {
    /// Creates an adversarial builder avoiding the given edges.
    pub fn new<I: IntoIterator<Item = Edge>>(avoid: I) -> Self {
        AvoidingMaximalMatchingCoreset {
            avoid: avoid.into_iter().collect(),
        }
    }
}

impl MatchingCoresetBuilder for AvoidingMaximalMatchingCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        _params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> Graph {
        let adj = Csr::from_ref(&piece);
        let mut matched = vec![false; piece.n()];
        let mut chosen: Vec<Edge> = Vec::new();

        // Phase 1: actively block every avoided edge that is present locally
        // by matching one of its endpoints along a non-avoided edge.
        for e in piece.edges() {
            if !self.avoid.contains(e) {
                continue;
            }
            if matched[e.u as usize] || matched[e.v as usize] {
                continue; // already blocked
            }
            'endpoints: for &endpoint in &[e.u, e.v] {
                for &nbr in adj.neighbors(endpoint) {
                    let candidate = Edge::new(endpoint, nbr);
                    if self.avoid.contains(&candidate) {
                        continue;
                    }
                    if !matched[nbr as usize] && !matched[endpoint as usize] {
                        matched[endpoint as usize] = true;
                        matched[nbr as usize] = true;
                        chosen.push(candidate);
                        break 'endpoints;
                    }
                }
            }
        }

        // Phase 2: complete to a maximal matching, non-avoided edges first.
        for e in piece.edges() {
            if self.avoid.contains(e) {
                continue;
            }
            if !matched[e.u as usize] && !matched[e.v as usize] {
                matched[e.u as usize] = true;
                matched[e.v as usize] = true;
                chosen.push(*e);
            }
        }
        for e in piece.edges() {
            if !matched[e.u as usize] && !matched[e.v as usize] {
                matched[e.u as usize] = true;
                matched[e.v as usize] = true;
                chosen.push(*e);
            }
        }

        Graph::from_edges_unchecked(piece.n(), chosen)
    }

    fn name(&self) -> &'static str {
        "maximal-matching-avoiding"
    }
}

/// Remark 5.2 coreset: a maximum matching of the piece, subsampled edge-wise
/// with probability `1/alpha`.
///
/// Composing the subsampled coresets yields an `O(alpha)`-approximation while
/// the per-machine communication drops to `O(n / alpha)` edges in expectation
/// (total `Õ(nk/alpha²)` when each machine's matching has size `O(n/alpha)`,
/// which is the regime of the tight lower bound).
#[derive(Debug, Clone, Copy)]
pub struct SubsampledMatchingCoreset {
    /// The target approximation factor `alpha >= 1`.
    pub alpha: f64,
}

impl SubsampledMatchingCoreset {
    /// Creates the Remark 5.2 coreset for approximation target `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha >= 1.0, "alpha must be at least 1, got {alpha}");
        SubsampledMatchingCoreset { alpha }
    }
}

impl MatchingCoresetBuilder for SubsampledMatchingCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        _params: &CoresetParams,
        _machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        use rand::Rng;
        let m = maximum_matching(&piece);
        // The subsampling consumes this machine's private stream: independent
        // across machines, reproducible for a fixed seed, and identical no
        // matter how the machines are scheduled onto threads.
        let keep_p = 1.0 / self.alpha;
        let kept: Vec<Edge> = m
            .into_edges()
            .into_iter()
            .filter(|_| rng.gen_bool(keep_p))
            .collect();
        Graph::from_edges_unchecked(piece.n(), kept)
    }

    fn name(&self) -> &'static str {
        "subsampled-maximum-matching"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::partition::PartitionedGraph;
    use graph::GraphRef;
    use matching::matching::Matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn params(n: usize, k: usize) -> CoresetParams {
        CoresetParams::new(n, k)
    }

    /// Machine 0's private stream for an arbitrary fixed test seed.
    fn mrng(machine: usize) -> ChaCha8Rng {
        crate::streams::machine_rng(0, machine)
    }

    #[test]
    fn maximum_coreset_is_a_maximum_matching_of_the_piece() {
        let mut r = rng(1);
        let g = gnp(120, 0.05, &mut r);
        let part = PartitionedGraph::random(&g, 4, &mut r).unwrap();
        let piece = part.piece(0);
        let coreset = MaximumMatchingCoreset::new().build(piece, &params(120, 4), 0, &mut mrng(0));
        // The coreset is a subgraph of the piece and forms a matching.
        let piece_edges: std::collections::HashSet<_> = piece.edges().iter().collect();
        assert!(coreset.edges().iter().all(|e| piece_edges.contains(e)));
        assert!(Matching::try_from_edges(coreset.edges().to_vec()).is_some());
        // Its size equals the maximum matching size of the piece.
        let opt = matching::maximum::maximum_matching(&piece).len();
        assert_eq!(coreset.m(), opt);
    }

    #[test]
    fn coreset_size_is_at_most_n_over_2() {
        let mut r = rng(2);
        let g = gnp(200, 0.1, &mut r);
        let coreset =
            MaximumMatchingCoreset::new().build(g.as_view(), &params(200, 1), 0, &mut mrng(0));
        assert!(coreset.m() <= 100, "a matching has at most n/2 edges");
    }

    #[test]
    fn maximal_coreset_is_maximal_in_the_piece() {
        let mut r = rng(3);
        let g = gnp(100, 0.06, &mut r);
        let coreset =
            MaximalMatchingCoreset::new().build(g.as_view(), &params(100, 1), 0, &mut mrng(0));
        let m = Matching::try_from_edges(coreset.edges().to_vec()).unwrap();
        assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn adversarial_order_prefers_high_ids() {
        // Path 0-1-2 plus edge 1-3: adversarial prefers (1,3) over (0,1)/(1,2).
        let g = Graph::from_pairs(4, vec![(0, 1), (1, 2), (1, 3)]).unwrap();
        let coreset = MaximalMatchingCoreset::adversarial().build(
            g.as_view(),
            &params(4, 1),
            0,
            &mut mrng(0),
        );
        assert!(coreset.has_edge(1, 3));
    }

    #[test]
    fn subsampled_coreset_is_smaller() {
        let mut r = rng(4);
        let g = gnp(600, 0.02, &mut r);
        let full =
            MaximumMatchingCoreset::new().build(g.as_view(), &params(600, 1), 0, &mut mrng(0));
        let sub = SubsampledMatchingCoreset::new(4.0).build(
            g.as_view(),
            &params(600, 1),
            0,
            &mut mrng(0),
        );
        assert!(sub.m() < full.m());
        // Expected to keep about 1/4 of the edges; allow wide slack.
        assert!(sub.m() as f64 > full.m() as f64 * 0.05);
        assert!((sub.m() as f64) < full.m() as f64 * 0.6);
    }

    #[test]
    fn subsampled_alpha_one_keeps_everything() {
        let mut r = rng(5);
        let g = gnp(100, 0.05, &mut r);
        let full =
            MaximumMatchingCoreset::new().build(g.as_view(), &params(100, 1), 0, &mut mrng(0));
        let sub = SubsampledMatchingCoreset::new(1.0).build(
            g.as_view(),
            &params(100, 1),
            0,
            &mut mrng(0),
        );
        assert_eq!(full.m(), sub.m());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn subsampled_rejects_alpha_below_one() {
        let _ = SubsampledMatchingCoreset::new(0.5);
    }

    fn merge_of(group: &[Graph]) -> Vec<Edge> {
        let n = group[0].n();
        let merged = MaximumMatchingCoreset::new().merge(n, group, &params(n, 2), 0, &mut mrng(0));
        let mut edges = merged.edges().to_vec();
        edges.sort_unstable();
        edges
    }

    /// The engine's solve of the group's materialized union: its forced
    /// edges, then blossom on what they leave.
    fn union_solve(group: &[Graph]) -> Vec<Edge> {
        let union = Graph::union(&group.iter().collect::<Vec<_>>());
        let mut edges = matching::maximum::maximum_matching(&union).into_edges();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn pair_merge_warm_starts_from_the_first_largest_child() {
        // Path 0-1-2-3-4-5 split into x = {01, 23, 45} and y = {12, 34}: the
        // warm start keeps itself, so the larger child wins whole, and on a
        // tie the first child does.
        let x = Graph::from_pairs(6, vec![(0, 1), (2, 3), (4, 5)]).unwrap();
        let y = Graph::from_pairs(6, vec![(1, 2), (3, 4)]).unwrap();
        assert_eq!(merge_of(&[x.clone(), y.clone()]), x.edges());
        assert_eq!(merge_of(&[y.clone(), x.clone()]), x.edges());
        // Path 0-1-2-3-4 split into p = {01, 23} and q = {12, 34}: equal
        // sizes, both maximum, so the first child is the answer.
        let p = Graph::from_pairs(5, vec![(0, 1), (2, 3)]).unwrap();
        let q = Graph::from_pairs(5, vec![(1, 2), (3, 4)]).unwrap();
        assert_eq!(merge_of(&[p.clone(), q.clone()]), p.edges());
        assert_eq!(merge_of(&[q.clone(), p.clone()]), q.edges());
        // An empty child contributes nothing.
        assert_eq!(merge_of(&[Graph::empty(6), y.clone()]), y.edges());
        assert_eq!(merge_of(&[y.clone(), Graph::empty(6)]), y.edges());
    }

    /// Groups the walk cannot take run the engine's solve on their union,
    /// whose only seeds (its warm start) are the union's forced edges.
    #[test]
    fn merges_the_walk_cannot_take_run_the_warm_started_solve() {
        let mut r = rng(6);
        let g = gnp(150, 0.04, &mut r);
        let part = PartitionedGraph::random(&g, 3, &mut r).unwrap();
        let coresets: Vec<Graph> = part
            .views()
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                MaximumMatchingCoreset::new().build(*piece, &params(150, 3), i, &mut mrng(i))
            })
            .collect();
        // Three children: the seeded solve of their union.
        assert_eq!(merge_of(&coresets), union_solve(&coresets));
        // A child that is not a matching (a whole piece): the same solve.
        let piece = Graph::from_edges_unchecked(150, part.piece(1).edges().to_vec());
        assert!(!matching::matching::edges_form_matching(piece.edges()));
        for pair in [
            [coresets[0].clone(), piece.clone()],
            [piece, coresets[2].clone()],
        ] {
            assert_eq!(merge_of(&pair), union_solve(&pair));
        }
    }

    #[test]
    fn builders_report_names() {
        assert_eq!(MaximumMatchingCoreset::new().name(), "maximum-matching");
        assert_eq!(MaximalMatchingCoreset::new().name(), "maximal-matching");
        assert_eq!(
            MaximalMatchingCoreset::adversarial().name(),
            "maximal-matching-adversarial"
        );
        assert_eq!(
            SubsampledMatchingCoreset::new(2.0).name(),
            "subsampled-maximum-matching"
        );
    }

    #[test]
    fn empty_piece_produces_empty_coreset() {
        let g = Graph::empty(10);
        assert!(MaximumMatchingCoreset::new()
            .build(g.as_view(), &params(10, 2), 0, &mut mrng(0))
            .is_empty());
        assert!(MaximalMatchingCoreset::new()
            .build(g.as_view(), &params(10, 2), 0, &mut mrng(0))
            .is_empty());
        assert!(SubsampledMatchingCoreset::new(2.0)
            .build(g.as_view(), &params(10, 2), 0, &mut mrng(0))
            .is_empty());
    }
}
