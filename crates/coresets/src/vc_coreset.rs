//! Vertex-cover coresets: the peeling coreset of Theorem 2 and its controls.
//!
//! * [`PeelingVcCoreset`] — **Theorem 2** / algorithm `VC-Coreset`: peel the
//!   highest-residual-degree vertices in `Δ - 1` rounds with thresholds
//!   `n / (k · 2^{j+1})`, output the peeled vertices as a *fixed* part of the
//!   final cover plus the residual (sparse) subgraph as the coreset.
//! * [`LocalCoverCoreset`] — the negative control from Section 1.2: each
//!   machine outputs (only) a vertex cover of its own piece; on star-like
//!   instances the union is `Ω(k)` times larger than the optimum.
//! * [`GroupedVcCoreset`] — **Remark 5.8**: group vertices into groups of
//!   `Θ(α / log n)`, run the Theorem 2 coreset on the contracted graph, and
//!   expand groups back; an `α`-approximation with `Õ(nk/α)` communication.
//!
//! Every peeling and 2-approximation call below runs on the calling worker
//! thread's reusable `vertexcover::VcEngine` (via the `vertexcover` free
//! functions): the bucket-queue peeling core performs zero per-round
//! edge-buffer reallocations. Engine outputs are invariant under workspace
//! reuse, so this sharing never affects the cross-thread-count determinism
//! guarantee (`tests/determinism.rs`).

use crate::params::CoresetParams;
use graph::{Graph, GraphView, VertexId};
use rand_chacha::ChaCha8Rng;
use vertexcover::approx::two_approx_cover;
use vertexcover::peeling::peel_with_thresholds;

/// The output of a vertex-cover coreset on one machine: a fixed set of
/// vertices that will be added verbatim to the final cover, plus a subgraph
/// whose union (across machines) the coordinator still has to cover.
///
/// The paper's size measure counts both parts
/// (Section 1, "Randomized Composable Coresets", final paragraph).
#[derive(Debug, Clone)]
pub struct VcCoresetOutput {
    /// Vertices added directly to the final vertex cover.
    pub fixed_vertices: Vec<VertexId>,
    /// Residual subgraph forwarded to the coordinator.
    pub residual: Graph,
}

impl VcCoresetOutput {
    /// The coreset size as defined by the paper: edges of the subgraph plus
    /// fixed vertices.
    pub fn size(&self) -> usize {
        self.fixed_vertices.len() + self.residual.m()
    }
}

/// A builder that turns one machine's piece `G^(i)` into its vertex-cover
/// coreset.
pub trait VcCoresetBuilder: Send + Sync {
    /// Builds the coreset of `piece`.
    ///
    /// `piece` is a zero-copy view into the run's partition arena — builders
    /// never receive an owned per-machine graph. `rng` is this machine's
    /// private stream, derived from `(seed, machine)` by the protocol runner
    /// before the parallel fan-out (see [`crate::streams::machine_rng`]);
    /// deterministic builders ignore it.
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput;

    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;
}

/// A borrowed builder builds the same coresets, so drivers can wrap a
/// caller's `&B` in a [`crate::problem::VcProblem`].
impl<B: VcCoresetBuilder + ?Sized> VcCoresetBuilder for &B {
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        (**self).build(piece, params, machine, rng)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Theorem 2 coreset (`VC-Coreset` in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct PeelingVcCoreset;

impl PeelingVcCoreset {
    /// Creates the peeling coreset.
    pub fn new() -> Self {
        PeelingVcCoreset
    }
}

impl VcCoresetBuilder for PeelingVcCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        let schedule = params.peeling_schedule();
        let outcome = peel_with_thresholds(&piece, &schedule);
        VcCoresetOutput {
            fixed_vertices: outcome.peeled_per_round.into_iter().flatten().collect(),
            residual: outcome.residual,
        }
    }

    fn name(&self) -> &'static str {
        "peeling-vc-coreset"
    }
}

/// Negative control: each machine sends only a (2-approximate) vertex cover of
/// its own piece, with no edges. Locally this is a fine cover; composed across
/// machines it degrades to `Ω(k)` on stars because each machine may choose a
/// different leaf instead of the shared centre.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalCoverCoreset {
    /// If `true`, break ties adversarially by preferring high vertex ids
    /// (leaves in the star instances) over low ids (centres).
    pub adversarial_prefer_leaves: bool,
}

impl LocalCoverCoreset {
    /// Local 2-approximate cover, natural tie-breaking.
    pub fn new() -> Self {
        Self::default()
    }

    /// Local cover that adversarially prefers leaves over centres, realising
    /// the paper's star counterexample deterministically.
    pub fn adversarial() -> Self {
        LocalCoverCoreset {
            adversarial_prefer_leaves: true,
        }
    }
}

impl VcCoresetBuilder for LocalCoverCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        _params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        let fixed_vertices: Vec<VertexId> = if self.adversarial_prefer_leaves {
            // Cover each edge by its *larger* endpoint (the leaf in star
            // instances where centres have small ids), deduplicated.
            let mut cover: Vec<VertexId> = Vec::new();
            let mut covered = vec![false; piece.n()];
            for e in piece.edges() {
                if !covered[e.u as usize] && !covered[e.v as usize] {
                    let pick = e.v.max(e.u);
                    cover.push(pick);
                    covered[pick as usize] = true;
                }
            }
            cover
        } else {
            two_approx_cover(&piece).sorted_vertices()
        };
        VcCoresetOutput {
            fixed_vertices,
            residual: Graph::empty(piece.n()),
        }
    }

    fn name(&self) -> &'static str {
        if self.adversarial_prefer_leaves {
            "local-cover-adversarial"
        } else {
            "local-cover"
        }
    }
}

/// Remark 5.8 coreset: contract groups of `group_size` consecutive vertices
/// into supervertices, run the peeling coreset on the contracted piece, and
/// expand the answer back to original vertices.
///
/// With `group_size = Θ(α / log n)` the contracted graph has `Θ(n log n / α)`
/// vertices, so the coreset (and hence the per-machine communication) shrinks
/// by a factor `Θ(α / log n)` while the final cover grows by at most the same
/// factor — an `α`-approximation overall.
#[derive(Debug, Clone, Copy)]
pub struct GroupedVcCoreset {
    /// Number of original vertices per supervertex (`>= 1`).
    pub group_size: usize,
}

impl GroupedVcCoreset {
    /// Creates a grouped coreset with the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn new(group_size: usize) -> Self {
        assert!(group_size >= 1, "group size must be at least 1");
        GroupedVcCoreset { group_size }
    }

    /// The paper's parameterisation: groups of `Θ(alpha / log n)` vertices.
    pub fn for_alpha(alpha: f64, n: usize) -> Self {
        let log_n = (n.max(2) as f64).log2();
        Self::new(((alpha / log_n).floor() as usize).max(1))
    }

    /// Maps an original vertex to its supervertex.
    #[inline]
    pub fn group_of(&self, v: VertexId) -> VertexId {
        v / self.group_size as VertexId
    }

    /// Number of supervertices for an `n`-vertex graph.
    pub fn contracted_n(&self, n: usize) -> usize {
        n.div_ceil(self.group_size)
    }

    /// Contracts a graph: every vertex is replaced by its group; self-loops
    /// (edges inside a group) are dropped and parallel edges are merged.
    pub fn contract(&self, g: GraphView<'_>) -> Graph {
        let cn = self.contracted_n(g.n());
        let pairs = g
            .edges()
            .iter()
            .map(|e| (self.group_of(e.u), self.group_of(e.v)))
            .filter(|(a, b)| a != b);
        Graph::from_pairs(cn, pairs).expect("contracted ids are in range by construction")
    }

    /// Expands a set of supervertices back to all their original vertices
    /// (clipped to `0..n`).
    pub fn expand(&self, supervertices: &[VertexId], n: usize) -> Vec<VertexId> {
        let gs = self.group_size as VertexId;
        let mut out = Vec::with_capacity(supervertices.len() * self.group_size);
        for &s in supervertices {
            for off in 0..gs {
                let v = s * gs + off;
                if (v as usize) < n {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl GroupedVcCoreset {
    /// Builds one machine's coreset *in contracted space*: the peeling coreset
    /// of the contracted piece. The coordinator composes these contracted
    /// coresets and only expands the final cover back to original vertices —
    /// exactly the Remark 5.8 protocol, whose communication is measured on the
    /// contracted representation.
    pub fn build_contracted(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        use graph::GraphRef;
        let contracted = self.contract(piece);
        let contracted_params = CoresetParams::new(self.contracted_n(params.n), params.k);
        let mut out =
            PeelingVcCoreset::new().build(contracted.as_view(), &contracted_params, machine, rng);

        // Edges that fall entirely inside a group contract to self-loops; in
        // the multigraph view of Remark 5.8 a self-loop forces its supervertex
        // into every vertex cover, so those supervertices are fixed here.
        let mut has_internal_edge = vec![false; self.contracted_n(piece.n())];
        for e in piece.edges() {
            let (a, b) = (self.group_of(e.u), self.group_of(e.v));
            if a == b {
                has_internal_edge[a as usize] = true;
            }
        }
        let already: std::collections::BTreeSet<VertexId> =
            out.fixed_vertices.iter().copied().collect();
        for (group, flag) in has_internal_edge.iter().enumerate() {
            if *flag && !already.contains(&(group as VertexId)) {
                out.fixed_vertices.push(group as VertexId);
            }
        }
        out
    }

    /// Runs the full Remark 5.8 protocol over all pieces: build contracted
    /// coresets, compose them in contracted space (union of residuals +
    /// 2-approximation + fixed supervertices), and expand the cover to the
    /// original vertex ids.
    ///
    /// Returns the final cover (over original vertices) together with the
    /// per-machine contracted coreset sizes — the quantity charged as
    /// communication in experiment E7.
    pub fn run_protocol(
        &self,
        pieces: &[GraphView<'_>],
        params: &CoresetParams,
        seed: u64,
    ) -> (Vec<VertexId>, Vec<usize>) {
        use rayon::prelude::*;
        // Same fan-out discipline as the protocol drivers: per-machine RNG
        // streams fixed before the parallel stage, outputs in machine order.
        let outputs: Vec<VcCoresetOutput> = crate::streams::machine_jobs(pieces, seed)
            .into_par_iter()
            .map(|(i, p, mut rng)| self.build_contracted(*p, params, i, &mut rng))
            .collect();
        let sizes: Vec<usize> = outputs.iter().map(VcCoresetOutput::size).collect();

        // Coordinator composition in contracted space: 2-approximation over
        // the residual slices (no union materialization) plus the fixed
        // supervertices — the same engine-backed path as
        // `crate::compose::compose_vertex_cover`.
        let contracted_cover = crate::compose::compose_vertex_cover(&outputs);
        let expanded = self.expand(&contracted_cover.sorted_vertices(), params.n);
        (expanded, sizes)
    }

    /// The name used in experiment tables.
    pub fn name(&self) -> &'static str {
        "grouped-vc-coreset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::{star, star_forest};
    use graph::partition::PartitionedGraph;
    use graph::GraphRef;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vertexcover::VertexCover;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Machine `machine`'s private stream for an arbitrary fixed test seed.
    fn mrng(machine: usize) -> ChaCha8Rng {
        crate::streams::machine_rng(0, machine)
    }

    /// Helper: compose coresets the way the coordinator does and check the
    /// result covers the whole graph.
    fn compose_and_check(g: &Graph, outputs: &[VcCoresetOutput]) -> VertexCover {
        let residuals: Vec<&Graph> = outputs.iter().map(|o| &o.residual).collect();
        let union = Graph::union(&residuals);
        let mut cover = two_approx_cover(&union);
        for o in outputs {
            for &v in &o.fixed_vertices {
                cover.insert(v);
            }
        }
        assert!(
            cover.covers(g),
            "composed coreset output must cover the input graph"
        );
        cover
    }

    #[test]
    fn peeling_coreset_composition_covers_random_graphs() {
        let mut r = rng(1);
        let n = 1500;
        let g = gnp(n, 0.01, &mut r);
        let k = 6;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(n, k);
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| PeelingVcCoreset::new().build(p, &params, i, &mut mrng(i)))
            .collect();
        let cover = compose_and_check(&g, &outputs);
        // O(log n) approximation with a generous constant: the optimum is at
        // most n, so just sanity-check the cover is not the whole vertex set.
        assert!(cover.len() < g.n());
    }

    #[test]
    fn peeling_coreset_residual_is_sparse_on_dense_pieces() {
        // A single machine (k = 1) on a dense-ish graph: the residual graph's
        // maximum degree must be bounded by roughly the last threshold.
        let mut r = rng(2);
        let n = 2000;
        let g = gnp(n, 0.05, &mut r);
        let params = CoresetParams::new(n, 1);
        let out = PeelingVcCoreset::new().build(g.as_view(), &params, 0, &mut mrng(0));
        let last_threshold = *params.peeling_schedule().last().unwrap_or(&usize::MAX);
        assert!(
            out.residual.max_degree() <= last_threshold.max(8 * (n as f64).log2() as usize),
            "residual max degree {} should be below the final peeling threshold {}",
            out.residual.max_degree(),
            last_threshold
        );
        // Peeled vertices exist because the graph has high-degree vertices.
        assert!(!out.fixed_vertices.is_empty());
        assert!(out.size() >= out.fixed_vertices.len());
    }

    #[test]
    fn peeling_on_small_piece_peels_nothing() {
        // When n/k is below the 4 log n cut-off there are no rounds at all and
        // the whole piece is forwarded (still only O(n log n) edges).
        let g = star(20);
        let params = CoresetParams::new(21, 8);
        let out = PeelingVcCoreset::new().build(g.as_view(), &params, 0, &mut mrng(0));
        assert!(out.fixed_vertices.is_empty());
        assert_eq!(out.residual.m(), g.m());
    }

    #[test]
    fn local_cover_coreset_covers_locally_but_blows_up_on_stars() {
        // Star forest with large stars split across k machines.
        let g = star_forest(4, 64);
        let k = 8;
        let mut r = rng(3);
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let adversarial = LocalCoverCoreset::adversarial();
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| adversarial.build(p, &params, i, &mut mrng(i)))
            .collect();
        // The union of local covers does cover the graph...
        let cover = compose_and_check(&g, &outputs);
        // ...but it is far larger than the optimum (4 centres).
        assert!(
            cover.len() >= 4 * 4,
            "adversarial local covers should be much larger than the 4-vertex optimum, got {}",
            cover.len()
        );
    }

    #[test]
    fn grouped_coreset_basics() {
        let grouped = GroupedVcCoreset::new(4);
        assert_eq!(grouped.group_of(0), 0);
        assert_eq!(grouped.group_of(3), 0);
        assert_eq!(grouped.group_of(4), 1);
        assert_eq!(grouped.contracted_n(10), 3);
        assert_eq!(grouped.expand(&[1], 10), vec![4, 5, 6, 7]);
        assert_eq!(grouped.expand(&[2], 10), vec![8, 9]);

        let g = star(15); // centre 0, leaves 1..=15
        let contracted = grouped.contract(g.as_view());
        assert_eq!(contracted.n(), 4);
        // Edges inside group 0 (centre to leaves 1..3) become self-loops and vanish.
        assert!(contracted.m() <= g.m());
        assert!(contracted.m() >= 3);
    }

    #[test]
    fn grouped_for_alpha_matches_theory() {
        let g = GroupedVcCoreset::for_alpha(64.0, 1 << 16); // log2 n = 16
        assert_eq!(g.group_size, 4);
        let g = GroupedVcCoreset::for_alpha(2.0, 1024); // alpha below log n -> group size 1
        assert_eq!(g.group_size, 1);
    }

    #[test]
    fn grouped_protocol_covers_and_shrinks_communication() {
        let mut r = rng(4);
        let n = 1200;
        let g = gnp(n, 0.01, &mut r);
        let k = 5;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(n, k);

        let grouped = GroupedVcCoreset::new(3);
        let (cover_vertices, grouped_sizes) = grouped.run_protocol(&part.views(), &params, 4);
        let cover = VertexCover::from_vertices(cover_vertices);
        assert!(
            cover.covers(&g),
            "expanded grouped cover must cover the original graph"
        );

        // The ungrouped peeling coreset sizes, for comparison.
        let ungrouped_sizes: Vec<usize> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                PeelingVcCoreset::new()
                    .build(p, &params, i, &mut mrng(i))
                    .size()
            })
            .collect();
        let grouped_total: usize = grouped_sizes.iter().sum();
        let ungrouped_total: usize = ungrouped_sizes.iter().sum();
        assert!(
            grouped_total <= ungrouped_total,
            "grouping must not increase total coreset size ({grouped_total} vs {ungrouped_total})"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn grouped_rejects_zero_group_size() {
        let _ = GroupedVcCoreset::new(0);
    }

    #[test]
    fn builder_names() {
        assert_eq!(PeelingVcCoreset::new().name(), "peeling-vc-coreset");
        assert_eq!(LocalCoverCoreset::new().name(), "local-cover");
        assert_eq!(
            LocalCoverCoreset::adversarial().name(),
            "local-cover-adversarial"
        );
        assert_eq!(GroupedVcCoreset::new(2).name(), "grouped-vc-coreset");
    }

    #[test]
    fn empty_piece_produces_empty_output() {
        let g = Graph::empty(30);
        let params = CoresetParams::new(30, 3);
        let out = PeelingVcCoreset::new().build(g.as_view(), &params, 0, &mut mrng(0));
        assert_eq!(out.size(), 0);
        let out = LocalCoverCoreset::new().build(g.as_view(), &params, 0, &mut mrng(0));
        assert_eq!(out.size(), 0);
        let out = GroupedVcCoreset::new(2).build_contracted(g.as_view(), &params, 0, &mut mrng(0));
        assert_eq!(out.size(), 0);
    }
}
