//! Compressed sparse row (CSR) representation.
//!
//! The matching and peeling algorithms traverse neighbourhoods many times;
//! a CSR layout keeps all neighbour lists in one contiguous allocation which
//! is friendlier to the cache than `Vec<Vec<u32>>` (see the Rust Performance
//! Book's guidance on heap allocations and memory locality).
//!
//! A `Csr` owns its two buffers and can be refilled in place:
//! [`Csr::rebuild`] and [`Csr::rebuild_unsorted`] overwrite the previous
//! graph and reuse the allocations, so a solver engine that keeps one `Csr`
//! pays for its buffers once, at the size of its largest solve.
//!
//! [`Csr::rebuild`] sorts every neighbour list. [`Csr::rebuild_unsorted`]
//! leaves each list in edge order, which skips the per-vertex sorts that
//! dominate the build on skewed graphs. Only a solver whose output does not
//! depend on neighbour order may read unsorted lists: the vertex-cover
//! engine's peeling rounds qualify (a round peels exactly the vertices of
//! residual degree `>= t`, and degree decrements commute), while the
//! matching solvers' traversal order defines their answer, and
//! [`Csr::has_edge`] binary-searches.

use crate::edge::{Edge, VertexId};
use crate::graph::Graph;
use crate::view::{GraphRef, GraphView};

/// Compressed sparse row adjacency structure for an undirected graph.
///
/// This is the canonical adjacency representation for traversal: every solver
/// in the workspace walks a `Csr` (from an owned [`Graph`] or a borrowed
/// [`GraphView`] alike) instead of a `Vec<Vec<VertexId>>`; the solver engines
/// keep one and rebuild it per solve.
///
/// For each vertex `v`, its neighbours are
/// `targets[offsets[v] .. offsets[v + 1]]`, sorted in increasing order unless
/// the CSR was last filled by [`Csr::rebuild_unsorted`].
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

impl Default for Csr {
    /// The CSR of the graph with no vertices.
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl Csr {
    /// Builds the CSR adjacency of `n` vertices over a trusted edge slice —
    /// the core constructor every representation funnels into.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut csr = Csr::default();
        csr.rebuild(n, edges);
        csr
    }

    /// Refills this CSR with the adjacency of `n` vertices over `edges`,
    /// reusing its buffers; every neighbour list comes out sorted. The result
    /// equals [`Csr::from_edges`]`(n, edges)`.
    pub fn rebuild(&mut self, n: usize, edges: &[Edge]) {
        self.rebuild_unsorted(n, edges);
        let Csr { offsets, targets } = self;
        // Sort each neighbourhood for deterministic traversal and binary
        // search; lists of length <= 1 already are.
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if hi - lo > 1 {
                targets[lo..hi].sort_unstable();
            }
        }
    }

    /// Refills this CSR like [`Csr::rebuild`] but leaves each neighbour list
    /// in edge order: `v`'s list holds the other endpoint of each edge at
    /// `v`, in the order those edges appear in `edges`. The offsets equal
    /// [`Csr::rebuild`]'s. See the [module docs](self) for which solvers may
    /// read unsorted lists; [`Csr::has_edge`] may not.
    pub fn rebuild_unsorted(&mut self, n: usize, edges: &[Edge]) {
        let Csr { offsets, targets } = self;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for e in edges {
            offsets[e.u as usize] += 1;
            offsets[e.v as usize] += 1;
        }
        // Inclusive prefix sums: `offsets[v]` becomes the end of `v`'s list.
        let mut end = 0;
        for o in &mut offsets[..n] {
            end += *o;
            *o = end;
        }
        offsets[n] = end;
        // Every slot is written exactly once below, so stale targets of an
        // earlier build need no clearing.
        targets.resize(2 * edges.len(), 0);
        // Walking the edges backwards and each end offset down leaves every
        // `offsets[v]` at the start of `v`'s list, with the list in edge
        // order.
        for e in edges.iter().rev() {
            offsets[e.u as usize] -= 1;
            targets[offsets[e.u as usize] as usize] = e.v;
            offsets[e.v as usize] -= 1;
            targets[offsets[e.v as usize] as usize] = e.u;
        }
    }

    /// Builds the CSR view of an owned graph.
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_edges(g.n(), g.edges())
    }

    /// Builds the CSR view of any [`GraphRef`] (owned graph or borrowed
    /// view).
    pub fn from_ref<G: GraphRef + ?Sized>(g: &G) -> Self {
        Self::from_edges(g.n(), g.edges())
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `v`: sorted, or in edge order after
    /// [`Csr::rebuild_unsorted`].
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Returns `true` if `(a, b)` is an edge. Needs sorted neighbour lists
    /// (not [`Csr::rebuild_unsorted`]).
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates over all vertices with non-zero degree.
    pub fn non_isolated(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n() as VertexId).filter(move |&v| self.degree(v) > 0)
    }
}

impl From<&Graph> for Csr {
    fn from(g: &Graph) -> Self {
        Csr::from_graph(g)
    }
}

impl From<GraphView<'_>> for Csr {
    fn from(v: GraphView<'_>) -> Self {
        Csr::from_ref(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matches_adjacency() {
        let g = Graph::from_pairs(5, vec![(0, 1), (0, 2), (1, 2), (3, 4)]).unwrap();
        let csr = Csr::from_graph(&g);
        let adj = g.adjacency();
        assert_eq!(csr.n(), 5);
        assert_eq!(csr.m(), 4);
        for v in 0..5u32 {
            assert_eq!(csr.neighbors(v), adj.neighbors(v), "vertex {v}");
            assert_eq!(csr.degree(v), adj.degree(v));
        }
        assert!(csr.has_edge(0, 2));
        assert!(!csr.has_edge(0, 4));
    }

    #[test]
    fn csr_of_empty_graph() {
        let g = Graph::empty(3);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.m(), 0);
        assert!(csr.neighbors(1).is_empty());
        assert_eq!(csr.non_isolated().count(), 0);
    }

    #[test]
    fn non_isolated_iteration() {
        let g = Graph::from_pairs(6, vec![(1, 4)]).unwrap();
        let csr = Csr::from_graph(&g);
        let v: Vec<_> = csr.non_isolated().collect();
        assert_eq!(v, vec![1, 4]);
    }

    /// Neighbour lists built by appending each edge's endpoints in order:
    /// the layout `rebuild_unsorted` must produce.
    fn edge_order_lists(n: usize, edges: &[Edge]) -> Vec<Vec<VertexId>> {
        let mut lists = vec![Vec::new(); n];
        for e in edges {
            lists[e.u as usize].push(e.v);
            lists[e.v as usize].push(e.u);
        }
        lists
    }

    #[test]
    fn one_csr_rebuilt_across_growing_and_shrinking_graphs() {
        use crate::gen::er::gnm;
        use crate::gen::rmat::rmat_graph500;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut r = ChaCha8Rng::seed_from_u64(17);
        let (mut sorted, mut unsorted) = (Csr::default(), Csr::default());
        assert_eq!((sorted.n(), sorted.m()), (0, 0));
        for round in 0..40 {
            let g = match round % 4 {
                0 => Graph::empty(r.gen_range(0..50)),
                1 | 2 => {
                    let n = r.gen_range(2..400);
                    let m = r.gen_range(0..(n * (n - 1) / 2).min(6 * n) + 1);
                    gnm(n, m, &mut r)
                }
                _ => rmat_graph500(r.gen_range(1..10), r.gen_range(1..12), &mut r),
            };
            let fresh = Csr::from_edges(g.n(), g.edges());
            sorted.rebuild(g.n(), g.edges());
            assert_eq!(sorted.offsets, fresh.offsets, "round {round}");
            assert_eq!(sorted.targets, fresh.targets, "round {round}");

            unsorted.rebuild_unsorted(g.n(), g.edges());
            assert_eq!(unsorted.offsets, fresh.offsets, "round {round}");
            assert_eq!(unsorted.m(), g.m());
            let adj = g.adjacency();
            for (v, list) in edge_order_lists(g.n(), g.edges()).iter().enumerate() {
                let v = v as VertexId;
                assert_eq!(fresh.neighbors(v), adj.neighbors(v), "round {round}, {v}");
                assert_eq!(unsorted.neighbors(v), &list[..], "round {round}, {v}");
            }
        }
    }

    #[test]
    fn rebuild_unsorted_keeps_edge_order() {
        // Edges in a non-canonical order: vertex 2 meets them as 9, 0, 5.
        let edges = [Edge::new(2, 9), Edge::new(0, 2), Edge::new(2, 5)];
        let mut csr = Csr::default();
        csr.rebuild_unsorted(10, &edges);
        assert_eq!(csr.neighbors(2), &[9, 0, 5]);
        assert_eq!(csr.degree(2), 3);
        csr.rebuild(10, &edges);
        assert_eq!(csr.neighbors(2), &[0, 5, 9]);
    }

    #[test]
    fn from_ref_conversion() {
        let g = Graph::from_pairs(2, vec![(0, 1)]).unwrap();
        let csr: Csr = (&g).into();
        assert_eq!(csr.m(), 1);
    }
}
