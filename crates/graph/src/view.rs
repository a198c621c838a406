//! Borrowed graph views and the [`GraphRef`] abstraction over edge-list
//! graphs.
//!
//! The paper's whole pipeline manipulates *pieces of one edge set*: the input
//! graph is randomly partitioned across `k` machines and every machine
//! computes on its own slice of the edges. [`GraphView`] is exactly that — a
//! vertex count plus a borrowed `&[Edge]` slice — so per-machine access into
//! a [`crate::partition::PartitionedGraph`] arena is zero-copy. [`GraphRef`]
//! abstracts over owned [`Graph`]s and borrowed [`GraphView`]s so that every
//! solver in the workspace (greedy, Hopcroft–Karp, blossom, peeling, …)
//! accepts either representation without cloning edges.
//!
//! Representation guide:
//!
//! * [`Graph`] — owned edge list; the canonical *storage* type for inputs,
//!   generator outputs and coordinator-side messages (coresets).
//! * [`GraphView`] — borrowed edge slice; the canonical *argument* type.
//!   Built for free from a `Graph` ([`GraphRef::as_view`]) or from a
//!   partition arena ([`crate::partition::PartitionedGraph::piece`]).
//! * [`Csr`] — compressed adjacency; the canonical *traversal* structure,
//!   built once per solver call from any [`GraphRef`] via [`Csr::from_ref`].

use crate::csr::Csr;
use crate::edge::{Edge, VertexId};
use crate::graph::Graph;

/// A borrowed, zero-copy view of a simple undirected graph: `n` vertices and
/// an edge slice living in someone else's allocation (an owned [`Graph`], a
/// [`crate::partition::PartitionedGraph`] arena, or any `&[Edge]`).
///
/// The view is `Copy` (two words) and upholds the same invariants as
/// [`Graph`]: endpoints `< n`, no self-loops, no duplicate edges.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    n: usize,
    edges: &'a [Edge],
}

impl<'a> GraphView<'a> {
    /// Creates a view over a trusted edge slice.
    ///
    /// The caller guarantees the simple-graph invariants (generators,
    /// partitioners and [`Graph`] itself already do); debug builds assert
    /// them.
    pub fn new(n: usize, edges: &'a [Edge]) -> Self {
        #[cfg(debug_assertions)]
        {
            // Membership-only dedup probe; iteration order never observed.
            let mut seen = std::collections::HashSet::with_capacity(edges.len()); // xtask: allow(hash-collections)
            for e in edges {
                debug_assert!(
                    (e.u as usize) < n && (e.v as usize) < n,
                    "endpoint out of range"
                );
                debug_assert!(e.u != e.v, "self loop");
                debug_assert!(seen.insert(*e), "duplicate edge {e:?}");
            }
        }
        GraphView { n, edges }
    }

    /// Crate-internal constructor for slices whose invariants are guaranteed
    /// by construction (partition arenas), skipping even the debug checks —
    /// a partition arena would otherwise re-validate every piece on every
    /// access.
    #[inline]
    pub(crate) fn new_unchecked(n: usize, edges: &'a [Edge]) -> Self {
        GraphView { n, edges }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the view has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The borrowed edge slice.
    #[inline]
    pub fn edges(&self) -> &'a [Edge] {
        self.edges
    }

    /// Materializes the view into an owned [`Graph`], copying the edges.
    ///
    /// This is the *only* place the zero-copy data path pays for an owned
    /// per-piece graph, so the copy is recorded in
    /// [`crate::metrics::piece_edges_materialized`] — the allocation proxy
    /// that experiment E18 asserts stays at zero.
    pub fn to_graph(&self) -> Graph {
        crate::metrics::record_piece_edges_materialized(self.edges.len());
        Graph::from_edges_unchecked(self.n, self.edges.to_vec())
    }
}

/// Abstraction over edge-list graph representations: anything with a vertex
/// count and a slice of canonical [`Edge`]s.
///
/// Implemented by [`Graph`] (owned) and [`GraphView`] (borrowed); every
/// solver in the `matching` and `vertexcover` crates is generic over it, so
/// the distributed pipelines can hand out arena-backed views without cloning
/// a single edge.
pub trait GraphRef {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// The canonical edge list.
    fn edges(&self) -> &[Edge];

    /// Number of edges.
    #[inline]
    fn m(&self) -> usize {
        self.edges().len()
    }

    /// Returns `true` if there are no edges.
    #[inline]
    fn is_empty(&self) -> bool {
        self.edges().is_empty()
    }

    /// Degree of every vertex.
    fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n()];
        for e in self.edges() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Maximum degree, or 0 for an edgeless graph.
    fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Number of isolated (degree-zero) vertices.
    fn isolated_count(&self) -> usize {
        self.degrees().into_iter().filter(|&d| d == 0).count()
    }

    /// Returns `true` if the (canonicalized) edge `(a, b)` is present.
    ///
    /// Linear scan; build a [`Csr`] for repeated queries.
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        if a == b {
            return false;
        }
        let e = Edge::new(a, b);
        self.edges().contains(&e)
    }

    /// A zero-copy view of this graph.
    #[inline]
    fn as_view(&self) -> GraphView<'_> {
        // The source already upholds the invariants; skip re-validation.
        GraphView {
            n: self.n(),
            edges: self.edges(),
        }
    }

    /// Builds the CSR adjacency of this graph (the canonical traversal
    /// structure).
    fn to_csr(&self) -> Csr
    where
        Self: Sized,
    {
        Csr::from_ref(self)
    }
}

impl GraphRef for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn edges(&self) -> &[Edge] {
        Graph::edges(self)
    }
}

impl GraphRef for GraphView<'_> {
    #[inline]
    fn n(&self) -> usize {
        GraphView::n(self)
    }

    #[inline]
    fn edges(&self) -> &[Edge] {
        self.edges
    }
}

impl<'a> From<&'a Graph> for GraphView<'a> {
    #[inline]
    fn from(g: &'a Graph) -> Self {
        g.as_view()
    }
}

/// Zero-copy views of a slice of owned graphs (convenience for callers that
/// hold `Vec<Graph>` pieces but want to use the view-based runners).
pub fn views_of(graphs: &[Graph]) -> Vec<GraphView<'_>> {
    graphs.iter().map(|g| g.as_view()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn view_mirrors_graph() {
        let g = triangle();
        let v = g.as_view();
        assert_eq!(v.n(), 3);
        assert_eq!(v.m(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.edges(), g.edges());
        assert_eq!(GraphRef::degrees(&v), GraphRef::degrees(&g));
        assert_eq!(GraphRef::max_degree(&v), 2);
        assert!(GraphRef::has_edge(&v, 2, 0));
        assert!(!GraphRef::has_edge(&v, 0, 0));
    }

    #[test]
    fn view_round_trips_to_owned() {
        let g = triangle();
        let owned = g.as_view().to_graph();
        assert_eq!(owned, g);
    }

    #[test]
    fn view_over_raw_slice() {
        let edges = [Edge::new(0, 1), Edge::new(1, 2)];
        let v = GraphView::new(3, &edges);
        assert_eq!(v.m(), 2);
        assert_eq!(GraphRef::degrees(&v), vec![1, 2, 1]);
    }

    #[test]
    fn views_of_matches_sources() {
        let graphs = vec![triangle(), Graph::empty(2)];
        let views = views_of(&graphs);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].m(), 3);
        assert_eq!(views[1].n(), 2);
        assert!(views[1].is_empty());
    }

    #[test]
    fn csr_from_view_matches_csr_from_graph() {
        let g = triangle();
        let a = Csr::from_graph(&g);
        let b = g.as_view().to_csr();
        for v in 0..3u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }
}
