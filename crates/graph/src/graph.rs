//! Simple undirected graphs stored as edge lists with adjacency views.
//!
//! The paper's model manipulates *edge sets*: the input graph is randomly
//! partitioned edge-by-edge across machines, each machine computes on its own
//! subgraph, and the coordinator unions subgraphs. [`Graph`] therefore stores
//! the edge list as the primary representation and derives adjacency
//! structures on demand. Borrowed access goes through
//! [`crate::view::GraphView`] (zero-copy) and traversal through
//! [`crate::csr::Csr`]; see the `view` module docs for the representation
//! guide.

use crate::edge::{Edge, VertexId};
use crate::error::GraphError;
use serde::{Deserialize, Serialize};
// Membership-only dedup probes below; iteration order never observed.
use std::collections::HashSet; // xtask: allow(hash-collections)

/// A simple undirected graph on vertices `0..n` stored as an edge list.
///
/// Invariants maintained by all constructors:
/// * every endpoint is `< n`,
/// * no self-loops,
/// * no duplicate edges (the edge list describes a *simple* graph).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an iterator of vertex pairs, validating every edge
    /// and silently deduplicating repeated edges.
    ///
    /// The resulting edge list is stored in **canonical sorted order**
    /// (lexicographic by `(u, v)`): deduplication is a sort + `dedup` pass
    /// rather than a hash set, which is faster and allocation-light for large
    /// inputs and makes the stored order deterministic regardless of the
    /// order the pairs arrive in.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let iter = pairs.into_iter();
        let mut edges = Vec::with_capacity(iter.size_hint().0);
        for (a, b) in iter {
            edges.push(Edge { u: a, v: b }.checked(n)?);
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(Graph { n, edges })
    }

    /// Builds a graph from canonical [`Edge`]s, validating and deduplicating.
    pub fn from_edges<I>(n: usize, iter: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        Self::from_pairs(n, iter.into_iter().map(|e| (e.u, e.v)))
    }

    /// Builds a graph without validation or deduplication, preserving the
    /// given edge order exactly.
    ///
    /// Intended for trusted callers that already guarantee the simple-graph
    /// invariants: generators, partitioners, solvers wrapping their own
    /// output (a matching is trivially duplicate-free), and
    /// [`crate::view::GraphView::to_graph`]. Debug builds still assert the
    /// invariants.
    pub fn from_edges_unchecked(n: usize, edges: Vec<Edge>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut seen = HashSet::with_capacity(edges.len()); // xtask: allow(hash-collections)
            for e in &edges {
                debug_assert!(
                    (e.u as usize) < n && (e.v as usize) < n,
                    "endpoint out of range"
                );
                debug_assert!(e.u != e.v, "self loop");
                debug_assert!(seen.insert(*e), "duplicate edge {e:?}");
            }
        }
        Graph { n, edges }
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

    /// Returns `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Consumes the graph and returns its edge list.
    #[inline]
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Returns `true` if the (canonicalized) edge `(a, b)` is present.
    ///
    /// This is a linear scan; use [`Adjacency`] for repeated queries.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        if a == b {
            return false;
        }
        let e = Edge::new(a, b);
        self.edges.contains(&e)
    }

    /// Builds an adjacency-list view of the graph.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::from_graph(self)
    }

    /// Degree of every vertex.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Maximum degree, or 0 for an edgeless graph.
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Returns the subgraph consisting of the edges for which `keep` returns
    /// `true`. The vertex set (and vertex ids) are unchanged.
    pub fn filter_edges<F>(&self, mut keep: F) -> Graph
    where
        F: FnMut(&Edge) -> bool,
    {
        let edges = self.edges.iter().copied().filter(|e| keep(e)).collect();
        Graph { n: self.n, edges }
    }

    /// Returns the subgraph obtained by deleting every edge incident on a
    /// vertex in `removed`. Vertex ids are unchanged (removed vertices simply
    /// become isolated), which matches how the paper's peeling process treats
    /// `G_{j+1} = G_j \ V_j`.
    pub fn remove_vertices(&self, removed: &[VertexId]) -> Graph {
        let mut gone = vec![false; self.n];
        for &v in removed {
            if (v as usize) < self.n {
                gone[v as usize] = true;
            }
        }
        self.filter_edges(|e| !gone[e.u as usize] && !gone[e.v as usize])
    }

    /// Unions several graphs over the same vertex set, deduplicating edges.
    ///
    /// This is exactly the coordinator-side operation of the paper: the union
    /// of the coresets `ALG(G^(1)) ∪ ... ∪ ALG(G^(k))`.
    ///
    /// Unlike the validating constructors, the result keeps **first-occurrence
    /// order** (machine order, then each input's own order), not canonical
    /// sorted order — the composition step is defined over the coresets as
    /// sent, and downstream edge-order-sensitive algorithms (greedy maximal
    /// matching) rely on it.
    ///
    /// # Panics
    ///
    /// Panics if the graphs do not all have the same number of vertices.
    pub fn union(graphs: &[&Graph]) -> Graph {
        assert!(!graphs.is_empty(), "union of zero graphs is undefined");
        let n = graphs[0].n;
        assert!(
            graphs.iter().all(|g| g.n == n),
            "all graphs in a union must share the vertex set"
        );
        // The total edge count is known up front; preallocate both the seen
        // set and the output so the union never reallocates mid-build.
        let total: usize = graphs.iter().map(|g| g.edges.len()).sum();
        let mut seen: HashSet<Edge> = HashSet::with_capacity(total); // xtask: allow(hash-collections)
        let mut edges = Vec::with_capacity(total);
        for g in graphs {
            for &e in &g.edges {
                if seen.insert(e) {
                    edges.push(e);
                }
            }
        }
        Graph { n, edges }
    }

    /// Number of isolated (degree-zero) vertices.
    pub fn isolated_count(&self) -> usize {
        self.degrees().into_iter().filter(|&d| d == 0).count()
    }
}

/// Adjacency-list view of a [`Graph`].
///
/// Neighbour lists are stored sorted so that neighbourhood queries and
/// deterministic iteration are cheap.
#[derive(Debug, Clone)]
pub struct Adjacency {
    n: usize,
    neighbors: Vec<Vec<VertexId>>,
}

impl Adjacency {
    /// Builds the adjacency view of `g`.
    pub fn from_graph(g: &Graph) -> Self {
        let mut neighbors = vec![Vec::new(); g.n()];
        for e in g.edges() {
            neighbors[e.u as usize].push(e.v);
            neighbors[e.v as usize].push(e.u);
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
        Adjacency {
            n: g.n(),
            neighbors,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Neighbours of `v` in increasing order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors[v as usize].len()
    }

    /// Returns `true` if `(a, b)` is an edge.
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors[a as usize].binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.isolated_count(), 5);
    }

    #[test]
    fn from_pairs_dedups() {
        let g = Graph::from_pairs(4, vec![(0, 1), (1, 0), (2, 3), (0, 1)]).unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn from_pairs_rejects_self_loop() {
        let err = Graph::from_pairs(3, vec![(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn from_pairs_rejects_out_of_range() {
        let err = Graph::from_pairs(3, vec![(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, n: 3 });
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = triangle();
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert_eq!(g.max_degree(), 2);
        let star = Graph::from_pairs(4, vec![(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(star.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(star.max_degree(), 3);
    }

    #[test]
    fn filter_and_remove_vertices() {
        let g = triangle();
        let no_02 = g.filter_edges(|e| *e != Edge::new(0, 2));
        assert_eq!(no_02.m(), 2);

        let removed = g.remove_vertices(&[0]);
        assert_eq!(removed.m(), 1);
        assert!(removed.has_edge(1, 2));
        assert_eq!(removed.n(), 3, "vertex set is preserved");
    }

    #[test]
    fn remove_vertices_ignores_out_of_range_ids() {
        let g = triangle();
        let same = g.remove_vertices(&[100]);
        assert_eq!(same.m(), 3);
    }

    #[test]
    fn union_dedups_and_preserves_n() {
        let a = Graph::from_pairs(4, vec![(0, 1), (1, 2)]).unwrap();
        let b = Graph::from_pairs(4, vec![(1, 2), (2, 3)]).unwrap();
        let u = Graph::union(&[&a, &b]);
        assert_eq!(u.n(), 4);
        assert_eq!(u.m(), 3);
    }

    #[test]
    #[should_panic(expected = "share the vertex set")]
    fn union_panics_on_mismatched_n() {
        let a = Graph::empty(3);
        let b = Graph::empty(4);
        let _ = Graph::union(&[&a, &b]);
    }

    #[test]
    fn adjacency_view() {
        let g = triangle();
        let adj = g.adjacency();
        assert_eq!(adj.n(), 3);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.degree(1), 2);
        assert!(adj.has_edge(2, 0));
        assert!(!adj.has_edge(0, 0));
    }

    #[test]
    fn into_edges_round_trip() {
        let g = triangle();
        let edges = g.clone().into_edges();
        let g2 = Graph::from_edges(3, edges).unwrap();
        assert_eq!(g, g2);
    }
}
