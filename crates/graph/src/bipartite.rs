//! Bipartite graphs with explicit left/right sides.
//!
//! The hard distributions of the paper (`D_Matching`, `D_VC`) are bipartite
//! graphs `G(L, R, E)` with `|L| = |R| = n`. A [`BipartiteGraph`] keeps the
//! two sides separate and can be converted to a plain [`Graph`] (right
//! vertices are offset by `left_n`) whenever a side-agnostic algorithm is
//! needed.

use crate::edge::VertexId;
use crate::error::GraphError;
use crate::graph::Graph;
use serde::{Deserialize, Serialize};
// Membership-only dedup probes below; iteration order never observed.
use std::collections::HashSet; // xtask: allow(hash-collections)

/// A bipartite graph with `left_n` left vertices and `right_n` right
/// vertices. Edges are pairs `(l, r)` with `l < left_n` and `r < right_n`;
/// left and right ids are independent namespaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BipartiteGraph {
    left_n: usize,
    right_n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph.
    pub fn empty(left_n: usize, right_n: usize) -> Self {
        BipartiteGraph {
            left_n,
            right_n,
            edges: Vec::new(),
        }
    }

    /// Builds a bipartite graph from `(left, right)` pairs, validating ranges
    /// and deduplicating.
    pub fn from_pairs<I>(left_n: usize, right_n: usize, pairs: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut seen = HashSet::new(); // xtask: allow(hash-collections)
        let mut edges = Vec::new();
        for (l, r) in pairs {
            if l as usize >= left_n {
                return Err(GraphError::LeftVertexOutOfRange { vertex: l, left_n });
            }
            if r as usize >= right_n {
                return Err(GraphError::RightVertexOutOfRange { vertex: r, right_n });
            }
            if seen.insert((l, r)) {
                edges.push((l, r));
            }
        }
        Ok(BipartiteGraph {
            left_n,
            right_n,
            edges,
        })
    }

    /// Builds without validation; used by trusted generators.
    pub(crate) fn from_pairs_unchecked(
        left_n: usize,
        right_n: usize,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut seen = HashSet::with_capacity(edges.len()); // xtask: allow(hash-collections)
            for &(l, r) in &edges {
                debug_assert!((l as usize) < left_n && (r as usize) < right_n);
                debug_assert!(seen.insert((l, r)), "duplicate bipartite edge ({l}, {r})");
            }
        }
        BipartiteGraph {
            left_n,
            right_n,
            edges,
        }
    }

    /// Number of left vertices.
    #[inline]
    pub fn left_n(&self) -> usize {
        self.left_n
    }

    /// Number of right vertices.
    #[inline]
    pub fn right_n(&self) -> usize {
        self.right_n
    }

    /// Total number of vertices (`left_n + right_n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.left_n + self.right_n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The `(left, right)` edge pairs.
    #[inline]
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Degrees of the left vertices.
    pub fn left_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.left_n];
        for &(l, _) in &self.edges {
            deg[l as usize] += 1;
        }
        deg
    }

    /// Degrees of the right vertices.
    pub fn right_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.right_n];
        for &(_, r) in &self.edges {
            deg[r as usize] += 1;
        }
        deg
    }

    /// Converts to a side-agnostic [`Graph`]: left vertices keep their ids,
    /// right vertex `r` becomes `left_n + r`.
    pub fn to_graph(&self) -> Graph {
        let offset = self.left_n as VertexId;
        let edges = self
            .edges
            .iter()
            .map(|&(l, r)| crate::edge::Edge::new(l, offset + r))
            .collect();
        Graph::from_edges_unchecked(self.n(), edges)
    }

    /// Interprets a side-agnostic vertex id from [`Self::to_graph`] back as a
    /// `(side, local id)` pair, where side 0 = left, side 1 = right.
    pub fn split_vertex(&self, v: VertexId) -> (u8, VertexId) {
        if (v as usize) < self.left_n {
            (0, v)
        } else {
            (1, v - self.left_n as VertexId)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BipartiteGraph {
        // L = {0,1,2}, R = {0,1}; edges 0-0, 0-1, 1-1, 2-0
        BipartiteGraph::from_pairs(3, 2, vec![(0, 0), (0, 1), (1, 1), (2, 0)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = small();
        assert_eq!(g.left_n(), 3);
        assert_eq!(g.right_n(), 2);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn dedup_and_validation() {
        let g = BipartiteGraph::from_pairs(2, 2, vec![(0, 0), (0, 0), (1, 1)]).unwrap();
        assert_eq!(g.m(), 2);
        assert!(matches!(
            BipartiteGraph::from_pairs(2, 2, vec![(2, 0)]),
            Err(GraphError::LeftVertexOutOfRange {
                vertex: 2,
                left_n: 2
            })
        ));
        assert!(matches!(
            BipartiteGraph::from_pairs(2, 2, vec![(0, 5)]),
            Err(GraphError::RightVertexOutOfRange {
                vertex: 5,
                right_n: 2
            })
        ));
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = small();
        let adj = g.to_graph().adjacency();
        assert_eq!(adj.neighbors(0), &[3, 4]);
        assert_eq!(adj.neighbors(3), &[0, 2]);
        assert_eq!(g.left_degrees(), vec![2, 1, 1]);
        assert_eq!(g.right_degrees(), vec![2, 2]);
    }

    #[test]
    fn to_graph_offsets_right_side() {
        let g = small();
        let plain = g.to_graph();
        assert_eq!(plain.n(), 5);
        assert_eq!(plain.m(), 4);
        assert!(plain.has_edge(0, 3)); // (0, R0) -> (0, 3)
        assert!(plain.has_edge(2, 3)); // (2, R0) -> (2, 3)
        assert!(plain.has_edge(1, 4)); // (1, R1) -> (1, 4)
        assert_eq!(g.split_vertex(3), (1, 0));
        assert_eq!(g.split_vertex(2), (0, 2));
    }
}
