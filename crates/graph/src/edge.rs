//! Vertex and edge primitives.
//!
//! Vertices are dense `u32` identifiers in `0..n`. Undirected edges are stored
//! canonically with the smaller endpoint first so that equality, hashing and
//! deduplication behave as expected for simple graphs.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Dense vertex identifier.
///
/// Using `u32` instead of `usize` halves the memory footprint of edge lists,
/// which matters for the large random-partitioning experiments (see the
/// "Smaller Integers" guidance in the Rust Performance Book).
pub type VertexId = u32;

/// An undirected, unweighted edge stored canonically (`u <= v` is *not*
/// enforced at construction of the raw struct, use [`Edge::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: VertexId,
    /// The larger endpoint.
    pub v: VertexId,
}

impl Edge {
    /// Creates a canonical edge with `u <= v`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; self-loops are not part of the model.
    #[inline]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self-loops are not allowed");
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// This edge as the canonical edge of a graph on `n` vertices. The raw
    /// fields may hold anything, so they are checked by
    /// [`Graph::from_pairs`](crate::Graph::from_pairs)'s rules in its order:
    /// [`GraphError::SelfLoop`] first, then [`GraphError::VertexOutOfRange`]
    /// for `u`, then for `v`. Graph construction, churn ops and the
    /// incremental matcher all check edges here.
    #[inline]
    pub fn checked(self, n: usize) -> Result<Self, GraphError> {
        if self.u == self.v {
            return Err(GraphError::SelfLoop { vertex: self.u });
        }
        for vertex in [self.u, self.v] {
            if vertex as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex, n });
            }
        }
        Ok(Edge::new(self.u, self.v))
    }

    /// Returns both endpoints as a tuple `(u, v)` with `u <= v`.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Returns `true` if `x` is one of the endpoints.
    #[inline]
    pub fn is_incident(&self, x: VertexId) -> bool {
        self.u == x || self.v == x
    }

    /// Given one endpoint, returns the other one.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            // Documented `# Panics` contract: callers pass a known endpoint.
            // xtask: allow(error-hygiene)
            panic!(
                "vertex {x} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }

    /// Returns `true` if the two edges share at least one endpoint.
    #[inline]
    pub fn shares_endpoint(&self, other: &Edge) -> bool {
        self.is_incident(other.u) || self.is_incident(other.v)
    }
}

impl From<(VertexId, VertexId)> for Edge {
    #[inline]
    fn from((a, b): (VertexId, VertexId)) -> Self {
        Edge::new(a, b)
    }
}

/// An undirected edge with a non-negative weight, used by the Crouch–Stubbs
/// weighted-matching extension of the paper (Section 1.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedEdge {
    /// The underlying unweighted edge.
    pub edge: Edge,
    /// The edge weight. Must be finite and non-negative.
    pub weight: f64,
}

impl WeightedEdge {
    /// Creates a new weighted edge.
    ///
    /// # Panics
    ///
    /// Panics if the weight is negative, NaN or infinite.
    #[inline]
    pub fn new(a: VertexId, b: VertexId, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
        WeightedEdge {
            edge: Edge::new(a, b),
            weight,
        }
    }

    /// Returns the endpoints `(u, v)` with `u <= v`.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        self.edge.endpoints()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_canonicalized() {
        let e = Edge::new(5, 2);
        assert_eq!(e.u, 2);
        assert_eq!(e.v, 5);
        assert_eq!(e, Edge::new(2, 5));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn checked_tests_self_loops_first_then_each_endpoint() {
        let checked = |u, v| Edge { u, v }.checked(5);
        let out = |vertex| Err(GraphError::VertexOutOfRange { vertex, n: 5 });
        assert_eq!(checked(9, 9), Err(GraphError::SelfLoop { vertex: 9 }));
        assert_eq!(checked(9, 7), out(9));
        assert_eq!(checked(2, 9), out(9));
        assert_eq!(checked(4, 1), Ok(Edge::new(1, 4)));
    }

    #[test]
    fn incidence_and_other() {
        let e = Edge::new(1, 4);
        assert!(e.is_incident(1));
        assert!(e.is_incident(4));
        assert!(!e.is_incident(2));
        assert_eq!(e.other(1), 4);
        assert_eq!(e.other(4), 1);
    }

    #[test]
    #[should_panic]
    fn other_panics_for_non_endpoint() {
        let e = Edge::new(1, 4);
        let _ = e.other(2);
    }

    #[test]
    fn shares_endpoint() {
        let a = Edge::new(1, 2);
        let b = Edge::new(2, 3);
        let c = Edge::new(4, 5);
        assert!(a.shares_endpoint(&b));
        assert!(!a.shares_endpoint(&c));
    }

    #[test]
    fn from_tuple() {
        let e: Edge = (9, 3).into();
        assert_eq!(e.endpoints(), (3, 9));
    }

    #[test]
    fn weighted_edge_basics() {
        let w = WeightedEdge::new(7, 3, 2.5);
        assert_eq!(w.endpoints(), (3, 7));
        assert_eq!(w.weight, 2.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = WeightedEdge::new(0, 1, -1.0);
    }

    #[test]
    fn edges_order_lexicographically() {
        let mut edges = vec![Edge::new(3, 1), Edge::new(0, 2), Edge::new(1, 2)];
        edges.sort();
        assert_eq!(
            edges,
            vec![Edge::new(0, 2), Edge::new(1, 2), Edge::new(1, 3)]
        );
    }
}
