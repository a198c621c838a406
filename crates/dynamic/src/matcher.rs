//! The incremental maximal-matching structure.
//!
//! See the [crate docs](crate) for the update rule and guarantees. The hot
//! paths ([`DynamicMatcher::insert`], [`DynamicMatcher::delete`] and the
//! rematch they call) perform **no per-update allocation**: adjacency edits
//! are in-place sorted inserts/removes, and a rematch is one scan of the
//! freed vertex's sorted list.

use graph::{ChurnOp, Edge, Graph, GraphError, VertexId};
use matching::Matching;

/// Sentinel for "unmatched" in the mate array.
const NONE: VertexId = VertexId::MAX;

/// A maximal matching maintained under edge churn by the greedy rule. See
/// the [crate docs](crate).
#[derive(Debug)]
pub struct DynamicMatcher {
    n: usize,
    /// Sorted adjacency lists; the edge set is exactly
    /// `{(u, v) : v ∈ adj[u], u < v}`.
    adj: Vec<Vec<VertexId>>,
    m: usize,
    /// `mate[v]` is `v`'s partner, or [`NONE`].
    mate: Vec<VertexId>,
    matched_pairs: usize,
}

impl DynamicMatcher {
    /// An empty matcher over `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicMatcher {
            n,
            adj: vec![Vec::new(); n],
            m: 0,
            mate: vec![NONE; n],
            matched_pairs: 0,
        }
    }

    /// Builds the matcher over `g`'s edge set and seeds it with the greedy
    /// maximal matching in canonical edge order (`O(m)` after adjacency
    /// construction).
    pub fn from_graph(g: &Graph) -> Self {
        let mut s = Self::new(g.n());
        for e in g.edges() {
            s.adj[e.u as usize].push(e.v);
            s.adj[e.v as usize].push(e.u);
        }
        // `Graph` does not guarantee an edge order (generators may emit
        // shuffled edges); sort so the binary-search update paths work and
        // the greedy seed below depends only on the edge *set*.
        for list in &mut s.adj {
            list.sort_unstable();
        }
        s.m = g.m();
        let mut order: Vec<Edge> = g.edges().to_vec();
        order.sort_unstable();
        for e in order {
            if s.mate[e.u as usize] == NONE && s.mate[e.v as usize] == NONE {
                s.match_pair(e.u, e.v);
            }
        }
        s
    }

    /// Current number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Size of the maintained matching.
    #[inline]
    pub fn matching_size(&self) -> usize {
        self.matched_pairs
    }

    /// `v`'s current partner, if matched.
    #[inline]
    pub fn mate(&self, v: VertexId) -> Option<VertexId> {
        let w = self.mate[v as usize];
        (w != NONE).then_some(w)
    }

    /// Applies one churn operation; returns whether the edge set changed.
    pub fn apply(&mut self, op: ChurnOp) -> Result<bool, GraphError> {
        match op {
            ChurnOp::Insert(e) => self.insert(e),
            ChurnOp::Delete(e) => self.delete(e),
        }
    }

    /// Inserts edge `e`. Returns `Ok(true)` if it was absent (and is now
    /// present), `Ok(false)` for a duplicate no-op. The edge is checked and
    /// canonicalized by [`Edge::checked`] first, as in [`Self::delete`].
    ///
    /// If both endpoints are free they are matched; otherwise no mate
    /// changes. Either way the matching stays maximal: the new edge ends
    /// with at least one matched endpoint.
    pub fn insert(&mut self, e: Edge) -> Result<bool, GraphError> {
        let e = e.checked(self.n)?;
        let (u, v) = (e.u as usize, e.v as usize);
        let pos_u = match self.adj[u].binary_search(&e.v) {
            Ok(_) => return Ok(false),
            Err(p) => p,
        };
        self.adj[u].insert(pos_u, e.v);
        // Present in neither list or both: the u-probe already decided.
        match self.adj[v].binary_search(&e.u) {
            Ok(_) => debug_assert!(false, "adjacency lists out of sync"),
            Err(p) => self.adj[v].insert(p, e.u),
        }
        self.m += 1;
        if self.mate[u] == NONE && self.mate[v] == NONE {
            self.match_pair(e.u, e.v);
        }
        Ok(true)
    }

    /// Deletes edge `e`. Returns `Ok(true)` if it was present (and is now
    /// absent), `Ok(false)` for an absent no-op.
    ///
    /// Deleting a matched edge frees both endpoints, and each is rematched
    /// to its smallest free neighbour, `u` first. That restores maximality:
    /// only edges at `u` or `v` can have lost their matched endpoint.
    pub fn delete(&mut self, e: Edge) -> Result<bool, GraphError> {
        let e = e.checked(self.n)?;
        let (u, v) = (e.u as usize, e.v as usize);
        let pos_u = match self.adj[u].binary_search(&e.v) {
            Ok(p) => p,
            Err(_) => return Ok(false),
        };
        self.adj[u].remove(pos_u);
        match self.adj[v].binary_search(&e.u) {
            Ok(p) => {
                self.adj[v].remove(p);
            }
            Err(_) => debug_assert!(false, "adjacency lists out of sync"),
        }
        self.m -= 1;
        if self.mate[u] == e.v {
            self.mate[u] = NONE;
            self.mate[v] = NONE;
            self.matched_pairs -= 1;
            // `v` is no longer `u`'s neighbour, so `u`'s rematch leaves it
            // free.
            self.rematch(e.u);
            self.rematch(e.v);
        }
        Ok(true)
    }

    /// Matches free vertex `x` to its smallest free neighbour, if it has
    /// one.
    fn rematch(&mut self, x: VertexId) {
        let free = self.adj[x as usize]
            .iter()
            .copied()
            .find(|&w| self.mate[w as usize] == NONE);
        if let Some(w) = free {
            self.match_pair(x, w);
        }
    }

    /// Matches the free vertices `a` and `b` to each other.
    fn match_pair(&mut self, a: VertexId, b: VertexId) {
        self.mate[a as usize] = b;
        self.mate[b as usize] = a;
        self.matched_pairs += 1;
    }

    /// The current edge set as an owned canonical [`Graph`].
    pub fn current_graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        for u in 0..self.n {
            for &v in &self.adj[u] {
                if (u as VertexId) < v {
                    edges.push(Edge {
                        u: u as VertexId,
                        v,
                    });
                }
            }
        }
        // Ascending u, ascending v within u: canonical sorted order.
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// The maintained matching as an owned [`Matching`] (edges in canonical
    /// sorted order).
    pub fn matching(&self) -> Matching {
        let mut edges = Vec::with_capacity(self.matched_pairs);
        for u in 0..self.n {
            let v = self.mate[u];
            if v != NONE && (u as VertexId) < v {
                edges.push(Edge {
                    u: u as VertexId,
                    v,
                });
            }
        }
        debug_assert_eq!(edges.len(), self.matched_pairs);
        match Matching::try_from_edges(edges) {
            Some(m) => m,
            // Unreachable: the mate array encodes a matching by construction.
            None => unreachable!("mate array always encodes a matching"), // xtask: allow(error-hygiene)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_invariants(dm: &DynamicMatcher) {
        let g = dm.current_graph();
        let m = dm.matching();
        assert!(m.is_valid_for(&g), "matching must be valid");
        assert!(m.is_maximal_in(&g), "matching must be maximal");
        assert_eq!(m.len(), dm.matching_size());
    }

    #[test]
    fn insert_matches_free_pairs_and_stays_maximal() {
        let mut dm = DynamicMatcher::new(6);
        assert!(dm.insert(Edge::new(0, 1)).unwrap());
        assert_eq!(dm.matching_size(), 1);
        assert!(!dm.insert(Edge::new(0, 1)).unwrap(), "duplicate is a no-op");
        assert!(dm.insert(Edge::new(1, 2)).unwrap());
        assert_eq!(dm.matching_size(), 1, "covered edge changes nothing");
        assert!(dm.insert(Edge::new(2, 3)).unwrap());
        assert_eq!(dm.matching_size(), 2);
        assert_invariants(&dm);
    }

    #[test]
    fn insert_between_a_free_and_a_matched_vertex_changes_no_mate() {
        let mut dm = DynamicMatcher::new(4);
        // Match (1, 2) with (2, 3) beside it, then insert (0, 1) with 0
        // free: a length-3 augmenting path 0 — 1 — 2 — 3 exists, but the
        // greedy rule leaves it alone.
        dm.insert(Edge::new(1, 2)).unwrap();
        dm.insert(Edge::new(2, 3)).unwrap();
        let before: Vec<_> = (0..4).map(|v| dm.mate(v)).collect();
        assert!(dm.insert(Edge::new(0, 1)).unwrap());
        let after: Vec<_> = (0..4).map(|v| dm.mate(v)).collect();
        assert_eq!(after, before);
        assert_eq!(after, [None, Some(2), Some(1), None]);
        assert_eq!(dm.matching_size(), 1);
        assert_invariants(&dm);
    }

    #[test]
    fn delete_unmatched_edge_keeps_matching() {
        let mut dm = DynamicMatcher::new(4);
        dm.insert(Edge::new(0, 1)).unwrap();
        dm.insert(Edge::new(1, 2)).unwrap();
        assert!(dm.delete(Edge::new(1, 2)).unwrap());
        assert!(!dm.delete(Edge::new(1, 2)).unwrap(), "absent is a no-op");
        assert_eq!(dm.matching_size(), 1);
        assert_invariants(&dm);
    }

    #[test]
    fn delete_matched_edge_repairs_both_endpoints() {
        let mut dm = DynamicMatcher::new(6);
        // (2, 3) stays the only matched edge while its pendant neighbours
        // (0, 2) and (3, 5) arrive.
        for (a, b) in [(2, 3), (0, 2), (3, 5)] {
            dm.insert(Edge::new(a, b)).unwrap();
        }
        assert_eq!(dm.matching_size(), 1);
        assert_eq!(dm.mate(2), Some(3));
        dm.delete(Edge::new(2, 3)).unwrap();
        // Both endpoints rematch greedily: 2 to 0, 3 to 5.
        assert_eq!(dm.matching_size(), 2);
        assert_eq!(dm.mate(2), Some(0));
        assert_eq!(dm.mate(3), Some(5));
        assert_invariants(&dm);
    }

    #[test]
    fn from_graph_seeds_the_greedy_maximal_matching() {
        let g = gnp(100, 0.05, &mut ChaCha8Rng::seed_from_u64(5));
        let dm = DynamicMatcher::from_graph(&g);
        assert_eq!(dm.m(), g.m());
        assert_eq!(dm.current_graph().edges(), g.edges());
        assert_invariants(&dm);
    }

    #[test]
    fn out_of_range_edges_are_rejected() {
        let mut dm = DynamicMatcher::new(3);
        assert!(matches!(
            dm.insert(Edge::new(0, 7)),
            Err(GraphError::VertexOutOfRange { vertex: 7, .. })
        ));
        // Raw fields: a self-loop or a large `u` is rejected, and `u > v` is
        // canonicalized, so the canonical delete finds the edge.
        assert_eq!(
            dm.insert(Edge { u: 9, v: 2 }),
            Err(GraphError::VertexOutOfRange { vertex: 9, n: 3 })
        );
        assert_eq!(
            dm.delete(Edge { u: 1, v: 1 }),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
        assert_eq!(dm.m(), 0);
        assert!(dm.insert(Edge { u: 2, v: 0 }).unwrap());
        assert_eq!(dm.current_graph().edges(), &[Edge::new(0, 2)]);
        assert!(dm.delete(Edge::new(0, 2)).unwrap());
        assert_eq!((dm.m(), dm.matching_size()), (0, 0));
    }

    #[test]
    fn replaying_a_trace_is_bit_identical() {
        use rand::Rng;
        let run = || {
            let mut dm = DynamicMatcher::new(40);
            let mut r = ChaCha8Rng::seed_from_u64(9);
            for _ in 0..300 {
                let u = r.gen_range(0..40u32);
                let v = r.gen_range(0..40u32);
                if u == v {
                    continue;
                }
                let e = Edge::new(u, v);
                if r.gen_bool(0.7) {
                    dm.insert(e).unwrap();
                } else {
                    dm.delete(e).unwrap();
                }
            }
            dm.matching().into_edges()
        };
        assert_eq!(run(), run());
    }
}
