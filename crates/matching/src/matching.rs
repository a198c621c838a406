//! The [`Matching`] type: a set of vertex-disjoint edges with validation
//! helpers used by every algorithm and by the coreset composition step.

use graph::{Edge, GraphRef, VertexId};
use std::collections::BTreeSet;
// Membership-only endpoint-disjointness checks below keep `HashSet` for O(1)
// probes; their iteration order is never observed, so hash nondeterminism
// cannot reach an output.
use std::collections::HashSet; // xtask: allow(hash-collections)

/// A matching: a set of edges no two of which share an endpoint.
///
/// The structure does not borrow the graph it was computed from; validity
/// *with respect to a graph* (all edges present) is checked explicitly via
/// [`Matching::is_valid_for`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    edges: Vec<Edge>,
}

impl Matching {
    /// The empty matching.
    pub fn new() -> Self {
        Matching { edges: Vec::new() }
    }

    /// Builds a matching from edges, panicking if two edges share an endpoint.
    ///
    /// Use [`Matching::try_from_edges`] for a non-panicking variant.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        Self::try_from_edges(edges).expect("edges do not form a matching")
    }

    /// Wraps edges the caller has already checked to be vertex-disjoint.
    pub(crate) fn from_edges_unchecked(edges: Vec<Edge>) -> Self {
        Matching { edges }
    }

    /// Builds a matching from edges, returning `None` if two edges share an
    /// endpoint.
    pub fn try_from_edges(edges: Vec<Edge>) -> Option<Self> {
        if edges_form_matching(&edges) {
            Some(Matching { edges })
        } else {
            None
        }
    }

    /// Number of edges in the matching.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the matching has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The matched edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Consumes the matching, returning its edges.
    #[inline]
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// The set of matched vertices, iterable in ascending order (`BTreeSet`
    /// so downstream consumers that surface the set stay deterministic).
    pub fn matched_vertices(&self) -> BTreeSet<VertexId> {
        let mut s = BTreeSet::new();
        for e in &self.edges {
            s.insert(e.u);
            s.insert(e.v);
        }
        s
    }

    /// Returns `true` if `v` is an endpoint of some matched edge.
    pub fn covers(&self, v: VertexId) -> bool {
        self.edges.iter().any(|e| e.is_incident(v))
    }

    /// Returns the partner of `v` in the matching, if matched.
    pub fn mate(&self, v: VertexId) -> Option<VertexId> {
        self.edges
            .iter()
            .find(|e| e.is_incident(v))
            .map(|e| e.other(v))
    }

    /// A mate array indexed by vertex id (length `n`).
    pub fn mate_array(&self, n: usize) -> Vec<Option<VertexId>> {
        let mut mate = vec![None; n];
        for e in &self.edges {
            mate[e.u as usize] = Some(e.v);
            mate[e.v as usize] = Some(e.u);
        }
        mate
    }

    /// Adds an edge to the matching if neither endpoint is already matched;
    /// returns `true` on success. This is the elementary step of the paper's
    /// `GreedyMatch` process.
    pub fn try_add(&mut self, e: Edge, matched: &mut [bool]) -> bool {
        let (u, v) = (e.u as usize, e.v as usize);
        if matched[u] || matched[v] {
            return false;
        }
        matched[u] = true;
        matched[v] = true;
        self.edges.push(e);
        true
    }

    /// Checks that every matched edge is present in `g` and that the edges are
    /// pairwise disjoint (the latter is an invariant, re-checked defensively).
    pub fn is_valid_for<G: GraphRef + ?Sized>(&self, g: &G) -> bool {
        // Membership-only probe sets; order never observed.
        let edge_set: HashSet<Edge> = g.edges().iter().copied().collect(); // xtask: allow(hash-collections)
        let mut seen: HashSet<VertexId> = HashSet::new(); // xtask: allow(hash-collections)
        for e in &self.edges {
            if !edge_set.contains(e) {
                return false;
            }
            if !seen.insert(e.u) || !seen.insert(e.v) {
                return false;
            }
        }
        true
    }

    /// Checks maximality in `g`: no edge of `g` has both endpoints unmatched.
    pub fn is_maximal_in<G: GraphRef + ?Sized>(&self, g: &G) -> bool {
        let matched = self.matched_vertices();
        g.edges()
            .iter()
            .all(|e| matched.contains(&e.u) || matched.contains(&e.v))
    }
}

impl From<Vec<Edge>> for Matching {
    fn from(edges: Vec<Edge>) -> Self {
        Matching::from_edges(edges)
    }
}

/// Returns `true` if no two of `edges` share an endpoint — the matching
/// property, checkable on a borrowed slice without building a [`Matching`]
/// (which [`Matching::try_from_edges`] then builds only on success).
pub fn edges_form_matching(edges: &[Edge]) -> bool {
    // Membership-only probe set; order never observed.
    let mut seen: HashSet<VertexId> = HashSet::with_capacity(edges.len() * 2); // xtask: allow(hash-collections)
    edges.iter().all(|e| seen.insert(e.u) && seen.insert(e.v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Graph;

    fn path4() -> Graph {
        Graph::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn empty_matching() {
        let m = Matching::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(m.is_valid_for(&path4()));
        assert!(!m.is_maximal_in(&path4()));
    }

    #[test]
    fn from_edges_validates_disjointness() {
        assert!(Matching::try_from_edges(vec![Edge::new(0, 1), Edge::new(2, 3)]).is_some());
        assert!(Matching::try_from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]).is_none());
    }

    #[test]
    fn borrowed_matching_check_agrees_with_try_from_edges() {
        let good = vec![Edge::new(0, 1), Edge::new(2, 3)];
        let bad = vec![Edge::new(0, 1), Edge::new(1, 2)];
        assert!(edges_form_matching(&good));
        assert!(!edges_form_matching(&bad));
        assert!(edges_form_matching(&[]));
        assert_eq!(
            edges_form_matching(&good),
            Matching::try_from_edges(good.clone()).is_some()
        );
        assert_eq!(
            edges_form_matching(&bad),
            Matching::try_from_edges(bad.clone()).is_some()
        );
    }

    #[test]
    #[should_panic(expected = "do not form a matching")]
    fn from_edges_panics_on_conflict() {
        let _ = Matching::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    fn mates_and_coverage() {
        let m = Matching::from_edges(vec![Edge::new(0, 1), Edge::new(2, 3)]);
        assert!(m.covers(0));
        assert!(m.covers(3));
        assert!(!m.covers(4));
        assert_eq!(m.mate(0), Some(1));
        assert_eq!(m.mate(3), Some(2));
        assert_eq!(m.mate(7), None);
        let mates = m.mate_array(5);
        assert_eq!(mates[0], Some(1));
        assert_eq!(mates[4], None);
        assert_eq!(m.matched_vertices().len(), 4);
    }

    #[test]
    fn try_add_respects_matched_vertices() {
        let mut m = Matching::new();
        let mut matched = vec![false; 5];
        assert!(m.try_add(Edge::new(0, 1), &mut matched));
        assert!(!m.try_add(Edge::new(1, 2), &mut matched));
        assert!(m.try_add(Edge::new(3, 4), &mut matched));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn validity_and_maximality() {
        let g = path4();
        let m = Matching::from_edges(vec![Edge::new(1, 2)]);
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));

        let m2 = Matching::from_edges(vec![Edge::new(0, 1)]);
        assert!(m2.is_valid_for(&g));
        assert!(!m2.is_maximal_in(&g), "edge (2,3) is still free");

        let foreign = Matching::from_edges(vec![Edge::new(0, 3)]);
        assert!(!foreign.is_valid_for(&g));
    }
}
