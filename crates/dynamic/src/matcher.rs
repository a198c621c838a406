//! The incremental maximal-matching structure.
//!
//! See the [crate docs](crate) for the update model and guarantees. The hot
//! paths ([`DynamicMatcher::insert`], [`DynamicMatcher::delete`] and the
//! repair helpers they call) perform **no per-update allocation**: adjacency
//! edits are in-place sorted inserts/removes, and the repair scans use the
//! matcher's epoch-stamped scratch (`stamp`) to memoize "this vertex has no
//! free neighbour" verdicts within one operation's repair epoch. The
//! memoization is sound because a repair never *frees* a vertex — matched
//! vertices stay matched through the length-3 rotations — so a "no free
//! neighbour" verdict cannot be invalidated later in the same epoch.

use graph::{ChurnOp, Edge, Graph, GraphError, VertexId};
use matching::maximum::MaximumMatchingAlgorithm;
use matching::{Matching, MatchingEngine};

/// Sentinel for "unmatched" in the mate array.
const NONE: VertexId = VertexId::MAX;

/// Update/repair counters of one [`DynamicMatcher`] (monotone over its life).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynStats {
    /// Effective edge insertions.
    pub inserts: u64,
    /// Effective edge deletions.
    pub deletes: u64,
    /// Freed vertices rematched to a free neighbour (greedy pass).
    pub rematches: u64,
    /// Length-3 augmenting rotations performed by the bounded repair.
    pub rotations: u64,
    /// Repairs skipped or aborted by the degree threshold / probe budget
    /// (each accrues one unit of dirt).
    pub skipped_repairs: u64,
    /// Full engine re-solves triggered by the dirt budget.
    pub fallback_resolves: u64,
}

/// A maximal matching maintained under edge churn with degree-bounded repair
/// and an engine-backed fallback re-solve. See the [crate docs](crate).
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
    /// Epoch-stamped repair scratch: `stamp[z] == epoch` means `z`'s
    /// neighbourhood was scanned this epoch and held no free vertex.
    stamp: Vec<u32>,
    epoch: u32,
    /// Degree threshold `D`: repairs only walk neighbourhoods of degree
    /// `<= D`, with at most `D` probes per repair.
    degree_threshold: usize,
    /// Accrued dirt (skipped/aborted repairs since the last full solve).
    dirt: usize,
    /// Dirt level that triggers the fallback re-solve.
    dirt_budget: usize,
    eps: f64,
    engine: MatchingEngine,
    stats: DynStats,
}

impl DynamicMatcher {
    /// An empty matcher over `n` vertices with the default slack `ε = 0.5`.
    pub fn new(n: usize) -> Self {
        // eps = 0.5 is validated by construction; the expect cannot fire.
        match Self::with_eps(n, 0.5) {
            Ok(s) => s,
            // Unreachable: 0.5 is finite and positive.
            Err(_) => unreachable!("default eps is valid"), // xtask: allow(error-hygiene)
        }
    }

    /// An empty matcher over `n` vertices with repair slack `eps` (the degree
    /// threshold is `D ≈ √(2m)/eps`, re-derived after every full solve).
    /// `eps` must be finite and positive.
    pub fn with_eps(n: usize, eps: f64) -> Result<Self, GraphError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(GraphError::InvalidParameter {
                reason: format!("repair slack eps must be finite and positive, got {eps}"),
            });
        }
        let mut s = DynamicMatcher {
            n,
            adj: vec![Vec::new(); n],
            m: 0,
            mate: vec![NONE; n],
            matched_pairs: 0,
            stamp: vec![0; n],
            epoch: 0,
            degree_threshold: 0,
            dirt: 0,
            dirt_budget: 0,
            eps,
            engine: MatchingEngine::new(),
            stats: DynStats::default(),
        };
        s.rederive_budgets();
        Ok(s)
    }

    /// Builds the matcher over `g`'s edge set and seeds it with the greedy
    /// maximal matching in canonical edge order (`O(m)` after adjacency
    /// construction). Call [`resolve_max`](Self::resolve_max) afterwards if a
    /// *maximum* starting matching is wanted.
    pub fn from_graph(g: &Graph, eps: f64) -> Result<Self, GraphError> {
        let mut s = Self::with_eps(g.n(), eps)?;
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
            let (u, v) = (e.u as usize, e.v as usize);
            if s.mate[u] == NONE && s.mate[v] == NONE {
                s.mate[u] = e.v;
                s.mate[v] = e.u;
                s.matched_pairs += 1;
            }
        }
        s.rederive_budgets();
        Ok(s)
    }

    /// Re-derives the degree threshold and dirt budget from the current edge
    /// count: `D = max(8, ⌈√(2m)/eps⌉)`, dirt budget `= max(64, D)`.
    fn rederive_budgets(&mut self) {
        let d = ((2.0 * self.m as f64).sqrt() / self.eps).ceil() as usize;
        self.degree_threshold = d.max(8);
        self.dirt_budget = self.degree_threshold.max(64);
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Current degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
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

    /// The current degree threshold `D` bounding repairs.
    #[inline]
    pub fn degree_threshold(&self) -> usize {
        self.degree_threshold
    }

    /// Update/repair counters.
    #[inline]
    pub fn stats(&self) -> DynStats {
        self.stats
    }

    /// Overrides the repair budgets (testing hook): `degree_threshold`
    /// bounds each repair's neighbourhood walks and probe count,
    /// `dirt_budget` is the skipped-repair level that triggers the fallback
    /// re-solve. Both are re-derived from `m` and `eps` at the next full
    /// solve.
    pub fn set_budgets(&mut self, degree_threshold: usize, dirt_budget: usize) {
        self.degree_threshold = degree_threshold;
        self.dirt_budget = dirt_budget;
    }

    /// Applies one churn operation; returns whether the edge set changed.
    pub fn apply(&mut self, op: ChurnOp) -> Result<bool, GraphError> {
        match op {
            ChurnOp::Insert(e) => self.insert(e),
            ChurnOp::Delete(e) => self.delete(e),
        }
    }

    /// Starts a new repair epoch (handles stamp wraparound).
    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            for s in &mut self.stamp {
                *s = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts edge `e`. Returns `Ok(true)` if it was absent (and is now
    /// present), `Ok(false)` for a duplicate no-op. The edge is checked and
    /// canonicalized by [`Edge::checked`] first, as in [`Self::delete`].
    ///
    /// If both endpoints are free they are matched directly; if exactly one
    /// is free, a bounded length-3 rotation through the other endpoint's
    /// mate may still grow the matching. Either way the matching stays
    /// maximal: the new edge ends with at least one matched endpoint.
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
        self.stats.inserts += 1;
        self.bump_epoch();
        let (mu, mv) = (self.mate[u], self.mate[v]);
        if mu == NONE && mv == NONE {
            self.mate[u] = e.v;
            self.mate[v] = e.u;
            self.matched_pairs += 1;
            self.stats.rematches += 1;
        } else if mu == NONE || mv == NONE {
            // One endpoint free: try to grow through the matched endpoint's
            // mate (x free — w matched — z = mate(w) — free y rotation).
            let (x, w) = if mu == NONE { (e.u, e.v) } else { (e.v, e.u) };
            let mut budget = self.degree_threshold;
            if !self.try_rotate(x, w, &mut budget) && budget == 0 {
                self.dirt += 1;
                self.stats.skipped_repairs += 1;
            }
        }
        self.maybe_fallback();
        Ok(true)
    }

    /// Deletes edge `e`. Returns `Ok(true)` if it was present (and is now
    /// absent), `Ok(false)` for an absent no-op.
    ///
    /// Deleting a matched edge frees both endpoints; each is repaired by a
    /// full greedy scan (preserving maximality) plus a degree-bounded
    /// length-3 rotation attempt (recovering size where cheap).
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
        self.stats.deletes += 1;
        if self.mate[u] == e.v {
            self.mate[u] = NONE;
            self.mate[v] = NONE;
            self.matched_pairs -= 1;
            self.bump_epoch();
            self.repair_vertex(e.u);
            if self.mate[v] == NONE {
                self.repair_vertex(e.v);
            }
        }
        self.maybe_fallback();
        Ok(true)
    }

    /// Repairs freed vertex `x`: greedy full scan for a free neighbour
    /// (required for maximality — never skipped), then, if `deg(x) <= D`, a
    /// budgeted length-3 rotation attempt through each matched neighbour.
    fn repair_vertex(&mut self, x: VertexId) {
        let xi = x as usize;
        // Greedy pass: match to the smallest free neighbour, if any.
        let mut free = NONE;
        for idx in 0..self.adj[xi].len() {
            let w = self.adj[xi][idx];
            if self.mate[w as usize] == NONE {
                free = w;
                break;
            }
        }
        if free != NONE {
            self.mate[xi] = free;
            self.mate[free as usize] = x;
            self.matched_pairs += 1;
            self.stats.rematches += 1;
            return;
        }
        // Bounded augmenting pass: all neighbours are matched; look for a
        // length-3 augmenting path x — w — mate(w) — free y.
        if self.adj[xi].len() > self.degree_threshold {
            self.dirt += 1;
            self.stats.skipped_repairs += 1;
            return;
        }
        let mut budget = self.degree_threshold;
        for idx in 0..self.adj[xi].len() {
            if budget == 0 {
                self.dirt += 1;
                self.stats.skipped_repairs += 1;
                return;
            }
            budget -= 1;
            let w = self.adj[xi][idx];
            if self.try_rotate(x, w, &mut budget) {
                return;
            }
        }
    }

    /// Attempts the length-3 rotation `x — w — z=mate(w) — y` for free `x`,
    /// matched neighbour `w`: rematches `w` to `x` and `z` to a free
    /// neighbour `y`, growing the matching by one. Walks `z`'s list only if
    /// `deg(z) <= D` and the probe budget allows; memoizes failures in the
    /// epoch stamp. Returns whether a rotation happened.
    fn try_rotate(&mut self, x: VertexId, w: VertexId, budget: &mut usize) -> bool {
        let z = self.mate[w as usize];
        debug_assert_ne!(z, NONE, "rotation requires a matched pivot");
        let zi = z as usize;
        if self.stamp[zi] == self.epoch || self.adj[zi].len() > self.degree_threshold {
            return false;
        }
        for idx in 0..self.adj[zi].len() {
            if *budget == 0 {
                // Out of probes: conservatively record nothing about z (its
                // scan is incomplete), let the caller account the dirt.
                return false;
            }
            *budget -= 1;
            let y = self.adj[zi][idx];
            if y != x && self.mate[y as usize] == NONE {
                self.mate[x as usize] = w;
                self.mate[w as usize] = x;
                self.mate[zi] = y;
                self.mate[y as usize] = z;
                self.matched_pairs += 1;
                self.stats.rotations += 1;
                return true;
            }
        }
        // Full scan found no free neighbour; matched vertices never become
        // free within an epoch, so this verdict stays valid until the next
        // operation bumps the epoch.
        self.stamp[zi] = self.epoch;
        false
    }

    /// Runs the fallback full re-solve if the accrued dirt crossed the
    /// budget.
    fn maybe_fallback(&mut self) {
        if self.dirt >= self.dirt_budget {
            self.stats.fallback_resolves += 1;
            self.resolve_max();
        }
    }

    /// Replaces the maintained matching with a **maximum** matching of the
    /// current graph, computed by the owned [`MatchingEngine`] warm-started
    /// from the current matching (the engine's epoch-stamped
    /// `BlossomWorkspace` is reused across calls). Resets the dirt and
    /// re-derives the repair budgets from the current `m`. Returns the new
    /// size.
    pub fn resolve_max(&mut self) -> usize {
        let g = self.current_graph();
        let warm = self.matching();
        let solved = self
            .engine
            .solve_warm(&g, &warm, MaximumMatchingAlgorithm::Auto);
        for mv in &mut self.mate {
            *mv = NONE;
        }
        self.matched_pairs = solved.len();
        for e in solved.edges() {
            self.mate[e.u as usize] = e.v;
            self.mate[e.v as usize] = e.u;
        }
        self.dirt = 0;
        self.rederive_budgets();
        self.matched_pairs
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
    fn insert_with_one_free_endpoint_rotates() {
        let mut dm = DynamicMatcher::new(4);
        // Match (1, 2), then insert (0, 1) with 0 free and (2, 3) available:
        // the rotation rematches 1 to 0 and 2 to 3.
        dm.insert(Edge::new(1, 2)).unwrap();
        dm.insert(Edge::new(2, 3)).unwrap();
        assert_eq!(dm.matching_size(), 1);
        dm.insert(Edge::new(0, 1)).unwrap();
        assert_eq!(
            dm.matching_size(),
            2,
            "length-3 rotation grows the matching"
        );
        assert_eq!(dm.mate(0), Some(1));
        assert_eq!(dm.mate(2), Some(3));
        assert!(dm.stats().rotations >= 1);
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
        // Suppress insert-time rotations so (2, 3) stays the only matched
        // edge while its pendant neighbours (0, 2) and (3, 5) arrive.
        dm.set_budgets(0, u64::MAX as usize);
        for (a, b) in [(2, 3), (0, 2), (3, 5)] {
            dm.insert(Edge::new(a, b)).unwrap();
        }
        assert_eq!(dm.matching_size(), 1);
        assert_eq!(dm.mate(2), Some(3));
        dm.set_budgets(8, 64);
        dm.delete(Edge::new(2, 3)).unwrap();
        // Both endpoints rematch greedily: 2 to 0, 3 to 5.
        assert_eq!(dm.matching_size(), 2);
        assert_eq!(dm.mate(2), Some(0));
        assert_eq!(dm.mate(3), Some(5));
        assert_invariants(&dm);
    }

    #[test]
    fn dirt_budget_triggers_engine_fallback() {
        let g = gnp(60, 0.2, &mut ChaCha8Rng::seed_from_u64(3));
        let mut dm = DynamicMatcher::from_graph(&g, 0.5).unwrap();
        // Force every bounded repair to be skipped and fall back immediately.
        dm.set_budgets(0, 1);
        let mut r = ChaCha8Rng::seed_from_u64(4);
        use rand::Rng;
        let mut deleted = 0;
        while dm.stats().fallback_resolves == 0 && dm.m() > 0 {
            let edges = dm.current_graph();
            let e = edges.edges()[r.gen_range(0..edges.m())];
            dm.delete(e).unwrap();
            deleted += 1;
        }
        assert!(
            dm.stats().fallback_resolves >= 1,
            "fallback after {deleted} deletes"
        );
        // After a fallback the matching is maximum (resolve_max is a no-op).
        let size = dm.matching_size();
        // Budgets were re-derived by the fallback; resolve again to confirm.
        assert_eq!(dm.resolve_max(), size);
        assert_invariants(&dm);
    }

    #[test]
    fn from_graph_seeds_the_greedy_maximal_matching() {
        let g = gnp(100, 0.05, &mut ChaCha8Rng::seed_from_u64(5));
        let dm = DynamicMatcher::from_graph(&g, 0.5).unwrap();
        assert_eq!(dm.m(), g.m());
        assert_eq!(dm.current_graph().edges(), g.edges());
        assert_invariants(&dm);
    }

    #[test]
    fn resolve_max_reaches_the_engine_optimum() {
        let g = gnp(80, 0.08, &mut ChaCha8Rng::seed_from_u64(6));
        let mut dm = DynamicMatcher::from_graph(&g, 0.5).unwrap();
        let max = MatchingEngine::new().solve(&g).len();
        assert!(dm.matching_size() <= max);
        assert!(2 * dm.matching_size() >= max, "maximal is a 2-approx");
        assert_eq!(dm.resolve_max(), max);
        assert_invariants(&dm);
    }

    #[test]
    fn out_of_range_and_bad_eps_are_rejected() {
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
        assert!(DynamicMatcher::with_eps(3, 0.0).is_err());
        assert!(DynamicMatcher::with_eps(3, f64::NAN).is_err());
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
            (dm.matching().into_edges(), dm.stats())
        };
        assert_eq!(run(), run());
    }
}
