//! Compressed sparse row (CSR) representation.
//!
//! The matching and peeling algorithms traverse neighbourhoods many times;
//! a CSR layout keeps all neighbour lists in one contiguous allocation which
//! is friendlier to the cache than `Vec<Vec<u32>>` (see the Rust Performance
//! Book's guidance on heap allocations and memory locality).
//!
//! A `Csr` owns its buffers and can be refilled in place: [`Csr::rebuild`]
//! and [`Csr::rebuild_unsorted`] overwrite the previous graph and reuse the
//! allocations, so a solver engine that keeps one `Csr` pays for its buffers
//! once, at the size of its largest solve.
//!
//! [`Csr::rebuild_unsorted`] is one scatter: each list comes out in edge
//! order. [`Csr::rebuild`] sorts every list without a comparison sort. When
//! the edges are canonical (every `u <= v`, and non-decreasing in `(u, v)`),
//! the edge-order scatter already lists each vertex's smaller neighbours
//! in increasing order followed by its larger ones, so it is the whole
//! build; one `O(m)` read checks for that case. Otherwise the edge-order
//! lists move to a reused scratch buffer and a **transpose** walks them in
//! vertex order, appending each vertex to its neighbours' lists through one
//! cursor copy of the offsets: `O(n + m)`, and every list is sorted because
//! the walk meets its entries in increasing order. The offsets and targets
//! equal those of sorting each list, which the tests check against a
//! comparison-sort oracle.
//!
//! Only a solver whose output does not depend on neighbour order may read
//! unsorted lists: the vertex-cover engine's peeling rounds qualify (a round
//! peels exactly the vertices of residual degree `>= t`, and degree
//! decrements commute), while the matching solvers' traversal order defines
//! their answer, and [`Csr::has_edge`] binary-searches.

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
    /// The edge-order lists a sorted [`Csr::rebuild`] transposes from.
    scratch: Vec<VertexId>,
    /// The transpose's per-vertex write positions.
    cursor: Vec<u32>,
}

impl Default for Csr {
    /// The CSR of the graph with no vertices.
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            targets: Vec::new(),
            scratch: Vec::new(),
            cursor: Vec::new(),
        }
    }
}

impl Csr {
    /// Builds the CSR adjacency of `n` vertices over a trusted edge slice —
    /// the core constructor every representation funnels into.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut csr = Csr::default();
        csr.rebuild(n, edges);
        // A one-off CSR keeps no transpose scratch.
        Csr {
            offsets: csr.offsets,
            targets: csr.targets,
            ..Csr::default()
        }
    }

    /// Refills this CSR with the adjacency of `n` vertices over `edges`,
    /// reusing its buffers; every neighbour list comes out sorted. The result
    /// equals [`Csr::from_edges`]`(n, edges)`. Canonical edges take one
    /// scatter, any other order a scatter and a transpose (see the
    /// [module docs](self)).
    pub fn rebuild(&mut self, n: usize, edges: &[Edge]) {
        self.rebuild_unsorted(n, edges);
        if is_canonical(edges) {
            return;
        }
        let Csr {
            offsets,
            targets,
            scratch,
            cursor,
        } = self;
        // The edge-order lists move to the scratch buffer, and the transpose
        // refills the targets from them, every slot exactly once.
        std::mem::swap(targets, scratch);
        targets.resize(scratch.len(), 0);
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        // `y` lists `x` once per time `x` lists `y`, and `x` runs upwards,
        // so each of `y`'s lists fills in increasing order.
        for (x, w) in offsets.windows(2).enumerate() {
            for &y in &scratch[w[0] as usize..w[1] as usize] {
                let slot = &mut cursor[y as usize];
                targets[*slot as usize] = x as VertexId;
                *slot += 1;
            }
        }
    }

    /// Refills this CSR like [`Csr::rebuild`] but leaves each neighbour list
    /// in edge order: `v`'s list holds the other endpoint of each edge at
    /// `v`, in the order those edges appear in `edges`. The offsets equal
    /// [`Csr::rebuild`]'s. See the [module docs](self) for which solvers may
    /// read unsorted lists; [`Csr::has_edge`] may not.
    pub fn rebuild_unsorted(&mut self, n: usize, edges: &[Edge]) {
        let Csr {
            offsets, targets, ..
        } = self;
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

/// Whether every edge has `u <= v` and the edges are non-decreasing in
/// `(u, v)`: then the edge-order scatter lists every vertex's neighbours in
/// increasing order. One `O(m)` read.
fn is_canonical(edges: &[Edge]) -> bool {
    let mut prev = Edge { u: 0, v: 0 };
    edges.iter().all(|&e| {
        let in_order = prev <= e && e.u <= e.v;
        prev = e;
        in_order
    })
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
    use crate::gen::er::gnm;
    use crate::gen::rmat::rmat_graph500;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

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
        let none = Csr::from_edges(0, &[]);
        assert_eq!((none.n(), none.m()), (0, 0));
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

    /// The comparison-sort build that [`Csr::rebuild`] replaced: the
    /// edge-order scatter, then a sort of every list. The oracle of the
    /// transpose.
    fn sorted_by_comparison(n: usize, edges: &[Edge]) -> Csr {
        let mut csr = Csr::default();
        csr.rebuild_unsorted(n, edges);
        let Csr {
            offsets, targets, ..
        } = &mut csr;
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if hi - lo > 1 {
                targets[lo..hi].sort_unstable();
            }
        }
        csr
    }

    /// One input of the differential tests: a gnm or R-MAT graph, maybe
    /// spread over a larger id space or padded with isolated vertices, with
    /// its edges in generation order, shuffled, canonical, as a
    /// concatenation of sorted runs (a root solve's shape; runs overlap, so
    /// edges repeat), with duplicates, sorted with some endpoints swapped, or
    /// dropped altogether.
    fn random_input(r: &mut ChaCha8Rng) -> (usize, Vec<Edge>) {
        let g = if r.gen_bool(0.5) {
            let n = r.gen_range(2..300);
            let m = r.gen_range(0..(n * (n - 1) / 2).min(6 * n) + 1);
            gnm(n, m, r)
        } else {
            rmat_graph500(r.gen_range(1..10), r.gen_range(1..12), r)
        };
        let stride = if r.gen_bool(0.3) {
            r.gen_range(2..50)
        } else {
            1
        };
        let n = g.n() * stride as usize + r.gen_range(0..20);
        let mut edges: Vec<Edge> = g
            .edges()
            .iter()
            .map(|e| Edge::new(e.u * stride, e.v * stride))
            .collect();
        match r.gen_range(0..7) {
            0 => {}
            1 => edges.shuffle(r),
            2 => edges.sort_unstable(),
            3 => {
                let runs: Vec<Vec<Edge>> = (0..r.gen_range(1..6))
                    .map(|_| {
                        let a = r.gen_range(0..edges.len() + 1);
                        let b = r.gen_range(a..edges.len() + 1);
                        let mut run = edges[a..b].to_vec();
                        run.sort_unstable();
                        run
                    })
                    .collect();
                edges = runs.concat();
            }
            4 => {
                let copies = edges.len() / 3;
                edges.extend_from_within(..copies);
                if r.gen_bool(0.5) {
                    edges.sort_unstable();
                } else {
                    edges.shuffle(r);
                }
            }
            5 => {
                // Sorted as raw pairs, yet not canonical.
                for e in &mut edges {
                    if r.gen_bool(0.1) {
                        *e = Edge { u: e.v, v: e.u };
                    }
                }
                edges.sort_unstable();
            }
            _ => edges.clear(),
        }
        (n, edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 256 }))]

        /// The transpose (and the one-scatter canonical path) gives the
        /// offsets and targets of sorting every edge-order list.
        #[test]
        fn rebuild_equals_the_comparison_sort_oracle(seed in any::<u64>()) {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let (n, edges) = random_input(&mut r);
            let oracle = sorted_by_comparison(n, &edges);
            let csr = Csr::from_edges(n, &edges);
            prop_assert_eq!(&csr.offsets, &oracle.offsets);
            prop_assert_eq!(&csr.targets, &oracle.targets);
        }
    }

    /// One `Csr` refilled by sorted and unsorted builds in turn, across
    /// growing and shrinking graphs, equals a fresh build every time: no
    /// stale target, scratch or cursor entry of an earlier build shows.
    #[test]
    fn one_csr_rebuilt_across_growing_and_shrinking_graphs() {
        let mut r = ChaCha8Rng::seed_from_u64(17);
        let mut csr = Csr::default();
        assert_eq!((csr.n(), csr.m()), (0, 0));
        for round in 0..80 {
            let (n, edges) = random_input(&mut r);
            let fresh = Csr::from_edges(n, &edges);
            if round % 2 == 1 {
                csr.rebuild_unsorted(n, &edges);
                assert_eq!(csr.offsets, fresh.offsets, "round {round}");
                for (v, list) in edge_order_lists(n, &edges).iter().enumerate() {
                    let v = v as VertexId;
                    assert_eq!(csr.neighbors(v), &list[..], "round {round}, {v}");
                }
            }
            csr.rebuild(n, &edges);
            assert_eq!(csr.offsets, fresh.offsets, "round {round}");
            assert_eq!(csr.targets, fresh.targets, "round {round}");
            assert_eq!(csr.m(), edges.len());

            let present: BTreeSet<(VertexId, VertexId)> = edges
                .iter()
                .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
                .collect();
            for &(a, b) in &present {
                assert!(csr.has_edge(a, b), "round {round}, ({a}, {b})");
            }
            if n > 0 {
                for _ in 0..64 {
                    let (a, b) = (r.gen_range(0..n as u32), r.gen_range(0..n as u32));
                    assert_eq!(csr.has_edge(a, b), present.contains(&(a, b)));
                }
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
