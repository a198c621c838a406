//! Vertex compaction: relabel a graph onto its non-isolated vertices.
//!
//! The partition pieces the paper's protocols solve are *sparse slices of a
//! huge vertex set*: a `gnp(1e5, 2e-4)` piece under a `k = 16` random
//! partition touches only ~70% of the 100k vertex ids, and the coresets the
//! coordinator composes are matchings touching even fewer. Every solver that
//! allocates per-vertex state (blossom search arrays, forced-step degrees,
//! peeling degrees) would otherwise pay for the isolated ids on every call.
//!
//! [`VertexCompactor`] relabels the non-isolated vertices of any
//! [`GraphRef`] to the dense range `0..n_local` — in **increasing original-id
//! order**, so the relabeling is monotone and canonical edge order is
//! preserved — and maps solver output back to the original ids.
//!
//! # Cost
//!
//! A call never sorts vertex ids. It sets one presence bit per endpoint in a
//! `u64` word array (one word per 64 ids) without branching on whether the
//! vertex was seen, and records a word's index the first time that word
//! becomes non-zero. Only those `w ≤ min(2m, ⌈n/64⌉)` word indices are
//! sorted; expanding the set bits in word order then assigns the same
//! monotone local ids a sort of the vertex ids would. A call therefore costs
//! `O(m + n_local + w log w)`. Every array grows to the largest `n` seen, so
//! after the first call no step is `O(n)`. The relabeling table is written
//! only for the `n_local` live vertices and read only for the call's own
//! endpoints, so what earlier calls left in it is never read.
//!
//! # Unwinding
//!
//! A word index is recorded before its word gains its first bit, so the
//! recorded list always names every non-zero word, even if a call unwinds
//! part-way (say, on an endpoint past the buffers). Each call clears the
//! words its predecessor recorded before setting any bit of its own, so no
//! mark of an earlier call, finished or not, reaches a later one.

use crate::edge::{Edge, VertexId};
use crate::view::{GraphRef, GraphView};

/// Reusable vertex-compaction scratch: relabels graphs onto their non-isolated
/// vertices and maps results back.
///
/// See the [module docs](self) for the presence-bit scheme. A compactor's
/// mapping accessors ([`VertexCompactor::n_local`],
/// [`VertexCompactor::expand_edges`], …) always refer to the most recent
/// [`VertexCompactor::compact`] call.
#[derive(Debug, Clone, Default)]
pub struct VertexCompactor {
    /// `local_of[v]` = dense id of original vertex `v`; valid for the
    /// current call's endpoints only.
    local_of: Vec<u32>,
    /// Presence bits: bit `v % 64` of `present[v / 64]` is set iff `v` is an
    /// endpoint in the current call. Every non-zero word is listed in
    /// `touched`.
    present: Vec<u64>,
    /// Indices of the non-zero `present` words (sorted once marking ends).
    touched: Vec<u32>,
    /// Sorted original ids of the current non-isolated vertices;
    /// `orig_of[local] = original`.
    orig_of: Vec<VertexId>,
    /// The relabeled edge list (same order as the source edge list).
    edges: Vec<Edge>,
}

impl VertexCompactor {
    /// Creates an empty compactor; arrays grow to the largest `n` seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relabels `g` onto its non-isolated vertices (monotone in original id).
    pub fn compact<G: GraphRef + ?Sized>(&mut self, g: &G) {
        self.compact_concat(g.n(), &[g.edges()]);
    }

    /// Relabels the **concatenation** of `slices` (edge slices over a shared
    /// vertex set `0..n`) onto its non-isolated vertices, without ever
    /// materializing the union edge list.
    ///
    /// For pairwise edge-disjoint slices — per-machine coresets of a
    /// partitioned graph always are — the result is identical to calling
    /// [`VertexCompactor::compact`] on the first-occurrence-preserving union:
    /// same `n_local`, same relabeled edge sequence. Overlapping slices keep
    /// every duplicate (this is a relabeling, not a dedup).
    pub fn compact_concat(&mut self, n: usize, slices: &[&[Edge]]) {
        let words = n.div_ceil(64);
        if self.present.len() < words {
            self.present.resize(words, 0);
        }
        if self.local_of.len() < n {
            self.local_of.resize(n, 0);
        }
        // Clear the words the previous call recorded, finished or unwound.
        for &w in &self.touched {
            self.present[w as usize] = 0;
        }
        self.touched.clear();
        for s in slices {
            for e in *s {
                for x in [e.u, e.v] {
                    let w = x >> 6;
                    let old = self.present[w as usize];
                    if old == 0 {
                        self.touched.push(w);
                    }
                    self.present[w as usize] = old | (1 << (x & 63));
                }
            }
        }
        // Assign local ids in increasing original order: the relabeling is
        // monotone, so every relabeled edge keeps `u < v` and the piece's
        // deterministic edge/neighbour orderings survive compaction.
        self.touched.sort_unstable();
        self.orig_of.clear();
        for &w in &self.touched {
            let mut bits = self.present[w as usize];
            while bits != 0 {
                let v = (w << 6) | bits.trailing_zeros();
                self.local_of[v as usize] = self.orig_of.len() as u32;
                self.orig_of.push(v);
                bits &= bits - 1;
            }
        }
        self.edges.clear();
        for s in slices {
            self.edges.extend(s.iter().map(|e| {
                let (u, v) = (self.local_of[e.u as usize], self.local_of[e.v as usize]);
                debug_assert!(u < v, "monotone relabeling must preserve edge order");
                Edge { u, v }
            }));
        }
    }

    /// Number of vertices in the compacted graph (= non-isolated vertices of
    /// the source).
    #[inline]
    pub fn n_local(&self) -> usize {
        self.orig_of.len()
    }

    /// The relabeled edges, in the source's edge order.
    #[inline]
    pub fn local_edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Zero-copy view of the compacted graph.
    pub fn view(&self) -> GraphView<'_> {
        // Invariants hold by construction: the source is simple and the
        // relabeling is a bijection on its non-isolated vertices.
        GraphView::new_unchecked(self.n_local(), &self.edges)
    }

    /// The original id of compacted vertex `local`.
    #[inline]
    pub fn orig_of(&self, local: VertexId) -> VertexId {
        self.orig_of[local as usize]
    }

    /// Maps compacted-id edges back to original ids (preserving order; the
    /// monotone relabeling keeps each edge canonical).
    pub fn expand_edges(&self, local_edges: &[Edge]) -> Vec<Edge> {
        local_edges
            .iter()
            .map(|e| Edge {
                u: self.orig_of[e.u as usize],
                v: self.orig_of[e.v as usize],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::gnm;
    use crate::gen::rmat::rmat_graph500;
    use crate::graph::Graph;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The stamp-collect + sort compaction the presence bits replaced, kept
    /// as the differential oracle: first-touched ids are collected through
    /// epoch stamps, then sorted.
    #[derive(Default)]
    struct SortingCompactor {
        local_of: Vec<u32>,
        stamp: Vec<u32>,
        epoch: u32,
        orig_of: Vec<VertexId>,
        edges: Vec<Edge>,
    }

    impl SortingCompactor {
        fn compact_concat(&mut self, n: usize, slices: &[&[Edge]]) {
            if self.stamp.len() < n {
                self.stamp.resize(n, 0);
                self.local_of.resize(n, 0);
            }
            self.epoch += 1;
            self.orig_of.clear();
            for s in slices {
                for e in *s {
                    for x in [e.u, e.v] {
                        if self.stamp[x as usize] != self.epoch {
                            self.stamp[x as usize] = self.epoch;
                            self.orig_of.push(x);
                        }
                    }
                }
            }
            self.orig_of.sort_unstable();
            for (local, &orig) in self.orig_of.iter().enumerate() {
                self.local_of[orig as usize] = local as u32;
            }
            self.edges.clear();
            for s in slices {
                self.edges.extend(s.iter().map(|e| Edge {
                    u: self.local_of[e.u as usize],
                    v: self.local_of[e.v as usize],
                }));
            }
        }
    }

    /// Spreads a graph's vertices over a sparse id space (multiplying ids by
    /// `stride`), so most vertex ids are isolated.
    fn spread(g: &Graph, stride: u32) -> Graph {
        let edges = g
            .edges()
            .iter()
            .map(|e| Edge::new(e.u * stride, e.v * stride))
            .collect();
        Graph::from_edges_unchecked(g.n() * stride as usize, edges)
    }

    /// One compaction call of the differential test: a gnm or R-MAT graph,
    /// maybe spread over a large `n`, cut into disjoint or overlapping
    /// slices.
    fn random_call(r: &mut ChaCha8Rng) -> (usize, Vec<Vec<Edge>>) {
        let g = if r.gen_bool(0.5) {
            let n = r.gen_range(2..300);
            let m = r.gen_range(0..(n * (n - 1) / 2).min(4 * n) + 1);
            gnm(n, m, r)
        } else {
            let (scale, edge_factor) = (r.gen_range(1..10), r.gen_range(1..8));
            rmat_graph500(scale, edge_factor, r)
        };
        let g = if r.gen_bool(0.4) {
            spread(&g, r.gen_range(2..200))
        } else {
            g
        };
        let edges = g.edges();
        let slices = match r.gen_range(0..3) {
            0 => vec![edges.to_vec()],
            // Disjoint: every edge goes to one of up to five slices, in order.
            1 => {
                let mut slices = vec![Vec::new(); r.gen_range(1..6)];
                for &e in edges {
                    let i = r.gen_range(0..slices.len());
                    slices[i].push(e);
                }
                slices
            }
            // Overlapping: random windows of the edge list, repeats allowed.
            _ => (0..r.gen_range(1..5))
                .map(|_| {
                    let a = r.gen_range(0..edges.len() + 1);
                    let b = r.gen_range(a..edges.len() + 1);
                    edges[a..b].to_vec()
                })
                .collect(),
        };
        (g.n(), slices)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 256 }))]

        /// One presence-bit compactor reused across a run of calls (growing
        /// and shrinking `n`) maps every call exactly like a reused copy of
        /// the sorting compactor: same local ids, relabeled edges and
        /// expansion.
        #[test]
        fn presence_bits_match_the_sorting_compactor(seed in any::<u64>()) {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let (mut bits, mut oracle) = (VertexCompactor::new(), SortingCompactor::default());
            for call in 0..r.gen_range(1..6) {
                let (n, slices) = random_call(&mut r);
                let refs: Vec<&[Edge]> = slices.iter().map(Vec::as_slice).collect();
                bits.compact_concat(n, &refs);
                oracle.compact_concat(n, &refs);
                prop_assert_eq!(&bits.orig_of, &oracle.orig_of, "call {}", call);
                prop_assert_eq!(bits.local_edges(), &oracle.edges[..], "call {}", call);
                prop_assert_eq!(
                    bits.expand_edges(bits.local_edges()),
                    refs.concat(),
                    "call {}",
                    call
                );
            }
        }
    }

    /// A call that unwinds part-way, while marking or while expanding, leaves
    /// no mark behind: the next call equals a fresh compactor's.
    #[test]
    fn a_call_that_unwinds_part_way_leaks_nothing_into_the_next() {
        // `n = 100` sizes the relabeling table to 100 ids and the presence
        // words to 128: endpoint 100_000 is past every buffer (marking panics
        // after ids 5, 70 and 7 are set), and endpoint 120 only past the
        // table (expansion panics after every bit is set).
        for bad in [
            [Edge::new(5, 70), Edge::new(7, 100_000)],
            [Edge::new(5, 70), Edge::new(7, 120)],
        ] {
            let mut c = VertexCompactor::new();
            c.compact(&Graph::from_pairs(100, vec![(3, 99)]).unwrap());
            let unwound = catch_unwind(AssertUnwindSafe(|| c.compact_concat(100, &[&bad])));
            assert!(unwound.is_err(), "{bad:?} must be rejected");

            let g = Graph::from_pairs(100, vec![(1, 2), (2, 64), (3, 99)]).unwrap();
            c.compact(&g);
            let mut fresh = VertexCompactor::new();
            fresh.compact(&g);
            assert_eq!(c.n_local(), fresh.n_local(), "{bad:?}");
            assert_eq!(c.orig_of, fresh.orig_of, "{bad:?}");
            assert_eq!(c.local_edges(), fresh.local_edges(), "{bad:?}");
        }
    }

    #[test]
    fn compacts_away_isolated_vertices() {
        // Vertices 0, 3, 9 are used; 10 ids total.
        let g = Graph::from_pairs(10, vec![(3, 9), (0, 9)]).unwrap();
        let mut c = VertexCompactor::new();
        c.compact(&g);
        assert_eq!(c.n_local(), 3);
        assert_eq!(c.orig_of(0), 0);
        assert_eq!(c.orig_of(1), 3);
        assert_eq!(c.orig_of(2), 9);
        // Edge order preserved (`from_pairs` canonicalizes to [(0,9), (3,9)]),
        // ids relabeled monotonically.
        assert_eq!(c.local_edges(), &[Edge::new(0, 2), Edge::new(1, 2)]);
        assert_eq!(c.view().n(), 3);
        assert_eq!(c.view().m(), 2);
    }

    #[test]
    fn round_trip_is_identity_on_edges() {
        let g = Graph::from_pairs(50, vec![(4, 40), (7, 12), (12, 40)]).unwrap();
        let mut c = VertexCompactor::new();
        c.compact(&g);
        let back = c.expand_edges(c.local_edges());
        assert_eq!(back, g.edges());
    }

    #[test]
    fn reuse_across_graphs_of_different_sizes() {
        let mut c = VertexCompactor::new();
        c.compact(&Graph::from_pairs(100, vec![(10, 90)]).unwrap());
        assert_eq!(c.n_local(), 2);
        // A smaller graph afterwards: the larger graph's ids must not leak
        // into the new mapping.
        c.compact(&Graph::from_pairs(5, vec![(0, 1), (1, 2)]).unwrap());
        assert_eq!(c.n_local(), 3);
        assert_eq!(c.local_edges(), &[Edge::new(0, 1), Edge::new(1, 2)]);
        assert_eq!(
            c.expand_edges(c.local_edges()),
            [Edge::new(0, 1), Edge::new(1, 2)]
        );
    }

    #[test]
    fn concat_compaction_equals_union_compaction_for_disjoint_slices() {
        let a = Graph::from_pairs(60, vec![(4, 40), (7, 12)]).unwrap();
        let b = Graph::from_pairs(60, vec![(12, 40), (2, 55)]).unwrap();
        let union = Graph::union(&[&a, &b]);
        let mut by_union = VertexCompactor::new();
        by_union.compact(&union);
        let mut by_concat = VertexCompactor::new();
        by_concat.compact_concat(60, &[a.edges(), b.edges()]);
        assert_eq!(by_concat.n_local(), by_union.n_local());
        assert_eq!(by_concat.local_edges(), by_union.local_edges());
        assert_eq!(
            by_concat.expand_edges(by_concat.local_edges()),
            by_union.expand_edges(by_union.local_edges())
        );
    }

    #[test]
    fn concat_compaction_of_empty_slices_is_empty() {
        let mut c = VertexCompactor::new();
        c.compact_concat(10, &[&[], &[]]);
        assert_eq!(c.n_local(), 0);
        assert!(c.local_edges().is_empty());
        c.compact_concat(10, &[]);
        assert_eq!(c.n_local(), 0);
    }

    #[test]
    fn empty_graph_compacts_to_nothing() {
        let mut c = VertexCompactor::new();
        c.compact(&Graph::empty(7));
        assert_eq!(c.n_local(), 0);
        assert!(c.local_edges().is_empty());
    }
}
