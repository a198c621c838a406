//! Churn-aware mutable partition for edge-churn serving.
//!
//! The batch model partitions a frozen edge set once and solves once. A
//! long-running service instead absorbs a stream of edge insertions and
//! deletions and must keep answering queries. The key observation (the same
//! one behind the paper's composability) is that a machine's coreset depends
//! **only on its local edge set** — so churn that leaves a machine's piece
//! untouched leaves its coreset reusable verbatim.
//!
//! For that to work under churn, edge placement must be **churn-stable**: an
//! edge's machine may depend only on the edge's identity (and the run seed),
//! never on how many edges were placed before it. The sequential-RNG
//! placement of [`crate::partition::PartitionedGraph::random`] does not have
//! this property (deleting one edge shifts every later draw), so this module
//! derives the machine from a salted hash of the endpoints instead:
//! [`edge_machine`]. Per edge the choice is still uniform and independent —
//! the model of the paper — and it is reproducible from `(seed, edge)` alone.
//!
//! [`ChurnPartition`] keeps each machine's piece as one canonically sorted
//! vector and edits it in place, so a piece's edge sequence — and therefore
//! its [`fingerprint`](ChurnPartition::piece_fingerprint) — is
//! **bit-identical** to the piece a from-scratch
//! [`crate::partition::PartitionedGraph::by_edge_hash`] partition of the
//! current graph would produce. That identity is what makes clean-piece
//! coreset reuse provably sound (`coresets::cache` keys on it) and lets a
//! dynamic run assert equality against a from-scratch batch run.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::view::GraphView;

/// One edge-churn operation applied to a [`ChurnPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Insert the edge (a no-op if it is already present).
    Insert(Edge),
    /// Delete the edge (a no-op if it is absent).
    Delete(Edge),
}

impl ChurnOp {
    /// The edge the operation refers to.
    #[inline]
    pub fn edge(&self) -> Edge {
        match *self {
            ChurnOp::Insert(e) | ChurnOp::Delete(e) => e,
        }
    }
}

/// The SplitMix64 output function: adds the golden-ratio increment to `z`
/// and finalizes it into a decorrelated 64-bit value. Edge placement and
/// piece fingerprints here, the per-machine RNG keys (`coresets::streams`)
/// and the fault planner mix through it.
///
/// A SplitMix64 *generator* with state `s` returns `mix64(s)` and then
/// advances `s` by `0x9E37_79B9_7F4A_7C15`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Churn-stable machine placement: the machine in `0..k` that edge `e` lives
/// on for run seed `seed`.
///
/// The placement is a salted SplitMix64 hash of the canonical endpoint pair,
/// so it depends only on `(seed, e)` — inserting or deleting *other* edges
/// never moves an edge between machines. Per edge the machine is uniform and
/// independent across edges, the random-partition model of the paper.
///
/// `k` must be at least 1 (constructors validate this before placement).
#[inline]
pub fn edge_machine(seed: u64, k: usize, e: Edge) -> usize {
    let packed = ((e.u as u64) << 32) | e.v as u64;
    (mix64(seed ^ mix64(packed)) % k as u64) as usize
}

/// Order-dependent fingerprint of an edge sequence.
///
/// Folds every edge (and finally the length) through the SplitMix64 mixer, so
/// two sequences collide only if they agree element-for-element (up to hash
/// collisions, ~2⁻⁶⁴). Because [`ChurnPartition`] keeps every piece in
/// canonical sorted order, a piece's fingerprint equals the fingerprint of
/// the same machine's piece in a from-scratch
/// [`crate::partition::PartitionedGraph::by_edge_hash`] partition of the current graph — the
/// property coreset cache keys rely on.
pub fn fingerprint_edges<'a, I>(edges: I) -> u64
where
    I: IntoIterator<Item = &'a Edge>,
{
    let mut acc = 0x243F_6A88_85A3_08D3u64;
    let mut len = 0u64;
    for e in edges {
        acc = mix64(acc ^ (((e.u as u64) << 32) | e.v as u64));
        len += 1;
    }
    mix64(acc ^ len)
}

/// The `k` canonically sorted pieces of `g` under the churn-stable
/// [`edge_machine`] placement for `seed`, each allocated at its exact size.
/// Shared by [`crate::partition::PartitionedGraph::by_edge_hash`] and
/// [`ChurnPartition::new`], so their pieces agree by construction.
pub(crate) fn hash_pieces(g: &Graph, k: usize, seed: u64) -> Vec<Vec<Edge>> {
    let mut counts = vec![0usize; k];
    for &e in g.edges() {
        counts[edge_machine(seed, k, e)] += 1;
    }
    let mut pieces: Vec<Vec<Edge>> = counts.into_iter().map(Vec::with_capacity).collect();
    for &e in g.edges() {
        pieces[edge_machine(seed, k, e)].push(e);
    }
    // `Graph` does not guarantee an edge order (generators may emit shuffled
    // edges), so the canonical per-piece order is established here.
    for piece in &mut pieces {
        piece.sort_unstable();
    }
    pieces
}

/// A `k`-partitioned edge set that absorbs insert/delete churn while keeping
/// every machine's piece in the canonical order a from-scratch hash-placed
/// partition would produce: one sorted vector per machine, edited in place
/// by [`apply`](Self::apply), plus a memo of each piece's fingerprint. See
/// the [module docs](self) for the fingerprint identity.
#[derive(Debug, Clone)]
pub struct ChurnPartition {
    seed: u64,
    n: usize,
    m: usize,
    /// Machine `i`'s current piece, canonically sorted.
    pieces: Vec<Vec<Edge>>,
    /// Memoized per-machine fingerprints, valid where `fp_stale[i]` is false.
    /// An effective op sets its machine's flag; the next
    /// [`piece_fingerprint`](Self::piece_fingerprint) probe re-folds the
    /// piece and clears it.
    fp: Vec<u64>,
    fp_stale: Vec<bool>,
}

impl ChurnPartition {
    /// Partitions `g` across `k` machines under the churn-stable
    /// [`edge_machine`] placement for `seed`.
    pub fn new(g: &Graph, k: usize, seed: u64) -> Result<Self, GraphError> {
        if k == 0 {
            return Err(GraphError::InvalidMachineCount { k });
        }
        let pieces = hash_pieces(g, k, seed);
        Ok(ChurnPartition {
            seed,
            n: g.n(),
            m: g.m(),
            fp: pieces.iter().map(fingerprint_edges).collect(),
            fp_stale: vec![false; k],
            pieces,
        })
    }

    /// Number of vertices (fixed for the lifetime of the partition).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current number of edges across all machines.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of machines.
    #[inline]
    pub fn k(&self) -> usize {
        self.pieces.len()
    }

    /// The run seed driving the [`edge_machine`] placement.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Applies one churn operation. Returns `Ok(true)` if the edge set
    /// changed, `Ok(false)` for a no-op (inserting a present edge, deleting
    /// an absent one). A malformed edge is rejected by [`Edge::checked`] and
    /// changes nothing; an edge given as `u > v` is applied canonicalized.
    ///
    /// Cost: an `O(log p)` binary search in the machine's piece of size `p`
    /// plus, for effective ops, an in-place `O(p)` shift of that one vector.
    pub fn apply(&mut self, op: ChurnOp) -> Result<bool, GraphError> {
        let e = op.edge().checked(self.n)?;
        let machine = edge_machine(self.seed, self.k(), e);
        let piece = &mut self.pieces[machine];
        match (op, piece.binary_search(&e)) {
            (ChurnOp::Insert(_), Ok(_)) | (ChurnOp::Delete(_), Err(_)) => return Ok(false),
            (ChurnOp::Insert(_), Err(pos)) => {
                piece.insert(pos, e);
                self.m += 1;
            }
            (ChurnOp::Delete(_), Ok(pos)) => {
                piece.remove(pos);
                self.m -= 1;
            }
        }
        self.fp_stale[machine] = true;
        Ok(true)
    }

    /// Machine `i`'s subgraph as a zero-copy view of its piece.
    #[inline]
    pub fn piece(&self, i: usize) -> GraphView<'_> {
        GraphView::new_unchecked(self.n, &self.pieces[i])
    }

    /// Views of every machine's current subgraph, in machine order.
    pub fn views(&self) -> Vec<GraphView<'_>> {
        (0..self.k()).map(|i| self.piece(i)).collect()
    }

    /// Current per-machine piece sizes, in machine order.
    pub fn piece_sizes(&self) -> Vec<usize> {
        self.pieces.iter().map(Vec::len).collect()
    }

    /// Whether edge `e` is currently present (never, for a malformed edge).
    pub fn has_edge(&self, e: Edge) -> bool {
        e.checked(self.n).is_ok_and(|e| {
            self.pieces[edge_machine(self.seed, self.k(), e)]
                .binary_search(&e)
                .is_ok()
        })
    }

    /// Fingerprint of machine `i`'s current piece (see [`fingerprint_edges`]).
    ///
    /// Answers from the memoized value in `O(1)` unless an op changed the
    /// piece since the last fold; then it re-folds the piece once (`O(p)`)
    /// and memoizes the result, so each change costs one fold however often
    /// the piece is probed.
    pub fn piece_fingerprint(&mut self, i: usize) -> u64 {
        if self.fp_stale[i] {
            self.fp[i] = fingerprint_edges(&self.pieces[i]);
            self.fp_stale[i] = false;
        }
        self.fp[i]
    }

    /// Fingerprints of every machine's current piece, in machine order.
    pub fn fingerprints(&mut self) -> Vec<u64> {
        (0..self.k()).map(|i| self.piece_fingerprint(i)).collect()
    }

    /// Does nothing and returns `false`: every piece is already its one
    /// sorted vector, so there is nothing to fold back. It stays only
    /// because the benchmark's churn shadow (`exp_profile/src/layers.rs`)
    /// calls it, and is deleted with that call in the benchmark change of
    /// ROADMAP item 3.
    pub fn maybe_compact(&mut self) -> bool {
        false
    }

    /// The current edge set as an owned canonical [`Graph`] (sorted edge
    /// list). `O(m log m)`; meant for verification and baselines, not the
    /// serving path.
    pub fn current_graph(&self) -> Graph {
        let mut edges = self.pieces.concat();
        edges.sort_unstable();
        Graph::from_edges_unchecked(self.n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::gnp;
    use crate::partition::PartitionedGraph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn placement_is_churn_stable_and_roughly_uniform() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for u in 0..200u32 {
            for v in (u + 1)..200u32 {
                let e = Edge::new(u, v);
                assert_eq!(edge_machine(7, k, e), edge_machine(7, k, e));
                counts[edge_machine(7, k, e)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let expected = total as f64 / k as f64;
        for &c in &counts {
            let ratio = c as f64 / expected;
            assert!(ratio > 0.8 && ratio < 1.2, "machine load {c} vs {expected}");
        }
        // Different seeds give different placements (for at least one edge).
        let moved = (0..100u32).any(|v| {
            edge_machine(1, k, Edge::new(v, v + 1)) != edge_machine(2, k, Edge::new(v, v + 1))
        });
        assert!(moved, "placement must depend on the seed");
    }

    #[test]
    fn fingerprint_is_order_and_length_sensitive() {
        let a = [Edge::new(0, 1), Edge::new(2, 3)];
        let b = [Edge::new(2, 3), Edge::new(0, 1)];
        assert_ne!(fingerprint_edges(&a), fingerprint_edges(&b));
        assert_ne!(fingerprint_edges(&a[..1]), fingerprint_edges(&a));
        assert_eq!(fingerprint_edges(&a), fingerprint_edges(&a));
        // Empty sequences still have a well-defined fingerprint.
        assert_eq!(fingerprint_edges([].iter()), fingerprint_edges([].iter()));
    }

    #[test]
    fn new_partition_matches_by_edge_hash_pieces() {
        let g = gnp(300, 0.04, &mut rng(3));
        let mut part = ChurnPartition::new(&g, 6, 42).unwrap();
        let batch = PartitionedGraph::by_edge_hash(&g, 6, 42).unwrap();
        assert_eq!(part.m(), g.m());
        for i in 0..6 {
            assert_eq!(part.piece(i).edges(), batch.piece(i).edges(), "piece {i}");
            assert_eq!(
                part.piece_fingerprint(i),
                fingerprint_edges(batch.piece(i).edges()),
                "fingerprint {i}"
            );
        }
    }

    /// The core soundness property behind coreset reuse: after arbitrary
    /// churn, every piece (edge sequence *and* fingerprint) equals the piece
    /// of a from-scratch hash partition of the current graph.
    #[test]
    fn churned_pieces_equal_from_scratch_partition() {
        let g = gnp(200, 0.05, &mut rng(4));
        let k = 5;
        let seed = 9;
        let mut part = ChurnPartition::new(&g, k, seed).unwrap();
        let mut r = rng(5);
        let mut edges: Vec<Edge> = g.edges().to_vec();
        for step in 0..400 {
            if step % 3 != 0 || edges.is_empty() {
                let u = r.gen_range(0..200u32);
                let v = r.gen_range(0..200u32);
                if u == v {
                    continue;
                }
                let e = Edge::new(u, v);
                let changed = part.apply(ChurnOp::Insert(e)).unwrap();
                assert_eq!(changed, !edges.contains(&e));
                if changed {
                    edges.push(e);
                }
            } else {
                let idx = r.gen_range(0..edges.len());
                let e = edges.swap_remove(idx);
                assert!(part.apply(ChurnOp::Delete(e)).unwrap());
                assert!(!part.apply(ChurnOp::Delete(e)).unwrap(), "double delete");
            }
        }
        let current = Graph::from_pairs(200, edges.iter().map(|e| (e.u, e.v))).unwrap();
        assert_eq!(part.m(), current.m());
        let scratch = PartitionedGraph::by_edge_hash(&current, k, seed).unwrap();
        for i in 0..k {
            assert_eq!(part.piece(i).edges(), scratch.piece(i).edges(), "piece {i}");
            assert_eq!(
                part.piece_fingerprint(i),
                fingerprint_edges(scratch.piece(i).edges())
            );
        }
        assert_eq!(part.current_graph().edges(), current.edges());
    }

    #[test]
    fn insert_then_delete_restores_the_original_fingerprint() {
        let g = gnp(80, 0.1, &mut rng(6));
        let mut part = ChurnPartition::new(&g, 4, 1).unwrap();
        let fps = part.fingerprints();
        let e = (0..80u32)
            .flat_map(|u| ((u + 1)..80).map(move |v| Edge::new(u, v)))
            .find(|e| !g.has_edge(e.u, e.v))
            .unwrap();
        assert!(part.apply(ChurnOp::Insert(e)).unwrap());
        let machine = edge_machine(1, 4, e);
        assert_ne!(part.piece_fingerprint(machine), fps[machine]);
        assert!(part.apply(ChurnOp::Delete(e)).unwrap());
        // The piece's content — and hence the fingerprint the coreset cache
        // keys on — is back to the original.
        assert_eq!(part.fingerprints(), fps);
    }

    /// A probe re-folds a changed piece once and memoizes the fold: after
    /// every machine is probed no flag is stale, one effective op stales
    /// exactly its own machine, and every fingerprint equals a fresh fold.
    #[test]
    fn a_probe_memoizes_the_refolded_fingerprint() {
        let g = gnp(120, 0.08, &mut rng(10));
        let (k, seed) = (5, 3);
        let mut part = ChurnPartition::new(&g, k, seed).unwrap();
        let mut r = rng(11);
        for step in 0..80 {
            let (u, v) = (r.gen_range(0..120u32), r.gen_range(0..120u32));
            if u == v {
                continue;
            }
            let e = Edge::new(u, v);
            let op = if part.has_edge(e) {
                ChurnOp::Delete(e)
            } else {
                ChurnOp::Insert(e)
            };
            part.fingerprints();
            assert!(part.fp_stale.iter().all(|&stale| !stale), "step {step}");
            assert!(part.apply(op).unwrap());
            let stale: Vec<usize> = (0..k).filter(|&i| part.fp_stale[i]).collect();
            assert_eq!(stale, vec![edge_machine(seed, k, e)], "step {step}");
            for i in 0..k {
                let fp = part.piece_fingerprint(i);
                assert_eq!(fp, fingerprint_edges(part.piece(i).edges()), "step {step}");
            }
        }
    }

    /// An op's raw edge is checked by `Graph::from_pairs`'s rules before it
    /// lands, and an edge given as `u > v` lands canonicalized, so a later
    /// delete of the canonical edge finds it.
    #[test]
    fn out_of_range_and_zero_k_are_rejected() {
        let g = gnp(10, 0.3, &mut rng(8));
        assert!(matches!(
            ChurnPartition::new(&g, 0, 0),
            Err(GraphError::InvalidMachineCount { k: 0 })
        ));
        let mut part = ChurnPartition::new(&g, 2, 0).unwrap();
        let fps = part.fingerprints();
        let out = |vertex| Err(GraphError::VertexOutOfRange { vertex, n: 10 });
        assert_eq!(part.apply(ChurnOp::Insert(Edge::new(3, 99))), out(99));
        assert_eq!(part.apply(ChurnOp::Insert(Edge { u: 19, v: 2 })), out(19));
        assert_eq!(
            part.apply(ChurnOp::Delete(Edge { u: 3, v: 3 })),
            Err(GraphError::SelfLoop { vertex: 3 })
        );
        assert_eq!(part.fingerprints(), fps);
        assert_eq!(part.current_graph(), g);
        assert!(!part.has_edge(Edge::new(3, 99)));
        assert!(!part.has_edge(Edge { u: 3, v: 3 }));

        let e = (0..10u32)
            .flat_map(|u| ((u + 1)..10).map(move |v| Edge::new(u, v)))
            .find(|e| !g.has_edge(e.u, e.v))
            .unwrap();
        let reversed = Edge { u: e.v, v: e.u };
        assert!(part.apply(ChurnOp::Insert(reversed)).unwrap());
        assert!(part.has_edge(e) && part.has_edge(reversed));
        assert!(part.piece(edge_machine(0, 2, e)).edges().contains(&e));
        assert!(part.apply(ChurnOp::Delete(e)).unwrap());
        assert_eq!(part.current_graph(), g);
        assert_eq!(part.fingerprints(), fps);
    }

    #[test]
    fn maybe_compact_is_a_no_op() {
        let g = gnp(40, 0.2, &mut rng(12));
        let mut part = ChurnPartition::new(&g, 3, 2).unwrap();
        let fps = part.fingerprints();
        assert!(!part.maybe_compact());
        assert_eq!(part.fingerprints(), fps);
        assert_eq!(part.current_graph(), g);
    }
}
