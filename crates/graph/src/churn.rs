//! Churn-aware mutable overlay over the partitioned edge arena.
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
//! [`ChurnPartition`] maintains the arena plus per-machine **journals**:
//! a clean machine's piece *is* its arena slice (zero-copy), while a dirty
//! machine's piece is a sorted snapshot buffer that tracks its pending
//! inserts and deletes. Every piece is kept in canonical sorted edge order at
//! all times, so a piece's edge sequence — and therefore its
//! [`fingerprint`](ChurnPartition::piece_fingerprint) — is **bit-identical**
//! to the piece a from-scratch [`crate::partition::PartitionedGraph::by_edge_hash`] partition
//! of the current graph would produce. That identity is what makes
//! clean-piece coreset reuse provably sound (`coresets::cache` keys on it)
//! and lets a dynamic run assert equality against a from-scratch batch run.
//! When the pending ops reach a quarter of the edge count, the journals are
//! [compacted](ChurnPartition::compact) back into one fresh arena and every
//! machine becomes clean again.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::view::GraphView;

/// The journals compact once their pending ops reach `1 / COMPACT_DIVISOR`
/// of the current edge count.
const COMPACT_DIVISOR: usize = 4;

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

/// Builds the machine-sorted arena (edges + offsets) of `g` under the
/// churn-stable [`edge_machine`] placement. Shared by
/// [`crate::partition::PartitionedGraph::by_edge_hash`] and [`ChurnPartition::new`] so the two
/// constructions are identical by construction.
pub(crate) fn hash_arena(g: &Graph, k: usize, seed: u64) -> (Vec<Edge>, Vec<usize>) {
    let all = g.edges();
    let mut counts = vec![0usize; k];
    for &e in all {
        counts[edge_machine(seed, k, e)] += 1;
    }
    let mut offsets = vec![0usize; k + 1];
    for i in 0..k {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    // Counting-sort fill, then sort each machine's run: `Graph` does not
    // guarantee an edge order (generators may emit shuffled edges), so the
    // canonical per-piece order is established here explicitly.
    let mut cursor = offsets.clone();
    let mut edges = vec![Edge { u: 0, v: 1 }; all.len()];
    for &e in all {
        let machine = edge_machine(seed, k, e);
        edges[cursor[machine]] = e;
        cursor[machine] += 1;
    }
    for i in 0..k {
        edges[offsets[i]..offsets[i + 1]].sort_unstable();
    }
    (edges, offsets)
}

/// A `k`-partitioned edge set that absorbs insert/delete churn while keeping
/// every machine's piece in the canonical order a from-scratch hash-placed
/// partition would produce.
///
/// Clean machines are served zero-copy from the arena; dirty machines are
/// served from sorted per-machine snapshot buffers maintained incrementally
/// by [`apply`](Self::apply). See the [module docs](self) for the layout and
/// the fingerprint identity.
#[derive(Debug, Clone)]
pub struct ChurnPartition {
    seed: u64,
    n: usize,
    m: usize,
    /// Machine-major arena as of the last compaction; each machine's run is
    /// canonically sorted.
    arena: Vec<Edge>,
    /// `offsets.len() == k + 1`; machine `i`'s arena run is
    /// `arena[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Dirty machines' current piece content (sorted); empty for clean ones.
    snaps: Vec<Vec<Edge>>,
    /// Whether machine `i` has diverged from its arena run.
    dirty: Vec<bool>,
    /// Memoized per-machine fingerprints, valid where `fp_stale[i]` is false.
    /// An effective op sets its machine's flag; the next
    /// [`piece_fingerprint`](Self::piece_fingerprint) probe re-folds the
    /// piece and clears it. Compaction leaves the flags alone, since it
    /// moves no edge between pieces.
    fp: Vec<u64>,
    fp_stale: Vec<bool>,
    /// Pending journal ops per machine since the last compaction.
    pending: Vec<usize>,
    pending_total: usize,
}

impl ChurnPartition {
    /// Partitions `g` across `k` machines under the churn-stable
    /// [`edge_machine`] placement for `seed`.
    pub fn new(g: &Graph, k: usize, seed: u64) -> Result<Self, GraphError> {
        if k == 0 {
            return Err(GraphError::InvalidMachineCount { k });
        }
        let (arena, offsets) = hash_arena(g, k, seed);
        let fp = (0..k)
            .map(|i| fingerprint_edges(&arena[offsets[i]..offsets[i + 1]]))
            .collect();
        Ok(ChurnPartition {
            seed,
            n: g.n(),
            m: arena.len(),
            arena,
            offsets,
            snaps: vec![Vec::new(); k],
            dirty: vec![false; k],
            fp,
            fp_stale: vec![false; k],
            pending: vec![0; k],
            pending_total: 0,
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
        self.offsets.len() - 1
    }

    /// The run seed driving the [`edge_machine`] placement.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether machine `i`'s piece has diverged from its arena run since the
    /// last compaction.
    #[inline]
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    /// Number of machines whose pieces have diverged since the last
    /// compaction.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Journal ops (inserts + deletes) applied since the last compaction.
    #[inline]
    pub fn pending_ops(&self) -> usize {
        self.pending_total
    }

    /// Applies one churn operation. Returns `Ok(true)` if the edge set
    /// changed, `Ok(false)` for a no-op (inserting a present edge, deleting
    /// an absent one).
    ///
    /// Cost: a binary search plus, for effective ops, an in-place sorted
    /// insert/remove in the machine's snapshot — `O(log p + p)` for piece
    /// size `p`. The first effective op on a clean machine additionally
    /// copies its arena run into the snapshot buffer.
    pub fn apply(&mut self, op: ChurnOp) -> Result<bool, GraphError> {
        let e = op.edge();
        if e.v as usize >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: e.v,
                n: self.n,
            });
        }
        let machine = edge_machine(self.seed, self.k(), e);
        let piece = self.piece_slice(machine);
        let found = piece.binary_search(&e);
        match (op, found) {
            (ChurnOp::Insert(_), Ok(_)) | (ChurnOp::Delete(_), Err(_)) => Ok(false),
            (ChurnOp::Insert(_), Err(pos)) => {
                self.ensure_snapshot(machine);
                self.snaps[machine].insert(pos, e);
                self.m += 1;
                self.note_change(machine);
                Ok(true)
            }
            (ChurnOp::Delete(_), Ok(pos)) => {
                self.ensure_snapshot(machine);
                self.snaps[machine].remove(pos);
                self.m -= 1;
                self.note_change(machine);
                Ok(true)
            }
        }
    }

    /// Copies machine `i`'s arena run into its snapshot buffer the first time
    /// the machine diverges.
    fn ensure_snapshot(&mut self, i: usize) {
        if !self.dirty[i] {
            let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
            self.snaps[i].clear();
            self.snaps[i].extend_from_slice(&self.arena[lo..hi]);
            self.dirty[i] = true;
        }
    }

    fn note_change(&mut self, i: usize) {
        self.fp_stale[i] = true;
        self.pending[i] += 1;
        self.pending_total += 1;
    }

    /// Machine `i`'s current piece content as a sorted slice.
    #[inline]
    fn piece_slice(&self, i: usize) -> &[Edge] {
        if self.dirty[i] {
            &self.snaps[i]
        } else {
            &self.arena[self.offsets[i]..self.offsets[i + 1]]
        }
    }

    /// Machine `i`'s subgraph as a zero-copy view (into the arena for clean
    /// machines, into the snapshot buffer for dirty ones).
    #[inline]
    pub fn piece(&self, i: usize) -> GraphView<'_> {
        GraphView::new_unchecked(self.n, self.piece_slice(i))
    }

    /// Views of every machine's current subgraph, in machine order.
    pub fn views(&self) -> Vec<GraphView<'_>> {
        (0..self.k()).map(|i| self.piece(i)).collect()
    }

    /// Current per-machine piece sizes, in machine order.
    pub fn piece_sizes(&self) -> Vec<usize> {
        (0..self.k()).map(|i| self.piece_slice(i).len()).collect()
    }

    /// Whether edge `e` is currently present.
    pub fn has_edge(&self, e: Edge) -> bool {
        if e.v as usize >= self.n {
            return false;
        }
        let machine = edge_machine(self.seed, self.k(), e);
        self.piece_slice(machine).binary_search(&e).is_ok()
    }

    /// Fingerprint of machine `i`'s current piece (see [`fingerprint_edges`]).
    ///
    /// Answers from the memoized value in `O(1)` unless an op changed the
    /// piece since the last fold; then it re-folds the piece once (`O(p)`)
    /// and memoizes the result, so each change costs one fold however often
    /// the piece is probed.
    pub fn piece_fingerprint(&mut self, i: usize) -> u64 {
        if self.fp_stale[i] {
            self.fp[i] = fingerprint_edges(self.piece_slice(i));
            self.fp_stale[i] = false;
        }
        self.fp[i]
    }

    /// Fingerprints of every machine's current piece, in machine order.
    pub fn fingerprints(&mut self) -> Vec<u64> {
        (0..self.k()).map(|i| self.piece_fingerprint(i)).collect()
    }

    /// Compacts the journals back into one fresh machine-major arena once
    /// the pending ops reach a quarter of the current edge count
    /// (`pending · 4 ≥ max(m, 1)`). Returns whether a compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        if self.pending_total * COMPACT_DIVISOR >= self.m.max(1) && self.pending_total > 0 {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Unconditionally rebuilds the arena from the current pieces, clearing
    /// every journal; afterwards all machines are clean and every piece is
    /// once again a zero-copy arena slice.
    pub fn compact(&mut self) {
        let k = self.k();
        let mut offsets = vec![0usize; k + 1];
        for i in 0..k {
            offsets[i + 1] = offsets[i] + self.piece_slice(i).len();
        }
        let mut arena: Vec<Edge> = Vec::with_capacity(offsets[k]);
        for i in 0..k {
            arena.extend_from_slice(self.piece_slice(i));
        }
        self.arena = arena;
        self.offsets = offsets;
        for i in 0..k {
            self.snaps[i].clear();
            self.dirty[i] = false;
            self.pending[i] = 0;
        }
        self.pending_total = 0;
    }

    /// The current edge set as an owned canonical [`Graph`] (sorted edge
    /// list). `O(m log m)`; meant for verification and baselines, not the
    /// serving path.
    pub fn current_graph(&self) -> Graph {
        let mut edges: Vec<Edge> = Vec::with_capacity(self.m);
        for i in 0..self.k() {
            edges.extend_from_slice(self.piece_slice(i));
        }
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
    /// of a from-scratch hash partition of the current graph — and clean
    /// machines' fingerprints never move.
    #[test]
    fn churned_pieces_equal_from_scratch_partition() {
        let g = gnp(200, 0.05, &mut rng(4));
        let k = 5;
        let seed = 9;
        let mut part = ChurnPartition::new(&g, k, seed).unwrap();
        let before_fp = part.fingerprints();
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
        for (i, fp_before) in before_fp.iter().enumerate() {
            assert_eq!(part.piece(i).edges(), scratch.piece(i).edges(), "piece {i}");
            assert_eq!(
                part.piece_fingerprint(i),
                fingerprint_edges(scratch.piece(i).edges())
            );
            if !part.is_dirty(i) {
                assert_eq!(part.piece_fingerprint(i), *fp_before);
            }
        }
        // Compaction preserves all pieces and resets the journals.
        let fps = part.fingerprints();
        part.compact();
        assert_eq!(part.pending_ops(), 0);
        assert_eq!(part.dirty_count(), 0);
        assert_eq!(part.fingerprints(), fps);
        for i in 0..k {
            assert_eq!(part.piece(i).edges(), scratch.piece(i).edges());
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
        // The machine is still flagged dirty, but its content — and hence the
        // fingerprint the coreset cache keys on — is back to the original.
        assert!(part.is_dirty(machine));
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

    #[test]
    fn threshold_compaction_triggers() {
        let g = gnp(60, 0.1, &mut rng(7));
        let mut part = ChurnPartition::new(&g, 3, 2).unwrap();
        let mut applied = 0;
        let mut compacted = false;
        for u in 0..60u32 {
            for v in (u + 1)..60 {
                if !part.has_edge(Edge::new(u, v)) {
                    part.apply(ChurnOp::Insert(Edge::new(u, v))).unwrap();
                    applied += 1;
                    if part.maybe_compact() {
                        compacted = true;
                    }
                }
                if compacted {
                    break;
                }
            }
            if compacted {
                break;
            }
        }
        assert!(
            compacted,
            "the quarter threshold must compact after {applied} ops"
        );
        assert_eq!(part.pending_ops(), 0);
    }

    #[test]
    fn out_of_range_and_zero_k_are_rejected() {
        let g = gnp(10, 0.3, &mut rng(8));
        assert!(matches!(
            ChurnPartition::new(&g, 0, 0),
            Err(GraphError::InvalidMachineCount { k: 0 })
        ));
        let mut part = ChurnPartition::new(&g, 2, 0).unwrap();
        assert!(matches!(
            part.apply(ChurnOp::Insert(Edge::new(3, 99))),
            Err(GraphError::VertexOutOfRange { vertex: 99, .. })
        ));
        assert!(!part.has_edge(Edge::new(3, 99)));
    }
}
