//! Random k-partitioning of edge sets — the central model of the paper.
//!
//! A *random k-partitioning* of `E` assigns every edge independently and
//! uniformly at random to one of `k` machines (paper, Section 1,
//! "Randomized Composable Coresets"). This module implements that
//! partitioning for plain and weighted graphs, plus one *adversarial*
//! partitioning used as the negative control:
//! [`PartitionStrategy::Adversarial`], a deterministic partition designed
//! to be hard (contiguous chunks of a sorted edge list), modelling the
//! adversarial setting of \[10\] in which Õ(n)-size summaries cannot beat
//! Θ(n^{1/3})-approximation.
//!
//! The partition container is [`PartitionedGraph`], the **edge arena**: one
//! machine-sorted copy of the edge permutation plus `k + 1` offsets (a CSR
//! over machines). Per-machine access returns zero-copy [`GraphView`]s, so a
//! full protocol run copies the edge set exactly once. A caller that needs an
//! owned piece copies it out with [`GraphView::to_graph`], which charges the
//! copy to [`crate::metrics::piece_edges_materialized`].

use crate::edge::{Edge, WeightedEdge};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::view::GraphView;
use crate::weighted::WeightedGraph;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the edge set is split across the `k` machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Each edge goes to a uniformly random machine, independently.
    /// This is the paper's model.
    Random,
    /// Edges are sorted and split into `k` contiguous chunks. Because edges
    /// incident on the same vertex are adjacent in the sorted order, a single
    /// machine sees whole neighbourhoods — the structured, adversarial case
    /// in which composable coresets provably fail.
    Adversarial,
}

/// The edge arena of a `k`-partitioned graph: **one** machine-sorted copy of
/// the edge set plus `k + 1` offsets, i.e. a CSR over machines.
///
/// `piece(i)` is the slice `edges[offsets[i] .. offsets[i + 1]]`, returned as
/// a zero-copy [`GraphView`]; within a machine the edges keep their original
/// relative order (the fill is a stable counting sort by machine).
///
/// This is the storage type of the paper's model itself — the partitioned
/// edge set is the unit of storage, not `k` independent graphs — and the
/// foundation every protocol runner builds on.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    n: usize,
    strategy: PartitionStrategy,
    /// Machine-major edge permutation (machine 0's edges first, each
    /// machine's run in original input order).
    edges: Vec<Edge>,
    /// `offsets.len() == k + 1`; machine `i` owns `edges[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
}

impl PartitionedGraph {
    /// Partitions `g` into `k` machine slices using `strategy`, copying the
    /// edge set exactly once (into the machine-sorted arena).
    ///
    /// For [`PartitionStrategy::Random`] the supplied RNG draws the machine
    /// of every edge, one `gen_range(0..k)` per edge in input order; the
    /// other strategies are deterministic and ignore the RNG.
    pub fn new<R: Rng + ?Sized>(
        g: &Graph,
        k: usize,
        strategy: PartitionStrategy,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        if k == 0 {
            return Err(GraphError::InvalidMachineCount { k });
        }
        let all = g.edges();
        let assignment = assign_indices(all.len(), k, strategy, |i| canonical_sort_key(g, i), rng);

        let mut counts = vec![0usize; k];
        for &machine in &assignment {
            counts[machine] += 1;
        }
        let mut offsets = vec![0usize; k + 1];
        for i in 0..k {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        // Stable counting-sort fill: scanning edges in input order preserves
        // each machine's relative order. The placeholder is overwritten at
        // every index because the cursors sweep their machine's range exactly.
        let mut cursor = offsets.clone();
        let mut edges = vec![Edge { u: 0, v: 1 }; all.len()];
        for (idx, &machine) in assignment.iter().enumerate() {
            edges[cursor[machine]] = all[idx];
            cursor[machine] += 1;
        }
        Ok(PartitionedGraph {
            n: g.n(),
            strategy,
            edges,
            offsets,
        })
    }

    /// Convenience constructor for the paper's model (random partitioning).
    pub fn random<R: Rng + ?Sized>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, GraphError> {
        Self::new(g, k, PartitionStrategy::Random, rng)
    }

    /// Partitions `g` under the **churn-stable** per-edge hash placement of
    /// [`crate::churn::edge_machine`]: each edge's machine is a salted hash
    /// of `(seed, edge)` — uniform and independent per edge, the paper's
    /// model — but reproducible from the edge's identity alone, so churn on
    /// other edges never moves it. This is the placement the churn partition
    /// ([`crate::churn::ChurnPartition`]) and its from-scratch baselines
    /// share; the strategy reports [`PartitionStrategy::Random`] because the
    /// per-edge distribution is the same random model.
    pub fn by_edge_hash(g: &Graph, k: usize, seed: u64) -> Result<Self, GraphError> {
        if k == 0 {
            return Err(GraphError::InvalidMachineCount { k });
        }
        let pieces = crate::churn::hash_pieces(g, k, seed);
        let mut offsets = vec![0usize; k + 1];
        for (i, piece) in pieces.iter().enumerate() {
            offsets[i + 1] = offsets[i] + piece.len();
        }
        Ok(PartitionedGraph {
            n: g.n(),
            strategy: PartitionStrategy::Random,
            edges: pieces.concat(),
            offsets,
        })
    }

    /// Number of vertices (shared by every piece).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of edges in the arena (equals `m` of the original graph).
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Number of machines.
    #[inline]
    pub fn k(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The strategy that produced this partition.
    #[inline]
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The whole machine-sorted edge arena.
    #[inline]
    pub fn arena(&self) -> &[Edge] {
        &self.edges
    }

    /// Machine `i`'s subgraph as a zero-copy view into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[inline]
    pub fn piece(&self, i: usize) -> GraphView<'_> {
        // The arena slice inherits the graph's invariants; skip revalidation.
        GraphView::new_unchecked(self.n, &self.edges[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Zero-copy views of every machine's subgraph, in machine order.
    pub fn views(&self) -> Vec<GraphView<'_>> {
        (0..self.k()).map(|i| self.piece(i)).collect()
    }

    /// Number of edges each machine received, in machine order.
    pub fn piece_sizes(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Reassembles the original edge set from the arena, in machine-major
    /// order (not canonical sorted order — the multiset, not the layout, is
    /// what reuniting restores). Pieces of a partition are disjoint by
    /// construction, so this is a single preallocated copy, no dedup pass.
    pub fn reunite(&self) -> Graph {
        Graph::from_edges_unchecked(self.n, self.edges.clone())
    }
}

/// Partitions a weighted graph's edges across `k` machines.
pub fn partition_weighted<R: Rng + ?Sized>(
    g: &WeightedGraph,
    k: usize,
    strategy: PartitionStrategy,
    rng: &mut R,
) -> Result<Vec<WeightedGraph>, GraphError> {
    if k == 0 {
        return Err(GraphError::InvalidMachineCount { k });
    }
    let assignment = assign_indices(
        g.m(),
        k,
        strategy,
        |i| {
            let e = g.edges()[i].edge;
            (e.u as u64) << 32 | e.v as u64
        },
        rng,
    );
    let mut buckets: Vec<Vec<WeightedEdge>> = vec![Vec::new(); k];
    for (idx, &machine) in assignment.iter().enumerate() {
        buckets[machine].push(g.edges()[idx]);
    }
    buckets
        .into_iter()
        .map(|edges| {
            WeightedGraph::from_triples(g.n(), edges.iter().map(|e| (e.edge.u, e.edge.v, e.weight)))
        })
        .collect()
}

fn canonical_sort_key(g: &Graph, i: usize) -> u64 {
    let e = g.edges()[i];
    (e.u as u64) << 32 | e.v as u64
}

/// Computes, for each of `m` edge indices, the machine in `0..k` it is
/// assigned to under the given strategy. `sort_key` is only consulted by the
/// adversarial strategy.
fn assign_indices<R: Rng + ?Sized, K: Fn(usize) -> u64>(
    m: usize,
    k: usize,
    strategy: PartitionStrategy,
    sort_key: K,
    rng: &mut R,
) -> Vec<usize> {
    match strategy {
        PartitionStrategy::Random => (0..m).map(|_| rng.gen_range(0..k)).collect(),
        PartitionStrategy::Adversarial => {
            // Sort edge indices by (u, v) and cut into k contiguous chunks so
            // that each machine receives whole neighbourhoods.
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by_key(|&i| sort_key(i));
            let mut assignment = vec![0usize; m];
            if m == 0 {
                return assignment;
            }
            let chunk = m.div_ceil(k);
            for (pos, &idx) in order.iter().enumerate() {
                assignment[idx] = (pos / chunk).min(k - 1);
            }
            assignment
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn random_partition_is_a_partition() {
        let mut r = rng(1);
        let g = gnp(200, 0.05, &mut r);
        let part = PartitionedGraph::random(&g, 7, &mut r).unwrap();
        assert_eq!(part.k(), 7);
        assert_eq!(part.m(), g.m());
        let reunited = part.reunite();
        assert_eq!(reunited.m(), g.m());
        // Every original edge appears in exactly one piece.
        for e in g.edges() {
            let count = part
                .views()
                .iter()
                .filter(|p| p.edges().contains(e))
                .count();
            assert_eq!(count, 1, "edge {e:?} should be in exactly one piece");
        }
    }

    #[test]
    fn zero_machines_rejected() {
        let mut r = rng(2);
        let g = gnp(10, 0.3, &mut r);
        for strategy in [PartitionStrategy::Random, PartitionStrategy::Adversarial] {
            assert!(matches!(
                PartitionedGraph::new(&g, 0, strategy, &mut r),
                Err(GraphError::InvalidMachineCount { k: 0 })
            ));
        }
        assert!(matches!(
            PartitionedGraph::by_edge_hash(&g, 0, 1),
            Err(GraphError::InvalidMachineCount { k: 0 })
        ));
    }

    #[test]
    fn k_greater_than_m_leaves_empty_pieces() {
        let mut r = rng(3);
        let g = Graph::from_pairs(4, vec![(0, 1), (2, 3)]).unwrap();
        let part = PartitionedGraph::random(&g, 10, &mut r).unwrap();
        assert_eq!(part.k(), 10);
        assert_eq!(part.m(), 2);
        let nonempty = part.views().iter().filter(|p| !p.is_empty()).count();
        assert!(nonempty <= 2);
    }

    #[test]
    fn random_partition_is_roughly_balanced() {
        let mut r = rng(4);
        let g = gnp(300, 0.1, &mut r);
        let k = 8;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let expected = g.m() as f64 / k as f64;
        for p in part.views() {
            let ratio = p.m() as f64 / expected;
            assert!(
                ratio > 0.6 && ratio < 1.4,
                "piece size {} far from expected {expected}",
                p.m()
            );
        }
    }

    #[test]
    fn adversarial_partition_groups_neighbourhoods() {
        // Star centred at 0: adversarial partitioning puts contiguous chunks
        // of 0's neighbourhood on each machine.
        let n = 101;
        let g = Graph::from_pairs(n, (1..n as u32).map(|v| (0, v))).unwrap();
        let part =
            PartitionedGraph::new(&g, 4, PartitionStrategy::Adversarial, &mut rng(0)).unwrap();
        assert_eq!(part.m(), 100);
        // Chunks are contiguous in sorted order: piece 0 gets neighbours 1..=25, etc.
        let piece0 = part.piece(0).to_graph();
        assert_eq!(piece0.m(), 25);
        assert!(piece0.has_edge(0, 1));
        assert!(piece0.has_edge(0, 25));
        assert!(!piece0.has_edge(0, 26));
    }

    #[test]
    fn weighted_partition_preserves_total_weight() {
        let mut r = rng(7);
        let g = WeightedGraph::from_triples(
            6,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 4, 4.0),
                (4, 5, 5.0),
            ],
        )
        .unwrap();
        let pieces = partition_weighted(&g, 3, PartitionStrategy::Random, &mut r).unwrap();
        let total: f64 = pieces.iter().map(WeightedGraph::total_weight).sum();
        assert!((total - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_partitions_cleanly() {
        let g = Graph::empty(10);
        for strategy in [PartitionStrategy::Random, PartitionStrategy::Adversarial] {
            let part = PartitionedGraph::new(&g, 3, strategy, &mut rng(8)).unwrap();
            assert_eq!(part.m(), 0);
            assert_eq!(part.piece_sizes(), vec![0; 3]);
            assert!(part.views().iter().all(|p| p.is_empty() && p.n() == 10));
        }
    }

    #[test]
    fn arena_is_one_permutation_of_the_input() {
        let g = gnp(120, 0.08, &mut rng(22));
        let arena = PartitionedGraph::random(&g, 7, &mut rng(23)).unwrap();
        assert_eq!(arena.m(), g.m());
        assert_eq!(arena.piece_sizes().iter().sum::<usize>(), g.m());
        let mut perm: Vec<Edge> = arena.arena().to_vec();
        perm.sort_unstable();
        let mut orig: Vec<Edge> = g.edges().to_vec();
        orig.sort_unstable();
        assert_eq!(perm, orig, "the arena is a permutation of the edge set");
        // Reuniting recovers the exact multiset, preallocated and dedup-free.
        let reunited = arena.reunite();
        assert_eq!(reunited.n(), g.n());
        assert_eq!(reunited.m(), g.m());
    }

    #[test]
    fn arena_zero_machines_rejected() {
        let g = gnp(10, 0.3, &mut rng(24));
        assert!(matches!(
            PartitionedGraph::random(&g, 0, &mut rng(25)),
            Err(GraphError::InvalidMachineCount { k: 0 })
        ));
    }

    #[test]
    fn materialize_records_edge_copies() {
        let g = gnp(80, 0.1, &mut rng(26));
        let arena = PartitionedGraph::random(&g, 4, &mut rng(27)).unwrap();
        // The counter is process-wide and tests run concurrently, so only
        // assert monotone movement attributable to these copies.
        let mid = crate::metrics::piece_edges_materialized();
        for (i, view) in arena.views().into_iter().enumerate() {
            let owned = view.to_graph();
            assert_eq!(owned.edges(), arena.piece(i).edges());
            assert_eq!(owned.n(), g.n());
        }
        let after = crate::metrics::piece_edges_materialized();
        assert!(
            after - mid >= g.m() as u64,
            "copying every piece out of the arena copies every edge"
        );
    }

    #[test]
    fn empty_graph_arena_is_clean() {
        let g = Graph::empty(6);
        let arena = PartitionedGraph::random(&g, 3, &mut rng(28)).unwrap();
        assert_eq!(arena.k(), 3);
        assert_eq!(arena.m(), 0);
        assert!(arena.views().iter().all(|v| v.is_empty()));
        assert_eq!(arena.reunite().m(), 0);
    }
}
