//! Weighted matching coreset via the Crouch–Stubbs reduction.
//!
//! The paper (Section 1.1) observes that the unweighted matching coreset
//! extends to weighted graphs by the Crouch–Stubbs technique: split the edges
//! into `O(log n)` geometric weight classes, build the *unweighted* matching
//! coreset for every class, and combine at the coordinator. The approximation
//! loses an extra factor 2 and the coreset size gains an `O(log n)` factor.
//!
//! This module implements both sides:
//!
//! * [`WeightedMatchingCoreset::build`] — one machine's coreset: for every
//!   weight class of the piece, a maximum matching of that class subgraph
//!   (with weights re-attached).
//! * [`compose_weighted_matching`] — the coordinator: union of the per-class
//!   coresets, combined greedily from the heaviest class down.
//!
//! Both sides fan their **independent per-class maximum-matching solves**
//! out on the work-stealing pool (each class subgraph is disjoint work and
//! the solver engine is per-thread); results come back in class order, and
//! the greedy heaviest-first combine stays sequential, so the composed
//! matching is bit-identical to a single-threaded run.

use graph::{Edge, WeightedGraph};
use matching::matching::Matching;
use matching::maximum::maximum_matching;
use matching::weighted::WeightedMatching;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One machine's weighted matching coreset: for each geometric weight class,
/// the edges of a maximum matching of that class's (unweighted) subgraph,
/// with their weights.
#[derive(Debug, Clone)]
pub struct WeightedCoresetOutput {
    /// Per-class matchings: `(class lower bound, matched weighted edges)`.
    pub classes: Vec<(f64, Vec<(Edge, f64)>)>,
}

impl WeightedCoresetOutput {
    /// Total number of edges across all classes (the coreset size).
    pub fn size(&self) -> usize {
        self.classes.iter().map(|(_, edges)| edges.len()).sum()
    }
}

/// Builder for the Crouch–Stubbs weighted matching coreset.
#[derive(Debug, Clone, Copy)]
pub struct WeightedMatchingCoreset {
    /// Geometric ratio between consecutive weight classes (typically 2).
    pub base: f64,
}

impl Default for WeightedMatchingCoreset {
    fn default() -> Self {
        WeightedMatchingCoreset { base: 2.0 }
    }
}

impl WeightedMatchingCoreset {
    /// Coreset with weight classes `[base^i, base^{i+1})`.
    ///
    /// # Panics
    ///
    /// Panics if `base <= 1`.
    pub fn new(base: f64) -> Self {
        assert!(base > 1.0, "weight-class base must exceed 1");
        WeightedMatchingCoreset { base }
    }

    /// Builds the coreset of one machine's weighted piece.
    ///
    /// The per-class maximum matchings are independent solves over disjoint
    /// class subgraphs, so they run in parallel on the work-stealing pool
    /// (per-thread solver engines); the output keeps class order, so the
    /// coreset is identical at every thread count.
    pub fn build(&self, piece: &WeightedGraph) -> WeightedCoresetOutput {
        let classes = piece
            .weight_classes(self.base)
            .into_par_iter()
            .map(|(bound, class_graph)| {
                let matching = maximum_matching(&class_graph);
                let edges: Vec<(Edge, f64)> = matching
                    .into_edges()
                    .into_iter()
                    .map(|e| {
                        let w = piece
                            .weight_of(e.u, e.v)
                            .expect("class subgraph edges come from the piece");
                        (e, w)
                    })
                    .collect();
                (bound, edges)
            })
            .collect();
        WeightedCoresetOutput { classes }
    }
}

/// Coordinator-side composition for the weighted coreset: group all received
/// edges by weight class, compute a maximum matching per class over the union,
/// then combine the class matchings greedily from the heaviest class down.
pub fn compose_weighted_matching(n: usize, outputs: &[WeightedCoresetOutput]) -> WeightedMatching {
    // Bucket the union of coreset edges by class lower bound (bit pattern of
    // the f64 is a stable key because every machine derives bounds from the
    // same `base`). A BTreeMap keyed on the bit pattern keeps the bucket walk
    // (and therefore the composed matching) independent of hash seeds.
    let mut buckets: BTreeMap<u64, (f64, Vec<(Edge, f64)>)> = BTreeMap::new();
    for out in outputs {
        for (bound, edges) in &out.classes {
            let entry = buckets
                .entry(bound.to_bits())
                .or_insert_with(|| (*bound, Vec::new()));
            entry.1.extend(edges.iter().copied());
        }
    }
    let mut classes: Vec<(f64, Vec<(Edge, f64)>)> = buckets.into_values().collect();
    // Heaviest class first.
    classes.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite class bounds"));

    // The per-class union solves are independent — fan them out; the greedy
    // combine below consumes them in the same heaviest-first order.
    let solved = solve_class_matchings(n, classes);

    let mut matched = vec![false; n];
    let mut result = WeightedMatching::default();
    for (weight_of, class_matching) in solved {
        for e in class_matching.edges() {
            let (u, v) = (e.u as usize, e.v as usize);
            if !matched[u] && !matched[v] {
                matched[u] = true;
                matched[v] = true;
                result.total_weight += weight_of[e];
                result.edges.push(*e);
            }
        }
    }
    result
}

/// Solves each weight class's union subgraph to a maximum matching on the
/// work-stealing pool. Classes are independent (the greedy cross-class
/// conflict resolution happens afterwards, sequentially, in the caller), the
/// solver engine is per-thread, and the pool reassembles results in class
/// order — so the output is identical to a sequential walk of `classes`.
/// Returns each class's dedup'd weight map alongside its matching.
fn solve_class_matchings(
    n: usize,
    classes: Vec<(f64, Vec<(Edge, f64)>)>,
) -> Vec<(BTreeMap<Edge, f64>, Matching)> {
    classes
        .into_par_iter()
        .map(|(_, edges)| {
            // Dedup edges keeping the max weight per edge. Sorted map:
            // `weight_of.keys()` feeds the class graph's edge list, so its
            // iteration order must be deterministic.
            let mut weight_of: BTreeMap<Edge, f64> = BTreeMap::new();
            for (e, w) in &edges {
                let slot = weight_of.entry(*e).or_insert(*w);
                *slot = slot.max(*w);
            }
            let class_edges: Vec<Edge> = weight_of.keys().copied().collect();
            let class_graph = graph::Graph::from_edges(n, class_edges)
                .expect("coreset edges are valid for the global vertex set");
            let class_matching = maximum_matching(&class_graph);
            (weight_of, class_matching)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::partition::{partition_weighted, PartitionStrategy};
    use matching::weighted::greedy_weighted_matching;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn random_weighted(n: usize, m: usize, seed: u64) -> WeightedGraph {
        let mut r = rng(seed);
        let mut triples = Vec::new();
        while triples.len() < m {
            let u = r.gen_range(0..n as u32);
            let v = r.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            triples.push((u, v, r.gen_range(1.0..1000.0)));
        }
        WeightedGraph::from_triples(n, triples).unwrap()
    }

    #[test]
    fn coreset_size_is_bounded_by_classes_times_matching() {
        let g = random_weighted(200, 1500, 1);
        let out = WeightedMatchingCoreset::default().build(&g);
        // At most n/2 edges per class and O(log max_weight) classes.
        let class_count = out.classes.len();
        assert!(
            class_count <= 12,
            "1000:1 weight range with base 2 gives ~10 classes"
        );
        assert!(out.size() <= class_count * g.n() / 2);
    }

    #[test]
    fn end_to_end_weighted_coreset_is_competitive_with_greedy_on_full_graph() {
        for seed in 0..3 {
            let n = 300;
            let g = random_weighted(n, 2500, seed + 10);
            let mut r = rng(seed + 100);
            let pieces = partition_weighted(&g, 4, PartitionStrategy::Random, &mut r).unwrap();
            let builder = WeightedMatchingCoreset::default();
            let outputs: Vec<WeightedCoresetOutput> =
                pieces.iter().map(|p| builder.build(p)).collect();
            let composed = compose_weighted_matching(n, &outputs);
            assert!(composed.is_valid_for(&g));

            // Baseline: greedy weighted matching on the *whole* graph (a
            // 1/2-approximation of the optimum). The coreset composition
            // should be within a constant factor of it.
            let baseline = greedy_weighted_matching(&g);
            assert!(
                composed.total_weight * 6.0 >= baseline.total_weight,
                "seed {seed}: composed {} vs baseline {}",
                composed.total_weight,
                baseline.total_weight
            );
        }
    }

    #[test]
    fn composition_of_single_machine_equals_local_crouch_stubbs_quality() {
        // One machine's composition is Crouch–Stubbs on the whole graph: a
        // maximum matching per weight class, combined heaviest class first.
        let n = 150;
        let g = random_weighted(n, 900, 42);
        let out = WeightedMatchingCoreset::default().build(&g);
        let composed = compose_weighted_matching(n, &[out]);
        assert!(composed.is_valid_for(&g));
        let mut matched = vec![false; n];
        let mut local = Vec::new();
        for (_, class_graph) in g.weight_classes(2.0).iter().rev() {
            for e in maximum_matching(class_graph).edges() {
                let (u, v) = (e.u as usize, e.v as usize);
                if !matched[u] && !matched[v] {
                    matched[u] = true;
                    matched[v] = true;
                    local.push(*e);
                }
            }
        }
        let mut edges = composed.edges.clone();
        edges.sort_unstable();
        local.sort_unstable();
        assert_eq!(edges, local);
    }

    #[test]
    fn crouch_stubbs_on_uniform_weights_reduces_to_unweighted() {
        let g =
            WeightedGraph::from_triples(6, vec![(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]).unwrap();
        let out = WeightedMatchingCoreset::default().build(&g);
        let composed = compose_weighted_matching(6, &[out]);
        assert_eq!(composed.len(), 3);
        assert!((composed.total_weight - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let g = WeightedGraph::empty(10);
        let out = WeightedMatchingCoreset::default().build(&g);
        assert_eq!(out.size(), 0);
        let composed = compose_weighted_matching(10, &[out]);
        assert!(composed.is_empty());
        assert!(compose_weighted_matching(10, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn bad_base_rejected() {
        let _ = WeightedMatchingCoreset::new(0.5);
    }
}
