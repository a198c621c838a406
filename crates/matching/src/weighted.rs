//! Weighted matching: the [`WeightedMatching`] answer type and the greedy
//! 1/2-approximation.
//!
//! The paper's Section 1.1 notes that its (unweighted) matching coreset
//! extends to weighted graphs "using the Crouch–Stubbs technique \[22\] ...
//! with a factor 2 loss in approximation and an extra O(log n) term in the
//! space". That reduction, its per-class coresets and its heaviest-class-first
//! combine live in `coresets::weighted`; this module holds what it returns
//! and the whole-input greedy baseline it is measured against.

use graph::{Edge, VertexId, WeightedGraph};
// Membership-only disjointness probe; iteration order never observed.
use std::collections::HashSet; // xtask: allow(hash-collections)

/// A matching in a weighted graph together with its total weight.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeightedMatching {
    /// The matched edges.
    pub edges: Vec<Edge>,
    /// Sum of the weights of the matched edges.
    pub total_weight: f64,
}

impl WeightedMatching {
    /// Number of matched edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edge is matched.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Validates the matching against a weighted graph: edges present,
    /// pairwise disjoint, and the recorded weight equals the sum of the edge
    /// weights (up to floating-point tolerance).
    pub fn is_valid_for(&self, g: &WeightedGraph) -> bool {
        let mut seen: HashSet<VertexId> = HashSet::new(); // xtask: allow(hash-collections)
        let mut weight = 0.0;
        for e in &self.edges {
            match g.weight_of(e.u, e.v) {
                Some(w) => weight += w,
                None => return false,
            }
            if !seen.insert(e.u) || !seen.insert(e.v) {
                return false;
            }
        }
        (weight - self.total_weight).abs() <= 1e-6 * (1.0 + weight.abs())
    }
}

/// Greedy weighted matching: scan edges in decreasing weight order and take
/// every edge whose endpoints are still free. This is the classic
/// 1/2-approximation of the maximum-weight matching and serves as the
/// whole-input baseline for the weighted-coreset experiment (E9).
pub fn greedy_weighted_matching(g: &WeightedGraph) -> WeightedMatching {
    let mut order: Vec<usize> = (0..g.m()).collect();
    order.sort_by(|&a, &b| {
        g.edges()[b]
            .weight
            .partial_cmp(&g.edges()[a].weight)
            .expect("weights are finite by WeightedGraph invariant")
    });
    let mut matched = vec![false; g.n()];
    let mut out = WeightedMatching::default();
    for idx in order {
        let we = g.edges()[idx];
        let (u, v) = (we.edge.u as usize, we.edge.v as usize);
        if !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            out.edges.push(we.edge);
            out.total_weight += we.weight;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::brute_force_maximum_weight;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn random_weighted(n: usize, m: usize, seed: u64) -> WeightedGraph {
        let mut r = rng(seed);
        let mut triples = Vec::new();
        let mut attempts = 0;
        while triples.len() < m && attempts < 50 * m {
            attempts += 1;
            let u = r.gen_range(0..n as u32);
            let v = r.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            let w = r.gen_range(0.5..100.0);
            triples.push((u, v, w));
        }
        WeightedGraph::from_triples(n, triples).unwrap()
    }

    #[test]
    fn greedy_picks_the_heavy_edge() {
        // Path with a heavy middle edge: greedy takes the middle edge only.
        let g =
            WeightedGraph::from_triples(4, vec![(0, 1, 1.0), (1, 2, 10.0), (2, 3, 1.0)]).unwrap();
        let m = greedy_weighted_matching(&g);
        assert!(m.is_valid_for(&g));
        assert_eq!(m.total_weight, 10.0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn greedy_is_half_approximation() {
        for seed in 0..10 {
            let g = random_weighted(10, 14, seed);
            let greedy = greedy_weighted_matching(&g);
            assert!(greedy.is_valid_for(&g));
            let opt = brute_force_maximum_weight(&g);
            assert!(
                2.0 * greedy.total_weight + 1e-9 >= opt,
                "seed {seed}: greedy {} vs opt {opt}",
                greedy.total_weight
            );
        }
    }

    #[test]
    fn empty_weighted_graph() {
        let g = WeightedGraph::empty(4);
        assert!(greedy_weighted_matching(&g).is_empty());
        assert_eq!(brute_force_maximum_weight(&g), 0.0);
    }

    #[test]
    fn weighted_matching_validation_catches_errors() {
        let g = WeightedGraph::from_triples(4, vec![(0, 1, 2.0), (2, 3, 3.0)]).unwrap();
        let ok = WeightedMatching {
            edges: vec![Edge::new(0, 1)],
            total_weight: 2.0,
        };
        assert!(ok.is_valid_for(&g));
        let wrong_weight = WeightedMatching {
            edges: vec![Edge::new(0, 1)],
            total_weight: 5.0,
        };
        assert!(!wrong_weight.is_valid_for(&g));
        let missing_edge = WeightedMatching {
            edges: vec![Edge::new(0, 2)],
            total_weight: 0.0,
        };
        assert!(!missing_edge.is_valid_for(&g));
        let overlapping = WeightedMatching {
            edges: vec![Edge::new(0, 1), Edge::new(1, 2)],
            total_weight: 0.0,
        };
        assert!(!overlapping.is_valid_for(&g));
    }
}
