//! Greedy maximal matchings.
//!
//! A *maximal* matching (no edge can be added) is a 2-approximation of the
//! maximum matching on a single graph, but the paper's Section 1.2 points out
//! that an *arbitrary* maximal matching is a poor composable coreset: under a
//! random k-partition an adversarially chosen maximal matching per machine
//! composes to only an `Ω(k)`-approximation. The experiments therefore need
//! maximal matchings under three edge orderings: the input order, a random
//! order, and an adversarial order supplied by a key function.

use crate::matching::Matching;
use graph::{Edge, GraphRef};
use rand::seq::SliceRandom;
use rand::Rng;

/// Greedy maximal matching scanning edges in input (edge-list) order.
///
/// Accepts any [`GraphRef`] — an owned `Graph` or a zero-copy `GraphView`
/// into a partition arena.
pub fn maximal_matching<G: GraphRef + ?Sized>(g: &G) -> Matching {
    greedy_over(g.n(), g.edges().iter().copied())
}

/// Greedy maximal matching over a uniformly random edge order.
pub fn maximal_matching_shuffled<G: GraphRef + ?Sized, R: Rng + ?Sized>(
    g: &G,
    rng: &mut R,
) -> Matching {
    let mut edges: Vec<Edge> = g.edges().to_vec();
    edges.shuffle(rng);
    greedy_over(g.n(), edges.into_iter())
}

/// Greedy maximal matching scanning edges in increasing order of `key`.
///
/// Passing a key that ranks "trap" edges first reproduces the adversarial
/// maximal matching of the paper's negative example; passing edge weight as a
/// *decreasing* key yields the classic greedy weighted matching (see
/// [`crate::weighted`]).
pub fn maximal_matching_by_key<G, K, F>(g: &G, mut key: F) -> Matching
where
    G: GraphRef + ?Sized,
    K: Ord,
    F: FnMut(&Edge) -> K,
{
    let mut edges: Vec<Edge> = g.edges().to_vec();
    edges.sort_by_key(|e| key(e));
    greedy_over(g.n(), edges.into_iter())
}

fn greedy_over(n: usize, edges: impl Iterator<Item = Edge>) -> Matching {
    let mut matched = vec![false; n];
    let mut m = Matching::new();
    for e in edges {
        m.try_add(e, &mut matched);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::brute_force_maximum_matching_size;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn maximal_on_path() {
        let g = Graph::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let m = maximal_matching(&g);
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));
        assert!(!m.is_empty());
    }

    #[test]
    fn maximal_is_valid_and_maximal_on_random_graphs() {
        for seed in 0..5 {
            let mut r = rng(seed);
            let g = gnp(60, 0.08, &mut r);
            let m = maximal_matching(&g);
            assert!(m.is_valid_for(&g));
            assert!(m.is_maximal_in(&g));

            let ms = maximal_matching_shuffled(&g, &mut r);
            assert!(ms.is_valid_for(&g));
            assert!(ms.is_maximal_in(&g));
        }
    }

    #[test]
    fn maximal_is_half_of_maximum() {
        // A maximal matching is at least half the maximum matching.
        for seed in 0..5 {
            let mut r = rng(seed + 100);
            let g = gnp(14, 0.3, &mut r);
            let maximal = maximal_matching(&g).len();
            let maximum = brute_force_maximum_matching_size(&g);
            assert!(
                2 * maximal >= maximum,
                "maximal {maximal} vs maximum {maximum}"
            );
        }
    }

    #[test]
    fn by_key_prefers_low_key_edges() {
        // Star + pendant: edges (0,1), (1,2); key forces (0,1) first which
        // blocks (1,2); reversing the key picks (1,2)... both are maximal but
        // the chosen edge differs.
        let g = Graph::from_pairs(3, vec![(0, 1), (1, 2)]).unwrap();
        let prefer_01 = maximal_matching_by_key(&g, |e| if *e == Edge::new(0, 1) { 0 } else { 1 });
        assert_eq!(prefer_01.edges(), &[Edge::new(0, 1)]);
        let prefer_12 = maximal_matching_by_key(&g, |e| if *e == Edge::new(1, 2) { 0 } else { 1 });
        assert_eq!(prefer_12.edges(), &[Edge::new(1, 2)]);
    }

    #[test]
    fn empty_graph_yields_empty_matching() {
        let g = Graph::empty(5);
        assert!(maximal_matching(&g).is_empty());
        assert!(maximal_matching_shuffled(&g, &mut rng(1)).is_empty());
    }
}
