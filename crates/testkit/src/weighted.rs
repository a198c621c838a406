//! Exact maximum-weight matching of tiny weighted graphs.

use graph::WeightedGraph;

/// Exhaustive maximum-weight matching for tiny graphs (`m <= ~20`), used to
/// cross-check the approximation algorithms.
pub fn brute_force_maximum_weight(g: &WeightedGraph) -> f64 {
    fn recurse(g: &WeightedGraph, idx: usize, used: &mut Vec<bool>, weight: f64, best: &mut f64) {
        *best = best.max(weight);
        if idx == g.m() {
            return;
        }
        // Skip.
        recurse(g, idx + 1, used, weight, best);
        // Take.
        let we = g.edges()[idx];
        let (u, v) = (we.edge.u as usize, we.edge.v as usize);
        if !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            recurse(g, idx + 1, used, weight + we.weight, best);
            used[u] = false;
            used[v] = false;
        }
    }
    let mut best = 0.0;
    let mut used = vec![false; g.n()];
    recurse(g, 0, &mut used, 0.0, &mut best);
    best
}
