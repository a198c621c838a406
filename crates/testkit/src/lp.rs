//! The half-integral LP relaxation of vertex cover, solved combinatorially:
//! a lower bound on the minimum cover that is tighter than the matching
//! bound on non-bipartite inputs.
//!
//! The vertex-cover LP always has an optimal solution with values in
//! `{0, 1/2, 1}` (Nemhauser–Trotter), and one bipartite matching on the
//! *double cover* computes it exactly: make two copies `v_L, v_R` of every
//! vertex, connect `u_L — v_R` and `v_L — u_R` for every edge `(u, v)`, take
//! a minimum vertex cover `C` of this bipartite graph by König's theorem, and
//! set `x_v = |{v_L, v_R} ∩ C| / 2`.

use crate::exact::koenig_cover;
use graph::{BipartiteGraph, GraphRef};

/// The optimum of the vertex-cover LP relaxation, `Σ x_v`: a lower bound on
/// the minimum vertex cover size.
pub fn lp_lower_bound<G: GraphRef + ?Sized>(g: &G) -> f64 {
    half_integral_values(g).iter().sum()
}

/// A half-integral optimum of the LP: one value in `{0, 1/2, 1}` per vertex.
fn half_integral_values<G: GraphRef + ?Sized>(g: &G) -> Vec<f64> {
    let n = g.n();
    let pairs = g.edges().iter().flat_map(|e| [(e.u, e.v), (e.v, e.u)]);
    let double = BipartiteGraph::from_pairs(n, n, pairs).expect("double-cover ids are in range");
    let mut values = vec![0.0f64; n];
    for v in koenig_cover(&double) {
        values[v as usize % n] += 0.5;
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_cover_branch_and_bound;
    use crate::matching::brute_force_maximum_matching_size;
    use graph::gen::er::gnp;
    use graph::gen::structured::{complete, cycle, path, star};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn lp_values_are_half_integral_and_feasible() {
        for seed in 0..10 {
            let g = gnp(40, 0.1, &mut rng(seed));
            let values = half_integral_values(&g);
            for &x in &values {
                assert!(
                    x == 0.0 || x == 0.5 || x == 1.0,
                    "value {x} is not half-integral"
                );
            }
            // LP feasibility: x_u + x_v >= 1 for every edge, so rounding
            // every x_v >= 1/2 up gives a cover.
            for e in g.edges() {
                assert!(
                    values[e.u as usize] + values[e.v as usize] >= 1.0 - 1e-9,
                    "edge {e:?} violated"
                );
            }
        }
    }

    #[test]
    fn lp_is_sandwiched_between_matching_and_exact_cover() {
        for seed in 0..10 {
            let g = gnp(13, 0.3, &mut rng(100 + seed));
            let values = half_integral_values(&g);
            let lp = lp_lower_bound(&g);
            let mm = brute_force_maximum_matching_size(&g) as f64;
            let opt = exact_cover_branch_and_bound(&g).len() as f64;
            assert!(
                lp >= mm - 1e-9,
                "LP ({lp}) must dominate the matching bound ({mm})"
            );
            assert!(
                lp <= opt + 1e-9,
                "LP ({lp}) cannot exceed the integral optimum ({opt})"
            );
            let rounded = values.iter().filter(|&&x| x >= 0.5).count();
            assert!(rounded as f64 <= 2.0 * opt + 1e-9);
        }
    }

    #[test]
    fn structured_graphs_have_known_lp_values() {
        // Path on 2 vertices (one edge): LP = 1 (take one endpoint or halves).
        assert!((lp_lower_bound(&path(2)) - 1.0).abs() < 1e-9);
        // Star: LP = 1 (centre at value 1).
        assert!((lp_lower_bound(&star(6)) - 1.0).abs() < 1e-9);
        // Odd cycle C5: LP = 2.5 (all halves), integral optimum 3.
        assert!((lp_lower_bound(&cycle(5)) - 2.5).abs() < 1e-9);
        // Complete graph K4: LP = 2 (all halves), integral optimum 3.
        assert!((lp_lower_bound(&complete(4)) - 2.0).abs() < 1e-9);
        // Even cycle C6: LP = 3 = integral optimum.
        assert!((lp_lower_bound(&cycle(6)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_has_zero_lp() {
        assert_eq!(lp_lower_bound(&Graph::empty(5)), 0.0);
    }
}
