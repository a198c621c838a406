//! Work bounds of the matching engine, asserted on its deterministic work
//! counters: `MatchingEngine::forced_edges` (edges the degree-one rule
//! forced), `MatchingEngine::core_solves` (solves the forced edges did not
//! settle, which sorted their CSR and ran a solver) and the blossom
//! workspace's `searches` (augmenting searches started).
//!
//! Each bound is a named constant or function with its derivation. Together
//! they pin the forced step's two savings: a solve whose forced edges leave
//! no core sorts and searches nothing, and a solve that leaves a core
//! searches only from core vertices. Both are answer-neutral, so only the
//! counters can show that they are gone.

use graph::gen::structured::{star, star_forest};
use graph::Graph;
use matching::blossom::blossom_maximum_matching_with;
use matching::{BlossomWorkspace, MatchingEngine};
use testkit::random_forest;

/// Augmenting searches on a forest. Every forest with an edge has a leaf,
/// and removing a forced edge's two endpoints leaves a forest, so the
/// degree-one rule keeps forcing until no edge is left: the forced edges
/// are the whole answer, and nothing is searched.
const FOREST_SEARCHES: u64 = 0;

/// Solves that reach the sorted core solve on a forest, for the same
/// reason: no edge is left with both endpoints outside the forced edges.
const FOREST_CORE_SOLVES: u64 = 0;

/// Augmenting searches on a star with any number of leaves: its highest leaf
/// is forced onto the centre, and every other leaf drops to degree 0.
/// Without the forced step the blossom solver's greedy pass matches the
/// centre to its first leaf and searches, in vain, from each of the others
/// ([`star_searches_without_forced_edges`]).
const STAR_SEARCHES: u64 = 0;

/// The failing searches a star with `leaves` leaves costs the blossom solver
/// without the forced step: one per leaf that greedy leaves free.
fn star_searches_without_forced_edges(leaves: usize) -> u64 {
    leaves.saturating_sub(1) as u64
}

/// Augmenting searches on a flower with an odd clique of `clique` vertices.
/// The hub's highest leaf is forced onto the hub, the other leaves drop to
/// degree 0, and every clique vertex keeps at least two clique neighbours
/// (`clique >= 3`), so the core is the clique: only its vertices may start a
/// search. Greedy pairs all but one of them, so in fact one search runs;
/// the bound is the number of vertices that may start one.
fn flower_search_bound(clique: usize) -> u64 {
    clique as u64
}

/// Hub `0` with `leaves` pendant leaves, joined by one edge to vertex 1 of
/// an odd clique on `1..=clique`: the flower of the blossom solver's tests,
/// where without the forced step every leaf search fails after exploring the
/// clique.
fn flower(clique: usize, leaves: usize) -> Graph {
    assert!(clique % 2 == 1, "the clique must be odd");
    let mut pairs = vec![(0, 1)];
    for u in 1..=clique as u32 {
        for v in u + 1..=clique as u32 {
            pairs.push((u, v));
        }
    }
    let first_leaf = clique as u32 + 1;
    pairs.extend((first_leaf..first_leaf + leaves as u32).map(|l| (0, l)));
    Graph::from_pairs(1 + clique + leaves, pairs).unwrap()
}

#[test]
fn forests_are_settled_by_the_forced_edges_alone() {
    let mut forests: Vec<Graph> = (0..40u64)
        .map(|seed| {
            let n = [2, 9, 60, 500, 3000][seed as usize % 5];
            random_forest(n, [0.4, 0.8, 1.0][seed as usize % 3], seed)
        })
        .collect();
    for (stars, leaves) in [(1, 1), (3, 7), (40, 2), (200, 30)] {
        forests.push(star_forest(stars, leaves));
    }
    for (i, g) in forests.iter().enumerate() {
        let cold = blossom_maximum_matching_with(g, &mut BlossomWorkspace::new());
        let mut engine = MatchingEngine::new();
        let m = engine.solve(g);
        assert!(m.is_valid_for(g), "forest {i}");
        assert_eq!(m.len(), cold.len(), "forest {i}");
        assert_eq!(engine.workspace().searches(), FOREST_SEARCHES, "forest {i}");
        assert_eq!(engine.core_solves(), FOREST_CORE_SOLVES, "forest {i}");
        assert_eq!(engine.forced_edges(), m.len() as u64, "forest {i}");
    }
}

#[test]
fn a_star_runs_no_search() {
    for leaves in [1, 2, 10, 500] {
        let g = star(leaves);
        let mut engine = MatchingEngine::new();
        let m = engine.solve(&g);
        assert_eq!(m.len(), 1);
        assert_eq!(
            engine.workspace().searches(),
            STAR_SEARCHES,
            "{leaves} leaves"
        );
        assert_eq!(engine.forced_edges(), 1);
        // The blossom solver alone pays a failing search per free leaf.
        let mut plain = BlossomWorkspace::new();
        assert_eq!(blossom_maximum_matching_with(&g, &mut plain).len(), 1);
        assert_eq!(
            plain.searches(),
            star_searches_without_forced_edges(leaves),
            "{leaves} leaves"
        );
    }
}

#[test]
fn a_flower_searches_only_its_clique() {
    // More leaves than clique vertices, so a search from every free leaf
    // would break the bound.
    for (clique, leaves) in [(3, 10), (9, 50), (41, 200)] {
        let g = flower(clique, leaves);
        let mut engine = MatchingEngine::new();
        let m = engine.solve(&g);
        assert!(m.is_valid_for(&g));
        assert_eq!(
            m.len(),
            1 + clique / 2,
            "hub-leaf plus a near-perfect clique"
        );
        assert_eq!(engine.forced_edges(), 1);
        assert_eq!(engine.core_solves(), 1);
        let searches = engine.workspace().searches();
        assert!(
            searches <= flower_search_bound(clique),
            "{searches} searches on a {clique}-clique flower with {leaves} leaves"
        );
    }
}
