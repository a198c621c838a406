//! Exact maximum matching size of tiny graphs, the warm-only bipartite
//! solve that defines a fan-in-2 matching merge, and random forests, which
//! the degree-one rule settles alone.

use graph::{Edge, Graph, GraphRef, VertexId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random forest on `0..n` drawn from `seed`: each vertex joins a random
/// earlier one with probability `p`, under a random relabeling.
pub fn random_forest(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    let edges: Vec<Edge> = (1..n)
        .filter_map(|v| {
            let parent = rng.gen_range(0..v);
            rng.gen_bool(p).then(|| Edge::new(perm[v], perm[parent]))
        })
        .collect();
    Graph::from_edges(n, edges).unwrap()
}

/// Computes the exact maximum matching size of small graphs by exhaustive
/// search over edge subsets (exponential; for cross-checking the real
/// algorithms, `m <= ~20`).
pub fn brute_force_maximum_matching_size<G: GraphRef + ?Sized>(g: &G) -> usize {
    fn recurse(edges: &[Edge], used: &mut Vec<bool>, idx: usize, size: usize, best: &mut usize) {
        *best = (*best).max(size);
        if idx == edges.len() {
            return;
        }
        // Prune: even taking every remaining edge cannot beat best.
        if size + (edges.len() - idx) <= *best {
            return;
        }
        let e = edges[idx];
        // Skip edge idx.
        recurse(edges, used, idx + 1, size, best);
        // Take edge idx if possible.
        if !used[e.u as usize] && !used[e.v as usize] {
            used[e.u as usize] = true;
            used[e.v as usize] = true;
            recurse(edges, used, idx + 1, size + 1, best);
            used[e.u as usize] = false;
            used[e.v as usize] = false;
        }
    }
    let mut best = 0;
    let mut used = vec![false; g.n()];
    recurse(g.edges(), &mut used, 0, 0, &mut best);
    best
}

/// The maximum matching of a bipartite graph over `0..n` that a solver
/// seeded with `warm` and then only augmenting returns: Kuhn's algorithm,
/// one augmenting-path search from each free vertex of colour 0 (the
/// smallest vertex of each component gets colour 0) in id order, with no
/// forced edges and no greedy pass. Returns the edges sorted.
///
/// On a union of two matchings, warm-started from one of them, every solver
/// that only augments returns the same edges: the warm child with every
/// path component whose two end edges lie in the other child switched to
/// it. So this is the oracle of a fan-in-2 matching merge.
///
/// # Panics
///
/// If the graph is not bipartite, or `warm` is not a matching of it.
pub fn warm_only_bipartite_matching(n: usize, edges: &[Edge], warm: &[Edge]) -> Vec<Edge> {
    const NONE: VertexId = VertexId::MAX;
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        adj[e.u as usize].push(e.v);
        adj[e.v as usize].push(e.u);
    }
    let mut color = vec![u8::MAX; n];
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        let mut queue = vec![start as VertexId];
        while let Some(v) = queue.pop() {
            for &w in &adj[v as usize] {
                if color[w as usize] == u8::MAX {
                    color[w as usize] = 1 - color[v as usize];
                    queue.push(w);
                }
                assert_ne!(color[w as usize], color[v as usize], "not bipartite");
            }
        }
    }
    let mut mate = vec![NONE; n];
    for e in warm {
        assert!(
            adj[e.u as usize].contains(&e.v),
            "warm edge {e:?} not in the graph"
        );
        assert!(
            mate[e.u as usize] == NONE && mate[e.v as usize] == NONE,
            "warm is not a matching"
        );
        mate[e.u as usize] = e.v;
        mate[e.v as usize] = e.u;
    }
    fn augment(
        v: VertexId,
        adj: &[Vec<VertexId>],
        mate: &mut [VertexId],
        seen: &mut [bool],
    ) -> bool {
        for &w in &adj[v as usize] {
            if std::mem::replace(&mut seen[w as usize], true) {
                continue;
            }
            let u = mate[w as usize];
            if u == NONE || augment(u, adj, mate, seen) {
                mate[w as usize] = v;
                mate[v as usize] = w;
                return true;
            }
        }
        false
    }
    for v in 0..n as VertexId {
        if color[v as usize] == 0 && mate[v as usize] == NONE {
            augment(v, &adj, &mut mate, &mut vec![false; n]);
        }
    }
    (0..n as VertexId)
        .filter(|&v| mate[v as usize] != NONE && v < mate[v as usize])
        .map(|v| Edge::new(v, mate[v as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Graph;

    #[test]
    fn warm_only_solve_switches_only_paths_with_both_end_edges_in_the_other_child() {
        // Path 0-1-2-3: warm {12}, other {01, 23}. Both end edges lie in the
        // other child, so the path switches.
        let (warm, other) = ([Edge::new(1, 2)], [Edge::new(0, 1), Edge::new(2, 3)]);
        let union = [other[0], warm[0], other[1]];
        assert_eq!(warm_only_bipartite_matching(4, &union, &warm), other);
        // Path 0-1-2: warm {01}, other {12}: warm is already maximum there.
        let union = [Edge::new(0, 1), Edge::new(1, 2)];
        assert_eq!(
            warm_only_bipartite_matching(3, &union, &union[..1]),
            vec![Edge::new(0, 1)]
        );
        // Cold, it is Kuhn's algorithm: a maximum matching.
        assert_eq!(warm_only_bipartite_matching(4, &union, &[]).len(), 1);
        assert_eq!(brute_force_maximum_matching_size(&path4()), 2);
        assert_eq!(
            warm_only_bipartite_matching(4, path4().edges(), &[]).len(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "not bipartite")]
    fn warm_only_solve_rejects_an_odd_cycle() {
        let triangle = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        warm_only_bipartite_matching(3, &triangle, &[]);
    }

    fn path4() -> Graph {
        Graph::from_pairs(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn brute_force_on_small_graphs() {
        assert_eq!(brute_force_maximum_matching_size(&path4()), 2);
        let triangle = Graph::from_pairs(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(brute_force_maximum_matching_size(&triangle), 1);
        let two_triangles =
            Graph::from_pairs(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        assert_eq!(brute_force_maximum_matching_size(&two_triangles), 2);
        assert_eq!(brute_force_maximum_matching_size(&Graph::empty(3)), 0);
    }
}
