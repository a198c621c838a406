//! Hopcroft–Karp maximum matching of an explicit [`BipartiteGraph`] in
//! `O(m sqrt(n))`: the exact oracle the matching engine is checked against
//! on bipartite inputs, and the matching König covers are read off.
//!
//! This is the classic phase loop over the left side's sorted adjacency: a
//! BFS layers the graph from the free left vertices, then an iterative DFS
//! from each free left vertex, in id order, augments along the layers.

use graph::{BipartiteGraph, VertexId};
use std::collections::VecDeque;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// One stack frame of the iterative alternating-path DFS: the left vertex,
/// the next neighbour index to try, and the right vertex currently descended
/// through (to flip on success).
type DfsFrame = (u32, u32, u32);

/// Left-side adjacency lists: left vertex -> sorted right neighbours.
pub(crate) fn left_adjacency(g: &BipartiteGraph) -> Vec<Vec<VertexId>> {
    let mut adj = vec![Vec::new(); g.left_n()];
    for &(l, r) in g.edges() {
        adj[l as usize].push(r);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    adj
}

/// Computes a maximum matching of the bipartite graph, returned as
/// `(left, right)` pairs in ascending left order.
pub fn hopcroft_karp(g: &BipartiteGraph) -> Vec<(VertexId, VertexId)> {
    let adj = left_adjacency(g);
    // pair_left[l] = right partner of l (or NIL); pair_right[r] = left partner.
    let mut pair_left = vec![NIL; g.left_n()];
    let mut pair_right = vec![NIL; g.right_n()];
    let mut dist = vec![INF; g.left_n()];
    let mut stack = Vec::new();
    let mut queue = VecDeque::new();
    while bfs(&adj, &pair_left, &pair_right, &mut dist, &mut queue) {
        let mut augmented = false;
        for l in 0..g.left_n() {
            if pair_left[l] == NIL
                && dfs(
                    l,
                    &adj,
                    &mut pair_left,
                    &mut pair_right,
                    &mut dist,
                    &mut stack,
                )
            {
                augmented = true;
            }
        }
        if !augmented {
            break;
        }
    }
    (0..g.left_n())
        .filter(|&l| pair_left[l] != NIL)
        .map(|l| (l as VertexId, pair_left[l]))
        .collect()
}

/// The maximum matching *size* of the bipartite graph.
pub fn hopcroft_karp_size(g: &BipartiteGraph) -> usize {
    hopcroft_karp(g).len()
}

/// Layers the left vertices by alternating distance from the free ones;
/// returns whether some layer reaches a free right vertex.
fn bfs(
    adj: &[Vec<VertexId>],
    pair_left: &[u32],
    pair_right: &[u32],
    dist: &mut [u32],
    queue: &mut VecDeque<u32>,
) -> bool {
    queue.clear();
    for (l, &p) in pair_left.iter().enumerate() {
        if p == NIL {
            dist[l] = 0;
            queue.push_back(l as u32);
        } else {
            dist[l] = INF;
        }
    }
    let mut found_augmenting = false;
    while let Some(l) = queue.pop_front() {
        for &r in &adj[l as usize] {
            let next = pair_right[r as usize];
            if next == NIL {
                found_augmenting = true;
            } else if dist[next as usize] == INF {
                dist[next as usize] = dist[l as usize] + 1;
                queue.push_back(next);
            }
        }
    }
    found_augmenting
}

/// Searches one augmenting path from free left vertex `l` along the BFS
/// layers and flips it. Iterative, because augmenting paths grow with the
/// phase number and deep instances must not consume call stack.
fn dfs(
    l: usize,
    adj: &[Vec<VertexId>],
    pair_left: &mut [u32],
    pair_right: &mut [u32],
    dist: &mut [u32],
    stack: &mut Vec<DfsFrame>,
) -> bool {
    stack.clear();
    stack.push((l as u32, 0, NIL));
    loop {
        let depth = stack.len() - 1;
        let (v, mut i, _) = stack[depth];
        let neighbors = &adj[v as usize];
        let mut descended = false;
        while (i as usize) < neighbors.len() {
            let r = neighbors[i as usize];
            i += 1;
            let next = pair_right[r as usize];
            if next == NIL {
                // Free right vertex: flip the whole alternating path.
                stack[depth].2 = r;
                for &(lv, _, rv) in stack.iter().rev() {
                    pair_left[lv as usize] = rv;
                    pair_right[rv as usize] = lv;
                }
                return true;
            }
            if dist[next as usize] == dist[v as usize] + 1 {
                stack[depth] = (v, i, r);
                stack.push((next, 0, NIL));
                descended = true;
                break;
            }
        }
        if descended {
            continue;
        }
        dist[v as usize] = INF;
        stack.pop();
        if stack.is_empty() {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force_maximum_matching_size;
    use graph::gen::bipartite::{planted_matching_bipartite, random_bipartite};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn assert_is_matching(pairs: &[(VertexId, VertexId)]) {
        let lefts: HashSet<_> = pairs.iter().map(|&(l, _)| l).collect();
        let rights: HashSet<_> = pairs.iter().map(|&(_, r)| r).collect();
        assert_eq!(lefts.len(), pairs.len(), "left endpoints repeat");
        assert_eq!(rights.len(), pairs.len(), "right endpoints repeat");
    }

    #[test]
    fn tiny_cases() {
        // Empty graph.
        let g = BipartiteGraph::empty(3, 3);
        assert!(hopcroft_karp(&g).is_empty());

        // Single edge.
        let g = BipartiteGraph::from_pairs(2, 2, vec![(0, 1)]).unwrap();
        assert_eq!(hopcroft_karp(&g), vec![(0, 1)]);

        // Perfect matching on a 3x3 "crown".
        let g =
            BipartiteGraph::from_pairs(3, 3, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
                .unwrap();
        let m = hopcroft_karp(&g);
        assert_eq!(m.len(), 3);
        assert_is_matching(&m);
    }

    #[test]
    fn star_is_limited_by_the_centre() {
        // One left vertex connected to many right vertices: matching size 1.
        let g = BipartiteGraph::from_pairs(1, 10, (0..10).map(|r| (0, r))).unwrap();
        assert_eq!(hopcroft_karp_size(&g), 1);
        // Many left vertices all pointing at one right vertex: size 1.
        let g = BipartiteGraph::from_pairs(10, 1, (0..10).map(|l| (l, 0))).unwrap();
        assert_eq!(hopcroft_karp_size(&g), 1);
    }

    #[test]
    fn hall_violator_limits_matching() {
        // 3 left vertices whose joint neighbourhood is just 2 right vertices.
        let g =
            BipartiteGraph::from_pairs(3, 3, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
                .unwrap();
        assert_eq!(hopcroft_karp_size(&g), 2);
    }

    #[test]
    fn planted_matching_is_found() {
        for seed in 0..3 {
            let (g, planted) = planted_matching_bipartite(120, 0.02, &mut rng(seed));
            let m = hopcroft_karp(&g);
            assert_eq!(
                m.len(),
                planted.len(),
                "planted perfect matching must be recovered in size"
            );
            assert_is_matching(&m);
        }
    }

    #[test]
    fn matches_brute_force_on_small_random_graphs() {
        for seed in 0..10 {
            let g = random_bipartite(7, 7, 0.3, &mut rng(seed));
            let hk = hopcroft_karp_size(&g);
            let brute = brute_force_maximum_matching_size(&g.to_graph());
            assert_eq!(hk, brute, "seed {seed}");
        }
    }

    #[test]
    fn size_agrees_with_pair_materialization() {
        for seed in 0..5 {
            let g = random_bipartite(25, 25, 0.1, &mut rng(seed + 40));
            assert_eq!(hopcroft_karp_size(&g), hopcroft_karp(&g).len(), "{seed}");
        }
    }

    #[test]
    fn output_edges_exist_in_graph() {
        let g = random_bipartite(40, 40, 0.08, &mut rng(7));
        let edge_set: HashSet<_> = g.edges().iter().copied().collect();
        for pair in hopcroft_karp(&g) {
            assert!(edge_set.contains(&pair));
        }
    }
}
