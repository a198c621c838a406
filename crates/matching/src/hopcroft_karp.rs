//! Hopcroft–Karp maximum matching for bipartite graphs in `O(m sqrt(n))`.
//!
//! The matching engine does not run it: every engine solve takes the forced
//! degree-one edges and then Edmonds' blossom search (see [`crate::engine`]),
//! bipartite input or not. Hopcroft–Karp serves the callers that hold an
//! explicit [`BipartiteGraph`]: König's theorem turns its maximum matching
//! into a minimum vertex cover (the exact and LP vertex-cover solvers), and
//! the tests use it as an oracle independent of the engine on bipartite
//! inputs.
//!
//! There is one phase loop, [`hopcroft_karp_on_csr`], over a general-graph
//! [`Csr`] plus a proper 2-colouring. [`hopcroft_karp`] /
//! [`hopcroft_karp_size`] adapt an explicit [`BipartiteGraph`] to it: flatten
//! with [`BipartiteGraph::to_graph`] (right vertex `r` becomes `left_n + r`),
//! colour each vertex by its side, solve, and map every matched edge back to
//! a `(left, right)` pair.

use graph::{BipartiteGraph, Csr, Edge, VertexId};
use std::collections::VecDeque;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// Computes a maximum matching of the bipartite graph, returned as
/// `(left, right)` pairs in ascending left order.
pub fn hopcroft_karp(g: &BipartiteGraph) -> Vec<(VertexId, VertexId)> {
    let flat = g.to_graph();
    let color: Vec<u8> = (0..flat.n()).map(|v| u8::from(v >= g.left_n())).collect();
    let offset = g.left_n() as VertexId;
    hopcroft_karp_on_csr(&Csr::from_graph(&flat), &color)
        .into_iter()
        .map(|e| (e.u, e.v - offset))
        .collect()
}

/// Computes only the maximum matching *size* of the bipartite graph.
pub fn hopcroft_karp_size(g: &BipartiteGraph) -> usize {
    hopcroft_karp(g).len()
}

/// Maximum matching of a bipartite *general-graph* CSR, driven by a proper
/// 2-colouring (`color[v] ∈ {0, 1}`, colour-0 vertices forming the left
/// side): the phases run on the CSR directly, with no `BipartiteGraph` and
/// no local-id relabeling. Returns matched edges in ascending left-vertex
/// order.
pub fn hopcroft_karp_on_csr(adj: &Csr, color: &[u8]) -> Vec<Edge> {
    let n = adj.n();
    debug_assert_eq!(color.len(), n);
    // pair[v] = matched partner of v (either side), or NIL.
    let mut pair = vec![NIL; n];
    let lefts: Vec<u32> = (0..n as u32).filter(|&v| color[v as usize] == 0).collect();
    // dist is indexed by vertex id but only consulted for left vertices.
    let mut dist = vec![INF; n];
    let (mut queue, mut stack) = (VecDeque::new(), Vec::new());

    loop {
        if !bfs_csr(adj, &lefts, &pair, &mut dist, &mut queue) {
            break;
        }
        let mut augmented = false;
        for &l in &lefts {
            if pair[l as usize] == NIL && dfs_csr(l, adj, &mut pair, &mut dist, &mut stack) {
                augmented = true;
            }
        }
        if !augmented {
            break;
        }
    }

    lefts
        .iter()
        .filter(|&&l| pair[l as usize] != NIL)
        .map(|&l| Edge::new(l, pair[l as usize]))
        .collect()
}

/// One stack frame of the iterative alternating-path DFS: the left vertex,
/// the next neighbour index to try, and the right vertex currently descended
/// through (to flip on success).
type DfsFrame = (u32, u32, u32);

/// BFS phase over the general-graph CSR: left vertices and their partners
/// live in the same id space, `pair` covers both sides. `queue` is the
/// solve's BFS queue, reused across phases.
fn bfs_csr(
    adj: &Csr,
    lefts: &[u32],
    pair: &[u32],
    dist: &mut [u32],
    queue: &mut VecDeque<u32>,
) -> bool {
    queue.clear();
    for &l in lefts {
        if pair[l as usize] == NIL {
            dist[l as usize] = 0;
            queue.push_back(l);
        } else {
            dist[l as usize] = INF;
        }
    }
    let mut found_augmenting = false;
    while let Some(l) = queue.pop_front() {
        for &r in adj.neighbors(l) {
            let next = pair[r as usize];
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

fn dfs_csr(
    l: u32,
    adj: &Csr,
    pair: &mut [u32],
    dist: &mut [u32],
    stack: &mut Vec<DfsFrame>,
) -> bool {
    // Iterative alternating-path DFS over the general-graph CSR (same
    // traversal as the recursive classic).
    stack.clear();
    stack.push((l, 0, NIL));
    loop {
        let depth = stack.len() - 1;
        let (v, mut i, _) = stack[depth];
        let neighbors = adj.neighbors(v);
        let mut descended = false;
        while (i as usize) < neighbors.len() {
            let r = neighbors[i as usize];
            i += 1;
            let next = pair[r as usize];
            if next == NIL {
                stack[depth].2 = r;
                for &(lv, _, rv) in stack.iter().rev() {
                    pair[lv as usize] = rv;
                    pair[rv as usize] = lv;
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
    use graph::bipartite::LeftCsr;
    use graph::gen::bipartite::{planted_matching_bipartite, random_bipartite};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;
    use testkit::brute_force_maximum_matching_size;

    /// The pre-adapter phase loop over a left-side CSR, kept as the oracle
    /// the [`hopcroft_karp`] adapter must match pair for pair.
    fn reference_pairs(g: &BipartiteGraph) -> Vec<(VertexId, VertexId)> {
        let adj = g.left_csr();
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

    fn bfs(
        adj: &LeftCsr,
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
            for &r in adj.neighbors(l as usize) {
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

    fn dfs(
        l: usize,
        adj: &LeftCsr,
        pair_left: &mut [u32],
        pair_right: &mut [u32],
        dist: &mut [u32],
        stack: &mut Vec<DfsFrame>,
    ) -> bool {
        // Iterative version of the classic recursion (identical traversal order
        // and output); augmenting paths grow with the phase number, so deep
        // instances must not consume call stack.
        stack.clear();
        stack.push((l as u32, 0, NIL));
        loop {
            let depth = stack.len() - 1;
            let (v, mut i, _) = stack[depth];
            let neighbors = adj.neighbors(v as usize);
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

    #[test]
    fn fused_csr_path_matches_bipartite_path() {
        for seed in 0..10 {
            let bg = random_bipartite(30, 30, 0.08, &mut rng(seed + 300));
            // The side-agnostic encoding: right ids offset by left_n, so the
            // canonical colouring is 0 for v < left_n and 1 otherwise.
            let g = bg.to_graph();
            let adj = Csr::from_ref(&g);
            let color: Vec<u8> = (0..g.n()).map(|v| u8::from(v >= bg.left_n())).collect();
            let fused = hopcroft_karp_on_csr(&adj, &color);
            assert_eq!(fused.len(), hopcroft_karp_size(&bg), "seed {seed}");
            let edge_set: HashSet<_> = g.edges().iter().copied().collect();
            assert!(fused.iter().all(|e| edge_set.contains(e)));
        }
    }

    #[test]
    fn adapter_returns_the_reference_loops_pairs() {
        let mut r = rng(0x4b);
        for case in 0..400u64 {
            let (left, right): (usize, usize) = (r.gen_range(1..61), r.gen_range(1..61));
            let p = r.gen_range(0.01..0.33);
            let g = if case % 2 == 0 {
                random_bipartite(left, right, p, &mut rng(case))
            } else {
                planted_matching_bipartite(left, p, &mut rng(case)).0
            };
            assert_eq!(hopcroft_karp(&g), reference_pairs(&g), "case {case}");
        }
    }
}
