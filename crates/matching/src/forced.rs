//! Karp–Sipser's degree-one rule: the edges every solve may take for free.
//!
//! If a vertex `v` has exactly one neighbour `u`, some maximum matching
//! contains `(u, v)`. Take any maximum matching `M`: if `v` is matched, it is
//! matched to `u`; if not, `u` is matched (else `M + (u, v)` would be larger)
//! to some `w`, and `M − (u, w) + (u, v)` is a maximum matching too. That
//! matching minus `(u, v)` is a maximum matching of `G − u − v`, so
//! `ν(G) = 1 + ν(G − u − v)`, and by induction the edges the rule takes
//! while it is applied until no degree-one vertex is left, the **forced
//! edges** `F`, satisfy `ν(G) = |F| + ν(G − V(F))`. Every maximum matching
//! of what is left, plus `F`, is maximum in `G`, and an augmenting-path
//! solver seeded with `F` still ends at a maximum matching of `G`: the rule
//! changes which maximum matching comes out and how much search is left,
//! never its size.
//!
//! The coordinator's coreset unions are where this pays. A union of `k`
//! matchings over a skewed graph is mostly pendant vertices hanging off hubs
//! and short paths, so the rule settles nearly the whole answer before any
//! augmenting search runs (see `MatchingEngine::solve_concat_forced`).
//!
//! [`ForcedEdges::run`] applies the rule on a [`Csr`] in `O(n + m)`:
//!
//! 1. **Count** — every vertex's live degree is its neighbour-list length;
//!    the degree-one vertices go on a stack in ascending order.
//! 2. **Force** — pop `v`; if its live degree is still 1, its one live
//!    neighbour `u` is the first entry of its list that is not matched.
//!    Match both, then walk `u`'s list and decrement each unmatched
//!    neighbour, pushing those that drop to 1.
//!
//! A vertex is matched once, so each list is walked at most twice (once
//! from each role), and a live degree only falls, so each vertex is pushed
//! at most once. Degrees count list entries, not distinct neighbours: a
//! duplicated edge (the same edge in two overlapping slices) counts twice,
//! so a vertex whose only neighbour is listed twice is not taken as a
//! pendant. The rule then misses an edge but never forces a wrong one,
//! because matching `u` removes every one of its entries from its
//! neighbours' counts.

use graph::{Csr, Edge};

/// Live degree of a vertex the rule has matched.
const MATCHED: u32 = u32::MAX;

/// Reusable state of the degree-one rule: live degrees and the pending
/// stack, both grown to the largest graph seen, plus the lifetime count of
/// forced edges. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct ForcedEdges {
    /// Per vertex: the entries of its list that lead to unmatched vertices,
    /// or [`MATCHED`].
    degree: Vec<u32>,
    /// Vertices whose live degree reached 1; stale entries are skipped.
    stack: Vec<u32>,
    forced: u64,
}

impl ForcedEdges {
    /// Forced edges found by every run so far (lifetime).
    #[inline]
    pub(crate) fn forced(&self) -> u64 {
        self.forced
    }

    /// Appends the forced edges of `adj` to `out` in the order the rule
    /// takes them. They are pairwise vertex-disjoint edges of `adj`.
    pub(crate) fn run(&mut self, adj: &Csr, out: &mut Vec<Edge>) {
        let ForcedEdges {
            degree,
            stack,
            forced,
        } = self;
        let n = adj.n() as u32;
        degree.clear();
        degree.extend((0..n).map(|v| adj.degree(v) as u32));
        stack.clear();
        stack.extend((0..n).rev().filter(|&v| degree[v as usize] == 1));
        let before = out.len();
        while let Some(v) = stack.pop() {
            if degree[v as usize] != 1 {
                continue; // matched, or its last neighbour was taken
            }
            let live = adj
                .neighbors(v)
                .iter()
                .find(|&&w| degree[w as usize] != MATCHED);
            let Some(&u) = live else {
                debug_assert!(false, "live degree 1 without a live neighbour");
                continue;
            };
            degree[v as usize] = MATCHED;
            degree[u as usize] = MATCHED;
            out.push(Edge::new(v, u));
            for &x in adj.neighbors(u) {
                let d = &mut degree[x as usize];
                if *d != MATCHED {
                    *d -= 1;
                    if *d == 1 {
                        stack.push(x);
                    }
                }
            }
        }
        *forced += (out.len() - before) as u64;
    }
}
