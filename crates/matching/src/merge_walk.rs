//! The fan-in-2 merge of two matchings as one alternating-path walk.
//!
//! A tree node with two children must return a maximum matching of their
//! union. When both children are matchings — `A`, the warm start, and `B` —
//! every vertex has at most one `A` edge and one `B` edge, so the union's
//! components are alternating paths and even cycles (an edge in both
//! children is a one-edge component). Relative to `A`, the only augmenting
//! paths are the path components whose two end edges both lie in `B`: their
//! end vertices are the only `A`-free vertices with an edge, and switching
//! such a path to its `B` edges leaves no free vertex on it. A solver that
//! starts from `A` and only augments, as Hopcroft–Karp and blossom do,
//! therefore returns `A` with exactly those components switched to `B`,
//! whatever its search order.
//!
//! [`MergeWalk::merge`] computes that matching directly, in
//! `O(|A| + |B|)`:
//!
//! 1. **Load** — stamp each endpoint's `A` mate, then its `B` mate, into one
//!    16-byte slot per vertex. A vertex that gets a second mate on one side
//!    means that child is not a matching, and the merge returns `None`.
//! 2. **Walk** — from each `A`-free endpoint of a `B` edge, follow `B` and
//!    `A` edges in turn. Such an endpoint has degree 1, so its component is
//!    a path, and the walk stops at the path's other end. A path that ends
//!    right after a `B` edge is switched: a second walk marks every vertex
//!    on it. The far end is `A`-free too, and the mark is what keeps its
//!    `B` edge from starting the same walk again.
//! 3. **Output** — the `A` edges whose endpoints are unmarked, then the `B`
//!    edges whose endpoints are marked, into one vector sized exactly.
//!
//! Each walk step crosses one edge. Walked paths are disjoint, and only a
//! switched path is walked twice, so one merge takes at most
//! `2(|A| + |B|)` steps ([`MergeWalk::steps`]).
//!
//! Slots are valid only when their stamp equals the walker's epoch, so a
//! merge never clears them: the only `O(n)` writes are growing the slots to
//! a larger `n` and the full stamp clear when the `u32` epoch wraps after
//! 2³² merges ([`MergeWalk::full_resets`]).

use graph::Edge;

/// "No mate on this side."
const NONE: u32 = u32::MAX;

/// One vertex's state in the current merge; valid iff `stamp` equals the
/// walker's epoch. All four fields share a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
struct MateSlot {
    stamp: u32,
    /// Mate in the warm-start child `A`, or [`NONE`].
    a: u32,
    /// Mate in the other child `B`, or [`NONE`].
    b: u32,
    /// The vertex lies on a path switched to `B`.
    switched: bool,
}

impl MateSlot {
    /// A slot with no mates, stamped with `epoch`.
    #[inline]
    fn fresh(epoch: u32) -> Self {
        MateSlot {
            stamp: epoch,
            a: NONE,
            b: NONE,
            switched: false,
        }
    }
}

/// Reusable state of the fan-in-2 merge walk: epoch-stamped mate slots plus
/// work counters. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct MergeWalk {
    epoch: u32,
    slots: Vec<MateSlot>,
    steps: u64,
    full_resets: u64,
}

impl Default for MergeWalk {
    fn default() -> Self {
        MergeWalk {
            // Stamps start at 0 and the epoch at 1, so freshly grown (zeroed)
            // slots always read as stale.
            epoch: 1,
            slots: Vec::new(),
            steps: 0,
            full_resets: 0,
        }
    }
}

impl MergeWalk {
    /// Edges crossed by every walk so far (lifetime).
    #[inline]
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of `O(n)` stamp clears ever performed (one per `u32` epoch
    /// wrap).
    #[inline]
    pub(crate) fn full_resets(&self) -> u64 {
        self.full_resets
    }

    /// The maximum matching of `a ∪ b` that an augment-only solver reaches
    /// from `a`: `a` with every path component whose end edges both lie in
    /// `b` switched to `b`. Edges are over vertices `0..n`; the output lists
    /// the kept `a` edges in `a`'s order, then the switched-in `b` edges in
    /// `b`'s order. Returns `None` unless `a` and `b` are both matchings.
    pub(crate) fn merge(&mut self, n: usize, a: &[Edge], b: &[Edge]) -> Option<Vec<Edge>> {
        self.begin(n);
        if !self.load::<false>(a) || !self.load::<true>(b) {
            return None;
        }
        let switched = self.switch_paths(b);
        let slots = &self.slots;
        // The merged matching is this function's output: one vector, sized
        // exactly (each switched path adds one edge to `a`).
        let mut out = Vec::with_capacity(a.len() + switched); // xtask: allow(hot-path-alloc)
        out.extend(a.iter().filter(|e| !slots[e.u as usize].switched));
        out.extend(b.iter().filter(|e| slots[e.u as usize].switched));
        Some(out)
    }

    /// Opens a merge over vertices `0..n`: grows the slots if needed and
    /// bumps the epoch, invalidating every slot at once.
    fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, MateSlot::default());
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.slots.iter_mut().for_each(|s| s.stamp = 0);
                self.full_resets += 1;
                1
            }
        };
    }

    /// Stamps both endpoints of every edge with each other as mates on side
    /// `B_SIDE`. Returns `false` as soon as a vertex gets a second mate on
    /// that side (a self-loop gives its vertex two): the edges are not a
    /// matching.
    fn load<const B_SIDE: bool>(&mut self, edges: &[Edge]) -> bool {
        let epoch = self.epoch;
        for e in edges {
            for (v, mate) in [(e.u, e.v), (e.v, e.u)] {
                let slot = &mut self.slots[v as usize];
                if slot.stamp != epoch {
                    *slot = MateSlot::fresh(epoch);
                }
                let side = if B_SIDE { &mut slot.b } else { &mut slot.a };
                if *side != NONE {
                    return false;
                }
                *side = mate;
            }
        }
        true
    }

    /// Walks the path from each `A`-free endpoint of a `b` edge, switches
    /// every path that ends right after a `B` edge, and returns how many it
    /// switched. Every vertex here was stamped by the load.
    fn switch_paths(&mut self, b: &[Edge]) -> usize {
        let mut switched = 0;
        for e in b {
            for start in [e.u, e.v] {
                let slot = self.slots[start as usize];
                if slot.a == NONE && !slot.switched && self.ends_in_b(start) {
                    self.mark_switched(start);
                    switched += 1;
                }
            }
        }
        switched
    }

    /// Follows the path from `start`, an `A`-free vertex with a `B` edge,
    /// and reports whether it ends right after a `B` edge.
    fn ends_in_b(&mut self, start: u32) -> bool {
        let slots = &self.slots;
        let mut steps = 0;
        let mut v = start;
        let ends_in_b = loop {
            // `v` is `start` or was reached over an `A` edge; it has a `B`
            // edge.
            let w = slots[v as usize].b;
            steps += 1;
            let next = slots[w as usize].a;
            if next == NONE {
                break true;
            }
            steps += 1;
            if slots[next as usize].b == NONE {
                break false;
            }
            v = next;
        };
        self.steps += steps;
        ends_in_b
    }

    /// Walks the switched path from `start` again and marks every vertex on
    /// it, both ends included.
    fn mark_switched(&mut self, start: u32) {
        let slots = &mut self.slots;
        let mut steps = 0;
        let mut v = start;
        loop {
            slots[v as usize].switched = true;
            let w = slots[v as usize].b;
            slots[w as usize].switched = true;
            steps += 1;
            let next = slots[w as usize].a;
            if next == NONE {
                break;
            }
            steps += 1;
            v = next;
        }
        self.steps += steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect()
    }

    #[test]
    fn switches_only_paths_with_both_end_edges_in_b() {
        // B-B path 0-1-2-3 (switched), A-A path 4-5-6-7 (kept), A-B path
        // 8-9-10 (kept), lone B edge 11-12 (switched), even cycle 13-14-15-16
        // (kept).
        let a = edges(&[(1, 2), (4, 5), (6, 7), (8, 9), (13, 14), (15, 16)]);
        let b = edges(&[
            (0, 1),
            (2, 3),
            (5, 6),
            (9, 10),
            (11, 12),
            (14, 15),
            (13, 16),
        ]);
        let mut walk = MergeWalk::default();
        let merged = walk.merge(17, &a, &b).expect("both are matchings");
        let want = edges(&[
            (4, 5),
            (6, 7),
            (8, 9),
            (13, 14),
            (15, 16),
            (0, 1),
            (2, 3),
            (11, 12),
        ]);
        assert_eq!(merged, want);
        // Walked: the B-B path twice (3 + 3 edges), the A-B path once (2),
        // the lone B edge twice (1 + 1).
        assert_eq!(walk.steps(), 10);
    }

    #[test]
    fn a_child_that_is_not_a_matching_is_refused() {
        let mut walk = MergeWalk::default();
        let matching = edges(&[(0, 1)]);
        let shared_endpoint = edges(&[(2, 3), (3, 4)]);
        assert!(walk.merge(5, &matching, &shared_endpoint).is_none());
        assert!(walk.merge(5, &shared_endpoint, &matching).is_none());
        let self_loop = [Edge { u: 2, v: 2 }];
        assert!(walk.merge(5, &matching, &self_loop).is_none());
        // A refused merge leaves nothing behind for the next one.
        assert_eq!(walk.merge(5, &matching, &edges(&[(1, 2)])), Some(matching));
    }

    #[test]
    fn epoch_wrap_clears_the_stamps_once_and_changes_no_answer() {
        // One B-B path 0-1-..-5: the answer is `b`.
        let a = edges(&[(1, 2), (3, 4)]);
        let b = edges(&[(0, 1), (2, 3), (4, 5)]);
        let want = Some(b.clone());
        assert_eq!(MergeWalk::default().merge(6, &a, &b), want);
        let mut walk = MergeWalk::default();
        walk.merge(6, &b[..1], &a);
        walk.epoch = u32::MAX - 1;
        for _ in 0..3 {
            assert_eq!(walk.merge(6, &a, &b), want);
        }
        assert_eq!(walk.full_resets(), 1);
    }
}
