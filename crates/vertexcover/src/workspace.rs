//! Reusable, epoch-reset scratch state for the vertex-cover solvers.
//!
//! The pre-engine vertex-cover hot path allocated per call and per round:
//! `peel_with_thresholds` copied the edge set into a working buffer, then
//! every threshold round allocated a fresh `vec![0; n]` degree array and
//! rescanned (and `retain`ed) the whole residual buffer — `O(m · rounds)`
//! plus `O(n · rounds)` on the paper's workloads, where `n` is the *global*
//! vertex count even for sparse pieces. `two_approx_cover`,
//! `greedy_degree_cover`, the LP double cover and the branch-and-bound
//! preamble each allocated their own `vec![false; n]` / `vec![0; n]` scratch
//! per call.
//!
//! [`VcWorkspace`] makes all of that state reusable, following the same
//! epoch-stamp technique as `matching::BlossomWorkspace`:
//!
//! * **Scope stamps.** One shared per-vertex `u32` stamp array serves as the
//!   "peeled" / "matched" / "covered" flags of whichever solver is running:
//!   a vertex is flagged iff its stamp equals the current scope epoch, and
//!   starting a new scope bumps the epoch — invalidating every flag in
//!   `O(1)` with zero memory traffic.
//! * **Stamped degree counts.** Residual degrees are counted into a stamped
//!   array (`degree` valid iff `degree_stamp == epoch`), so counting costs
//!   `O(m)` — independent of the global `n` — and simultaneously collects
//!   the non-isolated vertex list.
//! * **Bucket queue.** For the peeling process the non-isolated vertices are
//!   counting-sorted by residual degree into an indexed bucket structure
//!   (`vert` / `pos` / `bin`, the Matula–Beck layout): the vertices of
//!   degree `>= t` are a suffix of `vert`, read off in `O(peeled)`, and
//!   removing a peeled vertex decrements each live neighbour with an `O(1)`
//!   bucket swap. A threshold round therefore costs
//!   `O(vertices peeled + edges removed)` instead of a full residual rescan.
//!
//! **Epoch-reset invariant:** a stamped entry is meaningful iff its stamp
//! equals the current epoch; bumping the epoch invalidates all entries in
//! `O(1)`. The only `O(total capacity)` write is a full stamp clear when the
//! `u32` epoch wraps after 2³² scopes — counted in
//! [`VcWorkspace::full_resets`] and asserted zero by the unit tests and the
//! engine-equivalence proptests.

use graph::VertexId;
use std::collections::BinaryHeap;

/// Reusable vertex-cover scratch: scope stamps, stamped degree counts and the
/// bucket-queue peeling structure.
///
/// See the [module docs](self) for the invariants. Obtain one via
/// [`VcWorkspace::new`] or let [`VcEngine`](crate::engine::VcEngine) manage
/// it; the free functions in [`crate::peeling`], [`crate::approx`],
/// [`crate::lp`] and [`crate::exact`] run on a per-thread engine.
#[derive(Debug, Clone)]
pub struct VcWorkspace {
    epoch: u32,
    /// Scope flags (`stamp[v] == epoch` ⇒ flagged in the current scope).
    stamp: Vec<u32>,
    /// Stamped residual degrees (`degree[v]` valid iff
    /// `degree_stamp[v] == epoch`).
    degree: Vec<u32>,
    degree_stamp: Vec<u32>,
    /// Non-isolated vertices of the current solve, in first-touch order.
    pub(crate) active: Vec<VertexId>,
    /// Bucket queue: vertices sorted by residual degree…
    pub(crate) vert: Vec<VertexId>,
    /// …the position of each active vertex in `vert`…
    pos: Vec<u32>,
    /// …and `bin[d]` = index in `vert` of the first vertex of degree `>= d`.
    pub(crate) bin: Vec<u32>,
    /// Per-round peel scratch (the round's peel set, sorted before output).
    pub(crate) round: Vec<VertexId>,
    /// Lazy-deletion heap reused by `greedy_degree_cover`.
    pub(crate) heap: BinaryHeap<(usize, VertexId)>,
    solves: u64,
    full_resets: u64,
}

impl Default for VcWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl VcWorkspace {
    /// Creates an empty workspace; arrays grow to the largest graph solved.
    pub fn new() -> Self {
        VcWorkspace {
            // Stamps start at 0 and the epoch at 1, so freshly grown (zeroed)
            // array tails always read as "stale".
            epoch: 1,
            stamp: Vec::new(),
            degree: Vec::new(),
            degree_stamp: Vec::new(),
            active: Vec::new(),
            vert: Vec::new(),
            pos: Vec::new(),
            bin: Vec::new(),
            round: Vec::new(),
            heap: BinaryHeap::new(),
            solves: 0,
            full_resets: 0,
        }
    }

    /// Number of solver scopes opened through this workspace (lifetime).
    #[inline]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Number of `O(capacity)` stamp clears ever performed. Stays 0 in
    /// practice: a full reset only happens when the `u32` epoch counter wraps
    /// after 2³² scopes. The unit tests and the engine-equivalence proptests
    /// assert this counter, pinning the "zero per-round `O(n)` resets"
    /// claim.
    #[inline]
    pub fn full_resets(&self) -> u64 {
        self.full_resets
    }

    /// Opens a new solver scope over vertex ids `0..n`: grows the stamp
    /// arrays if needed and bumps the epoch, lazily invalidating every flag
    /// and stamped degree.
    pub(crate) fn begin_scope(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.degree.resize(n, 0);
            self.degree_stamp.resize(n, 0);
            self.pos.resize(n, 0);
        }
        self.solves += 1;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                for s in self.stamp.iter_mut().chain(self.degree_stamp.iter_mut()) {
                    *s = 0;
                }
                self.full_resets += 1;
                1
            }
        };
        self.active.clear();
    }

    /// Returns `true` if `v` is flagged in the current scope.
    #[inline]
    pub(crate) fn is_flagged(&self, v: VertexId) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Flags `v` in the current scope (peeled / matched / covered).
    #[inline]
    pub(crate) fn flag(&mut self, v: VertexId) {
        self.stamp[v as usize] = self.epoch;
    }

    /// Counts one more incident edge on `v`, registering `v` as active on
    /// first touch. Returns the new degree so callers can track the maximum
    /// inline (no separate pass over the active list).
    #[inline]
    pub(crate) fn bump_degree(&mut self, v: VertexId) -> u32 {
        if self.degree_stamp[v as usize] == self.epoch {
            self.degree[v as usize] += 1;
        } else {
            self.degree_stamp[v as usize] = self.epoch;
            self.degree[v as usize] = 1;
            self.active.push(v);
        }
        self.degree[v as usize]
    }

    /// The residual degree of an active vertex (0 for untouched ids).
    #[inline]
    pub(crate) fn degree_of(&self, v: VertexId) -> u32 {
        if self.degree_stamp[v as usize] == self.epoch {
            self.degree[v as usize]
        } else {
            0
        }
    }

    /// Sets the degree of `v` directly, registering it as active on first
    /// touch (used when degrees come from a CSR rather than an edge scan).
    #[inline]
    pub(crate) fn set_degree(&mut self, v: VertexId, d: u32) {
        if self.degree_stamp[v as usize] != self.epoch {
            self.degree_stamp[v as usize] = self.epoch;
            self.active.push(v);
        }
        self.degree[v as usize] = d;
    }

    /// Decrements the degree of an active vertex *without* touching the
    /// bucket queue (for the heap-based greedy cover). Returns the new value.
    #[inline]
    pub(crate) fn dec_degree(&mut self, v: VertexId) -> u32 {
        debug_assert!(self.degree_stamp[v as usize] == self.epoch);
        self.degree[v as usize] -= 1;
        self.degree[v as usize]
    }

    /// Builds the bucket queue over the current `active` list: counting-sorts
    /// the vertices by degree into `vert`/`pos` and fills the `bin`
    /// boundaries for degrees `0 ..= max_degree + 1`. `O(active + max_degree)`.
    pub(crate) fn build_buckets(&mut self, max_degree: usize) {
        self.bin.clear();
        self.bin.resize(max_degree + 2, 0);
        for &v in &self.active {
            self.bin[self.degree[v as usize] as usize + 1] += 1;
        }
        for d in 0..=max_degree {
            self.bin[d + 1] += self.bin[d];
        }
        // `bin` now holds the start index of every degree block; place the
        // vertices using `bin` itself as the cursor (each `bin[d]` ends up at
        // the start of block `d + 1`), then shift it back by one block.
        self.vert.clear();
        self.vert.resize(self.active.len(), 0);
        for i in 0..self.active.len() {
            let v = self.active[i];
            let d = self.degree[v as usize] as usize;
            let slot = self.bin[d];
            self.bin[d] += 1;
            self.vert[slot as usize] = v;
            self.pos[v as usize] = slot;
        }
        for d in (1..=max_degree + 1).rev() {
            self.bin[d] = self.bin[d - 1];
        }
        self.bin[0] = 0;
    }

    /// Decrements the residual degree of live vertex `w` by one, keeping the
    /// bucket queue sorted with the standard `O(1)` boundary swap.
    #[inline]
    pub(crate) fn decrement(&mut self, w: VertexId) {
        let d = self.degree[w as usize] as usize;
        debug_assert!(d >= 1, "cannot decrement a zero-degree vertex");
        let p = self.pos[w as usize] as usize;
        let s = self.bin[d] as usize;
        // Swap `w` with the first vertex of its degree block, then shrink
        // the block from the left: `w` now lives in the (d-1)-block.
        let other = self.vert[s];
        self.vert.swap(p, s);
        self.pos[other as usize] = p as u32;
        self.pos[w as usize] = s as u32;
        self.bin[d] += 1;
        self.degree[w as usize] = (d - 1) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_bump_invalidates_flags_and_degrees() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(5);
        ws.flag(2);
        ws.bump_degree(3);
        ws.bump_degree(3);
        assert!(ws.is_flagged(2));
        assert_eq!(ws.degree_of(3), 2);
        assert_eq!(ws.active, vec![3]);
        ws.begin_scope(5);
        assert!(!ws.is_flagged(2));
        assert_eq!(ws.degree_of(3), 0);
        assert!(ws.active.is_empty());
        assert_eq!(ws.full_resets(), 0);
        assert_eq!(ws.solves(), 2);
    }

    #[test]
    fn buckets_sort_by_degree_and_decrement_in_place() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(4);
        // Degrees: v0 = 1, v1 = 3, v2 = 2, v3 = 2.
        for (v, d) in [(0u32, 1), (1, 3), (2, 2), (3, 2)] {
            for _ in 0..d {
                ws.bump_degree(v);
            }
        }
        ws.build_buckets(3);
        // vert is sorted ascending by degree.
        let degs: Vec<u32> = ws.vert.iter().map(|&v| ws.degree_of(v)).collect();
        assert_eq!(degs, vec![1, 2, 2, 3]);
        // Vertices with degree >= 2 are the suffix starting at bin[2].
        assert_eq!(ws.bin[2], 1);
        assert_eq!(ws.bin[3], 3);
        // Decrement v1 (3 -> 2): stays within the live region, sorted.
        ws.decrement(1);
        assert_eq!(ws.degree_of(1), 2);
        let degs: Vec<u32> = ws.vert.iter().map(|&v| ws.degree_of(v)).collect();
        assert_eq!(degs, vec![1, 2, 2, 2]);
        // pos stays consistent with vert.
        for (i, &v) in ws.vert.iter().enumerate() {
            assert_eq!(ws.pos[v as usize] as usize, i);
        }
    }

    #[test]
    fn growing_capacity_keeps_stale_semantics() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(2);
        ws.flag(1);
        ws.begin_scope(10);
        assert!(!ws.is_flagged(1));
        assert!(!ws.is_flagged(9));
        assert_eq!(ws.degree_of(9), 0);
    }
}
