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
//! * **Interleaved degree slots.** Each vertex has one 8-byte slot holding
//!   its stamp and its degree side by side (the degree is valid iff the
//!   stamp equals the epoch), so counting an endpoint touches one cache line
//!   and costs `O(1)` — independent of the global `n`. The same slots hold
//!   the greedy cover's degrees and the bucket queue's.
//! * **Candidates.** The peeling count takes the smallest positive threshold
//!   `t_min` and lists a vertex the moment its degree reaches it. Only those
//!   *candidates* can ever be peeled, since residual degrees only fall. They
//!   get local ids `0..c` in list order; for the candidate–candidate edge
//!   pass each candidate's slot lends its degree field to its local id.
//! * **Marks.** A bitset over vertex ids, one `u64` per 64 ids, marks the
//!   candidates during the edge pass and the peeled vertices during the
//!   residual filter. Every word that gains a bit is recorded first, and the
//!   next scope clears only the recorded words.
//! * **Bucket queue.** For the peeling rounds the candidates are
//!   counting-sorted by degree into an indexed bucket structure
//!   (`vert` / `pos` / `bin`, the Matula–Beck layout) over their local ids:
//!   the vertices of degree `>= t` are a suffix of `vert`, read off in
//!   `O(peeled)`, and removing a peeled vertex decrements each live
//!   candidate neighbour with an `O(1)` bucket swap. A threshold round
//!   therefore costs `O(vertices peeled + edges removed)` instead of a full
//!   residual rescan, and building the queue costs `O(c + max degree)`.
//!
//! **Epoch-reset invariant:** a stamped entry is meaningful iff its stamp
//! equals the current epoch; bumping the epoch invalidates all entries in
//! `O(1)`. The only `O(total capacity)` write is a full stamp clear when the
//! `u32` epoch wraps after 2³² scopes — counted in
//! [`VcWorkspace::full_resets`] and asserted zero by the unit tests and the
//! engine-equivalence proptests.
//!
//! **Unwinding.** A mark's word index is recorded before the word gains its
//! first bit, and `VcWorkspace::begin_scope` clears the recorded words of
//! the previous scope before any new mark is set, so no mark of an earlier call,
//! finished or unwound part-way, reaches a later one (the same rule as
//! `graph::VertexCompactor`). Slots and flags are epoch-stamped, and every
//! other array is rewritten before it is read.

use graph::{Edge, VertexId};
use std::collections::BinaryHeap;

/// One vertex's stamped degree: `degree` is valid iff `stamp` equals the
/// workspace epoch. Both halves share a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(8))]
struct DegreeSlot {
    stamp: u32,
    degree: u32,
}

/// Reusable vertex-cover scratch: scope stamps, interleaved degree slots,
/// candidate marks and the bucket-queue peeling structure.
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
    /// Stamped degrees, one interleaved slot per vertex.
    slots: Vec<DegreeSlot>,
    /// Peeling candidates in the order their degree reached `t_min`;
    /// `candidates[local] = original`.
    pub(crate) candidates: Vec<VertexId>,
    /// Mark bits: bit `v % 64` of `marks[v / 64]`. Every non-zero word is
    /// listed in `marked_words`.
    marks: Vec<u64>,
    marked_words: Vec<u32>,
    /// Candidate–candidate edges over local ids, in input order.
    pub(crate) candidate_edges: Vec<Edge>,
    /// Bucket queue: local ids sorted by residual degree…
    pub(crate) vert: Vec<VertexId>,
    /// …the position of each local id in `vert`…
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
            slots: Vec::new(),
            candidates: Vec::new(),
            marks: Vec::new(),
            marked_words: Vec::new(),
            candidate_edges: Vec::new(),
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

    /// Opens a new solver scope over vertex ids `0..n`: grows the per-vertex
    /// arrays if needed, clears the previous scope's marks and bumps the
    /// epoch, lazily invalidating every flag and degree slot.
    pub(crate) fn begin_scope(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.slots.resize(n, DegreeSlot::default());
        }
        let words = n.div_ceil(64);
        if self.marks.len() < words {
            self.marks.resize(words, 0);
        }
        // The previous scope's marks, finished or unwound.
        self.clear_marks();
        self.solves += 1;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.iter_mut().for_each(|s| *s = 0);
                self.slots.iter_mut().for_each(|s| s.stamp = 0);
                self.full_resets += 1;
                1
            }
        };
        self.candidates.clear();
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

    /// Counts one more incident edge on `v`, listing `v` as a candidate the
    /// moment its degree reaches `t_min`. Branch-free on the stamp: a stale
    /// slot's degree is masked to zero, and the whole slot is rewritten.
    #[inline]
    pub(crate) fn count_endpoint(&mut self, v: VertexId, t_min: u32) {
        let slot = &mut self.slots[v as usize];
        let live = u32::from(slot.stamp == self.epoch);
        let degree = (slot.degree & live.wrapping_neg()) + 1;
        *slot = DegreeSlot {
            stamp: self.epoch,
            degree,
        };
        if degree == t_min {
            self.candidates.push(v);
        }
    }

    /// The degree of `v` in the current scope (0 for untouched ids).
    #[inline]
    pub(crate) fn degree_of(&self, v: VertexId) -> u32 {
        let slot = self.slots[v as usize];
        if slot.stamp == self.epoch {
            slot.degree
        } else {
            0
        }
    }

    /// Sets the degree of `v` directly (used when degrees come from a CSR
    /// rather than an edge scan).
    #[inline]
    pub(crate) fn set_degree(&mut self, v: VertexId, d: u32) {
        self.slots[v as usize] = DegreeSlot {
            stamp: self.epoch,
            degree: d,
        };
    }

    /// Decrements the degree of `v` *without* touching the bucket queue (for
    /// the heap-based greedy cover). Returns the new value.
    #[inline]
    pub(crate) fn dec_degree(&mut self, v: VertexId) -> u32 {
        let slot = &mut self.slots[v as usize];
        debug_assert!(slot.stamp == self.epoch && slot.degree >= 1);
        slot.degree -= 1;
        slot.degree
    }

    /// Marks `v`, recording its word before the word gains its first bit.
    #[inline]
    pub(crate) fn mark(&mut self, v: VertexId) {
        let w = v >> 6;
        let old = self.marks[w as usize];
        if old == 0 {
            self.marked_words.push(w);
        }
        self.marks[w as usize] = old | (1 << (v & 63));
    }

    /// Returns `true` if `v` is marked.
    #[inline]
    pub(crate) fn is_marked(&self, v: VertexId) -> bool {
        self.marks[(v >> 6) as usize] & (1 << (v & 63)) != 0
    }

    /// Unmarks every marked vertex, in `O(marked words)`.
    pub(crate) fn clear_marks(&mut self) {
        for &w in &self.marked_words {
            self.marks[w as usize] = 0;
        }
        self.marked_words.clear();
    }

    /// Gives the candidates local ids `0..c` in list order: marks each one
    /// and swaps its counted degree for its local id in its slot, parking the
    /// degree in `pos[local]` until [`Self::seed_buckets`]. Returns the
    /// largest candidate degree. `O(c)`.
    pub(crate) fn relabel_candidates(&mut self) -> usize {
        let c = self.candidates.len();
        if self.pos.len() < c {
            self.pos.resize(c, 0);
        }
        let mut max_degree = 0;
        for i in 0..c {
            let v = self.candidates[i];
            self.mark(v);
            let slot = &mut self.slots[v as usize];
            self.pos[i] = slot.degree;
            max_degree = max_degree.max(slot.degree);
            slot.degree = i as u32;
        }
        max_degree as usize
    }

    /// Collects the edges between two candidates, relabeled to local ids,
    /// into `candidate_edges` (input order). One pass over `edges` against
    /// the candidate marks; call after [`Self::relabel_candidates`].
    pub(crate) fn collect_candidate_edges(&mut self, edges: &[Edge]) {
        self.candidate_edges.clear();
        for e in edges {
            if self.is_marked(e.u) && self.is_marked(e.v) {
                self.candidate_edges.push(Edge {
                    u: self.slots[e.u as usize].degree,
                    v: self.slots[e.v as usize].degree,
                });
            }
        }
    }

    /// Builds the bucket queue over local ids `0..c`: moves each candidate's
    /// parked degree into its local slot, counting-sorts the local ids by
    /// degree into `vert`/`pos` and fills the `bin` boundaries for degrees
    /// `0 ..= max_degree + 1`. `O(c + max_degree)`.
    pub(crate) fn seed_buckets(&mut self, max_degree: usize) {
        let c = self.candidates.len();
        for i in 0..c {
            self.set_degree(i as VertexId, self.pos[i]);
        }
        self.bin.clear();
        self.bin.resize(max_degree + 2, 0);
        for slot in &self.slots[..c] {
            self.bin[slot.degree as usize + 1] += 1;
        }
        for d in 0..=max_degree {
            self.bin[d + 1] += self.bin[d];
        }
        // `bin` now holds the start index of every degree block; place the
        // vertices using `bin` itself as the cursor (each `bin[d]` ends up at
        // the start of block `d + 1`), then shift it back by one block.
        self.vert.clear();
        self.vert.resize(c, 0);
        for v in 0..c {
            let d = self.slots[v].degree as usize;
            let slot = self.bin[d];
            self.bin[d] += 1;
            self.vert[slot as usize] = v as VertexId;
            self.pos[v] = slot;
        }
        for d in (1..=max_degree + 1).rev() {
            self.bin[d] = self.bin[d - 1];
        }
        self.bin[0] = 0;
    }

    /// Decrements the residual degree of live local id `w` by one, keeping
    /// the bucket queue sorted with the standard `O(1)` boundary swap.
    #[inline]
    pub(crate) fn decrement(&mut self, w: VertexId) {
        let d = self.slots[w as usize].degree as usize;
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
        self.slots[w as usize].degree = (d - 1) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `degrees[v]` incidences on each `v` with threshold `t_min`.
    fn count(ws: &mut VcWorkspace, degrees: &[u32], t_min: u32) {
        for (v, &d) in degrees.iter().enumerate() {
            for _ in 0..d {
                ws.count_endpoint(v as VertexId, t_min);
            }
        }
    }

    #[test]
    fn scope_bump_invalidates_flags_and_degrees() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(70);
        ws.flag(2);
        ws.mark(65);
        count(&mut ws, &[0, 0, 0, 2], 2);
        assert!(ws.is_flagged(2));
        assert!(ws.is_marked(65));
        assert_eq!(ws.degree_of(3), 2);
        assert_eq!(ws.candidates, vec![3]);
        ws.begin_scope(70);
        assert!(!ws.is_flagged(2));
        assert!(!ws.is_marked(65));
        assert_eq!(ws.degree_of(3), 0);
        assert!(ws.candidates.is_empty());
        assert_eq!(ws.full_resets(), 0);
        assert_eq!(ws.solves(), 2);
    }

    #[test]
    fn candidates_join_once_in_the_order_they_reach_t_min() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(8);
        for v in [5, 1, 5, 1, 5, 7, 1, 7] {
            ws.count_endpoint(v, 2);
        }
        // 5 reaches 2 first, then 1, then 7; 5 and 1 keep counting.
        assert_eq!(ws.candidates, vec![5, 1, 7]);
        assert_eq!(ws.degree_of(5), 3);
        assert_eq!(ws.degree_of(1), 3);
        assert_eq!(ws.degree_of(7), 2);
    }

    #[test]
    fn buckets_sort_by_degree_and_decrement_in_place() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(6);
        // Degrees: v0 = 1 (not a candidate at t_min = 2), v1 = 3, v4 = 2,
        // v5 = 2; candidates in list order 1, 4, 5 get local ids 0, 1, 2.
        count(&mut ws, &[1, 3, 0, 0, 2, 2], 2);
        assert_eq!(ws.candidates, vec![1, 4, 5]);
        let max_degree = ws.relabel_candidates();
        assert_eq!(max_degree, 3);
        assert!(ws.is_marked(1) && ws.is_marked(4) && ws.is_marked(5));
        assert!(!ws.is_marked(0));
        ws.seed_buckets(max_degree);
        // vert is sorted ascending by degree.
        let degs: Vec<u32> = ws.vert.iter().map(|&v| ws.degree_of(v)).collect();
        assert_eq!(degs, vec![2, 2, 3]);
        // Vertices with degree >= 3 are the suffix starting at bin[3].
        assert_eq!(ws.bin[3], 2);
        assert_eq!(ws.vert[2], 0);
        // Decrement local 0 (3 -> 2): stays within the live region, sorted.
        ws.decrement(0);
        assert_eq!(ws.degree_of(0), 2);
        let degs: Vec<u32> = ws.vert.iter().map(|&v| ws.degree_of(v)).collect();
        assert_eq!(degs, vec![2, 2, 2]);
        // pos stays consistent with vert.
        for (i, &v) in ws.vert.iter().enumerate() {
            assert_eq!(ws.pos[v as usize] as usize, i);
        }
    }

    #[test]
    fn candidate_edges_keep_input_order_on_local_ids() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(10);
        let edges = [
            Edge::new(9, 2),
            Edge::new(2, 3),
            Edge::new(9, 4),
            Edge::new(2, 9),
        ];
        for e in &edges {
            ws.count_endpoint(e.u, 2);
            ws.count_endpoint(e.v, 2);
        }
        // 9 reaches 2 on the third edge, 2 on the second: list order 2, 9.
        assert_eq!(ws.candidates, vec![2, 9]);
        ws.relabel_candidates();
        ws.collect_candidate_edges(&edges);
        assert_eq!(
            ws.candidate_edges,
            vec![Edge { u: 0, v: 1 }, Edge { u: 0, v: 1 }]
        );
    }

    #[test]
    fn growing_capacity_keeps_stale_semantics() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(2);
        ws.flag(1);
        ws.mark(1);
        ws.begin_scope(130);
        assert!(!ws.is_flagged(1));
        assert!(!ws.is_flagged(129));
        assert!(!ws.is_marked(1));
        assert!(!ws.is_marked(129));
        assert_eq!(ws.degree_of(129), 0);
    }
}
