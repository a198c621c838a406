//! Reusable, epoch-reset scratch state for the vertex-cover engine.
//!
//! The pre-engine peeling allocated per call and per round: it copied the
//! edge set into a working buffer, then every threshold round allocated a
//! fresh `vec![0; n]` degree array and rescanned (and `retain`ed) the whole
//! residual buffer — `O(m · rounds)` plus `O(n · rounds)` on the paper's
//! workloads, where `n` is the *global* vertex count even for sparse pieces.
//! The 2-approximation allocated its own `vec![false; n]` per call.
//!
//! [`VcWorkspace`] makes all of that state reusable, following the same
//! epoch-stamp technique as `matching::BlossomWorkspace`:
//!
//! * **Scope stamps.** One shared per-vertex `u32` stamp array serves as the
//!   "peeled" / "matched" flags of whichever step is running: a vertex is
//!   flagged iff its stamp equals the current scope epoch, and starting a new
//!   scope bumps the epoch — invalidating every flag in `O(1)` with zero
//!   memory traffic.
//! * **Interleaved degree slots.** Each vertex has one 8-byte slot holding
//!   its stamp and its degree side by side (the degree is valid iff the
//!   stamp equals the epoch), so counting an endpoint touches one cache line
//!   and costs `O(1)` — independent of the global `n`.
//! * **Candidates.** The peeling count takes the smallest positive threshold
//!   `t_min` and lists a vertex the moment its degree reaches it. Only those
//!   *candidates* can ever be peeled, since residual degrees only fall. They
//!   get local ids `0..c` in list order; for the candidate–candidate edge
//!   pass each candidate's slot lends its degree field to its local id, and
//!   the degree moves to a dense array over the local ids.
//! * **Marks.** A bitset over vertex ids, one `u64` per 64 ids, marks the
//!   candidates during the edge pass and the peeled vertices during the
//!   residual filter. Every word that gains a bit is recorded first, and the
//!   next scope clears only the recorded words.
//! * **Scan rounds.** A list of the live local ids holds the candidates not
//!   yet peeled. A threshold round is one pass over it: the ids whose
//!   residual degree reaches the threshold leave the list and are flagged,
//!   and then each of their unflagged candidate neighbours loses one degree.
//!   A round therefore costs `O(live candidates + edges removed)`.
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

use graph::{Csr, Edge, VertexId};

/// One vertex's stamped degree: `degree` is valid iff `stamp` equals the
/// workspace epoch. Both halves share a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(8))]
struct DegreeSlot {
    stamp: u32,
    degree: u32,
}

/// Reusable vertex-cover scratch: scope stamps, interleaved degree slots,
/// candidate marks and the live list the peeling rounds scan.
///
/// See the [module docs](self) for the invariants. Obtain one via
/// [`VcWorkspace::new`] or let [`VcEngine`](crate::engine::VcEngine) manage
/// it; the free functions in [`crate::peeling`] and [`crate::approx`] run on
/// a per-thread engine.
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
    /// Residual degree of each candidate, by local id.
    residual_degree: Vec<u32>,
    /// The local ids not yet peeled, in local-id order.
    live: Vec<VertexId>,
    /// The local ids the last round peeled, in local-id order.
    pub(crate) round: Vec<VertexId>,
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
            residual_degree: Vec::new(),
            live: Vec::new(),
            round: Vec::new(),
            solves: 0,
            full_resets: 0,
        }
    }

    /// Number of scopes opened through this workspace (lifetime).
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

    /// Opens a new scope over vertex ids `0..n`: grows the per-vertex arrays
    /// if needed, clears the previous scope's marks and bumps the epoch,
    /// lazily invalidating every flag and degree slot.
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

    /// Flags `v` in the current scope (peeled / matched).
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

    /// Gives the candidates local ids `0..c` in list order: marks each one,
    /// swaps its counted degree for its local id in its slot, moves the
    /// degree to `residual_degree[local]`, and lists every local id as live.
    /// `O(c)`.
    pub(crate) fn relabel_candidates(&mut self) {
        self.residual_degree.clear();
        self.live.clear();
        for i in 0..self.candidates.len() {
            let v = self.candidates[i];
            self.mark(v);
            let slot = &mut self.slots[v as usize];
            self.residual_degree.push(slot.degree);
            slot.degree = i as u32;
            self.live.push(i as VertexId);
        }
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

    /// One peeling round at threshold `t` over `adj`, the CSR of the
    /// candidate edges on local ids. One pass over the live list moves every
    /// id whose residual degree is `>= t` into `round` and flags it; then
    /// each unflagged candidate neighbour of a peeled id loses one degree.
    /// Every degree is read before any falls, so the round is judged against
    /// its round-start degrees. `O(live + edges removed)`.
    pub(crate) fn peel_round(&mut self, adj: &Csr, t: usize) {
        self.round.clear();
        let mut kept = 0;
        for i in 0..self.live.len() {
            let v = self.live[i];
            if self.residual_degree[v as usize] as usize >= t {
                self.round.push(v);
                self.stamp[v as usize] = self.epoch;
            } else {
                self.live[kept] = v;
                kept += 1;
            }
        }
        self.live.truncate(kept);
        for &v in &self.round {
            for &w in adj.neighbors(v) {
                if self.stamp[w as usize] != self.epoch {
                    self.residual_degree[w as usize] -= 1;
                }
            }
        }
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
        assert_eq!(ws.candidates, vec![3]);
        ws.begin_scope(70);
        assert!(!ws.is_flagged(2));
        assert!(!ws.is_marked(65));
        assert!(ws.candidates.is_empty());
        // The old degree of 3 is stale: one new incidence counts as 1.
        count(&mut ws, &[0, 0, 0, 1], 1);
        ws.relabel_candidates();
        assert_eq!(ws.candidates, vec![3]);
        assert_eq!(ws.residual_degree, vec![1]);
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
        ws.relabel_candidates();
        assert_eq!(ws.residual_degree, vec![3, 3, 2]);
        assert_eq!(ws.live, vec![0, 1, 2]);
    }

    #[test]
    fn scan_rounds_peel_at_round_start_degrees() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(6);
        // Triangle 1-4-5 plus pendant 0-1: degrees 1, 3, 0, 0, 2, 2. At
        // t_min = 2 the candidates in list order 1, 4, 5 get local ids
        // 0, 1, 2.
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 4),
            Edge::new(4, 5),
            Edge::new(1, 5),
        ];
        for e in &edges {
            ws.count_endpoint(e.u, 2);
            ws.count_endpoint(e.v, 2);
        }
        assert_eq!(ws.candidates, vec![1, 4, 5]);
        ws.relabel_candidates();
        assert!(ws.is_marked(1) && ws.is_marked(4) && ws.is_marked(5));
        assert!(!ws.is_marked(0));
        ws.collect_candidate_edges(&edges);
        let mut adj = Csr::default();
        adj.rebuild_unsorted(3, &ws.candidate_edges);
        // Threshold 3 peels local 0 (vertex 1) alone; its two candidate
        // neighbours each lose one degree.
        ws.peel_round(&adj, 3);
        assert_eq!(ws.round, vec![0]);
        assert_eq!(ws.live, vec![1, 2]);
        assert_eq!(ws.residual_degree[1..], [1, 1]);
        // Threshold 1 peels both survivors together: each is judged at its
        // round-start degree 1, though peeling the other would drop it to 0.
        ws.peel_round(&adj, 1);
        assert_eq!(ws.round, vec![1, 2]);
        assert!(ws.live.is_empty());
        assert_eq!(ws.residual_degree[1..], [1, 1], "peeled ids lose nothing");
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
        // A grown slot reads as degree 0: one incidence lists it at 1.
        ws.count_endpoint(129, 1);
        assert_eq!(ws.candidates, vec![129]);
    }
}
