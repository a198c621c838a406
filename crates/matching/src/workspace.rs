//! Reusable, epoch-reset search state for the blossom algorithm.
//!
//! The classic blossom implementation clears three `O(n)` arrays (`used`,
//! `parent`, `base`) before **every** augmenting search, allocates a fresh
//! `vec![false; n]` inside every LCA computation, and re-bases a blossom by
//! scanning all `n` vertices per contraction. On the paper's workloads —
//! sparse pieces of a huge vertex set, and coreset unions whose overlapping
//! matchings produce tens of thousands of contractions — those `O(n)` steps
//! dominate the whole solve.
//!
//! [`BlossomWorkspace`] makes every per-search and per-contraction step cost
//! time proportional to the state it actually writes:
//!
//! * **Epoch stamps.** Every per-vertex entry (`used`, `parent`, the blossom
//!   `base` links) carries the epoch of the search that wrote it. A new
//!   search bumps the search epoch; entries stamped with an older epoch read
//!   as their default (`used = false`, `parent = NONE`, `base(v) = v`)
//!   without any memory traffic. LCA-visited and blossom-membership marks
//!   live in one shared array under a separate mark epoch, bumped per LCA
//!   call / per contraction.
//! * **Union-find bases.** `base` is a forest of parent pointers with path
//!   compression (`find_base`) instead of a flat array:
//!   contracting a blossom unions the O(cycle length) bases on the blossom
//!   path into the new base, rather than rewriting (or even scanning) the
//!   other vertices' entries. The classic flat-array semantics — every
//!   member of a contracted blossom answers the new base — are preserved
//!   because member chains run through their old base.
//!
//! **Epoch-reset invariant:** a stamped entry is meaningful iff its stamp
//! equals the *current* epoch; bumping the epoch therefore invalidates all
//! entries in `O(1)`. The only `O(n)` writes left are one `mate`-array fill
//! per *solve* (not per search) and a full stamp clear when a `u32` epoch
//! counter wraps after 2³² searches — counted in
//! [`BlossomWorkspace::full_resets`] and asserted to be zero by the unit
//! tests and the engine-equivalence tests.
//!
//! The workspace is allocated once and reused across solves (the matching
//! engine keeps one per thread), so steady-state solves perform **zero**
//! per-search `O(n)` work and zero per-search allocations.

use std::collections::VecDeque;

pub(crate) const NONE: u32 = u32::MAX;

/// Reusable blossom search state with epoch-based lazy resets and union-find
/// blossom bases.
///
/// See the [module docs](self) for the invariants. Obtain one via
/// [`BlossomWorkspace::new`] and pass it to
/// [`blossom_on_csr`](crate::blossom::blossom_on_csr) /
/// [`blossom_maximum_matching_with`](crate::blossom::blossom_maximum_matching_with),
/// or let [`MatchingEngine`](crate::engine::MatchingEngine) manage it.
#[derive(Debug, Clone)]
pub struct BlossomWorkspace {
    search_epoch: u32,
    mark_epoch: u32,
    /// `used` stamp per vertex (stamp == search_epoch ⇒ used).
    used: Vec<u32>,
    parent: Vec<u32>,
    parent_stamp: Vec<u32>,
    /// Union-find parent pointers of the blossom-base forest; an unstamped
    /// entry is its own root.
    base: Vec<u32>,
    base_stamp: Vec<u32>,
    /// Shared LCA-visited / blossom-membership stamps (== mark_epoch ⇒ set).
    mark: Vec<u32>,
    /// Bases joining the blossom being contracted (collected by the
    /// mark-path walk, applied in ascending order).
    pub(crate) candidates: Vec<u32>,
    /// BFS queue of the current search.
    pub(crate) queue: VecDeque<u32>,
    /// `mate[v]` = partner of `v` or [`NONE`]; reset once per solve.
    pub(crate) mate: Vec<u32>,
    searches: u64,
    full_resets: u64,
}

impl Default for BlossomWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl BlossomWorkspace {
    /// Creates an empty workspace; arrays grow to the largest graph solved.
    pub fn new() -> Self {
        BlossomWorkspace {
            // Stamps start at 0 and epochs at 1, so freshly grown (zeroed)
            // array tails always read as "stale".
            search_epoch: 1,
            mark_epoch: 1,
            used: Vec::new(),
            parent: Vec::new(),
            parent_stamp: Vec::new(),
            base: Vec::new(),
            base_stamp: Vec::new(),
            mark: Vec::new(),
            candidates: Vec::new(),
            queue: VecDeque::new(),
            mate: Vec::new(),
            searches: 0,
            full_resets: 0,
        }
    }

    /// Number of augmenting searches run through this workspace (lifetime).
    #[inline]
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Number of `O(n)` stamp clears ever performed. Stays 0 in practice: a
    /// full reset only happens when a `u32` epoch counter wraps around, i.e.
    /// after 2³² searches (or as many LCA/contraction marks). The unit tests
    /// and the engine-equivalence tests assert this counter, pinning the
    /// "zero per-search `O(n)` resets" claim.
    #[inline]
    pub fn full_resets(&self) -> u64 {
        self.full_resets
    }

    /// Prepares the workspace for a solve on an `n`-vertex graph: grows the
    /// arrays if needed and fills `mate` with [`NONE`] (the one `O(n)` write
    /// per solve).
    pub(crate) fn begin_solve(&mut self, n: usize) {
        if self.used.len() < n {
            self.used.resize(n, 0);
            self.parent.resize(n, 0);
            self.parent_stamp.resize(n, 0);
            self.base.resize(n, 0);
            self.base_stamp.resize(n, 0);
            self.mark.resize(n, 0);
        }
        self.mate.clear();
        self.mate.resize(n, NONE);
    }

    /// Starts a new augmenting search rooted at `root`: bumps the search
    /// epoch (lazily invalidating `used`/`parent`/`base`), clears the queue,
    /// and enqueues the root.
    pub(crate) fn begin_search(&mut self, root: u32) {
        self.searches += 1;
        self.search_epoch = match self.search_epoch.checked_add(1) {
            Some(e) => e,
            None => {
                for s in self
                    .used
                    .iter_mut()
                    .chain(self.parent_stamp.iter_mut())
                    .chain(self.base_stamp.iter_mut())
                {
                    *s = 0;
                }
                self.full_resets += 1;
                1
            }
        };
        self.queue.clear();
        self.set_used(root);
        self.queue.push_back(root);
    }

    /// Starts a new LCA-visited / blossom-membership scope by bumping the
    /// mark epoch (lazily clearing all marks).
    pub(crate) fn bump_mark(&mut self) {
        self.mark_epoch = match self.mark_epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.iter_mut().for_each(|s| *s = 0);
                self.full_resets += 1;
                1
            }
        };
    }

    #[inline]
    pub(crate) fn is_used(&self, v: u32) -> bool {
        self.used[v as usize] == self.search_epoch
    }

    #[inline]
    pub(crate) fn set_used(&mut self, v: u32) {
        self.used[v as usize] = self.search_epoch;
    }

    #[inline]
    pub(crate) fn parent_of(&self, v: u32) -> u32 {
        if self.parent_stamp[v as usize] == self.search_epoch {
            self.parent[v as usize]
        } else {
            NONE
        }
    }

    #[inline]
    pub(crate) fn set_parent(&mut self, v: u32, p: u32) {
        self.parent[v as usize] = p;
        self.parent_stamp[v as usize] = self.search_epoch;
    }

    /// One stamped hop of the base forest: `v`'s parent pointer, or `v`
    /// itself when unstamped (every vertex is its own base by default).
    #[inline]
    fn base_hop(&self, v: u32) -> u32 {
        if self.base_stamp[v as usize] == self.search_epoch {
            self.base[v as usize]
        } else {
            v
        }
    }

    /// The base of `v`'s blossom: the root of `v`'s union-find chain, with
    /// path compression.
    #[inline]
    pub(crate) fn find_base(&mut self, v: u32) -> u32 {
        let mut root = v;
        loop {
            let p = self.base_hop(root);
            if p == root {
                break;
            }
            root = p;
        }
        let mut x = v;
        while x != root {
            let p = self.base_hop(x);
            self.base[x as usize] = root;
            self.base_stamp[x as usize] = self.search_epoch;
            x = p;
        }
        root
    }

    /// Unions `b` (a base) into the new base `target`.
    #[inline]
    pub(crate) fn link_base(&mut self, b: u32, target: u32) {
        self.base[b as usize] = target;
        self.base_stamp[b as usize] = self.search_epoch;
    }

    #[inline]
    pub(crate) fn is_marked(&self, v: u32) -> bool {
        self.mark[v as usize] == self.mark_epoch
    }

    #[inline]
    pub(crate) fn set_mark(&mut self, v: u32) {
        self.mark[v as usize] = self.mark_epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_read_stale_after_epoch_bump() {
        let mut ws = BlossomWorkspace::new();
        ws.begin_solve(4);
        ws.begin_search(0);
        ws.set_parent(2, 1);
        ws.link_base(3, 1);
        assert!(ws.is_used(0));
        assert_eq!(ws.parent_of(2), 1);
        assert_eq!(ws.find_base(3), 1);
        assert_eq!(ws.find_base(2), 2, "unset base defaults to the vertex");
        // New search: everything reads as default without any clearing.
        ws.begin_search(1);
        assert!(!ws.is_used(0));
        assert!(ws.is_used(1));
        assert_eq!(ws.parent_of(2), NONE);
        assert_eq!(ws.find_base(3), 3);
        assert_eq!(ws.full_resets(), 0);
        assert_eq!(ws.searches(), 2);
    }

    #[test]
    fn find_base_follows_chains_and_compresses() {
        let mut ws = BlossomWorkspace::new();
        ws.begin_solve(5);
        ws.begin_search(0);
        // Chain 4 -> 3 -> 2 -> 0 (two nested contractions).
        ws.link_base(4, 3);
        ws.link_base(3, 2);
        ws.link_base(2, 0);
        assert_eq!(ws.find_base(4), 0);
        // Compressed: one hop now.
        assert_eq!(ws.base_hop(4), 0);
        assert_eq!(ws.base_hop(3), 0);
    }

    #[test]
    fn marks_are_scoped_by_bump() {
        let mut ws = BlossomWorkspace::new();
        ws.begin_solve(3);
        ws.begin_search(0);
        ws.bump_mark();
        ws.set_mark(1);
        assert!(ws.is_marked(1));
        ws.bump_mark();
        assert!(!ws.is_marked(1));
        assert_eq!(ws.full_resets(), 0);
    }

    #[test]
    fn growing_capacity_keeps_stale_semantics() {
        let mut ws = BlossomWorkspace::new();
        ws.begin_solve(2);
        ws.begin_search(0);
        // Grow mid-life: the new tail is zero-stamped, i.e. stale.
        ws.begin_solve(10);
        assert!(!ws.is_used(9));
        assert_eq!(ws.find_base(9), 9);
        assert_eq!(ws.parent_of(9), NONE);
        assert_eq!(ws.mate[9], NONE);
    }
}
