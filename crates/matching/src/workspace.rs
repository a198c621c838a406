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
//! * **Dead marks.** A search that finds no augmenting path has grown a
//!   Hungarian tree, which no later search of the same solve can use (see
//!   the [blossom docs](crate::blossom)). Its vertices are marked dead and
//!   later searches skip them. The marks are scoped to **one solve**: they
//!   are cleared with the `mate` fill in `begin_solve`, so a mark left by an
//!   earlier graph on a reused workspace can never hide a live vertex. The
//!   failed tree is read off the search's own queue: the queue is a `Vec`
//!   with a head index, so after a failed search it still holds every outer
//!   vertex the search labelled, and their mates are the inner ones.
//!   Marking costs time proportional to the tree, with no second list.
//!
//! **Epoch-reset invariant:** a stamped entry is meaningful iff its stamp
//! equals the *current* epoch; bumping the epoch therefore invalidates all
//! entries in `O(1)`. The only `O(n)` writes left are one `mate` and one
//! dead-mark fill per *solve* (not per search) and a full stamp clear when a
//! `u32` epoch counter wraps after 2³² searches — counted in
//! [`BlossomWorkspace::full_resets`] and asserted to be zero by the unit
//! tests and the engine-equivalence tests.
//!
//! The workspace is allocated once and reused across solves (the matching
//! engine keeps one per thread), so steady-state solves perform **zero**
//! per-search `O(n)` work and zero per-search allocations: every step of a
//! search, dead marking included, costs time proportional to the vertices
//! and adjacency entries it touches. [`BlossomWorkspace::edge_scans`] counts
//! those adjacency entries.

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
    /// BFS queue of the current search; `queue[..head]` has been scanned.
    /// Never drained, so it keeps the search's whole outer-vertex history.
    queue: Vec<u32>,
    head: usize,
    /// `dead[v]`: `v` lies in the tree of a failed search; reset per solve.
    dead: Vec<bool>,
    /// `mate[v]` = partner of `v` or [`NONE`]; reset once per solve.
    pub(crate) mate: Vec<u32>,
    searches: u64,
    edge_scans: u64,
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
            queue: Vec::new(),
            head: 0,
            dead: Vec::new(),
            mate: Vec::new(),
            searches: 0,
            edge_scans: 0,
            full_resets: 0,
        }
    }

    /// Number of augmenting searches run through this workspace (lifetime).
    #[inline]
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Number of adjacency entries the augmenting searches have read
    /// (lifetime): the solver's "edges scanned" work counter. Entries that
    /// lead to a dead vertex count too, since the search reads them before
    /// skipping them.
    #[inline]
    pub fn edge_scans(&self) -> u64 {
        self.edge_scans
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
    /// arrays if needed, fills `mate` with [`NONE`] and clears the dead marks
    /// (the `O(n)` writes per solve).
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
        self.dead.clear();
        self.dead.resize(n, false);
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
        self.head = 0;
        self.set_used(root);
        self.queue.push(root);
    }

    /// Appends `v` to the search queue.
    #[inline]
    pub(crate) fn enqueue(&mut self, v: u32) {
        self.queue.push(v);
    }

    /// The next unscanned queue entry, if any. Entries stay in the queue.
    #[inline]
    pub(crate) fn dequeue(&mut self) -> Option<u32> {
        let v = *self.queue.get(self.head)?;
        self.head += 1;
        Some(v)
    }

    /// Adds `entries` adjacency reads to [`Self::edge_scans`].
    #[inline]
    pub(crate) fn count_scans(&mut self, entries: usize) {
        self.edge_scans += entries as u64;
    }

    #[inline]
    pub(crate) fn is_dead(&self, v: u32) -> bool {
        self.dead[v as usize]
    }

    /// Marks the tree of the search that just failed as dead: every outer
    /// vertex it queued and their mates, which are its inner vertices (the
    /// root has no mate). `O(tree size)`.
    pub(crate) fn mark_tree_dead(&mut self) {
        for &v in &self.queue {
            self.dead[v as usize] = true;
            let m = self.mate[v as usize];
            if m != NONE {
                self.dead[m as usize] = true;
            }
        }
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
    fn dead_marks_cover_the_queue_history_and_its_mates_until_the_next_solve() {
        let mut ws = BlossomWorkspace::new();
        ws.begin_solve(6);
        (ws.mate[1], ws.mate[2], ws.mate[3], ws.mate[4]) = (2, 1, 4, 3);
        ws.begin_search(0);
        ws.enqueue(2);
        assert_eq!(ws.dequeue(), Some(0));
        assert_eq!(ws.dequeue(), Some(2));
        assert_eq!(ws.dequeue(), None);
        // Scanned entries stay queued: the root, 2 and 2's mate 1 die.
        ws.mark_tree_dead();
        assert!((0..6).all(|v| ws.is_dead(v) == (v <= 2)));
        ws.begin_solve(6);
        assert!((0..6).all(|v| !ws.is_dead(v)), "marks last one solve");
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
