//! Hierarchical (tree) composition of coresets — bounded-memory merging over
//! `log k` levels.
//!
//! The flat coordinator composes all `k` coresets in one union. Mirrokni &
//! Zadimoghaddam (1506.06715) observe that composable coresets compose
//! *associatively*: a coreset of a union of coresets is itself a coreset of
//! the underlying edges. That licenses the production shape this module
//! implements — merge coresets pairwise (fan-in configurable) over
//! `⌈log_f k⌉` levels through the builder traits, so no single merge node
//! ever holds more than `fan_in` coresets' worth of edges:
//!
//! * a vertex-cover node re-coresets the union of its children's residuals
//!   ([`merge_vc_coresets`]);
//! * a matching node calls the builder's
//!   [`MatchingCoresetBuilder::merge`] hook ([`merge_matching_coresets`]),
//!   whose default re-coresets the children's union. The Theorem 1 builder
//!   keeps the maximum matching of the union that a solve warm-started from
//!   the first largest child returns. For two children that is `A` (the
//!   larger) with every alternating path whose end edges both lie in the
//!   other child switched to it, found by one `O(|A| + |B|)` walk
//!   ([`matching::MatchingEngine::merge_pair`]) with no union copy and no
//!   solve. Its edge set depends on the children's edge sets alone.
//!
//! # Determinism
//!
//! The tree's shape is a pure function of `(leaves, fan_in)` ([`TreePlan`]):
//! merge round `level ≥ 1` groups the previous level's items into consecutive
//! runs of `fan_in` (the last group may be smaller; singleton groups pass
//! through unmerged). Each merge node draws its randomness from the private
//! stream [`crate::streams::node_rng`]`(seed, level, node)` — fixed by the
//! node's position, never by thread schedule — and both evaluation orders
//! below compute the *same* plan:
//!
//! * [`reduce_levels`] — level-synchronous, each level's merges fan out on
//!   the work-stealing pool (the in-memory coordinator's tree mode);
//! * [`TreeFolder`] — streaming, merges a group the moment its last child
//!   arrives (the out-of-core runner's shape: one leaf is built per arena
//!   segment load, and at most `fan_in − 1` pending items per level stay
//!   live).
//!
//! Identical `(level, node, group)` calls ⇒ bit-identical outputs across the
//! two shapes, across thread counts, and under scheduler fuzzing — pinned by
//! `tests/determinism.rs` and the E16 in-binary asserts.

use crate::matching_coreset::MatchingCoresetBuilder;
use crate::params::CoresetParams;
use crate::problem::Problem;
use crate::streams::node_rng;
use crate::vc_coreset::{VcCoresetBuilder, VcCoresetOutput};
use graph::{Graph, GraphView};
use rayon::prelude::*;

/// The canonical shape of a composition tree over `leaves` items with the
/// given fan-in: per-level widths plus consecutive grouping. Both the
/// level-synchronous and the streaming evaluator compute their merge labels
/// `(level, node)` from this plan, which is what makes them interchangeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlan {
    fan_in: usize,
    /// `widths[0] = leaves`; `widths[l]` = items after merge round `l`;
    /// the final width is `≤ fan_in` (the roots handed to the flat solve).
    widths: Vec<usize>,
}

impl TreePlan {
    /// Plans a tree over `leaves` items merged `fan_in` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in < 2` (a 1-ary merge would never terminate).
    pub fn new(leaves: usize, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "tree composition requires fan-in >= 2");
        let mut widths = vec![leaves];
        while *widths.last().expect("widths is never empty") > fan_in {
            let next = widths
                .last()
                .expect("widths is never empty")
                .div_ceil(fan_in);
            widths.push(next);
        }
        TreePlan { fan_in, widths }
    }

    /// The configured fan-in.
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Number of leaf items (level-0 width).
    #[inline]
    pub fn leaves(&self) -> usize {
        self.widths[0]
    }

    /// Number of merge rounds (`0` when `leaves ≤ fan_in`).
    #[inline]
    pub fn levels(&self) -> usize {
        self.widths.len() - 1
    }

    /// Number of items alive after merge round `level` (level 0 = leaves).
    #[inline]
    pub fn width(&self, level: usize) -> usize {
        self.widths[level]
    }

    /// Number of children merged into node `node` of round `level ≥ 1`:
    /// `fan_in` except for the last node of a round, which takes what's left.
    pub fn group_size(&self, level: usize, node: usize) -> usize {
        debug_assert!(level >= 1 && level <= self.levels());
        debug_assert!(node < self.widths[level]);
        let children = self.widths[level - 1];
        (children - node * self.fan_in).min(self.fan_in)
    }

    /// Simulates a [`TreeFolder`] that has consumed `pushed` leaves and
    /// returns `(pending lengths per level, emitted nodes per level)` — the
    /// exact counters the folder would hold. This is the shape contract a
    /// checkpoint snapshot must satisfy to be resumable, letting callers
    /// validate an untrusted snapshot before handing it to
    /// [`TreeFolder::resume`].
    pub fn state_after(&self, pushed: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(
            pushed <= self.leaves(),
            "pushed {pushed} exceeds {} leaves",
            self.leaves()
        );
        // Replay the pushes through a folder of unit items.
        let mut folder = TreeFolder::new(self.leaves(), self.fan_in, |_, _, _: Vec<()>| ());
        for _ in 0..pushed {
            folder.push(());
        }
        let pending = folder.pending.iter().map(Vec::len).collect();
        (pending, folder.emitted)
    }
}

/// Reduces `items` through the composition tree level-synchronously: each
/// round's merge groups run concurrently on the work-stealing pool, results
/// collected in node order. Returns the `≤ fan_in` roots.
///
/// `merge(level, node, group)` must be a pure function of its arguments
/// (derive randomness from [`node_rng`]) — that, plus the node-ordered
/// collection, keeps the reduction bit-identical across thread counts and
/// identical to the streaming [`TreeFolder`].
pub fn reduce_levels<T, F>(items: Vec<T>, fan_in: usize, merge: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize, Vec<T>) -> T + Sync,
{
    let plan = TreePlan::new(items.len(), fan_in);
    let mut cur = items;
    for level in 1..=plan.levels() {
        let mut groups: Vec<(usize, Vec<T>)> = Vec::with_capacity(plan.width(level));
        let mut it = cur.into_iter();
        for node in 0..plan.width(level) {
            let group: Vec<T> = it.by_ref().take(plan.group_size(level, node)).collect();
            groups.push((node, group));
        }
        cur = groups
            .into_par_iter()
            .map(|(node, mut group)| {
                if group.len() == 1 {
                    group.pop().expect("singleton group")
                } else {
                    merge(level, node, group)
                }
            })
            .collect();
    }
    cur
}

/// Streaming evaluator of a [`TreePlan`]: push leaves one at a time (in leaf
/// order), and every merge fires the moment its last child arrives — so at
/// most `fan_in − 1` pending items per level are ever alive. This is the
/// shape the out-of-core runner uses: build one leaf coreset per arena
/// segment, push it, drop the segment.
///
/// Produces exactly the same `merge(level, node, group)` calls as
/// [`reduce_levels`] (pinned by this module's tests), just in streaming
/// order on the calling thread.
#[derive(Debug)]
pub struct TreeFolder<T, F: Fn(usize, usize, Vec<T>) -> T> {
    plan: TreePlan,
    /// `pending[l]` = items of level `l` whose parent group is incomplete.
    pending: Vec<Vec<T>>,
    /// `emitted[l]` = merge nodes already produced by round `l` (index 0 unused).
    emitted: Vec<usize>,
    pushed: usize,
    merge: F,
}

impl<T, F: Fn(usize, usize, Vec<T>) -> T> TreeFolder<T, F> {
    /// Creates a folder for `leaves` items with the given fan-in.
    pub fn new(leaves: usize, fan_in: usize, merge: F) -> Self {
        let plan = TreePlan::new(leaves, fan_in);
        let levels = plan.levels();
        TreeFolder {
            pending: (0..=levels).map(|_| Vec::new()).collect(),
            emitted: (0..=levels).map(|_| 0).collect(),
            pushed: 0,
            plan,
            merge,
        }
    }

    /// The plan this folder evaluates.
    #[inline]
    pub fn plan(&self) -> &TreePlan {
        &self.plan
    }

    /// Number of leaves pushed so far.
    #[inline]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// The folder's live state: `pending()[l]` holds level-`l` items whose
    /// parent group is incomplete (level 0 = unmerged leaves). Together with
    /// [`TreeFolder::pushed`] this is a complete snapshot — checkpointing
    /// serializes these items and [`TreeFolder::resume`] rebuilds the folder.
    #[inline]
    pub fn pending(&self) -> &[Vec<T>] {
        &self.pending
    }

    /// Rebuilds a folder that has already consumed `pushed` leaves from a
    /// snapshot of its pending items (as captured from
    /// [`TreeFolder::pending`]). The emitted-node counters are recomputed
    /// from the plan, so `(pushed, pending)` fully determines the state and
    /// resuming then pushing the remaining leaves is bit-identical to an
    /// uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shape disagrees with
    /// [`TreePlan::state_after`]`(pushed)` — callers restoring untrusted
    /// snapshots must validate the lengths first.
    pub fn resume(
        leaves: usize,
        fan_in: usize,
        merge: F,
        pushed: usize,
        pending: Vec<Vec<T>>,
    ) -> Self {
        let plan = TreePlan::new(leaves, fan_in);
        let (lens, emitted) = plan.state_after(pushed);
        assert_eq!(
            pending.len(),
            lens.len(),
            "snapshot has {} levels, plan expects {}",
            pending.len(),
            lens.len()
        );
        for (level, (have, want)) in pending.iter().zip(&lens).enumerate() {
            assert_eq!(
                have.len(),
                *want,
                "snapshot level {level} holds {} items, plan expects {want}",
                have.len()
            );
        }
        TreeFolder {
            plan,
            pending,
            emitted,
            pushed,
            merge,
        }
    }

    /// Pushes the next leaf (leaves must arrive in leaf order) and fires
    /// every merge it completes, cascading upward.
    ///
    /// # Panics
    ///
    /// Panics if more than `leaves` items are pushed.
    pub fn push(&mut self, item: T) {
        assert!(
            self.pushed < self.plan.leaves(),
            "pushed more than {} leaves",
            self.plan.leaves()
        );
        self.pushed += 1;
        self.pending[0].push(item);
        for level in 1..=self.plan.levels() {
            loop {
                let node = self.emitted[level];
                if node >= self.plan.width(level) {
                    break;
                }
                let size = self.plan.group_size(level, node);
                if self.pending[level - 1].len() < size {
                    break;
                }
                let group: Vec<T> = self.pending[level - 1].drain(..size).collect();
                self.emitted[level] = node + 1;
                let merged = if size == 1 {
                    group.into_iter().next().expect("singleton group")
                } else {
                    (self.merge)(level, node, group)
                };
                self.pending[level].push(merged);
            }
        }
    }

    /// Returns the `≤ fan_in` roots.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `leaves` items were pushed.
    pub fn finish(mut self) -> Vec<T> {
        assert_eq!(
            self.pushed,
            self.plan.leaves(),
            "finish called before every leaf was pushed"
        );
        self.pending.pop().expect("pending is never empty")
    }
}

/// Merges a group of matching coresets into one through the builder's
/// [`MatchingCoresetBuilder::merge`] hook, on the node's private
/// `(seed, level, node)` stream.
pub fn merge_matching_coresets<B: MatchingCoresetBuilder + ?Sized>(
    n: usize,
    params: &CoresetParams,
    builder: &B,
    seed: u64,
    level: usize,
    node: usize,
    group: &[Graph],
) -> Graph {
    let mut rng = node_rng(seed, level, node);
    builder.merge(n, group, params, node, &mut rng)
}

/// Re-coresets a group of vertex-cover coresets into one: the residual
/// slices are concatenated and re-coreset through the builder with the
/// node's private stream; the group's fixed vertices are carried through
/// (in group order) ahead of the vertices the re-coreset newly fixes.
pub fn merge_vc_coresets<B: VcCoresetBuilder + ?Sized>(
    n: usize,
    params: &CoresetParams,
    builder: &B,
    seed: u64,
    level: usize,
    node: usize,
    group: Vec<VcCoresetOutput>,
) -> VcCoresetOutput {
    let total: usize = group.iter().map(|o| o.residual.m()).sum();
    let fixed_total: usize = group.iter().map(|o| o.fixed_vertices.len()).sum();
    let mut union = Vec::with_capacity(total); // xtask: allow(hot-path-alloc)
    for o in &group {
        union.extend_from_slice(o.residual.edges());
    }
    let mut rng = node_rng(seed, level, node);
    let sub = builder.build(GraphView::new(n, &union), params, node, &mut rng);
    let mut fixed = Vec::with_capacity(fixed_total + sub.fixed_vertices.len()); // xtask: allow(hot-path-alloc)
    for o in group {
        fixed.extend(o.fixed_vertices);
    }
    fixed.extend(sub.fixed_vertices);
    VcCoresetOutput {
        fixed_vertices: fixed,
        residual: sub.residual,
    }
}

/// Tree-composes machine summaries and composes the roots: merge/re-coreset
/// over `⌈log_f k⌉` levels ([`reduce_levels`], merges on the work-stealing
/// pool), then one flat [`Problem::compose`] over the `≤ fan_in` roots. With
/// `k ≤ fan_in` this is exactly the flat composition.
pub fn tree_compose<P: Problem>(
    problem: &P,
    n: usize,
    summaries: Vec<P::Summary>,
    params: &CoresetParams,
    seed: u64,
    fan_in: usize,
) -> P::Answer {
    let roots = reduce_levels(summaries, fan_in, &|level, node, group| {
        problem.merge(n, params, seed, level, node, group)
    });
    problem.compose_all(&roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::solve_composed_matching;
    use crate::matching_coreset::MaximumMatchingCoreset;
    use crate::problem::{MatchingProblem, VcProblem};
    use crate::streams::machine_rng;
    use crate::vc_coreset::PeelingVcCoreset;
    use graph::gen::er::gnp;
    use graph::PartitionedGraph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn plan_shapes_are_canonical() {
        let plan = TreePlan::new(5, 2);
        assert_eq!(plan.levels(), 2); // 5 -> 3 -> 2
        assert_eq!(plan.width(1), 3);
        assert_eq!(plan.group_size(1, 0), 2);
        assert_eq!(plan.group_size(1, 1), 2);
        assert_eq!(plan.group_size(1, 2), 1);
        assert_eq!(plan.width(2), 2);

        let flat = TreePlan::new(3, 4);
        assert_eq!(flat.levels(), 0, "k <= fan_in needs no merging");

        let empty = TreePlan::new(0, 2);
        assert_eq!(empty.levels(), 0);
        assert_eq!(empty.leaves(), 0);

        let wide = TreePlan::new(64, 2);
        assert_eq!(wide.levels(), 5); // 64,32,16,8,4,2
        assert_eq!(wide.width(5), 2);
    }

    #[test]
    #[should_panic(expected = "fan-in >= 2")]
    fn unary_fan_in_rejected() {
        let _ = TreePlan::new(4, 1);
    }

    /// The two evaluators must issue identical `(level, node, group)` calls.
    #[test]
    fn folder_and_level_reduce_agree_for_all_small_shapes() {
        // A synthetic "merge" that encodes its full call into the result, so
        // any divergence in labels or grouping shows up in the output.
        let merge = |level: usize, node: usize, group: Vec<String>| {
            format!("m{level}.{node}({})", group.join(","))
        };
        for leaves in 0..20usize {
            for fan_in in 2..5usize {
                let items: Vec<String> = (0..leaves).map(|i| format!("L{i}")).collect();
                let by_levels = reduce_levels(items.clone(), fan_in, &merge);
                let mut folder = TreeFolder::new(leaves, fan_in, merge);
                for item in items {
                    folder.push(item);
                }
                let by_folder = folder.finish();
                assert_eq!(by_levels, by_folder, "leaves={leaves}, fan_in={fan_in}");
                assert!(by_folder.len() <= fan_in.max(leaves.min(fan_in)));
            }
        }
    }

    /// Snapshotting after any prefix of pushes and resuming must reproduce
    /// the uninterrupted folder's output exactly — the contract the
    /// out-of-core checkpoint/resume path is built on.
    #[test]
    fn resume_from_any_push_point_matches_uninterrupted_run() {
        let merge = |level: usize, node: usize, group: Vec<String>| {
            format!("m{level}.{node}({})", group.join(","))
        };
        for leaves in 1..14usize {
            for fan_in in 2..4usize {
                let items: Vec<String> = (0..leaves).map(|i| format!("L{i}")).collect();
                let mut reference = TreeFolder::new(leaves, fan_in, merge);
                for item in items.clone() {
                    reference.push(item);
                }
                let expected = reference.finish();

                for kill_after in 0..=leaves {
                    // Run to the kill point, snapshot, throw the folder away.
                    let mut first = TreeFolder::new(leaves, fan_in, merge);
                    for item in items.iter().take(kill_after) {
                        first.push(item.clone());
                    }
                    assert_eq!(first.pushed(), kill_after);
                    let snapshot: Vec<Vec<String>> = first.pending().to_vec();
                    let (lens, _) = first.plan().state_after(kill_after);
                    for (level, p) in snapshot.iter().enumerate() {
                        assert_eq!(p.len(), lens[level]);
                    }
                    drop(first);

                    // Resume and push the remainder.
                    let mut second =
                        TreeFolder::resume(leaves, fan_in, merge, kill_after, snapshot);
                    for item in items.iter().skip(kill_after) {
                        second.push(item.clone());
                    }
                    assert_eq!(
                        second.finish(),
                        expected,
                        "leaves={leaves} fan_in={fan_in} kill_after={kill_after}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "holds")]
    fn resume_rejects_malformed_snapshot() {
        let merge = |_: usize, _: usize, group: Vec<String>| group.join(",");
        // 3 leaves pushed of 5: level 0 should hold 1 pending item, not 2.
        let bad = vec![vec!["a".to_string(), "b".to_string()], vec![], vec![]];
        let _ = TreeFolder::resume(5, 2, merge, 3, bad);
    }

    fn protocol_coresets(
        seed: u64,
        n: usize,
        p: f64,
        k: usize,
    ) -> (Graph, Vec<Graph>, CoresetParams) {
        let g = gnp(n, p, &mut rng(seed));
        let part = PartitionedGraph::random(&g, k, &mut rng(seed + 1)).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                MaximumMatchingCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
            })
            .collect();
        (g, coresets, params)
    }

    #[test]
    fn tree_matching_is_valid_and_at_least_best_single_coreset() {
        for seed in 0..4 {
            let (g, coresets, params) = protocol_coresets(seed, 400, 0.02, 9);
            let best = coresets.iter().map(Graph::m).max().unwrap();
            let m = tree_compose(
                &MatchingProblem(MaximumMatchingCoreset::new()),
                g.n(),
                coresets,
                &params,
                seed,
                2,
            );
            assert!(m.is_valid_for(&g));
            assert!(
                m.len() >= best,
                "tree answer {} below best single coreset {best}",
                m.len()
            );
        }
    }

    #[test]
    fn tree_with_k_at_most_fan_in_equals_flat_composition() {
        let (_, coresets, params) = protocol_coresets(11, 300, 0.03, 3);
        let flat = solve_composed_matching(&coresets);
        let tree = tree_compose(
            &MatchingProblem(MaximumMatchingCoreset::new()),
            300,
            coresets,
            &params,
            11,
            4,
        );
        assert_eq!(flat.edges(), tree.edges());
    }

    #[test]
    fn tree_vertex_cover_is_feasible() {
        for seed in 0..3 {
            let g = gnp(700, 0.012, &mut rng(seed + 50));
            let k = 8;
            let part = PartitionedGraph::random(&g, k, &mut rng(seed + 60)).unwrap();
            let params = CoresetParams::new(g.n(), k);
            let outputs: Vec<VcCoresetOutput> = part
                .views()
                .iter()
                .enumerate()
                .map(|(i, piece)| {
                    PeelingVcCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
                })
                .collect();
            let cover = tree_compose(
                &VcProblem(PeelingVcCoreset::new()),
                g.n(),
                outputs,
                &params,
                seed,
                2,
            );
            assert!(cover.covers(&g), "seed {seed}");
        }
    }
}
