//! # Randomized composable coresets for matching and vertex cover
//!
//! This crate is the reproduction of the core contribution of
//! *Randomized Composable Coresets for Matching and Vertex Cover*
//! (Assadi & Khanna, SPAA 2017):
//!
//! > When the edges of a graph are **randomly partitioned** across `k`
//! > machines, (i) any **maximum matching** of a machine's subgraph is an
//! > O(1)-approximation randomized composable coreset of size O(n) for
//! > maximum matching (Theorem 1), and (ii) an iterative **peeling** process
//! > yields an O(log n)-approximation randomized composable coreset of size
//! > O(n log n) for minimum vertex cover (Theorem 2).
//!
//! ## Crate layout
//!
//! The protocol is one algorithm — random partition, per-machine coreset,
//! composition at the coordinator — written once against [`Problem`]:
//!
//! * [`problem`] — the [`Problem`] trait and its two instances,
//!   [`MatchingProblem`] (Theorem 1) and [`VcProblem`] (Theorem 2). Every
//!   driver is generic over it, all in `distsim`: the in-memory
//!   `CoordinatorProtocol::run`, the out-of-core `ArenaProtocol::run`, the
//!   MapReduce simulator and the churn service.
//! * [`matching_coreset`] — the maximum-matching coreset (Theorem 1), the
//!   arbitrary-maximal-matching negative control (Section 1.2), and the
//!   subsampled α-approximation variant (Remark 5.2).
//! * [`vc_coreset`] — the peeling coreset `VC-Coreset` (Theorem 2), the
//!   local-minimum-vertex-cover negative control, and the vertex-grouping
//!   α-approximation variant (Remark 5.8).
//! * [`compose`] — coordinator-side composition: union the coresets and
//!   solve; [`Problem::compose`] calls into it.
//! * [`tree`] — hierarchical composition (Mirrokni–Zadimoghaddam): merge
//!   coresets `fan_in` at a time over `log k` levels through the builder's
//!   merge step ([`reduce_levels`], [`TreeFolder`], [`tree_compose`]).
//! * [`streams`] — per-machine `ChaCha8Rng` streams derived from
//!   `(seed, machine)` — extended to `(seed, level, node)` for tree nodes —
//!   the basis of cross-thread-count determinism.
//! * [`params`] — shared coreset parameters (`n`, `k`, approximation target).
//! * [`cache`] — the fingerprint-keyed per-machine coreset cache the churn
//!   service uses to rebuild only dirty machines' coresets.
//! * [`greedy_match`](mod@greedy_match) — the `GreedyMatch` combining process used by the
//!   analysis of Theorem 1 (Lemma 3.1/3.2), exposed so experiment E10 can
//!   trace its per-step growth.
//! * [`capped`] — size-capped coreset wrappers for the lower-bound
//!   experiments (Theorems 3 and 4).
//! * [`weighted`] — the Crouch–Stubbs weighted-matching extension.
//!
//! ## Quick start
//!
//! One flat protocol round, written directly against [`Problem`]. The
//! `distsim` crate's `CoordinatorProtocol` runs the same round and adds
//! communication accounting, tree composition and fault injection.
//!
//! ```
//! use coresets::{
//!     CoresetParams, MatchingProblem, MaximumMatchingCoreset, PeelingVcCoreset, Problem,
//!     VcProblem,
//! };
//! use graph::gen::er::gnp;
//! use graph::PartitionedGraph;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let g = gnp(500, 0.02, &mut rng);
//! let k = 8;
//! let partition = PartitionedGraph::random(&g, k, &mut rng).unwrap();
//! let (pieces, params) = (partition.views(), CoresetParams::new(g.n(), k));
//!
//! // O(1)-approximate maximum matching from 8 machines' coresets.
//! let matching = MatchingProblem(MaximumMatchingCoreset::new());
//! let answer = matching.compose_all(&matching.build_all(&pieces, &params, 7));
//! assert!(answer.is_valid_for(&g));
//!
//! // O(log n)-approximate vertex cover from the same partition.
//! let vc = VcProblem(PeelingVcCoreset::new());
//! let cover = vc.compose_all(&vc.build_all(&pieces, &params, 7));
//! assert!(cover.covers(&g));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod capped;
pub mod compose;
pub mod greedy_match;
pub mod matching_coreset;
pub mod params;
pub mod problem;
pub mod streams;
pub mod tree;
pub mod vc_coreset;
pub mod weighted;

pub use cache::{CoresetCache, CoresetCacheKey};
pub use capped::{cap_matching_coreset, cap_vc_coreset, CappedMatchingCoreset};
pub use compose::{
    compose_vertex_cover, compose_vertex_cover_refs, solve_composed_matching,
    solve_composed_matching_refs, solve_warm_started_matching_refs,
};
pub use greedy_match::{greedy_match, GreedyMatchTrace};
pub use matching_coreset::{
    AvoidingMaximalMatchingCoreset, MatchingCoresetBuilder, MaximalMatchingCoreset,
    MaximumMatchingCoreset, SubsampledMatchingCoreset,
};
pub use params::CoresetParams;
pub use problem::{MatchingProblem, Problem, VcProblem};
pub use streams::{machine_jobs, machine_rng, node_rng};
pub use tree::{
    merge_matching_coresets, merge_vc_coresets, reduce_levels, tree_compose, TreeFolder, TreePlan,
};
pub use vc_coreset::{
    GroupedVcCoreset, LocalCoverCoreset, PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput,
};
