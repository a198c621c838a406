//! Matching algorithms used throughout the coreset reproduction.
//!
//! The paper's matching coreset is "any maximum matching of `G^(i)`"
//! (Theorem 1), its negative control is "an arbitrary maximal matching", and
//! its analysis relies on the greedy combining process `GreedyMatch`.
//! This crate supplies every matching primitive those constructions need:
//!
//! * [`Matching`] — a validated set of vertex-disjoint edges.
//! * [`greedy`] — maximal matchings under arbitrary, random or adversarial
//!   edge orderings.
//! * [`blossom`] — Edmonds' blossom algorithm for maximum matching in general
//!   graphs.
//! * [`maximum`] — the maximum-matching front-end: every function runs the
//!   engine's one solve path.
//! * [`engine`] — the solver hot path behind [`maximum`]: vertex compaction,
//!   forced degree-one edges, then blossom on one sorted CSR of the core, the
//!   fan-in-2 merge walk, and per-thread buffer reuse.
//! * [`workspace`] — the epoch-reset [`BlossomWorkspace`] that removes the
//!   per-search `O(n)` clears and allocations from the blossom algorithm.
//! * [`weighted`] — the weighted answer type and greedy weighted matching,
//!   the baseline of the paper's weighted extension (whose Crouch–Stubbs
//!   reduction is `coresets::weighted`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blossom;
pub mod engine;
mod forced;
pub mod greedy;
pub mod matching;
pub mod maximum;
mod merge_walk;
pub mod weighted;
pub mod workspace;

pub use blossom::{blossom_maximum_matching, blossom_maximum_matching_with};
pub use engine::MatchingEngine;
pub use greedy::{maximal_matching, maximal_matching_by_key, maximal_matching_shuffled};
pub use matching::Matching;
pub use maximum::{maximum_matching, merge_matching_pair, MaximumMatchingAlgorithm};
pub use weighted::{greedy_weighted_matching, WeightedMatching};
pub use workspace::BlossomWorkspace;
