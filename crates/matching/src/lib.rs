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
//! * [`hopcroft_karp`](mod@hopcroft_karp) — maximum matching in bipartite graphs in
//!   `O(m sqrt(n))`.
//! * [`blossom`] — Edmonds' blossom algorithm for maximum matching in general
//!   graphs.
//! * [`maximum`] — a front-end that picks Hopcroft–Karp when the graph is
//!   bipartite and Blossom otherwise.
//! * [`engine`] — the solver hot path behind [`maximum`]: vertex compaction,
//!   one CSR shared by the bipartiteness check and the solver, warm starts,
//!   the coordinator's forced degree-one edges, the fan-in-2 merge walk, and
//!   per-thread buffer reuse.
//! * [`workspace`] — the epoch-reset [`BlossomWorkspace`] that removes the
//!   per-search `O(n)` clears and allocations from the blossom algorithm.
//! * [`weighted`] — greedy weighted matching and the Crouch–Stubbs
//!   weight-class reduction used by the paper's weighted extension.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blossom;
pub mod engine;
mod forced;
pub mod greedy;
pub mod hopcroft_karp;
pub mod matching;
pub mod maximum;
mod merge_walk;
pub mod weighted;
pub mod workspace;

pub use blossom::{blossom_maximum_matching, blossom_maximum_matching_with};
pub use engine::MatchingEngine;
pub use greedy::{maximal_matching, maximal_matching_by_key, maximal_matching_shuffled};
pub use hopcroft_karp::hopcroft_karp;
pub use matching::Matching;
pub use maximum::{
    maximum_matching, maximum_matching_warm, merge_matching_pair, MaximumMatchingAlgorithm,
};
pub use weighted::{crouch_stubbs_matching, greedy_weighted_matching, WeightedMatching};
pub use workspace::BlossomWorkspace;
