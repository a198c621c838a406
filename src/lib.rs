//! # randomized-coresets
//!
//! Umbrella crate for the reproduction of *Randomized Composable Coresets for
//! Matching and Vertex Cover* (Assadi & Khanna, SPAA 2017).
//!
//! The implementation lives in five focused crates which this facade
//! re-exports:
//!
//! * [`graph`] — graph types, generators (including the paper's hard
//!   distributions), random and adversarial k-partitioning, and the
//!   checksummed on-disk edge arena.
//! * [`matching`] — maximal / maximum / weighted matching: one
//!   maximum-matching engine (forced degree-one edges, then Edmonds'
//!   blossom) and the fan-in-2 merge walk.
//! * [`vertexcover`] — Theorem 2's two vertex-cover steps: threshold peeling
//!   and the matching-based 2-approximation.
//! * [`coresets`] — the paper's contribution: randomized composable coresets
//!   for matching and vertex cover, together with the communication-efficient
//!   protocol variants (Remarks 5.2 and 5.8) and weighted extensions.
//! * [`distsim`] — the coordinator-model and MapReduce simulators with
//!   communication/round/memory accounting, the filtering baseline, the
//!   fault runtime and the churn-serving driver.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `EXPERIMENTS.md`
//! for the full experiment suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use coresets;
pub use distsim;
pub use graph;
pub use matching;
pub use vertexcover;
