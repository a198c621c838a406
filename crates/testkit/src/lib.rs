//! Test oracles for the coreset reproduction.
//!
//! Exhaustive solvers for tiny graphs and frozen reference implementations
//! that the shipped crates are differentially tested against. None of it is
//! fast, and none of it belongs in a shipped crate: every workspace crate
//! names `testkit` only under `[dev-dependencies]` (`cargo xtask lint`
//! enforces this), and `testkit` depends on `graph` alone, so the
//! dev-dependency graph has no cycle.
//!
//! * [`brute_force_maximum_matching_size`] — exact maximum matching size by
//!   exhaustive search over edge subsets.
//! * [`two_coloring`] and [`as_bipartite`] — bipartiteness checks, and the
//!   explicit bipartition that lets Hopcroft–Karp check the matching engine
//!   on bipartite inputs.
//! * [`warm_only_bipartite_matching`] — the matching a warm-started,
//!   augment-only solve returns on a bipartite graph: the oracle of the
//!   fan-in-2 matching merge.
//! * [`random_forest`] — random forests, on which the degree-one rule is
//!   exact.
//! * [`brute_force_maximum_weight`] — exact maximum-weight matching value.
//! * [`peel_with_thresholds_reference`] — the pre-engine Parnas–Ron peeling
//!   loop, the baseline `vertexcover::VcEngine` must reproduce round by round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod matching;
pub mod peeling;
pub mod weighted;

pub use coloring::{as_bipartite, two_coloring, two_coloring_with_csr};
pub use matching::{
    brute_force_maximum_matching_size, random_forest, warm_only_bipartite_matching,
};
pub use peeling::{peel_with_thresholds_reference, ReferencePeeling};
pub use weighted::brute_force_maximum_weight;
