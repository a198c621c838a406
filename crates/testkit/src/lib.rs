//! Test oracles for the coreset reproduction.
//!
//! Exact solvers and frozen reference implementations that the shipped
//! crates are tested against. None of it is fast, and none of it belongs in
//! a shipped crate: every workspace crate names `testkit` only under
//! `[dev-dependencies]` (`cargo xtask lint` enforces this), and `testkit`
//! depends on `graph` alone, so the dev-dependency graph has no cycle. That
//! is also why the oracles return plain types (`Vec<VertexId>`, `usize`,
//! `f64`): callers wrap covers in `vertexcover::VertexCover::from_vertices`.
//!
//! * [`brute_force_maximum_matching_size`] — exact maximum matching size by
//!   exhaustive search over edge subsets.
//! * [`hopcroft_karp()`] / [`hopcroft_karp_size`] — exact maximum matching of
//!   an explicit `BipartiteGraph`, the engine's oracle on bipartite inputs.
//! * [`two_coloring`] and [`as_bipartite`] — bipartiteness checks, and the
//!   explicit bipartition that lets Hopcroft–Karp check the matching engine
//!   on bipartite inputs.
//! * [`warm_only_bipartite_matching`] — the matching a warm-started,
//!   augment-only solve returns on a bipartite graph: the oracle of the
//!   fan-in-2 matching merge.
//! * [`random_forest`] — random forests, on which the degree-one rule is
//!   exact.
//! * [`brute_force_maximum_weight`] — exact maximum-weight matching value.
//! * [`exact_cover_branch_and_bound`] and [`koenig_cover`] — exact minimum
//!   vertex covers: branch and bound for small general graphs, König's
//!   theorem over Hopcroft–Karp for bipartite ones; and
//!   [`brute_force_minimum_cover_size`], the subset search that checks them.
//! * [`lp_lower_bound`] — the vertex-cover LP optimum, a lower bound on the
//!   minimum cover.
//! * [`peel_with_thresholds_reference`] — the pre-engine Parnas–Ron peeling
//!   loop, the baseline `vertexcover::VcEngine` must reproduce round by
//!   round, and [`parnas_ron_schedule`], the halving schedule tests peel at.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod exact;
pub mod hopcroft_karp;
pub mod lp;
pub mod matching;
pub mod peeling;
pub mod weighted;

pub use coloring::{as_bipartite, two_coloring, two_coloring_with_csr};
pub use exact::{brute_force_minimum_cover_size, exact_cover_branch_and_bound, koenig_cover};
pub use hopcroft_karp::{hopcroft_karp, hopcroft_karp_size};
pub use lp::lp_lower_bound;
pub use matching::{
    brute_force_maximum_matching_size, random_forest, warm_only_bipartite_matching,
};
pub use peeling::{parnas_ron_schedule, peel_with_thresholds_reference, ReferencePeeling};
pub use weighted::brute_force_maximum_weight;
