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
//! * [`brute_force_maximum_weight`] — exact maximum-weight matching value.
//! * [`peel_with_thresholds_reference`] — the pre-engine Parnas–Ron peeling
//!   loop, the baseline `vertexcover::VcEngine` must reproduce round by round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matching;
pub mod peeling;
pub mod weighted;

pub use matching::brute_force_maximum_matching_size;
pub use peeling::{peel_with_thresholds_reference, ReferencePeeling};
pub use weighted::brute_force_maximum_weight;
