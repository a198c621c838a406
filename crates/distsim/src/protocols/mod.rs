//! Baseline protocols the paper compares against.
//!
//! * [`filtering`] — the Lattanzi–Moseley–Suri–Vassilvitskii *filtering*
//!   MapReduce baseline used for the round-complexity comparison.

pub mod filtering;

pub use filtering::{filtering_matching, filtering_vertex_cover, FilteringOutcome};
