//! Vertex cover for the coreset reproduction: the two steps of the paper's
//! Theorem 2 protocol.
//!
//! The vertex-cover coreset (`VC-Coreset`) peels each machine's piece at
//! thresholds `n / (k · 2^{j+1})` and outputs the peeled vertices as a
//! *fixed* set plus the sparse residual subgraph; the coordinator covers the
//! union of the residuals with the matching-based 2-approximation. This crate
//! supplies:
//!
//! * [`VertexCover`] — a validated vertex set with coverage checks.
//! * [`peeling`] — the iterative peeling process at any threshold schedule.
//! * [`approx`] — the matching-based 2-approximation, on one graph or on the
//!   unmaterialized union of many.
//! * [`engine`] / [`workspace`] — the reusable [`VcEngine`] both run on:
//!   candidate-only peeling with one scan of the live candidates per round,
//!   and epoch-stamped scratch, mirroring `matching::MatchingEngine` on the
//!   matching side. The retired experiment E14 measured it against the
//!   pre-engine path (`BENCH_vc.json`).
//!
//! Exact covers, König covers and the LP lower bound are test oracles and
//! live in the dev-only `testkit` crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx;
pub mod cover;
pub mod engine;
pub mod peeling;
pub mod workspace;

pub use approx::{two_approx_cover, two_approx_cover_concat};
pub use cover::VertexCover;
pub use engine::VcEngine;
pub use peeling::PeelingOutcome;
pub use workspace::VcWorkspace;
