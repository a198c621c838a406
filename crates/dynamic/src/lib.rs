//! Incremental (edge-churn) solvers for the serving side of the coreset
//! protocol stack.
//!
//! The batch engines ([`matching::MatchingEngine`], [`vertexcover::VcEngine`])
//! solve a frozen graph from scratch. This crate maintains answers under
//! each edge insert or delete instead. The churn service
//! (`distsim::GraphService`) applies every op of a batch here too, and
//! reports these incremental sizes beside the protocol answers it refreshes
//! after each batch:
//!
//! * [`DynamicMatcher`] — a **maximal** matching maintained under
//!   `insert(u, v)` / `delete(u, v)`, with deterministic greedy rematching
//!   plus length-3 augmenting-path ("surrogate") repair bounded by a degree
//!   threshold `D ≈ √(2m)/ε` — the bounded-repair idea of the
//!   Neiman–Solomon / Onak–Rubinfeld line of dynamic matching algorithms.
//!   Repairs the bound forces the matcher to skip accrue *dirt*; when the
//!   dirty region exceeds its budget the matcher falls back to a full
//!   [`matching::MatchingEngine`] re-solve (reusing the engine's buffers),
//!   which restores a maximum matching and resets the dirt.
//! * [`DynamicCover`] — the matched-endpoint **2-approximate vertex cover**
//!   of that maximal matching, plus an engine-backed refinement query that
//!   reuses a private [`vertexcover::VcEngine`] (epoch-stamped
//!   `VcWorkspace`) across calls.
//!
//! Both structures are strictly deterministic: their state is a pure function
//! of the operation sequence (no randomness, no iteration over hashed
//! containers), so replaying a churn trace reproduces answers bit-for-bit —
//! the same contract the protocol layer's determinism suite pins.
//!
//! **Invariants** (pinned by the proptests in `tests/dynamic_vs_batch.rs`):
//! after every operation the matching is a valid matching of the current
//! graph, it is *maximal* (hence at least half the maximum size, and its
//! matched endpoints cover every edge), and a [`DynamicMatcher::resolve_max`]
//! makes it maximum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod matcher;

pub use cover::DynamicCover;
pub use matcher::{DynStats, DynamicMatcher};
