//! Incremental (edge-churn) maximal matching and vertex cover for the
//! serving side of the coreset protocol stack.
//!
//! The churn service (`distsim::GraphService`) applies every op of a batch
//! here too, and reports these incremental sizes beside the protocol answers
//! it refreshes after each batch:
//!
//! * [`DynamicMatcher`] — a **maximal** matching maintained under
//!   `insert(u, v)` / `delete(u, v)` by the greedy rule: an inserted edge is
//!   matched when both endpoints are free, and deleting a matched edge
//!   rematches each freed endpoint to its smallest free neighbour.
//! * [`DynamicCover`] — the matched-endpoint **2-approximate vertex cover**
//!   of that maximal matching.
//!
//! Both structures are strictly deterministic: their state is a pure function
//! of the operation sequence (no randomness, no iteration over hashed
//! containers), so replaying a churn trace reproduces answers bit-for-bit —
//! the same contract the protocol layer's determinism suite pins.
//!
//! **Invariants** (pinned by the proptests in `tests/dynamic_vs_batch.rs`):
//! after every operation the matching is a valid matching of the current
//! graph, and it is *maximal*, hence at least half the maximum size, and its
//! matched endpoints cover every edge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod matcher;

pub use cover::DynamicCover;
pub use matcher::DynamicMatcher;
