//! Graph substrate for the randomized-composable-coresets reproduction.
//!
//! This crate provides every graph-shaped building block required by the
//! paper *Randomized Composable Coresets for Matching and Vertex Cover*
//! (Assadi & Khanna, SPAA 2017):
//!
//! * [`Graph`] — a simple undirected graph stored as an edge list with
//!   adjacency and CSR views ([`Adjacency`], [`Csr`]).
//! * [`BipartiteGraph`] — a bipartite graph with explicit left/right sides,
//!   used by the hard instances and by Hopcroft–Karp.
//! * [`WeightedGraph`] — edge-weighted graphs for the Crouch–Stubbs weighted
//!   extension.
//! * [`GraphView`] / [`GraphRef`] — borrowed, zero-copy edge-slice views and
//!   the representation-agnostic trait every solver in the workspace accepts.
//! * [`VertexCompactor`] — epoch-stamped relabeling of a graph onto its
//!   non-isolated vertices, the front door of the matching engine's solver
//!   hot path (sparse pieces over a huge vertex set).
//! * [`partition`] — the *random k-partitioning* of the edge set that defines
//!   the model of the paper, plus adversarial partitionings used as negative
//!   controls. [`PartitionedGraph`] stores the partition as a single
//!   machine-sorted edge arena whose pieces are zero-copy views.
//! * [`churn`] — the mutable partition for edge-churn serving: churn-stable
//!   per-edge hash placement ([`edge_machine`]), one sorted piece per machine
//!   edited in place by inserts and deletes, and piece fingerprints that make
//!   clean-piece coreset reuse provably sound.
//! * [`arena_file`] — a versioned binary on-disk format for partitioned edge
//!   arenas plus [`SegmentLoader`], which streams one machine segment at a
//!   time so 10⁷–10⁸-edge protocol runs never hold the whole arena resident.
//! * [`metrics`] — process-wide counters (edges materialized into owned
//!   per-machine graphs; resident-edge high-water accounting for the
//!   out-of-core path) backing the hierarchical-composition experiment E16
//!   and the churn-serving experiment E18.
//! * [`gen`] — graph generators: Erdős–Rényi, random bipartite, planted
//!   matchings, stars, power-law (Chung–Lu), and the paper's hard
//!   distributions `D_Matching` (Section 4.1/5.1) and `D_VC` (Section 4.2/5.3).
//! * [`stats`] — degree statistics used by the peeling analysis.
//!
//! All randomness flows through explicit [`rand::Rng`] arguments so that every
//! experiment in the workspace is reproducible from a single seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena_file;
pub mod bipartite;
pub mod churn;
pub mod compact;
pub mod csr;
pub mod edge;
pub mod error;
pub mod gen;
pub mod graph;
pub mod metrics;
pub mod partition;
pub mod stats;
pub mod view;
pub mod weighted;

pub use arena_file::{write_arena_file, ArenaFile, SegmentLoader};
pub use bipartite::BipartiteGraph;
pub use churn::{edge_machine, fingerprint_edges, mix64, ChurnOp, ChurnPartition};
pub use compact::VertexCompactor;
pub use csr::Csr;
pub use edge::{Edge, VertexId, WeightedEdge};
pub use error::GraphError;
pub use graph::{Adjacency, Graph};
pub use partition::{PartitionStrategy, PartitionedGraph};
pub use view::{views_of, GraphRef, GraphView};
pub use weighted::WeightedGraph;
