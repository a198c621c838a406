//! Distributed-computation simulators for the coreset reproduction.
//!
//! The paper evaluates its coresets in two computation models, neither of
//! which requires real hardware to measure the quantities the paper talks
//! about (approximation ratio, communication volume, number of rounds, and
//! per-machine memory). This crate simulates both models faithfully:
//!
//! * [`coordinator`] — the **simultaneous communication / coordinator model**:
//!   the input is randomly partitioned across `k` machines, every machine
//!   sends one message (its coreset) to the coordinator, and the coordinator
//!   outputs the answer. Communication is accounted in 64-bit words
//!   ([`comm`]).
//! * [`mapreduce`] — the **MapReduce model** of Karloff et al. as used by the
//!   paper (Section 1.1, "MapReduce Framework"): machines with `Õ(n√n)`
//!   memory, computation proceeds in rounds, and the paper's algorithm needs
//!   two rounds (one if the input is already randomly distributed).
//! * [`protocols`] — the *filtering* baseline of Lattanzi et al. (the prior
//!   state of the art the paper compares rounds against).
//! * [`service`] — the edge-churn serving driver: batched updates through a
//!   [`graph::ChurnPartition`], dirty-piece-only coreset rebuilds through
//!   one fingerprint-keyed cache after every batch, checked against the
//!   coordinator driver itself ([`naive_full_round`]; experiment E18), with
//!   a [`dynamic::DynamicCover`]'s incremental sizes reported beside each
//!   batch's refreshed answers.
//! * [`faults`], [`checkpoint`], [`error`] — the fault-tolerant runtime:
//!   one deterministic failure decision per `(fault_seed, machine, attempt)`
//!   (a machine's message does not arrive), retry by replaying per-machine
//!   RNG streams, composition over the survivors, and checksummed
//!   checkpoint/resume for out-of-core runs.
//!
//! ## Quick start
//!
//! ```
//! use coresets::{MaximumMatchingCoreset, PeelingVcCoreset};
//! use distsim::CoordinatorProtocol;
//! use graph::gen::er::gnp;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let g = gnp(500, 0.02, &mut ChaCha8Rng::seed_from_u64(7));
//! let protocol = CoordinatorProtocol::random(8);
//!
//! // O(1)-approximate maximum matching from 8 machines' coresets.
//! let run = protocol
//!     .run_matching(&g, &MaximumMatchingCoreset::new(), 7)
//!     .unwrap();
//! assert!(run.answer.is_valid_for(&g));
//! assert_eq!(run.communication.message_count(), 8);
//!
//! // O(log n)-approximate vertex cover from the same model.
//! let run = protocol
//!     .run_vertex_cover(&g, &PeelingVcCoreset::new(), 7)
//!     .unwrap();
//! assert!(run.answer.covers(&g));
//! assert_eq!(run.piece_sizes.iter().sum::<usize>(), g.m());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod comm;
pub mod coordinator;
pub mod error;
pub mod faults;
pub mod mapreduce;
pub mod protocols;
pub mod service;

pub use checkpoint::{ArenaCheckpoint, CheckpointItem, CheckpointKey};
pub use comm::{CommunicationCost, CostModel};
pub use coordinator::{
    ArenaProtocol, ComposeMode, CoordinatorProtocol, FaultRunOptions, FaultyRun, SimultaneousRun,
};
pub use error::ProtocolError;
pub use faults::{FaultPlan, FaultReport, RetryPolicy};
pub use mapreduce::{MapReduceConfig, MapReduceOutcome, MapReduceSimulator};
pub use service::{naive_full_round, BatchOutcome, GraphService, GraphServiceConfig};
