//! MapReduce simulation (Karloff et al. model, as used by the paper).
//!
//! The paper's MapReduce application (Section 1.1) uses `k = √n` machines,
//! each with `Õ(n√n)` memory, and finishes in **two rounds**:
//!
//! * **Round 1** — every machine randomly re-shuffles the edges it holds
//!   across the `k` machines; afterwards the edge set is randomly
//!   `k`-partitioned.
//! * **Round 2** — every machine sends its randomized composable coreset to a
//!   designated machine `M`, which holds the union (`k · Õ(n) = Õ(n√n)`
//!   edges, within its memory) and computes the final answer.
//!
//! If the input is already randomly distributed, round 1 can be skipped and
//! the algorithm takes a single round. The simulator tracks, per round, the
//! maximum number of words resident on any machine so that the memory budget
//! claim can be checked experimentally (experiment E8). The computation
//! itself is one flat [`CoordinatorProtocol::random`] run: the driver's
//! random partition is round 1's shuffle, and its per-machine builds and
//! coordinator composition are round 2, so a MapReduce answer is
//! bit-identical to the coordinator model's at every thread count. The round
//! statistics are read off the run's piece sizes and message words.

use crate::coordinator::CoordinatorProtocol;
use crate::error::ProtocolError;
use crate::faults::{FaultPlan, RetryPolicy};
use coresets::matching_coreset::MatchingCoresetBuilder;
use coresets::vc_coreset::VcCoresetBuilder;
use coresets::{MatchingProblem, Problem, VcProblem};
use graph::Graph;
use matching::matching::Matching;
use serde::{Deserialize, Serialize};
use vertexcover::VertexCover;

/// Static configuration of a MapReduce deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapReduceConfig {
    /// Number of machines.
    pub k: usize,
    /// Memory budget per machine, in words (vertex ids).
    pub memory_words: u64,
    /// Whether the input is already randomly partitioned across the machines
    /// (in which case the shuffle round is skipped, as in the paper's
    /// discussion following the two-round algorithm).
    pub input_already_random: bool,
}

impl MapReduceConfig {
    /// The paper's parameterisation for an `n`-vertex, `m`-edge graph:
    /// `k = ceil(sqrt(n))` machines with `c · n·sqrt(n) · log2(n)` words of
    /// memory each.
    pub fn paper_defaults(n: usize) -> Self {
        let k = (n as f64).sqrt().ceil() as usize;
        let log_n = (n.max(2) as f64).log2();
        let memory_words = (2.0 * n as f64 * (n as f64).sqrt() * log_n).ceil() as u64;
        MapReduceConfig {
            k: k.max(1),
            memory_words,
            input_already_random: false,
        }
    }
}

/// Per-round memory statistics of a MapReduce run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Human-readable description of what the round did.
    pub description: String,
    /// The maximum number of words resident on any machine during the round.
    pub max_words_per_machine: u64,
}

/// The outcome of a MapReduce computation.
#[derive(Debug, Clone)]
pub struct MapReduceOutcome<T> {
    /// The final answer.
    pub answer: T,
    /// One entry per MapReduce round that was executed.
    pub rounds: Vec<RoundStats>,
    /// Whether every round respected the per-machine memory budget.
    pub within_memory_budget: bool,
}

impl<T> MapReduceOutcome<T> {
    /// Number of rounds used.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }
}

/// Simulator for the paper's two-round coreset-based MapReduce algorithms.
#[derive(Debug, Clone, Copy)]
pub struct MapReduceSimulator {
    /// Deployment parameters.
    pub config: MapReduceConfig,
}

impl MapReduceSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: MapReduceConfig) -> Self {
        MapReduceSimulator { config }
    }

    /// Runs the two-round (or one-round) coreset algorithm for maximum
    /// matching.
    pub fn run_matching<B: MatchingCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<MapReduceOutcome<Matching>, ProtocolError> {
        self.run(g, &MatchingProblem(builder), seed)
    }

    /// Runs the two-round (or one-round) coreset algorithm for minimum vertex
    /// cover.
    pub fn run_vertex_cover<B: VcCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<MapReduceOutcome<VertexCover>, ProtocolError> {
        self.run(g, &VcProblem(builder), seed)
    }

    /// Runs the two-round (or one-round) coreset algorithm for `problem` as
    /// one fault-free flat coordinator run.
    fn run<P: Problem>(
        &self,
        g: &Graph,
        problem: &P,
        seed: u64,
    ) -> Result<MapReduceOutcome<P::Answer>, ProtocolError> {
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        let run = CoordinatorProtocol::random(self.config.k)
            .run(g, problem, seed, &plan, &retry)?
            .run;
        // Round 1 (shuffle) leaves every machine holding its random piece:
        // the largest piece is the round's memory high-water mark.
        let max_piece_words = run
            .piece_sizes
            .iter()
            .map(|&m| 2 * m as u64)
            .max()
            .unwrap_or(0);
        let mut rounds = Vec::new();
        if !self.config.input_already_random {
            rounds.push(RoundStats {
                description: "shuffle: random re-partitioning of the edges".into(),
                max_words_per_machine: max_piece_words,
            });
        }
        // Round 2: the designated machine receives every coreset.
        let central_words = run.communication.total_words();
        rounds.push(RoundStats {
            description: "coresets: build locally, union and solve on the designated machine"
                .into(),
            max_words_per_machine: central_words.max(max_piece_words),
        });

        let within_memory_budget = rounds
            .iter()
            .all(|r| r.max_words_per_machine <= self.config.memory_words);
        Ok(MapReduceOutcome {
            answer: run.answer,
            rounds,
            within_memory_budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coresets::matching_coreset::MaximumMatchingCoreset;
    use coresets::vc_coreset::PeelingVcCoreset;
    use graph::gen::er::gnm;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn paper_defaults_use_sqrt_n_machines() {
        let cfg = MapReduceConfig::paper_defaults(10_000);
        assert_eq!(cfg.k, 100);
        assert!(cfg.memory_words >= 10_000 * 100);
    }

    #[test]
    fn two_rounds_for_matching_and_within_budget() {
        // Dense-ish graph: m ~ n^1.5 like the paper's regime.
        let n = 900;
        let m = 20_000;
        let g = gnm(n, m, &mut rng(1));
        let cfg = MapReduceConfig::paper_defaults(n);
        let sim = MapReduceSimulator::new(cfg);
        let out = sim
            .run_matching(&g, &MaximumMatchingCoreset::new(), 3)
            .unwrap();
        assert_eq!(out.round_count(), 2);
        assert!(out.within_memory_budget, "rounds: {:?}", out.rounds);
        assert!(out.answer.is_valid_for(&g));
        let opt = maximum_matching(&g).len();
        assert!(9 * out.answer.len() >= opt);
    }

    #[test]
    fn one_round_when_input_is_already_random() {
        let n = 400;
        let g = gnm(n, 6_000, &mut rng(2));
        let mut cfg = MapReduceConfig::paper_defaults(n);
        cfg.input_already_random = true;
        let out = MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 5)
            .unwrap();
        assert_eq!(out.round_count(), 1);
        assert!(out.answer.is_valid_for(&g));
    }

    #[test]
    fn vertex_cover_two_rounds_and_feasible() {
        let n = 900;
        let g = gnm(n, 15_000, &mut rng(3));
        let cfg = MapReduceConfig::paper_defaults(n);
        let out = MapReduceSimulator::new(cfg)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 9)
            .unwrap();
        assert_eq!(out.round_count(), 2);
        assert!(out.within_memory_budget);
        assert!(out.answer.covers(&g));
    }

    #[test]
    fn tight_memory_budget_is_detected() {
        let n = 300;
        let g = gnm(n, 8_000, &mut rng(4));
        let cfg = MapReduceConfig {
            k: 4,
            memory_words: 10,
            input_already_random: false,
        };
        let out = MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 1)
            .unwrap();
        assert!(!out.within_memory_budget);
    }

    #[test]
    fn zero_machines_rejected() {
        let g = gnm(20, 30, &mut rng(5));
        let cfg = MapReduceConfig {
            k: 0,
            memory_words: 1000,
            input_already_random: false,
        };
        assert!(MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 0)
            .is_err());
    }
}
