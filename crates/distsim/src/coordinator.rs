//! The coordinator (simultaneous communication) model and its two protocol
//! drivers.
//!
//! A run proceeds exactly as in the paper's model (Section 2,
//! "Communication Complexity"): the edge set is **randomly partitioned**
//! across `k` machines, every machine simultaneously sends one message — its
//! coreset, whose size is charged to the communication cost — and the
//! coordinator combines the messages into the answer.
//!
//! That shape is one algorithm for both problems, so each driver is written
//! once, generic over [`coresets::Problem`]:
//!
//! * [`CoordinatorProtocol::run`] — in memory: the machines fan out on the
//!   vendored rayon work-stealing pool, and tree composition merges each
//!   level's nodes in parallel ([`coresets::reduce_levels`]).
//! * [`ArenaProtocol::run`] — out of core: pieces stream one segment at a
//!   time from an on-disk [`ArenaFile`] into a streaming [`TreeFolder`],
//!   whose state can be checkpointed after every leaf and resumed.
//!
//! Neither can replace the other: one keeps level-parallel merges, the other
//! bounded memory. Both run under a [`FaultPlan`] (retry by replaying the
//! machine's RNG stream, then composition over the survivors);
//! `run_matching` / `run_vertex_cover` are the fault-free special case. The
//! in-memory driver also carries the other batch rounds: the MapReduce
//! simulator ([`crate::mapreduce`]) is one flat run, and the churn service's
//! oracle ([`crate::naive_full_round`]) runs it on an edge-hash partition.
//!
//! **Determinism.** All randomness is fixed by position, never by schedule:
//! the partition is drawn from the run seed, machine `i` builds on
//! `machine_rng(seed, i)`, tree node `(level, node)` merges on
//! `node_rng(seed, level, node)`, fault decisions are pure functions of
//! `(fault_seed, machine, attempt)`, and messages are collected in machine
//! order. Answers, coreset sizes and communication are therefore
//! bit-identical for any thread count or schedule (`tests/determinism.rs`),
//! and an arena written from the in-memory partition reproduces the
//! in-memory answer bit for bit.

use crate::checkpoint::{
    load_checkpoint, save_checkpoint, ArenaCheckpoint, CheckpointItem, CheckpointKey,
};
use crate::comm::{CommunicationCost, CostModel};
use crate::error::ProtocolError;
use crate::faults::{run_machine_with_faults, FaultPlan, FaultReport, MachineOutcome, RetryPolicy};
use coresets::matching_coreset::MatchingCoresetBuilder;
use coresets::streams::machine_rng;
use coresets::tree::{tree_compose, TreeFolder};
use coresets::vc_coreset::VcCoresetBuilder;
use coresets::{CoresetParams, MatchingProblem, Problem, VcProblem};
use graph::arena_file::{ArenaFile, SegmentLoader};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{metrics, Graph, GraphError};
use matching::matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use vertexcover::VertexCover;

/// How the coordinator combines the `k` received coresets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComposeMode {
    /// One flat union of all `k` coresets, solved in a single step (the
    /// paper's literal model).
    #[default]
    Flat,
    /// Hierarchical composition: merge coresets `fan_in` at a time over
    /// `⌈log_f k⌉` levels through the builder's merge step
    /// (Mirrokni–Zadimoghaddam associativity), then solve the
    /// `≤ fan_in` roots flat. Bounded per-node memory; bit-identical across
    /// thread counts (see [`coresets::tree`]).
    Tree {
        /// Coresets merged per tree node; a driver rejects values below 2
        /// with [`ProtocolError::InvalidFanIn`].
        fan_in: usize,
    },
}

impl ComposeMode {
    /// The fan-in this mode composes `k` summaries with. Flat composition is
    /// the degenerate tree whose root set is all `k` summaries: a fan-in wide
    /// enough that no merge round fires.
    fn fan_in(self, k: usize) -> Result<usize, ProtocolError> {
        match self {
            ComposeMode::Flat => Ok(k.max(2)),
            ComposeMode::Tree { fan_in } if fan_in >= 2 => Ok(fan_in),
            ComposeMode::Tree { fan_in } => Err(ProtocolError::InvalidFanIn { fan_in }),
        }
    }
}

/// Composition needs a survivor: losing all `k` machines is an error.
fn check_survivors(report: &FaultReport, k: usize) -> Result<(), ProtocolError> {
    if report.lost_machines.len() == k {
        return Err(ProtocolError::NoSurvivors);
    }
    Ok(())
}

/// `|answer| / |fault_free|`, with an empty fault-free answer counting as 1.
fn achieved_ratio<P: Problem>(answer: &P::Answer, fault_free: &P::Answer) -> f64 {
    match P::answer_len(fault_free) {
        0 => 1.0,
        b => P::answer_len(answer) as f64 / b as f64,
    }
}

/// Configuration of one simultaneous-protocol run.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorProtocol {
    /// Number of machines `k`.
    pub k: usize,
    /// How the edges are split across machines (the paper's model is
    /// [`PartitionStrategy::Random`]; the adversarial strategy is provided for
    /// the negative-control experiments).
    pub strategy: PartitionStrategy,
    /// How the coordinator composes the received coresets (flat union by
    /// default).
    pub compose: ComposeMode,
}

impl CoordinatorProtocol {
    /// The paper's model: random partitioning across `k` machines.
    pub fn random(k: usize) -> Self {
        CoordinatorProtocol {
            k,
            strategy: PartitionStrategy::Random,
            compose: ComposeMode::Flat,
        }
    }

    /// Adversarial (sorted-chunk) partitioning across `k` machines.
    pub fn adversarial(k: usize) -> Self {
        CoordinatorProtocol {
            k,
            strategy: PartitionStrategy::Adversarial,
            compose: ComposeMode::Flat,
        }
    }

    /// Random partitioning with hierarchical (tree) composition.
    pub fn tree(k: usize, fan_in: usize) -> Self {
        CoordinatorProtocol::random(k).with_compose(ComposeMode::Tree { fan_in })
    }

    /// Returns this protocol with the given composition mode.
    pub fn with_compose(mut self, compose: ComposeMode) -> Self {
        self.compose = compose;
        self
    }

    /// Runs the protocol for `problem` on `g` under a fault plan: partitions
    /// `g` with the protocol's strategy (drawing from
    /// `ChaCha8Rng::seed_from_u64(seed)`), then runs every machine on its
    /// piece. Machines build on the work-stealing pool inside
    /// [`run_machine_with_faults`], retrying by replay of
    /// `machine_rng(seed, i)`, so a fully recovered run is bit-identical to
    /// the fault-free one; a machine that exhausts the budget contributes
    /// [`Problem::placeholder`] to the composition.
    pub fn run<P: Problem>(
        &self,
        g: &Graph,
        problem: &P,
        seed: u64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<FaultyRun<P::Answer>, ProtocolError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // One edge permutation into the arena; each machine computes on a
        // zero-copy view of its slice.
        let partition = PartitionedGraph::new(g, self.k, self.strategy, &mut rng)?;
        self.run_on(&partition, problem, seed, plan, retry)
    }

    /// [`CoordinatorProtocol::run`] on a given partition: one machine per
    /// piece, composed with the protocol's [`ComposeMode`]. The partition's
    /// own `k` and `n` are used; the protocol's strategy is not consulted.
    pub(crate) fn run_on<P: Problem>(
        &self,
        partition: &PartitionedGraph,
        problem: &P,
        seed: u64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<FaultyRun<P::Answer>, ProtocolError> {
        let k = partition.k();
        let fan_in = self.compose.fan_in(k)?;
        let (n, views) = (partition.n(), partition.views());
        let params = CoresetParams::new(n, k);
        let model = CostModel::for_n(n);
        let build = |i: usize| problem.build(views[i], &params, i, &mut machine_rng(seed, i));
        let outcomes: Vec<MachineOutcome<P::Summary>> = (0..k)
            .into_par_iter()
            .map(|i| run_machine_with_faults(plan, retry, i, || Ok(build(i))))
            .collect();

        let mut report = FaultReport::new(plan.fault_seed);
        let mut communication = CommunicationCost::default();
        let mut summaries = Vec::with_capacity(k);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            report.absorb(i, &outcome);
            summaries.push(match outcome.summary {
                Some(summary) => {
                    let (edges, vertices) = P::message(&summary);
                    communication.record_message(&model, edges, vertices);
                    summary
                }
                None => P::placeholder(n),
            });
        }
        check_survivors(&report, k)?;

        let compose = |s: Vec<P::Summary>| tree_compose(problem, n, s, &params, seed, fan_in);
        // The degraded baseline is cheap to recover in memory: lost machines
        // are deterministic replays, so rebuild them and compose everything.
        let fault_free = report.degraded.then(|| {
            let mut full = summaries.clone();
            for &i in &report.lost_machines {
                full[i] = build(i);
            }
            compose(full)
        });
        let answer = compose(summaries);
        if let Some(clean) = fault_free {
            report.achieved_vs_fault_free = Some(achieved_ratio::<P>(&answer, &clean));
        }
        Ok(FaultyRun {
            run: SimultaneousRun {
                answer,
                communication,
                piece_sizes: partition.piece_sizes(),
            },
            faults: report,
        })
    }

    /// Runs the matching protocol: each machine sends the coreset built by
    /// `builder`, the coordinator extracts a maximum matching of the union.
    pub fn run_matching<B: MatchingCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<Matching>, ProtocolError> {
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        Ok(self
            .run(g, &MatchingProblem(builder), seed, &plan, &retry)?
            .run)
    }

    /// Runs the vertex-cover protocol: each machine sends the coreset built by
    /// `builder` (fixed vertices + residual edges), the coordinator unions the
    /// residuals, 2-approximates a cover of the union, and adds the fixed
    /// vertices.
    pub fn run_vertex_cover<B: VcCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<VertexCover>, ProtocolError> {
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        Ok(self.run(g, &VcProblem(builder), seed, &plan, &retry)?.run)
    }
}

/// Out-of-core protocol runner: the partition lives in an on-disk
/// [`ArenaFile`] and machine pieces stream one at a time through a
/// [`SegmentLoader`], so peak memory is one segment plus the live coresets of
/// `log k` tree levels, never the full arena (experiment E16's in-binary
/// bound). Leaves are built sequentially; the solves inside each merge and
/// the root composition still ride the work-stealing pool.
#[derive(Debug, Clone, Copy)]
pub struct ArenaProtocol {
    /// How the coordinator composes the received coresets.
    pub compose: ComposeMode,
}

impl ArenaProtocol {
    /// Hierarchical composition with the given fan-in (the mode E16 measures).
    pub fn tree(fan_in: usize) -> Self {
        ArenaProtocol {
            compose: ComposeMode::Tree { fan_in },
        }
    }

    /// Flat composition (all coresets resident at once; the arena is still
    /// streamed one segment at a time).
    pub fn flat() -> Self {
        ArenaProtocol {
            compose: ComposeMode::Flat,
        }
    }

    /// Runs the protocol for `problem` from an on-disk arena: stream each
    /// machine's segment, build its summary, drop the segment, push the
    /// summary into the streaming tree, and compose the roots. `k` and `n`
    /// come from the arena header. Every live summary, merge union and the
    /// root's [`Problem::ROOT_SCRATCH_PASSES`] are charged to
    /// [`graph::metrics::resident_edges`] beside the loader's segments.
    ///
    /// * Each attempt of machine `i` that the plan does not fail
    ///   ([`FaultPlan::fails`]) reads segment `i` and builds on it inside
    ///   [`run_machine_with_faults`], so a genuine read error, such as a CRC
    ///   mismatch, is retried by replay like an injected failure, on the
    ///   same budget and backoff schedule.
    /// * A machine that exhausts the budget is lost, and the roots compose
    ///   over the survivors; under an *unarmed* plan it can only have failed
    ///   on a genuine read error, which surfaces as
    ///   [`ProtocolError::Segment`] instead.
    /// * With `opts.checkpoint` set, the folder's state is persisted after
    ///   every leaf, a rerun resumes after the last one, and the file is
    ///   deleted on completion. Resuming is bit-identical to an uninterrupted
    ///   run (`tests/faults.rs` kills at every leaf).
    pub fn run<P: Problem>(
        &self,
        arena: &ArenaFile,
        problem: &P,
        seed: u64,
        opts: &FaultRunOptions,
    ) -> Result<FaultyRun<P::Answer>, ProtocolError>
    where
        P::Summary: CheckpointItem,
    {
        let (n, k) = (arena.n(), arena.k());
        let fan_in = self.compose.fan_in(k)?;
        let params = CoresetParams::new(n, k);
        let model = CostModel::for_n(n);
        let key = CheckpointKey::of_run::<P::Summary>(arena, seed, fan_in, &opts.plan, &opts.retry);
        let edges = |s: &P::Summary| P::message(s).0;
        let merge = |level: usize, node: usize, group: Vec<P::Summary>| {
            let union_edges: usize = group.iter().map(edges).sum();
            metrics::record_resident_edges_acquired(union_edges);
            let merged = problem.merge(n, &params, seed, level, node, group);
            metrics::record_resident_edges_released(union_edges);
            metrics::record_resident_edges_acquired(edges(&merged));
            metrics::record_resident_edges_released(union_edges);
            merged
        };

        let resumed = opts
            .checkpoint
            .as_deref()
            .and_then(|p| load_checkpoint::<P::Summary>(p, &key));
        let (mut communication, mut report, mut folder, start) = match resumed {
            Some(ck) => {
                metrics::record_resident_edges_acquired(
                    ck.pending.iter().flatten().map(edges).sum(),
                );
                let folder = TreeFolder::resume(k, fan_in, merge, ck.pushed, ck.pending);
                (ck.communication, ck.faults, folder, ck.pushed)
            }
            None => (
                CommunicationCost::default(),
                FaultReport::new(opts.plan.fault_seed),
                TreeFolder::new(k, fan_in, merge),
                0,
            ),
        };

        // Everything pushed into the folder is charged as resident, so an
        // error return must release what is still pending there.
        let streamed = (|| -> Result<(), ProtocolError> {
            let mut loader = SegmentLoader::new(arena)?;
            for i in start..k {
                let mut outcome: MachineOutcome<P::Summary, GraphError> =
                    run_machine_with_faults(&opts.plan, &opts.retry, i, || {
                        let piece = loader.load(i)?;
                        Ok(problem.build(piece, &params, i, &mut machine_rng(seed, i)))
                    });
                if !opts.plan.is_armed() {
                    if let Some(source) = outcome.error.take() {
                        return Err(ProtocolError::Segment { machine: i, source });
                    }
                }
                report.absorb(i, &outcome);
                folder.push(match outcome.summary {
                    Some(summary) => {
                        let (edges, vertices) = P::message(&summary);
                        communication.record_message(&model, edges, vertices);
                        metrics::record_resident_edges_acquired(edges);
                        summary
                    }
                    None => P::placeholder(n),
                });
                if let Some(path) = opts.checkpoint.as_deref() {
                    save_checkpoint(
                        path,
                        &key,
                        &ArenaCheckpoint {
                            pushed: folder.pushed(),
                            pending: folder.pending().to_vec(),
                            communication: communication.clone(),
                            faults: report.clone(),
                        },
                    )?;
                }
                if opts.kill_after_leaves == Some(folder.pushed()) {
                    return Err(ProtocolError::Interrupted {
                        pushed: folder.pushed(),
                    });
                }
            }
            loader.release();
            check_survivors(&report, k)
        })();
        if let Err(err) = streamed {
            metrics::record_resident_edges_released(
                folder.pending().iter().flatten().map(edges).sum(),
            );
            return Err(err);
        }
        let roots = folder.finish();
        let root_edges: usize = roots.iter().map(edges).sum();
        let scratch = P::ROOT_SCRATCH_PASSES * root_edges;
        metrics::record_resident_edges_acquired(scratch);
        let answer = problem.compose_all(&roots);
        metrics::record_resident_edges_released(root_edges + scratch);
        if report.degraded {
            // The fault-free baseline needs every segment intact; a genuinely
            // corrupt arena has no computable baseline.
            let clean = self.run(arena, problem, seed, &FaultRunOptions::default());
            report.achieved_vs_fault_free = clean
                .ok()
                .map(|c| achieved_ratio::<P>(&answer, &c.run.answer));
        }
        if let Some(path) = opts.checkpoint.as_deref() {
            let _ = std::fs::remove_file(path);
        }
        Ok(FaultyRun {
            run: SimultaneousRun {
                answer,
                communication,
                piece_sizes: arena.piece_sizes(),
            },
            faults: report,
        })
    }

    /// Runs the matching protocol from an on-disk arena, fault-free.
    pub fn run_matching<B: MatchingCoresetBuilder>(
        &self,
        arena: &ArenaFile,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<Matching>, ProtocolError> {
        let opts = FaultRunOptions::default();
        Ok(self.run(arena, &MatchingProblem(builder), seed, &opts)?.run)
    }

    /// Runs the vertex-cover protocol from an on-disk arena, fault-free.
    pub fn run_vertex_cover<B: VcCoresetBuilder>(
        &self,
        arena: &ArenaFile,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<VertexCover>, ProtocolError> {
        let opts = FaultRunOptions::default();
        Ok(self.run(arena, &VcProblem(builder), seed, &opts)?.run)
    }
}

/// Options of a fault-injected, optionally resumable arena run.
#[derive(Debug, Clone, Default)]
pub struct FaultRunOptions {
    /// Which faults to inject (a defaulted plan injects nothing).
    pub plan: FaultPlan,
    /// Retry budget and backoff schedule shared by machine replays and
    /// segment re-reads.
    pub retry: RetryPolicy,
    /// Where to persist the resume checkpoint; `None` disables
    /// checkpointing.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Test knob: abort with [`ProtocolError::Interrupted`] once this many
    /// leaves completed (after the checkpoint for that leaf is saved), so
    /// crash-recovery tests can kill a run at every possible point.
    pub kill_after_leaves: Option<usize>,
}

/// The result of one simultaneous-protocol run.
#[derive(Debug, Clone)]
pub struct SimultaneousRun<T> {
    /// The coordinator's answer (a matching or a vertex cover).
    pub answer: T,
    /// Communication charged to the machines' messages.
    pub communication: CommunicationCost,
    /// Number of edges each machine received (the input partition sizes).
    pub piece_sizes: Vec<usize>,
}

/// A [`SimultaneousRun`] plus the fault accounting of how it got there.
#[derive(Debug, Clone)]
pub struct FaultyRun<T> {
    /// The protocol outcome (answer, communication, piece sizes).
    pub run: SimultaneousRun<T>,
    /// What was injected, retried, recovered, and lost along the way.
    pub faults: FaultReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coresets::matching_coreset::MaximumMatchingCoreset;
    use coresets::vc_coreset::PeelingVcCoreset;
    use coresets::TreePlan;
    use graph::gen::er::gnp;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matching_protocol_communication_is_o_of_nk() {
        let mut r = rng(1);
        let n = 600;
        let g = gnp(n, 0.02, &mut r);
        let k = 6;
        let run = CoordinatorProtocol::random(k)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 42)
            .unwrap();
        assert!(run.answer.is_valid_for(&g));
        // Each message is a matching: at most n/2 edges = n words.
        assert!(run.communication.max_message_words() <= n as u64);
        assert!(run.communication.total_words() <= (n * k) as u64);
        assert_eq!(run.communication.message_count(), k);
        // Approximation guarantee of Theorem 1.
        let opt = maximum_matching(&g).len();
        assert!(9 * run.answer.len() >= opt);
    }

    #[test]
    fn vertex_cover_protocol_covers_and_accounts() {
        let mut r = rng(2);
        let n = 800;
        let g = gnp(n, 0.015, &mut r);
        let k = 5;
        let run = CoordinatorProtocol::random(k)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 7)
            .unwrap();
        assert!(run.answer.covers(&g));
        assert_eq!(run.communication.message_count(), k);
        assert!(run.communication.total_words() > 0);
        assert_eq!(run.piece_sizes.iter().sum::<usize>(), g.m());
    }

    #[test]
    fn runs_are_reproducible() {
        let mut r = rng(3);
        let g = gnp(300, 0.03, &mut r);
        let p = CoordinatorProtocol::random(4);
        let a = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 11)
            .unwrap();
        let b = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 11)
            .unwrap();
        assert_eq!(a.answer.len(), b.answer.len());
        assert_eq!(a.communication, b.communication);
    }

    #[test]
    fn adversarial_strategy_is_supported() {
        let mut r = rng(4);
        let g = gnp(200, 0.05, &mut r);
        let run = CoordinatorProtocol::adversarial(4)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 1)
            .unwrap();
        assert!(run.answer.is_valid_for(&g));
    }

    #[test]
    fn zero_machines_is_rejected() {
        let g = gnp(50, 0.1, &mut rng(5));
        assert!(CoordinatorProtocol::random(0)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 0)
            .is_err());
    }

    #[test]
    fn vertex_cover_with_zero_machines_is_rejected() {
        let g = gnp(50, 0.1, &mut rng(4));
        assert!(CoordinatorProtocol::random(0)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 1)
            .is_err());
    }

    #[test]
    fn fan_in_below_two_is_a_typed_error() {
        let g = gnp(60, 0.1, &mut rng(20));
        for fan_in in [0, 1] {
            let err = CoordinatorProtocol::tree(8, fan_in)
                .run_matching(&g, &MaximumMatchingCoreset::new(), 1)
                .unwrap_err();
            assert_eq!(err, ProtocolError::InvalidFanIn { fan_in });
            let err = CoordinatorProtocol::tree(8, fan_in)
                .run_vertex_cover(&g, &PeelingVcCoreset::new(), 1)
                .unwrap_err();
            assert_eq!(err, ProtocolError::InvalidFanIn { fan_in });
        }
    }

    #[test]
    fn tree_mode_runs_are_valid_and_reproducible() {
        let g = gnp(500, 0.02, &mut rng(6));
        let p = CoordinatorProtocol::tree(9, 2);
        let a = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 13)
            .unwrap();
        let b = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 13)
            .unwrap();
        assert!(a.answer.is_valid_for(&g));
        assert_eq!(a.answer.edges(), b.answer.edges());
        // Communication is charged to the leaf messages only: same as flat.
        let flat = CoordinatorProtocol::random(9)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 13)
            .unwrap();
        assert_eq!(a.communication, flat.communication);

        let cover = p
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 13)
            .unwrap();
        assert!(cover.answer.covers(&g));
    }

    /// Serializes the arena tests: they all touch the process-global
    /// resident-edge counters, and the peak test needs them quiescent.
    static ARENA_METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn arena_lock() -> std::sync::MutexGuard<'static, ()> {
        ARENA_METRICS_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Writes `g`'s partition (drawn exactly as `run_matching` draws it) to
    /// an arena file and returns the open arena plus its path.
    fn arena_of(
        g: &Graph,
        k: usize,
        seed: u64,
        tag: &str,
    ) -> (graph::ArenaFile, std::path::PathBuf) {
        let mut r = rng(seed);
        let partition =
            graph::PartitionedGraph::new(g, k, graph::partition::PartitionStrategy::Random, &mut r)
                .unwrap();
        let path =
            std::env::temp_dir().join(format!("rc_coord_arena_{}_{tag}.bin", std::process::id()));
        graph::write_arena_file(&path, &partition).unwrap();
        (ArenaFile::open(&path).unwrap(), path)
    }

    #[test]
    fn arena_flat_matching_is_bit_identical_to_in_memory_flat() {
        let _guard = arena_lock();
        let g = gnp(400, 0.025, &mut rng(7));
        let (k, seed) = (6, 21);
        let mem = CoordinatorProtocol::random(k)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let (arena, path) = arena_of(&g, k, seed, "flat_match");
        let ooc = ArenaProtocol::flat()
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(mem.answer.edges(), ooc.answer.edges());
        assert_eq!(mem.communication, ooc.communication);
        assert_eq!(mem.piece_sizes, ooc.piece_sizes);
    }

    #[test]
    fn arena_tree_matching_is_bit_identical_to_in_memory_tree() {
        let _guard = arena_lock();
        let g = gnp(450, 0.02, &mut rng(8));
        let (k, fan_in, seed) = (9, 2, 33);
        let mem = CoordinatorProtocol::tree(k, fan_in)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let (arena, path) = arena_of(&g, k, seed, "tree_match");
        let ooc = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(mem.answer.edges(), ooc.answer.edges());
        assert_eq!(mem.communication, ooc.communication);
    }

    #[test]
    fn arena_tree_vertex_cover_is_bit_identical_to_in_memory_tree() {
        let _guard = arena_lock();
        let g = gnp(500, 0.015, &mut rng(9));
        let (k, fan_in, seed) = (8, 3, 5);
        let mem = CoordinatorProtocol::tree(k, fan_in)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), seed)
            .unwrap();
        let (arena, path) = arena_of(&g, k, seed, "tree_vc");
        let ooc = ArenaProtocol::tree(fan_in)
            .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(mem.answer.covers(&g));
        assert_eq!(mem.answer, ooc.answer);
        assert_eq!(mem.communication, ooc.communication);
    }

    #[test]
    fn arena_fan_in_below_two_is_a_typed_error() {
        let _guard = arena_lock();
        let g = gnp(80, 0.08, &mut rng(21));
        let (arena, path) = arena_of(&g, 4, 3, "fan_in");
        for fan_in in [0, 1] {
            let err = ArenaProtocol::tree(fan_in)
                .run_matching(&arena, &MaximumMatchingCoreset::new(), 3)
                .unwrap_err();
            assert_eq!(err, ProtocolError::InvalidFanIn { fan_in });
            let err = ArenaProtocol::tree(fan_in)
                .run_vertex_cover(&arena, &PeelingVcCoreset::new(), 3)
                .unwrap_err();
            assert_eq!(err, ProtocolError::InvalidFanIn { fan_in });
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn arena_tree_peak_resident_stays_bounded() {
        let _guard = arena_lock();
        let g = gnp(600, 0.05, &mut rng(10));
        let (k, fan_in, seed) = (8, 2, 2);
        let (arena, path) = arena_of(&g, k, seed, "peak");
        metrics::reset_peak_resident_edges();
        let before = metrics::resident_edges();
        let run = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(!run.answer.is_empty());
        // Everything acquired during the run was released again.
        assert_eq!(metrics::resident_edges(), before);
        // Peak stayed below the full arena plus tree overhead — the bound E16
        // asserts at 10^7-edge scale (levels + 1 live coreset layers of at
        // most n/2 edges each, one segment, merge scratch).
        let levels = TreePlan::new(k, fan_in).levels();
        let m = arena.m();
        let bound = (2 * (m / k + fan_in * (g.n() / 2) * (levels + 1))) as u64;
        assert!(
            metrics::peak_resident_edges() <= bound,
            "peak {} above bound {bound}",
            metrics::peak_resident_edges()
        );
    }

    #[test]
    fn unarmed_faulty_run_matches_fault_free_run() {
        let g = gnp(300, 0.03, &mut rng(11));
        let p = CoordinatorProtocol::random(5);
        let clean = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 17)
            .unwrap();
        let faulty = p
            .run(
                &g,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                17,
                &FaultPlan::new(99),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(clean.answer.edges(), faulty.run.answer.edges());
        assert_eq!(clean.communication, faulty.run.communication);
        assert_eq!(faulty.faults.injected, 0);
        assert_eq!(faulty.faults.retried, 0);
        assert_eq!(faulty.faults.lost_machines, Vec::<usize>::new());
        assert!(!faulty.faults.degraded);
        assert_eq!(faulty.faults.achieved_vs_fault_free, Some(1.0));
    }

    #[test]
    fn recovered_faulty_run_is_bit_identical_to_fault_free_run() {
        let g = gnp(350, 0.025, &mut rng(12));
        let p = CoordinatorProtocol::random(6);
        let clean = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 23)
            .unwrap();
        // The rate at which three independent chances of 0.2 fail an attempt.
        let plan = FaultPlan::machine_failure(4242, 1.0 - 0.8f64.powi(3));
        let faulty = p
            .run(
                &g,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                23,
                &plan,
                &RetryPolicy::attempts(12),
            )
            .unwrap();
        assert!(
            !faulty.faults.degraded,
            "retry budget should recover every machine at this seed"
        );
        assert!(faulty.faults.injected > 0, "this seed must inject faults");
        assert!(faulty.faults.retried > 0);
        // Retry replays the same machine_rng stream: recovery is invisible in
        // the output.
        assert_eq!(clean.answer.edges(), faulty.run.answer.edges());
        assert_eq!(clean.communication, faulty.run.communication);
        assert_eq!(faulty.faults.achieved_vs_fault_free, Some(1.0));
    }

    #[test]
    fn forced_machine_loss_degrades_but_stays_valid() {
        let g = gnp(400, 0.02, &mut rng(14));
        let p = CoordinatorProtocol::random(6);
        let plan = FaultPlan::new(1).losing(vec![2]);
        let faulty = p
            .run(
                &g,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                9,
                &plan,
                &RetryPolicy::attempts(8),
            )
            .unwrap();
        assert!(faulty.faults.degraded);
        assert_eq!(faulty.faults.lost_machines, vec![2]);
        assert!(faulty.run.answer.is_valid_for(&g));
        let ratio = faulty.faults.achieved_vs_fault_free.unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0 + 1e-9, "ratio {ratio}");
        // Communication only counts survivors' messages.
        assert_eq!(faulty.run.communication.message_count(), 5);
    }

    #[test]
    fn degraded_vertex_cover_covers_the_surviving_edges() {
        let g = gnp(400, 0.02, &mut rng(15));
        let (k, seed) = (5, 31);
        let plan = FaultPlan::new(2).losing(vec![0]);
        let faulty = CoordinatorProtocol::random(k)
            .run(
                &g,
                &VcProblem(PeelingVcCoreset::new()),
                seed,
                &plan,
                &RetryPolicy::default(),
            )
            .unwrap();
        assert!(faulty.faults.degraded);
        // The degraded cover must still cover every edge a surviving machine
        // held (the lost machine's edges are unknowable to the coordinator).
        let mut r = rng(seed);
        let partition = graph::PartitionedGraph::new(
            &g,
            k,
            graph::partition::PartitionStrategy::Random,
            &mut r,
        )
        .unwrap();
        for (i, piece) in partition.views().iter().enumerate() {
            if faulty.faults.lost_machines.contains(&i) {
                continue;
            }
            for e in piece.edges() {
                assert!(
                    faulty.run.answer.contains(e.u) || faulty.run.answer.contains(e.v),
                    "surviving edge ({}, {}) uncovered",
                    e.u,
                    e.v
                );
            }
        }
    }

    #[test]
    fn losing_every_machine_is_a_typed_error() {
        let g = gnp(120, 0.05, &mut rng(16));
        let p = CoordinatorProtocol::random(3);
        let all = FaultPlan::new(3).losing(vec![0, 1, 2]);
        let err = p
            .run(
                &g,
                &VcProblem(PeelingVcCoreset::new()),
                1,
                &all,
                &RetryPolicy::default(),
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::NoSurvivors);
    }

    #[test]
    fn failed_arena_run_releases_its_resident_edges() {
        let _guard = arena_lock();
        let g = gnp(300, 0.03, &mut rng(22));
        let (k, fan_in, seed) = (6, 2, 59);
        let (arena, path) = arena_of(&g, k, seed, "lost_fail");
        let opts = FaultRunOptions {
            plan: FaultPlan::new(4).losing((0..k).collect()),
            ..FaultRunOptions::default()
        };
        let before = metrics::resident_edges();
        let err = ArenaProtocol::tree(fan_in)
            .run(
                &arena,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                seed,
                &opts,
            )
            .unwrap_err();
        std::fs::remove_file(path).unwrap();
        assert_eq!(err, ProtocolError::NoSurvivors);
        assert_eq!(metrics::resident_edges(), before, "failed run leaked");
    }

    #[test]
    fn resumable_run_without_faults_matches_plain_arena_run() {
        let _guard = arena_lock();
        let g = gnp(380, 0.02, &mut rng(17));
        let (k, fan_in, seed) = (6, 2, 41);
        let (arena, path) = arena_of(&g, k, seed, "resume_clean");
        let plain = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let faulty = ArenaProtocol::tree(fan_in)
            .run(
                &arena,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                seed,
                &FaultRunOptions::default(),
            )
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(plain.answer.edges(), faulty.run.answer.edges());
        assert_eq!(plain.communication, faulty.run.communication);
        assert_eq!(faulty.faults.injected, 0);
        assert_eq!(faulty.faults.achieved_vs_fault_free, Some(1.0));
    }

    #[test]
    fn segment_faults_are_retried_transparently() {
        let _guard = arena_lock();
        let g = gnp(300, 0.025, &mut rng(18));
        let (k, fan_in, seed) = (5, 2, 47);
        let (arena, path) = arena_of(&g, k, seed, "seg_retry");
        let plain = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let opts = FaultRunOptions {
            plan: FaultPlan::machine_failure(77, 0.5),
            retry: RetryPolicy {
                max_attempts: 16,
                backoff_ticks: 3,
            },
            ..FaultRunOptions::default()
        };
        let faulty = ArenaProtocol::tree(fan_in)
            .run(
                &arena,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                seed,
                &opts,
            )
            .unwrap();
        std::fs::remove_file(path).unwrap();
        // Machine i fails its first f_i attempts, retries f_i times and
        // waits the backoff before each of attempts 1..=f_i.
        let failed_first = |i: usize| (0..).take_while(|&a| opts.plan.fails(i, a)).count() as u32;
        let retried: u64 = (0..k).map(|i| u64::from(failed_first(i))).sum();
        let ticks: u64 = (0..k)
            .flat_map(|i| 1..=failed_first(i))
            .map(|a| opts.retry.backoff_before(a))
            .sum();
        assert!(faulty.faults.injected > 0, "this seed must inject faults");
        assert_eq!(faulty.faults.injected, retried);
        assert_eq!(faulty.faults.retried, retried);
        assert_eq!(faulty.faults.ticks, ticks);
        assert!(!faulty.faults.degraded);
        assert_eq!(plain.answer.edges(), faulty.run.answer.edges());
        assert_eq!(plain.communication, faulty.run.communication);
    }

    #[test]
    fn failing_every_read_loses_every_machine() {
        let _guard = arena_lock();
        let g = gnp(200, 0.03, &mut rng(24));
        let (arena, path) = arena_of(&g, 4, 5, "reads_fail");
        let opts = FaultRunOptions {
            plan: FaultPlan::machine_failure(6, 1.0),
            retry: RetryPolicy::attempts(3),
            ..FaultRunOptions::default()
        };
        let before = metrics::resident_edges();
        let err = ArenaProtocol::tree(2)
            .run(
                &arena,
                &MatchingProblem(MaximumMatchingCoreset::new()),
                5,
                &opts,
            )
            .unwrap_err();
        std::fs::remove_file(path).unwrap();
        assert_eq!(err, ProtocolError::NoSurvivors);
        assert_eq!(metrics::resident_edges(), before, "failed run leaked");
    }

    #[test]
    fn corrupt_segment_is_surfaced_unarmed_and_lost_armed() {
        let _guard = arena_lock();
        let g = gnp(300, 0.03, &mut rng(25));
        let (k, fan_in, seed) = (5, 2, 61);
        let (arena, path) = arena_of(&g, k, seed, "corrupt");
        // Overwrite record 0 of segment 0 with record 1: every record still
        // decodes as a canonical edge, so only the CRC catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let rec = 44 + 20 * k;
        let dup: [u8; 8] = bytes[rec + 8..rec + 16].try_into().unwrap();
        assert_ne!(bytes[rec..rec + 8], dup, "adjacent records should differ");
        bytes[rec..rec + 8].copy_from_slice(&dup);
        std::fs::write(&path, &bytes).unwrap();
        let problem = MatchingProblem(MaximumMatchingCoreset::new());
        let before = metrics::resident_edges();

        let unarmed = FaultRunOptions {
            retry: RetryPolicy::attempts(4),
            ..FaultRunOptions::default()
        };
        let err = ArenaProtocol::tree(fan_in)
            .run(&arena, &problem, seed, &unarmed)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ProtocolError::Segment {
                    machine: 0,
                    source: GraphError::ArenaChecksumMismatch { segment: 0, .. },
                }
            ),
            "{err}"
        );
        assert_eq!(metrics::resident_edges(), before, "failed run leaked");

        let armed = FaultRunOptions {
            plan: FaultPlan::new(1).losing(vec![k - 1]),
            ..unarmed
        };
        let run = ArenaProtocol::tree(fan_in)
            .run(&arena, &problem, seed, &armed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(run.faults.lost_machines, vec![0, k - 1]);
        assert!(run.faults.degraded);
        assert!(run.run.answer.is_valid_for(&g));
        // The fault-free rerun hits the same corruption: no baseline.
        assert_eq!(run.faults.achieved_vs_fault_free, None);
        assert_eq!(metrics::resident_edges(), before, "degraded run leaked");
    }

    #[test]
    fn killed_run_resumes_to_the_identical_answer() {
        let _guard = arena_lock();
        let g = gnp(350, 0.02, &mut rng(19));
        let (k, fan_in, seed) = (6, 2, 53);
        let (arena, path) = arena_of(&g, k, seed, "kill_resume");
        let ckpt =
            std::env::temp_dir().join(format!("rc_coord_ckpt_{}_kill.bin", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let uninterrupted = ArenaProtocol::tree(fan_in)
            .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
            .unwrap();
        let before = metrics::resident_edges();
        let mut opts = FaultRunOptions {
            checkpoint: Some(ckpt.clone()),
            kill_after_leaves: Some(3),
            ..FaultRunOptions::default()
        };
        let err = ArenaProtocol::tree(fan_in)
            .run(&arena, &VcProblem(PeelingVcCoreset::new()), seed, &opts)
            .unwrap_err();
        assert_eq!(err, ProtocolError::Interrupted { pushed: 3 });
        assert!(ckpt.exists(), "kill must leave a checkpoint behind");
        assert_eq!(metrics::resident_edges(), before, "interrupted run leaked");
        opts.kill_after_leaves = None;
        let resumed = ArenaProtocol::tree(fan_in)
            .run(&arena, &VcProblem(PeelingVcCoreset::new()), seed, &opts)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(metrics::resident_edges(), before, "resumed run leaked");
        assert_eq!(uninterrupted.answer, resumed.run.answer);
        assert_eq!(uninterrupted.communication, resumed.run.communication);
        assert!(
            !ckpt.exists(),
            "completed run must remove its checkpoint file"
        );
    }

    #[test]
    fn checkpoints_with_a_bad_shape_start_fresh() {
        let _guard = arena_lock();
        let g = gnp(300, 0.02, &mut rng(23));
        let (k, fan_in, seed) = (6, 2, 11);
        let (arena, path) = arena_of(&g, k, seed, "bad_shape");
        let ckpt =
            std::env::temp_dir().join(format!("rc_coord_ckpt_{}_shape.bin", std::process::id()));
        let problem = MatchingProblem(MaximumMatchingCoreset::new());
        let uninterrupted = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let opts = FaultRunOptions {
            checkpoint: Some(ckpt.clone()),
            ..FaultRunOptions::default()
        };
        let key = CheckpointKey::of_run::<Graph>(&arena, seed, fan_in, &opts.plan, &opts.retry);
        let item = || Graph::from_pairs(g.n(), vec![(0, 1)]).unwrap();
        // A 6-leaf binary tree has three pending levels; after 2 pushes it
        // holds one level-1 item.
        for (pushed, pending) in [
            (k + 3, vec![vec![], vec![], vec![]]),
            (2, vec![vec![], vec![item()]]),
            (2, vec![vec![item()], vec![item()], vec![]]),
        ] {
            let bad = ArenaCheckpoint {
                pushed,
                pending,
                communication: CommunicationCost::default(),
                faults: FaultReport::new(opts.plan.fault_seed),
            };
            save_checkpoint(&ckpt, &key, &bad).unwrap();
            let before = metrics::resident_edges();
            let run = ArenaProtocol::tree(fan_in)
                .run(&arena, &problem, seed, &opts)
                .unwrap();
            assert_eq!(metrics::resident_edges(), before, "fresh start leaked");
            assert_eq!(run.run.answer, uninterrupted.answer, "pushed {pushed}");
            assert_eq!(run.run.communication, uninterrupted.communication);
            assert!(!ckpt.exists(), "the completed run removes the checkpoint");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn checkpoints_resume_only_under_their_own_plan_and_retry_policy() {
        let _guard = arena_lock();
        let g = gnp(300, 0.02, &mut rng(23));
        let (k, fan_in, seed) = (6, 2, 11);
        let (arena, path) = arena_of(&g, k, seed, "plan_key");
        let ckpt =
            std::env::temp_dir().join(format!("rc_coord_ckpt_{}_plan.bin", std::process::id()));
        let protocol = ArenaProtocol::tree(fan_in);
        let problem = MatchingProblem(MaximumMatchingCoreset::new());
        // The checkpointed prefix holds machine 1 as a lost placeholder.
        let lossy = FaultPlan::new(0).losing(vec![1]);
        let mut flaky = lossy.clone();
        flaky.failure_prob = 0.25;
        for rerun in [
            FaultRunOptions::default(),
            FaultRunOptions {
                plan: flaky,
                ..FaultRunOptions::default()
            },
            FaultRunOptions {
                plan: lossy.clone(),
                retry: RetryPolicy::attempts(3),
                ..FaultRunOptions::default()
            },
        ] {
            let killed = FaultRunOptions {
                plan: lossy.clone(),
                checkpoint: Some(ckpt.clone()),
                kill_after_leaves: Some(3),
                ..FaultRunOptions::default()
            };
            let err = protocol.run(&arena, &problem, seed, &killed).unwrap_err();
            assert_eq!(err, ProtocolError::Interrupted { pushed: 3 });
            let expected = protocol.run(&arena, &problem, seed, &rerun).unwrap();
            let resumed = protocol
                .run(
                    &arena,
                    &problem,
                    seed,
                    &FaultRunOptions {
                        checkpoint: Some(ckpt.clone()),
                        ..rerun
                    },
                )
                .unwrap();
            assert_eq!(resumed.run.answer, expected.run.answer);
            assert_eq!(resumed.run.communication, expected.run.communication);
            assert_eq!(resumed.faults, expected.faults);
            assert!(!ckpt.exists(), "the completed run removes the checkpoint");
        }
        std::fs::remove_file(path).unwrap();
    }
}
