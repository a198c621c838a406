//! Fault-tolerance integration tests: deterministic injection, retry by
//! replay, degraded composition over survivors, and checkpoint/resume.
//!
//! Three families of guarantees are pinned here:
//!
//! * **Degradation** (proptests): for *any* non-empty set of lost machines
//!   that leaves at least one survivor, the degraded composed matching is at
//!   least the best surviving machine's own coreset answer, and the degraded
//!   vertex cover is feasible for every edge a surviving machine held.
//! * **Recovery determinism** (cross-product sweep): a run whose every
//!   machine recovers within the retry budget is bit-identical to the
//!   fault-free run — across fault seeds × forced scheduler-fuzz seeds ×
//!   1/4 worker threads, because retries replay the per-machine RNG streams
//!   and fault decisions are pure functions of `(fault_seed, site)`.
//! * **Resumability**: killing an out-of-core arena run after *every*
//!   possible leaf and resuming from its checkpoint reproduces the
//!   uninterrupted answer bit-for-bit, including under injected transient
//!   segment faults.

use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::streams::machine_rng;
use coresets::vc_coreset::PeelingVcCoreset;
use coresets::{CoresetParams, MatchingProblem, VcProblem};
use distsim::coordinator::{ArenaProtocol, CoordinatorProtocol, FaultRunOptions};
use distsim::{FaultPlan, ProtocolError, RetryPolicy};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{write_arena_file, ArenaFile, Graph};
use matching::maximum::maximum_matching;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::sched_fuzz::with_fuzz;
use rayon::ThreadPoolBuilder;

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored pool builder is infallible")
        .install(f)
}

/// Strategy: a random simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (8usize..max_n, 1usize..max_edges, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        graph::gen::er::gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

/// Picks `f` distinct machines to lose out of `k` from `seed`, with
/// `1 <= f < k` so at least one machine survives.
fn lost_set(k: usize, f: usize, seed: u64) -> Vec<usize> {
    let mut machines: Vec<usize> = (0..k).collect();
    let mut s = seed;
    for i in (1..k).rev() {
        // Simple seeded Fisher–Yates; quality is irrelevant, determinism is.
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        machines.swap(i, (s >> 33) as usize % (i + 1));
    }
    machines.truncate(f.clamp(1, k - 1));
    machines.sort_unstable();
    machines
}

/// Rebuilds every machine's coreset exactly as the protocol does and returns
/// each machine's own answer (the maximum matching of its coreset).
fn per_machine_answers(g: &Graph, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(g, k, PartitionStrategy::Random, &mut rng)
        .expect("k >= 1 and proptest graphs are non-empty");
    let params = CoresetParams::new(g.n(), k);
    let builder = MaximumMatchingCoreset::new();
    partition
        .views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            let coreset = builder.build(*piece, &params, i, &mut machine_rng(seed, i));
            maximum_matching(&coreset).len()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Losing any f >= 1 machines (with a survivor left) keeps the composed
    /// matching at least as large as the best surviving machine's own
    /// coreset answer — the graceful-degradation guarantee of randomized
    /// composable coresets.
    #[test]
    fn degraded_matching_is_at_least_the_best_survivor(
        g in arb_graph(120, 600),
        k in 2usize..7,
        f in 1usize..6,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let lost = lost_set(k, f, pick);
        let plan = FaultPlan::new(7).losing(lost.clone());
        let run = CoordinatorProtocol::random(k)
            .run(&g, &MatchingProblem(MaximumMatchingCoreset::new()), seed, &plan, &RetryPolicy::default())
            .expect("a survivor remains, so composition proceeds");
        prop_assert!(run.run.answer.is_valid_for(&g));
        prop_assert_eq!(&run.faults.lost_machines, &lost);
        prop_assert!(run.faults.degraded);
        let answers = per_machine_answers(&g, k, seed);
        let best_survivor = answers
            .iter()
            .enumerate()
            .filter(|&(i, _)| !lost.contains(&i))
            .map(|(_, &a)| a)
            .max()
            .expect("at least one survivor");
        prop_assert!(
            run.run.answer.len() >= best_survivor,
            "composed {} < best survivor {}", run.run.answer.len(), best_survivor
        );
    }

    /// The degraded vertex cover stays feasible for every edge a surviving
    /// machine held (the lost machines' edges are unknowable).
    #[test]
    fn degraded_vertex_cover_is_feasible_for_survivors(
        g in arb_graph(120, 600),
        k in 2usize..7,
        f in 1usize..6,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let lost = lost_set(k, f, pick);
        let plan = FaultPlan::new(11).losing(lost.clone());
        let run = CoordinatorProtocol::random(k)
            .run(&g, &VcProblem(PeelingVcCoreset::new()), seed, &plan, &RetryPolicy::default())
            .expect("a survivor remains, so composition proceeds");
        prop_assert!(run.faults.degraded);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let partition = PartitionedGraph::new(&g, k, PartitionStrategy::Random, &mut rng)
            .expect("k >= 1 and proptest graphs are non-empty");
        for (i, piece) in partition.views().iter().enumerate() {
            if lost.contains(&i) {
                continue;
            }
            for e in piece.edges() {
                prop_assert!(
                    run.run.answer.contains(e.u) || run.run.answer.contains(e.v),
                    "machine {}'s edge ({}, {}) uncovered", i, e.u, e.v
                );
            }
        }
    }
}

/// Fault seeds for the recovery cross-product; probabilities high enough
/// that every seed injects at least one fault at k = 6.
const FAULT_SEEDS: [u64; 3] = [0xFA11, 0xFA12, 0xFA13];
/// Forced scheduler-fuzz seeds (same adversarial-schedule machinery as
/// `tests/sched_fuzz.rs`).
const FUZZ_SEEDS: [u64; 2] = [21, 89];
/// Worker counts for the cross-product.
const THREADS: [usize; 2] = [1, 4];

/// Recovered faulty runs are bit-identical to the fault-free run across
/// fault seeds × scheduler-fuzz seeds × worker counts: 3 × (1 + 2 × 2) = 15
/// schedules per problem, one shared fault-free baseline each.
#[test]
fn recovered_runs_are_bit_identical_across_schedules_and_threads() {
    let g = graph::gen::er::gnp(500, 0.02, &mut ChaCha8Rng::seed_from_u64(3));
    let (k, seed) = (6, 17);
    let protocol = CoordinatorProtocol::random(k);
    let builder = MaximumMatchingCoreset::new();
    let vc_builder = PeelingVcCoreset::new();
    let retry = RetryPolicy::attempts(16);
    let baseline = protocol.run_matching(&g, &builder, seed).unwrap();
    let vc_baseline = protocol.run_vertex_cover(&g, &vc_builder, seed).unwrap();

    for fault_seed in FAULT_SEEDS {
        let plan = FaultPlan::machine_failure(fault_seed, 0.25);
        let run_once = || {
            let m = protocol
                .run(&g, &MatchingProblem(&builder), seed, &plan, &retry)
                .expect("retry budget recovers every machine");
            let c = protocol
                .run(&g, &VcProblem(&vc_builder), seed, &plan, &retry)
                .expect("retry budget recovers every machine");
            (m, c)
        };
        let (plain_m, plain_c) = run_once();
        assert!(
            plain_m.faults.injected > 0,
            "seed {fault_seed:#x} must inject"
        );
        assert!(!plain_m.faults.degraded && !plain_c.faults.degraded);
        assert_eq!(plain_m.run.answer.edges(), baseline.answer.edges());
        assert_eq!(plain_c.run.answer, vc_baseline.answer);
        assert_eq!(plain_m.run.communication, baseline.communication);

        for fuzz in FUZZ_SEEDS {
            for threads in THREADS {
                let (m, c) = with_fuzz(Some(fuzz), || with_threads(threads, run_once));
                assert_eq!(
                    m.run.answer.edges(),
                    baseline.answer.edges(),
                    "matching diverged at fault seed {fault_seed:#x}, fuzz {fuzz}, {threads} threads"
                );
                assert_eq!(
                    c.run.answer, vc_baseline.answer,
                    "cover diverged at fault seed {fault_seed:#x}, fuzz {fuzz}, {threads} threads"
                );
                // The fault accounting itself is schedule-independent too.
                assert_eq!(m.faults, plain_m.faults);
                assert_eq!(c.faults, plain_c.faults);
            }
        }
    }
}

/// Writes `g`'s protocol partition to a temp arena file.
fn arena_of(g: &Graph, k: usize, seed: u64, tag: &str) -> (ArenaFile, std::path::PathBuf) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(g, k, PartitionStrategy::Random, &mut rng).unwrap();
    let path = std::env::temp_dir().join(format!("rc_faults_{}_{tag}.bin", std::process::id()));
    write_arena_file(&path, &partition).unwrap();
    (ArenaFile::open(&path).unwrap(), path)
}

/// Kills a checkpointed arena run after **every** possible leaf count and
/// resumes it, asserting the final answer and communication are bit-identical
/// to the uninterrupted run — with transient segment faults injected the
/// whole time.
#[test]
fn killing_at_every_leaf_and_resuming_is_bit_identical() {
    let g = graph::gen::er::gnp(400, 0.02, &mut ChaCha8Rng::seed_from_u64(5));
    let (k, fan_in, seed) = (6, 2, 29);
    let (arena, arena_path) = arena_of(&g, k, seed, "kill_every_leaf");
    let protocol = ArenaProtocol::tree(fan_in);
    let builder = MaximumMatchingCoreset::new();

    let mut plan = FaultPlan::new(0xC4A5);
    plan.failure_prob = 0.3;
    let opts = FaultRunOptions {
        plan,
        retry: RetryPolicy {
            max_attempts: 12,
            backoff_ticks: 1,
        },
        ..FaultRunOptions::default()
    };
    let uninterrupted = protocol
        .run(&arena, &MatchingProblem(&builder), seed, &opts)
        .expect("transient faults recover within the budget");
    assert!(!uninterrupted.faults.degraded);

    for kill_at in 1..k {
        let ckpt = std::env::temp_dir().join(format!(
            "rc_faults_ckpt_{}_{kill_at}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&ckpt);
        let mut killed = opts.clone();
        killed.checkpoint = Some(ckpt.clone());
        killed.kill_after_leaves = Some(kill_at);
        let err = protocol
            .run(&arena, &MatchingProblem(&builder), seed, &killed)
            .expect_err("the kill knob must interrupt the run");
        assert_eq!(err, ProtocolError::Interrupted { pushed: kill_at });
        assert!(ckpt.exists(), "kill at {kill_at} must leave a checkpoint");

        killed.kill_after_leaves = None;
        let resumed = protocol
            .run(&arena, &MatchingProblem(&builder), seed, &killed)
            .expect("resumed run completes");
        assert_eq!(
            resumed.run.answer.edges(),
            uninterrupted.run.answer.edges(),
            "resume after kill-at-{kill_at} diverged"
        );
        assert_eq!(resumed.run.communication, uninterrupted.run.communication);
        // The merged fault accounting (checkpointed prefix + resumed suffix)
        // equals the uninterrupted run's: injection is positional, not
        // temporal.
        assert_eq!(resumed.faults, uninterrupted.faults);
        assert!(
            !ckpt.exists(),
            "completed resume must remove the checkpoint"
        );
    }
    std::fs::remove_file(arena_path).unwrap();
}

/// A checkpoint written for one run configuration is ignored by a different
/// one (different seed → different key → fresh start, same answer as an
/// unchckpointed run).
#[test]
fn checkpoints_do_not_leak_across_run_configurations() {
    let g = graph::gen::er::gnp(300, 0.025, &mut ChaCha8Rng::seed_from_u64(6));
    let (k, fan_in) = (5, 2);
    let (arena, arena_path) = arena_of(&g, k, 37, "key_isolation");
    let protocol = ArenaProtocol::tree(fan_in);
    let builder = PeelingVcCoreset::new();
    let ckpt = std::env::temp_dir().join(format!("rc_faults_ckpt_{}_key.bin", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    let mut opts = FaultRunOptions {
        checkpoint: Some(ckpt.clone()),
        kill_after_leaves: Some(2),
        ..FaultRunOptions::default()
    };
    let err = protocol
        .run(&arena, &VcProblem(&builder), 37, &opts)
        .expect_err("the kill knob must interrupt the run");
    assert_eq!(err, ProtocolError::Interrupted { pushed: 2 });
    assert!(ckpt.exists());

    // Same checkpoint path, different protocol seed: the stale checkpoint's
    // key mismatches, so the run starts fresh and must equal a plain run.
    opts.kill_after_leaves = None;
    let crossed = protocol
        .run(&arena, &VcProblem(&builder), 38, &opts)
        .expect("fresh run completes");
    let plain = protocol
        .run_vertex_cover(&arena, &builder, 38)
        .expect("plain run completes");
    assert_eq!(crossed.run.answer, plain.answer);
    assert_eq!(crossed.run.communication, plain.communication);
    std::fs::remove_file(arena_path).unwrap();
}
