//! Cross-driver differential tests: every protocol driver that draws the same
//! random partition must return the bit-identical answer.
//!
//! All the drivers below partition with
//! `PartitionedGraph::new(.., Random, seed_from_u64(seed))` and build machine
//! `i` on `machine_rng(seed, i)`:
//!
//! * `CoordinatorProtocol::random(k).run_*`;
//! * `MapReduceSimulator` with `k` machines;
//! * `ArenaProtocol::flat()` over an arena written from the same partition;
//! * `CoordinatorProtocol::run` under a machine-failure plan that the retry
//!   budget recovers.
//!
//! So on any small `G(n, p)`, any `k ∈ 1..=8` and any seed they must agree on
//! the answer bit for bit, and on the communication and piece sizes wherever
//! a driver reports them.

use coresets::{MatchingProblem, MaximumMatchingCoreset, PeelingVcCoreset, VcProblem};
use distsim::{
    ArenaProtocol, CoordinatorProtocol, FaultPlan, MapReduceConfig, MapReduceOutcome,
    MapReduceSimulator, RetryPolicy, SimultaneousRun,
};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{write_arena_file, ArenaFile, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Strategy: a small Erdős–Rényi `G(n, p)` graph. Large, dense draws matter:
/// the peeling coreset only fixes vertices once `n / 2k > 4 log2 n` and some
/// piece degree reaches `n / 4k`.
fn arb_gnp() -> impl Strategy<Value = Graph> {
    (8usize..300, 0.01f64..0.6, any::<u64>())
        .prop_map(|(n, p, seed)| graph::gen::er::gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed)))
}

/// An arena file holding a graph's protocol partition, deleted on drop.
struct TempArena {
    file: ArenaFile,
    path: PathBuf,
}

impl Drop for TempArena {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes the partition the coordinator draws for `(k, seed)` to an arena.
fn arena_of(g: &Graph, k: usize, seed: u64) -> TempArena {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(g, k, PartitionStrategy::Random, &mut rng).unwrap();
    let path = std::env::temp_dir().join(format!(
        "rc_driver_agreement_{}_{}.bin",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_arena_file(&path, &partition).unwrap();
    TempArena {
        file: ArenaFile::open(&path).unwrap(),
        path,
    }
}

/// A MapReduce deployment of `k` machines whose memory never binds.
fn mapreduce(k: usize) -> MapReduceSimulator {
    MapReduceSimulator::new(MapReduceConfig {
        k,
        memory_words: u64::MAX,
        input_already_random: false,
    })
}

/// Machine failures on one attempt in five, with a retry budget deep
/// enough (all 40 attempts fail with probability 0.2^40 < 1e-27) that every
/// machine recovers.
fn recoverable(seed: u64) -> (FaultPlan, RetryPolicy) {
    (
        FaultPlan::machine_failure(seed ^ 0xD41F, 0.2),
        RetryPolicy::attempts(40),
    )
}

/// The words machine `M` holds in the MapReduce simulator's coreset round:
/// every message, or the largest input piece if that is bigger.
fn central_words<T, U>(outcome: &MapReduceOutcome<T>, run: &SimultaneousRun<U>) -> (u64, u64) {
    let max_piece = run.piece_sizes.iter().max().map_or(0, |&m| 2 * m as u64);
    let reported = outcome.rounds.last().map_or(0, |r| r.max_words_per_machine);
    (reported, run.communication.total_words().max(max_piece))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matching_drivers_agree_bit_for_bit(
        g in arb_gnp(),
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let builder = MaximumMatchingCoreset::new();
        let coordinator = CoordinatorProtocol::random(k).run_matching(&g, &builder, seed).unwrap();
        let map_reduce = mapreduce(k).run_matching(&g, &builder, seed).unwrap();
        let arena = arena_of(&g, k, seed);
        let ooc = ArenaProtocol::flat().run_matching(&arena.file, &builder, seed).unwrap();
        let (plan, retry) = recoverable(seed);
        let faulty = CoordinatorProtocol::random(k)
            .run(&g, &MatchingProblem(&builder), seed, &plan, &retry)
            .unwrap();
        prop_assert!(!faulty.faults.degraded);

        let want = coordinator.answer.edges();
        prop_assert!(coordinator.answer.is_valid_for(&g));
        prop_assert_eq!(map_reduce.answer.edges(), want);
        prop_assert_eq!(ooc.answer.edges(), want);
        prop_assert_eq!(faulty.run.answer.edges(), want);

        prop_assert_eq!(&ooc.communication, &coordinator.communication);
        prop_assert_eq!(&faulty.run.communication, &coordinator.communication);
        let (reported, expected) = central_words(&map_reduce, &coordinator);
        prop_assert_eq!(reported, expected);

        prop_assert_eq!(&ooc.piece_sizes, &coordinator.piece_sizes);
        prop_assert_eq!(&faulty.run.piece_sizes, &coordinator.piece_sizes);
    }

    #[test]
    fn vertex_cover_drivers_agree_bit_for_bit(
        g in arb_gnp(),
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let builder = PeelingVcCoreset::new();
        let coordinator =
            CoordinatorProtocol::random(k).run_vertex_cover(&g, &builder, seed).unwrap();
        let map_reduce = mapreduce(k).run_vertex_cover(&g, &builder, seed).unwrap();
        let arena = arena_of(&g, k, seed);
        let ooc = ArenaProtocol::flat().run_vertex_cover(&arena.file, &builder, seed).unwrap();
        let (plan, retry) = recoverable(seed);
        let faulty = CoordinatorProtocol::random(k)
            .run(&g, &VcProblem(&builder), seed, &plan, &retry)
            .unwrap();
        prop_assert!(!faulty.faults.degraded);

        let want = &coordinator.answer;
        prop_assert!(want.covers(&g));
        prop_assert_eq!(&map_reduce.answer, want);
        prop_assert_eq!(&ooc.answer, want);
        prop_assert_eq!(&faulty.run.answer, want);

        prop_assert_eq!(&ooc.communication, &coordinator.communication);
        prop_assert_eq!(&faulty.run.communication, &coordinator.communication);
        let (reported, expected) = central_words(&map_reduce, &coordinator);
        prop_assert_eq!(reported, expected);

        prop_assert_eq!(&ooc.piece_sizes, &coordinator.piece_sizes);
        prop_assert_eq!(&faulty.run.piece_sizes, &coordinator.piece_sizes);
    }
}
