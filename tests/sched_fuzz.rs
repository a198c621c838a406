//! Scheduler-fuzz race detection: every protocol's complete output must be
//! bit-identical under adversarial worker schedules.
//!
//! `tests/determinism.rs` shows outputs don't depend on the worker *count*;
//! this suite shows they don't depend on worker *timing* either. The vendored
//! rayon's `RC_SCHED_FUZZ` mode (see `vendor/rayon/src/lib.rs`,
//! `sched_fuzz`) runs the ordinary work-stealing engine — 8 size-capped
//! chunks per worker, workers racing an atomic cursor for chunks — under a
//! seed-derived *permutation* of the dispatch queue, with an OS yield at
//! every chunk boundary. A protocol whose answer leaks execution order — a
//! machine result written into shared state as it completes, an RNG stream
//! drawn inside the fan-out — diverges under some schedule; a correct one
//! never moves.
//!
//! Coverage: five protocol runs (three coordinator, two MapReduce) ×
//! [`FUZZ_SEEDS`] seeds = 60 fuzzed schedules at 4 worker threads, each
//! fingerprinted against the fuzz-off single-thread baseline;
//! plus a skewed adversarial partition swept over seeds × 1/2/4 workers
//! (the regime work stealing exists for), a synthetic skewed-chunk-cost
//! sweep, and a proptest that the work-stealing `par_iter` is bit-identical
//! to sequential for arbitrary item counts, thread counts and fuzz seeds.
//! Every individual protocol run issues at least one multi-chunk parallel
//! fan-out per seed, so each (protocol, seed) pair genuinely exercises a
//! distinct dispatch permutation (the per-process call counter advances the
//! schedule on every parallel call).

use coresets::matching_coreset::{MaximumMatchingCoreset, SubsampledMatchingCoreset};
use coresets::vc_coreset::PeelingVcCoreset;
use distsim::coordinator::CoordinatorProtocol;
use distsim::mapreduce::{MapReduceConfig, MapReduceSimulator};
use graph::gen::er::gnp;
use graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::sched_fuzz::with_fuzz;
use rayon::ThreadPoolBuilder;

/// Twelve fuzz seeds per protocol run; 5 × 12 = 60 adversarial schedules,
/// comfortably above the 32-schedule floor this suite promises.
const FUZZ_SEEDS: [u64; 12] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233];

/// Worker count for the fuzzed runs; with 8 chunks per worker each fan-out
/// has up to 32 schedulable chunks.
const FUZZ_THREADS: usize = 4;

/// Thread sweep for the skew-focused tests: the work-stealing queue must be
/// invisible at one worker (pure sequential), two, and four.
const SWEEP_THREADS: [usize; 3] = [1, 2, 4];

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored pool builder is infallible")
        .install(f)
}

/// Runs `f` once sequentially with fuzzing forced off, then once per fuzz
/// seed at [`FUZZ_THREADS`] workers, asserting every fuzzed output equals the
/// baseline.
fn assert_fuzz_invariant<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    let baseline = with_fuzz(None, || with_threads(1, &f));
    for &seed in &FUZZ_SEEDS {
        let fuzzed = with_fuzz(Some(seed), || with_threads(FUZZ_THREADS, &f));
        assert_eq!(
            fuzzed, baseline,
            "{label}: output diverged under fuzzed schedule seed {seed}"
        );
    }
}

fn workload(n: usize, p: f64, seed: u64) -> Graph {
    gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Coordinator protocol, matching side. `SubsampledMatchingCoreset` consumes
/// its per-machine RNG stream, so this also proves the streams stay decoupled
/// from chunk dispatch order.
#[test]
fn coordinator_protocols_survive_fuzzed_schedules() {
    let g = workload(800, 0.015, 101);
    assert_fuzz_invariant("coordinator/matching", || {
        let run = CoordinatorProtocol::random(8)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 61)
            .unwrap();
        (
            run.answer.edges().to_vec(),
            run.communication,
            run.piece_sizes,
        )
    });
    assert_fuzz_invariant("coordinator/matching-subsampled", || {
        let run = CoordinatorProtocol::random(8)
            .run_matching(&g, &SubsampledMatchingCoreset::new(3.0), 62)
            .unwrap();
        (run.answer.edges().to_vec(), run.communication)
    });
    assert_fuzz_invariant("coordinator/vertex-cover", || {
        let run = CoordinatorProtocol::random(8)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 63)
            .unwrap();
        (
            run.answer.sorted_vertices(),
            run.communication,
            run.piece_sizes,
        )
    });
}

/// MapReduce simulator, both problems: round structure and memory accounting
/// must be schedule-independent too, not just the answers.
#[test]
fn mapreduce_protocols_survive_fuzzed_schedules() {
    let g = workload(600, 0.02, 102);
    let cfg = MapReduceConfig::paper_defaults(600);
    assert_fuzz_invariant("mapreduce/matching", || {
        let out = MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 64)
            .unwrap();
        (
            out.answer.edges().to_vec(),
            out.rounds,
            out.within_memory_budget,
        )
    });
    assert_fuzz_invariant("mapreduce/vertex-cover", || {
        let out = MapReduceSimulator::new(cfg)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 65)
            .unwrap();
        (
            out.answer.sorted_vertices(),
            out.rounds,
            out.within_memory_budget,
        )
    });
}

/// The regime work stealing exists for: an **adversarial sorted-chunk
/// partition** concentrates dense subgraph structure on few machines, so the
/// fan-out's chunks have wildly uneven costs. Swept over fuzz seeds ×
/// 1/2/4 workers — every (seed, thread-count) cell must reproduce the
/// fuzz-off single-thread baseline bit-for-bit.
#[test]
fn skewed_partitions_survive_fuzzed_schedules_at_every_thread_count() {
    let g = workload(700, 0.02, 104);
    let baseline = with_fuzz(None, || {
        with_threads(1, || {
            let run = CoordinatorProtocol::adversarial(8)
                .run_matching(&g, &MaximumMatchingCoreset::new(), 67)
                .unwrap();
            (
                run.answer.edges().to_vec(),
                run.communication,
                run.piece_sizes,
            )
        })
    });
    for &seed in &FUZZ_SEEDS[..6] {
        for threads in SWEEP_THREADS {
            let fuzzed = with_fuzz(Some(seed), || {
                with_threads(threads, || {
                    let run = CoordinatorProtocol::adversarial(8)
                        .run_matching(&g, &MaximumMatchingCoreset::new(), 67)
                        .unwrap();
                    (
                        run.answer.edges().to_vec(),
                        run.communication,
                        run.piece_sizes,
                    )
                })
            });
            assert_eq!(
                fuzzed, baseline,
                "skewed partition diverged at seed {seed} × {threads} threads"
            );
        }
    }
}

/// Synthetic skewed chunk costs: item 0 carries ~half the total work (a
/// power-law cost curve), so under work stealing one worker chews on it
/// while the others drain hundreds of cheap chunks in racing order. Swept
/// over fuzz seeds × 1/2/4 workers against the plain sequential map.
#[test]
fn skewed_chunk_costs_keep_results_bit_identical() {
    fn busy(iters: u64, x: u64) -> u64 {
        let mut acc = x;
        for i in 0..iters {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    }
    // Power-law cost: item i costs ~50_000 / (i + 1) iterations.
    let items: Vec<u64> = (0..400).collect();
    let expected: Vec<u64> = items.iter().map(|&x| busy(50_000 / (x + 1), x)).collect();
    for &seed in &FUZZ_SEEDS[..4] {
        for threads in SWEEP_THREADS {
            let got: Vec<u64> = with_fuzz(Some(seed), || {
                with_threads(threads, || {
                    use rayon::prelude::*;
                    items
                        .par_iter()
                        .map(|&x| busy(50_000 / (x + 1), x))
                        .collect()
                })
            });
            assert_eq!(
                got, expected,
                "skewed-cost map diverged at seed {seed} × {threads} threads"
            );
        }
    }
}

mod work_stealing_properties {
    use super::*;
    use proptest::prelude::*;
    use rayon::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Work-stealing `par_iter` output is bit-identical to the sequential
        /// map for arbitrary item counts (tails included), thread counts and
        /// fuzz seeds — the scheduler contract, sampled at random instead of
        /// at hand-picked sizes.
        #[test]
        fn par_iter_is_bit_identical_to_sequential(
            len in 0usize..600,
            threads in 1usize..9,
            fuzz_raw in any::<u64>(),
        ) {
            // Half the cases run fuzz-off, half under a fuzzed schedule.
            let fuzz = if fuzz_raw.is_multiple_of(2) {
                None
            } else {
                Some(fuzz_raw)
            };
            let items: Vec<u64> = (0..len as u64).collect();
            let expected: Vec<u64> = items
                .iter()
                .map(|&x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7))
                .collect();
            let got: Vec<u64> = with_fuzz(fuzz, || {
                with_threads(threads, || {
                    items
                        .par_iter()
                        .map(|&x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7))
                        .collect()
                })
            });
            prop_assert_eq!(got, expected);
        }
    }
}

/// Sanity check on the detector itself: fuzzing genuinely perturbs execution
/// order (otherwise the suite above would be vacuous). Records the order
/// items are *processed* in and requires at least one seed to reorder it.
#[test]
fn fuzzing_perturbs_execution_order() {
    use rayon::prelude::*;
    use std::sync::Mutex;
    let mut saw_reordering = false;
    for &seed in &FUZZ_SEEDS {
        let trace: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let _: Vec<usize> = with_fuzz(Some(seed), || {
            with_threads(FUZZ_THREADS, || {
                (0..512usize)
                    .into_par_iter()
                    .map(|x| {
                        trace.lock().unwrap().push(x);
                        x
                    })
                    .collect()
            })
        });
        if trace.into_inner().unwrap().windows(2).any(|w| w[0] > w[1]) {
            saw_reordering = true;
            break;
        }
    }
    assert!(
        saw_reordering,
        "no fuzz seed perturbed execution order; the race detector is inert"
    );
}
