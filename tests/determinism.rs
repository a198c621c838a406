//! Cross-thread-count determinism: for a fixed seed, every protocol's
//! **complete** output — matching edge lists, cover vertex sets, message
//! words, communication costs, MapReduce round stats — must be bit-identical
//! whether the simulated machines run on 1, 2, or 8 worker threads.
//!
//! This is the contract that makes the experiment tables in EXPERIMENTS.md
//! trustworthy on any host: parallelism may only change wall-clock time,
//! never the answer. The vendored rayon backend guarantees it by chunking
//! machines over scoped `std::thread` workers and collecting per-machine
//! results in machine order, and the protocol runners guarantee it by
//! deriving each machine's private `ChaCha8Rng` stream from `(seed, machine)`
//! *before* the parallel fan-out (see `coresets::streams`).

use coresets::matching_coreset::{MaximumMatchingCoreset, SubsampledMatchingCoreset};
use coresets::vc_coreset::PeelingVcCoreset;
use distsim::coordinator::CoordinatorProtocol;
use distsim::mapreduce::{MapReduceConfig, MapReduceSimulator};
use graph::gen::er::gnp;
use graph::gen::hard::maximal_matching_trap;
use graph::{Edge, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::ThreadPoolBuilder;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` under a pool pinned to `threads` workers.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored pool builder is infallible")
        .install(f)
}

/// Collects `f()` under every thread count and asserts all outputs are equal
/// (comparing against the 1-thread reference).
fn assert_same_across_thread_counts<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let reference = with_threads(THREAD_COUNTS[0], &f);
    for &threads in &THREAD_COUNTS[1..] {
        let got = with_threads(threads, &f);
        assert_eq!(
            got, reference,
            "output diverged between 1 and {threads} worker threads"
        );
    }
}

/// Order-sensitive fingerprint of a matching's edge list, for the pins.
fn matching_fingerprint(edges: &[Edge]) -> u64 {
    edges.iter().fold(0u64, |acc, e| {
        acc.wrapping_mul(31)
            .wrapping_add(e.u as u64)
            .wrapping_mul(31)
            .wrapping_add(e.v as u64)
    })
}

fn workload(n: usize, p: f64, seed: u64) -> Graph {
    gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed))
}

#[test]
fn coordinator_matching_protocol_is_thread_count_invariant() {
    let g = workload(1200, 0.01, 1);
    assert_same_across_thread_counts(|| {
        let run = CoordinatorProtocol::random(8)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 42)
            .unwrap();
        (
            run.answer.edges().to_vec(),
            run.communication,
            run.piece_sizes,
        )
    });
}

#[test]
fn coordinator_vertex_cover_protocol_is_thread_count_invariant() {
    let g = workload(1500, 0.008, 2);
    assert_same_across_thread_counts(|| {
        let run = CoordinatorProtocol::random(8)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 43)
            .unwrap();
        (
            run.answer.sorted_vertices(),
            run.communication,
            run.piece_sizes,
        )
    });
}

#[test]
fn mapreduce_matching_is_thread_count_invariant() {
    let g = workload(900, 0.02, 3);
    let cfg = MapReduceConfig::paper_defaults(900);
    assert_same_across_thread_counts(|| {
        let out = MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 44)
            .unwrap();
        (
            out.answer.edges().to_vec(),
            out.rounds,
            out.within_memory_budget,
        )
    });
}

#[test]
fn mapreduce_vertex_cover_is_thread_count_invariant() {
    let g = workload(900, 0.02, 4);
    let cfg = MapReduceConfig::paper_defaults(900);
    assert_same_across_thread_counts(|| {
        let out = MapReduceSimulator::new(cfg)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 45)
            .unwrap();
        (
            out.answer.sorted_vertices(),
            out.rounds,
            out.within_memory_budget,
        )
    });
}

/// The subsampled coreset (Remark 5.2) actually *consumes* its per-machine
/// RNG stream, so this is the sharpest determinism test: any coupling between
/// scheduling and randomness would show up here.
#[test]
fn rng_consuming_builder_is_thread_count_invariant() {
    let g = workload(1400, 0.015, 6);
    assert_same_across_thread_counts(|| {
        let run = CoordinatorProtocol::random(8)
            .run_matching(&g, &SubsampledMatchingCoreset::new(3.0), 47)
            .unwrap();
        (run.answer.edges().to_vec(), run.communication)
    });
}

/// The paper's hard trap instance, not just G(n,p): determinism must hold on
/// adversarial structure too.
#[test]
fn hard_instance_runs_are_thread_count_invariant() {
    let inst = maximal_matching_trap(400, 0.125).unwrap();
    assert_same_across_thread_counts(|| {
        let run = CoordinatorProtocol::random(8)
            .run_matching(&inst.graph, &MaximumMatchingCoreset::new(), 48)
            .unwrap();
        (run.answer.edges().to_vec(), run.communication)
    });
}

/// The VC engine on the protocol path, pinned: for this fixed seed the VC
/// protocol's complete output — cover vertices and per-machine message
/// words — is bit-identical at 1 / 4 worker threads *and* matches the recorded
/// regression values. (The pre-engine peeling loop now lives only in the
/// dev-only `testkit` crate, so no protocol run can reach it.)
#[test]
fn vc_pipeline_fixed_seed_regression_with_engine() {
    // Dense enough that the peeling rounds actually fire on the pieces.
    let g = workload(2000, 0.05, 14);
    let run_once = || {
        let run = CoordinatorProtocol::random(4)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 49)
            .unwrap();
        (
            run.answer.sorted_vertices(),
            run.communication.per_machine_words,
        )
    };
    let reference = with_threads(1, run_once);
    let parallel = with_threads(4, run_once);
    assert_eq!(parallel, reference, "1 vs 4 worker threads");

    // Fixed-seed regression: pin the exact output of the engine-backed
    // protocol (the peeling rounds fire here — each message, 2 words per
    // residual edge plus 1 per fixed vertex, is well below the ~50k words
    // of a ~25k-edge piece).
    let (cover, words) = reference;
    assert_eq!(cover.len(), 1992, "pinned cover size");
    assert_eq!(
        words,
        vec![33863, 33940, 34227, 33331],
        "pinned per-machine message words"
    );
    let fingerprint: u64 = cover
        .iter()
        .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v as u64));
    assert_eq!(
        fingerprint, 0x840a_d37c_6594_3389,
        "pinned cover fingerprint"
    );
}

/// Hierarchical (tree) composition, pinned: for a fixed seed the tree-mode
/// coordinator's complete matching output is bit-identical at 1 / 4 worker
/// threads *and* under two forced scheduler-fuzz seeds, and matches the
/// recorded regression values — the `(seed, level, node)` RNG streams and the
/// node-ordered merge collection keep the whole `log k`-level merge cascade
/// schedule-independent.
#[test]
fn tree_mode_fixed_seed_regression() {
    use rayon::sched_fuzz::with_fuzz;
    let g = workload(1600, 0.01, 16);
    let run_once = || {
        let run = CoordinatorProtocol::tree(16, 2)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 50)
            .unwrap();
        run.answer.edges().to_vec()
    };
    let reference = with_threads(1, run_once);
    assert_eq!(
        with_threads(4, run_once),
        reference,
        "1 vs 4 worker threads"
    );
    for fuzz in [21u64, 89] {
        let fuzzed = with_fuzz(Some(fuzz), || with_threads(4, run_once));
        assert_eq!(fuzzed, reference, "fuzz seed {fuzz}");
    }

    // Fixed-seed regression: pin the exact tree-composed matching. With
    // fan-in 2, every merge is the alternating-path walk warm-started from
    // the larger child; `tests/tree_compose.rs` checks it against the
    // warm-started engine. The two roots are composed by the same walk, so
    // the answer's edge set is the one a warm-started root solve returns
    // (pinned sorted); only its order is the walk's.
    assert_eq!(reference.len(), 757, "pinned matching size");
    assert_eq!(
        matching_fingerprint(&reference),
        0xa857_81cd_14b8_c545,
        "pinned matching fingerprint"
    );
    let mut sorted = reference.clone();
    sorted.sort_unstable();
    assert_eq!(
        matching_fingerprint(&sorted),
        0x60fb_bf5e_2ee5_0e45,
        "pinned sorted edge set"
    );
}

/// Flat composition on a skewed input, pinned: the 16-coreset union of a
/// small R-MAT graph is not bipartite, so the coordinator's root solve runs
/// blossom after seeding the union's forced degree-one edges (hub-heavy
/// unions are mostly pendant vertices) and the best coreset's edges. The
/// answer is bit-identical at 1 / 4 worker threads and under two forced
/// scheduler-fuzz seeds, and matches the recorded values.
#[test]
fn flat_rmat_fixed_seed_regression() {
    use coresets::matching_coreset::MatchingCoresetBuilder;
    use coresets::{machine_rng, solve_composed_matching, CoresetParams};
    use graph::gen::rmat::rmat_graph500;
    use graph::partition::PartitionedGraph;
    use matching::maximum::{two_coloring, MaximumMatchingAlgorithm};
    use rayon::sched_fuzz::with_fuzz;

    const SEED: u64 = 19;
    const K: usize = 16;
    let g = rmat_graph500(11, 16, &mut ChaCha8Rng::seed_from_u64(SEED));
    let run_once = || {
        let run = CoordinatorProtocol::random(K)
            .run_matching(&g, &MaximumMatchingCoreset::new(), SEED)
            .unwrap();
        run.answer.edges().to_vec()
    };
    let reference = with_threads(1, run_once);
    assert_eq!(
        with_threads(4, run_once),
        reference,
        "1 vs 4 worker threads"
    );
    for fuzz in [21u64, 89] {
        let fuzzed = with_fuzz(Some(fuzz), || with_threads(4, run_once));
        assert_eq!(fuzzed, reference, "fuzz seed {fuzz}");
    }

    // Rebuild the coresets the coordinator received and check that its root
    // union provably takes the blossom path.
    let part = PartitionedGraph::random(&g, K, &mut ChaCha8Rng::seed_from_u64(SEED)).unwrap();
    let params = CoresetParams::new(g.n(), K);
    let coresets: Vec<Graph> = part
        .views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            MaximumMatchingCoreset::new().build(*piece, &params, i, &mut machine_rng(SEED, i))
        })
        .collect();
    let refs: Vec<&Graph> = coresets.iter().collect();
    assert!(
        two_coloring(&Graph::union(&refs)).is_none(),
        "the root union must be non-bipartite"
    );
    assert_eq!(
        solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto).edges(),
        reference.as_slice(),
        "the rebuilt root solve is the protocol's answer"
    );

    // Fixed-seed regression: pin the exact flat-composed matching.
    assert_eq!(reference.len(), 733, "pinned matching size");
    assert_eq!(
        matching_fingerprint(&reference),
        0x249e_9ca0_a43e_2fa3,
        "pinned matching fingerprint"
    );
}

/// The edge-churn service, pinned: for a fixed seed a `GraphService` run —
/// batched inserts/deletes through the churn overlay, dirty-piece-only
/// coreset rebuilds, cached composition after every batch — produces a
/// complete answer stream (composed matching edges, composed cover vertices,
/// incremental sizes) that equals a from-scratch `naive_full_round` of the
/// current graph after **every** batch, is bit-identical at 1 / 4 worker
/// threads and under two forced scheduler-fuzz seeds, and matches the
/// recorded regression values.
#[test]
fn churn_service_fixed_seed_regression() {
    use distsim::{naive_full_round, GraphService, GraphServiceConfig};
    use graph::ChurnOp;
    use rand::Rng;
    use rayon::sched_fuzz::with_fuzz;

    const SEED: u64 = 18;
    const N: usize = 600;
    const K: usize = 8;
    let g = workload(N, 0.02, SEED);

    let run_once = || {
        let cfg = GraphServiceConfig {
            k: K,
            seed: SEED,
            eps: 0.5,
        };
        let mut svc = GraphService::new(&g, cfg).expect("service");
        let mut acc = 0u64;
        for batch in 0..4u64 {
            // Deterministic churn: half fresh inserts, half deletes of
            // currently present edges, derived from (SEED, batch) only.
            let current = svc.current_graph();
            let edges = current.edges();
            let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ (0xC0DE + batch));
            let mut ops = Vec::new();
            while ops.len() < 12 {
                if !edges.is_empty() && rng.gen_bool(0.5) {
                    ops.push(ChurnOp::Delete(edges[rng.gen_range(0..edges.len())]));
                } else {
                    let u = rng.gen_range(0..N as u32);
                    let v = rng.gen_range(0..N as u32);
                    if u != v {
                        ops.push(ChurnOp::Insert(Edge::new(u, v)));
                    }
                }
            }
            let outcome = svc.apply_batch(&ops).expect("batch");

            // Cached composition must equal the from-scratch batch round.
            let now = svc.current_graph();
            let (naive_m, naive_c) = naive_full_round(&now, K, SEED).expect("naive");
            assert_eq!(svc.matching(), &naive_m, "batch {batch}: matching");
            assert_eq!(svc.cover(), &naive_c, "batch {batch}: cover");

            acc ^= graph::fingerprint_edges(svc.matching().edges());
            for v in svc.cover().sorted_vertices() {
                acc = acc.wrapping_mul(31).wrapping_add(v as u64);
            }
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(outcome.approx_matching_size as u64)
                .wrapping_mul(31)
                .wrapping_add(outcome.approx_cover_size as u64);
        }
        (acc, svc.matching().len(), svc.cover().len())
    };

    let reference = with_threads(1, run_once);
    assert_eq!(
        with_threads(4, run_once),
        reference,
        "1 vs 4 worker threads"
    );
    for fuzz in [21u64, 89] {
        let fuzzed = with_fuzz(Some(fuzz), || with_threads(4, run_once));
        assert_eq!(fuzzed, reference, "fuzz seed {fuzz}");
    }

    // Fixed-seed regression: pin the exact answer stream.
    let (fingerprint, matching_len, cover_len) = reference;
    assert_eq!(matching_len, 299, "pinned composed matching size");
    assert_eq!(cover_len, 556, "pinned composed cover size");
    assert_eq!(
        fingerprint, 0x0d62_1a6b_1c86_8c4b,
        "pinned answer-stream fingerprint"
    );
}

/// Different seeds still change the answer (the determinism above is not the
/// degenerate "everything collapsed to one stream" kind).
#[test]
fn different_seeds_produce_different_subsampled_runs() {
    let g = workload(1400, 0.015, 7);
    let run = |seed| {
        CoordinatorProtocol::random(8)
            .run_matching(&g, &SubsampledMatchingCoreset::new(3.0), seed)
            .unwrap()
            .answer
            .edges()
            .to_vec()
    };
    assert_ne!(run(1), run(2), "distinct seeds should perturb the output");
}
