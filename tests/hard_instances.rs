//! Integration tests for the paper's hard distributions and the lower-bound
//! experiment machinery (Theorems 3 and 4, Section 1.2 separations).
//!
//! The `*_regression` tests promote the cap sweeps of the lower-bound
//! experiment binaries (`exp_matching_lower_bound` / E5 and
//! `exp_vc_lower_bound` / E6) into fixed-seed regressions: the *shape* of the
//! lower bound — approximation collapsing once the coreset is capped below
//! the Ω(n/α²) (matching) or Ω(n/α) (vertex cover) threshold — is asserted
//! with explicit ratio bounds, so a regression in the hard-instance
//! generators, the capping helpers, or the protocol runners trips a test
//! instead of silently bending an experiment table.

use coresets::capped::cap_vc_coreset;
use coresets::compose::compose_vertex_cover;
use coresets::matching_coreset::{AvoidingMaximalMatchingCoreset, MaximumMatchingCoreset};
use coresets::vc_coreset::{
    LocalCoverCoreset, PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput,
};
use coresets::{machine_rng, CappedMatchingCoreset, CoresetParams, MatchingCoresetBuilder};
use distsim::CoordinatorProtocol;
use graph::gen::hard::{d_matching, d_vc, maximal_matching_trap};
use graph::gen::structured::star_forest;
use graph::partition::PartitionedGraph;
use graph::Graph;
use matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// The composed matching of `builder`'s coresets on `k` random machines.
fn composed_matching<B: MatchingCoresetBuilder>(
    g: &Graph,
    k: usize,
    builder: &B,
    seed: u64,
) -> Matching {
    CoordinatorProtocol::random(k)
        .run_matching(g, builder, seed)
        .unwrap()
        .answer
}

/// On D_Matching the uncapped coreset composition recovers a large matching,
/// while the capped coreset (below the Theorem 3 threshold) recovers much less.
#[test]
fn capped_coresets_degrade_on_d_matching() {
    let n = 3000;
    let alpha = 6.0;
    let k = 6;
    let mut r = rng(1);
    let inst = d_matching(n, alpha, k, &mut r).unwrap();
    let g = inst.graph.to_graph();
    let opt_lb = inst.matching_lower_bound();

    let uncapped = composed_matching(&g, k, &MaximumMatchingCoreset::new(), 5);
    let tiny_cap = ((n as f64 / (alpha * alpha)) as usize / 8).max(1);
    let capped = composed_matching(&g, k, &CappedMatchingCoreset::new(tiny_cap), 5);

    assert!(uncapped.is_valid_for(&g));
    assert!(capped.is_valid_for(&g));
    assert!(
        uncapped.len() as f64 >= 1.5 * capped.len() as f64,
        "uncapped {} should clearly beat capped {}",
        uncapped.len(),
        capped.len()
    );
    // The uncapped composition is a constant-factor approximation of the
    // planted matching, as Theorem 1 promises.
    assert!(9 * uncapped.len() >= opt_lb);
}

/// E5 promoted to a regression: sweep the per-machine cap across the
/// Theorem 3 threshold `n/α²` on D_Matching with a fixed seed and assert the
/// achieved approximation ratio (a) degrades monotonically as the cap
/// shrinks, (b) collapses past `α` for caps well below the threshold, and
/// (c) stays constant-factor for the uncapped coreset.
#[test]
fn theorem3_cap_sweep_regression() {
    let n = 3000;
    let alpha = 6.0;
    let k = 6;
    let seed = 41;
    let mut r = rng(seed);
    let inst = d_matching(n, alpha, k, &mut r).unwrap();
    let g = inst.graph.to_graph();
    let opt_lb = inst.matching_lower_bound() as f64;

    let threshold = (n as f64 / (alpha * alpha)).round() as usize; // ~83
    let caps = [threshold / 8, threshold / 2, threshold, 4 * threshold];
    let ratios: Vec<f64> = caps
        .iter()
        .map(|&cap| {
            let run = composed_matching(&g, k, &CappedMatchingCoreset::new(cap), seed);
            assert!(run.is_valid_for(&g));
            opt_lb / run.len().max(1) as f64
        })
        .collect();

    // (a) Smaller caps never help.
    for w in ratios.windows(2) {
        assert!(
            w[0] >= w[1] * 0.95,
            "ratio should not improve as the cap shrinks: {ratios:?}"
        );
    }
    // (b) A cap 8x below the threshold is far worse than alpha-approximate.
    assert!(
        ratios[0] > alpha,
        "cap {} (threshold/8) should push the ratio past alpha = {alpha}, got {}",
        caps[0],
        ratios[0]
    );
    // (c) The uncapped protocol stays a small-constant-factor approximation.
    let uncapped = composed_matching(&g, k, &MaximumMatchingCoreset::new(), seed);
    let uncapped_ratio = opt_lb / uncapped.len().max(1) as f64;
    assert!(
        uncapped_ratio <= 3.0,
        "uncapped ratio {uncapped_ratio} should be a small constant (Theorem 1)"
    );
    // And a cap comfortably above the threshold is much closer to uncapped
    // than the collapsed small-cap runs.
    assert!(
        ratios[3] <= ratios[0] / 2.0,
        "4x-threshold cap ({}) should at least halve the collapsed ratio ({})",
        ratios[3],
        ratios[0]
    );
}

/// On D_VC, capping the coreset far below n/alpha usually drops the hidden
/// edge e*, making the composed cover infeasible; the uncapped coreset always
/// covers it.
#[test]
fn capped_coresets_miss_the_hidden_edge_on_d_vc() {
    let n = 2000;
    let alpha = 8.0;
    let k = 6;
    let trials = 8;
    let mut covered_uncapped = 0;
    let mut covered_capped = 0;

    for t in 0..trials {
        let mut r = rng(100 + t);
        let inst = d_vc(n, alpha, k, &mut r).unwrap();
        let g = inst.graph.to_graph();
        let params = CoresetParams::new(g.n(), k);
        let partition = PartitionedGraph::random(&g, k, &mut r).unwrap();

        let full_outputs: Vec<VcCoresetOutput> = partition
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                PeelingVcCoreset::new().build(p, &params, i, &mut machine_rng(100 + t, i))
            })
            .collect();
        let tiny_cap = ((n as f64 / alpha) as usize / 20).max(1);
        let capped_outputs: Vec<VcCoresetOutput> = full_outputs
            .iter()
            .map(|o| cap_vc_coreset(o, tiny_cap, &mut r))
            .collect();

        let full_cover = compose_vertex_cover(&full_outputs);
        let capped_cover = compose_vertex_cover(&capped_outputs);

        let (l, rstar) = inst.e_star;
        let r_flat = inst.graph.left_n() as u32 + rstar;
        if full_cover.contains(l) || full_cover.contains(r_flat) {
            covered_uncapped += 1;
        }
        if capped_cover.contains(l) || capped_cover.contains(r_flat) {
            covered_capped += 1;
        }
        // The uncapped composition must be a feasible cover of the whole graph.
        assert!(full_cover.covers(&g), "trial {t}");
    }
    assert_eq!(
        covered_uncapped, trials,
        "the uncapped coreset never misses e*"
    );
    assert!(
        covered_capped < trials,
        "a coreset capped 20x below n/alpha should miss e* at least once in {trials} trials"
    );
}

/// E6 promoted to a regression: sweep the cap across the Theorem 4 threshold
/// `n/α` on D_VC with fixed seeds. Below the threshold the hidden edge e* is
/// frequently dropped; at/above it, e* is (almost) always covered, and the
/// uncapped composed cover stays within the O(log n) approximation bound of
/// Theorem 2 relative to the certified optimum.
#[test]
fn theorem4_cap_sweep_regression() {
    let n = 2000;
    let alpha = 8.0;
    let k = 6;
    let trials = 10u64;
    let threshold = (n as f64 / alpha).round() as usize; // 250

    let coverage_of = |cap: usize| -> (usize, f64) {
        let mut covered = 0usize;
        let mut worst_ratio = 0.0f64;
        for t in 0..trials {
            let seed = 9000 + t;
            let mut r = rng(seed);
            let inst = d_vc(n, alpha, k, &mut r).unwrap();
            let g = inst.graph.to_graph();
            let params = CoresetParams::new(g.n(), k);
            let partition = PartitionedGraph::random(&g, k, &mut r).unwrap();
            let outputs: Vec<VcCoresetOutput> = partition
                .views()
                .into_iter()
                .enumerate()
                .map(|(i, piece)| {
                    let mut mrng = machine_rng(seed, i);
                    let full = PeelingVcCoreset::new().build(piece, &params, i, &mut mrng);
                    cap_vc_coreset(&full, cap, &mut mrng)
                })
                .collect();
            let cover = compose_vertex_cover(&outputs);
            let (l, rstar) = inst.e_star;
            let r_flat = inst.graph.left_n() as u32 + rstar;
            if cover.contains(l) || cover.contains(r_flat) {
                covered += 1;
            }
            worst_ratio = worst_ratio.max(cover.len() as f64 / inst.vc_upper_bound() as f64);
        }
        (covered, worst_ratio)
    };

    let (covered_tiny, _) = coverage_of(threshold / 10);
    let (covered_at, _) = coverage_of(2 * threshold);
    assert!(
        covered_tiny < covered_at,
        "a cap 10x below n/alpha ({covered_tiny}/{trials}) must miss e* more often than a cap \
         above it ({covered_at}/{trials})"
    );
    assert_eq!(
        covered_at, trials as usize,
        "caps above the threshold keep e* in every trial"
    );

    // Uncapped: always feasible and within the Theorem 2 O(log n) factor of
    // the certified optimum upper bound (|A| + 1).
    let (covered_uncapped, worst_ratio) = coverage_of(usize::MAX);
    assert_eq!(covered_uncapped, trials as usize);
    let log_n = (n as f64).log2();
    assert!(
        worst_ratio <= 4.0 * log_n,
        "uncapped cover ratio {worst_ratio} exceeds the 4·log2(n) = {} slack",
        4.0 * log_n
    );
}

/// The Section 1.2 trap: adversarially chosen maximal matchings compose to a
/// matching that degrades as k grows, while maximum matchings do not.
#[test]
fn trap_instance_separates_maximal_from_maximum() {
    let n = 1200;
    let mut previous_bad_ratio = 0.0;
    for k in [4usize, 16] {
        let inst = maximal_matching_trap(n, 1.0 / k as f64).unwrap();
        let avoid = AvoidingMaximalMatchingCoreset::new(inst.planted_matching.iter().copied());
        let good = composed_matching(&inst.graph, k, &MaximumMatchingCoreset::new(), 9);
        let bad = composed_matching(&inst.graph, k, &avoid, 9);
        let opt = inst.matching_lower_bound() as f64;
        let good_ratio = opt / good.len().max(1) as f64;
        let bad_ratio = opt / bad.len().max(1) as f64;
        assert!(
            good_ratio <= 1.5,
            "k={k}: maximum-coreset ratio {good_ratio}"
        );
        assert!(
            bad_ratio >= 2.0,
            "k={k}: adversarial ratio should be large, got {bad_ratio}"
        );
        assert!(
            bad_ratio > previous_bad_ratio,
            "adversarial ratio should grow with k ({bad_ratio} after {previous_bad_ratio})"
        );
        previous_bad_ratio = bad_ratio;
    }
}

/// The Section 1.2 star separation for vertex cover: local covers of the
/// pieces compose to a cover many times the optimum on a star forest, while
/// the peeling coresets stay close to it.
#[test]
fn peeling_beats_local_cover_on_star_forests() {
    let g = star_forest(6, 200);
    let p = CoordinatorProtocol::random(10);
    let good = p
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), 11)
        .unwrap()
        .answer;
    let bad = p
        .run_vertex_cover(&g, &LocalCoverCoreset::adversarial(), 11)
        .unwrap()
        .answer;
    assert!(good.covers(&g));
    assert!(bad.covers(&g));
    assert!(
        bad.len() >= 3 * good.len(),
        "local covers ({}) should be much larger than the composed peeling cover ({})",
        bad.len(),
        good.len()
    );
}

/// The scan-round peeling engine on a skewed-degree (star-heavy) graph (the
/// test keeps the name it had when the rounds ran on a bucket queue):
/// high-degree centres force the threshold rounds to actually fire (the
/// sparse-piece pre-screen cannot short-circuit), and the engine must agree
/// with the pre-engine reference peeling round by round while the composed
/// protocol stays feasible and far below the trivial cover.
#[test]
fn bucket_queue_peeling_on_star_heavy_graph() {
    use graph::gen::er::gnp;
    use testkit::peel_with_thresholds_reference;
    use vertexcover::peeling::peel_with_thresholds;

    // 30 stars of 600 leaves each, plus G(n, p) noise over the same vertex
    // set: a heavy-tailed degree sequence (centres ~600, noise degree ~4).
    let stars = star_forest(30, 600);
    let n = stars.n();
    let noise = gnp(n, 4.0 / n as f64, &mut rng(77));
    let g = Graph::union(&[&stars, &noise]);

    let k = 4;
    let params = CoresetParams::new(n, k);
    let schedule = params.peeling_schedule();
    assert!(
        !schedule.is_empty() && *schedule.last().unwrap() < 600,
        "the schedule must reach the star centres"
    );

    // Whole-graph peeling: engine vs reference, round by round.
    let engine_out = peel_with_thresholds(&g, &schedule);
    let reference = peel_with_thresholds_reference(&g, &schedule);
    assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
    assert_eq!(engine_out.thresholds, reference.thresholds);
    assert_eq!(engine_out.residual, reference.residual);
    // Every centre (ids 0, 601, 1202, …) is eventually peeled.
    let peeled = engine_out.peeled_cover();
    for s in 0..30u32 {
        assert!(peeled.contains(s * 601), "centre {s} must be peeled");
    }

    // Per-piece peeling through the full protocol: feasible, and the peeled
    // centres strip the star edges out of the residual coresets, so the
    // total communication drops well below the input size. Each residual
    // edge is 2 words and each fixed vertex 1, so the words bound is twice
    // the edges-plus-vertices bound.
    let vc = CoordinatorProtocol::random(k)
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), 7)
        .unwrap();
    assert!(vc.answer.covers(&g));
    assert!(vc.answer.len() < n, "cover must be non-trivial");
    let words = vc.communication.total_words();
    assert!(
        words < 2 * (g.m() as u64 - 12_000),
        "peeling the centres must strip most star edges from the coresets \
         (total {words} words vs m {})",
        g.m()
    );
}

/// Structural sanity of the hard distributions at scale (beyond the unit
/// tests): sizes and certified optima match the construction.
#[test]
fn hard_distributions_have_the_documented_structure() {
    let mut r = rng(3);
    let inst = d_matching(4000, 10.0, 8, &mut r).unwrap();
    assert_eq!(inst.a.len(), 400);
    assert_eq!(inst.planted_matching.len(), 3600);
    assert!(inst.graph.m() >= 3600 + inst.dense_edges);

    let inst = d_vc(4000, 10.0, 8, &mut r).unwrap();
    assert_eq!(inst.a.len(), 400);
    assert_eq!(inst.vc_upper_bound(), 401);
    // e* exists and is the only edge on v*.
    let v_star_edges = inst
        .graph
        .edges()
        .iter()
        .filter(|(l, _)| *l == inst.v_star)
        .count();
    assert_eq!(v_star_edges, 1);
}
