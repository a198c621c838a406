//! Experiment E2 — Section 1.2 separation: an adversarially chosen *maximal*
//! matching per machine composes to a much worse approximation on the trap
//! instance than the *maximum*-matching coreset of Theorem 1, which stays
//! O(1).
//!
//! Regenerate with `cargo run --release -p bench --bin exp_maximal_vs_maximum`.
//! Every trial asserts Theorem 1's bound, ratio ≤ 9, and every k asserts that
//! the adversarial ratio is at least 1.5× the maximum-coreset ratio; CI runs
//! the binary.
//!
//! The adversary blocks a planted edge `(a_i, b_i)` by matching `a_i` to a
//! free trap vertex on the same machine. With `c = n/k` trap vertices, each
//! `a_i` has about `n/k²` trap neighbours on its machine, so at large `k` the
//! adversary runs out of them: the planted edges it fails to block reach the
//! composed union, and the second table counts them.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::{
    machine_rng, AvoidingMaximalMatchingCoreset, CoresetParams, MatchingCoresetBuilder,
    MaximumMatchingCoreset,
};
use distsim::CoordinatorProtocol;
use graph::gen::hard::{maximal_matching_trap, TrapInstance};
use graph::PartitionedGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EXP_ID: u64 = 2;
const TRIALS: u64 = 3;
/// Theorem 1's approximation constant: the composed maximum-matching
/// coresets keep at least a ninth of the optimum. Every trial asserts it.
const THEOREM_1_RATIO: f64 = 9.0;
/// The separation every k must show: the adversarial-maximal ratio is at
/// least this multiple of the maximum-coreset ratio (the smallest measured
/// gap is 1.96×, at k = 2).
const SEPARATION: f64 = 1.5;

/// Planted edges in the union of the adversarial coresets the coordinator
/// receives for `seed`: its random `k`-partition, one coreset per piece.
fn planted_in_adversarial_union(
    inst: &TrapInstance,
    avoid: &AvoidingMaximalMatchingCoreset,
    k: usize,
    seed: u64,
) -> usize {
    let g = &inst.graph;
    let part =
        PartitionedGraph::random(g, k, &mut ChaCha8Rng::seed_from_u64(seed)).expect("k >= 1");
    let params = CoresetParams::new(g.n(), k);
    part.views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            let coreset = avoid.build(*piece, &params, i, &mut machine_rng(seed, i));
            coreset
                .edges()
                .iter()
                .filter(|e| !inst.is_trap_edge(e))
                .count()
        })
        .sum()
}

fn main() {
    println!("# E2 — maximum vs arbitrary-maximal matching coresets (Section 1.2)\n");
    println!("Paper claim: there exist maximal matchings whose composition is only an");
    println!("Ω(k)-approximation, so 'greedy/local-search' coresets fail here; the");
    println!("maximum-matching coreset ratio stays flat as k grows.\n");

    let n = 2000usize;
    let mut table = Table::new(
        "E2: approximation ratio vs k on the trap instance (planted matching size = n)",
        &[
            "k",
            "maximum-coreset ratio",
            "adversarial-maximal ratio",
            "ratio blow-up (adversarial / maximum)",
        ],
    );
    let mut leaks = Table::new(
        "E2: planted edges the adversary fails to block (mean over trials)",
        &[
            "k",
            "trap vertices c = n/k",
            "trap neighbours per a_i per machine (n/k²)",
            "planted edges in the adversarial union",
            "adversarial answer",
        ],
    );

    for k in [2usize, 4, 8, 16, 32] {
        let inst = maximal_matching_trap(n, 1.0 / k as f64).expect("valid trap parameters");
        let avoid = AvoidingMaximalMatchingCoreset::new(inst.planted_matching.iter().copied());
        let opt = inst.matching_lower_bound(); // the planted perfect matching

        let mut good_ratios = Vec::new();
        let mut bad_ratios = Vec::new();
        let mut planted = Vec::new();
        let mut bad_sizes = Vec::new();
        for t in 0..TRIALS {
            let seed = trial_seed(EXP_ID, k as u64 * 10 + t);
            let protocol = CoordinatorProtocol::random(k);
            let good = protocol
                .run_matching(&inst.graph, &MaximumMatchingCoreset::new(), seed)
                .expect("k >= 1")
                .answer;
            let bad = protocol
                .run_matching(&inst.graph, &avoid, seed)
                .expect("k >= 1")
                .answer;
            assert!(good.is_valid_for(&inst.graph));
            assert!(bad.is_valid_for(&inst.graph));
            let good_ratio = opt as f64 / good.len().max(1) as f64;
            assert!(
                good_ratio <= THEOREM_1_RATIO,
                "k = {k}, trial {t}: ratio {good_ratio} above Theorem 1's {THEOREM_1_RATIO}"
            );
            good_ratios.push(good_ratio);
            bad_ratios.push(opt as f64 / bad.len().max(1) as f64);
            planted.push(planted_in_adversarial_union(&inst, &avoid, k, seed) as f64);
            bad_sizes.push(bad.len() as f64);
        }
        let good = Summary::of(&good_ratios);
        let bad = Summary::of(&bad_ratios);
        assert!(
            bad.mean >= SEPARATION * good.mean,
            "k = {k}: adversarial ratio {} is below {SEPARATION}× the maximum-coreset ratio {}",
            bad.mean,
            good.mean
        );
        table.add_row(vec![
            k.to_string(),
            fmt_f(good.mean),
            fmt_f(bad.mean),
            fmt_f(bad.mean / good.mean),
        ]);
        leaks.add_row(vec![
            k.to_string(),
            inst.trap_vertices.len().to_string(),
            fmt_f(n as f64 / (k * k) as f64),
            fmt_f(Summary::of(&planted).mean),
            fmt_f(Summary::of(&bad_sizes).mean),
        ]);
    }
    println!("{table}");
    println!("{leaks}");
    println!("Measured shape: column 2 stays at 1. Column 3 is close to k only while the");
    println!("adversary blocks nearly every planted edge (k <= 4 at n = 2000). The adversarial");
    println!("answer is the c = n/k trap edges plus every planted edge the adversary fails to");
    println!("block (second table), so column 3 is about n / (n/k + leaked): it levels off at");
    println!("k = 8-16 and falls at k = 32, where each a_i has about n/k^2 = 2 trap neighbours");
    println!("on its machine and about 600 of the 2000 planted edges reach the union.");
}
