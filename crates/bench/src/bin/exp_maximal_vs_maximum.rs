//! Experiment E2 — Section 1.2 separation: an adversarially chosen *maximal*
//! matching per machine composes to an Ω(k)-approximation on the trap
//! instance, while the *maximum*-matching coreset of Theorem 1 stays O(1).
//!
//! Regenerate with `cargo run --release -p bench --bin exp_maximal_vs_maximum`.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::{AvoidingMaximalMatchingCoreset, MaximumMatchingCoreset};
use distsim::CoordinatorProtocol;
use graph::gen::hard::maximal_matching_trap;

const EXP_ID: u64 = 2;
const TRIALS: u64 = 3;

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

    for k in [2usize, 4, 8, 16, 32] {
        let inst = maximal_matching_trap(n, 1.0 / k as f64).expect("valid trap parameters");
        let avoid = AvoidingMaximalMatchingCoreset::new(inst.planted_matching.iter().copied());
        let opt = inst.matching_lower_bound(); // the planted perfect matching

        let mut good_ratios = Vec::new();
        let mut bad_ratios = Vec::new();
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
            good_ratios.push(opt as f64 / good.len().max(1) as f64);
            bad_ratios.push(opt as f64 / bad.len().max(1) as f64);
        }
        let good = Summary::of(&good_ratios);
        let bad = Summary::of(&bad_ratios);
        table.add_row(vec![
            k.to_string(),
            fmt_f(good.mean),
            fmt_f(bad.mean),
            fmt_f(bad.mean / good.mean),
        ]);
    }
    println!("{table}");
    println!("Expected shape: column 2 stays near 1; column 3 grows roughly linearly in k.");
}
