//! Experiment E5 — the shape of the Ω(n/α²) coreset-size lower bound for
//! matching (Theorem 3): on the hard distribution `D_Matching`, capping the
//! coreset size below the threshold collapses the approximation.
//!
//! Regenerate with `cargo run --release -p bench --bin exp_matching_lower_bound`.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::{CappedMatchingCoreset, MaximumMatchingCoreset};
use distsim::CoordinatorProtocol;
use graph::gen::hard::d_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EXP_ID: u64 = 5;
const TRIALS: u64 = 3;

fn main() {
    println!("# E5 — coreset-size lower bound for matching (Theorem 3)\n");
    println!("Paper claim: any α-approximate randomized coreset needs Ω(n/α²) edges.");
    println!("On D_Matching(n, α, k) the useful content of each machine's input is its");
    println!("Θ(n/k) planted-matching edges hidden among Θ(n/α) induced-matching edges;");
    println!("capping the coreset at s edges recovers only ~s·(α/k)·k = s·α of the");
    println!("planted matching, so the ratio degrades as s drops below n/α².\n");

    let n = 8000usize;
    let k = 8usize;

    let mut table = Table::new(
        format!("E5: D_Matching(n={n}, alpha, k={k}), capped maximum-matching coresets"),
        &[
            "alpha",
            "cap (edges/machine)",
            "cap / (n/alpha^2)",
            "matching size",
            "achieved ratio",
            "uncapped ratio",
        ],
    );

    for alpha in [4.0f64, 8.0] {
        let threshold = (n as f64 / (alpha * alpha)).round() as usize;
        // Sweep the cap across the threshold: well below, at, and above it.
        let caps = [
            threshold / 8,
            threshold / 4,
            threshold / 2,
            threshold,
            2 * threshold,
            4 * threshold,
        ];

        // Reference: the uncapped coreset's ratio on the same instances.
        for (cap_idx, &cap) in caps.iter().enumerate() {
            let mut ratios = Vec::new();
            let mut sizes = Vec::new();
            let mut uncapped_ratios = Vec::new();
            for t in 0..TRIALS {
                let seed = trial_seed(EXP_ID, (alpha as u64) * 1000 + cap_idx as u64 * 10 + t);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let inst = d_matching(n, alpha, k, &mut rng).expect("valid D_Matching parameters");
                let g = inst.graph.to_graph();
                let opt_lb = inst.matching_lower_bound(); // ~ n - n/alpha

                let protocol = CoordinatorProtocol::random(k);
                let capped = protocol
                    .run_matching(&g, &CappedMatchingCoreset::new(cap), seed)
                    .expect("k >= 1")
                    .answer;
                let uncapped = protocol
                    .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
                    .expect("k >= 1")
                    .answer;
                ratios.push(opt_lb as f64 / capped.len().max(1) as f64);
                sizes.push(capped.len() as f64);
                uncapped_ratios.push(opt_lb as f64 / uncapped.len().max(1) as f64);
            }
            table.add_row(vec![
                fmt_f(alpha),
                cap.max(1).to_string(),
                fmt_f(cap.max(1) as f64 / threshold as f64),
                fmt_f(Summary::of(&sizes).mean),
                fmt_f(Summary::of(&ratios).mean),
                fmt_f(Summary::of(&uncapped_ratios).mean),
            ]);
        }
    }
    println!("{table}");
    println!("Expected shape: for caps well below n/alpha^2 the achieved ratio exceeds alpha;");
    println!("as the cap passes the threshold the ratio falls towards the uncapped value.");
}
