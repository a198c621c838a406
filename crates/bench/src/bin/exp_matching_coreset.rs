//! Experiment E1 — Theorem 1: the maximum-matching coreset is an
//! O(1)-approximation under random partitioning, across workloads, graph
//! sizes and machine counts.
//!
//! Regenerate with `cargo run --release -p bench --bin exp_matching_coreset`.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::MaximumMatchingCoreset;
use distsim::CoordinatorProtocol;
use graph::gen::bipartite::{planted_matching_bipartite, random_bipartite};
use graph::gen::er::gnp;
use graph::gen::powerlaw::chung_lu;
use graph::Graph;
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EXP_ID: u64 = 1;
const TRIALS: u64 = 3;

fn workloads(seed: u64) -> Vec<(String, Graph, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();

    let er = gnp(4000, 0.002, &mut rng);
    let er_opt = maximum_matching(&er).len();
    out.push(("erdos-renyi(n=4000, p=0.002)".to_string(), er, er_opt));

    let bip = random_bipartite(3000, 3000, 0.0015, &mut rng).to_graph();
    let bip_opt = maximum_matching(&bip).len();
    out.push(("bipartite(n=3000+3000, p=0.0015)".to_string(), bip, bip_opt));

    let (planted, matching) = planted_matching_bipartite(3000, 0.001, &mut rng);
    let planted_n = matching.len();
    out.push((
        "planted-matching(n=3000+3000)".to_string(),
        planted.to_graph(),
        planted_n,
    ));

    let pl = chung_lu(4000, 2.5, 6.0, &mut rng);
    let pl_opt = maximum_matching(&pl).len();
    out.push(("chung-lu(n=4000, gamma=2.5)".to_string(), pl, pl_opt));

    out
}

fn main() {
    println!("# E1 — maximum-matching coreset approximation (Theorem 1)\n");
    println!("Paper claim: composing any maximum matchings of the randomly partitioned");
    println!("pieces gives an O(1)-approximation (proof bound 9; expect ~1-2 in practice),");
    println!("independent of k and of the workload.\n");

    let mut table = Table::new(
        "E1: approximation ratio of the maximum-matching coreset",
        &[
            "workload",
            "k",
            "opt",
            "coreset matching (mean)",
            "ratio (mean)",
            "ratio (max)",
            "coreset edges/machine",
        ],
    );

    for k in [2usize, 4, 8, 16, 32] {
        for (name, g, opt) in workloads(trial_seed(EXP_ID, 0)) {
            let mut ratios = Vec::new();
            let mut sizes = Vec::new();
            let mut coreset_edges = Vec::new();
            for t in 0..TRIALS {
                let result = CoordinatorProtocol::random(k)
                    .run_matching(
                        &g,
                        &MaximumMatchingCoreset::new(),
                        trial_seed(EXP_ID, 100 + t),
                    )
                    .expect("k >= 1");
                assert!(result.answer.is_valid_for(&g));
                ratios.push(opt as f64 / result.answer.len().max(1) as f64);
                sizes.push(result.answer.len() as f64);
                // A matching coreset's message is 2 words per edge.
                let edges = result.communication.total_words() / 2;
                coreset_edges.push(edges as f64 / k as f64);
            }
            let ratio = Summary::of(&ratios);
            let size = Summary::of(&sizes);
            let edges = Summary::of(&coreset_edges);
            table.add_row(vec![
                name,
                k.to_string(),
                opt.to_string(),
                fmt_f(size.mean),
                fmt_f(ratio.mean),
                fmt_f(ratio.max),
                fmt_f(edges.mean),
            ]);
        }
    }
    println!("{table}");
}
