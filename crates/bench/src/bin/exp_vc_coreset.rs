//! Experiment E3 — Theorem 2: the peeling coreset gives an O(log n)-approximate
//! vertex cover with coresets of size O(n log n).
//!
//! Coreset size is reported as message words: 2 per residual edge plus 1 per
//! fixed vertex, so the O(n log n) bound reads as at most 2·n·log2(n) words.
//!
//! The reported ratio divides the composed cover by the **maximum matching
//! size**, which lower-bounds the optimum cover, so the column is an upper
//! bound on the true approximation ratio.
//!
//! Regenerate with `cargo run --release -p bench --bin exp_vc_coreset`.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::PeelingVcCoreset;
use distsim::CoordinatorProtocol;
use graph::gen::bipartite::random_bipartite;
use graph::gen::er::gnp;
use graph::gen::powerlaw::chung_lu;
use graph::gen::structured::star_forest;
use graph::Graph;
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EXP_ID: u64 = 3;
const TRIALS: u64 = 3;

fn workloads(seed: u64) -> Vec<(String, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    vec![
        (
            "erdos-renyi(n=6000, p=0.001)".to_string(),
            gnp(6000, 0.001, &mut rng),
        ),
        (
            "bipartite(n=4000+4000, p=0.001)".to_string(),
            random_bipartite(4000, 4000, 0.001, &mut rng).to_graph(),
        ),
        ("star-forest(200 x 40)".to_string(), star_forest(200, 40)),
        (
            "chung-lu(n=6000, gamma=2.3)".to_string(),
            chung_lu(6000, 2.3, 6.0, &mut rng),
        ),
    ]
}

fn main() {
    println!("# E3 — peeling vertex-cover coreset (Theorem 2)\n");
    println!("Paper claim: O(log n)-approximation with coresets of size O(n log n);");
    println!("the ratio should stay well below log2(n) and be flat in k.\n");

    let mut table = Table::new(
        "E3: composed peeling-coreset cover vs the matching lower bound on OPT",
        &[
            "workload",
            "k",
            "log2(n)",
            "cover size",
            "opt lower bound",
            "ratio (mean)",
            "message words/machine",
            "2 n log2(n)",
        ],
    );

    for k in [2usize, 4, 8, 16, 32] {
        for (name, g) in workloads(trial_seed(EXP_ID, 0)) {
            let opt_lb = maximum_matching(&g).len().max(1);
            let mut ratios = Vec::new();
            let mut covers = Vec::new();
            let mut words = Vec::new();
            for t in 0..TRIALS {
                let result = CoordinatorProtocol::random(k)
                    .run_vertex_cover(&g, &PeelingVcCoreset::new(), trial_seed(EXP_ID, 50 + t))
                    .expect("k >= 1");
                assert!(result.answer.covers(&g), "composed cover must be feasible");
                ratios.push(result.answer.len() as f64 / opt_lb as f64);
                covers.push(result.answer.len() as f64);
                words.push(result.communication.total_words() as f64 / k as f64);
            }
            let log_n = (g.n() as f64).log2();
            let ratio = Summary::of(&ratios);
            let cover = Summary::of(&covers);
            let size = Summary::of(&words);
            let n_log_n = 2.0 * g.n() as f64 * log_n;
            table.add_row(vec![
                name,
                k.to_string(),
                fmt_f(log_n),
                fmt_f(cover.mean),
                opt_lb.to_string(),
                fmt_f(ratio.mean),
                fmt_f(size.mean),
                fmt_f(n_log_n),
            ]);
        }
    }
    println!("{table}");
    println!("Expected shape: ratio column well below log2(n), flat in k;");
    println!("message words/machine well below 2 n log2(n).");
}
