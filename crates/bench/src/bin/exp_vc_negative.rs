//! Experiment E4 — Section 1.2 separation for vertex cover: sending a local
//! vertex cover of each piece (vertices only, no edges) composes to an
//! Ω(k)-approximation on star instances, while the peeling coreset of
//! Theorem 2 stays bounded.
//!
//! For each machine count `k` the instance is a forest of stars with `4k`
//! leaves each (the paper's "star on k vertices" example, scaled so that every
//! machine receives a few edges of every star). The optimum cover is one
//! centre per star.
//!
//! Regenerate with `cargo run --release -p bench --bin exp_vc_negative`.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::{LocalCoverCoreset, PeelingVcCoreset};
use distsim::CoordinatorProtocol;
use graph::gen::structured::star_forest;

const EXP_ID: u64 = 4;
const TRIALS: u64 = 3;
const STARS: usize = 50;

fn main() {
    println!("# E4 — peeling coreset vs local-cover coresets on stars (Section 1.2)\n");
    println!("Paper claim: a vertex cover of each machine's subgraph is NOT a composable");
    println!("coreset — on stars the union of local covers is Ω(k) times the optimum,");
    println!("while the peeling coreset composition stays small.\n");

    let mut table = Table::new(
        format!("E4: star forest with {STARS} stars x 4k leaves (OPT = {STARS})"),
        &[
            "k",
            "leaves/star",
            "peeling ratio",
            "local-cover ratio",
            "adversarial local-cover ratio",
        ],
    );

    for k in [2usize, 4, 8, 16, 32] {
        let leaves = 4 * k;
        let g = star_forest(STARS, leaves);
        let opt = STARS as f64;

        let mut peel = Vec::new();
        let mut local = Vec::new();
        let mut adversarial = Vec::new();
        for t in 0..TRIALS {
            let seed = trial_seed(EXP_ID, k as u64 * 7 + t);
            let protocol = CoordinatorProtocol::random(k);
            let a = protocol.run_vertex_cover(&g, &PeelingVcCoreset::new(), seed);
            let b = protocol.run_vertex_cover(&g, &LocalCoverCoreset::new(), seed);
            let c = protocol.run_vertex_cover(&g, &LocalCoverCoreset::adversarial(), seed);
            let (a, b, c) = (
                a.expect("k >= 1").answer,
                b.expect("k >= 1").answer,
                c.expect("k >= 1").answer,
            );
            assert!(a.covers(&g));
            assert!(b.covers(&g));
            assert!(c.covers(&g));
            peel.push(a.len() as f64 / opt);
            local.push(b.len() as f64 / opt);
            adversarial.push(c.len() as f64 / opt);
        }
        table.add_row(vec![
            k.to_string(),
            leaves.to_string(),
            fmt_f(Summary::of(&peel).mean),
            fmt_f(Summary::of(&local).mean),
            fmt_f(Summary::of(&adversarial).mean),
        ]);
    }
    println!("{table}");
    println!("Expected shape: peeling ratio stays bounded; both local-cover ratios grow");
    println!("roughly linearly in k (the adversarial one fastest).");
}
