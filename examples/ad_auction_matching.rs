//! Domain scenario: advertiser–impression matching sharded across machines.
//!
//! A large ad exchange holds a bipartite compatibility graph between
//! advertisers and ad impressions. The edge log is huge and arrives sharded
//! across many ingestion servers (effectively a random partition — each edge
//! lands on an arbitrary server). We want a near-maximum matching with one
//! round of communication: every server sends a coreset, the planner composes
//! them.
//!
//! Run with `cargo run --release --example ad_auction_matching`.

use coresets::{MaximumMatchingCoreset, SubsampledMatchingCoreset};
use distsim::CoordinatorProtocol;
use graph::gen::bipartite::planted_matching_bipartite;
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // Advertisers and impressions; a planted perfect matching guarantees that
    // a full assignment exists, plus random compatibility noise.
    let advertisers = 10_000;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let (bg, _) = planted_matching_bipartite(advertisers, 0.0004, &mut rng);
    let g = bg.to_graph();
    let opt = maximum_matching(&g).len();
    println!(
        "ad exchange graph: {} advertisers, {} impressions, {} compatible pairs",
        advertisers,
        advertisers,
        g.m()
    );
    println!("maximum assignment size (centralised): {opt}\n");

    let protocol = CoordinatorProtocol::random(32); // ingestion servers
    println!(
        "{:<28} {:>10} {:>12} {:>14}",
        "protocol", "matched", "ratio", "words sent"
    );
    let exact = protocol.run_matching(&g, &MaximumMatchingCoreset::new(), 1);
    let subsampled = |alpha| protocol.run_matching(&g, &SubsampledMatchingCoreset::new(alpha), 1);
    for (label, run) in [
        ("exact coreset (Thm 1)", exact),
        ("subsampled alpha=2 (Rmk 5.2)", subsampled(2.0)),
        ("subsampled alpha=4 (Rmk 5.2)", subsampled(4.0)),
    ] {
        let run = run.expect("k >= 1");
        println!(
            "{:<28} {:>10} {:>12.3} {:>14}",
            label,
            run.answer.len(),
            opt as f64 / run.answer.len().max(1) as f64,
            run.communication.total_words()
        );
    }
    println!("\nThe exact coreset keeps the assignment within a small constant of optimal");
    println!("with one message per server; the subsampled variants cut the bytes on the");
    println!("wire by ~alpha^2 at a proportional loss in matched impressions.");
}
