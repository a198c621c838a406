//! Experiment E9 — the weighted extension (Section 1.1): the Crouch–Stubbs
//! weight-class reduction turns the unweighted matching coreset into a
//! weighted one with an extra factor ≤ 2 loss and an O(log n) space factor.
//!
//! In-binary asserts, per trial: the composed matching is valid, its weight
//! is at least [`MIN_RATIO`] times the whole-graph greedy weight, and no
//! machine sends more than ⌈log2(max weight)⌉ + 1 weight classes.
//!
//! Regenerate with `cargo run --release -p bench --bin exp_weighted`.

use bench::table::fmt_f;
use bench::{trial_seed, Summary, Table};
use coresets::weighted::{
    compose_weighted_matching, WeightedCoresetOutput, WeightedMatchingCoreset,
};
use graph::partition::{partition_weighted, PartitionStrategy};
use graph::WeightedGraph;
use matching::weighted::greedy_weighted_matching;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EXP_ID: u64 = 9;
const TRIALS: u64 = 3;
/// The smallest composed / whole-graph-greedy weight ratio a trial may read.
const MIN_RATIO: f64 = 0.5;

fn random_weighted(n: usize, m: usize, max_weight: f64, rng: &mut ChaCha8Rng) -> WeightedGraph {
    let mut triples = Vec::with_capacity(m);
    while triples.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        // Exponential-ish weights spread over several weight classes.
        let w = (1.0f64).max(max_weight.powf(rng.gen::<f64>()));
        triples.push((u, v, w));
    }
    WeightedGraph::from_triples(n, triples).expect("generated triples are valid")
}

fn main() {
    println!("# E9 — weighted matching coreset (Crouch–Stubbs extension)\n");
    println!("Paper claim: grouping edges by weight class extends the matching coreset to");
    println!("weighted graphs with a further factor-2 loss and an O(log n) size factor.");
    println!("Baseline: the classic greedy weighted matching run on the WHOLE input (a");
    println!("1/2-approximation of the optimum).\n");

    let n = 3000usize;
    let m = 30_000usize;
    let max_weight: f64 = 1000.0;
    // Weights in [1, max_weight] fall in base-2 classes 0..=floor(log2 max).
    let max_classes = max_weight.log2().ceil() as usize + 1;

    let mut table = Table::new(
        format!("E9: weighted coreset vs whole-graph greedy (n={n}, m={m}, weights in [1, {max_weight}])"),
        &["k", "coreset weight (mean)", "greedy weight (mean)", "coreset / greedy (mean)", "coreset edges/machine", "weight classes"],
    );

    for k in [2usize, 4, 8, 16] {
        let mut weights = Vec::new();
        let mut greedy_weights = Vec::new();
        let mut ratios = Vec::new();
        let mut edge_counts = Vec::new();
        let mut class_counts = Vec::new();
        for t in 0..TRIALS {
            let mut rng = ChaCha8Rng::seed_from_u64(trial_seed(EXP_ID, k as u64 * 10 + t));
            let g = random_weighted(n, m, max_weight, &mut rng);
            let greedy_weight = greedy_weighted_matching(&g).total_weight;

            let pieces =
                partition_weighted(&g, k, PartitionStrategy::Random, &mut rng).expect("k >= 1");
            let builder = WeightedMatchingCoreset::default();
            let outputs: Vec<WeightedCoresetOutput> =
                pieces.iter().map(|p| builder.build(p)).collect();
            edge_counts.push(
                outputs
                    .iter()
                    .map(WeightedCoresetOutput::size)
                    .sum::<usize>() as f64
                    / k as f64,
            );
            let classes = outputs.iter().map(|o| o.classes.len()).max().unwrap_or(0);
            assert!(
                classes <= max_classes,
                "k = {k}, trial {t}: {classes} weight classes, more than {max_classes}"
            );
            class_counts.push(classes as f64);
            let composed = compose_weighted_matching(n, &outputs);
            assert!(composed.is_valid_for(&g));
            assert!(
                composed.total_weight >= MIN_RATIO * greedy_weight,
                "k = {k}, trial {t}: composed weight {} below {MIN_RATIO} x greedy {greedy_weight}",
                composed.total_weight
            );
            weights.push(composed.total_weight);
            greedy_weights.push(greedy_weight);
            ratios.push(composed.total_weight / greedy_weight);
        }
        table.add_row(vec![
            k.to_string(),
            fmt_f(Summary::of(&weights).mean),
            fmt_f(Summary::of(&greedy_weights).mean),
            fmt_f(Summary::of(&ratios).mean),
            fmt_f(Summary::of(&edge_counts).mean),
            fmt_f(Summary::of(&class_counts).mean),
        ]);
    }
    println!("{table}");
    println!("Expected shape (asserted per trial): the coreset/greedy ratio stays at or");
    println!("above {MIN_RATIO} for every k (the coreset loses at most a small constant factor");
    println!("against the baseline), and the number of weight classes is ~log2(max weight) ≈ 10,");
    println!("at most {max_classes}.");
}
