//! Experiment E7 — communication of the simultaneous protocols (Results 1 and
//! 3, Remarks 5.2 and 5.8): total communication is Õ(nk) for the exact-coreset
//! protocols and scales like nk/α² (matching) and nk/α (vertex cover) for the
//! α-approximate variants.
//!
//! Regenerate with `cargo run --release -p bench --bin exp_communication`.

use bench::table::fmt_f;
use bench::{trial_seed, Table};
use coresets::{
    CoresetParams, GroupedVcCoreset, MaximumMatchingCoreset, PeelingVcCoreset,
    SubsampledMatchingCoreset,
};
use distsim::CoordinatorProtocol;
use graph::gen::bipartite::planted_matching_bipartite;
use graph::{Graph, PartitionedGraph};
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vertexcover::approx::two_approx_cover;
use vertexcover::VertexCover;

const EXP_ID: u64 = 7;

/// `(achieved matching size, total words)` of a random-partition run of the
/// matching protocol whose machines send `builder`'s coresets.
fn matching_run<B: coresets::MatchingCoresetBuilder>(
    g: &Graph,
    k: usize,
    builder: &B,
    seed: u64,
) -> (usize, u64) {
    let run = CoordinatorProtocol::random(k)
        .run_matching(g, builder, seed)
        .expect("k >= 1");
    (run.answer.len(), run.communication.total_words())
}

/// `(cover size, total words)` of the Theorem 2 peeling protocol.
fn peeling_run(g: &Graph, k: usize, seed: u64) -> (usize, u64) {
    let run = CoordinatorProtocol::random(k)
        .run_vertex_cover(g, &PeelingVcCoreset::new(), seed)
        .expect("k >= 1");
    (run.answer.len(), run.communication.total_words())
}

/// `(cover, total words)` of the Remark 5.8 grouped protocol: the Theorem 2
/// coreset runs on the contracted graph and the cover is expanded back.
/// Communication is charged on the contracted coresets, each item as if it
/// were an edge (2 ids), a conservative upper bound.
fn grouped_run(g: &Graph, k: usize, alpha: f64, seed: u64) -> (VertexCover, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::random(g, k, &mut rng).expect("k >= 1");
    let params = CoresetParams::new(g.n(), k);
    let grouped = GroupedVcCoreset::for_alpha(alpha, g.n());
    let (cover, sizes) = grouped.run_protocol(&partition.views(), &params, seed);
    let words = sizes.iter().map(|&s| 2 * s as u64).sum();
    (VertexCover::from_vertices(cover), words)
}

fn main() {
    println!("# E7 — communication of the simultaneous protocols (Results 1 & 3)\n");
    println!("Paper claims: Õ(nk) total communication for the O(1)/O(log n) protocols;");
    println!("Remark 5.2 gives an α-approximate matching protocol with Õ(nk/α²) words and");
    println!("Remark 5.8 an α-approximate vertex-cover protocol with Õ(nk/α) words.\n");

    let side = 6000usize;
    let mut rng = ChaCha8Rng::seed_from_u64(trial_seed(EXP_ID, 0));
    let (bg, _) = planted_matching_bipartite(side, 0.0008, &mut rng);
    let g = bg.to_graph();
    let n = g.n();
    let matching_opt = maximum_matching(&g).len();
    let cover_ref = two_approx_cover(&g).len().max(1);

    // Part 1: scaling with k for the exact-coreset protocols.
    let mut table_k = Table::new(
        format!("E7a: total communication vs k (n = {n}, m = {})", g.m()),
        &[
            "k",
            "matching words",
            "matching words / nk",
            "matching ratio",
            "vc words",
            "vc words / nk",
            "vc ratio",
        ],
    );
    for k in [4usize, 8, 16, 32, 64] {
        let seed = trial_seed(EXP_ID, 10 + k as u64);
        let (matched, mat_words) = matching_run(&g, k, &MaximumMatchingCoreset::new(), seed);
        let (cover, vc_words) = peeling_run(&g, k, seed);
        let nk = (n * k) as f64;
        table_k.add_row(vec![
            k.to_string(),
            mat_words.to_string(),
            fmt_f(mat_words as f64 / nk),
            fmt_f(matching_opt as f64 / matched as f64),
            vc_words.to_string(),
            fmt_f(vc_words as f64 / nk),
            fmt_f(cover as f64 / cover_ref as f64),
        ]);
    }
    println!("{table_k}");
    println!("Expected shape: both `words / nk` columns are bounded by a constant");
    println!("(≈ 1 for matching because each message is a matching of ≤ n/2 edges).\n");

    // Part 2: the α-tradeoffs of Remarks 5.2 and 5.8.
    let k = 16usize;
    let mut table_alpha = Table::new(
        format!("E7b: α-approximation / communication trade-off at k = {k}"),
        &[
            "alpha",
            "subsampled words",
            "words x alpha^2 / nk",
            "subsampled ratio",
            "grouped vc words",
            "words x alpha / (nk log n)",
            "grouped vc ratio",
        ],
    );
    for alpha in [2.0f64, 4.0, 8.0, 16.0] {
        let seed = trial_seed(EXP_ID, 1000 + alpha as u64);
        let (matched, sub_words) =
            matching_run(&g, k, &SubsampledMatchingCoreset::new(alpha), seed);
        let (grouped, grouped_words) = grouped_run(&g, k, alpha, seed);
        let nk = (n * k) as f64;
        let log_n = (n as f64).log2();
        table_alpha.add_row(vec![
            fmt_f(alpha),
            sub_words.to_string(),
            fmt_f(sub_words as f64 * alpha * alpha / nk),
            fmt_f(matching_opt as f64 / matched as f64),
            grouped_words.to_string(),
            fmt_f(grouped_words as f64 * alpha / (nk * log_n)),
            fmt_f(grouped.len() as f64 / cover_ref as f64),
        ]);
    }
    println!("{table_alpha}");
    println!("Expected shape: the normalised subsampled-words column stays roughly constant");
    println!("as alpha grows (communication falls like 1/alpha^2) while its ratio grows at");
    println!("most linearly with alpha. At this sparsity the grouped protocol's group size");
    println!("is 1 for alpha <= log n, so its savings only appear in E7c below.\n");

    // Part 3: Remark 5.8 on a *dense* input, where the peeling bound (rather
    // than the raw piece size) limits the residual and grouping pays off.
    let k_dense = 4usize;
    let n_dense = 4000usize;
    let mut rng = ChaCha8Rng::seed_from_u64(trial_seed(EXP_ID, 9999));
    let dense = graph::gen::er::gnp(n_dense, 0.025, &mut rng);
    let dense_cover_ref = two_approx_cover(&dense).len().max(1);
    let (_, dense_base_words) = peeling_run(&dense, k_dense, trial_seed(EXP_ID, 500));

    let mut table_dense = Table::new(
        format!(
            "E7c: Remark 5.8 on a dense input (n = {n_dense}, m = {}, k = {k_dense}); ungrouped peeling protocol uses {} words",
            dense.m(),
            dense_base_words
        ),
        &["alpha", "group size", "grouped words", "words / ungrouped words", "grouped vc ratio", "feasible"],
    );
    for alpha in [32.0f64, 64.0, 128.0, 256.0] {
        let (grouped, grouped_words) = grouped_run(
            &dense,
            k_dense,
            alpha,
            trial_seed(EXP_ID, 600 + alpha as u64),
        );
        let group_size = ((alpha / (n_dense as f64).log2()).floor() as usize).max(1);
        table_dense.add_row(vec![
            fmt_f(alpha),
            group_size.to_string(),
            grouped_words.to_string(),
            fmt_f(grouped_words as f64 / dense_base_words as f64),
            fmt_f(grouped.len() as f64 / dense_cover_ref as f64),
            grouped.covers(&dense).to_string(),
        ]);
    }
    println!("{table_dense}");
    println!("Expected shape: once alpha exceeds log n (group size > 1) the grouped words");
    println!("drop well below the ungrouped protocol and keep shrinking roughly like 1/alpha,");
    println!("while the cover stays feasible and within alpha of the reference.");
}
