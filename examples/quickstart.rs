//! Quickstart: build randomized composable coresets for matching and vertex
//! cover on a random graph, compose them, and compare against the optimum.
//!
//! Run with `cargo run --release --example quickstart`.

use coresets::{MaximumMatchingCoreset, PeelingVcCoreset};
use distsim::CoordinatorProtocol;
use graph::gen::er::gnp;
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. A random input graph: 20,000 vertices, average degree ~8.
    let n = 20_000;
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = gnp(n, 8.0 / n as f64, &mut rng);
    println!("input graph: n = {}, m = {}", g.n(), g.m());

    // 2. The model: the edges are randomly partitioned across k machines, each
    //    machine sends a small coreset, the coordinator solves on the union.
    let k = 16;
    let protocol = CoordinatorProtocol::random(k);

    // 3. Maximum matching (Theorem 1): each machine's coreset is any maximum
    //    matching of its piece, at most n/2 edges.
    let result = protocol
        .run_matching(&g, &MaximumMatchingCoreset::new(), 7)
        .expect("k >= 1");
    let opt = maximum_matching(&g).len();
    let words = result.communication.total_words();
    println!("\n-- maximum matching --");
    println!("optimum (whole graph):        {opt}");
    println!("coreset composition:          {}", result.answer.len());
    println!(
        "approximation ratio:          {:.3}",
        opt as f64 / result.answer.len() as f64
    );
    println!(
        "communication (words total):  {words} (~{:.2} per vertex per machine)",
        words as f64 / (n * k) as f64
    );

    // 4. Minimum vertex cover (Theorem 2): each machine peels its high-degree
    //    vertices and forwards the sparse residual subgraph.
    let result = protocol
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), 7)
        .expect("k >= 1");
    assert!(result.answer.covers(&g));
    println!("\n-- minimum vertex cover --");
    println!("matching lower bound on OPT:  {opt}");
    println!("coreset composition:          {}", result.answer.len());
    println!(
        "ratio vs lower bound:         {:.3}",
        result.answer.len() as f64 / opt as f64
    );
    println!(
        "communication (words total):  {}",
        result.communication.total_words()
    );
    println!("\n(the paper proves O(1) and O(log n) approximation respectively, w.h.p.)");
}
