//! Integration tests running the full protocols on the *realistic* workload
//! generators (R-MAT, grids, power-law) that the experiment tables do not
//! cover, plus the LP lower bound as a tighter reference for vertex cover.

use coresets::{MaximumMatchingCoreset, PeelingVcCoreset};
use distsim::{CoordinatorProtocol, SimultaneousRun};
use graph::gen::powerlaw::chung_lu;
use graph::gen::rmat::{grid, rmat_graph500};
use graph::Graph;
use matching::maximum::maximum_matching;
use matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vertexcover::lp::lp_vertex_cover;
use vertexcover::VertexCover;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn matching_run(g: &Graph, k: usize, seed: u64) -> SimultaneousRun<Matching> {
    CoordinatorProtocol::random(k)
        .run_matching(g, &MaximumMatchingCoreset::new(), seed)
        .unwrap()
}

fn cover_run(g: &Graph, k: usize, seed: u64) -> SimultaneousRun<VertexCover> {
    CoordinatorProtocol::random(k)
        .run_vertex_cover(g, &PeelingVcCoreset::new(), seed)
        .unwrap()
}

#[test]
fn coresets_on_rmat_social_graph() {
    let g = rmat_graph500(11, 8, &mut rng(1)); // 2048 vertices, ~16k edges, heavy-tailed
    let opt = maximum_matching(&g).len();
    for k in [4usize, 16] {
        let m = matching_run(&g, k, 17).answer;
        assert!(m.is_valid_for(&g));
        assert!(9 * m.len() >= opt, "k={k}");

        assert!(cover_run(&g, k, 17).answer.covers(&g));
    }
}

#[test]
fn coresets_on_grid_graph() {
    // Grids are bipartite and near-regular: the opposite regime from R-MAT.
    let g = grid(40, 50); // 2000 vertices, 3910 edges
    let opt = maximum_matching(&g).len();
    assert_eq!(opt, 1000, "an even grid has a perfect matching");
    let m = matching_run(&g, 8, 23).answer;
    assert!(m.is_valid_for(&g));
    assert!(9 * m.len() >= opt);

    let c = cover_run(&g, 8, 23).answer;
    assert!(c.covers(&g));
    assert!(
        c.len() >= opt,
        "weak duality: any cover is at least the matching size"
    );
}

#[test]
fn lp_bound_tightens_the_vertex_cover_reference() {
    // On a power-law graph, the LP lower bound lies between the matching
    // bound and the composed cover, giving a tighter measured ratio.
    let g = chung_lu(1200, 2.4, 6.0, &mut rng(2));
    let mm = maximum_matching(&g).len() as f64;
    let lp = lp_vertex_cover(&g).objective();
    let cover = cover_run(&g, 6, 3).answer;
    assert!(cover.covers(&g));
    assert!(lp >= mm - 1e-9);
    assert!(
        cover.len() as f64 >= lp - 1e-9,
        "LP is a genuine lower bound on any cover"
    );
    // The measured ratio against the LP bound stays comfortably below log2 n.
    let ratio = cover.len() as f64 / lp.max(1.0);
    assert!(ratio <= (g.n() as f64).log2(), "ratio {ratio} vs log2(n)");
}

#[test]
fn coreset_sizes_follow_the_theory_on_rmat() {
    // Matching coresets are matchings (<= n/2 edges, so <= n words each)
    // even on skewed inputs; vertex-cover coresets stay within O(n log n)
    // edges plus vertices per machine, so within 2 n log n words.
    let g = rmat_graph500(11, 16, &mut rng(3));
    let n = g.n() as u64;
    let k = 8;
    let m = matching_run(&g, k, 7).communication;
    assert!(m.per_machine_words.iter().all(|&w| w <= n));
    let c = cover_run(&g, k, 7).communication;
    let n_log_n = (n as f64 * (n as f64).log2()).ceil() as u64;
    assert!(c.per_machine_words.iter().all(|&w| w <= 2 * n_log_n));
}
