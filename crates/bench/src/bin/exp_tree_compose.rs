//! E16 — hierarchical tree composition + out-of-core edge arena: the
//! protocol on a 10⁷-edge graph without ever holding the edge set in memory.
//!
//! The flat coordinator path materializes the whole partitioned edge set
//! (O(m) resident edges) before any machine runs. This experiment runs the
//! same protocol **end-to-end from an on-disk arena file**
//! (`graph::arena_file`): machine pieces are streamed one segment at a time
//! through a `SegmentLoader`, leaf coresets are folded through the
//! hierarchical composition tree (`coresets::tree`, fan-in 2 over `log k`
//! levels, each merge keeping a maximum matching of its union), and only the
//! final `≤ fan_in` roots are solved flat. Peak resident edges are tracked by
//! `graph::metrics` and **asserted in-binary**:
//!
//! * the frozen flat path (arena `load_all` + flat composition) peaks at
//!   `≥ m` resident edges — it holds the whole arena;
//! * the out-of-core tree path peaks at
//!   `≤ 2·(m/k + fan_in·(n/2)·(levels+1))` — one segment plus the live
//!   coreset layers and merge scratch — and strictly below the flat peak;
//! * the tree answer is at least the best single leaf coreset (each merge
//!   keeps a maximum matching of a union containing every child matching);
//! * the arena-streamed tree answer is **bit-identical** to the in-memory
//!   tree protocol at 1/2/4 worker threads and under two forced
//!   scheduler-fuzz seeds — the file format and the bounded-memory schedule
//!   are invisible in the output.
//!
//! The flat/tree approximation ratio is recorded honestly (keeping one
//! matching per node loses a constant factor per level in theory; measured
//! loss is the point of the experiment), not asserted. Each path is timed
//! over [`REPEATS`] runs ([`CI_REPEATS`] under `E16_CI`), every repeat
//! asserted to give the same answer and peak; the report records the median
//! wall time with its min and max.
//!
//! Emits `BENCH_compose.json`. Regenerate with
//! `cargo run --release -p bench --bin exp_tree_compose`
//! (`E16_CI=1` selects the reduced CI workload).

use bench::table::fmt_f;
use bench::{Summary, Table};
use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::streams::machine_rng;
use coresets::{solve_composed_matching, CoresetParams, TreePlan};
use distsim::{ArenaProtocol, CoordinatorProtocol};
use graph::gen::rmat::rmat_graph500;
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{metrics, write_arena_file, ArenaFile, Graph, SegmentLoader};
use matching::matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::sched_fuzz::with_fuzz;
use rayon::ThreadPoolBuilder;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 2017;
const FAN_IN: usize = 2;
/// Worker-thread sweep for the in-memory bit-identity cross-check.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
/// Forced scheduler-fuzz seeds for the adversarial-schedule cross-check.
const FUZZ_SEEDS: [u64; 2] = [21, 89];
/// Timed runs of each path on the full workload, and under `E16_CI`.
const REPEATS: usize = 5;
const CI_REPEATS: usize = 3;

/// The whole `BENCH_compose.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    ci_mode: bool,
    seed: u64,
    rmat_scale: u32,
    rmat_edge_factor: usize,
    n: usize,
    m: usize,
    k: usize,
    fan_in: usize,
    tree_levels: usize,
    arena_file_bytes: u64,
    /// Peak resident edges of the frozen flat path (load_all + flat solve).
    peak_resident_flat: u64,
    /// Peak resident edges of the out-of-core tree path.
    peak_resident_tree: u64,
    /// The asserted ceiling: `2·(m/k + fan_in·(n/2)·(levels+1))`.
    tree_peak_bound: u64,
    /// `peak_flat / peak_tree` — how much resident memory the tree saves.
    peak_reduction_factor: f64,
    flat_matching_size: usize,
    tree_matching_size: usize,
    /// `flat / tree` matching size — the (honest) cost of keeping one matching
    /// per merge node.
    flat_over_tree_ratio: f64,
    best_leaf_coreset_size: usize,
    /// Timed runs of each path.
    timing_repeats: usize,
    /// Median, min and max wall-clock seconds of the flat path's runs.
    flat_secs: f64,
    flat_secs_min: f64,
    flat_secs_max: f64,
    /// Median, min and max wall-clock seconds of the tree path's runs.
    tree_secs: f64,
    tree_secs_min: f64,
    tree_secs_max: f64,
    /// Thread counts whose in-memory tree run matched the arena run bit-for-bit.
    bit_identical_thread_counts: Vec<usize>,
    /// Fuzz seeds whose forced-adversarial schedule matched bit-for-bit.
    bit_identical_fuzz_seeds: Vec<u64>,
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored pool builder is infallible")
        .install(f)
}

/// Runs `path` `repeats` times, each from a fresh resident-edge peak, and
/// asserts that every repeat returns the first one's output and peak.
/// Returns that output, its peak and the wall-clock seconds of the repeats.
fn timed_repeats<T: PartialEq>(
    name: &str,
    repeats: usize,
    mut path: impl FnMut() -> T,
) -> (T, u64, Summary) {
    let mut secs = Vec::with_capacity(repeats);
    let mut first: Option<(T, u64)> = None;
    for repeat in 0..repeats {
        metrics::reset_peak_resident_edges();
        let start = Instant::now();
        let out = path();
        secs.push(start.elapsed().as_secs_f64());
        let peak = metrics::peak_resident_edges();
        match &first {
            None => first = Some((out, peak)),
            Some((out0, peak0)) => assert!(
                out == *out0 && peak == *peak0,
                "{name} repeat {repeat} differs from the first (peak {peak} vs {peak0})"
            ),
        }
    }
    let (out, peak) = first.expect("at least one repeat");
    (out, peak, Summary::of(&secs))
}

/// The frozen pre-arena coordinator path: materialize the **entire** arena
/// (`load_all`), build every leaf coreset with the whole edge set resident,
/// and solve the flat composition. Charges coresets and the final union
/// scratch to the resident-edge meter, exactly like the out-of-core runner,
/// so the two peaks are comparable, and releases them on return. Returns
/// the answer and the largest leaf coreset's size.
fn flat_baseline(
    arena: &ArenaFile,
    builder: &MaximumMatchingCoreset,
    params: &CoresetParams,
) -> (Matching, usize) {
    let mut loader = SegmentLoader::new(arena).expect("arena opens for flat baseline");
    let coresets: Vec<Graph> = {
        let views = loader.load_all().expect("arena reads for flat baseline");
        views
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                let c = builder.build(*piece, params, i, &mut machine_rng(SEED, i));
                metrics::record_resident_edges_acquired(c.m());
                c
            })
            .collect()
    };
    loader.release();
    let coreset_edges: usize = coresets.iter().map(Graph::m).sum();
    // The flat solve concatenates every coreset into one compaction pass.
    metrics::record_resident_edges_acquired(coreset_edges);
    let answer = solve_composed_matching(&coresets);
    metrics::record_resident_edges_released(2 * coreset_edges);
    (answer, coresets.iter().map(Graph::m).max().unwrap_or(0))
}

fn main() {
    let ci_mode = std::env::var("E16_CI").is_ok();
    // Full workload: 2^18 vertices, ~10^7 distinct R-MAT edges, 64 machines.
    // CI workload: 2^14 vertices, ~8·10^5 edges, 16 machines — same asserts.
    let (scale, edge_factor, k, repeats) = if ci_mode {
        (14u32, 50usize, 16usize, CI_REPEATS)
    } else {
        (18u32, 40usize, 64usize, REPEATS)
    };

    println!("# E16: hierarchical tree composition + out-of-core edge arena\n");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let gen_start = Instant::now();
    let g = rmat_graph500(scale, edge_factor, &mut rng);
    let (n, m) = (g.n(), g.m());
    println!(
        "Workload: R-MAT scale {scale}, edge factor {edge_factor}: n = {n}, m = {m} \
         ({:.1}s to generate); k = {k} machines, fan-in {FAN_IN}.",
        gen_start.elapsed().as_secs_f64()
    );

    // The partition is drawn exactly as `CoordinatorProtocol::run_matching`
    // draws it from the same seed, so the arena encodes the identical pieces
    // the in-memory runs below will compute on.
    let mut part_rng = ChaCha8Rng::seed_from_u64(SEED);
    let partition = PartitionedGraph::new(&g, k, PartitionStrategy::Random, &mut part_rng)
        .expect("k >= 1 and the graph is non-empty");
    let arena_path = std::env::temp_dir().join(format!("rc_e16_arena_{}.bin", std::process::id()));
    write_arena_file(&arena_path, &partition).expect("arena file is writable");
    let arena = ArenaFile::open(&arena_path).expect("freshly written arena reopens");
    let arena_file_bytes = std::fs::metadata(&arena_path)
        .expect("arena file has metadata")
        .len();
    drop(partition);
    println!(
        "Arena: {} bytes on disk at {} ({} segments).\n",
        arena_file_bytes,
        arena_path.display(),
        arena.k()
    );

    let builder = MaximumMatchingCoreset::new();
    let params = CoresetParams::new(n, k);
    let plan = TreePlan::new(k, FAN_IN);

    // --- Frozen flat path: whole arena resident, flat composition. ---
    let ((flat_answer, best_leaf_coreset_size), peak_resident_flat, flat_secs) =
        timed_repeats("flat path", repeats, || {
            flat_baseline(&arena, &builder, &params)
        });
    assert!(
        peak_resident_flat >= m as u64,
        "the flat path must hold the whole arena: peak {peak_resident_flat} < m = {m}"
    );

    // --- Out-of-core tree path: one segment at a time, log-k merging. ---
    let (tree_answer, peak_resident_tree, tree_secs) = timed_repeats("tree path", repeats, || {
        ArenaProtocol::tree(FAN_IN)
            .run_matching(&arena, &builder, SEED)
            .expect("arena protocol runs")
            .answer
    });

    let tree_peak_bound = (2 * (m / k + FAN_IN * (n / 2) * (plan.levels() + 1))) as u64;
    assert!(
        peak_resident_tree <= tree_peak_bound,
        "out-of-core tree peak {peak_resident_tree} exceeds the bound {tree_peak_bound}"
    );
    assert!(
        peak_resident_tree < peak_resident_flat,
        "the tree path must peak strictly below the flat path \
         ({peak_resident_tree} vs {peak_resident_flat})"
    );
    assert!(
        tree_answer.len() >= best_leaf_coreset_size,
        "every merge solves a union containing each child matching, so the tree \
         answer ({}) cannot drop below the best leaf coreset ({best_leaf_coreset_size})",
        tree_answer.len()
    );

    // --- Bit-identity: in-memory tree protocol across thread counts and
    //     forced-adversarial schedules must equal the arena-streamed answer. ---
    let protocol = CoordinatorProtocol::tree(k, FAN_IN);
    let mut bit_identical_thread_counts = Vec::new();
    for &threads in &THREAD_SWEEP {
        let run = with_threads(threads, || {
            protocol
                .run_matching(&g, &builder, SEED)
                .expect("in-memory tree protocol runs")
        });
        assert_eq!(
            run.answer.edges(),
            tree_answer.edges(),
            "in-memory tree at {threads} thread(s) diverged from the arena run"
        );
        bit_identical_thread_counts.push(threads);
    }
    let mut bit_identical_fuzz_seeds = Vec::new();
    for &fuzz in &FUZZ_SEEDS {
        let run = with_fuzz(Some(fuzz), || {
            with_threads(4, || {
                protocol
                    .run_matching(&g, &builder, SEED)
                    .expect("fuzzed tree protocol runs")
            })
        });
        assert_eq!(
            run.answer.edges(),
            tree_answer.edges(),
            "fuzz seed {fuzz} diverged from the arena run"
        );
        bit_identical_fuzz_seeds.push(fuzz);
    }
    println!(
        "Bit-identity: arena answer reproduced at {:?} threads and fuzz seeds {:?}.\n",
        bit_identical_thread_counts, bit_identical_fuzz_seeds
    );

    let peak_reduction_factor = peak_resident_flat as f64 / peak_resident_tree.max(1) as f64;
    let flat_over_tree_ratio = flat_answer.len() as f64 / tree_answer.len().max(1) as f64;

    let mut table = Table::new(
        format!("Flat vs out-of-core tree composition (k = {k}, fan-in {FAN_IN})"),
        &["path", "peak resident edges", "matching", "median secs"],
    );
    table.add_row(vec![
        "flat (whole arena)".to_string(),
        peak_resident_flat.to_string(),
        flat_answer.len().to_string(),
        format!("{:.2}", flat_secs.median),
    ]);
    table.add_row(vec![
        format!("tree (streamed, {} levels)", plan.levels()),
        peak_resident_tree.to_string(),
        tree_answer.len().to_string(),
        format!("{:.2}", tree_secs.median),
    ]);
    println!("{table}");
    println!(
        "Peak reduction {}x (bound was {tree_peak_bound}); flat/tree matching ratio {} \
         (recorded, not asserted).",
        fmt_f(peak_reduction_factor),
        fmt_f(flat_over_tree_ratio)
    );

    let report = BenchReport {
        ci_mode,
        seed: SEED,
        rmat_scale: scale,
        rmat_edge_factor: edge_factor,
        n,
        m,
        k,
        fan_in: FAN_IN,
        tree_levels: plan.levels(),
        arena_file_bytes,
        peak_resident_flat,
        peak_resident_tree,
        tree_peak_bound,
        peak_reduction_factor,
        flat_matching_size: flat_answer.len(),
        tree_matching_size: tree_answer.len(),
        flat_over_tree_ratio,
        best_leaf_coreset_size,
        timing_repeats: repeats,
        flat_secs: flat_secs.median,
        flat_secs_min: flat_secs.min,
        flat_secs_max: flat_secs.max,
        tree_secs: tree_secs.median,
        tree_secs_min: tree_secs.min,
        tree_secs_max: tree_secs.max,
        bit_identical_thread_counts,
        bit_identical_fuzz_seeds,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_compose.json", &json).expect("BENCH_compose.json is writable");
    println!("Wrote BENCH_compose.json ({} bytes).", json.len());

    std::fs::remove_file(&arena_path).expect("temp arena file removes");
    println!(
        "Removed temp arena {}. Expected shape: tree peak ~levels·n versus flat peak ~m;",
        arena_path.display()
    );
    println!("matching ratio near 1.0 — each merge keeps a maximum matching of its union.");
}
