//! E18 — dynamic edge-churn serving: dirty-piece re-coresets vs the naive
//! full-repartition-re-solve baseline.
//!
//! A [`distsim::GraphService`] absorbs batches of edge inserts/deletes
//! through a churn-stable hash partition, updates an incremental maximal
//! matching and matched-endpoint cover with every op, and after each batch
//! rebuilds coresets **only for machines whose piece fingerprint changed**
//! before recomposing the protocol answers from its fingerprint-keyed cache;
//! each batch reports the incremental sizes beside those answers. The baseline, [`distsim::naive_full_round`] (the
//! coordinator driver on an edge-hash partition), does what a batch-only
//! pipeline must do on every batch: re-partition the whole current graph
//! from scratch and rebuild all `k` machines' coresets.
//!
//! Correctness is asserted before any number is recorded:
//!
//! * after **every** batch, the service's composed matching and cover are
//!   bit-identical to the naive from-scratch round on the current graph
//!   (the cache-reuse soundness claim, end to end);
//! * the incremental maximal matching is at least half the composed answer;
//! * the whole run materializes **zero** piece edge buffers
//!   ([`graph::metrics::MetricsScope`] — both paths compute on zero-copy
//!   views);
//! * the complete answer stream is bit-identical at 1 / 4 worker threads and
//!   under two forced scheduler-fuzz seeds.
//!
//! The headline metric is sustained **updates/sec** (batch wall-clock,
//! answers recomposed every batch). The ≥ [`SPEEDUP_BAR`]× service-vs-naive
//! bar (naive total ÷ service total) is asserted only when the dirty
//! fraction is genuinely small (`ops_per_batch ≪ k`, the full workload); the
//! reduced CI workload records its ratio honestly without asserting
//! (`bar_asserted = false`). The full workload runs 40 batches of ≈ 15 ms,
//! so one batch slowed by a busy shared host moves the ratio by a few
//! percent rather than tens; the report also records the median per-batch
//! ratio and the slowest service batch, which show such a batch directly.
//!
//! Emits `BENCH_dynamic.json`. Regenerate with
//! `cargo run --release -p bench --bin exp_dynamic_churn`
//! (`E18_CI=1` selects the reduced CI workload).

use bench::table::fmt_f;
use bench::{Summary, Table};
use distsim::{naive_full_round, GraphService, GraphServiceConfig};
use graph::gen::er::gnp;
use graph::metrics::MetricsScope;
use graph::{fingerprint_edges, ChurnOp, Edge, Graph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::sched_fuzz::with_fuzz;
use rayon::ThreadPoolBuilder;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 2017;
const EPS: f64 = 0.5;
const SPEEDUP_BAR: f64 = 5.0;
const FUZZ_SEEDS: [u64; 2] = [21, 89];

/// One batch of churn: service and naive timings plus the asserted answers.
#[derive(Debug, Serialize)]
struct BatchSample {
    batch: usize,
    ops: usize,
    /// Ops that changed the edge set.
    applied: usize,
    machines_rebuilt: usize,
    machines_cached: usize,
    /// Service wall-clock for the batch: partition updates + incremental
    /// repairs + dirty-only rebuilds + recomposition.
    service_secs: f64,
    /// Naive wall-clock for the same state: full re-partition + all-`k`
    /// coreset rebuilds + composition (current graph handed over for free).
    naive_secs: f64,
    /// Composed answers (asserted equal between service and naive).
    matching_size: usize,
    cover_size: usize,
    /// Incremental answer sizes after the batch.
    approx_matching_size: usize,
    approx_cover_size: usize,
}

/// One determinism probe: the scenario's complete answer-stream fingerprint
/// under a pinned thread count / scheduler-fuzz seed.
#[derive(Debug, Serialize)]
struct DeterminismProbe {
    threads: usize,
    fuzz_seed: Option<u64>,
    answer_fingerprint: String,
}

/// The whole `BENCH_dynamic.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    host_available_parallelism: usize,
    ci_mode: bool,
    seed: u64,
    eps: f64,
    n: usize,
    k: usize,
    initial_m: usize,
    final_m: usize,
    batches: usize,
    ops_per_batch: usize,
    total_ops: usize,
    total_applied: usize,
    service_total_secs: f64,
    naive_total_secs: f64,
    service_updates_per_sec: f64,
    naive_updates_per_sec: f64,
    /// `naive / service` wall-clock — >1 means the dirty-piece path wins.
    speedup: f64,
    /// Median over batches of each batch's `naive / service` ratio: the
    /// same comparison, insensitive to one slow batch.
    median_batch_speedup: f64,
    /// The slowest batch's service wall-clock, and its index.
    slowest_service_secs: f64,
    slowest_service_batch: usize,
    speedup_bar: f64,
    /// Whether the ≥ [`SPEEDUP_BAR`] assertion was armed (full workload,
    /// `ops_per_batch ≪ k`); the CI workload records its ratio honestly.
    bar_asserted: bool,
    /// Cumulative (hits, misses) of the service's coreset cache over the
    /// run (one probe per machine per batch).
    cache_hits: u64,
    cache_misses: u64,
    /// Piece edge buffers materialized across the whole run (asserted 0).
    piece_edges_materialized: u64,
    determinism: Vec<DeterminismProbe>,
    batch_samples: Vec<BatchSample>,
}

/// The deterministic churn stream for one batch: half fresh inserts, half
/// deletes of currently present edges (so churn keeps biting), derived from
/// `(SEED, batch)` only.
fn batch_ops(current: &Graph, n: usize, count: usize, batch: usize) -> Vec<ChurnOp> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ (0xE18 + batch as u64));
    let edges = current.edges();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        if !edges.is_empty() && rng.gen_bool(0.5) {
            ops.push(ChurnOp::Delete(edges[rng.gen_range(0..edges.len())]));
        } else {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            ops.push(ChurnOp::Insert(Edge::new(u, v)));
        }
    }
    ops
}

/// Folds one composed answer pair plus the incremental sizes into a running
/// fingerprint (order-sensitive, like `graph::fingerprint_edges`).
fn fold_answers(
    acc: u64,
    matching: &matching::Matching,
    cover: &vertexcover::VertexCover,
    approx_matching: usize,
    approx_cover: usize,
) -> u64 {
    let mut h = acc ^ fingerprint_edges(matching.edges());
    for v in cover.sorted_vertices() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(v as u64);
    }
    h.wrapping_mul(31)
        .wrapping_add(approx_matching as u64)
        .wrapping_mul(31)
        .wrapping_add(approx_cover as u64)
}

/// Runs the full churn scenario (no naive rounds, no timing) and returns the
/// fingerprint of its complete answer stream — the determinism probe body.
fn scenario_fingerprint(
    g: &Graph,
    n: usize,
    k: usize,
    batches: usize,
    ops_per_batch: usize,
) -> u64 {
    let mut svc = GraphService::new(
        g,
        GraphServiceConfig {
            k,
            seed: SEED,
            eps: EPS,
        },
    )
    .expect("service");
    let mut acc = 0u64;
    for batch in 0..batches {
        let ops = batch_ops(&svc.current_graph(), n, ops_per_batch, batch);
        let outcome = svc.apply_batch(&ops).expect("batch");
        acc = fold_answers(
            acc,
            svc.matching(),
            svc.cover(),
            outcome.approx_matching_size,
            outcome.approx_cover_size,
        );
    }
    acc
}

fn main() {
    let ci_mode = std::env::var("E18_CI").is_ok();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The dense regime is where coresets actually compress — each machine's
    // piece (m/k edges) shrinks to a <= n/2-edge coreset, so the naive
    // path's full rebuild + repartition dominates the shared composed solve
    // and the dirty-piece cache pays off. Full: m ~ 800k edges vs a
    // <= 128k-edge coreset union, 4-op batches over k = 64 machines. CI:
    // the same regime shrunk.
    let (n, k, batches, ops_per_batch, avg_deg) = if ci_mode {
        (1_500usize, 32usize, 5usize, 4usize, 150.0)
    } else {
        (4_000usize, 64usize, 40usize, 4usize, 400.0)
    };

    println!(
        "# E18: dynamic edge-churn serving (dirty-piece re-coresets vs naive full re-solve)\n"
    );
    println!(
        "Host cores: {cores}; n = {n}, k = {k} machines, {batches} batches x {ops_per_batch} ops;"
    );
    println!("per-batch answers asserted equal to a from-scratch batch round first.\n");

    let g = gnp(n, avg_deg / n as f64, &mut ChaCha8Rng::seed_from_u64(SEED));
    let initial_m = g.m();

    let scope = MetricsScope::enter();
    let mut svc = GraphService::new(
        &g,
        GraphServiceConfig {
            k,
            seed: SEED,
            eps: EPS,
        },
    )
    .expect("service construction");
    let mut acc = 0u64;
    let mut samples: Vec<BatchSample> = Vec::with_capacity(batches);
    let mut service_total_secs = 0.0f64;
    let mut naive_total_secs = 0.0f64;
    let mut total_applied = 0usize;
    for batch in 0..batches {
        let ops = batch_ops(&svc.current_graph(), n, ops_per_batch, batch);

        let t = Instant::now();
        let outcome = svc.apply_batch(&ops).expect("service batch");
        let service_secs = t.elapsed().as_secs_f64();
        service_total_secs += service_secs;
        total_applied += outcome.applied;

        // The naive baseline gets the current graph for free and still must
        // re-partition and rebuild everything.
        let current = svc.current_graph();
        let t = Instant::now();
        let (naive_matching, naive_cover) =
            naive_full_round(&current, k, SEED).expect("naive round");
        let naive_secs = t.elapsed().as_secs_f64();
        naive_total_secs += naive_secs;

        // The headline correctness claims, per batch.
        assert_eq!(
            svc.matching(),
            &naive_matching,
            "batch {batch}: cached composition diverged from the from-scratch matching"
        );
        assert_eq!(
            svc.cover(),
            &naive_cover,
            "batch {batch}: cached composition diverged from the from-scratch cover"
        );
        assert!(
            2 * outcome.approx_matching_size >= outcome.matching_size,
            "batch {batch}: maximal incremental matching below half the composed answer"
        );
        assert!(
            svc.incremental().cover().covers(&current),
            "batch {batch}: incremental cover infeasible"
        );

        acc = fold_answers(
            acc,
            svc.matching(),
            svc.cover(),
            outcome.approx_matching_size,
            outcome.approx_cover_size,
        );
        samples.push(BatchSample {
            batch,
            ops: ops.len(),
            applied: outcome.applied,
            machines_rebuilt: outcome.machines_rebuilt,
            machines_cached: outcome.machines_cached,
            service_secs,
            naive_secs,
            matching_size: outcome.matching_size,
            cover_size: outcome.cover_size,
            approx_matching_size: outcome.approx_matching_size,
            approx_cover_size: outcome.approx_cover_size,
        });
    }
    let final_m = svc.m();
    let piece_edges_materialized = scope.piece_edges_materialized();
    assert_eq!(
        piece_edges_materialized, 0,
        "both paths must compute on zero-copy piece views"
    );

    let mut table = Table::new(
        format!("Per-batch wall-clock: dirty-piece service vs naive full round (k = {k})"),
        &[
            "batch",
            "applied",
            "rebuilt",
            "cached",
            "service s",
            "naive s",
            "speedup",
            "matching",
            "cover",
        ],
    );
    for s in &samples {
        table.add_row(vec![
            s.batch.to_string(),
            s.applied.to_string(),
            s.machines_rebuilt.to_string(),
            s.machines_cached.to_string(),
            format!("{:.5}", s.service_secs),
            format!("{:.5}", s.naive_secs),
            fmt_f(s.naive_secs / s.service_secs.max(f64::MIN_POSITIVE)),
            s.matching_size.to_string(),
            s.cover_size.to_string(),
        ]);
    }
    println!("{table}");

    // Determinism probes: the complete answer stream is bit-identical at
    // 1 / 4 worker threads and under forced scheduler-fuzz seeds.
    let probe = || scenario_fingerprint(&g, n, k, batches, ops_per_batch);
    let mut determinism = Vec::new();
    let reference = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(probe);
    assert_eq!(reference, acc, "probe replay diverged from the timed run");
    determinism.push(DeterminismProbe {
        threads: 1,
        fuzz_seed: None,
        answer_fingerprint: format!("{reference:#018x}"),
    });
    for (threads, fuzz) in [
        (4usize, None),
        (4, Some(FUZZ_SEEDS[0])),
        (4, Some(FUZZ_SEEDS[1])),
    ] {
        let run = || {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(probe)
        };
        let got = match fuzz {
            Some(f) => with_fuzz(Some(f), run),
            None => run(),
        };
        assert_eq!(
            got, reference,
            "answer stream diverged at {threads} threads, fuzz {fuzz:?}"
        );
        determinism.push(DeterminismProbe {
            threads,
            fuzz_seed: fuzz,
            answer_fingerprint: format!("{got:#018x}"),
        });
    }
    println!(
        "Determinism: {} probes bit-identical (1t, 4t, fuzz {FUZZ_SEEDS:?}).\n",
        1 + 3
    );

    let service_updates_per_sec = total_applied as f64 / service_total_secs.max(f64::MIN_POSITIVE);
    let naive_updates_per_sec = total_applied as f64 / naive_total_secs.max(f64::MIN_POSITIVE);
    let speedup = naive_total_secs / service_total_secs.max(f64::MIN_POSITIVE);
    let ratios: Vec<f64> = samples
        .iter()
        .map(|s| s.naive_secs / s.service_secs.max(f64::MIN_POSITIVE))
        .collect();
    let median_batch_speedup = Summary::of(&ratios).median;
    let slowest = samples
        .iter()
        .max_by(|a, b| a.service_secs.total_cmp(&b.service_secs))
        .expect("at least one batch");
    let (slowest_service_secs, slowest_service_batch) = (slowest.service_secs, slowest.batch);
    println!(
        "Median per-batch speedup {median_batch_speedup:.2}x; slowest service batch \
         {slowest_service_batch} took {slowest_service_secs:.5} s.\n"
    );
    // The bar measures the dirty-fraction advantage: armed on the full
    // workload where ops_per_batch << k guarantees most machines are clean.
    // The reduced CI workload (and any future shrunken run) records honestly.
    let bar_asserted = !ci_mode;
    if bar_asserted {
        assert!(
            speedup >= SPEEDUP_BAR,
            "dirty-piece serving must sustain >= {SPEEDUP_BAR}x the naive full-round \
             update rate; measured {speedup:.2}x"
        );
        println!(
            "BAR PASSED: {speedup:.2}x naive wall-clock ({:.0} vs {:.0} updates/sec, >= {SPEEDUP_BAR}x).",
            service_updates_per_sec, naive_updates_per_sec
        );
    } else {
        println!(
            "CI workload: speedup bar not asserted; measured {speedup:.2}x recorded honestly."
        );
    }

    let (cache_hits, cache_misses) = svc.matching_cache_stats();
    let report = BenchReport {
        host_available_parallelism: cores,
        ci_mode,
        seed: SEED,
        eps: EPS,
        n,
        k,
        initial_m,
        final_m,
        batches,
        ops_per_batch,
        total_ops: batches * ops_per_batch,
        total_applied,
        service_total_secs,
        naive_total_secs,
        service_updates_per_sec,
        naive_updates_per_sec,
        speedup,
        median_batch_speedup,
        slowest_service_secs,
        slowest_service_batch,
        speedup_bar: SPEEDUP_BAR,
        bar_asserted,
        cache_hits,
        cache_misses,
        piece_edges_materialized,
        determinism,
        batch_samples: samples,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_dynamic.json", &json).expect("BENCH_dynamic.json is writable");
    println!("Wrote BENCH_dynamic.json ({} bytes).", json.len());
    println!("Expected shape: >= {SPEEDUP_BAR}x on the full workload (<= {ops_per_batch} of {k}");
    println!("machines rebuilt per batch vs all {k}); answers identical to from-scratch rounds.");
}
