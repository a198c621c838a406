//! E17 — fault-injected protocol runtime: machine-failure sweep, retry
//! recovery, degraded composition, and checksummed resumable arena runs.
//!
//! The coordinator model assumes every machine delivers its coreset. This
//! experiment measures what the protocol does when one doesn't: the
//! [`distsim::faults`] runtime fails machine attempts deterministically,
//! keyed by `(fault_seed, machine, attempt)` (a failed attempt delivers no
//! message, whether the machine crashed or the message was lost), retries
//! failed machines by **replaying their `machine_rng(seed, i)` stream**, and
//! falls through to composition over the survivors when a machine exhausts
//! its retry budget.
//!
//! The sweep runs the per-attempt failure probability
//! `p = 1 − (1 − s/k)³` for `s ∈ {0, 1, 2, 3}` (the rate at which three
//! independent chances of `s/k` fail an attempt) on a G(n,p) workload and a
//! skewed Chung–Lu power-law workload, for both matching and vertex cover,
//! and records the full fault accounting (injected / retried / recovered /
//! lost, simulated ticks, achieved versus fault-free ratio). Asserted
//! in-binary:
//!
//! * at `p = 0` the faulty runner is **bit-identical** to the fault-free
//!   protocol and injects nothing;
//! * a run whose every machine recovers within the retry budget is
//!   bit-identical to the fault-free run (retry-by-replay is invisible);
//! * every run that loses machines — at a sweep point or by **losing any
//!   single machine** — keeps the composed matching at least as large as
//!   the best surviving machine's own coreset answer (the graceful
//!   degradation guarantee of randomized composable coresets) and keeps the
//!   degraded vertex cover feasible for every surviving machine's edges;
//! * the out-of-core arena path survives injected transient failures and a
//!   mid-run kill: the checkpointed, resumed, fault-injected run is
//!   bit-identical to the clean streaming run.
//!
//! Emits `BENCH_faults.json`, which holds no timing, so a rerun reproduces
//! it byte for byte. Regenerate with
//! `cargo run --release -p bench --bin exp_fault_sweep`.

use bench::table::fmt_f;
use bench::Table;
use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::streams::machine_rng;
use coresets::vc_coreset::PeelingVcCoreset;
use coresets::{CoresetParams, MatchingProblem, VcProblem};
use distsim::{
    ArenaProtocol, CoordinatorProtocol, FaultPlan, FaultReport, FaultRunOptions, ProtocolError,
    RetryPolicy,
};
use graph::gen::er::gnp;
use graph::gen::powerlaw::chung_lu;
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{write_arena_file, ArenaFile, Graph};
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use vertexcover::VertexCover;

const SEED: u64 = 2017;
const FAULT_SEED: u64 = 0xE17;

/// One cell of the failure-probability sweep.
#[derive(Debug, Serialize)]
struct SweepPoint {
    workload: String,
    problem: String,
    /// Per-attempt failure probability fed to [`FaultPlan::machine_failure`].
    failure_prob: f64,
    answer_size: usize,
    fault_free_size: usize,
    /// `true` when the output equals the fault-free run exactly.
    bit_identical_to_fault_free: bool,
    faults: FaultReport,
}

/// Outcome of the forced single-machine-loss checks for one workload.
#[derive(Debug, Serialize)]
struct SingleLossCheck {
    workload: String,
    /// Machines individually killed (all of `0..k`).
    losses_checked: usize,
    /// Smallest degraded composed matching over the k single-loss runs.
    worst_degraded_matching: usize,
    /// Largest single surviving coreset answer the composition had to beat.
    best_survivor_floor: usize,
    fault_free_matching: usize,
}

/// Outcome of the resumable out-of-core section.
#[derive(Debug, Serialize)]
struct ArenaSection {
    k: usize,
    failure_prob: f64,
    injected: u64,
    retried: u64,
    ticks: u64,
    killed_after_leaves: usize,
    resumed_bit_identical: bool,
}

/// The whole `BENCH_faults.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    fault_seed: u64,
    k: usize,
    retry_max_attempts: u32,
    backoff_ticks: u64,
    points: Vec<SweepPoint>,
    single_loss: Vec<SingleLossCheck>,
    arena: ArenaSection,
}

/// `g`'s partition across `k` machines, drawn exactly as the protocol draws
/// it at [`SEED`].
fn partition_of(g: &Graph, k: usize) -> PartitionedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    PartitionedGraph::new(g, k, PartitionStrategy::Random, &mut rng)
        .expect("k >= 1 and the graph is non-empty")
}

/// Rebuilds each machine's coreset exactly as the protocol does and returns
/// the per-machine coreset answers (the size of a maximum matching of each
/// machine's own coreset).
fn per_machine_answers(partition: &PartitionedGraph) -> Vec<usize> {
    let params = CoresetParams::new(partition.n(), partition.k());
    let builder = MaximumMatchingCoreset::new();
    partition
        .views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            let coreset = builder.build(*piece, &params, i, &mut machine_rng(SEED, i));
            maximum_matching(&coreset).len()
        })
        .collect()
}

/// The largest coreset answer among the machines not in `lost`.
fn best_survivor(answers: &[usize], lost: &[usize]) -> usize {
    answers
        .iter()
        .enumerate()
        .filter(|(i, _)| !lost.contains(i))
        .map(|(_, &a)| a)
        .max()
        .expect("a degraded run keeps at least one survivor")
}

/// True if `cover` covers every edge of every piece whose machine is not in
/// `lost` (the lost machines' edges are unknowable to the coordinator).
fn covers_survivors(cover: &VertexCover, partition: &PartitionedGraph, lost: &[usize]) -> bool {
    partition
        .views()
        .iter()
        .enumerate()
        .all(|(i, piece)| lost.contains(&i) || cover.covers(piece))
}

fn main() {
    let (n, k, sweep_steps) = (4000usize, 8usize, 4usize);
    let retry = RetryPolicy {
        max_attempts: 8,
        backoff_ticks: 2,
    };

    println!("# E17: fault-injected, fault-tolerant protocol runtime\n");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let er = gnp(n, 12.0 / n as f64, &mut rng);
    let skew = chung_lu(n, 2.5, 8.0, &mut rng);
    let workloads: [(&str, &Graph); 2] = [("gnp", &er), ("chung-lu(2.5)", &skew)];
    println!(
        "Workloads: gnp n = {n}, m = {}; chung-lu n = {n}, m = {}; k = {k} machines, \
         retry budget {} attempts, base backoff {} ticks.\n",
        er.m(),
        skew.m(),
        retry.max_attempts,
        retry.backoff_ticks
    );

    let protocol = CoordinatorProtocol::random(k);
    let matching_builder = MaximumMatchingCoreset::new();
    let vc_builder = PeelingVcCoreset::new();
    let matching_problem = MatchingProblem(&matching_builder);
    let vc_problem = VcProblem(&vc_builder);
    let mut points = Vec::new();

    let mut table = Table::new(
        format!(
            "Machine-failure sweep (k = {k}, {} attempts)",
            retry.max_attempts
        ),
        &[
            "workload",
            "problem",
            "p",
            "answer",
            "fault-free",
            "injected",
            "retried",
            "lost",
            "ticks",
            "ratio",
        ],
    );

    for (name, g) in workloads {
        let partition = partition_of(g, k);
        let answers = per_machine_answers(&partition);
        let clean_matching = protocol
            .run_matching(g, &matching_builder, SEED)
            .expect("fault-free matching protocol runs");
        let clean_vc = protocol
            .run_vertex_cover(g, &vc_builder, SEED)
            .expect("fault-free vertex-cover protocol runs");

        for step in 0..sweep_steps {
            let p = 1.0 - (1.0 - step as f64 / k as f64).powi(3);
            let plan = FaultPlan::machine_failure(FAULT_SEED + step as u64, p);

            let faulty = protocol
                .run(g, &matching_problem, SEED, &plan, &retry)
                .expect("a machine survives at every sweep point");
            let identical = faulty.run.answer.edges() == clean_matching.answer.edges();
            if step == 0 {
                assert!(
                    identical && faulty.faults.injected == 0,
                    "p = 0 must be bit-identical to the fault-free run"
                );
            }
            let lost = &faulty.faults.lost_machines;
            if !faulty.faults.degraded {
                assert!(
                    identical,
                    "{name}: every machine recovered, yet the answer diverged \
                     from the fault-free run at p = {p}"
                );
            } else {
                assert!(
                    faulty.run.answer.len() >= best_survivor(&answers, lost),
                    "{name}: losing machines {lost:?} at p = {p} dropped the \
                     composed matching below the best surviving coreset answer"
                );
            }
            table.add_row(vec![
                name.to_string(),
                "matching".to_string(),
                fmt_f(p),
                faulty.run.answer.len().to_string(),
                clean_matching.answer.len().to_string(),
                faulty.faults.injected.to_string(),
                faulty.faults.retried.to_string(),
                faulty.faults.lost_machines.len().to_string(),
                faulty.faults.ticks.to_string(),
                faulty
                    .faults
                    .achieved_vs_fault_free
                    .map(fmt_f)
                    .unwrap_or_else(|| "-".to_string()),
            ]);
            points.push(SweepPoint {
                workload: name.to_string(),
                problem: "matching".to_string(),
                failure_prob: p,
                answer_size: faulty.run.answer.len(),
                fault_free_size: clean_matching.answer.len(),
                bit_identical_to_fault_free: identical,
                faults: faulty.faults,
            });

            let faulty_vc = protocol
                .run(g, &vc_problem, SEED, &plan, &retry)
                .expect("a machine survives at every sweep point");
            let identical_vc = faulty_vc.run.answer == clean_vc.answer;
            let lost = &faulty_vc.faults.lost_machines;
            if !faulty_vc.faults.degraded {
                assert!(
                    identical_vc,
                    "{name}: recovered vertex-cover run diverged at p = {p}"
                );
            } else {
                assert!(
                    covers_survivors(&faulty_vc.run.answer, &partition, lost),
                    "{name}: losing machines {lost:?} at p = {p} left a \
                     surviving edge uncovered"
                );
            }
            points.push(SweepPoint {
                workload: name.to_string(),
                problem: "vertex-cover".to_string(),
                failure_prob: p,
                answer_size: faulty_vc.run.answer.len(),
                fault_free_size: clean_vc.answer.len(),
                bit_identical_to_fault_free: identical_vc,
                faults: faulty_vc.faults,
            });
        }
    }
    println!("{table}");

    // --- Forced single-machine loss: the graceful-degradation guarantee. ---
    let mut single_loss = Vec::new();
    for (name, g) in workloads {
        let clean = protocol
            .run_matching(g, &matching_builder, SEED)
            .expect("fault-free matching protocol runs");
        let partition = partition_of(g, k);
        let answers = per_machine_answers(&partition);
        let mut worst = usize::MAX;
        let mut floor = 0usize;
        for lost in 0..k {
            let plan = FaultPlan::new(FAULT_SEED).losing(vec![lost]);
            let run = protocol
                .run(g, &matching_problem, SEED, &plan, &RetryPolicy::default())
                .expect("losing one of k >= 2 machines leaves survivors");
            let best = best_survivor(&answers, &[lost]);
            assert!(
                run.run.answer.len() >= best,
                "{name}: losing machine {lost} dropped the composed matching \
                 ({}) below the best surviving coreset answer ({best})",
                run.run.answer.len()
            );
            worst = worst.min(run.run.answer.len());
            floor = floor.max(best);

            let vc_run = protocol
                .run(g, &vc_problem, SEED, &plan, &RetryPolicy::default())
                .expect("losing one of k >= 2 machines leaves survivors");
            assert!(vc_run.faults.degraded && vc_run.faults.lost_machines == vec![lost]);
            assert!(
                covers_survivors(&vc_run.run.answer, &partition, &[lost]),
                "{name}: losing machine {lost} left a surviving edge uncovered"
            );
        }
        println!(
            "{name}: all {k} single-machine losses composed ≥ the best survivor \
             (worst degraded matching {worst}, fault-free {}).",
            clean.answer.len()
        );
        single_loss.push(SingleLossCheck {
            workload: name.to_string(),
            losses_checked: k,
            worst_degraded_matching: worst,
            best_survivor_floor: floor,
            fault_free_matching: clean.answer.len(),
        });
    }

    // --- Resumable out-of-core run under injected failures + a mid-run kill. ---
    let partition = partition_of(&er, k);
    let arena_path = std::env::temp_dir().join(format!("rc_e17_arena_{}.bin", std::process::id()));
    write_arena_file(&arena_path, &partition).expect("arena file is writable");
    let arena = ArenaFile::open(&arena_path).expect("freshly written arena reopens");
    drop(partition);

    let clean_ooc = ArenaProtocol::tree(2)
        .run_matching(&arena, &matching_builder, SEED)
        .expect("clean arena protocol runs");
    let ckpt_path = std::env::temp_dir().join(format!("rc_e17_ckpt_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&ckpt_path);
    let arena_failure_prob = 0.4;
    let killed_after_leaves = k / 2;
    let mut opts = FaultRunOptions {
        plan: FaultPlan::machine_failure(FAULT_SEED, arena_failure_prob),
        retry,
        checkpoint: Some(ckpt_path.clone()),
        kill_after_leaves: Some(killed_after_leaves),
    };
    let err = ArenaProtocol::tree(2)
        .run(&arena, &matching_problem, SEED, &opts)
        .expect_err("the kill knob must interrupt the run");
    assert_eq!(
        err,
        ProtocolError::Interrupted {
            pushed: killed_after_leaves
        }
    );
    opts.kill_after_leaves = None;
    let resumed = ArenaProtocol::tree(2)
        .run(&arena, &matching_problem, SEED, &opts)
        .expect("resumed run completes");
    let resumed_bit_identical = resumed.run.answer.edges() == clean_ooc.answer.edges();
    assert!(
        resumed_bit_identical,
        "the killed, checkpointed, fault-injected arena run must resume to \
         the clean streaming answer"
    );
    assert!(
        !ckpt_path.exists(),
        "a completed run must remove its checkpoint"
    );
    println!(
        "\nArena: killed after {killed_after_leaves}/{k} leaves under failure \
         injection (p = {arena_failure_prob}, {} injected, {} retried), resumed \
         bit-identically.",
        resumed.faults.injected, resumed.faults.retried
    );
    std::fs::remove_file(&arena_path).expect("temp arena file removes");

    let report = BenchReport {
        seed: SEED,
        fault_seed: FAULT_SEED,
        k,
        retry_max_attempts: retry.max_attempts,
        backoff_ticks: retry.backoff_ticks,
        points,
        single_loss,
        arena: ArenaSection {
            k,
            failure_prob: arena_failure_prob,
            injected: resumed.faults.injected,
            retried: resumed.faults.retried,
            ticks: resumed.faults.ticks,
            killed_after_leaves,
            resumed_bit_identical,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_faults.json", &json).expect("BENCH_faults.json is writable");
    println!("Wrote BENCH_faults.json ({} bytes).", json.len());
    println!(
        "Expected shape: recovered runs bit-identical at every p; degraded runs \
         never below the best survivor; ticks grow with injected retries."
    );
}
