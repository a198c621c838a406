//! Deterministic fault injection for protocol runs.
//!
//! The runtime simulates unreliable machines without giving up the
//! workspace's bit-reproducibility guarantee: every fault decision is a
//! **pure function** of `(fault_seed, site, attempt)` — no RNG state, no wall
//! clock, no thread identity — so the same [`FaultPlan`] injects the same
//! failures at the same sites for any thread count, any schedule, and any
//! `RC_SCHED_FUZZ` seed. Time is a *simulated tick clock*: retry backoff and
//! straggler delays are accounted as tick counts summed per machine
//! (order-independent), never measured with `Instant::now`.
//!
//! The fault-site taxonomy, in the order [`FaultInjector::decide`] checks
//! it:
//!
//! | site                  | effect                                            |
//! |-----------------------|---------------------------------------------------|
//! | piece read            | reading the machine's piece fails transiently     |
//! | crash before summarize| machine dies before building its coreset          |
//! | crash after summarize | coreset built, machine dies before sending        |
//! | message lost          | coreset built and sent, never arrives             |
//! | straggler             | coreset arrives after `straggler_ticks` extra ticks|
//!
//! Every site is decided here, and every failed attempt — injected, or a
//! real read error such as an arena segment failing its CRC — is retried by
//! the one loop in [`run_machine_with_faults`], against one budget and one
//! backoff schedule per machine. Recovery is **retry by replay**: a failed
//! attempt re-derives the machine's private `machine_rng(seed, i)` stream
//! from scratch, so a run in which every machine eventually succeeds is
//! bit-identical to the fault-free run. Machines that exhaust the budget are
//! *permanently lost* and handled by the [`DegradedComposition`] policy.

use graph::mix64;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Salt decorrelating crash-before-summarize decisions.
const SALT_CRASH_BEFORE: u64 = 0xFA17_57A6_E001_C4A5;
/// Salt decorrelating crash-after-summarize decisions.
const SALT_CRASH_AFTER: u64 = 0xFA17_57A6_E002_C4A5;
/// Salt decorrelating message-loss decisions.
const SALT_MESSAGE_LOST: u64 = 0xFA17_57A6_E003_4057;
/// Salt decorrelating straggler decisions.
const SALT_STRAGGLER: u64 = 0xFA17_57A6_E004_57A6;
/// Salt decorrelating piece-read decisions.
const SALT_SEGMENT_IO: u64 = 0x51DE_10AD_1001_F417;

/// Deterministic unit-interval draw for one `(seed, machine, attempt, salt)`
/// site — the pure replacement for "roll a die when the fault might happen".
fn site_unit(seed: u64, machine: usize, attempt: u32, salt: u64) -> f64 {
    let state = seed
        ^ (machine as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ salt;
    // The second draw of a SplitMix64 generator started at `state`.
    let x = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A machine-level fault selected for one `(machine, attempt)` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineFault {
    /// Reading the machine's piece fails transiently (in out-of-core runs,
    /// its arena segment): no coreset is built and the attempt fails.
    SegmentRead,
    /// The machine dies before its summarize step: no coreset is built and
    /// the attempt fails.
    CrashBeforeSummarize,
    /// The machine builds its coreset (paying the work), then dies before the
    /// message leaves: the attempt fails.
    CrashAfterSummarize,
    /// The coreset is built and sent but the message never arrives: the
    /// attempt fails.
    MessageLost,
    /// The machine is slow: the attempt *succeeds* but spends
    /// [`FaultPlan::straggler_ticks`] extra simulated ticks.
    Straggler,
}

/// What the coordinator does about machines that exhausted their retry
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedComposition {
    /// Compose over the survivors. Lost machines contribute an empty
    /// placeholder coreset so the composition tree keeps its shape and its
    /// `(level, node)` RNG streams; the answer degrades gracefully (the
    /// paper's randomized-coreset robustness claim, measured by E17).
    #[default]
    ComposeSurvivors,
    /// Refuse to answer: surface
    /// [`crate::error::ProtocolError::MachinesLost`].
    Fail,
}

/// Retry budget and backoff schedule for failed machine attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per machine (first try included). `0` is treated as 1.
    pub max_attempts: u32,
    /// Base backoff: retry `r` (1-based) waits `backoff_ticks << (r - 1)`
    /// simulated ticks (exponential, saturating).
    pub backoff_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ticks: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and a 1-tick base backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff_ticks: 1,
        }
    }

    /// Simulated ticks waited before attempt number `attempt` (0-based; the
    /// first attempt waits nothing).
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            0
        } else {
            self.backoff_ticks
                .checked_shl(attempt - 1)
                .unwrap_or(u64::MAX)
        }
    }
}

/// A complete, seeded description of which faults a run injects.
///
/// All probabilities are per-`(machine, attempt)` site; `0.0` disables a
/// site. The plan is pure data — cloning it and re-running reproduces the
/// exact same failures.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault universe, independent of the protocol seed: the same
    /// protocol run can be replayed under many fault universes and vice
    /// versa.
    pub fault_seed: u64,
    /// Probability a machine crashes before summarizing.
    pub crash_before_prob: f64,
    /// Probability a machine crashes after summarizing, before sending.
    pub crash_after_prob: f64,
    /// Probability a machine's coreset message is lost in transit.
    pub message_loss_prob: f64,
    /// Probability a machine straggles (succeeds late).
    pub straggler_prob: f64,
    /// Extra simulated ticks one straggle costs.
    pub straggler_ticks: u64,
    /// Probability reading a machine's piece fails transiently. Out-of-core
    /// runs read an arena segment; in memory the piece is a view of the
    /// partition, so only the failure itself is simulated.
    pub segment_io_prob: f64,
    /// Machines forced to fail **every** attempt regardless of probabilities
    /// — the knob behind the "lose any single machine" experiments.
    pub lose_machines: Vec<usize>,
    /// Policy for machines that stay lost after the retry budget.
    pub on_loss: DegradedComposition,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn new(fault_seed: u64) -> Self {
        FaultPlan {
            fault_seed,
            crash_before_prob: 0.0,
            crash_after_prob: 0.0,
            message_loss_prob: 0.0,
            straggler_prob: 0.0,
            straggler_ticks: 0,
            segment_io_prob: 0.0,
            lose_machines: Vec::new(),
            on_loss: DegradedComposition::ComposeSurvivors,
        }
    }

    /// A plan where every machine-crash site fires with probability `p`
    /// (the E17 fault-sweep shape).
    pub fn machine_failure(fault_seed: u64, p: f64) -> Self {
        let mut plan = FaultPlan::new(fault_seed);
        plan.crash_before_prob = p;
        plan.crash_after_prob = p;
        plan.message_loss_prob = p;
        plan
    }

    /// Returns this plan with `machines` forced to be permanently lost.
    pub fn losing(mut self, machines: Vec<usize>) -> Self {
        self.lose_machines = machines;
        self
    }

    /// True if this plan can inject at least one fault.
    pub fn is_armed(&self) -> bool {
        self.crash_before_prob > 0.0
            || self.crash_after_prob > 0.0
            || self.message_loss_prob > 0.0
            || self.straggler_prob > 0.0
            || self.segment_io_prob > 0.0
            || !self.lose_machines.is_empty()
    }
}

/// Decides, purely, which fault (if any) strikes each `(machine, attempt)`
/// site of a plan.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault striking machine `machine`'s attempt number `attempt`, if
    /// any. Pure: depends only on `(fault_seed, machine, attempt)`. Sites are
    /// checked in pipeline order (piece read, crash-before, crash-after,
    /// message-lost, straggler); the first hit wins.
    pub fn decide(&self, machine: usize, attempt: u32) -> Option<MachineFault> {
        if self.plan.lose_machines.contains(&machine) {
            return Some(MachineFault::CrashBeforeSummarize);
        }
        let p = &self.plan;
        let hit = |prob: f64, salt: u64| {
            prob > 0.0 && site_unit(p.fault_seed, machine, attempt, salt) < prob
        };
        if hit(p.segment_io_prob, SALT_SEGMENT_IO) {
            Some(MachineFault::SegmentRead)
        } else if hit(p.crash_before_prob, SALT_CRASH_BEFORE) {
            Some(MachineFault::CrashBeforeSummarize)
        } else if hit(p.crash_after_prob, SALT_CRASH_AFTER) {
            Some(MachineFault::CrashAfterSummarize)
        } else if hit(p.message_loss_prob, SALT_MESSAGE_LOST) {
            Some(MachineFault::MessageLost)
        } else if hit(p.straggler_prob, SALT_STRAGGLER) {
            Some(MachineFault::Straggler)
        } else {
            None
        }
    }
}

/// What happened to one machine across its attempt loop.
#[derive(Debug, Clone)]
pub struct MachineOutcome<T, E = Infallible> {
    /// The machine's delivered summary; `None` if it was permanently lost.
    pub summary: Option<T>,
    /// The last error an attempt returned, kept only if the machine was
    /// lost (`None` when injected faults alone used up its budget).
    pub error: Option<E>,
    /// Faults injected into this machine (all sites, all attempts).
    pub injected: u64,
    /// Re-execution attempts performed (attempts beyond the first).
    pub retried: u64,
    /// Simulated ticks this machine spent on backoff and straggling.
    pub ticks: u64,
}

impl<T, E> MachineOutcome<T, E> {
    /// True if the machine failed at least once but ultimately delivered.
    pub fn recovered(&self) -> bool {
        self.summary.is_some() && self.injected > 0
    }
}

/// Runs one machine's attempts under a fault injector and retry policy —
/// the one retry loop of the runtime.
///
/// `summarize` reads the machine's piece and builds its summary. It is
/// called once per attempt that no read or crash-before fault stops, and
/// must re-derive all of its randomness from scratch (retry by replay):
/// protocol runners pass a closure that reconstructs
/// `machine_rng(seed, machine)` internally, which makes a recovered
/// machine's summary bit-identical to its fault-free one. An error it
/// returns fails the attempt like an injected fault, on the same budget and
/// backoff schedule.
pub fn run_machine_with_faults<T, E>(
    injector: &FaultInjector,
    retry: &RetryPolicy,
    machine: usize,
    mut summarize: impl FnMut() -> Result<T, E>,
) -> MachineOutcome<T, E> {
    let mut out = MachineOutcome {
        summary: None,
        error: None,
        injected: 0,
        retried: 0,
        ticks: 0,
    };
    for attempt in 0..retry.max_attempts.max(1) {
        if attempt > 0 {
            out.retried += 1;
            out.ticks = out.ticks.saturating_add(retry.backoff_before(attempt));
        }
        let result = match injector.decide(machine, attempt) {
            Some(MachineFault::SegmentRead | MachineFault::CrashBeforeSummarize) => {
                out.injected += 1;
                continue;
            }
            Some(MachineFault::CrashAfterSummarize | MachineFault::MessageLost) => {
                // The work happens, the result is discarded: wasted attempts
                // still cost what the fault model says they cost.
                out.injected += 1;
                if let Err(e) = summarize() {
                    out.error = Some(e);
                }
                continue;
            }
            Some(MachineFault::Straggler) => {
                out.injected += 1;
                out.ticks = out.ticks.saturating_add(injector.plan().straggler_ticks);
                summarize()
            }
            None => summarize(),
        };
        match result {
            Ok(summary) => {
                out.summary = Some(summary);
                out.error = None;
                return out;
            }
            Err(e) => out.error = Some(e),
        }
    }
    out
}

/// Aggregated fault accounting of one protocol run, threaded into the
/// experiment reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Seed of the injected fault universe.
    pub fault_seed: u64,
    /// Total faults injected (every site, every attempt).
    pub injected: u64,
    /// Re-execution attempts performed (attempts beyond each machine's
    /// first).
    pub retried: u64,
    /// Machines that failed at least once but ultimately delivered.
    pub recovered: u64,
    /// Machines permanently lost, in index order.
    pub lost_machines: Vec<usize>,
    /// Simulated ticks spent on backoff and straggler delays (summed across
    /// machines; order-independent).
    pub ticks: u64,
    /// True if composition fell back to the survivors.
    pub degraded: bool,
    /// Achieved answer size divided by the fault-free answer size. Exactly
    /// `1.0` for non-degraded runs (recovery is bit-identical); `None` when
    /// the fault-free baseline is uncomputable (genuinely corrupt input).
    pub achieved_vs_fault_free: Option<f64>,
}

impl FaultReport {
    /// An all-zero report for a fault universe.
    pub fn new(fault_seed: u64) -> Self {
        FaultReport {
            fault_seed,
            injected: 0,
            retried: 0,
            recovered: 0,
            lost_machines: Vec::new(),
            ticks: 0,
            degraded: false,
            achieved_vs_fault_free: Some(1.0),
        }
    }

    /// Folds one machine's outcome into the run totals.
    pub fn absorb<T, E>(&mut self, machine: usize, outcome: &MachineOutcome<T, E>) {
        self.injected += outcome.injected;
        self.retried += outcome.retried;
        self.ticks = self.ticks.saturating_add(outcome.ticks);
        if outcome.recovered() {
            self.recovered += 1;
        }
        if outcome.summary.is_none() {
            self.lost_machines.push(machine);
            self.degraded = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan whose only armed site is the piece read.
    fn read_faults(fault_seed: u64, p: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(fault_seed);
        plan.segment_io_prob = p;
        plan
    }

    #[test]
    fn decisions_are_pure_and_reproducible() {
        for plan in [FaultPlan::machine_failure(9, 0.5), read_faults(9, 0.5)] {
            let inj = FaultInjector::new(plan);
            for machine in 0..32 {
                for attempt in 0..4 {
                    assert_eq!(
                        inj.decide(machine, attempt),
                        inj.decide(machine, attempt),
                        "machine {machine} attempt {attempt}"
                    );
                }
            }
        }
        let reads = FaultInjector::new(read_faults(9, 0.5));
        assert!((0..32).any(|m| reads.decide(m, 0) == Some(MachineFault::SegmentRead)));
        assert!(
            (0..32).all(|m| matches!(reads.decide(m, 0), None | Some(MachineFault::SegmentRead)))
        );
    }

    #[test]
    fn decisions_depend_on_seed_machine_and_attempt() {
        for plan in [FaultPlan::machine_failure, read_faults] {
            let a = FaultInjector::new(plan(1, 0.5));
            let b = FaultInjector::new(plan(2, 0.5));
            let differs_by_seed = (0..64).any(|m| a.decide(m, 0) != b.decide(m, 0));
            assert!(differs_by_seed, "fault universes must differ across seeds");
            let differs_by_attempt = (0..64).any(|m| a.decide(m, 0) != a.decide(m, 1));
            assert!(differs_by_attempt, "retries must face fresh fault rolls");
        }
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let inj = FaultInjector::new(FaultPlan::machine_failure(7, 0.25));
        let hits = (0..4000).filter(|&m| inj.decide(m, 0).is_some()).count() as f64;
        // Three sites at p = 0.25 each, first hit wins:
        // P(any) = 1 - 0.75^3 ≈ 0.578.
        let expect = 4000.0 * (1.0 - 0.75f64.powi(3));
        assert!(
            (hits - expect).abs() < 0.1 * 4000.0,
            "hits {hits}, expected ≈ {expect}"
        );
    }

    #[test]
    fn forced_losses_override_probabilities() {
        let inj = FaultInjector::new(FaultPlan::new(3).losing(vec![2, 5]));
        for attempt in 0..10 {
            assert_eq!(
                inj.decide(2, attempt),
                Some(MachineFault::CrashBeforeSummarize)
            );
            assert_eq!(
                inj.decide(5, attempt),
                Some(MachineFault::CrashBeforeSummarize)
            );
            assert_eq!(inj.decide(3, attempt), None);
        }
    }

    #[test]
    fn zero_probability_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::new(42));
        assert!(!inj.plan().is_armed());
        assert!((0..256).all(|m| inj.decide(m, 0).is_none()));
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let r = RetryPolicy {
            max_attempts: 5,
            backoff_ticks: 3,
        };
        assert_eq!(r.backoff_before(0), 0);
        assert_eq!(r.backoff_before(1), 3);
        assert_eq!(r.backoff_before(2), 6);
        assert_eq!(r.backoff_before(3), 12);
        let huge = RetryPolicy {
            max_attempts: 80,
            backoff_ticks: u64::MAX / 2,
        };
        assert_eq!(huge.backoff_before(70), u64::MAX);
    }

    #[test]
    fn retry_recovers_a_transiently_failing_machine() {
        // Find a seed whose machine 0 fails attempt 0 but passes attempt 1.
        let seed = (0..1000u64)
            .find(|&s| {
                let inj = FaultInjector::new(FaultPlan::machine_failure(s, 0.4));
                inj.decide(0, 0).is_some()
                    && inj.decide(0, 0) != Some(MachineFault::Straggler)
                    && inj.decide(0, 1).is_none()
            })
            .expect("some seed fails first then recovers");
        let inj = FaultInjector::new(FaultPlan::machine_failure(seed, 0.4));
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_ticks: 5,
        };
        let mut builds = 0;
        let out = run_machine_with_faults(&inj, &retry, 0, || {
            builds += 1;
            Ok::<_, Infallible>("summary")
        });
        assert_eq!(out.summary, Some("summary"));
        assert!(out.recovered());
        assert_eq!(out.retried, 1);
        assert_eq!(out.ticks, 5, "one retry pays the base backoff");
        assert!(builds >= 1);
    }

    #[test]
    fn exhausted_budget_loses_the_machine() {
        let inj = FaultInjector::new(FaultPlan::new(0).losing(vec![0]));
        let retry = RetryPolicy {
            max_attempts: 4,
            backoff_ticks: 2,
        };
        let out = run_machine_with_faults(&inj, &retry, 0, || Ok::<_, Infallible>("never"));
        assert!(out.summary.is_none());
        assert!(out.error.is_none(), "only injected faults failed it");
        assert_eq!(out.injected, 4);
        assert_eq!(out.retried, 3);
        assert_eq!(out.ticks, 2 + 4 + 8, "three exponential backoffs");
    }

    #[test]
    fn straggler_succeeds_late() {
        let seed = (0..2000u64)
            .find(|&s| {
                let mut plan = FaultPlan::new(s);
                plan.straggler_prob = 0.5;
                FaultInjector::new(plan).decide(0, 0) == Some(MachineFault::Straggler)
            })
            .expect("some seed straggles machine 0");
        let mut plan = FaultPlan::new(seed);
        plan.straggler_prob = 0.5;
        plan.straggler_ticks = 17;
        let out = run_machine_with_faults(
            &FaultInjector::new(plan),
            &RetryPolicy::default(),
            0,
            || Ok::<_, Infallible>("late"),
        );
        assert_eq!(out.summary, Some("late"));
        assert_eq!(out.ticks, 17);
        assert_eq!(out.retried, 0);
        assert!(out.recovered(), "a straggle counts as an injected fault");
    }

    #[test]
    fn report_absorbs_outcomes_in_machine_order() {
        let mut report = FaultReport::new(11);
        report.absorb::<(), Infallible>(
            0,
            &MachineOutcome {
                summary: Some(()),
                error: None,
                injected: 2,
                retried: 2,
                ticks: 30,
            },
        );
        report.absorb::<(), Infallible>(
            1,
            &MachineOutcome {
                summary: None,
                error: None,
                injected: 3,
                retried: 2,
                ticks: 30,
            },
        );
        assert_eq!(report.injected, 5);
        assert_eq!(report.retried, 4);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.lost_machines, vec![1]);
        assert_eq!(report.ticks, 60);
        assert!(report.degraded);
    }

    #[test]
    fn fault_report_round_trips_through_json() {
        let mut report = FaultReport::new(5);
        report.lost_machines = vec![2];
        report.degraded = true;
        report.achieved_vs_fault_free = None;
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"achieved_vs_fault_free\":null"), "{json}");
        let back: FaultReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }

    #[test]
    fn failed_attempts_share_the_budget_and_keep_the_last_error() {
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_ticks: 1,
        };
        // A real error on every attempt: nothing injected, every retry paid
        // on the exponential schedule, the last error kept.
        let unarmed = FaultInjector::new(FaultPlan::new(0));
        let mut calls = 0;
        let out = run_machine_with_faults(&unarmed, &retry, 0, || {
            calls += 1;
            Err::<(), _>(calls)
        });
        assert!(out.summary.is_none());
        assert_eq!(out.error, Some(3));
        assert_eq!((out.injected, out.retried, out.ticks), (0, 2, 1 + 2));
        // One failed attempt, then a delivery: the error is dropped.
        let mut calls = 0;
        let out = run_machine_with_faults(&unarmed, &retry, 0, || {
            calls += 1;
            if calls == 1 {
                Err("transient")
            } else {
                Ok("summary")
            }
        });
        assert_eq!((out.summary, out.error), (Some("summary"), None));
        assert_eq!((out.retried, out.ticks), (1, 1));
        // A read fault on every attempt: the attempt never runs.
        let reads = FaultInjector::new(read_faults(4, 1.0));
        assert!(reads.plan().is_armed());
        let out = run_machine_with_faults(&reads, &retry, 0, || -> Result<(), ()> {
            panic!("a failed read does no work")
        });
        assert!(out.summary.is_none() && out.error.is_none());
        assert_eq!((out.injected, out.retried, out.ticks), (3, 2, 3));
    }
}
