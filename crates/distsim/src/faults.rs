//! Deterministic fault injection for protocol runs.
//!
//! In the simultaneous model each machine sends one coreset message. A fault
//! is a message that does not arrive: a crash before or after summarizing
//! and a message lost in transit all end the attempt with nothing
//! delivered, so the runtime models them as one event. With probability
//! [`FaultPlan::failure_prob`] an attempt fails before the machine reads its
//! piece, and a machine in [`FaultPlan::lose_machines`] fails every attempt.
//!
//! Every decision ([`FaultPlan::fails`]) is a **pure function** of
//! `(fault_seed, machine, attempt)` — no RNG state, no wall clock, no thread
//! identity — so the same plan fails the same attempts for any thread count,
//! any schedule, and any `RC_SCHED_FUZZ` seed. Time is a *simulated tick
//! clock*: retry backoff is accounted as tick counts summed per machine
//! (order-independent), never measured with `Instant::now`.
//!
//! Every failed attempt — injected, or a real read error such as an arena
//! segment failing its CRC — is retried by the one loop in
//! [`run_machine_with_faults`], against one budget and one backoff schedule
//! per machine. Recovery is **retry by replay**: a failed attempt re-derives
//! the machine's private `machine_rng(seed, i)` stream from scratch, so a
//! run in which every machine eventually succeeds is bit-identical to the
//! fault-free run. Machines that exhaust the budget are *permanently lost*,
//! and the coordinator composes the survivors.

use graph::mix64;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Salt decorrelating failure draws from the other `mix64` streams.
const SALT_FAILURE: u64 = 0x51DE_10AD_1001_F417;

/// Deterministic unit-interval draw for one `(seed, machine, attempt)` —
/// the pure replacement for "roll a die when the fault might happen".
fn attempt_unit(seed: u64, machine: usize, attempt: u32) -> f64 {
    let state = seed
        ^ (machine as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ SALT_FAILURE;
    // The second draw of a SplitMix64 generator started at `state`.
    let x = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

/// A complete, seeded description of which attempts a run fails.
///
/// The plan is pure data — cloning it and re-running reproduces the exact
/// same failures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault universe, independent of the protocol seed: the same
    /// protocol run can be replayed under many fault universes and vice
    /// versa.
    pub fault_seed: u64,
    /// Probability that one `(machine, attempt)` fails; `0.0` fails none.
    pub failure_prob: f64,
    /// Machines forced to fail **every** attempt regardless of
    /// `failure_prob` — the knob behind the "lose any single machine"
    /// experiments.
    pub lose_machines: Vec<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new(fault_seed: u64) -> Self {
        FaultPlan::machine_failure(fault_seed, 0.0)
    }

    /// A plan in which every attempt fails with probability `p` (the E17
    /// fault-sweep shape).
    pub fn machine_failure(fault_seed: u64, p: f64) -> Self {
        FaultPlan {
            fault_seed,
            failure_prob: p,
            lose_machines: Vec::new(),
        }
    }

    /// Returns this plan with `machines` forced to be permanently lost.
    pub fn losing(mut self, machines: Vec<usize>) -> Self {
        self.lose_machines = machines;
        self
    }

    /// True if this plan can fail at least one attempt.
    pub fn is_armed(&self) -> bool {
        self.failure_prob > 0.0 || !self.lose_machines.is_empty()
    }

    /// True if machine `machine`'s attempt number `attempt` fails. Pure:
    /// depends only on `(fault_seed, machine, attempt)` and the plan's
    /// fields; a zero probability is never drawn.
    pub fn fails(&self, machine: usize, attempt: u32) -> bool {
        self.lose_machines.contains(&machine)
            || (self.failure_prob > 0.0
                && attempt_unit(self.fault_seed, machine, attempt) < self.failure_prob)
    }
}

/// What happened to one machine across its attempt loop.
#[derive(Debug, Clone)]
pub struct MachineOutcome<T, E = Infallible> {
    /// The machine's delivered summary; `None` if it was permanently lost.
    pub summary: Option<T>,
    /// The last error an attempt returned, kept only if the machine was
    /// lost (`None` when injected failures alone used up its budget).
    pub error: Option<E>,
    /// Attempts the plan failed.
    pub injected: u64,
    /// Re-execution attempts performed (attempts beyond the first).
    pub retried: u64,
    /// Simulated ticks this machine spent on backoff.
    pub ticks: u64,
}

impl<T, E> MachineOutcome<T, E> {
    /// True if the machine failed at least once but ultimately delivered.
    pub fn recovered(&self) -> bool {
        self.summary.is_some() && self.injected > 0
    }
}

/// Runs one machine's attempts under a fault plan and retry policy — the one
/// retry loop of the runtime.
///
/// `summarize` reads the machine's piece and builds its summary. It is
/// called once per attempt the plan does not fail, and must re-derive all of
/// its randomness from scratch (retry by replay): protocol runners pass a
/// closure that reconstructs `machine_rng(seed, machine)` internally, which
/// makes a recovered machine's summary bit-identical to its fault-free one.
/// An error it returns fails the attempt like an injected fault, on the same
/// budget and backoff schedule.
pub fn run_machine_with_faults<T, E>(
    plan: &FaultPlan,
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
        if plan.fails(machine, attempt) {
            out.injected += 1;
            continue;
        }
        match summarize() {
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
    /// Attempts the plan failed (all machines).
    pub injected: u64,
    /// Re-execution attempts performed (attempts beyond each machine's
    /// first).
    pub retried: u64,
    /// Machines that failed at least once but ultimately delivered.
    pub recovered: u64,
    /// Machines permanently lost, in index order.
    pub lost_machines: Vec<usize>,
    /// Simulated backoff ticks (summed across machines; order-independent).
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

    #[test]
    fn decisions_are_pure_and_reproducible() {
        let plan = FaultPlan::machine_failure(9, 0.5);
        for machine in 0..32 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.fails(machine, attempt),
                    plan.clone().fails(machine, attempt),
                    "machine {machine} attempt {attempt}"
                );
            }
        }
        assert!((0..32).any(|m| plan.fails(m, 0)));
        assert!((0..32).any(|m| !plan.fails(m, 0)));
    }

    #[test]
    fn decisions_depend_on_seed_machine_and_attempt() {
        let a = FaultPlan::machine_failure(1, 0.5);
        let b = FaultPlan::machine_failure(2, 0.5);
        let differs_by_seed = (0..64).any(|m| a.fails(m, 0) != b.fails(m, 0));
        assert!(differs_by_seed, "fault universes must differ across seeds");
        let differs_by_attempt = (0..64).any(|m| a.fails(m, 0) != a.fails(m, 1));
        assert!(differs_by_attempt, "retries must face fresh fault rolls");
        let differs_by_machine = (0..64).any(|m| a.fails(m, 0) != a.fails(m + 1, 0));
        assert!(differs_by_machine, "machines must face their own rolls");
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        for p in [0.1, 0.25, 0.58] {
            let plan = FaultPlan::machine_failure(7, p);
            let hits = (0..4000).filter(|&m| plan.fails(m, 0)).count() as f64;
            let expect = 4000.0 * p;
            assert!(
                (hits - expect).abs() < 0.05 * 4000.0,
                "p = {p}: hits {hits}, expected ≈ {expect}"
            );
        }
        let certain = FaultPlan::machine_failure(7, 1.0);
        assert!((0..256).all(|m| certain.fails(m, 3)));
    }

    #[test]
    fn forced_losses_override_probabilities() {
        let plan = FaultPlan::new(3).losing(vec![2, 5]);
        assert!(plan.is_armed());
        for attempt in 0..10 {
            assert!(plan.fails(2, attempt));
            assert!(plan.fails(5, attempt));
            assert!(!plan.fails(3, attempt));
        }
    }

    #[test]
    fn zero_probability_plan_injects_nothing() {
        let plan = FaultPlan::new(42);
        assert_eq!(plan, FaultPlan::machine_failure(42, 0.0));
        assert!(!plan.is_armed());
        assert!((0..256).all(|m| !plan.fails(m, 0)));
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
                let plan = FaultPlan::machine_failure(s, 0.4);
                plan.fails(0, 0) && !plan.fails(0, 1)
            })
            .expect("some seed fails first then recovers");
        let plan = FaultPlan::machine_failure(seed, 0.4);
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_ticks: 5,
        };
        let mut builds = 0;
        let out = run_machine_with_faults(&plan, &retry, 0, || {
            builds += 1;
            Ok::<_, Infallible>("summary")
        });
        assert_eq!(out.summary, Some("summary"));
        assert!(out.recovered());
        assert_eq!(out.retried, 1);
        assert_eq!(out.ticks, 5, "one retry pays the base backoff");
        assert_eq!(builds, 1, "a failed attempt does no work");
    }

    #[test]
    fn exhausted_budget_loses_the_machine() {
        let plan = FaultPlan::new(0).losing(vec![0]);
        let retry = RetryPolicy {
            max_attempts: 4,
            backoff_ticks: 2,
        };
        let out = run_machine_with_faults(&plan, &retry, 0, || Ok::<_, Infallible>("never"));
        assert!(out.summary.is_none());
        assert!(out.error.is_none(), "only injected faults failed it");
        assert_eq!(out.injected, 4);
        assert_eq!(out.retried, 3);
        assert_eq!(out.ticks, 2 + 4 + 8, "three exponential backoffs");
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
        let unarmed = FaultPlan::new(0);
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
        // Every attempt failed by the plan: the attempt never runs.
        let certain = FaultPlan::machine_failure(4, 1.0);
        assert!(certain.is_armed());
        let out = run_machine_with_faults(&certain, &retry, 0, || -> Result<(), ()> {
            panic!("a failed attempt does no work")
        });
        assert!(out.summary.is_none() && out.error.is_none());
        assert_eq!((out.injected, out.retried, out.ticks), (3, 2, 3));
    }
}
