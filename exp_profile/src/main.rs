//! `exp_profile` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path exp_profile/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! One process runs one workload (see `README.md`). It makes the inputs from
//! the seed, times calls into the library's public functions for `--seconds`
//! of wall time, checks every answer, and prints two JSON lines: the run
//! record, then the result (`correct`, `attempted`, `failed`, `metrics`).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
//! decomposition and reports the per-layer metrics, and `--trace-out` writes
//! its spans to a file.

#![forbid(unsafe_code)]

mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use std::process::ExitCode;
use workloads::{Outcome, RunConfig, Sizes, Workload};

const USAGE: &str =
    "usage: exp_profile --workload <rmat-flat|rmat-arena-tree|gnp-tree|churn-serve> \
--seed <u64> --seconds <s> --trace <0|1> [--trace-out <file>]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    run: RunConfig,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let trace = trace.unwrap_or(false);
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(Args {
        run: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            sizes: Sizes::FULL,
        },
        trace_out,
    })
}

/// Renders a value tree as one line of JSON.
fn to_json(v: &Value) -> String {
    struct Tree<'a>(&'a Value);
    impl serde::Serialize for Tree<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(v)).expect("a value tree always serializes")
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::UInt(outcome.attempted as u64)),
        ("failed".into(), Value::UInt(outcome.failed as u64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    to_json(&result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exp_profile: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&args.run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("exp_profile: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(tracer)) = (&args.trace_out, &outcome.tracer) {
        if let Err(e) = std::fs::write(path, to_json(&tracer.to_value())) {
            eprintln!("exp_profile: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let record = Value::Map(vec![("record".into(), outcome.record.clone())]);
    println!("{}", to_json(&record));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The repository's `BENCHMARK.json`, as a value tree.
    struct Manifest(Value);

    impl serde::Deserialize for Manifest {
        fn from_value(v: &Value) -> Result<Self, serde::DeError> {
            Ok(Manifest(v.clone()))
        }
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::from_str::<Manifest>(&text)
            .expect("BENCHMARK.json parses")
            .0
    }

    fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.field(key).expect("manifest key") {
            Value::Seq(items) => items,
            other => panic!("{key} is a {}", other.kind()),
        }
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.field(key).expect("field").as_str().expect("string field")
    }

    /// `(name, unit)` pairs the manifest declares under `key`.
    fn declared(key: &str) -> BTreeSet<(String, String)> {
        items(&manifest(), key)
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").to_string(),
                    str_field(m, "unit").to_string(),
                )
            })
            .collect()
    }

    fn emitted(outcome: &Outcome) -> BTreeSet<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn tiny(workload: Workload, trace: bool) -> Outcome {
        workloads::run(&RunConfig {
            workload,
            seed: 7,
            seconds: 0.05,
            trace,
            sizes: Sizes::TINY,
        })
        .expect("tiny set-up succeeds")
    }

    #[test]
    fn manifest_names_are_well_formed_and_match_the_workloads() {
        let m = manifest();
        let ok = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for key in ["workloads", "end_to_end", "per_layer"] {
            for item in items(&m, key) {
                let name = str_field(item, "name");
                assert!(ok(name), "{key} name {name:?}");
            }
        }
        let names: Vec<&str> = items(&m, "workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    /// Every workload at tiny sizes, untraced and traced: no op fails, the
    /// decomposition reproduces the driver's answers, and each emits exactly
    /// the metrics (names and units) `BENCHMARK.json` declares.
    #[test]
    fn every_workload_validates_and_emits_the_declared_metrics() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for workload in Workload::ALL {
            for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
                let outcome = tiny(workload, trace);
                let label = format!("{} trace={trace}", workload.name());
                assert!(outcome.correct, "{label}: {:?}", outcome.record);
                assert_eq!(outcome.failed, 0, "{label}");
                assert!(outcome.attempted > workloads::MIN_TIMED_OPS, "{label}");
                assert_eq!(&emitted(&outcome), want, "{label}");
                if !trace {
                    for m in &outcome.metrics {
                        assert!(m.value > 0.0, "{label}: {} = {}", m.name, m.value);
                    }
                }
            }
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let outcome = tiny(Workload::GnpTree, false);
        let line = result_line(&outcome);
        let v = serde_json::from_str::<Manifest>(&line)
            .expect("result parses")
            .0;
        let Value::Map(entries) = &v else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert!(parse_args(&args("--workload gnp-tree --seed 1 --seconds 1 --trace 0")).is_ok());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gnp-tree --seed x --seconds 1 --trace 0",
            "--workload gnp-tree --seed 1 --seconds 0 --trace 0",
            "--workload gnp-tree --seed 1 --seconds 1 --trace 2",
            "--workload gnp-tree --seconds 1 --trace 0",
            "--workload gnp-tree --seed 1 --seconds 1 --trace 0 --trace-out f",
            "--workload gnp-tree --seed 1 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
