//! Runs every workload in smoke mode, untraced and traced, and checks
//! that each run passes its correctness gates and prints every metric
//! `BENCHMARK.json` declares, with its declared unit.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {name} in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of the spec.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    field(spec, section)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn bench(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("create the working directory");
    Command::new(env!("CARGO_BIN_EXE_repo-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the benchmark")
}

#[test]
fn every_workload_passes_its_gates_and_prints_every_metric_with_its_unit() {
    let spec = spec();
    let names: Vec<&str> = field(&spec, "workloads")
        .as_array()
        .expect("a workload list")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(names, ["ingest_recover", "history_scan"]);
    for name in names {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{name}: gates must pass"
            );
            assert!(matches!(field(&result, "attempted"), Value::U64(n) if *n > 0));
            assert_eq!(
                field(&result, "failed"),
                &Value::U64(0),
                "{name}: no operation may fail"
            );
            let metrics = field(&result, "metrics");
            let expected = declared(&spec, section);
            assert_eq!(
                metrics.as_object().expect("an object").len(),
                expected.len(),
                "{name} --trace {trace}"
            );
            for (metric, unit) in expected {
                let printed = field(metrics, &metric);
                assert_eq!(
                    text(field(printed, "unit")),
                    unit,
                    "{name}: unit of {metric}"
                );
                assert!(
                    matches!(
                        field(printed, "value"),
                        Value::F64(_) | Value::U64(_) | Value::I64(_)
                    ),
                    "{name}: {metric} is not a number"
                );
                assert!(
                    stdout.contains(&metric),
                    "{name}: {metric} is not printed by name"
                );
            }
        }
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
