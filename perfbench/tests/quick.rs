//! Drives the built binary through `--workload all --quick`: every
//! workload in both trace modes must pass its output checks and print
//! every metric `BENCHMARK.json` names.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;
use std::process::Command;

fn names(manifest: &Value, key: &str) -> Vec<String> {
    let Some(Value::Arr(items)) = manifest.get(key) else {
        panic!("manifest has no {key} array");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn quick_pass_reports_every_workload_and_metric() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let _ = std::fs::remove_dir_all(&out_dir);

    let manifest = Command::new(exe).arg("manifest").output().expect("runs");
    assert!(manifest.status.success());
    let manifest = json::parse(&String::from_utf8(manifest.stdout).unwrap()).unwrap();
    let workloads = names(&manifest, "workloads");
    assert_eq!(workloads.len(), 6);

    let run = Command::new(exe)
        .args(["--workload", "all", "--quick", "--seed", "12", "--out"])
        .arg(&out_dir)
        .output()
        .expect("runs");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // One result line per (workload, trace mode), in manifest order.
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(results.len(), 2 * workloads.len(), "{stdout}");
    for (i, result) in results.iter().enumerate() {
        let workload = &workloads[i / 2];
        let Value::Obj(pairs) = result else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"],
            "{workload}"
        );
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let expected = names(
            &manifest,
            if i % 2 == 0 {
                "end_to_end"
            } else {
                "per_layer"
            },
        );
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, expected, "{workload} trace {}", i % 2);
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(value.is_finite(), "{workload} {name}");
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{workload} {name}"
            );
        }
    }

    // Run records and traces land under --out, nowhere else.
    for w in &workloads {
        let records = std::fs::read_to_string(out_dir.join(format!("{w}.jsonl"))).unwrap();
        assert_eq!(records.lines().count(), 2, "{w}: one record per trace mode");
        for line in records.lines() {
            let record = json::parse(line).unwrap();
            assert_eq!(record.get("quick"), Some(&Value::Bool(true)));
            for key in [
                "seed", "nproc", "lanes", "rustc", "commit", "reps", "digest", "samples",
            ] {
                assert!(record.get(key).is_some(), "{w}: record lacks {key}");
            }
        }
        let trace = std::fs::read_to_string(out_dir.join(format!("{w}.trace.jsonl"))).unwrap();
        let first = json::parse(trace.lines().next().expect("spans")).unwrap();
        for key in ["id", "name", "start_ns", "end_ns", "parent", "rep"] {
            assert!(first.get(key).is_some(), "{w}: span lacks {key}");
        }
    }

    // A measured (non-quick) run refuses a debug build.
    if cfg!(debug_assertions) {
        let refused = Command::new(exe)
            .args(["--workload", "vqe4_paper", "--out"])
            .arg(&out_dir)
            .output()
            .expect("runs");
        assert!(!refused.status.success());
        assert!(String::from_utf8_lossy(&refused.stderr).contains("debug build"));
    }
}
