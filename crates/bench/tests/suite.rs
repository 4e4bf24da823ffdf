//! Drives the `suite` binary: its usage errors, one full run whose
//! drift gate must pass against the committed baseline while an
//! unreachable perf floor trips exit 5, and one whose baseline lacks an
//! experiment, which must count as drift.

use std::path::PathBuf;
use std::process::{Command, Output};

use ksa_json::Value;

fn suite(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(args)
        .env_remove("KSA_SKIP_PERF_FLOOR")
        .output()
        .expect("spawn suite")
}

fn read_json(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    ksa_json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

#[test]
fn ignored_removed_and_malformed_flags_are_usage_errors() {
    for args in [
        &["--seed", "7"][..],
        &["--full"],
        &["--csv", "x"],
        &["--trace-out", "x"],
        &["--metrics-out", "x"],
        &["--floor", "abc"],
        &["--min-speedup", "fast"],
        &["--profile", "3"],
        &["--history", "x"],
    ] {
        let out = suite(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "suite {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn full_run_matches_baseline_and_trips_an_unreachable_floor() {
    let dir = std::env::temp_dir().join(format!("ksa_suite_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let committed = read_json(&PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    )));
    let mut base = committed.clone();
    let Value::Object(fields) = &mut base else {
        panic!("BENCH_baseline.json is not an object")
    };
    fields.insert("events_per_sec_floor".into(), Value::Float(1e15));
    let (base_path, written, report) = (
        dir.join("baseline.json"),
        dir.join("written.json"),
        dir.join("report.json"),
    );
    std::fs::write(&base_path, base.render()).unwrap();

    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let out = suite(&[
        "--jobs",
        "2",
        "--baseline",
        &path(&base_path),
        "--write-baseline",
        &path(&written),
        "--out",
        &path(&report),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(5), "{stderr}");
    assert!(stderr.contains("all gated metrics match"), "{stderr}");

    let written = read_json(&written);
    assert_eq!(
        written.get("experiments").unwrap(),
        committed.get("experiments").unwrap()
    );
    assert_eq!(
        written
            .get("events_per_sec_floor")
            .unwrap()
            .as_f64()
            .unwrap(),
        1e15
    );
    let eps = read_json(&report)
        .get("events_per_sec_seq")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(eps > 0.0 && eps < 1e15, "events_per_sec_seq {eps}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn experiment_missing_from_the_baseline_is_drift() {
    let dir = std::env::temp_dir().join(format!("ksa_suite_missing_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut base = read_json(&PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    )));
    let Value::Object(fields) = &mut base else {
        panic!("BENCH_baseline.json is not an object")
    };
    let Some(Value::Array(rows)) = fields.get_mut("experiments") else {
        panic!("BENCH_baseline.json has no experiments array")
    };
    let before = rows.len();
    rows.retain(|e| e.get("name").unwrap().as_str().unwrap() != "churn");
    assert_eq!(rows.len(), before - 1, "the baseline has one churn row");
    let (base_path, report) = (dir.join("baseline.json"), dir.join("report.json"));
    std::fs::write(&base_path, base.render()).unwrap();

    let out = suite(&[
        "--jobs",
        "2",
        "--baseline",
        base_path.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("experiment churn missing from baseline"),
        "{stderr}"
    );
    assert!(!stderr.contains("all gated metrics match"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
