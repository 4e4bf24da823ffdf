//! Smoke test of the benchmark itself at tiny sizes: every metric
//! `BENCHMARK.json` names is emitted with its unit, every workload passes
//! its checks, and a perturbed pinned digest is reported as failed
//! trials.
//!
//! ```text
//! cargo test --offline --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use ksa_json::Value;

const WORKLOADS: [&str; 4] = [
    "syscall_sweep",
    "tail_serving",
    "tenant_churn",
    "observed_sweep",
];

fn run(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--size", "tiny", "--seconds", "0.05"])
        .args(args)
        .output()
        .expect("spawn perfbench");
    assert!(
        out.status.success(),
        "perfbench {args:?} exited {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    ksa_json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = ksa_json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn u64_field(v: &Value, k: &str) -> u64 {
    v.get(k).and_then(|x| x.as_u64()).unwrap()
}

fn assert_metrics(result: &Value, section: &str, what: &str) {
    let metrics = result.get("metrics").expect("metrics");
    let want = declared(section);
    let Value::Object(all) = metrics else {
        panic!("{what}: metrics is not an object");
    };
    assert_eq!(all.len(), want.len(), "{what}: metric count");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|_| panic!("{what}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(|u| u.as_str()).unwrap(),
            unit,
            "{what}: {name}"
        );
        let v = m.get("value").and_then(|v| v.as_f64()).unwrap();
        assert!(v.is_finite() && v >= 0.0, "{what}: {name} = {v}");
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let what = format!("{w} --trace {trace}");
            let r = run(&["--workload", w, "--trace", trace]);
            assert!(
                r.get("correct").and_then(|v| v.as_bool()).unwrap(),
                "{what}"
            );
            assert!(u64_field(&r, "attempted") >= 1, "{what}");
            assert_eq!(u64_field(&r, "failed"), 0, "{what}");
            assert_metrics(&r, section, &what);
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let r = run(&["--workload", "tail_serving", "--trace", "0", "--seed", "7"]);
    for (name, _) in declared("end_to_end") {
        let v = r.get("metrics").unwrap().get(&name).unwrap();
        assert!(v.get("value").unwrap().as_f64().unwrap() > 0.0, "{name}");
    }
}

#[test]
fn a_perturbed_pinned_digest_fails_every_trial() {
    for w in WORKLOADS {
        let r = run(&[
            "--workload",
            w,
            "--trace",
            "0",
            "--seed",
            "42",
            "--perturb-pin",
        ]);
        assert!(!r.get("correct").and_then(|v| v.as_bool()).unwrap(), "{w}");
        let attempted = u64_field(&r, "attempted");
        assert!(attempted >= 1, "{w}");
        assert_eq!(u64_field(&r, "failed"), attempted, "{w}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "tail_serving", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("spawn perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
