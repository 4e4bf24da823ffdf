//! Drives the `ablate` binary: its entry list, its usage errors, and a
//! small run of two gated entries.

use std::process::{Command, Output};

fn ablate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ablate"))
        .args(args)
        .output()
        .expect("spawn ablate")
}

#[test]
fn list_prints_every_entry() {
    let out = ablate(&["--list"]);
    assert!(out.status.success());
    let names: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(
        names,
        [
            "sync", "corpus", "surface", "virt", "faults", "net", "trace", "failover", "spec",
            "obs", "churn"
        ]
    );
}

#[test]
fn unknown_entry_is_a_usage_error() {
    assert_eq!(ablate(&["no_such_ablation"]).status.code(), Some(2));
    assert_eq!(ablate(&["--no-such-flag"]).status.code(), Some(2));
}

#[test]
fn sync_and_virt_gates_pass() {
    let out = ablate(&["--tiny", "sync", "virt"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(
        !stdout.contains("FAIL") && !stderr.contains("FAIL"),
        "{stdout}\n{stderr}"
    );
    assert!(stdout.contains("[ok  ] tail/sync-exposes-contention"));
    assert!(stdout.contains("[ok  ] cost/free-hypervisor-below-kvm"));
}
