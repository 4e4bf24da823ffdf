//! The common flag parser, driven through a bin that parses with
//! `Cli::parse` and through `ablate`, which extends it.

use std::process::Command;

#[test]
fn a_bin_that_records_no_trace_refuses_trace_out() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("table1_trace_out.json");
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--tiny", "--trace-out"])
        .arg(&path)
        .output()
        .expect("spawn table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--trace-out"), "{stderr}");
    assert!(!path.exists(), "nothing is written");
}

#[test]
fn ablate_refuses_trace_out_without_the_failover_entry() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ablate_sync_trace_out.json");
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_ablate"))
        .args(["sync", "--tiny", "--trace-out"])
        .arg(&path)
        .output()
        .expect("spawn ablate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--trace-out"), "{stderr}");
    assert!(out.stdout.is_empty(), "no entry runs");
    assert!(!path.exists(), "nothing is written");
}
