//! `perf_smoke` rejects malformed command lines with its usage line and
//! exit code 2, before running any workload (never a panic's exit 101).

// Test code: unwraps are the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: perf_smoke"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran workloads");
}

#[test]
fn non_numeric_repeat_is_a_usage_error() {
    assert_usage_error(&["--repeat", "x"]);
}

#[test]
fn zero_repeat_is_a_usage_error() {
    assert_usage_error(&["--repeat", "0"]);
}

#[test]
fn missing_repeat_value_is_a_usage_error() {
    assert_usage_error(&["--repeat"]);
}

#[test]
fn missing_out_value_is_a_usage_error() {
    assert_usage_error(&["--out"]);
    // A following flag is not taken as the path.
    assert_usage_error(&["--out", "--repeat", "3"]);
}

#[test]
fn missing_baseline_value_is_a_usage_error() {
    assert_usage_error(&["--baseline"]);
}

#[test]
fn unreadable_baseline_is_a_usage_error() {
    let missing = std::env::temp_dir().join("perf_smoke_no_such_baseline.json");
    assert_usage_error(&["--baseline", missing.to_str().unwrap()]);
}

#[test]
fn unknown_argument_is_a_usage_error() {
    assert_usage_error(&["--fast"]);
}
