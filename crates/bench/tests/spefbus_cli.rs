//! Command-line contract of the `spefbus` binary.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

/// `--eco` edits the generated groups' nets, so with `--groups 0` there
/// is nothing to edit: a usage error (exit 2) before any work, not a
/// panic in the edit stream.
#[test]
fn eco_with_zero_groups_is_a_usage_error() {
    let json = std::env::temp_dir().join(format!("spefbus_cli_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_spefbus"))
        .args(["--groups", "0", "--eco", "3", "--json"])
        .arg(&json)
        .output()
        .expect("spawn spefbus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--eco"), "stderr: {stderr}");
    assert!(!json.exists(), "a usage error must not write a report");
}
