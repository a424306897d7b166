//! Command-line contract of the `spefbus` binary: a bad or missing value,
//! `--segments 0` and an unknown flag are usage errors (exit 2) that name
//! the flag, raised before any work and without writing a report.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

/// Runs `spefbus` with its report pointed at a temporary path, then `args`
/// (so a flag in `args` can go without its value), and asserts a usage
/// error that names `flag`.
fn assert_usage_error(args: &[&str], flag: &str) {
    let json = std::env::temp_dir().join(format!("spefbus_cli_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_spefbus"))
        .arg("--json")
        .arg(&json)
        .args(args)
        .output()
        .expect("spawn spefbus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a usage error prints no result"
    );
    assert!(
        !json.exists(),
        "{args:?}: a usage error must not write a report"
    );
}

/// `--eco` edits the generated groups' nets, so with `--groups 0` there
/// is nothing to edit: a usage error (exit 2) before any work, not a
/// panic in the edit stream.
#[test]
fn eco_with_zero_groups_is_a_usage_error() {
    assert_usage_error(&["--groups", "0", "--eco", "3"], "--eco");
}

#[test]
fn invalid_flags_are_usage_errors() {
    assert_usage_error(&["--groups", "x"], "--groups");
    assert_usage_error(&["--segments", "0"], "--segments");
    assert_usage_error(&["--threads"], "--threads");
    assert_usage_error(&["--bogus"], "--bogus");
}
