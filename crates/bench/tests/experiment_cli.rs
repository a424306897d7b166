//! Command-line contract of the paper-experiment binaries: a bad count, an
//! unparsable value or an unknown flag is a usage error (exit 2) that names
//! the flag, raised while parsing, before any simulation runs.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

#[test]
fn invalid_flags_are_usage_errors() {
    // `figure2` writes its CSVs to `--out`: point it at a temporary
    // directory, so a run that wrongly got past parsing leaves nothing in
    // the source tree.
    let out = std::env::temp_dir().join(format!("experiment_cli_{}", std::process::id()));
    let out = out.to_str().unwrap();
    let table1 = env!("CARGO_BIN_EXE_table1");
    let psweep = env!("CARGO_BIN_EXE_psweep");
    let aggressors = env!("CARGO_BIN_EXE_aggressors");
    let nonoverlap = env!("CARGO_BIN_EXE_nonoverlap");
    let runtime = env!("CARGO_BIN_EXE_runtime");
    let figure2 = env!("CARGO_BIN_EXE_figure2");
    let cases: &[(&str, &[&str], &str)] = &[
        // `skew_sweep` needs two cases to span its window.
        (table1, &["--cases", "0"], "--cases"),
        (table1, &["--cases", "1"], "--cases"),
        (table1, &["--cases"], "--cases"),
        (table1, &["--config", "iii"], "--config"),
        (psweep, &["--cases", "0"], "--cases"),
        (psweep, &["--cases", "1"], "--cases"),
        (psweep, &["--cases", "x"], "--cases"),
        (psweep, &["--bogus"], "--bogus"),
        // The late and non-overlap sweeps divide their span by `cases - 1`.
        (aggressors, &["--cases", "0"], "--cases"),
        (aggressors, &["--cases", "1"], "--cases"),
        (aggressors, &["--cases", "x"], "--cases"),
        (aggressors, &["--bogus"], "--bogus"),
        (nonoverlap, &["--cases", "0"], "--cases"),
        (nonoverlap, &["--cases", "1"], "--cases"),
        (nonoverlap, &["--cases", "x"], "--cases"),
        (nonoverlap, &["--bogus"], "--bogus"),
        // Zero iterations would divide the elapsed time by zero.
        (runtime, &["--iterations", "0"], "--iterations"),
        (runtime, &["--iterations", "x"], "--iterations"),
        (figure2, &["--out", out, "--skew", "x"], "--skew"),
        (figure2, &["--out", out, "--skew", "nan"], "--skew"),
        (figure2, &["--out", out, "--bogus"], "--bogus"),
    ];
    for (bin, args, flag) in cases {
        let run = Command::new(bin)
            .args(*args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(
            run.status.code(),
            Some(2),
            "{bin} {args:?}: stderr: {stderr}"
        );
        assert!(stderr.contains(flag), "{bin} {args:?}: stderr: {stderr}");
        assert!(
            run.stdout.is_empty(),
            "{bin} {args:?}: a usage error prints no result"
        );
    }
}
