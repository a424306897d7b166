//! The generated bench workload must be lint-clean, and its windowed
//! analysis must keep the worst arrival the ROADMAP tracks.
//!
//! `spefbus --lint=deny` gates lint-cleanness in CI, but through the
//! binary; this test pins it at the library level against the exact
//! generators, at the `--groups 64` scale the ROADMAP tracks, with every
//! rule promoted to deny — so a generator regression (say, a victim
//! coupling to a wire the netlist no longer declares) fails in `cargo test`
//! before it fails in a release bench run. The worst-arrival pin is the
//! bit-identity invariant every speed or simplicity change is held to;
//! `spefbus` and perfbench only print that number.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_bench::busgen::{netlist, spef};
use nsta_liberty::characterize::{inverter_family, Options};
use nsta_lint::{run_lint, LintConfig, LintInput, Severity, RULES};
use nsta_parasitics::{
    bind_couplings, parse_spef, write_spef, BindOptions, BoundCouplings, SpefFile,
};
use nsta_spice::Process;
use nsta_sta::{verilog, BoundaryConditions, Constraints, SiOptions, Sta};

const GROUPS: usize = 64;

/// The `spefbus --groups 64` design: the characterized library, the
/// netlist, and its SPEF round-tripped through the writer and bound.
fn groups_64() -> (Sta, SpefFile, BoundCouplings) {
    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .unwrap();
    let design = verilog::parse_design(&netlist(GROUPS)).unwrap();
    // Round-trip through the writer exactly as spefbus does.
    let parsed = parse_spef(&write_spef(&spef(GROUPS, 3))).unwrap();
    let bound = bind_couplings(&parsed, &design, &BindOptions::default()).unwrap();
    assert_eq!(bound.specs.len(), GROUPS, "one victim spec per group");
    (Sta::new(design, lib).unwrap(), parsed, bound)
}

#[test]
fn groups_64_design_lints_clean_at_deny_level() {
    let (sta, parsed, bound) = groups_64();
    let mut config = LintConfig::new();
    for rule in RULES {
        assert!(config.set(rule.id, Severity::Deny));
    }
    let boundary = BoundaryConditions::default();
    let input = LintInput {
        design: sta.design(),
        library: sta.library(),
        couplings: &bound.specs,
        boundary: &boundary,
        spef: Some(&parsed),
        sdc: None,
    };
    let report = run_lint(&input, &config);
    assert!(
        report.is_clean(),
        "bench workload must produce zero diagnostics:\n{}",
        report.render_human()
    );
    assert_eq!(report.rules_run, RULES.len());
    assert!(!report.fails(true));
}

/// The reference design's worst arrival, bit for bit: 2282.238479413253 ps
/// under default constraints and options. A change meant to move it (a
/// fix to the reduction itself) updates this pin and records old → new.
#[test]
fn groups_64_worst_arrival_is_pinned() {
    let (sta, _, bound) = groups_64();
    let boundary = BoundaryConditions::uniform(&Constraints::default());
    let analysis = sta
        .analyze_with_crosstalk_windows(&boundary, &bound.specs, &SiOptions::default())
        .unwrap();
    let worst_ps = analysis.report.worst_arrival() * 1e12;
    assert_eq!(
        worst_ps.to_bits(),
        2282.238479413253_f64.to_bits(),
        "worst arrival {worst_ps} ps"
    );
}
