//! Fault-tolerance integration tests: degenerate extractions flow into
//! structured errors or degraded-but-complete results per the fault
//! policy, and every deterministic injected fault (lost pivot, NaN solve,
//! worker panic) recovers through the fallback machinery
//! with the recovered result landing within the dense-parity tolerance of
//! a fault-free run.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use noisy_sta::circuit::RcLineSpec;
use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::liberty::Library;
use noisy_sta::parasitics::{bind_couplings, parse_spef, BindOptions};
use noisy_sta::spice::Process;
use noisy_sta::sta::{
    verilog, Constraints, CouplingSpec, DegradeAction, FaultPolicy, SiOptions, StaError,
};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The injection plan is process-global, so every test that arms it (or
/// asserts on fired counters) must hold this lock. Poison recovery keeps
/// one failing test from cascading into spurious lock panics.
fn fault_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn lib() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| {
        inverter_family(
            &Process::c013(),
            &[("INVX1", 1.0), ("INVX4", 4.0)],
            &Options::fast_test(),
        )
        .expect("characterization")
    })
}

/// `groups` independent victim/aggressor pairs: `a{g} → v{g} → y{g}`
/// coupled to `b{g} → g{g} → z{g}`. With `distinct_lines` every group's
/// victim wire has its own length, so no two groups share a topology key
/// (and with it a factorization); otherwise all groups are identical.
fn grouped_sta(groups: usize, distinct_lines: bool) -> (noisy_sta::sta::Sta, Vec<CouplingSpec>) {
    let mut src = String::from("module m (");
    let ports: Vec<String> = (0..groups)
        .flat_map(|g| {
            [
                format!("a{g}"),
                format!("b{g}"),
                format!("y{g}"),
                format!("z{g}"),
            ]
        })
        .collect();
    src.push_str(&ports.join(", "));
    src.push_str(");\n");
    for g in 0..groups {
        let _ = writeln!(src, "input a{g}, b{g}; output y{g}, z{g}; wire v{g}, g{g};");
        let _ = writeln!(src, "INVX1 u{g}_1 (.A(a{g}), .Y(v{g}));");
        let _ = writeln!(src, "INVX4 u{g}_2 (.A(v{g}), .Y(y{g}));");
        let _ = writeln!(src, "INVX1 u{g}_3 (.A(b{g}), .Y(g{g}));");
        let _ = writeln!(src, "INVX4 u{g}_4 (.A(g{g}), .Y(z{g}));");
    }
    src.push_str("endmodule\n");
    let design = verilog::parse_design(&src).expect("netlist");
    let sta = noisy_sta::sta::Sta::new(design, lib().clone()).expect("sta");
    let specs: Vec<CouplingSpec> = (0..groups)
        .map(|g| {
            let microns = if distinct_lines {
                1000.0 + 250.0 * g as f64
            } else {
                1000.0
            };
            CouplingSpec::new(
                sta.design().find_net(&format!("v{g}")).expect("victim"),
                vec![sta.design().find_net(&format!("g{g}")).expect("aggressor")],
                100e-15,
                RcLineSpec::per_micron(microns).expect("line"),
            )
        })
        .collect();
    (sta, specs)
}

/// Arms one site, runs the windowed analysis under `Isolate`, disarms,
/// and asserts: the fault actually fired, everything recovered (no
/// dropped victim), the expected degrade action is on record, and the
/// worst arrival matches the fault-free run within the 1e-6 ps parity
/// tolerance.
fn assert_recovers(site: &str, expect_action: DegradeAction, opts: &SiOptions) {
    let _g = fault_guard();
    let groups = if site == "worker-panic" { 4 } else { 2 };
    // The pivot-loss site is consulted per sparse factorization, and
    // identical groups share one: distinct lines give each group its own.
    let (sta, specs) = grouped_sta(groups, site == "pivot-loss");
    let c = Constraints::default();
    let clean = sta
        .analyze_with_crosstalk_windows(c, &specs, opts)
        .expect("clean analysis");
    assert!(clean.degrade_events().is_empty());

    noisy_sta::obs::fault::arm(site, 7).expect("arm");
    let injected = sta.analyze_with_crosstalk_windows(
        c,
        &specs,
        &SiOptions {
            fault_policy: FaultPolicy::Isolate,
            ..opts.clone()
        },
    );
    let fired = noisy_sta::obs::fault::total_fired();
    noisy_sta::obs::fault::disarm();
    let injected = injected.expect("injected analysis completes under Isolate");

    assert!(fired >= 1, "{site}: no fault fired; too few opportunities");
    let events = injected.degrade_events();
    assert!(
        events
            .iter()
            .any(|e| e.action == expect_action && e.recovered),
        "{site}: no recovered {expect_action:?} event in {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| e.action == DegradeAction::VictimDropped),
        "{site}: a victim was dropped instead of recovered: {events:?}"
    );
    let (wc, wi) = (
        clean.report.worst_arrival(),
        injected.report.worst_arrival(),
    );
    let delta = if wc == wi { 0.0 } else { (wi - wc).abs() };
    assert!(
        delta <= 1e-18,
        "{site}: recovered arrival off by {:.3e} ps",
        delta * 1e12
    );
}

#[test]
fn injected_pivot_loss_recovers_through_the_dense_fallback() {
    assert_recovers(
        "pivot-loss",
        DegradeAction::DenseRetry,
        &SiOptions::default(),
    );
}

#[test]
fn injected_nan_solve_recovers_through_the_dense_fallback() {
    assert_recovers(
        "nan-solve",
        DegradeAction::DenseRetry,
        &SiOptions::default(),
    );
}

#[test]
fn injected_worker_panic_is_retried_on_the_coordinator() {
    assert_recovers(
        "worker-panic",
        DegradeAction::ConeRetry,
        &SiOptions {
            threads: 2,
            ..SiOptions::default()
        },
    );
}

/// Design matching the degenerate-SPEF fixtures below: victim `v`
/// coupled to aggressor `g`.
fn coupled_sta() -> noisy_sta::sta::Sta {
    let design = verilog::parse_design(
        "module m (a, b, y, z); input a, b; output y, z; wire v, g;\
         INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\
         INVX1 u3 (.A(b), .Y(g)); INVX4 u4 (.A(g), .Y(z)); endmodule",
    )
    .expect("netlist");
    noisy_sta::sta::Sta::new(design, lib().clone()).expect("sta")
}

/// Runs the degenerate-SPEF flow under both fault policies and asserts
/// the Fail error names the victim and carries `expect_reason`, while
/// Isolate completes with the victim dropped and marked degraded.
fn assert_degenerate(spef_text: &str, expect_reason: &str) {
    let _g = fault_guard();
    let sta = coupled_sta();
    let spef = parse_spef(spef_text).expect("spef parses: the defect is electrical, not syntactic");
    let bound = bind_couplings(&spef, sta.design(), &BindOptions::default()).expect("bind");
    assert_eq!(bound.specs.len(), 1);
    let c = Constraints::default();

    // Fail (the default): a structured error, not a panic.
    let err = sta
        .analyze_with_crosstalk_windows(c, &bound.specs, &SiOptions::default())
        .expect_err("degenerate mesh must fail under FaultPolicy::Fail");
    match &err {
        StaError::DegenerateMesh { net, reason } => {
            assert_eq!(net, "v");
            assert!(reason.contains(expect_reason), "reason {reason:?}");
        }
        other => panic!("expected DegenerateMesh, got {other:?}"),
    }

    // Isolate: the run completes, the victim keeps its nominal timing
    // (no adjustment) and is reported degraded.
    let analysis = sta
        .analyze_with_crosstalk_windows(
            c,
            &bound.specs,
            &SiOptions {
                fault_policy: FaultPolicy::Isolate,
                ..SiOptions::default()
            },
        )
        .expect("isolate completes with partial results");
    let v = sta.design().find_net("v").expect("net v");
    assert!(analysis.adjustments.iter().all(|a| a.net != v));
    let events = analysis.degrade_events();
    assert!(
        events
            .iter()
            .any(|e| e.action == DegradeAction::VictimDropped
                && e.net == Some(v)
                && !e.recovered
                && e.cause.contains(expect_reason)),
        "expected a VictimDropped event for v in {events:?}"
    );
    assert!(analysis.diagnostics.unrecovered_nets().contains(&v));
    assert!(analysis.report.worst_arrival() > 0.0);
}

#[test]
fn zero_capacitance_extraction_fails_fail_and_degrades_isolate() {
    assert_degenerate(
        "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 g\n\
         *D_NET *1 12.0\n\
         *CAP\n1 *1:1 0.0\n2 *1:1 *2:1 12.0\n\
         *RES\n1 *1 *1:1 5.0\n*END\n\
         *D_NET *2 30.0\n*CAP\n1 *2:1 30.0\n*RES\n1 *2 *2:1 4.0\n*END\n",
        "zero capacitance",
    );
}

#[test]
fn disconnected_node_extraction_fails_fail_and_degrades_isolate() {
    assert_degenerate(
        "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 g\n\
         *D_NET *1 30.0\n\
         *CAP\n1 *1:1 10.0\n2 *1:9 20.0\n3 *1:1 *2:1 12.0\n\
         *RES\n1 *1 *1:1 5.0\n*END\n\
         *D_NET *2 30.0\n*CAP\n1 *2:1 30.0\n*RES\n1 *2 *2:1 4.0\n*END\n",
        "disconnected node v:9",
    );
}
