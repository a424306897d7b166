//! Resource-governance integration tests: cooperative deadlines yield
//! well-formed partial results with per-net staleness (deterministically,
//! on a fake clock), and the convergence governor turns an unconverged fixed point into a
//! certified-conservative converged one with every widening on record.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use noisy_sta::circuit::RcLineSpec;
use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::liberty::Library;
use noisy_sta::spice::Process;
use noisy_sta::sta::{
    verilog, ArrivalWindow, Constraints, CouplingSpec, Deadline, DegradeAction, FakeClock,
    SiOptions,
};
use std::fmt::Write as _;
use std::sync::OnceLock;

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
/// coupled to `b{g} → g{g} → z{g}`.
fn grouped_sta(groups: usize) -> (noisy_sta::sta::Sta, Vec<CouplingSpec>) {
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
            CouplingSpec::new(
                sta.design().find_net(&format!("v{g}")).expect("victim"),
                vec![sta.design().find_net(&format!("g{g}")).expect("aggressor")],
                100e-15,
                RcLineSpec::per_micron(1000.0).expect("line"),
            )
        })
        .collect();
    (sta, specs)
}

/// A two-victim fixture where each coupled net is the other's aggressor:
/// every fixed-point iteration can move both windows, the shape in which
/// oscillation (and the governor's widening) lives.
fn mutual_sta() -> (noisy_sta::sta::Sta, Vec<CouplingSpec>) {
    let design = verilog::parse_design(
        "module m (a, b, y, z); input a, b; output y, z; wire v, g;\
         INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\
         INVX1 u3 (.A(b), .Y(g)); INVX4 u4 (.A(g), .Y(z)); endmodule",
    )
    .expect("netlist");
    let sta = noisy_sta::sta::Sta::new(design, lib().clone()).expect("sta");
    let v = sta.design().find_net("v").expect("v");
    let g = sta.design().find_net("g").expect("g");
    let line = RcLineSpec::per_micron(1000.0).expect("line");
    let specs = vec![
        CouplingSpec::new(v, vec![g], 100e-15, line),
        CouplingSpec::new(g, vec![v], 100e-15, line),
    ];
    (sta, specs)
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

#[test]
fn pre_expired_fake_deadline_yields_well_formed_partial_result() {
    // Budget 0 on a fake clock: expired before the first cone is
    // scheduled, so every victim is skipped — the fully deterministic
    // worst case of a deadline expiry.
    let (sta, specs) = grouped_sta(4);
    let c = Constraints::default();
    let analysis = sta
        .analyze_with_crosstalk_windows(
            c,
            &specs,
            &SiOptions {
                deadline: Some(Deadline::on_fake(FakeClock::new(1), 0)),
                ..SiOptions::default()
            },
        )
        .expect("a deadline expiry degrades, it does not error");
    assert!(analysis.timed_out());
    let stale = analysis.stale_nets();
    assert_eq!(stale.len(), specs.len(), "every victim is stale");
    for spec in &specs {
        assert!(stale.contains(&spec.victim));
    }
    // Every stale net is on record as an unrecovered DeadlineSkipped
    // degrade event — structured staleness, not silence.
    for &net in &stale {
        assert!(analysis
            .degrade_events()
            .iter()
            .any(|e| e.action == DegradeAction::DeadlineSkipped
                && e.net == Some(net)
                && !e.recovered));
    }
    // The partial result is still a complete, usable report: stale
    // victims keep their nominal timing.
    assert!(analysis.report.worst_arrival() > 0.0);
    assert_eq!(analysis.report.nets().len(), sta.design().net_count());
    // No SI adjustment was fabricated for a victim that never simulated.
    assert!(analysis.adjustments.is_empty());
}

#[test]
fn mid_analysis_fake_deadline_expiry_is_deterministic_and_partial() {
    // A budget of a few fake-clock steps expires mid-pass: some cones
    // finish, the rest are skipped. The fake clock advances by a fixed
    // step per poll and the inline scheduler polls in a fixed order, so
    // the outcome is exactly reproducible — assert that, plus partial
    // progress in both directions.
    let (sta, specs) = grouped_sta(6);
    let c = Constraints::default();
    let run = || {
        sta.analyze_with_crosstalk_windows(
            c,
            &specs,
            &SiOptions {
                deadline: Some(Deadline::on_fake(FakeClock::new(1), 3)),
                ..SiOptions::default()
            },
        )
        .expect("deadline expiry degrades")
    };
    let a = run();
    let b = run();
    assert!(a.timed_out());
    let stale = a.stale_nets();
    assert!(!stale.is_empty(), "the deadline must have expired mid-run");
    assert!(
        stale.len() < specs.len(),
        "some cones must have finished before expiry (stale: {stale:?})"
    );
    // Deterministic: same stale set, bit-identical partial report.
    assert_eq!(stale, b.stale_nets());
    assert_eq!(a.report, b.report);
    assert_eq!(a.adjustments, b.adjustments);
}

#[test]
fn generous_deadline_is_bit_identical_to_no_deadline() {
    // Deadline polling may never perturb a result: a budget the analysis
    // cannot exhaust must reproduce the no-deadline run bit for bit.
    let (sta, specs) = grouped_sta(4);
    let c = Constraints::default();
    let unbounded = sta
        .analyze_with_crosstalk_windows(c, &specs, &SiOptions::default())
        .expect("no-deadline analysis");
    let governed = sta
        .analyze_with_crosstalk_windows(
            c,
            &specs,
            &SiOptions {
                deadline: Some(Deadline::on_fake(FakeClock::new(1), u64::MAX)),
                ..SiOptions::default()
            },
        )
        .expect("in-budget analysis");
    assert!(!governed.timed_out());
    assert!(governed.stale_nets().is_empty());
    assert_eq!(governed.report, unbounded.report);
    assert_eq!(governed.adjustments, unbounded.adjustments);
}

// ---------------------------------------------------------------------
// Convergence governance
// ---------------------------------------------------------------------

#[test]
fn governor_converges_a_cap_starved_fixed_point_conservatively() {
    // max_iterations: 1 starves the mutual-aggressor fixed point (its
    // windows still move after one pass). Ungoverned, that returns
    // unconverged; the governor instead keeps iterating under the
    // union-widening update and must terminate *converged* within the
    // certified bound. (The widening algebra itself — termination and
    // windows ⊇ both iterates on a hand-built oscillation — is proven by
    // the governed_update_tames_a_two_victim_oscillation unit test in
    // si.rs; on this engine's monotonically growing windows the union is
    // a no-op, so no ConvergenceAction need appear here.)
    let (sta, specs) = mutual_sta();
    let c = Constraints::default();
    let starved = SiOptions {
        max_iterations: 1,
        convergence_governor: false,
        ..SiOptions::default()
    };
    let ungoverned = sta
        .analyze_with_crosstalk_windows(c, &specs, &starved)
        .expect("ungoverned analysis");
    assert!(
        !ungoverned.converged(),
        "fixture must not converge in one pass, or the governor has nothing to do"
    );
    assert_eq!(ungoverned.iterations(), 1);
    let governed = sta
        .analyze_with_crosstalk_windows(
            c,
            &specs,
            &SiOptions {
                convergence_governor: true,
                ..starved.clone()
            },
        )
        .expect("governed analysis");
    assert!(governed.converged(), "widening certifies termination");
    // Termination bound: max_iterations + one governed iteration per
    // coupled pair + slack (see the governed_cap derivation in si.rs).
    let total_pairs: usize = specs.iter().map(|s| s.aggressors.len()).sum();
    assert!(governed.iterations() <= 1 + total_pairs + 2);
    // Any widening the governor did apply must be conservative: the
    // installed window covers the iterate the pass actually computed.
    for a in governed.convergence_actions() {
        assert!(a.widened.earliest <= a.fresh.earliest);
        assert!(a.widened.latest >= a.fresh.latest);
        assert!(a.iteration >= 1);
    }
    // Governed convergence must not cost accuracy on the stationary
    // point: the governed result matches an amply-capped ungoverned run.
    let reference = sta
        .analyze_with_crosstalk_windows(c, &specs, &SiOptions::default())
        .expect("reference analysis");
    assert_eq!(governed.report, reference.report);
}

#[test]
fn governor_default_on_preserves_converging_runs_bit_identical() {
    // The governor's triggers cannot fire on a run whose deltas shrink,
    // so enabling it (the default) must not change a converging analysis
    // by a single bit.
    let (sta, specs) = grouped_sta(4);
    let c = Constraints::default();
    let on = sta
        .analyze_with_crosstalk_windows(c, &specs, &SiOptions::default())
        .expect("governed analysis");
    let off = sta
        .analyze_with_crosstalk_windows(
            c,
            &specs,
            &SiOptions {
                convergence_governor: false,
                ..SiOptions::default()
            },
        )
        .expect("ungoverned analysis");
    assert!(on.converged() && off.converged());
    assert!(on.convergence_actions().is_empty());
    assert_eq!(on.report, off.report);
    assert_eq!(on.adjustments, off.adjustments);
}

#[test]
fn window_union_is_conservative_and_idempotent() {
    // The widening primitive itself: the union covers both operands, and
    // a period-2 oscillation's union is a fixed point of further
    // widening — the algebra the governor's termination argument rests
    // on.
    let a = ArrivalWindow {
        earliest: 1.0e-12,
        latest: 5.0e-12,
    };
    let b = ArrivalWindow {
        earliest: 3.0e-12,
        latest: 9.0e-12,
    };
    let u = a.union(&b);
    assert!(u.earliest <= a.earliest && u.earliest <= b.earliest);
    assert!(u.latest >= a.latest && u.latest >= b.latest);
    // Oscillation a → b → a → …: once the union is installed, unioning
    // with either iterate changes nothing.
    assert_eq!(u.union(&a), u);
    assert_eq!(u.union(&b), u);
    assert_eq!(u.union(&u), u);
}
