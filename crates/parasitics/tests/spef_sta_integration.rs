//! End-to-end integration: netlist + SPEF → bind → timing-window filter →
//! crosstalk STA. Exercises the exact flow `examples/spef_flow.rs`
//! demonstrates, with assertions.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_liberty::characterize::{inverter_family, Options};
use nsta_parasitics::{bind_couplings, parse_spef, BindOptions};
use nsta_spice::Process;
use nsta_sta::{verilog::parse_design, Constraints, SiOptions, Sta};
use std::fmt::Write as _;

/// Victim `v` plus a window-aligned aggressor `gn` and a far aggressor
/// `gf` behind a 12-stage chain: three coupled nets.
fn netlist() -> String {
    let stages = 12;
    let mut src = String::from(
        "module m (a, b, c, y, z, w); input a, b, c; output y, z, w;\n\
         wire v, gn, gf;\n\
         INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\n\
         INVX1 u3 (.A(b), .Y(gn)); INVX4 u4 (.A(gn), .Y(z));\n",
    );
    for i in 1..stages {
        let _ = writeln!(src, "wire f{i};");
    }
    src.push_str("INVX1 c1 (.A(c), .Y(f1));\n");
    for i in 1..stages - 1 {
        let _ = writeln!(src, "INVX1 c{} (.A(f{}), .Y(f{}));", i + 1, i, i + 1);
    }
    let _ = writeln!(src, "INVX1 c{} (.A(f{}), .Y(gf));", stages, stages - 1);
    src.push_str("INVX4 u5 (.A(gf), .Y(w));\nendmodule");
    src
}

/// The victim net's extraction couples it to both aggressors.
const SPEF: &str = "\
*SPEF \"IEEE 1481-1998\"
*DESIGN \"m\"
*DIVIDER /
*DELIMITER :
*T_UNIT 1 NS
*C_UNIT 1 FF
*R_UNIT 1 OHM
*L_UNIT 1 HENRY
*NAME_MAP
*1 v
*2 gn
*3 gf
*D_NET *1 128.8
*CONN
*I u1:Y O *D INVX1
*I u2:A I *L 5.2
*CAP
1 *1:1 9.6
2 *1:2 9.6
3 *1:3 9.6
4 *1:1 *2:1 25.0
5 *1:2 *2:2 25.0
6 *1:2 *3:1 50.0
*RES
1 *1 *1:1 8.5
2 *1:1 *1:2 8.5
3 *1:2 *1:3 8.5
*END
*D_NET *2 28.8
*CAP
1 *2:1 14.4
2 *2:2 14.4
*RES
1 *2 *2:1 10.0
2 *2:1 *2:2 10.0
*END
*D_NET *3 14.4
*CAP
1 *3:1 14.4
*RES
1 *3 *3:1 30.0
*END
";

#[test]
fn spef_driven_window_filtered_crosstalk_flow() {
    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .expect("characterization");
    let design = parse_design(&netlist()).expect("netlist");
    let spef = parse_spef(SPEF).expect("spef");
    let bound = bind_couplings(&spef, &design, &BindOptions::default()).expect("bind");
    assert_eq!(bound.specs.len(), 1, "one victim with coupled extraction");
    let spec = &bound.specs[0];
    assert_eq!(spec.aggressors.len(), 2);
    // The victim line comes from its own extraction…
    assert!((spec.line.r_total - 25.5).abs() < 1e-9);
    // …and each aggressor wire from *its* extraction, not the victim
    // fallback: the three nets deliberately have distinct R totals.
    // Aggressors are ordered by name (gf, gn).
    let gf_idx = spec
        .aggressors
        .iter()
        .position(|&a| a == design.find_net("gf").unwrap())
        .unwrap();
    let gn_idx = spec
        .aggressors
        .iter()
        .position(|&a| a == design.find_net("gn").unwrap())
        .unwrap();
    assert!((spec.aggressor_lines[gf_idx].r_total - 30.0).abs() < 1e-9);
    assert!((spec.aggressor_lines[gn_idx].r_total - 20.0).abs() < 1e-9);
    // The extraction's *L receiver load is forwarded to the spec.
    assert!((spec.receiver_load.expect("load forwarded") - 5.2e-15).abs() < 1e-27);

    let sta = Sta::new(design, lib).expect("sta");
    let c = Constraints::default();
    let clean = sta.analyze(c).expect("clean analysis");
    let analysis = sta
        .analyze_with_crosstalk_windows(c, &bound.specs, &SiOptions::default())
        .expect("window-filtered crosstalk analysis");

    // The far aggressor's window cannot reach the victim: pruned.
    let gf = sta.design().find_net("gf").expect("gf");
    assert!(
        analysis.pruned.iter().any(|p| p.aggressor == gf),
        "expected gf pruned, got {:?}",
        analysis.pruned
    );
    assert!(analysis.diagnostics.converged);

    // Window-filtered crosstalk delay is never better than clean delay:
    // the victim's fanout net sees wire delay plus surviving-aggressor
    // noise.
    let y = sta.design().find_net("y").expect("y");
    for (pol, clean_pt, noisy_pt) in [
        (
            "rise",
            clean.net(y).unwrap().rise.as_ref(),
            analysis.report.net(y).unwrap().rise.as_ref(),
        ),
        (
            "fall",
            clean.net(y).unwrap().fall.as_ref(),
            analysis.report.net(y).unwrap().fall.as_ref(),
        ),
    ] {
        let clean_arr = clean_pt.expect("clean timing").arrival;
        let noisy_arr = noisy_pt.expect("noisy timing").arrival;
        assert!(
            noisy_arr >= clean_arr,
            "{pol}: window-filtered crosstalk arrival {noisy_arr:e} below clean {clean_arr:e}"
        );
    }
    // And the worst slack cannot improve under coupling.
    assert!(analysis.report.worst_slack() <= clean.worst_slack() + 1e-15);
}
