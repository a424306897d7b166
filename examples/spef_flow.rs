//! The SPEF-driven crosstalk flow: parse a netlist and its extracted
//! parasitics, bind the coupling capacitances onto the design, filter
//! aggressors by timing-window overlap, and run the crosstalk-aware
//! analysis — the full integration path a commercial tool would follow,
//! with no hand-written coupling specs.
//!
//! Run with `cargo run --release --example spef_flow`.

use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::parasitics::{bind_couplings, parse_spef, BindOptions};
use noisy_sta::spice::Process;
use noisy_sta::sta::{verilog, Constraints, SiOptions, Sta};
use std::fmt::Write as _;

/// Victim `v` runs next to an aligned aggressor `gn` and a far aggressor
/// `gf` that only switches a dozen gate delays later.
fn netlist() -> String {
    let stages = 12;
    let mut src = String::from(
        "module datapath (a, b, c, y, z, w); input a, b, c; output y, z, w;\n\
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

/// Extracted parasitics: the victim wire is the paper's Figure 1 line,
/// coupled 50 fF to each aggressor.
const SPEF: &str = "\
*SPEF \"IEEE 1481-1998\"
*DESIGN \"datapath\"
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
1 *2 *2:1 12.75
2 *2:1 *2:2 12.75
*END
*D_NET *3 14.4
*CAP
1 *3:1 14.4
*RES
1 *3 *3:1 25.5
*END
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("characterizing library (transistor-level, 3x3 grid)...");
    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )?;

    let design = verilog::parse_design(&netlist())?;
    let spef = parse_spef(SPEF)?;
    println!(
        "parsed SPEF `{}`: {} extracted nets",
        spef.design,
        spef.nets.len()
    );

    let bound = bind_couplings(&spef, &design, &BindOptions::default())?;
    println!(
        "bound {} coupling spec(s) onto the design",
        bound.specs.len()
    );
    for spec in &bound.specs {
        println!(
            "  victim `v`: {} aggressor(s), line {:.1} Ω / {:.1} fF",
            spec.aggressors.len(),
            spec.line.r_total,
            spec.line.c_total * 1e15
        );
    }

    let sta = Sta::new(design, lib)?;
    let constraints = Constraints::default();
    let clean = sta.analyze(constraints)?;
    println!("\n== clean (ideal wires) ==\n{clean}");

    let analysis =
        sta.analyze_with_crosstalk_windows(constraints, &bound.specs, &SiOptions::default())?;
    println!(
        "== window-filtered crosstalk (SGDP) == {} iteration(s), converged: {}",
        analysis.diagnostics.iterations.len(),
        analysis.diagnostics.converged
    );
    println!(
        "  shared factorizations: {} hit(s), {} miss(es) (one lookup per victim net's \
         same-grid transitions) across {} fanout cone(s)",
        analysis.diagnostics.cache_hits,
        analysis.diagnostics.cache_misses,
        analysis.diagnostics.cones
    );
    for p in &analysis.pruned {
        println!(
            "  pruned aggressor `{}` of victim `{}`: window [{:.1}, {:.1}] ps cannot \
             overlap [{:.1}, {:.1}] ps",
            sta.design().net_name(p.aggressor),
            sta.design().net_name(p.victim),
            p.aggressor_window.earliest * 1e12,
            p.aggressor_window.latest * 1e12,
            p.victim_window.earliest * 1e12,
            p.victim_window.latest * 1e12,
        );
    }
    for adj in &analysis.adjustments {
        println!(
            "  victim {} {}: {:.1} ps -> {:.1} ps (push-out {:+.1} ps, slew {:.1} ps)",
            sta.design().net_name(adj.net),
            adj.polarity,
            adj.base_arrival * 1e12,
            adj.noisy_arrival * 1e12,
            (adj.noisy_arrival - adj.base_arrival) * 1e12,
            adj.noisy_slew * 1e12
        );
    }
    println!("\n{}", analysis.report);

    let y = sta.design().find_net("y").ok_or("net y")?;
    let clean_arr = clean
        .net(y)
        .and_then(|t| t.rise.as_ref())
        .ok_or("clean timing")?
        .arrival;
    let noisy_arr = analysis
        .report
        .net(y)
        .and_then(|t| t.rise.as_ref())
        .ok_or("noisy timing")?
        .arrival;
    println!(
        "victim fanout `y` rise: clean {:.1} ps -> with crosstalk {:.1} ps ({:+.1} ps)",
        clean_arr * 1e12,
        noisy_arr * 1e12,
        (noisy_arr - clean_arr) * 1e12
    );

    if analysis.pruned.is_empty() {
        return Err("expected the far aggressor to be window-pruned".into());
    }
    if noisy_arr <= clean_arr {
        return Err("expected crosstalk push-out on the surviving victim".into());
    }
    Ok(())
}
