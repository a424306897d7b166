//! A complete STA flow: characterize a cell library with the built-in
//! transistor-level simulator, parse a gate-level netlist, run nominal
//! timing, then re-run with crosstalk-aware propagation and compare the
//! techniques' impact on the critical path.
//!
//! Run with `cargo run --release --example sta_flow`.

use noisy_sta::circuit::RcLineSpec;
use noisy_sta::core::MethodKind;
use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::spice::Process;
use noisy_sta::sta::{verilog, Constraints, CouplingSpec, SiOptions, Sta};

const NETLIST: &str = r#"
    // Two parallel inverter chains whose middle wires run side by side.
    module datapath (a, b, y, z);
      input a, b;
      output y, z;
      wire va, ga;
      INVX1 u1 (.A(a), .Y(va));
      INVX4 u2 (.A(va), .Y(y));
      INVX1 u3 (.A(b), .Y(ga));
      INVX4 u4 (.A(ga), .Y(z));
    endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("characterizing library (transistor-level, 3x3 grid)...");
    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )?;
    println!(
        "library `nsta013` with {} cells characterized",
        lib.cells().len()
    );

    let design = verilog::parse_design(NETLIST)?;
    let sta = Sta::new(design, lib)?;
    let constraints = Constraints::default();

    let nominal = sta.analyze(constraints)?;
    println!("\n== nominal (ideal wires) ==\n{nominal}");

    // Net `va` runs 1000 µm next to `ga` with 100 fF of coupling.
    let victim = sta.design().find_net("va").ok_or("net va")?;
    let aggressor = sta.design().find_net("ga").ok_or("net ga")?;
    let spec = CouplingSpec::new(
        victim,
        vec![aggressor],
        100e-15,
        RcLineSpec::per_micron(1000.0)?,
    );

    for method in [MethodKind::P1, MethodKind::Wls5, MethodKind::Sgdp] {
        let options = SiOptions {
            method,
            ..SiOptions::default()
        };
        match sta.analyze_with_crosstalk_windows(constraints, std::slice::from_ref(&spec), &options)
        {
            Ok(analysis) => {
                let report = &analysis.report;
                println!("== with crosstalk, {} ==", method.name());
                for adj in &analysis.adjustments {
                    println!(
                        "  victim {} {}: {:.1} ps -> {:.1} ps (slew {:.1} ps)",
                        sta.design().net_name(adj.net),
                        adj.polarity,
                        adj.base_arrival * 1e12,
                        adj.noisy_arrival * 1e12,
                        adj.noisy_slew * 1e12
                    );
                }
                println!(
                    "  worst arrival {:.1} ps, worst slack {:.1} ps\n",
                    report.worst_arrival() * 1e12,
                    report.worst_slack() * 1e12
                );
            }
            Err(e) => println!("== with crosstalk, {} == failed: {e}\n", method.name()),
        }
    }
    Ok(())
}
