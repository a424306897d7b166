//! Ablation **E-A1**: accuracy vs sampling budget `P`.
//!
//! The paper: "The SGDP run-time can be reduced by using smaller P values.
//! However small P tends to result in lower timing analysis accuracy."
//! This sweep quantifies that trade-off on Configuration I.
//!
//! Usage: `psweep [--cases N]` (N ≥ 2)

use nsta_bench::cli::Cli;
use nsta_bench::report::{ps, render_table};
use nsta_bench::skew_sweep;
use nsta_spice::fig1::Fig1Config;
use sgdp::MethodKind;

fn main() {
    let mut cases = 21usize;
    let mut cli = Cli::from_env("psweep [--cases N]");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--cases" => cases = cli.count("--cases", 2),
            other => cli.unknown(other),
        }
    }
    let workload = skew_sweep(1, cases, 0.5e-9);
    let mut rows = Vec::new();
    for p in [5usize, 9, 17, 35, 70] {
        let cfg = Fig1Config::config_i();
        // The context's sampling budget is configured through the
        // experiment driver; rebuild it with the requested P.
        let table = run_accuracy_with_p(&cfg, &workload, p);
        rows.push(vec![p.to_string(), ps(table.0), ps(table.1)]);
        eprintln!("P = {p} done");
    }
    println!("\nE-A1 — SGDP accuracy vs sampling budget P (Config I, {cases} cases)");
    print!("{}", render_table(&["P", "Max (ps)", "Avg (ps)"], &rows));
}

/// Runs the accuracy experiment with an explicit P, returning SGDP's
/// (max, avg) error.
fn run_accuracy_with_p(
    cfg: &Fig1Config,
    workload: &[nsta_bench::SkewCase],
    p: usize,
) -> (f64, f64) {
    // `run_accuracy` uses the default P; for the sweep we go through the
    // lower-level evaluation with an adjusted context.
    use nsta_numeric::stats::Summary;
    use nsta_spice::fig1;
    use nsta_waveform::Thresholds;
    use sgdp::eval::evaluate_case;
    use sgdp::gate::SpiceReceiverGate;
    use sgdp::PropagationContext;

    let th = Thresholds::cmos(cfg.proc.vdd);
    let gate = SpiceReceiverGate::new(*cfg);
    let quiet = fig1::run_noiseless(cfg).expect("noiseless");
    let mut s = Summary::new();
    for case in workload {
        let noisy = fig1::run_case(cfg, &case.skews).expect("case");
        if noisy.out_u.crossings(th.mid()).len() > 1 {
            continue; // functional-noise case, as in table1
        }
        let ctx = PropagationContext::new(
            quiet.in_u.clone(),
            noisy.in_u.clone(),
            Some(quiet.out_u.clone()),
            th,
        )
        .expect("context")
        .with_samples(p)
        .expect("valid P");
        let report =
            evaluate_case(&ctx, &gate, &noisy.out_u, &[MethodKind::Sgdp]).expect("evaluation");
        if let Some(err) = report.error_of(MethodKind::Sgdp) {
            s.push(err);
        }
    }
    (s.max(), s.mean())
}
