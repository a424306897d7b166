//! Ablation **E-A2**: WLS5's blindness to noise outside the noiseless
//! critical region, and its degradation with aggressor count.
//!
//! The paper: "If the noise distortion occurs outside the noiseless
//! critical region, then it will be ignored [by WLS5]... the higher the
//! number of aggressors is, the higher is the probability that WLS5
//! underestimates the arrival time and/or slew at the output of the gate
//! by a large amount."
//!
//! This experiment restricts the alignment sweep to *late* skews — noise
//! arriving at and beyond the tail of the noiseless critical region — and
//! compares WLS5 and SGDP for one and two aggressors.
//!
//! Usage: `aggressors [--cases N]` (N ≥ 2)

use nsta_bench::cli::Cli;
use nsta_bench::report::{ps, render_table};
use nsta_bench::{run_accuracy, SkewCase};
use nsta_spice::fig1::Fig1Config;
use sgdp::MethodKind;

fn late_sweep(aggressors: usize, cases: usize) -> Vec<SkewCase> {
    // Skews placing the aggressor edge near and after the victim's
    // noiseless critical region tail.
    (0..cases)
        .map(|k| {
            let s = 0.1e-9 + 0.4e-9 * k as f64 / (cases - 1) as f64;
            SkewCase {
                skews: vec![s; aggressors],
            }
        })
        .collect()
}

fn main() {
    let mut cases = 15usize;
    let mut cli = Cli::from_env("aggressors [--cases N]");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--cases" => cases = cli.count("--cases", 2),
            other => cli.unknown(other),
        }
    }
    let methods = [MethodKind::Wls5, MethodKind::Sgdp];
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("1 (Config I)", Fig1Config::config_i()),
        ("2 (Config II)", Fig1Config::config_ii()),
    ] {
        let workload = late_sweep(cfg.aggressors, cases);
        let table = run_accuracy(&cfg, &workload, &methods, |_, _| {}).expect("experiment");
        for row in &table.rows {
            rows.push(vec![
                label.to_string(),
                row.method.name().to_string(),
                ps(row.max_error),
                ps(row.avg_error),
                row.failures.to_string(),
            ]);
        }
        eprintln!("{label} done ({} delay-noise cases)", table.cases);
    }
    println!("\nE-A2 — late-noise robustness: WLS5 vs SGDP ({cases} late-aligned cases each)");
    print!(
        "{}",
        render_table(
            &["Aggressors", "Method", "Max (ps)", "Avg (ps)", "Failures"],
            &rows
        )
    );
}
