//! Regenerates **Table 1** of the paper: gate-delay error (max / avg, in
//! picoseconds) of P1, P2, LSF3, E4, WLS5 and SGDP against the golden
//! transistor-level simulation, for Configuration I (one aggressor,
//! 1000 µm lines) and Configuration II (two aggressors, 500 µm lines).
//!
//! Usage: `table1 [--cases N] [--config i|ii|both] [--csv]` (N ≥ 2)
//! The paper uses 200 noise-injection cases over a 1 ns alignment window.

use nsta_bench::cli::Cli;
use nsta_bench::report::{ps, render_csv, render_table};
use nsta_bench::{run_accuracy, skew_sweep};
use nsta_spice::fig1::Fig1Config;
use sgdp::MethodKind;

struct Args {
    cases: usize,
    run_i: bool,
    run_ii: bool,
    csv: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        cases: 200,
        run_i: true,
        run_ii: true,
        csv: false,
    };
    let mut cli = Cli::from_env("table1 [--cases N] [--config i|ii|both] [--csv]");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--cases" => args.cases = cli.count("--cases", 2),
            "--config" => match cli.value::<String>("--config").as_str() {
                "i" => args.run_ii = false,
                "ii" => args.run_i = false,
                "both" => {}
                _ => cli.fail("--config takes i, ii or both"),
            },
            "--csv" => args.csv = true,
            other => cli.unknown(other),
        }
    }
    args
}

fn run_config(name: &str, cfg: &Fig1Config, cases: usize, csv: bool) {
    // The paper: cases spread over a 1 ns window (±0.5 ns around the victim).
    let workload = skew_sweep(cfg.aggressors, cases, 0.5e-9);
    let methods = MethodKind::all();
    eprintln!("[{name}] running {cases} noise-injection cases...");
    let started = std::time::Instant::now();
    let table = run_accuracy(cfg, &workload, &methods, |done, total| {
        if done % 20 == 0 || done == total {
            eprintln!(
                "[{name}] {done}/{total} cases ({:.1}s)",
                started.elapsed().as_secs_f64()
            );
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("[{name}] experiment failed: {e}");
        std::process::exit(1);
    });

    let headers = ["Method", "Max (ps)", "Avg (ps)", "RMS (ps)", "Failures"];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.method.name().to_string(),
                ps(r.max_error),
                ps(r.avg_error),
                ps(r.rms_error),
                r.failures.to_string(),
            ]
        })
        .collect();
    println!("\nTable 1 — Configuration {name}: delay error vs golden simulation");
    println!(
        "({} delay-noise cases; {} functional-noise cases excluded; golden gate delay spans {} .. {} ps)",
        table.cases,
        table.excluded_functional,
        ps(table.golden_delay_min),
        ps(table.golden_delay_max)
    );
    if csv {
        print!("{}", render_csv(&headers, &rows));
    } else {
        print!("{}", render_table(&headers, &rows));
    }
}

fn main() {
    let args = parse_args();
    if args.run_i {
        run_config("I", &Fig1Config::config_i(), args.cases, args.csv);
    }
    if args.run_ii {
        run_config("II", &Fig1Config::config_ii(), args.cases, args.csv);
    }
}
