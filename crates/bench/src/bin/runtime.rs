//! Regenerates **Section 4.2** (run-time comparison): wall time per gate
//! delay propagation for every technique, plus the linear-in-P scaling the
//! paper claims.
//!
//! The paper reports ≈40 µs for P1/P2/LSF3/E4 and ≈60–65 µs for WLS5/SGDP
//! (P = 35) on a Sun Blade 1000; absolute numbers differ on modern CPUs but
//! the *ordering* (sensitivity-based methods ≈ 1.5× the point methods) and
//! P-linearity are the reproducible claims.
//!
//! Every method row times `equivalent` on one context, so SGDP and WLS5
//! reuse the ρ the warm-up call cached, as the paper's per-arc ρ would be.
//! The `SGDP (fresh context)` row times what a pipeline pays per noisy
//! input instead: building the context, extracting ρ, then the fit.
//!
//! Usage: `runtime [--iterations N]` (N ≥ 1)

use nsta_bench::cli::Cli;
use nsta_bench::report::render_table;
use nsta_spice::fig1::{self, Fig1Config};
use nsta_waveform::Thresholds;
use sgdp::{MethodKind, PropagationContext};
use std::time::{Duration, Instant};

fn main() {
    let mut iterations = 2000usize;
    let mut cli = Cli::from_env("runtime [--iterations N]");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--iterations" => iterations = cli.count("--iterations", 1),
            other => cli.unknown(other),
        }
    }

    // One representative Config-I case, waveforms precomputed: the timed
    // region is exactly the delay-propagation step the paper times.
    let cfg = Fig1Config::config_i();
    let th = Thresholds::cmos(cfg.proc.vdd);
    eprintln!("preparing waveforms (one golden simulation)...");
    let quiet = fig1::run_noiseless(&cfg).expect("noiseless run");
    let noisy = fig1::run_case(&cfg, &[0.0]).expect("noisy run");
    let ctx = PropagationContext::new(
        quiet.in_u.clone(),
        noisy.in_u.clone(),
        Some(quiet.out_u.clone()),
        th,
    )
    .expect("context");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let ratio_to_p1 = |rows: &[Vec<String>], micros: f64| {
        micros
            / rows
                .first()
                .map_or(micros, |r| r[1].parse().unwrap_or(micros))
    };
    for method in MethodKind::all() {
        // Warm up and validate once.
        if method.equivalent(&ctx).is_err() {
            rows.push(vec![method.name().to_string(), "failed".into(), "-".into()]);
            continue;
        }
        let start = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..iterations {
            let g = method.equivalent(&ctx).expect("validated above");
            acc += g.arrival_mid();
        }
        let micros = start.elapsed().as_secs_f64() * 1e6 / iterations as f64;
        std::hint::black_box(acc);
        let ratio = ratio_to_p1(&rows, micros);
        rows.push(vec![
            method.name().to_string(),
            format!("{micros:.2}"),
            format!("{ratio:.2}"),
        ]);
    }
    // The rows above reuse the context, so SGDP and WLS5 find ρ cached.
    // A pipeline builds one context per noisy input and pays all three
    // steps: the context, ρ and the fit. The inputs are cloned outside
    // the clock, as a pipeline moves its own waveforms in.
    let mut fresh = Duration::ZERO;
    let mut acc = 0.0f64;
    for _ in 0..iterations {
        let inputs = (
            quiet.in_u.clone(),
            noisy.in_u.clone(),
            Some(quiet.out_u.clone()),
        );
        let start = Instant::now();
        let ctx = PropagationContext::new(inputs.0, inputs.1, inputs.2, th).expect("context");
        ctx.sensitivity().expect("sensitivity");
        let g = MethodKind::Sgdp.equivalent(&ctx).expect("sgdp");
        fresh += start.elapsed();
        acc += g.arrival_mid();
    }
    std::hint::black_box(acc);
    let micros = fresh.as_secs_f64() * 1e6 / iterations as f64;
    let ratio = ratio_to_p1(&rows, micros);
    rows.push(vec![
        "SGDP (fresh context)".to_string(),
        format!("{micros:.2}"),
        format!("{ratio:.2}"),
    ]);
    println!("\nSection 4.2 — run-time per gate delay propagation ({iterations} iterations)");
    print!(
        "{}",
        render_table(&["Method", "us/propagation", "vs P1"], &rows)
    );

    // P-linearity: SGDP runtime vs sampling budget.
    let mut prows = Vec::new();
    for p in [9usize, 17, 35, 70, 140] {
        let ctx_p = ctx.clone().with_samples(p).expect("valid P");
        let start = Instant::now();
        for _ in 0..iterations {
            std::hint::black_box(MethodKind::Sgdp.equivalent(&ctx_p).expect("sgdp"));
        }
        let micros = start.elapsed().as_secs_f64() * 1e6 / iterations as f64;
        prows.push(vec![p.to_string(), format!("{micros:.2}")]);
    }
    println!("\nSGDP runtime vs sampling budget P (paper: linear order in P)");
    print!("{}", render_table(&["P", "us/propagation"], &prows));
}
