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
//! find cached every ρ curve point they read: the context caches ρ per
//! point, and the warm-up call evaluated each point its method reads, as
//! the paper's per-arc ρ would be. A cached row still pays for finding
//! those points (one search per sample) and for the fit. The
//! `SGDP (fresh context)` row times what a pipeline pays per noisy input
//! instead: building the context and the curve's points and voltage
//! envelope, evaluating the points step 2 reads, then the fit.
//!
//! The rows are timed in [`ROUNDS`] interleaved rounds, every row once per
//! round, so a change in the host's speed during the run lands on every
//! row alike instead of on whichever row was running. Each row prints the
//! median and quartiles of its per-round µs per propagation, and the ratio
//! of its median to P1's.
//!
//! Usage: `runtime [--iterations N]` (N ≥ 1 calls per row, split over
//! the rounds)

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

    let calls = iterations.div_ceil(ROUNDS);
    let mut rows: Vec<Row<'_>> = Vec::new();
    let mut failed = Vec::new();
    for method in MethodKind::all() {
        // Warm up and validate once.
        if method.equivalent(&ctx).is_err() {
            failed.push(method.name());
            continue;
        }
        let ctx = &ctx;
        rows.push((
            method.name().to_string(),
            Box::new(move |calls| {
                let start = Instant::now();
                let mut acc = 0.0f64;
                for _ in 0..calls {
                    acc += method
                        .equivalent(ctx)
                        .expect("validated above")
                        .arrival_mid();
                }
                let elapsed = start.elapsed();
                std::hint::black_box(acc);
                elapsed
            }),
        ));
    }
    // The rows above reuse the context, so SGDP and WLS5 find the ρ
    // points they read cached. A pipeline builds one context per noisy
    // input and pays all three steps: the context, ρ and the fit. The
    // inputs are cloned outside the clock, as a pipeline moves its own
    // waveforms in.
    rows.push((
        "SGDP (fresh context)".to_string(),
        Box::new(|calls| {
            let mut timed = Duration::ZERO;
            let mut acc = 0.0f64;
            for _ in 0..calls {
                let inputs = (
                    quiet.in_u.clone(),
                    noisy.in_u.clone(),
                    Some(quiet.out_u.clone()),
                );
                let start = Instant::now();
                let ctx =
                    PropagationContext::new(inputs.0, inputs.1, inputs.2, th).expect("context");
                ctx.sensitivity().expect("sensitivity");
                let g = MethodKind::Sgdp.equivalent(&ctx).expect("sgdp");
                timed += start.elapsed();
                acc += g.arrival_mid();
            }
            std::hint::black_box(acc);
            timed
        }),
    ));
    let stats = time_rounds(&mut rows, calls);
    let p1_median = stats.first().map_or(f64::NAN, |q| q[1]);
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .zip(&stats)
        .map(|((name, _), [q1, median, q3])| {
            vec![
                name.clone(),
                format!("{median:.2}"),
                format!("{q1:.2}"),
                format!("{q3:.2}"),
                format!("{:.2}", median / p1_median),
            ]
        })
        .collect();
    table.extend(failed.into_iter().map(|name| {
        let mut row = vec![name.to_string(), "failed".into()];
        row.extend(["-".to_string(), "-".to_string(), "-".to_string()]);
        row
    }));
    println!(
        "\nSection 4.2 — run-time per gate delay propagation \
         ({ROUNDS} interleaved rounds of {calls} calls per row)"
    );
    print!(
        "{}",
        render_table(&["Method", "median us", "q1 us", "q3 us", "vs P1"], &table)
    );

    // P-linearity: SGDP runtime vs sampling budget.
    let budgets = [9usize, 17, 35, 70, 140];
    let contexts: Vec<PropagationContext> = budgets
        .iter()
        .map(|&p| ctx.clone().with_samples(p).expect("valid P"))
        .collect();
    let mut rows: Vec<Row<'_>> = budgets
        .iter()
        .zip(&contexts)
        .map(|(p, ctx_p)| -> Row<'_> {
            (
                p.to_string(),
                Box::new(move |calls| {
                    let start = Instant::now();
                    for _ in 0..calls {
                        std::hint::black_box(MethodKind::Sgdp.equivalent(ctx_p).expect("sgdp"));
                    }
                    start.elapsed()
                }),
            )
        })
        .collect();
    let stats = time_rounds(&mut rows, calls);
    let prows: Vec<Vec<String>> = rows
        .iter()
        .zip(&stats)
        .map(|((p, _), [q1, median, q3])| {
            vec![
                p.clone(),
                format!("{median:.2}"),
                format!("{q1:.2}"),
                format!("{q3:.2}"),
            ]
        })
        .collect();
    println!("\nSGDP runtime vs sampling budget P (paper: linear order in P)");
    print!(
        "{}",
        render_table(&["P", "median us", "q1 us", "q3 us"], &prows)
    );
}

/// Interleaved timing rounds per table.
const ROUNDS: usize = 21;

/// A timed table row: its label and a closure that makes `calls` calls
/// and returns the time they took.
type Row<'a> = (String, Box<dyn FnMut(usize) -> Duration + 'a>);

/// Runs every row once per round for [`ROUNDS`] rounds, the rows
/// interleaved within each round, and returns each row's quartiles
/// `[q1, median, q3]` of µs per call over the rounds.
fn time_rounds(rows: &mut [Row<'_>], calls: usize) -> Vec<[f64; 3]> {
    let mut samples = vec![Vec::with_capacity(ROUNDS); rows.len()];
    for _ in 0..ROUNDS {
        for ((_, run), out) in rows.iter_mut().zip(&mut samples) {
            out.push(run(calls).as_secs_f64() * 1e6 / calls as f64);
        }
    }
    samples.into_iter().map(quartiles).collect()
}

/// `[q1, median, q3]` of `samples`, interpolating linearly between order
/// statistics.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (samples.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        samples[lo] + (pos - lo as f64) * (samples[hi] - samples[lo])
    };
    [at(0.25), at(0.5), at(0.75)]
}
