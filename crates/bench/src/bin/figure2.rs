//! Regenerates **Figure 2** of the paper as CSV series:
//!
//! * `figure2a.csv` — the noiseless input/output waveforms and the scaled
//!   sensitivity `0.2·ρ_noiseless` (panel a),
//! * `figure2b.csv` — the noisy input, the golden (simulated) noisy output,
//!   the transferred sensitivity `0.2·ρeff`, the equivalent ramp `Γeff`
//!   and the predicted output `v_out_eff` (panel b).
//!
//! Usage: `figure2 [--skew ps] [--out dir]`

use nsta_bench::cli::Cli;
use nsta_spice::fig1::{self, Fig1Config};
use nsta_waveform::Thresholds;
use sgdp::sensitivity::{effective_sensitivity, rho_at_times};
use sgdp::{MethodKind, PropagationContext};
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let mut skew = 0.0f64;
    let mut out_dir = PathBuf::from(".");
    let mut cli = Cli::from_env("figure2 [--skew ps] [--out dir]");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--skew" => skew = cli.finite("--skew") * 1e-12,
            "--out" => out_dir = cli.value("--out"),
            other => cli.unknown(other),
        }
    }

    let cfg = Fig1Config::config_i();
    let th = Thresholds::cmos(cfg.proc.vdd);
    eprintln!("simulating Configuration I, skew {:+.0} ps...", skew * 1e12);
    let quiet = fig1::run_noiseless(&cfg).expect("noiseless run");
    let noisy = fig1::run_case(&cfg, &[skew]).expect("noisy run");
    let ctx = PropagationContext::new(
        quiet.in_u.clone(),
        noisy.in_u.clone(),
        Some(quiet.out_u.clone()),
        th,
    )
    .expect("context");

    let sens = ctx.sensitivity().expect("rho extraction");
    let eff = effective_sensitivity(&ctx).expect("rho transfer");
    let gamma = MethodKind::Sgdp.equivalent(&ctx).expect("sgdp");
    let gamma_wave = gamma
        .to_waveform(0.0, cfg.t_stop, 1e-12)
        .expect("gamma waveform");
    let v_out_eff = fig1::run_receiver(&cfg, &gamma_wave).expect("receiver replay");

    // Panel (a).
    let path_a = out_dir.join("figure2a.csv");
    let mut fa = std::fs::File::create(&path_a).expect("create figure2a.csv");
    writeln!(fa, "t_ps,v_in_noiseless,v_out_noiseless,rho_scaled").expect("write");
    let (r0, r1) = sens.curve.region();
    let t_start = r0 - 0.3e-9;
    let t_end = r1 + 0.5e-9;
    let n = 1200;
    let times: Vec<f64> = (0..=n)
        .map(|k| t_start + (t_end - t_start) * k as f64 / n as f64)
        .collect();
    let rho = rho_at_times(&ctx, &times).expect("rho");
    for (&t, &rho) in times.iter().zip(&rho) {
        writeln!(
            fa,
            "{:.2},{:.5},{:.5},{:.5}",
            t * 1e12,
            quiet.in_u.value_at(t),
            quiet.out_u.value_at(t),
            0.2 * rho
        )
        .expect("write");
    }
    eprintln!("wrote {}", path_a.display());

    // Panel (b).
    let path_b = out_dir.join("figure2b.csv");
    let mut fb = std::fs::File::create(&path_b).expect("create figure2b.csv");
    writeln!(
        fb,
        "t_ps,v_in_noisy,v_out_noisy,gamma_eff,v_out_eff,rho_eff_scaled"
    )
    .expect("write");
    for &t in &times {
        // ρeff is sampled at P points; interpolate piecewise for plotting.
        let rho_eff = {
            let ts = &eff.times;
            if t < ts[0] || t > *ts.last().expect("non-empty") {
                0.0
            } else {
                nsta_numeric::interp::interp1_clamped(ts, &eff.rho, t)
            }
        };
        writeln!(
            fb,
            "{:.2},{:.5},{:.5},{:.5},{:.5},{:.5}",
            t * 1e12,
            noisy.in_u.value_at(t),
            noisy.out_u.value_at(t),
            gamma.value_at(t),
            v_out_eff.value_at(t),
            0.2 * rho_eff
        )
        .expect("write");
    }
    eprintln!("wrote {}", path_b.display());

    println!(
        "figure 2 data written: Γeff t50 = {:.1} ps, slew = {:.1} ps; golden out t50 = {:.1} ps, predicted = {:.1} ps",
        gamma.arrival_mid() * 1e12,
        gamma.slew(th) * 1e12,
        noisy.out_u.last_crossing(th.mid()).expect("crossing") * 1e12,
        v_out_eff.last_crossing(th.mid()).expect("crossing") * 1e12,
    );
}
