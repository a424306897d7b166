//! Ablation **E-A3**: gates with non-overlapping input/output transitions.
//!
//! The paper: "WLS5 cannot be applied to gates with large intrinsic delay
//! such as multi-stage gates, and/or those with large fanout loadings,
//! where the input and output transitions may not overlap." SGDP's
//! pre/post time-shift step recovers these cases.
//!
//! The receiver here is a four-stage buffer chain (two cascaded buffers of
//! weak devices) with a heavy capacitive load — a multi-stage cell whose
//! output transition trails the input by far more than one slew, so the
//! noiseless input and output transitions genuinely do not overlap.
//!
//! Usage: `nonoverlap [--cases N]` (N ≥ 2)

use nsta_bench::cli::Cli;
use nsta_bench::report::{ps, render_table};
use nsta_numeric::stats::Summary;
use nsta_spice::fig1::{self, Fig1Config};
use nsta_spice::{cells, Netlist, SimOptions};
use nsta_waveform::{Thresholds, Waveform};
use sgdp::delay::gate_delay;
use sgdp::{MethodKind, PropagationContext, SgdpError};

/// Simulates the multi-stage receiver (two cascaded buffers — four
/// inverter stages — plus heavy fanout) for an arbitrary input waveform.
fn buffer_response(cfg: &Fig1Config, input: &Waveform) -> Waveform {
    let proc = cfg.proc;
    let mut net = Netlist::new(proc.vdd);
    let inp = net.node("in");
    let mid = net.node("mid");
    let out = net.node("out");
    net.vsource(inp, input.clone()).expect("source");
    cells::add_buffer(&mut net, &proc, 0.4, 0.4, inp, mid, "buf1").expect("buffer 1");
    cells::add_buffer(&mut net, &proc, 0.4, 1.0, mid, out, "buf2").expect("buffer 2");
    // Heavy fanout loading pushes the output transition far from the input.
    cells::add_load_cap(&mut net, out, 150.0 * proc.inverter_input_cap(1.0)).expect("load");
    let t_stop = (cfg.t_stop + 2e-9).max(input.t_end() + 2e-9);
    let res = net
        .run_transient(SimOptions::new(0.0, t_stop, cfg.dt).expect("opts"))
        .expect("sim");
    res.voltage(out).expect("trace")
}

fn main() {
    let mut cases = 9usize;
    let mut cli = Cli::from_env("nonoverlap [--cases N]");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--cases" => cases = cli.count("--cases", 2),
            other => cli.unknown(other),
        }
    }
    let cfg = Fig1Config::config_i();
    let th = Thresholds::cmos(cfg.proc.vdd);
    eprintln!("simulating noiseless reference...");
    let quiet = fig1::run_noiseless(&cfg).expect("noiseless");
    let quiet_out = buffer_response(&cfg, &quiet.in_u);

    // Confirm the premise: input and output transitions do not overlap.
    let t_in = quiet.in_u.last_crossing(th.mid()).expect("in crossing");
    let t_out = quiet_out.last_crossing(th.mid()).expect("out crossing");
    println!(
        "buffer receiver intrinsic delay: {:.1} ps (input slew {:.1} ps) — transitions {}",
        (t_out - t_in) * 1e12,
        quiet
            .in_u
            .slew_first_to_first(th, nsta_waveform::Polarity::Rise)
            .expect("slew")
            * 1e12,
        if t_out - t_in
            > quiet
                .in_u
                .slew_first_to_first(th, nsta_waveform::Polarity::Rise)
                .expect("slew")
        {
            "do NOT overlap"
        } else {
            "overlap"
        }
    );

    let methods = [MethodKind::Wls5, MethodKind::Sgdp];
    let mut stats: Vec<(MethodKind, Summary, usize)> = methods
        .iter()
        .map(|&m| (m, Summary::new(), 0usize))
        .collect();

    for k in 0..cases {
        let skew = -0.25e-9 + 0.5e-9 * k as f64 / (cases - 1) as f64;
        let noisy = fig1::run_case(&cfg, &[skew]).expect("case");
        let golden_out = buffer_response(&cfg, &noisy.in_u);
        let golden = gate_delay(&noisy.in_u, &golden_out, th).expect("golden delay");
        let ctx = PropagationContext::new(
            quiet.in_u.clone(),
            noisy.in_u.clone(),
            Some(quiet_out.clone()),
            th,
        )
        .expect("context");
        for (method, summary, failures) in stats.iter_mut() {
            match method.equivalent(&ctx) {
                Ok(gamma) => {
                    let wave = gamma
                        .to_waveform(0.0, cfg.t_stop.max(gamma.t_rail_arrival() + 0.2e-9), 1e-12)
                        .expect("gamma wave");
                    let pred_out = buffer_response(&cfg, &wave);
                    let t_pred = pred_out.last_crossing(th.mid()).expect("pred crossing");
                    summary.push((t_pred - golden.t_out_mid).abs());
                }
                Err(SgdpError::NonOverlapping { .. }) => *failures += 1,
                Err(other) => {
                    eprintln!("{method} failed unexpectedly: {other}");
                    *failures += 1;
                }
            }
        }
        eprintln!("case {}/{} done", k + 1, cases);
    }

    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|(m, s, failures)| {
            vec![
                m.name().to_string(),
                if s.count() > 0 {
                    ps(s.max())
                } else {
                    "-".into()
                },
                if s.count() > 0 {
                    ps(s.mean())
                } else {
                    "-".into()
                },
                format!("{failures}/{cases}"),
            ]
        })
        .collect();
    println!("\nE-A3 — non-overlapping transitions (multi-stage buffer, heavy fanout)");
    print!(
        "{}",
        render_table(&["Method", "Max (ps)", "Avg (ps)", "Refused"], &rows)
    );
}
