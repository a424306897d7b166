//! `stage-golden`: the paper's reduction alone, on transistor-level
//! golden noisy waveforms, plus the SGDP accuracy every workload reports.

use crate::gen::skew_cases;
use crate::probe::Probe;
use crate::report::{end_to_end, measure, repeat_setup, Accuracy, Outcome};
use crate::{Res, RunCfg};
use nsta_bench::{run_accuracy, SkewCase};
use nsta_numeric::stats::Summary;
use nsta_spice::fig1::{self, Fig1Config};
use nsta_waveform::{SaturatedRamp, Thresholds, Waveform};
use sgdp::eval::evaluate_case;
use sgdp::gate::{GateModel, SpiceReceiverGate};
use sgdp::{MethodKind, PropagationContext, SgdpError};
use std::time::Instant;

/// Noise-injection cases per Fig. 1 configuration.
pub const CASES_PER_CONFIG: usize = 8;

/// The Fig. 1 configurations, each with the seed stream its skews draw
/// from.
fn configs() -> [(u64, Fig1Config); 2] {
    [(0, Fig1Config::config_i()), (1, Fig1Config::config_ii())]
}

/// One delay-noise case: the golden receiver input and output with the
/// aggressors quiet and switching.
pub struct GoldenCase {
    pub th: Thresholds,
    pub gate: SpiceReceiverGate,
    pub quiet_in: Waveform,
    pub quiet_out: Waveform,
    pub noisy_in: Waveform,
    pub noisy_out: Waveform,
}

/// The seed's golden cases of both configurations, and how many cases were
/// excluded as functional noise (the golden output re-switched), as
/// `nsta_bench::run_accuracy` excludes them.
pub struct GoldenSet {
    pub cases: Vec<GoldenCase>,
    pub functional: usize,
}

/// Simulates the seed's Config I and Config II cases at transistor level,
/// one set-up lap per simulation.
pub fn golden_set(seed: u64, probe: &Probe) -> Res<GoldenSet> {
    let mut set = GoldenSet {
        cases: Vec::new(),
        functional: 0,
    };
    for (stream, cfg) in configs() {
        let cases = skew_cases(seed, stream, cfg.aggressors, CASES_PER_CONFIG);
        set.extend(&cfg, &cases, probe)?;
    }
    Ok(set)
}

impl GoldenSet {
    /// Adds the golden simulations of `cases` on `cfg`.
    pub fn extend(&mut self, cfg: &Fig1Config, cases: &[SkewCase], probe: &Probe) -> Res<()> {
        let th = Thresholds::cmos(cfg.proc.vdd);
        let quiet = fig1::run_noiseless(cfg)?;
        probe.lap();
        for case in cases {
            let noisy = fig1::run_case(cfg, &case.skews)?;
            probe.lap();
            if noisy.out_u.crossings(th.mid()).len() > 1 {
                self.functional += 1;
                continue;
            }
            self.cases.push(GoldenCase {
                th,
                gate: SpiceReceiverGate::new(*cfg),
                quiet_in: quiet.in_u.clone(),
                quiet_out: quiet.out_u.clone(),
                noisy_in: noisy.in_u,
                noisy_out: noisy.out_u,
            });
        }
        Ok(())
    }
}

/// One SGDP propagation, as an STA engine runs it per noisy input: a
/// fresh context, the Eq. 1 sensitivity, then the fit. Takes its inputs by
/// value so the caller clones them outside any timer.
pub fn sgdp_reduce(
    quiet_in: Waveform,
    noisy_in: Waveform,
    quiet_out: Option<Waveform>,
    th: Thresholds,
    probe: &Probe,
) -> Result<SaturatedRamp, SgdpError> {
    let ctx = probe.time("sgdp.context", || {
        PropagationContext::new(quiet_in, noisy_in, quiet_out, th)
    })?;
    probe.time("sgdp.sensitivity", || ctx.sensitivity().map(|_| ()))?;
    probe.time("sgdp.fit", || MethodKind::Sgdp.equivalent(&ctx))
}

/// The golden receiver, each simulation timed as `spice.receiver`.
struct TimedReceiver<'a> {
    gate: &'a SpiceReceiverGate,
    probe: &'a Probe,
}

impl GateModel for TimedReceiver<'_> {
    fn response(&self, input: &Waveform) -> Result<Waveform, SgdpError> {
        self.probe
            .time("spice.receiver", || self.gate.response(input))
    }

    fn vdd(&self) -> f64 {
        self.gate.vdd()
    }
}

/// SGDP's Table 1 accuracy over `cases`, each evaluated by
/// `sgdp::eval::evaluate_case`, and each case's Γeff (`None` where SGDP
/// failed). As in `nsta_bench::run_accuracy`, a case SGDP fails on is
/// counted, not averaged.
pub fn accuracy(
    cases: &[GoldenCase],
    probe: &Probe,
) -> Res<(Accuracy, Vec<Option<SaturatedRamp>>)> {
    let mut errors = Summary::new();
    let mut gammas = Vec::with_capacity(cases.len());
    for case in cases {
        let ctx = PropagationContext::new(
            case.quiet_in.clone(),
            case.noisy_in.clone(),
            Some(case.quiet_out.clone()),
            case.th,
        )?;
        let gate = TimedReceiver {
            gate: &case.gate,
            probe,
        };
        let report = evaluate_case(&ctx, &gate, &case.noisy_out, &[MethodKind::Sgdp])?;
        let outcome = report.outcomes.into_iter().next().and_then(|(_, o)| o.ok());
        if let Some(o) = &outcome {
            errors.push(o.arrival_error);
        }
        gammas.push(outcome.map(|o| o.gamma));
    }
    if errors.count() == 0 {
        return Err("SGDP failed on every golden case".into());
    }
    let accuracy = Accuracy {
        avg_ps: errors.mean() * 1e12,
        max_ps: errors.max() * 1e12,
        cases: errors.count(),
        failures: cases.len() - errors.count(),
    };
    Ok((accuracy, gammas))
}

/// SGDP's Table 1 accuracy on the seed's cases of both configurations,
/// straight from `nsta_bench::run_accuracy` (golden simulations included),
/// for the workloads that reduce noisy waveforms inside the STA.
pub fn table1_accuracy(seed: u64) -> Res<Accuracy> {
    let (mut sum, mut max, mut cases, mut failures) = (0.0, 0.0f64, 0, 0);
    for (stream, cfg) in configs() {
        let skews = skew_cases(seed, stream, cfg.aggressors, CASES_PER_CONFIG);
        let table = run_accuracy(&cfg, &skews, &[MethodKind::Sgdp], |_, _| {})?;
        let row = table.row(MethodKind::Sgdp).ok_or("no SGDP row")?;
        let ok = table.cases - row.failures;
        if ok > 0 {
            sum += row.avg_error * ok as f64;
            max = max.max(row.max_error);
        }
        cases += ok;
        failures += row.failures;
    }
    if cases == 0 {
        return Err("SGDP failed on every golden case".into());
    }
    Ok(Accuracy {
        avg_ps: sum / cases as f64 * 1e12,
        max_ps: max * 1e12,
        cases,
        failures,
    })
}

pub fn run(cfg: &RunCfg, probe: &Probe) -> Res<Outcome> {
    let (set, setup) = repeat_setup(probe, || {
        probe.time("setup.golden", || golden_set(cfg.seed, probe))
    })?;
    println!(
        "stage-golden: {} delay-noise cases, {} functional-noise cases excluded",
        set.cases.len(),
        set.functional
    );
    // Op i reduces case i mod n. The first reduction of each case is the
    // reference every later one must reproduce bit for bit.
    let n = set.cases.len();
    let mut reference: Vec<Option<SaturatedRamp>> = vec![None; n];
    let loops = measure(cfg, probe, |i, probe| {
        let case = &set.cases[i % n];
        let (quiet_in, noisy_in) = (case.quiet_in.clone(), case.noisy_in.clone());
        let quiet_out = Some(case.quiet_out.clone());
        let start = Instant::now();
        let gamma = probe.time("op", || {
            sgdp_reduce(quiet_in, noisy_in, quiet_out, case.th, probe)
        });
        let latency = start.elapsed().as_secs_f64();
        let ok = match (gamma, &reference[i % n]) {
            (Ok(g), Some(r)) => g == *r,
            (Ok(g), None) => {
                reference[i % n] = Some(g);
                true
            }
            (Err(_), _) => false,
        };
        (latency, ok)
    });
    let (accuracy, gammas) = accuracy(&set.cases, probe)?;
    // The Γeff the accuracy pass evaluated is the one the ops computed.
    let same = reference
        .iter()
        .zip(&gammas)
        .all(|(r, g)| r.is_some() && r == g);
    let mut outcome = loops.outcome();
    if cfg.trace {
        let us = |name| probe.median(name) * 1e6;
        outcome.layers.extend([
            ("sgdp.context_us", us("sgdp.context")),
            ("sgdp.sensitivity_us", us("sgdp.sensitivity")),
            ("sgdp.fit_us", us("sgdp.fit")),
            ("sgdp.failures", accuracy.failures as f64),
            ("spice.receiver_ms", probe.median("spice.receiver") * 1e3),
            ("trace_overhead_pct", loops.trace_overhead_pct()),
        ]);
    } else {
        outcome.end_to_end = end_to_end(&setup, &loops, accuracy)?;
    }
    outcome.checks_passed = same;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_matches_run_accuracy_on_the_same_cases() {
        let cfg = Fig1Config::config_ii();
        let cases = skew_cases(7, 1, cfg.aggressors, 3);
        let off = Probe::new(false);
        let mut set = GoldenSet {
            cases: Vec::new(),
            functional: 0,
        };
        set.extend(&cfg, &cases, &off).unwrap();
        let (ours, _) = accuracy(&set.cases, &off).unwrap();
        let table = run_accuracy(&cfg, &cases, &[MethodKind::Sgdp], |_, _| {}).unwrap();
        let row = table.row(MethodKind::Sgdp).unwrap();
        assert_eq!(table.excluded_functional, set.functional);
        assert_eq!(ours.cases + ours.failures, table.cases);
        assert_eq!(ours.failures, row.failures);
        assert_eq!(ours.avg_ps, row.avg_error * 1e12);
        assert_eq!(ours.max_ps, row.max_error * 1e12);
    }
}
