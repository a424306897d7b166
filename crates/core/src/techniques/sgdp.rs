//! SGDP: sensitivity-based gate delay propagation — the paper's
//! contribution (Section 3).
//!
//! 1. **Step 1** — extract the noiseless sensitivity `ρ_noiseless` (Eq. 1),
//!    exactly as WLS5 does.
//! 2. **Step 2** — transfer it onto the *noisy* critical region by matching
//!    voltage levels: `ρeff(tᵢ) = ρ_noiseless(tⱼ)` with
//!    `v_in_noiseless(tⱼ) = v_in_noisy(tᵢ)`. Distortion outside the
//!    noiseless critical region is therefore **not** filtered away — the
//!    fix for WLS5's first weakness.
//! 3. **Step 3** — choose `(a, b)` minimizing the first term of the Taylor
//!    expansion of the squared output error (Eq. 3): the closed-form
//!    `ρeff²`-weighted least-squares fit
//!    `Σ ρeff(t_k)²·(v_noisy(t_k) − Γ(t_k))²`. Eq. 3's second term,
//!    `½·(∂ρ/∂v)_k·r_k²`, is dropped; the paper's reported runtime
//!    (≈ WLS5's) fits a closed-form solve.
//!
//! For gates whose input/output transitions do not overlap (multi-stage
//! cells, heavy fanout) the sensitivity is extracted after shifting the
//! output back by `δ = t50(out) − t50(in)` — WLS5's second weakness,
//! addressed by the paper's additional pre/post-processing step. `Γeff`
//! stays in the input time frame: it is *not* shifted forward by `δ`
//! afterwards, because it feeds the gate as an input, and a post-shift
//! would count the gate's intrinsic delay twice (a noiseless ramp would
//! no longer reduce to itself).
//!
//! **Degenerate-hang guard.** When the noisy waveform stalls near a rail
//! for a long time (strong near-DC coupling), the weighted fit can return
//! a near-flat line whose mid-crossing lies far outside the waveform's own
//! mid-crossing span — useless as an arrival. Γeff is accepted only if its
//! slope has the transition's sign and its mid-crossing lies within that
//! span (± half the noiseless slew).
//! Otherwise the slope is re-fit by the same weighted least squares,
//! restricted to the samples within one noiseless slew of the **latest**
//! mid-rail crossing, and the line is anchored at that crossing — the
//! anchoring convention P1/P2/E4 use. If that re-fit fails or has the wrong
//! sign, the noiseless slew sets the slope. When the fallback is needed
//! but the noisy input never crosses mid-rail, the reduction fails with
//! [`SgdpError::DegenerateFit`]. The guard is an engineering robustness
//! addition, not part of the paper's method.

use crate::context::PropagationContext;
use crate::sensitivity::effective_sensitivity;
use crate::techniques::{ramp_from_fit, EquivalentWaveform};
use crate::SgdpError;
use nsta_numeric::LineFit;
use nsta_waveform::SaturatedRamp;

/// The SGDP technique.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sgdp;

impl EquivalentWaveform for Sgdp {
    fn name(&self) -> &'static str {
        "SGDP"
    }

    fn equivalent(&self, ctx: &PropagationContext) -> Result<SaturatedRamp, SgdpError> {
        // Steps 1 (+ non-overlap pre-shift) and 2; each ρ point step 2
        // reads is cached on the context, mirroring ρ's per-arc nature in
        // a production flow.
        let eff = effective_sensitivity(ctx)?;

        // Normalize for conditioning: times to the unit interval across the
        // noisy critical region, voltages to units of Vdd.
        let vdd = ctx.thresholds().vdd();
        let (t0, t1) = ctx.noisy_critical_region()?;
        let width = t1 - t0;
        if !(width > 0.0) {
            return Err(SgdpError::DegenerateFit("empty noisy critical region"));
        }
        let tau: Vec<f64> = eff.times.iter().map(|&t| (t - t0) / width).collect();
        let u: Vec<f64> = eff.voltages.iter().map(|&v| v / vdd).collect();
        let rising = ctx.polarity().is_rise();

        // Step 3: the ρeff²-weighted least-squares line.
        let weights: Vec<f64> = eff.rho.iter().map(|&r| r * r).collect();
        let fitted = LineFit::weighted_least_squares(&tau, &u, &weights);

        // Degenerate-hang guard (see module docs): Γeff's mid-crossing must
        // lie within the noisy waveform's mid-crossing span.
        let th = ctx.thresholds();
        let mid_first = ctx.noisy_input().first_crossing(th.mid());
        let mid_last = ctx.noisy_input().last_crossing(th.mid());
        // Half the noiseless `slew_first_to_first`, whose start-level
        // crossing opens the noiseless critical region the context holds.
        let (_, end_level) = th.slew_levels(ctx.polarity());
        let (start, _) = ctx.noiseless_critical_region()?;
        let margin = ctx
            .noiseless_input()
            .first_crossing_from(end_level, start)
            .map_or(width, |t| t - start)
            / 2.0;
        let arrival_ok = |fit: &LineFit| -> bool {
            if fit.a == 0.0 || (rising && fit.a < 0.0) || (!rising && fit.a > 0.0) {
                return false;
            }
            let t_mid = t0 + width * (0.5 - fit.b) / fit.a;
            match (mid_first, mid_last) {
                (Some(a), Some(b)) => t_mid >= a - margin && t_mid <= b + margin,
                _ => true,
            }
        };

        let accepted = match fitted {
            Ok(fit) if arrival_ok(&fit) => fit,
            _ => {
                // Anchored fallback: re-fit the slope from samples within
                // one noiseless slew of the latest mid crossing, anchor the
                // line there (the P1/P2/E4 anchoring convention).
                let anchor = mid_last.ok_or(SgdpError::DegenerateFit("no mid-rail crossing"))?;
                let near = 2.0 * margin; // one noiseless slew
                let mut w = weights.clone();
                for k in 0..tau.len() {
                    if (eff.times[k] - anchor).abs() > near {
                        w[k] = 0.0;
                    }
                }
                let slope = match LineFit::weighted_least_squares(&tau, &u, &w) {
                    Ok(fit) if (rising && fit.a > 0.0) || (!rising && fit.a < 0.0) => fit.a,
                    _ => {
                        // Last resort: the noiseless slew.
                        let span = th.high_frac() - th.low_frac();
                        let s = (2.0 * margin).max(width * 1e-3);
                        let mag = span * width / s;
                        if rising {
                            mag
                        } else {
                            -mag
                        }
                    }
                };
                let anchor_tau = (anchor - t0) / width;
                LineFit {
                    a: slope,
                    b: 0.5 - slope * anchor_tau,
                }
            }
        };

        // De-normalize: v = a·t + b with a = â·Vdd/width.
        let a = accepted.a * vdd / width;
        let b = (accepted.b - accepted.a * t0 / width) * vdd;
        ramp_from_fit(a, b, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{AnalyticInverterGate, GateModel};
    use crate::techniques::Wls5;
    use nsta_waveform::{Thresholds, Waveform};

    fn th() -> Thresholds {
        Thresholds::cmos(1.2)
    }

    fn clean() -> Waveform {
        SaturatedRamp::with_slew(1.0e-9, 150e-12, th(), true)
            .unwrap()
            .to_waveform(0.0, 3e-9, 1e-12)
            .unwrap()
    }

    fn ctx_with_gate(noisy: Waveform, gate: &dyn GateModel) -> PropagationContext {
        let out = gate.response(&clean()).unwrap();
        PropagationContext::new(clean(), noisy, Some(out), th()).unwrap()
    }

    #[test]
    fn clean_ramp_is_a_fixed_point() {
        let gate = AnalyticInverterGate::fast(th());
        let ctx = ctx_with_gate(clean(), &gate);
        let g = Sgdp.equivalent(&ctx).unwrap();
        assert!(
            (g.arrival_mid() - 1.0e-9).abs() < 3e-12,
            "{:e}",
            g.arrival_mid()
        );
        assert!((g.slew(th()) - 150e-12).abs() < 8e-12, "{:e}", g.slew(th()));
    }

    #[test]
    fn sgdp_sees_noise_outside_noiseless_region() {
        // The defining improvement over WLS5: a glitch after the noiseless
        // critical region must influence Γeff.
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean()
            .with_triangular_pulse(1.5e-9, 250e-12, -0.9)
            .unwrap();
        let ctx = ctx_with_gate(noisy, &gate);
        let g_sgdp = Sgdp.equivalent(&ctx).unwrap();
        let g_wls = Wls5.equivalent(&ctx).unwrap();
        // WLS5 stays at the clean answer; SGDP moves late.
        assert!((g_wls.arrival_mid() - 1.0e-9).abs() < 5e-12);
        assert!(
            g_sgdp.arrival_mid() > g_wls.arrival_mid() + 20e-12,
            "sgdp {:e} vs wls {:e}",
            g_sgdp.arrival_mid(),
            g_wls.arrival_mid()
        );
    }

    #[test]
    fn sgdp_handles_non_overlapping_gates() {
        // WLS5 refuses; SGDP's pre-shift recovers a sane input-referred ramp.
        let gate = AnalyticInverterGate::slow(th());
        let ctx = ctx_with_gate(clean(), &gate);
        assert!(matches!(
            Wls5.equivalent(&ctx),
            Err(SgdpError::NonOverlapping { .. })
        ));
        let g = Sgdp.equivalent(&ctx).unwrap();
        assert!(
            (g.arrival_mid() - 1.0e-9).abs() < 10e-12,
            "input-referred identity: {:e}",
            g.arrival_mid()
        );
    }

    #[test]
    fn time_shift_equivariance() {
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean()
            .with_triangular_pulse(1.05e-9, 120e-12, -0.4)
            .unwrap();
        let ctx = ctx_with_gate(noisy, &gate);
        let g0 = Sgdp.equivalent(&ctx).unwrap();
        let dt = 0.37e-9;
        let g1 = Sgdp.equivalent(&ctx.shifted(dt)).unwrap();
        assert!(
            (g1.arrival_mid() - g0.arrival_mid() - dt).abs() < 2e-12,
            "shift equivariance: {:e} vs {:e}",
            g0.arrival_mid(),
            g1.arrival_mid()
        );
        assert!((g1.slew(th()) - g0.slew(th())).abs() < 1e-12);
    }

    #[test]
    fn in_region_glitch_moves_arrival_late() {
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean()
            .with_triangular_pulse(1.02e-9, 150e-12, -0.5)
            .unwrap();
        let ctx = ctx_with_gate(noisy, &gate);
        let g = Sgdp.equivalent(&ctx).unwrap();
        assert!(
            g.arrival_mid() > 1.0e-9,
            "glitch against the edge delays Γeff"
        );
    }

    #[test]
    fn hang_guard_keeps_arrival_inside_crossing_span() {
        // A long stall just below the high threshold after the transition:
        // the raw weighted fit is a useless near-flat line; the guard must
        // anchor Γeff near the real crossing.
        let gate = AnalyticInverterGate::fast(th());
        let base = clean();
        // Stall: pull the settled waveform down to 0.95 V for ~1 ns.
        let noisy = base
            .with_trapezoidal_pulse(1.15e-9, 0.1e-9, 0.9e-9, -0.25)
            .unwrap();
        let ctx = ctx_with_gate(noisy.clone(), &gate);
        let g = Sgdp.equivalent(&ctx).unwrap();
        let first = noisy.first_crossing(th().mid()).unwrap();
        let last = noisy.last_crossing(th().mid()).unwrap();
        let margin = 100e-12;
        assert!(
            g.arrival_mid() >= first - margin && g.arrival_mid() <= last + margin,
            "arrival {:e} outside [{:e}, {:e}]",
            g.arrival_mid(),
            first,
            last
        );
    }

    #[test]
    fn sampling_budget_is_respected() {
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean()
            .with_triangular_pulse(1.0e-9, 100e-12, -0.3)
            .unwrap();
        let ctx = ctx_with_gate(noisy, &gate).with_samples(7).unwrap();
        let g = Sgdp.equivalent(&ctx).unwrap();
        assert!(g.slew(th()) > 0.0);
    }
}
