//! WLS5: sensitivity-weighted least squares (Section 2.4 of the paper;
//! Hashimoto, Yamada, Onodera, IEEE TCAD 2004).
//!
//! Each squared term of the LSF3 objective is weighted by the *noiseless*
//! sensitivity `ρ_noiseless(t_k)` (Eq. 2), which is nonzero only inside the
//! noiseless critical region. Two consequences the paper highlights — and
//! that this implementation deliberately preserves:
//!
//! * noise arriving **outside** the noiseless critical region is ignored
//!   (the weight filter), and
//! * the method is undefined when the noiseless input and output do not
//!   overlap (multi-stage cells, heavy fanout): it reports
//!   [`SgdpError::NonOverlapping`].

use crate::context::PropagationContext;
use crate::gate::{transition_gap, transitions_overlap};
use crate::sensitivity::rho_at_times;
use crate::techniques::{ramp_from_fit, EquivalentWaveform};
use crate::SgdpError;
use nsta_numeric::LineFit;
use nsta_waveform::SaturatedRamp;

/// Sensitivity-weighted least-squares technique.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wls5;

impl EquivalentWaveform for Wls5 {
    fn name(&self) -> &'static str {
        "WLS5"
    }

    fn equivalent(&self, ctx: &PropagationContext) -> Result<SaturatedRamp, SgdpError> {
        let th = ctx.thresholds();
        let v_in = ctx.noiseless_input();
        let v_out = ctx.noiseless_output_or_err()?;
        if !transitions_overlap(ctx.noiseless_critical_region()?, v_out, th)? {
            let gap = transition_gap(v_in, v_out, th)?;
            return Err(SgdpError::NonOverlapping { gap });
        }
        // Eq. 2: sample across the *noiseless* critical region; the weight
        // ρ² vanishes outside it by construction. Overlap is established,
        // so ρ reads the unshifted output (δ = 0). The times ascend: one
        // forward pass over the noisy input.
        let (t0, t1) = ctx.noiseless_critical_region()?;
        let times = ctx.sample_times(t0, t1);
        let mut noisy = ctx.noisy_input().sampler(t0);
        let values: Vec<f64> = times.iter().map(|&t| noisy.value_at(t)).collect();
        let weights: Vec<f64> = rho_at_times(ctx, &times)?
            .into_iter()
            .map(|r| r * r)
            .collect();
        let fit = LineFit::weighted_least_squares(&times, &values, &weights)?;
        ramp_from_fit(fit.a, fit.b, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{AnalyticInverterGate, GateModel};
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
        let g = Wls5.equivalent(&ctx).unwrap();
        assert!(
            (g.arrival_mid() - 1.0e-9).abs() < 3e-12,
            "{:e}",
            g.arrival_mid()
        );
        assert!((g.slew(th()) - 150e-12).abs() < 6e-12, "{:e}", g.slew(th()));
    }

    #[test]
    fn noise_outside_noiseless_region_is_ignored() {
        // The paper's central criticism: put the glitch after the noiseless
        // critical region (which ends at ~1.075 ns) and WLS5 cannot see it.
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean()
            .with_triangular_pulse(1.5e-9, 250e-12, -0.9)
            .unwrap();
        // The glitch does move the latest mid-rail crossing...
        assert!(noisy.last_crossing(th().mid()).unwrap() > 1.4e-9);
        let ctx = ctx_with_gate(noisy, &gate);
        let g = Wls5.equivalent(&ctx).unwrap();
        // ...yet WLS5's answer is indistinguishable from the clean fit.
        assert!(
            (g.arrival_mid() - 1.0e-9).abs() < 5e-12,
            "wls5 must ignore late noise: {:e}",
            g.arrival_mid()
        );
    }

    #[test]
    fn noise_inside_region_shifts_the_fit() {
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean()
            .with_triangular_pulse(1.0e-9, 120e-12, -0.5)
            .unwrap();
        let ctx = ctx_with_gate(noisy, &gate);
        let g = Wls5.equivalent(&ctx).unwrap();
        assert!(
            g.arrival_mid() > 1.0e-9 + 5e-12,
            "in-region noise must register"
        );
    }

    #[test]
    fn non_overlapping_transitions_are_rejected() {
        let gate = AnalyticInverterGate::slow(th());
        let ctx = ctx_with_gate(clean(), &gate);
        match Wls5.equivalent(&ctx) {
            Err(SgdpError::NonOverlapping { gap }) => assert!(gap > 0.5e-9),
            other => panic!("expected NonOverlapping, got {other:?}"),
        }
    }

    #[test]
    fn missing_output_is_reported() {
        let ctx = PropagationContext::new(clean(), clean(), None, th()).unwrap();
        assert!(matches!(
            Wls5.equivalent(&ctx),
            Err(SgdpError::MissingNoiselessOutput)
        ));
    }
}
