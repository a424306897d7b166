//! Output-to-input sensitivity curves (the paper's `ρ`).
//!
//! Equation 1 of the paper defines the *noiseless sensitivity*
//! `ρ(t) = ∂v_out/∂v_in = (dv_out/dt)/(dv_in/dt)`, nonzero only inside the
//! noiseless critical region. SGDP's step 2 re-indexes this curve by
//! *voltage* so it can be transferred onto the (possibly non-monotone) noisy
//! waveform: `ρeff(tᵢ) = ρ(tⱼ)` where the noiseless input at `tⱼ` matches
//! the noisy voltage at `tᵢ`.
//!
//! [`SensitivityCurve::from_noiseless`] takes both derivatives by central
//! differences at 400 points `t` across the noiseless critical region. It
//! reads each waveform in one forward pass of a
//! [`Sampler`](nsta_waveform::Sampler): the input at `t − h`, `t` and
//! `t + h`, the output at `t − h` and `t + h`, point after point. The
//! curve's spacing exceeds `2h`, so these times ascend and each pass walks
//! its record once, where a `value_at` query per value would make 2000
//! binary searches. Each sample equals the `value_at` query bit for bit.
//! [`effective_sensitivity`] reads the noisy input at its `P` ascending
//! times the same way.

use crate::context::PropagationContext;
use crate::gate::{transition_gap, transitions_overlap};
use crate::SgdpError;
use nsta_numeric::interp;
use nsta_waveform::{Polarity, Waveform};

/// Internal sampling resolution for sensitivity extraction.
const CURVE_POINTS: usize = 400;
/// Sensitivities above this are clamped (they arise from near-flat input
/// segments and would otherwise dominate every fit).
const RHO_CLAMP: f64 = 100.0;

/// The noiseless sensitivity `ρ` sampled over the noiseless critical
/// region, with a voltage-indexed view for SGDP's step 2.
#[derive(Debug, Clone)]
pub struct SensitivityCurve {
    /// Sample times (ascending, spanning the noiseless critical region).
    times: Vec<f64>,
    /// `ρ(t)` at those times.
    rho: Vec<f64>,
    /// Voltage-indexed map: ascending voltages...
    map_volts: Vec<f64>,
    /// ...and the corresponding `ρ` values.
    map_rho: Vec<f64>,
    region: (f64, f64),
}

impl SensitivityCurve {
    /// Extracts `ρ` from a noiseless input/output waveform pair (Eq. 1)
    /// across `region`, the input's critical region
    /// ([`Waveform::critical_region`], which a [`PropagationContext`]
    /// measures once).
    ///
    /// `polarity` is the *input* transition direction. The magnitude of the
    /// derivative ratio is used, so the output may transition either way.
    ///
    /// Each waveform is read in one forward pass, every value equal to its
    /// [`Waveform::value_at`] query bit for bit (module docs).
    ///
    /// # Errors
    ///
    /// [`SgdpError::DegenerateFit`] if the input is flat across its
    /// entire critical region.
    pub fn from_noiseless(
        v_in: &Waveform,
        v_out: &Waveform,
        region: (f64, f64),
        polarity: Polarity,
    ) -> Result<Self, SgdpError> {
        let (t0, t1) = region;
        let n = CURVE_POINTS;
        let h = (t1 - t0) / (n as f64) / 2.0;
        // Slope floor: 0.1% of the mean transition slope. Below it the
        // sensitivity is treated as zero (flat input cannot transmit noise).
        let mean_slope = (v_in.value_at(t1) - v_in.value_at(t0)).abs() / (t1 - t0);
        if mean_slope <= 0.0 {
            return Err(SgdpError::DegenerateFit(
                "noiseless input flat across critical region",
            ));
        }
        let slope_floor = 1e-3 * mean_slope;
        // One forward pass per waveform (module docs): the input at t − h,
        // t and t + h, the output at t − h and t + h.
        let (mut input, mut output) = (v_in.sampler(t0 - h), v_out.sampler(t0 - h));
        let mut times = Vec::with_capacity(n);
        let mut volts = Vec::with_capacity(n);
        let mut rho = Vec::with_capacity(n);
        for k in 0..n {
            let t = t0 + (t1 - t0) * k as f64 / (n - 1) as f64;
            let in_before = input.value_at(t - h);
            volts.push(input.value_at(t));
            let din = (input.value_at(t + h) - in_before) / (2.0 * h);
            let out_before = output.value_at(t - h);
            let dout = (output.value_at(t + h) - out_before) / (2.0 * h);
            times.push(t);
            rho.push(if din.abs() < slope_floor {
                0.0
            } else {
                (dout / din).abs().min(RHO_CLAMP)
            });
        }
        // Voltage-indexed view: keep a strictly monotone voltage envelope
        // (noiseless inputs are monotone up to numerical wiggle).
        let mut map: Vec<(f64, f64)> = Vec::with_capacity(n);
        match polarity {
            Polarity::Rise => {
                for (&v, &r) in volts.iter().zip(&rho) {
                    if map.last().is_none_or(|&(lv, _)| v > lv + 1e-12) {
                        map.push((v, r));
                    }
                }
            }
            Polarity::Fall => {
                for (&v, &r) in volts.iter().zip(&rho) {
                    if map.last().is_none_or(|&(lv, _)| v < lv - 1e-12) {
                        map.push((v, r));
                    }
                }
                map.reverse();
            }
        }
        if map.len() < 2 {
            return Err(SgdpError::DegenerateFit(
                "noiseless input has no voltage span",
            ));
        }
        let (map_volts, map_rho): (Vec<f64>, Vec<f64>) = map.into_iter().unzip();
        Ok(SensitivityCurve {
            times,
            rho,
            map_volts,
            map_rho,
            region,
        })
    }

    /// The noiseless critical region this curve spans.
    pub fn region(&self) -> (f64, f64) {
        self.region
    }

    /// `ρ(t)`: linear interpolation inside the region, zero outside (the
    /// paper's weight-filter behaviour).
    pub fn rho_at_time(&self, t: f64) -> f64 {
        if t < self.region.0 || t > self.region.1 {
            return 0.0;
        }
        interp::interp1_clamped(&self.times, &self.rho, t)
    }

    /// `ρ` looked up by input *voltage* — SGDP's step-2 transfer.
    ///
    /// Voltages outside the noiseless critical region's span have no
    /// matching `tⱼ` (paper step 2.a), and `ρ` is zero outside the region:
    /// such lookups return 0. A noisy sample sitting on a settled rail
    /// therefore carries no weight, exactly as in the paper.
    pub fn rho_at_voltage(&self, v: f64) -> f64 {
        let lo = self.map_volts[0];
        let hi = self.map_volts[self.map_volts.len() - 1];
        if v < lo || v > hi {
            return 0.0;
        }
        interp::interp1_clamped(&self.map_volts, &self.map_rho, v)
    }

    /// Largest sensitivity over the region.
    pub fn max_rho(&self) -> f64 {
        self.rho.iter().fold(0.0, |m, &r| m.max(r))
    }
}

/// Result of the sensitivity extraction including non-overlap handling:
/// the curve plus the pre-shift `δ` that was applied to the output
/// (zero when transitions overlap).
#[derive(Debug, Clone)]
pub struct ShiftedSensitivity {
    /// The sensitivity curve (extracted from the δ-aligned output).
    pub curve: SensitivityCurve,
    /// The pre-shift applied to the output before extraction (s).
    pub delta: f64,
}

/// Extracts the noiseless sensitivity from the context, applying SGDP's
/// additional pre-shift step when the input and output transitions do not
/// overlap. Cached on the context — see
/// [`PropagationContext::sensitivity`].
///
/// # Errors
///
/// * [`SgdpError::MissingNoiselessOutput`] if the context has no output.
/// * Propagated waveform/fit failures.
pub fn noiseless_sensitivity(ctx: &PropagationContext) -> Result<ShiftedSensitivity, SgdpError> {
    ctx.sensitivity().cloned()
}

/// Uncached extraction (the cache's initializer).
pub(crate) fn compute_noiseless_sensitivity(
    ctx: &PropagationContext,
) -> Result<ShiftedSensitivity, SgdpError> {
    let v_in = ctx.noiseless_input();
    let v_out = ctx.noiseless_output_or_err()?;
    let th = ctx.thresholds();
    let region = ctx.noiseless_critical_region()?;
    if transitions_overlap(region, v_out, th)? {
        let curve = SensitivityCurve::from_noiseless(v_in, v_out, region, ctx.polarity())?;
        Ok(ShiftedSensitivity { curve, delta: 0.0 })
    } else {
        let delta = transition_gap(v_in, v_out, th)?;
        let aligned = v_out.shifted(-delta);
        let curve = SensitivityCurve::from_noiseless(v_in, &aligned, region, ctx.polarity())?;
        Ok(ShiftedSensitivity { curve, delta })
    }
}

/// SGDP step 2: `ρeff` sampled at `P` points across the *noisy* critical
/// region, transferred from the noiseless curve through voltage matching.
#[derive(Debug, Clone)]
pub struct EffectiveSensitivity {
    /// The `P` sample times across the noisy critical region.
    pub times: Vec<f64>,
    /// Noisy input voltage at each sample.
    pub voltages: Vec<f64>,
    /// `ρeff` at each sample.
    pub rho: Vec<f64>,
}

/// Computes [`EffectiveSensitivity`] for the context's noisy waveform.
///
/// # Errors
///
/// Propagates region-extraction failures.
pub fn effective_sensitivity(
    curve: &SensitivityCurve,
    ctx: &PropagationContext,
) -> Result<EffectiveSensitivity, SgdpError> {
    let (t0, t1) = ctx.noisy_critical_region()?;
    let times = ctx.sample_times(t0, t1);
    // The times ascend: one forward pass over the noisy input.
    let mut noisy = ctx.noisy_input().sampler(t0);
    let mut voltages = Vec::with_capacity(times.len());
    let mut rho = Vec::with_capacity(times.len());
    for &t in &times {
        let v = noisy.value_at(t);
        voltages.push(v);
        rho.push(curve.rho_at_voltage(v));
    }
    Ok(EffectiveSensitivity {
        times,
        voltages,
        rho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PropagationContext;
    use nsta_waveform::{SaturatedRamp, Thresholds};

    fn th() -> Thresholds {
        Thresholds::cmos(1.2)
    }

    fn ramp_wave(t50: f64, slew: f64, rising: bool) -> Waveform {
        SaturatedRamp::with_slew(t50, slew, th(), rising)
            .unwrap()
            .to_waveform(0.0, 4e-9, 1e-12)
            .unwrap()
    }

    /// A golden-length record: 4001 samples at jittered steps of about
    /// 1 ps, holding a logistic edge at `t50` whose 10–90% span, `width`,
    /// covers a few hundred of them.
    fn golden_like(t50: f64, width: f64, rising: bool) -> Waveform {
        let vdd = th().vdd();
        let tau = width / (2.0 * 9f64.ln());
        let mut t = 0.0;
        let ts: Vec<f64> = (0..4001)
            .map(|k| {
                let now = t;
                t += 1e-12 * (1.0 + 0.3 * (k as f64 * 0.7).sin());
                now
            })
            .collect();
        let vs = ts
            .iter()
            .map(|&t| {
                let v = vdd / (1.0 + (-(t - t50) / tau).exp());
                if rising {
                    v
                } else {
                    vdd - v
                }
            })
            .collect();
        Waveform::new(ts, vs).unwrap()
    }

    /// The curve over `v_in`'s own critical region.
    fn curve(v_in: &Waveform, v_out: &Waveform, polarity: Polarity) -> SensitivityCurve {
        let region = v_in.critical_region(th(), polarity).unwrap();
        SensitivityCurve::from_noiseless(v_in, v_out, region, polarity).unwrap()
    }

    #[test]
    fn slew_ratio_is_recovered() {
        // Input slew 200 ps, output slew 100 ps, overlapping mid-crossings:
        // ρ ≈ 2 wherever both ramps are active.
        let v_in = ramp_wave(1.0e-9, 200e-12, true);
        let v_out = ramp_wave(1.02e-9, 100e-12, false);
        let c = curve(&v_in, &v_out, Polarity::Rise);
        // At mid-region both are in transition.
        let mid = 1.0e-9;
        let got = c.rho_at_time(mid);
        assert!((got - 2.0).abs() < 0.1, "rho at mid = {got}");
        assert_eq!(c.rho_at_time(0.0), 0.0, "zero outside the region");
        assert_eq!(c.rho_at_time(3.9e-9), 0.0);
        assert!(c.max_rho() >= got);
    }

    #[test]
    fn voltage_and_time_views_agree_for_monotone_input() {
        let v_in = ramp_wave(1.0e-9, 200e-12, true);
        let v_out = ramp_wave(1.0e-9, 120e-12, false);
        let c = curve(&v_in, &v_out, Polarity::Rise);
        let (t0, t1) = c.region();
        for frac in [0.2, 0.4, 0.6, 0.8] {
            let t = t0 + (t1 - t0) * frac;
            let v = v_in.value_at(t);
            let by_t = c.rho_at_time(t);
            let by_v = c.rho_at_voltage(v);
            assert!((by_t - by_v).abs() < 0.05, "t={t:e}: {by_t} vs {by_v}");
        }
    }

    #[test]
    fn falling_input_builds_ascending_voltage_map() {
        let v_in = ramp_wave(1.0e-9, 200e-12, false);
        let v_out = ramp_wave(1.02e-9, 100e-12, true);
        let c = curve(&v_in, &v_out, Polarity::Fall);
        // Lookup works across the swing.
        for v in [0.2, 0.6, 1.0] {
            assert!(c.rho_at_voltage(v) >= 0.0);
        }
        assert!((c.rho_at_voltage(0.6) - 2.0).abs() < 0.2);
    }

    #[test]
    fn non_overlap_triggers_shift() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        // Output a full nanosecond later: no overlap.
        let v_out = ramp_wave(2.0e-9, 150e-12, false);
        let ctx = PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out), th()).unwrap();
        let s = noiseless_sensitivity(&ctx).unwrap();
        assert!((s.delta - 1.0e-9).abs() < 5e-12, "delta = {:e}", s.delta);
        // After alignment the sensitivity is meaningful.
        assert!(s.curve.max_rho() > 0.5);
    }

    #[test]
    fn overlap_keeps_delta_zero() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        let v_out = ramp_wave(1.05e-9, 100e-12, false);
        let ctx = PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out), th()).unwrap();
        let s = noiseless_sensitivity(&ctx).unwrap();
        assert_eq!(s.delta, 0.0);
    }

    #[test]
    fn effective_sensitivity_matches_noiseless_on_clean_input() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        let v_out = ramp_wave(1.04e-9, 90e-12, false);
        let ctx = PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out), th()).unwrap();
        let s = noiseless_sensitivity(&ctx).unwrap();
        let eff = effective_sensitivity(&s.curve, &ctx).unwrap();
        assert_eq!(eff.times.len(), ctx.samples());
        for (k, &t) in eff.times.iter().enumerate() {
            let direct = s.curve.rho_at_time(t);
            assert!(
                (eff.rho[k] - direct).abs() < 0.25,
                "k={k}: mapped {} vs direct {direct}",
                eff.rho[k]
            );
        }
    }

    /// `from_noiseless` computed point by point, one `value_at` binary
    /// search per sampled value: the reference the forward passes must
    /// match. Returns `(times, rho, map_volts, map_rho)`.
    fn per_point_reference(v_in: &Waveform, v_out: &Waveform, polarity: Polarity) -> [Vec<f64>; 4] {
        let (t0, t1) = v_in.critical_region(th(), polarity).unwrap();
        let n = CURVE_POINTS;
        let h = (t1 - t0) / (n as f64) / 2.0;
        let mean_slope = (v_in.value_at(t1) - v_in.value_at(t0)).abs() / (t1 - t0);
        let slope_floor = 1e-3 * mean_slope;
        let (mut times, mut rho, mut volts) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..n {
            let t = t0 + (t1 - t0) * k as f64 / (n - 1) as f64;
            let din = (v_in.value_at(t + h) - v_in.value_at(t - h)) / (2.0 * h);
            let dout = (v_out.value_at(t + h) - v_out.value_at(t - h)) / (2.0 * h);
            let r = if din.abs() < slope_floor {
                0.0
            } else {
                (dout / din).abs().min(RHO_CLAMP)
            };
            times.push(t);
            rho.push(r);
            volts.push(v_in.value_at(t));
        }
        let mut map: Vec<(f64, f64)> = Vec::new();
        for (&v, &r) in volts.iter().zip(&rho) {
            let keep = map.last().is_none_or(|&(lv, _)| match polarity {
                Polarity::Rise => v > lv + 1e-12,
                Polarity::Fall => v < lv - 1e-12,
            });
            if keep {
                map.push((v, r));
            }
        }
        if polarity == Polarity::Fall {
            map.reverse();
        }
        let (map_volts, map_rho) = map.into_iter().unzip();
        [times, rho, map_volts, map_rho]
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn forward_pass_curve_equals_per_point_sampling() {
        // Noisy inputs put kinks and wiggles inside the region, so the
        // sampling grids land in many different segments.
        let wiggly = |w: Waveform| {
            w.with_triangular_pulse(1.0e-9, 90e-12, 0.15)
                .unwrap()
                .with_triangular_pulse(0.93e-9, 40e-12, -0.05)
                .unwrap()
        };
        let cases = [
            (
                "rising",
                wiggly(ramp_wave(1.0e-9, 200e-12, true)),
                ramp_wave(1.02e-9, 100e-12, false),
                Polarity::Rise,
            ),
            (
                "falling",
                wiggly(ramp_wave(1.0e-9, 200e-12, false)),
                ramp_wave(1.03e-9, 80e-12, true),
                Polarity::Fall,
            ),
            // Golden-length records: the 400 points span ≈365 of 4001
            // samples, so t − h and t + h mostly straddle a sample.
            (
                "golden rising",
                wiggly(golden_like(1.0e-9, 365e-12, true)),
                golden_like(1.08e-9, 250e-12, false),
                Polarity::Rise,
            ),
            (
                "golden falling",
                wiggly(golden_like(1.0e-9, 365e-12, false)),
                golden_like(1.07e-9, 200e-12, true),
                Polarity::Fall,
            ),
        ];
        for (name, v_in, v_out, polarity) in cases {
            let c = curve(&v_in, &v_out, polarity);
            let [times, rho, map_volts, map_rho] = per_point_reference(&v_in, &v_out, polarity);
            assert_bits_eq(&c.times, &times, &format!("{name} times"));
            assert_bits_eq(&c.rho, &rho, &format!("{name} rho"));
            assert_bits_eq(&c.map_volts, &map_volts, &format!("{name} map volts"));
            assert_bits_eq(&c.map_rho, &map_rho, &format!("{name} map rho"));
        }
        // Non-overlapping pair: the curve comes from the δ-shifted output.
        for rising in [true, false] {
            let v_in = ramp_wave(1.0e-9, 150e-12, rising);
            let v_out = ramp_wave(2.0e-9, 150e-12, !rising);
            let ctx =
                PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out.clone()), th())
                    .unwrap();
            let s = noiseless_sensitivity(&ctx).unwrap();
            assert!(s.delta > 0.5e-9);
            let aligned = v_out.shifted(-s.delta);
            let [times, rho, map_volts, map_rho] =
                per_point_reference(&v_in, &aligned, ctx.polarity());
            assert_bits_eq(&s.curve.times, &times, "shifted times");
            assert_bits_eq(&s.curve.rho, &rho, "shifted rho");
            assert_bits_eq(&s.curve.map_volts, &map_volts, "shifted map volts");
            assert_bits_eq(&s.curve.map_rho, &map_rho, "shifted map rho");
        }
    }

    /// `effective_sensitivity`'s forward pass over the noisy input equals
    /// one `value_at` query per sample time, bit for bit, and so do the
    /// ρ values looked up from those voltages.
    #[test]
    fn effective_sensitivity_equals_per_point_queries() {
        let cases = [
            (
                golden_like(1.0e-9, 365e-12, true),
                golden_like(1.08e-9, 250e-12, false),
            ),
            (
                golden_like(1.0e-9, 365e-12, false),
                golden_like(1.07e-9, 200e-12, true),
            ),
            (
                ramp_wave(1.0e-9, 150e-12, true),
                ramp_wave(1.04e-9, 90e-12, false),
            ),
        ];
        for (case, (quiet, out)) in cases.into_iter().enumerate() {
            let rising = quiet.v_end() > quiet.v_start();
            let sign = if rising { -1.0 } else { 1.0 };
            let noisy = quiet
                .with_triangular_pulse(1.02e-9, 120e-12, 0.4 * sign)
                .unwrap()
                .with_triangular_pulse(1.3e-9, 200e-12, 0.3 * sign)
                .unwrap();
            let ctx = PropagationContext::new(quiet, noisy.clone(), Some(out), th()).unwrap();
            let curve = noiseless_sensitivity(&ctx).unwrap().curve;
            for samples in [5, 35, 140] {
                let ctx = ctx.clone().with_samples(samples).unwrap();
                let eff = effective_sensitivity(&curve, &ctx).unwrap();
                let (t0, t1) = ctx.noisy_critical_region().unwrap();
                let times = ctx.sample_times(t0, t1);
                let volts: Vec<f64> = times.iter().map(|&t| noisy.value_at(t)).collect();
                let rho: Vec<f64> = volts.iter().map(|&v| curve.rho_at_voltage(v)).collect();
                let what = format!("case {case}, P = {samples}");
                assert_bits_eq(&eff.times, &times, &format!("{what} times"));
                assert_bits_eq(&eff.voltages, &volts, &format!("{what} voltages"));
                assert_bits_eq(&eff.rho, &rho, &format!("{what} rho"));
            }
        }
    }

    #[test]
    fn missing_output_is_reported() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        let ctx = PropagationContext::new(v_in.clone(), v_in, None, th()).unwrap();
        assert!(matches!(
            noiseless_sensitivity(&ctx),
            Err(SgdpError::MissingNoiselessOutput)
        ));
    }
}
