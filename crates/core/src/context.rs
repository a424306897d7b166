use crate::gate::GateModel;
use crate::sensitivity::ShiftedSensitivity;
use crate::SgdpError;
use nsta_waveform::{Polarity, SaturatedRamp, Thresholds, Waveform};
use std::cell::OnceCell;

/// Default number of sampling points `P` (the paper's value).
pub const DEFAULT_SAMPLES: usize = 35;

/// Everything a technique needs to reduce a noisy input waveform to an
/// equivalent ramp `Γeff`:
///
/// * the **noisy input** waveform observed at the gate input,
/// * the **noiseless input** — what the transition would look like with all
///   aggressors quiet (conventional STA's view of the signal),
/// * optionally the **noiseless output** — the gate's response to the
///   noiseless input, required by the sensitivity-based methods (WLS5,
///   SGDP),
/// * measurement [`Thresholds`] and the sampling budget `P`.
#[derive(Debug, Clone)]
pub struct PropagationContext {
    noiseless_input: Waveform,
    noisy_input: Waveform,
    noiseless_output: Option<Waveform>,
    thresholds: Thresholds,
    polarity: Polarity,
    /// The noiseless and noisy critical regions, measured once by `new`.
    noiseless_region: (f64, f64),
    noisy_region: (f64, f64),
    samples: usize,
    /// Lazily built noiseless sensitivity: the curve's points and voltage
    /// envelope on first use, and `ρ` cached per curve point, on the first
    /// query that reads that point. In a production flow `ρ` is per-arc
    /// characterization data, computed once and reused across every noise
    /// case; the cache reproduces that amortization. The `runtime` bin
    /// reports SGDP's and WLS5's cost relative to P1 with the `ρ` points
    /// they read cached (the paper reports ≈1.5× for both), and SGDP's
    /// with a fresh context that builds the curve and evaluates them too.
    sensitivity: OnceCell<Result<ShiftedSensitivity, SgdpError>>,
}

impl PropagationContext {
    /// Builds a context from explicit waveforms.
    ///
    /// # Errors
    ///
    /// * [`SgdpError::Waveform`] if the noisy or noiseless input never
    ///   completes a transition at the given thresholds.
    /// * [`SgdpError::InvalidParameter`] if the two inputs transition with
    ///   opposite polarities.
    pub fn new(
        noiseless_input: Waveform,
        noisy_input: Waveform,
        noiseless_output: Option<Waveform>,
        thresholds: Thresholds,
    ) -> Result<Self, SgdpError> {
        let polarity = noiseless_input.polarity(thresholds)?;
        let noisy_pol = noisy_input.polarity(thresholds)?;
        if polarity != noisy_pol {
            return Err(SgdpError::InvalidParameter(
                "noisy and noiseless inputs must transition with the same polarity",
            ));
        }
        // Both must actually cross the slew thresholds.
        let noiseless_region = noiseless_input.critical_region(thresholds, polarity)?;
        let noisy_region = noisy_input.critical_region(thresholds, polarity)?;
        Ok(PropagationContext {
            noiseless_input,
            noisy_input,
            noiseless_output,
            thresholds,
            polarity,
            noiseless_region,
            noisy_region,
            samples: DEFAULT_SAMPLES,
            sensitivity: OnceCell::new(),
        })
    }

    /// The noiseless sensitivity (`ρ_noiseless` with non-overlap pre-shift
    /// handling): its curve points and voltage envelope, built on first use
    /// and cached. `ρ` itself is evaluated per point when a query first
    /// reads it ([`effective_sensitivity`](crate::sensitivity::effective_sensitivity),
    /// [`rho_at_times`](crate::sensitivity::rho_at_times)) and cached too.
    ///
    /// # Errors
    ///
    /// [`SgdpError::MissingNoiselessOutput`] when the context carries no
    /// output waveform; propagated extraction failures otherwise.
    pub fn sensitivity(&self) -> Result<&ShiftedSensitivity, SgdpError> {
        self.sensitivity
            .get_or_init(|| crate::sensitivity::compute_noiseless_sensitivity(self))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Builds a context from a noiseless *ramp* (how conventional STA
    /// carries the clean transition) and the observed noisy waveform,
    /// computing the noiseless output through `gate`.
    ///
    /// # Errors
    ///
    /// Propagates waveform/gate failures as in [`PropagationContext::new`].
    pub fn with_gate(
        noiseless: SaturatedRamp,
        noisy_input: Waveform,
        gate: &dyn GateModel,
        thresholds: Thresholds,
    ) -> Result<Self, SgdpError> {
        let t0 = noisy_input.t_start();
        let t1 = noisy_input.t_end();
        let dt = (noiseless.slew(thresholds) / 50.0).max(1e-13);
        let clean = noiseless.to_waveform(t0, t1, dt)?;
        let out = gate.response(&clean)?;
        PropagationContext::new(clean, noisy_input, Some(out), thresholds)
    }

    /// Overrides the number of sampling points `P` (minimum 5).
    ///
    /// # Errors
    ///
    /// [`SgdpError::InvalidParameter`] if `samples < 5`.
    pub fn with_samples(mut self, samples: usize) -> Result<Self, SgdpError> {
        if samples < 5 {
            return Err(SgdpError::InvalidParameter(
                "need at least 5 sampling points",
            ));
        }
        self.samples = samples;
        Ok(self)
    }

    /// The noiseless input waveform.
    pub fn noiseless_input(&self) -> &Waveform {
        &self.noiseless_input
    }

    /// The noisy input waveform.
    pub fn noisy_input(&self) -> &Waveform {
        &self.noisy_input
    }

    /// The noiseless output waveform, when available.
    pub fn noiseless_output(&self) -> Option<&Waveform> {
        self.noiseless_output.as_ref()
    }

    /// The noiseless output, or the error the sensitivity methods report.
    ///
    /// # Errors
    ///
    /// [`SgdpError::MissingNoiselessOutput`] when absent.
    pub fn noiseless_output_or_err(&self) -> Result<&Waveform, SgdpError> {
        self.noiseless_output
            .as_ref()
            .ok_or(SgdpError::MissingNoiselessOutput)
    }

    /// Measurement thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Polarity of the input transition.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Sampling budget `P`.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The noisy critical region `[t_first(start level), t_last(end level)]`,
    /// measured once at construction.
    ///
    /// # Errors
    ///
    /// None: construction already measured it. The `Result` is kept so
    /// callers need not change.
    pub fn noisy_critical_region(&self) -> Result<(f64, f64), SgdpError> {
        Ok(self.noisy_region)
    }

    /// The noiseless critical region, measured once at construction.
    ///
    /// # Errors
    ///
    /// None, as for [`PropagationContext::noisy_critical_region`].
    pub fn noiseless_critical_region(&self) -> Result<(f64, f64), SgdpError> {
        Ok(self.noiseless_region)
    }

    /// `P` uniformly spaced sample times across `[t0, t1]` (inclusive).
    pub fn sample_times(&self, t0: f64, t1: f64) -> Vec<f64> {
        let p = self.samples;
        (0..p)
            .map(|k| t0 + (t1 - t0) * k as f64 / (p - 1) as f64)
            .collect()
    }

    /// Returns a copy whose inputs (and output, if any) are shifted by `dt`
    /// — used by equivariance tests.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> PropagationContext {
        let noiseless_input = self.noiseless_input.shifted(dt);
        let noisy_input = self.noisy_input.shifted(dt);
        // Re-measured as `new` measures them: a shifted record's crossings
        // need not equal the old ones plus `dt` to the last bit. Only a
        // shift that collapses a region in rounding keeps the translation.
        let region = |w: &Waveform, (a, b): (f64, f64)| {
            w.critical_region(self.thresholds, self.polarity)
                .unwrap_or((a + dt, b + dt))
        };
        PropagationContext {
            noiseless_region: region(&noiseless_input, self.noiseless_region),
            noisy_region: region(&noisy_input, self.noisy_region),
            noiseless_input,
            noisy_input,
            noiseless_output: self.noiseless_output.as_ref().map(|w| w.shifted(dt)),
            thresholds: self.thresholds,
            polarity: self.polarity,
            samples: self.samples,
            sensitivity: OnceCell::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::AnalyticInverterGate;

    fn th() -> Thresholds {
        Thresholds::cmos(1.2)
    }

    fn clean_ramp() -> SaturatedRamp {
        SaturatedRamp::with_slew(1.0e-9, 150e-12, th(), true).unwrap()
    }

    #[test]
    fn construction_checks_polarity_agreement() {
        let clean = clean_ramp().to_waveform(0.0, 3e-9, 1e-12).unwrap();
        let falling = clean.map_values(|v| 1.2 - v).unwrap();
        assert!(matches!(
            PropagationContext::new(clean.clone(), falling, None, th()),
            Err(SgdpError::InvalidParameter(_))
        ));
        let ok = PropagationContext::new(clean.clone(), clean.clone(), None, th()).unwrap();
        assert_eq!(ok.polarity(), Polarity::Rise);
        assert_eq!(ok.samples(), DEFAULT_SAMPLES);
    }

    #[test]
    fn with_gate_fills_noiseless_output() {
        let gate = AnalyticInverterGate::fast(th());
        let noisy = clean_ramp()
            .to_waveform(0.0, 3e-9, 1e-12)
            .unwrap()
            .with_triangular_pulse(1.0e-9, 100e-12, -0.2)
            .unwrap();
        let ctx = PropagationContext::with_gate(clean_ramp(), noisy, &gate, th()).unwrap();
        let out = ctx.noiseless_output_or_err().unwrap();
        assert_eq!(out.polarity(th()).unwrap(), Polarity::Fall);
    }

    #[test]
    fn sample_times_cover_region_inclusively() {
        let clean = clean_ramp().to_waveform(0.0, 3e-9, 1e-12).unwrap();
        let ctx = PropagationContext::new(clean.clone(), clean, None, th())
            .unwrap()
            .with_samples(11)
            .unwrap();
        let ts = ctx.sample_times(1.0, 2.0);
        assert_eq!(ts.len(), 11);
        assert_eq!(ts[0], 1.0);
        assert_eq!(*ts.last().unwrap(), 2.0);
        assert!(ctx.clone().with_samples(2).is_err());
    }

    #[test]
    fn missing_output_is_a_typed_error() {
        let clean = clean_ramp().to_waveform(0.0, 3e-9, 1e-12).unwrap();
        let ctx = PropagationContext::new(clean.clone(), clean, None, th()).unwrap();
        assert!(matches!(
            ctx.noiseless_output_or_err(),
            Err(SgdpError::MissingNoiselessOutput)
        ));
    }

    #[test]
    fn shifted_context_shifts_regions() {
        let clean = clean_ramp().to_waveform(0.0, 3e-9, 1e-12).unwrap();
        let ctx = PropagationContext::new(clean.clone(), clean, None, th()).unwrap();
        let (a, b) = ctx.noisy_critical_region().unwrap();
        let sh = ctx.shifted(0.5e-9);
        let (a2, b2) = sh.noisy_critical_region().unwrap();
        assert!((a2 - a - 0.5e-9).abs() < 1e-15);
        assert!((b2 - b - 0.5e-9).abs() < 1e-15);
    }
}
