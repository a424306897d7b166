use crate::wave::{reserved, uniform_grid};
use crate::{Polarity, Thresholds, Waveform, WaveformError};

/// The *equivalent linear waveform* `Γ` of the paper: a line
/// `v(t) = a·t + b` saturated to the supply rails `[0, Vdd]`.
///
/// A saturated ramp is exactly the information conventional STA carries for
/// a transition — one reference time plus one slew — so every technique in
/// this workspace (P1, P2, LSF3, E4, WLS5, SGDP) produces one of these.
///
/// The sign of `a` encodes polarity: positive slope is a rising edge.
///
/// ```
/// use nsta_waveform::{SaturatedRamp, Thresholds};
/// # fn main() -> Result<(), nsta_waveform::WaveformError> {
/// let th = Thresholds::cmos(1.2);
/// let g = SaturatedRamp::with_slew(2.0e-9, 100e-12, th, false)?; // falling
/// assert!((g.arrival_mid() - 2.0e-9).abs() < 1e-15);
/// assert_eq!(g.polarity(), nsta_waveform::Polarity::Fall);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturatedRamp {
    a: f64,
    b: f64,
    vdd: f64,
}

impl SaturatedRamp {
    /// Builds a ramp directly from line coefficients.
    ///
    /// # Errors
    ///
    /// [`WaveformError::InvalidParameter`] if `a == 0`, `vdd <= 0`, or any
    /// argument is non-finite — a saturated ramp must actually transition.
    pub fn from_coefficients(a: f64, b: f64, vdd: f64) -> Result<Self, WaveformError> {
        if !(a.is_finite() && b.is_finite() && vdd.is_finite()) {
            return Err(WaveformError::InvalidParameter(
                "ramp coefficients must be finite",
            ));
        }
        if a == 0.0 {
            return Err(WaveformError::InvalidParameter(
                "ramp slope must be non-zero",
            ));
        }
        if vdd <= 0.0 {
            return Err(WaveformError::InvalidParameter("vdd must be positive"));
        }
        Ok(SaturatedRamp { a, b, vdd })
    }

    /// Builds a ramp from an arrival time (at the mid threshold) and a slew
    /// (time between the low and high thresholds). `rising` selects the
    /// polarity.
    ///
    /// # Errors
    ///
    /// [`WaveformError::InvalidParameter`] if `slew <= 0` or inputs are
    /// non-finite.
    pub fn with_slew(
        arrival_mid: f64,
        slew: f64,
        th: Thresholds,
        rising: bool,
    ) -> Result<Self, WaveformError> {
        if !(slew.is_finite() && arrival_mid.is_finite()) {
            return Err(WaveformError::InvalidParameter(
                "arrival and slew must be finite",
            ));
        }
        if slew <= 0.0 {
            return Err(WaveformError::InvalidParameter("slew must be positive"));
        }
        let dv = th.high() - th.low();
        let magnitude = dv / slew;
        let a = if rising { magnitude } else { -magnitude };
        let b = th.mid() - a * arrival_mid;
        SaturatedRamp::from_coefficients(a, b, th.vdd())
    }

    /// Line slope in volts per second (signed; negative for falling edges).
    pub fn slope(&self) -> f64 {
        self.a
    }

    /// Supply voltage the ramp saturates to.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Transition direction implied by the slope sign.
    pub fn polarity(&self) -> Polarity {
        if self.a > 0.0 {
            Polarity::Rise
        } else {
            Polarity::Fall
        }
    }

    /// Voltage at time `t`, clamped to `[0, vdd]`.
    pub fn value_at(&self, t: f64) -> f64 {
        (self.a * t + self.b).clamp(0.0, self.vdd)
    }

    /// Time at which the (unsaturated) line crosses voltage `v`.
    pub fn crossing_time(&self, v: f64) -> f64 {
        (v - self.b) / self.a
    }

    /// Arrival time at the mid threshold of `th`.
    ///
    /// Note: the ramp stores its own `vdd`; this helper uses `vdd/2`
    /// irrespective of the thresholds' mid fraction when they agree, but is
    /// written against the ramp's own supply for self-consistency.
    pub fn arrival_mid(&self) -> f64 {
        self.crossing_time(0.5 * self.vdd)
    }

    /// Slew between the low and high thresholds (always positive).
    pub fn slew(&self, th: Thresholds) -> f64 {
        ((th.high() - th.low()) / self.a).abs()
    }

    /// Time at which the saturated ramp leaves its initial rail.
    pub fn t_rail_departure(&self) -> f64 {
        match self.polarity() {
            Polarity::Rise => self.crossing_time(0.0),
            Polarity::Fall => self.crossing_time(self.vdd),
        }
    }

    /// Time at which the saturated ramp reaches its final rail.
    pub fn t_rail_arrival(&self) -> f64 {
        match self.polarity() {
            Polarity::Rise => self.crossing_time(self.vdd),
            Polarity::Fall => self.crossing_time(0.0),
        }
    }

    /// Returns a copy shifted by `dt` in time.
    pub fn shifted(&self, dt: f64) -> SaturatedRamp {
        // v = a (t - dt) + b  ⇒  intercept b' = b - a·dt.
        SaturatedRamp {
            a: self.a,
            b: self.b - self.a * dt,
            vdd: self.vdd,
        }
    }

    /// Samples the saturated ramp into a [`Waveform`] over `[t0, t1]`.
    ///
    /// Breakpoints where the line meets the rails are included exactly, so
    /// the sampled waveform represents the ramp without discretization error.
    /// The samples are [`Waveform::from_fn`]'s grid plus those breakpoints,
    /// built and evaluated once.
    ///
    /// # Errors
    ///
    /// [`WaveformError::InvalidParameter`] for a degenerate span or step, or
    /// a grid with too many points to count or allocate.
    pub fn to_waveform(&self, t0: f64, t1: f64, dt: f64) -> Result<Waveform, WaveformError> {
        let mut ts = uniform_grid(t0, t1, dt, 2)?;
        // Insert exact rail-departure/arrival breakpoints if inside range.
        for brk in [self.t_rail_departure(), self.t_rail_arrival()] {
            if brk > t0 && brk < t1 {
                let pos = ts.partition_point(|&t| t < brk);
                if ts.get(pos).is_none_or(|&t| t != brk) {
                    ts.insert(pos, brk);
                }
            }
        }
        let mut vs = reserved(ts.len())?;
        vs.extend(ts.iter().map(|&t| self.value_at(t)));
        Waveform::new(ts, vs)
    }
}

impl std::fmt::Display for SaturatedRamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Γ({}): t50={:.4e}s, slope={:.4e}V/s",
            self.polarity(),
            self.arrival_mid(),
            self.a
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_slew_round_trips() {
        let th = Thresholds::cmos(1.2);
        for rising in [true, false] {
            let g = SaturatedRamp::with_slew(1.0e-9, 150e-12, th, rising).unwrap();
            assert!((g.arrival_mid() - 1.0e-9).abs() < 1e-18);
            assert!((g.slew(th) - 150e-12).abs() < 1e-18);
            assert_eq!(g.polarity().is_rise(), rising);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let th = Thresholds::cmos(1.2);
        assert!(SaturatedRamp::with_slew(0.0, 0.0, th, true).is_err());
        assert!(SaturatedRamp::with_slew(0.0, -1.0, th, true).is_err());
        assert!(SaturatedRamp::with_slew(f64::NAN, 1.0, th, true).is_err());
        assert!(SaturatedRamp::from_coefficients(0.0, 0.0, 1.2).is_err());
        assert!(SaturatedRamp::from_coefficients(1.0, 0.0, -1.0).is_err());
    }

    #[test]
    fn saturation_clamps_to_rails() {
        let th = Thresholds::cmos(1.0);
        let g = SaturatedRamp::with_slew(0.0, 0.8, th, true).unwrap();
        assert_eq!(g.value_at(-100.0), 0.0);
        assert_eq!(g.value_at(100.0), 1.0);
        assert!((g.value_at(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rail_times_bracket_midpoint() {
        let th = Thresholds::cmos(1.0);
        for rising in [true, false] {
            let g = SaturatedRamp::with_slew(5.0, 1.0, th, rising).unwrap();
            assert!(g.t_rail_departure() < g.arrival_mid());
            assert!(g.arrival_mid() < g.t_rail_arrival());
        }
    }

    #[test]
    fn shifted_moves_arrival() {
        let th = Thresholds::cmos(1.0);
        let g = SaturatedRamp::with_slew(1.0, 0.25, th, true).unwrap();
        let h = g.shifted(0.5);
        assert!((h.arrival_mid() - 1.5).abs() < 1e-12);
        assert_eq!(g.slope(), h.slope());
    }

    #[test]
    fn to_waveform_contains_exact_breakpoints() {
        let th = Thresholds::cmos(1.0);
        let g = SaturatedRamp::with_slew(1.0, 0.4, th, true).unwrap();
        let w = g.to_waveform(0.0, 2.0, 0.17).unwrap();
        let dep = g.t_rail_departure();
        let arr = g.t_rail_arrival();
        assert!(w.times().iter().any(|&t| (t - dep).abs() < 1e-15));
        assert!(w.times().iter().any(|&t| (t - arr).abs() < 1e-15));
        // Sampled values match the analytic ramp everywhere.
        for &t in w.times() {
            assert!((w.value_at(t) - g.value_at(t)).abs() < 1e-12);
        }
        // And the waveform's measured slew matches the ramp's.
        let measured = w.slew_first_to_first(th, Polarity::Rise).unwrap();
        assert!((measured - g.slew(th)).abs() < 1e-9);
    }

    #[test]
    fn to_waveform_rejects_a_grid_it_cannot_allocate() {
        // 1e14 samples: 800 TB, more than any allocator grants.
        let g = SaturatedRamp::with_slew(1e-9, 100e-12, Thresholds::cmos(1.2), true).unwrap();
        assert!(matches!(
            g.to_waveform(0.0, 10.0, 1e-13),
            Err(WaveformError::InvalidParameter(_))
        ));
    }

    #[test]
    fn display_mentions_polarity() {
        let th = Thresholds::cmos(1.0);
        let g = SaturatedRamp::with_slew(1.0, 0.4, th, false).unwrap();
        assert!(g.to_string().contains("fall"));
    }
}
