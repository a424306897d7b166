//! Output-to-input sensitivity curves (the paper's `ρ`).
//!
//! Equation 1 of the paper defines the *noiseless sensitivity*
//! `ρ(t) = ∂v_out/∂v_in = (dv_out/dt)/(dv_in/dt)`, nonzero only inside the
//! noiseless critical region. SGDP's step 2 re-indexes this curve by
//! *voltage* so it can be transferred onto the (possibly non-monotone) noisy
//! waveform: `ρeff(tᵢ) = ρ(tⱼ)` where the noiseless input at `tⱼ` matches
//! the noisy voltage at `tᵢ`.
//!
//! A [`SensitivityCurve`] holds what every query needs: 400 curve points
//! `t` across the noiseless critical region, and the noiseless input's
//! monotone voltage envelope over them, read in one forward pass of a
//! [`Sampler`](nsta_waveform::Sampler). `ρ` at a curve point is the ratio
//! of the output's to the input's central difference over `[t − h, t + h]`.
//! It is evaluated only when a query reads that point, and kept, so a
//! context evaluates each point at most once.
//!
//! A query interpolates linearly between the two curve points that bracket
//! each value, and reads no other point. SGDP's step 2
//! ([`effective_sensitivity`]) brackets each noisy voltage between two
//! envelope entries; WLS5's Eq. 2 weight ([`rho_at_times`]) brackets each
//! sample time between two curve points. A query marks those points,
//! evaluates the marked points not yet evaluated in one forward pass per
//! waveform (the points' spacing exceeds `2h`, so their times `t ± h`
//! ascend), then interpolates. On `table1 --cases 40`'s golden records
//! step 2 reads 51–70 of the 400 points, and WLS5 70. Every sample equals
//! its [`Waveform::value_at`] query bit for bit, and the interpolation is
//! [`interp::interp1_clamped`]'s, taken in its two steps
//! ([`interp::clamped_segment`], then [`interp::interp1_on`]), so every
//! `ρ` a query returns equals the one a curve evaluated at all 400 points
//! would give.

use crate::context::PropagationContext;
use crate::gate::{transition_gap, transitions_overlap};
use crate::SgdpError;
use nsta_numeric::interp;
use nsta_waveform::{Polarity, Waveform};
use std::cell::RefCell;

/// Internal sampling resolution for sensitivity extraction.
const CURVE_POINTS: usize = 400;
/// Sensitivities above this are clamped (they arise from near-flat input
/// segments and would otherwise dominate every fit).
const RHO_CLAMP: f64 = 100.0;

/// The noiseless sensitivity `ρ` over the noiseless critical region: the
/// curve points and the input's voltage envelope, with `ρ` evaluated per
/// point when a query first reads it (module docs).
#[derive(Debug, Clone)]
pub struct SensitivityCurve {
    region: (f64, f64),
    /// Half the central-difference step.
    h: f64,
    /// Input slope below which `ρ` is zero: a flat input transmits no
    /// noise.
    slope_floor: f64,
    /// Curve point times (ascending, spanning the region).
    times: Vec<f64>,
    /// Voltage envelope: ascending input voltages...
    map_volts: Vec<f64>,
    /// ...and the curve point each was read at.
    map_points: Vec<u16>,
    /// The envelope entry of each curve point, if it has one.
    entries: Vec<Option<u16>>,
    /// `ρ` of the points evaluated so far.
    memo: RefCell<Memo>,
}

/// `ρ` of the evaluated curve points, NaN at the others. `ρ` itself is
/// never NaN: it is 0 or a magnitude clamped to [`RHO_CLAMP`].
#[derive(Debug, Clone)]
struct Memo {
    /// Per curve point.
    rho: Vec<f64>,
    /// Per envelope entry: `rho` at its point.
    map_rho: Vec<f64>,
    /// Points evaluated over the curve's life.
    #[cfg(test)]
    evaluations: usize,
}

/// Curve points a query marked for evaluation, one bit each.
#[derive(Default)]
struct Marks([u64; CURVE_POINTS.div_ceil(64)]);

impl Marks {
    /// Marks point `k` unless the memo already holds its `ρ`.
    fn mark(&mut self, memo: &Memo, k: usize) {
        if memo.rho[k].is_nan() {
            self.0[k / 64] |= 1 << (k % 64);
        }
    }

    /// The marked points, ascending.
    fn points(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let k = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    k
                })
            })
        })
    }
}

impl SensitivityCurve {
    /// Lays the curve over `region`, the noiseless input's critical region
    /// ([`Waveform::critical_region`], which a [`PropagationContext`]
    /// measures once): the curve points and the monotone envelope of
    /// `v_in` over them, in one forward pass. No `ρ` is evaluated yet.
    ///
    /// `polarity` is the *input* transition direction. `ρ` is the
    /// magnitude of the derivative ratio, so the output may transition
    /// either way.
    ///
    /// # Errors
    ///
    /// [`SgdpError::DegenerateFit`] if the input is flat across its
    /// entire critical region.
    fn new(v_in: &Waveform, region: (f64, f64), polarity: Polarity) -> Result<Self, SgdpError> {
        let (t0, t1) = region;
        let n = CURVE_POINTS;
        let h = (t1 - t0) / (n as f64) / 2.0;
        // Slope floor: 0.1% of the mean transition slope.
        let mean_slope = (v_in.value_at(t1) - v_in.value_at(t0)).abs() / (t1 - t0);
        if mean_slope <= 0.0 {
            return Err(SgdpError::DegenerateFit(
                "noiseless input flat across critical region",
            ));
        }
        let times: Vec<f64> = (0..n)
            .map(|k| t0 + (t1 - t0) * k as f64 / (n - 1) as f64)
            .collect();
        // Voltage-indexed view: keep a strictly monotone voltage envelope
        // (noiseless inputs are monotone up to numerical wiggle).
        let mut input = v_in.sampler(t0);
        let mut map_volts: Vec<f64> = Vec::with_capacity(n);
        let mut map_points = Vec::with_capacity(n);
        for (k, &t) in (0u16..).zip(&times) {
            let v = input.value_at(t);
            let beyond = map_volts.last().is_none_or(|&last| match polarity {
                Polarity::Rise => v > last + 1e-12,
                Polarity::Fall => v < last - 1e-12,
            });
            if beyond {
                map_volts.push(v);
                map_points.push(k);
            }
        }
        if polarity == Polarity::Fall {
            map_volts.reverse();
            map_points.reverse();
        }
        if map_volts.len() < 2 {
            return Err(SgdpError::DegenerateFit(
                "noiseless input has no voltage span",
            ));
        }
        let mut entries = vec![None; n];
        for (e, &k) in (0u16..).zip(&map_points) {
            entries[usize::from(k)] = Some(e);
        }
        let memo = Memo {
            rho: vec![f64::NAN; n],
            map_rho: vec![f64::NAN; map_volts.len()],
            #[cfg(test)]
            evaluations: 0,
        };
        Ok(SensitivityCurve {
            region,
            h,
            slope_floor: 1e-3 * mean_slope,
            times,
            map_volts,
            map_points,
            entries,
            memo: RefCell::new(memo),
        })
    }

    /// The noiseless critical region this curve spans.
    pub fn region(&self) -> (f64, f64) {
        self.region
    }

    /// `ρ(t)` at each of `times`: linear between curve points, zero outside
    /// the region (the paper's weight filter). `v_in` and `v_out` are the
    /// pair the curve reads `ρ` from.
    fn rho_at_times(&self, v_in: &Waveform, v_out: &Waveform, times: &[f64]) -> Vec<f64> {
        let ys: fn(&Memo) -> &[f64] = |memo| &memo.rho;
        self.lookup(&self.times, self.region, |k| k, ys, times, (v_in, v_out))
    }

    /// `ρ` looked up by input *voltage* at each of `volts` — SGDP's step-2
    /// transfer: linear between envelope entries, zero outside the
    /// envelope's span ([`effective_sensitivity`]).
    fn rho_at_voltages(&self, v_in: &Waveform, v_out: &Waveform, volts: &[f64]) -> Vec<f64> {
        let span = (self.map_volts[0], self.map_volts[self.map_volts.len() - 1]);
        let point = |e| usize::from(self.map_points[e]);
        let ys: fn(&Memo) -> &[f64] = |memo| &memo.map_rho;
        self.lookup(&self.map_volts, span, point, ys, volts, (v_in, v_out))
    }

    /// Looks each of `values` up over `xs`, the curve times or the
    /// envelope's voltages: 0 outside `span`, otherwise
    /// [`interp::interp1_clamped`] over `xs` and `ys`, the memo's `ρ` per
    /// entry of `xs`, in its two steps. The first finds each value's
    /// segment. The curve points of both ends of every segment (`point`
    /// maps an entry of `xs` to its curve point) are then evaluated unless
    /// the memo holds them, and the second step interpolates.
    fn lookup(
        &self,
        xs: &[f64],
        (lo, hi): (f64, f64),
        point: impl Fn(usize) -> usize,
        ys: fn(&Memo) -> &[f64],
        values: &[f64],
        (v_in, v_out): (&Waveform, &Waveform),
    ) -> Vec<f64> {
        let memo = &mut *self.memo.borrow_mut();
        let segments: Vec<Option<(usize, f64)>> = values
            .iter()
            .map(|&x| {
                if x < lo || x > hi {
                    None
                } else {
                    Some(interp::clamped_segment(xs, x))
                }
            })
            .collect();
        let mut marks = Marks::default();
        for &(i, _) in segments.iter().flatten() {
            marks.mark(memo, point(i));
            marks.mark(memo, point(i + 1));
        }
        self.evaluate(memo, &marks, v_in, v_out);
        let ys = ys(memo);
        segments
            .iter()
            .map(|s| s.map_or(0.0, |(i, x)| interp::interp1_on(xs, ys, i, x)))
            .collect()
    }

    /// Evaluates `ρ` (Eq. 1) at the marked points into the memo: the
    /// input at `t − h` and `t + h`, the output at `t − h` and `t + h`,
    /// point after point, one forward pass per waveform.
    fn evaluate(&self, memo: &mut Memo, marks: &Marks, v_in: &Waveform, v_out: &Waveform) {
        let h = self.h;
        let mut samplers = None;
        for k in marks.points() {
            let t = self.times[k];
            let (input, output) =
                samplers.get_or_insert_with(|| (v_in.sampler(t - h), v_out.sampler(t - h)));
            let in_before = input.value_at(t - h);
            let din = (input.value_at(t + h) - in_before) / (2.0 * h);
            let out_before = output.value_at(t - h);
            let dout = (output.value_at(t + h) - out_before) / (2.0 * h);
            let rho = if din.abs() < self.slope_floor {
                0.0
            } else {
                (dout / din).abs().min(RHO_CLAMP)
            };
            memo.rho[k] = rho;
            if let Some(e) = self.entries[k] {
                memo.map_rho[usize::from(e)] = rho;
            }
            #[cfg(test)]
            {
                memo.evaluations += 1;
            }
        }
    }
}

/// The noiseless sensitivity a [`PropagationContext`] caches, including
/// SGDP's non-overlap handling: the curve, plus the pre-shift `δ` applied
/// to the output (zero when transitions overlap).
#[derive(Debug, Clone)]
pub struct ShiftedSensitivity {
    /// The sensitivity curve (of the δ-aligned output).
    pub curve: SensitivityCurve,
    /// The pre-shift applied to the output before extraction (s).
    pub delta: f64,
    /// The output shifted back by `δ`, which `ρ` is read from when the
    /// transitions do not overlap; `None` when `ρ` reads the context's own
    /// output.
    shifted_output: Option<Waveform>,
}

impl ShiftedSensitivity {
    /// The noiseless input and the δ-aligned output `ρ` is read from.
    fn waves<'a>(
        &'a self,
        ctx: &'a PropagationContext,
    ) -> Result<(&'a Waveform, &'a Waveform), SgdpError> {
        let output = match &self.shifted_output {
            Some(shifted) => shifted,
            None => ctx.noiseless_output_or_err()?,
        };
        Ok((ctx.noiseless_input(), output))
    }
}

/// Builds the context's sensitivity curve, applying SGDP's additional
/// pre-shift step when the input and output transitions do not overlap
/// (the cache's initializer; see [`PropagationContext::sensitivity`]).
pub(crate) fn compute_noiseless_sensitivity(
    ctx: &PropagationContext,
) -> Result<ShiftedSensitivity, SgdpError> {
    let v_in = ctx.noiseless_input();
    let v_out = ctx.noiseless_output_or_err()?;
    let th = ctx.thresholds();
    let region = ctx.noiseless_critical_region()?;
    let (delta, shifted_output) = if transitions_overlap(region, v_out, th)? {
        (0.0, None)
    } else {
        let delta = transition_gap(v_in, v_out, th)?;
        (delta, Some(v_out.shifted(-delta)))
    };
    let curve = SensitivityCurve::new(v_in, region, ctx.polarity())?;
    Ok(ShiftedSensitivity {
        curve,
        delta,
        shifted_output,
    })
}

/// `ρ(t)` of the context's noiseless sensitivity at each of `times` —
/// WLS5's Eq. 2 weight: linear between curve points, zero outside the
/// noiseless critical region. Evaluates only the curve points these times
/// bracket that the context has not evaluated yet (module docs).
///
/// # Errors
///
/// As [`PropagationContext::sensitivity`].
pub fn rho_at_times(ctx: &PropagationContext, times: &[f64]) -> Result<Vec<f64>, SgdpError> {
    let sensitivity = ctx.sensitivity()?;
    let (v_in, v_out) = sensitivity.waves(ctx)?;
    Ok(sensitivity.curve.rho_at_times(v_in, v_out, times))
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

/// Computes [`EffectiveSensitivity`] for the context's noisy waveform:
/// reads the noisy input at its `P` ascending times in one forward pass,
/// then looks each voltage up on the context's noiseless sensitivity,
/// evaluating only the curve points those voltages bracket (module docs).
/// A voltage outside the noiseless input's span has no matching `tⱼ`
/// (paper step 2.a) and takes `ρeff = 0`, so a noisy sample sitting on a
/// settled rail carries no weight, as in the paper.
///
/// # Errors
///
/// As [`PropagationContext::sensitivity`].
pub fn effective_sensitivity(ctx: &PropagationContext) -> Result<EffectiveSensitivity, SgdpError> {
    let sensitivity = ctx.sensitivity()?;
    let (t0, t1) = ctx.noisy_critical_region()?;
    let times = ctx.sample_times(t0, t1);
    let mut noisy = ctx.noisy_input().sampler(t0);
    let voltages: Vec<f64> = times.iter().map(|&t| noisy.value_at(t)).collect();
    let (v_in, v_out) = sensitivity.waves(ctx)?;
    let rho = sensitivity.curve.rho_at_voltages(v_in, v_out, &voltages);
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
    use crate::techniques::{EquivalentWaveform, Sgdp, Wls5};
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

    fn region(v_in: &Waveform, polarity: Polarity) -> (f64, f64) {
        v_in.critical_region(th(), polarity).unwrap()
    }

    /// The curve over `v_in`'s own critical region.
    fn curve(v_in: &Waveform, polarity: Polarity) -> SensitivityCurve {
        SensitivityCurve::new(v_in, region(v_in, polarity), polarity).unwrap()
    }

    /// The eager reference the lazy curve must match: `ρ` at all 400
    /// points, one `value_at` binary search per sampled value, looked up
    /// by interpolation over the whole arrays.
    struct Reference {
        region: (f64, f64),
        times: Vec<f64>,
        rho: Vec<f64>,
        map_volts: Vec<f64>,
        map_rho: Vec<f64>,
    }

    impl Reference {
        fn new(v_in: &Waveform, v_out: &Waveform, region: (f64, f64), polarity: Polarity) -> Self {
            let (t0, t1) = region;
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
            Reference {
                region,
                times,
                rho,
                map_volts,
                map_rho,
            }
        }

        fn rho_at_time(&self, t: f64) -> f64 {
            if t < self.region.0 || t > self.region.1 {
                return 0.0;
            }
            interp::interp1_clamped(&self.times, &self.rho, t)
        }

        fn rho_at_voltage(&self, v: f64) -> f64 {
            let (lo, hi) = (self.map_volts[0], self.map_volts[self.map_volts.len() - 1]);
            if v < lo || v > hi {
                return 0.0;
            }
            interp::interp1_clamped(&self.map_volts, &self.map_rho, v)
        }

        /// Both region edges and the floats just outside them, every curve
        /// point and every midpoint between two, and the times in
        /// `(times[last], t1]` when the last point rounds below `t1`.
        fn time_queries(&self) -> Vec<f64> {
            let (r0, r1) = self.region;
            let last = self.times[CURVE_POINTS - 1];
            let mut q = vec![r0, r1, r0.next_down(), r1.next_up(), last];
            q.extend(&self.times);
            q.extend(self.times.windows(2).map(|w| 0.5 * (w[0] + w[1])));
            let mut t = last.next_up();
            while t <= r1 {
                q.push(t);
                t = t.next_up();
            }
            q
        }

        /// Every envelope entry exactly, every midpoint between two, both
        /// ends, the floats just outside them, and both rails.
        fn voltage_queries(&self) -> Vec<f64> {
            let (lo, hi) = (self.map_volts[0], self.map_volts[self.map_volts.len() - 1]);
            let mut q = self.map_volts.clone();
            q.extend(self.map_volts.windows(2).map(|w| 0.5 * (w[0] + w[1])));
            q.extend([
                lo.next_down(),
                hi.next_up(),
                lo - 0.1,
                hi + 0.1,
                0.0,
                th().vdd(),
            ]);
            q
        }
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn slew_ratio_is_recovered() {
        // Input slew 200 ps, output slew 100 ps, overlapping mid-crossings:
        // ρ ≈ 2 wherever both ramps are active.
        let v_in = ramp_wave(1.0e-9, 200e-12, true);
        let v_out = ramp_wave(1.02e-9, 100e-12, false);
        let c = curve(&v_in, Polarity::Rise);
        // At mid-region both are in transition; zero outside the region.
        let rho = c.rho_at_times(&v_in, &v_out, &[1.0e-9, 0.0, 3.9e-9]);
        assert!((rho[0] - 2.0).abs() < 0.1, "rho at mid = {}", rho[0]);
        assert_eq!(&rho[1..], &[0.0, 0.0], "zero outside the region");
        let max = c
            .rho_at_times(&v_in, &v_out, &c.times)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(max >= rho[0]);
    }

    #[test]
    fn voltage_and_time_views_agree_for_monotone_input() {
        let v_in = ramp_wave(1.0e-9, 200e-12, true);
        let v_out = ramp_wave(1.0e-9, 120e-12, false);
        let c = curve(&v_in, Polarity::Rise);
        let (t0, t1) = c.region();
        for frac in [0.2, 0.4, 0.6, 0.8] {
            let t = t0 + (t1 - t0) * frac;
            let v = v_in.value_at(t);
            let by_t = c.rho_at_times(&v_in, &v_out, &[t])[0];
            let by_v = c.rho_at_voltages(&v_in, &v_out, &[v])[0];
            assert!((by_t - by_v).abs() < 0.05, "t={t:e}: {by_t} vs {by_v}");
        }
    }

    #[test]
    fn falling_input_builds_ascending_voltage_map() {
        let v_in = ramp_wave(1.0e-9, 200e-12, false);
        let v_out = ramp_wave(1.02e-9, 100e-12, true);
        let c = curve(&v_in, Polarity::Fall);
        assert!(c.map_volts.windows(2).all(|w| w[0] < w[1]));
        // Lookup works across the swing.
        let rho = c.rho_at_voltages(&v_in, &v_out, &[0.2, 0.6, 1.0]);
        assert!(rho.iter().all(|&r| r >= 0.0));
        assert!((rho[1] - 2.0).abs() < 0.2);
    }

    #[test]
    fn non_overlap_triggers_shift() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        // Output a full nanosecond later: no overlap.
        let v_out = ramp_wave(2.0e-9, 150e-12, false);
        let ctx = PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out), th()).unwrap();
        let s = ctx.sensitivity().unwrap();
        assert!((s.delta - 1.0e-9).abs() < 5e-12, "delta = {:e}", s.delta);
        assert!(s.shifted_output.is_some());
        // After alignment the sensitivity is meaningful.
        let rho = rho_at_times(&ctx, &s.curve.times).unwrap();
        assert!(rho.into_iter().fold(0.0, f64::max) > 0.5);
    }

    #[test]
    fn overlap_keeps_delta_zero() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        let v_out = ramp_wave(1.05e-9, 100e-12, false);
        let ctx = PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out), th()).unwrap();
        let s = ctx.sensitivity().unwrap();
        assert_eq!(s.delta, 0.0);
        assert!(s.shifted_output.is_none());
    }

    #[test]
    fn effective_sensitivity_matches_noiseless_on_clean_input() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        let v_out = ramp_wave(1.04e-9, 90e-12, false);
        let ctx = PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out), th()).unwrap();
        let eff = effective_sensitivity(&ctx).unwrap();
        assert_eq!(eff.times.len(), ctx.samples());
        let direct = rho_at_times(&ctx, &eff.times).unwrap();
        for (k, (&mapped, &direct)) in eff.rho.iter().zip(&direct).enumerate() {
            assert!(
                (mapped - direct).abs() < 0.25,
                "k={k}: mapped {mapped} vs direct {direct}"
            );
        }
    }

    /// Every `ρ` a query returns equals the eager reference's bit for bit:
    /// time queries at both region edges, on and between curve points and
    /// in `(times[last], t1]`; voltage queries exactly at envelope entries,
    /// between them and outside `[lo, hi]`; rising and falling inputs,
    /// golden-length records, and δ-shifted outputs. Each query kind runs
    /// on a fresh curve, and the two kinds also share one curve a few
    /// values at a time, so answers read off a partly filled memo are
    /// checked too.
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
        let mut cases = vec![
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
        ]
        .into_iter()
        .map(|(name, v_in, v_out, polarity)| {
            let region = region(&v_in, polarity);
            (name.to_string(), v_in, v_out, region, polarity)
        })
        .collect::<Vec<_>>();
        // An early edge whose region ends past twice its start: there the
        // last point, t0 + (t1 − t0), can round below t1. Move the end up
        // ulp by ulp until it does.
        let v_in = ramp_wave(0.2e-9, 300e-12, true);
        let (t0, mut t1) = region(&v_in, Polarity::Rise);
        let m = (CURVE_POINTS - 1) as f64;
        for _ in 0..64 {
            if t0 + (t1 - t0) * m / m < t1 {
                break;
            }
            t1 = t1.next_up();
        }
        assert!(t0 + (t1 - t0) * m / m < t1, "no such end near {t1:e}");
        let v_out = ramp_wave(0.25e-9, 150e-12, false);
        cases.push((
            "last point below t1".into(),
            v_in,
            v_out,
            (t0, t1),
            Polarity::Rise,
        ));
        // Non-overlapping pairs: the context reads ρ off the output
        // shifted back by δ, which it keeps beside the curve.
        for rising in [true, false] {
            let v_in = ramp_wave(1.0e-9, 150e-12, rising);
            let v_out = ramp_wave(2.0e-9, 150e-12, !rising);
            let ctx =
                PropagationContext::new(v_in.clone(), v_in.clone(), Some(v_out.clone()), th())
                    .unwrap();
            let s = ctx.sensitivity().unwrap();
            assert!(s.delta > 0.5e-9);
            let aligned = v_out.shifted(-s.delta);
            assert_bits_eq(
                s.shifted_output.as_ref().unwrap().times(),
                aligned.times(),
                "kept shifted output",
            );
            let reference = Reference::new(&v_in, &aligned, s.curve.region, ctx.polarity());
            let tq = reference.time_queries();
            let want: Vec<f64> = tq.iter().map(|&t| reference.rho_at_time(t)).collect();
            assert_bits_eq(&rho_at_times(&ctx, &tq).unwrap(), &want, "shifted times");
            cases.push((
                format!("shifted rising {rising}"),
                v_in,
                aligned,
                s.curve.region,
                ctx.polarity(),
            ));
        }

        let mut past_last_point = 0;
        for (name, v_in, v_out, region, polarity) in cases {
            let reference = Reference::new(&v_in, &v_out, region, polarity);
            let fresh = || SensitivityCurve::new(&v_in, region, polarity).unwrap();
            let c = fresh();
            assert_bits_eq(&c.times, &reference.times, &format!("{name} times"));
            assert_bits_eq(&c.map_volts, &reference.map_volts, &format!("{name} volts"));
            let tq = reference.time_queries();
            let vq = reference.voltage_queries();
            if tq.iter().any(|&t| t > reference.times[CURVE_POINTS - 1]) {
                past_last_point += 1;
            }
            let want_t: Vec<f64> = tq.iter().map(|&t| reference.rho_at_time(t)).collect();
            let want_v: Vec<f64> = vq.iter().map(|&v| reference.rho_at_voltage(v)).collect();
            let got_t = fresh().rho_at_times(&v_in, &v_out, &tq);
            assert_bits_eq(&got_t, &want_t, &format!("{name} times, fresh"));
            let got_v = fresh().rho_at_voltages(&v_in, &v_out, &vq);
            assert_bits_eq(&got_v, &want_v, &format!("{name} volts, fresh"));
            let shared = fresh();
            for (k, (t, v)) in tq.chunks(37).zip(vq.chunks(23)).enumerate() {
                let got_v = shared.rho_at_voltages(&v_in, &v_out, v);
                assert_bits_eq(&got_v, &want_v[k * 23..][..v.len()], &name);
                let got_t = shared.rho_at_times(&v_in, &v_out, t);
                assert_bits_eq(&got_t, &want_t[k * 37..][..t.len()], &name);
            }
        }
        assert!(past_last_point > 0, "no case queried (times[last], t1]");
    }

    /// `effective_sensitivity`'s forward pass over the noisy input equals
    /// one `value_at` query per sample time, bit for bit, and so do the
    /// ρ values looked up from those voltages on the eager reference.
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
            // Non-overlapping: ρ comes from the δ-shifted output.
            (
                ramp_wave(1.0e-9, 150e-12, true),
                ramp_wave(2.0e-9, 150e-12, false),
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
            let ctx =
                PropagationContext::new(quiet.clone(), noisy.clone(), Some(out.clone()), th())
                    .unwrap();
            let s = ctx.sensitivity().unwrap();
            let aligned = out.shifted(-s.delta);
            let reference = Reference::new(&quiet, &aligned, s.curve.region, ctx.polarity());
            for samples in [5, 35, 140] {
                // Each clone carries the memo the previous budgets filled.
                let ctx = ctx.clone().with_samples(samples).unwrap();
                let eff = effective_sensitivity(&ctx).unwrap();
                let (t0, t1) = ctx.noisy_critical_region().unwrap();
                let times = ctx.sample_times(t0, t1);
                let volts: Vec<f64> = times.iter().map(|&t| noisy.value_at(t)).collect();
                let rho: Vec<f64> = volts.iter().map(|&v| reference.rho_at_voltage(v)).collect();
                let what = format!("case {case}, P = {samples}");
                assert_bits_eq(&eff.times, &times, &format!("{what} times"));
                assert_bits_eq(&eff.voltages, &volts, &format!("{what} voltages"));
                assert_bits_eq(&eff.rho, &rho, &format!("{what} rho"));
            }
        }
    }

    /// A context evaluates each curve point at most once: a second query
    /// evaluates nothing, and a query reading other points evaluates only
    /// those.
    #[test]
    fn a_second_query_evaluates_no_curve_point_twice() {
        let quiet = golden_like(1.0e-9, 365e-12, true);
        let out = golden_like(1.08e-9, 250e-12, false);
        let noisy = quiet.with_triangular_pulse(1.02e-9, 120e-12, -0.4).unwrap();
        let ctx = PropagationContext::new(quiet, noisy, Some(out), th()).unwrap();
        let first = effective_sensitivity(&ctx).unwrap();
        let c = &ctx.sensitivity().unwrap().curve;
        let evaluated = || {
            let memo = c.memo.borrow();
            let points = memo.rho.iter().filter(|r| !r.is_nan()).count();
            (memo.evaluations, points)
        };
        let (evaluations, points) = evaluated();
        assert_eq!(evaluations, points);
        assert!(
            points > 0 && points < CURVE_POINTS / 2,
            "step 2 evaluated {points} of {CURVE_POINTS} points"
        );
        let again = effective_sensitivity(&ctx).unwrap();
        assert_bits_eq(&again.rho, &first.rho, "second query");
        assert_eq!(evaluated(), (evaluations, points), "second query");
        // WLS5 reads ρ by time at its own points: only those not yet
        // evaluated are.
        Sgdp.equivalent(&ctx).unwrap();
        Wls5.equivalent(&ctx).unwrap();
        let (evaluations, points) = evaluated();
        assert_eq!(evaluations, points);
        Sgdp.equivalent(&ctx).unwrap();
        Wls5.equivalent(&ctx).unwrap();
        assert_eq!(evaluated(), (evaluations, points), "repeated reductions");
    }

    #[test]
    fn missing_output_is_reported() {
        let v_in = ramp_wave(1.0e-9, 150e-12, true);
        let ctx = PropagationContext::new(v_in.clone(), v_in, None, th()).unwrap();
        assert!(matches!(
            ctx.sensitivity(),
            Err(SgdpError::MissingNoiselessOutput)
        ));
        assert!(matches!(
            effective_sensitivity(&ctx),
            Err(SgdpError::MissingNoiselessOutput)
        ));
        assert!(matches!(
            rho_at_times(&ctx, &[1.0e-9]),
            Err(SgdpError::MissingNoiselessOutput)
        ));
    }
}
