use crate::{Polarity, Thresholds, WaveformError};
use nsta_numeric::interp;

/// An immutable, validated, piecewise-linear sampled voltage waveform.
///
/// Invariants (enforced at construction):
/// * at least two samples,
/// * strictly increasing, finite time axis,
/// * finite voltages.
///
/// Evaluation between samples interpolates linearly; evaluation outside the
/// recorded span holds the first/last value (signals are assumed settled
/// outside their recorded window).
///
/// ```
/// use nsta_waveform::Waveform;
/// # fn main() -> Result<(), nsta_waveform::WaveformError> {
/// let w = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.5])?;
/// assert_eq!(w.value_at(0.5), 0.5);
/// assert_eq!(w.value_at(-10.0), 0.0); // held
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    ts: Vec<f64>,
    vs: Vec<f64>,
}

impl Waveform {
    /// Builds a waveform from parallel time and voltage vectors.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::LengthMismatch`] if the vectors differ in length.
    /// * [`WaveformError::InvalidTimeAxis`] if fewer than two samples or the
    ///   time axis is not strictly increasing.
    /// * [`WaveformError::NonFinite`] on NaN/inf entries.
    pub fn new(ts: Vec<f64>, vs: Vec<f64>) -> Result<Self, WaveformError> {
        if ts.len() != vs.len() {
            return Err(WaveformError::LengthMismatch {
                times: ts.len(),
                values: vs.len(),
            });
        }
        if ts.len() < 2 {
            return Err(WaveformError::InvalidTimeAxis("need at least two samples"));
        }
        if ts.iter().any(|t| !t.is_finite()) {
            return Err(WaveformError::NonFinite("time axis"));
        }
        if vs.iter().any(|v| !v.is_finite()) {
            return Err(WaveformError::NonFinite("voltage samples"));
        }
        if ts.windows(2).any(|w| w[1] <= w[0]) {
            return Err(WaveformError::InvalidTimeAxis(
                "times must be strictly increasing",
            ));
        }
        Ok(Waveform { ts, vs })
    }

    /// Samples `f(t)` on a uniform grid over `[t0, t1]` with step `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] if `t1 <= t0` or
    /// `dt <= 0`, or if the grid has too many points to count or allocate,
    /// and propagates construction errors if `f` returns non-finite values.
    pub fn from_fn(
        t0: f64,
        t1: f64,
        dt: f64,
        mut f: impl FnMut(f64) -> f64,
    ) -> Result<Self, WaveformError> {
        let ts = uniform_grid(t0, t1, dt, 0)?;
        let mut vs = reserved(ts.len())?;
        vs.extend(ts.iter().map(|&t| f(t)));
        Waveform::new(ts, vs)
    }

    /// A constant waveform at `v` spanning `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Same domain requirements as [`Waveform::from_fn`].
    pub fn constant(v: f64, t0: f64, t1: f64) -> Result<Self, WaveformError> {
        Waveform::new(vec![t0, t1], vec![v, v])
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Always `false`: a valid waveform has at least two samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sampled time axis.
    pub fn times(&self) -> &[f64] {
        &self.ts
    }

    /// The sampled voltages.
    pub fn values(&self) -> &[f64] {
        &self.vs
    }

    /// First recorded time.
    pub fn t_start(&self) -> f64 {
        self.ts[0]
    }

    /// Last recorded time.
    pub fn t_end(&self) -> f64 {
        self.ts[self.ts.len() - 1]
    }

    /// First recorded voltage.
    pub fn v_start(&self) -> f64 {
        self.vs[0]
    }

    /// Last recorded voltage.
    pub fn v_end(&self) -> f64 {
        self.vs[self.vs.len() - 1]
    }

    /// Smallest sampled voltage.
    pub fn v_min(&self) -> f64 {
        self.vs.iter().fold(f64::INFINITY, |m, &v| m.min(v))
    }

    /// Largest sampled voltage.
    pub fn v_max(&self) -> f64 {
        self.vs.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
    }

    /// Linear interpolation at `t`, holding end values outside the span.
    pub fn value_at(&self, t: f64) -> f64 {
        if t <= self.t_start() {
            return self.v_start();
        }
        if t >= self.t_end() {
            return self.v_end();
        }
        interp::interp1(&self.ts, &self.vs, t)
    }

    /// Samples the waveform at every point of an ascending time grid with
    /// one [`Sampler`]: one binary search for the first point's segment and
    /// one forward pass from there — `O(log samples + grid + covered
    /// samples)` instead of one binary search per grid point. The transient
    /// steppers use this to tabulate source values over their whole time
    /// axis.
    ///
    /// Each value equals [`Waveform::value_at`] bit for bit; grid points
    /// outside the recorded span hold the end values.
    pub fn sample_on_grid(&self, grid: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(grid.len());
        let mut sampler = self.sampler(grid.first().copied().unwrap_or(self.ts[0]));
        out.extend(grid.iter().map(|&t| sampler.value_at(t)));
    }

    /// A [`Sampler`] whose first segment is the one holding `from`, found
    /// by one binary search.
    pub fn sampler(&self, from: f64) -> Sampler<'_> {
        Sampler {
            wave: self,
            seg: interp::segment_index(&self.ts, from),
        }
    }

    /// All times at which the waveform crosses `level`, ascending.
    pub fn crossings(&self, level: f64) -> Vec<f64> {
        interp::crossings(&self.ts, &self.vs, level)
    }

    /// Earliest crossing of `level`, if any: `crossings(level).first()`,
    /// or on a record holding infinite samples (see
    /// [`Waveform::first_crossing_from`]) its first entry that is not NaN.
    ///
    /// Scans forward from the first sample and stops at the first hit,
    /// after fast-forwarding over the samples that open the record
    /// strictly on one side of `level`.
    pub fn first_crossing(&self, level: f64) -> Option<f64> {
        self.first_crossing_from(level, f64::NEG_INFINITY)
    }

    /// Latest crossing of `level`, if any: `crossings(level).last()`.
    ///
    /// Scans backward from the last sample and stops at the first
    /// interpolated crossing it meets. An exact sample hit met before that
    /// is the answer unless the interpolated crossing does not precede it
    /// — the rule by which [`Waveform::crossings`] drops such a hit.
    ///
    /// The scan first fast-forwards over the run of samples that close the
    /// record strictly on the last sample's side of `level` (none if that
    /// sample sits on the level or is NaN), eight samples per step and then
    /// one at a time. A segment between two such samples has no crossing,
    /// no exact hit and nothing to dedupe, so the exact loop, started at
    /// the run's first sample, returns what it returns from the last one.
    pub fn last_crossing(&self, level: f64) -> Option<f64> {
        let n = self.vs.len();
        let mut hit = (self.vs[n - 1] == level).then_some(self.ts[n - 1]);
        let end = n - trailing_run(&self.vs, level).max(1);
        let mut y1 = self.vs[end] - level;
        for (k, &v0) in self.vs[..end].iter().enumerate().rev() {
            let y0 = v0 - level;
            if y0 == 0.0 {
                hit = hit.or(Some(self.ts[k]));
            } else if y0 * y1 < 0.0 {
                let t = self.interpolated_crossing(k, y0, y1);
                return Some(hit.filter(|&h| t < h).unwrap_or(t));
            }
            y1 = y0;
        }
        hit
    }

    /// The first entry of `crossings(level)` at or after `t_min`, found by
    /// a forward scan that stops there. Exact sample hits dedupe against
    /// the previous entry as in [`Waveform::crossings`]. A NaN entry is
    /// never at or after `t_min`; only a record holding infinite samples
    /// (a sum that overflowed, or its derivative) interpolates one.
    ///
    /// The scan first fast-forwards over the run of samples that open the
    /// record strictly on the first sample's side of `level` (none if that
    /// sample sits on the level or is NaN), eight samples per step and then
    /// one at a time. A segment between two such samples has no crossing,
    /// no exact hit and nothing to dedupe, so the exact loop, started at
    /// the run's last sample, returns what it returns from the first one.
    pub fn first_crossing_from(&self, level: f64, t_min: f64) -> Option<f64> {
        let n = self.vs.len();
        let start = leading_run(&self.vs, level).max(1) - 1;
        let mut last: Option<f64> = None;
        let mut y0 = self.vs[start] - level;
        for (k, &v1) in (start..).zip(&self.vs[start + 1..]) {
            let y1 = v1 - level;
            let t = if y0 == 0.0 {
                Some(self.ts[k]).filter(|&t| last.is_none_or(|l| l < t))
            } else if y0 * y1 < 0.0 {
                Some(self.interpolated_crossing(k, y0, y1))
            } else {
                None
            };
            if let Some(t) = t {
                if t >= t_min {
                    return Some(t);
                }
                last = Some(t);
            }
            y0 = y1;
        }
        // Trailing sample exactly on the level.
        let t = self.ts[n - 1];
        (self.vs[n - 1] == level && last.is_none_or(|l| l < t) && t >= t_min).then_some(t)
    }

    /// Where segment `k`, whose ends lie `y0` and `y1` from the level on
    /// opposite sides, crosses it — `interp::crossings`' formula.
    #[inline]
    fn interpolated_crossing(&self, k: usize, y0: f64, y1: f64) -> f64 {
        let t = y0 / (y0 - y1);
        self.ts[k] + t * (self.ts[k + 1] - self.ts[k])
    }

    /// Earliest crossing of `level`, as an error if absent.
    ///
    /// # Errors
    ///
    /// [`WaveformError::NoCrossing`] if the waveform never reaches `level`.
    pub fn first_crossing_or_err(&self, level: f64) -> Result<f64, WaveformError> {
        self.first_crossing(level)
            .ok_or(WaveformError::NoCrossing { level })
    }

    /// Latest crossing of `level`, as an error if absent.
    ///
    /// # Errors
    ///
    /// [`WaveformError::NoCrossing`] if the waveform never reaches `level`.
    pub fn last_crossing_or_err(&self, level: f64) -> Result<f64, WaveformError> {
        self.last_crossing(level)
            .ok_or(WaveformError::NoCrossing { level })
    }

    /// Transition direction inferred from the settled end values relative to
    /// the mid threshold: rising if the waveform ends above `mid` and starts
    /// below it, falling for the converse.
    ///
    /// # Errors
    ///
    /// [`WaveformError::IncompleteTransition`] if both ends settle on the
    /// same side of `mid` (no logical transition).
    pub fn polarity(&self, th: Thresholds) -> Result<Polarity, WaveformError> {
        let mid = th.mid();
        let starts_low = self.v_start() < mid;
        let ends_high = self.v_end() >= mid;
        match (starts_low, ends_high) {
            (true, true) => Ok(Polarity::Rise),
            (false, false) => Ok(Polarity::Fall),
            _ => Err(WaveformError::IncompleteTransition),
        }
    }

    /// The *noisy critical region* of the paper: from the **first** crossing
    /// of the transition's start level to the **last** crossing of its end
    /// level (`0.1·Vdd` → `0.9·Vdd` for a rise), each found by a scan from
    /// its own end of the record ([`Waveform::first_crossing`],
    /// [`Waveform::last_crossing`]).
    ///
    /// # Errors
    ///
    /// [`WaveformError::IncompleteTransition`] if either level is never
    /// crossed or the region is empty.
    pub fn critical_region(
        &self,
        th: Thresholds,
        polarity: Polarity,
    ) -> Result<(f64, f64), WaveformError> {
        let (start_level, end_level) = th.slew_levels(polarity);
        let t_first = self
            .first_crossing(start_level)
            .ok_or(WaveformError::IncompleteTransition)?;
        let t_last = self
            .last_crossing(end_level)
            .ok_or(WaveformError::IncompleteTransition)?;
        if t_last <= t_first {
            return Err(WaveformError::IncompleteTransition);
        }
        Ok((t_first, t_last))
    }

    /// Slew measured from the first crossing of the start level to the
    /// **first** subsequent crossing of the end level (the noiseless
    /// convention used by P1).
    ///
    /// Both crossings come from forward scans that fast-forward to the
    /// transition and stop at their hit
    /// ([`Waveform::first_crossing_from`]); the result equals the first
    /// `crossings(end)` entry at or after the first `crossings(start)`
    /// entry, minus that entry.
    ///
    /// # Errors
    ///
    /// [`WaveformError::IncompleteTransition`] if the transition never
    /// completes.
    pub fn slew_first_to_first(
        &self,
        th: Thresholds,
        polarity: Polarity,
    ) -> Result<f64, WaveformError> {
        let (start_level, end_level) = th.slew_levels(polarity);
        let t0 = self
            .first_crossing(start_level)
            .ok_or(WaveformError::IncompleteTransition)?;
        let t1 = self
            .first_crossing_from(end_level, t0)
            .ok_or(WaveformError::IncompleteTransition)?;
        Ok(t1 - t0)
    }

    /// Slew measured from the **earliest** crossing of the start level to
    /// the **latest** crossing of the end level (the P2 convention for noisy
    /// waveforms — the full width of the critical region).
    ///
    /// # Errors
    ///
    /// [`WaveformError::IncompleteTransition`] if the transition never
    /// completes.
    pub fn slew_first_to_last(
        &self,
        th: Thresholds,
        polarity: Polarity,
    ) -> Result<f64, WaveformError> {
        let (t0, t1) = self.critical_region(th, polarity)?;
        Ok(t1 - t0)
    }

    /// Returns a copy shifted by `dt` in time.
    pub fn shifted(&self, dt: f64) -> Waveform {
        let ts = self.ts.iter().map(|t| t + dt).collect();
        Waveform {
            ts,
            vs: self.vs.clone(),
        }
    }

    /// Returns a copy with voltages transformed by `f`.
    ///
    /// # Errors
    ///
    /// Propagates [`WaveformError::NonFinite`] if `f` produces NaN/inf.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> Result<Waveform, WaveformError> {
        let vs: Vec<f64> = self.vs.iter().map(|&v| f(v)).collect();
        Waveform::new(self.ts.clone(), vs)
    }

    /// Restricts to `[t0, t1]`, inserting interpolated boundary samples.
    ///
    /// # Errors
    ///
    /// [`WaveformError::InvalidParameter`] if the window is empty or lies
    /// outside the recorded span.
    pub fn windowed(&self, t0: f64, t1: f64) -> Result<Waveform, WaveformError> {
        if !(t1 > t0) {
            return Err(WaveformError::InvalidParameter(
                "window must satisfy t1 > t0",
            ));
        }
        let mut ts = vec![t0];
        let mut vs = vec![self.value_at(t0)];
        for (&t, &v) in self.ts.iter().zip(&self.vs) {
            if t > t0 && t < t1 {
                ts.push(t);
                vs.push(v);
            }
        }
        ts.push(t1);
        vs.push(self.value_at(t1));
        Waveform::new(ts, vs)
    }

    /// Pointwise sum with `other` over the union of both time grids.
    ///
    /// Outside each waveform's span, its boundary value is held — matching
    /// the superposition of settled signals.
    pub fn plus(&self, other: &Waveform) -> Waveform {
        let mut ts: Vec<f64> = Vec::with_capacity(self.ts.len() + other.ts.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ts.len() || j < other.ts.len() {
            let t = match (self.ts.get(i), other.ts.get(j)) {
                (Some(&a), Some(&b)) => {
                    if a < b {
                        i += 1;
                        a
                    } else if b < a {
                        j += 1;
                        b
                    } else {
                        i += 1;
                        j += 1;
                        a
                    }
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            if ts.last().is_none_or(|&last| t > last) {
                ts.push(t);
            }
        }
        let vs: Vec<f64> = ts
            .iter()
            .map(|&t| self.value_at(t) + other.value_at(t))
            .collect();
        Waveform { ts, vs }
    }

    /// Numerical time-derivative (central differences, one-sided at ends),
    /// sampled on the same time axis. Units: volts per second.
    pub fn derivative(&self) -> Waveform {
        let n = self.ts.len();
        let mut dv = vec![0.0; n];
        for k in 0..n {
            dv[k] = if k == 0 {
                (self.vs[1] - self.vs[0]) / (self.ts[1] - self.ts[0])
            } else if k == n - 1 {
                (self.vs[n - 1] - self.vs[n - 2]) / (self.ts[n - 1] - self.ts[n - 2])
            } else {
                (self.vs[k + 1] - self.vs[k - 1]) / (self.ts[k + 1] - self.ts[k - 1])
            };
        }
        Waveform {
            ts: self.ts.clone(),
            vs: dv,
        }
    }

    /// `true` if voltages are non-decreasing (rise) or non-increasing (fall)
    /// along the whole record, within tolerance `tol` volts.
    pub fn is_monotonic(&self, polarity: Polarity, tol: f64) -> bool {
        match polarity {
            Polarity::Rise => self.vs.windows(2).all(|w| w[1] >= w[0] - tol),
            Polarity::Fall => self.vs.windows(2).all(|w| w[1] <= w[0] + tol),
        }
    }

    /// Trapezoidal integral of `v(t)` over the full record.
    pub fn integral(&self) -> f64 {
        let mut acc = 0.0;
        for k in 0..self.ts.len() - 1 {
            acc += 0.5 * (self.vs[k] + self.vs[k + 1]) * (self.ts[k + 1] - self.ts[k]);
        }
        acc
    }
}

/// A forward reader of one waveform's values at a run of query times:
/// [`Waveform::value_at`] bit for bit, at the cost of one forward walk
/// over the record when the queries ascend.
///
/// It keeps the segment of its last query. A query inside the record walks
/// forward from there to the last sample at or before it — the segment
/// `value_at`'s binary search picks — and interpolates it with
/// `value_at`'s formula; a query before that segment finds its segment by
/// binary search again, so any query order gives `value_at`'s values.
#[derive(Debug, Clone)]
pub struct Sampler<'a> {
    wave: &'a Waveform,
    seg: usize,
}

impl Sampler<'_> {
    /// The waveform's value at `t`, equal to [`Waveform::value_at`] bit
    /// for bit: linear between samples, the end values outside the span.
    #[inline]
    pub fn value_at(&mut self, t: f64) -> f64 {
        let (ts, vs) = (&self.wave.ts, &self.wave.vs);
        let last = ts.len() - 1;
        if t <= ts[0] {
            return vs[0];
        }
        if t >= ts[last] {
            return vs[last];
        }
        if t < ts[self.seg] {
            self.seg = interp::segment_index(ts, t);
        }
        // `<=` matches `segment_index`'s choice for exact sample hits.
        while ts[self.seg + 1] <= t {
            self.seg += 1;
        }
        let k = self.seg;
        let (t0, t1) = (ts[k], ts[k + 1]);
        let (v0, v1) = (vs[k], vs[k + 1]);
        let frac = (t - t0) / (t1 - t0);
        v0 + frac * (v1 - v0)
    }
}

/// How many samples open `vs` strictly on `vs[0]`'s side of `level`; 0 if
/// `vs[0]` sits on the level or is NaN. The crossing scans skip these.
fn leading_run(vs: &[f64], level: f64) -> usize {
    let Some(on_side) = side_of(vs[0], level) else {
        return 0;
    };
    let mut run = 0;
    for block in vs.chunks_exact(8) {
        // Branch-free: all eight compares, then one test.
        if !block.iter().fold(true, |all, &v| all & on_side(v)) {
            break;
        }
        run += 8;
    }
    run + vs[run..].iter().take_while(|&&v| on_side(v)).count()
}

/// How many samples close `vs` strictly on its last sample's side of
/// `level`: [`leading_run`] from the other end.
fn trailing_run(vs: &[f64], level: f64) -> usize {
    let Some(on_side) = side_of(vs[vs.len() - 1], level) else {
        return 0;
    };
    let mut run = 0;
    for block in vs.rchunks_exact(8) {
        if !block.iter().fold(true, |all, &v| all & on_side(v)) {
            break;
        }
        run += 8;
    }
    run + vs[..vs.len() - run]
        .iter()
        .rev()
        .take_while(|&&v| on_side(v))
        .count()
}

/// The test "`v − level` is nonzero, not NaN and of the sign of
/// `anchor − level`", or `None` when `anchor − level` is zero or NaN.
/// Multiplying by ±1 is exact, so the test reads the scans' own `y`.
fn side_of(anchor: f64, level: f64) -> Option<impl Fn(f64) -> bool> {
    let y = anchor - level;
    let sign = if y > 0.0 {
        1.0
    } else if y < 0.0 {
        -1.0
    } else {
        return None;
    };
    Some(move |v: f64| (v - level) * sign > 0.0)
}

/// The uniform grid of [`Waveform::from_fn`] — `t0 + i·dt`, clipped to
/// `t1` and always ending on it — with room reserved for `extra` more
/// points.
///
/// # Errors
///
/// [`WaveformError::InvalidParameter`] unless `t1 > t0` and `dt > 0`, all
/// finite, or if the grid has too many points to count or allocate.
pub(crate) fn uniform_grid(
    t0: f64,
    t1: f64,
    dt: f64,
    extra: usize,
) -> Result<Vec<f64>, WaveformError> {
    if !(t1 > t0) || !(dt > 0.0) || !t0.is_finite() || !t1.is_finite() || !dt.is_finite() {
        return Err(WaveformError::InvalidParameter(
            "need t1 > t0 and dt > 0, all finite",
        ));
    }
    // `steps + 1` points, one more if the loop stops short of `t1`, and
    // `extra`. The cast saturates, so a grid too fine to count overflows
    // these checked sums.
    let steps = ((t1 - t0) / dt).ceil() as usize;
    let capacity = steps
        .checked_add(2)
        .and_then(|n| n.checked_add(extra))
        .ok_or(WaveformError::InvalidParameter(
            "grid has too many points to count",
        ))?;
    let mut ts = reserved(capacity)?;
    for i in 0..=steps {
        let t = (t0 + i as f64 * dt).min(t1);
        ts.push(t);
        if t >= t1 {
            break;
        }
    }
    if ts.last().is_some_and(|&t| t < t1) {
        ts.push(t1);
    }
    Ok(ts)
}

/// An empty vector with room for `len` samples, or an error instead of an
/// allocation failure.
pub(crate) fn reserved(len: usize) -> Result<Vec<f64>, WaveformError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| WaveformError::InvalidParameter("grid too large to allocate"))?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp01() -> Waveform {
        Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Waveform::new(vec![0.0], vec![0.0]).is_err());
        assert!(Waveform::new(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(Waveform::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(Waveform::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(Waveform::new(vec![0.0, 1.0], vec![0.0, f64::NAN]).is_err());
        assert!(Waveform::new(vec![0.0, f64::INFINITY], vec![0.0, 1.0]).is_err());
        assert!(ramp01().len() == 2);
    }

    #[test]
    fn value_holds_outside_span() {
        let w = ramp01();
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(2.0), 1.0);
        assert!((w.value_at(0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sample_on_grid_matches_value_at() {
        let w = Waveform::new(vec![0.0, 1.0, 2.0, 4.0], vec![0.0, 1.0, 0.5, 0.5]).unwrap();
        let grid: Vec<f64> = (0..50).map(|i| -0.5 + i as f64 * 0.11).collect();
        let mut out = Vec::new();
        w.sample_on_grid(&grid, &mut out);
        assert_eq!(out.len(), grid.len());
        for (&t, &v) in grid.iter().zip(&out) {
            assert_eq!(v, w.value_at(t), "t={t}");
        }
        // Exact sample hits and out-of-span points hold exactly.
        w.sample_on_grid(&[1.0, 2.0, 99.0], &mut out);
        assert_eq!(out, vec![1.0, 0.5, 0.5]);
    }

    #[test]
    fn from_fn_hits_both_endpoints() {
        let w = Waveform::from_fn(0.0, 1.0, 0.3, |t| t).unwrap();
        assert_eq!(w.t_start(), 0.0);
        assert_eq!(w.t_end(), 1.0);
        assert!(w.times().windows(2).all(|p| p[1] > p[0]));
    }

    #[test]
    fn from_fn_rejects_a_grid_it_cannot_count() {
        // 1e300 steps: more points than a usize can count.
        assert!(matches!(
            Waveform::from_fn(0.0, 1.0, 1e-300, |t| t),
            Err(WaveformError::InvalidParameter(_))
        ));
    }

    #[test]
    fn crossings_first_last() {
        // Rise with a dip: crosses 0.5 three times.
        let w =
            Waveform::new(vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![0.0, 0.7, 0.3, 1.0, 1.0]).unwrap();
        let c = w.crossings(0.5);
        assert_eq!(c.len(), 3);
        assert!((w.first_crossing(0.5).unwrap() - 5.0 / 7.0).abs() < 1e-12);
        assert!(w.last_crossing(0.5).unwrap() > 2.0);
        assert!(w.first_crossing(2.0).is_none());
        assert!(matches!(
            w.first_crossing_or_err(2.0),
            Err(WaveformError::NoCrossing { .. })
        ));
    }

    #[test]
    fn polarity_detection() {
        let th = Thresholds::cmos(1.0);
        let rise = ramp01();
        assert_eq!(rise.polarity(th).unwrap(), Polarity::Rise);
        let fall = Waveform::new(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        assert_eq!(fall.polarity(th).unwrap(), Polarity::Fall);
        let flat = Waveform::constant(0.2, 0.0, 1.0).unwrap();
        assert!(flat.polarity(th).is_err());
    }

    #[test]
    fn critical_region_and_slews() {
        let th = Thresholds::cmos(1.0);
        // Monotone rise 0→1 over [0,1]: region = [0.1, 0.9].
        let w = ramp01();
        let (a, b) = w.critical_region(th, Polarity::Rise).unwrap();
        assert!((a - 0.1).abs() < 1e-12 && (b - 0.9).abs() < 1e-12);
        assert!((w.slew_first_to_first(th, Polarity::Rise).unwrap() - 0.8).abs() < 1e-12);
        assert!((w.slew_first_to_last(th, Polarity::Rise).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn noisy_slew_conventions_differ() {
        let th = Thresholds::cmos(1.0);
        // Rise that overshoots 0.9, dips below it, then settles high:
        // first-to-first stops early, first-to-last spans the bump.
        let w = Waveform::new(
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            vec![0.0, 0.5, 0.95, 0.7, 0.95, 1.0],
        )
        .unwrap();
        let s_ff = w.slew_first_to_first(th, Polarity::Rise).unwrap();
        let s_fl = w.slew_first_to_last(th, Polarity::Rise).unwrap();
        assert!(s_fl > s_ff);
    }

    #[test]
    fn shift_map_window() {
        let th = Thresholds::cmos(1.0);
        let w = ramp01().shifted(10.0);
        assert_eq!(w.t_start(), 10.0);
        assert_eq!(w.polarity(th).unwrap(), Polarity::Rise);
        let inv = w.map_values(|v| 1.0 - v).unwrap();
        assert_eq!(inv.polarity(th).unwrap(), Polarity::Fall);
        let win = w.windowed(10.25, 10.75).unwrap();
        assert!((win.v_start() - 0.25).abs() < 1e-12);
        assert!((win.v_end() - 0.75).abs() < 1e-12);
        assert!(w.windowed(5.0, 5.0).is_err());
    }

    #[test]
    fn plus_superposes_on_union_grid() {
        let a = Waveform::new(vec![0.0, 2.0], vec![0.0, 2.0]).unwrap();
        let b = Waveform::new(vec![0.5, 1.5], vec![1.0, 1.0]).unwrap();
        let s = a.plus(&b);
        assert_eq!(s.value_at(1.0), 2.0); // 1.0 + 1.0
        assert_eq!(s.value_at(0.0), 1.0); // 0.0 + held 1.0
        assert!(s.times().windows(2).all(|p| p[1] > p[0]));
    }

    #[test]
    fn derivative_of_line_is_constant() {
        let w = Waveform::from_fn(0.0, 1.0, 0.1, |t| 3.0 * t + 1.0).unwrap();
        let d = w.derivative();
        for &v in d.values() {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn monotonicity_and_integral() {
        let w = ramp01();
        assert!(w.is_monotonic(Polarity::Rise, 0.0));
        assert!(!w.is_monotonic(Polarity::Fall, 0.0));
        assert!((w.integral() - 0.5).abs() < 1e-12);
    }
}
