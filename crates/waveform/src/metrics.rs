//! Waveform comparison metrics and level-bounded areas.
//!
//! The E4 technique matches the *area* enclosed between the waveform and two
//! horizontal voltage levels; the experiment harness compares waveforms by
//! sampled error norms. Both live here as free functions over [`Waveform`].

use crate::{Waveform, WaveformError};

/// Area between the waveform and the band `[v_lo, v_hi]` over `[t0, t1]`:
/// `∫ (clamp(v(t), v_lo, v_hi) − v_lo) dt`.
///
/// For a rising signal this measures how much of the band the waveform has
/// already traversed; the complementary area (toward `v_hi`) is
/// `(v_hi − v_lo)·(t1 − t0)` minus this value. The E4 slope match equates
/// these areas between the noisy waveform and the candidate line.
///
/// # Errors
///
/// [`WaveformError::InvalidParameter`] if `t1 <= t0` or `v_hi <= v_lo`.
pub fn band_area(
    w: &Waveform,
    t0: f64,
    t1: f64,
    v_lo: f64,
    v_hi: f64,
) -> Result<f64, WaveformError> {
    if !(t1 > t0) {
        return Err(WaveformError::InvalidParameter("band area needs t1 > t0"));
    }
    if !(v_hi > v_lo) {
        return Err(WaveformError::InvalidParameter(
            "band area needs v_hi > v_lo",
        ));
    }
    // Integrate the clamped waveform on a grid refined with the recorded
    // samples plus crossing points of both levels, so the piecewise-linear
    // clamp is integrated exactly. One forward pass builds the grid in
    // order: each sample, then its segment's crossings (the formula of
    // `Waveform::crossings`; an exact hit is the sample itself).
    //
    // Only knots inside (t0, t1) are kept, so the pass covers only the
    // segments that can hold one. A crossing of segment k is never before
    // ts[k] (the fraction is ≥ 0), so the pass stops at the first sample at
    // or past t1. Rounding can put a crossing past its segment's end, by at
    // most ≈4ε·max|t| (the fraction is ≤ 1, and the difference, product and
    // sum each round once), so the pass starts at the first segment ending
    // within twice that of t0, found by binary search.
    let (ts, vs) = (w.times(), w.values());
    let inside = |t: f64| t > t0 && t < t1;
    let slack = 8.0 * f64::EPSILON * ts[0].abs().max(ts[ts.len() - 1].abs());
    let first = ts.partition_point(|&t| t <= t0 - slack).saturating_sub(1);
    let mut knots = Vec::with_capacity(ts.len() - first + 2);
    knots.push(t0);
    for k in first..ts.len() {
        if ts[k] >= t1 {
            break;
        }
        if inside(ts[k]) {
            knots.push(ts[k]);
        }
        let Some(&t_next) = ts.get(k + 1) else { break };
        let crossing = |level: f64| {
            let (y0, y1) = (vs[k] - level, vs[k + 1] - level);
            (y0 * y1 < 0.0).then(|| ts[k] + y0 / (y0 - y1) * (t_next - ts[k]))
        };
        let mut cross = [crossing(v_lo), crossing(v_hi)];
        if let [Some(a), Some(b)] = cross {
            if b < a {
                cross = [Some(b), Some(a)];
            }
        }
        knots.extend(cross.into_iter().flatten().filter(|&t| inside(t)));
    }
    knots.push(t1);
    // Rounding can put a crossing a hair past its segment's end sample;
    // on an ordered grid this sort is one linear check.
    knots.sort_by(f64::total_cmp);
    knots.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON * t1.abs().max(1.0));

    let mut values = Vec::new();
    w.sample_on_grid(&knots, &mut values);
    let clamp = |v: f64| v.clamp(v_lo, v_hi) - v_lo;
    let mut area = 0.0;
    for (t, v) in knots.windows(2).zip(values.windows(2)) {
        area += 0.5 * (clamp(v[0]) + clamp(v[1])) * (t[1] - t[0]);
    }
    Ok(area)
}

/// Root-mean-square voltage difference between two waveforms, sampled at
/// `n` uniform points across the union of their spans.
///
/// # Errors
///
/// [`WaveformError::InvalidParameter`] if `n < 2`.
pub fn rms_difference(a: &Waveform, b: &Waveform, n: usize) -> Result<f64, WaveformError> {
    if n < 2 {
        return Err(WaveformError::InvalidParameter(
            "need at least two sample points",
        ));
    }
    let t0 = a.t_start().min(b.t_start());
    let t1 = a.t_end().max(b.t_end());
    let mut acc = 0.0;
    for k in 0..n {
        let t = t0 + (t1 - t0) * k as f64 / (n - 1) as f64;
        let d = a.value_at(t) - b.value_at(t);
        acc += d * d;
    }
    Ok((acc / n as f64).sqrt())
}

/// Maximum absolute voltage difference sampled at `n` uniform points.
///
/// # Errors
///
/// [`WaveformError::InvalidParameter`] if `n < 2`.
pub fn max_difference(a: &Waveform, b: &Waveform, n: usize) -> Result<f64, WaveformError> {
    if n < 2 {
        return Err(WaveformError::InvalidParameter(
            "need at least two sample points",
        ));
    }
    let t0 = a.t_start().min(b.t_start());
    let t1 = a.t_end().max(b.t_end());
    let mut worst = 0.0f64;
    for k in 0..n {
        let t = t0 + (t1 - t0) * k as f64 / (n - 1) as f64;
        worst = worst.max((a.value_at(t) - b.value_at(t)).abs());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_area_of_step_is_rectangle() {
        // Step at t=1 from 0 to 1; band [0, 1] over [0, 2]: area = 1·(2−1) = 1.
        let w = Waveform::new(vec![0.0, 1.0 - 1e-12, 1.0, 2.0], vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        let a = band_area(&w, 0.0, 2.0, 0.0, 1.0).unwrap();
        assert!((a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn band_area_clamps_overshoot() {
        // Triangle peaking at 2.0 but band is [0, 1]: overshoot must not count.
        let w = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 0.0]).unwrap();
        let a = band_area(&w, 0.0, 2.0, 0.0, 1.0).unwrap();
        // Waveform is above 1.0 for t ∈ [0.5, 1.5] (area 1.0 clamped);
        // below, two triangles of area 0.25 each.
        assert!((a - 1.5).abs() < 1e-9, "area = {a}");
    }

    #[test]
    fn band_area_ramp_half() {
        let w = Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        let a = band_area(&w, 0.0, 1.0, 0.0, 1.0).unwrap();
        assert!((a - 0.5).abs() < 1e-12);
        assert!(band_area(&w, 1.0, 0.0, 0.0, 1.0).is_err());
        assert!(band_area(&w, 0.0, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn differences_are_zero_for_identical() {
        let w = Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        assert_eq!(rms_difference(&w, &w, 100).unwrap(), 0.0);
        assert_eq!(max_difference(&w, &w, 100).unwrap(), 0.0);
        assert!(rms_difference(&w, &w, 1).is_err());
    }

    #[test]
    fn differences_detect_offset() {
        let a = Waveform::constant(0.0, 0.0, 1.0).unwrap();
        let b = Waveform::constant(0.5, 0.0, 1.0).unwrap();
        assert!((rms_difference(&a, &b, 50).unwrap() - 0.5).abs() < 1e-12);
        assert!((max_difference(&a, &b, 50).unwrap() - 0.5).abs() < 1e-12);
    }
}
