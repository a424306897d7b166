//! Property-style tests of the waveform algebra.
//!
//! The workspace builds offline, so instead of a property-testing framework
//! these run each invariant over a deterministic seeded sweep of inputs.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_waveform::{metrics, Polarity, SaturatedRamp, Thresholds, Waveform};

/// Deterministic xorshift64 sampler shared by the sweeps below.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_unit()
    }

    fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_unit() * (hi - lo) as f64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next_unit() < 0.5
    }

    /// A random `(t50, slew, rising)` ramp descriptor in SI units.
    fn ramp(&mut self) -> (f64, f64, bool) {
        (
            self.range(300.0, 2500.0) * 1e-12,
            self.range(30.0, 600.0) * 1e-12,
            self.bool(),
        )
    }
}

/// Shifting a waveform shifts every crossing by exactly the shift.
#[test]
fn crossings_shift_with_waveform() {
    let mut rng = Rng::new(0x51f7);
    let th = Thresholds::cmos(1.2);
    for _ in 0..128 {
        let (t50, slew, rising) = rng.ramp();
        let dt = rng.range(-500.0, 500.0) * 1e-12;
        let g = SaturatedRamp::with_slew(t50, slew, th, rising).expect("ramp");
        let w = g
            .to_waveform(t50 - 2.0 * slew, t50 + 2.0 * slew, slew / 30.0)
            .expect("wave");
        let shifted = w.shifted(dt);
        for level in [th.low(), th.mid(), th.high()] {
            let a = w.crossings(level);
            let b = shifted.crossings(level);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((y - x - dt).abs() < 1e-15 + 1e-9 * dt.abs());
            }
        }
    }
}

/// `value_at` is bounded by the sample extremes (linear interpolation
/// cannot overshoot).
#[test]
fn interpolation_never_overshoots() {
    let mut rng = Rng::new(0x0E3);
    for _ in 0..128 {
        let n = rng.usize_range(2, 40);
        let samples: Vec<f64> = (0..n).map(|_| rng.range(-2.0, 2.0)).collect();
        let query = rng.range(-1.0, 2.0);
        let ts: Vec<f64> = (0..n).map(|i| i as f64 * 0.1e-9).collect();
        let w = Waveform::new(ts, samples.clone()).expect("wave");
        let v = w.value_at(query * 1e-9);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}

/// Superposition is commutative at sample points.
#[test]
fn plus_is_commutative() {
    let mut rng = Rng::new(0xADD);
    for _ in 0..128 {
        let a_vals: Vec<f64> = (0..rng.usize_range(3, 12))
            .map(|_| rng.range(0.0, 1.2))
            .collect();
        let b_vals: Vec<f64> = (0..rng.usize_range(3, 12))
            .map(|_| rng.range(0.0, 1.2))
            .collect();
        let mk = |vals: &[f64], offset: f64| {
            let ts: Vec<f64> = (0..vals.len())
                .map(|i| offset + i as f64 * 0.07e-9)
                .collect();
            Waveform::new(ts, vals.to_vec()).expect("wave")
        };
        let a = mk(&a_vals, 0.0);
        let b = mk(&b_vals, 0.03e-9);
        let ab = a.plus(&b);
        let ba = b.plus(&a);
        for k in 0..60 {
            let t = -0.1e-9 + k as f64 * 0.02e-9;
            assert!((ab.value_at(t) - ba.value_at(t)).abs() < 1e-12);
        }
    }
}

/// The integral is additive over superposition.
#[test]
fn integral_is_linear() {
    let mut rng = Rng::new(0x171);
    for _ in 0..128 {
        let n = rng.usize_range(4, 10);
        let a_vals: Vec<f64> = (0..n).map(|_| rng.range(0.0, 1.0)).collect();
        let ts: Vec<f64> = (0..n).map(|i| i as f64 * 0.1e-9).collect();
        let a = Waveform::new(ts, a_vals).expect("wave");
        let doubled = a.plus(&a);
        assert!((doubled.integral() - 2.0 * a.integral()).abs() < 1e-18);
    }
}

/// A monotone rising record has exactly one crossing per interior level.
#[test]
fn monotone_rise_has_single_crossings() {
    let mut rng = Rng::new(0x2150);
    let th = Thresholds::cmos(1.2);
    for _ in 0..128 {
        let (t50, slew, _) = rng.ramp();
        let g = SaturatedRamp::with_slew(t50, slew, th, true).expect("ramp");
        let w = g
            .to_waveform(t50 - 2.0 * slew, t50 + 2.0 * slew, slew / 25.0)
            .expect("wave");
        assert!(w.is_monotonic(Polarity::Rise, 1e-12));
        for frac in [0.2, 0.5, 0.8] {
            assert_eq!(w.crossings(frac * 1.2).len(), 1, "level {frac}");
        }
    }
}

/// Band area is monotone in the band's upper level.
#[test]
fn band_area_monotone_in_levels() {
    let mut rng = Rng::new(0xA3EA);
    let th = Thresholds::cmos(1.2);
    for _ in 0..128 {
        let (t50, slew, rising) = rng.ramp();
        let g = SaturatedRamp::with_slew(t50, slew, th, rising).expect("ramp");
        let w = g
            .to_waveform(t50 - 2.0 * slew, t50 + 2.0 * slew, slew / 25.0)
            .expect("wave");
        let (t0, t1) = (w.t_start(), w.t_end());
        let a_small = metrics::band_area(&w, t0, t1, 0.0, 0.6).expect("area");
        let a_large = metrics::band_area(&w, t0, t1, 0.0, 1.2).expect("area");
        assert!(a_large >= a_small - 1e-18);
    }
}

/// A random record whose samples often sit exactly on one of `levels`:
/// single hits, flat runs at a level and, half the time, a last sample on
/// one — the three exact-hit branches of `nsta_numeric::interp::crossings`.
/// The other samples wander across every level.
fn record_with_hits(rng: &mut Rng, levels: &[f64]) -> Waveform {
    let n = rng.usize_range(2, 48);
    let level = |rng: &mut Rng| levels[rng.usize_range(0, levels.len())];
    let mut vs = Vec::with_capacity(n + 4);
    while vs.len() < n {
        let draw = rng.next_unit();
        if draw < 0.2 {
            vs.push(level(rng));
        } else if draw < 0.3 {
            let at = level(rng);
            let run = rng.usize_range(2, 5);
            vs.extend(std::iter::repeat_n(at, run));
        } else {
            vs.push(rng.range(-0.3, 1.5));
        }
    }
    vs.truncate(n);
    if rng.bool() {
        vs[n - 1] = level(rng);
    }
    let mut t = rng.range(-2.0, 2.0) * 1e-9;
    let ts = (0..n)
        .map(|_| {
            t += rng.range(0.01, 1.0) * 1e-12;
            t
        })
        .collect();
    Waveform::new(ts, vs).expect("valid record")
}

/// A random record built like a golden transient: a same-side run of
/// 0–70 samples, a few samples from [`record_with_hits`]'s mix, and another
/// run. Each run holds its values in a narrow band drawn anywhere across
/// the levels, so a run is strictly on one side of most levels and sits on
/// or straddles the others; run lengths are rarely a multiple of eight.
fn record_with_runs(rng: &mut Rng, levels: &[f64]) -> Waveform {
    let run = |rng: &mut Rng| {
        let band = rng.range(-0.3, 1.5);
        let len = rng.usize_range(0, 71);
        (0..len)
            .map(|_| band + rng.range(0.0, 0.02))
            .collect::<Vec<_>>()
    };
    let mut vs = run(rng);
    let middle = record_with_hits(rng, levels);
    let keep = rng.usize_range(0, 12).min(middle.len());
    vs.extend_from_slice(&middle.values()[..keep]);
    vs.extend(run(rng));
    while vs.len() < 2 {
        vs.push(rng.range(-0.3, 1.5));
    }
    let mut t = rng.range(-2.0, 2.0) * 1e-9;
    let ts = vs
        .iter()
        .map(|_| {
            t += rng.range(0.01, 1.0) * 1e-12;
            t
        })
        .collect();
    Waveform::new(ts, vs).expect("valid record")
}

/// Asserts that every early-exit scan of `w` returns what its
/// `crossings()` definition returns, bit for bit: `first_crossing`,
/// `last_crossing` and `first_crossing_from` at each of `levels`, and
/// `critical_region` and `slew_first_to_first` at `th`'s slew levels.
///
/// The forward definitions take the first entry *at or after* a time,
/// which a NaN entry never is. Only a record holding infinite samples has
/// one (an interpolated time `inf / inf`); on any other record the first
/// entry at or after `-inf` is simply the first.
fn assert_scans_match_definitions(w: &Waveform, th: Thresholds, levels: &[f64], what: &str) {
    let bits = |t: Option<f64>| t.map(f64::to_bits);
    let from = |all: &[f64], t_min: f64| all.iter().copied().find(|&t| t >= t_min);
    for &level in levels {
        let all = w.crossings(level);
        if w.values().iter().all(|v| v.is_finite()) {
            assert_eq!(from(&all, f64::NEG_INFINITY), all.first().copied());
        }
        assert_eq!(
            bits(w.first_crossing(level)),
            bits(from(&all, f64::NEG_INFINITY)),
            "{what}, level {level}: first of {all:?}"
        );
        assert_eq!(
            bits(w.last_crossing(level)),
            bits(all.last().copied()),
            "{what}, level {level}: last of {all:?}"
        );
        // From every sample time and every crossing, and just past each.
        let starts = w.times().iter().chain(&all).flat_map(|&t| [t, t + 1e-15]);
        for t_min in starts {
            assert_eq!(
                bits(w.first_crossing_from(level, t_min)),
                bits(from(&all, t_min)),
                "{what}, level {level}: first from {t_min:e} of {all:?}"
            );
        }
    }
    for polarity in [Polarity::Rise, Polarity::Fall] {
        let (start, end) = th.slew_levels(polarity);
        let first_start = from(&w.crossings(start), f64::NEG_INFINITY);
        let ends = w.crossings(end);
        let expected = first_start.and_then(|t0| from(&ends, t0).map(|t1| t1 - t0));
        let got = w.slew_first_to_first(th, polarity).ok();
        assert_eq!(
            bits(got),
            bits(expected),
            "{what}, {polarity:?}: slew {got:?} vs {expected:?}"
        );
        let expected = match (first_start, ends.last()) {
            (Some(a), Some(&b)) if !(b <= a) => Some((a, b)),
            _ => None,
        };
        let got = w.critical_region(th, polarity).ok();
        let pair = |r: Option<(f64, f64)>| r.map(|(a, b)| (a.to_bits(), b.to_bits()));
        assert_eq!(
            pair(got),
            pair(expected),
            "{what}, {polarity:?}: region {got:?} vs {expected:?}"
        );
    }
}

/// A record on a 1 ps grid from 0 with the given samples.
fn record(vs: Vec<f64>) -> Waveform {
    let ts = (0..vs.len()).map(|k| k as f64 * 1e-12).collect();
    Waveform::new(ts, vs).expect("valid record")
}

/// The early-exit scans return exactly what their `crossings()`
/// definitions return, bit for bit, on records full of exact hits and on
/// records whose long same-side runs the scans fast-forward over.
#[test]
fn early_exit_crossings_equal_their_definitions() {
    let th = Thresholds::cmos(1.2);
    let mut rng = Rng::new(0xC0551);
    for case in 0..3000 {
        let levels = [
            th.low(),
            th.mid(),
            th.high(),
            0.0,
            th.vdd(),
            rng.range(-0.2, 1.4),
        ];
        let w = if case % 2 == 0 {
            record_with_hits(&mut rng, &levels)
        } else {
            record_with_runs(&mut rng, &levels)
        };
        assert_scans_match_definitions(&w, th, &levels, &format!("case {case}"));
    }

    // Records the fast-forward must stop exactly on, each scanned at the
    // slew levels, 0, Vdd and NaN.
    let levels = [th.low(), th.mid(), th.high(), 0.0, th.vdd(), f64::NAN];
    let (lo, mid, hi) = (th.low(), th.mid(), th.high());
    let rise = |pre: usize, post: usize| {
        let mut vs = vec![0.0; pre];
        vs.extend([0.05, 0.3, mid, 0.9, 1.15]);
        vs.extend(vec![1.2; post]);
        vs
    };
    let mut records = Vec::new();
    // Same-side runs longer than one block, mostly not multiples of 8,
    // before and after a transition.
    for pre in [1, 7, 8, 9, 13, 16, 17, 23, 31, 37, 64, 65] {
        for post in [1, 8, 9, 15, 29] {
            records.push((format!("rise {pre}+{post}"), rise(pre, post)));
            let fall = rise(pre, post).iter().map(|v| 1.2 - v).collect();
            records.push((format!("fall {pre}+{post}"), fall));
        }
    }
    // An exact hit right after a run, at each end.
    records.push((
        "hit after run".into(),
        [vec![0.0; 19], vec![lo, 0.5, hi], vec![1.2; 21]].concat(),
    ));
    records.push((
        "hit before run".into(),
        [vec![0.0; 21], vec![0.5, hi], vec![1.2; 19]].concat(),
    ));
    records.push((
        "flat hit after run".into(),
        [vec![0.0; 11], vec![mid; 4], vec![1.2; 11]].concat(),
    ));
    // The level on the first or the last sample.
    records.push((
        "starts on low".into(),
        [vec![lo], vec![0.0; 12], vec![1.2; 12]].concat(),
    ));
    records.push((
        "ends on high".into(),
        [vec![0.0; 12], vec![1.2; 12], vec![hi]].concat(),
    ));
    records.push((
        "starts on 0".into(),
        [vec![0.0; 10], vec![1.2; 10]].concat(),
    ));
    records.push((
        "ends on vdd".into(),
        [vec![0.0; 10], vec![1.2; 10]].concat(),
    ));
    // Sign changes whose product underflows to -0.0 at level 0, which
    // `crossings` counts as no crossing, after and before long runs.
    let tiny = 1e-200;
    records.push((
        "underflow only".into(),
        [vec![tiny; 12], vec![-tiny; 12]].concat(),
    ));
    records.push((
        "underflow then crossing".into(),
        [vec![tiny; 20], vec![-tiny; 15], vec![0.5; 10]].concat(),
    ));
    records.push((
        "crossing then underflow".into(),
        [vec![-0.5; 10], vec![tiny; 15], vec![-tiny; 20]].concat(),
    ));
    // A transition in the last block and in the first.
    records.push((
        "transition last".into(),
        [vec![0.0; 37], vec![0.4, 0.8, 1.2]].concat(),
    ));
    records.push((
        "transition first".into(),
        [vec![0.0, 0.4, 0.8], vec![1.2; 37]].concat(),
    ));
    records.push((
        "crossing on last sample".into(),
        [vec![0.0; 23], vec![mid]].concat(),
    ));
    records.push((
        "crossing on first sample".into(),
        [vec![mid], vec![1.2; 23]].concat(),
    ));
    for (what, vs) in records {
        assert_scans_match_definitions(&record(vs), th, &levels, &what);
    }

    // NaN and infinite samples: `Waveform::new` rejects them, but the
    // derivative of a sum that overflows holds both. Runs of finite
    // slopes surround them.
    let huge = [
        vec![0.0; 10],
        vec![1e308; 6],
        vec![0.5; 10],
        vec![1e308; 3],
        vec![0.0; 9],
    ]
    .concat();
    let sum = record(huge.clone()).plus(&record(huge));
    let slopes = sum.derivative();
    assert!(slopes.values().iter().any(|v| v.is_nan()));
    assert!(slopes.values().iter().any(|v| v.is_infinite()));
    let slope_levels = [0.0, 1e12, -1e12, f64::NAN, f64::INFINITY];
    assert_scans_match_definitions(&slopes, th, &slope_levels, "slopes");
    for k in [0, 1, 9, 12] {
        let tail = Waveform::new(slopes.times()[k..].to_vec(), slopes.values()[k..].to_vec());
        // Only finite records construct; the others are covered above.
        if let Ok(w) = tail {
            assert_scans_match_definitions(&w, th, &slope_levels, "slope tail");
        }
    }
    let starts_nan = record([vec![1e308; 3], vec![0.0; 12]].concat());
    let w = starts_nan.plus(&starts_nan).derivative();
    assert!(w.v_start().is_nan(), "{:?}", w.values());
    assert_scans_match_definitions(&w, th, &slope_levels, "starts on NaN");
}

/// `sample_on_grid` on an ascending grid that starts inside the record
/// (and may run past its end) equals `value_at` bit for bit.
#[test]
fn sample_on_grid_equals_value_at_from_inside_the_record() {
    let th = Thresholds::cmos(1.2);
    let levels = [th.low(), th.mid(), th.high()];
    let mut rng = Rng::new(0x6121D);
    let mut out = Vec::new();
    for case in 0..1000 {
        let w = record_with_hits(&mut rng, &levels);
        let span = w.t_end() - w.t_start();
        let mut t = w.t_start() + rng.range(0.0, 1.0) * span;
        let mut grid = Vec::new();
        for _ in 0..rng.usize_range(1, 80) {
            grid.push(t);
            // Some repeats and some exact sample times.
            t = match rng.usize_range(0, 4) {
                0 => t,
                1 => w.times()[rng.usize_range(0, w.len())].max(t),
                _ => t + rng.range(0.0, 0.1) * span,
            };
        }
        w.sample_on_grid(&grid, &mut out);
        assert_eq!(out.len(), grid.len());
        for (&t, &v) in grid.iter().zip(&out) {
            assert_eq!(v.to_bits(), w.value_at(t).to_bits(), "case {case}, t={t:e}");
        }
    }
}

/// A `Sampler` equals `value_at` bit for bit in any query order: walking
/// forward through ascending runs (repeats and exact sample times
/// included) and finding its segment again after a step back.
#[test]
fn sampler_equals_value_at_in_any_order() {
    let th = Thresholds::cmos(1.2);
    let levels = [th.low(), th.mid(), th.high()];
    let mut rng = Rng::new(0x5A3B1E);
    for case in 0..1000 {
        let w = record_with_hits(&mut rng, &levels);
        let span = w.t_end() - w.t_start();
        let mut t = w.t_start() + rng.range(-0.2, 1.2) * span;
        let mut sampler = w.sampler(t);
        for _ in 0..rng.usize_range(1, 80) {
            let v = sampler.value_at(t);
            assert_eq!(v.to_bits(), w.value_at(t).to_bits(), "case {case}, t={t:e}");
            t = match rng.usize_range(0, 5) {
                0 => t,
                1 => w.times()[rng.usize_range(0, w.len())],
                2 => t - rng.range(0.0, 0.3) * span,
                _ => t + rng.range(0.0, 0.1) * span,
            };
        }
    }
}

/// `SaturatedRamp::to_waveform` in two steps, the reference for the
/// one-pass construction: the `from_fn` grid sampled, then copied, given
/// the rail breakpoints and re-evaluated.
fn to_waveform_reference(g: &SaturatedRamp, t0: f64, t1: f64, dt: f64) -> Waveform {
    let n = ((t1 - t0) / dt).ceil() as usize + 1;
    let mut ts = Vec::with_capacity(n);
    for i in 0..n {
        let t = (t0 + i as f64 * dt).min(t1);
        ts.push(t);
        if t >= t1 {
            break;
        }
    }
    if ts.last().is_some_and(|&t| t < t1) {
        ts.push(t1);
    }
    for brk in [g.t_rail_departure(), g.t_rail_arrival()] {
        if brk > t0 && brk < t1 {
            let pos = ts.partition_point(|&t| t < brk);
            if ts.get(pos).is_none_or(|&t| t != brk) {
                ts.insert(pos, brk);
            }
        }
    }
    let vs = ts.iter().map(|&t| g.value_at(t)).collect();
    Waveform::new(ts, vs).expect("reference waveform")
}

/// The one-pass `to_waveform` builds the same samples as the reference
/// construction, bit for bit, whether the window holds both rail
/// breakpoints, one, or none.
#[test]
fn to_waveform_equals_the_reference_construction() {
    let th = Thresholds::cmos(1.2);
    let mut rng = Rng::new(0x2A3F);
    let check = |case: &str, g: SaturatedRamp, t0: f64, t1: f64, dt: f64| {
        let got = g.to_waveform(t0, t1, dt).expect("wave");
        let want = to_waveform_reference(&g, t0, t1, dt);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.times()), bits(want.times()), "{case}");
        assert_eq!(bits(got.values()), bits(want.values()), "{case}");
    };
    for case in 0..500 {
        let (t50, slew, rising) = rng.ramp();
        let g = SaturatedRamp::with_slew(t50, slew, th, rising).expect("ramp");
        let t0 = t50 + rng.range(-4.0, 1.0) * slew;
        let t1 = t0 + rng.range(0.1, 6.0) * slew;
        let dt = slew * rng.range(0.003, 0.7);
        check(&format!("case {case}"), g, t0, t1, dt);
    }
    // Windows whose last whole step rounds short of `t1`, so the grid
    // appends `t1` after its loop.
    for (t0, t1, dt) in [
        (0.0_f64, 7.7e-11, 1e-12),
        (0.0, 6.925e-10, 5e-13),
        (4.776955143281071e-10, 3.3636955143281075e-09, 2e-12),
    ] {
        assert!(t0 + ((t1 - t0) / dt).ceil() * dt < t1);
        let mid = 0.5 * (t0 + t1);
        for rising in [true, false] {
            let g = SaturatedRamp::with_slew(mid, 0.25 * (t1 - t0), th, rising).expect("ramp");
            check(&format!("window [{t0:e}, {t1:e}] by {dt:e}"), g, t0, t1, dt);
        }
    }
}

/// `metrics::band_area` as it was before it started its walk at `t0`'s
/// segment: every segment of the record is walked.
fn band_area_full_walk(w: &Waveform, t0: f64, t1: f64, v_lo: f64, v_hi: f64) -> f64 {
    let (ts, vs) = (w.times(), w.values());
    let inside = |t: f64| t > t0 && t < t1;
    let mut knots = Vec::with_capacity(ts.len() + 2);
    knots.push(t0);
    for k in 0..ts.len() {
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
    knots.sort_by(f64::total_cmp);
    knots.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON * t1.abs().max(1.0));
    let mut values = Vec::new();
    w.sample_on_grid(&knots, &mut values);
    let clamp = |v: f64| v.clamp(v_lo, v_hi) - v_lo;
    let mut area = 0.0;
    for (t, v) in knots.windows(2).zip(values.windows(2)) {
        area += 0.5 * (clamp(v[0]) + clamp(v[1])) * (t[1] - t[0]);
    }
    area
}

/// A record whose samples sit a few ulps apart in places, so a crossing
/// that rounds past its segment's end can pass the next sample too.
fn record_with_ulp_steps(rng: &mut Rng) -> Waveform {
    let n = rng.usize_range(2, 40);
    let mut t = rng.range(-2.0, 2.0) * 1e-9;
    let mut ts = Vec::with_capacity(n);
    for _ in 0..n {
        ts.push(t);
        t = if rng.next_unit() < 0.5 {
            (0..rng.usize_range(1, 4)).fold(t, |t, _| t.next_up())
        } else {
            t + rng.range(0.01, 1.0) * 1e-12
        };
    }
    let vs = (0..n).map(|_| rng.range(-0.3, 1.5)).collect();
    Waveform::new(ts, vs).expect("valid record")
}

/// `band_area`'s walk from `t0`'s segment to `t1` returns exactly what the
/// walk over the whole record returns, bit for bit (and fails on the same
/// inputs): windows opening before the record, on a sample, an ulp either
/// side of one or between samples, and closing on a sample, past the end
/// or in between, on records with exact level hits, long same-side runs
/// and ulp-spaced samples.
#[test]
fn band_area_walk_from_t0_equals_the_full_walk() {
    let th = Thresholds::cmos(1.2);
    let levels = [th.low(), th.mid(), th.high()];
    let mut rng = Rng::new(0xBA4DA);
    for case in 0..3000 {
        let w = match case % 3 {
            0 => record_with_hits(&mut rng, &levels),
            1 => record_with_runs(&mut rng, &levels),
            _ => record_with_ulp_steps(&mut rng),
        };
        let ts = w.times();
        let span = w.t_end() - w.t_start();
        let sample = |rng: &mut Rng| ts[rng.usize_range(0, ts.len())];
        let nudge = |t: f64, rng: &mut Rng| match rng.usize_range(0, 3) {
            0 => t,
            1 => t.next_up(),
            _ => t.next_down(),
        };
        let t0 = match rng.usize_range(0, 4) {
            0 => w.t_start() - rng.range(0.0, 0.5) * span,
            1 => sample(&mut rng),
            2 => {
                let t = sample(&mut rng);
                nudge(t, &mut rng)
            }
            _ => w.t_start() + rng.range(0.0, 1.0) * span,
        };
        let t1 = match rng.usize_range(0, 4) {
            0 => w.t_end(),
            1 => sample(&mut rng),
            2 => w.t_end() + rng.range(0.0, 0.5) * span,
            _ => t0 + rng.range(0.0, 1.0) * span,
        };
        let (v_lo, v_hi) = match rng.usize_range(0, 3) {
            0 => (th.low(), th.high()),
            1 => (th.mid(), th.high()),
            _ => {
                let lo = rng.range(-0.3, 1.5);
                (lo, lo + rng.range(0.0, 1.0))
            }
        };
        let got = metrics::band_area(&w, t0, t1, v_lo, v_hi);
        if !(t1 > t0 && v_hi > v_lo) {
            assert!(got.is_err(), "case {case}");
            continue;
        }
        let want = band_area_full_walk(&w, t0, t1, v_lo, v_hi);
        assert_eq!(
            got.expect("valid window").to_bits(),
            want.to_bits(),
            "case {case}: t0={t0:e} t1={t1:e} levels=({v_lo}, {v_hi})"
        );
    }

    // A crossing that rounds past its segment's end: segment 0 crosses 0 V
    // at its very end (the fraction rounds to 1), and `t0 + 1·(t1 − t0)`
    // rounds 3 ulps past the sample at its end. With `t0` on that sample,
    // the crossing is a knot inside the window, far enough from `t0` to
    // survive the knot dedup, and the window is short enough that the
    // knot changes the area's rounding: the walk must start a segment
    // before `t0`'s.
    let (ta, tb) = (-3945.198897893299, 912.2364511886664);
    let w = Waveform::new(vec![ta, tb, tb + 1.0], vec![0.5, -1e-30, 0.7]).expect("record");
    let crossing = ta + 0.5 / (0.5 + 1e-30) * (tb - ta);
    assert!(
        crossing > tb,
        "the crossing must round past its segment's end"
    );
    let (t0, t1) = (tb, tb + 1e-12);
    assert_eq!(
        metrics::band_area(&w, t0, t1, 0.0, 1.0)
            .expect("area")
            .to_bits(),
        band_area_full_walk(&w, t0, t1, 0.0, 1.0).to_bits()
    );
}
