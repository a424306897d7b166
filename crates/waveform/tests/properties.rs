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

/// The early-exit scans return exactly what their `crossings()`
/// definitions return, bit for bit, on records full of exact hits.
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
        let w = record_with_hits(&mut rng, &levels);
        for level in levels {
            let all = w.crossings(level);
            let bits = |t: Option<f64>| t.map(f64::to_bits);
            assert_eq!(
                bits(w.first_crossing(level)),
                bits(all.first().copied()),
                "case {case}, level {level}: first of {all:?}"
            );
            assert_eq!(
                bits(w.last_crossing(level)),
                bits(all.last().copied()),
                "case {case}, level {level}: last of {all:?}"
            );
        }
        for polarity in [Polarity::Rise, Polarity::Fall] {
            let (start, end) = th.slew_levels(polarity);
            let expected = w.crossings(start).first().and_then(|&t0| {
                w.crossings(end)
                    .into_iter()
                    .find(|&t| t >= t0)
                    .map(|t1| t1 - t0)
            });
            let got = w.slew_first_to_first(th, polarity).ok();
            assert_eq!(
                got.map(f64::to_bits),
                expected.map(f64::to_bits),
                "case {case}, {polarity:?}: {got:?} vs {expected:?}"
            );
        }
    }
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
