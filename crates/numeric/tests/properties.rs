//! Property-style tests of the numeric kernels.
//!
//! The workspace builds offline, so instead of a property-testing framework
//! these run each invariant over a deterministic seeded sweep of inputs.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_numeric::interp;
use nsta_numeric::{dot, ChunkedRows, DenseMatrix, LineFit, LuFactors, TripletMatrix};

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

    fn vec(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.range(lo, hi)).collect()
    }
}

/// Interpolation reproduces the tabulated points exactly.
#[test]
fn interp_hits_knots() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..128 {
        let n = rng.usize_range(2, 20);
        let ys = rng.vec(-10.0, 10.0, n);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for (x, y) in xs.iter().zip(&ys) {
            let v = interp::interp1(&xs, &ys, *x);
            assert!((v - y).abs() < 1e-12);
        }
    }
}

/// Interpolation is monotone between adjacent knots for monotone data.
#[test]
fn interp_preserves_monotonicity() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..128 {
        let n = rng.usize_range(3, 15);
        let mut ys = rng.vec(0.0, 10.0, n);
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut prev = f64::NEG_INFINITY;
        for k in 0..100 {
            let x = (n - 1) as f64 * k as f64 / 99.0;
            let v = interp::interp1(&xs, &ys, x);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }
}

/// Bilinear interpolation is exact on affine surfaces.
#[test]
fn bilinear_reproduces_planes() {
    let mut rng = Rng::new(0xCAFE);
    for _ in 0..128 {
        let a = rng.range(-3.0, 3.0);
        let b = rng.range(-3.0, 3.0);
        let c = rng.range(-3.0, 3.0);
        let x = rng.range(-1.0, 4.0);
        let y = rng.range(-1.0, 4.0);
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 2.0];
        let mut values = Vec::new();
        for &xi in &xs {
            for &yi in &ys {
                values.push(a * xi + b * yi + c);
            }
        }
        let v = interp::bilinear(&xs, &ys, &values, x, y);
        assert!((v - (a * x + b * y + c)).abs() < 1e-10);
    }
}

/// Weighted least squares with uniform weights equals plain least squares.
#[test]
fn uniform_weights_match_ols() {
    let mut rng = Rng::new(0xD00D);
    for _ in 0..128 {
        let n = rng.usize_range(3, 25);
        let ys = rng.vec(-5.0, 5.0, n);
        let w = rng.range(0.1, 10.0);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ws = vec![w; n];
        let plain = LineFit::least_squares(&xs, &ys).expect("fit");
        let weighted = LineFit::weighted_least_squares(&xs, &ys, &ws).expect("fit");
        assert!((plain.a - weighted.a).abs() < 1e-9);
        assert!((plain.b - weighted.b).abs() < 1e-9);
    }
}

/// The fitted line passes through the (weighted) centroid.
#[test]
fn fit_passes_through_centroid() {
    let mut rng = Rng::new(0xFEED);
    for _ in 0..128 {
        let n = rng.usize_range(3, 25);
        let ys = rng.vec(-5.0, 5.0, n);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let fit = LineFit::least_squares(&xs, &ys).expect("fit");
        let xbar = xs.iter().sum::<f64>() / xs.len() as f64;
        let ybar = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((fit.eval(xbar) - ybar).abs() < 1e-9);
    }
}

/// LU: solving against the identity recovers matrix columns (A·A⁻¹ = I).
#[test]
fn lu_inverse_columns() {
    let mut rng = Rng::new(0x1DEA);
    for _ in 0..64 {
        let n = rng.usize_range(2, 8);
        let mut a = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, rng.range(-0.5, 0.5));
            }
            a.add(r, r, 2.0 * n as f64);
        }
        let lu = LuFactors::factor(&a).expect("dominant");
        for col in 0..n {
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            let x = lu.solve(&e).expect("solve");
            let back = a.mul_vec(&x).expect("shape");
            for (i, v) in back.iter().enumerate() {
                let want = if i == col { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-9);
            }
        }
    }
}

/// `ChunkedRows::dot_into` equals `dot` on each densified row bit for bit:
/// widths of every residue mod 4 (0 to 13 columns), empty rows, explicit
/// zeros, `-0.0` entries, `±0.0` and exactly cancelling terms in `x`, so a
/// partial sum meets `+0.0`, `-0.0` and exact cancellation.
#[test]
fn chunked_rows_dot_equals_dense_dot() {
    let mut rng = Rng::new(0xD07);
    // Few distinct magnitudes, so products cancel exactly now and then.
    let pick = |rng: &mut Rng| match rng.usize_range(0, 6) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => 0.5,
        _ => rng.range(-3.0, 3.0),
    };
    for case in 0..4000 {
        let (rows, cols) = (rng.usize_range(0, 6), case % 14);
        let mut t = TripletMatrix::new(rows, cols);
        for r in 0..rows {
            if rng.next_unit() < 0.2 {
                continue; // an empty row
            }
            for c in 0..cols {
                if rng.next_unit() < 0.5 {
                    t.add(r, c, pick(&mut rng));
                }
            }
        }
        let mut a = t.to_csr();
        // Assembly sums from +0.0, so a stored -0.0 is set directly.
        for v in a.values_mut() {
            if *v == 0.0 && rng.next_unit() < 0.5 {
                *v = -0.0;
            }
        }
        let x: Vec<f64> = (0..cols).map(|_| pick(&mut rng)).collect();
        let mut y = vec![f64::NAN; rows];
        ChunkedRows::new(&a).dot_into(&x, &mut y).expect("shapes");
        for (r, got) in y.iter().enumerate() {
            let mut dense = vec![0.0; cols];
            let (cs, vs) = a.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                dense[c] = v;
            }
            let want = dot(&dense, &x);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}, row {r}");
        }
    }
    let a = TripletMatrix::new(2, 3).to_csr();
    let rows = ChunkedRows::new(&a);
    assert!(rows.dot_into(&[0.0; 2], &mut [0.0; 2]).is_err());
    assert!(rows.dot_into(&[0.0; 3], &mut [0.0; 3]).is_err());
}
