//! Closed-form line fitting.
//!
//! Every equivalent-waveform technique in the paper reduces to choosing the
//! two coefficients `(a, b)` of a line `v(t) = a·t + b`. LSF3, WLS5 and
//! SGDP's step 3 each solve a (weighted) least-squares problem whose
//! closed form is [`LineFit`].

use crate::NumericError;

/// Result of fitting the line `y = a·x + b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Slope of the fitted line.
    pub a: f64,
    /// Intercept of the fitted line.
    pub b: f64,
}

impl LineFit {
    /// Ordinary least squares over `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] if the slices differ in length.
    /// * [`NumericError::InsufficientData`] with fewer than 2 points.
    /// * [`NumericError::SingularMatrix`] if all `xs` coincide.
    pub fn least_squares(xs: &[f64], ys: &[f64]) -> Result<Self, NumericError> {
        let w = vec![1.0; xs.len()];
        Self::weighted_least_squares(xs, ys, &w)
    }

    /// Weighted least squares minimizing `Σ w_k (y_k − (a·x_k + b))²`.
    ///
    /// Weights must be non-negative; zero-weight samples are ignored. This is
    /// exactly the WLS5 normal-equation solve when `w_k = ρ_noiseless(t_k)²`.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] if slice lengths differ.
    /// * [`NumericError::InsufficientData`] if fewer than 2 samples carry
    ///   positive weight.
    /// * [`NumericError::SingularMatrix`] if the weighted abscissae are
    ///   degenerate (all effective `xs` equal).
    /// * [`NumericError::NonFinite`] on NaN/inf inputs.
    pub fn weighted_least_squares(
        xs: &[f64],
        ys: &[f64],
        ws: &[f64],
    ) -> Result<Self, NumericError> {
        if xs.len() != ys.len() {
            return Err(NumericError::ShapeMismatch {
                got: ys.len(),
                expected: xs.len(),
            });
        }
        if xs.len() != ws.len() {
            return Err(NumericError::ShapeMismatch {
                got: ws.len(),
                expected: xs.len(),
            });
        }
        let mut effective = 0usize;
        // Shift the abscissa origin to the weighted mean for conditioning:
        // raw times are ~1e-9 s, so x² sums would otherwise lose precision.
        let (mut sw, mut swx, mut swy) = (0.0, 0.0, 0.0);
        for ((&x, &y), &w) in xs.iter().zip(ys).zip(ws) {
            if !(x.is_finite() && y.is_finite() && w.is_finite()) {
                return Err(NumericError::NonFinite("fit samples"));
            }
            if w > 0.0 {
                effective += 1;
                sw += w;
                swx += w * x;
                swy += w * y;
            }
        }
        if effective < 2 {
            return Err(NumericError::InsufficientData {
                got: effective,
                required: 2,
            });
        }
        let xbar = swx / sw;
        let ybar = swy / sw;
        let (mut sxx, mut sxy) = (0.0, 0.0);
        for ((&x, &y), &w) in xs.iter().zip(ys).zip(ws) {
            if w > 0.0 {
                let dx = x - xbar;
                sxx += w * dx * dx;
                sxy += w * dx * (y - ybar);
            }
        }
        if sxx <= 0.0 {
            return Err(NumericError::SingularMatrix {
                column: 0,
                pivot: sxx,
            });
        }
        let a = sxy / sxx;
        let b = ybar - a * xbar;
        Ok(LineFit { a, b })
    }

    /// Evaluates the fitted line at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.a * x + self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = LineFit::least_squares(&xs, &ys).unwrap();
        assert!((fit.a - 2.5).abs() < 1e-12);
        assert!((fit.b + 1.0).abs() < 1e-12);
        assert!((fit.eval(4.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_fit_ignores_zero_weight_outliers() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 2.0, 100.0];
        let ws = [1.0, 1.0, 1.0, 0.0];
        let fit = LineFit::weighted_least_squares(&xs, &ys, &ws).unwrap();
        assert!((fit.a - 1.0).abs() < 1e-12);
        assert!(fit.b.abs() < 1e-12);
    }

    #[test]
    fn weighted_fit_matches_duplication_semantics() {
        // A weight of 2 must act like duplicating the sample.
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.1, 0.8, 2.2];
        let ws = [1.0, 2.0, 1.0];
        let fit_w = LineFit::weighted_least_squares(&xs, &ys, &ws).unwrap();
        let xs_dup = [0.0, 1.0, 1.0, 2.0];
        let ys_dup = [0.1, 0.8, 0.8, 2.2];
        let fit_d = LineFit::least_squares(&xs_dup, &ys_dup).unwrap();
        assert!((fit_w.a - fit_d.a).abs() < 1e-12);
        assert!((fit_w.b - fit_d.b).abs() < 1e-12);
    }

    #[test]
    fn fit_is_well_conditioned_at_nanosecond_scale() {
        // Times around 1e-9 with picosecond spreads: naive normal equations
        // in raw coordinates lose ~18 digits; the centered form must not.
        let xs: Vec<f64> = (0..35).map(|i| 1.0e-9 + i as f64 * 1.0e-12).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 8.0e9 * (x - 1.0e-9)).collect();
        let fit = LineFit::least_squares(&xs, &ys).unwrap();
        assert!((fit.a - 8.0e9).abs() / 8.0e9 < 1e-9);
    }

    #[test]
    fn degenerate_fits_rejected() {
        assert!(matches!(
            LineFit::least_squares(&[1.0], &[1.0]),
            Err(NumericError::InsufficientData { .. })
        ));
        assert!(matches!(
            LineFit::least_squares(&[1.0, 1.0], &[0.0, 2.0]),
            Err(NumericError::SingularMatrix { .. })
        ));
        assert!(LineFit::weighted_least_squares(&[0.0, 1.0], &[0.0, 1.0], &[1.0]).is_err());
        assert!(LineFit::least_squares(&[0.0, f64::NAN], &[0.0, 1.0]).is_err());
    }
}
