//! Linear and bilinear interpolation on monotone grids.
//!
//! Waveform sampling, NLDM table lookup and the SGDP voltage-domain mapping
//! all reduce to the primitives in this module.

use crate::NumericError;

/// Returns the index of the last grid point `<= x`, clamped to
/// `[0, grid.len() - 2]` so the result always names a valid segment.
///
/// The grid must be sorted ascending; this is checked by [`validate_grid`]
/// at construction sites rather than on every query.
#[inline]
pub fn segment_index(grid: &[f64], x: f64) -> usize {
    debug_assert!(grid.len() >= 2);
    match grid.binary_search_by(|g| g.total_cmp(&x)) {
        Ok(i) => i.min(grid.len() - 2),
        Err(0) => 0,
        Err(i) => (i - 1).min(grid.len() - 2),
    }
}

/// Checks that a grid is usable for interpolation: at least `min_len`
/// entries, strictly increasing, all finite.
///
/// # Errors
///
/// Returns [`NumericError::InvalidGrid`] describing the violation.
pub fn validate_grid(grid: &[f64], min_len: usize) -> Result<(), NumericError> {
    if grid.len() < min_len {
        return Err(NumericError::InvalidGrid("fewer grid points than required"));
    }
    if grid.iter().any(|v| !v.is_finite()) {
        return Err(NumericError::InvalidGrid("non-finite grid point"));
    }
    if grid.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericError::InvalidGrid("grid not strictly increasing"));
    }
    Ok(())
}

/// Linear interpolation of tabulated `(xs, ys)` at `x`, with linear
/// extrapolation beyond the ends.
///
/// # Panics
///
/// Debug-panics if `xs.len() != ys.len()` or fewer than two points are
/// supplied; callers validate via [`validate_grid`] first.
#[inline]
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    interp1_on(xs, ys, segment_index(xs, x), x)
}

/// Linear interpolation clamped to the table range (no extrapolation):
/// [`interp1_on`] at the segment [`clamped_segment`] finds.
#[inline]
pub fn interp1_clamped(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let (i, x) = clamped_segment(xs, x);
    interp1_on(xs, ys, i, x)
}

/// The first step of [`interp1_clamped`]: `x` clamped to the table range
/// `[xs[0], xs[last]]`, and the segment holding it ([`segment_index`]).
///
/// A caller that must compute the `ys` a lookup reads before it can
/// interpolate takes the two steps apart: `interp1_clamped` then reads
/// `ys` at this segment's two ends and nowhere else, and
/// [`interp1_on`] there returns its result bit for bit.
#[inline]
pub fn clamped_segment(xs: &[f64], x: f64) -> (usize, f64) {
    let x = x.clamp(xs[0], xs[xs.len() - 1]);
    (segment_index(xs, x), x)
}

/// Linear interpolation of `(xs, ys)` at `x` on segment `i`, the line
/// through `(xs[i], ys[i])` and `(xs[i + 1], ys[i + 1])`; it reads no
/// other entry. [`interp1`] is this on `segment_index(xs, x)`.
#[inline]
pub fn interp1_on(xs: &[f64], ys: &[f64], i: usize, x: f64) -> f64 {
    let (x0, x1) = (xs[i], xs[i + 1]);
    let (y0, y1) = (ys[i], ys[i + 1]);
    let t = (x - x0) / (x1 - x0);
    y0 + t * (y1 - y0)
}

/// Bilinear interpolation on a rectangular grid.
///
/// `values` is row-major over `(xs, ys)`: `values[i * ys.len() + j]`
/// corresponds to `(xs[i], ys[j])`. Queries outside the grid extrapolate
/// linearly along each axis (the conventional NLDM behaviour).
///
/// # Panics
///
/// Panics if an axis has fewer than two points, and debug-panics if
/// `values.len() != xs.len() * ys.len()`; callers validate both axes via
/// [`validate_grid`] and the shape once, at construction, rather than on
/// every query.
#[inline]
pub fn bilinear(xs: &[f64], ys: &[f64], values: &[f64], x: f64, y: f64) -> f64 {
    debug_assert_eq!(values.len(), xs.len() * ys.len());
    let i = segment_index(xs, x);
    let j = segment_index(ys, y);
    let (x0, x1) = (xs[i], xs[i + 1]);
    let (y0, y1) = (ys[j], ys[j + 1]);
    let tx = (x - x0) / (x1 - x0);
    let ty = (y - y0) / (y1 - y0);
    let v = |ii: usize, jj: usize| values[ii * ys.len() + jj];
    let a = v(i, j) * (1.0 - tx) + v(i + 1, j) * tx;
    let b = v(i, j + 1) * (1.0 - tx) + v(i + 1, j + 1) * tx;
    a * (1.0 - ty) + b * ty
}

/// Finds all parameter values `x` in `[xs[k], xs[k+1]]` segments where the
/// piecewise-linear curve `(xs, ys)` crosses level `level`.
///
/// Exact grid hits are reported once; a segment lying entirely on the level
/// contributes its left endpoint. Returned crossings are ascending in `x`.
pub fn crossings(xs: &[f64], ys: &[f64], level: f64) -> Vec<f64> {
    debug_assert_eq!(xs.len(), ys.len());
    let mut out = Vec::new();
    if xs.len() < 2 {
        return out;
    }
    for k in 0..xs.len() - 1 {
        let (y0, y1) = (ys[k] - level, ys[k + 1] - level);
        if y0 == 0.0 {
            if out.last().is_none_or(|&last| last < xs[k]) {
                out.push(xs[k]);
            }
        } else if y0 * y1 < 0.0 {
            let t = y0 / (y0 - y1);
            out.push(xs[k] + t * (xs[k + 1] - xs[k]));
        }
    }
    // Trailing endpoint exactly on the level.
    if let (Some(&y_last), Some(&x_last)) = (ys.last(), xs.last()) {
        if y_last == level && out.last().is_none_or(|&last| last < x_last) {
            out.push(x_last);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_index_clamps() {
        let grid = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(segment_index(&grid, -5.0), 0);
        assert_eq!(segment_index(&grid, 0.5), 0);
        assert_eq!(segment_index(&grid, 1.0), 1);
        assert_eq!(segment_index(&grid, 2.7), 2);
        assert_eq!(segment_index(&grid, 99.0), 2);
    }

    #[test]
    fn interp1_reproduces_line() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [1.0, 3.0, 5.0];
        for x in [-1.0, 0.0, 0.25, 1.5, 2.0, 4.0] {
            assert!((interp1(&xs, &ys, x) - (1.0 + 2.0 * x)).abs() < 1e-12);
        }
    }

    #[test]
    fn clamped_interp_stops_at_ends() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        assert_eq!(interp1_clamped(&xs, &ys, -5.0), 0.0);
        assert_eq!(interp1_clamped(&xs, &ys, 5.0), 1.0);
    }

    #[test]
    fn bilinear_matches_plane() {
        // f(x, y) = 2x + 3y + 1 is reproduced exactly by bilinear interp.
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 2.0];
        let mut values = Vec::new();
        for &x in &xs {
            for &y in &ys {
                values.push(2.0 * x + 3.0 * y + 1.0);
            }
        }
        for (x, y) in [(0.5, 1.0), (1.7, 0.3), (2.0, 2.0), (-0.5, 3.0)] {
            let v = bilinear(&xs, &ys, &values, x, y);
            assert!(
                (v - (2.0 * x + 3.0 * y + 1.0)).abs() < 1e-12,
                "at ({x},{y})"
            );
        }
    }

    #[test]
    fn crossings_finds_all() {
        // Triangle wave crossing 0.5 four times.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 1.0, 0.0, 1.0, 0.0];
        let c = crossings(&xs, &ys, 0.5);
        assert_eq!(c.len(), 4);
        let expect = [0.5, 1.5, 2.5, 3.5];
        for (got, want) in c.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn crossings_handles_exact_grid_hits() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.5, 1.0, 0.5];
        let c = crossings(&xs, &ys, 0.5);
        assert_eq!(c, vec![0.0, 2.0]);
    }

    #[test]
    fn validate_grid_rejects_bad_input() {
        assert!(validate_grid(&[], 1).is_err());
        assert!(validate_grid(&[0.0, 0.0], 2).is_err());
        assert!(validate_grid(&[0.0, f64::NAN], 2).is_err());
        assert!(validate_grid(&[1.0, 0.0], 2).is_err());
        assert!(validate_grid(&[0.0, 1.0], 2).is_ok());
    }
}
