use crate::NumericError;

/// Dot product with four-way accumulation.
///
/// A strictly left-to-right `f64` sum is one long dependency chain; four
/// independent partial sums let superscalar cores overlap the
/// multiply-adds, which is worth ~4× on the transient hot loop. The
/// summation order is fixed by the input alone — never by thread count or
/// timing — so results stay deterministic.
///
/// Trailing elements beyond the common length of `a` and `b` are ignored.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut rest = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        rest += x * y;
    }
    (s0 + s2) + (s1 + s3) + rest
}

/// A dense, row-major, square-or-rectangular matrix of `f64`.
///
/// Both circuit engines assemble and solve their modified-nodal-analysis
/// systems in sparse form ([`crate::sparse`]): the stamped RC meshes store
/// a few entries per row, so even at the 24 and 27 free nodes of the
/// paper's Figure-1 bench (configurations I and II) an `nf × nf` dense
/// product does about ten times the work of the stored entries
/// (`G_UU` of configuration I stores 60 of 576). Dense matrices remain
/// for small blocks (the linear engine's source-coupling columns), for
/// [`LuFactors`], the partial-pivoting fallback of a sparse factorization
/// that loses a pivot, and for the dense solver backend kept as a parity
/// baseline.
///
/// ```
/// use nsta_numeric::DenseMatrix;
/// # fn main() -> Result<(), nsta_numeric::NumericError> {
/// let mut m = DenseMatrix::zeros(2, 2);
/// m.add(0, 0, 1.0);
/// m.add(1, 1, 2.0);
/// assert_eq!(m.get(1, 1), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] if the rows have differing
    /// lengths, and [`NumericError::InvalidGrid`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericError> {
        let first = rows
            .first()
            .ok_or(NumericError::InvalidGrid("empty row set"))?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(NumericError::ShapeMismatch {
                    got: row.len(),
                    expected: cols,
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to element `(r, c)` — the natural operation for MNA stamps.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Contiguous row `r` as a slice — lets hot loops dot rows against a
    /// vector without per-element bounds checks.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.cols,
            });
        }
        let mut y = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            y[r] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Returns `self + scale * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] on dimension mismatch.
    pub fn add_scaled(&self, other: &DenseMatrix, scale: f64) -> Result<DenseMatrix, NumericError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NumericError::ShapeMismatch {
                got: other.rows * other.cols,
                expected: self.rows * self.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + scale * b)
            .collect::<Vec<_>>();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute entry (∞-norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

/// LU factorization with partial pivoting of a square [`DenseMatrix`].
///
/// Factor once, then solve against many right-hand sides — the transient
/// engines reuse a factorization for every timestep at a fixed step size.
///
/// ```
/// use nsta_numeric::{DenseMatrix, LuFactors};
/// # fn main() -> Result<(), nsta_numeric::NumericError> {
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuFactors::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// let back = a.mul_vec(&x)?;
/// assert!((back[0] - 3.0).abs() < 1e-12 && (back[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Combined L (unit diagonal, below) and U (diagonal and above).
    lu: Vec<f64>,
    /// Row permutation applied during elimination.
    perm: Vec<usize>,
    /// Reciprocals of U's diagonal: back substitution multiplies instead
    /// of dividing, which matters in per-timestep solve loops.
    inv_diag: Vec<f64>,
}

/// Pivots smaller than this are treated as structural singularities.
const PIVOT_TOL: f64 = 1e-300;

impl LuFactors {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] if the matrix is not square.
    /// * [`NumericError::SingularMatrix`] if no usable pivot exists.
    /// * [`NumericError::NonFinite`] if the matrix contains NaN/inf.
    pub fn factor(a: &DenseMatrix) -> Result<Self, NumericError> {
        if a.rows() != a.cols() {
            return Err(NumericError::ShapeMismatch {
                got: a.cols(),
                expected: a.rows(),
            });
        }
        let n = a.rows();
        let mut lu = a.data.clone();
        if lu.iter().any(|v| !v.is_finite()) {
            return Err(NumericError::NonFinite("matrix entries"));
        }
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: choose the largest magnitude in column k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let cand = lu[r * n + k].abs();
                if cand > best {
                    best = cand;
                    p = r;
                }
            }
            if best < PIVOT_TOL {
                return Err(NumericError::SingularMatrix {
                    column: k,
                    pivot: best,
                });
            }
            if p != k {
                perm.swap(p, k);
                for c in 0..n {
                    lu.swap(p * n + c, k * n + c);
                }
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        lu[r * n + c] -= factor * lu[k * n + c];
                    }
                }
            }
        }
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / lu[i * n + i]).collect();
        Ok(LuFactors {
            n,
            lu,
            perm,
            inv_diag,
        })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation applied during factorization: row `i` of the
    /// factored system corresponds to row `perm()[i]` of the original
    /// matrix. Callers that assemble right-hand sides row by row can write
    /// them directly in permuted order and use
    /// [`LuFactors::solve_prepermuted_in_place`], skipping the permutation
    /// copy of [`LuFactors::solve`].
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A·x = b` in place, where `x` already holds `b` *in permuted
    /// order* (`x[i] = b[perm()[i]]`).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] if `x.len() != self.dim()`.
    pub fn solve_prepermuted_in_place(&self, x: &mut [f64]) -> Result<(), NumericError> {
        if x.len() != self.n {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.n,
            });
        }
        self.solve_permuted_in_place(x);
        Ok(())
    }

    /// Solves `A·x = b` for `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        if b.len() != self.n {
            return Err(NumericError::ShapeMismatch {
                got: b.len(),
                expected: self.n,
            });
        }
        let mut x = vec![0.0; self.n];
        for i in 0..self.n {
            x[i] = b[self.perm[i]];
        }
        self.solve_permuted_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A·x = b` writing the solution back into `b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), NumericError> {
        let x = self.solve(b)?;
        b.copy_from_slice(&x);
        Ok(())
    }

    /// Solves `A·x = b` into a caller-provided buffer without allocating —
    /// the transient steppers call this once per timestep.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] if `b.len()` or `x.len()`
    /// differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericError> {
        if b.len() != self.n || x.len() != self.n {
            return Err(NumericError::ShapeMismatch {
                got: b.len().min(x.len()),
                expected: self.n,
            });
        }
        for i in 0..self.n {
            x[i] = b[self.perm[i]];
        }
        self.solve_permuted_in_place(x);
        Ok(())
    }

    fn solve_permuted_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let row = &self.lu[i * n..i * n + i];
            x[i] -= dot(row, &x[..i]);
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = &self.lu[i * n + i + 1..(i + 1) * n];
            let sum = x[i] - dot(row, &x[i + 1..]);
            x[i] = sum * self.inv_diag[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let a = DenseMatrix::identity(4);
        let lu = LuFactors::factor(&a).unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = lu.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match LuFactors::factor(&a) {
            Err(NumericError::SingularMatrix { column, .. }) => assert_eq!(column, 1),
            other => panic!("expected singular matrix, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            LuFactors::factor(&a),
            Err(NumericError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut a = DenseMatrix::identity(2);
        a.set(0, 1, f64::NAN);
        assert!(matches!(
            LuFactors::factor(&a),
            Err(NumericError::NonFinite(_))
        ));
    }

    #[test]
    fn random_systems_round_trip() {
        // Deterministic pseudo-random fill; checks A·x == b to tight tolerance.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1usize, 2, 5, 17, 40] {
            let mut a = DenseMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, next());
                }
                // Diagonal dominance keeps the condition number tame.
                a.add(r, r, 2.0 * n as f64);
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let lu = LuFactors::factor(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let back = a.mul_vec(&x).unwrap();
            for (bi, yi) in b.iter().zip(back) {
                assert!((bi - yi).abs() < 1e-9, "n={n} residual too large");
            }
        }
    }

    #[test]
    fn dot_matches_naive_sum() {
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.25).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (dot(&a, &b) - naive).abs() < 1e-12 * naive.abs().max(1.0),
                "n={n}"
            );
        }
        // Length mismatch uses the common prefix.
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[10.0]), 10.0);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 0.5, -1.0], &[1.0, 1.0, 4.0]])
            .unwrap();
        let lu = LuFactors::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let via_solve = lu.solve(&b).unwrap();
        let mut x = [0.0; 3];
        lu.solve_into(&b, &mut x).unwrap();
        assert_eq!(x.to_vec(), via_solve);
        let mut short = [0.0; 2];
        assert!(lu.solve_into(&b, &mut short).is_err());
        assert!(lu.solve_into(&b[..2], &mut x).is_err());
    }

    #[test]
    fn row_returns_contiguous_slice() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(0), &[1.0, 2.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn add_scaled_and_mul_vec() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.add_scaled(&b, 2.0).unwrap();
        assert_eq!(c.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 3.0]);
        assert_eq!(c.max_abs(), 2.0);
    }
}
