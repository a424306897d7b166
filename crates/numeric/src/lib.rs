//! Small, dependency-free numeric kernels shared across the `noisy-sta`
//! workspace.
//!
//! The modified-nodal-analysis systems stamped by the circuit engines are
//! nearly tridiagonal (star-coupled RC lines), so the hot solvers exploit
//! sparsity; the dense kernels remain as the small-system and
//! partial-pivoting fallback:
//!
//! * [`sparse`] — [`TripletMatrix`] assembly, [`CsrMatrix`] storage/mat-vec,
//!   [`ChunkedRows`] (row products summed exactly as [`dot`] sums a dense
//!   row) and the no-pivot [`SparseLu`] with reusable symbolic
//!   factorization.
//!   Elimination is in **natural order without pivoting**, which is valid
//!   exactly for the diagonally dominant stamps the engines produce (see
//!   the module docs for the ordering assumptions); O(nnz) factor and step
//!   for banded meshes instead of O(n³)/O(n²),
//! * [`DenseMatrix`] / [`LuFactors`] — row-major dense matrices with LU
//!   factorization (partial pivoting): the escape hatch for systems that
//!   are small or not no-pivot factorable,
//! * [`interp`] — monotone-grid linear and bilinear interpolation used by
//!   waveform sampling and NLDM table lookup,
//! * [`fit`] — closed-form (weighted) line fits used by the
//!   equivalent-waveform techniques,
//! * [`stats`] — tiny summary-statistics helpers for the experiment harness.
//!
//! ```
//! use nsta_numeric::{DenseMatrix, LuFactors};
//! # fn main() -> Result<(), nsta_numeric::NumericError> {
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactors::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;
pub mod fit;
pub mod interp;
mod matrix;
pub mod sparse;
pub mod stats;

pub use error::NumericError;
pub use fit::LineFit;
pub use matrix::{dot, DenseMatrix, LuFactors};
pub use sparse::{ChunkedRows, CsrMatrix, SparseLu, TripletMatrix};
