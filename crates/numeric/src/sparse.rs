//! Sparse linear algebra for the circuit engines: triplet assembly,
//! compressed-sparse-row storage, and a no-pivot LU factorization with a
//! reusable symbolic analysis.
//!
//! # Formats
//!
//! * [`TripletMatrix`] — the assembly format. MNA stamping appends
//!   `(row, col, value)` entries in element order; duplicates are legal and
//!   are **summed in insertion order** during conversion, so the assembled
//!   values are bit-identical to stamping the same element sequence into a
//!   dense matrix.
//! * [`CsrMatrix`] — the compute format: row pointers, column indices
//!   sorted ascending within each row (empty rows are fine), and one value
//!   per stored entry. Mat-vec ([`CsrMatrix::mul_vec_into`]) touches only
//!   stored entries, so a step over an RC mesh costs O(nnz), not O(n²).
//!
//! # Ordering and pivoting assumptions
//!
//! [`SparseLu`] eliminates **without pivoting**, in a fill-reducing
//! reverse Cuthill–McKee order computed from the pattern (a *symmetric*
//! permutation — rows and columns move together, so the diagonal stays
//! the diagonal). No-pivot elimination is only valid when the matrix
//! keeps a usable diagonal throughout — which the workspace's stamped
//! systems guarantee by construction: MNA conductance/capacitance stamps
//! of RC meshes (with the gmin leak on every diagonal) are diagonally
//! dominant with non-positive off-diagonals, diagonal dominance is
//! invariant under symmetric permutation, and it is preserved by Gaussian
//! elimination, so the pivot can never vanish in any elimination order.
//! Matrices that violate the assumption (a device Jacobian pushed far off
//! dominance) fail loudly with [`NumericError::SingularMatrix`] instead
//! of silently losing precision; callers keep a dense partial-pivot
//! fallback for that case.
//!
//! The **symbolic factorization** (fill-in pattern of L and U) depends only
//! on the sparsity pattern, never on the values, so it is computed once and
//! reused: [`SparseLu::refactor`] re-eliminates new values into the existing
//! pattern with zero allocation — the shape the circuit engines need, where
//! one topology is factored once and then re-valued every Newton iteration.
//!
//! # Column blocks and bit-identity
//!
//! [`CsrMatrix::mul_block_into`] and [`SparseLu::solve_block_in_place`]
//! run `W` right-hand sides at once, stored row by row as `[f64; W]` (the
//! transient kernel sweeps up to four source sets as one block: the
//! noiseless and noisy drive of each transition of a victim whose rise and
//! fall share a time grid). Each column performs exactly the
//! floating-point operations, in exactly the order, of the one-vector
//! kernels [`CsrMatrix::mul_vec_into`] and [`SparseLu::solve_in_place`], so
//! a block result is bit-identical to `W` separate calls — Rust never
//! contracts `a * b + c` into a fused multiply-add on its own. What a
//! block saves is the repeated loads of the pattern and the values: each
//! stored entry and factor entry is loaded once per block, not once per
//! column.
//!
//! Both mat-vec kernels start every accumulator at `+0.0`. Under
//! round-to-nearest a sum or difference is `-0.0` only when it adds two
//! `-0.0`s (or subtracts `+0.0` from `-0.0`), and an exact cancellation of
//! non-zero operands yields `+0.0`; so an accumulator that starts at `+0.0`
//! never holds `-0.0`, and adding or subtracting an exact zero leaves it
//! unchanged bit for bit. Callers rely on this to skip exactly-zero terms:
//! the transient kernel adds source terms only on the rows a source
//! reaches instead of adding `+0.0` to every other row.
//!
//! [`ChunkedRows`] rests on the same argument: it reproduces
//! [`crate::dot`] of a dense row, whose four partial sums start at `+0.0`,
//! while skipping the row's all-zero four-column chunks. For finite inputs
//! a skipped chunk only adds `±0.0` products to those sums, so the result
//! is bit-identical to the dense `dot` at the cost of the stored chunks.

use crate::{DenseMatrix, NumericError};

/// Assembly-format sparse matrix: an append-only list of
/// `(row, col, value)` entries. Duplicate coordinates are summed (in
/// insertion order) when converting to [`CsrMatrix`].
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows × cols` assembly buffer.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Appends `v` at `(r, c)` — the natural operation for MNA stamps.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "triplet index out of bounds"
        );
        self.entries.push((r, c, v));
    }

    /// Number of raw (pre-merge) entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Appends every entry of `other`, scaled by `scale` — combining
    /// separately stamped matrices (e.g. `C/h + G/2` for a trapezoidal
    /// Jacobian) into one assembly buffer before conversion.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn extend_scaled(&mut self, other: &TripletMatrix, scale: f64) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "triplet dimensions must match"
        );
        self.entries
            .extend(other.entries.iter().map(|&(r, c, v)| (r, c, scale * v)));
    }

    /// Converts to CSR, summing duplicate coordinates in insertion order.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row keeps the conversion O(nnz + rows) and —
        // because it is stable in insertion order within a row — makes the
        // duplicate sums bit-identical to sequential dense stamping.
        let mut counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut by_row: Vec<(usize, f64)> = vec![(0, 0.0); self.entries.len()];
        {
            let mut next = counts.clone();
            for &(r, c, v) in &self.entries {
                by_row[next[r]] = (c, v);
                next[r] += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        // Per-row: stable sort by column, then merge runs of equal columns.
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.rows {
            scratch.clear();
            scratch.extend_from_slice(&by_row[counts[r]..counts[r + 1]]);
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                col_idx.push(c);
                values.push(sum);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed-sparse-row matrix: the compute format of the sparse solver.
///
/// Column indices are sorted ascending within each row and unique; empty
/// rows are represented naturally by equal consecutive row pointers.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointers (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, row-major, ascending within each row.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, aligned with [`CsrMatrix::col_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored values — re-valuing a fixed pattern (the Newton-loop
    /// shape) writes here and then calls [`SparseLu::refactor`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The columns and values of row `r` as parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Storage index of entry `(r, c)`, or `None` if the pattern has no
    /// such entry. Binary search within the row: O(log row-nnz).
    pub fn value_index(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.rows {
            return None;
        }
        let span = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
        span.binary_search(&c).ok().map(|k| self.row_ptr[r] + k)
    }

    /// Reads `(r, c)` — zero for entries outside the pattern.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.value_index(r, c).map_or(0.0, |k| self.values[k])
    }

    /// `y = A·x` into a caller-provided buffer without allocating.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] unless `x.len() == cols` and
    /// `y.len() == rows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.cols,
            });
        }
        if y.len() != self.rows {
            return Err(NumericError::ShapeMismatch {
                got: y.len(),
                expected: self.rows,
            });
        }
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            y[r] = acc;
        }
        Ok(())
    }

    /// `Y = A·X` for a block of `W` columns stored row by row (`x[c][j]`
    /// is entry `c` of column `j`), into a caller-provided buffer without
    /// allocating.
    ///
    /// Every column is accumulated exactly as [`CsrMatrix::mul_vec_into`]
    /// accumulates its one vector — from `+0.0`, over the row's stored
    /// entries in ascending column order — so column `j` of `y` is
    /// bit-identical to `mul_vec_into` on column `j` alone. One pass over
    /// the stored entries serves all `W` columns: the index and value
    /// loads are shared, and the inner loop runs across the columns.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] unless `x.len() == cols` and
    /// `y.len() == rows`.
    pub fn mul_block_into<const W: usize>(
        &self,
        x: &[[f64; W]],
        y: &mut [[f64; W]],
    ) -> Result<(), NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.cols,
            });
        }
        if y.len() != self.rows {
            return Err(NumericError::ShapeMismatch {
                got: y.len(),
                expected: self.rows,
            });
        }
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = [0.0; W];
            for (&c, &v) in cols.iter().zip(vals) {
                let xc = &x[c];
                for j in 0..W {
                    acc[j] += v * xc[j];
                }
            }
            *out = acc;
        }
        Ok(())
    }

    /// Densifies — handy for the dense-backend escape hatch and for tests.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                m.add(r, c, v);
            }
        }
        m
    }

    /// Returns `self + scale · other` on the union pattern, merged row by
    /// row in ascending column order — the sparse analogue of
    /// [`DenseMatrix::add_scaled`], used to combine the stamped `G`/`C`
    /// matrices into the trapezoidal step matrices. Entries present in both
    /// operands compute exactly `a + scale * b`, so the combined values are
    /// bit-identical to the dense formulation.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] on dimension mismatch.
    pub fn add_scaled(&self, other: &CsrMatrix, scale: f64) -> Result<CsrMatrix, NumericError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NumericError::ShapeMismatch {
                got: other.rows * other.cols,
                expected: self.rows * self.cols,
            });
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.rows {
            let (ac, av) = self.row(r);
            let (bc, bv) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ac.len() || j < bc.len() {
                let ca = ac.get(i).copied().unwrap_or(usize::MAX);
                let cb = bc.get(j).copied().unwrap_or(usize::MAX);
                if ca < cb {
                    col_idx.push(ca);
                    values.push(av[i]);
                    i += 1;
                } else if cb < ca {
                    col_idx.push(cb);
                    values.push(scale * bv[j]);
                    j += 1;
                } else {
                    col_idx.push(ca);
                    values.push(av[i] + scale * bv[j]);
                    i += 1;
                    j += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// `true` if `other` has the identical sparsity pattern (shape, row
    /// pointers, column indices) — the precondition of
    /// [`SparseLu::refactor`].
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }
}

/// A matrix's rows regrouped for products summed exactly as
/// [`crate::dot`] sums a dense row with a vector: one `[f64; 4]` block per
/// four-column chunk in which a row stores an entry (zeros in its other
/// lanes), plus the row's entries past its last whole chunk.
///
/// `dot` keeps four partial sums, one per column residue mod 4, over the
/// whole chunks, a remainder sum after them, and returns
/// `(s0 + s2) + (s1 + s3) + rest`. [`ChunkedRows::dot_into`] performs the
/// same operations in the same order on the stored chunks and skips the
/// others. A skipped chunk holds exact zeros whose `±0.0` products leave
/// every partial sum unchanged (see the module docs), so for finite `x`
/// each result is bit-identical to `dot` on the densified row, at the cost
/// of the stored chunks, not `cols`.
#[derive(Debug, Clone)]
pub struct ChunkedRows {
    cols: usize,
    /// Row `r`'s blocks are `block_ptr[r]..block_ptr[r + 1]`.
    block_ptr: Vec<usize>,
    /// First column of each block: a multiple of 4.
    block_col: Vec<usize>,
    block_vals: Vec<[f64; 4]>,
    /// Row `r`'s entries past its last whole chunk are
    /// `tail_ptr[r]..tail_ptr[r + 1]`.
    tail_ptr: Vec<usize>,
    tail_col: Vec<usize>,
    tail_vals: Vec<f64>,
}

impl ChunkedRows {
    /// Regroups the stored entries of `a`.
    pub fn new(a: &CsrMatrix) -> Self {
        let chunked = a.cols - a.cols % 4;
        let mut out = ChunkedRows {
            cols: a.cols,
            block_ptr: vec![0],
            block_col: Vec::new(),
            block_vals: Vec::new(),
            tail_ptr: vec![0],
            tail_col: Vec::new(),
            tail_vals: Vec::new(),
        };
        for r in 0..a.rows {
            let first = out.block_col.len();
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if c >= chunked {
                    out.tail_col.push(c);
                    out.tail_vals.push(v);
                    continue;
                }
                let base = c - c % 4;
                if out.block_col.len() == first || out.block_col.last() != Some(&base) {
                    out.block_col.push(base);
                    out.block_vals.push([0.0; 4]);
                }
                if let Some(block) = out.block_vals.last_mut() {
                    block[c % 4] = v;
                }
            }
            out.block_ptr.push(out.block_col.len());
            out.tail_ptr.push(out.tail_col.len());
        }
        out
    }

    fn rows(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// `y[r] = dot(row r, x)` for every row, into a caller-provided buffer
    /// without allocating; an empty row yields `+0.0`.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] unless `x.len() == cols` and
    /// `y.len() == rows`.
    pub fn dot_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.cols,
            });
        }
        if y.len() != self.rows() {
            return Err(NumericError::ShapeMismatch {
                got: y.len(),
                expected: self.rows(),
            });
        }
        for (r, out) in y.iter_mut().enumerate() {
            let blocks = self.block_ptr[r]..self.block_ptr[r + 1];
            let mut s = [0.0f64; 4];
            for (&c, v) in self.block_col[blocks.clone()]
                .iter()
                .zip(&self.block_vals[blocks])
            {
                let xs = &x[c..c + 4];
                for j in 0..4 {
                    s[j] += v[j] * xs[j];
                }
            }
            let tail = self.tail_ptr[r]..self.tail_ptr[r + 1];
            let mut rest = 0.0;
            for (&c, &v) in self.tail_col[tail.clone()]
                .iter()
                .zip(&self.tail_vals[tail])
            {
                rest += v * x[c];
            }
            *out = (s[0] + s[2]) + (s[1] + s[3]) + rest;
        }
        Ok(())
    }
}

/// Pivots smaller than this are treated as structural singularities —
/// matching the dense [`crate::LuFactors`] threshold.
const PIVOT_TOL: f64 = 1e-300;

/// Computes a reverse Cuthill–McKee ordering of the symmetrized pattern of
/// `a`: `perm[new] = old`. BFS from a pseudo-peripheral start of every
/// connected component, visiting neighbours in ascending-degree order,
/// reversed at the end — the classic bandwidth-reducing ordering for the
/// chain-and-rung graphs RC meshes stamp. Deterministic: ties break on the
/// lower node index.
fn rcm_ordering(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    // Symmetrized adjacency without the diagonal.
    let mut deg = vec![0usize; n];
    for r in 0..n {
        let (cols, _) = a.row(r);
        for &c in cols {
            if c != r {
                deg[r] += 1;
                deg[c] += 1;
            }
        }
    }
    let mut adj_ptr = vec![0usize; n + 1];
    for i in 0..n {
        adj_ptr[i + 1] = adj_ptr[i] + deg[i];
    }
    let mut adj = vec![0usize; adj_ptr[n]];
    {
        let mut next = adj_ptr.clone();
        for r in 0..n {
            let (cols, _) = a.row(r);
            for &c in cols {
                if c != r {
                    adj[next[r]] = c;
                    next[r] += 1;
                    adj[next[c]] = r;
                    next[c] += 1;
                }
            }
        }
    }
    // The symmetrization can duplicate edges present in both triangles;
    // duplicates only cost a little BFS work, so they are left in place,
    // but degrees used for tie-breaking stay as computed above.
    let neighbours = |v: usize| &adj[adj_ptr[v]..adj_ptr[v + 1]];

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut frontier = Vec::new();
    // BFS recording (order of discovery) from `start`; returns the last
    // discovered node (an eccentric vertex).
    let bfs = |start: usize, visited: &mut Vec<bool>, out: &mut Vec<usize>| -> usize {
        let base = out.len();
        visited[start] = true;
        out.push(start);
        let mut head = base;
        while head < out.len() {
            let v = out[head];
            head += 1;
            let mut fresh: Vec<usize> = neighbours(v)
                .iter()
                .copied()
                .filter(|&u| !visited[u])
                .collect();
            fresh.sort_unstable_by_key(|&u| (deg[u], u));
            fresh.dedup();
            for u in fresh {
                if !visited[u] {
                    visited[u] = true;
                    out.push(u);
                }
            }
        }
        // BFS pushed at least the start node before the loop ran.
        out[out.len() - 1]
    };
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        // Pseudo-peripheral start: BFS twice from the component's
        // min-degree node, restarting from the farthest node found.
        frontier.clear();
        let mut probe = visited.clone();
        let far = bfs(seed, &mut probe, &mut frontier);
        let start = if far == seed {
            seed
        } else {
            frontier.clear();
            let mut probe2 = visited.clone();
            bfs(far, &mut probe2, &mut frontier)
        };
        bfs(start, &mut visited, &mut order);
    }
    order.reverse();
    order
}

/// No-pivot sparse LU factors of a square [`CsrMatrix`], with the symbolic
/// (fill-in) analysis separated from the numeric elimination so one
/// topology can be re-valued and re-factored without allocation.
///
/// Rows are eliminated in **reverse Cuthill–McKee order** (a symmetric
/// permutation computed from the pattern at analysis time), which keeps
/// the fill-in of banded and chain-and-rung RC meshes near the original
/// nnz; diagonal dominance — the property that makes no-pivot elimination
/// valid (see the [module docs](self)) — is preserved under any symmetric
/// permutation, so the reordering never costs robustness. Solves run
/// directly on original-index vectors (the permutation is folded into the
/// stored factor indices), so no permutation copies are paid per step.
///
/// ```
/// use nsta_numeric::{SparseLu, TripletMatrix};
/// # fn main() -> Result<(), nsta_numeric::NumericError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.add(0, 0, 2.0);
/// t.add(0, 1, 1.0);
/// t.add(1, 0, 1.0);
/// t.add(1, 1, 3.0);
/// let a = t.to_csr();
/// let lu = SparseLu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((2.0 * x[0] + x[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Pattern of the analyzed matrix (for the `refactor` precondition).
    a_row_ptr: Vec<usize>,
    a_col_idx: Vec<usize>,
    /// Elimination order: `perm[step] = original row/column`.
    perm: Vec<usize>,
    /// Permuted view of A for the numeric scatter: per elimination row,
    /// the permuted column and the source index into `a.values()`.
    ap_ptr: Vec<usize>,
    ap_cols: Vec<usize>,
    ap_src: Vec<usize>,
    /// Strictly-lower factor L (unit diagonal implied), CSR over
    /// elimination rows, permuted cols < row, ascending.
    l_ptr: Vec<usize>,
    l_cols: Vec<usize>,
    l_vals: Vec<f64>,
    /// Strictly-upper factor U (diagonal held separately).
    u_ptr: Vec<usize>,
    u_cols: Vec<usize>,
    u_vals: Vec<f64>,
    /// `l_cols`/`u_cols` translated back to original indices, so the
    /// substitutions read and write the caller's vector directly.
    l_cols_orig: Vec<usize>,
    u_cols_orig: Vec<usize>,
    /// Reciprocals of U's diagonal (multiply instead of divide in the
    /// per-timestep back substitution).
    inv_diag: Vec<f64>,
    /// Dense elimination workspace, kept across `refactor` calls.
    work: Vec<f64>,
}

impl SparseLu {
    /// Analyzes the fill-in pattern of `a` (including the fill-reducing
    /// ordering) and performs the first numeric factorization.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] if `a` is not square.
    /// * [`NumericError::NonFinite`] if `a` contains NaN/inf.
    /// * [`NumericError::SingularMatrix`] if an elimination pivot
    ///   vanishes (the matrix is not no-pivot factorable).
    pub fn factor(a: &CsrMatrix) -> Result<Self, NumericError> {
        if a.rows != a.cols {
            return Err(NumericError::ShapeMismatch {
                got: a.cols,
                expected: a.rows,
            });
        }
        let n = a.rows;
        let perm = rcm_ordering(a);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        // Permuted pattern with source indices for the value scatter.
        let mut ap_ptr = Vec::with_capacity(n + 1);
        let mut ap_cols = Vec::with_capacity(a.nnz());
        let mut ap_src = Vec::with_capacity(a.nnz());
        ap_ptr.push(0);
        let mut row_buf: Vec<(usize, usize)> = Vec::new();
        for &old in &perm {
            row_buf.clear();
            for k in a.row_ptr[old]..a.row_ptr[old + 1] {
                row_buf.push((iperm[a.col_idx[k]], k));
            }
            row_buf.sort_unstable();
            for &(c, k) in &row_buf {
                ap_cols.push(c);
                ap_src.push(k);
            }
            ap_ptr.push(ap_cols.len());
        }
        let mut lu = SparseLu {
            n,
            a_row_ptr: a.row_ptr.clone(),
            a_col_idx: a.col_idx.clone(),
            perm,
            ap_ptr,
            ap_cols,
            ap_src,
            l_ptr: Vec::with_capacity(n + 1),
            l_cols: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: Vec::with_capacity(n + 1),
            u_cols: Vec::new(),
            u_vals: Vec::new(),
            l_cols_orig: Vec::new(),
            u_cols_orig: Vec::new(),
            inv_diag: vec![0.0; n],
            work: vec![0.0; n],
        };
        lu.analyze();
        lu.l_vals = vec![0.0; lu.l_cols.len()];
        lu.u_vals = vec![0.0; lu.u_cols.len()];
        lu.l_cols_orig = lu.l_cols.iter().map(|&c| lu.perm[c]).collect();
        lu.u_cols_orig = lu.u_cols.iter().map(|&c| lu.perm[c]).collect();
        // `a` is the analyzed matrix itself: no pattern to compare.
        lu.refactor_values(&a.values)?;
        // Full symbolic-plus-numeric factorizations, as opposed to the
        // pattern-reusing `refactors` counter (which also ticks once here).
        nsta_obs::count!("numeric.sparse_lu.factors");
        nsta_obs::recorder().gauge_max("numeric.sparse_lu.max_factor_nnz", lu.factor_nnz() as f64);
        Ok(lu)
    }

    /// Symbolic phase: computes the merged fill-in pattern of every
    /// elimination row.
    ///
    /// Row `i`'s pattern starts as the permuted A row and, processing its
    /// below-diagonal columns `k` in ascending order, unions in U's row `k`
    /// (the classic row-merge formulation). A min-heap drives the ascending
    /// traversal because fill can introduce new below-diagonal columns
    /// mid-merge.
    fn analyze(&mut self) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.n;
        let mut marked = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        self.l_ptr.push(0);
        self.u_ptr.push(0);
        for i in 0..n {
            // Seed with the permuted A row (plus the diagonal, which the
            // stamped systems always carry but degenerate inputs may not).
            for &c in &self.ap_cols[self.ap_ptr[i]..self.ap_ptr[i + 1]] {
                if !marked[c] {
                    marked[c] = true;
                    touched.push(c);
                    if c < i {
                        heap.push(Reverse(c));
                    }
                }
            }
            if !marked[i] {
                marked[i] = true;
                touched.push(i);
            }
            // Merge U rows of every below-diagonal column, ascending.
            while let Some(Reverse(k)) = heap.pop() {
                self.l_cols.push(k);
                for &j in &self.u_cols[self.u_ptr[k]..self.u_ptr[k + 1]] {
                    if !marked[j] {
                        marked[j] = true;
                        touched.push(j);
                        if j < i {
                            heap.push(Reverse(j));
                        }
                    }
                }
            }
            self.l_ptr.push(self.l_cols.len());
            // Above-diagonal pattern, sorted.
            let mut uppers: Vec<usize> = touched.iter().copied().filter(|&c| c > i).collect();
            uppers.sort_unstable();
            self.u_cols.extend_from_slice(&uppers);
            self.u_ptr.push(self.u_cols.len());
            for c in touched.drain(..) {
                marked[c] = false;
            }
        }
        // L columns were pushed in heap order, which is already ascending
        // per row; nothing to sort.
    }

    /// Re-eliminates new values into the existing symbolic pattern without
    /// allocating. `a` must have the **identical pattern** to the matrix
    /// this factorization was analyzed from (same topology, new values);
    /// both parts of the pattern are compared on every call.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] if the pattern differs.
    /// * [`NumericError::NonFinite`] if `a` contains NaN/inf.
    /// * [`NumericError::SingularMatrix`] on a vanishing pivot.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), NumericError> {
        if a.rows != self.n
            || a.cols != self.n
            || a.row_ptr != self.a_row_ptr
            || a.col_idx != self.a_col_idx
        {
            return Err(NumericError::ShapeMismatch {
                got: a.nnz(),
                expected: self.a_col_idx.len(),
            });
        }
        self.refactor_values(&a.values)
    }

    /// [`SparseLu::refactor`] for a caller that owns the analyzed matrix
    /// and only changes its values, so the pattern needs no comparison:
    /// `values` are the stored entries in the analyzed matrix's CSR order
    /// ([`CsrMatrix::values`]). Each value is checked for finiteness as it
    /// is scattered into the elimination.
    ///
    /// After any error the factors are invalid until the next successful
    /// refactor; the elimination workspace is left clean, so that refactor
    /// starts as a fresh one would.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] if `values` does not hold one
    ///   value per stored entry of the analyzed pattern.
    /// * [`NumericError::NonFinite`] if a value is NaN/inf.
    /// * [`NumericError::SingularMatrix`] on a vanishing pivot.
    pub fn refactor_values(&mut self, values: &[f64]) -> Result<(), NumericError> {
        if values.len() != self.a_col_idx.len() {
            return Err(NumericError::ShapeMismatch {
                got: values.len(),
                expected: self.a_col_idx.len(),
            });
        }
        // Fault-injection site: pretend the no-pivot elimination lost its
        // pivot, as a genuinely singular mesh would. `factor` and
        // `refactor` funnel through here, so every factoring path is
        // covered. Inert (one relaxed load) unless a plan is armed.
        if nsta_obs::fault::should_fire(nsta_obs::fault::PIVOT_LOSS) {
            return Err(NumericError::SingularMatrix {
                column: 0,
                pivot: 0.0,
            });
        }
        let w = &mut self.work;
        for i in 0..self.n {
            // Scatter the permuted A row into the dense workspace. Entries
            // of the factored pattern not present in A start at zero — `w`
            // is restored to zeros after every row below.
            let row = self.ap_ptr[i]..self.ap_ptr[i + 1];
            for t in row.clone() {
                let v = values[self.ap_src[t]];
                if !v.is_finite() {
                    for t in row {
                        w[self.ap_cols[t]] = 0.0;
                    }
                    return Err(NumericError::NonFinite("matrix entries"));
                }
                w[self.ap_cols[t]] = v;
            }
            // Up-looking elimination along this row's L pattern
            // (ascending): divide by the pivot of row k, then subtract its
            // U row.
            for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                let k = self.l_cols[li];
                let factor = w[k] * self.inv_diag[k];
                self.l_vals[li] = factor;
                w[k] = 0.0;
                if factor != 0.0 {
                    for ui in self.u_ptr[k]..self.u_ptr[k + 1] {
                        w[self.u_cols[ui]] -= factor * self.u_vals[ui];
                    }
                }
            }
            let pivot = w[i];
            w[i] = 0.0;
            if !(pivot.abs() >= PIVOT_TOL) {
                // Restore the workspace before bailing so a later
                // refactor starts clean.
                for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                    w[self.u_cols[ui]] = 0.0;
                }
                return Err(NumericError::SingularMatrix {
                    column: self.perm[i],
                    pivot: pivot.abs(),
                });
            }
            self.inv_diag[i] = 1.0 / pivot;
            for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                let c = self.u_cols[ui];
                self.u_vals[ui] = w[c];
                w[c] = 0.0;
            }
        }
        nsta_obs::count!("numeric.sparse_lu.refactors");
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of the factors (L strictly-lower + diagonal +
    /// U strictly-upper) — the fill-in-inclusive cost of one solve.
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.n + self.u_vals.len()
    }

    /// Solves `A·x = b` in place on original-index vectors. The
    /// fill-reducing permutation is symmetric and folded into the stored
    /// factor indices, so no permutation copies are performed: the
    /// substitutions simply visit `x` in elimination order.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] if `x.len() != self.dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), NumericError> {
        if x.len() != self.n {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.n,
            });
        }
        // Forward substitution with unit-diagonal L, in elimination order.
        // `x[perm[i]]` plays the role of the permuted vector's slot `i`.
        for i in 0..self.n {
            let oi = self.perm[i];
            let mut acc = x[oi];
            for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                acc -= self.l_vals[li] * x[self.l_cols_orig[li]];
            }
            x[oi] = acc;
        }
        // Back substitution with U.
        for i in (0..self.n).rev() {
            let oi = self.perm[i];
            let mut acc = x[oi];
            for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                acc -= self.u_vals[ui] * x[self.u_cols_orig[ui]];
            }
            x[oi] = acc * self.inv_diag[i];
        }
        Ok(())
    }

    /// Solves `A·X = B` in place for a block of `W` columns stored row by
    /// row (`x[c][j]` is entry `c` of column `j`), on original-index rows
    /// like [`SparseLu::solve_in_place`].
    ///
    /// Each column goes through exactly the substitutions
    /// `solve_in_place` performs on it — same elimination order, same
    /// factor entries in the same order — so column `j` of the result is
    /// bit-identical to `solve_in_place` on column `j` alone. The factor
    /// entries and their indices are loaded once per block instead of once
    /// per column.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] if `x.len() != self.dim()`.
    pub fn solve_block_in_place<const W: usize>(
        &self,
        x: &mut [[f64; W]],
    ) -> Result<(), NumericError> {
        if x.len() != self.n {
            return Err(NumericError::ShapeMismatch {
                got: x.len(),
                expected: self.n,
            });
        }
        for i in 0..self.n {
            let oi = self.perm[i];
            let mut acc = x[oi];
            for li in self.l_ptr[i]..self.l_ptr[i + 1] {
                let (l, xc) = (self.l_vals[li], x[self.l_cols_orig[li]]);
                for j in 0..W {
                    acc[j] -= l * xc[j];
                }
            }
            x[oi] = acc;
        }
        for i in (0..self.n).rev() {
            let oi = self.perm[i];
            let mut acc = x[oi];
            for ui in self.u_ptr[i]..self.u_ptr[i + 1] {
                let (u, xc) = (self.u_vals[ui], x[self.u_cols_orig[ui]]);
                for j in 0..W {
                    acc[j] -= u * xc[j];
                }
            }
            let d = self.inv_diag[i];
            x[oi] = acc.map(|a| a * d);
        }
        Ok(())
    }

    /// Solves `A·x = b` into a fresh vector.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LuFactors;

    /// Deterministic xorshift PRNG matching the dense-matrix tests.
    fn rng(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    #[test]
    fn triplets_sum_duplicates_in_insertion_order() {
        let mut t = TripletMatrix::new(2, 3);
        t.add(0, 2, 1.0);
        t.add(0, 0, 2.0);
        t.add(0, 2, 0.5); // duplicate of (0, 2)
        t.add(1, 1, -1.0);
        assert_eq!(t.entry_count(), 4);
        let a = t.to_csr();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row_ptr(), &[0, 2, 3]);
        assert_eq!(a.col_idx(), &[0, 2, 1]);
        assert_eq!(a.get(0, 2), 1.5);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 1), -1.0);
        assert_eq!(a.get(1, 0), 0.0); // outside the pattern
    }

    #[test]
    fn empty_rows_are_represented() {
        let mut t = TripletMatrix::new(4, 4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 2.0);
        let a = t.to_csr();
        assert_eq!(a.row_ptr(), &[0, 1, 1, 1, 2]);
        let (cols, vals) = a.row(1);
        assert!(cols.is_empty() && vals.is_empty());
        // Mat-vec over empty rows yields zero.
        let mut y = vec![9.0; 4];
        a.mul_vec_into(&[1.0, 1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn fully_empty_matrix_round_trips() {
        let t = TripletMatrix::new(3, 3);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.row_ptr(), &[0, 0, 0, 0]);
        let mut y = vec![1.0; 3];
        a.mul_vec_into(&[1.0; 3], &mut y).unwrap();
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn mat_vec_matches_dense() {
        let mut next = rng(0xfeed_beef);
        let n = 17;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            for c in 0..n {
                // ~30% fill.
                if next() > 0.2 {
                    continue;
                }
                t.add(r, c, next());
            }
        }
        let a = t.to_csr();
        let d = a.to_dense();
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut y = vec![0.0; n];
        a.mul_vec_into(&x, &mut y).unwrap();
        let yd = d.mul_vec(&x).unwrap();
        for (s, dd) in y.iter().zip(&yd) {
            assert!((s - dd).abs() < 1e-12);
        }
        // Shape mismatches are rejected.
        assert!(a.mul_vec_into(&x[..n - 1], &mut y).is_err());
    }

    /// Tridiagonal RC-style stamp: the shape the transient solver factors.
    fn tridiagonal(n: usize, diag: f64, off: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, diag);
            if i > 0 {
                t.add(i, i - 1, off);
            }
            if i + 1 < n {
                t.add(i, i + 1, off);
            }
        }
        t.to_csr()
    }

    #[test]
    fn tridiagonal_factor_has_no_fill_and_matches_dense() {
        let a = tridiagonal(40, 4.0, -1.0);
        let lu = SparseLu::factor(&a).unwrap();
        // A tridiagonal no-pivot LU fills nothing: nnz(L+D+U) == nnz(A).
        assert_eq!(lu.factor_nnz(), a.nnz());
        let dense = LuFactors::factor(&a.to_dense()).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-11);
        }
    }

    /// Random diagonally dominant `n × n` system with ~20% off-diagonal
    /// fill, drawn from `next`.
    fn random_dominant(n: usize, next: &mut impl FnMut() -> f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            for c in 0..n {
                if r != c && next() > 0.1 {
                    continue; // ~20% off-diagonal fill
                }
                t.add(r, c, next());
            }
            t.add(r, r, 2.0 * n as f64);
        }
        t.to_csr()
    }

    #[test]
    fn random_diagonally_dominant_systems_match_dense() {
        let mut next = rng(0x9e3779b97f4a7c15);
        for n in [1usize, 2, 5, 17, 40, 80] {
            let a = random_dominant(n, &mut next);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let lu = SparseLu::factor(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let mut back = vec![0.0; n];
            a.mul_vec_into(&x, &mut back).unwrap();
            for (bi, yi) in b.iter().zip(&back) {
                assert!((bi - yi).abs() < 1e-9, "n={n} residual too large");
            }
        }
    }

    #[test]
    fn symbolic_refactor_reuses_the_pattern() {
        let a1 = tridiagonal(25, 4.0, -1.0);
        let mut lu = SparseLu::factor(&a1).unwrap();
        let b: Vec<f64> = (0..25).map(|i| 1.0 + i as f64).collect();
        let x1 = lu.solve(&b).unwrap();

        // Same pattern, different values: refactor in place.
        let a2 = tridiagonal(25, 6.5, -2.0);
        lu.refactor(&a2).unwrap();
        let x2 = lu.solve(&b).unwrap();
        let fresh = SparseLu::factor(&a2).unwrap().solve(&b).unwrap();
        assert_eq!(x2, fresh, "refactor must reproduce a fresh factorization");
        assert_ne!(x1, x2);

        // Refactoring back reproduces the original solution exactly.
        lu.refactor(&a1).unwrap();
        assert_eq!(lu.solve(&b).unwrap(), x1);

        // A different pattern is rejected.
        let bigger = tridiagonal(26, 4.0, -1.0);
        assert!(matches!(
            lu.refactor(&bigger),
            Err(NumericError::ShapeMismatch { .. })
        ));
        let mut t = TripletMatrix::new(25, 25);
        for i in 0..25 {
            t.add(i, i, 4.0);
        }
        assert!(matches!(
            lu.refactor(&t.to_csr()),
            Err(NumericError::ShapeMismatch { .. })
        ));
    }

    /// Arrow matrix: a dense last row/column forces fill into the last
    /// row during elimination of every leading column.
    fn arrow(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 10.0);
            if i + 1 < n {
                t.add(i, n - 1, 1.0);
                t.add(n - 1, i, 1.0);
            }
        }
        t.to_csr()
    }

    /// Reverse arrow: a dense FIRST row/column — eliminating column 0
    /// fills the entire trailing submatrix, the worst case for the
    /// symbolic merge.
    fn reverse_arrow(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 10.0);
            if i > 0 {
                t.add(0, i, 1.0);
                t.add(i, 0, 1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn fill_in_is_handled() {
        let n = 12;
        let a = arrow(n);
        let lu = SparseLu::factor(&a).unwrap();
        let dense = LuFactors::factor(&a.to_dense()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-11);
        }
    }

    #[test]
    fn reverse_arrow_fill_propagates() {
        let n = 9;
        let a = reverse_arrow(n);
        let lu = SparseLu::factor(&a).unwrap();
        let dense = LuFactors::factor(&a.to_dense()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-11);
        }
    }

    #[test]
    fn singular_and_nonfinite_are_reported() {
        // A structurally zero diagonal entry cannot be repaired without
        // pivoting, whatever the elimination order.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 0.0);
        match SparseLu::factor(&t.to_csr()) {
            Err(NumericError::SingularMatrix { column, .. }) => assert_eq!(column, 1),
            other => panic!("expected singular, got {other:?}"),
        }
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, f64::NAN);
        t.add(1, 1, 1.0);
        assert!(matches!(
            SparseLu::factor(&t.to_csr()),
            Err(NumericError::NonFinite(_))
        ));
        // Non-square.
        let t = TripletMatrix::new(2, 3);
        assert!(matches!(
            SparseLu::factor(&t.to_csr()),
            Err(NumericError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn failed_refactor_leaves_workspace_clean() {
        let good = tridiagonal(10, 4.0, -1.0);
        let mut lu = SparseLu::factor(&good).unwrap();
        // Same pattern, singular values: an all-zero row is singular in
        // every elimination order, so the no-pivot refactor must fail
        // partway through (leaving rows before it already eliminated).
        let mut bad = good.clone();
        for c in [4, 5, 6] {
            let k = bad.value_index(5, c).unwrap();
            bad.values_mut()[k] = 0.0;
        }
        assert!(lu.refactor(&bad).is_err());
        // The workspace must be clean: a subsequent good refactor solves
        // exactly like a fresh factorization.
        lu.refactor(&good).unwrap();
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(
            lu.solve(&b).unwrap(),
            SparseLu::factor(&good).unwrap().solve(&b).unwrap()
        );
    }

    #[test]
    fn values_only_refactor_matches_refactor() {
        let good = reverse_arrow(9);
        let mut other = good.clone();
        for (k, v) in other.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * k as f64;
        }
        let b: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).cos()).collect();
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let fresh = bits(SparseLu::factor(&other).unwrap().solve(&b).unwrap());
        let mut lu = SparseLu::factor(&good).unwrap();
        lu.refactor_values(other.values()).unwrap();
        assert_eq!(bits(lu.solve(&b).unwrap()), fresh);
        assert!(matches!(
            lu.refactor_values(&other.values()[1..]),
            Err(NumericError::ShapeMismatch { .. })
        ));
        // A non-finite value fails as it is scattered, wherever it sits,
        // and leaves the workspace clean: the next refactor solves exactly
        // like a fresh factorization. `refactor` reports the same error.
        for k in 0..other.nnz() {
            for bad_value in [f64::NAN, f64::INFINITY] {
                let mut bad = other.clone();
                bad.values_mut()[k] = bad_value;
                assert!(matches!(
                    lu.refactor_values(bad.values()),
                    Err(NumericError::NonFinite(_))
                ));
                assert!(lu.work.iter().all(|&w| w == 0.0), "value {k}");
                assert!(matches!(lu.refactor(&bad), Err(NumericError::NonFinite(_))));
                assert!(lu.work.iter().all(|&w| w == 0.0), "value {k}");
                lu.refactor_values(other.values()).unwrap();
                assert_eq!(bits(lu.solve(&b).unwrap()), fresh, "value {k}");
            }
        }
    }

    #[test]
    fn value_index_get_and_same_pattern() {
        let a = tridiagonal(4, 2.0, -1.0);
        assert!(a.value_index(0, 0).is_some());
        assert!(a.value_index(0, 2).is_none());
        assert!(a.value_index(9, 0).is_none());
        let mut b = a.clone();
        let k = b.value_index(1, 2).unwrap();
        b.values_mut()[k] += 0.5;
        assert_eq!(b.get(1, 2), -0.5);
        assert_eq!(b.get(0, 2), 0.0, "outside the pattern");
        assert!(a.same_pattern(&b));
        assert!(!a.same_pattern(&tridiagonal(5, 2.0, -1.0)));
    }

    #[test]
    fn add_scaled_merges_union_patterns() {
        let mut tc = TripletMatrix::new(3, 3);
        tc.add(0, 0, 2.0);
        tc.add(1, 2, 5.0);
        let c = tc.to_csr();
        let mut tg = TripletMatrix::new(3, 3);
        tg.add(0, 0, 4.0);
        tg.add(0, 1, -4.0);
        tg.add(2, 2, 1.0);
        let g = tg.to_csr();
        let s = c.add_scaled(&g, 0.5).unwrap();
        let expect = c.to_dense().add_scaled(&g.to_dense(), 0.5).unwrap();
        assert_eq!(s.to_dense(), expect);
        // Shared entries compute a + scale·b exactly.
        assert_eq!(s.get(0, 0), 2.0 + 0.5 * 4.0);
        assert_eq!(s.get(0, 1), 0.5 * -4.0);
        assert_eq!(s.get(1, 2), 5.0);
        assert_eq!(s.nnz(), 4);
        // Shape mismatch is rejected.
        let other = TripletMatrix::new(2, 3).to_csr();
        assert!(c.add_scaled(&other, 1.0).is_err());
    }

    /// Runs the block kernels on `W` random columns and compares every
    /// column, bit for bit, with the one-vector kernels on that column.
    fn assert_block_matches_scalar<const W: usize>(a: &CsrMatrix, next: &mut impl FnMut() -> f64) {
        let n = a.rows();
        let x: Vec<[f64; W]> = (0..n).map(|_| std::array::from_fn(|_| next())).collect();
        let mut y = vec![[f64::NAN; W]; n];
        a.mul_block_into(&x, &mut y).unwrap();
        let lu = SparseLu::factor(a).unwrap();
        let mut solved = x.clone();
        lu.solve_block_in_place(&mut solved).unwrap();
        for j in 0..W {
            let col: Vec<f64> = x.iter().map(|row| row[j]).collect();
            let mut y_col = vec![f64::NAN; n];
            a.mul_vec_into(&col, &mut y_col).unwrap();
            let mut s_col = col.clone();
            lu.solve_in_place(&mut s_col).unwrap();
            for i in 0..n {
                assert_eq!(
                    y[i][j].to_bits(),
                    y_col[i].to_bits(),
                    "mat-vec n={n} col {j}"
                );
                assert_eq!(
                    solved[i][j].to_bits(),
                    s_col[i].to_bits(),
                    "solve n={n} col {j}"
                );
            }
        }
    }

    #[test]
    fn block_kernels_are_bit_identical_to_scalar_per_column() {
        let mut next = rng(0x5eed_b10c);
        let mut systems: Vec<CsrMatrix> = [1usize, 2, 5, 17, 40, 80]
            .iter()
            .map(|&n| random_dominant(n, &mut next))
            .collect();
        systems.extend([arrow(12), reverse_arrow(9), tridiagonal(40, 4.0, -1.0)]);
        for a in &systems {
            assert_block_matches_scalar::<1>(a, &mut next);
            assert_block_matches_scalar::<2>(a, &mut next);
            assert_block_matches_scalar::<3>(a, &mut next);
            assert_block_matches_scalar::<4>(a, &mut next);
        }
        // Shape mismatches are rejected like the one-vector kernels'.
        let a = &systems[3];
        let mut y = vec![[0.0; 2]; 17];
        assert!(a.mul_block_into(&[[0.0; 2]; 16], &mut y).is_err());
        assert!(a.mul_block_into(&[[0.0; 2]; 17], &mut y[..16]).is_err());
        let lu = SparseLu::factor(a).unwrap();
        assert!(lu.solve_block_in_place(&mut [[0.0; 2]; 16]).is_err());
    }

    #[test]
    fn one_by_one_system() {
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 4.0);
        let lu = SparseLu::factor(&t.to_csr()).unwrap();
        assert_eq!(lu.solve(&[2.0]).unwrap(), vec![0.5]);
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
