use crate::SolverError;

/// A coordinate-format (COO) accumulator used to assemble a [`CsrMatrix`].
///
/// Power-grid stamping naturally produces many contributions to the same
/// matrix entry (every resistor touching a node adds to that node's
/// diagonal). The builder therefore *sums* duplicate `(row, col)` entries
/// when converting to CSR.
///
/// # Examples
///
/// ```
/// use pi3d_solver::CooBuilder;
///
/// # fn main() -> Result<(), pi3d_solver::SolverError> {
/// let mut builder = CooBuilder::new(2);
/// builder.add(0, 0, 1.0);
/// builder.add(0, 0, 1.0); // duplicates are summed
/// builder.add(1, 1, 3.0);
/// let m = builder.into_csr()?;
/// assert_eq!(m.get(0, 0), 2.0);
/// assert_eq!(m.get(1, 1), 3.0);
/// assert_eq!(m.get(0, 1), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    dim: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// Creates a builder for a square `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        CooBuilder {
            dim,
            entries: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `nnz` entries.
    pub fn with_capacity(dim: usize, nnz: usize) -> Self {
        CooBuilder {
            dim,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Declared dimension of the matrix under construction.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of raw (pre-deduplication) entries added so far.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Adds `value` to entry `(row, col)`.
    ///
    /// Out-of-range indices and non-finite values are detected at
    /// [`into_csr`](Self::into_csr) time so that stamping loops stay branch-free.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.entries.push((row as u32, col as u32, value));
    }

    /// Stamps a two-terminal conductance `g` between nodes `a` and `b`,
    /// adding `+g` to both diagonals and `-g` to both off-diagonals.
    pub fn stamp_conductance(&mut self, a: usize, b: usize, g: f64) {
        self.add(a, a, g);
        self.add(b, b, g);
        self.add(a, b, -g);
        self.add(b, a, -g);
    }

    /// Stamps a conductance `g` from node `a` to an ideal supply (ground in
    /// the reduced system), adding `+g` to the diagonal only.
    pub fn stamp_to_ground(&mut self, a: usize, g: f64) {
        self.add(a, a, g);
    }

    /// Converts the accumulated triplets to compressed sparse row format,
    /// summing duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::IndexOutOfBounds`] if any entry lies outside
    /// the declared dimension, [`SolverError::NonFiniteValue`] if any summed
    /// entry is NaN or infinite, and [`SolverError::FloatingNode`] if a row
    /// ends up with no entries at all (an electrically floating node).
    pub fn into_csr(self) -> Result<CsrMatrix, SolverError> {
        let dim = self.dim;
        for &(r, c, _) in &self.entries {
            if r as usize >= dim || c as usize >= dim {
                return Err(SolverError::IndexOutOfBounds {
                    row: r as usize,
                    col: c as usize,
                    dim,
                });
            }
        }

        // Count entries per row, then bucket-sort triplets into rows.
        let mut row_counts = vec![0usize; dim];
        for &(r, _, _) in &self.entries {
            row_counts[r as usize] += 1;
        }
        let mut row_start = vec![0usize; dim + 1];
        for i in 0..dim {
            row_start[i + 1] = row_start[i] + row_counts[i];
        }
        let mut cols_raw = vec![0u32; self.entries.len()];
        let mut vals_raw = vec![0f64; self.entries.len()];
        let mut cursor = row_start.clone();
        for &(r, c, v) in &self.entries {
            let idx = cursor[r as usize];
            cols_raw[idx] = c;
            vals_raw[idx] = v;
            cursor[r as usize] += 1;
        }

        // Within each row: sort by column and merge duplicates.
        let mut row_ptr = Vec::with_capacity(dim + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..dim {
            scratch.clear();
            scratch.extend(
                cols_raw[row_start[r]..row_start[r + 1]]
                    .iter()
                    .copied()
                    .zip(vals_raw[row_start[r]..row_start[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                if !sum.is_finite() {
                    return Err(SolverError::NonFiniteValue {
                        row: r,
                        col: c as usize,
                    });
                }
                if sum != 0.0 {
                    col_idx.push(c);
                    values.push(sum);
                }
            }
            if row_ptr.last().copied() == Some(col_idx.len()) {
                return Err(SolverError::FloatingNode { row: r });
            }
            row_ptr.push(col_idx.len());
        }

        Ok(CsrMatrix {
            dim,
            row_ptr,
            col_idx,
            values,
        })
    }
}

/// A square sparse matrix in compressed sparse row (CSR) format.
///
/// Produced by [`CooBuilder::into_csr`]. Nodal conductance matrices of
/// resistive grids are symmetric positive definite; [`CsrMatrix`] itself does
/// not enforce symmetry (it is a storage format), but
/// [`is_symmetric`](Self::is_symmetric) and
/// [`is_diagonally_dominant`](Self::is_diagonally_dominant) let analysis code
/// assert the physical invariants cheaply.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    dim: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an identity matrix of the given dimension.
    ///
    /// # Examples
    ///
    /// ```
    /// use pi3d_solver::CsrMatrix;
    /// let eye = CsrMatrix::identity(3);
    /// assert_eq!(eye.get(2, 2), 1.0);
    /// assert_eq!(eye.nnz(), 3);
    /// ```
    pub fn identity(dim: usize) -> Self {
        CsrMatrix {
            dim,
            row_ptr: (0..=dim).collect(),
            col_idx: (0..dim as u32).collect(),
            values: vec![1.0; dim],
        }
    }

    /// Matrix dimension (the matrix is square).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the entry at `(row, col)`, or `0.0` if it is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&(col as u32)) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored entries of one row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Computes `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, SolverError> {
        if x.len() != self.dim {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.dim];
        self.mul_vec_into(x, &mut y);
        Ok(y)
    }

    /// Computes `y = A·x` into an existing buffer (the hot loop of CG).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have a length other than `dim()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(y.len(), self.dim);
        // One relaxed atomic add per spmv; negligible next to the
        // O(nnz) loop below.
        static SPMV: std::sync::OnceLock<&'static pi3d_telemetry::Counter> =
            std::sync::OnceLock::new();
        SPMV.get_or_init(|| pi3d_telemetry::metrics::counter("solver.csr.spmv"))
            .incr(1);
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
    }

    /// Returns the diagonal of the matrix.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.dim).map(|i| self.get(i, i)).collect()
    }

    /// Checks structural and numerical symmetry to within `tol` (relative).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.dim {
            for (c, v) in self.row(r) {
                let vt = self.get(c, r);
                let scale = v.abs().max(vt.abs()).max(1.0);
                if (v - vt).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// Checks weak diagonal dominance (`|a_ii| ≥ Σ_{j≠i} |a_ij|` for every
    /// row), the defining property of a conductance matrix with grounded
    /// supplies.
    pub fn is_diagonally_dominant(&self, tol: f64) -> bool {
        for r in 0..self.dim {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in self.row(r) {
                if c == r {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            if diag + tol < off {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn laplacian_path(n: usize) -> CsrMatrix {
        // Path-graph Laplacian + identity: SPD, tridiagonal.
        let mut b = CooBuilder::new(n);
        for i in 0..n {
            b.stamp_to_ground(i, 1.0);
        }
        for i in 0..n - 1 {
            b.stamp_conductance(i, i + 1, 1.0);
        }
        b.into_csr().expect("valid matrix")
    }

    #[test]
    fn builder_sums_duplicates() {
        let mut b = CooBuilder::new(1);
        b.add(0, 0, 1.5);
        b.add(0, 0, 2.5);
        let m = b.into_csr().unwrap();
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn builder_drops_exact_cancellations_but_keeps_node_grounded() {
        let mut b = CooBuilder::new(1);
        b.add(0, 0, 1.0);
        b.add(0, 0, -1.0);
        // Summed to zero -> entry dropped -> row empty -> floating node.
        assert_eq!(b.into_csr(), Err(SolverError::FloatingNode { row: 0 }));
    }

    #[test]
    fn builder_rejects_out_of_bounds() {
        let mut b = CooBuilder::new(2);
        b.add(0, 5, 1.0);
        assert!(matches!(
            b.into_csr(),
            Err(SolverError::IndexOutOfBounds { col: 5, .. })
        ));
    }

    #[test]
    fn builder_rejects_nan() {
        let mut b = CooBuilder::new(1);
        b.add(0, 0, f64::NAN);
        assert!(matches!(
            b.into_csr(),
            Err(SolverError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn builder_detects_floating_node() {
        let mut b = CooBuilder::new(3);
        b.add(0, 0, 1.0);
        b.add(2, 2, 1.0);
        assert_eq!(b.into_csr(), Err(SolverError::FloatingNode { row: 1 }));
    }

    #[test]
    fn stamp_conductance_is_symmetric_and_dominant() {
        let m = laplacian_path(8);
        assert!(m.is_symmetric(1e-12));
        assert!(m.is_diagonally_dominant(1e-12));
    }

    #[test]
    fn get_returns_zero_for_structural_zero() {
        let m = laplacian_path(4);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(0, 0), 2.0); // ground 1.0 + one neighbour 1.0
        assert_eq!(m.get(1, 1), 3.0); // ground 1.0 + two neighbours
    }

    #[test]
    fn mul_vec_matches_dense_expansion() {
        let m = laplacian_path(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = m.mul_vec(&x).unwrap();
        for r in 0..5 {
            let mut expect = 0.0;
            for c in 0..5 {
                expect += m.get(r, c) * x[c];
            }
            assert!((y[r] - expect).abs() < 1e-12, "row {r}");
        }
    }

    #[test]
    fn mul_vec_rejects_wrong_length() {
        let m = laplacian_path(3);
        assert!(matches!(
            m.mul_vec(&[1.0, 2.0]),
            Err(SolverError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn identity_roundtrips_vectors() {
        let m = CsrMatrix::identity(4);
        let x = [9.0, -1.0, 0.5, 2.0];
        assert_eq!(m.mul_vec(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn diagonal_extraction() {
        let m = laplacian_path(3);
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 2.0]);
    }

    #[test]
    fn asymmetric_matrix_detected() {
        let mut b = CooBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(1, 1, 1.0);
        b.add(0, 1, -0.5);
        // no (1,0) entry
        let m = b.into_csr().unwrap();
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn row_iterator_is_sorted_by_column() {
        let mut b = CooBuilder::new(3);
        b.add(1, 2, 3.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, 2.0);
        b.add(0, 0, 1.0);
        b.add(2, 2, 1.0);
        let m = b.into_csr().unwrap();
        let row: Vec<_> = m.row(1).collect();
        assert_eq!(row, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
    }
}
