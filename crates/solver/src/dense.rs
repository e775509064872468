use crate::{CsrMatrix, SolverError};

/// A dense, row-major square matrix used for golden-reference solves.
///
/// The dense path plays the role of the commercial sign-off tool (Cadence
/// EPS) in the paper's Figure 4 validation: slow, exact, and used only to
/// cross-check the sparse R-Mesh results on small designs.
///
/// # Examples
///
/// ```
/// use pi3d_solver::DenseMatrix;
///
/// # fn main() -> Result<(), pi3d_solver::SolverError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let x = chol.solve(&[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    dim: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        DenseMatrix {
            dim,
            data: vec![0.0; dim * dim],
        }
    }

    /// Creates a matrix from explicit rows.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if any row's length differs
    /// from the number of rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, SolverError> {
        let dim = rows.len();
        let mut m = DenseMatrix::zeros(dim);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(SolverError::DimensionMismatch {
                    expected: dim,
                    found: row.len(),
                });
            }
            m.data[r * dim..(r + 1) * dim].copy_from_slice(row);
        }
        Ok(m)
    }

    /// Expands a sparse matrix to dense storage.
    pub fn from_csr(sparse: &CsrMatrix) -> Self {
        let dim = sparse.dim();
        let mut m = DenseMatrix::zeros(dim);
        for r in 0..dim {
            for (c, v) in sparse.row(r) {
                m.data[r * dim + c] = v;
            }
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.dim && col < self.dim);
        self.data[row * self.dim + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.dim && col < self.dim);
        self.data[row * self.dim + col] = value;
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
        for r in 0..self.dim {
            let row = &self.data[r * self.dim..(r + 1) * self.dim];
            y[r] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Computes the Cholesky factorization `A = L·Lᵀ`.
    ///
    /// Factors straight into [`CholeskyFactor`]'s packed triangles, four
    /// rows of `L` at a time. Every entry is still one running sum over
    /// ascending `k`, so the factor is bit-identical to the plain
    /// column-by-column loop; four such sums are simply in flight at once.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if a non-positive pivot
    /// is encountered, which for a power grid means a floating subcircuit or
    /// a sign error in stamping.
    pub fn cholesky(&self) -> Result<CholeskyFactor, SolverError> {
        let n = self.dim;
        let mut l = vec![0.0; n * (n + 1) / 2];
        for i0 in (0..n).step_by(BLOCK) {
            let rows = BLOCK.min(n - i0);
            // A column left of the block has an entry in each of its rows;
            // a column inside it only in the rows from its diagonal down.
            for j in 0..i0 + rows {
                let first = j.saturating_sub(i0);
                let x = &l[row_start(j)..row_start(j) + j];
                // Rows without an entry dot `x` with itself into an
                // accumulator that is dropped.
                let mut acc = [0.0; BLOCK];
                let mut lhs = [x; BLOCK];
                for r in first..rows {
                    acc[r] = self.data[(i0 + r) * n + j];
                    lhs[r] = &l[row_start(i0 + r)..row_start(i0 + r) + j];
                }
                let acc = sub_dots(acc, lhs, x);
                let mut below = first;
                if j >= i0 {
                    // Row `i0 + first` is row j: its sum is the pivot.
                    let diag = acc[first];
                    if diag <= 0.0 || !diag.is_finite() {
                        return Err(SolverError::NotPositiveDefinite {
                            index: j,
                            value: diag,
                        });
                    }
                    l[row_start(j) + j] = diag.sqrt();
                    below += 1;
                }
                let pivot = l[row_start(j) + j];
                for r in below..rows {
                    l[row_start(i0 + r) + j] = acc[r] / pivot;
                }
            }
        }
        // Lᵀ by rows, last row first: the backward pass then reads it in
        // one forward sweep.
        let mut lt = Vec::with_capacity(l.len());
        for i in (0..n).rev() {
            lt.extend((i..n).map(|k| l[row_start(k) + i]));
        }
        Ok(CholeskyFactor { dim: n, l, lt })
    }
}

/// Rows the factorization and the forward substitution carry at once.
const BLOCK: usize = 4;

/// Offset of row `i` in a triangle packed by rows (row `i` holds `i + 1`
/// entries).
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// `acc[r] -= Σₖ rows[r][k]·x[k]` for four rows, each sum taken in
/// ascending `k`. One running sum waits on its previous subtraction at
/// every step; four independent ones keep the floating-point unit busy
/// while reading `x` once.
fn sub_dots(mut acc: [f64; BLOCK], rows: [&[f64]; BLOCK], x: &[f64]) -> [f64; BLOCK] {
    let [r0, r1, r2, r3] = rows.map(|row| &row[..x.len()]);
    for (k, &xk) in x.iter().enumerate() {
        acc[0] -= r0[k] * xk;
        acc[1] -= r1[k] * xk;
        acc[2] -= r2[k] * xk;
        acc[3] -= r3[k] * xk;
    }
    acc
}

/// The Cholesky factorization `A = L·Lᵀ` of an SPD matrix.
///
/// Obtained from [`DenseMatrix::cholesky`]; solves `A·x = b` by forward
/// and backward substitution. `L` and `Lᵀ` are each kept as a triangle
/// packed by rows (`n·(n+1)` values in all), so both passes read their
/// factor in memory order: the forward pass rows of `L`, the backward
/// pass rows of `Lᵀ`, which are the columns of `L`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    dim: usize,
    /// `L` by rows: row `i` (`i + 1` entries) starts at `row_start(i)`.
    l: Vec<f64>,
    /// `Lᵀ` by rows from the last up: row `i` is column `i` of `L` from
    /// the diagonal down (`n - i` entries) and starts at
    /// `row_start(n - 1 - i)`.
    lt: Vec<f64>,
}

impl CholeskyFactor {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: `x` holds `b` on entry and the solution
    /// on return.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), SolverError> {
        let n = self.dim;
        if x.len() != n {
            return Err(SolverError::DimensionMismatch {
                expected: n,
                found: x.len(),
            });
        }
        // Forward substitution L·y = b, four rows at a time: the columns
        // left of the block feed all four sums, then the block's own
        // triangle finishes them in order.
        for i0 in (0..n).step_by(BLOCK) {
            let rows = BLOCK.min(n - i0);
            let (solved, rest) = x.split_at(i0);
            // Rows past the end dot `solved` with itself, then are dropped.
            let mut acc = [0.0; BLOCK];
            let mut lhs = [solved; BLOCK];
            for r in 0..rows {
                acc[r] = rest[r];
                lhs[r] = &self.l[row_start(i0 + r)..row_start(i0 + r) + i0];
            }
            let acc = sub_dots(acc, lhs, solved);
            for (r, &partial) in acc.iter().enumerate().take(rows) {
                let i = i0 + r;
                let row = &self.l[row_start(i)..row_start(i) + i + 1];
                let mut sum = partial;
                for (&lik, &xk) in row[i0..i].iter().zip(&x[i0..i]) {
                    sum -= lik * xk;
                }
                x[i] = sum / row[i];
            }
        }
        // Backward substitution Lᵀ·x = y: each sum depends on the one
        // before, so it stays a single chain, streaming its row of Lᵀ.
        let mut start = 0;
        for i in (0..n).rev() {
            let row = &self.lt[start..start + n - i];
            start += n - i;
            let mut sum = x[i];
            for (&lki, &xk) in row[1..].iter().zip(&x[i + 1..]) {
                sum -= lki * xk;
            }
            x[i] = sum / row[0];
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::CooBuilder;
    use pi3d_telemetry::rng::SplitMix64;

    /// The full row-major factor `L` (upper half zero), computed column
    /// by column: the bit-identity reference for the packed factor.
    fn reference_cholesky(a: &DenseMatrix) -> Result<Vec<f64>, SolverError> {
        let n = a.dim;
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let mut diag = a.data[j * n + j];
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(SolverError::NotPositiveDefinite {
                    index: j,
                    value: diag,
                });
            }
            let dsqrt = diag.sqrt();
            l[j * n + j] = dsqrt;
            for i in (j + 1)..n {
                let mut v = a.data[i * n + j];
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / dsqrt;
            }
        }
        Ok(l)
    }

    /// Forward and backward substitution on the full factor, the backward
    /// pass reading `L` down its columns.
    fn reference_solve(l: &[f64], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= l[i * n + k] * y[k];
            }
            y[i] /= l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= l[k * n + i] * y[k];
            }
            y[i] /= l[i * n + i];
        }
        y
    }

    /// A seeded SPD nodal matrix shaped like a PDN: nodes on a square-ish
    /// grid with random strap conductances, random ground ties (node 0
    /// always tied) and a few long-range links standing in for vias.
    fn seeded_grid(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = SplitMix64::new(seed);
        let width = (1..=n).find(|w| w * w >= n).unwrap_or(1);
        let mut b = CooBuilder::new(n);
        b.stamp_to_ground(0, rng.range_f64(1.0, 2.0));
        for node in 0..n {
            if node % width + 1 < width && node + 1 < n {
                b.stamp_conductance(node, node + 1, rng.range_f64(0.5, 1.5));
            }
            if node + width < n {
                b.stamp_conductance(node, node + width, rng.range_f64(0.5, 1.5));
            }
            if rng.chance(0.1) {
                b.stamp_to_ground(node, rng.range_f64(0.0, 10.0));
            }
        }
        for _ in 0..n / 8 {
            let p = rng.next_below(n as u64) as usize;
            let q = rng.next_below(n as u64) as usize;
            if p != q {
                b.stamp_conductance(p, q, rng.range_f64(0.0, 20.0));
            }
        }
        DenseMatrix::from_csr(&b.into_csr().unwrap())
    }

    #[test]
    fn packed_factor_matches_full_matrix_reference_bitwise() {
        // Every remainder of n modulo the four-row block, on both sides
        // of a block boundary, up to the multigrid coarse-level size.
        let sizes = (1..=9).chain([63, 64, 65, 130, 512]);
        for (seed, n) in sizes.enumerate() {
            let a = seeded_grid(n, seed as u64);
            let full = reference_cholesky(&a).unwrap();
            let chol = a.cholesky().unwrap();
            for i in 0..n {
                for j in 0..=i {
                    let want = full[i * n + j].to_bits();
                    assert_eq!(
                        chol.l[row_start(i) + j].to_bits(),
                        want,
                        "n={n} L[{i}][{j}]"
                    );
                    let lt = chol.lt[row_start(n - 1 - j) + (i - j)];
                    assert_eq!(lt.to_bits(), want, "n={n} Lt[{j}][{i}]");
                }
            }
            let mut rng = SplitMix64::new(!(seed as u64));
            let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-0.5, 0.5)).collect();
            let want = reference_solve(&full, &b);
            let got = chol.solve(&b).unwrap();
            let mut in_place = b.clone();
            chol.solve_in_place(&mut in_place).unwrap();
            for i in 0..n {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "n={n} x[{i}]");
                assert_eq!(
                    in_place[i].to_bits(),
                    want[i].to_bits(),
                    "n={n} in place x[{i}]"
                );
            }
        }
    }

    #[test]
    fn packed_factor_fails_at_the_reference_pivot() {
        // Pivots 0 and 5 break down: the first inside the first block,
        // the second inside the second, after rows left of it are done.
        for bad in [0, 5] {
            let mut a = seeded_grid(9, 42);
            a.set(bad, bad, -1.0);
            let want = reference_cholesky(&a).unwrap_err();
            assert_eq!(a.cholesky().unwrap_err(), want, "pivot {bad}");
        }
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn cholesky_solves_known_system() {
        // A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0]
        let a = DenseMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let x = a.cholesky().unwrap().solve(&[2.0, 1.0]).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(SolverError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_zero_matrix() {
        let a = DenseMatrix::zeros(2);
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn from_csr_roundtrip() {
        let mut b = CooBuilder::new(3);
        b.stamp_to_ground(0, 1.0);
        b.stamp_to_ground(1, 1.0);
        b.stamp_to_ground(2, 1.0);
        b.stamp_conductance(0, 1, 2.0);
        b.stamp_conductance(1, 2, 3.0);
        let sparse = b.into_csr().unwrap();
        let dense = DenseMatrix::from_csr(&sparse);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(dense.get(r, c), sparse.get(r, c));
            }
        }
    }

    #[test]
    fn solve_residual_is_tiny_on_grid_matrix() {
        // 1D resistor chain grounded at both ends, uniform injection.
        let n = 20;
        let mut b = CooBuilder::new(n);
        b.stamp_to_ground(0, 10.0);
        b.stamp_to_ground(n - 1, 10.0);
        for i in 0..n - 1 {
            b.stamp_conductance(i, i + 1, 1.0);
        }
        let a = DenseMatrix::from_csr(&b.into_csr().unwrap());
        let rhs = vec![1e-3; n];
        let x = a.cholesky().unwrap().solve(&rhs).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for i in 0..n {
            assert!((ax[i] - rhs[i]).abs() < 1e-12);
        }
        // Symmetry of the chain: solution symmetric about the midpoint.
        for i in 0..n / 2 {
            assert!((x[i] - x[n - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = DenseMatrix::from_rows(&[&[2.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        assert!(chol.solve(&[1.0, 2.0]).is_err());
        assert!(matches!(
            chol.solve_in_place(&mut [1.0, 2.0]),
            Err(SolverError::DimensionMismatch {
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn mul_vec_identity() {
        let mut a = DenseMatrix::zeros(3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        assert_eq!(a.mul_vec(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }
}
