use std::sync::Arc;

use crate::multigrid::Multigrid;
use crate::stencil::{StencilGrid, StencilOperator};
use crate::{CsrMatrix, SolverError};

/// Preconditioner selection for [`CgSolver`](crate::CgSolver).
///
/// Power-grid conductance matrices are SPD and strongly diagonally dominant,
/// so Jacobi is usually sufficient; IC(0) roughly halves iteration counts on
/// ill-conditioned meshes (very low metal usage) at the cost of a
/// factorization pass. Multigrid keeps iteration counts ~flat as the mesh
/// is refined, but needs the stack's grid geometry to build (see
/// [`PreparedSystem::with_geometry`](crate::PreparedSystem::with_geometry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Preconditioner {
    /// No preconditioning (plain CG).
    Identity,
    /// Diagonal (Jacobi) scaling. The default.
    #[default]
    Jacobi,
    /// Zero fill-in incomplete Cholesky, IC(0).
    IncompleteCholesky,
    /// Geometric multigrid V-cycle (see [`Multigrid`]). Requires grid
    /// geometry at build time.
    Multigrid,
}

/// A concrete, applied preconditioner `M ≈ A` supporting `z = M⁻¹·r`.
///
/// Building one (in particular the IC(0) factorization) is the expensive,
/// matrix-dependent part of a preconditioned CG solve. An
/// `AppliedPreconditioner` is immutable and `Sync` once built, so it can be
/// constructed once per matrix and shared across many solves and threads —
/// the factor-once/solve-many pattern exposed by
/// [`PreparedSystem`](crate::PreparedSystem).
pub enum AppliedPreconditioner {
    /// No preconditioning.
    Identity,
    /// Diagonal (Jacobi) scaling.
    Jacobi(JacobiScaling),
    /// Zero fill-in incomplete Cholesky factors.
    Ic0(IncompleteCholesky),
    /// Geometric multigrid V-cycle hierarchy.
    Multigrid(Multigrid),
}

impl std::fmt::Debug for AppliedPreconditioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppliedPreconditioner::Identity => f.write_str("AppliedPreconditioner::Identity"),
            AppliedPreconditioner::Jacobi(_) => f.write_str("AppliedPreconditioner::Jacobi"),
            AppliedPreconditioner::Ic0(_) => f.write_str("AppliedPreconditioner::Ic0"),
            AppliedPreconditioner::Multigrid(_) => f.write_str("AppliedPreconditioner::Multigrid"),
        }
    }
}

impl AppliedPreconditioner {
    /// Builds the concrete preconditioner of `kind` for the matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if the diagonal scaling
    /// or IC(0) factorization breaks down, and
    /// [`SolverError::MissingGridGeometry`] for
    /// [`Preconditioner::Multigrid`], which needs the grid geometry only
    /// [`build_with_geometry`](Self::build_with_geometry) supplies.
    pub fn build(kind: Preconditioner, a: &CsrMatrix) -> Result<Self, SolverError> {
        match kind {
            Preconditioner::Multigrid => Err(SolverError::MissingGridGeometry),
            _ => Self::build_with_geometry(kind, a, &[], None),
        }
    }

    /// Builds the concrete preconditioner of `kind` for the matrix `a`,
    /// supplying the stack's grid geometry (and, when one was extracted,
    /// the matrix-free stencil operator to share for fine-level applies)
    /// so [`Preconditioner::Multigrid`] can construct its hierarchy.
    /// Other kinds ignore the geometry.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build); multigrid additionally reports
    /// [`SolverError::MissingGridGeometry`] when `grids` do not tile the
    /// matrix dimension.
    pub fn build_with_geometry(
        kind: Preconditioner,
        a: &CsrMatrix,
        grids: &[StencilGrid],
        stencil: Option<&Arc<StencilOperator>>,
    ) -> Result<Self, SolverError> {
        pi3d_telemetry::metrics::counter("solver.precond.builds").incr(1);
        pi3d_telemetry::trace!("building {kind:?} preconditioner for n={}", a.dim());
        match kind {
            Preconditioner::Identity => Ok(AppliedPreconditioner::Identity),
            Preconditioner::Jacobi => Ok(AppliedPreconditioner::Jacobi(JacobiScaling::new(a)?)),
            Preconditioner::IncompleteCholesky => {
                Ok(AppliedPreconditioner::Ic0(IncompleteCholesky::new(a)?))
            }
            Preconditioner::Multigrid => Ok(AppliedPreconditioner::Multigrid(Multigrid::new(
                a,
                grids,
                stencil.cloned(),
            )?)),
        }
    }

    /// Applies `z = M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` length differs from the matrix dimension the
    /// preconditioner was built for.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            AppliedPreconditioner::Identity => z.copy_from_slice(r),
            AppliedPreconditioner::Jacobi(j) => j.apply(r, z),
            AppliedPreconditioner::Ic0(ic) => ic.apply(r, z),
            AppliedPreconditioner::Multigrid(mg) => mg.apply(r, z),
        }
    }
}

/// Diagonal (Jacobi) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiScaling {
    inv_diag: Vec<f64>,
}

impl JacobiScaling {
    /// Builds the preconditioner from the diagonal of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if any diagonal entry is
    /// not strictly positive.
    pub fn new(a: &CsrMatrix) -> Result<Self, SolverError> {
        let diag = a.diagonal();
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::NotPositiveDefinite { index: i, value: d });
            }
        }
        Ok(JacobiScaling {
            inv_diag: diag.iter().map(|d| 1.0 / d).collect(),
        })
    }

    /// Applies `z = diag(A)⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` length differs from the matrix dimension.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len());
        assert_eq!(z.len(), self.inv_diag.len());
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

/// Zero fill-in incomplete Cholesky factorization, IC(0).
///
/// Factors `A ≈ L·Lᵀ` where `L` keeps exactly the sparsity pattern of the
/// lower triangle of `A`. Application solves the two triangular systems.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    dim: usize,
    // Lower-triangular CSR (including diagonal, stored last in each row).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl IncompleteCholesky {
    /// Computes the IC(0) factorization of an SPD sparse matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if a pivot breakdown
    /// occurs (possible for IC(0) even on SPD matrices, though rare for
    /// diagonally dominant grids).
    pub fn new(a: &CsrMatrix) -> Result<Self, SolverError> {
        let n = a.dim();
        // Extract the lower triangle pattern (columns sorted; diagonal last).
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        row_ptr.push(0);
        for r in 0..n {
            for (c, v) in a.row(r) {
                if c <= r {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }

        // In-place IKJ-style factorization restricted to the pattern.
        // For each row i, for each k < i in pattern: l_ik /= l_kk, then
        // update remaining entries of row i that also exist in row k.
        for i in 0..n {
            let (lo_i, hi_i) = (row_ptr[i], row_ptr[i + 1]);
            for ki in lo_i..hi_i {
                let k = col_idx[ki] as usize;
                if k == i {
                    // Diagonal: subtract squares of prior entries, sqrt.
                    let mut d = values[ki];
                    for kk in lo_i..ki {
                        d -= values[kk] * values[kk];
                    }
                    if d <= 0.0 || !d.is_finite() {
                        return Err(SolverError::NotPositiveDefinite { index: i, value: d });
                    }
                    values[ki] = d.sqrt();
                } else {
                    // Off-diagonal l_ik = (a_ik - Σ_{j<k} l_ij·l_kj) / l_kk
                    let mut v = values[ki];
                    let (lo_k, hi_k) = (row_ptr[k], row_ptr[k + 1]);
                    // Merge-walk the two sorted rows over columns < k.
                    let mut pi = lo_i;
                    let mut pk = lo_k;
                    while pi < ki && pk < hi_k - 1 {
                        let ci = col_idx[pi];
                        let ck = col_idx[pk];
                        match ci.cmp(&ck) {
                            std::cmp::Ordering::Less => pi += 1,
                            std::cmp::Ordering::Greater => pk += 1,
                            std::cmp::Ordering::Equal => {
                                v -= values[pi] * values[pk];
                                pi += 1;
                                pk += 1;
                            }
                        }
                    }
                    let diag_k = values[hi_k - 1];
                    values[ki] = v / diag_k;
                }
            }
        }

        Ok(IncompleteCholesky {
            dim: n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Applies `z = (L·Lᵀ)⁻¹·r` via forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` length differs from the matrix dimension.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.dim);
        assert_eq!(z.len(), self.dim);
        // Forward: L·y = r (diagonal stored last in each row).
        z.copy_from_slice(r);
        for i in 0..self.dim {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = z[i];
            for k in lo..hi - 1 {
                acc -= self.values[k] * z[self.col_idx[k] as usize];
            }
            z[i] = acc / self.values[hi - 1];
        }
        // Backward: Lᵀ·z = y. Traverse rows in reverse, scattering.
        for i in (0..self.dim).rev() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            z[i] /= self.values[hi - 1];
            let zi = z[i];
            for k in lo..hi - 1 {
                z[self.col_idx[k] as usize] -= self.values[k] * zi;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::CooBuilder;

    fn grid_matrix(n: usize) -> CsrMatrix {
        // 1D chain grounded at both ends.
        let mut b = CooBuilder::new(n);
        b.stamp_to_ground(0, 2.0);
        b.stamp_to_ground(n - 1, 2.0);
        for i in 0..n - 1 {
            b.stamp_conductance(i, i + 1, 1.0);
        }
        b.into_csr().unwrap()
    }

    #[test]
    fn jacobi_inverts_diagonal() {
        let a = grid_matrix(4);
        let j = JacobiScaling::new(&a).unwrap();
        let r = vec![3.0, 2.0, 2.0, 3.0];
        let mut z = vec![0.0; 4];
        j.apply(&r, &mut z);
        for i in 0..4 {
            assert!((z[i] * a.get(i, i) - r[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_rejects_nonpositive_diagonal() {
        let mut b = CooBuilder::new(2);
        b.add(0, 0, -1.0);
        b.add(1, 1, 1.0);
        let a = b.into_csr().unwrap();
        assert!(matches!(
            JacobiScaling::new(&a),
            Err(SolverError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn ic0_on_tridiagonal_is_exact() {
        // For a tridiagonal SPD matrix IC(0) equals the full Cholesky factor,
        // so applying it must solve the system exactly.
        let a = grid_matrix(10);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let r: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let mut z = vec![0.0; 10];
        ic.apply(&r, &mut z);
        let az = a.mul_vec(&z).unwrap();
        for i in 0..10 {
            assert!(
                (az[i] - r[i]).abs() < 1e-10,
                "residual at {i}: {}",
                az[i] - r[i]
            );
        }
    }

    #[test]
    fn ic0_application_is_spd_like() {
        // z = M^-1 r should satisfy r.z > 0 for r != 0 (M SPD).
        let a = grid_matrix(16);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let r: Vec<f64> = (0..16)
            .map(|i| if i % 3 == 0 { -1.0 } else { 0.5 })
            .collect();
        let mut z = vec![0.0; 16];
        ic.apply(&r, &mut z);
        let dot: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        assert!(dot > 0.0);
    }

    #[test]
    fn ic0_rejects_indefinite() {
        let mut b = CooBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(1, 1, 1.0);
        b.add(0, 1, -2.0);
        b.add(1, 0, -2.0);
        let a = b.into_csr().unwrap();
        assert!(matches!(
            IncompleteCholesky::new(&a),
            Err(SolverError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn default_preconditioner_is_jacobi() {
        assert_eq!(Preconditioner::default(), Preconditioner::Jacobi);
    }

    #[test]
    fn multigrid_without_geometry_is_a_typed_error() {
        let a = grid_matrix(8);
        assert!(matches!(
            AppliedPreconditioner::build(Preconditioner::Multigrid, &a),
            Err(SolverError::MissingGridGeometry)
        ));
    }
}
