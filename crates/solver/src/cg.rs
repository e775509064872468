use crate::precond::AppliedPreconditioner;
use crate::stencil::Operator;
use crate::vecops;
use crate::SolverError;

/// Iterations per flight-recorder trace slice: individual CG iterations
/// are too fine to trace one-by-one, so the iteration loop emits one
/// `cg_iters[a..b)` slice (plus a `cg_relres` counter sample) per block.
const CG_TRACE_BLOCK: usize = 64;

/// Result of a successful conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The solution vector `x` with `A·x ≈ b`.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
    /// Relative residual after each iteration: the starting residual
    /// alone when the initial guess already meets the tolerance, empty
    /// when `b` is zero.
    pub residual_trace: Vec<f64>,
}

fn record_solve(iterations: usize, relres: f64, trace: &[f64]) {
    use pi3d_telemetry::{metrics, report};
    metrics::counter("solver.cg.solves").incr(1);
    metrics::counter("solver.cg.iterations").incr(iterations as u64);
    metrics::histogram("solver.cg.iterations_per_solve").record(iterations as u64);
    report::record_convergence("cg", iterations as u64, relres, trace);
    pi3d_telemetry::debug!("cg converged: {iterations} iterations, relres {relres:.3e}");
}

/// Configuration of the preconditioned conjugate-gradient iteration for
/// SPD systems: the relative-residual tolerance and the iteration cap.
///
/// The nodal conductance matrix of an R-Mesh is SPD once supply nodes are
/// eliminated, and CG converges in `O(√κ)` iterations. A `CgSolver` only
/// holds configuration; solves run through the
/// [`PreparedSystem`](crate::PreparedSystem) it is handed to, which builds
/// the preconditioner once per matrix.
///
/// # Examples
///
/// ```
/// use pi3d_solver::{CgSolver, CooBuilder, Preconditioner, PreparedSystem};
///
/// # fn main() -> Result<(), pi3d_solver::SolverError> {
/// let mut b = CooBuilder::new(3);
/// for i in 0..3 {
///     b.stamp_to_ground(i, 1.0);
/// }
/// b.stamp_conductance(0, 1, 1.0);
/// b.stamp_conductance(1, 2, 1.0);
/// let system = PreparedSystem::with_solver(
///     b.into_csr()?,
///     Preconditioner::IncompleteCholesky,
///     CgSolver::new().with_tolerance(1e-12),
/// )?;
/// let sol = system.solve(&[1.0, 0.0, 0.0], None)?;
/// assert!(sol.relative_residual < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolver {
    tolerance: f64,
    max_iterations: usize,
}

impl Default for CgSolver {
    fn default() -> Self {
        CgSolver {
            tolerance: 1e-10,
            max_iterations: 20_000,
        }
    }
}

impl CgSolver {
    /// Creates a solver with the default tolerance (`1e-10`) and iteration
    /// cap (`20_000`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the relative-residual convergence tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not strictly positive and finite.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "tolerance must be positive"
        );
        self.tolerance = tolerance;
        self
    }

    /// Sets the maximum iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        assert!(max_iterations > 0, "max_iterations must be nonzero");
        self.max_iterations = max_iterations;
        self
    }

    /// Configured relative tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Configured iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Solves `A·x = b` on the calling thread with an already-built
    /// preconditioner, applying the system through any [`Operator`] —
    /// general CSR storage or the matrix-free stencil form. This is the
    /// one CG loop; [`PreparedSystem`](crate::PreparedSystem) calls it
    /// with the preconditioner it built for `a`.
    ///
    /// # Errors
    ///
    /// * [`SolverError::DimensionMismatch`] if `b` or `guess` differs in
    ///   length from `a`.
    /// * [`SolverError::NotPositiveDefinite`] if a direction of
    ///   non-positive curvature is met (the matrix was not SPD).
    /// * [`SolverError::NonConverged`] if the iteration cap is hit.
    ///
    /// The caller is responsible for `m` matching `a`; a mismatched
    /// preconditioner panics on dimension asserts or fails to converge.
    pub(crate) fn solve_prepared(
        &self,
        a: &dyn Operator,
        b: &[f64],
        guess: Option<&[f64]>,
        m: &AppliedPreconditioner,
    ) -> Result<CgSolution, SolverError> {
        let n = a.dim();
        if b.len() != n {
            return Err(SolverError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        if let Some(g) = guess {
            if g.len() != n {
                return Err(SolverError::DimensionMismatch {
                    expected: n,
                    found: g.len(),
                });
            }
        }

        let _solve_span = pi3d_telemetry::span::span("cg_solve");

        let norm_b = vecops::norm2(b);
        if norm_b == 0.0 {
            return Ok(CgSolution {
                x: vec![0.0; n],
                iterations: 0,
                relative_residual: 0.0,
                residual_trace: Vec::new(),
            });
        }

        let mut x = guess.map(<[f64]>::to_vec).unwrap_or_else(|| vec![0.0; n]);
        // r = b - A·x
        let mut r = vec![0.0; n];
        a.apply_into(&x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let mut z = vec![0.0; n];
        {
            let _apply_slice = pi3d_telemetry::trace::span("solver", "precond_apply");
            m.apply(&r, &mut z);
        }
        let mut p = z.clone();
        let mut rz = vecops::dot(&r, &z);
        let mut ap = vec![0.0; n];

        // Pre-sized to a typical preconditioned iteration count so the
        // per-iteration push below does not reallocate on the hot path.
        let mut residual_trace: Vec<f64> = Vec::with_capacity(128);

        let mut relres = vecops::norm2(&r) / norm_b;
        if relres <= self.tolerance {
            residual_trace.push(relres);
            record_solve(0, relres, &residual_trace);
            return Ok(CgSolution {
                x,
                iterations: 0,
                relative_residual: relres,
                residual_trace,
            });
        }

        let _iter_span = pi3d_telemetry::span::span("cg_iterations");
        let mut _iter_block = pi3d_telemetry::trace::span_with("solver", || {
            format!("cg_iters[1..{})", 1 + CG_TRACE_BLOCK)
        });

        for iter in 1..=self.max_iterations {
            if iter > 1 && (iter - 1) % CG_TRACE_BLOCK == 0 {
                // Close the finished block before opening the next so
                // sibling slices never overlap in the trace.
                _iter_block = pi3d_telemetry::trace::noop();
                _iter_block = pi3d_telemetry::trace::span_with("solver", || {
                    format!("cg_iters[{iter}..{})", iter + CG_TRACE_BLOCK)
                });
                pi3d_telemetry::trace::counter("solver", "cg_relres", relres);
            }
            a.apply_into(&p, &mut ap);
            let pap = vecops::dot(&p, &ap);
            if pap <= 0.0 || !pap.is_finite() {
                return Err(SolverError::NotPositiveDefinite {
                    index: iter,
                    value: pap,
                });
            }
            let alpha = rz / pap;
            vecops::axpy(alpha, &p, &mut x);
            vecops::axpy(-alpha, &ap, &mut r);

            relres = vecops::norm2(&r) / norm_b;
            residual_trace.push(relres);
            if relres <= self.tolerance {
                record_solve(iter, relres, &residual_trace);
                return Ok(CgSolution {
                    x,
                    iterations: iter,
                    relative_residual: relres,
                    residual_trace,
                });
            }

            {
                let _apply_slice = pi3d_telemetry::trace::span("solver", "precond_apply");
                m.apply(&r, &mut z);
            }
            let rz_next = vecops::dot(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            vecops::xpby(&z, beta, &mut p);
        }

        pi3d_telemetry::metrics::counter("solver.cg.failures").incr(1);
        pi3d_telemetry::warn!(
            "cg failed to converge: {} iterations, relres {relres:.3e} > tol {:.1e}",
            self.max_iterations,
            self.tolerance
        );
        // The final iterate is still the best available approximation;
        // hand it back so callers can warm-start a retry or fall back to
        // a direct solve instead of discarding the work.
        Err(SolverError::NonConverged {
            iterations: self.max_iterations,
            residual: relres,
            tolerance: self.tolerance,
            partial: Box::new(CgSolution {
                x,
                iterations: self.max_iterations,
                relative_residual: relres,
                residual_trace,
            }),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{CooBuilder, CsrMatrix, DenseMatrix, Preconditioner, PreparedSystem};

    fn grid_2d(nx: usize, ny: usize, ground_g: f64) -> CsrMatrix {
        // 2D grid with every node weakly grounded (models bump tie-offs).
        let idx = |x: usize, y: usize| y * nx + x;
        let mut b = CooBuilder::new(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                b.stamp_to_ground(idx(x, y), ground_g);
                if x + 1 < nx {
                    b.stamp_conductance(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < ny {
                    b.stamp_conductance(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        b.into_csr().unwrap()
    }

    /// One cold solve of `a·x = b` through a fresh handle.
    fn solve(
        a: &CsrMatrix,
        b: &[f64],
        pc: Preconditioner,
        solver: CgSolver,
    ) -> Result<CgSolution, SolverError> {
        PreparedSystem::with_solver(a.clone(), pc, solver)?.solve(b, None)
    }

    #[test]
    fn cg_matches_direct_solve_on_grid() {
        let a = grid_2d(8, 8, 0.05);
        let b: Vec<f64> = (0..64).map(|i| 1e-3 * ((i % 7) as f64 + 1.0)).collect();
        let dense = DenseMatrix::from_csr(&a);
        let exact = dense.cholesky().unwrap().solve(&b).unwrap();

        for pc in [Preconditioner::Jacobi, Preconditioner::IncompleteCholesky] {
            let sol = solve(&a, &b, pc, CgSolver::new().with_tolerance(1e-12)).unwrap();
            for i in 0..64 {
                assert!(
                    (sol.x[i] - exact[i]).abs() < 1e-8,
                    "{pc:?}: node {i} differs: {} vs {}",
                    sol.x[i],
                    exact[i]
                );
            }
        }
    }

    /// A spatially non-uniform load (hotspot in one corner) so that the
    /// solution is far from the constant vector and CG needs real work.
    fn hotspot_load(nx: usize, ny: usize) -> Vec<f64> {
        let mut b = vec![0.0; nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                let d = ((x * x + y * y) as f64).sqrt();
                b[y * nx + x] = 1e-3 / (1.0 + d * d);
            }
        }
        b
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let a = grid_2d(16, 16, 0.01);
        let b = hotspot_load(16, 16);
        let jacobi = solve(&a, &b, Preconditioner::Jacobi, CgSolver::new()).unwrap();
        let ic = solve(&a, &b, Preconditioner::IncompleteCholesky, CgSolver::new()).unwrap();
        assert!(
            ic.iterations < jacobi.iterations,
            "IC(0) ({}) should beat Jacobi ({})",
            ic.iterations,
            jacobi.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = grid_2d(4, 4, 0.1);
        let sol = solve(&a, &[0.0; 16], Preconditioner::Jacobi, CgSolver::new()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        let a = grid_2d(12, 12, 0.02);
        let b = hotspot_load(12, 12);
        let system = PreparedSystem::new(a, Preconditioner::Jacobi).unwrap();
        let cold = system.solve(&b, None).unwrap();
        // Perturb the load slightly and re-solve from the previous solution.
        let b2: Vec<f64> = b.iter().map(|v| v * 1.01).collect();
        let warm = system.solve(&b2, Some(&cold.x)).unwrap();
        let cold2 = system.solve(&b2, None).unwrap();
        assert!(warm.iterations < cold2.iterations);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = grid_2d(2, 2, 1.0);
        let system = PreparedSystem::new(a, Preconditioner::Jacobi).unwrap();
        for (rhs, guess) in [(&[1.0][..], None), (&[1.0; 4][..], Some(&[0.0][..]))] {
            let err = system.solve(rhs, guess).unwrap_err();
            assert!(matches!(
                err,
                SolverError::DimensionMismatch {
                    expected: 4,
                    found: 1
                }
            ));
        }
    }

    #[test]
    fn indefinite_matrix_detected_during_iteration() {
        // Unit diagonal, so Jacobi scaling leaves plain CG.
        let mut b = CooBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(1, 1, 1.0);
        b.add(0, 1, -3.0);
        b.add(1, 0, -3.0);
        let a = b.into_csr().unwrap();
        let err = solve(&a, &[1.0, 1.0], Preconditioner::Jacobi, CgSolver::new()).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn iteration_cap_produces_convergence_failure() {
        let a = grid_2d(16, 16, 1e-6);
        let b = hotspot_load(16, 16);
        let solver = CgSolver::new().with_tolerance(1e-14).with_max_iterations(2);
        let err = solve(&a, &b, Preconditioner::Jacobi, solver).unwrap_err();
        let SolverError::NonConverged {
            iterations: 2,
            partial,
            ..
        } = err
        else {
            panic!("expected NonConverged, got {err:?}");
        };
        // The partial iterate is preserved, not discarded.
        assert_eq!(partial.x.len(), 256);
        assert!(partial.x.iter().any(|&v| v != 0.0));
        assert_eq!(partial.iterations, 2);
        assert_eq!(partial.residual_trace.len(), 2);
    }

    #[test]
    fn builder_style_configuration() {
        let s = CgSolver::new().with_tolerance(1e-6).with_max_iterations(50);
        assert_eq!(s.tolerance(), 1e-6);
        assert_eq!(s.max_iterations(), 50);
    }
}
