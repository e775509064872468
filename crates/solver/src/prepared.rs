//! Factor-once / solve-many: [`PreparedSystem`] bundles a CSR matrix with
//! its already-built preconditioner so that sweep workloads (IR-drop LUTs,
//! design-space characterization) pay the factorization cost once and then
//! fan independent right-hand sides across a scoped worker pool. It is the
//! only way to run CG.

use crate::lockstep;
use crate::precond::AppliedPreconditioner;
use crate::stencil::{Operator, StencilGrid, StencilOperator};
use crate::{CgSolution, CgSolver, CsrMatrix, Preconditioner, SolverError};
use pi3d_telemetry::par::parallel_map;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable, `Sync` solve handle: a CSR matrix, its preconditioner
/// (built exactly once, at construction), and the CG configuration.
///
/// The production workloads of this workspace — the Section 5.2 IR-drop
/// lookup table and the Section 6.1 design-space sweep — are hundreds of
/// solves of the *same* conductance matrix under different load vectors.
/// A `PreparedSystem` builds the preconditioner (including the IC(0)
/// factorization) once, at construction, so each [`solve`](Self::solve)
/// runs the bare CG iteration, and [`solve_batch`](Self::solve_batch) runs
/// many right-hand sides at once (in lockstep lanes with IC(0)) with
/// deterministic, input-ordered results. A solve runs to completion: it
/// converges, or fails with a typed [`SolverError`].
///
/// # Determinism
///
/// Batch solves take no warm start and share one immutable matrix and
/// preconditioner, so every solve is independent of batch order and thread
/// count: `solve_batch` returns bit-identical solutions for any `threads`,
/// and each equals the corresponding sequential
/// [`solve`](Self::solve)`(rhs, None)`; a lockstep lane does its member's
/// arithmetic in the single solve's order.
///
/// # Examples
///
/// ```
/// use pi3d_solver::{CooBuilder, PreparedSystem, Preconditioner};
///
/// # fn main() -> Result<(), pi3d_solver::SolverError> {
/// let mut b = CooBuilder::new(3);
/// for i in 0..3 {
///     b.stamp_to_ground(i, 1.0);
/// }
/// b.stamp_conductance(0, 1, 1.0);
/// b.stamp_conductance(1, 2, 1.0);
/// let system = PreparedSystem::new(b.into_csr()?, Preconditioner::IncompleteCholesky)?;
/// let batch = vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.0, 1.0]];
/// let solutions = system.solve_batch(&batch)?;
/// assert_eq!(solutions.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PreparedSystem {
    matrix: CsrMatrix,
    stencil: Option<Arc<StencilOperator>>,
    kind: Preconditioner,
    applied: AppliedPreconditioner,
    solver: CgSolver,
    threads: usize,
    solves: AtomicU64,
}

impl PreparedSystem {
    /// Builds the preconditioner for `matrix` once and wraps both with the
    /// default [`CgSolver`] configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if the preconditioner
    /// construction breaks down, and [`SolverError::MissingGridGeometry`]
    /// for [`Preconditioner::Multigrid`], which needs the grid geometry
    /// only [`with_geometry`](Self::with_geometry) supplies.
    pub fn new(matrix: CsrMatrix, preconditioner: Preconditioner) -> Result<Self, SolverError> {
        Self::with_solver(matrix, preconditioner, CgSolver::new())
    }

    /// As [`new`](Self::new), with an explicit solver configuration.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn with_solver(
        matrix: CsrMatrix,
        preconditioner: Preconditioner,
        solver: CgSolver,
    ) -> Result<Self, SolverError> {
        Self::build(matrix, preconditioner, solver, &[])
    }

    /// As [`with_solver`](Self::with_solver), additionally describing the
    /// regular-grid geometry behind `matrix` (the stack's sheets, in node
    /// order). The geometry unlocks two things:
    ///
    /// * **Matrix-free applies** — when the matrix's in-grid structure
    ///   verifies bitwise against the claimed grids (see
    ///   [`StencilOperator::from_csr`]), solves run through the compact
    ///   stencil form. Results are bit-identical either way; irregular
    ///   matrices silently keep the CSR.
    /// * **[`Preconditioner::Multigrid`]** — the geometric hierarchy is
    ///   built from the same grids.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new); multigrid additionally reports
    /// [`SolverError::MissingGridGeometry`] when the grids do not tile
    /// the matrix dimension.
    pub fn with_geometry(
        matrix: CsrMatrix,
        preconditioner: Preconditioner,
        solver: CgSolver,
        grids: &[StencilGrid],
    ) -> Result<Self, SolverError> {
        Self::build(matrix, preconditioner, solver, grids)
    }

    fn build(
        matrix: CsrMatrix,
        preconditioner: Preconditioner,
        solver: CgSolver,
        grids: &[StencilGrid],
    ) -> Result<Self, SolverError> {
        let stencil = if grids.is_empty() {
            None
        } else {
            StencilOperator::from_csr(&matrix, grids).map(Arc::new)
        };
        if let Some(s) = &stencil {
            pi3d_telemetry::metrics::counter("solver.stencil.extracted").incr(1);
            pi3d_telemetry::debug!(
                "stencil operator extracted: {} grids, {} irregular entries",
                s.grid_count(),
                s.extras_nnz()
            );
        }
        let applied = {
            let _span = pi3d_telemetry::span::span("precond_setup");
            AppliedPreconditioner::build_with_geometry(
                preconditioner,
                &matrix,
                grids,
                stencil.as_ref(),
            )?
        };
        pi3d_telemetry::metrics::counter("solver.prepared.builds").incr(1);
        Ok(PreparedSystem {
            matrix,
            stencil,
            kind: preconditioner,
            applied,
            solver,
            threads: 1,
            solves: AtomicU64::new(0),
        })
    }

    /// Sets how many worker threads [`solve_batch`](Self::solve_batch)
    /// runs on. With IC(0) each worker solves four right-hand sides in
    /// lockstep, so a batch of `n` uses at most ⌈n/4⌉ of them; otherwise
    /// each worker solves one at a time. A single [`solve`](Self::solve)
    /// always runs on the calling thread. `0` is treated as `1`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The matrix-free stencil operator, when
    /// [`with_geometry`](Self::with_geometry) extracted one.
    pub fn stencil(&self) -> Option<&StencilOperator> {
        self.stencil.as_deref()
    }

    /// The operator solves apply the system through: the extracted
    /// stencil when available, otherwise the CSR matrix.
    pub fn operator(&self) -> &dyn Operator {
        match &self.stencil {
            Some(s) => s.as_ref(),
            None => &self.matrix,
        }
    }

    /// The preconditioner kind built at construction.
    pub fn preconditioner(&self) -> Preconditioner {
        self.kind
    }

    /// The solver configuration.
    pub fn solver(&self) -> &CgSolver {
        &self.solver
    }

    /// Configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of solves performed through this handle so far.
    pub fn solve_count(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// Solves `A·x = rhs` on the calling thread, reusing the
    /// preconditioner built at construction. CG starts from `guess` when
    /// one is given, otherwise from zero; warm starts pay off on a
    /// sequence of nearby right-hand sides, such as the transient
    /// stepper's time steps.
    ///
    /// # Errors
    ///
    /// * [`SolverError::DimensionMismatch`] if `rhs` or `guess` differs in
    ///   length from the matrix.
    /// * [`SolverError::NotPositiveDefinite`] if CG meets a direction of
    ///   non-positive curvature (the matrix was not SPD).
    /// * [`SolverError::NonConverged`] if the solver's iteration cap is
    ///   hit; the error carries the final iterate.
    pub fn solve(&self, rhs: &[f64], guess: Option<&[f64]>) -> Result<CgSolution, SolverError> {
        self.record_solve(1);
        self.solver
            .solve_prepared(self.operator(), rhs, guess, &self.applied)
    }

    /// Solves one independent right-hand side per entry of `rhs_batch`
    /// on up to [`threads`](Self::threads) scoped worker threads, and
    /// returns the results in input order. With IC(0), each worker runs
    /// four right-hand sides in lockstep, so one pass over the operator
    /// and the factor serves all four; otherwise each worker solves one
    /// at a time. Either way every member is bit-identical to
    /// [`solve`](Self::solve)`(rhs, None)`, at every thread count.
    ///
    /// # Errors
    ///
    /// Returns the first (by input index) solve error, if any.
    pub fn solve_batch(&self, rhs_batch: &[Vec<f64>]) -> Result<Vec<CgSolution>, SolverError> {
        pi3d_telemetry::metrics::counter("solver.prepared.batches").incr(1);
        pi3d_telemetry::metrics::histogram("solver.prepared.batch_size")
            .record(rhs_batch.len() as u64);
        self.record_solve(rhs_batch.len() as u64);
        self.solve_members(rhs_batch).into_iter().collect()
    }

    /// Every member's outcome of a [`solve_batch`](Self::solve_batch),
    /// in input order. IC(0) batches run in lockstep lanes (see
    /// `lockstep.rs`); the other preconditioners solve one right-hand
    /// side per worker at a time.
    pub(crate) fn solve_members(
        &self,
        rhs_batch: &[Vec<f64>],
    ) -> Vec<Result<CgSolution, SolverError>> {
        match &self.applied {
            AppliedPreconditioner::Ic0(ic) => lockstep::solve_batch(self, ic, rhs_batch),
            _ => parallel_map(rhs_batch, self.threads, |index, rhs| {
                // One trace slice per right-hand side, so the batch
                // fan-out renders as per-worker timelines in the flight
                // recorder.
                let _rhs_slice =
                    pi3d_telemetry::trace::span_with("solver", || format!("rhs[{index}]"));
                self.solver
                    .solve_prepared(self.operator(), rhs, None, &self.applied)
            }),
        }
    }

    /// Releases the handle, returning the wrapped matrix.
    pub fn into_matrix(self) -> CsrMatrix {
        self.matrix
    }

    fn record_solve(&self, count: u64) {
        use pi3d_telemetry::metrics;
        let before = self.solves.fetch_add(count, Ordering::Relaxed);
        metrics::counter("solver.prepared.solves").incr(count);
        // Every solve after the first on this handle reuses the
        // preconditioner a fresh handle would have rebuilt.
        let avoided = if before == 0 {
            count.saturating_sub(1)
        } else {
            count
        };
        if avoided > 0 {
            metrics::counter("solver.prepared.factorizations_avoided").incr(avoided);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::CooBuilder;

    fn grid_2d(nx: usize, ny: usize, ground_g: f64) -> CsrMatrix {
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

    fn loads(n: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-random loads.
        let mut v = Vec::with_capacity(n);
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(1e-3 * ((s >> 33) as f64 / (1u64 << 31) as f64));
        }
        v
    }

    /// A fresh handle per solve (the preconditioner rebuilt every call)
    /// and one handle reused across solves give the same bits.
    #[test]
    fn prepared_solve_matches_per_call_solver_bitwise() {
        let a = grid_2d(12, 12, 0.05);
        for pc in [Preconditioner::Jacobi, Preconditioner::IncompleteCholesky] {
            let reused = PreparedSystem::new(a.clone(), pc).unwrap();
            for seed in [7, 8, 9] {
                let b = loads(144, seed);
                let per_call = PreparedSystem::new(a.clone(), pc)
                    .unwrap()
                    .solve(&b, None)
                    .unwrap();
                let again = reused.solve(&b, None).unwrap();
                assert_eq!(per_call.x, again.x, "{pc:?}, seed {seed}");
                assert_eq!(per_call.iterations, again.iterations, "{pc:?}");
            }
        }
    }

    #[test]
    fn solve_batch_is_deterministic_across_thread_counts() {
        let a = grid_2d(10, 10, 0.02);
        let batch: Vec<Vec<f64>> = (0..9).map(|i| loads(100, i)).collect();
        let system = PreparedSystem::new(a, Preconditioner::IncompleteCholesky).unwrap();

        let sequential: Vec<Vec<f64>> = batch
            .iter()
            .map(|rhs| system.solve(rhs, None).unwrap().x)
            .collect();
        for threads in [1, 4] {
            let system =
                PreparedSystem::new(system.matrix().clone(), Preconditioner::IncompleteCholesky)
                    .unwrap()
                    .with_threads(threads);
            let solutions = system.solve_batch(&batch).unwrap();
            for (i, sol) in solutions.iter().enumerate() {
                assert_eq!(sol.x, sequential[i], "threads {threads}, rhs {i}");
            }
        }
    }

    #[test]
    fn solve_batch_reports_first_error_by_index() {
        let a = grid_2d(4, 4, 0.1);
        let system = PreparedSystem::new(a, Preconditioner::Jacobi).unwrap();
        let batch = vec![vec![1.0; 16], vec![1.0; 3], vec![2.0; 16]];
        let err = system.solve_batch(&batch).unwrap_err();
        assert!(matches!(
            err,
            SolverError::DimensionMismatch {
                expected: 16,
                found: 3
            }
        ));
    }

    #[test]
    fn solve_count_tracks_all_paths() {
        let a = grid_2d(4, 4, 0.1);
        let system = PreparedSystem::new(a, Preconditioner::Jacobi).unwrap();
        assert_eq!(system.solve_count(), 0);
        let _ = system.solve(&[1.0; 16], None).unwrap();
        let _ = system.solve_batch(&[vec![1.0; 16], vec![0.5; 16]]).unwrap();
        assert_eq!(system.solve_count(), 3);
    }

    #[test]
    fn builder_accessors() {
        let a = grid_2d(4, 4, 0.1);
        let system = PreparedSystem::with_solver(
            a,
            Preconditioner::IncompleteCholesky,
            CgSolver::new().with_tolerance(1e-8),
        )
        .unwrap()
        .with_threads(0);
        assert_eq!(system.threads(), 1);
        assert_eq!(system.preconditioner(), Preconditioner::IncompleteCholesky);
        assert_eq!(system.solver().tolerance(), 1e-8);
        assert_eq!(system.matrix().dim(), 16);
        let m = system.into_matrix();
        assert_eq!(m.dim(), 16);
    }

    #[test]
    fn with_geometry_extracts_stencil_and_matches_csr_path_bitwise() {
        let a = grid_2d(12, 12, 0.05);
        let grids = [StencilGrid {
            base: 0,
            nx: 12,
            ny: 12,
        }];
        let b = loads(144, 11);
        for pc in [Preconditioner::Jacobi, Preconditioner::IncompleteCholesky] {
            let csr_path = PreparedSystem::new(a.clone(), pc).unwrap();
            let stencil_path =
                PreparedSystem::with_geometry(a.clone(), pc, CgSolver::new(), &grids).unwrap();
            assert!(stencil_path.stencil().is_some(), "{pc:?}");
            let want = csr_path.solve(&b, None).unwrap();
            let got = stencil_path.solve(&b, None).unwrap();
            assert_eq!(want.x, got.x, "{pc:?}");
            assert_eq!(want.iterations, got.iterations, "{pc:?}");
        }
    }

    #[test]
    fn multigrid_through_with_geometry_converges_and_matches_jacobi() {
        let a = grid_2d(24, 24, 0.01);
        let grids = [StencilGrid {
            base: 0,
            nx: 24,
            ny: 24,
        }];
        let b = loads(576, 3);
        let jacobi = PreparedSystem::new(a.clone(), Preconditioner::Jacobi)
            .unwrap()
            .solve(&b, None)
            .unwrap();
        let mg_sys =
            PreparedSystem::with_geometry(a, Preconditioner::Multigrid, CgSolver::new(), &grids)
                .unwrap();
        let mg = mg_sys.solve(&b, None).unwrap();
        assert!(
            mg.iterations < jacobi.iterations,
            "mg {} vs jacobi {}",
            mg.iterations,
            jacobi.iterations
        );
        for (x, y) in mg.x.iter().zip(&jacobi.x) {
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }

    #[test]
    fn multigrid_without_grids_is_a_typed_error() {
        let a = grid_2d(8, 8, 0.1);
        let err = PreparedSystem::new(a, Preconditioner::Multigrid).unwrap_err();
        assert!(matches!(err, SolverError::MissingGridGeometry));
    }

    #[test]
    fn single_solve_ignores_the_thread_budget() {
        let a = grid_2d(14, 14, 0.05);
        let b = loads(196, 19);
        let solve = |threads| {
            PreparedSystem::new(a.clone(), Preconditioner::Jacobi)
                .unwrap()
                .with_threads(threads)
                .solve(&b, None)
                .unwrap()
        };
        let (one, eight) = (solve(1), solve(8));
        assert_eq!(one.x, eight.x);
        assert_eq!(one.iterations, eight.iterations);
    }
}
