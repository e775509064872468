use crate::CgSolution;
use std::error::Error;
use std::fmt;

/// Errors produced while assembling or solving linear systems.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// A matrix entry referenced a row or column outside the matrix.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Declared dimension of the (square) matrix.
        dim: usize,
    },
    /// The right-hand side (or an initial guess) had the wrong length.
    DimensionMismatch {
        /// Dimension expected by the matrix.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// The matrix is not positive definite (a non-positive pivot or
    /// diagonal was encountered).
    NotPositiveDefinite {
        /// Index at which definiteness failed.
        index: usize,
        /// Offending pivot/diagonal value.
        value: f64,
    },
    /// The iterative solver failed to reach the requested tolerance.
    ///
    /// The work already performed is not discarded: `partial` carries the
    /// best iterate, its residual trace, and the iteration count, so
    /// callers can inspect how the solve diverged, warm-start a retry, or
    /// hand the iterate to a fallback solver.
    NonConverged {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Relative residual norm at the final iteration.
        residual: f64,
        /// Tolerance that was requested.
        tolerance: f64,
        /// The final iterate and its per-iteration residual trace.
        partial: Box<CgSolution>,
    },
    /// A matrix value was NaN or infinite.
    NonFiniteValue {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
    },
    /// The matrix has an empty row, i.e. a node with no connections.
    FloatingNode {
        /// Row index of the disconnected node.
        row: usize,
    },
    /// Multigrid preconditioning was requested without usable grid
    /// geometry: either the system was prepared without any
    /// [`StencilGrid`](crate::StencilGrid) description (use
    /// [`PreparedSystem::with_geometry`](crate::PreparedSystem::with_geometry)),
    /// or the supplied grids do not tile the matrix dimension.
    MissingGridGeometry,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SolverError::IndexOutOfBounds { row, col, dim } => {
                write!(
                    f,
                    "entry ({row}, {col}) out of bounds for {dim}x{dim} matrix"
                )
            }
            SolverError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "vector length {found} does not match matrix dimension {expected}"
                )
            }
            SolverError::NotPositiveDefinite { index, value } => {
                write!(
                    f,
                    "matrix not positive definite: pivot {value:.3e} at index {index}"
                )
            }
            SolverError::NonConverged {
                iterations,
                residual,
                tolerance,
                ..
            } => {
                write!(
                    f,
                    "conjugate gradient failed to converge after {iterations} iterations \
                     (residual {residual:.3e}, tolerance {tolerance:.3e})"
                )
            }
            SolverError::NonFiniteValue { row, col } => {
                write!(f, "non-finite matrix value at ({row}, {col})")
            }
            SolverError::FloatingNode { row } => {
                write!(
                    f,
                    "node {row} has no conductance to any other node or supply"
                )
            }
            SolverError::MissingGridGeometry => {
                write!(
                    f,
                    "multigrid preconditioner requires regular grid geometry tiling the \
                     system (prepare the system with its stack's grids, e.g. \
                     PreparedSystem::with_geometry)"
                )
            }
        }
    }
}

impl Error for SolverError {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = SolverError::IndexOutOfBounds {
            row: 3,
            col: 4,
            dim: 2,
        };
        assert_eq!(e.to_string(), "entry (3, 4) out of bounds for 2x2 matrix");

        let e = SolverError::DimensionMismatch {
            expected: 5,
            found: 4,
        };
        assert!(e.to_string().contains("length 4"));
        assert!(e.to_string().contains("dimension 5"));

        let e = SolverError::NonConverged {
            iterations: 10,
            residual: 1e-3,
            tolerance: 1e-9,
            partial: Box::new(CgSolution {
                x: vec![0.0; 4],
                iterations: 10,
                relative_residual: 1e-3,
                residual_trace: vec![1e-1, 1e-2, 1e-3],
            }),
        };
        assert!(e.to_string().contains("10 iterations"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverError>();
    }

    #[test]
    fn error_implements_std_error() {
        let e: Box<dyn Error> = Box::new(SolverError::FloatingNode { row: 7 });
        assert!(e.to_string().contains("node 7"));
    }
}
