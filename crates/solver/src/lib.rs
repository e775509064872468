//! Sparse and dense linear solvers for resistive-mesh power-grid analysis.
//!
//! This crate is the numerical substrate of the `pi3d` workspace. A DC
//! power-grid (R-Mesh) reduces, after nodal analysis, to a symmetric
//! positive-definite (SPD) linear system `G·v = i`, where `G` is the nodal
//! conductance matrix, `i` the vector of injected currents, and `v` the
//! unknown node voltages. Two solution paths are provided:
//!
//! * [`CsrMatrix`] + [`PreparedSystem`] — sparse storage with a
//!   preconditioned conjugate-gradient iteration. This is the fast
//!   "R-Mesh" path used for all production analysis, playing the role
//!   HSPICE plays in the paper. A `PreparedSystem` builds the
//!   preconditioner once per matrix and is the one way to run CG;
//!   [`CgSolver`] carries its tolerance and iteration cap.
//! * [`DenseMatrix`] + [`CholeskyFactor`] — a dense direct factorization
//!   used as the *golden reference* when validating the R-Mesh results
//!   (the stand-in for Cadence Encounter Power System in Figure 4 of the
//!   paper).
//!
//! # Examples
//!
//! Solve a tiny resistor-divider system:
//!
//! ```
//! use pi3d_solver::{CooBuilder, Preconditioner, PreparedSystem};
//!
//! # fn main() -> Result<(), pi3d_solver::SolverError> {
//! // Two unknown nodes joined by 1 S, each tied to ground by 1 S:
//! //   [ 2 -1 ] [v0]   [1]
//! //   [-1  2 ] [v1] = [0]
//! let mut builder = CooBuilder::new(2);
//! builder.add(0, 0, 2.0);
//! builder.add(1, 1, 2.0);
//! builder.add(0, 1, -1.0);
//! builder.add(1, 0, -1.0);
//! let matrix = builder.into_csr()?;
//!
//! let system = PreparedSystem::new(matrix, Preconditioner::Jacobi)?;
//! let solution = system.solve(&[1.0, 0.0], None)?;
//! assert!((solution.x[0] - 2.0 / 3.0).abs() < 1e-9);
//! assert!((solution.x[1] - 1.0 / 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Index-based loops are the clearer idiom in the numeric kernels below
// (parallel arrays with shared indices).
#![allow(clippy::needless_range_loop)]
#![warn(missing_debug_implementations)]
// User-reachable failures must surface as typed errors, not panics.
#![warn(clippy::unwrap_used)]

mod cg;
mod csr;
mod dense;
mod error;
mod lockstep;
mod multigrid;
mod precond;
mod prepared;
mod stencil;
pub mod vecops;

pub use cg::{CgSolution, CgSolver};
pub use csr::{CooBuilder, CsrMatrix};
pub use dense::{CholeskyFactor, DenseMatrix};
pub use error::SolverError;
pub use multigrid::Multigrid;
pub use precond::{IncompleteCholesky, JacobiScaling, Preconditioner};
pub use prepared::PreparedSystem;
pub use stencil::{Operator, StencilGrid, StencilOperator};
