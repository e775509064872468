//! `pi3d` — DC power-integrity co-optimization platform for 3D-stacked DRAM.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`solver`] — sparse/dense linear solvers (CSR + CG, Cholesky golden).
//! * [`layout`] — 3D DRAM designs: floorplans, power maps, PDN/TSV/RDL/
//!   bonding options, benchmarks, and the Table 8 cost model.
//! * [`mesh`] — R-Mesh extraction and IR-drop analysis.
//! * [`memsim`] — cycle-accurate memory-controller simulation with
//!   IR-drop-aware read scheduling.
//! * [`core`] — the cross-domain co-optimization platform and every
//!   paper experiment (tables and figures).
//!
//! # Examples
//!
//! ```
//! use pi3d::layout::{Benchmark, StackDesign};
//! use pi3d::mesh::{MeshOptions, StackMesh};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
//! let mesh = StackMesh::new(&design, MeshOptions::coarse())?;
//! let report = mesh.solve(&"0-0-0-2".parse()?, 1.0)?;
//! assert!(report.max_dram().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use pi3d_core as core;
pub use pi3d_layout as layout;
pub use pi3d_memsim as memsim;
pub use pi3d_mesh as mesh;
pub use pi3d_solver as solver;
pub use pi3d_telemetry as telemetry;

/// The types most programs need, in one import.
///
/// ```
/// use pi3d::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let mesh = Platform::new(MeshOptions::coarse()).evaluate(&design)?;
/// let state: MemoryState = "0-0-0-2".parse()?;
/// assert!(mesh.max_ir(&state, 1.0)?.value() > 0.0);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use pi3d_core::{build_ir_lut_from_mesh, characterize, ir_cost, Platform};
    pub use pi3d_layout::units::MilliVolts;
    pub use pi3d_layout::{
        BankGroup, Benchmark, BondingStyle, DieState, MemoryState, Mounting, PdnSpec, RdlConfig,
        StackDesign, TsvConfig, TsvPlacement,
    };
    pub use pi3d_memsim::{
        IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec,
    };
    pub use pi3d_mesh::{MeshOptions, StackMesh};
}
