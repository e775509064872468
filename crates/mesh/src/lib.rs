//! R-Mesh extraction and DC IR-drop analysis for 3D DRAM stacks.
//!
//! This crate turns a [`pi3d_layout::StackDesign`] into a resistive-mesh
//! (R-Mesh) model of its entire VDD power-delivery network — per-die metal
//! grids, vias, TSVs, F2F micro-via arrays, B2B connections, RDLs, wire
//! bonds, C4 bumps and package balls, and the host logic die's PDN — and
//! solves it for the DC IR-drop map of any memory state.
//!
//! It is the stand-in for the paper's HSPICE-on-R-Mesh flow, with
//! [`validate_against_golden`] playing the role of the Cadence EPS
//! cross-check in Figure 4.
//!
//! # Examples
//!
//! ```
//! use pi3d_layout::{Benchmark, StackDesign};
//! use pi3d_mesh::{MeshOptions, StackMesh};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
//! let mesh = StackMesh::new(&design, MeshOptions::coarse())?;
//! let report = mesh.solve(&"0-0-0-2".parse()?, 1.0)?;
//! println!("max IR drop: {:.2}", report.max_dram());
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

mod analysis;
mod build;
mod current;
mod decompose;
mod error;
mod faults;
mod grid;
mod noise;
mod spice;
mod transient;
mod validate;

pub use analysis::{GridIrStats, IrDropReport};
pub use build::{Element, ElementKind, MeshOptions, StackMesh};
pub use current::{CurrentReport, ElementCurrentStats, LayerCurrentStats};
pub use decompose::{decompose_ir, DieDecomposition};
pub use error::{DegradedSupplyReport, MeshError};
pub use faults::{FaultInjector, FaultReport, FaultSite};
pub use grid::{GridId, GridKind, GridRegistry, GridSpec};
pub use noise::{SupplyNoiseAnalysis, SupplyNoiseReport};
pub use spice::export_spice;
pub use transient::{run_transient, DecapSpec, TransientOptions, TransientResult};
pub use validate::{validate_against_golden, ValidationReport};
