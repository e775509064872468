//! The cross-domain co-optimization platform for DC power integrity in 3D
//! DRAM — the paper's primary contribution.
//!
//! `pi3d-core` ties the other crates together:
//!
//! * [`Platform`] — turns a [`pi3d_layout::StackDesign`] into its R-Mesh,
//!   a [`pi3d_mesh::StackMesh`] that answers the design's IR-drop
//!   queries.
//! * [`build_ir_lut_from_mesh`] — pre-computes the IR-drop lookup table
//!   the memory controller schedules against (Section 5.2).
//! * [`RegressionModel`] / [`characterize`] / [`Characterization::optimize`]
//!   — the Section 6 regression-accelerated design-space search minimizing
//!   `IR-drop^α × Cost^(1−α)`.
//! * [`experiments`] — one module per table and figure of the paper,
//!   regenerating its rows from this platform.
//!
//! # Examples
//!
//! ```
//! use pi3d_core::{ir_cost, Platform};
//! use pi3d_layout::{Benchmark, StackDesign};
//! use pi3d_mesh::MeshOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::new(MeshOptions::coarse());
//! let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
//! let mesh = platform.evaluate(&design)?;
//! let ir = mesh.max_ir(&"0-0-0-2".parse()?, 1.0)?;
//! let objective = ir_cost(ir.value(), design.cost().total, 0.3);
//! assert!(objective > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

pub mod config;
mod design_space;
mod error;
pub mod experiments;
mod faults;
pub mod jobs;
mod lut_builder;
mod optimize;
mod platform;
mod regression;
pub mod report;
pub mod serve;
pub mod shard;

pub use design_space::{CategoricalCombo, DesignPoint, DesignSpace};
pub use error::CoreError;
pub use faults::{
    fault_sweep_plan, run_fault_sweep, run_fault_sweep_shard, run_fault_sweep_with,
    FaultLevelSummary, FaultSweepOptions, FaultSweepReport, FaultTrial, PolicyUnderFaults,
    TrialOutcome,
};
pub use jobs::{config_fingerprint, unit_key, JobContext, Journal, JournalMode};
#[doc(hidden)]
pub use lut_builder::lut_basis_loads;
pub use lut_builder::{build_ir_lut_from_mesh, LUT_ACTIVITIES};
pub use optimize::{
    characterize, characterize_plan, characterize_shard, characterize_with, ir_cost, BestSolution,
    Characterization, ComboModel, ParetoPoint,
};
pub use platform::{sim_setup, Platform};
pub use regression::{ir_features, LogIrModel, RegressionModel};
pub use shard::{
    merge_shard_journals, run_sharded, HeartbeatGuard, MergeStats, ShardOptions, ShardReport,
    WorkerCommand,
};

// Memory-state types live in `pi3d-layout` (the power-map generator needs
// them); re-export them here since they are conceptually part of the
// platform's architecture-domain API.
pub use pi3d_layout::{BankGroup, DieState, MemoryState, ParseMemoryStateError};
