use crate::error::CoreError;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_memsim::{SimConfig, TimingParams, WorkloadSpec};
use pi3d_mesh::{MeshOptions, StackMesh};

/// The cross-domain evaluation platform: builds the R-Mesh of each design
/// it is handed, with one set of [`MeshOptions`].
///
/// A `Platform` carries only configuration. Per-design state lives in the
/// [`StackMesh`] it hands out, the one handle that answers every IR-drop
/// query about its design ([`StackMesh::solve`], [`StackMesh::max_ir`],
/// and [`build_ir_lut_from_mesh`](crate::build_ir_lut_from_mesh)), so
/// sweeps can hold many designs at once.
///
/// # Examples
///
/// ```
/// use pi3d_core::Platform;
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::MeshOptions;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new(MeshOptions::coarse());
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let mesh = platform.evaluate(&design)?;
/// let report = mesh.solve(&"0-0-0-2".parse()?, 1.0)?;
/// assert!(report.max_dram().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    options: MeshOptions,
}

impl Platform {
    /// Creates a platform with the given mesh options.
    pub fn new(options: MeshOptions) -> Self {
        Platform { options }
    }

    /// Mesh options used for every evaluation.
    pub fn options(&self) -> &MeshOptions {
        &self.options
    }

    /// Builds and factors the R-Mesh of a design. The design needs no
    /// further check: [`StackDesign`]'s only constructor, its builder,
    /// validates it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Mesh`] for mesh-assembly failures.
    pub fn evaluate(&self, design: &StackDesign) -> Result<StackMesh, CoreError> {
        Ok(StackMesh::new(design, self.options.clone())?)
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::new(MeshOptions::default())
    }
}

/// The memory-simulator set-up for a design: its benchmark's interface
/// timing, plus the paper's controller configuration and workload sized
/// to the design's stack (its die count and its benchmark's banks per die
/// and channels). Callers set the workload's request count.
pub fn sim_setup(design: &StackDesign) -> (TimingParams, SimConfig, WorkloadSpec) {
    let timing = match design.benchmark() {
        Benchmark::WideIo => TimingParams::wide_io_200(),
        Benchmark::Hmc => TimingParams::hmc_2500(),
        _ => TimingParams::ddr3_1600(),
    };
    let mut config = SimConfig::paper_ddr3();
    config.dies = design.dram_die_count();
    config.banks_per_die = design.banks_per_die();
    config.channels = design.benchmark().spec().channels;
    let mut workload = WorkloadSpec::paper_ddr3();
    workload.dies = config.dies;
    workload.banks_per_die = config.banks_per_die;
    workload.channels = config.channels;
    (timing, config, workload)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pi3d_layout::{MemoryState, OpKind};

    #[test]
    fn platform_round_trip() {
        let platform = Platform::new(MeshOptions::coarse());
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mesh = platform.evaluate(&design).expect("valid design");
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let ir = mesh.max_ir(&state, 1.0).unwrap();
        assert!(ir.value() > 5.0 && ir.value() < 100.0, "IR {ir}");
        assert!(mesh.design().cost().total > 0.0);
    }

    #[test]
    fn distributed_tsv_hmc_design_evaluates() {
        use pi3d_layout::{TsvConfig, TsvPlacement};
        let platform = Platform::default();
        let design = StackDesign::builder(Benchmark::Hmc)
            .tsv(TsvConfig::new(160, TsvPlacement::Distributed).unwrap())
            .build()
            .unwrap();
        assert!(platform.evaluate(&design).is_ok());
    }

    #[test]
    fn write_op_changes_the_answer_slightly() {
        let platform = Platform::new(MeshOptions::coarse());
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mesh = platform.evaluate(&design).unwrap();
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let read = mesh.solve_op(&state, 1.0, OpKind::Read).unwrap().max_dram();
        let write = mesh
            .solve_op(&state, 1.0, OpKind::Write)
            .unwrap()
            .max_dram();
        let rel = (read.value() - write.value()).abs() / read.value();
        assert!(rel < 0.10, "read {read} vs write {write}");
        assert!(read != write);
    }
}
