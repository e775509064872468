//! Table 6: impact of the architectural read policy on stacked DDR3.
//!
//! The paper compares the JEDEC standard policy (tRRD/tFAW, FCFS) with its
//! IR-drop-aware policies at a 24 mV constraint:
//!
//! | policy | runtime (µs) | bandwidth (read/clk) | max IR (mV) |
//! |---|---|---|---|
//! | Standard/FCFS | 109.3 | 0.114 | 30.03 |
//! | IR-aware/FCFS | 84.68 (−22.6%) | 0.148 (+29.2%) | 23.98 |
//! | IR-aware/DistR | 75.85 (−30.6%) | 0.165 (+44.2%) | 23.98 |

use crate::error::CoreError;
use crate::lut_builder::build_ir_lut_from_mesh;
use crate::platform::Platform;
use crate::report::{mv, pct, TextTable};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_memsim::{IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::par::parallel_map;
use std::fmt;

/// One Table 6 policy row.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Policy name.
    pub policy: &'static str,
    /// Runtime to drain the workload, µs.
    pub runtime_us: f64,
    /// Average bandwidth, reads per clock.
    pub bandwidth: f64,
    /// Maximum IR drop entered, mV.
    pub max_ir_mv: f64,
}

/// Table 6 result.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Standard, IR-aware FCFS, IR-aware DistR (in that order).
    pub rows: Vec<Table6Row>,
    /// The IR-drop constraint used by the IR-aware rows, mV.
    pub constraint_mv: f64,
}

impl Table6 {
    /// The standard-policy row.
    pub fn standard(&self) -> &Table6Row {
        &self.rows[0]
    }

    /// The IR-aware FCFS row.
    pub fn ir_fcfs(&self) -> &Table6Row {
        &self.rows[1]
    }

    /// The IR-aware DistR row.
    pub fn ir_distr(&self) -> &Table6Row {
        &self.rows[2]
    }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Read policies, F2B off-chip stacked DDR3, {} mV constraint \
             (paper: 109.3/84.68/75.85 us, 0.114/0.148/0.165 read/clk)",
            self.constraint_mv
        )?;
        let mut t = TextTable::new(vec![
            "policy",
            "runtime (us)",
            "vs std",
            "BW (read/clk)",
            "vs std",
            "max IR (mV)",
        ]);
        let std_rt = self.standard().runtime_us;
        let std_bw = self.standard().bandwidth;
        for r in &self.rows {
            t.row(vec![
                r.policy.into(),
                format!("{:.2}", r.runtime_us),
                pct(r.runtime_us, std_rt),
                format!("{:.3}", r.bandwidth),
                pct(r.bandwidth, std_bw),
                mv(r.max_ir_mv),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs Table 6: the three read policies over `workload` against the
/// baseline's IR-drop LUT, the IR-aware ones at `constraint` (the paper:
/// [`WorkloadSpec::paper_ddr3`], 24 mV).
///
/// # Errors
///
/// Propagates design, solver, and simulation errors.
pub fn run_with(
    options: &MeshOptions,
    workload: WorkloadSpec,
    constraint: MilliVolts,
) -> Result<Table6, CoreError> {
    let platform = Platform::new(options.clone());
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = platform.evaluate(&design)?;
    let lut = build_ir_lut_from_mesh(&mesh, SimConfig::paper_ddr3().max_powered_per_die)?;
    let requests = workload.generate();

    // The three policy simulations are independent; fan them across the
    // configured worker count (order-preserving, so rows stay std/FCFS/
    // DistR regardless of thread count).
    let cases = policy_cases(constraint);
    let rows = parallel_map(&cases, options.threads, |_, &(name, policy)| {
        let stats = run_policy(&lut, policy, &requests)?;
        Ok(Table6Row {
            policy: name,
            runtime_us: stats.runtime_us,
            bandwidth: stats.bandwidth_reads_per_clk,
            max_ir_mv: stats.max_ir.value(),
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(Table6 {
        rows,
        constraint_mv: constraint.value(),
    })
}

fn policy_cases(constraint: MilliVolts) -> [(&'static str, ReadPolicy); 3] {
    [
        ("Standard/FCFS", ReadPolicy::standard()),
        ("IR-aware/FCFS", ReadPolicy::ir_aware_fcfs(constraint)),
        ("IR-aware/DistR", ReadPolicy::ir_aware_distr(constraint)),
    ]
}

/// Runs one policy over a request stream against a prebuilt LUT.
///
/// # Errors
///
/// Propagates simulation stalls.
pub fn run_policy(
    lut: &IrDropLut,
    policy: ReadPolicy,
    requests: &[pi3d_memsim::ReadRequest],
) -> Result<pi3d_memsim::SimStats, CoreError> {
    let sim = MemorySimulator::new(
        TimingParams::ddr3_1600(),
        SimConfig::paper_ddr3(),
        policy,
        lut.clone(),
    );
    Ok(sim.run(requests)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn quick() -> Table6 {
        let mut workload = WorkloadSpec::paper_ddr3();
        workload.count = 3_000;
        run_with(&MeshOptions::coarse(), workload, MilliVolts(24.0)).unwrap()
    }

    #[test]
    fn policy_ordering_matches_the_paper() {
        let t = quick();
        // IR-aware policies beat the standard policy; DistR beats FCFS.
        assert!(
            t.ir_fcfs().runtime_us < t.standard().runtime_us,
            "FCFS {} !< std {}",
            t.ir_fcfs().runtime_us,
            t.standard().runtime_us
        );
        // DistR is at least as fast as FCFS up to timing noise (at a
        // loose constraint both policies drain at the arrival rate).
        assert!(
            t.ir_distr().runtime_us <= t.ir_fcfs().runtime_us * 1.01,
            "DistR {} !<= FCFS {}",
            t.ir_distr().runtime_us,
            t.ir_fcfs().runtime_us
        );
        assert!(t.ir_fcfs().bandwidth > t.standard().bandwidth);
    }

    #[test]
    fn rows_are_bit_identical_at_one_and_four_threads() {
        // `{:?}` prints each f64 in its shortest round-trip form, so equal
        // text means equal bits.
        let rows = |seed: u64, threads: usize| {
            let mut workload = WorkloadSpec::paper_ddr3();
            workload.count = 800;
            workload.seed = seed;
            let options = MeshOptions {
                threads,
                ..MeshOptions::coarse()
            };
            format!(
                "{:?}",
                run_with(&options, workload, MilliVolts(24.0)).unwrap().rows
            )
        };
        let seed1 = rows(1, 1);
        assert_eq!(seed1, rows(1, 4));
        let seed2 = rows(2, 1);
        assert_eq!(seed2, rows(2, 4));
        // Different seeds produce different workloads, hence (almost
        // surely) different drain times: the workload reached the rows.
        assert_ne!(seed1, seed2);
    }

    #[test]
    fn ir_aware_policies_respect_the_constraint() {
        let t = quick();
        assert!(t.ir_fcfs().max_ir_mv <= t.constraint_mv + 1e-6);
        assert!(t.ir_distr().max_ir_mv <= t.constraint_mv + 1e-6);
        // The standard policy, blind to 3D IR, exceeds it (paper: 30.03).
        assert!(
            t.standard().max_ir_mv > t.constraint_mv,
            "standard max IR {} should exceed {}",
            t.standard().max_ir_mv,
            t.constraint_mv
        );
    }
}
