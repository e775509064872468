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

/// Runs Table 6 with the paper's 10,000-read workload and 24 mV constraint.
///
/// # Errors
///
/// Propagates design, solver, and simulation errors.
pub fn run(options: &MeshOptions) -> Result<Table6, CoreError> {
    run_with(options, WorkloadSpec::paper_ddr3(), MilliVolts(24.0))
}

/// Runs Table 6 with an explicit workload and constraint (used by tests and
/// the Figure 9 sweep).
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

/// Runs the Table 6 comparison at several workload seeds, fanning every
/// (seed, policy) simulation across the configured worker count. One LUT
/// build serves all repetitions; results come back in seed order, each a
/// full [`Table6`], so repetition studies can report min/median/max
/// without serializing the sweep.
///
/// # Errors
///
/// Propagates design, solver, and simulation errors.
pub fn run_seeds(
    options: &MeshOptions,
    workload: WorkloadSpec,
    constraint: MilliVolts,
    seeds: &[u64],
) -> Result<Vec<Table6>, CoreError> {
    let platform = Platform::new(options.clone());
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = platform.evaluate(&design)?;
    let lut = build_ir_lut_from_mesh(&mesh, SimConfig::paper_ddr3().max_powered_per_die)?;

    let cases: Vec<(u64, &'static str, ReadPolicy)> = seeds
        .iter()
        .flat_map(|&seed| {
            policy_cases(constraint)
                .into_iter()
                .map(move |(name, policy)| (seed, name, policy))
        })
        .collect();
    let results = parallel_map(&cases, options.threads, |_, &(seed, name, policy)| {
        let mut spec = workload.clone();
        spec.seed = seed;
        let stats = run_policy(&lut, policy, &spec.generate())?;
        Ok::<Table6Row, CoreError>(Table6Row {
            policy: name,
            runtime_us: stats.runtime_us,
            bandwidth: stats.bandwidth_reads_per_clk,
            max_ir_mv: stats.max_ir.value(),
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, CoreError>>()?;

    Ok(results
        .chunks(3)
        .map(|rows| Table6 {
            rows: rows.to_vec(),
            constraint_mv: constraint.value(),
        })
        .collect())
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
    fn seed_sweep_is_thread_invariant_and_seed_ordered() {
        let mut workload = WorkloadSpec::paper_ddr3();
        workload.count = 800;
        let seeds = [1u64, 2, 3];
        let run_at = |threads: usize| {
            let options = MeshOptions {
                threads,
                ..MeshOptions::coarse()
            };
            run_seeds(&options, workload.clone(), MilliVolts(24.0), &seeds).unwrap()
        };
        let one = run_at(1);
        let four = run_at(4);
        assert_eq!(one.len(), seeds.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.rows.len(), 3);
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(ra.policy, rb.policy);
                assert_eq!(ra.runtime_us, rb.runtime_us, "{}", ra.policy);
                assert_eq!(ra.max_ir_mv, rb.max_ir_mv, "{}", ra.policy);
            }
        }
        // Different seeds produce different workloads, hence (almost
        // surely) different drain times.
        assert!(
            one[0].rows[0].runtime_us != one[1].rows[0].runtime_us
                || one[0].rows[1].runtime_us != one[1].rows[1].runtime_us,
            "seed sweep returned identical tables for different seeds"
        );
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
