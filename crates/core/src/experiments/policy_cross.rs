//! Cross-benchmark policy study (extension): the Table 6 comparison run on
//! every benchmark with its own timing, channel count, and LUT. Exercises
//! the multi-channel controller paths that the stacked-DDR3 headline
//! experiment does not.

use crate::error::CoreError;
use crate::lut_builder::build_ir_lut_from_mesh;
use crate::platform::{sim_setup, Platform};
use crate::report::{mv, pct, TextTable};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_memsim::{MemorySimulator, ReadPolicy, SimConfig};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::par::parallel_map;
use std::fmt;

/// One benchmark's three-policy comparison.
#[derive(Debug, Clone)]
pub struct PolicyCrossRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// IR-drop constraint used for the IR-aware policies, mV.
    pub constraint_mv: f64,
    /// Runtime per policy (standard, IR-FCFS, IR-DistR), µs.
    pub runtime_us: [f64; 3],
    /// Max IR per policy, mV.
    pub max_ir_mv: [f64; 3],
}

/// Cross-benchmark policy study result.
#[derive(Debug, Clone)]
pub struct PolicyCross {
    /// One row per benchmark.
    pub rows: Vec<PolicyCrossRow>,
}

impl PolicyCross {
    /// Row for one benchmark.
    pub fn benchmark(&self, b: Benchmark) -> Option<&PolicyCrossRow> {
        self.rows.iter().find(|r| r.benchmark == b)
    }
}

impl fmt::Display for PolicyCross {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Read policies across benchmarks (extension study)")?;
        let mut t = TextTable::new(vec![
            "benchmark",
            "cap (mV)",
            "std (us)",
            "FCFS (us)",
            "DistR (us)",
            "DistR vs std",
            "std IR",
            "DistR IR",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.benchmark.to_string(),
                format!("{:.0}", r.constraint_mv),
                format!("{:.1}", r.runtime_us[0]),
                format!("{:.1}", r.runtime_us[1]),
                format!("{:.1}", r.runtime_us[2]),
                pct(r.runtime_us[2], r.runtime_us[0]),
                mv(r.max_ir_mv[0]),
                mv(r.max_ir_mv[2]),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the study for all four benchmarks with `reads` requests each. The
/// constraint is set to 80% of the worst reachable LUT state, so every
/// benchmark is meaningfully constrained.
///
/// # Errors
///
/// Propagates design, solver, and simulation errors.
pub fn run(options: &MeshOptions, reads: usize) -> Result<PolicyCross, CoreError> {
    let platform = Platform::new(options.clone());
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let design = StackDesign::baseline(benchmark);
        let mesh = platform.evaluate(&design)?;
        let lut = build_ir_lut_from_mesh(&mesh, SimConfig::paper_ddr3().max_powered_per_die)?;
        // The worst state the controller could ever enter, at its
        // zero-bubble rate.
        let worst = lut
            .states()
            .map(|s| lut.lookup_implied(s).expect("tabulated").value())
            .fold(0.0f64, f64::max);
        let constraint = MilliVolts(worst * 0.8);

        let (timing, config, mut workload) = sim_setup(&design);
        workload.count = reads;
        let requests = workload.generate();

        // Each benchmark's three policy runs are independent: fan them
        // across the configured worker count (results come back in policy
        // order regardless of threads).
        let policies = [
            ReadPolicy::standard(),
            ReadPolicy::ir_aware_fcfs(constraint),
            ReadPolicy::ir_aware_distr(constraint),
        ];
        let stats = parallel_map(&policies, options.threads, |_, &policy| {
            let sim = MemorySimulator::new(timing, config.clone(), policy, lut.clone());
            sim.run(&requests)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let mut runtime_us = [0.0; 3];
        let mut max_ir_mv = [0.0; 3];
        for (i, s) in stats.iter().enumerate() {
            runtime_us[i] = s.runtime_us;
            max_ir_mv[i] = s.max_ir.value();
        }
        rows.push(PolicyCrossRow {
            benchmark,
            constraint_mv: constraint.value(),
            runtime_us,
            max_ir_mv,
        });
    }
    Ok(PolicyCross { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_completes_and_respects_its_cap() {
        let result = run(&MeshOptions::coarse(), 1_500).unwrap();
        assert_eq!(result.rows.len(), 4);
        for r in &result.rows {
            // The IR-aware policies respect their per-benchmark cap.
            for policy in 1..3 {
                assert!(
                    r.max_ir_mv[policy] <= r.constraint_mv + 1e-6,
                    "{}: policy {policy} IR {} over cap {}",
                    r.benchmark,
                    r.max_ir_mv[policy],
                    r.constraint_mv
                );
            }
            // The blind standard policy never sits below the IR-aware
            // ones (it enters the worst states freely; lightly loaded
            // benchmarks may coincide).
            assert!(
                r.max_ir_mv[0] >= r.max_ir_mv[2] - 0.5,
                "{}: std {} vs DistR {}",
                r.benchmark,
                r.max_ir_mv[0],
                r.max_ir_mv[2]
            );
            for policy in 0..3 {
                assert!(r.runtime_us[policy] > 0.0);
            }
        }
        // And on at least the heavily loaded benchmarks the standard
        // policy actually breaks the cap.
        let breakers = result
            .rows
            .iter()
            .filter(|r| r.max_ir_mv[0] > r.constraint_mv)
            .count();
        assert!(
            breakers >= 2,
            "only {breakers} benchmarks exceeded their cap"
        );
    }
}
