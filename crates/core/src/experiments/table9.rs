//! Table 9: cross-domain co-optimization — the best design per benchmark
//! at α = 0 (cheapest), α = 0.3 (the paper's preferred tradeoff), and
//! α = 1 (lowest IR drop), plus the industry baseline, with the predicted
//! ("Matlab" in the paper, regression here) and R-Mesh-verified IR drops.

use crate::design_space::DesignSpace;
use crate::error::CoreError;
use crate::optimize::{characterize, BestSolution, Characterization};
use crate::platform::Platform;
use crate::report::{mv, TextTable};
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One Table 9 row: the best solution at one α, or the baseline.
#[derive(Debug, Clone)]
pub struct Table9Row {
    /// `Some(α)` for an optimized row, `None` for the baseline row.
    pub alpha: Option<f64>,
    /// Option summary (`M2/M3/TC/TL/TD/BD/RL/WB`).
    pub options: String,
    /// Regression-predicted IR drop, mV (baseline rows repeat the measured
    /// value, as the paper does).
    pub predicted_mv: f64,
    /// R-Mesh-verified IR drop, mV.
    pub measured_mv: f64,
    /// Table 8 cost.
    pub cost: f64,
}

/// Table 9 result for one benchmark.
#[derive(Debug, Clone)]
pub struct Table9Benchmark {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Rows: one per α plus the baseline (last).
    pub rows: Vec<Table9Row>,
    /// Worst regression RMSE over the categorical combos (paper: < 0.135).
    pub regression_rmse: f64,
    /// Worst regression R² over the categorical combos (paper: > 0.999).
    pub regression_r_squared: f64,
}

impl Table9Benchmark {
    /// Row for a given α.
    pub fn at_alpha(&self, alpha: f64) -> Option<&Table9Row> {
        self.rows
            .iter()
            .find(|r| r.alpha.is_some_and(|a| (a - alpha).abs() < 1e-9))
    }

    /// The baseline row.
    pub fn baseline(&self) -> &Table9Row {
        self.rows.last().expect("baseline row always present")
    }
}

impl fmt::Display for Table9Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (regression worst RMSE {:.3} mV, worst R2 {:.4})",
            self.benchmark, self.regression_rmse, self.regression_r_squared
        )?;
        let mut t = TextTable::new(vec![
            "alpha",
            "options",
            "predicted (mV)",
            "R-Mesh (mV)",
            "cost",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.alpha.map_or("baseline".to_owned(), |a| format!("{a:.1}")),
                r.options.clone(),
                mv(r.predicted_mv),
                mv(r.measured_mv),
                format!("{:.3}", r.cost),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Table 9 result for all benchmarks.
#[derive(Debug, Clone)]
pub struct Table9 {
    /// One block per benchmark, in paper order.
    pub benchmarks: Vec<Table9Benchmark>,
}

impl fmt::Display for Table9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Cross-domain co-optimization (Equation 1)")?;
        for b in &self.benchmarks {
            writeln!(f)?;
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

fn describe(solution: &BestSolution) -> String {
    format!(
        "M2={:.0}% M3={:.0}% TC={} {}",
        solution.point.m2 * 100.0,
        solution.point.m3 * 100.0,
        solution.point.tc,
        solution.point.combo.label()
    )
}

/// Runs the co-optimization for one benchmark at the given α values.
///
/// # Errors
///
/// Propagates design, solver, and regression errors.
pub fn run_benchmark(
    options: &MeshOptions,
    benchmark: Benchmark,
    alphas: &[f64],
    threads: usize,
) -> Result<Table9Benchmark, CoreError> {
    let platform = Platform::new(options.clone());
    let characterization: Characterization = characterize(&platform, benchmark, threads)?;

    let mut rows = Vec::new();
    for &alpha in alphas {
        let best = characterization.optimize(alpha, &platform)?;
        rows.push(Table9Row {
            alpha: Some(alpha),
            options: describe(&best),
            predicted_mv: best.predicted_ir_mv,
            measured_mv: best.measured_ir_mv,
            cost: best.cost,
        });
    }

    // Baseline row.
    let space = DesignSpace::new(benchmark);
    let baseline = StackDesign::baseline(benchmark);
    let mesh = platform.evaluate(&baseline)?;
    let measured = mesh.max_ir(&space.default_state(), 1.0)?.value();
    rows.push(Table9Row {
        alpha: None,
        options: format!(
            "M2={:.0}% M3={:.0}% TC={} TL={} TD={} BD={} RL={} WB=N",
            baseline.pdn().m2_usage() * 100.0,
            baseline.pdn().m3_usage() * 100.0,
            baseline.tsv().count(),
            baseline.tsv().placement().abbreviation(),
            if baseline.mounting().has_dedicated_tsvs() {
                'Y'
            } else {
                'N'
            },
            baseline.bonding().abbreviation(),
            if baseline.rdl().is_enabled() {
                'Y'
            } else {
                'N'
            },
        ),
        predicted_mv: measured,
        measured_mv: measured,
        cost: baseline.cost().total,
    });

    Ok(Table9Benchmark {
        benchmark,
        rows,
        regression_rmse: characterization.worst_rmse(),
        regression_r_squared: characterization.worst_r_squared(),
    })
}

/// Runs the full Table 9: all four benchmarks at α ∈ {0, 0.3, 1}.
///
/// # Errors
///
/// Propagates design, solver, and regression errors.
pub fn run(options: &MeshOptions, threads: usize) -> Result<Table9, CoreError> {
    let mut benchmarks = Vec::new();
    for benchmark in Benchmark::ALL {
        benchmarks.push(run_benchmark(
            options,
            benchmark,
            &[0.0, 0.3, 1.0],
            threads,
        )?);
    }
    Ok(Table9 { benchmarks })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn off_chip_ddr3_co_optimization_behaves_like_the_paper() {
        let t = run_benchmark(
            &MeshOptions::coarse(),
            Benchmark::StackedDdr3OffChip,
            &[0.0, 0.3, 1.0],
            4,
        )
        .unwrap();

        let cheapest = t.at_alpha(0.0).unwrap();
        let tradeoff = t.at_alpha(0.3).unwrap();
        let lowest_ir = t.at_alpha(1.0).unwrap();
        let baseline = t.baseline();

        // α = 0 minimizes cost: cheapest of all rows, with a high IR drop.
        assert!(cheapest.cost <= tradeoff.cost && cheapest.cost <= lowest_ir.cost);
        assert!(cheapest.cost <= baseline.cost);
        assert!(cheapest.measured_mv >= lowest_ir.measured_mv);

        // α = 1 minimizes IR: lowest measured drop of all rows.
        assert!(lowest_ir.measured_mv <= tradeoff.measured_mv + 1e-6);
        assert!(lowest_ir.measured_mv < baseline.measured_mv);

        // α = 0.3 beats the baseline on IR at comparable cost (the paper's
        // 23.01 mV @ 0.37 vs 30.03 mV @ 0.35).
        assert!(tradeoff.measured_mv < baseline.measured_mv);

        // Regression quality mirrors the paper's bar (RMSE < 0.135 mV,
        // R2 > 0.999 on its simulator; slightly looser here at coarse
        // mesh resolution).
        assert!(t.regression_rmse < 0.6, "RMSE {}", t.regression_rmse);
        assert!(
            t.regression_r_squared > 0.995,
            "R2 {}",
            t.regression_r_squared
        );

        // Predicted and verified IR agree reasonably at the optimum.
        for row in [tradeoff, lowest_ir] {
            let rel = (row.predicted_mv - row.measured_mv).abs() / row.measured_mv;
            assert!(
                rel < 0.25,
                "prediction {} vs measured {}",
                row.predicted_mv,
                row.measured_mv
            );
        }
    }
}
