use crate::design_space::{CategoricalCombo, DesignPoint, DesignSpace};
use crate::error::CoreError;
use crate::jobs::{config_fingerprint, journaled_sweep, JobContext, PartialSweep};
use crate::platform::Platform;
use crate::regression::{LogIrModel, RegressionModel};
use pi3d_layout::Benchmark;
use pi3d_telemetry::Json;

/// The paper's Equation (1): `IR-cost = IR-drop^α × Cost^(1−α)`.
///
/// `α = 0` optimizes cost alone, `α = 1` IR drop alone; the paper finds
/// `α = 0.3` the best overall tradeoff.
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]` or an input is not positive.
pub fn ir_cost(ir_mv: f64, cost: f64, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    assert!(
        ir_mv > 0.0 && cost > 0.0,
        "IR drop and cost must be positive"
    );
    ir_mv.powf(alpha) * cost.powf(1.0 - alpha)
}

/// A regression model fitted for one categorical option combination.
#[derive(Debug, Clone)]
pub struct ComboModel {
    /// The categorical options this model covers.
    pub combo: CategoricalCombo,
    /// Log-space IR-drop model over the continuous knobs.
    pub model: LogIrModel,
}

/// The characterized design space of one benchmark: a fitted IR-drop model
/// per categorical combination, built from sampled R-Mesh runs
/// (Section 6.1's regression step, replacing the 4637-hour brute force).
#[derive(Debug, Clone)]
pub struct Characterization {
    benchmark: Benchmark,
    space: DesignSpace,
    combos: Vec<ComboModel>,
    sample_count: usize,
}

/// The best design found for one α (one row of the paper's Table 9).
#[derive(Debug, Clone)]
pub struct BestSolution {
    /// The winning design point.
    pub point: DesignPoint,
    /// IR drop predicted by the regression model (the "Matlab" column).
    pub predicted_ir_mv: f64,
    /// IR drop verified with a full R-Mesh solve (the "R-Mesh" column).
    pub measured_ir_mv: f64,
    /// Table 8 cost.
    pub cost: f64,
    /// The Equation (1) objective value at the searched α.
    pub objective: f64,
}

/// Characterizes a benchmark's design space: runs the R-Mesh on every
/// sample point and fits one regression model per categorical combination.
/// Work is spread across `threads` OS threads.
///
/// # Errors
///
/// Propagates design, solver, and regression errors.
pub fn characterize(
    platform: &Platform,
    benchmark: Benchmark,
    threads: usize,
) -> Result<Characterization, CoreError> {
    characterize_with(platform, benchmark, threads, &JobContext::new())
}

/// The journal config hash of a characterization: the benchmark plus the
/// mesh discretization (thread count normalized away — it never changes
/// the fitted models).
fn characterize_config_hash(platform: &Platform, benchmark: Benchmark) -> u64 {
    let mesh = pi3d_mesh::MeshOptions {
        threads: 1,
        ..platform.options().clone()
    };
    config_fingerprint(&["characterize", &benchmark.to_string(), &format!("{mesh:?}")])
}

/// Journal payload of one fitted combo: the log-space coefficients plus
/// both fit-quality pairs, with the combo label as a positional sanity
/// check (the combo list itself is derived from the benchmark, so only
/// the label needs to travel).
fn combo_to_json(model: &ComboModel) -> Json {
    Json::obj([
        ("combo", Json::str(model.combo.label())),
        (
            "coefficients",
            Json::arr(
                model
                    .model
                    .model()
                    .coefficients()
                    .iter()
                    .map(|&c| Json::num(c)),
            ),
        ),
        ("log_rmse", Json::num(model.model.model().rmse())),
        ("log_r_squared", Json::num(model.model.model().r_squared())),
        ("rmse_mv", Json::num(model.model.rmse_mv())),
        ("r_squared", Json::num(model.model.r_squared())),
    ])
}

fn combo_from_json(combo: CategoricalCombo, payload: &Json) -> Option<ComboModel> {
    if payload.get("combo")?.as_str()? != combo.label() {
        return None;
    }
    let coefficients = payload
        .get("coefficients")?
        .as_arr()?
        .iter()
        .map(Json::as_num)
        .collect::<Option<Vec<_>>>()?;
    let inner = RegressionModel::from_parts(
        coefficients,
        payload.get("log_rmse")?.as_num()?,
        payload.get("log_r_squared")?.as_num()?,
    )
    .ok()?;
    let model = LogIrModel::from_parts(
        inner,
        payload.get("rmse_mv")?.as_num()?,
        payload.get("r_squared")?.as_num()?,
    )
    .ok()?;
    Some(ComboModel { combo, model })
}

/// [`characterize`] with durable execution: the [`JobContext`] supplies
/// an optional work journal (one record per fitted categorical combo, so
/// an interrupted characterization resumes without re-solving finished
/// combos), a cancellation token, and a wall-clock deadline. Restored
/// models are bit-identical to freshly fitted ones: coefficients and fit
/// quality round-trip exactly through the journal's JSON.
///
/// # Errors
///
/// As [`characterize`], plus [`CoreError::Cancelled`],
/// [`CoreError::DeadlineExceeded`], [`CoreError::WorkerPanic`], and
/// [`CoreError::Journal`] from the durability layer, and
/// [`CoreError::Shard`] when `ctx` is scoped to a shard slice or skip
/// list (shard workers use [`characterize_shard`]).
pub fn characterize_with(
    platform: &Platform,
    benchmark: Benchmark,
    threads: usize,
    ctx: &JobContext,
) -> Result<Characterization, CoreError> {
    let _span = pi3d_telemetry::span::span("characterize");
    let (space, sweep) = sweep_combos(platform, benchmark, threads, ctx)?;
    let models = sweep.into_results()?;

    let sample_count = space.sample_points().len();
    Ok(Characterization {
        benchmark,
        space,
        combos: models,
        sample_count,
    })
}

/// The sharding plan of a characterization: its journal config hash and
/// total unit (combo) count — what the shard supervisor needs to slice
/// the unit space and verify the merge without fitting anything.
///
/// # Errors
///
/// Returns [`CoreError::EmptyDesignSpace`] when the benchmark has no
/// categorical combination to fit.
pub fn characterize_plan(
    platform: &Platform,
    benchmark: Benchmark,
) -> Result<(u64, usize), CoreError> {
    let combos = DesignSpace::new(benchmark).categorical_combos();
    if combos.is_empty() {
        return Err(CoreError::EmptyDesignSpace {
            benchmark: benchmark.to_string(),
        });
    }
    Ok((characterize_config_hash(platform, benchmark), combos.len()))
}

/// Shard-worker entry point of characterization: fits only the combos in
/// the scope of `ctx` (its shard slice, minus skipped units, deferred
/// tail last), journaling each into the context's shard journal.
///
/// Returns `(completed, in_scope)` unit counts; the merged
/// characterization is produced later by resuming the *merged* journal
/// through [`characterize_with`], which refits nothing.
///
/// # Errors
///
/// As [`characterize_with`].
pub fn characterize_shard(
    platform: &Platform,
    benchmark: Benchmark,
    threads: usize,
    ctx: &JobContext,
) -> Result<(usize, usize), CoreError> {
    let _span = pi3d_telemetry::span::span("characterize_shard");
    let (_, partial) = sweep_combos(platform, benchmark, threads, ctx)?;
    Ok((partial.completed, partial.in_scope))
}

/// The journaled combo sweep behind both entry points: one fitted model
/// per categorical combo in the scope of `ctx`, with the design space
/// the combos were drawn from.
fn sweep_combos(
    platform: &Platform,
    benchmark: Benchmark,
    threads: usize,
    ctx: &JobContext,
) -> Result<(DesignSpace, PartialSweep<ComboModel>), CoreError> {
    let space = DesignSpace::new(benchmark);
    let state = space.default_state();
    let combos = space.categorical_combos();
    if combos.is_empty() {
        return Err(CoreError::EmptyDesignSpace {
            benchmark: benchmark.to_string(),
        });
    }
    // Each combo fits an independent model and is one journaled work
    // unit; dispatch is one combo at a time (instead of pre-chunking), so
    // a slow combo never serializes the rest of its chunk, and results
    // come back in combo order regardless of thread count.
    let sweep = journaled_sweep(
        "characterize",
        characterize_config_hash(platform, benchmark),
        &combos,
        threads,
        ctx,
        |_, model| combo_to_json(model),
        |unit, payload| combo_from_json(combos[unit], payload),
        |_, &combo| fit_combo(platform, benchmark, &space, combo, &state),
    )?;
    Ok((space, sweep))
}

fn fit_combo(
    platform: &Platform,
    benchmark: Benchmark,
    space: &DesignSpace,
    combo: CategoricalCombo,
    state: &pi3d_layout::MemoryState,
) -> Result<ComboModel, CoreError> {
    let mut samples = Vec::new();
    let mut targets = Vec::new();
    for &m2 in &space.m2_samples() {
        for &m3 in &space.m3_samples() {
            for &tc in &space.tc_samples() {
                let point = DesignPoint { m2, m3, tc, combo };
                let design = point.to_design(benchmark)?;
                let mesh = platform.evaluate(&design)?;
                let ir = mesh.max_ir(state, 1.0)?;
                samples.push((m2, m3, tc as f64));
                targets.push(ir.value());
            }
        }
    }
    let model = LogIrModel::fit(&samples, &targets)?;
    Ok(ComboModel { combo, model })
}

impl Characterization {
    /// The benchmark characterized.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Per-combination models.
    pub fn combos(&self) -> &[ComboModel] {
        &self.combos
    }

    /// R-Mesh samples consumed.
    pub fn sample_count(&self) -> usize {
        self.sample_count
    }

    /// Worst (largest) RMSE over all per-combo fits, in millivolts.
    pub fn worst_rmse(&self) -> f64 {
        self.combos
            .iter()
            .map(|c| c.model.rmse_mv())
            .fold(0.0, f64::max)
    }

    /// Worst (smallest) R² over all per-combo fits.
    pub fn worst_r_squared(&self) -> f64 {
        self.combos
            .iter()
            .map(|c| c.model.r_squared())
            .fold(1.0, f64::min)
    }

    /// Searches the fine option grid for the design minimizing
    /// Equation (1) at `alpha`, then verifies the winner with a full
    /// R-Mesh solve.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from the verification solve.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn optimize(&self, alpha: f64, platform: &Platform) -> Result<BestSolution, CoreError> {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let mut best: Option<(f64, DesignPoint, f64, f64)> = None;
        for cm in &self.combos {
            for &m2 in &self.space.m2_grid() {
                for &m3 in &self.space.m3_grid() {
                    for &tc in &self.space.tc_grid() {
                        let point = DesignPoint {
                            m2,
                            m3,
                            tc,
                            combo: cm.combo,
                        };
                        let Ok(design) = point.to_design(self.benchmark) else {
                            continue;
                        };
                        let predicted = cm.model.predict(m2, m3, tc as f64).max(0.1);
                        let cost = design.cost().total;
                        let objective = ir_cost(predicted, cost, alpha);
                        if best.as_ref().is_none_or(|(b, _, _, _)| objective < *b) {
                            best = Some((objective, point, predicted, cost));
                        }
                    }
                }
            }
        }
        let (objective, point, predicted_ir_mv, cost) =
            best.ok_or_else(|| CoreError::EmptyDesignSpace {
                benchmark: self.benchmark.to_string(),
            })?;

        // Verify with the real mesh (the Table 9 "R-Mesh" column).
        let design = point.to_design(self.benchmark)?;
        let mesh = platform.evaluate(&design)?;
        let measured = mesh.max_ir(&self.space.default_state(), 1.0)?;

        Ok(BestSolution {
            point,
            predicted_ir_mv,
            measured_ir_mv: measured.value(),
            cost,
            objective,
        })
    }

    /// Extracts the predicted IR-vs-cost Pareto front over the fine grid:
    /// every design point not dominated by a cheaper-and-lower-IR one,
    /// sorted by cost. Sweeping α in Equation (1) walks along this front;
    /// the front itself shows the whole tradeoff at once.
    pub fn pareto_front(&self) -> Vec<ParetoPoint> {
        let mut points = Vec::new();
        for cm in &self.combos {
            for &m2 in &self.space.m2_grid() {
                for &m3 in &self.space.m3_grid() {
                    for &tc in &self.space.tc_grid() {
                        let point = DesignPoint {
                            m2,
                            m3,
                            tc,
                            combo: cm.combo,
                        };
                        let Ok(design) = point.to_design(self.benchmark) else {
                            continue;
                        };
                        points.push(ParetoPoint {
                            point,
                            predicted_ir_mv: cm.model.predict(m2, m3, tc as f64).max(0.1),
                            cost: design.cost().total,
                        });
                    }
                }
            }
        }
        points.sort_by(|a, b| {
            a.cost.partial_cmp(&b.cost).expect("finite costs").then(
                a.predicted_ir_mv
                    .partial_cmp(&b.predicted_ir_mv)
                    .expect("finite IR"),
            )
        });
        let mut front: Vec<ParetoPoint> = Vec::new();
        let mut best_ir = f64::INFINITY;
        for p in points {
            if p.predicted_ir_mv < best_ir - 1e-9 {
                best_ir = p.predicted_ir_mv;
                front.push(p);
            }
        }
        front
    }
}

/// One point of the IR-vs-cost Pareto front.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The design point.
    pub point: DesignPoint,
    /// Regression-predicted IR drop, mV.
    pub predicted_ir_mv: f64,
    /// Table 8 cost.
    pub cost: f64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ir_cost_limits() {
        // α = 0: pure cost. α = 1: pure IR.
        assert!((ir_cost(50.0, 0.3, 0.0) - 0.3).abs() < 1e-12);
        assert!((ir_cost(50.0, 0.3, 1.0) - 50.0).abs() < 1e-12);
        // Geometric interpolation in between.
        let mid = ir_cost(100.0, 1.0, 0.5);
        assert!((mid - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ir_cost_is_monotonic_in_both_arguments() {
        for alpha in [0.1, 0.3, 0.7] {
            assert!(ir_cost(20.0, 0.5, alpha) < ir_cost(30.0, 0.5, alpha));
            assert!(ir_cost(20.0, 0.5, alpha) < ir_cost(20.0, 0.8, alpha));
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn ir_cost_rejects_bad_alpha() {
        let _ = ir_cost(10.0, 1.0, 1.5);
    }

    #[test]
    fn pareto_front_is_monotone_and_contains_the_optima() {
        use crate::platform::Platform;
        use pi3d_mesh::MeshOptions;

        let platform = Platform::new(MeshOptions::coarse());
        let ch = characterize(&platform, Benchmark::StackedDdr3OffChip, 8).unwrap();
        let front = ch.pareto_front();
        assert!(front.len() >= 5, "front has only {} points", front.len());
        // Sorted by cost ascending, IR strictly descending.
        for w in front.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-12);
            assert!(w[0].predicted_ir_mv > w[1].predicted_ir_mv);
        }
        // The alpha-optimal points lie on (or at) the front's envelope:
        // no front point dominates them.
        for alpha in [0.0, 0.3, 1.0] {
            let best = ch.optimize(alpha, &platform).unwrap();
            let dominated = front.iter().any(|p| {
                p.cost < best.cost - 1e-9 && p.predicted_ir_mv < best.predicted_ir_mv - 1e-9
            });
            assert!(
                !dominated,
                "alpha {alpha} optimum dominated by a front point"
            );
        }
    }
}
