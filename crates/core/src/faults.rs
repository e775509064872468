//! Monte Carlo PDN fault sweeps: survival curves over a defect-severity
//! axis, plus the architectural consequence — how the paper's read
//! policies behave when scheduled against a *degraded* IR-drop LUT.
//!
//! The paper's packaging tables assume a defect-free network. This module
//! asks the robustness question: as TSVs, bumps, and vias drop out, when
//! does the stack stop being solvable at all (supply islands), and how
//! much IR-drop margin do the survivors lose? Each trial builds a mesh
//! with an independently seeded defect draw; a trial either *survives*
//! (the mesh stays connected and solves) or comes back as a typed
//! [`MeshError::DegradedSupply`] that we fold into the survival curve
//! instead of failing the sweep.
//!
//! # Determinism
//!
//! Trial seeds are derived from `(base seed, level index, trial index)`
//! alone, and trials are fanned with
//! [`parallel_map`](pi3d_telemetry::par::parallel_map), which returns
//! results in input order. Every per-trial mesh is built and solved with
//! one thread. The sweep is therefore bit-identical for every value of
//! [`FaultSweepOptions::threads`].

use crate::error::CoreError;
use crate::jobs::{config_hash_of, journaled_sweep, JobContext, PartialSweep};
use crate::lut_builder::build_ir_lut_from_mesh;
use crate::report::{mv, TextTable};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, DieState, FaultSpec, MemoryState, StackDesign};
use pi3d_memsim::{MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d_mesh::{MeshError, MeshOptions, StackMesh};
use pi3d_telemetry::rng::SplitMix64;
use pi3d_telemetry::Json;
use std::fmt;

/// Configuration for [`run_fault_sweep`].
#[derive(Debug, Clone)]
pub struct FaultSweepOptions {
    /// Base fault rates; each sweep level scales these via
    /// [`FaultSpec::scaled`]. The base seed also anchors every trial seed.
    pub base: FaultSpec,
    /// Severity multipliers to sweep, in output order.
    pub levels: Vec<f64>,
    /// Monte Carlo trials per level.
    pub trials: usize,
    /// Worker threads fanning the trials (never changes the results).
    pub threads: usize,
    /// Mesh discretization for the per-trial builds.
    pub mesh: MeshOptions,
    /// Powered banks per die in the probe state and the degraded LUT.
    pub max_banks_per_die: usize,
    /// Read requests for the degraded-policy stage; `0` skips it.
    pub reads: usize,
}

impl FaultSweepOptions {
    /// Defaults: severity levels 0.25/0.5/1.0 over `base`, 16 trials per
    /// level, single-threaded, coarse mesh, 2 banks per die, and a
    /// 1500-read policy stage.
    pub fn new(base: FaultSpec) -> Self {
        FaultSweepOptions {
            base,
            levels: vec![0.25, 0.5, 1.0],
            trials: 16,
            threads: 1,
            mesh: MeshOptions::coarse(),
            max_banks_per_die: 2,
            reads: 1_500,
        }
    }
}

/// What one Monte Carlo trial produced.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// The faulted mesh stayed fully supplied and solved.
    Solved {
        /// Max DRAM IR drop of the probe state, mV.
        max_ir_mv: f64,
        /// Injected opens (TSV + contact + via).
        opens: usize,
        /// Elements with EM resistance drift applied.
        drifted: usize,
    },
    /// The defect draw disconnected part of the stack from the supply.
    Degraded {
        /// Nodes with no path to any supply.
        islanded_nodes: usize,
        /// Connected components without supply.
        islands: usize,
        /// DRAM dies containing islanded nodes.
        affected_dies: Vec<usize>,
        /// Injected opens (TSV + contact + via).
        opens: usize,
    },
}

/// One trial of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrial {
    /// Severity multiplier the trial ran at.
    pub level: f64,
    /// Trial index within its level.
    pub trial: usize,
    /// The derived defect-draw seed.
    pub seed: u64,
    /// What happened.
    pub outcome: TrialOutcome,
}

/// Survival statistics for one severity level.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLevelSummary {
    /// Severity multiplier.
    pub level: f64,
    /// Trials run.
    pub trials: usize,
    /// Trials that stayed fully supplied and solved.
    pub survived: usize,
    /// Mean injected opens per trial.
    pub mean_opens: f64,
    /// Mean max DRAM IR drop over survivors, mV (0 when none survived).
    pub mean_max_ir_mv: f64,
    /// Worst max DRAM IR drop over survivors, mV.
    pub worst_max_ir_mv: f64,
    /// Mean islanded-node count over degraded trials (0 when none).
    pub mean_islanded_nodes: f64,
}

impl FaultLevelSummary {
    /// Fraction of trials that survived.
    pub fn survival_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.survived as f64 / self.trials as f64
        }
    }
}

/// One read policy's behavior on the degraded stack.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyUnderFaults {
    /// Policy name (`standard`, `ir_fcfs`, `ir_distr`).
    pub policy: &'static str,
    /// Workload runtime against the pristine LUT, µs.
    pub pristine_runtime_us: f64,
    /// Workload runtime against the degraded LUT, µs.
    pub degraded_runtime_us: f64,
    /// Max IR seen against the pristine LUT, mV.
    pub pristine_max_ir_mv: f64,
    /// Max IR seen against the degraded LUT, mV.
    pub degraded_max_ir_mv: f64,
}

impl PolicyUnderFaults {
    /// Runtime inflation of the degraded stack over the pristine one.
    pub fn slowdown(&self) -> f64 {
        if self.pristine_runtime_us > 0.0 {
            self.degraded_runtime_us / self.pristine_runtime_us
        } else {
            1.0
        }
    }
}

/// Full result of a fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepReport {
    /// The benchmark swept.
    pub benchmark: Benchmark,
    /// The base fault rates (severity level 1.0).
    pub base: FaultSpec,
    /// Every trial, grouped by level in input order.
    pub trials: Vec<FaultTrial>,
    /// Per-level survival statistics, in `levels` order.
    pub levels: Vec<FaultLevelSummary>,
    /// Policy behavior on a degraded-but-connected mesh (empty when
    /// `reads == 0` or no trial survived).
    pub policies: Vec<PolicyUnderFaults>,
    /// Severity level the policy stage ran at, if it ran.
    pub policy_level: Option<f64>,
}

impl FaultSweepReport {
    /// Summary for one severity level.
    pub fn level(&self, level: f64) -> Option<&FaultLevelSummary> {
        self.levels.iter().find(|l| l.level == level)
    }
}

impl fmt::Display for FaultSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PDN fault sweep: {} ({} trials/level, seed {})",
            self.benchmark,
            self.levels.first().map_or(0, |l| l.trials),
            self.base.seed
        )?;
        let mut t = TextTable::new(vec![
            "severity", "survived", "opens", "mean IR", "worst IR", "islanded",
        ]);
        for l in &self.levels {
            t.row(vec![
                format!("{:.2}x", l.level),
                format!("{}/{}", l.survived, l.trials),
                format!("{:.1}", l.mean_opens),
                mv(l.mean_max_ir_mv),
                mv(l.worst_max_ir_mv),
                format!("{:.0}", l.mean_islanded_nodes),
            ]);
        }
        write!(f, "{t}")?;
        if let Some(level) = self.policy_level {
            writeln!(f, "\nPolicies on a {level:.2}x-severity surviving stack")?;
            let mut t = TextTable::new(vec![
                "policy",
                "pristine (us)",
                "degraded (us)",
                "slowdown",
                "degraded IR",
            ]);
            for p in &self.policies {
                t.row(vec![
                    p.policy.to_string(),
                    format!("{:.1}", p.pristine_runtime_us),
                    format!("{:.1}", p.degraded_runtime_us),
                    format!("{:.2}x", p.slowdown()),
                    mv(p.degraded_max_ir_mv),
                ]);
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Derives the defect-draw seed of one trial. A SplitMix64 step
/// decorrelates the structured `(level, trial)` key so neighboring trials
/// do not share low-bit patterns.
fn trial_seed(base: u64, level_idx: usize, trial: usize) -> u64 {
    SplitMix64::new(
        base.wrapping_add((level_idx as u64 + 1) << 32)
            .wrapping_add(trial as u64),
    )
    .next_u64()
}

/// The journal config hash of a sweep: everything that changes trial
/// *results* (design, rates, seed, levels, trial count, mesh resolution,
/// probe state, policy-stage reads), deliberately excluding the thread
/// count so a journal written at `--threads 8` resumes at `--threads 1`.
fn sweep_config_hash(design: &StackDesign, options: &FaultSweepOptions) -> u64 {
    let mesh = MeshOptions {
        threads: 1,
        ..options.mesh.clone()
    };
    config_hash_of(&[
        "fault_sweep",
        &format!("{design:?}"),
        &format!("{:?}", options.base),
        &format!("{:?}", options.levels),
        &options.trials.to_string(),
        &format!("{mesh:?}"),
        &options.max_banks_per_die.to_string(),
        &options.reads.to_string(),
    ])
}

/// Journal payload of one trial. `usize` counts fit `f64` exactly (mesh
/// node counts are far below 2^53); the seed is a full `u64`, so it
/// travels as a decimal string.
fn trial_to_json(t: &FaultTrial) -> Json {
    let outcome = match &t.outcome {
        TrialOutcome::Solved {
            max_ir_mv,
            opens,
            drifted,
        } => Json::obj([
            ("kind", Json::str("solved")),
            ("max_ir_mv", Json::num(*max_ir_mv)),
            ("opens", Json::num(*opens as f64)),
            ("drifted", Json::num(*drifted as f64)),
        ]),
        TrialOutcome::Degraded {
            islanded_nodes,
            islands,
            affected_dies,
            opens,
        } => Json::obj([
            ("kind", Json::str("degraded")),
            ("islanded_nodes", Json::num(*islanded_nodes as f64)),
            ("islands", Json::num(*islands as f64)),
            (
                "affected_dies",
                Json::arr(affected_dies.iter().map(|&d| Json::num(d as f64))),
            ),
            ("opens", Json::num(*opens as f64)),
        ]),
    };
    Json::obj([
        ("level", Json::num(t.level)),
        ("trial", Json::num(t.trial as f64)),
        ("seed", Json::str(t.seed.to_string())),
        ("outcome", outcome),
    ])
}

fn trial_from_json(payload: &Json) -> Option<FaultTrial> {
    let as_usize = |j: &Json| j.as_num().filter(|v| *v >= 0.0).map(|v| v as usize);
    let level = payload.get("level")?.as_num()?;
    let trial = as_usize(payload.get("trial")?)?;
    let seed: u64 = payload.get("seed")?.as_str()?.parse().ok()?;
    let o = payload.get("outcome")?;
    let outcome = match o.get("kind")?.as_str()? {
        "solved" => TrialOutcome::Solved {
            max_ir_mv: o.get("max_ir_mv")?.as_num()?,
            opens: as_usize(o.get("opens")?)?,
            drifted: as_usize(o.get("drifted")?)?,
        },
        "degraded" => TrialOutcome::Degraded {
            islanded_nodes: as_usize(o.get("islanded_nodes")?)?,
            islands: as_usize(o.get("islands")?)?,
            affected_dies: o
                .get("affected_dies")?
                .as_arr()?
                .iter()
                .map(as_usize)
                .collect::<Option<Vec<_>>>()?,
            opens: as_usize(o.get("opens")?)?,
        },
        _ => return None,
    };
    Some(FaultTrial {
        level,
        trial,
        seed,
        outcome,
    })
}

/// The probe state: every die active with the configured bank count, at
/// its zero-bubble implied I/O activity — the worst sustained load the
/// controller can enter.
fn probe_state(dies: usize, banks: usize) -> (MemoryState, f64) {
    let mut state = MemoryState::idle(dies);
    for die in 0..dies {
        state = state.with_die(die, DieState::active(banks));
    }
    (state, 1.0 / dies as f64)
}

/// Builds and probes one faulted mesh.
fn run_trial(
    design: &StackDesign,
    options: &FaultSweepOptions,
    spec: FaultSpec,
) -> Result<TrialOutcome, CoreError> {
    let mesh_options = MeshOptions {
        faults: Some(spec),
        threads: 1,
        ..options.mesh.clone()
    };
    let mut mesh = match StackMesh::new(design, mesh_options) {
        Ok(mesh) => mesh,
        Err(MeshError::DegradedSupply(report)) => {
            let opens = report.faults.map_or(0, |f| f.total_opens());
            return Ok(TrialOutcome::Degraded {
                islanded_nodes: report.islanded_nodes,
                islands: report.islands,
                affected_dies: report.affected_dies.clone(),
                opens,
            });
        }
        Err(e) => return Err(e.into()),
    };
    let report = mesh.fault_report().unwrap_or_default();
    let (state, io) = probe_state(design.dram_die_count(), options.max_banks_per_die);
    let v = mesh.solve(&state, io).map_err(MeshError::from)?;
    let mut max = 0.0f64;
    for (_, grid) in mesh.registry().iter() {
        if grid.kind.is_logic() {
            continue;
        }
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                max = max.max(v[grid.node(ix, iy)]);
            }
        }
    }
    Ok(TrialOutcome::Solved {
        max_ir_mv: max * 1e3,
        opens: report.total_opens(),
        drifted: report.drifted,
    })
}

fn summarize(level: f64, trials: &[FaultTrial]) -> FaultLevelSummary {
    let mut survived = 0usize;
    let mut opens_sum = 0usize;
    let mut ir_sum = 0.0f64;
    let mut ir_worst = 0.0f64;
    let mut islanded_sum = 0usize;
    for t in trials {
        match &t.outcome {
            TrialOutcome::Solved {
                max_ir_mv, opens, ..
            } => {
                survived += 1;
                opens_sum += opens;
                ir_sum += max_ir_mv;
                ir_worst = ir_worst.max(*max_ir_mv);
            }
            TrialOutcome::Degraded {
                islanded_nodes,
                opens,
                ..
            } => {
                opens_sum += opens;
                islanded_sum += islanded_nodes;
            }
        }
    }
    let failed = trials.len() - survived;
    FaultLevelSummary {
        level,
        trials: trials.len(),
        survived,
        mean_opens: opens_sum as f64 / trials.len().max(1) as f64,
        mean_max_ir_mv: if survived > 0 {
            ir_sum / survived as f64
        } else {
            0.0
        },
        worst_max_ir_mv: ir_worst,
        mean_islanded_nodes: if failed > 0 {
            islanded_sum as f64 / failed as f64
        } else {
            0.0
        },
    }
}

/// Benchmark-specific simulation structure (mirrors the cross-benchmark
/// policy study).
fn sim_setup(benchmark: Benchmark) -> (TimingParams, SimConfig, WorkloadSpec) {
    let spec = benchmark.spec();
    let timing = match benchmark {
        Benchmark::WideIo => TimingParams::wide_io_200(),
        Benchmark::Hmc => TimingParams::hmc_2500(),
        _ => TimingParams::ddr3_1600(),
    };
    let mut config = SimConfig::paper_ddr3();
    config.dies = spec.dram_dies;
    config.banks_per_die = spec.banks_per_die;
    config.channels = spec.channels;
    let mut workload = WorkloadSpec::paper_ddr3();
    workload.dies = spec.dram_dies;
    workload.banks_per_die = spec.banks_per_die;
    workload.channels = spec.channels;
    (timing, config, workload)
}

/// Runs the three read policies against both the pristine and a degraded
/// LUT, with the IR constraint anchored to the *pristine* stack — the
/// controller's table was characterized at time zero, so a degraded stack
/// must throttle harder to honor the same cap.
fn policy_stage(
    design: &StackDesign,
    options: &FaultSweepOptions,
    degraded_spec: FaultSpec,
) -> Result<Vec<PolicyUnderFaults>, CoreError> {
    let pristine_mesh = StackMesh::new(
        design,
        MeshOptions {
            faults: None,
            threads: 1,
            ..options.mesh.clone()
        },
    )?;
    let pristine = build_ir_lut_from_mesh(&pristine_mesh, options.max_banks_per_die)?;
    let degraded_mesh = StackMesh::new(
        design,
        MeshOptions {
            faults: Some(degraded_spec),
            threads: 1,
            ..options.mesh.clone()
        },
    )?;
    let degraded = build_ir_lut_from_mesh(&degraded_mesh, options.max_banks_per_die)?;

    let worst = pristine
        .states()
        .filter_map(|s| pristine.lookup_implied(s))
        .map(|m| m.value())
        .fold(0.0f64, f64::max);
    let constraint = MilliVolts(worst * 0.8);

    let (timing, config, mut workload) = sim_setup(design.benchmark());
    workload.count = options.reads;
    let requests = workload.generate();

    let policies = [
        ("standard", ReadPolicy::standard()),
        ("ir_fcfs", ReadPolicy::ir_aware_fcfs(constraint)),
        ("ir_distr", ReadPolicy::ir_aware_distr(constraint)),
    ];
    let mut rows = Vec::with_capacity(policies.len());
    for (name, policy) in policies {
        let on_pristine = MemorySimulator::new(timing, config.clone(), policy, pristine.clone())
            .run(&requests)?;
        let on_degraded = MemorySimulator::new(timing, config.clone(), policy, degraded.clone())
            .run(&requests)?;
        rows.push(PolicyUnderFaults {
            policy: name,
            pristine_runtime_us: on_pristine.runtime_us,
            degraded_runtime_us: on_degraded.runtime_us,
            pristine_max_ir_mv: on_pristine.max_ir.value(),
            degraded_max_ir_mv: on_degraded.max_ir.value(),
        });
    }
    Ok(rows)
}

/// Runs the Monte Carlo fault sweep.
///
/// For each severity level, `trials` independently seeded defect draws
/// are injected into the design's mesh; connected meshes are solved at
/// the worst sustained memory state, disconnected ones are folded into
/// the survival curve as [`TrialOutcome::Degraded`]. If any trial at the
/// *highest* severity with survivors exists and `reads > 0`, the first
/// such trial's mesh is rebuilt (same seed, hence same defects) and its
/// degraded IR-drop LUT is run through the three read policies.
///
/// Results are bit-identical for every `threads` value — see the module
/// docs for the argument.
///
/// # Errors
///
/// Propagates design, solver (other than the typed degradation handled
/// per trial), and simulation errors.
pub fn run_fault_sweep(
    design: &StackDesign,
    options: &FaultSweepOptions,
) -> Result<FaultSweepReport, CoreError> {
    run_fault_sweep_with(design, options, &JobContext::new())
}

/// [`run_fault_sweep`] with durable execution: a [`JobContext`] supplies
/// an optional work journal (each finished trial is fsync'd and a rerun
/// skips it), a cancellation token, and a wall-clock deadline, all polled
/// between trials. Trials run panic-isolated, so one poisoned defect draw
/// surfaces as [`CoreError::WorkerPanic`] after the other trials finish
/// (and are journaled) instead of aborting the process.
///
/// Because trial seeds are positional — derived from `(base seed, level
/// index, trial index)` alone — a resumed sweep recomputes only the
/// missing trials yet reproduces the uninterrupted report bit-identically
/// at any thread count.
///
/// # Errors
///
/// As [`run_fault_sweep`], plus [`CoreError::Cancelled`],
/// [`CoreError::DeadlineExceeded`], [`CoreError::WorkerPanic`], and
/// [`CoreError::Journal`] from the durability layer, and
/// [`CoreError::Shard`] when `ctx` is scoped to a shard slice or skip
/// list (shard workers use [`run_fault_sweep_shard`]).
pub fn run_fault_sweep_with(
    design: &StackDesign,
    options: &FaultSweepOptions,
    ctx: &JobContext,
) -> Result<FaultSweepReport, CoreError> {
    let _span = pi3d_telemetry::span::span("fault_sweep");
    let outcomes = sweep_trials(design, options, ctx)?.into_results()?;

    let levels: Vec<FaultLevelSummary> = options
        .levels
        .iter()
        .enumerate()
        .map(|(i, &level)| {
            summarize(
                level,
                &outcomes[i * options.trials..(i + 1) * options.trials],
            )
        })
        .collect();

    for l in &levels {
        pi3d_telemetry::report::record_fault_sweep(pi3d_telemetry::report::FaultSweepRecord {
            label: design.benchmark().to_string(),
            level: l.level,
            trials: l.trials as u64,
            survived: l.survived as u64,
            mean_opens: l.mean_opens,
            mean_max_ir_mv: l.mean_max_ir_mv,
            worst_max_ir_mv: l.worst_max_ir_mv,
            mean_islanded_nodes: l.mean_islanded_nodes,
        });
    }

    // Policy stage: the harshest level that still produced a survivor.
    let mut policies = Vec::new();
    let mut policy_level = None;
    if options.reads > 0 {
        let candidate = levels
            .iter()
            .rev()
            .find(|l| l.survived > 0 && l.level > 0.0)
            .map(|l| l.level);
        if let Some(level) = candidate {
            let survivor = outcomes
                .iter()
                .find(|t| t.level == level && matches!(t.outcome, TrialOutcome::Solved { .. }))
                .expect("level with survivors has a solved trial");
            let spec = options.base.scaled(level).with_seed(survivor.seed);
            policies = policy_stage(design, options, spec)?;
            policy_level = Some(level);
        }
    }

    Ok(FaultSweepReport {
        benchmark: design.benchmark(),
        base: options.base,
        trials: outcomes,
        levels,
        policies,
        policy_level,
    })
}

/// The sharding plan of a fault sweep: its journal config hash and total
/// unit (trial) count — what the shard supervisor needs to slice the
/// unit space and verify the merge without running anything.
pub fn fault_sweep_plan(design: &StackDesign, options: &FaultSweepOptions) -> (u64, usize) {
    (
        sweep_config_hash(design, options),
        options.levels.len() * options.trials,
    )
}

/// Shard-worker entry point of the fault sweep: runs only the trials in
/// the scope of `ctx` (its shard slice, minus skipped units, deferred
/// tail last), journaling each into the context's shard journal.
///
/// Returns `(completed, in_scope)` unit counts; the merged report is
/// produced later by resuming the *merged* journal through
/// [`run_fault_sweep_with`], which recomputes nothing.
///
/// # Errors
///
/// As [`run_fault_sweep_with`].
pub fn run_fault_sweep_shard(
    design: &StackDesign,
    options: &FaultSweepOptions,
    ctx: &JobContext,
) -> Result<(usize, usize), CoreError> {
    let _span = pi3d_telemetry::span::span("fault_sweep_shard");
    let partial = sweep_trials(design, options, ctx)?;
    Ok((partial.completed, partial.in_scope))
}

/// The journaled trial sweep behind both entry points: every trial in
/// the scope of `ctx`, one work unit per `(level, trial)` pair.
fn sweep_trials(
    design: &StackDesign,
    options: &FaultSweepOptions,
    ctx: &JobContext,
) -> Result<PartialSweep<FaultTrial>, CoreError> {
    options.base.validate()?;

    // Flat trial descriptors so one journaled sweep covers all levels.
    let mut descriptors = Vec::with_capacity(options.levels.len() * options.trials);
    for (level_idx, &level) in options.levels.iter().enumerate() {
        for trial in 0..options.trials {
            descriptors.push((level_idx, level, trial));
        }
    }
    journaled_sweep(
        "fault_sweep",
        sweep_config_hash(design, options),
        &descriptors,
        options.threads,
        ctx,
        |_, trial| trial_to_json(trial),
        |unit, payload| {
            // Journaled trials must match what this sweep would compute:
            // same position and same positional seed.
            let (idx, level, trial) = descriptors[unit];
            trial_from_json(payload).filter(|t| {
                t.level == level
                    && t.trial == trial
                    && t.seed == trial_seed(options.base.seed, idx, trial)
            })
        },
        |_, &(idx, level, trial)| {
            let seed = trial_seed(options.base.seed, idx, trial);
            let spec = options.base.scaled(level).with_seed(seed);
            run_trial(design, options, spec).map(|outcome| FaultTrial {
                level,
                trial,
                seed,
                outcome,
            })
        },
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tiny_options(base: FaultSpec) -> FaultSweepOptions {
        FaultSweepOptions {
            levels: vec![0.5, 1.0],
            trials: 4,
            reads: 0,
            mesh: MeshOptions {
                dram_nx: 8,
                dram_ny: 8,
                ..MeshOptions::coarse()
            },
            ..FaultSweepOptions::new(base)
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let base = FaultSpec::new(42).with_tsv_open(0.05).with_em_drift(0.1);
        let reference = run_fault_sweep(&design, &tiny_options(base)).unwrap();
        for threads in [2, 8] {
            let options = FaultSweepOptions {
                threads,
                ..tiny_options(base)
            };
            let sweep = run_fault_sweep(&design, &options).unwrap();
            assert_eq!(sweep.trials, reference.trials, "threads={threads}");
            assert_eq!(sweep.levels, reference.levels, "threads={threads}");
        }
    }

    #[test]
    fn zero_rates_survive_every_trial_unchanged() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let sweep = run_fault_sweep(&design, &tiny_options(FaultSpec::new(7))).unwrap();
        for l in &sweep.levels {
            assert_eq!(l.survived, l.trials);
            assert_eq!(l.mean_opens, 0.0);
            assert!(l.mean_max_ir_mv > 0.0);
            // Pristine rebuilds of the same design are identical, so every
            // trial lands on the exact same drop.
            assert_eq!(l.mean_max_ir_mv, l.worst_max_ir_mv);
        }
    }

    #[test]
    fn certain_contact_loss_never_survives() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let base = FaultSpec::new(3).with_bump_open(1.0);
        let options = FaultSweepOptions {
            levels: vec![1.0],
            ..tiny_options(base)
        };
        let sweep = run_fault_sweep(&design, &options).unwrap();
        let l = &sweep.levels[0];
        assert_eq!(l.survived, 0);
        assert!(l.mean_islanded_nodes > 0.0);
        assert!(sweep.policies.is_empty());
        assert_eq!(sweep.policy_level, None);
    }

    #[test]
    fn faults_cost_ir_margin_on_survivors() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let pristine = run_fault_sweep(&design, &tiny_options(FaultSpec::new(11))).unwrap();
        let drifted = run_fault_sweep(
            &design,
            &tiny_options(FaultSpec::new(11).with_em_drift(0.5)),
        )
        .unwrap();
        // EM drift only raises resistances: every trial survives, and the
        // mean drop is strictly worse than the pristine stack's.
        let p = &pristine.levels[1];
        let d = &drifted.levels[1];
        assert_eq!(d.survived, d.trials);
        assert!(
            d.mean_max_ir_mv > p.mean_max_ir_mv,
            "drifted {} vs pristine {}",
            d.mean_max_ir_mv,
            p.mean_max_ir_mv
        );
    }

    #[test]
    fn policy_stage_runs_on_the_surviving_level_and_throttles() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let base = FaultSpec::new(5).with_em_drift(1.0);
        let options = FaultSweepOptions {
            levels: vec![1.0],
            trials: 2,
            reads: 800,
            mesh: MeshOptions {
                dram_nx: 8,
                dram_ny: 8,
                ..MeshOptions::coarse()
            },
            ..FaultSweepOptions::new(base)
        };
        let sweep = run_fault_sweep(&design, &options).unwrap();
        assert_eq!(sweep.policy_level, Some(1.0));
        assert_eq!(sweep.policies.len(), 3);
        for p in &sweep.policies {
            assert!(p.pristine_runtime_us > 0.0);
            assert!(p.degraded_runtime_us > 0.0);
        }
        // The IR-aware policies must not run the degraded stack faster
        // than the pristine one: a weaker PDN can only add throttling.
        for p in &sweep.policies[1..] {
            assert!(
                p.degraded_runtime_us >= p.pristine_runtime_us - 1e-6,
                "{}: degraded {} vs pristine {}",
                p.policy,
                p.degraded_runtime_us,
                p.pristine_runtime_us
            );
        }
        let text = sweep.to_string();
        assert!(text.contains("severity"));
        assert!(text.contains("ir_distr"));
    }
}
