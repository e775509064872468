//! Per-run report: phase timings, convergence traces, mesh and memsim
//! statistics, experiment wall clocks — serialized to JSON.
//!
//! Instrumented code pushes records into global sinks
//! ([`record_convergence`], [`record_mesh_stats`], [`record_policy_stats`],
//! [`record_experiment`]); at the end of a run, [`RunReport::collect`]
//! snapshots the sinks together with the [`metrics`] registry and the
//! [`span`] tree, and
//! [`RunReport::to_json`] / [`RunReport::write_json`] emit the
//! `pi3d.run_report.v1` document.
//!
//! Sinks are capped: design-space sweeps run thousands of solves, and a
//! report that grows without bound would turn observability into a
//! memory leak. Once a sink is full, further records are counted but
//! dropped — the early-out is one relaxed atomic load, so saturated
//! sinks cost nothing.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::Json;
use crate::{metrics, span};

/// Identifies the JSON layout emitted by [`RunReport::to_json`].
pub const SCHEMA: &str = "pi3d.run_report.v1";

/// Most convergence traces kept per run (sweeps run thousands of solves).
pub const MAX_TRACES: usize = 32;
/// Most mesh-statistics records kept per run.
pub const MAX_MESH_RECORDS: usize = 64;
/// Most memsim policy records kept per run.
pub const MAX_POLICY_RECORDS: usize = 256;
/// Most experiment wall-clock records kept per run.
pub const MAX_EXPERIMENTS: usize = 256;
/// Most fault-sweep level records kept per run.
pub const MAX_FAULT_RECORDS: usize = 64;
/// Most quarantined-unit records kept per run.
pub const MAX_QUARANTINED_RECORDS: usize = 256;

/// One CG solve's convergence history.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// What was being solved (e.g. `"fig4_ir_map"`).
    pub label: String,
    /// Iterations to convergence (or the cap).
    pub iterations: u64,
    /// Final relative residual ‖r‖/‖b‖.
    pub final_relative_residual: f64,
    /// Relative residual after each iteration.
    pub residuals: Vec<f64>,
}

/// Mesh size statistics for one built stack mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshStatsRecord {
    /// Which benchmark/design the mesh belongs to.
    pub label: String,
    /// Unknowns in the conductance system.
    pub nodes: u64,
    /// Resistive branches stamped.
    pub edges: u64,
    /// Stacked layers (dies + package planes).
    pub layers: u64,
    /// Nonzeros in the assembled CSR matrix.
    pub nnz: u64,
}

/// Memory-controller statistics for one simulated policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyStatsRecord {
    /// Which benchmark/workload was simulated.
    pub label: String,
    /// Power-management policy name.
    pub policy: String,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Requests completed.
    pub completed: u64,
    /// Fraction of accesses hitting an open row.
    pub row_hit_rate: f64,
    /// Mean request-queue depth over the run.
    pub avg_queue_depth: f64,
    /// Cycles with work queued but nothing issued.
    pub stall_cycles: u64,
    /// Worst IR drop observed, in millivolts.
    pub max_ir_mv: f64,
}

/// Survival statistics for one severity level of a Monte Carlo PDN fault
/// sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepRecord {
    /// Which benchmark/design was swept.
    pub label: String,
    /// Severity multiplier applied to the base fault rates.
    pub level: f64,
    /// Trials run at this level.
    pub trials: u64,
    /// Trials whose mesh stayed fully supplied and solved.
    pub survived: u64,
    /// Mean injected opens (TSV + contact + via) per trial.
    pub mean_opens: f64,
    /// Mean max DRAM IR drop over surviving trials, mV (0 when none).
    pub mean_max_ir_mv: f64,
    /// Worst max DRAM IR drop over surviving trials, mV.
    pub worst_max_ir_mv: f64,
    /// Mean islanded-node count over degraded trials (0 when none).
    pub mean_islanded_nodes: f64,
}

/// One work unit quarantined by a shard supervisor after repeatedly
/// killing its worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedUnitRecord {
    /// Index of the poisoned work unit within its sweep.
    pub unit: u64,
    /// The unit's journal key (`hash(config:unit)`, 16 hex digits).
    pub key: String,
    /// Worker deaths attributed to the unit before quarantine.
    pub attempts: u64,
    /// How the last attempt's worker died (e.g. `"exit code 1"`,
    /// `"signal 9"`).
    pub last_exit: String,
    /// Pipeline stage the unit belonged to (the sweep kind).
    pub stage: String,
}

impl QuarantinedUnitRecord {
    /// The record as one JSON object: a line of the shard supervisor's
    /// quarantine sidecar and an entry of the run report's
    /// `quarantined_units` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("unit", Json::num(self.unit as f64)),
            ("key", Json::str(self.key.clone())),
            ("attempts", Json::num(self.attempts as f64)),
            ("last_exit", Json::str(self.last_exit.clone())),
            ("stage", Json::str(self.stage.clone())),
        ])
    }

    /// Parses [`QuarantinedUnitRecord::to_json`]'s object; `None` when a
    /// field is missing or of the wrong type.
    pub fn from_json(json: &Json) -> Option<QuarantinedUnitRecord> {
        Some(QuarantinedUnitRecord {
            unit: json.get("unit").and_then(Json::as_num)? as u64,
            key: json.get("key").and_then(Json::as_str)?.to_owned(),
            attempts: json.get("attempts").and_then(Json::as_num)? as u64,
            last_exit: json.get("last_exit").and_then(Json::as_str)?.to_owned(),
            stage: json.get("stage").and_then(Json::as_str)?.to_owned(),
        })
    }
}

/// How a run ended: success, typed failure, cooperative cancellation, or
/// deadline expiry — written into the report so partial artifacts are
/// self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Terminal status: `"ok"`, `"error"`, `"cancelled"`, or `"deadline"`.
    pub status: String,
    /// Pipeline stage that was active when the run ended (e.g.
    /// `"fault_sweep"`, `"report"`).
    pub stage: String,
    /// Process exit code the CLI returned (0 ok, 1 error, 130 cancelled).
    pub exit_code: u8,
    /// Rendered error for non-ok statuses, empty otherwise.
    pub error: String,
}

/// Wall clock for one experiment (a paper table or figure).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment name (e.g. `"table2"`).
    pub name: String,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Whether the experiment completed without failures.
    pub ok: bool,
}

struct Sink<T> {
    items: Mutex<Vec<T>>,
    // Approximate count of accepted + dropped records; lets the hot path
    // skip the lock entirely once the cap is reached.
    seen: AtomicUsize,
    cap: usize,
}

impl<T> Sink<T> {
    const fn new(cap: usize) -> Sink<T> {
        Sink {
            items: Mutex::new(Vec::new()),
            seen: AtomicUsize::new(0),
            cap,
        }
    }

    fn push(&self, make: impl FnOnce() -> T) {
        if self.seen.fetch_add(1, Ordering::Relaxed) >= self.cap {
            return;
        }
        let mut items = self.lock();
        if items.len() < self.cap {
            items.push(make());
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.items.lock().expect("report sink poisoned")
    }

    fn dropped(&self) -> usize {
        self.seen.load(Ordering::Relaxed).saturating_sub(self.cap)
    }

    fn reset(&self) {
        let mut items = self.lock();
        items.clear();
        self.seen.store(0, Ordering::Relaxed);
    }
}

fn sinks() -> &'static Sinks {
    static SINKS: OnceLock<Sinks> = OnceLock::new();
    SINKS.get_or_init(|| Sinks {
        traces: Sink::new(MAX_TRACES),
        mesh: Sink::new(MAX_MESH_RECORDS),
        policies: Sink::new(MAX_POLICY_RECORDS),
        experiments: Sink::new(MAX_EXPERIMENTS),
        faults: Sink::new(MAX_FAULT_RECORDS),
        quarantined: Sink::new(MAX_QUARANTINED_RECORDS),
    })
}

struct Sinks {
    traces: Sink<ConvergenceTrace>,
    mesh: Sink<MeshStatsRecord>,
    policies: Sink<PolicyStatsRecord>,
    experiments: Sink<ExperimentRecord>,
    faults: Sink<FaultSweepRecord>,
    quarantined: Sink<QuarantinedUnitRecord>,
}

fn outcome_slot() -> &'static Mutex<Option<RunOutcome>> {
    static OUTCOME: OnceLock<Mutex<Option<RunOutcome>>> = OnceLock::new();
    OUTCOME.get_or_init(|| Mutex::new(None))
}

/// Records how the run ended; the last call before collection wins.
/// Called by the CLIs on *every* exit path — success, typed error,
/// cancellation, deadline — so partial reports are self-describing.
pub fn set_outcome(outcome: RunOutcome) {
    *outcome_slot().lock().expect("outcome slot poisoned") = Some(outcome);
}

/// Records one solve's convergence history (dropped once the per-run cap
/// of [`MAX_TRACES`] is reached).
pub fn record_convergence(label: &str, iterations: u64, final_rel: f64, residuals: &[f64]) {
    sinks().traces.push(|| ConvergenceTrace {
        label: label.to_owned(),
        iterations,
        final_relative_residual: final_rel,
        residuals: residuals.to_vec(),
    });
}

/// Records mesh size statistics for one built mesh.
pub fn record_mesh_stats(record: MeshStatsRecord) {
    sinks().mesh.push(|| record);
}

/// Records memory-controller statistics for one policy run.
pub fn record_policy_stats(record: PolicyStatsRecord) {
    sinks().policies.push(|| record);
}

/// Records wall clock for one completed experiment.
pub fn record_experiment(name: &str, wall_secs: f64, ok: bool) {
    sinks().experiments.push(|| ExperimentRecord {
        name: name.to_owned(),
        wall_secs,
        ok,
    });
}

/// Records one fault-sweep severity level's survival statistics.
pub fn record_fault_sweep(record: FaultSweepRecord) {
    sinks().faults.push(|| record);
}

/// Records one unit quarantined by a shard supervisor.
pub fn record_quarantined_unit(record: QuarantinedUnitRecord) {
    sinks().quarantined.push(|| record);
}

/// Clears every sink, the metrics registry, the span tree, the trace
/// rings, and progress state — call at the start of a run (the CLIs do)
/// so reports cover exactly one run and back-to-back runs in one process
/// (the future serve mode) never leak events across reports.
pub fn reset_run() {
    let s = sinks();
    s.traces.reset();
    s.mesh.reset();
    s.policies.reset();
    s.experiments.reset();
    s.faults.reset();
    s.quarantined.reset();
    *outcome_slot().lock().expect("outcome slot poisoned") = None;
    metrics::reset();
    span::reset();
    crate::trace::reset();
    crate::progress::reset();
}

/// A frozen copy of everything observed during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Aggregated span tree.
    pub phases: Vec<span::PhaseTiming>,
    /// Metrics registry contents.
    pub metrics: metrics::MetricsSnapshot,
    /// Convergence traces (capped).
    pub convergence: Vec<ConvergenceTrace>,
    /// Traces dropped after the cap was reached.
    pub convergence_dropped: usize,
    /// Mesh size statistics.
    pub mesh: Vec<MeshStatsRecord>,
    /// Memory-controller policy statistics.
    pub memsim: Vec<PolicyStatsRecord>,
    /// Experiment wall clocks.
    pub experiments: Vec<ExperimentRecord>,
    /// Fault-sweep survival statistics, one record per severity level.
    pub fault_sweep: Vec<FaultSweepRecord>,
    /// Units quarantined by a shard supervisor (empty for non-sharded
    /// runs).
    pub quarantined_units: Vec<QuarantinedUnitRecord>,
    /// How the run ended, when the CLI recorded it ([`set_outcome`]).
    pub outcome: Option<RunOutcome>,
}

impl RunReport {
    /// Snapshots the sinks, metrics registry, and span tree. Also stamps
    /// the process-wide `mem.peak_rss_mb` / `mem.current_rss_mb` gauges
    /// (best-effort, Linux `/proc`) so every report carries them.
    pub fn collect() -> RunReport {
        crate::mem::record_process_peak();
        let s = sinks();
        RunReport {
            phases: span::snapshot(),
            metrics: metrics::snapshot(),
            convergence: s.traces.lock().clone(),
            convergence_dropped: s.traces.dropped(),
            mesh: s.mesh.lock().clone(),
            memsim: s.policies.lock().clone(),
            experiments: s.experiments.lock().clone(),
            fault_sweep: s.faults.lock().clone(),
            quarantined_units: s.quarantined.lock().clone(),
            outcome: outcome_slot()
                .lock()
                .expect("outcome slot poisoned")
                .clone(),
        }
    }

    /// Builds the `pi3d.run_report.v1` JSON document.
    pub fn to_json(&self) -> Json {
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("path", Json::str(p.path.clone())),
                ("calls", Json::num(p.calls as f64)),
                ("total_ms", Json::num(p.total_ns as f64 / 1e6)),
            ])
        });
        let counters = self
            .metrics
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::num(*value as f64)));
        let gauges = self
            .metrics
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), Json::num(*value)));
        let histograms = self.metrics.histograms.iter().map(|(name, h)| {
            (
                name.clone(),
                Json::obj([
                    ("count", Json::num(h.count as f64)),
                    ("sum", Json::num(h.sum as f64)),
                    ("p50", Json::num(h.quantile(0.50))),
                    ("p95", Json::num(h.quantile(0.95))),
                    ("p99", Json::num(h.quantile(0.99))),
                    (
                        "buckets",
                        Json::arr(h.buckets.iter().map(|&(lower, count)| {
                            Json::arr([Json::num(lower as f64), Json::num(count as f64)])
                        })),
                    ),
                ]),
            )
        });
        let convergence = self.convergence.iter().map(|t| {
            Json::obj([
                ("label", Json::str(t.label.clone())),
                ("iterations", Json::num(t.iterations as f64)),
                (
                    "final_relative_residual",
                    Json::num(t.final_relative_residual),
                ),
                (
                    "residuals",
                    Json::arr(t.residuals.iter().map(|&r| Json::num(r))),
                ),
            ])
        });
        let mesh = self.mesh.iter().map(|m| {
            Json::obj([
                ("label", Json::str(m.label.clone())),
                ("nodes", Json::num(m.nodes as f64)),
                ("edges", Json::num(m.edges as f64)),
                ("layers", Json::num(m.layers as f64)),
                ("nnz", Json::num(m.nnz as f64)),
            ])
        });
        let memsim = self.memsim.iter().map(|p| {
            Json::obj([
                ("label", Json::str(p.label.clone())),
                ("policy", Json::str(p.policy.clone())),
                ("cycles", Json::num(p.cycles as f64)),
                ("completed", Json::num(p.completed as f64)),
                ("row_hit_rate", Json::num(p.row_hit_rate)),
                ("avg_queue_depth", Json::num(p.avg_queue_depth)),
                ("stall_cycles", Json::num(p.stall_cycles as f64)),
                ("max_ir_mv", Json::num(p.max_ir_mv)),
            ])
        });
        let fault_sweep = self.fault_sweep.iter().map(|r| {
            Json::obj([
                ("label", Json::str(r.label.clone())),
                ("level", Json::num(r.level)),
                ("trials", Json::num(r.trials as f64)),
                ("survived", Json::num(r.survived as f64)),
                ("mean_opens", Json::num(r.mean_opens)),
                ("mean_max_ir_mv", Json::num(r.mean_max_ir_mv)),
                ("worst_max_ir_mv", Json::num(r.worst_max_ir_mv)),
                ("mean_islanded_nodes", Json::num(r.mean_islanded_nodes)),
            ])
        });
        let quarantined = self
            .quarantined_units
            .iter()
            .map(QuarantinedUnitRecord::to_json);
        let experiments = self.experiments.iter().map(|e| {
            Json::obj([
                ("name", Json::str(e.name.clone())),
                ("wall_ms", Json::num(e.wall_secs * 1e3)),
                ("ok", Json::Bool(e.ok)),
            ])
        });
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("phases", Json::Arr(phases.collect())),
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histograms", Json::Obj(histograms.collect())),
            ("convergence", Json::Arr(convergence.collect())),
            (
                "convergence_dropped",
                Json::num(self.convergence_dropped as f64),
            ),
            ("mesh", Json::Arr(mesh.collect())),
            ("memsim", Json::Arr(memsim.collect())),
            ("fault_sweep", Json::Arr(fault_sweep.collect())),
            ("quarantined_units", Json::Arr(quarantined.collect())),
            ("experiments", Json::Arr(experiments.collect())),
            (
                "outcome",
                match &self.outcome {
                    Some(o) => Json::obj([
                        ("status", Json::str(o.status.clone())),
                        ("stage", Json::str(o.stage.clone())),
                        ("exit_code", Json::num(o.exit_code as f64)),
                        ("error", Json::str(o.error.clone())),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Serializes [`Self::to_json`] to `path` via
    /// [`atomic_write`](crate::fsio::atomic_write), so a crash or kill
    /// mid-write can never leave a truncated report on disk.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        crate::fsio::atomic_write(path, self.to_json().to_pretty_string().as_bytes())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    use crate::test_support::serial;

    #[test]
    fn report_round_trips_through_json() {
        let _guard = serial();
        reset_run();
        record_convergence("unit", 3, 1e-11, &[1.0, 1e-4, 1e-11]);
        record_mesh_stats(MeshStatsRecord {
            label: "unit".into(),
            nodes: 100,
            edges: 240,
            layers: 6,
            nnz: 580,
        });
        record_policy_stats(PolicyStatsRecord {
            label: "unit".into(),
            policy: "distr".into(),
            cycles: 5000,
            completed: 2000,
            row_hit_rate: 0.8,
            avg_queue_depth: 3.5,
            stall_cycles: 120,
            max_ir_mv: 42.0,
        });
        record_experiment("unit_exp", 0.25, true);
        record_fault_sweep(FaultSweepRecord {
            label: "unit".into(),
            level: 0.5,
            trials: 16,
            survived: 12,
            mean_opens: 3.25,
            mean_max_ir_mv: 88.0,
            worst_max_ir_mv: 120.0,
            mean_islanded_nodes: 240.0,
        });
        metrics::counter("test.report.counter").incr(7);

        let report = RunReport::collect();
        let text = report.to_json().to_pretty_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let trace = &doc.get("convergence").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(trace.get("iterations").and_then(Json::as_num), Some(3.0));
        assert_eq!(
            trace.get("residuals").and_then(Json::as_arr).unwrap().len(),
            3
        );
        let mesh = &doc.get("mesh").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(mesh.get("nodes").and_then(Json::as_num), Some(100.0));
        let policy = &doc.get("memsim").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(policy.get("policy").and_then(Json::as_str), Some("distr"));
        assert_eq!(
            policy.get("stall_cycles").and_then(Json::as_num),
            Some(120.0)
        );
        let sweep = &doc.get("fault_sweep").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(sweep.get("level").and_then(Json::as_num), Some(0.5));
        assert_eq!(sweep.get("survived").and_then(Json::as_num), Some(12.0));
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("test.report.counter").and_then(Json::as_num),
            Some(7.0)
        );
        reset_run();
    }

    #[test]
    fn trace_sink_caps_and_counts_drops() {
        let _guard = serial();
        reset_run();
        for i in 0..(MAX_TRACES + 10) {
            record_convergence(&format!("t{i}"), 1, 0.5, &[0.5]);
        }
        let report = RunReport::collect();
        assert_eq!(report.convergence.len(), MAX_TRACES);
        assert_eq!(report.convergence_dropped, 10);
        reset_run();
    }

    #[test]
    fn reset_run_clears_everything() {
        let _guard = serial();
        record_convergence("stale", 1, 0.5, &[0.5]);
        record_experiment("stale", 1.0, false);
        set_outcome(RunOutcome {
            status: "error".into(),
            stage: "stale".into(),
            exit_code: 1,
            error: "stale".into(),
        });
        reset_run();
        let report = RunReport::collect();
        assert!(report.convergence.is_empty());
        assert!(report.experiments.is_empty());
        assert_eq!(report.convergence_dropped, 0);
        assert!(report.outcome.is_none());
    }

    #[test]
    fn histograms_carry_quantile_estimates() {
        let _guard = serial();
        reset_run();
        let h = metrics::histogram("test.report.quantile_hist");
        for v in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 2000] {
            h.record(v);
        }
        let doc = Json::parse(&RunReport::collect().to_json().to_pretty_string()).unwrap();
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("test.report.quantile_hist"))
            .expect("histogram serialized");
        let p50 = hist.get("p50").and_then(Json::as_num).unwrap();
        let p95 = hist.get("p95").and_then(Json::as_num).unwrap();
        let p99 = hist.get("p99").and_then(Json::as_num).unwrap();
        assert!((8.0..=15.0).contains(&p50), "p50={p50}");
        assert!(p95 >= p50 && p99 >= p95, "p50={p50} p95={p95} p99={p99}");
        assert!((1024.0..=2047.0).contains(&p99), "p99={p99}");
        reset_run();
    }

    #[test]
    fn reset_run_clears_trace_buffers_and_progress_state() {
        let _guard = serial();
        reset_run();
        crate::trace::set_enabled(true);
        crate::trace::instant("test", "t_report_stale");
        crate::progress::set_mode(crate::progress::ProgressMode::Human);
        reset_run();
        crate::trace::set_enabled(false);
        assert_eq!(crate::trace::drain().total_events(), 0);
        assert_eq!(crate::progress::mode(), crate::progress::ProgressMode::Off);
        assert_eq!(crate::progress::last_line(), None);
    }

    #[test]
    fn outcome_serializes_and_last_write_wins() {
        let _guard = serial();
        reset_run();
        let report = RunReport::collect();
        assert_eq!(report.to_json().get("outcome"), Some(&Json::Null));

        set_outcome(RunOutcome {
            status: "ok".into(),
            stage: "report".into(),
            exit_code: 0,
            error: String::new(),
        });
        set_outcome(RunOutcome {
            status: "cancelled".into(),
            stage: "fault_sweep".into(),
            exit_code: 130,
            error: "interrupted by SIGINT".into(),
        });
        let report = RunReport::collect();
        let text = report.to_json().to_pretty_string();
        let doc = Json::parse(&text).unwrap();
        let outcome = doc.get("outcome").unwrap();
        assert_eq!(
            outcome.get("status").and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(outcome.get("exit_code").and_then(Json::as_num), Some(130.0));
        assert_eq!(
            outcome.get("stage").and_then(Json::as_str),
            Some("fault_sweep")
        );
        reset_run();
    }

    #[test]
    fn write_json_is_atomic_and_parseable() {
        let _guard = serial();
        reset_run();
        record_convergence("unit", 2, 1e-12, &[1e-3, 1e-12]);
        let path =
            std::env::temp_dir().join(format!("pi3d-report-atomic-{}.json", std::process::id()));
        RunReport::collect()
            .write_json(&path)
            .expect("write report");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = Json::parse(&text).expect("valid JSON on disk");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let _ = std::fs::remove_file(&path);
        reset_run();
    }
}
