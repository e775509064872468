use pi3d_layout::LayoutError;
use pi3d_memsim::SimulateError;
use pi3d_mesh::MeshError;
use pi3d_solver::SolverError;
use std::error::Error;
use std::fmt;

/// Errors produced by the co-optimization platform.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A linear-solver failure bubbled up from the R-Mesh engine.
    Solver(SolverError),
    /// A mesh-assembly failure, including typed supply degradation from
    /// fault-injected builds.
    Mesh(MeshError),
    /// An invalid design configuration.
    Layout(LayoutError),
    /// A memory-controller simulation failure.
    Simulate(SimulateError),
    /// A regression fit could not be computed (e.g. too few samples).
    Regression {
        /// What went wrong.
        reason: String,
    },
    /// The design space for a benchmark contained no valid point.
    EmptyDesignSpace {
        /// The benchmark searched.
        benchmark: String,
    },
    /// The run was cancelled cooperatively (SIGINT or a programmatic
    /// [`CancelToken`](pi3d_telemetry::CancelToken)) between work units.
    ///
    /// Completed units were already journaled (when a journal is attached)
    /// so a `--resume` run picks up exactly where this one stopped.
    Cancelled {
        /// Work units finished (and journaled) before the stop.
        completed: usize,
        /// Total work units in the sweep.
        total: usize,
    },
    /// The run's wall-clock deadline passed between work units.
    ///
    /// As with [`Cancelled`](Self::Cancelled), completed units are durable
    /// in the journal and a resumed run skips them.
    DeadlineExceeded {
        /// Work units finished (and journaled) before the deadline.
        completed: usize,
        /// Total work units in the sweep.
        total: usize,
    },
    /// A work item panicked inside a panic-isolated worker.
    ///
    /// The panic was contained by
    /// [`parallel_map_catch`](pi3d_telemetry::par::parallel_map_catch);
    /// the other items of the sweep completed (and were journaled) before
    /// this error was raised.
    WorkerPanic {
        /// Index of the poisoned work unit.
        unit: usize,
        /// The captured panic message.
        message: String,
    },
    /// A work journal could not be created, read, or appended to.
    Journal {
        /// Path of the journal file.
        path: String,
        /// What went wrong.
        reason: String,
    },
    /// A sharded sweep finished with poisoned units quarantined.
    ///
    /// Every healthy unit completed and is durable in the merged journal;
    /// the quarantined units (each of which killed its worker process
    /// repeatedly) are listed in the run report's `quarantined_units`
    /// section and in the supervisor's quarantine file. The process exits
    /// with the documented quarantine code instead of looping forever.
    Quarantined {
        /// Units quarantined.
        units: usize,
        /// Total work units in the sweep.
        total: usize,
    },
    /// A shard-supervisor failure outside any single journal: a worker
    /// that could not be spawned, a lease held by a live process, or a
    /// shard that exhausted its bounded respawn budget.
    Shard {
        /// What went wrong.
        reason: String,
    },
}

impl CoreError {
    /// True when this error reports a cooperative interruption — cancel,
    /// deadline, or cycle budget — of a sweep or of the memory simulator,
    /// rather than a computational failure. Interrupted work is retryable
    /// (rerun with `--resume`); failures are not.
    pub fn is_interruption(&self) -> bool {
        match self {
            CoreError::Cancelled { .. } | CoreError::DeadlineExceeded { .. } => true,
            CoreError::Simulate(e) => matches!(
                e,
                SimulateError::Cancelled { .. } | SimulateError::CycleBudgetExceeded { .. }
            ),
            _ => false,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Solver(e) => write!(f, "solver error: {e}"),
            CoreError::Mesh(e) => write!(f, "mesh error: {e}"),
            CoreError::Layout(e) => write!(f, "layout error: {e}"),
            CoreError::Simulate(e) => write!(f, "simulation error: {e}"),
            CoreError::Regression { reason } => write!(f, "regression failed: {reason}"),
            CoreError::EmptyDesignSpace { benchmark } => {
                write!(f, "no valid design point for benchmark {benchmark}")
            }
            CoreError::Cancelled { completed, total } => {
                write!(
                    f,
                    "run cancelled after {completed} of {total} work units \
                     (completed units are journaled; rerun with --resume)"
                )
            }
            CoreError::DeadlineExceeded { completed, total } => {
                write!(
                    f,
                    "run deadline exceeded after {completed} of {total} work units \
                     (completed units are journaled; rerun with --resume)"
                )
            }
            CoreError::WorkerPanic { unit, message } => {
                write!(f, "work unit {unit} panicked: {message}")
            }
            CoreError::Journal { path, reason } => {
                write!(f, "journal {path}: {reason}")
            }
            CoreError::Quarantined { units, total } => {
                write!(
                    f,
                    "{units} of {total} work units quarantined after repeatedly killing their \
                     worker (healthy units are journaled; see the quarantined_units report \
                     section)"
                )
            }
            CoreError::Shard { reason } => write!(f, "shard supervisor: {reason}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Solver(e) => Some(e),
            CoreError::Mesh(e) => Some(e),
            CoreError::Layout(e) => Some(e),
            CoreError::Simulate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolverError> for CoreError {
    fn from(e: SolverError) -> Self {
        CoreError::Solver(e)
    }
}

impl From<MeshError> for CoreError {
    fn from(e: MeshError) -> Self {
        CoreError::Mesh(e)
    }
}

impl From<LayoutError> for CoreError {
    fn from(e: LayoutError) -> Self {
        CoreError::Layout(e)
    }
}

impl From<SimulateError> for CoreError {
    fn from(e: SimulateError) -> Self {
        CoreError::Simulate(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let e: CoreError = SolverError::FloatingNode { row: 3 }.into();
        assert!(e.to_string().contains("node 3"));
        assert!(e.source().is_some());

        let e: CoreError = MeshError::Solver(SolverError::FloatingNode { row: 3 }).into();
        assert!(matches!(e, CoreError::Mesh(_)));
        assert!(e.source().is_some());

        let e: CoreError = LayoutError::TooManyActiveBanks {
            requested: 9,
            available: 8,
        }
        .into();
        assert!(matches!(e, CoreError::Layout(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Error + Send + Sync>() {}
        check::<CoreError>();
    }
}
