//! Observability substrate for the `pi3d` workspace — **std-only, zero
//! external dependencies** (this build environment has no registry
//! access, and the measurement layer must never be the reason a build
//! fails).
//!
//! Five pillars:
//!
//! * [`metrics`] — a global, thread-safe registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-scale [`Histogram`]s. Handles are `&'static`;
//!   the hot path is a single relaxed atomic op, no locks.
//! * [`span`] — RAII [`Span`] timers with parent/child nesting. Spans
//!   aggregate into a per-run phase-timing tree (mesh build → stamping →
//!   preconditioner setup → CG iterations → back-substitution).
//! * [`log`] — a leveled stderr logger ([`Level`]), configured from the
//!   `PI3D_LOG` environment variable or `--log-level`, gated at runtime
//!   by one atomic load.
//! * [`report`] — a [`RunReport`] serialized by the hand-rolled [`json`]
//!   writer: phase timings, CG convergence traces, mesh size statistics,
//!   memory-controller policy counters, and per-experiment wall clock.
//! * [`trace`](mod@trace) — a flight recorder: per-thread fixed-capacity
//!   event rings (no locks on the hot path, oldest events dropped on
//!   overflow) drained into Chrome trace-event JSON for Perfetto.
//!   [`progress`] rides on the same substrate to heartbeat sweep
//!   progress (done/total, rate, ETA, unit p50/p95), and [`mem`]
//!   contributes best-effort peak-RSS gauges from `/proc`.
//!
//! Instrumentation is always compiled in: downstream crates call it
//! unconditionally, so the one build that ships is the one that is
//! tested and benchmarked. What it records is chosen at run time. Log
//! lines below the level threshold, flight-recorder slices while tracing
//! is off, and the progress heartbeat while no mode is set each cost one
//! atomic load. Counters, gauges, histograms, and spans always record —
//! one relaxed atomic op per event, plus a clock read per span.
//!
//! The crate also hosts substrate utilities that want the same
//! "everything already depends on it" home: [`rng`], a seeded SplitMix64
//! generator replacing the `rand` crate for the synthetic-workload
//! generator and the randomized property tests; [`par`], the
//! deterministic order-preserving `parallel_map` over
//! `std::thread::scope` used by the solver's batch RHS solves and the
//! experiment-level policy sweeps (with per-item panic isolation via
//! [`par::parallel_map_catch`]); [`cancel`], the cooperative
//! [`CancelToken`] set by the std-only SIGINT shim; and [`fsio`], the
//! crash-consistent [`fsio::atomic_write`] every JSON artifact goes
//! through.
//!
//! # Examples
//!
//! ```
//! use pi3d_telemetry::{metrics, span};
//!
//! let solves = metrics::counter("solver.cg.solves");
//! {
//!     let _timer = span::span("solve");
//!     solves.incr(1);
//! }
//! assert!(solves.get() >= 1);
//! let phases = span::snapshot();
//! assert!(phases.iter().any(|p| p.path == "solve"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

pub mod cancel;
pub mod fsio;
pub mod json;
pub mod log;
pub mod mem;
pub mod metrics;
pub mod par;
pub mod progress;
pub mod report;
pub mod rng;
pub mod span;
pub mod trace;

pub use cancel::CancelToken;
pub use json::Json;
pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram};
pub use progress::ProgressTracker;
pub use report::RunReport;
pub use span::Span;
pub use trace::TraceSnapshot;

// The metrics registry, span table, and report sinks are process-global,
// so unit tests that reset or assert on them must not interleave.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    pub fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
