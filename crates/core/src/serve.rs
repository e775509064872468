//! Warm-cache analysis daemon core — the engine behind `pi3d serve`.
//!
//! Every one-shot `pi3d` invocation pays the full cold-start tax: config
//! parse, mesh assembly, factorization, superposition-LUT build. This
//! module amortizes that factor-once work across requests. It is
//! transport-free: the CLI owns the sockets and the newline-delimited
//! JSON framing, while everything that decides *what a request means and
//! what it returns* lives here so it can be tested without a socket.
//!
//! * [`ServeState`] — the long-lived server state: a bounded,
//!   size-accounted LRU cache ([`ServeState::cache_stats`]) of factored
//!   design meshes (each an `Arc`-shared [`StackMesh`], the same handle
//!   every other layer solves a design through), IR-drop LUTs, and
//!   design-space characterizations, keyed by [`config_fingerprint`] of
//!   the canonical request configuration (thread counts excluded, like
//!   journal hashes).
//! * [`ServeState::handle_request`] — executes one request (`solve`,
//!   `simulate`, `optimize`, `ping`, `stats`, `shutdown`) and returns
//!   the response document. Responses to analysis requests are
//!   byte-identical whether served from a cache hit or a cold build —
//!   the same determinism bar as `--resume` — because every mesh solve
//!   is cold (meshes hold no solve state) and cached artifacts are
//!   exactly what a fresh build would produce.
//! * [`RequestQueue`] — the bounded FIFO admission queue between the
//!   connection readers and the worker pool.
//! * [`exit_code_for`] / [`outcome_json`] — the PR 5 outcome contract
//!   (`status`/`stage`/`exit_code`/`error`), applied per request instead
//!   of once per process.
//!
//! Cancellation and deadlines reuse the durable-execution machinery:
//! each request runs under a [`JobContext`] carrying the server's
//! [`CancelToken`] plus an optional per-request wall-clock deadline; a SIGINT
//! drains in-flight requests and the daemon exits 130, a SIGTERM does
//! the same but exits 143 (see [`pi3d_telemetry::cancel::latched_signal`]).
//!
//! Robustness (PR 9) is engine-level so it is testable without sockets:
//! [`FaultPlan`] injects seeded worker panics and build failures,
//! [`ServeState::handle_request`] converts panics into typed `outcome`
//! blocks ([`EXIT_PANIC`]), a per-fingerprint circuit [`BreakerStats`]
//! short-circuits doomed builds, queue-depth watermarks flip the server
//! into load-shedding mode ([`ServeState::note_queue_depth`]), and
//! [`WorkerPool`] isolates and respawns panicked workers.

use crate::config;
use crate::error::CoreError;
use crate::jobs::config_fingerprint;
use crate::optimize::{characterize_with, Characterization};
use crate::platform::{sim_setup, Platform};
use crate::{build_ir_lut_from_mesh, JobContext};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{DieState, MemoryState};
use pi3d_memsim::{IrDropLut, MemorySimulator, ReadPolicy, SimStats, SimulateError};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_telemetry::cancel::{latched_signal, SIGTERM};
use pi3d_telemetry::par::panic_message;
use pi3d_telemetry::rng::SplitMix64;
use pi3d_telemetry::{CancelToken, Json};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Schema marker carried by every serve response document.
pub const SERVE_SCHEMA: &str = "pi3d.serve.v1";

/// Exit code for cooperative cancellation: 128 + SIGINT, the shell
/// convention for "killed by Ctrl-C".
pub const EXIT_CANCELLED: u8 = 130;
/// Exit code for a graceful drain after SIGTERM: 128 + SIGTERM, what a
/// supervisor expects from a politely killed service.
pub const EXIT_TERMINATED: u8 = 143;
/// Exit code for an exhausted deadline or cycle budget, matching
/// `timeout(1)`.
pub const EXIT_DEADLINE: u8 = 124;
/// Exit code for a request whose handler panicked — the same 101 a
/// panicking Rust process exits with, here confined to one response.
pub const EXIT_PANIC: u8 = 101;
/// Exit code for a sharded sweep that quarantined poisoned units:
/// sysexits' `EX_TEMPFAIL` (75), the "partial result, retry after
/// investigating" convention. Healthy units are durable in the merged
/// journal; the quarantined ones are listed in the run report.
pub const EXIT_QUARANTINED: u8 = 75;

/// Default cache budget: enough for a handful of coarse meshes plus
/// their LUTs without letting a design sweep grow without bound.
pub const DEFAULT_CACHE_BYTES: usize = 256 * 1024 * 1024;

/// Maps an error chain to the documented exit codes by walking
/// `source()` links for the typed interruption variants of any layer.
/// Shared by the CLI's process exit path and the per-request outcome
/// blocks of serve responses.
///
/// Cancellation is signal-aware: when the global flag was latched by
/// SIGTERM the cancelled exit code is [`EXIT_TERMINATED`] (143) instead
/// of [`EXIT_CANCELLED`] (130), so the process exit status, the run
/// report outcome, and per-request serve outcomes all agree on which
/// signal ended the run.
pub fn exit_code_for(error: &(dyn std::error::Error + 'static)) -> u8 {
    let cancelled_code = if latched_signal() == Some(SIGTERM) {
        EXIT_TERMINATED
    } else {
        EXIT_CANCELLED
    };
    let mut current = Some(error);
    while let Some(e) = current {
        if let Some(core) = e.downcast_ref::<CoreError>() {
            match core {
                CoreError::Cancelled { .. } => return cancelled_code,
                CoreError::DeadlineExceeded { .. } => return EXIT_DEADLINE,
                CoreError::Quarantined { .. } => return EXIT_QUARANTINED,
                _ => {}
            }
        }
        if let Some(sim) = e.downcast_ref::<SimulateError>() {
            match sim {
                SimulateError::Cancelled { .. } => return cancelled_code,
                SimulateError::CycleBudgetExceeded { .. } => return EXIT_DEADLINE,
                _ => {}
            }
        }
        current = e.source();
    }
    1
}

/// The outcome `status` string for an exit code, matching the run
/// report's vocabulary.
pub fn status_label(exit_code: u8) -> &'static str {
    match exit_code {
        0 => "ok",
        EXIT_CANCELLED => "cancelled",
        EXIT_TERMINATED => "terminated",
        EXIT_DEADLINE => "deadline",
        EXIT_PANIC => "panic",
        EXIT_QUARANTINED => "quarantined",
        _ => "error",
    }
}

/// Builds the standard `outcome{status,stage,exit_code,error}` block
/// (PR 5 run-report semantics) carried by every serve response.
pub fn outcome_json(stage: &str, exit_code: u8, error: &str) -> Json {
    Json::obj([
        ("status", Json::str(status_label(exit_code))),
        ("stage", Json::str(stage)),
        ("exit_code", Json::num(f64::from(exit_code))),
        ("error", Json::str(error)),
    ])
}

/// Builds a protocol-error response for failures that happen outside a
/// [`ServeState`] — admission-queue rejection, malformed frame — in the
/// same envelope as every other response, echoing the request's `id` and
/// `cmd` when a request document is available.
pub fn error_response(request: Option<&Json>, stage: &str, message: &str) -> Json {
    let id = request
        .and_then(|r| r.get("id"))
        .cloned()
        .unwrap_or(Json::Null);
    let cmd = request
        .and_then(|r| r.get("cmd"))
        .and_then(Json::as_str)
        .unwrap_or("");
    Json::obj([
        ("schema", Json::str(SERVE_SCHEMA)),
        ("id", id),
        ("cmd", Json::str(cmd)),
        ("outcome", outcome_json(stage, 1, message)),
        ("result", Json::Null),
    ])
}

// ---------------------------------------------------------------------------
// JSON codecs shared by the serve protocol and the journal payloads.
// ---------------------------------------------------------------------------

/// Finite floats travel as JSON numbers; non-finite ones (an
/// `avg_queue_depth` of NaN from a zero-cycle run) as strings, which
/// `str::parse::<f64>` round-trips exactly.
pub fn f64_to_json(v: f64) -> Json {
    if v.is_finite() {
        Json::num(v)
    } else {
        Json::str(format!("{v}"))
    }
}

/// Inverse of [`f64_to_json`].
pub fn f64_from_json(j: &Json) -> Option<f64> {
    match j.as_num() {
        Some(v) => Some(v),
        None => j.as_str()?.parse().ok(),
    }
}

/// u64 counters can exceed f64's exact-integer range; decimal strings
/// are lossless.
pub fn u64_to_json(v: u64) -> Json {
    Json::str(v.to_string())
}

/// Inverse of [`u64_to_json`].
pub fn u64_from_json(j: &Json) -> Option<u64> {
    j.as_str()?.parse().ok()
}

/// Serializes one policy's simulation statistics — the payload format
/// shared by `simulate` journals and serve `simulate` responses.
pub fn sim_stats_to_json(policy: &ReadPolicy, stats: &SimStats) -> Json {
    Json::obj([
        ("policy", Json::str(policy.name())),
        ("cycles", u64_to_json(stats.cycles)),
        ("runtime_us", f64_to_json(stats.runtime_us)),
        ("completed", u64_to_json(stats.completed)),
        (
            "bandwidth_reads_per_clk",
            f64_to_json(stats.bandwidth_reads_per_clk),
        ),
        ("max_ir_mv", f64_to_json(stats.max_ir.value())),
        ("refreshes", u64_to_json(stats.refreshes)),
        ("activates", u64_to_json(stats.activates)),
        ("precharges", u64_to_json(stats.precharges)),
        ("row_hits", u64_to_json(stats.row_hits)),
        ("avg_latency_cycles", f64_to_json(stats.avg_latency_cycles)),
        ("avg_queue_depth", f64_to_json(stats.avg_queue_depth)),
        ("stall_cycles", u64_to_json(stats.stall_cycles)),
    ])
}

/// Rebuilds simulation statistics from [`sim_stats_to_json`] output,
/// rejecting payloads whose policy label does not match.
pub fn sim_stats_from_json(policy: &ReadPolicy, payload: &Json) -> Option<SimStats> {
    if payload.get("policy")?.as_str()? != policy.name() {
        return None;
    }
    Some(SimStats {
        cycles: u64_from_json(payload.get("cycles")?)?,
        runtime_us: f64_from_json(payload.get("runtime_us")?)?,
        completed: u64_from_json(payload.get("completed")?)?,
        bandwidth_reads_per_clk: f64_from_json(payload.get("bandwidth_reads_per_clk")?)?,
        max_ir: MilliVolts(f64_from_json(payload.get("max_ir_mv")?)?),
        refreshes: u64_from_json(payload.get("refreshes")?)?,
        activates: u64_from_json(payload.get("activates")?)?,
        precharges: u64_from_json(payload.get("precharges")?)?,
        row_hits: u64_from_json(payload.get("row_hits")?)?,
        avg_latency_cycles: f64_from_json(payload.get("avg_latency_cycles")?)?,
        avg_queue_depth: f64_from_json(payload.get("avg_queue_depth")?)?,
        stall_cycles: u64_from_json(payload.get("stall_cycles")?)?,
    })
}

// ---------------------------------------------------------------------------
// Bounded FIFO admission queue.
// ---------------------------------------------------------------------------

/// A bounded FIFO queue between connection readers and the worker pool.
///
/// Admission is non-blocking: [`push`](Self::push) rejects immediately
/// when the queue is full (the reader turns that into an error response)
/// instead of back-pressuring the socket, so one slow worker pool cannot
/// wedge every connection. Workers block in [`pop`](Self::pop) until an
/// item arrives or the queue is closed and drained.
#[derive(Debug)]
pub struct RequestQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    limit: usize,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> RequestQueue<T> {
    /// Creates a queue admitting at most `limit` waiting items.
    pub fn new(limit: usize) -> RequestQueue<T> {
        RequestQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// Enqueues an item, returning it back via `Err` when the queue is
    /// full or already closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.limit {
            return Err(item);
        }
        inner.items.push_back(item);
        pi3d_telemetry::metrics::gauge("serve.queue.depth").set(inner.items.len() as f64);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed and drained — the
    /// worker-pool shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                pi3d_telemetry::metrics::gauge("serve.queue.depth").set(inner.items.len() as f64);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.cv.wait(inner) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue: further pushes are rejected, blocked workers
    /// drain the remaining items and then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Items currently waiting.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool with panic isolation and respawn.
// ---------------------------------------------------------------------------

/// A fixed-size pool of worker threads draining a [`RequestQueue`].
///
/// Each worker runs `handler` on every popped item. A handler panic
/// kills only its own thread; [`maintain`](Self::maintain) — called
/// periodically from the accept loop — detects dead workers and respawns
/// replacements so the pool returns to its configured size. The engine's
/// own panic confinement ([`ServeState::handle_request`] catches unwinds
/// into typed outcomes) makes this a second line of defense: it covers
/// panics in the transport glue around the engine call.
pub struct WorkerPool<T: Send + 'static> {
    queue: Arc<RequestQueue<T>>,
    handler: Arc<dyn Fn(T) + Send + Sync>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
    respawned: u64,
}

impl<T: Send + 'static> std::fmt::Debug for WorkerPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .field("respawned", &self.respawned)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `size` workers that pop from `queue` and run `handler`
    /// until the queue is closed and drained.
    pub fn new(
        size: usize,
        queue: Arc<RequestQueue<T>>,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> WorkerPool<T> {
        let mut pool = WorkerPool {
            queue,
            handler: Arc::new(handler),
            workers: Vec::new(),
            size: size.max(1),
            respawned: 0,
        };
        for i in 0..pool.size {
            pool.spawn_worker(i);
        }
        pool
    }

    fn spawn_worker(&mut self, index: usize) {
        let queue = Arc::clone(&self.queue);
        let handler = Arc::clone(&self.handler);
        let handle = std::thread::Builder::new()
            .name(format!("pi3d-serve-worker-{index}"))
            .spawn(move || {
                while let Some(item) = queue.pop() {
                    handler(item);
                }
            });
        // Spawn fails only on resource exhaustion; a short pool still
        // serves, so degrade rather than abort.
        if let Ok(h) = handle {
            self.workers.push(h);
        }
    }

    /// Reaps workers whose threads have died (a panic escaped the
    /// handler) and respawns replacements up to the configured size.
    /// Returns the number of workers respawned by this call.
    pub fn maintain(&mut self) -> usize {
        let before = self.workers.len();
        let mut live = Vec::with_capacity(before);
        for worker in self.workers.drain(..) {
            if worker.is_finished() {
                // Surface the panic payload (if any) and drop the
                // corpse; join on a finished thread cannot block.
                if let Err(panic) = worker.join() {
                    pi3d_telemetry::warn!(
                        "serve worker panicked: {}",
                        panic_message(panic.as_ref())
                    );
                }
            } else {
                live.push(worker);
            }
        }
        self.workers = live;
        let mut respawned = 0;
        while self.workers.len() < self.size {
            self.spawn_worker(self.workers.len());
            respawned += 1;
        }
        self.respawned += respawned as u64;
        if respawned > 0 {
            pi3d_telemetry::metrics::counter("serve.workers.respawned").incr(respawned as u64);
        }
        respawned
    }

    /// Total workers respawned over the pool's lifetime.
    pub fn respawned(&self) -> u64 {
        self.respawned
    }

    /// Joins all workers. Call after closing the queue; panicked workers
    /// are absorbed (their requests already got typed panic outcomes or
    /// died with the connection).
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic chaos injection.
// ---------------------------------------------------------------------------

/// A seeded fault-injection plan for chaos tests.
///
/// The plan is probed at fixed injection points inside the engine — the
/// top of [`ServeState::handle_request`] (worker panic) and the cache
/// build closure (forced build failure) — and decides deterministically
/// from that point's own SplitMix64 stream whether to inject, so one
/// point's schedule never depends on how worker threads interleave rolls
/// at the other. Production servers run with no plan
/// ([`ServeOptions::fault_plan`] is `None`); tests attach one and replay
/// identical fault schedules from identical seeds.
///
/// # Examples
///
/// ```
/// use pi3d_core::serve::FaultPlan;
///
/// let plan = FaultPlan::new(7).with_build_failures(1.0).with_budget(2);
/// assert!(plan.should_fail_build());
/// assert!(plan.should_fail_build());
/// assert!(!plan.should_fail_build(), "budget exhausted");
/// assert_eq!(plan.injected_build_failures(), 2);
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    state: Mutex<FaultPlanState>,
    injected_panics: AtomicU64,
    injected_build_failures: AtomicU64,
}

#[derive(Debug)]
struct FaultPlanState {
    panics: FaultStream,
    builds: FaultStream,
    budget: Option<u64>,
}

/// One injection point's seeded stream and firing probability.
#[derive(Debug)]
struct FaultStream {
    rng: SplitMix64,
    prob: f64,
}

/// Separates the panic stream from the build stream, which is seeded
/// with the plan's seed itself.
const PANIC_STREAM_SALT: u64 = 0xa076_1d64_78bd_642f;

impl FaultPlan {
    /// Creates an inert plan (no faults until probabilities are set).
    pub fn new(seed: u64) -> FaultPlan {
        let stream = |seed| FaultStream {
            rng: SplitMix64::new(seed),
            prob: 0.0,
        };
        FaultPlan {
            state: Mutex::new(FaultPlanState {
                panics: stream(seed ^ PANIC_STREAM_SALT),
                builds: stream(seed),
                budget: None,
            }),
            injected_panics: AtomicU64::new(0),
            injected_build_failures: AtomicU64::new(0),
        }
    }

    /// Injects a worker panic with probability `prob` per request.
    pub fn with_worker_panics(self, prob: f64) -> FaultPlan {
        self.lock().panics.prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Fails cache builds with probability `prob` per build.
    pub fn with_build_failures(self, prob: f64) -> FaultPlan {
        self.lock().builds.prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Caps the total number of injected faults (across kinds); after
    /// the budget is spent the plan goes inert, letting a chaos test end
    /// with a clean convergence phase.
    pub fn with_budget(self, budget: u64) -> FaultPlan {
        self.lock().budget = Some(budget);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultPlanState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn roll(&self, point: fn(&mut FaultPlanState) -> &mut FaultStream) -> bool {
        let mut state = self.lock();
        if state.budget == Some(0) {
            return false;
        }
        let stream = point(&mut state);
        if stream.prob <= 0.0 || !stream.rng.chance(stream.prob) {
            return false;
        }
        if let Some(budget) = state.budget.as_mut() {
            *budget -= 1;
        }
        true
    }

    /// Probed once per request by [`ServeState::handle_request`].
    pub fn should_panic(&self) -> bool {
        let inject = self.roll(|s| &mut s.panics);
        if inject {
            self.injected_panics.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Probed once per cache build by the design build closure.
    pub fn should_fail_build(&self) -> bool {
        let inject = self.roll(|s| &mut s.builds);
        if inject {
            self.injected_build_failures.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Worker panics injected so far.
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Build failures injected so far.
    pub fn injected_build_failures(&self) -> u64 {
        self.injected_build_failures.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Per-fingerprint circuit breaker.
// ---------------------------------------------------------------------------

/// Aggregate circuit-breaker statistics for `stats` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerStats {
    /// Times any fingerprint's breaker transitioned to open.
    pub opens: u64,
    /// Requests answered by an open breaker without running the build.
    pub short_circuits: u64,
    /// Fingerprints whose breaker is open right now.
    pub open_now: usize,
}

/// Per-fingerprint circuit breaker: N consecutive *real* build failures
/// (exit code 1 — cancellations and deadlines are the caller's fault,
/// not the config's) open the circuit for a cooldown, during which
/// requests for that fingerprint short-circuit with a breaker-open
/// outcome instead of re-running a doomed factorization. After the
/// cooldown one probe build is allowed through (half-open); success
/// resets the breaker, failure re-opens it immediately.
#[derive(Debug)]
struct Breaker {
    threshold: u32,
    cooldown: Duration,
    entries: Mutex<HashMap<u64, BreakerEntry>>,
    /// Fingerprints currently tracked; lets the warm hit path skip the
    /// map lock entirely while no failures are outstanding.
    tracked: AtomicUsize,
    opens: AtomicU64,
    short_circuits: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct BreakerEntry {
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            entries: Mutex::new(HashMap::new()),
            tracked: AtomicUsize::new(0),
            opens: AtomicU64::new(0),
            short_circuits: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, BreakerEntry>> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admission check before a cache lookup/build for `key`.
    fn check(&self, key: u64) -> Result<(), Fail> {
        if self.tracked.load(Ordering::Acquire) == 0 {
            return Ok(()); // hot path: no failing fingerprints anywhere
        }
        let mut entries = self.lock();
        let Some(entry) = entries.get_mut(&key) else {
            return Ok(());
        };
        let Some(open_until) = entry.open_until else {
            return Ok(());
        };
        let now = Instant::now();
        if now < open_until {
            self.short_circuits.fetch_add(1, Ordering::Relaxed);
            pi3d_telemetry::metrics::counter("serve.breaker.short_circuits").incr(1);
            let retry_ms = open_until.saturating_duration_since(now).as_millis();
            return Err(Fail::bad_request(
                "breaker",
                format!(
                    "circuit breaker open for config fingerprint {key:016x} after {} consecutive \
                     build failures; retry in {retry_ms}ms",
                    entry.consecutive_failures
                ),
            ));
        }
        // Cooldown elapsed: half-open. Clear the deadline but keep the
        // failure count at the threshold so one more failure re-opens
        // the breaker immediately, while a success resets it.
        entry.open_until = None;
        Ok(())
    }

    fn record_success(&self, key: u64) {
        if self.tracked.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut entries = self.lock();
        if entries.remove(&key).is_some() {
            self.tracked.store(entries.len(), Ordering::Release);
        }
    }

    fn record_failure(&self, key: u64, exit_code: u8) {
        if exit_code != 1 {
            return; // cancelled/deadline/panic: not evidence of a doomed config
        }
        let mut entries = self.lock();
        let entry = entries.entry(key).or_insert(BreakerEntry {
            consecutive_failures: 0,
            open_until: None,
        });
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        if entry.consecutive_failures >= self.threshold && entry.open_until.is_none() {
            entry.open_until = Some(Instant::now() + self.cooldown);
            self.opens.fetch_add(1, Ordering::Relaxed);
            pi3d_telemetry::metrics::counter("serve.breaker.opens").incr(1);
        }
        self.tracked.store(entries.len(), Ordering::Release);
    }

    fn stats(&self) -> BreakerStats {
        let now = Instant::now();
        let entries = self.lock();
        BreakerStats {
            opens: self.opens.load(Ordering::Relaxed),
            short_circuits: self.short_circuits.load(Ordering::Relaxed),
            open_now: entries
                .values()
                .filter(|e| e.open_until.is_some_and(|t| now < t))
                .count(),
        }
    }
}

// ---------------------------------------------------------------------------
// Size-accounted LRU cache with single-flight builds.
// ---------------------------------------------------------------------------

/// One cached artifact. A design's mesh is parsed, assembled and
/// factored once, then solved immutably (every solve is cold) by every
/// request that hits it, so cached and fresh solves are bit-identical; it
/// is `Arc`-shared across worker threads. LUTs and characterizations are
/// the derived artifacts the `simulate` and `optimize` handlers reuse.
#[derive(Clone)]
enum CacheValue {
    Design(Arc<StackMesh>),
    Lut(Arc<IrDropLut>),
    Characterization(Arc<Characterization>),
}

struct CacheEntry {
    key: u64,
    bytes: usize,
    value: CacheValue,
}

struct CacheState {
    /// LRU order: least recently used first, most recent last.
    entries: Vec<CacheEntry>,
    bytes: usize,
    /// Keys currently being built by some worker (single-flight: other
    /// workers wanting the same key wait instead of duplicating the
    /// factorization).
    building: Vec<u64>,
}

/// Aggregate cache statistics, also mirrored to the
/// `serve.cache.{hits,misses,evictions,bytes}` telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a cached artifact.
    pub hits: u64,
    /// Requests that had to build their artifact.
    pub misses: u64,
    /// Artifacts evicted to fit the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently held.
    pub bytes: usize,
    /// Artifacts currently held.
    pub entries: usize,
}

struct ServeCache {
    budget: usize,
    state: Mutex<CacheState>,
    cv: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ServeCache {
    fn new(budget: usize) -> ServeCache {
        ServeCache {
            budget: budget.max(1),
            state: Mutex::new(CacheState {
                entries: Vec::new(),
                bytes: 0,
                building: Vec::new(),
            }),
            cv: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the cached value for `key`, building it at most once
    /// across concurrent callers. On a miss the build runs outside the
    /// cache lock; concurrent requests for the same key block until the
    /// builder finishes (or fails — failures are not cached) rather than
    /// refactoring the same matrix N times.
    fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<(CacheValue, usize), Fail>,
    ) -> Result<CacheValue, Fail> {
        let mut state = self.lock();
        loop {
            if let Some(pos) = state.entries.iter().position(|e| e.key == key) {
                let entry = state.entries.remove(pos);
                let value = entry.value.clone();
                state.entries.push(entry); // most recently used
                self.hits.fetch_add(1, Ordering::Relaxed);
                pi3d_telemetry::metrics::counter("serve.cache.hits").incr(1);
                return Ok(value);
            }
            if state.building.contains(&key) {
                state = match self.cv.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                continue;
            }
            state.building.push(key);
            break;
        }
        drop(state);

        self.misses.fetch_add(1, Ordering::Relaxed);
        pi3d_telemetry::metrics::counter("serve.cache.misses").incr(1);
        let built = {
            let _slice = pi3d_telemetry::trace::span_with("serve", || "serve:cache_build".into());
            build()
        };

        let mut state = self.lock();
        state.building.retain(|&k| k != key);
        let result = match built {
            Ok((value, bytes)) => {
                state.entries.push(CacheEntry {
                    key,
                    bytes,
                    value: value.clone(),
                });
                state.bytes += bytes;
                // Evict least-recently-used entries until the budget
                // holds; the entry just built always survives, so a
                // single artifact larger than the whole budget still
                // serves (and is dropped as soon as something else
                // lands).
                while state.bytes > self.budget && state.entries.len() > 1 {
                    let evicted = state.entries.remove(0);
                    state.bytes -= evicted.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    pi3d_telemetry::metrics::counter("serve.cache.evictions").incr(1);
                }
                pi3d_telemetry::metrics::gauge("serve.cache.bytes").set(state.bytes as f64);
                Ok(value)
            }
            Err(e) => Err(e),
        };
        drop(state);
        self.cv.notify_all();
        result
    }

    fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: state.bytes,
            entries: state.entries.len(),
        }
    }
}

/// Estimated resident bytes of a prepared design: CSR matrix (values,
/// column indices, row pointers) plus the factored preconditioner of
/// comparable sparsity plus per-node working vectors. A deliberate
/// overestimate — eviction should fire early, not late.
fn design_entry_bytes(mesh: &StackMesh) -> usize {
    mesh.matrix().nnz() * 40 + mesh.node_count() * 64 + 4096
}

/// Estimated bytes of an IR LUT: per state, one key vector and one
/// drop value per die plus map overhead.
fn lut_bytes(lut: &IrDropLut) -> usize {
    lut.state_count() * (lut.dies() * 8 + 48) + 1024
}

/// Characterizations are a few dozen fitted combos of a handful of
/// coefficients each — effectively constant.
const CHARACTERIZATION_BYTES: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// Request execution.
// ---------------------------------------------------------------------------

/// A typed per-request failure: the stage that failed plus the exit
/// code its error chain maps to. Rendered into the response's `outcome`
/// block.
#[derive(Debug, Clone)]
struct Fail {
    stage: String,
    error: String,
    exit_code: u8,
}

impl Fail {
    fn of(stage: &str, error: &(dyn std::error::Error + 'static)) -> Fail {
        Fail {
            stage: stage.to_owned(),
            error: error.to_string(),
            exit_code: exit_code_for(error),
        }
    }

    fn bad_request(stage: &str, message: impl Into<String>) -> Fail {
        Fail {
            stage: stage.to_owned(),
            error: message.into(),
            exit_code: 1,
        }
    }
}

/// Configuration of a [`ServeState`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Default mesh options for requests (grid, preconditioner, threads
    /// for intra-request batch fan-out). Requests may override `grid`
    /// and `precond`; thread count never enters cache keys.
    pub mesh: MeshOptions,
    /// Cache byte budget (estimated sizes; see `serve.cache.bytes`).
    pub cache_bytes: usize,
    /// Default per-request wall-clock deadline; a request's own
    /// `deadline` field overrides it.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation shared with the daemon's signal
    /// handling: in-flight requests observe it via their [`JobContext`].
    pub cancel: CancelToken,
    /// Consecutive real build failures (exit code 1) for one fingerprint
    /// before its circuit breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker short-circuits before allowing a
    /// half-open probe build.
    pub breaker_cooldown: Duration,
    /// Queue depth at which the server flips into load-shedding mode.
    pub shed_high_watermark: usize,
    /// Queue depth at which a shedding server recovers (hysteresis:
    /// strictly below the high watermark so the mode does not flap).
    pub shed_low_watermark: usize,
    /// The `retry_after_ms` hint carried by shed responses.
    pub shed_retry_after: Duration,
    /// Chaos-injection plan; `None` (the default) disables injection.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            mesh: MeshOptions::default(),
            cache_bytes: DEFAULT_CACHE_BYTES,
            deadline: None,
            cancel: CancelToken::new(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(10),
            shed_high_watermark: 48,
            shed_low_watermark: 16,
            shed_retry_after: Duration::from_millis(250),
            fault_plan: None,
        }
    }
}

/// Long-lived server state: options, the warm cache, and lifecycle
/// flags. Shared across the worker pool behind an `Arc`; all methods
/// take `&self`.
pub struct ServeState {
    options: ServeOptions,
    cache: ServeCache,
    breaker: Breaker,
    served: AtomicU64,
    shutdown: AtomicBool,
    shedding: AtomicBool,
    shed_count: AtomicU64,
    last_queue_depth: AtomicUsize,
    panics_caught: AtomicU64,
    started: Instant,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("options", &self.options)
            .field("served", &self.served.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeState {
    /// Creates the server state.
    pub fn new(options: ServeOptions) -> ServeState {
        let cache = ServeCache::new(options.cache_bytes);
        let breaker = Breaker::new(options.breaker_threshold, options.breaker_cooldown);
        ServeState {
            options,
            cache,
            breaker,
            served: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shedding: AtomicBool::new(false),
            shed_count: AtomicU64::new(0),
            last_queue_depth: AtomicUsize::new(0),
            panics_caught: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The options the server was created with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Requests served so far (including failed ones).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Current cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Executes one request and returns the response document:
    ///
    /// ```json
    /// {"schema":"pi3d.serve.v1","id":...,"cmd":"solve",
    ///  "outcome":{"status":"ok","stage":"solve","exit_code":0,"error":""},
    ///  "result":{...}}
    /// ```
    ///
    /// Never panics and never refuses: malformed requests come back with
    /// an error outcome, and a panic anywhere in a handler is caught and
    /// rendered as a typed `outcome` with stage `panic` and exit code
    /// [`EXIT_PANIC`] — one bad request cannot take down the worker. The
    /// `id` field is echoed verbatim so clients can pipeline requests
    /// over one connection.
    pub fn handle_request(&self, request: &Json) -> Json {
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let _slice = pi3d_telemetry::trace::span_with("serve", || "serve:request".into());
        pi3d_telemetry::metrics::counter("serve.requests").incr(1);

        // Shared state is unwind-safe by construction: every mutex in
        // the engine recovers from poisoning, failed builds are never
        // cached, and counters are atomics.
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch(&cmd, request)
        }));
        let (stage, outcome) = match dispatched {
            Ok(result) => result,
            Err(panic) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                pi3d_telemetry::metrics::counter("serve.panics_caught").incr(1);
                (
                    "panic",
                    Err(Fail {
                        stage: "panic".to_owned(),
                        error: format!(
                            "request handler panicked: {}",
                            panic_message(panic.as_ref())
                        ),
                        exit_code: EXIT_PANIC,
                    }),
                )
            }
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(result) => Json::obj([
                ("schema", Json::str(SERVE_SCHEMA)),
                ("id", id),
                ("cmd", Json::str(&cmd)),
                ("outcome", outcome_json(stage, 0, "")),
                ("result", result),
            ]),
            Err(fail) => Json::obj([
                ("schema", Json::str(SERVE_SCHEMA)),
                ("id", id),
                ("cmd", Json::str(&cmd)),
                (
                    "outcome",
                    outcome_json(&fail.stage, fail.exit_code, &fail.error),
                ),
                ("result", Json::Null),
            ]),
        }
    }

    /// Command dispatch, separated from [`handle_request`](Self::handle_request)
    /// so the panic guard wraps every handler uniformly.
    fn dispatch(&self, cmd: &str, request: &Json) -> (&'static str, Result<Json, Fail>) {
        if let Some(plan) = &self.options.fault_plan {
            if plan.should_panic() {
                panic!("injected worker panic (chaos plan)");
            }
        }
        match cmd {
            "ping" => ("ping", Ok(Json::obj([("pong", Json::Bool(true))]))),
            "stats" => ("stats", Ok(self.stats_result())),
            "health" => ("health", Ok(self.health_result())),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                (
                    "shutdown",
                    Ok(Json::obj([("shutting_down", Json::Bool(true))])),
                )
            }
            "solve" => ("solve", self.solve(request)),
            "simulate" => ("simulate", self.simulate(request)),
            "optimize" => ("optimize", self.optimize(request)),
            "" => (
                "request",
                Err(Fail::bad_request(
                    "request",
                    "request needs a \"cmd\" string",
                )),
            ),
            other => (
                "request",
                Err(Fail::bad_request(
                    "request",
                    format!(
                        "unknown cmd {other:?} (use solve, simulate, optimize, ping, stats, \
                         health, shutdown)"
                    ),
                )),
            ),
        }
    }

    // -- load shedding ------------------------------------------------------

    /// Reports the admission-queue depth observed by the transport.
    /// Crossing the high watermark flips the server into shedding mode;
    /// dropping back to the low watermark recovers it (hysteresis).
    pub fn note_queue_depth(&self, depth: usize) {
        self.last_queue_depth.store(depth, Ordering::Relaxed);
        if depth >= self.options.shed_high_watermark.max(1) {
            if !self.shedding.swap(true, Ordering::AcqRel) {
                pi3d_telemetry::warn!(
                    "serve: queue depth {depth} crossed high watermark, shedding load"
                );
            }
        } else if depth <= self.options.shed_low_watermark && self.shedding.load(Ordering::Acquire)
        {
            self.shedding.store(false, Ordering::Release);
        }
    }

    /// Whether the server is currently shedding load.
    pub fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Acquire)
    }

    /// Whether `request` should be shed right now. Cheap control-plane
    /// commands (`ping`, `stats`, `health`, `shutdown`) always pass so a
    /// saturated server stays observable and stoppable.
    pub fn should_shed(&self, request: &Json) -> bool {
        if !self.is_shedding() {
            return false;
        }
        !matches!(
            request.get("cmd").and_then(Json::as_str).unwrap_or(""),
            "ping" | "stats" | "health" | "shutdown"
        )
    }

    /// Builds the backpressure response for a shed request: an
    /// `admission`-stage error outcome whose result carries the
    /// `retry_after_ms` hint clients feed into their backoff.
    pub fn shed_response(&self, request: &Json) -> Json {
        self.shed_count.fetch_add(1, Ordering::Relaxed);
        pi3d_telemetry::metrics::counter("serve.shed").incr(1);
        let retry_ms = self.options.shed_retry_after.as_millis() as f64;
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("");
        Json::obj([
            ("schema", Json::str(SERVE_SCHEMA)),
            ("id", id),
            ("cmd", Json::str(cmd)),
            (
                "outcome",
                outcome_json(
                    "admission",
                    1,
                    "server is shedding load (queue past high watermark); retry later",
                ),
            ),
            (
                "result",
                Json::obj([("retry_after_ms", Json::num(retry_ms))]),
            ),
        ])
    }

    /// Circuit-breaker statistics (also surfaced in `stats` responses).
    pub fn breaker_stats(&self) -> BreakerStats {
        self.breaker.stats()
    }

    /// Requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed_count.load(Ordering::Relaxed)
    }

    /// Handler panics confined to typed outcomes so far.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    fn health_result(&self) -> Json {
        let breaker = self.breaker.stats();
        let draining = self.shutdown_requested() || self.options.cancel.is_cancelled();
        let state = if draining {
            "draining"
        } else if self.is_shedding() || breaker.open_now > 0 {
            "degraded"
        } else {
            "ready"
        };
        Json::obj([
            ("state", Json::str(state)),
            ("shedding", Json::Bool(self.is_shedding())),
            ("breaker_open", Json::num(breaker.open_now as f64)),
            (
                "queue_depth",
                Json::num(self.last_queue_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "uptime_s",
                f64_to_json(self.started.elapsed().as_secs_f64()),
            ),
        ])
    }

    /// Runs `build` through the cache under the per-fingerprint circuit
    /// breaker: an open breaker short-circuits before touching the
    /// cache, real failures (exit code 1) trip it, successes reset it.
    fn cached_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<(CacheValue, usize), Fail>,
    ) -> Result<CacheValue, Fail> {
        self.breaker.check(key)?;
        let result = self.cache.get_or_build(key, build);
        match &result {
            Ok(_) => self.breaker.record_success(key),
            Err(fail) => self.breaker.record_failure(key, fail.exit_code),
        }
        result
    }

    // -- request plumbing ---------------------------------------------------

    /// Builds the per-request durable-execution context: the server's
    /// cancel token plus the request's (or server default) deadline.
    fn request_ctx(&self, request: &Json) -> Result<JobContext, Fail> {
        let mut ctx = JobContext::new().with_cancel(self.options.cancel.clone());
        let deadline = match request.get("deadline") {
            Some(j) => {
                let secs = f64_from_json(j).ok_or_else(|| {
                    Fail::bad_request("request", "\"deadline\" must be a number of seconds")
                })?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(Fail::bad_request(
                        "request",
                        "\"deadline\" must be a positive number of seconds",
                    ));
                }
                Some(Duration::from_secs_f64(secs))
            }
            None => self.options.deadline,
        };
        if let Some(d) = deadline {
            ctx = ctx.with_deadline(Instant::now() + d);
        }
        Ok(ctx)
    }

    /// Deadline/cancellation check between stages: the coarse-grained
    /// complement of the cooperative polls inside the memory simulator.
    /// A mesh build or CG solve, once started, runs to completion. The
    /// exit code is the sweep's (130, 143 under SIGTERM, or 124), but the
    /// text is serve's own: a request has no journal to resume from.
    fn check_budget(&self, ctx: &JobContext, stage: &str) -> Result<(), Fail> {
        let (cause, what) = if ctx.is_cancelled() {
            let cause = CoreError::Cancelled {
                completed: 0,
                total: 1,
            };
            (cause, "cancelled")
        } else if ctx.deadline_exceeded() {
            let cause = CoreError::DeadlineExceeded {
                completed: 0,
                total: 1,
            };
            (cause, "deadline exceeded")
        } else {
            return Ok(());
        };
        Err(Fail {
            stage: stage.to_owned(),
            error: format!("request {what} before its {stage} stage"),
            exit_code: exit_code_for(&cause),
        })
    }

    /// Mesh options for a request: the server defaults, seeded by the
    /// config's `precond` key, overridden by the request's `grid` /
    /// `precond` fields — the same precedence as the CLI flags.
    fn request_mesh(
        &self,
        request: &Json,
        base: MeshOptions,
        config_precond: Option<pi3d_solver::Preconditioner>,
    ) -> Result<MeshOptions, Fail> {
        let mut options = base;
        if let Some(p) = config_precond {
            options.preconditioner = p;
        }
        if let Some(j) = request.get("precond") {
            let name = j
                .as_str()
                .ok_or_else(|| Fail::bad_request("request", "\"precond\" must be a string"))?;
            options.preconditioner = config::parse_precond(name)
                .map_err(|e| Fail::bad_request("request", e.to_string()))?;
        }
        if let Some(j) = request.get("grid") {
            let grids = MeshOptions::USER_GRIDS;
            let (low, high) = (grids.start(), grids.end());
            let n = f64_from_json(j)
                .filter(|v| v.fract() == 0.0 && grids.contains(&(*v as usize)))
                .ok_or_else(|| {
                    let message = format!("\"grid\" must be an integer between {low} and {high}");
                    Fail::bad_request("request", message)
                })? as usize;
            options = options.with_grid(n);
        }
        Ok(options)
    }

    /// The canonical cache-key fragment for mesh options: thread count
    /// normalized away (results are bit-identical across worker counts,
    /// so a cache entry built at one `--threads` must hit at another).
    fn mesh_key_part(options: &MeshOptions) -> String {
        let normalized = MeshOptions {
            threads: 1,
            ..options.clone()
        };
        format!("{normalized:?}")
    }

    /// Parses the request's inline design config and returns the cached
    /// (or freshly built) factored mesh for it, plus its cache key for
    /// derived artifacts.
    fn design_mesh(&self, request: &Json) -> Result<(Arc<StackMesh>, u64), Fail> {
        let text = request
            .get("config")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                Fail::bad_request(
                    "parse",
                    "request needs a \"config\" string (inline design-configuration text)",
                )
            })?
            .to_owned();
        let (design, faults, config_precond) =
            config::parse_design_full(&text).map_err(|e| Fail::of("parse", &e))?;
        let mut options = self.request_mesh(request, self.options.mesh.clone(), config_precond)?;
        options.faults = faults;
        let key = config_fingerprint(&["serve.design", &text, &Self::mesh_key_part(&options)]);
        let value = self.cached_build(key, || {
            if let Some(plan) = &self.options.fault_plan {
                if plan.should_fail_build() {
                    return Err(Fail::bad_request(
                        "mesh",
                        "injected build failure (chaos plan)",
                    ));
                }
            }
            let mesh =
                StackMesh::new(&design, options.clone()).map_err(|e| Fail::of("mesh", &e))?;
            let bytes = design_entry_bytes(&mesh);
            Ok((CacheValue::Design(Arc::new(mesh)), bytes))
        })?;
        match value {
            CacheValue::Design(mesh) => Ok((mesh, key)),
            _ => Err(Fail::bad_request("cache", "cache kind mismatch")),
        }
    }

    /// The cached (or freshly built) superposition LUT for a design.
    fn lut_for(
        &self,
        mesh: &Arc<StackMesh>,
        design_key: u64,
        max_banks: usize,
    ) -> Result<Arc<IrDropLut>, Fail> {
        let key = config_fingerprint(&[
            "serve.lut",
            &format!("{design_key:016x}"),
            &max_banks.to_string(),
        ]);
        let mesh = Arc::clone(mesh);
        let value = self.cached_build(key, move || {
            let lut = build_ir_lut_from_mesh(&mesh, max_banks).map_err(|e| Fail::of("lut", &e))?;
            let bytes = lut_bytes(&lut);
            Ok((CacheValue::Lut(Arc::new(lut)), bytes))
        })?;
        match value {
            CacheValue::Lut(lut) => Ok(lut),
            _ => Err(Fail::bad_request("cache", "cache kind mismatch")),
        }
    }

    // -- handlers -----------------------------------------------------------

    /// `solve`: one IR-drop analysis of a memory state against the
    /// cached factored mesh. The solve is cold, so the result bytes
    /// cannot depend on what was solved before.
    fn solve(&self, request: &Json) -> Result<Json, Fail> {
        let ctx = self.request_ctx(request)?;
        self.check_budget(&ctx, "solve")?;
        let (mesh, _key) = self.design_mesh(request)?;
        self.check_budget(&ctx, "solve")?;
        let design = mesh.design();

        let state: MemoryState = match request.get("state") {
            Some(j) => j
                .as_str()
                .ok_or_else(|| Fail::bad_request("parse", "\"state\" must be a string"))?
                .parse()
                .map_err(|e: pi3d_layout::ParseMemoryStateError| Fail::of("parse", &e))?,
            None => {
                let dies = design.dram_die_count();
                MemoryState::idle(dies).with_die(dies - 1, DieState::active(2))
            }
        };
        let activity = match request.get("activity") {
            Some(j) => f64_from_json(j)
                .filter(|v| (0.0..=1.0).contains(v))
                .ok_or_else(|| {
                    Fail::bad_request("parse", "\"activity\" must be a number in [0, 1]")
                })?,
            None => 1.0,
        };

        let report = mesh
            .solve(&state, activity)
            .map_err(|e| Fail::of("solve", &e))?;
        let per_die: Vec<Json> = (0..design.dram_die_count())
            .map(|die| f64_to_json(report.max_die(die).value()))
            .collect();
        Ok(Json::obj([
            ("benchmark", Json::str(design.benchmark().to_string())),
            ("state", Json::str(state.to_string())),
            ("activity", f64_to_json(activity)),
            ("max_dram_mv", f64_to_json(report.max_dram().value())),
            ("max_logic_mv", f64_to_json(report.max_logic().value())),
            ("per_die_mv", Json::Arr(per_die)),
            ("cost", f64_to_json(design.cost().total)),
        ]))
    }

    /// `simulate`: a memory-controller simulation against the cached
    /// design LUT. One policy per request — clients wanting `--policy
    /// all` semantics pipeline three requests and let the worker pool
    /// fan them out.
    fn simulate(&self, request: &Json) -> Result<Json, Fail> {
        let ctx = self.request_ctx(request)?;
        self.check_budget(&ctx, "simulate")?;
        let (mesh, design_key) = self.design_mesh(request)?;

        let constraint = MilliVolts(match request.get("constraint") {
            Some(j) => f64_from_json(j)
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| {
                    Fail::bad_request("parse", "\"constraint\" must be a positive number (mV)")
                })?,
            None => 24.0,
        });
        let policy = match request
            .get("policy")
            .and_then(Json::as_str)
            .unwrap_or("distr")
        {
            "standard" => ReadPolicy::standard(),
            "fcfs" => ReadPolicy::ir_aware_fcfs(constraint),
            "distr" => ReadPolicy::ir_aware_distr(constraint),
            other => {
                return Err(Fail::bad_request(
                    "parse",
                    format!("unknown policy {other:?} (use standard, fcfs, or distr)"),
                ))
            }
        };
        let reads = match request.get("reads") {
            Some(j) => f64_from_json(j)
                .filter(|v| v.fract() == 0.0 && (1.0..=10_000_000.0).contains(v))
                .ok_or_else(|| {
                    Fail::bad_request("parse", "\"reads\" must be an integer in [1, 10000000]")
                })? as usize,
            None => 10_000,
        };

        let (timing, mut sim_config, mut workload) = sim_setup(mesh.design());
        let lut = self.lut_for(&mesh, design_key, sim_config.max_powered_per_die)?;
        self.check_budget(&ctx, "simulate")?;

        workload.count = reads;
        let requests = workload.generate();
        if let Some(j) = request.get("max_cycles") {
            sim_config.max_cycles = u64_from_json(j)
                .or_else(|| {
                    f64_from_json(j)
                        .filter(|v| v.fract() == 0.0 && *v > 0.0)
                        .map(|v| v as u64)
                })
                .ok_or_else(|| Fail::bad_request("parse", "\"max_cycles\" must be an integer"))?;
        }

        let sim = MemorySimulator::new(timing, sim_config, policy, (*lut).clone())
            .with_cancel(self.options.cancel.clone());
        let stats = sim.run(&requests).map_err(|e| Fail::of("simulate", &e))?;
        Ok(sim_stats_to_json(&policy, &stats))
    }

    /// `optimize`: the Section 6 co-optimization at a given alpha,
    /// reusing the cached design-space characterization (the expensive
    /// part — the per-alpha optimum and its verification solve run
    /// fresh).
    fn optimize(&self, request: &Json) -> Result<Json, Fail> {
        let ctx = self.request_ctx(request)?;
        self.check_budget(&ctx, "optimize")?;
        let benchmark =
            config::parse_benchmark(request.get("benchmark").and_then(Json::as_str).ok_or_else(
                || Fail::bad_request("parse", "optimize needs a \"benchmark\" string"),
            )?)
            .map_err(|e| Fail::of("parse", &e))?;
        let alpha = match request.get("alpha") {
            Some(j) => f64_from_json(j)
                .filter(|v| (0.0..=1.0).contains(v))
                .ok_or_else(|| Fail::bad_request("parse", "\"alpha\" must be in [0, 1]"))?,
            None => 0.3,
        };
        // The CLI's optimize sweeps at the coarse mesh; the daemon
        // matches that default (its own default mesh may be finer).
        let base = MeshOptions {
            threads: self.options.mesh.threads,
            ..MeshOptions::coarse()
        };
        let options = self.request_mesh(request, base, None)?;
        let platform = Platform::new(options.clone());

        let key = config_fingerprint(&[
            "serve.characterize",
            &benchmark.to_string(),
            &Self::mesh_key_part(&options),
        ]);
        let threads = options.threads;
        let value = self.cached_build(key, || {
            let characterization = characterize_with(&platform, benchmark, threads, &ctx)
                .map_err(|e| Fail::of("characterize", &e))?;
            Ok((
                CacheValue::Characterization(Arc::new(characterization)),
                CHARACTERIZATION_BYTES,
            ))
        })?;
        let characterization = match value {
            CacheValue::Characterization(c) => c,
            _ => return Err(Fail::bad_request("cache", "cache kind mismatch")),
        };
        let ctx = self.request_ctx(request)?;
        self.check_budget(&ctx, "optimize")?;

        let best = characterization
            .optimize(alpha, &platform)
            .map_err(|e| Fail::of("optimize", &e))?;
        Ok(Json::obj([
            ("benchmark", Json::str(benchmark.to_string())),
            ("alpha", f64_to_json(alpha)),
            ("m2", f64_to_json(best.point.m2)),
            ("m3", f64_to_json(best.point.m3)),
            ("tc", f64_to_json(best.point.tc as f64)),
            ("combo", Json::str(best.point.combo.label())),
            ("predicted_ir_mv", f64_to_json(best.predicted_ir_mv)),
            ("measured_ir_mv", f64_to_json(best.measured_ir_mv)),
            ("cost", f64_to_json(best.cost)),
            ("objective", f64_to_json(best.objective)),
        ]))
    }

    fn stats_result(&self) -> Json {
        let cache = self.cache.stats();
        let breaker = self.breaker.stats();
        Json::obj([
            (
                "uptime_s",
                f64_to_json(self.started.elapsed().as_secs_f64()),
            ),
            ("served", u64_to_json(self.served.load(Ordering::Relaxed))),
            (
                "cache",
                Json::obj([
                    ("entries", Json::num(cache.entries as f64)),
                    ("bytes", Json::num(cache.bytes as f64)),
                    ("hits", u64_to_json(cache.hits)),
                    ("misses", u64_to_json(cache.misses)),
                    ("evictions", u64_to_json(cache.evictions)),
                ]),
            ),
            (
                "breaker",
                Json::obj([
                    ("opens", u64_to_json(breaker.opens)),
                    ("short_circuits", u64_to_json(breaker.short_circuits)),
                    ("open_now", Json::num(breaker.open_now as f64)),
                ]),
            ),
            (
                "shed",
                Json::obj([
                    ("count", u64_to_json(self.shed_count())),
                    ("shedding", Json::Bool(self.is_shedding())),
                    (
                        "queue_depth",
                        Json::num(self.last_queue_depth.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "panics_caught",
                u64_to_json(self.panics_caught.load(Ordering::Relaxed)),
            ),
        ])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const QUICK_CFG: &str = "benchmark = ddr3-off\n";

    fn quick_state(cache_bytes: usize) -> ServeState {
        ServeState::new(ServeOptions {
            mesh: MeshOptions::coarse().with_grid(8),
            cache_bytes,
            ..ServeOptions::default()
        })
    }

    fn solve_request(cfg: &str) -> Json {
        Json::obj([
            ("cmd", Json::str("solve")),
            ("id", Json::num(1.0)),
            ("config", Json::str(cfg)),
        ])
    }

    /// Runs `f` with its injected panics kept off stderr; any other panic,
    /// a failing assertion included, still reaches the previous hook, and
    /// that hook is back in place however `f` ends. Serialized, since the
    /// hook is process-global.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = match HOOK_LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let previous = Arc::new(std::panic::take_hook());
        let forward = Arc::clone(&previous);
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload_as_str().is_some_and(|message| {
                message == "injected worker panic (chaos plan)"
                    || message.starts_with("poison item ")
            });
            if !injected {
                forward(info);
            }
        }));
        // A panicking thread cannot swap the hook, so a panic in `f` is
        // caught and resumed only after the previous hook is back.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::panic::set_hook(Box::new(move |info| previous(info)));
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    #[test]
    fn ping_round_trips() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let response = state.handle_request(&Json::obj([("cmd", Json::str("ping"))]));
        assert_eq!(response.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
        assert_eq!(
            response
                .get("outcome")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("ok")
        );
        assert_eq!(
            response.get("result").unwrap().get("pong"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn unknown_cmd_reports_error_outcome() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let response = state.handle_request(&Json::obj([("cmd", Json::str("frobnicate"))]));
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(outcome.get("exit_code").unwrap().as_num(), Some(1.0));
        assert!(outcome
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("frobnicate"));
    }

    #[test]
    fn bad_config_maps_to_parse_stage() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let response = state.handle_request(&solve_request("benchmark = dram9000\n"));
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(outcome.get("stage").unwrap().as_str(), Some("parse"));
        assert_eq!(
            state.cache_stats().misses,
            0,
            "bad configs never reach the cache"
        );
    }

    #[test]
    fn out_of_range_grid_is_a_bad_request() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let mut request = solve_request(QUICK_CFG);
        if let Json::Obj(pairs) = &mut request {
            pairs.push(("grid".into(), Json::num(3.0)));
        }
        let response = state.handle_request(&request);
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("stage").unwrap().as_str(), Some("request"));
        assert_eq!(
            outcome.get("error").unwrap().as_str(),
            Some("\"grid\" must be an integer between 4 and 128")
        );
        assert_eq!(state.cache_stats().misses, 0);
    }

    #[test]
    fn cold_and_warm_solves_are_byte_identical() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let cold = state
            .handle_request(&solve_request(QUICK_CFG))
            .to_compact_string();
        let warm = state
            .handle_request(&solve_request(QUICK_CFG))
            .to_compact_string();
        assert_eq!(cold, warm);
        let stats = state.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(cold.contains("\"max_dram_mv\""), "{cold}");
    }

    #[test]
    fn expired_deadline_maps_to_exit_124() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let mut request = solve_request(QUICK_CFG);
        if let Json::Obj(pairs) = &mut request {
            pairs.push(("deadline".into(), Json::num(1e-9)));
        }
        std::thread::sleep(Duration::from_millis(2));
        let response = state.handle_request(&request);
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("status").unwrap().as_str(), Some("deadline"));
        assert_eq!(outcome.get("exit_code").unwrap().as_num(), Some(124.0));
    }

    #[test]
    fn cancelled_server_maps_to_exit_130() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        state.options().cancel.cancel();
        let response = state.handle_request(&solve_request(QUICK_CFG));
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(outcome.get("exit_code").unwrap().as_num(), Some(130.0));
    }

    /// Serve keeps no journal and has no `--resume`, so an interrupted
    /// request's error must not point at either.
    #[test]
    fn budget_outcomes_promise_no_journal() {
        let expired = quick_state(DEFAULT_CACHE_BYTES);
        let mut request = solve_request(QUICK_CFG);
        if let Json::Obj(pairs) = &mut request {
            pairs.push(("deadline".into(), Json::num(1e-9)));
        }
        std::thread::sleep(Duration::from_millis(2));
        let late = expired.handle_request(&request);
        let cancelled = quick_state(DEFAULT_CACHE_BYTES);
        cancelled.options().cancel.cancel();
        let stopped = cancelled.handle_request(&solve_request(QUICK_CFG));
        for (response, what) in [(late, "deadline exceeded"), (stopped, "cancelled")] {
            let outcome = response.get("outcome").unwrap();
            let error = outcome.get("error").unwrap().as_str().unwrap();
            assert!(
                error.starts_with(&format!("request {what} before its ")),
                "{error}"
            );
            assert!(!error.contains("journal"), "{error}");
            assert!(!error.contains("--resume"), "{error}");
        }
    }

    #[test]
    fn tiny_budget_evicts_oldest_and_rebuilds() {
        // A 1-byte budget holds exactly one artifact: alternating two
        // designs must evict on every other request yet keep answers
        // identical to a roomy cache.
        let tiny = quick_state(1);
        let roomy = quick_state(DEFAULT_CACHE_BYTES);
        let cfg_a = "benchmark = ddr3-off\n";
        let cfg_b = "benchmark = ddr3-off\ntsv_count = 60\n";
        let mut tiny_responses = Vec::new();
        let mut roomy_responses = Vec::new();
        for cfg in [cfg_a, cfg_b, cfg_a, cfg_b] {
            tiny_responses.push(tiny.handle_request(&solve_request(cfg)).to_compact_string());
            roomy_responses.push(
                roomy
                    .handle_request(&solve_request(cfg))
                    .to_compact_string(),
            );
        }
        assert_eq!(tiny_responses, roomy_responses);
        let stats = tiny.cache_stats();
        assert_eq!(stats.entries, 1, "budget holds one entry");
        assert_eq!(stats.misses, 4, "every alternation rebuilds");
        assert_eq!(stats.evictions, 3);
        assert_eq!(
            roomy.cache_stats().misses,
            2,
            "roomy cache builds each design once"
        );
        assert_eq!(roomy.cache_stats().hits, 2);
    }

    #[test]
    fn queue_is_fifo_bounded_and_closable() {
        let queue: RequestQueue<u32> = RequestQueue::new(2);
        assert!(queue.push(1).is_ok());
        assert!(queue.push(2).is_ok());
        assert_eq!(
            queue.push(3),
            Err(3),
            "admission beyond the bound is rejected"
        );
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        queue.close();
        assert_eq!(queue.push(4), Err(4), "closed queue rejects new work");
        assert_eq!(queue.pop(), None, "closed and drained");
    }

    #[test]
    fn queue_drains_remaining_items_after_close() {
        let queue: RequestQueue<u32> = RequestQueue::new(8);
        queue.push(7).unwrap();
        queue.close();
        assert_eq!(
            queue.pop(),
            Some(7),
            "in-flight work drains before shutdown"
        );
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let queue: Arc<RequestQueue<u32>> = Arc::new(RequestQueue::new(8));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn shutdown_request_sets_the_flag() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        assert!(!state.shutdown_requested());
        let response = state.handle_request(&Json::obj([("cmd", Json::str("shutdown"))]));
        assert_eq!(
            response
                .get("outcome")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("ok")
        );
        assert!(state.shutdown_requested());
    }

    #[test]
    fn stats_reports_cache_counters() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        state.handle_request(&solve_request(QUICK_CFG));
        state.handle_request(&solve_request(QUICK_CFG));
        let response = state.handle_request(&Json::obj([("cmd", Json::str("stats"))]));
        let cache = response.get("result").unwrap().get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_str(), Some("1"));
        assert_eq!(cache.get("misses").unwrap().as_str(), Some("1"));
        assert_eq!(cache.get("entries").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn exit_codes_walk_error_chains() {
        assert_eq!(
            exit_code_for(&CoreError::Cancelled {
                completed: 1,
                total: 2
            }),
            EXIT_CANCELLED
        );
        assert_eq!(
            exit_code_for(&CoreError::DeadlineExceeded {
                completed: 1,
                total: 2
            }),
            EXIT_DEADLINE
        );
        assert_eq!(exit_code_for(&std::io::Error::other("disk on fire")), 1);
        assert_eq!(status_label(EXIT_CANCELLED), "cancelled");
        assert_eq!(status_label(EXIT_TERMINATED), "terminated");
        assert_eq!(status_label(EXIT_DEADLINE), "deadline");
        assert_eq!(status_label(EXIT_PANIC), "panic");
        assert_eq!(status_label(0), "ok");
        assert_eq!(status_label(1), "error");
    }

    #[test]
    fn injected_panic_becomes_a_typed_outcome() {
        let plan = Arc::new(FaultPlan::new(1).with_worker_panics(1.0).with_budget(1));
        let state = ServeState::new(ServeOptions {
            fault_plan: Some(Arc::clone(&plan)),
            ..ServeOptions::default()
        });
        let response =
            with_quiet_panics(|| state.handle_request(&Json::obj([("cmd", Json::str("ping"))])));
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("status").unwrap().as_str(), Some("panic"));
        assert_eq!(outcome.get("stage").unwrap().as_str(), Some("panic"));
        assert_eq!(outcome.get("exit_code").unwrap().as_num(), Some(101.0));
        assert!(outcome
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("injected worker panic"));
        assert_eq!(plan.injected_panics(), 1);
        assert_eq!(state.panics_caught(), 1);
        // Budget spent: the next request is served normally.
        let ok = state.handle_request(&Json::obj([("cmd", Json::str("ping"))]));
        assert_eq!(
            ok.get("outcome").unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }

    #[test]
    fn fault_plans_replay_identically_from_one_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with_build_failures(0.5);
            (0..64).map(|_| plan.should_fail_build()).collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same faults");
        assert_ne!(schedule(42), schedule(43), "different seed diverges");
        let fired = schedule(42).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&fired), "p=0.5 should fire roughly half");
    }

    #[test]
    fn fault_points_draw_from_independent_streams() {
        // Worker threads interleave the two kinds of roll in any order;
        // the build schedule must not depend on the panic rolls between.
        let builds = |panic_rolls_between: usize| -> Vec<bool> {
            let plan = FaultPlan::new(42)
                .with_worker_panics(0.5)
                .with_build_failures(0.5);
            (0..32)
                .map(|_| {
                    for _ in 0..panic_rolls_between {
                        plan.should_panic();
                    }
                    plan.should_fail_build()
                })
                .collect()
        };
        assert_eq!(builds(0), builds(3));
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_half_open() {
        let plan = Arc::new(FaultPlan::new(3).with_build_failures(1.0).with_budget(3));
        let state = ServeState::new(ServeOptions {
            mesh: MeshOptions::coarse().with_grid(8),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(40),
            fault_plan: Some(plan),
            ..ServeOptions::default()
        });
        // Three consecutive injected build failures trip the breaker.
        for _ in 0..3 {
            let response = state.handle_request(&solve_request(QUICK_CFG));
            let outcome = response.get("outcome").unwrap();
            assert_eq!(outcome.get("stage").unwrap().as_str(), Some("mesh"));
        }
        let stats = state.breaker_stats();
        assert_eq!(stats.opens, 1, "third failure opens the breaker");
        assert_eq!(stats.open_now, 1);
        // While open: short-circuit without touching the cache.
        let misses_before = state.cache_stats().misses;
        let response = state.handle_request(&solve_request(QUICK_CFG));
        let outcome = response.get("outcome").unwrap();
        assert_eq!(outcome.get("stage").unwrap().as_str(), Some("breaker"));
        assert!(outcome
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("circuit breaker open"));
        assert_eq!(state.cache_stats().misses, misses_before, "no build ran");
        assert_eq!(state.breaker_stats().short_circuits, 1);
        // After the cooldown the half-open probe runs for real (fault
        // budget exhausted), succeeds, and the breaker resets.
        std::thread::sleep(Duration::from_millis(60));
        let response = state.handle_request(&solve_request(QUICK_CFG));
        assert_eq!(
            response
                .get("outcome")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("ok"),
            "half-open probe should succeed"
        );
        let stats = state.breaker_stats();
        assert_eq!(stats.open_now, 0, "success resets the breaker");
        // A healthy fingerprint keeps serving warm hits.
        let warm = state.handle_request(&solve_request(QUICK_CFG));
        assert_eq!(
            warm.get("outcome").unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }

    #[test]
    fn breaker_ignores_cancelled_and_deadline_failures() {
        let breaker = Breaker::new(2, Duration::from_secs(10));
        breaker.record_failure(9, EXIT_CANCELLED);
        breaker.record_failure(9, EXIT_DEADLINE);
        breaker.record_failure(9, EXIT_PANIC);
        assert_eq!(breaker.stats().opens, 0, "only real errors count");
        breaker.record_failure(9, 1);
        breaker.record_failure(9, 1);
        assert_eq!(breaker.stats().opens, 1);
        assert!(breaker.check(9).is_err(), "open breaker short-circuits");
        assert!(breaker.check(10).is_ok(), "other fingerprints unaffected");
    }

    #[test]
    fn shedding_follows_watermarks_with_hysteresis() {
        let state = ServeState::new(ServeOptions {
            shed_high_watermark: 4,
            shed_low_watermark: 1,
            shed_retry_after: Duration::from_millis(120),
            ..ServeOptions::default()
        });
        assert!(!state.is_shedding());
        state.note_queue_depth(4);
        assert!(state.is_shedding(), "high watermark flips shedding on");
        state.note_queue_depth(3);
        assert!(state.is_shedding(), "between watermarks: still shedding");
        let work = solve_request(QUICK_CFG);
        assert!(state.should_shed(&work));
        let cheap = Json::obj([("cmd", Json::str("health")), ("id", Json::num(9.0))]);
        assert!(!state.should_shed(&cheap), "control plane is never shed");
        let shed = state.shed_response(&work);
        let outcome = shed.get("outcome").unwrap();
        assert_eq!(outcome.get("stage").unwrap().as_str(), Some("admission"));
        assert_eq!(outcome.get("exit_code").unwrap().as_num(), Some(1.0));
        assert_eq!(
            shed.get("result").unwrap().get("retry_after_ms"),
            Some(&Json::num(120.0))
        );
        assert_eq!(state.shed_count(), 1);
        // Health reports degraded while shedding, ready after recovery.
        let health = state.handle_request(&cheap);
        assert_eq!(
            health.get("result").unwrap().get("state").unwrap().as_str(),
            Some("degraded")
        );
        state.note_queue_depth(1);
        assert!(!state.is_shedding(), "low watermark recovers");
        let health = state.handle_request(&cheap);
        assert_eq!(
            health.get("result").unwrap().get("state").unwrap().as_str(),
            Some("ready")
        );
    }

    #[test]
    fn health_reports_draining_after_shutdown() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        state.handle_request(&Json::obj([("cmd", Json::str("shutdown"))]));
        let health = state.handle_request(&Json::obj([("cmd", Json::str("health"))]));
        assert_eq!(
            health.get("result").unwrap().get("state").unwrap().as_str(),
            Some("draining")
        );
    }

    #[test]
    fn stats_reports_breaker_and_shed_sections() {
        let state = quick_state(DEFAULT_CACHE_BYTES);
        let response = state.handle_request(&Json::obj([("cmd", Json::str("stats"))]));
        let result = response.get("result").unwrap();
        let breaker = result.get("breaker").unwrap();
        assert_eq!(breaker.get("opens").unwrap().as_str(), Some("0"));
        assert_eq!(breaker.get("short_circuits").unwrap().as_str(), Some("0"));
        let shed = result.get("shed").unwrap();
        assert_eq!(shed.get("count").unwrap().as_str(), Some("0"));
        assert_eq!(shed.get("shedding"), Some(&Json::Bool(false)));
        assert_eq!(result.get("panics_caught").unwrap().as_str(), Some("0"));
    }

    #[test]
    fn worker_pool_respawns_after_a_panicking_item() {
        with_quiet_panics(|| {
            let queue: Arc<RequestQueue<i32>> = Arc::new(RequestQueue::new(64));
            let handled = Arc::new(AtomicU64::new(0));
            let mut pool = {
                let handled = Arc::clone(&handled);
                WorkerPool::new(2, Arc::clone(&queue), move |item: i32| {
                    if item < 0 {
                        panic!("poison item {item}");
                    }
                    handled.fetch_add(1, Ordering::Relaxed);
                })
            };
            queue.push(-1).unwrap();
            queue.push(-2).unwrap();
            // Wait for both poison items to kill their workers;
            // maintain() may observe the deaths across several sweeps.
            let deadline = Instant::now() + Duration::from_secs(10);
            while pool.respawned() < 2 && Instant::now() < deadline {
                pool.maintain();
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(pool.respawned(), 2, "both dead workers replaced");
            // The refilled pool still drains work.
            for i in 0..8 {
                queue.push(i).unwrap();
            }
            queue.close();
            pool.join();
            assert_eq!(handled.load(Ordering::Relaxed), 8);
        });
    }
}
