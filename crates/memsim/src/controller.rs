use crate::admission::AdmissionCache;
use crate::bank::{Bank, BankPhase};
use crate::lut::IrDropLut;
use crate::policy::{IrPolicy, ReadPolicy, SchedulingPolicy};
use crate::request::ReadRequest;
use crate::stats::SimStats;
use crate::timing::TimingParams;
use pi3d_layout::units::MilliVolts;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Structural configuration of the simulated memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// DRAM dies in the stack.
    pub dies: usize,
    /// Banks per die.
    pub banks_per_die: usize,
    /// Independent channels (each with its own command/data bus).
    pub channels: usize,
    /// Request-queue capacity (the paper uses 32).
    pub queue_capacity: usize,
    /// Maximum simultaneously powered banks per die (the paper's
    /// interleaving mode caps this at two to protect the charge pumps).
    pub max_powered_per_die: usize,
    /// Simulation cycle budget enforced by the event loop (`0` =
    /// unlimited, the default). When the budget runs out before the
    /// request stream completes, [`MemorySimulator::run`] returns
    /// [`SimulateError::CycleBudgetExceeded`] carrying the statistics
    /// accumulated so far. The frozen per-cycle reference stepper ignores
    /// this field — the event/reference bit-equivalence contract covers
    /// uninterrupted runs.
    pub max_cycles: u64,
}

impl SimConfig {
    /// The paper's stacked-DDR3 system: 4 dies × 8 banks, one channel,
    /// a 32-entry queue, at most two powered banks per die, no cycle
    /// budget.
    pub fn paper_ddr3() -> Self {
        SimConfig {
            dies: 4,
            banks_per_die: 8,
            channels: 1,
            queue_capacity: 32,
            max_powered_per_die: 2,
            max_cycles: 0,
        }
    }
}

/// The lowest-IR single-activate option available when a run stalled.
///
/// If even this state violates the constraint, the constraint admits no
/// forward progress at the measured activity — the definitive diagnosis
/// for "IR constraint allows no state" failures.
#[derive(Debug, Clone, PartialEq)]
pub struct StallLutEntry {
    /// Die the hypothetical activate would target.
    pub die: usize,
    /// Per-die powered-bank counts after that activate.
    pub state: Vec<u8>,
    /// The LUT's IR drop (mV) for that state at the measured activity.
    pub ir_mv: f64,
}

/// Snapshot of the memory system at the moment a simulation stalled.
#[derive(Debug, Clone, PartialEq)]
pub struct StallSnapshot {
    /// Powered-bank count per die as the LUT sees it (refreshing dies
    /// count at the interleave cap).
    pub per_die_powered: Vec<u8>,
    /// Requests waiting in the controller queue.
    pub queue_depth: usize,
    /// Measured I/O activity (sliding-window utilization, `0.0..=1.0`).
    pub io_activity: f64,
    /// IR-drop constraint (mV) the policy enforces, if any.
    pub constraint_mv: Option<f64>,
    /// The cheapest next activate the LUT offers, if any.
    pub tightest: Option<StallLutEntry>,
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "powered {:?}, queue depth {}, I/O activity {:.3}",
            self.per_die_powered, self.queue_depth, self.io_activity
        )?;
        if let Some(c) = self.constraint_mv {
            write!(f, ", constraint {c:.2} mV")?;
        }
        match &self.tightest {
            Some(t) => write!(
                f,
                ", cheapest activate: die {} -> {:?} at {:.2} mV",
                t.die, t.state, t.ir_mv
            ),
            None => write!(f, ", no activate state in the LUT"),
        }
    }
}

/// Error returned when a simulation cannot make progress.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimulateError {
    /// The controller stopped issuing commands (e.g. the IR constraint is
    /// below the drop of every single-bank state, so no activate is ever
    /// legal).
    Stalled {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Requests completed before the stall.
        completed: u64,
        /// Memory state and tightest LUT option at the stall point.
        snapshot: Box<StallSnapshot>,
    },
    /// The [`SimConfig::max_cycles`] budget ran out before the request
    /// stream completed. The statistics accumulated up to the cutoff are
    /// preserved in `partial`.
    CycleBudgetExceeded {
        /// Cycle at which the budget check fired.
        cycle: u64,
        /// Requests completed within the budget.
        completed: u64,
        /// The configured budget.
        max_cycles: u64,
        /// Statistics over the simulated prefix of the run.
        partial: Box<SimStats>,
    },
    /// The simulation was cancelled cooperatively (SIGINT or programmatic
    /// cancel) via [`MemorySimulator::with_cancel`].
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
        /// Requests completed before the cancellation.
        completed: u64,
        /// Statistics over the simulated prefix of the run.
        partial: Box<SimStats>,
    },
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::Stalled {
                cycle,
                completed,
                snapshot,
            } => write!(
                f,
                "simulation stalled at cycle {cycle} with {completed} requests completed \
                 (IR-drop constraint likely allows no memory state): {snapshot}"
            ),
            SimulateError::CycleBudgetExceeded {
                cycle,
                completed,
                max_cycles,
                ..
            } => write!(
                f,
                "simulation cycle budget of {max_cycles} exhausted at cycle {cycle} \
                 with {completed} requests completed"
            ),
            SimulateError::Cancelled {
                cycle, completed, ..
            } => write!(
                f,
                "simulation cancelled at cycle {cycle} with {completed} requests completed"
            ),
        }
    }
}

impl Error for SimulateError {}

/// Cycle-accurate 3D DRAM memory-controller simulator.
///
/// Models per-bank row state (activate / read / precharge with tRCD, tRAS,
/// tRP), per-channel command and data buses (tCL, tCCD, burst occupancy),
/// a bounded priority queue, the IR-drop lookup table, and the three read
/// policies of the paper's Section 5.2.
///
/// [`MemorySimulator::run`] advances time event-to-event (skipping cycles
/// where no command, arrival, retirement, refresh, or window transition
/// can occur) and memoizes LUT admission checks; it produces statistics
/// bit-identical to the plain per-cycle stepper kept as
/// [`MemorySimulator::run_reference`].
///
/// # Examples
///
/// ```
/// use pi3d_layout::units::MilliVolts;
/// use pi3d_memsim::{
///     IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A flat LUT: every state is allowed.
/// let mut lut = IrDropLut::new(4);
/// # let states: Vec<Vec<u8>> = (0..81)
/// #     .map(|i| (0..4).map(|d| ((i / 3usize.pow(d)) % 3) as u8).collect())
/// #     .collect();
/// # for s in &states {
/// #     for act in [0.25, 0.5, 1.0] {
/// #         lut.insert(s, act, MilliVolts(10.0));
/// #     }
/// # }
/// let sim = MemorySimulator::new(
///     TimingParams::ddr3_1600(),
///     SimConfig::paper_ddr3(),
///     ReadPolicy::ir_aware_fcfs(MilliVolts(24.0)),
///     lut,
/// );
/// let mut workload = WorkloadSpec::paper_ddr3();
/// workload.count = 200;
/// let stats = sim.run(&workload.generate())?;
/// assert_eq!(stats.completed, 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemorySimulator {
    pub(crate) timing: TimingParams,
    pub(crate) config: SimConfig,
    pub(crate) policy: ReadPolicy,
    pub(crate) lut: IrDropLut,
    pub(crate) cancel: Option<pi3d_telemetry::CancelToken>,
}

#[derive(Debug)]
pub(crate) struct ChannelState {
    /// Cycle of the last read command (tCCD / data-bus spacing).
    pub(crate) last_read_cmd: Option<u64>,
    /// Activate history inside the tFAW window (standard policy).
    pub(crate) acts: VecDeque<u64>,
    /// Cycle of the last activate (tRRD, standard policy).
    pub(crate) last_act: Option<u64>,
}

/// Sliding-window measurement of per-die I/O activity (bus utilization).
///
/// The IR-drop-aware policies gate *reads* on the activity the read would
/// produce: issuing a read to a die raises that die's measured utilization,
/// and the LUT is consulted at the measured level. This is how the paper's
/// controller turns the IR constraint into read-rate throttling — inserting
/// bubbles when the state's full-rate IR would violate the cap — which
/// yields the smooth runtime-vs-constraint curves of Figure 9.
#[derive(Debug)]
pub(crate) struct ActivityWindow {
    pub(crate) window: u64,
    /// `(issue_cycle, die, data_cycles)` per recent read.
    pub(crate) events: VecDeque<(u64, usize, u32)>,
    /// Busy data-bus cycles per die within the window.
    pub(crate) busy: Vec<u64>,
}

impl ActivityWindow {
    pub(crate) fn new(dies: usize, window: u64) -> Self {
        ActivityWindow {
            window,
            events: VecDeque::new(),
            busy: vec![0; dies],
        }
    }

    pub(crate) fn prune(&mut self, cycle: u64) {
        while let Some(&(c, die, data)) = self.events.front() {
            if c + self.window <= cycle {
                self.busy[die] -= data as u64;
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    pub(crate) fn record(&mut self, cycle: u64, die: usize, data_cycles: u32) {
        self.events.push_back((cycle, die, data_cycles));
        self.busy[die] += data_cycles as u64;
    }

    /// Utilization of one die's I/O over the window.
    pub(crate) fn die_utilization(&self, die: usize) -> f64 {
        self.busy[die] as f64 / self.window as f64
    }

    /// The worst per-die utilization.
    pub(crate) fn max_utilization(&self) -> f64 {
        self.busy
            .iter()
            .map(|&b| b as f64 / self.window as f64)
            .fold(0.0, f64::max)
    }

    /// Busy cycles of one die (integer form, for exact cache keys).
    pub(crate) fn busy_int(&self, die: usize) -> u64 {
        self.busy[die]
    }

    /// The worst per-die busy count. `max_busy_int() / window` equals
    /// [`Self::max_utilization`] bit-for-bit: division by a positive
    /// constant is monotone, so the max of the quotients is the quotient
    /// of the max.
    pub(crate) fn max_busy_int(&self) -> u64 {
        self.busy.iter().copied().max().unwrap_or(0)
    }

    /// Cycle at which the oldest recorded read leaves the window (the
    /// next moment any busy count can decrease).
    pub(crate) fn next_expiry(&self) -> Option<u64> {
        self.events.front().map(|&(c, _, _)| c + self.window)
    }
}

impl MemorySimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the LUT's die count differs from the configuration's.
    pub fn new(
        timing: TimingParams,
        config: SimConfig,
        policy: ReadPolicy,
        lut: IrDropLut,
    ) -> Self {
        assert_eq!(lut.dies(), config.dies, "LUT die count mismatch");
        MemorySimulator {
            timing,
            config,
            policy,
            lut,
            cancel: None,
        }
    }

    /// Attaches a cancellation token polled once per simulated event by
    /// [`run`](Self::run); on cancellation the loop returns
    /// [`SimulateError::Cancelled`] carrying the statistics accumulated so
    /// far. The frozen reference stepper does not poll the token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: pi3d_telemetry::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> ReadPolicy {
        self.policy
    }

    /// The timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Runs the request stream to completion, advancing time
    /// event-to-event.
    ///
    /// The scheduling semantics — and the returned [`SimStats`], bit for
    /// bit — match the per-cycle reference stepper
    /// ([`MemorySimulator::run_reference`]); see `DESIGN.md` §12 for the
    /// equivalence argument.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError::Stalled`] if no forward progress is
    /// possible (an over-tight IR constraint), with a snapshot of the
    /// blocking state.
    pub fn run(&self, requests: &[ReadRequest]) -> Result<SimStats, SimulateError> {
        let _span = pi3d_telemetry::span::span("memsim_run");
        let t = &self.timing;
        let cfg = &self.config;
        // The event loop packs per-die powered counts into u64 nibbles.
        assert!(cfg.dies <= 16, "event scheduler supports at most 16 dies");
        assert!(
            cfg.banks_per_die <= 32,
            "open-bank tracking packs a die's banks into a u32"
        );
        assert!(
            cfg.max_powered_per_die < 16,
            "per-die powered-bank cap must fit a nibble"
        );
        // The scheduler admits requests in slice order and keeps the queue
        // in admission order, standing in for the reference's sort by id —
        // valid only if ids are strictly increasing (as `WorkloadSpec` and
        // `parse_trace` both guarantee).
        assert!(
            requests.windows(2).all(|w| w[0].id < w[1].id),
            "request ids must be strictly increasing in slice order"
        );
        let n = requests.len() as u64;

        let mut banks: Vec<Vec<Bank>> = vec![vec![Bank::new(); cfg.banks_per_die]; cfg.dies];
        let mut channels: Vec<ChannelState> = (0..cfg.channels)
            .map(|_| ChannelState {
                last_read_cmd: None,
                acts: VecDeque::new(),
                last_act: None,
            })
            .collect();
        let mut queue: Vec<ReadRequest> = Vec::with_capacity(cfg.queue_capacity);
        // Activity window: a few row cycles long, so throttling reacts on
        // the same timescale banks open and close.
        let mut activity = ActivityWindow::new(cfg.dies, 2 * t.t_faw.max(32) as u64);
        // Refresh bookkeeping (extension; disabled when t_refi == 0).
        let mut refresh_due: Vec<u64> = (0..cfg.dies)
            .map(|d| t.t_refi as u64 + (d as u64 * t.t_refi as u64) / cfg.dies.max(1) as u64)
            .collect();
        let mut refreshing_until: Vec<u64> = vec![0; cfg.dies];
        // Upper bound on every `refreshing_until`; lets the per-cycle
        // effective-state computation skip the die loop once all refreshes
        // have drained (the common case).
        let mut max_refreshing_until: u64 = 0;
        let mut refreshes: u64 = 0;
        let mut next_arrival = 0usize;
        let mut in_flight: Vec<(u64, ReadRequest)> = Vec::new();
        let mut act_for: HashMap<(usize, usize), u64> = HashMap::new();

        let mut cycle: u64 = 0;
        let mut completed: u64 = 0;
        let mut last_data_end: u64 = 0;
        let mut activates: u64 = 0;
        let mut precharges: u64 = 0;
        let mut row_hits: u64 = 0;
        let mut latency_sum: f64 = 0.0;
        let mut queue_depth_sum: f64 = 0.0;
        let mut stall_cycles: u64 = 0;
        let mut max_ir = MilliVolts(0.0);
        let mut last_progress_cycle: u64 = 0;

        // Incremental mirror of the per-die powered-bank counts, kept in
        // both vector and nibble-packed form; updated at the only two
        // mutation points (activate, precharge) so no cycle rescans banks.
        let mut powered: Vec<u8> = vec![0; cfg.dies];
        let mut powered_key: u64 = 0;
        let mut cache = AdmissionCache::new(cfg.dies, activity.window, t.data_cycles());
        // Reused scheduling scratch (the reference allocates per cycle).
        let mut order: Vec<usize> = Vec::new();
        // Per-channel admission memos: `read_allowed`/`activate_allowed`
        // depend only on the die (and, for tRRD/tFAW, the channel), so one
        // verdict per die serves every candidate in the scan. Valid within
        // a channel's scan because state is immutable until a command
        // issues, which ends the scan.
        let mut read_ok: Vec<Option<bool>> = vec![None; cfg.dies];
        let mut act_ok: Vec<Option<bool>> = vec![None; cfg.dies];
        // Per-die refresh gate scratch (filled per cycle when refresh is
        // enabled; permanently false otherwise).
        let mut die_refreshing: Vec<bool> = vec![false; cfg.dies];
        let mut die_refresh_pending: Vec<bool> = vec![false; cfg.dies];
        // Per-die bitmask of banks with a row open (or opening); mirrors
        // `powered` bank-by-bank so the auto-close pass visits only open
        // banks instead of every bank slot.
        let mut open_mask: Vec<u32> = vec![0; cfg.dies];
        // Banks with a precharge (possibly long finished) in flight; bits
        // are set at precharge and cleared lazily by the candidate scan,
        // so `open | precharging` covers every bank that can still owe a
        // timing candidate.
        let mut precharging_mask: Vec<u32> = vec![0; cfg.dies];
        // DistR priority buckets, one per powered level, reused per cycle.
        let mut level_bufs: Vec<Vec<usize>> = vec![Vec::new(); cfg.max_powered_per_die + 1];
        // Step-6 memo: the (effective state, busy window) pair repeats for
        // runs of cycles; `max` is idempotent, so re-looking it up is
        // pure waste.
        let mut last_tracked: Option<(u64, u64)> = None;
        let mut simulated_cycles: u64 = 0;
        let mut skipped_cycles: u64 = 0;

        let stall_horizon = t.stall_horizon();
        let spacing = t.t_ccd.max(t.data_cycles()) as u64;
        let idle_close = t.idle_close as u64;
        let starve = (8 * t.idle_close).max(t.t_ras) as u64;
        let standard = matches!(self.policy.ir, IrPolicy::Standard);

        // Flight-recorder view of the event loop: one `events[a..b)`
        // slice per block of simulated events plus counter tracks
        // (queue depth, completions, admission-cache hits/misses)
        // sampled at block boundaries. Individual events are far too
        // fine to trace one-by-one; when tracing is off this costs one
        // integer modulo per event.
        const EVENT_TRACE_BLOCK: u64 = 8192;
        let mut _event_block = pi3d_telemetry::trace::span_with("memsim", || {
            format!("events[0..{EVENT_TRACE_BLOCK})")
        });

        while completed < n {
            // Budget and cancellation gates, polled once per simulated
            // event (each event is real scheduling work, so the clock
            // compare and atomic load are noise). Both exits carry the
            // statistics accumulated so far.
            if cfg.max_cycles > 0 && cycle >= cfg.max_cycles {
                pi3d_telemetry::metrics::counter("memsim.cycle_budget_exceeded").incr(1);
                return Err(SimulateError::CycleBudgetExceeded {
                    cycle,
                    completed,
                    max_cycles: cfg.max_cycles,
                    partial: Box::new(accumulated_stats(
                        t,
                        refreshes,
                        completed,
                        last_data_end,
                        activates,
                        precharges,
                        row_hits,
                        latency_sum,
                        queue_depth_sum,
                        cycle.max(1),
                        stall_cycles,
                        max_ir,
                    )),
                });
            }
            if self
                .cancel
                .as_ref()
                .is_some_and(pi3d_telemetry::CancelToken::is_cancelled)
            {
                pi3d_telemetry::metrics::counter("memsim.cancelled").incr(1);
                return Err(SimulateError::Cancelled {
                    cycle,
                    completed,
                    partial: Box::new(accumulated_stats(
                        t,
                        refreshes,
                        completed,
                        last_data_end,
                        activates,
                        precharges,
                        row_hits,
                        latency_sum,
                        queue_depth_sum,
                        cycle.max(1),
                        stall_cycles,
                        max_ir,
                    )),
                });
            }
            simulated_cycles += 1;
            if simulated_cycles.is_multiple_of(EVENT_TRACE_BLOCK) {
                use pi3d_telemetry::trace;
                // End the finished block before opening its successor so
                // sibling slices never overlap.
                _event_block = trace::noop();
                _event_block = trace::span_with("memsim", || {
                    format!(
                        "events[{simulated_cycles}..{})",
                        simulated_cycles + EVENT_TRACE_BLOCK
                    )
                });
                trace::counter("memsim", "queue_depth", queue.len() as f64);
                trace::counter("memsim", "completed", completed as f64);
                trace::counter("memsim", "admission_cache_hits", cache.hits as f64);
                trace::counter("memsim", "admission_cache_misses", cache.misses as f64);
            }
            // Set when this cycle mutates scheduler-visible state in a way
            // whose follow-on consequences are not covered by a timing
            // candidate below; forces the next cycle to be simulated.
            let mut changed = false;
            activity.prune(cycle);
            // tFAW history older than the window can never pass the
            // reference's filter again, so dropping it is observation-free
            // (the reference keeps the full history and filters). Only the
            // standard policy consults the history at all, so the IR-aware
            // policies skip recording it entirely.
            if standard {
                for ch in channels.iter_mut() {
                    while ch
                        .acts
                        .front()
                        .is_some_and(|&a| a + t.t_faw as u64 <= cycle)
                    {
                        ch.acts.pop_front();
                    }
                }
            }

            // 1. Bank state machines advance lazily: the `_at` predicates
            // below resolve finished activations/precharges on the fly,
            // and a real `tick` runs only right before a mutation. Ticking
            // all banks every cycle is the reference's job.

            // 2. Retire finished data transfers.
            let mut i = 0;
            while i < in_flight.len() {
                if in_flight[i].0 <= cycle {
                    let (done, req) = in_flight.swap_remove(i);
                    completed += 1;
                    latency_sum += (done - req.arrival) as f64;
                    last_data_end = last_data_end.max(done);
                    last_progress_cycle = cycle;
                } else {
                    i += 1;
                }
            }

            // 3. Accept arrivals into the bounded queue.
            while next_arrival < requests.len()
                && requests[next_arrival].arrival <= cycle
                && queue.len() < cfg.queue_capacity
            {
                queue.push(requests[next_arrival]);
                next_arrival += 1;
            }

            // 3b. Refresh (extension): when a die's refresh is due, stop
            // activating it; once its banks drain, run an all-bank refresh
            // for tRFC cycles (staggered across dies at construction).
            if t.t_refi > 0 {
                for die in 0..cfg.dies {
                    if cycle >= refresh_due[die]
                        && cycle >= refreshing_until[die]
                        && banks[die].iter().all(|b| b.can_activate_at(cycle))
                    {
                        refreshing_until[die] = cycle + t.t_rfc as u64;
                        max_refreshing_until = max_refreshing_until.max(refreshing_until[die]);
                        refresh_due[die] = cycle + t.t_refi as u64;
                        refreshes += 1;
                        last_progress_cycle = cycle;
                        changed = true;
                        pi3d_telemetry::trace::instant("memsim", "refresh");
                    }
                }
            }

            // 4. IR-drop-motivated auto-close of banks nobody wants. The
            // cheap idle/tRAS gates come first so the O(queue) wanted-scan
            // only runs for banks actually eligible to close (`starve` is
            // always >= `idle_close`, so `idle < idle_close` rules out both
            // arms).
            for die in 0..cfg.dies {
                let mut m = open_mask[die];
                while m != 0 {
                    let bk = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let bank = &banks[die][bk];
                    let open = bank.open_row().expect("open-mask bank has a row");
                    let idle = bank.idle_for(cycle);
                    if idle < idle_close || !bank.can_precharge_at(cycle) {
                        continue;
                    }
                    // A row nobody wants closes after `idle_close`; a
                    // wanted row still closes after a long starvation
                    // period so a narrow reorder window cannot pin the
                    // die's bank budget forever.
                    let wanted = queue
                        .iter()
                        .any(|r| r.die == die && r.bank == bk && r.row == open);
                    if !wanted || idle >= starve {
                        banks[die][bk].tick(cycle);
                        banks[die][bk].precharge(cycle, t.t_rp);
                        open_mask[die] &= !(1 << bk);
                        precharging_mask[die] |= 1 << bk;
                        powered[die] -= 1;
                        powered_key -= 1 << (4 * die);
                        precharges += 1;
                        changed = true;
                    }
                }
            }

            // Per-die refresh gates, hoisted so the candidate scan reads a
            // bool instead of re-deriving both comparisons per request.
            if t.t_refi > 0 {
                for die in 0..cfg.dies {
                    die_refreshing[die] = cycle < refreshing_until[die];
                    die_refresh_pending[die] = cycle >= refresh_due[die];
                }
            }

            // 5. Issue at most one command per channel. The queue is kept
            // in admission (= id) order, so FCFS priority needs no sort at
            // all, and DistR's (powered, id) priority falls out of a
            // counting pass per powered level — each level collects in id
            // order, matching the reference's stable comparator sort.
            let mut issued_this_cycle = false;
            for ch in 0..cfg.channels {
                order.clear();
                match self.policy.scheduling {
                    SchedulingPolicy::Fcfs if cfg.channels == 1 => {
                        order.extend(0..queue.len());
                    }
                    SchedulingPolicy::Fcfs => {
                        order.extend((0..queue.len()).filter(|&i| queue[i].channel == ch));
                    }
                    SchedulingPolicy::DistributedRead => {
                        // Single bucketed pass (admission caps powered
                        // counts at `max_powered_per_die`, so the levels
                        // are exhaustive); each bucket collects in id
                        // order, so the concatenation reproduces the
                        // reference's stable (powered, id) sort.
                        for buf in level_bufs.iter_mut() {
                            buf.clear();
                        }
                        for i in 0..queue.len() {
                            if queue[i].channel == ch {
                                level_bufs[powered[queue[i].die] as usize].push(i);
                            }
                        }
                        for buf in level_bufs.iter() {
                            order.extend_from_slice(buf);
                        }
                    }
                }
                let eligible = order.len();
                order.truncate(self.policy.reorder_window());

                // Data-bus spacing (tCCD and burst occupancy) is a
                // channel-level property; admission verdicts are die-level.
                // Both are hoisted out of the candidate scan.
                let spacing_ok = channels[ch]
                    .last_read_cmd
                    .is_none_or(|last| cycle >= last + spacing);
                read_ok.iter_mut().for_each(|v| *v = None);
                act_ok.iter_mut().for_each(|v| *v = None);

                let mut issued = false;
                for (pos, &qi) in order.iter().enumerate() {
                    let req = queue[qi];
                    if die_refreshing[req.die] {
                        continue; // die busy refreshing
                    }
                    let refresh_pending = die_refresh_pending[req.die];
                    let bank = &banks[req.die][req.bank];
                    if bank.can_read_at(cycle, req.row) {
                        let ok = spacing_ok
                            && *read_ok[req.die].get_or_insert_with(|| {
                                self.read_allowed_cached(
                                    &mut cache,
                                    powered_key,
                                    &activity,
                                    req.die,
                                )
                            });
                        if ok {
                            banks[req.die][req.bank].tick(cycle);
                            banks[req.die][req.bank].read(cycle, req.row);
                            activity.record(cycle, req.die, t.data_cycles());
                            channels[ch].last_read_cmd = Some(cycle);
                            let done = cycle + t.t_cl as u64 + t.data_cycles() as u64;
                            if act_for.get(&(req.die, req.bank)) != Some(&req.id) {
                                row_hits += 1;
                            }
                            in_flight.push((done, req));
                            // Shifting removal keeps the queue in id order,
                            // which is what lets the FCFS/DistR priority
                            // passes above skip the comparator sort.
                            queue.remove(qi);
                            issued = true;
                            // Issuing breaks the priority scan (one command
                            // per channel per cycle), so any candidate after
                            // this one was MASKED, not rejected: it may be
                            // issuable next cycle with no timing event of
                            // its own. Removing a queue entry can also pull
                            // a request into a finite reorder window. Either
                            // way the next cycle must be simulated.
                            if pos + 1 < order.len() || eligible > self.policy.reorder_window() {
                                changed = true;
                            }
                            last_progress_cycle = cycle;
                        }
                    } else if bank.open_row().is_some() && bank.open_row() != Some(req.row) {
                        if banks[req.die][req.bank].can_precharge_at(cycle) {
                            banks[req.die][req.bank].tick(cycle);
                            banks[req.die][req.bank].precharge(cycle, t.t_rp);
                            open_mask[req.die] &= !(1 << req.bank);
                            precharging_mask[req.die] |= 1 << req.bank;
                            powered[req.die] -= 1;
                            powered_key -= 1 << (4 * req.die);
                            precharges += 1;
                            issued = true;
                            changed = true;
                            last_progress_cycle = cycle;
                        }
                    } else if bank.can_activate_at(cycle)
                        && !refresh_pending
                        && *act_ok[req.die].get_or_insert_with(|| {
                            self.activate_allowed_cached(
                                &mut cache,
                                &powered,
                                powered_key,
                                &channels[ch],
                                &activity,
                                req.die,
                                cycle,
                            )
                        })
                    {
                        banks[req.die][req.bank].tick(cycle);
                        banks[req.die][req.bank].activate(cycle, req.row, t.t_rcd, t.t_ras);
                        open_mask[req.die] |= 1 << req.bank;
                        powered[req.die] += 1;
                        powered_key += 1 << (4 * req.die);
                        act_for.insert((req.die, req.bank), req.id);
                        channels[ch].last_act = Some(cycle);
                        if standard {
                            channels[ch].acts.push_back(cycle);
                        }
                        activates += 1;
                        issued = true;
                        // Same masking argument as the read branch: the
                        // break below hides every later candidate, which may
                        // be immediately issuable (e.g. a row-hit read on
                        // another bank) with no timer to wake us.
                        if pos + 1 < order.len() {
                            changed = true;
                        }
                        last_progress_cycle = cycle;
                    }
                    if issued {
                        break;
                    }
                }
                issued_this_cycle |= issued;
            }
            if !queue.is_empty() && !issued_this_cycle {
                stall_cycles += 1;
            }

            // 6. Track the IR drop of the state we are in, at the I/O
            // activity actually measured over the sliding window. The
            // nibble-packed key equals the reference's per-die count vector
            // (with refreshing dies overridden to the interleave cap), and
            // the cached lookup reproduces its f64 inputs exactly.
            let mut eff_key = powered_key;
            if cycle < max_refreshing_until {
                for die in 0..cfg.dies {
                    if cycle < refreshing_until[die] {
                        eff_key = (eff_key & !(0xFu64 << (4 * die)))
                            | ((cfg.max_powered_per_die as u64) << (4 * die));
                    }
                }
            }
            let busy_max = activity.max_busy_int();
            if eff_key != 0 && last_tracked != Some((eff_key, busy_max)) {
                last_tracked = Some((eff_key, busy_max));
                if let Some(ir) = cache.state_ir_at_max(&self.lut, eff_key, busy_max) {
                    max_ir = max_ir.max(ir);
                }
            }

            queue_depth_sum += queue.len() as f64;
            cycle += 1;

            if cycle - last_progress_cycle > stall_horizon {
                return Err(self.stalled(
                    cycle,
                    completed,
                    eff_key,
                    busy_max,
                    queue.len(),
                    activity.window,
                ));
            }
            if completed >= n {
                break;
            }
            // A changed cycle forces `next == cycle` regardless of any
            // timer, so the candidate scan below would be pure overhead —
            // and under saturation most cycles are changed cycles.
            if changed {
                continue;
            }

            // Next interesting cycle: the earliest time any body step could
            // act differently from a verbatim no-op. Between here and
            // `next` the state is provably constant, so the skipped cycles
            // contribute only their (constant) queue-depth and stall
            // accounting.
            let mut next = u64::MAX;
            let mut upd = |c: u64| {
                if c >= cycle && c < next {
                    next = c;
                }
            };
            if next_arrival < requests.len() && queue.len() < cfg.queue_capacity {
                upd(requests[next_arrival].arrival.max(cycle));
            }
            // Only banks in `open | precharging` can owe a candidate: the
            // rest are settled Idle. Stored phases may be stale under lazy
            // ticking: an Activating bank whose tRCD already elapsed
            // behaves as Active (and its ready_at is in the past, which
            // `upd` would otherwise clamp to `cycle`, forcing a spurious
            // simulation of every cycle). A stale Precharging bank behaves
            // as Idle; its expired bit is dropped here.
            for die in 0..cfg.dies {
                let mut m = open_mask[die] | precharging_mask[die];
                while m != 0 {
                    let bk = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let b = &banks[die][bk];
                    match b.phase() {
                        BankPhase::Activating { ready_at, .. } if ready_at >= cycle => {
                            upd(ready_at);
                        }
                        BankPhase::Activating { .. } | BankPhase::Active { .. } => {
                            upd(b.ras_ready_at());
                            let last_use = b.last_use_at();
                            upd(last_use + idle_close);
                            upd(last_use + starve);
                            precharging_mask[die] &= !(1 << bk);
                        }
                        BankPhase::Precharging { idle_at } => {
                            if idle_at >= cycle {
                                upd(idle_at);
                            } else {
                                precharging_mask[die] &= !(1 << bk);
                            }
                        }
                        BankPhase::Idle => {
                            precharging_mask[die] &= !(1 << bk);
                        }
                    }
                }
            }
            for ch in channels.iter() {
                if let Some(last) = ch.last_read_cmd {
                    upd(last + spacing);
                }
                if standard {
                    if let Some(last) = ch.last_act {
                        upd(last + t.t_rrd as u64);
                    }
                    for &a in ch.acts.iter() {
                        upd(a + t.t_faw as u64);
                    }
                }
            }
            if t.t_refi > 0 {
                for die in 0..cfg.dies {
                    upd(refresh_due[die]);
                    upd(refreshing_until[die]);
                }
            }
            if let Some(expiry) = activity.next_expiry() {
                upd(expiry);
            }

            // Completions are scheduler-invisible — they touch only the
            // completion statistics, never the queue, banks, or admission
            // state — so any that fall before the next real event retire
            // inline here instead of waking the whole body for nothing.
            if !in_flight.is_empty() {
                let mut last_done = 0u64;
                let mut i = 0;
                while i < in_flight.len() {
                    let (done, req) = in_flight[i];
                    if done < next {
                        in_flight.swap_remove(i);
                        completed += 1;
                        latency_sum += (done - req.arrival) as f64;
                        last_data_end = last_data_end.max(done);
                        last_done = last_done.max(done);
                    } else {
                        i += 1;
                    }
                }
                if last_done > 0 {
                    last_progress_cycle = last_progress_cycle.max(last_done);
                    if completed >= n {
                        // The reference's final body ran at the last
                        // completion cycle, leaving its cycle counter (the
                        // avg-queue-depth denominator) one past it. The
                        // queue is empty here, so the intervening cycles
                        // accrue no depth or stall.
                        debug_assert!(queue.is_empty() && next_arrival == requests.len());
                        skipped_cycles += last_done + 1 - cycle;
                        cycle = last_done + 1;
                        continue;
                    }
                }
            }

            let horizon_cycle = last_progress_cycle + stall_horizon + 1;
            if horizon_cycle <= next {
                // The reference would step through identical no-op cycles
                // until its watchdog fires at exactly `horizon_cycle`.
                return Err(self.stalled(
                    horizon_cycle,
                    completed,
                    eff_key,
                    busy_max,
                    queue.len(),
                    activity.window,
                ));
            }
            if next > cycle {
                let gap = next - cycle;
                skipped_cycles += gap;
                queue_depth_sum += gap as f64 * queue.len() as f64;
                if !queue.is_empty() {
                    stall_cycles += gap;
                }
                cycle = next;
            }
        }

        let stats = accumulated_stats(
            t,
            refreshes,
            completed,
            last_data_end,
            activates,
            precharges,
            row_hits,
            latency_sum,
            queue_depth_sum,
            cycle,
            stall_cycles,
            max_ir,
        );
        {
            use pi3d_telemetry::{metrics, report};
            metrics::counter("memsim.runs").incr(1);
            metrics::counter("memsim.cycles").incr(stats.cycles);
            metrics::counter("memsim.completed").incr(stats.completed);
            metrics::counter("memsim.stall_cycles").incr(stats.stall_cycles);
            metrics::counter("memsim.events.simulated_cycles").incr(simulated_cycles);
            metrics::counter("memsim.events.skipped_cycles").incr(skipped_cycles);
            metrics::counter("memsim.admission_cache.hits").incr(cache.hits);
            metrics::counter("memsim.admission_cache.misses").incr(cache.misses);
            report::record_policy_stats(report::PolicyStatsRecord {
                label: format!("{}x{} requests", cfg.dies, n),
                policy: self.policy.name().to_string(),
                cycles: stats.cycles,
                completed: stats.completed,
                row_hit_rate: stats.row_hit_rate(),
                avg_queue_depth: stats.avg_queue_depth,
                stall_cycles: stats.stall_cycles,
                max_ir_mv: stats.max_ir.value(),
            });
            pi3d_telemetry::debug!(
                "memsim {} run: {} cycles ({} simulated, {} skipped), {} completed, \
                 {} stalls, max IR {:.1} mV",
                self.policy.name(),
                stats.cycles,
                simulated_cycles,
                skipped_cycles,
                stats.completed,
                stats.stall_cycles,
                stats.max_ir.value()
            );
        }
        Ok(stats)
    }

    /// Cached equivalent of the reference `read_allowed`: whether issuing
    /// a read to `die` keeps the IR-drop constraint met at the utilization
    /// the read produces (IR-aware policies only).
    fn read_allowed_cached(
        &self,
        cache: &mut AdmissionCache,
        powered_key: u64,
        activity: &ActivityWindow,
        die: usize,
    ) -> bool {
        let IrPolicy::IrAware { constraint } = self.policy.ir else {
            return true;
        };
        match cache.read_ir(
            &self.lut,
            powered_key,
            activity.busy_int(die),
            activity.max_busy_int(),
        ) {
            Some(ir) => ir.value() <= constraint.value() + 1e-9,
            None => false,
        }
    }

    /// Cached equivalent of the reference `activate_allowed`.
    #[allow(clippy::too_many_arguments)]
    fn activate_allowed_cached(
        &self,
        cache: &mut AdmissionCache,
        powered: &[u8],
        powered_key: u64,
        channel: &ChannelState,
        activity: &ActivityWindow,
        die: usize,
        cycle: u64,
    ) -> bool {
        // Charge-pump limit: at most N powered banks per die.
        if powered[die] as usize >= self.config.max_powered_per_die {
            return false;
        }
        match self.policy.ir {
            IrPolicy::Standard => {
                let t = &self.timing;
                if let Some(last) = channel.last_act {
                    if cycle < last + t.t_rrd as u64 {
                        return false;
                    }
                }
                let window_start = cycle.saturating_sub(t.t_faw as u64);
                let recent = channel.acts.iter().filter(|&&a| a > window_start).count();
                recent < 4
            }
            IrPolicy::IrAware { constraint } => {
                // The prospective state must meet the constraint at the
                // currently measured I/O activity (reads are gated
                // separately, so the activity cannot silently grow past
                // the cap afterwards).
                match cache.state_ir_at_max(
                    &self.lut,
                    powered_key + (1 << (4 * die)),
                    activity.max_busy_int(),
                ) {
                    Some(ir) => ir.value() <= constraint.value() + 1e-9,
                    None => false,
                }
            }
        }
    }

    /// Builds a [`SimulateError::Stalled`] from the packed step-6
    /// observables of the last executed cycle.
    fn stalled(
        &self,
        cycle: u64,
        completed: u64,
        eff_key: u64,
        busy_max: u64,
        queue_depth: usize,
        window: u64,
    ) -> SimulateError {
        let counts: Vec<u8> = (0..self.config.dies)
            .map(|d| ((eff_key >> (4 * d)) & 0xF) as u8)
            .collect();
        let io = (busy_max as f64 / window as f64).min(1.0);
        SimulateError::Stalled {
            cycle,
            completed,
            snapshot: self.stall_snapshot(counts, io, queue_depth),
        }
    }

    /// Diagnostic snapshot shared by both run loops: records the state the
    /// controller was pinned in and the cheapest activate the LUT offers
    /// from it, so over-tight constraints are explainable without a rerun.
    pub(crate) fn stall_snapshot(
        &self,
        per_die_powered: Vec<u8>,
        io_activity: f64,
        queue_depth: usize,
    ) -> Box<StallSnapshot> {
        let constraint_mv = match self.policy.ir {
            IrPolicy::IrAware { constraint } => Some(constraint.value()),
            IrPolicy::Standard => None,
        };
        let mut tightest: Option<StallLutEntry> = None;
        for die in 0..self.config.dies {
            if per_die_powered[die] as usize >= self.config.max_powered_per_die {
                continue;
            }
            let mut state = per_die_powered.clone();
            state[die] += 1;
            if let Some(ir) = self.lut.lookup(&state, io_activity) {
                if tightest.as_ref().is_none_or(|t| ir.value() < t.ir_mv) {
                    tightest = Some(StallLutEntry {
                        die,
                        state,
                        ir_mv: ir.value(),
                    });
                }
            }
        }
        Box::new(StallSnapshot {
            per_die_powered,
            queue_depth,
            io_activity,
            constraint_mv,
            tightest,
        })
    }
}

/// Folds the event loop's accumulators into a [`SimStats`]; shared by the
/// normal completion path and the budget/cancel exits so partial results
/// use exactly the completed run's arithmetic.
#[allow(clippy::too_many_arguments)]
fn accumulated_stats(
    t: &TimingParams,
    refreshes: u64,
    completed: u64,
    last_data_end: u64,
    activates: u64,
    precharges: u64,
    row_hits: u64,
    latency_sum: f64,
    queue_depth_sum: f64,
    cycle: u64,
    stall_cycles: u64,
    max_ir: MilliVolts,
) -> SimStats {
    let cycles = last_data_end.max(1);
    SimStats {
        refreshes,
        cycles,
        runtime_us: t.cycles_to_us(cycles),
        completed,
        bandwidth_reads_per_clk: completed as f64 / cycles as f64,
        max_ir,
        activates,
        precharges,
        row_hits,
        avg_latency_cycles: if completed > 0 {
            latency_sum / completed as f64
        } else {
            0.0
        },
        avg_queue_depth: queue_depth_sum / cycle as f64,
        stall_cycles,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::request::WorkloadSpec;

    /// A synthetic LUT shaped like the real platform's: IR grows with the
    /// per-die bank count and shrinks when activity spreads across dies.
    fn synthetic_lut(dies: usize) -> IrDropLut {
        let mut lut = IrDropLut::new(dies);
        let states = all_states(dies, 2);
        for s in &states {
            for &act in &[0.25f64, 0.5, 1.0] {
                let worst = *s.iter().max().expect("nonempty") as f64;
                let total: u8 = s.iter().sum();
                // Imbalanced, high-activity states hurt the most.
                let ir = 6.0 + 9.0 * worst * (0.4 + 0.6 * act) + 1.2 * total as f64;
                lut.insert(s, act, MilliVolts(ir));
            }
        }
        lut
    }

    fn all_states(dies: usize, max: u8) -> Vec<Vec<u8>> {
        let mut states = vec![vec![]];
        for _ in 0..dies {
            states = states
                .into_iter()
                .flat_map(|s| {
                    (0..=max).map(move |c| {
                        let mut s = s.clone();
                        s.push(c);
                        s
                    })
                })
                .collect();
        }
        states
    }

    fn small_workload(count: usize) -> Vec<crate::ReadRequest> {
        let mut spec = WorkloadSpec::paper_ddr3();
        spec.count = count;
        spec.generate()
    }

    fn sim(policy: ReadPolicy) -> MemorySimulator {
        MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            policy,
            synthetic_lut(4),
        )
    }

    #[test]
    fn all_requests_complete_under_every_policy() {
        let reqs = small_workload(500);
        for policy in [
            ReadPolicy::standard(),
            ReadPolicy::ir_aware_fcfs(MilliVolts(40.0)),
            ReadPolicy::ir_aware_distr(MilliVolts(40.0)),
        ] {
            let stats = sim(policy).run(&reqs).expect("completes");
            assert_eq!(stats.completed, 500, "{}", policy.name());
            assert!(stats.bandwidth_reads_per_clk > 0.0);
            assert!(stats.runtime_us > 0.0);
        }
    }

    #[test]
    fn ir_aware_never_exceeds_its_constraint() {
        let reqs = small_workload(800);
        let constraint = MilliVolts(26.0);
        let stats = sim(ReadPolicy::ir_aware_fcfs(constraint))
            .run(&reqs)
            .unwrap();
        assert!(
            stats.max_ir.value() <= constraint.value() + 1e-9,
            "max IR {} exceeded constraint {}",
            stats.max_ir,
            constraint
        );
    }

    #[test]
    fn distr_spreads_and_beats_fcfs_under_tight_constraint() {
        let reqs = small_workload(2000);
        let c = MilliVolts(28.0);
        let fcfs = sim(ReadPolicy::ir_aware_fcfs(c)).run(&reqs).unwrap();
        let distr = sim(ReadPolicy::ir_aware_distr(c)).run(&reqs).unwrap();
        assert!(
            distr.runtime_us <= fcfs.runtime_us * 1.02,
            "DistR {} vs FCFS {}",
            distr.runtime_us,
            fcfs.runtime_us
        );
    }

    #[test]
    fn impossible_constraint_reports_stall() {
        let reqs = small_workload(50);
        // Below the IR of any single-bank state: nothing can ever activate.
        let err = sim(ReadPolicy::ir_aware_fcfs(MilliVolts(1.0)))
            .run(&reqs)
            .unwrap_err();
        assert!(matches!(err, SimulateError::Stalled { completed: 0, .. }));
    }

    #[test]
    fn stall_snapshot_reports_tightest_state() {
        let reqs = small_workload(50);
        let err = sim(ReadPolicy::ir_aware_fcfs(MilliVolts(1.0)))
            .run(&reqs)
            .unwrap_err();
        let SimulateError::Stalled { snapshot, .. } = err else {
            panic!("expected Stalled, got {err:?}");
        };
        assert_eq!(snapshot.constraint_mv, Some(1.0));
        assert_eq!(snapshot.per_die_powered, vec![0; 4]);
        assert!(snapshot.queue_depth > 0, "queued work was blocked");
        let tightest = snapshot.tightest.expect("LUT offers a next activate");
        assert!(
            tightest.ir_mv > 1.0,
            "cheapest activate ({:.2} mV) must violate the 1 mV constraint",
            tightest.ir_mv
        );
        assert_eq!(tightest.state.iter().sum::<u8>(), 1, "one-activate state");
    }

    #[test]
    fn cycle_budget_exceeded_carries_partial_stats() {
        let reqs = small_workload(2000);
        // Measure the unconstrained run, then allow only half its cycles.
        let full = sim(ReadPolicy::standard()).run(&reqs).expect("completes");
        let mut config = SimConfig::paper_ddr3();
        config.max_cycles = full.cycles / 2;
        let err = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            config.clone(),
            ReadPolicy::standard(),
            synthetic_lut(4),
        )
        .run(&reqs)
        .expect_err("budget must fire");
        let SimulateError::CycleBudgetExceeded {
            cycle,
            completed,
            max_cycles,
            partial,
        } = err
        else {
            panic!("expected CycleBudgetExceeded, got {err:?}");
        };
        assert_eq!(max_cycles, config.max_cycles);
        assert!(cycle >= max_cycles);
        assert!(completed > 0 && completed < 2000, "completed {completed}");
        assert_eq!(partial.completed, completed);
        assert!(partial.activates > 0);
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_immediately() {
        let reqs = small_workload(500);
        let token = pi3d_telemetry::CancelToken::new();
        token.cancel();
        let err = sim(ReadPolicy::standard())
            .with_cancel(token)
            .run(&reqs)
            .expect_err("cancel must fire");
        let SimulateError::Cancelled {
            completed, partial, ..
        } = err
        else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert_eq!(completed, 0);
        assert_eq!(partial.completed, 0);
    }

    #[test]
    fn unset_budget_and_token_leave_stats_bit_identical() {
        // The robustness hooks must be observationally free when unused.
        let reqs = small_workload(800);
        let plain = sim(ReadPolicy::ir_aware_distr(MilliVolts(40.0)))
            .run(&reqs)
            .expect("completes");
        let hooked = sim(ReadPolicy::ir_aware_distr(MilliVolts(40.0)))
            .with_cancel(pi3d_telemetry::CancelToken::new())
            .run(&reqs)
            .expect("completes");
        assert_eq!(plain, hooked);
    }

    #[test]
    fn row_hit_rate_is_high_for_local_workload() {
        let reqs = small_workload(1000);
        let stats = sim(ReadPolicy::standard()).run(&reqs).unwrap();
        // The workload generator's 80% row-hit rate is a per-bank
        // property; the *served* hit rate is much lower because
        // interleaving and auto-close break up runs (the paper's heavy
        // workload behaves the same: its standard policy is
        // activate-throttled).
        assert!(
            (0.05..0.6).contains(&stats.row_hit_rate()),
            "row hit rate {}",
            stats.row_hit_rate()
        );
        assert!(stats.activates > 0 && stats.precharges > 0);
    }

    #[test]
    fn standard_policy_respects_faw() {
        // With tFAW 32 the controller may not issue more than 4 activates
        // in any 32-cycle window; over the whole run the activate count is
        // bounded by cycles / tRRD anyway, but the key observable is that
        // the run completes with sensible stats.
        let reqs = small_workload(300);
        let stats = sim(ReadPolicy::standard()).run(&reqs).unwrap();
        assert!(stats.activates as f64 / stats.cycles as f64 <= 4.0 / 32.0 + 0.01);
    }

    #[test]
    fn refresh_extension_slows_the_run_but_completes() {
        let reqs = small_workload(2000);
        let base = sim(ReadPolicy::standard()).run(&reqs).unwrap();
        let refreshing = MemorySimulator::new(
            TimingParams::ddr3_1600_with_refresh(),
            SimConfig::paper_ddr3(),
            ReadPolicy::standard(),
            synthetic_lut(4),
        )
        .run(&reqs)
        .unwrap();
        assert_eq!(refreshing.completed, 2000);
        assert!(refreshing.refreshes > 0, "no refreshes happened");
        assert!(
            refreshing.runtime_us >= base.runtime_us,
            "refresh made the run faster: {} vs {}",
            refreshing.runtime_us,
            base.runtime_us
        );
        assert_eq!(base.refreshes, 0);
        // Roughly one refresh per die per tREFI window.
        let windows = refreshing.cycles / TimingParams::ddr3_1600_with_refresh().t_refi as u64;
        assert!(
            refreshing.refreshes >= windows.saturating_sub(1) * 4 / 2,
            "refreshes {} for {windows} windows",
            refreshing.refreshes
        );
    }

    #[test]
    fn queue_depth_is_bounded_by_capacity() {
        let reqs = small_workload(500);
        let stats = sim(ReadPolicy::standard()).run(&reqs).unwrap();
        assert!(stats.avg_queue_depth <= 32.0);
    }

    #[test]
    fn latency_exceeds_minimum_pipeline_depth() {
        let reqs = small_workload(200);
        let t = TimingParams::ddr3_1600();
        let stats = sim(ReadPolicy::standard()).run(&reqs).unwrap();
        assert!(stats.avg_latency_cycles >= (t.t_cl + t.data_cycles()) as f64);
    }
}
