//! The original per-cycle stepper, kept verbatim as the correctness
//! oracle for the event-driven loop in [`MemorySimulator::run`].
//!
//! This module must stay behaviorally frozen: the equivalence test
//! (`tests/equivalence.rs`) pins `run()` to produce [`SimStats`]
//! bit-identical to [`MemorySimulator::run_reference`] across policies,
//! seeds, timings, and constraint levels. Any scheduling change must land
//! in *both* loops, deliberately.

use crate::bank::Bank;
use crate::controller::{ActivityWindow, ChannelState, MemorySimulator, SimulateError};
use crate::policy::{IrPolicy, SchedulingPolicy};
use crate::request::ReadRequest;
use crate::stats::SimStats;
use pi3d_layout::units::MilliVolts;
use std::collections::{HashMap, VecDeque};

impl MemorySimulator {
    /// Runs the request stream through the plain per-cycle stepper.
    ///
    /// Semantics are identical to [`MemorySimulator::run`] — that is the
    /// point: this is the straightforward one-cycle-at-a-time formulation
    /// the event-driven loop is validated against. It is kept `pub` for
    /// its two callers, the integration tests
    /// `crates/memsim/tests/equivalence.rs` and `tests/end_to_end.rs`;
    /// production callers should use `run()`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError::Stalled`] if no forward progress is
    /// possible (an over-tight IR constraint).
    pub fn run_reference(&self, requests: &[ReadRequest]) -> Result<SimStats, SimulateError> {
        let t = self.timing();
        let cfg = &self.config;
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

        // Generous stall horizon: the longest legal gap between command
        // issues is bounded by a few row cycles.
        let stall_horizon = t.stall_horizon();

        while completed < n {
            activity.prune(cycle);
            // 1. Advance bank state machines.
            for die in banks.iter_mut() {
                for b in die.iter_mut() {
                    b.tick(cycle);
                }
            }

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
                        && banks[die].iter().all(|b| b.can_activate())
                    {
                        refreshing_until[die] = cycle + t.t_rfc as u64;
                        refresh_due[die] = cycle + t.t_refi as u64;
                        refreshes += 1;
                        last_progress_cycle = cycle;
                    }
                }
            }

            // 4. IR-drop-motivated auto-close of banks nobody wants.
            for die in 0..cfg.dies {
                for bk in 0..cfg.banks_per_die {
                    let bank = &banks[die][bk];
                    if let Some(open) = bank.open_row() {
                        let wanted = queue
                            .iter()
                            .any(|r| r.die == die && r.bank == bk && r.row == open);
                        // A row nobody wants closes after `idle_close`; a
                        // wanted row still closes after a long starvation
                        // period so a narrow reorder window cannot pin the
                        // die's bank budget forever.
                        let idle = bank.idle_for(cycle);
                        let expired = (!wanted && idle >= t.idle_close as u64)
                            || idle >= (8 * t.idle_close).max(t.t_ras) as u64;
                        if expired && bank.can_precharge(cycle) {
                            banks[die][bk].precharge(cycle, t.t_rp);
                            precharges += 1;
                        }
                    }
                }
            }

            // 5. Issue at most one command per channel.
            let mut issued_this_cycle = false;
            for ch in 0..cfg.channels {
                let mut order: Vec<usize> = (0..queue.len())
                    .filter(|&i| queue[i].channel == ch)
                    .collect();
                match self.policy.scheduling {
                    SchedulingPolicy::Fcfs => order.sort_by_key(|&i| queue[i].id),
                    SchedulingPolicy::DistributedRead => order.sort_by_key(|&i| {
                        let die = queue[i].die;
                        let powered = banks[die].iter().filter(|b| b.is_powered()).count();
                        (powered, queue[i].id)
                    }),
                }
                order.truncate(self.policy.reorder_window());

                let mut issued = false;
                for &qi in &order {
                    let req = queue[qi];
                    if cycle < refreshing_until[req.die] {
                        continue; // die busy refreshing
                    }
                    let refresh_pending = t.t_refi > 0 && cycle >= refresh_due[req.die];
                    let bank = &banks[req.die][req.bank];
                    if bank.can_read(req.row) {
                        // Data-bus spacing: tCCD and burst occupancy.
                        let spacing = t.t_ccd.max(t.data_cycles()) as u64;
                        let ok = channels[ch]
                            .last_read_cmd
                            .is_none_or(|last| cycle >= last + spacing)
                            && self.read_allowed(&banks, &activity, req.die);
                        if ok {
                            banks[req.die][req.bank].read(cycle, req.row);
                            activity.record(cycle, req.die, t.data_cycles());
                            channels[ch].last_read_cmd = Some(cycle);
                            let done = cycle + t.t_cl as u64 + t.data_cycles() as u64;
                            if act_for.get(&(req.die, req.bank)) != Some(&req.id) {
                                row_hits += 1;
                            }
                            in_flight.push((done, req));
                            queue.swap_remove(qi);
                            issued = true;
                            last_progress_cycle = cycle;
                        }
                    } else if bank.open_row().is_some() && bank.open_row() != Some(req.row) {
                        if banks[req.die][req.bank].can_precharge(cycle) {
                            banks[req.die][req.bank].precharge(cycle, t.t_rp);
                            precharges += 1;
                            issued = true;
                            last_progress_cycle = cycle;
                        }
                    } else if bank.can_activate()
                        && !refresh_pending
                        && self.activate_allowed(&banks, &channels[ch], &activity, req.die, cycle)
                    {
                        banks[req.die][req.bank].activate(cycle, req.row, t.t_rcd, t.t_ras);
                        act_for.insert((req.die, req.bank), req.id);
                        channels[ch].last_act = Some(cycle);
                        channels[ch].acts.push_back(cycle);
                        activates += 1;
                        issued = true;
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
            // activity actually measured over the sliding window.
            let counts: Vec<u8> = banks
                .iter()
                .enumerate()
                .map(|(die, bs)| {
                    if cycle < refreshing_until[die] {
                        // All-bank refresh powers every bank; the LUT is
                        // capped at the interleave limit.
                        cfg.max_powered_per_die as u8
                    } else {
                        bs.iter().filter(|b| b.is_powered()).count() as u8
                    }
                })
                .collect();
            if counts.iter().any(|&c| c > 0) {
                if let Some(ir) = self
                    .lut
                    .lookup(&counts, activity.max_utilization().min(1.0))
                {
                    max_ir = max_ir.max(ir);
                }
            }

            queue_depth_sum += queue.len() as f64;
            cycle += 1;

            if cycle - last_progress_cycle > stall_horizon {
                let io = activity.max_utilization().min(1.0);
                return Err(SimulateError::Stalled {
                    cycle,
                    completed,
                    snapshot: self.stall_snapshot(counts, io, queue.len()),
                });
            }
        }

        let cycles = last_data_end.max(1);
        Ok(SimStats {
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
        })
    }

    /// Whether issuing a read to `die` keeps the IR-drop constraint met at
    /// the utilization the read produces (IR-aware policies only; the
    /// standard policy never throttles reads).
    fn read_allowed(&self, banks: &[Vec<Bank>], activity: &ActivityWindow, die: usize) -> bool {
        let IrPolicy::IrAware { constraint } = self.policy.ir else {
            return true;
        };
        let counts: Vec<u8> = banks
            .iter()
            .map(|d| d.iter().filter(|b| b.is_powered()).count() as u8)
            .collect();
        let prospective = (activity.die_utilization(die)
            + self.timing.data_cycles() as f64 / activity.window as f64)
            .max(activity.max_utilization())
            .min(1.0);
        match self.lut.lookup(&counts, prospective) {
            Some(ir) => ir.value() <= constraint.value() + 1e-9,
            None => false,
        }
    }

    /// Whether an activate on `die` is allowed this cycle under the policy.
    fn activate_allowed(
        &self,
        banks: &[Vec<Bank>],
        channel: &ChannelState,
        activity: &ActivityWindow,
        die: usize,
        cycle: u64,
    ) -> bool {
        // Charge-pump limit: at most N powered banks per die.
        let powered = banks[die].iter().filter(|b| b.is_powered()).count();
        if powered >= self.config.max_powered_per_die {
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
                let mut counts: Vec<u8> = banks
                    .iter()
                    .map(|d| d.iter().filter(|b| b.is_powered()).count() as u8)
                    .collect();
                counts[die] += 1;
                // The prospective state must meet the constraint at the
                // currently measured I/O activity (reads are gated
                // separately, so the activity cannot silently grow past
                // the cap afterwards).
                match self
                    .lut
                    .lookup(&counts, activity.max_utilization().min(1.0))
                {
                    Some(ir) => ir.value() <= constraint.value() + 1e-9,
                    None => false,
                }
            }
        }
    }
}
