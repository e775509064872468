//! Bit-identity pin between the event-driven scheduler and the per-cycle
//! reference stepper.
//!
//! `MemorySimulator::run` skips from event to event and memoizes LUT
//! admission checks; `run_reference` steps one cycle at a time with no
//! caching. Both must produce *bit-identical* [`SimStats`] — including the
//! f64 fields (`avg_queue_depth`, `avg_latency_cycles`, `max_ir`) — for
//! every policy, seed, timing preset, and constraint level, and identical
//! `Stalled` errors (snapshot included) when the constraint admits no
//! state. Random cases come from the seeded [`SplitMix64`] generator so
//! every failure is reproducible from the printed case index.

use pi3d_layout::units::MilliVolts;
use pi3d_memsim::{
    IrDropLut, MemorySimulator, ReadPolicy, SimConfig, SimulateError, TimingParams, WorkloadSpec,
};
use pi3d_telemetry::rng::SplitMix64;

/// A LUT shaped like the real platform's: higher per-die counts and higher
/// activity raise the drop; spreading helps.
fn synthetic_lut(dies: usize) -> IrDropLut {
    let mut lut = IrDropLut::new(dies);
    let mut states = vec![vec![]];
    for _ in 0..dies {
        states = states
            .into_iter()
            .flat_map(|s: Vec<u8>| {
                (0..=2u8).map(move |c| {
                    let mut s = s.clone();
                    s.push(c);
                    s
                })
            })
            .collect();
    }
    for s in &states {
        for &act in &[0.1f64, 0.25, 0.5, 1.0] {
            let worst = *s.iter().max().expect("nonempty") as f64;
            let total: u8 = s.iter().sum();
            let ir = 5.0 + 9.0 * worst * (0.3 + 0.7 * act) + 1.0 * total as f64;
            lut.insert(s, act, MilliVolts(ir));
        }
    }
    lut
}

fn workload(count: usize, seed: u64, interval: u64) -> Vec<pi3d_memsim::ReadRequest> {
    let mut spec = WorkloadSpec::paper_ddr3();
    spec.count = count;
    spec.seed = seed;
    spec.arrival_interval = interval;
    spec.generate()
}

fn policies(constraint: MilliVolts) -> [ReadPolicy; 3] {
    [
        ReadPolicy::standard(),
        ReadPolicy::ir_aware_fcfs(constraint),
        ReadPolicy::ir_aware_distr(constraint),
    ]
}

fn assert_equivalent(sim: &MemorySimulator, reqs: &[pi3d_memsim::ReadRequest], label: &str) {
    let event = sim.run(reqs);
    let reference = sim.run_reference(reqs);
    assert_eq!(
        event, reference,
        "{label}: event loop diverged from stepper"
    );
}

/// The pin the acceptance criteria name: all three policies, several
/// seeds and arrival intervals, the no-refresh DDR3 preset.
#[test]
fn event_loop_matches_reference_across_policies_and_seeds() {
    let mut rng = SplitMix64::new(0x3e35_00e1);
    for case in 0..18u64 {
        let count = rng.range(100, 600) as usize;
        let seed = rng.next_u64();
        let interval = rng.range(2, 14);
        let reqs = workload(count, seed, interval);
        for policy in policies(MilliVolts(30.0)) {
            let sim = MemorySimulator::new(
                TimingParams::ddr3_1600(),
                SimConfig::paper_ddr3(),
                policy,
                synthetic_lut(4),
            );
            assert_equivalent(
                &sim,
                &reqs,
                &format!("case {case} ({}, interval {interval})", policy.name()),
            );
        }
    }
}

/// Constraint levels from comfortably loose down to throttling-heavy:
/// tight caps exercise the stall-accounting and read-bubble paths where
/// skipped-cycle bookkeeping must match the stepper exactly.
#[test]
fn event_loop_matches_reference_across_constraint_levels() {
    for &cap in &[40.0, 30.0, 27.0, 25.5, 24.5] {
        let reqs = workload(400, 0x00c0_ffee, 4);
        for policy in policies(MilliVolts(cap))[1..].iter() {
            let sim = MemorySimulator::new(
                TimingParams::ddr3_1600(),
                SimConfig::paper_ddr3(),
                *policy,
                synthetic_lut(4),
            );
            assert_equivalent(&sim, &reqs, &format!("cap {cap} ({})", policy.name()));
        }
    }
}

/// Refresh enables the tREFI/tRFC event sources and the per-die LUT-count
/// override while refreshing; both loops must agree there too.
#[test]
fn event_loop_matches_reference_with_refresh() {
    let mut rng = SplitMix64::new(0x3e35_00e2);
    for case in 0..6u64 {
        let count = rng.range(300, 1200) as usize;
        let seed = rng.next_u64();
        let reqs = workload(count, seed, 5);
        for policy in policies(MilliVolts(32.0)) {
            let sim = MemorySimulator::new(
                TimingParams::ddr3_1600_with_refresh(),
                SimConfig::paper_ddr3(),
                policy,
                synthetic_lut(4),
            );
            assert_equivalent(
                &sim,
                &reqs,
                &format!("refresh case {case} ({})", policy.name()),
            );
        }
    }
}

/// Other timing presets flex every derived event offset (tFAW window,
/// burst occupancy, idle-close thresholds, stall horizon). Each runs on
/// the one-channel DDR3 stack, where its tFAW and tRRD bind on a dense
/// single queue, and at its platform's own channel and bank counts
/// (Wide I/O 4 × 16, HMC 16 × 32), so the per-channel candidate lists,
/// the admission memos shared across channels and the reads removed
/// after the channel loop are checked against the stepper too.
#[test]
fn event_loop_matches_reference_on_other_timing_presets() {
    let presets = [
        ("wide_io_200", TimingParams::wide_io_200(), 4, 16),
        ("hmc_2500", TimingParams::hmc_2500(), 16, 32),
    ];
    for (name, timing, _, _) in presets {
        let reqs = workload(500, 0x5eed_0001, 6);
        for policy in policies(MilliVolts(30.0)) {
            let sim =
                MemorySimulator::new(timing, SimConfig::paper_ddr3(), policy, synthetic_lut(4));
            assert_equivalent(&sim, &reqs, &format!("{name} ({})", policy.name()));
        }
    }
    for (name, timing, channels, banks_per_die) in presets {
        let config = SimConfig {
            channels,
            banks_per_die,
            ..SimConfig::paper_ddr3()
        };
        for seed in [0x5eed_0001, 0x5eed_0011, 0x5eed_0021] {
            let mut spec = WorkloadSpec::paper_ddr3();
            spec.count = 500;
            spec.seed = seed;
            spec.arrival_interval = 3;
            spec.channels = channels;
            spec.banks_per_die = banks_per_die;
            let reqs = spec.generate();
            for cap in [30.0, 26.0] {
                for policy in policies(MilliVolts(cap)) {
                    let sim =
                        MemorySimulator::new(timing, config.clone(), policy, synthetic_lut(4));
                    assert_equivalent(
                        &sim,
                        &reqs,
                        &format!("{name} seed {seed:#x} cap {cap} ({})", policy.name()),
                    );
                }
            }
        }
    }
}

/// An impossible constraint must stall identically: same cycle, same
/// completed count, and the same diagnostic snapshot.
#[test]
fn stalled_errors_are_identical() {
    let reqs = workload(50, 0x5eed_0002, 5);
    for policy in [
        ReadPolicy::ir_aware_fcfs(MilliVolts(1.0)),
        ReadPolicy::ir_aware_distr(MilliVolts(1.0)),
    ] {
        let sim = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            policy,
            synthetic_lut(4),
        );
        let event = sim.run(&reqs).expect_err("must stall");
        let reference = sim.run_reference(&reqs).expect_err("must stall");
        assert_eq!(event, reference, "{}", policy.name());
        let SimulateError::Stalled { snapshot, .. } = event else {
            panic!("unexpected error variant for {}", policy.name());
        };
        assert_eq!(snapshot.constraint_mv, Some(1.0), "{}", policy.name());
    }
}

/// A constraint tight enough to stall *mid-run* (after some completions)
/// exercises the jump-over-the-horizon stall path with non-trivial state.
#[test]
fn midrun_stalls_are_identical() {
    // A LUT whose two-bank states are all forbidden (no entry) forces a
    // stall once the workload needs a second bank on some die while the
    // first stays wanted.
    let mut lut = IrDropLut::new(4);
    for die in 0..4usize {
        let mut s = vec![0u8; 4];
        s[die] = 1;
        for &act in &[0.1f64, 0.5, 1.0] {
            lut.insert(&s, act, MilliVolts(10.0));
        }
    }
    let reqs = workload(300, 0x5eed_0003, 3);
    for scheduling in [
        ReadPolicy::ir_aware_fcfs(MilliVolts(20.0)),
        ReadPolicy::ir_aware_distr(MilliVolts(20.0)),
    ] {
        let sim = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            scheduling,
            lut.clone(),
        );
        let event = sim.run(&reqs);
        let reference = sim.run_reference(&reqs);
        assert_eq!(event, reference, "{}", scheduling.name());
    }
}
