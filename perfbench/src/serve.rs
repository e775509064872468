//! `serve-mixed`: a real `pi3d serve` daemon (default mesh, one worker,
//! one thread) answering one client over one connection, one request in
//! flight. The seeded mix is warm `simulate` and `solve` requests on four
//! hot designs (one per benchmark) and cold `simulate` requests on designs
//! the LRU has just evicted; see [`crate::seq::serve_mix`].

use crate::daemon::Daemon;
use crate::golden::{Checker, Golden, Val};
use crate::layers::{overhead_pct, precond_setup};
use crate::report::Report;
use crate::seq::{
    cache_budget, segment_len, serve_mix, touches, Artifact, CacheCounts, LruModel, MixShape,
    ServeOp,
};
use crate::stats::{closed_loop, median, peak_rss_mb, rank, MIN_OPS_FOR_P90};
use crate::trace::Tracer;
use crate::{counter, share, RunArgs, MIN_TRACED_OPS};
use pi3d_core::serve::{f64_from_json, u64_from_json, ServeOptions, ServeState};
use pi3d_core::{build_ir_lut_from_mesh, config};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, DieState, MemoryState};
use pi3d_memsim::{IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_telemetry::Json;
use std::time::Instant;

/// Reads per `simulate` request: the paper's 10,000.
const READS: f64 = 10_000.0;
const POLICIES: [&str; 3] = ["standard", "fcfs", "distr"];
/// Cold designs: ddr3-on variants that differ only in metal usage, so
/// every cold cache entry has the same size.
const COLD_BENCH: &str = "ddr3-on";
const COLD_USAGE: [(f64, f64); 9] = [
    (0.10, 0.10),
    (0.10, 0.30),
    (0.15, 0.10),
    (0.15, 0.30),
    (0.20, 0.10),
    (0.20, 0.30),
    (0.12, 0.25),
    (0.18, 0.25),
    // Used only by the set-up's warm-up request.
    (0.13, 0.13),
];
const WARMUP_COLD: usize = COLD_USAGE.len() - 1;

/// Set-ups per run. Fewer than the other workloads: each one spawns and
/// primes a daemon (over a second), which already averages out more noise.
const SETUP_REPEATS: usize = 3;

const SHAPE: MixShape = MixShape {
    hot: 4,
    policies: POLICIES.len(),
    constraints: 2,
    states: 4,
    cold: COLD_USAGE.len() - 1,
};

/// Ops after which the mix has sent every cold config once: a timed run
/// covers whole cycles, so each cold config is timed equally often.
const CYCLE: usize = SHAPE.cold * segment_len(&SHAPE);

pub fn bench_id(b: Benchmark) -> &'static str {
    match b {
        Benchmark::StackedDdr3OffChip => "ddr3-off",
        Benchmark::StackedDdr3OnChip => "ddr3-on",
        Benchmark::WideIo => "wideio",
        Benchmark::Hmc => "hmc",
    }
}

fn hot_config(hot: usize) -> String {
    format!("benchmark = {}\n", bench_id(Benchmark::ALL[hot]))
}

fn cold_config(cold: usize) -> String {
    let (m2, m3) = COLD_USAGE[cold];
    format!("benchmark = {COLD_BENCH}\nm2_usage = {m2}\nm3_usage = {m3}\n")
}

/// IR constraints (mV) of the IR-aware policies; each admits every hot
/// design's single-bank states at the default mesh.
const CONSTRAINTS: [f64; 2] = [30.0, 40.0];

const COLD_CONSTRAINT: f64 = 40.0;

fn solve_state(hot: usize, index: usize) -> MemoryState {
    let dies = Benchmark::ALL[hot].spec().dram_dies;
    let idle = MemoryState::idle(dies);
    match index {
        0 => idle.with_die(dies - 1, DieState::active(1)),
        1 => idle.with_die(dies - 1, DieState::active(2)),
        2 => idle.with_die(0, DieState::active(2)),
        _ => idle
            .with_die(0, DieState::active(1))
            .with_die(dies - 1, DieState::active(1)),
    }
}

/// The golden key and request document of one op.
fn request(op: ServeOp, id: u64) -> (String, Json) {
    let simulate = |config: String, policy: &str, constraint: f64| {
        Json::obj([
            ("cmd", Json::str("simulate")),
            ("id", Json::num(id as f64)),
            ("config", Json::str(config)),
            ("policy", Json::str(policy)),
            ("constraint", Json::num(constraint)),
            ("reads", Json::num(READS)),
        ])
    };
    match op {
        ServeOp::WarmSimulate {
            hot,
            policy,
            constraint: c,
        } => (
            format!(
                "serve/sim/{}/{}/{c}",
                bench_id(Benchmark::ALL[hot]),
                POLICIES[policy]
            ),
            simulate(hot_config(hot), POLICIES[policy], CONSTRAINTS[c]),
        ),
        ServeOp::WarmSolve { hot, state } => (
            format!("serve/solve/{}/{state}", bench_id(Benchmark::ALL[hot])),
            solve_request(hot_config(hot), &solve_state(hot, state), id),
        ),
        ServeOp::ColdSimulate { cold } => (
            format!("serve/cold/{cold}"),
            simulate(cold_config(cold), "distr", COLD_CONSTRAINT),
        ),
    }
}

/// The answer fields of a response: exact counts and floats.
fn answer(op: ServeOp, response: &Json) -> Result<Vec<Val>, String> {
    let outcome = response.get("outcome").ok_or("response without outcome")?;
    if outcome.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("request failed: {}", outcome.to_compact_string()));
    }
    let result = response.get("result").ok_or("response without result")?;
    let int = |k: &str| result.get(k).and_then(u64_from_json).map(Val::I);
    let float = |k: &str| result.get(k).and_then(f64_from_json).map(Val::F);
    let vals: Option<Vec<Val>> = match op {
        ServeOp::WarmSolve { .. } => {
            let mut v: Option<Vec<Val>> = ["max_dram_mv", "max_logic_mv", "cost"]
                .iter()
                .map(|k| float(k))
                .collect();
            let per_die = result.get("per_die_mv").and_then(Json::as_arr);
            if let (Some(v), Some(dies)) = (v.as_mut(), per_die) {
                v.extend(dies.iter().filter_map(f64_from_json).map(Val::F));
            }
            v
        }
        _ => [
            "cycles",
            "completed",
            "refreshes",
            "activates",
            "precharges",
            "row_hits",
            "stall_cycles",
        ]
        .iter()
        .map(|k| int(k))
        .chain(
            [
                "runtime_us",
                "bandwidth_reads_per_clk",
                "max_ir_mv",
                "avg_latency_cycles",
                "avg_queue_depth",
            ]
            .iter()
            .map(|k| float(k)),
        )
        .collect(),
    };
    vals.ok_or_else(|| format!("malformed result: {}", result.to_compact_string()))
}

fn solve_request(config: String, state: &MemoryState, id: u64) -> Json {
    Json::obj([
        ("cmd", Json::str("solve")),
        ("id", Json::num(id as f64)),
        ("config", Json::str(config)),
        ("state", Json::str(state.to_string())),
        ("activity", Json::num(1.0)),
    ])
}

fn engine(cache_bytes: usize) -> ServeState {
    ServeState::new(ServeOptions {
        mesh: MeshOptions::default(),
        cache_bytes,
        ..ServeOptions::default()
    })
}

/// Requests the set-up sends before timing: one warm `simulate` per hot
/// design (the hot set), then an untimed warm-up `solve` and a cold
/// `simulate` of a config the mix never uses.
fn prime_ops() -> Vec<ServeOp> {
    let mut ops: Vec<ServeOp> = (0..SHAPE.hot)
        .map(|hot| ServeOp::WarmSimulate {
            hot,
            policy: 2,
            constraint: 0,
        })
        .collect();
    ops.push(ServeOp::WarmSolve { hot: 0, state: 0 });
    ops.push(ServeOp::ColdSimulate { cold: WARMUP_COLD });
    ops
}

/// Cache entry sizes, as the engine accounts them.
#[derive(Clone)]
struct Sizes {
    hot_design: [usize; 4],
    hot_lut: [usize; 4],
    cold_design: usize,
    cold_lut: usize,
}

impl Sizes {
    /// Measured in-process: build each artifact once in an engine with an
    /// unbounded budget and read the byte count it adds.
    fn measure() -> Result<Sizes, String> {
        let state = engine(usize::MAX / 4);
        let mut last = 0;
        let mut step = |op: ServeOp, req: &Json| -> Result<usize, String> {
            answer(op, &state.handle_request(req))?;
            let bytes = state.cache_stats().bytes;
            let added = bytes - last;
            last = bytes;
            Ok(added)
        };
        let req = |op| request(op, 0).1;
        let mut sizes = Sizes {
            hot_design: [0; 4],
            hot_lut: [0; 4],
            cold_design: 0,
            cold_lut: 0,
        };
        for hot in 0..SHAPE.hot {
            // A solve builds only the design entry; a simulate then adds the LUT.
            let solve = ServeOp::WarmSolve { hot, state: 0 };
            sizes.hot_design[hot] = step(solve, &req(solve))?;
            let sim = ServeOp::WarmSimulate {
                hot,
                policy: 2,
                constraint: 0,
            };
            sizes.hot_lut[hot] = step(sim, &req(sim))?;
        }
        let cold_solve = solve_request(cold_config(WARMUP_COLD), &solve_state(1, 0), 0);
        sizes.cold_design = step(ServeOp::WarmSolve { hot: 1, state: 0 }, &cold_solve)?;
        let sim = ServeOp::ColdSimulate { cold: WARMUP_COLD };
        sizes.cold_lut = step(sim, &req(sim))?;
        Ok(sizes)
    }

    fn of(&self, a: Artifact) -> usize {
        match a {
            Artifact::HotDesign(h) => self.hot_design[h],
            Artifact::HotLut(h) => self.hot_lut[h],
            Artifact::ColdDesign(_) => self.cold_design,
            Artifact::ColdLut(_) => self.cold_lut,
        }
    }

    fn budget(&self) -> usize {
        let hot = self.hot_design.iter().sum::<usize>() + self.hot_lut.iter().sum::<usize>();
        cache_budget(hot, self.cold_design, self.cold_lut)
    }
}

/// A primed daemon with the LRU model that predicts its cache counts.
struct Served {
    daemon: Daemon,
    model: LruModel,
    sizes: Sizes,
}

impl Served {
    fn call(&mut self, op: ServeOp, id: u64) -> (String, Result<Vec<Val>, String>) {
        for a in touches(op) {
            self.model.touch(a, self.sizes.of(a));
        }
        let (key, req) = request(op, id);
        let got = self.daemon.call(&req).and_then(|resp| answer(op, &resp));
        (key, got)
    }

    fn cache_counts(&mut self) -> Result<CacheCounts, String> {
        let stats = self
            .daemon
            .call(&Json::obj([("cmd", Json::str("stats"))]))?;
        let cache = stats
            .get("result")
            .and_then(|r| r.get("cache"))
            .ok_or("stats without cache section")?;
        let count = |k: &str| {
            cache
                .get(k)
                .and_then(u64_from_json)
                .ok_or(format!("stats: no {k}"))
        };
        Ok(CacheCounts {
            hits: count("hits")?,
            misses: count("misses")?,
            evictions: count("evictions")?,
        })
    }
}

/// Spawn the daemon with a budget that holds the hot set and one cold
/// design, and prime it.
fn setup(a: &RunArgs, sizes: &Sizes, checker: &mut Checker) -> Result<Served, String> {
    let daemon = Daemon::spawn(&a.pi3d, &a.run_dir, sizes.budget())?;
    let mut s = Served {
        daemon,
        model: LruModel::new(sizes.budget()),
        sizes: sizes.clone(),
    };
    for op in prime_ops() {
        let (key, got) = s.call(op, 0);
        if !checker.outcome(&a.golden, &key, got) {
            return Err(format!("priming request {key} failed"));
        }
    }
    Ok(s)
}

/// Golden answers for every request the mix can send, from the
/// in-process engine (responses are byte-identical cold or warm).
pub fn golden(g: &mut Golden) -> Result<(), String> {
    let state = engine(usize::MAX / 4);
    let mut ops = prime_ops();
    for hot in 0..SHAPE.hot {
        for policy in 0..SHAPE.policies {
            for constraint in 0..SHAPE.constraints {
                ops.push(ServeOp::WarmSimulate {
                    hot,
                    policy,
                    constraint,
                });
            }
        }
        for st in 0..SHAPE.states {
            ops.push(ServeOp::WarmSolve { hot, state: st });
        }
    }
    ops.extend((0..SHAPE.cold).map(|cold| ServeOp::ColdSimulate { cold }));
    for op in ops {
        let (key, req) = request(op, 0);
        let t = Instant::now();
        let vals = answer(op, &state.handle_request(&req)).map_err(|e| format!("{key}: {e}"))?;
        eprintln!("  {key}: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
        g.insert(key, vals);
    }
    Ok(())
}

/// Whether, in the measured times, p50 lies in the warm mode and p90 in
/// the cold mode, each at least 5 rank points from the boundary: the ops
/// at the p50 and p55 ranks are warm, and those at p85 and p90 are cold.
fn modes_hold(op_ms: &[f64], cold: &[bool]) -> bool {
    let mut idx: Vec<usize> = (0..op_ms.len()).collect();
    idx.sort_by(|&i, &j| op_ms[i].total_cmp(&op_ms[j]));
    let cold_at = |p: f64| cold[idx[rank(idx.len(), p) - 1]];
    !cold_at(50.0) && !cold_at(55.0) && cold_at(85.0) && cold_at(90.0)
}

pub fn run(a: &RunArgs, tr: &mut Tracer) -> Result<Report, String> {
    let ops = serve_mix(a.seed, &SHAPE, 100_000);
    let mut checker = Checker::default();
    // Entry sizes never change within a run: measured once, untimed, so
    // `setup_s` covers only the daemon's spawn, health wait and priming.
    let sizes = Sizes::measure()?;
    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    let repeats = if a.trace { 1 } else { SETUP_REPEATS };
    for _ in 0..repeats {
        if let Some(old) = served.take() {
            old.daemon.shutdown()?;
        }
        let t = Instant::now();
        served = Some(setup(a, &sizes, &mut checker)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut s = served.ok_or("no set-up ran")?;

    if !a.trace {
        let mut cold = Vec::new();
        let run = closed_loop(a.seconds, MIN_OPS_FOR_P90, CYCLE, |i| {
            cold.push(ops[i].is_cold());
            let (key, got) = s.call(ops[i], i as u64 + 1);
            Ok(checker.outcome(&a.golden, &key, got))
        })?;
        let counts = s.cache_counts()?;
        let counts_ok = counts == s.model.counts;
        if !counts_ok {
            eprintln!(
                "perfbench: cache counts {counts:?}, predicted {:?}",
                s.model.counts
            );
        }
        let modes_ok = modes_hold(&run.op_ms, &cold);
        if !modes_ok {
            eprintln!("perfbench: p50 or p90 lies within 5 rank points of the warm/cold boundary");
        }
        let rss = peak_rss_mb(&s.daemon.pid().to_string())?;
        s.daemon.shutdown()?;
        return Report::end_to_end(
            &run,
            median(&setups),
            rss,
            !checker.invalid && counts_ok && modes_ok,
        );
    }
    traced(a, tr, s, &ops, checker)
}

/// The traced run. First the traced half: each request's round trip in an
/// `op` span, the same request through an in-process engine that mirrors
/// the daemon's cache (`serve.engine`), and the layer calls the request
/// makes, repeated by the benchmark's own code. Then the untraced half,
/// against which the tracing overhead is measured.
fn traced(
    a: &RunArgs,
    tr: &mut Tracer,
    mut s: Served,
    ops: &[ServeOp],
    mut checker: Checker,
) -> Result<Report, String> {
    let mirror = engine(s.sizes.budget());
    for op in prime_ops() {
        mirror.handle_request(&request(op, 0).1);
    }
    let options = MeshOptions::default();
    let max_banks = SimConfig::paper_ddr3().max_powered_per_die;
    let mut hot = Vec::new();
    for h in 0..SHAPE.hot {
        let design = config::parse_design(&hot_config(h)).map_err(|e| e.to_string())?;
        let mesh = StackMesh::new(&design, options.clone()).map_err(|e| e.to_string())?;
        let lut = build_ir_lut_from_mesh(&mesh, max_banks).map_err(|e| e.to_string())?;
        hot.push((mesh, lut));
    }
    let before = Counters::read();
    let (mut transport, mut assemble, mut iters) = (Vec::new(), Vec::new(), Vec::new());
    let half = a.seconds / 2.0;
    let run = closed_loop(half, MIN_TRACED_OPS, 1, |i| {
        let op = ops[i];
        let span = tr.begin("op", None);
        let rtt = tr.begin("serve.request", Some(span));
        let (key, got) = s.call(op, i as u64 + 1);
        tr.end(rtt);
        tr.end(span);
        let ok = checker.outcome(&a.golden, &key, got);
        let req = request(op, i as u64 + 1).1;
        let eng = tr.begin("serve.engine", None);
        let response = mirror.handle_request(&req);
        tr.end(eng);
        let ok = checker.outcome(&a.golden, &key, answer(op, &response)) && ok;
        if !op.is_cold() {
            // Transport is far below the noise of a 15 ms engine time, so it
            // is measured on a `ping`: round trip minus in-process handling.
            let ping = Json::obj([("cmd", Json::str("ping"))]);
            let trip = tr.begin("serve.ping", None);
            s.daemon.call(&ping)?;
            tr.end(trip);
            let local = tr.begin("serve.ping_engine", None);
            mirror.handle_request(&ping);
            tr.end(local);
            transport.push(tr.duration_ms(trip) - tr.duration_ms(local));
        }
        layer_calls(tr, op, &hot, &options, max_banks, &mut assemble, &mut iters)?;
        Ok(ok)
    })?;
    let after = Counters::read();
    let offset = run.op_ms.len();
    let base = closed_loop(half, MIN_TRACED_OPS, 1, |i| {
        let (key, got) = s.call(ops[offset + i], (offset + i) as u64 + 1);
        Ok(checker.outcome(&a.golden, &key, got))
    })?;
    let counts = s.cache_counts()?;
    let counts_ok = counts == s.model.counts;
    s.daemon.shutdown()?;

    let mut op_ms = tr.durations_ms("op");
    op_ms.sort_by(f64::total_cmp);
    let cg_ms = tr.durations_ms("solver.cg");
    let d = |k: &str| after.get(k) - before.get(k);
    let values = [
        (
            "layout.load_vector_ms",
            median(&tr.durations_ms("layout.load_vector")),
        ),
        ("mesh.assemble_ms", median(&assemble)),
        (
            "solver.precond_setup_ms",
            median(&tr.durations_ms("solver.precond_setup")),
        ),
        ("solver.cg_ms", median(&cg_ms)),
        ("solver.cg_iters", median(&iters)),
        (
            "solver.ms_per_iter",
            cg_ms.iter().sum::<f64>() / iters.iter().sum::<f64>().max(1.0),
        ),
        (
            "solver.stencil_share",
            share(d("solver.stencil.spmv"), d("solver.csr.spmv")),
        ),
        (
            "core.lut_build_ms",
            median(&tr.durations_ms("core.lut_build")),
        ),
        (
            "memsim.generate_ms",
            median(&tr.durations_ms("memsim.generate")),
        ),
        ("memsim.run_ms", median(&tr.durations_ms("memsim.run"))),
        (
            "memsim.skip_ratio",
            share(
                d("memsim.events.skipped_cycles"),
                d("memsim.events.simulated_cycles"),
            ),
        ),
        (
            "memsim.admission_hit_ratio",
            share(
                d("memsim.admission_cache.hits"),
                d("memsim.admission_cache.misses"),
            ),
        ),
        ("serve.engine_ms", median(&tr.durations_ms("serve.engine"))),
        ("serve.transport_ms", median(&transport)),
        ("serve.cache_hits", counts.hits as f64),
        ("serve.cache_misses", counts.misses as f64),
        ("serve.cache_evictions", counts.evictions as f64),
        (
            "trace.overhead_pct",
            overhead_pct(&op_ms, &base.sorted_ms())?,
        ),
    ];
    let mut run = run;
    run.failed += base.failed;
    run.op_ms.extend(base.op_ms);
    Report::per_layer(&run, &values, !checker.invalid && counts_ok)
}

/// The layer calls one request makes, made again by the benchmark, each
/// in its own span: mesh assembly, preconditioner set-up and LUT build
/// for a cold design; workload generation and the memory simulator for a
/// warm `simulate`; load vector and CG for a warm `solve`.
fn layer_calls(
    tr: &mut Tracer,
    op: ServeOp,
    hot: &[(StackMesh, IrDropLut)],
    options: &MeshOptions,
    max_banks: usize,
    assemble: &mut Vec<f64>,
    iters: &mut Vec<f64>,
) -> Result<(), String> {
    match op {
        ServeOp::ColdSimulate { cold } => {
            let design = config::parse_design(&cold_config(cold)).map_err(|e| e.to_string())?;
            let new = tr.begin("mesh.stack_new", None);
            let mesh = StackMesh::new(&design, options.clone()).map_err(|e| e.to_string())?;
            tr.end(new);
            let precond_ms = precond_setup(tr, &mesh)?;
            assemble.push(tr.duration_ms(new) - precond_ms);
            tr.time("core.lut_build", None, || {
                build_ir_lut_from_mesh(&mesh, max_banks)
            })
            .map_err(|e| e.to_string())?;
        }
        ServeOp::WarmSimulate {
            hot: h,
            policy,
            constraint: c,
        } => {
            let (mesh, lut) = &hot[h];
            let design = mesh.design();
            let spec = design.benchmark().spec();
            let timing = match design.benchmark() {
                Benchmark::WideIo => TimingParams::wide_io_200(),
                Benchmark::Hmc => TimingParams::hmc_2500(),
                _ => TimingParams::ddr3_1600(),
            };
            let mut workload = WorkloadSpec::paper_ddr3();
            workload.count = READS as usize;
            workload.dies = design.dram_die_count();
            workload.banks_per_die = design.banks_per_die();
            workload.channels = spec.channels;
            let requests = tr.time("memsim.generate", None, || workload.generate());
            let mut sim_config = SimConfig::paper_ddr3();
            sim_config.dies = design.dram_die_count();
            sim_config.banks_per_die = design.banks_per_die();
            sim_config.channels = spec.channels;
            let limit = MilliVolts(CONSTRAINTS[c]);
            let policy = match POLICIES[policy] {
                "standard" => ReadPolicy::standard(),
                "fcfs" => ReadPolicy::ir_aware_fcfs(limit),
                _ => ReadPolicy::ir_aware_distr(limit),
            };
            let sim = MemorySimulator::new(timing, sim_config, policy, lut.clone());
            tr.time("memsim.run", None, || sim.run(&requests))
                .map_err(|e| e.to_string())?;
        }
        ServeOp::WarmSolve { hot: h, state } => {
            let mesh = &hot[h].0;
            let st = solve_state(h, state);
            let rhs = tr.time("layout.load_vector", None, || mesh.load_vector(&st, 1.0));
            let sol = tr.time("solver.cg", None, || mesh.prepared().solve(&rhs, None));
            iters.push(sol.map_err(|e| e.to_string())?.iterations as f64);
        }
    }
    Ok(())
}

/// The program's own counters that the per-layer ratios are made of.
struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    fn read() -> Counters {
        Counters(
            [
                "solver.stencil.spmv",
                "solver.csr.spmv",
                "memsim.events.skipped_cycles",
                "memsim.events.simulated_cycles",
                "memsim.admission_cache.hits",
                "memsim.admission_cache.misses",
            ]
            .iter()
            .map(|&k| (k, counter(k)))
            .collect(),
        )
    }

    fn get(&self, key: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::modes_hold;

    /// 100 ops, cold ones every sixth, timed `warm_ms` / `cold_ms`.
    fn run(warm_ms: f64, cold_ms: impl Fn(usize) -> f64) -> (Vec<f64>, Vec<bool>) {
        (0..100)
            .map(|i| {
                let cold = i % 6 == 5;
                (
                    if cold {
                        cold_ms(i)
                    } else {
                        warm_ms + i as f64 * 1e-3
                    },
                    cold,
                )
            })
            .unzip()
    }

    #[test]
    fn modes_hold_checks_the_margin_on_measured_times() {
        let (ms, cold) = run(14.0, |_| 180.0);
        assert!(modes_hold(&ms, &cold));
        // Four cold ops timing faster than every warm one move the
        // boundary from 84 % to 88 %: p90 stays cold but p85 does not.
        let (ms, cold) = run(14.0, |i| if i < 24 { 1.0 } else { 180.0 });
        assert!(!modes_hold(&ms, &cold));
    }
}
