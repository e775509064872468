//! `pi3d` — command-line front end for the 3D DRAM power-integrity
//! platform.
//!
//! ```text
//! pi3d analyze  <design.cfg> [--state 0-0-0-2] [--activity 1.0] [--both-nets] [--grid N]
//! pi3d currents <design.cfg> [--state 0-0-0-2] [--activity 1.0]
//! pi3d lut      <design.cfg> --out lut.txt
//! pi3d simulate <design.cfg> [--policy standard|fcfs|distr|all] [--constraint 24]
//!                            [--reads 10000] [--lut lut.txt] [--trace trace.txt]
//!                            [--threads N] [--grid N]
//! pi3d optimize <benchmark>  [--alpha 0.3] [--threads N]
//! pi3d faults   [design.cfg] [--seed N] [--tsv-open P] [--bump-open P] [--via-void P]
//!                            [--em-drift S] [--levels 0.25,0.5,1.0] [--trials N]
//!                            [--reads N] [--threads N] [--grid N]
//! pi3d export   <design.cfg> [--svg out.svg] [--spice out.sp] [--state 0-0-0-2]
//! pi3d trace    <trace.json> [--top N]
//! pi3d serve    [--listen unix:PATH|tcp:host:port] [--workers N] [--cache-bytes N]
//!                            [--queue-limit N] [--deadline SECS] [--grid N] [--threads N]
//!                            [--max-frame-bytes N] [--idle-timeout SECS]
//! pi3d call     <addr> [REQUEST_JSON ...] [--retries N] [--retry-base-ms MS]
//!                            [--retry-seed N] [--timeout SECS]
//! ```
//!
//! `pi3d serve` runs a long-lived warm-cache analysis daemon speaking
//! newline-delimited JSON (`{"cmd":"solve","config":"..."}` per line);
//! `pi3d call` is its client, with bounded seeded-backoff retries for
//! connects and transport failures. Prepared systems, IR LUTs, and
//! design-space characterizations are cached across requests in a
//! size-accounted LRU, and responses are byte-identical whether served
//! warm or cold — see DESIGN.md §17. The daemon's failure defenses —
//! frame caps, idle reaping, panic isolation, per-config circuit
//! breaking, load shedding, `health` probes, graceful SIGTERM drain —
//! are catalogued in DESIGN.md §18.
//!
//! Global flags (any command): `--log-level off|error|warn|info|debug|trace`
//! sets the stderr log threshold (overrides `PI3D_LOG`), and
//! `--metrics-out FILE` writes a JSON run report — phase timings, metrics,
//! CG convergence traces, mesh and memory-simulator statistics — on exit,
//! including error, cancelled, and deadline exits (the report's `outcome`
//! block carries the failure stage and exit code).
//!
//! Observability: `--trace-out FILE` records a flight-recorder trace
//! (per-thread event ring buffers) and writes Chrome trace-event JSON on
//! exit — load it in Perfetto / `chrome://tracing`, or profile it with
//! `pi3d trace FILE` (self/total time per span, hottest spans, per-thread
//! utilization). `--progress [json]` heartbeats sweep progress to stderr
//! (units done/total, rate, ETA, per-unit p50/p95).
//!
//! Durable execution (faults / optimize / simulate --policy all):
//! `--journal FILE` records each completed work unit to an fsync'd
//! append-only journal; `--resume FILE` continues an interrupted run,
//! skipping journaled units and reproducing the uninterrupted output
//! bit-identically. `--deadline SECS` bounds wall-clock time, Ctrl-C,
//! SIGTERM, (or `--cancel-file FILE` appearing) request a cooperative
//! stop.
//!
//! Fault-tolerant sharded sweeps (faults / optimize): `--shards N
//! --journal FILE` runs the sweep as N supervised worker processes, each
//! journaling its slice of the unit space under a heartbeated lease.
//! Crashed workers are respawned with seeded backoff and resume from
//! their own journals; units that repeatedly kill their worker are
//! quarantined (exit 75, listed in the run report's `quarantined_units`
//! section) while every other unit completes. The shard journals are
//! verified and merged, and the final report is byte-identical to a
//! single-process run. `pi3d merge-journals` exposes the verified merge
//! standalone — see DESIGN.md §19.
//!
//! Exit codes: `0` success, `1` error, `75` quarantined units (healthy
//! units completed and are journaled), `101` handler panic (confined to
//! one serve response), `124` deadline or cycle budget exceeded
//! (matching `timeout(1)`), `130` cancelled (128 + SIGINT), `143`
//! terminated (128 + SIGTERM).

// User-reachable failures must surface as typed errors, not panics.
#![warn(clippy::unwrap_used)]

mod serve_cmd;
mod shard_cmd;
mod trace_cmd;

use pi3d_core::config;
use pi3d_core::jobs::{config_fingerprint, fnv1a64, journaled_sweep};
use pi3d_core::serve::{exit_code_for, sim_stats_from_json, sim_stats_to_json, status_label};
use pi3d_core::{
    build_ir_lut_from_mesh, characterize_plan, characterize_shard, characterize_with,
    fault_sweep_plan, run_fault_sweep_shard, run_fault_sweep_with, sim_setup, CoreError,
    FaultSweepOptions, JobContext, Platform,
};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{render_design_svg, Benchmark, FaultSpec, MemoryState, StackDesign};
use pi3d_memsim::{parse_trace, IrDropLut, MemorySimulator, ReadPolicy, SimConfig};
use pi3d_mesh::{
    decompose_ir, export_spice, run_transient, CurrentReport, MeshOptions, StackMesh,
    SupplyNoiseAnalysis, TransientOptions,
};
use pi3d_telemetry::fsio::atomic_write;
use pi3d_telemetry::CancelToken;
use shard_cmd::ShardMode;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exit_code_for(e.as_ref()))
        }
    }
}

/// Minimal flag parser: positional arguments plus `--flag value` pairs.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// The flags that may be given without a value (`--progress` also
    /// takes an optional `json`); every other flag needs one.
    const SWITCHES: &'static [&'static str] = &["both-nets", "decompose", "progress", "help"];

    fn parse() -> Result<Args, String> {
        Args::from_iter(std::env::args().skip(1))
    }

    /// Splits `source` into positionals and flags. A token after a flag
    /// is its value unless it is itself a flag.
    ///
    /// # Errors
    ///
    /// Names the first flag outside [`Args::SWITCHES`] given without a
    /// value.
    fn from_iter(source: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = source.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next(),
                    _ => None,
                };
                if value.is_none() && !Args::SWITCHES.contains(&name) {
                    return Err(format!("--{name} needs a value"));
                }
                flags.push((name.to_owned(), value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse()?;
    pi3d_telemetry::report::reset_run();
    let stage = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "startup".to_owned());

    let started = Instant::now();
    let result = dispatch(&args);

    // The run report is written on *every* exit path — success, error,
    // cancellation, deadline — tagged with the failure stage and exit
    // code, so an interrupted campaign still leaves a valid partial
    // report next to its journal.
    pi3d_telemetry::report::record_experiment(
        &stage,
        started.elapsed().as_secs_f64(),
        result.is_ok(),
    );
    let (exit_code, error) = match &result {
        Ok(()) => (0u8, String::new()),
        Err(e) => (exit_code_for(e.as_ref()), e.to_string()),
    };
    pi3d_telemetry::report::set_outcome(pi3d_telemetry::report::RunOutcome {
        status: status_label(exit_code).to_owned(),
        stage,
        exit_code,
        error,
    });
    if let Some(path) = args.flag("metrics-out") {
        match pi3d_telemetry::RunReport::collect().write_json(Path::new(path)) {
            Ok(()) => eprintln!("wrote run report to {path}"),
            Err(e) if result.is_ok() => return Err(format!("cannot write {path}: {e}").into()),
            // Don't let a report-write failure mask the run's error.
            Err(e) => eprintln!("error: cannot write {path}: {e}"),
        }
    }
    // Like the run report, the trace is written on every exit path, so
    // an interrupted sweep still leaves a loadable timeline of the work
    // it managed to do.
    if let Some(path) = args.flag("trace-out") {
        let snapshot = pi3d_telemetry::trace::drain();
        match snapshot.write_chrome_json(Path::new(path)) {
            Ok(()) => eprintln!(
                "wrote trace to {path} ({} events, {} dropped)",
                snapshot.total_events(),
                snapshot.total_dropped()
            ),
            Err(e) if result.is_ok() => return Err(format!("cannot write {path}: {e}").into()),
            Err(e) => eprintln!("error: cannot write {path}: {e}"),
        }
    }
    result
}

fn dispatch(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if args.has("help") {
        print_usage();
        return Ok(());
    }
    if let Some(level) = args.flag("log-level") {
        let parsed: pi3d_telemetry::Level =
            level.parse().map_err(|e| format!("bad --log-level: {e}"))?;
        pi3d_telemetry::log::set_level(parsed);
    }
    // Flight-recorder tracing and the sweep progress heartbeat are armed
    // before any work runs so the very first phase span is captured.
    if args.has("trace-out") {
        if let Some(cap) = args.flag("trace-capacity") {
            let n: usize = cap
                .parse()
                .map_err(|_| format!("--trace-capacity must be an integer, got {cap}"))?;
            pi3d_telemetry::trace::set_capacity(n);
        }
        pi3d_telemetry::trace::set_enabled(true);
    }
    if args.has("progress") {
        let mode = match args.flag("progress") {
            None => pi3d_telemetry::progress::ProgressMode::Human,
            Some("json") => pi3d_telemetry::progress::ProgressMode::JsonLines,
            Some(other) => {
                return Err(format!("--progress takes no value or \"json\", got {other:?}").into())
            }
        };
        pi3d_telemetry::progress::set_mode(mode);
    }
    // Ctrl-C and SIGTERM request a cooperative stop (long loops flush
    // their journal and return typed Cancelled errors; the latched
    // signal picks exit 130 vs 143); a second delivery kills outright.
    // The flag-file watcher is the scriptable/portable alternative.
    pi3d_telemetry::cancel::install_sigint();
    pi3d_telemetry::cancel::install_sigterm();
    if let Some(path) = args.flag("cancel-file") {
        pi3d_telemetry::cancel::watch_flag_file(path.into(), Duration::from_millis(100));
    }
    let Some(command) = args.positional.first().map(String::as_str) else {
        print_usage();
        return Err("no command given".into());
    };
    // One top-level slice per invocation so every lower-layer span has a
    // parent in the trace timeline.
    let _cmd_slice = pi3d_telemetry::trace::span_with("cli", || format!("cmd:{command}"));

    match command {
        "analyze" => analyze(args),
        "currents" => currents(args),
        "lut" => lut_command(args),
        "transient" => transient(args),
        "simulate" => simulate(args),
        "optimize" => optimize(args),
        "faults" => faults_command(args),
        "export" => export(args),
        "serve" => serve_cmd::serve_command(args),
        "call" => serve_cmd::call_command(args),
        "merge-journals" => shard_cmd::merge_journals_command(args),
        "trace" => trace_cmd::trace_command(args),
        "help" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown command {other:?}").into())
        }
    }
}

/// Builds the durable-execution context shared by the sweep commands from
/// the `--journal` / `--resume` / `--deadline` flags plus the global
/// cancellation flag (SIGINT / `--cancel-file`).
fn job_context(args: &Args) -> Result<JobContext, Box<dyn std::error::Error>> {
    let mut ctx = JobContext::new().with_cancel(CancelToken::global());
    match (args.flag("journal"), args.flag("resume")) {
        (Some(_), Some(_)) => {
            return Err("--journal and --resume are mutually exclusive".into());
        }
        (Some(path), None) => ctx = ctx.with_journal(path),
        (None, Some(path)) => ctx = ctx.with_resume(path),
        (None, None) => {}
    }
    if let Some(secs) = args.flag("deadline") {
        let s: f64 = secs
            .parse()
            .map_err(|_| format!("--deadline must be a number of seconds, got {secs}"))?;
        if !s.is_finite() || s <= 0.0 {
            return Err("--deadline must be a positive number of seconds".into());
        }
        ctx = ctx.with_deadline(Instant::now() + Duration::from_secs_f64(s));
    }
    Ok(ctx)
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         pi3d analyze  <design.cfg> [--state S] [--activity A] [--both-nets] [--grid N]\n  \
         pi3d currents <design.cfg> [--state S] [--activity A]\n  \
         pi3d lut      <design.cfg> --out FILE [--grid N] [--threads N]\n  \
         pi3d transient <design.cfg> [--state S] [--steps N]\n  \
         pi3d simulate <design.cfg> [--policy standard|fcfs|distr|all] [--constraint MV]\n  \
                       [--reads N] [--lut FILE] [--trace FILE] [--grid N] [--max-cycles N]\n  \
         pi3d optimize <benchmark>  [--alpha A] [--threads N] [--grid N]\n  \
         pi3d faults   [design.cfg] [--seed N] [--tsv-open P] [--bump-open P]\n  \
                       [--via-void P] [--em-drift S] [--levels L1,L2,..]\n  \
                       [--trials N] [--reads N] [--grid N]\n  \
         pi3d merge-journals --out FILE SHARD0 SHARD1 ..   (verified shard merge)\n  \
         pi3d export   <design.cfg> [--svg FILE] [--spice FILE] [--state S]\n  \
         pi3d trace    <trace.json> [--top N]\n  \
         pi3d serve    [--listen unix:PATH|tcp:host:port] [--workers N]\n  \
                       [--cache-bytes N] [--queue-limit N] [--deadline SECS]\n  \
                       [--max-frame-bytes N] [--idle-timeout SECS]\n  \
         pi3d call     <addr> [REQUEST_JSON ...]   (reads stdin lines if no args)\n  \
                       [--retries N] [--retry-base-ms MS] [--retry-seed N]\n  \
                       [--timeout SECS]\n\
         global flags: [--threads N] [--precond jacobi|ic|mg]\n\
                       [--log-level off|error|warn|info|debug|trace]\n\
                       [--metrics-out FILE] [--trace-out FILE] [--trace-capacity N]\n\
                       [--progress [json]]\n\
         durable runs (faults/optimize/simulate): [--journal FILE] [--resume FILE]\n\
                       [--deadline SECS] [--cancel-file FILE]\n\
         sharded runs (faults/optimize): --shards N --journal FILE\n\
                       [--max-unit-attempts K]   (see DESIGN.md section 19)\n\
         exit codes:   0 ok, 1 error, 75 units quarantined, 101 panic (serve\n\
                       outcome), 124 deadline, 130 cancelled (SIGINT),\n\
                       143 terminated (SIGTERM)"
    );
}

/// Loads the design file together with the mesh options its solver keys
/// imply: the config's `precond` key seeds the default, and `--precond`
/// (like every other mesh flag) overrides it.
fn load_design_and_options(
    args: &Args,
) -> Result<(StackDesign, MeshOptions), Box<dyn std::error::Error>> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing design-configuration file argument")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (design, _, precond) = config::parse_design_full(&text)?;
    let mut base = MeshOptions::default();
    if let Some(p) = precond {
        base.preconditioner = p;
    }
    Ok((design, mesh_options_from(args, base)?))
}

fn state_of(args: &Args, design: &StackDesign) -> Result<MemoryState, Box<dyn std::error::Error>> {
    match args.flag("state") {
        Some(s) => Ok(s.parse()?),
        None => {
            let dies = design.dram_die_count();
            Ok(MemoryState::idle(dies).with_die(dies - 1, pi3d_layout::DieState::active(2)))
        }
    }
}

fn mesh_options_from(
    args: &Args,
    base: MeshOptions,
) -> Result<MeshOptions, Box<dyn std::error::Error>> {
    let mut options = base;
    if let Some(p) = args.flag("precond") {
        options.preconditioner = config::parse_precond(p)?;
    }
    if let Some(grid) = args.flag("grid") {
        let n: usize = grid
            .parse()
            .map_err(|_| format!("--grid must be an integer, got {grid}"))?;
        if !(4..=128).contains(&n) {
            return Err("--grid must be between 4 and 128".into());
        }
        options.dram_nx = n;
        options.dram_ny = n;
        options.logic_nx = n + 2;
        options.logic_ny = n;
    }
    if let Some(threads) = args.flag("threads") {
        let n: usize = threads
            .parse()
            .map_err(|_| format!("--threads must be an integer, got {threads}"))?;
        if !(1..=256).contains(&n) {
            return Err("--threads must be between 1 and 256".into());
        }
        options.threads = n;
    }
    Ok(options)
}

fn activity_of(args: &Args) -> Result<f64, Box<dyn std::error::Error>> {
    match args.flag("activity") {
        Some(a) => {
            let v: f64 = a
                .parse()
                .map_err(|_| format!("--activity must be a number, got {a}"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err("--activity must be in [0, 1]".into());
            }
            Ok(v)
        }
        None => Ok(1.0),
    }
}

fn analyze(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, options) = load_design_and_options(args)?;
    let state = state_of(args, &design)?;
    let activity = activity_of(args)?;

    println!("design   : {} ({})", design.benchmark(), design.cost());
    println!(
        "state    : {state} at {:.0}% I/O activity",
        activity * 100.0
    );

    if args.has("decompose") {
        let mesh = Platform::new(options).evaluate(&design)?;
        let report = mesh.solve(&state, activity).map_err(CoreError::from)?;
        println!("max IR   : {:.2}", report.max_dram());
        println!("per-die vertical (supply path) vs horizontal (in-die) split:");
        for part in decompose_ir(&report) {
            println!(
                "  DRAM{}: max {:.2}, vertical {:.2} ({:.0}%), horizontal {:.2}",
                part.die + 1,
                part.max,
                part.vertical,
                part.vertical_share() * 100.0,
                part.horizontal
            );
        }
    } else if args.has("both-nets") {
        let analysis = SupplyNoiseAnalysis::new(&design, options)?;
        let report = analysis.run(&state, activity)?;
        println!("VDD drop : {:.2}", report.vdd.max_dram());
        println!("VSS bounce: {:.2}", report.vss.max_dram());
        println!("total    : {:.2}", report.max_total());
    } else {
        let mesh = Platform::new(options).evaluate(&design)?;
        let report = mesh.solve(&state, activity).map_err(CoreError::from)?;
        println!("max IR   : {:.2}", report.max_dram());
        for die in 0..design.dram_die_count() {
            println!("  DRAM{}  : {:.2}", die + 1, report.max_die(die));
        }
        if report.max_logic().value() > 0.0 {
            println!("  logic  : {:.2}", report.max_logic());
        }
    }
    Ok(())
}

fn currents(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, options) = load_design_and_options(args)?;
    let state = state_of(args, &design)?;
    let activity = activity_of(args)?;
    let mesh = StackMesh::new(&design, options)?;
    let solved = mesh.solve(&state, activity)?;
    let report = CurrentReport::compute(&mesh, solved.node_drops());

    if let Some(entries) = &report.supply_entries {
        println!(
            "supply entries : {} contacts, max {:.2} mA, crowding {:.2}x",
            entries.count,
            entries.max_a * 1e3,
            entries.crowding()
        );
    }
    for (i, tsv) in report.tsv_interfaces.iter().enumerate() {
        println!(
            "TSV interface {}: {} sites, max {:.2} mA, crowding {:.2}x",
            i + 1,
            tsv.count,
            tsv.max_a * 1e3,
            tsv.crowding()
        );
    }
    if let Some(wb) = &report.wire_bonds {
        println!(
            "bond wires     : {} wires, max {:.2} mA, crowding {:.2}x",
            wb.count,
            wb.max_a * 1e3,
            wb.crowding()
        );
    }
    Ok(())
}

/// Runs the RC transient extension on a design.
fn transient(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, mesh_opts) = load_design_and_options(args)?;
    let state = state_of(args, &design)?;
    let mut options = TransientOptions::default();
    if let Some(steps) = args.flag("steps") {
        options.steps = match steps.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("--steps must be a positive integer, got {steps}").into()),
        };
    }
    let result = run_transient(&design, mesh_opts, options, &state)?;
    println!("DC drop        : {:.2} mV", result.dc_mv);
    println!(
        "transient peak : {:.2} mV ({:.3}x DC)",
        result.peak_mv,
        result.overshoot()
    );
    Ok(())
}

/// Builds a design's IR-drop LUT and writes it as text.
fn lut_command(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, options) = load_design_and_options(args)?;
    let out = args.flag("out").ok_or("lut needs --out FILE")?;
    let mesh = Platform::new(options).evaluate(&design)?;
    eprintln!("building IR-drop lookup table ...");
    let lut = build_ir_lut_from_mesh(&mesh, SimConfig::paper_ddr3().max_powered_per_die)?;
    atomic_write(Path::new(out), lut.to_text().as_bytes())?;
    println!("wrote {out} ({} states)", lut.state_count());
    Ok(())
}

fn simulate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, options) = load_design_and_options(args)?;
    let constraint = MilliVolts(match args.flag("constraint") {
        Some(c) => c
            .parse()
            .map_err(|_| format!("--constraint must be a number of mV, got {c}"))?,
        None => 24.0,
    });
    let policies: Vec<ReadPolicy> = match args.flag("policy").unwrap_or("distr") {
        "standard" => vec![ReadPolicy::standard()],
        "fcfs" => vec![ReadPolicy::ir_aware_fcfs(constraint)],
        "distr" => vec![ReadPolicy::ir_aware_distr(constraint)],
        "all" => vec![
            ReadPolicy::standard(),
            ReadPolicy::ir_aware_fcfs(constraint),
            ReadPolicy::ir_aware_distr(constraint),
        ],
        other => return Err(format!("unknown policy {other:?}").into()),
    };
    let reads: usize = match args.flag("reads") {
        Some(r) => match r.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("--reads must be a positive integer, got {r}").into()),
        },
        None => 10_000,
    };

    // A pre-built LUT (from `pi3d lut`) skips the R-Mesh sweep.
    let lut = match args.flag("lut") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let lut = IrDropLut::from_text(&text)?;
            if lut.dies() != design.dram_die_count() {
                return Err(format!(
                    "LUT covers {} dies but the design has {}",
                    lut.dies(),
                    design.dram_die_count()
                )
                .into());
            }
            lut
        }
        None => {
            let mesh = Platform::new(options.clone()).evaluate(&design)?;
            eprintln!("building IR-drop lookup table ...");
            build_ir_lut_from_mesh(&mesh, SimConfig::paper_ddr3().max_powered_per_die)?
        }
    };

    let (timing, mut sim_config, mut workload) = sim_setup(&design);
    let requests = match args.flag("trace") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_trace(&text)?
        }
        None => {
            workload.count = reads;
            workload.generate()
        }
    };
    if let Some(mc) = args.flag("max-cycles") {
        sim_config.max_cycles = mc
            .parse()
            .map_err(|_| format!("--max-cycles must be an integer, got {mc}"))?;
    }

    // Everything a simulation's outcome depends on feeds the journal's
    // config hash (thread count deliberately excluded — results are
    // bit-identical across worker counts).
    let config_hash = config_fingerprint(&[
        "simulate",
        args.flag("policy").unwrap_or("distr"),
        &format!("{}", constraint.value()),
        &lut.to_text(),
        &format!("{timing:?}"),
        &format!("{sim_config:?}"),
        &format!("{:016x}", fnv1a64(format!("{requests:?}").as_bytes())),
    ]);

    // With `--policy all` the three independent simulations fan across
    // `--threads` workers; results come back in policy order either way.
    // Each one is a journaled work unit, so `--resume` after a crash or
    // Ctrl-C reruns only the policies that had not finished.
    let ctx = job_context(args)?;
    let results = journaled_sweep(
        "simulate",
        config_hash,
        &policies,
        options.threads,
        &ctx,
        |unit, stats| sim_stats_to_json(&policies[unit], stats),
        |unit, payload| sim_stats_from_json(&policies[unit], payload),
        |_, &policy| {
            let sim = MemorySimulator::new(timing, sim_config.clone(), policy, lut.clone())
                .with_cancel(CancelToken::global());
            sim.run(&requests).map_err(CoreError::from)
        },
    )?
    .into_results()?;
    for (i, (policy, stats)) in policies.iter().zip(results).enumerate() {
        if i > 0 {
            println!();
        }
        println!("policy    : {}", policy.name());
        println!("runtime   : {:.2} us", stats.runtime_us);
        println!("bandwidth : {:.3} reads/clk", stats.bandwidth_reads_per_clk);
        println!("max IR    : {:.2}", stats.max_ir);
        println!("row hits  : {:.1}%", stats.row_hit_rate() * 100.0);
    }
    Ok(())
}

fn optimize(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let benchmark =
        config::parse_benchmark(args.positional.get(1).ok_or("missing benchmark argument")?)?;
    // Checked up front: `Characterization::optimize` asserts it, but only
    // after the whole characterization has run.
    let alpha: f64 = match args.flag("alpha") {
        Some(a) => a
            .parse()
            .map_err(|_| format!("--alpha must be a number, got {a}"))?,
        None => 0.3,
    };
    if !(0.0..=1.0).contains(&alpha) {
        return Err("--alpha must be in [0, 1]".into());
    }
    let options = mesh_options_from(args, MeshOptions::coarse())?;
    // The sweep fans out over every core unless `--threads` is given.
    let threads = match args.flag("threads") {
        Some(_) => options.threads,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    };

    let platform = Platform::new(options);
    let ctx = match shard_cmd::shard_mode(args)? {
        ShardMode::Worker {
            index,
            count,
            skip,
            defer,
        } => {
            let (ctx, _heartbeat) = shard_cmd::worker_context(args, index, count, skip, defer)?;
            let (completed, in_scope) = characterize_shard(&platform, benchmark, threads, &ctx)?;
            eprintln!("shard {index}/{count}: completed {completed} of {in_scope} units");
            return Ok(());
        }
        ShardMode::Supervisor(shards) => {
            let (config_hash, total_units) = characterize_plan(&platform, benchmark)?;
            let journal =
                shard_cmd::supervise(args, shards, "characterize", config_hash, total_units)?;
            JobContext::new()
                .with_cancel(CancelToken::global())
                .with_resume(journal)
        }
        ShardMode::Single => job_context(args)?,
    };
    eprintln!("characterizing {benchmark} ({threads} threads) ...");
    let characterization = characterize_with(&platform, benchmark, threads, &ctx)?;
    let best = characterization.optimize(alpha, &platform)?;
    println!(
        "best at alpha={alpha}: M2={:.0}% M3={:.0}% TC={} {}",
        best.point.m2 * 100.0,
        best.point.m3 * 100.0,
        best.point.tc,
        best.point.combo.label()
    );
    println!("predicted IR : {:.2} mV", best.predicted_ir_mv);
    println!("verified IR  : {:.2} mV", best.measured_ir_mv);
    println!("cost         : {:.3}", best.cost);
    Ok(())
}

/// Runs the Monte Carlo PDN fault sweep. The design argument is optional
/// (defaults to the baseline stacked-DDR3 benchmark); fault rates come
/// from the config's fault block, overridden by flags, falling back to a
/// representative defect population when neither is given.
fn faults_command(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, config_spec, config_precond) = match args.positional.get(1) {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            config::parse_design_full(&text)?
        }
        None => (
            StackDesign::baseline(Benchmark::StackedDdr3OffChip),
            None,
            None,
        ),
    };

    let rate_flags = ["seed", "tsv-open", "bump-open", "via-void", "em-drift"];
    let mut base = match config_spec {
        Some(spec) => spec,
        // Representative defect population so a bare `pi3d faults` still
        // sweeps something meaningful.
        None if !rate_flags.iter().any(|f| args.has(f)) => FaultSpec::new(1)
            .with_tsv_open(0.02)
            .with_bump_open(0.01)
            .with_via_void(0.005)
            .with_em_drift(0.1),
        None => FaultSpec::none(),
    };
    let parse_rate = |name: &str| -> Result<Option<f64>, Box<dyn std::error::Error>> {
        match args.flag(name) {
            Some(v) => {
                Ok(Some(v.parse().map_err(|_| {
                    format!("--{name} must be a number, got {v}")
                })?))
            }
            None => Ok(None),
        }
    };
    if let Some(seed) = args.flag("seed") {
        base = base.with_seed(
            seed.parse()
                .map_err(|_| format!("--seed must be an integer, got {seed}"))?,
        );
    }
    if let Some(p) = parse_rate("tsv-open")? {
        base = base.with_tsv_open(p);
    }
    if let Some(p) = parse_rate("bump-open")? {
        base = base.with_bump_open(p);
    }
    if let Some(p) = parse_rate("via-void")? {
        base = base.with_via_void(p);
    }
    if let Some(s) = parse_rate("em-drift")? {
        base = base.with_em_drift(s);
    }
    base.validate()?;

    let mut options = FaultSweepOptions::new(base);
    let mut mesh_base = MeshOptions::default();
    if let Some(p) = config_precond {
        mesh_base.preconditioner = p;
    }
    options.mesh = mesh_options_from(args, mesh_base)?;
    options.threads = options.mesh.threads;
    if let Some(levels) = args.flag("levels") {
        options.levels = levels
            .split(',')
            .map(|l| {
                l.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("--levels entries must be numbers, got {l}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if options.levels.is_empty() {
            return Err("--levels needs at least one severity multiplier".into());
        }
    }
    if let Some(trials) = args.flag("trials") {
        let n: usize = trials
            .parse()
            .map_err(|_| format!("--trials must be an integer, got {trials}"))?;
        if !(1..=100_000).contains(&n) {
            return Err("--trials must be between 1 and 100000".into());
        }
        options.trials = n;
    }
    if let Some(reads) = args.flag("reads") {
        options.reads = reads
            .parse()
            .map_err(|_| format!("--reads must be an integer, got {reads}"))?;
    }

    // Sharded execution (DESIGN.md §19): a worker runs only its slice
    // and exits; a supervisor farms the sweep out to worker processes,
    // merges their journals, and falls through to a resume pass over the
    // merged journal — zero recompute, so stdout stays byte-identical to
    // a single-process run.
    let ctx = match shard_cmd::shard_mode(args)? {
        ShardMode::Worker {
            index,
            count,
            skip,
            defer,
        } => {
            let (ctx, _heartbeat) = shard_cmd::worker_context(args, index, count, skip, defer)?;
            let (completed, in_scope) = run_fault_sweep_shard(&design, &options, &ctx)?;
            eprintln!("shard {index}/{count}: completed {completed} of {in_scope} units");
            return Ok(());
        }
        ShardMode::Supervisor(shards) => {
            let (config_hash, total_units) = fault_sweep_plan(&design, &options);
            let journal =
                shard_cmd::supervise(args, shards, "fault_sweep", config_hash, total_units)?;
            JobContext::new()
                .with_cancel(CancelToken::global())
                .with_resume(journal)
        }
        ShardMode::Single => job_context(args)?,
    };
    let sweep = run_fault_sweep_with(&design, &options, &ctx)?;
    println!("{sweep}");

    // A population this severe never yields a usable stack: surface the
    // typed degradation (rebuilding the first trial's defect set is exact
    // — same seed, same draws) and fail the command.
    if sweep.levels.iter().all(|l| l.survived == 0) {
        let first = &sweep.trials[0];
        let spec = base.scaled(first.level).with_seed(first.seed);
        StackMesh::new(
            &design,
            MeshOptions {
                faults: Some(spec),
                threads: 1,
                ..options.mesh
            },
        )?;
        return Err("no trial survived the fault sweep".into());
    }
    Ok(())
}

fn export(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (design, options) = load_design_and_options(args)?;
    let mut wrote = false;
    if let Some(path) = args.flag("svg") {
        let svg = render_design_svg(&design, &design.benchmark().to_string());
        atomic_write(Path::new(path), svg.as_bytes())?;
        println!("wrote {path}");
        wrote = true;
    }
    if let Some(path) = args.flag("spice") {
        let state = state_of(args, &design)?;
        let mesh = StackMesh::new(&design, options)?;
        let loads = mesh.load_vector(&state, activity_of(args)?);
        let mut deck = Vec::new();
        export_spice(
            &mesh,
            &loads,
            &format!("{} state {state}", design.benchmark()),
            &mut deck,
        )?;
        atomic_write(Path::new(path), &deck)?;
        println!("wrote {path}");
        wrote = true;
    }
    if !wrote {
        return Err("export needs --svg and/or --spice".into());
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::from_iter(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags_separate() {
        let a = args(&[
            "analyze",
            "d.cfg",
            "--state",
            "0-0-0-2",
            "--both-nets",
            "--grid",
            "16",
        ]);
        assert_eq!(a.positional, vec!["analyze", "d.cfg"]);
        assert_eq!(a.flag("state"), Some("0-0-0-2"));
        assert_eq!(a.flag("grid"), Some("16"));
        assert!(a.has("both-nets"));
        assert_eq!(a.flag("both-nets"), None);
        assert!(!a.has("missing"));
    }

    #[test]
    fn flag_without_a_value_is_a_usage_error() {
        let parse = |parts: &[&str]| Args::from_iter(parts.iter().map(|s| s.to_string()));
        let err = parse(&["export", "d.cfg", "--svg", "--spice", "out.sp"]).err();
        assert_eq!(err.as_deref(), Some("--svg needs a value"));
        let err = parse(&["analyze", "d.cfg", "--metrics-out"]).err();
        assert_eq!(err.as_deref(), Some("--metrics-out needs a value"));
        let a = parse(&["--help"]).unwrap();
        assert!(a.has("help"));
        let a = parse(&["faults", "--progress", "--both-nets", "--decompose"]).unwrap();
        assert!(["progress", "both-nets", "decompose"]
            .iter()
            .all(|f| a.has(f)));
    }
}
