//! Golden JSON-shape test: a small end-to-end solve must produce a
//! [`pi3d::telemetry::RunReport`] whose serialized form has the documented
//! schema — key names, value types, and the content invariants downstream
//! tooling relies on (DESIGN.md "Observability").
//!
//! Everything lives in one `#[test]` because the telemetry registry is
//! process-global; parallel test threads would interleave their metrics.

use pi3d::layout::units::MilliVolts;
use pi3d::layout::{Benchmark, MemoryState, StackDesign};
use pi3d::memsim::{MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d::mesh::{IrAnalysis, MeshOptions};
use pi3d::telemetry::{report, Json, RunReport};

#[test]
fn run_report_json_matches_the_documented_schema() {
    report::reset_run();

    // A coarse end-to-end run: mesh build + CG solve, then a short
    // policy simulation against a synthetic two-state LUT.
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let options = MeshOptions {
        dram_nx: 10,
        dram_ny: 10,
        ..MeshOptions::coarse()
    };
    let mut analysis = IrAnalysis::new(&design, options.clone()).expect("mesh builds");
    let state: MemoryState = "0-0-0-2".parse().unwrap();
    let ir = analysis.run(&state, 1.0).expect("solve converges");
    assert!(ir.max_dram().value() > 0.0);

    let mut lut = pi3d::memsim::IrDropLut::new(4);
    for counts in [[0u8, 0, 0, 1], [0, 0, 0, 2], [1, 1, 1, 2], [2, 2, 2, 2]] {
        for activity in [0.25, 0.5, 1.0] {
            lut.insert(&counts, activity, MilliVolts(10.0 * activity));
        }
    }
    let mut workload = WorkloadSpec::paper_ddr3();
    workload.count = 200;
    let sim = MemorySimulator::new(
        TimingParams::ddr3_1600(),
        SimConfig::paper_ddr3(),
        ReadPolicy::standard(),
        lut,
    );
    sim.run(&workload.generate()).expect("simulation completes");

    // A tiny fault sweep populates the fault_sweep section and the
    // faults.injected.* counters.
    let sweep_options = pi3d::core::FaultSweepOptions {
        levels: vec![1.0],
        trials: 2,
        reads: 0,
        mesh: options,
        ..pi3d::core::FaultSweepOptions::new(pi3d::layout::FaultSpec::new(9).with_em_drift(0.2))
    };
    let sweep = pi3d::core::run_fault_sweep(&design, &sweep_options).expect("sweep completes");
    assert_eq!(sweep.levels[0].survived, 2);

    report::record_experiment("golden_shape", 0.01, true);
    report::set_outcome(report::RunOutcome {
        status: "ok".into(),
        stage: "golden_shape".into(),
        exit_code: 0,
        error: String::new(),
    });

    let text = RunReport::collect().to_json().to_pretty_string();
    let json = Json::parse(&text).expect("report is valid JSON");

    // Top level: every documented key present with the right type.
    let top = json.as_obj().expect("report is an object");
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "phases",
            "counters",
            "gauges",
            "histograms",
            "convergence",
            "convergence_dropped",
            "mesh",
            "memsim",
            "fault_sweep",
            "quarantined_units",
            "experiments",
            "outcome",
        ],
        "top-level key set or order changed"
    );
    assert_eq!(
        json.get("schema").unwrap().as_str(),
        Some("pi3d.run_report.v1")
    );

    // Phase tree: the solve must have produced nested spans, and every
    // entry carries path/calls/total_ms.
    let phases = json.get("phases").unwrap().as_arr().expect("phases array");
    assert!(!phases.is_empty(), "no spans recorded");
    for p in phases {
        assert!(p.get("path").unwrap().as_str().is_some());
        assert!(p.get("calls").unwrap().as_num().unwrap() >= 1.0);
        assert!(p.get("total_ms").unwrap().as_num().unwrap() >= 0.0);
    }
    let paths: Vec<&str> = phases
        .iter()
        .map(|p| p.get("path").unwrap().as_str().unwrap())
        .collect();
    assert!(paths.contains(&"mesh_build"), "paths: {paths:?}");
    // Factor-once: the preconditioner is built during mesh assembly, not
    // inside the per-solve CG path (DESIGN.md "Factor-once / solve-many").
    assert!(
        paths
            .iter()
            .any(|p| p.ends_with("mesh_factor/precond_setup")),
        "span nesting lost: {paths:?}"
    );
    assert!(
        !paths.iter().any(|p| p.contains("cg_solve/precond_setup")),
        "preconditioner rebuilt inside the solve path: {paths:?}"
    );
    assert!(paths.contains(&"memsim_run"), "paths: {paths:?}");

    // Counters are integers keyed by dotted names.
    let counters = json
        .get("counters")
        .unwrap()
        .as_obj()
        .expect("counters object");
    let counter = |name: &str| -> f64 {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
            .as_num()
            .unwrap()
    };
    assert!(counter("solver.cg.solves") >= 1.0);
    assert!(counter("solver.cg.iterations") >= 1.0);
    assert!(counter("mesh.builds") >= 1.0);
    assert!(counter("memsim.runs") >= 1.0);

    // Histogram shape: count/sum plus [lower_bound, count] bucket pairs.
    let hist = json
        .get("histograms")
        .unwrap()
        .get("solver.cg.iterations_per_solve")
        .expect("iteration histogram present");
    assert!(hist.get("count").unwrap().as_num().unwrap() >= 1.0);
    let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
    for b in buckets {
        let pair = b.as_arr().expect("bucket is a pair");
        assert_eq!(pair.len(), 2);
    }

    // Convergence: at least one CG trace whose residuals decrease overall
    // and end at the reported final value.
    let traces = json.get("convergence").unwrap().as_arr().unwrap();
    assert!(!traces.is_empty(), "no convergence trace recorded");
    let trace = &traces[0];
    assert_eq!(trace.get("label").unwrap().as_str(), Some("cg"));
    let residuals = trace.get("residuals").unwrap().as_arr().unwrap();
    assert!(!residuals.is_empty());
    let first = residuals.first().unwrap().as_num().unwrap();
    let last = residuals.last().unwrap().as_num().unwrap();
    assert!(
        last < first,
        "residuals did not decrease: {first} -> {last}"
    );
    let final_rel = trace
        .get("final_relative_residual")
        .unwrap()
        .as_num()
        .unwrap();
    assert!((last - final_rel).abs() <= 1e-12 * final_rel.abs().max(1.0));

    // Mesh stats: the 10x10 coarse build.
    let mesh = &json.get("mesh").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        mesh.get("label").unwrap().as_str(),
        Some("StackedDdr3OffChip")
    );
    assert!(mesh.get("nodes").unwrap().as_num().unwrap() > 0.0);
    assert!(mesh.get("edges").unwrap().as_num().unwrap() > 0.0);
    assert!(mesh.get("layers").unwrap().as_num().unwrap() >= 4.0);
    assert!(
        mesh.get("nnz").unwrap().as_num().unwrap() >= mesh.get("nodes").unwrap().as_num().unwrap()
    );

    // Memsim stats: the standard-policy run.
    let policy = &json.get("memsim").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        policy.get("policy").unwrap().as_str(),
        Some("Standard/FCFS")
    );
    assert_eq!(policy.get("completed").unwrap().as_num(), Some(200.0));
    let hit_rate = policy.get("row_hit_rate").unwrap().as_num().unwrap();
    assert!((0.0..=1.0).contains(&hit_rate));
    assert!(policy.get("stall_cycles").unwrap().as_num().unwrap() >= 0.0);

    // Fault sweep: one record per severity level, with the EM-drift-only
    // population surviving every trial.
    let sweep_rows = json.get("fault_sweep").unwrap().as_arr().unwrap();
    assert_eq!(sweep_rows.len(), 1);
    let row = &sweep_rows[0];
    assert_eq!(row.get("level").unwrap().as_num(), Some(1.0));
    assert_eq!(row.get("trials").unwrap().as_num(), Some(2.0));
    assert_eq!(row.get("survived").unwrap().as_num(), Some(2.0));
    assert!(row.get("mean_max_ir_mv").unwrap().as_num().unwrap() > 0.0);
    assert!(counter("faults.injected.em_drift") >= 1.0);

    // Experiments: wall-clock entries survive the round trip.
    let experiments = json.get("experiments").unwrap().as_arr().unwrap();
    let golden = experiments
        .iter()
        .find(|e| e.get("name").unwrap().as_str() == Some("golden_shape"))
        .expect("recorded experiment present");
    assert_eq!(golden.get("ok").unwrap(), &Json::Bool(true));
    assert!(golden.get("wall_ms").unwrap().as_num().unwrap() > 0.0);

    // Outcome: the "how did this run end" block the CLI writes on every
    // exit path (null when no front end recorded one).
    let outcome = json.get("outcome").expect("outcome key present");
    assert_eq!(outcome.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(outcome.get("stage").unwrap().as_str(), Some("golden_shape"));
    assert_eq!(outcome.get("exit_code").unwrap().as_num(), Some(0.0));
    assert_eq!(outcome.get("error").unwrap().as_str(), Some(""));

    report::reset_run();
}
