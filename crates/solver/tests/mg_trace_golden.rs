//! Golden-shape test for multigrid trace coverage: a traced MG-CG solve
//! must emit `mg:level{k}:smooth/restrict/prolong` and `mg:coarse:solve`
//! spans whose counts follow the V-cycle structure, and the
//! `solver.mg.cycles` counter must track the number of cycles applied.
//!
//! This file deliberately holds a single test: the tracer and metrics
//! registry are process-global, and integration-test files each get
//! their own process, so nothing else races the recorder here.

use pi3d_solver::{CgSolver, CooBuilder, Preconditioner, PreparedSystem, StencilGrid};
use pi3d_telemetry::{metrics, trace, Json};

/// Poisson-like sheet with ground ties on one edge — big enough
/// (64×64 = 4096 nodes) that the hierarchy has two smoothing levels
/// above the dense coarse solve.
fn sheet(n: usize) -> (pi3d_solver::CsrMatrix, Vec<StencilGrid>) {
    let mut coo = CooBuilder::new(n * n);
    for iy in 0..n {
        for ix in 0..n {
            let node = iy * n + ix;
            if ix + 1 < n {
                coo.stamp_conductance(node, node + 1, 1.0);
            }
            if iy + 1 < n {
                coo.stamp_conductance(node, node + n, 1.0);
            }
            if ix == 0 {
                coo.stamp_to_ground(node, 1.0);
            }
        }
    }
    let a = coo.into_csr().expect("grid assembles");
    (
        a,
        vec![StencilGrid {
            base: 0,
            nx: n,
            ny: n,
        }],
    )
}

#[test]
fn mg_solve_emits_level_spans_and_cycle_counter() {
    trace::reset();
    trace::set_capacity(trace::DEFAULT_CAPACITY);
    trace::set_enabled(true);

    let (a, grids) = sheet(64);
    let dim = a.dim();
    let cycles_metric = metrics::counter("solver.mg.cycles");
    let cycles_before = cycles_metric.get();
    let system = PreparedSystem::with_geometry(
        a,
        Preconditioner::Multigrid,
        CgSolver::new().with_tolerance(1e-10),
        &grids,
    )
    .expect("hierarchy builds");
    let mut rhs = vec![0.0; dim];
    rhs[dim / 2] = 1.0;
    let solution = system.solve(&rhs, None).expect("solves");
    assert!(solution.iterations >= 2, "want a real CG run");

    trace::set_enabled(false);
    let doc = trace::drain().to_chrome_json();
    trace::reset();
    let parsed = Json::parse(&doc.to_pretty_string()).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };

    // The registry counter advanced by exactly the cycle count, and the
    // trace carries matching counter samples ending at that total.
    let cycles = cycles_metric.get() - cycles_before;
    assert!(cycles >= solution.iterations as u64, "one cycle per apply");
    let samples: Vec<f64> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("C")
                && e.get("name").and_then(Json::as_str) == Some("mg.cycles")
        })
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_num)
                .expect("counter value")
        })
        .collect();
    assert_eq!(samples.len() as u64, cycles, "one sample per cycle");
    assert_eq!(*samples.last().expect("non-empty"), cycles as f64);

    // Span census per level: each V-cycle does two smooth spans (pre +
    // post), one restrict, and one prolong on every smoothing level.
    let span_count = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
            .count() as u64
    };
    // 64×64 → 32×32 → dense: two smoothing levels above the coarse solve.
    for level in 0..2 {
        let smooth = span_count(&format!("mg:level{level}:smooth"));
        let restrict = span_count(&format!("mg:level{level}:restrict"));
        let prolong = span_count(&format!("mg:level{level}:prolong"));
        assert_eq!(smooth, 2 * cycles, "level {level} smooth spans");
        assert_eq!(restrict, cycles, "level {level} restrict spans");
        assert_eq!(prolong, cycles, "level {level} prolong spans");
    }
    assert_eq!(
        span_count("mg:level2:smooth"),
        0,
        "level 2 is the dense coarse solve, not a smoothing level"
    );
    assert_eq!(
        span_count("mg:coarse:solve"),
        cycles,
        "one dense coarse solve per cycle"
    );
}
