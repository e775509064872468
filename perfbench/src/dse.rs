//! `dse`: one Table 8 regression sample point per op, drawn in seeded
//! order from all four benchmarks' design spaces. The op is what
//! `optimize`, `faults` and a serve cold miss pay per design: build the
//! design, assemble and factor its coarse R-Mesh, solve the default state.

use crate::golden::{Checker, Golden, Val};
use crate::layers::{overhead_pct, precond_setup};
use crate::report::Report;
use crate::seq::cycled_order;
use crate::stats::{closed_loop, median, peak_rss_mb, MIN_OPS_FOR_P90};
use crate::trace::Tracer;
use crate::{counter, share, RunArgs, MIN_TRACED_OPS, SETUPS_BEFORE, SETUP_REPEATS};
use pi3d_core::{DesignPoint, DesignSpace, Platform};
use pi3d_layout::{Benchmark, MemoryState};
use pi3d_mesh::{GridRegistry, MeshOptions, StackMesh};
use std::time::Instant;

pub struct Point {
    bench: Benchmark,
    idx: usize,
    point: DesignPoint,
    state: MemoryState,
}

impl Point {
    fn key(&self) -> String {
        format!("dse/{}/{}", crate::serve::bench_id(self.bench), self.idx)
    }
}

/// Every regression sample point of the four benchmarks (4,320).
pub fn all_points() -> Vec<Point> {
    Benchmark::ALL
        .iter()
        .flat_map(|&bench| {
            let space = DesignSpace::new(bench);
            let state = space.default_state();
            space
                .sample_points()
                .into_iter()
                .enumerate()
                .map(move |(idx, point)| Point {
                    bench,
                    idx,
                    point,
                    state: state.clone(),
                })
        })
        .collect()
}

/// The op, through the same calls `optimize` makes: max DRAM IR drop (mV),
/// and the CG iterations it took.
fn evaluate(platform: &Platform, p: &Point) -> Result<(Vec<Val>, u64), String> {
    let before = counter("solver.cg.iterations");
    let design = p.point.to_design(p.bench).map_err(|e| e.to_string())?;
    let mut eval = platform.evaluate(&design).map_err(|e| e.to_string())?;
    let mv = eval
        .max_ir(&p.state, 1.0)
        .map_err(|e| e.to_string())?
        .value();
    Ok((vec![Val::F(mv)], counter("solver.cg.iterations") - before))
}

/// Max drop over the DRAM grids, in mV, as `IrDropReport::max_dram` sums it up.
fn max_dram_mv(registry: &GridRegistry, x: &[f64]) -> f64 {
    registry
        .iter()
        .filter(|(_, g)| !g.kind.is_logic())
        .map(|(_, g)| {
            let mut max = f64::MIN;
            for iy in 0..g.ny {
                for ix in 0..g.nx {
                    max = max.max(x[g.node(ix, iy)]);
                }
            }
            max * 1e3
        })
        .fold(0.0, f64::max)
}

pub fn golden(g: &mut Golden) -> Result<(), String> {
    let platform = Platform::new(MeshOptions::coarse());
    for p in all_points() {
        g.insert(p.key(), evaluate(&platform, &p)?.0);
    }
    Ok(())
}

/// Per-op layer timings of the traced op.
struct Layers {
    assemble_ms: f64,
    nodes: usize,
    iters: usize,
}

/// The op again, through the lower-level calls it is made of, each in a
/// span; then, outside the op's span, the preconditioner set-up alone on
/// the same matrix, so mesh assembly can be told apart from it.
fn traced_op(tr: &mut Tracer, p: &Point) -> Result<((Vec<Val>, u64), Layers), String> {
    let op = tr.begin("op", None);
    let design = tr.time("layout.design", Some(op), || {
        let d = p.point.to_design(p.bench)?;
        d.validate().map(|()| d)
    });
    let design = design.map_err(|e| e.to_string())?;
    let new = tr.begin("mesh.stack_new", Some(op));
    let mesh = StackMesh::new(&design, MeshOptions::coarse()).map_err(|e| e.to_string())?;
    tr.end(new);
    let rhs = tr.time("layout.load_vector", Some(op), || {
        mesh.load_vector(&p.state, 1.0)
    });
    let sol = tr.time("solver.cg", Some(op), || mesh.prepared().solve(&rhs, None));
    let sol = sol.map_err(|e| e.to_string())?;
    let mv = max_dram_mv(mesh.registry(), &sol.x);
    tr.end(op);

    let precond_ms = precond_setup(tr, &mesh)?;
    let layers = Layers {
        assemble_ms: tr.duration_ms(new) - precond_ms,
        nodes: mesh.node_count(),
        iters: sol.iterations,
    };
    let iters = sol.iterations as u64;
    Ok(((vec![Val::F(mv)], iters), layers))
}

/// Enumerates the points, draws the seeded order, and evaluates an
/// untimed warm-up over a fixed, seed-independent set of points (the
/// first sixteen of every benchmark), recording their iteration counts.
/// Returns its wall time too.
fn set_up(
    a: &RunArgs,
    platform: &Platform,
    checker: &mut Checker,
) -> Result<(Vec<Point>, Vec<usize>, f64), String> {
    let t = Instant::now();
    let points = all_points();
    let order = cycled_order(a.seed, points.len(), points.len());
    for p in points.iter().filter(|p| p.idx < 16) {
        checker.iterations(&p.key(), evaluate(platform, p)?.1);
    }
    Ok((points, order, t.elapsed().as_secs_f64()))
}

pub fn run(a: &RunArgs, tr: &mut Tracer) -> Result<Report, String> {
    let platform = Platform::new(MeshOptions::coarse());
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let (mut points, mut order) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS_BEFORE {
        let s;
        (points, order, s) = set_up(a, &platform, &mut checker)?;
        setups.push(s);
    }
    let point = |i: usize| &points[order[i % order.len()]];
    let untimed = |i: usize, checker: &mut Checker| {
        let p = point(i);
        Ok(checker.solved(&a.golden, &p.key(), evaluate(&platform, p)))
    };

    if !a.trace {
        // Whole passes over all the points, so every seed times the same
        // set of ops.
        let run = closed_loop(a.seconds, MIN_OPS_FOR_P90, order.len(), |i| {
            untimed(i, &mut checker)
        })?;
        let rss = peak_rss_mb("self")?;
        for _ in SETUPS_BEFORE..SETUP_REPEATS {
            setups.push(set_up(a, &platform, &mut checker)?.2);
        }
        checker.report_iterations("dse");
        return Report::end_to_end(&run, median(&setups), rss, !checker.invalid);
    }

    let half = a.seconds / 2.0;
    let base = closed_loop(half, MIN_TRACED_OPS, 1, |i| untimed(i, &mut checker))?;
    let offset = base.op_ms.len();
    let (stencil0, csr0) = (counter("solver.stencil.spmv"), counter("solver.csr.spmv"));
    let mut layers = Vec::new();
    let run = closed_loop(half, MIN_TRACED_OPS, 1, |i| {
        let p = point(offset + i);
        let got = traced_op(tr, p).map(|(vals, l)| {
            layers.push(l);
            vals
        });
        Ok(checker.solved(&a.golden, &p.key(), got))
    })?;
    let stencil = counter("solver.stencil.spmv") - stencil0;
    let csr = counter("solver.csr.spmv") - csr0;

    let mut op_ms = tr.durations_ms("op");
    op_ms.sort_by(f64::total_cmp);
    let cg_ms = tr.durations_ms("solver.cg");
    let iters: Vec<f64> = layers.iter().map(|l| l.iters as f64).collect();
    let values = [
        (
            "layout.design_ms",
            median(&tr.durations_ms("layout.design")),
        ),
        (
            "layout.load_vector_ms",
            median(&tr.durations_ms("layout.load_vector")),
        ),
        (
            "mesh.assemble_ms",
            median(&layers.iter().map(|l| l.assemble_ms).collect::<Vec<_>>()),
        ),
        (
            "mesh.nodes",
            layers.iter().map(|l| l.nodes as f64).sum::<f64>() / layers.len().max(1) as f64,
        ),
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
        ("solver.stencil_share", share(stencil, csr)),
        (
            "trace.overhead_pct",
            overhead_pct(&op_ms, &base.sorted_ms())?,
        ),
    ];
    Report::per_layer(&run, &values, !checker.invalid)
}
