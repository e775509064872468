//! `fine-mg`: the ddr3-off baseline on a 32x32 per-die grid (8,192
//! nodes) with the multigrid preconditioner. Each op is one cold solve of
//! one of 24 load vectors (every single-die state crossed with three I/O
//! activities) in seeded order: stencil SpMV and the V-cycle do nearly
//! all the work, and the multigrid hierarchy lands in set-up.

use crate::golden::{Checker, Golden, Val};
use crate::layers::{overhead_pct, precond_setup};
use crate::report::Report;
use crate::seq::cycled_order;
use crate::stats::{closed_loop, median, peak_rss_mb, MIN_OPS_FOR_P90};
use crate::trace::Tracer;
use crate::{counter, share, RunArgs, MIN_TRACED_OPS, SETUPS_BEFORE, SETUP_REPEATS};
use pi3d_layout::{Benchmark, DieState, MemoryState, StackDesign};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_solver::{CgSolution, Preconditioner};
use std::time::Instant;

/// Per-die grid edge: a third finer than the default mesh. The working
/// set must stay well inside a per-core L2: at 96 (73,728 nodes) the
/// run-to-run spread on a shared host reached 27 %, and at 48 (18,432
/// nodes, about the L2 size) 47 % when a neighbour loaded the host.
pub const GRID: usize = 32;
const ACTIVITIES: [f64; 3] = [0.25, 0.5, 1.0];
const BANKS: [usize; 2] = [1, 2];

fn options() -> MeshOptions {
    MeshOptions {
        dram_nx: GRID,
        dram_ny: GRID,
        logic_nx: GRID + 2,
        logic_ny: GRID,
        preconditioner: Preconditioner::Multigrid,
        threads: 1,
        ..MeshOptions::default()
    }
}

fn design() -> StackDesign {
    StackDesign::baseline(Benchmark::StackedDdr3OffChip)
}

/// The 24 load cases: `(golden key, state, activity)`.
fn cases() -> Vec<(String, MemoryState, f64)> {
    let dies = design().dram_die_count();
    let mut out = Vec::new();
    for die in 0..dies {
        for banks in BANKS {
            for (a, &activity) in ACTIVITIES.iter().enumerate() {
                let state = MemoryState::idle(dies).with_die(die, DieState::active(banks));
                out.push((format!("fine-mg/{state}/{a}"), state, activity));
            }
        }
    }
    out
}

/// One cold solve: max drop (mV), and CG iterations.
fn solve(mesh: &StackMesh, rhs: &[f64]) -> Result<(Vec<Val>, u64), String> {
    let sol = mesh
        .prepared()
        .solve(rhs, None)
        .map_err(|e| e.to_string())?;
    Ok(answer(&sol))
}

fn answer(sol: &CgSolution) -> (Vec<Val>, u64) {
    let max = sol.x.iter().copied().fold(f64::MIN, f64::max);
    (vec![Val::F(max * 1e3)], sol.iterations as u64)
}

struct Setup {
    mesh: StackMesh,
    rhs: Vec<Vec<f64>>,
    build_s: f64,
}

/// Mesh assembly (with the multigrid hierarchy), the 24 load vectors and
/// an untimed warm-up solve of each, whose iteration counts are recorded.
fn setup(checker: &mut Checker) -> Result<Setup, String> {
    let t = Instant::now();
    let mesh = StackMesh::new(&design(), options()).map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    let cases = cases();
    let rhs: Vec<Vec<f64>> = cases
        .iter()
        .map(|(_, state, activity)| mesh.load_vector(state, *activity))
        .collect();
    for ((key, _, _), r) in cases.iter().zip(&rhs) {
        checker.iterations(key, solve(&mesh, r)?.1);
    }
    Ok(Setup { mesh, rhs, build_s })
}

pub fn golden(g: &mut Golden) -> Result<(), String> {
    let s = setup(&mut Checker::default())?;
    for ((key, _, _), rhs) in cases().into_iter().zip(&s.rhs) {
        g.insert(key, solve(&s.mesh, rhs)?.0);
    }
    Ok(())
}

pub fn run(a: &RunArgs, tr: &mut Tracer) -> Result<Report, String> {
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take()); // free the previous mesh before building the next
        let t = Instant::now();
        let s = setup(&mut checker)?;
        setups.push(t.elapsed().as_secs_f64());
        builds.push(s.build_s);
        kept = Some(s);
    }
    let s = kept.ok_or("no set-up ran")?;
    let cases = cases();
    let order = cycled_order(a.seed, cases.len(), 50 * cases.len());
    let case = |i: usize| order[i % order.len()];
    let untimed = |i: usize, checker: &mut Checker| {
        let k = case(i);
        Ok(checker.solved(&a.golden, &cases[k].0, solve(&s.mesh, &s.rhs[k])))
    };

    if !a.trace {
        let run = closed_loop(a.seconds, MIN_OPS_FOR_P90, cases.len(), |i| {
            untimed(i, &mut checker)
        })?;
        let rss = peak_rss_mb("self")?;
        for _ in SETUPS_BEFORE..SETUP_REPEATS {
            let t = Instant::now();
            builds.push(setup(&mut checker)?.build_s);
            setups.push(t.elapsed().as_secs_f64());
        }
        checker.report_iterations("fine-mg");
        eprintln!(
            "perfbench: fine-mg set-up {:.3} s (StackMesh::new {:.3} s) against p50 solve {:.1} ms",
            median(&setups),
            median(&builds),
            crate::stats::percentile(&run.sorted_ms(), 50.0)?
        );
        return Report::end_to_end(&run, median(&setups), rss, !checker.invalid);
    }

    let half = a.seconds / 2.0;
    let base = closed_loop(half, MIN_TRACED_OPS, 1, |i| untimed(i, &mut checker))?;
    let offset = base.op_ms.len();
    // Mesh assembly, then the multigrid hierarchy alone on the same
    // matrix and grids, so the two can be told apart.
    let mut assemble_ms = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let new = tr.begin("mesh.stack_new", None);
        let mesh = StackMesh::new(&design(), options()).map_err(|e| e.to_string())?;
        tr.end(new);
        let precond_ms = precond_setup(tr, &mesh)?;
        assemble_ms.push(tr.duration_ms(new) - precond_ms);
    }
    let (stencil0, csr0) = (counter("solver.stencil.spmv"), counter("solver.csr.spmv"));
    let mut iters = Vec::new();
    let run = closed_loop(half, MIN_TRACED_OPS, 1, |i| {
        let k = case(offset + i);
        let op = tr.begin("op", None);
        let got = tr.time("solver.cg", Some(op), || {
            s.mesh.prepared().solve(&s.rhs[k], None)
        });
        tr.end(op);
        let (state, activity) = (&cases[k].1, cases[k].2);
        tr.time("layout.load_vector", None, || {
            s.mesh.load_vector(state, activity)
        });
        let got = got.map_err(|e| e.to_string()).map(|sol| {
            iters.push(sol.iterations as f64);
            answer(&sol)
        });
        Ok(checker.solved(&a.golden, &cases[k].0, got))
    })?;
    let stencil = counter("solver.stencil.spmv") - stencil0;
    let csr = counter("solver.csr.spmv") - csr0;

    let mut op_ms = tr.durations_ms("op");
    op_ms.sort_by(f64::total_cmp);
    let cg_ms = tr.durations_ms("solver.cg");
    let values = [
        (
            "layout.load_vector_ms",
            median(&tr.durations_ms("layout.load_vector")),
        ),
        ("mesh.assemble_ms", median(&assemble_ms)),
        ("mesh.nodes", s.mesh.node_count() as f64),
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
