//! Transient (AC) supply-noise extension.
//!
//! The paper is a DC study, but Section 4.1 motivates backside wire
//! bonding partly with AC integrity: "bonding wires can directly connect
//! to large off-chip decoupling capacitors, which provide better AC power
//! integrity". This module extends the R-Mesh with node capacitances —
//! distributed on-die decap plus lumped decap at the wire-bond pads and
//! supply entries — and integrates the RC network through load transients
//! with backward Euler:
//!
//! ```text
//! (G + C/Δt) · v[k+1] = i[k+1] + (C/Δt) · v[k]
//! ```
//!
//! The augmented matrix is SPD, so the same preconditioned-CG solver
//! handles every time step (with warm starts from the previous step).

use crate::build::{ElementKind, MeshOptions, StackMesh};
use crate::error::MeshError;
use pi3d_layout::{MemoryState, StackDesign};
use pi3d_solver::{CgSolver, CooBuilder, CsrMatrix, PreparedSystem};

/// Decoupling-capacitance configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecapSpec {
    /// Distributed on-die decap density, nF per mm² of die area.
    pub on_die_nf_per_mm2: f64,
    /// Lumped off-chip decap reachable through each bond wire, nF.
    pub wirebond_nf: f64,
    /// Lumped package decap at each supply-entry contact, nF.
    pub entry_nf: f64,
}

impl DecapSpec {
    /// Representative values: ~1 nF/mm² of on-die decap, 100 nF reachable
    /// per bond wire, 10 nF at each supply contact.
    pub fn typical() -> Self {
        DecapSpec {
            on_die_nf_per_mm2: 1.0,
            wirebond_nf: 100.0,
            entry_nf: 10.0,
        }
    }

    /// No decoupling at all (worst-case AC).
    pub fn none() -> Self {
        DecapSpec {
            on_die_nf_per_mm2: 0.0,
            wirebond_nf: 0.0,
            entry_nf: 0.0,
        }
    }
}

/// Transient simulation settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Time step, ns.
    pub dt_ns: f64,
    /// Number of steps to integrate.
    pub steps: usize,
    /// Load-burst period in steps (square wave: active for `duty` of it).
    pub burst_period: usize,
    /// Fraction of the burst period the load is on.
    pub duty: f64,
    /// Decap configuration.
    pub decap: DecapSpec,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            dt_ns: 1.25,
            steps: 240,
            burst_period: 40,
            duty: 0.5,
            decap: DecapSpec::typical(),
        }
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Max DRAM drop per time step, mV.
    pub max_drop_mv: Vec<f64>,
    /// Peak transient drop over the whole run, mV.
    pub peak_mv: f64,
    /// The DC drop of the same (fully-on) load, mV.
    pub dc_mv: f64,
}

impl TransientResult {
    /// Transient overshoot relative to the DC solution (1.0 = no AC
    /// overshoot; decap pushes the ratio toward or below 1).
    pub fn overshoot(&self) -> f64 {
        if self.dc_mv > 0.0 {
            self.peak_mv / self.dc_mv
        } else {
            1.0
        }
    }
}

/// Runs a burst-train transient on a design.
///
/// The load alternates between the full memory-state current (bursting
/// reads) and the idle-state current, as a square wave; the reported peak
/// captures the di/dt droop the decap network has to absorb.
///
/// # Errors
///
/// Propagates mesh-assembly and solver errors.
///
/// # Examples
///
/// ```no_run
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::{run_transient, MeshOptions, TransientOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let result = run_transient(
///     &design,
///     MeshOptions::coarse(),
///     TransientOptions::default(),
///     &"0-0-0-2".parse()?,
/// )?;
/// println!("peak {:.2} mV ({:.2}x DC)", result.peak_mv, result.overshoot());
/// # Ok(())
/// # }
/// ```
pub fn run_transient(
    design: &StackDesign,
    mesh_options: MeshOptions,
    options: TransientOptions,
    state: &MemoryState,
) -> Result<TransientResult, MeshError> {
    let _span = pi3d_telemetry::span::span("transient");
    let mesh = StackMesh::new(design, mesh_options)?;
    let n = mesh.node_count();

    // Node capacitances in farads.
    let mut cap = vec![0.0f64; n];
    for (_, grid) in mesh.registry().iter() {
        if grid.kind.is_logic() {
            continue;
        }
        let cell_f = options.decap.on_die_nf_per_mm2 * 1e-9 * grid.dx() * grid.dy();
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                cap[grid.node(ix, iy)] += cell_f;
            }
        }
    }
    for element in mesh.elements() {
        let lumped_f = match element.kind {
            ElementKind::WireBond { .. } => options.decap.wirebond_nf * 1e-9,
            ElementKind::SupplyEntry => options.decap.entry_nf * 1e-9,
            _ => 0.0,
        };
        if lumped_f > 0.0 {
            // Spread over the element's die-side nodes by branch weight.
            let total_g: f64 = element.branches.iter().map(|&(_, _, g)| g).sum();
            for &(node, _, g) in &element.branches {
                cap[node] += lumped_f * g / total_g;
            }
        }
    }

    // Augmented matrix G + C/dt.
    let dt = options.dt_ns * 1e-9;
    let mut builder = CooBuilder::with_capacity(n, mesh.matrix().nnz() + n);
    for i in 0..n {
        for (j, g) in mesh.matrix().row(i) {
            builder.add(i, j, g);
        }
        builder.add(i, i, cap[i] / dt);
    }
    let augmented: CsrMatrix = builder.into_csr()?;

    // Load waveforms: bursting state vs idle background.
    let active_loads = mesh.load_vector(state, 1.0);
    let idle_state = MemoryState::idle(state.die_count());
    let idle_loads = mesh.load_vector(&idle_state, 1.0);

    // DC reference at full load.
    let dc_mv = mesh.max_ir(state, 1.0)?.value();

    // Factor the augmented matrix once; every backward-Euler step reuses
    // the preconditioner instead of rebuilding it per step. G + C/dt
    // differs from G only on the diagonal, so it keeps the mesh's grid
    // geometry (the stencil operator and multigrid both need it).
    let stepper = PreparedSystem::with_geometry(
        augmented,
        mesh.options().preconditioner,
        CgSolver::new().with_tolerance(1e-8),
        &mesh.registry().stencil_grids(),
    )?;
    let mut v = vec![0.0f64; n];
    let mut rhs = vec![0.0f64; n];
    let mut max_drop_mv = Vec::with_capacity(options.steps);
    let mut peak = 0.0f64;
    let on_steps = (options.burst_period as f64 * options.duty).round() as usize;

    let _steps_span = pi3d_telemetry::span::span("time_stepping");
    pi3d_telemetry::metrics::counter("mesh.transient_steps").incr(options.steps as u64);
    for step in 0..options.steps {
        let bursting = step % options.burst_period < on_steps;
        let loads = if bursting { &active_loads } else { &idle_loads };
        for i in 0..n {
            rhs[i] = loads[i] + cap[i] / dt * v[i];
        }
        let solution = stepper.solve(&rhs, Some(&v))?;
        v = solution.x;
        let drop = max_dram_drop(&mesh, &v);
        peak = peak.max(drop);
        max_drop_mv.push(drop * 1e3);
    }

    Ok(TransientResult {
        max_drop_mv,
        peak_mv: peak * 1e3,
        dc_mv,
    })
}

fn max_dram_drop(mesh: &StackMesh, v: &[f64]) -> f64 {
    let mut max = 0.0f64;
    for (_, grid) in mesh.registry().iter() {
        if grid.kind.is_logic() {
            continue;
        }
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                max = max.max(v[grid.node(ix, iy)]);
            }
        }
    }
    max
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pi3d_layout::Benchmark;
    use pi3d_solver::Preconditioner;

    fn tiny_mesh() -> MeshOptions {
        MeshOptions {
            dram_nx: 10,
            dram_ny: 10,
            ..MeshOptions::coarse()
        }
    }

    #[test]
    fn transient_converges_to_the_dc_level_without_decap() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let options = TransientOptions {
            decap: DecapSpec::none(),
            steps: 80,
            burst_period: 1_000, // always on
            duty: 1.0,
            ..TransientOptions::default()
        };
        let state = "0-0-0-2".parse().unwrap();
        let result = run_transient(&design, tiny_mesh(), options, &state).unwrap();
        // With zero capacitance the network is memoryless: every step is
        // the DC solution.
        let last = *result.max_drop_mv.last().unwrap();
        assert!(
            (last - result.dc_mv).abs() / result.dc_mv < 1e-3,
            "{last} vs {}",
            result.dc_mv
        );
        assert!((result.overshoot() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn multigrid_stepper_matches_incomplete_cholesky() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let state = "0-0-0-2".parse().unwrap();
        let run = |preconditioner| {
            let mesh = MeshOptions {
                dram_nx: 12,
                dram_ny: 12,
                preconditioner,
                ..MeshOptions::coarse()
            };
            let options = TransientOptions {
                steps: 20,
                ..TransientOptions::default()
            };
            run_transient(&design, mesh, options, &state).unwrap()
        };
        let ic0 = run(Preconditioner::IncompleteCholesky);
        let mg = run(Preconditioner::Multigrid);
        // Both steppers solve to the same CG tolerance (1e-8 relative).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs();
        assert!(close(ic0.dc_mv, mg.dc_mv), "{} vs {}", ic0.dc_mv, mg.dc_mv);
        assert_eq!(ic0.max_drop_mv.len(), mg.max_drop_mv.len());
        for (step, (a, b)) in ic0.max_drop_mv.iter().zip(&mg.max_drop_mv).enumerate() {
            assert!(close(*a, *b), "step {step}: IC(0) {a} mV vs MG {b} mV");
        }
    }

    #[test]
    fn decap_smooths_the_burst_train() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let state = "0-0-0-2".parse().unwrap();
        let without = run_transient(
            &design,
            tiny_mesh(),
            TransientOptions {
                decap: DecapSpec::none(),
                ..TransientOptions::default()
            },
            &state,
        )
        .unwrap();
        let with =
            run_transient(&design, tiny_mesh(), TransientOptions::default(), &state).unwrap();
        assert!(
            with.peak_mv < without.peak_mv,
            "decap failed to reduce the peak: {} vs {}",
            with.peak_mv,
            without.peak_mv
        );
    }

    #[test]
    fn wire_bonded_decap_improves_ac_integrity() {
        // The §4.1 claim: bond wires reach large off-chip decaps. Compare
        // the same wire-bonded design with and without the decap those
        // wires reach — the capacitance (not just the wires' DC path)
        // must lower the transient peak.
        let state = "0-0-0-2".parse().unwrap();
        let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .wire_bond(true)
            .build()
            .unwrap();
        let run = |wirebond_nf: f64| {
            let decap = DecapSpec {
                wirebond_nf,
                ..DecapSpec::typical()
            };
            run_transient(
                &design,
                tiny_mesh(),
                TransientOptions {
                    decap,
                    ..TransientOptions::default()
                },
                &state,
            )
            .unwrap()
        };
        let without_wire_decap = run(0.0);
        let with_wire_decap = run(100.0);
        assert!(
            with_wire_decap.peak_mv < without_wire_decap.peak_mv,
            "wire-reachable decap failed to help: {} vs {}",
            with_wire_decap.peak_mv,
            without_wire_decap.peak_mv
        );
        // And the wire-bonded design still beats the plain one in absolute
        // transient peak.
        let plain = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let plain_result =
            run_transient(&plain, tiny_mesh(), TransientOptions::default(), &state).unwrap();
        assert!(with_wire_decap.peak_mv < plain_result.peak_mv);
    }
}
