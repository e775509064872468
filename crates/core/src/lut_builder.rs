use crate::error::CoreError;
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{DieState, MemoryState};
use pi3d_memsim::IrDropLut;
use pi3d_mesh::StackMesh;

/// I/O-activity levels tabulated in the lookup table. They bracket the
/// zero-bubble implied activities of 1–4 active dies (1, 1/2, 1/3, 1/4)
/// plus a deep-throttle level for tight IR-drop constraints.
pub const LUT_ACTIVITIES: [f64; 5] = [0.10, 0.25, 1.0 / 3.0, 0.5, 1.0];

/// The right-hand sides of the LUT's superposition basis (see
/// [`build_ir_lut_from_mesh`]): the all-idle background, then per die and
/// powered-bank count `1..=max_banks_per_die` the activity-independent
/// and the per-unit-activity load contributions, isolated by differencing
/// single-active-die states against the background.
///
/// Not part of the crate's API: it is exported, hidden, only for the
/// lockstep oracle test (`tests/lockstep_oracle.rs`), which runs in a
/// process of its own because it reads the process-wide solver counters.
pub fn lut_basis_loads(mesh: &StackMesh, max_banks_per_die: usize) -> Vec<Vec<f64>> {
    let dies = mesh.design().dram_die_count();
    let idle = MemoryState::idle(dies);
    let background = mesh.load_vector(&idle, 0.0);
    let mut rhs: Vec<Vec<f64>> = Vec::with_capacity(1 + 2 * dies * max_banks_per_die);
    rhs.push(background.clone());
    for die in 0..dies {
        for count in 1..=max_banks_per_die {
            let state = idle.with_die(die, DieState::active(count));
            let at0 = mesh.load_vector(&state, 0.0);
            let at1 = mesh.load_vector(&state, 1.0);
            rhs.push(at0.iter().zip(&background).map(|(a, b)| a - b).collect());
            rhs.push(at1.iter().zip(&at0).map(|(a, b)| a - b).collect());
        }
    }
    rhs
}

/// Builds the IR-drop lookup table of Section 5.2: the max IR drop of
/// every memory state with up to `max_banks_per_die` powered banks per
/// die, at each tabulated I/O activity, using the design's R-Mesh.
///
/// The mesh may come from [`Platform::evaluate`](crate::Platform::evaluate)
/// or straight from [`StackMesh::new`], as the fault-injected meshes of a
/// [`fault sweep`](crate::run_fault_sweep) do; the table reflects whatever
/// defects the mesh was assembled with.
///
/// Bank locations use the paper's default worst case (group `A`), matching
/// the conservative table the memory controller schedules against.
///
/// # Superposition
///
/// The R-Mesh is a linear system and the per-die power map is affine in
/// the I/O activity, so the drop map of any state decomposes exactly:
///
/// ```text
/// v(state, a) = v_bg + Σ_d v_static(d, c_d) + a · Σ_d v_dynamic(d, c_d)
/// ```
///
/// where `v_bg` is the all-idle background (standby + logic die),
/// `v_static(d, c)` the activity-independent contribution of die `d`
/// holding `c` powered banks, and `v_dynamic(d, c)` its per-unit-activity
/// contribution. Building the table therefore takes
/// `1 + 2 · dies · max_banks_per_die` solves — the basis — instead of
/// `(max+1)^dies × activities`; the basis right-hand sides go through
/// [`pi3d_solver::PreparedSystem::solve_batch`], so they reuse the
/// preconditioner factored at mesh assembly and, with IC(0), run four at a
/// time in lockstep on each of the configured worker threads. Both the
/// basis and the recombination are evaluated in a fixed order, so the
/// table is bit-identical for every thread count.
///
/// # Errors
///
/// Propagates solver failures from the mesh.
///
/// # Examples
///
/// ```no_run
/// use pi3d_core::{build_ir_lut_from_mesh, Platform};
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::MeshOptions;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new(MeshOptions::coarse());
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let mesh = platform.evaluate(&design)?;
/// let lut = build_ir_lut_from_mesh(&mesh, 2)?;
/// assert!(lut.lookup(&[0, 0, 0, 2], 1.0).is_some());
/// # Ok(())
/// # }
/// ```
pub fn build_ir_lut_from_mesh(
    mesh: &StackMesh,
    max_banks_per_die: usize,
) -> Result<IrDropLut, CoreError> {
    let _span = pi3d_telemetry::span::span("lut_build");
    let dies = mesh.design().dram_die_count();
    let basis = mesh
        .prepared()
        .solve_batch(&lut_basis_loads(mesh, max_banks_per_die))?;
    // Basis layout: [0] = background, then per (die, count) the pair
    // (static, dynamic) at 1 + 2·(die·max + count−1).
    let pair = |die: usize, count: u8| 1 + 2 * (die * max_banks_per_die + count as usize - 1);

    let mut lut = IrDropLut::new(dies);
    let n = basis[0].x.len();
    let mut stat = vec![0.0f64; n];
    let mut dynamic = vec![0.0f64; n];
    for counts in enumerate_states(dies, max_banks_per_die) {
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        stat.copy_from_slice(&basis[0].x);
        dynamic.fill(0.0);
        for (die, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let i = pair(die, c);
            for (out, v) in stat.iter_mut().zip(&basis[i].x) {
                *out += v;
            }
            for (out, v) in dynamic.iter_mut().zip(&basis[i + 1].x) {
                *out += v;
            }
        }
        for &activity in &LUT_ACTIVITIES {
            lut.insert(
                &counts,
                activity,
                max_dram_drop(mesh, &stat, &dynamic, activity),
            );
        }
    }
    Ok(lut)
}

/// Max drop over the DRAM (non-logic) grids of `stat + activity·dynamic`.
fn max_dram_drop(mesh: &StackMesh, stat: &[f64], dynamic: &[f64], activity: f64) -> MilliVolts {
    let mut max = f64::MIN;
    for (_, grid) in mesh.registry().iter() {
        if grid.kind.is_logic() {
            continue;
        }
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let node = grid.node(ix, iy);
                max = max.max(stat[node] + activity * dynamic[node]);
            }
        }
    }
    MilliVolts(max * 1e3)
}

/// Enumerates every per-die bank-count vector with entries `0..=max`.
pub(crate) fn enumerate_states(dies: usize, max: usize) -> Vec<Vec<u8>> {
    let mut states: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..dies {
        states = states
            .into_iter()
            .flat_map(|s| {
                (0..=max as u8).map(move |c| {
                    let mut s = s.clone();
                    s.push(c);
                    s
                })
            })
            .collect();
    }
    states
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use pi3d_layout::{Benchmark, StackDesign};
    use pi3d_mesh::MeshOptions;

    #[test]
    fn enumerate_covers_the_whole_cube() {
        let states = enumerate_states(4, 2);
        assert_eq!(states.len(), 81);
        assert!(states.contains(&vec![0, 0, 0, 0]));
        assert!(states.contains(&vec![2, 2, 2, 2]));
        assert!(states.contains(&vec![0, 1, 2, 0]));
    }

    #[test]
    fn lut_build_covers_all_nonidle_states() {
        let platform = Platform::new(MeshOptions::coarse());
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mesh = platform.evaluate(&design).unwrap();
        // Cap at 1 bank per die to keep the test fast: 2^4 - 1 states.
        let lut = build_ir_lut_from_mesh(&mesh, 1).unwrap();
        assert_eq!(lut.state_count(), 15);
        // Monotonic in activity for a fixed state.
        let low = lut.lookup(&[0, 0, 0, 1], 0.25).unwrap();
        let high = lut.lookup(&[0, 0, 0, 1], 1.0).unwrap();
        assert!(high.value() > low.value());
        // Top-die activity costs more than bottom-die activity.
        let bottom = lut.lookup(&[1, 0, 0, 0], 1.0).unwrap();
        let top = lut.lookup(&[0, 0, 0, 1], 1.0).unwrap();
        assert!(top.value() > bottom.value());
    }
}
