//! SPICE netlist export of the assembled R-Mesh.
//!
//! The paper solves its R-Mesh with HSPICE; this exporter writes the exact
//! equivalent resistive network as a SPICE deck so any external circuit
//! simulator can cross-check the built-in solver. The deck is expressed in
//! the same reduced form the solver uses: node voltages *are* IR drops
//! (the ideal supply is SPICE ground), load currents are injected by
//! current sources, and supply contacts appear as resistors to ground.

use crate::build::StackMesh;
use std::io::{self, Write};

/// Writes the mesh and a load vector as a SPICE `.op` deck.
///
/// Node `n<i>` carries the IR drop of mesh node `i`; SPICE node `0` is the
/// ideal supply. Every matrix off-diagonal becomes one resistor and every
/// node's net conductance-to-ground becomes a grounding resistor, so the
/// deck's operating point reproduces the solver's drop vector exactly.
/// Values are written in the shortest exponent form that parses back to
/// the same `f64` bits, so the deck loses no precision.
///
/// # Errors
///
/// Propagates I/O errors from the writer, and rejects a load vector whose
/// length differs from the mesh's node count with
/// [`io::ErrorKind::InvalidInput`].
///
/// # Examples
///
/// ```
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::{export_spice, MeshOptions, StackMesh};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let mesh = StackMesh::new(&design, MeshOptions::coarse())?;
/// let loads = mesh.load_vector(&"0-0-0-2".parse()?, 1.0);
/// let mut deck = Vec::new();
/// export_spice(&mesh, &loads, "stacked DDR3 baseline", &mut deck)?;
/// let text = String::from_utf8(deck)?;
/// assert!(text.starts_with("* stacked DDR3 baseline"));
/// assert!(text.trim_end().ends_with(".end"));
/// # Ok(())
/// # }
/// ```
pub fn export_spice<W: Write>(
    mesh: &StackMesh,
    loads: &[f64],
    title: &str,
    mut writer: W,
) -> io::Result<()> {
    let matrix = mesh.matrix();
    let n = matrix.dim();
    if loads.len() != n {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("load vector has {} entries for {n} mesh nodes", loads.len()),
        ));
    }

    writeln!(writer, "* {title}")?;
    writeln!(
        writer,
        "* pi3d R-Mesh export: {n} nodes, node voltage = IR drop (V)"
    )?;
    writeln!(writer, "* SPICE ground (0) is the ideal supply")?;

    let mut resistors = 0usize;
    for i in 0..n {
        let mut to_ground = 0.0;
        for (j, g) in matrix.row(i) {
            if j == i {
                to_ground += g;
            } else {
                to_ground += g; // off-diagonals are negative: subtracts
                if j > i {
                    // One resistor per symmetric pair.
                    resistors += 1;
                    writeln!(writer, "R{i}_{j} n{i} n{j} {:e}", -1.0 / g)?;
                }
            }
        }
        if to_ground > 1e-15 {
            resistors += 1;
            writeln!(writer, "RG{i} n{i} 0 {:e}", 1.0 / to_ground)?;
        }
    }

    let mut sources = 0usize;
    for (i, &amps) in loads.iter().enumerate() {
        if amps != 0.0 {
            sources += 1;
            // Current flows out of the node toward SPICE ground, producing
            // a positive node voltage (= IR drop).
            writeln!(writer, "I{i} n{i} 0 DC {amps:e}")?;
        }
    }

    writeln!(writer, "* {resistors} resistors, {sources} current sources")?;
    writeln!(writer, ".op")?;
    writeln!(writer, ".end")?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::MeshOptions;
    use pi3d_layout::{Benchmark, MemoryState, StackDesign};
    use std::collections::HashMap;

    fn deck() -> (StackMesh, Vec<f64>, String) {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mesh = StackMesh::new(
            &design,
            MeshOptions {
                dram_nx: 8,
                dram_ny: 8,
                ..MeshOptions::coarse()
            },
        )
        .unwrap();
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let loads = mesh.load_vector(&state, 1.0);
        let mut buf = Vec::new();
        export_spice(&mesh, &loads, "test deck", &mut buf).unwrap();
        (mesh, loads, String::from_utf8(buf).unwrap())
    }

    /// Parses the deck back into a nodal conductance matrix and load
    /// vector, and checks it reproduces the original system exactly.
    #[test]
    fn deck_round_trips_to_the_same_system() {
        let (mesh, loads, text) = deck();
        let n = mesh.node_count();
        let mut g = HashMap::<(usize, usize), f64>::new();
        let mut parsed_loads = vec![0.0; n];

        let node = |tok: &str| -> Option<usize> {
            if tok == "0" {
                None
            } else {
                Some(tok.trim_start_matches('n').parse().expect("node id"))
            }
        };

        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let Some(name) = parts.next() else { continue };
            if name.starts_with('R') {
                let a = node(parts.next().unwrap());
                let b = node(parts.next().unwrap());
                let r: f64 = parts.next().unwrap().parse().unwrap();
                let cond = 1.0 / r;
                match (a, b) {
                    (Some(i), Some(j)) => {
                        *g.entry((i, i)).or_default() += cond;
                        *g.entry((j, j)).or_default() += cond;
                        *g.entry((i, j)).or_default() -= cond;
                        *g.entry((j, i)).or_default() -= cond;
                    }
                    (Some(i), None) | (None, Some(i)) => {
                        *g.entry((i, i)).or_default() += cond;
                    }
                    _ => panic!("resistor between ground and ground"),
                }
            } else if name.starts_with('I') {
                let a = node(parts.next().unwrap()).expect("source from a node");
                let _gnd = parts.next();
                let _dc = parts.next();
                let amps: f64 = parts.next().unwrap().parse().unwrap();
                parsed_loads[a] += amps;
            }
        }

        // Compare against the original matrix (relative tolerance covers
        // re-summing the conductances in a different order).
        let matrix = mesh.matrix();
        for i in 0..n {
            for (j, v) in matrix.row(i) {
                let parsed = g.get(&(i, j)).copied().unwrap_or(0.0);
                let scale = v.abs().max(1e-12);
                assert!(
                    (parsed - v).abs() / scale < 1e-4,
                    "G[{i}][{j}]: parsed {parsed} vs {v}"
                );
            }
        }
        for i in 0..n {
            let scale = loads[i].abs().max(1e-12);
            assert!(
                (parsed_loads[i] - loads[i]).abs() / scale < 1e-4,
                "load {i}"
            );
        }
    }

    /// Every value in the coarse baseline deck parses back to the exact
    /// bits the exporter computed from the matrix and the load vector.
    #[test]
    fn deck_values_parse_back_bit_for_bit() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mesh = StackMesh::new(&design, MeshOptions::coarse()).unwrap();
        let loads = mesh.load_vector(&"0-0-0-2".parse().unwrap(), 1.0);
        let mut buf = Vec::new();
        export_spice(&mesh, &loads, "coarse baseline", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        let mut want = HashMap::<String, f64>::new();
        let matrix = mesh.matrix();
        for i in 0..matrix.dim() {
            let mut to_ground = 0.0;
            for (j, g) in matrix.row(i) {
                to_ground += g;
                if j > i {
                    want.insert(format!("R{i}_{j}"), -1.0 / g);
                }
            }
            if to_ground > 1e-15 {
                want.insert(format!("RG{i}"), 1.0 / to_ground);
            }
        }
        for (i, &amps) in loads.iter().enumerate() {
            if amps != 0.0 {
                want.insert(format!("I{i}"), amps);
            }
        }

        let mut seen = 0usize;
        for line in text.lines() {
            let Some(name) = line.split_whitespace().next() else {
                continue;
            };
            if !(name.starts_with('R') || name.starts_with('I')) {
                continue;
            }
            let written = line.split_whitespace().last().unwrap();
            let parsed: f64 = written.parse().unwrap();
            let expected = want[name];
            assert_eq!(
                parsed.to_bits(),
                expected.to_bits(),
                "{name}: wrote {written}, value {expected:e}"
            );
            seen += 1;
        }
        assert_eq!(seen, want.len(), "every element written once");
    }

    #[test]
    fn deck_is_well_formed() {
        let (_, _, text) = deck();
        assert!(text.starts_with("* test deck"));
        assert!(text.contains(".op"));
        assert!(text.trim_end().ends_with(".end"));
        // Every non-comment line is a component or a control card.
        for line in text.lines() {
            assert!(
                line.starts_with('*')
                    || line.starts_with('R')
                    || line.starts_with('I')
                    || line.starts_with('.'),
                "unexpected line: {line}"
            );
        }
    }
}
