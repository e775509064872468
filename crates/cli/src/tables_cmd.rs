//! `pi3d tables [--quick] [NAME ...]`: regenerates the paper's tables and
//! figures and prints each in the paper's shape (the recorded run is
//! `tables_output.txt`, which EXPERIMENTS.md quotes).
//!
//! With no names every experiment runs, in [`EXPERIMENTS`] order. `--quick`
//! switches to the coarse mesh and reduced workloads. `--threads` sets how
//! many independent solves and simulations run at once (default: every
//! core); the output is bit-identical for every value.

use crate::{mesh_options_from, threads_or_all_cores, Args};
use pi3d_core::{experiments, CoreError};
use pi3d_layout::units::MilliVolts;
use pi3d_memsim::WorkloadSpec;
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::CancelToken;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// One section: its name, and how it runs from the mesh options (coarse
/// under `--quick`) and whether `--quick` is set.
type Experiment = (
    &'static str,
    fn(&MeshOptions, bool) -> Result<String, CoreError>,
);

/// Every experiment, in run order: the paper's sections, the extension
/// studies, and Table 9's co-optimization last, as by far the most
/// expensive.
const EXPERIMENTS: [Experiment; 17] = [
    ("calibration", |o, _| text(experiments::calibration::run(o))),
    ("fig4", |o, _| text(experiments::fig4::run(o))),
    ("metal", |o, _| text(experiments::metal_usage::run(o))),
    ("mounting", |o, _| text(experiments::mounting::run(o))),
    ("fig5", |o, _| text(experiments::fig5::run(o))),
    ("table2", |o, _| text(experiments::table2::run(o))),
    ("table3", |o, _| text(experiments::table3::run(o))),
    ("table4", |o, _| text(experiments::table4::run(o))),
    ("table5", |o, _| text(experiments::table5::run(o))),
    ("table6", |o, quick| {
        let workload = workload(quick, 3_000);
        text(experiments::table6::run_with(o, workload, MilliVolts(24.0)))
    }),
    ("table7", |o, _| text(experiments::table7::run(o))),
    ("fig9", |o, quick| {
        let constraints: Vec<f64> = (7..=17).map(|c| 2.0 * c as f64).collect();
        text(experiments::fig9::run_with(
            o,
            workload(quick, 2_000),
            &constraints,
        ))
    }),
    ("convergence", |_, quick| {
        let grids: &[usize] = if quick {
            &[10, 16, 24]
        } else {
            &[10, 16, 24, 32, 40]
        };
        text(experiments::convergence::run(grids))
    }),
    ("ablation", |o, _| text(experiments::ablation::run(o))),
    // The coarse mesh regardless of --quick, with --threads for the
    // per-benchmark policy fan-out.
    ("policies-x", |o, quick| {
        let coarse = MeshOptions {
            threads: o.threads,
            ..MeshOptions::coarse()
        };
        let reads = if quick { 2_000 } else { 5_000 };
        text(experiments::policy_cross::run(&coarse, reads))
    }),
    ("ac", |_, _| {
        text(experiments::ac::run(&MeshOptions::coarse()))
    }),
    // Co-optimization characterizes thousands of meshes: always the
    // coarse mesh (the regression averages out discretization).
    ("table9", |o, _| {
        text(experiments::table9::run(&MeshOptions::coarse(), o.threads))
    }),
];

/// An experiment's result as the table it prints.
fn text(result: Result<impl fmt::Display, CoreError>) -> Result<String, CoreError> {
    result.map(|table| table.to_string())
}

/// The paper's DDR3 read workload, cut to `quick_reads` reads under
/// `--quick`.
fn workload(quick: bool, quick_reads: usize) -> WorkloadSpec {
    let mut workload = WorkloadSpec::paper_ddr3();
    if quick {
        workload.count = quick_reads;
    }
    workload
}

/// The experiment names in run order, six to a line; every line after
/// the first starts with `indent`.
pub(crate) fn names(indent: &str) -> String {
    EXPERIMENTS
        .chunks(6)
        .map(|line| line.iter().map(|(name, _)| *name).collect::<Vec<_>>())
        .map(|line| line.join(" "))
        .collect::<Vec<_>>()
        .join(&format!("\n{indent}"))
}

pub(crate) fn tables_command(args: &Args) -> Result<(), Box<dyn Error>> {
    let names_given = &args.positional[1..];
    if let Some(unknown) = names_given
        .iter()
        .find(|given| !EXPERIMENTS.iter().any(|(name, _)| given == name))
    {
        return Err(format!(
            "unknown experiment {unknown:?}; valid names:\n  {}",
            names("  ")
        )
        .into());
    }
    let quick = args.has("quick");
    let base = if quick {
        MeshOptions::coarse()
    } else {
        MeshOptions::default()
    };
    let mut options = mesh_options_from(args, base)?;
    options.threads = threads_or_all_cores(args, &options);
    let sections: Vec<Experiment> = EXPERIMENTS
        .into_iter()
        .filter(|(name, _)| names_given.is_empty() || names_given.iter().any(|n| n == name))
        .collect();
    run_sections(&sections, &options, quick, &CancelToken::global())
}

/// Runs `sections` in order, each printed as a titled block and recorded
/// in the run report's `experiments`. A failed section is printed and the
/// rest still run. `cancel` is checked before each section.
fn run_sections(
    sections: &[Experiment],
    options: &MeshOptions,
    quick: bool,
    cancel: &CancelToken,
) -> Result<(), Box<dyn Error>> {
    let mut failures = 0usize;
    for (ran, &(name, run)) in sections.iter().enumerate() {
        if cancel.is_cancelled() {
            let total = sections.len();
            let cause = CoreError::Cancelled {
                completed: ran,
                total,
            };
            return Err(Cancelled { ran, total, cause }.into());
        }
        println!("================================================================");
        println!("[{name}]");
        let t0 = Instant::now();
        let result = {
            let _phase = pi3d_telemetry::span::span(name);
            run(options, quick)
        };
        match &result {
            Ok(text) => {
                println!("{text}");
                println!("({name} finished in {:.1?})\n", t0.elapsed());
            }
            Err(e) => {
                println!("{name} FAILED: {e}\n");
                failures += 1;
            }
        }
        pi3d_telemetry::report::record_experiment(name, t0.elapsed().as_secs_f64(), result.is_ok());
    }
    if failures > 0 {
        return Err(format!("{failures} experiment(s) failed").into());
    }
    Ok(())
}

/// A `pi3d tables` run stopped before a section by Ctrl-C, SIGTERM or
/// `--cancel-file`. Sections keep no journal: a rerun starts over.
#[derive(Debug)]
struct Cancelled {
    ran: usize,
    total: usize,
    /// The sweep layer's cancellation, which `exit_code_for` maps to 130
    /// (143 under SIGTERM). Its own text, which speaks of journals, is
    /// not shown.
    cause: CoreError,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tables cancelled after {} of {} experiments \
             (nothing is journaled; rerun the ones that did not print)",
            self.ran, self.total
        )
    }
}

impl Error for Cancelled {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.cause)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pi3d_core::serve::{exit_code_for, status_label};

    #[test]
    fn a_cancelled_run_starts_no_section_and_exits_130() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let trap: Experiment = ("trap", |_, _| panic!("a cancelled run started a section"));
        let err = run_sections(&[trap], &MeshOptions::coarse(), true, &cancel).unwrap_err();
        let code = exit_code_for(err.as_ref());
        assert_eq!(code, 130);
        assert_eq!(status_label(code), "cancelled");
        let message = err.to_string();
        assert!(message.contains("after 0 of 1 experiments"), "{message}");
        assert!(!message.contains("resume"), "{message}");
    }
}
