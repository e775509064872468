//! The one-line JSON result every run prints last.

use crate::stats::{percentile, LoopResult};
use std::fmt::Write as _;

/// Every per-layer metric of a traced run, with its unit. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("layout.design_ms", "ms"),
    ("layout.load_vector_ms", "ms"),
    ("mesh.assemble_ms", "ms"),
    ("mesh.nodes", "count"),
    ("solver.precond_setup_ms", "ms"),
    ("solver.cg_ms", "ms"),
    ("solver.cg_iters", "count"),
    ("solver.ms_per_iter", "ms"),
    ("solver.stencil_share", "ratio"),
    ("core.lut_build_ms", "ms"),
    ("memsim.generate_ms", "ms"),
    ("memsim.run_ms", "ms"),
    ("memsim.skip_ratio", "ratio"),
    ("memsim.admission_hit_ratio", "ratio"),
    ("serve.engine_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The end-to-end report of an untraced run.
    pub fn end_to_end(
        run: &LoopResult,
        setup_s: f64,
        peak_rss_mb: f64,
        correct: bool,
    ) -> Result<Report, String> {
        let sorted = run.sorted_ms();
        Ok(Report {
            correct: correct && run.failed == 0,
            attempted: run.attempted(),
            failed: run.failed,
            metrics: vec![
                ("setup_s", setup_s, "s"),
                ("p50_ms", percentile(&sorted, 50.0)?, "ms"),
                ("p90_ms", percentile(&sorted, 90.0)?, "ms"),
                ("ops_per_s", run.ops_per_s(), "1/s"),
                ("peak_rss_mb", peak_rss_mb, "MB"),
            ],
        })
    }

    /// The per-layer report of a traced run: every [`PER_LAYER`] metric,
    /// taking values from `values` and 0 for the rest.
    pub fn per_layer(
        run: &LoopResult,
        values: &[(&'static str, f64)],
        correct: bool,
    ) -> Result<Report, String> {
        for (name, _) in values {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                return Err(format!("unknown per-layer metric {name}"));
            }
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, v, unit)
            })
            .collect();
        Ok(Report {
            correct: correct && run.failed == 0,
            attempted: run.attempted(),
            failed: run.failed,
            metrics,
        })
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}
