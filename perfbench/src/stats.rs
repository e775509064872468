//! Order statistics and the closed timing loop shared by every workload.

use std::time::Instant;

/// Fewest timed ops a run may report a p90 over: ten of them then lie
/// beyond the p90 rank.
pub const MIN_OPS_FOR_P90: usize = 100;

/// Nearest-rank percentile: the value at 1-based rank `ceil(p/100 * n)` of
/// the sorted sample. Refuses p90 and above on fewer than
/// [`MIN_OPS_FOR_P90`] samples, where fewer than ten lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    if sorted.is_empty() {
        return Err("percentile of an empty sample".into());
    }
    if p >= 90.0 && sorted.len() < MIN_OPS_FOR_P90 {
        return Err(format!(
            "p{p} needs at least {MIN_OPS_FOR_P90} samples, got {}",
            sorted.len()
        ));
    }
    Ok(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Wall time of every op, in ms, in execution order.
    pub op_ms: Vec<f64>,
    /// Ops whose answer did not match the golden file.
    pub failed: u64,
    /// Seconds from the first op's start to the last op's end.
    pub window_s: f64,
}

impl LoopResult {
    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }

    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v = self.op_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.window_s.max(1e-9)
    }
}

/// Runs ops back to back (one in flight) until `seconds` have passed, at
/// least `min_ops` ops ran, and the op count is a multiple of `cycle`, so
/// a workload whose sequence repeats every `cycle` ops always times whole
/// cycles. `op(i)` runs the `i`-th op and returns whether its answer
/// checked out; an `Err` aborts the loop.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    cycle: usize,
    mut op: impl FnMut(usize) -> Result<bool, String>,
) -> Result<LoopResult, String> {
    let mut out = LoopResult::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || i < min_ops || i % cycle.max(1) != 0 {
        let t = Instant::now();
        let ok = op(i)?;
        out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !ok {
            out.failed += 1;
        }
        i += 1;
    }
    out.window_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Peak resident set (VmHWM) of a process, in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_returns_nearest_rank_order_statistics() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0).unwrap(), 100.0);
        assert_eq!(percentile(&sorted, 90.0).unwrap(), 180.0);
        assert_eq!(percentile(&sorted, 100.0).unwrap(), 200.0);
        let odd: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&odd, 50.0).unwrap(), 51.0);
        assert_eq!(percentile(&odd, 90.0).unwrap(), 91.0);
        assert_eq!(percentile(&[7.0], 50.0).unwrap(), 7.0);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_ops() {
        let sorted: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&sorted, 90.0).is_err());
        assert!(percentile(&sorted, 50.0).is_ok());
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90.0).unwrap(), 90.0);
        // Ten samples lie beyond the p90 rank at the minimum size.
        assert_eq!(100 - rank(100, 90.0), 10);
    }

    #[test]
    fn median_handles_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
