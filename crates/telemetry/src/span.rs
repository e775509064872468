//! RAII phase timers that aggregate into a per-run timing tree.
//!
//! [`span`] pushes a name onto a thread-local path stack and returns a
//! guard; when the guard drops, the elapsed time is folded into a global
//! table keyed by the slash-joined path (`"mesh_build/stamp"`). Nested
//! spans therefore produce a tree: children carry their parents' prefix,
//! and [`snapshot`] returns the aggregate per path, sorted so a parent
//! precedes its children. A [`crate::par`] worker thread starts from the
//! path open where its work was handed out, so work fanned across threads
//! lands under the same parent as work run inline; the children of such a
//! parent can then sum to more than its wall time.
//!
//! ```
//! use pi3d_telemetry::span;
//!
//! {
//!     let _solve = span::span("solve");
//!     let _cg = span::span("cg");
//!     // ... work ...
//! }
//! let phases = span::snapshot();
//! assert!(phases.iter().any(|p| p.path == "solve"));
//! assert!(phases.iter().any(|p| p.path == "solve/cg"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

#[derive(Debug, Default, Clone, Copy)]
struct PhaseAgg {
    calls: u64,
    total_ns: u128,
}

fn table() -> MutexGuard<'static, BTreeMap<String, PhaseAgg>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, PhaseAgg>>> = OnceLock::new();
    TABLE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("span table poisoned")
}

thread_local! {
    static PATH: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`span`]; records its elapsed time when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    depth: usize,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        // Every phase span doubles as a trace slice when the flight
        // recorder is on (one relaxed load when it is off).
        crate::trace::complete_at("phase", self.name, self.start, elapsed);
        PATH.with(|p| {
            let mut stack = p.borrow_mut();
            // Guards dropped out of order (e.g. mem::forget games) would
            // desync the stack; truncate defensively to this span's depth.
            stack.truncate(self.depth);
            let path = stack.join("/");
            stack.pop();
            let mut tab = table();
            let agg = tab.entry(path).or_default();
            agg.calls += 1;
            agg.total_ns += elapsed.as_nanos();
        });
        if self.depth == 1 {
            // A closing top-level phase stamps the peak RSS reached by
            // its end (best-effort, Linux /proc).
            crate::mem::record_phase_peak(self.name);
        }
    }
}

/// Opens a named span under the innermost span open on this thread.
pub fn span(name: &'static str) -> Span {
    let depth = PATH.with(|p| {
        let mut stack = p.borrow_mut();
        stack.push(name);
        stack.len()
    });
    Span {
        name,
        start: Instant::now(),
        depth,
    }
}

/// The span path open on this thread.
pub(crate) fn current_path() -> Vec<&'static str> {
    PATH.with(|p| p.borrow().clone())
}

/// Makes `path` this thread's open span path, so the spans it opens nest
/// under the spans open on the thread that handed it work.
pub(crate) fn adopt_path(path: Vec<&'static str>) {
    PATH.with(|p| *p.borrow_mut() = path);
}

/// Aggregate timing for one node of the phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Slash-joined span path, e.g. `"mesh_build/stamp"`.
    pub path: String,
    /// Times a span completed at this path.
    pub calls: u64,
    /// Total nanoseconds across all calls.
    pub total_ns: u128,
}

impl PhaseTiming {
    /// Nesting depth (number of path components minus one).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Last path component.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Copies the aggregated phase tree, path-sorted (parents before
/// children).
pub fn snapshot() -> Vec<PhaseTiming> {
    table()
        .iter()
        .map(|(path, agg)| PhaseTiming {
            path: path.clone(),
            calls: agg.calls,
            total_ns: agg.total_ns,
        })
        .collect()
}

/// Clears all aggregated timings (used between runs and in tests).
pub fn reset() {
    table().clear();
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    use crate::test_support::serial;

    fn phase<'a>(snap: &'a [PhaseTiming], path: &str) -> &'a PhaseTiming {
        snap.iter()
            .find(|p| p.path == path)
            .unwrap_or_else(|| panic!("missing phase {path:?}"))
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let _guard = serial();
        reset();
        {
            let _outer = span("t_outer");
            {
                let _inner = span("t_inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _inner = span("t_inner");
            }
        }
        let snap = snapshot();
        assert_eq!(phase(&snap, "t_outer").calls, 1);
        let inner = phase(&snap, "t_outer/t_inner");
        assert_eq!(inner.calls, 2);
        assert!(inner.total_ns >= 1_000_000);
        assert!(phase(&snap, "t_outer").total_ns >= inner.total_ns);
        assert_eq!(inner.depth(), 1);
        assert_eq!(inner.name(), "t_inner");
    }

    #[test]
    fn sibling_threads_do_not_nest_into_each_other() {
        let _guard = serial();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _sp = span("t_thread");
                });
            }
        });
        let snap = snapshot();
        assert_eq!(phase(&snap, "t_thread").calls, 4);
        assert!(!snap.iter().any(|p| p.path == "t_thread/t_thread"));
    }

    #[test]
    fn sequential_spans_at_top_level_aggregate() {
        let _guard = serial();
        reset();
        for _ in 0..3 {
            let _sp = span("t_seq");
        }
        assert_eq!(phase(&snapshot(), "t_seq").calls, 3);
    }
}
