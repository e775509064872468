//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer; written out as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_us: self.t0.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans[id].dur_us = now - self.spans[id].start_us;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].dur_us / 1e3
    }

    /// Per-call durations (ms) of every span with `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_us;
            }
        }
        out
    }

    /// Chrome trace-event JSON (Perfetto-loadable), with each span's id,
    /// parent and self time in `args`, plus a per-name self-time summary.
    pub fn to_json(&self, workload: &str) -> String {
        let self_us = self.self_us();
        let mut summary: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            e.2 += self_us[i];
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_us,
                s.dur_us,
                self_us[i],
            );
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"schema\":\"perfbench.trace.v1\",\"workload\":\"{workload}\"}},\"summary\":{{"
        );
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"count\":{count},\"total_us\":{total:.3},\"self_us\":{own:.3}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let op = t.begin("op", None);
        let a = t.begin("a", Some(op));
        let b = t.begin("b", Some(a));
        t.end(b);
        t.end(a);
        t.end(op);
        t.spans[op].dur_us = 10.0;
        t.spans[a].dur_us = 6.0;
        t.spans[b].dur_us = 4.0;
        assert_eq!(t.self_us(), vec![4.0, 2.0, 4.0]);
        assert!(t.to_json("x").contains("\"parent\":0"));
    }
}
