//! The golden answer file: one line per op key, written from the
//! unchanged code by `perfbench golden`, checked on every timed op.
//!
//! Line format: `<key>\t<value> <value> ...` where a value is `i:<u64>`
//! (an exact count) or `f:<f64>` (a float, round-trip precision).
//! Solver iteration counts are not answers and are not stored: they are
//! checked only for repeating within a run ([`Checker::iterations`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Floats must agree within this relative tolerance.
pub const REL_TOL: f64 = 1e-6;

/// One answer field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// An exact count; must match bit for bit.
    I(u64),
    /// A float; must match within [`REL_TOL`].
    F(f64),
}

/// How an answer differs from its golden record.
#[derive(Debug, PartialEq)]
pub enum Mismatch {
    /// No golden record for the key.
    Missing,
    /// A float field (or the field count) differs.
    Value(String),
    /// An exact count differs: the workload itself changed.
    Count(String),
    /// The op returned an error instead of an answer.
    Error(String),
}

#[derive(Debug, Default)]
pub struct Golden {
    map: BTreeMap<String, Vec<Val>>,
}

impl Golden {
    pub fn load(path: &str) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line
                .split_once('\t')
                .ok_or_else(|| format!("line {}: no tab", n + 1))?;
            let vals = rest
                .split(' ')
                .map(|v| match v.split_at(v.find(':').unwrap_or(0)) {
                    ("i", x) => x[1..].parse().map(Val::I).map_err(|e| format!("{e}")),
                    ("f", x) => x[1..].parse().map(Val::F).map_err(|e| format!("{e}")),
                    _ => Err(format!("bad value {v:?}")),
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("line {}: {e}", n + 1))?;
            map.insert(key.to_owned(), vals);
        }
        Ok(Golden { map })
    }

    pub fn insert(&mut self, key: String, vals: Vec<Val>) {
        self.map.insert(key, vals);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench golden answers: written by `perfbench golden` from the unchanged code\n",
        );
        for (key, vals) in &self.map {
            let _ = write!(out, "{key}\t");
            for (i, v) in vals.iter().enumerate() {
                let sep = if i == 0 { "" } else { " " };
                let _ = match v {
                    Val::I(x) => write!(out, "{sep}i:{x}"),
                    Val::F(x) => write!(out, "{sep}f:{x:?}"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// Checks an answer against its golden record.
    pub fn check(&self, key: &str, got: &[Val]) -> Result<(), Mismatch> {
        let want = self.map.get(key).ok_or(Mismatch::Missing)?;
        if want.len() != got.len() {
            return Err(Mismatch::Value(format!(
                "{key}: {} fields, golden has {}",
                got.len(),
                want.len()
            )));
        }
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            match (w, g) {
                (Val::I(a), Val::I(b)) if a == b => {}
                (Val::I(a), Val::I(b)) => {
                    return Err(Mismatch::Count(format!(
                        "{key}[{i}]: count {b}, golden {a}"
                    )))
                }
                (Val::F(a), Val::F(b)) if floats_agree(*a, *b) => {}
                _ => return Err(Mismatch::Value(format!("{key}[{i}]: {g:?}, golden {w:?}"))),
            }
        }
        Ok(())
    }
}

fn floats_agree(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Tallies checks over a run: a mismatch is a failed op, and any count
/// mismatch (or missing record) makes the whole run invalid.
#[derive(Debug, Default)]
pub struct Checker {
    pub failed_ops: u64,
    pub invalid: bool,
    pub first_error: Option<String>,
    /// First solver iteration count seen per op key in this run.
    iters: HashMap<String, u64>,
}

impl Checker {
    /// Records the solver iterations an op took. They are not golden
    /// answers (a better solver may need fewer), but within one run a key
    /// must always take the same count: a repeat that differs makes the
    /// run invalid, because the workload changed, not the speed.
    pub fn iterations(&mut self, key: &str, iters: u64) {
        let first = *self.iters.entry(key.to_owned()).or_insert(iters);
        if first != iters && !self.invalid {
            eprintln!("perfbench: {key}: {iters} solver iterations, {first} earlier in this run");
            self.invalid = true;
        }
    }

    /// Sum of the first iteration count of every key seen, for comparing
    /// runs of one commit.
    pub fn iterations_total(&self) -> u64 {
        self.iters.values().sum()
    }

    /// Records one op's check; returns whether the op's answer is right.
    pub fn record(&mut self, key: &str, result: Result<(), Mismatch>) -> bool {
        let Err(m) = result else { return true };
        self.failed_ops += 1;
        let msg = match m {
            Mismatch::Missing => {
                self.invalid = true;
                format!("{key}: no golden record")
            }
            Mismatch::Count(s) | Mismatch::Error(s) => {
                self.invalid = true;
                s
            }
            Mismatch::Value(s) => s,
        };
        if self.first_error.is_none() {
            eprintln!("perfbench: answer mismatch: {msg}");
            self.first_error = Some(msg);
        }
        false
    }

    /// Records one op's outcome: its answer, or the error it returned.
    pub fn outcome(&mut self, golden: &Golden, key: &str, got: Result<Vec<Val>, String>) -> bool {
        let result = match got {
            Ok(vals) => golden.check(key, &vals),
            Err(e) => Err(Mismatch::Error(format!("{key}: {e}"))),
        };
        self.record(key, result)
    }

    /// Records one solve's outcome: its answer and iteration count, or
    /// the error it returned.
    pub fn solved(
        &mut self,
        golden: &Golden,
        key: &str,
        got: Result<(Vec<Val>, u64), String>,
    ) -> bool {
        let got = got.map(|(vals, iters)| {
            self.iterations(key, iters);
            vals
        });
        self.outcome(golden, key, got)
    }

    /// Prints the iteration total to stderr; runs of one commit that time
    /// the same set of keys print the same total.
    pub fn report_iterations(&self, workload: &str) {
        eprintln!(
            "perfbench: {workload}: {} solver iterations over {} distinct ops",
            self.iterations_total(),
            self.iters.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Golden {
        let mut g = Golden::default();
        g.insert("a/1".into(), vec![Val::F(12.345678901234), Val::I(29)]);
        g
    }

    #[test]
    fn render_and_parse_round_trip_exactly() {
        let g = sample();
        let back = Golden::parse(&g.render()).unwrap();
        assert_eq!(back.map, g.map);
    }

    #[test]
    fn exact_answer_passes_and_tiny_float_noise_is_tolerated() {
        let g = sample();
        assert_eq!(
            g.check("a/1", &[Val::F(12.345678901234), Val::I(29)]),
            Ok(())
        );
        assert_eq!(g.check("a/1", &[Val::F(12.3456789), Val::I(29)]), Ok(()));
    }

    #[test]
    fn perturbed_answers_are_flagged_as_failed_ops() {
        let g = sample();
        let mut checker = Checker::default();
        let ok = checker.record("a/1", g.check("a/1", &[Val::F(12.35), Val::I(29)]));
        assert!(!ok);
        assert_eq!(checker.failed_ops, 1);
        assert!(
            !checker.invalid,
            "a float mismatch fails the op, not the run"
        );

        let ok = checker.record(
            "a/1",
            g.check("a/1", &[Val::F(12.345678901234), Val::I(30)]),
        );
        assert!(!ok);
        assert_eq!(checker.failed_ops, 2);
        assert!(checker.invalid, "a count mismatch invalidates the run");

        assert!(!checker.record("zz", g.check("zz", &[Val::I(1)])));
        assert!(checker.record(
            "a/1",
            g.check("a/1", &[Val::F(12.345678901234), Val::I(29)])
        ));
        assert_eq!(checker.failed_ops, 3);
    }

    #[test]
    fn iteration_counts_must_repeat_within_a_run() {
        let mut checker = Checker::default();
        checker.iterations("a/1", 29);
        checker.iterations("a/2", 31);
        checker.iterations("a/1", 29);
        assert!(!checker.invalid);
        assert_eq!(checker.iterations_total(), 60);
        checker.iterations("a/1", 28);
        assert!(checker.invalid, "a changed count invalidates the run");
        assert_eq!(checker.failed_ops, 0, "but fails no op");
    }
}
