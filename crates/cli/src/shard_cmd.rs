//! Sharded-sweep CLI plumbing (DESIGN.md §19).
//!
//! One sweep command serves three roles, selected by flags:
//!
//! * **Supervisor** (`--shards N`): split the unit space into N slices,
//!   spawn N copies of this binary as lease-holding workers, monitor
//!   heartbeats, respawn crashed workers with seeded backoff, quarantine
//!   units that repeatedly kill their worker, and merge the shard
//!   journals into one verified journal. The command then re-runs
//!   in-process with `--resume` semantics on the merged journal — zero
//!   recompute — so stdout is byte-identical to a single-process run.
//! * **Worker** (`--shard-index I --shard-count N`, spawned by the
//!   supervisor, not typed by hand): run only this shard's slice of the
//!   sweep under a heartbeated lease file, journaling to the shard
//!   journal named by `--journal`.
//! * **Neither**: the ordinary single-process sweep.
//!
//! `pi3d merge-journals` exposes the verified merge standalone, for
//! stitching shard journals after the fact (e.g. a supervisor that was
//! itself killed).

use crate::{job_context, Args};
use pi3d_core::shard::{attempts_path, lease_path};
use pi3d_core::{
    merge_shard_journals, run_sharded, CoreError, HeartbeatGuard, JobContext, ShardOptions,
    ShardReport, WorkerCommand,
};
use std::path::{Path, PathBuf};

/// How a sweep command participates in a sharded run.
pub enum ShardMode {
    /// Ordinary single-process sweep.
    Single,
    /// Supervisor for N worker processes.
    Supervisor(usize),
    /// One worker, owning a slice of the unit space.
    Worker {
        /// This worker's shard index (0-based).
        index: usize,
        /// Total shard count.
        count: usize,
        /// Quarantined units to exclude entirely.
        skip: Vec<usize>,
        /// Crash suspects to retry serially after the parallel batch.
        defer: Vec<usize>,
    },
}

fn parse_unit_list(text: &str, flag: &str) -> Result<Vec<usize>, Box<dyn std::error::Error>> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| format!("--{flag} entries must be unit indices, got {s:?}").into())
        })
        .collect()
}

/// Classifies the invocation from the `--shards` (supervisor) vs
/// `--shard-index`/`--shard-count` (worker) flags.
pub fn shard_mode(args: &Args) -> Result<ShardMode, Box<dyn std::error::Error>> {
    let is_worker = args.has("shard-index") || args.has("shard-count");
    if args.has("shards") && is_worker {
        return Err(
            "--shards (supervisor) and --shard-index/--shard-count (worker) are mutually \
             exclusive"
                .into(),
        );
    }
    if let Some(n) = args.flag("shards") {
        let shards: usize = n
            .parse()
            .map_err(|_| format!("--shards must be an integer, got {n}"))?;
        if !(1..=64).contains(&shards) {
            return Err("--shards must be between 1 and 64".into());
        }
        return Ok(ShardMode::Supervisor(shards));
    }
    if !is_worker {
        return Ok(ShardMode::Single);
    }
    let field = |name: &str| -> Result<usize, Box<dyn std::error::Error>> {
        let v = args
            .flag(name)
            .ok_or("worker mode needs both --shard-index and --shard-count")?;
        v.parse::<usize>()
            .map_err(|_| format!("--{name} must be an integer, got {v}").into())
    };
    let index = field("shard-index")?;
    let count = field("shard-count")?;
    if count == 0 || index >= count {
        return Err(
            format!("--shard-index {index} is out of range for --shard-count {count}").into(),
        );
    }
    let skip = match args.flag("shard-skip") {
        Some(t) => parse_unit_list(t, "shard-skip")?,
        None => Vec::new(),
    };
    let defer = match args.flag("shard-defer") {
        Some(t) => parse_unit_list(t, "shard-defer")?,
        None => Vec::new(),
    };
    Ok(ShardMode::Worker {
        index,
        count,
        skip,
        defer,
    })
}

/// Builds a shard worker's scoped [`JobContext`] and starts its lease
/// heartbeat. The guard must stay alive for the duration of the sweep —
/// dropping it stops the heartbeat and removes the lease.
pub fn worker_context(
    args: &Args,
    index: usize,
    count: usize,
    skip: Vec<usize>,
    defer: Vec<usize>,
) -> Result<(JobContext, HeartbeatGuard), Box<dyn std::error::Error>> {
    let journal = PathBuf::from(
        args.flag("journal")
            .ok_or("shard workers need --journal FILE (the supervisor passes it)")?,
    );
    let heartbeat = HeartbeatGuard::start(&lease_path(&journal), index)?;
    let ctx = job_context(args)?
        .with_shard(index, count)
        .with_skip_units(skip)
        .with_defer_units(defer)
        .with_attempts_log(attempts_path(&journal));
    Ok((ctx, heartbeat))
}

/// Supervisor flags that must NOT be replicated into worker argv: the
/// sharding flags themselves (the supervisor re-adds worker forms), the
/// journal/resume pair (each worker journals to its own shard journal),
/// and observability sinks that would collide across processes.
const SUPERVISOR_ONLY_FLAGS: &[&str] = &[
    "shards",
    "journal",
    "resume",
    "max-unit-attempts",
    "metrics-out",
    "trace-out",
    "trace-capacity",
    "progress",
];

/// Rebuilds this process's argv without the supervisor-only flags, using
/// the same `--flag [value]` pairing rule as [`Args::from_iter`].
fn worker_args(raw: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut out = Vec::new();
    let mut iter = raw.into_iter().peekable();
    while let Some(arg) = iter.next() {
        let dropped = arg
            .strip_prefix("--")
            .is_some_and(|name| SUPERVISOR_ONLY_FLAGS.contains(&name));
        let has_value =
            arg.starts_with("--") && iter.peek().is_some_and(|next| !next.starts_with("--"));
        if dropped {
            if has_value {
                iter.next();
            }
            continue;
        }
        out.push(arg);
        if has_value {
            out.push(iter.next().unwrap_or_default());
        }
    }
    out
}

/// Runs a sweep as `shards` supervised worker processes (re-invoking the
/// current binary with worker flags), then verifies and merges their
/// journals into the `--journal` path. On return the merged journal is
/// complete for every non-quarantined unit; the caller re-runs the sweep
/// in-process with resume semantics to produce its normal stdout.
///
/// Quarantined units are recorded in the run report's
/// `quarantined_units` section, listed on stderr, and turned into
/// [`CoreError::Quarantined`] (exit code 75) after the table prints.
pub fn supervise(
    args: &Args,
    shards: usize,
    kind: &str,
    config_hash: u64,
    total_units: usize,
) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let journal = PathBuf::from(
        args.flag("journal")
            .ok_or("--shards needs --journal FILE (the merged journal path)")?,
    );
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate the pi3d binary to spawn workers: {e}"))?;
    let worker = WorkerCommand {
        program,
        args: worker_args(std::env::args().skip(1)),
    };
    let mut opts = ShardOptions::new(shards, &journal, kind, config_hash, total_units, worker);
    opts.cancel = pi3d_telemetry::CancelToken::global();
    if let Some(k) = args.flag("max-unit-attempts") {
        let k: u32 = k
            .parse()
            .map_err(|_| format!("--max-unit-attempts must be an integer, got {k}"))?;
        if k == 0 {
            return Err("--max-unit-attempts must be at least 1".into());
        }
        opts.max_unit_attempts = k;
    }

    let report = run_sharded(&opts)?;
    eprintln!(
        "sharded sweep: {} shards, {} respawns, {} stale leases reclaimed, {} units merged",
        report.shards, report.respawns, report.leases_reclaimed, report.merged_units
    );
    if report.quarantined.is_empty() {
        return Ok(journal);
    }
    report_quarantine(&report, total_units).map(|()| journal)
}

/// Prints the quarantine table, records the report section, and surfaces
/// the typed [`CoreError::Quarantined`] (exit 75).
fn report_quarantine(
    report: &ShardReport,
    total_units: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("quarantined units (excluded from the merged journal):");
    eprintln!(
        "  {unit:>6}  {key:>16}  {attempts:>8}  {exit:<16} stage",
        unit = "unit",
        key = "key",
        attempts = "attempts",
        exit = "last exit",
    );
    for q in &report.quarantined {
        eprintln!(
            "  {:>6}  {:>16}  {:>8}  {:<16} {}",
            q.unit, q.key, q.attempts, q.last_exit, q.stage
        );
        pi3d_telemetry::report::record_quarantined_unit(
            pi3d_telemetry::report::QuarantinedUnitRecord {
                unit: q.unit as u64,
                key: q.key.clone(),
                attempts: u64::from(q.attempts),
                last_exit: q.last_exit.clone(),
                stage: q.stage.clone(),
            },
        );
    }
    Err(CoreError::Quarantined {
        units: report.quarantined.len(),
        total: total_units,
    }
    .into())
}

/// `pi3d merge-journals --out FILE SHARD0 SHARD1 ...` — the verified
/// merge, standalone. Inputs must be the complete set of shard journals
/// of one sweep (every index present exactly once, same kind and config
/// hash); the merged journal is written atomically to `--out`.
pub fn merge_journals_command(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let out = args
        .flag("out")
        .ok_or("merge-journals needs --out FILE (the merged journal path)")?;
    let inputs: Vec<PathBuf> = args.positional[1..].iter().map(PathBuf::from).collect();
    if inputs.is_empty() {
        return Err("merge-journals needs at least one shard journal argument".into());
    }
    let stats = merge_shard_journals(Path::new(out), &inputs)?;
    println!(
        "merged {} shard journals: kind {}, config {:016x}, {} units, {} torn tails dropped",
        stats.shards, stats.kind, stats.config_hash, stats.units, stats.torn_dropped
    );
    println!("wrote {out}");
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::from_iter(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn shard_mode_classifies_roles() {
        assert!(matches!(
            shard_mode(&args(&["faults"])).unwrap(),
            ShardMode::Single
        ));
        assert!(matches!(
            shard_mode(&args(&["faults", "--shards", "4"])).unwrap(),
            ShardMode::Supervisor(4)
        ));
        match shard_mode(&args(&[
            "faults",
            "--shard-index",
            "1",
            "--shard-count",
            "3",
            "--shard-skip",
            "5,9",
            "--shard-defer",
            "2",
        ]))
        .unwrap()
        {
            ShardMode::Worker {
                index,
                count,
                skip,
                defer,
            } => {
                assert_eq!((index, count), (1, 3));
                assert_eq!(skip, vec![5, 9]);
                assert_eq!(defer, vec![2]);
            }
            _ => panic!("expected worker mode"),
        }
    }

    #[test]
    fn shard_mode_rejects_conflicts_and_bad_ranges() {
        assert!(shard_mode(&args(&["faults", "--shards", "2", "--shard-index", "0"])).is_err());
        assert!(shard_mode(&args(&["faults", "--shards", "0"])).is_err());
        assert!(shard_mode(&args(&[
            "faults",
            "--shard-index",
            "2",
            "--shard-count",
            "2"
        ]))
        .is_err());
        assert!(shard_mode(&args(&["faults", "--shard-index", "0"])).is_err());
    }

    #[test]
    fn worker_args_drop_supervisor_only_flags() {
        let raw = [
            "faults",
            "--shards",
            "3",
            "--journal",
            "/tmp/j",
            "--trials",
            "8",
            "--metrics-out",
            "/tmp/report.json",
            "--progress",
            "--threads",
            "2",
        ];
        let filtered = worker_args(raw.iter().map(|s| s.to_string()));
        assert_eq!(filtered, vec!["faults", "--trials", "8", "--threads", "2"]);
    }

    #[test]
    fn worker_args_respect_flag_value_pairing() {
        // `--progress json` has a value; bare `--progress` before another
        // flag does not. Both forms must vanish without eating a flag.
        let raw = ["faults", "--progress", "json", "--trials", "4"];
        let filtered = worker_args(raw.iter().map(|s| s.to_string()));
        assert_eq!(filtered, vec!["faults", "--trials", "4"]);
    }
}
