//! Fault-tolerant sharded sweeps: a shard supervisor with lease files,
//! crash recovery, poison-unit quarantine, and verified journal merge.
//!
//! The unit space of a journaled sweep is split into N deterministic
//! slices by the PR-5 keying (unit `u` belongs to shard
//! `unit_key(config_hash, u) % N` — see [`crate::jobs::unit_key`]), and
//! one worker *process* per slice journals into its own fsync'd shard
//! journal under a lease file (pid + heartbeat mtime). The supervisor
//! monitors the workers:
//!
//! * a worker that exits nonzero or stops heartbeating has its lease
//!   reclaimed and is respawned with seeded-jittered backoff (bounded
//!   respawns), resuming from its own journal so no completed unit
//!   re-runs;
//! * crash blame is the diff between the worker's fsync'd *attempts*
//!   log and its journal — suspects are deferred to a serial tail batch
//!   on respawn so a repeat crash pins exactly one unit;
//! * a unit that kills its worker [`ShardOptions::max_unit_attempts`]
//!   times is quarantined (persisted to a sidecar quarantine file and
//!   surfaced in the run report's `quarantined_units` section) instead
//!   of being retried forever;
//! * SIGINT/SIGTERM on the supervisor fan out to every worker and map
//!   to the existing 130/143 exit codes with a partial-report outcome.
//!
//! Merge is verification-first ([`merge_shard_journals`]): every shard
//! header's FNV-1a config hash is cross-checked, per-record keys are
//! recomputed, duplicate or out-of-slice unit keys are typed
//! [`CoreError::Journal`] errors, and torn tails are dropped per shard
//! exactly as `--resume` does. Record lines are carried over *verbatim*
//! (never re-serialized) and sorted by unit, so resuming the merged
//! journal reproduces the uninterrupted single-process output
//! byte-identically at any shard count.

use crate::error::CoreError;
use crate::jobs::{journal_error, read_attempted_units, unit_key, JOURNAL_SCHEMA};
use crate::serve::{EXIT_CANCELLED, EXIT_DEADLINE, EXIT_TERMINATED};
use pi3d_telemetry::cancel::{self, SIGTERM};
use pi3d_telemetry::rng::{jittered_backoff, SplitMix64};
use pi3d_telemetry::{CancelToken, Json};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

fn shard_error(reason: impl Into<String>) -> CoreError {
    CoreError::Shard {
        reason: reason.into(),
    }
}

/// Path of shard `index`'s journal, derived from the merged journal's
/// base path: `base.shard{index}`.
pub fn shard_journal_path(base: &Path, index: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index}"));
    PathBuf::from(name)
}

/// Path of the lease file guarding a shard journal: `journal.lease`.
pub fn lease_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".lease");
    PathBuf::from(name)
}

/// Path of the attempts log beside a shard journal: `journal.attempts`.
pub fn attempts_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".attempts");
    PathBuf::from(name)
}

/// Path of the quarantine sidecar beside the merged journal base:
/// `base.quarantine`.
pub fn quarantine_path(base: &Path) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".quarantine");
    PathBuf::from(name)
}

#[cfg(unix)]
mod sys {
    // std already links libc on unix; declaring the one symbol we need
    // keeps the workspace dependency-free (same trick as the signal
    // shims in pi3d_telemetry::cancel).
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    /// True when `pid` names a live process (signal 0 probe — the same
    /// liveness check `pi3d serve` uses for stale-socket reclaim).
    pub fn pid_alive(pid: u32) -> bool {
        pid != 0 && unsafe { kill(pid as i32, 0) } == 0
    }

    /// Sends `sig` to `pid`; returns false if the process is gone.
    pub fn send_signal(pid: u32, sig: i32) -> bool {
        pid != 0 && unsafe { kill(pid as i32, sig) } == 0
    }
}

#[cfg(not(unix))]
mod sys {
    /// Non-unix stub: no pid probe available, never reports alive.
    pub fn pid_alive(_pid: u32) -> bool {
        false
    }

    /// Non-unix stub: signal fan-out unavailable.
    pub fn send_signal(_pid: u32, _sig: i32) -> bool {
        false
    }
}

pub use sys::pid_alive;

/// The identity recorded in a lease file: which process owns which
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Pid of the worker holding the lease.
    pub pid: u32,
    /// Shard index the worker owns.
    pub shard: usize,
}

/// Reads a lease file; `None` when missing or (mid-rewrite) unparseable.
pub fn read_lease(path: &Path) -> Option<LeaseInfo> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(text.trim()).ok()?;
    let pid = json.get("pid").and_then(Json::as_num)? as u32;
    let shard = json.get("shard").and_then(Json::as_num)? as usize;
    Some(LeaseInfo { pid, shard })
}

/// How often a worker's heartbeat thread rewrites its lease file. The
/// rewrite refreshes the file mtime, which is the liveness signal the
/// supervisor watches.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Worker-side lease holder: writes the lease file at start and keeps
/// its mtime fresh from a background heartbeat thread; dropping the
/// guard stops the thread and removes the lease (a clean release).
///
/// A worker killed hard never drops its guard, so its lease survives as
/// a *stale* lease — pid dead, mtime frozen — which the supervisor
/// reclaims before respawning.
#[derive(Debug)]
pub struct HeartbeatGuard {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatGuard {
    /// Writes the lease for `shard` at `path` and starts the heartbeat.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] if the lease cannot be written.
    pub fn start(path: &Path, shard: usize) -> Result<HeartbeatGuard, CoreError> {
        let line = format!(
            "{}\n",
            Json::obj([
                ("pid", Json::num(f64::from(std::process::id()))),
                ("shard", Json::num(shard as f64)),
            ])
            .to_compact_string()
        );
        std::fs::write(path, &line)
            .map_err(|e| shard_error(format!("cannot write lease {}: {e}", path.display())))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let path = path.to_path_buf();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Rewriting the same bytes refreshes the mtime; a
                    // wedged process stops rewriting and goes stale.
                    let _ = std::fs::write(&path, &line);
                    std::thread::sleep(HEARTBEAT_INTERVAL);
                }
            })
        };
        Ok(HeartbeatGuard {
            path: path.to_path_buf(),
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Reclaims a stale lease before (re)spawning a worker for it.
///
/// Mirrors the `pi3d serve` stale-socket connect-probe: a lease whose
/// pid is dead is leftover state from a killed worker and is removed
/// (its journal is resumed by the next worker generation); a lease whose
/// pid is *alive* means another supervisor or worker still owns the
/// shard, and starting a second one would corrupt the journal.
///
/// Returns `true` when a stale lease was reclaimed.
///
/// # Errors
///
/// Returns [`CoreError::Shard`] when the lease is held by a live
/// process.
pub fn reclaim_stale_lease(path: &Path) -> Result<bool, CoreError> {
    let Some(lease) = read_lease(path) else {
        return Ok(false);
    };
    if lease.pid != std::process::id() && pid_alive(lease.pid) {
        return Err(shard_error(format!(
            "lease {} is held by live pid {} (shard {}); refusing to double-run",
            path.display(),
            lease.pid,
            lease.shard
        )));
    }
    std::fs::remove_file(path)
        .map_err(|e| shard_error(format!("cannot reclaim lease {}: {e}", path.display())))?;
    pi3d_telemetry::metrics::counter("shard.leases.reclaimed").incr(1);
    Ok(true)
}

/// A quarantined work unit: it killed its worker process
/// [`ShardOptions::max_unit_attempts`] times and is excluded from
/// further retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedUnit {
    /// Index of the poisoned unit.
    pub unit: usize,
    /// Its per-entry journal key (`unit_key`, 16 hex digits).
    pub key: String,
    /// Worker deaths attributed to it.
    pub attempts: u32,
    /// How the worker last died (e.g. `exit code 101`, `signal 9`).
    pub last_exit: String,
    /// The sweep kind it belongs to.
    pub stage: String,
}

impl QuarantinedUnit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", Json::num(self.unit as f64)),
            ("key", Json::str(self.key.clone())),
            ("attempts", Json::num(f64::from(self.attempts))),
            ("last_exit", Json::str(self.last_exit.clone())),
            ("stage", Json::str(self.stage.clone())),
        ])
    }

    fn from_json(json: &Json) -> Option<QuarantinedUnit> {
        Some(QuarantinedUnit {
            unit: json.get("unit").and_then(Json::as_num)? as usize,
            key: json.get("key").and_then(Json::as_str)?.to_owned(),
            attempts: json.get("attempts").and_then(Json::as_num)? as u32,
            last_exit: json.get("last_exit").and_then(Json::as_str)?.to_owned(),
            stage: json.get("stage").and_then(Json::as_str)?.to_owned(),
        })
    }
}

/// Loads the quarantine sidecar (one JSON line per quarantined unit).
/// A missing file is an empty quarantine.
///
/// # Errors
///
/// Returns [`CoreError::Journal`] on I/O failure or a corrupt line.
pub fn load_quarantine(path: &Path) -> Result<Vec<QuarantinedUnit>, CoreError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(journal_error(path, format!("cannot read quarantine: {e}"))),
    };
    let mut units = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let unit = Json::parse(line)
            .ok()
            .as_ref()
            .and_then(QuarantinedUnit::from_json)
            .ok_or_else(|| {
                journal_error(
                    path,
                    format!("corrupt quarantine record on line {}", line_no + 1),
                )
            })?;
        units.push(unit);
    }
    Ok(units)
}

fn append_quarantine(path: &Path, unit: &QuarantinedUnit) -> Result<(), CoreError> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| journal_error(path, format!("cannot open quarantine: {e}")))?;
    let line = format!("{}\n", unit.to_json().to_compact_string());
    file.write_all(line.as_bytes())
        .and_then(|()| file.sync_data())
        .map_err(|e| journal_error(path, format!("cannot append quarantine: {e}")))
}

/// The worker process the supervisor spawns for each shard. The
/// supervisor appends `--shard-index I --shard-count N --journal
/// BASE.shardI` (plus `--shard-skip`/`--shard-defer` lists) to `args`.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn (normally the current `pi3d` binary).
    pub program: PathBuf,
    /// Base arguments replicating the supervisor's own sweep arguments.
    pub args: Vec<String>,
}

/// Configuration for [`run_sharded`].
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shards (worker processes).
    pub shards: usize,
    /// Base path of the merged journal; shard journals live beside it.
    pub journal: PathBuf,
    /// Sweep kind (journal header `kind`).
    pub kind: String,
    /// The sweep's config hash; cross-checked in every shard header.
    pub config_hash: u64,
    /// Total unit count of the sweep (for merge completeness checks).
    pub total_units: usize,
    /// Worker process to spawn per shard.
    pub worker: WorkerCommand,
    /// Worker deaths a single unit may cause before quarantine (K).
    pub max_unit_attempts: u32,
    /// Respawn budget per shard before the supervisor gives up.
    pub max_respawns_per_shard: u32,
    /// Base delay of the seeded-jittered exponential respawn backoff.
    pub backoff_base: Duration,
    /// Seed of the backoff jitter (deterministic in tests).
    pub backoff_seed: u64,
    /// A live worker whose lease mtime is older than this is considered
    /// wedged, killed, and respawned.
    pub heartbeat_timeout: Duration,
    /// Supervisor poll interval.
    pub poll: Duration,
    /// Cancellation source fanned out to workers as a signal.
    pub cancel: CancelToken,
}

impl ShardOptions {
    /// Options with the default robustness knobs (K = 3 unit attempts,
    /// 16 respawns per shard, 200 ms backoff base, 30 s heartbeat
    /// timeout, 50 ms poll).
    pub fn new(
        shards: usize,
        journal: impl Into<PathBuf>,
        kind: impl Into<String>,
        config_hash: u64,
        total_units: usize,
        worker: WorkerCommand,
    ) -> ShardOptions {
        ShardOptions {
            shards,
            journal: journal.into(),
            kind: kind.into(),
            config_hash,
            total_units,
            worker,
            max_unit_attempts: 3,
            max_respawns_per_shard: 16,
            backoff_base: Duration::from_millis(200),
            backoff_seed: 0x5eed_5a4d,
            heartbeat_timeout: Duration::from_secs(30),
            poll: Duration::from_millis(50),
            cancel: CancelToken::new(),
        }
    }
}

/// What a completed sharded sweep did, beyond the merged journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard count the sweep ran with.
    pub shards: usize,
    /// Worker respawns across all shards.
    pub respawns: u32,
    /// Stale leases reclaimed (startup + crash recovery).
    pub leases_reclaimed: u32,
    /// Units quarantined for repeatedly killing their worker.
    pub quarantined: Vec<QuarantinedUnit>,
    /// Units present in the merged journal.
    pub merged_units: usize,
    /// Torn tail fragments dropped across shard journals during merge.
    pub torn_dropped: usize,
}

/// Statistics from [`merge_shard_journals`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeStats {
    /// Sweep kind from the shard headers.
    pub kind: String,
    /// Config hash from the shard headers.
    pub config_hash: u64,
    /// Shard count from the headers (must equal the input count).
    pub shards: usize,
    /// Distinct units in the merged journal.
    pub units: usize,
    /// Torn tail fragments dropped.
    pub torn_dropped: usize,
}

struct ShardHeader {
    kind: String,
    config_hash: u64,
    index: usize,
    count: usize,
}

fn parse_shard_header(path: &Path, line: &str) -> Result<ShardHeader, CoreError> {
    let header =
        Json::parse(line).map_err(|e| journal_error(path, format!("corrupt header: {e}")))?;
    let schema = header.get("journal").and_then(Json::as_str);
    if schema != Some(JOURNAL_SCHEMA) {
        return Err(journal_error(
            path,
            format!("unsupported schema {schema:?} (expected {JOURNAL_SCHEMA:?})"),
        ));
    }
    let kind = header
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    let hash_text = header
        .get("config_hash")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    let config_hash = u64::from_str_radix(&hash_text, 16)
        .map_err(|_| journal_error(path, format!("unparseable config hash {hash_text:?}")))?;
    let (index, count) = match (
        header.get("shard_index").and_then(Json::as_num),
        header.get("shard_count").and_then(Json::as_num),
    ) {
        (Some(i), Some(n)) => (i as usize, n as usize),
        _ => {
            return Err(journal_error(
                path,
                "not a shard journal (missing shard_index/shard_count header fields)",
            ))
        }
    };
    Ok(ShardHeader {
        kind,
        config_hash,
        index,
        count,
    })
}

/// Merges shard journals into one whole-sweep journal, verification
/// first.
///
/// Every input header is cross-checked (schema, kind, FNV-1a config
/// hash, shard count = input count, distinct slice indices); every
/// record's key is recomputed and its slice membership verified;
/// duplicate units are rejected; torn tails are dropped per shard
/// exactly as `--resume` does. Surviving record lines are carried over
/// **verbatim** (no re-serialization, so float formatting cannot drift)
/// and written sorted by unit under a plain (unsharded) header via an
/// atomic rename — resuming `out` then reproduces the single-process
/// sweep byte-identically.
///
/// # Errors
///
/// Returns [`CoreError::Journal`] naming the offending file and line on
/// any verification failure, and [`CoreError::Shard`] on an empty input
/// list.
pub fn merge_shard_journals(out: &Path, inputs: &[PathBuf]) -> Result<MergeStats, CoreError> {
    if inputs.is_empty() {
        return Err(shard_error("merge needs at least one shard journal"));
    }
    let mut expected: Option<ShardHeader> = None;
    let mut seen_indices = HashSet::new();
    // unit -> (raw line, source input) — raw lines keep byte fidelity.
    let mut records: HashMap<usize, (String, usize)> = HashMap::new();
    let mut torn_dropped = 0usize;
    for (input_idx, path) in inputs.iter().enumerate() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| journal_error(path, format!("cannot read: {e}")))?;
        let (complete, fragment) = match text.rfind('\n') {
            Some(last) => (&text[..last], &text[last + 1..]),
            None => ("", text.as_str()),
        };
        if !fragment.is_empty() {
            torn_dropped += 1;
        }
        let mut lines = complete.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| journal_error(path, "no complete header line"))?;
        let header = parse_shard_header(path, header_line)?;
        if header.count != inputs.len() {
            return Err(journal_error(
                path,
                format!(
                    "header says {} shards but {} journals were given to merge",
                    header.count,
                    inputs.len()
                ),
            ));
        }
        if let Some(expected) = &expected {
            if header.kind != expected.kind {
                return Err(journal_error(
                    path,
                    format!(
                        "journal is for a {:?} run, not {:?}",
                        header.kind, expected.kind
                    ),
                ));
            }
            if header.config_hash != expected.config_hash {
                return Err(journal_error(
                    path,
                    format!(
                        "journal was written for config hash {:016x}, the other shards are \
                         {:016x} — refusing to mix results from different sweeps",
                        header.config_hash, expected.config_hash
                    ),
                ));
            }
        }
        if !seen_indices.insert(header.index) {
            return Err(journal_error(
                path,
                format!("duplicate shard index {} across inputs", header.index),
            ));
        }
        let (hash, index, count) = (header.config_hash, header.index, header.count);
        if expected.is_none() {
            expected = Some(header);
        }
        for (line_no, line) in lines.enumerate() {
            let record = Json::parse(line).map_err(|e| {
                journal_error(path, format!("corrupt record on line {}: {e}", line_no + 2))
            })?;
            let unit = record
                .get("unit")
                .and_then(Json::as_num)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as usize)
                .ok_or_else(|| {
                    journal_error(path, format!("record on line {} has no unit", line_no + 2))
                })?;
            let key = record.get("key").and_then(Json::as_str).unwrap_or("");
            let expected_key = format!("{:016x}", unit_key(hash, unit));
            if key != expected_key {
                return Err(journal_error(
                    path,
                    format!(
                        "record on line {} for unit {unit} carries key {key}, \
                         expected {expected_key}",
                        line_no + 2
                    ),
                ));
            }
            if unit_key(hash, unit) % count as u64 != index as u64 {
                return Err(journal_error(
                    path,
                    format!(
                        "record on line {} for unit {unit} is outside shard {index} of {count}",
                        line_no + 2
                    ),
                ));
            }
            if record.get("payload").is_none() {
                return Err(journal_error(
                    path,
                    format!(
                        "record for unit {unit} has no payload (line {})",
                        line_no + 2
                    ),
                ));
            }
            if let Some((_, prev_input)) = records.get(&unit) {
                return Err(journal_error(
                    path,
                    format!(
                        "duplicate record for unit {unit} (already present in {})",
                        inputs[*prev_input].display()
                    ),
                ));
            }
            records.insert(unit, (line.to_owned(), input_idx));
        }
    }
    let expected = expected.ok_or_else(|| shard_error("no shard headers found"))?;

    // Plain (unsharded) header + records sorted by unit: exactly the
    // file an uninterrupted single-process run leaves behind, modulo
    // on-disk record order, which resume never depends on.
    let header = Json::obj([
        ("journal", Json::str(JOURNAL_SCHEMA)),
        ("kind", Json::str(expected.kind.clone())),
        (
            "config_hash",
            Json::str(format!("{:016x}", expected.config_hash)),
        ),
    ]);
    let mut units: Vec<usize> = records.keys().copied().collect();
    units.sort_unstable();
    let mut merged = format!("{}\n", header.to_compact_string());
    for unit in &units {
        merged.push_str(&records[unit].0);
        merged.push('\n');
    }
    pi3d_telemetry::fsio::atomic_write(out, merged.as_bytes())
        .map_err(|e| journal_error(out, format!("cannot write merged journal: {e}")))?;
    Ok(MergeStats {
        kind: expected.kind,
        config_hash: expected.config_hash,
        shards: inputs.len(),
        units: units.len(),
        torn_dropped,
    })
}

/// Lenient unit listing of a shard journal, for crash blame and
/// completed-count reporting (full validation happens at merge/resume).
fn journaled_units(path: &Path) -> Vec<usize> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let complete = match text.rfind('\n') {
        Some(last) => &text[..last],
        None => "",
    };
    complete
        .lines()
        .skip(1)
        .filter_map(|line| {
            Json::parse(line)
                .ok()
                .as_ref()
                .and_then(|r| r.get("unit"))
                .and_then(Json::as_num)
                .map(|v| v as usize)
        })
        .collect()
}

fn describe_exit(status: std::process::ExitStatus) -> String {
    if let Some(code) = status.code() {
        return format!("exit code {code}");
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("signal {sig}");
        }
    }
    "unknown exit".to_owned()
}

/// The respawn backoff stops doubling after this many deaths (at 64×
/// [`ShardOptions::backoff_base`]).
const RESPAWN_MAX_DOUBLINGS: u32 = 6;

struct ShardSlot {
    journal: PathBuf,
    child: Option<Child>,
    child_pid: u32,
    spawned_at: Instant,
    spawn_after: Instant,
    respawns: u32,
    defer: Vec<usize>,
    done: bool,
    span: Option<pi3d_telemetry::trace::TraceSpan>,
}

fn lease_age(path: &Path) -> Option<Duration> {
    let modified = std::fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(modified).ok()
}

fn spawn_worker(
    opts: &ShardOptions,
    index: usize,
    slot: &ShardSlot,
    quarantined: &[QuarantinedUnit],
) -> Result<Child, CoreError> {
    let mut cmd = Command::new(&opts.worker.program);
    cmd.args(&opts.worker.args)
        .arg("--shard-index")
        .arg(index.to_string())
        .arg("--shard-count")
        .arg(opts.shards.to_string())
        .arg("--journal")
        .arg(&slot.journal);
    if !quarantined.is_empty() {
        let list: Vec<String> = quarantined.iter().map(|q| q.unit.to_string()).collect();
        cmd.arg("--shard-skip").arg(list.join(","));
    }
    if !slot.defer.is_empty() {
        let list: Vec<String> = slot.defer.iter().map(usize::to_string).collect();
        cmd.arg("--shard-defer").arg(list.join(","));
    }
    // Worker stdout is silenced: the supervisor's own stdout must stay
    // byte-identical to the single-process report. Stderr is inherited
    // so worker diagnostics remain visible.
    cmd.stdin(Stdio::null()).stdout(Stdio::null());
    cmd.spawn()
        .map_err(|e| shard_error(format!("cannot spawn worker for shard {index}: {e}")))
}

/// Terminates every live worker with `sig` and reaps them.
fn fan_out_signal(slots: &mut [ShardSlot], sig: i32) {
    for slot in slots.iter_mut() {
        if let Some(child) = &mut slot.child {
            if !sys::send_signal(slot.child_pid, sig) {
                let _ = child.kill();
            }
        }
    }
    for slot in slots.iter_mut() {
        if let Some(mut child) = slot.child.take() {
            let _ = child.wait();
            drop(slot.span.take());
        }
    }
}

fn completed_units(slots: &[ShardSlot]) -> usize {
    slots
        .iter()
        .map(|s| journaled_units(&s.journal).len())
        .sum()
}

/// Runs a sweep as `opts.shards` supervised worker processes and merges
/// their journals into `opts.journal`.
///
/// See the module docs for the lifecycle (lease/heartbeat protocol,
/// crash blame, quarantine, signal fan-out, verified merge). On success
/// the merged journal at `opts.journal` contains every unit except the
/// quarantined ones, and the returned [`ShardReport`] lists those.
///
/// # Errors
///
/// [`CoreError::Cancelled`]/[`CoreError::DeadlineExceeded`] when the
/// sweep is interrupted (workers were signalled and reaped; completed
/// units are durable in the shard journals), [`CoreError::Shard`] on
/// supervisor-level failures (live foreign lease, spawn failure,
/// respawn budget exhausted, incomplete merge), and
/// [`CoreError::Journal`] when merge verification fails.
pub fn run_sharded(opts: &ShardOptions) -> Result<ShardReport, CoreError> {
    if opts.shards == 0 {
        return Err(shard_error("shard count must be at least 1"));
    }
    let _sup_span = pi3d_telemetry::trace::span_with("shard", || {
        format!("supervise[{}x{}]", opts.shards, opts.kind)
    });
    let quarantine_file = quarantine_path(&opts.journal);
    let mut quarantined = load_quarantine(&quarantine_file)?;
    let mut attempts: HashMap<usize, u32> = HashMap::new();
    let mut leases_reclaimed = 0u32;
    let mut total_respawns = 0u32;
    let mut rng = SplitMix64::new(opts.backoff_seed ^ opts.config_hash);

    let mut slots: Vec<ShardSlot> = (0..opts.shards)
        .map(|i| ShardSlot {
            journal: shard_journal_path(&opts.journal, i),
            child: None,
            child_pid: 0,
            spawned_at: Instant::now(),
            spawn_after: Instant::now(),
            respawns: 0,
            defer: Vec::new(),
            done: false,
            span: None,
        })
        .collect();

    // Startup stale-lease reclaim (satellite of the lease protocol): a
    // dead previous run's leases are cleared, a live one is an error.
    for slot in &slots {
        if reclaim_stale_lease(&lease_path(&slot.journal))? {
            leases_reclaimed += 1;
        }
    }

    loop {
        if opts.cancel.is_cancelled() {
            let sig = cancel::latched_signal().unwrap_or(SIGTERM);
            fan_out_signal(&mut slots, sig);
            return Err(CoreError::Cancelled {
                completed: completed_units(&slots),
                total: opts.total_units,
            });
        }

        let mut alive = 0usize;
        let mut max_heartbeat_age = Duration::ZERO;
        for index in 0..slots.len() {
            if slots[index].done {
                continue;
            }
            // Spawn (or respawn, once backoff elapses) a missing worker.
            if slots[index].child.is_none() {
                if Instant::now() < slots[index].spawn_after {
                    continue;
                }
                let lease = lease_path(&slots[index].journal);
                if reclaim_stale_lease(&lease)? {
                    leases_reclaimed += 1;
                }
                let child = spawn_worker(opts, index, &slots[index], &quarantined)?;
                slots[index].child_pid = child.id();
                slots[index].spawned_at = Instant::now();
                let generation = slots[index].respawns;
                slots[index].span = Some(pi3d_telemetry::trace::span_with("shard", || {
                    format!("worker{index}.gen{generation}")
                }));
                slots[index].child = Some(child);
            }

            let status = {
                let child = slots[index].child.as_mut().expect("spawned above");
                child.try_wait().map_err(|e| {
                    shard_error(format!("cannot poll worker for shard {index}: {e}"))
                })?
            };
            let status = match status {
                Some(status) => status,
                None => {
                    // Still running: check the heartbeat. A worker that
                    // has a lease but stopped refreshing it is wedged.
                    let age = lease_age(&lease_path(&slots[index].journal))
                        .unwrap_or_else(|| slots[index].spawned_at.elapsed());
                    max_heartbeat_age = max_heartbeat_age.max(age);
                    if age > opts.heartbeat_timeout {
                        let child = slots[index].child.as_mut().expect("checked above");
                        let _ = child.kill();
                        let status = child.wait().map_err(|e| {
                            shard_error(format!("cannot reap wedged shard {index}: {e}"))
                        })?;
                        status
                    } else {
                        alive += 1;
                        continue;
                    }
                }
            };

            slots[index].child = None;
            drop(slots[index].span.take());

            match status.code() {
                Some(0) => {
                    slots[index].done = true;
                    let _ = std::fs::remove_file(attempts_path(&slots[index].journal));
                    continue;
                }
                Some(code) if code == i32::from(EXIT_DEADLINE) => {
                    fan_out_signal(&mut slots, SIGTERM);
                    return Err(CoreError::DeadlineExceeded {
                        completed: completed_units(&slots),
                        total: opts.total_units,
                    });
                }
                Some(code)
                    if code == i32::from(EXIT_CANCELLED) || code == i32::from(EXIT_TERMINATED) =>
                {
                    // Someone signalled the worker directly; treat it as
                    // a sweep-wide cancellation.
                    fan_out_signal(&mut slots, SIGTERM);
                    return Err(CoreError::Cancelled {
                        completed: completed_units(&slots),
                        total: opts.total_units,
                    });
                }
                _ => {}
            }

            // Crash path: blame, maybe quarantine, schedule respawn.
            let exit = describe_exit(status);
            let journaled: HashSet<usize> =
                journaled_units(&slots[index].journal).into_iter().collect();
            let attempted =
                read_attempted_units(&attempts_path(&slots[index].journal)).unwrap_or_default();
            let mut suspects: Vec<usize> = attempted
                .into_iter()
                .filter(|u| !journaled.contains(u))
                .collect();
            suspects.sort_unstable();
            suspects.dedup();
            let mut defer = Vec::new();
            for unit in suspects {
                let count = attempts.entry(unit).or_insert(0);
                *count += 1;
                if *count >= opts.max_unit_attempts {
                    let record = QuarantinedUnit {
                        unit,
                        key: format!("{:016x}", unit_key(opts.config_hash, unit)),
                        attempts: *count,
                        last_exit: exit.clone(),
                        stage: opts.kind.clone(),
                    };
                    append_quarantine(&quarantine_file, &record)?;
                    quarantined.push(record);
                    pi3d_telemetry::metrics::counter("shard.units.quarantined").incr(1);
                } else {
                    defer.push(unit);
                }
            }
            slots[index].defer = defer;
            slots[index].respawns += 1;
            total_respawns += 1;
            pi3d_telemetry::metrics::counter("shard.workers.respawned").incr(1);
            if slots[index].respawns > opts.max_respawns_per_shard {
                fan_out_signal(&mut slots, SIGTERM);
                return Err(shard_error(format!(
                    "shard {index} exceeded its respawn budget \
                     ({} respawns; last death: {exit})",
                    slots[index].respawns - 1
                )));
            }
            let backoff = jittered_backoff(
                opts.backoff_base,
                slots[index].respawns - 1,
                RESPAWN_MAX_DOUBLINGS,
                &mut rng,
            );
            slots[index].spawn_after = Instant::now() + backoff;
            eprintln!(
                "pi3d: shard {index} worker died ({exit}); respawn {}/{} in {:.1}s",
                slots[index].respawns,
                opts.max_respawns_per_shard,
                backoff.as_secs_f64()
            );
        }

        pi3d_telemetry::metrics::gauge("shard.workers.alive").set(alive as f64);
        pi3d_telemetry::metrics::gauge("shard.heartbeat.age_ms")
            .set(max_heartbeat_age.as_millis() as f64);

        if slots.iter().all(|s| s.done) {
            break;
        }
        std::thread::sleep(opts.poll);
    }

    // All shards completed their slices: verified merge.
    let inputs: Vec<PathBuf> = slots.iter().map(|s| s.journal.clone()).collect();
    let stats = merge_shard_journals(&opts.journal, &inputs)?;
    if stats.kind != opts.kind || stats.config_hash != opts.config_hash {
        return Err(shard_error(format!(
            "merged journal is for {:?}/{:016x}, expected {:?}/{:016x}",
            stats.kind, stats.config_hash, opts.kind, opts.config_hash
        )));
    }
    if stats.units + quarantined.len() != opts.total_units {
        return Err(shard_error(format!(
            "merge incomplete: {} merged + {} quarantined != {} total units",
            stats.units,
            quarantined.len(),
            opts.total_units
        )));
    }
    quarantined.sort_by_key(|q| q.unit);
    Ok(ShardReport {
        shards: opts.shards,
        respawns: total_respawns,
        leases_reclaimed,
        quarantined,
        merged_units: stats.units,
        torn_dropped: stats.torn_dropped,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::jobs::{config_hash_of, journaled_sweep, JobContext, PartialSweep};

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pi3d-shard-{}-{name}", std::process::id()))
    }

    fn write_shard_journals(base: &Path, items: &[u64], shards: usize) -> Vec<PathBuf> {
        (0..shards)
            .map(|index| {
                let path = shard_journal_path(base, index);
                let _ = std::fs::remove_file(&path);
                let ctx = JobContext::new()
                    .with_journal(&path)
                    .with_shard(index, shards);
                journaled_sweep(
                    "squares",
                    config_hash_of(&["squares"]),
                    items,
                    2,
                    &ctx,
                    |_, &r: &u64| Json::num(r as f64),
                    |_, payload| payload.as_num().map(|v| v as u64),
                    |_, &v| Ok(v * v),
                )
                .unwrap();
                path
            })
            .collect()
    }

    #[test]
    fn merged_journal_resumes_byte_identically_to_single_process() {
        let items: Vec<u64> = (0..17).collect();
        let hash = config_hash_of(&["squares"]);
        let single = temp_path("merge-single");
        let _ = std::fs::remove_file(&single);
        let ctx = JobContext::new().with_journal(&single);
        let reference = journaled_sweep(
            "squares",
            hash,
            &items,
            2,
            &ctx,
            |_, &r: &u64| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |_, &v| Ok(v * v),
        )
        .and_then(PartialSweep::into_results)
        .unwrap();

        for shards in [1usize, 2, 4] {
            let base = temp_path(&format!("merge-{shards}"));
            let inputs = write_shard_journals(&base, &items, shards);
            let stats = merge_shard_journals(&base, &inputs).unwrap();
            assert_eq!(stats.units, items.len());
            assert_eq!(stats.shards, shards);
            assert_eq!(stats.config_hash, hash);

            // Resuming the merged journal recomputes nothing and yields
            // the single-process result exactly.
            let resumed = journaled_sweep(
                "squares",
                hash,
                &items,
                3,
                &JobContext::new().with_resume(&base),
                |_, &r: &u64| Json::num(r as f64),
                |_, payload| payload.as_num().map(|v| v as u64),
                |unit, _| panic!("unit {unit} should be resumed, not recomputed"),
            )
            .and_then(PartialSweep::into_results)
            .unwrap();
            assert_eq!(resumed, reference);
            // And the merged file itself is byte-identical to the
            // single-process journal (records sorted by unit).
            let mut single_lines: Vec<String> = std::fs::read_to_string(&single)
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect();
            let sorted = {
                let mut records = single_lines.split_off(1);
                records.sort_by_key(|line| {
                    Json::parse(line)
                        .unwrap()
                        .get("unit")
                        .and_then(Json::as_num)
                        .unwrap() as usize
                });
                single_lines.append(&mut records);
                format!("{}\n", single_lines.join("\n"))
            };
            assert_eq!(std::fs::read_to_string(&base).unwrap(), sorted);

            for input in inputs {
                let _ = std::fs::remove_file(input);
            }
            let _ = std::fs::remove_file(&base);
        }
        let _ = std::fs::remove_file(&single);
    }

    #[test]
    fn merge_detects_duplicates_out_of_slice_and_hash_mismatch() {
        let items: Vec<u64> = (0..10).collect();
        let base = temp_path("merge-verify");
        let inputs = write_shard_journals(&base, &items, 2);

        // Duplicate: copy a record from shard journal 0 into journal 1.
        let a = std::fs::read_to_string(&inputs[0]).unwrap();
        let b = std::fs::read_to_string(&inputs[1]).unwrap();
        let stolen = a.lines().nth(1).unwrap();
        std::fs::write(&inputs[1], format!("{b}{stolen}\n")).unwrap();
        let err = merge_shard_journals(&base, &inputs).unwrap_err();
        // The stolen record belongs to shard 0's slice, so the slice
        // check fires first — still a typed journal error with a line.
        assert!(matches!(err, CoreError::Journal { .. }), "{err}");
        assert!(err.to_string().contains("outside shard 1 of 2"), "{err}");
        std::fs::write(&inputs[1], &b).unwrap();

        // True duplicate inside one shard file.
        let own = b.lines().nth(1).unwrap();
        std::fs::write(&inputs[1], format!("{b}{own}\n")).unwrap();
        let err = merge_shard_journals(&base, &inputs).unwrap_err();
        assert!(err.to_string().contains("duplicate record"), "{err}");
        std::fs::write(&inputs[1], &b).unwrap();

        // Hash mismatch across shards: forge the *second* input's header
        // (its header cross-check runs before its records are parsed).
        let forged = b.replacen(
            &format!("{:016x}", config_hash_of(&["squares"])),
            &format!("{:016x}", config_hash_of(&["cubes"])),
            1,
        );
        std::fs::write(&inputs[1], forged).unwrap();
        let err = merge_shard_journals(&base, &inputs).unwrap_err();
        assert!(err.to_string().contains("config hash"), "{err}");
        std::fs::write(&inputs[1], &b).unwrap();

        // Wrong shard count for the number of inputs.
        let err = merge_shard_journals(&base, &inputs[..1]).unwrap_err();
        assert!(err.to_string().contains("2 shards"), "{err}");

        // A torn tail is dropped, not fatal.
        std::fs::write(&inputs[1], format!("{b}{{\"unit\":")).unwrap();
        let stats = merge_shard_journals(&base, &inputs).unwrap();
        assert_eq!(stats.torn_dropped, 1);
        assert_eq!(stats.units, items.len());

        for input in inputs {
            let _ = std::fs::remove_file(input);
        }
        let _ = std::fs::remove_file(&base);
    }

    #[test]
    fn lease_roundtrip_and_stale_reclaim() {
        let lease = temp_path("lease");
        let _ = std::fs::remove_file(&lease);
        assert_eq!(read_lease(&lease), None);
        assert!(!reclaim_stale_lease(&lease).unwrap());

        {
            let _guard = HeartbeatGuard::start(&lease, 3).unwrap();
            let info = read_lease(&lease).unwrap();
            assert_eq!(info.pid, std::process::id());
            assert_eq!(info.shard, 3);
            // Held by *this* (live) process: our own pid is reclaimable
            // only because reclaim special-cases self for restart flows.
        }
        // Clean drop released the lease.
        assert_eq!(read_lease(&lease), None);

        // A lease held by a dead pid is stale and reclaimed.
        std::fs::write(&lease, "{\"pid\":999999999,\"shard\":0}\n").unwrap();
        assert!(reclaim_stale_lease(&lease).unwrap());
        assert!(!lease.exists());

        // A lease held by a live foreign pid refuses reclamation (pid 1
        // is always alive on unix).
        if cfg!(unix) {
            std::fs::write(&lease, "{\"pid\":1,\"shard\":0}\n").unwrap();
            let err = reclaim_stale_lease(&lease).unwrap_err();
            assert!(matches!(err, CoreError::Shard { .. }), "{err}");
            assert!(err.to_string().contains("live pid 1"), "{err}");
            let _ = std::fs::remove_file(&lease);
        }
    }

    #[test]
    fn quarantine_file_roundtrips() {
        let path = temp_path("quarantine");
        let _ = std::fs::remove_file(&path);
        assert!(load_quarantine(&path).unwrap().is_empty());
        let record = QuarantinedUnit {
            unit: 7,
            key: "00ff00ff00ff00ff".to_owned(),
            attempts: 3,
            last_exit: "signal 9".to_owned(),
            stage: "fault_sweep".to_owned(),
        };
        append_quarantine(&path, &record).unwrap();
        assert_eq!(load_quarantine(&path).unwrap(), vec![record.clone()]);
        append_quarantine(&path, &record).unwrap();
        assert_eq!(load_quarantine(&path).unwrap().len(), 2);
        std::fs::write(&path, "not json\n").unwrap();
        let err = load_quarantine(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn supervisor_respawns_flaky_workers_and_merges() {
        // Shard journals are pre-written; the "worker" is a shell that
        // fails once per shard (before a marker file exists) and then
        // succeeds, exercising respawn accounting and the merge path.
        let items: Vec<u64> = (0..9).collect();
        let base = temp_path("supervise");
        let marker = temp_path("supervise-marker");
        let _ = std::fs::remove_file(&marker);
        let _ = std::fs::remove_file(&base);
        let inputs = write_shard_journals(&base, &items, 2);
        // $2 is the shard index (the supervisor appends
        // `--shard-index I` right after the base args), so each shard
        // fails exactly once against its own marker.
        let script = format!(
            "if [ -e {m}.$2 ]; then exit 0; else touch {m}.$2; exit 1; fi",
            m = marker.display()
        );
        let mut opts = ShardOptions::new(
            2,
            &base,
            "squares",
            config_hash_of(&["squares"]),
            items.len(),
            WorkerCommand {
                program: PathBuf::from("/bin/sh"),
                args: vec!["-c".to_owned(), script, "worker".to_owned()],
            },
        );
        opts.backoff_base = Duration::from_millis(1);
        opts.poll = Duration::from_millis(5);
        let report = run_sharded(&opts).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.respawns, 2, "each shard dies once before its marker");
        assert_eq!(report.merged_units, items.len());
        assert!(report.quarantined.is_empty());
        // Merged journal resumes cleanly.
        let resumed = journaled_sweep(
            "squares",
            config_hash_of(&["squares"]),
            &items,
            1,
            &JobContext::new().with_resume(&base),
            |_, &r: &u64| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |unit, _| panic!("unit {unit} should be resumed"),
        )
        .and_then(PartialSweep::into_results)
        .unwrap();
        assert_eq!(resumed, items.iter().map(|v| v * v).collect::<Vec<_>>());
        for input in inputs {
            let _ = std::fs::remove_file(input);
        }
        let _ = std::fs::remove_file(&base);
        for shard in 0..2 {
            let mut m = marker.as_os_str().to_os_string();
            m.push(format!(".{shard}"));
            let _ = std::fs::remove_file(m);
        }
        let _ = std::fs::remove_file(quarantine_path(&base));
    }

    #[cfg(unix)]
    #[test]
    fn supervisor_startup_reclaims_stale_lease() {
        let items: Vec<u64> = (0..5).collect();
        let base = temp_path("stale-lease");
        let inputs = write_shard_journals(&base, &items, 1);
        // Leave a stale lease from a "previous" (dead) worker.
        std::fs::write(lease_path(&inputs[0]), "{\"pid\":999999999,\"shard\":0}\n").unwrap();
        let opts = ShardOptions::new(
            1,
            &base,
            "squares",
            config_hash_of(&["squares"]),
            items.len(),
            WorkerCommand {
                program: PathBuf::from("/bin/sh"),
                args: vec!["-c".to_owned(), "exit 0".to_owned(), "worker".to_owned()],
            },
        );
        let report = run_sharded(&opts).unwrap();
        assert_eq!(report.leases_reclaimed, 1);
        assert_eq!(report.merged_units, items.len());
        for input in inputs {
            let _ = std::fs::remove_file(input);
        }
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(quarantine_path(&base));
    }

    #[cfg(unix)]
    #[test]
    fn respawn_budget_is_bounded() {
        let items: Vec<u64> = (0..4).collect();
        let base = temp_path("budget");
        let inputs = write_shard_journals(&base, &items, 1);
        let mut opts = ShardOptions::new(
            1,
            &base,
            "squares",
            config_hash_of(&["squares"]),
            items.len(),
            WorkerCommand {
                program: PathBuf::from("/bin/sh"),
                args: vec!["-c".to_owned(), "exit 7".to_owned(), "worker".to_owned()],
            },
        );
        opts.max_respawns_per_shard = 2;
        opts.backoff_base = Duration::from_millis(1);
        opts.poll = Duration::from_millis(2);
        let err = run_sharded(&opts).unwrap_err();
        assert!(matches!(err, CoreError::Shard { .. }), "{err}");
        assert!(err.to_string().contains("respawn budget"), "{err}");
        assert!(err.to_string().contains("exit code 7"), "{err}");
        for input in inputs {
            let _ = std::fs::remove_file(input);
        }
        let _ = std::fs::remove_file(&base);
    }
}
