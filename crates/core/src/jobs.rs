//! Durable execution for long sweeps: append-only work journals,
//! wall-clock deadlines, cooperative cancellation, and panic-isolated
//! fan-out.
//!
//! A multi-hour Monte Carlo fault sweep or design-space characterization
//! should survive a SIGINT or SIGTERM, a wall-clock budget, or one
//! poisoned work item without losing the trials it already finished.
//! Both signals latch the same global [`CancelToken`] (via the std-only
//! shims in `pi3d_telemetry::cancel`), so a sweep interrupted by either
//! drains cooperatively, flushes its journal, and writes a partial run
//! report; the recorded latched signal then maps the process exit to 130
//! (SIGINT) or 143 (SIGTERM) via `pi3d_core::serve::exit_code_for`. This
//! module makes every such sweep *resumable*: each completed work unit is
//! appended to
//! an fsync'd [`Journal`] line keyed by a content hash of the run
//! configuration, and a rerun with the same journal skips the journaled
//! units and reproduces the uninterrupted result bit-identically (unit
//! seeds are positional, so recomputing only the missing units yields
//! exactly the bytes the uninterrupted run would have produced).
//!
//! # Sweep files
//!
//! This module is the only one that knows how sweep files are laid out.
//! The journal, the attempts log of a shard worker and the shard
//! supervisor's quarantine sidecar (`crate::shard`) are all line files,
//! read through one torn-tail-aware reader and written through one
//! fsync'd line append. A journal starts with one header line, which a
//! single type writes and parses, and every record line passes one check
//! (unit, recomputed key, shard slice, payload) whether it is resumed,
//! merged or counted for crash blame.
//!
//! # Crash-consistency argument
//!
//! A record is one compact JSON value followed by `\n`, written with a
//! single `write_all` and flushed with `sync_data` before it is
//! considered durable. String escaping guarantees the only `\n` in the
//! record is the terminator, and a torn write is a *prefix* of the
//! record, so a crash can only ever leave one non-newline-terminated
//! fragment at the tail of the file. Every reader therefore drops an
//! unterminated final fragment silently, so a file with no complete line
//! reads as empty (a journal torn inside its header opens as a fresh
//! one), and every writer truncates the fragment away before appending.
//! Any *newline-terminated* line that fails to parse or validate is real
//! corruption and fails with a typed [`CoreError::Journal`].
//!
//! # Example
//!
//! ```no_run
//! use pi3d_core::jobs::{config_fingerprint, journaled_sweep, JobContext};
//! use pi3d_telemetry::Json;
//!
//! let ctx = JobContext::new().with_journal("sweep.journal");
//! let hash = config_fingerprint(&["squares", "n=4"]);
//! let squares = journaled_sweep(
//!     "squares",
//!     hash,
//!     &[1u64, 2, 3, 4],
//!     2,
//!     &ctx,
//!     |_, &r| Json::num(r as f64),
//!     |_, payload| payload.as_num().map(|v| v as u64),
//!     |_, &v| Ok(v * v),
//! )?
//! .into_results()?;
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! # Ok::<(), pi3d_core::CoreError>(())
//! ```

use crate::error::CoreError;
use pi3d_telemetry::{CancelToken, Json};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema marker on the first line of every work journal.
pub const JOURNAL_SCHEMA: &str = "pi3d.jobs.v1";

/// 64-bit FNV-1a hash — the workspace's content hash for journal keys.
///
/// Chosen because it is tiny, dependency-free, stable across platforms,
/// and good enough to detect configuration mismatches (it is *not* a
/// cryptographic hash and is not used for integrity against adversaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Hashes a canonical list of configuration fragments into one 64-bit
/// fingerprint — the single implementation shared by the work journals
/// and the `pi3d serve` warm cache.
///
/// Fragments are joined with the ASCII unit separator (`0x1f`, which
/// cannot appear in the fragments' own vocabulary) so the concatenation
/// is unambiguous, then hashed with [`fnv1a64`]. The format is pinned by
/// a golden test: changing it invalidates every existing journal and
/// every persisted cache key, so it must never drift silently.
///
/// Callers must include everything that changes the *results* (seeds,
/// levels, trial counts, mesh resolution) and must exclude anything that
/// does not (thread counts, journal paths, deadlines), so a journal
/// written at `--threads 8` resumes cleanly at `--threads 1` and a serve
/// cache entry built at one worker count is hit at any other.
pub fn config_fingerprint(parts: &[&str]) -> u64 {
    let mut joined = String::new();
    for p in parts {
        joined.push_str(p);
        joined.push('\x1f'); // unit separator: unambiguous join
    }
    fnv1a64(joined.as_bytes())
}

/// Per-entry key: ties a record to both the run configuration and its
/// unit index, so mixing journals across configs is detected line by
/// line, not just at the header.
///
/// The shard layer reuses this keying for deterministic slice
/// assignment: unit `u` belongs to shard `unit_key(hash, u) % shards`,
/// so the partition is a pure function of the run configuration and the
/// merge verifier can recompute it per record.
pub fn unit_key(config_hash: u64, unit: usize) -> u64 {
    fnv1a64(format!("{config_hash:016x}:{unit}").as_bytes())
}

/// True when `unit` lies in slice `index` of `count` (see [`unit_key`]).
fn in_slice(config_hash: u64, unit: usize, (index, count): (usize, usize)) -> bool {
    unit_key(config_hash, unit) % count as u64 == index as u64
}

pub(crate) fn journal_error(path: &Path, reason: impl Into<String>) -> CoreError {
    CoreError::Journal {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// A whole, non-negative number as an index (a unit or a shard field).
fn whole(v: f64) -> Option<usize> {
    (v >= 0.0 && v.fract() == 0.0).then_some(v as usize)
}

/// The `unit` field of a journal or attempts-log record.
fn unit_of(record: &Json) -> Option<usize> {
    record.get("unit").and_then(Json::as_num).and_then(whole)
}

/// A sweep file read whole, its complete lines split from a torn final
/// fragment (see the crash-consistency argument in the module docs).
#[derive(Debug, Default)]
pub(crate) struct LineFile {
    text: String,
    /// Bytes up to and including the last `\n`: where the next append
    /// starts.
    complete: usize,
}

impl LineFile {
    /// Reads the file at `path`.
    pub(crate) fn read(path: &Path) -> std::io::Result<LineFile> {
        let text = std::fs::read_to_string(path)?;
        let complete = text.rfind('\n').map_or(0, |last| last + 1);
        Ok(LineFile { text, complete })
    }

    /// [`LineFile::read`], with a missing file read as empty.
    pub(crate) fn read_or_empty(path: &Path) -> std::io::Result<LineFile> {
        match LineFile::read(path) {
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(LineFile::default()),
            read => read,
        }
    }

    /// The complete lines, numbered from 1; a torn fragment is never
    /// among them.
    pub(crate) fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text[..self.complete.saturating_sub(1)]
            .lines()
            .enumerate()
            .map(|(i, line)| (i + 1, line))
    }

    /// True when the file ends in a torn fragment.
    pub(crate) fn torn(&self) -> bool {
        self.complete < self.text.len()
    }

    /// Byte length of the complete lines.
    pub(crate) fn complete_len(&self) -> u64 {
        self.complete as u64
    }

    /// Splits a journal into its parsed header and its record lines.
    pub(crate) fn journal(
        &self,
        path: &Path,
    ) -> Result<(JournalHeader, impl Iterator<Item = (usize, &str)>), CoreError> {
        let mut lines = self.lines();
        let (_, first) = lines
            .next()
            .ok_or_else(|| journal_error(path, "no complete header line"))?;
        Ok((JournalHeader::parse(path, first)?, lines))
    }
}

/// Reads a sidecar of one JSON record per line (an attempts log or the
/// quarantine sidecar). A missing file is empty and a torn fragment is
/// dropped; a complete line `parse` rejects is `corrupt {record} record
/// on line N`.
pub(crate) fn read_records<T>(
    path: &Path,
    file: &str,
    record: &str,
    parse: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, CoreError> {
    let lines = LineFile::read_or_empty(path)
        .map_err(|e| journal_error(path, format!("cannot read {file}: {e}")))?;
    lines
        .lines()
        .map(|(line_no, line)| {
            Json::parse(line)
                .ok()
                .as_ref()
                .and_then(&parse)
                .ok_or_else(|| {
                    journal_error(path, format!("corrupt {record} record on line {line_no}"))
                })
        })
        .collect()
}

/// An append-only line file written one fsync'd line at a time; safe to
/// share across worker threads.
#[derive(Debug)]
pub(crate) struct LineLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl LineLog {
    /// Opens `path` to append after its first `keep` bytes (the
    /// [`LineFile::complete_len`] of a read), cutting a torn fragment
    /// away. With nothing to keep the file is created or emptied; with
    /// lines to keep it must still exist.
    pub(crate) fn open(path: &Path, keep: u64) -> std::io::Result<LineLog> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(keep == 0)
            .open(path)?;
        file.set_len(keep)?;
        file.seek(SeekFrom::End(0))?;
        Ok(LineLog {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Durably appends `value` as one line: a single `write_all` of the
    /// compact JSON and its `\n`, then `sync_data`.
    pub(crate) fn append(&self, value: &Json) -> std::io::Result<()> {
        let mut line = value.to_compact_string();
        line.push('\n');
        // A poisoned lock only means another worker panicked *between*
        // whole-line writes; the file itself is still line-consistent.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
    }
}

/// The first line of every journal: `{"journal":"pi3d.jobs.v1",
/// "kind":…,"config_hash":…}`, with `shard_index` and `shard_count` after
/// them in a shard journal.
#[derive(Debug)]
pub(crate) struct JournalHeader {
    /// Sweep kind.
    pub(crate) kind: String,
    /// Content hash of the run configuration ([`config_fingerprint`]).
    pub(crate) config_hash: u64,
    /// `(shard_index, shard_count)` of a shard journal; `None` for a
    /// whole sweep.
    pub(crate) shard: Option<(usize, usize)>,
}

impl JournalHeader {
    /// The header line's JSON object.
    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![
            ("journal", Json::str(JOURNAL_SCHEMA)),
            ("kind", Json::str(self.kind.as_str())),
            (
                "config_hash",
                Json::str(format!("{:016x}", self.config_hash)),
            ),
        ];
        if let Some((index, count)) = self.shard {
            fields.push(("shard_index", Json::num(index as f64)));
            fields.push(("shard_count", Json::num(count as f64)));
        }
        Json::obj(fields)
    }

    /// Parses a header line. The config hash must be 16 lowercase hex
    /// digits, as [`JournalHeader::to_json`] writes it, and shard fields
    /// must name one slice: whole numbers with `shard_index < shard_count`.
    fn parse(path: &Path, line: &str) -> Result<JournalHeader, CoreError> {
        let header =
            Json::parse(line).map_err(|e| journal_error(path, format!("corrupt header: {e}")))?;
        let schema = header.get("journal").and_then(Json::as_str);
        if schema != Some(JOURNAL_SCHEMA) {
            return Err(journal_error(
                path,
                format!("unsupported schema {schema:?} (expected {JOURNAL_SCHEMA:?})"),
            ));
        }
        let hash_text = header
            .get("config_hash")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let config_hash = u64::from_str_radix(hash_text, 16)
            .ok()
            .filter(|hash| format!("{hash:016x}") == hash_text)
            .ok_or_else(|| journal_error(path, format!("unparseable config hash {hash_text:?}")))?;
        let field = |key| header.get(key).and_then(Json::as_num);
        let shard = match (field("shard_index"), field("shard_count")) {
            (Some(index), Some(count)) => match (whole(index), whole(count)) {
                (Some(i), Some(n)) if i < n => Some((i, n)),
                _ => {
                    return Err(journal_error(
                        path,
                        format!(
                            "shard_index {index} of shard_count {count} names no slice \
                             (need whole numbers with index < count)"
                        ),
                    ))
                }
            },
            _ => None,
        };
        Ok(JournalHeader {
            kind: header
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            config_hash,
            shard,
        })
    }

    /// Fails unless this header is for the same sweep (kind and config
    /// hash) as `expected`, which `expected_is` names in the message.
    pub(crate) fn check_same_sweep(
        &self,
        path: &Path,
        expected: &JournalHeader,
        expected_is: &str,
    ) -> Result<(), CoreError> {
        if self.kind != expected.kind {
            return Err(journal_error(
                path,
                format!(
                    "journal is for a {:?} run, not {:?}",
                    self.kind, expected.kind
                ),
            ));
        }
        if self.config_hash != expected.config_hash {
            return Err(journal_error(
                path,
                format!(
                    "journal was written for config hash {:016x}, {expected_is} {:016x} — \
                     refusing to mix results from different sweeps",
                    self.config_hash, expected.config_hash
                ),
            ));
        }
        Ok(())
    }

    /// Checks the record on line `line_no` against this header — a whole
    /// unit, its recomputed key, membership of the shard slice, a payload
    /// — and returns the unit and its payload.
    pub(crate) fn check_record(
        &self,
        path: &Path,
        line_no: usize,
        line: &str,
    ) -> Result<(usize, Json), CoreError> {
        let record = Json::parse(line)
            .map_err(|e| journal_error(path, format!("corrupt record on line {line_no}: {e}")))?;
        let unit = unit_of(&record)
            .ok_or_else(|| journal_error(path, format!("record on line {line_no} has no unit")))?;
        let key = record.get("key").and_then(Json::as_str).unwrap_or("");
        let expected_key = format!("{:016x}", unit_key(self.config_hash, unit));
        if key != expected_key {
            return Err(journal_error(
                path,
                format!(
                    "record on line {line_no} for unit {unit} carries key {key}, \
                     expected {expected_key}"
                ),
            ));
        }
        if let Some((index, count)) = self
            .shard
            .filter(|&slice| !in_slice(self.config_hash, unit, slice))
        {
            return Err(journal_error(
                path,
                format!(
                    "record on line {line_no} for unit {unit} is outside shard {index} of {count}"
                ),
            ));
        }
        let payload = record.get("payload").cloned().ok_or_else(|| {
            journal_error(
                path,
                format!("record for unit {unit} has no payload (line {line_no})"),
            )
        })?;
        Ok((unit, payload))
    }
}

/// How [`Journal::open_with_shard`] treats a missing file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Create the journal if missing; resume it if present (the
    /// `--journal` flag).
    CreateOrResume,
    /// The journal must already exist (the `--resume` flag) — a missing
    /// file is an error rather than a silent fresh start.
    ResumeExisting,
}

/// An append-only, fsync-per-record work journal.
///
/// Line 1 is a header `{"journal":"pi3d.jobs.v1","kind":...,
/// "config_hash":...}`; every subsequent line is one completed work unit
/// `{"unit":N,"key":...,"payload":...}`. See the module docs for the
/// crash-consistency argument.
#[derive(Debug)]
pub struct Journal {
    log: LineLog,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for a run identified by
    /// `kind` and `config_hash`, returning the journal plus every work
    /// unit already recorded in it. A shard journal's header also records
    /// which slice of the unit space (`shard_index` of `shard_count`) the
    /// file owns, and resuming cross-checks those fields, so a shard
    /// journal can never silently masquerade as a whole-sweep journal (or
    /// vice versa, or as another shard's).
    ///
    /// An existing journal must carry the same schema, kind, config hash
    /// and shard; an unterminated final fragment (torn write from a
    /// crash) is dropped and truncated away, so a file with no complete
    /// line starts a fresh journal, while any complete line that fails to
    /// parse or validate fails the open.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] on I/O failure, schema/kind/hash/
    /// shard mismatch, mid-file corruption, or (with
    /// [`JournalMode::ResumeExisting`]) a missing file.
    pub fn open_with_shard(
        path: &Path,
        kind: &str,
        config_hash: u64,
        mode: JournalMode,
        shard: Option<(usize, usize)>,
    ) -> Result<(Journal, Vec<(usize, Json)>), CoreError> {
        let header = JournalHeader {
            kind: kind.to_owned(),
            config_hash,
            shard,
        };
        let file = match LineFile::read(path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound && mode == JournalMode::CreateOrResume => {
                LineFile::default()
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(journal_error(
                    path,
                    "cannot resume: journal does not exist (use --journal to start one)",
                ))
            }
            Err(e) => return Err(journal_error(path, format!("cannot read: {e}"))),
        };
        if file.torn() {
            pi3d_telemetry::metrics::counter("jobs.torn_tail_dropped").incr(1);
        }
        if file.complete_len() == 0 {
            let log = LineLog::open(path, 0)
                .map_err(|e| journal_error(path, format!("cannot create: {e}")))?;
            log.append(&header.to_json())
                .map_err(|e| journal_error(path, format!("cannot write header: {e}")))?;
            return Ok((Journal { log }, Vec::new()));
        }

        let (found, records) = file.journal(path)?;
        found.check_same_sweep(path, &header, "this run is")?;
        // Shard identity must match in *both* directions: a shard journal
        // cannot resume as a whole-sweep journal (it is missing most
        // units), and a whole-sweep journal cannot resume as a shard (its
        // records fall outside the slice).
        if found.shard != shard {
            let describe = |s: Option<(usize, usize)>| match s {
                Some((i, n)) => format!("shard {i} of {n}"),
                None => "a whole (unsharded) sweep".to_owned(),
            };
            return Err(journal_error(
                path,
                format!(
                    "journal covers {}, this run expects {}",
                    describe(found.shard),
                    describe(shard)
                ),
            ));
        }
        let entries = records
            .map(|(line_no, line)| header.check_record(path, line_no, line))
            .collect::<Result<Vec<_>, _>>()?;
        let log = LineLog::open(path, file.complete_len())
            .map_err(|e| journal_error(path, format!("cannot reopen: {e}")))?;
        Ok((Journal { log }, entries))
    }

    /// Durably records one completed work unit as one fsync'd line. Safe
    /// to call from worker threads; records land in completion order
    /// (resume re-indexes by `unit`, so on-disk order never affects
    /// results).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] if the write or flush fails.
    pub fn append(&self, unit: usize, config_hash: u64, payload: Json) -> Result<(), CoreError> {
        let record = Json::obj([
            ("unit", Json::num(unit as f64)),
            (
                "key",
                Json::str(format!("{:016x}", unit_key(config_hash, unit))),
            ),
            ("payload", payload),
        ]);
        self.log
            .append(&record)
            .map_err(|e| journal_error(self.path(), format!("cannot append unit {unit}: {e}")))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.log.path
    }
}

#[derive(Debug, Clone)]
struct JournalSpec {
    path: PathBuf,
    mode: JournalMode,
}

/// Everything [`journaled_sweep`] needs beyond the work itself: where to
/// journal (if anywhere), the cancellation flag to poll, and the
/// absolute wall-clock deadline.
///
/// The default context journals nowhere, never cancels, and has no
/// deadline — plain in-memory sweeps pass [`JobContext::default`] and
/// behave exactly as before the durability layer existed.
#[derive(Debug, Clone, Default)]
pub struct JobContext {
    journal: Option<JournalSpec>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    shard: Option<(usize, usize)>,
    skip: Vec<usize>,
    defer: Vec<usize>,
    attempts: Option<PathBuf>,
}

impl JobContext {
    /// A context with no journal, no cancellation source, and no
    /// deadline.
    pub fn new() -> Self {
        JobContext::default()
    }

    /// Attaches a journal at `path`, created if missing and resumed if
    /// present.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(JournalSpec {
            path: path.into(),
            mode: JournalMode::CreateOrResume,
        });
        self
    }

    /// Attaches a journal at `path` that must already exist (the
    /// `--resume` flag's strict semantics).
    #[must_use]
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(JournalSpec {
            path: path.into(),
            mode: JournalMode::ResumeExisting,
        });
        self
    }

    /// Sets the cancellation token polled between work units.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the absolute wall-clock deadline checked between work units.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Restricts the sweep to shard `index` of `count`: only units whose
    /// [`unit_key`] lands in this slice are computed, and the journal
    /// header records the shard identity so cross-shard mixups are
    /// detected on resume.
    #[must_use]
    pub fn with_shard(mut self, index: usize, count: usize) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Excludes specific units from the sweep entirely (quarantined
    /// units: they are neither computed nor waited for).
    #[must_use]
    pub fn with_skip_units(mut self, units: Vec<usize>) -> Self {
        self.skip = units;
        self
    }

    /// Defers specific units to a serial tail batch run after the
    /// parallel batch, so a crash during one of them blames exactly one
    /// unit (used by the shard supervisor for crash suspects).
    #[must_use]
    pub fn with_defer_units(mut self, units: Vec<usize>) -> Self {
        self.defer = units;
        self
    }

    /// Attaches an attempts log: before each unit is computed, its index
    /// is fsync'd to this file, so a supervisor can diff attempted
    /// against journaled units to blame a crash.
    #[must_use]
    pub fn with_attempts_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.attempts = Some(path.into());
        self
    }

    /// The cancellation token, if one is attached.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the attached token (if any) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// True once the deadline (if any) has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Reads the unit indices recorded in an attempts log written via
/// [`JobContext::with_attempts_log`]: one fsync'd `{"unit":N}` line
/// *before* each compute, truncated at every worker start. Diffing
/// attempted against journaled units tells the shard supervisor which
/// unit(s) a crashed worker was holding — the crash-blame input for
/// poison-unit quarantine.
///
/// A missing file means no unit was ever attempted (the worker died
/// before its first unit) and yields an empty list. A torn final
/// fragment is dropped, as in every sweep file.
///
/// # Errors
///
/// Returns [`CoreError::Journal`] on I/O failure or a corrupt
/// newline-terminated line.
pub fn read_attempted_units(path: &Path) -> Result<Vec<usize>, CoreError> {
    read_records(path, "attempts log", "attempt", unit_of)
}

/// Environment variable holding chaos-injected poison units for sweep
/// testing: a comma-separated list of `unit` or `kind:unit` entries.
/// A matching unit panics (after its attempt is logged, before compute),
/// exercising the quarantine path end-to-end with a real worker death.
pub const CHAOS_PANIC_UNITS_ENV: &str = "PI3D_CHAOS_PANIC_UNITS";

fn chaos_panic_units(kind: &str) -> Vec<usize> {
    let Ok(spec) = std::env::var(CHAOS_PANIC_UNITS_ENV) else {
        return Vec::new();
    };
    let mut units = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let unit = match entry.split_once(':') {
            Some((k, u)) => (k == kind).then_some(u),
            None => Some(entry),
        };
        if let Some(u) = unit.and_then(|u| u.parse::<usize>().ok()) {
            units.push(u);
        }
    }
    units
}

/// A unit-indexed view of a (possibly scope-restricted) journaled sweep,
/// returned by [`journaled_sweep`].
#[derive(Debug)]
pub struct PartialSweep<R> {
    /// Unit-indexed result slots; `None` marks out-of-scope units (other
    /// shards' slices and skipped units).
    pub slots: Vec<Option<R>>,
    /// Number of units inside this context's scope.
    pub in_scope: usize,
    /// Number of in-scope units completed (resumed or freshly computed).
    pub completed: usize,
}

impl<R> PartialSweep<R> {
    /// Every unit's result, in unit order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shard`] when the sweep ran under a scoped
    /// context (a shard slice or skip list) that left units out.
    pub fn into_results(self) -> Result<Vec<R>, CoreError> {
        let total = self.slots.len();
        let in_scope = self.in_scope;
        self.slots
            .into_iter()
            .collect::<Option<Vec<R>>>()
            .ok_or_else(|| CoreError::Shard {
                reason: format!(
                    "a scoped sweep covers {in_scope} of {total} units; \
                     only a full-scope sweep has every result"
                ),
            })
    }
}

/// Runs `compute` over every item in the scope of `ctx`, journaling each
/// completed unit and skipping units already journaled, with cooperative
/// cancellation, a wall-clock deadline, and panic isolation per unit.
///
/// * Work fans across `threads` panic-isolated workers
///   ([`parallel_map_catch`](pi3d_telemetry::par::parallel_map_catch));
///   results merge back in unit order, so output is bit-identical for
///   every thread count *and* for every resume point.
/// * When `ctx` carries a journal, units recorded in it are decoded
///   instead of recomputed, and each fresh unit is fsync'd to it the
///   moment it completes — even when the sweep later fails.
/// * The cancel token and deadline are polled before each unit starts;
///   units already running finish (and are journaled) normally.
///
/// A plain context covers every unit, and
/// [`into_results`](PartialSweep::into_results) hands back the full
/// result vector. Shard workers scope the sweep: with a shard slice
/// ([`JobContext::with_shard`]), only units whose [`unit_key`] lands in
/// the slice are computed, and the journal header records the shard
/// identity. Skipped units ([`JobContext::with_skip_units`], quarantined
/// elsewhere) are excluded entirely; deferred units
/// ([`JobContext::with_defer_units`], crash suspects) run in a *serial*
/// tail batch after the parallel batch, so a repeat crash blames exactly
/// one unit.
///
/// # Errors
///
/// With strict priority (a real failure is never masked by the shutdown
/// it triggered): a `compute` error for the lowest unit, then
/// [`CoreError::WorkerPanic`] for the lowest panicked unit, then
/// [`CoreError::Cancelled`], then [`CoreError::DeadlineExceeded`]: an
/// explicit cancel outranks a deadline. Their totals count in-scope
/// units only. Journal failures surface as [`CoreError::Journal`].
#[allow(clippy::too_many_arguments)]
pub fn journaled_sweep<T, R, E, D, C>(
    kind: &str,
    config_hash: u64,
    items: &[T],
    threads: usize,
    ctx: &JobContext,
    encode: E,
    decode: D,
    compute: C,
) -> Result<PartialSweep<R>, CoreError>
where
    T: Sync,
    R: Send,
    E: Fn(usize, &R) -> Json + Sync,
    D: Fn(usize, &Json) -> Option<R>,
    C: Fn(usize, &T) -> Result<R, CoreError> + Sync,
{
    let (journal, preloaded) = match &ctx.journal {
        Some(spec) => {
            let (journal, entries) =
                Journal::open_with_shard(&spec.path, kind, config_hash, spec.mode, ctx.shard)?;
            (Some(journal), entries)
        }
        None => (None, Vec::new()),
    };
    let attempts = match &ctx.attempts {
        Some(path) => Some(
            LineLog::open(path, 0)
                .map_err(|e| journal_error(path, format!("cannot create attempts log: {e}")))?,
        ),
        None => None,
    };
    let chaos = chaos_panic_units(kind);

    let in_scope = |unit: usize| {
        ctx.shard
            .is_none_or(|slice| in_slice(config_hash, unit, slice))
            && !ctx.skip.contains(&unit)
    };

    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let mut resumed = 0u64;
    let journal_path = journal.as_ref().map_or(Path::new("<none>"), Journal::path);
    for (unit, payload) in preloaded {
        if unit >= items.len() {
            return Err(journal_error(
                journal_path,
                format!(
                    "journaled unit {unit} is out of range for this {}-unit sweep",
                    items.len()
                ),
            ));
        }
        if !in_scope(unit) {
            // A previously-journaled unit that this generation skips
            // (e.g. quarantined after it was recorded) is simply ignored;
            // the merged journal still carries it.
            continue;
        }
        let decoded = decode(unit, &payload).ok_or_else(|| {
            journal_error(
                journal_path,
                format!("cannot decode payload of unit {unit}"),
            )
        })?;
        if slots[unit].is_none() {
            resumed += 1;
        }
        slots[unit] = Some(decoded);
    }
    if resumed > 0 {
        pi3d_telemetry::metrics::counter("jobs.resumed_units").incr(resumed);
    }

    let scope_count = (0..items.len()).filter(|&u| in_scope(u)).count();
    // Deferred (crash-suspect) units run serially *after* the parallel
    // batch so the attempts log pins a repeat crash to exactly one unit.
    let pending: Vec<usize> = (0..items.len())
        .filter(|&u| in_scope(u) && slots[u].is_none() && !ctx.defer.contains(&u))
        .collect();
    let deferred: Vec<usize> = (0..items.len())
        .filter(|&u| in_scope(u) && slots[u].is_none() && ctx.defer.contains(&u))
        .collect();
    let cancelled = AtomicBool::new(false);
    let deadline_hit = AtomicBool::new(false);
    let journal_ref = journal.as_ref();
    let attempts_ref = attempts.as_ref();
    let progress = pi3d_telemetry::progress::start(
        kind,
        scope_count,
        scope_count - pending.len() - deferred.len(),
    );
    let unit_hist = pi3d_telemetry::metrics::histogram(&format!("jobs.{kind}.unit_ms"));
    let run_unit = |unit: usize| -> Result<Option<R>, CoreError> {
        if ctx.is_cancelled() {
            cancelled.store(true, Ordering::Relaxed);
            return Ok(None);
        }
        if ctx.deadline_exceeded() {
            deadline_hit.store(true, Ordering::Relaxed);
            return Ok(None);
        }
        // One trace slice per work unit, so a sweep renders as a
        // per-worker timeline of `kind[unit]` slices in the trace view.
        let _unit_slice = pi3d_telemetry::trace::span_with("jobs", || format!("{kind}[{unit}]"));
        let unit_started = Instant::now();
        if let Some(attempts) = attempts_ref {
            attempts
                .append(&Json::obj([("unit", Json::num(unit as f64))]))
                .map_err(|e| {
                    journal_error(
                        &attempts.path,
                        format!("cannot record attempt of unit {unit}: {e}"),
                    )
                })?;
        }
        assert!(
            !chaos.contains(&unit),
            "chaos: unit {unit} poisoned via {CHAOS_PANIC_UNITS_ENV}"
        );
        let result = compute(unit, &items[unit])?;
        if let Some(journal) = journal_ref {
            let _journal_slice = pi3d_telemetry::trace::span("jobs", "journal_append");
            journal.append(unit, config_hash, encode(unit, &result))?;
        }
        unit_hist.record(unit_started.elapsed().as_millis() as u64);
        progress.unit_done();
        Ok(Some(result))
    };
    let mut results =
        pi3d_telemetry::par::parallel_map_catch(&pending, threads, |_, &unit| run_unit(unit));
    results.extend(pi3d_telemetry::par::parallel_map_catch(
        &deferred,
        1,
        |_, &unit| run_unit(unit),
    ));
    drop(progress);

    let mut first_error: Option<CoreError> = None;
    let mut first_panic: Option<(usize, String)> = None;
    let batches = pending.iter().chain(deferred.iter());
    for (slot, result) in batches.zip(results) {
        match result {
            Ok(Ok(Some(r))) => slots[*slot] = Some(r),
            Ok(Ok(None)) => {} // interrupted before this unit started
            Ok(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some((*slot, p.message));
                }
            }
        }
    }
    let completed = slots.iter().filter(|s| s.is_some()).count();
    if let Some(e) = first_error {
        // A cancel or deadline that lands *inside* a unit's memory
        // simulation surfaces as that unit's error; report it as the
        // sweep-level interruption it is (completed units are journaled,
        // `--resume` applies) instead of a per-unit failure.
        if e.is_interruption() && ctx.is_cancelled() {
            cancelled.store(true, Ordering::Relaxed);
        } else if e.is_interruption() && ctx.deadline_exceeded() {
            deadline_hit.store(true, Ordering::Relaxed);
        } else {
            return Err(e);
        }
    } else if let Some((unit, message)) = first_panic {
        return Err(CoreError::WorkerPanic { unit, message });
    }
    if cancelled.load(Ordering::Relaxed) {
        pi3d_telemetry::metrics::counter("jobs.sweeps_cancelled").incr(1);
        return Err(CoreError::Cancelled {
            completed,
            total: scope_count,
        });
    }
    if deadline_hit.load(Ordering::Relaxed) {
        pi3d_telemetry::metrics::counter("jobs.sweeps_deadline_exceeded").incr(1);
        return Err(CoreError::DeadlineExceeded {
            completed,
            total: scope_count,
        });
    }
    Ok(PartialSweep {
        slots,
        in_scope: scope_count,
        completed,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pi3d-jobs-{}-{name}", std::process::id()))
    }

    fn partial_squares(
        ctx: &JobContext,
        items: &[u64],
        threads: usize,
        calls: &AtomicUsize,
    ) -> Result<PartialSweep<u64>, CoreError> {
        journaled_sweep(
            "squares",
            config_fingerprint(&["squares"]),
            items,
            threads,
            ctx,
            |_, &r| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |_, &v| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(v * v)
            },
        )
    }

    fn sweep_squares(
        ctx: &JobContext,
        items: &[u64],
        threads: usize,
        calls: &AtomicUsize,
    ) -> Result<Vec<u64>, CoreError> {
        partial_squares(ctx, items, threads, calls).and_then(PartialSweep::into_results)
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// Golden fingerprints: journals on disk and persisted cache keys
    /// embed these values, so the joining scheme must never drift. If
    /// this test fails, the change breaks `--resume` against every
    /// existing journal — don't "fix" the constants.
    #[test]
    fn config_fingerprint_is_pinned() {
        assert_eq!(config_fingerprint(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(config_fingerprint(&[""]), 0xaf63_d24c_8601_db8e);
        assert_eq!(
            config_fingerprint(&["squares", "n=4"]),
            0xa728_a211_dbcd_9b74
        );
        assert_eq!(
            config_fingerprint(&["simulate", "distr", "24"]),
            0xc888_86c8_9f23_07e6
        );
        // The separator keeps fragment boundaries unambiguous: ["a","b"]
        // must not collide with ["ab"].
        assert_eq!(config_fingerprint(&["a", "b"]), 0xe8bc_b182_3051_3c4a);
        assert_eq!(config_fingerprint(&["ab"]), 0xe720_0e19_0542_0ecf);
        assert_ne!(config_fingerprint(&["a", "b"]), config_fingerprint(&["ab"]));
    }

    #[test]
    fn sweep_without_journal_matches_plain_map() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u64> = (0..10).collect();
        let got = sweep_squares(&JobContext::new(), &items, 4, &calls).unwrap();
        assert_eq!(got, items.iter().map(|v| v * v).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn resume_skips_journaled_units_and_reproduces_results() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..12).collect();
        let ctx = JobContext::new().with_journal(&path);

        let calls = AtomicUsize::new(0);
        let first = sweep_squares(&ctx, &items, 3, &calls).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), items.len());

        // A rerun over the same journal recomputes nothing.
        let calls = AtomicUsize::new(0);
        let second = sweep_squares(&ctx, &items, 1, &calls).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(second, first);

        // Strict --resume semantics also succeed on the existing file.
        let strict = JobContext::new().with_resume(&path);
        let calls = AtomicUsize::new(0);
        assert_eq!(sweep_squares(&strict, &items, 8, &calls).unwrap(), first);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strict_resume_requires_an_existing_journal() {
        let path = temp_path("strict-missing");
        let _ = std::fs::remove_file(&path);
        let ctx = JobContext::new().with_resume(&path);
        let err = sweep_squares(&ctx, &[1, 2], 1, &AtomicUsize::new(0)).unwrap_err();
        assert!(matches!(err, CoreError::Journal { .. }), "{err}");
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn torn_tail_is_dropped_but_midfile_corruption_is_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..6).collect();
        let ctx = JobContext::new().with_journal(&path);
        sweep_squares(&ctx, &items, 2, &AtomicUsize::new(0)).unwrap();

        // Simulate a crash mid-append: chop the final record in half.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let torn = &text[..text.len() - 7];
        std::fs::write(&path, torn).unwrap();
        let calls = AtomicUsize::new(0);
        let again = sweep_squares(&ctx, &items, 2, &calls).unwrap();
        assert_eq!(again, items.iter().map(|v| v * v).collect::<Vec<_>>());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "only the torn unit reruns"
        );
        // The rerun's append starts on a clean line: the file parses whole.
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            Json::parse(line).unwrap();
        }

        // Corruption *before* the tail is an error, not a silent skip.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        lines[2] = "{\"unit\": garbage".to_owned();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = sweep_squares(&ctx, &items, 2, &AtomicUsize::new(0)).unwrap_err();
        assert!(matches!(err, CoreError::Journal { .. }), "{err}");
        assert!(err.to_string().contains("corrupt record"), "{err}");
        // The error pins the corrupt line: lines[2] is file line 3.
        assert!(err.to_string().contains("line 3"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_torn_inside_its_header_starts_fresh() {
        // A process killed while writing the header leaves no complete
        // line: both --journal and --resume open it as a fresh journal.
        let path = temp_path("torn-header");
        let items: Vec<u64> = (0..4).collect();
        let squares: Vec<u64> = items.iter().map(|v| v * v).collect();
        for ctx in [
            JobContext::new().with_journal(&path),
            JobContext::new().with_resume(&path),
        ] {
            std::fs::write(&path, "{\"journal\":\"pi3d.jo").unwrap();
            let calls = AtomicUsize::new(0);
            assert_eq!(sweep_squares(&ctx, &items, 2, &calls).unwrap(), squares);
            assert_eq!(calls.load(Ordering::Relaxed), items.len());
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with("{\"journal\":\"pi3d.jobs.v1\""), "{text}");
            assert_eq!(text.lines().count(), 1 + items.len());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn midfile_key_mismatch_reports_line_number() {
        let path = temp_path("key-mismatch");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..4).collect();
        let ctx = JobContext::new().with_journal(&path);
        sweep_squares(&ctx, &items, 1, &AtomicUsize::new(0)).unwrap();

        // Swap one interior record's key for another unit's: the record
        // is well-formed JSON, so only the key check can catch it — and
        // it must say which line.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        let hash = config_fingerprint(&["squares"]);
        let record = Json::parse(&lines[2]).unwrap();
        let unit = record.get("unit").and_then(Json::as_num).unwrap() as usize;
        let wrong_key = format!("{:016x}", unit_key(hash, unit + 1));
        lines[2] = Json::obj([
            ("unit", Json::num(unit as f64)),
            ("key", Json::str(wrong_key)),
            ("payload", record.get("payload").unwrap().clone()),
        ])
        .to_compact_string();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = sweep_squares(&ctx, &items, 1, &AtomicUsize::new(0)).unwrap_err();
        assert!(matches!(err, CoreError::Journal { .. }), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("carries key"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scoped_context_is_rejected_by_journaled_sweep() {
        let items: Vec<u64> = (0..20).collect();
        for ctx in [
            JobContext::new().with_shard(0, 2),
            JobContext::new().with_skip_units(vec![3]),
        ] {
            let partial = partial_squares(&ctx, &items, 1, &AtomicUsize::new(0)).unwrap();
            assert!(partial.in_scope < items.len());
            let err = partial.into_results().unwrap_err();
            assert!(matches!(err, CoreError::Shard { .. }), "{err}");
        }
        // Deferred units still run, so a defer-only sweep is complete.
        let ctx = JobContext::new().with_defer_units(vec![3]);
        let all = sweep_squares(&ctx, &items, 1, &AtomicUsize::new(0)).unwrap();
        assert_eq!(all, items.iter().map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn shard_slices_partition_the_unit_space() {
        let items: Vec<u64> = (0..20).collect();
        let hash = config_fingerprint(&["squares"]);
        for shards in [1usize, 2, 3, 4] {
            let mut seen = vec![0usize; items.len()];
            let mut total_scope = 0;
            for index in 0..shards {
                let ctx = JobContext::new().with_shard(index, shards);
                let calls = AtomicUsize::new(0);
                let partial = partial_squares(&ctx, &items, 2, &calls).unwrap();
                assert_eq!(partial.completed, partial.in_scope);
                total_scope += partial.in_scope;
                for (unit, slot) in partial.slots.iter().enumerate() {
                    if let Some(r) = slot {
                        assert_eq!(*r, items[unit] * items[unit]);
                        assert_eq!(unit_key(hash, unit) % shards as u64, index as u64);
                        seen[unit] += 1;
                    }
                }
            }
            assert_eq!(total_scope, items.len(), "shards={shards}");
            assert!(
                seen.iter().all(|&c| c == 1),
                "each unit in exactly one slice"
            );
        }
    }

    #[test]
    fn shard_journal_identity_is_checked_both_ways() {
        let path = temp_path("shard-identity");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..8).collect();

        // Written as shard 0 of 2 …
        let sharded = JobContext::new().with_journal(&path).with_shard(0, 2);
        partial_squares(&sharded, &items, 1, &AtomicUsize::new(0)).unwrap();

        // … cannot resume as a whole sweep,
        let whole = JobContext::new().with_journal(&path);
        let err = sweep_squares(&whole, &items, 1, &AtomicUsize::new(0)).unwrap_err();
        assert!(err.to_string().contains("shard 0 of 2"), "{err}");

        // … nor as a different slice.
        let other = JobContext::new().with_journal(&path).with_shard(1, 2);
        let err = partial_squares(&other, &items, 1, &AtomicUsize::new(0)).unwrap_err();
        assert!(err.to_string().contains("shard 1 of 2"), "{err}");

        // The matching slice resumes with zero recompute.
        let calls = AtomicUsize::new(0);
        let again = partial_squares(&sharded, &items, 1, &calls).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(again.completed, again.in_scope);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn skip_and_defer_scope_the_sweep() {
        let attempts = temp_path("skip-defer-attempts");
        let _ = std::fs::remove_file(&attempts);
        let items: Vec<u64> = (0..6).collect();
        let ctx = JobContext::new()
            .with_skip_units(vec![2])
            .with_defer_units(vec![1])
            .with_attempts_log(&attempts);
        let calls = AtomicUsize::new(0);
        let partial = partial_squares(&ctx, &items, 1, &calls).unwrap();
        assert_eq!(partial.in_scope, 5);
        assert_eq!(partial.completed, 5);
        assert!(partial.slots[2].is_none(), "skipped unit stays empty");
        assert_eq!(partial.slots[1], Some(1), "deferred unit still computed");

        // The attempts log saw every computed unit, deferred one last.
        let attempted = read_attempted_units(&attempts).unwrap();
        assert_eq!(attempted, vec![0, 3, 4, 5, 1]);
        let _ = std::fs::remove_file(&attempts);
    }

    #[test]
    fn attempts_log_tolerates_torn_tail_and_rejects_corruption() {
        let path = temp_path("attempts-torn");
        std::fs::write(&path, "{\"unit\":0}\n{\"unit\":7}\n{\"uni").unwrap();
        assert_eq!(read_attempted_units(&path).unwrap(), vec![0, 7]);
        std::fs::write(&path, "{\"unit\":0}\nnot json\n").unwrap();
        let err = read_attempted_units(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_attempted_units(&path).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn chaos_env_parsing_matches_kind() {
        // Pure parser check (no env mutation): exercised end-to-end by
        // the CLI quarantine tests, which set the variable per process.
        assert!(chaos_panic_units("anything").is_empty());
    }

    #[test]
    fn mismatched_config_hash_refuses_to_resume() {
        let path = temp_path("hash-mismatch");
        let _ = std::fs::remove_file(&path);
        let ctx = JobContext::new().with_journal(&path);
        sweep_squares(&ctx, &[1, 2, 3], 1, &AtomicUsize::new(0)).unwrap();

        let err = journaled_sweep(
            "squares",
            config_fingerprint(&["squares", "different-seed"]),
            &[1u64, 2, 3],
            1,
            &ctx,
            |_, &r: &u64| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |_, &v| Ok(v * v),
        )
        .unwrap_err();
        assert!(err.to_string().contains("config hash"), "{err}");

        let err = journaled_sweep(
            "cubes",
            config_fingerprint(&["squares"]),
            &[1u64, 2, 3],
            1,
            &ctx,
            |_, &r: &u64| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |_, &v| Ok(v * v),
        )
        .unwrap_err();
        assert!(err.to_string().contains("\"squares\""), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancelled_sweep_returns_typed_error_and_journals_completed_units() {
        let path = temp_path("cancel");
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::new();
        token.cancel();
        let ctx = JobContext::new().with_journal(&path).with_cancel(token);
        let err =
            sweep_squares(&ctx, &(0..8).collect::<Vec<_>>(), 2, &AtomicUsize::new(0)).unwrap_err();
        assert_eq!(
            err,
            CoreError::Cancelled {
                completed: 0,
                total: 8
            }
        );
        // The journal survives with just its header: resumable.
        let fresh = JobContext::new().with_resume(&path);
        let calls = AtomicUsize::new(0);
        let got = sweep_squares(&fresh, &(0..8).collect::<Vec<_>>(), 2, &calls).unwrap();
        assert_eq!(got.len(), 8);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_sweep_cancel_preserves_finished_units() {
        let path = temp_path("mid-cancel");
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::new();
        let ctx = JobContext::new()
            .with_journal(&path)
            .with_cancel(token.clone());
        let items: Vec<u64> = (0..32).collect();
        let err = journaled_sweep(
            "squares",
            config_fingerprint(&["squares"]),
            &items,
            1,
            &ctx,
            |_, &r: &u64| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |unit, &v| {
                if unit == 5 {
                    token.cancel();
                }
                Ok(v * v)
            },
        )
        .unwrap_err();
        // Single-threaded: units 0..=5 complete, the rest are skipped.
        assert_eq!(
            err,
            CoreError::Cancelled {
                completed: 6,
                total: 32
            }
        );
        let calls = AtomicUsize::new(0);
        let resumed =
            sweep_squares(&JobContext::new().with_resume(&path), &items, 4, &calls).unwrap();
        assert_eq!(resumed, items.iter().map(|v| v * v).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 32 - 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn passed_deadline_stops_before_any_unit() {
        let ctx = JobContext::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let calls = AtomicUsize::new(0);
        let err = sweep_squares(&ctx, &[1, 2, 3], 2, &calls).unwrap_err();
        assert_eq!(
            err,
            CoreError::DeadlineExceeded {
                completed: 0,
                total: 3
            }
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panicking_unit_becomes_worker_panic_and_others_are_journaled() {
        let path = temp_path("panic");
        let _ = std::fs::remove_file(&path);
        let ctx = JobContext::new().with_journal(&path);
        let items: Vec<u64> = (0..10).collect();
        let run = |calls: &AtomicUsize, poison: bool| {
            journaled_sweep(
                "squares",
                config_fingerprint(&["squares"]),
                &items,
                3,
                &ctx,
                |_, &r: &u64| Json::num(r as f64),
                |_, payload| payload.as_num().map(|v| v as u64),
                |unit, &v| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert!(!(poison && unit == 4), "poisoned unit 4");
                    Ok(v * v)
                },
            )
            .and_then(PartialSweep::into_results)
        };
        let calls = AtomicUsize::new(0);
        let err = run(&calls, true).unwrap_err();
        assert_eq!(calls.load(Ordering::Relaxed), 10, "all units attempted");
        match err {
            CoreError::WorkerPanic { unit, ref message } => {
                assert_eq!(unit, 4);
                assert!(message.contains("poisoned unit 4"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The 9 healthy units are durable: only unit 4 reruns.
        let calls = AtomicUsize::new(0);
        let fixed = run(&calls, false).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(fixed, items.iter().map(|v| v * v).collect::<Vec<_>>());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interruption_inside_a_unit_is_reported_as_sweep_cancellation() {
        use pi3d_memsim::{
            IrDropLut, MemorySimulator, ReadPolicy, SimConfig, SimulateError, TimingParams,
            WorkloadSpec,
        };
        let token = CancelToken::new();
        let ctx = JobContext::new().with_cancel(token.clone());
        let items: Vec<u64> = (0..4).collect();
        let mut workload = WorkloadSpec::paper_ddr3();
        workload.count = 8;
        let requests = workload.generate();
        let err = journaled_sweep(
            "midunit",
            config_fingerprint(&["midunit"]),
            &items,
            1,
            &ctx,
            |_, &r: &u64| Json::num(r as f64),
            |_, payload| payload.as_num().map(|v| v as u64),
            |unit, &v| {
                if unit == 2 {
                    // The cancel lands mid-simulation: the unit's memsim
                    // run polls the token and surfaces its typed
                    // interruption instead of a result.
                    token.cancel();
                    let sim = MemorySimulator::new(
                        TimingParams::ddr3_1600(),
                        SimConfig::paper_ddr3(),
                        ReadPolicy::standard(),
                        IrDropLut::new(4),
                    )
                    .with_cancel(token.clone());
                    let err = sim.run(&requests).unwrap_err();
                    assert!(matches!(err, SimulateError::Cancelled { .. }), "{err:?}");
                    return Err(CoreError::Simulate(err));
                }
                Ok(v * v)
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Cancelled {
                completed: 2,
                total: 4
            }
        );
    }
}
