//! Leveled stderr logger.
//!
//! The level is a single global atomic: the disabled path of every
//! logging macro is one relaxed load and a compare. Initialization reads
//! the `PI3D_LOG` environment variable the first time the level is
//! consulted; [`set_level`] (wired to `--log-level` in the CLIs)
//! overrides it.
//!
//! ```
//! use pi3d_telemetry::{log, Level};
//!
//! log::set_level(Level::Info);
//! pi3d_telemetry::info!("mesh built: {} nodes", 4032);
//! pi3d_telemetry::trace!("not printed at info level");
//! ```

use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Logging verbosity, ordered from silent to firehose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No output at all.
    Off = 0,
    /// Unrecoverable problems.
    Error = 1,
    /// Suspicious but survivable conditions.
    Warn = 2,
    /// High-level progress (default).
    Info = 3,
    /// Per-phase internals.
    Debug = 4,
    /// Per-iteration firehose.
    Trace = 5,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Off => "OFF",
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error from parsing a level name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelError(String);

impl fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown log level {:?} (expected off|error|warn|info|debug|trace)",
            self.0
        )
    }
}

impl std::error::Error for ParseLevelError {}

impl FromStr for Level {
    type Err = ParseLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(Level::Off),
            "error" | "1" => Ok(Level::Error),
            "warn" | "warning" | "2" => Ok(Level::Warn),
            "info" | "3" => Ok(Level::Info),
            "debug" | "4" => Ok(Level::Debug),
            "trace" | "5" => Ok(Level::Trace),
            other => Err(ParseLevelError(other.to_owned())),
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// The default level when neither `PI3D_LOG` nor [`set_level`] spoke:
/// warnings and errors only, so library users are not surprised by
/// chatter on stderr.
const DEFAULT_LEVEL: Level = Level::Warn;

/// Current level, initializing from `PI3D_LOG` on first use.
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != UNINIT {
        return Level::from_u8(raw);
    }
    let from_env = std::env::var("PI3D_LOG")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_LEVEL);
    // A concurrent set_level wins: only replace the sentinel.
    let _ = LEVEL.compare_exchange(UNINIT, from_env as u8, Ordering::Relaxed, Ordering::Relaxed);
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Overrides the level (e.g. from a `--log-level` flag).
pub fn set_level(level: Level) {
    start_instant();
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether a record at `at` would be emitted.
pub fn enabled(at: Level) -> bool {
    at != Level::Off && at <= level()
}

/// Emits one record to stderr. Prefer the [`error!`](crate::error)…
/// [`trace!`](crate::trace!) macros, which capture the module path and
/// format lazily.
pub fn log_at(at: Level, target: &str, args: fmt::Arguments<'_>) {
    if !enabled(at) {
        return;
    }
    let elapsed = start_instant().elapsed();
    let stderr = std::io::stderr();
    let mut lock = stderr.lock();
    let _ = writeln!(
        lock,
        "[{:>9.3}s {:5} {}] {}",
        elapsed.as_secs_f64(),
        at.label(),
        target,
        args
    );
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::Level::Error, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::Level::Warn, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::Level::Info, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::Level::Debug, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::Level::Trace, module_path!(), format_args!($($arg)*))
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert_eq!("WARN".parse::<Level>().unwrap(), Level::Warn);
        assert_eq!("off".parse::<Level>().unwrap(), Level::Off);
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn gate_respects_the_level() {
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        set_level(Level::Trace);
        assert!(enabled(Level::Trace));
    }
}
