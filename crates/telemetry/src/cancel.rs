//! Cooperative cancellation for long-running sweeps.
//!
//! A [`CancelToken`] is a cheap, cloneable handle to a shared flag that
//! long loops (memsim event loops, sweeps, serve stages) poll between
//! work units. Cancellation is *requested*, never forced: each
//! loop notices the flag at its next poll point, flushes whatever durable
//! state it owns (work journal, partial run report), and returns a typed
//! `Cancelled` error instead of dying mid-write.
//!
//! Two flavours share one API:
//!
//! * [`CancelToken::new`] — a private flag for tests and embedded use.
//! * [`CancelToken::global`] — the process-wide flag, set by the std-only
//!   signal shims ([`install_sigint`], [`install_sigterm`]) or by a
//!   polling flag-file watcher ([`watch_flag_file`]) on platforms without
//!   the `signal` shim.
//!
//! The signal handlers are async-signal-safe by construction: each
//! performs two atomic stores and then restores the default disposition,
//! so a second delivery kills the process immediately (the documented
//! escape hatch when a run ignores the first request). Which signal
//! latched the flag is recorded and exposed via [`latched_signal`] so the
//! process can exit 130 for SIGINT and 143 for SIGTERM, matching shell
//! conventions.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Process-wide cancellation flag backing [`CancelToken::global`].
static GLOBAL_CANCELLED: AtomicBool = AtomicBool::new(false);

/// Signal number that latched [`GLOBAL_CANCELLED`], or 0 when the flag
/// was set programmatically (flag file, `CancelToken::cancel`).
static GLOBAL_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// POSIX SIGINT (interactive interrupt, Ctrl-C).
pub const SIGINT: i32 = 2;
/// POSIX SIGTERM (polite termination request, `kill <pid>`'s default).
pub const SIGTERM: i32 = 15;

/// A cloneable handle to a shared cancellation flag.
///
/// Equality is identity: two tokens compare equal when they observe the
/// *same* flag (the global flag, or the same local allocation), which is
/// what solver-configuration equality needs.
///
/// # Examples
///
/// ```
/// use pi3d_telemetry::cancel::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Inner,
}

#[derive(Clone, Debug)]
enum Inner {
    Global,
    Local(Arc<AtomicBool>),
}

impl CancelToken {
    /// Creates a fresh, private token (not connected to SIGINT).
    pub fn new() -> Self {
        CancelToken {
            inner: Inner::Local(Arc::new(AtomicBool::new(false))),
        }
    }

    /// Returns a handle to the process-wide flag set by [`install_sigint`]
    /// or [`watch_flag_file`].
    pub fn global() -> Self {
        CancelToken {
            inner: Inner::Global,
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        match &self.inner {
            Inner::Global => GLOBAL_CANCELLED.store(true, Ordering::Release),
            Inner::Local(flag) => flag.store(true, Ordering::Release),
        }
    }

    /// Returns `true` once cancellation has been requested.
    ///
    /// A single atomic load — cheap enough to poll every memsim event.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            Inner::Global => GLOBAL_CANCELLED.load(Ordering::Acquire),
            Inner::Local(flag) => flag.load(Ordering::Acquire),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (Inner::Global, Inner::Global) => true,
            (Inner::Local(a), Inner::Local(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Returns the signal that latched the global cancellation flag, if any.
///
/// `Some(SIGINT)` after Ctrl-C, `Some(SIGTERM)` after a polite kill,
/// `None` when cancellation came from a flag file or an explicit
/// [`CancelToken::cancel`] (or has not happened at all). Exit-code
/// mapping consults this to distinguish 130 from 143.
pub fn latched_signal() -> Option<i32> {
    match GLOBAL_SIGNAL.load(Ordering::Acquire) {
        0 => None,
        signum => Some(signum),
    }
}

/// Resets the process-wide flag and latched-signal record. Test-only
/// escape hatch: real runs treat cancellation as one-way.
pub fn reset_global_for_tests() {
    GLOBAL_CANCELLED.store(false, Ordering::Release);
    GLOBAL_SIGNAL.store(0, Ordering::Release);
}

#[cfg(unix)]
mod signal_shim {
    //! Std-only SIGINT/SIGTERM hook. `std` already links libc, so
    //! declaring the C89 `signal` entry point adds no dependency; we
    //! deliberately avoid `sigaction` (struct layout varies per platform)
    //! since `signal`'s semantics are sufficient for a one-shot latch.

    use std::sync::atomic::Ordering;

    const SIG_DFL: usize = 0;
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        // Async-signal-safe: two atomic stores, then restore the default
        // disposition so a second delivery terminates the process. The
        // signal number is recorded first so any observer that sees the
        // cancelled flag also sees which signal latched it.
        super::GLOBAL_SIGNAL.store(signum, Ordering::Release);
        super::GLOBAL_CANCELLED.store(true, Ordering::Release);
        unsafe {
            signal(signum, SIG_DFL);
        }
    }

    #[allow(clippy::fn_to_numeric_cast_any, clippy::fn_to_numeric_cast)]
    pub(super) fn install(signum: i32) -> bool {
        let handler = on_signal as extern "C" fn(i32) as usize;
        let prev = unsafe { signal(signum, handler) };
        prev != SIG_ERR
    }
}

/// Installs a SIGINT handler that sets the [global](CancelToken::global)
/// cancellation flag, then restores the default disposition so a second
/// interrupt kills the process outright.
///
/// Returns `true` when the handler was installed. On non-Unix platforms
/// this is a no-op returning `false`; callers should fall back to
/// [`watch_flag_file`].
pub fn install_sigint() -> bool {
    install_signal(SIGINT)
}

/// Installs a SIGTERM handler mirroring [`install_sigint`]: the same
/// one-shot latch and SIG_DFL restore discipline, but [`latched_signal`]
/// reports [`SIGTERM`] so the process exits 143 instead of 130.
pub fn install_sigterm() -> bool {
    install_signal(SIGTERM)
}

fn install_signal(signum: i32) -> bool {
    #[cfg(unix)]
    {
        signal_shim::install(signum)
    }
    #[cfg(not(unix))]
    {
        let _ = signum;
        false
    }
}

/// Spawns a daemon thread that polls `path` every `interval` and sets the
/// global cancellation flag once the file exists — the portable fallback
/// when no signal shim is available (and a scriptable cancel mechanism
/// everywhere else).
///
/// The watcher thread exits after the flag fires or once the process ends;
/// it holds no non-daemon resources.
pub fn watch_flag_file(path: PathBuf, interval: Duration) {
    std::thread::Builder::new()
        .name("pi3d-cancel-watch".into())
        .spawn(move || loop {
            if GLOBAL_CANCELLED.load(Ordering::Acquire) {
                return;
            }
            if path.exists() {
                GLOBAL_CANCELLED.store(true, Ordering::Release);
                return;
            }
            std::thread::sleep(interval);
        })
        // Thread spawn only fails on resource exhaustion; cancellation is
        // best-effort by design, so degrade to "no watcher" rather than
        // aborting the run.
        .map(drop)
        .unwrap_or(());
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn local_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(a, b);
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a, b);
        assert_eq!(CancelToken::global(), CancelToken::global());
        assert_ne!(CancelToken::global(), a);
    }

    #[test]
    fn flag_file_watcher_sets_global() {
        let _guard = crate::test_support::serial();
        reset_global_for_tests();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pi3d-cancel-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        watch_flag_file(path.clone(), Duration::from_millis(5));
        let token = CancelToken::global();
        assert!(!token.is_cancelled());
        std::fs::write(&path, b"stop").expect("write flag file");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled(), "watcher never fired");
        let _ = std::fs::remove_file(&path);
        assert_eq!(latched_signal(), None, "flag file is not a signal");
        reset_global_for_tests();
    }

    #[cfg(unix)]
    #[test]
    fn sigterm_latches_global_flag_and_records_signum() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let _guard = crate::test_support::serial();
        reset_global_for_tests();
        assert!(install_sigterm(), "shim must install on unix");
        // Safe to raise exactly once: the handler latches the flag and
        // restores SIG_DFL, so this delivery is absorbed and the *next*
        // one would kill the process.
        let rc = unsafe { raise(SIGTERM) };
        assert_eq!(rc, 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !CancelToken::global().is_cancelled() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            CancelToken::global().is_cancelled(),
            "SIGTERM never latched"
        );
        assert_eq!(latched_signal(), Some(SIGTERM));
        reset_global_for_tests();
        assert_eq!(latched_signal(), None);
    }
}
