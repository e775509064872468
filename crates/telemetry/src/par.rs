//! Std-only deterministic fan-out: [`parallel_map`] spreads independent
//! work items over a scoped worker pool and returns results in input
//! order, so parallel callers (batch solves, policy sweeps, design-space
//! walks) produce bit-identical output regardless of the thread count.
//!
//! This lives in the telemetry crate — the one crate every other
//! workspace member already depends on — so `pi3d-core` and `pi3d-memsim`
//! can fan out work without growing a solver dependency.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panic captured from one work item of [`parallel_map_catch`].
///
/// Carries the input index of the poisoned item and the panic message
/// (when the payload was a string; the common case for `panic!`/`assert!`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Input index of the item whose closure panicked.
    pub index: usize,
    /// Panic payload rendered as text, or a placeholder for non-string
    /// payloads.
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Renders a panic payload as text: panics carry `&str` or `String`
/// almost always; anything else gets a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item of `items` using up to `threads` scoped OS
/// threads, returning the results in input order.
///
/// Work is dispatched by an atomic next-index counter (better load balance
/// than fixed chunking when item costs vary, as CG iteration counts do),
/// but each result is keyed by its input index and merged back in order, so
/// the output is deterministic: `parallel_map(items, t, f)` returns the
/// same `Vec` as `items.iter().enumerate().map(...)` for every `t`.
///
/// With `threads <= 1` or fewer than two items the items are mapped inline
/// on the calling thread with no pool at all.
///
/// # Panics
///
/// Propagates the first (lowest-index) panic from `f` after every item has
/// run — one poisoned item no longer aborts the process mid-scope, but the
/// historical "panics propagate" contract is preserved. Callers that want
/// per-item errors instead use [`parallel_map_catch`].
///
/// # Examples
///
/// ```
/// use pi3d_telemetry::par::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |_, &v| v * v);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    let mut out = Vec::with_capacity(items.len());
    for slot in run_catching(items, threads, &f) {
        match slot {
            Ok(r) => out.push(r),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    out
}

/// Panic-isolating variant of [`parallel_map`]: every item runs under
/// [`catch_unwind`], and a panicking item yields `Err(`[`ItemPanic`]`)` in
/// its slot while the remaining items complete normally.
///
/// This is what keeps one poisoned trial from aborting an hours-long
/// sweep: the caller records the per-item failure and carries on with the
/// other N-1 results.
///
/// # Examples
///
/// ```
/// use pi3d_telemetry::par::parallel_map_catch;
///
/// let results = parallel_map_catch(&[1u32, 2, 3], 2, |_, &v| {
///     assert!(v != 2, "poisoned item");
///     v * 10
/// });
/// assert_eq!(results[0].as_ref().ok(), Some(&10));
/// assert!(results[1].is_err());
/// assert_eq!(results[2].as_ref().ok(), Some(&30));
/// ```
pub fn parallel_map_catch<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, ItemPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_catching(items, threads, &f)
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.map_err(|payload| {
                crate::metrics::counter("par.item_panics").incr(1);
                ItemPanic {
                    index,
                    message: panic_message(payload.as_ref()),
                }
            })
        })
        .collect()
}

/// Shared dispatch loop: every item runs exactly once under
/// `catch_unwind`, results return in input order with raw panic payloads.
fn run_catching<T, R, F>(items: &[T], threads: usize, f: &F) -> Vec<Result<R, Box<dyn Any + Send>>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let guarded = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));

    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return (0..items.len()).map(guarded).collect();
    }

    type Slot<R> = (usize, Result<R, Box<dyn Any + Send>>);
    let next = AtomicUsize::new(0);
    // Workers nest their spans where the caller's would have gone, so
    // the phase tree does not depend on the thread count.
    let path = crate::span::current_path();
    let per_worker: Vec<Vec<Slot<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let path = path.clone();
                scope.spawn(|| {
                    crate::span::adopt_path(path);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, guarded(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("parallel_map worker cannot panic: items run under catch_unwind")
            })
            .collect()
    });

    for worker in &per_worker {
        crate::metrics::histogram("par.items_per_worker").record(worker.len() as u64);
    }

    let mut slots: Vec<Option<Result<R, Box<dyn Any + Send>>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index dispatched exactly once"))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|&v| v * 3 + 1).collect();
        for threads in [1, 2, 4, 16, 200] {
            let got = parallel_map(&items, threads, |_, &v| v * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c", "d"];
        let got = parallel_map(&items, 3, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &v| v).is_empty());
        assert_eq!(parallel_map(&[7u8], 8, |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn panicking_item_yields_per_item_error_and_other_results() {
        // Satellite requirement: a deliberately poisoned work item must
        // surface as one Err slot while the N-1 healthy items succeed —
        // the process must not abort.
        let items: Vec<u32> = (0..12).collect();
        for threads in [1, 3, 8] {
            let results = parallel_map_catch(&items, threads, |_, &v| {
                if v == 5 {
                    panic!("poisoned trial {v}");
                }
                v * 2
            });
            assert_eq!(results.len(), items.len());
            for (i, slot) in results.iter().enumerate() {
                if i == 5 {
                    let err = slot.as_ref().expect_err("item 5 must fail");
                    assert_eq!(err.index, 5);
                    assert!(err.message.contains("poisoned trial 5"), "{err}");
                } else {
                    assert_eq!(slot.as_ref().ok(), Some(&((i as u32) * 2)), "item {i}");
                }
            }
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let results = parallel_map_catch(&[1u8], 1, |_, _| -> u8 {
            std::panic::panic_any(42u64);
        });
        let err = results[0].as_ref().expect_err("must fail");
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn parallel_map_still_propagates_first_panic_by_index() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |_, &v| {
                if v >= 6 {
                    panic!("boom at {v}");
                }
                v
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert_eq!(msg, "boom at 6", "lowest-index panic wins");
    }

    #[test]
    fn two_threads_run_two_items_at_once() {
        // A rendezvous: each item waits until both have started, which
        // only happens if they run on two threads at the same time. The
        // deadline turns a pool that runs items one after another into a
        // failure instead of a hang.
        use std::sync::{Condvar, Mutex};
        let started = Mutex::new(0usize);
        let both_started = Condvar::new();
        let met = parallel_map(&[0u8, 1], 2, |_, _| {
            let mut count = started.lock().expect("no item panics holding the lock");
            *count += 1;
            both_started.notify_all();
            let (_count, wait) = both_started
                .wait_timeout_while(count, std::time::Duration::from_secs(10), |n| *n < 2)
                .expect("no item panics holding the lock");
            !wait.timed_out()
        });
        assert_eq!(
            met,
            vec![true, true],
            "items did not overlap on two threads"
        );
    }

    #[test]
    fn workers_nest_their_spans_under_the_callers() {
        let _guard = crate::test_support::serial();
        crate::span::reset();
        {
            let _caller = crate::span::span("t_par_caller");
            parallel_map(&[0u8; 6], 3, |_, _| {
                let _item = crate::span::span("t_par_item");
            });
        }
        let phases: Vec<(String, u64)> = crate::span::snapshot()
            .into_iter()
            .map(|p| (p.path, p.calls))
            .collect();
        assert!(
            phases.contains(&("t_par_caller/t_par_item".to_owned(), 6)),
            "{phases:?}"
        );
        assert!(!phases.iter().any(|(p, _)| p == "t_par_item"), "{phases:?}");
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make early items slow so late items finish first on other workers.
        let items: Vec<u64> = (0..16).collect();
        let got = parallel_map(&items, 4, |_, &v| {
            if v < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            v
        });
        assert_eq!(got, items);
    }
}
