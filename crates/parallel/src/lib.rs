//! A small data-parallel executor built on `std::thread::scope` — the
//! workspace's substitute for rayon-style `par_iter`, kept dependency-free
//! per DESIGN.md ("no crossbeam, no rayon").
//!
//! # Design
//!
//! [`par_map_indexed`] maps a function over a slice of items on a pool of
//! scoped threads. Work is handed out through a shared atomic counter
//! (dynamic chunking degenerates to one-item-at-a-time, which is fine:
//! every OFTEC work item is a linear solve or an optimizer run, far
//! heavier than a `fetch_add`). Each worker collects `(index, result)`
//! pairs locally; after the scope joins, results are scattered into the
//! output vector **by index**, so the output order — and therefore every
//! downstream reduction — is identical to the serial order regardless of
//! thread count or scheduling.
//!
//! # Fault tolerance
//!
//! The fallible entry points [`par_try_map_indexed`] /
//! [`par_try_map_range`] catch a panicking work item and convert it into a
//! per-item [`ItemPanic`] error (index and payload message preserved)
//! while the rest of the batch **runs to completion** — the caller decides
//! whether one poisoned operating point sinks the whole sweep. The
//! infallible `par_map_*` wrappers keep the serial-loop contract: they run
//! the same completing batch, then re-raise the first panic by item index.
//!
//! # Telemetry hand-off
//!
//! When [`oftec_telemetry`] is collecting, each work item runs inside
//! [`oftec_telemetry::capture`], and the per-item buffers are
//! [`oftec_telemetry::absorb`]ed on the calling thread **in item-index
//! order** after the scope joins. Counters, histograms, span trees and
//! traces therefore merge in serial execution order, making registry
//! snapshots identical at any `OFTEC_THREADS` setting. When telemetry is
//! off, the capture wrapper is a single relaxed atomic load per item.
//! A panicked item's partial telemetry is discarded on every path, so
//! registry contents stay thread-count-independent under faults too.
//!
//! # Thread count
//!
//! [`thread_count`] defaults to [`std::thread::available_parallelism`] and
//! honors the `OFTEC_THREADS` environment variable (clamped to ≥ 1), so
//! experiments can be pinned to one thread for timing baselines or
//! oversubscribed for scaling studies without recompiling.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A work item that panicked: its index in the batch and the panic
/// payload's message (for `String`/`&str` payloads; a placeholder for
/// exotic `panic_any` payloads, which cannot cross the batch boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Index of the panicking item in the batch.
    pub index: usize,
    /// Panic payload message.
    pub message: String,
}

impl core::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Extracts a human-readable message from a caught panic payload.
pub fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// One item's outcome on a worker: the result and its captured telemetry,
/// or the panic message.
type ItemOutcome<R> = Result<(R, oftec_telemetry::LocalBuffer), String>;

/// The worker-pool size used by the `par_*` entry points: the
/// `OFTEC_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn thread_count() -> usize {
    if let Ok(value) = std::env::var("OFTEC_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on [`thread_count`] scoped threads, returning the
/// results in item order.
///
/// Equivalent to `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()`
/// — including the panic it would raise — but executed concurrently.
///
/// # Panics
///
/// Re-raises the first panicking item's message (by item index) after the
/// whole batch has completed and all workers have joined.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_with(thread_count(), items, f)
}

/// [`par_map_indexed`] with an explicit thread count — the deterministic
/// building block tests use to compare 1-, 2- and 8-thread runs without
/// racing on the process environment.
///
/// `threads` is clamped to `1..=items.len()`; `threads == 1` runs the map
/// on the calling thread with no pool at all.
///
/// # Panics
///
/// Same contract as [`par_map_indexed`].
#[expect(
    clippy::panic,
    reason = "re-raises a contained worker panic to mirror the serial loop's documented contract"
)]
pub fn par_map_indexed_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let results = par_try_map_indexed_with(threads, items, f);
    let mut out = Vec::with_capacity(results.len());
    let mut first_panic: Option<ItemPanic> = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) => first_panic = first_panic.or(Some(p)),
        }
    }
    if let Some(p) = first_panic {
        // Re-raise with the original message as a `String` payload — the
        // closest reproduction of the serial loop's panic the batch
        // boundary allows.
        panic!("{}", p.message);
    }
    out
}

/// Fault-tolerant [`par_map_indexed`]: maps `f` over `items` and returns
/// one `Result` per item, converting a panicking item into an
/// [`ItemPanic`] instead of aborting the batch. Every non-panicking item
/// still completes, at any thread count, and results stay in item order.
pub fn par_try_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<Result<R, ItemPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_try_map_indexed_with(thread_count(), items, f)
}

/// [`par_try_map_indexed`] with an explicit thread count.
pub fn par_try_map_indexed_with<T, R, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<Result<R, ItemPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);

    let run_item = |i: usize| -> ItemOutcome<R> {
        catch_unwind(AssertUnwindSafe(|| {
            oftec_telemetry::capture(|| f(i, &items[i]))
        }))
        .map_err(payload_message)
    };

    let mut outcomes: Vec<Option<ItemOutcome<R>>> = (0..n).map(|_| None).collect();
    if workers == 1 {
        for (i, slot) in outcomes.iter_mut().enumerate() {
            *slot = Some(run_item(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let next = &next;
        let run_item = &run_item;
        let collected: Vec<Vec<(usize, ItemOutcome<R>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            // A panicking item is recorded and the worker
                            // keeps claiming: the batch always completes.
                            local.push((i, run_item(i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    // Only reachable if the scope machinery itself dies;
                    // work-item panics are caught inside `run_item`.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        for local in collected {
            for (i, outcome) in local {
                outcomes[i] = Some(outcome);
            }
        }
    }

    // Scatter by index and absorb successful items' telemetry in index
    // order — the serial recording order — so registry merges are
    // scheduling-independent.
    outcomes
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            // Every index is claimed exactly once by the atomic cursor;
            // an unfilled slot would be an executor bug, surfaced as a
            // typed per-item fault instead of an abort.
            let Some(outcome) = slot else {
                return Err(ItemPanic {
                    index,
                    message: "executor bug: work item was never claimed".to_string(),
                });
            };
            match outcome {
                Ok((r, tele)) => {
                    oftec_telemetry::absorb(tele);
                    Ok(r)
                }
                Err(message) => Err(ItemPanic { index, message }),
            }
        })
        .collect()
}

/// Maps `f` over the index range `0..n` in parallel — the slice-free
/// variant for grid-style fan-outs where the index *is* the work item.
///
/// # Panics
///
/// Same contract as [`par_map_indexed`].
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range_with(thread_count(), n, f)
}

/// [`par_map_range`] with an explicit thread count.
///
/// # Panics
///
/// Same contract as [`par_map_indexed_with`].
pub fn par_map_range_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map_indexed_with(threads, &indices, |_, &i| f(i))
}

/// Fault-tolerant [`par_map_range`]: per-item [`ItemPanic`] errors instead
/// of an aborting batch.
pub fn par_try_map_range<R, F>(n: usize, f: F) -> Vec<Result<R, ItemPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_try_map_range_with(thread_count(), n, f)
}

/// [`par_try_map_range`] with an explicit thread count.
pub fn par_try_map_range_with<R, F>(threads: usize, n: usize, f: F) -> Vec<Result<R, ItemPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_try_map_indexed_with(threads, &indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Once;

    /// Silences the default panic hook's stderr spew for tests that
    /// intentionally panic inside work items.
    fn quiet_panics() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                // Scope-spawned workers are unnamed; their panics are the
                // expected test fixtures. Named (test-harness) threads keep
                // the default report so real failures stay diagnosable.
                if std::thread::current().name().is_none() {
                    return;
                }
                default(info);
            }));
        });
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map_indexed_with(4, &[] as &[i32], |_, &x| x * 2);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_caller() {
        let out = par_map_indexed_with(8, &[21], |i, &x| (i, x * 2));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn results_arrive_in_index_order_at_any_thread_count() {
        let items: Vec<usize> = (0..137).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let parallel = par_map_indexed_with(threads, &items, |_, &x| x * x + 1);
            assert_eq!(parallel, serial, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn range_variant_matches_slice_variant() {
        let a = par_map_range_with(4, 50, |i| 3 * i + 7);
        let b: Vec<usize> = (0..50).map(|i| 3 * i + 7).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        quiet_panics();
        let hit = AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_range_with(4, 64, |i| {
                if i == 13 {
                    hit.store(true, Ordering::SeqCst);
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(hit.load(Ordering::SeqCst));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 13"), "unexpected payload {msg}");
    }

    #[test]
    fn first_panic_by_index_wins_the_reraise() {
        quiet_panics();
        // Two panicking items: the infallible wrapper must deterministically
        // re-raise the lower index at every thread count.
        for threads in [1, 2, 8] {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                par_map_range_with(threads, 64, |i| {
                    if i == 13 || i == 40 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }));
            let payload = result.unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("boom at 13"), "at {threads} threads: {msg}");
        }
    }

    #[test]
    fn try_map_completes_batch_around_panics() {
        quiet_panics();
        for threads in [1, 2, 3, 8] {
            let results = par_try_map_range_with(threads, 64, |i| {
                if i % 10 == 3 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            assert_eq!(results.len(), 64);
            for (i, r) in results.iter().enumerate() {
                if i % 10 == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert!(p.message.contains(&format!("boom at {i}")), "{p}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "item {i} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn item_panic_display_and_str_payload() {
        quiet_panics();
        let results = par_try_map_range_with(1, 2, |i| {
            if i == 1 {
                std::panic::panic_any("static str payload");
            }
            i
        });
        let p = results[1].as_ref().unwrap_err();
        assert_eq!(p.message, "static str payload");
        assert!(p.to_string().contains("work item 1 panicked"));
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn telemetry_merges_in_index_order_at_any_thread_count() {
        use oftec_telemetry as telemetry;
        telemetry::set_collecting(true);
        let run = |threads: usize| {
            let (_, buf) = telemetry::capture(|| {
                par_map_range_with(threads, 23, |i| {
                    let _span = telemetry::span("item");
                    telemetry::counter_add("par.items", 1);
                    telemetry::gauge_set("par.last_index", i as f64);
                    i
                })
            });
            let mut snap = telemetry::Snapshot::from_buffer(buf);
            snap.redact_times();
            snap
        };
        let serial = run(1);
        assert_eq!(serial.counter("par.items"), 23);
        // Gauges are last-writer-wins in index order: the serial tail.
        assert_eq!(serial.gauges["par.last_index"], 22.0);
        assert_eq!(serial.spans.len(), 23);
        for threads in [2, 5, 8] {
            assert_eq!(run(threads), serial, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn panicked_items_leave_no_telemetry_at_any_thread_count() {
        use oftec_telemetry as telemetry;
        quiet_panics();
        telemetry::set_collecting(true);
        let run = |threads: usize| {
            let (_, buf) = telemetry::capture(|| {
                par_try_map_range_with(threads, 16, |i| {
                    telemetry::counter_add("try.items", 1);
                    if i % 4 == 2 {
                        panic!("boom");
                    }
                    i
                })
            });
            let mut snap = telemetry::Snapshot::from_buffer(buf);
            snap.redact_times();
            snap
        };
        let serial = run(1);
        // 16 items, 4 panic after counting: their buffers are discarded.
        assert_eq!(serial.counter("try.items"), 12);
        for threads in [2, 8] {
            assert_eq!(run(threads), serial, "mismatch at {threads} threads");
        }
    }
}
