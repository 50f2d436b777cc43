//! The per-request hot paths allocate nothing in steady state. A counting
//! global allocator forwards to `System`; each hot function is warmed up
//! once and then called `CALLS` times with the thread's allocation count
//! required to stay put. Unlike a static scan, this also sees allocations
//! made behind trait objects and inside other crates.

use oftec_power::Benchmark;
use oftec_serve::queue::JobQueue;
use oftec_serve::{CacheConfig, QuantizedCache, SolveKind, SolveSpec};
use oftec_telemetry::{FlightRecorder, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

const CALLS: u64 = 1_000;

thread_local! {
    // Per thread, so tests running in parallel do not count each other's
    // allocations; `const`-initialised, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counting touches only a `const` thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes over `CALLS` calls of `f`, after one
/// warm-up call.
fn steady_allocations(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..CALLS {
        f();
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn hot_paths_do_not_allocate() {
    // The check must be able to bite: one allocation per call is seen.
    assert_eq!(
        steady_allocations(|| drop(black_box(Vec::<u8>::with_capacity(1)))),
        CALLS
    );

    // A failing record is pushed onto both the recent and the error ring.
    let recorder = FlightRecorder::new(64, 16);
    let failed = TraceRecord {
        seq: 0,
        id: 7,
        ok: false,
        code: 3,
        stages: vec![(0, 12), (3, 40), (5, 9)],
    };
    let recorded = steady_allocations(|| {
        black_box(recorder.record(black_box(&failed)));
    });
    assert_eq!(recorded, 0, "FlightRecorder::record allocated");

    let cache = QuantizedCache::new(CacheConfig::default());
    let spec = SolveSpec {
        kind: SolveKind::Steady,
        benchmark: Benchmark::Quicksort,
        scale: 1.05,
        rpm: 3000.0,
        amps: 1.5,
        omega_points: 0,
        current_points: 0,
        no_cache: false,
        deadline_ms: Some(50),
    };
    let keyed = steady_allocations(|| {
        black_box(cache.key_for(black_box(&spec)));
    });
    assert_eq!(keyed, 0, "QuantizedCache::key_for allocated");

    let queue = JobQueue::new(8);
    let mut ns = 0u64;
    let fed = steady_allocations(|| {
        ns += 1_000;
        queue.record_service(black_box(ns));
    });
    assert_eq!(fed, 0, "JobQueue::record_service allocated");
    let read = steady_allocations(|| {
        black_box(queue.service_estimate_ns());
    });
    assert_eq!(read, 0, "JobQueue::service_estimate_ns allocated");
}
