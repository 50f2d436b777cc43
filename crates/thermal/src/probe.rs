//! Per-thread solve-path probe for request-scoped tracing.
//!
//! The serving engine needs to know, per request, whether a solve took
//! the reduced path, fell back to the full path, and what the certified
//! residual ratio was — without the thermal crate knowing anything about
//! requests. The probe is a thread-local set of monotone counters that
//! the reduced-solve machinery bumps as it runs; the caller reads a
//! [`snapshot`] before and after a solve and attributes the delta to that
//! request. No clocks, no locks, no atomics: a `Cell` per thread keeps
//! this clock-free (the thermal crate is on the lint wall-clock denylist)
//! and bit-identical at any `OFTEC_THREADS` — the executor runs each work
//! item on exactly one worker thread, so before/after deltas never mix
//! items.

use std::cell::Cell;

/// Monotone per-thread counts of solve-path events. Obtain with
/// [`snapshot`] and subtract field-wise to attribute events to one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveProbe {
    /// Reduced-order solves whose residual certificate passed.
    pub reduced: u64,
    /// Reduced attempts that failed certification and fell back.
    pub fallbacks: u64,
    /// Reduced attempts whose projected system proved runaway, answered
    /// with the full path's error and no full solve.
    pub runaway_certified: u64,
    /// Residual-ratio observations (one per certified reduced solve).
    pub residual_events: u64,
    /// Most recent certified residual ratio `‖r‖ / max(‖b‖, ε)`.
    pub last_residual: f64,
}

thread_local! {
    static PROBE: Cell<SolveProbe> = const { Cell::new(SolveProbe::new()) };
}

impl SolveProbe {
    const fn new() -> Self {
        Self {
            reduced: 0,
            fallbacks: 0,
            runaway_certified: 0,
            residual_events: 0,
            last_residual: 0.0,
        }
    }

    /// Field-wise counter delta `self - earlier` (for the monotone
    /// counts; `last_residual` is carried from `self`).
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            reduced: self.reduced.wrapping_sub(earlier.reduced),
            fallbacks: self.fallbacks.wrapping_sub(earlier.fallbacks),
            runaway_certified: self
                .runaway_certified
                .wrapping_sub(earlier.runaway_certified),
            residual_events: self.residual_events.wrapping_sub(earlier.residual_events),
            last_residual: self.last_residual,
        }
    }
}

/// This thread's current probe counters.
pub fn snapshot() -> SolveProbe {
    PROBE.with(Cell::get)
}

/// Records one certified reduced solve with residual ratio `ratio`.
pub(crate) fn note_reduced(ratio: f64) {
    PROBE.with(|p| {
        let mut v = p.get();
        v.reduced += 1;
        v.residual_events += 1;
        v.last_residual = ratio;
        p.set(v);
    });
}

/// Records one reduced-solve certification failure (full-path fallback).
pub(crate) fn note_fallback() {
    PROBE.with(|p| {
        let mut v = p.get();
        v.fallbacks += 1;
        p.set(v);
    });
}

/// Records one runaway verdict certified by the reduced path.
pub(crate) fn note_runaway() {
    PROBE.with(|p| {
        let mut v = p.get();
        v.runaway_certified += 1;
        p.set(v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_attribute_events_between_snapshots() {
        let before = snapshot();
        note_reduced(1.5e-6);
        note_reduced(2.5e-6);
        note_fallback();
        note_runaway();
        let delta = snapshot().since(&before);
        assert_eq!(delta.reduced, 2);
        assert_eq!(delta.fallbacks, 1);
        assert_eq!(delta.runaway_certified, 1);
        assert_eq!(delta.residual_events, 2);
        assert!((delta.last_residual - 2.5e-6).abs() < 1e-18);
    }

    #[test]
    fn probe_is_thread_local() {
        note_reduced(9.0);
        #[expect(
            clippy::disallowed_methods,
            reason = "the probe under test is thread-local"
        )]
        let other = std::thread::spawn(snapshot).join().unwrap_or_default();
        assert_eq!(other.reduced, 0, "fresh thread starts at zero");
    }
}
