//! The flight recorder: a fixed-capacity, lock-free ring of completed
//! request traces, plus a second ring that retains non-OK traces even
//! when OK churn would have evicted them.
//!
//! # Why two rings
//!
//! A serving burst produces thousands of OK traces for every failure; a
//! single ring of capacity N forgets an error after N further requests —
//! exactly when someone starts asking what happened. Every record lands
//! in the `recent` ring; non-OK records are *also* written to the
//! `errors` ring, so the errors of a burst stay dumpable long after the
//! OK traffic that surrounded them has wrapped the recent ring.
//! [`FlightRecorder::snapshot`] merges both rings by admission sequence
//! and deduplicates records still present in both.
//!
//! # Lock-freedom without `unsafe`
//!
//! Each slot is a per-slot seqlock: one version word plus a fixed array
//! of `AtomicU64` payload words. A writer claims a slot position with one
//! `fetch_add` on the ring head, sets the version to an odd ticket
//! derived from the wrap count, stores the payload words, and publishes
//! the even ticket. Readers copy the words between two version reads and
//! discard the copy if the version moved or was odd. Because the payload
//! words are themselves atomics there are no torn reads in the language
//! sense — the version protocol only guards *logical* consistency of the
//! record. Writers never block readers and readers never block writers;
//! two writers landing on the same slot can only happen a full capacity
//! apart, in which case the older record is being overwritten anyway.
//!
//! Records are fully numeric ([`TraceRecord`]): the serving layer maps
//! stage and outcome codes back to names at dump time, which keeps the
//! hot recording path free of allocation beyond the caller's stage
//! vector.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Stage samples retained per record; longer traces are truncated.
pub const MAX_TRACE_STAGES: usize = 6;

/// Payload words per slot: sequence, trace id, packed flags, and one
/// word per stage sample.
const WORDS: usize = 3 + MAX_TRACE_STAGES;

/// Stage durations are packed into 48 bits (≈ 8.9 years in µs).
const MICROS_MAX: u64 = (1 << 48) - 1;

/// One completed request trace in flight-recorder form: caller-defined
/// numeric codes only, so the recorder stays generic over protocols.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// Admission sequence assigned by [`FlightRecorder::record`]
    /// (1-based; 0 = not yet recorded). Snapshot order key.
    pub seq: u64,
    /// Deterministic trace id (assigned by the caller, e.g. from a
    /// connection/sequence pair — never from the wall clock).
    pub id: u64,
    /// `true` for successful outcomes; `false` routes the record into
    /// the error-retention ring as well.
    pub ok: bool,
    /// Caller-defined outcome code (e.g. an index into an outcome table).
    pub code: u16,
    /// `(stage code, microseconds)` samples in pipeline order; at most
    /// [`MAX_TRACE_STAGES`] survive recording.
    pub stages: Vec<(u16, u64)>,
}

impl TraceRecord {
    /// Zeroes every stage duration, leaving only the scheduling-
    /// independent structure (ids, outcomes, stage order) — the form the
    /// determinism tests compare across `OFTEC_THREADS` settings.
    pub fn redact_times(&mut self) {
        for (_, us) in &mut self.stages {
            *us = 0;
        }
    }

    fn encode(&self) -> [u64; WORDS] {
        let mut w = [0u64; WORDS];
        w[0] = self.seq;
        w[1] = self.id;
        let n = self.stages.len().min(MAX_TRACE_STAGES) as u64;
        w[2] = u64::from(self.code) | (n << 16) | (u64::from(self.ok) << 24);
        for (i, &(code, us)) in self.stages.iter().take(MAX_TRACE_STAGES).enumerate() {
            w[3 + i] = (u64::from(code) << 48) | us.min(MICROS_MAX);
        }
        w
    }

    fn decode(w: &[u64; WORDS]) -> Self {
        let n = ((w[2] >> 16) & 0xff) as usize;
        let stages = w[3..3 + n.min(MAX_TRACE_STAGES)]
            .iter()
            .map(|&word| ((word >> 48) as u16, word & MICROS_MAX))
            .collect();
        Self {
            seq: w[0],
            id: w[1],
            ok: (w[2] >> 24) & 1 == 1,
            code: (w[2] & 0xffff) as u16,
            stages,
        }
    }
}

struct Slot {
    /// Seqlock version: 0 = never written, odd = write in progress,
    /// even = ticket of the committed record's wrap generation.
    version: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct Ring {
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    fn push(&self, words: &[u64; WORDS]) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(pos % cap) as usize];
        // Odd ticket unique to this slot's wrap generation; commits to
        // ticket + 1 (even). Strictly increasing across wraps, so a
        // reader can tell a newer overwrite from a torn read.
        let ticket = 2 * (pos / cap) + 1;
        loop {
            let v = slot.version.load(Ordering::Acquire);
            if v > ticket {
                // A record from a later wrap already owns this slot; the
                // one being pushed would have been overwritten anyway.
                return;
            }
            if v % 2 == 1 {
                // An older writer is mid-commit; wait out its handful of
                // word stores rather than interleave payloads.
                std::hint::spin_loop();
                continue;
            }
            if slot
                .version
                .compare_exchange_weak(v, ticket, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        for (w, &val) in slot.words.iter().zip(words) {
            w.store(val, Ordering::Relaxed);
        }
        slot.version.store(ticket + 1, Ordering::Release);
    }

    fn collect(&self, out: &mut Vec<TraceRecord>) {
        for slot in &self.slots {
            // Bounded retries: a slot under constant rewrite is being
            // churned faster than it is worth reporting.
            for _ in 0..8 {
                let v1 = slot.version.load(Ordering::Acquire);
                if v1 == 0 {
                    break; // never written
                }
                if v1 % 2 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let mut words = [0u64; WORDS];
                for (dst, w) in words.iter_mut().zip(&slot.words) {
                    *dst = w.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                if slot.version.load(Ordering::Relaxed) == v1 {
                    out.push(TraceRecord::decode(&words));
                    break;
                }
            }
        }
    }
}

/// Fixed-capacity flight recorder: the last `recent_capacity` completed
/// traces plus the last `error_capacity` non-OK traces (see the module
/// docs for why errors get their own ring).
pub struct FlightRecorder {
    seq: AtomicU64,
    recent: Ring,
    errors: Ring,
}

impl FlightRecorder {
    /// A recorder retaining `recent_capacity` completed traces and
    /// `error_capacity` non-OK traces (each clamped to at least 1).
    pub fn new(recent_capacity: usize, error_capacity: usize) -> Self {
        Self {
            seq: AtomicU64::new(0),
            recent: Ring::new(recent_capacity),
            errors: Ring::new(error_capacity),
        }
    }

    /// Records one completed trace and returns its admission sequence
    /// (1-based, strictly increasing in call order). The record's own
    /// `seq` field is ignored and replaced. Allocation-free: the sequence
    /// is stamped into the encoded word block, not a cloned record
    /// (checked by `crates/serve/tests/hot_paths_alloc_free.rs`).
    pub fn record(&self, record: &TraceRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut words = record.encode();
        words[0] = seq;
        self.recent.push(&words);
        if !record.ok {
            self.errors.push(&words);
        }
        seq
    }

    /// Total traces recorded so far (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Both rings merged in admission order (oldest first), with records
    /// still present in both rings reported once.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.recent.slots.len() + self.errors.slots.len());
        self.recent.collect(&mut out);
        self.errors.collect(&mut out);
        out.sort_by_key(|r| r.seq);
        out.dedup_by_key(|r| r.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, ok: bool, code: u16) -> TraceRecord {
        TraceRecord {
            seq: 0,
            id,
            ok,
            code,
            stages: vec![(1, 10 * id), (4, 20 * id)],
        }
    }

    #[test]
    fn record_round_trips_through_the_slot_encoding() {
        let r = FlightRecorder::new(4, 4);
        let mut original = rec(7, false, 9);
        let seq = r.record(&original);
        original.seq = seq;
        assert_eq!(r.snapshot(), vec![original]);
    }

    #[test]
    fn wraparound_keeps_the_most_recent_records_in_order() {
        let r = FlightRecorder::new(4, 2);
        for i in 1..=10 {
            r.record(&rec(i, true, 0));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap.iter().map(|t| t.seq).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
        assert_eq!(snap.iter().map(|t| t.id).collect::<Vec<_>>(), [7, 8, 9, 10]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn errors_outlive_ok_churn() {
        let r = FlightRecorder::new(4, 4);
        r.record(&rec(1, false, 5));
        r.record(&rec(2, false, 6));
        for i in 3..=20 {
            r.record(&rec(i, true, 0));
        }
        let snap = r.snapshot();
        // The recent ring has wrapped many times, but both errors are
        // still retained — first in snapshot order.
        assert_eq!(
            snap.iter().map(|t| (t.seq, t.ok)).collect::<Vec<_>>(),
            [
                (1, false),
                (2, false),
                (17, true),
                (18, true),
                (19, true),
                (20, true)
            ]
        );
    }

    #[test]
    fn fresh_errors_are_not_double_reported() {
        let r = FlightRecorder::new(8, 8);
        r.record(&rec(1, true, 0));
        r.record(&rec(2, false, 5));
        // Record 2 sits in both rings; the snapshot lists it once.
        let snap = r.snapshot();
        assert_eq!(snap.iter().map(|t| t.seq).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn stage_truncation_and_micros_cap() {
        let r = FlightRecorder::new(2, 2);
        let long = TraceRecord {
            seq: 0,
            id: 1,
            ok: true,
            code: 2,
            stages: (0..10).map(|i| (i as u16, u64::MAX)).collect(),
        };
        r.record(&long);
        let snap = r.snapshot();
        assert_eq!(snap[0].stages.len(), MAX_TRACE_STAGES);
        assert!(snap[0].stages.iter().all(|&(_, us)| us == MICROS_MAX));
    }

    #[test]
    fn redact_times_zeroes_stage_durations_only() {
        let mut r = rec(3, false, 7);
        r.redact_times();
        assert_eq!(r.stages, vec![(1, 0), (4, 0)]);
        assert_eq!((r.id, r.ok, r.code), (3, false, 7));
    }

    #[test]
    fn concurrent_recording_smoke() {
        let r = std::sync::Arc::new(FlightRecorder::new(16, 8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..100 {
                        r.record(&rec(t * 1000 + i, i % 7 != 0, 1));
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 800);
        let snap = r.snapshot();
        assert!(snap.len() <= 24);
        // Sequences are unique and sorted; every record decodes intact.
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snap.iter().all(|t| t.stages.len() == 2));
    }
}
