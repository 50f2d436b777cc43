//! Request-scoped tracing for the serve pipeline.
//!
//! Every workload request carries a [`TraceContext`] from the moment its
//! line is read until its response is written: the connection thread
//! stamps the `parse` and `cache` stages, the dispatcher stamps `queue`,
//! and the engine stamps `batch`/`solve` plus the solve-path outcome
//! (reduced/fallback/full and the certified residual, read off the
//! thermal crate's per-thread probe). The finished context renders into
//! the NDJSON response as a compact `trace` object and into the flight
//! recorder as a fully numeric [`TraceRecord`].
//!
//! Trace ids are **deterministic**: a bit-mix of `(connection, sequence)`
//! with no wall-clock input, so the same request script produces the same
//! ids at any `OFTEC_THREADS` — what lets the determinism suite compare
//! flight-recorder contents bit-for-bit once durations are redacted.

use oftec_telemetry::TraceRecord;
use std::fmt::Write;
use std::time::Instant;

/// Pipeline stages in order; a stage's index is its flight-recorder code.
pub const STAGE_NAMES: [&str; 5] = ["parse", "queue", "batch", "cache", "solve"];

/// Request outcomes; an outcome's index is its flight-recorder code.
/// Indices `>= FIRST_ERROR_OUTCOME` are error causes, matching the
/// strings of [`crate::protocol::error_cause`].
pub const OUTCOME_NAMES: [&str; 11] = [
    "pending",
    "cache_hit",
    "reduced",
    "fallback",
    "full",
    "parse",
    "overload",
    "deadline",
    "solver",
    "panic",
    "internal",
];

/// First index in [`OUTCOME_NAMES`] that represents an error cause.
pub const FIRST_ERROR_OUTCOME: usize = 5;

/// SplitMix64 finalizer: a cheap, high-quality bit mix turning the
/// structured `(connection, sequence)` pair into an opaque-looking but
/// fully reproducible trace id.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-request trace state, carried with the job through the pipeline.
#[derive(Debug, Clone)]
pub struct TraceContext {
    conn: u64,
    seq: u64,
    started: Instant,
    /// Start of the stage currently in progress; [`TraceContext::stage`]
    /// closes it and opens the next.
    mark: Instant,
    stages: Vec<(&'static str, u64)>,
    outcome: &'static str,
    deduped: bool,
    residual: Option<f64>,
}

impl TraceContext {
    /// A fresh context for request `seq` (1-based) on connection `conn`
    /// (1-based); the clock for the first stage starts now.
    pub fn new(conn: u64, seq: u64) -> Self {
        let now = Instant::now();
        Self {
            conn,
            seq,
            started: now,
            mark: now,
            stages: Vec::with_capacity(4),
            outcome: OUTCOME_NAMES[0],
            deduped: false,
            residual: None,
        }
    }

    /// The deterministic 64-bit trace id.
    pub fn id(&self) -> u64 {
        splitmix64((self.conn << 32) ^ self.seq)
    }

    /// The connection number this request arrived on.
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// The request's 1-based sequence number on its connection.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Closes the stage running since the last mark under `name` and
    /// starts timing the next one.
    pub fn stage(&mut self, name: &'static str) {
        let now = Instant::now();
        let us = u64::try_from(now.duration_since(self.mark).as_micros()).unwrap_or(u64::MAX);
        self.stages.push((name, us));
        self.mark = now;
    }

    /// Records a stage with an externally measured duration (used by the
    /// engine to split one wall interval into batch overhead + solve).
    pub fn stage_us(&mut self, name: &'static str, us: u64) {
        self.stages.push((name, us));
    }

    /// Microseconds elapsed between the last mark and `now`.
    pub fn since_mark_us(&self, now: Instant) -> u64 {
        u64::try_from(now.duration_since(self.mark).as_micros()).unwrap_or(u64::MAX)
    }

    /// Sets the final outcome. Must be one of [`OUTCOME_NAMES`]; unknown
    /// names degrade to code 0 (`pending`) in the flight recorder.
    pub fn set_outcome(&mut self, outcome: &'static str) {
        self.outcome = outcome;
    }

    /// The outcome recorded so far (`pending` until set).
    pub fn outcome(&self) -> &'static str {
        self.outcome
    }

    /// `true` once the outcome is an error cause.
    pub fn is_err(&self) -> bool {
        OUTCOME_NAMES
            .iter()
            .position(|&n| n == self.outcome)
            .is_some_and(|i| i >= FIRST_ERROR_OUTCOME)
    }

    /// Marks this request as answered by a batch-deduplicated solve.
    pub fn mark_deduped(&mut self) {
        self.deduped = true;
    }

    /// Records the certified reduced-solve residual ratio, when one was
    /// produced for this request.
    pub fn set_residual(&mut self, residual: f64) {
        self.residual = Some(residual);
    }

    /// The certified residual ratio, if the reduced path produced one.
    pub fn residual(&self) -> Option<f64> {
        self.residual
    }

    /// Duration of the named stage, if stamped.
    pub fn stage_micros(&self, name: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, us)| us)
    }

    /// Total microseconds since the context was created.
    pub fn total_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The compact `trace` object spliced into the response envelope.
    /// With `redact` set, every duration renders as 0 — the form the
    /// determinism tests compare across thread counts.
    pub fn envelope_json(&self, redact: bool) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"id\":\"{:016x}\",\"outcome\":\"{}\",\"deduped\":{}",
            self.id(),
            self.outcome,
            self.deduped
        );
        out.push_str(",\"stages\":{");
        for (i, &(name, us)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}_us\":{}", name, if redact { 0 } else { us });
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"total_us\":{}}}",
            if redact { 0 } else { self.total_us() }
        );
        out
    }

    /// The numeric flight-recorder form (stage/outcome names → codes).
    pub fn to_record(&self) -> TraceRecord {
        let code = OUTCOME_NAMES
            .iter()
            .position(|&n| n == self.outcome)
            .unwrap_or(0) as u16;
        let stages = self
            .stages
            .iter()
            .map(|&(name, us)| {
                let stage_code = STAGE_NAMES.iter().position(|&n| n == name).unwrap_or(0) as u16;
                (stage_code, us)
            })
            .collect();
        TraceRecord {
            seq: 0,
            id: self.id(),
            ok: !self.is_err(),
            code,
            stages,
        }
    }
}

/// Renders a flight-recorder entry as one JSON object (codes → names),
/// the form the `trace` introspection endpoint returns.
pub fn record_json(record: &TraceRecord, redact: bool) -> String {
    let outcome = OUTCOME_NAMES
        .get(usize::from(record.code))
        .copied()
        .unwrap_or("pending");
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"seq\":{},\"id\":\"{:016x}\",\"ok\":{},\"outcome\":\"{}\",\"stages\":{{",
        record.seq, record.id, record.ok, outcome
    );
    for (i, &(code, us)) in record.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = STAGE_NAMES.get(usize::from(code)).copied().unwrap_or("?");
        let _ = write!(out, "\"{}_us\":{}", name, if redact { 0 } else { us });
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceContext::new(1, 1);
        let b = TraceContext::new(1, 1);
        let c = TraceContext::new(1, 2);
        let d = TraceContext::new(2, 1);
        assert_eq!(a.id(), b.id(), "same (conn, seq) -> same id");
        assert_ne!(a.id(), c.id());
        assert_ne!(a.id(), d.id());
        assert_ne!(c.id(), d.id());
    }

    #[test]
    fn outcome_tables_agree_with_error_causes() {
        // Every error-cause string the protocol can produce must be an
        // error outcome, or the recorder would misfile it as OK.
        for kind in [
            "bad_request",
            "unknown_benchmark",
            "line_too_long",
            "overloaded",
            "shutting_down",
            "deadline_exceeded",
            "thermal",
            "non_finite",
            "panic",
            "internal",
        ] {
            let cause = crate::protocol::error_cause(kind);
            let idx = OUTCOME_NAMES
                .iter()
                .position(|&n| n == cause)
                .unwrap_or_else(|| panic!("cause '{cause}' missing from OUTCOME_NAMES"));
            assert!(idx >= FIRST_ERROR_OUTCOME, "'{cause}' must be an error");
        }
    }

    #[test]
    fn envelope_json_redacts_durations_but_keeps_structure() {
        let mut t = TraceContext::new(3, 9);
        t.stage("parse");
        t.stage_us("solve", 1234);
        t.set_outcome("reduced");
        t.mark_deduped();
        let redacted = t.envelope_json(true);
        assert!(redacted.contains("\"solve_us\":0"));
        assert!(redacted.contains("\"outcome\":\"reduced\""));
        assert!(redacted.contains("\"deduped\":true"));
        assert!(redacted.contains("\"total_us\":0"));
        let live = t.envelope_json(false);
        assert!(live.contains("\"solve_us\":1234"));
        // Both forms parse as JSON objects.
        for s in [&redacted, &live] {
            let v: serde::Value = serde_json::from_str(s).unwrap();
            assert!(v.as_map().is_some());
        }
    }

    #[test]
    fn record_round_trip_preserves_stage_and_outcome_names() {
        let mut t = TraceContext::new(5, 2);
        t.stage_us("queue", 10);
        t.stage_us("solve", 20);
        t.set_outcome("deadline");
        let rec = t.to_record();
        assert!(!rec.ok);
        assert_eq!(rec.id, t.id());
        let json = record_json(&rec, false);
        assert!(json.contains("\"outcome\":\"deadline\""));
        assert!(json.contains("\"queue_us\":10"));
        assert!(json.contains("\"solve_us\":20"));
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        assert!(v.as_map().is_some());
    }
}
