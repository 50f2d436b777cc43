//! Wire protocol of the cooling-control service.
//!
//! One JSON object per line in both directions (newline-delimited JSON).
//! Requests carry a `cmd` discriminator plus command-specific fields;
//! responses are an envelope `{"id": ..., "ok": ..., ...}` wrapping either
//! a `result` payload or a typed `error` object. Parsing works on the
//! vendored [`serde::Value`] tree directly because the derive stand-in
//! has no data-carrying enums; responses are assembled by splicing
//! derived-`Serialize` payload JSON into a hand-formatted envelope, which
//! keeps repeated results byte-identical (the cache stores the payload
//! string verbatim).

use oftec::OftecError;
use oftec_power::Benchmark;
use serde::Value;

/// Upper bound on sweep grid resolution accepted over the wire, so a
/// single request cannot monopolize the executor.
pub const MAX_SWEEP_POINTS: usize = 64;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Full Algorithm 1 run for a (benchmark, scale) system.
    Optimize { spec: SolveSpec },
    /// One steady-state solve at an explicit operating point.
    Steady { spec: SolveSpec },
    /// A rectangular `(ω, I)` sweep.
    Sweep { spec: SolveSpec },
    /// Liveness probe; answered inline, never queued.
    Health,
    /// Telemetry snapshot as JSON; answered inline, never queued.
    Metrics,
    /// Recent flight-recorder entries; answered inline, never queued.
    Trace { limit: usize, redact: bool },
    /// Rolling-window SLO monitor states; answered inline, never queued.
    Slo,
    /// Begin graceful drain: stop accepting, finish in-flight work,
    /// flush telemetry, then exit the serve loop.
    Shutdown,
}

/// Maps a wire error `kind` onto its coarse cause — the taxonomy of the
/// typed `serve.errors.*` counters and the trace outcome table
/// ([`crate::trace::OUTCOME_NAMES`]).
pub fn error_cause(kind: &str) -> &'static str {
    match kind {
        "bad_request" | "unknown_benchmark" | "line_too_long" => "parse",
        "overloaded" | "shutting_down" => "overload",
        "deadline_exceeded" => "deadline",
        "panic" => "panic",
        "internal" => "internal",
        // Everything else is a solver-side failure (`thermal`,
        // `non_finite`, `infeasible`, ... — the `OftecError::kind` codes).
        _ => "solver",
    }
}

/// The solve-shaped portion of a request: everything the batch engine
/// needs, and nothing that is not `Send + Sync` (reply channels stay
/// outside, with the queue job).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSpec {
    /// Which command this spec came from (drives dispatch + cache kind).
    pub kind: SolveKind,
    /// Workload (Table 2 benchmark).
    pub benchmark: Benchmark,
    /// Workload scale factor (1.0 = the paper's traces).
    pub scale: f64,
    /// Fan speed in RPM (`steady` only; 0 otherwise).
    pub rpm: f64,
    /// TEC current in amperes (`steady` only; 0 otherwise).
    pub amps: f64,
    /// Sweep resolution along ω (`sweep` only; 0 otherwise).
    pub omega_points: usize,
    /// Sweep resolution along I (`sweep` only; 0 otherwise).
    pub current_points: usize,
    /// Skip the result cache for this request (read and write). The
    /// scale is still snapped to `CacheConfig::scale_grid`: the request is
    /// solved at, and reports, the canonical scale of its cache cell, while
    /// `rpm` and `amps` stay raw.
    pub no_cache: bool,
    /// Per-request deadline budget in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Solve-command discriminator (also the first cache-key component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SolveKind {
    Optimize,
    Steady,
    Sweep,
}

/// A typed protocol error: machine-readable `kind` + human `message`.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrBody {
    pub kind: &'static str,
    pub message: String,
}

impl ErrBody {
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }

    /// Maps a pipeline error onto the wire taxonomy, reusing
    /// [`OftecError::kind`] codes verbatim.
    pub fn from_oftec(e: &OftecError) -> Self {
        Self::new(e.kind(), e.to_string())
    }
}

/// JSON-escapes `s` into a quoted string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn id_json(id: Option<u64>) -> String {
    match id {
        Some(id) => id.to_string(),
        None => "null".to_string(),
    }
}

/// Success envelope around an already-serialized `result` payload.
pub fn ok_line(id: Option<u64>, cached: bool, payload_json: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"cached\":{},\"result\":{}}}",
        id_json(id),
        cached,
        payload_json
    )
}

/// Error envelope.
pub fn err_line(id: Option<u64>, err: &ErrBody) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{{\"kind\":{},\"message\":{}}}}}",
        id_json(id),
        escape_json(err.kind),
        escape_json(&err.message)
    )
}

/// Success envelope carrying a `trace` object. The `trace` field sits
/// **before** `result` on purpose: cached payloads are spliced verbatim
/// and tooling (including the test helpers) relies on `result` staying
/// the envelope's final field.
pub fn ok_line_traced(
    id: Option<u64>,
    cached: bool,
    trace_json: &str,
    payload_json: &str,
) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"cached\":{},\"trace\":{},\"result\":{}}}",
        id_json(id),
        cached,
        trace_json,
        payload_json
    )
}

/// Error envelope carrying a `trace` object (before `error`, mirroring
/// [`ok_line_traced`]).
pub fn err_line_traced(id: Option<u64>, trace_json: &str, err: &ErrBody) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"trace\":{},\"error\":{{\"kind\":{},\"message\":{}}}}}",
        id_json(id),
        trace_json,
        escape_json(err.kind),
        escape_json(&err.message)
    )
}

fn find<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn opt_f64(map: &[(String, Value)], key: &str, default: f64) -> Result<f64, ErrBody> {
    match find(map, key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Num(n)) => Ok(*n),
        Some(_) => Err(ErrBody::new(
            "bad_request",
            format!("field '{key}' must be a number"),
        )),
    }
}

fn opt_bool(map: &[(String, Value)], key: &str) -> Result<bool, ErrBody> {
    match find(map, key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(ErrBody::new(
            "bad_request",
            format!("field '{key}' must be a boolean"),
        )),
    }
}

fn opt_u64(map: &[(String, Value)], key: &str) -> Result<Option<u64>, ErrBody> {
    match find(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
            Ok(Some(*n as u64))
        }
        Some(_) => Err(ErrBody::new(
            "bad_request",
            format!("field '{key}' must be a non-negative integer"),
        )),
    }
}

fn sweep_points(map: &[(String, Value)], key: &str, default: usize) -> Result<usize, ErrBody> {
    let n = match opt_u64(map, key)? {
        None => default,
        Some(n) => n as usize,
    };
    if !(2..=MAX_SWEEP_POINTS).contains(&n) {
        return Err(ErrBody::new(
            "bad_request",
            format!("field '{key}' must be in 2..={MAX_SWEEP_POINTS}"),
        ));
    }
    Ok(n)
}

fn benchmark_field(map: &[(String, Value)]) -> Result<Benchmark, ErrBody> {
    let name = find(map, "benchmark")
        .and_then(Value::as_str)
        .ok_or_else(|| ErrBody::new("bad_request", "field 'benchmark' (string) is required"))?;
    Benchmark::from_name(name).ok_or_else(|| {
        ErrBody::new(
            "unknown_benchmark",
            format!(
                "unknown benchmark '{name}'; expected one of {}",
                Benchmark::ALL
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
    })
}

fn solve_common(map: &[(String, Value)], kind: SolveKind) -> Result<SolveSpec, ErrBody> {
    let benchmark = benchmark_field(map)?;
    let scale = opt_f64(map, "scale", 1.0)?;
    if !scale.is_finite() || scale < 0.0 {
        return Err(ErrBody::new(
            "bad_request",
            "field 'scale' must be finite and non-negative",
        ));
    }
    Ok(SolveSpec {
        kind,
        benchmark,
        scale,
        rpm: 0.0,
        amps: 0.0,
        omega_points: 0,
        current_points: 0,
        no_cache: opt_bool(map, "no_cache")?,
        deadline_ms: opt_u64(map, "deadline_ms")?,
    })
}

/// Extracts the request id from a line before full parsing, so malformed
/// requests can still be correlated when the envelope itself parsed.
pub fn parse_id(v: &Value) -> Option<u64> {
    let map = v.as_map()?;
    match find(map, "id") {
        Some(Value::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
            Some(*n as u64)
        }
        _ => None,
    }
}

/// Parses one request line into `(id, Request)`.
///
/// # Errors
///
/// `bad_request` for malformed JSON / missing or mistyped fields,
/// `unknown_benchmark` for names outside Table 2. The id is carried in
/// the error tuple whenever the envelope parsed far enough to expose it.
pub fn parse_line(line: &str) -> Result<(Option<u64>, Request), (Option<u64>, ErrBody)> {
    let v: Value = serde_json::from_str(line).map_err(|e| {
        (
            None,
            ErrBody::new("bad_request", format!("malformed JSON: {e}")),
        )
    })?;
    let id = parse_id(&v);
    let map = v.as_map().ok_or_else(|| {
        (
            id,
            ErrBody::new("bad_request", "request must be a JSON object"),
        )
    })?;
    let cmd = find(map, "cmd").and_then(Value::as_str).ok_or_else(|| {
        (
            id,
            ErrBody::new("bad_request", "field 'cmd' (string) is required"),
        )
    })?;
    let req = match cmd {
        "optimize" => Request::Optimize {
            spec: solve_common(map, SolveKind::Optimize).map_err(|e| (id, e))?,
        },
        "steady" => {
            let mut spec = solve_common(map, SolveKind::Steady).map_err(|e| (id, e))?;
            spec.rpm = opt_f64(map, "rpm", 0.0).map_err(|e| (id, e))?;
            spec.amps = opt_f64(map, "amps", 0.0).map_err(|e| (id, e))?;
            if !spec.rpm.is_finite() || !spec.amps.is_finite() {
                return Err((
                    id,
                    ErrBody::new("bad_request", "fields 'rpm' and 'amps' must be finite"),
                ));
            }
            Request::Steady { spec }
        }
        "sweep" => {
            let mut spec = solve_common(map, SolveKind::Sweep).map_err(|e| (id, e))?;
            spec.omega_points = sweep_points(map, "omega_points", 8).map_err(|e| (id, e))?;
            spec.current_points = sweep_points(map, "current_points", 6).map_err(|e| (id, e))?;
            Request::Sweep { spec }
        }
        "health" => Request::Health,
        "metrics" => match find(map, "format").map(Value::as_str) {
            None | Some(Some("json")) => Request::Metrics,
            Some(_) => {
                return Err((
                    id,
                    ErrBody::new("bad_request", "field 'format' must be \"json\""),
                ))
            }
        },
        "trace" => {
            let limit = opt_u64(map, "limit").map_err(|e| (id, e))?.unwrap_or(64) as usize;
            let redact = opt_bool(map, "redact").map_err(|e| (id, e))?;
            Request::Trace { limit, redact }
        }
        "slo" => Request::Slo,
        "shutdown" => Request::Shutdown,
        other => {
            return Err((
                id,
                ErrBody::new("bad_request", format!("unknown cmd '{other}'")),
            ))
        }
    };
    Ok((id, req))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_command() {
        let (id, req) =
            parse_line(r#"{"cmd":"steady","id":7,"benchmark":"qsort","rpm":3000,"amps":1.5}"#)
                .unwrap();
        assert_eq!(id, Some(7));
        match req {
            Request::Steady { spec } => {
                assert_eq!(spec.benchmark, Benchmark::Quicksort);
                assert_eq!(spec.rpm, 3000.0);
                assert_eq!(spec.amps, 1.5);
                assert_eq!(spec.scale, 1.0);
                assert!(!spec.no_cache);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            parse_line(r#"{"cmd":"health"}"#).unwrap().1,
            Request::Health
        ));
        assert!(matches!(
            parse_line(r#"{"cmd":"metrics"}"#).unwrap().1,
            Request::Metrics
        ));
        assert!(matches!(
            parse_line(r#"{"cmd":"metrics","format":"json"}"#)
                .unwrap()
                .1,
            Request::Metrics
        ));
        assert!(matches!(
            parse_line(r#"{"cmd":"trace"}"#).unwrap().1,
            Request::Trace {
                limit: 64,
                redact: false
            }
        ));
        assert!(matches!(
            parse_line(r#"{"cmd":"trace","limit":5,"redact":true}"#)
                .unwrap()
                .1,
            Request::Trace {
                limit: 5,
                redact: true
            }
        ));
        assert!(matches!(
            parse_line(r#"{"cmd":"slo"}"#).unwrap().1,
            Request::Slo
        ));
        assert!(matches!(
            parse_line(r#"{"cmd":"shutdown"}"#).unwrap().1,
            Request::Shutdown
        ));
        let (_, req) = parse_line(r#"{"cmd":"sweep","benchmark":"FFT","omega_points":4}"#).unwrap();
        match req {
            Request::Sweep { spec } => {
                assert_eq!((spec.omega_points, spec.current_points), (4, 6));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn typed_errors_for_bad_input() {
        let (_, e) = parse_line("not json").unwrap_err();
        assert_eq!(e.kind, "bad_request");
        let (id, e) = parse_line(r#"{"cmd":"steady","id":3,"benchmark":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(3));
        assert_eq!(e.kind, "unknown_benchmark");
        let (_, e) =
            parse_line(r#"{"cmd":"steady","benchmark":"qsort","rpm":"fast"}"#).unwrap_err();
        assert_eq!(e.kind, "bad_request");
        let (_, e) =
            parse_line(r#"{"cmd":"sweep","benchmark":"qsort","omega_points":1000}"#).unwrap_err();
        assert_eq!(e.kind, "bad_request");
        let (_, e) =
            parse_line(r#"{"cmd":"optimize","benchmark":"qsort","scale":-1}"#).unwrap_err();
        assert_eq!(e.kind, "bad_request");
        let (_, e) = parse_line(r#"{"cmd":"launch","benchmark":"qsort"}"#).unwrap_err();
        assert_eq!(e.kind, "bad_request");
        for format in [r#""xml""#, r#""prometheus""#, "3"] {
            let line = format!(r#"{{"cmd":"metrics","format":{format}}}"#);
            let (_, e) = parse_line(&line).unwrap_err();
            assert_eq!(e.kind, "bad_request", "{line}");
        }
    }

    #[test]
    fn error_causes_cover_the_wire_taxonomy() {
        assert_eq!(error_cause("bad_request"), "parse");
        assert_eq!(error_cause("unknown_benchmark"), "parse");
        assert_eq!(error_cause("line_too_long"), "parse");
        assert_eq!(error_cause("overloaded"), "overload");
        assert_eq!(error_cause("shutting_down"), "overload");
        assert_eq!(error_cause("deadline_exceeded"), "deadline");
        assert_eq!(error_cause("panic"), "panic");
        assert_eq!(error_cause("internal"), "internal");
        assert_eq!(error_cause("thermal"), "solver");
        assert_eq!(error_cause("non_finite"), "solver");
    }

    #[test]
    fn benchmark_lookup_is_case_insensitive() {
        let (_, req) = parse_line(r#"{"cmd":"optimize","benchmark":"crc32"}"#).unwrap();
        assert!(matches!(
            req,
            Request::Optimize { spec } if spec.benchmark == Benchmark::Crc32
        ));
    }

    #[test]
    fn envelopes_escape_and_correlate() {
        assert_eq!(
            ok_line(Some(4), true, r#"{"x":1}"#),
            r#"{"id":4,"ok":true,"cached":true,"result":{"x":1}}"#
        );
        let line = err_line(None, &ErrBody::new("bad_request", "say \"hi\"\n"));
        assert_eq!(
            line,
            r#"{"id":null,"ok":false,"error":{"kind":"bad_request","message":"say \"hi\"\n"}}"#
        );
        // The envelope itself must re-parse.
        let v: Value = serde_json::from_str(&line).unwrap();
        assert!(v.as_map().is_some());
    }

    #[test]
    fn traced_envelopes_keep_result_last() {
        let line = ok_line_traced(Some(2), false, r#"{"id":"ab"}"#, r#"{"x":1}"#);
        assert_eq!(
            line,
            r#"{"id":2,"ok":true,"cached":false,"trace":{"id":"ab"},"result":{"x":1}}"#
        );
        assert!(line.ends_with(r#""result":{"x":1}}"#));
        let err = err_line_traced(None, r#"{"id":"cd"}"#, &ErrBody::new("panic", "boom"));
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"trace":{"id":"cd"},"error":{"kind":"panic","message":"boom"}}"#
        );
        for s in [&line, &err] {
            let v: Value = serde_json::from_str(s).unwrap();
            assert!(v.as_map().is_some());
        }
    }
}
