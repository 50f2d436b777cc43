//! Protocol and serving-behavior integration tests: framing, typed
//! errors, bit-identical batching, caching, admission control, deadlines,
//! and graceful drain — all against a real server on loopback.

mod common;

use common::*;
use oftec_power::Benchmark;
use oftec_serve::{
    protocol, reference_payload, CacheConfig, CacheKey, ServeConfig, SolveKind, SolveSpec,
};
use oftec_thermal::PackageConfig;
use std::time::Duration;

fn steady_spec(rpm: f64, amps: f64, no_cache: bool) -> SolveSpec {
    SolveSpec {
        kind: SolveKind::Steady,
        benchmark: Benchmark::Quicksort,
        scale: 1.0,
        rpm,
        amps,
        omega_points: 0,
        current_points: 0,
        no_cache,
        deadline_ms: None,
    }
}

fn steady_line(rpm: f64, amps: f64, id: u64) -> String {
    format!(r#"{{"cmd":"steady","id":{id},"benchmark":"qsort","rpm":{rpm},"amps":{amps}}}"#)
}

#[test]
fn framing_errors_are_typed_and_recoverable() {
    let server = TestServer::start(ServeConfig {
        max_line_bytes: 256,
        ..test_config()
    });
    let mut conn = Conn::open(server.addr);

    // Malformed JSON → typed error, connection stays up.
    let resp = conn.request("this is not json");
    assert!(!is_ok(&resp));
    assert_eq!(error_kind(&resp), "bad_request");

    // Wrong shape → typed error.
    let resp = conn.request("[1,2,3]");
    assert_eq!(error_kind(&resp), "bad_request");

    // Unknown benchmark → typed error carrying the request id.
    let resp = conn.request(r#"{"cmd":"steady","id":42,"benchmark":"doom"}"#);
    assert_eq!(error_kind(&resp), "unknown_benchmark");
    assert_eq!(field(&envelope(&resp), "id").as_f64(), Some(42.0));

    // Oversized line → line_too_long, then the connection still works.
    let huge = format!(
        r#"{{"cmd":"steady","benchmark":"qsort","pad":"{}"}}"#,
        "x".repeat(512)
    );
    let resp = conn.request(&huge);
    assert_eq!(error_kind(&resp), "line_too_long");

    // A line opening with a NUL byte is just malformed JSON.
    let resp = conn.request("\0{\"cmd\":\"health\"}");
    assert_eq!(error_kind(&resp), "bad_request");

    // Blank lines are ignored; a valid request after all that succeeds.
    conn.write_raw(b"\n\n");
    let resp = conn.request(r#"{"cmd":"health","id":7}"#);
    assert!(is_ok(&resp), "healthy after garbage: {resp}");
    assert_eq!(field(&envelope(&resp), "id").as_f64(), Some(7.0));
    server.stop();
}

#[test]
fn fragmented_writes_reassemble_into_requests() {
    let server = TestServer::start(test_config());
    let mut conn = Conn::open(server.addr);
    let line = steady_line(3000.0, 1.5, 1);
    let bytes = line.as_bytes();
    // Dribble the request across several TCP segments.
    let (a, rest) = bytes.split_at(5);
    let (b, c) = rest.split_at(rest.len() / 2);
    conn.write_raw(a);
    std::thread::sleep(Duration::from_millis(20));
    conn.write_raw(b);
    std::thread::sleep(Duration::from_millis(20));
    conn.write_raw(c);
    conn.write_raw(b"\n");
    let resp = conn.recv();
    assert!(is_ok(&resp), "fragmented request must solve: {resp}");

    // Two requests in a single write → two responses.
    let two = format!(
        "{}\n{}\n",
        steady_line(3000.0, 1.5, 2),
        r#"{"cmd":"health"}"#
    );
    conn.write_raw(two.as_bytes());
    assert!(is_ok(&conn.recv()));
    assert!(is_ok(&conn.recv()));
    server.stop();
}

#[test]
fn batched_responses_match_direct_library_solves() {
    let server = TestServer::start(ServeConfig {
        threads: 4,
        ..test_config()
    });
    // Several distinct on-grid operating points, sent concurrently so
    // they land in batches.
    let points: Vec<(f64, f64)> = (0..6)
        .map(|i| (2400.0 + 300.0 * i as f64, 0.5 + 0.25 * i as f64))
        .collect();
    let responses: Vec<(f64, f64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, &(rpm, amps))| {
                let addr = server.addr;
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    (rpm, amps, conn.request(&steady_line(rpm, amps, i as u64)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let package = PackageConfig::dac14_coarse();
    for (rpm, amps, resp) in responses {
        assert!(is_ok(&resp), "({rpm}, {amps}) must solve: {resp}");
        let expected = reference_payload(&package, &steady_spec(rpm, amps, false), None)
            .expect("reference solve");
        assert_eq!(
            result_json(&resp),
            expected,
            "batched response must be bit-identical to the direct solve at ({rpm}, {amps})"
        );
    }
    server.stop();
}

#[test]
fn thread_count_does_not_change_responses() {
    let run = |threads: usize| -> Vec<String> {
        let server = TestServer::start(ServeConfig {
            threads,
            ..test_config()
        });
        let mut conn = Conn::open(server.addr);
        let out = (0..4)
            .map(|i| {
                let resp = conn.request(&steady_line(2600.0 + 250.0 * i as f64, 1.0, i as u64));
                result_json(&resp)
            })
            .collect();
        server.stop();
        out
    };
    assert_eq!(run(1), run(4), "payloads must not depend on OFTEC_THREADS");
}

#[test]
fn request_order_does_not_change_answers_within_a_scale_cell() {
    // 1.2004 and 1.2 share one quantized scale cell. The server keeps one
    // system per cell, so whichever request arrives first must not decide
    // the scale the other one is solved at: both answer at the cell's
    // canonical scale, exactly as the direct solve there.
    let no_cache = r#"{"cmd":"steady","id":1,"benchmark":"qsort","scale":1.2004,"rpm":3000,"amps":1,"no_cache":true}"#;
    let cached = r#"{"cmd":"steady","id":2,"benchmark":"qsort","scale":1.2,"rpm":3000,"amps":1}"#;
    let cfg = CacheConfig::default();
    let mut spec = steady_spec(3000.0, 1.0, false);
    spec.scale = 1.2;
    spec.scale = CacheKey::for_spec(&spec, &cfg).canonical_scale(&cfg);
    let expected =
        reference_payload(&PackageConfig::dac14_coarse(), &spec, None).expect("reference solve");
    for order in [[no_cache, cached], [cached, no_cache]] {
        let server = TestServer::start(test_config());
        let mut conn = Conn::open(server.addr);
        for line in order {
            let resp = conn.request(line);
            assert!(is_ok(&resp), "{line} must solve: {resp}");
            assert_eq!(
                result_json(&resp),
                expected,
                "{line} (sent in order {order:?}) must answer at the canonical scale"
            );
        }
        server.stop();
    }
}

#[test]
fn repeat_requests_hit_the_cache_with_identical_payloads() {
    let server = TestServer::start(test_config());
    let mut conn = Conn::open(server.addr);
    let first = conn.request(&steady_line(3000.0, 1.5, 1));
    assert!(is_ok(&first) && !cached_flag(&first));
    let second = conn.request(&steady_line(3000.0, 1.5, 2));
    assert!(
        is_ok(&second) && cached_flag(&second),
        "repeat must hit: {second}"
    );
    assert_eq!(result_json(&first), result_json(&second));

    // A sub-grid perturbation lands on the same quantized key.
    let third = conn.request(&steady_line(3000.3, 1.502, 3));
    assert!(cached_flag(&third), "within-grid request must hit: {third}");
    assert_eq!(result_json(&first), result_json(&third));

    // The metrics endpoint sees the hits.
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert!(counter(&metrics, "serve.cache.hits") >= 2);
    assert_eq!(counter(&metrics, "serve.panics"), 0);
    server.stop();
}

#[test]
fn overload_rejections_are_explicit() {
    // Tiny queue: a concurrent burst must overflow.
    let server = TestServer::start(ServeConfig {
        queue_capacity: 1,
        ..test_config()
    });
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let addr = server.addr;
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    // Sweeps keep the dispatcher busy long enough for the
                    // burst to pile up; no_cache defeats dedup.
                    conn.request(&format!(
                        r#"{{"cmd":"sweep","id":{i},"benchmark":"qsort","omega_points":6,"current_points":5,"no_cache":true}}"#
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let overloaded = responses
        .iter()
        .filter(|r| !is_ok(r) && error_kind(r) == "overloaded")
        .count();
    let solved = responses.iter().filter(|r| is_ok(r)).count();
    assert!(
        overloaded > 0,
        "burst must trip admission control: {responses:?}"
    );
    assert!(solved > 0, "admitted requests must still solve");
    assert_eq!(overloaded + solved, responses.len(), "all outcomes typed");
    server.stop();
}

#[test]
fn expired_deadlines_get_typed_rejections() {
    let server = TestServer::start(test_config());
    let mut conn = Conn::open(server.addr);
    let resp = conn.request(
        r#"{"cmd":"steady","benchmark":"qsort","rpm":3000,"amps":1.5,"deadline_ms":0,"no_cache":true}"#,
    );
    assert!(!is_ok(&resp));
    assert_eq!(error_kind(&resp), "deadline_exceeded");
    // The server is still healthy afterwards.
    assert!(is_ok(&conn.request(r#"{"cmd":"health"}"#)));
    server.stop();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = TestServer::start(test_config());
    // Park a slow request (a 64×64 uncached sweep), then request shutdown
    // from another connection while it is still in flight.
    let addr = server.addr;
    let pause = Duration::from_millis(10);
    #[expect(
        clippy::disallowed_methods,
        reason = "a concurrent client keeps a request in flight"
    )]
    let slow = std::thread::spawn(move || {
        let mut conn = Conn::open(addr);
        conn.request(
            r#"{"cmd":"sweep","id":1,"benchmark":"qsort","omega_points":64,"current_points":64,"no_cache":true}"#,
        )
    });
    std::thread::sleep(pause);
    let mut conn = Conn::open(addr);
    let ack = conn.request(r#"{"cmd":"shutdown","id":2}"#);
    assert!(is_ok(&ack), "shutdown must be acknowledged: {ack}");
    // The in-flight sweep still gets its full answer.
    let slow_resp = slow.join().expect("slow requester");
    assert!(
        is_ok(&slow_resp),
        "drain must answer in-flight work: {slow_resp}"
    );
    // The sweep outlasted the pause, so it really was in flight when the
    // shutdown arrived.
    let trace = field(&envelope(&slow_resp), "trace");
    let total_us = field(trace.as_map().expect("trace object"), "total_us")
        .as_f64()
        .expect("trace.total_us");
    assert!(
        total_us > pause.as_micros() as f64,
        "the sweep took {total_us} µs, not longer than the {pause:?} pause"
    );
    // And the serve loop exits cleanly.
    server.stop();
}

#[test]
fn optimize_and_sweep_roundtrip_through_the_protocol() {
    let server = TestServer::start(test_config());
    let mut conn = Conn::open(server.addr);
    let resp = conn.request(r#"{"cmd":"optimize","id":5,"benchmark":"CRC32"}"#);
    assert!(is_ok(&resp), "optimize must succeed: {resp}");
    let payload = result_json(&resp);
    let expected = reference_payload(
        &PackageConfig::dac14_coarse(),
        &SolveSpec {
            kind: SolveKind::Optimize,
            benchmark: Benchmark::Crc32,
            scale: 1.0,
            rpm: 0.0,
            amps: 0.0,
            omega_points: 0,
            current_points: 0,
            no_cache: false,
            deadline_ms: None,
        },
        None,
    )
    .expect("reference optimize");
    assert_eq!(payload, expected);

    let resp = conn.request(
        r#"{"cmd":"sweep","id":6,"benchmark":"CRC32","omega_points":4,"current_points":4}"#,
    );
    assert!(is_ok(&resp), "sweep must succeed: {resp}");
    // 4×4 grid → 16 samples on the wire.
    let samples = serde_json::from_str::<serde::Value>(&result_json(&resp))
        .ok()
        .and_then(|v| {
            v.as_map().and_then(|m| {
                m.iter()
                    .find(|(k, _)| k == "samples")
                    .map(|(_, s)| s.clone())
            })
        })
        .and_then(|s| s.as_seq().map(<[serde::Value]>::len))
        .expect("samples array");
    assert_eq!(samples, 16);
    server.stop();
}

#[test]
fn protocol_envelope_helpers_are_inverse() {
    // ok_line/err_line splice payloads verbatim; result_json recovers it.
    let line = protocol::ok_line(Some(9), false, r#"{"a":1,"b":[2,3]}"#);
    assert_eq!(result_json(&line), r#"{"a":1,"b":[2,3]}"#);
}
