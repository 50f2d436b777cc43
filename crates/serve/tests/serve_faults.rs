//! Fault-injection coverage: a [`FaultyModel`] wired behind the server via
//! the `CoolingModel` trait. Injected NaNs, errors, and panics mid-batch
//! must yield typed error responses for the affected request while the
//! rest of the batch — and the server — survive.

mod common;

use common::*;
use oftec::faults::FaultKind;
use oftec_power::Benchmark;
use oftec_serve::engine::SERVE_PANICS;
use oftec_serve::queue::Job;
use oftec_serve::{
    reference_payload, CacheConfig, Engine, FaultPlan, QuantizedCache, ServeConfig, SolveKind,
    SolveSpec, TraceContext,
};
use oftec_thermal::PackageConfig;
use std::sync::{mpsc, Arc};
use std::time::Instant;

fn faulty_config(kind: FaultKind, every: usize) -> ServeConfig {
    ServeConfig {
        fault: Some(FaultPlan { kind, every }),
        ..test_config()
    }
}

fn steady_line(rpm: f64, id: u64) -> String {
    format!(
        r#"{{"cmd":"steady","id":{id},"benchmark":"qsort","rpm":{rpm},"amps":1.2,"no_cache":true}}"#
    )
}

fn steady_spec(rpm: f64) -> SolveSpec {
    SolveSpec {
        kind: SolveKind::Steady,
        benchmark: Benchmark::Quicksort,
        scale: 1.0,
        rpm,
        amps: 1.2,
        omega_points: 0,
        current_points: 0,
        no_cache: true,
        deadline_ms: None,
    }
}

fn steady_reference(rpm: f64) -> String {
    reference_payload(&PackageConfig::dac14_coarse(), &steady_spec(rpm), None)
        .expect("reference solve")
}

#[test]
fn every_third_solve_panics_deterministically_and_server_survives() {
    let _guard = counter_lock();
    let server = TestServer::start(faulty_config(FaultKind::Panic, 3));
    let mut conn = Conn::open(server.addr);
    let baseline = counter(&conn.request(r#"{"cmd":"metrics"}"#), "serve.panics");
    // Sequential requests → one executor item each → the fault sequence
    // is exactly 1..=9, so items 3, 6, 9 inject.
    let responses: Vec<(f64, String)> = (1..=9u64)
        .map(|i| {
            let rpm = 2000.0 + 100.0 * i as f64;
            (rpm, conn.request(&steady_line(rpm, i)))
        })
        .collect();
    for (i, (rpm, resp)) in responses.iter().enumerate() {
        let seq = i + 1;
        if seq % 3 == 0 {
            assert!(!is_ok(resp), "request {seq} must draw the panic: {resp}");
            assert_eq!(error_kind(resp), "panic");
        } else {
            assert!(is_ok(resp), "request {seq} must survive: {resp}");
            assert_eq!(
                result_json(resp),
                steady_reference(*rpm),
                "surviving request {seq} must be bit-identical to the direct solve"
            );
        }
    }
    // The panics were contained and counted; the server is still healthy.
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.panics") - baseline, 3);
    assert!(is_ok(&conn.request(r#"{"cmd":"health"}"#)));
    server.stop();
}

#[test]
fn panic_mid_batch_only_fails_the_affected_requests() {
    // One nine-job batch straight through the engine: the fault draws run
    // 1..=9 in job order, so items 3, 6 and 9 panic mid-batch (and the
    // batch is wide enough to fan out onto the executor).
    let _guard = counter_lock();
    let cache = Arc::new(QuantizedCache::new(CacheConfig::default()));
    let plan = FaultPlan {
        kind: FaultKind::Panic,
        every: 3,
    };
    let engine = Engine::new(PackageConfig::dac14_coarse(), cache, 2, Some(plan));
    let baseline = SERVE_PANICS.get();
    let (jobs, replies): (Vec<Job>, Vec<_>) = (1..=9u64)
        .map(|i| {
            let rpm = 2000.0 + 100.0 * i as f64;
            let (tx, rx) = mpsc::channel();
            let job = Job {
                spec: steady_spec(rpm),
                deadline: None,
                enqueued: Instant::now(),
                trace: TraceContext::new(1, i),
                reply: tx,
            };
            (job, (rpm, rx))
        })
        .unzip();
    engine.execute(jobs);
    for (i, (rpm, rx)) in replies.into_iter().enumerate() {
        let seq = i + 1;
        let (result, _trace) = rx.recv().expect("every job is answered");
        if seq % 3 == 0 {
            let err = result.expect_err("every third item draws the panic");
            assert_eq!(err.kind, "panic");
        } else {
            assert_eq!(
                result.expect("batch-mates of a panicking item must survive"),
                steady_reference(rpm),
                "batch-mates of a panicking item must still be bit-identical"
            );
        }
    }
    assert_eq!(SERVE_PANICS.get() - baseline, 3);
}

#[test]
fn injected_errors_become_typed_thermal_responses() {
    let _guard = counter_lock();
    let server = TestServer::start(faulty_config(FaultKind::Error, 1));
    let mut conn = Conn::open(server.addr);
    let baseline = counter(&conn.request(r#"{"cmd":"metrics"}"#), "serve.panics");
    for i in 0..3u64 {
        let resp = conn.request(&steady_line(2500.0 + 50.0 * i as f64, i));
        assert!(!is_ok(&resp));
        assert_eq!(
            error_kind(&resp),
            "thermal",
            "injected Err surfaces as-is: {resp}"
        );
    }
    // Errors are not panics.
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.panics"), baseline);
    server.stop();
}

#[test]
fn injected_nan_is_screened_as_non_finite() {
    let server = TestServer::start(faulty_config(FaultKind::NonFinite, 1));
    let mut conn = Conn::open(server.addr);
    let resp = conn.request(&steady_line(2800.0, 1));
    assert!(!is_ok(&resp));
    assert_eq!(
        error_kind(&resp),
        "non_finite",
        "poisoned solutions must never serialize as results: {resp}"
    );
    // The connection and server outlive the poisoned solve.
    assert!(is_ok(&conn.request(r#"{"cmd":"health"}"#)));
    server.stop();
}
