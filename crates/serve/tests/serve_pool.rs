//! Connection-lifecycle regression tests for the sharded worker pool:
//! panic containment (and the gauge drop guard), worker-spawn-failure
//! resilience, and the bounded thread count under connection bursts.

mod common;

use common::{counter, counter_lock, envelope, field, is_ok, test_config, Conn, TestServer};
use oftec_serve::Server;
use std::time::{Duration, Instant};

fn health_field(conn: &mut Conn, name: &str) -> f64 {
    let resp = conn.request(r#"{"cmd":"health"}"#);
    let env = envelope(&resp);
    let result = field(&env, "result");
    field(result.as_map().expect("health payload"), name)
        .as_f64()
        .expect("numeric health field")
}

#[test]
fn panicking_connection_is_contained_and_gauge_restored() {
    let _guard = counter_lock();
    let mut config = test_config();
    config.panic_token = Some("BOOM".into());
    let server = TestServer::start(config);

    let mut probe = Conn::open(server.addr);
    let panics_before = counter(&probe.request(r#"{"cmd":"metrics"}"#), "serve.panics");

    // The poisoned connection dies; the server (and this probe
    // connection) must not.
    let mut victim = Conn::open(server.addr);
    victim.send("BOOM");
    // The worker drops the connection without a response: wait for EOF.
    victim.expect_closed();
    drop(victim);

    // The panic was observed and the `connections` gauge restored —
    // the old server leaked one gauge slot per panicking connection.
    let panics_after = counter(&probe.request(r#"{"cmd":"metrics"}"#), "serve.panics");
    assert!(
        panics_after > panics_before,
        "serve.panics must count the contained panic ({panics_before} -> {panics_after})"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = health_field(&mut probe, "connections");
        if (live - 1.0).abs() < f64::EPSILON {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections gauge stuck at {live}, expected 1 (the probe connection)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The surviving server still solves.
    let resp = probe.request(r#"{"cmd":"steady","benchmark":"qsort","rpm":3000,"amps":1.0}"#);
    assert!(
        is_ok(&resp),
        "server must keep serving after a panic: {resp}"
    );
    server.stop();
}

#[test]
fn spawn_failures_lose_workers_not_the_server() {
    let _guard = counter_lock();
    let mut config = test_config();
    config.conn_workers = 3;
    config.fail_worker_spawns = 2;
    let server = TestServer::start(config);

    let mut conn = Conn::open(server.addr);
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert!(
        counter(&metrics, "serve.worker_spawn_failures") >= 2,
        "failed spawns must be counted"
    );
    assert!((health_field(&mut conn, "workers") - 1.0).abs() < f64::EPSILON);

    // One worker is enough to serve every connection.
    let mut conns: Vec<Conn> = (0..4).map(|_| Conn::open(server.addr)).collect();
    for (i, c) in conns.iter_mut().enumerate() {
        c.send(&format!(
            r#"{{"cmd":"steady","id":{i},"benchmark":"qsort","rpm":3000,"amps":1.0}}"#
        ));
    }
    for c in &mut conns {
        assert!(is_ok(&c.recv()));
    }
    server.stop();
}

#[test]
fn total_spawn_failure_is_an_error_with_final_snapshot() {
    let dir = std::env::temp_dir().join("oftec_pool_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap_path = dir.join("total_spawn_failure.json");
    let _ = std::fs::remove_file(&snap_path);

    let mut config = test_config();
    config.conn_workers = 2;
    config.fail_worker_spawns = 2;
    config.telemetry_json = Some(snap_path.display().to_string());
    let server = Server::bind(config).expect("bind");
    // With zero workers the serve loop must not spin: it drains, writes
    // the snapshot, and reports the failure instead of pretending to run.
    let err = server.run().expect_err("an empty pool cannot serve");
    assert!(err.to_string().contains("no shard workers"), "got: {err}");
    let snap = std::fs::read_to_string(&snap_path).expect("final snapshot must still be written");
    assert!(snap.contains("serve.worker_spawn_failures"));
}

#[test]
fn worker_pool_bounds_threads_under_connection_burst() {
    // The shard-thread count below is process-wide: serialize against the
    // sibling tests that run servers of their own.
    let _guard = counter_lock();
    let mut config = test_config();
    config.conn_workers = 2;
    let server = TestServer::start(config);

    // Far more connections than workers, all with a request in flight.
    let mut conns: Vec<Conn> = (0..32).map(|_| Conn::open(server.addr)).collect();
    for (i, c) in conns.iter_mut().enumerate() {
        c.send(&format!(
            r#"{{"cmd":"steady","id":{i},"benchmark":"qsort","rpm":{},"amps":1.0}}"#,
            2500 + 10 * i
        ));
    }
    for c in &mut conns {
        assert!(is_ok(&c.recv()), "every multiplexed connection is served");
    }

    let mut probe = Conn::open(server.addr);
    assert!((health_field(&mut probe, "workers") - 2.0).abs() < f64::EPSILON);

    // The whole point of the pool: connection count must not mint
    // threads. Count live serve-shard threads directly.
    #[cfg(target_os = "linux")]
    {
        let mut shard_threads = 0;
        for entry in std::fs::read_dir("/proc/self/task").expect("proc") {
            let comm = entry.expect("task").path().join("comm");
            if let Ok(name) = std::fs::read_to_string(comm) {
                if name.trim_end().starts_with("serve-shard") {
                    shard_threads += 1;
                }
            }
        }
        assert_eq!(
            shard_threads, 2,
            "33 connections must still be served by exactly 2 shard workers"
        );
    }
    server.stop();
}
