//! Shared harness for the serve integration tests: boot a real server on
//! an ephemeral loopback port, speak the line protocol over TCP, and
//! pull fields back out of response envelopes.

#![allow(
    dead_code,
    reason = "each test binary compiles this module independently and uses a different subset of the helpers"
)]

use oftec_serve::{CacheConfig, ServeConfig, Server, ServerHandle};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

/// A fast-solving test configuration: coarse package, ephemeral port.
pub fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        coarse: true,
        threads: 2,
        cache: CacheConfig::default(),
        ..ServeConfig::default()
    }
}

pub struct TestServer {
    pub addr: SocketAddr,
    pub handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    pub fn start(config: ServeConfig) -> Self {
        let server = Server::bind(config).expect("bind test server");
        let addr = server.local_addr();
        let handle = server.handle();
        #[expect(
            clippy::disallowed_methods,
            reason = "the server under test runs beside its test clients"
        )]
        let thread = std::thread::spawn(move || server.run());
        Self {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    /// Graceful shutdown; panics if the serve loop errored.
    pub fn stop(mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("server run");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    pub fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write newline");
    }

    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Round trip: send one request line, read one response line.
    pub fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Raw byte write without framing (for fragmentation tests).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("raw write");
        self.writer.flush().expect("raw flush");
    }

    /// Blocks until the server closes this connection (EOF or reset);
    /// panics if a response arrives instead.
    pub fn expect_closed(&mut self) {
        use std::io::Read;
        let mut byte = [0u8; 1];
        match self.reader.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("expected the server to close the connection"),
        }
    }
}

/// Parses a response line and returns the envelope map.
pub fn envelope(line: &str) -> Vec<(String, Value)> {
    let v: Value = serde_json::from_str(line)
        .unwrap_or_else(|e| panic!("unparseable response `{line}`: {e:?}"));
    v.as_map().expect("response must be an object").to_vec()
}

pub fn field(map: &[(String, Value)], key: &str) -> Value {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or(Value::Null)
}

pub fn is_ok(line: &str) -> bool {
    field(&envelope(line), "ok").as_bool() == Some(true)
}

pub fn error_kind(line: &str) -> String {
    let env = envelope(line);
    let err = field(&env, "error");
    let map = err.as_map().expect("error body");
    field(map, "kind").as_str().expect("error kind").to_string()
}

/// The `cached` envelope flag.
pub fn cached_flag(line: &str) -> bool {
    field(&envelope(line), "cached").as_bool() == Some(true)
}

/// The serialized `result` payload exactly as sent on the wire (substring
/// between `"result":` and the closing envelope brace).
pub fn result_json(line: &str) -> String {
    let marker = "\"result\":";
    let start = line.find(marker).expect("result field") + marker.len();
    let end = line.len() - 1; // envelope's closing '}'
    line[start..end].to_string()
}

/// Serializes tests that assert on global telemetry counters: the
/// counters are process-wide statics, so concurrent tests would see each
/// other's increments. Assert *deltas* against a baseline while holding
/// this guard.
pub fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counter value from a `metrics` response (0 when absent).
pub fn counter(metrics_line: &str, name: &str) -> u64 {
    let env = envelope(metrics_line);
    let result = field(&env, "result");
    let counters = field(result.as_map().expect("metrics result"), "counters");
    field(counters.as_map().expect("counters map"), name)
        .as_f64()
        .map(|v| v as u64)
        .unwrap_or(0)
}
