//! The TCP serve loop: accept, frame, admit, dispatch, drain.
//!
//! Connections are multiplexed over a **bounded pool of shard workers**:
//! the accept loop assigns each connection (round-robin) to a worker,
//! and each worker drives its connections with nonblocking reads/writes
//! and reusable per-connection buffers — thread count is fixed by
//! [`ServeConfig::conn_workers`], not by client count. Requests arrive
//! as newline-delimited JSON lines; `health`, `metrics`, and cache hits
//! are answered inline on the worker (the sub-millisecond path); solve
//! misses are admitted into the bounded deadline-aware [`JobQueue`] and
//! batched onto the executor by a single dispatcher thread, their replies
//! pumped back in request order as they resolve (responses pipeline up
//! to `MAX_INFLIGHT` per connection).
//!
//! A panicking connection is contained: the worker catches the unwind,
//! counts it in `serve.panics`, and drops only that connection — its
//! `connections` gauge entry is restored by a drop guard. Worker and
//! dispatcher panics are observed at join. Shutdown — via the `shutdown`
//! command or a [`ServerHandle`] — is graceful: the listener stops
//! accepting, the queue closes but drains, every in-flight request is
//! answered and flushed, and the final telemetry snapshot is written.

use crate::cache::{CacheConfig, QuantizedCache};
use crate::engine::{Engine, FaultPlan, SERVE_DEADLINE_EXCEEDED, SERVE_PANICS};
use crate::protocol::{self, error_cause, ErrBody, Request, SolveSpec};
use crate::queue::{Job, JobQueue, PushError};
use crate::trace::TraceContext;
use oftec_telemetry as telemetry;
use oftec_telemetry::{Counter, Field, FlightRecorder, Severity, SloMonitor, SloStatus};
use oftec_thermal::PackageConfig;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
pub static SERVE_RESPONSES_OK: Counter = Counter::new("serve.responses_ok");
pub static SERVE_RESPONSES_ERR: Counter = Counter::new("serve.responses_err");
pub static SERVE_CONNECTIONS: Counter = Counter::new("serve.connections");
pub static SERVE_PROBES: Counter = Counter::new("serve.probes");
pub static SERVE_OVERLOADED: Counter = Counter::new("serve.overloaded");
pub static SERVE_SPAWN_FAILURES: Counter = Counter::new("serve.worker_spawn_failures");

// Typed per-cause error counters: `serve.responses_err` equals their sum,
// so a bench report never contains an opaque `failed` bucket.
pub static SERVE_ERR_PARSE: Counter = Counter::new("serve.errors.parse");
pub static SERVE_ERR_OVERLOAD: Counter = Counter::new("serve.errors.overload");
pub static SERVE_ERR_DEADLINE: Counter = Counter::new("serve.errors.deadline");
pub static SERVE_ERR_SOLVER: Counter = Counter::new("serve.errors.solver");
pub static SERVE_ERR_PANIC: Counter = Counter::new("serve.errors.panic");
pub static SERVE_ERR_INTERNAL: Counter = Counter::new("serve.errors.internal");

/// Request latency histogram bounds (microseconds).
static LATENCY_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// Serving configuration. `Default` is tuned for tests and local runs;
/// the CLI maps its flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7464` (port 0 = ephemeral).
    pub addr: String,
    /// Executor threads per batch (0 = `OFTEC_THREADS`/auto).
    pub threads: usize,
    /// Result-cache quantization and eviction settings.
    pub cache: CacheConfig,
    /// Admission-queue capacity; beyond it requests get `overloaded`.
    pub queue_capacity: usize,
    /// Maximum request-line length in bytes; longer lines get
    /// `line_too_long` and are discarded to the next newline.
    pub max_line_bytes: usize,
    /// Use the coarse DAC'14 package (fast solves; tests and smoke).
    pub coarse: bool,
    /// Fault-injection plan (tests only).
    pub fault: Option<FaultPlan>,
    /// Where to write the final telemetry snapshot on shutdown.
    pub telemetry_json: Option<String>,
    /// Where to write the bound port (for scripts using port 0).
    pub port_file: Option<String>,
    /// Benchmarks whose systems (and reduced-order models) are built
    /// before the accept loop starts, so first requests skip the build.
    pub prewarm: Vec<oftec_power::Benchmark>,
    /// Where to dump the flight recorder (JSONL) when the solver-error
    /// SLO monitor breaches; `None` disables the automatic dump.
    pub flight_dump: Option<String>,
    /// Shard workers multiplexing the connections (0 = auto: up to 4,
    /// bounded by the machine's parallelism).
    pub conn_workers: usize,
    /// Test hook: an NDJSON request line equal to this token panics the
    /// connection handler, exercising panic containment in the worker.
    pub panic_token: Option<String>,
    /// Test hook: pretend the first N worker spawns failed, exercising
    /// spawn-failure resilience.
    pub fail_worker_spawns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            cache: CacheConfig::default(),
            queue_capacity: 256,
            max_line_bytes: 64 * 1024,
            coarse: false,
            fault: None,
            telemetry_json: None,
            port_file: None,
            prewarm: Vec::new(),
            flight_dump: None,
            conn_workers: 0,
            panic_token: None,
            fail_worker_spawns: 0,
        }
    }
}

/// How long a shard worker naps after a sweep that found work, so the
/// next sweep harvests a batch of arrivals instead of polling one
/// message at a time (see the note in [`worker_loop`]).
const COALESCE_NAP: Duration = Duration::from_micros(100);
/// Idle backoff of a shard worker: each empty sweep past the third naps
/// one more step, up to the cap.
const IDLE_NAP_STEP: Duration = Duration::from_micros(20);
const IDLE_NAP_CAP: Duration = Duration::from_micros(200);

/// Maximum pipelined workload requests awaiting a reply per connection;
/// beyond it the worker stops reading that connection (TCP backpressure)
/// until replies drain.
const MAX_INFLIGHT: usize = 64;

/// Flight-recorder capacities: recently completed traces, and retained
/// non-OK traces.
const FLIGHT_RECENT: usize = 256;
const FLIGHT_ERRORS: usize = 256;

/// Rolling window length of every SLO monitor, in observations.
const SLO_WINDOW: usize = 256;
/// Observations a monitor needs before it may breach.
const SLO_MIN_COUNT: usize = 8;

/// The serving SLO monitors, all observed on the shard workers as each
/// workload response is finalized — never from executor workers, so
/// breach edges do not depend on `OFTEC_THREADS`.
struct Monitors {
    /// Fraction of responses shed by admission control (`overload`).
    shed: SloMonitor,
    /// Fraction of responses failing inside the solve path
    /// (`solver`/`panic`/`internal`); its breach edge also triggers the
    /// flight-recorder dump.
    solver_errors: SloMonitor,
    /// Fraction of solves that failed reduced-order certification.
    fallbacks: SloMonitor,
    /// Mean certified residual ratio of reduced solves (drift detector).
    residual: SloMonitor,
}

impl Monitors {
    fn new() -> Self {
        Self {
            shed: SloMonitor::new(
                "serve.slo.shed_rate",
                "slo.breaches.shed_rate",
                SLO_WINDOW,
                SLO_MIN_COUNT,
                0.2,
            ),
            solver_errors: SloMonitor::new(
                "serve.slo.solver_error_rate",
                "slo.breaches.solver_error_rate",
                SLO_WINDOW,
                SLO_MIN_COUNT,
                0.5,
            ),
            fallbacks: SloMonitor::new(
                "serve.slo.fallback_rate",
                "slo.breaches.fallback_rate",
                SLO_WINDOW,
                SLO_MIN_COUNT,
                0.5,
            ),
            residual: SloMonitor::new(
                "serve.slo.residual_drift",
                "slo.breaches.residual_drift",
                SLO_WINDOW,
                SLO_MIN_COUNT,
                5e-5,
            ),
        }
    }

    fn statuses(&self) -> [SloStatus; 4] {
        [
            self.shed.status(),
            self.solver_errors.status(),
            self.fallbacks.status(),
            self.residual.status(),
        ]
    }
}

/// Cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests graceful shutdown: drain, answer in-flight, flush, exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

struct Shared {
    engine: Engine,
    cache: Arc<QuantizedCache>,
    queue: JobQueue,
    stop: Arc<AtomicBool>,
    connections: AtomicUsize,
    /// Live shard workers (for the health payload).
    workers: AtomicUsize,
    started: Instant,
    max_line_bytes: usize,
    recorder: FlightRecorder,
    monitors: Monitors,
    /// Connection numbering for deterministic trace ids (1-based,
    /// assigned in accept order).
    conn_seq: AtomicU64,
    flight_dump: Option<String>,
    panic_token: Option<String>,
}

/// A bound, not-yet-running cooling-control server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServeConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the engine (but serves nothing
    /// until [`Server::run`]).
    ///
    /// # Errors
    ///
    /// I/O errors from binding `config.addr`.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let package = if config.coarse {
            PackageConfig::dac14_coarse()
        } else {
            PackageConfig::dac14()
        };
        let threads = if config.threads == 0 {
            oftec_parallel::thread_count()
        } else {
            config.threads
        };
        let cache = Arc::new(QuantizedCache::new(config.cache.clone()));
        let shared = Arc::new(Shared {
            engine: Engine::new(package, Arc::clone(&cache), threads, config.fault),
            cache,
            queue: JobQueue::new(config.queue_capacity),
            stop: Arc::new(AtomicBool::new(false)),
            connections: AtomicUsize::new(0),
            workers: AtomicUsize::new(0),
            started: Instant::now(),
            max_line_bytes: config.max_line_bytes,
            recorder: FlightRecorder::new(FLIGHT_RECENT, FLIGHT_ERRORS),
            monitors: Monitors::new(),
            conn_seq: AtomicU64::new(0),
            flight_dump: config.flight_dump.clone(),
            panic_token: config.panic_token.clone(),
        });
        Ok(Self {
            listener,
            local_addr,
            config,
            shared,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.shared.stop),
        }
    }

    /// How many shard workers a configuration yields.
    fn worker_count(&self) -> usize {
        if self.config.conn_workers > 0 {
            return self.config.conn_workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4)
    }

    /// Serves until shutdown, then drains and returns. Blocks the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// I/O errors writing the port file, or total worker-pool spawn
    /// failure. Accept errors and individual spawn failures are
    /// contained: the server keeps serving on the workers it has.
    #[must_use = "the serve loop's exit status reports drain/flush failures"]
    pub fn run(self) -> std::io::Result<()> {
        telemetry::set_collecting(true);
        for &benchmark in &self.config.prewarm {
            self.shared.engine.prewarm(benchmark);
        }
        if let Some(path) = &self.config.port_file {
            std::fs::write(path, format!("{}\n", self.local_addr.port()))?;
        }

        // The dispatcher owns the queue's consumer side for the whole
        // server lifetime; it exits once the queue is closed and drained.
        // Each batch feeds the queue's admission EWMA with its per-job
        // service time.
        let dispatcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("serve-dispatch".into())
                .spawn(move || {
                    telemetry::set_collecting(true);
                    while let Some(batch) = shared.queue.pop_batch() {
                        let jobs = batch.len() as u64;
                        let t0 = Instant::now();
                        shared.engine.execute(batch);
                        let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        shared.queue.record_service(spent / jobs.max(1));
                        telemetry::flush();
                    }
                    telemetry::flush();
                })?
        };

        // The shard worker pool. A failed spawn loses one worker, not the
        // server; only a pool with zero workers is fatal (and even then
        // the queue is drained and the snapshot written on the way out).
        let mut senders: Vec<mpsc::Sender<NewConn>> = Vec::new();
        let mut workers = Vec::new();
        for i in 0..self.worker_count() {
            let (tx, rx) = mpsc::channel::<NewConn>();
            let shared = Arc::clone(&self.shared);
            let spawned = if i < self.config.fail_worker_spawns {
                Err(std::io::Error::other("injected worker spawn failure"))
            } else {
                std::thread::Builder::new()
                    .name(format!("serve-shard-{i}"))
                    .spawn(move || {
                        telemetry::set_collecting(true);
                        worker_loop(&shared, &rx);
                        telemetry::flush();
                    })
            };
            match spawned {
                Ok(handle) => {
                    self.shared.workers.fetch_add(1, Ordering::SeqCst);
                    senders.push(tx);
                    workers.push(handle);
                }
                Err(e) => {
                    SERVE_SPAWN_FAILURES.add(1);
                    telemetry::event(
                        Severity::Warn,
                        "serve.worker_spawn_failed",
                        &[
                            ("worker", Field::U64(i as u64)),
                            ("error", Field::Str(&e.to_string())),
                        ],
                    );
                }
            }
        }
        let pool_empty = workers.is_empty();

        let mut rr = 0usize;
        while !pool_empty && !self.shared.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // `serve.connections` is counted lazily on the first
                    // workload request, so probe-only connections never
                    // reach it; the gauge guard tracks live connections
                    // for the health payload — and restores the count
                    // even when the connection's handler panics.
                    let gauge = ConnGauge::new(Arc::clone(&self.shared));
                    let conn_id = self.shared.conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
                    let mut conn = Some((stream, conn_id, gauge));
                    // Hand the connection to the next live worker; a dead
                    // worker's channel hands it back, and we rotate on.
                    while let Some(c) = conn.take() {
                        if senders.is_empty() {
                            break; // every worker died: drop the connection
                        }
                        rr = (rr + 1) % senders.len();
                        if let Err(mpsc::SendError(c)) = senders[rr].send(c) {
                            senders.remove(rr);
                            rr = 0;
                            conn = Some(c);
                        }
                    }
                    if senders.is_empty() {
                        break; // no workers left; drain and report below
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }

        // Drain: no new admissions, but everything admitted is answered.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        let dispatcher_panicked = dispatcher.join().is_err();
        if dispatcher_panicked {
            SERVE_PANICS.add(1);
            telemetry::event(Severity::Warn, "serve.dispatcher_panicked", &[]);
        }
        drop(senders);
        for (i, w) in workers.into_iter().enumerate() {
            // Joining (instead of detaching) is what surfaces worker
            // panics; a panicking worker is counted, not silently lost.
            if w.join().is_err() {
                SERVE_PANICS.add(1);
                telemetry::event(
                    Severity::Warn,
                    "serve.worker_panicked",
                    &[("worker", Field::U64(i as u64))],
                );
            }
            self.shared.workers.fetch_sub(1, Ordering::SeqCst);
        }

        telemetry::flush();
        if let Some(path) = &self.config.telemetry_json {
            let snap = authoritative_snapshot();
            std::fs::write(path, snap.to_json())?;
        }
        if pool_empty {
            return Err(std::io::Error::other(
                "no shard workers could be spawned; served nothing",
            ));
        }
        Ok(())
    }
}

/// Global snapshot with the serve counters overwritten by their exact
/// atomic values — thread-local flush timing never understates them.
fn authoritative_snapshot() -> telemetry::Snapshot {
    let mut snap = telemetry::snapshot();
    for c in [
        &SERVE_REQUESTS,
        &SERVE_RESPONSES_OK,
        &SERVE_RESPONSES_ERR,
        &SERVE_CONNECTIONS,
        &SERVE_PROBES,
        &SERVE_OVERLOADED,
        &SERVE_SPAWN_FAILURES,
        &SERVE_ERR_PARSE,
        &SERVE_ERR_OVERLOAD,
        &SERVE_ERR_DEADLINE,
        &SERVE_ERR_SOLVER,
        &SERVE_ERR_PANIC,
        &SERVE_ERR_INTERNAL,
        &SERVE_PANICS,
        &crate::engine::SERVE_BATCHES,
        &crate::engine::SERVE_BATCH_JOBS,
        &crate::engine::SERVE_BATCH_DEDUPED,
        &crate::engine::SERVE_DEADLINE_EXCEEDED,
        &crate::queue::QUEUE_EXPIRED,
        &crate::queue::QUEUE_EVICTED,
        &crate::cache::CACHE_HITS,
        &crate::cache::CACHE_MISSES,
        &crate::cache::CACHE_EVICTIONS,
    ] {
        snap.counters.insert(c.name(), c.get());
    }
    snap
}

/// Restores the live-connection gauge when a connection ends **for any
/// reason** — clean close, I/O error, or a panic unwinding through the
/// handler (the bug the old per-connection `fetch_sub` had).
struct ConnGauge {
    shared: Arc<Shared>,
}

impl ConnGauge {
    fn new(shared: Arc<Shared>) -> Self {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        Self { shared }
    }
}

impl Drop for ConnGauge {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the accept loop hands a shard worker.
type NewConn = (TcpStream, u64, ConnGauge);

/// A response waiting to leave a connection, in request order.
enum Outgoing {
    /// Fully encoded, newline-terminated bytes.
    Ready(Vec<u8>),
    /// A queued solve whose reply has not resolved yet.
    Pending {
        rx: mpsc::Receiver<crate::queue::JobReply>,
        id: Option<u64>,
        conn: u64,
        seq: u64,
    },
}

/// One message extracted from a connection's read buffer.
enum Msg {
    Line(String),
    TooLongLine,
}

/// Per-connection state owned by exactly one shard worker.
struct ConnState {
    stream: TcpStream,
    conn_id: u64,
    _gauge: ConnGauge,
    /// Unparsed request bytes (reused across messages).
    rbuf: Vec<u8>,
    /// Encoded response bytes not yet written (reused across responses).
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written.
    wpos: usize,
    /// Responses in request order, pumped front-first.
    out: VecDeque<Outgoing>,
    /// Dropping an oversized line until its newline, where
    /// `line_too_long` is reported.
    discarding: bool,
    /// Workload request sequence (probes excluded, so the same workload
    /// script yields the same trace ids regardless of side-channel
    /// polling).
    workload_seq: u64,
    /// Whether this connection has been counted in `serve.connections`.
    counted: bool,
    /// Read side finished (EOF); flush and drop.
    eof: bool,
    /// Hard I/O error; drop immediately.
    dead: bool,
    /// A `shutdown` ack is queued: set the stop flag once it is flushed.
    stop_after_flush: bool,
}

impl ConnState {
    fn new(stream: TcpStream, conn_id: u64, gauge: ConnGauge) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            conn_id,
            _gauge: gauge,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            out: VecDeque::new(),
            discarding: false,
            workload_seq: 0,
            counted: false,
            eof: false,
            dead: false,
            stop_after_flush: false,
        })
    }

    fn flushed(&self) -> bool {
        self.out.is_empty() && self.wpos >= self.wbuf.len()
    }

    fn alive(&self) -> bool {
        !self.dead && (!self.eof || !self.flushed())
    }

    fn count_workload(&mut self) {
        SERVE_REQUESTS.add(1);
        // `serve.connections` counts connections that carried workload:
        // bumped on the first non-probe request, so a load generator's
        // health/metrics side channel never inflates it.
        if !self.counted {
            self.counted = true;
            SERVE_CONNECTIONS.add(1);
        }
    }

    /// Appends an encoded response envelope to the out queue.
    fn push_ready(&mut self, envelope: &str) {
        let mut bytes = Vec::with_capacity(envelope.len() + 1);
        append_line(&mut bytes, envelope);
        self.out.push_back(Outgoing::Ready(bytes));
    }
}

/// Appends one response envelope and its terminating newline.
fn append_line(buf: &mut Vec<u8>, envelope: &str) {
    buf.extend_from_slice(envelope.as_bytes());
    buf.push(b'\n');
}

/// Extracts the next complete line from `buf`, advancing the discard
/// state. Returns the bytes consumed and the message, if one completed.
fn extract_message(buf: &[u8], discarding: &mut bool, max: usize) -> (usize, Option<Msg>) {
    let mut used = 0;
    loop {
        let b = &buf[used..];
        let Some(pos) = b.iter().position(|&c| c == b'\n') else {
            if *discarding || b.len() > max {
                // Discard until the newline arrives, then report once.
                *discarding = true;
                return (buf.len(), None);
            }
            return (used, None);
        };
        used += pos + 1;
        // A complete line can arrive in one chunk and still be over the
        // cap; check at extraction too.
        if *discarding || pos > max {
            *discarding = false;
            return (used, Some(Msg::TooLongLine));
        }
        let text = String::from_utf8_lossy(&b[..pos]).trim().to_string();
        if !text.is_empty() {
            return (used, Some(Msg::Line(text)));
        }
        // Blank lines are keep-alive no-ops.
    }
}

/// One shard worker: drains newly assigned connections from `rx`, then
/// sweeps its connections — read, extract, handle, pump — with an
/// adaptive idle backoff. A panic inside one connection's handler is
/// caught here: counted, logged, and that connection alone is dropped.
fn worker_loop(shared: &Arc<Shared>, rx: &mpsc::Receiver<NewConn>) {
    let mut conns: Vec<ConnState> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut idle: u32 = 0;
    let mut drain_started: Option<Instant> = None;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        while let Ok((stream, conn_id, gauge)) = rx.try_recv() {
            if stopping {
                continue; // dropped: gauge guard restores the count
            }
            match ConnState::new(stream, conn_id, gauge) {
                Ok(c) => conns.push(c),
                Err(_) => continue,
            }
        }
        let mut active = false;
        let mut handled = 0usize;
        conns.retain_mut(|conn| {
            match catch_unwind(AssertUnwindSafe(|| {
                step_conn(shared, conn, &mut chunk, stopping)
            })) {
                Ok((step_active, step_msgs)) => {
                    active |= step_active;
                    handled += step_msgs;
                    conn.alive()
                }
                Err(_) => {
                    // Satellite fix: the panic is observed and the gauge
                    // guard inside ConnState restores `connections`.
                    SERVE_PANICS.add(1);
                    telemetry::event(
                        Severity::Warn,
                        "serve.connection_panicked",
                        &[("conn", Field::U64(conn.conn_id))],
                    );
                    active = true;
                    false
                }
            }
        });
        if active {
            telemetry::flush();
            idle = 0;
            // Coalesce arrivals when the shard is actually hot. Once a
            // sweep batches two or more messages the arrival rate has
            // outrun the sweep cost, and re-sweeping immediately burns
            // the core on empty nonblocking reads (32 conns ≈ 30 wasted
            // syscalls per message). A short nap lets several arrivals
            // accumulate per sweep; the added latency is bounded by the
            // nap and is far below the tail cost of a saturated core. A
            // sweep that found at most one message skips the nap so a
            // lone low-rate client keeps the sub-millisecond path.
            if !stopping && handled >= 2 {
                std::thread::sleep(COALESCE_NAP);
            }
        }
        if stopping {
            // Keep pumping until every admitted reply is flushed, with a
            // hard cap so a wedged peer cannot hold shutdown hostage.
            let t0 = *drain_started.get_or_insert_with(Instant::now);
            if conns.iter().all(ConnState::flushed) || t0.elapsed() > Duration::from_secs(5) {
                return;
            }
        }
        if !active {
            idle = idle.saturating_add(1);
            if idle <= 3 {
                std::thread::yield_now();
            } else {
                // Escalating nap, capped: long enough to cede the core to
                // clients on a shared box, short enough to stay off the
                // tail latency.
                std::thread::sleep((IDLE_NAP_STEP * idle).min(IDLE_NAP_CAP));
            }
        }
    }
}

/// One sweep of one connection: read once, extract and handle every
/// complete message, pump resolved replies out. Returns whether anything
/// happened (for the worker's idle backoff) and how many messages were
/// handled (for the worker's coalescing decision).
fn step_conn(
    shared: &Arc<Shared>,
    conn: &mut ConnState,
    chunk: &mut [u8],
    stopping: bool,
) -> (bool, usize) {
    let mut active = false;
    let mut handled = 0usize;
    // Read: skipped once stopping (drain only), at EOF, or while the
    // pipeline cap is reached (TCP backpressure until replies drain).
    if !stopping && !conn.eof && !conn.dead && conn.out.len() < MAX_INFLIGHT {
        match conn.stream.read(chunk) {
            Ok(0) => conn.eof = true,
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                active = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => conn.dead = true,
        }
    }
    // Extract and handle every complete message buffered so far.
    let mut consumed = 0;
    while conn.out.len() < MAX_INFLIGHT {
        let (n, msg) = extract_message(
            &conn.rbuf[consumed..],
            &mut conn.discarding,
            shared.max_line_bytes,
        );
        consumed += n;
        match msg {
            None => break,
            Some(m) => {
                active = true;
                handled += 1;
                handle_message(shared, conn, m);
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    // Pump: encode every resolved reply at the queue front, then write.
    active |= pump_out(shared, conn);
    if conn.stop_after_flush && conn.flushed() {
        conn.stop_after_flush = false;
        shared.stop.store(true, Ordering::SeqCst);
    }
    (active, handled)
}

/// Moves resolved front-of-queue replies into the write buffer and
/// writes as much as the socket accepts. Returns whether bytes moved.
fn pump_out(shared: &Arc<Shared>, conn: &mut ConnState) -> bool {
    let mut active = false;
    loop {
        match conn.out.front() {
            None => break,
            Some(Outgoing::Ready(_)) => {
                if let Some(Outgoing::Ready(bytes)) = conn.out.pop_front() {
                    conn.wbuf.extend_from_slice(&bytes);
                    active = true;
                }
            }
            Some(Outgoing::Pending { rx, .. }) => match rx.try_recv() {
                Err(mpsc::TryRecvError::Empty) => break,
                Ok((result, trace)) => {
                    if let Some(Outgoing::Pending { id, .. }) = conn.out.pop_front() {
                        finish_workload(shared, &trace);
                        let envelope = match result {
                            Ok(payload) => protocol::ok_line_traced(
                                id,
                                false,
                                &trace.envelope_json(false),
                                &payload,
                            ),
                            Err(err) => {
                                protocol::err_line_traced(id, &trace.envelope_json(false), &err)
                            }
                        };
                        append_line(&mut conn.wbuf, &envelope);
                        active = true;
                    }
                }
                Err(mpsc::TryRecvError::Disconnected) => {
                    if let Some(Outgoing::Pending {
                        id, conn: c, seq, ..
                    }) = conn.out.pop_front()
                    {
                        // Dispatcher dropped the sender without a reply —
                        // only possible on hard teardown. The trace went
                        // down with the job; rebuild its identity so the
                        // record still lands in the flight recorder under
                        // the right id.
                        let mut trace = TraceContext::new(c, seq);
                        trace.set_outcome("internal");
                        finish_workload(shared, &trace);
                        let err = ErrBody::new("internal", "solve pipeline dropped the request");
                        let envelope =
                            protocol::err_line_traced(id, &trace.envelope_json(false), &err);
                        append_line(&mut conn.wbuf, &envelope);
                        active = true;
                    }
                }
            },
        }
    }
    while conn.wpos < conn.wbuf.len() && !conn.dead {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
            }
            Ok(n) => {
                conn.wpos += n;
                active = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
    }
    if conn.wpos >= conn.wbuf.len() && !conn.wbuf.is_empty() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    active
}

/// Handles one extracted message, appending its response(s) to the
/// connection's out queue.
fn handle_message(shared: &Arc<Shared>, conn: &mut ConnState, msg: Msg) {
    match msg {
        Msg::TooLongLine => {
            let err = ErrBody::new(
                "line_too_long",
                format!("request line exceeds {} bytes", shared.max_line_bytes),
            );
            conn.workload_seq += 1;
            conn.count_workload();
            let mut trace = TraceContext::new(conn.conn_id, conn.workload_seq);
            trace.stage("parse");
            trace.set_outcome(error_cause(err.kind));
            finish_workload(shared, &trace);
            let envelope = protocol::err_line_traced(None, &trace.envelope_json(false), &err);
            conn.push_ready(&envelope);
        }
        #[expect(
            clippy::panic,
            reason = "test hook: deliberate panic to exercise worker containment and the gauge drop guard"
        )]
        Msg::Line(text) => {
            if shared.panic_token.as_deref() == Some(text.as_str()) {
                panic!("panic token received on connection {}", conn.conn_id);
            }
            let parsed = protocol::parse_line(&text);
            dispatch_parsed(shared, conn, parsed);
        }
    }
}

/// Routes a parsed (or unparsable) request, mirroring the old
/// per-connection loop: probes are answered inline and counted under
/// `serve.probes` only; workload requests consume a sequence number and
/// flow through the trace/counter machinery.
type Parsed = Result<(Option<u64>, Request), (Option<u64>, ErrBody)>;

fn dispatch_parsed(shared: &Arc<Shared>, conn: &mut ConnState, parsed: Parsed) {
    // The context opens before the parse result is inspected so the
    // `parse` stage covers it; probes discard the context without
    // consuming a sequence number.
    let mut trace = TraceContext::new(conn.conn_id, conn.workload_seq + 1);
    trace.stage("parse");
    // Probes (`health`/`metrics`/`trace`/`slo`/`shutdown`) are
    // control-plane traffic: counted under `serve.probes` only, and kept
    // out of the response counters and latency histograms so the
    // workload numbers stay exact.
    let is_probe = matches!(
        &parsed,
        Ok((
            _,
            Request::Health
                | Request::Metrics
                | Request::Trace { .. }
                | Request::Slo
                | Request::Shutdown
        ))
    );
    let is_shutdown = matches!(&parsed, Ok((_, Request::Shutdown)));
    match parsed {
        Ok((id, request)) if is_probe => {
            SERVE_PROBES.add(1);
            let envelope = handle_probe(shared, id, &request);
            conn.push_ready(&envelope);
            if is_shutdown {
                // The ack must reach the requester before the drain
                // starts; the stop flag is set once it is flushed.
                conn.stop_after_flush = true;
            }
        }
        Ok((id, request)) => {
            conn.workload_seq += 1;
            conn.count_workload();
            match request {
                Request::Optimize { spec } | Request::Steady { spec } | Request::Sweep { spec } => {
                    handle_solve(shared, conn, id, spec, trace);
                }
                // Probe variants are filtered by `is_probe` above.
                _ => {
                    trace.set_outcome("internal");
                    finish_workload(shared, &trace);
                    let err = ErrBody::new("internal", "probe routed to workload path");
                    let envelope = protocol::err_line_traced(id, &trace.envelope_json(false), &err);
                    conn.push_ready(&envelope);
                }
            }
        }
        Err((id, err)) => {
            conn.workload_seq += 1;
            conn.count_workload();
            trace.set_outcome(error_cause(err.kind));
            finish_workload(shared, &trace);
            let envelope = protocol::err_line_traced(id, &trace.envelope_json(false), &err);
            conn.push_ready(&envelope);
        }
    }
}

/// Answers a control-plane request inline. Probes touch neither the
/// response counters nor the latency histograms — `serve.responses_ok`
/// stays an exact workload count.
fn handle_probe(shared: &Shared, id: Option<u64>, request: &Request) -> String {
    match request {
        Request::Health => {
            let up = shared.started.elapsed().as_millis();
            let payload = format!(
                "{{\"status\":\"ok\",\"uptime_ms\":{},\"queue_depth\":{},\"connections\":{},\"workers\":{},\"cache_entries\":{}}}",
                up,
                shared.queue.depth(),
                shared.connections.load(Ordering::SeqCst),
                shared.workers.load(Ordering::SeqCst),
                shared.cache.len()
            );
            protocol::ok_line(id, false, &payload)
        }
        Request::Metrics => {
            telemetry::flush();
            protocol::ok_line(id, false, &authoritative_snapshot().to_json())
        }
        Request::Trace { limit, redact } => {
            let entries = shared.recorder.snapshot();
            let start = entries.len().saturating_sub(*limit);
            let items: Vec<String> = entries[start..]
                .iter()
                .map(|r| crate::trace::record_json(r, *redact))
                .collect();
            let payload = format!(
                "{{\"recorded\":{},\"entries\":[{}]}}",
                shared.recorder.recorded(),
                items.join(",")
            );
            protocol::ok_line(id, false, &payload)
        }
        Request::Slo => {
            let items: Vec<String> = shared
                .monitors
                .statuses()
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\":\"{}\",\"threshold\":{},\"window\":{},\"min_count\":{},\"count\":{},\"mean\":{},\"breached\":{},\"breaches\":{}}}",
                        s.name,
                        s.threshold,
                        s.window,
                        s.min_count,
                        s.count,
                        s.mean,
                        s.breached,
                        s.breaches
                    )
                })
                .collect();
            protocol::ok_line(
                id,
                false,
                &format!("{{\"monitors\":[{}]}}", items.join(",")),
            )
        }
        Request::Shutdown => protocol::ok_line(id, false, "{\"status\":\"draining\"}"),
        // Solve requests never reach this function (see `is_probe`).
        _ => protocol::err_line(
            id,
            &ErrBody::new("internal", "workload routed to probe path"),
        ),
    }
}

/// Admits a solve request. A cache hit (or typed rejection) is answered
/// immediately; an admitted job parks as a [`Outgoing::Pending`] entry
/// that [`pump_out`] resolves when the dispatcher replies.
fn handle_solve(
    shared: &Arc<Shared>,
    conn: &mut ConnState,
    id: Option<u64>,
    spec: SolveSpec,
    mut trace: TraceContext,
) {
    // Fast path: answer cache hits on the worker. A miss still stamps
    // the `cache` stage — the lookup is part of the request's latency
    // story either way.
    if !spec.no_cache {
        let key = shared.cache.key_for(&spec);
        if let Some(payload) = shared.cache.get(&key) {
            trace.stage("cache");
            trace.set_outcome("cache_hit");
            finish_workload(shared, &trace);
            let envelope =
                protocol::ok_line_traced(id, true, &trace.envelope_json(false), &payload);
            conn.push_ready(&envelope);
            return;
        }
        trace.stage("cache");
    }
    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (conn_no, seq) = (trace.conn(), trace.seq());
    let (tx, rx) = mpsc::channel();
    let job = Job {
        spec,
        deadline,
        enqueued: Instant::now(),
        trace,
        reply: tx,
    };
    match shared.queue.try_push(job) {
        Err((PushError::WouldMiss, mut job)) => {
            // Deadline-aware admission: the queue predicts this job
            // cannot finish in time, so it is shed as a deadline error —
            // not as overload — without occupying a slot.
            SERVE_DEADLINE_EXCEEDED.add(1);
            job.trace.stage("queue");
            job.trace.set_outcome("deadline");
            finish_workload(shared, &job.trace);
            let err = ErrBody::new(
                "deadline_exceeded",
                "deadline cannot be met; shed at admission",
            );
            let envelope = protocol::err_line_traced(id, &job.trace.envelope_json(false), &err);
            conn.push_ready(&envelope);
        }
        Err((PushError::Full, mut job)) => {
            SERVE_OVERLOADED.add(1);
            job.trace.set_outcome("overload");
            finish_workload(shared, &job.trace);
            let err = ErrBody::new("overloaded", "request queue is full; retry later");
            let envelope = protocol::err_line_traced(id, &job.trace.envelope_json(false), &err);
            conn.push_ready(&envelope);
        }
        Err((PushError::Closed, mut job)) => {
            job.trace.set_outcome("overload");
            finish_workload(shared, &job.trace);
            let err = ErrBody::new("shutting_down", "server is draining");
            let envelope = protocol::err_line_traced(id, &job.trace.envelope_json(false), &err);
            conn.push_ready(&envelope);
        }
        Ok(()) => {
            conn.out.push_back(Outgoing::Pending {
                rx,
                id,
                conn: conn_no,
                seq,
            });
        }
    }
}

/// Finalizes one workload response: response + typed-cause counters,
/// latency and per-stage histograms, SLO observations, and the flight-
/// recorder entry. Runs on the shard worker for every workload request
/// exactly once.
fn finish_workload(shared: &Shared, trace: &TraceContext) {
    let outcome = trace.outcome();
    if trace.is_err() {
        SERVE_RESPONSES_ERR.add(1);
        match outcome {
            "parse" => SERVE_ERR_PARSE.add(1),
            "overload" => SERVE_ERR_OVERLOAD.add(1),
            "deadline" => SERVE_ERR_DEADLINE.add(1),
            "panic" => SERVE_ERR_PANIC.add(1),
            "internal" => SERVE_ERR_INTERNAL.add(1),
            _ => SERVE_ERR_SOLVER.add(1),
        }
    } else {
        SERVE_RESPONSES_OK.add(1);
    }
    telemetry::histogram_record("serve.latency_us", LATENCY_BOUNDS, trace.total_us());
    for (stage, hist) in [
        ("parse", "serve.stage.parse_us"),
        ("queue", "serve.stage.queue_us"),
        ("batch", "serve.stage.batch_us"),
        ("cache", "serve.stage.cache_us"),
        ("solve", "serve.stage.solve_us"),
    ] {
        if let Some(us) = trace.stage_micros(stage) {
            telemetry::histogram_record(hist, LATENCY_BOUNDS, us);
        }
    }
    let failed = matches!(outcome, "solver" | "panic" | "internal");
    shared
        .monitors
        .shed
        .observe(f64::from(outcome == "overload"));
    let spike = shared.monitors.solver_errors.observe(f64::from(failed));
    shared
        .monitors
        .fallbacks
        .observe(f64::from(outcome == "fallback"));
    if let Some(r) = trace.residual() {
        shared.monitors.residual.observe(r);
    }
    shared.recorder.record(&trace.to_record());
    // Error-rate spike: dump the flight recorder so the burst stays
    // diagnosable even if the process dies before anyone asks `trace`.
    if spike {
        if let Some(path) = &shared.flight_dump {
            let mut out = String::new();
            for rec in shared.recorder.snapshot() {
                out.push_str(&crate::trace::record_json(&rec, false));
                out.push('\n');
            }
            let _ = std::fs::write(path, out);
        }
    }
}
