//! `serve`: an in-process `oftec_serve::Server` (one shard worker, one
//! executor thread, full DAC'14 package, qsort prewarmed) driven open
//! loop by one client thread over two connections.
//!
//! Requests are steady solves: a hot-key share (cache hits) mixed with
//! cold keys drawn from a space far larger than the cache (misses,
//! inserts, evictions). Each rung sends at a fixed rate; a request's
//! latency runs from its scheduled send time to its reply, so a stall
//! also charges the requests queued behind it. Capacity
//! (`max_rps_at_slo`) comes from climbing the rate ladder until a rung
//! misses the SLO; latency from chunks at [`LATENCY_RPS`] driven between
//! the climb's rungs.

use crate::report::{median, metric, quantile, ratio, Metric, Outcome};
use crate::{e2e_metrics, overhead_metrics, poll, trace, Cfg, E2e, THREADS};
use oftec::CoolingSystem;
use oftec_fleet::rng::SplitMix64;
use oftec_power::Benchmark;
use oftec_serve::protocol::{self, Request};
use oftec_serve::{CacheConfig, QuantizedCache, ServeConfig, Server, ServerHandle};
use oftec_thermal::{CoolingModel, OperatingPoint, PackageConfig};
use oftec_units::{AngularVelocity, Current};
use serde::Serialize;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

/// Rate of the latency chunks: p50 and p99 are read here, at the middle
/// of the ladder, well below capacity.
pub const LATENCY_RPS: f64 = 8000.0;
/// The ladder: rung `k` offers `1000 × 2^(k/16)` requests per second, so
/// neighbouring rungs are 4.4% apart. The capacity climb doubles the rate
/// from rung 0 until a rung misses the SLO, then bisects between the last
/// rung that met it and that one.
const RUNGS_PER_DOUBLING: usize = 16;
/// Rung 112 (128k rps) is far above what one client thread drives; a
/// climb that passes it stops there (generator-limited).
const TOP_RUNG: usize = 7 * RUNGS_PER_DOUBLING;
/// The SLO's p99 limit (see [`Rung::passes`]).
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Seconds of one climb rung, as a share of the run's seconds.
const CLIMB_RUNG_SHARE: f64 = 0.025;
/// Capacity climbs per run; the capacity is the best of them, since a
/// slow stretch of the host only ever lowers it.
const CLIMBS: usize = 2;
/// After every climb rung a latency chunk at [`LATENCY_RPS`] runs for
/// this share of a rung's seconds, so the latency samples are spread over
/// the whole run and a slow stretch of the host touches only some.
const LATENCY_CHUNK_SHARE: f64 = 0.5;
/// Traced run: share of the run's seconds for each of its untraced and
/// traced latency rungs.
const TRACED_SHARE: f64 = 0.35;
/// Each rung is cut into segments of this many seconds; its p50 and p99
/// are the medians of the segments' values, so a burst of host stalls
/// (which lands in a few segments) does not decide a rung.
const SEGMENT_SECONDS: f64 = 0.1;
/// The latency chunks' p50 is the lower quartile of their 100 ms
/// segments' p50s, so a slow stretch of the host in part of the run does
/// not move it.
const P50_SEGMENT_QUANTILE: f64 = 0.25;
/// The latency chunks' p99 is the 10th percentile of the p99s of windows
/// this many seconds long (200 requests at [`LATENCY_RPS`]). The host
/// stalls a virtual CPU for 2–10 ms often enough to land in most 100 ms
/// segments and in up to three quarters of 25 ms windows, at a rate that
/// changes from minute to minute, so a median over segments, or a p99
/// over every request, reads how busy the host is. The quietest windows
/// hold no stall; their p99 is the server's own tail, which a slower path
/// for even 1% of requests raises in every window. The report keeps the
/// stall-bound figures beside it.
const P99_WINDOW_SECONDS: f64 = 0.025;
const P99_WINDOW_QUANTILE: f64 = 0.1;
/// How long a rung waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(5);

fn ladder_rps(k: usize) -> f64 {
    (1000.0 * (k as f64 / RUNGS_PER_DOUBLING as f64).exp2()).round()
}

const BENCHMARK: Benchmark = Benchmark::Quicksort;
const CONNECTIONS: usize = 2;
const HOT_KEYS: u64 = 8;
const HOT_SHARE: f64 = 0.5;
const SETUP_REPEATS: usize = 7;
/// OK replies compared against `oftec_serve::reference_payload`.
const SAMPLE_CHECKS: usize = 8;
/// The `trace` object encode is timed with (shape of a real envelope).
const TRACE_JSON: &str = r#"{"id":"00000000000000aa","outcome":"reduced","deduped":false,"stages":{"parse_us":2,"cache_us":0,"queue_us":60,"batch_us":40,"solve_us":27},"total_us":140}"#;

/// A running server with its connected clients.
struct Running {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
    conns: Vec<TcpStream>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        drop(self.conns);
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Binds, prewarms and connects; returns the server and the time taken.
fn start(port_file: &Path) -> Result<(Running, f64), String> {
    let _ = std::fs::remove_file(port_file);
    let t0 = crate::now();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: THREADS,
        conn_workers: 1,
        prewarm: vec![BENCHMARK],
        port_file: Some(port_file.display().to_string()),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .map_err(|e| format!("spawn server thread: {e}"))?;
    // The port file appears once prewarm is done.
    while !port_file.exists() {
        if join.is_finished() || t0.elapsed() > Duration::from_secs(60) {
            handle.shutdown();
            let _ = join.join();
            return Err("server did not come up".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let health = TcpStream::connect(addr).and_then(|mut s| {
            s.set_nodelay(true)?;
            s.write_all(b"{\"cmd\":\"health\"}\n")?;
            let mut byte = [0u8; 1];
            loop {
                s.read_exact(&mut byte)?;
                if byte[0] == b'\n' {
                    break;
                }
            }
            s.set_nonblocking(true)?;
            Ok(s)
        });
        match health {
            Ok(s) => conns.push(s),
            Err(e) => {
                let _ = Running {
                    handle,
                    join,
                    conns,
                }
                .stop();
                return Err(format!("connect: {e}"));
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Running {
            handle,
            join,
            conns,
        },
        secs,
    ))
}

/// Deterministic request stream: `(line, rpm, amps)` per request.
struct Generator {
    rng: SplitMix64,
    next_id: u64,
}

impl Generator {
    fn next(&mut self) -> (String, f64, f64) {
        let (rpm, amps) = if self.rng.next_f64() < HOT_SHARE {
            let k = self.rng.below(HOT_KEYS) as f64;
            (2200.0 + 300.0 * k, 0.6 + 0.2 * (k / 2.0).floor())
        } else {
            (
                (10.0 * self.rng.range_f64(1800.0, 4600.0)).round() / 10.0,
                (100.0 * self.rng.range_f64(0.0, 3.0)).round() / 100.0,
            )
        };
        let id = self.next_id;
        self.next_id += 1;
        let line = format!(
            "{{\"id\":{id},\"cmd\":\"steady\",\"benchmark\":\"{}\",\"rpm\":{rpm},\"amps\":{amps}}}\n",
            BENCHMARK.name()
        );
        (line, rpm, amps)
    }
}

/// One request's fate.
#[derive(Clone, Default)]
struct Sent {
    sched_s: f64,
    rpm: f64,
    amps: f64,
    replies: u32,
    ok: bool,
    cached: bool,
    latency_ms: f64,
    server_total_us: f64,
    payload: Option<String>,
}

/// Everything one rung measured.
struct Rung {
    rps: f64,
    seconds: f64,
    sent: Vec<Sent>,
    lines: Vec<String>,
    lag_us: Vec<f64>,
    /// Requests still unanswered when the last one was sent.
    backlog: usize,
    achieved_rps: f64,
    duplicates: u64,
    strays: u64,
}

impl Rung {
    fn ok(&self) -> u64 {
        self.sent.iter().filter(|s| s.ok).count() as u64
    }
    fn missing(&self) -> u64 {
        self.sent.iter().filter(|s| s.replies == 0).count() as u64
    }
    fn failed(&self) -> u64 {
        self.sent.len() as u64 - self.ok()
    }
    /// Latencies, with failed and missing requests as +inf (they miss
    /// any limit).
    fn latencies(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        self.sent[range]
            .iter()
            .map(|s| if s.ok { s.latency_ms } else { f64::INFINITY })
            .collect()
    }
    fn p99(&self) -> f64 {
        quantile(&mut self.latencies(0..self.sent.len()), 0.99)
    }
    /// `(p50, p99)` of each slice of `slice_seconds`.
    fn segments(&self, slice_seconds: f64) -> Vec<(f64, f64)> {
        let n = self.sent.len();
        let segments = ((self.seconds / slice_seconds).round() as usize).clamp(1, n.max(1));
        (0..segments)
            .map(|i| self.latencies(n * i / segments..n * (i + 1) / segments))
            .filter(|l| !l.is_empty())
            .map(|mut l| (median(&mut l), quantile(&mut l, 0.99)))
            .collect()
    }
    /// `(p50, p99)` as medians over the segments.
    fn segmented(&self) -> (f64, f64) {
        segment_quantiles(std::slice::from_ref(self), SEGMENT_SECONDS, 0.5)
    }
    /// The SLO: every request answered OK, p99 within the limit, and no
    /// backlog beyond what the limit allows when sending stops.
    fn passes(&self) -> bool {
        self.failed() == 0
            && self.segmented().1 <= LATENCY_LIMIT_MS
            && self.backlog as f64 <= 1.0 + self.rps * LATENCY_LIMIT_MS / 1e3
    }
    fn report(&self) -> RungReport {
        let mut lag = self.lag_us.clone();
        let (p50_ms, p99_ms) = self.segmented();
        let mut all = self.latencies(0..self.sent.len());
        RungReport {
            offered_rps: self.rps,
            achieved_rps: self.achieved_rps,
            seconds: self.seconds,
            sent: self.sent.len() as u64,
            ok: self.ok(),
            failed: self.failed(),
            missing: self.missing(),
            p50_ms: finite_or_null(p50_ms),
            p99_ms: finite_or_null(p99_ms),
            whole_rung_p50_ms: finite_or_null(median(&mut all)),
            whole_rung_p99_ms: finite_or_null(self.p99()),
            lag_us: Lag::of(&mut lag),
            backlog: self.backlog as u64,
            passes: self.passes(),
        }
    }
}

/// `(p50, p99)` as the `q` quantiles over the `slice_seconds` segments
/// of all `rungs`.
fn segment_quantiles(rungs: &[Rung], slice_seconds: f64, q: f64) -> (f64, f64) {
    let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) =
        rungs.iter().flat_map(|r| r.segments(slice_seconds)).unzip();
    (quantile(&mut p50s, q), quantile(&mut p99s, q))
}

/// A latency that may be infinite (a failed request) as JSON.
fn finite_or_null(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// How late the generator sent, in µs after the scheduled time.
#[derive(Serialize)]
struct Lag {
    p50: f64,
    p99: f64,
    max: f64,
}

impl Lag {
    fn of(lag: &mut [f64]) -> Self {
        Self {
            p50: median(lag),
            p99: quantile(lag, 0.99),
            max: quantile(lag, 1.0),
        }
    }
}

/// One rung as the report records it.
#[derive(Serialize)]
struct RungReport {
    offered_rps: f64,
    achieved_rps: f64,
    seconds: f64,
    sent: u64,
    ok: u64,
    failed: u64,
    missing: u64,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    whole_rung_p50_ms: Option<f64>,
    whole_rung_p99_ms: Option<f64>,
    lag_us: Lag,
    backlog: u64,
    passes: bool,
}

/// Parses the unsigned integer after `key` in `line`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sends `rps` requests per second for `seconds`, open loop.
fn drive(
    conns: &mut [TcpStream],
    gen: &mut Generator,
    rps: f64,
    seconds: f64,
    traced: bool,
) -> Result<Rung, String> {
    let n = (rps * seconds).round().max(1.0) as usize;
    let period = 1.0 / rps;
    let first_id = gen.next_id;
    let mut sent: Vec<Sent> = Vec::with_capacity(n);
    let mut lines = Vec::with_capacity(n);
    let mut lag_us = Vec::with_capacity(n);
    let mut wbuf: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut rbuf: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut received, mut duplicates, mut strays) = (0usize, 0u64, 0u64);
    let mut last_reply = 0.0f64;
    let mut backlog = None;
    let t0 = crate::now();
    loop {
        let now = crate::now();
        let el = now.saturating_duration_since(t0).as_secs_f64();
        let mut busy = false;
        while sent.len() < n && sent.len() as f64 * period <= el {
            let k = sent.len();
            let (line, rpm, amps) = gen.next();
            wbuf[k % conns.len()].extend_from_slice(line.as_bytes());
            lag_us.push((el - k as f64 * period) * 1e6);
            sent.push(Sent {
                sched_s: k as f64 * period,
                rpm,
                amps,
                ..Sent::default()
            });
            lines.push(line);
            busy = true;
            if sent.len() == n {
                backlog = Some(n - received);
            }
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            while !wbuf[c].is_empty() {
                match conn.write(&wbuf[c]) {
                    Ok(0) => return Err("connection closed while writing".into()),
                    Ok(w) => {
                        wbuf[c].drain(..w);
                        busy = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            loop {
                match conn.read(&mut chunk) {
                    Ok(0) => return Err("server closed a connection".into()),
                    Ok(r) => {
                        let at = crate::now().saturating_duration_since(t0).as_secs_f64();
                        busy = true;
                        rbuf[c].extend_from_slice(&chunk[..r]);
                        while let Some(pos) = rbuf[c].iter().position(|&b| b == b'\n') {
                            let raw: Vec<u8> = rbuf[c].drain(..=pos).collect();
                            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]);
                            let Some(idx) = field_u64(&line, "\"id\":")
                                .and_then(|id| id.checked_sub(first_id))
                                .map(|i| i as usize)
                                .filter(|&i| i < sent.len())
                            else {
                                strays += 1;
                                continue;
                            };
                            let slot = &mut sent[idx];
                            slot.replies += 1;
                            if slot.replies > 1 {
                                duplicates += 1;
                                continue;
                            }
                            received += 1;
                            last_reply = at;
                            slot.ok = line.contains("\"ok\":true");
                            slot.cached = line.contains("\"cached\":true");
                            slot.latency_ms = (at - slot.sched_s) * 1e3;
                            slot.server_total_us =
                                field_u64(&line, "\"total_us\":").unwrap_or(0) as f64;
                            if slot.ok {
                                slot.payload = line
                                    .find("\"result\":")
                                    .map(|p| line[p + 9..line.len() - 1].to_owned());
                            }
                            if traced {
                                let start = t0 + Duration::from_secs_f64(slot.sched_s);
                                let end = t0 + Duration::from_secs_f64(at);
                                trace::record("serve.request", start, end, first_id + idx as u64);
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
        }
        if sent.len() == n && received == n {
            break;
        }
        let deadline = seconds + DRAIN.as_secs_f64();
        if sent.len() == n && el > deadline {
            break;
        }
        if !busy {
            // Sleep until the next send is due or a socket is ready, so
            // the server's threads get the CPU in between.
            let until = if sent.len() < n {
                sent.len() as f64 * period
            } else {
                deadline
            };
            let wait = Duration::from_secs_f64((until - el).max(0.0));
            let want_write: Vec<bool> = wbuf.iter().map(|b| !b.is_empty()).collect();
            poll::wait(conns, &want_write, wait).map_err(|e| format!("poll: {e}"))?;
        }
    }
    Ok(Rung {
        rps,
        seconds,
        achieved_rps: ratio(received as f64, last_reply),
        sent,
        lines,
        lag_us,
        backlog: backlog.unwrap_or(n),
        duplicates,
        strays,
    })
}

/// Reply accounting and a sample of OK payloads against a direct solve.
fn verify(rungs: &[&Rung], seed: u64, out: &mut Outcome) {
    let cfg = CacheConfig::default();
    let package = PackageConfig::dac14();
    let mut rng = SplitMix64::new(seed ^ 0x5e4e);
    for r in rungs {
        out.check(
            r.missing() == 0 && r.duplicates == 0 && r.strays == 0,
            || {
                format!(
                    "{} rps: {} requests without a reply, {} duplicate and {} unknown replies",
                    r.rps,
                    r.missing(),
                    r.duplicates,
                    r.strays
                )
            },
        );
    }
    let ok: Vec<&Sent> = rungs
        .iter()
        .flat_map(|r| r.sent.iter())
        .filter(|s| s.ok)
        .collect();
    for _ in 0..SAMPLE_CHECKS.min(ok.len()) {
        let s = ok[rng.below(ok.len() as u64) as usize];
        let mut spec = oftec_serve::SolveSpec {
            kind: oftec_serve::SolveKind::Steady,
            benchmark: BENCHMARK,
            scale: 1.0,
            rpm: s.rpm,
            amps: s.amps,
            omega_points: 0,
            current_points: 0,
            no_cache: false,
            deadline_ms: None,
        };
        let key = oftec_serve::CacheKey::for_spec(&spec, &cfg);
        spec.scale = key.canonical_scale(&cfg);
        spec.rpm = key.canonical_rpm(&cfg);
        spec.amps = key.canonical_amps(&cfg);
        let direct = oftec_serve::reference_payload(&package, &spec, None);
        out.check(direct.as_deref().ok() == s.payload.as_deref(), || {
            format!(
                "reply at rpm {} amps {} differs from a direct reduced solve:\n  served {:?}\n  direct {:?}",
                s.rpm, s.amps, s.payload, direct
            )
        });
    }
}

/// Times parse, cache lookup, solve and encode on their own over the
/// rung's request lines.
fn replay_stages(rung: &Rung) -> (f64, u64) {
    let cfg = CacheConfig::default();
    let cache = QuantizedCache::new(cfg.clone());
    let system = trace::span("core.system.build", || {
        CoolingSystem::for_benchmark(BENCHMARK)
    });
    trace::span("thermal.reduction.basis_build", || {
        let _ = system.reduced_tec_model();
    });
    let reduced = system.reduced_tec_model();
    let probe0 = oftec_thermal::probe::snapshot();
    let mut hits = 0u64;
    for (line, sent) in rung.lines.iter().zip(&rung.sent) {
        let line = line.trim_end();
        let Ok((id, Request::Steady { spec })) =
            trace::span("serve.protocol.parse", || protocol::parse_line(line))
        else {
            continue;
        };
        trace::set_unit(id.unwrap_or(0));
        let key = cache.key_for(&spec);
        let cached = trace::span("serve.cache.get", || cache.get(&key));
        let hit = cached.is_some();
        // Encode is timed on the payload the server actually sent.
        let payload = match cached {
            Some(p) => {
                hits += 1;
                p
            }
            None => {
                let op = OperatingPoint::new(
                    AngularVelocity::from_rpm(key.canonical_rpm(&cfg)),
                    Current::from_amperes(key.canonical_amps(&cfg)),
                );
                let _ = trace::span("serve.solve", || reduced.solve(op));
                let p = sent.payload.clone().unwrap_or_default();
                cache.insert(key, p.clone());
                p
            }
        };
        let envelope = trace::span("serve.protocol.encode", || {
            protocol::ok_line_traced(id, hit, TRACE_JSON, &payload)
        });
        std::hint::black_box(envelope);
    }
    let probe = oftec_thermal::probe::snapshot().since(&probe0);
    (
        ratio(
            probe.fallbacks as f64,
            (probe.reduced + probe.fallbacks) as f64,
        ),
        hits,
    )
}

/// Latency figures of the rungs at [`LATENCY_RPS`]; throughput is their
/// mean achieved rate.
fn latency_e2e(rungs: &[Rung]) -> E2e {
    E2e {
        throughput: rungs.iter().map(|r| r.achieved_rps).sum::<f64>() / rungs.len().max(1) as f64,
        p50_ms: segment_quantiles(rungs, SEGMENT_SECONDS, P50_SEGMENT_QUANTILE).0,
        p99_ms: segment_quantiles(rungs, P99_WINDOW_SECONDS, P99_WINDOW_QUANTILE).1,
        samples: rungs.iter().map(|r| r.sent.len() as u64).sum(),
    }
}

/// The latency chunks of an untraced run, as the report records them.
#[derive(Serialize)]
struct LatencyReport {
    offered_rps: f64,
    chunks: u64,
    seconds: f64,
    sent: u64,
    failed: u64,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    /// The stall-bound p99s: the median of the 100 ms segments' p99s, and
    /// the p99 of every request.
    segment_median_p99_ms: Option<f64>,
    all_requests_p99_ms: Option<f64>,
}

fn layer_metrics(spans: &[trace::Span], rung: &Rung, fallback_ratio: f64) -> Vec<Metric> {
    let p50 = |name: &str| -> (f64, u64) {
        let mut d = trace::durations_us(spans, name);
        (median(&mut d), d.len() as u64)
    };
    let (parse, n_parse) = p50("serve.protocol.parse");
    let (get, n_get) = p50("serve.cache.get");
    let (solve, n_solve) = p50("serve.solve");
    let (encode, n_encode) = p50("serve.protocol.encode");
    let basis = trace::layer(&trace::summarize(spans), "thermal.reduction.basis_build");
    let client = |cached: bool| -> (f64, f64, u64) {
        let picked: Vec<&Sent> = rung
            .sent
            .iter()
            .filter(|s| s.ok && s.cached == cached)
            .collect();
        let mut lat: Vec<f64> = picked.iter().map(|s| s.latency_ms * 1e3).collect();
        let mut server: Vec<f64> = picked.iter().map(|s| s.server_total_us).collect();
        (median(&mut lat), median(&mut server), picked.len() as u64)
    };
    let (hit_us, hit_server_us, n_hit) = client(true);
    let (miss_us, miss_server_us, n_miss) = client(false);
    let mut lag = rung.lag_us.clone();
    vec![
        metric("serve.protocol.parse_us", parse, "us", n_parse),
        metric("serve.cache.get_us", get, "us", n_get),
        metric(
            "serve.cache.hit_ratio",
            ratio(n_hit as f64, (n_hit + n_miss) as f64),
            "ratio",
            n_hit + n_miss,
        ),
        metric("serve.solve_us", solve, "us", n_solve),
        metric("serve.protocol.encode_us", encode, "us", n_encode),
        metric(
            "serve.server.residual_us.cached",
            hit_us - (parse + get + encode),
            "us",
            n_hit,
        ),
        metric(
            "serve.server.residual_us.uncached",
            miss_us - (parse + get + solve + encode),
            "us",
            n_miss,
        ),
        metric("serve.trace.total_us.cached", hit_server_us, "us", n_hit),
        metric(
            "serve.trace.total_us.uncached",
            miss_server_us,
            "us",
            n_miss,
        ),
        metric(
            "serve.generator.lag_us_p99",
            quantile(&mut lag, 0.99),
            "us",
            rung.lag_us.len() as u64,
        ),
        metric(
            "thermal.reduction.fallback_ratio",
            fallback_ratio,
            "ratio",
            n_solve,
        ),
        metric(
            "thermal.reduction.basis_build_ms",
            basis.total_ms() / basis.count.max(1) as f64,
            "ms",
            basis.count,
        ),
    ]
}

/// Climbs the ladder (see [`RUNGS_PER_DOUBLING`]) and returns every rung
/// driven, in order; the latency chunk after each rung goes to `latency`.
/// Every rung that meets the SLO is above all earlier ones that did, so
/// the last such rung is the climb's capacity.
fn climb(
    conns: &mut [TcpStream],
    gen: &mut Generator,
    rung_secs: f64,
    latency: &mut Vec<Rung>,
) -> Result<Vec<Rung>, String> {
    let mut rungs = Vec::new();
    // A rung misses only when a second try misses too: one burst of host
    // stalls should not end the climb.
    let mut try_rung = |k: usize, rungs: &mut Vec<Rung>| -> Result<bool, String> {
        for _ in 0..2 {
            let rung = drive(conns, gen, ladder_rps(k), rung_secs, false)?;
            let chunk_secs = rung_secs * LATENCY_CHUNK_SHARE;
            latency.push(drive(conns, gen, LATENCY_RPS, chunk_secs, false)?);
            let passed = rung.passes();
            rungs.push(rung);
            if passed {
                return Ok(true);
            }
        }
        Ok(false)
    };
    if !try_rung(0, &mut rungs)? {
        return Ok(rungs);
    }
    let (mut met, mut missed) = (0, TOP_RUNG + 1);
    while met < TOP_RUNG && missed == TOP_RUNG + 1 {
        let k = (met + RUNGS_PER_DOUBLING).min(TOP_RUNG);
        if try_rung(k, &mut rungs)? {
            met = k;
        } else {
            missed = k;
        }
    }
    while missed - met > 1 && missed <= TOP_RUNG {
        let k = (met + missed) / 2;
        if try_rung(k, &mut rungs)? {
            met = k;
        } else {
            missed = k;
        }
    }
    Ok(rungs)
}

pub fn run(cfg: &Cfg) -> Outcome {
    // Keeps the CPUs out of the idle state for the whole run (see
    // `poll`); the client thread sleeps between events.
    let _awake = poll::KeepAwake::start();
    poll::tight_timers();
    let mut out = Outcome::default();
    let port_file = cfg
        .out_dir
        .join(format!("serve-port-{}", std::process::id()));
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut running = None;
    for i in 0..SETUP_REPEATS {
        match start(&port_file) {
            Ok((r, secs)) => {
                setups.push(secs);
                if i + 1 < SETUP_REPEATS {
                    if let Err(e) = r.stop() {
                        out.check(false, || e);
                    }
                } else {
                    running = Some(r);
                }
            }
            Err(e) => {
                out.check(false, || e);
                break;
            }
        }
    }
    let _ = std::fs::remove_file(&port_file);
    let Some(mut server) = running else {
        return out;
    };
    let setup_s = median(&mut setups.clone());
    let mut gen = Generator {
        rng: SplitMix64::new(cfg.seed),
        next_id: 1,
    };

    // A traced run: an untraced and a traced latency rung. Otherwise the
    // capacity climbs, with latency chunks between their rungs.
    let mut latency: Vec<Rung> = Vec::new();
    let mut climbs: Vec<Vec<Rung>> = Vec::new();
    let result: Result<(), String> = (|| {
        let conns = &mut server.conns;
        if cfg.trace {
            let half = cfg.seconds * TRACED_SHARE;
            latency.push(drive(conns, &mut gen, LATENCY_RPS, half, false)?);
            trace::start();
            latency.push(drive(conns, &mut gen, LATENCY_RPS, half, true)?);
        } else {
            let rung_secs = cfg.seconds * CLIMB_RUNG_SHARE;
            for _ in 0..CLIMBS {
                climbs.push(climb(conns, &mut gen, rung_secs, &mut latency)?);
            }
        }
        Ok(())
    })();
    if let Err(e) = server.stop() {
        out.check(false, || e);
    }
    if let Err(e) = result {
        let _ = trace::finish();
        out.check(false, || e);
        return out;
    }
    let all: Vec<&Rung> = latency.iter().chain(climbs.iter().flatten()).collect();
    out.attempted = all.iter().map(|r| r.sent.len() as u64).sum();
    out.failed = all.iter().map(|r| r.failed()).sum();
    verify(&all, cfg.seed, &mut out);

    if cfg.trace {
        let (fallback_ratio, replay_hits) = replay_stages(&latency[1]);
        let spans = trace::finish();
        out.metrics = layer_metrics(&spans, &latency[1], fallback_ratio);
        out.metrics.extend(overhead_metrics(
            &latency_e2e(&latency[..1]),
            &latency_e2e(&latency[1..]),
        ));
        out.detail("replay_cache_hits", replay_hits);
        crate::write_spans(cfg, &spans, &mut out);
    } else {
        // Serve's throughput is its capacity (max_rps_at_slo): the
        // achieved rate of the last rung of a climb that met the SLO,
        // which is the highest below every rate that missed it; the best
        // climb counts.
        let capacities: Vec<Option<&Rung>> = climbs
            .iter()
            .map(|c| c.iter().rfind(|r| r.passes()))
            .collect();
        let best = capacities
            .iter()
            .flatten()
            .max_by(|a, b| a.rps.total_cmp(&b.rps))
            .copied();
        let max_rps = best.map_or(0.0, |r| r.achieved_rps);
        let e2e = latency_e2e(&latency);
        out.metrics = e2e_metrics(
            setup_s,
            &E2e {
                throughput: max_rps,
                ..e2e.clone()
            },
            SETUP_REPEATS as u64,
        );
        out.metrics[1].samples = best.map_or(0, |r| r.sent.len() as u64);
        out.detail("max_rps_at_slo", max_rps);
        out.detail(
            "climb_capacities_rps",
            capacities
                .iter()
                .map(|c| c.map_or(0.0, |r| r.achieved_rps))
                .collect::<Vec<_>>(),
        );
        out.detail(
            "generator_limited",
            best.is_some_and(|r| r.rps >= ladder_rps(TOP_RUNG)),
        );
        out.detail("latency_limit_ms", LATENCY_LIMIT_MS);
        out.detail(
            "latency_rung",
            LatencyReport {
                offered_rps: LATENCY_RPS,
                chunks: latency.len() as u64,
                seconds: latency.iter().map(|r| r.seconds).sum(),
                sent: e2e.samples,
                failed: latency.iter().map(Rung::failed).sum(),
                p50_ms: finite_or_null(e2e.p50_ms),
                p99_ms: finite_or_null(e2e.p99_ms),
                segment_median_p99_ms: finite_or_null(
                    segment_quantiles(&latency, SEGMENT_SECONDS, 0.5).1,
                ),
                all_requests_p99_ms: finite_or_null(quantile(
                    &mut latency
                        .iter()
                        .flat_map(|r| r.latencies(0..r.sent.len()))
                        .collect::<Vec<_>>(),
                    0.99,
                )),
            },
        );
        out.detail(
            "ladder",
            climbs
                .iter()
                .map(|c| c.iter().map(Rung::report).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        );
        let mut lag: Vec<f64> = latency
            .iter()
            .flat_map(|r| r.lag_us.iter().copied())
            .collect();
        out.detail("generator_lag_us", Lag::of(&mut lag));
    }
    out.detail("setup_runs_s", setups);
    out
}
