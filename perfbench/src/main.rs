//! `oftec-perfbench`: the repository's benchmark (see `BENCHMARK.json`
//! and `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <controller|fleet|crosscheck|serve> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run is split into an untraced and a traced half
//! and the line carries the per-layer metrics instead. Run from the
//! repository root: reports and spans go to `.bench_out/`.

mod controller;
mod fleet;
mod poll;
mod report;
mod serve;
mod trace;

use oftec_thermal::{
    CoolingModel, OperatingPoint, PackageConfig, ThermalError, ThermalSolution, TransientOptions,
    TransientTrace,
};
use report::{median, metric, quantile, ratio, Header, Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Executor threads for every workload, set before any library code
/// reads `OFTEC_THREADS`, so the environment cannot change them.
pub const THREADS: usize = 1;

/// Where reports and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload never calls reports 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.algorithm.run_ms", "ms"),
    ("core.algorithm.phase1_ratio", "ratio"),
    ("optim.sqp.self_ms", "ms"),
    ("thermal.reduction.calls_per_run", "count"),
    ("thermal.reduction.us_per_call", "us"),
    ("thermal.reduction.share", "ratio"),
    ("thermal.reduction.fallback_ratio", "ratio"),
    ("thermal.reduction.basis_build_ms", "ms"),
    ("thermal.model.full_us_per_call", "us"),
    ("fleet.scenario.generate_us", "us"),
    ("fleet.build_ms", "ms"),
    ("fleet.verdict_ms", "ms"),
    ("fleet.runner.scenario_ms", "ms"),
    ("fleet.runner.write_ms", "ms"),
    ("fleet.diff.discrepancies", "count"),
    ("optim.gridsearch_ms", "ms"),
    ("optim.sqp_ms", "ms"),
    ("optim.interior_ms", "ms"),
    ("optim.trust_region_ms", "ms"),
    ("serve.protocol.parse_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.solve_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.server.residual_us.cached", "us"),
    ("serve.server.residual_us.uncached", "us"),
    ("serve.trace.total_us.cached", "us"),
    ("serve.trace.total_us.uncached", "us"),
    ("serve.generator.lag_us_p99", "us"),
    ("bench.trace_overhead_pct.throughput_per_s", "%"),
    ("bench.trace_overhead_pct.latency_ms_p50", "%"),
    ("bench.trace_overhead_pct.latency_ms_p99", "%"),
];

pub const WORKLOADS: [&str; 4] = ["controller", "fleet", "crosscheck", "serve"];

/// One run's settings.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// A workload's end-to-end figures from one measured phase.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub throughput: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: u64,
}

impl E2e {
    /// Figures from per-item samples (ms per unit; an item is a problem,
    /// a population or a scenario that every pass repeats). Latency
    /// percentiles use every sample. Throughput is items per summed
    /// per-item median, which a burst of host noise in one pass does not
    /// move the way a plain mean would.
    pub fn from_items(items: &[Vec<f64>], units_per_sample: u64) -> Self {
        let mut all: Vec<f64> = items.iter().flatten().copied().collect();
        let medians: Vec<f64> = items
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(&mut v.clone()))
            .collect();
        Self {
            throughput: report::ratio(medians.len() as f64 * 1e3, medians.iter().sum()),
            p50_ms: median(&mut all),
            p99_ms: quantile(&mut all, 0.99),
            samples: all.len() as u64 * units_per_sample,
        }
    }
}

pub fn e2e_metrics(setup_s: f64, e2e: &E2e, setup_samples: u64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s", setup_samples),
        metric("throughput_per_s", e2e.throughput, "1/s", e2e.samples),
        metric("latency_ms_p50", e2e.p50_ms, "ms", e2e.samples),
        metric("latency_ms_p99", e2e.p99_ms, "ms", e2e.samples),
    ]
}

/// How much worse (in percent) the traced half read than the untraced one.
pub fn overhead_metrics(plain: &E2e, traced: &E2e) -> Vec<Metric> {
    let worse_lower = |a: f64, b: f64| report::ratio(a - b, a) * 100.0;
    let worse_higher = |a: f64, b: f64| report::ratio(b - a, a) * 100.0;
    let n = plain.samples.min(traced.samples);
    vec![
        metric(
            "bench.trace_overhead_pct.throughput_per_s",
            worse_lower(plain.throughput, traced.throughput),
            "%",
            n,
        ),
        metric(
            "bench.trace_overhead_pct.latency_ms_p50",
            worse_higher(plain.p50_ms, traced.p50_ms),
            "%",
            n,
        ),
        metric(
            "bench.trace_overhead_pct.latency_ms_p99",
            worse_higher(plain.p99_ms, traced.p99_ms),
            "%",
            n,
        ),
    ]
}

/// Writes the spans of a traced run and adds their per-name summary to
/// the report.
pub fn write_spans(cfg: &Cfg, spans: &[trace::Span], out: &mut Outcome) {
    let path = cfg.out_dir.join(format!("spans-{}.jsonl", cfg.workload));
    if let Err(e) = trace::write_jsonl(&path, spans) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
    let layers: Vec<LayerLine> = trace::summarize(spans)
        .iter()
        .map(|(name, l)| LayerLine {
            name,
            count: l.count,
            total_ms: l.total_ms(),
            self_ms: l.self_ns as f64 / 1e6,
        })
        .collect();
    out.detail("spans_file", path.display().to_string());
    out.detail("spans", spans.len());
    out.detail("layers", layers);
}

/// One span name's totals in a traced run's report.
#[derive(serde::Serialize)]
struct LayerLine {
    name: &'static str,
    count: u64,
    total_ms: f64,
    self_ms: f64,
}

/// A [`CoolingModel`] that records a span around every steady solve of
/// the model it wraps.
pub struct Timed<M> {
    inner: M,
    name: &'static str,
}

impl<M> Timed<M> {
    pub fn new(inner: M, name: &'static str) -> Self {
        Self { inner, name }
    }
}

impl<M: CoolingModel> CoolingModel for Timed<M> {
    fn config(&self) -> &PackageConfig {
        self.inner.config()
    }

    fn has_tec(&self) -> bool {
        self.inner.has_tec()
    }

    fn validate_operating_point(&self, op: OperatingPoint) -> Result<(), ThermalError> {
        self.inner.validate_operating_point(op)
    }

    fn solve(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        trace::span(self.name, || self.inner.solve(op))
    }

    fn solve_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        trace::span(self.name, || self.inner.solve_from(op, initial))
    }

    fn simulate_transient_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
        steps: usize,
        opts: &TransientOptions,
    ) -> Result<TransientTrace, ThermalError> {
        self.inner.simulate_transient_from(op, initial, steps, opts)
    }
}

/// Human-readable summary printed before the result line.
fn print_summary(header: &Header, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {} | threads {} cpu_cores {} rev {}",
        header.workload,
        header.seed,
        header.seconds,
        header.trace,
        header.threads,
        header.cpu_cores,
        header.git_revision
    );
    println!(
        "  attempted {} failed {} error_rate {:.6} (ratio) correct {}",
        outcome.attempted,
        outcome.failed,
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.correct
    );
    for m in &outcome.metrics {
        println!(
            "  {:<40} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
}

/// The benchmark's clock: every timing in it reads this.
pub fn now() -> std::time::Instant {
    // oftec-lint: allow(L003, the benchmark measures wall time; no solver result depends on it)
    std::time::Instant::now()
}

/// Orders `out.metrics` as the contract lists them, fills layers the
/// workload never called with 0, and flags unknown or non-finite values.
fn conform(out: &mut Outcome, trace: bool) {
    let contract: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in &out.metrics {
        if !contract.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
            out.problems.push(format!(
                "metric {} ({}) is not in the contract",
                m.name, m.unit
            ));
        }
    }
    let mut ordered = Vec::with_capacity(contract.len());
    for (name, unit) in contract {
        let m = match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) => m.clone(),
            None if trace => metric(name, 0.0, unit, 0),
            None => {
                out.problems
                    .push(format!("end-to-end metric {name} missing"));
                metric(name, 0.0, unit, 0)
            }
        };
        if !m.value.is_finite() {
            out.problems.push(format!("metric {name} is not finite"));
        }
        ordered.push(m);
    }
    out.metrics = ordered;
    out.correct = out.problems.is_empty();
}

/// Runs one workload and prints its summary and result line.
fn run_one(cfg: &Cfg) -> Outcome {
    let header = Header::new(&cfg.workload, cfg.seed, cfg.seconds, cfg.trace, THREADS);
    let mut out = match cfg.workload.as_str() {
        "controller" => controller::run(cfg),
        "fleet" => fleet::run(cfg, false),
        "crosscheck" => fleet::run(cfg, true),
        "serve" => serve::run(cfg),
        other => {
            let mut o = Outcome::default();
            o.problems.push(format!("unknown workload {other}"));
            o
        }
    };
    conform(&mut out, cfg.trace);
    print_summary(&header, &out);
    let path = cfg.out_dir.join(format!(
        "report-{}-trace{}.json",
        cfg.workload,
        u8::from(cfg.trace)
    ));
    let written = report::report_json(header, &out)
        .map_err(|e| e.to_string())
        .and_then(|report| std::fs::write(&path, report).map_err(|e| e.to_string()));
    if let Err(e) = written {
        println!("  CHECK FAILED: writing {}: {e}", path.display());
        out.problems
            .push(format!("writing {}: {e}", path.display()));
        out.correct = false;
    }
    println!("  report: {}", path.display());
    out
}

fn usage() -> String {
    format!(
        "usage: oftec-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       oftec-perfbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Cfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Cfg {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn main() -> ExitCode {
    // Edition 2021: `set_var` is safe; no other thread exists yet.
    std::env::set_var("OFTEC_THREADS", THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    if args.first().map(String::as_str) == Some("--self-test") {
        return selftest::run();
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = run_one(&cfg);
    match report::result_line(&out) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("result line: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--self-test`: every workload, both modes, a short run each; checks
/// the result line and report against `BENCHMARK.json`.
mod selftest {
    use super::*;
    use serde::Value;

    fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `(name, unit)` pairs of a metric list in `BENCHMARK.json`.
    fn contract(bench: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
        get(bench, key)
            .and_then(Value::as_seq)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f| get(m, f).and_then(Value::as_str).map(str::to_owned);
                Ok((
                    field("name").ok_or(format!("{key}: metric without name"))?,
                    field("unit").ok_or(format!("{key}: metric without unit"))?,
                ))
            })
            .collect()
    }

    fn check_line(line: &str, want: &[(String, String)]) -> Result<(), String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
        let keys: Vec<&str> = v
            .as_map()
            .ok_or("result line is not an object")?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("result line keys {keys:?}"));
        }
        if get(&v, "correct").and_then(Value::as_bool) != Some(true) {
            return Err("result line: correct is not true".into());
        }
        let attempted = get(&v, "attempted").and_then(Value::as_f64).unwrap_or(0.0);
        let failed = get(&v, "failed").and_then(Value::as_f64).unwrap_or(-1.0);
        if attempted < 1.0 || failed < 0.0 || attempted.fract() != 0.0 || failed.fract() != 0.0 {
            return Err(format!(
                "result line: attempted {attempted} failed {failed}"
            ));
        }
        let metrics = get(&v, "metrics")
            .and_then(Value::as_map)
            .ok_or("no metrics")?;
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = get(m, "unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                let finite = get(m, "value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite);
                (
                    name.clone(),
                    if finite { unit } else { "<non-finite>".into() },
                )
            })
            .collect();
        if got != want {
            return Err(format!("metrics {got:?}\n  expected {want:?}"));
        }
        Ok(())
    }

    fn check_report(cfg: &Cfg) -> Result<(), String> {
        let path = cfg.out_dir.join(format!(
            "report-{}-trace{}.json",
            cfg.workload,
            u8::from(cfg.trace)
        ));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("report: {e}"))?;
        let require = |v: &Value, keys: &[&str], what: &str| {
            keys.iter()
                .try_for_each(|key| get(v, key).map(drop).ok_or(format!("{what} lacks {key}")))
        };
        require(
            &v,
            &["header", "metrics", "error_rate", "details"],
            "report",
        )?;
        let header = get(&v, "header").unwrap_or(&Value::Null);
        require(
            header,
            &["command", "git_revision", "cpu_cores", "threads", "seed"],
            "report header",
        )?;
        let details = get(&v, "details").unwrap_or(&Value::Null);
        match (cfg.workload.as_str(), cfg.trace) {
            ("serve", false) => require(
                details,
                &[
                    "ladder",
                    "latency_limit_ms",
                    "max_rps_at_slo",
                    "generator_lag_us",
                ],
                "serve details",
            ),
            ("crosscheck", false) => {
                require(
                    details,
                    &["population", "known_defect_in_population"],
                    "crosscheck details",
                )?;
                match get(details, "known_defect_in_population").and_then(Value::as_bool) {
                    Some(true) => Ok(()),
                    _ => Err("the known defect is not in the crosscheck population".into()),
                }
            }
            (_, true) => require(details, &["spans_file", "layers"], "traced details"),
            _ => Ok(()),
        }
    }

    pub fn run() -> ExitCode {
        let bench: Value = match std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("self-test: BENCHMARK.json: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (e2e, layers) = match (
            contract(&bench, "end_to_end"),
            contract(&bench, "per_layer"),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("self-test: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut failures = Vec::new();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = Cfg {
                    workload: workload.to_owned(),
                    seed: 1,
                    seconds: if workload == "crosscheck" { 1.0 } else { 0.5 },
                    trace,
                    out_dir: PathBuf::from(OUT_DIR),
                };
                let out = run_one(&cfg);
                let want = if trace { &layers } else { &e2e };
                let checked = report::result_line(&out)
                    .map_err(|e| format!("result line: {e}"))
                    .and_then(|line| check_line(&line, want))
                    .and_then(|()| check_report(&cfg));
                match checked {
                    Ok(()) => println!("self-test: {workload} trace={} ok", u8::from(trace)),
                    Err(e) => failures.push(format!("{workload} trace={}: {e}", u8::from(trace))),
                }
            }
        }
        match fleet::known_defect() {
            Ok(checks) if checks.len() == 2 => {
                println!("self-test: known defect 42/0/226 still shows {checks:?}")
            }
            Ok(checks) => failures.push(format!(
                "known defect 42/0/226 shows {} discrepancies {checks:?}, 2 expected",
                checks.len()
            )),
            Err(e) => failures.push(format!("known defect 42/0/226: {e}")),
        }
        for f in &failures {
            println!("self-test FAILED: {f}");
        }
        if failures.is_empty() {
            println!("self-test: all workloads emit every contract metric with its unit");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
