//! `reduction-accuracy` — accuracy/latency benchmark of the reduced-order
//! steady-state solve path against the full CSR/CG reference.
//!
//! ```text
//! cargo run --release -p oftec-bench --bin reduction_accuracy -- [options]
//!
//! Options:
//!   --benchmark <name>   workload (default qsort)
//!   --smoke              coarse DAC'14 package + small grid (CI gate)
//!   --repeats <n>        reduced-path timing repeats per grid point
//!   --out <path>         report file (default target/reduction_accuracy.json)
//! ```
//!
//! The JSON report records, over an operating-point
//! grid spanning the feasible region:
//!
//! - max/mean absolute die-temperature error of the reduced solve vs the
//!   full solve (acceptance: max < 0.1 K),
//! - per-evaluation latency of both paths and their ratio (acceptance:
//!   ≥ 10× speedup),
//! - the one-time basis build cost and how many evaluations amortize it,
//! - the `reduction.*` telemetry counters from the run (the CI gate
//!   asserts `reduction.solves > 0`, i.e. the fast path actually ran).

use oftec::CoolingSystem;
use oftec_power::Benchmark;
use oftec_thermal::{CoolingModel, OperatingPoint, PackageConfig, ReductionOptions};
use oftec_units::{AngularVelocity, Current};
use std::process::ExitCode;
use std::time::Instant;

struct Config {
    benchmark: String,
    smoke: bool,
    repeats: usize,
    out: String,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            benchmark: "qsort".into(),
            smoke: false,
            repeats: 0, // 0 = pick by mode
            out: "target/reduction_accuracy.json".into(),
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config::default();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => it.next().cloned().ok_or(format!("{name} requires a value")),
            }
        };
        match flag {
            "--benchmark" => config.benchmark = value("--benchmark")?,
            "--smoke" => config.smoke = true,
            "--repeats" => {
                config.repeats = value("--repeats")?
                    .parse()
                    .map_err(|_| "--repeats: not a non-negative integer".to_string())?;
            }
            "--out" => config.out = value("--out")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("reduction-accuracy: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(benchmark) = Benchmark::from_name(&config.benchmark) else {
        eprintln!(
            "reduction-accuracy: unknown benchmark `{}`",
            config.benchmark
        );
        return ExitCode::FAILURE;
    };
    oftec_telemetry::set_collecting(true);

    let (package, package_name, omega_points, current_points) = if config.smoke {
        (PackageConfig::dac14_coarse(), "dac14_coarse", 8, 6)
    } else {
        (PackageConfig::dac14(), "dac14", 10, 6)
    };
    let repeats = if config.repeats > 0 {
        config.repeats
    } else if config.smoke {
        20
    } else {
        50
    };
    let system = CoolingSystem::for_benchmark_with_config(benchmark, &package);
    let model = system.tec_model();

    // One-time basis construction (a few dozen warm-chained full solves).
    let build_started = Instant::now();
    let reduced_model = match model.build_reduced(&ReductionOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reduction-accuracy: basis build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let build_seconds = build_started.elapsed().as_secs_f64();
    let reduced = oftec_thermal::ReducedCoolingModel::new(model, Some(&reduced_model));

    // The comparison grid spans the feasible region: fan speeds from 30%
    // of ω_max (below sits the runaway boundary) and currents to 2.5 A.
    let omega_max = model.config().fan.omega_max.rpm();
    let mut ops = Vec::new();
    for wi in 0..omega_points {
        let rpm = omega_max * (0.3 + 0.7 * wi as f64 / (omega_points - 1) as f64);
        for ci in 0..current_points {
            let amps = 2.5 * ci as f64 / (current_points - 1) as f64;
            ops.push(OperatingPoint::new(
                AngularVelocity::from_rpm(rpm),
                Current::from_amperes(amps),
            ));
        }
    }

    // Accuracy: both paths solved once per grid point.
    let mut max_err: f64 = 0.0;
    let mut sum_err = 0.0;
    let mut compared = 0usize;
    let mut runaway = 0usize;
    let mut disagreements = 0usize;
    for &op in &ops {
        match (reduced.solve(op), model.solve(op)) {
            (Ok(fast), Ok(full)) => {
                let err = (fast.max_chip_temperature().kelvin()
                    - full.max_chip_temperature().kelvin())
                .abs();
                max_err = max_err.max(err);
                sum_err += err;
                compared += 1;
            }
            (Err(_), Err(_)) => runaway += 1,
            _ => disagreements += 1,
        }
    }
    if compared == 0 {
        eprintln!("reduction-accuracy: no comparable grid points (all runaway?)");
        return ExitCode::FAILURE;
    }
    let mean_err = sum_err / compared as f64;

    // Latency: the reduced path repeated, the full path once per point
    // (cold starts on both sides, matching the uncached serve path).
    let started = Instant::now();
    let mut reduced_evals = 0usize;
    for _ in 0..repeats {
        for &op in &ops {
            if reduced.solve(op).is_ok() {
                reduced_evals += 1;
            }
        }
    }
    let reduced_us = started.elapsed().as_secs_f64() * 1e6 / (repeats * ops.len()) as f64;
    let started = Instant::now();
    for &op in &ops {
        let _ = model.solve(op);
    }
    let full_us = started.elapsed().as_secs_f64() * 1e6 / ops.len() as f64;
    let speedup = full_us / reduced_us.max(1e-12);
    // Evaluations after which the basis build has paid for itself.
    let amortize_evals = (build_seconds * 1e6 / (full_us - reduced_us).max(1e-9)).ceil();

    oftec_telemetry::flush();
    let snap = oftec_telemetry::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    let report = format!(
        "{{\n  \"config\": {{\"benchmark\":\"{}\",\"package\":\"{}\",\"omega_points\":{},\
         \"current_points\":{},\"repeats\":{},\"smoke\":{}}},\n  \
         \"build\": {{\"seconds\":{:.4},\"snapshots_used\":{},\"basis_size\":{},\
         \"amortized_after_evals\":{}}},\n  \
         \"grid\": {{\"points\":{},\"compared\":{},\"runaway\":{},\"disagreements\":{}}},\n  \
         \"max_abs_error_k\": {:.6e},\n  \"mean_abs_error_k\": {:.6e},\n  \
         \"latency\": {{\"reduced_us_per_eval\":{:.2},\"full_us_per_eval\":{:.2},\
         \"speedup\":{:.1}}},\n  \
         \"counters\": {{\"reduction.solves\":{},\"reduction.fallbacks\":{},\
         \"reduction.builds\":{}}}\n}}\n",
        benchmark.name(),
        package_name,
        omega_points,
        current_points,
        repeats,
        config.smoke,
        build_seconds,
        reduced_model.snapshots_used(),
        reduced_model.basis_size(),
        amortize_evals,
        ops.len(),
        compared,
        runaway,
        disagreements,
        max_err,
        mean_err,
        reduced_us,
        full_us,
        speedup,
        counter("reduction.solves"),
        counter("reduction.fallbacks"),
        counter("reduction.builds"),
    );
    if let Err(e) = std::fs::write(&config.out, &report) {
        eprintln!("reduction-accuracy: cannot write {}: {e}", config.out);
        return ExitCode::FAILURE;
    }
    println!("{report}");
    eprintln!(
        "reduction-accuracy: {} evals via reduced path, report written to {}",
        reduced_evals, config.out
    );
    ExitCode::SUCCESS
}
