//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 6). Each binary under `src/bin/` prints one
//! artifact; the Criterion benches under `benches/` time the hot paths.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 (package stack, input configuration) |
//! | `fig6ab` | Figure 6(a)(b): 𝒯 and 𝒫 surfaces over (ω, I) for basicmath |
//! | `fig6cd` | Figure 6(c)(d): Optimization 2 comparison, 3 methods × 8 benchmarks |
//! | `fig6ef` | Figure 6(e)(f): Optimization 1 comparison |
//! | `table2` | Table 2: per-benchmark `I*`, `ω*`, runtime |
//! | `solver_comparison` | §5.2: active-set SQP vs interior point vs trust region vs grid search |
//! | `leakage_ablation` | §4: Taylor linearization vs exponential fixed point |
//! | `runaway` | §6.2: TEC-only thermal runaway, runaway boundary vs ω |
//! | `transient_boost` | §6.2: the 1 A / 1 s transient boost |

use oftec::baselines::{self, BaselineOutcome};
use oftec::{CoolingSystem, Oftec, OftecOutcome};
use oftec_power::Benchmark;
use oftec_thermal::PackageConfig;
use serde::Serialize;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One row of a per-benchmark comparison: OFTEC vs the two baselines.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub benchmark: String,
    /// OFTEC maximum die temperature (°C), if feasible.
    pub oftec_temp_c: Option<f64>,
    /// OFTEC cooling power 𝒫 (W), if feasible.
    pub oftec_power_w: Option<f64>,
    /// Variable-ω baseline temperature (°C); present even when infeasible
    /// (the coolest it could get).
    pub var_temp_c: Option<f64>,
    /// Variable-ω baseline power (W), only when feasible.
    pub var_power_w: Option<f64>,
    /// Whether the variable-ω baseline met `T_max`.
    pub var_feasible: bool,
    /// Fixed-ω (2000 RPM) baseline temperature (°C).
    pub fixed_temp_c: Option<f64>,
    /// Fixed-ω baseline power (W), only when feasible.
    pub fixed_power_w: Option<f64>,
    /// Whether the fixed-ω baseline met `T_max`.
    pub fixed_feasible: bool,
}

/// Which paper experiment a comparison reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparisonMode {
    /// Figure 6(c)(d): everyone minimizes the maximum temperature.
    Optimization2,
    /// Figure 6(e)(f): everyone minimizes cooling power subject to
    /// `T < T_max`.
    Optimization1,
}

/// Builds the eight benchmark systems on the calibrated full grid, one
/// per worker thread (model construction assembles the full RC network
/// and its CSR skeleton, so this is worth parallelizing).
pub fn all_systems() -> Vec<CoolingSystem> {
    oftec_parallel::par_map_indexed(&Benchmark::ALL, |_, &b| CoolingSystem::for_benchmark(b))
}

/// Builds the eight benchmark systems on a custom package config.
pub fn all_systems_with(config: &PackageConfig) -> Vec<CoolingSystem> {
    oftec_parallel::par_map_indexed(&Benchmark::ALL, |_, &b| {
        CoolingSystem::for_benchmark_with_config(b, config)
    })
}

fn baseline_fields(outcome: &BaselineOutcome) -> (Option<f64>, Option<f64>, bool) {
    (
        outcome.max_temperature().map(|t| t.celsius()),
        outcome.cooling_power().map(|p| p.watts()),
        outcome.is_feasible(),
    )
}

/// Runs one benchmark through OFTEC and both baselines in the given mode.
pub fn compare(system: &CoolingSystem, mode: ComparisonMode) -> ComparisonRow {
    let optimizer = Oftec::default();
    let (oftec_temp_c, oftec_power_w) = match mode {
        ComparisonMode::Optimization1 => match optimizer.run(system) {
            Ok(OftecOutcome::Optimized(sol)) => (
                Some(sol.max_temperature.celsius()),
                Some(sol.cooling_power.watts()),
            ),
            Ok(OftecOutcome::Infeasible(report)) => (Some(report.best_temperature.celsius()), None),
            Err(_) => (None, None),
        },
        ComparisonMode::Optimization2 => {
            match optimizer.minimize_temperature(system.tec_model(), system.t_max()) {
                Some(sol) => (
                    Some(sol.max_temperature.celsius()),
                    Some(sol.cooling_power.watts()),
                ),
                None => (None, None),
            }
        }
    };

    let minimize_power = mode == ComparisonMode::Optimization1;
    let var = baselines::variable_speed_fan(system, minimize_power);
    let fixed = baselines::fixed_speed_fan(system, oftec::fixed_baseline_speed());
    let (var_temp_c, var_power_w, var_feasible) = baseline_fields(&var);
    let (fixed_temp_c, fixed_power_w, fixed_feasible) = baseline_fields(&fixed);

    ComparisonRow {
        benchmark: system.name().to_owned(),
        oftec_temp_c,
        oftec_power_w,
        var_temp_c,
        var_power_w,
        var_feasible,
        fixed_temp_c,
        fixed_power_w,
        fixed_feasible,
    }
}

/// Runs [`compare`] for every system concurrently, returning the rows in
/// the input order (each comparison is three full optimizer runs, so the
/// eight benchmarks dominate a figure binary's wall clock).
pub fn compare_all(systems: &[CoolingSystem], mode: ComparisonMode) -> Vec<ComparisonRow> {
    oftec_parallel::par_map_indexed(systems, |_, system| compare(system, mode))
}

/// Formats a float option for a fixed-width table.
pub fn fmt_opt(v: Option<f64>, width: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.2}"),
        None => format!("{:>width$}", "—"),
    }
}

/// Buffered report writer for the figure/table binaries.
///
/// The whole report is rendered into one `String` (no per-row `println!`
/// temporaries), printed once by [`Reporter::finish`], and mirrored into
/// the telemetry registry as it is built: each table records
/// `bench.report.rows` / `bench.report.var_failures` /
/// `bench.report.fixed_failures` counters, so a `--telemetry-json`
/// snapshot carries the machine-readable summary of what was printed.
#[derive(Default)]
pub struct Reporter {
    out: String,
}

impl Reporter {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one line of free-form text.
    pub fn line(&mut self, text: impl std::fmt::Display) {
        let _ = writeln!(self.out, "{text}");
    }

    /// Appends a comparison table (temperatures and powers side by side)
    /// and mirrors its row counts into the telemetry registry.
    pub fn comparison(&mut self, rows: &[ComparisonRow], title: &str) {
        let _span = oftec_telemetry::span("bench.report");
        oftec_telemetry::counter_add("bench.report.rows", rows.len() as u64);
        let _ = writeln!(self.out, "=== {title} ===");
        let _ = writeln!(
            self.out,
            "{:>14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | var fixed",
            "benchmark", "OFTEC °C", "var °C", "fix °C", "OFTEC W", "var W", "fix W"
        );
        let mut var_failures = 0u64;
        let mut fixed_failures = 0u64;
        for r in rows {
            var_failures += u64::from(!r.var_feasible);
            fixed_failures += u64::from(!r.fixed_feasible);
            let _ = writeln!(
                self.out,
                "{:>14} | {} {} {} | {} {} {} | {:>3} {:>5}",
                r.benchmark,
                fmt_opt(r.oftec_temp_c, 9),
                fmt_opt(r.var_temp_c, 9),
                fmt_opt(r.fixed_temp_c, 9),
                fmt_opt(r.oftec_power_w, 9),
                fmt_opt(r.var_power_w, 9),
                fmt_opt(r.fixed_power_w, 9),
                if r.var_feasible { "ok" } else { "FAIL" },
                if r.fixed_feasible { "ok" } else { "FAIL" },
            );
        }
        oftec_telemetry::counter_add("bench.report.var_failures", var_failures);
        oftec_telemetry::counter_add("bench.report.fixed_failures", fixed_failures);
    }

    /// The rendered report so far.
    pub fn rendered(&self) -> &str {
        &self.out
    }

    /// Prints the buffered report to stdout in one write.
    #[expect(
        clippy::print_stdout,
        reason = "single buffered write; the Reporter is the figure binaries' stdout surface"
    )]
    pub fn finish(self) {
        print!("{}", self.out);
    }
}

/// Prints a comparison table (temperatures and powers side by side).
pub fn print_comparison(rows: &[ComparisonRow], title: &str) {
    let mut report = Reporter::new();
    report.comparison(rows, title);
    report.finish();
}

/// Strips `--telemetry-json <path>` from a binary's argument list. When
/// the flag is present, telemetry collection is forced on so the snapshot
/// written by [`finish_telemetry`] is populated. Binaries call this
/// *before* reading their positional arguments.
#[expect(
    clippy::print_stderr,
    reason = "argument-parse feedback emitted before telemetry is configured"
)]
pub fn telemetry_args() -> (Vec<String>, Option<String>) {
    oftec_telemetry::init_from_env();
    let mut rest = Vec::new();
    let mut path = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--telemetry-json" {
            path = it.next();
            if path.is_none() {
                eprintln!("--telemetry-json requires a file path; ignoring");
            }
        } else if let Some(p) = arg.strip_prefix("--telemetry-json=") {
            path = Some(p.to_string());
        } else {
            rest.push(arg);
        }
    }
    if path.is_some() {
        oftec_telemetry::set_collecting(true);
    }
    (rest, path)
}

/// Writes the registry snapshot collected since [`telemetry_args`] to the
/// path it returned (no-op when the flag was absent).
#[expect(
    clippy::print_stderr,
    reason = "the telemetry writer itself failed; stderr is the only channel left"
)]
pub fn finish_telemetry(path: Option<String>) -> ExitCode {
    let Some(path) = path else {
        return ExitCode::SUCCESS;
    };
    // Recorded before the flush so the snapshot self-documents its
    // destination instead of announcing it on stderr.
    oftec_telemetry::event(
        oftec_telemetry::Severity::Info,
        "bench.telemetry.write",
        &[("path", oftec_telemetry::Field::Str(&path))],
    );
    oftec_telemetry::flush();
    match std::fs::write(&path, oftec_telemetry::snapshot().to_json()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write telemetry snapshot {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_row_on_coarse_grid() {
        let system = CoolingSystem::for_benchmark_with_config(
            Benchmark::Crc32,
            &PackageConfig::dac14_coarse(),
        );
        let row = compare(&system, ComparisonMode::Optimization1);
        assert_eq!(row.benchmark, "CRC32");
        assert!(row.oftec_temp_c.is_some());
        assert!(row.var_feasible && row.fixed_feasible);
    }

    #[test]
    fn fmt_opt_handles_none() {
        assert_eq!(fmt_opt(None, 5).trim(), "—");
        assert_eq!(fmt_opt(Some(1.234), 6).trim(), "1.23");
    }
}
