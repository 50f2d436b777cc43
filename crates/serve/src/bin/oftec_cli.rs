//! `oftec-cli` — command-line front end to the OFTEC library.
//!
//! ```text
//! cargo run --release -p oftec-serve --bin oftec-cli -- <command> [args]
//!
//! Commands:
//!   list                       list bundled benchmarks
//!   optimize <benchmark>       run Algorithm 1 (Optimization 2 → 1)
//!   cool <benchmark>           run Optimization 2 to convergence (min 𝒯)
//!   baseline <benchmark>       evaluate the two fan-only baselines
//!   sweep <benchmark> [file]   dump the Figure 6(a)(b) surface as CSV
//!   margin <benchmark> <rpm> <amps>
//!                              spectral runaway margin at one point
//!   serve                      run the cooling-control TCP service
//!
//! Options:
//!   --telemetry-json <path>    force telemetry collection on and write a
//!                              full registry snapshot (counters, gauges,
//!                              histograms, traces, span tree) as JSON
//!   --scale <s>                scale the workload's dynamic power by `s`
//!                              (e.g. 1.3 makes the start point infeasible
//!                              so Algorithm 1 exercises Optimization 2)
//!
//! Serve options (after `serve`):
//!   --addr <host:port>         listen address (default 127.0.0.1:7464)
//!   --threads <n>              executor threads (default: OFTEC_THREADS)
//!   --cache-capacity <n>       result-cache entries (default 1024)
//!   --conn-workers <n>         shard workers multiplexing connections
//!                              (default 0: auto, up to 4)
//!   --queue-capacity <n>       admission queue bound (default 256)
//!   --coarse                   coarse DAC'14 package (fast solves)
//!   --prewarm <benchmark>      build the benchmark's system and reduced
//!                              model before accepting (repeatable)
//!   --port-file <path>         write the bound port (for port 0)
//!   --telemetry-json <path>    write the final snapshot on shutdown
//!   --fault-kind <k>           inject faults: nan|err|panic (smoke/CI)
//!   --fault-every <n>          every n-th solve draws the fault (0: off)
//!   --flight-dump <path>       dump the flight recorder (JSONL) when the
//!                              solver-error SLO monitor breaches
//! ```
//!
//! `OFTEC_LOG=summary|trace` additionally enables JSONL event logging on
//! stderr (see the telemetry crate).

use oftec::baselines::{fixed_speed_fan, variable_speed_fan};
use oftec::{CoolingSystem, Oftec, OftecOutcome, SweepGrid};
use oftec_power::Benchmark;
use oftec_serve::{ServeConfig, Server};
use oftec_thermal::OperatingPoint;
use oftec_units::{AngularVelocity, Current};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: oftec-cli <list|optimize|cool|baseline|sweep|margin|serve> [benchmark] [args] \
         [--telemetry-json <path>]\n\
         run with `list` to see the bundled benchmarks"
    );
    ExitCode::FAILURE
}

/// Option flags stripped from the argument list before positional parsing.
#[derive(Default)]
struct Options {
    telemetry_path: Option<String>,
    scale: Option<f64>,
}

/// Strips `--telemetry-json <path>` and `--scale <s>` from the argument
/// list before positional parsing.
fn split_flags(args: Vec<String>) -> Result<(Vec<String>, Options), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut opts = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        match flag.as_str() {
            "--telemetry-json" => {
                opts.telemetry_path = Some(match inline {
                    Some(v) => v,
                    None => it
                        .next()
                        .ok_or("--telemetry-json requires a file path".to_string())?,
                });
            }
            "--scale" => {
                let raw = match inline {
                    Some(v) => v,
                    None => it.next().ok_or("--scale requires a number".to_string())?,
                };
                let s: f64 = raw
                    .parse()
                    .map_err(|_| format!("--scale: `{raw}` is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--scale must be a positive number, got {raw}"));
                }
                opts.scale = Some(s);
            }
            _ => match inline {
                Some(v) => rest.push(format!("{flag}={v}")),
                None => rest.push(flag),
            },
        }
    }
    Ok((rest, opts))
}

/// Writes the global registry snapshot to `path` as JSON.
fn write_snapshot(path: &str) -> ExitCode {
    oftec_telemetry::flush();
    let json = oftec_telemetry::snapshot().to_json();
    match std::fs::write(path, json) {
        Ok(()) => {
            eprintln!("telemetry snapshot written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write telemetry snapshot {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the `serve` subcommand's flags into a [`ServeConfig`].
fn parse_serve_config(
    args: &[String],
    telemetry_path: Option<String>,
) -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7464".into(),
        telemetry_json: telemetry_path,
        ..ServeConfig::default()
    };
    let mut it = args.iter();
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
        let parse_num = |name: &str, raw: String| -> Result<u64, String> {
            raw.parse()
                .map_err(|_| format!("{name}: `{raw}` is not a non-negative integer"))
        };
        match flag {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads = parse_num("--threads", value("--threads")?)? as usize;
            }
            "--cache-capacity" => {
                config.cache.capacity =
                    parse_num("--cache-capacity", value("--cache-capacity")?)? as usize;
            }
            "--conn-workers" => {
                config.conn_workers =
                    parse_num("--conn-workers", value("--conn-workers")?)? as usize;
            }
            "--queue-capacity" => {
                config.queue_capacity =
                    (parse_num("--queue-capacity", value("--queue-capacity")?)? as usize).max(1);
            }
            "--coarse" => config.coarse = true,
            "--prewarm" => {
                let name = value("--prewarm")?;
                let benchmark = Benchmark::from_name(&name)
                    .ok_or(format!("--prewarm: unknown benchmark `{name}`"))?;
                config.prewarm.push(benchmark);
            }
            "--port-file" => config.port_file = Some(value("--port-file")?),
            "--fault-kind" => {
                let kind = match value("--fault-kind")?.as_str() {
                    "nan" => oftec::faults::FaultKind::NonFinite,
                    "err" => oftec::faults::FaultKind::Error,
                    "panic" => oftec::faults::FaultKind::Panic,
                    other => {
                        return Err(format!(
                            "--fault-kind: `{other}` is not one of nan|err|panic"
                        ))
                    }
                };
                let every = config.fault.map_or(1, |p| p.every);
                config.fault = Some(oftec_serve::FaultPlan { kind, every });
            }
            "--fault-every" => {
                let every = parse_num("--fault-every", value("--fault-every")?)? as usize;
                let kind = config
                    .fault
                    .map_or(oftec::faults::FaultKind::Error, |p| p.kind);
                config.fault = Some(oftec_serve::FaultPlan { kind, every });
            }
            "--flight-dump" => config.flight_dump = Some(value("--flight-dump")?),
            other => return Err(format!("serve: unknown flag `{other}`")),
        }
    }
    Ok(config)
}

fn serve(args: &[String], telemetry_path: Option<String>) -> ExitCode {
    let config = match parse_serve_config(args, telemetry_path) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("oftec-serve listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, opts) = match split_flags(raw) {
        Ok(split) => split,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    oftec_telemetry::init_from_env();
    if opts.telemetry_path.is_some() {
        oftec_telemetry::set_collecting(true);
    }
    if args.first().map(String::as_str) == Some("serve") {
        // The server owns its telemetry snapshot (written during graceful
        // drain with authoritative counters); skip the generic one.
        return serve(&args[1..], opts.telemetry_path);
    }
    let code = run(&args, opts.scale);
    match opts.telemetry_path {
        Some(path) => {
            let snap_code = write_snapshot(&path);
            if code == ExitCode::SUCCESS {
                snap_code
            } else {
                code
            }
        }
        None => code,
    }
}

fn run(args: &[String], scale: Option<f64>) -> ExitCode {
    let Some(command) = args.first() else {
        return usage();
    };

    if command == "list" {
        println!("bundled MiBench benchmarks (paper Table 2):");
        for b in Benchmark::ALL {
            let system = CoolingSystem::for_benchmark(b);
            println!(
                "  {:<14} {:>6.1} W max dynamic power{}",
                b.name(),
                system.total_dynamic_power().watts(),
                if b.is_cool() { "  (cool)" } else { "  (hot)" }
            );
        }
        return ExitCode::SUCCESS;
    }

    let Some(bench_name) = args.get(1) else {
        return usage();
    };
    let Some(benchmark) = Benchmark::from_name(bench_name) else {
        eprintln!("unknown benchmark `{bench_name}`; try `oftec-cli list`");
        return ExitCode::FAILURE;
    };
    let system = CoolingSystem::for_benchmark(benchmark);
    let system = match scale {
        Some(s) => system.scaled(s),
        None => system,
    };

    match command.as_str() {
        "optimize" => match Oftec::default().run(&system) {
            Err(e) => {
                eprintln!("{}: solver error — {e}", system.name());
                ExitCode::FAILURE
            }
            Ok(OftecOutcome::Optimized(sol)) => {
                println!(
                    "{}: ω* = {:.0} RPM, I* = {:.2} A",
                    system.name(),
                    sol.operating_point.fan_speed.rpm(),
                    sol.operating_point.tec_current.amperes()
                );
                let b = sol.solution.breakdown();
                println!(
                    "𝒫 = {:.2} W (leakage {:.2} + TEC {:.2} + fan {:.2}), \
                     T_max = {:.2} °C, {} ms",
                    b.objective().watts(),
                    b.leakage.watts(),
                    b.tec.watts(),
                    b.fan.watts(),
                    sol.max_temperature.celsius(),
                    sol.runtime.as_millis()
                );
                ExitCode::SUCCESS
            }
            Ok(OftecOutcome::Infeasible(report)) => {
                println!(
                    "{}: INFEASIBLE — best achievable {:.2} °C",
                    system.name(),
                    report.best_temperature.celsius()
                );
                ExitCode::FAILURE
            }
        },
        "cool" => match Oftec::default()
            .minimize_temperature(&system.reduced_tec_model(), system.t_max())
        {
            Some(sol) => {
                println!(
                    "{}: coolest {:.2} °C at ω = {:.0} RPM, I = {:.2} A \
                         (costs {:.2} W)",
                    system.name(),
                    sol.max_temperature.celsius(),
                    sol.operating_point.fan_speed.rpm(),
                    sol.operating_point.tec_current.amperes(),
                    sol.cooling_power.watts()
                );
                ExitCode::SUCCESS
            }
            None => {
                println!(
                    "{}: every probed point is in thermal runaway",
                    system.name()
                );
                ExitCode::FAILURE
            }
        },
        "baseline" => {
            let var = variable_speed_fan(&system, true);
            let fixed = fixed_speed_fan(&system, oftec::fixed_baseline_speed());
            let show = |name: &str, o: &oftec::baselines::BaselineOutcome| match (
                o.is_feasible(),
                o.max_temperature(),
                o.cooling_power(),
            ) {
                (true, Some(t), Some(p)) => println!(
                    "  {name:<12} ok    T = {:.2} °C, 𝒫 = {:.2} W",
                    t.celsius(),
                    p.watts()
                ),
                (false, Some(t), _) => {
                    println!("  {name:<12} FAIL  best {:.2} °C > T_max", t.celsius())
                }
                _ => println!("  {name:<12} FAIL  thermal runaway"),
            };
            println!("{} without TECs:", system.name());
            show("variable-ω", &var);
            show("fixed 2000", &fixed);
            ExitCode::SUCCESS
        }
        "sweep" => {
            let sweep = SweepGrid::default().run(&system.reduced_tec_model());
            let csv = sweep.to_csv();
            match args.get(2) {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, csv) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("surface written to {path}");
                }
                None => print!("{csv}"),
            }
            ExitCode::SUCCESS
        }
        "margin" => {
            let (Some(rpm), Some(amps)) = (
                args.get(2).and_then(|s| s.parse::<f64>().ok()),
                args.get(3).and_then(|s| s.parse::<f64>().ok()),
            ) else {
                eprintln!("usage: oftec-cli margin <benchmark> <rpm> <amps>");
                return ExitCode::FAILURE;
            };
            let op =
                OperatingPoint::new(AngularVelocity::from_rpm(rpm), Current::from_amperes(amps));
            match system.tec_model().runaway_margin(op) {
                Some(m) => {
                    println!(
                        "{} at ({rpm:.0} RPM, {amps:.2} A): stability margin {m:.5} W/K",
                        system.name()
                    );
                    ExitCode::SUCCESS
                }
                None => {
                    println!(
                        "{} at ({rpm:.0} RPM, {amps:.2} A): thermal runaway (no margin)",
                        system.name()
                    );
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
