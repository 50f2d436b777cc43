//! `oftec-fleet` — the fleet engine CLI.
//!
//! ```text
//! oftec-fleet run --seed 42 --shards 4 --per-shard 250 --out fleet-out
//! oftec-fleet repro fleet-out/repro_000000000000002a_1_17.json
//! oftec-fleet gen --seed 42 --shard 1 --index 17
//! ```
//!
//! Exit codes: `0` clean, `3` out-of-tolerance discrepancies found
//! (`run`), `2` a reproducer no longer reproduces (`repro`), `1` usage or
//! runtime error (including a reproducer whose spec does not build).

use oftec_fleet::diff::{FaultKindSpec, FaultPlan, FaultTarget};
use oftec_fleet::minimize::ReproCase;
use oftec_fleet::rng::Seed;
use oftec_fleet::runner::{run, RunConfig, TargetedFault};
use oftec_fleet::scenario::{ScenarioId, ScenarioSpec};

const USAGE: &str = "usage:
  oftec-fleet run [--seed N] [--shards N] [--per-shard N] [--out DIR]
                  [--threads N] [--batch N] [--cross-check-divisor N]
                  [--stop-after N] [--fault SHARD:INDEX:TARGET:KIND:FAIL_AT]
                  [--no-minimize]
  oftec-fleet repro FILE
  oftec-fleet gen [--seed N] [--shard N] [--index N]

  TARGET: sqp | interior_point | trust_region | reduced
  KIND:   non_finite | error | panic";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

/// Pulls the value of `--flag VALUE` out of `args`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let mut found = None;
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            match args.get(i + 1) {
                Some(v) => found = Some(v.as_str()),
                None => return Err(format!("{flag} requires a value")),
            }
        }
    }
    Ok(found)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: invalid value `{v}`")),
        None => Ok(default),
    }
}

fn parse_fault(text: &str) -> Result<TargetedFault, String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [shard, index, target, kind, fail_at] = parts.as_slice() else {
        return Err(format!(
            "--fault expects SHARD:INDEX:TARGET:KIND:FAIL_AT, got `{text}`"
        ));
    };
    let target = match *target {
        "sqp" => FaultTarget::Sqp,
        "interior_point" => FaultTarget::InteriorPoint,
        "trust_region" => FaultTarget::TrustRegion,
        "reduced" => FaultTarget::Reduced,
        other => return Err(format!("unknown fault target `{other}`")),
    };
    let kind = match *kind {
        "non_finite" => FaultKindSpec::NonFinite,
        "error" => FaultKindSpec::Error,
        "panic" => FaultKindSpec::Panic,
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(TargetedFault {
        shard: shard
            .parse()
            .map_err(|_| format!("bad fault shard `{shard}`"))?,
        index: index
            .parse()
            .map_err(|_| format!("bad fault index `{index}`"))?,
        plan: FaultPlan {
            target,
            kind,
            fail_at: fail_at
                .parse()
                .map_err(|_| format!("bad fault fail_at `{fail_at}`"))?,
        },
    })
}

fn build_config(args: &[String]) -> Result<RunConfig, String> {
    let out: String = parse_flag(args, "--out", "fleet-out".to_owned())?;
    let mut config = RunConfig::new(
        parse_flag(args, "--seed", 42u64)?,
        parse_flag(args, "--shards", 4u32)?,
        parse_flag(args, "--per-shard", 250u32)?,
        out.into(),
    );
    config.threads = parse_flag(args, "--threads", 0usize)?;
    config.batch = parse_flag(args, "--batch", 32usize)?;
    config.cross_check_divisor = parse_flag(args, "--cross-check-divisor", 16u64)?;
    if let Some(n) = flag_value(args, "--stop-after")? {
        config.stop_after = Some(n.parse().map_err(|_| format!("--stop-after: `{n}`"))?);
    }
    if let Some(f) = flag_value(args, "--fault")? {
        config.fault = Some(parse_fault(f)?);
    }
    if args.iter().any(|a| a == "--no-minimize") {
        config.minimize = false;
    }
    Ok(config)
}

fn cmd_run(args: &[String]) -> i32 {
    let config = match build_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 1;
        }
    };
    match run(&config) {
        Ok(summary) => {
            match serde_json::to_string(&summary) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("error: summary serialization failed: {e}");
                    return 1;
                }
            }
            if summary.discrepancies > 0 {
                eprintln!(
                    "{} out-of-tolerance discrepancies; reproducers: {}",
                    summary.discrepancies,
                    if summary.repro_files.is_empty() {
                        "none (run with minimization enabled)".to_owned()
                    } else {
                        summary.repro_files.join(", ")
                    }
                );
                3
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_repro(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("error: repro requires a file\n{USAGE}");
        return 1;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 1;
        }
    };
    let case: ReproCase = match serde_json::from_str(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {path} is not a reproducer: {e}");
            return 1;
        }
    };
    let failures = match case.replay() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return 1;
        }
    };
    match serde_json::to_string(&failures) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("error: failure serialization failed: {e}");
            return 1;
        }
    }
    if failures.is_empty() {
        eprintln!(
            "reproducer no longer reproduces (scenario {})",
            case.spec.id
        );
        2
    } else {
        0
    }
}

fn cmd_gen(args: &[String]) -> i32 {
    let parse = || -> Result<ScenarioId, String> {
        Ok(ScenarioId {
            run_seed: Seed(parse_flag(args, "--seed", 42u64)?),
            shard: parse_flag(args, "--shard", 0u32)?,
            index: parse_flag(args, "--index", 0u32)?,
        })
    };
    let id = match parse() {
        Ok(id) => id,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 1;
        }
    };
    let spec = ScenarioSpec::generate(id);
    match serde_json::to_string(&spec) {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
