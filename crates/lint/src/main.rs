//! The `oftec-lint` binary: CI gate and developer tool.
//!
//! ```text
//! oftec-lint [--root DIR] [--format human|json] [--list-rules]
//!            [--telemetry-json PATH]
//! ```
//!
//! Every rule is denied. Exit codes: 0 clean, 1 active findings, 2 usage
//! or I/O error.

use oftec_lint::{render_human, render_jsonl, run, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    list_rules: bool,
    telemetry_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        list_rules: false,
        telemetry_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--format" => {
                args.json = match value("--format")?.as_str() {
                    "json" => true,
                    "human" => false,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--list-rules" => args.list_rules = true,
            "--telemetry-json" => args.telemetry_json = Some(value("--telemetry-json")?),
            "--help" | "-h" => {
                println!(
                    "usage: oftec-lint [--root DIR] [--format human|json] [--list-rules] \
                     [--telemetry-json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn list_rules() {
    println!("{:<5} {:<8} title", "rule", "scope");
    for r in RULES {
        let scope = match r.crates {
            oftec_lint::rules::CrateScope::AllExcept([]) => "all".to_string(),
            oftec_lint::rules::CrateScope::AllExcept(x) => format!("all -{}", x.join(",-")),
            oftec_lint::rules::CrateScope::Only(x) => x.join(","),
        };
        println!("{:<5} {:<8} {}", r.id, kinds_short(r.kinds), r.title);
        println!("      crates: {scope}");
    }
}

fn kinds_short(kinds: &[oftec_lint::FileKind]) -> String {
    kinds
        .iter()
        .map(|k| match k {
            oftec_lint::FileKind::Lib => "lib",
            oftec_lint::FileKind::Bin => "bin",
            oftec_lint::FileKind::Example => "ex",
            oftec_lint::FileKind::Bench => "bench",
        })
        .collect::<Vec<_>>()
        .join("+")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oftec-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }
    if args.telemetry_json.is_some() {
        oftec_telemetry::set_collecting(true);
    }
    let report = match run(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("oftec-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        print!("{}", render_jsonl(&report));
    } else {
        print!("{}", render_human(&report));
    }

    if let Some(path) = &args.telemetry_json {
        oftec_telemetry::flush();
        if let Err(e) = std::fs::write(path, oftec_telemetry::snapshot().to_json()) {
            eprintln!("oftec-lint: cannot write telemetry snapshot {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
