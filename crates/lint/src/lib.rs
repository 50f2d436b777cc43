//! **oftec-lint** — workspace-wide semantic analysis enforcing the OFTEC
//! repository's determinism and concurrency invariants.
//!
//! The compiler gates (clippy and rustc lints, see `ci.sh` and
//! `clippy.toml`) cover the token-level contracts: no unwrap, panic or
//! printing on library paths, no raw threads or wall-clock reads in
//! deterministic crates, no exact float compares, `#[must_use]` solver
//! results. What they cannot see needs dataflow across a function or a
//! crate: hashed-collection iteration reaching outputs (L008), Relaxed
//! atomic publication (L009), lock-order cycles (L010), blocking under a
//! lock on serve hot paths (L011), lossy solver casts (L012) and hot-path
//! allocation (L013). This crate is a std-only analysis pass with its own
//! Rust lexer, parser, per-file symbol resolution and dataflow summaries;
//! it walks every `.rs` file of the workspace members (skipping `target/`,
//! `vendor/` and `tests/` directories; `#[cfg(test)]` modules never reach
//! a rule) and emits `file:line:col` diagnostics as human text and JSONL.
//!
//! Escape hatch, after fixing the finding: `// oftec-lint: allow(L0XX,
//! reason)` on or above the offending line — the reason is mandatory and
//! audited (a missing one is itself a diagnostic, `L000`).
//!
//! See DESIGN.md §13 and §18 for the rule table and rationale.

pub mod ast;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod semantic;

pub use engine::{analyze_source, classify, Finding, Status};
pub use rules::{FileKind, Rule, RULES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything one run produced, for both report formats and the gate
/// decision.
#[derive(Debug)]
pub struct RunReport {
    /// Every finding, both statuses, sorted by `(file, line, col)`.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings silenced by inline allows.
    pub suppressed: usize,
}

impl RunReport {
    /// Findings that fail the gate.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.status == Status::Active)
    }

    /// Gate verdict: clean means no active findings.
    pub fn is_clean(&self) -> bool {
        self.active().next().is_none()
    }

    /// Active findings per rule id, in rule-table order.
    pub fn per_rule(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|r| (r.id, self.active().filter(|f| f.rule == r.id).count()))
            .collect()
    }
}

/// The workspace members' source roots under `root`: every crate in
/// `crates/` plus the root package's `src/` and `examples/` — the set
/// `cargo clippy --workspace` and `cargo fmt --all` cover.
const MEMBER_ROOTS: &[&str] = &["crates", "src", "examples"];

/// Collects every analyzable `.rs` file of the workspace members under
/// `root`, sorted for a deterministic report. Skips `target/`, `vendor/`,
/// `tests/` directories, and dot-directories.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = MEMBER_ROOTS
        .iter()
        .map(|m| root.join(m))
        .filter(|p| p.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | "tests") || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full analysis over the workspace at `root`.
///
/// Files are analyzed one at a time in path order (lex, parse, dataflow
/// and the file-local rules); the crate phase (L009–L011, L013) then
/// composes the function summaries. The run's statistics are mirrored
/// into `lint.*` telemetry counters.
pub fn run(root: &Path) -> Result<RunReport, String> {
    let _span = oftec_telemetry::span("lint.scan");
    let files = collect_files(root).map_err(|e| format!("walking workspace: {e}"))?;

    let mut per_file: Vec<(String, String, FileKind, engine::FileAnalysis)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        // Unclassifiable files are out of scope.
        let Some((krate, kind)) = classify(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let analysis = analyze_source(&rel, &src, &krate, kind);
        per_file.push((rel, krate, kind, analysis));
    }

    let files_scanned = per_file.len();
    let mut suppressed = 0usize;
    let mut findings: Vec<Finding> = Vec::new();
    for (_, _, _, a) in &per_file {
        suppressed += a.suppressed;
        findings.extend(a.findings.iter().cloned());
    }

    // Crate phase over the composed summaries, then the per-file
    // suppression tables applied to its cross-function findings.
    let facts: Vec<semantic::FileFacts> = per_file
        .iter()
        .map(|(rel, krate, kind, a)| semantic::FileFacts {
            rel,
            krate,
            kind: *kind,
            summaries: &a.summaries,
            hot_lines: &a.hot_lines,
        })
        .collect();
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in semantic::crate_findings(&facts) {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    let sup_of: BTreeMap<&str, &Vec<engine::Suppression>> = per_file
        .iter()
        .map(|(rel, _, _, a)| (rel.as_str(), &a.suppressions))
        .collect();
    for (file, mut group) in by_file {
        if let Some(sups) = sup_of.get(file.as_str()) {
            suppressed += engine::apply_suppressions(&mut group, sups);
        }
        findings.append(&mut group);
    }

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    let report = RunReport {
        findings,
        files_scanned,
        suppressed,
    };
    record_telemetry(&report);
    Ok(report)
}

/// Mirrors the run statistics into the `oftec-telemetry` registry so
/// `--telemetry-json` works on this binary like on every other workspace
/// binary.
fn record_telemetry(report: &RunReport) {
    oftec_telemetry::counter_add("lint.files_scanned", report.files_scanned as u64);
    oftec_telemetry::counter_add("lint.suppressed", report.suppressed as u64);
    for (rule, (_, n)) in RULES.iter().zip(report.per_rule()) {
        oftec_telemetry::counter_add(rule.counter, n as u64);
    }
}

/// Minimal JSON string escaping for the hand-rolled JSONL report.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the run as JSONL: one `finding` record per finding (both
/// statuses) and a trailing `summary` record.
pub fn render_jsonl(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{{\"type\":\"finding\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
             \"status\":\"{}\",\"message\":\"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            f.col,
            f.status.name(),
            json_escape(&f.message),
        );
    }
    let per_rule: Vec<String> = report
        .per_rule()
        .iter()
        .map(|(id, n)| format!("\"{id}\":{n}"))
        .collect();
    let _ = writeln!(
        out,
        "{{\"type\":\"summary\",\"files_scanned\":{},\"active\":{},\"suppressed\":{},\
         \"per_rule\":{{{}}}}}",
        report.files_scanned,
        report.active().count(),
        report.suppressed,
        per_rule.join(","),
    );
    out
}

/// Renders the run as human-readable diagnostics.
pub fn render_human(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in report.active() {
        let _ = writeln!(
            out,
            "{}:{}:{}: error[{}]: {}",
            f.file, f.line, f.col, f.rule, f.message
        );
    }
    let _ = writeln!(
        out,
        "oftec-lint: {} files, {} active finding(s), {} suppressed",
        report.files_scanned,
        report.active().count(),
        report.suppressed,
    );
    out
}
