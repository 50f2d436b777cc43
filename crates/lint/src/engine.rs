//! The per-file analysis: suppression and hot-marker directives, the
//! parse/resolve/dataflow pipeline feeding the semantic rules, and
//! inline-suppression handling.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::FileKind;
use std::collections::BTreeMap;

/// Whether a finding survived inline suppression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Fails the gate.
    Active,
    /// Silenced by an inline `oftec-lint: allow(...)` with a reason.
    Suppressed,
}

impl Status {
    /// Stable wire name for the JSONL report.
    pub fn name(self) -> &'static str {
        match self {
            Status::Active => "active",
            Status::Suppressed => "suppressed",
        }
    }
}

/// One diagnostic at a `file:line:col` position.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub status: Status,
}

/// An `// oftec-lint: allow(L00X, reason)` directive; covers its own
/// line and the next.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rules: Vec<String>,
    pub line: u32,
}

/// Classifies a workspace-relative path into its owning crate and target
/// kind. Returns `None` for files outside any analyzable target.
pub fn classify(rel: &str) -> Option<(String, FileKind)> {
    let norm = rel.replace('\\', "/");
    if norm
        .split('/')
        .any(|seg| seg == "tests" || seg == "target" || seg == "vendor")
    {
        return None;
    }
    let krate = match norm.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next()?.to_string(),
        None => "repro".to_string(),
    };
    let kind = if norm.split('/').any(|seg| seg == "benches") {
        FileKind::Bench
    } else if norm.split('/').any(|seg| seg == "examples") {
        FileKind::Example
    } else if norm.contains("/src/bin/") || norm.ends_with("src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    Some((krate, kind))
}

/// Everything one file's analysis produces: findings with suppression
/// status applied, the suppression table (the crate phase re-applies it
/// to cross-function findings), `// oftec-lint: hot` marker lines, and
/// the per-function dataflow summaries. Depends only on the file's own
/// bytes.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
    pub hot_lines: Vec<u32>,
    pub summaries: Vec<crate::dataflow::FnSummary>,
    /// Findings silenced by an inline allow.
    pub suppressed: usize,
}

/// Full per-file analysis: directive parsing, the file-local semantic
/// rules (L008, L012), suppression handling, and function summaries for
/// the crate phase (L009–L011, L013).
pub fn analyze_source(rel: &str, src: &str, krate: &str, kind: FileKind) -> FileAnalysis {
    let toks = lex(src);
    let mut findings = Vec::new();

    // Pass 1: suppression and hot-marker directives (and their own
    // diagnostics) from line comments.
    let mut sups: Vec<Suppression> = Vec::new();
    let mut hot_lines: Vec<u32> = Vec::new();
    for t in &toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        parse_suppression(t, &mut sups, &mut hot_lines, &mut findings, rel);
    }

    // Pass 2: parse the code tokens, resolve, summarize, and run the
    // file-local semantic rules.
    let code: Vec<Tok> = toks
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let ast = crate::parser::parse_file(&code);
    let syms = crate::resolve::collect(&ast);
    let mut summaries = Vec::new();
    crate::ast::for_each_fn(&ast.items, &mut |def| {
        summaries.push(crate::dataflow::summarize(def, &syms, rel));
    });
    findings.extend(crate::semantic::file_findings(
        rel, krate, kind, &ast, &syms, &summaries,
    ));

    // Pass 3: apply suppressions. A directive covers findings on its own
    // line and the line below it.
    let suppressed = apply_suppressions(&mut findings, &sups);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileAnalysis {
        findings,
        suppressions: sups,
        hot_lines,
        summaries,
        suppressed,
    }
}

/// Marks findings covered by an allow directive (own line or the line
/// above) as suppressed; returns how many were. Also used by the crate
/// phase on cross-function findings.
pub fn apply_suppressions(findings: &mut [Finding], sups: &[Suppression]) -> usize {
    let mut by_line: BTreeMap<u32, Vec<&Suppression>> = BTreeMap::new();
    for s in sups {
        by_line.entry(s.line).or_default().push(s);
        by_line.entry(s.line + 1).or_default().push(s);
    }
    let mut suppressed = 0;
    for f in findings {
        if f.rule == "L000" || f.status != Status::Active {
            continue;
        }
        let covered = by_line
            .get(&f.line)
            .is_some_and(|list| list.iter().any(|s| s.rules.iter().any(|r| r == f.rule)));
        if covered {
            f.status = Status::Suppressed;
            suppressed += 1;
        }
    }
    suppressed
}

/// Parses `// oftec-lint: allow(L00X[, L00Y…], reason)` and
/// `// oftec-lint: hot` out of a line comment. Malformed directives
/// become `L000` findings.
fn parse_suppression(
    t: &Tok,
    sups: &mut Vec<Suppression>,
    hot_lines: &mut Vec<u32>,
    findings: &mut Vec<Finding>,
    rel: &str,
) {
    let body = t.text.trim_start_matches('/').trim();
    let Some(rest) = body.strip_prefix("oftec-lint:") else {
        return;
    };
    if rest.trim() == "hot" {
        // Marks the next function as per-request hot: L013 forbids heap
        // allocation in it and everything it (transitively) calls.
        hot_lines.push(t.line);
        return;
    }
    let mut bad = |message: String| {
        findings.push(Finding {
            rule: "L000",
            file: rel.to_string(),
            line: t.line,
            col: t.col,
            message,
            status: Status::Active,
        });
    };
    let rest = rest.trim();
    let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
    else {
        bad(format!(
            "unrecognized oftec-lint directive `{rest}`; expected `allow(L00X, reason)`"
        ));
        return;
    };
    let mut rules = Vec::new();
    let mut reason = String::new();
    for (i, part) in inner.split(',').enumerate() {
        let part = part.trim();
        let is_id = part.len() == 4
            && part.starts_with('L')
            && part[1..].chars().all(|c| c.is_ascii_digit());
        if is_id && reason.is_empty() {
            rules.push(part.to_string());
        } else if !part.is_empty() {
            if !reason.is_empty() {
                reason.push_str(", ");
            }
            reason.push_str(part);
        } else if i == 0 {
            break;
        }
    }
    if rules.is_empty() {
        bad("suppression names no rule id; expected `allow(L00X, reason)`".to_string());
        return;
    }
    for id in &rules {
        if crate::rules::rule(id).is_none() {
            bad(format!("suppression names unknown rule `{id}`"));
            return;
        }
    }
    if reason.is_empty() {
        bad(format!(
            "suppression of {} is missing its reason; the reason documents why the \
             invariant does not apply here",
            rules.join("/")
        ));
        return;
    }
    sups.push(Suppression {
        rules,
        line: t.line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A narrowing cast in a solver crate: one L012 finding per line.
    const CAST: &str = "fn f(x: f64) -> u32 { x as u32 }";

    /// Active `(rule, line)` pairs from analyzing `src` as a thermal lib file.
    fn active(src: &str) -> Vec<(&'static str, u32)> {
        analyze_source("x.rs", src, "thermal", FileKind::Lib)
            .findings
            .iter()
            .filter(|f| f.status == Status::Active)
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/thermal/src/model.rs"),
            Some(("thermal".to_string(), FileKind::Lib))
        );
        assert_eq!(
            classify("crates/serve/src/bin/loadgen.rs"),
            Some(("serve".to_string(), FileKind::Bin))
        );
        assert_eq!(
            classify("examples/demo.rs"),
            Some(("repro".to_string(), FileKind::Example))
        );
        assert_eq!(
            classify("crates/bench/benches/solve.rs"),
            Some(("bench".to_string(), FileKind::Bench))
        );
        assert_eq!(classify("crates/core/tests/integration.rs"), None);
        assert_eq!(classify("vendor/dep/src/lib.rs"), None);
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = format!("{CAST}\n#[cfg(test)]\nmod tests {{\n    {CAST}\n}}\n{CAST}\n");
        assert_eq!(active(&src), [("L012", 1), ("L012", 6)]);
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let src = format!(
            "// oftec-lint: allow(L012, seeded fixture exercising the suppression path)\n\
             {CAST}\n{CAST}\n"
        );
        let a = analyze_source("x.rs", &src, "thermal", FileKind::Lib);
        assert_eq!(a.suppressed, 1);
        let statuses: Vec<Status> = a.findings.iter().map(|f| f.status).collect();
        assert_eq!(statuses, [Status::Suppressed, Status::Active]);
    }

    #[test]
    fn suppression_without_reason_is_flagged_and_inert() {
        let found = active(&format!("// oftec-lint: allow(L012)\n{CAST}\n"));
        assert!(found.contains(&("L000", 1)), "missing reason is a finding");
        assert!(
            found.contains(&("L012", 2)),
            "the bad allow silences nothing"
        );
    }

    #[test]
    fn suppression_with_unknown_rule_is_flagged() {
        // L001–L007 are clippy/rustc gates, so their ids are unknown too.
        for id in ["L999", "L003"] {
            let src = format!("// oftec-lint: allow({id}, no such rule)\nfn f() {{}}\n");
            assert_eq!(active(&src), [("L000", 1)], "{id}");
        }
    }

    #[test]
    fn unrecognized_directive_is_flagged() {
        let src = "// oftec-lint: disable-next-line\nfn f() {}\n";
        assert_eq!(active(src), [("L000", 1)]);
    }
}
