//! The tool is subject to its own gate: a full workspace run must report
//! no active findings in `crates/lint/`, and the whole workspace must be
//! clean.

use oftec_lint::run;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn lint_is_clean_on_its_own_source() {
    let report = run(&workspace_root()).expect("workspace scan succeeds");
    assert!(report.files_scanned > 0, "scan walked no files");

    let own: Vec<String> = report
        .active()
        .filter(|f| f.file.starts_with("crates/lint/"))
        .map(|f| format!("{}:{}:{} {} {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        own.is_empty(),
        "oftec-lint flags its own source:\n{}",
        own.join("\n")
    );
}

#[test]
fn workspace_is_clean() {
    let report = run(&workspace_root()).expect("workspace scan succeeds");
    let active: Vec<String> = report
        .active()
        .map(|f| format!("{}:{}:{} {} {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(active.is_empty(), "gate violations:\n{}", active.join("\n"));
}
