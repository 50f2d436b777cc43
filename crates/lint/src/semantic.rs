//! Semantic rules L008–L013 over the AST and dataflow summaries.
//!
//! Two phases:
//!
//! - **Per-file** ([`file_findings`]): rules that depend only on one
//!   file's AST and symbols — L008 (unordered collections: declarations
//!   and taint-to-sink iteration) and L012 (narrowing numeric casts on
//!   solver paths).
//! - **Crate phase** ([`crate_findings`]): rules that compose per-function
//!   summaries across a crate — L009 (atomic-ordering publication audit),
//!   L010 (lock-order cycles), L011 (blocking while locked on serve hot
//!   paths), L013 (allocation under `// oftec-lint: hot` reachability).
//!   These compose the per-file summaries.
//!
//! See DESIGN.md §18 for each rule's rationale and suppression guidance.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{File, Item};
use crate::dataflow::{AtomicKind, FnSummary, LockId};
use crate::engine::{Finding, Status};
use crate::resolve::{self, FileSymbols};
use crate::rules::{self, FileKind};

fn finding(rule: &'static str, file: &str, line: u32, col: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line,
        col,
        message,
        status: Status::Active,
    }
}

fn rule_applies(id: &str, krate: &str, kind: FileKind) -> bool {
    rules::rule(id).is_some_and(|r| r.applies(krate, kind))
}

/// Per-file semantic findings: L008 and L012.
pub fn file_findings(
    rel: &str,
    krate: &str,
    kind: FileKind,
    ast: &File,
    syms: &FileSymbols,
    summaries: &[FnSummary],
) -> Vec<Finding> {
    let mut out = Vec::new();

    if rule_applies("L008", krate, kind) {
        l008_declarations(rel, ast, syms, &mut out);
        let mut seen_lines: BTreeSet<u32> = out.iter().map(|f| f.line).collect();
        for s in summaries.iter().filter(|s| !s.is_test) {
            for (desc, line) in &s.unordered_decls {
                if seen_lines.insert(*line) {
                    out.push(finding(
                        "L008",
                        rel,
                        *line,
                        1,
                        format!(
                            "unordered collection `{desc}` in a determinism-contract crate; \
                             use BTreeMap/BTreeSet or add a reasoned allow"
                        ),
                    ));
                }
            }
            for site in &s.hash_iters {
                if let Some(sink) = &site.sink {
                    out.push(finding(
                        "L008",
                        rel,
                        site.line,
                        site.col,
                        format!(
                            "iteration over unordered `{}` flows into {sink}; iteration order \
                             depends on hasher state — sort first or use an ordered collection",
                            site.desc
                        ),
                    ));
                }
            }
        }
    }

    if rule_applies("L012", krate, kind) {
        for s in summaries.iter().filter(|s| !s.is_test) {
            for c in &s.casts {
                out.push(finding(
                    "L012",
                    rel,
                    c.line,
                    c.col,
                    format!(
                        "lossy numeric cast `as {}` on a solver path; keep f64/usize precision \
                         or add a reasoned allow",
                        c.ty
                    ),
                ));
            }
        }
    }

    out
}

/// L008 declaration layer over items: imports, struct fields, statics.
fn l008_declarations(rel: &str, ast: &File, syms: &FileSymbols, out: &mut Vec<Finding>) {
    fn visit(items: &[Item], rel: &str, syms: &FileSymbols, out: &mut Vec<Finding>) {
        for item in items {
            match item {
                Item::Use { path, .. } => {
                    if path
                        .last()
                        .is_some_and(|leaf| leaf == "HashMap" || leaf == "HashSet")
                    {
                        // line is carried on the Use item
                    } else {
                        continue;
                    }
                    if let Item::Use { line, path, .. } = item {
                        out.push(finding(
                            "L008",
                            rel,
                            *line,
                            1,
                            format!(
                                "import of unordered `{}` in a determinism-contract crate; \
                                 use BTreeMap/BTreeSet or add a reasoned allow",
                                path.join("::")
                            ),
                        ));
                    }
                }
                Item::Struct { fields, .. } => {
                    for f in fields {
                        if resolve::type_contains_unordered(&f.ty, syms) {
                            out.push(finding(
                                "L008",
                                rel,
                                f.line,
                                1,
                                format!(
                                    "field `{}: {}` holds an unordered collection; its \
                                     iteration order depends on hasher state",
                                    f.name, f.ty
                                ),
                            ));
                        }
                    }
                }
                Item::Static { name, ty, line } if resolve::type_contains_unordered(ty, syms) => {
                    out.push(finding(
                        "L008",
                        rel,
                        *line,
                        1,
                        format!("static `{name}: {ty}` holds an unordered collection"),
                    ));
                }
                Item::Impl { items, .. } => visit(items, rel, syms, out),
                Item::Mod {
                    items,
                    cfg_test: false,
                    ..
                } => visit(items, rel, syms, out),
                _ => {}
            }
        }
    }
    visit(&ast.items, rel, syms, out);
}

/// Everything the crate phase needs per analyzed file.
#[derive(Debug)]
pub struct FileFacts<'a> {
    pub rel: &'a str,
    pub krate: &'a str,
    pub kind: FileKind,
    pub summaries: &'a [FnSummary],
    pub hot_lines: &'a [u32],
}

/// Crate-phase findings: L009, L010, L011, L013. Input files must be in
/// path order; output is deterministic.
pub fn crate_findings(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut crates: Vec<&str> = files.iter().map(|f| f.krate).collect();
    crates.dedup();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for krate in crates {
        if !seen.insert(krate) {
            continue;
        }
        let members: Vec<&FileFacts> = files.iter().filter(|f| f.krate == krate).collect();
        l009_atomic_audit(krate, &members, &mut out);
        l010_lock_order(krate, &members, &mut out);
        l011_blocking(krate, &members, &mut out);
        l013_hot_allocations(krate, &members, &mut out);
    }
    out
}

/// Iterator over all non-test function summaries of a crate, with their
/// file.
fn crate_fns<'a>(
    members: &'a [&'a FileFacts<'a>],
) -> impl Iterator<Item = (&'a str, FileKind, &'a FnSummary)> {
    members.iter().flat_map(|f| {
        f.summaries
            .iter()
            .filter(|s| !s.is_test)
            .map(move |s| (f.rel, f.kind, s))
    })
}

fn l009_atomic_audit(krate: &str, members: &[&FileFacts], out: &mut Vec<Finding>) {
    #[derive(Default)]
    struct FieldStat {
        release_store: bool,
        gating_load: bool,
    }
    let mut stats: BTreeMap<&str, FieldStat> = BTreeMap::new();
    for (_, _, s) in crate_fns(members) {
        for op in &s.atomics {
            let st = stats.entry(op.field.as_str()).or_default();
            match op.kind {
                AtomicKind::Store => {
                    if matches!(op.ordering.as_str(), "Release" | "AcqRel" | "SeqCst") {
                        st.release_store = true;
                    }
                }
                AtomicKind::Load => {
                    if op.gating {
                        st.gating_load = true;
                    }
                }
                AtomicKind::Rmw => {}
            }
        }
    }
    for (rel, kind, s) in crate_fns(members) {
        if !rule_applies("L009", krate, kind) {
            continue;
        }
        for op in &s.atomics {
            let Some(st) = stats.get(op.field.as_str()) else {
                continue;
            };
            match op.kind {
                AtomicKind::Store
                    if op.ordering == "Relaxed"
                        && op.after_write
                        && !s.has_release_fence
                        && st.gating_load =>
                {
                    out.push(finding(
                        "L009",
                        rel,
                        op.line,
                        op.col,
                        format!(
                            "Relaxed store to `{}` publishes data written earlier in `{}` and \
                             is observed by a gating load elsewhere; use Ordering::Release (or \
                             a release fence) so the data write cannot be reordered after the \
                             flag",
                            op.field, s.key
                        ),
                    ));
                }
                AtomicKind::Load
                    if op.ordering == "Relaxed"
                        && op.gating
                        && !s.has_acquire_fence
                        && st.release_store =>
                {
                    out.push(finding(
                        "L009",
                        rel,
                        op.line,
                        op.col,
                        format!(
                            "Relaxed load of `{}` gates data access in `{}` but the field is \
                             published with Release; use Ordering::Acquire (or an acquire \
                             fence) to order the subsequent reads",
                            op.field, s.key
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Index of a crate's functions for call resolution: exact `Ty::m` keys
/// plus unique bare names.
struct CallIndex {
    by_key: BTreeMap<String, usize>,
    by_bare: BTreeMap<String, Vec<usize>>,
}

fn call_index(fns: &[(&str, FileKind, &FnSummary)]) -> CallIndex {
    let mut by_key = BTreeMap::new();
    let mut by_bare: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, (_, _, s)) in fns.iter().enumerate() {
        by_key.entry(s.key.clone()).or_insert(i);
        by_bare.entry(s.bare.clone()).or_default().push(i);
    }
    CallIndex { by_key, by_bare }
}

impl CallIndex {
    fn resolve(&self, callee: &str) -> Option<usize> {
        if let Some(&i) = self.by_key.get(callee) {
            return Some(i);
        }
        let bare = callee.rsplit("::").next().unwrap_or(callee);
        match self.by_bare.get(bare) {
            Some(list) if list.len() == 1 => Some(list[0]),
            _ => None,
        }
    }
}

fn is_graph_lock(id: &LockId) -> bool {
    id.0 != "local" && id.0 != "expr"
}

fn lock_name(id: &LockId) -> String {
    format!("{}.{}", id.0, id.1)
}

fn l010_lock_order(krate: &str, members: &[&FileFacts], out: &mut Vec<Finding>) {
    let fns: Vec<(&str, FileKind, &FnSummary)> = crate_fns(members).collect();
    let index = call_index(&fns);

    // Transitive "may acquire" set per function (fixpoint over calls).
    let mut acquired: Vec<BTreeSet<LockId>> = fns
        .iter()
        .map(|(_, _, s)| {
            s.lock_acqs
                .iter()
                .filter(|a| is_graph_lock(&a.id))
                .map(|a| a.id.clone())
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut add: Vec<LockId> = Vec::new();
            for call in &fns[i].2.calls {
                if let Some(j) = index.resolve(&call.callee) {
                    for id in &acquired[j] {
                        if !acquired[i].contains(id) {
                            add.push(id.clone());
                        }
                    }
                }
            }
            for id in add {
                acquired[i].insert(id);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edge set held → acquired, with first-seen provenance.
    #[derive(Debug)]
    struct Prov {
        file: String,
        line: u32,
        via: String,
    }
    let mut edges: BTreeMap<(LockId, LockId), Prov> = BTreeMap::new();
    for (rel, _, s) in &fns {
        for acq in &s.lock_acqs {
            if !is_graph_lock(&acq.id) {
                continue;
            }
            for held in &acq.held_before {
                if is_graph_lock(held) && *held != acq.id {
                    edges
                        .entry((held.clone(), acq.id.clone()))
                        .or_insert_with(|| Prov {
                            file: rel.to_string(),
                            line: acq.line,
                            via: s.key.clone(),
                        });
                }
            }
        }
        for call in &s.calls {
            if call.locks_held.is_empty() {
                continue;
            }
            let Some(j) = index.resolve(&call.callee) else {
                continue;
            };
            for held in &call.locks_held {
                if !is_graph_lock(held) {
                    continue;
                }
                for target in &acquired[j] {
                    if target != held {
                        edges
                            .entry((held.clone(), target.clone()))
                            .or_insert_with(|| Prov {
                                file: rel.to_string(),
                                line: call.line,
                                via: format!("{} -> {}", s.key, call.callee),
                            });
                    }
                }
            }
        }
    }

    // Cycle detection: for each edge a→b, is a reachable from b?
    let mut adj: BTreeMap<&LockId, Vec<&LockId>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let reachable = |from: &LockId, to: &LockId| -> Option<Vec<LockId>> {
        let mut stack = vec![(from, vec![from.clone()])];
        let mut seen: BTreeSet<&LockId> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path);
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(nexts) = adj.get(node) {
                for n in nexts {
                    let mut p = path.clone();
                    p.push((*n).clone());
                    stack.push((n, p));
                }
            }
        }
        None
    };
    let mut reported: BTreeSet<BTreeSet<LockId>> = BTreeSet::new();
    for ((a, b), prov) in &edges {
        if a == b {
            continue;
        }
        let Some(path) = reachable(b, a) else {
            continue;
        };
        let members_set: BTreeSet<LockId> =
            path.iter().cloned().chain([a.clone(), b.clone()]).collect();
        if !reported.insert(members_set) {
            continue;
        }
        if !rule_applies("L010", krate, FileKind::Lib) {
            continue;
        }
        let chain: Vec<String> = path.iter().map(lock_name).collect();
        out.push(finding(
            "L010",
            &prov.file,
            prov.line,
            1,
            format!(
                "lock-order cycle: `{}` is acquired while holding `{}` (in `{}`), but the \
                 reverse chain {} also exists — two threads taking the chains concurrently \
                 deadlock; pick one global order",
                lock_name(b),
                lock_name(a),
                prov.via,
                chain.join(" -> "),
            ),
        ));
    }
}

fn l011_blocking(krate: &str, members: &[&FileFacts], out: &mut Vec<Finding>) {
    for (rel, kind, s) in crate_fns(members) {
        if !rule_applies("L011", krate, kind) {
            continue;
        }
        for b in &s.blocking {
            out.push(finding(
                "L011",
                rel,
                b.line,
                b.col,
                format!(
                    "blocking operation ({}) in `{}` while holding lock `{}` — this stalls \
                     every thread contending on the lock on the serve hot path",
                    b.what,
                    s.key,
                    lock_name(&b.held),
                ),
            ));
        }
    }
}

fn l013_hot_allocations(krate: &str, members: &[&FileFacts], out: &mut Vec<Finding>) {
    let fns: Vec<(&str, FileKind, &FnSummary)> = crate_fns(members).collect();
    let index = call_index(&fns);

    // Roots: functions whose definition directly follows a
    // `// oftec-lint: hot` marker (within 3 lines, attributes allowed).
    let mut roots: Vec<(usize, String)> = Vec::new();
    for facts in members {
        for &hot in facts.hot_lines {
            let mut best: Option<usize> = None;
            for (i, (rel, _, s)) in fns.iter().enumerate() {
                if *rel == facts.rel && s.line > hot && s.line <= hot + 3 {
                    let better = match best {
                        Some(b) => s.line < fns[b].2.line,
                        None => true,
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            if let Some(i) = best {
                roots.push((i, format!("{}:{hot}", facts.rel)));
            }
        }
    }

    // BFS from the roots over the call graph; remember the first root
    // that reaches each function.
    let mut origin: BTreeMap<usize, String> = BTreeMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, marker) in &roots {
        if !origin.contains_key(i) {
            origin.insert(*i, marker.clone());
            queue.push(*i);
        }
    }
    while let Some(i) = queue.pop() {
        let marker = origin[&i].clone();
        for call in &fns[i].2.calls {
            if let Some(j) = index.resolve(&call.callee) {
                if let std::collections::btree_map::Entry::Vacant(e) = origin.entry(j) {
                    e.insert(marker.clone());
                    queue.push(j);
                }
            }
        }
    }

    let mut hits: Vec<(usize, String)> = origin.into_iter().collect();
    hits.sort();
    for (i, marker) in hits {
        let (rel, kind, s) = fns[i];
        if !rule_applies("L013", krate, kind) {
            continue;
        }
        for a in &s.allocs {
            out.push(finding(
                "L013",
                rel,
                a.line,
                a.col,
                format!(
                    "heap allocation ({}) in `{}`, reachable from the hot marker at {marker}; \
                     hot-path functions must not allocate per request",
                    a.what, s.key,
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind};
    use crate::parser::parse_file;

    struct Analyzed {
        summaries: Vec<FnSummary>,
        file_findings: Vec<Finding>,
    }

    fn analyze(rel: &str, krate: &str, src: &str) -> Analyzed {
        let toks: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let ast = parse_file(&toks);
        let syms = resolve::collect(&ast);
        let mut summaries = Vec::new();
        crate::ast::for_each_fn(&ast.items, &mut |def| {
            summaries.push(crate::dataflow::summarize(def, &syms, rel));
        });
        let file_findings = file_findings(rel, krate, FileKind::Lib, &ast, &syms, &summaries);
        Analyzed {
            summaries,
            file_findings,
        }
    }

    #[test]
    fn l008_flags_declaration_and_sinked_iteration() {
        let a = analyze(
            "crates/serve/src/x.rs",
            "serve",
            "use std::collections::HashMap;\n\
             pub struct S { map: HashMap<u32, u32> }\n\
             impl S {\n\
                 pub fn snapshot(&self) -> Vec<u32> {\n\
                     let mut out = Vec::new();\n\
                     for (_k, v) in self.map.iter() { out.push(*v); }\n\
                     out\n\
                 }\n\
             }\n",
        );
        let rules: Vec<(u32, &str)> = a.file_findings.iter().map(|f| (f.line, f.rule)).collect();
        // Import (line 1), field (line 2), iteration with sink (line 6).
        assert!(rules.contains(&(1, "L008")), "{rules:?}");
        assert!(rules.contains(&(2, "L008")), "{rules:?}");
        assert!(rules.contains(&(6, "L008")), "{rules:?}");
    }

    #[test]
    fn l008_silent_on_btreemap() {
        let a = analyze(
            "crates/serve/src/x.rs",
            "serve",
            "use std::collections::BTreeMap;\n\
             pub struct S { map: BTreeMap<u32, u32> }\n\
             impl S {\n\
                 pub fn snapshot(&self) -> Vec<u32> {\n\
                     self.map.values().copied().collect()\n\
                 }\n\
             }\n",
        );
        assert!(a.file_findings.is_empty(), "{:?}", a.file_findings);
    }

    #[test]
    fn l009_flags_relaxed_publication_pair() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub struct F { ready: AtomicU64, data: AtomicU64 }\n\
             impl F {\n\
                 pub fn publish(&self, v: u64) {\n\
                     self.data.store(v, Ordering::Relaxed);\n\
                     self.ready.store(1, Ordering::Relaxed);\n\
                 }\n\
                 pub fn consume(&self) -> u64 {\n\
                     if self.ready.load(Ordering::Relaxed) == 1 {\n\
                         return self.data.load(Ordering::Relaxed);\n\
                     }\n\
                     0\n\
                 }\n\
             }\n";
        let a = analyze("crates/serve/src/x.rs", "serve", src);
        let facts = [FileFacts {
            rel: "crates/serve/src/x.rs",
            krate: "serve",
            kind: FileKind::Lib,
            summaries: &a.summaries,
            hot_lines: &[],
        }];
        let found = crate_findings(&facts);
        let l009: Vec<u32> = found
            .iter()
            .filter(|f| f.rule == "L009")
            .map(|f| f.line)
            .collect();
        // The ready-flag store (line 6) publishes after the data write
        // and is observed by a gating load — flagged. With no Release
        // store anywhere, the load side stays quiet.
        assert_eq!(l009, vec![6], "{found:?}");
    }

    #[test]
    fn l009_correct_seqlock_is_clean() {
        let src = "use std::sync::atomic::{fence, AtomicU64, Ordering};\n\
             pub struct R { seq: AtomicU64, word: AtomicU64 }\n\
             impl R {\n\
                 pub fn write(&self, v: u64) {\n\
                     self.seq.store(1, Ordering::Relaxed);\n\
                     self.word.store(v, Ordering::Relaxed);\n\
                     self.seq.store(2, Ordering::Release);\n\
                 }\n\
                 pub fn read(&self) -> u64 {\n\
                     let v1 = self.seq.load(Ordering::Acquire);\n\
                     let w = self.word.load(Ordering::Relaxed);\n\
                     fence(Ordering::Acquire);\n\
                     let v2 = self.seq.load(Ordering::Relaxed);\n\
                     if v1 == v2 { return w; }\n\
                     0\n\
                 }\n\
             }\n";
        let a = analyze("crates/telemetry/src/x.rs", "telemetry", src);
        let facts = [FileFacts {
            rel: "crates/telemetry/src/x.rs",
            krate: "telemetry",
            kind: FileKind::Lib,
            summaries: &a.summaries,
            hot_lines: &[],
        }];
        let found = crate_findings(&facts);
        let l009: Vec<&Finding> = found.iter().filter(|f| f.rule == "L009").collect();
        // writer: first seq store is Relaxed but happens before any
        // non-local write in the fn — not a publication. word stores are
        // never gating-loaded. reader: the Relaxed recheck is covered by
        // the acquire fence.
        assert!(l009.is_empty(), "{l009:?}");
    }

    #[test]
    fn l010_reports_ab_ba_cycle() {
        let src = "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn ab(&self) {\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     let _ = (ga, gb);\n\
                 }\n\
                 pub fn ba(&self) {\n\
                     let gb = self.b.lock().unwrap();\n\
                     let ga = self.a.lock().unwrap();\n\
                     let _ = (ga, gb);\n\
                 }\n\
             }\n";
        let a = analyze("crates/serve/src/x.rs", "serve", src);
        let facts = [FileFacts {
            rel: "crates/serve/src/x.rs",
            krate: "serve",
            kind: FileKind::Lib,
            summaries: &a.summaries,
            hot_lines: &[],
        }];
        let found = crate_findings(&facts);
        let l010: Vec<&Finding> = found.iter().filter(|f| f.rule == "L010").collect();
        assert_eq!(l010.len(), 1, "{found:?}");
        assert!(l010[0].message.contains("S.a"));
        assert!(l010[0].message.contains("S.b"));
    }

    #[test]
    fn l010_cross_function_cycle_through_calls() {
        let src = "use std::sync::Mutex;\n\
             pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn outer(&self) {\n\
                     let ga = self.a.lock().unwrap();\n\
                     self.inner();\n\
                     let _ = ga;\n\
                 }\n\
                 fn inner(&self) {\n\
                     let gb = self.b.lock().unwrap();\n\
                     let _ = gb;\n\
                 }\n\
                 pub fn reverse(&self) {\n\
                     let gb = self.b.lock().unwrap();\n\
                     let ga = self.a.lock().unwrap();\n\
                     let _ = (ga, gb);\n\
                 }\n\
             }\n";
        let a = analyze("crates/serve/src/x.rs", "serve", src);
        let facts = [FileFacts {
            rel: "crates/serve/src/x.rs",
            krate: "serve",
            kind: FileKind::Lib,
            summaries: &a.summaries,
            hot_lines: &[],
        }];
        let found = crate_findings(&facts);
        assert_eq!(
            found.iter().filter(|f| f.rule == "L010").count(),
            1,
            "{found:?}"
        );
    }

    #[test]
    fn l013_flags_allocation_reachable_from_hot_marker() {
        let src = "pub fn hot_entry(n: usize) -> usize { helper(n) }\n\
             fn helper(n: usize) -> usize {\n\
                 let v = Vec::new();\n\
                 let _ = v;\n\
                 n\n\
             }\n\
             fn cold() -> String { format!(\"x\") }\n";
        let a = analyze("crates/serve/src/x.rs", "serve", src);
        let facts = [FileFacts {
            rel: "crates/serve/src/x.rs",
            krate: "serve",
            kind: FileKind::Lib,
            summaries: &a.summaries,
            // marker on line 0 → hot_entry (line 1) is the root
            hot_lines: &[0],
        }];
        let found = crate_findings(&facts);
        let l013: Vec<(&str, u32)> = found
            .iter()
            .filter(|f| f.rule == "L013")
            .map(|f| (f.message.split('`').nth(1).unwrap_or(""), f.line))
            .collect();
        assert_eq!(l013, vec![("helper", 3)], "{found:?}");
    }
}
