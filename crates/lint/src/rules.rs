//! The rule table: which invariant each rule encodes, where it applies,
//! and the registry counter it reports through.
//!
//! Scoping is two-dimensional: a **target kind** (library, binary,
//! example, bench) derived from the file's path, and a **crate list**
//! (allow- or deny-based) derived from the workspace layout. Test code —
//! `tests/` directories and `#[cfg(test)]` modules — is outside every
//! rule's scope by construction; the engine never hands it to a matcher.

/// Which compilation target a `.rs` file belongs to, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/` outside `bin/`).
    Lib,
    /// Binary target (`src/bin/`, `src/main.rs`).
    Bin,
    /// `examples/` target.
    Example,
    /// Criterion bench under `benches/`.
    Bench,
}

/// How a rule's crate list is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateScope {
    /// Applies everywhere except the listed crates.
    AllExcept(&'static [&'static str]),
    /// Applies only in the listed crates.
    Only(&'static [&'static str]),
}

/// One lint rule's metadata; matching logic lives in the engine.
#[derive(Debug)]
pub struct Rule {
    /// Stable id (`L001`…).
    pub id: &'static str,
    /// One-line summary for `--list-rules` and diagnostics.
    pub title: &'static str,
    /// Which invariant the rule encodes and why (DESIGN.md §13).
    pub rationale: &'static str,
    /// Target kinds the rule scans.
    pub kinds: &'static [FileKind],
    /// Crates the rule scans.
    pub crates: CrateScope,
    /// Telemetry counter accumulating this rule's findings.
    pub counter: &'static str,
}

use CrateScope::{AllExcept, Only};
use FileKind::{Bench, Bin, Example, Lib};

/// The rule table. `L000` is the meta-rule for the suppression syntax
/// itself and is always in scope. The token-level invariants (no
/// unwrap/panic/print on library paths, no raw threads or wall clock in
/// deterministic crates, exact float compares, `#[must_use]` solver
/// results) are compiler gates — clippy and rustc lints wired in `ci.sh`
/// and `clippy.toml` — not rules of this tool.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L000",
        title: "malformed `oftec-lint: allow(...)` suppression",
        rationale: "A suppression without a rule id or without a reason defeats the \
                    audit trail the mechanism exists to provide; the reason is the \
                    documentation of why the invariant does not apply.",
        kinds: &[Lib, Bin, Example, Bench],
        crates: AllExcept(&[]),
        counter: "lint.findings.L000",
    },
    Rule {
        id: "L008",
        title: "unordered `HashMap`/`HashSet` in determinism-contract code",
        rationale: "Iteration order of hashed collections depends on hasher state, \
                    so any map iteration that reaches returned values, telemetry, \
                    or serialized output breaks the bit-identical contract. The \
                    rule flags both declarations (imports, fields, constructors) \
                    and iterations whose values the dataflow pass tracks into a \
                    sink; explicit sorting or `.collect::<BTreeMap<_,_>>()` \
                    sanitizes the flow.",
        kinds: &[Lib, Bin],
        crates: AllExcept(&["bench"]),
        counter: "lint.findings.L008",
    },
    Rule {
        id: "L009",
        title: "`Ordering::Relaxed` in an atomic publication/handoff pattern",
        rationale: "A Relaxed store that publishes earlier non-atomic writes, or a \
                    Relaxed load that gates data reads against a Release store, \
                    permits the CPU and compiler to reorder the data access past \
                    the flag — torn reads under contention. Standalone counters \
                    (no paired gating load) and RMW operations stay Relaxed; \
                    fence-based protocols (seqlock readers) are recognized via \
                    `fence(Acquire)`/`fence(Release)`.",
        kinds: &[Lib, Bin],
        crates: AllExcept(&[]),
        counter: "lint.findings.L009",
    },
    Rule {
        id: "L010",
        title: "lock-order cycle across `Mutex`/`RwLock` acquisition chains",
        rationale: "Two functions acquiring the same pair of locks in opposite \
                    orders deadlock under concurrency the moment both chains run; \
                    the lock graph composes per-function \"locks held at call\" \
                    summaries through the intra-crate call graph, so indirect \
                    A→call→B orderings are seen too. Fix by choosing one global \
                    acquisition order.",
        kinds: &[Lib, Bin],
        crates: AllExcept(&[]),
        counter: "lint.findings.L010",
    },
    Rule {
        id: "L011",
        title: "blocking call while holding a lock on a serve hot path",
        rationale: "`thread::sleep`, channel `recv`, `join`, socket accept/connect, \
                    or a second lock acquisition while a `Mutex`/`RwLock` guard is \
                    live serializes every thread contending on that lock — at \
                    100k+ rps a single blocked guard holder collapses tail \
                    latency. Confined to `serve`, whose request path owns the \
                    latency SLO.",
        kinds: &[Lib],
        crates: Only(&["serve"]),
        counter: "lint.findings.L011",
    },
    Rule {
        id: "L012",
        title: "lossy numeric `as` cast on a solver path",
        rationale: "Narrowing casts (`f64→f32`, `usize→u32`) silently lose \
                    precision or truncate; solver-path numerics stay f64/usize.",
        kinds: &[Lib],
        crates: Only(&["linalg", "optim", "thermal", "core", "power"]),
        counter: "lint.findings.L012",
    },
    Rule {
        id: "L013",
        title: "heap allocation in a function reachable from a `hot` marker",
        rationale: "Functions annotated `// oftec-lint: hot` (and everything they \
                    call, via the intra-crate call graph) run per request or per \
                    telemetry record; `Vec::new`/`format!`/`Box::new`/`.clone()` \
                    there turns a lock-free fast path into an allocator \
                    rendezvous. Preallocate in the constructor or use fixed \
                    buffers.",
        kinds: &[Lib, Bin],
        crates: AllExcept(&[]),
        counter: "lint.findings.L013",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

impl Rule {
    /// Whether this rule scans the given crate/target combination.
    pub fn applies(&self, krate: &str, kind: FileKind) -> bool {
        if !self.kinds.contains(&kind) {
            return false;
        }
        match self.crates {
            AllExcept(list) => !list.contains(&krate),
            Only(list) => list.contains(&krate),
        }
    }
}
