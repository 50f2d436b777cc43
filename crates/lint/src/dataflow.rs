//! Intra-procedural dataflow: one abstract walk per function producing a
//! [`FnSummary`] of the facts the semantic rules consume.
//!
//! The walk is a small abstract interpreter over the AST: it tracks local
//! variable types (declared or inferred from `T::new()` constructors),
//! lock guards and their scopes, hash-iteration taint, and condition
//! nesting. It never fails — unknown expressions evaluate to
//! [`Val::Unknown`] and simply carry no facts. Summaries are per-function
//! and depend only on same-file information (imports, same-file struct
//! fields); the crate phase composes them into call graphs and lock graphs.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, FnDef, Stmt};
use crate::resolve::{self, FileSymbols};

/// Identity of a lock: `(owner, field)` — owner is the declaring type's
/// head name, or `"local"` / `"static"` for non-field locks.
pub type LockId = (String, String);

/// A call site with the locks held while making it.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// `Type::method`, a bare function name, or a bare method name when
    /// the receiver type is unknown.
    pub callee: String,
    pub line: u32,
    pub locks_held: Vec<LockId>,
}

/// A lock acquisition and what was already held.
#[derive(Debug, Clone)]
pub struct LockAcq {
    pub id: LockId,
    pub line: u32,
    pub col: u32,
    pub held_before: Vec<LockId>,
}

/// Kind of atomic access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    Store,
    Load,
    /// Read-modify-write (`fetch_*`, `compare_exchange*`, `swap`) —
    /// excluded from the ordering audit: RMWs are already synchronizing
    /// on the accessed location.
    Rmw,
}

/// One atomic operation on a field.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    /// `Type.field` key shared by all functions touching the field.
    pub field: String,
    pub kind: AtomicKind,
    /// `Relaxed` / `Acquire` / `Release` / `AcqRel` / `SeqCst` / `""`.
    pub ordering: String,
    /// Load feeds a branch condition (directly or via a local).
    pub gating: bool,
    /// Store happens after a non-local write in the same function — the
    /// shape of a publication (data written, then flag stored).
    pub after_write: bool,
    pub line: u32,
    pub col: u32,
}

/// A heap allocation site (L013).
#[derive(Debug, Clone)]
pub struct AllocSite {
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// A numeric narrowing cast (L012).
#[derive(Debug, Clone)]
pub struct CastSite {
    pub ty: String,
    pub line: u32,
    pub col: u32,
}

/// Iteration over an unordered collection, and the sink its values
/// reached, if any (L008).
#[derive(Debug, Clone)]
pub struct HashIterSite {
    pub desc: String,
    pub line: u32,
    pub col: u32,
    pub sink: Option<String>,
}

/// A potentially blocking operation performed while holding a lock
/// (L011).
#[derive(Debug, Clone)]
pub struct BlockSite {
    pub what: String,
    pub line: u32,
    pub col: u32,
    pub held: LockId,
}

/// Everything the crate phase needs to know about one function.
#[derive(Debug, Default)]
pub struct FnSummary {
    /// `Type::name` for associated functions, bare name otherwise.
    pub key: String,
    /// Bare method/function name, for receiver-type-less call matching.
    pub bare: String,
    pub file: String,
    pub line: u32,
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub lock_acqs: Vec<LockAcq>,
    pub atomics: Vec<AtomicOp>,
    pub has_acquire_fence: bool,
    pub has_release_fence: bool,
    pub allocs: Vec<AllocSite>,
    pub casts: Vec<CastSite>,
    pub hash_iters: Vec<HashIterSite>,
    pub blocking: Vec<BlockSite>,
    /// Declarations of unordered collections (`let m: HashMap<…>`,
    /// `HashMap::new()`), for the L008 declaration layer.
    pub unordered_decls: Vec<(String, u32)>,
}

/// Abstract value of an expression.
#[derive(Debug, Clone)]
enum Val {
    /// Known (or guessed) type text; empty string when only "some plain
    /// value" is known.
    Plain(String),
    /// A lock guard for `id`, derefing to `inner` type text.
    Guard(LockId, String),
    /// An iterator over an unordered collection.
    HashIter(String),
    /// Data derived from a hash iteration.
    Tainted,
    Unknown,
}

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "swap",
];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];
const ITER_ADAPTERS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "enumerate",
    "cloned",
    "copied",
    "take",
    "skip",
    "chain",
    "zip",
    "rev",
    "by_ref",
    "inspect",
];
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];
const CONTAINER_GROW: &[&str] = &["push", "insert", "extend", "push_str", "append"];
const EMIT_MACROS: &[&str] = &["write", "writeln", "print", "println", "eprint", "eprintln"];
const SINK_METHODS: &[&str] = &["record", "serialize", "write_all", "emit", "observe"];
const BLOCKING_METHODS: &[&str] = &["recv", "recv_timeout", "join", "accept", "connect"];
const NARROW_TARGETS: &[&str] = &["f32", "u32", "u16", "u8", "i32", "i16", "i8"];

struct Walker<'a> {
    syms: &'a FileSymbols,
    self_ty: Option<&'a str>,
    /// Scope stack of local variable types.
    vars: Vec<BTreeMap<String, Val>>,
    /// Held locks: (guard name if let-bound, id, scope depth at binding).
    held: Vec<(Option<String>, LockId, usize)>,
    /// Names carrying hash-iteration taint (sticky for the function).
    tainted: BTreeSet<String>,
    /// Locals assigned from atomic loads → indices into `out.atomics`.
    atomic_locals: BTreeMap<String, Vec<usize>>,
    in_condition: usize,
    saw_nonlocal_write: bool,
    /// A taint sink was reached (description).
    sink: Option<String>,
    out: FnSummary,
}

/// Summarizes one function. `file` is the repo-relative path used in
/// findings.
pub fn summarize(def: &FnDef, syms: &FileSymbols, file: &str) -> FnSummary {
    let key = match &def.self_ty {
        Some(ty) if !ty.is_empty() => format!("{ty}::{}", def.name),
        _ => def.name.clone(),
    };
    let mut w = Walker {
        syms,
        self_ty: def.self_ty.as_deref(),
        vars: vec![BTreeMap::new()],
        held: Vec::new(),
        tainted: BTreeSet::new(),
        atomic_locals: BTreeMap::new(),
        in_condition: 0,
        saw_nonlocal_write: false,
        sink: None,
        out: FnSummary {
            key,
            bare: def.name.clone(),
            file: file.to_string(),
            line: def.line,
            is_test: def.is_test,
            ..FnSummary::default()
        },
    };
    for (name, ty) in &def.params {
        w.vars[0].insert(name.clone(), Val::Plain(ty.clone()));
    }
    if let Some(body) = &def.body {
        let tail = w.walk_block(body);
        if def.ret.is_some() {
            if let Val::Tainted | Val::HashIter(_) = tail {
                w.sink = Some("returned value".to_string());
            }
        }
    }
    if let Some(sink) = w.sink {
        for site in &mut w.out.hash_iters {
            site.sink = Some(sink.clone());
        }
    }
    w.out
}

impl<'a> Walker<'a> {
    fn lookup(&self, name: &str) -> Option<&Val> {
        self.vars.iter().rev().find_map(|scope| scope.get(name))
    }

    fn bind(&mut self, name: &str, val: Val) {
        if let Some(scope) = self.vars.last_mut() {
            scope.insert(name.to_string(), val);
        }
    }

    fn held_ids(&self) -> Vec<LockId> {
        self.held.iter().map(|(_, id, _)| id.clone()).collect()
    }

    /// Walks a block in its own scope; returns the value of its tail
    /// expression.
    fn walk_block(&mut self, block: &Block) -> Val {
        self.vars.push(BTreeMap::new());
        let depth = self.vars.len();
        let mut last = Val::Unknown;
        for stmt in &block.stmts {
            last = self.walk_stmt(stmt, depth);
            // Expression-temporary guards die at the end of the
            // statement.
            self.held.retain(|(name, _, _)| name.is_some());
        }
        self.vars.pop();
        self.held.retain(|(_, _, d)| *d < depth);
        last
    }

    fn walk_stmt(&mut self, stmt: &Stmt, depth: usize) -> Val {
        match stmt {
            Stmt::Let {
                pats,
                ty,
                init,
                line,
            } => {
                let val = match init {
                    Some(e) => self.eval(e),
                    None => Val::Unknown,
                };
                let declared = ty.clone();
                if let Some(t) = &declared {
                    if resolve::type_contains_unordered(t, self.syms) {
                        self.out.unordered_decls.push((t.clone(), *line));
                    }
                }
                // A single binding takes the init value (possibly
                // overridden by an explicit type); destructuring patterns
                // share taint but lose type precision.
                let effective = match (&declared, &val) {
                    (Some(t), Val::Plain(_) | Val::Unknown) if !t.is_empty() => {
                        Val::Plain(t.clone())
                    }
                    _ => val.clone(),
                };
                if let Val::Tainted | Val::HashIter(_) = effective {
                    for p in pats {
                        self.tainted.insert(p.clone());
                    }
                }
                // Track which locals hold atomic-load results so a later
                // `if v1 == v2` marks those loads as gating.
                if pats.len() == 1 {
                    let loads = self.pending_load_indices(init.as_ref());
                    if !loads.is_empty() {
                        self.atomic_locals.insert(pats[0].clone(), loads);
                    }
                }
                match (&effective, pats.len()) {
                    (Val::Guard(id, inner), 1) => {
                        self.held.retain(|(n, _, _)| n.is_some());
                        self.held.push((Some(pats[0].clone()), id.clone(), depth));
                        self.bind(&pats[0], Val::Guard(id.clone(), inner.clone()));
                    }
                    (_, 1) => self.bind(&pats[0], effective.clone()),
                    _ => {
                        for p in pats {
                            self.bind(p, Val::Unknown);
                        }
                    }
                }
                Val::Unknown
            }
            Stmt::Expr(e) => self.eval(e),
            Stmt::Item(_) => Val::Unknown,
        }
    }

    /// Indices of atomic loads performed directly by `init` (best
    /// effort: the init is itself the load call, possibly wrapped).
    fn pending_load_indices(&self, init: Option<&Expr>) -> Vec<usize> {
        fn is_load(e: &Expr) -> bool {
            match e {
                Expr::MethodCall { method, .. } => method == "load",
                Expr::Unary(e) | Expr::Cast { expr: e, .. } => is_load(e),
                _ => false,
            }
        }
        match init {
            Some(e) if is_load(e) => {
                // The load was just recorded as the last atomic op.
                match self.out.atomics.len() {
                    0 => Vec::new(),
                    n => vec![n - 1],
                }
            }
            _ => Vec::new(),
        }
    }

    /// Marks atomic loads feeding `cond` (via locals) as gating.
    fn mark_gating(&mut self, cond: &Expr) {
        let mut names = Vec::new();
        crate::ast::walk_expr(cond, &mut |e| {
            if let Expr::Path { segs, .. } = e {
                if segs.len() == 1 {
                    names.push(segs[0].clone());
                }
            }
        });
        for n in names {
            if let Some(indices) = self.atomic_locals.get(&n) {
                for &i in indices {
                    if let Some(op) = self.out.atomics.get_mut(i) {
                        if op.kind == AtomicKind::Load {
                            op.gating = true;
                        }
                    }
                }
            }
        }
    }

    /// Best-effort type text for an expression (fields through same-file
    /// structs, locals through scope).
    fn type_of(&self, e: &Expr) -> String {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => match self.lookup(&segs[0]) {
                Some(Val::Plain(t)) => t.clone(),
                Some(Val::Guard(_, inner)) => inner.clone(),
                _ => self.syms.statics.get(&segs[0]).cloned().unwrap_or_default(),
            },
            Expr::FieldAccess { base, name, .. } => {
                let base_ty = match &**base {
                    Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self" => {
                        self.self_ty.unwrap_or("").to_string()
                    }
                    other => resolve::head_name(&self.type_of(other), self.syms),
                };
                self.syms
                    .field_type(&base_ty, name)
                    .unwrap_or("")
                    .to_string()
            }
            Expr::Index { base, .. } => {
                // Element of a Vec/array/slice: first generic arg, or the
                // bracket-stripped text.
                let ty = self.type_of(base);
                resolve::generic_args(&ty)
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| ty.trim_start_matches("[]").to_string())
            }
            Expr::Unary(inner) => self.type_of(inner),
            Expr::MethodCall { recv, method, .. } => {
                // `.lock().unwrap()` chains: pass the guard's inner type
                // through unwrap/expect.
                if matches!(method.as_str(), "unwrap" | "expect") {
                    self.type_of(recv)
                } else {
                    String::new()
                }
            }
            _ => String::new(),
        }
    }

    /// Lock identity of a lock-holding expression.
    fn lock_id_of(&self, e: &Expr) -> LockId {
        match e {
            Expr::FieldAccess { base, name, .. } => {
                let owner = match &**base {
                    Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self" => {
                        self.self_ty.unwrap_or("Self").to_string()
                    }
                    other => {
                        let t = resolve::head_name(&self.type_of(other), self.syms);
                        if t.is_empty() {
                            expr_text(other)
                        } else {
                            t
                        }
                    }
                };
                (owner, name.clone())
            }
            Expr::Index { base, .. } => self.lock_id_of(base),
            Expr::Path { segs, .. } if segs.len() == 1 => {
                if self.syms.statics.contains_key(&segs[0]) {
                    ("static".to_string(), segs[0].clone())
                } else {
                    ("local".to_string(), segs[0].clone())
                }
            }
            Expr::Path { segs, .. } => ("static".to_string(), segs.join("::")),
            Expr::Unary(inner) => self.lock_id_of(inner),
            other => ("expr".to_string(), expr_text(other)),
        }
    }

    /// Field key `Type.field` for an atomic receiver.
    fn atomic_field_key(&self, e: &Expr) -> String {
        let (owner, field) = self.lock_id_of(e);
        format!("{owner}.{field}")
    }

    fn is_tainted(&self, e: &Expr) -> bool {
        let mut hit = false;
        crate::ast::walk_expr(e, &mut |x| {
            if let Expr::Path { segs, .. } = x {
                if segs.len() == 1 && self.tainted.contains(&segs[0]) {
                    hit = true;
                }
            }
        });
        hit
    }

    fn eval(&mut self, e: &Expr) -> Val {
        match e {
            Expr::Path { segs, line, col } if segs.len() == 1 => {
                if self.tainted.contains(&segs[0]) {
                    return Val::Tainted;
                }
                let _ = (line, col);
                self.lookup(&segs[0]).cloned().unwrap_or(Val::Unknown)
            }
            Expr::Path { .. } | Expr::Lit | Expr::Opaque => Val::Unknown,
            Expr::FieldAccess { base, .. } => {
                self.eval_quiet(base);
                if self.is_tainted(e) {
                    Val::Tainted
                } else {
                    Val::Plain(self.type_of(e))
                }
            }
            Expr::Index { base, index } => {
                let b = self.eval(base);
                self.eval(index);
                match b {
                    Val::Tainted => Val::Tainted,
                    _ => Val::Plain(self.type_of(e)),
                }
            }
            Expr::Unary(inner) => self.eval(inner),
            Expr::Cast {
                expr,
                ty,
                line,
                col,
            } => {
                let v = self.eval(expr);
                let head = resolve::head_path(ty).join("::");
                if NARROW_TARGETS.contains(&head.as_str()) && !matches!(**expr, Expr::Lit) {
                    self.out.casts.push(CastSite {
                        ty: head,
                        line: *line,
                        col: *col,
                    });
                }
                match v {
                    Val::Tainted => Val::Tainted,
                    _ => Val::Plain(ty.clone()),
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                if matches!(a, Val::Tainted) || matches!(b, Val::Tainted) {
                    Val::Tainted
                } else {
                    Val::Plain(String::new())
                }
            }
            Expr::Assign { place, value, .. } => {
                let v = self.eval(value);
                match &**place {
                    Expr::Path { segs, .. } if segs.len() == 1 => {
                        if matches!(v, Val::Tainted | Val::HashIter(_)) {
                            self.tainted.insert(segs[0].clone());
                        }
                    }
                    Expr::FieldAccess { .. } | Expr::Index { .. } => {
                        self.saw_nonlocal_write = true;
                        self.eval_quiet(place);
                    }
                    Expr::Unary(inner) => {
                        // `*guard = v` / `*ptr = v`.
                        if matches!(**inner, Expr::Path { .. } | Expr::FieldAccess { .. }) {
                            self.saw_nonlocal_write = true;
                        }
                        self.eval_quiet(place);
                    }
                    _ => {
                        self.eval_quiet(place);
                    }
                }
                Val::Unknown
            }
            Expr::For {
                pats,
                iter,
                body,
                line,
                col,
            } => {
                let it = self.eval(iter);
                if let Val::HashIter(desc) | Val::Plain(desc) = &it {
                    let is_hash_iter = matches!(it, Val::HashIter(_))
                        || resolve::type_contains_unordered(desc, self.syms);
                    if is_hash_iter {
                        let desc = match &it {
                            Val::HashIter(d) => d.clone(),
                            _ => expr_text(iter),
                        };
                        self.out.hash_iters.push(HashIterSite {
                            desc,
                            line: *line,
                            col: *col,
                            sink: None,
                        });
                        for p in pats {
                            self.tainted.insert(p.clone());
                        }
                    }
                }
                self.walk_block(body);
                Val::Unknown
            }
            Expr::If { cond, then, els } => {
                self.in_condition += 1;
                self.mark_gating(cond);
                self.eval(cond);
                self.in_condition -= 1;
                self.walk_block(then);
                if let Some(e) = els {
                    self.eval(e);
                }
                Val::Unknown
            }
            Expr::While { cond, body } => {
                self.in_condition += 1;
                self.mark_gating(cond);
                self.eval(cond);
                self.in_condition -= 1;
                self.walk_block(body);
                Val::Unknown
            }
            Expr::Loop { body } => {
                self.walk_block(body);
                Val::Unknown
            }
            Expr::Match { scrutinee, arms } => {
                self.in_condition += 1;
                self.mark_gating(scrutinee);
                let s = self.eval(scrutinee);
                self.in_condition -= 1;
                let taint_arms = matches!(s, Val::Tainted | Val::HashIter(_));
                let mut any_tainted = false;
                for (pats, body) in arms {
                    if taint_arms {
                        for p in pats {
                            self.tainted.insert(p.clone());
                        }
                    }
                    if matches!(self.eval(body), Val::Tainted) {
                        any_tainted = true;
                    }
                }
                if any_tainted || taint_arms {
                    Val::Tainted
                } else {
                    Val::Unknown
                }
            }
            Expr::Return { value, .. } => {
                if let Some(v) = value {
                    if matches!(self.eval(v), Val::Tainted | Val::HashIter(_)) {
                        self.sink = Some("returned value".to_string());
                    }
                }
                Val::Unknown
            }
            Expr::BlockExpr(b) => self.walk_block(b),
            Expr::Closure { pats, body } => {
                // Closure parameters of iterator adapters are tainted by
                // the caller (see ITER_ADAPTERS); plain closures just
                // propagate.
                let _ = pats;
                self.eval(body)
            }
            Expr::MacroCall {
                name,
                args,
                line,
                col,
            } => {
                let mut tainted = false;
                for a in args {
                    if matches!(self.eval(a), Val::Tainted) || self.is_tainted(a) {
                        tainted = true;
                    }
                }
                if EMIT_MACROS.contains(&name.as_str()) && tainted {
                    self.sink = Some(format!("{name}! output"));
                }
                match name.as_str() {
                    "format" | "vec" => {
                        self.out.allocs.push(AllocSite {
                            what: format!("{name}!"),
                            line: *line,
                            col: *col,
                        });
                        if tainted {
                            Val::Tainted
                        } else {
                            Val::Plain(String::new())
                        }
                    }
                    _ if tainted => Val::Tainted,
                    _ => Val::Unknown,
                }
            }
            Expr::StructLit { fields, .. } => {
                let mut tainted = false;
                for (_, e) in fields {
                    if matches!(self.eval(e), Val::Tainted) {
                        tainted = true;
                    }
                }
                if tainted {
                    Val::Tainted
                } else {
                    Val::Plain(String::new())
                }
            }
            Expr::Tuple(items) => {
                let mut tainted = false;
                for e in items {
                    if matches!(self.eval(e), Val::Tainted) {
                        tainted = true;
                    }
                }
                if tainted {
                    Val::Tainted
                } else {
                    Val::Plain(String::new())
                }
            }
            Expr::Call {
                callee,
                args,
                line,
                col,
            } => self.eval_call(callee, args, *line, *col),
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
                col,
            } => self.eval_method(recv, method, args, *line, *col),
        }
    }

    /// Evaluates for effects only (no taint interest in the result).
    fn eval_quiet(&mut self, e: &Expr) {
        let _ = self.eval(e);
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr], line: u32, col: u32) -> Val {
        let segs: Vec<String> = match callee {
            Expr::Path { segs, .. } => segs.clone(),
            _ => Vec::new(),
        };
        let mut any_tainted = false;
        for a in args {
            if matches!(self.eval(a), Val::Tainted) {
                any_tainted = true;
            }
        }
        let leaf = segs.last().map(String::as_str).unwrap_or("");
        // drop(guard) releases the lock.
        if leaf == "drop" && segs.len() <= 2 {
            if let Some(Expr::Path { segs: g, .. }) = args.first() {
                if g.len() == 1 {
                    self.held
                        .retain(|(n, _, _)| n.as_deref() != Some(g[0].as_str()));
                }
            }
            return Val::Unknown;
        }
        if leaf == "fence" {
            let ord = args.iter().find_map(ordering_of).unwrap_or_default();
            match ord.as_str() {
                "Acquire" | "AcqRel" | "SeqCst" => self.out.has_acquire_fence = true,
                _ => {}
            }
            match ord.as_str() {
                "Release" | "AcqRel" | "SeqCst" => self.out.has_release_fence = true,
                _ => {}
            }
            return Val::Unknown;
        }
        if leaf == "sleep" {
            if let Some((_, id, _)) = self.held.last() {
                self.out.blocking.push(BlockSite {
                    what: "thread::sleep".to_string(),
                    line,
                    col,
                    held: id.clone(),
                });
            }
        }
        // Constructor inference, allocation tracking, and unordered
        // collection construction.
        if segs.len() >= 2 {
            let ty = segs[segs.len() - 2].clone();
            let ctor = leaf.to_string();
            let canonical = self.syms.canonical_leaf(&ty).to_string();
            if matches!(ctor.as_str(), "new" | "with_capacity" | "from" | "default") {
                if matches!(canonical.as_str(), "Vec" | "Box" | "String" | "VecDeque")
                    && ctor != "default"
                {
                    self.out.allocs.push(AllocSite {
                        what: format!("{ty}::{ctor}"),
                        line,
                        col,
                    });
                }
                if matches!(canonical.as_str(), "HashMap" | "HashSet") {
                    self.out
                        .unordered_decls
                        .push((format!("{ty}::{ctor}()"), line));
                }
                self.record_call(&segs, line);
                return if any_tainted {
                    Val::Tainted
                } else {
                    Val::Plain(canonical)
                };
            }
        }
        self.record_call(&segs, line);
        if any_tainted {
            Val::Tainted
        } else {
            Val::Unknown
        }
    }

    fn record_call(&mut self, segs: &[String], line: u32) {
        if segs.is_empty() {
            return;
        }
        let callee = if segs.len() >= 2 {
            format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1])
        } else {
            segs[0].clone()
        };
        self.out.calls.push(CallSite {
            callee,
            line,
            locks_held: self.held_ids(),
        });
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        args: &[Expr],
        line: u32,
        col: u32,
    ) -> Val {
        let recv_val = self.eval(recv);
        let mut any_tainted = matches!(recv_val, Val::Tainted);
        for a in args {
            if matches!(self.eval(a), Val::Tainted) {
                any_tainted = true;
            }
        }
        let recv_ty = self.type_of(recv);
        // `self.foo()` resolves against the impl type for the call graph.
        let recv_head = match recv {
            Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self" => {
                self.self_ty.unwrap_or("").to_string()
            }
            _ => resolve::head_name(&recv_ty, self.syms),
        };

        // --- Lock acquisition ---------------------------------------
        let is_lock_acq = match method {
            "lock" => !expr_text(recv).contains("stdout") && !expr_text(recv).contains("stderr"),
            "read" | "write" => recv_head == "RwLock" || recv_ty.contains("RwLock"),
            _ => false,
        };
        if is_lock_acq {
            let id = self.lock_id_of(recv);
            let held_before = self.held_ids();
            // Inner type: first generic argument of the lock type.
            let inner = resolve::generic_args(&recv_ty)
                .into_iter()
                .next()
                .unwrap_or_default();
            if let Some((_, first, _)) = self.held.first() {
                if *first != id {
                    self.out.blocking.push(BlockSite {
                        what: format!("acquiring {}.{} while locked", id.0, id.1),
                        line,
                        col,
                        held: first.clone(),
                    });
                }
            }
            self.out.lock_acqs.push(LockAcq {
                id: id.clone(),
                line,
                col,
                held_before,
            });
            // Held as an expression temporary until let-bound or the
            // statement ends.
            self.held.push((None, id.clone(), self.vars.len()));
            return Val::Guard(id, inner);
        }

        // --- Guard passthrough --------------------------------------
        if matches!(
            method,
            "unwrap" | "expect" | "unwrap_or_else" | "ok" | "map_err"
        ) {
            if let Val::Guard(id, inner) = &recv_val {
                return Val::Guard(id.clone(), inner.clone());
            }
        }

        // --- Atomics ------------------------------------------------
        let is_atomic_recv = recv_head.starts_with("Atomic") || recv_ty.contains("Atomic");
        if is_atomic_recv
            || ORDERINGS
                .iter()
                .any(|o| args.iter().any(|a| ordering_is(a, o)))
        {
            let kind = if method == "store" {
                Some(AtomicKind::Store)
            } else if method == "load" {
                Some(AtomicKind::Load)
            } else if RMW_METHODS.contains(&method) {
                Some(AtomicKind::Rmw)
            } else {
                None
            };
            if let Some(kind) = kind {
                let ordering = args.iter().find_map(ordering_of).unwrap_or_default();
                let after_write = self.saw_nonlocal_write;
                self.out.atomics.push(AtomicOp {
                    field: self.atomic_field_key(recv),
                    kind,
                    ordering,
                    gating: kind == AtomicKind::Load && self.in_condition > 0,
                    after_write,
                    line,
                    col,
                });
                if matches!(kind, AtomicKind::Store | AtomicKind::Rmw) {
                    self.saw_nonlocal_write = true;
                }
                return Val::Plain(String::new());
            }
        }

        // --- Blocking while locked ----------------------------------
        if BLOCKING_METHODS.contains(&method) {
            if let Some((_, id, _)) = self.held.last() {
                self.out.blocking.push(BlockSite {
                    what: format!(".{method}()"),
                    line,
                    col,
                    held: id.clone(),
                });
            }
        }

        // --- Hash iteration and taint -------------------------------
        let recv_unordered = resolve::type_contains_unordered(&recv_ty, self.syms)
            || matches!(&recv_val, Val::Guard(_, inner) if resolve::type_contains_unordered(inner, self.syms));
        if ITER_METHODS.contains(&method) && recv_unordered {
            return Val::HashIter(format!("{}.{method}()", expr_text(recv)));
        }
        if let Val::HashIter(desc) = &recv_val {
            if ITER_ADAPTERS.contains(&method) {
                // Closure parameters see tainted elements.
                for a in args {
                    if let Expr::Closure { pats, .. } = a {
                        for p in pats {
                            self.tainted.insert(p.clone());
                        }
                    }
                }
                for a in args {
                    self.eval_quiet(a);
                }
                return Val::HashIter(desc.clone());
            }
            if method.starts_with("collect") {
                // `.collect::<BTreeMap…>()` and friends restore order.
                if method.contains("BTree") || method.contains("BinaryHeap") {
                    return Val::Plain(String::new());
                }
                return Val::Tainted;
            }
            if matches!(
                method,
                "count" | "len" | "sum" | "fold" | "all" | "any" | "position"
            ) {
                // Order-insensitive reductions: `count`/`len`/`sum` over
                // a hash iterator are deterministic.
                return match method {
                    "count" | "len" | "sum" | "all" | "any" => Val::Plain(String::new()),
                    _ => Val::Tainted,
                };
            }
            if matches!(method, "for_each") {
                for a in args {
                    if let Expr::Closure { pats, .. } = a {
                        for p in pats {
                            self.tainted.insert(p.clone());
                        }
                    }
                }
                for a in args {
                    self.eval_quiet(a);
                }
                return Val::Unknown;
            }
            return Val::Tainted;
        }

        // An unmaterialized hash iteration feeding a for-loop is handled
        // in `Expr::For`; a bare `collect()` straight off the map counts
        // as taint here via recv_unordered adapters above.

        // --- Sort sanitization --------------------------------------
        if SORT_METHODS.contains(&method) {
            if let Expr::Path { segs, .. } = recv {
                if segs.len() == 1 {
                    self.tainted.remove(&segs[0]);
                }
            }
        }

        // --- Container growth taints the container ------------------
        if CONTAINER_GROW.contains(&method) && any_tainted {
            if let Expr::Path { segs, .. } = recv {
                if segs.len() == 1 {
                    self.tainted.insert(segs[0].clone());
                }
            }
            if matches!(recv, Expr::FieldAccess { .. } | Expr::Index { .. }) {
                self.saw_nonlocal_write = true;
            }
        } else if CONTAINER_GROW.contains(&method)
            && matches!(recv, Expr::FieldAccess { .. } | Expr::Index { .. })
        {
            self.saw_nonlocal_write = true;
        }

        // --- Taint sinks --------------------------------------------
        if SINK_METHODS.contains(&method) && any_tainted {
            self.sink = Some(format!(".{method}() call"));
        }

        // --- Allocation methods -------------------------------------
        if matches!(
            method,
            "to_string" | "to_owned" | "to_vec" | "clone" | "into_bytes"
        ) {
            self.out.allocs.push(AllocSite {
                what: format!(".{method}()"),
                line,
                col,
            });
        }

        // --- Record the call for the call graph ---------------------
        let callee = if recv_head.is_empty() {
            method.to_string()
        } else {
            format!("{recv_head}::{method}")
        };
        self.out.calls.push(CallSite {
            callee,
            line,
            locks_held: self.held_ids(),
        });

        if any_tainted {
            Val::Tainted
        } else {
            Val::Plain(String::new())
        }
    }
}

/// `Ordering::X` argument → `X`.
fn ordering_of(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => {
            let last = segs.last()?;
            ORDERINGS.contains(&last.as_str()).then(|| last.clone())
        }
        _ => None,
    }
}

fn ordering_is(e: &Expr, name: &str) -> bool {
    ordering_of(e).is_some_and(|o| o == name)
}

/// Short printable form of an expression, for messages and lock ids.
pub fn expr_text(e: &Expr) -> String {
    match e {
        Expr::Path { segs, .. } => segs.join("::"),
        Expr::FieldAccess { base, name, .. } => format!("{}.{name}", expr_text(base)),
        Expr::MethodCall { recv, method, .. } => format!("{}.{method}()", expr_text(recv)),
        Expr::Index { base, .. } => format!("{}[..]", expr_text(base)),
        Expr::Call { callee, .. } => format!("{}()", expr_text(callee)),
        Expr::Unary(inner) => expr_text(inner),
        Expr::Cast { expr, ty, .. } => format!("{} as {ty}", expr_text(expr)),
        Expr::Lit => "<lit>".to_string(),
        _ => "<expr>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind};
    use crate::parser::parse_file;
    use crate::resolve;

    fn summaries(src: &str) -> Vec<FnSummary> {
        let toks: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let file = parse_file(&toks);
        let syms = resolve::collect(&file);
        let mut out = Vec::new();
        crate::ast::for_each_fn(&file.items, &mut |def| {
            out.push(summarize(def, &syms, "test.rs"));
        });
        out
    }

    #[test]
    fn hash_iteration_to_return_is_a_sinked_site() {
        let s = summaries(
            "use std::collections::HashMap;\n\
             fn dump(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                 let mut out = Vec::new();\n\
                 for (k, v) in m.iter() { out.push(*v + *k); }\n\
                 out\n\
             }\n",
        );
        assert_eq!(s[0].hash_iters.len(), 1);
        assert!(s[0].hash_iters[0].sink.is_some(), "return sink expected");
    }

    #[test]
    fn sorting_before_return_clears_the_sink() {
        let s = summaries(
            "use std::collections::HashMap;\n\
             fn dump(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                 let mut out = Vec::new();\n\
                 for (_k, v) in m.iter() { out.push(*v); }\n\
                 out.sort();\n\
                 out\n\
             }\n",
        );
        assert_eq!(s[0].hash_iters.len(), 1);
        assert!(s[0].hash_iters[0].sink.is_none(), "sorted output is fine");
    }

    #[test]
    fn lock_guard_scopes_and_nested_acquisition() {
        let s = summaries(
            "use std::sync::Mutex;\n\
             struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 fn nested(&self) {\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                 }\n\
                 fn sequential(&self) {\n\
                     { let ga = self.a.lock().unwrap(); let _ = ga; }\n\
                     let gb = self.b.lock().unwrap();\n\
                     let _ = gb;\n\
                 }\n\
             }\n",
        );
        let nested = &s[0];
        assert_eq!(nested.lock_acqs.len(), 2);
        assert_eq!(nested.lock_acqs[0].held_before.len(), 0);
        assert_eq!(
            nested.lock_acqs[1].held_before,
            vec![("S".to_string(), "a".to_string())]
        );
        let sequential = &s[1];
        assert_eq!(sequential.lock_acqs.len(), 2);
        assert!(
            sequential.lock_acqs[1].held_before.is_empty(),
            "block-scoped guard must be released: {:?}",
            sequential.lock_acqs[1].held_before
        );
    }

    #[test]
    fn atomic_ops_classify_with_gating_via_local() {
        let s = summaries(
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             struct R { seq: AtomicU64 }\n\
             impl R {\n\
                 fn read(&self) -> bool {\n\
                     let v1 = self.seq.load(Ordering::Acquire);\n\
                     let v2 = self.seq.load(Ordering::Relaxed);\n\
                     if v1 == v2 { return true; }\n\
                     false\n\
                 }\n\
                 fn publish(&self, data: &mut [u64]) {\n\
                     data[0] = 7;\n\
                     self.seq.store(1, Ordering::Relaxed);\n\
                 }\n\
             }\n",
        );
        let read = &s[0];
        assert_eq!(read.atomics.len(), 2);
        assert!(read.atomics.iter().all(|a| a.kind == AtomicKind::Load));
        assert!(read.atomics[0].gating && read.atomics[1].gating);
        let publish = &s[1];
        let store = publish
            .atomics
            .iter()
            .find(|a| a.kind == AtomicKind::Store)
            .expect("store op");
        assert_eq!(store.ordering, "Relaxed");
        assert!(store.after_write, "store after data write is a publication");
        assert_eq!(store.field, "R.seq");
    }

    #[test]
    fn narrowing_casts_and_allocations_are_collected() {
        let s = summaries(
            "fn f(n: usize, xs: &[f64]) -> f32 {\n\
                 let small = n as u32;\n\
                 let v = Vec::new();\n\
                 let msg = format!(\"x\");\n\
                 let _ = (v, msg, small);\n\
                 xs[0] as f32\n\
             }\n",
        );
        let f = &s[0];
        let cast_tys: Vec<&str> = f.casts.iter().map(|c| c.ty.as_str()).collect();
        assert_eq!(cast_tys, ["u32", "f32"]);
        let allocs: Vec<&str> = f.allocs.iter().map(|a| a.what.as_str()).collect();
        assert!(allocs.contains(&"Vec::new"));
        assert!(allocs.contains(&"format!"));
    }

    #[test]
    fn blocking_while_locked_is_reported() {
        let s = summaries(
            "use std::sync::Mutex;\n\
             struct S { a: Mutex<u32> }\n\
             impl S {\n\
                 fn bad(&self) {\n\
                     let g = self.a.lock().unwrap();\n\
                     std::thread::sleep(std::time::Duration::from_millis(1));\n\
                     let _ = g;\n\
                 }\n\
             }\n",
        );
        assert_eq!(s[0].blocking.len(), 1);
        assert_eq!(s[0].blocking[0].what, "thread::sleep");
    }
}
