//! Per-file symbol resolution for the semantic rules.
//!
//! Scope is deliberately one file: imports (`use` leaves and aliases),
//! struct field types, and statics declared in the same file, so a
//! file's per-file findings and summaries depend only on its own bytes.
//! In practice that covers the workspace idiom, where a type's lock/collection fields live
//! next to the impl that uses them. Cross-file composition (call graphs,
//! lock graphs) happens over summaries in the crate phase.

use std::collections::BTreeMap;

use crate::ast::{File, Item};

/// Symbols visible inside one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Local name (use-leaf or alias) → full imported path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Struct name → field name → normalized type text.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
    /// `static`/`const` item name → normalized type text.
    pub statics: BTreeMap<String, String>,
}

/// Collects the symbols of a parsed file, descending into non-test
/// modules and impl blocks.
pub fn collect(file: &File) -> FileSymbols {
    let mut syms = FileSymbols::default();
    collect_items(&file.items, &mut syms);
    syms
}

fn collect_items(items: &[Item], syms: &mut FileSymbols) {
    for item in items {
        match item {
            Item::Use { path, alias, .. } => {
                let local = alias
                    .clone()
                    .or_else(|| path.last().cloned())
                    .unwrap_or_default();
                if !local.is_empty() && local != "self" {
                    syms.imports.insert(local, path.clone());
                }
                // `use a::b::{self, C}` — the `self` leaf imports `b`.
                if alias.is_none() && path.last().is_some_and(|s| s == "self") {
                    if let Some(name) = path.iter().rev().nth(1) {
                        syms.imports
                            .insert(name.clone(), path[..path.len() - 1].to_vec());
                    }
                }
            }
            Item::Struct { name, fields, .. } => {
                let entry = syms.structs.entry(name.clone()).or_default();
                for f in fields {
                    entry.insert(f.name.clone(), f.ty.clone());
                }
            }
            Item::Static { name, ty, .. } => {
                syms.statics.insert(name.clone(), ty.clone());
            }
            Item::Impl { items, .. } => collect_items(items, syms),
            Item::Mod {
                items,
                cfg_test: false,
                ..
            } => collect_items(items, syms),
            _ => {}
        }
    }
}

impl FileSymbols {
    /// Resolves a local name through imports to its canonical leaf: the
    /// final path segment of the import, or the name itself when not
    /// imported. `Map` under `use std::collections::HashMap as Map`
    /// resolves to `HashMap`.
    pub fn canonical_leaf<'a>(&'a self, name: &'a str) -> &'a str {
        match self.imports.get(name) {
            Some(path) => path.last().map_or(name, String::as_str),
            None => name,
        }
    }

    /// Field type of `type_name.field`, when the struct is declared in
    /// this file.
    pub fn field_type(&self, type_name: &str, field: &str) -> Option<&str> {
        self.structs
            .get(type_name)
            .and_then(|fields| fields.get(field))
            .map(String::as_str)
    }
}

/// Extracts the head path of a normalized type text: the first real type
/// path, skipping references, raw pointers, lifetimes, and the
/// `dyn`/`impl`/`mut`/`const`/`ref` qualifiers. `&'a mut
/// std::sync::Mutex<Inner>` yields `["std","sync","Mutex"]`.
pub fn head_path(ty: &str) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let bytes: Vec<char> = ty.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\'' {
            // Lifetime: skip the tick and its name.
            i += 1;
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            let word: String = bytes[start..i].iter().collect();
            if matches!(word.as_str(), "dyn" | "impl" | "mut" | "const" | "ref") && segs.is_empty()
            {
                continue;
            }
            segs.push(word);
            // Continue only through an immediate `::`.
            if bytes.get(i) == Some(&':') && bytes.get(i + 1) == Some(&':') {
                i += 2;
                continue;
            }
            break;
        }
        if matches!(c, '&' | '*' | ' ') {
            i += 1;
            continue;
        }
        if segs.is_empty() {
            // `(A, B)`, `[T]`, `<...>` before any path: opaque head.
            break;
        }
        break;
    }
    segs
}

/// The head type name of a normalized type text (`Mutex<Inner>` →
/// `Mutex`), resolved through the file's imports when one segment long.
pub fn head_name<'a>(ty: &'a str, syms: &'a FileSymbols) -> String {
    let segs = head_path(ty);
    match segs.len() {
        0 => String::new(),
        1 => syms.canonical_leaf(&segs[0]).to_string(),
        _ => segs.last().cloned().unwrap_or_default(),
    }
}

/// The contents of the first top-level `<…>` group, split at top-level
/// commas: `Mutex<HashMap<K,V>>` → `["HashMap<K,V>"]`.
pub fn generic_args(ty: &str) -> Vec<String> {
    let Some(open) = ty.find('<') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for c in ty[open..].chars() {
        match c {
            '<' => {
                depth += 1;
                if depth > 1 {
                    cur.push(c);
                }
            }
            '>' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                cur.push(c);
            }
            ',' if depth == 1 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => {
                if depth >= 1 {
                    cur.push(c);
                }
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Whether a type text mentions `name` as a standalone word (word
/// boundaries on both sides), e.g. to find `HashMap` inside
/// `Mutex<HashMap<K,V>>` but not inside `MyHashMapLike`.
pub fn mentions_word(ty: &str, name: &str) -> bool {
    let mut start = 0usize;
    while let Some(off) = ty[start..].find(name) {
        let at = start + off;
        let before_ok = at == 0
            || !ty[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + name.len();
        let after_ok = end >= ty.len()
            || !ty[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + name.len().max(1);
    }
    false
}

/// Whether `name` (after import resolution) is an unordered std
/// collection whose iteration order depends on hasher state.
pub fn is_unordered_collection(name: &str, syms: &FileSymbols) -> bool {
    matches!(syms.canonical_leaf(name), "HashMap" | "HashSet")
}

/// Whether the type text contains an unordered collection anywhere in its
/// structure (fields like `Mutex<HashMap<K,V>>` count).
pub fn type_contains_unordered(ty: &str, syms: &FileSymbols) -> bool {
    for word in ["HashMap", "HashSet"] {
        if mentions_word(ty, word) {
            return true;
        }
    }
    // Aliased imports: any import whose leaf is HashMap/HashSet makes its
    // local alias count too.
    syms.imports.iter().any(|(local, path)| {
        path.last()
            .is_some_and(|leaf| (leaf == "HashMap" || leaf == "HashSet") && leaf != local)
            && mentions_word(ty, local)
    })
}

/// Lock classification for the deadlock / blocking rules.
pub fn is_lock_type(head: &str) -> bool {
    matches!(head, "Mutex" | "RwLock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind};
    use crate::parser::parse_file;

    fn syms(src: &str) -> FileSymbols {
        let toks: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        collect(&parse_file(&toks))
    }

    #[test]
    fn imports_and_aliases_resolve() {
        let s = syms(
            "use std::collections::{HashMap, BTreeMap as Ordered};\n\
             use std::sync::Mutex;\n",
        );
        assert_eq!(s.canonical_leaf("HashMap"), "HashMap");
        assert_eq!(s.canonical_leaf("Ordered"), "BTreeMap");
        assert_eq!(s.canonical_leaf("Mutex"), "Mutex");
        assert_eq!(s.canonical_leaf("Unknown"), "Unknown");
    }

    #[test]
    fn struct_fields_and_head_paths() {
        let s = syms("struct Inner { map: HashMap<K, V> }\nstruct R { inner: Mutex<Inner> }\n");
        assert_eq!(s.field_type("Inner", "map"), Some("HashMap<K,V>"));
        assert_eq!(
            head_path("&'a mut std::sync::Mutex<Inner>"),
            ["std", "sync", "Mutex"]
        );
        assert_eq!(head_path("dyn Fn()"), ["Fn"]);
        assert_eq!(head_name("Mutex<Inner>", &s), "Mutex");
        assert_eq!(generic_args("Mutex<HashMap<K,V>>"), ["HashMap<K,V>"]);
        assert_eq!(generic_args("HashMap<K,Vec<V>>"), ["K", "Vec<V>"]);
    }

    #[test]
    fn unordered_detection_sees_aliases_and_nesting() {
        let s =
            syms("use std::collections::HashMap as Fast;\nstruct S { m: Mutex<Fast<u32,u32>> }\n");
        assert!(type_contains_unordered("Mutex<Fast<u32,u32>>", &s));
        assert!(type_contains_unordered("HashMap<K,V>", &s));
        assert!(!type_contains_unordered("BTreeMap<K,V>", &s));
        assert!(!type_contains_unordered("MyHashMapLike", &s));
        assert!(is_unordered_collection("Fast", &s));
    }
}
