//! Fuzz suite for the lint lexer and parser: arbitrary bytes, mutated
//! real workspace sources, and generated token soup must never panic,
//! always terminate, and keep token spans ordered and in-bounds. The
//! analyses built on top (symbol resolution, dataflow summaries, the
//! file-local semantic rules) are driven through the same inputs via
//! `analyze_source`, since `Expr::Opaque` recovery bugs tend to surface
//! one layer up.

use oftec_lint::engine::analyze_source;
use oftec_lint::lexer::{lex, Tok, TokKind};
use oftec_lint::parser::parse_file;
use oftec_lint::rules::FileKind;
use proptest::prelude::*;

/// The span invariant every lex must uphold, on any input: ordered,
/// non-empty, in-bounds (char-indexed) spans whose slice reproduces the
/// token text (up to the `r#` fence of raw identifiers; `Str`/`Char`
/// tokens carry empty text by design).
fn assert_span_round_trip(src: &str, toks: &[Tok]) {
    let chars: Vec<char> = src.chars().collect();
    let mut prev_hi = 0u32;
    for t in toks {
        assert!(t.lo >= prev_hi, "token spans out of order in {src:?}");
        assert!(t.lo < t.hi, "empty token span in {src:?}");
        assert!((t.hi as usize) <= chars.len(), "span past EOF in {src:?}");
        if !t.text.is_empty() {
            let slice: String = chars[t.lo as usize..t.hi as usize].iter().collect();
            assert!(
                slice.ends_with(&t.text),
                "span slice {slice:?} does not cover token text {:?}",
                t.text
            );
        }
        prev_hi = t.hi;
    }
}

/// Full pipeline on one input: lex, span check, parse, analyze. Panics
/// (and therefore proptest failures) are the only failure mode — any
/// input is a legal input.
fn drive(src: &str) {
    let toks = lex(src);
    assert_span_round_trip(src, &toks);
    let code: Vec<Tok> = toks
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let _ = parse_file(&code);
    let _ = analyze_source("crates/serve/src/fuzz.rs", src, "serve", FileKind::Lib);
}

/// Rust-ish fragments the soup generator splices together. Deliberately
/// includes every construct the parser special-cases: raw strings with
/// `#` fences, lifetimes next to char literals, turbofish, nested use
/// groups, attributes, and unbalanced delimiters.
const FRAGMENTS: &[&str] = &[
    "fn f(x: u32) -> u32 { x }",
    "let g = m.lock();",
    "for (k, v) in map.iter() {",
    "}",
    "{",
    "impl<'a, T: Ord> S<'a, T> ",
    "use std::collections::{HashMap, BTreeMap as Ordered, hash_map::Entry};",
    "r#\"raw \" string\"#",
    "r##\"nested \"# fence\"##",
    "'a",
    "'x'",
    "'\\n'",
    "b'\\''",
    "struct P { f: Mutex<HashMap<u32, Vec<u8>>> }",
    ".collect::<BTreeMap<_, _>>()",
    "x as u32",
    "#[cfg(test)] mod t ",
    "#![allow(dead_code)]",
    "match x { Some(_) => 1, None => 2 }",
    "static N: AtomicU64 = AtomicU64::new(0);",
    "self.flag.store(true, Ordering::Relaxed);",
    "// oftec-lint: allow(L012, fuzz)",
    "/* block ",
    "*/",
    "\"unterminated",
    "::<",
    ">>",
    "=>",
    "..=",
    "($:tt)",
    "\u{fffd}\u{1f600}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes (lossily decoded) never panic the pipeline.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0usize..512)) {
        let src = String::from_utf8_lossy(&bytes);
        drive(&src);
    }

    /// Random splices of Rust-ish fragments never panic and always
    /// terminate, covering deep nesting and unbalanced delimiters.
    #[test]
    fn fragment_soup_never_panics(
        picks in proptest::collection::vec((0usize..30, 0usize..3), 0usize..64)
    ) {
        let mut src = String::new();
        for (idx, sep) in picks {
            src.push_str(FRAGMENTS[idx % FRAGMENTS.len()]);
            src.push_str([" ", "\n", ""][sep]);
        }
        drive(&src);
    }

    /// Real workspace sources, mutated by deleting, duplicating, or
    /// corrupting a random slice, never panic. This is the highest-yield
    /// generator: it produces almost-valid Rust that exercises the
    /// recovery paths instead of the opaque fallback.
    #[test]
    fn mutated_workspace_sources_never_panic(
        file_idx in 0usize..4,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..0.25,
        op in 0usize..4,
    ) {
        let manifest = env!("CARGO_MANIFEST_DIR");
        let paths = [
            format!("{manifest}/src/lexer.rs"),
            format!("{manifest}/src/engine.rs"),
            format!("{manifest}/../serve/src/cache.rs"),
            format!("{manifest}/../telemetry/src/recorder.rs"),
        ];
        let src = std::fs::read_to_string(&paths[file_idx]).unwrap_or_default();
        let chars: Vec<char> = src.chars().collect();
        let n = chars.len();
        let start = ((n as f64) * start_frac) as usize;
        let len = (((n as f64) * len_frac) as usize).min(n.saturating_sub(start));
        let mutated: String = match op {
            // Truncate at `start`.
            0 => chars[..start].iter().collect(),
            // Delete the slice.
            1 => chars[..start]
                .iter()
                .chain(&chars[(start + len).min(n)..])
                .collect(),
            // Duplicate the slice in place.
            2 => chars[..start + len]
                .iter()
                .chain(&chars[start..])
                .collect(),
            // Overwrite the slice with fence-sensitive noise.
            _ => {
                let mut s: String = chars[..start].iter().collect();
                for i in 0..len {
                    s.push(['"', '\'', '#', '{', '<', 'r'][i % 6]);
                }
                s.extend(&chars[(start + len).min(n)..]);
                s
            }
        };
        drive(&mutated);
    }
}

/// Regression: raw strings with `#` fences must be lexed as one token —
/// an early lexer draft resynchronized on the inner quote, splitting the
/// remainder of the file into garbage tokens.
#[test]
fn raw_string_fences_lex_as_single_tokens() {
    let src = "let a = r#\"has \" quote\"#; let b = r##\"has \"# inner\"##; a.unwrap();";
    let toks = lex(src);
    assert_span_round_trip(src, &toks);
    let strs = toks.iter().filter(|t| t.kind == TokKind::Str).count();
    assert_eq!(strs, 2, "each raw string is exactly one token");
    // The unwrap after the raw strings is still visible to the rules.
    assert!(toks.iter().any(|t| t.text == "unwrap"));
}

/// Regression: a lifetime tick followed by an identifier must not be
/// confused with an unterminated char literal (`'a>` vs `'a'`), which
/// once swallowed the rest of the generic parameter list.
#[test]
fn lifetime_vs_char_literal_disambiguation() {
    let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
    let toks = lex(src);
    assert_span_round_trip(src, &toks);
    let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
    let chars_ = toks.iter().filter(|t| t.kind == TokKind::Char).count();
    assert_eq!((lifetimes, chars_), (2, 1));
    // And the parser still sees the function.
    let code: Vec<Tok> = toks;
    let file = parse_file(&code);
    let mut names = Vec::new();
    oftec_lint::ast::for_each_fn(&file.items, &mut |def| names.push(def.name.clone()));
    assert_eq!(names, ["f"]);
}

/// Degenerate deeply nested input terminates quickly (recursion guard)
/// instead of overflowing the stack.
#[test]
fn pathological_nesting_terminates() {
    for unit in ["(", "{", "[", "<", "use a::{"] {
        let src = unit.repeat(2_000);
        drive(&src);
    }
}
