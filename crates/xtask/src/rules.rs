//! The repo-specific invariant rules the linter enforces.
//!
//! Every rule operates on the token stream of [`crate::lexer::lex`] plus a
//! little structural bookkeeping (`#[cfg(test)]` regions, function spans,
//! attribute lines). Diagnostics carry the rule name so a per-line
//! `// xtask: allow(<rule>)` pragma can suppress exactly that rule.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `hash-collections` | protocol/solver crates | no `HashMap`/`HashSet` — iteration order is nondeterministic and the protocol's only sanctioned randomness is the partition RNG stream |
//! | `nondeterminism` | everywhere except `crates/bench` | no `thread_rng` / `from_entropy` / `SystemTime` / `Instant::now` — ambient entropy and wall-clock must never reach an answer |
//! | `env-threads` | everywhere walked | only `vendor/rayon` may read `RC_THREADS` / `RAYON_NUM_THREADS` — one resolution point keeps thread-count semantics single-sourced |
//! | `hot-path-alloc` | functions in `hotpaths.toml` | no `vec![` / `Vec::new` / `Vec::with_capacity` / `VecDeque::new` / `VecDeque::with_capacity` / `.to_vec()` / `.clone()` / `collect::<Vec` in engine inner loops |
//! | `missing-docs` | `graph` / `coresets` / `distsim` / `dynamic` | every `pub fn` carries a doc comment |
//! | `error-hygiene` | `graph` / `distsim` / `dynamic` | no `.unwrap()` / `.expect(` / `panic!` in library code — fallible paths surface typed `GraphError`/protocol errors so the fault-tolerant runtime can retry or degrade instead of aborting |
//!
//! Test code (`#[cfg(test)]` modules, `tests/` directories) is exempt from
//! `hash-collections`, `hot-path-alloc`, `missing-docs` and `error-hygiene`:
//! iteration order in a test can't reach a protocol output, tests allocate
//! freely, and asserting via unwrap/panic is what tests are for. The
//! nondeterminism and env rules apply to tests too — a test that consults
//! wall-clock or re-reads `RC_THREADS` is exactly as suspect as library code
//! that does.

use crate::config::HotPathConfig;
use crate::lexer::{LexedFile, TokKind, Token};
use std::collections::BTreeSet;
use std::fmt;

/// One linter finding, pointing at a workspace-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// The rule that fired (pragma key).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rule families apply to a file, derived from its workspace-relative
/// path. See the module docs for the scoping rationale.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// `hash-collections` applies (protocol/solver crate source).
    pub protocol: bool,
    /// `nondeterminism` applies (everything except `crates/bench`).
    pub no_ambient_entropy: bool,
    /// `missing-docs` applies (`graph` / `coresets` / `distsim` source).
    pub doc_coverage: bool,
    /// `error-hygiene` applies (`graph` / `distsim` source).
    pub error_hygiene: bool,
    /// The file sits under a `tests/` directory (integration tests).
    pub test_file: bool,
}

/// Classifies a workspace-relative path (forward slashes) into rule scopes.
pub fn classify(rel_path: &str) -> FileScope {
    let test_file = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
    let in_crate_src = |krate: &str| rel_path.starts_with(&format!("crates/{krate}/src/"));
    let protocol = !test_file
        && (rel_path.starts_with("src/")
            || [
                "graph",
                "matching",
                "vertexcover",
                "coresets",
                "distsim",
                "dynamic",
            ]
            .iter()
            .any(|k| in_crate_src(k)));
    let no_ambient_entropy = !rel_path.starts_with("crates/bench/");
    let doc_coverage = !test_file
        && ["graph", "coresets", "distsim", "dynamic"]
            .iter()
            .any(|k| in_crate_src(k));
    let error_hygiene = !test_file
        && ["graph", "distsim", "dynamic"]
            .iter()
            .any(|k| in_crate_src(k));
    FileScope {
        protocol,
        no_ambient_entropy,
        doc_coverage,
        error_hygiene,
        test_file,
    }
}

/// Runs every token-level rule on one lexed file.
pub fn lint_tokens(rel_path: &str, lexed: &LexedFile, hotpaths: &HotPathConfig) -> Vec<Diagnostic> {
    let scope = classify(rel_path);
    let toks = &lexed.tokens;
    let test_spans = cfg_test_spans(toks);
    let in_test = |i: usize| test_spans.iter().any(|&(a, b)| i >= a && i <= b);
    let mut out = Vec::new();
    let mut push = |lexed: &LexedFile, rule: &'static str, line: usize, message: String| {
        if !lexed.allows(rule, line) {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    // --- hash-collections -------------------------------------------------
    if scope.protocol {
        for (i, t) in toks.iter().enumerate() {
            if (t.is_ident("HashMap") || t.is_ident("HashSet")) && !in_test(i) {
                push(
                    lexed,
                    "hash-collections",
                    t.line,
                    format!(
                        "`{}` in a protocol/solver crate: iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or a sorted Vec, or add \
                         `// xtask: allow(hash-collections)` with a justification",
                        t.text
                    ),
                );
            }
        }
    }

    // --- nondeterminism ---------------------------------------------------
    if scope.no_ambient_entropy {
        for (i, t) in toks.iter().enumerate() {
            let hit = if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
                Some(t.text.clone())
            } else if t.is_ident("SystemTime") {
                Some("SystemTime".to_string())
            } else if t.is_ident("Instant")
                && matches!(toks.get(i + 1), Some(c) if c.is_punct(':'))
                && matches!(toks.get(i + 2), Some(c) if c.is_punct(':'))
                && matches!(toks.get(i + 3), Some(n) if n.is_ident("now"))
            {
                Some("Instant::now".to_string())
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    lexed,
                    "nondeterminism",
                    t.line,
                    format!(
                        "`{what}` outside crates/bench: the random-partition RNG stream must \
                         be the only source of randomness (PAPER.md §2); derive from the run \
                         seed instead"
                    ),
                );
            }
        }
    }

    // --- env-threads ------------------------------------------------------
    if !rel_path.starts_with("vendor/rayon/") {
        for (i, t) in toks.iter().enumerate() {
            if (t.is_ident("var") || t.is_ident("var_os"))
                && matches!(toks.get(i + 1), Some(p) if p.is_punct('('))
            {
                if let Some(s) = toks.get(i + 2) {
                    if s.kind == TokKind::Str
                        && (s.text == "RC_THREADS" || s.text == "RAYON_NUM_THREADS")
                    {
                        push(
                            lexed,
                            "env-threads",
                            t.line,
                            format!(
                                "reading `{}` outside vendor/rayon: thread-count resolution \
                                 must stay single-sourced in the vendored backend",
                                s.text
                            ),
                        );
                    }
                }
            }
        }
    }

    // --- hot-path-alloc ---------------------------------------------------
    if let Some(functions) = hotpaths.functions_for(rel_path) {
        let spans = fn_spans(toks);
        let watched: Vec<&(String, usize, usize)> = spans
            .iter()
            .filter(|(name, _, _)| functions.iter().any(|f| f == name))
            .collect();
        for &&(ref name, start, end) in &watched {
            for i in start..=end.min(toks.len().saturating_sub(1)) {
                if in_test(i) {
                    continue;
                }
                if let Some(what) = alloc_pattern_at(toks, i) {
                    push(
                        lexed,
                        "hot-path-alloc",
                        toks[i].line,
                        format!(
                            "`{what}` inside hot-path fn `{name}` (hotpaths.toml): engine \
                             inner loops must reuse workspace buffers; justify with \
                             `// xtask: allow(hot-path-alloc)` if the allocation is the output"
                        ),
                    );
                }
            }
        }
        // A function listed in the config but absent from the file is config
        // drift — report it so renames keep the lint honest.
        for f in functions {
            if !spans.iter().any(|(name, _, _)| name == f) {
                push(
                    lexed,
                    "hot-path-alloc",
                    1,
                    format!("hotpaths.toml lists fn `{f}` but {rel_path} has no such function"),
                );
            }
        }
    }

    // --- error-hygiene ----------------------------------------------------
    if scope.error_hygiene {
        for (i, t) in toks.iter().enumerate() {
            if in_test(i) {
                continue;
            }
            let hit = if t.is_punct('.')
                && matches!(toks.get(i + 1), Some(n) if n.is_ident("unwrap"))
                && matches!(toks.get(i + 2), Some(p) if p.is_punct('('))
            {
                Some((".unwrap()", toks[i + 1].line))
            } else if t.is_punct('.')
                && matches!(toks.get(i + 1), Some(n) if n.is_ident("expect"))
                && matches!(toks.get(i + 2), Some(p) if p.is_punct('('))
            {
                Some((".expect(", toks[i + 1].line))
            } else if t.is_ident("panic") && matches!(toks.get(i + 1), Some(p) if p.is_punct('!')) {
                Some(("panic!", t.line))
            } else {
                None
            };
            if let Some((what, line)) = hit {
                push(
                    lexed,
                    "error-hygiene",
                    line,
                    format!(
                        "`{what}` in graph/distsim/dynamic library code: fallible paths must \
                         surface typed errors so the fault-tolerant runtime can retry \
                         or degrade; justify a documented invariant with \
                         `// xtask: allow(error-hygiene)`"
                    ),
                );
            }
        }
    }

    // --- missing-docs -----------------------------------------------------
    if scope.doc_coverage {
        let attrs = attr_lines(toks);
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("pub") || in_test(i) {
                continue;
            }
            // `pub(crate)` & friends are internal API: skip.
            if matches!(toks.get(i + 1), Some(p) if p.is_punct('(')) {
                continue;
            }
            // Accept `pub fn`, `pub const fn`, `pub async fn`, `pub unsafe fn`.
            let mut j = i + 1;
            while matches!(toks.get(j), Some(k) if k.is_ident("const") || k.is_ident("async") || k.is_ident("unsafe"))
            {
                j += 1;
            }
            if !matches!(toks.get(j), Some(k) if k.is_ident("fn")) {
                continue;
            }
            let name = toks
                .get(j + 1)
                .map(|n| n.text.clone())
                .unwrap_or_else(|| "?".to_string());
            // Walk upward over attribute lines to the expected doc line.
            let mut l = t.line.saturating_sub(1);
            while l > 0 && attrs.contains(&l) {
                l -= 1;
            }
            if !lexed.doc_lines.contains(&l) {
                push(
                    lexed,
                    "missing-docs",
                    t.line,
                    format!("`pub fn {name}` has no doc comment (/// required in graph/coresets/distsim/dynamic)"),
                );
            }
        }
    }

    out
}

/// `Type::constructor` paths the alloc lint flags, with their display form.
const ALLOC_CONSTRUCTORS: [(&str, &str, &str); 4] = [
    ("Vec", "new", "Vec::new"),
    ("Vec", "with_capacity", "Vec::with_capacity"),
    ("VecDeque", "new", "VecDeque::new"),
    ("VecDeque", "with_capacity", "VecDeque::with_capacity"),
];

/// Returns the alloc-lint pattern starting at token `i`, if any.
fn alloc_pattern_at(toks: &[Token], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.is_ident("vec") && matches!(toks.get(i + 1), Some(p) if p.is_punct('!')) {
        return Some("vec![");
    }
    if matches!(toks.get(i + 1), Some(p) if p.is_punct(':'))
        && matches!(toks.get(i + 2), Some(p) if p.is_punct(':'))
    {
        for (ty, ctor, what) in ALLOC_CONSTRUCTORS {
            if t.is_ident(ty) && matches!(toks.get(i + 3), Some(n) if n.is_ident(ctor)) {
                return Some(what);
            }
        }
    }
    if t.is_punct('.') {
        if matches!(toks.get(i + 1), Some(n) if n.is_ident("to_vec")) {
            return Some(".to_vec()");
        }
        if matches!(toks.get(i + 1), Some(n) if n.is_ident("clone"))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct('('))
        {
            return Some(".clone()");
        }
    }
    if t.is_ident("collect")
        && matches!(toks.get(i + 1), Some(p) if p.is_punct(':'))
        && matches!(toks.get(i + 2), Some(p) if p.is_punct(':'))
        && matches!(toks.get(i + 3), Some(p) if p.is_punct('<'))
        && matches!(toks.get(i + 4), Some(n) if n.is_ident("Vec"))
    {
        return Some("collect::<Vec<_>>");
    }
    None
}

/// Token-index spans (inclusive) covered by `#[cfg(test)]` items.
fn cfg_test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('['))
            && matches!(toks.get(i + 2), Some(c) if c.is_ident("cfg"))
            && matches!(toks.get(i + 3), Some(p) if p.is_punct('('))
            && matches!(toks.get(i + 4), Some(t) if t.is_ident("test"))
        {
            let start = i;
            // Skip to the end of this attribute, then over any further
            // attributes, then over the annotated item.
            let mut j = skip_bracketed(toks, i + 1, '[', ']');
            loop {
                if toks.get(j).is_some_and(|t| t.is_punct('#'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = skip_bracketed(toks, j + 1, '[', ']');
                } else {
                    break;
                }
            }
            // The item body: first `{ ... }` block, or a `;`-terminated item.
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                j = skip_bracketed(toks, j, '{', '}');
            }
            spans.push((start, j.saturating_sub(1).max(start)));
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Given `toks[open_idx]` == the opening bracket, returns the index one past
/// its matching close bracket.
fn skip_bracketed(toks: &[Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// `(fn name, body start token, body end token)` for every `fn` in the file,
/// including nested ones (outer spans simply contain inner ones).
fn fn_spans(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // closures / fn pointers: `fn(` has no name
        }
        // Find the body `{` (or a `;` for trait/extern declarations). Angle
        // brackets in generics never contain braces in this codebase's style;
        // the first `{` after the signature is the body.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_punct('{')) {
            let end = skip_bracketed(toks, j, '{', '}');
            spans.push((name_tok.text.clone(), j, end.saturating_sub(1)));
        }
    }
    spans
}

/// The set of source lines occupied by `#[...]` / `#![...]` attributes.
fn attr_lines(toks: &[Token]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                let end = skip_bracketed(toks, j, '[', ']');
                for t in &toks[i..end.min(toks.len())] {
                    lines.insert(t.line);
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_tokens(path, &lex(src), &HotPathConfig::default())
    }

    #[test]
    fn scopes_follow_paths() {
        assert!(classify("crates/graph/src/graph.rs").protocol);
        assert!(classify("src/lib.rs").protocol);
        assert!(!classify("crates/bench/src/lib.rs").protocol);
        assert!(!classify("crates/graph/tests/properties.rs").protocol);
        assert!(!classify("crates/bench/src/bin/exp.rs").no_ambient_entropy);
        assert!(classify("crates/distsim/src/comm.rs").doc_coverage);
        assert!(!classify("crates/matching/src/engine.rs").doc_coverage);
        assert!(classify("crates/dynamic/src/matcher.rs").protocol);
        assert!(classify("crates/dynamic/src/matcher.rs").doc_coverage);
        assert!(classify("crates/dynamic/src/cover.rs").error_hygiene);
        assert!(!classify("crates/dynamic/tests/dynamic_vs_batch.rs").protocol);
    }

    #[test]
    fn hash_rule_fires_only_in_protocol_scope_and_outside_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        let diags = lint("crates/graph/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppresses_exactly_its_rule() {
        let src = "// xtask: allow(hash-collections)\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let diags = lint("crates/graph/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn nondeterminism_patterns() {
        let src =
            "fn f() { let r = thread_rng(); let t = Instant::now(); let s = SystemTime::now(); }\n";
        let diags = lint("crates/coresets/src/x.rs", src);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(
            lint("crates/bench/src/x.rs", src).is_empty(),
            "bench may time things"
        );
        // `Instant` alone (e.g. a type annotation) is not a violation.
        assert!(lint("crates/coresets/src/y.rs", "fn f(t: Instant) {}\n").is_empty());
    }

    #[test]
    fn env_threads_only_flags_the_two_variables() {
        let src = "fn f() { let a = std::env::var(\"RC_THREADS\"); let b = std::env::var(\"E13_CI\"); }\n";
        let diags = lint("crates/bench/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("RC_THREADS"));
        assert!(lint("vendor/rayon/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_scans_only_listed_functions() {
        let cfg = HotPathConfig::from_entries(vec![crate::config::HotPath {
            file: "crates/matching/src/engine.rs".into(),
            functions: vec!["hot".into()],
            reason: "test".into(),
        }]);
        let src = "fn cold() { let v = vec![1]; }\nfn hot() {\n let a = vec![1];\n let b = Vec::new();\n let c = x.to_vec();\n let d = y.clone();\n let e = it.collect::<Vec<_>>();\n}\n";
        let diags = lint_tokens("crates/matching/src/engine.rs", &lex(src), &cfg);
        assert_eq!(diags.len(), 5, "{diags:?}");
        assert!(diags.iter().all(|d| d.line >= 3));
    }

    #[test]
    fn hot_path_config_drift_is_reported() {
        let cfg = HotPathConfig::from_entries(vec![crate::config::HotPath {
            file: "crates/matching/src/engine.rs".into(),
            functions: vec!["renamed_away".into()],
            reason: "test".into(),
        }]);
        let diags = lint_tokens(
            "crates/matching/src/engine.rs",
            &lex("fn other() {}\n"),
            &cfg,
        );
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no such function"));
    }

    #[test]
    fn error_hygiene_flags_unwrap_expect_panic_outside_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); z.unwrap_or(0); }\n\
                   #[cfg(test)]\nmod tests { fn t() { a.unwrap(); panic!(); } }\n";
        let diags = lint("crates/graph/src/x.rs", src);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "error-hygiene"));
        assert!(diags.iter().all(|d| d.line == 1));
        // Only graph/distsim sources are in scope.
        assert!(lint("crates/distsim/src/x.rs", "fn f() { x.unwrap(); }\n").len() == 1);
        assert!(lint("crates/coresets/src/x.rs", src).is_empty());
        assert!(lint("crates/matching/src/x.rs", src).is_empty());
        assert!(lint("crates/graph/tests/t.rs", src).is_empty());
    }

    #[test]
    fn error_hygiene_pragma_suppresses() {
        let src = "fn f() {\n// xtask: allow(error-hygiene)\npanic!(\"documented contract\");\nx.unwrap();\n}\n";
        let diags = lint("crates/distsim/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn missing_docs_checks_pub_fns_through_attributes() {
        let src = "/// documented\npub fn a() {}\n#[inline]\npub fn b() {}\n/// doc\n#[inline]\npub fn c() {}\npub(crate) fn d() {}\nfn e() {}\n";
        let diags = lint("crates/graph/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("pub fn b"));
        assert_eq!(diags[0].line, 4);
    }
}
