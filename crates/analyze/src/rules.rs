//! The lint rules. Each rule pushes [`Finding`]s; suppression via
//! `mpc-allow` comments is handled per rule so the escape hatch is
//! uniform across the rule set.

use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Rule identifier: flags narrowing `as` casts between integer types.
pub const RULE_NARROWING_CAST: &str = "narrowing-cast";
/// Rule identifier: flags `.unwrap()` / `.expect()` in library code.
pub const RULE_UNWRAP_EXPECT: &str = "unwrap-expect";
/// Rule identifier: requires crate-root safety/doc headers.
pub const RULE_CRATE_ROOT: &str = "crate-root";
/// Rule identifier: every `*_traced` fn needs an untraced counterpart.
pub const RULE_TRACED_COUNTERPART: &str = "traced-counterpart";
/// Rule identifier: span/counter names must match docs/OBSERVABILITY.md.
pub const RULE_OBS_DOC: &str = "obs-doc";
/// Rule identifier: malformed `mpc-allow` directives.
pub const RULE_MPC_ALLOW: &str = "mpc-allow";
/// Rule identifier: relative markdown links must resolve, and every
/// `docs/*.md` must be reachable from `README.md`.
pub const RULE_DOC_LINK: &str = "doc-link";

/// All rule identifiers a directive may name.
pub const ALL_RULES: &[&str] = &[
    RULE_NARROWING_CAST,
    RULE_UNWRAP_EXPECT,
    RULE_CRATE_ROOT,
    RULE_TRACED_COUNTERPART,
    RULE_OBS_DOC,
    RULE_MPC_ALLOW,
    RULE_DOC_LINK,
    crate::concurrency::RULE_LOCK_ORDER,
    crate::concurrency::RULE_GUARD_BLOCKING,
    crate::concurrency::RULE_ATOMIC_ORDERING,
    crate::concurrency::RULE_UNSAFE_BUDGET,
];

/// Finding severity, for machine-readable output. `Error` findings are
/// defects (possible deadlock, truncation, panic path); `Warn` findings
/// are hygiene (missing justification, doc drift). Both fail the lint
/// gate — severity exists so downstream tooling can triage, not so
/// warnings can be ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A likely defect.
    Error,
    /// A hygiene / documentation-drift issue.
    Warn,
}

impl Severity {
    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// Maps a rule identifier to its severity.
pub fn severity_of(rule: &str) -> Severity {
    match rule {
        RULE_TRACED_COUNTERPART | RULE_OBS_DOC | RULE_DOC_LINK | RULE_MPC_ALLOW => Severity::Warn,
        r if r == crate::concurrency::RULE_ATOMIC_ORDERING => Severity::Warn,
        _ => Severity::Error,
    }
}

/// Integer types a cast *into* is considered narrowing. The workspace
/// targets 64-bit platforms, so `usize`/`u64`/`i64`/`u128`/`i128` are
/// wide enough for every count in the system and are not flagged.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Flags `expr as T` where `T` is a narrower integer type. Casting a
/// count or identifier down silently truncates at scale — exactly the
/// failure mode a billion-triple partitioner must not have. Use
/// `try_into()` (fallible) or an explicit saturating/masking helper, or
/// justify the cast with `mpc-allow: narrowing-cast <why>`.
pub fn check_narrowing_casts(f: &SourceFile, out: &mut Vec<Finding>) {
    let t = &f.lexed.tokens;
    for i in 0..t.len().saturating_sub(1) {
        if !t[i].is_ident("as") {
            continue;
        }
        let target = &t[i + 1];
        if target.kind != TokenKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        let line = t[i].line;
        if f.in_test_code(line) || f.is_allowed(RULE_NARROWING_CAST, line) {
            continue;
        }
        out.push(Finding {
            path: f.path.clone(),
            line,
            rule: RULE_NARROWING_CAST,
            message: format!(
                "narrowing cast `as {}` truncates silently; use try_into()/checked \
                 conversion or add `// mpc-allow: narrowing-cast <why it fits>`",
                target.text
            ),
        });
    }
}

/// Flags `.unwrap()` / `.expect(` in library (non-bin, non-test) code.
/// Library crates must surface errors to callers instead of aborting the
/// process; binaries and tests may panic freely.
pub fn check_unwrap_expect(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.kind != FileKind::Lib {
        return;
    }
    let t = &f.lexed.tokens;
    for i in 0..t.len().saturating_sub(2) {
        if !t[i].is_punct('.') {
            continue;
        }
        let name = &t[i + 1];
        if !(name.is_ident("unwrap") || name.is_ident("expect")) || !t[i + 2].is_punct('(') {
            continue;
        }
        let line = name.line;
        if f.in_test_code(line) || f.is_allowed(RULE_UNWRAP_EXPECT, line) {
            continue;
        }
        out.push(Finding {
            path: f.path.clone(),
            line,
            rule: RULE_UNWRAP_EXPECT,
            message: format!(
                ".{}() in library code panics the caller; return a Result or add \
                 `// mpc-allow: unwrap-expect <why it cannot fail>`",
                name.text
            ),
        });
    }
}

/// Requires library crate roots to carry `#![forbid(unsafe_code)]` and a
/// `missing_docs` lint header (`warn` or stricter). A file-level
/// `mpc-allow: crate-root <why>` waives the requirement.
pub fn check_crate_root(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.is_crate_root || f.kind != FileKind::Lib {
        return;
    }
    if f.is_allowed_anywhere(RULE_CRATE_ROOT) {
        return;
    }
    let mut headers: BTreeSet<(String, String)> = BTreeSet::new();
    let t = &f.lexed.tokens;
    for i in 0..t.len().saturating_sub(6) {
        // `#![level(name)]`
        if t[i].is_punct('#')
            && t[i + 1].is_punct('!')
            && t[i + 2].is_punct('[')
            && t[i + 3].kind == TokenKind::Ident
            && t[i + 4].is_punct('(')
            && t[i + 5].kind == TokenKind::Ident
            && t[i + 6].is_punct(')')
        {
            headers.insert((t[i + 3].text.clone(), t[i + 5].text.clone()));
        }
    }
    let has = |level: &[&str], name: &str| {
        level
            .iter()
            .any(|l| headers.contains(&(l.to_string(), name.to_string())))
    };
    if !has(&["forbid", "deny"], "unsafe_code") {
        out.push(Finding {
            path: f.path.clone(),
            line: 1,
            rule: RULE_CRATE_ROOT,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    if !has(&["warn", "deny", "forbid"], "missing_docs") {
        out.push(Finding {
            path: f.path.clone(),
            line: 1,
            rule: RULE_CRATE_ROOT,
            message: "crate root is missing `#![warn(missing_docs)]` (or stricter)".to_string(),
        });
    }
}

/// Collects `fn` names defined in a file, with the line of each
/// definition. Used by the traced-counterpart rule.
fn fn_definitions(f: &SourceFile) -> Vec<(String, u32)> {
    let t = &f.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..t.len().saturating_sub(1) {
        if t[i].is_ident("fn") && t[i + 1].kind == TokenKind::Ident {
            out.push((t[i + 1].text.clone(), t[i + 1].line));
        }
    }
    out
}

/// Cross-file rule: every public tracing entry point `foo_traced` must
/// have an untraced counterpart `foo` in the same crate, so callers that
/// don't thread a recorder never pay for observability plumbing.
pub fn check_traced_counterparts(files: &[SourceFile], out: &mut Vec<Finding>) {
    // All non-test fn names, per crate.
    let mut per_crate: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        if f.kind == FileKind::Test {
            continue;
        }
        for (name, line) in fn_definitions(f) {
            if !f.in_test_code(line) {
                per_crate
                    .entry(f.crate_name.as_str())
                    .or_default()
                    .insert(name);
            }
        }
    }
    for f in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        for (name, line) in fn_definitions(f) {
            let Some(base) = name.strip_suffix("_traced") else {
                continue;
            };
            if base.is_empty() || f.in_test_code(line) {
                continue;
            }
            if f.is_allowed(RULE_TRACED_COUNTERPART, line) {
                continue;
            }
            let known = per_crate.get(f.crate_name.as_str());
            if known.is_none_or(|s| !s.contains(base)) {
                out.push(Finding {
                    path: f.path.clone(),
                    line,
                    rule: RULE_TRACED_COUNTERPART,
                    message: format!(
                        "`{name}` has no untraced counterpart `{base}` in crate \
                         `{}`; add one (delegating with a disabled recorder) or \
                         `// mpc-allow: traced-counterpart <why>`",
                        f.crate_name
                    ),
                });
            }
        }
    }
}

/// Recorder methods whose first string argument is a span/metric name.
const OBS_METHODS: &[&str] = &["span", "record", "add", "incr", "set", "counter", "timer"];

/// Collects literal span/metric names passed to recorder methods in
/// non-test code: `.<method>("a.b.c", ...)`. Names built with `format!`
/// are dynamic and deliberately not collected; documenting those falls to
/// the `{placeholder}` patterns in the reference table.
pub fn collect_obs_names(files: &[SourceFile]) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    for f in files {
        if f.kind == FileKind::Test {
            continue;
        }
        let t = &f.lexed.tokens;
        for i in 0..t.len().saturating_sub(3) {
            if !t[i].is_punct('.') {
                continue;
            }
            let m = &t[i + 1];
            if m.kind != TokenKind::Ident || !OBS_METHODS.contains(&m.text.as_str()) {
                continue;
            }
            if !t[i + 2].is_punct('(') || t[i + 3].kind != TokenKind::Str {
                continue;
            }
            let name = &t[i + 3].text;
            // Metric names are dotted paths; this also screens out
            // unrelated string-first-argument methods that happen to share
            // a method name.
            if !name.contains('.') || name.contains(' ') || name.contains('{') {
                continue;
            }
            let line = t[i + 3].line;
            if f.in_test_code(line) {
                continue;
            }
            out.push((name.clone(), f.path.clone(), line));
        }
    }
    out
}

/// Extracts documented metric names from the reference tables in
/// `docs/OBSERVABILITY.md`: the backticked names in the first column of
/// every markdown table row. A trailing fragment like `` `.misses` ``
/// after a full name expands against that name's prefix
/// (`` `query.plan_cache.hits` / `.misses` `` documents both). Names
/// containing `{` are dynamic patterns and are exempt from the
/// code-presence check.
pub fn doc_metric_names(md: &str) -> Vec<(String, u32, bool)> {
    let mut out = Vec::new();
    for (idx, raw) in md.lines().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        // mpc-allow: narrowing-cast doc files are far below 2^32 lines
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if !line.starts_with('|') {
            continue;
        }
        let Some(first_cell) = line.trim_matches('|').split('|').next() else {
            continue;
        };
        if first_cell
            .trim()
            .chars()
            .all(|c| c == '-' || c == ' ' || c == ':')
        {
            continue; // separator row
        }
        let mut prev_full: Option<String> = None;
        let mut rest = first_cell;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(len) = after.find('`') else { break };
            let name = &after[..len];
            rest = &after[len + 1..];
            if name.is_empty() || name.contains(' ') || name.ends_with('*') {
                continue;
            }
            let dynamic = name.contains('{');
            if let Some(frag) = name.strip_prefix('.') {
                // `.misses` style shorthand: expand against the previous
                // full name's parent path.
                if let Some(full) = &prev_full {
                    if let Some(dot) = full.rfind('.') {
                        out.push((format!("{}.{}", &full[..dot], frag), line_no, dynamic));
                    }
                }
            } else if name.contains('.') {
                prev_full = Some(name.to_string());
                out.push((name.to_string(), line_no, dynamic));
            }
        }
    }
    out
}

/// Two-way drift check between recorder names in code and the reference
/// tables in `docs/OBSERVABILITY.md`.
pub fn check_obs_doc(files: &[SourceFile], doc_path: &str, doc_md: &str, out: &mut Vec<Finding>) {
    let code_names = collect_obs_names(files);
    let documented = doc_metric_names(doc_md);
    let documented_set: BTreeSet<&str> = documented.iter().map(|(n, _, _)| n.as_str()).collect();
    let code_set: BTreeSet<&str> = code_names.iter().map(|(n, _, _)| n.as_str()).collect();

    for (name, path, line) in &code_names {
        if documented_set.contains(name.as_str()) {
            continue;
        }
        let file = files.iter().find(|f| &f.path == path);
        if file.is_some_and(|f| f.is_allowed(RULE_OBS_DOC, *line)) {
            continue;
        }
        out.push(Finding {
            path: path.clone(),
            line: *line,
            rule: RULE_OBS_DOC,
            message: format!(
                "span/metric `{name}` is recorded here but not documented in {doc_path}; \
                 add it to the reference table"
            ),
        });
    }
    for (name, line, dynamic) in &documented {
        if *dynamic || code_set.contains(name.as_str()) {
            continue;
        }
        out.push(Finding {
            path: doc_path.to_string(),
            line: *line,
            rule: RULE_OBS_DOC,
            message: format!(
                "documented span/metric `{name}` is never recorded by any literal \
                 call site; remove the row or fix the name"
            ),
        });
    }
}

/// Extracts link targets from a markdown document: inline
/// `[text](target)` links and reference-style `[label]: target`
/// definitions, each with its 1-based line number. Fenced code blocks
/// are skipped. External targets (`scheme://`, `mailto:`) and pure
/// same-file anchors (`#fragment`) are not returned; a `#fragment`
/// suffix on a file target is stripped.
pub fn extract_doc_links(md: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (idx, raw) in md.lines().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        // mpc-allow: narrowing-cast doc files are far below 2^32 lines
        let line_no = (idx + 1) as u32;
        let trimmed = raw.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Reference-style definition: `[label]: target` at line start.
        if let Some(rest) = trimmed.strip_prefix('[') {
            if let Some(close) = rest.find("]:") {
                let target = rest[close + 2..].trim();
                let target = target.split_whitespace().next().unwrap_or("");
                push_link_target(target, line_no, &mut out);
                continue;
            }
        }
        // Inline links: every `](target)` on the line.
        let mut rest = raw;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            let Some(close) = after.find(')') else { break };
            push_link_target(after[..close].trim(), line_no, &mut out);
            rest = &after[close + 1..];
        }
    }
    out
}

/// Filters one raw link target and pushes it if it is a relative file
/// reference (see [`extract_doc_links`] for what is skipped).
fn push_link_target(raw: &str, line: u32, out: &mut Vec<(String, u32)>) {
    let target = raw.trim_matches(|c| c == '<' || c == '>');
    // Titles: `](path "title")` — keep only the path part.
    let target = target.split_whitespace().next().unwrap_or("");
    let target = target.split('#').next().unwrap_or("");
    if target.is_empty() || target.contains("://") || target.starts_with("mailto:") {
        return;
    }
    out.push((target.to_string(), line));
}

/// Resolves `target` against the directory of `from` (both repo-relative,
/// `/`-separated), handling `./` and `../` lexically. Returns `None` when
/// the target escapes the repo root.
fn resolve_relative(from: &str, target: &str) -> Option<String> {
    let mut stack: Vec<&str> = from.split('/').collect();
    stack.pop(); // the file itself; its directory remains
    for seg in target.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                stack.pop()?;
            }
            seg => stack.push(seg),
        }
    }
    Some(stack.join("/"))
}

/// Documentation-graph rule, two checks over the scanned `(path,
/// contents)` markdown set:
///
/// 1. every relative link in a scanned doc resolves to an existing file
///    (`exists` answers for repo-relative paths), and
/// 2. every scanned `docs/*.md` is reachable from `README.md` by
///    following relative markdown links — orphaned reference pages that
///    no reader can navigate to are findings.
pub fn check_doc_links(
    docs: &[(String, String)],
    exists: &dyn Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) {
    let scanned: BTreeSet<&str> = docs.iter().map(|(p, _)| p.as_str()).collect();
    let mut edges: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (path, md) in docs {
        for (target, line) in extract_doc_links(md) {
            match resolve_relative(path, &target) {
                Some(resolved) if exists(&resolved) => {
                    edges.entry(path.as_str()).or_default().push(resolved);
                }
                resolved => out.push(Finding {
                    path: path.clone(),
                    line,
                    rule: RULE_DOC_LINK,
                    message: match resolved {
                        Some(r) => {
                            format!("link `{target}` resolves to `{r}`, which does not exist")
                        }
                        None => format!("link `{target}` escapes the repository root"),
                    },
                }),
            }
        }
    }
    // Reachability: BFS from README.md over links between scanned docs.
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    let mut frontier = vec!["README.md"];
    while let Some(doc) = frontier.pop() {
        if !scanned.contains(doc) || !reached.insert(doc) {
            continue;
        }
        for target in edges.get(doc).into_iter().flatten() {
            if let Some(next) = scanned.get(target.as_str()) {
                frontier.push(next);
            }
        }
    }
    for (path, _) in docs {
        if path.starts_with("docs/") && path.ends_with(".md") && !reached.contains(path.as_str()) {
            out.push(Finding {
                path: path.clone(),
                line: 1,
                rule: RULE_DOC_LINK,
                message: format!(
                    "{path} is not reachable from README.md via markdown links; \
                     link it so readers can navigate to it"
                ),
            });
        }
    }
}

/// Meta rule: `mpc-allow` directives must name a known rule and carry a
/// justification.
pub fn check_allow_directives(f: &SourceFile, out: &mut Vec<Finding>) {
    for a in &f.allows {
        if !ALL_RULES.contains(&a.rule.as_str()) {
            out.push(Finding {
                path: f.path.clone(),
                line: a.line,
                rule: RULE_MPC_ALLOW,
                message: format!(
                    "mpc-allow names unknown rule `{}` (known: {})",
                    a.rule,
                    ALL_RULES.join(", ")
                ),
            });
        } else if a.justification.is_empty() {
            out.push(Finding {
                path: f.path.clone(),
                line: a.line,
                rule: RULE_MPC_ALLOW,
                message: format!(
                    "mpc-allow for `{}` has no justification; explain why the \
                     suppression is sound",
                    a.rule
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/a.rs", "x", FileKind::Lib, false, src)
    }

    #[test]
    fn narrowing_cast_flagged_and_allowed() {
        let mut out = Vec::new();
        check_narrowing_casts(&lib_file("fn f(x: u64) -> u32 { x as u32 }\n"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_NARROWING_CAST);

        out.clear();
        check_narrowing_casts(
            &lib_file("fn f(x: u64) -> u32 { x as u32 } // mpc-allow: narrowing-cast fits\n"),
            &mut out,
        );
        assert!(out.is_empty());

        out.clear();
        check_narrowing_casts(&lib_file("fn f(x: u32) -> u64 { x as u64 }\n"), &mut out);
        assert!(out.is_empty(), "widening casts are fine");
    }

    #[test]
    fn narrowing_cast_ignores_tests_strings_comments() {
        let mut out = Vec::new();
        let src = "#[cfg(test)]\nmod t {\n fn f(x: u64) -> u32 { x as u32 }\n}\n\
                   // as u16 in a comment\nconst S: &str = \"as u8\";\n";
        check_narrowing_casts(&lib_file(src), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unwrap_flagged_in_lib_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let mut out = Vec::new();
        check_unwrap_expect(&lib_file(src), &mut out);
        assert_eq!(out.len(), 1);

        out.clear();
        let bin = SourceFile::parse("crates/x/src/main.rs", "x", FileKind::Bin, false, src);
        check_unwrap_expect(&bin, &mut out);
        assert!(out.is_empty(), "binaries may panic");

        out.clear();
        check_unwrap_expect(
            &lib_file("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n"),
            &mut out,
        );
        assert!(out.is_empty(), "unwrap_or is not unwrap");
    }

    #[test]
    fn crate_root_headers_required() {
        let root = |src| SourceFile::parse("crates/x/src/lib.rs", "x", FileKind::Lib, true, src);
        let mut out = Vec::new();
        check_crate_root(
            &root("//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n"),
            &mut out,
        );
        assert!(out.is_empty());

        check_crate_root(&root("//! Docs.\n"), &mut out);
        assert_eq!(out.len(), 2);

        out.clear();
        check_crate_root(
            &root("//! Docs.\n// mpc-allow: crate-root generated shim\n"),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn traced_counterpart_cross_file() {
        let a = lib_file("pub fn go_traced() {}\n");
        let mut out = Vec::new();
        check_traced_counterparts(std::slice::from_ref(&a), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_TRACED_COUNTERPART);

        out.clear();
        let b = SourceFile::parse(
            "crates/x/src/b.rs",
            "x",
            FileKind::Lib,
            false,
            "pub fn go() {}\n",
        );
        check_traced_counterparts(&[a.clone(), b], &mut out);
        assert!(
            out.is_empty(),
            "counterpart in sibling file satisfies the rule"
        );

        out.clear();
        let other = SourceFile::parse(
            "crates/y/src/b.rs",
            "y",
            FileKind::Lib,
            false,
            "pub fn go() {}\n",
        );
        check_traced_counterparts(&[a, other], &mut out);
        assert_eq!(out.len(), 1, "counterpart must be in the same crate");
    }

    #[test]
    fn obs_doc_drift_both_directions() {
        let code =
            lib_file("fn f(rec: &R) { rec.incr(\"a.hits\"); rec.set(\"a.undocumented\", 1); }\n");
        let md = "| Name | Meaning |\n|---|---|\n| `a.hits` / `.misses` | counters |\n| `a.dyn{i}` | per-site |\n";
        let mut out = Vec::new();
        check_obs_doc(&[code], "docs/OBSERVABILITY.md", md, &mut out);
        let mut rules: Vec<_> = out
            .iter()
            .map(|f| (f.path.as_str(), f.message.clone()))
            .collect();
        rules.sort();
        assert_eq!(out.len(), 2, "findings: {out:?}");
        assert!(out
            .iter()
            .any(|f| f.message.contains("`a.undocumented`") && f.path.ends_with("a.rs")));
        assert!(out
            .iter()
            .any(|f| f.message.contains("`a.misses`") && f.path.ends_with(".md")));
    }

    #[test]
    fn doc_shorthand_expansion() {
        let md = "| `q.cache.hits` / `.misses` | x |\n";
        let names: Vec<String> = doc_metric_names(md)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, vec!["q.cache.hits", "q.cache.misses"]);
    }

    #[test]
    fn doc_links_extracted_with_fences_fragments_and_refs() {
        let md = "See [a](docs/A.md) and [b](docs/B.md#sect \"title\").\n\
                  ```\n[not a link](skipped.md)\n```\n\
                  [ext](https://example.com) [anchor](#here)\n\
                  [ref]: ../up.md\n";
        let links = extract_doc_links(md);
        assert_eq!(
            links,
            vec![
                ("docs/A.md".to_string(), 1),
                ("docs/B.md".to_string(), 1),
                ("../up.md".to_string(), 6),
            ]
        );
    }

    #[test]
    fn doc_link_resolution_and_reachability() {
        let docs = vec![
            ("README.md".to_string(), "[s](docs/S.md)\n".to_string()),
            (
                "docs/S.md".to_string(),
                "[back](../README.md) [bad](gone.md)\n".to_string(),
            ),
            ("docs/ORPHAN.md".to_string(), "no links here\n".to_string()),
        ];
        let exists = |p: &str| docs.iter().any(|(d, _)| d == p);
        let mut out = Vec::new();
        check_doc_links(&docs, &exists, &mut out);
        out.sort();
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out
            .iter()
            .any(|f| f.path == "docs/S.md" && f.message.contains("`gone.md`")));
        assert!(out
            .iter()
            .any(|f| f.path == "docs/ORPHAN.md"
                && f.message.contains("not reachable from README.md")));
    }

    #[test]
    fn doc_link_escape_above_root_is_flagged() {
        let docs = vec![("README.md".to_string(), "[up](../outside.md)\n".to_string())];
        let mut out = Vec::new();
        check_doc_links(&docs, &|_| true, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("escapes the repository root"));
    }

    #[test]
    fn allow_directive_validation() {
        let f = lib_file("// mpc-allow: narrowing-cast\n// mpc-allow: bogus-rule because\n");
        let mut out = Vec::new();
        check_allow_directives(&f, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].message.contains("no justification"));
        assert!(out[1].message.contains("unknown rule"));
    }
}
