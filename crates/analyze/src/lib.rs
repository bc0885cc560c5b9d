//! `mpc-analyze` — project-specific static analysis for the MPC workspace.
//!
//! A zero-dependency lint engine that tokenizes every workspace `.rs` file
//! (see [`lexer`]) and enforces invariants that `rustc` and `clippy` do not
//! know about, plus rules the workspace wants stricter than clippy's
//! defaults:
//!
//! * [`rules::RULE_NARROWING_CAST`] — no narrowing `as` casts between
//!   integer types in non-test code; a partitioner indexing billions of
//!   triples cannot afford silent truncation.
//! * [`rules::RULE_UNWRAP_EXPECT`] — no `.unwrap()` / `.expect()` in
//!   library crates outside tests; errors surface to callers.
//! * [`rules::RULE_CRATE_ROOT`] — every library crate root carries
//!   `#![forbid(unsafe_code)]` and a `missing_docs` header.
//! * [`rules::RULE_TRACED_COUNTERPART`] — every `*_traced` entry point
//!   has an untraced counterpart in the same crate.
//! * [`rules::RULE_OBS_DOC`] — span/counter names used in code and the
//!   reference tables in `docs/OBSERVABILITY.md` stay in sync, both ways.
//! * [`rules::RULE_DOC_LINK`] — relative markdown links in `README.md`,
//!   `DESIGN.md`, and `docs/*.md` resolve to real files, and every
//!   `docs/*.md` page is reachable from `README.md` by following links.
//!
//! On top of the token stream, [`scope`] builds a brace-matched block
//! tree, which powers the **concurrency rule pack** ([`concurrency`]):
//!
//! * [`concurrency::RULE_LOCK_ORDER`] — the workspace lock-acquisition
//!   graph must be acyclic (deadlock candidates are flagged at the edge
//!   that closes a cycle, across files and through calls).
//! * [`concurrency::RULE_GUARD_BLOCKING`] — no live lock guard across a
//!   blocking call (`write_all`, `accept`, `join`, `recv`, …).
//! * [`concurrency::RULE_ATOMIC_ORDERING`] — atomic ops name a literal
//!   `Ordering::…`; non-`SeqCst` choices carry an adjacent
//!   `// ordering: <why>` justification.
//! * [`concurrency::RULE_UNSAFE_BUDGET`] — no `unsafe` outside the
//!   allowlist, and binary roots carry `#![forbid(unsafe_code)]`.
//!
//! Any finding can be suppressed in place with a justified
//! `// mpc-allow: <rule> <justification>` comment on the offending line or
//! the line above it; unjustified or unknown suppressions are themselves
//! findings ([`rules::RULE_MPC_ALLOW`]).
//!
//! The engine runs as `cargo run -p mpc-analyze -- lint`, as
//! `mpc analyze`, and in CI (`ci.sh`), which diffs `--json` output against
//! the committed `analyze-baseline.json` (see [`json`]).
//! `docs/STATIC_ANALYSIS.md` documents the rules and the policy behind
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod source;

pub use rules::{Finding, Severity};
pub use source::{FileKind, SourceFile};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Repo-relative path of the observability reference document.
pub const OBS_DOC_PATH: &str = "docs/OBSERVABILITY.md";

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &[
    // A crate of its own outside this workspace (`benchmark/Cargo.toml`
    // has an empty `[workspace]`): a measuring binary, not library code.
    "benchmark",
    "target",
    ".git",
    "fixtures",
    "bench_results",
    "node_modules",
];

/// Runs every rule over an already-loaded file set. `obs_doc` is the
/// `(path, contents)` of the observability reference, if present; when
/// `None` the obs-doc rule is skipped (used by fixture tests that exercise
/// a single rule).
pub fn lint_files(files: &[SourceFile], obs_doc: Option<(&str, &str)>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        rules::check_narrowing_casts(f, &mut out);
        rules::check_unwrap_expect(f, &mut out);
        rules::check_crate_root(f, &mut out);
        rules::check_allow_directives(f, &mut out);
        concurrency::check_guard_blocking(f, &mut out);
        concurrency::check_atomic_ordering(f, &mut out);
        concurrency::check_unsafe_budget(f, &mut out);
    }
    rules::check_traced_counterparts(files, &mut out);
    concurrency::check_lock_order(files, &mut out);
    if let Some((doc_path, doc_md)) = obs_doc {
        rules::check_obs_doc(files, doc_path, doc_md, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

/// Walks the workspace at `root`, loads every `.rs` source, and runs the
/// full rule set — including the documentation-graph rule over
/// `README.md`, `DESIGN.md`, and `docs/*.md` (see
/// [`rules::check_doc_links`]). Returns findings sorted by path and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let (crate_name, kind, is_root) = classify(&rel_str);
        files.push(SourceFile::parse(rel_str, crate_name, kind, is_root, &src));
    }
    let obs_doc = fs::read_to_string(root.join(OBS_DOC_PATH)).ok();
    let mut findings = lint_files(&files, obs_doc.as_deref().map(|md| (OBS_DOC_PATH, md)));
    rules::check_doc_links(
        &collect_doc_files(root)?,
        &|p| root.join(p).exists(),
        &mut findings,
    );
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Loads the markdown set the doc-link rule scans: the repo-root entry
/// points (`README.md`, `DESIGN.md`) plus every `docs/*.md`, as
/// `(repo-relative path, contents)` pairs.
fn collect_doc_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut docs = Vec::new();
    for rel in ["README.md", "DESIGN.md"] {
        if let Ok(md) = fs::read_to_string(root.join(rel)) {
            docs.push((rel.to_string(), md));
        }
    }
    let mut names: Vec<String> = match fs::read_dir(root.join("docs")) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".md"))
            .collect(),
        Err(_) => Vec::new(),
    };
    names.sort();
    for name in names {
        docs.push((
            format!("docs/{name}"),
            fs::read_to_string(root.join("docs").join(&name))?,
        ));
    }
    Ok(docs)
}

/// Recursively collects `.rs` files under `dir`, as paths relative to
/// `root`, skipping [`SKIP_DIRS`].
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Derives (crate name, file kind, is-crate-root) from a repo-relative
/// path like `crates/core/src/mpc.rs` or `src/lib.rs`.
fn classify(rel: &str) -> (String, FileKind, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (String, &[&str]) = match parts.as_slice() {
        ["src" | "tests" | "benches" | "examples", ..] => ("mpc".to_string(), &parts[..]),
        ["crates", "shims", name, rest @ ..] => ((*name).to_string(), rest),
        ["crates", name, rest @ ..] => ((*name).to_string(), rest),
        _ => ("mpc".to_string(), &[]),
    };
    let rest = if rest.first() == Some(&"src") {
        &rest[1..]
    } else {
        rest
    };
    let kind = if rest
        .first()
        .is_some_and(|d| matches!(*d, "tests" | "benches" | "examples"))
    {
        FileKind::Test
    } else if rest.contains(&"bin") || rest.last() == Some(&"main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    let is_root = rel == "src/lib.rs" || rel.ends_with("/src/lib.rs");
    (crate_name, kind, is_root)
}

/// Formats findings for terminal output and returns the process exit code
/// contract: `Some(summary)` with findings, `None` when clean.
pub fn render_report(findings: &[Finding]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for f in findings {
        let _ = writeln!(s, "{f}");
    }
    if findings.is_empty() {
        s.push_str("mpc-analyze: no findings\n");
    } else {
        let _ = writeln!(s, "mpc-analyze: {} finding(s)", findings.len());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("src/lib.rs"),
            ("mpc".to_string(), FileKind::Lib, true)
        );
        assert_eq!(
            classify("crates/core/src/mpc.rs"),
            ("core".to_string(), FileKind::Lib, false)
        );
        assert_eq!(
            classify("crates/core/src/lib.rs"),
            ("core".to_string(), FileKind::Lib, true)
        );
        assert_eq!(
            classify("crates/cli/src/bin/mpc.rs"),
            ("cli".to_string(), FileKind::Bin, false)
        );
        assert_eq!(
            classify("crates/cli/tests/cli_end_to_end.rs"),
            ("cli".to_string(), FileKind::Test, false)
        );
        assert_eq!(
            classify("crates/bench/benches/micro.rs"),
            ("bench".to_string(), FileKind::Test, false)
        );
        assert_eq!(
            classify("crates/shims/rand/src/lib.rs"),
            ("rand".to_string(), FileKind::Lib, true)
        );
    }

    #[test]
    fn render_is_stable() {
        assert_eq!(render_report(&[]), "mpc-analyze: no findings\n");
        let f = Finding {
            path: "a.rs".to_string(),
            line: 3,
            rule: rules::RULE_NARROWING_CAST,
            message: "m".to_string(),
        };
        let r = render_report(&[f]);
        assert!(r.starts_with("a.rs:3: [narrowing-cast] m\n"));
        assert!(r.ends_with("1 finding(s)\n"));
    }
}
