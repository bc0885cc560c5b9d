//! Two-sided check on the lint engine: each fixture under
//! `tests/fixtures/` trips exactly its rule, and the live workspace is
//! completely clean. The second half is what keeps the engine honest —
//! a finding introduced anywhere in the repo fails this test, not just
//! `ci.sh`.

use std::path::{Path, PathBuf};

use mpc_analyze::concurrency::{
    RULE_ATOMIC_ORDERING, RULE_GUARD_BLOCKING, RULE_LOCK_ORDER, RULE_UNSAFE_BUDGET,
};
use mpc_analyze::rules::{
    check_doc_links, RULE_CRATE_ROOT, RULE_DOC_LINK, RULE_MPC_ALLOW, RULE_NARROWING_CAST,
    RULE_OBS_DOC, RULE_TRACED_COUNTERPART, RULE_UNWRAP_EXPECT,
};
use mpc_analyze::{lint_files, lint_workspace, render_report, FileKind, SourceFile};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Parses a fixture as non-root library code of a throwaway crate and
/// runs the full rule set over it alone.
fn lint_fixture(name: &str, is_crate_root: bool) -> Vec<mpc_analyze::Finding> {
    let src = fixture(name);
    let file = SourceFile::parse(
        format!("fixtures/{name}"),
        "fixture",
        FileKind::Lib,
        is_crate_root,
        &src,
    );
    lint_files(std::slice::from_ref(&file), None)
}

#[track_caller]
fn assert_single(findings: &[mpc_analyze::Finding], rule: &str) {
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one [{rule}] finding, got:\n{}",
        render_report(findings)
    );
    assert_eq!(
        findings[0].rule,
        rule,
        "wrong rule:\n{}",
        render_report(findings)
    );
}

#[test]
fn narrowing_cast_fixture_trips_only_that_rule() {
    assert_single(
        &lint_fixture("narrowing_cast.rs", false),
        RULE_NARROWING_CAST,
    );
}

#[test]
fn unwrap_expect_fixture_trips_only_that_rule() {
    assert_single(&lint_fixture("unwrap_expect.rs", false), RULE_UNWRAP_EXPECT);
}

#[test]
fn crate_root_fixture_trips_only_that_rule() {
    assert_single(&lint_fixture("crate_root.rs", true), RULE_CRATE_ROOT);
}

#[test]
fn traced_counterpart_fixture_trips_only_that_rule() {
    assert_single(
        &lint_fixture("traced_counterpart.rs", false),
        RULE_TRACED_COUNTERPART,
    );
}

#[test]
fn mpc_allow_fixture_trips_only_that_rule() {
    assert_single(&lint_fixture("mpc_allow.rs", false), RULE_MPC_ALLOW);
}

#[test]
fn obs_doc_fixture_flags_the_stale_row_only() {
    let src = fixture("obs_doc.rs");
    let doc = fixture("obs_doc.md");
    let file = SourceFile::parse("fixtures/obs_doc.rs", "fixture", FileKind::Lib, false, &src);
    let findings = lint_files(
        std::slice::from_ref(&file),
        Some(("fixtures/obs_doc.md", &doc)),
    );
    assert_single(&findings, RULE_OBS_DOC);
    assert!(
        findings[0].message.contains("fixture.stale"),
        "finding should name the stale metric:\n{}",
        render_report(&findings)
    );
}

#[test]
fn doc_link_fixture_flags_broken_link_and_orphan() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/doclink");
    let docs: Vec<(String, String)> = ["README.md", "docs/linked.md", "docs/orphan.md"]
        .into_iter()
        .map(|rel| {
            let md = std::fs::read_to_string(base.join(rel))
                .unwrap_or_else(|e| panic!("reading doclink fixture {rel}: {e}"));
            (rel.to_string(), md)
        })
        .collect();
    let exists = |p: &str| base.join(p).is_file();
    let mut findings = Vec::new();
    check_doc_links(&docs, &exists, &mut findings);
    findings.sort();
    assert_eq!(
        findings.len(),
        2,
        "expected the broken link and the orphan:\n{}",
        render_report(&findings)
    );
    assert!(findings.iter().all(|f| f.rule == RULE_DOC_LINK));
    assert!(
        findings
            .iter()
            .any(|f| f.path == "docs/linked.md" && f.message.contains("`missing.md`")),
        "{}",
        render_report(&findings)
    );
    assert!(
        findings
            .iter()
            .any(|f| f.path == "docs/orphan.md" && f.message.contains("not reachable")),
        "{}",
        render_report(&findings)
    );
}

#[test]
fn guard_blocking_fixture_trips_only_that_rule() {
    let findings = lint_fixture("guard_blocking.rs", false);
    assert_single(&findings, RULE_GUARD_BLOCKING);
    assert!(
        findings[0].message.contains("write_all"),
        "finding should name the blocking call:\n{}",
        render_report(&findings)
    );
}

#[test]
fn atomic_ordering_fixture_trips_only_that_rule() {
    let findings = lint_fixture("atomic_ordering.rs", false);
    assert_single(&findings, RULE_ATOMIC_ORDERING);
    assert!(
        findings[0].message.contains("Relaxed"),
        "finding should name the unjustified ordering:\n{}",
        render_report(&findings)
    );
}

#[test]
fn unsafe_budget_fixture_trips_only_that_rule() {
    assert_single(&lint_fixture("unsafe_budget.rs", false), RULE_UNSAFE_BUDGET);
}

/// The seeded cross-file cycle from the issue: `lock_order_a.rs` takes
/// `alpha` then `beta`, `lock_order_b.rs` takes `beta` then `alpha`.
/// Each file is clean alone; together both cycle edges are flagged.
#[test]
fn lock_order_fixture_catches_cross_file_cycle() {
    let parse = |name: &str| {
        SourceFile::parse(
            format!("fixtures/{name}"),
            "fixture",
            FileKind::Lib,
            false,
            &fixture(name),
        )
    };
    let a = parse("lock_order_a.rs");
    let b = parse("lock_order_b.rs");

    assert!(
        lint_files(std::slice::from_ref(&a), None).is_empty(),
        "half a cycle is not a cycle"
    );
    let findings = lint_files(&[a, b], None);
    assert_eq!(
        findings.len(),
        2,
        "both edges of the cross-file cycle:\n{}",
        render_report(&findings)
    );
    assert!(findings.iter().all(|f| f.rule == RULE_LOCK_ORDER));
    assert!(findings.iter().any(|f| f.path.ends_with("lock_order_a.rs")));
    assert!(findings.iter().any(|f| f.path.ends_with("lock_order_b.rs")));
}

#[test]
fn lock_order_ok_fixture_is_clean() {
    let findings = lint_fixture("lock_order_ok.rs", false);
    assert!(
        findings.is_empty(),
        "consistent order, sequential guards, and mpc-allow must pass:\n{}",
        render_report(&findings)
    );
}

#[test]
fn live_workspace_has_no_findings() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean; run `mpc analyze` locally.\n{}",
        render_report(&findings)
    );
}
