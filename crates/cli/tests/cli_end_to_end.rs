//! End-to-end CLI flow: generate → stats → partition → classify → query,
//! exercising file I/O and both graph formats.

#![allow(clippy::unwrap_used)] // test code: panicking on bad setup is the failure mode

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<String, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    mpc_cli::run(&args, &mut out)
        .map(|()| String::from_utf8(out).expect("utf8 output"))
        .map_err(|e| e.message)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpc-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_ntriples() {
    let dir = temp_dir("nt");
    let data = dir.join("lubm.nt");
    let parts = dir.join("lubm.parts");
    let query_file = dir.join("q.rq");

    let out = run(&[
        "generate", "--dataset", "lubm", "--scale", "0.3", "--out",
        data.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("wrote"), "{out}");

    let out = run(&["stats", "--input", data.to_str().unwrap()]).unwrap();
    assert!(out.contains("properties: 18"), "{out}");

    let out = run(&[
        "partition", "--input", data.to_str().unwrap(), "--out",
        parts.to_str().unwrap(), "--method", "mpc", "--k", "4",
    ])
    .unwrap();
    assert!(out.contains("|L_cross|="), "{out}");

    // A one-pattern query over the synthetic urn vocabulary (property 8 is
    // takesCourse in the LUBM layout).
    std::fs::write(
        &query_file,
        "SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } LIMIT 5",
    )
    .unwrap();

    let out = run(&[
        "classify", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("class:"), "{out}");

    let out = run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("rows;"), "{out}");
    assert!(out.contains("independent="), "{out}");

    let out = run(&[
        "explain", "--input", data.to_str().unwrap(), "--query",
        query_file.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("candidates"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn turtle_input_works() {
    let dir = temp_dir("ttl");
    let data = dir.join("mini.ttl");
    std::fs::write(
        &data,
        "@prefix ex: <http://ex/> .\n\
         ex:a ex:knows ex:b , ex:c ;\n\
              a ex:Person .\n\
         ex:b ex:knows ex:c .",
    )
    .unwrap();
    let out = run(&["stats", "--input", data.to_str().unwrap()]).unwrap();
    assert!(out.contains("triples:    4"), "{out}");

    let parts = dir.join("mini.parts");
    run(&[
        "partition", "--input", data.to_str().unwrap(), "--out",
        parts.to_str().unwrap(), "--k", "2",
    ])
    .unwrap();

    let query_file = dir.join("q.rq");
    std::fs::write(
        &query_file,
        "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:knows ?y }",
    )
    .unwrap();
    let out = run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("http://ex/a"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_flag_prints_stage_breakdown() {
    let dir = temp_dir("profile");
    let data = dir.join("lubm.nt");
    let parts = dir.join("lubm.parts");
    let query_file = dir.join("q.rq");
    run(&[
        "generate", "--dataset", "lubm", "--scale", "0.3", "--out",
        data.to_str().unwrap(),
    ])
    .unwrap();

    let out = run(&[
        "partition", "--input", data.to_str().unwrap(), "--out",
        parts.to_str().unwrap(), "--method", "mpc", "--k", "4", "--profile",
    ])
    .unwrap();
    assert!(out.contains("profile:"), "{out}");
    assert!(out.contains("select"), "{out}");
    assert!(out.contains("metis"), "{out}");
    assert!(out.contains("uncoarsen"), "{out}");

    // A two-pattern query so the join stage is exercised too.
    std::fs::write(
        &query_file,
        "SELECT ?x ?y ?z WHERE { ?x <urn:p:8> ?y . ?y <urn:p:13> ?z }",
    )
    .unwrap();
    let out = run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
        "--profile",
    ])
    .unwrap();
    assert!(out.contains("profile:"), "{out}");
    assert!(out.contains("qdt"), "{out}");
    // The join span only exists when the query was decomposed.
    assert!(out.contains("join") || out.contains("independent=true"), "{out}");
    assert!(out.contains("comm"), "{out}");
    assert!(out.contains("site0"), "{out}");
    assert!(out.contains("match"), "{out}");

    // Without the flag, no profile section is emitted.
    let out = run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
    ])
    .unwrap();
    assert!(!out.contains("profile:"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    assert!(run(&[]).is_err());
    assert!(run(&["bogus"]).unwrap_err().contains("unknown command"));
    assert!(run(&["partition", "--input", "/nonexistent.nt", "--out", "/tmp/x"])
        .unwrap_err()
        .contains("cannot open"));
    assert!(run(&["generate", "--dataset", "nope", "--out", "/tmp/x.nt"])
        .unwrap_err()
        .contains("unknown dataset"));
    let help = run(&["help"]).unwrap();
    assert!(help.contains("USAGE"));
}

#[test]
fn mismatched_partition_file_is_rejected() {
    let dir = temp_dir("mismatch");
    let a = dir.join("a.nt");
    let b = dir.join("b.nt");
    run(&["generate", "--dataset", "lubm", "--scale", "0.2", "--out", a.to_str().unwrap()])
        .unwrap();
    run(&[
        "generate", "--dataset", "lubm", "--scale", "0.2", "--seed", "7", "--out",
        b.to_str().unwrap(),
    ])
    .unwrap();
    let parts = dir.join("a.parts");
    run(&["partition", "--input", a.to_str().unwrap(), "--out", parts.to_str().unwrap()])
        .unwrap();
    let q = dir.join("q.rq");
    std::fs::write(&q, "SELECT ?x WHERE { ?x <urn:p:0> ?y }").unwrap();
    let err = run(&[
        "classify", "--input", b.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", q.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("was built for a graph"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_query_reports_deterministically() {
    let dir = temp_dir("chaos");
    let data = dir.join("lubm.nt");
    let parts = dir.join("lubm.parts");
    let query_file = dir.join("q.rq");
    run(&[
        "generate", "--dataset", "lubm", "--scale", "0.3", "--out",
        data.to_str().unwrap(),
    ])
    .unwrap();
    run(&[
        "partition", "--input", data.to_str().unwrap(), "--out",
        parts.to_str().unwrap(), "--method", "mpc", "--k", "4",
    ])
    .unwrap();
    std::fs::write(&query_file, "SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } LIMIT 5").unwrap();

    let args = [
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
        "--chaos", "crash=0.2,slow=0.2,slow-factor=2", "--seed", "7",
        "--retries", "2", "--deadline-ms", "50", "--replicas", "1",
    ];
    let chaos_line = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("chaos:"))
            .expect("chaos report line")
            .to_owned()
    };
    let first = run(&args).unwrap();
    let second = run(&args).unwrap();
    assert_eq!(chaos_line(&first), chaos_line(&second), "same seed, same report");
    assert!(chaos_line(&first).contains("complete="), "{first}");
    assert!(chaos_line(&first).contains("attempts="), "{first}");

    // Cutting every coordinator link with no replicas degrades gracefully…
    let cut = run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
        "--chaos", "cut=0+1+2+3", "--retries", "0", "--replicas", "0",
    ])
    .unwrap();
    assert!(chaos_line(&cut).contains("complete=false"), "{cut}");
    assert!(chaos_line(&cut).contains("failed_sites=[0, 1, 2, 3]"), "{cut}");

    // …while --strict turns the same scenario into an error.
    let err = run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
        "--chaos", "cut=0+1+2+3", "--retries", "0", "--replicas", "0", "--strict",
    ])
    .unwrap_err();
    assert!(err.contains("query failed"), "{err}");

    // A malformed spec and a lone --strict are rejected up front.
    assert!(run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
        "--chaos", "bogus=1",
    ])
    .unwrap_err()
    .contains("unknown chaos key"));
    assert!(run(&[
        "query", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--query", query_file.to_str().unwrap(),
        "--strict",
    ])
    .unwrap_err()
    .contains("--strict only applies"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A pipe whose reader exits after the first line, as `grep -q` does on
/// its first match: every later write fails with `BrokenPipe`.
struct ClosesAfterFirstLine {
    got: Vec<u8>,
}

impl std::io::Write for ClosesAfterFirstLine {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.got.contains(&b'\n') {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.got.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn update_succeeds_when_the_reader_closes_after_the_commit_line() {
    let dir = temp_dir("update-pipe");
    let data = dir.join("lubm.nt");
    let parts = dir.join("lubm.parts");
    let snap = dir.join("snap");
    run(&["generate", "--dataset", "lubm", "--scale", "0.1", "--out", data.to_str().unwrap()])
        .unwrap();
    run(&[
        "partition", "--input", data.to_str().unwrap(), "--out",
        parts.to_str().unwrap(), "--method", "mpc", "--k", "2",
    ])
    .unwrap();
    // With --save the report has a second line, which the closed pipe
    // refuses after the commit and the snapshot have succeeded.
    let args: Vec<String> = [
        "update", "--input", data.to_str().unwrap(), "--partitions",
        parts.to_str().unwrap(), "--text", "INSERT DATA { <urn:n:a> <urn:q:live> <urn:n:b> }",
        "--save", snap.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut pipe = ClosesAfterFirstLine { got: Vec::new() };
    let result = mpc_cli::run(&args, &mut pipe).map_err(|e| e.message);
    assert_eq!(result, Ok(()));
    let got = String::from_utf8(pipe.got).unwrap();
    assert!(got.starts_with("committed: +1 -0"), "{got}");
    // The saved generation holds the triple, so deleting it commits.
    let out = run(&[
        "update", "--load", snap.to_str().unwrap(), "--text",
        "DELETE DATA { <urn:n:a> <urn:q:live> <urn:n:b> }",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.unwrap().contains("committed: +0 -1"));
}
