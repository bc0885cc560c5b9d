//! Cold-start comparison for the crash-safe partition store
//! (docs/PERSISTENCE.md): rebuilding the distributed engine from raw
//! data — N-Triples parse, partitioning, per-site index build, exactly
//! the `mpc serve --input --partitions` path — vs loading a checksummed
//! snapshot generation written by [`mpc_snapshot::save`].
//!
//! Before any timing is reported, the run asserts the persistence
//! contract: the loaded engine answers every benchmark query with a
//! **bit-identical** row stream to the rebuilt one. The snapshot must
//! load at least [`MIN_SPEEDUP`]x faster than the rebuild — that margin
//! is the whole reason the store exists. Written to
//! `bench_results/cold_start.json`.

use crate::datasets::{lubm_bundle, scale_factor};
use crate::harness::{partition_with, Method};
use crate::report::{emit, fresh, write_json, Table};
use mpc_cluster::{DistributedEngine, ExecRequest, NetworkModel, Site};
use mpc_obs::{Json, Recorder};
use mpc_sparql::ResolvedPlan;
use std::time::{Duration, Instant};

/// Required load-vs-rebuild advantage (wall-clock ratio).
pub const MIN_SPEEDUP: f64 = 5.0;

/// Timed repetitions per leg; the minimum is reported (noise floor).
const REPEATS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Order-sensitive fingerprint of the full benchmark row stream.
fn fold_rows(fp: u64, rows: &mpc_sparql::Bindings) -> u64 {
    let mut fp = fp
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(rows.rows.len() as u64);
    for row in &rows.rows {
        for &v in row {
            fp = fp.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(v) + 1);
        }
    }
    fp
}

fn stream_fingerprint(engine: &DistributedEngine, bundle: &crate::datasets::DatasetBundle) -> u64 {
    let req = ExecRequest::new();
    let mut fp = 0u64;
    for nq in &bundle.benchmark_queries {
        let plan = ResolvedPlan::from_bgp(nq.query.clone());
        let outcome = engine
            .run_plan(&plan, &req, bundle.graph.dictionary())
            // mpc-allow: unwrap-expect no fault layer in play, so the request cannot fail
            .expect("no fault layer in play");
        fp = fold_rows(fp, outcome.rows());
    }
    fp
}

/// Produces `bench_results/cold_start.json`.
pub fn run() {
    fresh("cold_start");
    let bundle = lubm_bundle();

    // Cold rebuild: parse the serialized dataset, partition it, build
    // per-site indexes — what `mpc serve --input --partitions` pays on
    // every start. The serialization itself happens outside the timers
    // (on disk the file already exists); the parsed graph is only
    // timed, the engines below share `bundle.graph` so the byte-identity
    // check compares like with like.
    let nt = mpc_rdf::ntriples::to_string(&bundle.graph);
    let mut parse_wall = Duration::MAX;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let parsed = mpc_rdf::ntriples::parse_str(&nt)
            // mpc-allow: unwrap-expect bench harness: the writer's output always parses
            .expect("round-tripped N-Triples parse");
        parse_wall = parse_wall.min(t0.elapsed());
        assert!(parsed.stats().triples > 0, "parse timing must do real work");
    }
    let mut partition_wall = Duration::MAX;
    let mut build_wall = Duration::MAX;
    let mut rebuilt = None;
    for _ in 0..REPEATS {
        let part = partition_with(Method::Mpc, &bundle.graph);
        let t0 = Instant::now();
        let engine =
            DistributedEngine::build(&bundle.graph, &part.partitioning, NetworkModel::default());
        build_wall = build_wall.min(t0.elapsed());
        partition_wall = partition_wall.min(part.partition_time);
        rebuilt = Some((engine, part.partitioning));
    }
    // mpc-allow: unwrap-expect bench harness: REPEATS > 0 always sets it
    let (rebuilt, partitioning) = rebuilt.expect("at least one rebuild");
    let rebuild_wall = parse_wall + partition_wall + build_wall;

    // Persist one generation, then time the recovery path end to end:
    // manifest → read → checksum + cross-validation → engine assembly.
    let dir = std::env::temp_dir().join(format!("mpc-cold-start-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let rec = Recorder::enabled();
    let saved = mpc_snapshot::save(&dir, &bundle.graph, &partitioning, &rec)
        // mpc-allow: unwrap-expect bench harness: writing to the temp dir succeeds
        .expect("snapshot save");
    let mut load_wall = Duration::MAX;
    let mut from_snapshot = None;
    let mut generation = 0u64;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let loaded = mpc_snapshot::load(&dir, &rec)
            // mpc-allow: unwrap-expect bench harness: the snapshot was just written intact
            .expect("snapshot load");
        let contents = loaded.contents;
        let sites: Vec<Site> = contents
            .sites
            .into_iter()
            .map(|s| Site {
                part: s.part,
                store: s.store,
                extended: s.extended,
            })
            .collect();
        let engine = DistributedEngine::from_sites(
            sites,
            &contents.graph,
            &contents.partitioning,
            NetworkModel::default(),
            contents.radius,
        );
        load_wall = load_wall.min(t0.elapsed());
        generation = loaded.generation;
        from_snapshot = Some(engine);
    }
    // mpc-allow: unwrap-expect bench harness: REPEATS > 0 always sets it
    let from_snapshot = from_snapshot.expect("at least one load");
    std::fs::remove_dir_all(&dir).ok();

    // The contract first: both engines answer identically, bit for bit.
    let rebuilt_fp = stream_fingerprint(&rebuilt, &bundle);
    let loaded_fp = stream_fingerprint(&from_snapshot, &bundle);
    assert_eq!(
        rebuilt_fp, loaded_fp,
        "snapshot-loaded engine diverged from the rebuilt one"
    );

    let speedup = rebuild_wall.as_secs_f64() / load_wall.as_secs_f64().max(1e-9);
    let mut t = Table::new(&["path", "wall(ms)"]);
    t.row(vec!["rebuild (parse + partition + index)".into(), format!("{:.2}", ms(rebuild_wall))]);
    t.row(vec!["snapshot load".into(), format!("{:.2}", ms(load_wall))]);
    t.row(vec!["speedup".into(), format!("{speedup:.1}x")]);

    let c = |name: &str| rec.counter(name).unwrap_or(0);
    let json = Json::obj([
        ("experiment", Json::Str("cold_start".to_owned())),
        ("dataset", Json::Str(bundle.name.to_owned())),
        ("scale", Json::Num(scale_factor())),
        ("rebuild_ms", Json::Num(ms(rebuild_wall))),
        ("parse_ms", Json::Num(ms(parse_wall))),
        ("partition_ms", Json::Num(ms(partition_wall))),
        ("load_ms", Json::Num(ms(load_wall))),
        ("speedup", Json::Num(speedup)),
        ("snapshot_bytes", Json::UInt(saved.bytes)),
        ("generation", Json::UInt(generation)),
        ("load_ok", Json::UInt(c("snapshot.load.ok"))),
        ("load_corrupt", Json::UInt(c("snapshot.load.corrupt"))),
        ("bit_identical", Json::Bool(true)),
    ]);
    let path = write_json("cold_start", &json);
    emit(
        "cold_start",
        "Cold start — raw rebuild vs checksummed snapshot load (LUBM)",
        &t.render(),
    );
    println!(
        "cold start: rebuild {:.2}ms vs load {:.2}ms ({speedup:.1}x, {} snapshot bytes); JSON: {}",
        ms(rebuild_wall),
        ms(load_wall),
        saved.bytes,
        path.display()
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "snapshot load only {speedup:.2}x faster than rebuild (need {MIN_SPEEDUP}x)"
    );
}
