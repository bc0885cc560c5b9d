//! Live-update burst through the serving front end (docs/UPDATES.md):
//! a warmed [`ServeEngine`] takes a burst of transactional commits
//! (`UpdateBatch` inserts + deletes), and the run measures cached vs
//! uncached latency **before** the burst (steady-state hits), **during**
//! the epoch flip (every entry invalidated, first replay repopulates),
//! and **after** it (steady-state hits over the new data).
//!
//! Before any timing is reported, the run asserts the transactional
//! contract: the post-burst answers are **bit-identical** to a
//! from-scratch [`DistributedEngine`] built over the committed dataset
//! (`live_dataset()` — the same pair a snapshot would persist), at 1
//! and 4 worker threads, and the incremental crossing-property count is
//! reported next to the from-scratch recount baked into
//! `into_partitioning`. Written to `bench_results/update_burst.json`.

use crate::datasets::{lubm_bundle, scale_factor};
use crate::harness::{partition_with, Method};
use crate::report::{emit, fresh, write_json, Table};
use mpc_cluster::{
    CommitOptions, DistributedEngine, NetworkModel, RequestSpec, ServeEngine, UpdateBatch,
};
use mpc_obs::{Json, Recorder};
use mpc_rdf::{narrow, Triple, VertexId};
use std::time::{Duration, Instant};

/// Triples inserted by the burst (each introduces one new vertex).
const BURST: usize = 240;

/// Base triples deleted by the burst's first batch.
const DELETES: usize = 24;

/// Commits the burst is split across — each flips the epoch once.
const BATCHES: usize = 6;

/// Result-cache capacity — comfortably above the template count.
const CACHE_ENTRIES: usize = 64;

/// Balance slack for placing the burst's new vertices.
const EPSILON: f64 = 0.1;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Order-sensitive fingerprint of one replay's full row stream.
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

/// Produces `bench_results/update_burst.json`.
pub fn run() {
    fresh("update_burst");
    let bundle = lubm_bundle();
    let part = partition_with(Method::Mpc, &bundle.graph).partitioning;
    let mut engine = DistributedEngine::build(&bundle.graph, &part, NetworkModel::default());
    engine
        .enable_updates(&bundle.graph, &part, EPSILON)
        // mpc-allow: unwrap-expect radius is 1 by construction, so arming cannot fail
        .expect("radius-1 engine");
    let crossing_before = part.crossing_property_count();
    let mut server = ServeEngine::new(engine, CACHE_ENTRIES);

    let templates: Vec<mpc_sparql::ResolvedPlan> = bundle
        .benchmark_queries
        .iter()
        .map(|nq| mpc_sparql::ResolvedPlan::from_bgp(nq.query.clone()))
        .collect();

    // One replay pass over every template on the live front end; the
    // caller reads hit/miss deltas off `rec` around it.
    let replay = |server: &ServeEngine, threads: usize, cached: bool, rec: &Recorder| {
        let req = RequestSpec::default().threads(threads).cached(cached).to_request(rec);
        let t0 = Instant::now();
        let mut fp = 0u64;
        for plan in &templates {
            let outcome = server
                .serve_plan(plan, &req, bundle.graph.dictionary())
                // mpc-allow: unwrap-expect no fault layer in play, so the request cannot fail
                .expect("no fault layer in play");
            fp = fold_rows(fp, outcome.rows());
        }
        (t0.elapsed(), fp)
    };

    let rec = Recorder::enabled();
    let c = |name: &str| rec.counter(name).unwrap_or(0);

    // Warm (untimed), then steady state before the flip.
    let _ = replay(&server, 1, true, &Recorder::disabled());
    let hits0 = c("serve.cache.hit");
    let (before_cached, before_fp) = replay(&server, 1, true, &rec);
    assert_eq!(
        c("serve.cache.hit") - hits0,
        templates.len() as u64,
        "warmed replay must be all hits"
    );
    let (before_uncached, before_uncached_fp) = replay(&server, 1, false, &rec);
    assert_eq!(before_fp, before_uncached_fp, "cache changed pre-burst results");

    // The burst: id-form ops (the bundle graph is raw — no dictionary).
    // Each insert introduces one dense new vertex and wires it to an
    // existing one; the first batch also deletes a slice of base
    // triples, so both mutation paths are on the committed dataset.
    let n = bundle.graph.vertex_count();
    let pc = bundle.graph.property_count();
    let mut batches: Vec<UpdateBatch> = (0..BATCHES).map(|_| UpdateBatch::new()).collect();
    for j in 0..BURST {
        let t = Triple::new(
            VertexId(narrow::u32_from(n + j)),
            mpc_rdf::PropertyId(narrow::u32_from(j % pc)),
            VertexId(narrow::u32_from((j * 17) % n)),
        );
        batches[j * BATCHES / BURST].insert(t);
    }
    for t in bundle.graph.triples().iter().take(DELETES) {
        batches[0].delete(*t);
    }
    let copts = CommitOptions::default();
    let t0 = Instant::now();
    let mut inserted = 0usize;
    let mut deleted = 0usize;
    let mut new_vertices = 0usize;
    let mut epoch = 0u64;
    let mut crossing_after = 0usize;
    for batch in &batches {
        let report = server
            .commit(batch, &copts, &rec)
            // mpc-allow: unwrap-expect dense id-form batches over a live engine cannot fail
            .expect("burst batch commits");
        inserted += report.inserted;
        deleted += report.deleted;
        new_vertices += report.new_vertices;
        epoch = report.epoch;
        crossing_after = report.crossing_properties;
    }
    let commit_wall = t0.elapsed();
    assert_eq!(inserted, BURST);
    assert_eq!(deleted, DELETES);
    assert_eq!(new_vertices, BURST);
    assert_eq!(epoch, BATCHES as u64, "each commit flips the epoch once");

    // During: the flip made every cached entry unaddressable, so this
    // pass recomputes (and repopulates) everything.
    let misses0 = c("serve.cache.miss");
    let (during, during_fp) = replay(&server, 1, true, &rec);
    assert_eq!(
        c("serve.cache.miss") - misses0,
        templates.len() as u64,
        "epoch flip must invalidate every cached entry"
    );
    // After: steady state again, over the post-burst data.
    let hits1 = c("serve.cache.hit");
    let (after_cached, after_fp) = replay(&server, 1, true, &rec);
    assert_eq!(
        c("serve.cache.hit") - hits1,
        templates.len() as u64,
        "post-flip replay must be all hits again"
    );
    assert_eq!(during_fp, after_fp, "cache changed post-burst results");
    let (after_uncached, after_uncached_fp) = replay(&server, 1, false, &rec);
    assert_eq!(after_fp, after_uncached_fp, "cache changed post-burst results");
    assert_ne!(before_fp, after_fp, "the burst must change at least one answer");

    // The transactional contract: a from-scratch engine over the
    // committed dataset answers bit-identically, at both thread budgets.
    let (lg, lp) = server
        .engine()
        .live_dataset()
        // mpc-allow: unwrap-expect updates were armed above, so live state exists
        .expect("live state exists");
    assert_eq!(lp.crossing_property_count(), crossing_after);
    let rebuilt = ServeEngine::new(
        DistributedEngine::build(&lg, &lp, NetworkModel::default()),
        CACHE_ENTRIES,
    );
    for threads in [1usize, 4] {
        let (_, live_fp) = replay(&server, threads, false, &Recorder::disabled());
        let (_, rebuilt_fp) = replay(&rebuilt, threads, false, &Recorder::disabled());
        assert_eq!(
            live_fp, rebuilt_fp,
            "post-burst rows diverge from a from-scratch rebuild at {threads} thread(s)"
        );
    }

    let mut t = Table::new(&["phase", "cached(ms)", "uncached(ms)"]);
    t.row(vec![
        "before".into(),
        format!("{:.2}", ms(before_cached)),
        format!("{:.2}", ms(before_uncached)),
    ]);
    t.row(vec!["during flip".into(), format!("{:.2}", ms(during)), "—".into()]);
    t.row(vec![
        "after".into(),
        format!("{:.2}", ms(after_cached)),
        format!("{:.2}", ms(after_uncached)),
    ]);

    let json = Json::obj([
        ("experiment", Json::Str("update_burst".to_owned())),
        ("dataset", Json::Str(bundle.name.to_owned())),
        ("scale", Json::Num(scale_factor())),
        ("burst", Json::UInt(BURST as u64)),
        ("deletes", Json::UInt(DELETES as u64)),
        ("batches", Json::UInt(BATCHES as u64)),
        ("epoch", Json::UInt(epoch)),
        ("new_vertices", Json::UInt(new_vertices as u64)),
        ("crossing_properties_before", Json::UInt(crossing_before as u64)),
        ("crossing_properties_after", Json::UInt(crossing_after as u64)),
        ("commit_ms", Json::Num(ms(commit_wall))),
        ("before_cached_ms", Json::Num(ms(before_cached))),
        ("before_uncached_ms", Json::Num(ms(before_uncached))),
        ("during_flip_ms", Json::Num(ms(during))),
        ("after_cached_ms", Json::Num(ms(after_cached))),
        ("after_uncached_ms", Json::Num(ms(after_uncached))),
        ("update_inserted", Json::UInt(c("update.inserted"))),
        ("update_deleted", Json::UInt(c("update.deleted"))),
        ("update_commits", Json::UInt(c("update.commit"))),
        ("bit_identical_to_rebuild", Json::Bool(true)),
    ]);
    let path = write_json("update_burst", &json);
    emit(
        "update_burst",
        "Live-update burst — cached vs uncached latency before/during/after the epoch flip (LUBM)",
        &t.render(),
    );
    println!(
        "update burst: {BURST} inserts + {DELETES} deletes over {BATCHES} commits in {:.2}ms; \
         crossing properties {crossing_before} -> {crossing_after}; JSON: {}",
        ms(commit_wall),
        path.display()
    );
}
