//! Workload replay through the serving front end: cached [`ServeEngine`]
//! vs the same engine with the result cache bypassed
//! (`RequestSpec::cached(false)`), at 1 and 4 worker threads.
//!
//! The workload is a Zipf-skewed, deterministically sampled replay of
//! the LUBM benchmark queries — the regime docs/SERVING.md targets,
//! where a few templates dominate the request stream — each served as
//! its one-leaf plan (`ResolvedPlan::from_bgp`). Every other occurrence
//! of a query is *respelled* (pattern list reversed), so the run also
//! exercises canonical-key sharing: different raw spellings, one cache
//! entry.
//!
//! Before any timing is reported, the run asserts the serving contract:
//! cached and uncached replays produce **bit-identical** row streams at
//! every thread budget. A second, untimed phase replays the derived
//! operator plans (`mpc_datagen::operator_plans` — OPTIONAL / UNION /
//! DISTINCT / FILTER / ORDER BY forms over the same templates,
//! docs/QUERY.md) through `serve_plan`, asserting the same bit-identity
//! and that at least one id-only FILTER was evaluated partition-locally
//! (`query.pushdown.site_evals`). Written to
//! `bench_results/serve_replay.json`.

use crate::datasets::{lubm_bundle, scale_factor};
use crate::harness::{partition_with, Method};
use crate::report::{emit, fresh, write_json, Table};
use mpc_cluster::{DistributedEngine, NetworkModel, RequestSpec, ServeEngine};
use mpc_obs::{Json, Recorder};
use mpc_sparql::{Query, ResolvedPlan};
use std::time::{Duration, Instant};

/// Requests in the replayed workload.
const REQUESTS: usize = 400;

/// Zipf exponent of the template popularity distribution.
const ZIPF_S: f64 = 1.1;

/// Result-cache capacity — comfortably above the distinct-template count.
const CACHE_ENTRIES: usize = 64;

/// Thread budgets under comparison (the acceptance pair).
const THREADS: [usize; 2] = [1, 4];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Deterministic Zipf sampler over `0..n` (xorshift64* underneath —
/// no RNG dependency, same stream on every host).
fn zipf_workload(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
                / (1u64 << 53) as f64;
            let mut t = u * total;
            for (i, w) in weights.iter().enumerate() {
                if t < *w {
                    return i;
                }
                t -= w;
            }
            n - 1
        })
        .collect()
}

/// The same BGP with its pattern list reversed — a cosmetic respelling
/// that canonicalization maps to the same cache key.
fn respell(q: &Query) -> Query {
    let mut patterns = q.patterns.clone();
    patterns.reverse();
    Query::new(patterns, q.var_names.clone())
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

/// Produces `bench_results/serve_replay.json`.
pub fn run() {
    fresh("serve_replay");
    let bundle = lubm_bundle();
    let part = partition_with(Method::Mpc, &bundle.graph).partitioning;
    let build_engine =
        || DistributedEngine::build(&bundle.graph, &part, NetworkModel::default());

    // The replayed request stream: Zipf-skewed template choice, every
    // other occurrence respelled.
    let templates: Vec<(ResolvedPlan, ResolvedPlan)> = bundle
        .benchmark_queries
        .iter()
        .map(|nq| {
            let plain = ResolvedPlan::from_bgp(nq.query.clone());
            (plain, ResolvedPlan::from_bgp(respell(&nq.query)))
        })
        .collect();
    let picks = zipf_workload(templates.len(), REQUESTS, 0x5e11_e5ee_d5e1_1e5e);
    let mut seen = vec![0usize; templates.len()];
    let workload: Vec<&ResolvedPlan> = picks
        .iter()
        .map(|&i| {
            seen[i] += 1;
            if seen[i].is_multiple_of(2) { &templates[i].1 } else { &templates[i].0 }
        })
        .collect();

    // One replay: fresh front end, fixed thread budget, cache on or off.
    // Returns wall time plus the row-stream fingerprint.
    let replay = |threads: usize, cached: bool, rec: &Recorder| -> (Duration, u64) {
        let server = ServeEngine::new(build_engine(), CACHE_ENTRIES);
        let req = RequestSpec::default().threads(threads).cached(cached).to_request(rec);
        let t0 = Instant::now();
        let mut fp = 0u64;
        for plan in &workload {
            let outcome = server
                .serve_plan(plan, &req, bundle.graph.dictionary())
                // mpc-allow: unwrap-expect no fault layer in play, so the request cannot fail
                .expect("no fault layer in play");
            fp = fold_rows(fp, outcome.rows());
        }
        (t0.elapsed(), fp)
    };

    // Warm the engines' plan caches and the allocator outside the timers.
    let disabled = Recorder::disabled();
    let _ = replay(THREADS[0], false, &disabled);

    let mut t = Table::new(&["threads", "uncached(ms)", "cached(ms)", "speedup"]);
    let mut runs = Vec::new();
    let mut fingerprints = Vec::new();
    let mut speedups = Vec::new();
    for threads in THREADS {
        let (uncached_wall, uncached_fp) = replay(threads, false, &disabled);
        let (cached_wall, cached_fp) = replay(threads, true, &disabled);
        assert_eq!(
            cached_fp, uncached_fp,
            "cache changed results at {threads} thread(s)"
        );
        fingerprints.push(cached_fp);
        let speedup = uncached_wall.as_secs_f64() / cached_wall.as_secs_f64().max(1e-9);
        speedups.push(speedup);
        t.row(vec![
            threads.to_string(),
            format!("{:.2}", ms(uncached_wall)),
            format!("{:.2}", ms(cached_wall)),
            format!("{speedup:.2}x"),
        ]);
        runs.push(Json::obj([
            ("threads", Json::UInt(threads as u64)),
            ("uncached_ms", Json::Num(ms(uncached_wall))),
            ("cached_ms", Json::Num(ms(cached_wall))),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "thread count changed results: {fingerprints:?}"
    );

    // Cache behavior of one replay, collected outside the timers.
    let rec = Recorder::enabled();
    let _ = replay(THREADS[0], true, &rec);
    let c = |name: &str| rec.counter(name).unwrap_or(0);

    // Operator-plan phase (untimed): the same templates wrapped into
    // OPTIONAL / UNION / DISTINCT / FILTER / ORDER BY plans, served
    // through the plan cache — cached bit-identical to uncached, and
    // the id-only FILTERs must push down into the sites.
    let plans = mpc_datagen::operator_plans(&bundle.benchmark_queries);
    let plan_rec = Recorder::enabled();
    let plan_fps: Vec<u64> = [true, false]
        .iter()
        .map(|&cached| {
            let server = ServeEngine::new(build_engine(), CACHE_ENTRIES);
            let req = RequestSpec::default()
                .threads(THREADS[0])
                .cached(cached)
                .to_request(&plan_rec);
            let mut fp = 0u64;
            // Each plan twice back-to-back: more distinct plans exist
            // than cache entries, so a spaced repeat could age out.
            for np in &plans {
                for _ in 0..2 {
                    let outcome = server
                        .serve_plan(&np.plan, &req, bundle.graph.dictionary())
                        // mpc-allow: unwrap-expect no fault layer in play, so the request cannot fail
                        .expect("no fault layer in play");
                    fp = fold_rows(fp, outcome.rows());
                }
            }
            fp
        })
        .collect();
    assert_eq!(
        plan_fps[0], plan_fps[1],
        "plan cache changed operator-plan results"
    );
    let pc = |name: &str| plan_rec.counter(name).unwrap_or(0);
    assert!(
        pc("query.pushdown.site_evals") > 0,
        "no FILTER was evaluated partition-locally"
    );
    assert!(pc("serve.cache.hit") > 0, "operator plans never hit the cache");

    let json = Json::obj([
        ("experiment", Json::Str("serve_replay".to_owned())),
        ("dataset", Json::Str(bundle.name.to_owned())),
        ("scale", Json::Num(scale_factor())),
        ("requests", Json::UInt(REQUESTS as u64)),
        ("templates", Json::UInt(templates.len() as u64)),
        ("zipf_s", Json::Num(ZIPF_S)),
        ("cache_entries", Json::UInt(CACHE_ENTRIES as u64)),
        ("cache_hits", Json::UInt(c("serve.cache.hit"))),
        ("cache_misses", Json::UInt(c("serve.cache.miss"))),
        ("plan_hits", Json::UInt(c("serve.plan.hit"))),
        ("plan_misses", Json::UInt(c("serve.plan.miss"))),
        ("operator_plans", Json::UInt(plans.len() as u64)),
        ("pushdown_site_evals", Json::UInt(pc("query.pushdown.site_evals"))),
        ("pushdown_filters", Json::UInt(pc("query.pushdown.filters"))),
        ("bit_identical", Json::Bool(true)),
        ("runs", Json::arr(runs)),
    ]);
    let path = write_json("serve_replay", &json);
    emit(
        "serve_replay",
        "Serving-layer replay — cached vs uncached wall-clock on a Zipf workload (LUBM)",
        &t.render(),
    );
    println!(
        "serve replay: {} requests, {} templates, {} hits / {} misses; JSON: {}",
        REQUESTS,
        templates.len(),
        c("serve.cache.hit"),
        c("serve.cache.miss"),
        path.display()
    );
    for (threads, speedup) in THREADS.iter().zip(&speedups) {
        assert!(
            *speedup >= 2.0,
            "cached replay only {speedup:.2}x faster than uncached at {threads} thread(s)"
        );
    }
}
