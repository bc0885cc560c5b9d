//! The per-layer ladder of a traced run: the same request stream the
//! TCP clients follow, replayed in-process through each layer's *public*
//! function in `run_query`'s order, every call wrapped in a span.
//!
//! Per request there are two span trees:
//!
//! * `request` — what the server does for it: `proto::decode` → `parse`
//!   → `resolve` → `ServeEngine::serve_plan` → `encode_bindings` +
//!   `proto::encode`. Its duration is the in-process layer sum that the
//!   1-client TCP median is reconciled against.
//! * `breakdown` — only for requests the cache did not answer, the
//!   layers beneath `serve_plan` re-executed one by one on the same
//!   plan: `run_plan`, then per BGP leaf `classify`, `decompose`,
//!   `Site::respond` on each of the 8 fragments, the matcher and the
//!   wire codec per fragment, and `join_all`. These are averaged over
//!   *all* requests, so a layer's number is its share of a request, not
//!   its cost when reached.
//!
//! The ladder is bounded by time first and request count second: it
//! stops at `MAX_REQUESTS` or when its budget is spent.

use crate::fixture::{self, Fixture};
use crate::spans::{span_cost_ns, Tracer};
use crate::stats;
use crate::workload::{Batch, Stream};
use mpc_cluster::wire;
use mpc_cluster::{
    classify, decompose_crossing_aware, CommitOptions, ExecMode, RequestSpec, ServeEngine, Site,
    UpdateBatch,
};
use mpc_obs::Recorder;
use mpc_server::proto::{self, Frame, QueryFrame};
use mpc_sparql::{
    canonicalize_plan, evaluate_observed, join_all, parse, parse_update, Bindings, MatchStats,
    PlanNode, Query, ResolvedPlan,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Requests the ladder covers when time allows.
pub const MAX_REQUESTS: usize = 1_500;

/// Spans per request in the `request` tree (itself and five layers).
const REQUEST_SPANS: f64 = 6.0;

/// What the ladder measured.
pub struct Ladder {
    /// Per-layer metrics by their `BENCHMARK.json` names.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median duration of the `request` span, microseconds.
    pub request_p50_us: f64,
    pub tracer: Tracer,
}

#[derive(Default)]
struct Totals {
    requests: usize,
    hits: u64,
    misses: u64,
    hit_ns: u64,
    miss_overhead_ns: i128,
    respond_max_ns: u64,
    respond_sum_ns: u64,
    matcher: MatchStats,
    subqueries: u64,
    qdt_ns: u128,
    let_ns: u128,
    jt_ns: u128,
    comm_bytes: u64,
    comm_sim_ns: u128,
    commits: u64,
    overlay_len: u64,
    request_us: Vec<f64>,
}

fn cache_hits(serve: &ServeEngine) -> u64 {
    serve.shard_stats().iter().map(|s| s.hits).sum()
}

/// `parse_update` + `ServeEngine::commit` of one batch, each in a span.
fn commit(
    serve: &mut ServeEngine,
    batch: &Batch,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> Result<(), String> {
    let text = batch.text();
    let data = tracer
        .span("sparql.parser.parse_update", |_| parse_update(&text))
        .map_err(|e| format!("ladder parse_update: {e}"))?;
    let update = UpdateBatch::from_update_data(&data);
    let report = tracer
        .span("cluster.update.commit", |_| {
            serve.commit(&update, &CommitOptions::default(), &Recorder::disabled())
        })
        .map_err(|e| format!("ladder commit: {e}"))?;
    totals.commits += 1;
    // Novelty entries plus tombstones this commit staged in the overlay.
    totals.overlay_len += (report.inserted + report.deleted) as u64;
    Ok(())
}

/// The layers beneath `serve_plan`, one public call at a time, for a
/// request the cache did not answer.
fn breakdown(
    serve: &ServeEngine,
    sites: &[Site],
    plan: &ResolvedPlan,
    spec: &RequestSpec,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> Result<(), String> {
    let engine = serve.engine();
    let dict = engine
        .dictionary()
        .expect("the ladder's engine has updates armed");
    let req = spec.to_request(&Recorder::disabled());
    let stats = tracer
        .span("cluster.coordinator.run_plan", |_| {
            engine.run_plan(plan, &req, dict)
        })
        .map_err(|e| format!("ladder run_plan: {e}"))?
        .stats;
    totals.miss_overhead_ns += i128::from(tracer.last_ns("cluster.serve.serve_plan"))
        - i128::from(tracer.last_ns("cluster.coordinator.run_plan"));
    totals.subqueries += stats.subqueries as u64;
    totals.qdt_ns += stats.decomposition_time.as_nanos();
    totals.let_ns += stats.local_eval_time.as_nanos();
    totals.jt_ns += stats.join_time.as_nanos();
    totals.comm_bytes += stats.comm_bytes;
    totals.comm_sim_ns += stats.comm_time.as_nanos();

    let mut leaves: Vec<&Query> = Vec::new();
    plan.root.for_each(&mut |n| {
        if let PlanNode::Bgp { query, .. } = n {
            leaves.push(query);
        }
    });
    let crossing = engine.crossing_set();
    for leaf in leaves {
        let class = tracer.span("cluster.ieq.classify", |_| classify(leaf, crossing));
        let subqueries = if class.is_ieq() {
            None
        } else {
            Some(tracer.span("cluster.decompose.decompose", |_| {
                decompose_crossing_aware(leaf, crossing)
            }))
        };
        let queries: Vec<&Query> = match &subqueries {
            Some(subs) => subs.iter().map(|s| &s.query).collect(),
            None => vec![leaf],
        };
        // One table per subquery, in the parent's variable space, as the
        // coordinator merges them.
        let mut merged: Vec<Bindings> = match &subqueries {
            Some(subs) => subs
                .iter()
                .map(|s| Bindings::new(s.parent_vars.clone()))
                .collect(),
            None => Vec::new(),
        };
        let mut slowest = 0u64;
        for (host, site) in sites.iter().enumerate() {
            let host = u16::try_from(host).expect("8 sites");
            let response = tracer
                .span("cluster.site.respond", |_| {
                    site.respond(&queries, host, None, 1.0, Duration::from_secs(1))
                })
                .map_err(|e| format!("ladder Site::respond: {e}"))?;
            let took = tracer.last_ns("cluster.site.respond");
            slowest = slowest.max(took);
            totals.respond_sum_ns += took;
            for (into, table) in merged.iter_mut().zip(response.tables) {
                into.rows.extend(table.rows);
            }
            for q in &queries {
                let table = tracer.span("sparql.matcher.evaluate", |_| {
                    evaluate_observed(q, &site.store, &mut totals.matcher)
                });
                let bytes = tracer
                    .span("cluster.wire.encode", |_| wire::encode_bindings(&table))
                    .map_err(|e| format!("ladder wire encode: {e}"))?;
                tracer
                    .span("cluster.wire.decode", |_| wire::decode_bindings(bytes))
                    .map_err(|e| format!("ladder wire decode: {e}"))?;
            }
        }
        totals.respond_max_ns += slowest;
        if subqueries.is_some() {
            for table in &mut merged {
                table.sort_dedup();
            }
            merged.sort_by_key(Bindings::len);
            std::hint::black_box(tracer.span("sparql.algebra.join_all", |_| join_all(&merged)));
        }
    }
    Ok(())
}

/// Replays lane 0 of `seed`'s stream through the layers until
/// [`MAX_REQUESTS`] or `budget`, whichever comes first. On `lubm_update`
/// a commit is interleaved every `reads_per_commit` reads — the cadence
/// the served window had — so that the ladder's reads alternate between
/// hits and post-flip misses the way the served ones did.
pub fn run(
    fx: &Fixture,
    seed: u64,
    budget: Duration,
    reads_per_commit: usize,
) -> Result<Ladder, String> {
    let started = Instant::now();
    let w = fx.workload;
    let mut serve = fixture::serve_engine(&fx.graph, &fx.partitioning);
    let sites: Vec<Site> = fx
        .partitioning
        .fragments(&fx.graph)
        .into_iter()
        .map(|f| Site::load(f).0)
        .collect();
    // Exactly the request `run_query` builds from `RequestOpts::default()`.
    let spec = RequestSpec::default()
        .mode(ExecMode::CrossingAware)
        .cached(w.cached())
        .threads(0);
    let mut tracer = Tracer::new();
    let mut totals = Totals::default();

    // Warm the cache the way the TCP clients' priming stripe does, for at
    // most a quarter of the budget.
    if w.cached() {
        let dict = serve.engine().dictionary().expect("updates armed");
        let req = spec.to_request(&Recorder::disabled());
        for text in &fx.pool {
            if started.elapsed() >= budget / 4 {
                break;
            }
            let plan = fixture::resolve(text, &fx.graph)?;
            serve
                .serve_plan(&plan, &req, dict)
                .map_err(|e| format!("ladder priming: {e}"))?;
        }
    }

    let mut pending = fx.batches.iter();
    let stream = Stream::new(w, fx.pool.len(), seed, 0);
    for (i, idx) in stream.take(MAX_REQUESTS).enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        tracer.set_request(u32::try_from(i).expect("few requests"));
        if w.has_writer() && i % reads_per_commit.max(1) == 0 {
            if let Some(batch) = pending.next() {
                commit(&mut serve, batch, &mut tracer, &mut totals)?;
            }
        }
        let payload = proto::encode(&Frame::Query(QueryFrame {
            mode: ExecMode::CrossingAware,
            cached: w.cached(),
            threads: 0,
            text: fx.pool[idx].clone(),
        }));
        let dict = serve.engine().dictionary().expect("updates armed");
        let req = spec.to_request(&Recorder::disabled());
        let hits_before = cache_hits(&serve);
        let (plan, reply) =
            tracer.span("request", |t| -> Result<(ResolvedPlan, Vec<u8>), String> {
                let frame = t
                    .span("server.proto.decode", |_| proto::decode(&payload))
                    .map_err(|e| format!("ladder decode: {e}"))?;
                let Frame::Query(q) = frame else {
                    return Err("ladder decoded a non-QUERY frame".to_owned());
                };
                let algebra = t
                    .span("sparql.parser.parse", |_| parse(&q.text))
                    .map_err(|e| format!("ladder parse: {e}"))?;
                let plan = t
                    .span("sparql.algebra.resolve", |_| algebra.resolve(dict))
                    .map_err(|e| format!("ladder resolve: {e}"))?;
                let outcome = t
                    .span("cluster.serve.serve_plan", |_| {
                        serve.serve_plan(&plan, &req, dict)
                    })
                    .map_err(|e| format!("ladder serve_plan: {e}"))?;
                let (partial, _) = outcome.into_parts();
                let reply = t
                    .span("server.proto.encode", |_| {
                        wire::encode_bindings(&partial.rows)
                            .map(|b| proto::encode(&Frame::Result(b.as_ref().to_vec())))
                    })
                    .map_err(|e| format!("ladder encode: {e}"))?;
                Ok((plan, reply))
            })?;
        std::hint::black_box(reply);
        totals.requests += 1;
        totals
            .request_us
            .push(tracer.last_ns("request") as f64 / 1e3);
        let hit = cache_hits(&serve) > hits_before;
        tracer.span("breakdown", |t| -> Result<(), String> {
            std::hint::black_box(t.span("sparql.canon.canonicalize_plan", |_| {
                canonicalize_plan(&plan)
            }));
            if hit {
                totals.hits += 1;
                totals.hit_ns += t.last_ns("cluster.serve.serve_plan");
                Ok(())
            } else {
                totals.misses += 1;
                breakdown(&serve, &sites, &plan, &spec, t, &mut totals)
            }
        })?;
    }
    // Whatever commits the reads did not reach (all of them on the
    // read-only workloads), so `cluster.update.commit_us` is measured on
    // every workload over the same batches the TCP writer sends.
    for batch in pending {
        commit(&mut serve, batch, &mut tracer, &mut totals)?;
    }

    if totals.requests == 0 {
        return Err("the ladder's budget ran out before its first request".to_owned());
    }
    let self_ns = tracer.self_times();
    let n = totals.requests as f64;
    let per_request_us = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / n / 1e3;
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let mut metrics = BTreeMap::new();
    for name in [
        "server.proto.decode_us",
        "server.proto.encode_us",
        "sparql.parser.parse_us",
        "sparql.algebra.resolve_us",
        "sparql.canon.canonicalize_plan_us",
        "cluster.coordinator.run_plan_us",
        "cluster.ieq.classify_us",
        "cluster.decompose.decompose_us",
        "sparql.matcher.evaluate_us",
        "cluster.wire.encode_us",
        "cluster.wire.decode_us",
        "sparql.algebra.join_all_us",
    ] {
        metrics.insert(
            name,
            per_request_us(name.strip_suffix("_us").expect("named *_us")),
        );
    }
    metrics.insert(
        "cluster.serve.hit_us",
        per(totals.hit_ns as f64 / 1e3, totals.hits),
    );
    metrics.insert(
        "cluster.serve.miss_overhead_us",
        per(totals.miss_overhead_ns as f64 / 1e3, totals.misses),
    );
    metrics.insert(
        "cluster.site.respond_max_us",
        totals.respond_max_ns as f64 / n / 1e3,
    );
    metrics.insert(
        "cluster.site.respond_sum_us",
        totals.respond_sum_ns as f64 / n / 1e3,
    );
    metrics.insert(
        "sparql.matcher.candidates_per_row",
        totals.matcher.candidates_scanned as f64 / totals.matcher.rows_emitted.max(1) as f64,
    );
    metrics.insert("cluster.stats.subqueries", totals.subqueries as f64 / n);
    metrics.insert("cluster.stats.qdt_us", totals.qdt_ns as f64 / n / 1e3);
    metrics.insert("cluster.stats.let_us", totals.let_ns as f64 / n / 1e3);
    metrics.insert("cluster.stats.jt_us", totals.jt_ns as f64 / n / 1e3);
    metrics.insert("cluster.stats.comm_bytes", totals.comm_bytes as f64 / n);
    metrics.insert(
        "cluster.stats.comm_sim_us",
        totals.comm_sim_ns as f64 / n / 1e3,
    );
    let commit_us = |span: &str| {
        per(
            self_ns.get(span).copied().unwrap_or(0) as f64 / 1e3,
            totals.commits,
        )
    };
    metrics.insert(
        "cluster.update.commit_us",
        commit_us("cluster.update.commit"),
    );
    metrics.insert(
        "sparql.parser.parse_update_us",
        commit_us("sparql.parser.parse_update"),
    );
    metrics.insert("cluster.update.overlay_len", totals.overlay_len as f64);
    metrics.insert("ladder.requests", n);
    // Spans are recorded by the benchmark around each call, never inside
    // the program, so the TCP path carries none; what tracing costs is
    // what the recorder adds to the in-process request. Estimated from
    // the calibrated cost of one span: traced rate / untraced rate.
    let request_ns = stats::mean(&totals.request_us) * 1e3;
    metrics.insert(
        "trace.overhead_ratio",
        ((request_ns - REQUEST_SPANS * span_cost_ns()) / request_ns).clamp(0.0, 1.0),
    );
    Ok(Ladder {
        metrics,
        request_p50_us: stats::median(&totals.request_us),
        tracer,
    })
}
