//! Parallel scaling: wall-clock of the two mpc-par hot paths at 1 vs 4
//! worker threads, with a determinism cross-check. Two workloads:
//!
//! * **query** — the LUBM benchmark queries replayed through
//!   [`DistributedEngine::run_plan`] as one-leaf plans; the per-site
//!   fragment fan-out is what parallelizes.
//! * **select** — internal property selection (Algorithm 1) on a
//!   realistic synthetic graph; the standalone-cost evaluation over all
//!   properties is what parallelizes.
//!
//! Both paths promise bit-identical output for every thread count
//! (docs/PARALLELISM.md), so the run asserts that before reporting any
//! timing. Written to `bench_results/par_scaling.json` together with
//! `host_cpus`: on a multi-core host the 4-thread total beats the
//! 1-thread total; on a single-core host (the CI container) the two
//! coincide up to noise and the determinism assertion is the payload.

use crate::datasets::{lubm_bundle, scale_factor};
use crate::harness::{partition_with, Method, K};
use crate::report::{emit, fresh, write_json, Table};
use mpc_cluster::{DistributedEngine, ExecRequest, NetworkModel};
use mpc_core::select::forward_greedy;
use mpc_core::SelectConfig;
use mpc_datagen::realistic::{generate as gen_real, RealisticConfig};
use mpc_obs::Json;
use mpc_sparql::ResolvedPlan;
use std::time::{Duration, Instant};

/// Workload repetitions per measurement — amortizes thread-spawn noise.
const REPEATS: usize = 5;

/// Thread budgets under comparison (the acceptance pair).
const THREADS: [usize; 2] = [1, 4];

/// One measured workload: wall time plus a determinism fingerprint.
struct Sample {
    wall: Duration,
    fingerprint: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Produces `bench_results/par_scaling.json`.
pub fn run() {
    fresh("par_scaling");
    let bundle = lubm_bundle();
    let part = partition_with(Method::Mpc, &bundle.graph).partitioning;
    let engine = DistributedEngine::build(&bundle.graph, &part, NetworkModel::default());
    let plans: Vec<ResolvedPlan> = bundle
        .benchmark_queries
        .iter()
        .map(|nq| ResolvedPlan::from_bgp(nq.query.clone()))
        .collect();
    let dict = bundle.graph.dictionary();

    let query_sweep = |threads: usize| {
        let req = ExecRequest::new().threads(threads);
        let t0 = Instant::now();
        let mut rows = 0u64;
        for _ in 0..REPEATS {
            for plan in &plans {
                let outcome = engine
                    .run_plan(plan, &req, dict)
                    // mpc-allow: unwrap-expect no fault layer in play, so the request cannot fail
                    .expect("no fault layer in play");
                rows += outcome.rows().rows.len() as u64;
            }
        }
        Sample {
            wall: t0.elapsed(),
            fingerprint: rows,
        }
    };

    // The selection workload wants many properties with real DSU work
    // each; the micro-benchmark's realistic graph fits.
    let sel_graph = gen_real(&RealisticConfig {
        name: "par_scaling",
        vertices: 12_000,
        triples: 60_000,
        properties: 400,
        domains: 32,
        zipf: 1.1,
        global_fraction: 0.03,
        type_like: true,
        seed: 5,
    });
    let select_sweep = |threads: usize| {
        let cfg = SelectConfig::new().with_k(K).with_threads(threads);
        let t0 = Instant::now();
        let mut fp = 0u64;
        for _ in 0..REPEATS {
            let sel = forward_greedy(&sel_graph, &cfg);
            fp += sel.cost + sel.internal_count() as u64;
        }
        Sample {
            wall: t0.elapsed(),
            fingerprint: fp,
        }
    };

    // Warm the plan cache (and the allocator) so the first measured
    // budget isn't charged for one-time work the second one skips.
    let _ = query_sweep(THREADS[0]);

    let mut t = Table::new(&["threads", "query(ms)", "select(ms)", "total(ms)"]);
    let mut runs = Vec::new();
    let mut totals = Vec::new();
    let mut fingerprints = Vec::new();
    for threads in THREADS {
        let q = query_sweep(threads);
        let s = select_sweep(threads);
        let total = q.wall + s.wall;
        t.row(vec![
            threads.to_string(),
            format!("{:.2}", ms(q.wall)),
            format!("{:.2}", ms(s.wall)),
            format!("{:.2}", ms(total)),
        ]);
        runs.push(Json::obj([
            ("threads", Json::UInt(threads as u64)),
            ("query_ms", Json::Num(ms(q.wall))),
            ("select_ms", Json::Num(ms(s.wall))),
            ("total_ms", Json::Num(ms(total))),
        ]));
        totals.push(total);
        fingerprints.push((q.fingerprint, s.fingerprint));
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "thread count changed results: {fingerprints:?}"
    );
    let speedup = totals[0].as_secs_f64() / totals[1].as_secs_f64().max(1e-9);

    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let json = Json::obj([
        ("experiment", Json::Str("par_scaling".to_owned())),
        ("dataset", Json::Str(bundle.name.to_owned())),
        ("scale", Json::Num(scale_factor())),
        ("host_cpus", Json::UInt(host_cpus as u64)),
        ("repeats", Json::UInt(REPEATS as u64)),
        ("queries", Json::UInt(bundle.benchmark_queries.len() as u64)),
        ("deterministic", Json::Bool(true)),
        ("runs", Json::arr(runs)),
        ("speedup", Json::Num(speedup)),
    ]);
    let path = write_json("par_scaling", &json);
    t.row(vec![
        "speedup".into(),
        String::new(),
        String::new(),
        format!("{speedup:.2}x"),
    ]);
    emit(
        "par_scaling",
        "Parallel scaling — wall-clock at 1 vs 4 worker threads (LUBM queries + selection)",
        &t.render(),
    );
    println!("par scaling JSON: {}", path.display());
}
