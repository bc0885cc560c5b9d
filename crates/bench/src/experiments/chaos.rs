//! Robustness sweep: completeness and recovery cost vs fault rate.
//!
//! The paper's evaluation assumes an infallible 8-machine cluster; this
//! experiment measures what its engine does when that assumption breaks.
//! For each fault rate `r`, every fault kind (crash / stall / corrupt /
//! overload / slow) is sampled at `r` per site-request attempt and the
//! LUBM benchmark queries run under graceful degradation with one replica
//! per fragment. Reported per rate: how many queries still came back
//! complete, and what the retries / failovers / injected-fault counters
//! and the simulated recovery penalty looked like. Counters are exact
//! reproductions for a fixed seed (see docs/FAULT_TOLERANCE.md).

use crate::datasets::lubm_bundle;
use crate::harness::{partition_with, Method};
use crate::report::{emit, pct, write_json, Table};
use mpc_cluster::{
    DistributedEngine, ExecRequest, FaultPlan, FaultSpec, NetworkModel, RetryPolicy,
};
use mpc_obs::Json;
use mpc_sparql::ResolvedPlan;
use std::io;

/// Per-attempt rate for each fault kind (the total fault probability per
/// attempt is five times this).
const RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];
const SEED: u64 = 42;
const REPLICAS: usize = 1;

/// Runs the chaos sweep on LUBM under the MPC partitioning.
pub fn run(scale: f64) -> io::Result<()> {
    let bundle = lubm_bundle(scale);
    let part = partition_with(Method::Mpc, &bundle.graph).partitioning;
    let mut t = Table::new(&[
        "rate/kind",
        "queries",
        "complete",
        "retries",
        "failovers",
        "injected",
        "failed",
        "penalty-ms",
    ]);
    let plans: Vec<ResolvedPlan> = bundle
        .benchmark_queries
        .iter()
        .map(|nq| ResolvedPlan::from_bgp(nq.query.clone()))
        .collect();
    let dict = bundle.graph.dictionary();
    let mut json_rows = Vec::new();
    for rate in RATES {
        // A fresh engine per rate, so every sweep starts at query number 0.
        let engine = DistributedEngine::build(&bundle.graph, &part, NetworkModel::default());
        let req = ExecRequest::new().fault(FaultSpec {
            plan: FaultPlan::uniform(SEED, rate),
            policy: RetryPolicy::default(),
            replicas: REPLICAS,
            graceful: true,
        });
        let mut complete = 0usize;
        let mut retries = 0u64;
        let mut failovers = 0u64;
        let mut injected = 0u64;
        let mut failed = 0u64;
        let mut penalty = std::time::Duration::ZERO;
        let queries = plans.len();
        // Every query carries the same layer, and the engine's query
        // sequence advances across the workload like the real cluster's
        // would.
        for plan in &plans {
            let (partial, stats) = engine
                .run_plan(plan, &req, dict)
                // mpc-allow: unwrap-expect graceful degradation turns every fragment failure into a partial result, never an Err
                .expect("graceful mode never errors")
                .into_parts();
            if partial.complete {
                complete += 1;
            }
            retries += stats.faults.retries;
            failovers += stats.faults.failovers;
            injected += stats.faults.injected;
            failed += stats.faults.failed_fragments;
            penalty += stats.faults.penalty;
        }
        let penalty_ms = penalty.as_secs_f64() * 1e3 / queries.max(1) as f64;
        t.row(vec![
            format!("{rate:.2}"),
            queries.to_string(),
            pct(complete, queries),
            retries.to_string(),
            failovers.to_string(),
            injected.to_string(),
            failed.to_string(),
            format!("{penalty_ms:.2}"),
        ]);
        json_rows.push(Json::obj([
            ("rate", Json::Num(rate)),
            ("queries", Json::UInt(queries as u64)),
            ("complete", Json::UInt(complete as u64)),
            (
                "completeness",
                Json::Num(if queries == 0 {
                    1.0
                } else {
                    complete as f64 / queries as f64
                }),
            ),
            ("retries", Json::UInt(retries)),
            ("failovers", Json::UInt(failovers)),
            ("injected", Json::UInt(injected)),
            ("failed_fragments", Json::UInt(failed)),
            ("mean_penalty_ms", Json::Num(penalty_ms)),
        ]));
    }
    let json = Json::obj([
        ("experiment", Json::Str("chaos_sweep".to_owned())),
        ("dataset", Json::Str(bundle.name.to_owned())),
        ("seed", Json::UInt(SEED)),
        ("replicas", Json::UInt(REPLICAS as u64)),
        ("rates", Json::arr(json_rows)),
    ]);
    let path = write_json("chaos_sweep", &json)?;
    emit(
        "chaos_sweep",
        "Robustness — completeness vs per-kind fault rate (LUBM, MPC k=8, \
         graceful, 1 replica, seed 42)",
        &t.render(),
    )?;
    println!("chaos sweep JSON: {}", path.display());
    Ok(())
}
