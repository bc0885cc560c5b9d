//! Instrumented end-to-end run: partitions LUBM with MPC and replays the
//! benchmark queries with the observability layer enabled, then writes a
//! machine-readable `bench_results/run_report.json` combining partitioner
//! stage timings with matcher and cluster counters (schema in
//! `docs/OBSERVABILITY.md`).

use crate::datasets::lubm_bundle;
use crate::harness::{partition_with_traced, run_traced, Method, RunReport};
use crate::report::emit;
use mpc_cluster::{DistributedEngine, NetworkModel};
use mpc_obs::Recorder;
use std::io;

/// Produces `bench_results/run_report.json`.
pub fn run(scale: f64) -> io::Result<()> {
    let bundle = lubm_bundle(scale);
    let rec = Recorder::enabled();
    let part = partition_with_traced(Method::Mpc, &bundle.graph, &rec);
    let engine =
        DistributedEngine::build(&bundle.graph, &part.partitioning, NetworkModel::default());
    for nq in &bundle.benchmark_queries {
        run_traced(&engine, Method::Mpc, &nq.query, &rec);
    }
    let report = RunReport::new("run_report", bundle.name, Method::Mpc, scale, &rec);
    let path = report.write()?;
    emit(
        "run_report",
        "Instrumented run (LUBM, MPC, k=8)",
        &format!("{}JSON written to {}\n", report.metrics.to_text(), path.display()),
    )?;
    Ok(())
}
