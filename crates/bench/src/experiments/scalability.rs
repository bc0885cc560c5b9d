//! Figs. 9 & 10: scalability of MPC with dataset size. The paper sweeps
//! 100M → 10B triples on 8 machines; we sweep three laptop-scale sizes a
//! decade apart (scaled by `MPC_BENCH_SCALE`) and report the same offline
//! (partition + load) and online (query response) series.

use crate::datasets::{lubm_at, watdiv_at};
use crate::harness::{build_engines, exec, partition_with, total_ms, Method};
use crate::report::{emit, secs, Table};
use mpc_cluster::{DistributedEngine, ExecMode, NetworkModel};
use mpc_rdf::narrow;
use std::io;

/// Regenerates Figs. 9 and 10.
pub fn run(scale: f64) -> io::Result<()> {
    let lubm_sizes: Vec<usize> = [4.0, 16.0, 64.0]
        .iter()
        .map(|&u| narrow::usize_from_f64(u * scale).max(2))
        .collect();
    let watdiv_sizes: Vec<usize> = [1000.0, 4000.0, 16000.0]
        .iter()
        .map(|&u| narrow::usize_from_f64(u * scale).max(100))
        .collect();

    // Fig. 9: offline scalability.
    let mut offline = Table::new(&[
        "Dataset", "size", "|V|", "|E|", "Partition(s)", "Load(s)", "Total(s)",
    ]);
    // Fig. 10: online scalability (average + max over the workload).
    let mut online = Table::new(&["Dataset", "size", "queries", "avg(ms)", "max(ms)"]);

    for &u in &lubm_sizes {
        let bundle = lubm_at(u);
        let p = partition_with(Method::Mpc, &bundle.graph);
        let engine =
            DistributedEngine::build(&bundle.graph, &p.partitioning, NetworkModel::default());
        offline.row(vec![
            "LUBM".into(),
            format!("{u} univ"),
            bundle.graph.vertex_count().to_string(),
            bundle.graph.triple_count().to_string(),
            secs(p.partition_time),
            secs(engine.load_time()),
            secs(p.partition_time + engine.load_time()),
        ]);
        let times: Vec<f64> = bundle
            .benchmark_queries
            .iter()
            .map(|nq| total_ms(&exec(&engine, ExecMode::CrossingAware, &nq.query).1))
            .collect();
        online.row(vec![
            "LUBM".into(),
            format!("{u} univ"),
            times.len().to_string(),
            format!("{:.2}", times.iter().sum::<f64>() / times.len() as f64),
            format!("{:.2}", times.iter().cloned().fold(0.0, f64::max)),
        ]);
    }

    for &s in &watdiv_sizes {
        let bundle = watdiv_at(s, scale);
        let nq = bundle.query_log.len().min(200);
        let set = build_engines(bundle);
        let p = partition_with(Method::Mpc, &set.bundle.graph);
        offline.row(vec![
            "WatDiv".into(),
            format!("{s} users"),
            set.bundle.graph.vertex_count().to_string(),
            set.bundle.graph.triple_count().to_string(),
            secs(p.partition_time),
            secs(set.engine(Method::Mpc).load_time()),
            secs(p.partition_time + set.engine(Method::Mpc).load_time()),
        ]);
        let engine = set.engine(Method::Mpc);
        let times: Vec<f64> = set.bundle.query_log[..nq]
            .iter()
            .map(|q| total_ms(&exec(engine, ExecMode::CrossingAware, q).1))
            .collect();
        online.row(vec![
            "WatDiv".into(),
            format!("{s} users"),
            times.len().to_string(),
            format!("{:.2}", times.iter().sum::<f64>() / times.len() as f64),
            format!("{:.2}", times.iter().cloned().fold(0.0, f64::max)),
        ]);
    }

    emit(
        "fig9_10",
        "Fig. 9 — offline scalability of MPC (k=8)",
        &offline.render(),
    )?;
    emit(
        "fig9_10",
        "Fig. 10 — online scalability of MPC (k=8)",
        &online.render(),
    )?;
    Ok(())
}
