//! Extension ablation: Bloom-semijoin reduction of decomposed-query
//! shipping (the AdPart \[3\] / WORQ \[24\] run-time optimization the paper
//! classifies as orthogonal to partitioning). Run over the Subject_Hash
//! partitioning, where the most queries need decomposition + joins.

use crate::datasets::lubm_bundle;
use crate::harness::{exec, partition_with, total_ms, Method};
use crate::report::{emit, Table};
use mpc_cluster::{DistributedEngine, ExecMode, NetworkModel};
use std::io;

/// Runs the semijoin ablation.
pub fn run(scale: f64) -> io::Result<()> {
    let bundle = lubm_bundle(scale);
    let part = partition_with(Method::SubjectHash, &bundle.graph).partitioning;
    let plain = DistributedEngine::build(&bundle.graph, &part, NetworkModel::default());
    let mut reduced = DistributedEngine::build(&bundle.graph, &part, NetworkModel::default());
    reduced.semijoin_reduction = true;

    let mut t = Table::new(&[
        "Query",
        "plain comm(KB)",
        "reduced comm(KB)",
        "plain total(ms)",
        "reduced total(ms)",
        "subqueries",
    ]);
    for nq in &bundle.benchmark_queries {
        if nq.query.is_star() {
            continue; // stars run independently; nothing to reduce
        }
        let (r1, s1) = exec(&plain, ExecMode::StarOnly, &nq.query);
        let (r2, s2) = exec(&reduced, ExecMode::StarOnly, &nq.query);
        assert_eq!(r1, r2, "{}: reduction changed the result", nq.name);
        t.row(vec![
            nq.name.clone(),
            format!("{:.1}", s1.comm_bytes as f64 / 1024.0),
            format!("{:.1}", s2.comm_bytes as f64 / 1024.0),
            format!("{:.2}", total_ms(&s1)),
            format!("{:.2}", total_ms(&s2)),
            s1.subqueries.to_string(),
        ]);
    }
    emit(
        "ablation_semijoin",
        "Extension — Bloom-semijoin reduction on decomposed LUBM queries (Subject_Hash, k=8)",
        &t.render(),
    )?;
    Ok(())
}
