//! Tables IV & V: per-stage evaluation times of the benchmark queries
//! under MPC — query decomposition time (QDT), local evaluation time
//! (LET), join time (JT), and the end-to-end total. IEQs have JT = 0 by
//! construction; the paper's LUBM/YAGO2/Bio2RDF benchmarks are 100% IEQs
//! under MPC.

use crate::datasets::{bio2rdf_bundle, lubm_bundle, yago2_bundle, DatasetBundle};
use crate::harness::{exec, partition_with, Method};
use crate::report::{emit, ms, Table};
use mpc_cluster::{DistributedEngine, ExecMode, NetworkModel};
use std::io;

fn stage_table(bundle: &DatasetBundle) -> Table {
    let part = partition_with(Method::Mpc, &bundle.graph);
    let engine = DistributedEngine::build(&bundle.graph, &part.partitioning, NetworkModel::default());
    let mut t = Table::new(&["Query", "class", "QDT(ms)", "LET(ms)", "JT(ms)", "Total(ms)", "rows"]);
    for nq in &bundle.benchmark_queries {
        let (_, stats) = exec(&engine, ExecMode::CrossingAware, &nq.query);
        t.row(vec![
            nq.name.clone(),
            format!("{:?}", stats.class),
            ms(stats.decomposition_time),
            ms(stats.local_eval_time),
            ms(stats.join_time),
            ms(stats.total()),
            stats.result_rows.to_string(),
        ]);
    }
    t
}

/// Regenerates Tables IV (LUBM) and V (YAGO2 + Bio2RDF).
pub fn run(scale: f64) -> io::Result<()> {
    let lubm = lubm_bundle(scale);
    emit(
        "table4_5",
        "Table IV — per-stage evaluation on LUBM (MPC, k=8)",
        &stage_table(&lubm).render(),
    )?;
    let yago = yago2_bundle(scale);
    emit(
        "table4_5",
        "Table V (a) — per-stage evaluation on YAGO2 (MPC, k=8)",
        &stage_table(&yago).render(),
    )?;
    let bio = bio2rdf_bundle(scale);
    emit(
        "table4_5",
        "Table V (b) — per-stage evaluation on Bio2RDF (MPC, k=8)",
        &stage_table(&bio).render(),
    )?;
    Ok(())
}
