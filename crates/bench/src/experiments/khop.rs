//! Extension ablation: k-hop replication (Section I-A discusses and
//! rejects it for space cost — this experiment quantifies the trade-off
//! the paper alludes to: localization gained per byte of replication).

use crate::datasets::{dbpedia_bundle, lubm_bundle};
use crate::harness::{partition_with, Method};
use crate::report::{emit, pct, Table};
use mpc_cluster::{is_khop_executable, CrossingSet, DistributedEngine, NetworkModel};
use mpc_sparql::Query;
use std::io;

/// Runs the k-hop ablation on LUBM (benchmark queries) and the DBpedia
/// analog (query log).
pub fn run(scale: f64) -> io::Result<()> {
    let mut t = Table::new(&[
        "Dataset",
        "radius",
        "stored/|E|",
        "localized",
        "queries",
    ]);
    for bundle in [lubm_bundle(scale), dbpedia_bundle(scale)] {
        let part = partition_with(Method::Mpc, &bundle.graph).partitioning;
        let crossing = CrossingSet(
            bundle
                .graph
                .property_ids()
                .map(|p| part.is_crossing_property(p))
                .collect(),
        );
        let queries: Vec<&Query> = if bundle.benchmark_queries.is_empty() {
            bundle.query_log.iter().collect()
        } else {
            bundle.benchmark_queries.iter().map(|nq| &nq.query).collect()
        };
        for radius in [1usize, 2, 3] {
            let engine = DistributedEngine::build_with_radius(
                &bundle.graph,
                &part,
                NetworkModel::default(),
                radius,
            );
            let localized = queries
                .iter()
                .filter(|q| is_khop_executable(q, &crossing, radius))
                .count();
            t.row(vec![
                bundle.name.to_owned(),
                radius.to_string(),
                format!(
                    "{:.2}",
                    engine.stored_triples() as f64 / bundle.graph.triple_count() as f64
                ),
                pct(localized, queries.len()),
                queries.len().to_string(),
            ]);
        }
    }
    emit(
        "ablation_khop",
        "Extension — k-hop replication: storage overhead vs localization (MPC, k=8)",
        &t.render(),
    )?;
    Ok(())
}
