//! Table III: percentage of independently executable queries per method.
//!
//! Columns match the paper: MPC, VP, plain Subject_Hash/METIS (star-only —
//! identical numbers, printed once), and the crossing-property-extended
//! `Subject_Hash+` / `METIS+` variants.

use crate::datasets::all_bundles;
use crate::harness::{partition_vp, partition_with, Method};
use crate::report::{emit, pct, Table};
use mpc_cluster::classify;
use mpc_cluster::CrossingSet;
use mpc_core::EdgePartitioning;
use mpc_rdf::RdfGraph;
use mpc_sparql::Query;
use std::io;

/// VP's IEQ test without materializing an engine: all fixed properties on
/// one site and no property variables.
fn vp_is_ieq(query: &Query, ep: &EdgePartitioning) -> bool {
    if query.has_property_variables() || query.patterns.is_empty() {
        return false;
    }
    let homes: Vec<_> = query
        .properties()
        .iter()
        .map(|p| ep.part_of_property(*p))
        .collect();
    homes.windows(2).all(|w| w[0] == w[1])
}

fn crossing_set(g: &RdfGraph, part: &mpc_core::Partitioning) -> CrossingSet {
    CrossingSet(g.property_ids().map(|p| part.is_crossing_property(p)).collect())
}

/// Regenerates Table III.
pub fn run(scale: f64) -> io::Result<()> {
    let mut t = Table::new(&[
        "Dataset",
        "#queries",
        "MPC",
        "VP",
        "SH/METIS (star)",
        "Subject_Hash+",
        "METIS+",
    ]);
    for bundle in all_bundles(scale) {
        let queries: Vec<&Query> = if bundle.benchmark_queries.is_empty() {
            bundle.query_log.iter().collect()
        } else {
            bundle.benchmark_queries.iter().map(|nq| &nq.query).collect()
        };
        let n = queries.len();
        let mpc = crossing_set(
            &bundle.graph,
            &partition_with(Method::Mpc, &bundle.graph).partitioning,
        );
        let sh = crossing_set(
            &bundle.graph,
            &partition_with(Method::SubjectHash, &bundle.graph).partitioning,
        );
        let metis = crossing_set(
            &bundle.graph,
            &partition_with(Method::Metis, &bundle.graph).partitioning,
        );
        let (ep, _) = partition_vp(&bundle.graph);

        let mut counts = [0usize; 5]; // mpc, vp, star, sh+, metis+
        for q in &queries {
            if classify(q, &mpc).is_ieq() {
                counts[0] += 1;
            }
            if vp_is_ieq(q, &ep) {
                counts[1] += 1;
            }
            if q.is_star() {
                counts[2] += 1;
            }
            if classify(q, &sh).is_ieq() {
                counts[3] += 1;
            }
            if classify(q, &metis).is_ieq() {
                counts[4] += 1;
            }
        }
        t.row(vec![
            bundle.name.to_owned(),
            n.to_string(),
            pct(counts[0], n),
            pct(counts[1], n),
            pct(counts[2], n),
            pct(counts[3], n),
            pct(counts[4], n),
        ]);
    }
    emit("table3", "Table III — percentage of IEQs (k=8)", &t.render())?;
    Ok(())
}
