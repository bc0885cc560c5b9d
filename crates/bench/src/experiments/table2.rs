//! Table II: number of crossing properties and crossing edges per
//! vertex-disjoint partitioning method (VP is edge-disjoint and has
//! neither, exactly as the paper excludes it).

use crate::datasets::all_bundles;
use crate::harness::{partition_with, Method};
use crate::report::{emit, Table};
use std::io;

/// Regenerates Table II.
pub fn run(scale: f64) -> io::Result<()> {
    let mut t = Table::new(&[
        "Dataset", "Method", "|L|", "|L_cross|", "|E^c|", "imbalance",
    ]);
    for bundle in all_bundles(scale) {
        for method in Method::ALL {
            let p = partition_with(method, &bundle.graph);
            t.row(vec![
                bundle.name.to_owned(),
                method.name().to_owned(),
                bundle.graph.property_count().to_string(),
                p.partitioning.crossing_property_count().to_string(),
                p.partitioning.crossing_edge_count().to_string(),
                format!("{:.3}", p.partitioning.imbalance()),
            ]);
        }
    }
    emit(
        "table2",
        "Table II — crossing properties and crossing edges (k=8)",
        &t.render(),
    )?;
    Ok(())
}
