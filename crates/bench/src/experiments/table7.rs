//! Table VII: the greedy heuristic vs the exact branch-and-bound on LUBM
//! (the only dataset whose 18 properties make the exponential search
//! feasible — same restriction as the paper).

use crate::harness::K;
use crate::report::{emit, secs, Table};
use mpc_core::{MpcConfig, MpcExactPartitioner, MpcPartitioner, Partitioner};
use mpc_datagen::lubm::{self, LubmConfig};
use std::time::Instant;
use mpc_rdf::narrow;
use std::io;

/// Regenerates Table VII.
pub fn run(scale: f64) -> io::Result<()> {
    // The exact search clones disjoint-set forests along the DFS, so run it
    // on a moderate LUBM instance (still hundreds of thousands of triples
    // at scale 1.0).
    let universities = narrow::usize_from_f64(8.0 * scale).max(2);
    let d = lubm::generate(&LubmConfig {
        universities,
        ..Default::default()
    });

    let mut t = Table::new(&[
        "Method",
        "|L_cross|",
        "|E^c|",
        "|L_in|",
        "Partitioning(s)",
    ]);

    let t0 = Instant::now();
    let greedy = MpcPartitioner::new(MpcConfig::with_k(K)).partition(&d.graph);
    let greedy_time = t0.elapsed();
    t.row(vec![
        "MPC (greedy)".into(),
        greedy.crossing_property_count().to_string(),
        greedy.crossing_edge_count().to_string(),
        greedy.internal_properties().len().to_string(),
        secs(greedy_time),
    ]);

    let t1 = Instant::now();
    let exact = MpcExactPartitioner::new(K).partition(&d.graph);
    let exact_time = t1.elapsed();
    t.row(vec![
        "MPC-Exact".into(),
        exact.crossing_property_count().to_string(),
        exact.crossing_edge_count().to_string(),
        exact.internal_properties().len().to_string(),
        secs(exact_time),
    ]);

    emit(
        "table7",
        &format!("Table VII — greedy vs exact on LUBM ({universities} universities, k={K})"),
        &t.render(),
    )?;
    Ok(())
}
