//! LUBM on a simulated 8-site cluster: partitions the same graph with MPC,
//! Subject_Hash and METIS, runs the 14 benchmark queries on each, and
//! prints a response-time comparison (a miniature of the paper's Fig. 7).
//!
//! ```sh
//! cargo run --release --example lubm_cluster
//! ```

use mpc::cluster::{DistributedEngine, ExecMode, ExecRequest, NetworkModel};
use mpc::core::{
    MinEdgeCutPartitioner, MpcConfig, MpcPartitioner, Partitioner, SubjectHashPartitioner,
};
use mpc::datagen::lubm::{self, LubmConfig};
use mpc::sparql::ResolvedPlan;

fn main() {
    const K: usize = 8;
    let dataset = lubm::generate(&LubmConfig {
        universities: 16,
        ..Default::default()
    });
    println!(
        "LUBM analog: {} triples, {} vertices, 18 properties, k={K}\n",
        dataset.graph.triple_count(),
        dataset.graph.vertex_count()
    );

    let partitioners: Vec<(Box<dyn Partitioner>, ExecMode)> = vec![
        (
            Box::new(MpcPartitioner::new(MpcConfig::with_k(K))),
            ExecMode::CrossingAware,
        ),
        (Box::new(SubjectHashPartitioner::new(K)), ExecMode::StarOnly),
        (Box::new(MinEdgeCutPartitioner::new(K)), ExecMode::StarOnly),
    ];

    let mut engines = Vec::new();
    for (p, mode) in &partitioners {
        let partitioning = p.partition(&dataset.graph);
        println!(
            "{:<13} |L_cross| = {:<3} |E^c| = {}",
            p.name(),
            partitioning.crossing_property_count(),
            partitioning.crossing_edge_count()
        );
        engines.push((
            p.name(),
            *mode,
            DistributedEngine::build(&dataset.graph, &partitioning, NetworkModel::default()),
        ));
    }

    println!("\n{:<6} {:<9} {:>12} {:>15} {:>12}", "query", "shape", "MPC(ms)", "SubjHash(ms)", "METIS(ms)");
    for nq in dataset.benchmark_queries() {
        let shape = if nq.query.is_star() { "star" } else { "non-star" };
        let mut row = format!("{:<6} {:<9}", nq.name, shape);
        let plan = ResolvedPlan::from_bgp(nq.query.clone());
        for (_, mode, engine) in &engines {
            let stats = engine
                .run_plan(
                    &plan,
                    &ExecRequest::new().mode(*mode),
                    dataset.graph.dictionary(),
                )
                .expect("no fault layer in play")
                .stats;
            let marker = if stats.independent { "" } else { "*" };
            row.push_str(&format!("{:>11.2}{:<1}", stats.total().as_secs_f64() * 1e3, marker));
            row.push_str("   ");
        }
        println!("{row}");
    }
    println!("\n(* = required inter-partition joins)");
}
