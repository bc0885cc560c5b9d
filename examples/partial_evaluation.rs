//! gStoreD-style partial evaluation and assembly: evaluate a non-IEQ
//! query by computing local partial matches at every site and assembling
//! them at the coordinator — then cross-check against both the
//! decomposition-based engine and centralized evaluation.
//!
//! ```sh
//! cargo run --release --example partial_evaluation
//! ```

#![allow(clippy::unwrap_used)] // test code: panicking on bad setup is the failure mode

use mpc::cluster::{partial_evaluate, DistributedEngine, ExecRequest, NetworkModel, Site};
use mpc::core::{MpcConfig, MpcPartitioner, Partitioner, SubjectHashPartitioner};
use mpc::datagen::lubm::{self, LubmConfig};
use mpc::sparql::{evaluate, LocalStore, ResolvedPlan};

fn main() {
    let dataset = lubm::generate(&LubmConfig {
        universities: 4,
        ..Default::default()
    });
    let queries = dataset.benchmark_queries();
    // LQ9 — the advisor/course triangle, a classic non-star query.
    let lq9 = queries.iter().find(|q| q.name == "LQ9").unwrap();
    println!(
        "LUBM analog ({} triples); query LQ9 with {} patterns\n",
        dataset.graph.triple_count(),
        lq9.query.len()
    );

    let reference = evaluate(&lq9.query, &LocalStore::from_graph(&dataset.graph));
    println!("centralized reference: {} matches", reference.len());

    for (name, partitioning) in [
        (
            "MPC",
            MpcPartitioner::new(MpcConfig::with_k(4)).partition(&dataset.graph),
        ),
        (
            "Subject_Hash",
            SubjectHashPartitioner::new(4).partition(&dataset.graph),
        ),
    ] {
        let sites: Vec<Site> = partitioning
            .fragments(&dataset.graph)
            .into_iter()
            .map(|f| Site::load(f).0)
            .collect();
        let (result, stats) = partial_evaluate(&sites, &lq9.query);
        assert_eq!(result, reference, "partial evaluation must be exact");

        let engine = DistributedEngine::build(&dataset.graph, &partitioning, NetworkModel::free());
        let plan = ResolvedPlan::from_bgp(lq9.query.clone());
        let (r2, estats) = engine
            .run_plan(&plan, &ExecRequest::new(), dataset.graph.dictionary())
            .expect("no fault layer in play")
            .into_parts();
        assert_eq!(r2.rows, reference, "decomposition path must be exact");

        println!(
            "\n{name}: |L_cross| = {}",
            partitioning.crossing_property_count()
        );
        println!(
            "  partial evaluation: {} pieces, {} local partial matches, assembly {:?}",
            stats.pieces, stats.local_partial_matches, stats.assembly_time
        );
        println!(
            "  decomposition path: class {:?}, {} subqueries, independent = {}",
            estats.class, estats.subqueries, estats.independent
        );
    }
}
