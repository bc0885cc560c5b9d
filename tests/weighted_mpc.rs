//! Integration tests for the workload-weighted MPC extension.

use mpc::cluster::{classify, CrossingSet};
use mpc::core::{MpcConfig, MpcPartitioner, Partitioner, PropertyWeights};
use mpc::datagen::realistic::{generate, RealisticConfig};
use mpc::datagen::{QuerySampler, ShapeMix};
use mpc::rdf::RdfGraph;

fn graph() -> RdfGraph {
    generate(&RealisticConfig {
        name: "wtest",
        vertices: 4_000,
        triples: 16_000,
        properties: 150,
        domains: 16,
        zipf: 1.2,
        global_fraction: 0.05,
        type_like: true,
        seed: 77,
    })
}

#[test]
fn weighted_partitioning_is_valid_and_respects_balance() {
    let g = graph();
    let mut sampler = QuerySampler::new(&g, 5);
    let log = sampler.sample_log(100, &ShapeMix::dbpedia_like());
    let weights = PropertyWeights::from_workload(log.iter(), g.property_count());
    let cfg = MpcConfig {
        weights: Some(weights),
        ..MpcConfig::with_k(4)
    };
    let part = MpcPartitioner::new(cfg).partition(&g);
    part.validate(&g).unwrap();
    assert!(part.imbalance() <= 1.12, "imbalance {}", part.imbalance());
}

#[test]
fn weighted_total_weight_at_least_plain_when_weights_are_skewed() {
    let g = graph();
    // Hand-skewed weights: a handful of properties dominate.
    let mut weights = PropertyWeights::uniform(g.property_count());
    for p in (0..g.property_count()).step_by(7) {
        weights.0[p] = 50.0;
    }
    let plain = MpcPartitioner::new(MpcConfig::with_k(4)).partition(&g);
    let weighted = MpcPartitioner::new(MpcConfig {
        weights: Some(weights.clone()),
        ..MpcConfig::with_k(4)
    })
    .partition(&g);
    let total = |part: &mpc::core::Partitioning| weights.total(&part.internal_properties());
    assert!(
        total(&weighted) >= total(&plain) * 0.95,
        "weighted {} < plain {}",
        total(&weighted),
        total(&plain)
    );
}

#[test]
fn weighted_mpc_queries_still_classify_and_execute() {
    let g = graph();
    let mut sampler = QuerySampler::new(&g, 6);
    let log = sampler.sample_log(30, &ShapeMix::watdiv_like());
    let weights = PropertyWeights::from_workload(log.iter(), g.property_count());
    let part = MpcPartitioner::new(MpcConfig {
        weights: Some(weights),
        ..MpcConfig::with_k(4)
    })
    .partition(&g);
    let crossing = CrossingSet(
        g.property_ids().map(|p| part.is_crossing_property(p)).collect(),
    );
    let engine = mpc::cluster::DistributedEngine::build(
        &g,
        &part,
        mpc::cluster::NetworkModel::free(),
    );
    let store = mpc::sparql::LocalStore::from_graph(&g);
    for q in &log {
        let _ = classify(q, &crossing);
        let plan = mpc::sparql::ResolvedPlan::from_bgp(q.clone());
        let result = engine
            .run_plan(&plan, &mpc::cluster::ExecRequest::new(), g.dictionary())
            .unwrap()
            .bindings
            .rows;
        assert_eq!(result, mpc::sparql::evaluate(q, &store));
    }
}
