//! End-to-end integration: generators → partitioners → simulated cluster,
//! cross-checked against centralized evaluation.

use mpc::cluster::{DistributedEngine, ExecMode, ExecRequest, NetworkModel, VpEngine};
use mpc::core::{
    MinEdgeCutPartitioner, MpcConfig, MpcPartitioner, Partitioner, SubjectHashPartitioner,
    VerticalPartitioner,
};
use mpc::datagen::lubm::{self, LubmConfig};
use mpc::datagen::realistic::{generate as gen_real, RealisticConfig};
use mpc::datagen::watdiv::{self, WatdivConfig};
use mpc::datagen::{QuerySampler, ShapeMix};
use mpc::sparql::{evaluate, LocalStore, ResolvedPlan};

const K: usize = 4;

#[test]
fn lubm_benchmark_queries_match_reference_on_all_engines() {
    let d = lubm::generate(&LubmConfig {
        universities: 3,
        seed: 1,
    });
    let store = LocalStore::from_graph(&d.graph);
    let partitionings: Vec<(ExecMode, mpc::core::Partitioning)> = vec![
        (
            ExecMode::CrossingAware,
            MpcPartitioner::new(MpcConfig::with_k(K)).partition(&d.graph),
        ),
        (
            ExecMode::StarOnly,
            SubjectHashPartitioner::new(K).partition(&d.graph),
        ),
        (
            ExecMode::StarOnly,
            MinEdgeCutPartitioner::new(K).partition(&d.graph),
        ),
    ];
    for (mode, part) in &partitionings {
        part.validate(&d.graph).unwrap();
        let engine = DistributedEngine::build(&d.graph, part, NetworkModel::free());
        for nq in d.benchmark_queries() {
            let expected = evaluate(&nq.query, &store);
            let plan = ResolvedPlan::from_bgp(nq.query.clone());
            let result = engine
                .run_plan(&plan, &ExecRequest::new().mode(*mode), d.graph.dictionary())
                .unwrap()
                .bindings
                .rows;
            assert_eq!(result, expected, "{} under {mode:?}", nq.name);
        }
    }
}

#[test]
fn lubm_queries_are_all_ieqs_under_mpc() {
    // The paper's Table III: 100% of LUBM benchmark queries are IEQs under
    // MPC with k=8. (Universities must outnumber partitions, as in the real
    // benchmark — with k == #universities the largest university WCC can
    // exceed (1+ε)|V|/k and an intra-university property is forced to
    // cross.)
    let d = lubm::generate(&LubmConfig {
        universities: 16,
        seed: 2,
    });
    let part = MpcPartitioner::new(MpcConfig::with_k(8)).partition(&d.graph);
    let engine = DistributedEngine::build(&d.graph, &part, NetworkModel::free());
    for nq in d.benchmark_queries() {
        assert!(
            engine.classify(&nq.query).is_ieq(),
            "{} is not an IEQ under MPC (class {:?})",
            nq.name,
            engine.classify(&nq.query)
        );
    }
}

#[test]
fn mpc_never_localizes_fewer_benchmark_queries_than_star_baselines() {
    let d = lubm::generate(&LubmConfig {
        universities: 4,
        seed: 3,
    });
    let part = MpcPartitioner::new(MpcConfig::with_k(K)).partition(&d.graph);
    let engine = DistributedEngine::build(&d.graph, &part, NetworkModel::free());
    let queries = d.benchmark_queries();
    let mpc_ieqs = queries
        .iter()
        .filter(|nq| engine.classify(&nq.query).is_ieq())
        .count();
    let stars = queries.iter().filter(|nq| nq.query.is_star()).count();
    assert!(mpc_ieqs >= stars, "MPC {mpc_ieqs} < stars {stars}");
}

#[test]
fn watdiv_log_sample_matches_reference() {
    let d = watdiv::generate(&WatdivConfig {
        scale: 400,
        seed: 5,
    });
    let store = LocalStore::from_graph(&d.graph);
    let mut sampler = QuerySampler::new(&d.graph, 99);
    let log = sampler.sample_log(40, &ShapeMix::watdiv_like());

    let part = MpcPartitioner::new(MpcConfig::with_k(K)).partition(&d.graph);
    let engine = DistributedEngine::build(&d.graph, &part, NetworkModel::free());
    let ep = VerticalPartitioner::new(K).partition(&d.graph);
    let vp = VpEngine::build(&d.graph, &ep, NetworkModel::free());
    for (i, q) in log.iter().enumerate() {
        let expected = evaluate(q, &store);
        let plan = ResolvedPlan::from_bgp(q.clone());
        let r1 = engine
            .run_plan(&plan, &ExecRequest::new(), d.graph.dictionary())
            .unwrap()
            .bindings
            .rows;
        assert_eq!(r1, expected, "MPC on log query {i}");
        let (r2, _) = vp.execute(q);
        assert_eq!(r2, expected, "VP on log query {i}");
    }
}

#[test]
fn realistic_graph_round_trip() {
    let g = gen_real(&RealisticConfig {
        name: "it",
        vertices: 3_000,
        triples: 12_000,
        properties: 200,
        domains: 12,
        zipf: 1.2,
        global_fraction: 0.04,
        type_like: true,
        seed: 8,
    });
    let part = MpcPartitioner::new(MpcConfig::with_k(K)).partition(&g);
    part.validate(&g).unwrap();
    // MPC on a domain-clustered graph should keep most properties internal.
    let internal = part.internal_properties().len();
    assert!(
        internal * 2 > g.property_count(),
        "only {internal}/{} internal",
        g.property_count()
    );

    let store = LocalStore::from_graph(&g);
    let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
    let mut sampler = QuerySampler::new(&g, 123);
    for q in sampler.sample_log(30, &ShapeMix::dbpedia_like()) {
        let expected = evaluate(&q, &store);
        let plan = ResolvedPlan::from_bgp(q.clone());
        let result = engine
            .run_plan(&plan, &ExecRequest::new(), g.dictionary())
            .unwrap()
            .bindings
            .rows;
        assert_eq!(result, expected);
    }
}

#[test]
fn fragments_reconstruct_the_graph() {
    // Union of fragment triples (minus replicas) == original multiset as a set.
    let d = lubm::generate(&LubmConfig {
        universities: 2,
        seed: 11,
    });
    let part = SubjectHashPartitioner::new(K).partition(&d.graph);
    let frags = part.fragments(&d.graph);
    let mut all: Vec<mpc::rdf::Triple> = frags.into_iter().flat_map(|f| f.triples).collect();
    all.sort_unstable();
    all.dedup();
    let mut orig: Vec<mpc::rdf::Triple> = d.graph.triples().to_vec();
    orig.sort_unstable();
    orig.dedup();
    assert_eq!(all, orig);
}
