//! Integration: incremental partition maintenance feeding a live engine —
//! grow a LUBM graph, maintain the assignment, rebuild sites, and verify
//! query results and IEQ behaviour survive.

#![allow(clippy::cast_possible_truncation)] // test code: ids are tiny and panics are the failure mode

use mpc::cluster::{DistributedEngine, ExecRequest, NetworkModel};
use mpc::core::{IncrementalPartitioning, MpcConfig, MpcPartitioner, Partitioner};
use mpc::datagen::lubm::{self, prop, LubmConfig};
use mpc::rdf::{PropertyId, RdfGraph, Triple, VertexId};
use mpc::sparql::{evaluate, LocalStore, QLabel, QNode, Query, ResolvedPlan, TriplePattern};

#[test]
fn grow_lubm_and_requery() {
    let d = lubm::generate(&LubmConfig {
        universities: 4,
        seed: 31,
    });
    let base_part = MpcPartitioner::new(MpcConfig::with_k(4)).partition(&d.graph);
    let mut inc = IncrementalPartitioning::from_partitioning(&d.graph, &base_part, 0.3);

    // New students enroll: attach fresh vertices to the sample department
    // via memberOf plus a takesCourse edge to the sample grad course.
    let mut triples = d.graph.triples().to_vec();
    let mut next = d.graph.vertex_count() as u32;
    for _ in 0..50 {
        let student = next;
        next += 1;
        let enroll = Triple::new(
            VertexId(student),
            PropertyId(prop::MEMBER_OF),
            d.sample_department,
        );
        let takes = Triple::new(
            VertexId(student),
            PropertyId(prop::TAKES_COURSE),
            d.sample_grad_course,
        );
        inc.insert(enroll);
        inc.insert(takes);
        triples.push(enroll);
        triples.push(takes);
    }
    let grown = RdfGraph::from_raw(next as usize, d.graph.property_count(), triples);
    let final_part = inc.into_partitioning(&grown);
    final_part.validate(&grown).unwrap();

    // Anchored insertions keep memberOf/takesCourse no more crossing than
    // before: since every new edge was co-located, the crossing property
    // set must not have grown.
    for p in grown.property_ids() {
        if final_part.is_crossing_property(p) {
            assert!(
                base_part.is_crossing_property(p),
                "{p} became crossing through anchored inserts"
            );
        }
    }

    // A query over the new data answers correctly on a rebuilt engine.
    let engine = DistributedEngine::build(&grown, &final_part, NetworkModel::free());
    let query = Query::new(
        vec![
            TriplePattern::new(
                QNode::Var(0),
                QLabel::Prop(PropertyId(prop::MEMBER_OF)),
                QNode::Const(d.sample_department),
            ),
            TriplePattern::new(
                QNode::Var(0),
                QLabel::Prop(PropertyId(prop::TAKES_COURSE)),
                QNode::Const(d.sample_grad_course),
            ),
        ],
        vec!["student".into()],
    );
    let plan = ResolvedPlan::from_bgp(query.clone());
    let (result, stats) = engine
        .run_plan(&plan, &ExecRequest::new(), grown.dictionary())
        .unwrap()
        .into_parts();
    let result = result.rows;
    let expected = evaluate(&query, &LocalStore::from_graph(&grown));
    assert_eq!(result, expected);
    assert!(result.len() >= 50, "all new students found");
    // Star query: independently executable.
    assert!(stats.independent);
}
