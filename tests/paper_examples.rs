//! Integration tests encoding the paper's running examples: the Fig. 2
//! graph/partitioning, the Fig. 1/4/5 example queries, their IEQ
//! classifications, and the Fig. 6 decomposition of Q5.

#![allow(clippy::cast_possible_truncation)] // test code: ids are tiny and panics are the failure mode

use mpc::cluster::{
    classify, decompose_crossing_aware, CrossingSet, DistributedEngine, ExecRequest, IeqClass,
    NetworkModel,
};
use mpc::core::Partitioning;
use mpc::rdf::{GraphBuilder, PartitionId, RdfGraph};
use mpc::sparql::{evaluate, parse, LocalStore, Query, ResolvedPlan};

/// Builds the Fig. 2 graph. Vertices 001–010 mirror the paper's ids;
/// properties: starring, residence, chronology, spouse, foundingDate
/// (internal) and birthPlace (crossing), plus producer from Fig. 1.
fn fig2_graph() -> RdfGraph {
    let mut b = GraphBuilder::new();
    let add = |b: &mut GraphBuilder, s: &str, p: &str, o: &str| {
        b.add_iris(
            &format!("http://ex/{s}"),
            &format!("http://ex/{p}"),
            &format!("http://ex/{o}"),
        );
    };
    // F1: 001, 002, 003, 010.
    add(&mut b, "010", "starring", "001");
    add(&mut b, "001", "spouse", "002");
    add(&mut b, "002", "residence", "003");
    add(&mut b, "003", "birthPlace", "010"); // internal edge, crossing property
    add(&mut b, "010", "producer", "001");
    // F2: 004..009.
    add(&mut b, "004", "starring", "005");
    add(&mut b, "006", "residence", "004");
    add(&mut b, "005", "chronology", "007");
    add(&mut b, "008", "spouse", "005");
    add(&mut b, "009", "foundingDate", "008");
    // Crossing edges, all birthPlace.
    add(&mut b, "002", "birthPlace", "006");
    add(&mut b, "003", "birthPlace", "007");
    add(&mut b, "010", "birthPlace", "009");
    b.build()
}

/// The Fig. 2 partitioning: {001,002,003,010} vs {004..009}.
fn fig2_partitioning(g: &RdfGraph) -> Partitioning {
    let dict = g.dictionary();
    let f1 = ["001", "002", "003", "010"];
    let assignment = (0..g.vertex_count() as u32)
        .map(|v| {
            let term = dict.vertex_term(mpc::rdf::VertexId(v));
            let iri = match term {
                mpc::rdf::TermRef::Iri(i) => i,
                _ => "",
            };
            let local = iri.rsplit('/').next().unwrap_or("");
            if f1.contains(&local) {
                PartitionId(0)
            } else {
                PartitionId(1)
            }
        })
        .collect();
    Partitioning::new(g, 2, assignment)
}

fn resolve(g: &RdfGraph, text: &str) -> Query {
    parse(text)
        .expect("parse")
        .resolve(g.dictionary())
        .expect("resolve")
        .as_bgp()
        .expect("single BGP")
        .clone()
}

#[test]
fn fig2_partitioning_has_birthplace_as_only_crossing_property() {
    let g = fig2_graph();
    let p = fig2_partitioning(&g);
    p.validate(&g).unwrap();
    assert_eq!(p.crossing_property_count(), 1);
    let dict = g.dictionary();
    let crossing = p.crossing_properties();
    assert_eq!(dict.property_iri(crossing[0]), "http://ex/birthPlace");
    assert_eq!(p.crossing_edge_count(), 3);
}

#[test]
fn internal_property_edge_with_crossing_property_exists() {
    // Edge 003 --birthPlace--> 010 is internal although its property is
    // crossing — the distinction the paper stresses in Section I-B.
    let g = fig2_graph();
    let p = fig2_partitioning(&g);
    let dict = g.dictionary();
    let bp = dict.property_id("http://ex/birthPlace").unwrap();
    let internal_bp_edges = g
        .triples()
        .iter()
        .filter(|t| t.p == bp && p.part_of(t.s) == p.part_of(t.o))
        .count();
    assert_eq!(internal_bp_edges, 1);
}

fn crossing_set(g: &RdfGraph, p: &Partitioning) -> CrossingSet {
    CrossingSet(g.property_ids().map(|q| p.is_crossing_property(q)).collect())
}

#[test]
fn example_queries_classify_as_in_the_paper() {
    let g = fig2_graph();
    let part = fig2_partitioning(&g);
    let crossing = crossing_set(&g, &part);

    // Q1 (Fig. 1b): star around ?y.
    let q1 = resolve(
        &g,
        "SELECT * WHERE { ?x <http://ex/starring> ?y . ?z <http://ex/spouse> ?y }",
    );
    assert!(q1.is_star());
    assert!(classify(&q1, &crossing).is_ieq());

    // Q2 (Fig. 1b): non-star chain without crossing properties → internal
    // IEQ.
    let q2 = resolve(
        &g,
        "SELECT * WHERE { ?x <http://ex/starring> ?y . ?y <http://ex/spouse> ?z . \
         ?z <http://ex/residence> ?w }",
    );
    assert!(!q2.is_star());
    assert_eq!(classify(&q2, &crossing), IeqClass::Internal);

    // Q3 (Fig. 4): crossing edge inside a cycle → Type-I.
    let q3 = resolve(
        &g,
        "SELECT * WHERE { ?x <http://ex/spouse> ?y . ?y <http://ex/residence> ?z . \
         ?x <http://ex/residence> ?w . ?z <http://ex/birthPlace> ?w }",
    );
    // After removing birthPlace the query stays connected via ?x.
    assert_eq!(classify(&q3, &crossing), IeqClass::TypeI);

    // Q4 (Fig. 4): crossing edge to a hanging leaf → Type-II.
    let q4 = resolve(
        &g,
        "SELECT * WHERE { ?x <http://ex/spouse> ?y . ?y <http://ex/birthPlace> ?w }",
    );
    assert_eq!(classify(&q4, &crossing), IeqClass::TypeII);

    // Q5 (Fig. 5): two internal cores joined by crossing edges → NonIeq.
    let q5 = resolve(
        &g,
        "SELECT * WHERE { ?a <http://ex/starring> ?b . ?b <http://ex/birthPlace> ?c . \
         ?c <http://ex/foundingDate> ?d }",
    );
    assert_eq!(classify(&q5, &crossing), IeqClass::NonIeq);
}

#[test]
fn q5_decomposes_like_fig6() {
    let g = fig2_graph();
    let part = fig2_partitioning(&g);
    let crossing = crossing_set(&g, &part);
    let q5 = resolve(
        &g,
        "SELECT * WHERE { ?a <http://ex/starring> ?b . ?b <http://ex/birthPlace> ?c . \
         ?c <http://ex/foundingDate> ?d }",
    );
    let subs = decompose_crossing_aware(&q5, &crossing);
    // Two subqueries (Fig. 6 ends with {q1, q2}); every pattern exactly once.
    assert_eq!(subs.len(), 2);
    let mut covered: Vec<usize> = subs.iter().flat_map(|s| s.pattern_indices.clone()).collect();
    covered.sort_unstable();
    assert_eq!(covered, vec![0, 1, 2]);
}

#[test]
fn all_example_queries_execute_correctly_on_the_fig2_cluster() {
    let g = fig2_graph();
    let part = fig2_partitioning(&g);
    let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
    let store = LocalStore::from_graph(&g);
    let texts = [
        "SELECT * WHERE { ?x <http://ex/starring> ?y . ?z <http://ex/spouse> ?y }",
        "SELECT * WHERE { ?x <http://ex/starring> ?y . ?y <http://ex/spouse> ?z . ?w <http://ex/producer> ?y }",
        "SELECT * WHERE { ?x <http://ex/spouse> ?y . ?y <http://ex/birthPlace> ?w }",
        "SELECT * WHERE { ?a <http://ex/starring> ?b . ?b <http://ex/birthPlace> ?c . ?c <http://ex/foundingDate> ?d }",
        "SELECT * WHERE { ?s ?p ?o }",
    ];
    for text in texts {
        let q = resolve(&g, text);
        let expected = evaluate(&q, &store);
        let plan = ResolvedPlan::from_bgp(q.clone());
        let result = engine
            .run_plan(&plan, &ExecRequest::new(), g.dictionary())
            .unwrap()
            .bindings
            .rows;
        assert_eq!(result, expected, "query: {text}");
    }
}
