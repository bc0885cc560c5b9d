//! Property-based integration tests for the paper's theorems, spanning all
//! crates (generators, partitioners, cluster).

#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // test code: ids are tiny and panics are the failure mode

use mpc::cluster::{classify, CrossingSet, DistributedEngine, ExecRequest, IeqClass, NetworkModel};
use mpc::core::{MpcConfig, MpcPartitioner, Partitioner};
use mpc::dsu::DisjointSetForest;
use mpc::rdf::{PropertyId, RdfGraph, Triple, VertexId};
use mpc::sparql::{evaluate, LocalStore, QLabel, QNode, Query, ResolvedPlan, TriplePattern};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = RdfGraph> {
    (6usize..24, 2usize..6).prop_flat_map(|(n, l)| {
        proptest::collection::vec((0..n as u32, 0..l as u32, 0..n as u32), 6..70).prop_map(
            move |edges| {
                let triples = edges
                    .into_iter()
                    .map(|(s, p, o)| Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                    .collect();
                RdfGraph::from_raw(n, l, triples)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2: any two vertices inside one WCC of G[L_in] end up in the
    /// same partition under MPC.
    #[test]
    fn theorem2_wcc_vertices_stay_together(g in graph_strategy(), k in 2usize..5) {
        let part = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
        let mut dsu = DisjointSetForest::new(g.vertex_count());
        for t in g.triples() {
            if !part.is_crossing_property(t.p) {
                dsu.union(t.s.0, t.o.0);
            }
        }
        for u in 0..g.vertex_count() as u32 {
            for v in 0..g.vertex_count() as u32 {
                if dsu.same_set(u, v) {
                    prop_assert_eq!(part.part_of(VertexId(u)), part.part_of(VertexId(v)));
                }
            }
        }
    }

    /// Theorem 3: a query without crossing-property edges (internal IEQ)
    /// evaluates independently: union of per-partition results equals the
    /// centralized result. We build the query from internal properties only
    /// so it is internal by construction.
    #[test]
    fn theorem3_internal_ieqs_are_sound(g in graph_strategy(), k in 2usize..4, pick in any::<u64>()) {
        let part = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
        let internal = part.internal_properties();
        prop_assume!(!internal.is_empty());
        let p0 = internal[(pick as usize) % internal.len()];
        let p1 = internal[(pick as usize / 7) % internal.len()];
        // Path query over two internal properties.
        let query = Query::new(
            vec![
                TriplePattern::new(QNode::Var(0), QLabel::Prop(p0), QNode::Var(1)),
                TriplePattern::new(QNode::Var(1), QLabel::Prop(p1), QNode::Var(2)),
            ],
            vec!["a".into(), "b".into(), "c".into()],
        );
        let crossing = CrossingSet(g.property_ids().map(|p| part.is_crossing_property(p)).collect());
        prop_assert_eq!(classify(&query, &crossing), IeqClass::Internal);
        let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
        let plan = ResolvedPlan::from_bgp(query.clone());
        let outcome = engine.run_plan(&plan, &ExecRequest::new(), g.dictionary()).unwrap();
        prop_assert!(outcome.stats.independent);
        prop_assert_eq!(outcome.bindings.rows, evaluate(&query, &LocalStore::from_graph(&g)));
    }

    /// Theorem 5 + soundness: star queries over arbitrary properties are
    /// IEQs and evaluate correctly on every vertex-disjoint engine.
    #[test]
    fn theorem5_star_queries_sound(
        g in graph_strategy(),
        arms in proptest::collection::vec((0u32..6, any::<bool>()), 1..4),
        k in 2usize..4,
    ) {
        let patterns: Vec<TriplePattern> = arms
            .iter()
            .enumerate()
            .map(|(i, (p, out))| {
                let leaf = QNode::Var(i as u32 + 1);
                if *out {
                    TriplePattern::new(QNode::Var(0), QLabel::Prop(PropertyId(*p)), leaf)
                } else {
                    TriplePattern::new(leaf, QLabel::Prop(PropertyId(*p)), QNode::Var(0))
                }
            })
            .collect();
        let query = Query::new(
            patterns,
            (0..=arms.len()).map(|i| format!("v{i}")).collect(),
        );
        prop_assert!(query.is_star());
        let part = MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g);
        let engine = DistributedEngine::build(&g, &part, NetworkModel::free());
        let class = engine.classify(&query);
        prop_assert!(
            matches!(class, IeqClass::Internal | IeqClass::TypeI | IeqClass::TypeII),
            "star classified {:?}", class
        );
        let plan = ResolvedPlan::from_bgp(query.clone());
        let outcome = engine.run_plan(&plan, &ExecRequest::new(), g.dictionary()).unwrap();
        prop_assert!(outcome.stats.independent);
        prop_assert_eq!(outcome.bindings.rows, evaluate(&query, &LocalStore::from_graph(&g)));
    }

    /// Definition 4.1's balance constraint: MPC partitions respect the
    /// (1+ε)|V|/k cap whenever a balanced solution is reachable from the
    /// coarsened graph (supervertices themselves respect the cap).
    #[test]
    fn mpc_respects_selection_cap(g in graph_strategy(), k in 2usize..5) {
        let cfg = MpcConfig::with_k(k);
        let cap = (((1.0 + cfg.epsilon) * g.vertex_count() as f64) / k as f64).floor() as u64;
        let selection = mpc::core::select::select_internal_properties(
            &g,
            &mpc::core::SelectConfig::new().with_k(k).with_epsilon(cfg.epsilon),
        );
        prop_assert!(selection.cost <= cap.max(1));
    }
}
