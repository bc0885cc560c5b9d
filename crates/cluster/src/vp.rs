//! The VP (vertical partitioning) execution engine — the paper's
//! edge-disjoint baseline (HadoopRDF / S2RDF / WORQ style).
//!
//! All triples of a property live on one site. A query is an IEQ only if
//! every one of its (fixed) properties happens to hash to the same site and
//! no property position is a variable; otherwise every triple pattern is
//! evaluated at its property's home site and the per-pattern bindings are
//! joined at the coordinator — the worst decomposition granularity, which
//! is why VP trails the vertex-disjoint schemes on non-trivial BGPs.

use crate::decompose::extract_subquery;
use crate::network::NetworkModel;
use crate::wire;
use crate::stats::{ExecutionStats, FaultStats};
use crate::ieq::IeqClass;
use mpc_core::EdgePartitioning;
use mpc_rdf::{PartitionId, RdfGraph};
use mpc_sparql::{evaluate, join_all, Bindings, LocalStore, QLabel, Query};
use std::time::{Duration, Instant};
use mpc_rdf::narrow;

/// A simulated VP cluster: one store per site, triples routed by property.
pub struct VpEngine {
    sites: Vec<LocalStore>,
    property_home: Vec<PartitionId>,
    network: NetworkModel,
    load_time: Duration,
}

impl VpEngine {
    /// Materializes the edge-disjoint fragments into per-site stores.
    pub fn build(g: &RdfGraph, partitioning: &EdgePartitioning, network: NetworkModel) -> Self {
        let mut load_time = Duration::ZERO;
        let sites: Vec<LocalStore> = partitioning
            .fragments(g)
            .into_iter()
            .map(|triples| {
                let t0 = Instant::now();
                let store = LocalStore::new(triples);
                load_time += t0.elapsed();
                store
            })
            .collect();
        let property_home = g
            .property_ids()
            .map(|p| partitioning.part_of_property(p))
            .collect();
        VpEngine {
            sites,
            property_home,
            network,
            load_time,
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total index-build time (Table VI "loading").
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// True if the whole query can run on a single site: all fixed
    /// properties co-located and no property variables.
    pub fn is_ieq(&self, query: &Query) -> bool {
        if query.has_property_variables() || query.patterns.is_empty() {
            return false;
        }
        // Properties absent from the graph have no triples on any site and
        // never constrain co-location.
        let homes: Vec<PartitionId> = query
            .properties()
            .iter()
            .filter_map(|p| self.property_home.get(p.index()).copied())
            .collect();
        homes.windows(2).all(|w| w[0] == w[1])
    }

    /// Executes a query, returning all-variable bindings plus statistics.
    pub fn execute(&self, query: &Query) -> (Bindings, ExecutionStats) {
        let t0 = Instant::now();
        let ieq = self.is_ieq(query);
        let decomposition_time = t0.elapsed();
        if ieq {
            // First property that exists in the graph decides the site; if
            // none exists the result is empty wherever we evaluate.
            let home = query
                .properties()
                .iter()
                .find_map(|p| self.property_home.get(p.index()).copied())
                .unwrap_or(PartitionId(0));
            let t1 = Instant::now();
            let result = evaluate(query, &self.sites[home.index()]);
            let local_eval_time = t1.elapsed();
            let comm_bytes = wire::encoded_len(result.len(), query.var_count());
            let comm_time = self.network.transfer_time(comm_bytes, 1);
            let stats = ExecutionStats {
                class: IeqClass::Internal,
                independent: true,
                subqueries: 1,
                decomposition_time,
                local_eval_time,
                join_time: Duration::ZERO,
                comm_bytes,
                comm_time,
                result_rows: result.len(),
                faults: FaultStats::default(),
            };
            return (result, stats);
        }

        // Per-pattern evaluation at the owning site(s).
        let mut tables: Vec<Bindings> = Vec::with_capacity(query.patterns.len());
        let mut comm_bytes = 0u64;
        let mut messages = 0u64;
        let t1 = Instant::now();
        for (i, pat) in query.patterns.iter().enumerate() {
            let sub = extract_subquery(query, vec![i]);
            let mut table = Bindings::new(sub.parent_vars.clone());
            match pat.p {
                QLabel::Prop(p) => {
                    // Unknown properties have no triples anywhere.
                    if let Some(home) = self.property_home.get(p.index()) {
                        let local = evaluate(&sub.query, &self.sites[home.index()]);
                        table.rows.extend(local.rows);
                        messages += 1;
                    }
                }
                QLabel::Var(_) => {
                    // A variable property touches every site.
                    for site in &self.sites {
                        let local = evaluate(&sub.query, site);
                        table.rows.extend(local.rows);
                        messages += 1;
                    }
                }
            }
            table.sort_dedup();
            comm_bytes += wire::encoded_len(table.len(), table.vars.len());
            tables.push(table);
        }
        let local_eval_time = t1.elapsed();
        let comm_time = self.network.transfer_time(comm_bytes, messages);

        let t2 = Instant::now();
        let subqueries = tables.len();
        let joined = join_all(&tables);
        let all_vars: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
        let result = joined.project(&all_vars);
        let join_time = t2.elapsed();

        let stats = ExecutionStats {
            class: IeqClass::NonIeq,
            independent: false,
            subqueries,
            decomposition_time,
            local_eval_time,
            join_time,
            comm_bytes,
            comm_time,
            result_rows: result.len(),
            faults: FaultStats::default(),
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_core::VerticalPartitioner;
    use mpc_rdf::{PropertyId, Triple, VertexId};
    use mpc_sparql::{QNode, TriplePattern};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn v(i: u32) -> QNode {
        QNode::Var(i)
    }

    fn prop(i: u32) -> QLabel {
        QLabel::Prop(PropertyId(i))
    }

    fn q(patterns: Vec<TriplePattern>, nvars: u32) -> Query {
        Query::new(patterns, (0..nvars).map(|i| format!("v{i}")).collect())
    }

    fn dataset() -> RdfGraph {
        RdfGraph::from_raw(
            8,
            3,
            vec![
                t(0, 0, 1),
                t(1, 0, 2),
                t(2, 1, 3),
                t(3, 1, 4),
                t(4, 2, 5),
                t(5, 2, 6),
                t(6, 0, 7),
            ],
        )
    }

    fn engine(g: &RdfGraph, k: usize) -> VpEngine {
        let ep = VerticalPartitioner::new(k).partition(g);
        VpEngine::build(g, &ep, NetworkModel::free())
    }

    fn reference(g: &RdfGraph, query: &Query) -> Bindings {
        evaluate(query, &LocalStore::from_graph(g))
    }

    #[test]
    fn single_property_query_is_ieq() {
        let g = dataset();
        let e = engine(&g, 4);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        assert!(e.is_ieq(&query));
        let (result, stats) = e.execute(&query);
        assert!(stats.independent);
        assert_eq!(result, reference(&g, &query));
    }

    #[test]
    fn multi_property_query_joins_per_pattern() {
        let g = dataset();
        let e = engine(&g, 4);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(1), v(2)),
                TriplePattern::new(v(2), prop(2), v(3)),
            ],
            4,
        );
        let (result, stats) = e.execute(&query);
        assert_eq!(result, reference(&g, &query));
        if !e.is_ieq(&query) {
            assert_eq!(stats.subqueries, 3);
            assert!(!stats.independent);
        }
    }

    #[test]
    fn k1_vp_makes_everything_ieq() {
        let g = dataset();
        let e = engine(&g, 1);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(1), v(2)),
            ],
            3,
        );
        assert!(e.is_ieq(&query));
        let (result, _) = e.execute(&query);
        assert_eq!(result, reference(&g, &query));
    }

    #[test]
    fn property_variable_forces_decomposition() {
        let g = dataset();
        let e = engine(&g, 1);
        let query = Query::new(
            vec![TriplePattern::new(v(0), QLabel::Var(1), v(2))],
            vec!["s".into(), "p".into(), "o".into()],
        );
        assert!(!e.is_ieq(&query));
        let (result, _) = e.execute(&query);
        assert_eq!(result, reference(&g, &query));
    }

    #[test]
    fn cross_site_correctness_with_many_sites() {
        let g = dataset();
        for k in [2, 3, 5] {
            let e = engine(&g, k);
            let query = q(
                vec![
                    TriplePattern::new(v(0), prop(0), v(1)),
                    TriplePattern::new(v(1), prop(1), v(2)),
                    TriplePattern::new(v(2), prop(2), v(3)),
                ],
                4,
            );
            let (result, _) = e.execute(&query);
            assert_eq!(result, reference(&g, &query), "k={k}");
        }
    }
}
