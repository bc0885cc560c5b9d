//! Minimum Property-Cut (MPC) RDF graph partitioning — the paper's primary
//! contribution (Peng, Özsu, Zou, Yan, Liu; ICDE 2022).
//!
//! MPC is a vertex-disjoint partitioning whose objective is to minimize the
//! number of *distinct crossing properties* `|L_cross|` instead of the
//! number of crossing edges (Definition 4.1). Fewer crossing properties let
//! a strictly larger class of SPARQL BGP queries run independently on every
//! partition without inter-partition joins (see the `mpc-cluster` crate for
//! the query-side machinery).
//!
//! Pipeline (Section IV):
//!
//! 1. [`select`] — greedy internal property selection (Algorithm 1), backed
//!    by disjoint-set forests; both the forward and the reverse (Section
//!    IV-E) directions, plus oversized-property pruning.
//! 2. [`coarsen`] — each WCC of `G[L_in]` becomes a supervertex of `G_c`.
//! 3. `G_c` is partitioned with the multilevel min edge-cut substrate
//!    (`mpc-metis`), and the assignment is projected back to `G`.
//!
//! The crate also ships the paper's comparison baselines ([`baselines`]:
//! `Subject_Hash`, `METIS`, `VP`) and the exponential [`exact`] reference
//! (`MPC-Exact`, Table VII), all producing the same [`Partitioning`] type
//! so the evaluation layer treats them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod coarsen;
pub mod dynamic;
pub mod exact;
pub mod mpc;
pub mod partitioning;
pub mod select;
pub mod validate;

pub use baselines::{MinEdgeCutPartitioner, SubjectHashPartitioner, VerticalPartitioner};
pub use dynamic::IncrementalPartitioning;
pub use exact::MpcExactPartitioner;
pub use mpc::{MpcConfig, MpcPartitioner, MpcReport};
// Re-exported so downstream crates can tune `MpcConfig::metis` (e.g. its
// seed) without depending on `mpc-metis` directly.
pub use mpc_metis::MetisConfig;
pub use partitioning::{EdgePartitioning, Fragment, Partitioning};
pub use select::{SelectConfig, SelectStats, SelectStrategy, Selection};
pub use validate::{validate_partitioning, validate_selection, InvariantViolation};

use mpc_rdf::RdfGraph;

/// A vertex-disjoint RDF partitioner. All of the paper's vertex-disjoint
/// schemes (MPC, MPC-Exact, Subject_Hash, METIS) implement this; VP is
/// edge-disjoint and exposes its own entry point.
pub trait Partitioner {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Number of partitions this partitioner produces.
    fn k(&self) -> usize;

    /// Partitions the graph.
    fn partition(&self, g: &RdfGraph) -> Partitioning;
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod proptests {
    use super::*;
    use mpc_rdf::{PropertyId, Triple, VertexId};
    use proptest::prelude::*;

    /// Random small multigraphs.
    fn graph_strategy() -> impl Strategy<Value = RdfGraph> {
        (2usize..30, 1usize..6).prop_flat_map(|(n, l)| {
            proptest::collection::vec(
                (0..n as u32, 0..l as u32, 0..n as u32),
                1..80,
            )
            .prop_map(move |edges| {
                let triples = edges
                    .into_iter()
                    .map(|(s, p, o)| Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                    .collect();
                RdfGraph::from_raw(n, l, triples)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Theorem 2 + Definition 3.3: MPC output is always a valid
        /// vertex-disjoint partitioning, and no internal-property edge
        /// crosses partitions.
        #[test]
        fn mpc_output_is_valid(g in graph_strategy(), k in 1usize..5) {
            let mpc = MpcPartitioner::new(MpcConfig::with_k(k));
            let part = mpc.partition(&g);
            prop_assert!(part.validate(&g).is_ok());
            for t in g.triples() {
                if !part.is_crossing_property(t.p) {
                    prop_assert_eq!(part.part_of(t.s), part.part_of(t.o));
                }
            }
        }

        /// Subject hash and METIS baselines also produce valid
        /// partitionings.
        #[test]
        fn baselines_are_valid(g in graph_strategy(), k in 1usize..5) {
            let sh = SubjectHashPartitioner::new(k).partition(&g);
            prop_assert!(sh.validate(&g).is_ok());
            let mec = MinEdgeCutPartitioner::new(k).partition(&g);
            prop_assert!(mec.validate(&g).is_ok());
        }

        /// VP covers every triple exactly once.
        #[test]
        fn vp_covers_edges(g in graph_strategy(), k in 1usize..5) {
            let ep = VerticalPartitioner::new(k).partition(&g);
            let frags = ep.fragments(&g);
            let total: usize = frags.iter().map(|f| f.len()).sum();
            prop_assert_eq!(total, g.triple_count());
        }

        /// Exact never selects fewer internal properties than greedy, and
        /// both respect the cap.
        #[test]
        fn exact_dominates_greedy(g in graph_strategy(), k in 2usize..4) {
            let cfg = SelectConfig { k, epsilon: 0.1, ..Default::default() };
            let greedy = select::forward_greedy(&g, &cfg);
            let exact = exact::exact_select(&g, &cfg);
            prop_assert!(exact.internal_count() >= greedy.internal_count());
            let cap = cfg.cap(g.vertex_count());
            prop_assert!(greedy.cost <= cap || greedy.internal_count() == 0);
            prop_assert!(exact.cost <= cap || exact.internal_count() == 0);
        }
    }
}
