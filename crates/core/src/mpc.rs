//! The MPC partitioner: select → coarsen → partition `G_c` → uncoarsen.

use crate::coarsen::{coarsen, uncoarsen};
use crate::partitioning::Partitioning;
use crate::select::{select_internal_properties, SelectConfig, SelectStrategy};
use crate::Partitioner;
use mpc_metis::MetisConfig;
use mpc_obs::Recorder;
use mpc_rdf::{PartitionId, RdfGraph};
use std::time::Duration;
use mpc_rdf::narrow;

/// Configuration of the full MPC pipeline.
#[derive(Clone, Debug)]
pub struct MpcConfig {
    /// Number of partitions `k`.
    pub k: usize,
    /// Imbalance tolerance ε (Definition 4.1).
    pub epsilon: f64,
    /// Greedy direction for internal property selection.
    pub strategy: SelectStrategy,
    /// Prune individually-oversized properties up front (Section IV-E).
    pub prune_oversized: bool,
    /// `Auto` strategy switches to reverse greedy above this property count.
    pub reverse_threshold: usize,
    /// Settings of the coarse-graph partitioner.
    pub metis: MetisConfig,
    /// Worker threads for the selection stage's candidate cost
    /// evaluation. `None` / `Some(0)` resolve via `MPC_THREADS`, then the
    /// machine; the result is bit-identical for every value
    /// (docs/PARALLELISM.md).
    pub threads: Option<usize>,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            k: 8,
            epsilon: 0.1,
            strategy: SelectStrategy::Auto,
            prune_oversized: true,
            reverse_threshold: 512,
            metis: MetisConfig::default(),
            threads: None,
        }
    }
}

impl MpcConfig {
    /// Convenience constructor for a `k`-way config with defaults.
    pub fn with_k(k: usize) -> Self {
        MpcConfig {
            k,
            ..Default::default()
        }
    }

    fn select_config(&self) -> SelectConfig {
        SelectConfig {
            k: self.k,
            epsilon: self.epsilon,
            strategy: self.strategy,
            prune_oversized: self.prune_oversized,
            reverse_threshold: self.reverse_threshold,
            threads: self.threads,
        }
    }
}

/// Timing and size diagnostics of one MPC run.
#[derive(Clone, Debug)]
pub struct MpcReport {
    /// Time in internal property selection (Algorithm 1).
    pub selection_time: Duration,
    /// Time coarsening + partitioning `G_c` + uncoarsening.
    pub partition_time: Duration,
    /// `|L_in|` selected.
    pub internal_properties: usize,
    /// Properties pruned as individually oversized.
    pub pruned_properties: usize,
    /// Supervertices in `G_c`.
    pub coarse_vertices: usize,
    /// `Cost(L_in)` — size of the largest WCC of `G[L_in]`.
    pub selection_cost: u64,
}

/// Panics in debug builds (tests, `ci.sh` debug runs) when a pipeline
/// stage hands corrupted state downstream; compiled out of release
/// builds like any `debug_assert!`. See `crate::validate` for what each
/// stage check covers.
#[inline]
fn debug_assert_stage(stage: &str, result: Result<(), crate::validate::InvariantViolation>) {
    if cfg!(debug_assertions) {
        if let Err(violation) = result {
            panic!("MPC {stage} stage invariant violated: {violation}");
        }
    }
}

/// The Minimum Property-Cut partitioner (Section IV).
#[derive(Clone, Debug, Default)]
pub struct MpcPartitioner {
    /// Pipeline configuration.
    pub config: MpcConfig,
}

impl MpcPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: MpcConfig) -> Self {
        MpcPartitioner { config }
    }

    /// Runs the pipeline, returning the partitioning plus diagnostics.
    pub fn partition_with_report(&self, g: &RdfGraph) -> (Partitioning, MpcReport) {
        self.partition_traced(g, &Recorder::disabled())
    }

    /// [`Self::partition_with_report`], recording stage times and work
    /// counters under `partition.*` (see docs/OBSERVABILITY.md).
    pub fn partition_traced(&self, g: &RdfGraph, rec: &Recorder) -> (Partitioning, MpcReport) {
        let cfg = &self.config;
        let select_span = rec.span("partition.select");
        let mut selection = select_internal_properties(g, &cfg.select_config());
        let selection_time = select_span.finish();
        debug_assert_stage("select", crate::validate::validate_selection(g, &selection));
        rec.set("partition.select.internal", selection.internal_count() as u64);
        rec.set("partition.select.pruned", selection.pruned.len() as u64);
        rec.set("partition.select.cost", selection.cost);
        rec.set("partition.select.rounds", selection.stats.rounds);
        rec.set("partition.select.heap_pops", selection.stats.heap_pops);
        rec.set("partition.select.stale_repushes", selection.stats.stale_repushes);
        rec.set("partition.select.dsu_merges", selection.dsu_merges() as u64);

        let coarsen_span = rec.span("partition.coarsen");
        let coarse = coarsen(g, &mut selection);
        debug_assert_stage("coarsen", crate::validate::validate_dsu(&selection.dsu));
        let mut partition_time = coarsen_span.finish();
        rec.set("partition.coarsen.supervertices", coarse.supervertex_count as u64);

        let metis_span = rec.span("partition.metis");
        let coarse_part = mpc_metis::partition_traced(&coarse.graph, cfg.k, &cfg.metis, rec);
        debug_assert!(
            coarse_part.iter().all(|&p| (p as usize) < cfg.k),
            "metis stage assigned a supervertex to a partition >= k"
        );
        partition_time += metis_span.finish();

        let uncoarsen_span = rec.span("partition.uncoarsen");
        let raw = uncoarsen(&coarse, &coarse_part);
        let assignment = raw.into_iter().map(|p| PartitionId(narrow::u16_from(p))).collect();
        let partitioning = Partitioning::new(g, cfg.k, assignment);
        debug_assert_stage(
            "uncoarsen",
            crate::validate::validate_partitioning(g, &partitioning, None),
        );
        partition_time += uncoarsen_span.finish();
        rec.set(
            "partition.crossing_properties",
            partitioning.crossing_property_count() as u64,
        );

        let report = MpcReport {
            selection_time,
            partition_time,
            internal_properties: selection.internal_count(),
            pruned_properties: selection.pruned.len(),
            coarse_vertices: coarse.supervertex_count,
            selection_cost: selection.cost,
        };
        (partitioning, report)
    }
}

impl Partitioner for MpcPartitioner {
    fn name(&self) -> &'static str {
        "MPC"
    }

    fn k(&self) -> usize {
        self.config.k
    }

    fn partition(&self, g: &RdfGraph) -> Partitioning {
        self.partition_with_report(g).0
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod tests {
    use super::*;
    use mpc_rdf::{PropertyId, Triple, VertexId};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    /// Fig. 1/2-style graph: two domains connected only by property 2.
    /// The bridge property alone spans 9 vertices (> cap 8), so the
    /// oversized-property pruning removes it up front and the two domain
    /// chains become the internal properties.
    fn two_domains() -> RdfGraph {
        let mut triples = Vec::new();
        // Domain A: vertices 0..8 chained by property 0.
        for i in 0..7 {
            triples.push(t(i, 0, i + 1));
        }
        // Domain B: vertices 8..16 chained by property 1.
        for i in 8..15 {
            triples.push(t(i, 1, i + 1));
        }
        // Bridges with property 2: vertex 3 linked to all of domain B.
        for j in 8..16 {
            triples.push(t(3, 2, j));
        }
        RdfGraph::from_raw(16, 3, triples)
    }

    #[test]
    fn mpc_minimizes_crossing_properties() {
        let g = two_domains();
        let mpc = MpcPartitioner::new(MpcConfig::with_k(2));
        let (part, report) = mpc.partition_with_report(&g);
        part.validate(&g).unwrap();
        assert_eq!(part.crossing_property_count(), 1);
        assert!(part.is_crossing_property(PropertyId(2)));
        assert_eq!(report.internal_properties, 2);
        assert_eq!(report.coarse_vertices, 2);
    }

    #[test]
    fn internal_property_edges_never_cross() {
        let g = two_domains();
        let mpc = MpcPartitioner::new(MpcConfig::with_k(2));
        let (part, _) = mpc.partition_with_report(&g);
        for t in g.triples() {
            if !part.is_crossing_property(t.p) {
                assert_eq!(part.part_of(t.s), part.part_of(t.o));
            }
        }
    }

    #[test]
    fn respects_size_cap() {
        let g = two_domains();
        let cfg = MpcConfig::with_k(2);
        let cap = (((1.0 + cfg.epsilon) * 16.0) / 2.0).floor() as usize;
        let (part, _) = MpcPartitioner::new(cfg).partition_with_report(&g);
        assert!(part.part_sizes().iter().all(|&s| s <= cap));
    }

    #[test]
    fn partitioner_trait_surface() {
        let g = two_domains();
        let mpc = MpcPartitioner::new(MpcConfig::with_k(2));
        assert_eq!(mpc.name(), "MPC");
        assert_eq!(mpc.k(), 2);
        let part = mpc.partition(&g);
        assert_eq!(part.k(), 2);
    }

    #[test]
    fn traced_partition_records_pipeline_stages() {
        let g = two_domains();
        let rec = Recorder::enabled();
        let mpc = MpcPartitioner::new(MpcConfig::with_k(2));
        let (part, report) = mpc.partition_traced(&g, &rec);
        let (untraced, _) = mpc.partition_with_report(&g);
        assert_eq!(part.assignment(), untraced.assignment(), "tracing must not change output");
        assert_eq!(rec.counter("partition.select.internal"), Some(2));
        assert_eq!(rec.counter("partition.select.pruned"), Some(1));
        assert_eq!(rec.counter("partition.coarsen.supervertices"), Some(2));
        assert_eq!(rec.counter("partition.crossing_properties"), Some(1));
        assert!(rec.timer("partition.select").is_some());
        assert!(rec.timer("partition.uncoarsen").is_some());
        assert_eq!(
            rec.timer("partition.select").unwrap().total,
            report.selection_time
        );
    }

    #[test]
    fn deterministic() {
        let g = two_domains();
        let mpc = MpcPartitioner::new(MpcConfig::with_k(2));
        let a = mpc.partition(&g);
        let b = mpc.partition(&g);
        assert_eq!(a.assignment(), b.assignment());
    }
}
