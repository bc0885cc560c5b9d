//! Internal property selection (Algorithm 1 of the paper).
//!
//! Goal: the largest set `L_in ⊆ L` such that
//! `Cost(L_in) = max_{c ∈ WCC(G[L_in])} |c| ≤ (1+ε)·|V|/k`
//! (Definition 4.2). The problem is NP-complete (Theorem 1); the paper's
//! answer is a greedy loop that repeatedly admits the property minimizing
//! the grown cost, backed by disjoint-set forests (Section IV-D).
//!
//! Two refinements from the paper are implemented:
//!
//! * **Oversized-property pruning** (Section IV-E): a property whose own
//!   induced subgraph already exceeds the cap (think `rdf:type`) can never
//!   be internal and is dropped up front.
//! * **Reverse greedy** (Section IV-E): for graphs where almost every
//!   property fits (DBpedia/LGD regime), start from `L_in = L` and peel off
//!   the property giving the largest cost reduction until the cap holds.
//!
//! On top of Algorithm 1's literal loop, the forward direction uses *lazy
//! re-evaluation*: `Cost(L_in ∪ {p})` is monotone nondecreasing as `L_in`
//! grows, so stale costs are lower bounds and a priority queue pops the
//! true minimum while recomputing only a handful of candidates per
//! iteration — the observable selection is identical to the paper's
//! `O(|L|²)` double loop, orders of magnitude faster on many-property
//! graphs.

use mpc_dsu::DisjointSetForest;
use mpc_rdf::{PropertyId, RdfGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use mpc_rdf::narrow;

/// Which greedy direction to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectStrategy {
    /// Algorithm 1: grow `L_in` from the empty set (lazy evaluation).
    ForwardGreedy,
    /// Section IV-E: shrink `L_in` from the full set.
    ReverseGreedy,
    /// Forward, unless more than [`SelectConfig::reverse_threshold`]
    /// properties exist *and* the full set is within 4× of the cap — the
    /// regime the paper reports for DBpedia/LGD.
    Auto,
}

/// Parameters of the selection.
///
/// `#[non_exhaustive]` + builder: construct with [`SelectConfig::new`]
/// (or `default()`) and chain the `with_*` methods, so new options stop
/// breaking downstream constructors.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct SelectConfig {
    /// Number of partitions `k`.
    pub k: usize,
    /// Imbalance tolerance ε.
    pub epsilon: f64,
    /// Greedy direction.
    pub strategy: SelectStrategy,
    /// Drop properties whose own max WCC already exceeds the cap.
    pub prune_oversized: bool,
    /// `Auto` switches to reverse greedy above this property count.
    pub reverse_threshold: usize,
    /// Worker threads for candidate cost evaluation. `None` / `Some(0)`
    /// resolve via `MPC_THREADS`, then the machine — see
    /// [`mpc_par::resolve_threads`]. The selection is bit-identical for
    /// every value (docs/PARALLELISM.md).
    pub threads: Option<usize>,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            k: 8,
            epsilon: 0.1,
            strategy: SelectStrategy::Auto,
            prune_oversized: true,
            reverse_threshold: 512,
            threads: None,
        }
    }
}

impl SelectConfig {
    /// The defaults: `k = 8`, `ε = 0.1`, auto strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the partition count `k`.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the imbalance tolerance ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the greedy direction.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SelectStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables or disables oversized-property pruning.
    #[must_use]
    pub fn with_prune_oversized(mut self, prune: bool) -> Self {
        self.prune_oversized = prune;
        self
    }

    /// Sets the `Auto` strategy's reverse-greedy switch-over threshold.
    #[must_use]
    pub fn with_reverse_threshold(mut self, threshold: usize) -> Self {
        self.reverse_threshold = threshold;
        self
    }

    /// Pins the worker-thread count (0 = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The size cap `(1+ε)·|V|/k` every WCC of `G[L_in]` must respect.
    pub fn cap(&self, vertex_count: usize) -> u64 {
        narrow::u64_from_f64((((1.0 + self.epsilon) * vertex_count as f64) / self.k as f64).floor())
    }
}

/// Work counters and the per-round cost trajectory of one greedy run.
///
/// Plain data, filled by whichever greedy direction ran; `mpc-core`
/// stays free of the observability crate and callers fold these into a
/// recorder if they want them in a report (see `MpcPartitioner::
/// partition_traced`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Greedy rounds that changed `L_in`: admissions in the forward
    /// direction, removals in reverse.
    pub rounds: u64,
    /// Priority-queue pops in forward greedy's lazy evaluation (zero for
    /// reverse greedy, which has no queue).
    pub heap_pops: u64,
    /// Popped keys whose cost had grown and were re-pushed instead of
    /// admitted — the price of lazy re-evaluation.
    pub stale_repushes: u64,
    /// Candidates dropped permanently because their fresh cost exceeded
    /// the cap (monotonicity makes the drop final).
    pub dropped_over_cap: u64,
    /// `Cost(L_in)` after each round, in round order.
    pub cost_trajectory: Vec<u64>,
}

/// Outcome of internal property selection.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Chosen internal properties, in admission order.
    pub internal: Vec<PropertyId>,
    /// Membership mask over all properties.
    pub is_internal: Vec<bool>,
    /// Properties pruned up front for being individually oversized.
    pub pruned: Vec<PropertyId>,
    /// `DS(L_in)` — the disjoint-set forest over `G[L_in]`, ready for
    /// coarsening.
    pub dsu: DisjointSetForest,
    /// `Cost(L_in)` of the final set.
    pub cost: u64,
    /// Work counters and the cost-per-round trajectory of the greedy run.
    pub stats: SelectStats,
}

impl Selection {
    /// Number of selected internal properties `|L_in|`.
    pub fn internal_count(&self) -> usize {
        self.internal.len()
    }

    /// Merges performed by the selection's disjoint-set forest — the
    /// number of union operations that actually joined two components.
    pub fn dsu_merges(&self) -> usize {
        self.dsu.len() - self.dsu.component_count()
    }
}

/// Edge pairs of one property, as the DSU consumes them.
fn property_edges<'a>(
    g: &'a RdfGraph,
    p: PropertyId,
) -> impl Iterator<Item = (u32, u32)> + 'a {
    g.property_triples(p).map(|t| (t.s.0, t.o.0))
}

/// Runs internal property selection per the configured strategy.
pub fn select_internal_properties(g: &RdfGraph, cfg: &SelectConfig) -> Selection {
    let use_reverse = match cfg.strategy {
        SelectStrategy::ForwardGreedy => false,
        SelectStrategy::ReverseGreedy => true,
        SelectStrategy::Auto => {
            if g.property_count() <= cfg.reverse_threshold {
                false
            } else {
                // Probe: is the all-internal cost already close to the cap?
                let mut all = DisjointSetForest::new(g.vertex_count());
                for t in g.triples() {
                    all.union(t.s.0, t.o.0);
                }
                (all.max_component_size() as u64) <= cfg.cap(g.vertex_count()).saturating_mul(4)
            }
        }
    };
    if use_reverse {
        reverse_greedy(g, cfg)
    } else {
        forward_greedy(g, cfg)
    }
}

/// Algorithm 1 with lazy cost re-evaluation.
pub fn forward_greedy(g: &RdfGraph, cfg: &SelectConfig) -> Selection {
    let cap = cfg.cap(g.vertex_count());
    let n = g.vertex_count();
    let mut dsu = DisjointSetForest::new(n);
    let mut internal = Vec::new();
    let mut is_internal = vec![false; g.property_count()];
    let mut pruned = Vec::new();

    // Lines 2-4: per-property standalone cost, which doubles as the pruning
    // filter and the initial heap keys. Min-heap on (cost, -freq, id):
    // equal-cost candidates admit the more frequent property first, which
    // shrinks |E^c| without affecting |L_cross|.
    //
    // The standalone costs are independent per property, so they are
    // evaluated on the mpc-par pool; heap keys are unique (the id is a
    // component), so building the heap from the pool's in-order results
    // yields the same admission sequence for every thread count.
    let threads = mpc_par::resolve_threads(cfg.threads);
    let props: Vec<PropertyId> = g.property_ids().collect();
    let standalone: Vec<u64> = mpc_par::par_map(threads, &props, |_, &p| {
        DisjointSetForest::from_edges(n, property_edges(g, p)).max_component_size() as u64
    });
    let mut heap: BinaryHeap<Reverse<(u64, Reverse<u64>, u32)>> = BinaryHeap::new();
    for (&p, &own_cost) in props.iter().zip(&standalone) {
        if cfg.prune_oversized && own_cost > cap {
            pruned.push(p);
            continue;
        }
        let freq = g.property_frequency(p) as u64;
        heap.push(Reverse((own_cost, Reverse(freq), p.0)));
    }

    // Lines 5-16 (lazy variant). Costs only grow as L_in grows, so a popped
    // stale key is a lower bound; recompute and re-push unless it is still
    // the minimum.
    let mut stats = SelectStats::default();
    let mut cost_now = 0u64;
    while let Some(Reverse((stale_cost, Reverse(freq), pid))) = heap.pop() {
        stats.heap_pops += 1;
        let p = PropertyId(pid);
        let fresh = dsu.trial_merge_cost(property_edges(g, p)) as u64;
        if fresh > cap {
            stats.dropped_over_cap += 1;
            continue; // monotone: can never fit again — drop for good
        }
        if fresh > stale_cost {
            // The cost grew since this key was pushed. Even if it might
            // still be the global minimum, re-pushing keeps the invariant
            // "popped key == current cost" and costs one extra pop.
            stats.stale_repushes += 1;
            heap.push(Reverse((fresh, Reverse(freq), pid)));
            continue;
        }
        // fresh == stale_cost: the key was already the heap minimum and the
        // cost is current (costs are monotone, so it cannot have shrunk) —
        // this is exactly the `p_opt` Algorithm 1 would pick. Admit.
        dsu.merge_edges(property_edges(g, p));
        is_internal[pid as usize] = true;
        internal.push(p);
        stats.rounds += 1;
        cost_now = cost_now.max(fresh);
        stats.cost_trajectory.push(cost_now);
    }

    let cost = dsu.max_component_size() as u64;
    Selection {
        internal,
        is_internal,
        pruned,
        dsu,
        cost,
        stats,
    }
}

/// Section IV-E reverse greedy: start with `L_in = L` and repeatedly remove
/// the property whose removal reduces `Cost(L_in)` the most, until the cap
/// holds. Candidate evaluation rebuilds the forest without the candidate's
/// edges; only properties with an edge inside the current largest WCC can
/// reduce the cost, so only those are tried.
pub fn reverse_greedy(g: &RdfGraph, cfg: &SelectConfig) -> Selection {
    let cap = cfg.cap(g.vertex_count());
    let n = g.vertex_count();
    let threads = mpc_par::resolve_threads(cfg.threads);
    let mut is_internal = vec![true; g.property_count()];
    let mut stats = SelectStats::default();

    loop {
        let mut dsu = DisjointSetForest::new(n);
        for p in g.property_ids() {
            if is_internal[p.index()] {
                dsu.merge_edges(property_edges(g, p));
            }
        }
        let cost = dsu.max_component_size() as u64;
        if cost <= cap {
            let internal: Vec<PropertyId> = g
                .property_ids()
                .filter(|p| is_internal[p.index()])
                .collect();
            return Selection {
                internal,
                is_internal,
                pruned: Vec::new(),
                dsu,
                cost,
                stats,
            };
        }
        // Find the root of the largest component to restrict candidates.
        let mut max_root = None;
        for v in 0..narrow::u32_from(n) {
            if dsu.component_size(v) as u64 == cost {
                max_root = Some(dsu.find(v));
                break;
            }
        }
        // mpc-allow: unwrap-expect loop above saw at least one root because n > 0
        let max_root = max_root.expect("non-empty max component");
        let candidates: Vec<PropertyId> = g
            .property_ids()
            .filter(|&p| {
                is_internal[p.index()]
                    && g.property_triples(p)
                        .any(|t| dsu.find_no_compress(t.s.0) == max_root)
            })
            .collect();
        assert!(
            !candidates.is_empty(),
            "largest WCC has no removable property"
        );
        // Pick the removal with the lowest residual cost; ties prefer
        // removing the least frequent property (fewer edges become
        // crossing-capable). Each candidate's forest rebuild is
        // independent, so the residual costs come off the mpc-par pool;
        // the argmin then scans them in candidate order, keeping the
        // strict-`<` first-wins tie-break identical for any thread count.
        let is_internal_now = &is_internal;
        let residuals: Vec<u64> = mpc_par::par_map(threads, &candidates, |_, &p| {
            let mut trial = DisjointSetForest::new(n);
            for q in g.property_ids() {
                if q != p && is_internal_now[q.index()] {
                    trial.merge_edges(property_edges(g, q));
                }
            }
            trial.max_component_size() as u64
        });
        let mut best: Option<(u64, u64, PropertyId)> = None;
        for (&p, &c) in candidates.iter().zip(&residuals) {
            let f = g.property_frequency(p) as u64;
            if best.is_none_or(|(bc, bf, _)| (c, f) < (bc, bf)) {
                best = Some((c, f, p));
            }
        }
        // mpc-allow: unwrap-expect candidates is non-empty on this branch, so best is Some
        let (residual, _, remove) = best.expect("candidates is non-empty");
        is_internal[remove.index()] = false;
        stats.rounds += 1;
        stats.cost_trajectory.push(residual);
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod tests {
    use super::*;
    use mpc_rdf::{Triple, VertexId};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    /// Two 2-vertex clusters (property 0 inside cluster A, property 1
    /// inside cluster B) joined by a property-2 bridge. With k=2, ε=0.1 the
    /// cap is 2: each cluster property fits alone, but the bridge would
    /// fuse everything into one 4-vertex WCC.
    fn bridged() -> RdfGraph {
        RdfGraph::from_raw(4, 3, vec![t(0, 0, 1), t(2, 1, 3), t(1, 2, 2)])
    }

    fn cfg(k: usize, eps: f64, strategy: SelectStrategy) -> SelectConfig {
        SelectConfig::new()
            .with_k(k)
            .with_epsilon(eps)
            .with_strategy(strategy)
            .with_reverse_threshold(512)
    }

    #[test]
    fn forward_selects_cluster_properties() {
        let g = bridged();
        // cap = 1.1 * 6 / 2 = 3: clusters fit, the bridge does not.
        let sel = forward_greedy(&g, &cfg(2, 0.1, SelectStrategy::ForwardGreedy));
        assert_eq!(sel.internal_count(), 2);
        assert!(sel.is_internal[0]);
        assert!(sel.is_internal[1]);
        assert!(!sel.is_internal[2]);
        assert_eq!(sel.cost, 2);
    }

    #[test]
    fn reverse_matches_forward_on_bridged() {
        let g = bridged();
        let f = forward_greedy(&g, &cfg(2, 0.1, SelectStrategy::ForwardGreedy));
        let r = reverse_greedy(&g, &cfg(2, 0.1, SelectStrategy::ReverseGreedy));
        assert_eq!(f.is_internal, r.is_internal);
    }

    #[test]
    fn k1_selects_everything() {
        let g = bridged();
        let sel = select_internal_properties(&g, &cfg(1, 0.0, SelectStrategy::ForwardGreedy));
        assert_eq!(sel.internal_count(), 3);
        assert_eq!(sel.cost, 4);
    }

    #[test]
    fn oversized_property_is_pruned() {
        // Property 0 alone spans all 6 vertices (a 5-edge path).
        let g = RdfGraph::from_raw(
            6,
            2,
            vec![t(0, 0, 1), t(1, 0, 2), t(2, 0, 3), t(3, 0, 4), t(4, 0, 5), t(0, 1, 1)],
        );
        let sel = forward_greedy(&g, &cfg(2, 0.1, SelectStrategy::ForwardGreedy));
        assert_eq!(sel.pruned, vec![PropertyId(0)]);
        assert!(sel.is_internal[1]);
        assert!(!sel.is_internal[0]);
    }

    #[test]
    fn cap_is_respected() {
        let g = bridged();
        for k in 1..=3 {
            let cfg = cfg(k, 0.1, SelectStrategy::ForwardGreedy);
            let sel = forward_greedy(&g, &cfg);
            assert!(sel.cost <= cfg.cap(g.vertex_count()), "k={k}");
        }
    }

    #[test]
    fn selection_dsu_matches_induced_subgraph() {
        let g = bridged();
        let mut sel = forward_greedy(&g, &cfg(2, 0.1, SelectStrategy::ForwardGreedy));
        // Rebuild WCCs of G[L_in] independently and compare.
        let mut check = DisjointSetForest::new(g.vertex_count());
        for t in g.triples() {
            if sel.is_internal[t.p.index()] {
                check.union(t.s.0, t.o.0);
            }
        }
        for u in 0..g.vertex_count() as u32 {
            for v in 0..g.vertex_count() as u32 {
                assert_eq!(sel.dsu.same_set(u, v), check.same_set(u, v));
            }
        }
    }

    #[test]
    fn auto_on_small_graph_uses_forward() {
        let g = bridged();
        let sel = select_internal_properties(&g, &cfg(2, 0.1, SelectStrategy::Auto));
        assert_eq!(sel.internal_count(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = RdfGraph::from_raw(0, 0, vec![]);
        let sel = forward_greedy(&g, &SelectConfig::default());
        assert_eq!(sel.internal_count(), 0);
        assert_eq!(sel.cost, 0);
    }

    #[test]
    fn forward_stats_track_rounds_and_trajectory() {
        let g = bridged();
        let sel = forward_greedy(&g, &cfg(2, 0.1, SelectStrategy::ForwardGreedy));
        assert_eq!(sel.stats.rounds, sel.internal_count() as u64);
        assert_eq!(sel.stats.cost_trajectory.len(), sel.internal_count());
        // The trajectory is nondecreasing and ends at the final cost.
        assert!(sel.stats.cost_trajectory.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sel.stats.cost_trajectory.last().copied(), Some(sel.cost));
        // Bridge property popped once, found over cap, dropped.
        assert!(sel.stats.heap_pops >= 3);
        assert_eq!(sel.stats.dropped_over_cap, 1);
        assert_eq!(sel.dsu_merges(), 2);
    }

    #[test]
    fn reverse_stats_track_removals() {
        let g = bridged();
        let sel = reverse_greedy(&g, &cfg(2, 0.1, SelectStrategy::ReverseGreedy));
        assert_eq!(sel.stats.rounds, 1, "one removal fixes the bridged graph");
        assert_eq!(sel.stats.cost_trajectory, vec![sel.cost]);
        assert_eq!(sel.stats.heap_pops, 0);
    }

    #[test]
    fn greedy_is_deterministic() {
        let g = bridged();
        let c = cfg(2, 0.1, SelectStrategy::ForwardGreedy);
        let a = forward_greedy(&g, &c);
        let b = forward_greedy(&g, &c);
        assert_eq!(a.internal, b.internal);
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = SelectConfig::new()
            .with_k(4)
            .with_epsilon(0.25)
            .with_strategy(SelectStrategy::ReverseGreedy)
            .with_prune_oversized(false)
            .with_reverse_threshold(64)
            .with_threads(2);
        assert_eq!(c.k, 4);
        assert_eq!(c.epsilon, 0.25);
        assert_eq!(c.strategy, SelectStrategy::ReverseGreedy);
        assert!(!c.prune_oversized);
        assert_eq!(c.reverse_threshold, 64);
        assert_eq!(c.threads, Some(2));
    }

    #[test]
    fn selection_is_identical_for_any_thread_count() {
        // A larger random-ish graph so the pool actually chunks: both
        // greedy directions must admit/remove the same properties in the
        // same order regardless of the thread budget.
        let mut triples = Vec::new();
        for i in 0..240u32 {
            triples.push(t(i % 60, i % 12, (i * 7 + 1) % 60));
        }
        let g = RdfGraph::from_raw(60, 12, triples);
        for strategy in [SelectStrategy::ForwardGreedy, SelectStrategy::ReverseGreedy] {
            let base = |t: usize| {
                let c = cfg(4, 0.1, strategy).with_threads(t);
                select_internal_properties(&g, &c)
            };
            let one = base(1);
            for threads in [2, 8] {
                let sel = base(threads);
                assert_eq!(sel.internal, one.internal, "{strategy:?} threads={threads}");
                assert_eq!(sel.cost, one.cost);
                assert_eq!(sel.stats, one.stats, "work counters must match too");
            }
        }
    }
}
