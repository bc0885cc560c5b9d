//! Partial evaluation and assembly — the gStoreD execution framework
//! (Peng, Zou, Özsu et al., VLDB J. 2016) that the paper's Fig. 11 runs
//! MPC/Subject_Hash/METIS under.
//!
//! gStoreD is partitioning-agnostic: every site evaluates the *whole*
//! query against its fragment, producing **local partial matches** (LPMs) —
//! matches of parts of the query that cannot be completed locally — and a
//! coordinator assembles compatible LPMs from different sites into full
//! matches. The partitioning only changes *how many* LPMs exist: fewer
//! crossing properties ⇒ more of each match is contained in one fragment ⇒
//! fewer, larger LPMs and cheaper assembly. That is exactly the effect
//! Fig. 11 measures.
//!
//! This implementation makes the decomposition explicit and verifiable:
//!
//! 1. every *connected* edge-subset `S ⊆ E(Q)` is evaluated on every
//!    fragment (a full match, restricted to one owning fragment per edge,
//!    is a disjoint union of such connected pieces, so this enumeration is
//!    complete);
//! 2. assembly is an exact-cover dynamic program over pattern bitmasks:
//!    LPMs with disjoint masks and agreeing shared-variable bindings join,
//!    and masks covering all of `E(Q)` are full matches. The DP only ever
//!    materializes *connected* masks — any exact cover of a connected
//!    query can be ordered so every prefix is connected (grow the cover
//!    piece-by-piece along adjacencies), so restricting the recurrence to
//!    connected intermediate masks loses nothing while avoiding the
//!    cross-products a disconnected intermediate would materialize.
//!
//! Soundness: every assembled row maps every pattern onto a data edge of
//! some fragment (⊆ G) with consistent bindings. Completeness: pick any
//! owner fragment per matched edge; each fragment's share splits into
//! connected pieces, all of which this enumeration evaluates. (gStoreD
//! additionally prunes non-maximal LPMs; under exact-cover assembly that
//! pruning would lose covers whose pieces overlap across fragments, so we
//! keep all pieces — the LPM *counts* are therefore upper bounds, which is
//! fine for the comparative Fig. 11 measurement.)

use crate::decompose::extract_subquery;
use mpc_rdf::FxHashMap;
use mpc_sparql::{evaluate, Bindings, Query};
use std::time::{Duration, Instant};
use mpc_rdf::narrow;

/// Upper bound on `|E(Q)|` for the exponential subset enumeration.
pub const MAX_PATTERNS: usize = 12;

/// Statistics of one partial-evaluation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartialEvalStats {
    /// Total local partial matches across all sites and pieces.
    pub local_partial_matches: usize,
    /// Connected edge-subsets evaluated (per site).
    pub pieces: usize,
    /// Wire bytes of all LPM tables shipped to the coordinator.
    pub shipped_bytes: u64,
    /// gStoreD's LPM count: matches of per-site pieces that are *maximal*
    /// (no strictly larger connected piece matches at that site) **and**
    /// whose boundary bindings are crossing vertices (an unfinished piece
    /// dangling at a purely internal vertex can never be completed at
    /// another site, so gStoreD does not produce it).
    pub maximal_partial_matches: usize,
    /// Wire bytes of those LPMs (what gStoreD would ship).
    pub maximal_shipped_bytes: u64,
    /// Time spent in local evaluation (max across sites, sequential here).
    pub local_eval_time: Duration,
    /// Time spent assembling.
    pub assembly_time: Duration,
}

/// One local partial match group: which patterns it covers and the
/// matching rows (columns = the piece's variables, in parent ids).
struct PieceMatches {
    mask: u32,
    vars: Vec<u32>,
    rows: Vec<Vec<u32>>,
}

/// Evaluates `query` over the fragments by partial evaluation + assembly.
/// Returns all-variable bindings (the layout
/// [`crate::DistributedEngine::run_plan`] gives a bare BGP) plus
/// statistics.
///
/// # Panics
/// Panics if the query has more than [`MAX_PATTERNS`] patterns.
pub fn partial_evaluate(
    sites: &[crate::site::Site],
    query: &Query,
) -> (Bindings, PartialEvalStats) {
    let n = query.patterns.len();
    assert!(
        n <= MAX_PATTERNS,
        "partial evaluation enumerates 2^|E(Q)| pieces; {n} patterns exceed the limit"
    );
    let mut stats = PartialEvalStats::default();
    if n == 0 {
        return (Bindings::unit(), stats);
    }
    // Disconnected queries: evaluate each weakly connected component
    // separately and cross-join (the connected-prefix assembly below needs
    // a connected query).
    let components = query.pattern_components(|_| true);
    if components.len() > 1 {
        let mut acc = Bindings::unit();
        let mut stats = PartialEvalStats::default();
        for comp in components {
            let sub = extract_subquery(query, comp);
            let (res, s) = partial_evaluate(sites, &sub.query);
            // Remap local columns to parent variable ids.
            let mut remapped = Bindings::new(
                res.vars.iter().map(|&v| sub.parent_vars[v as usize]).collect(),
            );
            remapped.rows = res.rows;
            acc = mpc_sparql::hash_join(&acc, &remapped);
            stats.local_partial_matches += s.local_partial_matches;
            stats.pieces += s.pieces;
            stats.shipped_bytes += s.shipped_bytes;
            stats.maximal_partial_matches += s.maximal_partial_matches;
            stats.maximal_shipped_bytes += s.maximal_shipped_bytes;
            stats.local_eval_time += s.local_eval_time;
            stats.assembly_time += s.assembly_time;
        }
        let all_vars: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
        return (acc.project(&all_vars), stats);
    }
    let full_mask: u32 = (1u32 << n) - 1;

    // Enumerate connected subsets of the query's patterns.
    let subsets = connected_subsets(query);
    stats.pieces = subsets.len();

    // Per-site crossing-boundary vertex sets: extended vertices plus the
    // local endpoints of replicated crossing edges.
    let boundary: Vec<mpc_rdf::FxHashSet<mpc_rdf::VertexId>> = sites
        .iter()
        .map(|site| {
            let mut set = site.extended.clone();
            for t in site.store.scan(&mpc_sparql::Pattern::any()) {
                if site.extended.contains(&t.s) || site.extended.contains(&t.o) {
                    set.insert(t.s);
                    set.insert(t.o);
                }
            }
            set
        })
        .collect();

    // Evaluate every piece on every site.
    let t0 = Instant::now();
    let mut lpms: Vec<PieceMatches> = Vec::new();
    // Per site: (mask, lpm rows, lpm bytes) where rows counts only the
    // crossing-boundary matches.
    let mut per_site: Vec<Vec<(u32, usize, u64)>> = vec![Vec::new(); sites.len()];
    for &mask in &subsets {
        let indices: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let sub = extract_subquery(query, indices);
        // Variables through which an outside pattern attaches to the piece.
        let boundary_vars: Vec<u32> = boundary_vars(query, mask);
        for (si, site) in sites.iter().enumerate() {
            let local = evaluate(&sub.query, &site.store);
            if local.is_empty() {
                continue;
            }
            stats.local_partial_matches += local.len();
            let bytes = crate::wire::encoded_len(local.len(), local.vars.len());
            stats.shipped_bytes += bytes;
            // gStoreD LPM candidates: boundary bindings must be crossing
            // vertices of this fragment.
            let lpm_rows = local
                .rows
                .iter()
                .filter(|row| {
                    boundary_vars.iter().all(|&v| {
                        match sub.parent_vars.iter().position(|&pv| pv == v) {
                            Some(col) => boundary[si]
                                .contains(&mpc_rdf::VertexId(row[col])),
                            None => true,
                        }
                    })
                })
                .count();
            if lpm_rows > 0 {
                per_site[si].push((
                    mask,
                    lpm_rows,
                    crate::wire::encoded_len(lpm_rows, local.vars.len()),
                ));
            }
            lpms.push(PieceMatches {
                mask,
                vars: sub.parent_vars.clone(),
                rows: local.rows,
            });
        }
    }
    for pieces in &per_site {
        for &(mask, rows, bytes) in pieces {
            let is_maximal = !pieces
                .iter()
                .any(|&(other, _, _)| other != mask && other & mask == mask);
            if is_maximal {
                stats.maximal_partial_matches += rows;
                stats.maximal_shipped_bytes += bytes;
            }
        }
    }
    stats.local_eval_time = t0.elapsed();

    // Exact-cover assembly over connected masks.
    let t1 = Instant::now();
    // Group LPMs by mask (merging across sites) for the DP.
    let mut by_mask: FxHashMap<u32, Bindings> = FxHashMap::default();
    for piece in lpms {
        let entry = by_mask
            .entry(piece.mask)
            .or_insert_with(|| Bindings::new(piece.vars.clone()));
        // Vars are identical for the same mask (extract_subquery is
        // deterministic), so rows concatenate directly.
        debug_assert_eq!(entry.vars, piece.vars);
        entry.rows.extend(piece.rows);
    }
    for table in by_mask.values_mut() {
        table.sort_dedup();
    }

    // dp[mask] = bindings of exact covers of `mask`, for connected masks
    // only (recurrence: last piece added, with connected remainder — any
    // cover admits such an ordering because the query is connected within
    // the mask).
    let connected: mpc_rdf::FxHashSet<u32> = subsets.iter().copied().collect();
    let mut dp: FxHashMap<u32, Bindings> = FxHashMap::default();
    for &mask in &subsets {
        // Ascending numeric order visits submasks first (subsets is
        // generated ascending).
        let mut acc: Option<Bindings> = None;
        let add = |table: Bindings, acc: &mut Option<Bindings>| {
            if table.is_empty() {
                return;
            }
            *acc = Some(match acc.take() {
                None => table,
                Some(mut existing) => {
                    let all_vars = existing.vars.clone();
                    let table = table.project(&all_vars);
                    existing.rows.extend(table.rows);
                    existing.sort_dedup();
                    existing
                }
            });
        };
        if let Some(whole) = by_mask.get(&mask) {
            add(whole.clone(), &mut acc);
        }
        for (&piece_mask, piece) in &by_mask {
            if piece_mask & mask != piece_mask || piece_mask == mask {
                continue;
            }
            let rest = mask ^ piece_mask;
            if !connected.contains(&rest) {
                continue;
            }
            let Some(base) = dp.get(&rest) else { continue };
            let joined = mpc_sparql::hash_join(base, piece);
            add(joined, &mut acc);
        }
        if let Some(table) = acc {
            dp.insert(mask, table);
        }
    }
    let result = match dp.remove(&full_mask) {
        Some(table) => {
            let all_vars: Vec<u32> = (0..narrow::u32_from(query.var_count())).collect();
            table.project(&all_vars)
        }
        None => Bindings::new((0..narrow::u32_from(query.var_count())).collect()),
    };
    stats.assembly_time = t1.elapsed();
    (result, stats)
}

/// Variables of the piece `mask` through which a pattern outside the mask
/// attaches (the piece's boundary variables).
fn boundary_vars(query: &Query, mask: u32) -> Vec<u32> {
    use mpc_sparql::QNode;
    let mut inside = mpc_rdf::FxHashSet::default();
    for (i, pat) in query.patterns.iter().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        for node in [pat.s, pat.o] {
            if let QNode::Var(v) = node {
                inside.insert(v);
            }
        }
    }
    let mut out = Vec::new();
    for (i, pat) in query.patterns.iter().enumerate() {
        if mask & (1 << i) != 0 {
            continue;
        }
        for node in [pat.s, pat.o] {
            if let QNode::Var(v) = node {
                if inside.contains(&v) && !out.contains(&v) {
                    out.push(v);
                }
            }
        }
    }
    out
}

/// All non-empty connected subsets of the query's patterns (as bitmasks).
#[allow(clippy::needless_range_loop)] // i indexes both endpoints and masks
fn connected_subsets(query: &Query) -> Vec<u32> {
    let n = query.patterns.len();
    // Pattern adjacency: patterns sharing a query vertex.
    let mut adjacent = vec![0u32; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (a, b) = (&query.patterns[i], &query.patterns[j]);
            if a.s == b.s || a.s == b.o || a.o == b.s || a.o == b.o {
                adjacent[i] |= 1 << j;
            }
        }
    }
    let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
    let mut out = Vec::new();
    for mask in 1..=full {
        // Connectivity check by BFS over pattern adjacency within mask.
        let start = mask & mask.wrapping_neg();
        let mut seen = start;
        let mut frontier = start;
        while frontier != 0 {
            let mut next = 0u32;
            let mut f = frontier;
            while f != 0 {
                let i = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= adjacent[i] & mask & !seen;
            }
            seen |= next;
            frontier = next;
        }
        if seen == mask {
            out.push(mask);
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod tests {
    use super::*;
    use crate::site::Site;
    use mpc_core::{MpcConfig, MpcPartitioner, Partitioner, SubjectHashPartitioner};
    use mpc_rdf::{PropertyId, RdfGraph, Triple, VertexId};
    use mpc_sparql::{LocalStore, QLabel, QNode, TriplePattern};

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
        let mut triples = Vec::new();
        for i in 0..7 {
            triples.push(t(i, 0, i + 1));
        }
        for i in 8..15 {
            triples.push(t(i, 1, i + 1));
        }
        for j in 8..16 {
            triples.push(t(3, 2, j));
        }
        RdfGraph::from_raw(16, 3, triples)
    }

    fn sites(g: &RdfGraph, part: &mpc_core::Partitioning) -> Vec<Site> {
        part.fragments(g).into_iter().map(|f| Site::load(f).0).collect()
    }

    fn reference(g: &RdfGraph, query: &Query) -> Bindings {
        evaluate(query, &LocalStore::from_graph(g))
    }

    #[test]
    fn connected_subsets_of_a_path() {
        // 3-pattern path: connected subsets are the 3 singles, 2 adjacent
        // pairs, and the whole = 6 (the non-adjacent pair {0,2} is out).
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
                TriplePattern::new(v(2), prop(0), v(3)),
            ],
            4,
        );
        let subs = connected_subsets(&query);
        assert_eq!(subs.len(), 6);
        assert!(!subs.contains(&0b101));
    }

    #[test]
    fn matches_reference_on_non_ieq_query() {
        let g = dataset();
        let part = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let sites = sites(&g, &part);
        // Two cores joined by a crossing hub edge — the Fig. 11 regime.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(2), v(2)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            4,
        );
        let (result, stats) = partial_evaluate(&sites, &query);
        assert_eq!(result, reference(&g, &query));
        assert!(stats.local_partial_matches > 0);
        assert!(stats.pieces >= 3);
    }

    #[test]
    fn matches_reference_across_partitionings_and_queries() {
        let g = dataset();
        let queries = vec![
            q(vec![TriplePattern::new(v(0), prop(2), v(1))], 2),
            q(
                vec![
                    TriplePattern::new(v(0), prop(0), v(1)),
                    TriplePattern::new(v(1), prop(0), v(2)),
                ],
                3,
            ),
            q(
                vec![
                    TriplePattern::new(v(0), prop(0), v(1)),
                    TriplePattern::new(v(1), prop(2), v(2)),
                    TriplePattern::new(v(2), prop(1), v(3)),
                    TriplePattern::new(v(3), prop(1), v(4)),
                ],
                5,
            ),
        ];
        for k in [2usize, 3] {
            for partitioning in [
                MpcPartitioner::new(MpcConfig::with_k(k)).partition(&g),
                SubjectHashPartitioner::new(k).partition(&g),
            ] {
                let sites = sites(&g, &partitioning);
                for query in &queries {
                    let (result, _) = partial_evaluate(&sites, query);
                    assert_eq!(result, reference(&g, query), "k={k} q={query:?}");
                }
            }
        }
    }

    #[test]
    fn better_partitioning_means_fewer_lpms() {
        let g = dataset();
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        // MPC keeps property 0 internal → the whole match is one LPM per
        // site; Subject_Hash scatters vertices → more boundary pieces.
        let mpc = MpcPartitioner::new(MpcConfig::with_k(2)).partition(&g);
        let hash = SubjectHashPartitioner::new(2).partition(&g);
        let (_, s_mpc) = partial_evaluate(&sites(&g, &mpc), &query);
        let (_, s_hash) = partial_evaluate(&sites(&g, &hash), &query);
        assert!(
            s_mpc.maximal_partial_matches <= s_hash.maximal_partial_matches,
            "MPC {} > hash {}",
            s_mpc.maximal_partial_matches,
            s_hash.maximal_partial_matches
        );
    }

    #[test]
    fn disconnected_query_cross_joins_components() {
        let g = dataset();
        let part = SubjectHashPartitioner::new(2).partition(&g);
        let sites = sites(&g, &part);
        // Two independent patterns: result = cross product of both.
        let query = Query::new(
            vec![
                TriplePattern::new(v(0), prop(2), v(1)),
                TriplePattern::new(v(2), prop(1), v(3)),
            ],
            (0..4).map(|i| format!("v{i}")).collect(),
        );
        let (result, _) = partial_evaluate(&sites, &query);
        assert_eq!(result, reference(&g, &query));
        assert!(!result.is_empty());
    }

    #[test]
    fn empty_query_is_unit() {
        let g = dataset();
        let part = SubjectHashPartitioner::new(2).partition(&g);
        let (result, _) = partial_evaluate(&sites(&g, &part), &q(vec![], 0));
        assert_eq!(result, Bindings::unit());
    }

    #[test]
    #[should_panic(expected = "exceed the limit")]
    fn refuses_huge_queries() {
        let g = dataset();
        let part = SubjectHashPartitioner::new(2).partition(&g);
        let patterns = (0..13)
            .map(|i| TriplePattern::new(v(i), prop(0), v(i + 1)))
            .collect();
        let query = q(patterns, 14);
        partial_evaluate(&sites(&g, &part), &query);
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod proptests {
    use super::*;
    use crate::site::Site;
    use mpc_core::{Partitioner, SubjectHashPartitioner};
    use mpc_rdf::{PropertyId, RdfGraph, Triple, VertexId};
    use mpc_sparql::{LocalStore, QLabel, QNode, TriplePattern};
    use proptest::prelude::*;

    fn graph_strategy() -> impl Strategy<Value = RdfGraph> {
        (4usize..14, 2usize..4).prop_flat_map(|(n, l)| {
            proptest::collection::vec((0..n as u32, 0..l as u32, 0..n as u32), 4..40).prop_map(
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

    fn query_strategy() -> impl Strategy<Value = Query> {
        proptest::collection::vec((0u32..4, any::<bool>()), 1..4).prop_map(|specs| {
            let mut patterns = Vec::new();
            for (i, (p, flip)) in specs.iter().enumerate() {
                let a = QNode::Var(i as u32);
                let b = QNode::Var(i as u32 + 1);
                let (s, o) = if *flip { (b, a) } else { (a, b) };
                patterns.push(TriplePattern::new(s, QLabel::Prop(PropertyId(*p)), o));
            }
            let nvars = specs.len() + 1;
            Query::new(patterns, (0..nvars).map(|i| format!("v{i}")).collect())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Partial evaluation + assembly equals centralized evaluation for
        /// arbitrary chain queries over arbitrary partitionings.
        #[test]
        fn partial_evaluation_is_exact(
            g in graph_strategy(),
            query in query_strategy(),
            k in 2usize..4,
        ) {
            let part = SubjectHashPartitioner::new(k).partition(&g);
            let sites: Vec<Site> =
                part.fragments(&g).into_iter().map(|f| Site::load(f).0).collect();
            let (result, _) = partial_evaluate(&sites, &query);
            let expected = evaluate(&query, &LocalStore::from_graph(&g));
            prop_assert_eq!(result, expected);
        }
    }
}
