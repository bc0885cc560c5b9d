//! Statistics-driven static join ordering.
//!
//! The matcher's default strategy re-counts candidates at every search
//! node (dynamic ordering). For a *served* workload the same BGP runs
//! thousands of times, so the serving layer plans once instead:
//! [`static_order`] greedily orders the patterns by estimated
//! cardinality under the per-property statistics a [`crate::StoreStats`]
//! aggregate provides, and [`crate::matcher::evaluate_with`] follows
//! that fixed order. Results are sorted and deduplicated either way, so
//! the order changes work, never answers.

use crate::query::{QLabel, QNode, TriplePattern};
use crate::store::StoreStats;

/// Estimated result cardinality of one pattern, given which variables are
/// already bound when it runs. Classic System-R style shrinking: start
/// from the property's triple count, divide by distinct subjects/objects
/// for each bound end.
pub fn estimate(pat: &TriplePattern, stats: &StoreStats, bound: &[bool]) -> u64 {
    let is_bound = |n: &QNode| match n {
        QNode::Const(_) => true,
        QNode::Var(v) => bound[*v as usize],
    };
    let (mut est, card) = match pat.p {
        QLabel::Prop(p) => {
            let card = stats.card(p);
            (card.triples, Some(card))
        }
        // A property variable can match any predicate: whole-store scan.
        QLabel::Var(_) => (stats.triples, None),
    };
    if is_bound(&pat.s) {
        let d = card.map_or(1, |c| c.distinct_subjects).max(1);
        est = (est / d).max(1);
    }
    if is_bound(&pat.o) {
        let d = card.map_or(1, |c| c.distinct_objects).max(1);
        est = (est / d).max(1);
    }
    est
}

/// A static join order: greedy minimum-estimate, preferring patterns
/// connected to already-bound variables (a disconnected pattern is a
/// cross product — only taken when nothing connected remains). Returns a
/// permutation of `0..patterns.len()`; ties break on the lower pattern
/// index, so the order is deterministic for fixed statistics.
///
/// `nvars` is the query's variable count (bounds the bound-set bitmap).
/// `seed` is a variable the search starts with already bound (a seeded
/// leaf, [`crate::matcher::evaluate_with`]): the order then begins at a
/// pattern touching it.
pub fn static_order(
    patterns: &[TriplePattern],
    nvars: usize,
    stats: &StoreStats,
    seed: Option<u32>,
) -> Vec<usize> {
    let mut bound = vec![false; nvars];
    if let Some(v) = seed {
        bound[v as usize] = true;
    }
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        let touches_bound = |i: usize| patterns[i].vars().any(|v| bound[v as usize]);
        // Nothing is bound before the first pattern of an unseeded order.
        let connected_only = remaining.iter().any(|&i| touches_bound(i));
        let mut best: Option<(u64, usize, usize)> = None; // (est, pattern idx, remaining pos)
        for (pos, &i) in remaining.iter().enumerate() {
            if connected_only && !touches_bound(i) {
                continue;
            }
            let est = estimate(&patterns[i], stats, &bound);
            if best.is_none_or(|(e, bi, _)| (est, i) < (e, bi)) {
                best = Some((est, i, pos));
            }
        }
        // mpc-allow: unwrap-expect at least the unrestricted candidate set is non-empty
        let (_, idx, pos) = best.expect("non-empty remaining");
        remaining.swap_remove(pos);
        order.push(idx);
        for v in patterns[idx].vars() {
            bound[v as usize] = true;
        }
    }
    order
}

/// Whether a leaf should be seeded with `keys` distinct values of one of
/// its variables rather than scanned: true when the seeded search makes
/// fewer starts than the unseeded search's first range holds triples, the
/// least [`estimate`] of any pattern with nothing bound.
pub fn seeding_pays(
    patterns: &[TriplePattern],
    nvars: usize,
    stats: &StoreStats,
    keys: usize,
) -> bool {
    let unbound = vec![false; nvars];
    patterns
        .iter()
        .map(|pat| estimate(pat, stats, &unbound))
        .min()
        .is_some_and(|first_range| (keys as u64) < first_range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LocalStore;
    use mpc_rdf::{PropertyId, Triple, VertexId};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn v(i: u32) -> QNode {
        QNode::Var(i)
    }

    fn prop(i: u32) -> QLabel {
        QLabel::Prop(PropertyId(i))
    }

    /// p0 is frequent (6 triples), p1 rare (1 triple).
    fn stats() -> StoreStats {
        LocalStore::new(vec![
            t(0, 0, 1),
            t(1, 0, 2),
            t(2, 0, 3),
            t(3, 0, 4),
            t(4, 0, 5),
            t(5, 0, 6),
            t(9, 1, 0),
        ])
        .stats()
        .clone()
    }

    #[test]
    fn rare_property_goes_first() {
        // ?x p0 ?y . ?y p1 ?z — start from the selective p1 pattern.
        let patterns = vec![
            TriplePattern::new(v(0), prop(0), v(1)),
            TriplePattern::new(v(1), prop(1), v(2)),
        ];
        assert_eq!(static_order(&patterns, 3, &stats(), None), vec![1, 0]);
    }

    #[test]
    fn connectivity_beats_raw_estimate() {
        // ?a p1 ?b (rare, first) . ?b p0 ?c (connected) . ?d p0 ?e
        // (disconnected, same property): the connected pattern must come
        // before the cross product even though both share an estimate.
        let patterns = vec![
            TriplePattern::new(v(3), prop(0), v(4)),
            TriplePattern::new(v(0), prop(1), v(1)),
            TriplePattern::new(v(1), prop(0), v(2)),
        ];
        assert_eq!(static_order(&patterns, 5, &stats(), None), vec![1, 2, 0]);
    }

    #[test]
    fn order_is_a_permutation() {
        let patterns = vec![
            TriplePattern::new(v(0), prop(0), v(1)),
            TriplePattern::new(v(1), QLabel::Var(2), v(0)),
            TriplePattern::new(v(0), prop(1), QNode::Const(VertexId(0))),
        ];
        let mut order = static_order(&patterns, 3, &stats(), None);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn bound_positions_shrink_estimates() {
        let s = stats();
        let pat = TriplePattern::new(v(0), prop(0), v(1));
        let loose = estimate(&pat, &s, &[false, false]);
        let tight = estimate(&pat, &s, &[true, false]);
        assert!(tight <= loose);
        assert_eq!(loose, 6);
        assert_eq!(tight, 1); // 6 triples / 6 distinct subjects
    }

    #[test]
    fn a_seeded_order_starts_at_the_seed() {
        // ?x p0 ?y . ?y p1 ?z with ?x bound up front: the frequent p0
        // pattern touches the seed, the rare p1 pattern does not.
        let patterns = vec![
            TriplePattern::new(v(0), prop(0), v(1)),
            TriplePattern::new(v(1), prop(1), v(2)),
        ];
        assert_eq!(static_order(&patterns, 3, &stats(), Some(0)), vec![0, 1]);
        assert_eq!(static_order(&patterns, 3, &stats(), Some(2)), vec![1, 0]);
    }

    #[test]
    fn seeding_pays_below_the_first_range() {
        // The unseeded search would start from p1's single triple.
        let patterns = vec![
            TriplePattern::new(v(0), prop(0), v(1)),
            TriplePattern::new(v(1), prop(1), v(2)),
        ];
        assert!(seeding_pays(&patterns, 3, &stats(), 0));
        assert!(!seeding_pays(&patterns, 3, &stats(), 1));
        // A whole-property arm: 6 triples, so up to 5 keys seed.
        let arm = vec![TriplePattern::new(v(0), prop(0), v(1))];
        assert!(seeding_pays(&arm, 2, &stats(), 5));
        assert!(!seeding_pays(&arm, 2, &stats(), 6));
        assert!(!seeding_pays(&[], 0, &stats(), 0));
    }

    #[test]
    fn empty_patterns_empty_order() {
        assert!(static_order(&[], 0, &stats(), None).is_empty());
    }
}
