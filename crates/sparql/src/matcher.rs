//! BGP matching by selectivity-ordered backtracking search.
//!
//! Finds all homomorphisms from the query graph into the store's graph
//! (Definition 3.6): variables may map to the same vertex, constants must
//! map to themselves, and every query edge must map to a data edge whose
//! label matches (a property variable matches any label).
//!
//! The search extends one triple pattern at a time, always choosing the
//! remaining pattern with the fewest candidate triples under the current
//! partial assignment — the classic dynamic candidate-cardinality ordering
//! used by graph-based engines like gStore.

use crate::algebra::Bindings;
use crate::explain::access_path_name;
use crate::query::{QLabel, QNode, Query};
use crate::store::{LocalStore, Pattern};
use mpc_rdf::{PropertyId, Triple, VertexId};
use std::collections::BTreeMap;
use mpc_rdf::narrow;

/// Compile-time sink for matcher events.
///
/// The search is monomorphized over the observer, so the default `()`
/// impl erases every callback at compile time — `evaluate` pays nothing
/// for the instrumentation. Pass a [`MatchStats`] to
/// [`evaluate_observed`] to count work instead.
pub trait MatchObserver {
    /// False only for the no-op `()`: lets the search skip work whose
    /// only consumer is an event argument (the candidate count of
    /// [`pattern_chosen`](Self::pattern_chosen) under a static order).
    const ACTIVE: bool = true;

    /// The search chose `pattern_index` at this node, served by the
    /// index permutation `access_path` (labels shared with
    /// [`crate::explain::access_path_name`]), with `candidates`
    /// matching triples to try.
    #[inline]
    fn pattern_chosen(&mut self, pattern_index: usize, access_path: &'static str, candidates: usize) {
        let _ = (pattern_index, access_path, candidates);
    }

    /// One candidate triple was examined.
    #[inline]
    fn candidate_scanned(&mut self) {}

    /// A candidate's bindings conflicted with the partial assignment
    /// and the search retreated without recursing.
    #[inline]
    fn backtracked(&mut self) {}

    /// A full match was emitted (pre-dedup).
    #[inline]
    fn row_emitted(&mut self) {}
}

/// The no-op observer used by [`evaluate`].
impl MatchObserver for () {
    const ACTIVE: bool = false;
}

/// Counting observer: totals of matcher work, per access path and overall.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Search nodes where a pattern was chosen (recursion depth steps).
    pub steps: u64,
    /// Candidate triples examined across all steps.
    pub candidates_scanned: u64,
    /// Candidates rejected because a binding conflicted (dead ends).
    pub backtracks: u64,
    /// Full matches emitted before deduplication.
    pub rows_emitted: u64,
    /// How many steps each index permutation served, keyed by the
    /// labels of [`crate::explain::access_path_name`].
    pub access_paths: BTreeMap<&'static str, u64>,
}

impl MatchObserver for MatchStats {
    #[inline]
    fn pattern_chosen(&mut self, _pattern_index: usize, access_path: &'static str, _candidates: usize) {
        self.steps += 1;
        *self.access_paths.entry(access_path).or_insert(0) += 1;
    }

    #[inline]
    fn candidate_scanned(&mut self) {
        self.candidates_scanned += 1;
    }

    #[inline]
    fn backtracked(&mut self) {
        self.backtracks += 1;
    }

    #[inline]
    fn row_emitted(&mut self) {
        self.rows_emitted += 1;
    }
}

impl MatchStats {
    /// Folds this into another accumulator (e.g. across per-site runs).
    pub fn merge(&mut self, other: &MatchStats) {
        self.steps += other.steps;
        self.candidates_scanned += other.candidates_scanned;
        self.backtracks += other.backtracks;
        self.rows_emitted += other.rows_emitted;
        for (path, n) in &other.access_paths {
            *self.access_paths.entry(path).or_insert(0) += n;
        }
    }
}

/// Evaluates a BGP query over a store, returning all distinct bindings of
/// **all** variables (projection is the caller's business).
///
/// An empty query yields the unit table (one empty row).
pub fn evaluate(query: &Query, store: &LocalStore) -> Bindings {
    evaluate_observed(query, store, &mut ())
}

/// [`evaluate`], reporting search events to `obs` as it runs.
pub fn evaluate_observed(
    query: &Query,
    store: &LocalStore,
    obs: &mut impl MatchObserver,
) -> Bindings {
    Search::run(query, store, None, None, obs)
}

/// Evaluates a BGP following a fixed pattern order — a static plan from
/// [`crate::planner::static_order`] — instead of the dynamic
/// minimum-candidate strategy. Output is identical to [`evaluate`] (both
/// sort and deduplicate); only the amount of search work differs, which
/// is why the serving layer can swap strategies per plan without
/// breaking its bit-identical contract.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..query.patterns.len()`.
pub fn evaluate_ordered(query: &Query, store: &LocalStore, order: &[usize]) -> Bindings {
    evaluate_ordered_observed(query, store, order, &mut ())
}

/// [`evaluate_ordered`], reporting search events to `obs` as it runs.
pub fn evaluate_ordered_observed(
    query: &Query,
    store: &LocalStore,
    order: &[usize],
    obs: &mut impl MatchObserver,
) -> Bindings {
    assert_permutation(order, query.patterns.len());
    Search::run(query, store, Some(order), None, obs)
}

/// [`evaluate_ordered`] restricted to the rows whose variable `var` takes
/// one of `keys` — the right-hand leaf of a bind join (docs/QUERY.md).
/// The search starts once per key with `var` already bound, so `order`
/// should come from [`crate::planner::static_order`] seeded with `var`.
/// The result is exactly the sub-sequence of [`evaluate_ordered`]'s table
/// with `row[var]` in `keys`: same rows, same (sorted) order. `keys` need
/// not occur in the store and may repeat.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..query.patterns.len()`
/// or `var` is not a variable of `query`.
pub fn evaluate_seeded(
    query: &Query,
    store: &LocalStore,
    order: &[usize],
    var: u32,
    keys: &[u32],
) -> Bindings {
    evaluate_seeded_observed(query, store, order, var, keys, &mut ())
}

/// [`evaluate_seeded`], reporting search events to `obs` as it runs.
pub fn evaluate_seeded_observed(
    query: &Query,
    store: &LocalStore,
    order: &[usize],
    var: u32,
    keys: &[u32],
    obs: &mut impl MatchObserver,
) -> Bindings {
    assert_permutation(order, query.patterns.len());
    assert!(
        (var as usize) < query.var_count(),
        "seed must be a query variable"
    );
    Search::run(query, store, Some(order), Some((var, keys)), obs)
}

fn assert_permutation(order: &[usize], len: usize) {
    let mut seen = vec![false; len];
    assert_eq!(order.len(), len, "order must cover every pattern");
    for &i in order {
        assert!(
            i < len && !seen[i],
            "order must be a permutation of 0..{len}"
        );
        seen[i] = true;
    }
}

/// The backtracking search both strategies share: one frame per matched
/// pattern, one candidate loop.
struct Search<'a, O> {
    query: &'a Query,
    store: &'a LocalStore,
    /// The static pattern order, or `None` to pick the unused pattern
    /// with the fewest candidates at every node.
    order: Option<&'a [usize]>,
    used: Vec<bool>,
    binding: Vec<Option<u32>>,
    out: Bindings,
    obs: &'a mut O,
}

impl<'a, O: MatchObserver> Search<'a, O> {
    fn run(
        query: &'a Query,
        store: &'a LocalStore,
        order: Option<&'a [usize]>,
        seed: Option<(u32, &[u32])>,
        obs: &'a mut O,
    ) -> Bindings {
        if query.patterns.is_empty() {
            return Bindings::unit();
        }
        let nvars = query.var_count();
        let mut search = Search {
            query,
            store,
            order,
            used: vec![false; query.patterns.len()],
            binding: vec![None; nvars],
            out: Bindings::new((0..narrow::u32_from(nvars)).collect()),
            obs,
        };
        match seed {
            None => search.extend(0),
            // One search per key, the seeded variable bound throughout.
            Some((var, keys)) => {
                for &key in keys {
                    search.binding[var as usize] = Some(key);
                    search.extend(0);
                }
            }
        }
        search.out.sort_dedup();
        search.out
    }

    /// The pattern to match at `depth` and, where choosing it already
    /// counted them, its candidates; `None` once every pattern is matched.
    fn next_pattern(&self, depth: usize) -> Option<(usize, Option<usize>)> {
        if let Some(order) = self.order {
            return order.get(depth).map(|&idx| (idx, None));
        }
        // Fewest candidates first. Preferring patterns connected to
        // already-bound variables falls out naturally: bound positions
        // shrink the count.
        let mut next: Option<(usize, usize)> = None;
        for (i, pat) in self.query.patterns.iter().enumerate() {
            if self.used[i] {
                continue;
            }
            let count = self.store.count(&resolve(pat, &self.binding));
            if next.is_none_or(|(_, c)| count < c) {
                next = Some((i, count));
            }
        }
        next.map(|(idx, count)| (idx, Some(count)))
    }

    fn extend(&mut self, depth: usize) {
        let Some((idx, counted)) = self.next_pattern(depth) else {
            // All patterns matched: emit the row. Every variable must be
            // bound because each one occurs in some pattern.
            let row: Vec<u32> = self
                .binding
                .iter()
                // mpc-allow: unwrap-expect every pattern is matched, so every variable is bound
                .map(|b| b.expect("all query variables bound at a full match"))
                .collect();
            self.out.push(row);
            self.obs.row_emitted();
            return;
        };
        let pat = self.query.patterns[idx];
        let resolved = resolve(&pat, &self.binding);
        // `&'a LocalStore` is `Copy`: the scan below borrows the store,
        // not `self`, so the recursion can take `&mut self`.
        let store = self.store;
        if O::ACTIVE {
            self.obs.pattern_chosen(
                idx,
                access_path_name(resolved.s.is_some(), resolved.p.is_some(), resolved.o.is_some()),
                counted.unwrap_or_else(|| store.count(&resolved)),
            );
        }
        self.used[idx] = true;
        if let (Some(s), Some(p), Some(o)) = (resolved.s, resolved.p, resolved.o) {
            // Nothing left to bind: a membership probe, reported as the
            // one-element scan it stands for.
            if store.contains(Triple::new(s, p, o)) {
                self.obs.candidate_scanned();
                self.extend(depth + 1);
            }
        } else {
            for t in store.scan(&resolved) {
                self.obs.candidate_scanned();
                let mut bound = Bound::default();
                if try_bind(&pat.s, t.s.0, &mut self.binding, &mut bound)
                    && try_bind_label(&pat.p, t.p.0, &mut self.binding, &mut bound)
                    && try_bind(&pat.o, t.o.0, &mut self.binding, &mut bound)
                {
                    self.extend(depth + 1);
                } else {
                    self.obs.backtracked();
                }
                bound.undo(&mut self.binding);
            }
        }
        self.used[idx] = false;
    }
}

/// Resolves a pattern against the current partial binding: bound positions
/// become constants, unbound stay free.
fn resolve(pat: &crate::query::TriplePattern, binding: &[Option<u32>]) -> Pattern {
    let node = |n: &QNode| match n {
        QNode::Const(v) => Some(*v),
        QNode::Var(i) => binding[*i as usize].map(VertexId),
    };
    let label = |l: &QLabel| match l {
        QLabel::Prop(p) => Some(*p),
        QLabel::Var(i) => binding[*i as usize].map(PropertyId),
    };
    Pattern {
        s: node(&pat.s),
        p: label(&pat.p),
        o: node(&pat.o),
    }
}

/// The variables one candidate triple bound — at most one per pattern
/// position — kept on the stack so the search can unbind them.
#[derive(Default)]
struct Bound {
    vars: [u32; 3],
    len: usize,
}

impl Bound {
    #[inline]
    fn push(&mut self, var: u32) {
        self.vars[self.len] = var;
        self.len += 1;
    }

    #[inline]
    fn undo(&self, binding: &mut [Option<u32>]) {
        for &v in &self.vars[..self.len] {
            binding[v as usize] = None;
        }
    }
}

/// Binds a vertex position; returns false on conflict.
#[inline]
fn try_bind(node: &QNode, value: u32, binding: &mut [Option<u32>], bound: &mut Bound) -> bool {
    match node {
        QNode::Const(c) => c.0 == value,
        QNode::Var(i) => bind_var(*i, value, binding, bound),
    }
}

/// Binds a property position; returns false on conflict.
#[inline]
fn try_bind_label(
    label: &QLabel,
    value: u32,
    binding: &mut [Option<u32>],
    bound: &mut Bound,
) -> bool {
    match label {
        QLabel::Prop(p) => p.0 == value,
        QLabel::Var(i) => bind_var(*i, value, binding, bound),
    }
}

#[inline]
fn bind_var(var: u32, value: u32, binding: &mut [Option<u32>], bound: &mut Bound) -> bool {
    match binding[var as usize] {
        Some(existing) => existing == value,
        None => {
            binding[var as usize] = Some(value);
            bound.push(var);
            true
        }
    }
}

/// Brute-force reference evaluator: enumerates every assignment of triples
/// to patterns. Exponential — only for cross-checking on small inputs.
pub fn evaluate_bruteforce(query: &Query, store: &LocalStore) -> Bindings {
    if query.patterns.is_empty() {
        return Bindings::unit();
    }
    let nvars = query.var_count();
    let vars: Vec<u32> = (0..narrow::u32_from(nvars)).collect();
    let mut out = Bindings::new(vars);
    let triples: Vec<Triple> = store.scan(&crate::store::Pattern::any()).collect();
    let mut binding: Vec<Option<u32>> = vec![None; nvars];

    fn rec(
        query: &Query,
        triples: &[Triple],
        depth: usize,
        binding: &mut Vec<Option<u32>>,
        out: &mut Bindings,
    ) {
        if depth == query.patterns.len() {
            // mpc-allow: unwrap-expect a full match binds every variable by construction
            out.push(binding.iter().map(|b| b.expect("full match binds every variable")).collect());
            return;
        }
        let pat = query.patterns[depth];
        for t in triples {
            let mut bound = Bound::default();
            if try_bind(&pat.s, t.s.0, binding, &mut bound)
                && try_bind_label(&pat.p, t.p.0, binding, &mut bound)
                && try_bind(&pat.o, t.o.0, binding, &mut bound)
            {
                rec(query, triples, depth + 1, binding, out);
            }
            bound.undo(binding);
        }
    }
    rec(query, &triples, 0, &mut binding, &mut out);
    out.sort_dedup();
    out
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod tests {
    use super::*;
    use crate::query::TriplePattern;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(VertexId(s), PropertyId(p), VertexId(o))
    }

    fn v(i: u32) -> QNode {
        QNode::Var(i)
    }

    fn c(i: u32) -> QNode {
        QNode::Const(VertexId(i))
    }

    fn prop(i: u32) -> QLabel {
        QLabel::Prop(PropertyId(i))
    }

    fn q(patterns: Vec<TriplePattern>, nvars: u32) -> Query {
        Query::new(patterns, (0..nvars).map(|i| format!("v{i}")).collect())
    }

    /// knows: 0→1, 1→2, 0→2; name(p1): 1→3.
    fn store() -> LocalStore {
        LocalStore::new(vec![t(0, 0, 1), t(1, 0, 2), t(0, 0, 2), t(1, 1, 3)])
    }

    #[test]
    fn single_pattern() {
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let result = evaluate(&query, &store());
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn path_query() {
        // ?x knows ?y . ?y knows ?z
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let result = evaluate(&query, &store());
        assert_eq!(result.rows, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn constants_constrain() {
        // ?x knows 2
        let query = q(vec![TriplePattern::new(v(0), prop(0), c(2))], 1);
        let result = evaluate(&query, &store());
        assert_eq!(result.rows, vec![vec![0], vec![1]]);
    }

    #[test]
    fn property_variable_matches_any_label() {
        // 1 ?p ?o
        let query = Query::new(
            vec![TriplePattern::new(c(1), QLabel::Var(0), v(1))],
            vec!["p".into(), "o".into()],
        );
        let result = evaluate(&query, &store());
        // 1 knows 2, 1 name 3.
        assert_eq!(result.rows, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn homomorphism_allows_shared_images() {
        // Triangle query over a self-loop-ish structure: ?x knows ?y,
        // ?y knows ?z — with x and z distinct vars they may coincide.
        let store = LocalStore::new(vec![t(0, 0, 1), t(1, 0, 0)]);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let result = evaluate(&query, &store);
        // 0→1→0 and 1→0→1.
        assert_eq!(result.rows, vec![vec![0, 1, 0], vec![1, 0, 1]]);
    }

    #[test]
    fn unsatisfiable_query() {
        let query = q(vec![TriplePattern::new(v(0), prop(7), v(1))], 2);
        // Property 7 doesn't exist in the store's data.
        let store = store();
        let result = evaluate(&query, &store);
        assert!(result.is_empty());
    }

    #[test]
    fn empty_query_is_unit() {
        let query = q(vec![], 0);
        assert_eq!(evaluate(&query, &store()), Bindings::unit());
    }

    #[test]
    fn repeated_variable_in_one_pattern() {
        // ?x knows ?x — needs a self-loop.
        let store = LocalStore::new(vec![t(5, 0, 5), t(0, 0, 1)]);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(0))], 1);
        let result = evaluate(&query, &store);
        assert_eq!(result.rows, vec![vec![5]]);
    }

    #[test]
    fn observer_counts_match_the_search() {
        // ?x knows ?y . ?y knows ?z — one result row over `store()`.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let store = store();
        let mut stats = MatchStats::default();
        let observed = evaluate_observed(&query, &store, &mut stats);
        assert_eq!(observed, evaluate(&query, &store), "observer must not change results");
        assert_eq!(stats.rows_emitted, 1);
        assert!(stats.steps >= 2, "one step per matched pattern: {stats:?}");
        assert!(stats.candidates_scanned >= stats.steps, "{stats:?}");
        let path_total: u64 = stats.access_paths.values().sum();
        assert_eq!(path_total, stats.steps, "every step has an access path");
    }

    #[test]
    fn observer_counts_backtracks_on_dead_ends() {
        // ?x knows ?x over a store with no self-loop: every candidate
        // conflicts when o must equal the already-bound s.
        let store = LocalStore::new(vec![t(0, 0, 1), t(1, 0, 2)]);
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(0))], 1);
        let mut stats = MatchStats::default();
        let result = evaluate_observed(&query, &store, &mut stats);
        assert!(result.is_empty());
        assert_eq!(stats.backtracks, 2, "{stats:?}");
        assert_eq!(stats.rows_emitted, 0);
    }

    #[test]
    fn ordered_evaluation_matches_dynamic_for_every_order() {
        // ?x knows ?y . ?y knows ?z over `store()` — try both orders.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let store = store();
        let reference = evaluate(&query, &store);
        assert_eq!(evaluate_ordered(&query, &store, &[0, 1]), reference);
        assert_eq!(evaluate_ordered(&query, &store, &[1, 0]), reference);
    }

    #[test]
    fn ordered_evaluation_reports_to_observer() {
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let store = store();
        let mut stats = MatchStats::default();
        let got = evaluate_ordered_observed(&query, &store, &[0], &mut stats);
        assert_eq!(got, evaluate(&query, &store));
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.rows_emitted, 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn ordered_evaluation_rejects_non_permutations() {
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let _ = evaluate_ordered(&query, &store(), &[0, 0]);
    }

    /// A dirty store over one property: base 0→1, 1→0, 2→3, 3→2 with
    /// 3→2 tombstoned, plus novelty 4→5, 5→4 and the self-loop 6→6.
    fn dirty_store() -> LocalStore {
        let mut store = LocalStore::new(vec![t(0, 0, 1), t(1, 0, 0), t(2, 0, 3), t(3, 0, 2)]);
        assert!(store.delete(t(3, 0, 2)));
        for new in [t(4, 0, 5), t(5, 0, 4), t(6, 0, 6)] {
            assert!(store.insert(new));
        }
        assert!(store.is_dirty());
        store
    }

    #[test]
    fn fully_bound_probe_reports_what_the_one_element_scan_did() {
        // ?x p0 ?y . ?y p0 ?x in that order: the second pattern is fully
        // bound at every node, so it runs as a membership probe.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(0)),
            ],
            2,
        );
        let store = dirty_store();
        let mut stats = MatchStats::default();
        let got = evaluate_ordered_observed(&query, &store, &[0, 1], &mut stats);
        assert_eq!(got, evaluate_bruteforce(&query, &store));
        assert_eq!(
            got.rows,
            vec![vec![0, 1], vec![1, 0], vec![4, 5], vec![5, 4], vec![6, 6]]
        );

        // The same events, counted over the scans the probes stand for.
        let mut want = MatchStats::default();
        let first = Pattern {
            p: Some(PropertyId(0)),
            ..Pattern::any()
        };
        want.pattern_chosen(0, access_path_name(false, true, false), store.count(&first));
        for edge in store.scan(&first) {
            want.candidate_scanned();
            let back = Pattern {
                s: Some(edge.o),
                p: Some(edge.p),
                o: Some(edge.s),
            };
            want.pattern_chosen(1, access_path_name(true, true, true), store.count(&back));
            for _ in store.scan(&back) {
                want.candidate_scanned();
                want.row_emitted();
            }
        }
        assert_eq!(stats, want);
        assert_eq!(stats.steps, 7, "one scan, then one probe per live edge");
        assert_eq!(stats.candidates_scanned, 6 + 5);
        assert_eq!(stats.backtracks, 0);
    }

    #[test]
    fn seeded_search_keeps_exactly_the_keyed_rows() {
        let store = dirty_store();
        let edge = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let full = evaluate(&edge, &store);
        let keyed = |var: usize, keys: &[u32]| {
            let mut want = full.clone();
            want.rows.retain(|row| keys.contains(&row[var]));
            want
        };
        // No keys, no rows — but still the leaf's columns.
        assert_eq!(evaluate_seeded(&edge, &store, &[0], 0, &[]), keyed(0, &[]));
        // Keys the store never held, a tombstoned edge's subject (3) and
        // a repeated key.
        let keys = [0, 3, 4, 4, 9, 77];
        assert_eq!(
            evaluate_seeded(&edge, &store, &[0], 0, &keys).rows,
            vec![vec![0, 1], vec![4, 5]]
        );
        assert_eq!(
            evaluate_seeded(&edge, &store, &[0], 1, &keys),
            keyed(1, &keys)
        );

        // ?x p0 ?x seeded on ?x: only a keyed self-loop survives.
        let looped = q(vec![TriplePattern::new(v(0), prop(0), v(0))], 1);
        assert_eq!(
            evaluate_seeded(&looped, &store, &[0], 0, &[0, 6, 9]).rows,
            vec![vec![6]]
        );

        // A property-variable seed: keys are property ids.
        let any_label = Query::new(
            vec![TriplePattern::new(c(0), QLabel::Var(0), v(1))],
            vec!["p".into(), "o".into()],
        );
        assert_eq!(
            evaluate_seeded(&any_label, &store, &[0], 0, &[0, 2]).rows,
            vec![vec![0, 1]]
        );
        assert!(evaluate_seeded(&any_label, &store, &[0], 0, &[1, 2]).is_empty());
    }

    #[test]
    fn match_stats_merge_accumulates() {
        let mut a = MatchStats {
            steps: 1,
            candidates_scanned: 5,
            backtracks: 2,
            rows_emitted: 1,
            access_paths: [("POS(p)", 1)].into_iter().collect(),
        };
        let b = MatchStats {
            steps: 2,
            candidates_scanned: 3,
            backtracks: 0,
            rows_emitted: 2,
            access_paths: [("POS(p)", 1), ("scan", 1)].into_iter().collect(),
        };
        a.merge(&b);
        assert_eq!(a.steps, 3);
        assert_eq!(a.candidates_scanned, 8);
        assert_eq!(a.access_paths["POS(p)"], 2);
        assert_eq!(a.access_paths["scan"], 1);
    }

    #[test]
    fn cyclic_query() {
        // Triangle: ?x→?y→?z→?x.
        let store = LocalStore::new(vec![t(0, 0, 1), t(1, 0, 2), t(2, 0, 0), t(3, 0, 0)]);
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
                TriplePattern::new(v(2), prop(0), v(0)),
            ],
            3,
        );
        let result = evaluate(&query, &store);
        assert_eq!(result.len(), 3); // the 3 rotations of the triangle
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod proptests {
    use super::*;
    use crate::query::TriplePattern;
    use proptest::prelude::*;

    /// A small base store with a mutation stream applied and left
    /// uncompacted, so the search also runs over novelty and tombstones.
    fn store_strategy() -> impl Strategy<Value = LocalStore> {
        (
            proptest::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..25),
            crate::store::proptests::ops_strategy(),
        )
            .prop_map(|(base, ops)| {
                let mut store = LocalStore::new(
                    base.into_iter()
                        .map(|(s, p, o)| Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                        .collect(),
                );
                for (insert, t) in ops {
                    if insert {
                        store.insert(t);
                    } else {
                        store.delete(t);
                    }
                }
                store
            })
    }

    /// Random small queries: patterns over ≤3 vertex variables (so
    /// `?x p ?x` occurs), one property variable, and small constants.
    fn query_strategy() -> impl Strategy<Value = Query> {
        /// The property variable's index before dense remapping — apart
        /// from the vertex variables', so none is both node and label.
        const LABEL_VAR: u32 = 3;
        let node = prop_oneof![
            (0u32..3).prop_map(QNode::Var),
            (0u32..6).prop_map(|v| QNode::Const(VertexId(v))),
        ];
        // Three fixed properties to one draw of the property variable.
        let label = (0u32..4).prop_map(|p| match p {
            3 => QLabel::Var(LABEL_VAR),
            p => QLabel::Prop(PropertyId(p)),
        });
        proptest::collection::vec((node.clone(), label, node), 1..4).prop_map(|pats| {
            // Remap variables densely so every declared variable is used.
            let mut map = std::collections::HashMap::new();
            let mut names = Vec::new();
            let mut remap = |v: u32| {
                let next = names.len() as u32;
                *map.entry(v).or_insert_with(|| {
                    names.push(format!("v{v}"));
                    next
                })
            };
            let patterns = pats
                .into_iter()
                .map(|(s, p, o)| {
                    let mut node = |n: QNode| match n {
                        QNode::Var(v) => QNode::Var(remap(v)),
                        c => c,
                    };
                    let (s, o) = (node(s), node(o));
                    let p = match p {
                        QLabel::Var(v) => QLabel::Var(remap(v)),
                        fixed => fixed,
                    };
                    TriplePattern::new(s, p, o)
                })
                .collect();
            Query::new(patterns, names)
        })
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The backtracking matcher agrees with brute force enumeration.
        /// Unused variables are excluded (brute force can't bind them
        /// either, both would panic; queries guarantee use by construction
        /// only when patterns mention all vars — so project onto used vars).
        #[test]
        fn matcher_equals_bruteforce(store in store_strategy(), query in query_strategy()) {
            let fast = evaluate(&query, &store);
            let slow = evaluate_bruteforce(&query, &store);
            prop_assert_eq!(fast, slow);
        }

        /// A fixed pattern order — any permutation — yields exactly the
        /// dynamic strategy's result (the serving layer's bit-identical
        /// contract rests on this).
        #[test]
        fn any_static_order_matches_dynamic(
            store in store_strategy(),
            query in query_strategy(),
            seed in any::<u64>(),
        ) {
            let order = shuffled_order(query.patterns.len(), seed);
            prop_assert_eq!(
                evaluate_ordered(&query, &store, &order),
                evaluate(&query, &store)
            );
        }

        /// A seeded search under any order returns the rows of the full
        /// table whose seeded column is among the keys, in the same order
        /// (what lets a bind join swap it in for the whole leaf). Keys
        /// range past the ids the store holds and may be empty; the seed
        /// may be the property variable or one a pattern repeats.
        #[test]
        fn seeded_equals_filtered(
            store in store_strategy(),
            query in query_strategy(),
            pick in any::<u32>(),
            keys in proptest::collection::vec(0u32..10, 0..6),
            seeds in (any::<u64>(), any::<u64>()),
        ) {
            // Constant-only queries have nothing to seed.
            prop_assume!(query.var_count() > 0);
            let var = pick % query.var_count() as u32;
            let n = query.patterns.len();
            let seeded =
                evaluate_seeded(&query, &store, &shuffled_order(n, seeds.0), var, &keys);
            let mut want = evaluate_ordered(&query, &store, &shuffled_order(n, seeds.1));
            want.rows.retain(|row| keys.contains(&row[var as usize]));
            prop_assert_eq!(seeded, want);
        }
    }
}
