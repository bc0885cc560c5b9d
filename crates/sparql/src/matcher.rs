//! BGP matching by selectivity-ordered backtracking search.
//!
//! Finds all homomorphisms from the query graph into the store's graph
//! (Definition 3.6): variables may map to the same vertex, constants must
//! map to themselves, and every query edge must map to a data edge whose
//! label matches (a property variable matches any label).
//!
//! The search extends the partial assignment one pattern at a time, in
//! one of two orders: **dynamic** ([`evaluate`]) takes the remaining
//! pattern with the fewest candidate triples under the current assignment
//! — the candidate-cardinality ordering of engines like gStore — and
//! **static** ([`evaluate_with`]) follows a fixed permutation, usually
//! [`crate::planner::static_order`]'s.
//!
//! A pattern with exactly one free position, holding variable `v`, takes
//! along every unmatched pattern whose only free position also holds `v`:
//! the group's ranges are slices sorted by `v`, and a leapfrog of
//! galloping seeks binds `v` to exactly the values they all hold. So a
//! cycle closes by one intersection instead of a probe per candidate.
//! Under a static order the groups are found once per search.

use crate::algebra::Bindings;
use crate::explain::access_path_name;
use crate::query::{QLabel, QNode, Query, TriplePattern};
use crate::store::{KeyCursor, LocalStore, Pattern};
use mpc_rdf::{PropertyId, Triple, VertexId};
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// matching triples to try. A node that intersects a group reports
    /// each member.
    #[inline]
    fn pattern_chosen(&mut self, pattern_index: usize, access_path: &'static str, candidates: usize) {
        let _ = (pattern_index, access_path, candidates);
    }

    /// One candidate was examined: a triple of a scanned range, or a
    /// value an intersection proposed for its group's shared variable.
    #[inline]
    fn candidate_scanned(&mut self) {}

    /// A candidate conflicted with the partial assignment (or some range
    /// of the group lacked the value) and the search retreated without
    /// recursing.
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
    /// Patterns chosen, summed over search nodes (a group counts each
    /// member).
    pub steps: u64,
    /// Candidates examined: scanned triples and proposed values.
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
    evaluate_with(query, store, None, None, obs)
}

/// [`evaluate_observed`] under a chosen strategy.
///
/// * `order` fixes the pattern order — a static plan from
///   [`crate::planner::static_order`] — instead of the dynamic one. The
///   output is the same either way; only the search work differs, so the
///   serving layer can swap strategies without breaking its bit-identical
///   contract.
/// * `seed = Some((var, keys))` keeps exactly the rows whose `var` takes
///   one of `keys`, in the same (sorted) order — the right-hand leaf of a
///   bind join (docs/QUERY.md). The search starts once per key with `var`
///   bound, so a static `order` should come from `static_order` seeded
///   with `var`. `keys` need not occur in the store and may repeat.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..query.patterns.len()`
/// or the seeded `var` is not a variable of `query`.
pub fn evaluate_with(
    query: &Query,
    store: &LocalStore,
    order: Option<&[usize]>,
    seed: Option<(u32, &[u32])>,
    obs: &mut impl MatchObserver,
) -> Bindings {
    if let Some(order) = order {
        assert_permutation(order, query.patterns.len());
    }
    if let Some((var, _)) = seed {
        assert!((var as usize) < query.var_count(), "seed must be a query variable");
    }
    Search::run(query, store, order, seed, obs)
}

fn assert_permutation(order: &[usize], len: usize) {
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    assert!(sorted.into_iter().eq(0..len), "order must be a permutation of 0..{len}");
}

/// The backtracking search every strategy shares. Each level matches one
/// pattern, by a candidate loop, or a group whose only free position
/// holds one shared variable, by a leapfrog over their ranges.
struct Search<'a, O> {
    query: &'a Query,
    store: &'a LocalStore,
    /// Per level a static order fixes, the end of its patterns in
    /// `members` and the group's shared variable; empty to pick the
    /// unused pattern with the fewest candidates at every node.
    levels: Vec<(usize, Option<u32>)>,
    binding: Vec<Option<u32>>,
    /// The patterns of the levels on the current search path, innermost
    /// last; under a static order, every level's, fixed.
    members: Vec<usize>,
    /// The cursors of the open intersections, innermost last.
    cursors: Vec<KeyCursor<'a>>,
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
            levels: Vec::new(),
            binding: vec![None; nvars],
            members: Vec::new(),
            cursors: Vec::new(),
            out: Bindings::new((0..narrow::u32_from(nvars)).collect()),
            obs,
        };
        if let Some(order) = order {
            search.plan(order, seed.map(|(var, _)| var));
        }
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

    /// Fixes the levels of a static `order`: each pattern in turn, with
    /// the later ones it [`group`]s, unless an earlier level took it.
    /// Which variables are bound at a level does not depend on their
    /// values, so `binding` stands in for the bound set meanwhile.
    fn plan(&mut self, order: &[usize], seed: Option<u32>) {
        let patterns = &self.query.patterns;
        if let Some(var) = seed {
            self.binding[var as usize] = Some(0);
        }
        for (at, &idx) in order.iter().enumerate() {
            if self.members.contains(&idx) {
                continue;
            }
            let from = self.members.len();
            let later = order[at + 1..].iter().copied();
            let bound = |v: u32| self.binding[v as usize].is_some();
            let shared = group(patterns, idx, later, bound, &mut self.members);
            for var in self.members[from..].iter().flat_map(|&j| patterns[j].vars()) {
                self.binding[var as usize] = Some(0);
            }
            self.levels.push((self.members.len(), shared));
        }
        self.binding.fill(None);
    }

    /// The patterns to match at `depth` (pushed onto `members` under the
    /// dynamic order), the variable they intersect on (for a group) and,
    /// where choosing them already counted it, the first one's
    /// candidates; `None` once every pattern is matched.
    fn next_level(&mut self, depth: usize) -> Option<(Range<usize>, Option<u32>, Option<usize>)> {
        if !self.levels.is_empty() {
            let &(end, shared) = self.levels.get(depth)?;
            let from = depth.checked_sub(1).map_or(0, |d| self.levels[d].0);
            return Some((from..end, shared, None));
        }
        // Fewest candidates first. Preferring patterns connected to
        // already-bound variables falls out naturally: bound positions
        // shrink the count.
        let all = 0..self.query.patterns.len();
        let (idx, count) = all
            .clone()
            .filter(|i| !self.members.contains(i))
            .map(|i| (i, self.store.count(&resolve(&self.query.patterns[i], &self.binding))))
            .min_by_key(|&(i, count)| (count, i))?;
        let from = self.members.len();
        let bound = |v: u32| self.binding[v as usize].is_some();
        let shared = group(&self.query.patterns, idx, all, bound, &mut self.members);
        Some((from..self.members.len(), shared, Some(count)))
    }

    fn extend(&mut self, depth: usize) {
        let Some((level, shared, counted)) = self.next_level(depth) else {
            // All patterns matched: emit the row. Every variable must be
            // bound because each one occurs in some pattern.
            // mpc-allow: unwrap-expect every pattern is matched, so every variable is bound
            let row = self.binding.iter().map(|b| b.expect("every variable bound at a full match"));
            self.out.push(row.collect());
            self.obs.row_emitted();
            return;
        };
        let from = level.start;
        if O::ACTIVE {
            for k in level.clone() {
                let idx = self.members[k];
                let pat = resolve(&self.query.patterns[idx], &self.binding);
                let path = access_path_name(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
                let count = counted.filter(|_| k == from);
                self.obs.pattern_chosen(idx, path, count.unwrap_or_else(|| self.store.count(&pat)));
            }
        }
        match shared {
            Some(var) => self.intersect(depth, level, var),
            None => self.match_one(depth, self.members[from]),
        }
        if self.levels.is_empty() {
            self.members.truncate(from);
        }
    }

    /// Matches one pattern: a scan of its range, binding each candidate.
    fn match_one(&mut self, depth: usize, idx: usize) {
        let pat = &self.query.patterns[idx];
        let resolved = resolve(pat, &self.binding);
        // `&'a LocalStore` is `Copy`: the scan below borrows the store,
        // not `self`, so the recursion can take `&mut self`.
        let store = self.store;
        if let (Some(s), Some(p), Some(o)) = (resolved.s, resolved.p, resolved.o) {
            // Nothing left to bind: a membership probe, reported as the
            // one-element scan it stands for.
            if store.contains(Triple::new(s, p, o)) {
                self.obs.candidate_scanned();
                self.extend(depth + 1);
            }
            return;
        }
        let (slots, fresh) = (slots(pat), fresh_vars(pat, &self.binding));
        for t in store.scan(&resolved) {
            self.obs.candidate_scanned();
            if bind(slots, t, &mut self.binding) {
                self.extend(depth + 1);
            } else {
                self.obs.backtracked();
            }
            unbind(fresh, &mut self.binding);
        }
    }

    /// Matches a group at once: a leapfrog over one cursor per member,
    /// each sorted by the shared variable's value. The first member's
    /// cursor proposes a value; the first other cursor that skips past
    /// it raises the next proposal to where it landed, and a value no
    /// cursor skips is bound and recursed on. Each proposal is reported
    /// as a scanned candidate, and a raised one as a backtrack.
    fn intersect(&mut self, depth: usize, level: Range<usize>, var: u32) {
        let base = self.cursors.len();
        for k in level {
            let resolved = resolve(&self.query.patterns[self.members[k]], &self.binding);
            self.cursors.push(self.store.cursor(&resolved));
        }
        let mut next = Some(0);
        while let Some(value) = next.and_then(|target| self.cursors[base].seek(target)) {
            self.obs.candidate_scanned();
            let mut others = self.cursors[base + 1..].iter_mut().map(|c| c.seek(value));
            // `None` if every other cursor holds `value`, else where the
            // first that does not landed (`Some(None)`: it ran out).
            match others.find(|&v| v != Some(value)) {
                None => {
                    self.binding[var as usize] = Some(value);
                    self.extend(depth + 1);
                    self.binding[var as usize] = None;
                    next = value.checked_add(1);
                }
                Some(raised) => {
                    self.obs.backtracked();
                    next = raised;
                }
            }
        }
        self.cursors.truncate(base);
    }
}

/// Pushes `idx` onto `members`, then — if exactly one of its positions
/// holds a variable that `bound` says is free — every pattern of `rest`
/// not yet in `members` whose only free position holds that same
/// variable. Returns the variable if any pattern joined. `?x p ?x` with
/// `?x` free has two free positions, so it neither starts nor joins a
/// group.
fn group(
    patterns: &[TriplePattern],
    idx: usize,
    rest: impl Iterator<Item = usize>,
    bound: impl Fn(u32) -> bool,
    members: &mut Vec<usize>,
) -> Option<u32> {
    let lone_free_var = |pat: &TriplePattern| {
        let mut free = pat.vars().filter(|&v| !bound(v));
        let var = free.next()?;
        free.next().is_none().then_some(var)
    };
    let from = members.len();
    members.push(idx);
    let var = lone_free_var(&patterns[idx])?;
    for j in rest {
        if !members.contains(&j) && lone_free_var(&patterns[j]) == Some(var) {
            members.push(j);
        }
    }
    (members.len() - from > 1).then_some(var)
}

/// A pattern position: a variable, or the id a matching triple must hold.
#[derive(Clone, Copy)]
enum Slot {
    Var(u32),
    Const(u32),
}

/// The subject, property and object positions of `pat`.
fn slots(pat: &TriplePattern) -> [Slot; 3] {
    let node = |n: QNode| match n {
        QNode::Var(v) => Slot::Var(v),
        QNode::Const(c) => Slot::Const(c.0),
    };
    let label = match pat.p {
        QLabel::Var(v) => Slot::Var(v),
        QLabel::Prop(p) => Slot::Const(p.0),
    };
    [node(pat.s), label, node(pat.o)]
}

/// Resolves a pattern against the current partial binding: bound positions
/// become constants, unbound stay free.
fn resolve(pat: &TriplePattern, binding: &[Option<u32>]) -> Pattern {
    let [s, p, o] = slots(pat).map(|slot| match slot {
        Slot::Var(v) => binding[v as usize],
        Slot::Const(c) => Some(c),
    });
    Pattern {
        s: s.map(VertexId),
        p: p.map(PropertyId),
        o: o.map(VertexId),
    }
}

/// The variables of `pat` that `binding` leaves unbound, by position.
fn fresh_vars(pat: &TriplePattern, binding: &[Option<u32>]) -> [Option<u32>; 3] {
    slots(pat).map(|slot| match slot {
        Slot::Var(v) if binding[v as usize].is_none() => Some(v),
        _ => None,
    })
}

/// Binds a pattern's free variables to `t`'s values; false if a constant or a
/// bound variable disagrees (or a repeated one takes two values). What it
/// bound before failing stays bound: callers [`unbind`] the fresh
/// variables after every candidate.
#[inline]
fn bind(slots: [Slot; 3], t: Triple, binding: &mut [Option<u32>]) -> bool {
    slots.into_iter().zip([t.s.0, t.p.0, t.o.0]).all(|(slot, value)| match slot {
        Slot::Var(v) => *binding[v as usize].get_or_insert(value) == value,
        Slot::Const(c) => c == value,
    })
}

#[inline]
fn unbind(fresh: [Option<u32>; 3], binding: &mut [Option<u32>]) {
    for v in fresh.into_iter().flatten() {
        binding[v as usize] = None;
    }
}

/// Brute-force reference evaluator: enumerates every assignment of triples
/// to patterns. Exponential — only for cross-checking on small inputs.
pub fn evaluate_bruteforce(query: &Query, store: &LocalStore) -> Bindings {
    fn rec(
        patterns: &[TriplePattern],
        triples: &[Triple],
        binding: &mut [Option<u32>],
        out: &mut Bindings,
    ) {
        let Some((pat, rest)) = patterns.split_first() else {
            // mpc-allow: unwrap-expect a full match binds every variable by construction
            out.push(binding.iter().map(|b| b.expect("full match binds every variable")).collect());
            return;
        };
        let fresh = fresh_vars(pat, binding);
        for &t in triples {
            if bind(slots(pat), t, binding) {
                rec(rest, triples, binding, out);
            }
            unbind(fresh, binding);
        }
    }
    if query.patterns.is_empty() {
        return Bindings::unit();
    }
    let mut out = Bindings::new((0..narrow::u32_from(query.var_count())).collect());
    let triples: Vec<Triple> = store.scan(&Pattern::any()).collect();
    rec(&query.patterns, &triples, &mut vec![None; query.var_count()], &mut out);
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

    fn ordered(query: &Query, store: &LocalStore, order: &[usize]) -> Bindings {
        evaluate_with(query, store, Some(order), None, &mut ())
    }

    fn seeded(
        query: &Query,
        store: &LocalStore,
        order: &[usize],
        var: u32,
        keys: &[u32],
    ) -> Bindings {
        evaluate_with(query, store, Some(order), Some((var, keys)), &mut ())
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
        assert_eq!(ordered(&query, &store, &[0, 1]), reference);
        assert_eq!(ordered(&query, &store, &[1, 0]), reference);
    }

    #[test]
    fn ordered_evaluation_reports_to_observer() {
        let query = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let store = store();
        let mut stats = MatchStats::default();
        let got = evaluate_with(&query, &store, Some(&[0]), None, &mut stats);
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
        let _ = ordered(&query, &store(), &[0, 0]);
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
        let got = evaluate_with(&query, &store, Some(&[0, 1]), None, &mut stats);
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
    fn triangle_closes_by_one_intersection_per_edge() {
        // ?x p0 ?y . ?y p0 ?z . ?z p0 ?x in that order: once the first
        // edge binds x and y, the other two share ?z as their only free
        // variable, so they form one group — out of y (SPO) and into x
        // (POS) — intersected on ?z.
        let query = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
                TriplePattern::new(v(2), prop(0), v(0)),
            ],
            3,
        );
        // Base 0→1 1→2 1→3 2→0 3→0 3→1 with 3→0 tombstoned, novelty
        // 1→4 4→0: the triangles 0→1→2 and 0→1→4, three rotations each.
        let base = vec![t(0, 0, 1), t(1, 0, 2), t(1, 0, 3), t(2, 0, 0), t(3, 0, 0), t(3, 0, 1)];
        let mut store = LocalStore::new(base);
        assert!(store.delete(t(3, 0, 0)));
        assert!(store.insert(t(1, 0, 4)) && store.insert(t(4, 0, 0)));
        let mut stats = MatchStats::default();
        let got = evaluate_with(&query, &store, Some(&[0, 1, 2]), None, &mut stats);
        assert_eq!(got, evaluate_bruteforce(&query, &store));
        assert_eq!(
            got.rows,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 4],
                vec![1, 2, 0],
                vec![1, 4, 0],
                vec![2, 0, 1],
                vec![4, 0, 1]
            ]
        );

        // One `pattern_chosen` per group member, with the member's own
        // range size, at every node the first edge opens.
        let mut want = MatchStats::default();
        let first = Pattern {
            p: Some(PropertyId(0)),
            ..Pattern::any()
        };
        want.pattern_chosen(0, access_path_name(false, true, false), store.count(&first));
        for edge in store.scan(&first) {
            want.candidate_scanned();
            let out_of_y = Pattern { s: Some(edge.o), ..first };
            let into_x = Pattern { o: Some(edge.s), ..first };
            want.pattern_chosen(1, access_path_name(true, true, false), store.count(&out_of_y));
            want.pattern_chosen(2, access_path_name(false, true, true), store.count(&into_x));
        }
        // The values y's side proposed, per first edge in scan order, and
        // where x's side landed when it skipped one:
        //   2→0: {1}∩{1}        proposes 1 (row)
        //   0→1: {2,3,4}∩{2,4}  proposes 2 (row), 3 (raised to 4), 4 (row)
        //   3→1: {2,3,4}∩{1}    proposes 2 (x's side runs out)
        //   1→2: {0}∩{0,3}      proposes 0 (row)
        //   1→3: {1}∩{0,3}      proposes 1 (raised to 3; y's side runs out)
        //   4→0: {1}∩{1}        proposes 1 (row)
        //   1→4: {0}∩{0,3}      proposes 0 (row)
        for _ in 0..9 {
            want.candidate_scanned();
        }
        for _ in 0..3 {
            want.backtracked();
        }
        for _ in 0..6 {
            want.row_emitted();
        }
        assert_eq!(stats, want);
        assert_eq!(stats.steps, 1 + 7 * 2);
    }

    #[test]
    fn static_plans_group_patterns_sharing_their_lone_free_variable() {
        let levels_of = |query: &Query, order: &[usize], seed: Option<u32>| {
            let mut search = Search {
                query,
                store: &LocalStore::new(vec![]),
                levels: Vec::new(),
                binding: vec![None; query.var_count()],
                members: Vec::new(),
                cursors: Vec::new(),
                out: Bindings::unit(),
                obs: &mut (),
            };
            search.plan(order, seed);
            let mut from = 0;
            let mut levels = Vec::new();
            for &(end, shared) in &search.levels {
                levels.push((search.members[from..end].to_vec(), shared));
                from = end;
            }
            levels
        };
        // ?x p0 ?y . ?x p1 c5 . c6 p2 ?x . ?x p0 ?x: after the first edge
        // nothing is free in the self-loop, and ?x is bound; from the
        // constant-anchored arm, ?x is the lone free variable of both
        // other arms, but `?x p0 ?x` holds it twice and stays alone.
        let star = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(0), prop(1), c(5)),
                TriplePattern::new(c(6), prop(2), v(0)),
                TriplePattern::new(v(0), prop(0), v(0)),
            ],
            2,
        );
        assert_eq!(
            levels_of(&star, &[0, 1, 2, 3], None),
            vec![(vec![0], None), (vec![1], None), (vec![2], None), (vec![3], None)]
        );
        assert_eq!(
            levels_of(&star, &[1, 3, 0, 2], None),
            vec![(vec![1, 2], Some(0)), (vec![3], None), (vec![0], None)]
        );
        assert_eq!(
            levels_of(&star, &[3, 1, 2, 0], None),
            vec![(vec![3], None), (vec![1], None), (vec![2], None), (vec![0], None)]
        );
        // A seeded ?y leaves ?x the lone free variable of the first edge.
        assert_eq!(
            levels_of(&star, &[0, 1, 2, 3], Some(1)),
            vec![(vec![0, 1, 2], Some(0)), (vec![3], None)]
        );
        // A property variable groups the same way: c0 ?p c1 . c2 ?p c3.
        let labels = Query::new(
            vec![
                TriplePattern::new(c(0), QLabel::Var(0), c(1)),
                TriplePattern::new(c(2), QLabel::Var(0), c(3)),
            ],
            vec!["p".into()],
        );
        assert_eq!(levels_of(&labels, &[1, 0], None), vec![(vec![1, 0], Some(0))]);
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
        assert_eq!(seeded(&edge, &store, &[0], 0, &[]), keyed(0, &[]));
        // Keys the store never held, a tombstoned edge's subject (3) and
        // a repeated key.
        let keys = [0, 3, 4, 4, 9, 77];
        assert_eq!(
            seeded(&edge, &store, &[0], 0, &keys).rows,
            vec![vec![0, 1], vec![4, 5]]
        );
        assert_eq!(
            seeded(&edge, &store, &[0], 1, &keys),
            keyed(1, &keys)
        );

        // ?x p0 ?x seeded on ?x: only a keyed self-loop survives.
        let looped = q(vec![TriplePattern::new(v(0), prop(0), v(0))], 1);
        assert_eq!(
            seeded(&looped, &store, &[0], 0, &[0, 6, 9]).rows,
            vec![vec![6]]
        );

        // A property-variable seed: keys are property ids.
        let any_label = Query::new(
            vec![TriplePattern::new(c(0), QLabel::Var(0), v(1))],
            vec!["p".into(), "o".into()],
        );
        assert_eq!(
            seeded(&any_label, &store, &[0], 0, &[0, 2]).rows,
            vec![vec![0, 1]]
        );
        assert!(seeded(&any_label, &store, &[0], 0, &[1, 2]).is_empty());
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
    /// About a third of the base is deleted first: random deletes alone
    /// rarely hit a triple of so small a base.
    fn store_strategy() -> impl Strategy<Value = LocalStore> {
        (
            proptest::collection::vec(((0u32..6, 0u32..3, 0u32..6), 0u32..3), 1..25),
            crate::store::proptests::ops_strategy(),
        )
            .prop_map(|(base, ops)| {
                let base: Vec<(Triple, bool)> = base
                    .into_iter()
                    .map(|((s, p, o), cull)| {
                        (Triple::new(VertexId(s), PropertyId(p), VertexId(o)), cull == 0)
                    })
                    .collect();
                let mut store = LocalStore::new(base.iter().map(|&(t, _)| t).collect());
                for &(t, cull) in &base {
                    if cull {
                        store.delete(t);
                    }
                }
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

    /// Queries shaped so that some orders group patterns for the
    /// intersection step: triangles, constant-anchored stars on one
    /// variable (which it holds as subject or object), stars of constant
    /// pairs on one property variable, and a variable with a self-loop
    /// `?x p ?x` (which never joins a group) among anchored arms. Each
    /// shape may gain one random edge to a fresh variable.
    fn group_query_strategy() -> impl Strategy<Value = Query> {
        let label = || (0u32..3).prop_map(|p| QLabel::Prop(PropertyId(p)));
        let vertex = || (0u32..6).prop_map(|v| QNode::Const(VertexId(v)));
        fn edge(a: QNode, p: QLabel, b: QNode, flip: bool) -> TriplePattern {
            if flip {
                TriplePattern::new(b, p, a)
            } else {
                TriplePattern::new(a, p, b)
            }
        }
        let triangle = (label(), label(), label(), 0u32..8).prop_map(|(p, q, r, flips)| {
            let [x, y, z] = [0, 1, 2].map(QNode::Var);
            vec![
                edge(x, p, y, flips & 1 != 0),
                edge(y, q, z, flips & 2 != 0),
                edge(z, r, x, flips & 4 != 0),
            ]
        });
        let star = proptest::collection::vec((label(), vertex(), any::<bool>()), 2..5).prop_map(
            |arms| {
                arms.into_iter()
                    .map(|(p, c, flip)| edge(QNode::Var(0), p, c, flip))
                    .collect()
            },
        );
        let label_star = proptest::collection::vec((vertex(), vertex()), 2..4).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(a, b)| TriplePattern::new(a, QLabel::Var(0), b))
                .collect()
        });
        let looped = (label(), proptest::collection::vec((label(), vertex(), any::<bool>()), 1..3))
            .prop_map(|(p, arms)| {
                let x = QNode::Var(0);
                std::iter::once(TriplePattern::new(x, p, x))
                    .chain(arms.into_iter().map(|(q, c, flip)| edge(x, q, c, flip)))
                    .collect()
            });
        let shape = prop_oneof![triangle, star, label_star, looped];
        (shape, proptest::option::of((label(), any::<bool>()))).prop_map(|(mut patterns, extra)| {
            let mut nvars = patterns
                .iter()
                .flat_map(TriplePattern::vars)
                .max()
                .map_or(0, |v| v + 1);
            if let Some((p, flip)) = extra {
                // A fresh vertex variable hung off the first vertex
                // position of the first pattern.
                let anchor = patterns[0].s;
                patterns.push(edge(anchor, p, QNode::Var(nvars), flip));
                nvars += 1;
            }
            Query::new(patterns, (0..nvars).map(|i| format!("v{i}")).collect())
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
                evaluate_with(&query, &store, Some(&order), None, &mut ()),
                evaluate(&query, &store)
            );
        }

        /// Queries built to group patterns agree with brute force over
        /// dirty stores: under the dynamic order and under any static
        /// order, seeded and unseeded (a seeded search keeps exactly the
        /// keyed rows).
        #[test]
        fn intersection_groups_equal_bruteforce(
            store in store_strategy(),
            query in group_query_strategy(),
            order_seed in any::<u64>(),
            pick in any::<u32>(),
            keys in proptest::collection::vec(0u32..10, 0..6),
        ) {
            let want = evaluate_bruteforce(&query, &store);
            let order = shuffled_order(query.patterns.len(), order_seed);
            prop_assert_eq!(&evaluate(&query, &store), &want);
            prop_assert_eq!(&evaluate_with(&query, &store, Some(&order), None, &mut ()), &want);

            let var = pick % query.var_count() as u32;
            let mut keyed = want;
            keyed.rows.retain(|row| keys.contains(&row[var as usize]));
            let seed = Some((var, keys.as_slice()));
            prop_assert_eq!(&evaluate_with(&query, &store, Some(&order), seed, &mut ()), &keyed);
            prop_assert_eq!(&evaluate_with(&query, &store, None, seed, &mut ()), &keyed);
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
            let order = shuffled_order(n, seeds.0);
            let seeded = evaluate_with(&query, &store, Some(&order), Some((var, &keys)), &mut ());
            let order = shuffled_order(n, seeds.1);
            let mut want = evaluate_with(&query, &store, Some(&order), None, &mut ());
            want.rows.retain(|row| keys.contains(&row[var as usize]));
            prop_assert_eq!(seeded, want);
        }
    }
}
