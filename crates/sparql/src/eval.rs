//! Recursive plan evaluation over [`Bindings`] (docs/QUERY.md).
//!
//! [`eval_plan`] walks a [`ResolvedPlan`] bottom-up, delegating BGP
//! leaves to a [`BgpSource`] — a local store here, the distributed
//! coordinator in `mpc-cluster` — and combining the leaf results with
//! the bag-semantic operators in [`crate::algebra`]. Every operator is
//! a deterministic function of its inputs, so two evaluations of one
//! plan over equal leaf results are bit-identical; that is the property
//! the serving cache and the thread-count invariance tests lean on.
//!
//! FILTERs directly above a BGP leaf are offered to the source first
//! ([`BgpSource::eval_bgp_filtered`]) when they are decidable on raw
//! ids ([`ResolvedFilter::is_id_only`]): a distributed source can then
//! apply them inside each partition before rows cross the property cut.
//! Whatever the source declines runs at this layer instead.
//!
//! A `Join`/`LeftJoin` whose right operand is a BGP leaf is a **bind
//! join**: the left side runs first and the leaf is offered its distinct
//! values of one shared variable ([`BgpSource::eval_bgp_seeded`]), so a
//! source can start the leaf's search from those keys instead of scanning
//! a whole property to keep a handful of rows.

use crate::algebra::{
    bag_project, bag_union, compat_join, dedup_preserving_order, left_join, sort_rows, Bindings,
    PlanNode, ResolvedFilter, ResolvedPlan, UNBOUND,
};
use crate::matcher::evaluate_with;
use crate::planner::static_order;
use crate::query::Query;
use crate::store::LocalStore;
use mpc_rdf::{narrow, Dictionary};

/// Supplies BGP leaf results during plan evaluation.
pub trait BgpSource {
    /// The source's failure type ([`std::convert::Infallible`] for
    /// purely local evaluation).
    type Error;

    /// Evaluates one BGP leaf to its full, deduplicated binding set
    /// with variables `0..query.var_count()` in ascending column order
    /// (the matcher contract).
    fn eval_bgp(&mut self, query: &Query) -> Result<Bindings, Self::Error>;

    /// Like [`eval_bgp`](Self::eval_bgp), but with id-only filters
    /// (already rewritten to the leaf's local variable space) applied
    /// as close to the data as the source can manage. Returning `None`
    /// declines — the evaluator falls back to [`eval_bgp`](Self::eval_bgp)
    /// and applies every filter itself.
    fn eval_bgp_filtered(
        &mut self,
        _query: &Query,
        _filters: &[ResolvedFilter],
    ) -> Option<Result<Bindings, Self::Error>> {
        None
    }

    /// Like [`eval_bgp`](Self::eval_bgp), but only the rows whose leaf
    /// variable `var` takes one of `keys` (sorted, distinct) are wanted:
    /// the leaf is the right operand of a join and `keys` are all the
    /// values its left side binds `var` to. An accepting source returns
    /// exactly the sub-sequence of [`eval_bgp`](Self::eval_bgp)'s table
    /// with `row[var]` in `keys`, in the same order. Returning `None`
    /// declines — the evaluator falls back to [`eval_bgp`](Self::eval_bgp)
    /// and the join discards the other rows itself.
    fn eval_bgp_seeded(
        &mut self,
        _query: &Query,
        _var: u32,
        _keys: &[u32],
    ) -> Option<Result<Bindings, Self::Error>> {
        None
    }
}

/// Evaluates a resolved plan against a leaf source. The result's
/// columns are the plan's [root output variables](ResolvedPlan::out_vars).
pub fn eval_plan<S: BgpSource>(
    plan: &ResolvedPlan,
    source: &mut S,
    dict: &Dictionary,
) -> Result<Bindings, S::Error> {
    eval_node(&plan.root, source, dict, &plan.prop_vars)
}

fn eval_node<S: BgpSource>(
    node: &PlanNode,
    source: &mut S,
    dict: &Dictionary,
    prop_vars: &[bool],
) -> Result<Bindings, S::Error> {
    match node {
        PlanNode::Bgp { query, var_map } => {
            let mut b = source.eval_bgp(query)?;
            b.vars = var_map.clone();
            Ok(b)
        }
        PlanNode::Empty { vars } => Ok(Bindings::new(vars.clone())),
        PlanNode::Join(l, r) => {
            let left = eval_node(l, source, dict, prop_vars)?;
            let right = eval_right_operand(r, &left, source, dict, prop_vars)?;
            Ok(compat_join(&left, &right))
        }
        PlanNode::LeftJoin(l, r) => {
            let left = eval_node(l, source, dict, prop_vars)?;
            let right = eval_right_operand(r, &left, source, dict, prop_vars)?;
            Ok(left_join(&left, &right))
        }
        PlanNode::Union(l, r) => Ok(bag_union(
            &eval_node(l, source, dict, prop_vars)?,
            &eval_node(r, source, dict, prop_vars)?,
        )),
        PlanNode::Filter(..) => {
            // Collect the whole filter chain down to its base operand.
            let mut filters: Vec<&ResolvedFilter> = Vec::new();
            let mut base = node;
            while let PlanNode::Filter(c, f) = base {
                filters.push(f);
                base = c;
            }
            if let PlanNode::Bgp { query, var_map } = base {
                // Offer the id-decidable part of the chain to the source.
                let mut pushed: Vec<ResolvedFilter> = Vec::new();
                let mut kept: Vec<&ResolvedFilter> = Vec::new();
                for f in &filters {
                    match (f.is_id_only(prop_vars), f.localize(var_map)) {
                        (true, Some(local)) => pushed.push(local),
                        _ => kept.push(f),
                    }
                }
                if !pushed.is_empty() {
                    if let Some(result) = source.eval_bgp_filtered(query, &pushed) {
                        let mut b = result?;
                        b.vars = var_map.clone();
                        retain_matching(&mut b, &kept, prop_vars, dict);
                        return Ok(b);
                    }
                }
                let mut b = source.eval_bgp(query)?;
                b.vars = var_map.clone();
                retain_matching(&mut b, &filters, prop_vars, dict);
                Ok(b)
            } else {
                let mut b = eval_node(base, source, dict, prop_vars)?;
                retain_matching(&mut b, &filters, prop_vars, dict);
                Ok(b)
            }
        }
        PlanNode::Distinct(c) => {
            let mut b = eval_node(c, source, dict, prop_vars)?;
            dedup_preserving_order(&mut b);
            Ok(b)
        }
        PlanNode::OrderBy(c, keys) => {
            let mut b = eval_node(c, source, dict, prop_vars)?;
            sort_rows(&mut b, keys, prop_vars, dict);
            Ok(b)
        }
        PlanNode::Slice(c, offset, limit) => {
            let mut b = eval_node(c, source, dict, prop_vars)?;
            if *offset > 0 {
                b.rows.drain(..(*offset).min(b.rows.len()));
            }
            if let Some(limit) = limit {
                b.rows.truncate(*limit);
            }
            Ok(b)
        }
        PlanNode::Project(c, vars) => {
            Ok(bag_project(eval_node(c, source, dict, prop_vars)?, vars))
        }
    }
}

/// Evaluates the right operand of a join whose left side came out as
/// `left`, offering a BGP leaf the left side's join keys first.
///
/// Leaf rows are fully bound, so one whose seeded column is outside the
/// keys is compatible with no left row: the join of `left` with the
/// seeded table is, row for row and in the same order, the join with the
/// whole one. That needs every left row bound in the seeded column (an
/// [`UNBOUND`] cell, which nested OPTIONAL/UNION produce, is compatible
/// with every value), so such a column is never offered.
fn eval_right_operand<S: BgpSource>(
    node: &PlanNode,
    left: &Bindings,
    source: &mut S,
    dict: &Dictionary,
    prop_vars: &[bool],
) -> Result<Bindings, S::Error> {
    if let PlanNode::Bgp { query, var_map } = node {
        if let Some((var, keys)) = seed_keys(left, var_map) {
            if let Some(result) = source.eval_bgp_seeded(query, var, &keys) {
                let mut b = result?;
                b.vars = var_map.clone();
                return Ok(b);
            }
        }
    }
    eval_node(node, source, dict, prop_vars)
}

/// The first leaf variable (leaf-local index) that `left` also binds,
/// with the sorted distinct values `left` gives it — `None` if the two
/// share no variable or some left row leaves that one [`UNBOUND`].
fn seed_keys(left: &Bindings, var_map: &[u32]) -> Option<(u32, Vec<u32>)> {
    let (local, col) = var_map
        .iter()
        .enumerate()
        .find_map(|(local, &global)| Some((local, left.column_of(global)?)))?;
    let mut keys: Vec<u32> = left.rows.iter().map(|row| row[col]).collect();
    keys.sort_unstable();
    keys.dedup();
    // UNBOUND is the largest id, so it can only sort last.
    if keys.last() == Some(&UNBOUND) {
        return None;
    }
    Some((narrow::u32_from(local), keys))
}

fn retain_matching(
    b: &mut Bindings,
    filters: &[&ResolvedFilter],
    prop_vars: &[bool],
    dict: &Dictionary,
) {
    if filters.is_empty() {
        return;
    }
    let vars = b.vars.clone();
    b.rows
        .retain(|row| filters.iter().all(|f| f.accepts(row, &vars, prop_vars, dict)));
}

/// A [`BgpSource`] over one [`LocalStore`], ordering each leaf's
/// patterns with the [`StoreStats`](crate::planner) greedy planner. It
/// declines every pushdown and seed offer: this is the plain reference
/// the offers' takers are checked against.
struct LocalSource<'a> {
    store: &'a LocalStore,
}

impl BgpSource for LocalSource<'_> {
    type Error = std::convert::Infallible;

    fn eval_bgp(&mut self, query: &Query) -> Result<Bindings, Self::Error> {
        let order = static_order(&query.patterns, query.var_count(), self.store.stats(), None);
        Ok(evaluate_with(query, self.store, Some(&order), None, &mut ()))
    }
}

/// Evaluates a plan entirely against one local store — the centralized
/// reference the distributed engine (and the server e2e digests) are
/// compared to.
pub fn eval_plan_local(plan: &ResolvedPlan, store: &LocalStore, dict: &Dictionary) -> Bindings {
    let mut source = LocalSource { store };
    match eval_plan(plan, &mut source, dict) {
        Ok(b) => b,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::UNBOUND;
    use crate::parser::parse;
    use mpc_rdf::{GraphBuilder, RdfGraph, Term};

    fn people_graph() -> RdfGraph {
        let mut b = GraphBuilder::new();
        b.add(
            &Term::iri("http://x/alice"),
            "http://x/age",
            &Term::typed_literal("31", "http://www.w3.org/2001/XMLSchema#integer"),
        );
        b.add(
            &Term::iri("http://x/bob"),
            "http://x/age",
            &Term::typed_literal("12", "http://www.w3.org/2001/XMLSchema#integer"),
        );
        b.add(
            &Term::iri("http://x/carol"),
            "http://x/age",
            &Term::literal("n/a"),
        );
        b.add_iris("http://x/alice", "http://x/knows", "http://x/bob");
        b.build()
    }

    fn run(g: &RdfGraph, text: &str) -> Bindings {
        let plan = parse(text).unwrap().resolve(g.dictionary()).unwrap();
        eval_plan_local(&plan, &LocalStore::from_graph(g), g.dictionary())
    }

    fn vid(g: &RdfGraph, iri: &str) -> u32 {
        g.dictionary().vertex_id(&Term::iri(iri)).unwrap().0
    }

    #[test]
    fn filters_apply_during_eval() {
        let g = people_graph();
        // Only alice passes: bob is 12, carol's age is non-numeric.
        let r = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:age ?n . FILTER(?n >= 18) }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], vid(&g, "http://x/alice"));

        // Term equality filter.
        let r2 = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:age ?n . FILTER(?p = x:bob) }",
        );
        assert_eq!(r2.len(), 1);
        assert_eq!(r2.rows[0][0], vid(&g, "http://x/bob"));

        // A constant the graph has never seen: != is vacuously true for
        // bound values, = vacuously false.
        let r3 = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:age ?n . FILTER(?p != x:nobody) }",
        );
        assert_eq!(r3.len(), 3);
        let r4 = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:age ?n . FILTER(?p = x:nobody) }",
        );
        assert_eq!(r4.len(), 0);
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let g = people_graph();
        let r = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p ?q WHERE { ?p x:age ?n \
             OPTIONAL { ?p x:knows ?q } }",
        );
        // alice knows bob; bob and carol survive with ?q unbound.
        assert_eq!(r.len(), 3);
        let alice = vid(&g, "http://x/alice");
        let bob = vid(&g, "http://x/bob");
        for row in &r.rows {
            if row[0] == alice {
                assert_eq!(row[1], bob);
            } else {
                assert_eq!(row[1], UNBOUND);
            }
        }
    }

    #[test]
    fn union_preserves_duplicates_without_distinct() {
        // ?p matches via both branches: without DISTINCT the row appears
        // twice (bag semantics); with DISTINCT exactly once.
        let g = people_graph();
        let bag = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p WHERE { \
             { ?p x:age ?n } UNION { ?p x:age ?m } }",
        );
        assert_eq!(bag.len(), 6, "each of 3 people via both branches");
        let set = run(
            &g,
            "PREFIX x: <http://x/> SELECT DISTINCT ?p WHERE { \
             { ?p x:age ?n } UNION { ?p x:age ?m } }",
        );
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn union_branches_with_absent_constants_still_evaluate() {
        let g = people_graph();
        let r = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p WHERE { \
             { ?p x:missing ?n } UNION { ?p x:knows ?q } }",
        );
        assert_eq!(r.len(), 1, "absent-property branch is empty, not fatal");
    }

    #[test]
    fn order_by_sorts_numerically_then_slices() {
        let g = people_graph();
        let r = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p ?n WHERE { ?p x:age ?n } ORDER BY ?n",
        );
        // "n/a" is non-numeric: it sorts by term order after numerics.
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][0], vid(&g, "http://x/bob"));
        assert_eq!(r.rows[1][0], vid(&g, "http://x/alice"));
        assert_eq!(r.rows[2][0], vid(&g, "http://x/carol"));

        let desc = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p ?n WHERE { ?p x:age ?n } ORDER BY DESC(?n) LIMIT 1",
        );
        assert_eq!(desc.len(), 1);
        assert_eq!(desc.rows[0][0], vid(&g, "http://x/carol"));

        let offset = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?p ?n WHERE { ?p x:age ?n } ORDER BY ?n OFFSET 2",
        );
        assert_eq!(offset.len(), 1);
        assert_eq!(offset.rows[0][0], vid(&g, "http://x/carol"));
    }

    /// p0 chain v0→v1→v2→v3, plus one p1 edge v0→v9.
    fn chain_graph() -> RdfGraph {
        let mut b = GraphBuilder::new();
        for (s, o) in [("v0", "v1"), ("v1", "v2"), ("v2", "v3")] {
            b.add_iris(
                &format!("http://x/{s}"),
                "http://x/p0",
                &format!("http://x/{o}"),
            );
        }
        b.add_iris("http://x/v0", "http://x/p1", "http://x/v9");
        b.build()
    }

    #[test]
    fn every_operator_form_is_derived_and_evaluates() {
        let g = chain_graph();
        let rows = |body: &str| run(&g, &format!("PREFIX x: <http://x/> {body}")).rows;
        // Bag union preserves duplicates; DISTINCT collapses them.
        let union = "{ { ?s x:p0 ?o } UNION { ?s x:p0 ?o } }";
        assert_eq!(
            rows(&format!("SELECT ?s ?o WHERE {union}")).len(),
            6,
            "3 base rows, twice"
        );
        assert_eq!(
            rows(&format!("SELECT DISTINCT ?s ?o WHERE {union}")).len(),
            3
        );
        // ORDER BY DESC(?s) LIMIT 10: all 3 rows, subjects descending.
        let ordered = rows("SELECT ?s ?o WHERE { ?s x:p0 ?o } ORDER BY DESC(?s) LIMIT 10");
        let subjects: Vec<u32> = ordered.iter().map(|r| r[0]).collect();
        let want: Vec<u32> = ["v2", "v1", "v0"]
            .iter()
            .map(|v| vid(&g, &format!("http://x/{v}")))
            .collect();
        assert_eq!(subjects, want);
        // An OPTIONAL arm that re-probes p0: every subject has a p0 edge,
        // so no cell goes unbound, but the arm's column exists.
        let opt = rows("SELECT ?s ?o ?opt WHERE { ?s x:p0 ?o OPTIONAL { ?s x:p0 ?opt } }");
        assert_eq!(opt.len(), 3);
        for row in &opt {
            assert_eq!(row.len(), 3);
            assert_ne!(row[2], UNBOUND);
        }
        // FILTER(?s != ?o) drops nothing on a chain (s ≠ o always).
        assert_eq!(
            rows("SELECT ?s ?o WHERE { ?s x:p0 ?o FILTER(?s != ?o) }").len(),
            3
        );
    }

    #[test]
    fn optional_cells_go_unbound_when_the_arm_misses() {
        // Base over the p0 chain, OPTIONAL arm over p1: only v0 has a p1
        // edge, so v1's and v2's rows keep an unbound cell.
        let g = chain_graph();
        let r = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?s ?o ?opt WHERE { ?s x:p0 ?o \
             OPTIONAL { ?s x:p1 ?opt } }",
        );
        assert_eq!(r.len(), 3, "left rows all survive");
        let unbound = r.rows.iter().filter(|row| row[2] == UNBOUND).count();
        assert_eq!(unbound, 2, "subjects v1 and v2 have no p1 edge");
    }

    #[test]
    fn projection_narrows_and_reorders() {
        let g = people_graph();
        let r = run(
            &g,
            "PREFIX x: <http://x/> SELECT ?n ?p WHERE { ?p x:age ?n . FILTER(?n >= 18) }",
        );
        assert_eq!(r.vars.len(), 2);
        assert_eq!(r.rows[0][1], vid(&g, "http://x/alice"));
    }

    /// A source that refuses or accepts filter pushdown and join seeds,
    /// to pin the fallback contracts.
    pub(super) struct CountingSource<'a> {
        store: &'a LocalStore,
        push: bool,
        pushed_calls: usize,
        seed: bool,
        seeded_calls: usize,
    }

    impl<'a> CountingSource<'a> {
        pub(super) fn new(store: &'a LocalStore, push: bool, seed: bool) -> Self {
            CountingSource {
                store,
                push,
                pushed_calls: 0,
                seed,
                seeded_calls: 0,
            }
        }

        pub(super) fn seeded_calls(&self) -> usize {
            self.seeded_calls
        }
    }

    impl BgpSource for CountingSource<'_> {
        type Error = std::convert::Infallible;

        fn eval_bgp(&mut self, query: &Query) -> Result<Bindings, Self::Error> {
            Ok(crate::matcher::evaluate(query, self.store))
        }

        fn eval_bgp_filtered(
            &mut self,
            query: &Query,
            filters: &[ResolvedFilter],
        ) -> Option<Result<Bindings, Self::Error>> {
            if !self.push {
                return None;
            }
            self.pushed_calls += 1;
            let mut b = crate::matcher::evaluate(query, self.store);
            let vars = b.vars.clone();
            b.rows
                .retain(|row| filters.iter().all(|f| f.accepts_ids(row, &vars)));
            Some(Ok(b))
        }

        fn eval_bgp_seeded(
            &mut self,
            query: &Query,
            var: u32,
            keys: &[u32],
        ) -> Option<Result<Bindings, Self::Error>> {
            if !self.seed {
                return None;
            }
            self.seeded_calls += 1;
            let order = static_order(
                &query.patterns,
                query.var_count(),
                self.store.stats(),
                Some(var),
            );
            Some(Ok(evaluate_with(
                query,
                self.store,
                Some(&order),
                Some((var, keys)),
                &mut (),
            )))
        }
    }

    #[test]
    fn id_only_filters_push_to_the_source_and_agree() {
        let g = people_graph();
        let plan = parse(
            "PREFIX x: <http://x/> SELECT ?p ?q WHERE { \
             ?p x:knows ?q . FILTER(?p != ?q) }",
        )
        .unwrap()
        .resolve(g.dictionary())
        .unwrap();
        let store = LocalStore::from_graph(&g);
        let mut pushing = CountingSource::new(&store, true, false);
        let mut declining = CountingSource::new(&store, false, false);
        let a = eval_plan(&plan, &mut pushing, g.dictionary()).unwrap();
        let b = eval_plan(&plan, &mut declining, g.dictionary()).unwrap();
        assert_eq!(pushing.pushed_calls, 1, "id-only filter was offered");
        assert_eq!(declining.pushed_calls, 0);
        assert_eq!(a.rows, b.rows, "pushed and fallback paths agree");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn join_right_leaves_are_offered_the_left_keys() {
        let g = people_graph();
        let store = LocalStore::from_graph(&g);
        for (text, rows) in [
            // alice's ?q is bound by the arm, bob and carol keep UNBOUND.
            (
                "SELECT * WHERE { ?p x:age ?n OPTIONAL { ?p x:knows ?q } }",
                3,
            ),
            ("SELECT * WHERE { ?p x:age ?n { ?p x:knows ?q } }", 1),
            // No shared variable: a cross product, nothing to offer.
            ("SELECT * WHERE { ?p x:age ?n { ?a x:knows ?b } }", 3),
        ] {
            let plan = parse(&format!("PREFIX x: <http://x/> {text}"))
                .unwrap()
                .resolve(g.dictionary())
                .unwrap();
            let mut seeding = CountingSource::new(&store, false, true);
            let mut declining = CountingSource::new(&store, false, false);
            let a = eval_plan(&plan, &mut seeding, g.dictionary()).unwrap();
            let b = eval_plan(&plan, &mut declining, g.dictionary()).unwrap();
            assert_eq!(a, b, "{text}");
            assert_eq!(a.len(), rows, "{text}");
            assert_eq!(
                seeding.seeded_calls(),
                usize::from(!text.contains("?a")),
                "{text}"
            );
            assert_eq!(declining.seeded_calls(), 0);
        }
    }

    #[test]
    fn a_column_with_unbound_cells_is_never_offered() {
        // The first arm binds ?q for alice only, so the second arm, which
        // keys on ?q, must see the whole leaf: bob's and carol's UNBOUND
        // ?q is compatible with every ?q the leaf binds.
        let g = people_graph();
        let store = LocalStore::from_graph(&g);
        let plan = parse(
            "PREFIX x: <http://x/> SELECT * WHERE { ?p x:age ?n \
             OPTIONAL { ?p x:knows ?q } OPTIONAL { ?q x:age ?m } }",
        )
        .unwrap()
        .resolve(g.dictionary())
        .unwrap();
        let mut seeding = CountingSource::new(&store, false, true);
        let got = eval_plan(&plan, &mut seeding, g.dictionary()).unwrap();
        assert_eq!(
            seeding.seeded_calls(),
            1,
            "only the first arm's column is all bound"
        );
        assert_eq!(got, eval_plan_local(&plan, &store, g.dictionary()));
        // alice joins bob's age; bob and carol each pair with all 3 ages.
        assert_eq!(got.len(), 1 + 3 + 3);
    }

    #[test]
    fn numeric_filters_are_not_id_only() {
        let g = people_graph();
        let plan = parse(
            "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:age ?n . FILTER(?n >= 18) }",
        )
        .unwrap()
        .resolve(g.dictionary())
        .unwrap();
        let store = LocalStore::from_graph(&g);
        let mut source = CountingSource::new(&store, true, false);
        let r = eval_plan(&plan, &mut source, g.dictionary()).unwrap();
        assert_eq!(source.pushed_calls, 0, "numeric filters need the dictionary");
        assert_eq!(r.len(), 1);
    }
}

#[cfg(test)]
mod differential {
    //! Differential proptests: [`eval_plan_local`] (planner-ordered
    //! leaves + bag operators) against a naive nested-loop reference on
    //! random small graphs.
    use super::tests::CountingSource;
    use super::*;
    use crate::parser::parse;
    use crate::query::{QLabel, QNode};
    use mpc_rdf::{GraphBuilder, RdfGraph, Triple};
    use proptest::prelude::*;

    /// A reference row: one slot per global variable, `None` = unbound.
    type RRow = Vec<Option<u32>>;

    fn bind(slot: &mut Option<u32>, v: u32) -> bool {
        match slot {
            Some(x) => *x == v,
            None => {
                *slot = Some(v);
                true
            }
        }
    }

    fn ref_bgp(query: &Query, var_map: &[u32], triples: &[Triple], nvars: usize) -> Vec<RRow> {
        let mut partials: Vec<Vec<Option<u32>>> = vec![vec![None; query.var_count()]];
        for pat in &query.patterns {
            let mut next = Vec::new();
            for partial in &partials {
                for t in triples {
                    let mut row = partial.clone();
                    let ok = match &pat.s {
                        QNode::Var(l) => bind(&mut row[*l as usize], t.s.0),
                        QNode::Const(id) => id.0 == t.s.0,
                    } && match &pat.p {
                        QLabel::Var(l) => bind(&mut row[*l as usize], t.p.0),
                        QLabel::Prop(id) => id.0 == t.p.0,
                    } && match &pat.o {
                        QNode::Var(l) => bind(&mut row[*l as usize], t.o.0),
                        QNode::Const(id) => id.0 == t.o.0,
                    };
                    if ok {
                        next.push(row);
                    }
                }
            }
            partials = next;
        }
        // Leaves are set-semantic, like the matcher.
        partials.sort();
        partials.dedup();
        partials
            .into_iter()
            .map(|local| {
                let mut row = vec![None; nvars];
                for (l, g) in var_map.iter().enumerate() {
                    row[*g as usize] = local[l];
                }
                row
            })
            .collect()
    }

    fn rows_compatible(a: &RRow, b: &RRow) -> bool {
        a.iter()
            .zip(b)
            .all(|(x, y)| x.is_none() || y.is_none() || x == y)
    }

    fn merge(a: &RRow, b: &RRow) -> RRow {
        a.iter().zip(b).map(|(x, y)| x.or(*y)).collect()
    }

    fn accepts_ref(
        f: &ResolvedFilter,
        row: &RRow,
        prop_vars: &[bool],
        dict: &mpc_rdf::Dictionary,
    ) -> bool {
        // Test rows are tiny; the width always fits a u32.
        #[allow(clippy::cast_possible_truncation)]
        let vars: Vec<u32> = (0..row.len()).map(|i| i as u32).collect();
        let packed: Vec<u32> = row.iter().map(|v| v.unwrap_or(UNBOUND)).collect();
        f.accepts(&packed, &vars, prop_vars, dict)
    }

    fn ref_node(
        node: &PlanNode,
        triples: &[Triple],
        nvars: usize,
        prop_vars: &[bool],
        dict: &mpc_rdf::Dictionary,
    ) -> Vec<RRow> {
        match node {
            PlanNode::Bgp { query, var_map } => ref_bgp(query, var_map, triples, nvars),
            PlanNode::Empty { .. } => Vec::new(),
            PlanNode::Join(l, r) => {
                let lv = ref_node(l, triples, nvars, prop_vars, dict);
                let rv = ref_node(r, triples, nvars, prop_vars, dict);
                let mut out = Vec::new();
                for a in &lv {
                    for b in &rv {
                        if rows_compatible(a, b) {
                            out.push(merge(a, b));
                        }
                    }
                }
                out
            }
            PlanNode::LeftJoin(l, r) => {
                let lv = ref_node(l, triples, nvars, prop_vars, dict);
                let rv = ref_node(r, triples, nvars, prop_vars, dict);
                let mut out = Vec::new();
                for a in &lv {
                    let mut matched = false;
                    for b in &rv {
                        if rows_compatible(a, b) {
                            matched = true;
                            out.push(merge(a, b));
                        }
                    }
                    if !matched {
                        out.push(a.clone());
                    }
                }
                out
            }
            PlanNode::Union(l, r) => {
                let mut out = ref_node(l, triples, nvars, prop_vars, dict);
                out.extend(ref_node(r, triples, nvars, prop_vars, dict));
                out
            }
            PlanNode::Filter(c, f) => {
                let mut rows = ref_node(c, triples, nvars, prop_vars, dict);
                rows.retain(|row| accepts_ref(f, row, prop_vars, dict));
                rows
            }
            PlanNode::Distinct(c) => {
                let mut rows = ref_node(c, triples, nvars, prop_vars, dict);
                rows.sort();
                rows.dedup();
                rows
            }
            PlanNode::OrderBy(c, _) | PlanNode::Slice(c, _, _) => {
                // Not generated for the multiset comparison.
                ref_node(c, triples, nvars, prop_vars, dict)
            }
            PlanNode::Project(c, _) => ref_node(c, triples, nvars, prop_vars, dict),
        }
    }

    fn graph_strategy() -> impl Strategy<Value = RdfGraph> {
        proptest::collection::vec((0u32..8, 0u32..3, 0u32..8), 1..25).prop_map(|edges| {
            let mut b = GraphBuilder::new();
            for (s, p, o) in edges {
                b.add_iris(
                    &format!("http://x/v{s}"),
                    &format!("http://x/p{p}"),
                    &format!("http://x/v{o}"),
                );
            }
            b.build()
        })
    }

    /// Query texts over the generated vocabulary: a base BGP, then
    /// OPTIONAL / group-join / UNION elements, then a FILTER — every
    /// operator pair gets exercised across cases. The base binds `?a0‥3`
    /// and `?b0‥3` sparsely, so an OPTIONAL or group-join arm over
    /// `?a{s} … ?b{o}` shares 0, 1 or 2 variables with its left side; the
    /// chained OPTIONALs key the second arm on `?c{o}`, which the first
    /// leaves unbound wherever it finds no match.
    fn query_strategy() -> impl Strategy<Value = String> {
        let pat = (0u32..4, 0u32..3, 0u32..4)
            .prop_map(|(s, p, o)| format!("?a{s} <http://x/p{p}> ?b{o}"));
        let base = proptest::collection::vec(pat, 1..3).prop_map(|ps| ps.join(" . "));
        let tail = prop_oneof![
            Just(String::new()),
            (0u32..4, 0u32..3, 0u32..4).prop_map(|(s, p, o)| format!(
                " OPTIONAL {{ ?a{s} <http://x/p{p}> ?c{o} }}"
            )),
            (0u32..4, 0u32..3, 0u32..4).prop_map(|(s, p, o)| format!(
                " OPTIONAL {{ ?a{s} <http://x/p{p}> ?b{o} }}"
            )),
            (0u32..4, 0u32..3, 0u32..4).prop_map(|(s, p, o)| format!(
                " {{ ?a{s} <http://x/p{p}> ?b{o} }}"
            )),
            (0u32..4, 0u32..3, 0u32..3, 0u32..4).prop_map(|(s, p, q, o)| format!(
                " OPTIONAL {{ ?a{s} <http://x/p{p}> ?c{o} }} OPTIONAL {{ ?c{o} <http://x/p{q}> ?d0 }}"
            )),
            (0u32..3, 0u32..3, 0u32..4).prop_map(|(p, q, o)| format!(
                " {{ ?a0 <http://x/p{p}> ?d{o} }} UNION {{ ?a1 <http://x/p{q}> ?d{o} }}"
            )),
        ];
        let filt = prop_oneof![
            Just(String::new()),
            (0u32..4, 0u32..4).prop_map(|(x, y)| format!(" FILTER(?a{x} != ?a{y})")),
            (0u32..4, 0u32..8).prop_map(|(x, v)| format!(
                " FILTER(?a{x} = <http://x/v{v}>)"
            )),
        ];
        let distinct = prop_oneof![Just(""), Just("DISTINCT ")];
        (distinct, base, tail, filt).prop_map(|(d, b, t, f)| {
            format!("SELECT {d}* WHERE {{ {b}{t}{f} }}")
        })
    }

    /// The naive reference's rows for `plan` over its output columns,
    /// sorted (the comparison is between bags).
    fn reference_bag(
        plan: &ResolvedPlan,
        store: &LocalStore,
        dict: &mpc_rdf::Dictionary,
    ) -> Vec<Vec<u32>> {
        let nvars = plan.var_names.len();
        let reference = ref_node(&plan.root, store.triples(), nvars, &plan.prop_vars, dict);
        let out_vars = plan.out_vars();
        let mut want: Vec<Vec<u32>> = reference
            .iter()
            .map(|row| {
                out_vars
                    .iter()
                    .map(|&v| row[v as usize].unwrap_or(UNBOUND))
                    .collect()
            })
            .collect();
        want.sort();
        want
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn plan_eval_matches_naive_reference(g in graph_strategy(), text in query_strategy()) {
            let dict = g.dictionary();
            // Queries whose FILTER variables don't occur are rejected at
            // resolve; that's fine, skip them.
            let Ok(plan) = parse(&text).unwrap().resolve(dict) else {
                return Ok(());
            };
            let store = LocalStore::from_graph(&g);
            let got = eval_plan_local(&plan, &store, dict);
            let mut have = got.rows.clone();
            have.sort();
            prop_assert_eq!(have, reference_bag(&plan, &store, dict), "query: {}", text);
        }
    }

    proptest! {
        // Enough cases for the chained OPTIONALs to leave a keyed column
        // partly unbound *and* have the second arm match.
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A source that takes every seed offer and one that declines
        /// them all return the same rows in the same order, and both
        /// equal the naive reference as bags.
        #[test]
        fn seeding_source_matches_declining_source(
            g in graph_strategy(),
            text in query_strategy(),
        ) {
            let dict = g.dictionary();
            let Ok(plan) = parse(&text).unwrap().resolve(dict) else {
                return Ok(());
            };
            let store = LocalStore::from_graph(&g);
            let mut seeding = CountingSource::new(&store, false, true);
            let mut declining = CountingSource::new(&store, false, false);
            let Ok(seeded) = eval_plan(&plan, &mut seeding, dict);
            let Ok(plain) = eval_plan(&plan, &mut declining, dict);
            prop_assert_eq!(declining.seeded_calls(), 0);
            prop_assert_eq!(&seeded, &plain, "query: {}", text);
            let mut have = seeded.rows;
            have.sort();
            prop_assert_eq!(have, reference_bag(&plan, &store, dict), "query: {}", text);
        }
    }
}
