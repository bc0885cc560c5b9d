//! Canonical forms for BGP queries — the serving layer's stable cache key.
//!
//! Two spellings of the same BGP (renamed variables, reordered or
//! duplicated patterns, whitespace/`$`/trailing-dot surface variants that
//! the parser already normalizes away) must map to one key, and two
//! different BGPs must never collide. [`canonicalize`] delivers both:
//!
//! * **Soundness** (what cache correctness rests on): the canonical query
//!   is always a variable relabeling of the input with its patterns
//!   sorted and deduplicated, so *equal canonical forms imply equivalent
//!   queries* no matter how the labeling was found. The key is the
//!   canonical pattern list itself, not a hash — collisions are
//!   structurally impossible.
//! * **Completeness** (a hit-rate property): for queries with at most
//!   [`EXACT_VAR_LIMIT`] variables the labeling minimizes the sorted
//!   pattern list over *all* variable bijections, so every equivalent
//!   spelling lands on the same key. Larger queries fall back to a greedy
//!   labeling that may split some symmetric spellings into distinct keys;
//!   the only cost is a spurious cache miss, never a wrong hit.

//!
//! [`canonicalize_plan`] lifts the same idea to whole algebra trees
//! (OPTIONAL / UNION / FILTER / ORDER BY, docs/QUERY.md): one variable
//! labeling is chosen from the union of every BGP leaf's patterns, the
//! tree is relabeled node by node, and each leaf's patterns are sorted
//! under the new labels. α-equivalent trees — renamed variables,
//! reshuffled patterns within a leaf — become identical [`PlanNode`]
//! values, which is the serve layer's cache key for non-BGP plans.

use crate::algebra::{
    bag_project, Bindings, PlanNode, ResolvedFilter, ResolvedPlan, ROperand,
};
use crate::query::{QLabel, QNode, Query, TriplePattern};
use mpc_rdf::{narrow, FxHashMap};

/// Queries with at most this many *used* variables get the exact
/// (minimum-over-all-bijections) labeling; 7! = 5040 candidate labelings
/// is the worst case, amortized across the plan cache.
pub const EXACT_VAR_LIMIT: usize = 7;

/// Canonical id marking a variable the labeling has not assigned yet.
/// Sorts after every real canonical id, before nothing observable —
/// it never appears in a finished canonical query.
const UNASSIGNED: u32 = u32::MAX;

/// A collision-free cache key: the canonical pattern list plus the
/// variable count (patterns alone cannot see variables no pattern uses).
pub type CanonicalKey = (Vec<TriplePattern>, usize);

/// A query in canonical form, remembering how to get back.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    /// The canonical relabeling: patterns sorted and deduplicated,
    /// variables renumbered.
    pub query: Query,
    /// `var_map[original] = canonical` for every variable of the input.
    pub var_map: Vec<u32>,
}

impl CanonicalQuery {
    /// The cache key of this canonical form.
    pub fn key(&self) -> CanonicalKey {
        (self.query.patterns.clone(), self.query.var_count())
    }

    /// Maps bindings produced by running the *canonical* query back into
    /// the original query's variable order, sorted — bit-identical to
    /// evaluating the original query directly. The table is consumed: a
    /// labeling that kept the original numbering hands the rows back
    /// untouched, any other permutes each row in place and re-sorts.
    pub fn restore_bindings(&self, canonical: Bindings) -> Bindings {
        let relabeled = self.var_map != canonical.vars;
        let mut out = bag_project(canonical, &self.var_map);
        if relabeled {
            // A bijection on columns keeps rows distinct; only their
            // order changes.
            out.rows.sort_unstable();
        }
        out.vars = (0..narrow::u32_from(out.vars.len())).collect();
        out
    }
}

/// Computes the canonical form of a query.
///
/// # Examples
///
/// ```
/// use mpc_sparql::{canonicalize, QLabel, QNode, Query, TriplePattern};
/// use mpc_rdf::PropertyId;
///
/// let p = |s, o| TriplePattern::new(QNode::Var(s), QLabel::Prop(PropertyId(0)), QNode::Var(o));
/// let a = Query::new(vec![p(0, 1), p(1, 2)], vec!["x".into(), "y".into(), "z".into()]);
/// // Same path, variables renamed and patterns reordered.
/// let b = Query::new(vec![p(2, 0), p(1, 2)], vec!["u".into(), "v".into(), "w".into()]);
/// assert_eq!(canonicalize(&a).key(), canonicalize(&b).key());
/// ```
pub fn canonicalize(q: &Query) -> CanonicalQuery {
    let n = q.var_count();
    let mut used = vec![false; n];
    for pat in &q.patterns {
        for v in [pat.s.as_var(), pat.o.as_var(), pat.p.as_var()]
            .into_iter()
            .flatten()
        {
            used[v as usize] = true;
        }
    }
    let used_vars: Vec<u32> = (0..narrow::u32_from(n))
        .filter(|&v| used[v as usize])
        .collect();
    let mut map = if used_vars.len() <= EXACT_VAR_LIMIT {
        exact_labeling(&q.patterns, &used_vars, n)
    } else {
        greedy_labeling(&q.patterns, &used_vars, n)
    };
    // Variables no pattern mentions cannot influence the pattern list;
    // give them the trailing ids in original order.
    let mut next = narrow::u32_from(used_vars.len());
    for slot in map.iter_mut() {
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
    }
    let patterns = relabel(&q.patterns, &map);
    let var_names = (0..n).map(|i| format!("c{i}")).collect();
    CanonicalQuery {
        query: Query::new(patterns, var_names),
        var_map: map,
    }
}

/// Convenience: the [`CanonicalKey`] of a query in one call.
pub fn canonical_key(q: &Query) -> CanonicalKey {
    canonicalize(q).key()
}

/// Applies a variable map to every pattern, then sorts and deduplicates —
/// the normal form a fixed labeling induces.
fn relabel(patterns: &[TriplePattern], map: &[u32]) -> Vec<TriplePattern> {
    let node = |n: QNode| match n {
        QNode::Var(v) => QNode::Var(map[v as usize]),
        c @ QNode::Const(_) => c,
    };
    let label = |l: QLabel| match l {
        QLabel::Var(v) => QLabel::Var(map[v as usize]),
        p @ QLabel::Prop(_) => p,
    };
    let mut out: Vec<TriplePattern> = patterns
        .iter()
        .map(|p| TriplePattern::new(node(p.s), label(p.p), node(p.o)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Minimizes the relabeled pattern list over all bijections of the used
/// variables — exact canonical labeling, exponential in `used_vars.len()`.
fn exact_labeling(patterns: &[TriplePattern], used_vars: &[u32], nvars: usize) -> Vec<u32> {
    fn rec(
        patterns: &[TriplePattern],
        used_vars: &[u32],
        map: &mut Vec<u32>,
        taken: &mut Vec<bool>,
        depth: usize,
        best: &mut Option<(Vec<TriplePattern>, Vec<u32>)>,
    ) {
        if depth == used_vars.len() {
            let labeled = relabel(patterns, map);
            if best.as_ref().is_none_or(|(b, _)| labeled < *b) {
                *best = Some((labeled, map.clone()));
            }
            return;
        }
        let id = narrow::u32_from(depth);
        for (i, &v) in used_vars.iter().enumerate() {
            if taken[i] {
                continue;
            }
            taken[i] = true;
            map[v as usize] = id;
            rec(patterns, used_vars, map, taken, depth + 1, best);
            map[v as usize] = UNASSIGNED;
            taken[i] = false;
        }
    }

    let mut map = vec![UNASSIGNED; nvars];
    if used_vars.is_empty() {
        return map;
    }
    let mut taken = vec![false; used_vars.len()];
    let mut best = None;
    rec(patterns, used_vars, &mut map, &mut taken, 0, &mut best);
    // mpc-allow: unwrap-expect used_vars is non-empty so the search visits at least one labeling
    best.expect("at least one labeling exists").1
}

/// Greedy labeling for large queries: assign canonical ids one at a
/// time, each time to the variable that minimizes the partially
/// relabeled, sorted pattern list (unassigned variables compare as the
/// [`UNASSIGNED`] sentinel). Deterministic and sound; ties between
/// symmetric variables are broken by original index, which can split
/// equivalent spellings into distinct keys — a miss, never a wrong hit.
fn greedy_labeling(patterns: &[TriplePattern], used_vars: &[u32], nvars: usize) -> Vec<u32> {
    let mut map = vec![UNASSIGNED; nvars];
    let mut remaining: Vec<u32> = used_vars.to_vec();
    for next in 0..used_vars.len() {
        let id = narrow::u32_from(next);
        let mut best: Option<(Vec<TriplePattern>, usize)> = None;
        for (ri, &v) in remaining.iter().enumerate() {
            map[v as usize] = id;
            let labeled = relabel(patterns, &map);
            map[v as usize] = UNASSIGNED;
            if best.as_ref().is_none_or(|(b, _)| labeled < *b) {
                best = Some((labeled, ri));
            }
        }
        // mpc-allow: unwrap-expect the loop above ran over a non-empty `remaining`
        let (_, ri) = best.expect("non-empty remaining");
        let v = remaining.remove(ri);
        map[v as usize] = id;
    }
    map
}

/// A resolved plan in canonical form, remembering how to get back.
///
/// Because [`Algebra::resolve`](crate::algebra::Algebra::resolve)
/// guarantees an explicit `Project` on the root spine, the canonical
/// plan's output columns correspond *pointwise* to the original's —
/// column `i` holds the same variable under both labelings. Restoring
/// cached rows is therefore a pure re-labeling: the rows are reused
/// verbatim.
#[derive(Clone, Debug)]
pub struct CanonicalPlan {
    /// The canonical relabeling of the whole tree.
    pub plan: ResolvedPlan,
    /// `var_map[original_global] = canonical_global`.
    pub var_map: Vec<u32>,
    /// The original plan's root output columns, for restore.
    original_out_vars: Vec<u32>,
}

impl CanonicalPlan {
    /// Maps bindings produced by evaluating the *canonical* plan back
    /// into the original plan's variable labels. The table is consumed
    /// and its rows carry over unchanged (see the
    /// pointwise-correspondence note on the type).
    pub fn restore_bindings(&self, canonical: Bindings) -> Bindings {
        Bindings {
            vars: self.original_out_vars.clone(),
            rows: canonical.rows,
        }
    }
}

/// Maps a leaf-local pattern into the plan's global variable space.
fn globalize(pat: &TriplePattern, var_map: &[u32]) -> TriplePattern {
    let node = |n: QNode| match n {
        QNode::Var(l) => QNode::Var(var_map[l as usize]),
        c @ QNode::Const(_) => c,
    };
    let label = |l: QLabel| match l {
        QLabel::Var(v) => QLabel::Var(var_map[v as usize]),
        p @ QLabel::Prop(_) => p,
    };
    TriplePattern::new(node(pat.s), label(pat.p), node(pat.o))
}

/// Rebuilds a plan node under a canonical global-variable map. BGP
/// leaves get their patterns relabeled, sorted and deduplicated, then
/// re-densified into fresh local ids (first occurrence in s, p, o
/// order) so the leaf [`Query`] keeps the matcher's dense-variable
/// contract.
fn relabel_node(node: &PlanNode, map: &[u32]) -> PlanNode {
    let map_filter = |f: &ResolvedFilter| -> ResolvedFilter {
        let side = |o: &ROperand| match o {
            ROperand::Var(g) => ROperand::Var(map[*g as usize]),
            c => c.clone(),
        };
        ResolvedFilter {
            lhs: side(&f.lhs),
            op: f.op,
            rhs: side(&f.rhs),
        }
    };
    match node {
        PlanNode::Bgp { query, var_map } => {
            let globalized: Vec<TriplePattern> = query
                .patterns
                .iter()
                .map(|p| globalize(p, var_map))
                .collect();
            let canonical = relabel(&globalized, map);
            let mut local: FxHashMap<u32, u32> = FxHashMap::default();
            let mut new_map: Vec<u32> = Vec::new();
            let mut names: Vec<String> = Vec::new();
            let mut intern = |g: u32, new_map: &mut Vec<u32>, names: &mut Vec<String>| -> u32 {
                if let Some(&l) = local.get(&g) {
                    return l;
                }
                let l = narrow::u32_from(new_map.len());
                local.insert(g, l);
                new_map.push(g);
                names.push(format!("c{g}"));
                l
            };
            let patterns: Vec<TriplePattern> = canonical
                .iter()
                .map(|pat| {
                    let s = match pat.s {
                        QNode::Var(g) => QNode::Var(intern(g, &mut new_map, &mut names)),
                        c => c,
                    };
                    let p = match pat.p {
                        QLabel::Var(g) => QLabel::Var(intern(g, &mut new_map, &mut names)),
                        pr => pr,
                    };
                    let o = match pat.o {
                        QNode::Var(g) => QNode::Var(intern(g, &mut new_map, &mut names)),
                        c => c,
                    };
                    TriplePattern::new(s, p, o)
                })
                .collect();
            PlanNode::Bgp {
                query: Query::new(patterns, names),
                var_map: new_map,
            }
        }
        PlanNode::Empty { vars } => PlanNode::Empty {
            vars: vars.iter().map(|&v| map[v as usize]).collect(),
        },
        PlanNode::Join(l, r) => PlanNode::Join(
            Box::new(relabel_node(l, map)),
            Box::new(relabel_node(r, map)),
        ),
        PlanNode::LeftJoin(l, r) => PlanNode::LeftJoin(
            Box::new(relabel_node(l, map)),
            Box::new(relabel_node(r, map)),
        ),
        PlanNode::Union(l, r) => PlanNode::Union(
            Box::new(relabel_node(l, map)),
            Box::new(relabel_node(r, map)),
        ),
        PlanNode::Filter(c, f) => {
            PlanNode::Filter(Box::new(relabel_node(c, map)), map_filter(f))
        }
        PlanNode::Distinct(c) => PlanNode::Distinct(Box::new(relabel_node(c, map))),
        PlanNode::OrderBy(c, keys) => PlanNode::OrderBy(
            Box::new(relabel_node(c, map)),
            keys.iter().map(|&(v, d)| (map[v as usize], d)).collect(),
        ),
        PlanNode::Slice(c, offset, limit) => {
            PlanNode::Slice(Box::new(relabel_node(c, map)), *offset, *limit)
        }
        PlanNode::Project(c, vars) => PlanNode::Project(
            Box::new(relabel_node(c, map)),
            vars.iter().map(|&v| map[v as usize]).collect(),
        ),
    }
}

/// Computes the canonical form of a whole resolved plan.
///
/// The labeling is chosen once, over the union of every leaf's patterns
/// lifted to global variables — exact below [`EXACT_VAR_LIMIT`] used
/// variables, greedy above — then applied to every node. Variables no
/// pattern uses (e.g. those bound only inside a provably-empty leaf)
/// get trailing ids in original order: deterministic, possibly
/// spelling-sensitive — an extra cache miss, never a wrong hit.
pub fn canonicalize_plan(plan: &ResolvedPlan) -> CanonicalPlan {
    let n = plan.var_names.len();
    let mut synthetic: Vec<TriplePattern> = Vec::new();
    plan.root.for_each(&mut |node| {
        if let PlanNode::Bgp { query, var_map } = node {
            synthetic.extend(query.patterns.iter().map(|p| globalize(p, var_map)));
        }
    });
    let mut used = vec![false; n];
    for pat in &synthetic {
        for v in [pat.s.as_var(), pat.o.as_var(), pat.p.as_var()]
            .into_iter()
            .flatten()
        {
            used[v as usize] = true;
        }
    }
    let used_vars: Vec<u32> = (0..narrow::u32_from(n))
        .filter(|&v| used[v as usize])
        .collect();
    let mut map = if used_vars.len() <= EXACT_VAR_LIMIT {
        exact_labeling(&synthetic, &used_vars, n)
    } else {
        greedy_labeling(&synthetic, &used_vars, n)
    };
    let mut next = narrow::u32_from(used_vars.len());
    for slot in map.iter_mut() {
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
    }
    let root = relabel_node(&plan.root, &map);
    let mut prop_vars = vec![false; n];
    for (g, &c) in map.iter().enumerate() {
        prop_vars[c as usize] = plan.prop_vars[g];
    }
    CanonicalPlan {
        plan: ResolvedPlan {
            root,
            var_names: (0..n).map(|i| format!("c{i}")).collect(),
            prop_vars,
        },
        original_out_vars: plan.out_vars(),
        var_map: map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::evaluate;
    use crate::parser::parse;
    use crate::store::LocalStore;
    use mpc_rdf::{Dictionary, GraphBuilder, PropertyId, Triple, VertexId};

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

    #[test]
    fn renaming_and_reordering_agree() {
        // ?x p0 ?y . ?y p1 ?z  ==  ?b p1 ?c . ?a p0 ?b (renamed + reordered)
        let a = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(1), v(2)),
            ],
            3,
        );
        let b = q(
            vec![
                TriplePattern::new(v(0), prop(1), v(2)),
                TriplePattern::new(v(1), prop(0), v(0)),
            ],
            3,
        );
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn different_shapes_do_not_collide() {
        let path = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let star = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(0), prop(0), v(2)),
            ],
            3,
        );
        assert_ne!(canonical_key(&path), canonical_key(&star));
    }

    #[test]
    fn constants_must_match_exactly() {
        let a = q(vec![TriplePattern::new(v(0), prop(0), c(5))], 1);
        let b = q(vec![TriplePattern::new(v(0), prop(0), c(6))], 1);
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn duplicate_patterns_collapse() {
        let once = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        let twice = q(
            vec![
                TriplePattern::new(v(0), prop(0), v(1)),
                TriplePattern::new(v(0), prop(0), v(1)),
            ],
            2,
        );
        assert_eq!(canonical_key(&once), canonical_key(&twice));
    }

    #[test]
    fn restore_bindings_matches_direct_evaluation() {
        let store = LocalStore::new(vec![
            Triple::new(VertexId(0), PropertyId(0), VertexId(1)),
            Triple::new(VertexId(1), PropertyId(1), VertexId(2)),
            Triple::new(VertexId(0), PropertyId(0), VertexId(3)),
            Triple::new(VertexId(3), PropertyId(1), VertexId(2)),
        ]);
        let query = q(
            vec![
                TriplePattern::new(v(2), prop(1), v(0)),
                TriplePattern::new(v(1), prop(0), v(2)),
            ],
            3,
        );
        let canon = canonicalize(&query);
        let direct = evaluate(&query, &store);
        let via_canon = canon.restore_bindings(evaluate(&canon.query, &store));
        assert_eq!(direct, via_canon);
    }

    #[test]
    fn greedy_fallback_is_sound() {
        // A 9-variable path exceeds EXACT_VAR_LIMIT → greedy labeling.
        // Soundness: the canonical query still evaluates equivalently.
        let patterns: Vec<TriplePattern> = (0..8)
            .map(|i| TriplePattern::new(v(i), prop(0), v(i + 1)))
            .collect();
        let query = q(patterns, 9);
        let canon = canonicalize(&query);
        assert_eq!(canon.query.var_count(), 9);
        let store = LocalStore::new(
            (0..12)
                .map(|i| Triple::new(VertexId(i), PropertyId(0), VertexId(i + 1)))
                .collect(),
        );
        let direct = evaluate(&query, &store);
        let via_canon = canon.restore_bindings(evaluate(&canon.query, &store));
        assert_eq!(direct, via_canon);
    }

    #[test]
    fn unused_variables_keep_distinct_keys() {
        let a = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 2);
        // Same pattern but a third (unused) variable declared: different
        // queries — execution of `b` would have an unbound column.
        let b = q(vec![TriplePattern::new(v(0), prop(0), v(1))], 3);
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    fn dict() -> Dictionary {
        let mut b = GraphBuilder::new();
        b.add_iris("urn:alice", "urn:knows", "urn:bob");
        b.add_iris("urn:bob", "urn:knows", "urn:carol");
        b.add_iris("urn:bob", "urn:name", "urn:lit-b");
        b.build().dictionary().clone()
    }

    fn key_of(text: &str) -> CanonicalKey {
        let plan = parse(text)
            .expect("parses")
            .resolve(&dict())
            .expect("resolves");
        canonical_key(plan.as_bgp().expect("single-BGP plan"))
    }

    /// The parser normalizes surface syntax (whitespace, comments,
    /// `?`/`$`, the optional trailing dot); canonicalization normalizes
    /// the rest (names, order). Together: variant spellings hash equal.
    #[test]
    fn parser_round_trip_spellings_hash_equal() {
        let reference = key_of("SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:name> ?n }");
        let variants = [
            // Whitespace and newlines.
            "SELECT *\nWHERE {\n\t?x  <urn:knows>\t?y .\n   ?y <urn:name> ?n\n}",
            // Trailing dot present on the last pattern.
            "SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:name> ?n . }",
            // `$` variable sigils.
            "SELECT * WHERE { $x <urn:knows> $y . $y <urn:name> $n }",
            // Renamed variables.
            "SELECT * WHERE { ?a <urn:knows> ?b . ?b <urn:name> ?c }",
            // Reordered patterns (flips first-occurrence var numbering too).
            "SELECT * WHERE { ?b <urn:name> ?c . ?a <urn:knows> ?b }",
            // Comments between tokens.
            "SELECT * WHERE { # star\n ?x <urn:knows> ?y . # then\n ?y <urn:name> ?n }",
            // A duplicated pattern.
            "SELECT * WHERE { ?x <urn:knows> ?y . ?x <urn:knows> ?y . ?y <urn:name> ?n }",
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_eq!(reference, key_of(variant), "variant #{i} diverged: {variant}");
        }
    }

    #[test]
    fn semantically_different_spellings_stay_apart() {
        let a = key_of("SELECT * WHERE { ?x <urn:knows> ?y }");
        let b = key_of("SELECT * WHERE { ?x <urn:name> ?y }");
        assert_ne!(a, b);
    }

    fn plan_of(text: &str) -> ResolvedPlan {
        parse(text)
            .expect("parses")
            .resolve(&dict())
            .expect("resolves")
    }

    #[test]
    fn respelled_operator_plans_share_one_canonical_root() {
        let a = plan_of(
            "SELECT ?x ?y WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:name> ?n } \
             FILTER(?x != ?y) } ORDER BY ?y LIMIT 4",
        );
        let b = plan_of(
            "SELECT ?p ?q WHERE { ?p <urn:knows> ?q OPTIONAL { ?q <urn:name> ?m } \
             FILTER(?p != ?q) } ORDER BY ?q LIMIT 4",
        );
        assert_ne!(a.root, b.root, "different spellings");
        assert_eq!(
            canonicalize_plan(&a).plan.root,
            canonicalize_plan(&b).plan.root,
            "one canonical root"
        );
    }

    #[test]
    fn different_operator_plans_stay_apart() {
        let a = canonicalize_plan(&plan_of(
            "SELECT * WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:name> ?n } }",
        ));
        let b = canonicalize_plan(&plan_of(
            "SELECT * WHERE { ?x <urn:knows> ?y . ?y <urn:name> ?n }",
        ));
        assert_ne!(a.plan.root, b.plan.root);
    }

    #[test]
    fn canonical_plan_execution_restores_to_original_rows() {
        use crate::eval::eval_plan_local;
        let mut b = GraphBuilder::new();
        b.add_iris("urn:alice", "urn:knows", "urn:bob");
        b.add_iris("urn:bob", "urn:knows", "urn:carol");
        b.add_iris("urn:bob", "urn:name", "urn:lit-b");
        let g = b.build();
        let store = LocalStore::from_graph(&g);
        for text in [
            "SELECT ?x ?y WHERE { ?x <urn:knows> ?y }",
            "SELECT ?y ?x WHERE { ?x <urn:knows> ?y OPTIONAL { ?y <urn:name> ?n } }",
            "SELECT * WHERE { { ?x <urn:knows> ?y } UNION { ?x <urn:name> ?y } }",
            "SELECT DISTINCT ?x WHERE { ?x <urn:knows> ?y FILTER(?x != ?y) } ORDER BY ?x",
        ] {
            let plan = parse(text)
                .unwrap()
                .resolve(g.dictionary())
                .expect("resolves");
            let direct = eval_plan_local(&plan, &store, g.dictionary());
            let canon = canonicalize_plan(&plan);
            let restored =
                canon.restore_bindings(eval_plan_local(&canon.plan, &store, g.dictionary()));
            assert_eq!(restored.vars, direct.vars, "columns correspond: {text}");
            let mut a = direct.rows.clone();
            let mut b = restored.rows.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "same result multiset: {text}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
mod proptests {
    use super::*;
    use crate::matcher::evaluate;
    use crate::store::LocalStore;
    use mpc_rdf::{PropertyId, Triple, VertexId};
    use proptest::prelude::*;

    /// Random small queries with densely used variables (mirrors the
    /// matcher proptests' generator).
    fn query_strategy() -> impl Strategy<Value = Query> {
        let node = prop_oneof![
            (0u32..4).prop_map(QNode::Var),
            (0u32..6).prop_map(|v| QNode::Const(VertexId(v))),
        ];
        let label = (0u32..3).prop_map(|p| QLabel::Prop(PropertyId(p)));
        proptest::collection::vec((node.clone(), label, node), 1..5).prop_map(|pats| {
            let mut map = std::collections::HashMap::new();
            let mut names = Vec::new();
            let remap = |n: QNode,
                         map: &mut std::collections::HashMap<u32, u32>,
                         names: &mut Vec<String>| match n {
                QNode::Var(v) => {
                    let next = names.len() as u32;
                    let id = *map.entry(v).or_insert_with(|| {
                        names.push(format!("v{v}"));
                        next
                    });
                    QNode::Var(id)
                }
                c => c,
            };
            let patterns = pats
                .into_iter()
                .map(|(s, p, o)| {
                    TriplePattern::new(
                        remap(s, &mut map, &mut names),
                        p,
                        remap(o, &mut map, &mut names),
                    )
                })
                .collect();
            Query::new(patterns, names)
        })
    }

    /// Deterministically scrambles a query with a seeded LCG: random
    /// variable bijection, pattern rotation + swap, and possibly a
    /// duplicated pattern — an equivalent spelling by construction.
    fn scramble(q: &Query, seed: u64) -> Query {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = q.var_count();
        // Fisher–Yates over the variable ids.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let node = |nd: QNode| match nd {
            QNode::Var(v) => QNode::Var(perm[v as usize]),
            c => c,
        };
        let label = |l: QLabel| match l {
            QLabel::Var(v) => QLabel::Var(perm[v as usize]),
            p => p,
        };
        let mut patterns: Vec<TriplePattern> = q
            .patterns
            .iter()
            .map(|p| TriplePattern::new(node(p.s), label(p.p), node(p.o)))
            .collect();
        let m = patterns.len();
        patterns.rotate_left((next() % m as u64) as usize);
        if m > 1 {
            let a = (next() % m as u64) as usize;
            let b = (next() % m as u64) as usize;
            patterns.swap(a, b);
        }
        if next() % 2 == 0 {
            let dup = patterns[(next() % m as u64) as usize];
            patterns.push(dup);
        }
        let mut names = vec![String::new(); n];
        for (orig, &canon) in perm.iter().enumerate() {
            names[canon as usize] = format!("r{orig}");
        }
        Query::new(patterns, names)
    }

    fn store_strategy() -> impl Strategy<Value = LocalStore> {
        proptest::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..25).prop_map(|v| {
            LocalStore::new(
                v.into_iter()
                    .map(|(s, p, o)| Triple::new(VertexId(s), PropertyId(p), VertexId(o)))
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Completeness on small queries: every equivalent spelling —
        /// renamed variables, shuffled/duplicated patterns — receives the
        /// same canonical key.
        #[test]
        fn equivalent_spellings_share_a_key(q in query_strategy(), seed in any::<u64>()) {
            let scrambled = scramble(&q, seed);
            prop_assert_eq!(canonical_key(&q), canonical_key(&scrambled));
        }

        /// Soundness: evaluating the canonical query and mapping the rows
        /// back is bit-identical to evaluating the original directly.
        #[test]
        fn canonical_execution_is_bit_identical(
            q in query_strategy(),
            store in store_strategy(),
        ) {
            let canon = canonicalize(&q);
            let direct = evaluate(&q, &store);
            let via = canon.restore_bindings(evaluate(&canon.query, &store));
            prop_assert_eq!(direct, via);
        }
    }
}
