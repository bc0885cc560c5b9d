//! Operator-form workload derivation (docs/QUERY.md).
//!
//! The synthetic generators produce **raw id graphs** — their
//! dictionaries hold no terms, so operator queries for them cannot go
//! through `parse → resolve`. This module instead derives resolved
//! algebra plans ([`ResolvedPlan`]) directly from base BGP benchmark
//! queries ([`NamedQuery`]), one per operator form the engine supports:
//! OPTIONAL (left join), bag UNION, DISTINCT over a union, id-only
//! FILTER (the partition-local pushdown class), and ORDER BY + LIMIT.
//! `serve_replay` feeds them through `ServeEngine::serve_plan` so the
//! serving cache sees non-BGP plans under benchmark load.

use crate::NamedQuery;
use mpc_sparql::{
    CompareOp, PlanNode, QLabel, QNode, Query, ROperand, ResolvedFilter, ResolvedPlan,
    TriplePattern,
};

/// A resolved algebra plan with a display name (e.g. `opt:LQ3`).
#[derive(Clone, Debug)]
pub struct NamedPlan {
    /// `{operator}:{base name}`.
    pub name: String,
    /// The derived plan.
    pub plan: ResolvedPlan,
}

/// `base` (a [`ResolvedPlan::from_bgp`] plan: a `Project` over one
/// leaf) with `op` applied to the leaf, under the same projection.
fn around_leaf(base: &ResolvedPlan, op: impl FnOnce(PlanNode) -> PlanNode) -> ResolvedPlan {
    let mut plan = base.clone();
    if let PlanNode::Project(leaf, _) = &mut plan.root {
        **leaf = op(leaf.as_ref().clone());
    }
    plan
}

/// Derives one plan per applicable operator form from each base query.
///
/// Always emitted (any base with at least one variable): `union:` (bag
/// union of the base with its respelling — every row twice),
/// `distinct:` (the same union deduplicated), `order:` (ORDER BY
/// DESC on variable 0, LIMIT 10). Conditionally: `opt:` when the first
/// pattern's subject is a variable (its OPTIONAL arm re-probes that
/// subject through the first pattern's property), and `filter:` when
/// the base has two vertex-position variables (an id-only `!=` — the
/// pushdown class, docs/QUERY.md).
pub fn operator_plans(base: &[NamedQuery]) -> Vec<NamedPlan> {
    let mut out = Vec::new();
    for nq in base {
        if nq.query.var_count() == 0 {
            continue;
        }
        let bgp = ResolvedPlan::from_bgp(nq.query.clone());

        // The respelling reverses the leaf's pattern list — the cosmetic
        // variant `serve_replay` uses to exercise canonical-key sharing.
        let union = around_leaf(&bgp, |leaf| {
            let mut respelled = leaf.clone();
            if let PlanNode::Bgp { query, .. } = &mut respelled {
                query.patterns.reverse();
            }
            PlanNode::Union(Box::new(leaf), Box::new(respelled))
        });
        let distinct = ResolvedPlan {
            root: PlanNode::Distinct(Box::new(union.root.clone())),
            ..union.clone()
        };
        let mut order = around_leaf(&bgp, |leaf| {
            PlanNode::OrderBy(Box::new(leaf), vec![(0, true)])
        });
        order.root = PlanNode::Slice(Box::new(order.root), 0, Some(10));
        let mut push = |form: &str, plan: ResolvedPlan| {
            let name = format!("{form}:{}", nq.name);
            out.push(NamedPlan { name, plan });
        };
        push("union", union);
        push("distinct", distinct);
        push("order", order);
        if let Some(opt) = optional_plan(&bgp) {
            push("opt", opt);
        }
        let vertex_vars: Vec<u32> = (0..)
            .zip(&bgp.prop_vars)
            .filter_map(|(v, &prop)| (!prop).then_some(v))
            .collect();
        if let [x, y, ..] = vertex_vars[..] {
            let filter = ResolvedFilter {
                lhs: ROperand::Var(x),
                op: CompareOp::Ne,
                rhs: ROperand::Var(y),
            };
            push("filter", around_leaf(&bgp, |leaf| PlanNode::Filter(Box::new(leaf), filter)));
        }
    }
    out
}

/// `base OPTIONAL { ?s <p> ?opt }` where `?s` is the first pattern's
/// subject variable and `<p>` its property; `?opt` is a fresh variable
/// (the last column), unbound on left rows whose subject has no `<p>` edge
/// beyond the required one — exercising [`mpc_sparql::UNBOUND`] cells.
fn optional_plan(bgp: &ResolvedPlan) -> Option<ResolvedPlan> {
    let first = bgp.as_bgp()?.patterns.first()?;
    let (QNode::Var(subject), QLabel::Prop(p)) = (first.s, first.p) else {
        return None;
    };
    let fresh = u32::try_from(bgp.var_names.len()).ok()?;
    let arm = Query::new(
        vec![TriplePattern::new(
            QNode::Var(0),
            QLabel::Prop(p),
            QNode::Var(1),
        )],
        vec![bgp.var_names[subject as usize].clone(), "opt".to_owned()],
    );
    let mut plan = around_leaf(bgp, |leaf| {
        let arm = PlanNode::Bgp {
            query: arm,
            var_map: vec![subject, fresh],
        };
        PlanNode::LeftJoin(Box::new(leaf), Box::new(arm))
    });
    if let PlanNode::Project(_, vars) = &mut plan.root {
        vars.push(fresh);
    }
    plan.var_names.push("opt".to_owned());
    plan.prop_vars.push(false);
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_rdf::{PropertyId, Triple, VertexId};
    use mpc_sparql::{eval_plan_local, LocalStore};

    /// Raw 2-property graph: p0 chain 0→1→2→3, p1 edge 0→9.
    fn raw_graph() -> mpc_rdf::RdfGraph {
        mpc_rdf::RdfGraph::from_raw(
            10,
            2,
            vec![
                Triple::new(VertexId(0), PropertyId(0), VertexId(1)),
                Triple::new(VertexId(1), PropertyId(0), VertexId(2)),
                Triple::new(VertexId(2), PropertyId(0), VertexId(3)),
                Triple::new(VertexId(0), PropertyId(1), VertexId(9)),
            ],
        )
    }

    fn base() -> NamedQuery {
        NamedQuery {
            name: "T1".to_owned(),
            query: Query::new(
                vec![TriplePattern::new(
                    QNode::Var(0),
                    QLabel::Prop(PropertyId(0)),
                    QNode::Var(1),
                )],
                vec!["s".to_owned(), "o".to_owned()],
            ),
        }
    }

    #[test]
    fn every_operator_form_is_derived_and_evaluates() {
        let g = raw_graph();
        let store = LocalStore::from_graph(&g);
        let dict = g.dictionary();
        let plans = operator_plans(&[base()]);
        let names: Vec<&str> = plans.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["union:T1", "distinct:T1", "order:T1", "opt:T1", "filter:T1"]);

        let rows = |name: &str| {
            let p = plans.iter().find(|p| p.name == name).unwrap();
            eval_plan_local(&p.plan, &store, dict).rows
        };
        // Bag union preserves duplicates; DISTINCT collapses them.
        assert_eq!(rows("union:T1").len(), 6, "3 base rows, twice");
        assert_eq!(rows("distinct:T1").len(), 3);
        // ORDER BY DESC(?s) LIMIT 10: all 3 rows, subjects descending.
        let ordered = rows("order:T1");
        assert_eq!(
            ordered.iter().map(|r| r[0]).collect::<Vec<_>>(),
            [2, 1, 0]
        );
        // OPTIONAL arm probes p0 again: every subject has a p0 edge, so
        // no unbound cells here, but the fresh column exists.
        for row in rows("opt:T1") {
            assert_eq!(row.len(), 3);
        }
        // FILTER(?s != ?o) drops nothing on a chain (s ≠ o always).
        assert_eq!(rows("filter:T1").len(), 3);
    }

    #[test]
    fn optional_cells_go_unbound_when_the_arm_misses() {
        // Base over p1 (only vertex 0 has it); OPTIONAL arm also p1 —
        // subject 0 matches, so this exercises the bound side; a base
        // over p0 with arm p1 exercises unbound cells.
        let g = raw_graph();
        let store = LocalStore::from_graph(&g);
        let dict = g.dictionary();
        let chain = base();
        // Hand-build the mixed plan: chain base, p1 OPTIONAL arm.
        let arm = Query::new(
            vec![TriplePattern::new(
                QNode::Var(0),
                QLabel::Prop(PropertyId(1)),
                QNode::Var(1),
            )],
            vec!["s".to_owned(), "opt".to_owned()],
        );
        let root = PlanNode::Project(
            Box::new(PlanNode::LeftJoin(
                Box::new(PlanNode::Bgp {
                    query: chain.query.clone(),
                    var_map: vec![0, 1],
                }),
                Box::new(PlanNode::Bgp {
                    query: arm,
                    var_map: vec![0, 2],
                }),
            )),
            vec![0, 1, 2],
        );
        let plan = ResolvedPlan {
            root,
            var_names: vec!["s".into(), "o".into(), "opt".into()],
            prop_vars: vec![false; 3],
        };
        let rows = eval_plan_local(&plan, &store, dict).rows;
        assert_eq!(rows.len(), 3, "left rows all survive");
        let unbound = rows
            .iter()
            .filter(|r| r[2] == mpc_sparql::UNBOUND)
            .count();
        assert_eq!(unbound, 2, "subjects 1 and 2 have no p1 edge");
    }
}
