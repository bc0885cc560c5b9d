//! SPARQL machinery: query graphs, a parser for BGPs composed with
//! OPTIONAL / UNION / FILTER / ORDER BY (docs/QUERY.md), an indexed
//! triple store, a homomorphism matcher, and the bindings algebra (set
//! and bag operators) used by local and distributed execution.
//!
//! This crate is the "centralized RDF engine" substrate the paper runs at
//! every site (the authors used gStore): [`store::LocalStore`] answers all
//! eight triple-pattern access paths via SPO/POS/OSP sorted runs,
//! and [`matcher::evaluate`] enumerates BGP homomorphisms (Definition 3.6)
//! with dynamic selectivity-based pattern ordering.
//!
//! Queries flow through one pipeline: [`parse`] → [`Algebra::resolve`]
//! → [`eval::eval_plan`] (against a [`eval::BgpSource`] — the local
//! store here, the distributed coordinator in `mpc-cluster`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod canon;
pub mod eval;
pub mod explain;
pub mod matcher;
pub mod parser;
pub mod planner;
pub mod query;
pub mod store;

pub use algebra::{
    bag_project, bag_union, compat_join, dedup_preserving_order, hash_join, join_all, left_join,
    sort_rows, Algebra, Bindings, PlanNode, ROperand, ResolvedFilter, ResolvedPlan, UNBOUND,
};
pub use canon::{canonicalize_plan, CanonicalPlan};
pub use eval::{eval_plan, eval_plan_local, BgpSource};
pub use explain::{access_path_name, explain, render as render_plan, PlanStep};
pub use matcher::{evaluate, evaluate_observed, evaluate_with, MatchObserver, MatchStats};
pub use parser::{
    is_update, numeric_value, parse, parse_update, CompareOp, Filter, FilterOperand,
    GroundTriple, QueryParseError, UpdateData,
};
pub use planner::{estimate, seeding_pays, static_order};
pub use query::{QLabel, QNode, Query, QueryBuilder, TriplePattern};
pub use store::{LocalStore, Pattern, PropertyCard, StoreStats};
